//! The `triad-kv` transactional store end to end: create a store on an
//! integrity-protected NVM, write through the redo WAL, crash the
//! machine at a persist boundary mid-transaction, and recover —
//! engine recovery (counters + Merkle tree) followed by log replay —
//! printing what the replay actually did.
//!
//! Run with: `cargo run --example kv_demo`

use triad_nvm::core::{CrashHookKind, PersistScheme, SecureMemoryBuilder, SecureMemoryError};
use triad_nvm::kv::heap::PersistentHeap;
use triad_nvm::kv::{recover_store, KvConfig, KvError, KvStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut mem = SecureMemoryBuilder::new()
        .capacity_bytes(1 << 22) // 4 MiB simulated NVM
        .persistent_fraction_eighths(2)
        .scheme(PersistScheme::triad_nvm(2))
        .build()?;

    // A store lives on the persistent heap; publishing its superblock
    // as the heap root is what makes it findable after a crash.
    let heap = PersistentHeap::format(&mut mem)?;
    let mut store = KvStore::create(&mut mem, heap, KvConfig::default())?;
    heap.set_root(&mut mem, store.superblock().0)?;

    store.put(&mut mem, 1, b"alpha")?;
    store.put(
        &mut mem,
        2,
        b"a value long enough to spill into overflow blocks",
    )?;
    store.delete(&mut mem, 1)?;
    println!("before crash: {} live keys", store.scan(&mut mem)?.len());

    // Crash *inside* the next transaction. The put — a group commit of
    // one — logs two WAL records in address order (the patched bucket
    // block, then the new entry block), so it crosses these
    // durability points: heap cursor (0), record 1
    // meta/payload (1–2), record 2 meta/payload (3–4), commit marker
    // (5), then the index apply writes (6–7). Arming the crash at
    // boundary 6 leaves the commit marker durable but the apply torn:
    // the transaction must survive via redo replay.
    mem.arm_crash(CrashHookKind::PersistBoundary, 6)?;
    match store.put(&mut mem, 3, b"written while crashing") {
        Err(KvError::Memory(SecureMemoryError::NeedsRecovery)) => {
            println!("crashed mid-transaction, as injected")
        }
        other => return Err(format!("expected an injected crash, got {other:?}").into()),
    }

    // Recovery: rebuild/verify the engine's security metadata, reopen
    // the store, replay the log idempotently.
    let (mut store, report) = recover_store(&mut mem, None)?;
    let replay = report.log_replay.ok_or("recovery must report log replay")?;
    println!(
        "recovered: engine ok = {}, log records scanned = {}, txns redone = {}, \
         writes applied = {}, torn tail = {}",
        report.persistent_recovered,
        replay.records_scanned,
        replay.txns_applied,
        replay.writes_applied,
        replay.torn_tail,
    );

    assert_eq!(store.get(&mut mem, 1)?, None, "deleted key stays deleted");
    assert_eq!(
        store.get(&mut mem, 3)?.as_deref(),
        Some(b"written while crashing".as_ref()),
        "the committed transaction must be redone"
    );
    println!("after recovery: {} live keys", store.scan(&mut mem)?.len());
    Ok(())
}
