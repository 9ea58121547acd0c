//! Crash-consistency torture demo: run puts against a `triad-kv` store,
//! crash in the middle of the engine's atomic metadata persists
//! (§3.3.5 READY_BIT protocol) and verify after every recovery — engine
//! recovery plus WAL replay — that the interrupted put reads as its old
//! or its new value and that every completed put survived.
//!
//! Run with: `cargo run --example crash_recovery`

use std::collections::BTreeMap;

use triad_nvm::core::{CrashHookKind, PersistScheme, SecureMemoryBuilder, SecureMemoryError};
use triad_nvm::kv::heap::PersistentHeap;
use triad_nvm::kv::{recover_store, KvConfig, KvError, KvStore};

const ROUNDS: u64 = 30;
const KEYS: u64 = 512;
const PUTS_PER_ROUND: u64 = 40;

/// The value round `round` puts under `key`: one to three entry blocks
/// long, so some puts log several blocks.
fn value(round: u64, key: u64) -> Vec<u8> {
    format!("r{round}-k{key};")
        .repeat(1 + (round % 4) as usize * 4)
        .into_bytes()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut mem = SecureMemoryBuilder::new()
        .capacity_bytes(8 << 20)
        .persistent_fraction_eighths(4)
        .scheme(PersistScheme::triad_nvm(2))
        .build()?;

    let heap = PersistentHeap::format(&mut mem)?;
    let mut store = KvStore::create(&mut mem, heap, KvConfig::default())?;
    heap.set_root(&mut mem, store.superblock().0)?;

    // What every completed put guaranteed.
    let mut expected = BTreeMap::<u64, Vec<u8>>::new();

    for round in 0..ROUNDS {
        // Arm a crash somewhere inside the engine's upcoming atomic
        // persists (varies per round to hit different protocol steps).
        mem.arm_crash(CrashHookKind::WpqWrite, 13 + round * 7)?;
        let first = round * 17 % KEYS;
        let mut interrupted = None;
        for key in (first..first + PUTS_PER_ROUND).map(|k| k % KEYS) {
            let v = value(round, key);
            match store.put(&mut mem, key, &v) {
                Ok(()) => {
                    expected.insert(key, v);
                }
                Err(KvError::Memory(SecureMemoryError::NeedsRecovery)) => {
                    interrupted = Some((key, v));
                    break;
                }
                Err(e) => return Err(e.into()),
            }
        }
        let (key, new) =
            interrupted.ok_or(format!("round {round}: the armed crash never fired"))?;

        let (recovered, report) = recover_store(&mut mem, None)?;
        store = recovered;
        assert!(
            report.persistent_recovered,
            "round {round}: recovery failed: {report:?}"
        );
        // The interrupted put is all-or-nothing.
        let got = store.get(&mut mem, key)?;
        let outcome = if got.as_ref() == Some(&new) {
            "new"
        } else if got.as_ref() == expected.get(&key) {
            "old"
        } else {
            return Err(
                format!("round {round}: key {key} reads {got:?}, neither old nor new").into(),
            );
        };
        let replay = report.log_replay.unwrap_or_default();
        println!(
            "round {round:2}: crash mid-put of key {key:3}; replayed {} staged \
             writes (READY_BIT), redid {} WAL txns; the key reads its {outcome} value",
            report.replayed_staged_writes, replay.txns_applied
        );
        if let Some(v) = got {
            expected.insert(key, v);
        }
        // Every completed put survived, and nothing else appeared.
        let state: BTreeMap<u64, Vec<u8>> = store.scan(&mut mem)?.into_iter().collect();
        assert_eq!(state, expected, "round {round}: recovered state");
    }

    println!(
        "\nsurvived {ROUNDS} mid-put crashes; every completed put verified \
         after every recovery ({} keys)",
        expected.len()
    );
    println!("final session counter: {}", mem.session());
    Ok(())
}
