//! Crash-consistency torture demo: run transactional updates against
//! a persistent hashtable, crash at randomised points — including in
//! the middle of the engine's atomic metadata persists (§3.3.5
//! READY_BIT protocol) — and verify after every recovery that the
//! table is in a consistent, fully verified state.
//!
//! Run with: `cargo run --example crash_recovery`

use triad_nvm::core::{CrashHookKind, PersistScheme, SecureMemoryBuilder};
use triad_nvm::sim::PhysAddr;
use triad_nvm::workloads::heap::PersistentHeap;
use triad_nvm::workloads::structures::PersistentHashtable;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut mem = SecureMemoryBuilder::new()
        .capacity_bytes(8 << 20)
        .persistent_fraction_eighths(4)
        .scheme(PersistScheme::triad_nvm(2))
        .build()?;

    let heap = PersistentHeap::format(&mut mem)?;
    let table = PersistentHashtable::create(&mut mem, heap, 64)?;
    heap.set_root(&mut mem, table.header().0)?;

    // `expected[k]` mirrors what a completed insert guaranteed.
    let mut expected = vec![None::<u64>; 512];
    let mut crashes = 0;
    let mut mid_persist_crashes = 0;

    for round in 0..30u64 {
        // Arm a crash somewhere inside the engine's upcoming atomic
        // persists (varies per round to hit different protocol steps).
        mem.disarm_crash_hooks();
        mem.arm_crash(CrashHookKind::WpqWrite, 13 + round * 7)?;
        let mut k = round * 17 % 512;
        loop {
            let key = k % 512;
            let value = round * 1000 + key;
            match table.insert(&mut mem, key, value) {
                Ok(()) => {
                    expected[key as usize] = Some(value);
                    k += 1;
                }
                Err(_) => {
                    // The armed crash fired mid-transaction.
                    crashes += 1;
                    mid_persist_crashes += 1;
                    break;
                }
            }
            if k > round * 17 % 512 + 40 {
                // No crash this round; force a clean one.
                mem.crash();
                crashes += 1;
                break;
            }
        }
        let report = mem.recover()?;
        assert!(
            report.persistent_recovered,
            "round {round}: recovery failed: {report:?}"
        );
        if report.replayed_staged_writes > 0 {
            println!(
                "round {round:2}: crash hit mid-persist; replayed {} staged writes (READY_BIT)",
                report.replayed_staged_writes
            );
        }
        // Reopen and verify every completed insert survived.
        let heap2 = PersistentHeap::open(&mut mem)?;
        let root = heap2.root(&mut mem)?;
        let table2 = PersistentHashtable::open(&mut mem, heap2, PhysAddr(root))?;
        for (key, exp) in expected.iter().enumerate() {
            if let Some(v) = exp {
                let got = table2.get(&mut mem, key as u64)?;
                assert_eq!(got, Some(*v), "round {round}, key {key}");
            }
        }
    }

    println!(
        "\nsurvived {crashes} crashes ({mid_persist_crashes} mid-persist); \
         every completed insert verified after every recovery"
    );
    println!("final session counter: {}", mem.session());
    Ok(())
}
