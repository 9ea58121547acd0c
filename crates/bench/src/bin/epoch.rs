//! Extension experiment: epoch persistency (Liu et al., HPCA'18) on
//! top of Triad-NVM — the relaxation the paper's §3.3.1/§6 cite as
//! orthogonal and compatible. An epoch is `epoch_len` plain stores,
//! which return at cache latency, closed by one
//! `SecureMemory::flush_batch` over the blocks they stored; epoch
//! length 1 is a `persist_block` per store. Sweeps the epoch length on
//! a transactional workload and reports throughput-equivalent latency
//! and metadata-write savings.
//!
//! Usage: `cargo run -p triad-bench --release --bin epoch`

use triad_bench::harness_config;
use triad_core::{PersistScheme, SecureMemoryBuilder};
use triad_sim::{PhysAddr, Time};

fn main() {
    let ops: u64 = 40_000;
    println!("Epoch persistency over TriadNVM-2 — {ops} persists over 8 hot blocks\n");
    println!(
        "{:<12} {:>16} {:>18} {:>14}",
        "epoch size", "simulated time", "metadata persists", "NVM writes"
    );
    println!("{}", "-".repeat(64));
    for epoch_len in [1u64, 4, 16, 64, 256] {
        let mut mem = SecureMemoryBuilder::new()
            .config(harness_config())
            .scheme(PersistScheme::triad_nvm(2))
            .build()
            .expect("valid config");
        let p = mem.persistent_region().start();
        let mut t = Time::ZERO;
        let mut epoch = Vec::new();
        for i in 0..ops {
            let block = PhysAddr(p.0 + (i % 8) * 4096).block();
            let mut b = [0u8; 64];
            b[..8].copy_from_slice(&i.to_le_bytes());
            if epoch_len == 1 {
                t = mem.persist_block(block, b, t).expect("persist");
                continue;
            }
            t = mem.store_block(block, b, t).expect("store");
            epoch.push(block);
            if (i + 1) % epoch_len == 0 {
                t = mem.flush_batch(&epoch, t).expect("epoch");
                epoch.clear();
            }
        }
        if !epoch.is_empty() {
            t = mem.flush_batch(&epoch, t).expect("final epoch");
        }
        let s = mem.stats();
        let label = if epoch_len == 1 {
            "per-persist".to_string()
        } else {
            format!("{epoch_len}")
        };
        println!(
            "{label:<12} {:>16} {:>18} {:>14}",
            t.to_string(),
            s.persist_metadata_writes(),
            mem.mem_stats().writes
        );
        // Sanity: everything must still recover.
        mem.crash();
        assert!(mem.recover().expect("recover").persistent_recovered);
    }
    println!("\n(longer epochs write-combine hot blocks: fewer metadata persists, same recoverability at the boundary)");
}
