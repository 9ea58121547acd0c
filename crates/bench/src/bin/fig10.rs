//! Figure 10: recovery time versus memory capacity for each
//! persistence model, at the paper's accounting of 100 ns per block
//! read + MAC computation.
//!
//! Paper anchor points (1 TB): no-persist ≈ 30 min, TriadNVM-1 =
//! 30.68 s, TriadNVM-2 = 3.83 s, TriadNVM-3 = 0.48 s, Strict ≈ 0.
//! Abstract: 8 TB recovers in < 4 s (TriadNVM-3), 30.6 s at 64 TB.
//!
//! The analytic model is additionally cross-validated against the
//! *functional* recovery engine on a small memory: each row asserts
//! that actually rebuilding the tree reads exactly the blocks of the
//! scheme's rebuild start level.
//!
//! Usage: `cargo run -p triad-bench --release --bin fig10`

use triad_core::{PersistScheme, RecoveryModel, SecureMemoryBuilder};
use triad_sim::config::SystemConfig;

const GB: u64 = 1 << 30;
const TB: u64 = 1 << 40;

fn main() {
    let model = RecoveryModel::isca19();
    let schemes = [
        PersistScheme::WriteBack, // the paper's "no-persist"
        PersistScheme::triad_nvm(1),
        PersistScheme::triad_nvm(2),
        PersistScheme::triad_nvm(3),
        PersistScheme::Strict,
    ];
    println!("Figure 10 — estimated recovery time vs capacity (100 ns/block)\n");
    print!("{:<10}", "capacity");
    for s in schemes {
        print!(" {:>14}", s.to_string());
    }
    println!();
    println!("{}", "-".repeat(10 + 15 * schemes.len()));
    for cap in [
        128 * GB,
        256 * GB,
        512 * GB,
        TB,
        2 * TB,
        4 * TB,
        8 * TB,
        64 * TB,
    ] {
        let label = if cap >= TB {
            format!("{}TB", cap / TB)
        } else {
            format!("{}GB", cap / GB)
        };
        print!("{label:<10}");
        for s in schemes {
            let t = model.recovery_time(cap, s).as_secs_f64();
            print!(" {:>13.2}s", t);
        }
        println!();
    }

    println!("\npaper anchors: 1TB → 30.68s / 3.83s / 0.48s (TriadNVM-1/2/3); no-persist ≈ 30 min");
    println!("abstract:      8TB < 4s and 64TB = 30.6s under TriadNVM-3\n");

    // §3.3.4 in-text estimates for a 6 TB system split 50/50.
    let half = 3 * TB;
    let naive = half / 64 * 100; // zero every non-persistent data block, ns
    let persistent_rebuild = model.blocks_touched(half, PersistScheme::triad_nvm(1)) * 100;
    let lazy = model.level_counts(half)[1..].iter().sum::<u64>() * 100;
    println!("§3.3.4 in-text estimates (6 TB system, 3 TB per region):");
    println!(
        "  naive np zeroing                      ≈ {:.1} min  (paper: ≈ 85.9 min)",
        naive as f64 / 1e9 / 60.0
    );
    println!(
        "  persistent rebuild from counters      ≈ {:.0} s      (paper: ≈ 92 s)",
        persistent_rebuild as f64 / 1e9
    );
    println!(
        "  lazy np recovery (zero L1, build up)  ≈ {:.0} s      (the §3.3.4 optimisation)\n",
        lazy as f64 / 1e9
    );

    // Functional cross-validation on a small memory: the recovery
    // engine must read exactly the blocks of its rebuild's start level
    // (nodes above it are recomputed, not read), so consecutive schemes
    // differ by ≈ the arity, as in the analytic model.
    println!("functional cross-validation (64 MiB simulated memory):");
    let mut cfg = SystemConfig::isca19();
    cfg.mem.capacity_bytes = 64 << 20;
    for n in 1..=3u8 {
        let scheme = PersistScheme::triad_nvm(n);
        let mut mem = SecureMemoryBuilder::new()
            .config(cfg)
            .scheme(scheme)
            .build()
            .expect("valid config");
        let p = mem.persistent_region().start();
        mem.write(p, b"probe").expect("write");
        mem.persist(p).expect("persist");
        mem.crash();
        let report = mem.recover().expect("recover");
        assert!(report.persistent_recovered, "{scheme}: {report:?}");
        let predicted = mem.memory_map().persistent().geometry.nodes_at_level(n - 1);
        assert_eq!(report.persistent_blocks_read, predicted, "{scheme}");
        println!(
            "  {scheme}: measured {} blocks read, estimated recovery {}",
            report.persistent_blocks_read, report.estimated_duration
        );
    }
    println!("  (each level drops the block count by ≈ the tree arity, 8)");
}
