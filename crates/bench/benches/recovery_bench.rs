//! Micro-benchmarks of functional crash recovery under each scheme —
//! the host-side cost of the Figure 10 rebuilds on a small memory, and
//! of one recovery on the geometry of the repository benchmark's KV
//! shards.

use triad_bench::timing::{bench_batched, header};
use triad_core::{PersistScheme, SecureMemory, SecureMemoryBuilder};
use triad_sim::config::SystemConfig;
use triad_sim::PhysAddr;

/// An engine with 64 pages of its persistent region persisted.
fn used(config: SystemConfig, scheme: PersistScheme) -> SecureMemory {
    let mut m = SecureMemoryBuilder::new()
        .config(config)
        .scheme(scheme)
        .build()
        .unwrap();
    let p = m.persistent_region().start();
    for i in 0..64u64 {
        let a = PhysAddr(p.0 + i * 4096);
        m.write(a, &i.to_le_bytes()).unwrap();
        m.persist(a).unwrap();
    }
    m
}

fn main() {
    header("crash_recover");
    let mut kv = SystemConfig::tiny();
    kv.cores = 4;
    kv.mem.capacity_bytes = 64 << 20;
    let cases = [
        ("", SystemConfig::tiny(), PersistScheme::triad_nvm(1)),
        ("", SystemConfig::tiny(), PersistScheme::triad_nvm(2)),
        ("", SystemConfig::tiny(), PersistScheme::triad_nvm(3)),
        ("", SystemConfig::tiny(), PersistScheme::Strict),
        // A benchmark KV shard: 64 MiB behind 4 cores.
        ("kv_64MiB/", kv, PersistScheme::triad_nvm(2)),
    ];
    for (label, config, scheme) in cases {
        bench_batched(
            &format!("crash_recover/{label}{scheme}"),
            || {
                let mut m = used(config, scheme);
                m.crash();
                m
            },
            |mut m| {
                let report = m.recover().unwrap();
                assert!(report.persistent_recovered);
                report
            },
        );
    }
}
