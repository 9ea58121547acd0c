//! Cross-crate end-to-end tests: workload generators driving the full
//! simulated system, followed by crash/recovery of the same engine.

use triad_nvm::core::{PersistScheme, SecureMemoryBuilder, System};
use triad_nvm::sim::PhysAddr;
use triad_nvm::workloads::{build_workload, WorkloadEnv};

fn engine(scheme: PersistScheme) -> triad_nvm::core::SecureMemory {
    // Table 1 caches (8 cores, so 4-trace mixes fit) over a small NVM.
    let mut cfg = triad_nvm::sim::config::SystemConfig::isca19();
    cfg.mem.capacity_bytes = 16 << 20;
    SecureMemoryBuilder::new()
        .config(cfg)
        .persistent_fraction_eighths(2)
        .scheme(scheme)
        .build()
        .unwrap()
}

#[test]
fn every_registered_workload_runs_under_every_scheme() {
    for scheme in PersistScheme::evaluated() {
        for name in ["mcf", "hashtable", "daxbench1", "mix1"] {
            let mem = engine(scheme);
            let env = WorkloadEnv::of(&mem);
            let traces = build_workload(name, &env, 7);
            let mut sys = System::new(mem, traces);
            let result = sys.run(2_000).expect("clean run");
            assert!(result.throughput() > 0.0, "{name} under {scheme}");
        }
    }
}

#[test]
fn system_survives_crash_after_workload() {
    let mem = engine(PersistScheme::triad_nvm(2));
    let env = WorkloadEnv::of(&mem);
    let traces = build_workload("mix1", &env, 3);
    let mut sys = System::new(mem, traces);
    sys.run(3_000).unwrap();
    let mut mem = sys.into_secure();
    mem.crash();
    let report = mem.recover().unwrap();
    assert!(
        report.persistent_recovered,
        "a mixed workload must leave a recoverable image: {report:?}"
    );
}

#[test]
fn strict_is_slower_but_writes_more_and_recovers_like_triad() {
    let run = |scheme| {
        let mem = engine(scheme);
        let env = WorkloadEnv::of(&mem);
        let mut sys = System::new(mem, build_workload("hashtable", &env, 5));
        let r = sys.run(20_000).unwrap();
        let wall = r.cores[0].finish_time;
        (wall, r.registry.counter("secure.persist_metadata_writes"))
    };
    let (strict_t, strict_w) = run(PersistScheme::Strict);
    let (t1_t, t1_w) = run(PersistScheme::triad_nvm(1));
    assert!(
        strict_t > t1_t,
        "strict must be slower: {strict_t} vs {t1_t}"
    );
    assert!(strict_w > t1_w, "strict must write more metadata");
}

#[test]
fn persisted_workload_state_survives_and_verifies_bit_exactly() {
    // Hand-rolled workload through the public API, then crash.
    let mut mem = engine(PersistScheme::triad_nvm(1));
    let p = mem.persistent_region().start();
    let mut golden = Vec::new();
    for i in 0..128u64 {
        let addr = PhysAddr(p.0 + i * 256);
        let payload: Vec<u8> = (0..32).map(|j| (i * 31 + j) as u8).collect();
        mem.write(addr, &payload).unwrap();
        mem.persist(addr).unwrap();
        golden.push((addr, payload));
    }
    mem.crash();
    assert!(mem.recover().unwrap().persistent_recovered);
    for (addr, payload) in golden {
        assert_eq!(&mem.read(addr).unwrap()[..32], &payload[..]);
    }
}

#[test]
fn non_persistent_region_is_fully_discarded_after_mixed_use() {
    let mut mem = engine(PersistScheme::triad_nvm(3));
    let np = mem.non_persistent_region().start();
    let p = mem.persistent_region().start();
    for i in 0..64u64 {
        mem.write(PhysAddr(np.0 + i * 4096), b"volatile").unwrap();
        mem.write(PhysAddr(p.0 + i * 4096), b"durable").unwrap();
        mem.persist(PhysAddr(p.0 + i * 4096)).unwrap();
    }
    mem.crash();
    mem.recover().unwrap();
    for i in 0..64u64 {
        assert_eq!(mem.read(PhysAddr(np.0 + i * 4096)).unwrap(), [0u8; 64]);
        assert_eq!(
            &mem.read(PhysAddr(p.0 + i * 4096)).unwrap()[..7],
            b"durable"
        );
    }
}

#[test]
fn sessions_isolate_non_persistent_data_between_boots() {
    let mut mem = engine(PersistScheme::triad_nvm(1));
    let np = mem.non_persistent_region().start();
    mem.write(np, b"boot-1").unwrap();
    for boot in 2..5u32 {
        mem.crash();
        let report = mem.recover().unwrap();
        assert_eq!(report.session, boot);
        assert_eq!(mem.read(np).unwrap(), [0u8; 64]);
        mem.write(np, &boot.to_le_bytes()).unwrap();
        assert_eq!(&mem.read(np).unwrap()[..4], &boot.to_le_bytes());
    }
}
