//! Coverage of the smaller public API surfaces: accessors, display
//! implementations, handles, the stat registry.

use triad_core::{
    CounterPersistence, KeyPolicy, PersistScheme, RecoveryReport, SecureMemoryBuilder,
};
use triad_meta::layout::RegionKind;
use triad_sim::{PhysAddr, Time};

#[test]
fn builder_accessors_round_trip() {
    let m = SecureMemoryBuilder::new()
        .scheme(PersistScheme::triad_nvm(3))
        .key_policy(KeyPolicy::DualKey)
        .key_seed(77)
        .build()
        .unwrap();
    assert_eq!(m.scheme(), PersistScheme::triad_nvm(3));
    assert_eq!(m.key_policy(), KeyPolicy::DualKey);
    assert_eq!(m.session(), 1);
    assert_eq!(m.now(), Time::ZERO);
    assert!(m.config().validate().is_ok());
}

#[test]
fn secure_memory_is_send() {
    // The sharded KV serving layer moves one engine per shard onto a
    // worker thread (`triad_workloads::service`); this pin keeps the
    // engine free of thread-bound state (`Rc`, `RefCell`, raw
    // pointers) so that stays possible.
    fn assert_send<T: Send>() {}
    assert_send::<triad_core::SecureMemory>();
}

#[test]
fn region_handles_partition_the_data_space() {
    let m = SecureMemoryBuilder::new().build().unwrap();
    let p = m.persistent_region();
    let np = m.non_persistent_region();
    assert!(p.contains(p.start()));
    assert!(!p.contains(np.start()));
    assert!(np.contains(np.start()));
    assert!(p.len_bytes() > 0 && np.len_bytes() > 0);
    let last = PhysAddr(p.start().0 + p.len_bytes() - 1);
    assert!(p.contains(last));
    assert!(!p.contains(PhysAddr(last.0 + 1)));
}

#[test]
fn default_builder_equals_new() {
    let a = SecureMemoryBuilder::default().build().unwrap();
    let b = SecureMemoryBuilder::new().build().unwrap();
    assert_eq!(a.scheme(), b.scheme());
    assert_eq!(
        a.root(RegionKind::Persistent),
        b.root(RegionKind::Persistent)
    );
}

#[test]
fn stat_registry_carries_all_components() {
    let mut m = SecureMemoryBuilder::new().build().unwrap();
    let p = m.persistent_region().start();
    m.write(p, b"x").unwrap();
    m.persist(p).unwrap();
    let reg = m.stat_registry();
    for key in [
        "secure.persists",
        "secure.counter_writes_persist",
        "secure.counter_writes_evict",
        "secure.mac_writes_persist",
        "secure.mac_writes_evict",
        "secure.node_writes_persist",
        "secure.node_writes_evict",
        "l3.write_hits",
        "ctr_cache.read_misses",
        "mt_cache.read_hits",
        "mem.writes",
        "wear.max_writes",
    ] {
        assert!(
            reg.counters().any(|(k, _)| k == key),
            "missing {key} in:\n{reg}"
        );
    }
    assert_eq!(reg.counter("secure.persists"), 1);
    assert!(
        reg.counter("mem.writes") >= 3,
        "data + counter + mac at least"
    );
    // The per-class counters add up to the totals they are reported
    // beside.
    assert_eq!(
        reg.counter("secure.persist_metadata_writes"),
        reg.counter("secure.counter_writes_persist")
            + reg.counter("secure.mac_writes_persist")
            + reg.counter("secure.node_writes_persist")
    );
}

#[test]
fn recovery_report_default_is_empty() {
    let r = RecoveryReport::default();
    assert!(!r.persistent_recovered);
    assert_eq!(r.persistent_blocks_read, 0);
    assert!(r.unverifiable.is_empty());
    assert!(r.corrupt_metadata.is_empty());
}

#[test]
fn display_impls_are_informative() {
    assert_eq!(CounterPersistence::Strict.to_string(), "strict-counters");
    assert_eq!(
        CounterPersistence::Osiris { interval: 8 }.to_string(),
        "osiris-8"
    );
    assert_eq!(KeyPolicy::DualKey.to_string(), "dual-key");
    assert_eq!(PersistScheme::WriteBack.to_string(), "WriteBack");
}

#[test]
fn validate_consistency_clean_on_fresh_engine() {
    let m = SecureMemoryBuilder::new().build().unwrap();
    assert!(m.validate_consistency().is_empty());
}

#[test]
fn wear_accessor_reflects_traffic() {
    let mut m = SecureMemoryBuilder::new().build().unwrap();
    assert_eq!(m.wear().blocks_touched(), 0);
    let p = m.persistent_region().start();
    m.write(p, b"x").unwrap();
    m.persist(p).unwrap();
    assert!(m.wear().blocks_touched() >= 3);
}

#[test]
fn convenience_clock_advances_monotonically() {
    let mut m = SecureMemoryBuilder::new().build().unwrap();
    let t0 = m.now();
    let p = m.persistent_region().start();
    m.write(p, b"x").unwrap();
    let t1 = m.now();
    m.persist(p).unwrap();
    let t2 = m.now();
    assert!(t1 >= t0);
    assert!(t2 > t1, "a persist takes real simulated time");
}

#[test]
fn cross_block_write_rejected() {
    let mut m = SecureMemoryBuilder::new().build().unwrap();
    let p = m.persistent_region().start();
    let straddle = PhysAddr(p.0 + 60);
    assert!(m.write(straddle, &[0u8; 8]).is_err());
    // Within one block is fine, at any offset.
    m.write(straddle, &[1u8; 4]).unwrap();
    assert_eq!(m.read(p).unwrap()[60..64], [1u8; 4]);
}
