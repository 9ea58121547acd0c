//! Coverage of the smaller public API surfaces: accessors, display
//! implementations, handles, the stat registry.

use triad_core::{
    CounterPersistence, KeyPolicy, PersistScheme, RecoveryReport, SecureMemoryBuilder, SecureStats,
};
use triad_crypto::counter::MINOR_MAX;
use triad_meta::layout::RegionKind;
use triad_sim::{BlockAddr, PhysAddr, Time};

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

/// The per-class persist counters, pinned exactly: a commit counts
/// each staged write by its block's role, once however many members
/// staged it.
#[test]
fn persist_writes_count_once_per_block_by_role() {
    let classes = |s: SecureStats| {
        (
            s.counter_writes_persist,
            s.mac_writes_persist,
            s.node_writes_persist,
        )
    };
    let build = |scheme, counters| {
        SecureMemoryBuilder::new()
            .scheme(scheme)
            .counter_persistence(counters)
            .build()
            .unwrap()
    };
    let strict = CounterPersistence::Strict;
    let strict_levels = build(PersistScheme::Strict, strict)
        .memory_map()
        .persistent()
        .geometry
        .root_level()
        - 1;

    // A one-block persist writes its counter (unless Osiris skips it), its
    // MAC block and the persisted levels below the on-chip root.
    for (scheme, counters, expect) in [
        (PersistScheme::triad_nvm(1), strict, (1, 1, 0)),
        (PersistScheme::triad_nvm(2), strict, (1, 1, 1)),
        (PersistScheme::triad_nvm(3), strict, (1, 1, 2)),
        (PersistScheme::Strict, strict, (1, 1, strict_levels.into())),
        (
            PersistScheme::triad_nvm(2),
            CounterPersistence::Osiris { interval: 4 },
            (0, 1, 1),
        ),
    ] {
        let mut m = build(scheme, counters);
        let p = m.persistent_region().start().block();
        m.persist_block(p, [1; 64], Time::ZERO).unwrap();
        assert_eq!(classes(m.stats()), expect, "{scheme} {counters:?}");
    }

    // Two members of one MAC group share their counter block, MAC
    // block and tree path: each persists once.
    let mut m = build(PersistScheme::triad_nvm(2), strict);
    let p = m.persistent_region().start().block();
    let members = [(p, [1; 64]), (BlockAddr(p.0 + 1), [2; 64])];
    m.persist_batch(&members, Time::ZERO).unwrap();
    assert_eq!(classes(m.stats()), (1, 1, 1));
    assert_eq!(m.stats().batch_writes_merged, 3);

    // A member whose minor counter overflows re-encrypts its page: the
    // page's other 63 blocks retag all 8 of its MAC blocks, whose
    // writes stage with the member's update set and merge with its own
    // MAC write, whether it persists alone or in a batch.
    for batched in [false, true] {
        let mut m = build(PersistScheme::triad_nvm(2), strict);
        let mut t = Time::ZERO;
        for _ in 0..MINOR_MAX {
            t = m.persist_block(p, [3; 64], t).unwrap();
        }
        let before = classes(m.stats());
        if batched {
            m.persist_batch(&[(p, [4; 64])], t).unwrap();
        } else {
            m.persist_block(p, [4; 64], t).unwrap();
        }
        assert_eq!(m.stats().page_reencryptions, 1);
        let after = classes(m.stats());
        assert_eq!(
            (after.0 - before.0, after.1 - before.1, after.2 - before.2),
            (1, 8, 1),
            "batched: {batched}"
        );
    }
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
