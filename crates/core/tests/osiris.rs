//! The Osiris-style counter-persistence relaxation (Ye et al.,
//! MICRO'18 — cited by the paper's §6 as an orthogonal technique):
//! counters are persisted every Nth update only, and stale counters
//! are reconstructed at access time by searching consecutive values
//! against the strictly persisted MACs, validated against the
//! persisted BMT level.

use triad_core::{CounterPersistence, PersistScheme, SecureMemoryBuilder, SecureMemoryError};
use triad_sim::PhysAddr;

fn build(interval: u8) -> triad_core::SecureMemory {
    SecureMemoryBuilder::new()
        .scheme(PersistScheme::triad_nvm(2))
        .counter_persistence(CounterPersistence::Osiris { interval })
        .build()
        .unwrap()
}

#[test]
fn osiris_requires_a_persisted_oracle_level() {
    let err = SecureMemoryBuilder::new()
        .scheme(PersistScheme::triad_nvm(1))
        .counter_persistence(CounterPersistence::Osiris { interval: 4 })
        .build()
        .unwrap_err();
    assert!(matches!(err, SecureMemoryError::Config(_)), "{err}");
    assert_eq!(
        err.to_string(),
        "invalid configuration: osiris counter relaxation needs a persisted \
         BMT level 1 as its recovery oracle; scheme TriadNVM-1 does not persist it"
    );
    let err = SecureMemoryBuilder::new()
        .scheme(PersistScheme::triad_nvm(2))
        .counter_persistence(CounterPersistence::Osiris { interval: 0 })
        .build()
        .unwrap_err();
    assert!(matches!(err, SecureMemoryError::Config(_)));
}

#[test]
fn osiris_skips_counter_persists() {
    let mut m = build(4);
    let p = m.persistent_region().start();
    for i in 0..32u64 {
        m.write(p, &i.to_le_bytes()).unwrap();
        m.persist(p).unwrap();
    }
    let s = m.stats();
    assert!(
        s.osiris_counter_skips >= 20,
        "most counter persists should be skipped: {s:?}"
    );
    assert!(
        s.counter_writes_persist <= 12,
        "counter writes cut ~4x: {s:?}"
    );
}

#[test]
fn stale_counters_are_reconstructed_after_a_crash() {
    let mut m = build(4);
    let p = m.persistent_region().start();
    // Leave the counter stale: the block persists at the 4th update
    // and the remaining 3 updates are skipped (7 % 4 != 0).
    for i in 0..7u64 {
        m.write(p, &i.to_le_bytes()).unwrap();
        m.persist(p).unwrap();
    }
    let neighbour = PhysAddr(p.0 + 4096); // a *different* page
    m.write(neighbour, b"nb").unwrap();
    m.persist(neighbour).unwrap();
    m.crash();
    let report = m.recover().unwrap();
    assert!(report.persistent_recovered, "{report:?}");
    // Reading forces the counter fetch; the stale counter must be
    // rebuilt by the MAC search, transparently.
    assert_eq!(&m.read(p).unwrap()[..8], &6u64.to_le_bytes());
    assert_eq!(&m.read(neighbour).unwrap()[..2], b"nb");
    assert!(
        m.stats().osiris_recoveries >= 1,
        "the search must have run: {:?}",
        m.stats()
    );
}

#[test]
fn osiris_survives_repeated_crashes() {
    let mut m = build(3);
    let p = m.persistent_region().start();
    let mut expected = 0u64;
    for round in 0..6u64 {
        for i in 0..(round + 2) {
            expected = round * 100 + i;
            m.write(p, &expected.to_le_bytes()).unwrap();
            m.persist(p).unwrap();
        }
        m.crash();
        assert!(m.recover().unwrap().persistent_recovered, "round {round}");
        assert_eq!(
            &m.read(p).unwrap()[..8],
            &expected.to_le_bytes(),
            "round {round}"
        );
    }
}

#[test]
fn tampering_is_still_detected_under_osiris() {
    // The search must not become a rollback vector: rolling data+MAC
    // back should not produce a counter the tree accepts.
    let mut m = build(4);
    let p = m.persistent_region().start();
    let layout = m.memory_map().persistent().clone();
    m.write(p, b"version-1").unwrap();
    m.persist(p).unwrap();
    let old_data = m.nvm_image().read(p.block());
    let old_mac = m.nvm_image().read(layout.mac_block_of(p.block()));
    m.write(p, b"version-2").unwrap();
    m.persist(p).unwrap();
    m.write(p, b"version-3").unwrap();
    m.persist(p).unwrap();
    m.crash();
    m.nvm_image_mut().rollback_to(p.block(), old_data);
    m.nvm_image_mut()
        .rollback_to(layout.mac_block_of(p.block()), old_mac);
    m.recover().unwrap();
    let r = m.read(p);
    assert!(
        matches!(r, Err(SecureMemoryError::IntegrityViolation { .. })),
        "rolled-back data+MAC must not verify: {r:?}"
    );
}

#[test]
fn mixed_page_with_multiple_stale_minors_recovers() {
    // Several blocks of one page updated between counter persists:
    // the per-block MAC search must reconstruct each minor.
    let mut m = build(8);
    let p = m.persistent_region().start();
    for block in 0..6u64 {
        for i in 0..3u64 {
            let a = PhysAddr(p.0 + block * 64);
            m.write(a, &(block * 10 + i).to_le_bytes()).unwrap();
            m.persist(a).unwrap();
        }
    }
    m.crash();
    assert!(m.recover().unwrap().persistent_recovered);
    for block in 0..6u64 {
        let a = PhysAddr(p.0 + block * 64);
        assert_eq!(
            &m.read(a).unwrap()[..8],
            &(block * 10 + 2).to_le_bytes(),
            "block {block}"
        );
    }
}
