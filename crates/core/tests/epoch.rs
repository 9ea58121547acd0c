//! Epoch persistency (Liu et al.'s relaxation, which the paper cites as
//! orthogonal to Triad-NVM): an epoch is plain stores, which return at
//! cache latency, closed by one `flush_batch` that makes every distinct
//! still-dirty block durable; durability is guaranteed only when that
//! call returns.

use triad_core::{
    CounterPersistence, CrashHookKind, PersistScheme, SecureMemory, SecureMemoryBuilder,
    SecureMemoryError,
};
use triad_sim::{BlockAddr, PhysAddr, Time};

fn build() -> SecureMemory {
    SecureMemoryBuilder::new()
        .scheme(PersistScheme::triad_nvm(2))
        .build()
        .unwrap()
}

fn value(i: u64) -> [u8; 64] {
    let mut b = [0u8; 64];
    b[..8].copy_from_slice(&i.to_le_bytes());
    b
}

#[test]
fn epoch_defers_and_combines_persists() {
    let mut m = build();
    let p = m.persistent_region().start();
    // 50 stores of the same block inside one epoch…
    for i in 0..50u64 {
        m.store_block(p.block(), value(i), Time::ZERO).unwrap();
    }
    // …perform no atomic metadata persists until the boundary.
    assert_eq!(m.stats().atomic_persists, 0);
    m.flush_batch(&[p.block(); 50], Time::ZERO).unwrap();
    // Exactly one combined write-back, counted as one persist.
    assert_eq!(m.stats().atomic_persists, 1);
    assert_eq!(m.stats().persists, 1);
    // And it is durable.
    m.crash();
    assert!(m.recover().unwrap().persistent_recovered);
    assert_eq!(&m.read(p).unwrap()[..8], &49u64.to_le_bytes());
}

#[test]
fn epoch_boundary_guarantees_every_member() {
    let mut m = build();
    let p = m.persistent_region().start();
    let blocks: Vec<BlockAddr> = (0..16u64)
        .map(|i| PhysAddr(p.0 + i * 4096).block())
        .collect();
    for (i, block) in (0u64..).zip(&blocks) {
        m.write(block.base(), &i.to_le_bytes()).unwrap();
        m.store_block(*block, value(i), Time::ZERO).unwrap();
    }
    m.flush_batch(&blocks, Time::ZERO).unwrap();
    m.crash();
    m.recover().unwrap();
    for (i, block) in (0u64..).zip(&blocks) {
        assert_eq!(
            &m.read(block.base()).unwrap()[..8],
            &i.to_le_bytes(),
            "block {i}"
        );
    }
}

#[test]
fn crash_inside_epoch_may_lose_its_persists_but_stays_consistent() {
    let mut m = build();
    let p = m.persistent_region().start();
    // Pre-epoch durable baseline.
    m.write(p, b"baseline").unwrap();
    m.persist(p).unwrap();
    m.store_block(p.block(), [7u8; 64], Time::ZERO).unwrap();
    // Crash before the boundary: the epoch's store is allowed to be
    // lost, but recovery must verify and the baseline must remain.
    m.crash();
    let report = m.recover().unwrap();
    assert!(report.persistent_recovered, "{report:?}");
    let data = m.read(p).unwrap();
    assert!(
        &data[..8] == b"baseline" || data == [7u8; 64],
        "either pre-epoch or (if naturally evicted) epoch value: {data:?}"
    );
}

#[test]
fn epoch_reduces_metadata_write_traffic() {
    // Same workload, per-persist vs one epoch: the epoch must issue
    // far fewer metadata persists (the Liu et al. win).
    let run = |epoch: bool| {
        let mut m = build();
        let p = m.persistent_region().start();
        let mut stored = Vec::new();
        for i in 0..200u64 {
            // 200 persists over 8 hot blocks.
            let block = PhysAddr(p.0 + (i % 8) * 64).block();
            if epoch {
                m.store_block(block, value(i), Time::ZERO).unwrap();
                stored.push(block);
            } else {
                m.persist_block(block, value(i), Time::ZERO).unwrap();
            }
        }
        m.flush_batch(&stored, Time::ZERO).unwrap();
        m.stats().persist_metadata_writes()
    };
    let strict = run(false);
    let epoch = run(true);
    assert!(
        epoch * 10 <= strict,
        "epoch ({epoch}) should cut metadata persists ≥10× vs per-op ({strict})"
    );
}

#[test]
fn flush_batch_over_clean_or_duplicate_blocks_changes_no_stat() {
    let mut m = build();
    let p = m.persistent_region().start();
    let a = p.block();
    let b = PhysAddr(p.0 + 4096).block();
    let never_written = PhysAddr(p.0 + 2 * 4096).block();
    m.store_block(a, value(1), Time::ZERO).unwrap();
    m.store_block(b, value(2), Time::ZERO).unwrap();
    let before = m.stats();
    // Duplicates flush once: two members, two persists.
    m.flush_batch(&[a, b, a, b, a], Time::ZERO).unwrap();
    let after = m.stats();
    assert_eq!(after.persists - before.persists, 2);
    assert_eq!(after.batch_members - before.batch_members, 2);
    assert_eq!(after.batches - before.batches, 1);
    // Now both are clean: flushing them again, or a block never
    // written, or nothing at all, is a no-op.
    let writes = m.mem_stats().writes;
    for blocks in [&[a, b, a][..], &[never_written], &[]] {
        let t = m.flush_batch(blocks, Time::ZERO).unwrap();
        assert_eq!(t, Time::ZERO);
        assert_eq!(m.stats(), after, "flush of {blocks:?}");
    }
    assert_eq!(m.mem_stats().writes, writes);
}

/// An epoch boundary is a persist like any other in the latency
/// record: each `flush_batch` that flushes a member adds one
/// `persist_latency_ns` sample spanning the whole call, under strict
/// counters and under Osiris alike; a call that flushes nothing adds
/// none.
#[test]
fn flush_batch_records_one_persist_latency_sample() {
    for counters in [
        CounterPersistence::Strict,
        CounterPersistence::Osiris { interval: 3 },
    ] {
        let mut m = SecureMemoryBuilder::new()
            .scheme(PersistScheme::triad_nvm(2))
            .counter_persistence(counters)
            .build()
            .unwrap();
        let latency = |m: &SecureMemory| {
            let reg = m.stat_registry();
            let h = reg.histogram("secure.persist_latency_ns").unwrap();
            (h.count(), h.sum())
        };
        let p = m.persistent_region().start();
        let blocks = [p.block(), PhysAddr(p.0 + 4096).block()];
        let start = Time::from_ns(1_000);
        for (i, block) in (0u64..).zip(&blocks) {
            m.store_block(*block, value(i), start).unwrap();
        }
        let done = m.flush_batch(&blocks, start).unwrap();
        assert!(done > start, "{counters:?}");
        assert_eq!(
            latency(&m),
            (1, u128::from(done.since(start).as_ns())),
            "{counters:?}"
        );
        m.flush_batch(&blocks, done).unwrap();
        assert_eq!(latency(&m).0, 1, "{counters:?}: nothing left to flush");
    }
}

#[test]
fn flush_batch_rejects_a_non_persistent_block_before_any_change() {
    let mut m = build();
    let p = m.persistent_region().start().block();
    let np = m.non_persistent_region().start().block();
    m.store_block(p, value(1), Time::ZERO).unwrap();
    let before = m.stats();
    assert_eq!(
        m.flush_batch(&[p, np], Time::ZERO),
        Err(SecureMemoryError::NotPersistent { addr: np.base() })
    );
    assert_eq!(m.stats(), before);
}

/// Every persist a `flush_batch` counts is a persist boundary: arming
/// the boundary hook at any `k` below the count crashes the flush with
/// exactly the first `k` members durable, and arming it at the count
/// lets the flush finish without firing, under strict counters and
/// under Osiris alike.
#[test]
fn each_counted_persist_of_a_flush_batch_is_a_crash_boundary() {
    for counters in [
        CounterPersistence::Strict,
        CounterPersistence::Osiris { interval: 3 },
    ] {
        let setup = || {
            let mut m = SecureMemoryBuilder::new()
                .scheme(PersistScheme::triad_nvm(2))
                .counter_persistence(counters)
                .build()
                .unwrap();
            let p = m.persistent_region().start();
            let blocks: Vec<BlockAddr> = (0..6u64)
                .map(|i| PhysAddr(p.0 + i * 4160).block())
                .collect();
            for (i, block) in (0u64..).zip(&blocks) {
                m.persist_block(*block, value(100 + i), Time::ZERO).unwrap();
                m.store_block(*block, value(200 + i), Time::ZERO).unwrap();
            }
            // Duplicates in the flush list add no boundary.
            let mut flush = blocks.clone();
            flush.extend_from_slice(&blocks[..3]);
            (m, blocks, flush)
        };
        let (mut m, blocks, flush) = setup();
        let before = m.stats().persists;
        m.flush_batch(&flush, Time::ZERO).unwrap();
        let persists = m.stats().persists - before;
        assert_eq!(persists, blocks.len() as u64, "{counters:?}");

        for k in 0..=persists {
            let (mut m, blocks, flush) = setup();
            m.arm_crash(CrashHookKind::PersistBoundary, k).unwrap();
            let result = m.flush_batch(&flush, Time::ZERO);
            if k == persists {
                assert!(result.is_ok(), "{counters:?} k={k}: {result:?}");
                assert_eq!(
                    m.armed_crash_hook(),
                    Some(CrashHookKind::PersistBoundary),
                    "{counters:?}: the hook must not fire past the last boundary"
                );
                continue;
            }
            assert_eq!(
                result,
                Err(SecureMemoryError::NeedsRecovery),
                "{counters:?} k={k}"
            );
            assert_eq!(m.armed_crash_hook(), None, "{counters:?} k={k}");
            assert!(m.recover().unwrap().persistent_recovered);
            for (i, block) in (0u64..).zip(&blocks) {
                let expect = if i < k { 200 + i } else { 100 + i };
                assert_eq!(
                    m.read(block.base()).unwrap(),
                    value(expect),
                    "{counters:?} k={k} member {i}"
                );
            }
        }
    }
}
