//! End-to-end behaviour of the secure memory engine: crash
//! consistency, recovery, tamper detection, replay attacks, lazy
//! non-persistent recovery, and the §3.3.5 READY_BIT protocol.

use triad_core::{
    CrashHookKind, IntegrityKind, KeyPolicy, PersistScheme, SecureMemory, SecureMemoryBuilder,
    SecureMemoryError,
};
use triad_meta::layout::RegionKind;
use triad_sim::{BlockAddr, PhysAddr};

fn build(scheme: PersistScheme) -> SecureMemory {
    SecureMemoryBuilder::new().scheme(scheme).build().unwrap()
}

#[test]
fn write_read_round_trip_both_regions() {
    let mut m = build(PersistScheme::triad_nvm(1));
    let p = m.persistent_region().start();
    let np = m.non_persistent_region().start();
    m.write(p, b"persistent!").unwrap();
    m.write(np, b"volatile!").unwrap();
    assert_eq!(&m.read(p).unwrap()[..11], b"persistent!");
    assert_eq!(&m.read(np).unwrap()[..9], b"volatile!");
}

#[test]
fn unwritten_blocks_read_zero() {
    let mut m = build(PersistScheme::triad_nvm(1));
    let p = m.persistent_region().start();
    let np = m.non_persistent_region().start();
    assert_eq!(m.read(p).unwrap(), [0u8; 64]);
    assert_eq!(m.read(PhysAddr(np.0 + 4096)).unwrap(), [0u8; 64]);
}

#[test]
fn out_of_range_rejected() {
    let mut m = build(PersistScheme::triad_nvm(1));
    // Counter area of the persistent region is not data.
    let counter_area = m.memory_map().persistent().counter_start.base();
    assert!(matches!(
        m.read(counter_area),
        Err(SecureMemoryError::OutOfRange { .. })
    ));
    let way_out = PhysAddr(1 << 40);
    assert!(matches!(
        m.read(way_out),
        Err(SecureMemoryError::OutOfRange { .. })
    ));
}

#[test]
fn persisted_data_survives_crash_under_every_triad_scheme() {
    for scheme in [
        PersistScheme::triad_nvm(1),
        PersistScheme::triad_nvm(2),
        PersistScheme::triad_nvm(3),
        PersistScheme::Strict,
    ] {
        let mut m = build(scheme);
        let p = m.persistent_region().start();
        for i in 0..32u64 {
            let addr = PhysAddr(p.0 + i * 64);
            m.write(addr, &i.to_le_bytes()).unwrap();
            m.persist(addr).unwrap();
        }
        m.crash();
        let report = m.recover().unwrap();
        assert!(report.persistent_recovered, "{scheme}: {report:?}");
        for i in 0..32u64 {
            let addr = PhysAddr(p.0 + i * 64);
            let data = m.read(addr).unwrap();
            assert_eq!(&data[..8], &i.to_le_bytes(), "{scheme} block {i}");
        }
    }
}

#[test]
fn unpersisted_store_is_lost_but_recovery_succeeds() {
    let mut m = build(PersistScheme::triad_nvm(2));
    let p = m.persistent_region().start();
    m.write(p, b"durable").unwrap();
    m.persist(p).unwrap();
    m.write(p, b"too-late").unwrap(); // never persisted
    m.crash();
    assert!(m.recover().unwrap().persistent_recovered);
    // The persisted version is back; the cached-only store vanished.
    assert_eq!(&m.read(p).unwrap()[..7], b"durable");
}

#[test]
fn non_persistent_data_is_discarded_at_reboot() {
    let mut m = build(PersistScheme::triad_nvm(1));
    let np = m.non_persistent_region().start();
    m.write(np, b"scratch").unwrap();
    assert_eq!(&m.read(np).unwrap()[..7], b"scratch");
    m.crash();
    m.recover().unwrap();
    assert_eq!(m.read(np).unwrap(), [0u8; 64], "np data must not survive");
}

#[test]
fn operations_fail_between_crash_and_recovery() {
    let mut m = build(PersistScheme::triad_nvm(1));
    let p = m.persistent_region().start();
    m.crash();
    assert!(matches!(m.read(p), Err(SecureMemoryError::NeedsRecovery)));
    assert!(matches!(
        m.write(p, b"x"),
        Err(SecureMemoryError::NeedsRecovery)
    ));
    m.recover().unwrap();
    m.write(p, b"x").unwrap();
}

#[test]
fn session_counter_bumps_every_boot() {
    let mut m = build(PersistScheme::triad_nvm(1));
    assert_eq!(m.session(), 1);
    m.crash();
    let r = m.recover().unwrap();
    assert_eq!(r.session, 2);
    m.crash();
    assert_eq!(m.recover().unwrap().session, 3);
}

#[test]
fn np_lazy_counter_initialisation_after_crash() {
    let mut m = build(PersistScheme::triad_nvm(1));
    let np = m.non_persistent_region().start();
    // Force counters into NVM: write enough distinct pages to overflow
    // caches, so stale counter state exists at crash time.
    for i in 0..2000u64 {
        m.write(
            PhysAddr(np.0 + i * 4096 % m.non_persistent_region().len_bytes()),
            b"x",
        )
        .unwrap();
    }
    m.crash();
    m.recover().unwrap();
    let inits_before = m.stats().lazy_counter_inits;
    // Writing again triggers first-touch lazy initialisation when the
    // dirty data drains and needs its counter.
    for i in 0..2000u64 {
        m.write(
            PhysAddr(np.0 + i * 4096 % m.non_persistent_region().len_bytes()),
            b"y",
        )
        .unwrap();
    }
    // Flush things through by reading widely.
    for i in 0..2000u64 {
        let _ = m.read(PhysAddr(
            np.0 + i * 4096 % m.non_persistent_region().len_bytes(),
        ));
    }
    assert!(
        m.stats().lazy_counter_inits > inits_before,
        "expected lazy inits after reboot, stats: {:?}",
        m.stats()
    );
}

#[test]
fn tampered_ciphertext_is_detected() {
    let mut m = build(PersistScheme::triad_nvm(1));
    let p = m.persistent_region().start();
    m.write(p, b"secret").unwrap();
    m.persist(p).unwrap();
    m.crash();
    m.recover().unwrap();
    // Attacker flips a ciphertext bit in NVM.
    let block = p.block();
    let mut mask = [0u8; 64];
    mask[0] = 0x80;
    m.nvm_image_mut().tamper(block, mask);
    assert!(matches!(
        m.read(p),
        Err(SecureMemoryError::MacMismatch { .. })
    ));
}

#[test]
fn tampered_counter_is_detected_at_recovery_under_triadnvm1() {
    // TriadNVM-1 rebuilds from the counter blocks themselves, so a
    // tampered counter makes the recomputed root mismatch immediately.
    let mut m = build(PersistScheme::triad_nvm(1));
    let p = m.persistent_region().start();
    m.write(p, b"secret").unwrap();
    m.persist(p).unwrap();
    let counter_block = m.memory_map().persistent().counter_block_of(p.block());
    m.crash();
    let mut mask = [0u8; 64];
    mask[8] = 1; // flip a minor counter bit
    m.nvm_image_mut().tamper(counter_block, mask);
    let report = m.recover().unwrap();
    assert!(
        !report.persistent_recovered,
        "tampered counter must not verify: {report:?}"
    );
    assert!(!report.unverifiable.is_empty());
}

#[test]
fn tampered_counter_is_detected_at_access_under_triadnvm2() {
    // TriadNVM-2 recovery trusts the strictly persisted L1 and never
    // re-reads counters; the tampered counter is caught on first fetch,
    // pinpointed by its L1 slot (§5.2's access-time resolution).
    let mut m = build(PersistScheme::triad_nvm(2));
    let p = m.persistent_region().start();
    let far = PhysAddr(p.0 + 64 * 4096); // different L1 subtree
    m.write(p, b"secret").unwrap();
    m.persist(p).unwrap();
    m.write(far, b"other").unwrap();
    m.persist(far).unwrap();
    let counter_block = m.memory_map().persistent().counter_block_of(p.block());
    m.crash();
    let mut mask = [0u8; 64];
    mask[8] = 1;
    m.nvm_image_mut().tamper(counter_block, mask);
    let report = m.recover().unwrap();
    assert!(report.persistent_recovered, "{report:?}");
    assert!(matches!(
        m.read(p),
        Err(SecureMemoryError::IntegrityViolation {
            kind: IntegrityKind::Counter,
            ..
        })
    ));
    // Unaffected subtrees stay readable.
    assert_eq!(&m.read(far).unwrap()[..5], b"other");
}

#[test]
fn a_failed_mac_check_fails_again_on_retry() {
    // A load that fails its MAC check must not leave an L3 line behind
    // for the retry to hit: every read of the tampered block fails.
    let mut m = build(PersistScheme::triad_nvm(1));
    let p = m.persistent_region().start();
    m.write(p, b"secret").unwrap();
    m.persist(p).unwrap();
    m.crash();
    m.recover().unwrap();
    let mut mask = [0u8; 64];
    mask[0] = 0x80;
    m.nvm_image_mut().tamper(p.block(), mask);
    for attempt in 0..2 {
        let got = m.read(p);
        assert!(
            matches!(got, Err(SecureMemoryError::MacMismatch { .. })),
            "read {attempt} of tampered ciphertext: {got:?}"
        );
        assert_eq!(m.validate_consistency(), Vec::<String>::new());
    }
}

#[test]
fn a_failed_counter_check_fails_again_on_retry() {
    // Set up as in `tampered_counter_is_detected_at_access_under_triadnvm2`:
    // the counter fetch fails verification, and so must every retry.
    let mut m = build(PersistScheme::triad_nvm(2));
    let p = m.persistent_region().start();
    m.write(p, b"secret").unwrap();
    m.persist(p).unwrap();
    let counter_block = m.memory_map().persistent().counter_block_of(p.block());
    m.crash();
    let mut mask = [0u8; 64];
    mask[8] = 1;
    m.nvm_image_mut().tamper(counter_block, mask);
    assert!(m.recover().unwrap().persistent_recovered);
    for attempt in 0..2 {
        let got = m.read(p);
        assert!(
            matches!(
                got,
                Err(SecureMemoryError::IntegrityViolation {
                    kind: IntegrityKind::Counter,
                    ..
                })
            ),
            "read {attempt} behind a tampered counter: {got:?}"
        );
        // The validator flags the tampered counter itself, and no line
        // left without a value.
        let problems = m.validate_consistency();
        assert!(
            !problems.is_empty() && problems.iter().all(|p| p.contains("NVM hash")),
            "{problems:?}"
        );
    }
}

/// A TriadNVM-2 engine that persisted the first of three pages under
/// three different L1 nodes, crashed and recovered, and then had one
/// bit of that page's counter block flipped in NVM. Returns the engine,
/// the tampered counter block and the first block of each page.
fn with_a_tampered_counter() -> (SecureMemory, BlockAddr, [BlockAddr; 3]) {
    let mut m = build(PersistScheme::triad_nvm(2));
    let p = m.persistent_region().start();
    let pages = [0, 1, 2].map(|i: u64| PhysAddr(p.0 + i * 64 * 4096).block());
    m.write(pages[0].base(), b"secret").unwrap();
    m.persist(pages[0].base()).unwrap();
    let counter_block = m.memory_map().persistent().counter_block_of(pages[0]);
    m.crash();
    assert!(m.recover().unwrap().persistent_recovered);
    let mut mask = [0u8; 64];
    mask[8] = 1;
    m.nvm_image_mut().tamper(counter_block, mask);
    (m, counter_block, pages)
}

#[test]
fn a_persist_member_that_fails_verification_commits_the_members_before_it() {
    // As in `tampered_counter_is_detected_at_access_under_triadnvm2`,
    // the tampered counter is caught when a persist fetches it. The
    // failing member takes the durability loop's one error path: the
    // members staged before it commit, the batch closes, and the call
    // returns the error, so the engine persists on and recovers.
    for batched in [true, false] {
        let (mut m, counter_block, [tampered, untouched, third]) = with_a_tampered_counter();
        let start = m.now();
        let result = if batched {
            m.persist_batch(&[(untouched, [1; 64]), (tampered, [2; 64])], start)
        } else {
            m.persist_block(untouched, [1; 64], start)
                .and_then(|t| m.persist_block(tampered, [2; 64], t))
        };
        assert_eq!(
            result,
            Err(SecureMemoryError::IntegrityViolation {
                kind: IntegrityKind::Counter,
                block: counter_block,
            }),
            "batched: {batched}"
        );
        m.persist_block(third, [3; 64], start).unwrap();
        m.crash();
        let report = m.recover().unwrap();
        assert!(
            report.persistent_recovered,
            "batched: {batched}: {report:?}"
        );
        assert_eq!(m.read(untouched.base()).unwrap(), [1; 64]);
        assert_eq!(m.read(third.base()).unwrap(), [3; 64]);
    }
}

#[test]
fn a_crash_inside_the_prefix_commit_of_a_failed_persist_needs_recovery() {
    // The error path commits the staged prefix through the WPQ; a crash
    // there outranks the member's integrity error, and recovery replays
    // the prefix from the registers.
    let (mut m, _, [tampered, untouched, _]) = with_a_tampered_counter();
    m.arm_crash(CrashHookKind::WpqWrite, 0).unwrap();
    let start = m.now();
    let result = m.persist_batch(&[(untouched, [1; 64]), (tampered, [2; 64])], start);
    assert_eq!(result, Err(SecureMemoryError::NeedsRecovery));
    let report = m.recover().unwrap();
    assert!(report.persistent_recovered, "{report:?}");
    assert_eq!(m.read(untouched.base()).unwrap(), [1; 64]);
}

#[test]
fn within_boot_counter_tamper_detected_on_fetch() {
    let mut m = build(PersistScheme::triad_nvm(1));
    let p = m.persistent_region().start();
    // Touch many pages so the target counter is evicted from the
    // counter cache and must be re-fetched (and verified) later.
    m.write(p, b"secret").unwrap();
    m.persist(p).unwrap();
    let counter_block = m.memory_map().persistent().counter_block_of(p.block());
    let mut mask = [0u8; 64];
    mask[8] = 1;
    m.nvm_image_mut().tamper(counter_block, mask);
    let region_len = m.persistent_region().len_bytes();
    for i in 0..3000u64 {
        // Never touch the target page itself (offset past page 0).
        let addr = PhysAddr(p.0 + 4096 + (i * 4096) % (region_len - 8192));
        m.write(addr, b"fill").unwrap();
    }
    let result = m.read(p);
    assert!(
        matches!(
            result,
            Err(SecureMemoryError::IntegrityViolation {
                kind: IntegrityKind::Counter,
                ..
            })
        ),
        "stale/tampered counter must fail verification, got {result:?}"
    );
}

#[test]
fn replay_attack_rolling_back_data_mac_and_counter_is_detected() {
    let mut m = build(PersistScheme::triad_nvm(2));
    let p = m.persistent_region().start();
    let layout = m.memory_map().persistent().clone();
    let block = p.block();
    let ctr = layout.counter_block_of(block);
    let mac = layout.mac_block_of(block);

    m.write(p, b"version-1").unwrap();
    m.persist(p).unwrap();
    // Capture the full old state (data + MAC + counter).
    let old_data = m.nvm_image().read(block);
    let old_mac = m.nvm_image().read(mac);
    let old_ctr = m.nvm_image().read(ctr);

    m.write(p, b"version-2").unwrap();
    m.persist(p).unwrap();
    m.crash();

    // Replay everything: without the BMT this would decrypt cleanly to
    // "version-1" — the §2.2 counter-replay attack. Under TriadNVM-2
    // recovery itself succeeds (it trusts the persisted L1, which still
    // reflects the new counter), but the rolled-back counter can never
    // verify against it.
    m.nvm_image_mut().rollback_to(block, old_data);
    m.nvm_image_mut().rollback_to(mac, old_mac);
    m.nvm_image_mut().rollback_to(ctr, old_ctr);

    m.recover().unwrap();
    assert!(
        matches!(
            m.read(p),
            Err(SecureMemoryError::IntegrityViolation {
                kind: IntegrityKind::Counter,
                ..
            })
        ),
        "counter replay must be caught at access"
    );
}

#[test]
fn replay_attack_is_caught_at_recovery_under_triadnvm1() {
    let mut m = build(PersistScheme::triad_nvm(1));
    let p = m.persistent_region().start();
    let layout = m.memory_map().persistent().clone();
    let block = p.block();
    let ctr = layout.counter_block_of(block);
    let mac = layout.mac_block_of(block);
    m.write(p, b"version-1").unwrap();
    m.persist(p).unwrap();
    let old = (
        m.nvm_image().read(block),
        m.nvm_image().read(mac),
        m.nvm_image().read(ctr),
    );
    m.write(p, b"version-2").unwrap();
    m.persist(p).unwrap();
    m.crash();
    m.nvm_image_mut().rollback_to(block, old.0);
    m.nvm_image_mut().rollback_to(mac, old.1);
    m.nvm_image_mut().rollback_to(ctr, old.2);
    let report = m.recover().unwrap();
    assert!(
        !report.persistent_recovered,
        "TriadNVM-1 rebuilds from counters: replay breaks the root: {report:?}"
    );
}

#[test]
fn crash_during_atomic_persist_replays_from_registers() {
    for crash_after in 0..4u64 {
        let mut m = build(PersistScheme::triad_nvm(2));
        let p = m.persistent_region().start();
        m.write(p, b"stable").unwrap();
        m.persist(p).unwrap();
        // Arm the hook: the next atomic persist crashes after
        // `crash_after` of its WPQ copies.
        m.write(p, b"update").unwrap();
        m.arm_crash(CrashHookKind::WpqWrite, crash_after).unwrap();
        let err = m.persist(p).unwrap_err();
        assert_eq!(err, SecureMemoryError::NeedsRecovery);
        let report = m.recover().unwrap();
        assert!(
            report.persistent_recovered,
            "crash after {crash_after} copies: {report:?}"
        );
        assert!(
            report.replayed_staged_writes > 0,
            "READY_BIT was set, replay expected"
        );
        // The atomic update completed via replay: the new value is in.
        assert_eq!(&m.read(p).unwrap()[..6], b"update");
    }
}

#[test]
fn writeback_scheme_cannot_recover_persistent_region() {
    let mut m = build(PersistScheme::WriteBack);
    let p = m.persistent_region().start();
    m.write(p, b"doomed").unwrap();
    m.persist(p).unwrap(); // data reaches NVM, metadata does not
    m.crash();
    let report = m.recover().unwrap();
    assert!(!report.persistent_recovered);
    assert!(matches!(
        m.read(p),
        Err(SecureMemoryError::Unverifiable { .. })
    ));
    // Formatting restores usability (data is gone, of course).
    m.format_persistent();
    assert_eq!(m.read(p).unwrap(), [0u8; 64]);
    m.write(p, b"fresh").unwrap();
    assert_eq!(&m.read(p).unwrap()[..5], b"fresh");
}

#[test]
fn np_ciphertext_differs_across_sessions_for_same_plaintext_and_counter() {
    // §3.3.2: after reboot the stale np counter would repeat, but the
    // session counter (or volatile key) changes the pad.
    let run = |policy: KeyPolicy| {
        let mut m = SecureMemoryBuilder::new()
            .scheme(PersistScheme::triad_nvm(1))
            .key_policy(policy)
            .build()
            .unwrap();
        let np = m.non_persistent_region().start();
        let block = np.block();
        let capture = |m: &mut SecureMemory| {
            // Write, then force the block to NVM through eviction
            // pressure, and capture the ciphertext from the image.
            let len = m.non_persistent_region().len_bytes();
            m.nvm_image_mut().write(np.block(), [0u8; 64]);
            m.write(np, b"same-plaintext").unwrap();
            for i in 1..60000u64 {
                let addr = PhysAddr(np.0 + (i * 64) % len);
                m.write(addr, b"evict-pressure").unwrap();
                let ct = m.nvm_image().read(block);
                if ct != [0u8; 64] {
                    return ct;
                }
            }
            panic!("target block never reached NVM");
        };
        let ct1 = capture(&mut m);
        m.crash();
        m.recover().unwrap();
        let ct2 = capture(&mut m);
        (ct1, ct2)
    };
    for policy in [KeyPolicy::SessionCounter, KeyPolicy::DualKey] {
        let (ct1, ct2) = run(policy);
        assert_ne!(
            ct1, ct2,
            "{policy:?}: pad reuse across boots — ciphertexts collide"
        );
    }
}

#[test]
fn minor_counter_overflow_reencrypts_page_and_preserves_neighbours() {
    let mut m = build(PersistScheme::triad_nvm(1));
    let p = m.persistent_region().start();
    let neighbour = PhysAddr(p.0 + 64); // same 4 KiB page
    m.write(neighbour, b"neighbour").unwrap();
    m.persist(neighbour).unwrap();
    // 128 persists of the same block overflow its 7-bit minor counter.
    for i in 0..130u32 {
        m.write(p, &i.to_le_bytes()).unwrap();
        m.persist(p).unwrap();
    }
    assert!(m.stats().page_reencryptions >= 1, "{:?}", m.stats());
    assert_eq!(&m.read(neighbour).unwrap()[..9], b"neighbour");
    assert_eq!(&m.read(p).unwrap()[..4], &129u32.to_le_bytes());
    // And everything still survives a crash.
    m.crash();
    assert!(m.recover().unwrap().persistent_recovered);
    assert_eq!(&m.read(neighbour).unwrap()[..9], b"neighbour");
    assert_eq!(&m.read(p).unwrap()[..4], &129u32.to_le_bytes());
}

#[test]
fn pinpointing_isolates_double_corruption_to_pages() {
    // §5.2: under TriadNVM-2, uncorrectable errors in BOTH a counter
    // and an L1 node defeat every rebuild, and the pinpoint procedure
    // bounds the damage using the persisted L1 — page-granular ranges
    // instead of declaring the whole region unverifiable.
    let mut m = build(PersistScheme::triad_nvm(2));
    let p = m.persistent_region().start();
    let far = PhysAddr(p.0 + 100 * 4096);
    m.write(p, b"a").unwrap();
    m.persist(p).unwrap();
    m.write(far, b"b").unwrap();
    m.persist(far).unwrap();
    m.crash();
    let layout = m.memory_map().persistent().clone();
    let ctr = layout.counter_block_of(p.block());
    let l1_of_far = layout
        .bmt_node_addr(
            1,
            layout.leaf_index(layout.counter_block_of(far.block())) / 8,
        )
        .unwrap();
    let mut mask = [0u8; 64];
    mask[20] = 0xFF;
    m.nvm_image_mut().tamper(ctr, mask); // corrupt counter (leaf)
    m.nvm_image_mut().tamper(l1_of_far, mask); // corrupt an L1 node
    let report = m.recover().unwrap();
    assert!(!report.persistent_recovered, "{report:?}");
    assert!(!report.unverifiable.is_empty());
    let total_unverifiable: u64 = report.unverifiable.iter().map(|r| r.bytes).sum();
    let region_bytes = m.persistent_region().len_bytes();
    assert!(
        total_unverifiable < region_bytes / 4,
        "damage should be bounded, not the whole region: {total_unverifiable} of {region_bytes}"
    );
}

#[test]
fn corrupt_stored_l1_node_is_rebuilt_from_counters() {
    let mut m = build(PersistScheme::triad_nvm(2));
    let p = m.persistent_region().start();
    m.write(p, b"x").unwrap();
    m.persist(p).unwrap();
    m.crash();
    // Corrupt a persisted L1 node: counters are intact, so recovery
    // rebuilds the level and still verifies.
    let l1 = m.memory_map().persistent().bmt_node_addr(1, 0).unwrap();
    let mut mask = [0u8; 64];
    mask[0] = 0xAA;
    m.nvm_image_mut().tamper(l1, mask);
    let report = m.recover().unwrap();
    assert!(report.persistent_recovered, "{report:?}");
    assert!(
        report.corrupt_metadata.iter().any(|(lvl, _)| *lvl == 1),
        "the corrupt L1 node should be identified: {report:?}"
    );
    assert_eq!(&m.read(p).unwrap()[..1], b"x");
}

#[test]
fn recovery_reads_scale_with_scheme_level() {
    let blocks_read = |scheme| {
        let mut m = build(scheme);
        let p = m.persistent_region().start();
        m.write(p, b"x").unwrap();
        m.persist(p).unwrap();
        m.crash();
        m.recover().unwrap().persistent_blocks_read
    };
    let t1 = blocks_read(PersistScheme::triad_nvm(1));
    let t2 = blocks_read(PersistScheme::triad_nvm(2));
    let t3 = blocks_read(PersistScheme::triad_nvm(3));
    assert!(t1 > t2, "t1 {t1} > t2 {t2}");
    assert!(t2 > t3, "t2 {t2} > t3 {t3}");
}

#[test]
fn recover_on_running_system_is_a_no_op() {
    let mut m = build(PersistScheme::triad_nvm(1));
    let r = m.recover().unwrap();
    assert!(r.persistent_recovered);
    assert_eq!(r.session, 1, "no new session without a crash");
}

#[test]
fn persist_outside_persistent_region_rejected() {
    let mut m = build(PersistScheme::triad_nvm(1));
    let np = m.non_persistent_region().start();
    m.write(np, b"x").unwrap();
    let err = m
        .persist_block(np.block(), [0u8; 64], triad_sim::Time::ZERO)
        .unwrap_err();
    assert!(matches!(err, SecureMemoryError::NotPersistent { .. }));
}

#[test]
fn roots_differ_between_regions_and_change_with_writes() {
    let mut m = build(PersistScheme::triad_nvm(1));
    let root_before = m.root(RegionKind::Persistent);
    let p = m.persistent_region().start();
    m.write(p, b"x").unwrap();
    m.persist(p).unwrap();
    let root_after = m.root(RegionKind::Persistent);
    assert_ne!(root_before, root_after, "persist must move the root");
    assert_ne!(
        m.root(RegionKind::Persistent),
        m.root(RegionKind::NonPersistent)
    );
}

#[test]
fn stats_track_persist_vs_evict_metadata_writes() {
    let mut m = build(PersistScheme::Strict);
    let p = m.persistent_region().start();
    for i in 0..16u64 {
        let a = PhysAddr(p.0 + i * 64);
        m.write(a, b"x").unwrap();
        m.persist(a).unwrap();
    }
    let s = m.stats();
    assert_eq!(s.persists, 16);
    assert!(s.persist_metadata_writes() >= 16 * 2, "{s:?}");
    assert_eq!(s.atomic_persists, 16);
}

#[test]
fn monolithic_counters_work_end_to_end() {
    use triad_sim::config::CounterMode;
    let mut m = SecureMemoryBuilder::new()
        .scheme(PersistScheme::triad_nvm(2))
        .counter_mode(CounterMode::Monolithic)
        .build()
        .unwrap();
    // Geometry: one counter block per 8 data blocks (8× the split
    // organisation's metadata).
    let layout = m.memory_map().persistent().clone();
    assert_eq!(layout.counter_coverage, 8);
    assert_eq!(layout.counter_blocks, layout.data_blocks / 8);
    let p = m.persistent_region().start();
    for i in 0..32u64 {
        let a = PhysAddr(p.0 + i * 64);
        m.write(a, &i.to_le_bytes()).unwrap();
        m.persist(a).unwrap();
    }
    // Overflow impossibility: 200 writes to one block never re-encrypt.
    for i in 0..200u32 {
        m.write(p, &i.to_le_bytes()).unwrap();
        m.persist(p).unwrap();
    }
    assert_eq!(m.stats().page_reencryptions, 0);
    m.crash();
    assert!(m.recover().unwrap().persistent_recovered);
    assert_eq!(&m.read(p).unwrap()[..4], &199u32.to_le_bytes());
    for i in 1..32u64 {
        assert_eq!(
            &m.read(PhysAddr(p.0 + i * 64)).unwrap()[..8],
            &i.to_le_bytes()
        );
    }
    // Tampering still detected.
    let ctr = layout.counter_block_of(p.block());
    let mut mask = [0u8; 64];
    mask[0] = 1;
    m.nvm_image_mut().tamper(ctr, mask);
    m.crash();
    m.recover().unwrap();
    assert!(m.read(p).is_err());
}

#[test]
fn tampering_mac_block_is_detected() {
    let mut m = build(PersistScheme::triad_nvm(1));
    let p = m.persistent_region().start();
    m.write(p, b"secret").unwrap();
    m.persist(p).unwrap();
    m.crash();
    m.recover().unwrap();
    let mac = m.memory_map().persistent().mac_block_of(p.block());
    let slot = m.memory_map().persistent().mac_slot_of(p.block());
    let mut mask = [0u8; 64];
    mask[slot * 8] = 1;
    m.nvm_image_mut().tamper(mac, mask);
    assert!(matches!(
        m.read(p),
        Err(SecureMemoryError::MacMismatch { .. })
    ));
}
