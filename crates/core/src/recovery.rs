//! Recovery: the analytic recovery-time model of Figure 10, corruption
//! pinpointing (§5.2), and the report type returned by
//! [`crate::engine::SecureMemory::recover`].

use triad_crypto::mac::MacEngine;
use triad_mem::store::SparseStore;
use triad_meta::bmt::{FreshTree, NodeBuf};
use triad_meta::layout::RegionLayout;
use triad_sim::time::Duration;
use triad_sim::PhysAddr;

use crate::scheme::PersistScheme;

/// A data range recovery could not verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptRange {
    /// First byte of the unverifiable data.
    pub start: PhysAddr,
    /// Length in bytes.
    pub bytes: u64,
}

/// Work performed replaying an application-level redo log (the
/// `triad-kv` write-ahead log) after the engine's own BMT/counter
/// recovery. The engine never fills this in itself — log replay is an
/// application-layer protocol — but it belongs on the report so one
/// artifact describes the full cost of coming back from a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogReplayStats {
    /// Log records scanned (write records and commit markers).
    pub records_scanned: u64,
    /// Committed transactions whose effects were (re)applied.
    pub txns_applied: u64,
    /// Individual block writes applied while replaying those
    /// transactions.
    pub writes_applied: u64,
    /// Records discarded as uncommitted, stale, or torn.
    pub records_discarded: u64,
    /// Whether the scan ended on a torn record (a crash mid-append)
    /// rather than on a clean log end.
    pub torn_tail: bool,
}

/// What a durability-tiered application layer measured about its own
/// state after recovery. Like [`LogReplayStats`], the engine never
/// fills this in — the loss accounting belongs to whichever layer
/// admitted the mutations (the `triad_workloads` serving front-end) —
/// but it lives on the report so the one artifact a crash produces
/// states the mode that governed the lost window and the measured loss
/// against its contractual bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityRecovery {
    /// The weakest durability tier that admitted mutations since the
    /// last recovery (or barrier), e.g. `"strict"`, `"buffered"`,
    /// `"in-memory"`. A string rather than the application's enum so
    /// the engine crate does not depend upward.
    pub mode: &'static str,
    /// Admitted mutations the recovered state does not reflect
    /// (rolled back by the crash).
    pub mutations_lost: u64,
    /// The contractual ceiling on `mutations_lost`: `Some(0)` for
    /// strict, `Some(max_loss)` for buffered, `None` (unbounded until
    /// the next barrier) for in-memory.
    pub loss_bound: Option<u64>,
}

impl DurabilityRecovery {
    /// Whether the measured loss respects the contractual bound.
    pub fn within_bound(&self) -> bool {
        match self.loss_bound {
            Some(bound) => self.mutations_lost <= bound,
            None => true,
        }
    }
}

/// Outcome of [`SecureMemory::recover`](crate::engine::SecureMemory::recover).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Whether the persistent region verified against its on-chip root.
    pub persistent_recovered: bool,
    /// Metadata blocks read while rebuilding the persistent tree.
    pub persistent_blocks_read: u64,
    /// Level-1 nodes zeroed for the non-persistent region (§3.3.4).
    pub non_persistent_blocks_written: u64,
    /// Blocks read while rebuilding the non-persistent tree above L1.
    pub non_persistent_blocks_read: u64,
    /// Staged writes replayed from the persistent registers
    /// (READY_BIT was set: the crash hit mid-copy, §3.3.5).
    pub replayed_staged_writes: usize,
    /// Estimated wall-clock recovery time at the paper's 100 ns per
    /// block touched.
    pub estimated_duration: Duration,
    /// Data ranges that could not be verified (empty on clean recovery).
    pub unverifiable: Vec<CorruptRange>,
    /// Metadata nodes found corrupt, as `(level, index)` pairs
    /// (recovery may still succeed by rebuilding them from below).
    pub corrupt_metadata: Vec<(u8, u64)>,
    /// The new session counter.
    pub session: u32,
    /// Application-level redo-log replay performed on top of this
    /// recovery (`None` when no log replay ran; filled in by e.g.
    /// `triad_kv`'s store-open path).
    pub log_replay: Option<LogReplayStats>,
    /// Durability-tier accounting for the recovered state (`None` when
    /// no tiered layer was driving the engine; filled in by
    /// `triad_workloads`' serving front-end).
    pub durability: Option<DurabilityRecovery>,
}

/// The paper's recovery-time accounting: 100 ns to read one tree block
/// and compute its MAC (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryModel {
    /// Cost per block read + MAC computation.
    pub per_block: Duration,
    /// BMT arity.
    pub arity: u64,
}

impl Default for RecoveryModel {
    fn default() -> Self {
        RecoveryModel::isca19()
    }
}

impl RecoveryModel {
    /// The paper's parameters: 100 ns per block, 8-ary tree.
    pub fn isca19() -> Self {
        RecoveryModel {
            per_block: Duration::from_ns(100),
            arity: 8,
        }
    }

    /// Node counts per level for a memory of `capacity_bytes`
    /// (index 0 = counter blocks), down to a single root.
    pub fn level_counts(&self, capacity_bytes: u64) -> Vec<u64> {
        let data_blocks = capacity_bytes / 64;
        let mut level = data_blocks.div_ceil(64);
        let mut counts = vec![level];
        while level > 1 {
            level = level.div_ceil(self.arity);
            counts.push(level);
        }
        counts
    }

    /// Blocks that must be touched to recover with `scheme`:
    ///
    /// * `WriteBack` ("no-persist"): every data block is re-read to
    ///   recompute MACs, plus every counter block and tree node.
    /// * `TriadNvm(N)`: every block of level `N-1` is read and every
    ///   node above it recomputed.
    /// * `Strict`: nothing.
    pub fn blocks_touched(&self, capacity_bytes: u64, scheme: PersistScheme) -> u64 {
        let levels = self.level_counts(capacity_bytes);
        match scheme {
            PersistScheme::Strict => 0,
            PersistScheme::WriteBack => capacity_bytes / 64 + levels.iter().sum::<u64>(),
            PersistScheme::TriadNvm { n } => {
                let start = (n - 1) as usize;
                if start >= levels.len() {
                    return 0;
                }
                levels[start..].iter().sum()
            }
        }
    }

    /// Estimated recovery time for `capacity_bytes` under `scheme`
    /// (the quantity plotted in Figure 10).
    pub fn recovery_time(&self, capacity_bytes: u64, scheme: PersistScheme) -> Duration {
        self.per_block
            .saturating_mul(self.blocks_touched(capacity_bytes, scheme))
    }
}

/// Result of corruption pinpointing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PinpointReport {
    /// Whether the region's contents (data + counters) still verify —
    /// corruption, if any, was confined to rebuildable metadata.
    pub recoverable: bool,
    /// Corrupt stored metadata nodes as `(level, index)`.
    pub corrupt_nodes: Vec<(u8, u64)>,
    /// Unverifiable data ranges (non-empty only when unrecoverable).
    pub unverifiable: Vec<CorruptRange>,
}

fn range_of_leaves(layout: &RegionLayout, first_leaf: u64, leaves: u64) -> CorruptRange {
    let first_data = layout.data_start + first_leaf * 64;
    let span = (leaves * 64).min(layout.data_blocks.saturating_sub(first_leaf * 64));
    CorruptRange {
        start: first_data.base(),
        bytes: span * 64,
    }
}

/// Computes the hashes of all nodes at `level` from the stored image,
/// hashing only the nodes that left their fresh image.
fn stored_level_hashes(
    store: &SparseStore,
    layout: &RegionLayout,
    engine: &MacEngine,
    fresh: &FreshTree,
    level: u8,
) -> Vec<triad_crypto::Mac64> {
    let geom = &layout.geometry;
    (0..geom.nodes_at_level(level))
        .map(|i| {
            let addr = if level == 0 {
                layout.counter_start + i
            } else {
                // Every level below the root has stored addresses by
                // construction; a miss is a geometry bug, not data
                // corruption, so it hashes as all-zero (never matches).
                let Some(addr) = layout.bmt_node_addr(level, i) else {
                    debug_assert!(false, "level {level} node {i} has no stored address");
                    return triad_crypto::Mac64::ZERO;
                };
                addr
            };
            fresh.node_hash(layout, engine, level, i, &store.read(addr))
        })
        .collect()
}

/// §5.2 resilience procedure: given that a rebuild from `persist_level`
/// failed to reproduce `expected_root`, descend level by level to find
/// the lowest stored level that *does* reproduce the root; the corrupt
/// nodes above it are identified by comparing stored vs recomputed
/// contents. If even the counter blocks cannot reproduce the root,
/// the mismatching root slots (or L1 slots, when `persist_level ≥ 1`)
/// bound the unverifiable data ranges.
///
/// `fresh` is the region's tree over an all-zero image under `engine`;
/// every hash of a node still in its fresh image is read from it.
pub fn pinpoint(
    store: &SparseStore,
    layout: &RegionLayout,
    engine: &MacEngine,
    fresh: &FreshTree,
    persist_level: u8,
    expected_root: &NodeBuf,
) -> PinpointReport {
    let geom = &layout.geometry;
    let root_level = geom.root_level();
    // Find the lowest stored level that reproduces the expected root.
    for k in (0..=persist_level.min(root_level - 1)).rev() {
        let mut scratch = store.clone();
        let out = fresh.rebuild_from_level(&mut scratch, layout, engine, k);
        if out.root == *expected_root {
            // Levels above k were corrupt in storage. Identify which
            // nodes at level k+1 disagree with their children.
            let child_hashes = stored_level_hashes(store, layout, engine, fresh, k);
            let mut corrupt = Vec::new();
            if (k + 1) < root_level {
                let stored = stored_level_hashes(store, layout, engine, fresh, k + 1);
                // Recompute level k+1 node *contents* from children.
                let parents = geom.nodes_at_level(k + 1);
                let mut recomputed = vec![NodeBuf::zeroed(); parents as usize];
                for (i, h) in child_hashes.iter().enumerate() {
                    let (_, pi) = geom.parent(k, i as u64);
                    recomputed[pi as usize].set_slot(geom.child_slot(i as u64), *h);
                }
                for (i, buf) in recomputed.iter().enumerate() {
                    let h = fresh.node_hash(layout, engine, k + 1, i as u64, &buf.0);
                    if h != stored[i] {
                        corrupt.push((k + 1, i as u64));
                    }
                }
            }
            return PinpointReport {
                recoverable: true,
                corrupt_nodes: corrupt,
                unverifiable: Vec::new(),
            };
        }
    }
    // Even level 0 does not reproduce the root: counters (or data under
    // them) are corrupt. Use the lowest trusted stored level to narrow
    // the damage: stored L1 when it was strictly persisted, otherwise
    // the root node's slots.
    let leaf_hashes = stored_level_hashes(store, layout, engine, fresh, 0);
    let mut unverifiable = Vec::new();
    let mut corrupt_nodes = Vec::new();
    if persist_level >= 1 && root_level > 1 {
        // Compare each leaf hash against the strictly persisted L1 slot.
        for (i, h) in leaf_hashes.iter().enumerate() {
            // `root_level > 1` guarantees L1 is stored; treat a missing
            // address as disagreement rather than aborting pinpointing.
            let Some(addr) = layout.bmt_node_addr(1, i as u64 / geom.arity()) else {
                debug_assert!(false, "L1 node for leaf {i} has no stored address");
                corrupt_nodes.push((0, i as u64));
                unverifiable.push(range_of_leaves(layout, i as u64, 1));
                continue;
            };
            let parent = NodeBuf(store.read(addr));
            if parent.slot(geom.child_slot(i as u64)) != *h {
                corrupt_nodes.push((0, i as u64));
                unverifiable.push(range_of_leaves(layout, i as u64, 1));
            }
        }
    } else {
        // Only the root's slots are trustworthy: each slot covers the
        // leaves of one child subtree.
        let mut scratch = store.clone();
        let computed = fresh
            .rebuild_from_level(&mut scratch, layout, engine, 0)
            .root;
        // Each root slot roots one child subtree covering
        // arity^(root_level - 1) leaves.
        let leaves_per_slot = geom
            .arity()
            .saturating_pow(u32::from(root_level) - 1)
            .max(1);
        for slot in 0..geom.arity() as usize {
            if computed.slot(slot) != expected_root.slot(slot) {
                let first = slot as u64 * leaves_per_slot;
                if first < geom.leaves() {
                    unverifiable.push(range_of_leaves(
                        layout,
                        first,
                        leaves_per_slot.min(geom.leaves() - first),
                    ));
                }
            }
        }
        if unverifiable.is_empty() && computed != *expected_root {
            // Shapes too small for slot attribution: whole region.
            unverifiable.push(range_of_leaves(layout, 0, geom.leaves()));
        }
    }
    PinpointReport {
        recoverable: false,
        corrupt_nodes,
        unverifiable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TB: u64 = 1 << 40;

    #[test]
    fn figure10_triadnvm_points_match_paper() {
        let m = RecoveryModel::isca19();
        // Paper §5.2: at 1 TB, TriadNVM-1 = 30.68 s, -2 = 3.83 s,
        // -3 = 0.48 s.
        let t1 = m
            .recovery_time(TB, PersistScheme::triad_nvm(1))
            .as_secs_f64();
        let t2 = m
            .recovery_time(TB, PersistScheme::triad_nvm(2))
            .as_secs_f64();
        let t3 = m
            .recovery_time(TB, PersistScheme::triad_nvm(3))
            .as_secs_f64();
        assert!((t1 - 30.68).abs() < 0.05, "t1 = {t1}");
        assert!((t2 - 3.83).abs() < 0.01, "t2 = {t2}");
        assert!((t3 - 0.48).abs() < 0.01, "t3 = {t3}");
    }

    #[test]
    fn figure10_no_persist_is_about_thirty_minutes_at_1tb() {
        let m = RecoveryModel::isca19();
        let t = m.recovery_time(TB, PersistScheme::WriteBack).as_secs_f64();
        assert!(t > 1700.0 && t < 1800.0, "t = {t}"); // ≈ 29 min
    }

    #[test]
    fn strict_recovers_instantly() {
        let m = RecoveryModel::isca19();
        assert_eq!(m.recovery_time(TB, PersistScheme::Strict), Duration::ZERO);
    }

    #[test]
    fn recovery_scales_linearly_with_capacity() {
        let m = RecoveryModel::isca19();
        let t1 = m.blocks_touched(TB, PersistScheme::triad_nvm(2));
        let t8 = m.blocks_touched(8 * TB, PersistScheme::triad_nvm(2));
        let ratio = t8 as f64 / t1 as f64;
        assert!((ratio - 8.0).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn paper_abstract_numbers_8tb_and_64tb() {
        // "less than 4 seconds for an 8TB NVM system (30.6 seconds for
        // 64TB)" — these are the TriadNVM-3 points.
        let m = RecoveryModel::isca19();
        let t8 = m
            .recovery_time(8 * TB, PersistScheme::triad_nvm(3))
            .as_secs_f64();
        let t64 = m
            .recovery_time(64 * TB, PersistScheme::triad_nvm(3))
            .as_secs_f64();
        assert!(t8 < 4.0, "t8 = {t8}");
        assert!((t64 - 30.6).abs() < 0.3, "t64 = {t64}");
    }

    #[test]
    fn no_persist_vs_triadnvm_speedup_is_three_orders() {
        // Abstract: "3648× faster than a system without security
        // metadata persistence" (8 TB, TriadNVM-3 vs no-persist).
        let m = RecoveryModel::isca19();
        let slow = m
            .recovery_time(8 * TB, PersistScheme::WriteBack)
            .as_secs_f64();
        let fast = m
            .recovery_time(8 * TB, PersistScheme::triad_nvm(3))
            .as_secs_f64();
        let speedup = slow / fast;
        assert!(speedup > 3000.0 && speedup < 4500.0, "speedup = {speedup}");
    }

    #[test]
    fn level_counts_shrink_by_arity() {
        let m = RecoveryModel::isca19();
        let lv = m.level_counts(TB);
        assert_eq!(lv[0], 1 << 28);
        assert_eq!(lv[1], 1 << 25);
        assert_eq!(*lv.last().unwrap(), 1);
    }
}

/// `recover()` against the procedure it replaced, replayed on a copy
/// of the crashed image: the non-persistent level 1 zeroed block by
/// block, and every tree rebuilt by the reference
/// `bmt::rebuild_from_level`, which hashes every node it reads.
#[cfg(test)]
mod fresh_tree_equivalence {
    use triad_meta::bmt;
    use triad_meta::layout::RegionKind;
    use triad_sim::config::{CacheConfig, SystemConfig};

    use super::*;
    use crate::engine::SecureMemory;
    use crate::SecureMemoryBuilder;

    const SCHEMES: [PersistScheme; 4] = [
        PersistScheme::TriadNvm { n: 1 },
        PersistScheme::TriadNvm { n: 2 },
        PersistScheme::TriadNvm { n: 3 },
        PersistScheme::Strict,
    ];

    /// Whether every stored node of `level` still holds its fresh image.
    fn level_is_fresh(m: &SecureMemory, kind: RegionKind, level: u8) -> bool {
        let layout = m.memory_map().region(kind);
        let fresh = FreshTree::new(layout, &m.mac_engine);
        (0..layout.geometry.nodes_at_level(level)).all(|i| {
            let addr = layout.bmt_node_addr(level, i).unwrap();
            m.nvm_image().read(addr) == fresh.node(level, i).0
        })
    }

    /// An engine whose image holds non-persistent level-1 and level-2
    /// nodes written back by metadata evictions, and persisted pages of
    /// the persistent region.
    fn used_engine(scheme: PersistScheme) -> SecureMemory {
        let mut config = SystemConfig::tiny();
        config.l3 = CacheConfig::new(4 << 10, 4, 32);
        config.security.counter_cache = CacheConfig::new(1 << 10, 2, 3);
        config.security.mt_cache = CacheConfig::new(1 << 10, 2, 3);
        let mut m = SecureMemoryBuilder::new()
            .config(config)
            .scheme(scheme)
            .build()
            .unwrap();
        let np = m.memory_map().non_persistent().clone();
        let pages = np.data_blocks / 64;
        let mut stores = 0;
        while level_is_fresh(&m, RegionKind::NonPersistent, 1)
            || level_is_fresh(&m, RegionKind::NonPersistent, 2)
        {
            assert!(stores < 8 * pages, "no non-persistent node reached NVM");
            // Pages three apart, so consecutive stores share no
            // level-1 node.
            let page = stores * 3 % pages;
            let addr = (np.data_start + page * 64).base();
            m.write(addr, &stores.to_le_bytes()).unwrap();
            stores += 1;
        }
        let p = m.memory_map().persistent().clone();
        for page in 0..12 {
            let addr = (p.data_start + page * 64 * 5).base();
            m.write(addr, &[page as u8 + 1; 16]).unwrap();
            m.persist(addr).unwrap();
        }
        m
    }

    /// The image, persistent and non-persistent roots and report the
    /// reference procedure leaves after `m`'s crash. `corrupt` is what
    /// pinpointing reports when the persistent rebuild misses the root.
    fn reference_recover(
        m: &SecureMemory,
        corrupt: &[(u8, u64)],
    ) -> (SparseStore, NodeBuf, NodeBuf, RecoveryReport) {
        assert!(!m.regs.ready_bit(), "no staged update to replay");
        let mut image = m.nvm_image().clone();
        let mut report = RecoveryReport {
            persistent_recovered: true,
            session: m.session() + 1,
            ..RecoveryReport::default()
        };
        let p = m.memory_map().persistent();
        let level = m.scheme().recovery_start_level().unwrap();
        let from = level.min(p.geometry.root_level() - 1);
        let out = bmt::rebuild_from_level(&mut image, p, &m.mac_engine, from);
        report.persistent_blocks_read = out.blocks_read;
        if out.root != m.root(RegionKind::Persistent) {
            report.corrupt_metadata = corrupt.to_vec();
            let out = bmt::rebuild_from_level(&mut image, p, &m.mac_engine, 0);
            report.persistent_blocks_read += out.blocks_read;
            assert_eq!(out.root, m.root(RegionKind::Persistent));
        }
        let np = m.memory_map().non_persistent();
        let l1 = np.geometry.nodes_at_level(1);
        for i in 0..l1 {
            image.write(np.bmt_node_addr(1, i).unwrap(), [0; 64]);
        }
        report.non_persistent_blocks_written = l1;
        let np_out = bmt::rebuild_from_level(&mut image, np, &m.mac_engine, 1);
        report.non_persistent_blocks_read = np_out.blocks_read;
        report.estimated_duration = Duration::from_ns(100).saturating_mul(
            report.persistent_blocks_read
                + report.non_persistent_blocks_read
                + report.non_persistent_blocks_written,
        );
        let p_root = m.root(RegionKind::Persistent);
        (image, p_root, np_out.root, report)
    }

    /// Crashes `m`, recovers it, checks it against the reference, and
    /// returns its report.
    fn assert_recovers_like_the_reference(
        mut m: SecureMemory,
        corrupt: &[(u8, u64)],
    ) -> RecoveryReport {
        let scheme = m.scheme();
        m.crash();
        let (image, p_root, np_root, expected) = reference_recover(&m, corrupt);
        let report = m.recover().unwrap();
        assert_eq!(report, expected, "{scheme}: report");
        assert!(m.nvm_image() == &image, "{scheme}: image");
        assert_eq!(m.root(RegionKind::Persistent), p_root, "{scheme}");
        assert_eq!(m.root(RegionKind::NonPersistent), np_root, "{scheme}");
        report
    }

    #[test]
    fn recovery_equals_the_reference_procedure_under_every_scheme() {
        for scheme in SCHEMES {
            let m = used_engine(scheme);
            assert!(!level_is_fresh(&m, RegionKind::Persistent, 1));
            assert_recovers_like_the_reference(m, &[]);
        }
    }

    /// Under TriadNVM-2 the tampered node is the trusted level, so the
    /// rebuild misses the root and pinpointing names the node.
    #[test]
    fn recovery_of_a_tampered_level_one_node_equals_the_reference() {
        for scheme in SCHEMES {
            // Bits flipped in a written node, and a written node put
            // back to its all-zero fresh image.
            for restore_fresh in [false, true] {
                let mut m = used_engine(scheme);
                let p = m.memory_map().persistent().clone();
                let index = (0..p.geometry.nodes_at_level(1))
                    .find(|&i| m.nvm_image().read(p.bmt_node_addr(1, i).unwrap()) != [0; 64])
                    .unwrap();
                let addr = p.bmt_node_addr(1, index).unwrap();
                if restore_fresh {
                    m.nvm_image_mut().rollback_to(addr, [0; 64]);
                } else {
                    m.nvm_image_mut().tamper(addr, [0x5A; 64]);
                }
                let report = assert_recovers_like_the_reference(m, &[(1, index)]);
                if scheme == PersistScheme::triad_nvm(2) {
                    assert!(report.persistent_recovered);
                    assert_eq!(report.corrupt_metadata, vec![(1, index)]);
                }
            }
        }
    }
}
