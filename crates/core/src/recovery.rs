//! Recovery: the analytic recovery-time model of Figure 10, corruption
//! pinpointing (§5.2), and the report type returned by
//! [`crate::engine::SecureMemory::recover`].

use triad_crypto::mac::MacEngine;
use triad_mem::store::SparseStore;
use triad_meta::bmt::{self, NodeBuf, NodeId};
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

/// Computes the hashes of all nodes at `level` from the stored image.
fn stored_level_hashes(
    store: &SparseStore,
    layout: &RegionLayout,
    engine: &MacEngine,
    level: u8,
) -> Vec<triad_crypto::Mac64> {
    let geom = &layout.geometry;
    (0..geom.nodes_at_level(level))
        .map(|i| {
            if level == 0 {
                bmt::leaf_hash(
                    engine,
                    layout.kind,
                    i,
                    &store.read(layout.counter_start + i),
                )
            } else {
                // Every level below the root has stored addresses by
                // construction; a miss is a geometry bug, not data
                // corruption, so it hashes as all-zero (never matches).
                let Some(addr) = layout.bmt_node_addr(level, i) else {
                    debug_assert!(false, "level {level} node {i} has no stored address");
                    return triad_crypto::Mac64::ZERO;
                };
                bmt::node_hash(
                    engine,
                    NodeId {
                        region: layout.kind,
                        level,
                        index: i,
                    },
                    &store.read(addr),
                )
            }
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
pub fn pinpoint(
    store: &SparseStore,
    layout: &RegionLayout,
    engine: &MacEngine,
    persist_level: u8,
    expected_root: &NodeBuf,
) -> PinpointReport {
    let geom = &layout.geometry;
    let root_level = geom.root_level();
    // Find the lowest stored level that reproduces the expected root.
    for k in (0..=persist_level.min(root_level - 1)).rev() {
        let mut scratch = store.clone();
        let out = bmt::rebuild_from_level(&mut scratch, layout, engine, k);
        if out.root == *expected_root {
            // Levels above k were corrupt in storage. Identify which
            // nodes at level k+1 disagree with their children.
            let child_hashes = stored_level_hashes(store, layout, engine, k);
            let mut corrupt = Vec::new();
            if (k + 1) < root_level {
                let stored = stored_level_hashes(store, layout, engine, k + 1);
                // Recompute level k+1 node *contents* from children.
                let parents = geom.nodes_at_level(k + 1);
                let mut recomputed = vec![NodeBuf::zeroed(); parents as usize];
                for (i, h) in child_hashes.iter().enumerate() {
                    let (_, pi) = geom.parent(k, i as u64);
                    recomputed[pi as usize].set_slot(geom.child_slot(i as u64), *h);
                }
                for (i, buf) in recomputed.iter().enumerate() {
                    let h = bmt::node_hash(
                        engine,
                        NodeId {
                            region: layout.kind,
                            level: k + 1,
                            index: i as u64,
                        },
                        &buf.0,
                    );
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
    let leaf_hashes = stored_level_hashes(store, layout, engine, 0);
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
        let computed = bmt::rebuild_from_level(&mut scratch, layout, engine, 0).root;
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
