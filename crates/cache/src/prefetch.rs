//! Batch-keyed metadata prefetch planning.
//!
//! When the secure engine queues a write batch
//! ([`SecureMemory::persist_batch`], or the `flush_batch` that closes
//! an epoch), the full set of counter blocks, MAC blocks and BMT path
//! nodes the batch will touch is known *before* the first member
//! executes — exactly the situation a trie prefetcher exploits (cf. reth's `trie-prefetch`, which warms
//! trie nodes for a queued block of transactions). The
//! [`BatchPrefetcher`] turns that queued batch into a deduplicated
//! [`PrefetchPlan`]: the distinct metadata lines the batch needs, split
//! into predicted hits (already resident somewhere on chip) and
//! predicted misses (would be fetched from NVM).
//!
//! The planner is deliberately **non-perturbing**: it probes caches
//! through [`Cache::probe`]-style callbacks without touching recency
//! state, so a planned batch executes bit-identically to the unplanned
//! scalar sequence. What batching buys — and what the plan quantifies —
//! is *overlap*: all planned fetches can be in flight together instead
//! of serialised one write at a time.
//!
//! [`SecureMemory::persist_batch`]: ../triad_core/engine/struct.SecureMemory.html#method.persist_batch
//! [`Cache::probe`]: crate::Cache::probe

use triad_sim::stats::{Scope, StatRegister};
use triad_sim::{AddrSet, BlockAddr};

/// Which metadata structure a prefetch request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrefetchClass {
    /// A split-counter block (counter-cache resident).
    Counter,
    /// A per-block MAC line (Merkle-tree-cache resident).
    Mac,
    /// An intermediate BMT node (Merkle-tree-cache resident).
    Node,
}

/// One planned metadata line: its class, address, and whether the
/// probe found it already resident on chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedLine {
    /// Metadata class of the line.
    pub class: PrefetchClass,
    /// Block address of the line.
    pub addr: BlockAddr,
    /// `true` if already resident (no NVM fetch needed).
    pub resident: bool,
}

/// The deduplicated prefetch plan for one queued batch.
#[derive(Debug, Clone, Default)]
pub struct PrefetchPlan {
    /// Every distinct metadata line the batch will touch, in first-use
    /// order.
    pub lines: Vec<PlannedLine>,
    /// Requests dropped because an earlier member already planned the
    /// same line — the shared-ancestor redundancy the batch eliminates.
    pub dedup_saved: u64,
}

impl PrefetchPlan {
    /// Lines the probe predicted resident (no fetch needed).
    pub fn predicted_hits(&self) -> u64 {
        self.lines.iter().filter(|l| l.resident).count() as u64
    }

    /// Lines that would be fetched from NVM.
    pub fn predicted_misses(&self) -> u64 {
        self.lines.len() as u64 - self.predicted_hits()
    }
}

/// Counters for the prefetch planner.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchStats {
    /// Batches planned.
    pub batches: u64,
    /// Distinct metadata lines planned across all batches.
    pub lines_planned: u64,
    /// Duplicate requests merged away by planning.
    pub dedup_saved: u64,
    /// Planned lines predicted resident on chip.
    pub predicted_hits: u64,
    /// Planned lines predicted to need an NVM fetch.
    pub predicted_misses: u64,
}

impl StatRegister for PrefetchStats {
    fn register(&self, scope: &mut Scope<'_>) {
        scope.set("batches", self.batches);
        scope.set("lines_planned", self.lines_planned);
        scope.set("dedup_saved", self.dedup_saved);
        scope.set("predicted_hits", self.predicted_hits);
        scope.set("predicted_misses", self.predicted_misses);
    }
}

/// Plans metadata prefetches for queued write batches.
#[derive(Debug, Default)]
pub struct BatchPrefetcher {
    stats: PrefetchStats,
    /// The dedup set of the plan being built; emptied per plan and kept
    /// so planning allocates no table. Never iterated.
    seen: AddrSet<(PrefetchClass, BlockAddr)>,
}

impl BatchPrefetcher {
    /// A fresh planner with zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulated planner statistics.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }

    /// Builds the plan for one queued batch.
    ///
    /// `requests` lists every metadata line the batch's members will
    /// touch, in program order and *with* duplicates; `probe` answers
    /// whether a line is already resident on chip and must not disturb
    /// replacement state (use [`Cache::probe`], never
    /// [`Cache::access`]).
    ///
    /// [`Cache::probe`]: crate::Cache::probe
    /// [`Cache::access`]: crate::Cache::access
    pub fn plan(
        &mut self,
        requests: &[(PrefetchClass, BlockAddr)],
        probe: impl Fn(PrefetchClass, BlockAddr) -> bool,
    ) -> PrefetchPlan {
        let mut plan = PrefetchPlan::default();
        self.seen.clear();
        for &(class, addr) in requests {
            if !self.seen.insert((class, addr)) {
                plan.dedup_saved += 1;
                continue;
            }
            plan.lines.push(PlannedLine {
                class,
                addr,
                resident: probe(class, addr),
            });
        }
        self.stats.batches += 1;
        self.stats.lines_planned += plan.lines.len() as u64;
        self.stats.dedup_saved += plan.dedup_saved;
        self.stats.predicted_hits += plan.predicted_hits();
        self.stats.predicted_misses += plan.predicted_misses();
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_dedups_and_splits_hits_from_misses() {
        let mut p = BatchPrefetcher::new();
        let reqs = [
            (PrefetchClass::Counter, BlockAddr(1)),
            (PrefetchClass::Mac, BlockAddr(2)),
            (PrefetchClass::Counter, BlockAddr(1)), // dup
            (PrefetchClass::Node, BlockAddr(3)),
            (PrefetchClass::Node, BlockAddr(3)), // dup
        ];
        let plan = p.plan(&reqs, |_, addr| addr == BlockAddr(2));
        assert_eq!(plan.lines.len(), 3);
        assert_eq!(plan.dedup_saved, 2);
        assert_eq!(plan.predicted_hits(), 1);
        assert_eq!(plan.predicted_misses(), 2);
        assert_eq!(p.stats().batches, 1);
        assert_eq!(p.stats().lines_planned, 3);
        assert_eq!(p.stats().dedup_saved, 2);
    }

    #[test]
    fn same_address_in_different_classes_is_distinct() {
        // A counter line and a MAC line can never alias in the layout,
        // but the planner must not merge across classes regardless.
        let mut p = BatchPrefetcher::new();
        let reqs = [
            (PrefetchClass::Counter, BlockAddr(9)),
            (PrefetchClass::Mac, BlockAddr(9)),
        ];
        let plan = p.plan(&reqs, |_, _| false);
        assert_eq!(plan.lines.len(), 2);
        assert_eq!(plan.dedup_saved, 0);
    }

    #[test]
    fn empty_batch_plans_nothing_but_still_counts() {
        let mut p = BatchPrefetcher::new();
        let plan = p.plan(&[], |_, _| true);
        assert!(plan.lines.is_empty());
        assert_eq!(p.stats().batches, 1);
        assert_eq!(p.stats().predicted_hits, 0);
    }

    #[test]
    fn stats_register_exposes_every_counter() {
        let mut p = BatchPrefetcher::new();
        p.plan(&[(PrefetchClass::Counter, BlockAddr(1))], |_, _| false);
        let mut reg = triad_sim::stats::StatRegistry::new();
        p.stats().register(&mut reg.scope("prefetch"));
        let counters: Vec<(&str, u64)> = reg.counters().collect();
        assert_eq!(
            counters,
            [
                ("prefetch.batches", 1),
                ("prefetch.dedup_saved", 0),
                ("prefetch.lines_planned", 1),
                ("prefetch.predicted_hits", 0),
                ("prefetch.predicted_misses", 1),
            ]
        );
    }
}
