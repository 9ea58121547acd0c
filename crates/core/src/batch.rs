//! Batched write-path persistence.
//!
//! [`SecureMemory::persist_batch`] takes a program-ordered slice of
//! persistent-region block writes whose durability is requested
//! *together*. Compared to calling [`SecureMemory::persist_block`]
//! once per block, the batched path exploits knowing the whole set up
//! front two ways:
//!
//! 1. **Coalesced BMT commit** — every member's atomic update set
//!    (ciphertext, counter, MAC, persisted tree nodes) merges
//!    last-wins into one pending staging buffer; ancestors shared by
//!    multiple dirty leaves are written to NVM once per batch, and the
//!    §3.3.5 register protocol (stage → READY_BIT → WPQ → commit) is
//!    charged once instead of once per member.
//! 2. **Prefetch planning** — the counter blocks, MAC blocks and
//!    coalesced tree-path nodes the batch will touch are planned
//!    through [`triad_cache::BatchPrefetcher`] before the first member
//!    executes, so their fetches can overlap (cf. trie prefetching for
//!    queued transaction blocks).
//!
//! Each member encrypts and MACs its block at its own write-back,
//! exactly as a scalar persist does; the commit counts each merged
//! write by its block's role in the memory map.
//!
//! ## Crash safety
//!
//! The merged update set is staged **in place** in the persistent
//! registers: the batch's first write replaces whatever they held, a
//! write to an already-staged address overwrites its bytes, a new
//! address is appended, and every member advances the logged root.
//! At any point mid-batch the registers therefore hold the full
//! replayable prefix (all fully processed members, merged last-wins,
//! in first-staging order). A crash between members recovers exactly
//! like the scalar walk — processed members durable, the rest lost —
//! and each member consumes one persist-boundary durability point,
//! keeping armed-crash drivers scheme-agnostic. The registers hold the
//! only copy of the merged writes, so staging one write costs one
//! index lookup, not a rebuild of the whole set.
//!
//! [`SecureMemory::flush_batch`] runs the same machinery over blocks
//! already stored on chip. It is the boundary of an epoch (Liu et
//! al.'s *epoch persistency*, which the paper cites as orthogonal to
//! Triad-NVM, §6): an epoch is plain [`SecureMemory::store_block`]s,
//! which return at cache latency, followed by one `flush_batch` over
//! the blocks they stored.
//!
//! The engine keeps one set of batch bookkeeping tables for its whole
//! life: a commit clears them and the next batch (a scalar persist is
//! a batch of one) reuses them, so opening a batch allocates no map.

use std::collections::hash_map::Entry;

use triad_cache::PrefetchClass;
use triad_mem::store::Block;
use triad_meta::bmt::coalesce_dirty_paths;
use triad_meta::layout::{BlockRole, RegionKind};
use triad_sim::events::emit;
use triad_sim::time::Time;
use triad_sim::{AddrMap, AddrSet, BlockAddr, BLOCK_BYTES};

use crate::engine::{Result, SecureMemory};
use crate::error::{CrashHookKind, SecureMemoryError};
use crate::registers::{PersistentRegisters, StagedUpdate, StagedWrite};
use crate::scheme::CounterPersistence;

/// The open batch's bookkeeping. The merged writes themselves live in
/// the persistent registers' staged update; this records where each
/// address sits in it. The index is never iterated.
#[derive(Debug, Default)]
pub(crate) struct PendingBatch {
    /// addr → position in the staged update's write list.
    index: AddrMap<u64, usize>,
    /// Writes a scalar walk would have performed (before merging).
    pub(crate) naive_writes: u64,
}

impl PendingBatch {
    /// Empties the index, keeping its allocation for the next batch.
    fn clear(&mut self) {
        self.index.clear();
        self.naive_writes = 0;
    }

    /// Stages one write into `regs`, merging last-wins on address. The
    /// position of the first staging is kept.
    fn stage(&mut self, regs: &mut PersistentRegisters, addr: BlockAddr, data: Block) {
        self.naive_writes += 1;
        if self.index.is_empty() {
            // The batch's first write replaces whatever was logged.
            regs.stage(StagedUpdate::default());
        }
        let writes = &mut regs.staged_mut().writes;
        match self.index.entry(addr.0) {
            Entry::Occupied(pos) => writes[*pos.get()].data = data,
            Entry::Vacant(slot) => {
                slot.insert(writes.len());
                writes.push(StagedWrite { addr, data });
            }
        }
    }
}

impl SecureMemory {
    /// Persists every write of `members` in order (a repeated block
    /// commits last-wins), sharing one prefetch plan and one coalesced
    /// register/WPQ commit across them (the batched write path; see
    /// the module docs). Returns the time the whole batch is inside the
    /// persistence domain.
    ///
    /// Falls back to per-member [`SecureMemory::persist_block`] calls
    /// under the Osiris counter relaxation (its skip bookkeeping is
    /// inherently per-write).
    ///
    /// Each member consumes one durability point of the
    /// persist-boundary crash hook ([`SecureMemory::arm_crash`]); a
    /// crash between members makes exactly the already-processed
    /// prefix durable.
    ///
    /// # Errors
    ///
    /// [`SecureMemoryError::NotPersistent`] (checked for every member
    /// before any state changes) if any member lies outside the
    /// persistent region, plus the classes of
    /// [`SecureMemory::persist_block`].
    pub fn persist_batch(&mut self, members: &[(BlockAddr, Block)], now: Time) -> Result<Time> {
        self.check_persist_targets(members.iter().map(|(block, _)| *block))?;
        if members.is_empty() {
            return Ok(now);
        }
        if matches!(self.counter_persistence, CounterPersistence::Osiris { .. }) {
            let mut t = now;
            for (block, data) in members {
                t = self.persist_block(*block, *data, t)?;
            }
            return Ok(t);
        }
        self.open_batch();
        let planned = self.plan_batch_prefetch(members);
        emit(
            &self.events,
            now,
            "batch_queued",
            &[
                ("members", members.len().into()),
                ("planned_lines", planned.into()),
            ],
        );
        self.stats.batches += 1;
        self.stats.batch_members += members.len() as u64;
        // The prefetch plan lets every member's metadata fetches be in
        // flight together, so members issue from the batch's start time
        // rather than serialising end-to-end; the merged WPQ drain in
        // `commit_batch` then charges the serialised commit once.
        let t0 = now + self.l3.latency();
        let mut t = t0;
        for (block, data) in members {
            self.stats.stores += 1;
            self.stats.persists += 1;
            if self.persist_boundary_crash(now) {
                // The crash cleared the open batch; the staged prefix
                // (every fully processed member, merged) replays at
                // recovery — the scalar walk's per-member durability.
                return Err(SecureMemoryError::NeedsRecovery);
            }
            self.reclaim(*block);
            self.l3_fill(*block, true, *data);
            let done = match self.writeback_data(*block, *data, t0) {
                Ok(done) => done,
                Err(e) => {
                    // Commit the staged prefix so the on-chip roots and
                    // the NVM image agree before surfacing the error.
                    let _ = self.commit_batch(t);
                    return Err(e);
                }
            };
            self.l3.flush(*block);
            match self.drain_evictions(now) {
                Ok(()) => {}
                Err(e) => {
                    let _ = self.commit_batch(t);
                    return Err(e);
                }
            }
            t = t.max(done);
        }
        t = self.commit_batch(t)?;
        self.drain_evictions(now)?;
        self.hists.persist_latency_ns.record(t.since(now).as_ns());
        Ok(t)
    }

    /// Applies `members` through [`SecureMemory::persist_batch`] on the
    /// convenience (untimed) clock.
    ///
    /// # Example
    ///
    /// ```rust
    /// use triad_core::SecureMemoryBuilder;
    ///
    /// # fn main() -> Result<(), triad_core::SecureMemoryError> {
    /// let mut mem = SecureMemoryBuilder::new().build()?;
    /// let base = mem.persistent_region().start();
    /// let members: Vec<_> = (0..4u64)
    ///     .map(|i| (triad_sim::PhysAddr(base.0 + i * 64).block(), [i as u8; 64]))
    ///     .collect();
    /// mem.apply_batch(&members)?;
    /// assert_eq!(mem.stats().batches, 1);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Same classes as [`SecureMemory::persist_batch`].
    pub fn apply_batch(&mut self, members: &[(BlockAddr, Block)]) -> Result<()> {
        let t = self.persist_batch(members, self.clock)?;
        self.clock = t;
        Ok(())
    }

    /// Makes every distinct block of `blocks` that is still dirty on
    /// chip durable with its metadata: the boundary of an epoch (see
    /// the module docs). Repeated blocks flush once (write combining);
    /// a block already written back since its store is skipped.
    /// Returns the time every flushed member is inside the persistence
    /// domain; a call that flushed any member records that latency in
    /// [`SecureHists::persist_latency_ns`].
    ///
    /// Members issue one after another. Under an atomic scheme with
    /// strict counters they run as one batch (shared prefetch plan and
    /// register/WPQ commit); otherwise each writes back on its own
    /// (Osiris skip bookkeeping is per-write, and `WriteBack` persists
    /// no metadata to coalesce).
    ///
    /// Each flushed member counts one [`SecureStats::persists`] and
    /// consumes one durability point of the persist-boundary crash hook
    /// ([`SecureMemory::arm_crash`]); a crash between members makes
    /// exactly the already-flushed members durable.
    ///
    /// [`SecureStats::persists`]: crate::SecureStats::persists
    /// [`SecureHists::persist_latency_ns`]: crate::SecureHists::persist_latency_ns
    ///
    /// # Errors
    ///
    /// [`SecureMemoryError::NotPersistent`] (checked for every block
    /// before any state changes) if any block lies outside the
    /// persistent region, plus the classes of
    /// [`SecureMemory::persist_block`].
    pub fn flush_batch(&mut self, blocks: &[BlockAddr], now: Time) -> Result<Time> {
        self.check_persist_targets(blocks.iter().copied())?;
        let mut seen = AddrSet::default();
        let mut members = Vec::new();
        for &block in blocks {
            if seen.insert(block.0) && self.l3.probe_dirty(block) {
                let plaintext = self.l3.get(block).copied().unwrap_or([0; BLOCK_BYTES]);
                members.push((block, plaintext));
            }
        }
        let osiris = matches!(self.counter_persistence, CounterPersistence::Osiris { .. });
        if !members.is_empty() && !osiris && self.scheme.persists_metadata() {
            self.open_batch();
            self.plan_batch_prefetch(&members);
            self.stats.batches += 1;
            self.stats.batch_members += members.len() as u64;
        }
        let flushed = !members.is_empty();
        let mut t = now;
        for (block, plaintext) in members {
            self.stats.persists += 1;
            if self.persist_boundary_crash(now) {
                // Every member flushed before the crash is durable (a
                // batch's staged prefix replays at recovery).
                return Err(SecureMemoryError::NeedsRecovery);
            }
            let done = match self.writeback_data(block, plaintext, t) {
                Ok(done) => done,
                Err(e) => {
                    // Commit the staged prefix so the on-chip roots and
                    // the NVM image agree before surfacing the error.
                    let _ = self.commit_batch(t);
                    return Err(e);
                }
            };
            self.l3.flush(block);
            t = t.max(done);
        }
        // A no-op unless the members ran as one batch.
        t = self.commit_batch(t)?;
        self.drain_evictions(now)?;
        if flushed {
            self.hists.persist_latency_ns.record(t.since(now).as_ns());
        }
        Ok(t)
    }

    // ----- crate-internal batch plumbing ------------------------------------

    /// Opens a batch on the engine's reused bookkeeping.
    pub(crate) fn open_batch(&mut self) {
        self.batch = Some(std::mem::take(&mut self.idle_batch));
    }

    /// Staged bytes of `addr` in the open batch, if any. Metadata and
    /// data fetches must prefer these over the (stale-until-commit)
    /// NVM copy.
    pub(crate) fn batch_forward(&self, addr: BlockAddr) -> Option<Block> {
        let pos = *self.batch.as_ref()?.index.get(&addr.0)?;
        self.regs.staged()?.writes.get(pos).map(|w| w.data)
    }

    /// Merges one member's atomic update set into the open batch's
    /// staged update and advances its logged root.
    pub(crate) fn stage_into_batch(
        &mut self,
        kind: RegionKind,
        writes: &[StagedWrite],
        new_root: triad_meta::NodeBuf,
    ) {
        let SecureMemory { batch, regs, .. } = self;
        let Some(pending) = batch else { return };
        for w in writes {
            pending.stage(regs, w.addr, w.data);
        }
        if kind == RegionKind::Persistent {
            regs.staged_mut().new_persistent_root = Some(new_root);
        }
    }

    /// Stages a single write into the open batch (re-encryption path).
    pub(crate) fn batch_stage_raw(&mut self, addr: BlockAddr, data: Block) {
        let SecureMemory { batch, regs, .. } = self;
        if let Some(pending) = batch {
            pending.stage(regs, addr, data);
        }
    }

    /// Refreshes a pending write's bytes after a direct NVM write of
    /// the same block (eviction mid-batch), so neither the commit nor a
    /// recovery replay can roll the block back to stale bytes.
    pub(crate) fn batch_refresh(&mut self, addr: BlockAddr, data: Block) {
        let Some(&pos) = self.batch.as_ref().and_then(|p| p.index.get(&addr.0)) else {
            return;
        };
        if let Some(w) = self.regs.staged_mut().writes.get_mut(pos) {
            w.data = data;
        }
    }

    /// Commits the open batch: charges the register protocol once,
    /// drains the merged writes through the WPQ (honouring the armed
    /// WPQ-crash hook), counts each persist write by its block's role
    /// (counter, MAC or tree node; data is not metadata), and clears the
    /// READY_BIT. This is the engine's one §3.3.5 commit: a scalar
    /// atomic persist commits here as a batch of one. A no-op when no
    /// batch is open or nothing was staged. The batch's bookkeeping is
    /// cleared and kept for the next batch.
    pub(crate) fn commit_batch(&mut self, now: Time) -> Result<Time> {
        let Some(mut pending) = self.batch.take() else {
            return Ok(now);
        };
        let done = self.commit_pending(&pending, now);
        pending.clear();
        self.idle_batch = pending;
        done
    }

    fn commit_pending(&mut self, pending: &PendingBatch, now: Time) -> Result<Time> {
        let staged = pending.index.len();
        if staged == 0 {
            return Ok(now);
        }
        let merged = pending.naive_writes - staged as u64;
        let mut t = now
            + self
                .config
                .security
                .persistent_register_latency
                .saturating_mul(staged as u64 + 1);
        emit(
            &self.events,
            now,
            "atomic_persist",
            &[
                ("staged_writes", staged.into()),
                ("merged_away", merged.into()),
            ],
        );
        for pos in 0..staged {
            let Some(w) = self.regs.staged().and_then(|u| u.writes.get(pos)).copied() else {
                break;
            };
            let at = || ("block", w.addr.0.into());
            if self.crash_hook_fires(CrashHookKind::WpqWrite, t, at) {
                return Err(SecureMemoryError::NeedsRecovery);
            }
            t = self.mc.write(w.addr, w.data, t);
            let kind = self.map.region_of(w.addr.base());
            match kind.map(|kind| self.layout(kind).role_of(w.addr)) {
                Some(BlockRole::Counter) => self.stats.counter_writes_persist += 1,
                Some(BlockRole::Mac) => self.stats.mac_writes_persist += 1,
                Some(BlockRole::BmtNode(_)) => self.stats.node_writes_persist += 1,
                _ => {}
            }
        }
        self.stats.atomic_persists += 1;
        self.stats.batch_writes_merged += merged;
        self.regs.commit();
        Ok(t)
    }

    /// Plans the metadata prefetches of a queued batch: per-member
    /// counter and MAC lines plus the coalesced BMT path nodes, probed
    /// non-perturbingly against on-chip state. Returns the number of
    /// distinct lines planned.
    pub(crate) fn plan_batch_prefetch(&mut self, members: &[(BlockAddr, Block)]) -> u64 {
        let kind = RegionKind::Persistent;
        let layout = self.layout(kind);
        if layout.is_empty() {
            return 0;
        }
        let mut reqs: Vec<(PrefetchClass, BlockAddr)> = Vec::new();
        let mut leaves: Vec<u64> = Vec::new();
        for (block, _) in members {
            if self.map.data_region_of(*block) != Some(kind) {
                continue;
            }
            let data_index = layout.data_index(*block);
            let leaf = data_index / layout.counter_coverage;
            leaves.push(leaf);
            reqs.push((PrefetchClass::Counter, layout.counter_start + leaf));
            reqs.push((PrefetchClass::Mac, layout.mac_start + data_index / 8));
        }
        let coalesced = coalesce_dirty_paths(&layout.geometry, &leaves);
        for level in 1..layout.geometry.root_level() {
            for index in coalesced.nodes_at_level(level) {
                if let Some(addr) = layout.bmt_node_addr(level, *index) {
                    reqs.push((PrefetchClass::Node, addr));
                }
            }
        }
        let SecureMemory {
            prefetcher,
            ctr_cache,
            mt_cache,
            evict_queue,
            ..
        } = self;
        let plan = prefetcher.plan(&reqs, |class, addr| {
            evict_queue.iter().any(|e| e.addr() == addr)
                || match class {
                    PrefetchClass::Counter => ctr_cache.probe(addr),
                    PrefetchClass::Mac | PrefetchClass::Node => mt_cache.probe(addr),
                }
        });
        emit(
            &self.events,
            self.clock,
            "batch_prefetch",
            &[
                ("lines", plan.lines.len().into()),
                ("predicted_hits", plan.predicted_hits().into()),
                ("dedup_saved", plan.dedup_saved.into()),
            ],
        );
        plan.lines.len() as u64
    }
}
