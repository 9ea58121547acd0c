//! The engine's one durability loop.
//!
//! Every persist call runs the member loop of this module over the
//! blocks whose durability it requests *together*:
//! [`SecureMemory::persist_batch`] over a program-ordered slice of
//! persistent-region block writes, [`SecureMemory::persist_block`] as
//! a batch of one, and [`SecureMemory::flush_block`] and
//! [`SecureMemory::flush_batch`] over blocks already stored on chip.
//! Knowing the whole set up front pays two ways:
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
//! Each member encrypts and MACs its block at its own write-back and,
//! under Osiris, decides there whether its counter persists. A minor
//! counter overflow stages the page's re-encryption with the member's
//! update set, and a dirty L3 victim written back outside a persist
//! call runs as a batch of one, so no atomic write-back reaches the WPQ
//! outside the §3.3.5 registers. The commit counts each merged write
//! by its block's role in the memory map.
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
//! like a walk of one-member persists — processed members durable,
//! the rest lost — and each member consumes one persist-boundary
//! durability point, keeping armed-crash drivers scheme-agnostic. The
//! registers hold the only copy of the merged writes, so staging one
//! write costs one index lookup, not a rebuild of the whole set.
//!
//! [`SecureMemory::flush_batch`] is the boundary of an epoch (Liu et
//! al.'s *epoch persistency*, which the paper cites as orthogonal to
//! Triad-NVM, §6): an epoch is plain [`SecureMemory::store_block`]s,
//! which return at cache latency, followed by one `flush_batch` over
//! the blocks they stored.
//!
//! The engine keeps one set of batch bookkeeping tables for its whole
//! life: a commit clears them and the next batch reuses them, so
//! opening a batch allocates no map.

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

/// The open batch's bookkeeping. The merged writes themselves live in
/// the persistent registers' staged update; this records where each
/// address sits in it. The index is never iterated.
#[derive(Debug, Default)]
pub(crate) struct PendingBatch {
    /// addr → position in the staged update's write list.
    index: AddrMap<u64, usize>,
    /// Writes staged so far, before merging.
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
    /// register/WPQ commit across them (see the module docs). Returns
    /// the time the whole batch is inside the persistence domain.
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
    /// [`SecureMemory::load_block`]. A member that fails commits the
    /// members processed before it.
    pub fn persist_batch(&mut self, members: &[(BlockAddr, Block)], now: Time) -> Result<Time> {
        self.check_persist_targets(members.iter().map(|(block, _)| *block))?;
        self.persist_members(members, true, now)
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
    /// The flushed members run the durability loop of
    /// [`SecureMemory::persist_batch`] without a new store: they issue
    /// together from the call's start under one prefetch plan and
    /// commit as one batch. Each counts one [`SecureStats::persists`]
    /// and consumes one durability point of the persist-boundary crash
    /// hook ([`SecureMemory::arm_crash`]); a crash between members
    /// makes exactly the already-flushed members durable.
    ///
    /// [`SecureStats::persists`]: crate::SecureStats::persists
    /// [`SecureHists::persist_latency_ns`]: crate::SecureHists::persist_latency_ns
    ///
    /// # Errors
    ///
    /// [`SecureMemoryError::NotPersistent`] (checked for every block
    /// before any state changes) if any block lies outside the
    /// persistent region, plus the classes of
    /// [`SecureMemory::persist_batch`].
    pub fn flush_batch(&mut self, blocks: &[BlockAddr], now: Time) -> Result<Time> {
        self.check_persist_targets(blocks.iter().copied())?;
        let mut seen = AddrSet::default();
        let members: Vec<_> = blocks
            .iter()
            .filter(|block| seen.insert(block.0))
            .filter_map(|&block| self.dirty_member(block))
            .collect();
        self.persist_members(&members, false, now)
    }

    // ----- crate-internal batch plumbing ------------------------------------

    /// `block` with its plaintext, if it is dirty on chip: a member
    /// for the durability loop's flush form.
    pub(crate) fn dirty_member(&self, block: BlockAddr) -> Option<(BlockAddr, Block)> {
        let plaintext = self.l3.get(block).copied().unwrap_or([0; BLOCK_BYTES]);
        self.l3.probe_dirty(block).then_some((block, plaintext))
    }

    /// The durability loop every persist call runs (see the module
    /// docs); an empty `members` is a no-op. With `store` set each
    /// member is first stored into the L3; otherwise it names a line
    /// already dirty there.
    pub(crate) fn persist_members(
        &mut self,
        members: &[(BlockAddr, Block)],
        store: bool,
        now: Time,
    ) -> Result<Time> {
        if members.is_empty() {
            return Ok(now);
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
        // flight together, so members issue from the call's start time
        // rather than serialising end-to-end; the merged WPQ drain in
        // `commit_batch` then charges the serialised commit once.
        let t0 = now + self.l3.latency();
        let mut t = t0;
        for &(block, data) in members {
            if store {
                self.stats.stores += 1;
                self.reclaim(block);
                self.l3_fill(block, true, data);
            }
            self.stats.persists += 1;
            if self.persist_boundary_crash(now) {
                // The crash cleared the open batch; the staged prefix
                // (every fully processed member) replays at recovery.
                return Err(SecureMemoryError::NeedsRecovery);
            }
            let written = self.writeback_data(block, data, t0).and_then(|done| {
                self.l3.flush(block);
                self.drain_evictions(now)?;
                Ok(done)
            });
            match written {
                Ok(done) => t = t.max(done),
                Err(e) => return self.abandon_batch(e, t),
            }
        }
        t = self.commit_batch(t)?;
        self.drain_evictions(now)?;
        self.hists.persist_latency_ns.record(t.since(now).as_ns());
        Ok(t)
    }

    /// Writes back a dirty L3 victim. Inside a persist call it joins
    /// the open batch; otherwise it runs as a batch of one, opened
    /// before its counter advances, so a page re-encryption stages
    /// with its update set.
    pub(crate) fn writeback_victim(
        &mut self,
        block: BlockAddr,
        data: Block,
        now: Time,
    ) -> Result<()> {
        if self.batch.is_some() {
            return self.writeback_data(block, data, now).map(|_| ());
        }
        self.open_batch();
        match self.writeback_data(block, data, now) {
            Ok(done) => self.commit_batch(done).map(|_| ()),
            Err(e) => self.abandon_batch(e, now),
        }
    }

    /// The one error path of an open batch: commits the staged prefix,
    /// so the on-chip roots and the NVM image agree, which closes the
    /// batch, and returns `e`.
    fn abandon_batch<T>(&mut self, e: SecureMemoryError, now: Time) -> Result<T> {
        let _ = self.commit_batch(now);
        Err(e)
    }

    /// Opens a batch on the engine's reused bookkeeping.
    fn open_batch(&mut self) {
        self.batch = Some(std::mem::take(&mut self.idle_batch));
    }

    /// Staged bytes of `addr` in the open batch, if any. Metadata and
    /// data fetches must prefer these over the (stale-until-commit)
    /// NVM copy.
    pub(crate) fn batch_forward(&self, addr: BlockAddr) -> Option<Block> {
        let pos = *self.batch.as_ref()?.index.get(&addr.0)?;
        self.regs.staged()?.writes.get(pos).map(|w| w.data)
    }

    /// Stages one write of an atomic update set into the open batch,
    /// merging last-wins on address (`Internal` error when none is
    /// open: no atomic write may reach the WPQ outside one).
    pub(crate) fn batch_stage(&mut self, addr: BlockAddr, data: Block) -> Result<()> {
        let SecureMemory { batch, regs, .. } = self;
        let pending = batch.as_mut().ok_or_else(|| {
            SecureMemoryError::internal(format!("atomic write of {addr} staged with no open batch"))
        })?;
        pending.stage(regs, addr, data);
        Ok(())
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
    /// READY_BIT. This is the engine's one §3.3.5 commit: every persist
    /// call, and every write-back of an L3 victim outside one, commits
    /// here. A no-op when no batch is open or nothing was staged. The
    /// batch's bookkeeping is cleared and kept for the next batch.
    fn commit_batch(&mut self, now: Time) -> Result<Time> {
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
    fn plan_batch_prefetch(&mut self, members: &[(BlockAddr, Block)]) -> u64 {
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
