//! Batched write-path persistence.
//!
//! A [`WriteBatch`] carries a program-ordered set of persistent-region
//! block writes whose durability is requested *together*. Compared to
//! calling [`SecureMemory::persist_block`] once per block, the batched
//! path ([`SecureMemory::persist_batch`]) exploits knowing the whole
//! set up front three ways:
//!
//! 1. **Batched crypto** — the one-time pads of every member are
//!    precomputed in a single pass through the shared AES key schedule
//!    ([`triad_crypto::pad_batch`]), by simulating the counter
//!    increments the members will perform.
//! 2. **Coalesced BMT commit** — every member's atomic update set
//!    (ciphertext, counter, MAC, persisted tree nodes) merges
//!    last-wins into one pending staging buffer; ancestors shared by
//!    multiple dirty leaves are written to NVM once per batch, and the
//!    §3.3.5 register protocol (stage → READY_BIT → WPQ → commit) is
//!    charged once instead of once per member.
//! 3. **Prefetch planning** — the counter blocks, MAC blocks and
//!    coalesced tree-path nodes the batch will touch are planned
//!    through [`triad_cache::BatchPrefetcher`] before the first member
//!    executes, so their fetches can overlap (cf. trie prefetching for
//!    queued transaction blocks).
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
//! The engine keeps one set of batch bookkeeping tables for its whole
//! life: a commit clears them and the next batch (a scalar persist is
//! a batch of one) reuses them, so opening a batch allocates no map.

use std::collections::hash_map::Entry;

use triad_cache::PrefetchClass;
use triad_crypto::counter::AnyCounterBlock;
use triad_crypto::ctr::{pad_batch, Iv};
use triad_mem::store::Block;
use triad_meta::bmt::coalesce_dirty_paths;
use triad_meta::layout::RegionKind;
use triad_sim::events::emit;
use triad_sim::time::Time;
use triad_sim::{AddrMap, BlockAddr};

use crate::engine::{EngineState, EvictItem, Result, SecureMemory};
use crate::error::{CrashHookKind, SecureMemoryError};
use crate::registers::{PersistentRegisters, StagedUpdate, StagedWrite};
use crate::scheme::CounterPersistence;

/// A program-ordered set of full-block writes to persist together.
///
/// # Example
///
/// ```rust
/// use triad_core::{SecureMemoryBuilder, WriteBatch};
///
/// # fn main() -> Result<(), triad_core::SecureMemoryError> {
/// let mut mem = SecureMemoryBuilder::new().build()?;
/// let base = mem.persistent_region().start();
/// let mut batch = WriteBatch::new();
/// for i in 0..4u64 {
///     let block = triad_sim::PhysAddr(base.0 + i * 64).block();
///     batch.push(block, [i as u8; 64]);
/// }
/// mem.apply_batch(&batch)?;
/// assert!(mem.stats().batches >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteBatch {
    members: Vec<(BlockAddr, Block)>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Appends a full-block write. Later writes to the same block
    /// supersede earlier ones at commit (last-wins), but each push is
    /// still applied in order (and counts as one durability point).
    pub fn push(&mut self, block: BlockAddr, data: Block) {
        self.members.push((block, data));
    }

    /// Number of queued writes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the batch holds no writes.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The queued writes, in program order.
    pub fn members(&self) -> &[(BlockAddr, Block)] {
        &self.members
    }
}

/// Which metadata structure a staged write belongs to (drives the
/// per-class persist-write statistics at commit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteClass {
    Data,
    Counter,
    Mac,
    Node,
}

/// The open batch's bookkeeping. The merged writes themselves live in
/// the persistent registers' staged update; this records where each
/// address sits in it, each position's class, and the precomputed pads.
/// No map here is ever iterated.
#[derive(Debug, Default)]
pub(crate) struct PendingBatch {
    /// addr → position in the staged update's write list.
    index: AddrMap<u64, usize>,
    /// Class of each staged position (first-staging order).
    classes: Vec<WriteClass>,
    /// Precomputed one-time pads keyed by (data block, major, minor).
    pads: AddrMap<(u64, u64, u8), Block>,
    /// The pad precompute's simulated counter blocks, by address.
    ctr_sim: AddrMap<u64, AnyCounterBlock>,
    /// Writes a scalar walk would have performed (before merging).
    pub(crate) naive_writes: u64,
}

impl PendingBatch {
    /// Empties every table, keeping its allocation for the next batch.
    fn clear(&mut self) {
        self.index.clear();
        self.classes.clear();
        self.pads.clear();
        self.ctr_sim.clear();
        self.naive_writes = 0;
    }

    /// Stages one write into `regs`, merging last-wins on address. The
    /// class and position of the first staging are kept.
    fn stage(
        &mut self,
        regs: &mut PersistentRegisters,
        class: WriteClass,
        addr: BlockAddr,
        data: Block,
    ) {
        if self.classes.is_empty() {
            // The batch's first write replaces whatever was logged.
            regs.stage(StagedUpdate::default());
        }
        let writes = &mut regs.staged_mut().writes;
        match self.index.entry(addr.0) {
            Entry::Occupied(pos) => writes[*pos.get()].data = data,
            Entry::Vacant(slot) => {
                slot.insert(writes.len());
                writes.push(StagedWrite { addr, data });
                self.classes.push(class);
            }
        }
    }
}

impl SecureMemory {
    /// Persists every write of `batch` in order, sharing one batched
    /// AES pass, one prefetch plan and one coalesced register/WPQ
    /// commit across the members (the batched write path; see the
    /// module docs). Returns the time the whole batch is inside the
    /// persistence domain.
    ///
    /// Falls back to per-member [`SecureMemory::persist_block`] calls
    /// when an epoch is open (members defer to the boundary like any
    /// other persist) or under the Osiris counter relaxation (its skip
    /// bookkeeping is inherently per-write).
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
    pub fn persist_batch(&mut self, batch: &WriteBatch, now: Time) -> Result<Time> {
        self.check_running()?;
        for (block, _) in batch.members() {
            if self.map.data_region_of(*block) != Some(RegionKind::Persistent) {
                return Err(SecureMemoryError::NotPersistent { addr: block.base() });
            }
        }
        if self.state == EngineState::PersistentPoisoned {
            return Err(SecureMemoryError::Unverifiable {
                reason: "persistent region was not recovered".to_string(),
            });
        }
        if batch.is_empty() {
            return Ok(now);
        }
        let osiris = matches!(self.counter_persistence, CounterPersistence::Osiris { .. });
        if self.epoch.is_some() || osiris {
            let mut t = now;
            for (block, data) in batch.members() {
                t = self.persist_block(*block, *data, t)?;
            }
            return Ok(t);
        }
        self.open_batch(batch.members());
        let planned = self.plan_batch_prefetch(batch.members());
        emit(
            &self.events,
            now,
            "batch_queued",
            &[
                ("members", batch.len().into()),
                ("planned_lines", planned.into()),
            ],
        );
        self.stats.batches += 1;
        self.stats.batch_members += batch.len() as u64;
        // The prefetch plan lets every member's metadata fetches be in
        // flight together, so members issue from the batch's start time
        // rather than serialising end-to-end; the merged WPQ drain in
        // `commit_batch` then charges the serialised commit once.
        let t0 = now + self.l3.latency();
        let mut t = t0;
        for (block, data) in batch.members() {
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
            let done = match self.writeback_data(*block, *data, t0, true) {
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

    /// Applies `batch` through [`SecureMemory::persist_batch`] on the
    /// convenience (untimed) clock.
    ///
    /// # Errors
    ///
    /// Same classes as [`SecureMemory::persist_batch`].
    pub fn apply_batch(&mut self, batch: &WriteBatch) -> Result<()> {
        let t = self.persist_batch(batch, self.clock)?;
        self.clock = t;
        Ok(())
    }

    // ----- crate-internal batch plumbing ------------------------------------

    /// Opens a batch on the engine's reused bookkeeping, with the pads
    /// of `members` precomputed (none for a scalar persist).
    pub(crate) fn open_batch(&mut self, members: &[(BlockAddr, Block)]) {
        let mut pending = std::mem::take(&mut self.idle_batch);
        self.precompute_batch_pads(members, &mut pending);
        self.batch = Some(pending);
    }

    /// Staged bytes of `addr` in the open batch, if any. Metadata and
    /// data fetches must prefer these over the (stale-until-commit)
    /// NVM copy.
    pub(crate) fn batch_forward(&self, addr: BlockAddr) -> Option<Block> {
        let pos = *self.batch.as_ref()?.index.get(&addr.0)?;
        self.regs.staged()?.writes.get(pos).map(|w| w.data)
    }

    /// Precomputed pad for `(block, major, minor)` in the open batch.
    pub(crate) fn batch_pad(&self, block: BlockAddr, major: u64, minor: u8) -> Option<Block> {
        self.batch
            .as_ref()
            .and_then(|p| p.pads.get(&(block.0, major, minor)).copied())
    }

    /// Merges one member's atomic update set into the open batch's
    /// staged update and advances its logged root. `writes` is
    /// positionally classed exactly as the scalar protocol builds it:
    /// data, then (optionally) the counter, then the MAC, then nodes.
    pub(crate) fn stage_into_batch(
        &mut self,
        kind: RegionKind,
        writes: &[StagedWrite],
        persist_counter: bool,
        new_root: triad_meta::NodeBuf,
    ) {
        let SecureMemory { batch, regs, .. } = self;
        let Some(pending) = batch else { return };
        pending.naive_writes += writes.len() as u64;
        for (i, w) in writes.iter().enumerate() {
            let class = match (i, persist_counter) {
                (0, _) => WriteClass::Data,
                (1, true) => WriteClass::Counter,
                (1, false) | (2, true) => WriteClass::Mac,
                _ => WriteClass::Node,
            };
            pending.stage(regs, class, w.addr, w.data);
        }
        if kind == RegionKind::Persistent {
            regs.staged_mut().new_persistent_root = Some(new_root);
        }
    }

    /// Stages a single write into the open batch (re-encryption path).
    pub(crate) fn batch_stage_raw(&mut self, class: WriteClass, addr: BlockAddr, data: Block) {
        let SecureMemory { batch, regs, .. } = self;
        if let Some(pending) = batch {
            pending.naive_writes += 1;
            pending.stage(regs, class, addr, data);
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
    /// WPQ-crash hook), counts per-class persist writes, and clears the
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
        let staged = pending.classes.len();
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
        for (pos, class) in pending.classes.iter().enumerate() {
            let Some(w) = self.regs.staged().and_then(|u| u.writes.get(pos)).copied() else {
                break;
            };
            let at = || ("block", w.addr.0.into());
            if self.crash_hook_fires(CrashHookKind::WpqWrite, t, at) {
                return Err(SecureMemoryError::NeedsRecovery);
            }
            t = self.mc.write(w.addr, w.data, t);
            match class {
                WriteClass::Data => {}
                WriteClass::Counter => self.stats.counter_writes_persist += 1,
                WriteClass::Mac => self.stats.mac_writes_persist += 1,
                WriteClass::Node => self.stats.node_writes_persist += 1,
            }
        }
        self.stats.atomic_persists += 1;
        self.stats.batch_writes_merged += merged;
        self.regs.commit();
        Ok(t)
    }

    /// Simulates the counter increments the batch members will perform
    /// and precomputes their one-time pads in one batched AES pass,
    /// into `pending`'s pad map.
    ///
    /// The simulation peeks counters exactly where the write path will
    /// find them (counter cache, pending eviction, NVM image) *without*
    /// touching any engine state; a misprediction merely misses the pad
    /// map and the member falls back to the scalar AES path.
    fn precompute_batch_pads(&self, members: &[(BlockAddr, Block)], pending: &mut PendingBatch) {
        let split = self.split_counters();
        let PendingBatch { pads, ctr_sim, .. } = pending;
        let mut keys: Vec<(u64, u64, u8)> = Vec::new();
        let mut ivs: Vec<Iv> = Vec::new();
        for (block, _) in members {
            let Some(kind) = self.map.data_region_of(*block) else {
                continue;
            };
            if kind != RegionKind::Persistent {
                continue;
            }
            let layout = self.layout(kind);
            let data_index = layout.data_index(*block);
            let coverage = layout.counter_coverage;
            let leaf = data_index / coverage;
            let slot = (data_index % coverage) as usize;
            let addr = layout.counter_start + leaf;
            let cb = ctr_sim.entry(addr.0).or_insert_with(|| {
                if let Some(cb) = self.ctr_cache.get(addr) {
                    *cb
                } else if let Some(EvictItem::Counter { value, .. }) = self
                    .evict_queue
                    .iter()
                    .find(|e| matches!(e, EvictItem::Counter { addr: a, .. } if *a == addr))
                {
                    *value
                } else {
                    AnyCounterBlock::from_bytes(split, &self.mc.store().read(addr))
                }
            });
            // Overflow resets mirror the real increment, so the
            // simulation stays in lock-step across re-encryptions.
            let _ = cb.increment(slot);
            let pair = cb.pair(slot);
            keys.push((block.0, pair.major, pair.minor));
            ivs.push(self.data_iv(kind, *block, pair.major, pair.minor));
        }
        let batch_pads = pad_batch(self.aes_for(RegionKind::Persistent), &ivs);
        pads.extend(keys.into_iter().zip(batch_pads));
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
