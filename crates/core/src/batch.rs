//! The engine's one durability loop.
//!
//! Every persist call runs the member loop of this module over the
//! blocks whose durability it requests *together*:
//! [`SecureMemory::persist_batch`] over a program-ordered slice of
//! persistent-region block writes, [`SecureMemory::persist_block`] as
//! a batch of one, and [`SecureMemory::flush_block`] and
//! [`SecureMemory::flush_batch`] over blocks already stored on chip.
//! Knowing the whole set when the call starts pays two ways:
//!
//! 1. **Merged commit** — every member's atomic update set
//!    (ciphertext, counter, MAC, persisted tree nodes) stages into one
//!    pending update through `PendingBatch::stage`'s last-wins address
//!    index, so a block that several members write (a counter block, a
//!    MAC block, or a tree node on the paths of several dirty leaves)
//!    persists once per batch, and the §3.3.5 register protocol (stage
//!    → READY_BIT → WPQ → commit) is charged once instead of once per
//!    member.
//! 2. **Overlapped issue** — every member issues from the call's start,
//!    so the members' metadata fetches overlap instead of serialising
//!    one member at a time.
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
//! ## Tree hashes, once per node
//!
//! Each member's tree walk (`update_path`) fetches, touches and stages
//! its path exactly as a walk that hashed each level as it went (an
//! *eager* walk) would, but it does not hash the nodes it touches: it
//! records which parent slot (or root slot) each node owes its hash to.
//! `SecureMemory::settle_path_hashes` then hashes each owed node once,
//! bottom-up, so ancestors the members share are hashed once per batch
//! instead of once per member (the shared-ancestor updates Freij et al.
//! coalesce). The settle runs wherever an owed hash would become
//! observable: at the commit (which covers `abandon_batch`), when an
//! injected crash fires, and before a Merkle-tree-cache fill displaces
//! a node that is owed or whose parent a walk is fetching. Every cache
//! line, staged write and register then holds what the eager walk left,
//! so no simulated number and no NVM byte depends on when the hashes
//! run.
//!
//! The engine keeps one set of batch bookkeeping tables for its whole
//! life: a commit clears them and the next batch reuses them, so
//! opening a batch allocates no map, and the registers' write list and
//! the owed-hash lists keep their capacity from batch to batch.

use std::collections::hash_map::Entry;

use triad_crypto::mac::Mac64;
use triad_mem::store::Block;
use triad_meta::bmt::{self, NodeBuf, NodeId};
use triad_meta::layout::{BlockRole, RegionKind};
use triad_sim::events::emit;
use triad_sim::time::Time;
use triad_sim::{AddrMap, AddrSet, BlockAddr, BLOCK_BYTES};

use crate::engine::{MtLine, Result, SecureMemory};
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
    /// The last committed write list, emptied: the next batch logs into
    /// it, so the list keeps its capacity.
    spare: Vec<StagedWrite>,
    /// Tree-node hashes the batch's walks owe their parents.
    pub(crate) hashes: PathHashes,
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
            regs.stage(StagedUpdate {
                writes: std::mem::take(&mut self.spare),
                new_persistent_root: None,
            });
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

/// A BMT node a tree walk touched.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PathNode {
    pub(crate) kind: RegionKind,
    pub(crate) level: u8,
    pub(crate) index: u64,
    pub(crate) addr: BlockAddr,
}

/// The tree-node hashes the open batch's walks owe (see the module
/// docs). Between settles every owed node stays resident in the
/// Merkle-tree cache, and so does the node whose parent a walk is
/// fetching.
#[derive(Debug, Default)]
pub(crate) struct PathHashes {
    /// `owed[level - 1]`: the nodes at `level` whose parent slot (or
    /// root slot) lacks their hash, in the order they were first owed.
    owed: Vec<Vec<PathNode>>,
    /// Addresses of every owed node.
    owed_addrs: AddrSet<u64>,
    /// The node whose parent the current walk is fetching.
    in_flight: Option<PathNode>,
    /// The in-flight node's hash, when a settle ran during that fetch:
    /// the walk writes it into the parent itself.
    carried: Option<Mac64>,
    /// Whether a walk moved the persistent root since the last settle,
    /// which then logs it in the registers.
    log_root: bool,
}

impl PathHashes {
    /// Records that `node`'s hash is owed to its parent slot.
    pub(crate) fn owe(&mut self, node: PathNode) {
        if !self.owed_addrs.insert(node.addr.0) {
            return;
        }
        let level = usize::from(node.level);
        if self.owed.len() < level {
            self.owed.resize_with(level, Vec::new);
        }
        self.owed[level - 1].push(node);
    }

    /// Whether some node must not leave the Merkle-tree cache unsettled.
    pub(crate) fn watches_any(&self) -> bool {
        !self.owed_addrs.is_empty() || self.in_flight.is_some()
    }

    /// Whether `addr` must not leave the Merkle-tree cache unsettled.
    pub(crate) fn watches(&self, addr: BlockAddr) -> bool {
        self.owed_addrs.contains(&addr.0) || self.in_flight.is_some_and(|n| n.addr == addr)
    }

    /// Whether a settle would change nothing.
    pub(crate) fn is_settled(&self) -> bool {
        self.owed_addrs.is_empty() && self.in_flight.is_none() && !self.log_root
    }

    /// Marks `node` as the one whose parent the walk now fetches.
    pub(crate) fn fetching_parent_of(&mut self, node: Option<PathNode>) {
        self.in_flight = node;
    }

    /// Ends the fetch [`PathHashes::fetching_parent_of`] began,
    /// returning that node's hash if a settle ran meanwhile.
    pub(crate) fn parent_fetched(&mut self) -> Option<Mac64> {
        self.in_flight = None;
        self.carried.take()
    }

    /// Notes that a walk moved the persistent root.
    pub(crate) fn log_root(&mut self) {
        self.log_root = true;
    }

    /// Forgets every owed hash, keeping the lists' capacity.
    fn clear(&mut self) {
        for nodes in &mut self.owed {
            nodes.clear();
        }
        self.owed_addrs.clear();
        self.log_root = false;
    }
}

impl SecureMemory {
    /// Persists every write of `members` in order (a repeated block
    /// commits last-wins): the members issue together and share one
    /// merged register/WPQ commit (see the module docs). Returns the
    /// time the whole batch is inside the persistence domain.
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
    /// [`SecureMemory::load_block`]. A member whose write-back fails
    /// verification stages nothing, so the call commits exactly the
    /// members before it; a crash inside that commit (an armed
    /// [`CrashHookKind::WpqWrite`] hook) returns
    /// [`SecureMemoryError::NeedsRecovery`] instead of the member's
    /// error. A dirty L3 victim whose write-back fails stays queued,
    /// and every later drain retries it first (see
    /// [`SecureMemory::load_block`]).
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
    /// together from the call's start and commit as one batch. Each
    /// counts one [`SecureStats::persists`] and consumes one durability
    /// point of the persist-boundary crash hook
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
    /// [`SecureMemory::persist_batch`]. The flush first drains any
    /// write-backs a failed call left queued, and returns their error
    /// if one fails again.
    pub fn flush_batch(&mut self, blocks: &[BlockAddr], now: Time) -> Result<Time> {
        self.check_persist_targets(blocks.iter().copied())?;
        self.drain_pending(now)?;
        let mut seen = AddrSet::default();
        let members: Vec<_> = blocks
            .iter()
            .filter(|block| seen.insert(block.0))
            .filter_map(|&block| self.dirty_member(block))
            .collect();
        self.persist_members(&members, false, now)
    }

    // ----- crate-internal batch plumbing ------------------------------------

    /// Drains whatever write-backs a failed call left queued, so a flush
    /// finds every dirty block in the L3; a no-op on the empty queue
    /// every call that succeeded leaves.
    pub(crate) fn drain_pending(&mut self, now: Time) -> Result<()> {
        if self.evict_queue.is_empty() {
            return Ok(());
        }
        self.drain_evictions(now)
    }

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
        emit(
            &self.events,
            now,
            "batch_queued",
            &[("members", members.len().into())],
        );
        self.stats.batches += 1;
        self.stats.batch_members += members.len() as u64;
        // The whole member set is known when the call starts, so every
        // member's metadata fetches can be in flight together: members
        // issue from the call's start time rather than serialising
        // end-to-end, and the merged WPQ drain in `commit_batch` then
        // charges the serialised commit once.
        let t0 = now + self.l3.latency();
        let mut t = t0;
        for &(block, data) in members {
            if store {
                self.stats.stores += 1;
                self.reclaim(block);
                self.l3_fill(block, true, data);
            }
            self.stats.persists += 1;
            if self.persist_boundary_crash(now)? {
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
    /// batch, and returns `e`. A crash inside that commit returns the
    /// commit's `NeedsRecovery` instead.
    fn abandon_batch<T>(&mut self, e: SecureMemoryError, now: Time) -> Result<T> {
        self.commit_batch(now)?;
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
        self.settle_path_hashes()?;
        let Some(mut pending) = self.batch.take() else {
            return Ok(now);
        };
        let done = self.commit_pending(&mut pending, now);
        pending.clear();
        self.idle_batch = pending;
        done
    }

    fn commit_pending(&mut self, pending: &mut PendingBatch, now: Time) -> Result<Time> {
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
            if self.crash_hook_fires(CrashHookKind::WpqWrite, t, at)? {
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
        // Clearing READY_BIT hands the write list back for the next batch.
        if let Some(mut update) = self.regs.take_staged() {
            update.writes.clear();
            pending.spare = update.writes;
        }
        Ok(t)
    }

    /// Hashes every tree node the open batch's walks owe, once each,
    /// bottom-up (see the module docs). Each hash goes into its
    /// parent's cache line through the non-touching `Cache::get` and
    /// `Cache::set`, so recency, dirty bits and cache statistics do not
    /// move, or into the root. An owed node's staged bytes are refreshed
    /// in place, and a moved persistent root is logged in the
    /// registers. A no-op when nothing is owed or no batch is open.
    pub(crate) fn settle_path_hashes(&mut self) -> Result<()> {
        let Some(pending) = self.batch.as_mut() else {
            return Ok(());
        };
        if pending.hashes.is_settled() {
            return Ok(());
        }
        let mut hashes = std::mem::take(&mut pending.hashes);
        let settled = self.settle(&mut hashes);
        hashes.clear();
        if let Some(pending) = self.batch.as_mut() {
            pending.hashes = hashes;
        }
        settled
    }

    fn settle(&mut self, hashes: &mut PathHashes) -> Result<()> {
        let staged_levels = self.scheme.persisted_bmt_levels();
        for nodes in &hashes.owed {
            for &node in nodes {
                let buf = self.resident_node(node.addr)?;
                if node.level <= staged_levels {
                    self.batch_refresh(node.addr, buf.0);
                }
                let hash = self.path_node_hash(node, &buf);
                self.feed_parent(node, hash)?;
            }
        }
        if let Some(node) = hashes.in_flight.take() {
            let buf = self.resident_node(node.addr)?;
            hashes.carried = Some(self.path_node_hash(node, &buf));
        }
        // A walk in progress has not staged its path yet: its copies
        // take the settled values.
        for i in 0..self.path_writes.len() {
            let addr = self.path_writes[i].addr;
            if let Some(MtLine::Node(buf)) = self.mt_cache.get(addr) {
                self.path_writes[i].data = buf.0;
            }
        }
        if hashes.log_root {
            self.regs.staged_mut().new_persistent_root = Some(self.regs.persistent_root);
        }
        Ok(())
    }

    /// The value of BMT node `addr`, which a settle reads or writes on
    /// chip.
    fn resident_node(&self, addr: BlockAddr) -> Result<NodeBuf> {
        match self.mt_cache.get(addr) {
            Some(MtLine::Node(buf)) => Ok(*buf),
            _ => Err(SecureMemoryError::internal(format!(
                "BMT node {addr} left the Merkle-tree cache with a hash owed"
            ))),
        }
    }

    /// Hashes a node for its parent slot (counted in
    /// [`SecureStats::node_hashes`](crate::SecureStats::node_hashes)).
    fn path_node_hash(&mut self, node: PathNode, buf: &NodeBuf) -> Mac64 {
        self.stats.node_hashes += 1;
        let id = NodeId {
            region: node.kind,
            level: node.level,
            index: node.index,
        };
        bmt::node_hash(&self.mac_engine, id, &buf.0)
    }

    /// Writes `hash` into `node`'s slot of its parent: the root, or a
    /// resident node's line, untouched.
    fn feed_parent(&mut self, node: PathNode, hash: Mac64) -> Result<()> {
        let layout = self.layout(node.kind);
        let geom = &layout.geometry;
        let (p_level, p_index) = geom.parent(node.level, node.index);
        let slot = geom.child_slot(node.index);
        if p_level == geom.root_level() {
            let mut root = self.root(node.kind);
            root.set_slot(slot, hash);
            self.set_root(node.kind, root);
            return Ok(());
        }
        let parent = self.node_addr(node.kind, p_level, p_index)?;
        let mut buf = self.resident_node(parent)?;
        buf.set_slot(slot, hash);
        self.mt_cache.set(parent, MtLine::Node(buf));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use triad_sim::config::{CacheConfig, SystemConfig};

    use super::*;
    use crate::engine::EvictItem;
    use crate::{IntegrityKind, PersistScheme, SecureMemoryBuilder, SecureMemoryError};

    /// A walk's node can leave the Merkle-tree cache while the walk
    /// fetches its parent: the fetch settles the batch first, and the
    /// walk writes the node's hash into the parent itself. A
    /// direct-mapped cache in which a level-1 node and its parent share
    /// a set forces that on the first persist, and the resulting root
    /// is the one a cache that holds both computes.
    #[test]
    fn a_node_displaced_by_its_parents_fetch_still_feeds_the_parent() {
        let probe = SecureMemoryBuilder::new().build().unwrap();
        let layout = probe.memory_map().persistent();
        let (node, parent) = (
            layout.bmt_node_addr(1, 0).unwrap(),
            layout.bmt_node_addr(2, 0).unwrap(),
        );
        let sets = usize::try_from(parent.0 - node.0).unwrap();
        let mut config = SystemConfig::tiny();
        config.security.mt_cache = CacheConfig::new(64 * sets, 1, 3);
        let block = layout.data_start;
        let mut roots = Vec::new();
        for config in [SystemConfig::tiny(), config] {
            let mut m = SecureMemoryBuilder::new()
                .config(config)
                .scheme(PersistScheme::triad_nvm(2))
                .build()
                .unwrap();
            m.persist_block(block, [9; 64], Time::ZERO).unwrap();
            roots.push(m.root(RegionKind::Persistent));
            m.crash();
            assert!(m.recover().unwrap().persistent_recovered);
            assert_eq!(m.read(block.base()).unwrap(), [9; 64]);
        }
        assert_eq!(roots[0], roots[1]);
    }

    /// One step of a failed-write-back history; a byte `v` stands for
    /// the block `[v; 64]`.
    #[derive(Clone, Copy)]
    enum Step {
        Persist(BlockAddr, u8),
        Store(BlockAddr, u8),
        Flush(BlockAddr),
        /// A read that must return the value.
        Read(BlockAddr, u8),
        /// A crash, then a recovery that must verify.
        Crash,
        /// Drops the level-`.0` tree node above the block from the
        /// Merkle-tree cache and flips a bit of its NVM copy. Each of
        /// the next `.2` steps must fail on that node and change
        /// nothing on chip; the bit then flips back.
        Tamper(u8, BlockAddr, usize),
        /// A store whose first WPQ write crashes, then a recovery that
        /// must verify.
        CrashingStore(BlockAddr, u8),
        /// Writes every dirty counter and Merkle-tree-cache line back
        /// the way an eviction does, until no line is dirty.
        PushOut,
    }

    fn run(m: &mut SecureMemory, step: Step) -> Result<()> {
        match step {
            Step::Persist(block, v) => m.persist_block(block, [v; 64], Time::ZERO).map(drop),
            Step::Store(block, v) => m.store_block(block, [v; 64], Time::ZERO).map(drop),
            Step::Flush(block) => m.flush_block(block, Time::ZERO).map(drop),
            Step::Read(block, v) => {
                assert_eq!(m.read(block.base())?, [v; 64], "read of {block}");
                Ok(())
            }
            Step::Crash => {
                m.crash();
                assert!(m.recover()?.persistent_recovered);
                Ok(())
            }
            Step::CrashingStore(block, v) => {
                m.arm_crash(CrashHookKind::WpqWrite, 0)?;
                let crashed = m.store_block(block, [v; 64], Time::ZERO);
                assert_eq!(crashed, Err(SecureMemoryError::NeedsRecovery));
                assert!(m.recover()?.persistent_recovered);
                Ok(())
            }
            Step::Tamper(..) => unreachable!("the test loop tampers"),
            Step::PushOut => loop {
                let (counters, lines) = (m.ctr_cache.dirty_blocks(), m.mt_cache.dirty_blocks());
                if counters.is_empty() && lines.is_empty() {
                    return Ok(());
                }
                let dirty = true;
                for addr in counters {
                    let value = *m.ctr_cache.get(addr).unwrap();
                    m.ctr_cache.invalidate(addr);
                    m.evict_queue
                        .push(EvictItem::Counter { addr, value, dirty });
                }
                for addr in lines {
                    let line = *m.mt_cache.get(addr).unwrap();
                    m.mt_cache.invalidate(addr);
                    m.evict_queue.push(match line {
                        MtLine::Node(value) => EvictItem::Node { addr, value, dirty },
                        MtLine::Mac(value) => EvictItem::Mac { addr, value, dirty },
                    });
                }
                m.drain_evictions(Time::ZERO)?;
            },
        }
    }

    /// A resident counter or Merkle-tree-cache line's value and dirty
    /// bit.
    fn line(m: &SecureMemory, addr: BlockAddr) -> Option<(Block, bool)> {
        let value = match m.mt_cache.get(addr) {
            Some(line) => line.buf().0,
            None => m.ctr_cache.get(addr)?.to_bytes(),
        };
        let dirty = m.ctr_cache.probe_dirty(addr) || m.mt_cache.probe_dirty(addr);
        Some((value, dirty))
    }

    /// A write-back whose tree path fails verification changes nothing
    /// on chip: the error names the tampered node; the counter line,
    /// the MAC line and the path's resident nodes keep their value and
    /// dirty bit; no page re-encrypts. A failed L3 victim stays queued
    /// and fails every later drain while the tamper stays, and a crash
    /// in its own commit drops it with the rest of the chip. With the
    /// tamper undone and the dirty lines pushed out, a crash recovers
    /// every committed value.
    #[test]
    fn a_write_back_that_fails_verification_changes_nothing() {
        let probe = SecureMemoryBuilder::new().build().unwrap();
        let map = probe.memory_map();
        let (layout, np) = (map.persistent(), map.non_persistent());
        let page = |p: u64| layout.data_start + p * layout.counter_coverage;
        let (b0, b16, b32) = (page(0), page(0) + 16, page(3) + 32);
        let wide = CacheConfig::new(64 << 10, 8, 3);
        // 32 direct-mapped sets: `b32`'s MAC block shares the level-2
        // node's set, and `b16`'s MAC block avoids the level-1 node's.
        let direct = CacheConfig::new(32 * 64, 1, 3);
        let tiny = SystemConfig::tiny();
        let (triad1, triad2) = (PersistScheme::triad_nvm(1), PersistScheme::triad_nvm(2));
        // Non-persistent blocks in `b0`'s 8-way L3 set: the eighth store
        // into a full set evicts its oldest block.
        let l3_sets = tiny.l3.sets() as u64;
        let set: Vec<_> = (0..np.data_blocks)
            .map(|i| np.data_start + i)
            .filter(|b| b.0 % l3_sets == b0.0 % l3_sets)
            .take(9)
            .collect();
        let stores = |blocks: &[BlockAddr]| blocks.iter().map(|&b| Store(b, 9)).collect::<Vec<_>>();
        use Step::*;
        // Each case then pushes the dirty lines out, crashes, and reads
        // back every committed value.
        let cases = [
            (
                "(a) level 1",
                triad2,
                wide,
                vec![Persist(b0, 1), Tamper(1, b0, 1), Persist(b0, 2)],
                vec![(b0, 1)],
            ),
            (
                "(b) a MAC block in the level-2 node's set",
                triad2,
                direct,
                vec![
                    Persist(b32, 1),
                    Crash,
                    Read(b32, 1),
                    Tamper(1, b32, 1),
                    Persist(b32, 2),
                ],
                vec![(b32, 1)],
            ),
            // The read of `b16` makes its level-1 node resident, and
            // the read of `b32` evicts the level-2 node `page(8)`'s
            // walk dirtied.
            (
                "(c) level 2 above a resident level-1 node",
                triad1,
                direct,
                vec![
                    Persist(b16, 1),
                    Crash,
                    Read(b16, 1),
                    Tamper(2, b16, 1),
                    Persist(b16, 2),
                    Persist(page(8), 3),
                    Read(b32, 0),
                ],
                vec![(b16, 1), (page(8), 3)],
            ),
            (
                "(d) a minor-counter overflow",
                triad2,
                wide,
                [
                    vec![Persist(b0 + 1, 7)],
                    (1..=127).map(|v| Persist(b0, v)).collect(),
                    vec![Tamper(1, b0, 1), Persist(b0, 128)],
                ]
                .concat(),
                vec![(b0, 127), (b0 + 1, 7)],
            ),
            // The store into `set[7]` evicts `b0`, and the load of
            // `set[6]` hits in the L3 but drains the queue first.
            (
                "(e) a dirty L3 victim",
                triad2,
                tiny.security.mt_cache,
                [
                    vec![Persist(b0, 1), Crash, Store(b0, 2)],
                    stores(&set[..7]),
                    vec![Tamper(1, b0, 2), Store(set[7], 9), Read(set[6], 9)],
                    vec![Flush(b0), Read(b0, 2)],
                ]
                .concat(),
                vec![(b0, 2)],
            ),
            // Strict commits a non-persistent victim atomically; after
            // the crash its block reads as fresh.
            (
                "(f) a crash in an L3 victim's own commit",
                PersistScheme::Strict,
                tiny.security.mt_cache,
                [
                    vec![Store(set[0], 5)],
                    stores(&set[1..8]),
                    vec![CrashingStore(set[8], 9), Read(set[0], 0)],
                ]
                .concat(),
                vec![],
            ),
        ];
        for (name, scheme, mt_cache, steps, committed) in cases {
            let mut config = tiny;
            config.security.mt_cache = mt_cache;
            let mut m = SecureMemoryBuilder::new()
                .config(config)
                .scheme(scheme)
                .build()
                .unwrap();
            let tail = [PushOut, Crash].into_iter();
            let reads = committed.into_iter().map(|(block, v)| Read(block, v));
            let mut steps = steps.into_iter().chain(tail).chain(reads);
            while let Some(step) = steps.next() {
                let Tamper(level, block, n) = step else {
                    run(&mut m, step).unwrap_or_else(|e| panic!("{name}: {e}"));
                    continue;
                };
                let leaf = layout.leaf_index(layout.counter_block_of(block));
                let geom = &layout.geometry;
                let path = |l: u8| layout.bmt_node_addr(l, leaf / geom.arity().pow(l.into()));
                let node = path(level).unwrap();
                m.mt_cache.invalidate(node);
                let mut mask = [0u8; 64];
                mask[63] = 1;
                m.nvm_image_mut().tamper(node, mask);
                let lines: Vec<_> = (1..geom.root_level())
                    .map(|l| path(l).unwrap())
                    .chain([layout.counter_block_of(block), layout.mac_block_of(block)])
                    .filter_map(|addr| line(&m, addr).map(|state| (addr, state)))
                    .collect();
                let reencryptions = m.stats().page_reencryptions;
                let named = SecureMemoryError::IntegrityViolation {
                    kind: IntegrityKind::BmtNode,
                    block: node,
                };
                for step in steps.by_ref().take(n) {
                    assert_eq!(run(&mut m, step), Err(named.clone()), "{name}");
                    for &(addr, state) in &lines {
                        assert_eq!(line(&m, addr), Some(state), "{name}: line {addr}");
                    }
                }
                assert_eq!(m.stats().page_reencryptions, reencryptions, "{name}");
                m.nvm_image_mut().tamper(node, mask);
            }
        }
    }
}
