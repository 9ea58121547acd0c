//! The sharded KV serving front-end: [`KvService`], the one sharded
//! composition of `triad-kv` stores — the serving shape the paper's
//! throughput argument needs:
//!
//! * **Routing** — every key is hashed (keyed SipHash-2-4) onto one of
//!   N *independent* shards, each owning its own [`SecureMemory`],
//!   persistent heap, WAL and [`KvStore`]. Nothing is shared between
//!   shards, so a submit batch runs the shards genuinely in parallel
//!   on worker threads ([`std::thread::scope`]).
//! * **Group commit** — each shard accumulates routed mutations and
//!   flushes them through [`KvStore::apply_group`]: one redo
//!   transaction, one commit-marker persist, amortized across the
//!   whole group. The `group_window` knob bounds group size; window 1
//!   degenerates to the unbatched one-marker-per-mutation path.
//! * **Admission control** — each flush observes the shard's
//!   `wpq_full_events` delta. Under [`AdmissionPolicy::Shed`] a
//!   saturated flush starts a cooldown during which incoming
//!   mutations are rejected ([`Response::Shed`]); under
//!   [`AdmissionPolicy::Delay`] the shard instead grows its group
//!   window (fewer, larger flushes) until the pressure clears.
//! * **Determinism** — the response vector, merged stats and merged
//!   state of a submit are identical whether the lanes run threaded
//!   or serial: requests are partitioned per shard in submit order,
//!   each lane is a pure function of its own slice, and every merge
//!   walks lanes in shard-index order over ordered containers (the
//!   `shard-safety/nondeterministic-merge` contract).
//!
//! # Durability tiers
//!
//! Every tenant is served under a [`DurabilityMode`]
//! (`docs/durability-contract.md` freezes the guarantees as numbered
//! invariants D1–D8):
//!
//! * **Strict** (the default, and the only behavior that existed
//!   before tiers): when [`KvService::submit`] returns `Ok`, every
//!   admitted mutation of the batch is durable (each lane drains its
//!   pending group before returning). A crash mid-submit loses at
//!   most the interrupted group on the crashed shard — recovery lands
//!   on a group boundary, which the [`crate::sweep`] driver checks at
//!   every persist boundary (`tests/property_crash.rs`).
//! * **Buffered { flush_interval, max_loss }**: mutations are
//!   acknowledged from a DRAM buffer that survives across submits and
//!   group-commits when it reaches `max_loss` mutations or when
//!   `flush_interval` of simulated time has passed since the buffer's
//!   oldest mutation (checked at run boundaries — the group-fsync
//!   analogue). A crash loses at most `max_loss` acknowledged
//!   mutations.
//! * **InMemory**: mutations live in a volatile per-shard overlay and
//!   only reach NVM at an explicit [`KvService::barrier`]; a crash
//!   rolls the tenant back to its last completed barrier.
//!
//! Reads see the youngest staged value by *tier precedence* (volatile
//! over strict-pending over buffered over NVM). When tenants of
//! different tiers mutate the *same* key, inter-tier ordering follows
//! that precedence rather than admit order — the contract's
//! invariants are stated per tier over its own keys.
//!
//! After a crash, [`KvService::recover_shard`] reports the weakest
//! tier that acknowledged mutations since the last recovery and the
//! measured loss (acknowledged mutations the recovered state does not
//! reflect) as a [`triad_core::DurabilityRecovery`], so the bounded-
//! loss invariant is asserted against a reported number.

use std::collections::BTreeMap;

use triad_core::{
    CounterPersistence, DurabilityRecovery, PersistScheme, RecoveryReport, SecureMemory,
    SecureMemoryBuilder, SecureMemoryError,
};
use triad_crypto::SipHash24;
use triad_kv::heap::PersistentHeap;
use triad_kv::{KvConfig, KvError, KvStats, KvStore};
use triad_sim::config::SystemConfig;
use triad_sim::time::Duration;
use triad_sim::Time;

use crate::kv::{generate, KvMix, KvSpec};

pub use triad_kv::DurabilityMode;

/// The most shards a service runs. Far above any simulated geometry;
/// the bound turns an absurd shard count into a typed error instead
/// of an allocation storm.
pub const MAX_SHARDS: u64 = 64;

/// Per-shard reaction to WPQ saturation observed at flush time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit everything; no backpressure.
    Open,
    /// After a flush that saturated the WPQ, reject the next
    /// `cooldown` mutations routed to this shard.
    Shed {
        /// Mutations rejected per saturation episode.
        cooldown: u64,
    },
    /// After a saturated flush, double the shard's group window (up to
    /// `max_window`) so persists amortize harder; halve it back toward
    /// the configured window once flushes run clean.
    Delay {
        /// The largest window the shard may grow to.
        max_window: usize,
    },
}

/// Everything that determines a service fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSpec {
    /// Independent shards (1..=[`MAX_SHARDS`]).
    pub shards: u64,
    /// Mutations a shard accumulates before flushing a group
    /// (min 1; 1 = unbatched, one commit marker per mutation).
    pub group_window: usize,
    /// Backpressure policy.
    pub admission: AdmissionPolicy,
    /// Persistence scheme of every shard engine.
    pub scheme: PersistScheme,
    /// Counter-persistence policy of every shard engine.
    pub counters: CounterPersistence,
    /// Buckets per shard store.
    pub buckets: u64,
    /// WAL blocks per shard store.
    pub log_blocks: u64,
    /// Base key seed; shard i derives its own stream from it.
    pub key_seed: u64,
    /// Engine geometry override (`None` = builder default).
    pub config: Option<SystemConfig>,
    /// The durability tier tenants get unless overridden per tenant
    /// via [`KvService::set_tenant_mode`]. Defaults to
    /// [`DurabilityMode::Strict`] — exactly the pre-tier behavior.
    pub durability: DurabilityMode,
}

impl ServiceSpec {
    /// A serving-shaped default: TriadNVM-2, strict counters, window 8,
    /// strict durability.
    pub fn new(shards: u64) -> Self {
        ServiceSpec {
            shards,
            group_window: 8,
            admission: AdmissionPolicy::Open,
            scheme: PersistScheme::triad_nvm(2),
            counters: CounterPersistence::Strict,
            buckets: 64,
            log_blocks: 64,
            key_seed: 1,
            config: None,
            durability: DurabilityMode::Strict,
        }
    }
}

/// One client request against the service's single keyspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Insert or replace `key`.
    Put {
        /// The key.
        key: u64,
        /// The value bytes.
        value: Vec<u8>,
    },
    /// Point lookup.
    Get {
        /// The key.
        key: u64,
    },
    /// Point delete.
    Delete {
        /// The key.
        key: u64,
    },
    /// Full sorted scan across every shard (forces a fleet-wide
    /// flush so the scan sees every earlier mutation of the batch).
    Scan,
}

/// What one request returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A put or delete was admitted (durable once submit returns).
    Done,
    /// Admission control rejected the mutation under WPQ pressure.
    Shed,
    /// A get's value (or absence).
    Value(Option<Vec<u8>>),
    /// A scan's merged, key-sorted pairs.
    Scanned(Vec<(u64, Vec<u8>)>),
}

/// Group-commit and admission counters of one shard (or, merged, of
/// the whole service).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Groups flushed.
    pub flushes: u64,
    /// Mutations those groups carried.
    pub ops: u64,
    /// Redo records appended (coalesced per distinct block).
    pub log_records: u64,
    /// Commit markers persisted — the amortization numerator.
    pub commit_markers: u64,
    /// Mutations rejected by admission control.
    pub shed: u64,
}

impl GroupStats {
    /// Merges another shard's counters (field-wise sum; deterministic
    /// regardless of shard visit order).
    pub fn merge(&mut self, other: &GroupStats) {
        self.flushes += other.flushes;
        self.ops += other.ops;
        self.log_records += other.log_records;
        self.commit_markers += other.commit_markers;
        self.shed += other.shed;
    }
}

/// A request routed onto one lane, tagged with its submit index so
/// responses merge back deterministically.
#[derive(Debug, Clone)]
enum LaneOp {
    /// A put (`Some`) or delete (`None`).
    Mutate {
        idx: usize,
        key: u64,
        value: Option<Vec<u8>>,
    },
    Get {
        idx: usize,
        key: u64,
    },
    /// This lane's slice of a fleet-wide scan.
    Scan {
        idx: usize,
    },
}

/// What one lane op produced.
#[derive(Debug, Clone)]
enum LaneOutcome {
    Done,
    Shed,
    Got(Option<Vec<u8>>),
    /// This lane's sorted pairs; the service merges across lanes.
    Scanned(Vec<(u64, Vec<u8>)>),
}

/// One shard: a whole private engine + store, plus the group-commit
/// staging state. `Send`, so submit can move it onto a worker thread.
#[derive(Debug)]
struct ShardLane {
    mem: SecureMemory,
    store: KvStore,
    /// Strict-tier mutations staged since the last flush, in admit
    /// order. Always drained before a run returns (invariant D1).
    pending: Vec<(u64, Option<Vec<u8>>)>,
    /// Buffered-tier mutations, in admit order. Survives across
    /// submits — this backlog *is* the bounded loss window.
    buffered: Vec<(u64, Option<Vec<u8>>)>,
    /// When the non-empty `buffered` backlog must flush at the next
    /// run boundary even if short of `max_loss` (the group-fsync
    /// analogue; `None` while the buffer is empty).
    buffered_deadline: Option<Time>,
    /// InMemory-tier overlay: youngest mutation per key, never logged
    /// or persisted until a [`KvService::barrier`] promotes it.
    volatile: BTreeMap<u64, Option<Vec<u8>>>,
    /// Current flush threshold (Delay adapts it).
    window: usize,
    /// The configured threshold Delay decays back to.
    base_window: usize,
    /// Consecutive clean (zero wpq_full_events delta) flushes — the
    /// Delay hysteresis counter; the window only decays after
    /// [`DELAY_DECAY_STREAK`] clean flushes in a row.
    clean_streak: u64,
    /// Mutations still to reject in the current Shed cooldown.
    shed_remaining: u64,
    policy: AdmissionPolicy,
    groups: GroupStats,
    /// Durable-tier (Strict + Buffered) mutations acknowledged to
    /// clients since the last recovery — i.e. counted only when the
    /// run that admitted them completed.
    acked_admitted: u64,
    /// Mutations whose group commit is known durable (marker
    /// persisted), including in-flight groups resolved at recovery.
    durable: u64,
    /// InMemory-tier mutations acknowledged since the last completed
    /// barrier (each admit counts once; barrier promotion re-counts
    /// the overlay's distinct keys into `acked_admitted`).
    volatile_since_barrier: u64,
    /// `(expected_seq, ops)` of a group commit in flight when a crash
    /// fired; resolved against the recovered store's `next_seq` to
    /// decide whether its marker persisted.
    in_flight: Option<(u64, u64)>,
    /// The weakest tier that acknowledged mutations since the last
    /// recovery — what [`DurabilityRecovery::mode`] reports.
    weakest: Option<DurabilityMode>,
}

/// Clean flushes in a row before a Delay-widened window decays one
/// step. One clean flush must NOT decay (a 1,0,1,0… pressure pattern
/// would flap the window every flush); two in a row is the smallest
/// hysteresis that kills the oscillation.
const DELAY_DECAY_STREAK: u64 = 2;

/// Picks the weaker of the current weakest tier and a newly observed
/// one (same tier: the larger loss bound is the weaker promise).
fn weaken(current: &mut Option<DurabilityMode>, observed: DurabilityMode) {
    let Some(cur) = *current else {
        *current = Some(observed);
        return;
    };
    let replace = if observed.weaker_or_equal(cur) && cur.weaker_or_equal(observed) {
        matches!(
            (observed.loss_bound(), cur.loss_bound()),
            (Some(a), Some(b)) if a > b
        )
    } else {
        observed.weaker_or_equal(cur)
    };
    if replace {
        *current = Some(observed);
    }
}

impl ShardLane {
    /// Flushes the pending group through [`KvStore::apply_group`] and
    /// feeds the observed WPQ pressure back into admission. A group
    /// whose coalesced write set overflows the WAL is split in half
    /// and flushed as two groups (recursively), so an oversized window
    /// costs extra markers instead of failing the batch.
    fn flush(&mut self) -> Result<(), KvError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let muts = std::mem::take(&mut self.pending);
        self.flush_muts(muts)
    }

    fn flush_muts(&mut self, mut muts: Vec<(u64, Option<Vec<u8>>)>) -> Result<(), KvError> {
        let before = self.mem.mem_stats().wpq_full_events;
        // Record the commit frontier before the group goes down: if a
        // crash fires inside apply_group, recovery compares the
        // recovered store's next_seq against this to decide whether
        // the group's marker persisted (it moved past) or the whole
        // group rolled back.
        self.in_flight = Some((self.store.next_seq(), muts.len() as u64));
        match self.store.apply_group(&mut self.mem, &muts) {
            Ok(receipt) => {
                self.in_flight = None;
                self.durable += muts.len() as u64;
                self.groups.flushes += 1;
                self.groups.ops += receipt.ops;
                self.groups.log_records += receipt.log_records;
                self.groups.commit_markers += receipt.commit_markers;
                let delta = self.mem.mem_stats().wpq_full_events - before;
                self.note_flush_pressure(delta);
                Ok(())
            }
            Err(KvError::LogFull) if muts.len() > 1 => {
                self.in_flight = None;
                let tail = muts.split_off(muts.len() / 2);
                self.flush_muts(muts)?;
                self.flush_muts(tail)
            }
            Err(e) => {
                // Only a crash leaves the outcome genuinely unresolved;
                // every other failure means nothing was committed.
                if !matches!(e, KvError::Memory(SecureMemoryError::NeedsRecovery)) {
                    self.in_flight = None;
                }
                Err(e)
            }
        }
    }

    /// Flushes the Buffered-tier backlog as one group commit and
    /// disarms its deadline timer.
    fn flush_buffered(&mut self) -> Result<(), KvError> {
        self.buffered_deadline = None;
        if self.buffered.is_empty() {
            return Ok(());
        }
        let muts = std::mem::take(&mut self.buffered);
        self.flush_muts(muts)
    }

    /// The Buffered flush-interval timer, checked at run boundaries
    /// (the lane's flush opportunities): a backlog whose deadline has
    /// passed on this shard's simulated clock is flushed now.
    fn check_buffer_timer(&mut self) -> Result<(), KvError> {
        if matches!(self.buffered_deadline, Some(d) if self.mem.now() >= d) {
            self.flush_buffered()?;
        }
        Ok(())
    }

    /// Admits one InMemory-tier mutation into the volatile overlay.
    /// This path must stay free of persist effects — no log append, no
    /// commit marker, no data persist — which is exactly what the
    /// `durability-contract` lint checks for `volatile`-named fns
    /// (invariant D8).
    fn stage_volatile(&mut self, key: u64, value: Option<Vec<u8>>) {
        self.volatile.insert(key, value);
    }

    /// Admission-control reaction to one flush's `wpq_full_events`
    /// delta. Pure state transition — unit-testable without having to
    /// provoke real WPQ saturation.
    ///
    /// Delay widens immediately on pressure but decays only after
    /// [`DELAY_DECAY_STREAK`] consecutive clean flushes: with an
    /// immediate decay, a load that saturates every other flush
    /// (delta 1,0,1,0,…) would flap the window between two sizes on
    /// every single flush instead of holding the widened one.
    fn note_flush_pressure(&mut self, wpq_full_delta: u64) {
        if wpq_full_delta > 0 {
            self.clean_streak = 0;
        } else {
            self.clean_streak += 1;
        }
        match self.policy {
            AdmissionPolicy::Open => {}
            AdmissionPolicy::Shed { cooldown } => {
                if wpq_full_delta > 0 {
                    self.shed_remaining = cooldown;
                }
            }
            AdmissionPolicy::Delay { max_window } => {
                if wpq_full_delta > 0 {
                    self.window = (self.window.saturating_mul(2)).min(max_window.max(1));
                } else if self.window > self.base_window && self.clean_streak >= DELAY_DECAY_STREAK
                {
                    self.window = (self.window / 2).max(self.base_window);
                    self.clean_streak = 0;
                }
            }
        }
    }

    /// The value `key` would read right now, by tier precedence:
    /// volatile overlay, then strict-pending (youngest first), then
    /// the buffered backlog (youngest first), then the durable store.
    fn staged_lookup(&self, key: u64) -> Option<Option<Vec<u8>>> {
        if let Some(v) = self.volatile.get(&key) {
            return Some(v.clone());
        }
        if let Some((_, v)) = self.pending.iter().rev().find(|(k, _)| *k == key) {
            return Some(v.clone());
        }
        self.buffered
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    }

    /// Runs this lane's slice of a submit batch under `mode`, in
    /// order, flushing on window boundaries, scans, and at the end
    /// (the Strict submit durability contract). Buffered-tier
    /// acknowledgements and InMemory admissions are folded into the
    /// loss ledger only when the whole run completes — a mutation in
    /// a run that dies on a crash was never acknowledged to a client,
    /// so it cannot count as "lost".
    fn run(
        &mut self,
        ops: &[LaneOp],
        mode: DurabilityMode,
    ) -> Result<Vec<(usize, LaneOutcome)>, KvError> {
        self.check_buffer_timer()?;
        let mut out = Vec::with_capacity(ops.len());
        let mut batch_admitted = 0u64;
        let mut batch_volatile = 0u64;
        for op in ops {
            match op {
                LaneOp::Mutate { idx, key, value } => {
                    if self.shed_remaining > 0 {
                        self.shed_remaining -= 1;
                        self.groups.shed += 1;
                        out.push((*idx, LaneOutcome::Shed));
                        continue;
                    }
                    match mode {
                        DurabilityMode::InMemory => {
                            self.stage_volatile(*key, value.clone());
                            batch_volatile += 1;
                            out.push((*idx, LaneOutcome::Done));
                        }
                        DurabilityMode::Buffered {
                            flush_interval,
                            max_loss,
                        } => {
                            if self.buffered.is_empty() {
                                self.buffered_deadline =
                                    Some(self.mem.now() + Duration::from_ns(flush_interval));
                            }
                            self.buffered.push((*key, value.clone()));
                            batch_admitted += 1;
                            out.push((*idx, LaneOutcome::Done));
                            // Flush strictly before the backlog could
                            // exceed the contractual loss bound.
                            if self.buffered.len() as u64 >= max_loss.max(1) {
                                self.flush_buffered()?;
                            }
                        }
                        DurabilityMode::Strict => {
                            self.pending.push((*key, value.clone()));
                            batch_admitted += 1;
                            out.push((*idx, LaneOutcome::Done));
                            if self.pending.len() >= self.window {
                                self.flush()?;
                            }
                        }
                    }
                }
                LaneOp::Get { idx, key } => {
                    let value = match self.staged_lookup(*key) {
                        Some(staged) => staged,
                        None => self.store.get(&mut self.mem, *key)?,
                    };
                    out.push((*idx, LaneOutcome::Got(value)));
                }
                LaneOp::Scan { idx } => {
                    // A scan is a durability barrier for the durable
                    // tiers (drains pending + buffered) and reads the
                    // volatile overlay on top without promoting it.
                    self.flush()?;
                    self.flush_buffered()?;
                    let mut pairs: BTreeMap<u64, Vec<u8>> =
                        self.store.scan(&mut self.mem)?.into_iter().collect();
                    for (k, v) in &self.volatile {
                        match v {
                            Some(val) => {
                                pairs.insert(*k, val.clone());
                            }
                            None => {
                                pairs.remove(k);
                            }
                        }
                    }
                    out.push((*idx, LaneOutcome::Scanned(pairs.into_iter().collect())));
                }
            }
        }
        self.flush()?;
        self.check_buffer_timer()?;
        if batch_admitted > 0 || batch_volatile > 0 {
            weaken(&mut self.weakest, mode);
        }
        self.acked_admitted += batch_admitted;
        self.volatile_since_barrier += batch_volatile;
        Ok(out)
    }

    /// The explicit Strict barrier: drains every durable-tier buffer,
    /// then promotes the volatile overlay to NVM as one group commit.
    /// On `Ok` the lane holds no staged state at all — every
    /// acknowledged mutation is durable, whatever tier admitted it.
    fn barrier(&mut self) -> Result<(), KvError> {
        self.flush()?;
        self.flush_buffered()?;
        let muts: Vec<(u64, Option<Vec<u8>>)> =
            std::mem::take(&mut self.volatile).into_iter().collect();
        self.volatile_since_barrier = 0;
        if muts.is_empty() {
            return Ok(());
        }
        // Promotion counts the overlay's distinct keys: an overwritten
        // duplicate neither survives nor counts as lost.
        self.acked_admitted += muts.len() as u64;
        self.flush_muts(muts)
    }
}

/// The sharded serving front-end. See the module docs for the
/// routing / group-commit / admission / determinism contract.
#[derive(Debug)]
pub struct KvService {
    lanes: Vec<ShardLane>,
    threaded: bool,
    /// The spec's default tier for tenants without an override.
    default_mode: DurabilityMode,
    /// Per-tenant durability overrides (ordered, so any iteration is
    /// deterministic).
    tenant_modes: BTreeMap<u64, DurabilityMode>,
}

impl KvService {
    /// Builds a fleet of `spec.shards` independent shard engines.
    ///
    /// # Errors
    ///
    /// [`KvError::TooManyShards`] above [`MAX_SHARDS`]; engine build
    /// or heap errors otherwise.
    pub fn create(spec: &ServiceSpec) -> Result<KvService, KvError> {
        let shards = spec.shards.max(1);
        if shards > MAX_SHARDS {
            return Err(KvError::TooManyShards {
                requested: shards,
                max: MAX_SHARDS,
            });
        }
        let mut lanes = Vec::with_capacity(shards as usize);
        for i in 0..shards {
            lanes.push(Self::create_lane(spec, i)?);
        }
        Ok(KvService {
            lanes,
            threaded: true,
            default_mode: spec.durability,
            tenant_modes: BTreeMap::new(),
        })
    }

    fn create_lane(spec: &ServiceSpec, i: u64) -> Result<ShardLane, KvError> {
        let mut builder = SecureMemoryBuilder::new()
            .scheme(spec.scheme)
            .counter_persistence(spec.counters)
            // Distinct per-shard key streams, derived SplitMix64-style
            // from the base seed.
            .key_seed(spec.key_seed ^ (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if let Some(cfg) = spec.config {
            builder = builder.config(cfg);
        }
        let mut mem = builder.build().map_err(KvError::Memory)?;
        let heap = PersistentHeap::format(&mut mem)?;
        let store = KvStore::create(
            &mut mem,
            heap,
            KvConfig {
                buckets: spec.buckets,
                log_blocks: spec.log_blocks,
            },
        )?;
        // Heap root = superblock: the single-store layout
        // `triad_kv::recover_store` recovers in one call.
        heap.set_root(&mut mem, store.superblock().0)?;
        let window = spec.group_window.max(1);
        Ok(ShardLane {
            mem,
            store,
            pending: Vec::new(),
            buffered: Vec::new(),
            buffered_deadline: None,
            volatile: BTreeMap::new(),
            window,
            base_window: window,
            clean_streak: 0,
            shed_remaining: 0,
            policy: spec.admission,
            groups: GroupStats::default(),
            acked_admitted: 0,
            durable: 0,
            volatile_since_barrier: 0,
            in_flight: None,
            weakest: None,
        })
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.lanes.len()
    }

    /// Chooses threaded (default) or single-threaded lane execution.
    /// Both produce identical responses, stats and state — the
    /// determinism test pins that.
    pub fn set_threaded(&mut self, threaded: bool) {
        self.threaded = threaded;
    }

    /// The shard index serving `key`: keyed-hash routing, reduced
    /// modulo the shard count in u64 before narrowing, so no hash bit
    /// is truncated away on 32-bit targets.
    pub fn route(&self, key: u64) -> usize {
        let h = SipHash24::new(*b"triad-kv routing").hash_words(&[key]);
        (h % self.lanes.len().max(1) as u64) as usize
    }

    /// Sets the durability tier tenant `tenant` submits under,
    /// overriding the spec default. Takes effect from the next
    /// [`KvService::submit_as`] — mutations already staged keep the
    /// tier they were admitted under.
    pub fn set_tenant_mode(&mut self, tenant: u64, mode: DurabilityMode) {
        self.tenant_modes.insert(tenant, mode);
    }

    /// The durability tier `tenant` currently submits under.
    pub fn tenant_mode(&self, tenant: u64) -> DurabilityMode {
        self.tenant_modes
            .get(&tenant)
            .copied()
            .unwrap_or(self.default_mode)
    }

    /// Serves one batch for the default tenant (tenant 0). On `Ok`,
    /// every admitted mutation carries the default tenant's tier
    /// guarantee — under the default Strict spec this is exactly the
    /// pre-tier contract: every admitted mutation is durable.
    ///
    /// # Errors
    ///
    /// See [`KvService::submit_as`].
    pub fn submit(&mut self, reqs: &[Request]) -> Result<Vec<Response>, KvError> {
        self.submit_as(0, reqs)
    }

    /// Serves one batch for `tenant`: partitions the requests across
    /// shards in submit order, runs every lane (threaded or serial)
    /// under the tenant's [`DurabilityMode`], and merges the responses
    /// back into submit order. What `Ok` promises depends on the
    /// tier — see the module docs and `docs/durability-contract.md`.
    ///
    /// # Errors
    ///
    /// The first failing lane's error, in shard order (an injected
    /// crash surfaces as `KvError::Memory(NeedsRecovery)`; see
    /// [`KvService::recover_shard`]).
    pub fn submit_as(&mut self, tenant: u64, reqs: &[Request]) -> Result<Vec<Response>, KvError> {
        let mode = self.tenant_mode(tenant);
        let n = self.lanes.len();
        let mut per_lane: Vec<Vec<LaneOp>> = (0..n).map(|_| Vec::new()).collect();
        for (idx, req) in reqs.iter().enumerate() {
            match req {
                Request::Put { key, value } => per_lane[self.route(*key)].push(LaneOp::Mutate {
                    idx,
                    key: *key,
                    value: Some(value.clone()),
                }),
                Request::Delete { key } => per_lane[self.route(*key)].push(LaneOp::Mutate {
                    idx,
                    key: *key,
                    value: None,
                }),
                Request::Get { key } => {
                    per_lane[self.route(*key)].push(LaneOp::Get { idx, key: *key });
                }
                Request::Scan => {
                    for ops in per_lane.iter_mut() {
                        ops.push(LaneOp::Scan { idx });
                    }
                }
            }
        }

        let results: Vec<Result<Vec<(usize, LaneOutcome)>, KvError>> = if self.threaded {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .lanes
                    .iter_mut()
                    .zip(per_lane.iter())
                    .map(|(lane, ops)| s.spawn(move || lane.run(ops, mode)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(r) => r,
                        Err(panic) => std::panic::resume_unwind(panic),
                    })
                    .collect()
            })
        } else {
            self.lanes
                .iter_mut()
                .zip(per_lane.iter())
                .map(|(lane, ops)| lane.run(ops, mode))
                .collect()
        };

        // Deterministic merge: lanes visited in shard order, scan
        // fragments merged through an ordered map.
        let mut responses: Vec<Option<Response>> = vec![None; reqs.len()];
        let mut scans: BTreeMap<usize, BTreeMap<u64, Vec<u8>>> = BTreeMap::new();
        for lane_result in results {
            for (idx, outcome) in lane_result? {
                match outcome {
                    LaneOutcome::Done => responses[idx] = Some(Response::Done),
                    LaneOutcome::Shed => responses[idx] = Some(Response::Shed),
                    LaneOutcome::Got(v) => responses[idx] = Some(Response::Value(v)),
                    LaneOutcome::Scanned(pairs) => {
                        scans.entry(idx).or_default().extend(pairs);
                    }
                }
            }
        }
        for (idx, merged) in scans {
            responses[idx] = Some(Response::Scanned(merged.into_iter().collect()));
        }
        Ok(responses
            .into_iter()
            .map(|r| r.expect("every submitted request produces exactly one response"))
            .collect())
    }

    /// The service's durable state, merged across shards by key.
    /// Reads only what is on NVM — staged-but-unflushed mutations
    /// (none, after a successful submit) are not included.
    ///
    /// # Errors
    ///
    /// Propagates store/memory errors.
    pub fn dump(&mut self) -> Result<BTreeMap<u64, Vec<u8>>, KvError> {
        let mut out = BTreeMap::new();
        for lane in self.lanes.iter_mut() {
            for (key, value) in lane.store.scan(&mut lane.mem)? {
                out.insert(key, value);
            }
        }
        Ok(out)
    }

    /// Merged store counters, shard-order field-wise sum.
    pub fn merged_kv_stats(&self) -> KvStats {
        let mut out = KvStats::default();
        for lane in &self.lanes {
            out.merge(lane.store.stats());
        }
        out
    }

    /// Merged group-commit/admission counters.
    pub fn merged_group_stats(&self) -> GroupStats {
        let mut out = GroupStats::default();
        for lane in &self.lanes {
            out.merge(&lane.groups);
        }
        out
    }

    /// The fleet's simulated makespan: the slowest shard's clock.
    /// Shards run in parallel, so this is the serving-time analogue
    /// (total work / this = aggregate throughput).
    pub fn max_shard_time(&self) -> Time {
        self.lanes
            .iter()
            .map(|l| l.mem.now())
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Summed durability points across shards.
    pub fn total_persists(&self) -> u64 {
        self.lanes.iter().map(|l| l.mem.stats().persists).sum()
    }

    /// One shard's engine (crash arming, stats).
    pub fn shard_mem(&self, i: usize) -> Option<&SecureMemory> {
        self.lanes.get(i).map(|l| &l.mem)
    }

    /// One shard's engine, mutably (crash injection).
    pub fn shard_mem_mut(&mut self, i: usize) -> Option<&mut SecureMemory> {
        self.lanes.get_mut(i).map(|l| &mut l.mem)
    }

    /// One shard's store (stats, event wiring).
    pub fn shard_store_mut(&mut self, i: usize) -> Option<&mut KvStore> {
        self.lanes.get_mut(i).map(|l| &mut l.store)
    }

    /// The explicit Strict barrier: every lane drains its durable-tier
    /// buffers and promotes its volatile overlay to NVM through group
    /// commits. On `Ok`, every acknowledged mutation of every tier is
    /// durable — the InMemory tier's recovery floor advances to here
    /// (invariant D5).
    ///
    /// # Errors
    ///
    /// The first failing lane's error, in shard order.
    pub fn barrier(&mut self) -> Result<(), KvError> {
        for lane in self.lanes.iter_mut() {
            lane.barrier()?;
        }
        Ok(())
    }

    /// Recovers shard `i` after a crash: engine recovery + WAL replay
    /// via [`triad_kv::recover_store`]. Staged state of every tier
    /// (strict pending, buffered backlog, volatile overlay) is
    /// discarded — it was never durable. The shard's store counters
    /// restart from zero, as after any reopen; its event sink carries
    /// over and receives the replay's `kv_replay` record.
    ///
    /// The report's `durability` field states the weakest tier that
    /// acknowledged mutations since the last recovery, the measured
    /// loss (acknowledged mutations the recovered state does not
    /// reflect, resolved against the interrupted group's commit
    /// marker), and that tier's contractual loss bound (invariant D7).
    ///
    /// # Errors
    ///
    /// [`KvError::NotAStore`] for an out-of-range index; recovery
    /// errors otherwise.
    pub fn recover_shard(&mut self, i: usize) -> Result<RecoveryReport, KvError> {
        let lane = self.lanes.get_mut(i).ok_or(KvError::NotAStore)?;
        lane.pending.clear();
        lane.buffered.clear();
        lane.buffered_deadline = None;
        lane.volatile.clear();
        lane.shed_remaining = 0;
        lane.window = lane.base_window;
        lane.clean_streak = 0;
        let events = lane.store.event_sink().cloned();
        let (store, mut report) = triad_kv::recover_store(&mut lane.mem, events)?;
        lane.store = store;
        // Resolve the interrupted group: its marker persisted iff log
        // replay applied a transaction AND the recovered frontier is
        // exactly one past the seq the group committed under. The
        // frontier alone is not a witness — replay fences `next_seq`
        // above *uncommitted* torn records too, so a group whose
        // records persisted but whose marker did not still moves the
        // frontier past `expected_seq`. Conversely, replay re-applying
        // the *previous* group's stale records (crash before the new
        // group wrote anything) lands the frontier at `expected_seq`,
        // not past it, so it earns no credit either.
        if let Some((expected_seq, ops)) = lane.in_flight.take() {
            let applied = report.log_replay.map_or(0, |r| r.txns_applied);
            if applied > 0 && lane.store.next_seq() == expected_seq + 1 {
                lane.durable += ops;
            }
        }
        let mode = lane.weakest.unwrap_or(DurabilityMode::Strict);
        report.durability = Some(DurabilityRecovery {
            mode: mode.tier_name(),
            mutations_lost: lane.acked_admitted.saturating_sub(lane.durable)
                + lane.volatile_since_barrier,
            loss_bound: mode.loss_bound(),
        });
        // The recovered store is the new contract baseline.
        lane.acked_admitted = 0;
        lane.durable = 0;
        lane.volatile_since_barrier = 0;
        lane.weakest = None;
        Ok(report)
    }
}

/// Generates a seeded put/get/delete request schedule over a global
/// keyspace (uniform keys, 5:3:2 mix, [`crate::kv::value_bytes`]
/// payloads). Scans are fleet-wide barriers and are driven explicitly
/// where needed.
pub fn generate_requests(
    seed: u64,
    ops: usize,
    keyspace: u64,
    value_len: (usize, usize),
) -> Vec<Request> {
    let spec = KvSpec {
        ops: ops as u64,
        keyspace: usize::try_from(keyspace).unwrap_or(usize::MAX),
        zipf_s: None,
        value_len,
        mix: KvMix {
            put: 5,
            get: 3,
            delete: 2,
            scan: 0,
        },
    };
    generate(&spec, seed, 0x73_7276_6372_6571)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_core::CrashHookKind;
    use triad_sim::rng::SplitMix64;

    fn spec(shards: u64) -> ServiceSpec {
        ServiceSpec {
            buckets: 16,
            log_blocks: 64,
            ..ServiceSpec::new(shards)
        }
    }

    /// A seeded request schedule over a global keyspace.
    fn schedule(seed: u64, n: usize, keyspace: u64) -> Vec<Request> {
        let mut rng = SplitMix64::stream(seed, 0x73_6572_7669_6365);
        (0..n)
            .map(|_| {
                let key = rng.below(keyspace);
                match rng.below(10) {
                    0..=4 => Request::Put {
                        key,
                        value: vec![rng.next_u64() as u8; 1 + rng.below(24) as usize],
                    },
                    5..=7 => Request::Get { key },
                    8 => Request::Delete { key },
                    _ => Request::Scan,
                }
            })
            .collect()
    }

    #[test]
    fn serves_reads_and_scans_consistently() {
        let mut svc = KvService::create(&spec(3)).unwrap();
        let reqs = schedule(42, 120, 40);
        let resps = svc.submit(&reqs).unwrap();
        // Every response type checks out against a replayed model.
        let mut model = BTreeMap::new();
        crate::sweep::apply(&mut model, &reqs, &resps).unwrap();
        assert_eq!(svc.dump().unwrap(), model);
    }

    #[test]
    fn threaded_and_serial_execution_are_identical() {
        let reqs = schedule(7, 200, 64);
        let mut threaded = KvService::create(&spec(4)).unwrap();
        threaded.set_threaded(true);
        let rt = threaded.submit(&reqs).unwrap();
        let mut serial = KvService::create(&spec(4)).unwrap();
        serial.set_threaded(false);
        let rs = serial.submit(&reqs).unwrap();
        assert_eq!(rt, rs, "responses must not depend on threading");
        assert_eq!(threaded.merged_kv_stats(), serial.merged_kv_stats());
        assert_eq!(threaded.merged_group_stats(), serial.merged_group_stats());
        assert_eq!(threaded.dump().unwrap(), serial.dump().unwrap());
        assert_eq!(threaded.max_shard_time(), serial.max_shard_time());
        assert_eq!(threaded.total_persists(), serial.total_persists());
    }

    #[test]
    fn group_commit_amortizes_markers() {
        let puts: Vec<Request> = (0..64u64)
            .map(|k| Request::Put {
                key: k,
                value: vec![k as u8; 8],
            })
            .collect();
        let mut grouped = KvService::create(&spec(2)).unwrap();
        grouped.submit(&puts).unwrap();
        let mut unbatched = KvService::create(&ServiceSpec {
            group_window: 1,
            ..spec(2)
        })
        .unwrap();
        unbatched.submit(&puts).unwrap();

        let g = grouped.merged_group_stats();
        let u = unbatched.merged_group_stats();
        assert_eq!(g.ops, 64);
        assert_eq!(u.ops, 64);
        assert_eq!(u.commit_markers, 64, "window 1 = one marker per put");
        assert!(
            g.commit_markers * 4 <= u.commit_markers,
            "window 8 must amortize markers at least 4x: {} vs {}",
            g.commit_markers,
            u.commit_markers
        );
        assert_eq!(grouped.dump().unwrap(), unbatched.dump().unwrap());
        assert!(
            grouped.total_persists() < unbatched.total_persists(),
            "fewer markers must mean fewer durability points"
        );
    }

    #[test]
    fn shed_policy_rejects_during_cooldown() {
        let mut svc = KvService::create(&ServiceSpec {
            shards: 1,
            admission: AdmissionPolicy::Shed { cooldown: 3 },
            ..spec(1)
        })
        .unwrap();
        // Simulate a saturated flush directly (the pure transition),
        // then watch the next three mutations bounce.
        svc.lanes[0].note_flush_pressure(2);
        let reqs: Vec<Request> = (0..5u64)
            .map(|k| Request::Put {
                key: k,
                value: vec![1],
            })
            .collect();
        let resps = svc.submit(&reqs).unwrap();
        assert_eq!(
            resps,
            vec![
                Response::Shed,
                Response::Shed,
                Response::Shed,
                Response::Done,
                Response::Done
            ]
        );
        assert_eq!(svc.merged_group_stats().shed, 3);
        // Shed mutations must not reach the store.
        assert_eq!(svc.dump().unwrap().len(), 2);
    }

    #[test]
    fn delay_policy_widens_and_decays_the_window() {
        let mut svc = KvService::create(&ServiceSpec {
            shards: 1,
            group_window: 4,
            admission: AdmissionPolicy::Delay { max_window: 16 },
            ..spec(1)
        })
        .unwrap();
        let lane = &mut svc.lanes[0];
        lane.note_flush_pressure(1);
        assert_eq!(lane.window, 8);
        lane.note_flush_pressure(5);
        assert_eq!(lane.window, 16);
        lane.note_flush_pressure(9);
        assert_eq!(lane.window, 16, "capped at max_window");
        lane.note_flush_pressure(0);
        assert_eq!(
            lane.window, 16,
            "one clean flush must not decay (hysteresis)"
        );
        lane.note_flush_pressure(0);
        assert_eq!(
            lane.window, 8,
            "two consecutive clean flushes decay one step"
        );
        lane.note_flush_pressure(0);
        assert_eq!(lane.window, 8);
        lane.note_flush_pressure(0);
        assert_eq!(lane.window, 4);
        lane.note_flush_pressure(0);
        lane.note_flush_pressure(0);
        assert_eq!(lane.window, 4, "never below the configured window");
    }

    #[test]
    fn delay_window_holds_steady_under_oscillating_pressure() {
        // The boundary case the hysteresis exists for: a load that
        // saturates every other flush (deltas 1,0,1,0,…). Without the
        // clean-streak requirement the window halved on every clean
        // flush and re-doubled on the next saturated one — a fresh
        // admission decision per flush. With it, the window rises to
        // the cap and holds.
        let mut svc = KvService::create(&ServiceSpec {
            shards: 1,
            group_window: 4,
            admission: AdmissionPolicy::Delay { max_window: 16 },
            ..spec(1)
        })
        .unwrap();
        let lane = &mut svc.lanes[0];
        for _ in 0..4 {
            lane.note_flush_pressure(1);
            lane.note_flush_pressure(0);
        }
        assert_eq!(lane.window, 16, "oscillation widens to the cap");
        for _ in 0..4 {
            let before = lane.window;
            lane.note_flush_pressure(1);
            lane.note_flush_pressure(0);
            assert_eq!(lane.window, before, "window must not flap under 1,0 deltas");
        }
        // A pressure episode that genuinely ends decays normally.
        lane.note_flush_pressure(0);
        lane.note_flush_pressure(0);
        assert_eq!(lane.window, 8);
    }

    #[test]
    fn admission_reacts_to_real_wpq_saturation() {
        // A deliberately starved WPQ (2 entries) under a write burst:
        // flushes must observe wpq_full_events and trigger Shed.
        let mut cfg = SystemConfig::tiny();
        cfg.mem.wpq_entries = 2;
        let mut svc = KvService::create(&ServiceSpec {
            shards: 1,
            group_window: 16,
            admission: AdmissionPolicy::Shed { cooldown: 4 },
            config: Some(cfg),
            ..spec(1)
        })
        .unwrap();
        let reqs: Vec<Request> = (0..48u64)
            .map(|k| Request::Put {
                key: k,
                value: vec![k as u8; 48],
            })
            .collect();
        let resps = svc.submit(&reqs).unwrap();
        let stats = svc.merged_group_stats();
        assert!(
            svc.shard_mem(0).unwrap().mem_stats().wpq_full_events > 0,
            "the starved WPQ must have saturated"
        );
        assert!(
            stats.shed > 0,
            "saturation must have shed mutations: {stats:?}"
        );
        assert!(resps.contains(&Response::Shed));
    }

    #[test]
    fn crash_on_one_shard_recovers_to_a_group_boundary() {
        let mut svc = KvService::create(&ServiceSpec {
            shards: 2,
            group_window: 4,
            ..spec(2)
        })
        .unwrap();
        svc.set_threaded(false);
        // First batch: fully durable.
        let warm: Vec<Request> = (0..8u64)
            .map(|k| Request::Put {
                key: k,
                value: vec![k as u8; 8],
            })
            .collect();
        svc.submit(&warm).unwrap();
        let durable = svc.dump().unwrap();
        // Arm a crash early on shard 0, then push another batch.
        svc.shard_mem_mut(0)
            .unwrap()
            .arm_crash(CrashHookKind::PersistBoundary, 2)
            .unwrap();
        let burst: Vec<Request> = (100..120u64)
            .map(|k| Request::Put {
                key: k,
                value: vec![k as u8; 8],
            })
            .collect();
        let err = svc.submit(&burst).unwrap_err();
        assert!(matches!(err, KvError::Memory(_)), "crash must surface");
        let report = svc.recover_shard(0).unwrap();
        assert!(report.persistent_recovered);
        let after = svc.dump().unwrap();
        // Shard 0 lost its in-flight group; every key it still holds
        // was durable before, and the pre-crash state is a subset.
        for (k, v) in &durable {
            assert_eq!(after.get(k), Some(v), "durable key {k} lost");
        }
        // The service keeps serving.
        svc.submit(&warm).unwrap();
        assert!(svc.dump().unwrap().len() >= durable.len());
    }

    #[test]
    fn recovered_shard_keeps_its_event_sink() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};
        use triad_sim::events::{kind, EventSink};
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut svc = KvService::create(&spec(1)).unwrap();
        svc.set_threaded(false);
        svc.submit(&puts(0..8)).unwrap();
        let buf = Arc::new(Mutex::new(Vec::new()));
        svc.shard_store_mut(0)
            .unwrap()
            .set_event_sink(EventSink::shared(Box::new(SharedBuf(buf.clone()))));
        svc.shard_mem_mut(0).unwrap().crash();
        svc.recover_shard(0).unwrap();
        svc.submit(&puts(8..9)).unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let events: Vec<&str> = text
            .lines()
            .filter_map(|line| line.split("\"event\":\"").nth(1)?.split('"').next())
            .collect();
        assert_eq!(
            events,
            [kind::KV_REPLAY, kind::KV_TXN_COMMIT, kind::KV_GROUP_COMMIT],
            "{text}"
        );
    }

    fn puts(range: std::ops::Range<u64>) -> Vec<Request> {
        range
            .map(|k| Request::Put {
                key: k,
                value: vec![k as u8; 8],
            })
            .collect()
    }

    #[test]
    fn tenant_modes_default_and_override() {
        let mut svc = KvService::create(&spec(1)).unwrap();
        assert_eq!(svc.tenant_mode(0), DurabilityMode::Strict);
        svc.set_tenant_mode(7, DurabilityMode::InMemory);
        assert_eq!(svc.tenant_mode(7), DurabilityMode::InMemory);
        assert_eq!(
            svc.tenant_mode(8),
            DurabilityMode::Strict,
            "others keep the default"
        );
    }

    #[test]
    fn buffered_mode_acknowledges_from_dram_and_flushes_at_max_loss() {
        let mut svc = KvService::create(&spec(1)).unwrap();
        svc.set_tenant_mode(
            1,
            DurabilityMode::Buffered {
                flush_interval: u64::MAX / 2_000, // effectively never
                max_loss: 4,
            },
        );
        // Three mutations: acknowledged, readable, NOT yet durable.
        let resps = svc.submit_as(1, &puts(0..3)).unwrap();
        assert!(resps.iter().all(|r| *r == Response::Done));
        assert!(
            svc.dump().unwrap().is_empty(),
            "backlog must not be on NVM yet"
        );
        let read = svc.submit_as(1, &[Request::Get { key: 2 }]).unwrap();
        assert_eq!(read, vec![Response::Value(Some(vec![2u8; 8]))]);
        // The fourth reaches max_loss: the whole backlog group-commits.
        svc.submit_as(1, &puts(3..4)).unwrap();
        assert_eq!(
            svc.dump().unwrap().len(),
            4,
            "backlog flushed at the loss bound"
        );
        // One group, one marker — buffering amortizes like group commit.
        assert_eq!(svc.merged_group_stats().commit_markers, 1);
    }

    #[test]
    fn buffered_timer_flushes_idle_backlog_at_a_run_boundary() {
        let mut svc = KvService::create(&spec(1)).unwrap();
        svc.set_tenant_mode(
            1,
            DurabilityMode::Buffered {
                flush_interval: 1, // 1 ns: expires as soon as the clock moves
                max_loss: 100,
            },
        );
        svc.submit_as(1, &puts(0..2)).unwrap();
        // Buffered staging touches no memory, so the shard clock has
        // not moved and the backlog legitimately sits in DRAM.
        assert!(svc.dump().unwrap().is_empty());
        // Unrelated store work advances the shard's simulated clock
        // past the deadline; the run-boundary timer check flushes.
        svc.submit_as(0, &puts(500..502)).unwrap();
        let state = svc.dump().unwrap();
        assert!(
            state.contains_key(&0) && state.contains_key(&1),
            "expired backlog must be flushed at the next run boundary: {state:?}"
        );
    }

    #[test]
    fn inmemory_mode_is_volatile_until_a_barrier() {
        let mut svc = KvService::create(&spec(2)).unwrap();
        svc.set_tenant_mode(9, DurabilityMode::InMemory);
        let resps = svc.submit_as(9, &puts(0..6)).unwrap();
        assert!(resps.iter().all(|r| *r == Response::Done));
        assert!(
            svc.dump().unwrap().is_empty(),
            "volatile overlay must not persist"
        );
        assert_eq!(
            svc.total_persists(),
            {
                let mut fresh = KvService::create(&spec(2)).unwrap();
                fresh.submit_as(9, &[]).unwrap();
                fresh.total_persists()
            },
            "InMemory admission makes no durability points"
        );
        // Reads and scans see the overlay.
        let read = svc
            .submit_as(9, &[Request::Get { key: 3 }, Request::Scan])
            .unwrap();
        assert_eq!(read[0], Response::Value(Some(vec![3u8; 8])));
        let Response::Scanned(pairs) = &read[1] else {
            panic!("scan response expected, got {read:?}");
        };
        assert_eq!(pairs.len(), 6, "scan reads through the overlay");
        // The barrier promotes the overlay; state is now durable.
        svc.barrier().unwrap();
        assert_eq!(svc.dump().unwrap().len(), 6);
        // Deletes staged volatile win over promoted state.
        svc.submit_as(9, &[Request::Delete { key: 3 }]).unwrap();
        let read = svc.submit_as(9, &[Request::Get { key: 3 }]).unwrap();
        assert_eq!(read, vec![Response::Value(None)]);
        assert_eq!(
            svc.dump().unwrap().len(),
            6,
            "delete volatile until the barrier"
        );
        svc.barrier().unwrap();
        assert_eq!(svc.dump().unwrap().len(), 5);
    }

    #[test]
    fn recovery_report_states_mode_and_loss_for_all_three_tiers() {
        // Strict: everything acknowledged was durable — zero loss.
        let mut svc = KvService::create(&spec(1)).unwrap();
        svc.submit(&puts(0..5)).unwrap();
        svc.shard_mem_mut(0).unwrap().crash();
        let d = svc.recover_shard(0).unwrap().durability.unwrap();
        assert_eq!(
            (d.mode, d.mutations_lost, d.loss_bound),
            ("strict", 0, Some(0))
        );
        assert!(d.within_bound());

        // Buffered: the acknowledged backlog is lost, within max_loss.
        let mut svc = KvService::create(&spec(1)).unwrap();
        svc.set_tenant_mode(
            1,
            DurabilityMode::Buffered {
                flush_interval: u64::MAX / 2_000,
                max_loss: 8,
            },
        );
        svc.submit_as(1, &puts(0..3)).unwrap();
        svc.shard_mem_mut(0).unwrap().crash();
        let d = svc.recover_shard(0).unwrap().durability.unwrap();
        assert_eq!(
            (d.mode, d.mutations_lost, d.loss_bound),
            ("buffered", 3, Some(8))
        );
        assert!(d.within_bound());

        // InMemory: the whole overlay since the last barrier is lost,
        // and the bound is reported as unbounded.
        let mut svc = KvService::create(&spec(1)).unwrap();
        svc.set_tenant_mode(9, DurabilityMode::InMemory);
        svc.submit_as(9, &puts(0..4)).unwrap();
        svc.shard_mem_mut(0).unwrap().crash();
        let d = svc.recover_shard(0).unwrap().durability.unwrap();
        assert_eq!(
            (d.mode, d.mutations_lost, d.loss_bound),
            ("in-memory", 4, None)
        );
        assert!(d.within_bound());

        // After recovery the ledger restarts: a clean strict run and a
        // second crash report zero loss under the strict tier again.
        svc.submit(&puts(100..102)).unwrap();
        svc.shard_mem_mut(0).unwrap().crash();
        let d = svc.recover_shard(0).unwrap().durability.unwrap();
        assert_eq!(
            (d.mode, d.mutations_lost, d.loss_bound),
            ("strict", 0, Some(0))
        );
    }

    #[test]
    fn mixed_tenants_share_one_fleet() {
        // A zero-loss tenant and a bounded-loss tenant interleave on
        // the same shards; each keeps its own contract.
        let mut svc = KvService::create(&spec(2)).unwrap();
        svc.set_tenant_mode(
            2,
            DurabilityMode::Buffered {
                flush_interval: u64::MAX / 2_000,
                max_loss: 64,
            },
        );
        svc.submit(&puts(0..8)).unwrap(); // strict tenant: durable now
        svc.submit_as(2, &puts(100..104)).unwrap(); // buffered: DRAM backlog
        let durable = svc.dump().unwrap();
        assert_eq!(
            durable.len(),
            8,
            "strict keys durable, buffered backlog not"
        );
        assert!(durable.keys().all(|k| *k < 8));
        // The barrier drains every tier.
        svc.barrier().unwrap();
        assert_eq!(svc.dump().unwrap().len(), 12);
    }

    #[test]
    fn create_rejects_oversized_fleets() {
        assert_eq!(
            KvService::create(&spec(MAX_SHARDS + 1)).unwrap_err(),
            KvError::TooManyShards {
                requested: MAX_SHARDS + 1,
                max: MAX_SHARDS
            }
        );
    }
}
