//! The Triad-NVM secure memory controller.
//!
//! [`SecureMemory`] models everything below the private caches: the
//! shared L3, the counter cache, the Merkle-tree cache (which also
//! holds MAC blocks), the encryption/MAC engines, the two per-region
//! Bonsai Merkle Trees, the persistent register file, and the NVM
//! memory controller with its ADR write-pending queue.
//!
//! ## Functional model
//!
//! The NVM image ([`triad_mem::SparseStore`]) always holds
//! *ciphertext* and *serialised metadata* — exactly the bytes a
//! physical attacker could read or modify. Plaintext and current
//! metadata values live in the on-chip caches' lines: the L3 holds
//! plaintext, the counter cache holds counter blocks, and the
//! Merkle-tree cache holds BMT nodes and MAC blocks. A
//! [`SecureMemory::crash`] drops all of it, and
//! [`SecureMemory::recover`] must then reconstruct a verified state
//! from the NVM image alone, which is what makes the paper's
//! experiments honest: tampering and torn persists really are detected
//! by MAC/tree mismatches.
//!
//! ## Write paths (Figure 3 / Figure 7)
//!
//! * **Lazy** (non-persistent region, or the `WriteBack` scheme):
//!   ciphertext goes to the WPQ at eviction; counters, MACs and tree
//!   nodes are updated in their caches only and written back when
//!   evicted, each eviction refreshing its parent's slot.
//! * **Atomic** (persistent region under `Strict`/`TriadNvm`): the
//!   update set {data, counter, MAC, persisted tree levels, new root}
//!   is staged in persistent registers (READY_BIT), copied into the
//!   WPQ, and committed; a crash mid-copy is replayed at recovery.
//!
//! Every persist call runs the one durability loop of
//! [`crate::batch`], so every atomic write-back, a page re-encryption
//! included, stages into an open batch whose commit is the engine's
//! one §3.3.5 register protocol.

use std::collections::{BTreeMap, BTreeSet};

use triad_cache::{AccessOutcome, Cache, Victim};
use triad_crypto::aes::Aes128;
use triad_crypto::counter::{AnyCounterBlock, IncrementOutcome};
use triad_crypto::ctr::{decrypt_block, encrypt_block, Iv};
use triad_crypto::mac::{Mac64, MacEngine};
use triad_mem::controller::MemoryController;
use triad_mem::store::{Block, SparseStore};
use triad_meta::bmt::{self, FreshTree, NodeBuf, NodeId};
use triad_meta::layout::{BlockRole, MemoryMap, RegionKind, RegionLayout};
use triad_sim::config::SystemConfig;
use triad_sim::events::{emit, SharedEventSink, Value};
use triad_sim::stats::{Histogram, Scope, StatRegister, StatRegistry};
use triad_sim::time::{Duration, Time};
use triad_sim::{AddrSet, BlockAddr, PhysAddr, BLOCK_BYTES};

use crate::batch::{PathHashes, PathNode, PendingBatch};
use crate::error::{CrashHookKind, IntegrityKind, SecureMemoryError};
use crate::recovery::{CorruptRange, RecoveryReport};
use crate::registers::{PersistentRegisters, StagedWrite};
use crate::scheme::{CounterPersistence, KeyPolicy, PersistScheme};

/// Shorthand for results of secure-memory operations.
pub type Result<T> = std::result::Result<T, SecureMemoryError>;

/// Whether the engine is running or waiting for recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EngineState {
    Running,
    Crashed,
    /// Recovery declared the persistent region unverifiable.
    PersistentPoisoned,
}

/// Aggregate statistics of the secure engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SecureStats {
    /// Loads served (block granularity).
    pub loads: u64,
    /// Loads that hit in L3.
    pub l3_load_hits: u64,
    /// Stores served.
    pub stores: u64,
    /// Persist operations (`store; clwb; sfence`).
    pub persists: u64,
    /// Reads satisfied as "fresh" (never-written) blocks.
    pub fresh_reads: u64,
    /// Lazy counter-block initialisations (§3.3.4 first-touch).
    pub lazy_counter_inits: u64,
    /// Data blocks encrypted and written to NVM.
    pub nvm_data_writes: u64,
    /// Data blocks fetched from NVM.
    pub nvm_data_reads: u64,
    /// Counter blocks written to NVM (persist path).
    pub counter_writes_persist: u64,
    /// Counter blocks written to NVM (eviction path).
    pub counter_writes_evict: u64,
    /// MAC blocks written to NVM (persist path).
    pub mac_writes_persist: u64,
    /// MAC blocks written to NVM (eviction path).
    pub mac_writes_evict: u64,
    /// BMT nodes written to NVM (persist path).
    pub node_writes_persist: u64,
    /// BMT nodes written to NVM (eviction path).
    pub node_writes_evict: u64,
    /// Counter blocks fetched from NVM.
    pub counter_reads: u64,
    /// MAC blocks fetched from NVM.
    pub mac_reads: u64,
    /// BMT nodes fetched from NVM.
    pub node_reads: u64,
    /// Minor-counter overflows (whole-page re-encryptions).
    pub page_reencryptions: u64,
    /// Atomic persist protocol executions.
    pub atomic_persists: u64,
    /// Counter persists skipped by the Osiris relaxation.
    pub osiris_counter_skips: u64,
    /// Counter blocks reconstructed by the Osiris search at access
    /// time after a crash.
    pub osiris_recoveries: u64,
    /// Persist calls that wrote a block back (each runs one batch).
    pub batches: u64,
    /// Members across all those batches.
    pub batch_members: u64,
    /// NVM writes merged away by batching: writes staged minus writes
    /// the coalesced commits performed.
    pub batch_writes_merged: u64,
    /// BMT node hashes the durability loop computed to update the tree
    /// (root and counter-block hashes, verification and eviction-path
    /// hashes excluded). A batch hashes each node its walks touch once
    /// per settle of its owed hashes: at its commit, and earlier only
    /// where one must land sooner (an injected crash, or a drain
    /// reaching an owed node's write-back).
    pub node_hashes: u64,
}

impl SecureStats {
    /// Total metadata writes attributable to strict persistence.
    pub fn persist_metadata_writes(&self) -> u64 {
        self.counter_writes_persist + self.mac_writes_persist + self.node_writes_persist
    }

    /// Total metadata writes from natural evictions.
    pub fn evict_metadata_writes(&self) -> u64 {
        self.counter_writes_evict + self.mac_writes_evict + self.node_writes_evict
    }
}

impl StatRegister for SecureStats {
    fn register(&self, scope: &mut Scope<'_>) {
        scope.set("loads", self.loads);
        scope.set("l3_load_hits", self.l3_load_hits);
        scope.set("stores", self.stores);
        scope.set("persists", self.persists);
        scope.set("fresh_reads", self.fresh_reads);
        scope.set("lazy_counter_inits", self.lazy_counter_inits);
        scope.set("nvm_data_writes", self.nvm_data_writes);
        scope.set("nvm_data_reads", self.nvm_data_reads);
        scope.set("counter_reads", self.counter_reads);
        scope.set("mac_reads", self.mac_reads);
        scope.set("node_reads", self.node_reads);
        scope.set("counter_writes_persist", self.counter_writes_persist);
        scope.set("counter_writes_evict", self.counter_writes_evict);
        scope.set("mac_writes_persist", self.mac_writes_persist);
        scope.set("mac_writes_evict", self.mac_writes_evict);
        scope.set("node_writes_persist", self.node_writes_persist);
        scope.set("node_writes_evict", self.node_writes_evict);
        scope.set("persist_metadata_writes", self.persist_metadata_writes());
        scope.set("evict_metadata_writes", self.evict_metadata_writes());
        scope.set("page_reencryptions", self.page_reencryptions);
        scope.set("atomic_persists", self.atomic_persists);
        scope.set("osiris_counter_skips", self.osiris_counter_skips);
        scope.set("osiris_recoveries", self.osiris_recoveries);
        scope.set("batches", self.batches);
        scope.set("batch_members", self.batch_members);
        scope.set("batch_writes_merged", self.batch_writes_merged);
        scope.set("node_hashes", self.node_hashes);
    }
}

/// Latency and depth distributions of the secure engine, attributing
/// per-op end-to-end time to its metadata components (BMT node,
/// counter and MAC fetches) — the overhead breakdown behind the
/// paper's Figure 8 gap between schemes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SecureHists {
    /// End-to-end latency of `load_block`/`store_block` (ns).
    pub op_latency_ns: Histogram,
    /// End-to-end latency of each persist call that wrote a block back
    /// (ns): every successful `persist_block`/`persist_batch`, and a
    /// `flush_block`/`flush_batch` that found a dirty block. A clean
    /// `flush_block` returns after the L3 lookup and records nothing.
    pub persist_latency_ns: Histogram,
    /// NVM-fetch latency of counter blocks, including verification (ns).
    pub counter_fetch_ns: Histogram,
    /// NVM-fetch latency of MAC blocks (ns).
    pub mac_fetch_ns: Histogram,
    /// NVM-fetch latency of BMT nodes, including verification (ns).
    pub node_fetch_ns: Histogram,
    /// Eviction-queue depth sampled at each drain.
    pub evict_queue_depth: Histogram,
}

impl StatRegister for SecureHists {
    fn register(&self, scope: &mut Scope<'_>) {
        scope.histogram("op_latency_ns", &self.op_latency_ns);
        scope.histogram("persist_latency_ns", &self.persist_latency_ns);
        scope.histogram("counter_fetch_ns", &self.counter_fetch_ns);
        scope.histogram("mac_fetch_ns", &self.mac_fetch_ns);
        scope.histogram("node_fetch_ns", &self.node_fetch_ns);
        scope.histogram("evict_queue_depth", &self.evict_queue_depth);
    }
}

/// A data region's bounds, for address arithmetic in user code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionHandle {
    start: PhysAddr,
    bytes: u64,
}

impl RegionHandle {
    /// First byte of the region's data area.
    pub fn start(&self) -> PhysAddr {
        self.start
    }

    /// Usable data bytes.
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether `addr` falls inside the data area.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        addr.0 >= self.start.0 && addr.0 < self.start.0 + self.bytes
    }
}

/// Builder for [`SecureMemory`].
///
/// # Example
///
/// ```rust
/// use triad_core::{PersistScheme, SecureMemoryBuilder};
///
/// # fn main() -> Result<(), triad_core::SecureMemoryError> {
/// let mem = SecureMemoryBuilder::new()
///     .capacity_bytes(1 << 22)
///     .persistent_fraction_eighths(4)
///     .scheme(PersistScheme::triad_nvm(2))
///     .build()?;
/// assert!(mem.persistent_region().len_bytes() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SecureMemoryBuilder {
    config: SystemConfig,
    scheme: PersistScheme,
    key_policy: KeyPolicy,
    counter_persistence: CounterPersistence,
    key_seed: u64,
}

impl Default for SecureMemoryBuilder {
    fn default() -> Self {
        SecureMemoryBuilder::new()
    }
}

impl SecureMemoryBuilder {
    /// Starts from the small test configuration; override as needed.
    pub fn new() -> Self {
        SecureMemoryBuilder {
            config: SystemConfig::tiny(),
            scheme: PersistScheme::triad_nvm(1),
            key_policy: KeyPolicy::SessionCounter,
            counter_persistence: CounterPersistence::Strict,
            key_seed: 0x5EC0_11D5,
        }
    }

    /// Uses a complete [`SystemConfig`] (e.g. [`SystemConfig::isca19`]).
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the NVM capacity in bytes.
    pub fn capacity_bytes(mut self, bytes: u64) -> Self {
        self.config.mem.capacity_bytes = bytes;
        self
    }

    /// Sets the persistent-region fraction in eighths (§3.3.1 requires
    /// a whole number of eighths).
    pub fn persistent_fraction_eighths(mut self, eighths: u8) -> Self {
        self.config.persistent_eighths = eighths;
        self
    }

    /// Sets the persistence scheme.
    pub fn scheme(mut self, scheme: PersistScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the key policy (§3.3.2).
    pub fn key_policy(mut self, policy: KeyPolicy) -> Self {
        self.key_policy = policy;
        self
    }

    /// Sets the encryption-counter organisation (§2.1.2; split is the
    /// default, monolithic exists as an ablation).
    pub fn counter_mode(mut self, mode: triad_sim::config::CounterMode) -> Self {
        self.config.security.counter_mode = mode;
        self
    }

    /// Sets the counter-persistence policy (Osiris-style relaxation;
    /// see [`CounterPersistence`]).
    pub fn counter_persistence(mut self, policy: CounterPersistence) -> Self {
        self.counter_persistence = policy;
        self
    }

    /// Seeds key derivation (deterministic runs).
    pub fn key_seed(mut self, seed: u64) -> Self {
        self.key_seed = seed;
        self
    }

    /// Builds the engine, initialising both region trees over the
    /// all-zero NVM image.
    ///
    /// # Errors
    ///
    /// Returns [`SecureMemoryError::Config`] if the configuration fails
    /// validation.
    pub fn build(self) -> Result<SecureMemory> {
        if let CounterPersistence::Osiris { interval } = self.counter_persistence {
            if interval == 0 {
                return Err(SecureMemoryError::Config(
                    "osiris interval must be at least 1".to_string(),
                ));
            }
            if self.scheme.persisted_bmt_levels() < 1 {
                return Err(SecureMemoryError::Config(format!(
                    "osiris counter relaxation needs a persisted BMT level 1 \
                     as its recovery oracle; scheme {} does not persist it",
                    self.scheme
                )));
            }
        }
        SecureMemory::new(
            self.config,
            self.scheme,
            self.key_policy,
            self.counter_persistence,
            self.key_seed,
        )
    }
}

fn derive_key(seed: u64, purpose: u64) -> [u8; 16] {
    let mut k = [0u8; 16];
    let mut x = triad_sim::rng::SplitMix64::new(seed ^ purpose.wrapping_mul(0x9E37_79B9));
    k[..8].copy_from_slice(&x.next_u64().to_le_bytes());
    k[8..].copy_from_slice(&x.next_u64().to_le_bytes());
    k
}

/// A block displaced from an on-chip structure, carrying its current
/// value. Victims are *queued* and drained iteratively at the end of
/// each top-level operation — never handled recursively — so no two
/// live copies of the same metadata block can ever diverge.
#[derive(Debug, Clone)]
pub(crate) enum EvictItem {
    Data {
        addr: BlockAddr,
        plain: Block,
        dirty: bool,
    },
    Counter {
        addr: BlockAddr,
        value: AnyCounterBlock,
        dirty: bool,
    },
    Node {
        addr: BlockAddr,
        value: NodeBuf,
        dirty: bool,
    },
    Mac {
        addr: BlockAddr,
        value: NodeBuf,
        dirty: bool,
    },
}

/// The value of a Merkle-tree-cache line: the cache holds BMT nodes
/// and MAC blocks side by side (their addresses never overlap).
#[derive(Debug, Clone, Copy)]
pub(crate) enum MtLine {
    Node(NodeBuf),
    Mac(NodeBuf),
}

impl MtLine {
    pub(crate) fn buf(&self) -> NodeBuf {
        match self {
            MtLine::Node(buf) | MtLine::Mac(buf) => *buf,
        }
    }
}

/// Where a fetch finds a BMT node's newest value: on chip (a
/// Merkle-tree-cache line or a queued write-back, so trusted), staged in
/// the open batch (whose NVM copy is stale until it commits), or in NVM.
pub(crate) enum NodeSource {
    OnChip(NodeBuf),
    Staged(Block),
    Nvm,
}

impl EvictItem {
    pub(crate) fn addr(&self) -> BlockAddr {
        match self {
            EvictItem::Data { addr, .. }
            | EvictItem::Counter { addr, .. }
            | EvictItem::Node { addr, .. }
            | EvictItem::Mac { addr, .. } => *addr,
        }
    }
}

/// The secure memory controller (see module docs).
#[derive(Debug)]
pub struct SecureMemory {
    pub(crate) config: SystemConfig,
    pub(crate) map: MemoryMap,
    pub(crate) scheme: PersistScheme,
    key_policy: KeyPolicy,
    key_seed: u64,
    aes_persistent: Aes128,
    aes_volatile: Aes128,
    pub(crate) mac_engine: MacEngine,
    /// Each region's tree over an all-zero image, indexed by
    /// `RegionKind as usize` (the [`RegionKind::ALL`] order): the build
    /// writes it, the non-persistent region returns to it at every
    /// recovery, and rebuilds read the hashes of nodes still in it.
    fresh: [FreshTree; 2],
    pub(crate) mc: MemoryController,
    /// Shared L3; its lines hold the blocks' plaintext.
    pub(crate) l3: Cache<Block>,
    /// Counter cache; its lines hold the current counter blocks.
    pub(crate) ctr_cache: Cache<AnyCounterBlock>,
    /// Merkle-tree cache; its lines hold BMT nodes and MAC blocks.
    pub(crate) mt_cache: Cache<MtLine>,
    pub(crate) regs: PersistentRegisters,
    pub(crate) state: EngineState,
    pub(crate) counter_persistence: CounterPersistence,
    /// Updates since the last forced counter persist (Osiris mode).
    osiris_since: BTreeMap<u64, u8>,
    /// Non-persistent data blocks written this boot session (fresh
    /// anonymous pages read as zeros, like an OS zero page).
    np_written: AddrSet<u64>,
    boot_count: u64,
    pub(crate) stats: SecureStats,
    pub(crate) hists: SecureHists,
    /// Structured event tracing; `None` (the default) costs nothing.
    pub(crate) events: Option<SharedEventSink>,
    pub(crate) clock: Time,
    /// Victims awaiting their downstream write-back (see [`EvictItem`]).
    pub(crate) evict_queue: Vec<EvictItem>,
    /// The open write batch: every atomic write-back stages its update
    /// set into it, and its commit runs the register/WPQ protocol once
    /// for all of them (see [`crate::batch`]).
    pub(crate) batch: Option<PendingBatch>,
    /// The last committed batch's bookkeeping, cleared; the next batch
    /// reuses its tables.
    pub(crate) idle_batch: PendingBatch,
    /// The persisted-level node writes of the tree walk in progress,
    /// staged after the member's data, counter and MAC writes.
    pub(crate) path_writes: Vec<StagedWrite>,
    /// Test hook: the armed crash and how many more of its trigger
    /// points pass before it fires (see [`SecureMemory::arm_crash`]).
    pub(crate) crash_hook: Option<(CrashHookKind, u64)>,
}

impl SecureMemory {
    fn new(
        config: SystemConfig,
        scheme: PersistScheme,
        key_policy: KeyPolicy,
        counter_persistence: CounterPersistence,
        key_seed: u64,
    ) -> Result<Self> {
        config.validate().map_err(SecureMemoryError::Config)?;
        let map = MemoryMap::new(&config);
        let mac_engine = MacEngine::new(derive_key(key_seed, 2));
        let fresh = RegionKind::ALL.map(|kind| FreshTree::new(map.region(kind), &mac_engine));
        let mut engine = SecureMemory {
            aes_persistent: Aes128::new(&derive_key(key_seed, 0)),
            aes_volatile: Aes128::new(&derive_key(key_seed, 1)),
            mac_engine,
            fresh,
            mc: MemoryController::new(config.mem),
            l3: Cache::new("l3", config.l3),
            ctr_cache: Cache::new("ctr", config.security.counter_cache),
            mt_cache: Cache::new("mt", config.security.mt_cache),
            regs: PersistentRegisters::new(),
            state: EngineState::Running,
            counter_persistence,
            osiris_since: BTreeMap::new(),
            np_written: AddrSet::default(),
            boot_count: 1,
            stats: SecureStats::default(),
            hists: SecureHists::default(),
            events: None,
            clock: Time::ZERO,
            evict_queue: Vec::new(),
            batch: None,
            idle_batch: PendingBatch::default(),
            path_writes: Vec::new(),
            crash_hook: None,
            config,
            map,
            scheme,
            key_policy,
            key_seed,
        };
        // The image is all zero, so each region's tree is its fresh
        // tree: level 1 stays zero (the §3.3.4 sentinel) and only the
        // few levels above it are stored.
        for kind in RegionKind::ALL {
            let root =
                engine.fresh[kind as usize].reset(engine.mc.store_mut(), engine.map.region(kind));
            engine.set_root(kind, root);
        }
        Ok(engine)
    }

    // ----- small accessors -------------------------------------------------

    /// The persistence scheme in force.
    pub fn scheme(&self) -> PersistScheme {
        self.scheme
    }

    /// The key policy in force.
    pub fn key_policy(&self) -> KeyPolicy {
        self.key_policy
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The physical memory map.
    pub fn memory_map(&self) -> &MemoryMap {
        &self.map
    }

    /// Engine statistics.
    pub fn stats(&self) -> SecureStats {
        self.stats
    }

    /// Engine latency distributions.
    pub fn histograms(&self) -> &SecureHists {
        &self.hists
    }

    /// Routes structured events (WPQ lifecycle, metadata evictions,
    /// crash and recovery phases) from the engine and its memory
    /// controller into `sink`. Tracing is off until this is called.
    pub fn set_event_sink(&mut self, sink: SharedEventSink) {
        self.mc.set_event_sink(sink.clone());
        self.events = Some(sink);
    }

    /// Memory-controller statistics (NVM traffic, WPQ behaviour).
    pub fn mem_stats(&self) -> triad_mem::MemStats {
        self.mc.stats()
    }

    /// Per-block NVM wear statistics (physical drains).
    pub fn wear(&self) -> &triad_mem::WearTracker {
        self.mc.wear()
    }

    /// The raw NVM image — the attacker's view.
    pub fn nvm_image(&self) -> &SparseStore {
        self.mc.store()
    }

    /// Mutable NVM image, for tamper injection in security tests.
    pub fn nvm_image_mut(&mut self) -> &mut SparseStore {
        self.mc.store_mut()
    }

    /// The current boot session counter.
    pub fn session(&self) -> u32 {
        self.regs.session
    }

    /// The on-chip root node of a region's BMT.
    pub fn root(&self, kind: RegionKind) -> NodeBuf {
        match kind {
            RegionKind::Persistent => self.regs.persistent_root,
            RegionKind::NonPersistent => self.regs.non_persistent_root,
        }
    }

    pub(crate) fn set_root(&mut self, kind: RegionKind, root: NodeBuf) {
        match kind {
            RegionKind::Persistent => self.regs.persistent_root = root,
            RegionKind::NonPersistent => self.regs.non_persistent_root = root,
        }
    }

    /// Bounds of the persistent region's data area.
    pub fn persistent_region(&self) -> RegionHandle {
        let r = self.map.persistent();
        RegionHandle {
            start: r.data_base(),
            bytes: r.data_bytes(),
        }
    }

    /// Bounds of the non-persistent region's data area.
    pub fn non_persistent_region(&self) -> RegionHandle {
        let r = self.map.non_persistent();
        RegionHandle {
            start: r.data_base(),
            bytes: r.data_bytes(),
        }
    }

    /// The crash hook currently armed, if any. A hook that has fired
    /// is no longer armed.
    pub fn armed_crash_hook(&self) -> Option<CrashHookKind> {
        self.crash_hook.map(|(kind, _)| kind)
    }

    /// Arms the crash hook used by crash-consistency tests: the engine
    /// crashes after `n` further trigger points of `kind` (0 = at the
    /// very next one).
    ///
    /// * [`CrashHookKind::PersistBoundary`] crashes *instead of* the
    ///   `n`-th further durability point: one member of the durability
    ///   loop every persist call runs — the block of a
    ///   [`SecureMemory::persist_block`] or of a dirty
    ///   [`SecureMemory::flush_block`], one flushed member of
    ///   [`SecureMemory::flush_batch`], or one member of
    ///   [`SecureMemory::persist_batch`] (a batch of *n* members spans
    ///   *n* boundaries, exactly like *n* `persist_block` calls).
    ///   Each boundary counts one [`SecureStats::persists`], so a
    ///   history's `persists` is its boundary count. Sweeps that
    ///   enumerate every boundary of a fixed history arm this one.
    /// * [`CrashHookKind::WpqWrite`] crashes after `n` further WPQ
    ///   copies inside atomic persists, i.e. inside the §3.3.5
    ///   register protocol.
    ///
    /// One hook is armed at a time, and firing disarms it.
    ///
    /// [`SecureMemory::persist_batch`]: SecureMemory::persist_batch
    ///
    /// # Errors
    ///
    /// [`SecureMemoryError::CrashHookArmed`] when a hook is already
    /// armed; disarm it with [`SecureMemory::disarm_crash_hooks`]
    /// first.
    pub fn arm_crash(&mut self, kind: CrashHookKind, n: u64) -> Result<()> {
        if let Some((existing, _)) = self.crash_hook {
            return Err(SecureMemoryError::CrashHookArmed {
                existing,
                requested: kind,
            });
        }
        self.crash_hook = Some((kind, n));
        Ok(())
    }

    /// Disarms the armed crash hook, if any (idempotent).
    pub fn disarm_crash_hooks(&mut self) {
        self.crash_hook = None;
    }

    /// Consumes one trigger point of `kind` from the armed crash hook.
    /// Returns `true` when the hook fires: it is disarmed and the
    /// engine has crashed (`at` tags the `crash` event), so the caller
    /// must abandon the operation and surface
    /// [`SecureMemoryError::NeedsRecovery`]. The open batch's owed tree
    /// hashes settle first, so the registers keep the replayable
    /// prefix.
    pub(crate) fn crash_hook_fires(
        &mut self,
        kind: CrashHookKind,
        now: Time,
        at: impl FnOnce() -> (&'static str, Value),
    ) -> Result<bool> {
        match &mut self.crash_hook {
            Some((armed, left)) if *armed == kind && *left > 0 => *left -= 1,
            Some((armed, _)) if *armed == kind => {
                self.crash_hook = None;
                emit(
                    &self.events,
                    now,
                    "crash",
                    &[("injected", true.into()), at()],
                );
                let settled = self.settle_path_hashes();
                self.crash();
                return settled.map(|()| true);
            }
            _ => {}
        }
        Ok(false)
    }

    /// [`SecureMemory::crash_hook_fires`] at a durability point.
    pub(crate) fn persist_boundary_crash(&mut self, now: Time) -> Result<bool> {
        let at = || ("at", "persist_boundary".into());
        self.crash_hook_fires(CrashHookKind::PersistBoundary, now, at)
    }

    /// The internal clock of the convenience (untimed) API.
    pub fn now(&self) -> Time {
        self.clock
    }

    pub(crate) fn split_counters(&self) -> bool {
        self.config.security.counter_mode == triad_sim::config::CounterMode::Split
    }

    pub(crate) fn aes_for(&self, kind: RegionKind) -> &Aes128 {
        match (self.key_policy, kind) {
            (KeyPolicy::SessionCounter, _) => &self.aes_persistent,
            (KeyPolicy::DualKey, RegionKind::Persistent) => &self.aes_persistent,
            (KeyPolicy::DualKey, RegionKind::NonPersistent) => &self.aes_volatile,
        }
    }

    fn session_for(&self, kind: RegionKind) -> u32 {
        match (self.key_policy, kind) {
            // §3.3.2: persistent data always uses session 0 so it stays
            // decryptable across boots; non-persistent data uses the
            // current boot session.
            (KeyPolicy::SessionCounter, RegionKind::Persistent) => 0,
            (KeyPolicy::SessionCounter, RegionKind::NonPersistent) => self.regs.session,
            (KeyPolicy::DualKey, _) => 0,
        }
    }

    pub(crate) fn layout(&self, kind: RegionKind) -> &RegionLayout {
        self.map.region(kind)
    }

    pub(crate) fn check_running(&self) -> Result<()> {
        match self.state {
            EngineState::Running | EngineState::PersistentPoisoned => Ok(()),
            EngineState::Crashed => Err(SecureMemoryError::NeedsRecovery),
        }
    }

    /// Rejects a persist before any state changes unless the engine
    /// runs, every block lies in the persistent region, and that region
    /// was recovered.
    pub(crate) fn check_persist_targets(
        &self,
        blocks: impl IntoIterator<Item = BlockAddr>,
    ) -> Result<()> {
        self.check_running()?;
        for block in blocks {
            if self.map.data_region_of(block) != Some(RegionKind::Persistent) {
                return Err(SecureMemoryError::NotPersistent { addr: block.base() });
            }
        }
        if self.state == EngineState::PersistentPoisoned {
            return Err(SecureMemoryError::Unverifiable {
                reason: "persistent region was not recovered".to_string(),
            });
        }
        Ok(())
    }

    // ----- cache wrappers: victims are queued, never handled inline --------

    /// Queues an L3 victim's plaintext for write-back.
    fn queue_l3_victim(&mut self, out: AccessOutcome<Block>) {
        if let Some(Victim {
            addr,
            dirty,
            value: Some(plain),
        }) = out.victim
        {
            self.evict_queue
                .push(EvictItem::Data { addr, plain, dirty });
        }
    }

    pub(crate) fn l3_fill(&mut self, block: BlockAddr, write: bool, plain: Block) {
        let out = self.l3.fill(block, write, plain);
        self.queue_l3_victim(out);
    }

    fn ctr_fill(&mut self, block: BlockAddr, write: bool, value: AnyCounterBlock) {
        let out = self.ctr_cache.fill(block, write, value);
        if let Some(Victim {
            addr,
            dirty,
            value: Some(value),
        }) = out.victim
        {
            self.evict_queue
                .push(EvictItem::Counter { addr, value, dirty });
        }
    }

    /// Fills a Merkle-tree-cache line. A displaced node whose hash the
    /// open batch still owes stays on chip in the queue, where a settle
    /// reads and writes it (see [`crate::batch`]).
    fn mt_fill(&mut self, block: BlockAddr, write: bool, value: MtLine) {
        let out = self.mt_cache.fill(block, write, value);
        if let Some(Victim {
            addr,
            dirty,
            value: Some(value),
        }) = out.victim
        {
            self.evict_queue.push(match value {
                MtLine::Node(value) => EvictItem::Node { addr, value, dirty },
                MtLine::Mac(value) => EvictItem::Mac { addr, value, dirty },
            });
        }
    }

    /// Pulls a still-queued victim back on chip (a fetch racing its own
    /// pending write-back must see the newest value, not stale NVM).
    pub(crate) fn reclaim(&mut self, addr: BlockAddr) -> Option<EvictItem> {
        let pos = self.evict_queue.iter().position(|e| e.addr() == addr)?;
        Some(self.evict_queue.remove(pos))
    }

    /// Drains the eviction queue: every dirty victim is written to NVM
    /// and its parent's hash slot refreshed (the §3.2 lazy-propagation
    /// discipline). Handlers may queue further victims; the loop runs
    /// until quiescence. A node whose hash the open batch owes leaves
    /// only after a settle (see [`crate::batch`]). A victim whose
    /// write-back fails goes back on top of the queue, readable through
    /// [`SecureMemory::reclaim`], unless a crash in its own commit
    /// cleared the queue: every later drain retries it first, and fails
    /// on it while its tree path stays tampered, until a fetch of its
    /// block takes it back on chip or the engine crashes.
    pub(crate) fn drain_evictions(&mut self, now: Time) -> Result<()> {
        self.hists
            .evict_queue_depth
            .record(self.evict_queue.len() as u64);
        while let Some(item) = self.evict_queue.pop() {
            // An owed node leaves the chip only once settled.
            if let EvictItem::Node { addr, .. } = item {
                if self.batch.as_ref().is_some_and(|p| p.hashes.owes(addr)) {
                    self.evict_queue.push(item);
                    self.settle_path_hashes()?;
                    continue;
                }
            }
            if self.events.is_some() {
                let kind = match &item {
                    EvictItem::Data { dirty, .. } if *dirty => Some("data"),
                    EvictItem::Counter { dirty, .. } if *dirty => Some("counter"),
                    EvictItem::Node { dirty, .. } if *dirty => Some("node"),
                    EvictItem::Mac { dirty, .. } if *dirty => Some("mac"),
                    _ => None,
                };
                if let Some(kind) = kind {
                    emit(
                        &self.events,
                        now,
                        "meta_evict",
                        &[("kind", kind.into()), ("addr", item.addr().0.into())],
                    );
                }
            }
            let written = match item {
                EvictItem::Data { addr, plain, dirty } if dirty => {
                    self.writeback_victim(addr, plain, now)
                }
                EvictItem::Counter { addr, value, dirty } if dirty => {
                    let kind = self.map.region_of(addr.base()).ok_or_else(|| {
                        SecureMemoryError::internal(format!(
                            "queued counter block {addr} is outside every region"
                        ))
                    })?;
                    let leaf = self.layout(kind).leaf_index(addr);
                    let bytes = value.to_bytes();
                    self.mc.write(addr, bytes, now);
                    self.batch_refresh(addr, bytes);
                    self.stats.counter_writes_evict += 1;
                    let h = bmt::leaf_hash(&self.mac_engine, kind, leaf, &bytes);
                    self.bump_parent_slot(kind, 0, leaf, h, now)
                }
                EvictItem::Node { addr, value, dirty } if dirty => {
                    let kind = self.map.region_of(addr.base()).ok_or_else(|| {
                        SecureMemoryError::internal(format!(
                            "queued BMT node {addr} is outside every region"
                        ))
                    })?;
                    let layout = self.layout(kind);
                    let BlockRole::BmtNode(level) = layout.role_of(addr) else {
                        unreachable!("queued node at {addr} is not a BMT node");
                    };
                    let index = addr - layout.bmt_level_start[level as usize - 1];
                    self.mc.write(addr, value.0, now);
                    self.batch_refresh(addr, value.0);
                    self.stats.node_writes_evict += 1;
                    let h = bmt::node_hash(
                        &self.mac_engine,
                        NodeId {
                            region: kind,
                            level,
                            index,
                        },
                        &value.0,
                    );
                    self.bump_parent_slot(kind, level, index, h, now)
                }
                EvictItem::Mac { addr, value, dirty } if dirty => {
                    self.mc.write(addr, value.0, now);
                    self.batch_refresh(addr, value.0);
                    self.stats.mac_writes_evict += 1;
                    Ok(())
                }
                // A clean victim leaves without a write-back.
                _ => Ok(()),
            };
            if let Err(e) = written {
                // A crash in a data victim's own commit has cleared the
                // queue.
                if self.state != EngineState::Crashed {
                    self.evict_queue.push(item);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Updates the parent slot of node `(level, index)` after its NVM
    /// copy changed (lazy propagation: the §3.2 eviction discipline).
    fn bump_parent_slot(
        &mut self,
        kind: RegionKind,
        level: u8,
        index: u64,
        hash: Mac64,
        now: Time,
    ) -> Result<()> {
        let layout = self.layout(kind);
        let geom = &layout.geometry;
        let (p_level, p_index) = geom.parent(level, index);
        let slot = geom.child_slot(index);
        if p_level == geom.root_level() {
            let mut root = self.root(kind);
            root.set_slot(slot, hash);
            self.set_root(kind, root);
            return Ok(());
        }
        let addr = self.node_addr(kind, p_level, p_index)?;
        self.ensure_node(kind, p_level, p_index, now)?;
        let Some(MtLine::Node(entry)) = self.mt_cache.hit(addr, true) else {
            return Err(SecureMemoryError::internal(format!(
                "ensure_node left no resident node at {addr}"
            )));
        };
        entry.set_slot(slot, hash);
        Ok(())
    }

    // ----- metadata fetch with verification ---------------------------------

    /// Returns the current value of BMT node `(level, index)`, fetching
    /// and verifying it from NVM if it is not on chip.
    fn ensure_node(
        &mut self,
        kind: RegionKind,
        level: u8,
        index: u64,
        now: Time,
    ) -> Result<(NodeBuf, Time)> {
        if level == self.layout(kind).geometry.root_level() {
            return Ok((self.root(kind), now));
        }
        let addr = self.node_addr(kind, level, index)?;
        if let Some(line) = self.mt_cache.hit(addr, false) {
            return Ok((line.buf(), now + self.mt_cache.latency()));
        }
        let (bytes, t) = match self.node_source(addr) {
            NodeSource::OnChip(value) => {
                // A pending write-back, pulled back on chip.
                if let Some(EvictItem::Node { dirty, .. }) = self.reclaim(addr) {
                    self.mt_fill(addr, dirty, MtLine::Node(value));
                }
                return Ok((value, now + self.mt_cache.latency()));
            }
            NodeSource::Staged(bytes) => (bytes, now),
            NodeSource::Nvm => self.mc.read(addr, now),
        };
        self.stats.node_reads += 1;
        let (p_level, p_index) = self.layout(kind).geometry.parent(level, index);
        let (parent, tp) = self.ensure_node(kind, p_level, p_index, now)?;
        self.verify_node(kind, level, index, &bytes, &parent)?;
        let buf = NodeBuf(bytes);
        self.mt_fill(addr, false, MtLine::Node(buf));
        let done = t.max(tp) + self.config.security.hash_latency;
        self.hists.node_fetch_ns.record(done.since(now).as_ns());
        Ok((buf, done))
    }

    /// The address of BMT node `(level, index)` below the root.
    pub(crate) fn node_addr(&self, kind: RegionKind, level: u8, index: u64) -> Result<BlockAddr> {
        let addr = self.layout(kind).bmt_node_addr(level, index);
        addr.ok_or_else(|| SecureMemoryError::internal(format!("no BMT node ({level}, {index})")))
    }

    /// Where [`SecureMemory::ensure_node`] (after a cache miss),
    /// [`SecureMemory::check_path`] and a settle find node `addr`'s
    /// newest value. They look at its cache line, its queued write-back,
    /// the open batch's staged copy and NVM, in order.
    pub(crate) fn node_source(&self, addr: BlockAddr) -> NodeSource {
        let queued = || {
            self.evict_queue.iter().find_map(|item| match item {
                EvictItem::Node { addr: a, value, .. } if *a == addr => Some(*value),
                _ => None,
            })
        };
        if let Some(value) = self.mt_cache.get(addr).map(MtLine::buf).or_else(queued) {
            return NodeSource::OnChip(value);
        }
        self.batch_forward(addr)
            .map_or(NodeSource::Nvm, NodeSource::Staged)
    }

    /// Checks node `(level, index)`'s off-chip `bytes` against the
    /// slot its verified `parent` holds for it.
    fn verify_node(
        &self,
        kind: RegionKind,
        level: u8,
        index: u64,
        bytes: &Block,
        parent: &NodeBuf,
    ) -> Result<()> {
        let id = NodeId {
            region: kind,
            level,
            index,
        };
        let slot = self.layout(kind).geometry.child_slot(index);
        if parent.slot(slot) == bmt::node_hash(&self.mac_engine, id, bytes) {
            return Ok(());
        }
        Err(SecureMemoryError::IntegrityViolation {
            kind: IntegrityKind::BmtNode,
            block: self.node_addr(kind, level, index)?,
        })
    }

    /// Verifies the tree path above counter leaf `leaf` as
    /// [`SecureMemory::update_path`]'s fetches would, changing nothing
    /// and charging no time. The fetches verify each run of off-chip
    /// nodes from its top, lowest run first, so the lowest failing
    /// run's highest mismatch is named.
    fn check_path(&self, kind: RegionKind, leaf: u64) -> Result<()> {
        let geom = &self.layout(kind).geometry;
        let mut parent = self.root(kind);
        let (mut failed, mut run_failed) = (Ok(()), false);
        for level in (1..geom.root_level()).rev() {
            let index = leaf / geom.arity().pow(u32::from(level));
            let addr = self.node_addr(kind, level, index)?;
            let bytes = match self.node_source(addr) {
                NodeSource::OnChip(value) => {
                    (parent, run_failed) = (value, false);
                    continue;
                }
                NodeSource::Staged(bytes) => bytes,
                NodeSource::Nvm => self.mc.store().read(addr),
            };
            if !run_failed {
                if let Err(e) = self.verify_node(kind, level, index, &bytes, &parent) {
                    (failed, run_failed) = (Err(e), true);
                }
            }
            parent = NodeBuf(bytes);
        }
        failed
    }

    /// Returns the current counter block for leaf `leaf`, fetching and
    /// verifying from NVM on a counter-cache miss. Handles the §3.3.4
    /// lazy first-touch of non-persistent counters.
    fn ensure_counter(
        &mut self,
        kind: RegionKind,
        leaf: u64,
        now: Time,
    ) -> Result<(AnyCounterBlock, Time)> {
        let addr = self.layout(kind).counter_start + leaf;
        if let Some(cb) = self.ctr_cache.hit(addr, false) {
            let cb = *cb;
            return Ok((cb, now + self.ctr_cache.latency()));
        }
        if let Some(EvictItem::Counter { value, dirty, .. }) = self.reclaim(addr) {
            self.ctr_fill(addr, dirty, value);
            return Ok((value, now + self.ctr_cache.latency()));
        }
        let (bytes, t) = match self.batch_forward(addr) {
            Some(fwd) => (fwd, now),
            None => self.mc.read(addr, now),
        };
        self.stats.counter_reads += 1;
        let h = bmt::leaf_hash(&self.mac_engine, kind, leaf, &bytes);
        let geom = &self.layout(kind).geometry;
        let (p_level, p_index) = geom.parent(0, leaf);
        let slot = geom.child_slot(leaf);
        let (parent, tp) = self.ensure_node(kind, p_level, p_index, now)?;
        let expected = parent.slot(slot);
        let split = self.split_counters();
        let cb = if expected == h {
            AnyCounterBlock::from_bytes(split, &bytes)
        } else if expected.is_zero() && kind == RegionKind::NonPersistent {
            // First touch after a crash: the stale NVM counter is
            // discarded and the block restarts from zero (§3.3.4).
            self.stats.lazy_counter_inits += 1;
            AnyCounterBlock::fresh(split)
        } else if let Some(recovered) = self.osiris_search(kind, leaf, &bytes, expected, now)? {
            // Osiris: the stale counter was reconstructed from the
            // strictly persisted MACs and validated against the tree.
            self.mc.write(addr, recovered.to_bytes(), now);
            self.stats.counter_writes_persist += 1;
            recovered
        } else {
            return Err(SecureMemoryError::IntegrityViolation {
                kind: IntegrityKind::Counter,
                block: addr,
            });
        };
        self.ctr_fill(addr, false, cb);
        let done = t.max(tp) + self.config.security.hash_latency;
        self.hists.counter_fetch_ns.record(done.since(now).as_ns());
        Ok((cb, done))
    }

    /// Osiris counter reconstruction (Ye et al., MICRO'18 — the
    /// relaxation the paper's §6 cites as orthogonal): a counter block
    /// whose hash mismatches its (strictly persisted) BMT parent slot
    /// is reconstructed by trying up to `interval` consecutive counter
    /// values per data block against the strictly persisted MACs, then
    /// validated as a whole against the parent slot. Returns
    /// `Ok(None)` when reconstruction is impossible (true tampering,
    /// or Osiris inactive).
    fn osiris_search(
        &mut self,
        kind: RegionKind,
        leaf: u64,
        stored: &Block,
        expected: Mac64,
        now: Time,
    ) -> Result<Option<AnyCounterBlock>> {
        let CounterPersistence::Osiris { interval } = self.counter_persistence else {
            return Ok(None);
        };
        if kind != RegionKind::Persistent {
            return Ok(None);
        }
        let layout = self.layout(kind);
        let (coverage, data_blocks, data_start) = (
            layout.counter_coverage,
            layout.data_blocks,
            layout.data_start,
        );
        let split = self.split_counters();
        let mut cb = AnyCounterBlock::from_bytes(split, stored);
        for s in 0..coverage as usize {
            let data_index = leaf * coverage + s as u64;
            if data_index >= data_blocks {
                break;
            }
            let (mac_buf, _) = self.ensure_mac_block(kind, data_index, now)?;
            let tag = mac_buf.slot((data_index % 8) as usize);
            if tag.is_zero() {
                continue; // never written: stored (zero) counter stands
            }
            let block = data_start + data_index;
            let (ct, _) = self.mc.read(block, now);
            let mut trial = cb;
            let mut found = false;
            for _ in 0..=interval {
                let pair = trial.pair(s);
                let iv = self.data_iv(kind, block, pair.major, pair.minor);
                if self.data_tag(block, &ct, &iv) == tag {
                    cb = trial;
                    found = true;
                    break;
                }
                if trial.increment(s) == IncrementOutcome::MajorOverflow {
                    // A lost page re-encryption cannot be searched for;
                    // give up on this block.
                    break;
                }
            }
            if !found {
                return Ok(None);
            }
        }
        let bytes = cb.to_bytes();
        let h = bmt::leaf_hash(&self.mac_engine, kind, leaf, &bytes);
        if h == expected {
            self.stats.osiris_recoveries += 1;
            Ok(Some(cb))
        } else {
            Ok(None)
        }
    }

    /// Returns the MAC block for data index `data_index` (8 tags per
    /// block), fetching from NVM on a miss. MAC blocks are keyed tags
    /// and need no tree verification.
    fn ensure_mac_block(
        &mut self,
        kind: RegionKind,
        data_index: u64,
        now: Time,
    ) -> Result<(NodeBuf, Time)> {
        let addr = self.layout(kind).mac_start + data_index / 8;
        if let Some(line) = self.mt_cache.hit(addr, false) {
            let buf = line.buf();
            return Ok((buf, now + self.mt_cache.latency()));
        }
        if let Some(EvictItem::Mac { value, dirty, .. }) = self.reclaim(addr) {
            self.mt_fill(addr, dirty, MtLine::Mac(value));
            return Ok((value, now + self.mt_cache.latency()));
        }
        let (bytes, t) = match self.batch_forward(addr) {
            Some(fwd) => (fwd, now),
            None => self.mc.read(addr, now),
        };
        self.stats.mac_reads += 1;
        let buf = NodeBuf(bytes);
        self.mt_fill(addr, false, MtLine::Mac(buf));
        self.hists.mac_fetch_ns.record(t.since(now).as_ns());
        Ok((buf, t))
    }

    pub(crate) fn data_iv(&self, kind: RegionKind, block: BlockAddr, major: u64, minor: u8) -> Iv {
        Iv {
            page: block.page(),
            offset: block.page_offset() as u8,
            major,
            minor,
            session: self.session_for(kind),
        }
    }

    fn data_tag(&self, block: BlockAddr, ct: &Block, iv: &Iv) -> Mac64 {
        let t = self.mac_engine.data_mac(block.0, ct, iv);
        // Zero is reserved as the "never written" marker.
        if t.is_zero() {
            Mac64(1)
        } else {
            t
        }
    }

    // ----- write-back / persist path ----------------------------------------

    /// Encrypts and writes `block` to NVM, updating counter, MAC and
    /// tree according to the region and scheme; an atomic write-back
    /// stages into the open batch, which the caller commits.
    pub(crate) fn writeback_data(
        &mut self,
        block: BlockAddr,
        plaintext: Block,
        now: Time,
    ) -> Result<Time> {
        let kind = self
            .map
            .data_region_of(block)
            .ok_or(SecureMemoryError::OutOfRange { addr: block.base() })?;
        let layout = self.layout(kind);
        let data_index = layout.data_index(block);
        let coverage = layout.counter_coverage;
        let leaf = data_index / coverage;
        let slot = (data_index % coverage) as usize;
        let counter_addr = layout.counter_start + leaf;
        let mac_addr = layout.mac_start + data_index / 8;
        let root_level = layout.geometry.root_level();
        // Region awareness is Triad-NVM's contribution: `TriadNvm`
        // applies atomic metadata persistence only to the persistent
        // region, while `Strict` (prior work) is region-oblivious and
        // pays it for *every* NVM write — the §5.1 observation that
        // write-intensive non-persistent workloads (e.g. libquantum)
        // gain an order of magnitude from region-aware relaxation.
        let atomic = self.scheme.persists_metadata()
            && (kind == RegionKind::Persistent || self.scheme == PersistScheme::Strict);

        // 1. Verify the tree path the atomic walk will update, then
        //    advance the counter: a write-back that fails verification
        //    changes nothing on chip.
        let (mut cb, mut t) = self.ensure_counter(kind, leaf, now)?;
        if atomic {
            self.check_path(kind, leaf)?;
        }
        let old_cb = cb;
        let outcome = cb.increment(slot);
        self.ctr_fill(counter_addr, true, cb);

        // 2. Encrypt and MAC the block.
        let pair = cb.pair(slot);
        let iv = self.data_iv(kind, block, pair.major, pair.minor);
        let ct = encrypt_block(self.aes_for(kind), &iv, &plaintext);
        let tag = self.data_tag(block, &ct, &iv);
        let (mut mac_buf, t_mac) = self.ensure_mac_block(kind, data_index, now)?;
        mac_buf.set_slot((data_index % 8) as usize, tag);
        self.mt_fill(mac_addr, true, MtLine::Mac(mac_buf));
        t = t.max(t_mac) + self.config.security.hash_latency;

        // 3. Minor overflow: the whole page re-encrypts under the new
        //    major counter (§2.1.2).
        if outcome == IncrementOutcome::MajorOverflow {
            self.stats.page_reencryptions += 1;
            t = self
                .reencrypt_page(kind, leaf, slot, &old_cb, &cb, atomic, now)?
                .max(t);
            // The re-encryption retagged the other blocks of this MAC
            // block on chip: persist that copy, not the one captured
            // before it (fetching it back if it was evicted meanwhile).
            mac_buf = match self.mt_cache.get(mac_addr) {
                Some(line) => line.buf(),
                None => self.ensure_mac_block(kind, data_index, now)?.0,
            };
        }

        // 4. Propagate to the tree and to NVM.
        let counter_bytes = cb.to_bytes();
        let leaf_h = bmt::leaf_hash(&self.mac_engine, kind, leaf, &counter_bytes);
        self.stats.nvm_data_writes += 1;

        if atomic {
            // Update the full path to the root in on-chip state and
            // collect the strictly persisted levels.
            let persist_levels = self
                .scheme
                .persisted_bmt_levels()
                .min(root_level.saturating_sub(1));
            t = t.max(self.update_path(kind, leaf, leaf_h, persist_levels, now)?);
            // Osiris relaxation: skip the counter copy unless the
            // interval expired (recovery reconstructs skipped updates
            // from the MACs, §6 / Ye et al.).
            let persist_counter = match self.counter_persistence {
                CounterPersistence::Strict => true,
                CounterPersistence::Osiris { interval } => {
                    let since = self.osiris_since.entry(counter_addr.0).or_insert(0);
                    *since += 1;
                    if *since >= interval {
                        *since = 0;
                        true
                    } else {
                        self.stats.osiris_counter_skips += 1;
                        false
                    }
                }
            };
            // §3.3.5 protocol: stage → READY_BIT → WPQ copies → commit.
            // The open batch merges this update set last-wins into the
            // registers' staged update, which therefore always holds
            // the whole replayable prefix once the batch's owed tree
            // hashes settle (with the logged root), so the per-write
            // root advance stays crash-safe; the coalesced WPQ drain and
            // register commit happen once when the batch commits.
            self.batch_stage(block, ct)?;
            if persist_counter {
                self.batch_stage(counter_addr, counter_bytes)?;
            }
            self.batch_stage(mac_addr, mac_buf.0)?;
            for i in 0..self.path_writes.len() {
                let w = self.path_writes[i];
                self.batch_stage(w.addr, w.data)?;
            }
            // Persisted metadata is now clean on chip (under Osiris the
            // skipped counter stays dirty until its forced persist or
            // natural eviction).
            if persist_counter {
                self.ctr_cache.flush(counter_addr);
            }
            self.mt_cache.flush(mac_addr);
            for w in &self.path_writes {
                self.mt_cache.flush(w.addr);
            }
            self.path_writes.clear();
        } else {
            // Lazy path: only the ciphertext goes to NVM now; counter,
            // MAC and tree propagate on eviction.
            t = self.mc.write(block, ct, t);
        }
        Ok(t)
    }

    /// Re-encrypts all other blocks of a page after a minor-counter
    /// overflow reset the page to a new major counter. An `atomic`
    /// region stages the new ciphertexts (and, if persistent, the
    /// page's MAC blocks) into the open batch.
    #[allow(clippy::too_many_arguments)] // mirrors the hardware datapath's operands
    fn reencrypt_page(
        &mut self,
        kind: RegionKind,
        leaf: u64,
        written_slot: usize,
        old_cb: &AnyCounterBlock,
        new_cb: &AnyCounterBlock,
        atomic: bool,
        now: Time,
    ) -> Result<Time> {
        let layout = self.layout(kind);
        let (coverage, data_blocks, data_start, mac_start) = (
            layout.counter_coverage,
            layout.data_blocks,
            layout.data_start,
            layout.mac_start,
        );
        let mut t = now;
        let mut touched_macs = BTreeSet::new();
        for s in 0..coverage as usize {
            if s == written_slot {
                continue;
            }
            let data_index = leaf * coverage + s as u64;
            if data_index >= data_blocks {
                break;
            }
            let block = data_start + data_index;
            let (mac_buf, _) = self.ensure_mac_block(kind, data_index, now)?;
            let tag = mac_buf.slot((data_index % 8) as usize);
            // Get the plaintext: cached, fresh, or decrypt the old
            // ciphertext.
            let queued_plain = self.evict_queue.iter().find_map(|e| match e {
                EvictItem::Data { addr, plain, .. } if *addr == block => Some(*plain),
                _ => None,
            });
            let plaintext = if let Some(p) = self.l3.get(block) {
                *p
            } else if let Some(p) = queued_plain {
                p
            } else if tag.is_zero() {
                [0u8; BLOCK_BYTES] // never written
            } else {
                // An open batch may hold a newer staged ciphertext for
                // this block than the (stale) NVM copy.
                let (ct_old, tr) = match self.batch_forward(block) {
                    Some(fwd) => (fwd, now),
                    None => self.mc.read(block, now),
                };
                t = t.max(tr);
                let old_pair = old_cb.pair(s);
                let iv_old = self.data_iv(kind, block, old_pair.major, old_pair.minor);
                decrypt_block(self.aes_for(kind), &iv_old, &ct_old)
            };
            let new_pair = new_cb.pair(s);
            let iv_new = self.data_iv(kind, block, new_pair.major, new_pair.minor);
            let ct_new = encrypt_block(self.aes_for(kind), &iv_new, &plaintext);
            let new_tag = self.data_tag(block, &ct_new, &iv_new);
            let (mut mac_buf, _) = self.ensure_mac_block(kind, data_index, now)?;
            mac_buf.set_slot((data_index % 8) as usize, new_tag);
            let mac_addr = mac_start + data_index / 8;
            self.mt_fill(mac_addr, true, MtLine::Mac(mac_buf));
            touched_macs.insert(mac_addr.0);
            // An atomic region's re-encrypted ciphertext stages (a
            // direct write would be clobbered by the batch commit or
            // its recovery replay); lazy-path regions write directly.
            if atomic {
                self.batch_stage(block, ct_new)?;
            } else {
                t = self.mc.write(block, ct_new, t);
            }
            self.stats.nvm_data_writes += 1;
        }
        if kind == RegionKind::Persistent && atomic {
            // The whole page's tags must reach the persistence domain
            // with the re-encrypted data, or a crash would leave new
            // ciphertext under stale NVM tags.
            for mac_addr in touched_macs {
                if let Some(line) = self.mt_cache.get(BlockAddr(mac_addr)) {
                    let data = line.buf().0;
                    self.batch_stage(BlockAddr(mac_addr), data)?;
                    self.mt_cache.flush(BlockAddr(mac_addr));
                }
            }
        }
        Ok(t)
    }

    /// Updates the tree path above `leaf` on chip and returns the time
    /// its hashes are done. Every level's node is fetched, touched and,
    /// up to `persist_levels`, appended to `path_writes`, and the
    /// counter's hash enters its level-1 slot. Each node's own hash is
    /// owed to its parent's slot, or the root's, until the open batch
    /// settles it (see [`crate::batch`]), so a node several members
    /// touch is hashed once. The caller ran [`SecureMemory::check_path`]
    /// first, so a fetch that fails is an `Internal` error.
    fn update_path(
        &mut self,
        kind: RegionKind,
        leaf: u64,
        leaf_hash: Mac64,
        persist_levels: u8,
        now: Time,
    ) -> Result<Time> {
        let geom = &self.layout(kind).geometry;
        let (root_level, arity) = (geom.root_level(), geom.arity());
        let hash_latency = self.config.security.hash_latency;
        self.path_writes.clear();
        // The node below the current level; `None` is the counter leaf,
        // whose hash is already known.
        let mut child: Option<PathNode> = None;
        let mut child_index = leaf;
        let mut t = now;
        for level in 1..=root_level {
            let slot = (child_index % arity) as usize;
            let index = child_index / arity;
            if level == root_level {
                match child {
                    Some(node) => self.path_hashes()?.owe(node),
                    None => {
                        let mut root = self.root(kind);
                        root.set_slot(slot, leaf_hash);
                        self.set_root(kind, root);
                    }
                }
                if kind == RegionKind::Persistent {
                    self.path_hashes()?.log_root();
                }
                return Ok(t + hash_latency);
            }
            let (mut buf, tn) = self.ensure_node(kind, level, index, now).map_err(|e| {
                SecureMemoryError::internal(format!("a tree walk failed past its path check: {e}"))
            })?;
            match child {
                None => buf.set_slot(slot, leaf_hash),
                Some(node) => self.path_hashes()?.owe(node),
            }
            let addr = self.node_addr(kind, level, index)?;
            let persist_this = level <= persist_levels;
            self.mt_fill(addr, !persist_this, MtLine::Node(buf));
            if persist_this {
                self.path_writes.push(StagedWrite { addr, data: buf.0 });
            }
            t = t.max(tn) + hash_latency;
            child = Some(PathNode {
                kind,
                level,
                index,
                addr,
            });
            child_index = index;
        }
        unreachable!("loop returns at root level");
    }

    /// The open batch's owed tree hashes: every tree walk runs inside a
    /// batch.
    fn path_hashes(&mut self) -> Result<&mut PathHashes> {
        self.batch
            .as_mut()
            .map(|pending| &mut pending.hashes)
            .ok_or_else(|| SecureMemoryError::internal("tree walk with no open batch".to_string()))
    }

    // ----- public timed block API -------------------------------------------

    /// Loads one 64-byte block (the L3-and-below path the private
    /// caches call on their misses). Returns plaintext and completion
    /// time.
    ///
    /// # Errors
    ///
    /// * [`SecureMemoryError::OutOfRange`] outside any data area.
    /// * [`SecureMemoryError::MacMismatch`] /
    ///   [`SecureMemoryError::IntegrityViolation`] on tampering, also
    ///   from the write-back of a dirty victim (an L3 block, a counter
    ///   block or a tree node), which any call may run. That victim
    ///   stays queued and every later call retries it first, failing
    ///   the same way while the tamper stays, until a fetch takes it
    ///   back on chip (for an L3 block, a load or store of it) or the
    ///   engine crashes.
    /// * [`SecureMemoryError::NeedsRecovery`] after an unrecovered
    ///   crash, [`SecureMemoryError::Unverifiable`] for a poisoned
    ///   persistent region.
    pub fn load_block(&mut self, block: BlockAddr, now: Time) -> Result<(Block, Time)> {
        self.check_running()?;
        let kind = self
            .map
            .data_region_of(block)
            .ok_or(SecureMemoryError::OutOfRange { addr: block.base() })?;
        if kind == RegionKind::Persistent && self.state == EngineState::PersistentPoisoned {
            return Err(SecureMemoryError::Unverifiable {
                reason: "persistent region was not recovered".to_string(),
            });
        }
        self.stats.loads += 1;
        if let Some(data) = self.l3.hit(block, false) {
            let data = *data;
            self.stats.l3_load_hits += 1;
            self.drain_evictions(now)?;
            let done = now + self.l3.latency();
            self.hists.op_latency_ns.record(done.since(now).as_ns());
            return Ok((data, done));
        }
        // Miss: the line is allocated (displacing its victim) before the
        // fetch, and stays unfilled until the plaintext is known.
        let out = self.l3.access(block, false);
        self.queue_l3_victim(out);
        // The block may be sitting in its own pending write-back.
        if let Some(EvictItem::Data { plain, dirty, .. }) = self.reclaim(block) {
            self.l3.fill(block, dirty, plain);
            self.drain_evictions(now)?;
            let done = now + self.l3.latency();
            self.hists.op_latency_ns.record(done.since(now).as_ns());
            return Ok((plain, done));
        }
        // Fresh non-persistent blocks read as zeros (OS zero page).
        if kind == RegionKind::NonPersistent && !self.np_written.contains(&block.0) {
            self.stats.fresh_reads += 1;
            self.l3.set(block, [0; BLOCK_BYTES]);
            let (_, t) = self.mc.read(block, now);
            self.drain_evictions(now)?;
            self.hists.op_latency_ns.record(t.since(now).as_ns());
            return Ok(([0; BLOCK_BYTES], t));
        }
        let (plaintext, done) = match self.fetch_verified(kind, block, now) {
            Ok(fetched) => fetched,
            Err(e) => {
                // Drop the unfilled line: a retry must fetch and verify
                // again, not hit on a line that holds no plaintext.
                self.l3.invalidate(block);
                return Err(e);
            }
        };
        self.l3.set(block, plaintext);
        self.drain_evictions(now)?;
        self.hists.op_latency_ns.record(done.since(now).as_ns());
        Ok((plaintext, done))
    }

    /// The NVM path of a load miss: reads the ciphertext, fetches the
    /// counter and MAC, decrypts and checks the tag. Returns the
    /// plaintext and the time it is verified.
    fn fetch_verified(
        &mut self,
        kind: RegionKind,
        block: BlockAddr,
        now: Time,
    ) -> Result<(Block, Time)> {
        let layout = self.layout(kind);
        let data_index = layout.data_index(block);
        let leaf = data_index / layout.counter_coverage;
        let slot = (data_index % layout.counter_coverage) as usize;
        let (ct, t_data) = self.mc.read(block, now);
        self.stats.nvm_data_reads += 1;
        let (cb, t_ctr) = self.ensure_counter(kind, leaf, now)?;
        let (mac_buf, t_mac) = self.ensure_mac_block(kind, data_index, now)?;
        let tag = mac_buf.slot((data_index % 8) as usize);
        let pair = cb.pair(slot);
        let pair_fresh = pair.major == 0 && pair.minor == 0;
        let plaintext = if tag.is_zero() && pair_fresh {
            self.stats.fresh_reads += 1;
            [0u8; BLOCK_BYTES]
        } else {
            let iv = self.data_iv(kind, block, pair.major, pair.minor);
            let plaintext = decrypt_block(self.aes_for(kind), &iv, &ct);
            if self.data_tag(block, &ct, &iv) != tag {
                return Err(SecureMemoryError::MacMismatch { block });
            }
            plaintext
        };
        // Decryption overlaps the data fetch (counter-mode); the MAC
        // check costs one hash after everything arrives.
        let done = t_data.max(t_ctr).max(t_mac) + self.config.security.hash_latency;
        Ok((plaintext, done))
    }

    /// Stores one full 64-byte block (write-allocate, write-back).
    /// Fast: the block is dirtied in L3 and encrypted only when it
    /// leaves the chip.
    ///
    /// # Errors
    ///
    /// Same classes as [`SecureMemory::load_block`].
    pub fn store_block(&mut self, block: BlockAddr, data: Block, now: Time) -> Result<Time> {
        self.check_running()?;
        let kind = self
            .map
            .data_region_of(block)
            .ok_or(SecureMemoryError::OutOfRange { addr: block.base() })?;
        if kind == RegionKind::Persistent && self.state == EngineState::PersistentPoisoned {
            return Err(SecureMemoryError::Unverifiable {
                reason: "persistent region was not recovered".to_string(),
            });
        }
        self.stats.stores += 1;
        if kind == RegionKind::NonPersistent {
            self.np_written.insert(block.0);
        }
        // Supersede any pending write-back of the same block.
        self.reclaim(block);
        self.l3_fill(block, true, data);
        self.drain_evictions(now)?;
        let done = now + self.l3.latency();
        self.hists.op_latency_ns.record(done.since(now).as_ns());
        Ok(done)
    }

    /// Persists one block (`store; clwb; sfence`): writes the data and
    /// stores it durably together with its security metadata according
    /// to the scheme. Returns the time the whole update set is inside
    /// the persistence domain.
    ///
    /// # Errors
    ///
    /// [`SecureMemoryError::NotPersistent`] if `block` is outside the
    /// persistent region, plus the classes of
    /// [`SecureMemory::load_block`].
    pub fn persist_block(&mut self, block: BlockAddr, data: Block, now: Time) -> Result<Time> {
        self.persist_batch(&[(block, data)], now)
    }

    /// Flushes an already-stored block (`clwb; sfence` without a new
    /// store): a dirty block runs the durability loop as a batch of
    /// one, and a clean block returns after the L3 lookup.
    ///
    /// # Errors
    ///
    /// The classes of [`SecureMemory::load_block`]. Unlike
    /// [`SecureMemory::persist_block`], a dirty block outside the
    /// persistent region is written back, not rejected. The flush first
    /// drains any write-backs a failed call left queued, and returns
    /// their error if one fails again.
    pub fn flush_block(&mut self, block: BlockAddr, now: Time) -> Result<Time> {
        self.check_running()?;
        self.drain_pending(now)?;
        match self.dirty_member(block) {
            Some(member) => self.persist_members(&[member], false, now),
            None => Ok(now + self.l3.latency()),
        }
    }

    // ----- convenience byte API ---------------------------------------------

    /// Reads the 64-byte block containing `addr` (untimed convenience
    /// API; advances the internal clock).
    ///
    /// # Errors
    ///
    /// Same classes as [`SecureMemory::load_block`].
    pub fn read(&mut self, addr: PhysAddr) -> Result<Block> {
        let (data, t) = self.load_block(addr.block(), self.clock)?;
        self.clock = t;
        Ok(data)
    }

    /// Writes `data` starting at `addr`, within one 64-byte block
    /// (read-modify-write for partial blocks).
    ///
    /// # Errors
    ///
    /// [`SecureMemoryError::OutOfRange`] if the write would cross a
    /// block boundary, plus the classes of
    /// [`SecureMemory::load_block`].
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) -> Result<()> {
        let offset = addr.block_offset();
        if offset + data.len() > BLOCK_BYTES {
            return Err(SecureMemoryError::OutOfRange { addr });
        }
        let block = addr.block();
        let mut buf = if data.len() == BLOCK_BYTES {
            [0u8; BLOCK_BYTES]
        } else {
            let (old, t) = self.load_block(block, self.clock)?;
            self.clock = t;
            old
        };
        buf[offset..offset + data.len()].copy_from_slice(data);
        let t = self.store_block(block, buf, self.clock)?;
        self.clock = t;
        Ok(())
    }

    /// Persists the block containing `addr` (`clwb + sfence`).
    ///
    /// # Errors
    ///
    /// Same classes as [`SecureMemory::flush_block`].
    pub fn persist(&mut self, addr: PhysAddr) -> Result<()> {
        let t = self.flush_block(addr.block(), self.clock)?;
        self.clock = t;
        Ok(())
    }

    // ----- crash and recovery ------------------------------------------------

    /// Simulates a power loss: every volatile structure (the caches with
    /// the plaintext and metadata values in their lines, WPQ
    /// bookkeeping) vanishes; the NVM image and the persistent
    /// registers survive.
    pub fn crash(&mut self) {
        emit(&self.events, self.clock, "crash", &[]);
        self.l3.lose_all();
        self.ctr_cache.lose_all();
        self.mt_cache.lose_all();
        self.np_written.clear();
        self.evict_queue.clear();
        self.batch = None;
        self.osiris_since.clear();
        self.mc.crash();
        self.state = EngineState::Crashed;
    }

    /// Recovers after a crash: replays any staged update (READY_BIT),
    /// verifies/rebuilds the persistent region's tree from the scheme's
    /// persist level, lazily reinitialises the non-persistent region
    /// (§3.3.4), and bumps the session counter (§3.3.2).
    ///
    /// # Errors
    ///
    /// Returns [`SecureMemoryError::Unverifiable`] when the persistent
    /// region exists but its scheme persists no metadata (`WriteBack`);
    /// the report is still available via the error-free path in that
    /// case — callers that want to continue with a poisoned persistent
    /// region can inspect the returned report instead, which is why
    /// verification failure is reported *in* the report rather than as
    /// an error.
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        if self.state == EngineState::Running {
            return Ok(RecoveryReport {
                persistent_recovered: true,
                session: self.regs.session,
                ..RecoveryReport::default()
            });
        }
        let mut report = RecoveryReport::default();
        emit(&self.events, self.clock, "recovery_begin", &[]);
        // 1. Replay a torn atomic update (§3.3.5).
        if let Some(staged) = self.regs.take_staged() {
            for w in &staged.writes {
                self.mc.store_mut().write(w.addr, w.data);
            }
            if let Some(root) = staged.new_persistent_root {
                self.regs.persistent_root = root;
            }
            report.replayed_staged_writes = staged.writes.len();
            emit(
                &self.events,
                self.clock,
                "recovery_replay",
                &[("staged_writes", staged.writes.len().into())],
            );
        }
        // 2. Persistent region: rebuild and verify.
        let p_layout = self.map.persistent().clone();
        let mut poisoned = false;
        if !p_layout.is_empty() {
            match self.scheme.recovery_start_level() {
                None => {
                    report.persistent_recovered = false;
                    report.unverifiable.push(CorruptRange {
                        start: p_layout.data_base(),
                        bytes: p_layout.data_bytes(),
                    });
                    poisoned = true;
                }
                Some(level) => {
                    let from = level.min(p_layout.geometry.root_level().saturating_sub(1));
                    let fresh = &self.fresh[RegionKind::Persistent as usize];
                    let out = fresh.rebuild_from_level(
                        self.mc.store_mut(),
                        &p_layout,
                        &self.mac_engine,
                        from,
                    );
                    report.persistent_blocks_read = out.blocks_read;
                    if out.root == self.regs.persistent_root {
                        report.persistent_recovered = true;
                    } else {
                        let pin = crate::recovery::pinpoint(
                            self.mc.store(),
                            &p_layout,
                            &self.mac_engine,
                            fresh,
                            from,
                            &self.regs.persistent_root,
                        );
                        report.persistent_recovered = pin.recoverable;
                        report.corrupt_metadata = pin.corrupt_nodes;
                        report.unverifiable = pin.unverifiable;
                        if pin.recoverable {
                            // Stored upper levels were corrupt but the
                            // rebuild from below already rewrote them.
                            let out = fresh.rebuild_from_level(
                                self.mc.store_mut(),
                                &p_layout,
                                &self.mac_engine,
                                0,
                            );
                            report.persistent_blocks_read += out.blocks_read;
                            debug_assert_eq!(out.root, self.regs.persistent_root);
                        } else {
                            poisoned = true;
                        }
                    }
                }
            }
        } else {
            report.persistent_recovered = true;
        }
        // 3. Non-persistent region: zero L1, rebuild above (§3.3.4).
        // Above a zeroed L1 the rebuild writes the fresh tree, so the
        // region takes it back without a hash; the report still
        // charges the modeled rebuild, which reads every L1 node. (A
        // degenerate tree's root holds the leaf sentinels: zero.)
        let np_layout = self.map.non_persistent();
        if np_layout.geometry.root_level() > 1 {
            let l1_count = np_layout.geometry.nodes_at_level(1);
            report.non_persistent_blocks_written = l1_count;
            report.non_persistent_blocks_read = l1_count;
        }
        self.regs.non_persistent_root =
            self.fresh[RegionKind::NonPersistent as usize].reset(self.mc.store_mut(), np_layout);
        // 4. New boot session (§3.3.2).
        self.boot_count += 1;
        self.regs.session += 1;
        if self.key_policy == KeyPolicy::DualKey {
            self.aes_volatile = Aes128::new(&derive_key(self.key_seed, 0x1000 + self.boot_count));
        }
        report.session = self.regs.session;
        report.estimated_duration = Duration::from_ns(100).saturating_mul(
            report.persistent_blocks_read
                + report.non_persistent_blocks_read
                + report.non_persistent_blocks_written,
        );
        self.state = if poisoned {
            EngineState::PersistentPoisoned
        } else {
            EngineState::Running
        };
        emit(
            &self.events,
            self.clock,
            "recovery_end",
            &[
                ("recovered", report.persistent_recovered.into()),
                ("blocks_read", report.persistent_blocks_read.into()),
                ("session", u64::from(report.session).into()),
            ],
        );
        Ok(report)
    }

    /// Reformats the persistent region after an unrecoverable crash
    /// (the `WriteBack` scheme, or unverifiable corruption): all data,
    /// counters, MACs and tree levels reset to the fresh state.
    pub fn format_persistent(&mut self) {
        let layout = self.map.persistent();
        let store = self.mc.store_mut();
        store.zero_blocks(layout.region_start, layout.region_blocks);
        self.regs.persistent_root =
            self.fresh[RegionKind::Persistent as usize].reset(store, layout);
        if self.state == EngineState::PersistentPoisoned {
            self.state = EngineState::Running;
        }
    }

    /// Checks the engine's internal invariants, returning a list of
    /// violations (empty = consistent). Intended for tests and
    /// debugging; O(cached state + leaves), not O(memory contents).
    ///
    /// Invariants checked:
    /// 1. no resident line of the L3, counter or Merkle-tree cache
    ///    lacks its value,
    /// 2. every queued eviction victim is absent from the caches,
    /// 3. for every *uncached* counter block, the NVM copy's hash
    ///    matches its parent's slot (the §3.2 lazy-propagation
    ///    invariant that makes verification sound).
    pub fn validate_consistency(&self) -> Vec<String> {
        let mut problems = Vec::new();
        // 1. Every resident line holds its value.
        let unfilled = [
            ("L3", self.l3.unfilled_blocks()),
            ("counter cache", self.ctr_cache.unfilled_blocks()),
            ("Merkle-tree cache", self.mt_cache.unfilled_blocks()),
        ];
        for (cache, blocks) in unfilled {
            for a in blocks {
                problems.push(format!("{cache} line {a} holds no value"));
            }
        }
        // 2. Queued victims are off-chip.
        for item in &self.evict_queue {
            let a = item.addr();
            if self.l3.probe(a) || self.ctr_cache.probe(a) || self.mt_cache.probe(a) {
                problems.push(format!("queued victim {a} still resident"));
            }
        }
        // 3. Uncached counters verify against their parents.
        for kind in RegionKind::ALL {
            let layout = self.layout(kind);
            if layout.is_empty() {
                continue;
            }
            let geom = &layout.geometry;
            let store = self.mc.store();
            let parent_slot = |level: u8, index: u64| -> Option<Mac64> {
                let (pl, pi) = geom.parent(level, index);
                let slot = geom.child_slot(index);
                if pl == geom.root_level() {
                    return Some(self.root(kind).slot(slot));
                }
                let paddr = layout.bmt_node_addr(pl, pi)?;
                let buf = self
                    .mt_cache
                    .get(paddr)
                    .map_or_else(|| NodeBuf(store.read(paddr)), MtLine::buf);
                Some(buf.slot(slot))
            };
            let osiris = matches!(self.counter_persistence, CounterPersistence::Osiris { .. });
            for leaf in 0..geom.leaves() {
                let addr = layout.counter_start + leaf;
                if self.ctr_cache.get(addr).is_some()
                    || self.evict_queue.iter().any(|e| e.addr() == addr)
                {
                    continue; // on-chip copies may legitimately run ahead
                }
                let bytes = store.read(addr);
                let h = bmt::leaf_hash(&self.mac_engine, kind, leaf, &bytes);
                match parent_slot(0, leaf) {
                    Some(slot) if slot == h => {}
                    Some(slot) if slot.is_zero() && kind == RegionKind::NonPersistent => {}
                    // Osiris: the slot may legitimately run ahead of a
                    // skipped counter persist; bounded and recoverable.
                    Some(_) if osiris && kind == RegionKind::Persistent => {}
                    Some(slot) => problems.push(format!(
                        "{kind} leaf {leaf}: NVM hash {h} != parent slot {slot}"
                    )),
                    None => problems.push(format!("{kind} leaf {leaf}: no parent slot")),
                }
            }
        }
        problems
    }

    /// Collects every component's counters and latency histograms into
    /// one hierarchical registry (`secure.*`, `l3.*`, `ctr_cache.*`,
    /// `mt_cache.*`, `mem.*`, `wear.*`).
    pub fn stat_registry(&self) -> StatRegistry {
        let mut reg = StatRegistry::new();
        self.stats.register(&mut reg.scope("secure"));
        self.hists.register(&mut reg.scope("secure"));
        self.l3.register(&mut reg.scope("l3"));
        self.ctr_cache.register(&mut reg.scope("ctr_cache"));
        self.mt_cache.register(&mut reg.scope("mt_cache"));
        self.mc.register(&mut reg.scope("mem"));
        let wear = self.mc.wear();
        let mut w = reg.scope("wear");
        w.set("max_writes", wear.max_writes());
        w.set("blocks_touched", wear.blocks_touched() as u64);
        w.set("imbalance_x1000", (wear.imbalance() * 1000.0) as u64);
        reg
    }
}
