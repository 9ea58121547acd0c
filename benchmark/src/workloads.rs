//! The four workloads. A run repeats rounds until its time is up. The
//! inputs come in `v` variants derived from the run's seed
//! ([`Size::variants`]), and round `r` replays variant `r % v` on a
//! freshly built system, so round `r` must reproduce round `r - v`'s
//! simulated numbers exactly. The simulated metrics aggregate the first
//! `v` rounds.
//!
//! Load comes from one closed-loop client: a batch of [`BATCH`]
//! requests at a time, the next sent only after `submit` returns.

use std::time::Instant;

use triad_core::{
    CounterPersistence, CrashHookKind, PersistScheme, RecoveryReport, SecureMemoryBuilder,
    SecureMemoryError, System,
};
use triad_kv::KvError;
use triad_sim::config::SystemConfig;
use triad_sim::rng::SplitMix64;
use triad_sim::stats::Histogram;
use triad_workloads::kv::value_bytes;
use triad_workloads::service::{
    generate_requests, AdmissionPolicy, DurabilityMode, KvService, Request, Response, ServiceSpec,
};
use triad_workloads::{build_workload, WorkloadEnv};

use crate::counts::{self, Counts};
use crate::oracle::{self, Model};
use crate::speed::Probe;
use crate::trace::Tracer;

/// Requests per submit.
pub const BATCH: usize = 64;
/// Service shards.
const SHARDS: u64 = 2;
/// Keys `kv-write` and `kv-crash` draw from.
const WRITE_KEYSPACE: u64 = 4096;
/// `kv-crash` arms a crash on every this-many-th submit.
const CRASH_EVERY: usize = 8;
/// Value length of `kv-read` puts and preloaded keys.
const READ_VALUE_BYTES: usize = 32;
/// Crash-and-recover cycles after the timed phase (shards in turn).
const RECOVERIES_AFTER_RUN: usize = 16;
/// KV rounds tick their speed probe every this-many submits (about
/// every 6 ms).
const TICK_EVERY: usize = 4;
/// Probe ticks `trace-mix3` runs before and after each of its phases,
/// which it cannot interrupt.
const TRACE_TICKS: usize = 16;
/// `SplitMix64` stream ids of the seeded draws.
const SUBSEED_STREAM: u64 = 1;
const CRASH_STREAM: u64 = 2;
const READ_STREAM: u64 = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Mixed puts, gets and deletes: the write path.
    KvWrite,
    /// 95 % gets over a preloaded store: the read path.
    KvRead,
    /// The paper's trace-driven path: cores, private caches, engine.
    TraceMix3,
    /// Large group commits with a crash, recovery and re-drive every
    /// eighth submit.
    KvCrash,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` declares them.
    pub const ALL: [Workload; 4] = [
        Workload::KvWrite,
        Workload::KvRead,
        Workload::TraceMix3,
        Workload::KvCrash,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvWrite => "kv-write",
            Workload::KvRead => "kv-read",
            Workload::TraceMix3 => "trace-mix3",
            Workload::KvCrash => "kv-crash",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn group_window(self) -> usize {
        match self {
            Workload::KvCrash => 64,
            _ => 8,
        }
    }
}

/// Run lengths of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// `kv-write` requests.
    pub write_requests: usize,
    /// `kv-write` input variants.
    pub write_variants: usize,
    /// `kv-read` keys preloaded during set-up.
    pub read_keys: u64,
    /// `kv-read` requests.
    pub read_requests: usize,
    /// `kv-read` input variants.
    pub read_variants: usize,
    /// `trace-mix3` memory ops per core.
    pub trace_ops_per_core: u64,
    /// `trace-mix3` input variants.
    pub trace_variants: usize,
    /// `kv-crash` submits.
    pub crash_submits: usize,
    /// `kv-crash` input variants.
    pub crash_variants: usize,
}

impl Size {
    /// The measured size: a round takes about a second on a 2-core
    /// x86-64 host (a quarter of that on `kv-crash`).
    ///
    /// Host recovery time depends on the state a variant leaves behind:
    /// the median recovery of one `kv-write` or `trace-mix3` variant
    /// sits up to 20 % from another's, every round. With 4 variants a
    /// run's `recovery_host_us_p50` spread 10–13 % across seeds; 16
    /// variants bring that to a few percent.
    ///
    /// A `kv-crash` round stays below 128 group commits per shard
    /// (96 submits, 12 re-drives and at most 6 crashed attempts), so
    /// no WAL block reaches the 128 writes that overflow its page's
    /// minor counters. A crash between the write that re-encrypts a
    /// page and the next write into the same MAC block leaves stale
    /// MACs that log replay then reads (`tests::
    /// crash_right_after_a_page_reencryption_recovers`); more variants
    /// make up the sample instead of longer rounds.
    pub const FULL: Size = Size {
        write_requests: 40_960,
        write_variants: 16,
        read_keys: 16_384,
        read_requests: 32_000,
        read_variants: 8,
        trace_ops_per_core: 50_000,
        trace_variants: 16,
        crash_submits: 96,
        crash_variants: 12,
    };

    /// A quick size for tests and smoke checks.
    pub const SMOKE: Size = Size {
        write_requests: 256,
        write_variants: 2,
        read_keys: 256,
        read_requests: 256,
        read_variants: 2,
        trace_ops_per_core: 500,
        trace_variants: 2,
        crash_submits: 8,
        crash_variants: 2,
    };

    /// Input variants per run of `workload`; the simulated metrics
    /// cover one round of each.
    pub fn variants(&self, workload: Workload) -> usize {
        match workload {
            Workload::KvWrite => self.write_variants,
            Workload::KvRead => self.read_variants,
            Workload::TraceMix3 => self.trace_variants,
            Workload::KvCrash => self.crash_variants,
        }
    }
}

/// The machine behind every KV shard: 4 cores, 64 MiB of NVM.
pub fn kv_config() -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    cfg.cores = 4;
    cfg.mem.capacity_bytes = 64 << 20;
    cfg
}

/// The machine `trace-mix3` replays on: 4 cores, 16 MiB of NVM.
pub fn trace_config() -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    cfg.cores = 4;
    cfg.mem.capacity_bytes = 16 << 20;
    cfg
}

/// The service every KV workload runs; only the group window varies.
///
/// 504 buckets make 63 bucket blocks, an odd count, so every 4 KiB page
/// boundary inside the write-ahead log falls on a record's payload
/// block, never on a commit marker. With 512 buckets a page can
/// re-encrypt on a commit marker write, which leaves the marker's
/// neighbours in NVM under stale MACs and fails a later log replay
/// (`tests::stale_log_macs_after_a_marker_reencrypts_its_page`); with
/// 1024 buckets bucket blocks fail the same way during normal serving.
pub fn service_spec(workload: Workload, seed: u64) -> ServiceSpec {
    ServiceSpec {
        shards: SHARDS,
        group_window: workload.group_window(),
        admission: AdmissionPolicy::Open,
        scheme: PersistScheme::triad_nvm(2),
        counters: CounterPersistence::Strict,
        buckets: 504,
        log_blocks: 256,
        key_seed: seed,
        config: Some(kv_config()),
        durability: DurabilityMode::Strict,
    }
}

/// The seeded inputs of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundInputs {
    /// The seed this variant derives from.
    pub seed: u64,
    pub(crate) preload: Vec<Request>,
    pub(crate) requests: Vec<Request>,
    crash_draws: Vec<u64>,
}

/// The inputs of a run: several variants derived from one seed. Each
/// round generates its variant's inputs afresh, so the benchmark holds
/// one round's inputs at a time and `peak_rss_mib` stays the system's.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Round lengths.
    pub size: Size,
    /// The sub-seed of each variant.
    seeds: Vec<u64>,
}

impl Inputs {
    /// The inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64, size: Size) -> Inputs {
        let mut subseeds = SplitMix64::stream(seed, SUBSEED_STREAM);
        Inputs {
            workload,
            size,
            seeds: (0..size.variants(workload))
                .map(|_| subseeds.next_u64())
                .collect(),
        }
    }

    /// Input variants.
    pub fn variants(&self) -> usize {
        self.seeds.len()
    }

    /// The inputs of variant `v`.
    pub fn variant(&self, v: usize) -> RoundInputs {
        RoundInputs::generate(self.workload, self.seeds[v], self.size)
    }

    /// Requests (KV) or memory ops (trace) one round performs.
    pub fn ops(&self) -> u64 {
        let size = &self.size;
        match self.workload {
            Workload::KvWrite => size.write_requests as u64,
            Workload::KvRead => size.read_requests as u64,
            Workload::TraceMix3 => size.trace_ops_per_core * trace_config().cores as u64,
            Workload::KvCrash => (size.crash_submits * BATCH) as u64,
        }
    }
}

impl RoundInputs {
    fn generate(workload: Workload, seed: u64, size: Size) -> RoundInputs {
        let mut inputs = RoundInputs {
            seed,
            preload: Vec::new(),
            requests: Vec::new(),
            crash_draws: Vec::new(),
        };
        match workload {
            Workload::KvWrite => {
                inputs.requests =
                    generate_requests(seed, size.write_requests, WRITE_KEYSPACE, (8, 64));
            }
            Workload::KvRead => {
                inputs.preload = (0..size.read_keys)
                    .map(|key| Request::Put {
                        key,
                        value: value_bytes(seed ^ key, READ_VALUE_BYTES),
                    })
                    .collect();
                inputs.requests = read_mostly(seed, size.read_requests, size.read_keys);
            }
            Workload::TraceMix3 => {}
            Workload::KvCrash => {
                let n = size.crash_submits * BATCH;
                inputs.requests = generate_requests(seed, n, WRITE_KEYSPACE, (8, 64));
                let mut rng = SplitMix64::stream(seed, CRASH_STREAM);
                inputs.crash_draws = (0..size.crash_submits / CRASH_EVERY)
                    .map(|_| rng.next_u64())
                    .collect();
            }
        }
        inputs
    }
}

/// 95 % gets and 5 % puts, uniform over `keys` preloaded keys.
fn read_mostly(seed: u64, n: usize, keys: u64) -> Vec<Request> {
    let mut rng = SplitMix64::stream(seed, READ_STREAM);
    (0..n)
        .map(|_| {
            let key = rng.below(keys);
            if rng.below(100) < 95 {
                Request::Get { key }
            } else {
                Request::Put {
                    key,
                    value: value_bytes(rng.next_u64(), READ_VALUE_BYTES),
                }
            }
        })
        .collect()
}

fn key_of(req: &Request) -> u64 {
    match req {
        Request::Put { key, .. } | Request::Get { key } | Request::Delete { key } => *key,
        Request::Scan => 0,
    }
}

/// Latency samples as a round collected them.
#[derive(Debug, Clone, PartialEq)]
pub enum Samples {
    /// `(latency ps, requests)` per batch and shard: every request of a
    /// batch shares its own shard's clock advance across the submit.
    Exact(Vec<(u64, u64)>),
    /// `System` exposes per-op latency only as a power-of-two
    /// histogram (ns).
    Buckets(Box<Histogram>),
}

/// Latency percentiles and the sample they come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Latency {
    /// Median (ps).
    pub p50_ps: u64,
    /// 99th percentile (ps).
    pub p99_ps: u64,
    /// Samples.
    pub samples: u64,
    /// Groups of samples that share one value: a batch on one shard
    /// for KV, a single op for traces.
    pub groups: u64,
    /// Groups ranked beyond p99.
    pub groups_beyond_p99: u64,
    /// False when the values are interpolated within power-of-two
    /// buckets.
    pub exact: bool,
}

impl Samples {
    /// Nearest-rank percentiles.
    pub fn latency(&self) -> Latency {
        match self {
            Samples::Exact(groups) => {
                let mut groups = groups.clone();
                groups.sort_unstable();
                let samples: u64 = groups.iter().map(|g| g.1).sum();
                let pick = |p: f64| {
                    let target = rank(p, samples);
                    let mut seen = 0;
                    groups
                        .iter()
                        .find(|g| {
                            seen += g.1;
                            seen >= target
                        })
                        .map_or(0, |g| g.0)
                };
                let p99_ps = pick(0.99);
                Latency {
                    p50_ps: pick(0.50),
                    p99_ps,
                    samples,
                    groups: groups.len() as u64,
                    groups_beyond_p99: groups.iter().filter(|g| g.0 > p99_ps).count() as u64,
                    exact: true,
                }
            }
            Samples::Buckets(h) => Latency {
                p50_ps: (interpolated_ns(h, 0.50) * 1000.0).round() as u64,
                p99_ps: (interpolated_ns(h, 0.99) * 1000.0).round() as u64,
                samples: h.count(),
                groups: h.count(),
                groups_beyond_p99: h.count() - rank(0.99, h.count()),
                exact: false,
            },
        }
    }

    fn merge(&mut self, other: &Samples) {
        match (self, other) {
            (Samples::Exact(a), Samples::Exact(b)) => a.extend_from_slice(b),
            (Samples::Buckets(a), Samples::Buckets(b)) => a.merge(b),
            _ => unreachable!("one workload collects one kind of latency sample"),
        }
    }
}

/// The nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: u64) -> u64 {
    ((p * n as f64).ceil() as u64).clamp(1, n.max(1))
}

/// Percentile `p` of a power-of-two histogram, interpolated linearly
/// within the bucket that holds its rank. `Histogram::percentile`
/// reports the upper edge of the bucket holding a given rank; searching
/// ranks recovers where that bucket starts and ends.
fn interpolated_ns(h: &Histogram, p: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // Asking for rank r - 0.5 makes `percentile`'s ceil land on r.
    let edge = |r: u64| h.percentile(100.0 * (r as f64 - 0.5) / n as f64);
    let target = rank(p, n);
    let upper = edge(target);
    // First rank in the bucket: edges never decrease with rank.
    let (mut lo, mut hi) = (1, target);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if edge(mid) < upper {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    // Last rank in the bucket.
    let (mut lo, mut hi) = (target, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if edge(mid) > upper {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    // Bucket i >= 1 holds [2^(i-1), 2^i); bucket 0 holds zero.
    let lower = if upper >= 2 { upper / 2 } else { 0 };
    let within = (target - first + 1) as f64 / (last - first + 1) as f64;
    lower as f64 + (upper - lower) as f64 * within
}

/// One recovery's simulated cost and work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Recovery {
    /// `RecoveryReport::estimated_duration` (ps).
    pub engine_ps: u64,
    /// Shard clock advance across the recovery: store open and log
    /// replay (ps).
    pub replay_ps: u64,
    /// Metadata blocks the engine read.
    pub blocks_read: u64,
    /// Log records scanned.
    pub records_scanned: u64,
    /// Committed transactions replayed.
    pub txns_applied: u64,
    /// Records discarded as uncommitted, stale or torn.
    pub records_discarded: u64,
}

impl Recovery {
    fn from_report(report: &RecoveryReport, replay_ps: u64) -> Recovery {
        let log = report.log_replay.unwrap_or_default();
        Recovery {
            engine_ps: report.estimated_duration.as_ps(),
            replay_ps,
            blocks_read: report.persistent_blocks_read + report.non_persistent_blocks_read,
            records_scanned: log.records_scanned,
            txns_applied: log.txns_applied,
            records_discarded: log.records_discarded,
        }
    }

    /// Total simulated recovery time (ps).
    pub fn total_ps(&self) -> u64 {
        self.engine_ps + self.replay_ps
    }
}

/// The simulated results of one round, or of several merged: a pure
/// function of the workload, its size and the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// Requests (KV) or memory ops (trace) completed.
    pub ops: u64,
    /// Busy simulated time of the slowest shard or core (ps), summed
    /// over merged rounds.
    pub makespan_ps: u64,
    /// Request (KV) or memory-op (trace) latency samples.
    pub latency: Samples,
    /// Every recovery.
    pub recoveries: Vec<Recovery>,
    /// Armed crashes that had not fired when their round ended.
    pub crashes_missed: u64,
    /// Layer counter deltas over the timed phases.
    pub counts: Counts,
}

impl Sim {
    /// The results of `sims` run back to back.
    pub fn merged<'a>(mut sims: impl Iterator<Item = &'a Sim>) -> Option<Sim> {
        let mut out = sims.next()?.clone();
        for s in sims {
            out.ops += s.ops;
            out.makespan_ps += s.makespan_ps;
            out.latency.merge(&s.latency);
            out.recoveries.extend_from_slice(&s.recoveries);
            out.crashes_missed += s.crashes_missed;
            counts::add(&mut out.counts, &s.counts);
        }
        Some(out)
    }
}

/// What one round measured. Host times are wall times; divided by
/// `slowdown` they become times at the reference speed.
#[derive(Debug, Clone)]
pub struct Round {
    /// Host seconds to build the system (and preload it).
    pub setup_s: f64,
    /// Host seconds of the timed phase, oracle checks excluded.
    pub timed_s: f64,
    /// Host seconds spent in oracle checks.
    pub oracle_s: f64,
    /// Host µs of each recovery.
    pub recovery_host_us: Vec<f64>,
    /// How much slower than the reference the host ran the round's
    /// speed probe ([`Probe::slowdown`]).
    pub slowdown: f64,
    /// The same, from probe ticks right before and after each
    /// recovery, which is short enough to need its own.
    pub recovery_slowdown: f64,
    /// The simulated results.
    pub sim: Sim,
}

/// Why a round stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// Ops completed and checked before the failure.
    pub completed: u64,
    /// What went wrong.
    pub message: String,
}

/// Runs round `index` of `inputs`, recording spans when `tr` is on.
pub fn run_round(inputs: &Inputs, index: usize, tr: &mut Tracer) -> Result<Round, Failure> {
    let variant = inputs.variant(index % inputs.variants());
    let span = tr.begin("round", None);
    let round = match inputs.workload {
        Workload::TraceMix3 => trace_round(inputs.size, &variant, tr),
        w => KvPhase::run(w, &variant, tr),
    };
    tr.end(span);
    round
}

fn failure(completed: u64, message: impl Into<String>) -> Failure {
    Failure {
        completed,
        message: message.into(),
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Runs `check`, timing it as oracle work.
fn oracle_check<T>(
    tr: &mut Tracer,
    oracle_s: &mut f64,
    check: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    let span = tr.begin("oracle.verify", None);
    let out = check();
    tr.end(span);
    *oracle_s += secs(start);
    out
}

fn trace_round(size: Size, inputs: &RoundInputs, tr: &mut Tracer) -> Result<Round, Failure> {
    let ops_per_core = size.trace_ops_per_core;
    let mut probe = Probe::new();
    let ticks = |probe: &mut Probe| (0..TRACE_TICKS).for_each(|_| probe.tick());
    ticks(&mut probe);
    let setup = Instant::now();
    let span = tr.begin("workload.setup", None);
    let built = SecureMemoryBuilder::new()
        .config(trace_config())
        .scheme(PersistScheme::triad_nvm(2))
        .counter_persistence(CounterPersistence::Strict)
        .key_seed(inputs.seed)
        .build()
        .map(|mem| {
            let traces = build_workload("mix3", &WorkloadEnv::of(&mem), inputs.seed);
            let mut system = System::new(mem, traces);
            system.set_persist_batch(8);
            system
        });
    tr.end(span);
    let mut system = built.map_err(|e| failure(0, format!("build: {e}")))?;
    let setup_s = secs(setup);

    ticks(&mut probe);
    let before = counts::engine(system.secure());
    let start = Instant::now();
    let span = tr.begin("core.system_run", None);
    let result = system.run(ops_per_core);
    tr.end(span);
    let timed_s = secs(start);
    ticks(&mut probe);
    let result = result.map_err(|e| failure(0, format!("System::run: {e}")))?;
    let sim_counts = counts::delta(&counts::engine(system.secure()), &before);
    let ops: u64 = result.cores.iter().map(|c| c.ops).sum();

    let mut oracle_s = 0.0;
    oracle_check(tr, &mut oracle_s, || {
        if let Some(c) = result.cores.iter().find(|c| c.ops != ops_per_core) {
            return Err(format!(
                "core {} ran {} of {ops_per_core} ops",
                c.name, c.ops
            ));
        }
        match system.secure().validate_consistency().first() {
            Some(problem) => Err(format!("engine invariant broken: {problem}")),
            None => Ok(()),
        }
    })
    .map_err(|e| failure(0, e))?;

    let mut mem = system.into_secure();
    let mut recoveries = Vec::new();
    let mut recovery_host_us = Vec::new();
    let mut recovery_probe = Probe::new();
    for _ in 0..RECOVERIES_AFTER_RUN {
        mem.crash();
        recovery_probe.tick();
        let start = Instant::now();
        let span = tr.begin("core.recover", None);
        let report = mem.recover();
        tr.end(span);
        recovery_host_us.push(secs(start) * 1e6);
        recovery_probe.tick();
        let report = report.map_err(|e| failure(ops, format!("recover: {e}")))?;
        oracle_check(tr, &mut oracle_s, || oracle::check_recovery_report(&report))
            .map_err(|e| failure(ops, e))?;
        recoveries.push(Recovery::from_report(&report, 0));
    }
    ticks(&mut probe);

    let latency = Samples::Buckets(Box::new(
        result
            .registry
            .histogram("core.latency_ns")
            .cloned()
            .unwrap_or_default(),
    ));
    let makespan_ps = result
        .cores
        .iter()
        .map(|c| c.finish_time.as_ps())
        .max()
        .unwrap_or(0);
    Ok(Round {
        setup_s,
        timed_s,
        oracle_s,
        recovery_host_us,
        slowdown: probe.slowdown(),
        recovery_slowdown: recovery_probe.slowdown(),
        sim: Sim {
            ops,
            makespan_ps,
            latency,
            recoveries,
            crashes_missed: 0,
            counts: sim_counts,
        },
    })
}

/// The state of one KV round's timed phase.
struct KvPhase<'t> {
    svc: KvService,
    tr: &'t mut Tracer,
    /// Shard of every timed request.
    routes: Vec<usize>,
    model: Model,
    /// `(shard clock advance, requests)` per batch and shard.
    groups: Vec<(u64, u64)>,
    /// Persists each shard performed in the last successful submit.
    last_persists: Vec<u64>,
    recoveries: Vec<Recovery>,
    recovery_host_us: Vec<f64>,
    /// Store counters that `recover_shard` reset to zero.
    kv_lost: Counts,
    /// Simulated cost of oracle reads, excluded from the results.
    oracle_counts: Counts,
    oracle_clock_ps: Vec<u64>,
    oracle_s: f64,
    /// The round's speed probe.
    probe: Probe,
    /// The probe ticked around recoveries.
    recovery_probe: Probe,
    /// The shard a crash is armed on.
    armed: Option<usize>,
    completed: u64,
}

impl<'t> KvPhase<'t> {
    fn run(workload: Workload, inputs: &RoundInputs, tr: &'t mut Tracer) -> Result<Round, Failure> {
        let mut probe = Probe::new();
        probe.tick();
        let probe_s = probe.busy_s();
        let setup = Instant::now();
        let span = tr.begin("workload.setup", None);
        let built = Self::build(workload, inputs, &mut probe);
        tr.end(span);
        let (svc, model) = built.map_err(|e| failure(0, e))?;
        let setup_s = secs(setup) - (probe.busy_s() - probe_s);

        let shards = svc.shard_count();
        let routes = inputs
            .requests
            .iter()
            .map(|r| svc.route(key_of(r)))
            .collect();
        let mut ph = KvPhase {
            svc,
            tr,
            routes,
            model,
            groups: Vec::with_capacity(inputs.requests.len() / BATCH * shards),
            last_persists: vec![0; shards],
            recoveries: Vec::new(),
            recovery_host_us: Vec::new(),
            kv_lost: Counts::new(),
            oracle_counts: Counts::new(),
            oracle_clock_ps: vec![0; shards],
            oracle_s: 0.0,
            probe,
            recovery_probe: Probe::new(),
            armed: None,
            completed: 0,
        };
        let before = counts::service(&ph.svc);
        let clock0 = ph.clocks();
        let probe_s = ph.probe_s();
        let start = Instant::now();
        for (b, batch) in inputs.requests.chunks(BATCH).enumerate() {
            if b % TICK_EVERY == 0 {
                ph.probe.tick();
            }
            ph.step(workload, inputs, b, batch)
                .map_err(|e| failure(ph.completed, format!("batch {b}: {e}")))?;
            ph.completed += batch.len() as u64;
        }
        let crashes_missed = u64::from(ph.armed.is_some());
        if let Some(mem) = ph.armed.and_then(|v| ph.svc.shard_mem_mut(v)) {
            mem.disarm_crash_hooks();
        }
        let mut after = counts::service(&ph.svc);
        let timed_s = secs(start) - ph.oracle_s - (ph.probe_s() - probe_s);
        ph.probe.tick();
        counts::add(&mut after, &ph.kv_lost);
        let mut sim_counts = counts::delta(&after, &before);
        counts::subtract(&mut sim_counts, &ph.oracle_counts);
        let makespan_ps = ph
            .clocks()
            .iter()
            .zip(&clock0)
            .zip(&ph.oracle_clock_ps)
            .map(|((end, start), oracle)| end - start - oracle)
            .max()
            .unwrap_or(0);

        let ops = ph.completed;
        ph.verify_durable_state("end of run")
            .map_err(|e| failure(ops, e))?;
        if workload != Workload::KvCrash {
            for i in 0..RECOVERIES_AFTER_RUN {
                let victim = i % shards;
                if let Some(mem) = ph.svc.shard_mem_mut(victim) {
                    mem.crash();
                }
                let report = ph.recover(victim).map_err(|e| failure(ops, e))?;
                ph.check(None, |_| oracle::check_recovery_report(&report))
                    .map_err(|e| failure(ops, e))?;
            }
            ph.verify_durable_state("after recovery")
                .map_err(|e| failure(ops, e))?;
            ph.probe.tick();
        }
        Ok(Round {
            setup_s,
            timed_s,
            oracle_s: ph.oracle_s,
            recovery_host_us: ph.recovery_host_us,
            slowdown: ph.probe.slowdown(),
            recovery_slowdown: ph.recovery_probe.slowdown(),
            sim: Sim {
                ops,
                makespan_ps,
                latency: Samples::Exact(ph.groups),
                recoveries: ph.recoveries,
                crashes_missed,
                counts: sim_counts,
            },
        })
    }

    /// Builds the service and, for `kv-read`, preloads it, ticking
    /// `probe` between preload submits.
    fn build(
        workload: Workload,
        inputs: &RoundInputs,
        probe: &mut Probe,
    ) -> Result<(KvService, Model), String> {
        let mut svc = KvService::create(&service_spec(workload, inputs.seed))
            .map_err(|e| format!("create: {e}"))?;
        // Threaded and serial lanes give bit-identical results (the
        // service's own tests pin that); serial host time does not
        // depend on whether a second core happens to be free.
        svc.set_threaded(false);
        let mut model = Model::new();
        for (b, batch) in inputs.preload.chunks(BATCH).enumerate() {
            if b % TICK_EVERY == TICK_EVERY - 1 {
                probe.tick();
            }
            let resps = svc.submit(batch).map_err(|e| format!("preload: {e}"))?;
            oracle::check_batch(&mut model, batch, &resps).map_err(|e| format!("preload: {e}"))?;
        }
        Ok((svc, model))
    }

    /// Host seconds spent in probe ticks so far.
    fn probe_s(&self) -> f64 {
        self.probe.busy_s() + self.recovery_probe.busy_s()
    }

    fn clocks(&self) -> Vec<u64> {
        (0..self.svc.shard_count())
            .map(|i| self.svc.shard_mem(i).map_or(0, |m| m.now().as_ps()))
            .collect()
    }

    fn persists(&self) -> Vec<u64> {
        (0..self.svc.shard_count())
            .map(|i| self.svc.shard_mem(i).map_or(0, |m| m.stats().persists))
            .collect()
    }

    /// Runs `check` as timed oracle work.
    fn check<T>(
        &mut self,
        batch: Option<u64>,
        check: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        let start = Instant::now();
        let span = self.tr.begin("oracle.verify", batch);
        let out = check(self);
        self.tr.end(span);
        self.oracle_s += secs(start);
        out
    }

    /// One batch: arm a crash when the plan says so, submit, and check
    /// the answers (or recover and re-drive when the crash fired). An
    /// armed crash that does not fire within its submit stays armed
    /// into the next ones.
    fn step(
        &mut self,
        workload: Workload,
        inputs: &RoundInputs,
        b: usize,
        batch: &[Request],
    ) -> Result<(), String> {
        if workload == Workload::KvCrash
            && b % CRASH_EVERY == CRASH_EVERY - 1
            && self.armed.is_none()
        {
            let k = b / CRASH_EVERY;
            let victim = k % self.svc.shard_count();
            // Aim inside this submit: the victim's persist count in the
            // last clean submit bounds the draw.
            let n = inputs.crash_draws[k] % self.last_persists[victim].max(1);
            self.svc
                .shard_mem_mut(victim)
                .ok_or("no victim shard")?
                .arm_crash(CrashHookKind::PersistBoundary, n)
                .map_err(|e| format!("arm crash: {e}"))?;
            self.armed = Some(victim);
        }
        match (self.submit(b, batch), self.armed) {
            (Ok(resps), _) => self.check(Some(b as u64), |ph| {
                oracle::check_batch(&mut ph.model, batch, &resps)
            }),
            (Err(KvError::Memory(SecureMemoryError::NeedsRecovery)), Some(victim)) => {
                self.armed = None;
                self.crash_cycle(b, batch, victim)
            }
            (Err(e), _) => Err(format!("submit: {e}")),
        }
    }

    /// Submits one batch, recording each request's latency: its own
    /// shard's clock advance across the submit.
    fn submit(&mut self, b: usize, batch: &[Request]) -> Result<Vec<Response>, KvError> {
        let c0 = self.clocks();
        let p0 = self.persists();
        let span = self.tr.begin("service.submit", Some(b as u64));
        let res = self.svc.submit(batch);
        self.tr.end(span);
        let resps = res?;
        let mut per_shard = vec![0u64; c0.len()];
        let first = b * BATCH;
        for &shard in &self.routes[first..first + batch.len()] {
            per_shard[shard] += 1;
        }
        for ((end, start), n) in self.clocks().iter().zip(&c0).zip(per_shard) {
            if n > 0 {
                self.groups.push((end - start, n));
            }
        }
        let p1 = self.persists();
        for ((last, now), then) in self.last_persists.iter_mut().zip(p1).zip(p0) {
            *last = now - then;
        }
        Ok(resps)
    }

    /// Recovers shard `victim`, recording the recovery's costs.
    fn recover(&mut self, victim: usize) -> Result<RecoveryReport, String> {
        let kv_before = counts::kv(&self.svc);
        let clock = self.clocks()[victim];
        self.recovery_probe.tick();
        let start = Instant::now();
        let span = self.tr.begin("service.recover_shard", None);
        let res = self.svc.recover_shard(victim);
        self.tr.end(span);
        self.recovery_host_us.push(secs(start) * 1e6);
        self.recovery_probe.tick();
        let report = res.map_err(|e| format!("recover shard {victim}: {e}"))?;
        // The recovered store's counters restart from zero.
        counts::add(
            &mut self.kv_lost,
            &counts::delta(&kv_before, &counts::kv(&self.svc)),
        );
        self.recoveries.push(Recovery::from_report(
            &report,
            self.clocks()[victim] - clock,
        ));
        Ok(report)
    }

    /// Reads the whole durable state, keeping the read's simulated
    /// cost out of the results.
    fn dump(&mut self) -> Result<Model, String> {
        let before = counts::service(&self.svc);
        let clock = self.clocks();
        let state = self.svc.dump().map_err(|e| format!("dump: {e}"))?;
        counts::add(
            &mut self.oracle_counts,
            &counts::delta(&counts::service(&self.svc), &before),
        );
        let after = self.clocks();
        for ((acc, now), then) in self.oracle_clock_ps.iter_mut().zip(after).zip(clock) {
            *acc += now - then;
        }
        Ok(state)
    }

    fn verify_durable_state(&mut self, what: &str) -> Result<(), String> {
        self.check(None, |ph| {
            let state = ph.dump()?;
            oracle::check_state(what, &state, &ph.model)
        })
    }

    /// After a crash fired inside `batch`: recover the victim, check it
    /// holds the pre- or post-submit state and every other shard the
    /// post-submit state, then re-drive the batch and check it
    /// converges on the post-submit state.
    fn crash_cycle(&mut self, b: usize, batch: &[Request], victim: usize) -> Result<(), String> {
        let batch_id = Some(b as u64);
        let post = self.check(batch_id, |ph| {
            let mut post = ph.model.clone();
            oracle::apply(&mut post, batch);
            Ok(post)
        })?;
        let report = self.recover(victim)?;
        let recovered = self.check(batch_id, |ph| {
            oracle::check_recovery_report(&report)?;
            let state = ph.dump()?;
            let svc = &ph.svc;
            let on_victim = |k: u64| svc.route(k) == victim;
            oracle::check_atomic_recovery(
                &oracle::view(&state, on_victim),
                &oracle::view(&ph.model, on_victim),
                &oracle::view(&post, on_victim),
            )?;
            oracle::check_state(
                "shards that did not crash",
                &oracle::view(&state, |k| !on_victim(k)),
                &oracle::view(&post, |k| !on_victim(k)),
            )?;
            Ok(state)
        })?;
        let resps = self
            .submit(b, batch)
            .map_err(|e| format!("re-drive after recovery: {e}"))?;
        self.check(batch_id, |ph| {
            // The re-driven gets see the recovered state, not the
            // pre-submit one.
            let mut seen = recovered;
            oracle::check_batch(&mut seen, batch, &resps)?;
            oracle::check_state("re-driven state", &seen, &post)?;
            ph.model = post;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_are_nearest_rank_over_weighted_groups() {
        // 100 samples: 90 at 10, 9 at 20, 1 at 30.
        let l = Samples::Exact(vec![(20, 9), (10, 90), (30, 1)]).latency();
        assert_eq!((l.p50_ps, l.p99_ps, l.samples, l.groups), (10, 20, 100, 3));
        assert_eq!(l.groups_beyond_p99, 1);
        assert!(l.exact);
    }

    #[test]
    fn bucketed_percentiles_interpolate_within_the_bucket() {
        let mut h = Histogram::new();
        // 10 samples in [4, 8), 30 in [64, 128).
        for _ in 0..10 {
            h.record(5);
        }
        for _ in 0..30 {
            h.record(100);
        }
        // Rank 20 of 40 is the 10th of 30 samples in [64, 128).
        let p50 = interpolated_ns(&h, 0.50);
        assert!((p50 - (64.0 + 64.0 * 10.0 / 30.0)).abs() < 1e-9, "{p50}");
        // Rank 4 is the 4th of 10 samples in [4, 8).
        assert!((interpolated_ns(&h, 0.10) - (4.0 + 4.0 * 0.4)).abs() < 1e-9);
        assert_eq!(interpolated_ns(&h, 1.0), 128.0);
        assert_eq!(interpolated_ns(&Histogram::new(), 0.5), 0.0);
    }

    #[test]
    fn merging_runs_rounds_back_to_back() {
        let round = |ops, lat| Sim {
            ops,
            makespan_ps: 10,
            latency: Samples::Exact(vec![(lat, 1)]),
            recoveries: vec![Recovery::default()],
            crashes_missed: 0,
            counts: [("mem.writes".to_string(), ops)].into(),
        };
        let (a, b) = (round(3, 5), round(4, 7));
        let m = Sim::merged([&a, &b].into_iter()).expect("two rounds");
        assert_eq!((m.ops, m.makespan_ps, m.recoveries.len()), (7, 20, 2));
        assert_eq!(m.counts["mem.writes"], 7);
        assert_eq!(m.latency, Samples::Exact(vec![(5, 1), (7, 1)]));
        assert!(Sim::merged(std::iter::empty()).is_none());
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("kv"), None);
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        for w in Workload::ALL {
            let all = |inputs: Inputs| -> Vec<RoundInputs> {
                (0..inputs.variants()).map(|v| inputs.variant(v)).collect()
            };
            let a = all(Inputs::generate(w, 5, Size::SMOKE));
            let b = all(Inputs::generate(w, 5, Size::SMOKE));
            let c = all(Inputs::generate(w, 6, Size::SMOKE));
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
            assert_eq!(a.len(), Size::SMOKE.variants(w));
            let ops = Inputs::generate(w, 5, Size::SMOKE).ops();
            if w != Workload::TraceMix3 {
                assert!(
                    a.iter().all(|v| v.requests.len() as u64 == ops),
                    "{}",
                    w.name()
                );
            }
        }
    }
}
