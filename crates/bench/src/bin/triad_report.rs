//! `triad-report`: the fixed experiment matrix the perf trajectory
//! regresses against.
//!
//! Replays the persistent workload mixes of §4 over every persistence
//! scheme (write-back baseline, TriadNVM-1/2/3, Strict) on
//! `SplitMix64`-seeded traces, then crashes and functionally recovers
//! each cell. Two extra rows (`kv-zipf`, `kv-uniform`) serve a seeded
//! `triad-kv` request history through a one-shard [`KvService`] and
//! verify recovery against an in-DRAM oracle. Four serving rows
//! (`fleet-1/2/4`, `fleet-nogc`) drive the sharded [`KvService`]
//! front-end on the same seeded request schedule and measure aggregate
//! throughput vs. shard count and the commit-marker amortization of
//! group commit (window 8 vs. the unbatched window-1 `fleet-nogc`
//! row). Eight recov rows
//! (`stack-mixed-1..4`, `queue-mixed-1..4`) drive the detectably
//! recoverable Treiber stack / MS queue from `triad-recov` through the
//! seeded interleaving harness at 1–4 threads, with the concurrent
//! crash-equivalence oracle checked on every run; their `recovered`
//! column re-runs the cell with a mid-run per-thread crash injected
//! and demands the oracle still pass. Two durability-mode rows
//! (`mode-buffered`, `mode-inmemory`) run one tenant under each weak
//! tier of the durability contract (`docs/durability-contract.md`),
//! crash a shard with work still staged, and record what recovery
//! measured against the tier's loss bound; the Strict tier's row is
//! `fleet-2`. Emits `BENCH_pr10.json` (deterministic: running twice
//! with the same seed is byte-identical) plus a human-readable table.
//!
//! The matrix runs over the batched write path: trace cells enable an
//! 8-deep persist write-combining window ([`System::set_persist_batch`])
//! and the KV cells inherit batching through the store's WAL apply
//! path. CI checks that a default-args run reproduces the checked-in
//! `BENCH_pr10.json` byte for byte. `bench-delta OLD NEW` compares two
//! reports row by row, for a change that moves simulated numbers on
//! purpose.
//!
//! Usage:
//!   cargo run -p triad-bench --release --bin triad-report
//!   ... -- --ops 2000 --out /tmp/report.json --seed 7

use std::fmt::Write as _;

use triad_core::{PersistScheme, RecoveryReport, SecureMemoryBuilder, System};
use triad_recov::{crash_equivalence_concurrent, OpSpec, RunSpec, StructureKind};
use triad_sim::config::SystemConfig;
use triad_sim::events::write_json_str;
use triad_sim::rng::SplitMix64;
use triad_sim::stats::Histogram;
use triad_workloads::kv::{generate_history, KvSpec};
use triad_workloads::service::{
    generate_requests, DurabilityMode, KvService, Request, ServiceSpec,
};
use triad_workloads::sweep::{self, State};
use triad_workloads::{build_workload, WorkloadEnv};

/// The serving-layer extras a fleet row carries on top of the common
/// cell columns: shard geometry and group-commit amortization.
struct FleetExtra {
    shards: u64,
    group_window: usize,
    mutations: u64,
    group_flushes: u64,
    log_records: u64,
    commit_markers: u64,
    shed: u64,
}

impl FleetExtra {
    /// Commit-marker persists per applied mutation — 1.0 on the
    /// unbatched path, 1/window under perfect group commit.
    fn markers_per_mutation(&self) -> f64 {
        if self.mutations == 0 {
            0.0
        } else {
            self.commit_markers as f64 / self.mutations as f64
        }
    }
}

/// The durability-tier extras a mode row carries: which contract the
/// tenant ran under and what the post-crash recovery report measured
/// against it (`docs/durability-contract.md`, invariant D7).
struct ModeExtra {
    tier: &'static str,
    barriers: u64,
    mutations_lost: u64,
    loss_bound: Option<u64>,
    within_bound: bool,
}

/// The lock-free-structure extras a recov row carries: thread count,
/// scheduler work, crash bookkeeping, and persist amortization.
struct RecovExtra {
    threads: u64,
    steps: u64,
    thread_crashes: u64,
    engine_crashes: u64,
    persists_per_op: f64,
}

/// One (workload, scheme) cell of the matrix.
struct Cell {
    workload: &'static str,
    scheme: PersistScheme,
    ops: u64,
    throughput: f64,
    latency: Histogram,
    nvm_writes: u64,
    persist_metadata_writes: u64,
    evict_metadata_writes: u64,
    wpq_full_events: u64,
    recovered: bool,
    recovery_blocks_read: u64,
    recovery_ns: u64,
    /// `Some` on the serving-fleet rows only.
    fleet: Option<FleetExtra>,
    /// `Some` on the durability-mode rows only.
    mode: Option<ModeExtra>,
    /// `Some` on the recov lock-free-structure rows only.
    recov: Option<RecovExtra>,
}

/// The report runs on a small machine (tiny caches, 16 MiB NVM) so the
/// full matrix — including *functional* crash recovery of every cell —
/// finishes in seconds while still spilling past every cache level.
/// Four cores so the MIX workloads get one lane each; 16 MiB (vs the
/// test config's 4 MiB) keeps the BMT tall enough that TriadNVM-3 and
/// Strict persist different level counts.
fn report_config() -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    cfg.cores = 4;
    cfg.mem.capacity_bytes = 16 << 20;
    cfg
}

fn schemes() -> Vec<PersistScheme> {
    vec![
        PersistScheme::WriteBack,
        PersistScheme::triad_nvm(1),
        PersistScheme::triad_nvm(2),
        PersistScheme::triad_nvm(3),
        PersistScheme::Strict,
    ]
}

fn run_cell(workload: &'static str, scheme: PersistScheme, ops: u64, seed: u64) -> Cell {
    let mem = SecureMemoryBuilder::new()
        .config(report_config())
        .scheme(scheme)
        .key_seed(seed)
        .build()
        .expect("report config is valid");
    let env = WorkloadEnv::of(&mem);
    let traces = build_workload(workload, &env, seed);
    let mut system = System::new(mem, traces);
    system.set_persist_batch(8);
    let result = system.run(ops).expect("clean run");
    let latency = result
        .registry
        .histogram("core.latency_ns")
        .cloned()
        .unwrap_or_default();

    // Crash the machine mid-flight and recover it: the recovery columns
    // are the Figure 10 story, measured functionally rather than from
    // the analytic model.
    let mut mem = system.into_secure();
    mem.crash();
    let report = mem.recover().expect("recovery succeeds on a clean crash");

    Cell {
        workload,
        scheme,
        ops: result.cores.iter().map(|c| c.ops).sum(),
        throughput: result.throughput(),
        latency,
        nvm_writes: result.nvm_writes,
        persist_metadata_writes: result.registry.counter("secure.persist_metadata_writes"),
        evict_metadata_writes: result.registry.counter("secure.evict_metadata_writes"),
        wpq_full_events: result.registry.counter("mem.wpq_full_events"),
        recovered: report.persistent_recovered,
        recovery_blocks_read: report.persistent_blocks_read + report.non_persistent_blocks_read,
        recovery_ns: report.estimated_duration.as_ns(),
        fleet: None,
        mode: None,
        recov: None,
    }
}

/// A KV cell: the seeded Zipf/uniform history served request by
/// request ([`serve_cell`]) through a one-shard [`KvService`] with
/// serial lanes and group window 1, i.e. one commit marker per
/// mutation, so each latency sample is one request on the shard clock.
/// Its recovery column is stronger than the trace cells': after the
/// crash the shard is recovered — engine recovery plus redo log
/// replay — and `recovered` is true only if the surviving state
/// equals the in-DRAM oracle exactly. WriteBack is expected to fail
/// that bar; that gap is the row's point.
fn run_kv_cell(workload: &'static str, scheme: PersistScheme, ops: u64, seed: u64) -> Cell {
    let spec = if workload == "kv-zipf" {
        KvSpec::report_zipf(ops)
    } else {
        KvSpec::report_uniform(ops)
    };
    let reqs = generate_history(&spec, seed);
    let mut svc = KvService::create(&ServiceSpec {
        group_window: 1,
        scheme,
        key_seed: seed,
        config: Some(report_config()),
        ..ServiceSpec::new(1)
    })
    .expect("kv cell create");
    svc.set_threaded(false);
    serve_cell(workload, scheme, &mut svc, &reqs, 1)
}

/// Serves `reqs` in submits of `chunk` requests, checking every
/// response against an in-DRAM oracle ([`sweep::apply`]) and sampling
/// each submit's time over its length as per-request latency on the
/// slowest-shard clock. Then [`service_cell`] crashes and recovers
/// shard 0, and `recovered` is true only if the recovered service's
/// state equals the oracle's exactly.
fn serve_cell(
    workload: &'static str,
    scheme: PersistScheme,
    svc: &mut KvService,
    reqs: &[Request],
    chunk: usize,
) -> Cell {
    let mut model = State::new();
    let mut latency = Histogram::new();
    let t0 = svc.max_shard_time();
    for chunk in reqs.chunks(chunk) {
        let c0 = svc.max_shard_time();
        let resps = svc.submit(chunk).expect("clean service run");
        latency.record(svc.max_shard_time().since(c0).as_ns() / chunk.len() as u64);
        sweep::apply(&mut model, chunk, &resps).expect("reads match the model");
    }
    let elapsed = svc.max_shard_time().since(t0).as_secs_f64();
    let (mut cell, report) = service_cell(workload, scheme, svc, reqs.len(), elapsed, latency);
    cell.recovered = report.is_some_and(|r| r.persistent_recovered)
        && svc.dump().is_ok_and(|state| state == model);
    cell
}

/// The columns every [`KvService`]-driven cell shares: write and
/// WPQ totals summed over the shards, then shard 0 crashed and
/// recovered. `recovered` is left false for the caller to judge from
/// the returned report (`None` when recovery failed).
fn service_cell(
    workload: &'static str,
    scheme: PersistScheme,
    svc: &mut KvService,
    ops: usize,
    elapsed: f64,
    latency: Histogram,
) -> (Cell, Option<RecoveryReport>) {
    let mut cell = Cell {
        workload,
        scheme,
        ops: ops as u64,
        throughput: if elapsed > 0.0 {
            ops as f64 / elapsed
        } else {
            0.0
        },
        latency,
        nvm_writes: 0,
        persist_metadata_writes: 0,
        evict_metadata_writes: 0,
        wpq_full_events: 0,
        recovered: false,
        recovery_blocks_read: 0,
        recovery_ns: 0,
        fleet: None,
        mode: None,
        recov: None,
    };
    for i in 0..svc.shard_count() {
        let mem = svc.shard_mem(i).expect("shard in range");
        cell.nvm_writes += mem.mem_stats().writes;
        cell.persist_metadata_writes += mem.stats().persist_metadata_writes();
        cell.evict_metadata_writes += mem.stats().evict_metadata_writes();
        cell.wpq_full_events += mem.mem_stats().wpq_full_events;
    }
    svc.shard_mem_mut(0).expect("shard 0").crash();
    let report = svc.recover_shard(0).ok();
    if let Some(r) = &report {
        cell.recovery_blocks_read = r.persistent_blocks_read + r.non_persistent_blocks_read;
        cell.recovery_ns = r.estimated_duration.as_ns();
    }
    (cell, report)
}

/// A serving-fleet cell: the same seeded request schedule pushed
/// through the sharded [`KvService`] front-end (keyed-hash routing,
/// group commit, worker threads). Throughput is aggregate: total
/// requests over the *slowest shard's* simulated clock, so the
/// `fleet-1` → `fleet-4` rows measure shard-count scaling, and the
/// window-1 `fleet-nogc` row isolates what group commit buys
/// (`markers_per_mutation` is the amortization headline). Latency
/// samples are per-request averages over 64-request submit chunks on
/// that slowest-shard clock ([`serve_cell`]). Recovery crashes shard 0
/// after the run, replays its WAL, and demands the merged durable
/// state still equal the in-DRAM oracle exactly.
fn run_fleet_cell(
    workload: &'static str,
    shards: u64,
    group_window: usize,
    ops: u64,
    seed: u64,
) -> Cell {
    let spec = ServiceSpec {
        shards,
        group_window,
        buckets: 256,
        key_seed: seed,
        config: Some(report_config()),
        ..ServiceSpec::new(shards)
    };
    let mut svc = KvService::create(&spec).expect("fleet create");
    let reqs = generate_requests(seed, ops as usize, 1024, (8, 64));
    let mut cell = serve_cell(workload, spec.scheme, &mut svc, &reqs, 64);
    // Shard recovery leaves the group-commit stats as they were.
    let groups = svc.merged_group_stats();
    cell.fleet = Some(FleetExtra {
        shards,
        group_window,
        mutations: groups.ops,
        group_flushes: groups.flushes,
        log_records: groups.log_records,
        commit_markers: groups.commit_markers,
        shed: groups.shed,
    });
    cell
}

/// A durability-mode cell: one tenant driven through the sharded
/// [`KvService`] under a single tier of the durability contract
/// (`docs/durability-contract.md`), on the same seeded request
/// schedule as the fleet rows. InMemory rows insert a barrier every
/// fourth chunk so staged work keeps promoting instead of growing an
/// unbounded overlay. After the run shard 0 is crashed *with work
/// still staged* — no final flush or barrier — and recovered; the
/// `recovered` column demands the recovery report name the tier the
/// tenant actually ran under and measure a loss within that tier's
/// bound (invariant D7), and the `durability` JSON object records the
/// measurement.
fn run_mode_cell(workload: &'static str, mode: DurabilityMode, ops: u64, seed: u64) -> Cell {
    let spec = ServiceSpec {
        shards: 2,
        group_window: 8,
        buckets: 256,
        key_seed: seed,
        config: Some(report_config()),
        ..ServiceSpec::new(2)
    };
    let mut svc = KvService::create(&spec).expect("mode cell create");
    svc.set_tenant_mode(1, mode);
    let reqs = generate_requests(seed, ops as usize, 1024, (8, 64));
    let mut latency = Histogram::new();
    let mut barriers = 0u64;
    let t0 = svc.max_shard_time();
    for (n, chunk) in reqs.chunks(64).enumerate() {
        let c0 = svc.max_shard_time();
        svc.submit_as(1, chunk).expect("clean mode run");
        if matches!(mode, DurabilityMode::InMemory) && n % 4 == 3 {
            svc.barrier().expect("clean barrier");
            barriers += 1;
        }
        latency.record(svc.max_shard_time().since(c0).as_ns() / chunk.len() as u64);
    }
    let elapsed = svc.max_shard_time().since(t0).as_secs_f64();
    let (mut cell, report) = service_cell(
        workload,
        spec.scheme,
        &mut svc,
        reqs.len(),
        elapsed,
        latency,
    );
    let d = report.as_ref().map(|r| {
        r.durability
            .expect("service recovery always carries a durability report")
    });
    cell.recovered = report.is_some_and(|r| r.persistent_recovered)
        && d.is_some_and(|d| d.mode == mode.tier_name() && d.within_bound());
    cell.mode = Some(ModeExtra {
        tier: d.map_or(mode.tier_name(), |d| d.mode),
        barriers,
        mutations_lost: d.map_or(0, |d| d.mutations_lost),
        loss_bound: d.map_or(mode.loss_bound(), |d| d.loss_bound),
        within_bound: d.is_some_and(|d| d.within_bound()),
    });
    cell
}

/// Stream selector for recov script generation, so the scripts never
/// collide with other consumers of the same seed.
const RECOV_SCRIPT_STREAM: u64 = 0x5EC0_4D17;

/// Deterministic per-thread recov scripts: roughly two inserts for
/// every remove, with values unique across the whole run.
fn recov_scripts(threads: usize, ops_per_thread: usize, seed: u64) -> Vec<Vec<OpSpec>> {
    (0..threads)
        .map(|t| {
            let mut rng = SplitMix64::stream(seed ^ RECOV_SCRIPT_STREAM, t as u64);
            (0..ops_per_thread)
                .map(|i| {
                    if rng.below(3) == 2 {
                        OpSpec::Remove
                    } else {
                        // Bit 60 keeps every value nonzero and disjoint
                        // from node addresses that may appear in logs.
                        OpSpec::Insert(((t as u64) << 32) | (i as u64) | (1 << 60))
                    }
                })
                .collect()
        })
        .collect()
}

/// A recov cell: drives the detectably recoverable Treiber stack or
/// MS queue from `triad-recov` through the seeded interleaving
/// harness at `threads` threads, mixed insert/remove scripts, on
/// TriadNVM-2. Every run is checked against the concurrent
/// crash-equivalence oracle; latency samples are per-completed-op on
/// the engine clock, and `persists_per_op` is the recov analogue of
/// the fleet rows' `markers_per_mutation`. The `recovered` column
/// re-runs the cell with a per-thread crash injected mid-run and is
/// true only if the crashed thread's recovery keeps the commit log
/// linearizable with every op applied exactly once.
fn run_recov_cell(
    workload: &'static str,
    kind: StructureKind,
    threads: usize,
    ops: u64,
    seed: u64,
) -> Cell {
    let scheme = PersistScheme::triad_nvm(2);
    let spec = RunSpec {
        kind,
        scheme,
        seed,
        scripts: recov_scripts(threads, (ops / 8).max(32) as usize, seed),
        thread_crash: None,
        engine_crash_after_persists: None,
    };
    let out = crash_equivalence_concurrent(&spec).expect("recov oracle holds on the clean run");
    let total_ops = out.op_latency_ns.len() as f64;
    let mut latency = Histogram::new();
    for &ns in &out.op_latency_ns {
        latency.record(ns);
    }

    // Crash the last thread mid-run and demand the oracle still pass:
    // this is the detectability column — recovery must resolve the
    // in-flight op and re-execute it at most once.
    let crashed = RunSpec {
        thread_crash: Some((threads - 1, out.per_thread_steps[threads - 1] / 2)),
        ..spec
    };
    let recovered = crash_equivalence_concurrent(&crashed).is_ok_and(|r| r.thread_crashes == 1);

    Cell {
        workload,
        scheme,
        ops: out.op_latency_ns.len() as u64,
        throughput: total_ops / (out.sim_ns.max(1) as f64 * 1e-9),
        latency,
        nvm_writes: out.nvm_writes,
        persist_metadata_writes: out.persist_metadata_writes,
        evict_metadata_writes: 0,
        wpq_full_events: 0,
        recovered,
        recovery_blocks_read: 0,
        recovery_ns: 0,
        fleet: None,
        mode: None,
        recov: Some(RecovExtra {
            threads: threads as u64,
            steps: out.steps,
            thread_crashes: out.thread_crashes,
            engine_crashes: out.engine_crashes,
            persists_per_op: if total_ops > 0.0 {
                out.persists as f64 / total_ops
            } else {
                0.0
            },
        }),
    }
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::new();
    write_json_str(&mut out, s);
    out
}

/// Hand-rolled, key-order-fixed JSON: determinism is the whole point.
fn render_json(cells: &[Cell], ops: u64, seed: u64) -> String {
    let cfg = report_config();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"report\": \"triad-report\",");
    let _ = writeln!(out, "  \"version\": 2,");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"ops_per_core\": {ops},");
    let _ = writeln!(
        out,
        "  \"config\": {{ \"capacity_bytes\": {}, \"cores\": {}, \"wpq_entries\": {} }},",
        cfg.mem.capacity_bytes, cfg.cores, cfg.mem.wpq_entries
    );
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let h = &c.latency;
        let _ = write!(
            out,
            "    {{ \"workload\": {}, \"scheme\": {}, \"ops\": {}, \
             \"throughput_ips\": {:.3}, \
             \"latency_ns\": {{ \"count\": {}, \"mean\": {:.3}, \"min\": {}, \"max\": {}, \
             \"p50\": {}, \"p95\": {}, \"p99\": {} }}, \
             \"nvm_writes\": {}, \"persist_metadata_writes\": {}, \
             \"evict_metadata_writes\": {}, \"wpq_full_events\": {}, \
             \"recovery\": {{ \"recovered\": {}, \"blocks_read\": {}, \"time_ns\": {} }}",
            json_str(c.workload),
            json_str(&c.scheme.to_string()),
            c.ops,
            c.throughput,
            h.count(),
            h.mean(),
            h.min(),
            h.max(),
            h.p50(),
            h.p95(),
            h.p99(),
            c.nvm_writes,
            c.persist_metadata_writes,
            c.evict_metadata_writes,
            c.wpq_full_events,
            c.recovered,
            c.recovery_blocks_read,
            c.recovery_ns,
        );
        if let Some(f) = &c.fleet {
            let _ = write!(
                out,
                ", \"fleet\": {{ \"shards\": {}, \"group_window\": {}, \"mutations\": {}, \
                 \"group_flushes\": {}, \"log_records\": {}, \"commit_markers\": {}, \
                 \"markers_per_mutation\": {:.4}, \"shed\": {} }}",
                f.shards,
                f.group_window,
                f.mutations,
                f.group_flushes,
                f.log_records,
                f.commit_markers,
                f.markers_per_mutation(),
                f.shed,
            );
        }
        if let Some(m) = &c.mode {
            let _ = write!(
                out,
                ", \"durability\": {{ \"tier\": {}, \"barriers\": {}, \
                 \"mutations_lost\": {}, \"loss_bound\": {}, \"within_bound\": {} }}",
                json_str(m.tier),
                m.barriers,
                m.mutations_lost,
                m.loss_bound
                    .map_or_else(|| "null".to_string(), |b| b.to_string()),
                m.within_bound,
            );
        }
        if let Some(r) = &c.recov {
            let _ = write!(
                out,
                ", \"recov\": {{ \"threads\": {}, \"steps\": {}, \"thread_crashes\": {}, \
                 \"engine_crashes\": {}, \"persists_per_op\": {:.4} }}",
                r.threads, r.steps, r.thread_crashes, r.engine_crashes, r.persists_per_op,
            );
        }
        out.push_str(" }");
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn print_table(cells: &[Cell]) {
    println!(
        "{:<10} {:>12} {:>8} {:>8} {:>8} {:>10} {:>10} {:>12}",
        "workload", "scheme", "p50 ns", "p95 ns", "p99 ns", "nvm wr", "meta wr", "recovery"
    );
    println!("{}", "-".repeat(86));
    let mut last = "";
    for c in cells {
        if c.workload != last && !last.is_empty() {
            println!();
        }
        last = c.workload;
        println!(
            "{:<10} {:>12} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10.1}us",
            c.workload,
            c.scheme.to_string(),
            c.latency.p50(),
            c.latency.p95(),
            c.latency.p99(),
            c.nvm_writes,
            c.persist_metadata_writes + c.evict_metadata_writes,
            c.recovery_ns as f64 / 1e3,
        );
    }
}

fn main() {
    let mut ops: u64 = 4000;
    let mut out_path = String::from("BENCH_pr10.json");
    let mut seed: u64 = 42;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ops" => {
                let v = args.next().expect("--ops needs a value");
                ops = v.parse().expect("--ops needs an integer");
            }
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--seed" => {
                let v = args.next().expect("--seed needs a value");
                seed = v.parse().expect("--seed needs an integer");
            }
            other => {
                eprintln!("unknown flag {other:?}; flags: --ops N --out PATH --seed N");
                std::process::exit(2);
            }
        }
    }

    // The fixed matrix: the three PMDK microbenchmark traces plus the
    // four MIX workloads, i.e. every trace with a persistent-store component
    // (pure SPEC lanes exercise no persists and tell the schemes apart
    // far less) — plus the two triad-kv rows (`kv-zipf`,
    // `kv-uniform`), which are driven through `run_kv_cell` and carry
    // the oracle-verified recovery column.
    let workloads = [
        "hashtable",
        "queue",
        "arrayswap",
        "mix1",
        "mix2",
        "mix3",
        "mix4",
        "kv-zipf",
        "kv-uniform",
    ];

    let mut cells = Vec::new();
    for w in workloads {
        for s in schemes() {
            cells.push(if w.starts_with("kv-") {
                run_kv_cell(w, s, ops, seed)
            } else {
                run_cell(w, s, ops, seed)
            });
        }
    }

    // The serving rows sweep shard count (not scheme) on one seeded
    // request schedule: `fleet-1/2/4` share a window-8 group commit so
    // their throughput column is the scaling curve, and `fleet-nogc`
    // repeats `fleet-4` unbatched (window 1) so the
    // `markers_per_mutation` gap is group commit's amortization.
    for (label, shards, window) in [
        ("fleet-1", 1, 8),
        ("fleet-2", 2, 8),
        ("fleet-4", 4, 8),
        ("fleet-nogc", 4, 1),
    ] {
        cells.push(run_fleet_cell(label, shards, window, ops, seed));
    }

    // The durability-mode rows run one tenant under each weak tier of
    // the contract on a two-shard service, crash shard 0 with work
    // still staged, and let recovery measure the loss against the
    // tier's bound: the throughput spread against `fleet-2` (the same
    // schedule under the Strict tier) is the price of each guarantee
    // and the `durability` object is invariant D7 made observable.
    for (label, mode) in [
        ("mode-buffered", DurabilityMode::buffered_default()),
        ("mode-inmemory", DurabilityMode::InMemory),
    ] {
        cells.push(run_mode_cell(label, mode, ops, seed));
    }

    // The recov rows sweep thread count (not scheme) for the two
    // detectably recoverable structures; the 1-thread → 4-thread
    // progression is the contention curve and `persists_per_op` the
    // per-op persistence price of detectability.
    for (label, kind, threads) in [
        ("stack-mixed-1", StructureKind::Stack, 1),
        ("stack-mixed-2", StructureKind::Stack, 2),
        ("stack-mixed-3", StructureKind::Stack, 3),
        ("stack-mixed-4", StructureKind::Stack, 4),
        ("queue-mixed-1", StructureKind::Queue, 1),
        ("queue-mixed-2", StructureKind::Queue, 2),
        ("queue-mixed-3", StructureKind::Queue, 3),
        ("queue-mixed-4", StructureKind::Queue, 4),
    ] {
        cells.push(run_recov_cell(label, kind, threads, ops, seed));
    }

    print_table(&cells);
    let json = render_json(&cells, ops, seed);
    std::fs::write(&out_path, &json).expect("write report");
    println!("\nwrote {out_path} ({} cells)", cells.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_and_mixed() {
        let a = recov_scripts(3, 32, 7);
        assert_eq!(a, recov_scripts(3, 32, 7));
        assert_ne!(a, recov_scripts(3, 32, 8));
        let flat: Vec<_> = a.into_iter().flatten().collect();
        assert!(flat.iter().any(|o| matches!(o, OpSpec::Insert(_))));
        assert!(flat.iter().any(|o| matches!(o, OpSpec::Remove)));
    }
}
