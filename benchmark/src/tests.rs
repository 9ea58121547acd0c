//! Whole-run tests: determinism, the `BENCHMARK.json` contract, and a
//! known failure of the program that the benchmark's sizing avoids.

use std::collections::BTreeMap;

use triad_workloads::service::{generate_requests, KvService, ServiceSpec};

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{self, Workload};
use crate::{json_line, parse_args, run, Args, Report};

fn smoke_traced(workload: Workload, trace: bool) -> (Report, Tracer) {
    let mut tracer = Tracer::new();
    let args = Args {
        workload,
        seed: 42,
        seconds: 0.0,
        trace,
        smoke: true,
    };
    (run(&args, &mut tracer), tracer)
}

fn smoke(workload: Workload, trace: bool) -> Report {
    smoke_traced(workload, trace).0
}

/// Every metric a run reports whose value repeats exactly for a seed.
fn simulated(report: &Report) -> BTreeMap<&'static str, f64> {
    report
        .metrics
        .iter()
        .filter(|(m, _)| !m.host)
        .map(|(m, v)| (m.name, *v))
        .collect()
}

#[test]
fn every_workload_is_deterministic_and_tracing_changes_no_simulated_number() {
    for w in Workload::ALL {
        let a = smoke(w, false);
        let b = smoke(w, false);
        let (t, tracer) = smoke_traced(w, true);
        for r in [&a, &b, &t] {
            assert!(r.correct, "{}: {:?}", w.name(), r.notes);
            assert_eq!(r.failed, 0);
        }
        let sim = a.sim.as_ref().expect("a round ran");
        assert!(sim.ops > 0 && sim.makespan_ps > 0, "{}", w.name());
        assert_eq!(a.sim, b.sim, "{}: two runs differ", w.name());
        assert_eq!(
            a.sim,
            t.sim,
            "{}: tracing moved a simulated number",
            w.name()
        );
        assert_eq!(simulated(&a), simulated(&b), "{}", w.name());
        assert!(tracer.spans().iter().any(|s| s.name == "workload.setup"));
    }
}

#[test]
fn kv_crash_recovers_at_every_armed_crash() {
    let r = smoke(Workload::KvCrash, false);
    let sim = r.sim.expect("a round ran");
    // One armed crash per smoke round, one round per input variant.
    let armed = workloads::Size::SMOKE.variants(Workload::KvCrash) as u64;
    assert_eq!(sim.recoveries.len() as u64 + sim.crashes_missed, armed);
    assert!(!sim.recoveries.is_empty(), "the armed crashes must fire");
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let a = args("--workload kv-read --seed 7 --seconds 2.5 --trace 1").unwrap();
    assert_eq!(
        a,
        Args {
            workload: Workload::KvRead,
            seed: 7,
            seconds: 2.5,
            trace: true,
            smoke: false
        }
    );
    for bad in [
        "--seed 7",
        "--workload kv-read",
        "--workload nope --seed 1",
        "--workload kv-read --seed -1",
        "--workload kv-read --seed 1 --trace 2",
        "--workload kv-read --seed 1 --seconds -3",
        "--workload kv-read --seed 1 --extra",
        "--workload kv-read --seed",
    ] {
        assert!(args(bad).is_err(), "{bad}");
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn well_formed_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// `(name, unit)` of every metric printed in a run's JSON line.
fn printed(report: &Report) -> Vec<(String, String)> {
    let line = json::parse(&json_line(report)).expect("the output line is JSON");
    assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
    let metrics = line.get("metrics").expect("metrics");
    metrics
        .keys()
        .into_iter()
        .map(|name| {
            let m = metrics.get(name).expect("member");
            assert_eq!(m.keys(), ["value", "unit"]);
            assert!(m
                .get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite));
            (
                name.to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_binary_prints() {
    let doc = benchmark_json();
    assert_eq!(
        doc.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| {
            assert_eq!(w.keys(), ["name", "why"]);
            w.get("name").and_then(Value::as_str).expect("name")
        })
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));

    let declared = |key: &str, with_bound: bool| -> Vec<(String, String)> {
        let list = doc.get(key).and_then(Value::as_array).expect(key);
        list.iter()
            .map(|m| {
                let keys: &[&str] = if with_bound {
                    &["name", "unit", "better", "bound"]
                } else {
                    &["name", "unit", "better"]
                };
                assert_eq!(m.keys(), keys);
                let name = m.get("name").and_then(Value::as_str).expect("name");
                assert!(well_formed_name(name), "{name}");
                let better = m.get("better").and_then(Value::as_str);
                assert!(matches!(better, Some("higher" | "lower")), "{name}");
                if with_bound {
                    let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
                    assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
                }
                let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    };
    let e2e = declared("end_to_end", true);
    let layers = declared("per_layer", false);
    assert!(e2e.len() <= 16 && layers.len() <= 128);
    let setup = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("list");
    assert!(setup
        .iter()
        .any(|m| m.get("name").and_then(Value::as_str) == Some("setup_s")
            && m.get("unit").and_then(Value::as_str) == Some("s")
            && m.get("better").and_then(Value::as_str) == Some("lower")));

    let table = |defs: &[crate::metrics::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(e2e, table(&END_TO_END));
    assert_eq!(layers, table(&PER_LAYER));
    let w = Workload::TraceMix3;
    assert_eq!(printed(&smoke(w, false)), e2e);
    assert_eq!(printed(&smoke(w, true)), layers);
}

/// A clean, crash-free run that fails with a spurious `MacMismatch`
/// once the store's bucket blocks have been rewritten often enough to
/// re-encrypt their pages. With 2 shards at 64 MiB and 1024 buckets the
/// `kv-write` load fails the same way after 53 k (seed 1) to 111 k
/// (seed 42) requests. Un-ignore once the engine is fixed.
#[test]
#[ignore = "known failure: spurious MacMismatch after page re-encryptions"]
fn clean_run_with_1024_buckets_serves_every_request() {
    let mut config = triad_sim::config::SystemConfig::tiny();
    config.cores = 4;
    config.mem.capacity_bytes = 16 << 20;
    let mut svc = KvService::create(&ServiceSpec {
        shards: 1,
        group_window: 8,
        buckets: 1024,
        key_seed: 42,
        config: Some(config),
        ..ServiceSpec::new(1)
    })
    .expect("create");
    svc.set_threaded(false);
    let reqs = generate_requests(42, 21_376, 1024, (8, 64));
    for (b, batch) in reqs.chunks(workloads::BATCH).enumerate() {
        if let Err(e) = svc.submit(batch) {
            // Today: request 21312, MacMismatch { block: BlockAddr(196715) }.
            panic!("request {}: {e:?}", b * workloads::BATCH);
        }
    }
}

/// `kv-read`'s seed-12 inputs on the pre-fix 512-bucket service: after a
/// clean run and a clean crash, log replay fails with `MacMismatch` on
/// the block after the last commit marker. A page re-encryption
/// triggered by a commit-marker write left that block's NVM MAC stale
/// (the marker's pre-re-encryption MAC block is persisted last), and
/// nothing rewrote it. The benchmark's 504 buckets keep commit markers
/// off WAL page boundaries. Un-ignore once the engine is fixed.
#[test]
#[ignore = "known failure: stale MACs after a page re-encryption on a commit marker"]
fn stale_log_macs_after_a_marker_reencrypts_its_page() {
    let inputs = workloads::Inputs::generate(Workload::KvRead, 12, workloads::Size::FULL);
    let variant = &inputs.variant(0);
    let mut svc = KvService::create(&ServiceSpec {
        buckets: 512,
        ..workloads::service_spec(Workload::KvRead, variant.seed)
    })
    .expect("create");
    svc.set_threaded(false);
    for batch in variant.preload.chunks(workloads::BATCH) {
        svc.submit(batch).expect("preload");
    }
    for batch in variant.requests.chunks(workloads::BATCH) {
        svc.submit(batch).expect("clean serving");
    }
    svc.shard_mem_mut(0).expect("shard 0").crash();
    // Today: MacMismatch { block: BlockAddr(786563) }.
    if let Err(e) = svc.recover_shard(0) {
        panic!("recovery after a clean crash: {e:?}");
    }
}

/// `kv-crash` at the 320 submits per round it was first sized with,
/// seed 10: a crash lands right after the write that re-encrypts the
/// WAL page starting at log block 31, before the next write into that
/// MAC block, and log replay fails with `MacMismatch` on log block 32.
/// The benchmark's 96-submit rounds never re-encrypt a WAL page.
/// Un-ignore once the engine is fixed.
#[test]
#[ignore = "known failure: stale MACs when a crash follows a page re-encryption"]
fn crash_right_after_a_page_reencryption_recovers() {
    let size = workloads::Size {
        crash_submits: 320,
        ..workloads::Size::FULL
    };
    let inputs = workloads::Inputs::generate(Workload::KvCrash, 10, size);
    // Today: batch 231, recover shard 0, MacMismatch at blk:0xc0081.
    if let Err(f) = workloads::run_round(&inputs, 0, &mut Tracer::new()) {
        panic!("{}", f.message);
    }
}
