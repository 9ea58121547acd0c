//! `benchmark`: runs one workload of the repository benchmark for a
//! fixed host time, checks every answer, and prints every metric as
//! `name value unit`, then the same content as one JSON line.
//!
//! ```text
//! benchmark --workload <kv-write|kv-read|trace-mix3|kv-crash> --seed <n>
//!           [--seconds <s>] [--trace <0|1>] [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced and traced rounds, writes the spans as JSON lines under
//! `$CARGO_TARGET_DIR/benchmark/` (default `target/`), and prints the
//! per-layer metrics. The exit code is 1 when any check failed and 2 on
//! a usage error.

mod counts;
mod metrics;
mod micro;
mod oracle;
mod speed;
mod trace;
mod workloads;

#[cfg(test)]
mod json;
#[cfg(test)]
mod tests;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use metrics::{MetricDef, Traced, END_TO_END, PER_LAYER};
use trace::Tracer;
use workloads::{Failure, Inputs, Round, Sim, Size, Workload};

const USAGE: &str = "usage: benchmark --workload <kv-write|kv-read|trace-mix3|kv-crash> \
                     --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v:?} is not a u64"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds {v:?} is not a non-negative number"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
    })
}

/// The outcome of a run.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(MetricDef, f64)>,
    notes: Vec<String>,
    /// The merged simulated results.
    #[cfg(test)]
    sim: Option<Sim>,
}

/// Runs rounds until `args.seconds` of host time have passed: at least
/// one round of each input variant, and when tracing, alternating
/// blocks of untraced and traced rounds, at least one of each, whose
/// spans go to `tracer`.
fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let size = if args.smoke { Size::SMOKE } else { Size::FULL };
    let inputs = Inputs::generate(args.workload, args.seed, size);
    let per_round = inputs.ops();
    let variants = inputs.variants();
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<bool> = Vec::new();
    let mut failure: Option<Failure> = None;
    let start = Instant::now();
    loop {
        let index = rounds.len();
        let trace_this = args.trace && (index / variants) % 2 == 1;
        tracer.set_enabled(trace_this);
        match workloads::run_round(&inputs, index, tracer) {
            Ok(round) if index >= variants && round.sim != rounds[index - variants].sim => {
                failure = Some(Failure {
                    completed: 0,
                    message: format!(
                        "round {index} did not reproduce the simulated results of round {}",
                        index - variants
                    ),
                });
                break;
            }
            Ok(round) => {
                rounds.push(round);
                traced.push(trace_this);
            }
            Err(f) => {
                failure = Some(f);
                break;
            }
        }
        let min_rounds = if args.trace { 2 * variants } else { variants };
        if rounds.len() >= min_rounds && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    tracer.set_enabled(false);

    let attempted = per_round * (rounds.len() as u64 + u64::from(failure.is_some()));
    let sim = Sim::merged(rounds.iter().take(variants).map(|r| &r.sim));
    let mut report = Report {
        correct: failure.is_none(),
        attempted,
        failed: failure.as_ref().map_or(0, |f| per_round - f.completed),
        metrics: Vec::new(),
        notes: Vec::new(),
        #[cfg(test)]
        sim: sim.clone(),
    };
    let (Some(sim), None) = (sim, &failure) else {
        let why = failure.map_or_else(|| "no round ran".to_string(), |f| f.message);
        report.correct = false;
        report
            .notes
            .push(format!("FAILED in round {}: {why}", rounds.len()));
        return report;
    };

    report.notes.push(format!(
        "{} seed {}: {} rounds ({} traced) of {} ops each over {variants} input variants; \
         simulated values merge one round of each variant and every round reproduced its \
         variant's; host values are medians over rounds of times scaled to the reference \
         speed",
        args.workload.name(),
        args.seed,
        rounds.len(),
        traced.iter().filter(|t| **t).count(),
        per_round,
    ));
    let l = sim.latency.latency();
    report.notes.push(format!(
        "sim latency: {} samples in {} groups, {} groups beyond p99 ({})",
        l.samples,
        l.groups,
        l.groups_beyond_p99,
        if l.exact {
            "exact per-request samples"
        } else {
            "interpolated within the power-of-two buckets of System's histogram"
        },
    ));
    let per_round_host: Vec<String> = rounds
        .iter()
        .map(|r| {
            format!(
                "{:.3}/{:.0}/{:.4}/{:.3}/{:.0}",
                r.slowdown,
                r.sim.ops as f64 / r.timed_s,
                r.setup_s,
                r.recovery_slowdown,
                metrics::median(&r.recovery_host_us)
            )
        })
        .collect();
    report.notes.push(format!(
        "per round: slowdown against the reference speed, unscaled host ops/s and setup s, \
         slowdown around recoveries, unscaled median recovery us: {}",
        per_round_host.join(" ")
    ));
    report.notes.push(format!(
        "recoveries: {}; armed crashes that did not fire: {}",
        sim.recoveries.len(),
        sim.crashes_missed
    ));

    if args.trace {
        let config = match args.workload {
            Workload::TraceMix3 => workloads::trace_config(),
            _ => workloads::kv_config(),
        };
        tracer.set_enabled(true);
        let micro = micro::measure(config, tracer);
        tracer.set_enabled(false);
        let micro = match micro {
            Ok(m) => m,
            Err(e) => {
                report.correct = false;
                report.notes.push(format!("FAILED primitive timings: {e}"));
                return report;
            }
        };
        let t = Traced {
            sim: &sim,
            rounds: &rounds,
            traced: &traced,
            tracer,
            micro,
        };
        report.metrics = PER_LAYER
            .iter()
            .map(|m| (*m, metrics::per_layer(m.name, &t)))
            .collect();
        for (name, s) in tracer.totals() {
            report.notes.push(format!(
                "span {name}: {} spans, {:.6} s total, {:.6} s self",
                s.count,
                s.total_ns as f64 / 1e9,
                s.self_ns as f64 / 1e9
            ));
        }
    } else {
        report.metrics = END_TO_END
            .iter()
            .map(|m| (*m, metrics::end_to_end(m.name, &sim, &rounds)))
            .collect();
    }
    report
}

/// Where `--trace 1` writes its spans.
fn trace_path(args: &Args) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target
        .join("benchmark")
        .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed))
}

/// The final output line.
fn json_line(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.attempted, report.failed
    );
    for (i, (m, v)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new();
    let report = run(&args, &mut tracer);
    if !tracer.spans().is_empty() {
        let path = trace_path(&args);
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("benchmark: writing {}: {e}", path.display()),
        }
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for (m, v) in &report.metrics {
        println!("{} {v} {}", m.name, m.unit);
    }
    println!("{}", json_line(&report));
    if !report.correct {
        std::process::exit(1);
    }
}
