//! A minimal wall-clock micro-benchmark harness (Criterion
//! replacement), used by the `benches/*.rs` `harness = false` targets.
//!
//! Measurement model: every sample times a *batch* of iterations on the
//! monotonic clock ([`std::time::Instant`]) and divides by the batch
//! length, so per-call overhead of the clock amortises away even for
//! nanosecond-scale operations. The batch size is auto-calibrated until
//! one batch takes at least [`Sampler::batch_target`]. After a warmup
//! batch, the
//! harness collects [`Sampler::samples`] samples and reports the
//! **median** and **min** per-iteration time — the median is the robust
//! central estimate, the min approximates the noise floor.
//!
//! Environment knobs:
//!
//! * `TRIAD_BENCH_SAMPLES` — sample count per benchmark (default 30,
//!   or 5 under `TRIAD_BENCH_QUICK`). Any value but a positive integer
//!   stops the run with a panic that names the variable.
//! * `TRIAD_BENCH_QUICK` — when set, 5 samples by default and a 10×
//!   smaller batch target, for CI smoke runs.

use std::time::{Duration, Instant};

/// Target wall time of one calibrated measurement batch.
const TARGET_BATCH: Duration = Duration::from_millis(2);

/// Per-benchmark measurement configuration.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    /// Number of timed samples collected after warmup.
    pub samples: usize,
    /// Wall-time target for one batch of iterations.
    pub batch_target: Duration,
}

impl Default for Sampler {
    fn default() -> Self {
        let quick = std::env::var_os("TRIAD_BENCH_QUICK").is_some();
        Sampler {
            samples: crate::env_count("TRIAD_BENCH_SAMPLES", if quick { 5 } else { 30 }),
            batch_target: if quick {
                TARGET_BATCH / 10
            } else {
                TARGET_BATCH
            },
        }
    }
}

/// One benchmark's aggregated result, in per-iteration seconds.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Median per-iteration time across samples.
    pub median: f64,
    /// Minimum per-iteration time across samples.
    pub min: f64,
    /// Iterations per measurement batch after calibration.
    pub batch: u64,
}

fn format_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn print_report(name: &str, r: &Report) {
    println!(
        "{name:<40} median {:>12}   min {:>12}   ({} iters/sample)",
        format_time(r.median),
        format_time(r.min),
        r.batch
    );
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Times `f` and prints a median/min report under `name`.
///
/// The closure's return value is passed through [`std::hint::black_box`]
/// so the computation cannot be optimised away.
pub fn bench<R, F: FnMut() -> R>(name: &str, mut f: F) -> Report {
    let cfg = Sampler::default();
    // Calibrate: grow the batch until it exceeds the target.
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        let took = t0.elapsed();
        if took >= cfg.batch_target || batch >= 1 << 30 {
            break;
        }
        // Aim straight for the target, with headroom.
        let scale = cfg.batch_target.as_secs_f64() / took.as_secs_f64().max(1e-9);
        batch = (batch as f64 * scale.clamp(2.0, 1000.0)).ceil() as u64;
    }
    let mut samples = Vec::with_capacity(cfg.samples);
    for _ in 0..cfg.samples {
        let t0 = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        samples.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let report = Report {
        median: median(&mut samples),
        min,
        batch,
    };
    print_report(name, &report);
    report
}

/// Times `f` on inputs produced by `setup`, excluding setup time —
/// for benchmarks that consume their input (e.g. crash recovery).
///
/// Each sample times a single call, so this suits operations in the
/// microsecond range and above.
pub fn bench_batched<S, R, G: FnMut() -> S, F: FnMut(S) -> R>(
    name: &str,
    mut setup: G,
    mut f: F,
) -> Report {
    let cfg = Sampler::default();
    // Warmup (also primes allocators and code paths).
    std::hint::black_box(f(setup()));
    let mut samples = Vec::with_capacity(cfg.samples);
    for _ in 0..cfg.samples {
        let input = setup();
        let t0 = Instant::now();
        std::hint::black_box(f(input));
        samples.push(t0.elapsed().as_secs_f64());
    }
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let report = Report {
        median: median(&mut samples),
        min,
        batch: 1,
    };
    print_report(name, &report);
    report
}

/// Prints the standard header for a bench binary.
pub fn header(title: &str) {
    println!("== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn format_picks_sane_units() {
        assert!(format_time(2.0).ends_with(" s"));
        assert!(format_time(2e-3).ends_with(" ms"));
        assert!(format_time(2e-6).ends_with(" µs"));
        assert!(format_time(2e-9).ends_with(" ns"));
    }

    #[test]
    fn bench_reports_positive_times() {
        std::env::set_var("TRIAD_BENCH_QUICK", "1");
        let r = bench("spin", || std::hint::black_box(17u64).wrapping_mul(3));
        assert!(r.median > 0.0);
        assert!(r.min <= r.median);
        assert!(r.batch >= 1);
    }

    #[test]
    fn bench_batched_excludes_setup() {
        std::env::set_var("TRIAD_BENCH_QUICK", "1");
        let r = bench_batched("sum", || vec![1u64; 1024], |v| v.iter().sum::<u64>());
        assert!(r.median > 0.0);
    }
}
