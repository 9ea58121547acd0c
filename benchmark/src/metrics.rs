//! Every metric the benchmark reports, and how each is computed from
//! the rounds of a run.
//!
//! Units name their clock: `sim-us` and `1/sim-s` are simulated time,
//! `us`, `s` and `1/s` host time. Simulated values come from one round
//! of each input variant, merged; host values are medians over every
//! round of times scaled to the reference speed (`crate::speed`).

use crate::counts::Counts;
use crate::micro::Micro;
use crate::trace::Tracer;
use crate::workloads::{Round, Sim};

/// A reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Whether the value is a host measurement (false: it repeats
    /// exactly for a given seed).
    pub host: bool,
}

const fn sim(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        host: false,
    }
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        host: true,
    }
}

/// What a user of the system sees; printed by untraced runs.
pub const END_TO_END: [MetricDef; 9] = [
    sim("sim_ops_per_s", "1/sim-s"),
    sim("sim_latency_p50_us", "sim-us"),
    sim("sim_latency_p99_us", "sim-us"),
    host("host_ops_per_s", "1/s"),
    sim("nvm_writes_per_op", "writes/op"),
    sim("recovery_sim_us", "sim-us"),
    host("recovery_host_us_p50", "us"),
    host("setup_s", "s"),
    host("peak_rss_mib", "MiB"),
];

/// One layer at a time; printed by traced runs.
pub const PER_LAYER: [MetricDef; 48] = [
    sim("service.flush_group_size_mean", "ops/flush"),
    sim("service.markers_per_mutation", "markers/op"),
    sim("service.shed", "count"),
    sim("kv.log_records_per_mutation", "records/op"),
    sim("kv.get_hit_ratio", "ratio"),
    sim("kv.replay_records_scanned", "records"),
    sim("kv.replay_txns_applied", "txns"),
    sim("kv.replay_records_discarded", "records"),
    sim("kv.replay_sim_us_p50", "sim-us"),
    sim("core.persists_per_op", "count/op"),
    sim("core.persist_meta_writes_per_op", "writes/op"),
    sim("core.evict_meta_writes_per_op", "writes/op"),
    sim("core.counter_reads_per_op", "reads/op"),
    sim("core.mac_reads_per_op", "reads/op"),
    sim("core.node_reads_per_op", "reads/op"),
    sim("core.counter_fetch_sim_us_total", "sim-us"),
    sim("core.mac_fetch_sim_us_total", "sim-us"),
    sim("core.node_fetch_sim_us_total", "sim-us"),
    sim("core.persist_sim_us_total", "sim-us"),
    sim("core.batch_writes_merged_per_op", "writes/op"),
    sim("core.page_reencryptions_per_kop", "count/kop"),
    sim("core.recover_blocks_read", "blocks"),
    host("core.recover_host_us", "us"),
    sim("cache.l3_hit_ratio", "ratio"),
    sim("cache.ctr_hit_ratio", "ratio"),
    sim("cache.mt_hit_ratio", "ratio"),
    sim("cache.meta_dirty_evictions_per_op", "count/op"),
    sim("cache.prefetch_predicted_hit_ratio", "ratio"),
    sim("mem.reads_per_op", "reads/op"),
    sim("mem.row_hit_ratio", "ratio"),
    sim("mem.wpq_full_events_per_op", "count/op"),
    sim("mem.wpq_stall_sim_us_total", "sim-us"),
    sim("mem.write_accept_delay_sim_ns_mean", "sim-ns"),
    sim("mem.wpq_occupancy_mean", "entries"),
    sim("mem.wpq_coalesced_per_op", "count/op"),
    host("crypto.ctr_pad_64B_host_ns", "ns"),
    host("crypto.data_mac_64B_host_ns", "ns"),
    host("crypto.siphash_64B_host_ns", "ns"),
    sim("crypto.pads_per_op", "pads/op"),
    host("crypto.est_host_share", "frac"),
    host("meta.node_hash_host_ns", "ns"),
    host("meta.rebuild_from_level2_host_us", "us"),
    sim("meta.node_writes_per_op", "writes/op"),
    host("driver.call_host_us_p50", "us"),
    host("driver.call_host_us_p99", "us"),
    host("driver.oracle_host_s", "s"),
    host("driver.self_host_frac", "frac"),
    host("trace.overhead_frac", "frac"),
];

/// The median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn c(counts: &Counts, name: &str) -> f64 {
    counts.get(name).copied().unwrap_or(0) as f64
}

/// Hits over accesses of one cache scope.
fn hit_ratio(counts: &Counts, cache: &str) -> f64 {
    let hits = c(counts, &format!("{cache}.read_hits")) + c(counts, &format!("{cache}.write_hits"));
    let misses =
        c(counts, &format!("{cache}.read_misses")) + c(counts, &format!("{cache}.write_misses"));
    ratio(hits, hits + misses)
}

fn histogram_mean(counts: &Counts, name: &str) -> f64 {
    ratio(
        c(counts, &format!("{name}.sum")),
        c(counts, &format!("{name}.count")),
    )
}

fn recovery_median(sim: &Sim, f: impl Fn(&crate::workloads::Recovery) -> u64) -> f64 {
    median(
        &sim.recoveries
            .iter()
            .map(|r| f(r) as f64)
            .collect::<Vec<_>>(),
    )
}

fn recovery_mean(sim: &Sim, f: impl Fn(&crate::workloads::Recovery) -> u64) -> f64 {
    let total: u64 = sim.recoveries.iter().map(f).sum();
    ratio(total as f64, sim.recoveries.len() as f64)
}

/// Median host throughput at the reference speed over `rounds`.
fn host_ops_per_s<'a>(rounds: impl Iterator<Item = &'a Round>) -> f64 {
    median(
        &rounds
            .map(|r| ratio(r.sim.ops as f64, r.timed_s / r.slowdown))
            .collect::<Vec<_>>(),
    )
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The value of end-to-end metric `name` for the merged simulated
/// results `sim` and the untraced `rounds`.
pub fn end_to_end(name: &str, sim: &Sim, rounds: &[Round]) -> f64 {
    let ops = sim.ops as f64;
    match name {
        "sim_ops_per_s" => ratio(ops, sim.makespan_ps as f64 / 1e12),
        "sim_latency_p50_us" => sim.latency.latency().p50_ps as f64 / 1e6,
        "sim_latency_p99_us" => sim.latency.latency().p99_ps as f64 / 1e6,
        "host_ops_per_s" => host_ops_per_s(rounds.iter()),
        "nvm_writes_per_op" => ratio(c(&sim.counts, "mem.writes"), ops),
        "recovery_sim_us" => recovery_median(sim, |r| r.total_ps()) / 1e6,
        "recovery_host_us_p50" => median(
            &rounds
                .iter()
                .flat_map(|r| r.recovery_host_us.iter().map(|us| us / r.recovery_slowdown))
                .collect::<Vec<_>>(),
        ),
        "setup_s" => median(
            &rounds
                .iter()
                .map(|r| r.setup_s / r.slowdown)
                .collect::<Vec<_>>(),
        ),
        "peak_rss_mib" => peak_rss_mib(),
        other => unreachable!("no end-to-end metric named {other}"),
    }
}

/// Everything a traced run measured.
pub struct Traced<'a> {
    /// The merged simulated results.
    pub sim: &'a Sim,
    /// Every round, untraced and traced.
    pub rounds: &'a [Round],
    /// Which rounds recorded spans.
    pub traced: &'a [bool],
    /// The spans.
    pub tracer: &'a Tracer,
    /// Primitive timings.
    pub micro: Micro,
}

impl Traced<'_> {
    fn host_ops(&self, traced: bool) -> f64 {
        host_ops_per_s(
            self.rounds
                .iter()
                .zip(self.traced)
                .filter(|(_, t)| **t == traced)
                .map(|(r, _)| r),
        )
    }

    /// Host time of each call from the driver into the system: a
    /// `KvService::submit` on KV workloads, `System::run` on traces.
    fn call_us(&self) -> Vec<f64> {
        let mut v = self.tracer.durations_us("service.submit");
        v.extend(self.tracer.durations_us("core.system_run"));
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Nearest-rank percentile of sorted `v`.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The value of per-layer metric `name` in a traced run.
pub fn per_layer(name: &str, t: &Traced<'_>) -> f64 {
    let sim = t.sim;
    let n = &sim.counts;
    let ops = sim.ops as f64;
    let per_op = |counter: &str| ratio(c(n, counter), ops);
    let pads_per_op = ratio(
        c(n, "secure.nvm_data_reads") + c(n, "secure.nvm_data_writes"),
        ops,
    );
    match name {
        "service.flush_group_size_mean" => ratio(c(n, "service.ops"), c(n, "service.flushes")),
        "service.markers_per_mutation" => {
            ratio(c(n, "service.commit_markers"), c(n, "service.ops"))
        }
        "service.shed" => c(n, "service.shed"),
        "kv.log_records_per_mutation" => ratio(c(n, "service.log_records"), c(n, "service.ops")),
        "kv.get_hit_ratio" => ratio(c(n, "kv.get_hits"), c(n, "kv.gets")),
        "kv.replay_records_scanned" => recovery_mean(sim, |r| r.records_scanned),
        "kv.replay_txns_applied" => recovery_mean(sim, |r| r.txns_applied),
        "kv.replay_records_discarded" => recovery_mean(sim, |r| r.records_discarded),
        "kv.replay_sim_us_p50" => recovery_median(sim, |r| r.replay_ps) / 1e6,
        "core.persists_per_op" => per_op("secure.persists"),
        "core.persist_meta_writes_per_op" => per_op("secure.persist_metadata_writes"),
        "core.evict_meta_writes_per_op" => per_op("secure.evict_metadata_writes"),
        "core.counter_reads_per_op" => per_op("secure.counter_reads"),
        "core.mac_reads_per_op" => per_op("secure.mac_reads"),
        "core.node_reads_per_op" => per_op("secure.node_reads"),
        "core.counter_fetch_sim_us_total" => c(n, "secure.counter_fetch_ns.sum") / 1e3,
        "core.mac_fetch_sim_us_total" => c(n, "secure.mac_fetch_ns.sum") / 1e3,
        "core.node_fetch_sim_us_total" => c(n, "secure.node_fetch_ns.sum") / 1e3,
        "core.persist_sim_us_total" => c(n, "secure.persist_latency_ns.sum") / 1e3,
        "core.batch_writes_merged_per_op" => per_op("secure.batch_writes_merged"),
        "core.page_reencryptions_per_kop" => per_op("secure.page_reencryptions") * 1e3,
        "core.recover_blocks_read" => recovery_mean(sim, |r| r.blocks_read),
        "core.recover_host_us" => t.micro.recover_us,
        "cache.l3_hit_ratio" => hit_ratio(n, "l3"),
        "cache.ctr_hit_ratio" => hit_ratio(n, "ctr_cache"),
        "cache.mt_hit_ratio" => hit_ratio(n, "mt_cache"),
        "cache.meta_dirty_evictions_per_op" => ratio(
            c(n, "ctr_cache.dirty_evictions") + c(n, "mt_cache.dirty_evictions"),
            ops,
        ),
        "cache.prefetch_predicted_hit_ratio" => {
            let hits = c(n, "prefetch.predicted_hits");
            ratio(hits, hits + c(n, "prefetch.predicted_misses"))
        }
        "mem.reads_per_op" => per_op("mem.reads"),
        "mem.row_hit_ratio" => {
            let hits = c(n, "mem.row_hits");
            ratio(hits, hits + c(n, "mem.row_misses"))
        }
        "mem.wpq_full_events_per_op" => per_op("mem.wpq_full_events"),
        "mem.wpq_stall_sim_us_total" => c(n, "mem.wpq_stall_ns") / 1e3,
        "mem.write_accept_delay_sim_ns_mean" => histogram_mean(n, "mem.write_accept_delay_ns"),
        "mem.wpq_occupancy_mean" => histogram_mean(n, "mem.wpq_occupancy"),
        "mem.wpq_coalesced_per_op" => per_op("mem.wpq_coalesced"),
        "crypto.ctr_pad_64B_host_ns" => t.micro.ctr_pad_ns,
        "crypto.data_mac_64B_host_ns" => t.micro.data_mac_ns,
        "crypto.siphash_64B_host_ns" => t.micro.siphash_ns,
        "crypto.pads_per_op" => pads_per_op,
        "crypto.est_host_share" => {
            // Each data block read or written costs one pad and one MAC.
            let crypto_ns = pads_per_op * (t.micro.ctr_pad_ns + t.micro.data_mac_ns);
            ratio(crypto_ns, ratio(1e9, t.host_ops(false)))
        }
        "meta.node_hash_host_ns" => t.micro.node_hash_ns,
        "meta.rebuild_from_level2_host_us" => t.micro.rebuild_from_level2_us,
        "meta.node_writes_per_op" => per_op("secure.node_writes"),
        "driver.call_host_us_p50" => percentile(&t.call_us(), 0.50),
        "driver.call_host_us_p99" => percentile(&t.call_us(), 0.99),
        "driver.oracle_host_s" => median(&t.rounds.iter().map(|r| r.oracle_s).collect::<Vec<_>>()),
        "driver.self_host_frac" => {
            let round = t.tracer.totals().get("round").copied().unwrap_or_default();
            ratio(round.self_ns as f64, round.total_ns as f64)
        }
        "trace.overhead_frac" => 1.0 - ratio(t.host_ops(true), t.host_ops(false)),
        other => unreachable!("no per-layer metric named {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{m:?}");
        }
    }
}
