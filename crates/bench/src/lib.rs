//! Shared harness for regenerating the paper's figures.
//!
//! `fig8` sweeps the workloads of §4 over the persistence schemes of
//! §5 on the simulated system once and prints the rows the paper plots
//! in Figures 4, 8 and 9; `fig10` and the other binaries cover the
//! remaining figures and studies. Absolute numbers differ from the
//! paper (different substrate), but the orderings and rough factors
//! are the point — see EXPERIMENTS.md for the side-by-side.

#![forbid(unsafe_code)]

use triad_core::{PersistScheme, SecureMemoryBuilder, System};
use triad_sim::config::SystemConfig;
use triad_workloads::{build_workload, WorkloadEnv};

pub mod timing;

/// Result of one (workload, scheme) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Instructions per simulated second.
    pub throughput: f64,
    /// Total NVM writes (Figure 9's metric).
    pub nvm_writes: u64,
    /// Memory ops executed across all cores.
    pub ops: u64,
    /// Writes absorbed by the hottest NVM block (the endurance view).
    pub max_block_writes: u64,
    /// Distinct NVM blocks written.
    pub blocks_touched: usize,
    /// Hottest block's writes over the mean per written block.
    pub wear_imbalance: f64,
}

/// The evaluation configuration: Table 1 caches and timing over a
/// 1 GiB memory (so per-figure sweeps finish in minutes; ratios match
/// the 16 GiB original because metadata scales linearly).
pub fn harness_config() -> SystemConfig {
    let mut cfg = SystemConfig::isca19();
    cfg.mem.capacity_bytes = 1 << 30;
    cfg
}

/// Number of memory operations per core in figure sweeps (override
/// with the `TRIAD_OPS` environment variable).
pub fn default_ops() -> u64 {
    std::env::var("TRIAD_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        // Must exceed the 8 MB L3's 131072 lines, or write-back
        // traffic never reaches the NVM and every scheme looks equal.
        .unwrap_or(400_000)
}

/// Runs one workload under one scheme and returns the outcome.
///
/// # Panics
///
/// Panics if the engine rejects the configuration or an integrity
/// violation occurs (neither should happen in clean runs).
pub fn run_one(workload: &str, scheme: PersistScheme, ops_per_core: u64, seed: u64) -> RunOutcome {
    let mem = SecureMemoryBuilder::new()
        .config(harness_config())
        .scheme(scheme)
        .key_seed(seed)
        .build()
        .expect("harness config is valid");
    let env = WorkloadEnv::of(&mem);
    let traces = build_workload(workload, &env, seed);
    let mut system = System::new(mem, traces);
    let result = system.run(ops_per_core).expect("clean run");
    let wear = system.secure().wear();
    RunOutcome {
        throughput: result.throughput(),
        nvm_writes: result.nvm_writes,
        ops: result.cores.iter().map(|c| c.ops).sum(),
        max_block_writes: wear.max_writes(),
        blocks_touched: wear.blocks_touched(),
        wear_imbalance: wear.imbalance(),
    }
}

/// Geometric mean of a slice (ignores non-positive entries).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Prints a header row for a figure table.
pub fn print_header(first: &str, columns: &[String]) {
    print!("{first:<12}");
    for c in columns {
        print!(" {c:>12}");
    }
    println!();
    println!("{}", "-".repeat(12 + 13 * columns.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[0.0, -1.0]), 0.0);
    }

    #[test]
    fn harness_config_validates() {
        harness_config().validate().unwrap();
    }

    #[test]
    fn smoke_run_small() {
        let out = run_one("sjeng", PersistScheme::triad_nvm(1), 200, 1);
        assert_eq!(out.ops, 200);
        assert!(out.throughput > 0.0);
    }
}
