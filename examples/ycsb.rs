//! YCSB-style key-value benchmarking over a one-shard `KvService` —
//! the kind of storage service the paper's introduction motivates —
//! with Zipfian key skew, a crash in the middle of an update burst,
//! and a full post-recovery verification. Every response is checked
//! against an in-DRAM model with `sweep::apply`.
//!
//! Workloads (YCSB letters): A = 50 % reads / 50 % updates,
//! B = 95/5, C = read-only.
//!
//! Run with: `cargo run --release --example ycsb`

use triad_nvm::core::{CrashHookKind, SecureMemoryError};
use triad_nvm::kv::KvError;
use triad_nvm::sim::config::SystemConfig;
use triad_nvm::sim::rng::SplitMix64;
use triad_nvm::workloads::service::{KvService, Request, ServiceSpec};
use triad_nvm::workloads::sweep::{apply, State};
use triad_nvm::workloads::zipf::Zipf;

const KEYS: u64 = 2_000;
const OPS: u64 = 10_000;
/// Requests per submit: a closed-loop client sends the next batch only
/// after the previous one returned.
const BATCH: usize = 64;

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Serves `reqs` batch by batch, checking every response against
/// `model` and applying the acknowledged mutations to it.
fn serve(svc: &mut KvService, model: &mut State, reqs: &[Request]) -> Result<()> {
    for batch in reqs.chunks(BATCH) {
        let resps = svc.submit(batch)?;
        apply(model, batch, &resps)?;
    }
    Ok(())
}

/// `OPS` Zipfian requests, a `read_fraction` share of them gets and
/// the rest puts of a fresh value, tagged from `tag` upwards.
fn requests(read_fraction: f64, seed: u64, tag: u64) -> Vec<Request> {
    let zipf = Zipf::new(KEYS as usize, 0.99);
    let mut rng = SplitMix64::new(seed);
    (0..OPS)
        .map(|i| {
            let key = zipf.sample(&mut rng) as u64;
            if rng.gen_bool(read_fraction) {
                Request::Get { key }
            } else {
                Request::Put {
                    key,
                    value: (tag + i).to_le_bytes().to_vec(),
                }
            }
        })
        .collect()
}

fn run_workload(
    name: &str,
    read_fraction: f64,
    svc: &mut KvService,
    model: &mut State,
) -> Result<()> {
    let reqs = requests(read_fraction, 7, 1_000_000);
    let reads = reqs
        .iter()
        .filter(|r| matches!(r, Request::Get { .. }))
        .count();
    let t0 = svc.max_shard_time();
    serve(svc, model, &reqs)?;
    let elapsed = svc.max_shard_time() - t0;
    println!(
        "{name}: {reads} reads + {} updates in {elapsed} simulated ({:.0} kops/s)",
        reqs.len() - reads,
        OPS as f64 / elapsed.as_secs_f64() / 1e3
    );
    Ok(())
}

fn main() -> Result<()> {
    let mut config = SystemConfig::tiny();
    config.mem.capacity_bytes = 32 << 20;
    config.persistent_eighths = 6;
    let mut svc = KvService::create(&ServiceSpec {
        buckets: 1024,
        config: Some(config),
        ..ServiceSpec::new(1)
    })?;

    // Load phase.
    let mut model = State::new();
    let load: Vec<Request> = (0..KEYS)
        .map(|key| Request::Put {
            key,
            value: key.to_le_bytes().to_vec(),
        })
        .collect();
    serve(&mut svc, &mut model, &load)?;
    println!("loaded {KEYS} keys");

    run_workload("YCSB-C (read-only) ", 1.0, &mut svc, &mut model)?;
    run_workload("YCSB-B (95/5)      ", 0.95, &mut svc, &mut model)?;
    run_workload("YCSB-A (50/50)     ", 0.50, &mut svc, &mut model)?;

    // Crash the shard at a persist boundary in the middle of an
    // update burst, recover it, and re-drive the interrupted batch:
    // its puts are idempotent, so the model stays exact.
    let burst = requests(0.0, 99, 9_000_000);
    svc.shard_mem_mut(0)
        .ok_or("the service has one shard")?
        .arm_crash(CrashHookKind::PersistBoundary, 1_000)?;
    let mut crashed = false;
    for batch in burst.chunks(BATCH) {
        let resps = match svc.submit(batch) {
            Err(KvError::Memory(SecureMemoryError::NeedsRecovery)) if !crashed => {
                crashed = true;
                let report = svc.recover_shard(0)?;
                assert!(report.persistent_recovered);
                println!(
                    "\ncrashed mid-burst and recovered (est. {}; {} WAL txns redone)",
                    report.estimated_duration,
                    report.log_replay.map_or(0, |r| r.txns_applied)
                );
                svc.submit(batch)?
            }
            other => other?,
        };
        apply(&mut model, batch, &resps)?;
    }
    assert!(crashed, "the armed crash never fired");

    // Read every key back: each must hold the model's value.
    let gets: Vec<Request> = (0..KEYS).map(|key| Request::Get { key }).collect();
    serve(&mut svc, &mut model, &gets)?;
    assert_eq!(svc.dump()?, model, "durable state diverges from the model");
    println!("all {KEYS} keys verified after recovery");
    let s = svc.shard_mem(0).ok_or("the service has one shard")?.stats();
    println!(
        "totals: {} loads, {} persists, {} page re-encryptions",
        s.loads, s.persists, s.page_reencryptions
    );
    Ok(())
}
