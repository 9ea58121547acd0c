//! Property-based crash-consistency testing: arbitrary interleavings
//! of writes, persists, eviction pressure, crashes (including crashes
//! injected *inside* the atomic metadata-persist protocol) must always
//! recover to a verified state where every block reads a value that is
//!
//! 1. some value that was actually written to it (or zero), and
//! 2. at least as new as the last explicitly persisted value.
//!
//! The other properties crash a KV store, or one shard of the sharded
//! service, at every persist boundary of a seeded schedule through the
//! one sweep driver (`triad_workloads::sweep`), one oracle per
//! durability tier.

mod common;

use common::{run_history, Op};
use triad_nvm::core::{CounterPersistence, PersistScheme};
use triad_nvm::kv::DurabilityMode;
use triad_nvm::sim::prop::{check, check_ops, Config};
use triad_nvm::sim::rng::SplitMix64;
use triad_nvm::workloads::kv::{generate_history, KvSpec};
use triad_nvm::workloads::service::{generate_requests, KvService, Request, ServiceSpec};
use triad_nvm::workloads::sweep::{
    self, serial_service, BarrierFloor, BufferedPrefix, PreOrPost, Step,
};

/// Mirrors the old proptest weights — 4 Write : 3 Persist : 1 each for
/// Pressure / Crash / ArmCrash / BeginEpoch / EndEpoch — plus 1 for
/// TamperedPersist on a level-1 or level-2 node.
fn gen_op(rng: &mut SplitMix64) -> Op {
    match rng.gen_range(0..13) {
        0..=3 => Op::Write {
            page: rng.gen_range(0..16) as u8,
        },
        4..=6 => Op::Persist {
            page: rng.gen_range(0..16) as u8,
        },
        7 => Op::Pressure {
            seed: rng.next_u32() as u8,
        },
        8 => Op::Crash,
        9 => Op::ArmCrash {
            n: rng.gen_range(0..24) as u8,
        },
        10 => Op::BeginEpoch,
        11 => Op::EndEpoch,
        _ => Op::TamperedPersist {
            page: rng.gen_range(0..16) as u8,
            level: rng.gen_range(1..3) as u8,
        },
    }
}

#[test]
fn crash_consistency_holds_for_arbitrary_histories() {
    check_ops(
        "crash_consistency_holds_for_arbitrary_histories",
        Config::cases(24),
        |rng| {
            let len = rng.gen_range(1..120) as usize;
            (0..len).map(|_| gen_op(rng)).collect::<Vec<Op>>()
        },
        |ops, params| {
            let scheme_pick = params.gen_range(0..5) as u8;
            let scheme = match scheme_pick {
                0 => PersistScheme::triad_nvm(1),
                1 | 4 => PersistScheme::triad_nvm(2),
                2 => PersistScheme::triad_nvm(3),
                _ => PersistScheme::Strict,
            };
            // Variant 4 exercises the Osiris counter relaxation on top
            // of TriadNVM-2; it shares the same consistency contract.
            let counter_persistence = if scheme_pick == 4 {
                CounterPersistence::Osiris { interval: 3 }
            } else {
                CounterPersistence::Strict
            };
            run_history(ops, scheme, counter_persistence)
        },
    );
}

/// The triad-kv acceptance property: a seeded KV history (Zipf or
/// uniform keys, scans, values up to 100 B) served op by op by one
/// `KvStore` — a one-shard service at group window 1, so every
/// mutation is its own group commit — crashed at *every* persist
/// boundary, must recover (engine recovery + redo-log replay) to
/// exactly the model's state before or after the interrupted
/// operation under every recoverable scheme, and re-driving the
/// history must converge on the model.
///
/// Each case draws one history shape (op count, Zipf or uniform keys)
/// and one seed, then sweeps it under all four schemes, so
/// `TRIAD_PROP_CASES=1000` exercises ≥ 1000 histories *per scheme*.
/// The default case count keeps the debug-mode run cheap; the release
/// acceptance sweep is recorded in `docs/kv.md`.
#[test]
fn kv_crash_equivalence_holds_for_seeded_histories() {
    let schemes = [
        PersistScheme::triad_nvm(1),
        PersistScheme::triad_nvm(2),
        PersistScheme::triad_nvm(3),
        PersistScheme::Strict,
    ];
    check(
        "kv_crash_equivalence_holds_for_seeded_histories",
        Config::cases(3),
        |rng| {
            let ops = rng.gen_range(4..12);
            let spec = if rng.below(2) == 0 {
                KvSpec::small(ops)
            } else {
                KvSpec::small_uniform(ops)
            };
            let seed = rng.next_u64();
            let schedule: Vec<Step> = generate_history(&spec, seed)
                .into_iter()
                .map(|req| Step::batch(vec![req]))
                .collect();
            for scheme in schemes {
                let spec = ServiceSpec {
                    scheme,
                    group_window: 1,
                    buckets: 16,
                    log_blocks: 32,
                    key_seed: seed,
                    ..ServiceSpec::new(1)
                };
                // Zero boundaries is legitimate (a short history may be
                // all reads or misses); the clean run still checked
                // every response against the model.
                sweep::run(|| serial_service(&spec, &[]), &schedule, &PreOrPost)?;
            }
            Ok(())
        },
    );
}

/// The serving-layer extension of the sweep: the same property at
/// *group-commit* granularity. A seeded request schedule runs through
/// a two-shard [`KvService`] with a whole-batch group window and a
/// crash at every persist boundary of shard 0; recovery must land on
/// exactly the pre- or post-group durable snapshot (a serial prefix of
/// flushed groups), and re-driving the schedule must converge on the
/// clean run's final state.
#[test]
fn service_crash_equivalence_holds_at_group_boundaries() {
    let schemes = [PersistScheme::triad_nvm(2), PersistScheme::Strict];
    check(
        "service_crash_equivalence_holds_at_group_boundaries",
        Config::cases(2),
        |rng| {
            let batches = rng.gen_range(2..4);
            let batch_len = rng.gen_range(4..8) as usize;
            let seed = rng.next_u64();
            let schedule: Vec<Step> = (0..batches)
                .map(|b| Step::batch(generate_requests(seed ^ (b + 1), batch_len, 16, (1, 48))))
                .collect();
            for scheme in schemes {
                // One batch = one group per shard, never log-split.
                let spec = ServiceSpec {
                    scheme,
                    buckets: 16,
                    group_window: batch_len,
                    log_blocks: 256,
                    ..ServiceSpec::new(2)
                };
                sweep::run(|| serial_service(&spec, &[]), &schedule, &PreOrPost)?;
            }
            Ok(())
        },
    );
}

/// The serving-layer determinism contract: threaded and
/// single-threaded execution of the same seeded schedule must be
/// byte-identical — responses, merged store and group-commit stats,
/// merged durable state, simulated makespan and total durability
/// points. This is what makes the threaded fleet a legitimate
/// subject for crash sweeps and report rows.
#[test]
fn service_threaded_and_serial_runs_are_identical() {
    check(
        "service_threaded_and_serial_runs_are_identical",
        Config::cases(3),
        |rng| {
            let spec = ServiceSpec {
                shards: 1 + rng.below(4),
                group_window: 1 + rng.below(8) as usize,
                buckets: 16,
                key_seed: rng.next_u64(),
                ..ServiceSpec::new(1)
            };
            let reqs = generate_requests(rng.next_u64(), 60, 48, (1, 64));
            let mut threaded = KvService::create(&spec).map_err(|e| format!("create: {e}"))?;
            threaded.set_threaded(true);
            let rt = threaded
                .submit(&reqs)
                .map_err(|e| format!("threaded submit: {e}"))?;
            let mut serial = KvService::create(&spec).map_err(|e| format!("create: {e}"))?;
            serial.set_threaded(false);
            let rs = serial
                .submit(&reqs)
                .map_err(|e| format!("serial submit: {e}"))?;
            if rt != rs {
                return Err("responses differ between threaded and serial".into());
            }
            if threaded.merged_kv_stats() != serial.merged_kv_stats() {
                return Err("merged store stats differ".into());
            }
            if threaded.merged_group_stats() != serial.merged_group_stats() {
                return Err("merged group stats differ".into());
            }
            if threaded.total_persists() != serial.total_persists() {
                return Err("total persists differ".into());
            }
            if threaded.max_shard_time() != serial.max_shard_time() {
                return Err("simulated makespan differs".into());
            }
            let dt = threaded.dump().map_err(|e| format!("dump: {e}"))?;
            let ds = serial.dump().map_err(|e| format!("dump: {e}"))?;
            if dt != ds {
                return Err("merged durable state differs".into());
            }
            Ok(())
        },
    );
}

/// A single-shard service for one durability sweep.
fn tier_spec() -> ServiceSpec {
    ServiceSpec {
        buckets: 16,
        log_blocks: 256,
        ..ServiceSpec::new(1)
    }
}

/// A durability sweep that never persisted tested nothing.
fn swept(boundaries: u64) -> Result<(), String> {
    if boundaries == 0 {
        return Err("the clean run never persisted; the sweep tested nothing".into());
    }
    Ok(())
}

/// Invariants D3 (bounded loss), D4 and D7 (honest reporting) for the
/// Buffered tier: a seeded single-shard schedule of puts, live-key
/// deletes and gets, served in batches of three under `Buffered {
/// flush_interval, max_loss }` and swept with [`BufferedPrefix`]:
/// after every crash the reported loss is within `max_loss`, and the
/// recovered state is the admit-order prefix that loss implies.
///
/// Put values encode their admit index so prefixes are
/// distinguishable; deletes target live keys so every mutation changes
/// the state. Half the cases use a 1 ns flush interval so the
/// group-fsync timer drives flushes at run boundaries; the other half
/// a ~17-minute interval so only the `max_loss` counter flushes. The
/// release CI sweep runs this at `TRIAD_PROP_CASES` ≥ 100;
/// `docs/durability-contract.md` records the acceptance run.
#[test]
fn durability_buffered_loss_stays_within_max_loss() {
    const TENANT: u64 = 7;
    check(
        "durability_buffered_loss_stays_within_max_loss",
        Config::cases(3),
        |rng| {
            let max_loss = 1 + rng.below(6);
            let flush_interval = if rng.below(2) == 0 {
                1
            } else {
                1_000_000_000_000
            };
            let muts = (12 + rng.below(12)) as usize;
            let mut rng = SplitMix64::stream(rng.next_u64(), 0x6275_665f_7377_6570);
            // ~1 get per 5 requests, deletes only of keys still live,
            // puts with globally unique values.
            let mut reqs: Vec<Request> = Vec::new();
            let mut live: Vec<u64> = Vec::new();
            let mut admitted = 0usize;
            while admitted < muts {
                if rng.below(5) == 0 {
                    reqs.push(Request::Get { key: rng.below(12) });
                    continue;
                }
                if !live.is_empty() && rng.below(4) == 0 {
                    let key = live.swap_remove(rng.below(live.len() as u64) as usize);
                    reqs.push(Request::Delete { key });
                } else {
                    let key = rng.below(12);
                    if !live.contains(&key) {
                        live.push(key);
                    }
                    let i = admitted as u64;
                    reqs.push(Request::Put {
                        key,
                        value: vec![(i >> 8) as u8, i as u8, key as u8, 0xB7],
                    });
                }
                admitted += 1;
            }
            let schedule: Vec<Step> = reqs
                .chunks(3)
                .map(|batch| Step {
                    tenant: TENANT,
                    reqs: batch.to_vec(),
                    barrier: false,
                })
                .collect();
            let mode = DurabilityMode::Buffered {
                flush_interval,
                max_loss,
            };
            let spec = tier_spec();
            swept(sweep::run(
                || serial_service(&spec, &[(TENANT, mode)]),
                &schedule,
                &BufferedPrefix { max_loss },
            )?)
        },
    );
}

/// Invariants D5 (barrier floor) and D7 for the InMemory tier: a
/// puts-only schedule runs as barrier-terminated cycles, so the only
/// persists are barrier promotions and every armed crash lands inside
/// one. Swept with [`BarrierFloor`]: recovery lands on the pre- or
/// post-barrier floor of the interrupted cycle, with the reported loss
/// equal to the distinct keys the promotion carried (pre) or zero
/// (post).
#[test]
fn durability_inmemory_recovers_to_the_last_barrier() {
    const TENANT: u64 = 9;
    check(
        "durability_inmemory_recovers_to_the_last_barrier",
        Config::cases(3),
        |rng| {
            let cycles = (2 + rng.below(2)) as usize;
            let batch_len = (3 + rng.below(4)) as usize;
            let mut rng = SplitMix64::stream(rng.next_u64(), 0x696e_6d65_6d5f_6261);
            let schedule: Vec<Step> = (0..cycles)
                .map(|c| Step {
                    tenant: TENANT,
                    reqs: (0..batch_len)
                        .map(|j| {
                            let i = (c * batch_len + j) as u64;
                            Request::Put {
                                key: rng.below(10),
                                value: vec![(i >> 8) as u8, i as u8, 0xAA],
                            }
                        })
                        .collect(),
                    barrier: true,
                })
                .collect();
            let spec = tier_spec();
            swept(sweep::run(
                || serial_service(&spec, &[(TENANT, DurabilityMode::InMemory)]),
                &schedule,
                &BarrierFloor,
            )?)
        },
    );
}

/// Invariants D1 (acknowledged ⇒ durable) and D7 for the Strict tier
/// on a single shard with the default window: whatever boundary the
/// crash lands on, the report names the strict tier, a zero bound and
/// a measured loss of zero, and [`PreOrPost`] holds — flushes inside
/// the failed (unacknowledged) batch never count against the contract.
///
/// A drawn history without a put holds only gets and deletes of keys
/// never stored: it mutates nothing, so it persists nothing and is
/// redrawn rather than swept.
#[test]
fn durability_strict_reports_zero_loss_at_every_boundary() {
    check(
        "durability_strict_reports_zero_loss_at_every_boundary",
        Config::cases(3),
        |rng| {
            let batches = 2 + rng.below(2);
            let batch_len = (4 + rng.below(4)) as usize;
            let schedule = loop {
                let seed = rng.next_u64();
                let schedule: Vec<Step> = (0..batches)
                    .map(|b| Step::batch(generate_requests(seed ^ (b + 1), batch_len, 16, (1, 32))))
                    .collect();
                let puts = schedule
                    .iter()
                    .flat_map(|step| &step.reqs)
                    .any(|req| matches!(req, Request::Put { .. }));
                if puts {
                    break schedule;
                }
            };
            let spec = tier_spec();
            swept(sweep::run(
                || serial_service(&spec, &[]),
                &schedule,
                &PreOrPost,
            )?)
        },
    );
}
