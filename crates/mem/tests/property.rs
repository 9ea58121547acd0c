//! Property tests of the memory controller: durability of accepted
//! writes (with coalescing), monotonic timing, crash behaviour, the
//! bank-availability probe of the PCM timing model, the paged NVM
//! image against a flat block map, and the wear counts against a
//! per-block recount.

use std::collections::{BTreeMap, HashMap};
use triad_mem::controller::MemoryController;
use triad_mem::store::{Block, SparseStore};
use triad_mem::timing::{PcmTiming, RowOutcome};
use triad_sim::config::SystemConfig;
use triad_sim::prop::{check, check_ops, Config};
use triad_sim::rng::SplitMix64;
use triad_sim::{BlockAddr, Time};

#[derive(Debug, Clone)]
enum Op {
    Write { addr: u64, fill: u8 },
    Read { addr: u64 },
    Advance { ns: u32 },
}

fn gen_op(rng: &mut SplitMix64) -> Op {
    match rng.gen_range(0..8) {
        0..=3 => Op::Write {
            addr: rng.gen_range(0..64),
            fill: rng.next_u32() as u8,
        },
        4..=6 => Op::Read {
            addr: rng.gen_range(0..64),
        },
        _ => Op::Advance {
            ns: rng.gen_range(0..100_000) as u32,
        },
    }
}

macro_rules! ensure {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!($($arg)+));
        }
    };
}

#[test]
fn reads_always_see_the_latest_accepted_write() {
    check_ops(
        "reads_always_see_the_latest_accepted_write",
        Config::cases(48),
        |rng| {
            let len = rng.gen_range(1..300) as usize;
            (0..len).map(|_| gen_op(rng)).collect::<Vec<Op>>()
        },
        |ops, _| {
            let mut mc = MemoryController::new(SystemConfig::tiny().mem);
            let mut model: HashMap<u64, u8> = HashMap::new();
            let mut now = Time::ZERO;
            for op in ops {
                match *op {
                    Op::Write { addr, fill } => {
                        let accept = mc.write(BlockAddr(addr), [fill; 64], now);
                        ensure!(accept >= now, "acceptance cannot be in the past");
                        model.insert(addr, fill);
                        now = accept;
                    }
                    Op::Read { addr } => {
                        let (data, done) = mc.read(BlockAddr(addr), now);
                        let expected = model.get(&addr).copied().unwrap_or(0);
                        ensure!(data == [expected; 64], "addr {addr}: stale read");
                        ensure!(done >= now, "completion cannot be in the past");
                    }
                    Op::Advance { ns } => {
                        now += triad_sim::Duration::from_ns(ns as u64);
                    }
                }
            }
            // Everything accepted must survive a crash.
            mc.crash();
            for (addr, fill) in model {
                let expected = if fill == 0 { [0u8; 64] } else { [fill; 64] };
                ensure!(
                    mc.store().read(BlockAddr(addr)) == expected,
                    "addr {addr}: accepted write lost across the crash"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn wpq_occupancy_is_bounded() {
    check("wpq_occupancy_is_bounded", Config::cases(48), |rng| {
        let cfg = SystemConfig::tiny().mem;
        let mut mc = MemoryController::new(cfg);
        let mut now = Time::ZERO;
        let writes = rng.gen_range(1..200);
        for _ in 0..writes {
            let addr = rng.gen_range(0..4096);
            now = mc.write(BlockAddr(addr), [1; 64], now);
            ensure!(
                mc.wpq_occupancy(now) <= cfg.wpq_entries,
                "wpq overflowed: {} > {}",
                mc.wpq_occupancy(now),
                cfg.wpq_entries
            );
        }
        Ok(())
    });
}

#[test]
fn bank_free_at_agrees_with_service() {
    // Pins the row-close tWR accounting: `bank_free_at` is the timing
    // model's only read-side probe, and the controller's WPQ stall
    // logic implicitly depends on it matching what `service` will
    // actually do. The shadow model re-derives bank/bus availability
    // from `coords()` alone, so any drift in how `service` charges
    // activation (the deferred 150 ns array write) or the bus burst
    // shows up as a disagreement.
    check_ops(
        "bank_free_at_agrees_with_service",
        Config::cases(48),
        |rng| {
            let len = rng.gen_range(1..200) as usize;
            (0..len)
                .map(|_| {
                    (
                        rng.gen_range(0..512),     // block address
                        rng.next_u32() % 2 == 0,   // write?
                        rng.gen_range(0..200_000), // issue advance (ps)
                    )
                })
                .collect::<Vec<(u64, bool, u64)>>()
        },
        |ops, _| {
            let cfg = SystemConfig::tiny().mem;
            let mut t = PcmTiming::new(cfg);
            let probe = PcmTiming::new(cfg);
            let mut bank_free: HashMap<usize, Time> = HashMap::new();
            let mut open_row: HashMap<usize, u64> = HashMap::new();
            let mut bus_free: HashMap<usize, Time> = HashMap::new();
            let mut now = Time::ZERO;
            for &(addr, write, advance_ps) in ops {
                now += triad_sim::Duration::from_ps(advance_ps);
                let addr = BlockAddr(addr);
                let c = probe.coords(addr);

                // The probe must reflect exactly the model's bank state.
                let model_free = bank_free.get(&c.bank).copied().unwrap_or(Time::ZERO);
                ensure!(
                    t.bank_free_at(addr) == model_free,
                    "bank {} probe {} != model {}",
                    c.bank,
                    t.bank_free_at(addr),
                    model_free
                );

                // Predict what `service` must return.
                let start = now.max(model_free);
                let hit = open_row.get(&c.bank) == Some(&c.row);
                let array = if hit {
                    triad_sim::Duration::ZERO
                } else if write {
                    cfg.write_latency
                } else {
                    cfg.read_latency
                };
                let ready = start + array + cfg.t_cl;
                let bus = bus_free.get(&c.channel).copied().unwrap_or(Time::ZERO);
                let expected_done = ready.max(bus) + cfg.burst;

                let (done, outcome) = t.service(addr, write, now);
                ensure!(
                    done == expected_done,
                    "service {addr:?} done {done} != predicted {expected_done}"
                );
                ensure!(
                    (outcome == RowOutcome::Hit) == hit,
                    "service {addr:?} outcome {outcome:?} but model hit={hit}"
                );
                ensure!(
                    t.bank_free_at(addr) == done,
                    "after service, probe {} != completion {done}",
                    t.bank_free_at(addr)
                );

                open_row.insert(c.bank, c.row);
                bank_free.insert(c.bank, done);
                bus_free.insert(c.channel, done);
            }
            Ok(())
        },
    );
}

#[test]
fn coalescing_never_loses_the_newest_value() {
    check(
        "coalescing_never_loses_the_newest_value",
        Config::cases(48),
        |rng| {
            // Hammer one block back-to-back: all but the first write should
            // coalesce, and the final value must win.
            let n = rng.gen_range(2..50) as usize;
            let fills: Vec<u8> = (0..n).map(|_| rng.next_u32() as u8).collect();
            let mut mc = MemoryController::new(SystemConfig::tiny().mem);
            let last = *fills.last().unwrap();
            for f in &fills {
                mc.write(BlockAddr(7), [*f; 64], Time::ZERO);
            }
            ensure!(
                mc.stats().wpq_coalesced >= fills.len() as u64 - 1,
                "expected {} coalesces, saw {}",
                fills.len() - 1,
                mc.stats().wpq_coalesced
            );
            let expected = if last == 0 { [0u8; 64] } else { [last; 64] };
            mc.crash();
            ensure!(
                mc.store().read(BlockAddr(7)) == expected,
                "newest value lost"
            );
            Ok(())
        },
    );
}

/// One step of the store model property. Block contents are uniform
/// fills from a four-value alphabet, so XOR masks routinely zero a
/// block and rewrites routinely repeat a value. `Spread` writes one
/// fill to hundreds of blocks, each in its own page.
#[derive(Debug, Clone)]
enum StoreOp {
    Write { addr: u64, fill: u8 },
    Zero { addr: u64 },
    Tamper { addr: u64, mask: u8 },
    Rollback { addr: u64, fill: u8 },
    Read { addr: u64 },
    Snapshot,
    Spread { addrs: Vec<u64>, fill: u8 },
}

/// Draws a history over a few page-boundary anchors (page 0, the last
/// page below `u64::MAX / 8`, and two random pages), each spread over
/// the two pages around it. Half the histories also hold one `Spread`
/// of 512 to 1023 non-zero pages from an anchor, so the image's table
/// grows and iteration order, equality and snapshots are checked
/// across that growth.
fn gen_store_ops(rng: &mut SplitMix64) -> Vec<StoreOp> {
    let top = u64::MAX / 8;
    let anchors = [
        0,
        top - top % 8,
        rng.gen_range(1..top / 8) * 8,
        rng.gen_range(1..1 << 20) * 8,
    ];
    let len = rng.gen_range(1..200) as usize;
    let mut ops: Vec<StoreOp> = (0..len)
        .map(|_| {
            let anchor = anchors[rng.gen_range(0..anchors.len() as u64) as usize];
            let addr = (anchor + rng.gen_range(0..16)).saturating_sub(8).min(top);
            let fill = rng.gen_range(0..4) as u8;
            match rng.gen_range(0..12) {
                0..=3 => StoreOp::Write { addr, fill },
                4..=5 => StoreOp::Zero { addr },
                6..=7 => StoreOp::Tamper { addr, mask: fill },
                8 => StoreOp::Rollback { addr, fill },
                9..=10 => StoreOp::Read { addr },
                _ => StoreOp::Snapshot,
            }
        })
        .collect();
    if rng.gen_range(0..2) == 0 {
        let anchor = anchors[rng.gen_range(0..anchors.len() as u64) as usize];
        // At least 8 blocks apart, so each block lands in its own page.
        let step = [8, 9, 64, 4096 * 8][rng.gen_range(0..4) as usize];
        let pages = rng.gen_range(512..1024);
        let start = anchor.min(top - step * pages);
        let spread = StoreOp::Spread {
            addrs: (0..pages).map(|i| start + i * step).collect(),
            fill: rng.gen_range(1..4) as u8,
        };
        ops.insert(rng.gen_range(0..len as u64 + 1) as usize, spread);
    }
    ops
}

/// A store holding exactly `model`'s blocks, written once each in
/// ascending order: the shortest history that reaches those contents.
fn store_from(model: &BTreeMap<u64, Block>) -> SparseStore {
    let mut s = SparseStore::new();
    for (addr, block) in model {
        s.write(BlockAddr(*addr), *block);
    }
    s
}

/// `store` and `model` hold the same blocks: same resident count and
/// the same (address, bytes) sequence in ascending address order.
fn matches_model(store: &SparseStore, model: &BTreeMap<u64, Block>) -> Result<(), String> {
    ensure!(
        store.resident_blocks() == model.len(),
        "resident_blocks {} != model {}",
        store.resident_blocks(),
        model.len()
    );
    let got: Vec<(u64, Block)> = store.iter().map(|(a, b)| (a.0, *b)).collect();
    let want: Vec<(u64, Block)> = model.iter().map(|(a, b)| (*a, *b)).collect();
    ensure!(got == want, "iter() {got:?} != model {want:?}");
    Ok(())
}

#[test]
fn sparse_store_matches_a_flat_block_map() {
    check_ops(
        "sparse_store_matches_a_flat_block_map",
        Config::cases(64),
        gen_store_ops,
        |ops, _| {
            let mut store = SparseStore::new();
            let mut model: BTreeMap<u64, Block> = BTreeMap::new();
            let mut snapshot = (store.clone(), model.clone());
            // The flat map keeps only non-zero blocks, like the image.
            let model_write = |model: &mut BTreeMap<u64, Block>, addr: u64, block: Block| {
                if block == [0; 64] {
                    model.remove(&addr);
                } else {
                    model.insert(addr, block);
                }
            };
            for op in ops {
                match *op {
                    StoreOp::Write { addr, fill } => {
                        store.write(BlockAddr(addr), [fill; 64]);
                        model_write(&mut model, addr, [fill; 64]);
                    }
                    StoreOp::Zero { addr } => {
                        store.write(BlockAddr(addr), [0; 64]);
                        model_write(&mut model, addr, [0; 64]);
                    }
                    StoreOp::Tamper { addr, mask } => {
                        store.tamper(BlockAddr(addr), [mask; 64]);
                        let old = model.get(&addr).copied().unwrap_or([0; 64]);
                        model_write(&mut model, addr, old.map(|b| b ^ mask));
                    }
                    StoreOp::Rollback { addr, fill } => {
                        store.rollback_to(BlockAddr(addr), [fill; 64]);
                        model_write(&mut model, addr, [fill; 64]);
                    }
                    StoreOp::Read { addr } => {
                        let want = model.get(&addr).copied().unwrap_or([0; 64]);
                        ensure!(store.read(BlockAddr(addr)) == want, "read {addr}: stale");
                    }
                    StoreOp::Snapshot => {
                        snapshot = (store.clone(), model.clone());
                        continue;
                    }
                    StoreOp::Spread { ref addrs, fill } => {
                        for &addr in addrs {
                            store.write(BlockAddr(addr), [fill; 64]);
                            model_write(&mut model, addr, [fill; 64]);
                        }
                    }
                }
                matches_model(&store, &model).map_err(|e| format!("after {op:?}: {e}"))?;
                matches_model(&snapshot.0, &snapshot.1)
                    .map_err(|e| format!("snapshot changed by {op:?}: {e}"))?;
                ensure!(
                    store == store_from(&model),
                    "after {op:?}: store != a store written with the same contents once"
                );
            }
            Ok(())
        },
    );
}

/// Recomputes every wear summary from a per-block count map and
/// compares it with the tracker's running values.
fn wear_matches(mc: &MemoryController, model: &BTreeMap<u64, u64>) -> Result<(), String> {
    let wear = mc.wear();
    let max = model.values().copied().max().unwrap_or(0);
    let mean = if model.is_empty() {
        0.0
    } else {
        model.values().sum::<u64>() as f64 / model.len() as f64
    };
    let imbalance = if mean == 0.0 { 0.0 } else { max as f64 / mean };
    ensure!(
        wear.max_writes() == max,
        "max {} != {max}",
        wear.max_writes()
    );
    ensure!(
        wear.blocks_touched() == model.len(),
        "touched {} != {}",
        wear.blocks_touched(),
        model.len()
    );
    ensure!(
        wear.mean_writes().to_bits() == mean.to_bits(),
        "mean {} != {mean}",
        wear.mean_writes()
    );
    ensure!(
        wear.imbalance().to_bits() == imbalance.to_bits(),
        "imbalance {} != {imbalance}",
        wear.imbalance()
    );
    let mut ranked: Vec<(BlockAddr, u64)> =
        model.iter().map(|(a, w)| (BlockAddr(*a), *w)).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for n in [0, 1, 3, model.len(), model.len() + 2] {
        let want = &ranked[..n.min(ranked.len())];
        ensure!(
            wear.hottest(n) == want,
            "hottest({n}) {:?} != {want:?}",
            wear.hottest(n)
        );
    }
    Ok(())
}

#[test]
fn wear_summaries_match_a_per_block_recount() {
    check_ops(
        "wear_summaries_match_a_per_block_recount",
        Config::cases(48),
        |rng| {
            // Three pages, one of them at a random far address. A
            // quarter of the writes repeat the previous block at once,
            // so they coalesce into its pending WPQ entry.
            let pages = [0, rng.gen_range(1..64), rng.gen_range(64..1 << 40)];
            let len = rng.gen_range(1..400) as usize;
            let mut ops: Vec<(u64, u64)> = Vec::with_capacity(len);
            for _ in 0..len {
                let page = pages[rng.gen_range(0..3) as usize];
                let op = match (ops.last(), rng.gen_range(0..4)) {
                    (Some(&(prev, _)), 0) => (prev, 0),
                    (_, 1) => (page * 8 + rng.gen_range(0..8), rng.gen_range(0..500)),
                    _ => (page * 8 + rng.gen_range(0..8), rng.gen_range(0..50_000)),
                };
                ops.push(op);
            }
            ops
        },
        |ops, _| {
            let mut mc = MemoryController::new(SystemConfig::tiny().mem);
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut now = Time::ZERO;
            wear_matches(&mc, &model)?;
            for &(addr, advance_ns) in ops {
                now += triad_sim::Duration::from_ns(advance_ns);
                // `writes` counts WPQ acceptances; a coalesced write
                // leaves it (and the wear) unchanged.
                let physical = mc.stats().writes;
                now = mc.write(BlockAddr(addr), [1; 64], now);
                if mc.stats().writes > physical {
                    *model.entry(addr).or_insert(0) += 1;
                }
                wear_matches(&mc, &model).map_err(|e| format!("after write to {addr}: {e}"))?;
            }
            let repeats = ops.windows(2).filter(|w| w[1] == (w[0].0, 0)).count() as u64;
            ensure!(
                mc.stats().wpq_coalesced >= repeats,
                "{repeats} back-to-back repeats, {} coalesced",
                mc.stats().wpq_coalesced
            );
            Ok(())
        },
    );
}
