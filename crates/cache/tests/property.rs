//! Model-based property tests: the set-associative cache against a
//! simple per-set reference model, and the value-carrying cache against
//! a map of last stored values plus a value-less twin.

use std::collections::{BTreeMap, HashMap};
use triad_cache::{AccessOutcome, Cache};
use triad_sim::config::CacheConfig;
use triad_sim::prop::{check, check_ops, Config};
use triad_sim::rng::SplitMix64;
use triad_sim::BlockAddr;

#[derive(Debug, Clone)]
enum Op {
    Access { addr: u64, write: bool },
    Flush { addr: u64 },
    Invalidate { addr: u64 },
}

fn gen_op(rng: &mut SplitMix64, addr_space: u64) -> Op {
    let addr = rng.gen_range(0..addr_space);
    match rng.gen_range(0..8) {
        0..=5 => Op::Access {
            addr,
            write: rng.gen_bool(0.5),
        },
        6 => Op::Flush { addr },
        _ => Op::Invalidate { addr },
    }
}

/// Reference model: per-set LRU list of (tag, dirty).
#[derive(Debug, Default, Clone)]
struct ModelSet {
    /// Most-recent last.
    lines: Vec<(u64, bool)>,
}

macro_rules! ensure {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!($($arg)+));
        }
    };
}

fn run_against_model(ops: &[Op], ways: usize) -> Result<(), String> {
    let sets = 4usize;
    let mut cache: Cache = Cache::new("m", CacheConfig::new(sets * ways * 64, ways, 1));
    let mut model: HashMap<usize, ModelSet> = HashMap::new();

    for op in ops {
        match *op {
            Op::Access { addr, write } => {
                let out = cache.access(BlockAddr(addr), write);
                let set = model.entry(addr as usize % sets).or_default();
                let pos = set.lines.iter().position(|(t, _)| *t == addr);
                // Hit/miss agreement.
                ensure!(out.hit == pos.is_some(), "addr {addr}: hit disagreement");
                match pos {
                    Some(i) => {
                        let (t, d) = set.lines.remove(i);
                        set.lines.push((t, d || write));
                        ensure!(out.victim.is_none(), "addr {addr}: victim on a hit");
                    }
                    None => {
                        if set.lines.len() == ways {
                            let (vt, vd) = set.lines.remove(0);
                            let v = out.victim.ok_or("model expects a victim")?;
                            ensure!(v.addr == BlockAddr(vt), "victim addr {:?}", v.addr);
                            ensure!(v.dirty == vd, "victim dirty {}", v.dirty);
                        } else {
                            ensure!(out.victim.is_none(), "unexpected victim");
                        }
                        set.lines.push((addr, write));
                    }
                }
            }
            Op::Flush { addr } => {
                let flushed = cache.flush(BlockAddr(addr));
                let set = model.entry(addr as usize % sets).or_default();
                let model_flushed = set
                    .lines
                    .iter_mut()
                    .find(|(t, d)| *t == addr && *d)
                    .map(|entry| {
                        entry.1 = false;
                    })
                    .is_some();
                ensure!(flushed == model_flushed, "flush {addr} disagreement");
            }
            Op::Invalidate { addr } => {
                let inv = cache.invalidate(BlockAddr(addr));
                let set = model.entry(addr as usize % sets).or_default();
                let pos = set.lines.iter().position(|(t, _)| *t == addr);
                match pos {
                    Some(i) => {
                        let (_, d) = set.lines.remove(i);
                        ensure!(inv == Some(d), "invalidate {addr} dirty bit");
                    }
                    None => ensure!(inv.is_none(), "invalidate {addr} phantom line"),
                }
            }
        }
        // Global invariants after every step.
        let model_occupancy: usize = model.values().map(|s| s.lines.len()).sum();
        ensure!(
            cache.occupancy() == model_occupancy,
            "occupancy {} vs model {model_occupancy}",
            cache.occupancy()
        );
        let mut model_dirty: Vec<u64> = model
            .values()
            .flat_map(|s| s.lines.iter().filter(|(_, d)| *d).map(|(t, _)| *t))
            .collect();
        model_dirty.sort_unstable();
        let mut cache_dirty: Vec<u64> = cache.dirty_blocks().iter().map(|b| b.0).collect();
        cache_dirty.sort_unstable();
        ensure!(
            cache_dirty == model_dirty,
            "dirty sets diverged: {cache_dirty:?} vs {model_dirty:?}"
        );
    }
    Ok(())
}

#[test]
fn lru_cache_matches_reference_model() {
    check_ops(
        "lru_cache_matches_reference_model",
        Config::cases(64),
        |rng| {
            let len = rng.gen_range(1..400) as usize;
            (0..len).map(|_| gen_op(rng, 64)).collect::<Vec<Op>>()
        },
        |ops, params| {
            let ways = params.gen_range(1..4) as usize;
            run_against_model(ops, ways)
        },
    );
}

#[test]
fn occupancy_never_exceeds_capacity() {
    check(
        "occupancy_never_exceeds_capacity",
        Config::cases(64),
        |rng| {
            let len = rng.gen_range(1..500);
            let mut cache: Cache = Cache::new("c", CacheConfig::new(16 * 64, 4, 1));
            for _ in 0..len {
                let a = rng.gen_range(0..10_000);
                cache.access(BlockAddr(a), a % 3 == 0);
                ensure!(cache.occupancy() <= 16, "occupancy {}", cache.occupancy());
            }
            Ok(())
        },
    );
}

#[test]
fn every_dirty_block_was_written() {
    check("every_dirty_block_was_written", Config::cases(64), |rng| {
        let len = rng.gen_range(1..300);
        let mut cache: Cache = Cache::new("d", CacheConfig::new(8 * 64, 2, 1));
        let mut written = std::collections::HashSet::new();
        for _ in 0..len {
            let addr = rng.gen_range(0..128);
            let write = rng.gen_bool(0.5);
            cache.access(BlockAddr(addr), write);
            if write {
                written.insert(addr);
            }
        }
        for b in cache.dirty_blocks() {
            ensure!(written.contains(&b.0), "dirty block {} never written", b.0);
        }
        Ok(())
    });
}

/// One step of a value-carrying cache history.
#[derive(Debug, Clone)]
enum ValueOp {
    Access { addr: u64, write: bool },
    Fill { addr: u64, write: bool, value: u64 },
    Hit { addr: u64, write: bool },
    Set { addr: u64, value: u64 },
    Flush { addr: u64 },
    Invalidate { addr: u64 },
    LoseAll,
}

fn gen_value_op(rng: &mut SplitMix64, addr_space: u64) -> ValueOp {
    let addr = rng.gen_range(0..addr_space);
    let write = rng.gen_bool(0.5);
    let value = rng.next_u64();
    match rng.gen_range(0..32) {
        0..=7 => ValueOp::Access { addr, write },
        8..=15 => ValueOp::Fill { addr, write, value },
        16..=21 => ValueOp::Hit { addr, write },
        22..=25 => ValueOp::Set { addr, value },
        26..=28 => ValueOp::Flush { addr },
        29..=30 => ValueOp::Invalidate { addr },
        _ => ValueOp::LoseAll,
    }
}

/// What the model knows of a resident block: its last stored value
/// (`None` until filled) and whether it is dirty.
#[derive(Debug, Clone, Copy)]
struct ModelLine {
    value: Option<u64>,
    dirty: bool,
}

/// Checks one access of the value-carrying cache against the same
/// access of its value-less twin and against the model, then applies it
/// to the model (a miss allocates an unfilled line).
fn check_access(
    addr: u64,
    write: bool,
    out: AccessOutcome<u64>,
    twin: AccessOutcome,
    model: &mut BTreeMap<u64, ModelLine>,
) -> Result<(), String> {
    ensure!(
        out.hit == twin.hit,
        "addr {addr}: hit {} vs unit cache {}",
        out.hit,
        twin.hit
    );
    ensure!(
        out.hit == model.contains_key(&addr),
        "addr {addr}: hit {} but the model says resident = {}",
        out.hit,
        model.contains_key(&addr)
    );
    match (out.victim, twin.victim) {
        (None, None) => {}
        (Some(v), Some(t)) => {
            ensure!(
                v.addr == t.addr && v.dirty == t.dirty,
                "addr {addr}: victim {:?} vs unit cache victim {:?}",
                (v.addr, v.dirty),
                (t.addr, t.dirty)
            );
            let line = model
                .remove(&v.addr.0)
                .ok_or(format!("victim {} was not resident", v.addr.0))?;
            ensure!(
                v.value == line.value,
                "victim {} carries {:?}, its line last held {:?}",
                v.addr.0,
                v.value,
                line.value
            );
            ensure!(
                v.dirty == line.dirty,
                "victim {} dirty {}, model {}",
                v.addr.0,
                v.dirty,
                line.dirty
            );
        }
        (v, t) => {
            return Err(format!(
                "addr {addr}: victim {:?} vs unit cache victim {:?}",
                v.map(|v| v.addr),
                t.map(|t| t.addr)
            ))
        }
    }
    let line = model.entry(addr).or_insert(ModelLine {
        value: None,
        dirty: false,
    });
    line.dirty |= write;
    Ok(())
}

fn run_value_model(ops: &[ValueOp], ways: usize) -> Result<(), String> {
    let config = CacheConfig::new(4 * ways * 64, ways, 1);
    let mut cache: Cache<u64> = Cache::new("v", config);
    let mut twin: Cache = Cache::new("v", config);
    let mut model: BTreeMap<u64, ModelLine> = BTreeMap::new();
    for op in ops {
        match *op {
            ValueOp::Access { addr, write } => {
                let out = cache.access(BlockAddr(addr), write);
                let t = twin.access(BlockAddr(addr), write);
                check_access(addr, write, out, t, &mut model)?;
            }
            ValueOp::Fill { addr, write, value } => {
                let out = cache.fill(BlockAddr(addr), write, value);
                let t = twin.access(BlockAddr(addr), write);
                check_access(addr, write, out, t, &mut model)?;
                if let Some(line) = model.get_mut(&addr) {
                    line.value = Some(value);
                }
            }
            ValueOp::Hit { addr, write } => {
                let last = model.get(&addr).and_then(|l| l.value);
                let read = cache.hit(BlockAddr(addr), write).map(|v| {
                    let old = *v;
                    *v = old.wrapping_add(1);
                    old
                });
                ensure!(
                    read == last,
                    "hit {addr} read {read:?}, last stored {last:?}"
                );
                if let (Some(old), Some(line)) = (read, model.get_mut(&addr)) {
                    ensure!(
                        twin.access(BlockAddr(addr), write).hit,
                        "twin missed {addr}"
                    );
                    line.value = Some(old.wrapping_add(1));
                    line.dirty |= write;
                }
            }
            ValueOp::Set { addr, value } => {
                let stored = cache.set(BlockAddr(addr), value);
                let line = model.get_mut(&addr);
                ensure!(
                    stored == line.is_some(),
                    "set {addr} stored {stored} on a non-matching residency"
                );
                if let Some(line) = line {
                    line.value = Some(value);
                }
            }
            ValueOp::Flush { addr } => {
                let flushed = cache.flush(BlockAddr(addr));
                ensure!(
                    flushed == twin.flush(BlockAddr(addr)),
                    "flush {addr} disagrees with the unit cache"
                );
                let line = model.get_mut(&addr);
                let expected = line.as_ref().is_some_and(|l| l.dirty);
                ensure!(flushed == expected, "flush {addr}: {flushed} vs model");
                if let Some(line) = line {
                    line.dirty = false;
                }
            }
            ValueOp::Invalidate { addr } => {
                let inv = cache.invalidate(BlockAddr(addr));
                ensure!(
                    inv == twin.invalidate(BlockAddr(addr)),
                    "invalidate {addr} disagrees with the unit cache"
                );
                let expected = model.remove(&addr).map(|l| l.dirty);
                ensure!(
                    inv == expected,
                    "invalidate {addr}: {inv:?} vs {expected:?}"
                );
            }
            ValueOp::LoseAll => {
                cache.lose_all();
                twin.lose_all();
                model.clear();
            }
        }
        // Whole-state agreement after every step.
        ensure!(
            cache.stats() == twin.stats(),
            "stats diverged: {:?} vs unit cache {:?}",
            cache.stats(),
            twin.stats()
        );
        ensure!(
            cache.occupancy() == model.len() && twin.occupancy() == model.len(),
            "occupancy {} / unit cache {} vs model {}",
            cache.occupancy(),
            twin.occupancy(),
            model.len()
        );
        for (&addr, line) in &model {
            let held = cache.get(BlockAddr(addr)).copied();
            ensure!(
                held == line.value,
                "block {addr} holds {held:?}, last stored {:?}",
                line.value
            );
            ensure!(
                cache.probe_dirty(BlockAddr(addr)) == line.dirty,
                "block {addr} dirty bit diverged"
            );
        }
        let mut unfilled: Vec<u64> = cache.unfilled_blocks().iter().map(|b| b.0).collect();
        unfilled.sort_unstable();
        let model_unfilled: Vec<u64> = model
            .iter()
            .filter(|(_, l)| l.value.is_none())
            .map(|(a, _)| *a)
            .collect();
        ensure!(
            unfilled == model_unfilled,
            "unfilled lines {unfilled:?} vs model {model_unfilled:?}"
        );
    }
    Ok(())
}

#[test]
fn value_cache_matches_map_model_under_lru() {
    check_ops(
        "value_cache_matches_map_model_under_lru",
        Config::cases(64),
        |rng| {
            let len = rng.gen_range(1..400) as usize;
            (0..len)
                .map(|_| gen_value_op(rng, 48))
                .collect::<Vec<ValueOp>>()
        },
        |ops, params| {
            let ways = params.gen_range(1..5) as usize;
            run_value_model(ops, ways).map_err(|e| format!("{ways} ways: {e}"))
        },
    );
}
