//! Model-based property tests: the set-associative cache against a
//! simple per-set reference model, and the value-carrying cache against
//! a map of last stored values plus a value-less twin. Both draw the set
//! count, so the mask index (one, two or four sets) and the remainder
//! index (three, five or six) are both checked, and both draw some
//! addresses from just below the reserved `u64::MAX`.

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

/// A block address: one draw in eight from the `space` addresses just
/// below `u64::MAX` (the empty-line tag, which no block may use), the
/// rest from `0..space`.
fn gen_addr(rng: &mut SplitMix64, space: u64) -> u64 {
    let addr = rng.gen_range(0..space);
    if rng.gen_range(0..8) == 0 {
        u64::MAX - 1 - addr
    } else {
        addr
    }
}

fn gen_op(rng: &mut SplitMix64, addr_space: u64) -> Op {
    let addr = gen_addr(rng, addr_space);
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

fn run_against_model(ops: &[Op], sets: u64, ways: usize) -> Result<(), String> {
    let config = CacheConfig::new(sets as usize * ways * 64, ways, 1);
    let mut cache: Cache = Cache::new("m", config);
    let mut model: HashMap<u64, ModelSet> = HashMap::new();

    for op in ops {
        match *op {
            Op::Access { addr, write } => {
                let out = cache.access(BlockAddr(addr), write);
                let set = model.entry(addr % sets).or_default();
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
                let set = model.entry(addr % sets).or_default();
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
                let set = model.entry(addr % sets).or_default();
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
            let sets = params.gen_range(1..7);
            let ways = params.gen_range(1..4) as usize;
            run_against_model(ops, sets, ways).map_err(|e| format!("{sets} sets, {ways} ways: {e}"))
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
    Get { addr: u64 },
    PeekVictim { addr: u64 },
    ProbeDirty { addr: u64 },
    LoseAll,
}

fn gen_value_op(rng: &mut SplitMix64, addr_space: u64) -> ValueOp {
    let addr = gen_addr(rng, addr_space);
    let write = rng.gen_bool(0.5);
    let value = rng.next_u64();
    match rng.gen_range(0..40) {
        0..=7 => ValueOp::Access { addr, write },
        8..=15 => ValueOp::Fill { addr, write, value },
        16..=21 => ValueOp::Hit { addr, write },
        22..=25 => ValueOp::Set { addr, value },
        26..=28 => ValueOp::Flush { addr },
        29..=30 => ValueOp::Invalidate { addr },
        31..=33 => ValueOp::Get { addr },
        34..=36 => ValueOp::PeekVictim { addr },
        37..=38 => ValueOp::ProbeDirty { addr },
        _ => ValueOp::LoseAll,
    }
}

/// What the model knows of a resident block: its last stored value
/// (`None` until filled), whether it is dirty, and when it was last
/// accessed.
#[derive(Debug, Clone, Copy)]
struct ModelLine {
    value: Option<u64>,
    dirty: bool,
    last: u64,
}

/// The value model: every resident block's line, the geometry that
/// decides which lines compete, and an access clock for LRU order.
#[derive(Debug)]
struct ValueModel {
    sets: u64,
    ways: usize,
    clock: u64,
    lines: BTreeMap<u64, ModelLine>,
}

impl ValueModel {
    /// The block a miss on `addr` displaces: the least recently
    /// accessed line of its set, when the set is full and `addr` is not
    /// in it.
    fn victim(&self, addr: u64) -> Option<u64> {
        if self.lines.contains_key(&addr) {
            return None;
        }
        let set: Vec<(u64, u64)> = self
            .lines
            .iter()
            .filter(|(a, _)| *a % self.sets == addr % self.sets)
            .map(|(a, l)| (*a, l.last))
            .collect();
        if set.len() < self.ways {
            return None;
        }
        set.iter().min_by_key(|(_, last)| *last).map(|(a, _)| *a)
    }

    /// Records an access to `addr`, allocating an unfilled line on a
    /// miss (the caller has removed the victim).
    fn access(&mut self, addr: u64, write: bool) {
        self.clock += 1;
        let line = self.lines.entry(addr).or_insert(ModelLine {
            value: None,
            dirty: false,
            last: 0,
        });
        line.dirty |= write;
        line.last = self.clock;
    }
}

/// Checks one access of the value-carrying cache against the same
/// access of its value-less twin and against the model, then applies it
/// to the model.
fn check_access(
    addr: u64,
    write: bool,
    out: AccessOutcome<u64>,
    twin: AccessOutcome,
    model: &mut ValueModel,
) -> Result<(), String> {
    ensure!(
        out.hit == twin.hit,
        "addr {addr}: hit {} vs unit cache {}",
        out.hit,
        twin.hit
    );
    let resident = model.lines.contains_key(&addr);
    ensure!(
        out.hit == resident,
        "addr {addr}: hit {} but the model says resident = {resident}",
        out.hit
    );
    let expected = model.victim(addr);
    ensure!(
        out.victim.map(|v| v.addr.0) == expected,
        "addr {addr}: victim {:?}, the model's LRU line is {expected:?}",
        out.victim.map(|v| v.addr.0)
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
                .lines
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
    model.access(addr, write);
    Ok(())
}

fn run_value_model(ops: &[ValueOp], sets: u64, ways: usize) -> Result<(), String> {
    let config = CacheConfig::new(sets as usize * ways * 64, ways, 1);
    let mut cache: Cache<u64> = Cache::new("v", config);
    let mut twin: Cache = Cache::new("v", config);
    let mut model = ValueModel {
        sets,
        ways,
        clock: 0,
        lines: BTreeMap::new(),
    };
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
                if let Some(line) = model.lines.get_mut(&addr) {
                    line.value = Some(value);
                }
            }
            ValueOp::Hit { addr, write } => {
                let last = model.lines.get(&addr).and_then(|l| l.value);
                let read = cache.hit(BlockAddr(addr), write).map(|v| {
                    let old = *v;
                    *v = old.wrapping_add(1);
                    old
                });
                ensure!(
                    read == last,
                    "hit {addr} read {read:?}, last stored {last:?}"
                );
                if let Some(old) = read {
                    ensure!(
                        twin.access(BlockAddr(addr), write).hit,
                        "twin missed {addr}"
                    );
                    model.access(addr, write);
                    if let Some(line) = model.lines.get_mut(&addr) {
                        line.value = Some(old.wrapping_add(1));
                    }
                }
            }
            ValueOp::Set { addr, value } => {
                let stored = cache.set(BlockAddr(addr), value);
                let line = model.lines.get_mut(&addr);
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
                let line = model.lines.get_mut(&addr);
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
                let expected = model.lines.remove(&addr).map(|l| l.dirty);
                ensure!(
                    inv == expected,
                    "invalidate {addr}: {inv:?} vs {expected:?}"
                );
            }
            ValueOp::Get { addr } => {
                let held = cache.get(BlockAddr(addr)).copied();
                let expected = model.lines.get(&addr).and_then(|l| l.value);
                ensure!(held == expected, "get {addr}: {held:?} vs {expected:?}");
            }
            ValueOp::PeekVictim { addr } => {
                let peeked = cache.peek_victim(BlockAddr(addr)).map(|b| b.0);
                let expected = model.victim(addr);
                ensure!(
                    peeked == expected,
                    "peek_victim {addr}: {peeked:?} vs the model's {expected:?}"
                );
            }
            ValueOp::ProbeDirty { addr } => {
                let dirty = cache.probe_dirty(BlockAddr(addr));
                let expected = model.lines.get(&addr).is_some_and(|l| l.dirty);
                ensure!(dirty == expected, "probe_dirty {addr}: {dirty} vs model");
            }
            ValueOp::LoseAll => {
                cache.lose_all();
                twin.lose_all();
                model.lines.clear();
            }
        }
        // Whole-state agreement after every step.
        ensure!(
            cache.stats() == twin.stats(),
            "stats diverged: {:?} vs unit cache {:?}",
            cache.stats(),
            twin.stats()
        );
        let resident = model.lines.len();
        ensure!(
            cache.occupancy() == resident && twin.occupancy() == resident,
            "occupancy {} / unit cache {} vs model {resident}",
            cache.occupancy(),
            twin.occupancy()
        );
        for (&addr, line) in &model.lines {
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
            .lines
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
            let sets = params.gen_range(1..7);
            let ways = params.gen_range(1..5) as usize;
            run_value_model(ops, sets, ways).map_err(|e| format!("{sets} sets, {ways} ways: {e}"))
        },
    );
}
