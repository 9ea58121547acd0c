//! Batched/scalar equivalence property: replaying the same seeded
//! history of persist batches through `apply_batch` and through a
//! member-by-member `persist_block` loop must be observationally
//! identical — byte-identical NVM image (data, counters, MACs and BMT
//! nodes), identical persistent BMT root, and identical post-crash
//! recovery — under every scheme, and under TriadNVM-2 with the Osiris
//! counter relaxation too. The batch pipeline (prefetch planning,
//! coalesced metadata commit) is a performance transformation only.
//!
//! Six per-scheme tests × 250 default cases = 1500 seeded histories;
//! `TRIAD_PROP_CASES` rescales each test as usual.
//!
//! Those histories crash only *between* batches. A seventh property
//! crashes *inside* one: at every member boundary of a batch, the
//! batched replica's persist-boundary hook against a scalar replica
//! stopped after the same number of `persist_block`s. That exercises
//! the registers' staged prefix that recovery replays, including
//! batches of 64+ members, batches whose minor-counter overflow
//! re-encrypts a page mid-batch, and batches wide enough to evict
//! metadata mid-batch.

use std::collections::BTreeMap;

use triad_core::{
    CounterPersistence, CrashHookKind, PersistScheme, SecureMemory, SecureMemoryBuilder,
    SecureMemoryError,
};
use triad_crypto::counter::MINOR_MAX;
use triad_meta::layout::RegionKind;
use triad_sim::prop::{check, Config};
use triad_sim::rng::SplitMix64;
use triad_sim::{BlockAddr, PhysAddr, Time, BLOCK_BYTES};

/// One history event: a batch of persistent stores or a clean crash.
enum Event {
    Batch(Vec<(BlockAddr, [u8; BLOCK_BYTES])>),
    Crash,
}

/// Draws a history of 1–20 events. Blocks come from a 24-page window
/// so members routinely share counter blocks, MAC blocks and BMT
/// ancestors — the cases where coalescing actually merges writes.
fn gen_history(rng: &mut SplitMix64, base: PhysAddr, allow_crash: bool) -> Vec<Event> {
    let len = rng.gen_range(1..21) as usize;
    (0..len)
        .map(|_| {
            if allow_crash && rng.gen_bool(0.15) {
                Event::Crash
            } else {
                let members = rng.gen_range_inclusive(1..=8) as usize;
                Event::Batch(
                    (0..members)
                        .map(|_| {
                            let page = rng.gen_range(0..24);
                            let slot = rng.gen_range(0..4);
                            let addr = PhysAddr(base.0 + page * 4096 + slot * 64);
                            let mut data = [0u8; BLOCK_BYTES];
                            rng.fill_bytes(&mut data);
                            (addr.block(), data)
                        })
                        .collect(),
                )
            }
        })
        .collect()
}

fn build(scheme: PersistScheme, counters: CounterPersistence, key_seed: u64) -> SecureMemory {
    SecureMemoryBuilder::new()
        .scheme(scheme)
        .counter_persistence(counters)
        .key_seed(key_seed)
        .build()
        .unwrap()
}

fn image(mem: &SecureMemory) -> BTreeMap<u64, [u8; BLOCK_BYTES]> {
    mem.nvm_image().iter().map(|(a, b)| (a.0, *b)).collect()
}

fn check_equivalence(
    scheme: PersistScheme,
    counters: CounterPersistence,
    rng: &mut SplitMix64,
) -> Result<(), String> {
    let key_seed = rng.next_u64();
    let mut scalar = build(scheme, counters, key_seed);
    let mut batched = build(scheme, counters, key_seed);
    let base = scalar.persistent_region().start();
    // WriteBack deliberately cannot recover the persistent region, so a
    // mid-history crash poisons every later persist on both sides;
    // keep its histories crash-free and let the final cycle below
    // check that both replicas poison identically.
    let allow_crash = scheme.persists_metadata();
    let history = gen_history(rng, base, allow_crash);

    let mut touched: Vec<BlockAddr> = Vec::new();
    let (mut ts, mut tb) = (Time::ZERO, Time::ZERO);
    for event in &history {
        match event {
            Event::Batch(members) => {
                for (block, data) in members {
                    ts = scalar
                        .persist_block(*block, *data, ts)
                        .map_err(|e| format!("scalar persist: {e}"))?;
                    if !touched.contains(block) {
                        touched.push(*block);
                    }
                }
                tb = batched
                    .persist_batch(members, tb)
                    .map_err(|e| format!("batched persist: {e}"))?;
            }
            Event::Crash => {
                scalar.crash();
                batched.crash();
                scalar
                    .recover()
                    .map_err(|e| format!("scalar recover: {e}"))?;
                batched
                    .recover()
                    .map_err(|e| format!("batched recover: {e}"))?;
            }
        }
    }

    if image(&scalar) != image(&batched) {
        return Err("NVM images diverged after history".into());
    }
    if scalar.root(RegionKind::Persistent) != batched.root(RegionKind::Persistent) {
        return Err("persistent BMT roots diverged".into());
    }
    if scalar.stats().persists != batched.stats().persists {
        return Err(format!(
            "durability-point counts diverged: scalar {} vs batched {}",
            scalar.stats().persists,
            batched.stats().persists
        ));
    }

    // Both must also agree after one more crash/recovery cycle: the
    // staged-update replay paths converge on the same bytes.
    scalar.crash();
    batched.crash();
    let rs = scalar
        .recover()
        .map_err(|e| format!("scalar recover: {e}"))?;
    let rb = batched
        .recover()
        .map_err(|e| format!("batched recover: {e}"))?;
    if rs.persistent_recovered != rb.persistent_recovered {
        return Err("recovery reports diverged".into());
    }
    if !rs.persistent_recovered {
        // WriteBack: both replicas agree the region is unrecoverable.
        return Ok(());
    }
    for block in &touched {
        let a = scalar
            .read(block.base())
            .map_err(|e| format!("scalar post-recovery read: {e}"))?;
        let b = batched
            .read(block.base())
            .map_err(|e| format!("batched post-recovery read: {e}"))?;
        if a != b {
            return Err(format!("post-recovery contents diverged at {block:?}"));
        }
    }
    Ok(())
}

const STRICT: CounterPersistence = CounterPersistence::Strict;

fn run(name: &'static str, scheme: PersistScheme) {
    check(name, Config::cases(250), |rng| {
        check_equivalence(scheme, STRICT, rng)
    });
}

#[test]
fn batched_equals_scalar_write_back() {
    run("batched_equals_scalar_write_back", PersistScheme::WriteBack);
}

#[test]
fn batched_equals_scalar_triad1() {
    run("batched_equals_scalar_triad1", PersistScheme::triad_nvm(1));
}

#[test]
fn batched_equals_scalar_triad2() {
    run("batched_equals_scalar_triad2", PersistScheme::triad_nvm(2));
}

/// Osiris members share a batch, each deciding at its own write-back
/// whether its counter persists.
#[test]
fn batched_equals_scalar_triad2_osiris() {
    let osiris = CounterPersistence::Osiris { interval: 3 };
    check(
        "batched_equals_scalar_triad2_osiris",
        Config::cases(250),
        |rng| check_equivalence(PersistScheme::triad_nvm(2), osiris, rng),
    );
}

#[test]
fn batched_equals_scalar_triad3() {
    run("batched_equals_scalar_triad3", PersistScheme::triad_nvm(3));
}

#[test]
fn batched_equals_scalar_strict() {
    run("batched_equals_scalar_strict", PersistScheme::Strict);
}

type Members = Vec<(BlockAddr, [u8; BLOCK_BYTES])>;

/// A mid-batch crash case: a history of prefix batches, stores left
/// unpersisted in the L3, then the batch a crash interrupts.
struct MidBatchCase {
    scheme: PersistScheme,
    key_seed: u64,
    prefix: Vec<Members>,
    dirty: Members,
    target: Members,
}

fn random_block(
    rng: &mut SplitMix64,
    base: PhysAddr,
    pages: u64,
) -> (BlockAddr, [u8; BLOCK_BYTES]) {
    let page = rng.gen_range(0..pages);
    let slot = rng.gen_range(0..64);
    let mut data = [0u8; BLOCK_BYTES];
    rng.fill_bytes(&mut data);
    (PhysAddr(base.0 + page * 4096 + slot * 64).block(), data)
}

/// Draws a case. The target batch has 1–16 members or, in half the
/// cases, 64–96 members spread over up to 256 pages, behind 512–640
/// unpersisted stores to the same pages. Those stores overfill the L3,
/// so member fills evict dirty data lines, which write back (and stage)
/// while the batch is open; the batch also touches more counter, MAC
/// and tree lines than the metadata caches hold, so dirty tree nodes
/// write back mid-batch through the eviction path that refreshes
/// staged bytes. In a third of the cases the prefix drives one block's
/// minor counter to within a few writes of `MINOR_MAX` and the target
/// writes that block often enough to overflow, re-encrypting its page
/// mid-batch.
fn gen_mid_batch_case(rng: &mut SplitMix64) -> MidBatchCase {
    let schemes = [
        PersistScheme::triad_nvm(1),
        PersistScheme::triad_nvm(2),
        PersistScheme::triad_nvm(3),
        PersistScheme::Strict,
    ];
    let scheme = schemes[rng.gen_range(0..schemes.len() as u64) as usize];
    let key_seed = rng.next_u64();
    let region = build(scheme, STRICT, key_seed).persistent_region();
    let base = region.start();
    let wide = rng.gen_bool(0.5);
    let pages = if wide {
        (region.len_bytes() / 4096).min(256)
    } else {
        8
    };
    let mut prefix: Vec<Members> = (0..rng.gen_range(0..4))
        .map(|_| {
            let n = rng.gen_range_inclusive(1..=8);
            (0..n).map(|_| random_block(rng, base, pages)).collect()
        })
        .collect();
    let n = if wide {
        rng.gen_range_inclusive(64..=96)
    } else {
        rng.gen_range_inclusive(1..=16)
    };
    let stores = if wide {
        rng.gen_range_inclusive(512..=640)
    } else {
        rng.gen_range(0..32)
    };
    let dirty: Members = (0..stores)
        .map(|_| random_block(rng, base, pages))
        .collect();
    let mut target: Members = (0..n).map(|_| random_block(rng, base, pages)).collect();
    if rng.gen_bool(1.0 / 3.0) {
        let (hot, _) = random_block(rng, base, pages);
        let headroom = rng.gen_range_inclusive(1..=3);
        // One batch merges the prefix's writes of the hot block into a
        // single commit; the minor counter still advances per member.
        prefix.push(
            (0..u64::from(MINOR_MAX) - headroom)
                .map(|w| (hot, [w as u8 + 1; BLOCK_BYTES]))
                .collect(),
        );
        for i in 0..=headroom {
            let at = rng.gen_range_inclusive(0..=target.len() as u64) as usize;
            target.insert(at, (hot, [0xA0 + i as u8; BLOCK_BYTES]));
        }
    }
    MidBatchCase {
        scheme,
        key_seed,
        prefix,
        dirty,
        target,
    }
}

/// Crashes the target batch before member `k` on both replicas,
/// recovers both, and compares NVM images and persistent roots.
fn check_crash_at(case: &MidBatchCase, k: usize) -> Result<(), String> {
    let mut scalar = build(case.scheme, STRICT, case.key_seed);
    let mut batched = build(case.scheme, STRICT, case.key_seed);
    let (mut ts, mut tb) = (Time::ZERO, Time::ZERO);
    for members in &case.prefix {
        for (block, data) in members {
            ts = scalar
                .persist_block(*block, *data, ts)
                .map_err(|e| format!("scalar prefix persist: {e}"))?;
        }
        tb = batched
            .persist_batch(members, tb)
            .map_err(|e| format!("batched prefix persist: {e}"))?;
    }
    for (block, data) in &case.dirty {
        for mem in [&mut scalar, &mut batched] {
            mem.write(block.base(), data)
                .map_err(|e| format!("unpersisted store: {e}"))?;
        }
    }

    for (block, data) in &case.target[..k] {
        ts = scalar
            .persist_block(*block, *data, ts)
            .map_err(|e| format!("scalar persist: {e}"))?;
    }
    scalar.crash();
    batched
        .arm_crash(CrashHookKind::PersistBoundary, k as u64)
        .map_err(|e| format!("arm: {e}"))?;
    match batched.persist_batch(&case.target, tb) {
        Err(SecureMemoryError::NeedsRecovery) => {}
        other => {
            return Err(format!(
                "boundary {k}: the armed crash did not fire: {other:?}"
            ))
        }
    }

    scalar
        .recover()
        .map_err(|e| format!("scalar recover: {e}"))?;
    batched
        .recover()
        .map_err(|e| format!("batched recover: {e}"))?;
    if image(&scalar) != image(&batched) {
        return Err(format!("boundary {k}: NVM images diverged after recovery"));
    }
    if scalar.root(RegionKind::Persistent) != batched.root(RegionKind::Persistent) {
        return Err(format!(
            "boundary {k}: persistent roots diverged after recovery"
        ));
    }
    Ok(())
}

#[test]
fn mid_batch_crash_recovers_like_the_scalar_prefix() {
    check(
        "mid_batch_crash_recovers_like_the_scalar_prefix",
        Config::cases(12),
        |rng| {
            let case = gen_mid_batch_case(rng);
            for k in 0..case.target.len() {
                check_crash_at(&case, k)
                    .map_err(|e| format!("{} ({} members): {e}", case.scheme, case.target.len()))?;
            }
            Ok(())
        },
    );
}
