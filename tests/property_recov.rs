//! Property-based crash-equivalence testing for the detectably
//! recoverable lock-free structures in `triad-recov`.
//!
//! Each case draws one mixed operation history, splits it across
//! threads, and replays it through the seeded interleaving harness
//! under every recoverable persistence scheme — once clean, then with
//! a per-thread crash injected at swept step points of every thread,
//! and with whole-engine crashes injected at persist boundaries. Every
//! run must pass the commit-log linearizability oracle: each submitted
//! operation applies exactly once (detectability: the crashed thread's
//! in-flight operation is resolved on recovery, never double-applied),
//! the commit order replays to the final structure contents, and
//! empty removals only commit against an empty structure.
//!
//! The debug default keeps CI cheap; the release acceptance sweep runs
//! with `TRIAD_PROP_CASES=500` (recorded in `docs/recoverability.md`).
//! Failures shrink greedily to the smallest failing history and report
//! a `TRIAD_PROP_SEED` reproduction line.

use triad_nvm::core::PersistScheme;
use triad_nvm::recov::{crash_equivalence_concurrent, OpSpec, RunSpec, StructureKind};
use triad_nvm::sim::prop::{check, check_ops, Config};
use triad_nvm::sim::rng::SplitMix64;

fn schemes() -> [PersistScheme; 4] {
    [
        PersistScheme::triad_nvm(1),
        PersistScheme::triad_nvm(2),
        PersistScheme::triad_nvm(3),
        PersistScheme::Strict,
    ]
}

/// Mixed history: two inserts for every remove, values unique.
fn gen_ops(rng: &mut SplitMix64, len: usize) -> Vec<OpSpec> {
    (0..len)
        .map(|i| {
            if rng.below(3) == 2 {
                OpSpec::Remove
            } else {
                OpSpec::Insert((i as u64) | (1 << 50) | (rng.next_u32() as u64) << 8)
            }
        })
        .collect()
}

/// Round-robin split of one flat history across `threads` scripts, so
/// greedy shrinking of the flat vector always yields valid scripts.
fn split(ops: &[OpSpec], threads: usize) -> Vec<Vec<OpSpec>> {
    let mut scripts = vec![Vec::new(); threads];
    for (i, op) in ops.iter().enumerate() {
        scripts[i % threads].push(*op);
    }
    scripts
}

/// The acceptance property: for one drawn history, sweep per-thread
/// crash points (start / middle / near-end of each thread's clean
/// step count) and engine persist-boundary crashes under all four
/// recoverable schemes, for the structure the case picked. ~50
/// harness runs per case, each oracle-checked, and each swept crash
/// must fire.
#[test]
fn recov_crash_equivalence_under_swept_crashes() {
    check_ops(
        "recov_crash_equivalence_under_swept_crashes",
        Config::cases(2),
        |rng| {
            let len = rng.gen_range(6..24) as usize;
            gen_ops(rng, len)
        },
        |ops, params| {
            let kind = if params.gen_bool(0.5) {
                StructureKind::Stack
            } else {
                StructureKind::Queue
            };
            let threads = 2 + params.below(2) as usize;
            let seed = params.next_u64();
            for scheme in schemes() {
                let spec = RunSpec {
                    kind,
                    scheme,
                    seed,
                    scripts: split(ops, threads),
                    thread_crash: None,
                    engine_crash_after_persists: None,
                };
                let clean = crash_equivalence_concurrent(&spec)
                    .map_err(|e| format!("{scheme} clean run: {e}"))?;
                // Every point below the clean run's count must fire. A
                // shrunk history can leave a thread without steps, or a
                // run with fewer than two persists: those points are
                // out of range and not swept.
                for t in 0..threads {
                    let steps = clean.per_thread_steps[t];
                    let mut points = vec![0, steps / 2, steps.saturating_sub(1)];
                    points.dedup();
                    for k in points.into_iter().filter(|&k| k < steps) {
                        let mut s = spec.clone();
                        s.thread_crash = Some((t, k));
                        let out = crash_equivalence_concurrent(&s)
                            .map_err(|e| format!("{scheme} thread {t} crashed at step {k}: {e}"))?;
                        if out.thread_crashes != 1 {
                            return Err(format!(
                                "{scheme} thread {t} crash at step {k} never fired"
                            ));
                        }
                    }
                }
                let persists = clean.persists;
                for p in [1, persists / 2, persists.saturating_sub(1)]
                    .into_iter()
                    .filter(|&p| p < persists)
                {
                    let mut s = spec.clone();
                    s.engine_crash_after_persists = Some(p);
                    let out = crash_equivalence_concurrent(&s)
                        .map_err(|e| format!("{scheme} engine crash after {p} persists: {e}"))?;
                    if out.engine_crashes != 1 {
                        return Err(format!(
                            "{scheme} engine crash after {p} persists never fired"
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

/// Detectability, exhaustively: a single-thread script crashed at
/// *every* step point — including the window between the decisive CAS
/// and the completion checkpoint — must recover with the in-flight
/// operation applied exactly once. The oracle's exactly-once count is
/// the assertion; this test makes the sweep exhaustive rather than
/// sampled so the decisive-commit window is always covered.
#[test]
fn detectability_crashed_op_applies_exactly_once_at_every_step() {
    check(
        "detectability_crashed_op_applies_exactly_once_at_every_step",
        Config::cases(2),
        |rng| {
            let kind = if rng.gen_bool(0.5) {
                StructureKind::Stack
            } else {
                StructureKind::Queue
            };
            let seed = rng.next_u64();
            let script = vec![
                OpSpec::Insert(11),
                OpSpec::Insert(22),
                OpSpec::Remove,
                OpSpec::Insert(33),
                OpSpec::Remove,
            ];
            let spec = RunSpec {
                kind,
                scheme: PersistScheme::triad_nvm(2),
                seed,
                scripts: vec![script],
                thread_crash: None,
                engine_crash_after_persists: None,
            };
            let clean = crash_equivalence_concurrent(&spec)?;
            for k in 0..clean.per_thread_steps[0] {
                let mut s = spec.clone();
                s.thread_crash = Some((0, k));
                let out = crash_equivalence_concurrent(&s)
                    .map_err(|e| format!("{kind:?} crash at step {k}: {e}"))?;
                if out.thread_crashes != 1 {
                    return Err(format!(
                        "{kind:?} crash at step {k} never fired ({} crashes)",
                        out.thread_crashes
                    ));
                }
            }
            Ok(())
        },
    );
}

/// Composition: a per-thread crash and an engine crash in the same
/// run. Whichever fires first wins; an engine crash disarms the
/// pending thread crash (all threads restart from durable state
/// anyway), and the oracle must still hold.
#[test]
fn thread_and_engine_crashes_compose() {
    check(
        "thread_and_engine_crashes_compose",
        Config::cases(2),
        |rng| {
            let seed = rng.next_u64();
            let ops = gen_ops(rng, 12);
            for kind in [StructureKind::Stack, StructureKind::Queue] {
                let spec = RunSpec {
                    kind,
                    scheme: PersistScheme::triad_nvm(2),
                    seed,
                    scripts: split(&ops, 2),
                    thread_crash: Some((1, 4 + rng.below(8))),
                    engine_crash_after_persists: Some(3 + rng.below(12)),
                };
                let out = crash_equivalence_concurrent(&spec)
                    .map_err(|e| format!("{kind:?} composed crash: {e}"))?;
                if out.thread_crashes + out.engine_crashes == 0 {
                    return Err(format!("{kind:?}: neither armed crash fired"));
                }
            }
            Ok(())
        },
    );
}
