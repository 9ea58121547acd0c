//! Deterministic concurrent driver and crash-equivalence oracle.
//!
//! The harness owns the only loop in the crate: it builds a secure
//! memory + heap + mementos + structure, spawns one step machine per
//! scheduled operation, and draws from a seeded [`SplitMix64`] stream
//! which logical thread executes its next atomic step — uniformly
//! among the threads with work left, so every interleaving is
//! reproducible from [`RunSpec::seed`]. Crashes come from two
//! independent layers, and **whichever fires first wins**:
//!
//! * **per-thread** ([`RunSpec::thread_crash`] `(t, k)`): when thread
//!   `t` is drawn with `k` steps behind it, the crash fires instead of
//!   its step. Its volatile state — machine and [`ThreadCtx`] — is
//!   dropped, and its next step is recovery (rebuild the context from
//!   NVM, then replay the in-flight operation through the `Start`
//!   resolution gate);
//! * **whole-system** ([`RunSpec::engine_crash_after_persists`], the
//!   engine's `arm_crash` hook): the step in flight fails with
//!   `NeedsRecovery`, caches and staged state are lost, and *every*
//!   thread restarts through recovery. A still-pending per-thread
//!   crash is dropped at that point — the whole system already
//!   crashed, so the per-thread crash lost the race and never fires.
//!
//! Every decisive step (a successful decisive CAS, or a fused empty
//! observation) is appended to a **commit log** in schedule order.
//! The oracle ([`check_run`]) replays that log against a sequential
//! model and enforces:
//!
//! 1. **linearizability**: each logged result is what the sequential
//!    model produces at that point of the commit order;
//! 2. **exactly-once detectability**: every scheduled operation —
//!    crashed or not — commits exactly once and its final result
//!    equals its logged commit;
//! 3. **structure integrity**: the final pointer walk equals the
//!    model's remaining contents.

use std::collections::VecDeque;

use triad_core::{
    CrashHookKind, PersistScheme, SecureMemory, SecureMemoryBuilder, SecureMemoryError,
};
use triad_kv::PersistentHeap;
use triad_sim::rng::SplitMix64;

use crate::memento::{Mementos, ThreadCtx};
use crate::queue::{MsQueue, QueueMachine, QueueOp};
use crate::stack::{StackMachine, StackOp, TreiberStack};
use crate::{RecovError, Result};

/// Which structure a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureKind {
    /// Treiber stack (LIFO).
    Stack,
    /// Michael-Scott queue (FIFO).
    Queue,
}

/// One scripted operation (structure-agnostic: push/enqueue,
/// pop/dequeue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpSpec {
    /// Push / enqueue the value.
    Insert(u64),
    /// Pop / dequeue.
    Remove,
}

/// The result of one completed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    /// The value was inserted.
    Inserted,
    /// This value was removed.
    Removed(u64),
    /// The structure was observed empty.
    Empty,
}

impl OpResult {
    /// Encodes the result as a checkpoint `(tag, value)` pair.
    pub fn encode(self) -> (u64, u64) {
        match self {
            OpResult::Inserted => (1, 0),
            OpResult::Removed(v) => (2, v),
            OpResult::Empty => (3, 0),
        }
    }

    /// Decodes a checkpoint `(tag, value)` pair.
    pub fn decode(tag: u64, value: u64) -> Option<Self> {
        match tag {
            1 => Some(OpResult::Inserted),
            2 => Some(OpResult::Removed(value)),
            3 => Some(OpResult::Empty),
            _ => None,
        }
    }
}

/// What one machine step reported to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Keep stepping.
    Continue,
    /// The decisive step just executed (log a commit); the operation
    /// still needs its completion step.
    Decided(OpResult),
    /// The operation completed; its decisive step was logged earlier
    /// (possibly before a crash).
    Done(OpResult),
    /// Fused decisive + completion in one step (empty observation).
    DoneDecisive(OpResult),
}

/// A full run specification — everything needed to reproduce a run
/// bit-for-bit.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Structure under test.
    pub kind: StructureKind,
    /// Persist scheme of the secure memory.
    pub scheme: PersistScheme,
    /// Schedule seed (equal seeds ⇒ equal interleavings).
    pub seed: u64,
    /// Per-thread operation scripts; `scripts.len()` is the thread
    /// count.
    pub scripts: Vec<Vec<OpSpec>>,
    /// Crash thread `t` instead of its `k`-th step (0-based); a `k`
    /// the thread never reaches never fires.
    pub thread_crash: Option<(usize, u64)>,
    /// Whole-system crash at the n-th run-phase persist boundary
    /// (0-based; setup persists are excluded).
    pub engine_crash_after_persists: Option<u64>,
}

/// One commit-log record: operation `(thread, op_index)` became
/// decisive with `result`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRec {
    /// The executing thread.
    pub thread: usize,
    /// The operation's index in its thread's script.
    pub op_index: usize,
    /// The scripted operation.
    pub op: OpSpec,
    /// The decisive result.
    pub result: OpResult,
}

/// Everything a finished run exposes to oracles and benchmarks.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Decisive commits in schedule (temporal) order.
    pub commits: Vec<CommitRec>,
    /// Final per-thread, per-operation results.
    pub results: Vec<Vec<Option<OpResult>>>,
    /// Total machine steps executed.
    pub steps: u64,
    /// Machine steps each thread executed (recovery steps included) —
    /// the valid crash-point range for a sweep.
    pub per_thread_steps: Vec<u64>,
    /// Run-phase persist boundaries (setup excluded): the points
    /// [`RunSpec::engine_crash_after_persists`] counts, so each of
    /// `0..persists` fires when armed on the same spec without one.
    pub persists: u64,
    /// Run-phase metadata blocks persisted by the scheme (the paper's
    /// cost axis; setup excluded).
    pub persist_metadata_writes: u64,
    /// NVM block writes over the whole run (setup included).
    pub nvm_writes: u64,
    /// Per-thread crashes that actually fired.
    pub thread_crashes: u64,
    /// Whole-system crashes that actually fired.
    pub engine_crashes: u64,
    /// Final structure walk (stack: top first; queue: front first).
    pub final_contents: Vec<u64>,
    /// Simulated run-phase time in nanoseconds.
    pub sim_ns: u64,
    /// Per-operation completion latency (ns of simulated time from
    /// first scheduling to completion), in completion order.
    pub op_latency_ns: Vec<u64>,
}

/// One machine, either flavor.
#[derive(Debug, Clone, Copy)]
enum Machine {
    Stack(StackMachine),
    Queue(QueueMachine),
}

#[derive(Debug, Clone, Copy)]
enum Structure {
    Stack(TreiberStack),
    Queue(MsQueue),
}

impl Structure {
    fn contents(&self, mem: &mut SecureMemory) -> Result<Vec<u64>> {
        match self {
            Structure::Stack(s) => s.contents(mem),
            Structure::Queue(q) => q.contents(mem),
        }
    }
}

struct ThreadRun {
    ctx: ThreadCtx,
    script: Vec<OpSpec>,
    op_idx: usize,
    machine: Option<Machine>,
    needs_recovery: bool,
    /// Simulated time the in-flight operation was first scheduled
    /// (survives crashes: latency includes recovery and replay).
    op_start_ns: Option<u64>,
}

impl ThreadRun {
    /// Whether the thread has no step left to take: every scripted
    /// operation completed and no recovery pending. Only threads with
    /// steps left are drawn.
    fn done(&self) -> bool {
        !self.needs_recovery && self.machine.is_none() && self.op_idx >= self.script.len()
    }
}

fn make_machine(kind: StructureKind, op: OpSpec, seq: u64) -> Machine {
    match kind {
        StructureKind::Stack => Machine::Stack(StackMachine::new(
            match op {
                OpSpec::Insert(v) => StackOp::Push(v),
                OpSpec::Remove => StackOp::Pop,
            },
            seq,
        )),
        StructureKind::Queue => Machine::Queue(QueueMachine::new(
            match op {
                OpSpec::Insert(v) => QueueOp::Enqueue(v),
                OpSpec::Remove => QueueOp::Dequeue,
            },
            seq,
        )),
    }
}

/// Executes `spec` to completion (all scripted operations finished,
/// through any injected crashes) and returns the observables.
///
/// # Errors
///
/// [`RecovError::BadSpec`] for malformed specs; propagated engine /
/// heap errors otherwise. An injected crash is *handled*, not an
/// error.
pub fn run(spec: &RunSpec) -> Result<RunOutcome> {
    let n = spec.scripts.len();
    if n == 0 {
        return Err(RecovError::BadSpec { what: "no threads" });
    }
    if let Some((t, _)) = spec.thread_crash {
        if t >= n {
            return Err(RecovError::BadSpec {
                what: "crash thread out of range",
            });
        }
    }
    let mut mem = SecureMemoryBuilder::new().scheme(spec.scheme).build()?;
    let heap = PersistentHeap::format(&mut mem)?;
    heap.register_alloc_slots(&mut mem, n as u64)?;
    let mementos = Mementos::format(&mut mem, &heap, n as u64)?;
    let structure = match spec.kind {
        StructureKind::Stack => Structure::Stack(TreiberStack::create(&mut mem, &heap)?),
        StructureKind::Queue => Structure::Queue(MsQueue::create(&mut mem, &heap)?),
    };

    let mut schedule = SplitMix64::stream(spec.seed, 0x5C4E_D01E);
    let mut thread_crash = spec.thread_crash;
    if let Some(p) = spec.engine_crash_after_persists {
        // Run-phase boundary count: armed after all setup persists.
        mem.arm_crash(CrashHookKind::PersistBoundary, p)?;
    }

    let mut threads: Vec<ThreadRun> = (0..n)
        .map(|t| ThreadRun {
            ctx: ThreadCtx::new(mementos, t as u64),
            script: spec.scripts[t].clone(),
            op_idx: 0,
            machine: None,
            needs_recovery: false,
            op_start_ns: None,
        })
        .collect();

    let mut commits: Vec<CommitRec> = Vec::new();
    let mut results: Vec<Vec<Option<OpResult>>> =
        spec.scripts.iter().map(|s| vec![None; s.len()]).collect();
    let mut steps = 0u64;
    let mut per_thread_steps = vec![0u64; n];
    let mut thread_crashes = 0u64;
    let mut engine_crashes = 0u64;
    let mut op_latency_ns: Vec<u64> = Vec::new();
    let persists0 = mem.stats().persists;
    let pmw0 = mem.stats().persist_metadata_writes();
    let ns0 = mem.now().as_ns();

    loop {
        // One draw per event, uniform over the threads with steps left
        // in ascending order.
        let ready: Vec<usize> = (0..n).filter(|&t| !threads[t].done()).collect();
        if ready.is_empty() {
            break;
        }
        let t = ready[schedule.below(ready.len() as u64) as usize];
        if thread_crash == Some((t, per_thread_steps[t])) {
            // Per-thread crash instead of the step: all volatile state
            // of t is lost, and its next step is recovery.
            thread_crash = None;
            thread_crashes += 1;
            threads[t].machine = None;
            threads[t].needs_recovery = true;
            continue;
        }
        steps += 1;
        per_thread_steps[t] += 1;
        match step_thread(&mut mem, &heap, &structure, spec.kind, &mut threads, t) {
            // A recovery step, or the thread had nothing left to do.
            Ok(None) => {}
            Ok(Some(step)) => {
                let now_ns = mem.now().as_ns();
                let th = &mut threads[t];
                let mut finish = |th: &mut ThreadRun, r: OpResult| {
                    results[t][th.op_idx] = Some(r);
                    if let Some(start) = th.op_start_ns.take() {
                        op_latency_ns.push(now_ns.saturating_sub(start));
                    }
                    th.op_idx += 1;
                    th.machine = None;
                };
                match step {
                    StepOutcome::Continue => {}
                    StepOutcome::Decided(r) => commits.push(CommitRec {
                        thread: t,
                        op_index: th.op_idx,
                        op: th.script[th.op_idx],
                        result: r,
                    }),
                    StepOutcome::DoneDecisive(r) => {
                        commits.push(CommitRec {
                            thread: t,
                            op_index: th.op_idx,
                            op: th.script[th.op_idx],
                            result: r,
                        });
                        finish(th, r);
                    }
                    StepOutcome::Done(r) => finish(th, r),
                }
            }
            Err(RecovError::Memory(SecureMemoryError::NeedsRecovery)) => {
                // Whole-system crash: recover the engine and restart
                // every thread through recovery. The system-level
                // crash fired first, so a pending per-thread crash is
                // dropped — it must never fire afterwards.
                engine_crashes += 1;
                thread_crash = None;
                mem.recover()?;
                PersistentHeap::open(&mut mem)?;
                for th in &mut threads {
                    th.machine = None;
                    th.needs_recovery = true;
                }
            }
            Err(e) => return Err(e),
        }
    }

    let final_contents = structure.contents(&mut mem)?;
    Ok(RunOutcome {
        commits,
        results,
        steps,
        per_thread_steps,
        persists: mem.stats().persists - persists0,
        persist_metadata_writes: mem.stats().persist_metadata_writes() - pmw0,
        nvm_writes: mem.mem_stats().writes,
        thread_crashes,
        engine_crashes,
        final_contents,
        sim_ns: mem.now().as_ns() - ns0,
        op_latency_ns,
    })
}

/// One scheduled step of thread `t`: recovery, machine construction,
/// or a machine step. `Ok(None)` means the step was consumed by
/// recovery bookkeeping (or the thread is already done).
fn step_thread(
    mem: &mut SecureMemory,
    heap: &PersistentHeap,
    structure: &Structure,
    kind: StructureKind,
    threads: &mut [ThreadRun],
    t: usize,
) -> Result<Option<StepOutcome>> {
    let th = &mut threads[t];
    if th.needs_recovery {
        // The recovery step: rebuild the volatile context from NVM.
        // The completed-operation count tells the thread which script
        // entry (if any) is its in-flight operation to replay.
        th.ctx = ThreadCtx::recover(mem, th.ctx.mementos(), t as u64)?;
        th.op_idx = th.ctx.completed() as usize;
        th.needs_recovery = false;
        th.machine = None;
        return Ok(None);
    }
    if th.op_idx >= th.script.len() {
        return Ok(None);
    }
    if th.machine.is_none() {
        th.machine = Some(make_machine(kind, th.script[th.op_idx], th.ctx.next_seq()));
        if th.op_start_ns.is_none() {
            th.op_start_ns = Some(mem.now().as_ns());
        }
    }
    let Some(machine) = th.machine.as_mut() else {
        return Ok(None);
    };
    let outcome = match (machine, structure) {
        (Machine::Stack(m), Structure::Stack(s)) => m.step(mem, heap, &mut th.ctx, s)?,
        (Machine::Queue(m), Structure::Queue(q)) => m.step(mem, heap, &mut th.ctx, q)?,
        _ => {
            return Err(RecovError::BadSpec {
                what: "machine/structure kind mismatch",
            })
        }
    };
    Ok(Some(outcome))
}

/// Replays the commit log against a sequential model and enforces the
/// crash-equivalence contract (see the module docs). Returns a
/// human-readable violation description on failure.
///
/// # Errors
///
/// A description of the first violation found.
pub fn check_run(spec: &RunSpec, out: &RunOutcome) -> std::result::Result<(), String> {
    // 1. Exactly-once detectability.
    let mut counts: Vec<Vec<u32>> = spec.scripts.iter().map(|s| vec![0; s.len()]).collect();
    for c in &out.commits {
        let Some(slot) = counts.get_mut(c.thread).and_then(|v| v.get_mut(c.op_index)) else {
            return Err(format!(
                "commit for unknown operation (thread {}, op {})",
                c.thread, c.op_index
            ));
        };
        *slot += 1;
        if *slot > 1 {
            return Err(format!(
                "operation (thread {}, op {}) committed {} times — not exactly once",
                c.thread, c.op_index, *slot
            ));
        }
        if spec.scripts[c.thread][c.op_index] != c.op {
            return Err(format!(
                "commit op mismatch at (thread {}, op {})",
                c.thread, c.op_index
            ));
        }
    }
    for (t, thread_counts) in counts.iter().enumerate() {
        for (i, &cnt) in thread_counts.iter().enumerate() {
            if cnt != 1 {
                return Err(format!(
                    "operation (thread {t}, op {i}) committed {cnt} times — not exactly once"
                ));
            }
            let Some(r) = out.results[t][i] else {
                return Err(format!("operation (thread {t}, op {i}) never finished"));
            };
            let Some(c) = out
                .commits
                .iter()
                .find(|c| c.thread == t && c.op_index == i)
            else {
                return Err(format!("operation (thread {t}, op {i}) has no commit"));
            };
            if c.result != r {
                return Err(format!(
                    "operation (thread {t}, op {i}): final result {r:?} \
                     differs from its commit {:?} — applied more than once?",
                    c.result
                ));
            }
        }
    }
    // 2. Linearizability: sequential replay in commit order.
    let mut model: VecDeque<u64> = VecDeque::new();
    for (k, c) in out.commits.iter().enumerate() {
        match (c.op, c.result) {
            (OpSpec::Insert(v), OpResult::Inserted) => match spec.kind {
                StructureKind::Stack => model.push_front(v),
                StructureKind::Queue => model.push_back(v),
            },
            (OpSpec::Remove, OpResult::Removed(v)) => {
                let got = model.pop_front();
                if got != Some(v) {
                    return Err(format!(
                        "commit #{k} (thread {}, op {}): removed {v} but the \
                         sequential model holds {got:?}",
                        c.thread, c.op_index
                    ));
                }
            }
            (OpSpec::Remove, OpResult::Empty) => {
                if !model.is_empty() {
                    return Err(format!(
                        "commit #{k} (thread {}, op {}): observed empty but the \
                         sequential model holds {} elements",
                        c.thread,
                        c.op_index,
                        model.len()
                    ));
                }
            }
            (op, r) => {
                return Err(format!(
                    "commit #{k}: impossible op/result pair {op:?}/{r:?}"
                ))
            }
        }
    }
    // 3. Final structure walk (both walks are front-first in model
    // terms: stack contents are top-first and the model pushes front).
    let expect: Vec<u64> = model.iter().copied().collect();
    if out.final_contents != expect {
        return Err(format!(
            "final contents {:?} differ from the sequential model {:?}",
            out.final_contents, expect
        ));
    }
    Ok(())
}

/// Runs `spec` and applies the oracle: the concurrent crash-equivalence
/// check the acceptance sweep is built on.
///
/// # Errors
///
/// A description of the run failure or the first oracle violation.
pub fn crash_equivalence_concurrent(spec: &RunSpec) -> std::result::Result<RunOutcome, String> {
    let out = run(spec).map_err(|e| format!("run failed: {e}"))?;
    check_run(spec, &out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> PersistScheme {
        PersistScheme::triad_nvm(2)
    }

    fn mixed_scripts(threads: usize, ops: usize) -> Vec<Vec<OpSpec>> {
        (0..threads)
            .map(|t| {
                (0..ops)
                    .map(|i| {
                        if i % 3 == 2 {
                            OpSpec::Remove
                        } else {
                            OpSpec::Insert((t as u64) << 32 | i as u64 | 1 << 60)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn clean_run_passes_the_oracle_for_both_structures() {
        for kind in [StructureKind::Stack, StructureKind::Queue] {
            let spec = RunSpec {
                kind,
                scheme: scheme(),
                seed: 11,
                scripts: mixed_scripts(3, 6),
                thread_crash: None,
                engine_crash_after_persists: None,
            };
            let out = crash_equivalence_concurrent(&spec).unwrap();
            assert_eq!(out.thread_crashes, 0);
            assert_eq!(out.engine_crashes, 0);
            assert!(out.steps > 0 && out.persists > 0);
            assert!(out.commits.len() == 18);
            // Another seed draws another interleaving.
            let other = crash_equivalence_concurrent(&RunSpec { seed: 12, ..spec }).unwrap();
            assert_ne!(other.commits, out.commits, "{kind:?}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = RunSpec {
            kind: StructureKind::Queue,
            scheme: scheme(),
            seed: 77,
            scripts: mixed_scripts(4, 5),
            thread_crash: Some((2, 9)),
            engine_crash_after_persists: None,
        };
        let a = crash_equivalence_concurrent(&spec).unwrap();
        let b = crash_equivalence_concurrent(&spec).unwrap();
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.final_contents, b.final_contents);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn thread_crash_is_recovered_and_exactly_once() {
        for kind in [StructureKind::Stack, StructureKind::Queue] {
            for k in [0, 3, 7, 12] {
                let spec = RunSpec {
                    kind,
                    scheme: scheme(),
                    seed: 5,
                    scripts: mixed_scripts(3, 5),
                    thread_crash: Some((1, k)),
                    engine_crash_after_persists: None,
                };
                let out = crash_equivalence_concurrent(&spec)
                    .unwrap_or_else(|e| panic!("{kind:?} crash@{k}: {e}"));
                assert_eq!(out.thread_crashes, 1, "{kind:?} crash@{k} must fire");
            }
        }
    }

    #[test]
    fn thread_crash_fires_at_the_last_step_and_never_past_it() {
        for kind in [StructureKind::Stack, StructureKind::Queue] {
            let spec = RunSpec {
                kind,
                scheme: scheme(),
                seed: 13,
                scripts: mixed_scripts(3, 4),
                thread_crash: None,
                engine_crash_after_persists: None,
            };
            let clean = crash_equivalence_concurrent(&spec).unwrap();
            for (t, &taken) in clean.per_thread_steps.iter().enumerate() {
                let last = RunSpec {
                    thread_crash: Some((t, taken - 1)),
                    ..spec.clone()
                };
                let out = crash_equivalence_concurrent(&last).unwrap();
                assert_eq!(out.thread_crashes, 1, "{kind:?} thread {t} last step");
                // The thread finishes with `taken` steps behind it and
                // is never drawn again, so a crash armed at `taken`
                // never fires and the run is the clean one.
                let past = RunSpec {
                    thread_crash: Some((t, taken)),
                    ..spec.clone()
                };
                let out = crash_equivalence_concurrent(&past).unwrap();
                assert_eq!(out.thread_crashes, 0, "{kind:?} thread {t} past the end");
                assert_eq!(out.commits, clean.commits);
                assert_eq!(out.steps, clean.steps);
                assert_eq!(out.per_thread_steps, clean.per_thread_steps);
            }
        }
    }

    #[test]
    fn engine_crash_is_recovered_and_exactly_once() {
        for kind in [StructureKind::Stack, StructureKind::Queue] {
            for p in [0, 5, 17] {
                let spec = RunSpec {
                    kind,
                    scheme: scheme(),
                    seed: 21,
                    scripts: mixed_scripts(2, 4),
                    thread_crash: None,
                    engine_crash_after_persists: Some(p),
                };
                let out = crash_equivalence_concurrent(&spec)
                    .unwrap_or_else(|e| panic!("{kind:?} engine-crash@{p}: {e}"));
                assert_eq!(out.engine_crashes, 1, "{kind:?} engine-crash@{p} must fire");
            }
        }
    }

    #[test]
    fn engine_crash_disarms_a_pending_thread_crash() {
        // Composition regression: the engine crash fires early (first
        // persist), the thread crash is armed far in the future and
        // is disarmed by the system-level crash — first fire wins.
        let spec = RunSpec {
            kind: StructureKind::Stack,
            scheme: scheme(),
            seed: 3,
            scripts: mixed_scripts(2, 4),
            thread_crash: Some((0, 1_000_000)),
            engine_crash_after_persists: Some(0),
        };
        let out = crash_equivalence_concurrent(&spec).unwrap();
        assert_eq!(out.engine_crashes, 1);
        assert_eq!(out.thread_crashes, 0, "disarmed hook must never fire");
    }

    #[test]
    fn bad_specs_are_typed() {
        let empty = RunSpec {
            kind: StructureKind::Stack,
            scheme: scheme(),
            seed: 0,
            scripts: vec![],
            thread_crash: None,
            engine_crash_after_persists: None,
        };
        assert!(matches!(
            run(&empty).unwrap_err(),
            RecovError::BadSpec { .. }
        ));
        let oob = RunSpec {
            scripts: mixed_scripts(2, 2),
            thread_crash: Some((5, 0)),
            ..empty
        };
        assert!(matches!(run(&oob).unwrap_err(), RecovError::BadSpec { .. }));
    }

    #[test]
    fn oracle_rejects_a_double_commit() {
        let spec = RunSpec {
            kind: StructureKind::Stack,
            scheme: scheme(),
            seed: 1,
            scripts: vec![vec![OpSpec::Insert(7)]],
            thread_crash: None,
            engine_crash_after_persists: None,
        };
        let mut out = run(&spec).unwrap();
        check_run(&spec, &out).unwrap();
        let dup = out.commits[0];
        out.commits.push(dup);
        let err = check_run(&spec, &out).unwrap_err();
        assert!(err.contains("not exactly once"), "{err}");
    }

    #[test]
    fn oracle_rejects_a_wrong_removal() {
        let spec = RunSpec {
            kind: StructureKind::Queue,
            scheme: scheme(),
            seed: 1,
            scripts: vec![vec![OpSpec::Insert(7), OpSpec::Remove]],
            thread_crash: None,
            engine_crash_after_persists: None,
        };
        let mut out = run(&spec).unwrap();
        for c in &mut out.commits {
            if let OpResult::Removed(v) = c.result {
                c.result = OpResult::Removed(v + 1);
            }
        }
        for r in out.results.iter_mut().flatten() {
            if let Some(OpResult::Removed(v)) = r {
                *r = Some(OpResult::Removed(*v + 1));
            }
        }
        let err = check_run(&spec, &out).unwrap_err();
        assert!(err.contains("sequential model"), "{err}");
    }

    #[test]
    fn op_result_codec_round_trips() {
        for r in [OpResult::Inserted, OpResult::Removed(42), OpResult::Empty] {
            let (t, v) = r.encode();
            assert_eq!(OpResult::decode(t, v), Some(r));
        }
        assert_eq!(OpResult::decode(9, 0), None);
    }
}
