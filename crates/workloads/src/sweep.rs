//! The crash-sweep driver: one loop that crashes a system at every
//! persist boundary of a fixed schedule and hands each recovery to an
//! oracle.
//!
//! A sweep pairs a [`SystemUnderTest`] — something that serves a
//! schedule of [`Step`]s on one *victim* engine and can recover that
//! engine after a crash — with an [`Oracle`] that judges what
//! recovery produced, which is how Memento states detectability.
//! [`run`]:
//!
//! 1. runs the schedule once without a crash, checking every response
//!    against an in-DRAM model (every read sees every earlier write);
//! 2. counts the victim engine's persist boundaries in that run;
//! 3. for each boundary `k`, builds a fresh system, arms
//!    `arm_crash(PersistBoundary, k)` on the victim, replays the
//!    schedule and recovers the victim when the crash fires;
//! 4. passes the recovery report and the victim's recovered state to
//!    the oracle, which either ends the run ([`Verdict::Stop`]) or has
//!    the driver re-drive the interrupted step and the rest of the
//!    schedule ([`Verdict::Redrive`]) and then judge the whole state it
//!    converged to, every shard included.
//!
//! One system implements the trait: [`KvService`], whose shard 0 is
//! the victim ([`serial_service`] builds one). A one-shard service at
//! group window 1 sweeps a single `KvStore` op by op, every mutation
//! its own group commit; the driver's tests wrap it in fakes. Three
//! oracles cover the durability tiers of
//! `docs/durability-contract.md`: [`PreOrPost`] (Strict),
//! [`BufferedPrefix`] (Buffered) and [`BarrierFloor`] (InMemory).

use std::collections::{BTreeMap, BTreeSet};

use triad_core::{CrashHookKind, RecoveryReport, SecureMemory, SecureMemoryError};
use triad_kv::KvError;

use crate::service::{DurabilityMode, KvService, Request, Response, ServiceSpec};

/// A key → value state, as the model and the recovered victim hold it.
pub type State = BTreeMap<u64, Vec<u8>>;

/// One admitted mutation: a put (`Some(value)`) or a delete (`None`).
pub type Mutation = (u64, Option<Vec<u8>>);

/// One step of a sweep schedule: a batch of requests served for one
/// tenant, optionally followed by a barrier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Step {
    /// The tenant the batch is served for.
    pub tenant: u64,
    /// The batch, in submit order.
    pub reqs: Vec<Request>,
    /// Whether a barrier follows the batch.
    pub barrier: bool,
}

impl Step {
    /// A batch for the default tenant, with no barrier.
    pub fn batch(reqs: Vec<Request>) -> Self {
        Step {
            reqs,
            ..Step::default()
        }
    }
}

/// A system the sweep can crash: it serves steps on one victim engine
/// and recovers that engine after the crash.
pub trait SystemUnderTest {
    /// The engine the sweep counts persists on and crashes.
    fn victim(&mut self) -> &mut SecureMemory;
    /// Whether `key` lives on the victim.
    fn owns(&self, key: u64) -> bool;
    /// Serves one step. The armed crash surfaces as
    /// `KvError::Memory(SecureMemoryError::NeedsRecovery)`.
    fn step(&mut self, step: &Step) -> Result<Vec<Response>, KvError>;
    /// Recovers the victim after its crash.
    fn recover(&mut self) -> Result<RecoveryReport, KvError>;
    /// The whole system's durable state, the victim's and every other
    /// engine's.
    fn state(&mut self) -> Result<State, KvError>;
}

/// What the model says about the victim over the whole schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    /// `snaps[i]` is the victim's state before step `i`; the last
    /// entry is its state after the whole schedule.
    pub snaps: Vec<State>,
    /// `muts[i]` lists the victim's mutations in step `i`, in admit
    /// order.
    pub muts: Vec<Vec<Mutation>>,
    /// The whole keyspace after the whole schedule, every engine's
    /// share included.
    pub model: State,
}

/// What a crash run does after the oracle accepted the recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// This boundary is done.
    Stop,
    /// Re-run the interrupted step and the rest of the schedule, then
    /// judge the final state with [`Oracle::settled`].
    Redrive,
}

/// Judges a victim after its crash and recovery.
pub trait Oracle {
    /// Judges the victim recovered from a crash inside step `step`;
    /// `state` holds only the victim's keys.
    ///
    /// # Errors
    ///
    /// Why the recovery breaks the contract.
    fn recovered(
        &self,
        history: &History,
        step: usize,
        report: &RecoveryReport,
        state: &State,
    ) -> Result<Verdict, String>;

    /// Judges the whole system's durable state after the whole
    /// schedule ran: at the end of the clean run, and after every
    /// re-drive. By default it must equal the model's.
    ///
    /// # Errors
    ///
    /// Why the state breaks the contract.
    fn settled(&self, history: &History, state: &State) -> Result<(), String> {
        if history.model == *state {
            Ok(())
        } else {
            Err("durable state diverges from the model".into())
        }
    }
}

/// Sweeps every persist boundary of `schedule` on systems built by
/// `create`, judging each recovery with `oracle`. Returns the number
/// of boundaries swept.
///
/// Every step a crash run completes must answer exactly as in the
/// clean run, except the re-driven interrupted step, which may see
/// its own committed writes.
///
/// # Errors
///
/// The first violation, naming the boundary and the step.
pub fn run<S: SystemUnderTest>(
    mut create: impl FnMut() -> Result<S, KvError>,
    schedule: &[Step],
    oracle: &dyn Oracle,
) -> Result<u64, String> {
    let mut sut = create().map_err(|e| format!("create: {e}"))?;
    let base = sut.victim().stats().persists;
    let mut model = State::new();
    let mut history = History::default();
    let mut clean = Vec::with_capacity(schedule.len());
    for (i, step) in schedule.iter().enumerate() {
        history.snaps.push(victim_view(&sut, &model));
        let resps = sut
            .step(step)
            .map_err(|e| format!("clean run, step {i}: {e}"))?;
        let muts = apply(&mut model, &step.reqs, &resps)
            .map_err(|e| format!("clean run, step {i}: {e}"))?;
        history
            .muts
            .push(muts.into_iter().filter(|(k, _)| sut.owns(*k)).collect());
        clean.push(resps);
    }
    history.snaps.push(victim_view(&sut, &model));
    history.model = model;
    let boundaries = sut.victim().stats().persists - base;
    let state = sut.state().map_err(|e| format!("clean run: {e}"))?;
    oracle
        .settled(&history, &state)
        .map_err(|e| format!("clean run: {e}"))?;

    for k in 0..boundaries {
        let sut = create().map_err(|e| format!("boundary {k}, create: {e}"))?;
        crash_run(sut, k, schedule, &clean, &history, oracle)
            .map_err(|e| format!("boundary {k}, {e}"))?;
    }
    Ok(boundaries)
}

/// One crash run: the schedule with the crash armed at boundary `k`.
fn crash_run<S: SystemUnderTest>(
    mut sut: S,
    k: u64,
    schedule: &[Step],
    clean: &[Vec<Response>],
    history: &History,
    oracle: &dyn Oracle,
) -> Result<(), String> {
    sut.victim()
        .arm_crash(CrashHookKind::PersistBoundary, k)
        .map_err(|e| format!("arm: {e}"))?;
    let mut crashed: Option<usize> = None;
    let mut i = 0;
    while i < schedule.len() {
        let at = |e: String| format!("step {i}: {e}");
        match sut.step(&schedule[i]) {
            Ok(resps) => {
                if crashed != Some(i) && resps != clean[i] {
                    return Err(at("responses differ from the clean run".into()));
                }
                i += 1;
            }
            Err(KvError::Memory(SecureMemoryError::NeedsRecovery)) if crashed.is_none() => {
                crashed = Some(i);
                let report = sut
                    .recover()
                    .map_err(|e| at(format!("recovery failed: {e}")))?;
                if !report.persistent_recovered {
                    return Err(at("persistent region did not recover".into()));
                }
                let state = sut.state().map_err(|e| at(e.to_string()))?;
                let state = victim_view(&sut, &state);
                if oracle.recovered(history, i, &report, &state).map_err(at)? == Verdict::Stop {
                    return Ok(());
                }
            }
            Err(e) => return Err(at(e.to_string())),
        }
    }
    if crashed.is_none() {
        return Err("armed crash never fired".into());
    }
    let state = sut.state().map_err(|e| format!("after re-driving: {e}"))?;
    oracle
        .settled(history, &state)
        .map_err(|e| format!("after re-driving: {e}"))
}

/// The victim's share of a whole-keyspace state.
fn victim_view(sut: &impl SystemUnderTest, state: &State) -> State {
    state
        .iter()
        .filter(|(k, _)| sut.owns(**k))
        .map(|(k, v)| (*k, v.clone()))
        .collect()
}

/// Checks a batch's responses against the in-DRAM `model` and applies
/// its acknowledged mutations, which it returns in admit order. Every
/// read must see every earlier write.
///
/// # Errors
///
/// The first response that disagrees with the model.
pub fn apply(
    model: &mut State,
    reqs: &[Request],
    resps: &[Response],
) -> Result<Vec<Mutation>, String> {
    if resps.len() != reqs.len() {
        return Err(format!(
            "{} responses for {} requests",
            resps.len(),
            reqs.len()
        ));
    }
    let mut muts = Vec::new();
    for (req, resp) in reqs.iter().zip(resps) {
        match (req, resp) {
            (Request::Put { key, value }, Response::Done) => {
                model.insert(*key, value.clone());
                muts.push((*key, Some(value.clone())));
            }
            (Request::Delete { key }, Response::Done) => {
                model.remove(key);
                muts.push((*key, None));
            }
            (Request::Get { key }, Response::Value(v)) if v.as_ref() == model.get(key) => {}
            (Request::Scan, Response::Scanned(pairs))
                if pairs.iter().map(|(k, v)| (k, v)).eq(model.iter()) => {}
            (req, resp) => return Err(format!("{resp:?} disagrees with the model for {req:?}")),
        }
    }
    Ok(muts)
}

/// A fresh service for a sweep, with each `(tenant, tier)` of `tiers`
/// set. Its lanes run serially: threaded lanes give the same results
/// (`service_threaded_and_serial_runs_are_identical`) but spawn
/// threads on every submit of every crash run.
///
/// # Errors
///
/// See [`KvService::create`].
pub fn serial_service(
    spec: &ServiceSpec,
    tiers: &[(u64, DurabilityMode)],
) -> Result<KvService, KvError> {
    let mut svc = KvService::create(spec)?;
    svc.set_threaded(false);
    for &(tenant, mode) in tiers {
        svc.set_tenant_mode(tenant, mode);
    }
    Ok(svc)
}

/// The victim is shard 0.
impl SystemUnderTest for KvService {
    fn victim(&mut self) -> &mut SecureMemory {
        self.shard_mem_mut(0)
            .expect("a service has at least one shard")
    }

    fn owns(&self, key: u64) -> bool {
        self.route(key) == 0
    }

    fn step(&mut self, step: &Step) -> Result<Vec<Response>, KvError> {
        let resps = self.submit_as(step.tenant, &step.reqs)?;
        if step.barrier {
            self.barrier()?;
        }
        Ok(resps)
    }

    fn recover(&mut self) -> Result<RecoveryReport, KvError> {
        self.recover_shard(0)
    }

    fn state(&mut self) -> Result<State, KvError> {
        self.dump()
    }
}

/// The Strict-tier oracle (invariants D1/D7): the victim recovers to
/// exactly its state before or after the interrupted step, never a
/// third state; a durability report, if any, names the strict tier
/// with zero loss; re-driving the schedule converges on the model.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreOrPost;

impl Oracle for PreOrPost {
    fn recovered(
        &self,
        history: &History,
        step: usize,
        report: &RecoveryReport,
        state: &State,
    ) -> Result<Verdict, String> {
        if let Some(d) = &report.durability {
            if (d.mode, d.loss_bound, d.mutations_lost) != ("strict", Some(0), 0) {
                return Err(format!(
                    "report names tier {:?} bound {:?} with {} lost acknowledged mutations",
                    d.mode, d.loss_bound, d.mutations_lost
                ));
            }
        }
        if *state != history.snaps[step] && *state != history.snaps[step + 1] {
            return Err(
                "recovered state matches neither the pre-step nor the post-step snapshot".into(),
            );
        }
        Ok(Verdict::Redrive)
    }
}

/// The Buffered-tier oracle (invariants D3/D4/D7): the recovered state
/// is the state after an admit-order prefix of the victim's mutations,
/// the report measures exactly the acknowledged mutations that prefix
/// lacks, and that loss is within `max_loss`. Mutations of completed
/// steps count as acknowledged; those of the interrupted step do not.
#[derive(Debug, Clone, Copy)]
pub struct BufferedPrefix {
    /// The tier's loss bound.
    pub max_loss: u64,
}

/// Whether `state` is the state after some admit-order prefix of the
/// victim's mutations whose length `p` satisfies `fits(p)`. A prefix
/// that collides with another state is accepted through any of them.
fn is_prefix(history: &History, state: &State, fits: impl Fn(u64) -> bool) -> bool {
    let mut prefix = history.snaps[0].clone();
    let mut muts = history.muts.iter().flatten();
    let mut p = 0u64;
    loop {
        if prefix == *state && fits(p) {
            return true;
        }
        match muts.next() {
            Some((key, Some(value))) => prefix.insert(*key, value.clone()),
            Some((key, None)) => prefix.remove(key),
            None => return false,
        };
        p += 1;
    }
}

impl Oracle for BufferedPrefix {
    fn recovered(
        &self,
        history: &History,
        step: usize,
        report: &RecoveryReport,
        state: &State,
    ) -> Result<Verdict, String> {
        let d = report.durability.as_ref().ok_or("no durability report")?;
        let acked: u64 = history.muts[..step].iter().map(|m| m.len() as u64).sum();
        // The report names the weakest tier that acknowledged
        // mutations: with none acknowledged yet it falls back to the
        // strict baseline.
        let (mode, bound) = if acked > 0 {
            ("buffered", Some(self.max_loss))
        } else {
            ("strict", Some(0))
        };
        if d.mode != mode || d.loss_bound != bound {
            return Err(format!(
                "report names tier {:?} bound {:?}, expected {mode:?} bound {bound:?}",
                d.mode, d.loss_bound
            ));
        }
        if d.mutations_lost > self.max_loss || !d.within_bound() {
            return Err(format!(
                "lost {} acknowledged mutations, contract allows {}",
                d.mutations_lost, self.max_loss
            ));
        }
        if !is_prefix(history, state, |p| {
            acked.saturating_sub(p) == d.mutations_lost
        }) {
            return Err(format!(
                "recovered state is not an admit-order prefix consistent with the \
                 reported loss of {}",
                d.mutations_lost
            ));
        }
        Ok(Verdict::Stop)
    }

    /// A clean run may end with a backlog still in DRAM: its durable
    /// state is a prefix at most `max_loss` mutations short. The
    /// victim must own every key: [`History`] orders only its
    /// mutations.
    fn settled(&self, history: &History, state: &State) -> Result<(), String> {
        let total = history.muts.iter().map(|m| m.len() as u64).sum::<u64>();
        if is_prefix(history, state, |p| total - p <= self.max_loss) {
            Ok(())
        } else {
            Err(format!(
                "durable state is not an admit-order prefix within {} mutations of the model",
                self.max_loss
            ))
        }
    }
}

/// The InMemory-tier oracle (invariants D5/D7) for schedules whose
/// every step ends with a barrier: the victim recovers to the floor
/// before the interrupted barrier, losing exactly the distinct keys
/// that barrier promoted, or to the floor after it, losing nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct BarrierFloor;

impl Oracle for BarrierFloor {
    fn recovered(
        &self,
        history: &History,
        step: usize,
        report: &RecoveryReport,
        state: &State,
    ) -> Result<Verdict, String> {
        let d = report.durability.as_ref().ok_or("no durability report")?;
        if d.mode != "in-memory" || d.loss_bound.is_some() || !d.within_bound() {
            return Err(format!(
                "report names tier {:?} bound {:?}",
                d.mode, d.loss_bound
            ));
        }
        let promoted = history.muts[step]
            .iter()
            .map(|(k, _)| k)
            .collect::<BTreeSet<_>>()
            .len() as u64;
        let pre = *state == history.snaps[step] && d.mutations_lost == promoted;
        let post = *state == history.snaps[step + 1] && d.mutations_lost == 0;
        if !pre && !post {
            return Err(format!(
                "recovered state is neither the pre- nor the post-barrier floor with a \
                 matching loss of {} (the barrier promoted {promoted})",
                d.mutations_lost
            ));
        }
        Ok(Verdict::Stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{generate_history, KvSpec};
    use crate::service::generate_requests;

    /// One `KvStore` served op by op: a one-shard service at group
    /// window 1.
    fn store() -> Result<KvService, KvError> {
        let spec = ServiceSpec {
            group_window: 1,
            buckets: 16,
            log_blocks: 32,
            key_seed: 42,
            ..ServiceSpec::new(1)
        };
        serial_service(&spec, &[])
    }

    fn puts(keys: impl IntoIterator<Item = u64>) -> Vec<Step> {
        keys.into_iter()
            .map(|key| {
                Step::batch(vec![Request::Put {
                    key,
                    value: vec![key as u8; 24],
                }])
            })
            .collect()
    }

    #[test]
    fn store_sweep_holds_on_a_small_history() {
        let schedule: Vec<Step> = generate_history(&KvSpec::small(6), 42)
            .into_iter()
            .map(|req| Step::batch(vec![req]))
            .collect();
        let boundaries = run(store, &schedule, &PreOrPost).unwrap();
        assert!(boundaries > 0, "history must cross persist boundaries");
    }

    #[test]
    fn service_sweep_holds_at_group_boundaries() {
        let spec = ServiceSpec {
            buckets: 16,
            group_window: 4,
            log_blocks: 256,
            ..ServiceSpec::new(2)
        };
        let schedule: Vec<Step> = (0..2)
            .map(|b| Step::batch(generate_requests(99 ^ (b + 1), 4, 16, (1, 48))))
            .collect();
        let boundaries = run(|| serial_service(&spec, &[]), &schedule, &PreOrPost).unwrap();
        assert!(boundaries > 0, "schedule must cross persist boundaries");
    }

    /// `S` with a recovery that also runs `lie`.
    struct Lying<S> {
        inner: S,
        lie: fn(&mut S) -> Result<(), KvError>,
    }

    impl<S: SystemUnderTest> SystemUnderTest for Lying<S> {
        fn victim(&mut self) -> &mut SecureMemory {
            self.inner.victim()
        }
        fn owns(&self, key: u64) -> bool {
            self.inner.owns(key)
        }
        fn step(&mut self, step: &Step) -> Result<Vec<Response>, KvError> {
            self.inner.step(step)
        }
        fn recover(&mut self) -> Result<RecoveryReport, KvError> {
            let report = self.inner.recover()?;
            (self.lie)(&mut self.inner)?;
            Ok(report)
        }
        fn state(&mut self) -> Result<State, KvError> {
            self.inner.state()
        }
    }

    #[test]
    fn a_recovery_that_drops_a_committed_put_fails_the_sweep() {
        // The puts run in key order, so the largest key recovered is
        // the last committed put.
        let liar = || {
            Ok(Lying {
                inner: store()?,
                lie: |svc: &mut KvService| match svc.state()?.pop_last() {
                    Some((key, _)) => svc.submit(&[Request::Delete { key }]).map(drop),
                    None => Ok(()),
                },
            })
        };
        let err = run(liar, &puts(1..4), &PreOrPost).unwrap_err();
        // The first lie: a crash inside the second put, after the
        // first one committed.
        assert!(err.starts_with("boundary "), "{err}");
        assert!(err.contains(", step 1: "), "{err}");
        assert!(
            err.contains("neither the pre-step nor the post-step"),
            "{err}"
        );
        // The honest store passes the same sweep.
        run(store, &puts(1..4), &PreOrPost).unwrap();
    }

    #[test]
    fn a_lost_write_on_another_shard_fails_the_sweep() {
        let spec = ServiceSpec {
            buckets: 16,
            ..ServiceSpec::new(2)
        };
        let svc = serial_service(&spec, &[]).unwrap();
        let first = |victim: bool| (0..).find(|&k| svc.owns(k) == victim).unwrap();
        // The other shard's first key is written first and never again,
        // so no re-drive restores it; every victim persist comes after.
        let schedule = puts([first(false), first(true)]);
        let honest = run(|| serial_service(&spec, &[]), &schedule, &PreOrPost).unwrap();
        assert!(honest > 0, "schedule must cross persist boundaries");
        // The lie deletes that key, on the shard that never crashes.
        let liar = || {
            Ok(Lying {
                inner: serial_service(&spec, &[])?,
                lie: |svc: &mut KvService| {
                    let key = (0..).find(|&k| !svc.owns(k)).unwrap();
                    svc.submit(&[Request::Delete { key }]).map(drop)
                },
            })
        };
        let err = run(liar, &schedule, &PreOrPost).unwrap_err();
        assert_eq!(
            err,
            "boundary 0, after re-driving: durable state diverges from the model"
        );
    }

    /// Accepts only the state before the interrupted step.
    struct PreOnly;

    impl Oracle for PreOnly {
        fn recovered(
            &self,
            history: &History,
            step: usize,
            _: &RecoveryReport,
            state: &State,
        ) -> Result<Verdict, String> {
            if *state == history.snaps[step] {
                Ok(Verdict::Redrive)
            } else {
                Err("recovered past the pre-step state".into())
            }
        }
    }

    #[test]
    fn a_pre_step_only_oracle_fails_after_the_commit_marker() {
        let schedule = puts(1..2);
        let boundaries = run(store, &schedule, &PreOrPost).unwrap();
        let err = run(store, &schedule, &PreOnly).unwrap_err();
        let k: u64 = err
            .strip_prefix("boundary ")
            .and_then(|rest| rest.split(',').next())
            .and_then(|k| k.parse().ok())
            .unwrap_or_else(|| panic!("no boundary in {err:?}"));
        // Crashes up to the commit marker recover the pre-step state;
        // the first one after it recovers the post-step state.
        assert!(0 < k && k < boundaries, "{err}");
        assert!(err.contains(", step 0: recovered past"), "{err}");
    }
}
