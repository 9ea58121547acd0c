//! Deterministic multi-thread interleaving scheduler.
//!
//! Concurrent persistent structures (the `triad-recov` crate) are
//! driven by *logical* threads: each thread's operation is a step
//! machine, and a single driver loop executes one step of one thread
//! at a time. This module decides **which** thread steps next — a
//! seeded [`SplitMix64`] choice over the runnable set — so every
//! interleaving is reproducible from a `u64` seed, exactly like the
//! rest of the workspace's randomness.
//!
//! On top of step choice the scheduler owns **per-thread crash
//! injection**: [`Interleaver::arm_thread_crash`] arms a crash that
//! fires *instead of* the victim's `k`-th step (0-based, mirroring the
//! engine's `arm_crash(PersistBoundary, 0)` = "before the next one").
//! When the armed point is reached the scheduler emits
//! [`SchedEvent::CrashThread`] and parks the thread; the driver models
//! the crash (drop the thread's volatile state) and calls
//! [`Interleaver::revive`] when the thread restarts and begins
//! recovery.
//!
//! Arming is guarded by typed errors rather than silent overwrites:
//! re-arming a thread whose crash has not fired yet is a
//! [`SchedError::CrashAlreadyArmed`], just as the engine rejects a
//! second armed hook (see `SecureMemory::arm_crash` in `triad-core`).

use std::error::Error;
use std::fmt;

use crate::rng::SplitMix64;

/// Errors of the interleaving scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedError {
    /// A thread index was out of range.
    NoSuchThread {
        /// The rejected index.
        thread: usize,
        /// The number of threads the scheduler was built with.
        threads: usize,
    },
    /// `arm_thread_crash` was called while a crash was already armed
    /// on the same thread and had not fired yet.
    CrashAlreadyArmed {
        /// The thread with the pending crash.
        thread: usize,
        /// The step the pending crash is armed at.
        at_step: u64,
    },
    /// The requested crash step has already been executed, so the
    /// crash could never fire.
    CrashInPast {
        /// The thread.
        thread: usize,
        /// The requested step.
        at_step: u64,
        /// Steps the thread has already executed.
        taken: u64,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::NoSuchThread { thread, threads } => {
                write!(f, "thread {thread} out of range (scheduler has {threads})")
            }
            SchedError::CrashAlreadyArmed { thread, at_step } => {
                write!(
                    f,
                    "thread {thread} already has a crash armed at step {at_step}; \
                     disarm it before re-arming"
                )
            }
            SchedError::CrashInPast {
                thread,
                at_step,
                taken,
            } => {
                write!(
                    f,
                    "thread {thread} has already executed {taken} steps; \
                     a crash at step {at_step} can never fire"
                )
            }
        }
    }
}

impl Error for SchedError {}

/// What the driver should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// Execute one step of thread `t`.
    Run(usize),
    /// Thread `t` crashes *instead of* executing its next step: drop
    /// its volatile state. The thread is parked until
    /// [`Interleaver::revive`].
    CrashThread(usize),
}

/// Per-thread scheduler state.
#[derive(Debug, Clone)]
struct ThreadSched {
    /// Eligible for step choice.
    runnable: bool,
    /// Steps executed so far (crashes do not count as steps).
    taken: u64,
    /// Crash armed to fire instead of step `taken == at`.
    crash_at: Option<u64>,
}

/// Seeded uniform interleaver over a fixed set of logical threads,
/// with per-thread crash injection. See the module docs.
#[derive(Debug, Clone)]
pub struct Interleaver {
    rng: SplitMix64,
    threads: Vec<ThreadSched>,
}

impl Interleaver {
    /// A scheduler over `threads` runnable threads; equal seeds give
    /// equal schedules over equal call sequences.
    pub fn new(seed: u64, threads: usize) -> Self {
        Interleaver {
            rng: SplitMix64::stream(seed, 0x5C4E_D01E),
            threads: vec![
                ThreadSched {
                    runnable: true,
                    taken: 0,
                    crash_at: None,
                };
                threads
            ],
        }
    }

    fn check(&self, thread: usize) -> Result<(), SchedError> {
        if thread >= self.threads.len() {
            return Err(SchedError::NoSuchThread {
                thread,
                threads: self.threads.len(),
            });
        }
        Ok(())
    }

    /// The number of threads.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Steps thread `t` has executed (crash events do not count).
    ///
    /// # Errors
    ///
    /// [`SchedError::NoSuchThread`].
    pub fn steps_taken(&self, thread: usize) -> Result<u64, SchedError> {
        self.check(thread)?;
        Ok(self.threads[thread].taken)
    }

    /// Whether thread `t` is eligible for step choice.
    ///
    /// # Errors
    ///
    /// [`SchedError::NoSuchThread`].
    pub fn is_runnable(&self, thread: usize) -> Result<bool, SchedError> {
        self.check(thread)?;
        Ok(self.threads[thread].runnable)
    }

    /// Arms a crash to fire *instead of* thread `t`'s step `at_step`
    /// (0-based over the thread's own executed steps).
    ///
    /// # Errors
    ///
    /// [`SchedError::CrashAlreadyArmed`] when a crash is already armed
    /// on the thread and has not fired — whichever was armed first
    /// wins; [`SchedError::CrashInPast`] when `at_step` has already
    /// executed; [`SchedError::NoSuchThread`].
    pub fn arm_thread_crash(&mut self, thread: usize, at_step: u64) -> Result<(), SchedError> {
        self.check(thread)?;
        let t = &mut self.threads[thread];
        if let Some(at) = t.crash_at {
            return Err(SchedError::CrashAlreadyArmed {
                thread,
                at_step: at,
            });
        }
        if at_step < t.taken {
            return Err(SchedError::CrashInPast {
                thread,
                at_step,
                taken: t.taken,
            });
        }
        t.crash_at = Some(at_step);
        Ok(())
    }

    /// Disarms a pending crash on thread `t`, returning the step it
    /// was armed at (`None` when nothing was armed). Used when a
    /// whole-system crash preempts per-thread injection — first fire
    /// wins, the loser must not fire later.
    ///
    /// # Errors
    ///
    /// [`SchedError::NoSuchThread`].
    pub fn disarm_thread_crash(&mut self, thread: usize) -> Result<Option<u64>, SchedError> {
        self.check(thread)?;
        Ok(self.threads[thread].crash_at.take())
    }

    /// Marks a finished (or blocked) thread ineligible, or re-adds it.
    ///
    /// # Errors
    ///
    /// [`SchedError::NoSuchThread`].
    pub fn set_runnable(&mut self, thread: usize, runnable: bool) -> Result<(), SchedError> {
        self.check(thread)?;
        self.threads[thread].runnable = runnable;
        Ok(())
    }

    /// Revives a crashed thread: it becomes runnable again and its
    /// step counter keeps counting from where it stopped (so a later
    /// crash point can still be armed relative to the whole life of
    /// the thread).
    ///
    /// # Errors
    ///
    /// [`SchedError::NoSuchThread`].
    pub fn revive(&mut self, thread: usize) -> Result<(), SchedError> {
        self.check(thread)?;
        self.threads[thread].runnable = true;
        Ok(())
    }

    /// Chooses the next event: uniformly one of the runnable threads.
    /// If the chosen thread has a crash armed at its current step
    /// count the crash fires instead of the step — exactly once — and
    /// the thread is parked (not runnable) until [`Interleaver::revive`].
    /// Returns `None` when no thread is runnable.
    pub fn next_event(&mut self) -> Option<SchedEvent> {
        let runnable: Vec<usize> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.runnable)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            return None;
        }
        let pick = runnable[self.rng.below(runnable.len() as u64) as usize];
        let t = &mut self.threads[pick];
        if t.crash_at == Some(t.taken) {
            t.crash_at = None;
            t.runnable = false;
            return Some(SchedEvent::CrashThread(pick));
        }
        t.taken += 1;
        Some(SchedEvent::Run(pick))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `sched` to completion with each thread running `quota`
    /// steps before it declares itself done, collecting the events.
    fn drive(sched: &mut Interleaver, quota: u64, revive_crashed: bool) -> Vec<SchedEvent> {
        let mut events = Vec::new();
        while let Some(ev) = sched.next_event() {
            events.push(ev);
            match ev {
                SchedEvent::Run(t) => {
                    if sched.steps_taken(t).unwrap() >= quota {
                        sched.set_runnable(t, false).unwrap();
                    }
                }
                SchedEvent::CrashThread(t) => {
                    if revive_crashed {
                        sched.revive(t).unwrap();
                    }
                }
            }
        }
        events
    }

    #[test]
    fn schedules_are_deterministic() {
        let mut a = Interleaver::new(42, 3);
        let mut b = Interleaver::new(42, 3);
        assert_eq!(drive(&mut a, 20, true), drive(&mut b, 20, true));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Interleaver::new(1, 3);
        let mut b = Interleaver::new(2, 3);
        assert_ne!(drive(&mut a, 50, true), drive(&mut b, 50, true));
    }

    #[test]
    fn every_thread_gets_scheduled() {
        let mut s = Interleaver::new(7, 4);
        let events = drive(&mut s, 10, true);
        for t in 0..4 {
            assert!(events.contains(&SchedEvent::Run(t)), "thread {t} never ran");
            assert_eq!(s.steps_taken(t).unwrap(), 10);
        }
    }

    #[test]
    fn armed_crash_fires_exactly_once_at_the_armed_step() {
        let mut s = Interleaver::new(9, 2);
        s.arm_thread_crash(1, 3).unwrap();
        let events = drive(&mut s, 8, true);
        let crashes: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, SchedEvent::CrashThread(_)))
            .collect();
        assert_eq!(crashes.len(), 1, "crash must fire exactly once");
        assert_eq!(*crashes[0], SchedEvent::CrashThread(1));
        // The victim had executed exactly 3 steps when it crashed:
        // count Run(1) events before the crash.
        let at = events
            .iter()
            .position(|e| *e == SchedEvent::CrashThread(1))
            .unwrap();
        let runs_before = events[..at]
            .iter()
            .filter(|e| **e == SchedEvent::Run(1))
            .count();
        assert_eq!(runs_before, 3, "crash fires instead of step 3");
        // After revival the thread still completes its quota.
        assert_eq!(s.steps_taken(1).unwrap(), 8);
    }

    #[test]
    fn unrevived_crashed_thread_stays_parked() {
        let mut s = Interleaver::new(3, 2);
        s.arm_thread_crash(0, 0).unwrap();
        let events = drive(&mut s, 4, false);
        assert!(events.contains(&SchedEvent::CrashThread(0)));
        assert!(!events.contains(&SchedEvent::Run(0)), "parked forever");
        assert!(!s.is_runnable(0).unwrap());
        assert_eq!(s.steps_taken(1).unwrap(), 4);
    }

    #[test]
    fn rearm_while_armed_is_a_typed_error() {
        let mut s = Interleaver::new(1, 2);
        s.arm_thread_crash(0, 5).unwrap();
        assert_eq!(
            s.arm_thread_crash(0, 9).unwrap_err(),
            SchedError::CrashAlreadyArmed {
                thread: 0,
                at_step: 5
            }
        );
        // Disarming frees the slot; the disarmed point is reported.
        assert_eq!(s.disarm_thread_crash(0).unwrap(), Some(5));
        assert_eq!(s.disarm_thread_crash(0).unwrap(), None);
        s.arm_thread_crash(0, 9).unwrap();
    }

    #[test]
    fn arming_in_the_past_is_rejected() {
        let mut s = Interleaver::new(1, 1);
        for _ in 0..4 {
            assert!(matches!(s.next_event(), Some(SchedEvent::Run(0))));
        }
        assert_eq!(
            s.arm_thread_crash(0, 2).unwrap_err(),
            SchedError::CrashInPast {
                thread: 0,
                at_step: 2,
                taken: 4
            }
        );
        // The current step count itself is still armable.
        s.arm_thread_crash(0, 4).unwrap();
        assert_eq!(s.next_event(), Some(SchedEvent::CrashThread(0)));
    }

    #[test]
    fn out_of_range_thread_is_rejected_everywhere() {
        let mut s = Interleaver::new(1, 2);
        let e = SchedError::NoSuchThread {
            thread: 5,
            threads: 2,
        };
        assert_eq!(s.arm_thread_crash(5, 0).unwrap_err(), e);
        assert_eq!(s.disarm_thread_crash(5).unwrap_err(), e);
        assert_eq!(s.set_runnable(5, false).unwrap_err(), e);
        assert_eq!(s.revive(5).unwrap_err(), e);
        assert_eq!(s.steps_taken(5).unwrap_err(), e);
        assert_eq!(s.is_runnable(5).unwrap_err(), e);
    }

    #[test]
    fn crash_armed_beyond_the_run_never_fires() {
        let mut s = Interleaver::new(5, 2);
        s.arm_thread_crash(0, 1_000).unwrap();
        let events = drive(&mut s, 6, true);
        assert!(!events
            .iter()
            .any(|e| matches!(e, SchedEvent::CrashThread(_))));
    }

    #[test]
    fn errors_display() {
        assert!(SchedError::NoSuchThread {
            thread: 9,
            threads: 2
        }
        .to_string()
        .contains("out of range"));
        assert!(SchedError::CrashAlreadyArmed {
            thread: 1,
            at_step: 3
        }
        .to_string()
        .contains("already"));
        assert!(SchedError::CrashInPast {
            thread: 0,
            at_step: 1,
            taken: 4
        }
        .to_string()
        .contains("never fire"));
    }
}
