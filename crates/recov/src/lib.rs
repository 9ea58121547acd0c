//! # triad-recov
//!
//! Detectably recoverable lock-free persistent structures over the
//! Triad-NVM secure memory — the concurrent tier of the recovery
//! story. Where `triad-kv` recovers a *single-threaded* store from
//! crashes at whole-system persist boundaries, this crate recovers
//! *per-thread* crashes at arbitrary step points of concurrent
//! operations, following the Memento template (checkpoint + detectable
//! CAS primitives composed into lock-free structures that replay
//! deterministically).
//!
//! * [`memento`] — the per-thread persistent protocol records: a
//!   torn-write-safe A/B [`memento::ThreadCtx`] result **checkpoint**
//!   (value + sequence number, checksummed like the KV WAL), the
//!   **pending-CAS** record, and the shared **help table** that makes
//!   CAS success evidence survive tag overwrites.
//! * [`cas`] — [`cas::CasSite`]: a checksummed, ownership-tagged CAS
//!   word; a successful decisive CAS stamps `(thread, seq)` into the
//!   site so a recovering thread can tell whether its pending
//!   operation took effect ([`cas::resolve_pending`]).
//! * [`stack`] / [`queue`] — a Treiber stack and a Michael-Scott
//!   queue built from those primitives on
//!   [`triad_kv::PersistentHeap`], every persist flowing through the
//!   secure engine (BMT/counter/MAC state stays consistent under
//!   every Triad-NVM scheme).
//! * [`harness`] — the deterministic multi-thread driver: a seeded
//!   schedule over per-thread operation scripts, crash injection at
//!   arbitrary step points, recovery replay, and the concurrent
//!   crash-equivalence oracle (commit-log linearizability +
//!   exactly-once detectability).
//!
//! **Detectability** means: after thread *t* crashes at any step and
//! re-executes its in-flight operation, the operation's effect is
//! applied **exactly once** — never zero times (lost op), never twice
//! (replayed op). See `docs/recoverability.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::error::Error;
use std::fmt;

use triad_core::SecureMemoryError;
use triad_kv::HeapError;

pub mod cas;
pub mod harness;
pub mod memento;
pub mod queue;
pub mod stack;

pub use cas::{CasOutcome, CasSite, CasView, NO_OWNER};
pub use harness::{
    crash_equivalence_concurrent, run, CommitRec, OpResult, OpSpec, RunOutcome, RunSpec,
    StructureKind,
};
pub use memento::{CheckpointVal, Mementos, ThreadCtx};
pub use queue::MsQueue;
pub use stack::TreiberStack;

/// Errors of the recoverable-structures crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecovError {
    /// The underlying secure memory failed (tampering, crash, …).
    Memory(SecureMemoryError),
    /// The persistent heap failed (out of space, slot misuse, …).
    Heap(HeapError),
    /// A checksummed protocol record failed validation where a torn
    /// write is not a legal explanation — corruption, not a crash.
    Corrupt {
        /// Which record kind failed.
        what: &'static str,
        /// The block address involved.
        addr: u64,
    },
    /// The run specification is malformed (no threads, script/crash
    /// mismatch, …).
    BadSpec {
        /// What is wrong with it.
        what: &'static str,
    },
}

impl fmt::Display for RecovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecovError::Memory(e) => write!(f, "secure memory error: {e}"),
            RecovError::Heap(e) => write!(f, "persistent heap error: {e}"),
            RecovError::Corrupt { what, addr } => {
                write!(f, "corrupt {what} record at {addr:#x}")
            }
            RecovError::BadSpec { what } => write!(f, "bad run specification: {what}"),
        }
    }
}

impl Error for RecovError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RecovError::Memory(e) => Some(e),
            RecovError::Heap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SecureMemoryError> for RecovError {
    fn from(e: SecureMemoryError) -> Self {
        RecovError::Memory(e)
    }
}

impl From<HeapError> for RecovError {
    fn from(e: HeapError) -> Self {
        // Lift memory errors out of the heap wrapper so callers match
        // crash conditions uniformly as `RecovError::Memory` (the same
        // discipline as `triad_kv::KvError`).
        match e {
            HeapError::Memory(m) => RecovError::Memory(m),
            other => RecovError::Heap(other),
        }
    }
}

/// Shorthand for recov results.
pub type Result<T> = std::result::Result<T, RecovError>;

#[cfg(test)]
mod error_surface {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        use std::error::Error as _;
        let e = RecovError::from(SecureMemoryError::NeedsRecovery);
        assert!(e.to_string().contains("secure memory"));
        assert!(e.source().is_some());
        let lifted = RecovError::from(HeapError::Memory(SecureMemoryError::NeedsRecovery));
        assert_eq!(lifted, RecovError::Memory(SecureMemoryError::NeedsRecovery));
        let h = RecovError::from(HeapError::OutOfSpace);
        assert_eq!(h, RecovError::Heap(HeapError::OutOfSpace));
        let c = RecovError::Corrupt {
            what: "cas-site",
            addr: 0x40,
        };
        assert!(c.to_string().contains("cas-site"));
        assert!(c.source().is_none());
        assert!(RecovError::BadSpec { what: "no threads" }
            .to_string()
            .contains("no threads"));
    }
}
