//! Simulation kernel for the Triad-NVM architectural simulator.
//!
//! This crate is the leaf of the workspace: every other crate builds on
//! the vocabulary defined here.
//!
//! * [`time`] — picosecond-resolution simulated time ([`Time`], [`Duration`]).
//! * [`addr`] — physical / 64-byte-block address newtypes.
//! * [`addrmap`] — [`AddrMap`]/[`AddrSet`]: hashed maps with a
//!   stateless address hasher, for per-access lookups by address.
//! * [`trace`] — the memory-operation trace interface that workload
//!   generators produce and the multi-core driver consumes.
//! * [`config`] — the full simulated-system configuration, with defaults
//!   reproducing Table 1 of the ISCA'19 paper.
//! * [`stats`] — named-counter statistics, log-bucketed latency
//!   histograms, and the hierarchical [`stats::StatRegistry`] that
//!   components report into.
//! * [`events`] — opt-in structured event tracing (JSON lines stamped
//!   with simulated time only).
//! * [`rng`] — the workspace's only randomness source: a deterministic
//!   SplitMix64 generator with range/float/byte sampling and stream
//!   splitting (no `rand` dependency anywhere).
//! * [`prop`] — a minimal seeded property-testing harness (replaces
//!   `proptest`; see DESIGN.md on the zero-dependency policy).
//! * [`sched`] — the deterministic multi-thread interleaving scheduler
//!   with per-thread crash injection that drives the `triad-recov`
//!   concurrent-recovery suite.
//!
//! # Example
//!
//! ```rust
//! use triad_sim::config::SystemConfig;
//! use triad_sim::time::Duration;
//!
//! let cfg = SystemConfig::isca19();
//! assert_eq!(cfg.cores, 8);
//! assert_eq!(cfg.mem.read_latency, Duration::from_ns(60));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod addrmap;
pub mod config;
pub mod events;
pub mod prop;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;
pub mod trace;

pub use addr::{BlockAddr, PhysAddr, BLOCK_BYTES, BLOCK_SHIFT};
pub use addrmap::{AddrHasher, AddrMap, AddrSet};
pub use config::SystemConfig;
pub use events::{EventSink, SharedEventSink};
pub use sched::{Interleaver, SchedError, SchedEvent};
pub use stats::{Histogram, Scope, StatRegister, StatRegistry};
pub use time::{Duration, Time};
pub use trace::{MemOp, OpKind, TraceSource};
