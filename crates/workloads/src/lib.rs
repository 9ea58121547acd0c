//! Workloads for the Triad-NVM evaluation (§4 of the paper).
//!
//! The paper runs SPEC CPU2006 binaries, PMDK microbenchmarks and
//! DAX-mmap synthetic workloads under gem5. This crate provides the
//! closest equivalents the simulator can drive:
//!
//! * [`spec`] — synthetic trace generators parameterised to match each
//!   SPEC benchmark's first-order memory behaviour (footprint,
//!   write intensity, spatial locality, pointer-chasing) — the
//!   properties Figures 4/8/9 actually depend on.
//! * [`traces`] — trace-generator forms of the paper's three PMDK
//!   microbenchmarks (hashtable, queue, array swap) and the
//!   `DAXBENCH-S-RW` strided workload, for the timing simulator.
//! * [`mixes`] — the Table 2 workload registry (DAXBENCH1–4, MIX1–4)
//!   plus every single-program workload the figures sweep.
//! * [`kv`] — seeded request histories for the `triad-kv` store (Zipf
//!   or uniform keys over one keyspace, a put/get/delete/scan mix).
//! * [`service`] — the sharded serving front-end over `triad-kv`:
//!   keyed-hash routing across independent shard engines on worker
//!   threads, group commit (one commit marker per flushed batch), and
//!   WPQ-pressure admission control, with deterministic merges.
//! * [`sweep`] — the crash-sweep driver: a schedule replayed with a
//!   crash at every persist boundary of a victim engine, each recovery
//!   judged by a durability-tier oracle.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod kv;
pub mod mixes;
pub mod service;
pub mod spec;
pub mod sweep;
pub mod traces;
pub mod zipf;

pub use kv::{generate_history, KvMix, KvSpec};
pub use mixes::{all_figure_workloads, build_workload, WorkloadEnv};
pub use service::{
    generate_requests, AdmissionPolicy, DurabilityMode, KvService, Request, Response, ServiceSpec,
};
pub use spec::SpecWorkload;
pub use traces::{DaxBench, PmdkKind, PmdkTrace};
pub use zipf::Zipf;
