//! # Triad-NVM
//!
//! A from-scratch Rust reproduction of *Triad-NVM: Persistency for
//! Integrity-Protected and Encrypted Non-Volatile Memories* (ISCA 2019),
//! including the complete architectural simulator it is evaluated on.
//!
//! This facade crate re-exports the whole workspace so downstream users
//! can depend on a single crate:
//!
//! * [`sim`] — simulation kernel: time, statistics, configuration.
//! * [`cache`] — set-associative cache models.
//! * [`mem`] — PCM-style NVM with a memory controller and ADR WPQ.
//! * [`crypto`] — AES-128, counter-mode pads, split counters, MACs.
//! * [`meta`] — counter/MAC layout and Bonsai Merkle Trees.
//! * [`core`] — the secure memory controller, persistence schemes,
//!   crash injection and recovery (the paper's contribution).
//! * [`kv`] — a crash-consistent transactional key-value store built
//!   on the secure memory (redo WAL + persistent heap).
//! * [`recov`] — detectably recoverable lock-free structures
//!   (checkpoint + detectable CAS, Treiber stack, MS queue) with a
//!   deterministic interleaving harness and per-thread crash
//!   injection — see `docs/recoverability.md`.
//! * [`workloads`] — SPEC-like / PMDK-like / DAX workload generators
//!   and the KV crash-equivalence driver.
//!
//! Two workspace crates are deliberately *not* re-exported:
//! `triad-bench` (the figure/benchmark binaries) and `triad-analyze`
//! (the in-tree `triad-lint` static-analysis pass that CI runs over
//! this source tree — see `docs/static-analysis.md`).
//!
//! ## Quick example
//!
//! ```rust
//! use triad_nvm::core::{PersistScheme, SecureMemoryBuilder};
//!
//! # fn main() -> Result<(), triad_nvm::core::SecureMemoryError> {
//! let mut mem = SecureMemoryBuilder::new()
//!     .capacity_bytes(1 << 24)            // 16 MiB simulated NVM
//!     .persistent_fraction_eighths(2)     // 4 MiB persistent region
//!     .scheme(PersistScheme::triad_nvm(1))
//!     .build()?;
//!
//! let addr = mem.persistent_region().start();
//! mem.write(addr, &[42u8; 64])?;
//! mem.persist(addr)?;
//! assert_eq!(mem.read(addr)?[0], 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use triad_cache as cache;
pub use triad_core as core;
pub use triad_crypto as crypto;
pub use triad_kv as kv;
pub use triad_mem as mem;
pub use triad_meta as meta;
pub use triad_recov as recov;
pub use triad_sim as sim;
pub use triad_workloads as workloads;
