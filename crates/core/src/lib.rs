//! # triad-core
//!
//! The Triad-NVM secure memory controller (Awad et al., ISCA 2019):
//! counter-mode encryption with split counters, per-block MACs, two
//! per-region Bonsai Merkle Trees, configurable metadata-persistence
//! schemes, crash injection, and recovery — including the lazy
//! non-persistent-region recovery and corruption pinpointing.
//!
//! Most users start from [`SecureMemoryBuilder`]:
//!
//! ```rust
//! use triad_core::{PersistScheme, SecureMemoryBuilder};
//!
//! # fn main() -> Result<(), triad_core::SecureMemoryError> {
//! let mut mem = SecureMemoryBuilder::new()
//!     .capacity_bytes(4 << 20)
//!     .persistent_fraction_eighths(2)
//!     .scheme(PersistScheme::triad_nvm(2))
//!     .build()?;
//! let addr = mem.persistent_region().start();
//! mem.write(addr, b"hello")?;
//! mem.persist(addr)?;
//! mem.crash();
//! let report = mem.recover()?;
//! assert!(report.persistent_recovered);
//! assert_eq!(&mem.read(addr)?[..5], b"hello");
//! # Ok(())
//! # }
//! ```
//!
//! The multi-core timing driver lives in [`system`]; the analytic
//! recovery-time model of Figure 10 in [`recovery`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod engine;
pub mod error;
pub mod recovery;
pub mod registers;
pub mod scheme;
pub mod system;

pub use engine::{
    RegionHandle, Result, SecureHists, SecureMemory, SecureMemoryBuilder, SecureStats,
};
pub use error::{CrashHookKind, IntegrityKind, SecureMemoryError};
pub use recovery::{
    CorruptRange, DurabilityRecovery, LogReplayStats, PinpointReport, RecoveryModel, RecoveryReport,
};
pub use registers::{PersistentRegisters, StagedUpdate, StagedWrite};
pub use scheme::{CounterPersistence, KeyPolicy, PersistScheme};
pub use system::{CoreStats, System, SystemResult};
