//! # triad-kv
//!
//! A crash-consistent, transactional key-value store built entirely on
//! [`triad_core::SecureMemory`] — the "real software" tier of the
//! Triad-NVM reproduction. Where `triad-workloads` drives the secure
//! memory with synthetic traces, this crate layers a proper storage
//! protocol on top of it:
//!
//! * [`heap`] — the block-granular persistent bump allocator the
//!   store lives on.
//! * [`log`] — a redo write-ahead log of 64-B-aligned records with
//!   checksummed commit markers and torn-write detection: the one
//!   redo log in the tree.
//! * [`store`] — the [`KvStore`]: open/put/get/delete/scan over an
//!   on-NVM bucket index, with every mutation made durable through a
//!   log → commit-marker → apply transaction.
//!
//! Every persist goes through [`triad_core::SecureMemory::persist`],
//! i.e. through
//! the engine's atomic-persist/WPQ path, so the store is honest under
//! every persistence scheme (TriadNVM-1/2/3, Strict) and under crash
//! injection at any persist boundary. Recovery (log replay) reports
//! its work as a [`triad_core::LogReplayStats`], the `RecoveryReport`
//! extension this crate introduces.
//!
//! See `docs/kv.md` for the log format, the recovery protocol, and the
//! failure model.
//!
//! ```rust
//! use triad_core::{PersistScheme, SecureMemoryBuilder};
//! use triad_kv::{heap::PersistentHeap, KvConfig, KvStore};
//!
//! # fn main() -> Result<(), triad_kv::KvError> {
//! let mut mem = SecureMemoryBuilder::new()
//!     .scheme(PersistScheme::triad_nvm(2))
//!     .build()
//!     .map_err(triad_kv::KvError::Memory)?;
//! let heap = PersistentHeap::format(&mut mem)?;
//! let mut kv = KvStore::create(&mut mem, heap, KvConfig::default())?;
//! heap.set_root(&mut mem, kv.superblock().0)?;
//!
//! kv.put(&mut mem, 7, b"hello")?;
//! mem.crash();
//! let (mut kv, report) = triad_kv::recover_store(&mut mem, None)?;
//! assert!(report.persistent_recovered);
//! assert_eq!(kv.get(&mut mem, 7)?.as_deref(), Some(&b"hello"[..]));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::error::Error;
use std::fmt;

use triad_core::SecureMemoryError;

pub mod heap;
pub mod log;
pub mod mode;
pub mod store;

pub use heap::{HeapError, PersistentHeap};
pub use log::RedoLog;
pub use mode::DurabilityMode;
pub use store::{recover_store, GroupReceipt, KvConfig, KvStats, KvStore};

/// Errors of the KV store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The underlying secure memory failed (tampering, crash, …).
    Memory(SecureMemoryError),
    /// The persistent heap failed (out of space, unformatted, …).
    Heap(HeapError),
    /// `open` found no store superblock at the given address.
    NotAStore,
    /// The value does not fit in the write-ahead log.
    ValueTooLarge {
        /// The rejected value length.
        len: usize,
        /// The largest length this store's log accepts.
        max: usize,
    },
    /// A transaction exceeded the write-ahead-log capacity.
    LogFull,
    /// A *single mutation*'s coalesced write set exceeds the
    /// write-ahead-log capacity. Distinguished from [`KvError::LogFull`]
    /// because the group-commit layer recovers from `LogFull` by
    /// splitting the group in half and retrying — a split can never
    /// shrink one mutation, so retrying is futile and the caller must
    /// reject the request (or grow the log) instead.
    GroupTooLarge,
    /// A sharded service was asked for more shards than it supports.
    TooManyShards {
        /// The rejected shard count.
        requested: u64,
        /// The largest supported shard count.
        max: u64,
    },
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::Memory(e) => write!(f, "secure memory error: {e}"),
            KvError::Heap(e) => write!(f, "persistent heap error: {e}"),
            KvError::NotAStore => write!(f, "no KV store superblock at the given address"),
            KvError::ValueTooLarge { len, max } => {
                write!(
                    f,
                    "value of {len} bytes exceeds the log-bounded max of {max}"
                )
            }
            KvError::LogFull => write!(f, "transaction exceeds write-ahead-log capacity"),
            KvError::GroupTooLarge => {
                write!(
                    f,
                    "a single mutation exceeds write-ahead-log capacity; splitting cannot help"
                )
            }
            KvError::TooManyShards { requested, max } => {
                write!(f, "{requested} shards exceed the supported max of {max}")
            }
        }
    }
}

impl Error for KvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KvError::Memory(e) => Some(e),
            KvError::Heap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SecureMemoryError> for KvError {
    fn from(e: SecureMemoryError) -> Self {
        KvError::Memory(e)
    }
}

impl From<HeapError> for KvError {
    fn from(e: HeapError) -> Self {
        // Lift memory errors out of the heap wrapper so callers match
        // crash/tamper conditions uniformly as `KvError::Memory`.
        match e {
            HeapError::Memory(m) => KvError::Memory(m),
            other => KvError::Heap(other),
        }
    }
}

/// Shorthand for KV results.
pub type Result<T> = std::result::Result<T, KvError>;

#[cfg(test)]
mod error_surface {
    use super::*;

    #[test]
    fn kv_errors_display_and_chain() {
        use std::error::Error as _;
        assert!(KvError::NotAStore.to_string().contains("superblock"));
        assert!(KvError::LogFull.to_string().contains("log"));
        // GroupTooLarge must stay distinguishable from LogFull: the
        // group-commit splitter retries on one and rejects on the other.
        assert_ne!(KvError::GroupTooLarge, KvError::LogFull);
        assert!(KvError::GroupTooLarge
            .to_string()
            .contains("single mutation"));
        assert!(KvError::GroupTooLarge.source().is_none());
        let e = KvError::ValueTooLarge {
            len: 9000,
            max: 512,
        };
        assert!(e.to_string().contains("9000"));
        assert!(e.source().is_none());
        let shards = KvError::TooManyShards {
            requested: 65,
            max: 64,
        };
        assert!(shards.to_string().contains("65"));
        assert!(shards.source().is_none());
        let wrapped = KvError::from(HeapError::OutOfSpace);
        assert_eq!(wrapped, KvError::Heap(HeapError::OutOfSpace));
        assert!(wrapped.source().is_some());
        let lifted = KvError::from(HeapError::Memory(SecureMemoryError::NeedsRecovery));
        assert_eq!(lifted, KvError::Memory(SecureMemoryError::NeedsRecovery));
        assert!(KvError::from(SecureMemoryError::NeedsRecovery)
            .to_string()
            .contains("secure memory"));
    }
}
