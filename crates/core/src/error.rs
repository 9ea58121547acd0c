//! Error types of the secure memory controller.

use std::error::Error;
use std::fmt;

use triad_sim::{BlockAddr, PhysAddr};

/// What kind of metadata failed integrity verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityKind {
    /// A counter block's hash did not match its BMT parent slot.
    Counter,
    /// An intermediate BMT node's hash did not match its parent slot.
    BmtNode,
    /// A recomputed tree root did not match the on-chip root register.
    Root,
}

impl fmt::Display for IntegrityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityKind::Counter => write!(f, "counter block"),
            IntegrityKind::BmtNode => write!(f, "Merkle-tree node"),
            IntegrityKind::Root => write!(f, "Merkle-tree root"),
        }
    }
}

/// The crash hooks a [`crate::engine::SecureMemory`] can arm, one at a
/// time, through `SecureMemory::arm_crash`. Also named by
/// [`SecureMemoryError::CrashHookArmed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashHookKind {
    /// Crash instead of the n-th further durability point.
    PersistBoundary,
    /// Crash after n further WPQ copies inside atomic persists.
    WpqWrite,
}

impl fmt::Display for CrashHookKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashHookKind::PersistBoundary => write!(f, "persist-boundary crash hook"),
            CrashHookKind::WpqWrite => write!(f, "WPQ-write crash hook"),
        }
    }
}

/// Errors returned by [`crate::engine::SecureMemory`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecureMemoryError {
    /// The address is outside the configured physical space, or not in
    /// any region's data area.
    OutOfRange {
        /// The offending address.
        addr: PhysAddr,
    },
    /// A Bonsai-Merkle-tree verification failed while fetching
    /// metadata: either real tampering or (for non-persistent data
    /// without Triad-NVM's session/lazy mechanisms) a stale-metadata
    /// artefact of the crash.
    IntegrityViolation {
        /// What failed to verify.
        kind: IntegrityKind,
        /// The metadata block involved.
        block: BlockAddr,
    },
    /// A data block's MAC did not match: the ciphertext (or its MAC, or
    /// its counter) was tampered with or rolled back.
    MacMismatch {
        /// The data block involved.
        block: BlockAddr,
    },
    /// The system crashed and [`crate::engine::SecureMemory::recover`]
    /// has not yet been run.
    NeedsRecovery,
    /// Recovery declared the persistent region unverifiable (e.g. the
    /// `WriteBack` scheme persists no metadata, or corruption could not
    /// be isolated).
    Unverifiable {
        /// Human-readable cause.
        reason: String,
    },
    /// A persist (`clwb + sfence`) was issued for an address outside
    /// the persistent region.
    NotPersistent {
        /// The offending address.
        addr: PhysAddr,
    },
    /// `arm_crash` was called while a crash hook was already armed.
    /// The engine holds one armed hook at a time, so arming a second
    /// one is rejected instead of silently replacing the first.
    CrashHookArmed {
        /// The hook that is already armed.
        existing: CrashHookKind,
        /// The hook the rejected call tried to arm.
        requested: CrashHookKind,
    },
    /// The configuration was rejected.
    Config(String),
    /// An internal engine invariant was violated — a bug in the model,
    /// not in the caller's use of it. Surfaced as an error rather than
    /// a panic so a broken invariant cannot abort a simulation
    /// mid-operation (the panic-policy lint enforces this).
    Internal {
        /// Which invariant broke.
        what: String,
    },
}

impl SecureMemoryError {
    /// Builds an [`SecureMemoryError::Internal`] from any displayable
    /// description.
    pub fn internal(what: impl Into<String>) -> Self {
        SecureMemoryError::Internal { what: what.into() }
    }
}

impl fmt::Display for SecureMemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecureMemoryError::OutOfRange { addr } => {
                write!(f, "address {addr} is outside every data region")
            }
            SecureMemoryError::IntegrityViolation { kind, block } => {
                write!(f, "integrity verification failed for {kind} at {block}")
            }
            SecureMemoryError::MacMismatch { block } => {
                write!(f, "data MAC mismatch at {block}")
            }
            SecureMemoryError::NeedsRecovery => {
                write!(f, "system crashed; recovery has not been run")
            }
            SecureMemoryError::Unverifiable { reason } => {
                write!(f, "memory state unverifiable: {reason}")
            }
            SecureMemoryError::NotPersistent { addr } => {
                write!(f, "persist issued for non-persistent address {addr}")
            }
            SecureMemoryError::CrashHookArmed {
                existing,
                requested,
            } => {
                write!(
                    f,
                    "cannot arm the {requested}: the {existing} is already armed \
                     (one hook at a time; disarm it first)"
                )
            }
            SecureMemoryError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            SecureMemoryError::Internal { what } => {
                write!(f, "internal engine invariant violated: {what}")
            }
        }
    }
}

impl Error for SecureMemoryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = SecureMemoryError::MacMismatch {
            block: BlockAddr(5),
        };
        let msg = e.to_string();
        assert!(msg.contains("blk:0x5"));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_trait_object_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SecureMemoryError>();
    }

    #[test]
    fn integrity_kind_display() {
        assert_eq!(IntegrityKind::Counter.to_string(), "counter block");
        assert_eq!(IntegrityKind::Root.to_string(), "Merkle-tree root");
    }
}
