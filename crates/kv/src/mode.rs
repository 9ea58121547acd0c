//! Durability tiers: what "the store accepted my write" promises.
//!
//! The engine below offers a spectrum of persistence schemes
//! (TriadNVM-N relaxes integrity-metadata persistence against bounded
//! recovery work; Strict persists everything inline). This module
//! names the *application-visible* contracts a serving layer can build
//! from them, so one deployment can serve zero-loss and bounded-loss
//! tenants from the same engine. The guarantees of each tier are
//! frozen as numbered invariants in `docs/durability-contract.md`;
//! every invariant there is enforced by a crash-injection test or a
//! triad-lint rule.

/// The durability contract a tenant's mutations are admitted under.
///
/// Ordered weakest to strongest. The variants map onto the paper's
/// persistence spectrum: `InMemory` corresponds to running the engine
/// as a write-back cache with no application log, `Buffered` to the
/// TriadNVM relaxation (bounded loss, bounded recovery), `Strict` to
/// strict persistence. `docs/durability-contract.md` records the
/// advisory tier→scheme pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// No durability until an explicit barrier. Mutations live in a
    /// volatile overlay; a crash rolls the tenant back to its last
    /// completed Strict barrier (invariant D5). Loss is unbounded
    /// between barriers — this is the cache/session-state tier.
    InMemory,
    /// Bounded loss: mutations buffer in DRAM and flush as one
    /// group commit when either `max_loss` mutations have
    /// accumulated or `flush_interval` simulated nanoseconds have
    /// passed since the oldest unbuffered mutation (the group-fsync
    /// analogue). A crash loses at most `max_loss` admitted mutations
    /// (invariant D3).
    Buffered {
        /// Nanoseconds of simulated time after which a non-empty
        /// buffer is flushed even if short of `max_loss`.
        flush_interval: u64,
        /// The contractual ceiling on mutations a crash may lose.
        /// The buffer flushes strictly before exceeding it.
        max_loss: u64,
    },
    /// Full durability: when `submit` returns `Ok`, every admitted
    /// mutation has a persisted commit marker and survives any crash
    /// (invariant D1). This is the tier every pre-existing caller was
    /// implicitly using.
    Strict,
}

impl Default for DurabilityMode {
    /// Defaults to [`DurabilityMode::Strict`] — the contract every
    /// caller had before tiers existed.
    fn default() -> Self {
        DurabilityMode::Strict
    }
}

impl DurabilityMode {
    /// A `Buffered` mode with the defaults used across tests and
    /// benches: flush at 8 buffered mutations or 1 ms of simulated
    /// time, whichever comes first.
    pub fn buffered_default() -> Self {
        DurabilityMode::Buffered {
            flush_interval: 1_000_000,
            max_loss: 8,
        }
    }

    /// The tier name recovery reports use (`"in-memory"`,
    /// `"buffered"`, `"strict"`). Stable: `docs/durability-contract.md`
    /// and the report assertions key on these strings.
    pub fn tier_name(self) -> &'static str {
        match self {
            DurabilityMode::InMemory => "in-memory",
            DurabilityMode::Buffered { .. } => "buffered",
            DurabilityMode::Strict => "strict",
        }
    }

    /// The contractual ceiling on mutations a crash may lose:
    /// `Some(0)` for Strict, `Some(max_loss)` for Buffered, `None`
    /// (unbounded until the next barrier) for InMemory.
    pub fn loss_bound(self) -> Option<u64> {
        match self {
            DurabilityMode::InMemory => None,
            DurabilityMode::Buffered { max_loss, .. } => Some(max_loss),
            DurabilityMode::Strict => Some(0),
        }
    }

    /// `true` when `self` promises no more than `other` does — the
    /// partial order used to compute the *weakest* tier that admitted
    /// a mutation since the last recovery, which is what a
    /// `DurabilityRecovery` report states.
    pub fn weaker_or_equal(self, other: DurabilityMode) -> bool {
        self.rank() <= other.rank()
    }

    fn rank(self) -> u8 {
        match self {
            DurabilityMode::InMemory => 0,
            DurabilityMode::Buffered { .. } => 1,
            DurabilityMode::Strict => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_strict() {
        assert_eq!(DurabilityMode::default(), DurabilityMode::Strict);
    }

    #[test]
    fn loss_bounds_match_the_contract() {
        assert_eq!(DurabilityMode::Strict.loss_bound(), Some(0));
        assert_eq!(
            DurabilityMode::Buffered {
                flush_interval: 100,
                max_loss: 5
            }
            .loss_bound(),
            Some(5)
        );
        assert_eq!(DurabilityMode::InMemory.loss_bound(), None);
    }

    #[test]
    fn tier_names_are_stable() {
        // The contract doc and recovery reports key on these strings.
        assert_eq!(DurabilityMode::InMemory.tier_name(), "in-memory");
        assert_eq!(DurabilityMode::buffered_default().tier_name(), "buffered");
        assert_eq!(DurabilityMode::Strict.tier_name(), "strict");
    }

    #[test]
    fn weakness_order_is_inmemory_buffered_strict() {
        let i = DurabilityMode::InMemory;
        let b = DurabilityMode::buffered_default();
        let s = DurabilityMode::Strict;
        assert!(i.weaker_or_equal(b) && i.weaker_or_equal(s));
        assert!(b.weaker_or_equal(s) && !b.weaker_or_equal(i));
        assert!(s.weaker_or_equal(s) && !s.weaker_or_equal(b));
    }
}
