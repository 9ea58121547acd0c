//! Hashed maps and sets keyed by block or page addresses.
//!
//! Every access the secure controller models does at least one lookup
//! by address: the NVM image, the wear counts, the fresh-page set, the
//! open batch's index. A `BTreeMap` walk per lookup dominated host time
//! on those paths; [`AddrMap`] and [`AddrSet`] make each one hash probe.
//!
//! [`AddrHasher`] keeps no per-process state (unlike std's
//! `RandomState`), so a map's layout and iteration order are a pure
//! function of the keys it was given. Even so, no caller may let that
//! order reach a simulated number: code that walks a map in order
//! sorts its keys or stays on a B-tree. Keys are simulator-generated
//! addresses, never outside input, so the loss of flooding resistance
//! does not matter.
//!
//! # Example
//!
//! ```rust
//! use triad_sim::addrmap::{AddrMap, AddrSet};
//!
//! let mut wear: AddrMap<u64, u32> = AddrMap::default();
//! *wear.entry(4096).or_insert(0) += 1;
//! assert_eq!(wear.get(&4096), Some(&1));
//!
//! let mut fresh: AddrSet<u64> = AddrSet::default();
//! assert!(fresh.insert(7) && !fresh.insert(7));
//! ```

// triad-lint: allow(determinism/hash-order) -- only behind the unseeded AddrHasher below
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit constant (2^64 / φ, Knuth's multiplicative hash).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// A multiply-and-fold hasher for integer keys.
///
/// Each word written is mixed in with one multiply by an odd
/// constant; [`Hasher::finish`] folds the high bits down
/// (`h ^ (h >> 29)`). A bare multiply leaves the low bits of a key
/// strided by 2^k at zero, and std's tables index buckets by the low
/// bits, so page-aligned addresses would share one bucket chain.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHasher {
    h: u64,
}

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.h = (self.h ^ x).wrapping_mul(MUL);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.h ^ (self.h >> 29)
    }
}

/// A `HashMap` keyed by addresses, hashed with [`AddrHasher`].
// triad-lint: allow(determinism/hash-order) -- unseeded hasher; callers sort before any ordered walk
pub type AddrMap<K, V> = HashMap<K, V, BuildHasherDefault<AddrHasher>>;

/// A `HashSet` of addresses, hashed with [`AddrHasher`].
// triad-lint: allow(determinism/hash-order) -- unseeded hasher; callers sort before any ordered walk
pub type AddrSet<K> = HashSet<K, BuildHasherDefault<AddrHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<AddrHasher>::default().hash_one(key)
    }

    #[test]
    fn strided_keys_spread_over_the_low_bits() {
        // std's tables pick a bucket from the low bits, so 4096 keys at
        // any power-of-two stride must still land on at least half of
        // 4096 low-bit patterns. A bare multiply gives one at 4096.
        for stride in [1u64, 8, 64, 512, 4096, 1 << 20] {
            let mut low = AddrSet::<u64>::default();
            for i in 0..4096u64 {
                low.insert(hash_of(i * stride) & 0xFFF);
            }
            assert!(
                low.len() >= 2048,
                "stride {stride}: {} distinct low-12-bit values",
                low.len()
            );
        }
    }

    #[test]
    fn hashing_is_stateless_and_deterministic() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of((1u64, 2u64, 3u8)), hash_of((1u64, 2u64, 3u8)));
        assert_ne!(hash_of((1u64, 2u64)), hash_of((2u64, 1u64)));
        // Bytes are folded as little-endian words, like `write_u64`.
        let mut bytes = AddrHasher::default();
        bytes.write(&9u64.to_le_bytes());
        let mut word = AddrHasher::default();
        word.write_u64(9);
        assert_eq!(bytes.finish(), word.finish());
    }
}
