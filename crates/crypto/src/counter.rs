//! Encryption-counter block formats.
//!
//! The paper assumes the *split-counter* organisation of Yan et al.
//! (MICRO'06): one 64 B counter block covers a 4 KiB page and packs a
//! shared 64-bit **major** counter plus 64 per-block 7-bit **minor**
//! counters (8 B + 56 B = 64 B). When a minor counter overflows, the
//! major counter is incremented, every minor counter resets to zero and
//! the whole page must be re-encrypted.
//!
//! A monolithic per-block 64-bit counter is provided for comparison
//! (it is what SGX-style designs use, at 8× the space).

use std::fmt;

/// Number of minor counters per split-counter block (one per 64 B data
/// block of a 4 KiB page).
pub const MINORS_PER_BLOCK: usize = 64;

/// Maximum value of a 7-bit minor counter.
pub const MINOR_MAX: u8 = 127;

/// Outcome of incrementing a counter for one data-block write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementOutcome {
    /// The minor counter advanced; only this data block re-encrypts.
    Minor,
    /// The minor counter overflowed: the major counter advanced, all
    /// minors reset, and the **whole page** must be re-encrypted.
    MajorOverflow,
}

/// A 64-byte split-counter block: 64-bit major + 64 × 7-bit minors.
///
/// The block is held in its 64-byte memory layout: the major counter in
/// the first 8 bytes (little-endian), then minor `i` in bits
/// `7i..7i + 7` of the remaining 56 bytes, least significant bit first.
/// Every accessor reads and writes those fields in place, so
/// serialising is a copy. The layout is a bijection between blocks and
/// 64-byte images, so equality and hashing compare the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitCounterBlock {
    bytes: [u8; 64],
}

impl Default for SplitCounterBlock {
    fn default() -> Self {
        SplitCounterBlock { bytes: [0; 64] }
    }
}

/// Byte offset and bit shift of minor `index` in the memory layout.
fn minor_field(index: usize) -> (usize, u32) {
    assert!(index < MINORS_PER_BLOCK, "minor index {index} out of range");
    let bit = 7 * index;
    (8 + bit / 8, (bit % 8) as u32)
}

impl SplitCounterBlock {
    /// A fresh counter block with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared major counter.
    pub fn major(&self) -> u64 {
        let mut word = [0u8; 8];
        word.copy_from_slice(&self.bytes[..8]);
        u64::from_le_bytes(word)
    }

    fn set_major(&mut self, major: u64) {
        self.bytes[..8].copy_from_slice(&major.to_le_bytes());
    }

    /// The minor counter for data block `index` of the page.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 64`.
    pub fn minor(&self, index: usize) -> u8 {
        let (byte, shift) = minor_field(index);
        let mut field = u16::from(self.bytes[byte]);
        if shift > 1 {
            // 7 bits spill into the next byte when the shift is above 1.
            field |= u16::from(self.bytes[byte + 1]) << 8;
        }
        ((field >> shift) & 0x7f) as u8
    }

    /// Stores `value` (`0..=127`) in minor `index`'s 7-bit field.
    fn set_minor(&mut self, index: usize, value: u8) {
        debug_assert!(value <= MINOR_MAX);
        let (byte, shift) = minor_field(index);
        let mask = 0x7f_u16 << shift;
        let bits = u16::from(value) << shift;
        self.bytes[byte] = (self.bytes[byte] & !(mask as u8)) | bits as u8;
        if shift > 1 {
            let (mask, bits) = ((mask >> 8) as u8, (bits >> 8) as u8);
            self.bytes[byte + 1] = (self.bytes[byte + 1] & !mask) | bits;
        }
    }

    /// Increments the counter for data block `index`, returning whether
    /// the increment stayed minor or overflowed into the major counter.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 64`.
    pub fn increment(&mut self, index: usize) -> IncrementOutcome {
        let minor = self.minor(index);
        if minor == MINOR_MAX {
            self.set_major(self.major() + 1);
            self.bytes[8..].fill(0);
            // The written block consumes the first value of the new
            // epoch so two consecutive writes never share (major, minor).
            self.set_minor(index, 1);
            IncrementOutcome::MajorOverflow
        } else {
            self.set_minor(index, minor + 1);
            IncrementOutcome::Minor
        }
    }

    /// The 64-byte memory layout (see the type's docs).
    pub fn to_bytes(&self) -> [u8; 64] {
        self.bytes
    }

    /// The block whose memory layout is `bytes`; every 64-byte image is
    /// one.
    pub fn from_bytes(bytes: &[u8; 64]) -> Self {
        SplitCounterBlock { bytes: *bytes }
    }
}

impl fmt::Display for SplitCounterBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "split(major={}, minors=[", self.major())?;
        for i in 0..4 {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.minor(i))?;
        }
        write!(f, ",…])")
    }
}

/// A monolithic 64-bit per-block counter (the SGX-style alternative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct MonolithicCounter(pub u64);

impl MonolithicCounter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments, panicking on the (practically unreachable) overflow
    /// that would force whole-memory re-encryption.
    pub fn increment(&mut self) {
        self.0 = self
            .0
            .checked_add(1)
            .expect("64-bit monolithic counter overflow: re-key required");
    }
}

impl fmt::Display for MonolithicCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mono({})", self.0)
    }
}

/// A 64-byte block of eight monolithic 64-bit counters (SGX-style):
/// each covers one data block, so one counter block spans 512 B of
/// data instead of a split block's 4 KiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MonolithicCounterBlock {
    counters: [u64; 8],
}

impl MonolithicCounterBlock {
    /// A fresh block with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter for data slot `index` (`0..8`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 8`.
    pub fn counter(&self, index: usize) -> u64 {
        self.counters[index]
    }

    /// Increments the counter for slot `index`. Monolithic counters
    /// never trigger page re-encryption (a 64-bit counter does not
    /// overflow in the life of the system).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 8`, or on the astronomically unreachable
    /// 64-bit overflow.
    pub fn increment(&mut self, index: usize) -> IncrementOutcome {
        self.counters[index] = self.counters[index]
            .checked_add(1)
            .expect("64-bit counter overflow: re-key required");
        IncrementOutcome::Minor
    }

    /// Serialises to the 64-byte memory layout (little-endian).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        for (i, c) in self.counters.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Deserialises from the 64-byte memory layout.
    pub fn from_bytes(bytes: &[u8; 64]) -> Self {
        let mut counters = [0u64; 8];
        for (i, c) in counters.iter_mut().enumerate() {
            *c = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        MonolithicCounterBlock { counters }
    }
}

impl fmt::Display for MonolithicCounterBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mono[{},{},…]", self.counters[0], self.counters[1])
    }
}

/// A counter block in either organisation — what the secure engine's
/// counter cache actually holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnyCounterBlock {
    /// Split organisation (64 data blocks per counter block).
    Split(SplitCounterBlock),
    /// Monolithic organisation (8 data blocks per counter block).
    Mono(MonolithicCounterBlock),
}

impl AnyCounterBlock {
    /// A fresh all-zero block of the given organisation
    /// (`true` = split).
    pub fn fresh(split: bool) -> Self {
        if split {
            AnyCounterBlock::Split(SplitCounterBlock::new())
        } else {
            AnyCounterBlock::Mono(MonolithicCounterBlock::new())
        }
    }

    /// Number of data blocks one counter block covers.
    pub fn coverage(&self) -> usize {
        match self {
            AnyCounterBlock::Split(_) => MINORS_PER_BLOCK,
            AnyCounterBlock::Mono(_) => 8,
        }
    }

    /// The `(major, minor)` IV pair for data slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the coverage.
    pub fn pair(&self, index: usize) -> CounterBlock {
        match self {
            AnyCounterBlock::Split(b) => CounterBlock::of_split(b, index),
            AnyCounterBlock::Mono(b) => CounterBlock {
                major: b.counter(index),
                minor: 0,
            },
        }
    }

    /// Increments the counter for slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the coverage.
    pub fn increment(&mut self, index: usize) -> IncrementOutcome {
        match self {
            AnyCounterBlock::Split(b) => b.increment(index),
            AnyCounterBlock::Mono(b) => b.increment(index),
        }
    }

    /// Serialises to the 64-byte memory layout.
    pub fn to_bytes(&self) -> [u8; 64] {
        match self {
            AnyCounterBlock::Split(b) => b.to_bytes(),
            AnyCounterBlock::Mono(b) => b.to_bytes(),
        }
    }

    /// Deserialises a block of the given organisation.
    pub fn from_bytes(split: bool, bytes: &[u8; 64]) -> Self {
        if split {
            AnyCounterBlock::Split(SplitCounterBlock::from_bytes(bytes))
        } else {
            AnyCounterBlock::Mono(MonolithicCounterBlock::from_bytes(bytes))
        }
    }
}

/// Either counter organisation, as seen by the encryption engine: the
/// pair that parameterises the IV for one data block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterBlock {
    /// Major (or whole, for monolithic) counter value.
    pub major: u64,
    /// Minor counter value (zero for monolithic).
    pub minor: u8,
}

impl CounterBlock {
    /// The (major, minor) pair for block `index` of a split block.
    pub fn of_split(block: &SplitCounterBlock, index: usize) -> Self {
        CounterBlock {
            major: block.major(),
            minor: block.minor(index),
        }
    }

    /// The pair for a monolithic counter.
    pub fn of_monolithic(counter: MonolithicCounter) -> Self {
        CounterBlock {
            major: counter.0,
            minor: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_block_is_zero() {
        let b = SplitCounterBlock::new();
        assert_eq!(b.major(), 0);
        assert!((0..64).all(|i| b.minor(i) == 0));
    }

    #[test]
    fn minor_increment() {
        let mut b = SplitCounterBlock::new();
        assert_eq!(b.increment(3), IncrementOutcome::Minor);
        assert_eq!(b.minor(3), 1);
        assert_eq!(b.minor(2), 0);
        assert_eq!(b.major(), 0);
    }

    #[test]
    fn overflow_resets_page() {
        let mut b = SplitCounterBlock::new();
        for _ in 0..MINOR_MAX {
            b.increment(5);
        }
        b.increment(9); // some other block's state must also reset
        assert_eq!(b.minor(5), MINOR_MAX);
        assert_eq!(b.increment(5), IncrementOutcome::MajorOverflow);
        assert_eq!(b.major(), 1);
        assert_eq!(b.minor(5), 1, "written block consumes first new value");
        assert_eq!(b.minor(9), 0, "other minors reset");
    }

    #[test]
    fn no_counter_pair_reuse_across_overflow() {
        // The fundamental security property: consecutive writes to one
        // block never produce the same (major, minor) pair.
        let mut b = SplitCounterBlock::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..400 {
            b.increment(0);
            let pair = (b.major(), b.minor(0));
            assert!(seen.insert(pair), "counter pair {pair:?} reused");
        }
    }

    #[test]
    fn minor_at_0x7f_survives_the_packed_boundary_in_every_slot() {
        // Regression pin for the 7-bit unpack mask (`v & 0x7f`): a minor
        // sitting exactly at MINOR_MAX must round-trip unchanged through
        // the packed layout for every slot alignment (the 7-bit fields
        // straddle byte boundaries at 6 of the 8 phases).
        for slot in 0..MINORS_PER_BLOCK {
            let mut b = SplitCounterBlock::new();
            for _ in 0..MINOR_MAX {
                b.increment(slot);
            }
            assert_eq!(b.minor(slot), MINOR_MAX);
            let back = SplitCounterBlock::from_bytes(&b.to_bytes());
            assert_eq!(back.minor(slot), MINOR_MAX, "slot {slot}");
            assert_eq!(back, b, "slot {slot}");
        }
    }

    #[test]
    fn overflow_across_the_serialisation_boundary_never_reuses_a_pair() {
        // The dangerous path: a counter block at the 0x7f boundary is
        // written to NVM, read back, and then incremented. The overflow
        // must still bump the major and re-issue minor=1 — a silent
        // (major, minor) reuse here would reuse a one-time pad.
        let mut b = SplitCounterBlock::new();
        for _ in 0..MINOR_MAX {
            b.increment(7);
        }
        let pre = (b.major(), b.minor(7));
        assert_eq!(pre, (0, MINOR_MAX));
        let mut reloaded = SplitCounterBlock::from_bytes(&b.to_bytes());
        assert_eq!(reloaded, b, "boundary state must survive NVM round-trip");
        assert_eq!(reloaded.increment(7), IncrementOutcome::MajorOverflow);
        assert_eq!((reloaded.major(), reloaded.minor(7)), (1, 1));
        // And the post-overflow state round-trips too, so a crash right
        // after the page re-encrypt cannot resurrect the old epoch.
        let mut back = SplitCounterBlock::from_bytes(&reloaded.to_bytes());
        assert_eq!(back, reloaded);
        assert_eq!(back.increment(7), IncrementOutcome::Minor);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let mut b = SplitCounterBlock::new();
        for i in 0..64 {
            for _ in 0..(i % 11) {
                b.increment(i);
            }
        }
        b.set_major(0xDEAD_BEEF_CAFE_F00D);
        let bytes = b.to_bytes();
        assert_eq!(SplitCounterBlock::from_bytes(&bytes), b);
        assert_eq!(b.major(), 0xDEAD_BEEF_CAFE_F00D);
        assert!((0..64).all(|i| b.minor(i) == (i % 11) as u8));
    }

    #[test]
    fn packed_layout_is_exactly_64_bytes_and_dense() {
        let mut b = SplitCounterBlock::new();
        for i in 0..64 {
            b.set_minor(i, MINOR_MAX);
        }
        b.set_major(u64::MAX);
        let bytes = b.to_bytes();
        // All 8 + 56 bytes carry payload when everything is maxed.
        assert!(bytes.iter().all(|&x| x == 0xFF), "{bytes:?}");
        assert_eq!(SplitCounterBlock::from_bytes(&bytes), b);
    }

    #[test]
    fn display_forms() {
        let b = SplitCounterBlock::new();
        assert!(b.to_string().starts_with("split(major=0"));
        assert_eq!(MonolithicCounter(7).to_string(), "mono(7)");
    }

    #[test]
    fn monolithic_block_round_trip_and_coverage() {
        let mut b = MonolithicCounterBlock::new();
        assert_eq!(b.increment(3), IncrementOutcome::Minor);
        b.increment(3);
        b.increment(7);
        assert_eq!(b.counter(3), 2);
        assert_eq!(b.counter(7), 1);
        assert_eq!(MonolithicCounterBlock::from_bytes(&b.to_bytes()), b);
        assert!(b.to_string().starts_with("mono["));
    }

    #[test]
    fn any_counter_block_unifies_both_modes() {
        let mut split = AnyCounterBlock::fresh(true);
        let mut mono = AnyCounterBlock::fresh(false);
        assert_eq!(split.coverage(), 64);
        assert_eq!(mono.coverage(), 8);
        split.increment(5);
        mono.increment(5);
        assert_eq!(split.pair(5), CounterBlock { major: 0, minor: 1 });
        assert_eq!(mono.pair(5), CounterBlock { major: 1, minor: 0 });
        for (b, is_split) in [(split, true), (mono, false)] {
            let bytes = b.to_bytes();
            assert_eq!(AnyCounterBlock::from_bytes(is_split, &bytes), b);
        }
    }

    #[test]
    fn monolithic_never_overflows_a_page() {
        let mut b = AnyCounterBlock::fresh(false);
        for _ in 0..1000 {
            assert_eq!(b.increment(0), IncrementOutcome::Minor);
        }
        assert_eq!(
            b.pair(0),
            CounterBlock {
                major: 1000,
                minor: 0
            }
        );
    }

    #[test]
    fn monolithic_increment() {
        let mut c = MonolithicCounter::new();
        c.increment();
        assert_eq!(c, MonolithicCounter(1));
        assert_eq!(
            CounterBlock::of_monolithic(c),
            CounterBlock { major: 1, minor: 0 }
        );
    }

    #[test]
    fn counter_pair_extraction() {
        let mut b = SplitCounterBlock::new();
        b.increment(2);
        b.increment(2);
        let pair = CounterBlock::of_split(&b, 2);
        assert_eq!(pair, CounterBlock { major: 0, minor: 2 });
    }
}
