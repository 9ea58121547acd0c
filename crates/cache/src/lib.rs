//! Set-associative cache models for the Triad-NVM simulator.
//!
//! A [`Cache`] tracks presence, dirtiness and replacement order of
//! 64-byte blocks, and each line has one value slot. The per-core L1/L2
//! are `Cache<()>`: they only time accesses, and the data lives below
//! them. The secure engine stores its on-chip state in its caches'
//! lines: the L3 holds plaintext, the counter cache holds counter
//! blocks and the Merkle-tree cache holds BMT nodes and MAC blocks. A
//! hit reads the value of the line it probed, and a victim leaves with
//! its value, so hits, misses, evictions and write-backs happen exactly
//! where a hardware cache would produce them, with no second copy of
//! the on-chip data to keep in step.
//!
//! The same type models every array in Table 1: the per-core L1/L2, the
//! shared L3, the 128 KB counter cache and the 128 KB Merkle-tree cache.
//!
//! A lookup scans one run of tags: each set's tags sit side by side, one
//! `u64` per way, and the dirty bits, LRU stamps and values live in
//! arrays of their own, index-parallel to the tags. An empty line holds
//! the tag `u64::MAX`, which no block address reaches, so the scan needs
//! no valid bit, and the LRU stamp 0, so a miss finds its set's first
//! free way, or else its least recently used line, in one pass over the
//! stamps of the set its lookup already found. A power-of-two set count,
//! as in every geometry of `SystemConfig::tiny()` and `isca19()`, picks
//! the set with a mask; any other count picks it with a remainder.
//!
//! # Example
//!
//! ```rust
//! use triad_cache::Cache;
//! use triad_sim::config::CacheConfig;
//! use triad_sim::BlockAddr;
//!
//! let mut l1: Cache = Cache::new("l1", CacheConfig::new(1024, 2, 2));
//! let first = l1.access(BlockAddr(0), false);
//! assert!(!first.hit);
//! let again = l1.access(BlockAddr(0), false);
//! assert!(again.hit);
//!
//! // A cache with values: a miss fills the line, a hit reads it back.
//! let mut l3: Cache<u32> = Cache::new("l3", CacheConfig::new(1024, 2, 2));
//! l3.fill(BlockAddr(7), false, 42);
//! assert_eq!(l3.hit(BlockAddr(7), false).copied(), Some(42));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use triad_sim::config::CacheConfig;
use triad_sim::stats::{Scope, StatRegister};
use triad_sim::time::Duration;
use triad_sim::BlockAddr;

/// The tag of an empty line. It is no block's address: every method
/// that takes one rejects it (see [`Cache`]'s panics).
const EMPTY: u64 = u64::MAX;

/// How a block address picks its set.
#[derive(Debug, Clone, Copy)]
enum SetIndex {
    /// `block & mask`: the set count is a power of two, `mask + 1`.
    Mask(u64),
    /// `block % sets`: any other set count.
    Modulo(u64),
}

/// A block evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim<V = ()> {
    /// Address of the evicted block.
    pub addr: BlockAddr,
    /// Whether it was dirty (must be written back downstream).
    pub dirty: bool,
    /// The line's value (`None` if the line was never filled).
    pub value: Option<V>,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome<V = ()> {
    /// Whether the block was already present.
    pub hit: bool,
    /// Block evicted by the fill (only on misses in full sets).
    pub victim: Option<Victim<V>>,
}

/// Per-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Read accesses that missed.
    pub read_misses: u64,
    /// Write accesses that hit.
    pub write_hits: u64,
    /// Write accesses that missed.
    pub write_misses: u64,
    /// Evictions performed (any cleanliness).
    pub evictions: u64,
    /// Evictions of dirty blocks (write-backs generated).
    pub dirty_evictions: u64,
    /// Explicit flushes of dirty blocks (clwb traffic).
    pub flushes: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Hit rate in `[0, 1]`; zero when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            (self.read_hits + self.write_hits) as f64 / total as f64
        }
    }
}

/// A write-back, write-allocate, LRU set-associative cache with one
/// value slot per line (`V = ()` for caches that only model timing).
///
/// A line allocated by [`Cache::access`] starts *unfilled*; [`Cache::fill`]
/// and [`Cache::set`] store its value. The value leaves with the line:
/// in the [`Victim`] of the miss that evicts it, or dropped by
/// [`Cache::invalidate`] and [`Cache::lose_all`].
///
/// # Panics
///
/// Every method that takes a block address panics on
/// `BlockAddr(u64::MAX)`, the tag of an empty line. No simulated block
/// has that address: a block address is a byte address shifted right
/// by six, so it stays below 2^58.
#[derive(Debug, Clone)]
pub struct Cache<V = ()> {
    name: String,
    index: SetIndex,
    ways: usize,
    latency: Duration,
    /// Each line's tag (its block's address, [`EMPTY`] when invalid),
    /// set by set: set `s` holds lines `s * ways .. (s + 1) * ways`.
    tags: Vec<u64>,
    /// Each line's dirty bit, index-parallel to `tags`. Read only for
    /// valid lines.
    dirty: Vec<bool>,
    /// Each line's LRU timestamp, index-parallel to `tags`: the access
    /// order of a valid line's last touch (at least 1), and 0 for an
    /// empty line, so a set's first smallest stamp is its first free way
    /// or else its least recently used line.
    stamps: Vec<u64>,
    /// Each line's value, index-parallel to `tags`.
    values: Vec<Option<V>>,
    clock: u64,
    stats: CacheStats,
}

impl<V> Cache<V> {
    /// Creates an LRU cache with the given geometry. A power-of-two set
    /// count indexes its sets with a mask, any other with a remainder.
    ///
    /// # Panics
    ///
    /// Panics if the configured size is not an exact number of sets
    /// (see [`CacheConfig::sets`]).
    pub fn new(name: impl Into<String>, config: CacheConfig) -> Self {
        let sets = config.sets();
        let lines = sets * config.ways;
        let index = if sets.is_power_of_two() {
            SetIndex::Mask(sets as u64 - 1)
        } else {
            SetIndex::Modulo(sets as u64)
        };
        Cache {
            name: name.into(),
            index,
            ways: config.ways,
            latency: config.latency,
            tags: vec![EMPTY; lines],
            dirty: vec![false; lines],
            stamps: vec![0; lines],
            values: (0..lines).map(|_| None).collect(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configured hit latency.
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// The cache's name (as given at construction).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Index of `block`'s set's first line.
    fn set_base(&self, block: BlockAddr) -> usize {
        let set = match self.index {
            SetIndex::Mask(mask) => block.0 & mask,
            SetIndex::Modulo(sets) => block.0 % sets,
        };
        set as usize * self.ways
    }

    /// Index of `block`'s line if it is resident (`Ok`), else of its
    /// set's first line (`Err`). Every public method that takes a block
    /// looks it up here first, so this is where the empty tag is refused.
    fn locate(&self, block: BlockAddr) -> Result<usize, usize> {
        assert!(
            block.0 != EMPTY,
            "block address u64::MAX is reserved for empty cache lines"
        );
        let base = self.set_base(block);
        match self.tags[base..base + self.ways]
            .iter()
            .position(|&tag| tag == block.0)
        {
            Some(way) => Ok(base + way),
            None => Err(base),
        }
    }

    /// Index of `block`'s line, if it is resident.
    fn find(&self, block: BlockAddr) -> Option<usize> {
        self.locate(block).ok()
    }

    /// Records a hit on line `i`.
    fn touch(&mut self, i: usize, write: bool) {
        self.clock += 1;
        self.stamps[i] = self.clock;
        self.dirty[i] |= write;
        if write {
            self.stats.write_hits += 1;
        } else {
            self.stats.read_hits += 1;
        }
    }

    /// Index of the line a miss allocates in the set whose first line is
    /// `base`: its first free way, else its least recently used line
    /// (the first smallest stamp either way).
    fn replacement_line(&self, base: usize) -> usize {
        let way = self.stamps[base..base + self.ways]
            .iter()
            .enumerate()
            .min_by_key(|&(_, &stamp)| stamp)
            .map(|(way, _)| way)
            .expect("ways >= 1");
        base + way
    }

    /// Allocates an unfilled line for `block` (a miss) in the set whose
    /// first line is `base`, returning its index and the block it
    /// displaced.
    fn allocate(
        &mut self,
        base: usize,
        block: BlockAddr,
        write: bool,
    ) -> (usize, Option<Victim<V>>) {
        self.clock += 1;
        let i = self.replacement_line(base);
        let old = std::mem::replace(&mut self.tags[i], block.0);
        let value = self.values[i].take();
        let victim = (old != EMPTY).then_some(Victim {
            addr: BlockAddr(old),
            dirty: self.dirty[i],
            value,
        });
        self.dirty[i] = write;
        self.stamps[i] = self.clock;
        if write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        if let Some(v) = &victim {
            self.stats.evictions += 1;
            if v.dirty {
                self.stats.dirty_evictions += 1;
            }
        }
        (i, victim)
    }

    fn access_line(&mut self, block: BlockAddr, write: bool) -> (usize, AccessOutcome<V>) {
        match self.locate(block) {
            Ok(i) => {
                self.touch(i, write);
                let out = AccessOutcome {
                    hit: true,
                    victim: None,
                };
                (i, out)
            }
            Err(base) => {
                let (i, victim) = self.allocate(base, block, write);
                (i, AccessOutcome { hit: false, victim })
            }
        }
    }

    /// Accesses `block`; on a miss the block is allocated in an
    /// unfilled line, possibly evicting a victim which the caller must
    /// handle (write back if dirty). `write` marks the block dirty. A
    /// hit keeps the line's value.
    pub fn access(&mut self, block: BlockAddr, write: bool) -> AccessOutcome<V> {
        self.access_line(block, write).1
    }

    /// [`Cache::access`], then stores `value` in `block`'s line (hit or
    /// miss alike).
    pub fn fill(&mut self, block: BlockAddr, write: bool, value: V) -> AccessOutcome<V> {
        let (i, out) = self.access_line(block, write);
        self.values[i] = Some(value);
        out
    }

    /// Accesses `block` only if it is resident with a value: the hit
    /// updates replacement state, dirtiness and statistics exactly as
    /// [`Cache::access`] would, and returns the line's value. Returns
    /// `None` and changes nothing when the block is absent or its line
    /// is unfilled.
    pub fn hit(&mut self, block: BlockAddr, write: bool) -> Option<&mut V> {
        let i = self.find(block).filter(|&i| self.values[i].is_some())?;
        self.touch(i, write);
        self.values[i].as_mut()
    }

    /// The value of `block`'s line, without disturbing replacement state
    /// or statistics. `None` when the block is absent or unfilled.
    pub fn get(&self, block: BlockAddr) -> Option<&V> {
        self.find(block).and_then(|i| self.values[i].as_ref())
    }

    /// Stores `value` in `block`'s line without counting an access.
    /// Returns `false` (dropping `value`) when the block is not resident.
    pub fn set(&mut self, block: BlockAddr, value: V) -> bool {
        match self.find(block) {
            Some(i) => {
                self.values[i] = Some(value);
                true
            }
            None => false,
        }
    }

    /// The block that an access to `block` would displace, without
    /// changing anything: `None` when `block` is resident or its set
    /// has a free way.
    pub fn peek_victim(&self, block: BlockAddr) -> Option<BlockAddr> {
        let base = self.locate(block).err()?;
        let tag = self.tags[self.replacement_line(base)];
        (tag != EMPTY).then_some(BlockAddr(tag))
    }

    /// Whether `block` is present, without disturbing replacement state
    /// or statistics.
    pub fn probe(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// Whether `block` is present *and dirty*.
    pub fn probe_dirty(&self, block: BlockAddr) -> bool {
        self.find(block).is_some_and(|i| self.dirty[i])
    }

    /// Writes back `block` if present and dirty (clwb semantics: the
    /// line stays valid, keeps its value and becomes clean). Returns
    /// whether a write-back was generated.
    pub fn flush(&mut self, block: BlockAddr) -> bool {
        match self.find(block) {
            Some(i) if self.dirty[i] => {
                self.dirty[i] = false;
                self.stats.flushes += 1;
                true
            }
            _ => false,
        }
    }

    /// Invalidates `block` if present, dropping its value, and returns
    /// whether it was dirty.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        let i = self.find(block)?;
        self.tags[i] = EMPTY;
        self.stamps[i] = 0;
        self.values[i] = None;
        Some(self.dirty[i])
    }

    /// Drops every line and its value (a power loss: volatile contents
    /// vanish). Dirty lines are *lost*, not written back — that is the
    /// point of the paper's crash experiments.
    pub fn lose_all(&mut self) {
        self.tags.fill(EMPTY);
        self.stamps.fill(0);
        self.values.fill_with(|| None);
    }

    /// Returns all dirty blocks (used by orderly shutdown and by tests).
    pub fn dirty_blocks(&self) -> Vec<BlockAddr> {
        self.tags
            .iter()
            .zip(&self.dirty)
            .filter(|&(&tag, &dirty)| tag != EMPTY && dirty)
            .map(|(&tag, _)| BlockAddr(tag))
            .collect()
    }

    /// Returns every resident block whose line holds no value.
    pub fn unfilled_blocks(&self) -> Vec<BlockAddr> {
        self.tags
            .iter()
            .zip(&self.values)
            .filter(|&(&tag, value)| tag != EMPTY && value.is_none())
            .map(|(&tag, _)| BlockAddr(tag))
            .collect()
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&tag| tag != EMPTY).count()
    }
}

impl<V> StatRegister for Cache<V> {
    fn register(&self, scope: &mut Scope<'_>) {
        let s = &self.stats;
        scope.set("read_hits", s.read_hits);
        scope.set("read_misses", s.read_misses);
        scope.set("write_hits", s.write_hits);
        scope.set("write_misses", s.write_misses);
        scope.set("evictions", s.evictions);
        scope.set("dirty_evictions", s.dirty_evictions);
        scope.set("flushes", s.flushes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny<V>(ways: usize) -> Cache<V> {
        // 4 sets × `ways` ways.
        Cache::new("t", CacheConfig::new(4 * ways * 64, ways, 1))
    }

    #[test]
    fn miss_then_hit() {
        let mut c: Cache = tiny(2);
        assert!(!c.access(BlockAddr(0), false).hit);
        assert!(c.access(BlockAddr(0), false).hit);
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn write_marks_dirty_and_eviction_reports_it() {
        let mut c: Cache = tiny(1); // direct-mapped, 4 sets
        c.access(BlockAddr(0), true);
        assert!(c.probe_dirty(BlockAddr(0)));
        // Block 4 maps to the same set in a 4-set cache.
        let out = c.access(BlockAddr(4), false);
        assert!(!out.hit);
        assert_eq!(
            out.victim,
            Some(Victim {
                addr: BlockAddr(0),
                dirty: true,
                value: None,
            })
        );
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c: Cache = tiny(2);
        c.access(BlockAddr(0), false); // set 0
        c.access(BlockAddr(4), false); // set 0
        c.access(BlockAddr(0), false); // touch 0 again
        let out = c.access(BlockAddr(8), false); // set 0, evict 4
        assert_eq!(out.victim.unwrap().addr, BlockAddr(4));
    }

    #[test]
    fn flush_cleans_but_keeps_line() {
        let mut c: Cache<u8> = tiny(2);
        c.fill(BlockAddr(0), true, 5);
        assert!(c.flush(BlockAddr(0)));
        assert!(c.probe(BlockAddr(0)));
        assert!(!c.probe_dirty(BlockAddr(0)));
        assert_eq!(c.get(BlockAddr(0)), Some(&5), "flush keeps the value");
        assert!(!c.flush(BlockAddr(0)), "second flush is a no-op");
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c: Cache<u8> = tiny(2);
        c.fill(BlockAddr(0), true, 1);
        c.access(BlockAddr(1), false);
        assert_eq!(c.invalidate(BlockAddr(0)), Some(true));
        assert_eq!(c.invalidate(BlockAddr(1)), Some(false));
        assert_eq!(c.invalidate(BlockAddr(2)), None);
        assert!(!c.probe(BlockAddr(0)));
        assert!(!c.access(BlockAddr(0), false).hit);
        assert_eq!(
            c.get(BlockAddr(0)),
            None,
            "a refetched line starts unfilled"
        );
    }

    #[test]
    fn lose_all_drops_dirty_data() {
        let mut c: Cache<u8> = tiny(2);
        c.fill(BlockAddr(0), true, 1);
        c.access(BlockAddr(9), true);
        assert_eq!(c.dirty_blocks().len(), 2);
        c.lose_all();
        assert_eq!(c.occupancy(), 0);
        assert!(c.dirty_blocks().is_empty());
        c.access(BlockAddr(0), false);
        assert_eq!(c.get(BlockAddr(0)), None);
    }

    #[test]
    fn victims_leave_with_their_values() {
        let mut c: Cache<u8> = tiny(1);
        assert_eq!(c.fill(BlockAddr(0), true, 7).victim, None);
        let out = c.fill(BlockAddr(4), false, 8);
        assert_eq!(
            out.victim,
            Some(Victim {
                addr: BlockAddr(0),
                dirty: true,
                value: Some(7),
            })
        );
        assert_eq!(c.get(BlockAddr(4)), Some(&8));
    }

    #[test]
    fn peek_victim_names_what_the_next_miss_displaces() {
        let mut c: Cache<u8> = tiny(2);
        assert_eq!(c.peek_victim(BlockAddr(0)), None, "free way");
        c.fill(BlockAddr(0), true, 1);
        c.fill(BlockAddr(4), false, 2);
        assert_eq!(c.peek_victim(BlockAddr(4)), None, "resident");
        assert_eq!(c.peek_victim(BlockAddr(8)), Some(BlockAddr(0)));
        let before = c.stats();
        c.hit(BlockAddr(0), false);
        assert_eq!(c.peek_victim(BlockAddr(8)), Some(BlockAddr(4)), "LRU moved");
        assert_eq!(
            c.stats().accesses(),
            before.accesses() + 1,
            "peeks count nothing"
        );
        let out = c.fill(BlockAddr(8), false, 3);
        assert_eq!(out.victim.map(|v| v.addr), Some(BlockAddr(4)));
    }

    #[test]
    fn hit_touches_only_filled_lines() {
        let mut c: Cache<u8> = tiny(2);
        assert_eq!(c.hit(BlockAddr(0), false), None, "absent");
        c.access(BlockAddr(0), false);
        assert_eq!(c.hit(BlockAddr(0), true), None, "unfilled");
        assert_eq!(c.unfilled_blocks(), vec![BlockAddr(0)]);
        assert_eq!(c.stats().accesses(), 1, "a refused hit counts nothing");
        assert!(c.set(BlockAddr(0), 3));
        assert!(c.unfilled_blocks().is_empty());
        *c.hit(BlockAddr(0), true).unwrap() += 1;
        assert_eq!(c.get(BlockAddr(0)), Some(&4));
        assert!(c.probe_dirty(BlockAddr(0)));
        assert_eq!(c.stats().write_hits, 1);
        assert!(!c.set(BlockAddr(1), 9), "set never allocates");
        assert_eq!(c.stats().accesses(), 2);
    }

    #[test]
    fn hit_rate_math() {
        let mut c: Cache = tiny(2);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.access(BlockAddr(0), false);
        c.access(BlockAddr(0), false);
        c.access(BlockAddr(0), true);
        c.access(BlockAddr(0), true);
        assert!((c.stats().hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(c.stats().accesses(), 4);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn stat_register_reports_scoped() {
        let mut c: Cache = tiny(2);
        c.access(BlockAddr(0), false);
        let mut reg = triad_sim::stats::StatRegistry::new();
        c.register(&mut reg.scope("l1"));
        assert_eq!(reg.counter("l1.read_misses"), 1);
    }

    #[test]
    fn occupancy_bounded_by_capacity() {
        let mut c: Cache = tiny(2); // 8 lines total
        for i in 0..100 {
            c.access(BlockAddr(i), false);
        }
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn the_highest_block_neither_hits_nor_aliases_an_empty_line() {
        // Four sets take the mask, three the remainder.
        for sets in [4, 3] {
            let mut c: Cache<u8> = Cache::new("t", CacheConfig::new(sets * 2 * 64, 2, 1));
            let top = BlockAddr(EMPTY - 1);
            assert!(!c.probe(top) && c.get(top).is_none() && c.peek_victim(top).is_none());
            assert!(!c.access(top, true).hit);
            assert!(c.probe_dirty(top));
            let low = BlockAddr(top.0 % sets as u64);
            c.fill(low, false, 1);
            let out = c.access(BlockAddr(low.0 + sets as u64), false);
            assert_eq!(out.victim.map(|v| (v.addr, v.dirty)), Some((top, true)));
            assert_eq!(c.occupancy(), 2);
        }
    }

    #[test]
    fn the_empty_tag_is_refused_by_every_method_that_takes_a_block() {
        type Entry = fn(&mut Cache<u8>, BlockAddr) -> bool;
        let entries: [(&str, Entry); 10] = [
            ("access", |c, b| c.access(b, false).hit),
            ("fill", |c, b| c.fill(b, false, 1).hit),
            ("hit", |c, b| c.hit(b, false).is_some()),
            ("get", |c, b| c.get(b).is_some()),
            ("set", |c, b| c.set(b, 1)),
            ("peek_victim", |c, b| c.peek_victim(b).is_some()),
            ("probe", |c, b| c.probe(b)),
            ("probe_dirty", |c, b| c.probe_dirty(b)),
            ("flush", |c, b| c.flush(b)),
            ("invalidate", |c, b| c.invalidate(b).is_some()),
        ];
        for (name, entry) in entries {
            let mut c: Cache<u8> = tiny(2);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                entry(&mut c, BlockAddr(u64::MAX))
            }));
            let message = caught.expect_err(name).downcast::<&str>().ok().map(|m| *m);
            assert_eq!(
                message,
                Some("block address u64::MAX is reserved for empty cache lines"),
                "{name}"
            );
        }
    }

    #[test]
    fn latency_and_name_accessors() {
        let c: Cache = tiny(2);
        assert_eq!(c.latency(), Duration::from_cpu_cycles(1));
        assert_eq!(c.name(), "t");
    }
}
