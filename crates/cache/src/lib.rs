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

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU timestamp: the access order of the line's last touch.
    stamp: u64,
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
#[derive(Debug, Clone)]
pub struct Cache<V = ()> {
    name: String,
    sets: usize,
    ways: usize,
    latency: Duration,
    lines: Vec<Line>,
    /// Each line's value, index-parallel to `lines`.
    values: Vec<Option<V>>,
    clock: u64,
    stats: CacheStats,
}

impl<V> Cache<V> {
    /// Creates an LRU cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configured size is not an exact number of sets
    /// (see [`CacheConfig::sets`]).
    pub fn new(name: impl Into<String>, config: CacheConfig) -> Self {
        let sets = config.sets();
        let lines = sets * config.ways;
        Cache {
            name: name.into(),
            sets,
            ways: config.ways,
            latency: config.latency,
            lines: vec![Line::default(); lines],
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

    fn set_of(&self, block: BlockAddr) -> usize {
        (block.0 % self.sets as u64) as usize
    }

    /// Index of `block`'s line, if it is resident.
    fn find(&self, block: BlockAddr) -> Option<usize> {
        let base = self.set_of(block) * self.ways;
        self.lines[base..base + self.ways]
            .iter()
            .position(|l| l.valid && l.tag == block.0)
            .map(|way| base + way)
    }

    /// Records a hit on line `i`.
    fn touch(&mut self, i: usize, write: bool) {
        self.clock += 1;
        let line = &mut self.lines[i];
        line.stamp = self.clock;
        line.dirty |= write;
        if write {
            self.stats.write_hits += 1;
        } else {
            self.stats.read_hits += 1;
        }
    }

    /// Index of the line a miss on `block` allocates: a free way of its
    /// set, else the least recently used one.
    fn replacement_line(&self, block: BlockAddr) -> usize {
        let base = self.set_of(block) * self.ways;
        let set = &self.lines[base..base + self.ways];
        let way = match set.iter().position(|l| !l.valid) {
            Some(free) => free,
            None => set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.stamp)
                .map(|(i, _)| i)
                .expect("ways >= 1"),
        };
        base + way
    }

    /// Allocates an unfilled line for `block` (a miss), returning its
    /// index and the block it displaced.
    fn allocate(&mut self, block: BlockAddr, write: bool) -> (usize, Option<Victim<V>>) {
        self.clock += 1;
        let i = self.replacement_line(block);
        let old = self.lines[i];
        let value = self.values[i].take();
        let victim = old.valid.then_some(Victim {
            addr: BlockAddr(old.tag),
            dirty: old.dirty,
            value,
        });
        self.lines[i] = Line {
            tag: block.0,
            valid: true,
            dirty: write,
            stamp: self.clock,
        };
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
        match self.find(block) {
            Some(i) => {
                self.touch(i, write);
                let out = AccessOutcome {
                    hit: true,
                    victim: None,
                };
                (i, out)
            }
            None => {
                let (i, victim) = self.allocate(block, write);
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
        if self.find(block).is_some() {
            return None;
        }
        let line = &self.lines[self.replacement_line(block)];
        line.valid.then_some(BlockAddr(line.tag))
    }

    /// Whether `block` is present, without disturbing replacement state
    /// or statistics.
    pub fn probe(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// Whether `block` is present *and dirty*.
    pub fn probe_dirty(&self, block: BlockAddr) -> bool {
        self.find(block).is_some_and(|i| self.lines[i].dirty)
    }

    /// Writes back `block` if present and dirty (clwb semantics: the
    /// line stays valid, keeps its value and becomes clean). Returns
    /// whether a write-back was generated.
    pub fn flush(&mut self, block: BlockAddr) -> bool {
        match self.find(block) {
            Some(i) if self.lines[i].dirty => {
                self.lines[i].dirty = false;
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
        let dirty = self.lines[i].dirty;
        self.lines[i] = Line::default();
        self.values[i] = None;
        Some(dirty)
    }

    /// Drops every line and its value (a power loss: volatile contents
    /// vanish). Dirty lines are *lost*, not written back — that is the
    /// point of the paper's crash experiments.
    pub fn lose_all(&mut self) {
        self.lines.fill(Line::default());
        self.values.fill_with(|| None);
    }

    /// Returns all dirty blocks (used by orderly shutdown and by tests).
    pub fn dirty_blocks(&self) -> Vec<BlockAddr> {
        self.lines
            .iter()
            .filter(|l| l.valid && l.dirty)
            .map(|l| BlockAddr(l.tag))
            .collect()
    }

    /// Returns every resident block whose line holds no value.
    pub fn unfilled_blocks(&self) -> Vec<BlockAddr> {
        self.lines
            .iter()
            .zip(&self.values)
            .filter(|(l, v)| l.valid && v.is_none())
            .map(|(l, _)| BlockAddr(l.tag))
            .collect()
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
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
    fn latency_and_name_accessors() {
        let c: Cache = tiny(2);
        assert_eq!(c.latency(), Duration::from_cpu_cycles(1));
        assert_eq!(c.name(), "t");
    }
}
