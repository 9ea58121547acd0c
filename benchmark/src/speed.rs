//! Host speed, measured alongside the work so host times can be scaled
//! to a reference speed.
//!
//! The benchmark's host shares its physical cores with other tenants,
//! and what they run changes by the second: the same `kv-write` round
//! can take 1.8× as long a minute later. The thread's CPU time grows
//! just as much, so the round is not waiting for a core; the core
//! itself runs slower while its shared execution units and caches are
//! busy. A dependent chain of multiplies barely slows down, while
//! general-purpose code (loads, branches, short calls, hashing) slows
//! down about as much as the simulator does.
//!
//! So between pieces of measured work a round runs a short fixed slice
//! of such code, a [`Probe::tick`]: it hashes 64 B blocks with std's
//! SipHash and sorts a small array. The median tick time of a round
//! over [`REFERENCE_TICK_S`] is the round's slowdown; a host time
//! divided by it is the time the work would have taken at the reference
//! speed. The median, not the mean: an interrupt or preemption that
//! lands in one 40 µs tick would move a mean of a dozen ticks by tens
//! of percent, while it costs a round of a hundred milliseconds next to
//! nothing. Ticks run outside every timed phase, so they add nothing to
//! the times they scale.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

use crate::metrics::median;

/// Blocks a tick hashes.
const HASHES: u64 = 1_000;
/// Elements a tick sorts.
const SORTED: u32 = 1_024;

/// One tick's wall time on an uncontended core of the reference host
/// (2-core x86-64 Intel Xeon): the speed host times are scaled to.
pub const REFERENCE_TICK_S: f64 = 42e-6;

/// Tick times of one round.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    ticks_s: Vec<f64>,
    busy_s: f64,
    sorted: Vec<u32>,
}

impl Probe {
    /// A probe that has not ticked yet.
    pub fn new() -> Probe {
        Probe::default()
    }

    /// Runs and times one slice of the reference code.
    pub fn tick(&mut self) {
        let start = Instant::now();
        let block = [0x5au8; 64];
        let mut acc = 0u64;
        for i in 0..HASHES {
            let mut h = DefaultHasher::new();
            (i, &block).hash(&mut h);
            acc ^= black_box(h.finish());
        }
        self.sorted.clear();
        self.sorted
            .extend((0..SORTED).map(|i| (i ^ acc as u32).wrapping_mul(0x9e37_79b1)));
        self.sorted.sort_unstable();
        black_box(&self.sorted);
        let tick_s = start.elapsed().as_secs_f64();
        self.busy_s += tick_s;
        self.ticks_s.push(tick_s);
    }

    /// Wall seconds spent in ticks so far.
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// Median tick time over the reference tick time: above 1 when the
    /// core ran slower than the reference, and 1 before any tick.
    pub fn slowdown(&self) -> f64 {
        if self.ticks_s.is_empty() {
            return 1.0;
        }
        median(&self.ticks_s) / REFERENCE_TICK_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_median_tick_time_over_the_reference() {
        let mut p = Probe::new();
        assert_eq!(p.slowdown(), 1.0);
        for _ in 0..3 {
            p.tick();
        }
        assert!(p.busy_s() > 0.0);
        assert_eq!(p.slowdown(), median(&p.ticks_s) / REFERENCE_TICK_S);
        // One preempted tick does not move the median.
        let before = p.slowdown();
        p.ticks_s.push(1.0);
        p.ticks_s.push(0.0);
        assert_eq!(p.slowdown(), before);
    }
}
