//! The memory controller: read servicing and the ADR write-pending
//! queue (WPQ).
//!
//! The WPQ is the paper's persistence-domain boundary (§3.2): a write
//! *accepted* into the WPQ is guaranteed durable — on power loss,
//! residual energy drains the queue. The simulator makes this concrete
//! by updating the functional store at acceptance time while the timing
//! model separately charges the drain to the PCM banks. When the WPQ is
//! full, acceptance stalls until an entry drains: this back-pressure is
//! the mechanism by which metadata-persistence write amplification
//! slows down execution (Figures 4 and 8).

use crate::store::{Block, SparseStore};
use crate::timing::{PcmTiming, RowOutcome};
use triad_sim::config::MemConfig;
use triad_sim::events::{emit, SharedEventSink};
use triad_sim::stats::{Histogram, Scope, StatRegister};
use triad_sim::time::{Duration, Time};
use triad_sim::BlockAddr;

/// Memory-controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Read requests serviced.
    pub reads: u64,
    /// Write requests accepted into the WPQ.
    pub writes: u64,
    /// Row-buffer hits (reads + writes).
    pub row_hits: u64,
    /// Row-buffer misses.
    pub row_misses: u64,
    /// Times a write found the WPQ full.
    pub wpq_full_events: u64,
    /// Writes absorbed by an already-pending WPQ entry for the same
    /// block (the queue is coherent per cacheline, so back-to-back
    /// writes to a hot metadata block cost one drain).
    pub wpq_coalesced: u64,
    /// Total time writers spent stalled on a full WPQ.
    pub wpq_stall: Duration,
    /// Reads that were forwarded from a pending WPQ entry.
    pub wpq_forwards: u64,
}

/// Memory-controller latency distributions, kept beside the flat
/// [`MemStats`] counters (which stay `Copy`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemHistograms {
    /// Time a WPQ entry spends queued, acceptance to drain (ns).
    pub wpq_residency_ns: Histogram,
    /// WPQ occupancy sampled after each acceptance.
    pub wpq_occupancy: Histogram,
    /// Bank service latency for row-buffer hits (ns).
    pub row_hit_service_ns: Histogram,
    /// Bank service latency for row-buffer misses (ns).
    pub row_miss_service_ns: Histogram,
    /// Latency of reads forwarded from the WPQ (ns).
    pub wpq_forward_ns: Histogram,
    /// How long each write waited for WPQ admission (ns; zero unless
    /// the queue was full).
    pub write_accept_delay_ns: Histogram,
}

impl StatRegister for MemHistograms {
    fn register(&self, scope: &mut Scope<'_>) {
        scope.histogram("wpq_residency_ns", &self.wpq_residency_ns);
        scope.histogram("wpq_occupancy", &self.wpq_occupancy);
        scope.histogram("row_hit_service_ns", &self.row_hit_service_ns);
        scope.histogram("row_miss_service_ns", &self.row_miss_service_ns);
        scope.histogram("wpq_forward_ns", &self.wpq_forward_ns);
        scope.histogram("write_accept_delay_ns", &self.write_accept_delay_ns);
    }
}

/// Per-block write-endurance accounting (PCM cells wear out after
/// ~10⁷–10⁸ writes; reducing metadata writes is one of the paper's
/// motivations for relaxed persistence).
#[derive(Debug, Clone, Default)]
pub struct WearTracker {
    writes: std::collections::BTreeMap<u64, u64>,
}

impl WearTracker {
    /// Records one physical write to `addr`.
    pub fn record(&mut self, addr: BlockAddr) {
        *self.writes.entry(addr.0).or_insert(0) += 1;
    }

    /// Writes absorbed by the most-written block (the wear hot spot).
    pub fn max_writes(&self) -> u64 {
        self.writes.values().copied().max().unwrap_or(0)
    }

    /// Mean writes over blocks that were written at all.
    pub fn mean_writes(&self) -> f64 {
        if self.writes.is_empty() {
            return 0.0;
        }
        self.writes.values().sum::<u64>() as f64 / self.writes.len() as f64
    }

    /// Number of distinct blocks ever written.
    pub fn blocks_touched(&self) -> usize {
        self.writes.len()
    }

    /// Wear imbalance: max over mean (1.0 = perfectly even). High
    /// values mean hot metadata blocks (counters, tree roots' children)
    /// burn out first — the case for wear levelling.
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_writes();
        if mean == 0.0 {
            0.0
        } else {
            self.max_writes() as f64 / mean
        }
    }

    /// The `n` most-written blocks, descending.
    pub fn hottest(&self, n: usize) -> Vec<(BlockAddr, u64)> {
        let mut v: Vec<(BlockAddr, u64)> = self
            .writes
            .iter()
            .map(|(a, w)| (BlockAddr(*a), *w))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        v.truncate(n);
        v
    }
}

/// The memory controller for one NVM channel.
#[derive(Debug, Clone)]
pub struct MemoryController {
    config: MemConfig,
    store: SparseStore,
    timing: PcmTiming,
    /// Pending WPQ entries: `(drain completion, address)`.
    wpq: Vec<(Time, BlockAddr)>,
    stats: MemStats,
    hists: MemHistograms,
    /// Structured event tracing; `None` (the default) costs nothing.
    events: Option<SharedEventSink>,
    wear: WearTracker,
}

impl MemoryController {
    /// Creates a controller over an empty store.
    pub fn new(config: MemConfig) -> Self {
        MemoryController {
            config,
            store: SparseStore::new(),
            timing: PcmTiming::new(config),
            wpq: Vec::new(),
            stats: MemStats::default(),
            hists: MemHistograms::default(),
            events: None,
            wear: WearTracker::default(),
        }
    }

    /// The memory configuration in force.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Accumulated latency distributions.
    pub fn histograms(&self) -> &MemHistograms {
        &self.hists
    }

    /// Routes structured events (WPQ enqueue/drain/coalesce/stall)
    /// into `sink`. Tracing is off until this is called.
    pub fn set_event_sink(&mut self, sink: SharedEventSink) {
        self.events = Some(sink);
    }

    /// Direct access to the functional NVM image (the attacker's and
    /// the recovery procedure's view).
    pub fn store(&self) -> &SparseStore {
        &self.store
    }

    /// Mutable access to the NVM image, for tamper injection and for
    /// recovery-time rebuilds.
    pub fn store_mut(&mut self) -> &mut SparseStore {
        &mut self.store
    }

    /// The time at which the WPQ will have drained to at most
    /// `occupancy` pending entries, assuming no further writes arrive
    /// ([`Time::ZERO`] when it is already there). Burst writers — the
    /// engine's batched metadata commit — use this to model the
    /// controller holding off new core traffic until the queue is back
    /// under its high-water mark, instead of letting the next
    /// unrelated write-back eat the stall.
    pub fn wpq_settle_time(&self, occupancy: usize) -> Time {
        if self.wpq.len() <= occupancy {
            return Time::ZERO;
        }
        let mut dones: Vec<Time> = self.wpq.iter().map(|(done, _)| *done).collect();
        dones.sort_unstable();
        dones[self.wpq.len() - occupancy - 1]
    }

    fn drain_completed(&mut self, now: Time) {
        if self.events.is_some() {
            // Stamp each drain with its own completion time, not `now`,
            // so the trace is independent of when we happened to look.
            for (done, addr) in self.wpq.iter().filter(|(done, _)| *done <= now) {
                emit(&self.events, *done, "wpq_drain", &[("addr", addr.0.into())]);
            }
        }
        self.wpq.retain(|(done, _)| *done > now);
    }

    /// Services a read at `now`; returns the data and its completion
    /// time. Reads matching a pending WPQ entry are forwarded at
    /// controller latency without touching the banks.
    pub fn read(&mut self, addr: BlockAddr, now: Time) -> (Block, Time) {
        self.drain_completed(now);
        self.stats.reads += 1;
        let data = self.store.read(addr);
        if self.wpq.iter().any(|(_, a)| *a == addr) {
            self.stats.wpq_forwards += 1;
            let done = now + self.config.t_cl;
            self.hists.wpq_forward_ns.record(done.since(now).as_ns());
            return (data, done);
        }
        let (done, row) = self.timing.service(addr, false, now);
        let service_ns = done.since(now).as_ns();
        match row {
            RowOutcome::Hit => {
                self.stats.row_hits += 1;
                self.hists.row_hit_service_ns.record(service_ns);
            }
            RowOutcome::Miss => {
                self.stats.row_misses += 1;
                self.hists.row_miss_service_ns.record(service_ns);
            }
        }
        (data, done)
    }

    /// Accepts a write into the WPQ at (or after) `now`; returns the
    /// time the write is *durable* (accepted into the persistence
    /// domain). If the queue is full, acceptance stalls until an entry
    /// drains.
    pub fn write(&mut self, addr: BlockAddr, data: Block, now: Time) -> Time {
        self.drain_completed(now);
        // Coalesce into a pending entry: the queued drain will write
        // the updated bytes, so the new write is durable immediately.
        if self.wpq.iter().any(|(_, a)| *a == addr) {
            self.stats.wpq_coalesced += 1;
            self.store.write(addr, data);
            emit(
                &self.events,
                now,
                "wpq_coalesce",
                &[("addr", addr.0.into())],
            );
            return now;
        }
        let mut accept = now;
        if self.wpq.len() >= self.config.wpq_entries {
            self.stats.wpq_full_events += 1;
            // A full queue is non-empty, so `min` exists; falling back
            // to `now` just means no stall if that ever breaks.
            let earliest = self.wpq.iter().map(|(done, _)| *done).min().unwrap_or(now);
            accept = accept.max(earliest);
            self.stats.wpq_stall += accept.since(now);
            emit(
                &self.events,
                now,
                "wpq_stall",
                &[("addr", addr.0.into()), ("until_ps", accept.as_ps().into())],
            );
            self.drain_completed(accept);
        }
        self.stats.writes += 1;
        self.hists
            .write_accept_delay_ns
            .record(accept.since(now).as_ns());
        self.wear.record(addr);
        // Durable on acceptance (ADR), drained to the array afterwards.
        self.store.write(addr, data);
        let (done, row) = self.timing.service(addr, true, accept);
        match row {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Miss => self.stats.row_misses += 1,
        }
        self.wpq.push((done, addr));
        self.hists
            .wpq_residency_ns
            .record(done.since(accept).as_ns());
        self.hists.wpq_occupancy.record(self.wpq.len() as u64);
        emit(
            &self.events,
            accept,
            "wpq_enqueue",
            &[
                ("addr", addr.0.into()),
                ("occupancy", self.wpq.len().into()),
                ("drain_at_ps", done.as_ps().into()),
            ],
        );
        accept
    }

    /// Per-block wear statistics (physical drains only; coalesced
    /// writes wear nothing).
    pub fn wear(&self) -> &WearTracker {
        &self.wear
    }

    /// Current WPQ occupancy at `now`.
    pub fn wpq_occupancy(&mut self, now: Time) -> usize {
        self.drain_completed(now);
        self.wpq.len()
    }

    /// Simulates a power loss: the WPQ's contents are already durable
    /// (written at acceptance), so only the queue bookkeeping clears.
    /// [`MemoryController::store`] is then the NVM image as it would be
    /// found at reboot.
    pub fn crash(&mut self) {
        self.wpq.clear();
    }
}

impl StatRegister for MemStats {
    fn register(&self, scope: &mut Scope<'_>) {
        scope.set("reads", self.reads);
        scope.set("writes", self.writes);
        scope.set("row_hits", self.row_hits);
        scope.set("row_misses", self.row_misses);
        scope.set("wpq_full_events", self.wpq_full_events);
        scope.set("wpq_coalesced", self.wpq_coalesced);
        scope.set("wpq_stall_ns", self.wpq_stall.as_ns());
        scope.set("wpq_forwards", self.wpq_forwards);
    }
}

impl StatRegister for MemoryController {
    fn register(&self, scope: &mut Scope<'_>) {
        self.stats.register(scope);
        self.hists.register(scope);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_sim::config::SystemConfig;

    fn mc() -> MemoryController {
        MemoryController::new(SystemConfig::tiny().mem) // 16-entry WPQ
    }

    #[test]
    fn write_then_read_returns_data() {
        let mut m = mc();
        let t = m.write(BlockAddr(1), [9; 64], Time::ZERO);
        let (data, done) = m.read(BlockAddr(1), t);
        assert_eq!(data, [9; 64]);
        assert!(done > t);
    }

    #[test]
    fn wpq_forwarding_is_fast() {
        let mut m = mc();
        m.write(BlockAddr(1), [9; 64], Time::ZERO);
        // Read immediately: the write is still draining, so it forwards.
        let (_, done) = m.read(BlockAddr(1), Time::ZERO);
        assert_eq!(done, Time::ZERO + m.config().t_cl);
        assert_eq!(m.stats().wpq_forwards, 1);
    }

    #[test]
    fn wpq_fills_and_stalls() {
        let mut m = mc();
        let entries = m.config().wpq_entries;
        let mut t = Time::ZERO;
        // Hammer one bank so drains serialise; all writes at time zero.
        for i in 0..(entries as u64 + 4) {
            t = m.write(BlockAddr(i * 64), [1; 64], Time::ZERO);
        }
        assert!(m.stats().wpq_full_events >= 4);
        assert!(m.stats().wpq_stall > Duration::ZERO);
        assert!(t > Time::ZERO, "later writes accepted after stalls");
    }

    #[test]
    fn wpq_drains_over_time() {
        let mut m = mc();
        m.write(BlockAddr(1), [1; 64], Time::ZERO);
        assert_eq!(m.wpq_occupancy(Time::ZERO), 1);
        assert_eq!(m.wpq_occupancy(Time::from_ns(10_000)), 0);
    }

    #[test]
    fn accepted_write_survives_crash() {
        let mut m = mc();
        m.write(BlockAddr(7), [3; 64], Time::ZERO);
        m.crash();
        assert_eq!(m.store().read(BlockAddr(7)), [3; 64]);
        assert_eq!(m.wpq_occupancy(Time::ZERO), 0);
    }

    #[test]
    fn reads_and_writes_counted() {
        let mut m = mc();
        m.write(BlockAddr(1), [1; 64], Time::ZERO);
        m.read(BlockAddr(2), Time::from_ns(10_000));
        let s = m.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.row_hits + s.row_misses, 2);
    }

    #[test]
    fn wear_tracking_counts_physical_drains_only() {
        let mut m = mc();
        // Three back-to-back writes to one block: 1 physical + 2 coalesced.
        for fill in 1..=3u8 {
            m.write(BlockAddr(9), [fill; 64], Time::ZERO);
        }
        m.write(BlockAddr(10), [1; 64], Time::ZERO);
        let w = m.wear();
        assert_eq!(w.max_writes(), 1, "coalesced writes wear nothing");
        assert_eq!(w.blocks_touched(), 2);
        assert_eq!(w.hottest(1)[0].1, 1);
        assert!((w.mean_writes() - 1.0).abs() < 1e-9);
        assert!((w.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wear_hot_spot_identified() {
        let mut m = mc();
        let mut now = Time::ZERO;
        for i in 0..40u64 {
            // Block 5 written every round far apart in time (no
            // coalescing); others once.
            now += Duration::from_us(100);
            m.write(BlockAddr(5), [i as u8 + 1; 64], now);
            m.write(BlockAddr(100 + i), [1; 64], now);
        }
        let w = m.wear();
        assert_eq!(w.hottest(1)[0].0, BlockAddr(5));
        assert!(w.imbalance() > 10.0, "imbalance = {}", w.imbalance());
    }

    #[test]
    fn wear_of_a_hammered_block_stays_on_that_block() {
        // Writes far apart in time never coalesce, and the controller
        // does no wear levelling: every one lands on the same cell.
        let mut m = mc();
        let mut now = Time::ZERO;
        for i in 0..2000u64 {
            now += Duration::from_us(5);
            m.write(BlockAddr(3), [i as u8; 64], now);
        }
        let w = m.wear();
        assert_eq!(w.blocks_touched(), 1);
        assert_eq!(w.max_writes(), 2000);
    }

    #[test]
    fn stat_register_report() {
        let mut m = mc();
        m.write(BlockAddr(1), [1; 64], Time::ZERO);
        let mut reg = triad_sim::stats::StatRegistry::new();
        m.register(&mut reg.scope("mem"));
        assert_eq!(reg.counter("mem.writes"), 1);
        let occ = reg.histogram("mem.wpq_occupancy").expect("occupancy");
        assert_eq!(occ.count(), 1);
        assert_eq!(occ.max(), 1);
        assert!(reg.histogram("mem.wpq_residency_ns").expect("res").min() > 0);
    }

    #[test]
    fn wpq_accepts_exactly_capacity_before_stalling() {
        // Pins the ISSUE-3 boundary question: the controller *should*
        // accept `wpq_entries` writes without stalling and stall on
        // write `wpq_entries + 1`. The pre-existing check
        // (`len() >= wpq_entries` tested before pushing) already did
        // exactly that — this test pins the behaviour so an off-by-one
        // can never creep in silently.
        let mut m = mc();
        let entries = m.config().wpq_entries as u64;
        // Distinct rows of one bank: drains serialise, nothing
        // completes at time zero, nothing coalesces.
        for i in 0..entries {
            let accept = m.write(BlockAddr(i * 64), [1; 64], Time::ZERO);
            assert_eq!(accept, Time::ZERO, "write {i} must not stall");
        }
        assert_eq!(m.stats().wpq_full_events, 0, "queue holds exactly capacity");
        assert_eq!(m.stats().wpq_stall, Duration::ZERO);
        assert_eq!(m.wpq_occupancy(Time::ZERO), entries as usize);

        let accept = m.write(BlockAddr(entries * 64), [1; 64], Time::ZERO);
        assert_eq!(m.stats().wpq_full_events, 1, "entry N+1 finds it full");
        assert!(accept > Time::ZERO, "entry N+1 stalls until a drain");
        assert!(m.stats().wpq_stall > Duration::ZERO);
    }

    #[test]
    fn crash_persists_exactly_the_accepted_writes() {
        // ADR semantics: every write *accepted* into the WPQ is inside
        // the persistence domain, including entries still queued at
        // power loss — and nothing else reaches the image.
        let mut m = mc();
        let entries = m.config().wpq_entries as u64;
        let n = entries + 4; // forces stalls; later writes queue behind
        for i in 0..n {
            m.write(BlockAddr(i * 64), [i as u8 + 1; 64], Time::ZERO);
        }
        assert!(m.wpq_occupancy(Time::ZERO) > 0, "entries still pending");
        m.crash();
        let image = m.store();
        let mut found: Vec<u64> = image.iter().map(|(a, _)| a.0).collect();
        found.sort_unstable();
        let expected: Vec<u64> = (0..n).map(|i| i * 64).collect();
        assert_eq!(found, expected, "image holds exactly the accepted writes");
        for i in 0..n {
            assert_eq!(image.read(BlockAddr(i * 64)), [i as u8 + 1; 64]);
        }
        assert_eq!(m.wpq_occupancy(Time::ZERO), 0, "queue bookkeeping cleared");
    }

    #[test]
    fn event_sink_records_wpq_lifecycle() {
        use std::io;
        use std::sync::{Arc, Mutex};

        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut m = mc();
        m.set_event_sink(triad_sim::events::EventSink::shared(Box::new(SharedBuf(
            buf.clone(),
        ))));
        m.write(BlockAddr(1), [1; 64], Time::ZERO);
        m.write(BlockAddr(1), [2; 64], Time::ZERO); // coalesces
        m.wpq_occupancy(Time::from_ns(100_000)); // drains
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"event\":\"wpq_enqueue\""), "{text}");
        assert!(text.contains("\"event\":\"wpq_coalesce\""), "{text}");
        assert!(text.contains("\"event\":\"wpq_drain\""), "{text}");
        for line in text.lines() {
            assert!(line.starts_with("{\"t_ps\":") && line.ends_with('}'));
        }
    }

    #[test]
    fn read_after_drain_touches_banks() {
        let mut m = mc();
        m.write(BlockAddr(1), [1; 64], Time::ZERO);
        let late = Time::from_ns(100_000);
        let (_, done) = m.read(BlockAddr(1), late);
        // Row already open from the drain → hit latency, not forwarding.
        assert_eq!(m.stats().wpq_forwards, 0);
        assert!(done > late);
    }
}
