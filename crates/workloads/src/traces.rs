//! Trace-generator forms of the persistent workloads, for the timing
//! simulator.
//!
//! [`PmdkTrace`] replays the *memory-access shape* of the paper's
//! three PMDK microbenchmarks (hashtable insert, queue push, array
//! swap): bucket/slot loads, redo-log persists and header persists,
//! without needing a live engine. [`DaxBench`] is the paper's
//! `DAXBENCH-S-RW` strided mmap workload:
//! stride `S` bytes, `RW` reads per write, writes persisted in place
//! (DAX semantics).

use triad_sim::rng::SplitMix64;
use triad_sim::trace::{MemOp, TraceSource};
use triad_sim::PhysAddr;

/// Which PMDK microbenchmark shape to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PmdkKind {
    /// Random bucket + chain walk, then transactional insert.
    Hashtable,
    /// Hot header block + sequential slots.
    Queue,
    /// Two random records swapped per transaction.
    ArraySwap,
}

impl std::fmt::Display for PmdkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmdkKind::Hashtable => write!(f, "hashtable"),
            PmdkKind::Queue => write!(f, "queue"),
            PmdkKind::ArraySwap => write!(f, "arrayswap"),
        }
    }
}

/// Synthetic PMDK-microbenchmark trace (persistent region).
#[derive(Debug, Clone)]
pub struct PmdkTrace {
    name: String,
    kind: PmdkKind,
    base: PhysAddr,
    data_blocks: u64,
    rng: SplitMix64,
    /// Queued micro-ops of the operation in flight.
    pending: Vec<MemOp>,
    seq: u64,
}

/// Blocks reserved at the start of the area for header + redo log.
const META_BLOCKS: u64 = 1 + 32;

impl PmdkTrace {
    /// Creates a trace over `area_blocks` blocks starting at `base`
    /// inside the persistent region.
    ///
    /// # Panics
    ///
    /// Panics if the area is too small to hold the log and any data.
    pub fn new(kind: PmdkKind, base: PhysAddr, area_blocks: u64, seed: u64) -> Self {
        assert!(
            area_blocks > META_BLOCKS + 8,
            "area of {area_blocks} blocks too small"
        );
        PmdkTrace {
            name: kind.to_string(),
            kind,
            base,
            data_blocks: area_blocks - META_BLOCKS,
            rng: SplitMix64::new(seed ^ 0x9d1c),
            pending: Vec::new(),
            seq: 0,
        }
    }

    fn header(&self) -> PhysAddr {
        self.base
    }

    fn log_block(&self, i: u64) -> PhysAddr {
        PhysAddr(self.base.0 + 64 + (i % 32) * 64)
    }

    fn data_block(&self, i: u64) -> PhysAddr {
        PhysAddr(self.base.0 + META_BLOCKS * 64 + (i % self.data_blocks) * 64)
    }

    /// Queues the persist sequence of one PMDK-style redo transaction:
    /// log writes, log length, commit flag, in-place writes, clear.
    fn queue_tx(&mut self, targets: &[PhysAddr]) {
        for (i, _) in targets.iter().enumerate() {
            self.pending
                .push(MemOp::persist(self.log_block(2 * i as u64), 80));
            self.pending
                .push(MemOp::persist(self.log_block(2 * i as u64 + 1), 40));
        }
        self.pending.push(MemOp::persist(self.header(), 60)); // log_len
        self.pending.push(MemOp::persist(self.header(), 30)); // commit
        for t in targets {
            self.pending.push(MemOp::persist(*t, 70));
        }
        self.pending.push(MemOp::persist(self.header(), 30)); // clear
    }

    fn start_operation(&mut self) {
        self.seq += 1;
        match self.kind {
            PmdkKind::Hashtable => {
                let bucket_idx = self.rng.gen_range(0..self.data_blocks / 4);
                let entry_idx = self.data_blocks / 4 + self.rng.gen_range(0..self.data_blocks / 2);
                let bucket = self.data_block(bucket_idx);
                let entry = self.data_block(entry_idx);
                self.pending.push(MemOp::load(bucket, 250));
                self.pending.push(MemOp::load(entry, 100));
                self.queue_tx(&[entry, bucket]);
            }
            PmdkKind::Queue => {
                let slot = self.data_block(self.seq);
                self.pending.push(MemOp::load(self.header(), 220));
                self.queue_tx(&[slot, self.header()]);
            }
            PmdkKind::ArraySwap => {
                let (ia, ib) = (self.rng.next_u64(), self.rng.next_u64());
                let a = self.data_block(ia);
                let b = self.data_block(ib);
                self.pending.push(MemOp::load(a, 200));
                self.pending.push(MemOp::load(b, 80));
                self.queue_tx(&[a, b]);
            }
        }
        // Emit in program order.
        self.pending.reverse();
    }
}

impl TraceSource for PmdkTrace {
    fn next_op(&mut self) -> Option<MemOp> {
        if self.pending.is_empty() {
            self.start_operation();
        }
        self.pending.pop()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The `DAXBENCH-S-RW` synthetic workload: a DAX-mmapped file accessed
/// with stride `S` bytes and `RW` reads per write; writes persist in
/// place.
#[derive(Debug, Clone)]
pub struct DaxBench {
    name: String,
    base: PhysAddr,
    footprint_bytes: u64,
    stride: u64,
    reads_per_write: u32,
    cursor: u64,
    phase: u32,
}

impl DaxBench {
    /// Creates `DAXBENCH-<stride>-<rw>` over `footprint_bytes` at
    /// `base` (inside the persistent region).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or the footprint smaller than one
    /// stride.
    pub fn new(base: PhysAddr, footprint_bytes: u64, stride: u64, reads_per_write: u32) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(footprint_bytes >= stride, "footprint below one stride");
        DaxBench {
            name: format!("daxbench-{stride}-{reads_per_write}"),
            base,
            footprint_bytes,
            stride,
            reads_per_write,
            cursor: 0,
            phase: 0,
        }
    }
}

impl TraceSource for DaxBench {
    fn next_op(&mut self) -> Option<MemOp> {
        let addr = PhysAddr(self.base.0 + self.cursor);
        self.cursor = (self.cursor + self.stride) % self.footprint_bytes;
        let op = if self.phase == self.reads_per_write {
            self.phase = 0;
            MemOp::persist(addr, 40)
        } else {
            self.phase += 1;
            MemOp::load(addr, 25)
        };
        Some(op)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_sim::trace::OpKind;

    #[test]
    fn pmdk_trace_emits_transactional_pattern() {
        let mut t = PmdkTrace::new(PmdkKind::Hashtable, PhysAddr(0), 1024, 1);
        // One hashtable operation = 2 loads + 9 persists
        // (4 log + log_len + commit + 2 targets + clear).
        let ops: Vec<MemOp> = (0..11).map(|_| t.next_op().unwrap()).collect();
        assert_eq!(ops[0].kind, OpKind::Load);
        assert_eq!(ops[1].kind, OpKind::Load);
        assert!(ops[2..].iter().all(|o| o.kind == OpKind::PersistentStore));
        let persists = ops.iter().filter(|o| o.kind.is_persist()).count();
        assert_eq!(persists, 9);
    }

    #[test]
    fn queue_trace_hammers_header() {
        let mut t = PmdkTrace::new(PmdkKind::Queue, PhysAddr(4096), 512, 2);
        let header_hits = (0..100)
            .filter(|_| t.next_op().unwrap().addr == PhysAddr(4096))
            .count();
        assert!(header_hits >= 30, "header touched {header_hits} times");
    }

    #[test]
    fn arrayswap_trace_touches_random_pairs() {
        let mut t = PmdkTrace::new(PmdkKind::ArraySwap, PhysAddr(0), 1024, 2);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..200 {
            distinct.insert(t.next_op().unwrap().addr.0);
        }
        assert!(distinct.len() > 20);
    }

    #[test]
    fn pmdk_addresses_stay_in_area() {
        for kind in [PmdkKind::Hashtable, PmdkKind::Queue, PmdkKind::ArraySwap] {
            let base = PhysAddr(1 << 20);
            let mut t = PmdkTrace::new(kind, base, 256, 3);
            for _ in 0..2000 {
                let op = t.next_op().unwrap();
                assert!(
                    op.addr.0 >= base.0 && op.addr.0 < base.0 + 256 * 64,
                    "{kind}"
                );
            }
        }
    }

    #[test]
    fn daxbench_stride_and_ratio() {
        let mut d = DaxBench::new(PhysAddr(0), 1 << 20, 128, 2);
        assert_eq!(d.name(), "daxbench-128-2");
        let ops: Vec<MemOp> = (0..9).map(|_| d.next_op().unwrap()).collect();
        assert_eq!(ops[1].addr.0 - ops[0].addr.0, 128);
        // Pattern: R R W repeated.
        let kinds: Vec<bool> = ops.iter().map(|o| o.kind.is_persist()).collect();
        assert_eq!(
            kinds,
            [false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn daxbench_wraps_at_footprint() {
        let mut d = DaxBench::new(PhysAddr(0), 1024, 512, 1);
        let addrs: Vec<u64> = (0..5).map(|_| d.next_op().unwrap().addr.0).collect();
        assert_eq!(addrs, [0, 512, 0, 512, 0]);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_rejected() {
        DaxBench::new(PhysAddr(0), 1024, 0, 1);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_pmdk_area_rejected() {
        PmdkTrace::new(PmdkKind::Queue, PhysAddr(0), 10, 1);
    }
}
