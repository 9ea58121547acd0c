//! The multi-core trace-driven driver (the gem5 substitute).
//!
//! Each core replays a [`TraceSource`] through private L1/L2 caches
//! into the shared [`SecureMemory`] (L3 + security engine + NVM).
//! Cores advance in simulated-time order, so contention on the shared
//! L3, metadata caches, banks and WPQ emerges naturally. The core
//! model is in-order with a store buffer: loads block until data
//! returns, plain stores retire at L1 latency, persistent stores block
//! until the whole update set is durable — the paper's effects all
//! live below the caches, so this simple model preserves them.

use triad_cache::Cache;
use triad_sim::config::SystemConfig;
use triad_sim::stats::{Histogram, StatRegistry};
use triad_sim::time::Time;
use triad_sim::trace::{MemOp, OpKind, TraceSource};
use triad_sim::{BlockAddr, BLOCK_BYTES};

use crate::engine::{Result, SecureMemory};

/// Per-core execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreStats {
    /// Workload name.
    pub name: String,
    /// Instructions retired (memory ops + gaps).
    pub instructions: u64,
    /// Memory operations replayed.
    pub ops: u64,
    /// The core's local time when it finished.
    pub finish_time: Time,
    /// Per-operation latency distribution, in nanoseconds (gap time
    /// excluded: the memory-system component only).
    pub latency_ns: Histogram,
}

/// Result of a [`System::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct SystemResult {
    /// Per-core outcomes.
    pub cores: Vec<CoreStats>,
    /// The hierarchical registry: every component's counters and
    /// latency histograms, plus the merged per-core `core.latency_ns`.
    pub registry: StatRegistry,
    /// Total NVM writes performed (the Figure 9 metric).
    pub nvm_writes: u64,
}

impl SystemResult {
    /// System throughput: total instructions over the longest core's
    /// time (the Figure 4/8 metric, compared across schemes).
    pub fn throughput(&self) -> f64 {
        let wall = self
            .cores
            .iter()
            .map(|c| c.finish_time)
            .max()
            .unwrap_or(Time::ZERO)
            .as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            self.cores.iter().map(|c| c.instructions).sum::<u64>() as f64 / wall
        }
    }
}

struct CoreState {
    l1: Cache,
    l2: Cache,
    trace: Box<dyn TraceSource>,
    time: Time,
    instructions: u64,
    ops: u64,
    done: bool,
    latency_ns: Histogram,
    /// Write-combining buffer for consecutive persistent stores (only
    /// used when [`System::set_persist_batch`] enabled a window).
    wc_buffer: Vec<(BlockAddr, [u8; BLOCK_BYTES])>,
}

/// A complete simulated machine: N cores over one [`SecureMemory`].
pub struct System {
    config: SystemConfig,
    secure: SecureMemory,
    cores: Vec<CoreState>,
    /// Persist write-combining window (0 = scalar persists, the
    /// default); see [`System::set_persist_batch`].
    persist_batch_window: usize,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("scheme", &self.secure.scheme())
            .finish_non_exhaustive()
    }
}

/// Deterministic filler for store values (workload traces carry no
/// payloads; the pattern still exercises the full crypto path).
fn synth_data(block: BlockAddr, seq: u64) -> [u8; BLOCK_BYTES] {
    let mut out = [0u8; BLOCK_BYTES];
    let mut x = block.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq;
    for chunk in out.chunks_mut(8) {
        x = x.rotate_left(13).wrapping_mul(0xA24B_AED4_963E_E407);
        chunk.copy_from_slice(&x.to_le_bytes());
    }
    out
}

impl System {
    /// Builds a system running one trace per core over `secure`.
    ///
    /// # Panics
    ///
    /// Panics if more traces than configured cores are supplied.
    pub fn new(secure: SecureMemory, traces: Vec<Box<dyn TraceSource>>) -> Self {
        let config = *secure.config();
        assert!(
            traces.len() <= config.cores,
            "{} traces for {} cores",
            traces.len(),
            config.cores
        );
        let cores = traces
            .into_iter()
            .enumerate()
            .map(|(i, trace)| CoreState {
                l1: Cache::new(format!("l1.{i}"), config.l1),
                l2: Cache::new(format!("l2.{i}"), config.l2),
                trace,
                time: Time::ZERO,
                instructions: 0,
                ops: 0,
                done: false,
                latency_ns: Histogram::new(),
                wc_buffer: Vec::new(),
            })
            .collect();
        System {
            config,
            secure,
            cores,
            persist_batch_window: 0,
        }
    }

    /// Enables write-combining of persistent stores: up to `window`
    /// *consecutive* `PersistentStore` ops per core buffer on chip and
    /// drain through one [`SecureMemory::persist_batch`] (shared
    /// prefetch plan and coalesced metadata commit). Any other memory
    /// operation acts as a barrier and drains the buffer first, as
    /// does the end of the core's trace.
    ///
    /// This trades the *relaxed-persistency* window for throughput:
    /// buffered stores retire at L1 latency and only become durable at
    /// the next drain — the epoch-style contract of a write-combining
    /// buffer below the sfence, not the per-op durability of the
    /// scalar path. Core time still advances by the full drain cost
    /// (the win is coalescing, not free persists); drain time is
    /// charged between ops, so per-op latency histograms report the
    /// op itself. `window = 0` restores scalar per-op persists (the
    /// default).
    pub fn set_persist_batch(&mut self, window: usize) {
        self.persist_batch_window = window;
    }

    /// Drains core `idx`'s persist write-combining buffer as one
    /// batch, advancing the core's clock to the drain's completion.
    fn flush_persist_buffer(&mut self, idx: usize) -> Result<()> {
        let core = &mut self.cores[idx];
        if core.wc_buffer.is_empty() {
            return Ok(());
        }
        let done = self.secure.persist_batch(&core.wc_buffer, core.time);
        core.wc_buffer.clear();
        let done = done?;
        // The burst just queued a batch worth of NVM writes; hold the
        // core until the WPQ is back under its high-water mark so the
        // next unrelated write-back doesn't absorb the stall.
        let headroom = self.secure.config.mem.wpq_entries / 2;
        core.time = done.max(self.secure.mc.wpq_settle_time(headroom));
        Ok(())
    }

    /// The shared secure memory (inspection between runs).
    pub fn secure(&self) -> &SecureMemory {
        &self.secure
    }

    /// Consumes the system, returning the secure memory (e.g. to crash
    /// and recover it after a run).
    pub fn into_secure(self) -> SecureMemory {
        self.secure
    }

    fn step_core(&mut self, idx: usize, op: MemOp) -> Result<()> {
        // A full window drains before accepting another member, and any
        // non-persist op is a barrier (its ordering must not overtake
        // buffered durability). Draining here, before the op's issue
        // time is computed, keeps the drain out of the op's latency.
        let window = self.persist_batch_window;
        if window > 0 {
            let buffered = self.cores[idx].wc_buffer.len();
            if buffered > 0 && (op.kind != OpKind::PersistentStore || buffered >= window) {
                self.flush_persist_buffer(idx)?;
            }
        }
        let base_cpi = self.config.core.base_cpi_ps;
        let core = &mut self.cores[idx];
        let block = op.addr.block();
        let mut t = core.time + triad_sim::time::Duration::from_ps(op.gap as u64 * base_cpi);
        let issue = t;
        core.instructions += op.instruction_count();
        core.ops += 1;

        // Private-cache victims that need to travel downstream.
        let mut l2_fills: Vec<(BlockAddr, bool)> = Vec::new();
        let mut secure_stores: Vec<BlockAddr> = Vec::new();

        match op.kind {
            OpKind::Load | OpKind::Store => {
                let write = op.kind == OpKind::Store;
                let l1_out = core.l1.access(block, write);
                if let Some(v) = l1_out.victim {
                    l2_fills.push((v.addr, v.dirty));
                }
                if l1_out.hit {
                    t += core.l1.latency();
                } else {
                    let l2_out = core.l2.access(block, false);
                    if let Some(v) = l2_out.victim {
                        if v.dirty {
                            secure_stores.push(v.addr);
                        }
                    }
                    if l2_out.hit {
                        t += core.l1.latency() + core.l2.latency();
                    } else {
                        // Shared L3 + security engine.
                        let (_, done) = self.secure.load_block(block, t)?;
                        t = done;
                    }
                }
                if write {
                    // Redundant for the hit path, but keeps the L1
                    // line dirty after a miss fill as well.
                    core.l1.access(block, true);
                }
            }
            OpKind::PersistentStore => {
                // store; clwb; sfence — blocks until durable (or, with
                // a persist-batch window, until buffered: durability
                // then arrives at the next drain).
                core.l1.access(block, true);
                core.l1.flush(block);
                core.l2.flush(block);
                let data = synth_data(block, core.ops);
                if window > 0 {
                    core.wc_buffer.push((block, data));
                    t += core.l1.latency();
                } else {
                    let done = self.secure.persist_block(block, data, t)?;
                    t = done;
                }
            }
            OpKind::Flush => {
                let dirty_l1 = core.l1.flush(block);
                let dirty_l2 = core.l2.flush(block);
                if dirty_l1 || dirty_l2 {
                    let data = synth_data(block, core.ops);
                    self.secure.store_block(block, data, t)?;
                }
                let done = self.secure.flush_block(block, t)?;
                t = done;
            }
        }

        // Drain private-cache victims downstream (off the critical
        // path: they consume bandwidth but don't stall the core).
        for (addr, dirty) in l2_fills {
            let out = core.l2.access(addr, dirty);
            if let Some(v) = out.victim {
                if v.dirty {
                    secure_stores.push(v.addr);
                }
            }
        }
        let seq = core.ops;
        core.latency_ns.record(t.since(issue).as_ns());
        core.time = t;
        for addr in secure_stores {
            let data = synth_data(addr, seq);
            self.secure.store_block(addr, data, t)?;
        }
        Ok(())
    }

    /// Runs every core for up to `ops_per_core` memory operations (or
    /// until its trace ends), interleaved in time order. Returns the
    /// aggregate result.
    ///
    /// # Errors
    ///
    /// Propagates any [`crate::SecureMemoryError`] raised by the
    /// engine (integrity violations, out-of-range traces, …).
    pub fn run(&mut self, ops_per_core: u64) -> Result<SystemResult> {
        // Advance the earliest non-finished core until all are done.
        while let Some(idx) = self
            .cores
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.done)
            .min_by_key(|(_, c)| c.time)
            .map(|(i, _)| i)
        {
            if self.cores[idx].ops >= ops_per_core {
                self.cores[idx].done = true;
                self.flush_persist_buffer(idx)?;
                continue;
            }
            match self.cores[idx].trace.next_op() {
                None => {
                    self.cores[idx].done = true;
                    self.flush_persist_buffer(idx)?;
                }
                Some(op) => {
                    self.step_core(idx, op)?;
                }
            }
        }
        let cores = self
            .cores
            .iter()
            .map(|c| CoreStats {
                name: c.trace.name().to_string(),
                instructions: c.instructions,
                ops: c.ops,
                finish_time: c.time,
                latency_ns: c.latency_ns.clone(),
            })
            .collect();
        let mut registry = self.secure.stat_registry();
        {
            let mut core_scope = registry.scope("core");
            for c in &self.cores {
                core_scope.histogram("latency_ns", &c.latency_ns);
            }
        }
        Ok(SystemResult {
            cores,
            nvm_writes: self.secure.mem_stats().writes,
            registry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SecureMemoryBuilder;
    use crate::scheme::PersistScheme;
    use triad_sim::trace::VecTrace;
    use triad_sim::PhysAddr;

    fn mem(scheme: PersistScheme) -> SecureMemory {
        SecureMemoryBuilder::new().scheme(scheme).build().unwrap()
    }

    fn simple_trace(name: &str, base: PhysAddr, n: u64, persist: bool) -> Box<dyn TraceSource> {
        let ops = (0..n)
            .map(|i| {
                let addr = PhysAddr(base.0 + (i % 64) * 64);
                if persist {
                    MemOp::persist(addr, 10)
                } else if i % 2 == 0 {
                    MemOp::store(addr, 10)
                } else {
                    MemOp::load(addr, 10)
                }
            })
            .collect();
        Box::new(VecTrace::new(name, ops))
    }

    #[test]
    fn runs_a_simple_workload() {
        let m = mem(PersistScheme::triad_nvm(1));
        let np = m.non_persistent_region().start();
        let mut sys = System::new(m, vec![simple_trace("t", np, 100, false)]);
        let r = sys.run(100).unwrap();
        assert_eq!(r.cores[0].ops, 100);
        assert!(r.cores[0].instructions >= 100);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn persists_slow_execution_down() {
        let run = |scheme| {
            let m = mem(scheme);
            let p = m.persistent_region().start();
            let mut sys = System::new(m, vec![simple_trace("p", p, 200, true)]);
            sys.run(200).unwrap().cores[0].finish_time
        };
        let strict = run(PersistScheme::Strict);
        let t1 = run(PersistScheme::triad_nvm(1));
        assert!(
            strict > t1,
            "strict ({strict}) must be slower than TriadNVM-1 ({t1})"
        );
    }

    #[test]
    fn scheme_changes_metadata_write_counts() {
        // Physical NVM writes can coalesce in the WPQ, so compare the
        // logical metadata writes each scheme issues.
        let writes = |scheme| {
            let m = mem(scheme);
            let p = m.persistent_region().start();
            let mut sys = System::new(m, vec![simple_trace("p", p, 200, true)]);
            sys.run(200)
                .unwrap()
                .registry
                .counter("secure.persist_metadata_writes")
        };
        let strict = writes(PersistScheme::Strict);
        let t1 = writes(PersistScheme::triad_nvm(1));
        let t2 = writes(PersistScheme::triad_nvm(2));
        assert!(strict > t2, "strict {strict} > t2 {t2}");
        assert!(t2 > t1, "t2 {t2} > t1 {t1}");
    }

    #[test]
    fn multiple_cores_interleave() {
        let m = mem(PersistScheme::triad_nvm(1));
        let np = m.non_persistent_region().start();
        let p = m.persistent_region().start();
        let mut sys = System::new(
            m,
            vec![
                simple_trace("a", np, 50, false),
                simple_trace("b", p, 50, true),
            ],
        );
        let r = sys.run(50).unwrap();
        assert_eq!(r.cores.len(), 2);
        assert!(r.cores.iter().all(|c| c.ops == 50));
        assert!(r.registry.counter("secure.persists") >= 50);
    }

    #[test]
    fn persist_batching_coalesces_metadata_writes() {
        let run = |window: usize| {
            let m = mem(PersistScheme::triad_nvm(2));
            let p = m.persistent_region().start();
            let mut sys = System::new(m, vec![simple_trace("p", p, 200, true)]);
            sys.set_persist_batch(window);
            let r = sys.run(200).unwrap();
            assert_eq!(r.cores[0].ops, 200);
            (
                r.registry.counter("secure.persist_metadata_writes"),
                r.registry.counter("secure.persists"),
                r.registry.counter("secure.batches"),
            )
        };
        let (scalar_meta, scalar_persists, scalar_batches) = run(0);
        let (batched_meta, batched_persists, batched_batches) = run(8);
        // Every scalar persist is a batch of one.
        assert_eq!(scalar_batches, scalar_persists);
        assert!(batched_batches >= 200 / 8, "batches: {batched_batches}");
        // Every store is still a durability point...
        assert_eq!(batched_persists, scalar_persists);
        // ...but shared counter/MAC/BMT blocks commit once per drain.
        assert!(
            batched_meta < scalar_meta,
            "batched {batched_meta} must coalesce below scalar {scalar_meta}"
        );
    }

    #[test]
    fn persist_batching_survives_crash_recovery() {
        let m = mem(PersistScheme::triad_nvm(3));
        let p = m.persistent_region().start();
        let mut sys = System::new(m, vec![simple_trace("p", p, 96, true)]);
        sys.set_persist_batch(8);
        sys.run(96).unwrap();
        let mut m = sys.into_secure();
        m.crash();
        assert!(m.recover().unwrap().persistent_recovered);
    }

    #[test]
    fn trace_exhaustion_stops_early() {
        let m = mem(PersistScheme::triad_nvm(1));
        let np = m.non_persistent_region().start();
        let mut sys = System::new(m, vec![simple_trace("t", np, 10, false)]);
        let r = sys.run(1000).unwrap();
        assert_eq!(r.cores[0].ops, 10);
    }

    #[test]
    #[should_panic(expected = "traces for")]
    fn too_many_traces_panics() {
        let m = mem(PersistScheme::triad_nvm(1));
        let np = m.non_persistent_region().start();
        let traces: Vec<Box<dyn TraceSource>> = (0..9)
            .map(|i| simple_trace(&format!("t{i}"), np, 1, false))
            .collect();
        System::new(m, traces);
    }
}
