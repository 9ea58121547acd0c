//! The memory-operation trace interface.
//!
//! Workload generators (the `triad-workloads` crate) produce streams of
//! [`MemOp`]s; the multi-core driver in `triad-core` replays one stream
//! per core through the cache hierarchy into the secure memory
//! controller. Keeping these types in the kernel crate lets the driver
//! and the generators evolve independently.

use crate::addr::PhysAddr;

/// The kind of a memory operation in a workload trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A demand load of one cache block.
    Load,
    /// A store to one cache block (write-allocate into L1).
    Store,
    /// A store followed by `clwb + sfence`: the block must reach the
    /// persistence domain (the memory controller's WPQ) before the core
    /// proceeds. Only meaningful for persistent-region addresses.
    PersistentStore,
}

impl OpKind {
    /// Whether the operation writes the block.
    pub fn is_write(self) -> bool {
        matches!(self, OpKind::Store | OpKind::PersistentStore)
    }

    /// Whether the operation orders against persistence (drains to WPQ).
    pub fn is_persist(self) -> bool {
        self == OpKind::PersistentStore
    }
}

/// One entry of a workload trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Byte address accessed (the whole 64 B block is transferred).
    pub addr: PhysAddr,
    /// What the core does at this address.
    pub kind: OpKind,
    /// Number of non-memory instructions the core executes *before*
    /// this operation (advances time by `gap × base CPI`).
    pub gap: u32,
}

impl MemOp {
    /// Convenience constructor for a load.
    pub fn load(addr: PhysAddr, gap: u32) -> Self {
        MemOp {
            addr,
            kind: OpKind::Load,
            gap,
        }
    }

    /// Convenience constructor for a store.
    pub fn store(addr: PhysAddr, gap: u32) -> Self {
        MemOp {
            addr,
            kind: OpKind::Store,
            gap,
        }
    }

    /// Convenience constructor for a persistent store (`store; clwb; sfence`).
    pub fn persist(addr: PhysAddr, gap: u32) -> Self {
        MemOp {
            addr,
            kind: OpKind::PersistentStore,
            gap,
        }
    }

    /// Number of instructions this trace entry represents (the gap plus
    /// the memory instruction itself; persists count the clwb+fence too).
    pub fn instruction_count(&self) -> u64 {
        let mem_insts = match self.kind {
            OpKind::Load | OpKind::Store => 1,
            OpKind::PersistentStore => 3, // store + clwb + sfence
        };
        self.gap as u64 + mem_insts
    }
}

/// A stream of memory operations executed by one core.
///
/// Implementations are typically infinite generators; the driver stops
/// after a configured operation or instruction budget.
pub trait TraceSource {
    /// Produces the next operation, or `None` when the workload ends.
    fn next_op(&mut self) -> Option<MemOp>;

    /// A short human-readable name for reports (e.g. `"mcf"`).
    fn name(&self) -> &str;
}

/// A trace source that replays a pre-materialised vector once (a test
/// fixture).
#[derive(Debug, Clone)]
pub struct VecTrace {
    name: String,
    ops: std::vec::IntoIter<MemOp>,
}

impl VecTrace {
    /// Creates a trace that replays `ops` once.
    pub fn new(name: impl Into<String>, ops: Vec<MemOp>) -> Self {
        VecTrace {
            name: name.into(),
            ops: ops.into_iter(),
        }
    }
}

impl TraceSource for VecTrace {
    fn next_op(&mut self) -> Option<MemOp> {
        self.ops.next()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_predicates() {
        assert!(OpKind::Store.is_write());
        assert!(OpKind::PersistentStore.is_write());
        assert!(!OpKind::Load.is_write());
        assert!(OpKind::PersistentStore.is_persist());
        assert!(!OpKind::Store.is_persist());
    }

    #[test]
    fn instruction_count_accounts_for_fences() {
        assert_eq!(MemOp::load(PhysAddr(0), 10).instruction_count(), 11);
        assert_eq!(MemOp::persist(PhysAddr(0), 10).instruction_count(), 13);
    }

    #[test]
    fn vec_trace_replays_and_ends() {
        let mut t = VecTrace::new("t", vec![MemOp::load(PhysAddr(0), 0)]);
        assert_eq!(t.name(), "t");
        assert!(t.next_op().is_some());
        assert!(t.next_op().is_none());
    }
}
