//! A detectably recoverable Michael-Scott queue.
//!
//! Nodes are two blocks: `[value]` then a `next` [`CasSite`] (the
//! freshly allocated all-zero block is already a valid "null,
//! untagged" site, so publication needs no extra persist). The queue
//! root is a `head` site and a `tail` site over a dummy node.
//!
//! The **decisive** CAS of an enqueue is the link of the new node
//! into the observed tail node's `next` site; the decisive CAS of a
//! dequeue is the head swing. Tail swings are pure *helper* commits:
//! they carry the [`crate::NO_OWNER`] tag (a helper must never
//! fabricate success evidence for someone's decisive operation) and
//! are never decisive, so a lagging tail is always legal and is
//! walked forward by the next enqueuer.
//!
//! ```text
//! enqueue: Start → PrepNode → ReadTail → ReadNext ─┬→ Pending → Commit → SwingAfter → Complete
//!                                   ↑              └→ SwingTail ┘ (tail lagged)
//! dequeue: Start → ReadHead → ReadHeadNext ─┬→ ReadValue → Pending → Help → Commit → Complete
//!                                           └→ (empty: fused decide+complete)
//! ```

use triad_core::SecureMemory;
use triad_kv::PersistentHeap;
use triad_sim::{PhysAddr, BLOCK_BYTES};

use crate::cas::{resolve_pending, CasOutcome, CasSite, CasView, NO_OWNER};
use crate::harness::{OpResult, StepOutcome};
use crate::memento::{put_u64, read_u64, ThreadCtx};
use crate::{RecovError, Result};

/// Node block 0 layout; block 1 is the `next` CAS site.
const NODE_VALUE: usize = 0;

/// Walk bound, as for the stack.
const WALK_LIMIT: u64 = 1 << 20;

/// A queue operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOp {
    /// Enqueue a value at the back.
    Enqueue(u64),
    /// Dequeue the front value (observing emptiness is a legal
    /// result).
    Dequeue,
}

/// The persistent MS-queue handle (volatile, reconstructible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsQueue {
    head: CasSite,
    tail: CasSite,
}

fn next_site(node: u64) -> CasSite {
    CasSite::at(PhysAddr(node + 64))
}

impl MsQueue {
    /// Allocates and durably initializes an empty queue (head and
    /// tail both at a dummy node).
    ///
    /// # Errors
    ///
    /// Heap / secure-memory errors.
    pub fn create(mem: &mut SecureMemory, heap: &PersistentHeap) -> Result<Self> {
        let roots = heap.alloc_blocks(mem, 2)?;
        let dummy = heap.alloc_blocks(mem, 2)?;
        let head = CasSite::init(mem, roots, dummy.0)?;
        let tail = CasSite::init(mem, PhysAddr(roots.0 + 64), dummy.0)?;
        Ok(MsQueue { head, tail })
    }

    /// Re-attaches to a queue whose root sites live at `addr` (head)
    /// and `addr + 64` (tail).
    pub fn open(addr: PhysAddr) -> Self {
        MsQueue {
            head: CasSite::at(addr),
            tail: CasSite::at(PhysAddr(addr.0 + 64)),
        }
    }

    fn read_value(mem: &mut SecureMemory, node: u64) -> Result<u64> {
        let buf = mem.read(PhysAddr(node))?;
        Ok(read_u64(&buf, NODE_VALUE))
    }

    /// The queue's contents, front first (the oracle's final walk).
    ///
    /// # Errors
    ///
    /// [`RecovError::Corrupt`] if the chain exceeds the walk bound.
    pub fn contents(&self, mem: &mut SecureMemory) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        let mut cur = self.head.read(mem)?.value;
        let mut hops = 0u64;
        loop {
            if hops >= WALK_LIMIT {
                return Err(RecovError::Corrupt {
                    what: "queue-walk",
                    addr: cur,
                });
            }
            let next = next_site(cur).read(mem)?.value;
            if next == 0 {
                return Ok(out);
            }
            out.push(Self::read_value(mem, next)?);
            cur = next;
            hops += 1;
        }
    }
}

/// The in-flight state of one queue operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Start,
    // Enqueue path.
    PrepNode,
    ReadTail {
        node: u64,
    },
    ReadNext {
        node: u64,
        tview: CasView,
    },
    SwingTail {
        node: u64,
        tview: CasView,
        to: u64,
    },
    PendingEnq {
        node: u64,
        tview: CasView,
        nview: CasView,
    },
    CommitEnq {
        node: u64,
        tview: CasView,
        nview: CasView,
    },
    SwingAfter {
        node: u64,
        tview: CasView,
    },
    // Dequeue path.
    ReadHead,
    ReadHeadNext {
        hview: CasView,
    },
    ReadValue {
        hview: CasView,
        next: u64,
    },
    PendingDeq {
        hview: CasView,
        next: u64,
        value: u64,
    },
    HelpDeq {
        hview: CasView,
        next: u64,
        value: u64,
    },
    CommitDeq {
        hview: CasView,
        next: u64,
        value: u64,
    },
    Complete {
        result: OpResult,
    },
    Done,
}

/// A stepwise enqueue/dequeue execution for one operation sequence
/// number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueMachine {
    op: QueueOp,
    seq: u64,
    state: State,
}

impl QueueMachine {
    /// A machine for `op` as operation `seq` of its thread.
    pub fn new(op: QueueOp, seq: u64) -> Self {
        QueueMachine {
            op,
            seq,
            state: State::Start,
        }
    }

    /// The operation sequence number this machine executes.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Executes one atomic step (see [`crate::stack::StackMachine::step`]).
    ///
    /// # Errors
    ///
    /// Secure-memory errors, notably
    /// [`triad_core::SecureMemoryError::NeedsRecovery`].
    pub fn step(
        &mut self,
        mem: &mut SecureMemory,
        heap: &PersistentHeap,
        ctx: &mut ThreadCtx,
        queue: &MsQueue,
    ) -> Result<StepOutcome> {
        let state = self.state;
        match state {
            State::Start => {
                let ms = ctx.mementos();
                match resolve_pending(mem, &ms, ctx.slot(), self.seq)? {
                    CasOutcome::Applied { payload } => {
                        let result = match self.op {
                            QueueOp::Enqueue(_) => OpResult::Inserted,
                            // For a dequeue the payload is the NEW
                            // head node, whose value is the one the
                            // crashed operation returned.
                            QueueOp::Dequeue => {
                                OpResult::Removed(MsQueue::read_value(mem, payload)?)
                            }
                        };
                        self.state = State::Complete { result };
                    }
                    CasOutcome::NotApplied => {
                        self.state = match self.op {
                            QueueOp::Enqueue(_) => State::PrepNode,
                            QueueOp::Dequeue => State::ReadHead,
                        };
                    }
                }
                Ok(StepOutcome::Continue)
            }
            State::PrepNode => {
                let QueueOp::Enqueue(v) = self.op else {
                    return Err(RecovError::Corrupt {
                        what: "queue-machine",
                        addr: 0,
                    });
                };
                let node = heap.alloc_blocks_for(mem, 2, ctx.slot(), self.seq)?;
                let mut buf = [0u8; BLOCK_BYTES];
                put_u64(&mut buf, NODE_VALUE, v);
                mem.write(node, &buf)?;
                mem.persist(node)?;
                // Block node+64 is the next site: all-zero = null.
                self.state = State::ReadTail { node: node.0 };
                Ok(StepOutcome::Continue)
            }
            State::ReadTail { node } => {
                let tview = queue.tail.read(mem)?;
                self.state = State::ReadNext { node, tview };
                Ok(StepOutcome::Continue)
            }
            State::ReadNext { node, tview } => {
                let nview = next_site(tview.value).read(mem)?;
                if nview.value != 0 {
                    // Tail lags: help swing it forward, then retry.
                    self.state = State::SwingTail {
                        node,
                        tview,
                        to: nview.value,
                    };
                } else {
                    self.state = State::PendingEnq { node, tview, nview };
                }
                Ok(StepOutcome::Continue)
            }
            State::SwingTail { node, tview, to } => {
                // Helper commit: NO_OWNER tag — never evidence for
                // anyone's decisive operation. Outcome irrelevant.
                queue.tail.commit(mem, &tview, to, NO_OWNER, 0)?;
                self.state = State::ReadTail { node };
                Ok(StepOutcome::Continue)
            }
            State::PendingEnq { node, tview, nview } => {
                ctx.pending_persist(mem, next_site(tview.value).addr(), node)?;
                self.state = State::CommitEnq { node, tview, nview };
                Ok(StepOutcome::Continue)
            }
            State::CommitEnq { node, tview, nview } => {
                // The expected view is null — protocol-wise it is
                // always untagged, but guard the evidence anyway.
                if nview.is_owned() {
                    ctx.mementos()
                        .record_help(mem, nview.owner_slot, nview.owner_seq)?;
                }
                if next_site(tview.value).commit(mem, &nview, node, ctx.slot(), self.seq)? {
                    self.state = State::SwingAfter { node, tview };
                    Ok(StepOutcome::Decided(OpResult::Inserted))
                } else {
                    self.state = State::ReadTail { node };
                    Ok(StepOutcome::Continue)
                }
            }
            State::SwingAfter { node, tview } => {
                // Best-effort tail swing to the node we just linked.
                queue.tail.commit(mem, &tview, node, NO_OWNER, 0)?;
                self.state = State::Complete {
                    result: OpResult::Inserted,
                };
                Ok(StepOutcome::Continue)
            }
            State::ReadHead => {
                let hview = queue.head.read(mem)?;
                self.state = State::ReadHeadNext { hview };
                Ok(StepOutcome::Continue)
            }
            State::ReadHeadNext { hview } => {
                let nview = next_site(hview.value).read(mem)?;
                if nview.value == 0 {
                    // Fused decide+complete on emptiness, as for the
                    // stack.
                    let result = OpResult::Empty;
                    let (tag, value) = result.encode();
                    ctx.complete_op(mem, tag, value)?;
                    self.state = State::Done;
                    return Ok(StepOutcome::DoneDecisive(result));
                }
                self.state = State::ReadValue {
                    hview,
                    next: nview.value,
                };
                Ok(StepOutcome::Continue)
            }
            State::ReadValue { hview, next } => {
                let value = MsQueue::read_value(mem, next)?;
                self.state = State::PendingDeq { hview, next, value };
                Ok(StepOutcome::Continue)
            }
            State::PendingDeq { hview, next, value } => {
                ctx.pending_persist(mem, queue.head.addr(), next)?;
                self.state = State::HelpDeq { hview, next, value };
                Ok(StepOutcome::Continue)
            }
            State::HelpDeq { hview, next, value } => {
                if hview.is_owned() {
                    ctx.mementos()
                        .record_help(mem, hview.owner_slot, hview.owner_seq)?;
                }
                self.state = State::CommitDeq { hview, next, value };
                Ok(StepOutcome::Continue)
            }
            State::CommitDeq { hview, next, value } => {
                if queue.head.commit(mem, &hview, next, ctx.slot(), self.seq)? {
                    let result = OpResult::Removed(value);
                    self.state = State::Complete { result };
                    Ok(StepOutcome::Decided(result))
                } else {
                    self.state = State::ReadHead;
                    Ok(StepOutcome::Continue)
                }
            }
            State::Complete { result } => {
                let (tag, value) = result.encode();
                ctx.complete_op(mem, tag, value)?;
                self.state = State::Done;
                Ok(StepOutcome::Done(result))
            }
            State::Done => Err(RecovError::Corrupt {
                what: "queue-machine",
                addr: 0,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memento::Mementos;
    use triad_core::{PersistScheme, SecureMemoryBuilder};

    fn setup() -> (SecureMemory, PersistentHeap, Mementos, MsQueue) {
        let mut m = SecureMemoryBuilder::new()
            .scheme(PersistScheme::triad_nvm(2))
            .build()
            .unwrap();
        let h = PersistentHeap::format(&mut m).unwrap();
        h.register_alloc_slots(&mut m, 2).unwrap();
        let ms = Mementos::format(&mut m, &h, 2).unwrap();
        let q = MsQueue::create(&mut m, &h).unwrap();
        (m, h, ms, q)
    }

    fn run_op(
        m: &mut SecureMemory,
        h: &PersistentHeap,
        ctx: &mut ThreadCtx,
        q: &MsQueue,
        op: QueueOp,
    ) -> OpResult {
        let mut mach = QueueMachine::new(op, ctx.next_seq());
        loop {
            match mach.step(m, h, ctx, q).unwrap() {
                StepOutcome::Continue | StepOutcome::Decided(_) => {}
                StepOutcome::Done(r) | StepOutcome::DoneDecisive(r) => return r,
            }
        }
    }

    #[test]
    fn fifo_order_single_thread() {
        let (mut m, h, ms, q) = setup();
        let mut ctx = ThreadCtx::new(ms, 0);
        assert_eq!(
            run_op(&mut m, &h, &mut ctx, &q, QueueOp::Dequeue),
            OpResult::Empty
        );
        for v in [10, 20, 30] {
            assert_eq!(
                run_op(&mut m, &h, &mut ctx, &q, QueueOp::Enqueue(v)),
                OpResult::Inserted
            );
        }
        assert_eq!(q.contents(&mut m).unwrap(), vec![10, 20, 30]);
        assert_eq!(
            run_op(&mut m, &h, &mut ctx, &q, QueueOp::Dequeue),
            OpResult::Removed(10)
        );
        assert_eq!(
            run_op(&mut m, &h, &mut ctx, &q, QueueOp::Dequeue),
            OpResult::Removed(20)
        );
        assert_eq!(
            run_op(&mut m, &h, &mut ctx, &q, QueueOp::Dequeue),
            OpResult::Removed(30)
        );
        assert_eq!(
            run_op(&mut m, &h, &mut ctx, &q, QueueOp::Dequeue),
            OpResult::Empty
        );
    }

    #[test]
    fn enqueue_crash_after_link_applies_exactly_once() {
        let (mut m, h, ms, q) = setup();
        let mut ctx = ThreadCtx::new(ms, 0);
        let mut mach = QueueMachine::new(QueueOp::Enqueue(9), ctx.next_seq());
        loop {
            match mach.step(&mut m, &h, &mut ctx, &q).unwrap() {
                StepOutcome::Decided(OpResult::Inserted) => break,
                StepOutcome::Continue => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        // Crash before SwingAfter AND before Complete: tail lags and
        // the completion is not durable.
        let mut ctx = ThreadCtx::recover(&mut m, ms, 0).unwrap();
        assert_eq!(ctx.completed(), 0);
        let r = run_op(&mut m, &h, &mut ctx, &q, QueueOp::Enqueue(9));
        assert_eq!(r, OpResult::Inserted);
        assert_eq!(q.contents(&mut m).unwrap(), vec![9], "exactly one node");
        // A later enqueue walks the lagging tail forward.
        run_op(&mut m, &h, &mut ctx, &q, QueueOp::Enqueue(11));
        assert_eq!(q.contents(&mut m).unwrap(), vec![9, 11]);
    }

    #[test]
    fn dequeue_crash_after_swing_recovers_the_value() {
        let (mut m, h, ms, q) = setup();
        let mut ctx = ThreadCtx::new(ms, 0);
        run_op(&mut m, &h, &mut ctx, &q, QueueOp::Enqueue(5));
        run_op(&mut m, &h, &mut ctx, &q, QueueOp::Enqueue(6));
        let mut mach = QueueMachine::new(QueueOp::Dequeue, ctx.next_seq());
        loop {
            match mach.step(&mut m, &h, &mut ctx, &q).unwrap() {
                StepOutcome::Decided(OpResult::Removed(5)) => break,
                StepOutcome::Continue => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        let mut ctx = ThreadCtx::recover(&mut m, ms, 0).unwrap();
        let r = run_op(&mut m, &h, &mut ctx, &q, QueueOp::Dequeue);
        assert_eq!(r, OpResult::Removed(5), "same value, not 6");
        assert_eq!(q.contents(&mut m).unwrap(), vec![6]);
    }
}
