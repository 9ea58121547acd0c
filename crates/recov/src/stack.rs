//! A detectably recoverable Treiber stack.
//!
//! The structure is one [`CasSite`] (`top`) plus immutable nodes
//! (`[value][next]`, one block each, written and persisted before
//! publication). Push and pop are expressed as explicit **step
//! machines** so the interleaving harness can preempt — or crash —
//! a thread between any two steps:
//!
//! ```text
//! push: Start → ReadTop → PrepNode → Pending → Help → Commit → Complete
//! pop:  Start → ReadTop → ReadNode → Pending → Help → Commit → Complete
//!       Start → ReadTop (empty: fused decide+complete)
//! ```
//!
//! `Start` is the recovery gate: it resolves the thread's pending
//! record ([`crate::cas::resolve_pending`]) and either re-completes an
//! operation whose decisive CAS already landed (exactly-once) or falls
//! through to normal execution. A machine replayed after a thread
//! crash is simply a fresh machine for the same sequence number.

use triad_core::SecureMemory;
use triad_kv::PersistentHeap;
use triad_sim::{PhysAddr, BLOCK_BYTES};

use crate::cas::{resolve_pending, CasOutcome, CasSite, CasView};
use crate::harness::{OpResult, StepOutcome};
use crate::memento::{put_u64, read_u64, ThreadCtx};
use crate::{RecovError, Result};

/// Node block layout (immutable once published).
const NODE_VALUE: usize = 0;
const NODE_NEXT: usize = 8;

/// Walk bound: far beyond any node count the heap can hold, so an
/// accidental cycle surfaces as a typed error instead of a hang.
const WALK_LIMIT: u64 = 1 << 20;

/// A stack operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackOp {
    /// Push a value.
    Push(u64),
    /// Pop the top value (observing emptiness is a legal result).
    Pop,
}

/// The persistent Treiber stack handle (volatile, reconstructible —
/// the only root state is the `top` site's address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreiberStack {
    top: CasSite,
}

impl TreiberStack {
    /// Allocates and durably initializes an empty stack.
    ///
    /// # Errors
    ///
    /// Heap / secure-memory errors.
    pub fn create(mem: &mut SecureMemory, heap: &PersistentHeap) -> Result<Self> {
        let addr = heap.alloc_blocks(mem, 1)?;
        Ok(TreiberStack {
            top: CasSite::init(mem, addr, 0)?,
        })
    }

    /// Re-attaches to a stack whose `top` site lives at `addr`.
    pub fn open(addr: PhysAddr) -> Self {
        TreiberStack {
            top: CasSite::at(addr),
        }
    }

    fn read_node(mem: &mut SecureMemory, node: u64) -> Result<(u64, u64)> {
        let buf = mem.read(PhysAddr(node))?;
        Ok((read_u64(&buf, NODE_VALUE), read_u64(&buf, NODE_NEXT)))
    }

    /// The stack's contents, top first (the oracle's final walk).
    ///
    /// # Errors
    ///
    /// [`RecovError::Corrupt`] if the chain exceeds the walk bound.
    pub fn contents(&self, mem: &mut SecureMemory) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        let mut cur = self.top.read(mem)?.value;
        let mut hops = 0u64;
        while cur != 0 {
            if hops >= WALK_LIMIT {
                return Err(RecovError::Corrupt {
                    what: "stack-walk",
                    addr: cur,
                });
            }
            let (value, next) = Self::read_node(mem, cur)?;
            out.push(value);
            cur = next;
            hops += 1;
        }
        Ok(out)
    }
}

/// The in-flight state of one stack operation (volatile: a thread
/// crash discards it and recovery builds a fresh machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Start,
    ReadTop,
    PrepNode {
        view: CasView,
    },
    ReadNode {
        view: CasView,
    },
    Pending {
        view: CasView,
        new_value: u64,
        payload: u64,
        result: OpResult,
    },
    Help {
        view: CasView,
        new_value: u64,
        payload: u64,
        result: OpResult,
    },
    Commit {
        view: CasView,
        new_value: u64,
        payload: u64,
        result: OpResult,
    },
    Complete {
        result: OpResult,
    },
    Done,
}

/// A stepwise push/pop execution for one operation sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackMachine {
    op: StackOp,
    seq: u64,
    state: State,
}

impl StackMachine {
    /// A machine for `op` as operation `seq` of its thread (callers
    /// pass [`ThreadCtx::next_seq`]).
    pub fn new(op: StackOp, seq: u64) -> Self {
        StackMachine {
            op,
            seq,
            state: State::Start,
        }
    }

    /// The operation sequence number this machine executes.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Executes one atomic step. The caller (the interleaving
    /// harness) owns the loop; a thread crash between calls simply
    /// drops the machine.
    ///
    /// # Errors
    ///
    /// Secure-memory errors — notably
    /// [`triad_core::SecureMemoryError::NeedsRecovery`] when an
    /// injected whole-system crash fires inside the step.
    pub fn step(
        &mut self,
        mem: &mut SecureMemory,
        heap: &PersistentHeap,
        ctx: &mut ThreadCtx,
        stack: &TreiberStack,
    ) -> Result<StepOutcome> {
        let state = self.state;
        match state {
            State::Start => {
                let ms = ctx.mementos();
                match resolve_pending(mem, &ms, ctx.slot(), self.seq)? {
                    CasOutcome::Applied { payload } => {
                        // The decisive CAS landed before the crash:
                        // re-derive the result, never re-execute.
                        let result = match self.op {
                            StackOp::Push(_) => OpResult::Inserted,
                            StackOp::Pop => {
                                let (value, _) = TreiberStack::read_node(mem, payload)?;
                                OpResult::Removed(value)
                            }
                        };
                        self.state = State::Complete { result };
                    }
                    CasOutcome::NotApplied => self.state = State::ReadTop,
                }
                Ok(StepOutcome::Continue)
            }
            State::ReadTop => {
                let view = stack.top.read(mem)?;
                match self.op {
                    StackOp::Push(_) => {
                        self.state = State::PrepNode { view };
                        Ok(StepOutcome::Continue)
                    }
                    StackOp::Pop => {
                        if view.value == 0 {
                            // Fused decide+complete: the emptiness
                            // observation IS the linearization point,
                            // so it must not be preemptible before
                            // the completion persists.
                            let result = OpResult::Empty;
                            let (tag, value) = result.encode();
                            ctx.complete_op(mem, tag, value)?;
                            self.state = State::Done;
                            return Ok(StepOutcome::DoneDecisive(result));
                        }
                        self.state = State::ReadNode { view };
                        Ok(StepOutcome::Continue)
                    }
                }
            }
            State::PrepNode { view } => {
                let StackOp::Push(v) = self.op else {
                    return Err(RecovError::Corrupt {
                        what: "stack-machine",
                        addr: 0,
                    });
                };
                // Detectable allocation: a replay of this seq returns
                // the same node instead of leaking one per crash.
                let node = heap.alloc_blocks_for(mem, 1, ctx.slot(), self.seq)?;
                let mut buf = [0u8; BLOCK_BYTES];
                put_u64(&mut buf, NODE_VALUE, v);
                put_u64(&mut buf, NODE_NEXT, view.value);
                mem.write(node, &buf)?;
                mem.persist(node)?;
                self.state = State::Pending {
                    view,
                    new_value: node.0,
                    payload: node.0,
                    result: OpResult::Inserted,
                };
                Ok(StepOutcome::Continue)
            }
            State::ReadNode { view } => {
                let (value, next) = TreiberStack::read_node(mem, view.value)?;
                self.state = State::Pending {
                    view,
                    new_value: next,
                    payload: view.value,
                    result: OpResult::Removed(value),
                };
                Ok(StepOutcome::Continue)
            }
            State::Pending {
                view,
                new_value,
                payload,
                result,
            } => {
                ctx.pending_persist(mem, stack.top.addr(), payload)?;
                self.state = State::Help {
                    view,
                    new_value,
                    payload,
                    result,
                };
                Ok(StepOutcome::Continue)
            }
            State::Help {
                view,
                new_value,
                payload,
                result,
            } => {
                if view.is_owned() {
                    // About to overwrite the observed owner's tag:
                    // persist its success evidence first.
                    ctx.mementos()
                        .record_help(mem, view.owner_slot, view.owner_seq)?;
                }
                self.state = State::Commit {
                    view,
                    new_value,
                    payload,
                    result,
                };
                Ok(StepOutcome::Continue)
            }
            State::Commit {
                view,
                new_value,
                payload: _,
                result,
            } => {
                if stack
                    .top
                    .commit(mem, &view, new_value, ctx.slot(), self.seq)?
                {
                    self.state = State::Complete { result };
                    Ok(StepOutcome::Decided(result))
                } else {
                    // Lost the race: retry from a fresh view.
                    self.state = State::ReadTop;
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
                what: "stack-machine",
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

    fn setup() -> (SecureMemory, PersistentHeap, Mementos, TreiberStack) {
        let mut m = SecureMemoryBuilder::new()
            .scheme(PersistScheme::triad_nvm(2))
            .build()
            .unwrap();
        let h = PersistentHeap::format(&mut m).unwrap();
        h.register_alloc_slots(&mut m, 2).unwrap();
        let ms = Mementos::format(&mut m, &h, 2).unwrap();
        let s = TreiberStack::create(&mut m, &h).unwrap();
        (m, h, ms, s)
    }

    fn run_op(
        m: &mut SecureMemory,
        h: &PersistentHeap,
        ctx: &mut ThreadCtx,
        s: &TreiberStack,
        op: StackOp,
    ) -> OpResult {
        let mut mach = StackMachine::new(op, ctx.next_seq());
        loop {
            match mach.step(m, h, ctx, s).unwrap() {
                StepOutcome::Continue | StepOutcome::Decided(_) => {}
                StepOutcome::Done(r) | StepOutcome::DoneDecisive(r) => return r,
            }
        }
    }

    #[test]
    fn lifo_order_single_thread() {
        let (mut m, h, ms, s) = setup();
        let mut ctx = ThreadCtx::new(ms, 0);
        assert_eq!(
            run_op(&mut m, &h, &mut ctx, &s, StackOp::Pop),
            OpResult::Empty
        );
        for v in [10, 20, 30] {
            assert_eq!(
                run_op(&mut m, &h, &mut ctx, &s, StackOp::Push(v)),
                OpResult::Inserted
            );
        }
        assert_eq!(s.contents(&mut m).unwrap(), vec![30, 20, 10]);
        assert_eq!(
            run_op(&mut m, &h, &mut ctx, &s, StackOp::Pop),
            OpResult::Removed(30)
        );
        assert_eq!(
            run_op(&mut m, &h, &mut ctx, &s, StackOp::Pop),
            OpResult::Removed(20)
        );
        assert_eq!(
            run_op(&mut m, &h, &mut ctx, &s, StackOp::Pop),
            OpResult::Removed(10)
        );
        assert_eq!(
            run_op(&mut m, &h, &mut ctx, &s, StackOp::Pop),
            OpResult::Empty
        );
        assert_eq!(ctx.completed(), 8);
    }

    #[test]
    fn crash_after_decisive_cas_applies_exactly_once() {
        let (mut m, h, ms, s) = setup();
        let mut ctx = ThreadCtx::new(ms, 0);
        // Drive a push up to (and through) its decisive CAS, then
        // crash the thread before it completes.
        let mut mach = StackMachine::new(StackOp::Push(77), ctx.next_seq());
        loop {
            match mach.step(&mut m, &h, &mut ctx, &s).unwrap() {
                StepOutcome::Decided(r) => {
                    assert_eq!(r, OpResult::Inserted);
                    break;
                }
                StepOutcome::Continue => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        // Thread crash: volatile machine + ctx lost.
        let mut ctx = ThreadCtx::recover(&mut m, ms, 0).unwrap();
        assert_eq!(ctx.completed(), 0, "completion was not durable yet");
        // Replay: same seq, fresh machine — must NOT push again.
        let r = run_op(&mut m, &h, &mut ctx, &s, StackOp::Push(77));
        assert_eq!(r, OpResult::Inserted);
        assert_eq!(ctx.completed(), 1);
        assert_eq!(s.contents(&mut m).unwrap(), vec![77], "exactly one node");
    }

    #[test]
    fn crash_before_decisive_cas_reexecutes_cleanly() {
        let (mut m, h, ms, s) = setup();
        let mut ctx = ThreadCtx::new(ms, 0);
        let mut mach = StackMachine::new(StackOp::Push(5), ctx.next_seq());
        // Step through Start, ReadTop, PrepNode, Pending, Help — stop
        // right before Commit.
        for _ in 0..5 {
            assert_eq!(
                mach.step(&mut m, &h, &mut ctx, &s).unwrap(),
                StepOutcome::Continue
            );
        }
        assert!(matches!(mach.state, State::Commit { .. }));
        let mut ctx = ThreadCtx::recover(&mut m, ms, 0).unwrap();
        let r = run_op(&mut m, &h, &mut ctx, &s, StackOp::Push(5));
        assert_eq!(r, OpResult::Inserted);
        assert_eq!(s.contents(&mut m).unwrap(), vec![5], "one node, not two");
    }

    #[test]
    fn pop_crash_between_cas_and_complete_recovers_the_value() {
        let (mut m, h, ms, s) = setup();
        let mut ctx = ThreadCtx::new(ms, 0);
        run_op(&mut m, &h, &mut ctx, &s, StackOp::Push(41));
        run_op(&mut m, &h, &mut ctx, &s, StackOp::Push(42));
        let mut mach = StackMachine::new(StackOp::Pop, ctx.next_seq());
        loop {
            match mach.step(&mut m, &h, &mut ctx, &s).unwrap() {
                StepOutcome::Decided(OpResult::Removed(42)) => break,
                StepOutcome::Continue => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        let mut ctx = ThreadCtx::recover(&mut m, ms, 0).unwrap();
        assert_eq!(ctx.completed(), 2);
        // The replayed pop recovers the SAME value from the pending
        // payload — it must not pop 41 as well.
        let r = run_op(&mut m, &h, &mut ctx, &s, StackOp::Pop);
        assert_eq!(r, OpResult::Removed(42));
        assert_eq!(s.contents(&mut m).unwrap(), vec![41]);
    }
}
