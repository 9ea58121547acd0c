//! Per-function persist-effect inference.
//!
//! Every function gets a set of *effects* — what it does to NVM
//! durability state — inferred from a primitive vocabulary at the
//! leaves and propagated transitively through the call graph. The
//! vocabulary is one table, [`VOCABULARY`]:
//!
//! | effect | primitive vocabulary |
//! |---|---|
//! | [`APPENDS_LOG`] | `log_append`, `log_txn` |
//! | [`EMITS_COMMIT_MARKER`] | `log_commit`, `log_txn` |
//! | [`PERSISTS_DATA`] | `writeback_data` |
//! | [`PERSISTS_METADATA`] | `l3_fill`, `ctr_fill`, `mt_fill`, `ensure_*`, `reclaim` |
//! | [`DRAINS_WPQ`] | `drain_evictions` |
//! | [`APPLIES_WRITES`] | `apply_writes` |
//! | [`PERSISTS_CHECKPOINT`] | `checkpoint_persist` |
//! | [`BUMPS_SEQNO`] | `seqno_bump` |
//! | [`CRASH_BOUNDARY`] | `arm_crash` |
//!
//! The vocabulary takes precedence over call-graph resolution: a call
//! *named* `log_txn` means append-plus-marker even when the definition
//! is visible, so a single fixture file analysed stand-alone behaves
//! exactly like the same code inside the full workspace.
//!
//! On top of the effect sets, each function gets one [`Transfer`] per
//! ordering [`Contract`]: a summary a caller can apply at a call site
//! without re-walking the callee. A transfer maps each input state
//! (idle / open / committed) to the *set* of possible output states,
//! and records the input states under which the function consumes work
//! that is not yet durable. The three contracts read that one state
//! machine through their own vocabulary. A queue enqueue opens and a
//! drain returns to idle. A WAL append opens, a commit marker commits
//! and an apply consumes. A checkpoint persist commits and a seqno
//! bump consumes. A brace group (conditional region) contributes its
//! body's transfer unioned with the unchanged input, since the region
//! may not run.
//!
//! Transfers are computed to a fixpoint (recursion-tolerant, with an
//! iteration cap) so `A → B → C → l3_fill` gives `A` the enqueue
//! transfer even though no queue primitive appears in `A`'s own body.

use crate::callgraph::{call_at, CallGraph};
use crate::symbols::{FnDef, SymbolTable};
use crate::tree::Tok;

/// A bitset of persist effects.
pub type EffectSet = u16;

/// Appends a WAL record (durability point for the payload).
pub const APPENDS_LOG: EffectSet = 1 << 0;
/// Persists a WAL commit marker.
pub const EMITS_COMMIT_MARKER: EffectSet = 1 << 1;
/// Schedules a data-line write-back on the eviction queue.
pub const PERSISTS_DATA: EffectSet = 1 << 2;
/// Schedules a metadata (counter / MAC / BMT) write-back.
pub const PERSISTS_METADATA: EffectSet = 1 << 3;
/// Drains the write-pending queue to NVM.
pub const DRAINS_WPQ: EffectSet = 1 << 4;
/// May cut execution at a persist boundary (crash injection).
pub const CRASH_BOUNDARY: EffectSet = 1 << 5;
/// Applies logged writes to the live index/entry state.
pub const APPLIES_WRITES: EffectSet = 1 << 6;
/// Persists a per-thread recovery checkpoint (value + seqno record).
pub const PERSISTS_CHECKPOINT: EffectSet = 1 << 7;
/// Advances a thread's volatile operation seqno past its checkpoint.
pub const BUMPS_SEQNO: EffectSet = 1 << 8;

/// Human-readable names of the effects set in `e`, for diagnostics.
pub fn effect_names(e: EffectSet) -> Vec<&'static str> {
    let mut out = Vec::new();
    for (bit, name) in [
        (APPENDS_LOG, "AppendsLog"),
        (EMITS_COMMIT_MARKER, "EmitsCommitMarker"),
        (PERSISTS_DATA, "PersistsData"),
        (PERSISTS_METADATA, "PersistsMetadata"),
        (DRAINS_WPQ, "DrainsWpq"),
        (CRASH_BOUNDARY, "CrashBoundary"),
        (APPLIES_WRITES, "AppliesWrites"),
        (PERSISTS_CHECKPOINT, "PersistsCheckpoint"),
        (BUMPS_SEQNO, "BumpsSeqno"),
    ] {
        if e & bit != 0 {
            out.push(name);
        }
    }
    out
}

/// The primitive vocabulary, listed once: each name, the effects a
/// call by that name has, and the crate that defines it. `log_append`
/// and `log_commit` are the two-step form of `log_txn` that only the
/// lint fixtures use.
pub const VOCABULARY: &[(&str, EffectSet, &str)] = &[
    ("l3_fill", PERSISTS_METADATA, "core"),
    ("ctr_fill", PERSISTS_METADATA, "core"),
    ("mt_fill", PERSISTS_METADATA, "core"),
    ("reclaim", PERSISTS_METADATA, "core"),
    ("ensure_counter", PERSISTS_METADATA, "core"),
    ("ensure_node", PERSISTS_METADATA, "core"),
    ("ensure_mac_block", PERSISTS_METADATA, "core"),
    ("writeback_data", PERSISTS_DATA, "core"),
    ("drain_evictions", DRAINS_WPQ, "core"),
    ("arm_crash", CRASH_BOUNDARY, "core"),
    ("log_append", APPENDS_LOG, "kv"),
    ("log_commit", EMITS_COMMIT_MARKER, "kv"),
    ("log_txn", APPENDS_LOG | EMITS_COMMIT_MARKER, "kv"),
    ("apply_writes", APPLIES_WRITES, "kv"),
    ("checkpoint_persist", PERSISTS_CHECKPOINT, "recov"),
    ("seqno_bump", BUMPS_SEQNO, "recov"),
];

/// The effects a call has *by name*. Always consulted before
/// call-graph resolution.
pub fn primitive_effects(name: &str) -> EffectSet {
    VOCABULARY
        .iter()
        .find(|(n, ..)| *n == name)
        .map_or(0, |&(_, e, _)| e)
}

/// Protocol states (a bitset — analyses track *sets* of states).
pub const ST_IDLE: u8 = 1;
/// Work is open but not durable: write-backs wait in the eviction
/// queue, or a transaction is appended without a durable marker.
pub const ST_OPEN: u8 = 2;
/// The commit point is durable; consuming the work is safe.
pub const ST_COMMITTED: u8 = 4;

/// A transfer function over the protocol states: per input state, the
/// set of possible output states, plus the input states under which
/// the fn consumes work that is not yet durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// `out[i]` is the output state set for input state `1 << i`.
    pub out: [u8; 3],
    /// Input states on which executing the fn is a protocol violation.
    pub unsafe_in: u8,
}

impl Transfer {
    /// Does nothing to the protocol.
    pub const IDENTITY: Transfer = Transfer {
        out: [ST_IDLE, ST_OPEN, ST_COMMITTED],
        unsafe_in: 0,
    };
    /// A queue enqueue or `log_append`: any state → open.
    pub const OPEN: Transfer = Transfer {
        out: [ST_OPEN; 3],
        unsafe_in: 0,
    };
    /// A commit marker or checkpoint persist: any state → committed.
    pub const COMMIT: Transfer = Transfer {
        out: [ST_COMMITTED; 3],
        unsafe_in: 0,
    };
    /// `apply_writes` / `seqno_bump`: only safe from committed; any
    /// state → idle.
    pub const APPLY: Transfer = Transfer {
        out: [ST_IDLE; 3],
        unsafe_in: ST_IDLE | ST_OPEN,
    };
    /// `drain_evictions`: any state → idle, safe from every state.
    pub const DRAIN: Transfer = Transfer {
        out: [ST_IDLE; 3],
        unsafe_in: 0,
    };

    /// Applies the transfer to a concrete state set.
    pub fn apply(self, states: u8) -> u8 {
        let mut out = 0;
        for (b, o) in self.out.iter().enumerate() {
            if states & (1 << b) != 0 {
                out |= o;
            }
        }
        out
    }

    /// Whether executing the fn from any state in `states` violates
    /// the protocol.
    pub fn unsafe_on(self, states: u8) -> bool {
        self.unsafe_in & states != 0
    }

    /// Sequential composition: `self` runs first, then `next`.
    pub fn then(self, next: Transfer) -> Transfer {
        let mut out = [0u8; 3];
        let mut unsafe_in = self.unsafe_in;
        for (b, slot) in out.iter_mut().enumerate() {
            let mid = self.out[b];
            *slot = next.apply(mid);
            if next.unsafe_in & mid != 0 {
                unsafe_in |= 1 << b;
            }
        }
        Transfer { out, unsafe_in }
    }

    /// The transfer a conditional region with body transfer `self`
    /// contributes to its parent (region may not run: union with the
    /// unchanged input state).
    pub fn branched(self) -> Transfer {
        let mut out = [0u8; 3];
        for (b, slot) in out.iter_mut().enumerate() {
            *slot = (1 << b) | self.out[b];
        }
        Transfer {
            out,
            unsafe_in: self.unsafe_in,
        }
    }
}

/// One ordering contract over the [`Transfer`] state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contract {
    /// Every write-back the engine enqueues is drained before `Ok`.
    Queue,
    /// `log_append` → `log_commit` → `apply_writes` on every Ok path.
    Wal,
    /// `checkpoint_persist` → `seqno_bump` on every Ok path: after a
    /// crash a thread's durable checkpoint must not lag its volatile
    /// seqno, or recovery re-executes an operation that took effect.
    Ckpt,
}

impl Contract {
    /// Every contract, in [`EffectTable::transfers`] order.
    pub const ALL: [Contract; 3] = [Contract::Queue, Contract::Wal, Contract::Ckpt];

    /// The contract's vocabulary as effect bits, each with the transfer
    /// of a primitive that carries it. Earlier rows win, so `log_txn`
    /// (append and marker in one call) commits.
    fn vocabulary(self) -> &'static [(EffectSet, Transfer)] {
        match self {
            Contract::Queue => &[
                (PERSISTS_DATA | PERSISTS_METADATA, Transfer::OPEN),
                (DRAINS_WPQ, Transfer::DRAIN),
            ],
            Contract::Wal => &[
                (EMITS_COMMIT_MARKER, Transfer::COMMIT),
                (APPENDS_LOG, Transfer::OPEN),
                (APPLIES_WRITES, Transfer::APPLY),
            ],
            Contract::Ckpt => &[
                (PERSISTS_CHECKPOINT, Transfer::COMMIT),
                (BUMPS_SEQNO, Transfer::APPLY),
            ],
        }
    }

    /// The audit gate: a fn whose effects meet none of these bits has
    /// nothing to order under this contract.
    pub fn gate(self) -> EffectSet {
        self.vocabulary()
            .iter()
            .fold(0, |acc, (bits, _)| acc | bits)
    }

    /// The transfer of a primitive with effects `e` under this
    /// contract, when it has one.
    pub fn transfer_of(self, e: EffectSet) -> Option<Transfer> {
        self.vocabulary()
            .iter()
            .find(|(bits, _)| e & bits != 0)
            .map(|&(_, t)| t)
    }
}

/// Inferred effects and transfers, parallel to [`SymbolTable::fns`].
#[derive(Debug, Default)]
pub struct EffectTable {
    /// Transitive effect set per fn.
    pub effects: Vec<EffectSet>,
    /// Per fn, one transfer per contract in [`Contract::ALL`] order.
    pub transfers: Vec<[Transfer; 3]>,
}

/// Iteration cap for the fixpoint: summaries propagate at least one
/// call-graph level per pass, and no real chain in this workspace is
/// anywhere near this deep. A cycle that fails to converge is left at
/// its last (conservative, monotone-grown) value.
const MAX_PASSES: usize = 16;

impl EffectTable {
    /// Infers effects and transfers for every fn to a fixpoint.
    pub fn build(symbols: &SymbolTable, _graph: &CallGraph) -> EffectTable {
        let n = symbols.fns.len();
        let mut t = EffectTable {
            effects: vec![0; n],
            transfers: vec![[Transfer::IDENTITY; 3]; n],
        };
        for _ in 0..MAX_PASSES {
            let mut changed = false;
            for (i, f) in symbols.fns.iter().enumerate() {
                // A fn that *is* vocabulary keeps its primitive effect
                // even if its body is opaque to the scanner.
                let mut eff = primitive_effects(&f.name);
                let mut tr = [Transfer::IDENTITY; 3];
                summarize(&f.body, f, symbols, &t, &mut eff, &mut tr);
                if eff != t.effects[i] || tr != t.transfers[i] {
                    t.effects[i] = eff;
                    t.transfers[i] = tr;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        t
    }

    /// The transfer of fn `f` under `contract`.
    pub fn transfer(&self, f: usize, contract: Contract) -> Transfer {
        self.transfers[f][contract as usize]
    }
}

/// One symbolic pass over a body: accumulates effects and composes the
/// running transfer of every contract. Mirrors the concrete walker in
/// `rules::persist_order`: call arguments evaluate before the call
/// takes effect, brace groups are conditional regions, other groups
/// are transparent.
fn summarize(
    toks: &[Tok],
    f: &FnDef,
    symbols: &SymbolTable,
    t: &EffectTable,
    eff: &mut EffectSet,
    tr: &mut [Transfer; 3],
) {
    let mut i = 0;
    while i < toks.len() {
        if let Some(name) = call_at(toks, i) {
            if let Some(Tok::Group { tokens, .. }) = toks.get(i + 1) {
                summarize(tokens, f, symbols, t, eff, tr);
            }
            let pe = primitive_effects(name);
            if pe != 0 {
                *eff |= pe;
                for (acc, c) in tr.iter_mut().zip(Contract::ALL) {
                    if let Some(p) = c.transfer_of(pe) {
                        *acc = acc.then(p);
                    }
                }
            } else if let Some(c) = symbols.resolve(f, name) {
                *eff |= t.effects[c];
                for (acc, next) in tr.iter_mut().zip(t.transfers[c]) {
                    *acc = acc.then(next);
                }
            }
            i += 2;
            continue;
        }
        match &toks[i] {
            Tok::Group {
                delim: '{', tokens, ..
            } => {
                let mut inner = [Transfer::IDENTITY; 3];
                summarize(tokens, f, symbols, t, eff, &mut inner);
                for (acc, next) in tr.iter_mut().zip(inner) {
                    *acc = acc.then(next.branched());
                }
            }
            Tok::Group { tokens, .. } => {
                summarize(tokens, f, symbols, t, eff, tr);
            }
            _ => {}
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::FileAnalysis;

    fn build(src: &str) -> (SymbolTable, EffectTable) {
        let fa = FileAnalysis::new("crates/core/src/x.rs", src);
        let symbols = SymbolTable::build(std::slice::from_ref(&fa));
        let graph = CallGraph::build(&symbols);
        let effects = EffectTable::build(&symbols, &graph);
        (symbols, effects)
    }

    fn idx(s: &SymbolTable, name: &str) -> usize {
        s.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn effects_propagate_through_call_chains() {
        let (s, t) = build(
            "fn a(&mut self) { b() }\nfn b(&mut self) { c() }\nfn c(&mut self) { self.l3_fill(1); }\n",
        );
        assert_eq!(t.effects[idx(&s, "a")], PERSISTS_METADATA);
        assert_eq!(effect_names(t.effects[idx(&s, "a")]), ["PersistsMetadata"]);
    }

    #[test]
    fn queue_transfers_compose_and_branch() {
        let (s, t) = build(
            "fn enq() { l3_fill(1); }\n\
             fn enq_then_drain() { l3_fill(1); drain_evictions(0); }\n\
             fn cond_drain() { l3_fill(1); if x { drain_evictions(0); } }\n",
        );
        let queue = |name| t.transfer(idx(&s, name), Contract::Queue);
        assert_eq!(queue("enq"), Transfer::OPEN);
        assert_eq!(queue("enq_then_drain"), Transfer::DRAIN);
        // A conditional drain cannot clean the path: still pending.
        assert_ne!(queue("cond_drain").apply(ST_IDLE) & ST_OPEN, 0);
    }

    #[test]
    fn wal_transfers_track_protocol_states() {
        let (s, t) = build(
            "fn good() { log_txn(x); apply_writes(x); }\n\
             fn bad() { log_append(x); apply_writes(x); }\n\
             fn cond_commit() { log_append(x); if y { log_commit(x); } apply_writes(x); }\n",
        );
        let wal = |name| t.transfer(idx(&s, name), Contract::Wal);
        let good = wal("good");
        assert_eq!(good.unsafe_in, 0);
        assert_eq!(good.apply(ST_IDLE), ST_IDLE);
        let bad = wal("bad");
        assert_ne!(bad.unsafe_in & ST_IDLE, 0, "applies while only appended");
        let cond = wal("cond_commit");
        assert_ne!(
            cond.unsafe_in & ST_IDLE,
            0,
            "commit under an if leaves maybe-uncommitted alive"
        );
    }

    #[test]
    fn ckpt_transfers_track_persist_before_bump() {
        let (s, t) = build(
            "fn good() { checkpoint_persist(m); seqno_bump(); }\n\
             fn bad() { seqno_bump(); checkpoint_persist(m); }\n\
             fn cond_persist() { if y { checkpoint_persist(m); } seqno_bump(); }\n\
             fn wrapper() { good(); }\n",
        );
        let ckpt = |name| t.transfer(idx(&s, name), Contract::Ckpt);
        let good = ckpt("good");
        assert_eq!(good.unsafe_in, 0);
        assert_eq!(good.apply(ST_IDLE), ST_IDLE);
        let bad = ckpt("bad");
        assert_ne!(bad.unsafe_in & ST_IDLE, 0, "bump before the checkpoint");
        let cond = ckpt("cond_persist");
        assert_ne!(
            cond.unsafe_in & ST_IDLE,
            0,
            "checkpoint under an if leaves maybe-unpersisted alive"
        );
        // Transfers propagate: the wrapper inherits the safe transfer
        // and both effect bits.
        assert_eq!(ckpt("wrapper").unsafe_in, 0);
        let eff = t.effects[idx(&s, "wrapper")];
        assert_ne!(eff & PERSISTS_CHECKPOINT, 0);
        assert_ne!(eff & BUMPS_SEQNO, 0);
    }

    #[test]
    fn vocabulary_beats_resolution() {
        // A local fn *named* log_txn is still append+commit by name —
        // the contract is attached to the vocabulary, so fixtures and
        // the real workspace agree.
        let (s, t) = build(
            "fn log_txn(&mut self) { }\nfn op(&mut self) { self.log_txn(); apply_writes(x); }\n",
        );
        let op = t.transfer(idx(&s, "op"), Contract::Wal);
        assert_eq!(op.unsafe_in, 0, "txn committed before apply");
        assert_ne!(t.effects[idx(&s, "op")] & EMITS_COMMIT_MARKER, 0);
    }
}
