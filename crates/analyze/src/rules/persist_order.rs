//! `persist-order`: the mechanized form of PR 1's manual audit, since
//! v2 an *interprocedural* workspace rule. Every public `&mut self`
//! operation in scope must honour the ordering contract of the state
//! it touches on every Ok path. There are three contracts, and one
//! walker checks them all over the one [`Transfer`] state machine of
//! [`crate::effects`]:
//!
//! * **Queue.** Every public op of an inherent `impl SecureMemory` in
//!   `crates/{core,kv,mem}` that (transitively) feeds the eviction
//!   queue must drain it before succeeding. The queue is fed by data
//!   and metadata write-backs scheduled by `l3_fill`, `ctr_fill`,
//!   `mt_fill`, `reclaim`, the `ensure_*` helpers and
//!   `writeback_data`. A crash after an `Ok` return would otherwise
//!   lose queued persists, and the recovered BMT would disagree with
//!   data NVM: the exact TriadNVM-2 regression PR 1 fixed.
//! * **WAL.** Every public op of an inherent `impl KvStore` in the
//!   same crates must run `log_append` → `log_commit` →
//!   `apply_writes` in that order (`log_txn` is append and marker in
//!   one call).
//! * **Checkpoint.** Every public op in `crates/recov` must make its
//!   completion checkpoint durable (`checkpoint_persist`) before the
//!   thread's volatile seqno advances (`seqno_bump`). Otherwise a
//!   crash re-executes an operation that already took effect, and the
//!   exactly-once guarantee breaks.
//!
//! The scope is semantic: an impl is audited wherever it lives in
//! those crates, and the gate is the inferred effect set, so a public
//! op whose persist effects arrive three calls deep is audited exactly
//! like one that calls `l3_fill` directly.
//!
//! The walker tracks the *set* of possible protocol states through the
//! token tree. A vocabulary call applies its primitive transfer; a call
//! to a *resolved* non-vocabulary callee applies that callee's
//! inferred transfer. Brace groups are conditional regions (the state
//! set is cloned in and unioned out), so a drain or commit inside an
//! `if` leaves "maybe open" alive on the parent path. Three shapes are
//! findings: a consuming call (`apply_writes`, `seqno_bump`, or a
//! helper that reaches one) on a path where the commit point may not
//! be durable; a `return Ok` with work still open or committed but
//! unconsumed; and the same state at a tail `Ok`.

use crate::callgraph::call_at;
use crate::effects::{primitive_effects, Contract, Transfer, ST_COMMITTED, ST_IDLE, ST_OPEN};
use crate::lexer::Span;
use crate::lint::{Finding, Severity, WorkspaceRule};
use crate::symbols::FnDef;
use crate::tree::Tok;
use crate::Workspace;

/// See module docs.
pub struct PersistOrder;

/// The crates whose `SecureMemory`/`KvStore` impls are audited.
const AUDITED_CRATES: &[&str] = &["core", "kv", "mem"];

/// The contract a fn of `krate` whose impl target is `owner` is audited
/// under, if any. The checkpoint contract covers the whole recov crate:
/// it follows the vocabulary, not a type, since `ThreadCtx` and the
/// step machines all complete operations.
fn contract_for(krate: &str, owner: Option<&str>) -> Option<Contract> {
    if krate == "recov" {
        return Some(Contract::Ckpt);
    }
    if !AUDITED_CRATES.contains(&krate) {
        return None;
    }
    match owner {
        Some("SecureMemory") => Some(Contract::Queue),
        Some("KvStore") => Some(Contract::Wal),
        _ => None,
    }
}

/// How one contract's findings read.
struct Wording {
    /// What a consuming call does (empty for the queue, whose
    /// vocabulary never consumes).
    consumes: &'static str,
    /// What may not be durable where a consuming call is flagged.
    hazard: &'static str,
    /// An early `return Ok` with work still open.
    returns: &'static str,
    /// A tail `Ok` with work still open.
    falls_off: &'static str,
    /// The contract, as the closing clause of every finding.
    rule: &'static str,
}

fn wording(contract: Contract) -> &'static Wording {
    match contract {
        Contract::Queue => &Wording {
            consumes: "",
            hazard: "",
            returns: "returns Ok while the eviction queue may hold undrained persists",
            falls_off: "falls off the end with Ok while the eviction queue may hold \
                        undrained persists",
            rule: "call `drain_evictions` before succeeding",
        },
        Contract::Wal => &Wording {
            consumes: "applies transaction writes",
            hazard: "the commit marker may not be durable",
            returns: "returns Ok with a logged transaction not yet applied",
            falls_off: "falls off the end with Ok while a logged transaction is not yet applied",
            rule: "the WAL contract is log_append -> log_commit -> apply_writes on every Ok path",
        },
        Contract::Ckpt => &Wording {
            consumes: "advances the operation seqno",
            hazard: "the completion checkpoint may not be durable",
            returns: "returns Ok with a durable checkpoint whose seqno bump never ran",
            falls_off: "falls off the end with Ok while a durable checkpoint's seqno bump \
                        never ran",
            rule: "the completion contract is checkpoint_persist -> seqno_bump on every Ok path",
        },
    }
}

impl WorkspaceRule for PersistOrder {
    fn id(&self) -> &'static str {
        "persist-order"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn description(&self) -> &'static str {
        "public engine ops must drain the eviction queue, KV ops must order \
         log append -> commit marker -> index apply, and recov ops must persist \
         their checkpoint before the seqno bump, on every Ok path \
         (interprocedural: effects inferred through the call graph)"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for (i, f) in ws.symbols.fns.iter().enumerate() {
            let file = &ws.files[f.file];
            let Some(contract) = f
                .krate
                .as_deref()
                .and_then(|k| contract_for(k, f.owner.as_deref()))
            else {
                continue;
            };
            if !f.is_pub || !f.mut_self || f.trait_impl || file.is_test_line(f.span.line) {
                continue;
            }
            if ws.effects.effects[i] & contract.gate() == 0 {
                // Nothing this contract orders is in reach.
                continue;
            }
            let mut states = ST_IDLE;
            let mut w = Walk {
                ws,
                f,
                contract,
                words: wording(contract),
                rule: self,
                path: &file.path,
                out,
            };
            w.walk(&f.body, &mut states, true);
        }
    }
}

/// The concrete walker over one audited fn under one contract.
struct Walk<'a, 'o> {
    ws: &'a Workspace,
    f: &'a FnDef,
    contract: Contract,
    words: &'static Wording,
    rule: &'a PersistOrder,
    path: &'a str,
    out: &'o mut Vec<Finding>,
}

impl Walk<'_, '_> {
    fn walk(&mut self, toks: &[Tok], states: &mut u8, top: bool) {
        let mut i = 0;
        while i < toks.len() {
            if let Some(name) = call_at(toks, i) {
                let pe = primitive_effects(name);
                let transfer = if pe != 0 {
                    self.contract.transfer_of(pe).map(|t| (t, true))
                } else {
                    self.ws
                        .symbols
                        .resolve(self.f, name)
                        .map(|c| (self.ws.effects.transfer(c, self.contract), false))
                        .filter(|(t, _)| *t != Transfer::IDENTITY)
                };
                if let Some((t, direct)) = transfer {
                    if let Some(Tok::Group { tokens, .. }) = toks.get(i + 1) {
                        // Arguments evaluate before the call takes
                        // effect.
                        self.walk(tokens, states, false);
                    }
                    if t.unsafe_on(*states) {
                        let (consumes, hazard) = (self.words.consumes, self.words.hazard);
                        let how = if direct {
                            format!("{consumes} on a path where {hazard}")
                        } else {
                            format!("calls `{name}`, which {consumes}, on a path where {hazard}")
                        };
                        self.report(toks[i].span(), &how);
                    }
                    *states = t.apply(*states);
                    i += 2;
                    continue;
                }
            }
            match &toks[i] {
                t if t.is_ident("return")
                    && *states & (ST_OPEN | ST_COMMITTED) != 0
                    && matches!(toks.get(i + 1), Some(x) if x.is_ident("Ok")) =>
                {
                    self.report(t.span(), self.words.returns);
                }
                Tok::Group {
                    delim: '{', tokens, ..
                } => {
                    // A brace group is a conditional region: findings
                    // inside use the state flowing in, and whatever it
                    // leaves open joins the parent, but a drain or
                    // commit inside cannot clean the parent (the
                    // branch may not run).
                    let mut inner = *states;
                    self.walk(tokens, &mut inner, false);
                    *states |= inner;
                }
                Tok::Group { tokens, .. } => {
                    self.walk(tokens, states, false);
                }
                _ => {}
            }
            i += 1;
        }
        if top && *states & (ST_OPEN | ST_COMMITTED) != 0 {
            let n = toks.len();
            if n >= 2 && toks[n - 2].is_ident("Ok") && toks[n - 1].is_group('(') {
                self.report(toks[n - 2].span(), self.words.falls_off);
            }
        }
    }

    fn report(&mut self, span: Span, how: &str) {
        self.out.push(Finding {
            rule: self.rule.id(),
            severity: self.rule.severity(),
            path: self.path.to_string(),
            line: span.line,
            col: span.col,
            message: format!("`{}` {how}; {}", self.f.name, self.words.rule),
        });
    }
}
