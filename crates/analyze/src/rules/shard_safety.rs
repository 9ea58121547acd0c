//! `shard-safety/*`: the sharding-readiness rule pack for the
//! multi-shard KV front-end. Once engine ops run on worker threads,
//! three classes of otherwise harmless idiom become cross-shard
//! hazards:
//!
//! * **`shard-safety/shared-mutable-static`** (error) — a `static`
//!   with interior mutability (`Atomic*`, `Mutex`, `RefCell`, ...)
//!   that any public engine/store operation can reach through the call
//!   graph is state shared between shards: per-shard determinism and
//!   the crash-equivalence oracle both die the moment two shards race
//!   on it. `static mut` is flagged unconditionally.
//! * **`shard-safety/nondeterministic-merge`** (warning) — a merge /
//!   aggregation function that iterates a default-hashed map feeds
//!   shard results together in `RandomState` order; fleet-level stats
//!   and event streams must merge identically on every run, so merge
//!   paths use `BTreeMap`/`BTreeSet` or sort first. This extends
//!   `determinism/hash-order` (which scopes to the model crates) to
//!   merge paths *anywhere*, including `workloads` and `bench`.
//! * **`shard-safety/rng-fork-discipline`** (warning) — cloning an RNG
//!   hands two shards the *same* SplitMix64 stream, so "independent"
//!   shards replay identical randomness. Shards take
//!   `rng.fork()` / `rng.stream(i)` instead, which derive disjoint
//!   streams.

use crate::callgraph::call_sites;
use crate::lint::{Finding, Severity, WorkspaceRule};
use crate::tree::Tok;
use crate::Workspace;

/// Types providing interior mutability: writable through `&`, so a
/// `static` of one is shared mutable state.
const INTERIOR_MUTABLE: &[&str] = &[
    "AtomicBool",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicPtr",
    "Cell",
    "RefCell",
    "UnsafeCell",
    "Mutex",
    "RwLock",
    "OnceCell",
    "OnceLock",
    "LazyLock",
    "LazyCell",
];

/// The audited service surface: public ops on these types are the
/// entry points a sharded front-end calls from worker threads.
const SERVICE_TYPES: &[&str] = &["SecureMemory", "KvStore"];

/// See module docs.
pub struct SharedMutableStatic;

/// A `static` item found in a file.
struct StaticItem {
    file: usize,
    name: String,
    span: crate::lexer::Span,
    is_mut: bool,
    interior_mutable: bool,
}

fn collect_statics(toks: &[Tok], file: usize, out: &mut Vec<StaticItem>) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("static") {
            // `static [mut] NAME : Type = init ;` — the name is the
            // next ident, the type runs to the `=`.
            let mut j = i + 1;
            let is_mut = matches!(toks.get(j), Some(t) if t.is_ident("mut"));
            if is_mut {
                j += 1;
            }
            if let Some((name, span)) = toks.get(j).and_then(|t| Some((t.ident()?, t.span()))) {
                if matches!(toks.get(j + 1), Some(t) if t.is_punct(':')) {
                    let mut k = j + 2;
                    let mut interior_mutable = false;
                    while k < toks.len() && !toks[k].is_punct('=') && !toks[k].is_punct(';') {
                        if let Some(ty) = toks[k].ident() {
                            if INTERIOR_MUTABLE.contains(&ty) {
                                interior_mutable = true;
                            }
                        }
                        k += 1;
                    }
                    out.push(StaticItem {
                        file,
                        name: name.to_string(),
                        span,
                        is_mut,
                        interior_mutable,
                    });
                    i = k;
                    continue;
                }
            }
        }
        if let Tok::Group { tokens, .. } = &toks[i] {
            collect_statics(tokens, file, out);
        }
        i += 1;
    }
}

/// Whether any identifier in the subtree equals `name`.
fn mentions(toks: &[Tok], name: &str) -> bool {
    toks.iter().any(|t| match t {
        Tok::Group { tokens, .. } => mentions(tokens, name),
        leaf => leaf.is_ident(name),
    })
}

impl WorkspaceRule for SharedMutableStatic {
    fn id(&self) -> &'static str {
        "shard-safety/shared-mutable-static"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn description(&self) -> &'static str {
        "no mutable statics reachable from engine/store ops: shards must not \
         share state"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let mut statics = Vec::new();
        for (idx, file) in ws.files.iter().enumerate() {
            if file.is_test_file() {
                continue;
            }
            collect_statics(&file.toks, idx, &mut statics);
        }
        statics.retain(|s| {
            (s.is_mut || s.interior_mutable) && !ws.files[s.file].is_test_line(s.span.line)
        });
        if statics.is_empty() {
            return;
        }
        // Which fns can a service op reach?
        let roots = ws.symbols.fns.iter().enumerate().filter_map(|(i, f)| {
            (f.is_pub && matches!(f.owner.as_deref(), Some(o) if SERVICE_TYPES.contains(&o)))
                .then_some(i)
        });
        let reachable = ws.graph.reachable(roots);
        for s in statics {
            // A reachable fn that names the static is the hazard; the
            // finding anchors at the static so the fix (thread it
            // through per-shard state) is obvious.
            let user = ws
                .symbols
                .fns
                .iter()
                .enumerate()
                .find(|(i, f)| reachable[*i] && mentions(&f.body, &s.name));
            let Some((_, user)) = user else { continue };
            out.push(Finding {
                rule: self.id(),
                severity: self.severity(),
                path: ws.files[s.file].path.clone(),
                line: s.span.line,
                col: s.span.col,
                message: format!(
                    "static `{}` {} and is reachable from `{}`: shards running on \
                     worker threads would share it; move it into per-shard state",
                    s.name,
                    if s.is_mut {
                        "is mutable".to_string()
                    } else {
                        "has interior mutability".to_string()
                    },
                    user.name,
                ),
            });
        }
    }
}

/// See module docs.
pub struct NondeterministicMerge;

/// Fn-name vocabulary that marks a merge/aggregation path.
const MERGE_NAMES: &[&str] = &["merge", "absorb", "aggregate", "combine"];

fn is_merge_name(name: &str) -> bool {
    MERGE_NAMES.iter().any(|m| name.contains(m))
}

/// Collects spans of `HashMap`/`HashSet` mentions in a subtree.
fn unordered_map_spans(toks: &[Tok], out: &mut Vec<crate::lexer::Span>) {
    for t in toks {
        match t {
            Tok::Group { tokens, .. } => unordered_map_spans(tokens, out),
            leaf => {
                if matches!(leaf.ident(), Some("HashMap" | "HashSet")) {
                    out.push(leaf.span());
                }
            }
        }
    }
}

impl WorkspaceRule for NondeterministicMerge {
    fn id(&self) -> &'static str {
        "shard-safety/nondeterministic-merge"
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn description(&self) -> &'static str {
        "merge/aggregation fns must not iterate default-hashed maps: shard \
         results must merge in a deterministic order"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in &ws.symbols.fns {
            if !is_merge_name(&f.name) {
                continue;
            }
            let file = &ws.files[f.file];
            if file.is_test_line(f.span.line) {
                continue;
            }
            let mut spans = Vec::new();
            unordered_map_spans(&f.body, &mut spans);
            for span in spans {
                out.push(Finding {
                    rule: self.id(),
                    severity: self.severity(),
                    path: file.path.clone(),
                    line: span.line,
                    col: span.col,
                    message: format!(
                        "`{}` is a merge path that touches a default-hashed map; \
                         RandomState iteration order makes the merged result \
                         nondeterministic across runs — use BTreeMap/BTreeSet or \
                         sort before merging",
                        f.name
                    ),
                });
            }
        }
    }
}

/// See module docs.
pub struct RngForkDiscipline;

impl WorkspaceRule for RngForkDiscipline {
    fn id(&self) -> &'static str {
        "shard-safety/rng-fork-discipline"
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn description(&self) -> &'static str {
        "RNG streams are forked (`fork()`/`stream(i)`), never cloned: cloned \
         shards replay identical randomness"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for f in &ws.symbols.fns {
            let file = &ws.files[f.file];
            if file.is_test_line(f.span.line) {
                continue;
            }
            for (name, span) in call_sites(&f.body) {
                if name != "clone" {
                    continue;
                }
                // The receiver is the ident before the `.`: find the
                // clone site and look two tokens back.
                if let Some(recv) = clone_receiver(&f.body, span) {
                    if recv.to_ascii_lowercase().contains("rng") {
                        out.push(Finding {
                            rule: self.id(),
                            severity: self.severity(),
                            path: file.path.clone(),
                            line: span.line,
                            col: span.col,
                            message: format!(
                                "`{}` clones `{recv}`: a cloned SplitMix64 replays the \
                                 same stream in every shard — use `fork()` or \
                                 `stream(i)` to derive a disjoint stream",
                                f.name
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// For a `clone` call at `at`, the identifier of its `.`-receiver
/// (`rng` in `rng.clone()`, `self.trace_rng.clone()` → `trace_rng`).
fn clone_receiver(toks: &[Tok], at: crate::lexer::Span) -> Option<String> {
    let mut found = None;
    find_clone_receiver(toks, at, &mut found);
    found
}

fn find_clone_receiver(toks: &[Tok], at: crate::lexer::Span, found: &mut Option<String>) {
    for (i, t) in toks.iter().enumerate() {
        if found.is_some() {
            return;
        }
        if t.is_ident("clone") && t.span() == at {
            if i >= 2 && toks[i - 1].is_punct('.') {
                if let Some(recv) = toks[i - 2].ident() {
                    *found = Some(recv.to_string());
                }
            }
            return;
        }
        if let Tok::Group { tokens, .. } = t {
            find_clone_receiver(tokens, at, found);
        }
    }
}
