//! Symbol table: every `fn` definition in the workspace, with its
//! owning `impl` target, visibility, and receiver shape. This is the
//! base layer of triad-lint v2 — the [`crate::callgraph`] resolves
//! call sites against it and [`crate::effects`] infers persist effects
//! over it — so the rules no longer need a file-name allowlist: a
//! public `SecureMemory` operation is audited wherever it is defined.

use std::collections::BTreeMap;

use crate::lexer::Span;
use crate::lint::FileAnalysis;
use crate::tree::Tok;

/// One function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// The `impl` target type when defined inside an impl block
    /// (`SecureMemory`), `None` for free functions.
    pub owner: Option<String>,
    /// Whether the surrounding impl is a trait impl
    /// (`impl StatRegister for ...`).
    pub trait_impl: bool,
    /// Whether the fn is plain `pub`. `pub(crate)`/`pub(super)` count
    /// as private: restricted helpers are vocabulary, not API surface.
    pub is_pub: bool,
    /// Whether the receiver is `&mut self`.
    pub mut_self: bool,
    /// Index of the defining file in [`crate::Workspace::files`].
    pub file: usize,
    /// The crate the file belongs to (`core` for
    /// `crates/core/src/engine.rs`), `None` outside `crates/`.
    pub krate: Option<String>,
    /// Where the fn's name appears.
    pub span: Span,
    /// The body token tree, cloned out of the file's tree so the
    /// table owns its data.
    pub body: Vec<Tok>,
}

/// Every function definition in a set of files, indexed by name.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Definitions in file order, then source order.
    pub fns: Vec<FnDef>,
    by_name: BTreeMap<String, Vec<usize>>,
}

/// The crate a workspace-relative path belongs to
/// (`crates/core/src/engine.rs` → `core`).
pub fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

impl SymbolTable {
    /// Collects every fn definition from `files`.
    pub fn build(files: &[FileAnalysis]) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (file_idx, file) in files.iter().enumerate() {
            let krate = crate_of(&file.path).map(|s| s.to_string());
            collect_fns(&file.toks, None, false, file_idx, &krate, &mut table.fns);
        }
        for (i, f) in table.fns.iter().enumerate() {
            table.by_name.entry(f.name.clone()).or_default().push(i);
        }
        table
    }

    /// All definitions named `name`, in table order.
    pub fn candidates(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], |v| v.as_slice())
    }

    /// Resolves a call by `name` made inside `from`. Preference order:
    /// a method on the same owner type (so `self.ensure(...)` binds to
    /// the impl's own helper), then a definition in the same file, then
    /// the same crate. An unknown name — or a tie the preferences can't
    /// break — returns `None`, and analyses fall back to the identity
    /// transfer: an unresolvable call is assumed effect-free, which is
    /// exactly the v1 single-file behaviour for out-of-file helpers.
    pub fn resolve(&self, from: &FnDef, name: &str) -> Option<usize> {
        let cands = self.by_name.get(name)?;
        let mut best: Option<usize> = None;
        let mut best_score = -1i32;
        let mut tie = false;
        for &c in cands {
            let d = &self.fns[c];
            let mut score = 0;
            if d.owner.is_some() && d.owner == from.owner {
                score += 4;
            }
            if d.file == from.file {
                score += 2;
            }
            if d.krate.is_some() && d.krate == from.krate {
                score += 1;
            }
            if score > best_score {
                best_score = score;
                best = Some(c);
                tie = false;
            } else if score == best_score {
                tie = true;
            }
        }
        if tie {
            None
        } else {
            best
        }
    }
}

/// Walks `toks` collecting fn definitions. `owner` is the impl target
/// when inside an impl body. Does not descend into fn bodies: closures
/// and nested fns are analysed as part of their parent's body, not as
/// standalone symbols.
fn collect_fns(
    toks: &[Tok],
    owner: Option<&str>,
    trait_impl: bool,
    file: usize,
    krate: &Option<String>,
    out: &mut Vec<FnDef>,
) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("impl") {
            if let Some((target, is_trait, body, next)) = parse_impl_header(toks, i) {
                collect_fns(body, Some(&target), is_trait, file, krate, out);
                i = next;
                continue;
            }
        }
        if toks[i].is_ident("fn") {
            if let Some((def, next)) = parse_fn(toks, i, owner, trait_impl, file, krate) {
                out.push(def);
                i = next;
                continue;
            }
        }
        if let Tok::Group { tokens, .. } = &toks[i] {
            // Module bodies and other non-impl groups: free fns inside
            // them have no owner.
            collect_fns(tokens, None, false, file, krate, out);
        }
        i += 1;
    }
}

/// Parses an impl header starting at `toks[i]` (`impl` keyword).
/// Returns `(target, is_trait_impl, body, index_after_body)`.
fn parse_impl_header(toks: &[Tok], i: usize) -> Option<(String, bool, &[Tok], usize)> {
    let mut before_for: Vec<&str> = Vec::new();
    let mut after_for: Vec<&str> = Vec::new();
    let mut saw_for = false;
    let mut saw_where = false;
    let mut angle = 0i32;
    let mut j = i + 1;
    while j < toks.len() {
        match &toks[j] {
            Tok::Group {
                delim: '{', tokens, ..
            } => {
                let target = if saw_for {
                    after_for.first().copied()
                } else {
                    before_for.last().copied()
                }?;
                return Some((target.to_string(), saw_for, tokens, j + 1));
            }
            t if t.is_punct('<') => angle += 1,
            t if t.is_punct('>') => angle -= 1,
            t if t.is_ident("for") && angle == 0 => saw_for = true,
            t if t.is_ident("where") && angle == 0 => saw_where = true,
            Tok::Leaf(tok) if angle == 0 && !saw_where => {
                if let Some(name) = tok.ident() {
                    if saw_for {
                        after_for.push(name);
                    } else {
                        before_for.push(name);
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses a fn item starting at `toks[i]` (`fn` keyword). Returns the
/// definition and the index just past the body. Bodyless fns (trait
/// method signatures) are skipped but still advance the cursor.
fn parse_fn(
    toks: &[Tok],
    i: usize,
    owner: Option<&str>,
    trait_impl: bool,
    file: usize,
    krate: &Option<String>,
) -> Option<(FnDef, usize)> {
    let is_pub = {
        // Walk back over qualifiers (`pub const unsafe fn`). Only
        // plain `pub` counts: `pub(crate)` helpers are internal
        // vocabulary, audited through their public callers.
        let mut j = i;
        let mut found = false;
        while j > 0 {
            j -= 1;
            match &toks[j] {
                t if t.is_ident("pub") => {
                    found = !matches!(toks.get(j + 1), Some(g) if g.is_group('('));
                    break;
                }
                t if t.is_ident("const") || t.is_ident("unsafe") || t.is_ident("async") => {}
                t if t.is_group('(') => {}
                _ => break,
            }
        }
        found
    };
    let name_tok = toks.get(i + 1)?;
    let name = name_tok.ident()?.to_string();
    let span = name_tok.span();
    // Find the parameter list and body, skipping generics; inside
    // `<...>` the angle depth is positive, so `Fn(..)` bounds never
    // masquerade as the parameter list.
    let mut angle = 0i32;
    let mut params: Option<&[Tok]> = None;
    let mut body: Option<&[Tok]> = None;
    let mut j = i + 2;
    while j < toks.len() {
        match &toks[j] {
            t if t.is_punct('<') => angle += 1,
            t if t.is_punct('>') => angle -= 1,
            Tok::Group {
                delim: '(', tokens, ..
            } if params.is_none() && angle <= 0 => params = Some(tokens),
            Tok::Group {
                delim: '{', tokens, ..
            } => {
                body = Some(tokens);
                break;
            }
            t if t.is_punct(';') => break,
            _ => {}
        }
        j += 1;
    }
    let body = body?;
    let mut_self = params.is_some_and(takes_mut_self);
    Some((
        FnDef {
            name,
            owner: owner.map(|s| s.to_string()),
            trait_impl,
            is_pub,
            mut_self,
            file,
            krate: krate.clone(),
            span,
            body: body.to_vec(),
        },
        j + 1,
    ))
}

/// Whether the first parameter is `&mut self` (lifetimes allowed).
fn takes_mut_self(params: &[Tok]) -> bool {
    let first: Vec<&Tok> = params.iter().take_while(|t| !t.is_punct(',')).collect();
    first.iter().any(|t| t.is_punct('&'))
        && first.iter().any(|t| t.is_ident("mut"))
        && first.iter().any(|t| t.is_ident("self"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(files: &[(&str, &str)]) -> SymbolTable {
        let fas: Vec<FileAnalysis> = files.iter().map(|(p, s)| FileAnalysis::new(p, s)).collect();
        SymbolTable::build(&fas)
    }

    #[test]
    fn collects_methods_free_fns_and_visibility() {
        let t = table(&[(
            "crates/core/src/engine.rs",
            "impl SecureMemory {\n\
               pub fn store(&mut self, a: u64) -> R { Ok(()) }\n\
               pub(crate) fn helper(&mut self) { }\n\
             }\n\
             fn free() { }\n\
             impl StatRegister for SecureMemory { fn register(&self) { } }\n",
        )]);
        let names: Vec<(&str, Option<&str>, bool, bool, bool)> = t
            .fns
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.owner.as_deref(),
                    f.is_pub,
                    f.mut_self,
                    f.trait_impl,
                )
            })
            .collect();
        assert_eq!(
            names,
            [
                ("store", Some("SecureMemory"), true, true, false),
                ("helper", Some("SecureMemory"), false, true, false),
                ("free", None, false, false, false),
                ("register", Some("SecureMemory"), false, false, true),
            ]
        );
        assert_eq!(t.fns[0].krate.as_deref(), Some("core"));
    }

    #[test]
    fn resolve_prefers_owner_then_file_then_crate() {
        let t = table(&[
            (
                "crates/core/src/a.rs",
                "impl Engine { fn op(&mut self) { tick() } fn tick(&mut self) {} }\n\
                 fn tick() {}\n",
            ),
            ("crates/kv/src/b.rs", "fn tick() {}\n"),
        ]);
        let from = t.fns.iter().find(|f| f.name == "op").unwrap();
        let got = t.resolve(from, "tick").expect("resolved");
        let d = &t.fns[got];
        assert_eq!(d.owner.as_deref(), Some("Engine"), "method wins");
        // Two equally-plausible foreign candidates: unresolved.
        let free = t
            .fns
            .iter()
            .find(|f| f.name == "tick" && f.owner.is_none())
            .unwrap();
        assert!(t.resolve(free, "nonexistent").is_none());
    }
}
