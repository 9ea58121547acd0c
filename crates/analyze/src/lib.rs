//! In-tree static analysis for the Triad-NVM workspace.
//!
//! The workspace's zero-dependency policy rules out `syn`/`clippy`
//! plumbing, so `triad-analyze` hand-rolls the whole stack: a Rust
//! [`lexer`], a bracket-nesting token [`tree`], a small [`lint`]
//! framework (stable rule IDs, severities, human + JSON output,
//! `// triad-lint: allow(<rule>)` suppressions), and the repo-specific
//! [`rules`] that mechanize the audits earlier PRs did by hand:
//!
//! | rule | checks |
//! |---|---|
//! | `determinism/hash-order` | no default-hasher maps in the simulation crates |
//! | `determinism/wall-clock` | no `Instant`/`SystemTime` outside `crates/bench` |
//! | `panic-policy` | no `unwrap`/`expect`/`panic!` in core/mem/meta non-test code |
//! | `persist-order` | every public engine op drains the eviction queue on Ok paths |
//! | `stats-registration` | every declared stat counter is reported |
//! | `suppression-rationale` | every `allow(...)` carries a `-- reason` |
//! | `shard-safety/*` | sharding-readiness: no shared mutable statics, ordered merges, forked RNG streams |
//!
//! Since v2 the crate also builds a whole-workspace model — a
//! [`symbols::SymbolTable`], a [`callgraph::CallGraph`] and inferred
//! [`effects`] per function — bundled as a [`Workspace`], so rules
//! like `persist-order` reason *interprocedurally*: an enqueue three
//! calls deep still taints the public operation that reaches it.
//!
//! The `triad-lint` binary drives [`analyze_repo`] from CI; tests and
//! fixtures drive [`analyze_source`] / [`analyze_sources`] with
//! virtual paths.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod effects;
pub mod lexer;
pub mod lint;
pub mod rules;
pub mod symbols;
pub mod tree;

pub use lint::{FileAnalysis, Finding, Rule, Severity, WorkspaceRule};
pub use symbols::SymbolTable;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The whole-workspace model the v2 rules run against: the analysed
/// files plus the symbol table, call graph and effect inference built
/// over all of them at once.
#[derive(Debug)]
pub struct Workspace {
    /// Every analysed file, in scan order.
    pub files: Vec<FileAnalysis>,
    /// Every fn definition across `files`.
    pub symbols: symbols::SymbolTable,
    /// Resolved call sites per fn.
    pub graph: callgraph::CallGraph,
    /// Inferred persist effects and flow summaries per fn.
    pub effects: effects::EffectTable,
}

impl Workspace {
    /// Builds the model over a set of analysed files. A single-file
    /// workspace is valid — that is how fixtures are linted — and
    /// unresolvable calls simply fall back to the identity transfer.
    pub fn new(files: Vec<FileAnalysis>) -> Workspace {
        let symbols = symbols::SymbolTable::build(&files);
        let graph = callgraph::CallGraph::build(&symbols);
        let effects = effects::EffectTable::build(&symbols, &graph);
        Workspace {
            files,
            symbols,
            graph,
            effects,
        }
    }

    /// Runs every per-file and workspace rule, applies suppressions,
    /// and returns the findings sorted by path, line, column, rule.
    pub fn findings(&self) -> Vec<Finding> {
        let per_file = rules::all();
        let mut out = Vec::new();
        for file in &self.files {
            lint::run_rules(file, &per_file, &mut out);
        }
        let mut raw = Vec::new();
        for rule in rules::workspace_all() {
            rule.check(self, &mut raw);
        }
        // Workspace findings pass the same per-file suppression filter.
        let by_path: BTreeMap<&str, &FileAnalysis> =
            self.files.iter().map(|f| (f.path.as_str(), f)).collect();
        out.extend(raw.into_iter().filter(|f| {
            by_path
                .get(f.path.as_str())
                .is_none_or(|fa| !fa.is_suppressed(f.rule, f.line))
        }));
        out.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
        out
    }
}

/// Lints one source text as if it lived at the workspace-relative
/// `path` (which is what the rules scope on).
pub fn analyze_source(path: &str, source: &str) -> Vec<Finding> {
    analyze_sources(&[(path, source)])
}

/// Lints several sources as one workspace under virtual paths, so
/// tests can exercise cross-file call resolution.
pub fn analyze_sources(files: &[(&str, &str)]) -> Vec<Finding> {
    let files = files.iter().map(|(p, s)| FileAnalysis::new(p, s)).collect();
    Workspace::new(files).findings()
}

/// The result of linting a whole workspace.
#[derive(Debug)]
pub struct RepoReport {
    /// All findings, sorted by path, line, column, rule.
    pub findings: Vec<Finding>,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
}

/// Lints the workspace under `root` (see [`load_repo`]).
pub fn analyze_repo(root: &Path) -> io::Result<RepoReport> {
    let ws = load_repo(root)?;
    Ok(RepoReport {
        findings: ws.findings(),
        files_scanned: ws.files.len(),
    })
}

/// Builds the model over every `.rs` file under `root`'s `src/`,
/// `crates/`, `tests/` and `examples/` trees, skipping `target/` and
/// anything under a `fixtures/` directory (fixtures *contain*
/// deliberate findings).
pub fn load_repo(root: &Path) -> io::Result<Workspace> {
    let mut files = Vec::new();
    for top in ["src", "crates", "tests", "examples"] {
        collect_rs(&root.join(top), &mut files)?;
    }
    files.sort();
    let mut analysed = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(path)?;
        analysed.push(FileAnalysis::new(&rel, &source));
    }
    Ok(Workspace::new(analysed))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_has_no_findings() {
        let src = "use std::collections::BTreeMap;\npub fn f() -> BTreeMap<u64, u64> { BTreeMap::new() }\n";
        assert!(analyze_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn findings_carry_rule_ids_and_spans() {
        let src = "use std::collections::HashMap;\n";
        let f = analyze_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "determinism/hash-order");
        assert_eq!((f[0].line, f[0].col), (1, 23));
    }
}
