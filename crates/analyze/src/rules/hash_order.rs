//! `determinism/hash-order`: no default-hasher `HashMap`/`HashSet` in
//! the simulation path. The whole simulator is seeded on SplitMix64 so
//! that a run is a pure function of its config; `RandomState` iteration
//! order re-injects per-process entropy through every `iter()` loop.

use crate::lint::{FileAnalysis, Finding, Rule, Severity};
use crate::rules::walk_slices;

/// See module docs.
pub struct HashOrder;

/// Crates whose iteration order feeds simulation results.
const SCOPES: &[&str] = &[
    "crates/sim/",
    "crates/core/",
    "crates/mem/",
    "crates/meta/",
    "crates/kv/",
    "crates/recov/",
    "crates/cache/",
    "crates/workloads/",
];

impl Rule for HashOrder {
    fn id(&self) -> &'static str {
        "determinism/hash-order"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn description(&self) -> &'static str {
        "default-hasher HashMap/HashSet in a simulation crate leaks nondeterministic iteration order"
    }

    fn check(&self, file: &FileAnalysis, out: &mut Vec<Finding>) {
        if !file.in_any(SCOPES) {
            return;
        }
        walk_slices(&file.toks, &mut |toks, i| {
            let Some(name) = toks[i].ident() else {
                return;
            };
            if name != "HashMap" && name != "HashSet" {
                return;
            }
            let span = toks[i].span();
            if file.is_test_line(span.line) {
                return;
            }
            let ordered = if name == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            out.push(Finding {
                rule: self.id(),
                severity: self.severity(),
                path: file.path.clone(),
                line: span.line,
                col: span.col,
                message: format!(
                    "`{name}` iterates in nondeterministic order; use `{ordered}`, or `AddrMap`/`AddrSet` for a map that is never walked in order"
                ),
            });
        });
    }
}
