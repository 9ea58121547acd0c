//! `stats-registration`: every declared stat counter is registered.
//! For each struct that implements `StatRegister` in the same file,
//! every named field must be referenced somewhere in an `impl` block
//! targeting that struct — a counter or histogram the engine updates
//! but `register` never emits is a silently dead measurement, and
//! figures built on the stat registry quietly lose a column.

use std::collections::BTreeSet;

use crate::lint::{FileAnalysis, Finding, Rule, Severity};
use crate::tree::{impl_blocks, struct_defs, Tok};

/// See module docs.
pub struct StatsRegistration;

/// Crates that export stat counters.
const SCOPES: &[&str] = &[
    "crates/sim/",
    "crates/cache/",
    "crates/mem/",
    "crates/core/",
    "crates/meta/",
    "crates/kv/",
    "crates/recov/",
];

/// The registry trait a stats struct hangs its counters and
/// `Histogram` fields on.
const SINK_TRAIT: &str = "StatRegister";

impl Rule for StatsRegistration {
    fn id(&self) -> &'static str {
        "stats-registration"
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn description(&self) -> &'static str {
        "every field of a StatRegister-implementing stats struct must be referenced by its impls"
    }

    fn check(&self, file: &FileAnalysis, out: &mut Vec<Finding>) {
        if !file.in_any(SCOPES) {
            return;
        }
        let impls = impl_blocks(&file.toks);
        for def in struct_defs(&file.toks) {
            let is_sink = impls
                .iter()
                .any(|ib| ib.target == def.name && ib.trait_name.as_deref() == Some(SINK_TRAIT));
            if !is_sink {
                continue;
            }
            let mut referenced = BTreeSet::new();
            for ib in impls.iter().filter(|ib| ib.target == def.name) {
                collect_idents(ib.body, &mut referenced);
            }
            for field in &def.fields {
                if referenced.contains(field.name.as_str()) || file.is_test_line(field.span.line) {
                    continue;
                }
                out.push(Finding {
                    rule: self.id(),
                    severity: self.severity(),
                    path: file.path.clone(),
                    line: field.span.line,
                    col: field.span.col,
                    message: format!(
                        "stat counter `{}.{}` is never referenced by any `impl {}` block — \
                         report it (or drop the field)",
                        def.name, field.name, def.name
                    ),
                });
            }
        }
    }
}

fn collect_idents(toks: &[Tok], out: &mut BTreeSet<String>) {
    for t in toks {
        match t {
            Tok::Group { tokens, .. } => collect_idents(tokens, out),
            leaf => {
                if let Some(name) = leaf.ident() {
                    out.insert(name.to_string());
                }
            }
        }
    }
}
