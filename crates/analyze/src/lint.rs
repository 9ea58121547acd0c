//! The lint framework: analysed files, rules, findings, suppressions,
//! and the human / JSON renderers.

use crate::lexer::{self, Comment};
use crate::tree::{self, Tok};

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth fixing; does not fail a default run.
    Warning,
    /// Fails the run.
    Error,
}

impl Severity {
    /// Lowercase display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule ID (`determinism/hash-order`, ...).
    pub rule: &'static str,
    /// The rule's severity.
    pub severity: Severity,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// One parsed `// triad-lint: allow(...)` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Line the directive anchors to (a block comment anchors to its
    /// ending line).
    pub line: u32,
    /// The rule IDs being allowed (or `all`).
    pub rules: Vec<String>,
    /// Whether a `-- reason` rationale follows the closing paren.
    pub has_rationale: bool,
}

/// A source file, lexed and pre-digested for the rules.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Workspace-relative path with forward slashes
    /// (`crates/core/src/engine.rs`).
    pub path: String,
    /// The nested token tree.
    pub toks: Vec<Tok>,
    /// Inclusive line ranges occupied by `#[test]` / `#[cfg(test)]`
    /// items.
    pub test_ranges: Vec<(u32, u32)>,
    /// Parsed `triad-lint: allow(...)` directives.
    pub suppressions: Vec<Suppression>,
}

impl FileAnalysis {
    /// Lexes and digests one file. `path` is the workspace-relative
    /// path the rules scope on — callers may pass a *virtual* path to
    /// lint fixture text as if it lived elsewhere.
    pub fn new(path: &str, source: &str) -> Self {
        let lexed = lexer::lex(source);
        let toks = tree::build(&lexed.tokens);
        let test_ranges = tree::test_line_ranges(&toks);
        let suppressions = parse_suppressions(&lexed.comments);
        FileAnalysis {
            path: path.replace('\\', "/"),
            toks,
            test_ranges,
            suppressions,
        }
    }

    /// Whether `line` is inside test-only code — either a `#[test]` /
    /// `#[cfg(test)]` item or a file under a `tests/` directory.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.is_test_file()
            || self
                .test_ranges
                .iter()
                .any(|(a, b)| (*a..=*b).contains(&line))
    }

    /// Whether the whole file is test code (an integration-test tree).
    pub fn is_test_file(&self) -> bool {
        self.path.starts_with("tests/") || self.path.contains("/tests/")
    }

    /// Whether findings of `rule` on `line` are suppressed: an
    /// `// triad-lint: allow(rule)` comment suppresses its own line
    /// and the line immediately below it.
    pub fn is_suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions.iter().any(|s| {
            (s.line == line || s.line + 1 == line)
                && s.rules.iter().any(|r| r == rule || r == "all")
        })
    }

    /// Whether the path sits under any of `prefixes`.
    pub fn in_any(&self, prefixes: &[&str]) -> bool {
        prefixes.iter().any(|p| self.path.starts_with(p))
    }
}

/// Extracts `triad-lint: allow(a, b) -- reason` directives from
/// comments. A block comment anchors to its *ending* line, so the
/// directive can sit in a comment block directly above the code it
/// excuses.
///
/// The directive must be the *start* of the comment (after the `//` /
/// `/*` marker, doc-comment `!`, and whitespace). Anchoring matters:
/// prose that merely mentions the syntax — the module docs of this very
/// crate do — must not become a live suppression, and an `allow(all)`
/// example in a doc comment must never silence real findings on the
/// line below it.
fn parse_suppressions(comments: &[Comment]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = body.strip_prefix("triad-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = args.find(')') else {
            continue;
        };
        let rules: Vec<String> = args[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let tail = args[close + 1..].trim();
        let has_rationale = tail
            .strip_prefix("--")
            .is_some_and(|r| !r.trim_matches(['*', '/', ' ', '\t']).is_empty());
        if !rules.is_empty() {
            out.push(Suppression {
                line: c.end_line,
                rules,
                has_rationale,
            });
        }
    }
    out
}

/// A lint rule.
pub trait Rule {
    /// Stable rule ID, e.g. `determinism/hash-order`.
    fn id(&self) -> &'static str;
    /// Severity of this rule's findings.
    fn severity(&self) -> Severity;
    /// One-line description for `--list-rules` and docs.
    fn description(&self) -> &'static str;
    /// Runs the rule over one file, pushing findings.
    fn check(&self, file: &FileAnalysis, out: &mut Vec<Finding>);
}

/// A lint rule that needs the whole workspace — symbol table, call
/// graph and effect inference — rather than one file at a time.
/// Workspace rules run after the per-file rules; their findings pass
/// through the same per-file suppression filter.
pub trait WorkspaceRule {
    /// Stable rule ID, e.g. `persist-order`.
    fn id(&self) -> &'static str;
    /// Severity of this rule's findings.
    fn severity(&self) -> Severity;
    /// One-line description for `--list-rules` and docs.
    fn description(&self) -> &'static str;
    /// Runs the rule over the workspace, pushing findings.
    fn check(&self, ws: &crate::Workspace, out: &mut Vec<Finding>);
}

/// Runs `rules` over `file`, dropping suppressed findings.
/// `suppression-rationale` findings are exempt from the filter: a bare
/// `allow(all)` must not silence the warning demanding its rationale.
pub fn run_rules(file: &FileAnalysis, rules: &[Box<dyn Rule>], out: &mut Vec<Finding>) {
    let mut raw = Vec::new();
    for rule in rules {
        rule.check(file, &mut raw);
    }
    out.extend(
        raw.into_iter()
            .filter(|f| f.rule == "suppression-rationale" || !file.is_suppressed(f.rule, f.line)),
    );
}

/// Renders findings for terminals, one line each, plus a summary line.
pub fn render_human(findings: &[Finding], files_scanned: usize) -> String {
    let mut s = String::new();
    for f in findings {
        s.push_str(&format!(
            "{}:{}:{} {}[{}]: {}\n",
            f.path,
            f.line,
            f.col,
            f.severity.as_str(),
            f.rule,
            f.message
        ));
    }
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let warnings = findings.len() - errors;
    if findings.is_empty() {
        s.push_str(&format!("triad-lint: clean ({files_scanned} files)\n"));
    } else {
        s.push_str(&format!(
            "triad-lint: {} finding{} ({errors} error{}, {warnings} warning{}) in {files_scanned} files\n",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" },
            if errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
        ));
    }
    s
}

/// Renders findings as a single JSON object (hand-rolled — the
/// zero-dependency policy applies to the linter too).
pub fn render_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut s = String::from("{\"files_scanned\":");
    s.push_str(&files_scanned.to_string());
    s.push_str(",\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":{},\"severity\":{},\"path\":{},\"line\":{},\"col\":{},\"message\":{}}}",
            json_str(f.rule),
            json_str(f.severity.as_str()),
            json_str(&f.path),
            f.line,
            f.col,
            json_str(&f.message)
        ));
    }
    s.push_str("]}");
    s
}

/// `v` as a JSON string literal: the escaping of
/// `triad_sim::events::write_json_str`, copied because this crate
/// depends on no workspace crate.
fn json_str(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_covers_own_line_and_next() {
        let src = "// triad-lint: allow(x/y)\nline2();\nline3();\n";
        let f = FileAnalysis::new("crates/core/src/a.rs", src);
        assert!(f.is_suppressed("x/y", 1));
        assert!(f.is_suppressed("x/y", 2));
        assert!(!f.is_suppressed("x/y", 3));
        assert!(!f.is_suppressed("other", 2));
    }

    #[test]
    fn suppression_parses_multiple_rules() {
        let src = "foo(); // triad-lint: allow(a, b/c)\n";
        let f = FileAnalysis::new("x.rs", src);
        assert!(f.is_suppressed("a", 1));
        assert!(f.is_suppressed("b/c", 1));
    }

    #[test]
    fn suppression_records_rationale_presence() {
        let src = "a(); // triad-lint: allow(x) -- invariant held by caller\n\
                   b(); // triad-lint: allow(y)\n\
                   c(); // triad-lint: allow(z) --\n";
        let f = FileAnalysis::new("x.rs", src);
        assert_eq!(f.suppressions.len(), 3);
        assert!(f.suppressions[0].has_rationale);
        assert!(!f.suppressions[1].has_rationale, "no -- tail");
        assert!(!f.suppressions[2].has_rationale, "empty -- tail");
        // All three still suppress their rules.
        assert!(f.is_suppressed("x", 1) && f.is_suppressed("y", 2) && f.is_suppressed("z", 3));
    }

    #[test]
    fn suppression_must_anchor_at_comment_start() {
        // Prose that mentions the syntax is not a directive: an
        // `allow(all)` example in a doc comment must never silence the
        // line below it.
        let src = "//! docs mention `// triad-lint: allow(all)` here\nreal_code();\n";
        let f = FileAnalysis::new("x.rs", src);
        assert!(f.suppressions.is_empty(), "{:?}", f.suppressions);
        assert!(!f.is_suppressed("all", 2));
        // Doc-comment and block forms that *do* start with it still work.
        let g = FileAnalysis::new(
            "y.rs",
            "/* triad-lint: allow(q) -- replay-only */ code();\n",
        );
        assert_eq!(g.suppressions.len(), 1);
        assert!(g.suppressions[0].has_rationale);
    }

    #[test]
    fn tests_dir_paths_are_all_test_code() {
        let f = FileAnalysis::new("crates/core/tests/stress.rs", "fn x() {}");
        assert!(f.is_test_line(1));
        let g = FileAnalysis::new("tests/end_to_end.rs", "fn x() {}");
        assert!(g.is_test_line(1));
        let h = FileAnalysis::new("crates/core/src/engine.rs", "fn x() {}");
        assert!(!h.is_test_line(1));
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let f = Finding {
            rule: "r",
            severity: Severity::Error,
            path: "p.rs".to_string(),
            line: 1,
            col: 2,
            message: "say \"hi\"\n".to_string(),
        };
        let j = render_json(&[f], 1);
        assert!(j.contains("\\\"hi\\\""));
        assert!(j.contains("\\n"));
    }
}
