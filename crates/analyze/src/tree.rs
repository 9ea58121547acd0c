//! Token trees: the lexer's flat stream nested by bracket pairs, plus
//! the structural helpers rules share (test-region detection, `impl`
//! block discovery, struct-field extraction).

use crate::lexer::{Span, Token, TokenKind};

/// A token or a bracketed group of tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// A single non-bracket token.
    Leaf(Token),
    /// A `(...)`, `[...]` or `{...}` group.
    Group {
        /// Opening delimiter: `(`, `[` or `{`.
        delim: char,
        /// The tokens inside, nested.
        tokens: Vec<Tok>,
        /// Span of the opening delimiter.
        span: Span,
        /// Span of the closing delimiter (or last token when
        /// unterminated).
        end: Span,
    },
}

impl Tok {
    /// The identifier text, if this is an identifier leaf.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Leaf(t) => t.ident(),
            _ => None,
        }
    }

    /// Whether this is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }

    /// Whether this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Leaf(t) if t.is_punct(c))
    }

    /// Whether this is a group opened by `delim`.
    pub fn is_group(&self, d: char) -> bool {
        matches!(self, Tok::Group { delim, .. } if *delim == d)
    }

    /// Where this token (or group) starts.
    pub fn span(&self) -> Span {
        match self {
            Tok::Leaf(t) => t.span,
            Tok::Group { span, .. } => *span,
        }
    }
}

fn closer(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

fn build_group(tokens: &[Token], pos: &mut usize, until: Option<char>) -> (Vec<Tok>, Span) {
    let mut out = Vec::new();
    let mut end = Span { line: 1, col: 1 };
    while *pos < tokens.len() {
        let t = &tokens[*pos];
        end = t.span;
        match t.kind {
            TokenKind::Punct(c @ ('(' | '[' | '{')) => {
                let span = t.span;
                *pos += 1;
                let (inner, inner_end) = build_group(tokens, pos, Some(closer(c)));
                out.push(Tok::Group {
                    delim: c,
                    tokens: inner,
                    span,
                    end: inner_end,
                });
                end = inner_end;
            }
            TokenKind::Punct(c @ (')' | ']' | '}')) => {
                if until == Some(c) {
                    *pos += 1;
                    return (out, t.span);
                }
                // Stray closer: skip it rather than derailing the tree.
                *pos += 1;
            }
            _ => {
                out.push(Tok::Leaf(t.clone()));
                *pos += 1;
            }
        }
    }
    (out, end)
}

/// Nests a flat token stream into a token tree.
pub fn build(tokens: &[Token]) -> Vec<Tok> {
    let mut pos = 0;
    build_group(tokens, &mut pos, None).0
}

/// Line ranges (inclusive) occupied by test-only code: any item
/// carrying an attribute that mentions `test` (so `#[test]`,
/// `#[cfg(test)] mod tests { ... }`) — `#[cfg(not(test))]` is
/// explicitly *not* a test region.
pub fn test_line_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    collect_test_ranges(toks, &mut out);
    out
}

fn attr_is_test(tokens: &[Tok]) -> bool {
    let mut saw_test = false;
    let mut saw_not = false;
    scan_idents(tokens, &mut |name| match name {
        "test" => saw_test = true,
        "not" => saw_not = true,
        _ => {}
    });
    saw_test && !saw_not
}

fn scan_idents(tokens: &[Tok], f: &mut impl FnMut(&str)) {
    for t in tokens {
        match t {
            Tok::Leaf(tok) => {
                if let Some(name) = tok.ident() {
                    f(name);
                }
            }
            Tok::Group { tokens, .. } => scan_idents(tokens, f),
        }
    }
}

fn collect_test_ranges(toks: &[Tok], out: &mut Vec<(u32, u32)>) {
    let mut i = 0;
    while i < toks.len() {
        let is_attr_start =
            toks[i].is_punct('#') && matches!(toks.get(i + 1), Some(t) if t.is_group('['));
        if is_attr_start {
            let Some(Tok::Group { tokens: attr, .. }) = toks.get(i + 1) else {
                i += 1;
                continue;
            };
            if attr_is_test(attr) {
                let start = toks[i].span().line;
                // The attributed item runs to its body's closing brace,
                // or to the first `;` for brace-less items.
                let mut j = i + 2;
                let mut end = toks[i + 1].span().line;
                while j < toks.len() {
                    match &toks[j] {
                        Tok::Group {
                            delim: '{', end: e, ..
                        } => {
                            end = e.line;
                            break;
                        }
                        t if t.is_punct(';') => {
                            end = t.span().line;
                            break;
                        }
                        t => {
                            end = t.span().line;
                            j += 1;
                        }
                    }
                }
                out.push((start, end));
                i = j + 1;
                continue;
            }
        }
        if let Tok::Group { tokens, .. } = &toks[i] {
            collect_test_ranges(tokens, out);
        }
        i += 1;
    }
}

/// An `impl` block found in a file.
#[derive(Debug)]
pub struct ImplBlock<'a> {
    /// The implemented type's name (`SecureMemory` in
    /// `impl SecureMemory`, `SecureStats` in
    /// `impl StatRegister for SecureStats`).
    pub target: String,
    /// Trait name when this is a trait impl (`StatRegister`), else `None`.
    pub trait_name: Option<String>,
    /// The tokens of the impl body.
    pub body: &'a [Tok],
}

/// Finds every `impl` block at any nesting depth.
pub fn impl_blocks(toks: &[Tok]) -> Vec<ImplBlock<'_>> {
    let mut out = Vec::new();
    collect_impls(toks, &mut out);
    out
}

fn collect_impls<'a>(toks: &'a [Tok], out: &mut Vec<ImplBlock<'a>>) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("impl") {
            // Header runs until the body group (skipping generics and
            // where clauses); idents before/after `for` tell the story.
            let mut before_for: Vec<&str> = Vec::new();
            let mut after_for: Vec<&str> = Vec::new();
            let mut saw_for = false;
            let mut saw_where = false;
            let mut angle = 0i32;
            let mut j = i + 1;
            let mut body: Option<&[Tok]> = None;
            while j < toks.len() {
                match &toks[j] {
                    Tok::Group {
                        delim: '{', tokens, ..
                    } => {
                        body = Some(tokens);
                        break;
                    }
                    t if t.is_punct('<') => angle += 1,
                    t if t.is_punct('>') => angle -= 1,
                    t if t.is_ident("for") && angle == 0 => saw_for = true,
                    t if t.is_ident("where") && angle == 0 => {
                        // `where` ends the useful part of the header.
                        saw_where = true;
                    }
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
            if let Some(body) = body {
                let (target, trait_name) = if saw_for {
                    (
                        after_for.first().map(|s| s.to_string()),
                        before_for.last().map(|s| s.to_string()),
                    )
                } else {
                    (before_for.last().map(|s| s.to_string()), None)
                };
                if let Some(target) = target {
                    out.push(ImplBlock {
                        target,
                        trait_name,
                        body,
                    });
                }
                collect_impls(body, out);
                i = j + 1;
                continue;
            }
        }
        if let Tok::Group { tokens, .. } = &toks[i] {
            collect_impls(tokens, out);
        }
        i += 1;
    }
}

/// A named field of a struct definition.
#[derive(Debug, Clone)]
pub struct StructField {
    /// Field name.
    pub name: String,
    /// Where the field name appears.
    pub span: Span,
}

/// A `struct Name { fields }` definition.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// Its named fields (empty for tuple/unit structs).
    pub fields: Vec<StructField>,
}

/// Finds every brace-bodied struct definition at any nesting depth.
pub fn struct_defs(toks: &[Tok]) -> Vec<StructDef> {
    let mut out = Vec::new();
    collect_structs(toks, &mut out);
    out
}

fn collect_structs(toks: &[Tok], out: &mut Vec<StructDef>) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("struct") {
            if let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) {
                // Skip generics, find the brace body (tuple structs hit
                // `(` or `;` first and are skipped).
                let mut j = i + 2;
                let mut body: Option<&[Tok]> = None;
                while j < toks.len() {
                    match &toks[j] {
                        Tok::Group {
                            delim: '{', tokens, ..
                        } => {
                            body = Some(tokens);
                            break;
                        }
                        t if t.is_punct(';') || t.is_group('(') => break,
                        _ => j += 1,
                    }
                }
                if let Some(body) = body {
                    out.push(StructDef {
                        name: name.to_string(),
                        fields: parse_fields(body),
                    });
                    i = j + 1;
                    continue;
                }
            }
        }
        if let Tok::Group { tokens, .. } = &toks[i] {
            collect_structs(tokens, out);
        }
        i += 1;
    }
}

/// Splits a struct body on top-level commas (angle-bracket aware) and
/// takes the identifier immediately before each first `:` as the field
/// name.
fn parse_fields(body: &[Tok]) -> Vec<StructField> {
    let mut fields = Vec::new();
    let mut angle = 0i32;
    let mut segment: Vec<&Tok> = Vec::new();
    let flush = |segment: &mut Vec<&Tok>, fields: &mut Vec<StructField>| {
        for (k, t) in segment.iter().enumerate() {
            if t.is_punct(':') {
                if let Some(prev) = k.checked_sub(1).and_then(|p| segment.get(p)) {
                    if let Some(name) = prev.ident() {
                        fields.push(StructField {
                            name: name.to_string(),
                            span: prev.span(),
                        });
                    }
                }
                break;
            }
        }
        segment.clear();
    };
    for t in body {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct(',') && angle == 0 {
            flush(&mut segment, &mut fields);
            continue;
        }
        segment.push(t);
    }
    flush(&mut segment, &mut fields);
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> Vec<Tok> {
        build(&lex(src).tokens)
    }

    #[test]
    fn groups_nest() {
        let t = tree("fn f(a: u8) { g([1, 2]); }");
        assert!(t.iter().any(|x| x.is_group('(')));
        assert!(t.iter().any(|x| x.is_group('{')));
    }

    #[test]
    fn cfg_test_mod_is_a_test_range() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\nfn after() {}\n";
        let ranges = test_line_ranges(&tree(src));
        assert_eq!(ranges, vec![(2, 5)]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_range() {
        let src = "#[cfg(not(test))]\nfn shipped() { }\n";
        assert!(test_line_ranges(&tree(src)).is_empty());
    }

    #[test]
    fn test_attr_on_use_item_stops_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn real() {}\n";
        let ranges = test_line_ranges(&tree(src));
        assert_eq!(ranges, vec![(1, 2)]);
    }

    #[test]
    fn impls_are_found_with_targets_and_traits() {
        let src =
            "impl Foo { fn a(&self) {} }\nimpl StatRegister for Bar { fn register(&self) {} }";
        let toks = tree(src);
        let impls = impl_blocks(&toks);
        assert_eq!(impls.len(), 2);
        assert_eq!(impls[0].target, "Foo");
        assert_eq!(impls[0].trait_name, None);
        assert_eq!(impls[1].target, "Bar");
        assert_eq!(impls[1].trait_name.as_deref(), Some("StatRegister"));
    }

    #[test]
    fn struct_fields_survive_generic_types() {
        let src = "pub struct S { pub a: BTreeMap<String, u64>, b: Vec<(u8, u8)>, }";
        let defs = struct_defs(&tree(src));
        assert_eq!(defs.len(), 1);
        let names: Vec<_> = defs[0].fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn tuple_structs_have_no_named_fields() {
        assert!(struct_defs(&tree("struct T(u64);")).is_empty());
    }
}
