//! The shared workspace lexer every lint rule consumes.
//!
//! [`lex`] turns one Rust source file into a positioned token stream:
//! comments (line, doc, nested block) vanish, string/char literal
//! *contents* become opaque single tokens, and everything else —
//! identifiers, lifetimes, numbers, punctuation — carries its original
//! 0-based line. Rules therefore cannot match inside a string literal
//! or a doc comment *by construction*, which kills the false-positive
//! classes the old per-rule scrubbed-line scanners each re-fought.
//!
//! The lexer is deliberately not a parser: it recognizes exactly the
//! lexical shapes that matter for region masking and rule matching
//! (raw strings `r#".."#`, byte strings `b".."`, raw identifiers
//! `r#ident`, char-vs-lifetime disambiguation, float-vs-int literals
//! including exponents and suffixes) and leaves grammar to the rules,
//! which pattern-match short token windows.
//!
//! [`attr_regions`] derives line masks for attribute-gated items
//! (`#[cfg(test)]`, `#[cfg(debug_assertions)]`) by brace-matching over
//! tokens, so nested test modules and debug-only blocks mask correctly
//! even when a stray `}` sits in a string literal somewhere above them.

/// What a token is — just enough classification for the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`fn`, `as`, `HashMap`, `r#type`).
    Ident,
    /// Lifetime (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// Integer literal (`42`, `0xff`, `1_000u64`).
    Int,
    /// Float literal (`1.0`, `1e-9`, `2f64`).
    Float,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Punctuation, longest-matched (`==`, `!=`, `::`, `->`, `[`, …).
    Punct,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification.
    pub kind: Kind,
    /// Verbatim source text (strings keep their delimiters).
    pub text: String,
    /// 0-based line of the token's first byte.
    pub line: usize,
}

impl Token {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }

    /// Is this punctuation with exactly this text?
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == Kind::Punct && self.text == s
    }
}

/// Multi-character punctuation, longest first so `==` beats `=`.
const PUNCTS: &[&str] = &[
    "..=", "...", "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Lexes `src` into a token stream. Comments disappear; literal
/// contents are opaque. Never fails — unrecognized bytes become
/// single-character [`Kind::Punct`] tokens, which no rule matches.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 0usize;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            // Line comments (including `///` and `//!` docs).
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            // Nested block comments.
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                let (end, nl) = scan_string(b, i);
                out.push(Token {
                    kind: Kind::Str,
                    text: src[i..end].to_string(),
                    line,
                });
                line += nl;
                i = end;
            }
            b'r' | b'b' if raw_or_byte_literal(b, i).is_some() => {
                let start = i;
                let start_line = line;
                // Skip the prefix (`r`, `b`, `br`).
                let kind = match raw_or_byte_literal(b, i) {
                    Some(RawKind::RawStr(prefix)) => {
                        i += prefix;
                        let mut hashes = 0usize;
                        while b.get(i) == Some(&b'#') {
                            hashes += 1;
                            i += 1;
                        }
                        i += 1; // opening quote
                        'scan: while i < b.len() {
                            if b[i] == b'"' && (1..=hashes).all(|h| b.get(i + h) == Some(&b'#')) {
                                i += 1 + hashes;
                                break 'scan;
                            }
                            if b[i] == b'\n' {
                                line += 1;
                            }
                            i += 1;
                        }
                        Kind::Str
                    }
                    Some(RawKind::ByteStr) => {
                        i += 1; // the `b`
                        let (end, nl) = scan_string(b, i);
                        line += nl;
                        i = end;
                        Kind::Str
                    }
                    Some(RawKind::ByteChar) => {
                        i += 1; // the `b`
                        i = scan_char(b, i);
                        Kind::Char
                    }
                    Some(RawKind::RawIdent) => {
                        i += 2; // `r#`
                        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                            i += 1;
                        }
                        Kind::Ident
                    }
                    None => unreachable!("guard checked raw_or_byte_literal"),
                };
                out.push(Token {
                    kind,
                    text: src[start..i].to_string(),
                    line: start_line,
                });
            }
            b'\'' => {
                // Char literal vs lifetime: `'x'` / `'\n'` are chars;
                // `'a` with no close quote right after is a lifetime.
                if b.get(i + 1) == Some(&b'\\') || b.get(i + 2) == Some(&b'\'') {
                    let end = scan_char(b, i);
                    out.push(Token {
                        kind: Kind::Char,
                        text: src[i..end].to_string(),
                        line,
                    });
                    i = end;
                } else {
                    let start = i;
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    out.push(Token {
                        kind: Kind::Lifetime,
                        text: src[start..i].to_string(),
                        line,
                    });
                }
            }
            _ if c.is_ascii_digit() => {
                let (end, kind) = scan_number(b, i);
                out.push(Token {
                    kind,
                    text: src[i..end].to_string(),
                    line,
                });
                i = end;
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    kind: Kind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            _ => {
                let rest = &src[i..];
                let p = PUNCTS
                    .iter()
                    .find(|p| rest.starts_with(**p))
                    .copied()
                    .map(str::len)
                    .unwrap_or_else(|| {
                        // Single char; step over full UTF-8 sequences.
                        rest.chars().next().map(char::len_utf8).unwrap_or(1)
                    });
                out.push(Token {
                    kind: Kind::Punct,
                    text: src[i..i + p].to_string(),
                    line,
                });
                i += p;
            }
        }
    }
    out
}

enum RawKind {
    /// `r"…"` (prefix 1) or `br"…"` (prefix 2), possibly with hashes.
    RawStr(usize),
    /// `b"…"`.
    ByteStr,
    /// `b'…'`.
    ByteChar,
    /// `r#ident`.
    RawIdent,
}

/// Classifies an `r`/`b` at `i` as a literal prefix, or `None` when it
/// is just the start (or middle) of an ordinary identifier.
fn raw_or_byte_literal(b: &[u8], i: usize) -> Option<RawKind> {
    if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        return None;
    }
    match b[i] {
        b'r' => match b.get(i + 1) {
            Some(&b'"') => Some(RawKind::RawStr(1)),
            Some(&b'#') => {
                // `r#"…"#` is a raw string; `r#ident` a raw identifier.
                let mut j = i + 1;
                while b.get(j) == Some(&b'#') {
                    j += 1;
                }
                if b.get(j) == Some(&b'"') {
                    Some(RawKind::RawStr(1))
                } else {
                    Some(RawKind::RawIdent)
                }
            }
            _ => None,
        },
        b'b' => match b.get(i + 1) {
            Some(&b'"') => Some(RawKind::ByteStr),
            Some(&b'\'') => Some(RawKind::ByteChar),
            Some(&b'r') if matches!(b.get(i + 2), Some(&b'"') | Some(&b'#')) => {
                Some(RawKind::RawStr(2))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Scans a `"…"` literal starting at the opening quote; returns the
/// byte offset just past the closing quote and the newline count.
fn scan_string(b: &[u8], start: usize) -> (usize, usize) {
    let mut i = start + 1;
    let mut nl = 0usize;
    while i < b.len() {
        match b[i] {
            b'\\' => {
                // A line-continuation escape still ends the physical
                // line — count it or every later token misaligns.
                if b.get(i + 1) == Some(&b'\n') {
                    nl += 1;
                }
                i += 2;
            }
            b'"' => return (i + 1, nl),
            b'\n' => {
                nl += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (i, nl)
}

/// Scans a `'…'` char literal starting at the opening quote; returns
/// the offset just past the closing quote.
fn scan_char(b: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Scans a numeric literal; floats are decimals with a fraction part,
/// a decimal exponent, or an explicit `f32`/`f64` suffix.
fn scan_number(b: &[u8], start: usize) -> (usize, Kind) {
    let mut i = start;
    let hex = b[i] == b'0' && matches!(b.get(i + 1), Some(&b'x') | Some(&b'X'));
    let mut float = false;
    if hex {
        i += 2;
        while i < b.len() && (b[i].is_ascii_hexdigit() || b[i] == b'_') {
            i += 1;
        }
    } else {
        while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
            i += 1;
        }
        // Fraction part — but `1..2` is a range and `1.max(2)` a call.
        if b.get(i) == Some(&b'.') && b.get(i + 1).is_some_and(u8::is_ascii_digit) {
            float = true;
            i += 1;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                i += 1;
            }
        }
        // Exponent.
        if matches!(b.get(i), Some(&b'e') | Some(&b'E')) {
            let mut j = i + 1;
            if matches!(b.get(j), Some(&b'+') | Some(&b'-')) {
                j += 1;
            }
            if b.get(j).is_some_and(u8::is_ascii_digit) {
                float = true;
                i = j;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                    i += 1;
                }
            }
        }
    }
    // Type suffix (`u64`, `f64`, `usize`, …).
    let suffix_start = i;
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
        i += 1;
    }
    let suffix = &b[suffix_start..i];
    if suffix == b"f32" || suffix == b"f64" {
        float = true;
    }
    (i, if float { Kind::Float } else { Kind::Int })
}

/// One `#[…]` (or `#![…]`) attribute and the extent of the item it
/// gates, as 0-based line bounds.
#[derive(Debug)]
pub struct AttrRegion {
    /// First masked line (the attribute's own line).
    pub first_line: usize,
    /// Last masked line (the gated item's closing brace/semicolon —
    /// end of file for inner `#![…]` attributes).
    pub last_line: usize,
}

/// Finds every attribute whose bracketed tokens satisfy `pred` and
/// computes the line extent of the item each one gates: skip any
/// stacked attributes, then run to the matching `}` of the item's
/// first `{`, or to the first top-level `;` for brace-less items.
pub fn attr_regions(tokens: &[Token], pred: impl Fn(&[String]) -> bool) -> Vec<AttrRegion> {
    let mut out = Vec::new();
    let last_line = tokens.last().map_or(0, |t| t.line);
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct("#") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = tokens.get(j).is_some_and(|t| t.is_punct("!"));
        if inner {
            j += 1;
        }
        if !tokens.get(j).is_some_and(|t| t.is_punct("[")) {
            i += 1;
            continue;
        }
        // Collect the bracketed predicate tokens.
        let mut depth = 0usize;
        let mut pred_tokens = Vec::new();
        let attr_end;
        loop {
            let Some(t) = tokens.get(j) else {
                return out; // unterminated attribute at EOF
            };
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    attr_end = j;
                    break;
                }
            }
            if depth >= 1 && !(depth == 1 && t.is_punct("[")) {
                pred_tokens.push(t.text.clone());
            }
            j += 1;
        }
        if !pred(&pred_tokens) {
            i = attr_end + 1;
            continue;
        }
        if inner {
            // `#![…]` gates the enclosing scope; approximate as
            // everything to end of file (inner attrs only appear at
            // the top of the files this workspace lints).
            out.push(AttrRegion {
                first_line: tokens[i].line,
                last_line,
            });
            i = attr_end + 1;
            continue;
        }
        // Skip stacked attributes between this one and the item.
        let mut k = attr_end + 1;
        while tokens.get(k).is_some_and(|t| t.is_punct("#"))
            && tokens.get(k + 1).is_some_and(|t| t.is_punct("["))
        {
            let mut d = 0usize;
            k += 1;
            while let Some(t) = tokens.get(k) {
                if t.is_punct("[") {
                    d += 1;
                } else if t.is_punct("]") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
        }
        // Run to the item's end: matching `}` of the first `{`, or a
        // top-level `;` before any brace.
        let mut brace = 0usize;
        let mut end_line = tokens.get(k).map_or(tokens[i].line, |t| t.line);
        while let Some(t) = tokens.get(k) {
            end_line = t.line;
            if t.is_punct("{") {
                brace += 1;
            } else if t.is_punct("}") {
                brace = brace.saturating_sub(1);
                if brace == 0 {
                    break;
                }
            } else if t.is_punct(";") && brace == 0 {
                break;
            }
            k += 1;
        }
        out.push(AttrRegion {
            first_line: tokens[i].line,
            last_line: end_line,
        });
        i = attr_end + 1;
    }
    out
}

/// Per-line mask over `n_lines` marking every [`AttrRegion`].
pub fn region_mask(n_lines: usize, regions: &[AttrRegion]) -> Vec<bool> {
    let mut mask = vec![false; n_lines];
    for r in regions {
        for m in mask
            .iter_mut()
            .take(r.last_line.min(n_lines.saturating_sub(1)) + 1)
            .skip(r.first_line)
        {
            *m = true;
        }
    }
    mask
}

/// Regions covered by a `# Panics` doc contract: from the doc comment
/// line to the end of the item it documents. A documented panic is a
/// published API precondition, not an accidental abort path, so the
/// `panic-path` rule exempts these regions.
pub fn doc_panic_regions(raw: &str, tokens: &[Token]) -> Vec<AttrRegion> {
    let mut out = Vec::new();
    for (line0, line) in raw.lines().enumerate() {
        let t = line.trim_start();
        if !(t.starts_with("///") && t.contains("# Panics")) {
            continue;
        }
        // The documented item starts at the first token past the doc
        // block (doc comments produce no tokens); run to its matching
        // `}` or a top-level `;`, as for attribute regions.
        let Some(start) = tokens.iter().position(|x| x.line > line0) else {
            continue;
        };
        let mut brace = 0usize;
        let mut end_line = tokens[start].line;
        let mut k = start;
        while let Some(x) = tokens.get(k) {
            end_line = x.line;
            if x.is_punct("{") {
                brace += 1;
            } else if x.is_punct("}") {
                brace = brace.saturating_sub(1);
                if brace == 0 {
                    break;
                }
            } else if x.is_punct(";") && brace == 0 {
                break;
            }
            k += 1;
        }
        out.push(AttrRegion {
            first_line: line0,
            last_line: end_line,
        });
    }
    out
}

/// Does this attribute predicate read exactly `cfg(test)`?
pub fn is_cfg_test(pred: &[String]) -> bool {
    pred.len() == 4 && pred[0] == "cfg" && pred[1] == "(" && pred[2] == "test" && pred[3] == ")"
}

/// Is this a `cfg(…)` attribute whose predicate mentions
/// `debug_assertions` — i.e. code that only exists in debug builds?
pub fn is_cfg_debug_assertions(pred: &[String]) -> bool {
    pred.first().map(String::as_str) == Some("cfg") && pred.iter().any(|t| t == "debug_assertions")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn comments_and_strings_produce_no_spurious_tokens() {
        let src = "let x = \"a.unwrap()\"; // .unwrap()\nlet y = 1; /* == 0.0 */\n";
        let toks = lex(src);
        assert!(!toks
            .iter()
            .any(|t| t.text.contains("unwrap") && t.kind != Kind::Str));
        assert!(!toks.iter().any(|t| t.is_punct("==")));
        // The string is one opaque token on line 0; `y` sits on line 1.
        assert_eq!(toks.iter().find(|t| t.is_ident("y")).unwrap().line, 1);
    }

    #[test]
    fn raw_strings_chars_and_lifetimes() {
        let src = "let r = r#\"x.unwrap()\"#; let c = '='; fn f<'a>(x: &'a str) {}";
        let toks = lex(src);
        let raw = toks.iter().find(|t| t.kind == Kind::Str).unwrap();
        assert_eq!(raw.text, "r#\"x.unwrap()\"#");
        assert!(!toks
            .iter()
            .any(|t| t.kind == Kind::Ident && t.text == "unwrap"));
        assert!(toks.iter().any(|t| t.kind == Kind::Char && t.text == "'='"));
        assert_eq!(toks.iter().filter(|t| t.kind == Kind::Lifetime).count(), 2);
    }

    #[test]
    fn multiline_strings_keep_line_numbers_aligned() {
        let src = "let s = \"one \\\ntwo\";\nx.unwrap();\n";
        let toks = lex(src);
        assert_eq!(toks.iter().find(|t| t.is_ident("unwrap")).unwrap().line, 2);
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let toks = lex("/* outer /* inner */ still */ let live = 1;");
        assert!(toks.iter().any(|t| t.is_ident("live")));
        assert!(!toks.iter().any(|t| t.is_ident("outer")));
    }

    #[test]
    fn numbers_classify_int_vs_float() {
        let toks =
            lex("let a = 1; let b = 1.5; let c = 1e-9; let d = 2f64; let e = 0x1e; let r = 1..2;");
        let kind_of = |name: &str| {
            let i = toks.iter().position(|t| t.is_ident(name)).unwrap();
            toks[i + 2].kind
        };
        assert_eq!(kind_of("a"), Kind::Int);
        assert_eq!(kind_of("b"), Kind::Float);
        assert_eq!(kind_of("c"), Kind::Float);
        assert_eq!(kind_of("d"), Kind::Float);
        assert_eq!(kind_of("e"), Kind::Int, "0x1e is hex, not an exponent");
        assert_eq!(kind_of("r"), Kind::Int, "1..2 is a range of ints");
        assert!(toks.iter().any(|t| t.is_punct("..")));
    }

    #[test]
    fn multichar_puncts_lex_greedily() {
        assert_eq!(
            texts("a == b != c :: d -> e"),
            vec!["a", "==", "b", "!=", "c", "::", "d", "->", "e"]
        );
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let toks = lex("let r#type = 1;");
        assert!(toks
            .iter()
            .any(|t| t.kind == Kind::Ident && t.text == "r#type"));
    }

    #[test]
    fn cfg_test_regions_cover_gated_items_only() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n    fn t() { y.unwrap(); }\n}\n\
                   fn live2() {}\n";
        let toks = lex(src);
        let mask = region_mask(6, &attr_regions(&toks, is_cfg_test));
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn stacked_attributes_and_braceless_items_mask_correctly() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nuse foo::bar;\nfn live() {}\n";
        let toks = lex(src);
        let mask = region_mask(4, &attr_regions(&toks, is_cfg_test));
        assert_eq!(mask, vec![true, true, true, false]);
    }

    #[test]
    fn cfg_any_with_test_is_not_cfg_test_but_is_debug() {
        let src = "#[cfg(any(debug_assertions, test))]\nfn check() { x.unwrap(); }\n\
                   #[cfg(feature = \"extra\")]\nfn gated() { x.unwrap(); }\n";
        let toks = lex(src);
        assert!(attr_regions(&toks, is_cfg_test).is_empty());
        // A cargo feature is not a debug build: only the first item masks.
        let dbg = attr_regions(&toks, is_cfg_debug_assertions);
        assert_eq!(dbg.len(), 1);
        assert_eq!((dbg[0].first_line, dbg[0].last_line), (0, 1));
    }

    #[test]
    fn a_stray_brace_in_a_string_does_not_break_masking() {
        let src = "const S: &str = \"}\";\n#[cfg(test)]\nmod t { fn x() {} }\nfn live() {}\n";
        let toks = lex(src);
        let mask = region_mask(4, &attr_regions(&toks, is_cfg_test));
        assert_eq!(mask, vec![false, true, true, false]);
    }

    #[test]
    fn inner_attributes_mask_to_end_of_file() {
        let src = "#![cfg(test)]\nfn a() {}\nfn b() {}\n";
        let toks = lex(src);
        let mask = region_mask(3, &attr_regions(&toks, is_cfg_test));
        assert_eq!(mask, vec![true, true, true]);
    }
}
