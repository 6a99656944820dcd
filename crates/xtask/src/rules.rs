//! The eight tdmd-audit lint rules, all consuming the shared
//! [`crate::lex`] token stream — no rule ever re-scans raw source, so
//! none can match inside a string literal or a doc comment.
//!
//! Determinism rules (`map-iter-order`, `wall-clock`) police the
//! bitwise-reproducibility contracts the repo's property tests pin
//! (snapshot restore+replay ≡ never stopping, batched apply ≡
//! one-by-one): a single `HashMap` iteration or wall-clock read in a
//! solver path breaks those silently until a seed happens to expose
//! it.

use crate::lex::{self, Kind, Token};

/// Every rule id, in reporting order. The allowlist validates its
/// `rule` keys against this list and the JSON report embeds it.
pub const RULES: &[&str] = &[
    "unwrap-expect",
    "float-eq",
    "as-cast",
    "partial-cmp",
    "map-iter-order",
    "wall-clock",
    "panic-path",
    "round-metric",
];

/// One rule hit, pointing at a repo-relative `file:line`.
#[derive(Debug)]
pub struct Violation {
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// The raw source line, for allowlist `contains` matching.
    pub line_text: String,
}

/// A loaded workspace source file: raw text, its token stream, and
/// the attribute-region masks the rules consult.
pub struct SourceFile {
    /// Repo-relative path (forward slashes).
    pub rel_path: String,
    /// Original contents.
    pub raw: String,
    /// The shared token stream ([`crate::lex`]).
    pub tokens: Vec<Token>,
    /// Per-line membership of exact `#[cfg(test)]` regions.
    pub test_mask: Vec<bool>,
    /// Per-line membership of `cfg` regions gated on
    /// `debug_assertions` — debug-only checks, exempt from
    /// `panic-path` (their whole job is to panic on corrupted
    /// structure).
    pub debug_mask: Vec<bool>,
    /// Per-line membership of items carrying a `# Panics` doc
    /// contract — a documented panic is a published precondition, so
    /// `panic-path` exempts it (the rule polices *undocumented* abort
    /// paths).
    pub panics_doc_mask: Vec<bool>,
}

impl SourceFile {
    /// Lexes and pre-processes one file.
    pub fn load(rel_path: String, raw: String) -> Self {
        let tokens = lex::lex(&raw);
        let n_lines = raw.lines().count();
        let test_mask = lex::region_mask(n_lines, &lex::attr_regions(&tokens, lex::is_cfg_test));
        let debug_mask = lex::region_mask(
            n_lines,
            &lex::attr_regions(&tokens, lex::is_cfg_debug_assertions),
        );
        let panics_doc_mask = lex::region_mask(n_lines, &lex::doc_panic_regions(&raw, &tokens));
        Self {
            rel_path,
            raw,
            tokens,
            test_mask,
            debug_mask,
            panics_doc_mask,
        }
    }

    fn in_test(&self, line0: usize) -> bool {
        self.test_mask.get(line0).copied().unwrap_or(false)
    }

    fn in_debug(&self, line0: usize) -> bool {
        self.debug_mask.get(line0).copied().unwrap_or(false)
    }

    fn raw_line(&self, line0: usize) -> &str {
        self.raw.lines().nth(line0).unwrap_or("")
    }

    /// Does any token on `line0` name one of `idents`?
    fn line_has_ident(&self, line0: usize, idents: &[&str]) -> bool {
        self.tokens
            .iter()
            .filter(|t| t.line == line0)
            .any(|t| t.kind == Kind::Ident && idents.contains(&t.text.as_str()))
    }
}

/// Runs every rule over `files` and returns all violations found.
pub fn run_all(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        unwrap_expect(f, &mut out);
        float_eq(f, &mut out);
        as_cast(f, &mut out);
        partial_cmp_rule(f, &mut out);
        map_iter_order(f, &mut out);
        wall_clock(f, &mut out);
        panic_path(f, &mut out);
        round_metric_rule(f, &mut out);
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

fn push(
    out: &mut Vec<Violation>,
    f: &SourceFile,
    line0: usize,
    rule: &'static str,
    message: String,
) {
    out.push(Violation {
        path: f.rel_path.clone(),
        line: line0 + 1,
        rule,
        message,
        line_text: f.raw_line(line0).to_string(),
    });
}

// --------------------------------------------------------------------
// unwrap-expect
// --------------------------------------------------------------------

/// Rule `unwrap-expect`: no `.unwrap()` / `.expect(` outside
/// `#[cfg(test)]` regions. Library code surfaces typed errors; a panic
/// is only acceptable where it is provably unreachable, and then only
/// via an allowlist entry with a written justification.
fn unwrap_expect(f: &SourceFile, out: &mut Vec<Violation>) {
    for w in f.tokens.windows(3) {
        if !w[0].is_punct(".") || !w[2].is_punct("(") {
            continue;
        }
        let name = match w[1].text.as_str() {
            "unwrap" | "expect" if w[1].kind == Kind::Ident => w[1].text.as_str(),
            _ => continue,
        };
        if f.in_test(w[1].line) {
            continue;
        }
        push(
            out,
            f,
            w[1].line,
            "unwrap-expect",
            format!("`.{name}(` in non-test code — return a typed error instead"),
        );
    }
}

// --------------------------------------------------------------------
// float-eq
// --------------------------------------------------------------------

/// Identifier fragments that mark a value as a cost/gain quantity for
/// the `float-eq` rule.
const FLOAT_NAME_FRAGMENTS: &[&str] = &[
    "gain",
    "cost",
    "obj",
    "saved",
    "load",
    "lambda",
    "bandwidth",
    "decrement",
    "drift",
];

/// Punctuation that ends an operand expression at bracket depth 0.
const OPERAND_STOPS: &[&str] = &[
    ",", ";", "{", "}", "=", "<", ">", "!", "&", "|", "+", "-", "*", "/", "%", "^", "?", "==",
    "!=", "<=", ">=", "&&", "||", "=>", "->", "return",
];

/// Rule `float-eq`: no `==` / `!=` on cost/gain floats. Exact
/// comparison of accumulated `f64`s silently breaks under reordering;
/// the sanctioned idioms are `total_cmp`, bitwise `to_bits()` equality
/// (for provably-copied values), or an epsilon band. Heuristic: for
/// each `==`/`!=` token, collect the two operand token runs (bounded
/// at depth 0 by [`OPERAND_STOPS`]) and flag the comparison when an
/// operand carries a float literal or its type-indicative identifier
/// (the trailing ident after stripping call/index groups, so
/// `xs.len()` reads as `len`, not `xs`) names a cost/gain quantity.
/// Token-level limits: a comparison of renamed float locals (no
/// fragment, no literal) escapes — the auditor's runtime checks are
/// the backstop.
fn float_eq(f: &SourceFile, out: &mut Vec<Violation>) {
    for (i, t) in f.tokens.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let line0 = t.line;
        if f.in_test(line0) || f.line_has_ident(line0, &["to_bits", "total_cmp"]) {
            continue;
        }
        let left = operand_left(&f.tokens, i);
        let right = operand_right(&f.tokens, i);
        // Comparing against a string literal is never a float
        // comparison, whatever the other operand is named.
        let has_str = |r: &[Token]| r.iter().any(|t| t.kind == Kind::Str);
        if has_str(left) || has_str(right) {
            continue;
        }
        if let Some(why) = floaty_operand(left).or_else(|| floaty_operand(right)) {
            push(
                out,
                f,
                line0,
                "float-eq",
                format!("exact float comparison ({why}) — use total_cmp, to_bits or an epsilon"),
            );
        }
    }
}

/// The operand token run to the left of the operator at `op`.
fn operand_left(tokens: &[Token], op: usize) -> &[Token] {
    let line = tokens[op].line;
    let mut depth = 0usize;
    let mut j = op;
    while j > 0 {
        let t = &tokens[j - 1];
        if t.line != line {
            break;
        }
        if t.is_punct(")") || t.is_punct("]") {
            depth += 1;
        } else if t.is_punct("(") || t.is_punct("[") {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && (OPERAND_STOPS.contains(&t.text.as_str())) {
            break;
        }
        j -= 1;
    }
    &tokens[j..op]
}

/// The operand token run to the right of the operator at `op`.
fn operand_right(tokens: &[Token], op: usize) -> &[Token] {
    let line = tokens[op].line;
    let mut depth = 0usize;
    let mut k = op + 1;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.line != line {
            break;
        }
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && OPERAND_STOPS.contains(&t.text.as_str()) {
            break;
        }
        k += 1;
    }
    &tokens[op + 1..k]
}

/// Does this operand token run look like a cost/gain float? Returns
/// the evidence, or `None` for integers and unrelated names.
fn floaty_operand(run: &[Token]) -> Option<String> {
    if run.iter().any(|t| t.kind == Kind::Float) {
        return Some("a float literal operand".to_string());
    }
    // Strip trailing call/index groups so the type-indicative name is
    // the method (`xs.len()` → `len`), but indexing falls through to
    // the container (`f.gains[pos]` → `gains`).
    let mut end = run.len();
    while end > 0 && (run[end - 1].is_punct(")") || run[end - 1].is_punct("]")) {
        let (open, close) = if run[end - 1].is_punct(")") {
            ("(", ")")
        } else {
            ("[", "]")
        };
        let mut depth = 0usize;
        let mut j = end;
        while j > 0 {
            j -= 1;
            if run[j].is_punct(close) {
                depth += 1;
            } else if run[j].is_punct(open) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        if depth != 0 {
            return None;
        }
        end = j;
    }
    let ident = run[..end].iter().rev().find(|t| t.kind == Kind::Ident)?;
    // Only the *trailing* ident counts; anything else between it and
    // the stripped groups (e.g. a `.`) is fine, but a non-trailing
    // position means the shape is something we don't understand.
    if run[..end].last().is_some_and(|t| t.kind != Kind::Ident) {
        return None;
    }
    let lower = ident.text.to_ascii_lowercase();
    if lower == "nan" || lower == "infinity" {
        return Some(format!(
            "`{}` is never `==` anything / a sentinel",
            ident.text
        ));
    }
    let hit = lower.split('_').any(|seg| {
        FLOAT_NAME_FRAGMENTS
            .iter()
            .any(|fr| seg == *fr || (seg.strip_suffix('s') == Some(fr)))
    });
    hit.then(|| format!("`{}` names a cost/gain float", ident.text))
}

// --------------------------------------------------------------------
// as-cast
// --------------------------------------------------------------------

/// Directories where rule `as-cast` forbids numeric `as` casts: the
/// hot algorithm kernels, where a silent truncation corrupts flow
/// indices. Use `u32::try_from` / `usize::from` helpers instead.
const AS_CAST_DIRS: &[&str] = &["crates/core/src/algorithms/", "crates/online/src/"];

const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

fn as_cast(f: &SourceFile, out: &mut Vec<Violation>) {
    if !AS_CAST_DIRS.iter().any(|d| f.rel_path.starts_with(d)) {
        return;
    }
    for w in f.tokens.windows(2) {
        if w[0].is_ident("as")
            && w[1].kind == Kind::Ident
            && NUMERIC_TYPES.contains(&w[1].text.as_str())
            && !f.in_test(w[0].line)
        {
            push(
                out,
                f,
                w[0].line,
                "as-cast",
                format!(
                    "numeric `as {}` cast in an algorithm kernel — use a checked conversion",
                    w[1].text
                ),
            );
        }
    }
}

// --------------------------------------------------------------------
// partial-cmp
// --------------------------------------------------------------------

/// Rule `partial-cmp`: every hand-written `partial_cmp` must delegate
/// to a total order (`Ord::cmp` or `f64::total_cmp`) — the four ad-hoc
/// gain orderings this rule replaced each had their own NaN story, and
/// `BinaryHeap` silently misorders on an inconsistent `PartialOrd`.
fn partial_cmp_rule(f: &SourceFile, out: &mut Vec<Violation>) {
    let toks = &f.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        if !(toks[i].is_ident("fn") && toks[i + 1].is_ident("partial_cmp")) {
            continue;
        }
        if f.in_test(toks[i].line) {
            continue;
        }
        // Find the body: the matching `}` of the first `{`; a `;`
        // first means a trait signature with no body — skip.
        let mut j = i + 2;
        while j < toks.len() && !(toks[j].is_punct("{") || toks[j].is_punct(";")) {
            j += 1;
        }
        if j >= toks.len() || toks[j].is_punct(";") {
            continue;
        }
        let mut depth = 0usize;
        let mut end = j;
        while end < toks.len() {
            if toks[end].is_punct("{") {
                depth += 1;
            } else if toks[end].is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            end += 1;
        }
        let body = &toks[j..end.min(toks.len())];
        let delegates = body
            .windows(2)
            .any(|w| (w[0].is_punct(".") && w[1].is_ident("cmp")) || w[0].is_ident("total_cmp"))
            || body.last().is_some_and(|t| t.is_ident("total_cmp"));
        if !delegates {
            push(
                out,
                f,
                toks[i].line,
                "partial-cmp",
                "partial_cmp not backed by a total order — delegate to Ord::cmp or total_cmp"
                    .to_string(),
            );
        }
    }
}

// --------------------------------------------------------------------
// map-iter-order
// --------------------------------------------------------------------

/// Directories rule `map-iter-order` governs: the crates whose output
/// the bitwise-reproducibility contracts cover (placement solvers,
/// the online engine, the serve session). `cli` / `experiments` /
/// `bench` are drivers and may hash freely.
const MAP_ITER_DIRS: &[&str] = &[
    "crates/core/src/",
    "crates/online/src/",
    "crates/serve/src/",
];

/// Rule `map-iter-order`: no `HashMap` / `HashSet` in the
/// determinism-governed crates — their iteration order is seeded per
/// process, so any iteration (or any future refactor that adds one)
/// perturbs float accumulation order and breaks the batched ≡
/// sequential contracts. `BTreeMap`/`BTreeSet` or a sorted `Vec` are
/// the sanctioned replacements where the data is iterated, and
/// tdmd-core's `table::IdTable`, an open-addressing table that never
/// iterates, is the one for a keyed lookup. Test regions
/// are **not** exempt: proptest replay and the bitwise oracles compare
/// engine fingerprints inside tests too.
fn map_iter_order(f: &SourceFile, out: &mut Vec<Violation>) {
    if !MAP_ITER_DIRS.iter().any(|d| f.rel_path.starts_with(d)) {
        return;
    }
    for t in &f.tokens {
        if t.kind == Kind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            push(
                out,
                f,
                t.line,
                "map-iter-order",
                format!(
                    "`{}` in a determinism-governed crate — iteration order is \
                     process-seeded; use BTreeMap/BTreeSet or a sorted Vec, or \
                     tdmd_core::table::IdTable for a keyed lookup",
                    t.text
                ),
            );
        }
    }
}

// --------------------------------------------------------------------
// wall-clock
// --------------------------------------------------------------------

/// Directories rule `wall-clock` governs: every library crate whose
/// results must be a pure function of its inputs. `obs` is excluded —
/// it *hosts* the sanctioned `Stopwatch` boundary — as are the
/// `cli`/`experiments`/`bench` drivers, which time at the edges.
const WALL_CLOCK_DIRS: &[&str] = &[
    "crates/core/src/",
    "crates/online/src/",
    "crates/chain/src/",
    "crates/graph/src/",
    "crates/traffic/src/",
    "crates/sim/src/",
    "crates/serve/src/",
];

/// Rule `wall-clock`: no `Instant::now` / `SystemTime` influence
/// inside solver kernels — time must come from the event stream
/// (virtual timestamps), never the host clock, or replays and
/// snapshot-restore stop being bitwise. Measure latency at the
/// boundaries through `tdmd_obs::Stopwatch`, in the caller that
/// reports it.
fn wall_clock(f: &SourceFile, out: &mut Vec<Violation>) {
    if !WALL_CLOCK_DIRS.iter().any(|d| f.rel_path.starts_with(d)) {
        return;
    }
    for t in &f.tokens {
        if t.kind == Kind::Ident
            && (t.text == "Instant" || t.text == "SystemTime")
            && !f.in_test(t.line)
        {
            push(
                out,
                f,
                t.line,
                "wall-clock",
                format!(
                    "`{}` in a solver crate — results must not depend on the host \
                     clock; use event-stream time, or tdmd_obs::Stopwatch at the boundary",
                    t.text
                ),
            );
        }
    }
}

// --------------------------------------------------------------------
// panic-path
// --------------------------------------------------------------------

/// Library crates rule `panic-path` governs (binaries and drivers may
/// abort; a library must surface typed errors).
const PANIC_PATH_DIRS: &[&str] = &[
    "crates/core/src/",
    "crates/online/src/",
    "crates/obs/src/",
    "crates/graph/src/",
    "crates/traffic/src/",
    "crates/chain/src/",
    "crates/sim/src/",
    "crates/serve/src/",
];

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Rule `panic-path`: no panic-family macros (`panic!`,
/// `unreachable!`, `todo!`, `unimplemented!`, the `assert!` family)
/// and no literal-index expressions (`xs[0]` — the classic
/// "first element exists" shape that panics on empty input) in
/// non-test, non-`debug_assertions` regions of library crates.
/// Surface `TdmdError` / `OnlineError` / `AuditError` instead.
///
/// Sanctioned and exempt:
/// * items carrying a `# Panics` doc section — a documented panic is
///   a published precondition, not an accidental abort path;
/// * `debug_assert!` and `const _: () = assert!(…)` (compile-time);
/// * literal `w[0]`/`w[1]` within two lines of a
///   `.windows(`/`.chunks_exact(` call, whose chunk length is
///   guaranteed by the iterator;
/// * computed CSR indexing — its bounds are the runtime auditor's job
///   (`check_instance` / `OnlineEngine::audit_now`), which a static
///   token scan cannot re-prove.
fn panic_path(f: &SourceFile, out: &mut Vec<Violation>) {
    if !PANIC_PATH_DIRS.iter().any(|d| f.rel_path.starts_with(d)) {
        return;
    }
    let exempt = |line0: usize| {
        f.in_test(line0)
            || f.in_debug(line0)
            || f.panics_doc_mask.get(line0).copied().unwrap_or(false)
    };
    // Lines on which a fixed-chunk iterator is set up; literal indexes
    // on or just below such a line read a guaranteed-length window.
    let window_lines: Vec<usize> = f
        .tokens
        .windows(3)
        .filter(|w| {
            w[0].is_punct(".")
                && (w[1].is_ident("windows") || w[1].is_ident("chunks_exact"))
                && w[2].is_punct("(")
        })
        .map(|w| w[1].line)
        .collect();
    let windowed = |line0: usize| window_lines.iter().any(|&l| l <= line0 && line0 - l <= 2);
    for (i, t) in f.tokens.iter().enumerate() {
        if t.kind == Kind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && f.tokens.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && !exempt(t.line)
            // `const _: () = assert!(…)` evaluates at compile time.
            && !(i > 0 && f.tokens[i - 1].is_punct("=") && f.line_has_ident(t.line, &["const"]))
        {
            push(
                out,
                f,
                t.line,
                "panic-path",
                format!(
                    "`{}!` in library code outside test/debug_assertions regions — \
                     return the crate's typed error (or document a `# Panics` contract)",
                    t.text
                ),
            );
        }
        // Literal indexing: `expr[0]` where expr is an ident or a
        // closed call/index group.
        if t.is_punct("[")
            && i > 0
            && (f.tokens[i - 1].kind == Kind::Ident
                || f.tokens[i - 1].is_punct(")")
                || f.tokens[i - 1].is_punct("]"))
            && f.tokens.get(i + 1).is_some_and(|n| n.kind == Kind::Int)
            && f.tokens.get(i + 2).is_some_and(|n| n.is_punct("]"))
            && !exempt(t.line)
            && !windowed(t.line)
        {
            push(
                out,
                f,
                t.line,
                "panic-path",
                format!(
                    "literal index `[{}]` assumes the collection's shape and panics \
                     when it is wrong — use first()/get() and surface a typed error",
                    f.tokens[i + 1].text
                ),
            );
        }
    }
}

// --------------------------------------------------------------------
// round-metric
// --------------------------------------------------------------------

/// The committed-artifact serializer rule `round-metric` audits:
/// every float metric field written into a `BENCH_*.json` struct here
/// must route through `tdmd_obs::round_metric`, or the committed
/// artifacts churn on sub-ULP timing noise.
const SERIALIZATION_FILES: &[&str] = &["crates/cli/src/commands/bench.rs"];

/// Field-name shapes that carry wall/latency/throughput floats.
fn is_metric_field(name: &str) -> bool {
    name.ends_with("_us")
        || name.ends_with("_per_sec")
        || matches!(name, "p50" | "p90" | "p99" | "max" | "mean")
}

/// Rule `round-metric`: in the bench serializer, a struct-literal
/// field named like a timing/throughput metric whose value expression
/// computes a float (a float literal,
/// an `f64` cast, a `percentile`/`elapsed_us` call) must wrap it in
/// `round_metric`. Integer timestamps (`end_us: start + hold`) carry
/// no float evidence and pass; `pub name: f64` declarations are
/// skipped by the leading-`pub` check.
fn round_metric_rule(f: &SourceFile, out: &mut Vec<Violation>) {
    if !SERIALIZATION_FILES.contains(&f.rel_path.as_str()) {
        return;
    }
    let t = &f.tokens;
    for i in 1..t.len().saturating_sub(1) {
        if !(t[i].kind == Kind::Ident && is_metric_field(&t[i].text) && t[i + 1].is_punct(":")) {
            continue;
        }
        // Skip declarations (`pub wall_us: f64`) and anything in
        // tests.
        if t[i - 1].is_ident("pub") || f.in_test(t[i].line) {
            continue;
        }
        // The value expression: tokens to the matching `,` / `}` at
        // depth 0.
        let mut depth = 0usize;
        let mut j = i + 2;
        let start = j;
        while j < t.len() {
            let x = &t[j];
            if x.is_punct("(") || x.is_punct("[") || x.is_punct("{") {
                depth += 1;
            } else if x.is_punct(")") || x.is_punct("]") || x.is_punct("}") {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth == 0 && x.is_punct(",") {
                break;
            }
            j += 1;
        }
        let expr = &t[start..j];
        if expr.iter().any(|x| x.is_ident("round_metric")) {
            continue;
        }
        // A bare type name is a (non-pub) declaration, not a value.
        if expr.len() == 1 && expr[0].kind == Kind::Ident {
            continue;
        }
        let float_evidence = expr.iter().any(|x| {
            x.kind == Kind::Float
                || x.is_ident("f64")
                || x.is_ident("percentile")
                || x.is_ident("elapsed_us")
        });
        if float_evidence {
            push(
                out,
                f,
                t[i].line,
                "round-metric",
                format!(
                    "float serialization site `{}` bypasses round_metric — committed \
                     bench artifacts must round at the boundary",
                    t[i].text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::load(path.to_string(), src.to_string())
    }

    fn rules_on(path: &str, src: &str) -> Vec<Violation> {
        run_all(&[file(path, src)])
    }

    fn rules_named<'a>(v: &'a [Violation], rule: &str) -> Vec<&'a Violation> {
        v.iter().filter(|x| x.rule == rule).collect()
    }

    // ---------------------------------------------------- unwrap-expect

    #[test]
    fn unwrap_outside_tests_is_flagged_inside_tests_is_not() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod t { fn b() { y.unwrap(); } }\n";
        let v = rules_on("crates/a/src/l.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
        assert_eq!(v[0].rule, "unwrap-expect");
    }

    #[test]
    fn unwrap_or_else_is_not_flagged() {
        let v = rules_on(
            "crates/a/src/l.rs",
            "fn a() { m.lock().unwrap_or_else(|p| p.into_inner()); }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_in_doc_comment_or_string_is_not_flagged() {
        let v = rules_on(
            "crates/a/src/l.rs",
            "/// Call `.unwrap()` on it.\nfn a() { let s = \"x.unwrap()\"; let r = r#\"y.unwrap()\"#; }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    // --------------------------------------------------------- float-eq

    #[test]
    fn float_eq_flags_gain_comparisons_but_not_bitwise() {
        let bad = rules_on("crates/a/src/l.rs", "fn a() { if gain == best { } }\n");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "float-eq");
        let lit = rules_on("crates/a/src/l.rs", "fn a() { if x == 0.0 { } }\n");
        assert_eq!(lit.len(), 1, "{lit:?}");
        let ok = rules_on(
            "crates/a/src/l.rs",
            "fn a() { if gain.to_bits() == best.to_bits() { } }\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
        let ints = rules_on("crates/a/src/l.rs", "fn a() { if i == j { } }\n");
        assert!(ints.is_empty(), "{ints:?}");
    }

    #[test]
    fn float_eq_is_operand_local_not_line_local() {
        // Integer comparison; the float literal sits past the `&&`
        // boundary in a different comparison.
        let v = rules_on(
            "crates/a/src/l.rs",
            "fn a() { if volume == 0 && tie <= 0.0 { } }\n",
        );
        assert!(v.is_empty(), "{v:?}");
        // `.len()` reads as integer even when the receiver names gains.
        let v = rules_on(
            "crates/a/src/l.rs",
            "fn a() { if f.gains.len() != f.path.len() { } }\n",
        );
        assert!(v.is_empty(), "{v:?}");
        // String comparison of a `cost`-named variable.
        let v = rules_on(
            "crates/a/src/l.rs",
            "fn a() { if cost_model == \"weighted\" { } }\n",
        );
        assert!(v.is_empty(), "{v:?}");
        // A call named after a gain is still flagged...
        let v = rules_on(
            "crates/a/src/l.rs",
            "fn a() { if coverage_gain(inst, s, v) == n { } }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        // ...and so is indexing into a gains vector.
        let v = rules_on(
            "crates/a/src/l.rs",
            "fn a() { if f.gains[pos] == second { } }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    // ---------------------------------------------------------- as-cast

    #[test]
    fn as_casts_only_flagged_in_kernel_dirs() {
        let src = "fn a(x: u64) -> usize { x as usize }\n";
        assert_eq!(rules_on("crates/core/src/algorithms/gtp.rs", src).len(), 1);
        assert_eq!(rules_on("crates/online/src/delta.rs", src).len(), 1);
        assert!(rules_on("crates/graph/src/digraph.rs", src).is_empty());
    }

    // ------------------------------------------------------ partial-cmp

    #[test]
    fn partial_cmp_must_delegate_to_a_total_order() {
        let bad = "impl PartialOrd for G { fn partial_cmp(&self, o: &Self) -> Option<Ordering> {\n\
                   self.0.partial_cmp(&o.0) } }\n";
        let v = rules_on("crates/a/src/l.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "partial-cmp");
        let good =
            "impl PartialOrd for G { fn partial_cmp(&self, o: &Self) -> Option<Ordering> {\n\
                    Some(self.cmp(o)) } }\n";
        assert!(rules_on("crates/a/src/l.rs", good).is_empty());
        // A signature with no body (trait declaration) is not flagged.
        let sig = "trait T { fn partial_cmp(&self, o: &Self) -> Option<Ordering>; }\n";
        assert!(rules_on("crates/a/src/l.rs", sig).is_empty());
    }

    // --------------------------------------------------- map-iter-order

    #[test]
    fn hash_collections_flagged_in_governed_dirs_even_in_tests() {
        let src = "use std::collections::HashMap;\nfn a() { let m: HashMap<u32, f64> = HashMap::new(); }\n";
        let v = rules_on("crates/core/src/cost.rs", src);
        assert_eq!(rules_named(&v, "map-iter-order").len(), 3, "{v:?}");
        // Test regions are NOT exempt for this rule.
        let in_test = "#[cfg(test)]\nmod t { fn b() { let m = std::collections::HashMap::<u32, u32>::new(); } }\n";
        let v = rules_on("crates/online/src/engine.rs", in_test);
        assert_eq!(rules_named(&v, "map-iter-order").len(), 1, "{v:?}");
        // Ungoverned crates may hash freely.
        assert!(rules_on("crates/graph/src/digraph.rs", src).is_empty());
        // Doc comments mentioning HashMap are fine.
        let doc = "/// Replaces the `HashMap` on the hot path.\nfn a() {}\n";
        assert!(rules_on("crates/online/src/delta.rs", doc).is_empty());
    }

    // ------------------------------------------------------- wall-clock

    #[test]
    fn wall_clock_sources_flagged_outside_tests() {
        let src = "fn a() { let t = std::time::Instant::now(); }\n";
        let v = rules_on("crates/core/src/algorithms/gtp.rs", src);
        assert_eq!(rules_named(&v, "wall-clock").len(), 1, "{v:?}");
        let sys = "fn a() { let t = SystemTime::now(); }\n";
        assert_eq!(
            rules_named(&rules_on("crates/online/src/engine.rs", sys), "wall-clock").len(),
            1
        );
        // Tests may time things; obs hosts the Stopwatch boundary.
        let in_test = "#[cfg(test)]\nmod t { fn b() { let t = Instant::now(); } }\n";
        assert!(rules_on("crates/sim/src/runner.rs", in_test).is_empty());
        assert!(rules_on("crates/obs/src/timer.rs", src).is_empty());
    }

    // ------------------------------------------------------- panic-path

    #[test]
    fn panic_macros_flagged_in_library_code() {
        let src = "fn a() { panic!(\"boom\"); }\nfn b() { unreachable!() }\n";
        let v = rules_on("crates/core/src/plan.rs", src);
        assert_eq!(rules_named(&v, "panic-path").len(), 2, "{v:?}");
        // assert! family too, but debug_assert! is legal.
        let asserts = "fn a() { assert!(x > 0); debug_assert!(x > 0); }\n";
        let v = rules_on("crates/online/src/budget.rs", asserts);
        assert_eq!(rules_named(&v, "panic-path").len(), 1, "{v:?}");
    }

    #[test]
    fn panic_path_exempts_test_and_debug_regions() {
        let src = "#[cfg(test)]\nmod t { fn a() { assert_eq!(1, 1); } }\n\
                   #[cfg(debug_assertions)]\n\
                   fn check() { panic!(\"corrupt\"); }\n";
        let v = rules_on("crates/core/src/order.rs", src);
        assert!(rules_named(&v, "panic-path").is_empty(), "{v:?}");
        // Drivers (cli) are not library crates.
        let cli = "fn main() { panic!(\"usage\"); }\n";
        assert!(rules_on("crates/cli/src/main.rs", cli).is_empty());
    }

    #[test]
    fn documented_panics_contracts_are_sanctioned() {
        let documented = "/// Builds it.\n///\n/// # Panics\n/// Panics on an empty chain.\n\
                          pub fn new(xs: Vec<u32>) -> Self {\n    assert!(!xs.is_empty());\n    Self { xs }\n}\n\
                          fn other() { assert!(true); }\n";
        let v = rules_on("crates/chain/src/spec.rs", documented);
        let hits = rules_named(&v, "panic-path");
        assert_eq!(hits.len(), 1, "{v:?}");
        assert_eq!(hits[0].line, 9, "only the undocumented assert: {hits:?}");
    }

    #[test]
    fn const_asserts_are_compile_time_and_exempt() {
        let src = "const _: () = assert!(std::mem::size_of::<usize>() >= 4);\n";
        assert!(rules_on("crates/core/src/num.rs", src).is_empty());
    }

    #[test]
    fn windows_iteration_indexes_are_guaranteed_in_bounds() {
        let same_line = "fn a(p: &[u32]) -> bool { p.windows(2).any(|w| w[0] == w[1]) }\n";
        assert!(rules_on("crates/graph/src/tree.rs", same_line).is_empty());
        let loop_body = "fn a(p: &[u32]) {\n    for w in p.windows(2) {\n        if w[0] > w[1] { }\n    }\n}\n";
        assert!(rules_on("crates/graph/src/tree.rs", loop_body).is_empty());
        // Three lines below the windows() call the guarantee no
        // longer applies.
        let far = "fn a(p: &[u32]) {\n    let it = p.windows(2);\n    let x = 1;\n    let y = 2;\n    let z = p[0];\n}\n";
        let v = rules_on("crates/graph/src/tree.rs", far);
        assert_eq!(rules_named(&v, "panic-path").len(), 1, "{v:?}");
    }

    #[test]
    fn literal_indexing_flagged_computed_indexing_is_not() {
        let lit = "fn a(xs: &[u32]) -> u32 { xs[0] }\n";
        let v = rules_on("crates/graph/src/tree.rs", lit);
        assert_eq!(rules_named(&v, "panic-path").len(), 1, "{v:?}");
        // Computed CSR indexing is the auditor's jurisdiction.
        let csr = "fn a(xs: &[u32], i: usize) -> u32 { xs[i] }\n";
        assert!(rules_on("crates/graph/src/tree.rs", csr).is_empty());
        // Array *types* and literals are not indexing.
        let ty = "fn a() { let m: [u32; 3] = [1, 2, 3]; }\n";
        assert!(rules_on("crates/graph/src/tree.rs", ty).is_empty());
    }

    // ---------------------------------------------- round_metric routing

    #[test]
    fn bench_float_fields_must_route_through_round_metric() {
        let src = "fn report(wall: f64) -> Out {\n\
                   Out { wall_us: round_metric(wall, 3), events_per_sec: wall / 1e6, end_us: start + hold.max(1) }\n\
                   }\n";
        let v = rules_on("crates/cli/src/commands/bench.rs", src);
        let hits = rules_named(&v, "round-metric");
        assert_eq!(hits.len(), 1, "{v:?}");
        assert!(hits[0].message.contains("events_per_sec"), "{hits:?}");
        // Declarations are not serialization sites.
        let decl = "pub struct Out {\n    pub wall_us: f64,\n}\n";
        assert!(rules_on("crates/cli/src/commands/bench.rs", decl).is_empty());
        // Other files are out of scope for this sub-check.
        let other = "fn f() -> O { O { wall_us: w / 1e6 } }\n";
        assert!(rules_on("crates/cli/src/commands/stream.rs", other).is_empty());
    }
}
