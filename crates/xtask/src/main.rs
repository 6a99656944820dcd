//! `cargo xtask` — the tdmd workspace analyzer.
//!
//! Two subcommands:
//!
//! * `lint [--format json] [--out PATH]` — the tdmd-audit static
//!   analysis pass: a zero-dependency, multi-pass token-level analyzer
//!   over every workspace crate's `src/` tree (no `syn`, no rustc
//!   plumbing — it must build instantly and run before clippy in CI).
//!   All eight rules consume one shared comment/string/raw-string-aware
//!   lexer ([`lex`]), so none can fire inside a doc comment or string
//!   literal. Rules:
//!
//!   * `unwrap-expect` — no `.unwrap()` / `.expect(` outside
//!     `#[cfg(test)]` regions.
//!   * `float-eq` — no exact `==`/`!=` on cost/gain floats; the
//!     sanctioned idioms are `total_cmp`, `to_bits()` equality and
//!     epsilon bands.
//!   * `as-cast` — no numeric `as` casts in the algorithm kernels.
//!   * `partial-cmp` — hand-written `partial_cmp` must delegate to a
//!     total order.
//!   * `map-iter-order` — no `HashMap`/`HashSet` in the
//!     determinism-governed crates (core, online, serve); their
//!     process-seeded iteration order breaks the bitwise
//!     batched ≡ sequential contracts. A keyed lookup uses
//!     tdmd-core's `table::IdTable`.
//!   * `wall-clock` — no `Instant`/`SystemTime` inside solver crates;
//!     time comes from the event stream, latency from the obs
//!     `Stopwatch` at the boundaries.
//!   * `panic-path` — no panic-family macros or literal indexing in
//!     non-test, non-`debug_assertions` regions of library crates;
//!     surface the typed error enums instead.
//!   * `round-metric` — every float serialization site in the bench
//!     writer routes through `round_metric`.
//!
//!   Suppressions live in `crates/xtask/lint.toml`; every entry needs
//!   a written `reason`, and stale entries fail the run. Diagnostics
//!   are `file:line: [rule] message`; `--format json` writes the
//!   schema-stable `tdmd-lint/v1` report (violations, suppression
//!   provenance, stale entries) for the CI artifact. The exit code is
//!   non-zero on any violation or stale entry, so CI can gate on it.
//!
//! * `race` — the dynamic companion: forwards to `tdmd race`, the
//!   schedule-perturbation harness that replays
//!   `OnlineEngine::apply_batch` under randomized batch partitions
//!   and hard-fails on any bitwise divergence from the one-by-one
//!   sequential oracle. The static determinism lints certify the
//!   harness is meaningful (no hidden hash-order or wall-clock inputs
//!   the perturbations cannot reach).

#![forbid(unsafe_code)]

mod allowlist;
mod lex;
mod rules;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match parse_lint_args(&args[1..]) {
            Ok(opts) => match lint(&opts) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("xtask: {e}");
                    ExitCode::from(2)
                }
            },
            Err(e) => {
                eprintln!("xtask: {e}");
                ExitCode::from(2)
            }
        },
        Some("race") => race(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask lint [--format json] [--out PATH] | cargo xtask race");
            ExitCode::from(2)
        }
    }
}

/// Options for `xtask lint`.
struct LintOpts {
    /// Emit the `tdmd-lint/v1` JSON report instead of plain
    /// diagnostics.
    json: bool,
    /// Where to write the report (default: stdout). Plain diagnostics
    /// always go to stdout regardless.
    out: Option<PathBuf>,
}

fn parse_lint_args(rest: &[String]) -> Result<LintOpts, String> {
    let mut opts = LintOpts {
        json: false,
        out: None,
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => opts.json = true,
                Some("text") => opts.json = false,
                other => {
                    return Err(format!(
                        "--format takes `json` or `text`, got {:?}",
                        other.unwrap_or("<missing>")
                    ))
                }
            },
            "--out" => {
                let path = it
                    .next()
                    .ok_or_else(|| "--out requires a path".to_string())?;
                opts.out = Some(PathBuf::from(path));
            }
            other => return Err(format!("unknown lint flag '{other}'")),
        }
    }
    if opts.out.is_some() && !opts.json {
        return Err("--out only makes sense with --format json".to_string());
    }
    Ok(opts)
}

/// `xtask race`: delegate to the CLI's race command, which links the
/// solver crates (xtask itself is dependency-free by design). Builds
/// in release — the harness replays full solves and must not time out
/// in CI.
fn race(rest: &[String]) -> ExitCode {
    let root = match workspace_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::from(2);
        }
    };
    let mut cmd = std::process::Command::new(env!("CARGO"));
    cmd.current_dir(&root)
        .args([
            "run",
            "--release",
            "-p",
            "tdmd-cli",
            "--bin",
            "tdmd",
            "--",
            "race",
        ])
        .args(rest);
    match cmd.status() {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask: failed to launch tdmd race: {e}");
            ExitCode::from(2)
        }
    }
}

/// One suppressed violation with its allowlist provenance, for the
/// JSON report.
struct Suppressed<'a> {
    violation: &'a rules::Violation,
    allow: &'a allowlist::Allow,
}

/// Runs the full lint pass; `Ok(true)` means clean.
fn lint(opts: &LintOpts) -> Result<bool, String> {
    let root = workspace_root()?;
    let files = load_workspace_sources(&root)?;
    let allow_path = root.join("crates/xtask/lint.toml");
    let allows = match std::fs::read_to_string(&allow_path) {
        Ok(text) => allowlist::parse(&text).map_err(|e| format!("{}:{e}", allow_path.display()))?,
        Err(_) => Vec::new(),
    };

    let violations = rules::run_all(&files);
    let mut used = vec![false; allows.len()];
    let mut active: Vec<&rules::Violation> = Vec::new();
    let mut suppressed: Vec<Suppressed> = Vec::new();
    for v in &violations {
        let hit = allows
            .iter()
            .enumerate()
            .find(|(_, a)| a.matches(v.rule, &v.path, &v.line_text));
        match hit {
            Some((i, a)) => {
                used[i] = true;
                suppressed.push(Suppressed {
                    violation: v,
                    allow: a,
                });
            }
            None => active.push(v),
        }
    }
    let stale: Vec<&allowlist::Allow> = allows
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(a, _)| a)
        .collect();

    let clean = active.is_empty() && stale.is_empty();
    if opts.json {
        let report = json_report(files.len(), &active, &suppressed, &stale, clean);
        match &opts.out {
            Some(path) => {
                let abs = if path.is_absolute() {
                    path.clone()
                } else {
                    root.join(path)
                };
                std::fs::write(&abs, &report).map_err(|e| format!("{}: {e}", abs.display()))?;
                eprintln!("xtask lint: wrote {}", abs.display());
            }
            None => println!("{report}"),
        }
    }
    if !opts.json || opts.out.is_some() {
        for v in &active {
            println!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.message);
        }
        for a in &stale {
            println!(
                "crates/xtask/lint.toml:{}: [stale-allow] entry ({} @ {}) matches nothing — remove it",
                a.line, a.rule, a.path
            );
        }
        if clean {
            println!(
                "xtask lint: clean — {} files, {} rules, {} justified suppressions",
                files.len(),
                rules::RULES.len(),
                suppressed.len()
            );
        } else {
            println!(
                "xtask lint: {} violation(s), {} stale allowlist entr(ies)",
                active.len(),
                stale.len()
            );
        }
    }
    Ok(clean)
}

// ------------------------------------------------------------------
// tdmd-lint/v1 JSON report
// ------------------------------------------------------------------

/// Minimal JSON string escaping (the crate is dependency-free).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the schema-stable `tdmd-lint/v1` report. Key order and
/// shape are pinned by `schema_golden` below and validated in CI —
/// downstream tooling may rely on every field named here.
fn json_report(
    files_scanned: usize,
    active: &[&rules::Violation],
    suppressed: &[Suppressed],
    stale: &[&allowlist::Allow],
    clean: bool,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"tdmd-lint/v1\",\n");
    s.push_str(&format!("  \"clean\": {clean},\n"));
    s.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    s.push_str("  \"rules\": [");
    for (i, r) in rules::RULES.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&json_str(r));
    }
    s.push_str("],\n");

    s.push_str("  \"violations\": [");
    for (i, v) in active.iter().enumerate() {
        s.push_str(if i > 0 { ",\n    " } else { "\n    " });
        s.push_str(&format!(
            "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
            json_str(v.rule),
            json_str(&v.path),
            v.line,
            json_str(&v.message)
        ));
    }
    s.push_str(if active.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    s.push_str("  \"suppressed\": [");
    for (i, sup) in suppressed.iter().enumerate() {
        s.push_str(if i > 0 { ",\n    " } else { "\n    " });
        s.push_str(&format!(
            "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"allow_line\": {}, \"reason\": {}}}",
            json_str(sup.violation.rule),
            json_str(&sup.violation.path),
            sup.violation.line,
            sup.allow.line,
            json_str(&sup.allow.reason)
        ));
    }
    s.push_str(if suppressed.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    s.push_str("  \"stale_allows\": [");
    for (i, a) in stale.iter().enumerate() {
        s.push_str(if i > 0 { ",\n    " } else { "\n    " });
        s.push_str(&format!(
            "{{\"rule\": {}, \"path\": {}, \"allow_line\": {}}}",
            json_str(&a.rule),
            json_str(&a.path),
            a.line
        ));
    }
    s.push_str(if stale.is_empty() { "]\n" } else { "\n  ]\n" });
    s.push('}');
    s
}

/// Workspace root: the xtask manifest sits at `<root>/crates/xtask`.
fn workspace_root() -> Result<PathBuf, String> {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .map_err(|_| "CARGO_MANIFEST_DIR not set (run via `cargo xtask lint`)".to_string())?;
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("cannot locate workspace root from {}", manifest.display()))
}

/// Every `.rs` file under `crates/*/src`, loaded and pre-processed.
/// Test and bench *directories* are deliberately not walked — the
/// rules only govern library and binary code.
fn load_workspace_sources(root: &Path) -> Result<Vec<rules::SourceFile>, String> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    let entries =
        std::fs::read_dir(&crates_dir).map_err(|e| format!("{}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk_rs(root, &src, &mut files)?;
        }
    }
    Ok(files)
}

fn walk_rs(root: &Path, dir: &Path, out: &mut Vec<rules::SourceFile>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            walk_rs(root, &p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let raw = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rules::SourceFile::load(rel, raw));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(rule: &'static str, path: &str, line: usize) -> rules::Violation {
        rules::Violation {
            path: path.to_string(),
            line,
            rule,
            message: format!("m \"{rule}\""),
            line_text: String::new(),
        }
    }

    /// Golden test pinning the `tdmd-lint/v1` schema: field names,
    /// nesting, and key order. CI validates emitted LINT.json against
    /// the same shape; changing this output is a schema bump.
    #[test]
    fn schema_golden() {
        let v = violation("float-eq", "crates/core/src/x.rs", 7);
        let sup_v = violation("unwrap-expect", "crates/graph/src/y.rs", 3);
        let allow = allowlist::Allow {
            rule: "unwrap-expect".to_string(),
            path: "crates/graph/src/y.rs".to_string(),
            contains: None,
            reason: "poison recovery".to_string(),
            line: 12,
        };
        let stale = allowlist::Allow {
            rule: "as-cast".to_string(),
            path: "crates/online/src/z.rs".to_string(),
            contains: None,
            reason: "old".to_string(),
            line: 20,
        };
        let report = json_report(
            42,
            &[&v],
            &[Suppressed {
                violation: &sup_v,
                allow: &allow,
            }],
            &[&stale],
            false,
        );
        let expected = "{\n  \"schema\": \"tdmd-lint/v1\",\n  \"clean\": false,\n  \"files_scanned\": 42,\n  \"rules\": [\"unwrap-expect\", \"float-eq\", \"as-cast\", \"partial-cmp\", \"map-iter-order\", \"wall-clock\", \"panic-path\", \"round-metric\"],\n  \"violations\": [\n    {\"rule\": \"float-eq\", \"file\": \"crates/core/src/x.rs\", \"line\": 7, \"message\": \"m \\\"float-eq\\\"\"}\n  ],\n  \"suppressed\": [\n    {\"rule\": \"unwrap-expect\", \"file\": \"crates/graph/src/y.rs\", \"line\": 3, \"allow_line\": 12, \"reason\": \"poison recovery\"}\n  ],\n  \"stale_allows\": [\n    {\"rule\": \"as-cast\", \"path\": \"crates/online/src/z.rs\", \"allow_line\": 20}\n  ]\n}";
        assert_eq!(report, expected);
    }

    #[test]
    fn empty_report_has_stable_shape() {
        let report = json_report(0, &[], &[], &[], true);
        assert!(report.starts_with("{\n  \"schema\": \"tdmd-lint/v1\""));
        assert!(report.contains("\"violations\": []"));
        assert!(report.contains("\"suppressed\": []"));
        assert!(report.contains("\"stale_allows\": []"));
        assert!(report.ends_with('}'));
    }

    #[test]
    fn json_escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn lint_flag_parsing() {
        assert!(parse_lint_args(&[]).unwrap().out.is_none());
        let j = parse_lint_args(&["--format".into(), "json".into()]).unwrap();
        assert!(j.json);
        let o = parse_lint_args(&[
            "--format".into(),
            "json".into(),
            "--out".into(),
            "LINT.json".into(),
        ])
        .unwrap();
        assert_eq!(o.out.as_deref(), Some(Path::new("LINT.json")));
        assert!(parse_lint_args(&["--out".into(), "x".into()]).is_err());
        assert!(parse_lint_args(&["--format".into(), "yaml".into()]).is_err());
        assert!(parse_lint_args(&["--wat".into()]).is_err());
    }
}
