//! gnnlab-lint — a workspace source lint (line/token scan, no rustc
//! plugin) enforcing the conventions the runtime crates rely on:
//!
//! 1. **metric-names** — metric/alert name string literals in runtime
//!    code must live in `gnnlab_obs::names`, not inline at call sites
//!    (the PR-7 convention; keeps dashboards and alert rules greppable
//!    from one file).
//! 2. **no-unwrap** — no `.unwrap()` / `.expect(` in non-test code of
//!    the runtime crates (core, cache, par, obs): crash paths must be
//!    typed errors or documented invariants.
//! 3. **sync-facade** — no raw `parking_lot` / `std::sync::atomic` /
//!    `std::sync::{Mutex, Condvar, RwLock}` imports outside the
//!    `core::sync`/`par::sync` façades, the checker crate, and shims:
//!    sync primitives must stay swappable for the model checker.
//! 4. **seqcst** — no `Ordering::SeqCst` without a `// chk:`
//!    justification comment (on the same or the preceding line):
//!    sequential consistency is a measured decision, not a default.
//! 5. **stage-cost** — no `.sample_time(` / `.extract_time(` /
//!    `.train_time(` in non-test code outside `crates/sim` (which defines
//!    them) and `crates/core/src/runtime/` (the one engine that costs a
//!    stage): an experiment that prices a stage itself is a co-simulation
//!    the engine does not know about.
//!
//! Escapes: a workspace-level allowlist file (`lint.allow`, one
//! `rule<TAB-or-space>path-prefix` entry per line) and inline
//! `// lint:allow(rule)` comments. `--deny` makes findings fatal;
//! `--json` emits machine-readable findings.
//!
//! The scan is a real lexer pass (comments, strings, raw strings, char
//! literals), not a regex over raw lines — a `.unwrap()` inside a
//! string literal or doc comment is not a finding.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The rules, by their allowlist names.
pub const RULES: [&str; 5] = [
    "metric-names",
    "no-unwrap",
    "sync-facade",
    "seqcst",
    "stage-cost",
];

/// Crates whose non-test code the `no-unwrap` and `metric-names` rules
/// police.
const RUNTIME_CRATES: [&str; 4] = ["crates/core", "crates/cache", "crates/par", "crates/obs"];

/// Files allowed to name `parking_lot`/`std::sync` primitives directly:
/// the façades themselves and the model checker that implements them.
const FACADE_FILES: [&str; 2] = ["crates/core/src/sync.rs", "crates/par/src/sync.rs"];

/// Where a Sample / Extract / Train stage may be costed: the cost model
/// itself and the co-simulation engine.
const STAGE_COST_DIRS: [&str; 2] = ["crates/sim/", "crates/core/src/runtime/"];

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// `path:line: [rule] message` — the greppable text form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }

    /// The finding as a JSON object (hand-rolled; the workspace has no
    /// serde_json dependency here by design).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"path\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
            json_str(&self.path),
            self.line,
            json_str(self.rule),
            json_str(&self.message)
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One allowlist entry: suppress `rule` for any path starting with
/// `prefix`.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    rule: String,
    prefix: String,
}

/// Parses the `lint.allow` format: `rule path-prefix` per line, `#`
/// comments and blank lines ignored. Returns an error message for a
/// malformed line or an unknown rule, so typos cannot silently disable
/// coverage.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(rule), Some(prefix)) = (parts.next(), parts.next()) else {
            return Err(format!(
                "lint.allow:{}: expected `rule path-prefix`",
                idx + 1
            ));
        };
        if parts.next().is_some() {
            return Err(format!("lint.allow:{}: trailing tokens", idx + 1));
        }
        if !RULES.contains(&rule) {
            return Err(format!(
                "lint.allow:{}: unknown rule {rule:?} (known: {RULES:?})",
                idx + 1
            ));
        }
        entries.push(AllowEntry {
            rule: rule.to_string(),
            prefix: prefix.to_string(),
        });
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Lexer: split each source line into masked code, string literals, and
// comment text.

/// One source line after lexing.
#[derive(Clone, Debug, Default)]
struct LexedLine {
    /// Source with string/char literal contents and comments blanked
    /// out (structure preserved: quotes remain, so token shapes like
    /// `.expect("")` survive).
    code: String,
    /// The contents of every string literal on the line.
    strings: Vec<String>,
    /// Concatenated comment text on the line (line + block comments).
    comment: String,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum LexState {
    Normal,
    Block(u32),
    Str,
    RawStr(u32),
}

/// Lexes a whole file into per-line code/strings/comments. Handles
/// nested block comments, raw strings (`r#"…"#`), byte strings, char
/// literals vs lifetimes, and escapes. A lexer state carries across
/// lines (multi-line strings and block comments).
fn lex(source: &str) -> Vec<LexedLine> {
    let mut lines = Vec::new();
    let mut state = LexState::Normal;
    let mut cur_str = String::new();
    for raw in source.lines() {
        let mut out = LexedLine::default();
        let b: Vec<char> = raw.chars().collect();
        let mut i = 0usize;
        while i < b.len() {
            match state {
                LexState::Block(depth) => {
                    if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        state = LexState::Block(depth + 1);
                        i += 2;
                    } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                        state = if depth == 1 {
                            LexState::Normal
                        } else {
                            LexState::Block(depth - 1)
                        };
                        i += 2;
                    } else {
                        out.comment.push(b[i]);
                        i += 1;
                    }
                }
                LexState::Str => {
                    if b[i] == '\\' && i + 1 < b.len() {
                        cur_str.push(b[i + 1]);
                        i += 2;
                    } else if b[i] == '"' {
                        out.strings.push(std::mem::take(&mut cur_str));
                        out.code.push('"');
                        state = LexState::Normal;
                        i += 1;
                    } else {
                        cur_str.push(b[i]);
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if b[i] == '"' {
                        let n = hashes as usize;
                        let closes = (1..=n).all(|k| b.get(i + k) == Some(&'#'));
                        if closes {
                            out.strings.push(std::mem::take(&mut cur_str));
                            out.code.push('"');
                            state = LexState::Normal;
                            i += 1 + n;
                            continue;
                        }
                    }
                    cur_str.push(b[i]);
                    i += 1;
                }
                LexState::Normal => {
                    let c = b[i];
                    if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
                        out.comment.push_str(&raw[char_offset(&b, i + 2)..]);
                        break; // rest of the line is a comment
                    }
                    if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        state = LexState::Block(1);
                        i += 2;
                        continue;
                    }
                    if c == '"' {
                        out.code.push('"');
                        state = LexState::Str;
                        i += 1;
                        continue;
                    }
                    // Raw strings: r"…", r#"…"#, br#"…"# etc.
                    if (c == 'r' || c == 'b') && !prev_is_ident(&out.code) {
                        let mut j = i;
                        if b[j] == 'b' {
                            j += 1;
                        }
                        if b.get(j) == Some(&'r') {
                            j += 1;
                            let mut hashes = 0u32;
                            while b.get(j) == Some(&'#') {
                                hashes += 1;
                                j += 1;
                            }
                            if b.get(j) == Some(&'"') {
                                out.code.push('"');
                                state = LexState::RawStr(hashes);
                                i = j + 1;
                                continue;
                            }
                        }
                    }
                    if c == 'b' && b.get(i + 1) == Some(&'"') && !prev_is_ident(&out.code) {
                        out.code.push('"');
                        state = LexState::Str;
                        i += 2;
                        continue;
                    }
                    if c == '\'' {
                        // Char literal vs lifetime: 'a' has a closing
                        // quote one or two (escape) chars later; a
                        // lifetime does not.
                        if b.get(i + 1) == Some(&'\\') && b.get(i + 3) == Some(&'\'') {
                            out.code.push_str("' '");
                            i += 4;
                            continue;
                        }
                        if i + 2 < b.len() && b[i + 2] == '\'' && b[i + 1] != '\\' {
                            out.code.push_str("' '");
                            i += 3;
                            continue;
                        }
                        // A lifetime: keep the tick so code shape holds.
                        out.code.push('\'');
                        i += 1;
                        continue;
                    }
                    out.code.push(c);
                    i += 1;
                }
            }
        }
        lines.push(out);
    }
    lines
}

fn char_offset(chars: &[char], upto: usize) -> usize {
    chars[..upto.min(chars.len())]
        .iter()
        .map(|c| c.len_utf8())
        .sum()
}

fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .last()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

// ---------------------------------------------------------------------------
// Test-region detection

/// Marks lines inside `#[cfg(test)]`-guarded items (computed on masked
/// code, so strings cannot fake an attribute). The guarded item is
/// skipped to the end of its balanced brace block (or to `;` for a
/// braceless item).
fn test_region_mask(lines: &[LexedLine]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        let code = lines[i].code.trim();
        if code.starts_with("#[cfg(test)]") || code.starts_with("#[cfg(all(test") {
            // Skip to the end of the guarded item.
            let mut depth = 0i64;
            let mut opened = false;
            for (j, line) in lines.iter().enumerate().skip(i) {
                mask[j] = true;
                for c in line.code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        ';' if !opened && j > i => depth = -1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    i = j;
                    break;
                }
                if !opened && depth == -1 {
                    i = j;
                    break;
                }
                i = j;
            }
        }
        i += 1;
    }
    mask
}

// ---------------------------------------------------------------------------
// The rules

fn path_in(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

fn looks_like_metric_name(s: &str) -> bool {
    if s.len() < 3 || !s.contains('.') || s.contains('/') {
        return false;
    }
    let mut chars = s.chars();
    if !chars.next().is_some_and(|c| c.is_ascii_lowercase()) {
        return false;
    }
    if !s
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._{}*%".contains(c))
    {
        return false;
    }
    // At least two dot-segments, the first being a word ("queue",
    // "alerts", …). Filters out file extensions and version numbers.
    let segs: Vec<&str> = s.split('.').collect();
    if segs.len() < 2 {
        return false;
    }
    let known_ext = [
        "rs", "json", "jsonl", "toml", "md", "txt", "yml", "yaml", "lock", "bin", "log", "tmp",
        "ckpt", "gz",
    ];
    if segs.len() == 2 && known_ext.contains(segs.last().unwrap_or(&"")) {
        return false;
    }
    segs.iter()
        .filter(|seg| seg.chars().any(|c| c.is_ascii_lowercase()))
        .count()
        >= 2
        || (segs.len() >= 2 && segs[0].chars().all(|c| c.is_ascii_lowercase()))
}

/// Lints one file's source. `path` must be workspace-relative with
/// forward slashes.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Whole-file scopes.
    // `foo/tests.rs` is the out-of-line body of a `#[cfg(test)] mod tests;`.
    let in_tests_dir = path.starts_with("tests/")
        || path.contains("/tests/")
        || path.ends_with("/tests.rs")
        || path.contains("/benches/")
        || path.contains("/examples/");
    let is_facade = FACADE_FILES.contains(&path);
    let is_names = path == "crates/obs/src/names.rs";
    let in_runtime_crate = path_in(path, &RUNTIME_CRATES);
    let in_chk = path.starts_with("crates/chk/");
    let in_lint = path.starts_with("crates/lint/");
    let in_shims = path.starts_with("shims/");

    if in_shims {
        return findings; // vendored stand-ins are out of scope entirely
    }

    let lines = lex(source);
    let test_mask = test_region_mask(&lines);

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let in_test = in_tests_dir || test_mask[idx];
        // An inline allow counts on the line itself or anywhere in the
        // contiguous comment block directly above it.
        let allow_inline = |rule: &str| {
            let tag = format!("lint:allow({rule})");
            if line.comment.contains(&tag) {
                return true;
            }
            lines[..idx]
                .iter()
                .rev()
                .take_while(|l| l.code.trim().is_empty() && !l.comment.is_empty())
                .any(|l| l.comment.contains(&tag))
        };

        // Rule 2: no-unwrap (runtime crates, non-test code).
        if in_runtime_crate && !in_test && !allow_inline("no-unwrap") {
            for tok in [".unwrap()", ".expect("] {
                if line.code.contains(tok) {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: lineno,
                        rule: "no-unwrap",
                        message: format!(
                            "`{tok}` in runtime code — return a typed error or use a \
                             documented invariant (see gnnlab_par::invariant!)"
                        ),
                    });
                }
            }
        }

        // Rule 3: sync-facade (everywhere but the façades, chk, shims).
        if !is_facade && !in_chk && !in_test && !allow_inline("sync-facade") {
            let code = &line.code;
            let hit = if code.contains("parking_lot::") || code.contains("use parking_lot") {
                Some("parking_lot")
            } else if code.contains("std::sync::atomic") {
                Some("std::sync::atomic")
            } else if [
                "std::sync::Mutex",
                "std::sync::Condvar",
                "std::sync::RwLock",
            ]
            .iter()
            .any(|t| code.contains(t))
                || (code.contains("use std::sync::")
                    && ["Mutex", "Condvar", "RwLock"]
                        .iter()
                        .any(|t| code.contains(t)))
            {
                Some("std::sync lock types")
            } else {
                None
            };
            if let Some(what) = hit {
                findings.push(Finding {
                    path: path.to_string(),
                    line: lineno,
                    rule: "sync-facade",
                    message: format!(
                        "raw {what} import — go through the core::sync / par::sync façade \
                         so the model checker can swap the primitives"
                    ),
                });
            }
        }

        // Rule 4: seqcst (everywhere in scope, non-test; `// chk:`
        // justifies).
        if !in_test && !in_lint && line.code.contains("Ordering::SeqCst") {
            let justified = line.comment.contains("chk:")
                || (idx > 0 && lines[idx - 1].comment.contains("chk:"))
                || allow_inline("seqcst");
            if !justified {
                findings.push(Finding {
                    path: path.to_string(),
                    line: lineno,
                    rule: "seqcst",
                    message: "Ordering::SeqCst without a `// chk:` justification — \
                              use Acquire/Release/Relaxed or document why SC is required"
                        .to_string(),
                });
            }
        }

        // Rule 5: stage-cost (everywhere but the cost model and the engine).
        if !path_in(path, &STAGE_COST_DIRS) && !in_test && !allow_inline("stage-cost") {
            for tok in [".sample_time(", ".extract_time(", ".train_time("] {
                if line.code.contains(tok) {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: lineno,
                        rule: "stage-cost",
                        message: format!(
                            "`{tok}` outside the co-simulation engine — describe the run as a \
                             Placement and let core::runtime cost its stages"
                        ),
                    });
                }
            }
        }

        // Rule 1: metric-names (runtime crates, non-test, not names.rs).
        if in_runtime_crate && !in_test && !is_names && !allow_inline("metric-names") {
            for s in &line.strings {
                if looks_like_metric_name(s) {
                    findings.push(Finding {
                        path: path.to_string(),
                        line: lineno,
                        rule: "metric-names",
                        message: format!(
                            "metric-name-shaped literal {s:?} — add a constant to \
                             gnnlab_obs::names and reference it"
                        ),
                    });
                }
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Workspace walk + CLI

/// Recursively collects `.rs` files under `root`, skipping `target`,
/// VCS internals, shims (out of scope), and fixture trees.
pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if name == "target" || name.starts_with('.') || name == "fixtures" {
                    continue;
                }
                stack.push(p);
            } else if name.ends_with(".rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Options parsed from the command line.
#[derive(Debug, Default)]
pub struct Options {
    /// Workspace root to scan (defaults to the current directory).
    pub root: PathBuf,
    /// Exit non-zero when findings remain.
    pub deny: bool,
    /// Emit findings as JSON lines instead of text.
    pub json: bool,
}

/// Runs the lint over `root` honoring `root/lint.allow`. Returns the
/// surviving findings (allowlisted ones are dropped).
pub fn run(opts: &Options) -> Result<Vec<Finding>, String> {
    let allow_path = opts.root.join("lint.allow");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => parse_allowlist(&text)?,
        Err(_) => Vec::new(),
    };
    let mut findings = Vec::new();
    for file in collect_rs_files(&opts.root) {
        let rel = file
            .strip_prefix(&opts.root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(&file)
            .map_err(|e| format!("failed to read {}: {e}", file.display()))?;
        for f in lint_source(&rel, &source) {
            let allowed = allow
                .iter()
                .any(|a| a.rule == f.rule && f.path.starts_with(&a.prefix));
            if !allowed {
                findings.push(f);
            }
        }
    }
    Ok(findings)
}

/// The `gnnlab-lint` binary entry point: parses args, runs, prints, and
/// exits non-zero under `--deny` when findings remain.
pub fn cli_main() {
    let mut opts = Options {
        root: PathBuf::from("."),
        ..Options::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => opts.deny = true,
            "--json" => opts.json = true,
            "--root" => match args.next() {
                Some(r) => opts.root = PathBuf::from(r),
                None => {
                    eprintln!("--root needs a path");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "gnnlab-lint [--root DIR] [--deny] [--json]\n\
                     rules: {RULES:?}\n\
                     allowlist: DIR/lint.allow (`rule path-prefix` per line); \
                     inline: `// lint:allow(rule)`"
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    match run(&opts) {
        Ok(findings) => {
            for f in &findings {
                if f.rule.is_empty() {
                    continue;
                }
                if opts.json {
                    println!("{}", f.to_json());
                } else {
                    println!("{}", f.render());
                }
            }
            if !opts.json {
                eprintln!("gnnlab-lint: {} finding(s)", findings.len());
            }
            if opts.deny && !findings.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("gnnlab-lint: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_masks_strings_and_comments() {
        let src = "let x = \"a.unwrap()\"; // .unwrap() in comment\nlet y = 1;";
        let lines = lex(src);
        assert!(!lines[0].code.contains("unwrap"));
        assert_eq!(lines[0].strings, vec!["a.unwrap()".to_string()]);
        assert!(lines[0].comment.contains(".unwrap()"));
    }

    #[test]
    fn lexer_handles_raw_strings_and_chars() {
        let src = "let r = r#\"queue.depth\"#; let c = '\"'; let l: &'static str = \"x\";";
        let lines = lex(src);
        assert_eq!(
            lines[0].strings,
            vec!["queue.depth".to_string(), "x".to_string()]
        );
        assert!(lines[0].code.contains("&'static str"));
    }

    #[test]
    fn lexer_handles_nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let x = 1;";
        let lines = lex(src);
        assert!(lines[0].code.contains("let x = 1;"));
        assert!(!lines[0].code.contains("comment"));
    }

    #[test]
    fn unwrap_flagged_only_outside_tests() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn g() { y.unwrap(); }\n}";
        let fs = lint_source("crates/core/src/x.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].line, 1);
        assert_eq!(fs[0].rule, "no-unwrap");
    }

    #[test]
    fn unwrap_ignored_outside_runtime_crates() {
        let src = "fn f() { x.unwrap(); }";
        assert!(lint_source("crates/sim/src/x.rs", src).is_empty());
        assert!(lint_source("tests/foo.rs", src).is_empty());
        assert!(lint_source("crates/core/src/threaded/tests.rs", src).is_empty());
    }

    #[test]
    fn inline_allow_suppresses() {
        let src = "fn f() { x.unwrap(); } // lint:allow(no-unwrap)";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
        let src2 = "// lint:allow(no-unwrap) startup-only\nfn f() { x.unwrap(); }";
        assert!(lint_source("crates/core/src/x.rs", src2).is_empty());
    }

    #[test]
    fn facade_rule_spares_the_facade_and_chk() {
        let src = "use parking_lot::Mutex;";
        assert!(!lint_source("crates/core/src/queue.rs", src).is_empty());
        assert!(lint_source("crates/core/src/sync.rs", src).is_empty());
        assert!(lint_source("crates/chk/src/sync.rs", src).is_empty());
        assert!(lint_source("shims/parking_lot/src/lib.rs", src).is_empty());
    }

    #[test]
    fn seqcst_needs_chk_comment() {
        let bad = "a.store(1, Ordering::SeqCst);";
        let good = "a.store(1, Ordering::SeqCst); // chk: full fence vs reader";
        let fs = lint_source("crates/core/src/x.rs", bad);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "seqcst");
        assert!(lint_source("crates/core/src/x.rs", good).is_empty());
    }

    #[test]
    fn stage_costs_belong_to_the_engine_and_the_cost_model() {
        let src = "let e = ctx.cost.extract_time(miss, hit, path, 1);";
        let fs = lint_source("crates/bench/src/exp/fig4.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "stage-cost");
        assert_eq!(lint_source("src/bin/gnnlab.rs", src).len(), 1);
        assert!(lint_source("crates/core/src/runtime/engine.rs", src).is_empty());
        assert!(lint_source("crates/sim/src/cost.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/exp/tests.rs", src).is_empty());
        // A definition or a mention is not a call.
        let def = "pub fn train_time(&self, flops: f64) -> SimTime { 0 } // .train_time(x)";
        assert!(lint_source("crates/bench/src/lib.rs", def).is_empty());
    }

    #[test]
    fn metric_literal_flagged_outside_names() {
        let src = "obs.metrics.counter_inc(\"queue.depth\");";
        let fs = lint_source("crates/core/src/x.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "metric-names");
        assert!(lint_source("crates/obs/src/names.rs", src).is_empty());
    }

    #[test]
    fn metric_shape_filter() {
        assert!(looks_like_metric_name("queue.depth"));
        assert!(looks_like_metric_name("alerts.{}"));
        assert!(looks_like_metric_name("cache.{}.{}.hits"));
        assert!(looks_like_metric_name("stage.extract.ns"));
        assert!(!looks_like_metric_name("0.1.0"));
        assert!(!looks_like_metric_name("foo.json"));
        assert!(!looks_like_metric_name("a/b.rs"));
        assert!(!looks_like_metric_name("Some.Thing"));
        assert!(!looks_like_metric_name("x"));
    }

    #[test]
    fn allowlist_parses_and_rejects_unknown_rules() {
        let ok = "no-unwrap crates/core/src/threaded.rs # legacy\n\nseqcst crates/par/\n";
        let entries = parse_allowlist(ok).expect("valid allowlist");
        assert_eq!(entries.len(), 2);
        assert!(parse_allowlist("bogus-rule crates/").is_err());
        assert!(parse_allowlist("no-unwrap").is_err());
    }
}
