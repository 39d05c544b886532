//! End-to-end tests of the `gnnlab-lint` binary against fixture trees
//! under `tests/fixtures/` — one tree per rule proving `--deny` exits
//! non-zero, one clean tree exercising every escape hatch, and the
//! allowlist behaviors.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run_on(fixture: &str, extra: &[&str]) -> Output {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    Command::new(env!("CARGO_BIN_EXE_gnnlab-lint"))
        .arg("--root")
        .arg(&root)
        .args(extra)
        .output()
        .expect("the lint binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn unwrap_fixture_fails_deny() {
    let out = run_on("unwrap-bad", &["--deny"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("[no-unwrap]"), "{text}");
    // Both the unwrap and the expect, but not the #[cfg(test)] one.
    assert_eq!(text.matches("[no-unwrap]").count(), 2, "{text}");
}

#[test]
fn metric_fixture_fails_deny() {
    let out = run_on("metric-bad", &["--deny"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stdout(&out).contains("[metric-names]"));
    assert!(stdout(&out).contains("queue.depth"));
}

#[test]
fn facade_fixture_fails_deny() {
    let out = run_on("facade-bad", &["--deny"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stdout(&out).contains("[sync-facade]"));
}

#[test]
fn seqcst_fixture_fails_deny() {
    let out = run_on("seqcst-bad", &["--deny"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(stdout(&out).contains("[seqcst]"));
}

#[test]
fn stage_cost_fixture_fails_deny() {
    let out = run_on("stage-cost-bad", &["--deny"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    // The three calls in the experiment, not the one under #[cfg(test)].
    assert_eq!(text.matches("[stage-cost]").count(), 3, "{text}");
    assert!(text.contains("crates/bench/src/exp/fig4.rs"), "{text}");
}

#[test]
fn clean_fixture_passes_deny() {
    let out = run_on("clean", &["--deny"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
}

#[test]
fn allowlist_file_suppresses_by_prefix() {
    // Without --deny the findings would print; the lint.allow in the
    // fixture root swallows them entirely.
    let out = run_on("allowlisted", &["--deny"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
}

#[test]
fn malformed_allowlist_is_a_hard_error() {
    let out = run_on("bad-allow", &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown rule"), "{err}");
}

#[test]
fn json_mode_emits_one_object_per_finding() {
    let out = run_on("unwrap-bad", &["--json"]);
    assert_eq!(out.status.code(), Some(0), "without --deny findings inform");
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    for line in lines {
        assert!(line.starts_with("{\"path\":"), "{line}");
        assert!(line.contains("\"rule\":\"no-unwrap\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
}

#[test]
fn the_workspace_itself_is_clean() {
    // The real acceptance check: `gnnlab-lint --deny` over the actual
    // workspace exits 0. CARGO_MANIFEST_DIR is crates/lint, so the
    // workspace root is two levels up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let out = Command::new(env!("CARGO_BIN_EXE_gnnlab-lint"))
        .arg("--root")
        .arg(&root)
        .arg("--deny")
        .output()
        .expect("the lint binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace findings:\n{}",
        stdout(&out)
    );
}
