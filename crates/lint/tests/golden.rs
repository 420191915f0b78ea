//! Golden tests for uc-lint: the fixture corpus must reproduce
//! `fixtures/expected.txt` byte-for-byte (output stability is a CI
//! contract — the workflow runs the tool twice and diffs), and the real
//! workspace at HEAD must lint clean — by uc-lint's own rules, and by the
//! compiler lints that replaced its determinism, hygiene, `unsafe` and
//! pragma rules.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

#[test]
fn fixture_corpus_matches_golden_output() {
    let report = uc_lint::run(&fixture_root()).expect("fixture lint runs");
    assert!(!report.is_clean(), "fixture corpus must produce diagnostics");
    let golden = include_str!("fixtures/expected.txt");
    assert_eq!(
        report.render(),
        golden,
        "fixture output drifted from the golden file; if the change is \
         intentional, regenerate with \
         `cargo run -p uc-lint -- --root crates/lint/tests/fixtures/ws`"
    );
}

#[test]
fn fixture_output_is_byte_stable_across_runs() {
    let a = uc_lint::run(&fixture_root()).expect("first run").render();
    let b = uc_lint::run(&fixture_root()).expect("second run").render();
    assert_eq!(a, b, "two consecutive runs must render identically");
}

#[test]
fn fixture_exercises_every_rule_family() {
    let report = uc_lint::run(&fixture_root()).expect("fixture lint runs");
    for rule in ["keyspace", "instrument", "stale-config"] {
        assert!(
            report.diagnostics.iter().any(|d| d.rule == rule),
            "fixture corpus has no `{rule}` diagnostic"
        );
    }
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = uc_lint::run(&root).expect("workspace lint runs");
    assert!(report.is_clean(), "uc-lint found diagnostics on HEAD:\n{}", report.render());
}

/// The workspace lints of the root `Cargo.toml` and `clippy.toml`, run as
/// CI's clippy step runs them, so that `cargo test` checks them too. Its
/// own target directory keeps it from waiting on the build that runs it.
#[test]
fn real_workspace_passes_clippy() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO"))
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", root.join("target/clippy-gate"))
        .args(["clippy", "--workspace", "--all-targets", "--offline", "--", "-D", "warnings"])
        .output()
        .expect("cargo clippy starts");
    assert!(
        out.status.success(),
        "cargo clippy found diagnostics on HEAD:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
