//! Golden tests for uc-lint: the fixture corpus must reproduce
//! `fixtures/expected.txt` byte-for-byte (output stability is a CI
//! contract — the workflow runs the tool twice and diffs), and the real
//! workspace at HEAD must lint clean.

use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

#[test]
fn fixture_corpus_matches_golden_output() {
    let report = uc_lint::run(&fixture_root()).expect("fixture lint runs");
    assert!(!report.is_clean(), "fixture corpus must produce diagnostics");
    let rendered = report.render(true, true);
    let golden = include_str!("fixtures/expected.txt");
    assert_eq!(
        rendered, golden,
        "fixture output drifted from the golden file; if the change is \
         intentional, regenerate with \
         `cargo run -p uc-lint -- --root crates/lint/tests/fixtures/ws --lock-graph --call-graph`"
    );
}

#[test]
fn fixture_output_is_byte_stable_across_runs() {
    let a = uc_lint::run(&fixture_root()).expect("first run").render(true, true);
    let b = uc_lint::run(&fixture_root()).expect("second run").render(true, true);
    assert_eq!(a, b, "two consecutive runs must render identically");
}

#[test]
fn fixture_exercises_every_rule_family() {
    let report = uc_lint::run(&fixture_root()).expect("fixture lint runs");
    for rule in [
        "determinism",
        "hygiene",
        "locks",
        "keyspace",
        "instrument",
        "unsafe",
        "pragma",
        "stale-config",
    ] {
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
    assert!(
        report.is_clean(),
        "uc-lint found diagnostics on HEAD:\n{}",
        report.render(false, false)
    );
    // The lock artifact must name the connection pool and the
    // per-metastore write gate even though neither nests.
    for class in ["txdb.pool", "catalog.gate"] {
        assert!(
            report.lock_classes.iter().any(|c| c.starts_with(class)),
            "lock-class census is missing `{class}`:\n{}",
            report.lock_classes.join("\n")
        );
    }
}
