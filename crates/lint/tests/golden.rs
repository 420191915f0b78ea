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
    for rule in ["determinism", "hygiene", "keyspace", "instrument", "unsafe", "pragma", "stale-config"] {
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
