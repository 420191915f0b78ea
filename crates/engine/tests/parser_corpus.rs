//! The parser's golden corpus: `parser_corpus.txt` holds one statement per
//! `> ` line — every SQL shape the tests, the examples and the benchmark
//! send, each error case of the unit tests, and lexer edge cases (case,
//! whitespace, Unicode, quotes, numbers, punctuation) — and, on the line
//! after it, the `Debug` of what `parse_statement` returns for it: the
//! statement, or the error and its text. Any change to what the parser
//! accepts, builds or says fails here, naming the first statement that
//! moved.
//!
//! Lines are split on `\n` alone, so a statement may end in `\r`.

#![allow(clippy::unwrap_used, reason = "helpers outside #[test] functions fail the test as a test body does")]

use std::fmt::Write;

use uc_engine::parse_statement;

const CORPUS: &str = include_str!("parser_corpus.txt");

/// The corpus as the parser renders it now.
fn render(statements: &[&str]) -> String {
    let mut out = String::new();
    for sql in statements {
        writeln!(out, "> {sql}").unwrap();
        writeln!(out, "{:?}", parse_statement(sql)).unwrap();
    }
    out
}

#[test]
fn every_statement_parses_as_its_golden_line() {
    let statements: Vec<&str> = CORPUS.split('\n').filter_map(|l| l.strip_prefix("> ")).collect();
    assert!(statements.len() >= 200, "only {} statements", statements.len());
    let now = render(&statements);
    if now == CORPUS {
        return;
    }
    let (golden, rendered): (Vec<&str>, Vec<&str>) = (CORPUS.split('\n').collect(), now.split('\n').collect());
    let at = golden.iter().zip(&rendered).position(|(g, r)| g != r).unwrap_or(golden.len().min(rendered.len()));
    let statement = golden[..at.min(golden.len())].iter().rev().find(|l| l.starts_with("> ")).copied();
    panic!(
        "the corpus moved at line {} (statement {statement:?}):\n golden: {:?}\n now:    {:?}",
        at + 1,
        golden.get(at),
        rendered.get(at)
    );
}
