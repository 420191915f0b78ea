//! `cargo run -p uc-lint [-- --root <dir>]`
//!
//! Lints every `crates/*/src/**/*.rs` under the workspace root, prints
//! sorted `file:line:rule:message` diagnostics, and exits non-zero when
//! any diagnostic fires. Output is byte-stable: CI runs the tool twice
//! and diffs.

#![allow(clippy::print_stdout, clippy::print_stderr, reason = "a command-line tool reports on stdio")]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("usage: uc-lint [--root <dir>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("uc-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match uc_lint::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("uc-lint: no workspace root (Lint.toml or crates/) found");
                    return ExitCode::from(2);
                }
            }
        }
    };
    match uc_lint::run(&root) {
        Ok(report) => {
            print!("{}", report.render());
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("uc-lint: {e}");
            ExitCode::from(2)
        }
    }
}
