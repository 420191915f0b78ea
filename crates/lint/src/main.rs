//! `cargo run -p uc-lint [-- --root <dir>]`
//!
//! Lints every `crates/*/src/**/*.rs` under the workspace root, prints
//! sorted `file:line:rule:message` diagnostics, and exits non-zero when
//! any diagnostic fires. Output is byte-stable: CI runs the tool twice
//! and diffs.
//!
//! Wall-time is reported on *stderr* (stdout must stay byte-stable for
//! the CI diff) with a soft budget: the whole-workspace run is expected
//! to stay in single-digit seconds, and a breach prints a warning rather
//! than failing the run.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Soft wall-time budget for a whole-workspace run.
const SOFT_BUDGET_SECS: f64 = 9.0;

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
    let started = Instant::now();
    match uc_lint::run(&root) {
        Ok(report) => {
            let elapsed = started.elapsed().as_secs_f64();
            print!("{}", report.render());
            eprintln!(
                "uc-lint: wall {elapsed:.3}s ({} file(s), {} function(s))",
                report.files_scanned, report.fns_scanned
            );
            if elapsed > SOFT_BUDGET_SECS {
                eprintln!(
                    "uc-lint: WARNING wall time {elapsed:.3}s exceeds the {SOFT_BUDGET_SECS}s soft budget"
                );
            }
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
