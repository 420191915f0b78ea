//! uc-lint: workspace invariant linter for the Unity Catalog
//! reproduction. Zero external dependencies: a lightweight Rust lexer +
//! brace-matched item scanner feed the three rules that need the
//! workspace's own knowledge (instrumentation coverage, keyspace, stale
//! config). Output is byte-stable and sorted so CI can diff consecutive
//! runs. See DESIGN.md §8 for the rule catalog. What rustc and clippy can
//! check is configured in the root `Cargo.toml` and `clippy.toml`
//! instead (determinism, hygiene, `unsafe`, reasoned exemptions), and
//! lock order is checked by the `parking_lot` shim where each lock is
//! taken.
//!
//! The driver runs in phases: (1) load and scan every workspace file,
//! (2) find the service methods that open an `api_enter` span, (3) run
//! per-file rules, (4) stale-config.

pub mod config;
pub mod lexer;
pub mod rules;
pub mod scan;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use config::Config;
use lexer::Token;
use rules::{Diagnostic, FileCtx};
use scan::FileScan;

/// One scanned workspace file.
pub struct Unit {
    pub rel: String,
    pub tokens: Vec<Token>,
    pub scan: FileScan,
}

#[derive(Debug)]
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    pub fns_scanned: usize,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render the byte-stable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}:{}:{}:{}", d.file, d.line, d.rule, d.message);
        }
        let _ = writeln!(
            out,
            "uc-lint: {} diagnostic(s), {} file(s), {} function(s)",
            self.diagnostics.len(),
            self.files_scanned,
            self.fns_scanned
        );
        out
    }
}

fn list_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for p in paths {
        if p.is_dir() {
            list_rs_files(&p, out)?;
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(p);
        }
    }
    Ok(())
}

fn rel_of(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().to_string())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint the workspace rooted at `root` (the directory holding Lint.toml
/// and `crates/`). Scans every `crates/*/src/**/*.rs`.
pub fn run(root: &Path) -> Result<LintReport, String> {
    let cfg = match fs::read_to_string(root.join("Lint.toml")) {
        Ok(text) => Config::parse(&text).map_err(|e| format!("Lint.toml: {e}"))?,
        Err(_) => Config::default(),
    };

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    let entries =
        fs::read_dir(&crates_dir).map_err(|e| format!("read_dir {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let p = entry.path();
        if p.is_dir() && p.join("src").is_dir() {
            crate_dirs.push(p);
        }
    }
    crate_dirs.sort();

    // ── Phase 1: load and scan every file ─────────────────────────────
    let mut units: Vec<Unit> = Vec::new();
    for crate_dir in &crate_dirs {
        let mut files = Vec::new();
        list_rs_files(&crate_dir.join("src"), &mut files)?;
        for path in files {
            let rel = rel_of(root, &path);
            let src =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let tokens = lexer::lex(&src);
            let scanned = scan::scan(&tokens);
            units.push(Unit { rel, tokens, scan: scanned });
        }
    }
    let file_set: BTreeSet<String> = units.iter().map(|u| u.rel.clone()).collect();

    // ── Phase 2: the service methods that open an `api_enter` span ────
    let impl_type = cfg.str("instrument", "impl_type").unwrap_or_default();
    let covered = rules::instrument::covered(&units, &impl_type);

    // ── Phase 3: per-file rules ───────────────────────────────────────
    let mut diags: Vec<Diagnostic> = Vec::new();
    for unit in &units {
        let ctx = FileCtx {
            rel_path: &unit.rel,
            tokens: &unit.tokens,
            scan: &unit.scan,
            cfg: &cfg,
        };
        rules::keyspace::check(&ctx, &mut diags);
        rules::instrument::check(&ctx, &covered, &mut diags);
    }

    // ── Phase 4: stale-config: every Lint.toml entry must still resolve
    // against the workspace it governs.
    rules::staleconfig::check(&cfg, &file_set, &mut diags);

    diags.sort();
    diags.dedup();
    Ok(LintReport {
        diagnostics: diags,
        files_scanned: units.len(),
        fns_scanned: units.iter().map(|u| u.scan.fns.len()).sum(),
    })
}

/// Walk up from `start` to find the workspace root (the directory that
/// contains `Lint.toml`, or failing that, `crates/`).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Lint.toml").is_file() || d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}
