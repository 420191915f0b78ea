#![forbid(unsafe_code)]
//! uc-lint: workspace invariant linter for the Unity Catalog
//! reproduction. Zero external dependencies: a lightweight Rust lexer +
//! brace-matched item scanner feed the rule families (determinism,
//! instrumentation coverage, keyspace, hygiene, stale config) plus an
//! `unsafe_code` gate. Output is byte-stable and sorted so CI can diff
//! consecutive runs. See DESIGN.md §8 for the rule catalog. Lock order is
//! not a rule here: the `parking_lot` shim checks it where each lock is
//! taken.
//!
//! The driver runs in phases: (1) load and scan every workspace file,
//! (2) find the service methods that open an `api_enter` span, (3) run
//! per-file rules, (4) stale-config, (5) pragma suppression over the
//! *whole* diagnostic set — which is also where pragmas that suppress
//! nothing become diagnostics themselves.

pub mod config;
pub mod lexer;
pub mod rules;
pub mod scan;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use config::Config;
use lexer::Lexed;
use rules::{Diagnostic, FileCtx, RULE_PRAGMA};
use scan::FileScan;

/// One scanned workspace file.
pub struct Unit {
    pub rel: String,
    pub crate_name: String,
    pub lexed: Lexed,
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
    let mut crate_names: BTreeSet<String> = BTreeSet::new();
    for crate_dir in &crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        crate_names.insert(crate_name.clone());
        let mut files = Vec::new();
        list_rs_files(&crate_dir.join("src"), &mut files)?;
        for path in files {
            let rel = rel_of(root, &path);
            let src =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let lexed = lexer::lex(&src);
            let scanned = scan::scan(&lexed.tokens, &rel);
            units.push(Unit { rel, crate_name: crate_name.clone(), lexed, scan: scanned });
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
            crate_name: &unit.crate_name,
            tokens: &unit.lexed.tokens,
            scan: &unit.scan,
            cfg: &cfg,
        };
        rules::determinism::check(&ctx, &mut diags);
        rules::hygiene::check(&ctx, &mut diags);
        rules::keyspace::check(&ctx, &mut diags);
        rules::instrument::check(&ctx, &covered, &mut diags);
        let is_crate_root = unit.rel.ends_with("/src/lib.rs");
        rules::check_unsafe(&ctx, is_crate_root, &mut diags);
    }

    // ── Phase 4: stale-config: every Lint.toml entry must still resolve
    // against the workspace it governs.
    let world = rules::staleconfig::World { files: &file_set, crates: &crate_names };
    rules::staleconfig::check(&cfg, &world, &mut diags);

    // ── Phase 5: pragma suppression over the whole diagnostic set ─────
    // `// uc-lint: allow(rule) -- reason` covers its own line and the one
    // below. Malformed pragmas and pragmas without a reason are
    // diagnostics; so are well-formed pragmas that suppress nothing.
    struct ValidPragma {
        file: String,
        line: u32,
        rules: Vec<String>,
        used: bool,
    }
    let mut valid: Vec<ValidPragma> = Vec::new();
    for unit in &units {
        for p in &unit.lexed.pragmas {
            if p.malformed {
                diags.push(Diagnostic {
                    file: unit.rel.clone(),
                    line: p.line,
                    rule: RULE_PRAGMA,
                    message:
                        "malformed uc-lint pragma (expected `// uc-lint: allow(rule, ...) -- reason`)"
                            .to_string(),
                });
                continue;
            }
            if !p.has_reason {
                diags.push(Diagnostic {
                    file: unit.rel.clone(),
                    line: p.line,
                    rule: RULE_PRAGMA,
                    message: "uc-lint pragma requires a justification (`-- <reason>`)".to_string(),
                });
                continue;
            }
            valid.push(ValidPragma {
                file: unit.rel.clone(),
                line: p.line,
                rules: p.rules.clone(),
                used: false,
            });
        }
    }
    diags.retain(|d| {
        if d.rule == RULE_PRAGMA {
            return true;
        }
        for p in valid.iter_mut() {
            if p.file == d.file
                && (p.line == d.line || p.line + 1 == d.line)
                && p.rules.iter().any(|r| r == d.rule)
            {
                p.used = true;
                return false;
            }
        }
        true
    });
    for p in &valid {
        if !p.used {
            diags.push(Diagnostic {
                file: p.file.clone(),
                line: p.line,
                rule: RULE_PRAGMA,
                message: format!(
                    "pragma allow({}) suppresses no diagnostic (stale — delete it, or it hides a check that no longer fires)",
                    p.rules.join(", ")
                ),
            });
        }
    }

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
