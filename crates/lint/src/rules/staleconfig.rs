//! Stale-config rule: `Lint.toml` is reviewed like code, so the linter
//! reviews it. Every entry that names a workspace artifact — a file or a
//! crate — must still resolve against the scanned workspace; an entry
//! that no longer matches anything is a diagnostic (attributed to its
//! `Lint.toml` line), because a stale allowlist silently widens what the
//! other rules let through.

use std::collections::BTreeSet;

use super::{Diagnostic, RULE_STALE_CONFIG};
use crate::config::Config;

/// What the workspace actually contains, gathered by the driver.
pub struct World<'a> {
    /// Every scanned file's workspace-relative path.
    pub files: &'a BTreeSet<String>,
    /// Every crate directory name under `crates/`.
    pub crates: &'a BTreeSet<String>,
}

fn diag(line: u32, message: String) -> Diagnostic {
    Diagnostic { file: "Lint.toml".to_string(), line, rule: RULE_STALE_CONFIG, message }
}

pub fn check(cfg: &Config, world: &World<'_>, out: &mut Vec<Diagnostic>) {
    // File-valued entries must name scanned (or at least existing) files.
    for (section, key) in [
        ("determinism", "allow_files"),
        ("keyspace", "allow_files"),
        ("instrument", "entry_files"),
    ] {
        for (value, line) in cfg.items(section, key) {
            if !world.files.contains(&value) {
                out.push(diag(
                    line,
                    format!("[{section}] {key} names `{value}`, which is not a scanned workspace file"),
                ));
            }
        }
    }
    // Crate-valued entries.
    for (value, line) in cfg.items("hygiene", "allow_crates") {
        if !world.crates.contains(&value) {
            out.push(diag(
                line,
                format!("[hygiene] allow_crates names `{value}`, which is not a workspace crate"),
            ));
        }
    }
}
