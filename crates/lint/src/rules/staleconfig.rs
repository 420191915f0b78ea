//! Stale-config rule: `Lint.toml` is reviewed like code, so the linter
//! reviews it. Every entry that names a workspace file must still resolve
//! against the scanned workspace; an entry that no longer matches
//! anything is a diagnostic (attributed to its `Lint.toml` line), because
//! a stale allowlist silently widens what the other rules let through,
//! and a stale entry file silently narrows what they check.

use std::collections::BTreeSet;

use super::{Diagnostic, RULE_STALE_CONFIG};
use crate::config::Config;

fn diag(line: u32, message: String) -> Diagnostic {
    Diagnostic { file: "Lint.toml".to_string(), line, rule: RULE_STALE_CONFIG, message }
}

/// `files` holds every scanned file's workspace-relative path.
pub fn check(cfg: &Config, files: &BTreeSet<String>, out: &mut Vec<Diagnostic>) {
    for (section, key) in [("keyspace", "allow_files"), ("instrument", "entry_files")] {
        for (value, line) in cfg.items(section, key) {
            if !files.contains(&value) {
                out.push(diag(
                    line,
                    format!("[{section}] {key} names `{value}`, which is not a scanned workspace file"),
                ));
            }
        }
    }
}
