//! Stale-config rule: `Lint.toml` is reviewed like code, so the linter
//! reviews it. Every entry that names a workspace artifact — a file, a
//! crate, a guard receiver, a lock class — must still
//! resolve against the scanned workspace; an entry that no longer
//! matches anything is a diagnostic (attributed to its `Lint.toml`
//! line), because a stale allowlist silently widens what the other
//! rules let through. The removed `[locks] yieldful_calls` key is
//! flagged outright: the yieldful set is inferred from the call graph
//! now, and a lingering list would imply curation that no longer
//! happens.

use std::collections::BTreeSet;

use super::{Diagnostic, RULE_STALE_CONFIG};
use crate::config::Config;

/// What the workspace actually contains, gathered by the driver.
pub struct World<'a> {
    /// Every scanned file's workspace-relative path.
    pub files: &'a BTreeSet<String>,
    /// Every crate directory name under `crates/`.
    pub crates: &'a BTreeSet<String>,
    /// Every lock class the census observed (`crate.receiver` form).
    pub classes: &'a BTreeSet<String>,
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
    // Guard receivers must produce at least one acquisition site
    // somewhere; a receiver nothing locks through is dead config.
    for (value, line) in cfg.items("locks", "guard_receivers") {
        let suffix = format!(".{value}");
        if !world.classes.iter().any(|c| c.ends_with(&suffix)) {
            out.push(diag(
                line,
                format!("[locks] guard_receivers names `{value}`, which matches no acquisition site in the workspace"),
            ));
        }
    }
    // Pinned-order classes must exist in the census.
    for (value, line) in cfg.items("locks", "order") {
        if !world.classes.contains(&value) {
            out.push(diag(
                line,
                format!("[locks] order names lock class `{value}`, which the census never observed"),
            ));
        }
    }
    // The yieldful-call list is gone: reachability to sched yield points
    // infers the set. A leftover key means someone still curates it.
    if cfg.has_key("locks", "yieldful_calls") {
        let line = cfg.key_line("locks", "yieldful_calls").unwrap_or(1);
        out.push(diag(
            line,
            "[locks] yieldful_calls was removed: the yieldful set is inferred from call-graph reachability to sched yield points — delete this key".to_string(),
        ));
    }
}
