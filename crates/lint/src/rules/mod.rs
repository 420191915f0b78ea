//! Rule families. Each rule consumes a lexed + scanned file and emits
//! `Diagnostic`s; the driver handles pragma suppression, sorting, and
//! formatting. Rule names are stable strings — they appear in output
//! lines, pragmas, and Lint.toml, so changing one is a breaking change
//! to golden outputs.

pub mod determinism;
pub mod hygiene;
pub mod instrument;
pub mod keyspace;
pub mod staleconfig;

use crate::config::Config;
use crate::lexer::{Kind, Token};
use crate::scan::FileScan;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_HYGIENE: &str = "hygiene";
pub const RULE_INSTRUMENT: &str = "instrument";
pub const RULE_KEYSPACE: &str = "keyspace";
pub const RULE_UNSAFE: &str = "unsafe";
pub const RULE_PRAGMA: &str = "pragma";
pub const RULE_STALE_CONFIG: &str = "stale-config";

/// Everything a rule needs to look at one file.
pub struct FileCtx<'a> {
    pub rel_path: &'a str,
    pub crate_name: &'a str,
    pub tokens: &'a [Token],
    pub scan: &'a FileScan,
    pub cfg: &'a Config,
}

impl FileCtx<'_> {
    pub fn diag(&self, line: u32, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic { file: self.rel_path.to_string(), line, rule, message }
    }
}

pub fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == Kind::Ident && t.text == s
}

pub fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == Kind::Punct && t.text == s
}

/// `#![forbid(unsafe_code)]` / `#![deny(unsafe_code)]` presence check for
/// crate roots, plus a scan for the `unsafe` keyword anywhere. Small
/// enough to live here rather than its own module.
pub fn check_unsafe(ctx: &FileCtx<'_>, is_crate_root: bool, out: &mut Vec<Diagnostic>) {
    let toks = ctx.tokens;
    if is_crate_root {
        let mut found = false;
        let mut i = 0usize;
        while i + 5 < toks.len() {
            if is_punct(&toks[i], "#")
                && is_punct(&toks[i + 1], "!")
                && is_punct(&toks[i + 2], "[")
                && (is_ident(&toks[i + 3], "forbid") || is_ident(&toks[i + 3], "deny"))
                && is_punct(&toks[i + 4], "(")
                && is_ident(&toks[i + 5], "unsafe_code")
            {
                found = true;
                break;
            }
            i += 1;
        }
        if !found {
            out.push(ctx.diag(
                1,
                RULE_UNSAFE,
                "crate root missing #![forbid(unsafe_code)]".to_string(),
            ));
        }
    }
    for (i, t) in toks.iter().enumerate() {
        if ctx.scan.test_mask[i] {
            continue;
        }
        if is_ident(t, "unsafe_code") {
            continue;
        }
        if is_ident(t, "unsafe") {
            out.push(ctx.diag(t.line, RULE_UNSAFE, "`unsafe` keyword is forbidden".to_string()));
        }
    }
}
