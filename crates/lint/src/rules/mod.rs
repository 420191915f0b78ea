//! Rule families. Each rule consumes a lexed + scanned file and emits
//! `Diagnostic`s; `crate::run` sorts and formats them. Rule names are
//! stable strings — they appear in output lines and Lint.toml, so
//! changing one is a breaking change to golden outputs.

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

pub const RULE_INSTRUMENT: &str = "instrument";
pub const RULE_KEYSPACE: &str = "keyspace";
pub const RULE_STALE_CONFIG: &str = "stale-config";

/// Everything a rule needs to look at one file.
pub struct FileCtx<'a> {
    pub rel_path: &'a str,
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
