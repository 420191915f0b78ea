//! Hot-path lock ban. The cached-read fast path — `api_enter` through the
//! audit append — runs once per lookup, so one shared exclusive lock
//! anywhere on it re-serializes the entire read side (the Fig 10 knee the
//! audit-lane/counter-stripe sharding removed). `[hotpath] functions` in
//! Lint.toml names only the *roots* (`<rel_path>::<fn_name>`); the driver
//! closes them over the workspace call graph, so a lock buried N calls
//! below `api_enter` is flagged exactly like one in `api_enter` itself.
//!
//! Any guard-returning acquisition (`.read()` / `.write()` / `.lock()` /
//! `.try_lock()` / `.write_gate()` / `.acquire()`) inside a closure
//! member is a diagnostic unless suppressed with a reasoned
//! `// uc-lint: allow(hotpath)` pragma. A pragma on a *call site* inside
//! a member marks the hot/cold boundary instead: the callee subtree is
//! pruned from the closure (miss paths are cold by construction), and
//! the pragma counts as used.

use std::collections::BTreeMap;

use super::{is_punct, Diagnostic, FileCtx, RULE_HOTPATH};
use crate::lexer::Kind;

/// Method names whose call returns (or stands for) a lock guard.
const ACQ_METHODS: &[&str] = &["read", "write", "lock", "try_lock", "write_gate", "acquire"];

/// `members` maps this file's fn indices to their root-chain witness
/// (e.g. `api_enter -> tenant_label`), computed by
/// the driver from the hot-path closure.
pub fn check(ctx: &FileCtx<'_>, members: &BTreeMap<usize, String>, out: &mut Vec<Diagnostic>) {
    if members.is_empty() {
        return;
    }
    let toks = ctx.tokens;
    for (fn_idx, f) in ctx.scan.fns.iter().enumerate() {
        let Some(chain) = members.get(&fn_idx) else { continue };
        let Some((open, close)) = f.body else { continue };
        if ctx.scan.test_mask[open] {
            continue;
        }
        let via = if chain == &f.name { String::new() } else { format!("; on hot path via {chain}") };
        let mut i = open + 1;
        while i < close {
            let t = &toks[i];
            if t.kind == Kind::Ident
                && is_punct(&toks[i - 1], ".")
                && i + 1 < close
                && is_punct(&toks[i + 1], "(")
                && ACQ_METHODS.contains(&t.text.as_str())
            {
                out.push(ctx.diag(
                    t.line,
                    RULE_HOTPATH,
                    format!(
                        "`.{}()` acquisition inside hot-path function `{}` (api_enter→audit must take no shared exclusive lock{}; suppress with a reasoned allow(hotpath) pragma if provably uncontended)",
                        t.text, f.name, via
                    ),
                ));
            }
            i += 1;
        }
    }
}
