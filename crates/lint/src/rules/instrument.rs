//! Instrumentation-coverage rule, a reachability check over the
//! workspace call graph: every public entry point on the catalog service
//! must *reach* an `api_enter(Op::HANDLE, ..)` span open, directly or
//! through any chain of resolvable callees (delegation across files and
//! crates counts). What an op audits is pinned per op by the tests, not
//! inferred here: that a handle names a row, that the audit sink is
//! handed an action of the table's and never a string, and that a
//! `PermissionDenied` carries a `Refusal` only the `Deny` append builds,
//! the compiler checks; how many records each op's trail holds,
//! `tests/audit_exactly_once.rs` counts.
//!
//! Known false negative (DESIGN.md §8): a call the graph cannot resolve
//! contributes no reachability facts.

use std::collections::BTreeMap;

use super::{is_ident, is_punct, Diagnostic, FileCtx, RULE_INSTRUMENT};
use crate::lexer::Token;

/// Does the token range call `api_enter(..)` itself?
pub fn opens_api_span(toks: &[Token], (open, close): (usize, usize)) -> bool {
    (open..close.saturating_sub(1)).any(|i| is_ident(&toks[i], "api_enter") && is_punct(&toks[i + 1], "("))
}

/// `reaches_api` maps this file's fn indices to whether they reach a
/// def whose body opens an `api_enter` span (their own body included).
pub fn check(ctx: &FileCtx<'_>, reaches_api: &BTreeMap<usize, bool>, out: &mut Vec<Diagnostic>) {
    let entry_files = ctx.cfg.list("instrument", "entry_files");
    if !entry_files.iter().any(|f| f == ctx.rel_path) {
        return;
    }
    let impl_type = ctx.cfg.str("instrument", "impl_type").unwrap_or_default();
    for (fn_idx, f) in ctx.scan.fns.iter().enumerate() {
        let Some(open) = f.body.map(|b| b.0) else { continue };
        if ctx.scan.test_mask[open] {
            continue;
        }
        let is_entry = f.is_pub && f.impl_type.as_deref() == Some(impl_type.as_str());
        if is_entry && !reaches_api.get(&fn_idx).copied().unwrap_or(false) {
            out.push(ctx.diag(
                f.line,
                RULE_INSTRUMENT,
                format!("pub entry point `{}` does not reach api_enter (directly or through any resolvable callee)", f.name),
            ));
        }
    }
}
