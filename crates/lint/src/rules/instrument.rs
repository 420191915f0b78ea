//! Instrumentation-coverage rule: every public method of the configured
//! `impl_type` in the `[instrument] entry_files` opens an
//! `api_enter(Op::HANDLE, ..)` span — in its own body, or in a method of
//! the same type that it calls as `self.m(..)` and that passes by the same
//! rule. `m` is looked up by name among the type's methods in the whole
//! workspace, public or private, which is exact: Rust allows no two
//! inherent methods of one type with one name. What an op audits is
//! pinned per op by the tests, not inferred here: that a handle names a
//! row, that the audit sink is handed an action of the table's and never a
//! string, and that a `PermissionDenied` carries a `Refusal` only the
//! `Deny` append builds, the compiler checks; how many records each op's
//! trail holds, `tests/audit_exactly_once.rs` counts.

use std::collections::{BTreeMap, BTreeSet};

use super::{is_ident, is_punct, Diagnostic, FileCtx, RULE_INSTRUMENT};
use crate::Unit;

/// The methods of `impl_type`, anywhere in the workspace, that open an
/// `api_enter` span themselves or through `self.m(..)` calls.
pub fn covered(units: &[Unit], impl_type: &str) -> BTreeSet<String> {
    // Each method: whether it opens a span, and the methods it calls on `self`.
    let mut methods: BTreeMap<&str, (bool, BTreeSet<&str>)> = BTreeMap::new();
    for unit in units {
        for f in &unit.scan.fns {
            let Some((open, close)) = f.body else { continue };
            if f.impl_type.as_deref() != Some(impl_type) || unit.scan.test_mask[open] {
                continue;
            }
            let body = &unit.tokens[open..=close];
            let entry = methods.entry(f.name.as_str()).or_default();
            entry.0 |= body.windows(2).any(|w| is_ident(&w[0], "api_enter") && is_punct(&w[1], "("));
            for w in body.windows(4) {
                if is_ident(&w[0], "self") && is_punct(&w[1], ".") && is_punct(&w[3], "(") {
                    entry.1.insert(w[2].text.as_str());
                }
            }
        }
    }
    let mut covered: BTreeSet<&str> = methods.iter().filter(|(_, m)| m.0).map(|(name, _)| *name).collect();
    loop {
        let reached: Vec<&str> = methods
            .iter()
            .filter(|(name, m)| !covered.contains(*name) && m.1.iter().any(|c| covered.contains(c)))
            .map(|(name, _)| *name)
            .collect();
        if reached.is_empty() {
            return covered.into_iter().map(str::to_string).collect();
        }
        covered.extend(reached);
    }
}

/// Flag each public method of `impl_type` in an entry file that is not
/// [`covered`].
pub fn check(ctx: &FileCtx<'_>, covered: &BTreeSet<String>, out: &mut Vec<Diagnostic>) {
    let entry_files = ctx.cfg.list("instrument", "entry_files");
    if !entry_files.iter().any(|f| f == ctx.rel_path) {
        return;
    }
    let impl_type = ctx.cfg.str("instrument", "impl_type").unwrap_or_default();
    for f in &ctx.scan.fns {
        let Some((open, _)) = f.body else { continue };
        if ctx.scan.test_mask[open] || !f.is_pub || f.impl_type.as_deref() != Some(impl_type.as_str()) {
            continue;
        }
        if !covered.contains(&f.name) {
            out.push(ctx.diag(
                f.line,
                RULE_INSTRUMENT,
                format!("pub entry point `{}` does not call api_enter, itself or through a `self.` method that does", f.name),
            ));
        }
    }
}
