//! Instrumentation-coverage rule: two reachability checks over the
//! workspace call graph, against the op table (`[instrument] audit_file`,
//! parsed from source so the linter needs no dependency on the catalog
//! crate). Every public entry point on the catalog service must *reach*
//! an `api_enter(Op::HANDLE, ..)` span open (directly or through any
//! chain of resolvable callees — delegation across files and crates
//! counts); must reach an audit record (`record_audit`) whenever its op's
//! row declares audit actions — an empty row marks a deliberately
//! unaudited read/list op, so the audit policy lives in one table — and
//! must not reach one when the row is empty, where the audit face would
//! index an empty action list and panic. That a
//! handle names a row, that the audit sink is handed an action of the
//! table's and never a string, and that a `PermissionDenied` carries a
//! `Refusal` only the `Deny` append builds, the compiler checks.
//!
//! Known false negative (DESIGN.md §8): a call the graph cannot resolve
//! contributes no reachability facts.

use std::collections::BTreeMap;

use super::{is_ident, is_punct, Diagnostic, FileCtx, RULE_INSTRUMENT};
use crate::lexer::{Kind, Token};

/// Per-function reachability facts, computed by the driver over the
/// call graph (each flag includes the function's own body).
#[derive(Debug, Clone, Copy, Default)]
pub struct Reach {
    /// Reaches a def whose body opens an `api_enter` span.
    pub api: bool,
    /// Reaches `record_audit`.
    pub audit: bool,
}

/// op handle → whether its row declares audit actions, parsed out of the
/// op table's source.
pub type KnownOps = BTreeMap<String, bool>;

/// Extract the op table: the rows of the `ops! { HANDLE = "name" =>
/// [actions]; .. }` block, a row declaring audit actions when its list
/// holds any action — a string literal or a named `Action`. Returns None
/// when the table is absent.
pub fn parse_known_ops(tokens: &[Token]) -> Option<KnownOps> {
    let block = tokens
        .windows(3)
        .position(|w| is_ident(&w[0], "ops") && is_punct(&w[1], "!") && is_punct(&w[2], "{"))?;
    let mut ops = KnownOps::new();
    let mut row: Option<(String, bool)> = None;
    let mut in_list = false;
    for t in &tokens[block + 3..] {
        if is_punct(t, "}") {
            break;
        }
        match &mut row {
            None if t.kind == Kind::Ident => row = Some((t.text.clone(), false)),
            Some(_) if is_punct(t, "[") || is_punct(t, "]") => in_list = is_punct(t, "["),
            Some((_, audited)) if in_list && matches!(t.kind, Kind::Str | Kind::Ident) => *audited = true,
            Some(_) if !in_list && is_punct(t, ";") => ops.extend(row.take()),
            _ => {}
        }
    }
    (!ops.is_empty()).then_some(ops)
}

/// The op handle of a direct `api_enter(Op::HANDLE, ..)` call in a token
/// range, if any: the last identifier of the first argument.
pub fn direct_api_op(toks: &[Token], range: (usize, usize)) -> Option<String> {
    let (open, close) = range;
    let call = (open..close.saturating_sub(1))
        .find(|&i| is_ident(&toks[i], "api_enter") && is_punct(&toks[i + 1], "("))?;
    toks[call + 2..close]
        .iter()
        .take_while(|t| !is_punct(t, ",") && !is_punct(t, ")"))
        .filter(|t| t.kind == Kind::Ident)
        .last()
        .map(|t| t.text.clone())
}

/// `reach` maps this file's fn indices to their reachability facts;
/// `has_audit_target` is false when the workspace defines no audit
/// record function at all (fixture corpora), which disables the
/// audit-reachability check rather than flagging every entry.
pub fn check(
    ctx: &FileCtx<'_>,
    known: Option<&KnownOps>,
    reach: &BTreeMap<usize, Reach>,
    has_audit_target: bool,
    out: &mut Vec<Diagnostic>,
) {
    let entry_files = ctx.cfg.list("instrument", "entry_files");
    if !entry_files.iter().any(|f| f == ctx.rel_path) {
        return;
    }
    let Some(known) = known else {
        out.push(ctx.diag(
            1,
            RULE_INSTRUMENT,
            "op table not found in [instrument] audit_file; cannot check instrumentation".to_string(),
        ));
        return;
    };
    let impl_type = ctx.cfg.str("instrument", "impl_type").unwrap_or_default();
    let toks = ctx.tokens;

    for (fn_idx, f) in ctx.scan.fns.iter().enumerate() {
        let Some((open, close)) = f.body else { continue };
        if ctx.scan.test_mask[open] {
            continue;
        }
        let direct = direct_api_op(toks, (open, close));
        let is_entry = f.is_pub && f.impl_type.as_deref() == Some(impl_type.as_str());
        let r = reach.get(&fn_idx).copied().unwrap_or_default();

        if is_entry && direct.is_none() && !r.api {
            out.push(ctx.diag(
                f.line,
                RULE_INSTRUMENT,
                format!("pub entry point `{}` does not reach api_enter (directly or through any resolvable callee)", f.name),
            ));
        }
        // Audit reachability: an entry whose op's row declares audit
        // actions must be able to land an audit record before returning —
        // on the success path and on denies. An empty row is the table's
        // way of declaring an unaudited read/list op, so those entries
        // are exempt (the exemption lives in the table, not in per-site
        // pragmas). No op span: the api_enter diagnostic above covers it.
        let declares_audit = direct.as_ref().is_some_and(|op| known.get(op) != Some(&false));
        if is_entry && has_audit_target && declares_audit && !r.audit {
            out.push(ctx.diag(
                f.line,
                RULE_INSTRUMENT,
                format!("pub entry point `{}` declares audit actions but never reaches an audit record (record_audit) on any return path", f.name),
            ));
        }
        // The converse: an entry whose row declares no action must not be
        // able to record one — the record indexes the row's actions.
        if is_entry && direct.is_some() && !declares_audit && r.audit {
            out.push(ctx.diag(
                f.line,
                RULE_INSTRUMENT,
                format!("pub entry point `{}` declares no audit actions but reaches an audit record (record_audit), which would index an empty action list", f.name),
            ));
        }
    }
}
