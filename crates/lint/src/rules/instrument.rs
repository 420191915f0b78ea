//! Instrumentation-coverage rule: three reachability checks over the
//! workspace call graph and one literal check, all against the op table
//! (`[instrument] audit_file`, parsed from source so the linter needs no
//! dependency on the catalog crate). Every public entry point on the
//! catalog service must *reach* an `api_enter(Op::HANDLE, ..)` span open
//! (directly or through any chain of resolvable callees — delegation
//! across files and crates counts); must reach an audit record
//! (`record_audit`) whenever its op's row declares audit actions — an
//! empty row marks a deliberately unaudited read/list op, so the audit
//! policy lives in one table; and any function that denies with
//! `PermissionDenied` must reach an `AuditDecision::Deny` (its own body or
//! a callee's). That a handle names a row the compiler checks; what is
//! left is that no entry file spells an action as a string literal.
//!
//! Known false negatives (DESIGN.md §8): the Deny check is
//! function-granular (one audited deny path satisfies it for the whole
//! function), and a call the graph cannot resolve contributes no
//! reachability facts.

use std::collections::{BTreeMap, BTreeSet};

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
    /// Reaches a body containing an `AuditDecision::Deny` mark.
    pub deny: bool,
}

/// op handle → the audit actions its row declares, parsed out of the op
/// table's source.
pub type KnownOps = BTreeMap<String, Vec<String>>;

/// Extract the op table: the rows of the `ops! { HANDLE = "name" =>
/// [actions]; .. }` block, an action being a string literal or the name
/// of a `const NAME: Action = Action("..")` in the same file. Returns
/// None when the table is absent.
pub fn parse_known_ops(tokens: &[Token]) -> Option<KnownOps> {
    let named: BTreeMap<&str, &str> = tokens
        .windows(8)
        .filter(|w| {
            is_ident(&w[0], "const") && is_ident(&w[5], "Action") && is_punct(&w[6], "(") && w[7].kind == Kind::Str
        })
        .map(|w| (w[1].text.as_str(), w[7].text.as_str()))
        .collect();
    let block = tokens
        .windows(3)
        .position(|w| is_ident(&w[0], "ops") && is_punct(&w[1], "!") && is_punct(&w[2], "{"))?;
    let mut ops = KnownOps::new();
    let mut row: Option<(String, Vec<String>)> = None;
    let mut in_list = false;
    for t in &tokens[block + 3..] {
        if is_punct(t, "}") {
            break;
        }
        match &mut row {
            None if t.kind == Kind::Ident => row = Some((t.text.clone(), Vec::new())),
            Some(_) if is_punct(t, "[") || is_punct(t, "]") => in_list = is_punct(t, "["),
            Some((_, actions)) if in_list && t.kind == Kind::Str => actions.push(t.text.clone()),
            // A name this file does not declare still marks the row audited.
            Some((_, actions)) if in_list && t.kind == Kind::Ident => {
                actions.push(named.get(t.text.as_str()).unwrap_or(&t.text.as_str()).to_string())
            }
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

/// Whether the token at `i` is the second argument of a `record_audit(..)`
/// call, where the sink takes its action (a first argument that itself
/// holds a call is not seen through).
fn is_sink_action(toks: &[Token], i: usize, open: usize) -> bool {
    let Some(call) = (open + 1..i).rev().find(|&j| is_punct(&toks[j], "(")) else { return false };
    is_ident(&toks[call - 1], "record_audit")
        && is_punct(&toks[i - 1], ",")
        && !toks[call + 1..i - 1].iter().any(|t| is_punct(t, ","))
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
    let table_file = ctx.cfg.str("instrument", "audit_file").unwrap_or_default();
    let table_actions: BTreeSet<&str> =
        known.values().flat_map(|v| v.iter().map(|s| s.as_str())).collect();
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
        let declares_audit =
            direct.as_ref().is_some_and(|op| known.get(op).is_none_or(|a| !a.is_empty()));
        if is_entry && has_audit_target && declares_audit && !r.audit {
            out.push(ctx.diag(
                f.line,
                RULE_INSTRUMENT,
                format!("pub entry point `{}` declares audit actions but never reaches an audit record (record_audit) on any return path", f.name),
            ));
        }

        // No audit-action literal: an action is declared in its op's row
        // and recorded through the request guard, so a literal here is a
        // table action carried around the guard (how one op came to audit
        // under another's name) or an undeclared one handed to the sink.
        for i in open..close {
            let t = &toks[i];
            if t.kind == Kind::Str
                && (table_actions.contains(t.text.as_str()) || is_sink_action(toks, i, open))
            {
                out.push(ctx.diag(
                    t.line,
                    RULE_INSTRUMENT,
                    format!("audit action literal \"{}\" outside the op table ({table_file}): an action is declared in its op's row and recorded through the request guard", t.text),
                ));
            }
        }

        // Deny paths must audit: PermissionDenied without a reachable
        // Deny mark (own body or any resolvable callee's).
        let has_denied = (open..close).any(|i| is_ident(&toks[i], "PermissionDenied"));
        if has_denied && !r.deny {
            out.push(ctx.diag(
                f.line,
                RULE_INSTRUMENT,
                format!("`{}` constructs PermissionDenied without reaching a Deny audit decision", f.name),
            ));
        }
    }
}
