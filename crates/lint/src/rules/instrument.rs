//! Instrumentation-coverage rule, now a set of reachability checks over
//! the workspace call graph. Every public entry point on the catalog
//! service must *reach* an `api_enter("op")` span open (directly or
//! through any chain of resolvable callees — delegation across files and
//! crates counts), must reach an audit record (`record_audit`, or the
//! audit module's `record`) whenever its op declares audit actions — an
//! empty action set in `KNOWN_OPS` marks a deliberately unaudited
//! read/list op, so the audit policy lives in one table — the op string
//! must exist in the audit module's `KNOWN_OPS` table, audit action
//! literals must belong to that op's allowed set, and any function that
//! denies with `PermissionDenied` must reach an `AuditDecision::Deny`
//! (its own body or a callee's — the deny audit may live in a helper).
//!
//! Known false negatives (DESIGN.md §8): actions passed as variables are
//! not checked (`vend_for_chain`-style helpers), the Deny check is
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
    /// Reaches `record_audit` / the audit module's `record`.
    pub audit: bool,
    /// Reaches a body containing an `AuditDecision::Deny` mark.
    pub deny: bool,
}

/// op → allowed audit actions, parsed out of the audit module source.
pub type KnownOps = BTreeMap<String, Vec<String>>;

/// Extract the `KNOWN_OPS: &[(&str, &[&str])]` table from the audit
/// module's token stream. Returns None when the table is absent.
pub fn parse_known_ops(tokens: &[Token]) -> Option<KnownOps> {
    let kw = tokens.iter().position(|t| is_ident(t, "KNOWN_OPS"))?;
    // Skip the type annotation (`: &[(&str, &[&str])]`) — walk the
    // *initializer*, which starts after the `=`.
    let start = (kw..tokens.len()).find(|&i| is_punct(&tokens[i], "="))?;
    let mut ops = KnownOps::new();
    let mut depth = 0i64;
    let mut i = start;
    let mut current: Option<(String, Vec<String>)> = None;
    // Walk the initializer: entries look like `("op", &["a", "b"])`.
    while i < tokens.len() {
        let t = &tokens[i];
        if is_punct(t, "[") {
            depth += 1;
        } else if is_punct(t, "]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if is_punct(t, "(") && depth == 1 {
            current = Some((String::new(), Vec::new()));
        } else if is_punct(t, ")") && depth == 1 {
            if let Some((op, actions)) = current.take() {
                if !op.is_empty() {
                    ops.insert(op, actions);
                }
            }
        } else if t.kind == Kind::Str {
            if let Some((op, actions)) = current.as_mut() {
                if op.is_empty() {
                    *op = t.text.clone();
                } else {
                    actions.push(t.text.clone());
                }
            }
        } else if is_punct(t, ";") && depth == 0 && i > start {
            break;
        }
        i += 1;
    }
    if ops.is_empty() {
        None
    } else {
        Some(ops)
    }
}

/// The API entry hook; its first argument is the op string.
const API_ENTER_FNS: &[&str] = &["api_enter"];

/// Find the op string of a direct `api_enter("...")` call in a token
/// range, if any.
pub fn direct_api_op(toks: &[Token], range: (usize, usize)) -> Option<(String, u32)> {
    let (open, close) = range;
    for i in open..close {
        if API_ENTER_FNS.iter().any(|f| is_ident(&toks[i], f))
            && i + 2 < close
            && is_punct(&toks[i + 1], "(")
            && toks[i + 2].kind == Kind::Str
        {
            return Some((toks[i + 2].text.clone(), toks[i + 2].line));
        }
    }
    None
}

/// Split a call's argument tokens into top-level comma-separated args.
/// `open` indexes the `(`. Returns (args, index_after_close).
fn call_args(toks: &[Token], open: usize) -> (Vec<Vec<usize>>, usize) {
    let mut args: Vec<Vec<usize>> = vec![Vec::new()];
    let mut depth = 0i64;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        if is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{") {
            depth += 1;
            if depth > 1 {
                if let Some(last) = args.last_mut() {
                    last.push(i);
                }
            }
        } else if is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}") {
            depth -= 1;
            if depth == 0 {
                return (args, i + 1);
            }
            if let Some(last) = args.last_mut() {
                last.push(i);
            }
        } else if is_punct(t, ",") && depth == 1 {
            args.push(Vec::new());
        } else if depth >= 1 {
            if let Some(last) = args.last_mut() {
                last.push(i);
            }
        }
        i += 1;
    }
    (args, i)
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
            "audit module KNOWN_OPS table not found; cannot check instrumentation".to_string(),
        ));
        return;
    };
    let impl_type = ctx.cfg.str("instrument", "impl_type").unwrap_or_default();
    let global_actions: BTreeSet<&str> =
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
        // Audit reachability: an entry whose op declares audit actions in
        // KNOWN_OPS must be able to land an audit record before returning
        // — on the success path and on denies. An empty action set is the
        // policy table's way of declaring an unaudited read/list op, so
        // those entries are exempt (the exemption lives in KNOWN_OPS, not
        // in per-site pragmas).
        let declares_audit = match &direct {
            Some((op, _)) => known.get(op).is_none_or(|a| !a.is_empty()),
            None => false, // no op span: the api_enter diagnostic above covers it
        };
        if is_entry && has_audit_target && declares_audit && !r.audit {
            out.push(ctx.diag(
                f.line,
                RULE_INSTRUMENT,
                format!("pub entry point `{}` declares audit actions but never reaches an audit record (record_audit) on any return path", f.name),
            ));
        }
        if let Some((op, op_line)) = &direct {
            if !known.contains_key(op) {
                out.push(ctx.diag(
                    *op_line,
                    RULE_INSTRUMENT,
                    format!("api op \"{op}\" is not in audit::KNOWN_OPS"),
                ));
            }
        }

        // (a) Every literal action handed to record_audit must be a known
        // action — catches ad-hoc names like "create" that exist in no
        // op's allowed set.
        let mut i = open;
        while i < close {
            if is_ident(&toks[i], "record_audit") && i + 1 < close && is_punct(&toks[i + 1], "(") {
                let (args, after) = call_args(toks, i + 1);
                // record_audit(principal, action, entity, decision, detail)
                if let Some(arg) = args.get(1) {
                    if let [only] = arg.as_slice() {
                        if toks[*only].kind == Kind::Str {
                            let action = toks[*only].text.as_str();
                            if !global_actions.contains(action) {
                                out.push(ctx.diag(
                                    toks[*only].line,
                                    RULE_INSTRUMENT,
                                    format!("audit action \"{action}\" is not in audit::KNOWN_OPS"),
                                ));
                            }
                        }
                    }
                }
                i = after;
                continue;
            }
            i += 1;
        }
        // (b) In an op-bearing function, any string literal that IS a
        // known audit action must be allowed for that op — catches
        // cross-op mixups even when the action travels through a helper
        // (e.g. vend_for_chain) rather than record_audit directly.
        if let Some((op, _)) = &direct {
            if let Some(allowed) = known.get(op) {
                for t in toks.iter().take(close).skip(open) {
                    if t.kind == Kind::Str
                        && global_actions.contains(t.text.as_str())
                        && !allowed.iter().any(|a| a == &t.text)
                    {
                        out.push(ctx.diag(
                            t.line,
                            RULE_INSTRUMENT,
                            format!(
                                "audit action \"{}\" does not match api op \"{op}\" (allowed: {})",
                                t.text,
                                allowed.join(", ")
                            ),
                        ));
                    }
                }
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
