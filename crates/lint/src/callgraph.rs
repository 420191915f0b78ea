//! Deterministic workspace call graph. Built from the same lexer/scanner
//! token streams the per-file rules use: every non-test function item
//! becomes a def keyed `file::fn`, and every call site inside a body is
//! resolved to zero or more defs by a layered set of heuristics —
//! receiver type inference (params, `let` bindings, `self`), a global
//! struct field→type map, return-type propagation for one-level chains,
//! path-qualified calls (`sched::yield_point`, `Type::method`,
//! `uc_obs::...`), and a globally-unique-name fallback. Resolution is
//! conservative: an ambiguous call (unknown receiver, several same-name
//! defs) produces NO edge rather than a guessed one, so the transitive
//! rules inherit false negatives, never false positives, from the graph.
//! A closure literal passed in a parameter position the callee invokes
//! directly runs inside that callee, so its calls are added as the
//! callee's edges too (`read_through(.., |c, v| c.get_at(..), ..)` makes
//! `get_at` a callee of `read_through`).
//!
//! On top of the graph three summaries feed the interprocedural rules:
//!
//!   * `yields_star` — which defs can reach a `sched` yield point
//!     (directly or through callees), with a next-hop edge per def so
//!     diagnostics can print the witness chain. This *infers* the
//!     yieldful-call set the old `[locks] yieldful_calls` list curated
//!     by hand.
//!   * `acq_star` — the set of lock classes each def may acquire while
//!     executing (transitively), with a per-(def, class) witness.
//!   * `hotpath_closure` — the closure of `[hotpath] functions` roots
//!     over call edges, pruned at call sites carrying a reasoned
//!     `allow(hotpath)` pragma (the structural hot/cold boundary: a
//!     pragma on a miss-path call says "everything below is off the hot
//!     path").
//!
//! All iteration is over sorted structures, so the `--call-graph`
//! artifact and every diagnostic derived from the graph are byte-stable.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{Kind, Lexed, Token};
use crate::scan::FileScan;

/// One scanned source file with everything the graph needs to see.
pub struct Unit {
    pub rel: String,
    pub crate_name: String,
    pub lexed: Lexed,
    pub scan: FileScan,
}

/// One function definition node.
#[derive(Debug)]
pub struct Def {
    /// `file::fn` — the stable key used in Lint.toml and artifacts.
    pub key: String,
    pub file: String,
    pub name: String,
    pub impl_type: Option<String>,
    pub crate_name: String,
    pub unit: usize,
    pub fn_idx: usize,
    pub line: u32,
    pub body: (usize, usize),
    /// Body directly contains a `yield_point(..)` call.
    pub has_yield: bool,
    /// First type identifier after `->` in the signature, unwrapped of
    /// reference/smart-pointer/result wrappers. Best-effort.
    pub ret_type: Option<String>,
    /// See [`invoked_params`].
    pub invoked: Vec<usize>,
}

/// One resolved call edge. A single textual call site that resolves to
/// several candidate defs (same name + type in several files) produces
/// one edge per candidate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub caller: usize,
    pub line: u32,
    pub call_name: String,
    pub callee: usize,
    /// Unit whose source holds the call site: the caller's own, except
    /// for a closure-argument edge (see [`invoked_params`]), whose site
    /// is in the function that wrote the closure literal.
    pub site_unit: usize,
}

/// Witness edge per (def, acquired class): which call-graph edge first
/// carried the class into the def's transitive may-acquire set.
pub type AcqWitness = BTreeMap<(usize, String), usize>;

pub struct CallGraph {
    pub defs: Vec<Def>,
    pub edges: Vec<Edge>,
    /// def -> indices into `edges`, sorted by (line, callee).
    pub out: Vec<Vec<usize>>,
    /// def -> indices into `edges` arriving at it.
    pub incoming: Vec<Vec<usize>>,
    /// `file::fn` -> def ids (several for same-name fns in one file).
    pub by_key: BTreeMap<String, Vec<usize>>,
    /// (unit, fn_idx) -> def id, for rule lookups.
    pub def_of_fn: BTreeMap<(usize, usize), usize>,
}

/// Type-name wrappers skipped when reading a field / return type: the
/// interesting type is the payload.
const WRAPPERS: &[&str] = &["Arc", "Box", "Rc", "Option", "Result", "UcResult", "Mutex", "RwLock", "OnceLock", "RefCell"];

/// Identifiers that look like calls but never resolve to workspace defs.
const NON_CALLS: &[&str] = &[
    "if", "match", "while", "for", "return", "loop", "break", "continue", "let", "else", "move",
    "Some", "None", "Ok", "Err", "Box", "Vec", "String", "Arc", "Rc",
];

/// Ubiquitous std collection/iterator/io method names. When the receiver
/// type is unknown, a call to one of these is overwhelmingly a std method
/// (`chain.versions.drain(..)`), so the globally-unique-name fallback
/// must not claim it for a workspace def that happens to share the name.
/// Typed receivers still resolve these normally.
const STD_METHODS: &[&str] = &[
    "all", "and_then", "any", "append", "as_str", "chain", "clear", "clone", "cloned", "collect",
    "contains", "contains_key", "count", "dedup", "drain", "entry", "expect", "extend", "filter",
    "find", "flush", "fold", "get", "get_mut", "insert", "into_iter", "is_empty", "iter", "join",
    "keys", "len", "map", "max", "min", "next", "or_else", "parse", "pop", "position", "push",
    "push_back", "push_front", "remove", "replace", "retain", "rev", "rposition", "sort",
    "split", "split_off", "sum", "take", "to_owned", "to_string", "unwrap", "values",
    "write_all",
];

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == Kind::Punct && t.text == s
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == Kind::Ident && t.text == s
}

/// First meaningful type identifier starting at `i`, skipping references,
/// mutability, lifetimes, `dyn`/`impl`, and unwrapping one or more
/// `Wrapper<...>` layers.
fn type_head(toks: &[Token], mut i: usize, end: usize) -> Option<String> {
    let mut hops = 0;
    while i < end && hops < 12 {
        hops += 1;
        let t = &toks[i];
        if is_punct(t, "&") || is_punct(t, "*") || t.kind == Kind::Lifetime {
            i += 1;
            continue;
        }
        if t.kind == Kind::Ident && matches!(t.text.as_str(), "mut" | "dyn" | "impl" | "const") {
            i += 1;
            continue;
        }
        if t.kind == Kind::Ident {
            if WRAPPERS.contains(&t.text.as_str()) && i + 1 < end && is_punct(&toks[i + 1], "<") {
                i += 2;
                continue;
            }
            return Some(t.text.clone());
        }
        return None;
    }
    None
}

/// Parse `struct Name { field: Type, ... }` items across a unit into the
/// global field map. Tuple/unit structs contribute nothing.
fn collect_struct_fields(toks: &[Token], out: &mut BTreeMap<String, BTreeMap<String, String>>) {
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if is_ident(&toks[i], "struct") && toks[i + 1].kind == Kind::Ident {
            let name = toks[i + 1].text.clone();
            // Walk to the opening `{` at angle-depth zero, bailing on `;`
            // (tuple/unit struct) or `(`.
            let mut j = i + 2;
            let mut angle = 0i64;
            let mut open = None;
            while j < toks.len() {
                let t = &toks[j];
                if is_punct(t, "<") {
                    angle += 1;
                } else if is_punct(t, ">") {
                    angle -= 1;
                } else if angle == 0 && (is_punct(t, ";") || is_punct(t, "(")) {
                    break;
                } else if angle == 0 && is_punct(t, "{") {
                    open = Some(j);
                    break;
                }
                j += 1;
            }
            let Some(open) = open else {
                i += 1;
                continue;
            };
            let fields = out.entry(name).or_default();
            let mut depth = 1i64;
            let mut k = open + 1;
            while k < toks.len() && depth > 0 {
                let t = &toks[k];
                if is_punct(t, "{") {
                    depth += 1;
                } else if is_punct(t, "}") {
                    depth -= 1;
                } else if depth == 1
                    && t.kind == Kind::Ident
                    && k + 1 < toks.len()
                    && is_punct(&toks[k + 1], ":")
                    && !matches!(t.text.as_str(), "pub" | "crate" | "super")
                {
                    if let Some(ty) = type_head(toks, k + 2, toks.len()) {
                        fields.entry(t.text.clone()).or_insert(ty);
                    }
                }
                k += 1;
            }
            i = k;
            continue;
        }
        i += 1;
    }
}

/// Parse the parameter list of the fn whose name token is at `name_idx`
/// into `var -> type` entries, plus the return type and the typed
/// parameters' names in order (`self` has no type and is not among them).
fn fn_signature(
    toks: &[Token],
    name_idx: usize,
    body_open: usize,
) -> (BTreeMap<String, String>, Option<String>, Vec<String>) {
    let mut env = BTreeMap::new();
    let mut ret = None;
    let mut names = Vec::new();
    // Find the parameter `(` (skipping a generic list).
    let mut i = name_idx + 1;
    let mut angle = 0i64;
    while i < body_open {
        let t = &toks[i];
        if is_punct(t, "<") {
            angle += 1;
        } else if is_punct(t, ">") {
            angle -= 1;
        } else if angle == 0 && is_punct(t, "(") {
            break;
        }
        i += 1;
    }
    if i >= body_open {
        return (env, ret, names);
    }
    let mut depth = 0i64;
    let mut j = i;
    while j < body_open {
        let t = &toks[j];
        if is_punct(t, "(") || is_punct(t, "[") {
            depth += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1
            && t.kind == Kind::Ident
            && j + 1 < body_open
            && is_punct(&toks[j + 1], ":")
        {
            if let Some(ty) = type_head(toks, j + 2, body_open) {
                env.insert(t.text.clone(), ty);
                names.push(t.text.clone());
            }
        }
        j += 1;
    }
    // Return type: `-> Type` between the param close and the body open.
    let mut k = j;
    while k + 1 < body_open {
        if is_punct(&toks[k], "-") && is_punct(&toks[k + 1], ">") {
            ret = type_head(toks, k + 2, body_open);
            break;
        }
        k += 1;
    }
    (env, ret, names)
}

/// Positions, among `params` (a fn's typed parameters in order), of the
/// ones its body calls directly — `probe(..)` for a parameter named
/// `probe`. A closure literal passed in such a position runs *inside*
/// the fn, so the calls the literal makes are the fn's calls too: edge
/// extraction adds them as closure-argument edges. A parameter that is
/// only handed on (`self.miss_round(.., &load)`) is not in the set.
fn invoked_params(toks: &[Token], params: &[String], body: (usize, usize)) -> Vec<usize> {
    let called = |name: &String| {
        (body.0 + 1..body.1).any(|i| {
            is_ident(&toks[i], name)
                && is_punct(&toks[i + 1], "(")
                && !is_punct(&toks[i - 1], ".")
                && !is_punct(&toks[i - 1], "::")
        })
    };
    (0..params.len()).filter(|&k| called(&params[k])).collect()
}

/// Token range of the closure literal (`|..| body` / `move |..| body`)
/// passed as argument number `pos` of the call whose `(` is at `lparen`,
/// if that argument is one.
fn closure_arg(toks: &[Token], lparen: usize, limit: usize, pos: usize) -> Option<(usize, usize)> {
    let is_closure = |s: usize| is_punct(&toks[s], "|") || (is_ident(&toks[s], "move") && is_punct(&toks[s + 1], "|"));
    let (mut depth, mut arg, mut start, mut k) = (0i64, 0usize, lparen + 1, lparen);
    while k < limit {
        let t = &toks[k];
        if is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{") {
            depth += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}") {
            depth -= 1;
        }
        let end_of_arg = (depth == 1 && is_punct(t, ",")) || depth == 0;
        if end_of_arg && arg == pos {
            return (start < k && is_closure(start)).then_some((start, k));
        }
        if depth == 0 {
            return None;
        }
        if end_of_arg {
            arg += 1;
            start = k + 1;
        } else if depth == 1 && is_punct(t, "|") && (k == start || (k == start + 1 && is_ident(&toks[start], "move"))) {
            // Skip the closure's parameter list: its commas are not
            // argument separators.
            k = (k + 1..limit).find(|&j| is_punct(&toks[j], "|")).unwrap_or(limit);
        }
        k += 1;
    }
    None
}

struct Resolver<'a> {
    units: &'a [Unit],
    defs: &'a [Def],
    by_name: BTreeMap<&'a str, Vec<usize>>,
    fields: BTreeMap<String, BTreeMap<String, String>>,
}

impl<'a> Resolver<'a> {
    /// Defs named `name` implemented on type `ty`, sorted.
    fn methods_of(&self, ty: &str, name: &str) -> Vec<usize> {
        self.by_name
            .get(name)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&d| self.defs[d].impl_type.as_deref() == Some(ty))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Resolve the *type* of a dotted receiver chain whose last token is
    /// at `j` (e.g. `self.config.obs` with `j` at `obs`). Understands a
    /// one-level trailing call `recv.method(..)` via return types.
    fn receiver_type(
        &self,
        toks: &[Token],
        j: usize,
        open: usize,
        env: &BTreeMap<String, String>,
        impl_type: Option<&str>,
        depth: usize,
    ) -> Option<String> {
        if depth > 4 {
            return None;
        }
        let t = toks.get(j)?;
        // `...(args).method(` — resolve the inner call's return type.
        if is_punct(t, ")") {
            let mut bal = 0i64;
            let mut k = j;
            loop {
                let u = &toks[k];
                if is_punct(u, ")") {
                    bal += 1;
                } else if is_punct(u, "(") {
                    bal -= 1;
                    if bal == 0 {
                        break;
                    }
                }
                if k == 0 || k <= open {
                    return None;
                }
                k -= 1;
            }
            if k == 0 {
                return None;
            }
            let callee = self.resolve_at(toks, k - 1, open, env, impl_type, depth + 1);
            let mut rets: BTreeSet<&str> = BTreeSet::new();
            for d in callee {
                if let Some(r) = self.defs[d].ret_type.as_deref() {
                    rets.insert(r);
                }
            }
            if rets.len() == 1 {
                return rets.into_iter().next().map(|s| s.to_string());
            }
            return None;
        }
        if t.kind != Kind::Ident {
            return None;
        }
        // Base of the chain?
        let base_ty = if j <= open || !is_punct(&toks[j - 1], ".") {
            if t.text == "self" {
                impl_type.map(|s| s.to_string())
            } else {
                env.get(&t.text).cloned()
            }
        } else {
            // `<prefix>.field` — resolve the prefix, then the field.
            let prefix = self.receiver_type(toks, j - 2, open, env, impl_type, depth + 1)?;
            return self
                .fields
                .get(&prefix)
                .and_then(|f| f.get(&t.text))
                .cloned();
        };
        base_ty
    }

    /// Resolve the call whose *name token* is at `i` (the token just
    /// before the argument `(`). Returns candidate def ids, sorted.
    fn resolve_at(
        &self,
        toks: &[Token],
        i: usize,
        open: usize,
        env: &BTreeMap<String, String>,
        impl_type: Option<&str>,
        depth: usize,
    ) -> Vec<usize> {
        let t = &toks[i];
        if t.kind != Kind::Ident || NON_CALLS.contains(&t.text.as_str()) {
            return Vec::new();
        }
        let name = t.text.as_str();
        // Method call: `recv.name(`.
        if i > 0 && is_punct(&toks[i - 1], ".") {
            if i >= 2 {
                if let Some(ty) =
                    self.receiver_type(toks, i - 2, open, env, impl_type, depth)
                {
                    let hits = self.methods_of(&ty, name);
                    if !hits.is_empty() {
                        return hits;
                    }
                    // Known receiver type with no matching method: the
                    // method lives outside the workspace (std, shim).
                    return Vec::new();
                }
            }
            // Unknown receiver: resolve only a globally unique name, and
            // never a name std collections/iterators also use.
            if STD_METHODS.contains(&name) {
                return Vec::new();
            }
            return match self.by_name.get(name) {
                Some(v) if v.len() == 1 => v.clone(),
                _ => Vec::new(),
            };
        }
        // Path call: `Seg::name(`.
        if i >= 2 && is_punct(&toks[i - 1], "::") && toks[i - 2].kind == Kind::Ident {
            let seg = toks[i - 2].text.as_str();
            let seg_owned;
            let seg = if seg == "Self" {
                match impl_type {
                    Some(s) => {
                        seg_owned = s.to_string();
                        &seg_owned
                    }
                    None => return Vec::new(),
                }
            } else {
                seg
            };
            // Type-qualified: `Type::method`.
            let hits = self.methods_of(seg, name);
            if !hits.is_empty() {
                return hits;
            }
            // Module-qualified: file stem match (`sched::yield_point` →
            // .../sched.rs), then crate-qualified (`uc_obs::...` → any
            // free fn in crates/obs).
            let Some(cands) = self.by_name.get(name) else { return Vec::new() };
            let stem: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&d| {
                    let f = &self.defs[d].file;
                    f.ends_with(&format!("/{seg}.rs")) || f.ends_with(&format!("/{seg}/mod.rs"))
                })
                .collect();
            if !stem.is_empty() {
                return stem;
            }
            if let Some(krate) = seg.strip_prefix("uc_") {
                let in_crate: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&d| {
                        self.defs[d].crate_name == krate && self.defs[d].impl_type.is_none()
                    })
                    .collect();
                if !in_crate.is_empty() {
                    return in_crate;
                }
            }
            return Vec::new();
        }
        // Bare call: a closure-typed local shadows any def.
        if env.contains_key(name) {
            return Vec::new();
        }
        let Some(cands) = self.by_name.get(name) else { return Vec::new() };
        // A bare call only ever reaches a free function (methods need a
        // receiver or `Type::` path); the caller disambiguates same-file
        // vs same-crate vs globally-unique.
        cands.iter().copied().filter(|&d| self.defs[d].impl_type.is_none()).collect()
    }
}

impl CallGraph {
    pub fn build(units: &[Unit]) -> CallGraph {
        // Defs, in unit order (units arrive sorted by path).
        let mut defs: Vec<Def> = Vec::new();
        let mut def_of_fn: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for (u, unit) in units.iter().enumerate() {
            for (fi, f) in unit.scan.fns.iter().enumerate() {
                let Some(body) = f.body else { continue };
                if unit.scan.test_mask[body.0] {
                    continue;
                }
                // A def is a yield seed if its body calls `yield_point(..)`
                // — or if it IS the scheduler's yield point.
                let has_yield = f.name == "yield_point"
                    || (body.0..body.1).any(|i| {
                        is_ident(&unit.lexed.tokens[i], "yield_point")
                            && i + 1 < body.1
                            && is_punct(&unit.lexed.tokens[i + 1], "(")
                    });
                // Locate the name token (the ident after `fn` at f.line).
                let name_idx = (0..body.0)
                    .rev()
                    .find(|&i| {
                        is_ident(&unit.lexed.tokens[i], "fn")
                            && unit.lexed.tokens.get(i + 1).map(|t| t.text == f.name).unwrap_or(false)
                    })
                    .map(|i| i + 1);
                let (_, ret_type, params) = match name_idx {
                    Some(ni) => fn_signature(&unit.lexed.tokens, ni, body.0),
                    None => (BTreeMap::new(), None, Vec::new()),
                };
                let id = defs.len();
                defs.push(Def {
                    key: format!("{}::{}", unit.rel, f.name),
                    file: unit.rel.clone(),
                    name: f.name.clone(),
                    impl_type: f.impl_type.clone(),
                    crate_name: unit.crate_name.clone(),
                    unit: u,
                    fn_idx: fi,
                    line: f.line,
                    body,
                    has_yield,
                    ret_type,
                    invoked: invoked_params(&unit.lexed.tokens, &params, body),
                });
                def_of_fn.insert((u, fi), id);
            }
        }

        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, d) in defs.iter().enumerate() {
            by_name.entry(d.name.as_str()).or_default().push(i);
        }
        let mut fields: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
        for unit in units {
            collect_struct_fields(&unit.lexed.tokens, &mut fields);
        }

        // Edge extraction. Borrow-split: the resolver borrows `defs`
        // immutably, edges accumulate separately.
        let mut edges: Vec<Edge> = Vec::new();
        {
            let resolver = Resolver { units, defs: &defs, by_name, fields };
            let _ = resolver.units;
            for (caller, d) in defs.iter().enumerate() {
                let unit = &units[d.unit];
                let toks = &unit.lexed.tokens;
                let (open, close) = d.body;
                // Local type environment: params first, then `let`s as
                // the body walk encounters them.
                let name_idx = (0..open).rev().find(|&i| {
                    is_ident(&toks[i], "fn")
                        && toks.get(i + 1).map(|t| t.text == d.name).unwrap_or(false)
                });
                let mut env = match name_idx {
                    Some(ni) => fn_signature(toks, ni + 1, open).0,
                    None => BTreeMap::new(),
                };
                let impl_type = d.impl_type.as_deref();
                // Closure literals this body passes in a position the
                // callee invokes: (token range, callee).
                let mut inlined: Vec<((usize, usize), usize)> = Vec::new();
                let mut i = open + 1;
                while i < close {
                    let t = &toks[i];
                    // `let [mut] x : Type =` / `let [mut] x = <expr>`.
                    if is_ident(t, "let") {
                        let mut j = i + 1;
                        if j < close && is_ident(&toks[j], "mut") {
                            j += 1;
                        }
                        if j < close && toks[j].kind == Kind::Ident {
                            let var = toks[j].text.clone();
                            if j + 1 < close && is_punct(&toks[j + 1], ":") {
                                if let Some(ty) = type_head(toks, j + 2, close) {
                                    env.insert(var, ty);
                                }
                            } else if j + 1 < close && is_punct(&toks[j + 1], "=") {
                                // One-level inference from the initializer:
                                // `Type::ctor(..)` or `recv.method(..)`.
                                if let Some(ty) = infer_expr_type(
                                    &resolver, toks, j + 2, open, close, &env, impl_type,
                                ) {
                                    env.insert(var, ty);
                                }
                            }
                        }
                    }
                    // A call site: ident followed by `(`, not a macro, not
                    // a definition.
                    if t.kind == Kind::Ident
                        && i + 1 < close
                        && is_punct(&toks[i + 1], "(")
                        && !(i > 0 && is_ident(&toks[i - 1], "fn"))
                    {
                        let mut targets =
                            resolver.resolve_at(toks, i, open, &env, impl_type, 0);
                        // Bare-call disambiguation (resolve_at returns all
                        // same-name candidates for bare calls): prefer
                        // same-file, then a globally unique def.
                        let bare = !(i > 0
                            && (is_punct(&toks[i - 1], ".") || is_punct(&toks[i - 1], "::")));
                        if bare && targets.len() > 1 {
                            let same_file: Vec<usize> = targets
                                .iter()
                                .copied()
                                .filter(|&x| defs[x].file == d.file)
                                .collect();
                            if !same_file.is_empty() {
                                targets = same_file;
                            } else {
                                let same_crate: Vec<usize> = targets
                                    .iter()
                                    .copied()
                                    .filter(|&x| defs[x].crate_name == d.crate_name)
                                    .collect();
                                targets =
                                    if same_crate.len() == 1 { same_crate } else { Vec::new() };
                            }
                        }
                        for callee in targets {
                            if callee == caller {
                                continue;
                            }
                            let hosts = inlined.iter().filter(|((s, e), _)| (*s..*e).contains(&i)).map(|(_, h)| *h);
                            for from in std::iter::once(caller).chain(hosts).filter(|&f| f != callee) {
                                edges.push(Edge {
                                    caller: from,
                                    line: t.line,
                                    call_name: t.text.clone(),
                                    callee,
                                    site_unit: d.unit,
                                });
                            }
                            for &pos in &defs[callee].invoked {
                                if let Some(range) = closure_arg(toks, i + 1, close, pos) {
                                    inlined.push((range, callee));
                                }
                            }
                        }
                    }
                    i += 1;
                }
            }
        }
        edges.sort();
        edges.dedup();

        let mut out: Vec<Vec<usize>> = vec![Vec::new(); defs.len()];
        let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); defs.len()];
        for (ei, e) in edges.iter().enumerate() {
            out[e.caller].push(ei);
            incoming[e.callee].push(ei);
        }
        let mut by_key: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, d) in defs.iter().enumerate() {
            by_key.entry(d.key.clone()).or_default().push(i);
        }
        CallGraph { defs, edges, out, incoming, by_key, def_of_fn }
    }

    /// Edges leaving `def` at a given source line with a given call name
    /// — how the lock rule maps a token-walk call site back to the graph.
    pub fn callees_at(&self, def: usize, line: u32, name: &str) -> Vec<usize> {
        self.out[def]
            .iter()
            .map(|&ei| &self.edges[ei])
            .filter(|e| e.line == line && e.call_name == name && e.site_unit == self.defs[def].unit)
            .map(|e| e.callee)
            .collect()
    }

    /// Which defs can reach a sched yield point, with a witness next-hop
    /// edge per yieldful def (None for defs that yield directly).
    pub fn yields_star(&self) -> (Vec<bool>, Vec<Option<usize>>) {
        let mut flag = vec![false; self.defs.len()];
        let mut hop: Vec<Option<usize>> = vec![None; self.defs.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (i, d) in self.defs.iter().enumerate() {
            if d.has_yield {
                flag[i] = true;
                queue.push_back(i);
            }
        }
        while let Some(d) = queue.pop_front() {
            for &ei in &self.incoming[d] {
                let caller = self.edges[ei].caller;
                if !flag[caller] {
                    flag[caller] = true;
                    hop[caller] = Some(ei);
                    queue.push_back(caller);
                }
            }
        }
        (flag, hop)
    }

    /// Render the witness chain from a yieldful def down to the yield
    /// point: `a -> b -> yield_point`.
    pub fn yield_chain(&self, start: usize, hop: &[Option<usize>]) -> String {
        let mut parts = vec![self.defs[start].name.clone()];
        let mut cur = start;
        for _ in 0..8 {
            match hop[cur] {
                Some(ei) => {
                    cur = self.edges[ei].callee;
                    parts.push(self.defs[cur].name.clone());
                }
                None => break,
            }
        }
        if parts.last().map(|s| s != "yield_point").unwrap_or(true) {
            parts.push("yield_point".to_string());
        }
        parts.join(" -> ")
    }

    /// Transitive may-acquire lock classes per def, plus a witness edge
    /// per (def, class) for chain rendering. `direct` holds each def's
    /// own acquisition classes.
    pub fn acq_star(&self, direct: &[BTreeSet<String>]) -> (Vec<BTreeSet<String>>, AcqWitness) {
        let mut star: Vec<BTreeSet<String>> = direct.to_vec();
        let mut witness: AcqWitness = BTreeMap::new();
        let mut queue: VecDeque<usize> = (0..self.defs.len()).collect();
        let mut queued = vec![true; self.defs.len()];
        while let Some(d) = queue.pop_front() {
            queued[d] = false;
            if star[d].is_empty() {
                continue;
            }
            for &ei in &self.incoming[d] {
                let caller = self.edges[ei].caller;
                let mut grew = false;
                let add: Vec<String> =
                    star[d].iter().filter(|c| !star[caller].contains(*c)).cloned().collect();
                for c in add {
                    witness.insert((caller, c.clone()), ei);
                    star[caller].insert(c);
                    grew = true;
                }
                if grew && !queued[caller] {
                    queued[caller] = true;
                    queue.push_back(caller);
                }
            }
        }
        (star, witness)
    }

    /// Render the witness chain from `start` (inclusive) down to the
    /// function that directly acquires `class`: `a -> b -> acquirer`.
    pub fn acq_chain(
        &self,
        start: usize,
        class: &str,
        witness: &BTreeMap<(usize, String), usize>,
    ) -> String {
        let mut parts: Vec<String> = vec![self.defs[start].name.clone()];
        let mut cur = start;
        for _ in 0..8 {
            match witness.get(&(cur, class.to_string())) {
                Some(&ei) => {
                    cur = self.edges[ei].callee;
                    parts.push(self.defs[cur].name.clone());
                }
                None => break,
            }
        }
        parts.join(" -> ")
    }

    /// Which defs can reach (or are) a seed def, following call edges
    /// forward. Generic helper for the instrument reachability checks.
    pub fn reaches(&self, seed: &[bool]) -> Vec<bool> {
        let mut flag = seed.to_vec();
        let mut queue: VecDeque<usize> =
            (0..self.defs.len()).filter(|&i| flag[i]).collect();
        while let Some(d) = queue.pop_front() {
            for &ei in &self.incoming[d] {
                let caller = self.edges[ei].caller;
                if !flag[caller] {
                    flag[caller] = true;
                    queue.push_back(caller);
                }
            }
        }
        flag
    }
}

/// Infer the type of the expression starting at `j` for a `let` binding:
/// `Type::ctor(..)` (return type, or `Type` for `new`-style names) or a
/// resolvable call whose return type is known.
fn infer_expr_type(
    resolver: &Resolver<'_>,
    toks: &[Token],
    j: usize,
    open: usize,
    close: usize,
    env: &BTreeMap<String, String>,
    impl_type: Option<&str>,
) -> Option<String> {
    // Find the first call name token of the initializer expression: the
    // last ident of a leading path/receiver chain followed by `(`.
    let mut k = j;
    let mut last_call: Option<usize> = None;
    let mut depth = 0i64;
    while k < close {
        let t = &toks[k];
        if is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{") {
            if depth == 0
                && is_punct(t, "(")
                && k > j
                && toks[k - 1].kind == Kind::Ident
            {
                last_call = Some(k - 1);
                break;
            }
            depth += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}") {
            depth -= 1;
        } else if is_punct(t, ";") && depth == 0 {
            break;
        }
        k += 1;
    }
    let name_idx = last_call?;
    let cands = resolver.resolve_at(toks, name_idx, open, env, impl_type, 1);
    let mut rets: BTreeSet<&str> = BTreeSet::new();
    for d in &cands {
        if let Some(r) = resolver.defs[*d].ret_type.as_deref() {
            rets.insert(r);
        }
    }
    if rets.len() == 1 {
        return rets.into_iter().next().map(|s| s.to_string());
    }
    // `Type::new(..)`-style constructor convention.
    if name_idx >= 2
        && is_punct(&toks[name_idx - 1], "::")
        && toks[name_idx - 2].kind == Kind::Ident
        && toks[name_idx]
            .text
            .strip_prefix("new")
            .map(|r| r.is_empty() || r.starts_with('_'))
            .unwrap_or(false)
    {
        let seg = &toks[name_idx - 2].text;
        if seg != "Self" {
            return Some(seg.clone());
        }
        return impl_type.map(|s| s.to_string());
    }
    None
}

/// The transitive hot-path closure: membership chains keyed by def id,
/// plus the pragma sites consumed while pruning (so the driver can count
/// them as used).
pub struct HotClosure {
    /// def id -> witness chain from a root (`api_enter -> inner -> f`).
    pub member: BTreeMap<usize, String>,
    /// (file, pragma line) of every `allow(hotpath)` pragma that pruned
    /// a call edge out of the closure.
    pub used_pragmas: BTreeSet<(String, u32)>,
}

/// Compute the closure of the configured hot-path roots over call edges.
/// A call site covered by a reasoned `allow(hotpath)` pragma is a
/// hot/cold boundary: the edge is pruned and the pragma counted as used.
pub fn hotpath_closure(graph: &CallGraph, units: &[Unit], roots: &[String]) -> HotClosure {
    let mut member: BTreeMap<usize, String> = BTreeMap::new();
    let mut used: BTreeSet<(String, u32)> = BTreeSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for r in roots {
        if let Some(ids) = graph.by_key.get(r) {
            for &d in ids {
                if let std::collections::btree_map::Entry::Vacant(v) = member.entry(d) {
                    v.insert(graph.defs[d].name.clone());
                    queue.push_back(d);
                }
            }
        }
    }
    while let Some(d) = queue.pop_front() {
        let chain = member.get(&d).cloned().unwrap_or_default();
        for &ei in &graph.out[d] {
            let e = &graph.edges[ei];
            let unit = &units[e.site_unit];
            // Pragma pruning: a hotpath pragma covering the call line
            // marks the cold boundary.
            let pruned = unit.lexed.pragmas.iter().find(|p| {
                !p.malformed
                    && p.has_reason
                    && p.rules.iter().any(|r| r == "hotpath")
                    && (p.line == e.line || p.line + 1 == e.line)
            });
            if let Some(p) = pruned {
                used.insert((unit.rel.clone(), p.line));
                continue;
            }
            if let std::collections::btree_map::Entry::Vacant(v) = member.entry(e.callee) {
                v.insert(format!("{} -> {}", chain, graph.defs[e.callee].name));
                queue.push_back(e.callee);
            }
        }
    }
    HotClosure { member, used_pragmas: used }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scan::scan;

    fn unit(rel: &str, crate_name: &str, src: &str) -> Unit {
        let lexed = lex(src);
        let scanned = scan(&lexed.tokens, rel);
        Unit { rel: rel.to_string(), crate_name: crate_name.to_string(), lexed, scan: scanned }
    }

    fn edge_keys(g: &CallGraph) -> Vec<(String, String)> {
        g.edges
            .iter()
            .map(|e| (g.defs[e.caller].key.clone(), g.defs[e.callee].key.clone()))
            .collect()
    }

    #[test]
    fn resolves_self_methods_and_free_fns() {
        let u = unit(
            "crates/a/src/lib.rs",
            "a",
            "impl S { pub fn outer(&self) { self.inner(); helper(); } fn inner(&self) {} }\n\
             fn helper() {}",
        );
        let g = CallGraph::build(&[u]);
        let keys = edge_keys(&g);
        assert!(keys.contains(&("crates/a/src/lib.rs::outer".into(), "crates/a/src/lib.rs::inner".into())));
        assert!(keys.contains(&("crates/a/src/lib.rs::outer".into(), "crates/a/src/lib.rs::helper".into())));
    }

    #[test]
    fn shadowed_method_names_resolve_by_receiver_type() {
        let u = unit(
            "crates/a/src/lib.rs",
            "a",
            "impl A { pub fn get(&self) {} }\n\
             impl B { pub fn get(&self) {} }\n\
             pub fn use_a(a: &A) { a.get(); }\n\
             pub fn unknown(x: &Unknown) { x.get(); }",
        );
        let g = CallGraph::build(&[u]);
        // Two `get` defs share a file, so by_key groups them; resolve by
        // receiver type instead.
        let keys = edge_keys(&g);
        let a_get: Vec<_> = keys.iter().filter(|(_, c)| c.ends_with("::get")).collect();
        // `a.get()` resolves to exactly one target (A::get); `x.get()`
        // is ambiguous (unknown receiver, two defs) and produces no edge.
        assert_eq!(a_get.len(), 1);
        let callee = g.edges.iter().find(|e| g.defs[e.caller].name == "use_a").unwrap().callee;
        assert_eq!(g.defs[callee].impl_type.as_deref(), Some("A"));
        assert!(!g.edges.iter().any(|e| g.defs[e.caller].name == "unknown"));
    }

    #[test]
    fn trait_impl_methods_key_on_the_type() {
        let u = unit(
            "crates/a/src/lib.rs",
            "a",
            "impl Render for Row { fn paint(&self) {} }\n\
             pub fn draw(r: &Row) { r.paint(); }",
        );
        let g = CallGraph::build(&[u]);
        let e = g.edges.iter().find(|e| g.defs[e.caller].name == "draw").expect("edge");
        assert_eq!(g.defs[e.callee].impl_type.as_deref(), Some("Row"));
    }

    #[test]
    fn field_chains_resolve_through_struct_types() {
        let u = unit(
            "crates/a/src/lib.rs",
            "a",
            "struct Svc { obs: Arc<Obs> }\n\
             impl Obs { pub fn counter(&self) {} }\n\
             impl Svc { pub fn enter(&self) { self.obs.counter(); } }",
        );
        let g = CallGraph::build(&[u]);
        let e = g.edges.iter().find(|e| g.defs[e.caller].name == "enter").expect("edge");
        assert_eq!(g.defs[e.callee].name, "counter");
    }

    #[test]
    fn closure_literal_runs_inside_the_callee_that_invokes_it() {
        // `cached` calls `probe` itself and only hands `load` on, so the
        // first literal's calls are `cached`'s calls (site: the file that
        // wrote the literal) and the second literal's are not.
        let host = unit(
            "crates/a/src/cache.rs",
            "a",
            "pub fn cached(k: u32, probe: impl Fn(u32) -> u32, load: impl Fn() -> u32) -> u32 {\n\
             probe(k) + miss(&load) }\n\
             fn miss(load: &impl Fn() -> u32) -> u32 { load() }",
        );
        let user = unit(
            "crates/a/src/svc.rs",
            "a",
            "pub fn lookup(k: u32) -> u32 { cached(k, move |a, _b| hit_leaf(a), || cold_leaf()) }\n\
             fn hit_leaf(a: u32) -> u32 { a }\n\
             fn cold_leaf() -> u32 { 0 }",
        );
        let g = CallGraph::build(&[host, user]);
        let from_cached: Vec<&Edge> = g.edges.iter().filter(|e| g.defs[e.caller].name == "cached").collect();
        let callees: Vec<&str> = from_cached.iter().map(|e| g.defs[e.callee].name.as_str()).collect();
        assert_eq!(callees, ["hit_leaf", "miss"]);
        assert_eq!(from_cached[0].site_unit, 1, "the call site is in svc.rs");
        assert!(g.callees_at(from_cached[0].caller, 1, "hit_leaf").is_empty(), "not a call site of cached's own body");
    }

    #[test]
    fn module_and_crate_qualified_calls_resolve() {
        let a = unit(
            "crates/cloudstore/src/sched.rs",
            "cloudstore",
            "pub fn yield_point(_p: u32) {}",
        );
        let b = unit(
            "crates/obs/src/lib.rs",
            "obs",
            "pub fn current_trace_id() -> u64 { 0 }",
        );
        let c = unit(
            "crates/catalog/src/svc.rs",
            "catalog",
            "pub fn op() { sched::yield_point(1); let _t = uc_obs::current_trace_id(); }",
        );
        let g = CallGraph::build(&[a, b, c]);
        let keys = edge_keys(&g);
        assert!(keys.contains(&("crates/catalog/src/svc.rs::op".into(), "crates/cloudstore/src/sched.rs::yield_point".into())));
        assert!(keys.contains(&("crates/catalog/src/svc.rs::op".into(), "crates/obs/src/lib.rs::current_trace_id".into())));
    }

    #[test]
    fn closure_param_call_is_not_resolved() {
        let u = unit(
            "crates/a/src/lib.rs",
            "a",
            "pub fn f() {}\n\
             pub fn run(f: impl Fn()) { f(); }",
        );
        let g = CallGraph::build(&[u]);
        // `f` is a closure-typed param inside `run`; calling it must not
        // resolve to the free fn of the same name.
        assert!(!g.edges.iter().any(|e| g.defs[e.caller].name == "run"));
    }

    #[test]
    fn calls_inside_closures_attribute_to_the_enclosing_fn() {
        let u = unit(
            "crates/a/src/lib.rs",
            "a",
            "fn target() {}\n\
             pub fn outer() { let make = || target(); make(); }",
        );
        let g = CallGraph::build(&[u]);
        let keys = edge_keys(&g);
        assert!(keys.contains(&("crates/a/src/lib.rs::outer".into(), "crates/a/src/lib.rs::target".into())));
    }

    #[test]
    fn return_type_inference_types_let_bindings() {
        let u = unit(
            "crates/a/src/lib.rs",
            "a",
            "struct Db; struct ReadTxn;\n\
             impl Db { pub fn begin_read(&self) -> ReadTxn { ReadTxn } }\n\
             impl ReadTxn { pub fn get(&self) {} }\n\
             impl Getter { pub fn get(&self) {} }\n\
             pub fn read(db: &Db) { let rt = db.begin_read(); rt.get(); }",
        );
        let g = CallGraph::build(&[u]);
        let e = g
            .edges
            .iter()
            .find(|e| g.defs[e.caller].name == "read" && e.call_name == "get")
            .expect("rt.get resolves");
        assert_eq!(g.defs[e.callee].impl_type.as_deref(), Some("ReadTxn"));
    }

    #[test]
    fn yields_star_propagates_through_two_hops() {
        let u = unit(
            "crates/a/src/lib.rs",
            "a",
            "pub fn leaf() { yield_point(1); }\n\
             pub fn mid() { leaf(); }\n\
             pub fn top() { mid(); }\n\
             pub fn pure() { }",
        );
        let g = CallGraph::build(&[u]);
        let (flag, hop) = g.yields_star();
        let id = |n: &str| g.defs.iter().position(|d| d.name == n).unwrap();
        assert!(flag[id("leaf")] && flag[id("mid")] && flag[id("top")]);
        assert!(!flag[id("pure")]);
        assert_eq!(g.yield_chain(id("top"), &hop), "top -> mid -> leaf -> yield_point");
    }

    #[test]
    fn acq_star_accumulates_callee_classes() {
        let u = unit(
            "crates/a/src/lib.rs",
            "a",
            "pub fn locker(s: &S) { let _g = s.state.read(); }\n\
             pub fn caller(s: &S) { locker(s); }",
        );
        let g = CallGraph::build(&[u]);
        let id = |n: &str| g.defs.iter().position(|d| d.name == n).unwrap();
        let mut direct = vec![BTreeSet::new(); g.defs.len()];
        direct[id("locker")].insert("a.state".to_string());
        let (star, witness) = g.acq_star(&direct);
        assert!(star[id("caller")].contains("a.state"));
        assert_eq!(g.acq_chain(id("caller"), "a.state", &witness), "caller -> locker");
    }
}
