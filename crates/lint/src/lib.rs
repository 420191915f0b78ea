#![forbid(unsafe_code)]
//! uc-lint: workspace invariant linter for the Unity Catalog
//! reproduction. Zero external dependencies: a lightweight Rust lexer +
//! brace-matched item scanner feed an interprocedural call graph
//! (`callgraph`) and the rule families (determinism, lock discipline,
//! instrumentation coverage, keyspace, hygiene, stale config) plus an
//! `unsafe_code` gate. Output is byte-stable and sorted so CI
//! can diff consecutive runs. See DESIGN.md §8 for the rule catalog.
//!
//! The driver runs in phases: (1) load and scan every workspace file,
//! (2) build the call graph and its fixpoint summaries (yield
//! reachability, transitive lock acquisition, `api_enter`
//! reachability), (3) run per-file rules with the summaries in hand,
//! (4) global passes (lock census + order graph + cycle check,
//! stale-config), (5) pragma suppression over the *whole* diagnostic
//! set — which is also where pragmas that suppress nothing become
//! diagnostics themselves.

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod rules;
pub mod scan;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use callgraph::{CallGraph, Unit};
use config::Config;
use rules::locks::{Interproc, LockAcq, LockEdge};
use rules::{Diagnostic, FileCtx, RULE_PRAGMA};

#[derive(Debug, Default)]
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
    /// Deduped, sorted lock-order graph lines: "held -> acquired  [file:line]".
    pub lock_graph: Vec<String>,
    /// Lock-class census lines: "class  [first-site] (N sites)". Classes
    /// without nesting edges (pool, write gate) still appear here.
    pub lock_classes: Vec<String>,
    /// Deduped, sorted call-graph lines: "caller -> callee  [line]"
    /// (keys are `file::fn`; the line is the first call site).
    pub call_graph: Vec<String>,
    pub defs_count: usize,
    pub call_edges_count: usize,
    pub files_scanned: usize,
    pub fns_scanned: usize,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render the byte-stable report. `with_lock_graph` appends the
    /// inferred lock-order graph artifact; `with_call_graph` appends the
    /// workspace call graph.
    pub fn render(&self, with_lock_graph: bool, with_call_graph: bool) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}:{}:{}:{}", d.file, d.line, d.rule, d.message);
        }
        if with_lock_graph {
            let _ = writeln!(out, "# lock classes ({})", self.lock_classes.len());
            for c in &self.lock_classes {
                let _ = writeln!(out, "{c}");
            }
            let _ = writeln!(out, "# lock-order graph ({} edges)", self.lock_graph.len());
            for e in &self.lock_graph {
                let _ = writeln!(out, "{e}");
            }
        }
        if with_call_graph {
            let _ = writeln!(
                out,
                "# call graph ({} defs, {} call sites, {} unique caller->callee pairs)",
                self.defs_count,
                self.call_edges_count,
                self.call_graph.len()
            );
            for e in &self.call_graph {
                let _ = writeln!(out, "{e}");
            }
        }
        let _ = writeln!(
            out,
            "uc-lint: {} diagnostic(s), {} file(s), {} function(s)",
            self.diagnostics.len(),
            self.files_scanned,
            self.fns_scanned
        );
        out
    }
}

fn list_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for p in paths {
        if p.is_dir() {
            list_rs_files(&p, out)?;
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(p);
        }
    }
    Ok(())
}

fn rel_of(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().to_string())
        .collect::<Vec<_>>()
        .join("/")
}

/// Cycle detection over the deduped acquisition graph. Returns the first
/// cycle (by sorted order) as a class path, if any.
fn find_cycle(edges: &BTreeMap<String, BTreeSet<String>>) -> Option<Vec<String>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Unvisited,
        InStack,
        Done,
    }
    let nodes: Vec<&String> = edges.keys().collect();
    let mut marks: BTreeMap<&str, Mark> = BTreeMap::new();
    for n in &nodes {
        marks.insert(n.as_str(), Mark::Unvisited);
    }
    fn dfs<'a>(
        node: &'a str,
        edges: &'a BTreeMap<String, BTreeSet<String>>,
        marks: &mut BTreeMap<&'a str, Mark>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        marks.insert(node, Mark::InStack);
        stack.push(node);
        if let Some(nexts) = edges.get(node) {
            for next in nexts {
                match marks.get(next.as_str()).copied().unwrap_or(Mark::Unvisited) {
                    Mark::InStack => {
                        let from = stack.iter().position(|n| *n == next.as_str()).unwrap_or(0);
                        let mut cycle: Vec<String> =
                            stack[from..].iter().map(|s| s.to_string()).collect();
                        cycle.push(next.to_string());
                        return Some(cycle);
                    }
                    Mark::Unvisited => {
                        if let Some(c) = dfs(next.as_str(), edges, marks, stack) {
                            return Some(c);
                        }
                    }
                    Mark::Done => {}
                }
            }
        }
        stack.pop();
        marks.insert(node, Mark::Done);
        None
    }
    let mut stack = Vec::new();
    for n in nodes {
        if marks.get(n.as_str()).copied() == Some(Mark::Unvisited) {
            if let Some(c) = dfs(n, edges, &mut marks, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

/// Lint the workspace rooted at `root` (the directory holding Lint.toml
/// and `crates/`). Scans every `crates/*/src/**/*.rs`.
pub fn run(root: &Path) -> Result<LintReport, String> {
    let cfg = match fs::read_to_string(root.join("Lint.toml")) {
        Ok(text) => Config::parse(&text).map_err(|e| format!("Lint.toml: {e}"))?,
        Err(_) => Config::default(),
    };

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    let entries =
        fs::read_dir(&crates_dir).map_err(|e| format!("read_dir {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let p = entry.path();
        if p.is_dir() && p.join("src").is_dir() {
            crate_dirs.push(p);
        }
    }
    crate_dirs.sort();

    // ── Phase 1: load and scan every file ─────────────────────────────
    let mut units: Vec<Unit> = Vec::new();
    let mut crate_names: BTreeSet<String> = BTreeSet::new();
    for crate_dir in &crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        crate_names.insert(crate_name.clone());
        let mut files = Vec::new();
        list_rs_files(&crate_dir.join("src"), &mut files)?;
        for path in files {
            let rel = rel_of(root, &path);
            let src =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let lexed = lexer::lex(&src);
            let scanned = scan::scan(&lexed.tokens, &rel);
            units.push(Unit { rel, crate_name: crate_name.clone(), lexed, scan: scanned });
        }
    }
    let file_set: BTreeSet<String> = units.iter().map(|u| u.rel.clone()).collect();

    let mut report = LintReport {
        files_scanned: units.len(),
        fns_scanned: units.iter().map(|u| u.scan.fns.len()).sum(),
        ..LintReport::default()
    };

    // ── Phase 2: call graph + fixpoint summaries ──────────────────────
    let graph = CallGraph::build(&units);
    let receivers = cfg.list("locks", "guard_receivers");

    // Per-def direct acquisitions double as the lock-class census.
    let mut raw_acqs: Vec<LockAcq> = Vec::new();
    let mut direct: Vec<BTreeSet<String>> = vec![BTreeSet::new(); graph.defs.len()];
    for (di, d) in graph.defs.iter().enumerate() {
        let unit = &units[d.unit];
        let toks = &unit.lexed.tokens;
        for i in d.body.0 + 1..d.body.1 {
            if let Some(class) = rules::locks::acq_class_at(toks, i, d.body.1, &receivers, &unit.crate_name) {
                raw_acqs.push(LockAcq {
                    class: class.clone(),
                    file: d.file.clone(),
                    line: toks[i].line,
                });
                direct[di].insert(class);
            }
        }
    }
    let (star, witness) = graph.acq_star(&direct);
    let (yields, yhop) = graph.yields_star();

    // Instrument reachability: which defs reach an `api_enter` span
    // open (each def's own body included).
    let api_seed: Vec<bool> = graph
        .defs
        .iter()
        .map(|d| rules::instrument::opens_api_span(&units[d.unit].lexed.tokens, d.body))
        .collect();
    let mut reaches_api: Vec<BTreeMap<usize, bool>> = vec![BTreeMap::new(); units.len()];
    for (i, reached) in graph.reaches(&api_seed).into_iter().enumerate() {
        let d = &graph.defs[i];
        reaches_api[d.unit].insert(d.fn_idx, reached);
    }

    // ── Phase 3: per-file rules ───────────────────────────────────────
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut raw_edges: Vec<LockEdge> = Vec::new();
    for (ui, unit) in units.iter().enumerate() {
        let ctx = FileCtx {
            rel_path: &unit.rel,
            crate_name: &unit.crate_name,
            tokens: &unit.lexed.tokens,
            scan: &unit.scan,
            cfg: &cfg,
        };
        rules::determinism::check(&ctx, &mut diags);
        rules::hygiene::check(&ctx, &mut diags);
        let inter = Interproc {
            graph: &graph,
            unit: ui,
            yields: &yields,
            yhop: &yhop,
            star: &star,
            witness: &witness,
        };
        rules::locks::check(&ctx, &inter, &mut diags, &mut raw_edges);
        rules::keyspace::check(&ctx, &mut diags);
        rules::instrument::check(&ctx, &reaches_api[ui], &mut diags);
        let is_crate_root = unit.rel.ends_with("/src/lib.rs");
        rules::check_unsafe(&ctx, is_crate_root, &mut diags);
    }

    // ── Phase 4: global passes ────────────────────────────────────────
    // Lock-class census: one line per class with its first (sorted)
    // acquisition site and total site count, so edge-free classes like
    // `txdb.pool` and `catalog.gate` are still visible in the artifact.
    raw_acqs.sort();
    let mut by_class: BTreeMap<String, (String, u32, usize)> = BTreeMap::new();
    for a in &raw_acqs {
        by_class
            .entry(a.class.clone())
            .and_modify(|e| e.2 += 1)
            .or_insert((a.file.clone(), a.line, 1));
    }
    for (class, (file, line, count)) in &by_class {
        report
            .lock_classes
            .push(format!("{class}  [{file}:{line}] ({count} site(s))"));
    }

    // Stale-config: every Lint.toml entry must still resolve against the
    // workspace it governs.
    {
        let classes: BTreeSet<String> = by_class.keys().cloned().collect();
        let world = rules::staleconfig::World {
            files: &file_set,
            crates: &crate_names,
            classes: &classes,
        };
        rules::staleconfig::check(&cfg, &world, &mut diags);
    }

    // Lock-order graph artifact: dedupe edges by (held, acquired), keep
    // the first site in sorted order, and run a cycle check. The edge
    // set now includes interprocedural edges (guard held at a call site
    // whose callee may acquire), so a deadlock cycle split across two
    // functions closes here like a nested one.
    raw_edges.sort();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut adj: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut first_site: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for e in &raw_edges {
        let key = (e.held.clone(), e.acquired.clone());
        if seen.insert(key.clone()) {
            report
                .lock_graph
                .push(format!("{} -> {}  [{}:{}]", e.held, e.acquired, e.file, e.line));
            first_site.insert(key.clone(), (e.file.clone(), e.line));
        }
        adj.entry(e.held.clone()).or_default().insert(e.acquired.clone());
    }
    if let Some(cycle) = find_cycle(&adj) {
        let site = cycle
            .first()
            .and_then(|a| cycle.get(1).map(|b| (a.clone(), b.clone())))
            .and_then(|k| first_site.get(&k).cloned())
            .unwrap_or_else(|| ("Lint.toml".to_string(), 1));
        diags.push(Diagnostic {
            file: site.0,
            line: site.1,
            rule: rules::RULE_LOCKS,
            message: format!("lock-order cycle: {}", cycle.join(" -> ")),
        });
    }

    // Call-graph artifact: unique caller -> callee pairs with the first
    // call site line, sorted by key.
    report.defs_count = graph.defs.len();
    report.call_edges_count = graph.edges.len();
    {
        // A closure-argument edge's site is in another function's
        // source; name that file so the line is not misread.
        let mut pairs: BTreeMap<(String, String), (u32, Option<&str>)> = BTreeMap::new();
        for e in &graph.edges {
            let key = (graph.defs[e.caller].key.clone(), graph.defs[e.callee].key.clone());
            let foreign = (e.site_unit != graph.defs[e.caller].unit).then(|| units[e.site_unit].rel.as_str());
            let entry = pairs.entry(key).or_insert((e.line, foreign));
            if e.line < entry.0 {
                *entry = (e.line, foreign);
            }
        }
        for ((caller, callee), (line, foreign)) in &pairs {
            report.call_graph.push(match foreign {
                None => format!("{caller} -> {callee}  [{line}]"),
                Some(file) => format!("{caller} -> {callee}  [closure at {file}:{line}]"),
            });
        }
    }

    // ── Phase 5: pragma suppression over the whole diagnostic set ─────
    // `// uc-lint: allow(rule) -- reason` covers its own line and the one
    // below. Malformed pragmas and pragmas without a reason are
    // diagnostics; so are well-formed pragmas that suppress nothing.
    struct ValidPragma {
        file: String,
        line: u32,
        rules: Vec<String>,
        used: bool,
    }
    let mut valid: Vec<ValidPragma> = Vec::new();
    for unit in &units {
        for p in &unit.lexed.pragmas {
            if p.malformed {
                diags.push(Diagnostic {
                    file: unit.rel.clone(),
                    line: p.line,
                    rule: RULE_PRAGMA,
                    message:
                        "malformed uc-lint pragma (expected `// uc-lint: allow(rule, ...) -- reason`)"
                            .to_string(),
                });
                continue;
            }
            if !p.has_reason {
                diags.push(Diagnostic {
                    file: unit.rel.clone(),
                    line: p.line,
                    rule: RULE_PRAGMA,
                    message: "uc-lint pragma requires a justification (`-- <reason>`)".to_string(),
                });
                continue;
            }
            valid.push(ValidPragma {
                file: unit.rel.clone(),
                line: p.line,
                rules: p.rules.clone(),
                used: false,
            });
        }
    }
    diags.retain(|d| {
        if d.rule == RULE_PRAGMA {
            return true;
        }
        for p in valid.iter_mut() {
            if p.file == d.file
                && (p.line == d.line || p.line + 1 == d.line)
                && p.rules.iter().any(|r| r == d.rule)
            {
                p.used = true;
                return false;
            }
        }
        true
    });
    for p in &valid {
        if !p.used {
            diags.push(Diagnostic {
                file: p.file.clone(),
                line: p.line,
                rule: RULE_PRAGMA,
                message: format!(
                    "pragma allow({}) suppresses no diagnostic (stale — delete it, or it hides a check that no longer fires)",
                    p.rules.join(", ")
                ),
            });
        }
    }

    diags.sort();
    diags.dedup();
    report.diagnostics = diags;
    Ok(report)
}

/// Walk up from `start` to find the workspace root (the directory that
/// contains `Lint.toml`, or failing that, `crates/`).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Lint.toml").is_file() || d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}
