//! Dimensional (labeled) metrics with *bounded* cardinality.
//!
//! The paper's control plane serves many metastores and millions of
//! principals; naive per-tenant metrics (`format!("name{{{tenant}}}")`
//! into the registry) would let one misbehaving client allocate an
//! unbounded number of instruments. This module bounds the damage by
//! construction:
//!
//! - A **family** ([`CounterFamily`] / [`HistogramFamily`]) owns a fixed
//!   table of [`LABEL_CAPACITY`] label slots. The first
//!   [`LABEL_CAPACITY`] distinct labels each get a dedicated striped
//!   cell (same cache-line-padded per-thread stripes as the global
//!   instruments — the hot path still never contends on a shared line).
//! - Labels past the capacity fold into one striped **overflow** cell,
//!   so the family's total is always exact: per-label values plus the
//!   overflow always sum to what a global counter would have seen.
//! - Overflow traffic additionally feeds a **space-saving heavy-hitter
//!   sketch** ([`SpaceSaving`]): the top-[`HEAVY_HITTER_K`] tail labels
//!   stay identifiable with a per-entry error bound, while the long tail
//!   costs O(K) memory, never O(labels).
//!
//! Hot-path cost: after a (thread, family, label) triple has been seen
//! once, recording is a thread-local hash probe (borrowed `&str` key, no
//! allocation) plus one striped atomic add — no shared lock, no alloc.
//! The first touch per thread registers through the family's index mutex;
//! tail labels (table full) pay the index probe plus the sketch mutex,
//! which is the documented graceful degradation, not the hit path.
//!
//! Snapshot rendering is canonical: slots render as `name{label} counter
//! v` sorted by label, the overflow as `name{~overflow}`, and sketch
//! estimates as `name{~hh:label} approx count=.. err=..` — a distinct
//! `approx` kind, so exact-sum consumers skip estimates.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::metrics::{Counter, Histogram};

/// Exact label slots per family. Past this, labels fold into the
/// overflow cell + sketch.
pub const LABEL_CAPACITY: usize = 64;

/// Entries tracked by the overflow heavy-hitter sketch.
pub const HEAVY_HITTER_K: usize = 8;

/// Family handles get process-unique ids so the per-thread slot cache can
/// key on (family, label) without holding any family reference.
static NEXT_FAMILY_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (family id → (label → slot)) memo. Inner probe takes a borrowed
    /// `&str`, so a cached (thread, label) pair records with zero
    /// allocations. Only *registered* labels are cached — tail labels
    /// must not grow per-thread state unboundedly.
    static SLOT_CACHE: RefCell<HashMap<u64, HashMap<String, usize>>> =
        RefCell::new(HashMap::new());
}

/// Space-saving heavy-hitter sketch (Metwally et al.): at most `k`
/// monitored labels; an unmonitored arrival evicts the current minimum
/// and inherits its count as the error bound. Guarantees any label with
/// true count > N/k is present, with `count - err ≤ true ≤ count`.
#[derive(Debug)]
struct SpaceSaving {
    k: usize,
    entries: Vec<(String, u64, u64)>, // (label, count, err)
}

impl SpaceSaving {
    fn new(k: usize) -> Self {
        SpaceSaving { k, entries: Vec::new() }
    }

    fn observe(&mut self, label: &str, n: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == label) {
            e.1 += n;
            return;
        }
        if self.entries.len() < self.k {
            self.entries.push((label.to_string(), n, 0));
            return;
        }
        // Evict the minimum-count entry; ties broken by label order so the
        // sketch state is a deterministic function of the arrival sequence.
        // (`entries` is non-empty here: len == k and a zero-k sketch
        // returned on the len < k branch above.)
        let Some((mi, _)) = self
            .entries
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
        else {
            return;
        };
        let floor = self.entries[mi].1;
        self.entries[mi] = (label.to_string(), floor + n, floor);
    }

    /// Monitored entries, highest count first (label breaks ties).
    fn top(&self) -> Vec<(String, u64, u64)> {
        let mut v = self.entries.clone();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// The shared core of a family: fixed slots, index, overflow, sketch.
#[derive(Debug)]
struct FamilyCore<T> {
    name: String,
    cells: Vec<T>,
    index: Mutex<BTreeMap<String, usize>>,
    full: AtomicBool,
    overflow: T,
    overflow_seen: AtomicBool,
    sketch: Mutex<SpaceSaving>,
}

impl<T> FamilyCore<T> {
    fn new(name: &str, make: impl FnMut() -> T) -> Self {
        let mut make = make;
        FamilyCore {
            name: name.to_string(),
            cells: (0..LABEL_CAPACITY).map(|_| make()).collect(),
            index: Mutex::new(BTreeMap::new()),
            full: AtomicBool::new(false),
            overflow: make(),
            overflow_seen: AtomicBool::new(false),
            sketch: Mutex::new(SpaceSaving::new(HEAVY_HITTER_K)),
        }
    }

    /// Resolve a label to its slot, registering it if the table has room.
    /// `None` means the label is (now) tail traffic.
    fn slot_of(&self, family_id: u64, label: &str) -> Option<usize> {
        let cached = SLOT_CACHE.with(|c| {
            c.borrow().get(&family_id).and_then(|m| m.get(label).copied())
        });
        if let Some(slot) = cached {
            return Some(slot);
        }
        // Slow path: consult (and possibly grow) the shared index.
        let slot = {
            // uc-lint: allow(hotpath) -- taken once per (thread, family, label); every later call hits the SLOT_CACHE probe above
            let mut index = self.index.lock();
            match index.get(label) {
                Some(&s) => Some(s),
                None if index.len() < LABEL_CAPACITY => {
                    let s = index.len();
                    index.insert(label.to_string(), s);
                    if index.len() == LABEL_CAPACITY {
                        self.full.store(true, Ordering::Release);
                    }
                    Some(s)
                }
                None => None,
            }
        };
        if let Some(s) = slot {
            SLOT_CACHE.with(|c| {
                c.borrow_mut()
                    .entry(family_id)
                    .or_default()
                    .insert(label.to_string(), s);
            });
        }
        slot
    }

    fn tail(&self, label: &str, n: u64) {
        self.overflow_seen.store(true, Ordering::Relaxed);
        self.sketch.lock().observe(label, n);
    }

    /// Registered (label, slot) pairs in label order.
    fn labels(&self) -> Vec<(String, usize)> {
        self.index.lock().iter().map(|(l, s)| (l.clone(), *s)).collect()
    }
}

/// What a family records under: a fixed `&'static str`, or a tenant's
/// `t=<alias>,p=<principal>` rendered once by [`Label::tenant`]; cloning
/// one is a reference-count bump. These are the only constructors, so a
/// label minted per call does not compile — the hot path records under a
/// label someone rendered once and kept:
///
/// ```compile_fail
/// let family = uc_obs::Obs::disabled().counter_family("op.count.by_tenant");
/// family.inc(&format!("t={},p={}", "acme", "root"));
/// ```
///
/// ```
/// let family = uc_obs::Obs::disabled().counter_family("op.count.by_tenant");
/// family.inc(&uc_obs::Label::fixed("t=acme,p=root"));
/// ```
#[derive(Debug, Clone)]
pub struct Label(Arc<str>);

impl Label {
    /// A label whose text is known at compile time.
    pub fn fixed(text: &'static str) -> Label {
        Label(Arc::from(text))
    }

    /// The `t=<alias>,p=<principal>` label of one tenant. Both values are
    /// sanitized for the `k=v` grammar: snapshot lines are
    /// whitespace-split and labels are `{}`-delimited, so those characters
    /// (plus the `,` and `=` of the pairs) map to `_`.
    pub fn tenant(alias: &str, principal: &str) -> Label {
        let mut text = String::with_capacity(5 + alias.len() + principal.len());
        text.push_str("t=");
        text.extend(sanitized(alias));
        text.push_str(",p=");
        text.extend(sanitized(principal));
        Label(Arc::from(text))
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// `raw` with the label grammar's characters mapped to `_`.
fn sanitized(raw: &str) -> impl Iterator<Item = char> + '_ {
    raw.chars().map(|c| {
        if c.is_whitespace() || matches!(c, '{' | '}' | ',' | '=') {
            '_'
        } else {
            c
        }
    })
}

/// A labeled counter family: `family.add(&label, 1)`.
#[derive(Debug, Clone)]
pub struct CounterFamily {
    id: u64,
    core: Arc<FamilyCore<Counter>>,
}

impl CounterFamily {
    fn new(name: &str) -> Self {
        CounterFamily {
            id: NEXT_FAMILY_ID.fetch_add(1, Ordering::Relaxed),
            core: Arc::new(FamilyCore::new(name, Counter::new)),
        }
    }

    pub fn inc(&self, label: &Label) {
        self.add(label, 1);
    }

    pub fn add(&self, label: &Label, n: u64) {
        let label = label.as_str();
        match self.core.slot_of(self.id, label) {
            Some(s) => self.core.cells[s].add(n),
            None => {
                self.core.overflow.add(n);
                self.core.tail(label, n);
            }
        }
    }

    /// Folded value for one label (0 if unregistered).
    pub fn get(&self, label: &str) -> u64 {
        let index = self.core.index.lock();
        index.get(label).map(|&s| self.core.cells[s].get()).unwrap_or(0)
    }

    /// Exact family total: every slot plus the overflow. Always equals
    /// what an unlabeled counter fed by the same calls would hold.
    pub fn total(&self) -> u64 {
        let per_slot: u64 = self.core.cells.iter().map(|c| c.get()).sum();
        per_slot + self.core.overflow.get()
    }

    fn render(&self, out: &mut Vec<String>) {
        let name = &self.core.name;
        for (label, slot) in self.core.labels() {
            out.push(format!("{name}{{{label}}} counter {}", self.core.cells[slot].get()));
        }
        let tail = self.core.overflow.get();
        if tail > 0 {
            out.push(format!("{name}{{~overflow}} counter {tail}"));
        }
        if self.core.overflow_seen.load(Ordering::Relaxed) {
            for (label, count, err) in self.core.sketch.lock().top() {
                out.push(format!("{name}{{~hh:{label}}} approx count={count} err={err}"));
            }
        }
    }
}

/// A labeled histogram family: `family.record(&label, 3)`.
#[derive(Debug, Clone)]
pub struct HistogramFamily {
    id: u64,
    core: Arc<FamilyCore<Histogram>>,
}

impl HistogramFamily {
    fn new(name: &str) -> Self {
        HistogramFamily {
            id: NEXT_FAMILY_ID.fetch_add(1, Ordering::Relaxed),
            core: Arc::new(FamilyCore::new(name, Histogram::new)),
        }
    }

    pub fn record(&self, label: &Label, value: u64) {
        let label = label.as_str();
        match self.core.slot_of(self.id, label) {
            Some(s) => self.core.cells[s].record(value),
            None => {
                self.core.overflow.record(value);
                self.core.tail(label, 1);
            }
        }
    }

    /// Folded per-label histogram handle (None if unregistered).
    pub fn get(&self, label: &str) -> Option<Histogram> {
        let index = self.core.index.lock();
        index.get(label).map(|&s| self.core.cells[s].clone())
    }

    fn render(&self, out: &mut Vec<String>) {
        let name = &self.core.name;
        let mut line = |label: &str, h: &Histogram| {
            let (p50, p95, p99, max) = h.summary();
            out.push(format!(
                "{name}{{{label}}} histogram count={} sum={} p50={p50} p95={p95} p99={p99} max={max}",
                h.count(),
                h.sum(),
            ));
        };
        for (label, slot) in self.core.labels() {
            line(&label, &self.core.cells[slot]);
        }
        if self.core.overflow.count() > 0 {
            line("~overflow", &self.core.overflow);
        }
        if self.core.overflow_seen.load(Ordering::Relaxed) {
            for (label, count, err) in self.core.sketch.lock().top() {
                out.push(format!("{name}{{~hh:{label}}} approx count={count} err={err}"));
            }
        }
    }
}

/// Registry-side store of all families, keyed by family name.
#[derive(Debug, Default)]
pub(crate) struct Families {
    counters: Mutex<BTreeMap<String, CounterFamily>>,
    histograms: Mutex<BTreeMap<String, HistogramFamily>>,
}

impl Families {
    pub(crate) fn counter(&self, name: &str) -> CounterFamily {
        self.counters
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| CounterFamily::new(name))
            .clone()
    }

    pub(crate) fn histogram(&self, name: &str) -> HistogramFamily {
        self.histograms
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| HistogramFamily::new(name))
            .clone()
    }

    /// Push every family's lines into `out` (caller sorts globally).
    pub(crate) fn render(&self, out: &mut Vec<String>) {
        for fam in self.counters.lock().values() {
            fam.render(out);
        }
        for fam in self.histograms.lock().values() {
            fam.render(out);
        }
    }
}

// ---------------------------------------------------------------------------
// Tenant scope: a thread-local stack of the label active for the current
// request, so deeper layers (txdb commit, STS mint) can attribute their
// own series to the tenant without signature changes — the same trick the
// tracer uses for span parentage.
// ---------------------------------------------------------------------------

thread_local! {
    static TENANT_STACK: RefCell<Vec<Label>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard holding one tenant label on this thread's scope stack.
#[derive(Debug)]
pub struct TenantScope {
    _priv: (),
}

/// Push `label` as the current tenant scope for this thread. Cloning the
/// label is the only cost — no allocation.
pub fn tenant_scope(label: Label) -> TenantScope {
    TENANT_STACK.with(|s| s.borrow_mut().push(label));
    TenantScope { _priv: () }
}

/// The innermost active tenant label on this thread, if any.
pub fn current_tenant() -> Option<Label> {
    TENANT_STACK.with(|s| s.borrow().last().cloned())
}

impl Drop for TenantScope {
    fn drop(&mut self) {
        TENANT_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_label_counts_sum_to_total() {
        let fam = CounterFamily::new("x.count.by_tenant");
        let (a, b) = (Label::fixed("t=a"), Label::fixed("t=b"));
        fam.add(&a, 3);
        fam.add(&b, 4);
        fam.inc(&a);
        assert_eq!(fam.get("t=a"), 4);
        assert_eq!(fam.get("t=b"), 4);
        assert_eq!(fam.total(), 8);
    }

    #[test]
    fn capacity_overflow_folds_exactly_and_sketches_heavy_hitters() {
        let fam = CounterFamily::new("y.count.by_tenant");
        for i in 0..LABEL_CAPACITY {
            fam.add(&Label::tenant(&format!("reg{i:03}"), "p"), 1);
        }
        // Tail: one genuinely heavy label among noise.
        for i in 0..100 {
            fam.add(&Label::tenant("whale", "p"), 5);
            fam.add(&Label::tenant(&format!("minnow{i:03}"), "p"), 1);
        }
        assert_eq!(fam.get("t=whale,p=p"), 0, "tail labels get no slot");
        assert_eq!(fam.total(), LABEL_CAPACITY as u64 + 600, "overflow keeps totals exact");
        let mut out = Vec::new();
        fam.render(&mut out);
        assert!(out.iter().any(|l| l.contains("{~overflow}") && l.ends_with("600")));
        let whale = out
            .iter()
            .find(|l| l.contains("{~hh:t=whale,p=p}"))
            .expect("heavy hitter tracked");
        assert!(whale.contains("approx count=500"), "{whale}");
    }

    #[test]
    fn sketch_error_bounds_hold() {
        let mut s = SpaceSaving::new(2);
        for _ in 0..10 {
            s.observe("hot", 1);
        }
        s.observe("a", 1);
        s.observe("b", 1); // evicts "a" (count 1), err floor 1
        let top = s.top();
        assert_eq!(top[0], ("hot".to_string(), 10, 0));
        assert_eq!(top[1].0, "b");
        assert!(top[1].1 - top[1].2 <= 1, "count - err bounds the true count");
    }

    #[test]
    fn histogram_family_records_per_label() {
        let fam = HistogramFamily::new("z.latency_ms.by_tenant");
        let (a, b) = (Label::fixed("t=a"), Label::fixed("t=b"));
        fam.record(&a, 5);
        fam.record(&a, 7);
        fam.record(&b, 100);
        let a = fam.get("t=a").unwrap();
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 12);
        assert_eq!(fam.get("t=b").unwrap().count(), 1);
        let mut out = Vec::new();
        fam.render(&mut out);
        assert_eq!(out.len(), 2);
        assert!(out[0].starts_with("z.latency_ms.by_tenant{t=a} histogram count=2 sum=12"));
    }

    #[test]
    fn render_is_deterministic_and_thread_placement_independent() {
        let run = |threads: usize| {
            // The same 48 recordings, split across 1 or 4 threads.
            let fam = CounterFamily::new("r.count.by_tenant");
            let per = 48 / threads;
            std::thread::scope(|s| {
                for t in 0..threads {
                    let fam = fam.clone();
                    s.spawn(move || {
                        for i in 0..per {
                            let ms = format!("ms{}", (t * per + i) % 3);
                            fam.add(&Label::tenant(&ms, "p"), 1);
                        }
                    });
                }
            });
            let mut out = Vec::new();
            fam.render(&mut out);
            out.sort_unstable();
            out.join("\n")
        };
        assert_eq!(run(1), run(4), "folded labeled counts erase thread placement");
    }

    #[test]
    fn tenant_scope_nests_and_clears() {
        let current = || current_tenant().map(|label| label.as_str().to_string());
        assert_eq!(current(), None);
        let outer = tenant_scope(Label::tenant("a", "root"));
        assert_eq!(current().as_deref(), Some("t=a,p=root"));
        {
            let _inner = tenant_scope(Label::tenant("b", "svc"));
            assert_eq!(current().as_deref(), Some("t=b,p=svc"));
        }
        assert_eq!(current().as_deref(), Some("t=a,p=root"));
        drop(outer);
        assert_eq!(current(), None);
    }

    #[test]
    fn sanitize_label_value_strips_grammar_characters() {
        assert_eq!(
            Label::tenant("a b{c}d,e=f", "acme-ms.01").as_str(),
            "t=a_b_c_d_e_f,p=acme-ms.01"
        );
        assert_eq!(Label::tenant("acme", "x\ty").as_str(), "t=acme,p=x_y");
        // Each value sanitized on its own, then joined as `t=..,p=..`.
        assert_eq!(Label::tenant("a b", "p{x}").as_str(), "t=a_b,p=p_x_");
        assert_eq!(Label::tenant("-", "admin").as_str(), "t=-,p=admin");
    }
}
