//! Metrics: counters, gauges, and log-bucketed latency histograms behind a
//! name-keyed registry.
//!
//! Naming scheme: `layer.operation.metric`, e.g. `txdb.commit.count` or
//! `catalog.tables.create.latency_ms`. An optional scope label (tenant,
//! metastore, access level) is rendered as `name{scope}`. The registry
//! stores instruments in a [`BTreeMap`], so every snapshot lists them in
//! one canonical order — snapshots of deterministic workloads diff cleanly
//! in CI.
//!
//! Hot-path cost: an instrument handle is an `Arc` around *striped*
//! atomics — each recording thread writes its own cache-line-padded cell,
//! selected by [`thread_slot`], so concurrent recorders never contend on
//! one line. Reads fold the stripes: a counter's value is the sum of its
//! stripes and a histogram's buckets are summed cell-wise, so every folded
//! quantity is independent of which thread recorded what. That makes
//! snapshots of deterministic workloads byte-identical regardless of
//! thread count — the determinism discipline (DESIGN.md §6) survives the
//! sharding. Looking an instrument up by name takes the registry mutex
//! and is meant for setup code and exporters.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use std::collections::BTreeMap;

use crate::labels::{CounterFamily, Families, HistogramFamily};
use crate::window::{Windows, WindowSeries};

/// Process-wide thread-slot allocator: the first time a thread asks for
/// its slot it takes the next integer, forever. Stripe selection is
/// `slot % STRIPES`, so up to `STRIPES` concurrent threads get private
/// cache lines and slot reuse beyond that only costs sharing, never
/// correctness.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// Small dense integer identifying the calling thread, assigned on first
/// use in arrival order. Used to pick a counter/histogram stripe and an
/// audit lane; never rendered into any snapshot (absolute slot values are
/// schedule-dependent, folded quantities are not).
pub fn thread_slot() -> usize {
    SLOT.with(|s| *s)
}

/// Number of stripes in a [`Counter`]. Chosen to cover typical bench
/// thread counts without contention while keeping the fold cheap.
pub const COUNTER_STRIPES: usize = 16;

/// Number of stripes in a [`Histogram`] — heavier per stripe
/// ([`HISTOGRAM_BUCKETS`] cells), so fewer of them.
pub const HISTOGRAM_STRIPES: usize = 8;

/// One cache line per stripe: adjacent stripes must not false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedU64 {
    cell: AtomicU64,
}

/// Monotonic counter, striped across [`COUNTER_STRIPES`] cache-padded
/// cells. Writers touch only their own stripe; `get` folds the stripes by
/// summation, which is order- and placement-independent.
///
/// The `fetch_add`/`load` methods mirror [`AtomicU64`]'s signatures so a
/// struct field can migrate from `AtomicU64` to `Counter` without touching
/// call sites (the memory-ordering argument is accepted and ignored; all
/// counter traffic is relaxed). `fetch_add` returns the prior value of the
/// *caller's stripe* — the global prior is unknowable without a fold, and
/// no caller in this workspace uses the return value across threads.
#[derive(Debug, Clone)]
pub struct Counter {
    stripes: Arc<[PaddedU64; COUNTER_STRIPES]>,
}

impl Default for Counter {
    fn default() -> Self {
        Counter { stripes: Arc::new(std::array::from_fn(|_| PaddedU64::default())) }
    }
}

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    #[inline]
    fn my_stripe(&self) -> &AtomicU64 {
        &self.stripes[thread_slot() % COUNTER_STRIPES].cell
    }

    pub fn inc(&self) {
        self.my_stripe().fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.my_stripe().fetch_add(n, Ordering::Relaxed);
    }

    /// Folded value: the sum over all stripes.
    pub fn get(&self) -> u64 {
        self.stripes.iter().map(|s| s.cell.load(Ordering::Relaxed)).fold(0, u64::wrapping_add)
    }

    /// Drop-in for `AtomicU64::fetch_add` (returns the caller-stripe prior).
    pub fn fetch_add(&self, n: u64, _order: Ordering) -> u64 {
        self.my_stripe().fetch_add(n, Ordering::Relaxed)
    }

    /// Drop-in for `AtomicU64::load` (folded value).
    pub fn load(&self, _order: Ordering) -> u64 {
        self.get()
    }
}

/// Instantaneous signed value (queue depths, cache sizes). Gauges are
/// last-writer-wins, so striping would change semantics; they stay a
/// single cell and off the hot path.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero, three singleton buckets for
/// 1–3, then four linear sub-buckets per octave (`[2^o, 2^(o+1))` split
/// into quarters) for octaves 2..=63. Pure log₂ buckets quantized p99 to
/// powers of two (the early runs frozen in BENCH_cache.json read a flat
/// 8.191µs); the
/// quarter-octave split bounds quantile error at ~12.5% of the value while
/// keeping the index a pair of shifts — no floats, no tables.
pub const HISTOGRAM_BUCKETS: usize = 252;

/// One histogram stripe, cache-line-aligned at its head. The bucket array
/// spans many lines regardless; alignment keeps the hot `count`/`sum`/`max`
/// words of adjacent stripes apart.
#[derive(Debug)]
#[repr(align(64))]
struct HistogramStripe {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramStripe {
    fn default() -> Self {
        HistogramStripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Quarter-octave-bucketed histogram of non-negative integer samples
/// (typically milliseconds of virtual time or nanoseconds of wall time),
/// striped across [`HISTOGRAM_STRIPES`] cells like [`Counter`].
///
/// Bucket 0 holds exactly the value 0, buckets 1–3 hold exactly 1–3, and
/// every octave `[2^o, 2^(o+1))` with `o ≥ 2` is split into 4 equal
/// linear sub-buckets of width `2^(o-2)`. Percentiles interpolate the
/// requested rank linearly inside its sub-bucket (integer math only) and
/// clamp to the exact observed maximum — a deterministic function of the
/// recorded samples, independent of recording order *and* of which stripe
/// each sample landed in (folds are sums and maxes).
#[derive(Debug, Clone)]
pub struct Histogram {
    stripes: Arc<[HistogramStripe; HISTOGRAM_STRIPES]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram { stripes: Arc::new(std::array::from_fn(|_| HistogramStripe::default())) }
    }

    /// Bucket index a value lands in: two shifts, no branches beyond the
    /// small-value special cases.
    pub fn bucket_index(value: u64) -> usize {
        if value <= 3 {
            return value as usize;
        }
        let octave = 63 - value.leading_zeros() as usize; // ≥ 2
        let sub = ((value - (1u64 << octave)) >> (octave - 2)) as usize; // 0..=3
        4 + (octave - 2) * 4 + sub
    }

    /// Inclusive lower bound of a bucket.
    pub fn bucket_lower_bound(index: usize) -> u64 {
        match index {
            0..=3 => index as u64,
            HISTOGRAM_BUCKETS.. => u64::MAX,
            i => {
                let octave = 2 + (i - 4) / 4;
                let sub = ((i - 4) % 4) as u64;
                (1u64 << octave) + sub * (1u64 << (octave - 2))
            }
        }
    }

    /// Inclusive upper bound of a bucket.
    pub fn bucket_upper_bound(index: usize) -> u64 {
        match index {
            0..=3 => index as u64,
            HISTOGRAM_BUCKETS.. => u64::MAX,
            i => {
                let octave = 2 + (i - 4) / 4;
                // Sub-bucket width 2^(octave-2); the top sub-bucket of the
                // top octave ends exactly at u64::MAX, so add the width to
                // `lower - 1` (never to `lower`, which would overflow).
                Self::bucket_lower_bound(i) - 1 + (1u64 << (octave - 2))
            }
        }
    }

    pub fn record(&self, value: u64) {
        let stripe = &self.stripes[thread_slot() % HISTOGRAM_STRIPES];
        stripe.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        stripe.count.fetch_add(1, Ordering::Relaxed);
        stripe.sum.fetch_add(value, Ordering::Relaxed);
        stripe.max.fetch_max(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.stripes.iter().map(|s| s.count.load(Ordering::Relaxed)).sum()
    }

    pub fn sum(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.sum.load(Ordering::Relaxed))
            .fold(0, u64::wrapping_add)
    }

    /// Exact maximum recorded value (0 if empty).
    pub fn max(&self) -> u64 {
        self.stripes.iter().map(|s| s.max.load(Ordering::Relaxed)).max().unwrap_or(0)
    }

    /// Folded occupancy of one bucket across all stripes.
    fn bucket(&self, i: usize) -> u64 {
        self.stripes.iter().map(|s| s.buckets[i].load(Ordering::Relaxed)).sum()
    }

    /// Quantile estimate: the sample of rank `⌈q·count⌉` is located in its
    /// sub-bucket and its value interpolated linearly at the rank's
    /// midpoint offset (`lo + (hi-lo)·(2·pos-1)/(2·n)`, pure integer
    /// math), then clamped to the exact observed max. Deterministic and
    /// order-independent; `q` outside `[0, 1]` is clamped.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            let n = self.bucket(i);
            if n == 0 {
                continue;
            }
            if cumulative + n >= rank {
                let pos = rank - cumulative; // 1..=n within this bucket
                let lo = Self::bucket_lower_bound(i);
                let hi = Self::bucket_upper_bound(i);
                let span = (hi - lo) as u128;
                let est = lo + ((span * (2 * pos as u128 - 1)) / (2 * n as u128)) as u64;
                return est.min(self.max());
            }
            cumulative += n;
        }
        self.max()
    }

    /// `(p50, p95, p99, max)` in one call — the summary every exporter
    /// and bench table wants.
    pub fn summary(&self) -> (u64, u64, u64, u64) {
        (self.percentile(0.50), self.percentile(0.95), self.percentile(0.99), self.max())
    }
}

/// One registered instrument.
#[derive(Debug, Clone)]
pub enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Name-keyed instrument registry with deterministic snapshot order.
///
/// Cloning shares the registry, the same way [`crate::Obs`] handles are
/// shared across layers. `counter`/`gauge`/`histogram` get-or-create: the
/// first caller registers, later callers receive the same handle, so
/// several subsystems can contribute to one metric.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    instruments: Arc<Mutex<BTreeMap<String, Instrument>>>,
    labels: Arc<Families>,
    windows: Arc<Windows>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get-or-create a counter. If the name is already registered as a
    /// different kind, a detached counter is returned (recordings are kept
    /// but invisible to snapshots) — observability must never panic the
    /// request path over a naming collision.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.instruments.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Counter(Counter::new()))
        {
            Instrument::Counter(c) => c.clone(),
            _ => Counter::new(),
        }
    }

    /// Get-or-create a gauge (detached on kind collision, like `counter`).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.instruments.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Gauge(Gauge::new()))
        {
            Instrument::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    /// Get-or-create a histogram (detached on kind collision).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.instruments.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Instrument::Histogram(Histogram::new()))
        {
            Instrument::Histogram(h) => h.clone(),
            _ => Histogram::new(),
        }
    }

    /// Get-or-create a labeled counter family (bounded-cardinality
    /// per-tenant breakouts; see [`crate::labels`]).
    pub fn counter_family(&self, name: &str) -> CounterFamily {
        self.labels.counter(name)
    }

    /// Get-or-create a labeled histogram family.
    pub fn histogram_family(&self, name: &str) -> HistogramFamily {
        self.labels.histogram(name)
    }

    /// Get-or-create a trailing-window series (see [`crate::window`]).
    pub fn window(&self, name: &str) -> WindowSeries {
        self.windows.series(name)
    }

    /// Look up an existing instrument without creating one.
    pub fn get(&self, name: &str) -> Option<Instrument> {
        self.instruments.lock().get(name).cloned()
    }

    /// Registered names, in snapshot order.
    pub fn names(&self) -> Vec<String> {
        self.instruments.lock().keys().cloned().collect()
    }

    /// Human-readable snapshot with one line per instrument / labeled
    /// series / window, globally sorted. Byte-identical across runs
    /// whenever the recorded values are deterministic (virtual-clock
    /// workloads) — stripe folds erase which thread recorded what, so
    /// thread count doesn't perturb the bytes. Windows render relative to
    /// a zero clock here; exporters with a live clock use
    /// [`Registry::text_snapshot_at`].
    pub fn text_snapshot(&self) -> String {
        self.text_snapshot_at(0)
    }

    /// Snapshot with window series evaluated at `now_ms`.
    pub fn text_snapshot_at(&self, now_ms: u64) -> String {
        let mut lines: Vec<String> = Vec::new();
        {
            let map = self.instruments.lock();
            for (name, instrument) in map.iter() {
                match instrument {
                    Instrument::Counter(c) => {
                        lines.push(format!("{name} counter {}", c.get()));
                    }
                    Instrument::Gauge(g) => {
                        lines.push(format!("{name} gauge {}", g.get()));
                    }
                    Instrument::Histogram(h) => {
                        let (p50, p95, p99, max) = h.summary();
                        lines.push(format!(
                            "{name} histogram count={} sum={} p50={p50} p95={p95} p99={p99} max={max}",
                            h.count(),
                            h.sum(),
                        ));
                    }
                }
            }
        }
        self.labels.render(&mut lines);
        self.windows.render(now_ms, &mut lines);
        // One global sort: labeled lines (`name{label} ...`) interleave
        // with scalar lines in plain byte order, so consumers (and the
        // sorted-snapshot invariant tests) see one canonical ordering no
        // matter which subsystem emitted a line.
        lines.sort_unstable();
        let mut out = String::from("# uc-obs metrics snapshot\n");
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::Label;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("a.b.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter("a.b.count").get(), 5, "get-or-create shares the cell");
        let g = r.gauge("a.b.depth");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn counter_mirrors_atomic_u64_api() {
        let c = Counter::new();
        assert_eq!(c.fetch_add(3, Ordering::Relaxed), 0);
        assert_eq!(c.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn thread_slots_are_stable_per_thread() {
        let a = thread_slot();
        assert_eq!(a, thread_slot(), "a thread keeps its slot");
        let b = std::thread::spawn(thread_slot).join().unwrap();
        assert_ne!(a, b, "distinct threads get distinct slots");
    }

    #[test]
    fn striped_counter_folds_across_threads() {
        let c = Counter::new();
        let h = Histogram::new();
        std::thread::scope(|s| {
            for _ in 0..24 {
                // More threads than stripes: folds must survive slot reuse.
                s.spawn(|| {
                    for v in 1..=50u64 {
                        c.add(2);
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(c.get(), 24 * 50 * 2);
        assert_eq!(h.count(), 24 * 50);
        assert_eq!(h.sum(), 24 * (50 * 51 / 2));
        assert_eq!(h.max(), 50);
    }

    #[test]
    fn histogram_bucket_boundaries_are_stable() {
        // The boundary table is a contract: snapshots diff across commits,
        // so bucket edges must never drift.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 3);
        assert_eq!(Histogram::bucket_index(4), 4, "first quarter of octave 2");
        assert_eq!(Histogram::bucket_index(5), 5);
        assert_eq!(Histogram::bucket_index(7), 7);
        assert_eq!(Histogram::bucket_index(8), 8, "first quarter of octave 3");
        assert_eq!(Histogram::bucket_index(9), 8, "sub-bucket width 2 at octave 3");
        assert_eq!(Histogram::bucket_index(10), 9);
        assert_eq!(Histogram::bucket_index(1023), 35, "top quarter of octave 9");
        assert_eq!(Histogram::bucket_index(1024), 36, "first quarter of octave 10");
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(2), 2);
        assert_eq!(Histogram::bucket_upper_bound(4), 4);
        assert_eq!(Histogram::bucket_upper_bound(35), 1023);
        assert_eq!(Histogram::bucket_lower_bound(35), 896, "512 + 3·128");
        assert_eq!(Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        for v in [0u64, 1, 2, 3, 4, 5, 127, 128, 1 << 40, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(Histogram::bucket_lower_bound(i) <= v);
            assert!(v <= Histogram::bucket_upper_bound(i));
            if i > 0 {
                assert!(v > Histogram::bucket_upper_bound(i - 1));
                assert_eq!(
                    Histogram::bucket_lower_bound(i),
                    Histogram::bucket_upper_bound(i - 1) + 1,
                    "buckets tile the axis with no gaps"
                );
            }
        }
    }

    #[test]
    fn histogram_percentile_math_is_stable() {
        let h = Histogram::new();
        // 100 samples: 1..=100. p50 rank 50 lands in sub-bucket [48, 55]
        // as its 3rd of 8 samples → interpolated exactly to 50; p95 rank
        // 95 lands in [80, 95] as its 16th of 16 → 94 (interpolation
        // bounds error to the sub-bucket width); p99 rank 99 lands in
        // [96, 111] which clamps to the exact max 100.
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        assert_eq!(h.percentile(0.50), 50, "interpolation recovers the exact median here");
        assert_eq!(h.percentile(0.95), 94);
        assert_eq!(h.percentile(0.99), 100, "estimate above the max clamps to the exact max");
        assert_eq!(h.percentile(0.0), 1, "rank clamps to the first sample");
        assert_eq!(h.percentile(1.0), 100);
        assert_eq!(h.summary(), (50, 94, 100, 100));
    }

    #[test]
    fn interpolated_quantiles_beat_octave_quantization() {
        // The regression this scheme exists for: a tight cluster of
        // latencies inside one octave used to collapse to the octave's
        // power-of-two upper bound (8191 for anything in 4096..=8191).
        let h = Histogram::new();
        for v in 5000..5100u64 {
            h.record(v);
        }
        let p99 = h.percentile(0.99);
        assert!(
            (4096..=6143).contains(&p99),
            "p99 {p99} must stay within the quarter-octave, not snap to 8191"
        );
        assert!(p99 >= 5000, "clamped below by the populated sub-bucket");
    }

    #[test]
    fn histogram_percentiles_are_order_independent() {
        let forward = Histogram::new();
        let backward = Histogram::new();
        for v in 0..1000u64 {
            forward.record(v * 7 % 1000);
            backward.record((999 - v) * 7 % 1000);
        }
        assert_eq!(forward.summary(), backward.summary());
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.summary(), (0, 0, 0, 0));
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let build = || {
            let r = Registry::new();
            r.counter("zeta.op.count").add(3);
            r.histogram("alpha.op.latency_ms").record(5);
            r.gauge("mid.op.depth").set(-2);
            r.counter_family("alpha.op.count.by_tenant").inc(&Label::fixed("tenant=a"));
            r.text_snapshot()
        };
        let s1 = build();
        let s2 = build();
        assert_eq!(s1, s2, "same recordings → byte-identical snapshot");
        let lines: Vec<&str> = s1.lines().skip(1).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "snapshot lines are in canonical order");
        assert!(s1.contains("alpha.op.count.by_tenant{tenant=a} counter 1"));
        assert!(s1.contains("alpha.op.latency_ms histogram count=1 sum=5 p50=5 p95=5 p99=5 max=5"));
    }

    #[test]
    fn snapshot_is_thread_placement_independent() {
        // The same multiset of recordings, delivered single-threaded vs
        // spread over many threads, must render identical bytes: folds
        // erase stripe placement.
        let single = Registry::new();
        let spread = Registry::new();
        for v in 0..64u64 {
            single.counter("fold.op.count").add(v);
            single.histogram("fold.op.latency_ms").record(v);
        }
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let r = spread.clone();
                s.spawn(move || {
                    for v in (t * 8)..(t * 8 + 8) {
                        r.counter("fold.op.count").add(v);
                        r.histogram("fold.op.latency_ms").record(v);
                    }
                });
            }
        });
        assert_eq!(single.text_snapshot(), spread.text_snapshot());
    }

    #[test]
    fn snapshot_interleaves_labeled_and_window_lines_in_sorted_order() {
        let r = Registry::new();
        r.counter("catalog.get_table.count").add(7);
        r.counter_family("catalog.get_table.count.by_tenant").add(&Label::tenant("acme", "root"), 4);
        r.counter_family("catalog.get_table.count.by_tenant").add(&Label::tenant("zeta", "root"), 3);
        r.window("catalog.get_table.window").record(0, 2);
        let snap = r.text_snapshot();
        let lines: Vec<&str> = snap.lines().skip(1).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "global sort covers scalars, labels, and windows");
        assert!(snap.contains("catalog.get_table.count counter 7"));
        assert!(snap.contains("catalog.get_table.count.by_tenant{t=acme,p=root} counter 4"));
        assert!(snap.contains("catalog.get_table.count.by_tenant{t=zeta,p=root} counter 3"));
        assert!(snap.contains(
            "catalog.get_table.window window bucket_ms=125 window_ms=1000 count=1"
        ));
    }

    #[test]
    fn kind_collision_returns_detached_instrument() {
        let r = Registry::new();
        r.counter("x");
        let h = r.histogram("x");
        h.record(1); // must not panic, must not corrupt the counter
        assert!(matches!(r.get("x"), Some(Instrument::Counter(_))));
    }
}
