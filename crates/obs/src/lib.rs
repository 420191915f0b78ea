//! `uc-obs`: unified tracing + metrics plane for the Unity Catalog
//! reproduction.
//!
//! Zero-registry-dependency core (only `parking_lot`), shared across
//! layers the same way `Clock`, `LatencyModel`, and `FaultPlan` are: the
//! catalog owns an [`Obs`] handle and passes clones down into `txdb` and
//! `cloudstore` at construction time.
//!
//! Two halves:
//!
//! - **Metrics** ([`metrics`]): counters, gauges, and log₂-bucketed
//!   latency histograms in a [`Registry`] keyed by
//!   `layer.operation.metric` names, plus bounded-cardinality labeled
//!   families ([`labels`]) for per-tenant breakouts. `Registry::text_snapshot`
//!   renders a sorted, deterministic snapshot that diffs cleanly in CI.
//! - **Tracing** ([`trace`]): request-scoped spans with sequential trace
//!   IDs, propagated across layers through a thread-local context stack
//!   (no signature changes), timestamped from an injected clock function
//!   — the shared virtual clock in tests — so a fixed-seed chaos run
//!   produces byte-identical JSON-lines dumps.
//!
//! Determinism ground rules, enforced by construction:
//! - IDs are sequential atomics, never random (entity `Uid`s are random
//!   and must not appear in metric names or span names).
//! - Timestamps come from the injected clock; with a manual clock two
//!   identical runs emit identical timestamps.
//! - All exports iterate sorted maps, or the trace's lanes merged by
//!   sequence number; no HashMap iteration order leaks into output.

pub mod flight;
pub mod labels;
pub mod metrics;
pub mod trace;
pub mod window;

use std::sync::Arc;

pub use flight::{FlightEvent, FlightRecorder, FrozenDump, FLIGHT_LANES, FLIGHT_RETRY_THRESHOLD};
pub use labels::{
    current_tenant, tenant_scope, CounterFamily, HistogramFamily, Label, TenantScope,
    HEAVY_HITTER_K, LABEL_CAPACITY,
};
pub use metrics::{thread_slot, Counter, Gauge, Histogram, Instrument, Registry, HISTOGRAM_BUCKETS};
pub use trace::{current_span_id, current_trace_id, span_event, ClockFn, SpanGuard, TraceRecord, Tracer};
pub use window::{WindowSeries, WINDOW_BUCKET_MS, WINDOW_MS, WINDOW_SLOTS};

/// The per-deployment observability handle: one metrics registry plus one
/// tracer (which owns the flight recorder). Cloning shares all of it.
/// Layers receive a clone at construction and never need to know whether
/// tracing is live.
///
/// The handle also carries the deployment clock for *metrics-side* time
/// (window series, flight freezes): the injected clock when constructed
/// via [`Obs::with_clock_fn`]/[`Obs::enabled`], and a constant zero for
/// [`Obs::disabled`] — so disabled-obs worlds stay deterministic and
/// windows there degrade to since-start totals.
#[derive(Clone)]
pub struct Obs {
    registry: Registry,
    tracer: Tracer,
    clock: ClockFn,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("tracer", &self.tracer).finish_non_exhaustive()
    }
}

impl Obs {
    /// Live metrics, inert tracing. The default for production-shaped
    /// paths: counters and histograms still accumulate, spans cost
    /// nothing and record nothing.
    pub fn disabled() -> Self {
        Obs { registry: Registry::new(), tracer: Tracer::disabled(), clock: Arc::new(|| 0) }
    }

    /// Live metrics and tracing, timestamped from the system clock.
    pub fn enabled() -> Self {
        Obs::with_clock_fn(trace::system_clock())
    }

    /// Live metrics and tracing with timestamps drawn from `clock` —
    /// install the shared virtual clock here for replayable traces.
    pub fn with_clock_fn(clock: ClockFn) -> Self {
        Obs {
            registry: Registry::new(),
            tracer: Tracer::enabled(clock.clone()),
            clock,
        }
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The flight recorder (inert when tracing is disabled).
    pub fn flight(&self) -> &FlightRecorder {
        self.tracer.flight()
    }

    /// Milliseconds on this handle's metrics clock (0 when disabled).
    pub fn clock_ms(&self) -> u64 {
        (self.clock)()
    }

    /// Freeze the flight recorder now and return its canonical JSONL dump.
    pub fn flight_freeze(&self, reason: &str) -> String {
        self.flight().freeze(self.clock_ms(), reason).to_jsonl()
    }

    /// The frozen flight dump as canonical JSONL, if a freeze happened.
    pub fn flight_jsonl(&self) -> Option<String> {
        self.flight().frozen().map(|d| d.to_jsonl())
    }

    /// The frozen flight dump as a Chrome-trace JSON array, if any.
    pub fn flight_chrome_trace(&self) -> Option<String> {
        self.flight().frozen().map(|d| d.to_chrome_trace())
    }

    /// Get-or-create a counter in this handle's registry.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    /// Get-or-create a gauge in this handle's registry.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(name)
    }

    /// Get-or-create a histogram in this handle's registry.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.registry.histogram(name)
    }

    /// Get-or-create a bounded-cardinality labeled counter family.
    pub fn counter_family(&self, name: &str) -> CounterFamily {
        self.registry.counter_family(name)
    }

    /// Get-or-create a bounded-cardinality labeled histogram family.
    pub fn histogram_family(&self, name: &str) -> HistogramFamily {
        self.registry.histogram_family(name)
    }

    /// Get-or-create a trailing-window time series.
    pub fn window(&self, name: &str) -> WindowSeries {
        self.registry.window(name)
    }

    /// Open a request-scoped span (child of any span already active on
    /// this thread).
    pub fn span(&self, layer: &'static str, name: &str) -> SpanGuard {
        self.tracer.span(layer, name)
    }

    /// Open a span whose duration on the metrics clock is recorded into
    /// `latency` when it ends — with tracing off too, where the span
    /// records nothing else. Callers intern `latency` once (by convention
    /// `layer.name.latency_ms`) and hold it: a call takes no lock and
    /// formats nothing.
    pub fn span_timed(&self, layer: &'static str, name: &str, latency: &Histogram) -> SpanGuard {
        self.timed(latency, |h| self.tracer.span_timed(layer, name, Some(h)))
    }

    /// Open a root span with a caller-pinned trace ID (latency recorded
    /// like [`Obs::span_timed`]). See [`Tracer::span_pinned`] for when
    /// pinning is the right tool.
    pub fn span_pinned(&self, layer: &'static str, name: &str, trace_id: u64, latency: &Histogram) -> SpanGuard {
        self.timed(latency, |h| self.tracer.span_pinned(layer, name, trace_id, Some(h)))
    }

    /// `open` a traced span timed into `latency`; with tracing off, a span
    /// that only times itself into it.
    fn timed(&self, latency: &Histogram, open: impl FnOnce(Histogram) -> SpanGuard) -> SpanGuard {
        if self.tracer.is_enabled() {
            open(latency.clone())
        } else {
            SpanGuard::timer(latency.clone(), self.clock.clone())
        }
    }

    /// Deterministic text snapshot of every instrument, labeled series,
    /// and window (globally sorted). Windows are evaluated at the
    /// handle's current clock time.
    pub fn metrics_snapshot(&self) -> String {
        self.registry.text_snapshot_at(self.clock_ms())
    }

    /// The trace stream as JSON lines, in append order.
    pub fn trace_jsonl(&self) -> String {
        self.tracer.jsonl()
    }

    /// Count span events by name / detail substring (test helper).
    pub fn count_events(&self, name: &str, detail_contains: Option<&str>) -> u64 {
        self.tracer.count_events(name, detail_contains)
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn disabled_obs_still_counts() {
        let obs = Obs::disabled();
        obs.counter("catalog.api.calls").inc();
        obs.counter("catalog.api.calls").add(2);
        assert_eq!(obs.counter("catalog.api.calls").get(), 3);
        {
            let _s = obs.span("catalog", "tables.create");
        }
        assert!(obs.trace_jsonl().is_empty(), "disabled tracer emits nothing");
    }

    #[test]
    fn span_timed_feeds_named_histogram() {
        let t = Arc::new(AtomicU64::new(100));
        let tc = t.clone();
        let obs = Obs::with_clock_fn(Arc::new(move || tc.load(Ordering::SeqCst)));
        let h = obs.histogram("txdb.commit.latency_ms");
        {
            let _s = obs.span_timed("txdb", "commit", &h);
            t.store(104, Ordering::SeqCst);
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 4);
        assert!(obs.metrics_snapshot().contains("txdb.commit.latency_ms"));
    }

    #[test]
    fn span_timed_counts_with_tracing_off() {
        let obs = Obs::disabled();
        let latency = obs.histogram("hms.get_table.latency_ms");
        for _ in 0..3 {
            let _s = obs.span_timed("hms", "get_table", &latency);
        }
        assert_eq!(obs.histogram("hms.get_table.latency_ms").count(), 3);
        assert!(obs.trace_jsonl().is_empty(), "and nothing is traced");
    }

    #[test]
    fn a_timed_span_with_tracing_off_takes_no_lock() {
        let obs = Obs::disabled();
        let latency = obs.histogram("hms.get_table.latency_ms");
        let before = parking_lot::acquisitions();
        for _ in 0..10 {
            let _s = obs.span_timed("hms", "get_table", &latency);
        }
        let after = parking_lot::acquisitions();
        assert_eq!((after.0 - before.0, after.1 - before.1), (0, 0), "10 disabled timed spans");
        assert_eq!(latency.count(), 10);
    }

    #[test]
    fn snapshot_is_stable_across_identical_runs() {
        let run = || {
            let obs = Obs::disabled();
            obs.counter_family("catalog.vend.count.by_tenant").add(&Label::fixed("t=ms1"), 5);
            obs.counter("store.put.count").add(2);
            obs.histogram("store.put.latency_ms").record(3);
            obs.metrics_snapshot()
        };
        assert_eq!(run(), run());
    }
}
