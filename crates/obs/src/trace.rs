//! Request-scoped spans with deterministic, replayable trace dumps.
//!
//! A span is opened at a service entry point (`catalog.tables.create`),
//! and every layer the request passes through opens child spans or
//! attaches events to the innermost active span — without signature
//! changes, via a thread-local context stack. Trace and span IDs are
//! sequential (not random) and timestamps come from the tracer's clock
//! function — the virtual clock in tests — so two runs of the same seeded
//! workload produce byte-identical JSON-lines dumps.
//!
//! The trace log is a flat, append-ordered stream of records
//! (`span_start` / `event` / `span_end`), which is exactly the JSONL
//! export format: no post-hoc merging, no reordering, no wall-clock.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Class, Mutex};

use crate::flight::FlightRecorder;
use crate::metrics::Histogram;

/// Upper bound on retained trace records; beyond it new records are
/// counted as dropped rather than buffered, so a runaway workload cannot
/// exhaust memory through its own observability.
const MAX_RECORDS: usize = 1_000_000;

/// Clock function: milliseconds since the tracer's epoch. Installed from
/// the shared virtual clock in tests; defaults to the system clock.
pub type ClockFn = Arc<dyn Fn() -> u64 + Send + Sync>;

#[expect(
    clippy::disallowed_methods,
    reason = "the documented system-clock default; tests install a virtual clock"
)]
fn system_clock() -> ClockFn {
    Arc::new(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    })
}

/// One record in the append-ordered trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    SpanStart {
        trace_id: u64,
        span_id: u64,
        /// 0 for a root span.
        parent_id: u64,
        layer: String,
        name: String,
        ts_ms: u64,
    },
    Event {
        trace_id: u64,
        span_id: u64,
        name: String,
        detail: String,
        ts_ms: u64,
    },
    SpanEnd {
        trace_id: u64,
        span_id: u64,
        ts_ms: u64,
        status: String,
    },
}

impl TraceRecord {
    /// One JSON object per record; key order is fixed by this formatter,
    /// which is what makes dumps diffable.
    pub fn to_json(&self) -> String {
        match self {
            TraceRecord::SpanStart { trace_id, span_id, parent_id, layer, name, ts_ms } => {
                format!(
                    "{{\"t\":\"span_start\",\"trace\":{trace_id},\"span\":{span_id},\"parent\":{parent_id},\"layer\":\"{}\",\"name\":\"{}\",\"ts\":{ts_ms}}}",
                    escape(layer),
                    escape(name),
                )
            }
            TraceRecord::Event { trace_id, span_id, name, detail, ts_ms } => {
                format!(
                    "{{\"t\":\"event\",\"trace\":{trace_id},\"span\":{span_id},\"name\":\"{}\",\"detail\":\"{}\",\"ts\":{ts_ms}}}",
                    escape(name),
                    escape(detail),
                )
            }
            TraceRecord::SpanEnd { trace_id, span_id, ts_ms, status } => {
                format!(
                    "{{\"t\":\"span_end\",\"trace\":{trace_id},\"span\":{span_id},\"ts\":{ts_ms},\"status\":\"{}\"}}",
                    escape(status),
                )
            }
        }
    }
}

pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[derive(Debug, Default)]
struct TraceLog {
    records: Vec<TraceRecord>,
    dropped: u64,
}

struct TracerInner {
    enabled: bool,
    clock: ClockFn,
    next_trace_id: AtomicU64,
    next_span_id: AtomicU64,
    log: Mutex<TraceLog>,
    /// Always-on incident ring, live iff the tracer is enabled. Fed from
    /// [`Tracer::push`] *before* the log mutex is taken (flight lane
    /// mutexes and the log mutex never nest).
    flight: FlightRecorder,
}

/// Span recorder. Cloning shares the tracer; a disabled tracer records
/// nothing and opening a span on it is free of allocation and locking.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.enabled)
            .field("records", &self.inner.log.lock().records.len())
            .finish()
    }
}

impl Tracer {
    pub fn disabled() -> Self {
        Tracer::build(false, system_clock())
    }

    pub fn enabled(clock: ClockFn) -> Self {
        Tracer::build(true, clock)
    }

    fn build(enabled: bool, clock: ClockFn) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                enabled,
                clock,
                next_trace_id: AtomicU64::new(1),
                next_span_id: AtomicU64::new(1),
                log: Mutex::ranked(Class::ObsLog, TraceLog::default()),
                flight: FlightRecorder::new(enabled),
            }),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// The tracer's flight recorder (inert when tracing is disabled).
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// Current time on the tracer's injected clock.
    pub fn clock_ms(&self) -> u64 {
        self.now_ms()
    }

    fn now_ms(&self) -> u64 {
        (self.inner.clock)()
    }

    fn push(&self, record: TraceRecord) {
        // Feed the flight recorder first: its lane mutex is taken and
        // released (and any auto-freeze fully completes) while this thread
        // holds no other obs lock, keeping the pinned lock order acyclic.
        self.feed_flight(&record);
        let mut log = self.inner.log.lock();
        if log.records.len() >= MAX_RECORDS {
            log.dropped += 1;
        } else {
            log.records.push(record);
        }
    }

    fn feed_flight(&self, record: &TraceRecord) {
        let fr = &self.inner.flight;
        if !fr.is_enabled() {
            return;
        }
        match record {
            TraceRecord::SpanStart { trace_id, layer, name, ts_ms, .. } => {
                fr.note(*ts_ms, *trace_id, "span.start", &format!("{layer}.{name}"), "");
            }
            TraceRecord::Event { trace_id, name, detail, ts_ms, .. } => {
                fr.note(*ts_ms, *trace_id, "event", name, detail);
                if let Some(reason) = FlightRecorder::trigger_reason(name, detail) {
                    fr.freeze_if_armed(*ts_ms, &reason);
                }
            }
            TraceRecord::SpanEnd { trace_id, ts_ms, status, .. } => {
                fr.note(*ts_ms, *trace_id, "span.end", "", &format!("status={status}"));
            }
        }
    }

    /// Open a span. If a span is already active on this thread the new one
    /// becomes its child (same trace); otherwise a new trace begins. The
    /// returned guard ends the span on drop.
    pub fn span(&self, layer: &str, name: &str) -> SpanGuard {
        self.span_timed(layer, name, None)
    }

    /// Like [`Tracer::span`], additionally recording the span's duration
    /// (in clock milliseconds) into `histogram` when it ends. A disabled
    /// tracer records nothing; `Obs::span_timed` times such a span itself.
    pub fn span_timed(&self, layer: &str, name: &str, histogram: Option<Histogram>) -> SpanGuard {
        if !self.inner.enabled {
            return SpanGuard { ctx: None, timer: None };
        }
        let (trace_id, parent_id) = CURRENT.with(|stack| {
            stack
                .borrow()
                .last()
                .map(|top| (top.trace_id, top.span_id))
                .unwrap_or_else(|| (self.inner.next_trace_id.fetch_add(1, Ordering::Relaxed), 0))
        });
        let span_id = self.inner.next_span_id.fetch_add(1, Ordering::Relaxed);
        let start_ms = self.now_ms();
        self.push(TraceRecord::SpanStart {
            trace_id,
            span_id,
            parent_id,
            layer: layer.to_string(),
            name: name.to_string(),
            ts_ms: start_ms,
        });
        CURRENT.with(|stack| {
            stack.borrow_mut().push(ActiveSpan { tracer: self.clone(), trace_id, span_id })
        });
        SpanGuard {
            ctx: Some(SpanCtx {
                tracer: self.clone(),
                trace_id,
                span_id,
                start_ms,
                status: None,
                histogram,
            }),
            timer: None,
        }
    }

    /// Open a *root* span with a caller-chosen trace ID, ignoring any span
    /// already active on this thread. Harnesses that drive many logical
    /// operations concurrently use this to pin each operation's trace ID
    /// to its (thread, iteration) coordinates, so anything merged by trace
    /// ID downstream (the audit log's canonical order) is a function of
    /// the workload, not of the schedule. Pinned IDs should start at a
    /// high base (e.g. `1 << 32`) to stay clear of the sequential
    /// allocator used by [`Tracer::span`].
    pub fn span_pinned(
        &self,
        layer: &str,
        name: &str,
        trace_id: u64,
        histogram: Option<Histogram>,
    ) -> SpanGuard {
        if !self.inner.enabled {
            return SpanGuard { ctx: None, timer: None };
        }
        let span_id = self.inner.next_span_id.fetch_add(1, Ordering::Relaxed);
        let start_ms = self.now_ms();
        self.push(TraceRecord::SpanStart {
            trace_id,
            span_id,
            parent_id: 0,
            layer: layer.to_string(),
            name: name.to_string(),
            ts_ms: start_ms,
        });
        CURRENT.with(|stack| {
            stack.borrow_mut().push(ActiveSpan { tracer: self.clone(), trace_id, span_id })
        });
        SpanGuard {
            ctx: Some(SpanCtx {
                tracer: self.clone(),
                trace_id,
                span_id,
                start_ms,
                status: None,
                histogram,
            }),
            timer: None,
        }
    }

    /// Records accumulated so far, in append order.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.inner.log.lock().records.clone()
    }

    /// Number of records discarded after the retention cap was reached.
    pub fn dropped(&self) -> u64 {
        self.inner.log.lock().dropped
    }

    /// The full trace stream as JSON lines, in append order.
    pub fn jsonl(&self) -> String {
        let log = self.inner.log.lock();
        let mut out = String::new();
        for record in &log.records {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        out
    }

    /// Count `Event` records by name, optionally filtering on a substring
    /// of the detail — chaos tests assert with this ("the retry path fired
    /// exactly N times") instead of end-state only.
    pub fn count_events(&self, name: &str, detail_contains: Option<&str>) -> u64 {
        self.inner
            .log
            .lock()
            .records
            .iter()
            .filter(|r| match r {
                TraceRecord::Event { name: n, detail, .. } => {
                    n == name && detail_contains.is_none_or(|s| detail.contains(s))
                }
                _ => false,
            })
            .count() as u64
    }

    /// Discard all records (between workload phases in a long test).
    pub fn clear(&self) {
        let mut log = self.inner.log.lock();
        log.records.clear();
        log.dropped = 0;
    }
}

struct ActiveSpan {
    tracer: Tracer,
    trace_id: u64,
    span_id: u64,
}

thread_local! {
    static CURRENT: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
}

struct SpanCtx {
    tracer: Tracer,
    trace_id: u64,
    span_id: u64,
    start_ms: u64,
    status: Option<String>,
    histogram: Option<Histogram>,
}

/// RAII span handle: ends the span (and pops the thread-local context) on
/// drop. Guards must be dropped in reverse opening order, which scoping
/// gives for free.
pub struct SpanGuard {
    ctx: Option<SpanCtx>,
    /// A timed span with tracing off records only its duration: the
    /// histogram, the metrics clock, and the start on that clock.
    timer: Option<(Histogram, ClockFn, u64)>,
}

impl SpanGuard {
    /// A span that records nothing but its duration on `clock`, into
    /// `histogram`, when it ends.
    pub(crate) fn timer(histogram: Histogram, clock: ClockFn) -> SpanGuard {
        let start_ms = clock();
        SpanGuard { ctx: None, timer: Some((histogram, clock, start_ms)) }
    }

    /// Trace ID of this span (None when not recording).
    pub fn trace_id(&self) -> Option<u64> {
        self.ctx.as_ref().map(|c| c.trace_id)
    }

    /// Override the `"ok"` status reported at span end.
    pub fn set_status(&mut self, status: &str) {
        if let Some(ctx) = &mut self.ctx {
            ctx.status = Some(status.to_string());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((histogram, clock, start_ms)) = self.timer.take() {
            histogram.record(clock().saturating_sub(start_ms));
        }
        let Some(ctx) = self.ctx.take() else { return };
        CURRENT.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|s| s.span_id == ctx.span_id) {
                stack.truncate(pos);
            }
        });
        let end_ms = ctx.tracer.now_ms();
        if let Some(h) = &ctx.histogram {
            h.record(end_ms.saturating_sub(ctx.start_ms));
        }
        ctx.tracer.push(TraceRecord::SpanEnd {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            ts_ms: end_ms,
            status: ctx.status.unwrap_or_else(|| "ok".to_string()),
        });
    }
}

/// Trace ID of the innermost active span on this thread, if any. Audit
/// records capture this so governance events join to request traces.
pub fn current_trace_id() -> Option<u64> {
    CURRENT.with(|stack| stack.borrow().last().map(|s| s.trace_id))
}

/// Span ID of the innermost active span on this thread, if any.
pub fn current_span_id() -> Option<u64> {
    CURRENT.with(|stack| stack.borrow().last().map(|s| s.span_id))
}

/// Attach an event to the innermost active span on this thread. No-op when
/// no span is active (production paths with tracing disabled) — which is
/// what lets deep layers like the fault plane annotate request traces
/// without holding any handle.
pub fn span_event(name: &str, detail: &str) {
    CURRENT.with(|stack| {
        let stack = stack.borrow();
        let Some(top) = stack.last() else { return };
        let ts_ms = top.tracer.now_ms();
        top.tracer.push(TraceRecord::Event {
            trace_id: top.trace_id,
            span_id: top.span_id,
            name: name.to_string(),
            detail: detail.to_string(),
            ts_ms,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_tracer(t: Arc<AtomicU64>) -> Tracer {
        Tracer::enabled(Arc::new(move || t.load(Ordering::SeqCst)))
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        {
            let _s = tracer.span("layer", "op");
            span_event("e", "d");
        }
        assert!(tracer.records().is_empty());
        assert_eq!(current_trace_id(), None);
    }

    #[test]
    fn spans_nest_and_share_a_trace() {
        let clock = Arc::new(AtomicU64::new(0));
        let tracer = manual_tracer(clock.clone());
        {
            let outer = tracer.span("catalog", "tables.create");
            clock.store(3, Ordering::SeqCst);
            assert_eq!(current_trace_id(), outer.trace_id());
            {
                let _inner = tracer.span("txdb", "commit");
                span_event("fault.injected", "txdb.commit.conflict#0");
                clock.store(5, Ordering::SeqCst);
            }
        }
        let records = tracer.records();
        assert_eq!(records.len(), 5);
        let TraceRecord::SpanStart { trace_id, span_id: outer_id, parent_id: 0, .. } = records[0]
        else {
            panic!("expected root span_start, got {:?}", records[0]);
        };
        let TraceRecord::SpanStart { span_id: inner_id, parent_id, .. } = records[1] else {
            panic!("expected child span_start");
        };
        assert_eq!(parent_id, outer_id);
        let TraceRecord::Event { span_id, trace_id: event_trace, ref name, .. } = records[2] else {
            panic!("expected event");
        };
        assert_eq!(span_id, inner_id);
        assert_eq!(event_trace, trace_id);
        assert_eq!(name, "fault.injected");
        assert!(matches!(records[3], TraceRecord::SpanEnd { span_id, .. } if span_id == inner_id));
        assert!(matches!(records[4], TraceRecord::SpanEnd { span_id, ts_ms: 5, .. } if span_id == outer_id));
        assert_eq!(current_trace_id(), None, "stack fully unwound");
    }

    #[test]
    fn pinned_spans_carry_the_chosen_trace_id() {
        let tracer = manual_tracer(Arc::new(AtomicU64::new(0)));
        const PIN: u64 = (1 << 32) + 7;
        {
            let s = tracer.span_pinned("bench", "op", PIN, None);
            assert_eq!(s.trace_id(), Some(PIN));
            assert_eq!(current_trace_id(), Some(PIN));
            {
                let child = tracer.span("txdb", "commit");
                assert_eq!(child.trace_id(), Some(PIN), "children join the pinned trace");
            }
        }
        assert_eq!(current_trace_id(), None, "stack fully unwound");
        // A pinned span is always a root, even under an active span.
        {
            let _outer = tracer.span("l", "outer");
            let pinned = tracer.span_pinned("bench", "op", PIN + 1, None);
            assert_eq!(pinned.trace_id(), Some(PIN + 1));
        }
        assert!(tracer.records().iter().any(|r| matches!(
            r,
            TraceRecord::SpanStart { trace_id, parent_id: 0, .. } if *trace_id == PIN + 1
        )));
    }

    #[test]
    fn sibling_roots_get_distinct_traces() {
        let tracer = manual_tracer(Arc::new(AtomicU64::new(0)));
        let t1 = {
            let s = tracer.span("l", "a");
            s.trace_id().unwrap()
        };
        let t2 = {
            let s = tracer.span("l", "b");
            s.trace_id().unwrap()
        };
        assert_ne!(t1, t2);
    }

    #[test]
    fn span_timed_records_virtual_duration() {
        let clock = Arc::new(AtomicU64::new(10));
        let tracer = manual_tracer(clock.clone());
        let h = Histogram::new();
        {
            let _s = tracer.span_timed("catalog", "op", Some(h.clone()));
            clock.store(17, Ordering::SeqCst);
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 7, "duration measured on the injected clock");
    }

    #[test]
    fn status_defaults_ok_and_is_overridable() {
        let tracer = manual_tracer(Arc::new(AtomicU64::new(0)));
        {
            let _ok = tracer.span("l", "fine");
        }
        {
            let mut bad = tracer.span("l", "broken");
            bad.set_status("error");
        }
        let statuses: Vec<String> = tracer
            .records()
            .into_iter()
            .filter_map(|r| match r {
                TraceRecord::SpanEnd { status, .. } => Some(status),
                _ => None,
            })
            .collect();
        assert_eq!(statuses, vec!["ok".to_string(), "error".to_string()]);
    }

    #[test]
    fn jsonl_is_deterministic_and_escaped() {
        let run = || {
            let tracer = manual_tracer(Arc::new(AtomicU64::new(0)));
            {
                let _s = tracer.span("catalog", "tables.create");
                span_event("note", "say \"hi\"\nline2");
            }
            tracer.jsonl()
        };
        let a = run();
        assert_eq!(a, run(), "same workload → byte-identical dump");
        assert!(a.contains("\\\"hi\\\""));
        assert!(a.contains("\\n"));
        assert!(a.lines().count() == 3);
        assert!(a.starts_with("{\"t\":\"span_start\""));
    }

    #[test]
    fn count_events_filters_by_name_and_detail() {
        let tracer = manual_tracer(Arc::new(AtomicU64::new(0)));
        {
            let _s = tracer.span("l", "op");
            span_event("fault.injected", "txdb.commit.conflict#0");
            span_event("fault.injected", "store.put#3");
            span_event("write.retry", "attempt=1");
        }
        assert_eq!(tracer.count_events("fault.injected", None), 2);
        assert_eq!(tracer.count_events("fault.injected", Some("txdb.commit")), 1);
        assert_eq!(tracer.count_events("write.retry", None), 1);
        assert_eq!(tracer.count_events("nope", None), 0);
    }

    #[test]
    fn clear_resets_the_log() {
        let tracer = manual_tracer(Arc::new(AtomicU64::new(0)));
        {
            let _s = tracer.span("l", "op");
        }
        assert!(!tracer.records().is_empty());
        tracer.clear();
        assert!(tracer.records().is_empty());
    }
}
