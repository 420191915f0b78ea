//! Flight recorder: the tracer's one record store, kept in per-thread
//! lanes, and the canonical dump frozen from it when something goes wrong.
//!
//! Every span start/end and span event a thread records, and every audit
//! decision it mirrors, is appended to the lane [`crate::thread_slot`]
//! picks among [`FLIGHT_LANES`]: one mutex that no other thread writes on
//! the steady path. Each entry is tagged with a sequence number from one
//! atomic counter; the trace ([`crate::Tracer::records`], `jsonl`) is the
//! lanes' trace records merged by it. The store retains at most
//! [`MAX_RECORDS`] entries plus one flight tail per lane: a lane shorter
//! than [`FLIGHT_LANE_CAPACITY`] always grows, and a push into a full
//! store overwrites its lane's oldest entry and counts it as dropped.
//!
//! **Freezing** renders each lane's newest [`FLIGHT_LANE_CAPACITY`]
//! entries into [`FlightEvent`]s — `"{layer}.{name}"` and `"status=…"`
//! are formatted here, not on every push — sorted by the pure content key
//! `(ts_ms, trace_id, kind, name, detail)`, so the frozen dump is
//! byte-identical no matter how threads were scheduled or how many lanes
//! the events were spread across (lane index, sequence number and span
//! IDs are schedule-dependent and excluded). Freezes trigger
//! automatically when a fault injects (`fault.injected` events) or a
//! write retries past [`FLIGHT_RETRY_THRESHOLD`] attempts (`write.retry`
//! events), and on demand via the `metrics.flightrecorder` REST route.
//! The *first* automatic freeze wins — the interesting state is the tails
//! at the first incident, not the last — and an explicit freeze replaces
//! whatever dump is held.
//!
//! Lock discipline: every lock here is an unranked leaf, taken alone. A
//! push takes its lane; a freeze takes each lane, then the frozen slot,
//! one at a time. Nothing is recorded while the thread holds another lock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::metrics::thread_slot;
use crate::trace::TraceRecord;

/// Number of per-thread lanes (same shape as the audit log's lanes).
pub const FLIGHT_LANES: usize = 32;

/// Entries per lane a freeze renders, and that a lane keeps however full
/// the store is.
pub const FLIGHT_LANE_CAPACITY: usize = 256;

/// Entries the store holds before a push overwrites its lane's oldest (a
/// lane shorter than its flight tail still grows), so a runaway workload
/// cannot exhaust memory through its own observability.
pub const MAX_RECORDS: usize = 1_000_000;

/// A `write.retry` span event with `attempt=` at or above this freezes
/// the recorder.
pub const FLIGHT_RETRY_THRESHOLD: u64 = 4;

/// One rendered event. `kind` partitions the namespace: `span.start`,
/// `span.end`, `event` (span events, including fault injections), and
/// `audit` (access decisions).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlightEvent {
    pub ts_ms: u64,
    pub trace_id: u64,
    pub kind: &'static str,
    pub name: String,
    pub detail: String,
}

impl FlightEvent {
    /// Canonical JSONL rendering (fixed key order, like `TraceRecord`).
    fn to_json(&self) -> String {
        format!(
            "{{\"ts_ms\":{},\"trace_id\":{},\"kind\":\"{}\",\"name\":\"{}\",\"detail\":\"{}\"}}",
            self.ts_ms,
            self.trace_id,
            self.kind,
            crate::trace::escape(&self.name),
            crate::trace::escape(&self.detail),
        )
    }
}

/// One entry of a lane: a trace record, or an audit decision, which the
/// flight dump shows and the trace does not.
#[derive(Debug)]
pub(crate) enum Entry {
    Trace(TraceRecord),
    Audit { ts_ms: u64, trace_id: u64, action: &'static str, detail: String },
}

impl Entry {
    fn render(&self) -> FlightEvent {
        let (ts_ms, trace_id, kind, name, detail) = match self {
            Entry::Trace(TraceRecord::SpanStart { ts_ms, trace_id, layer, name, .. }) => {
                (ts_ms, trace_id, "span.start", format!("{layer}.{name}"), String::new())
            }
            Entry::Trace(TraceRecord::Event { ts_ms, trace_id, name, detail, .. }) => {
                (ts_ms, trace_id, "event", name.to_string(), detail.clone())
            }
            Entry::Trace(TraceRecord::SpanEnd { ts_ms, trace_id, status, .. }) => {
                (ts_ms, trace_id, "span.end", String::new(), format!("status={status}"))
            }
            Entry::Audit { ts_ms, trace_id, action, detail } => (ts_ms, trace_id, "audit", action.to_string(), detail.clone()),
        };
        FlightEvent { ts_ms: *ts_ms, trace_id: *trace_id, kind, name, detail }
    }
}

/// A frozen dump: the lanes' tails at the moment of the freeze, rendered
/// and canonically ordered.
#[derive(Debug, Clone)]
pub struct FrozenDump {
    pub reason: String,
    pub frozen_at_ms: u64,
    pub events: Vec<FlightEvent>,
}

impl FrozenDump {
    /// Canonical JSONL: one header object, then one line per event.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"flight\":\"frozen\",\"reason\":\"{}\",\"frozen_at_ms\":{},\"events\":{}}}\n",
            crate::trace::escape(&self.reason),
            self.frozen_at_ms,
            self.events.len(),
        );
        for ev in &self.events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Chrome-trace-compatible export (`chrome://tracing` / Perfetto JSON
    /// array form): spans become `B`/`E` duration events, everything else
    /// instant events; `tid` carries the trace id so one request reads as
    /// one row.
    pub fn to_chrome_trace(&self) -> String {
        let mut parts = Vec::with_capacity(self.events.len());
        for ev in &self.events {
            let (ph, scope) = match ev.kind {
                "span.start" => ("B", ""),
                "span.end" => ("E", ""),
                _ => ("i", ",\"s\":\"t\""),
            };
            parts.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":1,\"tid\":{}{scope},\
                 \"args\":{{\"kind\":\"{}\",\"detail\":\"{}\"}}}}",
                crate::trace::escape(&ev.name),
                ev.ts_ms * 1000,
                ev.trace_id,
                ev.kind,
                crate::trace::escape(&ev.detail),
            ));
        }
        format!("[{}]", parts.join(",\n"))
    }
}

/// The store and its frozen dump. Owned by the tracer, shared by clone
/// via `Arc` inside the tracer/`Obs`.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: bool,
    next_seq: AtomicU64,
    /// Entries held, over all lanes.
    held: AtomicUsize,
    dropped: AtomicU64,
    /// Per lane, its entries oldest first, each with its sequence number.
    lanes: Vec<Mutex<VecDeque<(u64, Entry)>>>,
    frozen: Mutex<Option<FrozenDump>>,
}

impl FlightRecorder {
    pub fn new(enabled: bool) -> Self {
        FlightRecorder {
            enabled,
            next_seq: AtomicU64::new(0),
            held: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            lanes: (0..FLIGHT_LANES).map(|_| Mutex::new(VecDeque::new())).collect(),
            frozen: Mutex::new(None),
        }
    }

    /// Append one entry to the calling thread's lane: one mutex no other
    /// thread writes on the steady path.
    pub(crate) fn push(&self, entry: Entry) {
        let mut lane = self.lanes[thread_slot() % FLIGHT_LANES].lock();
        if lane.len() >= FLIGHT_LANE_CAPACITY && self.held.load(Ordering::Relaxed) >= MAX_RECORDS {
            lane.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            self.held.fetch_add(1, Ordering::Relaxed);
        }
        lane.push_back((self.next_seq.fetch_add(1, Ordering::Relaxed), entry));
    }

    /// Audit-decision feed (called by the catalog's audit path).
    pub fn note_audit(&self, ts_ms: u64, trace_id: u64, action: &'static str, detail: &str) {
        if self.enabled {
            self.push(Entry::Audit { ts_ms, trace_id, action, detail: detail.to_string() });
        }
    }

    /// The trace records held, merged by sequence number: append order.
    pub(crate) fn records(&self) -> Vec<TraceRecord> {
        let mut records = Vec::new();
        for lane in &self.lanes {
            records.extend(lane.lock().iter().filter_map(|(seq, entry)| match entry {
                Entry::Trace(record) => Some((*seq, record.clone())),
                Entry::Audit { .. } => None,
            }));
        }
        records.sort_unstable_by_key(|(seq, _)| *seq);
        records.into_iter().map(|(_, record)| record).collect()
    }

    /// Entries overwritten since the store filled up.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Empty every lane. The frozen dump, if any, stays.
    pub(crate) fn clear(&self) {
        for lane in &self.lanes {
            let mut lane = lane.lock();
            self.held.fetch_sub(lane.len(), Ordering::Relaxed);
            lane.clear();
        }
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// A dump of every lane's newest [`FLIGHT_LANE_CAPACITY`] entries,
    /// rendered and in content order: no lane index, sequence number or
    /// span id, since anything schedule-dependent would break
    /// cross-thread-count byte-stability.
    fn dump(&self, now_ms: u64, reason: &str) -> FrozenDump {
        let mut events = Vec::new();
        for lane in &self.lanes {
            let lane = lane.lock();
            let tail = lane.len().saturating_sub(FLIGHT_LANE_CAPACITY);
            events.extend(lane.range(tail..).map(|(_, entry)| entry.render()));
        }
        events.sort();
        FrozenDump { reason: reason.to_string(), frozen_at_ms: now_ms, events }
    }

    /// Freeze now and store the dump, replacing any previous one. Returns
    /// the dump. Used by the explicit `metrics.flightrecorder` route and
    /// the uc-check adversarial schedules.
    pub fn freeze(&self, now_ms: u64, reason: &str) -> FrozenDump {
        if !self.enabled {
            return FrozenDump { reason: "disabled".into(), frozen_at_ms: now_ms, events: Vec::new() };
        }
        let dump = self.dump(now_ms, reason);
        *self.frozen.lock() = Some(dump.clone());
        dump
    }

    /// Automatic trigger path: freeze only if nothing is frozen yet, so
    /// the dump captures the *first* incident.
    pub fn freeze_if_armed(&self, now_ms: u64, reason: &str) {
        if !self.enabled || self.frozen.lock().is_some() {
            return;
        }
        let dump = self.dump(now_ms, reason);
        self.frozen.lock().get_or_insert(dump);
    }

    /// The currently frozen dump, if any.
    pub fn frozen(&self) -> Option<FrozenDump> {
        self.frozen.lock().clone()
    }

    /// Does `(name, detail)` describe an event that should auto-freeze?
    /// `fault.injected` always; `write.retry` once `attempt=` reaches
    /// [`FLIGHT_RETRY_THRESHOLD`].
    pub fn trigger_reason(name: &str, detail: &str) -> Option<String> {
        if name == "fault.injected" {
            return Some(format!("fault.injected {detail}"));
        }
        if name == "write.retry" {
            let attempt = detail
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix("attempt=")?.parse::<u64>().ok())?;
            if attempt >= FLIGHT_RETRY_THRESHOLD {
                return Some(format!("write.retry attempt={attempt}"));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(ts_ms: u64, trace_id: u64, name: &'static str, detail: &str) -> Entry {
        Entry::Trace(TraceRecord::Event { trace_id, span_id: 1, name, detail: detail.to_string(), ts_ms })
    }

    #[test]
    fn dump_order_is_content_canonical_not_arrival_order() {
        let run = |spread: bool| {
            let fr = FlightRecorder::new(true);
            let feed = |fr: &FlightRecorder| {
                fr.push(event(2, 7, "b", "x"));
                fr.push(event(1, 7, "a", "x"));
                fr.note_audit(1, 3, "op", "");
            };
            if spread {
                std::thread::scope(|s| {
                    s.spawn(|| feed(&fr));
                });
            } else {
                feed(&fr);
            }
            fr.freeze(5, "test").to_jsonl()
        };
        let a = run(false);
        let b = run(true);
        assert_eq!(a, b, "lane placement must not leak into the dump");
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"reason\":\"test\""));
        assert!(lines[1].contains("\"trace_id\":3"), "ts=1 trace=3 sorts first");
        assert!(lines[2].contains("\"name\":\"a\""));
        assert!(lines[3].contains("\"name\":\"b\""));
    }

    #[test]
    fn lane_ring_is_bounded() {
        let fr = FlightRecorder::new(true);
        for i in 0..(FLIGHT_LANE_CAPACITY as u64 + 50) {
            fr.push(event(i, 1, "e", ""));
        }
        let dump = fr.freeze(0, "bound");
        assert_eq!(dump.events.len(), FLIGHT_LANE_CAPACITY);
        assert!(dump.events.iter().all(|e| e.ts_ms >= 50), "only the newest entries");
        assert_eq!(fr.records().len(), FLIGHT_LANE_CAPACITY + 50, "the store keeps all of them");
    }

    #[test]
    fn first_auto_freeze_wins_until_an_explicit_freeze() {
        let fr = FlightRecorder::new(true);
        fr.push(event(1, 1, "fault.injected", "sts.mint#0"));
        fr.freeze_if_armed(1, "fault.injected sts.mint#0");
        fr.push(event(2, 1, "late", ""));
        fr.freeze_if_armed(2, "fault.injected other");
        let dump = fr.frozen().expect("frozen");
        assert_eq!(dump.reason, "fault.injected sts.mint#0");
        assert_eq!(dump.events.len(), 1, "the later event is not in the first dump");
        fr.freeze(3, "explicit");
        let dump = fr.frozen().expect("frozen");
        assert_eq!((dump.reason.as_str(), dump.events.len()), ("explicit", 2));
    }

    #[test]
    fn trigger_rules() {
        assert!(FlightRecorder::trigger_reason("fault.injected", "x#1").is_some());
        assert!(FlightRecorder::trigger_reason("write.retry", "attempt=3 cause=c").is_none());
        assert_eq!(
            FlightRecorder::trigger_reason("write.retry", "attempt=4 cause=c backoff_ms=16"),
            Some("write.retry attempt=4".to_string())
        );
        assert!(FlightRecorder::trigger_reason("history.read", "version=1").is_none());
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let fr = FlightRecorder::new(false);
        fr.note_audit(1, 1, "e", "");
        fr.freeze_if_armed(1, "r");
        assert!(fr.frozen().is_none());
        assert_eq!(fr.freeze(1, "r").events.len(), 0);
    }

    #[test]
    fn chrome_export_maps_spans_and_instants() {
        let fr = FlightRecorder::new(true);
        let (layer, name) = ("catalog", "get_table".to_string());
        fr.push(Entry::Trace(TraceRecord::SpanStart { trace_id: 9, span_id: 1, parent_id: 0, layer, name, ts_ms: 1 }));
        fr.push(event(2, 9, "history.read", "version=3"));
        fr.push(Entry::Trace(TraceRecord::SpanEnd { trace_id: 9, span_id: 1, ts_ms: 3, status: "ok" }));
        let dump = fr.freeze(3, "test");
        assert_eq!(dump.events[0].name, "catalog.get_table", "rendered at the freeze");
        assert_eq!(dump.events[2].detail, "status=ok");
        let chrome = dump.to_chrome_trace();
        assert!(chrome.starts_with('[') && chrome.ends_with(']'));
        assert!(chrome.contains("\"ph\":\"B\",\"ts\":1000,\"pid\":1,\"tid\":9"));
        assert!(chrome.contains("\"ph\":\"E\",\"ts\":3000"));
        assert!(chrome.contains("\"ph\":\"i\",\"ts\":2000"));
    }
}
