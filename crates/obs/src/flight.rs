//! Flight recorder: a bounded per-thread ring of recent span/audit/fault
//! events, frozen into a canonical dump when something goes wrong.
//!
//! The trace log answers "what happened" after the fact, but it is
//! unbounded and global; production-shaped deployments want the last few
//! hundred events *leading up to* an incident, cheaply, always-on. The
//! recorder keeps [`FLIGHT_LANES`] rings of [`FLIGHT_LANE_CAPACITY`]
//! events each — a thread appends to the lane picked by
//! [`crate::thread_slot`], so appends touch one uncontended mutex and
//! never a shared structure.
//!
//! **Freezing** merges every lane into one canonical event list sorted by
//! `(ts_ms, trace_id, kind, name, detail)` — a pure content key, so the
//! frozen dump is byte-identical no matter how threads were scheduled or
//! how many lanes the same events were spread across (lane index and
//! per-lane arrival order are deliberately excluded; span IDs too, since
//! their allocation order is schedule-dependent). Freezes trigger
//! automatically when a fault injects (`fault.injected` events) or a
//! write retries past [`FLIGHT_RETRY_THRESHOLD`] attempts (`write.retry`
//! events), and on demand via the `metrics.flightrecorder` REST route.
//! The *first* automatic freeze wins — the interesting state is the ring
//! contents at the first incident, not the last — and an explicit freeze
//! replaces whatever dump is held.
//!
//! Lock discipline: lane mutexes are leaves — `note` locks exactly one
//! lane and returns; `freeze` takes the `frozen` slot first, then each
//! lane in index order, and is only ever entered while holding *no* other
//! obs lock (the tracer feeds the recorder and checks triggers *before*
//! taking its own log mutex).

use parking_lot::{Class, Mutex};

use crate::metrics::thread_slot;

/// Number of per-thread event lanes (same shape as the audit log's lanes).
pub const FLIGHT_LANES: usize = 32;

/// Events retained per lane; older events are overwritten ring-style.
pub const FLIGHT_LANE_CAPACITY: usize = 256;

/// A `write.retry` span event with `attempt=` at or above this freezes
/// the recorder.
pub const FLIGHT_RETRY_THRESHOLD: u64 = 4;

/// One recorded event. `kind` partitions the namespace: `span.start`,
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

#[derive(Debug, Default)]
struct Lane {
    ring: Vec<FlightEvent>,
    /// Next ring position to overwrite once the lane is full.
    write_at: usize,
}

impl Lane {
    fn push(&mut self, ev: FlightEvent) {
        if self.ring.len() < FLIGHT_LANE_CAPACITY {
            self.ring.push(ev);
        } else {
            self.ring[self.write_at] = ev;
            self.write_at = (self.write_at + 1) % FLIGHT_LANE_CAPACITY;
        }
    }
}

/// A frozen dump: the merged, canonically-ordered ring contents at the
/// moment of the freeze.
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

/// The recorder. Shared by clone via `Arc` inside the tracer/`Obs`.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: bool,
    lanes: Vec<Mutex<Lane>>,
    frozen: Mutex<Option<FrozenDump>>,
}

impl FlightRecorder {
    pub fn new(enabled: bool) -> Self {
        FlightRecorder {
            enabled,
            lanes: (0..FLIGHT_LANES).map(|_| Mutex::ranked(Class::ObsLane, Lane::default())).collect(),
            frozen: Mutex::ranked(Class::ObsFrozen, None),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append one event to the calling thread's lane. One uncontended
    /// lane mutex; no shared state.
    pub fn note(&self, ts_ms: u64, trace_id: u64, kind: &'static str, name: &str, detail: &str) {
        if !self.enabled {
            return;
        }
        let ev = FlightEvent {
            ts_ms,
            trace_id,
            kind,
            name: name.to_string(),
            detail: detail.to_string(),
        };
        self.lanes[thread_slot() % FLIGHT_LANES].lock().push(ev);
    }

    /// Audit-decision feed (called by the catalog's audit path).
    pub fn note_audit(&self, ts_ms: u64, trace_id: u64, action: &str, detail: &str) {
        self.note(ts_ms, trace_id, "audit", action, detail);
    }

    fn merge_lanes(&self) -> Vec<FlightEvent> {
        let mut events = Vec::new();
        for lane in &self.lanes {
            events.extend(lane.lock().ring.iter().cloned());
        }
        // Pure content order: no lane index, arrival counter, or span id —
        // anything schedule-dependent would break cross-thread-count
        // byte-stability.
        events.sort();
        events
    }

    /// Freeze now and store the dump, replacing any previous one. Returns
    /// the dump. Used by the explicit `metrics.flightrecorder` route and
    /// the uc-check adversarial schedules.
    pub fn freeze(&self, now_ms: u64, reason: &str) -> FrozenDump {
        if !self.enabled {
            return FrozenDump { reason: "disabled".into(), frozen_at_ms: now_ms, events: Vec::new() };
        }
        let mut slot = self.frozen.lock();
        let dump = FrozenDump {
            reason: reason.to_string(),
            frozen_at_ms: now_ms,
            events: self.merge_lanes(),
        };
        *slot = Some(dump.clone());
        dump
    }

    /// Automatic trigger path: freeze only if nothing is frozen yet, so
    /// the dump captures the *first* incident.
    pub fn freeze_if_armed(&self, now_ms: u64, reason: &str) {
        if !self.enabled {
            return;
        }
        let mut slot = self.frozen.lock();
        if slot.is_none() {
            let dump = FrozenDump {
                reason: reason.to_string(),
                frozen_at_ms: now_ms,
                events: self.merge_lanes(),
            };
            *slot = Some(dump);
        }
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

    #[test]
    fn dump_order_is_content_canonical_not_arrival_order() {
        let run = |spread: bool| {
            let fr = FlightRecorder::new(true);
            let feed = |fr: &FlightRecorder| {
                fr.note(2, 7, "event", "b", "x");
                fr.note(1, 7, "event", "a", "x");
                fr.note(1, 3, "span.start", "op", "");
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
            fr.note(i, 1, "event", "e", "");
        }
        let dump = fr.freeze(0, "bound");
        assert_eq!(dump.events.len(), FLIGHT_LANE_CAPACITY);
        // The oldest events were overwritten.
        assert!(dump.events.iter().all(|e| e.ts_ms >= 50));
    }

    #[test]
    fn first_auto_freeze_wins_until_an_explicit_freeze() {
        let fr = FlightRecorder::new(true);
        fr.note(1, 1, "event", "fault.injected", "sts.mint#0");
        fr.freeze_if_armed(1, "fault.injected sts.mint#0");
        fr.note(2, 1, "event", "late", "");
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
        fr.note(1, 1, "event", "e", "");
        fr.freeze_if_armed(1, "r");
        assert!(fr.frozen().is_none());
        assert_eq!(fr.freeze(1, "r").events.len(), 0);
    }

    #[test]
    fn chrome_export_maps_spans_and_instants() {
        let fr = FlightRecorder::new(true);
        fr.note(1, 9, "span.start", "catalog.get_table", "");
        fr.note(2, 9, "event", "history.read", "version=3");
        fr.note(3, 9, "span.end", "catalog.get_table", "status=ok");
        let chrome = fr.freeze(3, "test").to_chrome_trace();
        assert!(chrome.starts_with('[') && chrome.ends_with(']'));
        assert!(chrome.contains("\"ph\":\"B\",\"ts\":1000,\"pid\":1,\"tid\":9"));
        assert!(chrome.contains("\"ph\":\"E\",\"ts\":3000"));
        assert!(chrome.contains("\"ph\":\"i\",\"ts\":2000"));
    }
}
