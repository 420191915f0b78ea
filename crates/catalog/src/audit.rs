//! Audit logging (§4.2.1): an ordered trail of API requests, lifecycle
//! changes, and access-control decisions, for every asset type.
//!
//! ## Lane-sharded append, canonical merge
//!
//! Appending is the audit log's hot path — every allowed cached lookup is
//! audited — so a single exclusive lock here serializes otherwise
//! lock-free reads (the Fig 10 knee: a shared resource *past* the fast
//! path bounds throughput). Appends therefore go to one of
//! [`AUDIT_LANES`] per-thread lanes, selected by [`uc_obs::thread_slot`];
//! a lane's mutex is private to the threads mapped onto it, so with at
//! most one thread per lane an append never contends on anything shared.
//!
//! The canonical record order materializes only at [`AuditLog::flush`]
//! (called implicitly by every read accessor): lanes are drained under
//! the log's state lock and merged by the schedule-independent key
//! `(timestamp_ms, trace_id, lane, arrival)`. Timestamps come from the
//! injected clock and trace IDs are sequential (or harness-pinned), so
//! for a deterministic workload the merged order — and the assigned
//! `seq` numbers — are a function of the workload alone, not of which
//! thread ran first. That is the byte-stability contract the obs
//! integration suite pins: same seed → byte-identical audit trail under
//! 1, 4, or 16 threads.

use std::collections::VecDeque;

use parking_lot::{Class, Mutex, RwLock};
use serde::{Deserialize, Serialize};
use uc_cloudstore::sched;

use crate::{ids::Uid, ops::Action};

/// Outcome recorded for an audited action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditDecision {
    Allow,
    Deny,
}

/// One audited event.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    pub seq: u64,
    pub timestamp_ms: u64,
    pub principal: String,
    /// What was attempted, an op table row's action, e.g. `getTable`,
    /// `grant`, `generateTemporaryCredentials`.
    pub action: Action,
    pub securable: Option<Uid>,
    pub decision: AuditDecision,
    pub detail: String,
    /// Trace ID of the request span active when the action was audited,
    /// joining governance events to the observability plane's traces.
    /// `None` when tracing is disabled or the action ran outside a span.
    pub trace_id: Option<u64>,
}

/// Why a request was refused with `PermissionDenied`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// The caller lacks the privilege (or authority) the request needs.
    Privilege,
    /// A catalog is bound to workspaces the request did not come from.
    WorkspaceBinding,
    /// A row filter or column mask binds the read; the caller is no trusted engine.
    NeedsTrustedEngine,
    /// An ABAC policy restricts the asset to groups the caller is not in.
    AbacRestriction,
    /// No external location covers the requested path.
    NoExternalLocation,
    /// A row filter or column mask binds the read, and the path can hand a
    /// reader only files — no rule to enforce (the Iceberg facades).
    PoliciesNotExpressible,
}

/// A refused request, as `UcError::PermissionDenied` carries it. Its one
/// constructor is [`AuditLog::refuse`], which appends the refusal's `Deny`
/// first, so a refusal that exists was audited:
///
/// ```compile_fail
/// use uc_catalog::audit::{Reason, Refusal};
/// let _ = Refusal { reason: Reason::Privilege, message: String::new() };
/// ```
///
/// ```
/// use uc_catalog::audit::{AuditLog, Reason};
/// let log = AuditLog::new(8);
/// let refusal = log.refuse(0, "alice", uc_catalog::ops::GET_SECURABLE, None, String::new(), None, Reason::Privilege, "no".into());
/// assert_eq!((refusal.reason(), log.len()), (Reason::Privilege, 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Refusal {
    reason: Reason,
    message: String,
}

impl Refusal {
    pub fn reason(&self) -> Reason {
        self.reason
    }
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Number of append lanes. Matches the bench's widest thread sweep; more
/// threads than lanes only costs sharing a lane's (still uncontended-by-
/// others) mutex, never correctness.
pub const AUDIT_LANES: usize = 32;

/// One append lane, cache-line-aligned so neighboring lanes' mutex words
/// don't false-share.
#[repr(align(64))]
struct Lane {
    buf: Mutex<Vec<AuditRecord>>,
}

/// Bounded in-memory audit trail. Production systems ship these to a sink;
/// the bound keeps long-running simulations from growing unboundedly while
/// preserving recent history for inspection.
pub struct AuditLog {
    /// Per-thread append lanes (see module docs): the hot path touches
    /// exactly one of these and nothing shared.
    lanes: [Lane; AUDIT_LANES],
    /// Merged canonical records + sequence counter. Written only at flush
    /// time; every read accessor flushes first, so readers always see the
    /// canonical order.
    state: RwLock<AuditState>,
    capacity: usize,
    /// A lane that reaches this length triggers a self-flush, bounding
    /// pending memory at roughly `capacity` records across all lanes even
    /// if nothing ever reads the log.
    lane_high_water: usize,
}

struct AuditState {
    records: VecDeque<AuditRecord>,
    /// Total records ever merged (next sequence number).
    next_seq: u64,
}

/// The canonical merge key: schedule-independent for deterministic
/// workloads (injected clock + sequential/pinned trace IDs), and equal to
/// program order for a single-threaded recorder (one lane, arrival order
/// as the final tiebreak). Records without a trace sort after traced
/// records within a timestamp.
fn canonical_key(r: &AuditRecord, lane: usize, arrival: usize) -> (u64, u64, usize, usize) {
    (r.timestamp_ms, r.trace_id.unwrap_or(u64::MAX), lane, arrival)
}

impl AuditLog {
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        AuditLog {
            lanes: std::array::from_fn(|_| Lane { buf: Mutex::ranked(Class::CatalogBuf, Vec::new()) }),
            state: RwLock::ranked(Class::CatalogState, AuditState { records: VecDeque::new(), next_seq: 0 }),
            capacity,
            lane_high_water: (capacity / AUDIT_LANES).max(1),
        }
    }

    /// Append a record to the calling thread's lane; no shared exclusive
    /// lock is taken (the lane mutex is private to this thread's slot
    /// residue class). Eviction happens at merge time.
    ///
    /// `action` is an op table row's ([`Action`] has no other source);
    /// `detail` is taken by value so a built string is handed over.
    #[expect(clippy::too_many_arguments, reason = "one argument per field of the record it appends")]
    pub fn record(
        &self,
        timestamp_ms: u64,
        principal: &str,
        action: Action,
        securable: Option<&Uid>,
        decision: AuditDecision,
        detail: String,
        trace_id: Option<u64>,
    ) {
        let rec = AuditRecord {
            seq: 0, // assigned at merge time
            timestamp_ms,
            principal: principal.to_string(),
            action,
            securable: securable.cloned(),
            decision,
            detail,
            trace_id,
        };
        let lane = &self.lanes[uc_obs::thread_slot() % AUDIT_LANES];
        let overflow = {
            let mut buf = lane.buf.lock();
            buf.push(rec);
            buf.len() >= self.lane_high_water
        };
        if overflow {
            self.flush();
        }
    }

    /// [`Self::record`] a refused request's `Deny`, then return the
    /// [`Refusal`] it stands for (`message` is what the caller is told).
    #[expect(clippy::too_many_arguments, reason = "the record's fields, then the refusal's reason and message")]
    pub fn refuse(
        &self,
        timestamp_ms: u64,
        principal: &str,
        action: Action,
        securable: Option<&Uid>,
        detail: String,
        trace_id: Option<u64>,
        reason: Reason,
        message: String,
    ) -> Refusal {
        self.record(timestamp_ms, principal, action, securable, AuditDecision::Deny, detail, trace_id);
        Refusal { reason, message }
    }

    /// Drain every lane and merge the pending records into the canonical
    /// order (see [`canonical_key`]), assigning sequence numbers and
    /// evicting the oldest once over capacity. Read accessors call this
    /// implicitly; harnesses call it at chosen points to control batch
    /// boundaries.
    pub fn flush(&self) {
        sched::yield_point(sched::points::AUDIT_FLUSH);
        let mut state = self.state.write();
        let mut batch: Vec<(usize, usize, AuditRecord)> = Vec::new();
        for (lane_idx, lane) in self.lanes.iter().enumerate() {
            let drained = std::mem::take(&mut *lane.buf.lock());
            for (arrival, rec) in drained.into_iter().enumerate() {
                batch.push((lane_idx, arrival, rec));
            }
        }
        if batch.is_empty() {
            return;
        }
        batch.sort_by(|(la, aa, ra), (lb, ab, rb)| {
            canonical_key(ra, *la, *aa).cmp(&canonical_key(rb, *lb, *ab))
        });
        for (_, _, mut rec) in batch {
            rec.seq = state.next_seq;
            state.next_seq += 1;
            if state.records.len() == self.capacity {
                state.records.pop_front();
            }
            state.records.push_back(rec);
        }
    }

    /// Pending (unflushed) record count per lane — a test hook for
    /// asserting that concurrent recorders actually spread across lanes.
    pub fn pending_lane_occupancy(&self) -> Vec<usize> {
        self.lanes.iter().map(|lane| lane.buf.lock().len()).collect()
    }

    /// Most recent `n` records, newest last.
    pub fn recent(&self, n: usize) -> Vec<AuditRecord> {
        self.flush();
        let state = self.state.read();
        state.records.iter().rev().take(n).rev().cloned().collect()
    }

    /// All retained records matching a predicate.
    pub fn query(&self, pred: impl Fn(&AuditRecord) -> bool) -> Vec<AuditRecord> {
        self.flush();
        self.state.read().records.iter().filter(|r| pred(r)).cloned().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.flush();
        self.state.read().records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever merged (including evicted).
    pub fn total_recorded(&self) -> u64 {
        self.flush();
        self.state.read().next_seq
    }

    /// The retained trail as deterministic text, one record per line in
    /// canonical order with a fixed key layout — the byte-stability
    /// artifact the obs integration suite compares across thread counts.
    pub fn canonical_text(&self) -> String {
        self.flush();
        let state = self.state.read();
        let mut out = String::from("# uc-audit canonical\n");
        for r in state.records.iter() {
            let trace = r.trace_id.map_or("-".to_string(), |t| t.to_string());
            let securable = r.securable.as_ref().map_or("-", |u| u.as_str());
            let decision = match r.decision {
                AuditDecision::Allow => "allow",
                AuditDecision::Deny => "deny",
            };
            out.push_str(&format!(
                "seq={} ts={} trace={} principal={} action={} securable={} decision={} detail={}\n",
                r.seq,
                r.timestamp_ms,
                trace,
                sanitize(&r.principal),
                sanitize(r.action.as_str()),
                securable,
                decision,
                sanitize(&r.detail),
            ));
        }
        out
    }
}

/// Keep every record on one line of the canonical text.
fn sanitize(s: &str) -> String {
    if s.contains('\n') {
        s.replace('\n', "\\n")
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Op, GET_SECURABLE};

    fn log3(log: &AuditLog) {
        log.record(1, "alice", GET_SECURABLE, None, AuditDecision::Allow, "t1".into(), None);
        log.record(2, "bob", GET_SECURABLE, None, AuditDecision::Deny, "t1".into(), Some(7));
        log.record(3, "alice", Op::GRANT.actions[0], Some(&Uid::from("x")), AuditDecision::Allow, "SELECT".into(), None);
    }

    #[test]
    fn records_are_ordered_with_sequence_numbers() {
        let log = AuditLog::new(10);
        log3(&log);
        let recent = log.recent(10);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].seq, 0);
        assert_eq!(recent[2].seq, 2);
        assert_eq!(recent[2].action, "grant");
    }

    #[test]
    fn capacity_evicts_oldest() {
        let log = AuditLog::new(2);
        log3(&log);
        assert_eq!(log.len(), 2);
        let recent = log.recent(10);
        assert_eq!(recent[0].principal, "bob");
        assert_eq!(log.total_recorded(), 3);
    }

    #[test]
    fn query_filters() {
        let log = AuditLog::new(10);
        log3(&log);
        let denies = log.query(|r| r.decision == AuditDecision::Deny);
        assert_eq!(denies.len(), 1);
        assert_eq!(denies[0].principal, "bob");
        let alice = log.query(|r| r.principal == "alice");
        assert_eq!(alice.len(), 2);
    }

    #[test]
    fn trace_id_is_preserved() {
        let log = AuditLog::new(10);
        log3(&log);
        let recent = log.recent(10);
        assert_eq!(recent[0].trace_id, None);
        assert_eq!(recent[1].trace_id, Some(7));
    }

    #[test]
    fn recent_with_small_n_returns_newest() {
        let log = AuditLog::new(10);
        log3(&log);
        let last = log.recent(1);
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].action, "grant");
    }

    #[test]
    fn concurrent_appends_merge_into_canonical_order() {
        // Three recorder threads, each a distinct lane, interleaved
        // arbitrarily by the OS — the merged trail must come out in
        // (timestamp, trace) order with dense sequence numbers, exactly
        // as if one thread had recorded it.
        let log = AuditLog::new(1000);
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let log = &log;
                s.spawn(move || {
                    for k in 0..20u64 {
                        log.record(
                            k, // timestamp: one tick per round
                            "p",
                            GET_SECURABLE,
                            None,
                            AuditDecision::Allow,
                            format!("t{t}.k{k}"),
                            Some(1000 + t), // per-thread pinned trace
                        );
                    }
                });
            }
        });
        let all = log.recent(1000);
        assert_eq!(all.len(), 60, "no lost or duplicated records");
        for (i, r) in all.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "dense sequence numbers");
            assert_eq!(r.timestamp_ms, (i / 3) as u64, "timestamp-major order");
            assert_eq!(r.trace_id, Some(1000 + (i % 3) as u64), "trace-minor order");
        }
    }

    #[test]
    fn flush_batches_do_not_perturb_canonical_text() {
        // Flushing after every record vs once at the end must render the
        // same canonical bytes when keys are monotone (timestamps here):
        // batch boundaries are an implementation detail, not an ordering
        // input.
        let eager = AuditLog::new(100);
        let lazy = AuditLog::new(100);
        for i in 0..10u64 {
            eager.record(i, "p", GET_SECURABLE, None, AuditDecision::Allow, format!("d{i}"), Some(i));
            eager.flush();
            lazy.record(i, "p", GET_SECURABLE, None, AuditDecision::Allow, format!("d{i}"), Some(i));
        }
        assert_eq!(eager.canonical_text(), lazy.canonical_text());
    }

    #[test]
    fn lane_high_water_self_flushes() {
        // With capacity 2 the per-lane high water is 1: every record
        // triggers a merge, so nothing is ever pending and the bound
        // holds without any reader.
        let log = AuditLog::new(2);
        log3(&log);
        assert!(log.pending_lane_occupancy().iter().all(|&n| n == 0));
        assert_eq!(log.state.read().records.len(), 2, "merged without any read accessor");
    }
}
