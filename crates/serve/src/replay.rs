//! Deterministic replay of an open-loop schedule through the plane.
//!
//! The concurrent entry points ([`crate::ServePlane::get_table`] /
//! [`crate::ServePlane::resolve`]) are thread-driven: which requests
//! coalesce and who leads depends on OS scheduling, so two runs report
//! different (equally correct) splits. CI byte-diff gates need the
//! opposite — so this module is a second, single-threaded driver of the
//! plane's own steps (`board` / `land`, `enqueue_resolve` / `drain` /
//! `collect`, `retry_after`) on the injected manual clock. It holds no
//! policy of its own: every decision, counter and audit record comes out
//! of the functions the thread driver calls. Leader election is
//! deterministic (first arrival), so shed decisions, coalesce splits,
//! batch sizes, telemetry, and the audit trail are pure functions of the
//! schedule seed: `UC_SERVE_REPLAY=1` runs of the fig10b bench diff
//! byte-identically.
//!
//! Requests arriving in the same virtual millisecond are concurrent:
//! each is admitted (or shed) and joins its flight or the batch queue in
//! arrival order before anything runs; then the flight leaders land,
//! their followers read the published slots, and the batch leader drains
//! the queue — nothing ever waits. A hook runs between quanta so tests
//! can inject invalidations and prove flights never span a cache version
//! change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use uc_catalog::service::Context;
use uc_catalog::{Entity, FullName, Uid};
use uc_workload::openloop::{Arrival, RequestKind, Schedule};

use crate::{ServePlane, Served};

/// Binds a schedule's abstract tenant/key indices to a concrete world.
pub struct ReplayBinding {
    /// The metastore every tenant lives in (tenants are principals).
    pub ms: Uid,
    /// Per-tenant request context; tenant index `i` uses
    /// `contexts[i % contexts.len()]`.
    pub contexts: Vec<Context>,
    /// Per-tenant table names; key index `k` of tenant `i` resolves to
    /// `tables[i % tables.len()][k % tables[..].len()]`.
    pub tables: Vec<Vec<String>>,
    /// Whether `Resolve` requests ask for read credentials.
    pub want_credentials: bool,
}

impl ReplayBinding {
    fn context(&self, tenant: usize) -> &Context {
        &self.contexts[tenant % self.contexts.len()]
    }

    fn table(&self, tenant: usize, key: usize) -> &str {
        let tables = &self.tables[tenant % self.tables.len()];
        &tables[key % tables.len()]
    }
}

/// Counters accumulated by one replay; [`ReplayReport::canonical_text`]
/// is the byte-diffed CI artifact.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Schedule arrivals plus retry re-arrivals offered to admission.
    pub offered: u64,
    /// Requests admitted past the tenant budget.
    pub admitted: u64,
    /// Shed events (each is one audited deny + one 429).
    pub shed: u64,
    /// Shed requests re-offered after backoff.
    pub retried: u64,
    /// Shed requests dropped after exhausting their retry budget.
    pub dropped: u64,
    /// Coalesce groups executed (each is one catalog call + one audit).
    pub leaders: u64,
    /// Requests served from another request's flight.
    pub followers: u64,
    /// Combined resolve dispatches.
    pub batches: u64,
    /// Resolve requests carried by those dispatches.
    pub batch_items: u64,
    /// Catalog-level errors surfaced to requests (denies etc.).
    pub errors: u64,
    /// Last virtual timestamp processed.
    pub end_ms: u64,
    /// Metastore cache version of the last quantum — flights never span
    /// two values of this (read-your-snapshot).
    pub last_version: u64,
}

impl ReplayReport {
    /// Canonical, line-oriented rendering for byte-for-byte diffing.
    pub fn canonical_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "serve.replay.offered={}", self.offered);
        let _ = writeln!(out, "serve.replay.admitted={}", self.admitted);
        let _ = writeln!(out, "serve.replay.shed={}", self.shed);
        let _ = writeln!(out, "serve.replay.retried={}", self.retried);
        let _ = writeln!(out, "serve.replay.dropped={}", self.dropped);
        let _ = writeln!(out, "serve.replay.leaders={}", self.leaders);
        let _ = writeln!(out, "serve.replay.followers={}", self.followers);
        let _ = writeln!(out, "serve.replay.batches={}", self.batches);
        let _ = writeln!(out, "serve.replay.batch_items={}", self.batch_items);
        let _ = writeln!(out, "serve.replay.errors={}", self.errors);
        let _ = writeln!(out, "serve.replay.end_ms={}", self.end_ms);
        let _ = writeln!(out, "serve.replay.last_version={}", self.last_version);
        out
    }
}

/// Replay `schedule` through `plane` deterministically.
pub fn run(plane: &ServePlane, schedule: &Schedule, binding: &ReplayBinding) -> ReplayReport {
    run_with(plane, schedule, binding, |_, _| {})
}

/// [`run`] with a hook invoked at the start of every quantum (after the
/// clock advance, before admission) — the seam tests use to inject
/// invalidations between quanta.
pub fn run_with(
    plane: &ServePlane,
    schedule: &Schedule,
    binding: &ReplayBinding,
    hook: impl FnMut(u64, &ServePlane),
) -> ReplayReport {
    run_observed(plane, schedule, binding, hook, |_, _, _| {})
}

/// [`run_with`] plus an observer called with every `getTable` result as
/// it lands: the quantum, the request's context, what it was served.
pub fn run_observed(
    plane: &ServePlane,
    schedule: &Schedule,
    binding: &ReplayBinding,
    mut hook: impl FnMut(u64, &ServePlane),
    mut on_get: impl FnMut(u64, &Context, &Served<Arc<Entity>>),
) -> ReplayReport {
    let mut report = ReplayReport::default();
    if binding.contexts.is_empty() || binding.tables.is_empty() {
        return report;
    }
    let ms = &binding.ms;
    // Virtual-time queue of (arrival, times shed so far): the schedule
    // plus shed-retry re-arrivals.
    let mut queue: BTreeMap<u64, Vec<(&Arrival, u32)>> = BTreeMap::new();
    for arrival in &schedule.arrivals {
        queue.entry(arrival.at_ms).or_default().push((arrival, 0));
    }
    while let Some((t, quantum)) = queue.pop_first() {
        report.end_ms = t;
        let clock = plane.catalog().clock();
        if clock.is_manual() {
            clock.advance_ms(t.saturating_sub(clock.now_ms()));
        }
        hook(t, plane);
        report.last_version = plane.catalog().metastore_cache_version(ms);

        // Arrival order: admit, then join the flight or the batch queue.
        // Nothing runs yet and every entered request holds its admission
        // slot until it is served, so the whole quantum is concurrently
        // in flight and a tenant burst above its budget sheds
        // deterministically (later arrivals lose).
        let mut flights = Vec::new();
        let mut queued = Vec::new();
        for (arrival, attempt) in quantum {
            let ctx = binding.context(arrival.tenant);
            let table = |key: usize| binding.table(arrival.tenant, key);
            report.offered += 1;
            let entered = match &arrival.kind {
                RequestKind::GetTable => {
                    plane.board(ctx, ms, table(arrival.key)).map(|f| flights.push(f))
                }
                RequestKind::Resolve { keys } => {
                    let refs = keys.iter().filter_map(|k| FullName::parse(table(*k)).ok());
                    plane
                        .enqueue_resolve(ctx, ms, refs.collect(), binding.want_credentials)
                        .map(|q| queued.push(q))
                }
            };
            if entered.is_ok() {
                report.admitted += 1;
                continue;
            }
            report.shed += 1;
            match plane.retry_after(attempt) {
                Some(backoff_ms) => {
                    report.retried += 1;
                    queue.entry(t + backoff_ms).or_default().push((arrival, attempt + 1));
                }
                None => report.dropped += 1,
            }
        }

        // Leaders land first (stable sort: in arrival order), so every
        // follower finds its slot already published.
        flights.sort_by_key(|flight| !flight.leads());
        for flight in flights {
            let ctx = flight.ctx;
            if flight.leads() {
                report.leaders += 1;
            } else {
                report.followers += 1;
            }
            match flight.land() {
                Ok(served) => on_get(t, ctx, &served),
                Err(_) => report.errors += 1,
            }
        }
        // The quantum's first resolve found the queue idle and was
        // elected; its drain serves every item behind it.
        for request in queued {
            if request.leads() {
                report.batches += plane.drain();
            }
            report.batch_items += 1;
            if request.collect().is_err() {
                report.errors += 1;
            }
        }
    }
    report
}
