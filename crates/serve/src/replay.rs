//! Deterministic replay of an open-loop schedule through the plane.
//!
//! The thread driver ([`crate::ServePlane::get_table`] /
//! [`crate::ServePlane::resolve`]) sheds by OS scheduling: which of a
//! burst's requests find their tenant's budget full depends on which
//! thread ran first. CI byte-diff gates need the opposite — so this module
//! is a second, single-threaded driver of the plane's own steps (`admit`,
//! `retry_after`) on the injected manual clock. It holds no policy of its
//! own: every decision, counter and audit record comes out of the
//! functions the thread driver calls, so shed decisions, telemetry, and
//! the audit trail are pure functions of the schedule seed:
//! `UC_SERVE_REPLAY=1` runs of the fig10b bench diff byte-identically.
//!
//! One rule: requests arriving in the same virtual millisecond are
//! concurrent. All of a quantum's arrivals are admitted or shed, in
//! arrival order, before any of them runs — each admitted one holds its
//! tenant's slot until it has run — and then each admitted request is one
//! catalog call, also in arrival order. A hook runs between quanta so
//! tests can inject writes or inspect the catalog.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use uc_catalog::service::Context;
use uc_catalog::{FullName, Uid};
use uc_workload::openloop::{Arrival, RequestKind, Schedule};

use crate::ServePlane;

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
    /// Catalog-level errors surfaced to requests (denies etc.).
    pub errors: u64,
    /// Last virtual timestamp processed.
    pub end_ms: u64,
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
        let _ = writeln!(out, "serve.replay.errors={}", self.errors);
        let _ = writeln!(out, "serve.replay.end_ms={}", self.end_ms);
        out
    }
}

/// Replay `schedule` through `plane` deterministically.
pub fn run(plane: &ServePlane, schedule: &Schedule, binding: &ReplayBinding) -> ReplayReport {
    run_with(plane, schedule, binding, |_, _| {})
}

/// [`run`] with a hook invoked at the start of every quantum (after the
/// clock advance, before admission) — the seam tests use to inject writes
/// between quanta.
pub fn run_with(
    plane: &ServePlane,
    schedule: &Schedule,
    binding: &ReplayBinding,
    mut hook: impl FnMut(u64, &ServePlane),
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

        // Arrival order: admit or shed. Nothing runs yet and every
        // admitted request holds its slot until it has run, so the whole
        // quantum is concurrently in flight and a tenant burst above its
        // budget sheds deterministically (later arrivals lose).
        let mut admitted = Vec::new();
        for (arrival, attempt) in quantum {
            let ctx = binding.context(arrival.tenant);
            report.offered += 1;
            let what = match arrival.kind {
                RequestKind::GetTable => "getTable",
                RequestKind::Resolve { .. } => "resolve",
            };
            if let Ok(slot) = plane.admit(ms, &ctx.principal, what) {
                report.admitted += 1;
                admitted.push((arrival, slot));
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

        // Arrival order again: each admitted request is one catalog call.
        for (arrival, _slot) in admitted {
            let ctx = binding.context(arrival.tenant);
            let table = |key: usize| binding.table(arrival.tenant, key);
            let uc = plane.catalog();
            let ok = match &arrival.kind {
                RequestKind::GetTable => uc.get_table(ctx, ms, table(arrival.key)).is_ok(),
                RequestKind::Resolve { keys } => {
                    let refs: Vec<FullName> =
                        keys.iter().filter_map(|k| FullName::parse(table(*k)).ok()).collect();
                    uc.resolve_for_query(ctx, ms, &refs, binding.want_credentials).is_ok()
                }
            };
            report.errors += u64::from(!ok);
        }
    }
    report
}
