//! uc-serve: bounded per-tenant admission in front of the catalog.
//!
//! `RestApi` dispatches one request at a time, synchronously, and admits
//! everything. This crate puts admission control in front of
//! [`UnityCatalog`] — FoundationDB Record Layer's per-tenant resource
//! limit (DESIGN.md §10): each `(metastore, principal)` tenant owns an
//! in-flight budget ([`admission`]), and a request over it is *shed
//! deterministically* — an audited deny (`requestShed`), a `serve.shed`
//! tick, and a typed [`UcError::ResourceExhausted`] that `rest.rs` maps to
//! HTTP 429 — never a silent drop.
//!
//! The plane answers nothing itself. An admitted request is exactly one
//! catalog call ([`UnityCatalog::get_table`] or
//! [`UnityCatalog::resolve_for_query`]) and gets the catalog's result
//! unchanged, so the audit trail and the `catalog.{op}.count` series see
//! every admitted request once, exactly as they see a direct call.
//!
//! Two drivers use the same `admit` / `retry_after` steps: the thread
//! driver ([`ServePlane::get_table`] / [`ServePlane::resolve`], called
//! from many threads), and the [`replay`] driver, which steps a whole
//! virtual millisecond of an open-loop [`uc_workload::openloop::Schedule`]
//! single-threaded on the injected clock, so shedding, telemetry and the
//! audit trail are pure functions of the seed — what the CI byte-diff
//! gates replay.

pub mod admission;
pub mod replay;

use std::sync::Arc;

use uc_catalog::service::resolve::ResolvedSecurable;
use uc_catalog::service::{Context, UnityCatalog};
use uc_catalog::{Entity, FullName, UcError, UcResult, Uid};
use uc_cloudstore::sched::yield_point;
use uc_obs::{Counter, CounterFamily, Gauge, Histogram, HistogramFamily, Obs};

/// Scheduler yield points owned by the serving plane, reached holding no
/// serve lock.
pub mod points {
    /// Before admission control examines the request.
    pub const SERVE_ENQUEUE: &str = "serve.enqueue";
}

/// Retries a shed request gets after its first shed.
pub const MAX_RETRIES: u32 = 3;
/// Backoff before a shed request's first retry; it doubles per retry.
/// Both drivers wait it out on the injected clock.
pub const BACKOFF_BASE_MS: u64 = 4;

/// Serving-plane configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-tenant in-flight budget; request N+1 is shed.
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { queue_capacity: 64 }
    }
}

/// The serving plane's instruments, all riding the PR-7 dimensional
/// plane: each global counter has a `.by_tenant` family whose per-label
/// cells (plus `~overflow`) sum exactly to the global value — the
/// conservation law the tests assert.
pub(crate) struct ServeMetrics {
    pub admitted: Counter,
    pub admitted_by: CounterFamily,
    pub shed: Counter,
    pub shed_by: CounterFamily,
    pub retries: Counter,
    pub queue_depth: Gauge,
    pub depth_hist: Histogram,
    pub depth_by: HistogramFamily,
}

impl ServeMetrics {
    fn new(obs: &Obs) -> ServeMetrics {
        ServeMetrics {
            admitted: obs.counter("serve.admitted"),
            admitted_by: obs.counter_family("serve.admitted.by_tenant"),
            shed: obs.counter("serve.shed"),
            shed_by: obs.counter_family("serve.shed.by_tenant"),
            retries: obs.counter("serve.retries"),
            queue_depth: obs.gauge("serve.queue.depth"),
            depth_hist: obs.histogram("serve.queue.depth.hist"),
            depth_by: obs.histogram_family("serve.queue.depth.by_tenant"),
        }
    }
}

/// The serving plane bound to one catalog node.
pub struct ServePlane {
    uc: Arc<UnityCatalog>,
    cfg: ServeConfig,
    metrics: ServeMetrics,
    admission: admission::Admission,
}

impl ServePlane {
    pub fn new(uc: Arc<UnityCatalog>, cfg: ServeConfig) -> ServePlane {
        let obs = uc.obs().clone();
        ServePlane {
            metrics: ServeMetrics::new(&obs),
            admission: admission::Admission::new(),
            uc,
            cfg,
        }
    }

    pub fn catalog(&self) -> &Arc<UnityCatalog> {
        &self.uc
    }

    /// Name the metastore in the catalog's tenant labels, which the serve
    /// metrics share: [`UnityCatalog::register_tenant_alias`].
    pub fn register_tenant(&self, ms: &Uid, alias: &str) {
        self.uc.register_tenant_alias(ms, alias);
    }

    /// Admit or shed one request; on admit the returned guard holds the
    /// tenant's slot until dropped. A shed is a `serve.shed` tick, an
    /// audited `requestShed` deny, and the typed error `rest.rs` maps to
    /// HTTP 429 — never a silent drop.
    pub(crate) fn admit(
        &self,
        ms: &Uid,
        principal: &str,
        what: &str,
    ) -> UcResult<admission::AdmissionGuard<'_>> {
        yield_point(points::SERVE_ENQUEUE);
        let label = self.uc.tenant_label(Some(ms), principal);
        let capacity = self.cfg.queue_capacity;
        self.admission.try_admit(ms, principal, capacity, &self.metrics, &label).ok_or_else(|| {
            let why = format!("{what}: tenant admission queue full (capacity {capacity})");
            self.metrics.shed.inc();
            self.metrics.shed_by.inc(&label);
            self.uc.audit_shed(principal, format!("shed {why}"));
            UcError::ResourceExhausted(why)
        })
    }

    /// A shed request's next move: `Some(backoff_ms)` — `BACKOFF_BASE_MS
    /// << attempt`, counted as a retry — while `attempt` (0-based) is
    /// below [`MAX_RETRIES`]; `None` after.
    pub(crate) fn retry_after(&self, attempt: u32) -> Option<u64> {
        if attempt >= MAX_RETRIES {
            return None;
        }
        self.metrics.retries.inc();
        Some(BACKOFF_BASE_MS << attempt)
    }

    /// Admit one `getTable`, then make the one catalog call.
    pub fn get_table(&self, ctx: &Context, ms: &Uid, name: &str) -> UcResult<Arc<Entity>> {
        let _admitted = self.admit(ms, &ctx.principal, "getTable")?;
        self.uc.get_table(ctx, ms, name)
    }

    /// [`ServePlane::get_table`] with bounded shed-and-retry backoff on
    /// the injected clock: a manual clock advances virtual time
    /// (chaos/replay runs stay instant and deterministic); on a system
    /// clock the thread sleeps.
    pub fn get_table_with_retry(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &str,
    ) -> UcResult<Arc<Entity>> {
        let mut attempt: u32 = 0;
        loop {
            let served = self.get_table(ctx, ms, name);
            let backoff_ms = match &served {
                Err(UcError::ResourceExhausted(_)) => self.retry_after(attempt),
                _ => None,
            };
            let Some(backoff_ms) = backoff_ms else { return served };
            let clock = self.uc.clock();
            if clock.is_manual() {
                clock.advance_ms(backoff_ms);
            } else {
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
            }
            attempt += 1;
        }
    }

    /// Admit one resolution, then make the one catalog call.
    pub fn resolve(
        &self,
        ctx: &Context,
        ms: &Uid,
        refs: Vec<FullName>,
        want_credentials: bool,
    ) -> UcResult<Vec<ResolvedSecurable>> {
        let _admitted = self.admit(ms, &ctx.principal, "resolve")?;
        self.uc.resolve_for_query(ctx, ms, &refs, want_credentials)
    }
}
