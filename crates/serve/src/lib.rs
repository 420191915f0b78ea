#![forbid(unsafe_code)]
//! uc-serve: the request-coalescing, batched serving plane.
//!
//! `RestApi` dispatches one request at a time, synchronously; under the
//! paper's Fig 10b engine-metadata storms the database connection pool is
//! the knee (pool permits × per-read latency caps throughput however
//! many clients pile in). This crate puts an explicit serving plane in
//! front of [`UnityCatalog`] — the FoundationDB Record Layer shape: a
//! stateless tier that owns request scheduling so shared storage sees
//! shaped, deduplicated traffic. Three mechanisms (DESIGN.md §10):
//!
//! * **Single-flight coalescing** ([`flight`]): concurrent `getTable`
//!   requests for the same `(metastore, principal, key, cache-version)`
//!   share one catalog execution — a *leader* runs it, *followers*
//!   subscribe to its result, and the cache version in the key keeps a
//!   result from ever being served across an invalidation.
//!
//! * **Batched resolution** ([`batch`]): concurrent `resolve` requests
//!   combine, group-commit style, into one
//!   [`UnityCatalog::resolve_for_query`] call per compatible group; no
//!   dispatcher thread exists.
//!
//! * **Bounded per-tenant admission** ([`admission`]): over its
//!   in-flight budget a tenant's request is *shed deterministically* —
//!   an audited deny (`requestShed`), a `serve.shed` tick, and a typed
//!   [`UcError::ResourceExhausted`] that `rest.rs` maps to HTTP 429 —
//!   never a silent drop.
//!
//! Each mechanism is a pair of non-blocking steps (`admit`; `join` /
//! `finish`; `enqueue` / `next_group`) with two thin drivers over them.
//! The thread driver (`get_table`/`resolve` called from many threads,
//! including the baton-scheduled threads of uc-check) runs one request's
//! steps back to back and waits on its [`slot::Slot`]; it powers the
//! `fig10b_serve` bench. The [`replay`] driver steps a whole virtual
//! millisecond of an open-loop [`uc_workload::openloop::Schedule`]
//! through the same functions single-threaded on the injected clock, so
//! leader election, shedding, batching, telemetry, and audit are pure
//! functions of the seed — that is what the CI byte-diff gates replay.

pub mod admission;
pub mod batch;
pub mod flight;
pub mod replay;
pub mod slot;

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use uc_catalog::service::resolve::ResolvedSecurable;
use uc_catalog::service::{Context, UnityCatalog};
use uc_catalog::{Entity, FullName, UcError, UcResult, Uid};
use uc_cloudstore::sched::yield_point;
use uc_obs::{Counter, CounterFamily, Gauge, Histogram, HistogramFamily, Obs};

/// Scheduler yield points owned by the serving plane. Constants so the
/// interleaving explorer can land adversarial schedules at each stage;
/// all three are reached holding no serve lock.
pub mod points {
    /// Before admission control examines the request.
    pub const SERVE_ENQUEUE: &str = "serve.enqueue";
    /// Before a resolve request joins (or drains) the combining batch.
    pub const SERVE_BATCH: &str = "serve.batch";
    /// Before a leader executes the catalog call, and between a
    /// follower's wait-loop probes under the explorer.
    pub const SERVE_DISPATCH: &str = "serve.dispatch";
}

/// Bounded retry/backoff policy for shed-and-retry clients. Backoff is
/// driven by the injected clock: on a manual clock virtual time advances
/// (deterministic, instant); on a system clock the thread sleeps.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first shed (0 = never retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_ms: u64,
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (0-based): `base_ms << min(attempt, 6)`.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        self.base_ms << attempt.min(6)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, base_ms: 4 }
    }
}

/// Serving-plane configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-tenant in-flight budget; request N+1 is shed.
    pub queue_capacity: usize,
    /// Maximum requests combined into one `resolve_for_query` dispatch.
    pub max_batch: usize,
    /// Single-flight coalescing on/off (off = the uncoalesced bench arm).
    pub coalesce: bool,
    /// Combining batch dispatch on/off.
    pub batch: bool,
    pub retry: RetryPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            max_batch: 16,
            coalesce: true,
            batch: true,
            retry: RetryPolicy::default(),
        }
    }
}

/// How a request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Executed the catalog call itself (coalescing leader, batch
    /// leader, or coalescing disabled).
    Leader,
    /// Subscribed to another request's execution.
    Follower,
}

/// A successful serve-plane response: the value plus how it was served.
#[derive(Debug, Clone)]
pub struct Served<T> {
    pub value: T,
    pub role: Role,
    /// The metastore cache version embedded in the flight key at join
    /// time. Read-your-snapshot invariant: this is never below the
    /// version the caller observed before submitting.
    pub key_version: u64,
}

/// The serving plane's instruments, all riding the PR-7 dimensional
/// plane: each global counter has a `.by_tenant` family whose per-label
/// cells (plus `~overflow`) sum exactly to the global value — the
/// conservation law the benches assert.
pub(crate) struct ServeMetrics {
    pub leaders: Counter,
    pub leaders_by: CounterFamily,
    pub followers: Counter,
    pub followers_by: CounterFamily,
    pub admitted: Counter,
    pub admitted_by: CounterFamily,
    pub shed: Counter,
    pub shed_by: CounterFamily,
    pub retries: Counter,
    pub queue_depth: Gauge,
    pub depth_hist: Histogram,
    pub depth_by: HistogramFamily,
    pub batch_size: Histogram,
    pub batches: Counter,
}

impl ServeMetrics {
    fn new(obs: &Obs) -> ServeMetrics {
        ServeMetrics {
            leaders: obs.counter("serve.coalesce.leaders"),
            leaders_by: obs.counter_family("serve.coalesce.leaders.by_tenant"),
            followers: obs.counter("serve.coalesce.followers"),
            followers_by: obs.counter_family("serve.coalesce.followers.by_tenant"),
            admitted: obs.counter("serve.admitted"),
            admitted_by: obs.counter_family("serve.admitted.by_tenant"),
            shed: obs.counter("serve.shed"),
            shed_by: obs.counter_family("serve.shed.by_tenant"),
            retries: obs.counter("serve.retries"),
            queue_depth: obs.gauge("serve.queue.depth"),
            depth_hist: obs.histogram("serve.queue.depth.hist"),
            depth_by: obs.histogram_family("serve.queue.depth.by_tenant"),
            batch_size: obs.histogram("serve.batch.size"),
            batches: obs.counter("serve.batch.count"),
        }
    }
}

/// The serving plane bound to one catalog node.
pub struct ServePlane {
    uc: Arc<UnityCatalog>,
    cfg: ServeConfig,
    metrics: ServeMetrics,
    admission: admission::Admission,
    flights: flight::FlightMap,
    batcher: batch::Batcher,
    /// Tenant aliases for metric labels, mirroring the catalog's scheme
    /// (`t=<alias>,p=<principal>`); registered by the host, uid-free so
    /// labeled snapshots stay byte-stable across runs.
    aliases: RwLock<HashMap<Uid, Arc<str>>>,
}

impl ServePlane {
    pub fn new(uc: Arc<UnityCatalog>, cfg: ServeConfig) -> ServePlane {
        let obs = uc.obs().clone();
        ServePlane {
            metrics: ServeMetrics::new(&obs),
            admission: admission::Admission::new(),
            flights: flight::FlightMap::default(),
            batcher: batch::Batcher::default(),
            aliases: RwLock::new(HashMap::new()),
            uc,
            cfg,
        }
    }

    pub fn catalog(&self) -> &Arc<UnityCatalog> {
        &self.uc
    }

    /// Coalescing flights currently in progress.
    pub fn flights_in_progress(&self) -> usize {
        self.flights.in_flight()
    }

    /// Resolve requests queued in the combining batcher.
    pub fn batch_queue_len(&self) -> usize {
        self.batcher.queued()
    }

    /// Register the human-readable alias rendered into this metastore's
    /// serve metric labels (idempotent; call alongside `create_metastore`).
    pub fn register_tenant(&self, ms: &Uid, alias: &str) {
        let alias: Arc<str> = Arc::from(uc_obs::sanitize_label_value(alias));
        self.aliases.write().insert(ms.clone(), alias);
    }

    /// The `t=<alias>,p=<principal>` tenant label for a request.
    fn tenant_label(&self, ms: &Uid, principal: &str) -> Arc<str> {
        let alias = {
            let aliases = self.aliases.read();
            aliases.get(ms).cloned()
        };
        let alias = alias.as_deref().unwrap_or("~");
        Arc::from(format!("t={alias},p={}", uc_obs::sanitize_label_value(principal)))
    }

    /// The one shed path: a `serve.shed` tick, an audited `requestShed`
    /// deny, and the typed error `rest.rs` maps to HTTP 429 — never a
    /// silent drop. `why` names the request and the bound it hit.
    pub(crate) fn shed(&self, principal: &str, label: &Arc<str>, why: String) -> UcError {
        self.metrics.shed.inc();
        self.metrics.shed_by.inc(label);
        self.uc.audit_shed(principal, format!("shed {why}"));
        UcError::ResourceExhausted(why)
    }

    /// Admit or shed one request; on admit the returned guard holds the
    /// tenant's slot until dropped and carries the tenant label, rendered
    /// here once per request.
    pub(crate) fn admit(
        &self,
        ms: &Uid,
        principal: &str,
        what: &str,
    ) -> UcResult<admission::AdmissionGuard<'_>> {
        yield_point(points::SERVE_ENQUEUE);
        let label = self.tenant_label(ms, principal);
        let capacity = self.cfg.queue_capacity;
        self.admission.try_admit(ms, principal, capacity, &self.metrics, &label).ok_or_else(|| {
            let why = format!("{what}: tenant admission queue full (capacity {capacity})");
            self.shed(principal, &label, why)
        })
    }

    /// A shed request's next move: `Some(backoff_ms)`, counted as a
    /// retry, while `attempt` is inside the retry budget; `None` after.
    pub(crate) fn retry_after(&self, attempt: u32) -> Option<u64> {
        if attempt >= self.cfg.retry.max_retries {
            return None;
        }
        self.metrics.retries.inc();
        Some(self.cfg.retry.backoff_ms(attempt))
    }

    /// Serve one `getTable` through admission + single-flight coalescing.
    pub fn get_table(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &str,
    ) -> UcResult<Served<Arc<Entity>>> {
        self.board(ctx, ms, name)?.land()
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
    ) -> UcResult<Served<Arc<Entity>>> {
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

    /// Serve one batched resolution through admission + the combining
    /// batcher.
    pub fn resolve(
        &self,
        ctx: &Context,
        ms: &Uid,
        refs: Vec<FullName>,
        want_credentials: bool,
    ) -> UcResult<Served<Vec<ResolvedSecurable>>> {
        let queued = self.enqueue_resolve(ctx, ms, refs, want_credentials)?;
        if queued.leads() {
            self.drain();
        }
        queued.collect()
    }
}
