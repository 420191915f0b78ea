//! The Unity Catalog service: one node of the multi-tenant catalog.
//!
//! This module holds the node state and the two protocols everything else
//! is built on:
//!
//! * the **cached read** — an entity is read with its whole chain
//!   `[leaf, …, metastore]`, found by tree key; a lookup by id or by
//!   storage path is a pointer read in front of that. Each is one `probe`
//!   / `load` pair over [`crate::cache`]'s one read routine, which owns
//!   the coherence protocol (hit at the pinned version; on a miss read the
//!   database at one snapshot, retry / reconcile / install);
//! * the **write protocol** — a retry loop running each logical write as
//!   a serializable database transaction that reads the metastore version
//!   and commits `version + 1`, then hands the effects to the cache's
//!   write-through and publishes change events; on top of it the one
//!   **create** ([`UnityCatalog::create_entity`]: name → live parent →
//!   vacant key → the kind's fill → manifest validation → upsert) and the
//!   one in-transaction by-id read ([`live_key`], then [`live_entity`]).
//!
//! The public API surface is split across the sibling modules:
//! [`crud`], [`grants_api`], [`vending`], [`resolve`], [`commits`],
//! [`discovery_api`], [`federation`], [`sharing`].

pub mod commits;
pub mod crud;
pub mod discovery_api;
pub mod federation;
pub mod grants_api;
pub mod resolve;
pub mod rest;
pub mod sharing;
pub mod vending;

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;
use uc_cloudstore::faults::{points, FaultPlan};
use uc_cloudstore::latency::{LatencyModel, OpClass};
use uc_cloudstore::sched;
use uc_cloudstore::{AccessLevel, Clock, ObjectStore, RootCredential, StoragePath, TempCredential};
use uc_obs::{Counter, CounterFamily, Histogram, HistogramFamily, Obs, SpanGuard, WindowSeries};
use uc_txdb::{Db, ReadTxn, TxError, WriteTxn};

use crate::audit::{AuditDecision, AuditLog};
use crate::authz::decision::{decide, AuthzContext, Need};
use crate::cache::ttl::TtlCache;
use crate::cache::{CacheConfig, Installs, MsCache, NodeCache, WriteEffects};
use crate::error::{UcError, UcResult};
use crate::events::{ChangeOp, EventBus, MetadataChangeEvent};
use crate::ids::Uid;
use crate::model::entity::{Entity, PrincipalRecord};
use crate::model::keys::{self, T_ENTITY, T_MSVER, T_PRINCIPAL, T_TREE};
use crate::model::manifest::manifest;
use crate::model::treekey;
use crate::ops::{Action, Op};
use crate::types::{FullName, SecurableKind};

/// Node configuration.
#[derive(Clone)]
pub struct UcConfig {
    /// Latency injected on every public API call — the network hop between
    /// an engine and the (remote) catalog service.
    pub api_latency: LatencyModel,
    pub cache: CacheConfig,
    /// Lifetime of vended temporary credentials (paper: tens of minutes).
    pub cred_ttl_ms: u64,
    /// Cache unexpired vended tokens and reuse them across requests.
    pub cred_cache_enabled: bool,
    /// Audit log retention (records).
    pub audit_capacity: usize,
    /// Modelled cost of one cloud STS round trip when minting a token
    /// (cache hits skip it). Zero in unit tests.
    pub sts_mint_cost: std::time::Duration,
    /// Fault plan for catalog-level injection points (chaos tests).
    /// Share the same plan with the store/db for a coherent schedule.
    pub faults: FaultPlan,
    /// Observability handle. Share the same handle with the store/db so
    /// every layer's spans land in one trace and every counter in one
    /// registry (the same sharing pattern as `faults` and the clock).
    pub obs: Obs,
}

impl Default for UcConfig {
    fn default() -> Self {
        UcConfig {
            api_latency: LatencyModel::zero(),
            cache: CacheConfig::default(),
            cred_ttl_ms: 15 * 60 * 1000,
            cred_cache_enabled: true,
            audit_capacity: 100_000,
            sts_mint_cost: std::time::Duration::ZERO,
            faults: FaultPlan::disabled(),
            obs: Obs::disabled(),
        }
    }
}

/// How the calling engine authenticated (§4.3.2): trusted engines are
/// isolated from user code and may receive + enforce FGAC policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineIdentity {
    /// Machine-authenticated, isolated engine (may enforce FGAC).
    Trusted(String),
    /// Engine that can run arbitrary user code.
    Untrusted(String),
}

/// A calling principal plus engine identity and (optionally) the
/// workspace the request originates from — catalogs can be *bound* to
/// specific workspaces (§3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Context {
    pub principal: String,
    pub engine: EngineIdentity,
    /// Originating workspace, when known. Requests without a workspace
    /// cannot traverse into workspace-bound catalogs.
    pub workspace: Option<String>,
}

impl Context {
    /// A user calling through an untrusted client.
    pub fn user(principal: &str) -> Self {
        Context {
            principal: principal.to_string(),
            engine: EngineIdentity::Untrusted("client".into()),
            workspace: None,
        }
    }

    /// A user calling through a trusted engine.
    pub fn trusted(principal: &str, engine: &str) -> Self {
        Context {
            principal: principal.to_string(),
            engine: EngineIdentity::Trusted(engine.to_string()),
            workspace: None,
        }
    }

    /// Attach the originating workspace.
    pub fn in_workspace(mut self, workspace: &str) -> Self {
        self.workspace = Some(workspace.to_string());
        self
    }

    pub fn is_trusted_engine(&self) -> bool {
        matches!(self.engine, EngineIdentity::Trusted(_))
    }
}

/// The tree key a `T_ENTITY` pointer holds.
fn pointed_key(pointer: Option<Bytes>) -> Option<String> {
    String::from_utf8(pointer?.to_vec()).ok()
}

/// Liveness of an entity inside a write: the tree key its id points at,
/// or `NotFound(what)` when it has no pointer — it was dropped (or purged)
/// at this write's snapshot. Callers resolved `id` through the cache,
/// which may lag a drop made on another node or racing this write's
/// retry; the serializable write is where that staleness is caught, and
/// the read joins its validated set. Every drop and every move of the
/// entity rewrites the pointer and nothing else does, so a write that
/// needs the entity alive and in place, not its content (a create under
/// it, a drop of it), reads no more than this.
pub(crate) fn live_key(
    tx: &mut WriteTxn,
    ms: &Uid,
    id: &Uid,
    what: impl std::fmt::Display,
) -> UcResult<String> {
    pointed_key(tx.get(T_ENTITY, &keys::ent_key(ms, id)))
        .ok_or_else(|| UcError::NotFound(what.to_string()))
}

/// The one in-transaction read of an entity by id: [`live_key`], then the
/// row at that key. Returns the key too — an update puts the row back
/// where it was read.
pub(crate) fn live_entity(
    tx: &mut WriteTxn,
    ms: &Uid,
    id: &Uid,
    what: impl std::fmt::Display,
) -> UcResult<(Entity, String)> {
    let key = live_key(tx, ms, id, what)?;
    let raw = tx
        .get(T_TREE, &key)
        .ok_or_else(|| UcError::Database(format!("pointer of {id} names no tree row")))?;
    Ok((Entity::decode(&raw)?, key))
}

/// The direct children of the node at `parent_key`, optionally within one
/// name group, decoded from **one** range scan of the tree index. `scan`
/// runs the `T_TREE` prefix scan on whichever transaction the caller
/// holds, so the children reflect that transaction's single snapshot and
/// cost no per-child point read. The scan covers the whole subtree;
/// children proper are selected by segment depth before anything deeper
/// is decoded.
pub(crate) fn tree_children(
    scan: impl FnOnce(&str) -> Vec<(String, Bytes)>,
    parent_key: &str,
    group: Option<&str>,
) -> UcResult<Vec<Arc<Entity>>> {
    let child_depth = treekey::depth(parent_key) + 1;
    let rows = match group {
        Some(g) => scan(&keys::tree_group_prefix(parent_key, g)),
        None => scan(parent_key),
    };
    rows.iter()
        .filter(|(k, _)| treekey::depth(k) == child_depth)
        .map(|(_, raw)| Ok(Arc::new(Entity::decode(raw)?)))
        .collect()
}

impl WriteEffects {
    /// Persist an entity's row at its tree key and record the effect: the
    /// whole of an update that leaves the entity where it is.
    pub fn upsert_at(
        &mut self,
        tx: &mut WriteTxn,
        ent: Entity,
        op: ChangeOp,
        tk: String,
    ) -> Arc<Entity> {
        tx.put(T_TREE, &tk, ent.encode());
        let arc = Arc::new(ent);
        self.events
            .push((arc.id.clone(), arc.kind, arc.name.clone(), op));
        self.upserts.push((arc.clone(), tk));
        arc
    }

    /// A new entity: its id pointer, then its row. The caller has found
    /// `tk` vacant — only active entities have tree rows, so an occupied
    /// key is exactly a taken name.
    pub fn create_at(&mut self, tx: &mut WriteTxn, ent: Entity, tk: String) -> Arc<Entity> {
        tx.put(T_ENTITY, &keys::ent_key(&ent.metastore, &ent.id), Bytes::from(tk.clone()));
        self.upsert_at(tx, ent, ChangeOp::Create, tk)
    }
}

/// Node-level counters.
///
/// Fields are [`uc_obs::Counter`]s whose `fetch_add`/`load` mirror the
/// `AtomicU64` API they replaced, so existing callers (and chaos tests)
/// compile unchanged while the values also surface in the node's metrics
/// registry under `catalog.*` names.
#[derive(Debug, Default)]
pub struct ServiceStats {
    pub api_calls: Counter,
    pub write_retries: Counter,
    /// Virtual milliseconds of backoff accumulated by the write protocol
    /// while riding out transient database failures.
    pub write_backoff_ms: Counter,
}

impl ServiceStats {
    fn wired(registry: &uc_obs::Registry) -> Self {
        ServiceStats {
            api_calls: registry.counter("catalog.api.calls"),
            write_retries: registry.counter("catalog.write.retries"),
            write_backoff_ms: registry.counter("catalog.write.backoff_ms"),
        }
    }
}

/// One Unity Catalog node. Share the same [`Db`] and [`ObjectStore`]
/// across several nodes to model a fleet (see [`crate::sharding`]).
pub struct UnityCatalog {
    pub(crate) node_id: String,
    pub(crate) db: Db,
    pub(crate) store: ObjectStore,
    pub(crate) clock: Clock,
    pub(crate) config: UcConfig,
    pub(crate) cache: NodeCache,
    /// Vended-token cache keyed by (asset id, access level).
    pub(crate) cred_cache: TtlCache<(Uid, AccessLevel), TempCredential>,
    /// TTL cache for principal/group records (weak consistency is fine).
    pub(crate) principal_cache: TtlCache<String, PrincipalRecord>,
    /// Root credentials by bucket, mirrored from storage-credential
    /// entities for fast vending.
    pub(crate) roots: RwLock<std::collections::HashMap<String, RootCredential>>,
    pub(crate) audit: AuditLog,
    pub(crate) events: EventBus,
    pub(crate) stats: ServiceStats,
    /// Per-op metric handles for [`UnityCatalog::api_enter`], one slot per
    /// row of [`Op::ALL`] at the row's `index`, each lazily initialized on
    /// first use. The hot path is an index plus a `OnceLock` read — no
    /// lock of any kind (the previous `RwLock<HashMap>` read probe
    /// serialized every API call on one cache line).
    api_instruments: [std::sync::OnceLock<ApiInstruments>; Op::ALL.len()],
    /// Human-readable tenant aliases for metric labels, keyed by metastore
    /// id. Populated at `create_metastore` from the metastore *name* —
    /// entity `Uid`s are random and must never reach a snapshot (the
    /// telemetry determinism gates diff snapshot bytes without pinning
    /// `UC_SEED`). Metastores created elsewhere in a fleet fall back to a
    /// `ms-`-prefixed uid stub.
    tenant_aliases: RwLock<std::collections::HashMap<Uid, Arc<str>>>,
}

struct ApiInstruments {
    count: Counter,
    latency: Histogram,
    /// `catalog.{op}.count.by_tenant` — bounded-cardinality per-tenant
    /// breakout; per-label values + overflow sum exactly to `count`.
    labeled_count: CounterFamily,
    /// `catalog.{op}.latency_ms.by_tenant`.
    labeled_latency: HistogramFamily,
    /// `catalog.{op}.window` — trailing-window rate + quantiles.
    window: WindowSeries,
}

/// A request as the audit trail sees it: the node, the operation's row,
/// the caller, and which of the row's actions its refusals and its `Allow`
/// go under, as an index into them (the primary, 0, unless
/// [`Audited::acting`] picked another) — so a request can only ever
/// record what its op's row declares.
#[derive(Clone, Copy)]
pub(crate) struct Audited<'a> {
    uc: &'a UnityCatalog,
    op: &'static Op,
    action: usize,
    principal: &'a str,
}

impl<'a> Audited<'a> {
    /// The same request under `action`, one of its op's own.
    pub(crate) fn acting(self, action: Action) -> Audited<'a> {
        let at = self.op.actions.iter().position(|a| *a == action);
        debug_assert!(at.is_some(), "{} does not declare {}", self.op.name, action.as_str());
        Audited { action: at.unwrap_or(0), ..self }
    }

    /// Audit the op's `Allow`, once it has run.
    pub(crate) fn allow(&self, securable: &Uid, detail: impl std::fmt::Display) {
        let action = self.op.actions[self.action];
        self.uc.record_audit(self.principal, action, Some(securable), AuditDecision::Allow, detail);
    }

    /// Audit a refusal [`Self::gate`] does not decide: a policy that needs
    /// a trusted engine, a path no asset governs.
    pub(crate) fn deny(&self, securable: Option<&Uid>, detail: impl std::fmt::Display) {
        let action = self.op.actions[self.action];
        self.uc.record_audit(self.principal, action, securable, AuditDecision::Deny, detail);
    }

    /// The one authorization gate: every audited allow / deny in the
    /// service is [`decide`] over the borrowed chain, here. On refusal —
    /// and only then — the `Deny` is recorded against `chain[0]` under the
    /// request's action, and the error is built: `NotFound` for
    /// [`Need::See`] (existence is hidden from callers who may not see the
    /// object), `PermissionDenied` naming the need and the target
    /// otherwise. Callers audit their own [`Self::allow`] once the op has
    /// run. Returns the caller's context, built from the chain's metastore
    /// entity, for requests that decide again ([`Self::gate_with`]).
    pub(crate) fn gate(
        &self,
        chain: &[Arc<Entity>],
        need: Need<'_>,
        detail: impl std::fmt::Display,
    ) -> UcResult<AuthzContext> {
        let who = self.uc.authz_context_with(chain, self.principal)?;
        self.gate_with(&who, chain, need, detail)?;
        Ok(who)
    }

    /// [`Self::gate`] for a caller whose context is already built.
    pub(crate) fn gate_with(
        &self,
        who: &AuthzContext,
        chain: &[Arc<Entity>],
        need: Need<'_>,
        detail: impl std::fmt::Display,
    ) -> UcResult<()> {
        if decide(chain, who, need) {
            return Ok(());
        }
        let target = &chain[0];
        self.deny(Some(&target.id), &detail);
        Err(match need {
            Need::See => UcError::NotFound(detail.to_string()),
            _ => UcError::PermissionDenied(format!(
                "{need} required on {} {}",
                target.kind, target.name
            )),
        })
    }
}

/// RAII guard returned by `api_enter`: the request's [`Audited`] face, its
/// span, the deferred per-tenant/window latency recording and the
/// thread-local tenant scope that lets deeper layers (txdb commit, STS
/// mint) attribute their series to this request's tenant.
pub(crate) struct ApiGuard<'a> {
    pub(crate) audit: Audited<'a>,
    instruments: &'a ApiInstruments,
    start_ms: u64,
    label: Arc<str>,
    /// Pops the tenant off the thread-local scope stack on drop.
    _scope: uc_obs::TenantScope,
    /// Kept alive for the duration of the request; dropped after the
    /// telemetry recording in [`ApiGuard::drop`] closes the books.
    _span: SpanGuard,
}

impl Drop for ApiGuard<'_> {
    fn drop(&mut self) {
        let now = self.audit.uc.config.obs.clock_ms();
        let elapsed = now.saturating_sub(self.start_ms);
        self.instruments.window.record(now, elapsed);
        self.instruments.labeled_latency.record(&self.label, elapsed);
    }
}

thread_local! {
    /// Per-thread (metastore, principal) → rendered label memo so repeat
    /// requests from the same tenant build no strings and take no locks.
    /// Bounded FIFO; eviction only matters for threads that serve many
    /// distinct tenants, which is exactly the cold case.
    static TENANT_MEMO: std::cell::RefCell<Vec<(Uid, String, Arc<str>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Entries kept in [`TENANT_MEMO`] per thread.
const TENANT_MEMO_CAPACITY: usize = 64;

/// A resolved chain `[leaf, …, metastore]`, or `None` for a name, id or
/// path that names nothing live.
pub(crate) type Chain = Option<Vec<Arc<Entity>>>;

/// Cache probe of [`UnityCatalog::chain_at_key`]: every level present
/// under the one version pin, leaf first; one hit per level.
fn cached_chain(c: &MsCache, ver: u64, leaf_key: &str) -> Option<(Chain, u64)> {
    let mut chain = Vec::with_capacity(treekey::depth(leaf_key));
    for key in treekey::chain_prefixes(leaf_key).rev() {
        match c.get_at(&c.id_by_name(key)?, ver)? {
            Some(hit) => chain.push(hit),
            // Cached tombstone at this pin: the name is gone.
            None => return Some((None, 1)),
        }
    }
    let served = chain.len() as u64;
    Some((Some(chain), served))
}

/// Cache probe of [`UnityCatalog::chain_by_id`]: the entity, then each
/// container it names, all under the one version pin. A level that is not
/// cached live at the pin is a miss — the database, at one snapshot,
/// decides what the chain is.
fn cached_chain_by_id(c: &MsCache, ms: &Uid, ver: u64, id: &Uid) -> Option<(Chain, u64)> {
    let Some(leaf) = c.get_at(id, ver)? else { return Some((None, 1)) };
    let mut chain = vec![leaf];
    while let Some(below) = chain.last().filter(|e| e.kind != SecurableKind::Metastore) {
        // Catalogs carry no parent id: they sit under the metastore.
        let above = c.get_at(below.parent.as_ref().unwrap_or(ms), ver)??;
        chain.push(above);
    }
    let served = chain.len() as u64;
    Some((Some(chain), served))
}

/// Database load of [`UnityCatalog::chain_at_key`]: the chain scan
/// returns the metastore row plus the row at every existing level,
/// shortest key first, and each is installed under its own key.
fn load_chain(rt: &ReadTxn, ms: &Uid, leaf_key: &str) -> UcResult<(Chain, Installs)> {
    let rows = rt.scan_chain(T_TREE, leaf_key);
    if rows.first().is_none_or(|(k, _)| treekey::depth(k) != 1) {
        return Err(UcError::NotFound(format!("metastore {ms}")));
    }
    // One row per existing level, so a short chain means the key names
    // nothing (a soft delete removes the tree row: presence is liveness).
    if rows.len() != treekey::depth(leaf_key) {
        return Ok((None, Vec::new()));
    }
    let installs = rows
        .into_iter()
        .map(|(key, raw)| Ok((Arc::new(Entity::decode(&raw)?), key)))
        .collect::<UcResult<Installs>>()?;
    let chain = installs.iter().rev().map(|(ent, _)| ent.clone()).collect();
    Ok((Some(chain), installs))
}

/// [`load_chain`] at the key `id`'s pointer holds, in the same snapshot.
fn load_chain_by_id(rt: &ReadTxn, ms: &Uid, id: &Uid) -> UcResult<(Chain, Installs)> {
    match pointed_key(rt.get(T_ENTITY, &keys::ent_key(ms, id))) {
        Some(key) => load_chain(rt, ms, &key),
        None => Ok((None, Vec::new())),
    }
}

/// The label used when a request carries no metastore or no principal.
pub(crate) const NO_TENANT: &str = "-";

impl UnityCatalog {
    pub fn new(db: Db, store: ObjectStore, config: UcConfig, node_id: &str) -> Arc<Self> {
        let clock = store.sts().clock().clone();
        Arc::new(UnityCatalog {
            node_id: node_id.to_string(),
            db,
            cache: NodeCache::wired(config.cache.clone(), config.obs.registry()),
            api_instruments: std::array::from_fn(|_| std::sync::OnceLock::new()),
            cred_cache: TtlCache::new(clock.clone(), config.cred_ttl_ms),
            principal_cache: TtlCache::new(clock.clone(), 60_000),
            roots: RwLock::new(std::collections::HashMap::new()),
            tenant_aliases: RwLock::new(std::collections::HashMap::new()),
            audit: AuditLog::new(config.audit_capacity),
            events: EventBus::new(),
            stats: ServiceStats::wired(config.obs.registry()),
            clock,
            store,
            config,
        })
    }

    /// Convenience: a node over fresh in-memory substrates (tests).
    pub fn in_memory() -> Arc<Self> {
        UnityCatalog::new(
            Db::in_memory(),
            ObjectStore::in_memory(),
            UcConfig::default(),
            "node-0",
        )
    }

    pub fn node_id(&self) -> &str {
        &self.node_id
    }

    pub fn db(&self) -> &Db {
        &self.db
    }

    pub fn object_store(&self) -> &ObjectStore {
        &self.store
    }

    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    pub fn audit_log(&self) -> &AuditLog {
        &self.audit
    }

    pub fn event_bus(&self) -> &EventBus {
        &self.events
    }

    pub fn cache_stats(&self) -> &crate::cache::CacheStats {
        &self.cache.stats
    }

    pub fn service_stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Fault plan consulted at the catalog's injection points.
    pub fn faults(&self) -> &FaultPlan {
        &self.config.faults
    }

    /// Observability handle: metrics registry + tracer for this node.
    pub fn obs(&self) -> &Obs {
        &self.config.obs
    }

    /// Deterministic text snapshot of every metric this node records —
    /// the `GET /metrics` payload (see [`rest::RestApi`]). The yield point
    /// lets the interleaving explorer schedule stripe folds adversarially
    /// against in-flight recorders.
    pub fn metrics_snapshot(&self) -> String {
        sched::yield_point(sched::points::OBS_FOLD);
        self.config.obs.metrics_snapshot()
    }

    pub fn credential_cache_stats(&self) -> (u64, u64) {
        self.cred_cache.stats()
    }

    pub(crate) fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Intern the per-op instrument handles in the obs registries. Every
    /// registry lookup takes the registry mutex, so this is the cold half
    /// of [`Self::api_enter`]: callers memoize the result.
    fn make_api_instruments(&self, op: &str) -> ApiInstruments {
        let obs = &self.config.obs;
        ApiInstruments {
            count: obs.counter(&format!("catalog.{op}.count")),
            latency: obs.histogram(&format!("catalog.{op}.latency_ms")),
            labeled_count: obs.counter_family(&format!("catalog.{op}.count.by_tenant")),
            labeled_latency: obs.histogram_family(&format!("catalog.{op}.latency_ms.by_tenant")),
            window: obs.window(&format!("catalog.{op}.window")),
        }
    }

    /// Entry hook for every public API: models the engine→catalog network
    /// hop, counts the call (globally, per-op, per-tenant, and into the
    /// op's trailing window), and opens the request-scoped span every
    /// deeper layer (txdb, cloudstore) parents under. Callers bind the
    /// returned guard for the duration of the request and gate / audit
    /// through it. `principal` and `ms` attribute the call to a tenant;
    /// the few ops with no request identity pass `None`.
    pub(crate) fn api_enter<'a>(
        &'a self,
        op: &'static Op,
        principal: Option<&'a str>,
        ms: Option<&Uid>,
    ) -> ApiGuard<'a> {
        self.stats.api_calls.fetch_add(1, Ordering::Relaxed);
        // uc-lint: allow(hotpath) -- first-call interning: the OnceLock below makes every later call for this op lock-free
        let make = || self.make_api_instruments(op.name);
        let instruments = self.api_instruments[op.index].get_or_init(make);
        instruments.count.inc();
        self.config.api_latency.apply(OpClass::Control);
        // Zero-allocation on the repeat path: the label is a memoized
        // Arc<str>, the labeled counter probe is a thread-local hash hit,
        // the window recording is striped atomics.
        let principal = principal.unwrap_or(NO_TENANT);
        let label = self.tenant_label(ms, principal);
        instruments.labeled_count.inc(&label);
        let start_ms = self.config.obs.clock_ms();
        let scope = uc_obs::tenant_scope(label.clone());
        let latency = Some(instruments.latency.clone());
        let span = self.config.obs.tracer().span_timed("catalog", op.name, latency);
        let audit = Audited { uc: self, op, action: 0, principal };
        ApiGuard { audit, instruments, start_ms, label, _scope: scope, _span: span }
    }

    /// Record the human-readable alias rendered into this metastore's
    /// metric labels. Called by `create_metastore` with the metastore
    /// name; idempotent.
    pub(crate) fn register_tenant_alias(&self, ms: &Uid, name: &str) {
        let alias: Arc<str> = Arc::from(uc_obs::sanitize_label_value(name));
        self.tenant_aliases.write().insert(ms.clone(), alias);
    }

    /// The `t=<alias>,p=<principal>` label for a request, memoized per
    /// thread so the repeat path allocates nothing and takes no lock.
    fn tenant_label(&self, ms: Option<&Uid>, principal: &str) -> Arc<str> {
        let Some(ms) = ms else {
            // No metastore (node-level ops): rare enough to build fresh.
            return Arc::from(format!("t={NO_TENANT},p={}", uc_obs::sanitize_label_value(principal)));
        };
        let hit = TENANT_MEMO.with(|memo| {
            memo.borrow()
                .iter()
                .find(|(u, p, _)| u == ms && p == principal)
                .map(|(_, _, label)| label.clone())
        });
        if let Some(label) = hit {
            return label;
        }
        // Cold path: resolve the alias under the shared registry lock and
        // memoize the rendered label for this thread.
        let alias = {
            // uc-lint: allow(hotpath) -- read lock only on the first (ms, principal) sighting per thread; the repeat path is the memo above
            let aliases = self.tenant_aliases.read();
            aliases.get(ms).cloned()
        };
        let label: Arc<str> = match alias {
            Some(a) => Arc::from(format!("t={a},p={}", uc_obs::sanitize_label_value(principal))),
            // Unknown metastore (created by another node of the fleet):
            // deterministic uid-derived stub. This never appears in the
            // byte-diffed telemetry gates, which always create their
            // metastores through this node.
            None => Arc::from(format!(
                "t=ms-{},p={}",
                &ms.as_str()[..8.min(ms.as_str().len())],
                uc_obs::sanitize_label_value(principal)
            )),
        };
        TENANT_MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            if memo.len() >= TENANT_MEMO_CAPACITY {
                memo.remove(0);
            }
            memo.push((ms.clone(), principal.to_string(), label.clone()));
        });
        label
    }

    /// Freeze the flight recorder now and return the canonical JSONL dump
    /// (empty-events dump when tracing is disabled). The yield point lets
    /// the interleaving explorer land a freeze adversarially between a
    /// commit and its audit flush.
    pub fn flight_freeze(&self, reason: &str) -> String {
        sched::yield_point(sched::points::FLIGHT_FREEZE);
        self.config.obs.flight_freeze(reason)
    }

    /// The node's current cache version for a metastore — the snapshot
    /// pin every cached read validates against. The serving plane keys
    /// its single-flight coalescing map on this value: a request that
    /// observed version v+1 computes a different flight key than a
    /// leader that started at v, so a leader's result is never served
    /// across an invalidation (read-your-snapshot for followers).
    pub fn metastore_cache_version(&self, ms: &Uid) -> u64 {
        self.cache.for_metastore(ms).version()
    }

    /// Audit a request the serving plane shed under admission control.
    /// Shedding is a governance decision like any deny: it must land in
    /// the audit trail (under [`Op::SERVE_ADMIT`]'s action), never be a
    /// silent drop.
    pub fn audit_shed(&self, principal: &str, detail: impl std::fmt::Display) {
        self.record_audit(principal, Op::SERVE_ADMIT.actions[0], None, AuditDecision::Deny, detail);
    }

    /// The audit sink: [`Audited`]'s calls and the shed land here.
    fn record_audit(
        &self,
        principal: &str,
        action: Action,
        securable: Option<&Uid>,
        decision: AuditDecision,
        detail: impl std::fmt::Display,
    ) {
        let detail = detail.to_string();
        let trace_id = uc_obs::current_trace_id();
        // Mirror the record into the flight recorder first: its lane lock
        // is a leaf taken and released before the audit log's append lane,
        // keeping the lock order acyclic. No-op when tracing is disabled.
        self.config.obs.flight().note_audit(
            self.now_ms(),
            trace_id.unwrap_or(0),
            action.as_str(),
            &detail,
        );
        self.audit.record(
            self.now_ms(),
            principal,
            action.as_str(),
            securable,
            decision,
            detail,
            trace_id,
        );
    }

    // ------------------------------------------------------------------
    // Cached reads: probe / load pairs over `MsCache::read_through`
    // ------------------------------------------------------------------

    /// The chain `[leaf, …, metastore]` of the entity whose row sits at
    /// `leaf_key`: the one cached read every lookup ends in. The probe
    /// finds every level in the cache under one version pin; the load is
    /// one `scan_chain` — the row at each terminator-prefix of the key, at
    /// one snapshot — so a chain is never assembled level by level and a
    /// cascade landing mid-request cannot leave it dangling.
    pub(crate) fn chain_at_key(&self, ms: &Uid, leaf_key: &str) -> UcResult<Chain> {
        self.cache.for_metastore(ms).read_through(
            ms,
            &self.db,
            |c, ver| cached_chain(c, ver, leaf_key),
            |rt| load_chain(rt, ms, leaf_key),
        )
    }

    /// [`Self::chain_at_key`] of an entity addressed by id: a miss reads
    /// the key its `T_ENTITY` pointer holds, then loads that key's chain,
    /// in one snapshot. `None` when the id is not live — dropped, purged,
    /// never there.
    pub(crate) fn chain_by_id(&self, ms: &Uid, id: &Uid) -> UcResult<Chain> {
        self.cache.for_metastore(ms).read_through(
            ms,
            &self.db,
            |c, ver| cached_chain_by_id(c, ms, ver, id),
            |rt| load_chain_by_id(rt, ms, id),
        )
    }

    /// [`Self::chain_by_id`] of the asset covering a storage path (§4.3.1
    /// path-based access): the cached path index is probed for the path
    /// and each of its ancestors; a miss resolves it in the database.
    pub(crate) fn chain_by_path(&self, ms: &Uid, path: &StoragePath) -> UcResult<Chain> {
        self.cache.for_metastore(ms).read_through(
            ms,
            &self.db,
            |c, ver| {
                let mut candidate = Some(path.clone());
                while let Some(p) = candidate {
                    let id = c.id_by_path(&keys::path_key(ms, &p.to_string()));
                    if let Some(hit @ (Some(_), _)) = id.and_then(|id| cached_chain_by_id(c, ms, ver, &id)) {
                        return Some(hit);
                    }
                    candidate = p.parent();
                }
                None
            },
            |rt| match crate::model::paths::resolve_path(rt, ms, path) {
                Some((id, _registered)) => load_chain_by_id(rt, ms, &id),
                None => Ok((None, Vec::new())),
            },
        )
    }

    // ------------------------------------------------------------------
    // Write protocol
    // ------------------------------------------------------------------

    /// Run a logical write against a metastore: serializable transaction,
    /// metastore-version bump, write-through cache update, event
    /// publication. The closure may run multiple times on conflict.
    pub(crate) fn write_ms<T>(
        &self,
        ms: &Uid,
        mut f: impl FnMut(&mut WriteTxn, u64, &mut WriteEffects) -> UcResult<T>,
    ) -> UcResult<T> {
        let cache = self.cache.for_metastore(ms);
        let mut attempts = 0;
        loop {
            // Interleaving-exploration yields bracket the attempt: before
            // the snapshot is taken, before the commit, and (below) after
            // the commit but before the cache apply. All are placed outside
            // the cache's gate and the DB commit lock so a parked client
            // never wedges the running one. No-ops outside scheduled runs.
            sched::yield_point(sched::points::WRITE_BEGIN);
            let mut tx = self.db.begin_write();
            let cur: u64 = tx
                .get(T_MSVER, ms.as_str())
                .and_then(|b| String::from_utf8(b.to_vec()).ok())
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            let mut fx = WriteEffects::default();
            let out = match f(&mut tx, cur, &mut fx) {
                Ok(out) => out,
                Err(e) => {
                    // The closure decided at metastore version `cur`; the
                    // history checker verifies the error against the model
                    // state at exactly that version.
                    uc_obs::span_event("history.abort", &format!("version={cur}"));
                    return Err(e);
                }
            };
            tx.put(T_MSVER, ms.as_str(), Bytes::from((cur + 1).to_string()));
            sched::yield_point(sched::points::WRITE_PRECOMMIT);
            match tx.commit() {
                Ok(csn) => {
                    uc_obs::span_event(
                        "history.commit",
                        &format!("version={} csn={csn}", cur + 1),
                    );
                    sched::yield_point(sched::points::WRITE_POSTCOMMIT);
                    // CATALOG_CACHE_SKIP models a node crashing between the
                    // database commit and its write-through cache update:
                    // the commit is durable but this node's cache lags until
                    // a later read or reconcile observes db_ver > version.
                    if !self.config.faults.should_inject(points::CATALOG_CACHE_SKIP) {
                        cache.apply_write(ms, &self.db, cur, csn, &fx);
                    }
                    let now = self.now_ms();
                    for (id, kind, name, op) in fx.events {
                        self.events.publish(MetadataChangeEvent {
                            seq: 0,
                            metastore: ms.clone(),
                            entity_id: id,
                            kind,
                            name,
                            op,
                            at_version: cur + 1,
                            timestamp_ms: now,
                        });
                    }
                    return Ok(out);
                }
                Err(err @ (TxError::Conflict { .. } | TxError::Unavailable { .. })) => {
                    self.stats.write_retries.fetch_add(1, Ordering::Relaxed);
                    attempts += 1;
                    if attempts > 64 {
                        return Err(UcError::Database(format!(
                            "write aborted after {attempts} transient failures (last: {err})"
                        )));
                    }
                    // Bounded exponential backoff before retrying, driven by
                    // the virtual clock: on a manual clock we advance time
                    // instead of sleeping, so chaos tests stay instant and
                    // deterministic; on a system clock the in-process retry
                    // is immediate (the injected DB latency already paces it).
                    let backoff_ms = 1u64 << attempts.min(6);
                    let cause = match &err {
                        TxError::Conflict { .. } => "conflict",
                        _ => "unavailable",
                    };
                    uc_obs::span_event(
                        "write.retry",
                        &format!("attempt={attempts} cause={cause} backoff_ms={backoff_ms}"),
                    );
                    self.stats.write_backoff_ms.fetch_add(backoff_ms, Ordering::Relaxed);
                    if self.clock.is_manual() {
                        self.clock.advance_ms(backoff_ms);
                    }
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The one create: an asset type is its manifest plus a `fill`. `parent`
    /// is the container's resolved chain (`[parent, …, metastore]`, the one
    /// the caller authorized against), `what` the name errors quote.
    /// Refusals, in order: `InvalidArgument` for a malformed `leaf`, wherever
    /// it came from (a `FullName::of`, a foreign catalog); then inside one
    /// transaction `NotFound` when the parent is not live at this snapshot
    /// — else the create would commit an unreachable tree row, and a path
    /// registration, under a dropped container (not read when the parent is
    /// the metastore itself); `AlreadyExists` for a taken tree key — the
    /// parent's key, as its pointer holds it now, plus the leaf's segment;
    /// whatever `fill` refuses while it sets the kind's properties (it may
    /// read and register through `tx`: placement, the location overlap
    /// scan); the manifest's `validate`. Authorization, pre-flight and the
    /// `Allow` audit are the entry function's own.
    pub(crate) fn create_entity(
        &self,
        ctx: &Context,
        kind: SecurableKind,
        parent: &[Arc<Entity>],
        leaf: &str,
        what: impl std::fmt::Display,
        fill: impl Fn(&mut WriteTxn, &mut Entity) -> UcResult<()>,
    ) -> UcResult<Arc<Entity>> {
        crate::types::validate_object_name(leaf)?;
        let container = &parent[0];
        let ms = &container.metastore;
        // Catalogs carry no parent id; everything else names its container.
        let parent_id = (kind != SecurableKind::Catalog).then(|| container.id.clone());
        let now = self.now_ms();
        self.write_ms(ms, |tx, _ver, fx| {
            let mut tk = match container.kind {
                SecurableKind::Metastore => keys::tree_ms_prefix(ms),
                _ => live_key(tx, ms, &container.id, &what)?,
            };
            keys::tree_push_child(&mut tk, kind.name_group(), leaf);
            if tx.get(T_TREE, &tk).is_some() {
                return Err(UcError::AlreadyExists(what.to_string()));
            }
            let mut ent = Entity::new(kind, leaf, parent_id.clone(), ms.clone(), &ctx.principal, now);
            fill(tx, &mut ent)?;
            (manifest(kind).validate)(&ent)?;
            Ok(fx.create_at(tx, ent, tk))
        })
    }

    // ------------------------------------------------------------------
    // Name resolution and authorization assembly
    // ------------------------------------------------------------------

    /// The full chain `[leaf, …, metastore]` of a securable addressed by
    /// qualified name. `leaf_group` selects the namespace group of the
    /// final part. A one-part name with a non-catalog group resolves a
    /// metastore-level securable (share, connection, external location,
    /// storage credential). Four-part names address model versions
    /// (`catalog.schema.model.vN`). The leaf's tree key is computable from
    /// the name alone, without touching the database; the rest is
    /// [`Self::chain_at_key`].
    pub(crate) fn chain_by_name(
        &self,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
    ) -> UcResult<Vec<Arc<Entity>>> {
        let malformed = || UcError::InvalidArgument(format!("malformed name {name}"));
        let mut key = keys::tree_ms_prefix(ms);
        if name.len() == 1 && leaf_group != "catalog" {
            keys::tree_push_child(&mut key, leaf_group, name.catalog());
        } else {
            keys::tree_push_child(&mut key, "catalog", name.catalog());
            if name.len() >= 2 {
                keys::tree_push_child(&mut key, "schema", name.schema().ok_or_else(malformed)?);
            }
            if name.len() >= 3 {
                // For four-part names the third segment is always the
                // registered model; `leaf_group` applies to the final one.
                let third_group = if name.len() == 4 {
                    SecurableKind::RegisteredModel.name_group()
                } else {
                    leaf_group
                };
                keys::tree_push_child(&mut key, third_group, name.asset().ok_or_else(malformed)?);
            }
            if name.len() == 4 {
                keys::tree_push_child(&mut key, SecurableKind::ModelVersion.name_group(), name.parts[3].as_str());
            }
        }
        self.chain_at_key(ms, &key)?.ok_or_else(|| UcError::NotFound(name.to_string()))
    }

    /// Force the node to revalidate a metastore's cache against the
    /// database. Pure cache hits serve the node's last-known metastore
    /// version; under (rare, best-effort) multi-node ownership another
    /// node's writes are only observed when a database read occurs. An
    /// event-driven keeper — or a test — calls this to bound staleness
    /// explicitly.
    pub fn reconcile_metastore(&self, ms: &Uid) {
        let _span = self.config.obs.span("catalog", "reconcile_metastore");
        // A dropped reconciliation pass (keeper lagging, event lost). The
        // next pass — or any read that observes a newer db version — will
        // catch the cache up; chaos tests assert exactly that.
        if self.config.faults.should_inject(points::CATALOG_RECONCILE_SKIP) {
            return;
        }
        self.cache.for_metastore(ms).catch_up(ms, &self.db);
    }

    /// The one-element chain of a metastore-level decision.
    pub(crate) fn metastore_chain(&self, ms: &Uid) -> UcResult<Vec<Arc<Entity>>> {
        self.chain_at_key(ms, &keys::tree_ms_prefix(ms))?
            .ok_or_else(|| UcError::NotFound(format!("metastore {ms}")))
    }

    /// The caller's authorization context within a metastore, for the
    /// batch filters that hold no chain yet.
    pub(crate) fn authz_context(&self, ms: &Uid, principal: &str) -> UcResult<AuthzContext> {
        self.authz_context_with(&self.metastore_chain(ms)?, principal)
    }

    /// The caller's authorization context, from a full chain's own
    /// metastore entity (its last element). Built once per request.
    pub(crate) fn authz_context_with(
        &self,
        chain: &[Arc<Entity>],
        principal: &str,
    ) -> UcResult<AuthzContext> {
        let ms_ent = chain.last().ok_or_else(|| UcError::Database("empty securable chain".into()))?;
        let record = self.principal_record(principal)?;
        let groups: std::collections::HashSet<String> = record.groups.into_iter().collect();
        // Short-circuit the owner check before parsing the admin list out
        // of the metastore entity's properties.
        let is_admin = ms_ent.owner == principal
            || ms_ent
                .metastore_admins()
                .iter()
                .any(|a| a == principal || groups.contains(a));
        Ok(AuthzContext {
            principal: principal.to_string(),
            groups,
            is_metastore_admin: is_admin,
        })
    }

    /// Fetch (with TTL caching) a principal's record.
    pub(crate) fn principal_record(&self, principal: &str) -> UcResult<PrincipalRecord> {
        if let Some(rec) = self.principal_cache.get(principal) {
            return Ok(rec);
        }
        let rt = self.db.begin_read();
        let rec = match rt.get(T_PRINCIPAL, principal) {
            Some(raw) => PrincipalRecord::decode(&raw)?,
            None => PrincipalRecord::default(),
        };
        self.principal_cache.put(principal.to_string(), rec.clone());
        Ok(rec)
    }

    /// A principal's group memberships — engines use this to build the
    /// evaluation context for FGAC expressions referencing
    /// `is_account_group_member`.
    pub fn principal_groups(&self, name: &str) -> UcResult<Vec<String>> {
        Ok(self.principal_record(name)?.groups)
    }

    /// Register or update a principal and its group memberships. This is
    /// an account-level identity operation (outside metastore governance).
    pub fn upsert_principal(&self, name: &str, groups: &[&str]) -> UcResult<()> {
        let rec = PrincipalRecord { groups: groups.iter().map(|g| g.to_string()).collect() };
        let mut tx = self.db.begin_write();
        tx.put(T_PRINCIPAL, name, rec.encode());
        tx.commit()?;
        // Identity changes take effect within the TTL window; drop our own
        // cached copy immediately.
        self.principal_cache.clear();
        Ok(())
    }

    /// Enforce catalog→workspace bindings (§3.2): if any catalog in the
    /// chain is bound to specific workspaces, the request must originate
    /// from one of them.
    pub(crate) fn enforce_workspace_binding(
        &self,
        ctx: &Context,
        chain: &[Arc<Entity>],
    ) -> UcResult<()> {
        for node in chain.iter().filter(|e| e.kind == SecurableKind::Catalog) {
            let bindings = node.workspace_bindings();
            if bindings.is_empty() {
                continue;
            }
            let ok = ctx
                .workspace
                .as_ref()
                .is_some_and(|w| bindings.iter().any(|b| b == w));
            if !ok {
                return Err(UcError::PermissionDenied(format!(
                    "catalog {} is bound to workspaces {:?}; request came from {:?}",
                    node.name, bindings, ctx.workspace
                )));
            }
        }
        Ok(())
    }

    /// Locate the root credential for a bucket, consulting the in-memory
    /// mirror first and rebuilding it from storage-credential entities on
    /// miss.
    pub(crate) fn root_for_bucket(&self, ms: &Uid, bucket: &str) -> UcResult<RootCredential> {
        if let Some(root) = self.roots.read().get(bucket) {
            return Ok(root.clone());
        }
        // Rebuild from entities: scan storage credentials in this metastore.
        let rt = self.db.begin_read();
        for ent in tree_children(
            |p| rt.scan_prefix(T_TREE, p),
            &keys::tree_ms_prefix(ms),
            Some(SecurableKind::StorageCredential.name_group()),
        )? {
            let (Some(b), Some(secret)) = (
                ent.properties.get(crate::model::entity::props::BUCKET),
                ent.properties.get(crate::model::entity::props::ROOT_SECRET),
            ) else {
                continue;
            };
            if let Ok(secret) = secret.parse::<u64>() {
                let root = RootCredential { bucket: b.clone(), secret };
                self.roots.write().insert(b.clone(), root.clone());
            }
        }
        self.roots
            .read()
            .get(bucket)
            .cloned()
            .ok_or_else(|| UcError::Storage(format!("no storage credential for bucket {bucket}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The manifest's `validate` is a step of the one create, so a fill
    /// that forgets a required property cannot commit — for any kind, with
    /// no per-op call to remember.
    #[test]
    fn create_entity_validates_against_the_manifest_before_writing() {
        let uc = UnityCatalog::in_memory();
        let ms = uc.create_metastore("admin", "prod", "us-west-2").unwrap();
        let ctx = Context::user("admin");
        let top = uc.metastore_chain(&ms).unwrap();
        let rows = || {
            let rt = uc.db.begin_read();
            [T_TREE, T_ENTITY, T_MSVER].map(|t| rt.scan_prefix(t, ""))
        };
        let before = rows();
        let no_endpoint = uc.create_entity(&ctx, SecurableKind::Connection, &top, "conn", "conn", |_tx, _ent| Ok(()));
        assert!(matches!(no_endpoint, Err(UcError::InvalidArgument(_))), "{no_endpoint:?}");
        assert_eq!(rows(), before, "nothing written, no version consumed");
        let with_endpoint = uc.create_entity(&ctx, SecurableKind::Connection, &top, "conn", "conn", |_tx, ent| {
            ent.properties.insert(crate::model::entity::props::ENDPOINT.to_string(), "thrift://hms".to_string());
            Ok(())
        });
        assert_eq!(with_endpoint.unwrap().name, "conn");
    }
}
