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
//!   and commits `version + 1` — the feed row naming what it wrote and the
//!   change events it carries is part of that commit — then hands the
//!   effects to the cache's write-through; on top of it the one
//!   **create** ([`UnityCatalog::create_entity`]: name → live parent →
//!   vacant key → the kind's fill → manifest validation → upsert) and the
//!   one in-transaction by-id read ([`live_key`], then
//!   [`UnityCatalog::live_entity`]).
//!
//! Every `T_TREE` row either protocol reads is decoded through
//! [`MsCache::decoded`]: a row the node already holds, byte for byte, is
//! served as the cached entity instead of being parsed again.
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
use uc_obs::{Counter, CounterFamily, Histogram, HistogramFamily, Label, Obs, SpanGuard, WindowSeries};
use uc_txdb::{Db, ReadTxn, TxError, WriteTxn};

use crate::audit::{AuditDecision, AuditLog, Reason};
use crate::authz::fgac::FgacPolicies;
use crate::authz::decision::{can_see, decide, sees_node, AuthzContext, Need};
use crate::cache::ttl::TtlCache;
use crate::cache::{hash_of, CacheConfig, Installs, MsCache, NodeCache, TreeRow, WriteEffects};
use crate::error::{UcError, UcResult};
use crate::events::ChangeOp;
use crate::ids::Uid;
use crate::model::entity::{Entity, PrincipalRecord};
use crate::model::feed::{self, FeedEvent, T_FEED};
use crate::model::keys::{self, T_ENTITY, T_PATH, T_PRINCIPAL, T_TREE};
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
    /// Cache unexpired vended tokens and reuse them across requests.
    pub cred_cache_enabled: bool,
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
            cred_cache_enabled: true,
            sts_mint_cost: std::time::Duration::ZERO,
            faults: FaultPlan::disabled(),
            obs: Obs::disabled(),
        }
    }
}

/// Lifetime of vended temporary credentials (paper: tens of minutes).
pub const CRED_TTL_MS: u64 = 15 * 60 * 1000;

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

/// The direct children of the node at `parent_key`, optionally within one
/// name group, decoded from **one** range scan of the tree index. `scan`
/// runs the `T_TREE` prefix scan on whichever transaction the caller
/// holds, so the children reflect that transaction's single snapshot and
/// cost no per-child point read. The scan covers the whole subtree;
/// children proper are selected by segment depth before anything deeper
/// is decoded, and a child `cache` holds is not decoded at all.
pub(crate) fn tree_children(
    cache: &MsCache,
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
        .map(|(key, raw)| cache.decoded(key, raw))
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
        let raw = ent.encode();
        tx.put(T_TREE, &tk, raw.clone());
        let entity = Arc::new(ent);
        self.events.push(FeedEvent { id: entity.id.clone(), kind: entity.kind, name: entity.name.clone(), op });
        self.upserts.push(TreeRow { entity: entity.clone(), key: tk, raw });
        entity
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
#[derive(Debug)]
pub struct ServiceStats {
    pub api_calls: Counter,
    pub write_retries: Counter,
    /// Virtual milliseconds of backoff accumulated by the write protocol
    /// while riding out transient database failures.
    pub write_backoff_ms: Counter,
    /// STS mints — credential-cache misses — per requesting tenant.
    pub(crate) sts_mints_by_tenant: CounterFamily,
}

impl ServiceStats {
    fn wired(registry: &uc_obs::Registry) -> Self {
        ServiceStats {
            api_calls: registry.counter("catalog.api.calls"),
            write_retries: registry.counter("catalog.write.retries"),
            write_backoff_ms: registry.counter("catalog.write.backoff_ms"),
            sts_mints_by_tenant: registry.counter_family("catalog.sts.mint.count.by_tenant"),
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
    pub(crate) audit: AuditLog,
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
/// record what its op's row declares. The gate's bindings and
/// [`Audited::policies`] read the caller (`None`: no request identity).
#[derive(Clone, Copy)]
pub(crate) struct Audited<'a> {
    uc: &'a UnityCatalog,
    op: &'static Op,
    action: usize,
    principal: &'a str,
    caller: Option<&'a Context>,
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
        self.record(Some(securable), AuditDecision::Allow, detail);
    }

    /// Audit the `Allow`, or a `Deny` that is no `PermissionDenied` (that is
    /// [`Self::refuse`]): a hidden securable, a path no asset governs.
    pub(crate) fn record(&self, securable: Option<&Uid>, decision: AuditDecision, detail: impl std::fmt::Display) {
        let action = self.op.actions[self.action];
        self.uc.record_audit(action, detail, |log, now, detail, trace| {
            log.record(now, self.principal, action, securable, decision, detail, trace)
        });
    }

    /// The one `PermissionDenied`: a `Deny` under the request's action,
    /// and the error carrying the [`crate::audit::Refusal`] it hands back.
    pub(crate) fn refuse(
        &self,
        securable: Option<&Uid>,
        detail: impl std::fmt::Display,
        reason: Reason,
        message: String,
    ) -> UcError {
        let action = self.op.actions[self.action];
        UcError::PermissionDenied(self.uc.record_audit(action, detail, |log, now, detail, trace| {
            log.refuse(now, self.principal, action, securable, detail, trace, reason, message)
        }))
    }

    /// The one authorization gate: every audited allow / deny in the
    /// service is [`decide`] over the borrowed chain, then [`Self::bound`]
    /// on it, here. On refusal — and only then — the `Deny` is recorded
    /// under the request's action and the error built: `NotFound` for
    /// [`Need::See`] (existence, bindings included, is hidden from callers
    /// who may not see the object), a [`Reason::Privilege`] refusal naming
    /// the need and `chain[0]` otherwise. Callers audit their own
    /// [`Self::allow`] once the op has run. Returns the caller's context,
    /// built from the chain's metastore entity, for requests that decide
    /// again ([`Self::gate_with`], [`Self::policies`]).
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
            return self.bound(chain);
        }
        let target = &chain[0];
        if let Need::See = need {
            self.record(Some(&target.id), AuditDecision::Deny, &detail);
            return Err(UcError::NotFound(detail.to_string()));
        }
        let message = format!("{need} required on {} {}", target.kind, target.name);
        Err(self.refuse(Some(&target.id), detail, Reason::Privilege, message))
    }

    /// Catalog→workspace bindings (§3.2), the gate's second half: a
    /// catalog in `chain` bound to workspaces the request does not come
    /// from refuses, with one `Deny` under the request's action naming that
    /// catalog. Called alone only by `list_children`, on the parent it does
    /// not gate.
    pub(crate) fn bound(&self, chain: &[Arc<Entity>]) -> UcResult<()> {
        let Some(node) = self.foreign_catalog(chain) else { return Ok(()) };
        let bound_to = &node.governance().workspace_bindings;
        let from = self.caller.and_then(|c| c.workspace.as_ref());
        let why = format!("catalog {} is bound to workspaces {bound_to:?}; request came from {from:?}", node.name);
        Err(self.refuse(Some(&node.id), &why, Reason::WorkspaceBinding, why.clone()))
    }

    /// The first catalog in `chain` bound to workspaces other than the
    /// caller's. No binding binds `set_catalog_bindings`: a catalog's admin
    /// must be able to undo one from outside it (a request with no
    /// workspace does, in `workspace_bindings_gate_catalog_access`).
    fn foreign_catalog<'c>(&self, chain: &'c [Arc<Entity>]) -> Option<&'c Arc<Entity>> {
        chain.iter().find(|node| self.foreign(node))
    }

    /// [`Self::foreign_catalog`]'s rule for one node.
    fn foreign(&self, node: &Entity) -> bool {
        if node.kind != SecurableKind::Catalog || self.op.index == Op::SET_CATALOG_BINDINGS.index {
            return false;
        }
        let bindings = &node.governance().workspace_bindings;
        let workspace = self.caller.and_then(|c| c.workspace.as_ref());
        !bindings.is_empty() && !workspace.is_some_and(|w| bindings.contains(w))
    }

    /// The gate's answer without its audit — [`decide`] plus the bindings —
    /// for callers that keep a yes / no to themselves: `authorize_batch`
    /// (`Holds(P)`) and, through [`Self::visible`], every set filter.
    pub(crate) fn admits(&self, who: &AuthzContext, chain: &[Arc<Entity>], need: Need<'_>) -> bool {
        decide(chain, who, need) && self.foreign_catalog(chain).is_none()
    }

    /// May the caller see `chain[0]` from its workspace? The one predicate
    /// of listings, `lineage`, `query_entities` and `visible_batch`.
    pub(crate) fn visible(&self, who: &AuthzContext, chain: &[Arc<Entity>]) -> bool {
        self.admits(who, chain, Need::See)
    }

    /// [`Self::visible`] of `[child] + parent` for each child of the chain
    /// `parent`, split by node: the parent's owners, grants and bindings
    /// are decided here, once per listing; the predicate returned decides
    /// only each child's owner, grants and, for a catalog, bindings.
    pub(crate) fn visible_below<'s>(
        &'s self,
        who: &'s AuthzContext,
        parent: &[Arc<Entity>],
    ) -> impl Fn(&Entity) -> bool + 's {
        let open = self.foreign_catalog(parent).is_none();
        let seen = can_see(parent, who);
        move |child| open && (seen || sees_node(child, who)) && !self.foreign(child)
    }

    /// The data-policy rule (§4.3.2, §3.3) every path that releases data
    /// or a data credential applies to `chain[0]` once `who` passed the
    /// gate: a matching ABAC restriction on a container that exempts none
    /// of `who`'s groups refuses; else the asset's own row filter and
    /// masks plus the containers' ABAC-derived masks (a direct mask wins)
    /// bind the read, and only a trusted engine may be handed them.
    pub(crate) fn policies(&self, who: &AuthzContext, chain: &[Arc<Entity>]) -> UcResult<FgacPolicies> {
        let entity = &chain[0];
        let governed = entity.governance();
        let abac = || chain.iter().filter(|e| e.kind.is_container()).flat_map(|c| c.governance().abac.values());
        if let Some(p) = abac().find(|p| p.evaluate_restriction(&governed.tags, &who.groups) == Some(false)) {
            let message = format!("ABAC policy '{}' restricts access to {}", p.name, entity.name);
            return Err(self.refuse(Some(&entity.id), &entity.name, Reason::AbacRestriction, message));
        }
        let mut fgac = governed.fgac.clone();
        for mask in abac().flat_map(|p| p.derive_masks(&governed.column_tags, &who.groups)) {
            if !fgac.column_masks.iter().any(|m| m.column == mask.column) {
                fgac.column_masks.push(mask);
            }
        }
        if !fgac.is_empty() && !self.caller.is_some_and(Context::is_trusted_engine) {
            let message = format!(
                "{} carries fine-grained policies; a trusted engine (or the data filtering service) is required",
                entity.name
            );
            return Err(self.refuse(Some(&entity.id), &entity.name, Reason::NeedsTrustedEngine, message));
        }
        Ok(fgac)
    }

    /// The chain of the securable `name` addresses, if the caller may see
    /// it from the workspace it calls from: resolved by name, then
    /// [`Self::gate`]d on [`Need::See`] — a refusal is this request's own.
    /// Returns the caller's context with it.
    pub(crate) fn see(
        &self,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
    ) -> UcResult<(Vec<Arc<Entity>>, AuthzContext)> {
        let full = self.uc.chain_by_name(ms, name, leaf_group)?;
        let who = self.gate(&full, Need::See, name)?;
        Ok((full, who))
    }
}

/// RAII guard returned by `api_enter`: the request's [`Audited`] face, its
/// span, the deferred latency recording (op, per-tenant, window) and the
/// thread-local tenant scope that lets deeper layers (txdb commit, STS
/// mint) attribute their series to this request's tenant.
pub(crate) struct ApiGuard<'a> {
    pub(crate) audit: Audited<'a>,
    instruments: &'a ApiInstruments,
    start_ms: u64,
    label: Label,
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
        self.instruments.latency.record(elapsed);
        self.instruments.window.record(now, elapsed);
        self.instruments.labeled_latency.record(&self.label, elapsed);
    }
}

thread_local! {
    /// Per-thread (metastore, principal) → rendered label memo so repeat
    /// requests from the same tenant build no strings and take no locks.
    /// Bounded FIFO; eviction only matters for threads that serve many
    /// distinct tenants, which is exactly the cold case.
    static TENANT_MEMO: std::cell::RefCell<Vec<(Uid, String, Label)>> =
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

thread_local! {
    /// Per-thread memo of cached chains by leaf tree key, in front of
    /// [`cached_chain`]: a repeat read of a chain on this thread takes no
    /// shard lock, bumps no LRU tick and clones no id, so two threads
    /// reading the same warm chains write no memory the other reads.
    /// Direct-mapped, [`CHAIN_MEMO_SLOTS`] slots, allocated on first use.
    static CHAIN_MEMO: std::cell::RefCell<Vec<MemoSlot>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Slots in [`CHAIN_MEMO`] per thread (a power of two). A slot is 72
/// bytes plus its key and chain vector, ~200 bytes in all for a table's
/// chain, so ~400 KiB per thread that reads; a memoized chain also keeps
/// alive entities the shared cache has since evicted.
const CHAIN_MEMO_SLOTS: usize = 2048;

/// One [`CHAIN_MEMO`] entry: the chain [`cached_chain`] returned for
/// `key` in cache `cache` at pin `pin`, and the hits it counted. Valid
/// only while that cache's pin is still `pin`: every write, reconcile and
/// catch-up advances the pin before anything it changed is visible, and
/// an eviction changes what the cache holds, never what a chain at a pin
/// is.
///
/// A slot is armed by the first probe hit of its key at a pin and filled
/// by the second: a key read once per pin — a cold read, or a read between
/// two writes — costs a key copy, and its chain is not kept alive here.
#[derive(Default)]
struct MemoSlot {
    /// [`MsCache::id`] of the cache probed; 0 for an empty slot.
    cache: u64,
    pin: u64,
    key: String,
    /// `None` while the slot is only armed.
    chain: Option<Chain>,
    served: u64,
}

/// The [`CHAIN_MEMO`] slot of a leaf key: the bits the cache's shard maps
/// select by.
fn memo_slot(key: &str) -> usize {
    hash_of(key) & (CHAIN_MEMO_SLOTS - 1)
}

/// [`cached_chain`] behind this thread's [`CHAIN_MEMO`]: the memoized
/// chain when its slot holds `leaf_key` from this cache at pin `ver`;
/// otherwise the probe, whose hit arms the slot, or fills it if it was
/// armed for this key at this pin, when the pin is still `ver`. A miss
/// fills nothing: only what the cache served at a pin is memoized at that
/// pin, never a database load.
fn memo_chain(c: &MsCache, ver: u64, leaf_key: &str) -> Option<(Chain, u64)> {
    let slot = memo_slot(leaf_key);
    if let Some(memoized) = memoized(c, ver, leaf_key, slot) {
        return Some(memoized);
    }
    let (chain, served) = cached_chain(c, ver, leaf_key)?;
    if c.version() == ver {
        CHAIN_MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            if memo.is_empty() {
                memo.resize_with(CHAIN_MEMO_SLOTS, MemoSlot::default);
            }
            let e = &mut memo[slot];
            if e.cache == c.id() && e.pin == ver && e.key == leaf_key {
                e.chain = Some(chain.clone());
                e.served = served;
            } else {
                e.cache = c.id();
                e.pin = ver;
                e.key.clear();
                e.key.push_str(leaf_key);
                e.chain = None;
            }
        });
    }
    Some((chain, served))
}

/// The chain [`CHAIN_MEMO`]'s slot `slot` holds for `leaf_key` in cache
/// `c` at pin `ver`, if it holds one.
fn memoized(c: &MsCache, ver: u64, leaf_key: &str, slot: usize) -> Option<(Chain, u64)> {
    CHAIN_MEMO.with(|memo| {
        let memo = memo.borrow();
        let e = memo.get(slot)?;
        let chain = e.chain.as_ref().filter(|_| e.cache == c.id() && e.pin == ver && e.key == leaf_key)?;
        Some((chain.clone(), e.served))
    })
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
/// shortest key first, and each is installed under its own key. A level
/// the cache holds byte for byte — on a cold leaf, its containers — is
/// the cached entity, not a second decode.
fn load_chain(c: &MsCache, rt: &ReadTxn, ms: &Uid, leaf_key: &str) -> UcResult<(Chain, Installs)> {
    let rows = rt.scan_chain(T_TREE, leaf_key);
    if rows.first().is_none_or(|(k, _)| treekey::depth(k) != 1) {
        return Err(UcError::NotFound(format!("metastore {ms}")));
    }
    // One row per existing level, so a short chain means the key names
    // nothing (a soft delete removes the tree row: presence is liveness).
    if rows.len() != treekey::depth(leaf_key) {
        return Ok((None, Vec::new()));
    }
    let chain: Vec<Arc<Entity>> =
        rows.iter().rev().map(|(key, raw)| c.decoded(key, raw)).collect::<UcResult<_>>()?;
    // A disabled cache installs nothing, so it is handed no rows.
    let installs = if c.enabled() {
        let entities = chain.iter().rev().cloned();
        rows.into_iter().zip(entities).map(|((key, raw), entity)| TreeRow { entity, key, raw }).collect()
    } else {
        Vec::new()
    };
    Ok((Some(chain), installs))
}

/// [`load_chain`] at the key `id`'s pointer holds, in the same snapshot.
fn load_chain_by_id(c: &MsCache, rt: &ReadTxn, ms: &Uid, id: &Uid) -> UcResult<(Chain, Installs)> {
    match pointed_key(rt.get(T_ENTITY, &keys::ent_key(ms, id))) {
        Some(key) => load_chain(c, rt, ms, &key),
        None => Ok((None, Vec::new())),
    }
}

/// The label used when a request carries no metastore or no principal.
pub(crate) const NO_TENANT: &str = "-";

/// Audit log retention (records).
const AUDIT_CAPACITY: usize = 100_000;

impl UnityCatalog {
    pub fn new(db: Db, store: ObjectStore, config: UcConfig, node_id: &str) -> Arc<Self> {
        let clock = store.sts().clock().clone();
        Arc::new(UnityCatalog {
            node_id: node_id.to_string(),
            db,
            cache: NodeCache::wired(config.cache.clone(), config.obs.registry()),
            api_instruments: std::array::from_fn(|_| std::sync::OnceLock::new()),
            cred_cache: TtlCache::new(clock.clone(), CRED_TTL_MS),
            principal_cache: TtlCache::new(clock.clone(), 60_000),
            tenant_aliases: RwLock::new(std::collections::HashMap::new()),
            audit: AuditLog::new(AUDIT_CAPACITY),
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
    /// through it. `caller` and `ms` attribute the call to a tenant; the
    /// few ops with no request identity pass `None`.
    pub(crate) fn api_enter<'a>(
        &'a self,
        op: &'static Op,
        caller: Option<&'a Context>,
        ms: Option<&Uid>,
    ) -> ApiGuard<'a> {
        self.stats.api_calls.fetch_add(1, Ordering::Relaxed);
        let make = || self.make_api_instruments(op.name);
        let instruments = self.api_instruments[op.index].get_or_init(make);
        instruments.count.inc();
        self.config.api_latency.apply(OpClass::Control);
        // Zero-allocation on the repeat path: the label is a memoized
        // Label, the labeled counter probe is a thread-local hash hit.
        // The window recording (on drop) is four relaxed atomic adds to
        // the current slot, which every thread shares: it is not striped.
        let principal = caller.map_or(NO_TENANT, |c| c.principal.as_str());
        let label = self.tenant_label(ms, principal);
        instruments.labeled_count.inc(&label);
        let start_ms = self.config.obs.clock_ms();
        let scope = uc_obs::tenant_scope(label.clone());
        let span = self.config.obs.span("catalog", op.name);
        let audit = Audited { uc: self, op, action: 0, principal, caller };
        ApiGuard { audit, instruments, start_ms, label, _scope: scope, _span: span }
    }

    /// Record the human-readable alias rendered into this metastore's
    /// metric labels. `create_metastore` registers the metastore's name;
    /// a host names a metastore another node created here, before it
    /// serves requests (a thread that already rendered a label keeps it).
    pub fn register_tenant_alias(&self, ms: &Uid, name: &str) {
        self.tenant_aliases.write().insert(ms.clone(), Arc::from(name));
    }

    /// The [`Label::tenant`] of a request, memoized per thread so the
    /// repeat path allocates nothing and takes no lock. The serving plane
    /// labels its own series with it.
    pub fn tenant_label(&self, ms: Option<&Uid>, principal: &str) -> Label {
        let Some(ms) = ms else {
            // No metastore (node-level ops): rare enough to build fresh.
            return Label::tenant(NO_TENANT, principal);
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
            let aliases = self.tenant_aliases.read();
            aliases.get(ms).cloned()
        };
        let label = match alias {
            Some(alias) => Label::tenant(&alias, principal),
            // Unknown metastore (created by another node of the fleet):
            // deterministic uid-derived stub. This never appears in the
            // byte-diffed telemetry gates, which always create their
            // metastores through this node.
            None => Label::tenant(&format!("ms-{}", &ms.as_str()[..8.min(ms.as_str().len())]), principal),
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
    /// pin every cached read validates against.
    pub fn metastore_cache_version(&self, ms: &Uid) -> u64 {
        self.cache.for_metastore(ms).version()
    }

    /// Audit a request the serving plane shed under admission control.
    /// Shedding is a governance decision like any deny: it must land in
    /// the audit trail (under [`Op::SERVE_ADMIT`]'s action), never be a
    /// silent drop.
    pub fn audit_shed(&self, principal: &str, detail: impl std::fmt::Display) {
        let action = Op::SERVE_ADMIT.actions[0];
        self.record_audit(action, detail, |log, now, detail, trace| {
            log.record(now, principal, action, None, AuditDecision::Deny, detail, trace)
        });
    }

    /// The audit sink for [`Audited`] and the shed: mirror into the flight
    /// recorder, then `append` to the log (`record`, or `refuse`).
    fn record_audit<T>(
        &self,
        action: Action,
        detail: impl std::fmt::Display,
        append: impl FnOnce(&AuditLog, u64, String, Option<u64>) -> T,
    ) -> T {
        let detail = detail.to_string();
        let trace_id = uc_obs::current_trace_id();
        // Mirror the record into the flight recorder first, holding no
        // lock: its lane is a leaf. No-op when tracing is disabled.
        self.config.obs.flight().note_audit(self.now_ms(), trace_id.unwrap_or(0), action.as_str(), &detail);
        append(&self.audit, self.now_ms(), detail, trace_id)
    }

    // ------------------------------------------------------------------
    // Cached reads: probe / load pairs over `MsCache::read_through`
    // ------------------------------------------------------------------

    /// The chain `[leaf, …, metastore]` of the entity whose row sits at
    /// `leaf_key`: the one cached read every lookup ends in. The probe
    /// finds every level in the cache under one version pin, or the
    /// thread's memo of that probe at that pin ([`memo_chain`]); the load is
    /// one `scan_chain` — the row at each terminator-prefix of the key, at
    /// one snapshot — so a chain is never assembled level by level and a
    /// cascade landing mid-request cannot leave it dangling.
    pub(crate) fn chain_at_key(&self, ms: &Uid, leaf_key: &str) -> UcResult<Chain> {
        self.cache.for_metastore(ms).read_through(
            ms,
            &self.db,
            |c, ver| memo_chain(c, ver, leaf_key),
            |c, rt| load_chain(c, rt, ms, leaf_key),
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
            |c, rt| load_chain_by_id(c, rt, ms, id),
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
            |c, rt| match crate::model::paths::resolve_path(rt, ms, path) {
                Some((id, _registered)) => load_chain_by_id(c, rt, ms, &id),
                None => Ok((None, Vec::new())),
            },
        )
    }

    // ------------------------------------------------------------------
    // Write protocol
    // ------------------------------------------------------------------

    /// The one in-transaction read of an entity by id: [`live_key`], then
    /// the row at that key — a copy of the cached entity when the node
    /// holds that row, else its decode. Returns the key too — an update
    /// puts the row back where it was read.
    pub(crate) fn live_entity(
        &self,
        tx: &mut WriteTxn,
        ms: &Uid,
        id: &Uid,
        what: impl std::fmt::Display,
    ) -> UcResult<(Entity, String)> {
        let key = live_key(tx, ms, id, what)?;
        let raw = tx
            .get(T_TREE, &key)
            .ok_or_else(|| UcError::Database(format!("pointer of {id} names no tree row")))?;
        let ent = self.cache.for_metastore(ms).decoded(&key, &raw)?;
        Ok((Arc::unwrap_or_clone(ent), key))
    }

    /// Run a logical write against a metastore: one serializable
    /// transaction that reads the metastore version (its feed's last row),
    /// runs `f`, and writes the next version's feed row — every `T_TREE` /
    /// `T_PATH` key the transaction wrote, and the events `f` announced —
    /// retiring the row the window lets go; then the write-through cache
    /// update. The closure may run multiple times on conflict.
    pub(crate) fn write_ms<T>(
        &self,
        ms: &Uid,
        mut f: impl FnMut(&mut WriteTxn, u64, &mut WriteEffects) -> UcResult<T>,
    ) -> UcResult<T> {
        let cache = self.cache.for_metastore(ms);
        // The version read is a seek over the metastore's feed range, so it
        // lands in the validated read set as a range: a concurrent writer's
        // next row conflicts, exactly as a shared version row would.
        let (head_start, head_end) = feed::head_range(ms);
        let mut attempts = 0;
        loop {
            // Interleaving-exploration yields bracket the attempt: before
            // the snapshot is taken, before the commit, and (below) after
            // the commit but before the cache apply. All are placed outside
            // the cache's gate and the DB commit lock so a parked client
            // never wedges the running one. No-ops outside scheduled runs.
            sched::yield_point(sched::points::WRITE_BEGIN);
            let mut tx = self.db.begin_write();
            let cur = tx.pred_in_range(T_FEED, &head_start, &head_end).map_or(0, |(key, _)| feed::version_of(&key));
            let mut fx = WriteEffects::default();
            let out = match f(&mut tx, cur, &mut fx) {
                Ok(out) => out,
                Err(e) => {
                    // The closure decided at metastore version `cur`; the
                    // history checker verifies the error against the model
                    // state at exactly that version.
                    uc_obs::span_event("history.abort", format_args!("version={cur}"));
                    return Err(e);
                }
            };
            let row = feed::encode(self.now_ms(), tx.written_keys(T_TREE), tx.written_keys(T_PATH), &fx.events);
            tx.put(T_FEED, &feed::key(ms, cur + 1), row);
            if cur >= feed::WINDOW {
                tx.delete(T_FEED, &feed::key(ms, cur + 1 - feed::WINDOW));
            }
            sched::yield_point(sched::points::WRITE_PRECOMMIT);
            match tx.commit() {
                Ok(csn) => {
                    uc_obs::span_event("history.commit", format_args!("version={} csn={csn}", cur + 1));
                    sched::yield_point(sched::points::WRITE_POSTCOMMIT);
                    // CATALOG_CACHE_SKIP models a node crashing between the
                    // database commit and its write-through cache update:
                    // the commit — feed row and events included — is
                    // durable but this node's cache lags until a later read
                    // or reconcile observes db_ver > version.
                    if !self.config.faults.should_inject(points::CATALOG_CACHE_SKIP) {
                        cache.apply_write(ms, &self.db, cur, &fx);
                    }
                    return Ok(out);
                }
                // Every commit error is transient: a conflict or an outage.
                Err(err) => {
                    self.stats.write_retries.fetch_add(1, Ordering::Relaxed);
                    attempts += 1;
                    if attempts > 64 {
                        return Err(UcError::Unavailable(format!(
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
                        format_args!("attempt={attempts} cause={cause} backoff_ms={backoff_ms}"),
                    );
                    self.stats.write_backoff_ms.fetch_add(backoff_ms, Ordering::Relaxed);
                    if self.clock.is_manual() {
                        self.clock.advance_ms(backoff_ms);
                    }
                    continue;
                }
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
        let is_admin = ms_ent.owner == principal
            || ms_ent.governance().admins.iter().any(|a| a == principal || groups.contains(a));
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

    /// Locate a metastore's root credential for a bucket (a metastore vends
    /// only with its own): its storage-credential entities, read at one
    /// snapshot, so a dropped credential stops vending on every node. Of
    /// two credentials for one bucket, the last by name wins.
    pub(crate) fn root_for_bucket(&self, ms: &Uid, bucket: &str) -> UcResult<RootCredential> {
        use crate::model::entity::props::{BUCKET, ROOT_SECRET};
        let rt = self.db.begin_read();
        let creds = tree_children(
            &self.cache.for_metastore(ms),
            |p| rt.scan_prefix(T_TREE, p),
            &keys::tree_ms_prefix(ms),
            Some(SecurableKind::StorageCredential.name_group()),
        )?;
        creds
            .iter()
            .rev()
            .filter(|ent| ent.properties.get(BUCKET).is_some_and(|b| b == bucket))
            .find_map(|ent| ent.properties.get(ROOT_SECRET)?.parse::<u64>().ok())
            .map(|secret| RootCredential { bucket: bucket.to_string(), secret })
            .ok_or_else(|| UcError::Storage(format!("no storage credential for bucket {bucket}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::Privilege;

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
            [T_TREE, T_ENTITY, T_FEED].map(|t| rt.scan_prefix(t, ""))
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

    /// A purge releases what the node holds for its victims — the entries
    /// their drops tombstoned and the credentials vended for them — and a
    /// victim read by id afterwards is still not found.
    #[test]
    fn purge_releases_the_victims_cache_entries_and_credentials() {
        use crate::service::crud::TableSpec;
        use uc_cloudstore::AccessLevel;
        use uc_delta::value::{DataType, Field, Schema};
        const N: usize = 12;
        let uc = UnityCatalog::in_memory();
        let ms = uc.create_metastore("admin", "prod", "us-west-2").unwrap();
        let ctx = Context::user("admin");
        let root = uc.store.create_bucket("lake");
        uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
        uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
        uc.create_catalog(&ctx, &ms, "main").unwrap();
        uc.create_schema(&ctx, &ms, "main", "s").unwrap();
        let cache = uc.cache.for_metastore(&ms);
        let held = || (uc.cred_cache.len(), cache.entry_count());
        let before = held();
        let mut victims = Vec::new();
        for i in 0..N {
            let name = FullName::parse(&format!("main.s.t{i}")).unwrap();
            let cols = Schema::new(vec![Field::new("x", DataType::Int)]);
            victims.push(uc.create_table(&ctx, &ms, TableSpec::managed(&name.to_string(), cols).unwrap()).unwrap().id.clone());
            for level in [AccessLevel::Read, AccessLevel::ReadWrite] {
                uc.temp_credentials(&ctx, &ms, &name, "relation", level).unwrap();
            }
            uc.drop_securable(&ctx, &ms, &name, "relation").unwrap();
        }
        assert_eq!(held(), (before.0 + 2 * N, before.1 + N), "two credentials and a tombstoned entry per table");
        assert_eq!(uc.purge_soft_deleted(&ms).unwrap().0, N);
        assert_eq!(held(), before, "the purge released all of them");
        for id in &victims {
            assert!(matches!(uc.get_entity_by_id(&ctx, &ms, id), Err(UcError::NotFound(_))));
        }
    }

    /// The metastore `ms`, created in `uc`'s database with `ms` as its id
    /// and `name` as its name: how two databases come to hold one
    /// metastore id (ids are otherwise drawn fresh).
    fn metastore_with_id(uc: &UnityCatalog, ms: &Uid, name: &str) {
        let mut ent = Entity::new(SecurableKind::Metastore, name, None, Uid::from(""), "admin", 0);
        ent.id = ms.clone();
        ent.governance_mut().admins.push("admin".to_string());
        uc.write_ms(ms, |tx, _ver, fx| {
            fx.create_at(tx, ent.clone(), keys::tree_ms_prefix(ms));
            Ok(())
        })
        .unwrap();
    }

    /// Nodes created and dropped in turn on one thread, each over its own
    /// database holding the same metastore id at the same version: the
    /// same key at the same pin, in a cache that may sit where the last
    /// one did. Each reads its own metastore: a load, a probe hit that arms
    /// the memo, one that fills it, then memo hits.
    #[test]
    fn nodes_created_and_dropped_in_turn_never_serve_each_others_memo() {
        let ms = Uid::from("ms-shared-id");
        let key = keys::tree_ms_prefix(&ms);
        for round in 0..16 {
            let uc = UnityCatalog::in_memory();
            let name = format!("round{round}");
            metastore_with_id(&uc, &ms, &name);
            let pin = uc.metastore_cache_version(&ms);
            for read in 0..4 {
                let chain = uc.chain_at_key(&ms, &key).unwrap().unwrap();
                assert_eq!(chain[0].name, name, "round {round}, read {read}");
            }
            let c = uc.cache.for_metastore(&ms);
            assert!(memoized(&c, pin, &key, memo_slot(&key)).is_some(), "round {round}: the last reads were memoized");
        }
    }

    /// Reads on one thread interleave with writes, renames, drops and
    /// reconciles on another, through a cache of a few entries (so reads
    /// evict), while a second node over the same database writes too (so
    /// the first reconciles, on a miss or by `catch_up`). Whenever the memo
    /// holds a chain at the current pin, a probe of the cache at that pin
    /// that finds every level finds the same chain.
    #[test]
    fn a_memoized_chain_is_the_probe_at_its_pin_under_concurrent_writes() {
        use crate::service::crud::TableSpec;
        use std::sync::atomic::{AtomicBool, AtomicU64};
        use uc_delta::value::{DataType, Field, Schema};
        const TABLES: usize = 6;
        let db = Db::in_memory();
        let store = ObjectStore::in_memory();
        let config = UcConfig { cache: CacheConfig { max_entries: 8, ..Default::default() }, ..Default::default() };
        let uc = UnityCatalog::new(db.clone(), store.clone(), config.clone(), "node-0");
        let other = UnityCatalog::new(db, store.clone(), config, "node-1");
        let ctx = Context::user("admin");
        let ms = uc.create_metastore("admin", "prod", "us-west-2").unwrap();
        let root = store.create_bucket("lake");
        uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
        uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
        uc.create_catalog(&ctx, &ms, "main").unwrap();
        uc.create_schema(&ctx, &ms, "main", "s").unwrap();
        let columns = || Schema::new(vec![Field::new("x", DataType::Int)]);
        for t in 0..TABLES {
            uc.create_table(&ctx, &ms, TableSpec::managed(&format!("main.s.t{t}"), columns()).unwrap()).unwrap();
        }
        let key_of = |schema: &str, t: usize| {
            let mut key = keys::tree_ms_prefix(&ms);
            keys::tree_push_child(&mut key, "catalog", "main");
            keys::tree_push_child(&mut key, "schema", schema);
            keys::tree_push_child(&mut key, "relation", &format!("t{t}"));
            key
        };
        let keys: Vec<String> = ["s", "s2"].iter().flat_map(|s| (0..TABLES).map(move |t| (*s, t))).map(|(s, t)| key_of(s, t)).collect();
        let done = AtomicBool::new(false);
        let compared = AtomicU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let name = |t: usize| FullName::parse(&format!("main.s.t{t}")).unwrap();
                for round in 0..600usize {
                    let t = round % TABLES;
                    let node = if round % 3 == 0 { &other } else { &uc };
                    match round % 8 {
                        // A rename moves every table's key, then back.
                        5 => {
                            let s = FullName::parse("main.s").unwrap();
                            node.rename_securable(&ctx, &ms, &s, "schema", "s2").unwrap();
                            let s2 = FullName::parse("main.s2").unwrap();
                            node.rename_securable(&ctx, &ms, &s2, "schema", "s").unwrap();
                        }
                        6 => {
                            node.drop_securable(&ctx, &ms, &name(t), "relation").unwrap();
                            node.create_table(&ctx, &ms, TableSpec::managed(&name(t).to_string(), columns()).unwrap()).unwrap();
                        }
                        7 => uc.reconcile_metastore(&ms),
                        _ => {
                            node.update_comment(&ctx, &ms, &name(t), "relation", &format!("c{round}")).unwrap();
                        }
                    }
                }
                done.store(true, Ordering::Release);
            });
            scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    // Each key thrice in a row: a probe hit arms its memo
                    // slot, the next fills it, the third is served from it.
                    for key in keys.iter().flat_map(|key| [key; 3]) {
                        let c = uc.cache.for_metastore(&ms);
                        let ver = c.version();
                        if let Some((memo, _)) = memoized(&c, ver, key, memo_slot(key)) {
                            if let Some((probe, _)) = cached_chain(&c, ver, key) {
                                assert_eq!(memo, probe, "{key} at pin {ver}");
                                compared.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        uc.chain_at_key(&ms, key).unwrap();
                    }
                }
            });
        });
        assert!(compared.load(Ordering::Relaxed) > 0, "the memo served some chain a probe could check");
    }

    /// A node of a random chain: its owner, its grants (grantee,
    /// privilege) and its workspace bindings, each an index into the
    /// tables of `split_visibility_is_the_chain_decision`.
    type NodeSpec = (usize, Vec<(usize, usize)>, usize);

    fn node_spec() -> impl proptest::Strategy<Value = NodeSpec> {
        (0..4usize, proptest::collection::vec((0..4usize, 0..4usize), 0..3), 0..4usize)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// A listing's split decision, [`Audited::visible_below`] of the
        /// parent then the child alone, is [`Audited::visible`] over
        /// `[child] + parent` for random chains: a catalog, schema or table
        /// child; owners and grants naming the caller, its groups or
        /// others; a metastore admin or not; bindings on every node (only a
        /// catalog's count) to the caller's workspace, another one, both or
        /// none; under the listing ops and the one op bindings do not bind.
        #[test]
        fn split_visibility_is_the_chain_decision(
            nodes in proptest::collection::vec(node_spec(), 4..5),
            caller in (0..4usize, 0..2usize, 0..3usize, 0..3usize),
            depth in 1..4usize,
        ) {
            const PRINCIPALS: [&str; 4] = ["alice", "bob", "analysts", "eng"];
            const PRIVILEGES: [Privilege; 4] = [Privilege::Select, Privilege::UseCatalog, Privilege::Manage, Privilege::All];
            const WORKSPACES: [&[&str]; 4] = [&[], &["ws-1"], &["ws-2"], &["ws-1", "ws-2"]];
            let uc = UnityCatalog::in_memory();
            let (groups, admin, workspace, op) = caller;
            let kinds = [SecurableKind::Table, SecurableKind::Schema, SecurableKind::Catalog, SecurableKind::Metastore];
            let chain: Vec<Arc<Entity>> = nodes
                .iter()
                .zip(kinds)
                .map(|((owner, grants, bound), kind)| {
                    let mut e = Entity::new(kind, "n", None, Uid::from("ms"), PRINCIPALS[*owner], 0);
                    for (grantee, privilege) in grants {
                        e.add_grant(PRINCIPALS[*grantee], PRIVILEGES[*privilege]);
                    }
                    e.governance_mut().workspace_bindings = WORKSPACES[*bound].iter().map(|w| w.to_string()).collect();
                    Arc::new(e)
                })
                .collect();
            let chain = &chain[3 - depth..];
            let who = AuthzContext {
                principal: "alice".into(),
                groups: ["analysts", "eng"]
                    .iter()
                    .enumerate()
                    .filter(|(bit, _)| groups & (1 << bit) != 0)
                    .map(|(_, g)| g.to_string())
                    .collect(),
                is_metastore_admin: admin == 1,
            };
            let mut ctx = Context::user("alice");
            ctx.workspace = [None, Some("ws-1"), Some("ws-2")][workspace].map(str::to_string);
            let op = [Op::LIST_CHILDREN, Op::LIST_CATALOGS, Op::SET_CATALOG_BINDINGS][op];
            let audit = Audited { uc: &uc, op, action: 0, principal: "alice", caller: Some(&ctx) };
            let split = audit.visible_below(&who, &chain[1..])(&chain[0]);
            proptest::prop_assert_eq!(split, audit.visible(&who, chain), "{:?} over {:?}", who, chain);
        }
    }
}
