//! The write-through, multi-version, per-metastore metadata cache (§4.5).
//!
//! Design, mirroring the paper:
//!
//! * Each node caches the metastores it serves. A metastore's cache pins
//!   the **metastore version** it is current as-of, plus the database CSN
//!   at which that version was observed.
//! * **Snapshot reads**: lookups serve the entry version that is newest at
//!   the cache's pinned version. In-flight batched reads pin a
//!   (version, CSN) pair and stay consistent even while writes land.
//! * **Write-through**: a successful write (which bumped the metastore
//!   version in the database, conditioned on the cached version) inserts
//!   the new entity versions immediately — the invariant "cached versions
//!   are the latest as of the version known to the node" is preserved.
//! * **Reconciliation**: when a database read observes a different
//!   metastore version than cached (another node wrote), the cache either
//!   evicts everything (naive) or consumes the database change log to
//!   invalidate exactly the touched entries (optimized) — both modes are
//!   implemented, and the ablation bench compares them.
//! * **Eviction**: unpopular assets are evicted LRU-batch-style when the
//!   per-metastore entry cap is exceeded; each entry keeps its newest
//!   `VERSION_WINDOW` versions for in-flight requests and drops older
//!   ones as new versions are pushed (the paper bounds this window by the
//!   API timeout).
//!
//! No consensus service: multiple nodes may own the same metastore; the
//! version-conditioned writes make that safe, merely costing reconciles.
//!
//! # The coherence protocol (DESIGN.md §4)
//!
//! The protocol lives here, once, as three operations on [`MsCache`]; the
//! service layer is their only caller and never sees the gate.
//!
//! * `MsCache::read_through` — the cached read every lookup shape (by
//!   id, by name, chain, by path) goes through. A `probe` serves a hit at the
//!   pinned version without any exclusive lock. On a miss, `load` reads
//!   the database at **one** snapshot and the routine compares that
//!   snapshot's metastore version with the pin under the gate: *older* →
//!   the snapshot is stale, retry (at most `STALE_ROUNDS` rounds, then
//!   serve a snapshot uninstalled); *newer* → reconcile to it, then
//!   install; *equal* → install.
//! * `MsCache::apply_write` — write-through after this node's commit:
//!   install the effects, then advance the pin, unless a later apply or
//!   reconcile already moved the pin past this write.
//! * `MsCache::catch_up` — revalidate against the database on demand.
//!
//! # Concurrency model (see DESIGN.md §7)
//!
//! The cache is **read-optimized**: the paper's workload is 98 % reads,
//! and Fig 10(b) sweeps 1→64 clients against the cached path, so a hit
//! must never take an exclusive lock. Concretely:
//!
//! * Entity entries, the name index, and the path index are partitioned
//!   into `RwLock` **shards** keyed by key hash — readers of different
//!   keys share, readers of the same shard share, and only mutation takes
//!   a shard writer.
//! * The `(version, csn)` pin is held in plain atomics guarded by a
//!   **seqlock**: readers load `(version, csn)` and validate the sequence
//!   word, retrying on a torn read instead of blocking.
//! * LRU accounting is an atomic tick: [`MsCache::get_at`] takes `&self`
//!   and bumps the entry's `last_access` with a relaxed store under the
//!   shard *read* lock.
//! * All **mutation** — install, tombstones, reconciles, eviction, pin
//!   advance — is private to this module and runs under the per-metastore
//!   gate, which only the three protocol operations take. Misses
//!   serialize on the gate; hits never touch it. Gate serialization is
//!   what lets the mutators take shard locks one at a time without
//!   deadlock or lost updates, and visibility (not a comment on each
//!   method) is what guarantees no caller mutates outside it.
//!
//! Mutators make entries visible in an order that preserves snapshot
//! reads without a global critical section: new entry versions are
//! installed *before* the pin advances (readers at the old pin cannot see
//! them), and invalidated entries are removed *before* the pin advances
//! (readers at the new pin cannot see stale data).

pub mod ttl;

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};
use uc_cloudstore::sched;
use uc_obs::Counter;
use uc_txdb::{ChangeRecord, Db, ReadTxn};

use crate::error::UcResult;
use crate::events::ChangeOp;
use crate::ids::Uid;
use crate::model::entity::Entity;
use crate::model::keys::{self, T_MSVER, T_PATH, T_TREE};
use crate::types::SecurableKind;

/// How many superseded versions of an entry to retain for in-flight reads.
const VERSION_WINDOW: usize = 4;

/// Miss rounds a cached read retries against a stale snapshot before it
/// serves one uninstalled.
const STALE_ROUNDS: usize = 8;

/// What a read's `load` found in the database, for the cache to install:
/// each entity with the `T_TREE` key its row sits at. Every load knows the
/// key (a by-id load reads the pointer to it first), so an entity is never
/// cached without its name mapping.
pub(crate) type Installs = Vec<(Arc<Entity>, String)>;

/// What a committed write did, for [`MsCache::apply_write`] to write
/// through and the service to publish (`service/` holds the `tx`-taking
/// helpers a write closure fills it with).
#[derive(Default)]
pub(crate) struct WriteEffects {
    /// Entities written or moved, each with the tree key it now sits at
    /// (installed as the cache's name mapping, replacing the entity's
    /// previous one).
    pub upserts: Vec<(Arc<Entity>, String)>,
    pub tombstones: Vec<Uid>,
    /// Tree keys a rename moved a descendant away from: whatever is cached
    /// under one is evicted, as another node's reconcile would — the moved
    /// rows are not installed, so a rename costs the cache nothing it did
    /// not already hold.
    pub moved_from: Vec<String>,
    pub events: Vec<(Uid, SecurableKind, String, ChangeOp)>,
}

/// Annotate the active request span with the metastore version a read
/// was served at. The uc-check history recorder consumes these
/// `history.read` events to reconstruct each operation's observed
/// snapshot window. One thread-local probe and no formatting when no
/// span is active, so the cached hit path stays cheap.
pub(crate) fn history_read_event(version: u64) {
    if uc_obs::current_span_id().is_some() {
        uc_obs::span_event("history.read", &format!("version={version}"));
    }
}

/// Cache tuning.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Master switch — disabled reproduces the "no caching" baseline of
    /// Fig 10(b).
    pub enabled: bool,
    /// Per-metastore entry cap before LRU batch eviction.
    pub max_entries: usize,
    /// Use change-log-driven selective invalidation instead of full evict.
    pub selective_reconcile: bool,
    /// Shards per index (entities / names / paths); rounded up to a power
    /// of two, minimum 1. One shard reproduces a single-lock cache (the
    /// concurrency ablation baseline).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: true,
            max_entries: 100_000,
            selective_reconcile: true,
            shards: 16,
        }
    }
}

impl CacheConfig {
    pub fn disabled() -> Self {
        CacheConfig { enabled: false, ..Default::default() }
    }
}

/// Counters for cache behaviour.
///
/// Fields are [`uc_obs::Counter`]s (API-compatible with `AtomicU64`), so
/// chaos tests keep their `fetch_add`/`load` call sites while the values
/// surface in the node's metrics registry under `cache.*` names when the
/// stats are [`CacheStats::wired`]. Cloning shares the cells — every
/// [`MsCache`] of a node records into the same counters.
#[derive(Debug, Default, Clone)]
pub struct CacheStats {
    pub hits: Counter,
    /// Logical lookups that had to read the database (counted once per
    /// lookup, not per retry — see `stale_retries`).
    pub misses: Counter,
    /// Miss-path iterations retried because the database snapshot was
    /// older than the cache's pinned version.
    pub stale_retries: Counter,
    pub full_reconciles: Counter,
    pub selective_reconciles: Counter,
    pub invalidations: Counter,
    pub evictions: Counter,
    /// Write-gate acquisitions that had to block (contention between
    /// misses/writes on one metastore).
    pub gate_waits: Counter,
    /// Seqlock validation failures on the version pin (a reader raced a
    /// pin advance and re-read).
    pub pin_retries: Counter,
}

impl CacheStats {
    /// Stats whose counters are registered in `registry` under `cache.*`.
    pub fn wired(registry: &uc_obs::Registry) -> Self {
        CacheStats {
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            stale_retries: registry.counter("cache.stale_retries"),
            full_reconciles: registry.counter("cache.reconcile.full"),
            selective_reconciles: registry.counter("cache.reconcile.selective"),
            invalidations: registry.counter("cache.invalidations"),
            evictions: registry.counter("cache.evictions"),
            gate_waits: registry.counter("cache.shard.gate_waits"),
            pin_retries: registry.counter("cache.shard.pin_retries"),
        }
    }

    pub fn hit_rate(&self) -> f64 {
        let h = self.hits.get() as f64;
        let m = self.misses.get() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// One cached entity's recent versions, newest last. `None` marks a
/// deletion at that version.
struct CachedEntry {
    versions: Vec<(u64, Option<Arc<Entity>>)>,
    /// Keys to clean from the secondary maps on eviction.
    path_key: Option<String>,
    /// Tree-encoded ancestor-chain key (DESIGN.md §11) — the entry's key
    /// in the name index, which maps it back to this entry for as long as
    /// the entry is live: a `T_TREE` change record alone finds the entry
    /// it invalidates.
    tree_key: String,
    /// Atomic so the hit path can bump recency under a shard *read* lock.
    last_access: AtomicU64,
}

/// FNV-1a, used for both shard selection and the shard maps themselves.
/// The cache is in-process and never hashes attacker-controlled keys at
/// scale, so a cheap non-keyed hash beats SipHash's per-byte cost on the
/// ~70-byte tree keys every cached name lookup hashes.
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = h;
    }
}

type FnvBuild = std::hash::BuildHasherDefault<Fnv1a>;

type EntityShard = RwLock<HashMap<Uid, CachedEntry, FnvBuild>>;
type IndexShard = RwLock<HashMap<String, Uid, FnvBuild>>;

/// Cache state for one metastore on one node: sharded maps plus a
/// seqlock-guarded `(version, csn)` pin. The public read accessors take
/// no exclusive lock; all mutation is private and reached only through
/// the protocol operations (module docs), which hold the gate.
pub struct MsCache {
    /// Seqlock word for the pin: even = stable, odd = update in progress.
    pin_seq: AtomicU64,
    /// Metastore version this cache is current as-of.
    pin_version: AtomicU64,
    /// Database CSN at which `pin_version` was observed.
    pin_csn: AtomicU64,
    entity_shards: Box<[EntityShard]>,
    name_shards: Box<[IndexShard]>,
    path_shards: Box<[IndexShard]>,
    /// Bitmask selecting a shard from a key hash (shard count is a power
    /// of two).
    shard_mask: usize,
    /// Global access tick; unique per touch, so LRU order is total.
    tick: AtomicU64,
    /// Live entry count across entity shards (maintained by mutators).
    len: AtomicUsize,
    config: CacheConfig,
    /// Serializes all mutation on this metastore's cache.
    gate: Mutex<()>,
    stats: CacheStats,
}

/// Shard index bits for a key. Takes the hash's *upper* half: the shard
/// maps hash with the same (unkeyed) FNV, and hashbrown buckets by the
/// hash's low bits — selecting shards by those same low bits would leave
/// every key within a shard sharing them, collapsing small maps into a
/// single bucket.
fn hash_of<K: Hash + ?Sized>(key: &K) -> usize {
    let mut h = Fnv1a::default();
    key.hash(&mut h);
    (h.finish() >> 32) as usize
}

/// Remove `key → id` from an index shard. A key freed by a drop or a move
/// may since name another entity (the name was re-created while the old
/// entry aged in the LRU); that entity's mapping is not this one's to
/// remove.
fn unmap(shard: &IndexShard, key: &str, id: &Uid) {
    let mut map = shard.write();
    if map.get(key) == Some(id) {
        map.remove(key);
    }
}

impl MsCache {
    fn new(config: &CacheConfig, stats: CacheStats) -> Self {
        let n = config.shards.max(1).next_power_of_two();
        MsCache {
            pin_seq: AtomicU64::new(0),
            pin_version: AtomicU64::new(0),
            pin_csn: AtomicU64::new(0),
            entity_shards: (0..n).map(|_| RwLock::new(HashMap::default())).collect(),
            name_shards: (0..n).map(|_| RwLock::new(HashMap::default())).collect(),
            path_shards: (0..n).map(|_| RwLock::new(HashMap::default())).collect(),
            shard_mask: n - 1,
            tick: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            config: config.clone(),
            gate: Mutex::new(()),
            stats,
        }
    }

    /// Acquire the per-metastore mutation gate; the uncontended path is
    /// one `try_lock`.
    fn write_gate(&self) -> MutexGuard<'_, ()> {
        if let Some(g) = self.gate.try_lock() {
            return g;
        }
        self.stats.gate_waits.fetch_add(1, Ordering::Relaxed);
        self.gate.lock()
    }

    /// Consistent `(version, csn)` pin via seqlock validation: lock-free,
    /// retries only while a writer is mid-update.
    pub fn pin(&self) -> (u64, u64) {
        loop {
            let s1 = self.pin_seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let v = self.pin_version.load(Ordering::Acquire);
                let c = self.pin_csn.load(Ordering::Acquire);
                if self.pin_seq.load(Ordering::Acquire) == s1 {
                    return (v, c);
                }
            }
            self.stats.pin_retries.fetch_add(1, Ordering::Relaxed);
            std::hint::spin_loop();
        }
    }

    /// Metastore version this cache is current as-of.
    pub fn version(&self) -> u64 {
        self.pin().0
    }

    /// Database CSN at which [`MsCache::version`] was observed.
    pub fn csn(&self) -> u64 {
        self.pin().1
    }

    /// Advance the pin (under the gate, so there is exactly one seqlock
    /// writer at a time).
    fn set_pin(&self, version: u64, csn: u64) {
        self.pin_seq.fetch_add(1, Ordering::AcqRel); // odd: update begins
        self.pin_version.store(version, Ordering::Release);
        self.pin_csn.store(csn, Ordering::Release);
        self.pin_seq.fetch_add(1, Ordering::AcqRel); // even: stable again
    }

    fn entity_shard(&self, id: &Uid) -> &EntityShard {
        &self.entity_shards[hash_of(id) & self.shard_mask]
    }

    fn name_shard(&self, key: &str) -> &IndexShard {
        &self.name_shards[hash_of(key) & self.shard_mask]
    }

    fn path_shard(&self, key: &str) -> &IndexShard {
        &self.path_shards[hash_of(key) & self.shard_mask]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Entity version visible at `version`, if cached. Outer `None` =
    /// not in cache; `Some(None)` = cached deletion. Lock-free up to one
    /// shard read lock; versions are ascending, so visibility is a binary
    /// search.
    pub fn get_at(&self, id: &Uid, version: u64) -> Option<Option<Arc<Entity>>> {
        let tick = self.next_tick();
        // uc-lint: allow(hotpath) -- the hot cached read itself: a shard read lock; writers serialize behind the write gate, not here
        let shard = self.entity_shard(id).read();
        let entry = shard.get(id)?;
        entry.last_access.store(tick, Ordering::Relaxed);
        let idx = entry.versions.partition_point(|(v, _)| *v <= version);
        if idx == 0 {
            None
        } else {
            Some(entry.versions[idx - 1].1.clone())
        }
    }

    /// Look up by name-index (tree) key, valid at the cache's current
    /// version.
    pub fn id_by_name(&self, tree_key: &str) -> Option<Uid> {
        // uc-lint: allow(hotpath) -- hot name-index probe: shard read lock, same discipline as get_at
        self.name_shard(tree_key).read().get(tree_key).cloned()
    }

    /// Look up by path-index key.
    pub fn id_by_path(&self, path_key: &str) -> Option<Uid> {
        // uc-lint: allow(hotpath) -- hot path-index probe: shard read lock, same discipline as get_at
        self.path_shard(path_key).read().get(path_key).cloned()
    }

    /// Insert (or update) an entity at a version, maintaining secondary
    /// keys and trimming the version window.
    fn insert(
        &self,
        entity: Arc<Entity>,
        at_version: u64,
        path_key: Option<String>,
        tree_key: String,
    ) {
        let tick = self.next_tick();
        let id = entity.id.clone();
        if let Some(pk) = &path_key {
            self.path_shard(pk).write().insert(pk.clone(), id.clone());
        }
        self.name_shard(&tree_key).write().insert(tree_key.clone(), id.clone());
        let moved_from = {
            let mut shard = self.entity_shard(&id).write();
            let entry = shard.entry(id).or_insert_with(|| {
                self.len.fetch_add(1, Ordering::Relaxed);
                CachedEntry {
                    versions: Vec::new(),
                    path_key: None,
                    tree_key: tree_key.clone(),
                    last_access: AtomicU64::new(tick),
                }
            });
            entry.path_key = path_key;
            entry.last_access.store(tick, Ordering::Relaxed);
            push_version(&mut entry.versions, at_version, Some(entity.clone()));
            (entry.tree_key != tree_key).then(|| std::mem::replace(&mut entry.tree_key, tree_key))
        };
        // The entity moved (a rename): its old key no longer names it.
        if let Some(old) = moved_from {
            unmap(self.name_shard(&old), &old, &entity.id);
        }
        if self.len.load(Ordering::Relaxed) > self.config.max_entries {
            self.evict_lru();
        }
    }

    /// [`Self::insert`] with the path-index key derived from the entity's
    /// storage path.
    fn install(&self, ms: &Uid, entity: Arc<Entity>, at_version: u64, tree_key: String) {
        let pk = entity.storage_path.as_ref().map(|p| keys::path_key(ms, p));
        self.insert(entity, at_version, pk, tree_key);
    }

    /// Record a deletion at a version (write-through for drops).
    fn insert_tombstone(&self, id: &Uid, at_version: u64) {
        let tick = self.next_tick();
        let keys = {
            let mut shard = self.entity_shard(id).write();
            let Some(entry) = shard.get_mut(id) else { return };
            entry.last_access.store(tick, Ordering::Relaxed);
            push_version(&mut entry.versions, at_version, None);
            (entry.path_key.clone(), entry.tree_key.clone())
        };
        if let Some(pk) = &keys.0 {
            unmap(self.path_shard(pk), pk, id);
        }
        unmap(self.name_shard(&keys.1), &keys.1, id);
    }

    /// Drop an entry and its secondary keys. `false` when it was not cached.
    fn remove_entry(&self, id: &Uid) -> bool {
        let Some(entry) = self.entity_shard(id).write().remove(id) else { return false };
        self.len.fetch_sub(1, Ordering::Relaxed);
        if let Some(pk) = &entry.path_key {
            unmap(self.path_shard(pk), pk, id);
        }
        unmap(self.name_shard(&entry.tree_key), &entry.tree_key, id);
        true
    }

    /// Evict whatever entity is cached under a tree key: how a `T_TREE`
    /// change at that key invalidates. `false` when nothing was.
    fn evict_at_key(&self, tree_key: &str) -> bool {
        self.id_by_name(tree_key).is_some_and(|id| self.remove_entry(&id))
    }

    /// Batch-evict the least recently used ~10% beyond the cap. Runs under
    /// the gate (so no competing mutator), locking one shard at a time.
    fn evict_lru(&self) {
        let cap = self.config.max_entries;
        let excess = self.len.load(Ordering::Relaxed).saturating_sub(cap) + cap / 10;
        let mut by_age: Vec<(u64, Uid)> = Vec::with_capacity(self.len.load(Ordering::Relaxed));
        for shard in self.entity_shards.iter() {
            for (id, e) in shard.read().iter() {
                by_age.push((e.last_access.load(Ordering::Relaxed), id.clone()));
            }
        }
        by_age.sort_unstable_by_key(|(age, _)| *age);
        for (_, id) in by_age.into_iter().take(excess) {
            if self.remove_entry(&id) {
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Naive reconciliation: drop everything and adopt the new version.
    /// Entries are cleared *before* the pin advances so no reader at the
    /// new pin can see stale data.
    fn reconcile_full(&self, new_version: u64, new_csn: u64) {
        for shard in self.entity_shards.iter() {
            shard.write().clear();
        }
        for shard in self.name_shards.iter() {
            shard.write().clear();
        }
        for shard in self.path_shards.iter() {
            shard.write().clear();
        }
        self.len.store(0, Ordering::Relaxed);
        self.set_pin(new_version, new_csn);
        self.stats.full_reconciles.fetch_add(1, Ordering::Relaxed);
    }

    /// Optimized reconciliation: invalidate exactly the entries touched by
    /// the change records between the cached CSN and the new one;
    /// invalidation precedes the pin advance. Every change to an entity —
    /// create, update, move, drop — writes or deletes its `T_TREE` row, and
    /// a cached entity is always in the name index under that row's key,
    /// so the `T_TREE` records alone find every stale entry.
    fn reconcile_selective(
        &self,
        ms: &Uid,
        new_version: u64,
        new_csn: u64,
        changes: &[ChangeRecord],
    ) {
        let path_prefix = keys::path_ms_prefix(ms);
        let tree_prefix = keys::tree_ms_prefix(ms);
        for change in changes {
            match change.table.as_str() {
                T_TREE if change.key.starts_with(&tree_prefix) => {
                    let evicted = self.evict_at_key(&change.key);
                    self.stats.invalidations.fetch_add(u64::from(evicted), Ordering::Relaxed);
                }
                T_PATH if change.key.starts_with(&path_prefix) => {
                    self.path_shard(&change.key).write().remove(&change.key);
                }
                _ => {}
            }
        }
        self.set_pin(new_version, new_csn);
        self.stats.selective_reconciles.fetch_add(1, Ordering::Relaxed);
    }

    pub fn entry_count(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    fn version_window_len(&self, id: &Uid) -> usize {
        self.entity_shard(id)
            .read()
            .get(id)
            .map(|e| e.versions.len())
            .unwrap_or(0)
    }
}

fn push_version(versions: &mut Vec<(u64, Option<Arc<Entity>>)>, v: u64, e: Option<Arc<Entity>>) {
    match versions.last_mut() {
        Some((last_v, last_e)) if *last_v == v => *last_e = e,
        Some((last_v, _)) if *last_v > v => {
            // Out-of-order insert (a read at an older snapshot landed after
            // a newer write): keep ordering by inserting at position.
            let pos = versions.partition_point(|(ver, _)| *ver < v);
            if versions.get(pos).map(|(ver, _)| *ver) == Some(v) {
                versions[pos] = (v, e);
            } else {
                versions.insert(pos, (v, e));
            }
        }
        _ => versions.push((v, e)),
    }
    if versions.len() > VERSION_WINDOW {
        let drop = versions.len() - VERSION_WINDOW;
        versions.drain(..drop);
    }
}

/// The coherence protocol (module docs): the only functions that take the
/// gate, and the only callers of the mutators above.
impl MsCache {
    /// The cached read. `probe(cache, pinned_version)` is the lock-free
    /// hit: the value plus how many cached entries served it (a resolved
    /// chain counts one hit per level). `load` runs on a miss, against one
    /// database snapshot, and returns the value plus the entities to
    /// install. This routine alone owns the yield point, the hit / miss /
    /// stale-retry counters, the `history.read` event and the
    /// stale / ahead / equal decision, so every lookup shape follows one
    /// rule. A disabled cache never probes.
    pub(crate) fn read_through<T>(
        &self,
        ms: &Uid,
        db: &Db,
        probe: impl Fn(&MsCache, u64) -> Option<(T, u64)>,
        load: impl Fn(&ReadTxn) -> UcResult<(T, Installs)>,
    ) -> UcResult<T> {
        let rounds = if self.config.enabled { STALE_ROUNDS } else { 0 };
        for round in 0..rounds {
            // Yield outside the gate: a parked client holds no lock.
            sched::yield_point(sched::points::READ_LOOKUP);
            let ver = self.version();
            if let Some((hit, served)) = probe(self, ver) {
                self.stats.hits.fetch_add(served, Ordering::Relaxed);
                history_read_event(ver);
                return Ok(hit);
            }
            // One logical lookup counts one miss, however many times a
            // stale snapshot sends it around the loop.
            if round == 0 {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
            }
            // uc-lint: allow(hotpath) -- hot/cold boundary: the cached hit returned above; a miss round reads the db and takes the gate
            if let Some(value) = self.miss_round(ms, db, &load)? {
                return Ok(value);
            }
        }
        // uc-lint: allow(hotpath) -- cache disabled or stale-retry budget exhausted: serve this read straight from a db snapshot
        Self::load_uninstalled(ms, db, &load)
    }

    /// Serve one `load` from a fresh snapshot without touching the cache.
    /// The metastore version is read only when a span wants the event.
    fn load_uninstalled<T>(
        ms: &Uid,
        db: &Db,
        load: &impl Fn(&ReadTxn) -> UcResult<(T, Installs)>,
    ) -> UcResult<T> {
        let rt = db.begin_read();
        let (value, _) = load(&rt)?;
        if uc_obs::current_span_id().is_some() {
            history_read_event(read_ms_version(&rt, ms));
        }
        Ok(value)
    }

    /// One miss round of [`Self::read_through`]: `load` at one snapshot,
    /// then — under the gate — compare that snapshot's metastore version
    /// with the pin. `None` means the snapshot was older than the pin (a
    /// write or reconcile landed after it was taken) and the caller
    /// retries.
    fn miss_round<T>(
        &self,
        ms: &Uid,
        db: &Db,
        load: &impl Fn(&ReadTxn) -> UcResult<(T, Installs)>,
    ) -> UcResult<Option<T>> {
        let rt = db.begin_read();
        let db_ver = read_ms_version(&rt, ms);
        let (value, installs) = load(&rt)?;
        let _gate = self.write_gate();
        match db_ver.cmp(&self.version()) {
            std::cmp::Ordering::Less => {
                self.stats.stale_retries.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            std::cmp::Ordering::Greater => self.reconcile(ms, db, db_ver, rt.snapshot_csn()),
            std::cmp::Ordering::Equal => {}
        }
        for (entity, tree_key) in installs {
            // An entry still cached live *under this key* is this same
            // row — a reconcile evicts what changed at a key — so the
            // containers every request reads are touched, not rewritten
            // under their shard locks. Anything else is (re)installed,
            // which also restores a name mapping. Compared in place:
            // `id_by_name` clones the id, and that allocation on every
            // container of every miss cost `write_mix` 10 % of its ops/s.
            let mapped = self.name_shard(&tree_key).read().get(&tree_key) == Some(&entity.id);
            let current = mapped && matches!(self.get_at(&entity.id, db_ver), Some(Some(_)));
            if !current {
                self.install(ms, entity, db_ver, tree_key);
            }
        }
        history_read_event(db_ver);
        Ok(Some(value))
    }

    /// Write-through after this node committed `prev_version + 1` at
    /// `csn`. A slow writer must never regress the shared pin: if a later
    /// commit's apply (or a reader's reconcile) already advanced past this
    /// write's version, that reconcile consumed the changelog through a
    /// CSN at or beyond this commit, so these effects are already
    /// reflected — applying them now would pin the cache to an older
    /// version and break read-your-writes for every client on this node.
    pub(crate) fn apply_write(&self, ms: &Uid, db: &Db, prev_version: u64, csn: u64, fx: &WriteEffects) {
        if !self.config.enabled {
            return;
        }
        let _gate = self.write_gate();
        let pinned = self.version();
        if pinned > prev_version {
            return;
        }
        if pinned != prev_version {
            self.reconcile(ms, db, prev_version + 1, csn);
        }
        // Install effects first, advance the pin last: concurrent readers
        // at the old pin can't see the new versions, and readers after
        // the advance see all of them.
        for (ent, tk) in &fx.upserts {
            self.install(ms, ent.clone(), prev_version + 1, tk.clone());
        }
        for id in &fx.tombstones {
            self.insert_tombstone(id, prev_version + 1);
        }
        for key in &fx.moved_from {
            self.evict_at_key(key);
        }
        self.set_pin(prev_version + 1, csn);
    }

    /// Revalidate against the database now: reconcile if it is ahead.
    pub(crate) fn catch_up(&self, ms: &Uid, db: &Db) {
        if !self.config.enabled {
            return;
        }
        let rt = db.begin_read();
        let db_ver = read_ms_version(&rt, ms);
        let _gate = self.write_gate();
        if db_ver > self.version() {
            self.reconcile(ms, db, db_ver, rt.snapshot_csn());
        }
    }

    /// Bring the cache to `(db_version, db_csn)` — both from one
    /// consistent snapshot — using the configured strategy.
    fn reconcile(&self, ms: &Uid, db: &Db, db_version: u64, db_csn: u64) {
        if !self.config.selective_reconcile {
            self.reconcile_full(db_version, db_csn);
            return;
        }
        let cached_csn = self.csn();
        let changes = db.changelog().changes_since(cached_csn);
        // If the log was truncated past our position — including the case
        // where it is now empty while history advanced — we cannot trust
        // selective invalidation.
        let missed_history = cached_csn > 0
            && match db.changelog().min_retained_csn() {
                Some(min) => min > cached_csn + 1,
                None => db_csn > cached_csn,
            };
        if missed_history {
            self.reconcile_full(db_version, db_csn);
        } else {
            self.reconcile_selective(ms, db_version, db_csn, &changes);
        }
    }
}

/// All per-metastore caches on one node.
pub struct NodeCache {
    pub config: CacheConfig,
    per_ms: RwLock<HashMap<Uid, Arc<MsCache>>>,
    pub stats: CacheStats,
}

impl NodeCache {
    /// A node cache whose counters are registered in `registry`.
    pub fn wired(config: CacheConfig, registry: &uc_obs::Registry) -> Self {
        NodeCache { config, per_ms: RwLock::new(HashMap::new()), stats: CacheStats::wired(registry) }
    }

    /// The cache for a metastore, created on first touch. The steady-state
    /// path is a single read-lock probe + `Arc` clone; the write lock is
    /// taken only when the metastore has no cache yet (and the losing side
    /// of a first-touch race lands on `or_insert_with`'s existing entry).
    /// Callers that loop hold on to the returned `Arc` instead of
    /// re-probing per iteration.
    pub fn for_metastore(&self, ms: &Uid) -> Arc<MsCache> {
        if let Some(c) = self.per_ms.read().get(ms) {
            return c.clone();
        }
        self.per_ms
            .write()
            .entry(ms.clone())
            .or_insert_with(|| Arc::new(MsCache::new(&self.config, self.stats.clone())))
            .clone()
    }
}

/// Re-read the metastore version from a read transaction.
pub fn read_ms_version(rt: &uc_txdb::ReadTxn, ms: &Uid) -> u64 {
    rt.get(T_MSVER, ms.as_str())
        .and_then(|b| String::from_utf8(b.to_vec()).ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entity(id: &str, name: &str) -> Arc<Entity> {
        let mut e = Entity::new(
            SecurableKind::Table,
            name,
            None,
            Uid::from("ms"),
            "owner",
            0,
        );
        e.id = Uid::from(id);
        Arc::new(e)
    }

    fn cache_with(max_entries: usize) -> (MsCache, CacheStats) {
        let stats = CacheStats::default();
        let config = CacheConfig { shards: 4, max_entries, ..Default::default() };
        (MsCache::new(&config, stats.clone()), stats)
    }

    /// The tree key the tests file entity `id` under (its name may change
    /// from version to version; its key does not).
    fn nk(id: &str) -> String {
        keys::tree_key(&Uid::from("ms"), &[("relation", id)])
    }

    fn insert(cache: &MsCache, id: &str, name: &str, ver: u64) {
        cache.insert(entity(id, name), ver, None, nk(id));
    }

    #[test]
    fn snapshot_reads_see_version_at_or_below() {
        let (c, _) = cache_with(1000);
        insert(&c, "e1", "v1", 1);
        insert(&c, "e1", "v2", 3);
        let at1 = c.get_at(&Uid::from("e1"), 1).unwrap().unwrap();
        assert_eq!(at1.name, "v1");
        let at2 = c.get_at(&Uid::from("e1"), 2).unwrap().unwrap();
        assert_eq!(at2.name, "v1");
        let at3 = c.get_at(&Uid::from("e1"), 3).unwrap().unwrap();
        assert_eq!(at3.name, "v2");
        // before the first cached version: no visible version
        assert_eq!(c.get_at(&Uid::from("e1"), 0), None);
    }

    #[test]
    fn tombstone_hides_entity_and_unlinks_names() {
        let (c, _) = cache_with(1000);
        insert(&c, "e1", "t", 1);
        assert!(c.id_by_name(&nk("e1")).is_some());
        c.insert_tombstone(&Uid::from("e1"), 2);
        assert_eq!(c.get_at(&Uid::from("e1"), 2), Some(None));
        // old version still readable for in-flight requests
        assert!(c.get_at(&Uid::from("e1"), 1).unwrap().is_some());
        assert!(c.id_by_name(&nk("e1")).is_none());
    }

    #[test]
    fn version_window_is_bounded() {
        let (c, _) = cache_with(1000);
        for v in 1..=20 {
            insert(&c, "e1", &format!("n{v}"), v);
        }
        assert!(c.version_window_len(&Uid::from("e1")) <= VERSION_WINDOW);
        // newest version intact
        assert_eq!(c.get_at(&Uid::from("e1"), 20).unwrap().unwrap().name, "n20");
        // very old pinned version falls out of cache (caller re-reads DB)
        assert_eq!(c.get_at(&Uid::from("e1"), 1), None);
    }

    #[test]
    fn out_of_order_insert_keeps_versions_sorted() {
        let (c, _) = cache_with(1000);
        insert(&c, "e1", "new", 5);
        // a stale read at version 3 lands late
        insert(&c, "e1", "old", 3);
        assert_eq!(c.get_at(&Uid::from("e1"), 5).unwrap().unwrap().name, "new");
        assert_eq!(c.get_at(&Uid::from("e1"), 3).unwrap().unwrap().name, "old");
    }

    #[test]
    fn full_reconcile_clears_everything() {
        let (c, stats) = cache_with(1000);
        insert(&c, "e1", "a", 1);
        insert(&c, "e2", "b", 1);
        c.reconcile_full(9, 99);
        assert_eq!(c.entry_count(), 0);
        assert_eq!(c.version(), 9);
        assert_eq!(c.csn(), 99);
        assert_eq!(stats.full_reconciles.get(), 1);
    }

    #[test]
    fn selective_reconcile_invalidates_only_touched() {
        let ms = Uid::from("ms");
        let (c, stats) = cache_with(1000);
        insert(&c, "e1", "a", 1);
        insert(&c, "e2", "b", 1);
        let changes = vec![ChangeRecord {
            csn: 2,
            table: T_TREE.to_string(),
            key: nk("e1"),
            kind: uc_txdb::ChangeKind::Put,
            value: None,
        }];
        c.reconcile_selective(&ms, 2, 2, &changes);
        assert!(c.get_at(&Uid::from("e1"), 2).is_none(), "touched entry dropped");
        assert!(c.get_at(&Uid::from("e2"), 1).is_some(), "untouched entry kept");
        assert!(c.id_by_name(&nk("e1")).is_none());
        assert!(c.id_by_name(&nk("e2")).is_some());
        assert_eq!(stats.invalidations.get(), 1);
    }

    #[test]
    fn evicting_a_dropped_entry_keeps_the_name_for_its_successor() {
        // e1 is dropped at K and the name re-created as e2. e1's tombstoned
        // entry still remembers K; evicting it must not take K → e2 along,
        // or a remote change to e2 (a `T_TREE` record at K) finds nothing
        // and e2 is served stale by id.
        let (ms, k) = (Uid::from("ms"), nk("t"));
        let (c, stats) = cache_with(1000);
        c.insert(entity("e1", "t"), 1, Some("pk/p".into()), k.clone());
        c.insert_tombstone(&Uid::from("e1"), 2);
        c.insert(entity("e2", "t"), 3, Some("pk/p".into()), k.clone());
        assert!(c.remove_entry(&Uid::from("e1")));
        assert_eq!(c.id_by_name(&k), Some(Uid::from("e2")));
        assert_eq!(c.id_by_path("pk/p"), Some(Uid::from("e2")));
        let changes = vec![ChangeRecord {
            csn: 4,
            table: T_TREE.to_string(),
            key: k.clone(),
            kind: uc_txdb::ChangeKind::Put,
            value: None,
        }];
        c.reconcile_selective(&ms, 4, 4, &changes);
        assert!(c.get_at(&Uid::from("e2"), 4).is_none(), "the change at K evicts e2");
        assert_eq!(stats.invalidations.get(), 1);
    }

    #[test]
    fn selective_reconcile_ignores_other_metastores() {
        let ms = Uid::from("ms");
        let (c, _) = cache_with(1000);
        insert(&c, "e1", "a", 1);
        let changes = vec![ChangeRecord {
            csn: 2,
            table: T_TREE.to_string(),
            key: keys::tree_key(&Uid::from("other"), &[("relation", "e1")]),
            kind: uc_txdb::ChangeKind::Put,
            value: None,
        }];
        c.reconcile_selective(&ms, 2, 2, &changes);
        assert!(c.get_at(&Uid::from("e1"), 1).is_some());
    }

    #[test]
    fn lru_eviction_respects_cap_and_cleans_indexes() {
        let (c, stats) = cache_with(10);
        for i in 0..20 {
            c.insert(
                entity(&format!("e{i}"), &format!("n{i}")),
                1,
                Some(format!("pk/p{i}")),
                format!("nk/n{i}"),
            );
        }
        assert!(c.entry_count() <= 11, "cap 10 plus slack, got {}", c.entry_count());
        assert!(stats.evictions.get() > 0);
        // evicted entries' secondary keys are gone
        let evicted = (0..20)
            .filter(|i| c.get_at(&Uid::from(format!("e{i}").as_str()), 1).is_none())
            .collect::<Vec<_>>();
        assert!(!evicted.is_empty());
        for i in evicted {
            assert!(c.id_by_name(&format!("nk/n{i}")).is_none());
            assert!(c.id_by_path(&format!("pk/p{i}")).is_none());
        }
    }

    #[test]
    fn lru_tick_order_is_total_across_shards() {
        // The access tick is one global atomic, so recency forms a total
        // order no matter which shard an entry hashes to: a batch eviction
        // must drop the globally oldest entries, never "oldest per shard".
        let (c, _) = cache_with(12);
        for i in 0..12 {
            c.insert(
                entity(&format!("e{i}"), &format!("n{i}")),
                1,
                Some(format!("pk/p{i}")),
                format!("nk/n{i}"),
            );
        }
        // Touch a subset spread across shards (4 shards; ids hash apart),
        // making everything *not* touched strictly older.
        let touched = [0usize, 3, 5, 8, 11];
        for i in touched {
            assert!(c.get_at(&Uid::from(format!("e{i}").as_str()), 1).is_some());
        }
        // Two more inserts push len past the cap and trigger one batch
        // eviction of the oldest (cap/10 + excess) entries.
        insert(&c, "e12", "n12", 1);
        insert(&c, "e13", "n13", 1);
        for i in touched {
            assert!(
                c.get_at(&Uid::from(format!("e{i}").as_str()), 1).is_some(),
                "recently touched e{i} must survive eviction"
            );
            assert!(c.id_by_name(&format!("nk/n{i}")).is_some());
        }
        // Every evicted entry must be globally older than every survivor
        // was at eviction time — i.e. all victims come from the untouched
        // set, and their secondary index entries are cleaned.
        let evicted: Vec<usize> = (0..14)
            .filter(|i| c.get_at(&Uid::from(format!("e{i}").as_str()), 1).is_none())
            .collect();
        assert!(!evicted.is_empty(), "inserting past the cap must evict");
        for i in &evicted {
            assert!(!touched.contains(i), "touched e{i} evicted before older entries");
            assert!(c.id_by_name(&format!("nk/n{i}")).is_none());
            assert!(c.id_by_path(&format!("pk/p{i}")).is_none());
        }
        // The newest inserts are by definition the most recent ticks.
        assert!(c.get_at(&Uid::from("e13"), 1).is_some());
    }

    #[test]
    fn eviction_racing_readers_never_tears_the_pin() {
        // Evictions take shard write locks while readers probe shards and
        // read the seqlock pin. A reader must never observe a torn
        // (version, csn) pair or a panic, no matter how eviction and pin
        // advance interleave with its probes.
        let (c, stats) = cache_with(16);
        let c = std::sync::Arc::new(c);
        let writer = {
            let c = c.clone();
            std::thread::spawn(move || {
                for v in 1..=4_000u64 {
                    let _gate = c.write_gate();
                    // Insert with a fresh id each round: len keeps crossing
                    // the cap, so evict_lru runs constantly.
                    c.insert(
                        entity(&format!("w{v}"), &format!("wn{v}")),
                        v,
                        Some(format!("pk/wp{v}")),
                        format!("nk/wn{v}"),
                    );
                    c.set_pin(v, v);
                }
            })
        };
        let mut readers = Vec::new();
        for r in 0..3 {
            let c = c.clone();
            readers.push(std::thread::spawn(move || {
                let mut last = 0u64;
                loop {
                    let (v, csn) = c.pin();
                    assert_eq!(v, csn, "torn pin observed by reader {r}");
                    assert!(v >= last, "pin went backwards under eviction");
                    last = v;
                    // Probe entries that may be mid-eviction: any outcome
                    // (hit at some version ≤ asked, cached miss, absent) is
                    // legal; what matters is no torn state and no deadlock.
                    let probe = Uid::from(format!("w{}", v.max(1)).as_str());
                    if let Some(Some(hit)) = c.get_at(&probe, v) {
                        assert!(hit.name.starts_with("wn"));
                    }
                    if v >= 4_000 {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }));
        }
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert!(stats.evictions.get() > 0, "the race must actually exercise eviction");
        assert!(c.entry_count() <= 16 + 16 / 10 + 1, "cap respected after the storm");
    }

    #[test]
    fn shard_count_rounds_to_power_of_two_and_one_shard_works() {
        let stats = CacheStats::default();
        let c = MsCache::new(&CacheConfig { shards: 1, ..Default::default() }, stats.clone());
        insert(&c, "e1", "a", 1);
        assert!(c.get_at(&Uid::from("e1"), 1).is_some());
        let c3 = MsCache::new(&CacheConfig { shards: 3, ..Default::default() }, stats);
        assert_eq!(c3.shard_mask + 1, 4, "3 rounds up to 4 shards");
    }

    #[test]
    fn pin_is_consistent_under_concurrent_advance() {
        let (c, _) = cache_with(1000);
        let c = std::sync::Arc::new(c);
        let writer = {
            let c = c.clone();
            std::thread::spawn(move || {
                for v in 1..=10_000u64 {
                    let _gate = c.write_gate();
                    // version and csn move in lockstep; a torn read would
                    // observe a (v, c) pair off the v == c diagonal.
                    c.set_pin(v, v);
                }
            })
        };
        let mut last = 0;
        while last < 10_000 {
            let (v, csn) = c.pin();
            assert_eq!(v, csn, "seqlock must never expose a torn pin");
            assert!(v >= last, "pin went backwards");
            last = v.max(last);
            if writer.is_finished() {
                let (v, csn) = c.pin();
                assert_eq!((v, csn), (10_000, 10_000));
                break;
            }
        }
        writer.join().unwrap();
    }

    // ---- protocol step tests: the three operations against a bare `Db`,
    // no threads, no `UnityCatalog` ----

    /// Commit `ents` and set the metastore version; returns the CSN.
    fn commit(db: &Db, version: u64, ents: &[&Arc<Entity>]) -> u64 {
        let mut tx = db.begin_write();
        for e in ents {
            tx.put(T_TREE, &nk(e.id.as_str()), e.encode());
        }
        tx.put(T_MSVER, "ms", bytes::Bytes::from(version.to_string()));
        tx.commit().unwrap()
    }

    /// By-id read through the protocol. `loads` counts `load` calls, and
    /// `in_load(n)` runs inside the n-th one, after its snapshot is taken.
    fn read_id(
        c: &MsCache,
        db: &Db,
        id: &str,
        loads: &std::cell::Cell<u32>,
        in_load: impl Fn(u32),
    ) -> Option<Arc<Entity>> {
        let (ms, id) = (Uid::from("ms"), Uid::from(id));
        c.read_through(
            &ms,
            db,
            |c, ver| Some((c.get_at(&id, ver)?, 1)),
            |rt| {
                loads.set(loads.get() + 1);
                in_load(loads.get());
                let key = nk(id.as_str());
                let found = match rt.get(T_TREE, &key) {
                    Some(raw) => Some(Arc::new(Entity::decode(&raw)?)),
                    None => None,
                };
                Ok((found.clone(), found.into_iter().map(|e| (e, key.clone())).collect()))
            },
        )
        .unwrap()
    }

    /// A database at metastore version 1 holding `e1`, and a cache caught
    /// up to it.
    fn caught_up() -> (Db, MsCache, CacheStats, std::cell::Cell<u32>) {
        let db = Db::in_memory();
        commit(&db, 1, &[&entity("e1", "a")]);
        let (c, stats) = cache_with(1000);
        c.catch_up(&Uid::from("ms"), &db);
        assert_eq!(c.version(), 1);
        (db, c, stats, std::cell::Cell::new(0))
    }

    #[test]
    fn read_at_the_pinned_version_installs_and_then_hits() {
        let (db, c, stats, loads) = caught_up();
        assert_eq!(read_id(&c, &db, "e1", &loads, |_| {}).unwrap().name, "a");
        assert_eq!((loads.get(), stats.misses.get(), stats.hits.get()), (1, 1, 0));
        assert_eq!(read_id(&c, &db, "e1", &loads, |_| {}).unwrap().name, "a");
        assert_eq!((loads.get(), stats.misses.get(), stats.hits.get()), (1, 1, 1), "second read must not load");
    }

    #[test]
    fn read_finding_the_database_ahead_reconciles_before_installing() {
        let (db, c, stats, loads) = caught_up();
        commit(&db, 1, &[&entity("e2", "b")]);
        read_id(&c, &db, "e2", &loads, |_| {}).unwrap();
        // Another node rewrites e2 and moves the metastore to version 3.
        commit(&db, 3, &[&entity("e2", "b2")]);
        assert_eq!(read_id(&c, &db, "e1", &loads, |_| {}).unwrap().name, "a");
        assert_eq!(c.version(), 3, "reconciled to the snapshot's version");
        // One reconcile beyond `caught_up`'s own, invalidating exactly e2.
        assert_eq!((stats.selective_reconciles.get(), stats.invalidations.get()), (2, 1));
        assert!(c.get_at(&Uid::from("e2"), 3).is_none(), "the touched entry was invalidated");
        assert!(c.get_at(&Uid::from("e1"), 2).is_none(), "installed at the new version, not before it");
        let before = loads.get();
        read_id(&c, &db, "e1", &loads, |_| {}).unwrap();
        assert_eq!((loads.get(), stats.hits.get()), (before, 1), "the install is then a hit");
    }

    #[test]
    fn read_installs_only_what_the_cache_no_longer_holds() {
        let (db, c, _, loads) = caught_up();
        read_id(&c, &db, "e1", &loads, |_| {}).unwrap();
        // Another node adds e2 at version 2; a chain-shaped load then
        // returns e2 together with the e1 above it.
        let e2 = entity("e2", "b");
        commit(&db, 2, &[&e2]);
        let (ms, e1_id) = (Uid::from("ms"), Uid::from("e1"));
        let load = |rt: &ReadTxn| {
            let e1 = Arc::new(Entity::decode(&rt.get(T_TREE, &nk("e1")).unwrap())?);
            Ok((e2.name.clone(), vec![(e1, nk("e1")), (e2.clone(), nk("e2"))]))
        };
        let got = c.read_through(&ms, &db, |_, _| None, load).unwrap();
        assert_eq!((got.as_str(), c.version()), ("b", 2));
        assert!(c.get_at(&e2.id, 2).is_some(), "the new row is installed");
        assert!(c.get_at(&e1_id, 2).is_some(), "the unchanged one still serves the new pin");
        assert_eq!(c.version_window_len(&e1_id), 1, "and was touched, not rewritten at version 2");
    }

    #[test]
    fn read_reinstalls_an_entry_that_is_not_mapped_under_the_loaded_key() {
        let (db, c, _, loads) = caught_up();
        read_id(&c, &db, "e1", &loads, |_| {}).unwrap();
        // The entry is live but its key names nothing (or someone else):
        // a by-name miss must put the mapping back, not skip the install.
        c.name_shard(&nk("e1")).write().remove(&nk("e1"));
        let (ms, e1) = (Uid::from("ms"), entity("e1", "a"));
        c.read_through(&ms, &db, |_, _| None, |_| Ok(((), vec![(e1.clone(), nk("e1"))]))).unwrap();
        assert_eq!(c.id_by_name(&nk("e1")), Some(e1.id.clone()));
    }

    #[test]
    fn read_whose_snapshot_is_older_than_the_pin_retries() {
        let (db, c, stats, loads) = caught_up();
        let ms = Uid::from("ms");
        let found = read_id(&c, &db, "e1", &loads, |n| {
            if n == 1 {
                // A write commits and is applied after this round took its
                // snapshot and before it reaches the gate.
                let e2 = entity("e2", "b");
                let csn = commit(&db, 2, &[&e2]);
                let mut fx = WriteEffects::default();
                fx.upserts.push((e2, nk("e2")));
                c.apply_write(&ms, &db, 1, csn, &fx);
            } else {
                assert!(c.get_at(&Uid::from("e1"), c.version()).is_none(), "a stale round installs nothing");
            }
        });
        assert_eq!(found.unwrap().name, "a");
        assert_eq!((loads.get(), stats.stale_retries.get(), stats.misses.get()), (2, 1, 1));
        assert!(c.get_at(&Uid::from("e1"), 2).is_some(), "the current round installed at the pin");
    }

    #[test]
    fn read_serves_uninstalled_once_the_stale_budget_is_spent() {
        let (db, c, stats, loads) = caught_up();
        c.set_pin(9, 9); // a pin no snapshot of this database reaches
        assert_eq!(read_id(&c, &db, "e1", &loads, |_| {}).unwrap().name, "a");
        assert_eq!(loads.get() as usize, STALE_ROUNDS + 1);
        assert_eq!((stats.stale_retries.get() as usize, stats.misses.get()), (STALE_ROUNDS, 1));
        assert_eq!((c.entry_count(), c.version()), (0, 9), "served, not installed");
    }

    #[test]
    fn disabled_cache_never_probes_and_loads_once() {
        let db = Db::in_memory();
        let e1 = entity("e1", "a");
        let csn = commit(&db, 1, &[&e1]);
        let stats = CacheStats::default();
        let c = MsCache::new(&CacheConfig::disabled(), stats.clone());
        let (ms, loads) = (Uid::from("ms"), std::cell::Cell::new(0));
        let got = c.read_through(
            &ms,
            &db,
            |_, _| -> Option<(u32, u64)> { panic!("a disabled cache must not probe") },
            |_| {
                loads.set(loads.get() + 1);
                Ok((7, vec![(e1.clone(), nk("e1"))]))
            },
        );
        assert_eq!((got.unwrap(), loads.get()), (7, 1));
        // The other two operations are no-ops as well.
        c.catch_up(&ms, &db);
        c.apply_write(&ms, &db, 0, csn, &WriteEffects::default());
        assert_eq!((c.pin(), c.entry_count()), ((0, 0), 0));
        assert_eq!((stats.hits.get(), stats.misses.get()), (0, 0));
    }

    #[test]
    fn apply_write_behind_a_later_reconcile_changes_nothing() {
        let (db, c, _, _) = caught_up();
        let ms = Uid::from("ms");
        // This node commits version 2; before it applies, another node
        // commits version 3 and a reconcile here consumes both.
        let e2 = entity("e2", "b");
        let csn_a = commit(&db, 2, &[&e2]);
        let csn_b = commit(&db, 3, &[&entity("e3", "c")]);
        c.catch_up(&ms, &db);
        assert_eq!(c.pin(), (3, csn_b));
        let mut fx = WriteEffects::default();
        fx.upserts.push((e2, nk("e2")));
        c.apply_write(&ms, &db, 1, csn_a, &fx);
        assert_eq!(c.pin(), (3, csn_b), "a slow writer never regresses the pin");
        assert_eq!(c.entry_count(), 0);
        assert!(c.id_by_name(&nk("e2")).is_none());
    }

    #[test]
    fn node_cache_returns_same_instance_per_metastore() {
        let nc = NodeCache::wired(CacheConfig::default(), &uc_obs::Registry::new());
        let a = nc.for_metastore(&Uid::from("m1"));
        let b = nc.for_metastore(&Uid::from("m1"));
        let c = nc.for_metastore(&Uid::from("m2"));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn wired_stats_surface_in_registry() {
        let registry = uc_obs::Registry::new();
        let nc = NodeCache::wired(CacheConfig::default(), &registry);
        nc.stats.hits.inc();
        nc.stats.gate_waits.add(2);
        assert_eq!(registry.counter("cache.hits").get(), 1);
        assert_eq!(registry.counter("cache.shard.gate_waits").get(), 2);
    }
}
