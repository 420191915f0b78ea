//! The write-through, multi-version, per-metastore metadata cache (§4.5).
//!
//! Design, mirroring the paper:
//!
//! * Each node caches the metastores it serves. A metastore's cache pins
//!   the **metastore version** it is current as-of.
//! * **Snapshot reads**: lookups serve the entry version that is newest at
//!   the cache's pinned version. In-flight batched reads pin a version and
//!   stay consistent even while writes land.
//! * **Write-through**: a successful write (which bumped the metastore
//!   version in the database, conditioned on the cached version) inserts
//!   the new entity versions immediately — the invariant "cached versions
//!   are the latest as of the version known to the node" is preserved.
//! * **Reconciliation**: when a database read observes a different
//!   metastore version than cached (another node wrote), the cache either
//!   evicts everything (naive) or reads the metastore's change feed
//!   ([`crate::model::feed`]) from its pin on and invalidates exactly the
//!   touched entries (optimized) — both modes are implemented, and the
//!   ablation bench compares them.
//! * **Eviction**: unpopular assets are evicted LRU-batch-style when the
//!   per-metastore entry cap is exceeded; each entry keeps its newest
//!   `VERSION_WINDOW` versions for in-flight requests and drops older
//!   ones as new versions are pushed (the paper bounds this window by the
//!   API timeout).
//! * **Parse once**: each entry version keeps its row's bytes, and
//!   [`MsCache::decoded`] serves a row the cache holds byte for byte as the
//!   cached entity instead of decoding it again (DESIGN.md §4.1).
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
//! A selective reconcile reads the feed rows after its pin, at the snapshot
//! it reconciles to, *before* it takes the gate: a database read charges
//! the connection pool, which is never acquired under the gate. A pin the
//! feed's retention window has passed gets the full reconcile.
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
//! * The version pin is one `AtomicU64`, read with an acquire load.
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

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard, RwLock};
use uc_cloudstore::sched;
use uc_obs::Counter;
use uc_txdb::{Db, ReadTxn};

use crate::error::UcResult;
use crate::ids::Uid;
use crate::model::entity::Entity;
use crate::model::feed::{self, FeedEvent, FeedRow, T_FEED};
use crate::model::keys;

/// How many superseded versions of an entry to retain for in-flight reads.
const VERSION_WINDOW: usize = 4;

/// Miss rounds a cached read retries against a stale snapshot before it
/// serves one uninstalled.
const STALE_ROUNDS: usize = 8;

/// Shards per index (entities / names / paths); a power of two, so a shard
/// is selected by masking a key hash.
const SHARDS: usize = 16;

/// A `T_TREE` row as the cache holds it: the entity, the key the row sits
/// at, and the row's bytes — the `Bytes` the database stores (or the write
/// put), shared, not copied — which is what [`MsCache::decoded`] matches a
/// later read of the same key against.
#[derive(Clone)]
pub(crate) struct TreeRow {
    pub entity: Arc<Entity>,
    pub key: String,
    pub raw: Bytes,
}

/// What a read's `load` found in the database, for the cache to install:
/// each entity's row with its key. Every load knows the key (a by-id load
/// reads the pointer to it first), so an entity is never cached without
/// its name mapping.
pub(crate) type Installs = Vec<TreeRow>;

/// What a committed write did, for [`MsCache::apply_write`] to write
/// through and the write's feed row to announce (`service/` holds the
/// `tx`-taking helpers a write closure fills it with).
#[derive(Default)]
pub(crate) struct WriteEffects {
    /// Rows written, each at the tree key its entity now sits at
    /// (installed as the cache's name mapping, replacing the entity's
    /// previous one).
    pub upserts: Vec<TreeRow>,
    pub tombstones: Vec<Uid>,
    /// Tree keys a rename moved a descendant away from: whatever is cached
    /// under one is evicted, as another node's reconcile would — the moved
    /// rows are not installed, so a rename costs the cache nothing it did
    /// not already hold.
    pub moved_from: Vec<String>,
    /// Entities purged for good: their entries are dropped, as an LRU
    /// eviction would drop them — a later read of one misses and finds
    /// nothing.
    pub purged: Vec<Uid>,
    pub events: Vec<FeedEvent>,
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
    /// Use feed-driven selective invalidation instead of full evict.
    pub selective_reconcile: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: true,
            max_entries: 100_000,
            selective_reconcile: true,
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
    /// Always 0: the version pin is one atomic, which a reader never
    /// retries. Kept for the readers of the field and its series.
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

/// One version of a cached entity: the entity and the row bytes it was
/// decoded from (or encoded to); `None` marks a deletion at that version.
type Version = (u64, Option<(Arc<Entity>, Bytes)>);

/// One cached entity's recent versions, newest last.
struct CachedEntry {
    versions: Vec<Version>,
    /// Keys to clean from the secondary maps on eviction.
    path_key: Option<String>,
    /// Tree-encoded ancestor-chain key (DESIGN.md §11) — the entry's key
    /// in the name index, which maps it back to this entry for as long as
    /// the entry is live: a `T_TREE` key in a feed row alone finds the
    /// entry it invalidates.
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
type IndexShard = RwLock<Index>;

/// A name or path index shard's map, kept at most half full.
///
/// Eviction leaves tombstones, and tombstones use up a hash table's growth
/// budget. A table out of budget rehashes in place if it is at most half
/// full and reallocates otherwise, so at a map's usual load whether a
/// re-install allocated depended on where earlier evictions had left
/// tombstones: on the keys' hashes, which carry the metastore's random uid
/// and so differ from run to run. Sized for twice the most live entries it
/// has held, a map allocates only when that high is raised.
#[derive(Default)]
struct Index {
    map: HashMap<String, Uid, FnvBuild>,
    /// The most live entries the map has held.
    high: usize,
}

impl Index {
    fn get(&self, key: &str) -> Option<&Uid> {
        self.map.get(key)
    }

    fn insert(&mut self, key: String, id: Uid) {
        if self.map.len() == self.high && !self.map.contains_key(&key) {
            self.high += 1;
            // `reserve` counts from the live entries: room for twice the high.
            self.map.reserve(2 * self.high - self.map.len());
        }
        self.map.insert(key, id);
    }

    fn remove(&mut self, key: &str) {
        self.map.remove(key);
    }

    fn clear(&mut self) {
        self.map.clear();
    }
}

/// Cache state for one metastore on one node: sharded maps plus the
/// version pin. The public read accessors take no exclusive lock; all
/// mutation is private and reached only through the protocol operations
/// (module docs), which hold the gate.
pub struct MsCache {
    /// Metastore version this cache is current as-of.
    pin: AtomicU64,
    entity_shards: Box<[EntityShard]>,
    name_shards: Box<[IndexShard]>,
    path_shards: Box<[IndexShard]>,
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
        MsCache {
            pin: AtomicU64::new(0),
            entity_shards: (0..SHARDS).map(|_| RwLock::new(HashMap::default())).collect(),
            name_shards: (0..SHARDS).map(|_| RwLock::new(Index::default())).collect(),
            path_shards: (0..SHARDS).map(|_| RwLock::new(Index::default())).collect(),
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

    /// Whether this cache holds anything: a disabled one never installs.
    pub(crate) fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Metastore version this cache is current as-of.
    pub fn version(&self) -> u64 {
        self.pin.load(Ordering::Acquire)
    }

    /// Advance the pin (under the gate: one writer at a time).
    fn set_pin(&self, version: u64) {
        self.pin.store(version, Ordering::Release);
    }

    fn entity_shard(&self, id: &Uid) -> &EntityShard {
        &self.entity_shards[hash_of(id) & (SHARDS - 1)]
    }

    fn name_shard(&self, key: &str) -> &IndexShard {
        &self.name_shards[hash_of(key) & (SHARDS - 1)]
    }

    fn path_shard(&self, key: &str) -> &IndexShard {
        &self.path_shards[hash_of(key) & (SHARDS - 1)]
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
            Some(entry.versions[idx - 1].1.as_ref().map(|(ent, _)| ent.clone()))
        }
    }

    /// The entity the `T_TREE` row `raw` at `tree_key` encodes: the cached
    /// `Arc` when the entry under that key holds exactly these bytes, at
    /// any version, else a fresh decode. Equal bytes decode to equal
    /// entities, so the result is `Entity::decode(raw)` whatever the pin
    /// or the version the row was read at; a cached entity is parsed once
    /// per node, not once per read that passes it. Recency is not
    /// touched, and the name shard and the entity shard are read one after
    /// the other, never together. A disabled cache only decodes.
    pub(crate) fn decoded(&self, tree_key: &str, raw: &Bytes) -> UcResult<Arc<Entity>> {
        if self.config.enabled {
            if let Some(held) = self.holding(tree_key, raw) {
                return Ok(held);
            }
        }
        Ok(Arc::new(Entity::decode(raw)?))
    }

    /// [`Self::decoded`]'s probe: the cached entity under `tree_key` whose
    /// row is `raw`.
    fn holding(&self, tree_key: &str, raw: &Bytes) -> Option<Arc<Entity>> {
        let id = self.name_shard(tree_key).read().get(tree_key)?.clone();
        let shard = self.entity_shard(&id).read();
        shard.get(&id)?.versions.iter().rev().find_map(|(_, held)| match held {
            Some((ent, bytes)) if bytes == raw => Some(ent.clone()),
            _ => None,
        })
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

    /// Insert (or update) an entity's row at a version, maintaining
    /// secondary keys and trimming the version window.
    fn insert(&self, row: TreeRow, at_version: u64, path_key: Option<String>) {
        let TreeRow { entity, key: tree_key, raw } = row;
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
            push_version(&mut entry.versions, at_version, Some((entity.clone(), raw)));
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
    fn install(&self, ms: &Uid, row: TreeRow, at_version: u64) {
        let pk = row.entity.storage_path.as_ref().map(|p| keys::path_key(ms, p));
        self.insert(row, at_version, pk);
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
        self.unmap_entry(id, &entry);
        true
    }

    /// Remove a removed entry's secondary keys.
    fn unmap_entry(&self, id: &Uid, entry: &CachedEntry) {
        if let Some(pk) = &entry.path_key {
            unmap(self.path_shard(pk), pk, id);
        }
        unmap(self.name_shard(&entry.tree_key), &entry.tree_key, id);
    }

    /// Evict whatever entity is cached under a tree key: how a feed row's
    /// `T_TREE` key invalidates. `false` when nothing was.
    fn evict_at_key(&self, tree_key: &str) -> bool {
        self.id_by_name(tree_key).is_some_and(|id| self.remove_entry(&id))
    }

    /// Batch-evict the least recently used ~10% beyond the cap. Runs under
    /// the gate (so no competing mutator), locking one shard at a time.
    /// Ticks are unique, so the `excess` oldest entries are exactly those
    /// at or below the `excess`-th smallest tick: one pass collects the
    /// ticks, a selection finds that cutoff, and one pass per shard takes
    /// the entries at or below it; their names and paths are unmapped
    /// once the shard's lock is released. An entry a reader touches after
    /// the tally is spared: it is no longer among the oldest.
    fn evict_lru(&self) {
        let cap = self.config.max_entries;
        let len = self.len.load(Ordering::Relaxed);
        let excess = len.saturating_sub(cap) + cap / 10;
        let mut ticks: Vec<u64> = Vec::with_capacity(len);
        for shard in self.entity_shards.iter() {
            ticks.extend(shard.read().values().map(|e| e.last_access.load(Ordering::Relaxed)));
        }
        let cutoff = match excess.checked_sub(1) {
            None => return,
            Some(nth) if nth < ticks.len() => *ticks.select_nth_unstable(nth).1,
            Some(_) => u64::MAX,
        };
        for shard in self.entity_shards.iter() {
            let victims: Vec<(Uid, CachedEntry)> =
                shard.write().extract_if(|_, e| e.last_access.load(Ordering::Relaxed) <= cutoff).collect();
            self.len.fetch_sub(victims.len(), Ordering::Relaxed);
            self.stats.evictions.fetch_add(victims.len() as u64, Ordering::Relaxed);
            for (id, entry) in &victims {
                self.unmap_entry(id, entry);
            }
        }
    }

    /// Naive reconciliation: drop everything and adopt the new version.
    /// Entries are cleared *before* the pin advances so no reader at the
    /// new pin can see stale data.
    fn reconcile_full(&self, new_version: u64) {
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
        self.set_pin(new_version);
        self.stats.full_reconciles.fetch_add(1, Ordering::Relaxed);
    }

    /// Optimized reconciliation: invalidate exactly the entries the feed
    /// rows between the pin and the new version touched; invalidation
    /// precedes the pin advance. Every change to an entity — create,
    /// update, move, drop — writes or deletes its `T_TREE` row, and a
    /// cached entity is always in the name index under that row's key, so
    /// the rows' `T_TREE` keys alone find every stale entry.
    fn reconcile_selective(&self, new_version: u64, rows: &[FeedRow]) {
        for row in rows {
            for key in &row.tree {
                let evicted = self.evict_at_key(key);
                self.stats.invalidations.fetch_add(u64::from(evicted), Ordering::Relaxed);
            }
            for key in &row.path {
                self.path_shard(key).write().remove(key);
            }
        }
        self.set_pin(new_version);
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

fn push_version(versions: &mut Vec<Version>, v: u64, e: Option<(Arc<Entity>, Bytes)>) {
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
    /// chain counts one hit per level). `load(cache, snapshot)` runs on a
    /// miss, against one database snapshot, and returns the value plus the
    /// rows to install, each decoded through [`Self::decoded`]. This
    /// routine alone owns the yield point, the hit / miss / stale-retry
    /// counters, the `history.read` event and the stale / ahead / equal
    /// decision, so every lookup shape follows one rule. A disabled cache
    /// never probes.
    pub(crate) fn read_through<T>(
        &self,
        ms: &Uid,
        db: &Db,
        probe: impl Fn(&MsCache, u64) -> Option<(T, u64)>,
        load: impl Fn(&MsCache, &ReadTxn) -> UcResult<(T, Installs)>,
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
        self.load_uninstalled(ms, db, &load)
    }

    /// Serve one `load` from a fresh snapshot without touching the cache.
    /// The metastore version is read only when a span wants the event.
    fn load_uninstalled<T>(
        &self,
        ms: &Uid,
        db: &Db,
        load: &impl Fn(&MsCache, &ReadTxn) -> UcResult<(T, Installs)>,
    ) -> UcResult<T> {
        let rt = db.begin_read();
        let (value, _) = load(self, &rt)?;
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
        load: &impl Fn(&MsCache, &ReadTxn) -> UcResult<(T, Installs)>,
    ) -> UcResult<Option<T>> {
        let rt = db.begin_read();
        let db_ver = read_ms_version(&rt, ms);
        let (value, installs) = load(self, &rt)?;
        let changes = self.changes(ms, &rt, db_ver);
        let _gate = self.write_gate();
        match db_ver.cmp(&self.version()) {
            std::cmp::Ordering::Less => {
                self.stats.stale_retries.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            std::cmp::Ordering::Greater => self.reconcile(db_ver, changes),
            std::cmp::Ordering::Equal => {}
        }
        for row in installs {
            // An entry still cached live *under this key* is this same
            // row — a reconcile evicts what changed at a key — so the
            // containers every request reads are touched, not rewritten
            // under their shard locks. Anything else is (re)installed,
            // which also restores a name mapping. Compared in place:
            // `id_by_name` clones the id, and that allocation on every
            // container of every miss cost `write_mix` 10 % of its ops/s.
            let mapped = self.name_shard(&row.key).read().get(&row.key) == Some(&row.entity.id);
            let current = mapped && matches!(self.get_at(&row.entity.id, db_ver), Some(Some(_)));
            if !current {
                self.install(ms, row, db_ver);
            }
        }
        history_read_event(db_ver);
        Ok(Some(value))
    }

    /// Write-through after this node committed `prev_version + 1`. A slow
    /// writer must never regress the shared pin: if a later commit's apply
    /// (or a reader's reconcile) already advanced past this write's
    /// version, that reconcile consumed the feed through this commit's row,
    /// so these effects are already reflected — applying them now would
    /// pin the cache to an older version and break read-your-writes for
    /// every client on this node. A pin behind `prev_version` (another
    /// node wrote in between) is first reconciled to it.
    pub(crate) fn apply_write(&self, ms: &Uid, db: &Db, prev_version: u64, fx: &WriteEffects) {
        if !self.config.enabled {
            return;
        }
        // Another node wrote in between: read its rows now, outside the gate.
        let behind = self.version() < prev_version;
        let changes = if behind { self.changes(ms, &db.begin_read(), prev_version) } else { None };
        let _gate = self.write_gate();
        let pinned = self.version();
        if pinned > prev_version {
            return;
        }
        if pinned != prev_version {
            self.reconcile(prev_version, changes);
        }
        // Install effects first, advance the pin last: concurrent readers
        // at the old pin can't see the new versions, and readers after
        // the advance see all of them.
        for row in &fx.upserts {
            self.install(ms, row.clone(), prev_version + 1);
        }
        for id in &fx.tombstones {
            self.insert_tombstone(id, prev_version + 1);
        }
        for key in &fx.moved_from {
            self.evict_at_key(key);
        }
        for id in &fx.purged {
            self.remove_entry(id);
        }
        self.set_pin(prev_version + 1);
    }

    /// Revalidate against the database now: reconcile if it is ahead. A
    /// write applied after the snapshot was taken leaves the cache ahead of
    /// it: nothing to do.
    pub(crate) fn catch_up(&self, ms: &Uid, db: &Db) {
        if !self.config.enabled {
            return;
        }
        let rt = db.begin_read();
        let db_ver = read_ms_version(&rt, ms);
        let changes = self.changes(ms, &rt, db_ver);
        let _gate = self.write_gate();
        if db_ver > self.version() {
            self.reconcile(db_ver, changes);
        }
    }

    /// What a selective reconcile from the pin to `to` invalidates: the
    /// feed rows after the pin, read at `rt` (whose metastore version is
    /// at least `to`) before the caller takes the gate. `None` when no read
    /// is needed — the cache is at or past `to`, or reconciles in full —
    /// and when the window has passed the pin. The pin can only move up
    /// before the gate is taken, so rows read from here cover whatever the
    /// reconcile then starts from.
    fn changes(&self, ms: &Uid, rt: &ReadTxn, to: u64) -> Option<Vec<FeedRow>> {
        let pinned = self.version();
        if to <= pinned || !self.config.selective_reconcile {
            return None;
        }
        match feed::rows_between(rt, ms, pinned, to) {
            Ok((rows, true)) => Some(rows.into_iter().map(|(_, row)| row).collect()),
            _ => None,
        }
    }

    /// Bring the cache to `version` with the configured strategy, given the
    /// feed rows [`Self::changes`] read for it: without rows, the cache
    /// missed history and is evicted in full.
    fn reconcile(&self, version: u64, changes: Option<Vec<FeedRow>>) {
        match changes {
            Some(rows) => self.reconcile_selective(version, &rows),
            None => self.reconcile_full(version),
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

/// The metastore version at a read transaction's snapshot: the last row of
/// its change feed, found by one seek.
pub fn read_ms_version(rt: &ReadTxn, ms: &Uid) -> u64 {
    let (start, end) = feed::head_range(ms);
    rt.pred_in_range(T_FEED, &start, &end).map_or(0, |(key, _)| feed::version_of(&key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::keys::T_TREE;
    use crate::types::SecurableKind;

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

    /// `e`'s row at `key`, as a load or a write hands it to the cache.
    fn tree_row(e: &Arc<Entity>, key: String) -> TreeRow {
        TreeRow { entity: e.clone(), key, raw: e.encode() }
    }

    fn cache_with(max_entries: usize) -> (MsCache, CacheStats) {
        let stats = CacheStats::default();
        let config = CacheConfig { max_entries, ..Default::default() };
        (MsCache::new(&config, stats.clone()), stats)
    }

    /// The tree key the tests file entity `id` under (its name may change
    /// from version to version; its key does not).
    fn nk(id: &str) -> String {
        keys::tree_key(&Uid::from("ms"), &[("relation", id)])
    }

    fn insert(cache: &MsCache, id: &str, name: &str, ver: u64) {
        cache.insert(tree_row(&entity(id, name), nk(id)), ver, None);
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
        c.reconcile_full(9);
        assert_eq!(c.entry_count(), 0);
        assert_eq!(c.version(), 9);
        assert_eq!(stats.full_reconciles.get(), 1);
    }

    /// A feed row touching the tree keys `keys`.
    fn row(keys: &[String]) -> FeedRow {
        FeedRow { tree: keys.to_vec(), ..Default::default() }
    }

    #[test]
    fn selective_reconcile_invalidates_only_touched() {
        let (c, stats) = cache_with(1000);
        insert(&c, "e1", "a", 1);
        insert(&c, "e2", "b", 1);
        c.reconcile_selective(2, &[row(&[nk("e1")])]);
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
        // or a remote change to e2 (a feed row naming K) finds nothing and
        // e2 is served stale by id.
        let k = nk("t");
        let (c, stats) = cache_with(1000);
        c.insert(tree_row(&entity("e1", "t"), k.clone()), 1, Some("pk/p".into()));
        c.insert_tombstone(&Uid::from("e1"), 2);
        c.insert(tree_row(&entity("e2", "t"), k.clone()), 3, Some("pk/p".into()));
        assert!(c.remove_entry(&Uid::from("e1")));
        assert_eq!(c.id_by_name(&k), Some(Uid::from("e2")));
        assert_eq!(c.id_by_path("pk/p"), Some(Uid::from("e2")));
        c.reconcile_selective(4, &[row(&[k])]);
        assert!(c.get_at(&Uid::from("e2"), 4).is_none(), "the change at K evicts e2");
        assert_eq!(stats.invalidations.get(), 1);
    }

    /// A reconcile reads its own metastore's feed range and nothing else:
    /// another metastore's row naming a key this cache holds invalidates
    /// nothing here.
    #[test]
    fn selective_reconcile_ignores_other_metastores() {
        let (db, c, stats, loads) = caught_up();
        read_id(&c, &db, "e1", &loads, |_| {}).unwrap();
        commit_in(&db, &Uid::from("other"), 2, &[nk("e1")]);
        commit(&db, 2, &[]);
        c.catch_up(&Uid::from("ms"), &db);
        assert_eq!((c.version(), stats.invalidations.get()), (2, 0));
        assert!(c.get_at(&Uid::from("e1"), 2).is_some());
    }

    #[test]
    fn lru_eviction_respects_cap_and_cleans_indexes() {
        let (c, stats) = cache_with(10);
        for i in 0..20 {
            c.insert(
                tree_row(&entity(&format!("e{i}"), &format!("n{i}")), format!("nk/n{i}")),
                1,
                Some(format!("pk/p{i}")),
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
                tree_row(&entity(&format!("e{i}"), &format!("n{i}")), format!("nk/n{i}")),
                1,
                Some(format!("pk/p{i}")),
            );
        }
        // Touch a subset spread across shards (ids hash apart),
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
    fn lru_eviction_takes_exactly_the_oldest_ticks() {
        // Touch the entries in a scrambled order, so age is unrelated to
        // insertion order and to shard; the batch must take exactly the
        // `excess` entries with the smallest ticks.
        const CAP: usize = 40;
        let (c, stats) = cache_with(CAP);
        let ids: Vec<Uid> = (0..CAP).map(|i| Uid::from(format!("e{i}").as_str())).collect();
        for (i, id) in ids.iter().enumerate() {
            insert(&c, id.as_str(), &format!("n{i}"), 1);
        }
        for i in (0..CAP).map(|i| (i * 17 + 5) % CAP) {
            assert!(c.get_at(&ids[i], 1).is_some());
        }
        let tick_of = |id: &Uid| c.entity_shard(id).read()[id].last_access.load(Ordering::Relaxed);
        let mut by_age: Vec<(u64, Uid)> = ids.iter().map(|id| (tick_of(id), id.clone())).collect();
        by_age.sort_unstable();
        // One more insert crosses the cap: `excess` = overage 1 + cap / 10.
        let excess = 1 + CAP / 10;
        insert(&c, "new", "new", 1);
        let mut expected: Vec<Uid> = by_age.into_iter().take(excess).map(|(_, id)| id).collect();
        expected.sort_unstable();
        let mut evicted: Vec<Uid> = ids.iter().filter(|id| c.get_at(id, 1).is_none()).cloned().collect();
        evicted.sort_unstable();
        assert_eq!(evicted, expected, "the evicted set is the {excess} oldest ticks");
        assert_eq!((stats.evictions.get() as usize, c.entry_count()), (excess, CAP + 1 - excess));
        for id in &evicted {
            assert!(c.id_by_name(&nk(id.as_str())).is_none(), "the name of {id} is unmapped");
        }
    }

    #[test]
    fn decoded_serves_the_held_entity_for_identical_bytes() {
        let (c, stats) = cache_with(1000);
        let e1 = entity("e1", "a");
        let row = tree_row(&e1, nk("e1"));
        c.insert(row.clone(), 1, None);
        let ticks = c.tick.load(Ordering::Relaxed);
        let held = c.decoded(&nk("e1"), &row.raw).unwrap();
        assert!(Arc::ptr_eq(&held, &e1), "the installed entity, not a decode");
        // Byte identity, not buffer identity: a copy of the row matches too.
        let copy = Bytes::from(row.raw.to_vec());
        assert!(Arc::ptr_eq(&c.decoded(&nk("e1"), &copy).unwrap(), &e1));
        assert_eq!(c.tick.load(Ordering::Relaxed), ticks, "recency is not touched");
        assert_eq!((stats.hits.get(), stats.misses.get()), (0, 0), "and nothing is counted");
    }

    #[test]
    fn decoded_decodes_bytes_the_entry_does_not_hold() {
        let (c, _) = cache_with(1000);
        let e1 = entity("e1", "a");
        c.insert(tree_row(&e1, nk("e1")), 1, None);
        let other = entity("e1", "b").encode();
        let differing = other.iter().zip(e1.encode().iter()).filter(|(x, y)| x != y).count();
        assert_eq!((other.len(), differing), (e1.encode().len(), 1), "the rows differ in one byte");
        let got = c.decoded(&nk("e1"), &other).unwrap();
        assert!(!Arc::ptr_eq(&got, &e1));
        assert_eq!(*got, Entity::decode(&other).unwrap());
        // A key the cache does not map is a decode as well.
        assert_eq!(*c.decoded(&nk("e2"), &other).unwrap(), Entity::decode(&other).unwrap());
    }

    #[test]
    fn decoded_fails_a_corrupt_row_under_a_cached_key() {
        let (c, _) = cache_with(1000);
        c.insert(tree_row(&entity("e1", "a"), nk("e1")), 1, None);
        let corrupt = c.decoded(&nk("e1"), &Bytes::from_static(b"{\"id\":"));
        assert!(matches!(corrupt, Err(crate::error::UcError::Database(_))), "{:?}", corrupt.map(|_| ()));
    }

    #[test]
    fn decoded_on_a_disabled_cache_never_probes() {
        let c = MsCache::new(&CacheConfig::disabled(), CacheStats::default());
        let e1 = entity("e1", "a");
        let row = tree_row(&e1, nk("e1"));
        // Held all the same (no protocol operation installs into a
        // disabled cache): a probe would find it.
        c.insert(row.clone(), 1, None);
        let got = c.decoded(&nk("e1"), &row.raw).unwrap();
        assert!(!Arc::ptr_eq(&got, &e1), "a disabled cache only decodes");
        assert_eq!(got, e1);
    }

    #[test]
    fn eviction_racing_readers_never_tears_the_pin() {
        // Evictions take shard write locks while readers probe shards and
        // read the pin. A reader must never see the pin move backwards or
        // panic, no matter how eviction and pin advance interleave with
        // its probes.
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
                        tree_row(&entity(&format!("w{v}"), &format!("wn{v}")), format!("nk/wn{v}")),
                        v,
                        Some(format!("pk/wp{v}")),
                    );
                    c.set_pin(v);
                }
            })
        };
        let mut readers = Vec::new();
        for r in 0..3 {
            let c = c.clone();
            readers.push(std::thread::spawn(move || {
                let mut last = 0u64;
                loop {
                    let v = c.version();
                    assert!(v >= last, "pin went backwards under eviction (reader {r})");
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
    fn pin_is_consistent_under_concurrent_advance() {
        let (c, _) = cache_with(1000);
        let c = std::sync::Arc::new(c);
        let writer = {
            let c = c.clone();
            std::thread::spawn(move || {
                for v in 1..=10_000u64 {
                    let _gate = c.write_gate();
                    c.set_pin(v);
                }
            })
        };
        let mut last = 0;
        while last < 10_000 {
            let v = c.version();
            assert!(v >= last, "pin went backwards");
            last = v.max(last);
            if writer.is_finished() {
                assert_eq!(c.version(), 10_000);
                break;
            }
        }
        writer.join().unwrap();
    }

    // ---- protocol step tests: the three operations against a bare `Db`,
    // no threads, no `UnityCatalog` ----

    /// Commit `ents` as metastore version `version`: their rows, and the
    /// feed row naming their keys.
    fn commit(db: &Db, version: u64, ents: &[&Arc<Entity>]) {
        let keys: Vec<String> = ents.iter().map(|e| nk(e.id.as_str())).collect();
        let mut tx = db.begin_write();
        for (e, key) in ents.iter().zip(&keys) {
            tx.put(T_TREE, key, e.encode());
        }
        tx.put(T_FEED, &feed::key(&Uid::from("ms"), version), row(&keys).encode());
        tx.commit().unwrap();
    }

    /// A feed row alone, in metastore `ms`.
    fn commit_in(db: &Db, ms: &Uid, version: u64, tree_keys: &[String]) {
        let mut tx = db.begin_write();
        tx.put(T_FEED, &feed::key(ms, version), row(tree_keys).encode());
        tx.commit().unwrap();
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
            |c, rt| {
                loads.set(loads.get() + 1);
                in_load(loads.get());
                let key = nk(id.as_str());
                let Some(raw) = rt.get(T_TREE, &key) else { return Ok((None, Vec::new())) };
                let entity = c.decoded(&key, &raw)?;
                Ok((Some(entity.clone()), vec![TreeRow { entity, key, raw }]))
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
        commit(&db, 2, &[&entity("e2", "b")]);
        read_id(&c, &db, "e2", &loads, |_| {}).unwrap();
        // Another node rewrites e2 at version 3 and adds e3 at version 4.
        commit(&db, 3, &[&entity("e2", "b2")]);
        commit(&db, 4, &[&entity("e3", "c")]);
        assert_eq!(read_id(&c, &db, "e1", &loads, |_| {}).unwrap().name, "a");
        assert_eq!(c.version(), 4, "reconciled to the snapshot's version");
        // Two reconciles beyond `caught_up`'s own (the e2 read found version
        // 2), the second invalidating exactly e2.
        assert_eq!((stats.selective_reconciles.get(), stats.invalidations.get()), (3, 1));
        assert!(c.get_at(&Uid::from("e2"), 4).is_none(), "the touched entry was invalidated");
        assert!(c.get_at(&Uid::from("e1"), 3).is_none(), "installed at the new version, not before it");
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
        let load = |c: &MsCache, rt: &ReadTxn| {
            let raw = rt.get(T_TREE, &nk("e1")).unwrap();
            let e1 = TreeRow { entity: c.decoded(&nk("e1"), &raw)?, key: nk("e1"), raw };
            Ok((e2.name.clone(), vec![e1, tree_row(&e2, nk("e2"))]))
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
        c.read_through(&ms, &db, |_, _| None, |_, _| Ok(((), vec![tree_row(&e1, nk("e1"))]))).unwrap();
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
                commit(&db, 2, &[&e2]);
                let mut fx = WriteEffects::default();
                fx.upserts.push(tree_row(&e2, nk("e2")));
                c.apply_write(&ms, &db, 1, &fx);
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
        c.set_pin(9); // a pin no snapshot of this database reaches
        assert_eq!(read_id(&c, &db, "e1", &loads, |_| {}).unwrap().name, "a");
        assert_eq!(loads.get() as usize, STALE_ROUNDS + 1);
        assert_eq!((stats.stale_retries.get() as usize, stats.misses.get()), (STALE_ROUNDS, 1));
        assert_eq!((c.entry_count(), c.version()), (0, 9), "served, not installed");
    }

    #[test]
    fn disabled_cache_never_probes_and_loads_once() {
        let db = Db::in_memory();
        let e1 = entity("e1", "a");
        commit(&db, 1, &[&e1]);
        let stats = CacheStats::default();
        let c = MsCache::new(&CacheConfig::disabled(), stats.clone());
        let (ms, loads) = (Uid::from("ms"), std::cell::Cell::new(0));
        let got = c.read_through(
            &ms,
            &db,
            |_, _| -> Option<(u32, u64)> { panic!("a disabled cache must not probe") },
            |_, _| {
                loads.set(loads.get() + 1);
                Ok((7, vec![tree_row(&e1, nk("e1"))]))
            },
        );
        assert_eq!((got.unwrap(), loads.get()), (7, 1));
        // The other two operations are no-ops as well.
        c.catch_up(&ms, &db);
        c.apply_write(&ms, &db, 0, &WriteEffects::default());
        assert_eq!((c.version(), c.entry_count()), (0, 0));
        assert_eq!((stats.hits.get(), stats.misses.get()), (0, 0));
    }

    #[test]
    fn apply_write_behind_a_later_reconcile_changes_nothing() {
        let (db, c, _, _) = caught_up();
        let ms = Uid::from("ms");
        // This node commits version 2; before it applies, another node
        // commits version 3 and a reconcile here consumes both.
        let e2 = entity("e2", "b");
        commit(&db, 2, &[&e2]);
        commit(&db, 3, &[&entity("e3", "c")]);
        c.catch_up(&ms, &db);
        assert_eq!(c.version(), 3);
        let mut fx = WriteEffects::default();
        fx.upserts.push(tree_row(&e2, nk("e2")));
        c.apply_write(&ms, &db, 1, &fx);
        assert_eq!(c.version(), 3, "a slow writer never regresses the pin");
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
