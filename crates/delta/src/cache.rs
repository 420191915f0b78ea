//! The node-local table cache: what this process already knows about the
//! tables behind one [`ObjectStore`].
//!
//! One `TableCache` exists per store (it lives in the store handle's
//! node-local slot, so every [`DeltaTable`](crate::DeltaTable) over the same
//! store — whichever engine, session or tool opened it — shares it). Per
//! table root it keeps the last snapshot together with the [`Head`] it was
//! built under. The snapshot carries one slot per data file it names,
//! built when it is installed (rows of files the previous entry held are
//! carried over) and filled once, by the first reader to decode the file:
//! a warm read finds the snapshot and every file's rows with one shared
//! acquisition of the cache's lock, and writes nothing the other readers
//! write.
//!
//! **Nothing here is trusted without validation.** A lookup is handed the
//! head the caller has *just* read from the store with its own credential;
//! the entry is reused only when that head equals the one it was built
//! under, extended when the head is ahead on the same log, and rebuilt
//! otherwise. Writers do not write through: a commit made by this process
//! is found the same way as one made by another, on the next lookup. The
//! cache therefore decides how much is read, never what is visible.
//!
//! Memory is bounded by a byte budget over an estimate of what the entries
//! hold; the least-recently-used tables are evicted whole. Recency is an
//! epoch: a lookup stamps its entry with the tick of the cache's last
//! change, and stores only when the stamp differs, so repeated hits on an
//! unchanged cache write nothing. Entries used since the last change tie.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use uc_cloudstore::{ObjectMeta, ObjectStore, StoragePath};
use uc_obs::{Counter, Gauge, Obs};

use crate::actions::AddFile;
use crate::datafile::FileRows;
use crate::log::{stamp_in_listing, Head};
use crate::snapshot::Snapshot;

/// Bytes one store's cache may hold.
pub const CACHE_BUDGET_BYTES: usize = 64 << 20;

/// What a heap allocation of `n` bytes occupies under a typical allocator
/// (8 bytes of header, 16-byte granules, 32-byte minimum) — for the
/// estimates the budget is charged by. Nothing is allocated for
/// `n == 0`.
pub(crate) fn alloc_bytes(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        ((n + 8 + 15) & !15).max(32)
    }
}

/// What a snapshot lookup found, given the head the caller just read.
pub(crate) enum Lookup {
    /// The entry was built under exactly this head.
    Fresh(Arc<Snapshot>),
    /// The head is ahead of the entry on the same log: replay the commits
    /// after the entry's version on top of it.
    Behind(Arc<Snapshot>),
    /// No entry, or one that this head does not continue.
    Miss,
}

/// What tells two data files at one path apart: size and modification
/// time, as the `add` action records them.
fn file_stamp(file: &AddFile) -> (u64, u64) {
    (file.size_bytes, file.modification_time_ms)
}

/// One data file's slot in a cached snapshot: its stamp, and its decoded
/// rows with their weight once a reader has decoded them.
struct FileSlot {
    stamp: (u64, u64),
    rows: OnceLock<(Arc<FileRows>, usize)>,
}

/// The decoded-rows slots of a snapshot the cache installed, by relative
/// path; empty for any other snapshot (a time-travel replay, a clone).
#[derive(Default)]
pub(crate) struct Decoded(HashMap<String, FileSlot>);

impl Clone for Decoded {
    /// A copy of a snapshot is not the cache's: it starts with no slots.
    fn clone(&self) -> Self {
        Decoded::default()
    }
}

impl std::fmt::Debug for Decoded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Decoded {{ slots: {}, held: {} }}", self.0.len(), self.held())
    }
}

impl Decoded {
    /// `file`'s slot, if the snapshot holding these slots names exactly it.
    fn slot(&self, file: &AddFile) -> Option<&FileSlot> {
        self.0.get(&file.path).filter(|slot| slot.stamp == file_stamp(file))
    }

    /// Files whose rows are held.
    fn held(&self) -> usize {
        self.0.values().filter(|s| s.rows.get().is_some()).count()
    }

    /// Weight of the rows held.
    fn weight(&self) -> usize {
        self.0.values().filter_map(|s| s.rows.get()).map(|(_, w)| *w).sum()
    }
}

struct TableEntry {
    head: Head,
    /// Carries the decoded rows of its files ([`Decoded`]).
    snapshot: Arc<Snapshot>,
    /// Snapshot plus the rows held.
    weight: usize,
    /// [`State::tick`] when a lookup last found this entry.
    last_used: AtomicU64,
}

#[derive(Default)]
struct State {
    tables: HashMap<StoragePath, TableEntry>,
    weight: usize,
    /// Advanced by every change, under the write lock.
    tick: u64,
}

/// See the module documentation.
pub struct TableCache {
    state: RwLock<State>,
    budget: usize,
    skip_validation: AtomicBool,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    bytes: Gauge,
}

impl TableCache {
    fn new(obs: &Obs, budget: usize) -> Self {
        TableCache {
            state: RwLock::new(State::default()),
            budget,
            skip_validation: AtomicBool::new(false),
            hits: obs.counter("delta.cache.hits"),
            misses: obs.counter("delta.cache.misses"),
            evictions: obs.counter("delta.cache.evictions"),
            bytes: obs.gauge("delta.cache.bytes"),
        }
    }

    /// The cache of `store`, created on first use; its counters go to the
    /// store's `Obs`.
    pub fn of(store: &ObjectStore) -> Arc<TableCache> {
        store.local(|| TableCache::new(store.obs(), CACHE_BUDGET_BYTES))
    }

    /// Test-only: give `store` a cache of `budget` bytes instead of
    /// [`CACHE_BUDGET_BYTES`], so eviction can be exercised with a few
    /// small files. Must run before anything opens a table on the store.
    #[doc(hidden)]
    pub fn install_with_budget(store: &ObjectStore, budget: usize) -> Arc<TableCache> {
        let cache = store.local(|| TableCache::new(store.obs(), budget));
        assert_eq!(cache.budget, budget, "the store already has a cache");
        cache
    }

    /// Test-only: reuse whatever entry exists without comparing it to the
    /// head the caller read. Readers then serve stale snapshots — the
    /// deliberate wound the freshness property must detect. Never call
    /// this outside that "teeth" test.
    #[doc(hidden)]
    pub fn set_unsafe_skip_validation(&self, skip: bool) {
        self.skip_validation.store(skip, Ordering::Relaxed);
    }

    /// Forget everything — this system's `drop_caches`, for a measurement
    /// that means a cold read.
    pub fn clear(&self) {
        let mut st = self.state.write();
        st.tick += 1;
        st.tables.clear();
        st.weight = 0;
        self.bytes.set(0);
    }

    /// Estimated bytes held now.
    pub fn weight_bytes(&self) -> usize {
        self.state.read().weight
    }

    /// The byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Tables with an entry.
    pub fn tables(&self) -> usize {
        self.state.read().tables.len()
    }

    /// Data files with decoded rows held for `root`.
    pub fn cached_files(&self, root: &StoragePath) -> usize {
        self.state.read().tables.get(root).map_or(0, |e| e.snapshot.decoded.held())
    }

    /// Compare `root`'s entry with `head`, which the caller has just read
    /// from the store together with `log_listing`. Counts a hit for
    /// [`Lookup::Fresh`] and a miss for anything else. One shared
    /// acquisition; the entry's recency stamp is stored only when the
    /// cache changed since it was last found.
    pub(crate) fn lookup(&self, root: &StoragePath, head: Head, log_listing: &[ObjectMeta]) -> Lookup {
        let entry = {
            let st = self.state.read();
            st.tables.get(root).map(|entry| {
                if entry.last_used.load(Ordering::Relaxed) != st.tick {
                    entry.last_used.store(st.tick, Ordering::Relaxed);
                }
                (entry.head, entry.snapshot.clone())
            })
        };
        let found = match entry {
            None => Lookup::Miss,
            Some((built_under, snapshot)) => {
                if built_under == head || self.skip_validation.load(Ordering::Relaxed) {
                    Lookup::Fresh(snapshot)
                } else if head.version > built_under.version
                    && head.stamp.is_some() == built_under.stamp.is_some()
                    && stamp_in_listing(log_listing, built_under.version) == built_under.stamp
                {
                    // The object the entry was built under is still the
                    // one at its version: same log, grown.
                    Lookup::Behind(snapshot)
                } else {
                    Lookup::Miss
                }
            }
        };
        match found {
            Lookup::Fresh(_) => self.hits.inc(),
            _ => self.misses.inc(),
        }
        found
    }

    /// Make `snapshot`, built under `head`, the entry of `root`, and return
    /// it as the cache holds it: with one slot per file it names, holding
    /// the rows the previous entry held for that file (same path, size and
    /// modification time). The rest are dropped.
    pub(crate) fn install(&self, root: &StoragePath, head: Head, mut snapshot: Snapshot) -> Arc<Snapshot> {
        let snapshot_weight = snapshot.approx_bytes();
        let mut st = self.state.write();
        st.tick += 1;
        let old = st.tables.remove(root);
        if let Some(old) = &old {
            st.weight -= old.weight;
        }
        let held = old.as_ref().map(|old| &old.snapshot.decoded);
        snapshot.decoded = Decoded(
            snapshot
                .files
                .iter()
                .map(|(path, file)| {
                    let rows = OnceLock::new();
                    if let Some(kept) = held.and_then(|held| held.slot(file)).and_then(|slot| slot.rows.get()) {
                        let _ = rows.set(kept.clone());
                    }
                    (path.clone(), FileSlot { stamp: file_stamp(file), rows })
                })
                .collect(),
        );
        let snapshot = Arc::new(snapshot);
        let weight = snapshot_weight + snapshot.decoded.weight();
        st.weight += weight;
        let last_used = AtomicU64::new(st.tick);
        st.tables.insert(root.clone(), TableEntry { head, snapshot: snapshot.clone(), weight, last_used });
        self.settle(&mut st);
        snapshot
    }

    /// The decoded rows of `file` of table `root`, if held: in
    /// `snapshot`'s own slot when the cache installed it, taking no lock;
    /// otherwise in the slot of `root`'s current entry. One hit or one miss
    /// per call.
    pub(crate) fn rows(&self, root: &StoragePath, snapshot: &Snapshot, file: &AddFile) -> Option<Arc<FileRows>> {
        let found = match snapshot.decoded.slot(file) {
            Some(slot) => slot.rows.get().map(|(rows, _)| rows.clone()),
            None => {
                let st = self.state.read();
                st.tables
                    .get(root)
                    .and_then(|e| e.snapshot.decoded.slot(file))
                    .and_then(|slot| slot.rows.get())
                    .map(|(rows, _)| rows.clone())
            }
        };
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Hold `rows`, just decoded from `file`, and return the shared copy:
    /// in the slot of `snapshot` when the cache installed it, otherwise in
    /// that of `root`'s current entry when it names exactly this file.
    /// Charged to the budget while the slot's snapshot is `root`'s entry.
    /// When another thread filled the slot first, its copy is returned and
    /// `rows` is dropped.
    pub(crate) fn install_rows(
        &self,
        root: &StoragePath,
        snapshot: &Snapshot,
        file: &AddFile,
        rows: FileRows,
    ) -> Arc<FileRows> {
        let weight = rows.approx_bytes();
        let rows = Arc::new(rows);
        let current = match snapshot.decoded.slot(file) {
            Some(_) => None,
            None => match self.state.read().tables.get(root) {
                Some(entry) => Some(entry.snapshot.clone()),
                None => return rows,
            },
        };
        let target = current.as_deref().unwrap_or(snapshot);
        let Some(slot) = target.decoded.slot(file) else { return rows };
        if slot.rows.set((rows.clone(), weight)).is_err() {
            return slot.rows.get().map_or(rows, |(present, _)| present.clone());
        }
        let mut st = self.state.write();
        let tick = st.tick + 1;
        let Some(entry) = st.tables.get_mut(root).filter(|e| std::ptr::eq(&*e.snapshot, target)) else {
            return rows;
        };
        entry.weight += weight;
        // The table just filled is the most recent: entries found since
        // the last change all carry the old tick, and must not tie with it.
        entry.last_used.store(tick, Ordering::Relaxed);
        st.weight += weight;
        st.tick = tick;
        self.settle(&mut st);
        rows
    }

    /// Evict least-recently-used tables until the budget holds, then
    /// publish the weight.
    fn settle(&self, st: &mut State) {
        while st.weight > self.budget {
            let Some(lru) = st
                .tables
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(root, _)| root.clone())
            else {
                break;
            };
            if let Some(evicted) = st.tables.remove(&lru) {
                st.weight -= evicted.weight;
                self.evictions.inc();
            }
        }
        self.bytes.set(st.weight as i64);
    }
}
