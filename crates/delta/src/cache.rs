//! The node-local table cache: what this process already knows about the
//! tables behind one [`ObjectStore`].
//!
//! One `TableCache` exists per store (it lives in the store handle's
//! node-local slot, so every [`DeltaTable`](crate::DeltaTable) over the same
//! store — whichever engine, session or tool opened it — shares it). Per
//! table root it keeps the last snapshot together with the [`Head`] it was
//! built under, and per data file that snapshot names, the decoded rows.
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
//! hold; the least-recently-used tables are evicted whole.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
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

struct CachedFile {
    stamp: (u64, u64),
    rows: Arc<FileRows>,
    weight: usize,
}

struct TableEntry {
    head: Head,
    snapshot: Arc<Snapshot>,
    /// Decoded rows of files `snapshot` names, by relative path.
    files: HashMap<String, CachedFile>,
    /// Snapshot plus files.
    weight: usize,
    last_used: u64,
}

#[derive(Default)]
struct State {
    tables: HashMap<StoragePath, TableEntry>,
    weight: usize,
    tick: u64,
}

/// See the module documentation.
pub struct TableCache {
    state: Mutex<State>,
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
            state: Mutex::new(State::default()),
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
        let mut st = self.state.lock();
        st.tables.clear();
        st.weight = 0;
        self.bytes.set(0);
    }

    /// Estimated bytes held now.
    pub fn weight_bytes(&self) -> usize {
        self.state.lock().weight
    }

    /// The byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Tables with an entry.
    pub fn tables(&self) -> usize {
        self.state.lock().tables.len()
    }

    /// Data files with decoded rows held for `root`.
    pub fn cached_files(&self, root: &StoragePath) -> usize {
        self.state.lock().tables.get(root).map_or(0, |e| e.files.len())
    }

    /// Compare `root`'s entry with `head`, which the caller has just read
    /// from the store together with `log_listing`. Counts a hit for
    /// [`Lookup::Fresh`] and a miss for anything else.
    pub(crate) fn lookup(&self, root: &StoragePath, head: Head, log_listing: &[ObjectMeta]) -> Lookup {
        let entry = {
            let mut st = self.state.lock();
            st.tick += 1;
            let tick = st.tick;
            st.tables.get_mut(root).map(|entry| {
                entry.last_used = tick;
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

    /// Make `snapshot`, built under `head`, the entry of `root`. Rows of
    /// files it still names (same path, size and modification time) are
    /// kept; the rest are dropped.
    pub(crate) fn install(&self, root: &StoragePath, head: Head, snapshot: Arc<Snapshot>) {
        let snapshot_weight = snapshot.approx_bytes();
        let mut st = self.state.lock();
        st.tick += 1;
        let mut files = match st.tables.remove(root) {
            Some(old) => {
                st.weight -= old.weight;
                old.files
            }
            None => HashMap::new(),
        };
        files.retain(|path, cached| snapshot.files.get(path).is_some_and(|f| cached.stamp == file_stamp(f)));
        let weight = snapshot_weight + files.values().map(|f| f.weight).sum::<usize>();
        st.weight += weight;
        let entry = TableEntry { head, snapshot, files, weight, last_used: st.tick };
        st.tables.insert(root.clone(), entry);
        self.settle(&mut st);
    }

    /// The decoded rows of `file` of table `root`, if held. One hit or one
    /// miss per call.
    pub(crate) fn rows(&self, root: &StoragePath, file: &AddFile) -> Option<Arc<FileRows>> {
        let found = {
            let st = self.state.lock();
            st.tables
                .get(root)
                .and_then(|e| e.files.get(&file.path))
                .filter(|cached| cached.stamp == file_stamp(file))
                .map(|cached| cached.rows.clone())
        };
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Hold `rows`, just decoded from `file`, and return the shared copy.
    /// Held only while `root`'s current snapshot names exactly this file;
    /// when another thread installed the same file first, its copy is
    /// returned and `rows` is dropped.
    pub(crate) fn install_rows(&self, root: &StoragePath, file: &AddFile, rows: FileRows) -> Arc<FileRows> {
        let weight = rows.approx_bytes();
        let rows = Arc::new(rows);
        let mut st = self.state.lock();
        let Some(entry) = st.tables.get_mut(root) else { return rows };
        let named =
            entry.snapshot.files.get(&file.path).is_some_and(|f| file_stamp(f) == file_stamp(file));
        if !named {
            return rows;
        }
        if let Some(present) = entry.files.get(&file.path) {
            return present.rows.clone();
        }
        entry.files.insert(
            file.path.clone(),
            CachedFile { stamp: file_stamp(file), rows: rows.clone(), weight },
        );
        entry.weight += weight;
        st.weight += weight;
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
                .min_by_key(|(_, e)| e.last_used)
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
