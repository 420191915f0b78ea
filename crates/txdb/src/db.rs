//! The database handle: partitioned versioned storage, commit sequencing,
//! and the snapshot horizon reclamation runs against.
//!
//! # Partitions
//!
//! Storage is split by key range. A key's partition is its first segment,
//! the text before its first `/` or [`CHAIN_SEP`] — for every catalog key
//! the metastore id — and a key with neither lives in the one global
//! partition (named `""`). Each [`Partition`] has its own rows (every
//! table's chains of its keys) under its own `RwLock`, its own commit lock
//! and its own dead-key FIFO, so readers and writers of one metastore never
//! wait on another's. What every commit shares is one sequencer: CSN
//! assignment, install and publication, in CSN order (see [`crate::txn`]).
//!
//! The partition map is copy-on-write: a new partition is added under the
//! snapshot registry's lock, and each transaction takes the map it will
//! read with its snapshot, under that same lock — so a read finds its
//! partition with no lock of its own. A partition missing from a
//! transaction's map was made after its snapshot, and holds nothing it may
//! see.
//!
//! # Reclamation
//!
//! Every `begin_read` registers its snapshot CSN and the reader's `Drop`
//! releases it; a `begin_write` holds such a reader. The **horizon** is the
//! oldest open snapshot, or the current CSN when none is open. Each commit
//! reclaims inside the row-map write locks it already holds: a chain it
//! writes keeps only its newest version at or below the horizon plus
//! everything newer, and a key it deletes joins its partition's FIFO of
//! dead keys, drained once the horizon passes the delete; a drained chain
//! is removed if it is still a lone tombstone. A commit drains the FIFOs of
//! the partitions it writes, and the sequencer keeps a [`Note`] per
//! partition with dead keys left: a commit also drains, after it
//! publishes, every other partition whose oldest dead key the horizon has
//! passed and that has gone idle (see [`Sequencer::take_idle`]) — so a
//! partition no commit writes again is still emptied, and one still being
//! written is left to its own commits. No
//! snapshot at or above the horizon can tell either change apart, a pruned
//! chain keeps its latest CSN (so commit validation is unchanged), and a
//! removed chain had no change after any open snapshot (so no scan, seek
//! or validation can miss it).

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Class, Mutex, RwLock};
use uc_cloudstore::faults::FaultPlan;
use uc_cloudstore::latency::{LatencyModel, OpClass};
use uc_obs::Obs;

use crate::pool::ConnectionPool;
use crate::stats::DbStats;
use crate::txn::{ReadTxn, WriteTxn, CHAIN_SEP};

/// One visible state of a row at a point in commit history.
#[derive(Debug, Clone)]
pub(crate) struct Version {
    pub csn: u64,
    /// `None` is a tombstone (the row was deleted at this CSN).
    pub value: Option<Bytes>,
}

/// Ascending-CSN version chain for a single row.
#[derive(Debug, Default, Clone)]
pub(crate) struct VersionChain {
    pub versions: Vec<Version>,
}

impl VersionChain {
    /// The version visible at `snapshot`, if any. Versions are appended in
    /// commit order, so CSNs ascend and visibility is a binary search.
    pub fn visible_at(&self, snapshot: u64) -> Option<&Version> {
        let idx = self.versions.partition_point(|v| v.csn <= snapshot);
        if idx == 0 {
            None
        } else {
            Some(&self.versions[idx - 1])
        }
    }

    /// CSN of the newest version, 0 if the chain is empty.
    pub fn latest_csn(&self) -> u64 {
        self.versions.last().map(|v| v.csn).unwrap_or(0)
    }

    /// Keep the newest version at or below `horizon` and everything newer:
    /// what every snapshot at or above the horizon can read. The newest
    /// version is always kept, so `latest_csn` does not move.
    pub fn prune(&mut self, horizon: u64) {
        let visible = self.versions.partition_point(|v| v.csn <= horizon);
        if visible > 1 {
            self.versions.drain(..visible - 1);
        }
    }

    /// Nothing but a tombstone at or below `horizon`: to every snapshot at
    /// or above it, the same as no chain at all.
    fn is_dead_at(&self, horizon: u64) -> bool {
        matches!(self.versions.as_slice(), [v] if v.value.is_none() && v.csn <= horizon)
    }
}

pub(crate) type Table = BTreeMap<String, VersionChain>;

/// The name of the partition `key` lives in: its first segment, or `""`
/// (the global partition) for a key with no `/` or [`CHAIN_SEP`].
pub(crate) fn partition_of(key: &str) -> &str {
    first_sep(key).map_or("", |i| &key[..i])
}

/// Byte offset of the first `/` or [`CHAIN_SEP`] in `s`; both are ASCII,
/// so it is a char boundary.
pub(crate) fn first_sep(s: &str) -> Option<usize> {
    s.bytes().position(|b| b == b'/' || b == CHAIN_SEP as u8)
}

/// The partitions a transaction can read, sorted by name.
pub(crate) type Parts = Vec<Arc<Partition>>;

/// The partition of `parts` named `name`, if it has one.
pub(crate) fn find<'a>(parts: &'a [Arc<Partition>], name: &str) -> Option<&'a Arc<Partition>> {
    parts.binary_search_by(|p| p.name.as_str().cmp(name)).ok().map(|i| &parts[i])
}

/// One key range's storage.
pub(crate) struct Partition {
    pub name: String,
    /// Held by a commit that touches the partition, from validation to
    /// publication; taken in name order.
    pub commit: Mutex<()>,
    pub rows: RwLock<Rows>,
}

/// A partition's tables and the keys its commits deleted. The FIFO is
/// changed only with the rows, so it shares their lock.
#[derive(Default)]
pub(crate) struct Rows {
    pub tables: BTreeMap<String, Table>,
    /// Keys deleted by commits, `(csn, table, key)` in commit order.
    pub dead: VecDeque<(u64, String, String)>,
}

impl Rows {
    /// Drain the dead keys the horizon has passed: a chain that is still a
    /// lone tombstone once pruned is removed; one written again since is
    /// left to the FIFO entry of its newer delete, if any.
    pub fn remove_dead(&mut self, horizon: u64) {
        while self.dead.front().is_some_and(|(csn, _, _)| *csn <= horizon) {
            let Some((_, table, key)) = self.dead.pop_front() else { break };
            let Some(t) = self.tables.get_mut(&table) else { continue };
            if let Some(chain) = t.get_mut(&key) {
                chain.prune(horizon);
                if chain.is_dead_at(horizon) {
                    t.remove(&key);
                }
            }
        }
    }

    /// The CSN of the oldest dead key `remove_dead(horizon)` leaves.
    pub fn dead_after(&self, horizon: u64) -> Option<u64> {
        self.dead.iter().map(|(csn, _, _)| *csn).find(|csn| *csn > horizon)
    }
}

/// A partition with dead keys left, as a commit or a drain left it.
pub(crate) struct Note {
    /// The CSN of its oldest dead key.
    oldest: u64,
    /// The commit that last wrote or drained it.
    at: u64,
    part: Arc<Partition>,
}

/// The section every commit shares (CSN assignment, install, publication),
/// and what it knows of the dead keys: a [`Note`] per partition with some
/// left.
#[derive(Default)]
pub(crate) struct Sequencer {
    dead: Vec<Note>,
}

impl Sequencer {
    /// Commit `at` wrote or drained `p`, whose oldest dead key is now at
    /// `oldest` (`None`: it has none).
    pub fn note(&mut self, p: &Arc<Partition>, oldest: Option<u64>, at: u64) {
        self.dead.retain(|n| !Arc::ptr_eq(p, &n.part));
        if let Some(oldest) = oldest {
            self.dead.push(Note { oldest, at, part: Arc::clone(p) });
        }
    }

    /// Take the notes of the partitions commit `now` drains for their
    /// writers: those whose oldest dead key `horizon` has passed, and that
    /// no commit has written for four times as many commits as there are
    /// notes — a partition's own commits drain it while it is written, so
    /// a commit of another partition steps in only once it has gone idle.
    pub fn take_idle(&mut self, horizon: u64, now: u64) -> Vec<Note> {
        let idle = 4 * self.dead.len() as u64;
        let mut taken = Vec::new();
        let mut i = 0;
        while i < self.dead.len() {
            let n = &self.dead[i];
            if n.oldest <= horizon && now - n.at >= idle {
                taken.push(self.dead.swap_remove(i));
            } else {
                i += 1;
            }
        }
        taken
    }
}

/// Open snapshot CSNs with their open counts, oldest first. The CSN only
/// grows, so a registration appends (or bumps the newest entry) and the
/// deque stays sorted; it never allocates once it has grown.
#[derive(Default)]
pub(crate) struct Snapshots(VecDeque<(u64, usize)>);

impl Snapshots {
    fn register(&mut self, csn: u64) {
        match self.0.back_mut() {
            Some((newest, n)) if *newest == csn => *n += 1,
            _ => self.0.push_back((csn, 1)),
        }
    }

    /// Close one snapshot at `csn`. A closed entry between two open ones
    /// stays until it reaches an end; it never decides the horizon.
    fn release(&mut self, csn: u64) {
        let i = self.0.partition_point(|(c, _)| *c < csn);
        if let Some((_, n)) = self.0.get_mut(i).filter(|(c, _)| *c == csn) {
            *n -= 1;
        }
        while self.0.front().is_some_and(|(_, n)| *n == 0) {
            self.0.pop_front();
        }
        while self.0.back().is_some_and(|(_, n)| *n == 0) {
            self.0.pop_back();
        }
    }

    fn oldest(&self) -> Option<u64> {
        self.0.front().map(|(csn, _)| *csn)
    }
}

/// The open snapshots and the partition map a new snapshot reads.
pub(crate) struct Registry {
    pub open: Snapshots,
    pub parts: Arc<Parts>,
}

/// Tuning knobs for the simulated database.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Concurrent connections (Fig 10(b)'s bottleneck resource).
    pub pool_size: usize,
    /// Injected latency per operation class.
    pub latency: LatencyModel,
    /// Fault plan consulted at the commit boundary (chaos tests).
    pub faults: FaultPlan,
    /// Observability handle; `txdb.*` counters and commit spans are
    /// recorded into it.
    pub obs: Obs,
}

impl Default for DbConfig {
    fn default() -> Self {
        // Unit-test defaults: ample pool, no injected latency, no faults.
        DbConfig {
            pool_size: 64,
            latency: LatencyModel::zero(),
            faults: FaultPlan::disabled(),
            obs: Obs::disabled(),
        }
    }
}

pub(crate) struct DbInner {
    /// Last committed CSN. Snapshots read this under `snapshots`.
    pub csn: AtomicU64,
    /// Open snapshots (their oldest is the horizon) and the partition map.
    pub snapshots: Mutex<Registry>,
    /// Partitions made so far: a commit that validated against all of them
    /// tells from this whether one was made since. Stored under the
    /// registry lock before the maker's commit takes the sequencer, and
    /// read under the sequencer, whose lock orders it; so `Relaxed`.
    pub made: AtomicUsize,
    pub sequencer: Mutex<Sequencer>,
    pub pool: ConnectionPool,
    pub latency: LatencyModel,
    pub stats: DbStats,
    pub faults: FaultPlan,
    pub obs: Obs,
    /// Test-only mutation switch: when set, commits skip serializability
    /// validation entirely. Exists so the history checker can prove it
    /// detects the resulting lost-update/duplicate-version anomalies.
    pub weaken_validation: AtomicBool,
    /// Test-only mutation switch: when set, reclamation ignores open
    /// snapshots. Exists so uc-check can prove it detects a reader losing
    /// its snapshot.
    pub weaken_gc: AtomicBool,
}

/// Shareable database handle. Cloning shares the storage — the model for
/// multiple catalog nodes over one backend database.
#[derive(Clone)]
pub struct Db {
    pub(crate) inner: Arc<DbInner>,
}

impl Db {
    pub fn new(config: DbConfig) -> Self {
        Db {
            inner: Arc::new(DbInner {
                csn: AtomicU64::new(0),
                snapshots: Mutex::ranked(Class::TxdbSnapshots, Registry { open: Snapshots::default(), parts: Arc::default() }),
                made: AtomicUsize::new(0),
                sequencer: Mutex::ranked(Class::TxdbSequencer, Sequencer::default()),
                pool: ConnectionPool::wired(config.pool_size, config.obs.registry()),
                latency: config.latency,
                stats: DbStats::wired(config.obs.registry()),
                faults: config.faults,
                obs: config.obs,
                weaken_validation: AtomicBool::new(false),
                weaken_gc: AtomicBool::new(false),
            }),
        }
    }

    /// Database with default (test) configuration.
    pub fn in_memory() -> Self {
        Db::new(DbConfig::default())
    }

    /// Last committed commit sequence number.
    pub fn current_csn(&self) -> u64 {
        self.inner.csn.load(Ordering::Acquire)
    }

    /// Begin a snapshot-isolated read-only transaction.
    pub fn begin_read(&self) -> ReadTxn {
        let (snapshot, parts) = self.open_snapshot();
        ReadTxn::new(self.clone(), snapshot, parts)
    }

    /// Begin a serializable read-write transaction: a reader, plus the
    /// writes it buffers.
    pub fn begin_write(&self) -> WriteTxn {
        WriteTxn::new(self.begin_read())
    }

    /// Register a snapshot at the current CSN, with the partition map it
    /// reads. The CSN is read under the registry lock the horizon is
    /// computed under, so a horizon can never pass a snapshot that is about
    /// to open; and a partition is added under it too, so one missing from
    /// the map was made after the snapshot.
    fn open_snapshot(&self) -> (u64, Arc<Parts>) {
        let mut reg = self.inner.snapshots.lock();
        let csn = self.current_csn();
        reg.open.register(csn);
        (csn, Arc::clone(&reg.parts))
    }

    /// Release a snapshot registered by [`Self::open_snapshot`].
    pub(crate) fn close_snapshot(&self, csn: u64) {
        self.inner.snapshots.lock().open.release(csn);
    }

    /// The snapshot horizon: the oldest open snapshot's CSN, or the current
    /// CSN when none is open. Reclamation keeps everything a snapshot at or
    /// above it can read.
    pub fn horizon(&self) -> u64 {
        let reg = self.inner.snapshots.lock();
        reg.open.oldest().unwrap_or_else(|| self.current_csn())
    }

    /// Every partition now.
    pub(crate) fn partitions(&self) -> Arc<Parts> {
        Arc::clone(&self.inner.snapshots.lock().parts)
    }

    /// Every partition now, with those named `names` (sorted, distinct)
    /// made where missing.
    pub(crate) fn partitions_with(&self, names: &[&str]) -> Arc<Parts> {
        let mut reg = self.inner.snapshots.lock();
        if names.iter().any(|n| find(&reg.parts, n).is_none()) {
            let mut parts = Parts::clone(&reg.parts);
            for name in names {
                if let Err(i) = parts.binary_search_by(|p| p.name.as_str().cmp(name)) {
                    let rows = RwLock::ranked(Class::TxdbRows, Rows::default());
                    parts.insert(i, Arc::new(Partition { name: name.to_string(), commit: Mutex::ranked(Class::TxdbCommit, ()), rows }));
                }
            }
            self.inner.made.store(parts.len(), Ordering::Relaxed);
            reg.parts = Arc::new(parts);
        }
        Arc::clone(&reg.parts)
    }

    /// The horizon a commit reclaims against — the current CSN, open
    /// snapshots ignored, under the test-only weakened-GC switch.
    pub(crate) fn reclaim_horizon(&self) -> u64 {
        if self.inner.weaken_gc.load(Ordering::Relaxed) {
            self.current_csn()
        } else {
            self.horizon()
        }
    }

    /// Operation counters.
    pub fn stats(&self) -> &DbStats {
        &self.inner.stats
    }

    /// Connection pool (exposed for wait diagnostics in benches).
    pub fn pool(&self) -> &ConnectionPool {
        &self.inner.pool
    }

    /// Fault plan consulted at the commit boundary.
    pub fn faults(&self) -> &FaultPlan {
        &self.inner.faults
    }

    /// Observability handle this database records into.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Test-only: disable (or restore) commit-time serializability
    /// validation. With validation off, concurrent writers silently lose
    /// updates — the deliberate wound `uc-check` must detect. Never call
    /// this outside checker "teeth" tests.
    #[doc(hidden)]
    pub fn set_unsafe_skip_commit_validation(&self, skip: bool) {
        self.inner.weaken_validation.store(skip, Ordering::Relaxed);
    }

    /// Test-only: make reclamation ignore open snapshots (the horizon is
    /// always the current CSN), so a long-lived reader loses the versions
    /// it reads — the deliberate wound `uc-check` must detect. Never call
    /// this outside checker "teeth" tests.
    #[doc(hidden)]
    pub fn set_unsafe_gc_ignore_snapshots(&self, ignore: bool) {
        self.inner.weaken_gc.store(ignore, Ordering::Relaxed);
    }

    /// Total number of live (non-tombstone latest) rows across all tables.
    pub fn live_rows(&self) -> usize {
        let rt = self.begin_read();
        let snapshot = rt.snapshot_csn();
        let live = |rows: &Rows| {
            let chains = rows.tables.values().flat_map(|t| t.values());
            chains.filter(|chain| chain.visible_at(snapshot).is_some_and(|v| v.value.is_some())).count()
        };
        rt.parts().iter().map(|p| live(&p.rows.read())).sum()
    }

    /// What the heap holds: `(chains, versions)` across all tables, dead
    /// chains and superseded versions included.
    pub fn resident(&self) -> (usize, usize) {
        let held = |rows: &Rows| {
            let chains = rows.tables.values().flat_map(|t| t.values());
            chains.fold((0, 0), |(c, v), chain| (c + 1, v + chain.versions.len()))
        };
        self.partitions()
            .iter().map(|p| held(&p.rows.read())).fold((0, 0), |(c, v), (pc, pv)| (c + pc, v + pv))
    }

    /// Drain the dead keys up to `horizon` of the partition commit `now`
    /// took the note of, and note what is left. Rows some other reader or
    /// writer holds are not waited for: the note goes back as it was.
    pub(crate) fn drain(&self, note: Note, horizon: u64, now: u64) {
        let p = &note.part;
        let Some(mut rows) = p.rows.try_write() else {
            self.inner.sequencer.lock().note(p, Some(note.oldest), note.at);
            return;
        };
        rows.remove_dead(horizon);
        if let Some((left, _, _)) = rows.dead.front() {
            self.inner.sequencer.lock().note(p, Some(*left), now);
        }
    }

    /// Apply an operation's pool + latency cost. Internal to the crate.
    pub(crate) fn charge(&self, class: OpClass) {
        let _permit = self.inner.pool.acquire();
        self.inner.latency.apply(class);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put1(db: &Db, key: &str, val: &str) -> u64 {
        let mut tx = db.begin_write();
        tx.put("t", key, Bytes::from(val.to_string()));
        tx.commit().unwrap()
    }

    fn del1(db: &Db, key: &str) -> u64 {
        let mut tx = db.begin_write();
        tx.delete("t", key);
        tx.commit().unwrap()
    }

    fn versions(db: &Db, key: &str) -> Option<usize> {
        let parts = db.partitions();
        let rows = find(&parts, partition_of(key))?.rows.read();
        rows.tables.get("t")?.get(key).map(|c| c.versions.len())
    }

    #[test]
    fn empty_db_reads_nothing() {
        let db = Db::in_memory();
        assert_eq!(db.current_csn(), 0);
        assert_eq!(db.begin_read().get("t", "k"), None);
        assert_eq!(db.live_rows(), 0);
        assert_eq!(db.resident(), (0, 0));
    }

    #[test]
    fn gc_trims_old_versions_but_keeps_visible_one() {
        let db = Db::in_memory();
        for i in 0..5 {
            put1(&db, "k", &format!("v{i}"));
        }
        assert_eq!(db.current_csn(), 5);
        assert_eq!(db.begin_read().get("t", "k"), Some(Bytes::from_static(b"v4")));
        assert_eq!(versions(&db, "k"), Some(2), "no snapshot open: the newest at the horizon plus the new one");
    }

    #[test]
    fn gc_removes_old_tombstones() {
        let db = Db::in_memory();
        put1(&db, "k", "v");
        del1(&db, "k");
        assert_eq!(versions(&db, "k"), Some(2), "a delete's own commit cannot pass it");
        put1(&db, "other", "x");
        assert_eq!(versions(&db, "k"), None, "the next commit drains the lone tombstone");
        assert_eq!(db.resident(), (1, 1));
    }

    #[test]
    fn gc_preserves_versions_above_horizon() {
        let db = Db::in_memory();
        put1(&db, "k", "old");
        put1(&db, "gone", "x");
        let held = db.begin_read();
        assert_eq!(db.horizon(), held.snapshot_csn());
        for i in 0..4 {
            put1(&db, "k", &format!("new{i}"));
        }
        del1(&db, "gone");
        put1(&db, "k", "newest");
        // A ReadTxn held open across commits still reads its versions.
        assert_eq!(held.get("t", "k"), Some(Bytes::from_static(b"old")));
        assert_eq!(held.get("t", "gone"), Some(Bytes::from_static(b"x")));
        assert_eq!(versions(&db, "k"), Some(6), "nothing at or above the held snapshot is reclaimed");
        drop(held);
        assert_eq!(db.horizon(), db.current_csn());
        put1(&db, "k", "after");
        assert_eq!(versions(&db, "k"), Some(2));
        assert_eq!(versions(&db, "gone"), None, "a lone tombstone is gone once the horizon passes it");
    }

    #[test]
    fn a_key_written_again_after_its_delete_is_not_removed() {
        let db = Db::in_memory();
        put1(&db, "k", "a");
        del1(&db, "k");
        put1(&db, "k", "b");
        put1(&db, "other", "x");
        assert_eq!(db.begin_read().get("t", "k"), Some(Bytes::from_static(b"b")));
        del1(&db, "k");
        put1(&db, "other", "y");
        assert_eq!(versions(&db, "k"), None, "the newer delete's FIFO entry removes it");
    }

    #[test]
    fn the_horizon_is_the_oldest_open_snapshot() {
        let db = Db::in_memory();
        put1(&db, "k", "v");
        let a = db.begin_read();
        put1(&db, "k", "w");
        let b = db.begin_write();
        let c = db.begin_read();
        assert_eq!((a.snapshot_csn(), b.snapshot_csn(), c.snapshot_csn()), (1, 2, 2));
        assert_eq!(db.horizon(), 1);
        drop(a);
        assert_eq!(db.horizon(), 2);
        drop(c);
        assert_eq!(db.horizon(), 2, "b still holds 2");
        drop(b);
        assert_eq!(db.horizon(), db.current_csn());
        assert!(db.inner.snapshots.lock().open.0.is_empty());
    }

    #[test]
    fn a_closed_snapshot_between_open_ones_never_decides_the_horizon() {
        let mut s = Snapshots::default();
        for csn in [1, 2, 3] {
            s.register(csn);
        }
        s.release(2);
        assert_eq!(s.oldest(), Some(1));
        s.release(1);
        assert_eq!((s.oldest(), s.0.len()), (Some(3), 1), "the closed middle entry left with the front");
    }

    #[test]
    fn a_key_lives_in_the_partition_of_its_first_segment() {
        assert_eq!(partition_of("ms1/ent"), "ms1");
        assert_eq!(partition_of("ms1\u{1}c\u{1}"), "ms1");
        assert_eq!(partition_of("ms1\u{1}c/d"), "ms1");
        assert_eq!(partition_of("alice"), "", "a key with no separator is global");
    }

    #[test]
    fn a_partition_no_commit_writes_is_drained_once_idle() {
        let db = Db::in_memory();
        put1(&db, "a/k", "v");
        del1(&db, "a/k");
        // One partition has dead keys: it is idle after 4 commits that
        // are not its own.
        for _ in 0..3 {
            put1(&db, "b/k", "w");
        }
        assert_eq!(versions(&db, "a/k"), Some(2), "b's commits leave a's keys to a while it may still be written");
        put1(&db, "b/k", "w");
        assert_eq!(versions(&db, "a/k"), None, "the fourth drains the idle partition");
        assert_eq!(db.resident(), (1, 2));
    }

    #[test]
    fn weakened_gc_reclaims_under_an_open_snapshot() {
        let db = Db::in_memory();
        put1(&db, "k", "old");
        let held = db.begin_read();
        db.set_unsafe_gc_ignore_snapshots(true);
        put1(&db, "k", "new");
        put1(&db, "k", "newer");
        assert_eq!(held.get("t", "k"), None, "the wound: the held snapshot lost its version");
    }

}

#[cfg(test)]
mod more_tests {
    use super::*;

    fn put1(db: &Db, key: &str, val: &str) -> u64 {
        let mut tx = db.begin_write();
        tx.put("t", key, Bytes::from(val.to_string()));
        tx.commit().unwrap()
    }

    #[test]
    fn begin_read_registers_the_current_csn_until_dropped() {
        let db = Db::in_memory();
        put1(&db, "k", "v");
        let rt = db.begin_read();
        assert_eq!(rt.snapshot_csn(), db.current_csn());
        put1(&db, "k", "w");
        assert_eq!(db.horizon(), rt.snapshot_csn(), "the open snapshot holds the horizon");
        assert_eq!(rt.get("t", "k"), Some(Bytes::from_static(b"v")));
        drop(rt);
        assert_eq!(db.horizon(), db.current_csn());
    }

    #[test]
    fn live_rows_counts_only_visible_rows() {
        let db = Db::in_memory();
        for key in ["a", "b", "c"] {
            put1(&db, key, "v");
        }
        assert_eq!(db.live_rows(), 3);
        let mut tx = db.begin_write();
        tx.delete("t", "b");
        tx.commit().unwrap();
        assert_eq!(db.live_rows(), 2);
    }

    #[test]
    fn pool_wait_stats_accumulate_under_contention() {
        let db = Db::new(DbConfig {
            pool_size: 1,
            latency: LatencyModel::uniform(std::time::Duration::from_millis(2)),
            ..Default::default()
        });
        put1(&db, "k", "v");
        let mut handles = Vec::new();
        for _ in 0..4 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    let _ = db.begin_read().get("t", "k");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(db.pool().waits() > 0, "pool of 1 must have queued readers");
        assert!(db.pool().total_wait() > std::time::Duration::ZERO);
    }
}
