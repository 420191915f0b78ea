//! `DeltaTable`: the user-facing handle combining data files, the log, and
//! a commit coordinator.
//!
//! All methods take the caller's [`Credential`] explicitly — in the
//! governed system engines hold only short-lived vended tokens. Every
//! operation presents its token to storage at least once, on the table's
//! log directory, before anything the node-local [`TableCache`] holds is
//! returned; what the cache saves is re-reading objects that listing shows
//! unchanged.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use uc_cloudstore::{Credential, ObjectMeta, ObjectStore, StoragePath};

use crate::actions::{
    Action, AddFile, CommitInfo, MetaData, Protocol, RemoveFile,
};
use crate::cache::{Lookup, TableCache};
use crate::datafile::{collect_stats, encode_rows, FileRows};
use crate::error::{DeltaError, DeltaResult};
use crate::expr::{EvalContext, Expr};
use crate::log::{
    checkpoint_in_listing, read_commits, write_commit, CommitCoordinator, Head,
    StorageCommitCoordinator, LOG_DIR,
};
use crate::snapshot::Snapshot;
use crate::value::{Row, Schema};

/// Process-unique suffix source for data file names.
static FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Write a checkpoint every this many commits (the Delta protocol's
/// default cadence).
pub const CHECKPOINT_INTERVAL: i64 = 10;

/// Scheduler yield point between reading a table's head from the store and
/// looking the table up in the cache — the window in which another client
/// may commit or install (see `uc_cloudstore::sched`).
pub const YIELD_SNAPSHOT_HEAD: &str = "delta.snapshot.head";

/// Scheduler yield point between missing a data file in the cache and
/// fetching it — the window in which another client may miss the same
/// file, so that both decode it and both offer it to the cache.
pub const YIELD_FILE_MISS: &str = "delta.file.miss";

/// Result of an OPTIMIZE run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeMetrics {
    pub files_removed: usize,
    pub files_added: usize,
    pub rows_rewritten: u64,
}

/// Result of a VACUUM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VacuumMetrics {
    pub objects_deleted: usize,
    pub bytes_reclaimed: u64,
}

/// A handle to a Delta-style table rooted at a storage path.
pub struct DeltaTable {
    store: ObjectStore,
    path: StoragePath,
    log_dir: StoragePath,
    coordinator: Arc<dyn CommitCoordinator>,
    /// The store's node-local cache, shared with every other handle.
    cache: Arc<TableCache>,
}

impl DeltaTable {
    /// Open a table with the default storage-based commit coordinator.
    pub fn open(store: ObjectStore, path: StoragePath) -> Self {
        let coordinator = Arc::new(StorageCommitCoordinator::new(store.clone(), &path));
        DeltaTable::with_coordinator(store, path, coordinator)
    }

    /// Open a table with a custom (e.g. catalog-owned) coordinator.
    pub fn with_coordinator(
        store: ObjectStore,
        path: StoragePath,
        coordinator: Arc<dyn CommitCoordinator>,
    ) -> Self {
        let cache = TableCache::of(&store);
        let log_dir = path.child(LOG_DIR);
        DeltaTable { store, path, log_dir, coordinator, cache }
    }

    /// Create the table: commit version 0 with protocol + metadata.
    pub fn create(
        store: ObjectStore,
        path: StoragePath,
        cred: &Credential,
        table_id: &str,
        schema: Schema,
    ) -> DeltaResult<Self> {
        let table = DeltaTable::open(store, path);
        table.create_with(cred, table_id, schema)?;
        Ok(table)
    }

    /// Create through this handle's coordinator (for catalog-owned tables).
    pub fn create_with(&self, cred: &Credential, table_id: &str, schema: Schema) -> DeltaResult<()> {
        let actions = vec![
            Action::Protocol(Protocol::default()),
            Action::MetaData(MetaData {
                id: table_id.to_string(),
                schema,
                partition_columns: vec![],
                configuration: BTreeMap::new(),
            }),
            Action::CommitInfo(CommitInfo {
                operation: "CREATE TABLE".into(),
                timestamp_ms: self.now_ms(),
                ..Default::default()
            }),
        ];
        write_commit(self.coordinator.as_ref(), cred, 0, &actions)
    }

    pub fn path(&self) -> &StoragePath {
        &self.path
    }

    pub fn coordinator(&self) -> &Arc<dyn CommitCoordinator> {
        &self.coordinator
    }

    /// Current snapshot. One credentialed listing of the log directory
    /// finds the head; the cached snapshot is returned when it was built
    /// under that head, extended by the commits after it when the head is
    /// ahead on the same log, and otherwise rebuilt from the newest
    /// checkpoint (or the start of the log) and installed.
    pub fn snapshot(&self, cred: &Credential) -> DeltaResult<Arc<Snapshot>> {
        let (head, listing) = self.find_head(cred)?;
        uc_cloudstore::sched::yield_point(YIELD_SNAPSHOT_HEAD);
        let base = match self.cache.lookup(&self.path, head, &listing) {
            Lookup::Fresh(snapshot) => return Ok(snapshot),
            Lookup::Behind(base) => Some(base),
            Lookup::Miss => None,
        };
        let extended = match base {
            Some(base) => self.extend(cred, &base, head)?,
            None => None,
        };
        let snapshot = Arc::new(match extended {
            Some(snapshot) => snapshot,
            None => self.build(cred, head, &listing)?,
        });
        self.cache.install(&self.path, head, snapshot.clone());
        Ok(snapshot)
    }

    /// Replay the commits after `base` up to `head` on top of it. `None`
    /// when one of them is gone (log cleanup behind a checkpoint): the
    /// caller rebuilds instead.
    fn extend(&self, cred: &Credential, base: &Snapshot, head: Head) -> DeltaResult<Option<Snapshot>> {
        let log = match read_commits(self.coordinator.as_ref(), cred, base.version + 1..=head.version) {
            Ok(log) => log,
            Err(DeltaError::Corrupt(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        uc_obs::span_event(
            "delta.snapshot",
            &format!("version={} replayed={} from_cached={}", head.version, log.len(), base.version),
        );
        Snapshot::replay_from(Some(base.clone()), &log).map(Some)
    }

    /// The one store call every operation starts with: list the log
    /// directory with the caller's credential and let the coordinator name
    /// the head. The listing also shows the checkpoints and, for a log kept
    /// on storage, the commit objects' stamps.
    fn find_head(&self, cred: &Credential) -> DeltaResult<(Head, Vec<ObjectMeta>)> {
        let listing = self.store.list(cred, &self.log_dir)?;
        match self.coordinator.head(cred, &listing)? {
            Some(head) => Ok((head, listing)),
            None => Err(DeltaError::NotATable(self.path.to_string())),
        }
    }

    /// Build the snapshot at `head` from storage: the newest checkpoint the
    /// listing shows, if any, then only the commits after it.
    /// Checkpoints always live on storage, even for catalog-owned tables.
    fn build(&self, cred: &Credential, head: Head, listing: &[ObjectMeta]) -> DeltaResult<Snapshot> {
        let checkpoint = checkpoint_in_listing(listing, head.version);
        let base = match checkpoint {
            Some(cv) => {
                let data = self
                    .store
                    .get(cred, &self.log_dir.child(&crate::log::checkpoint_file_name(cv)))?;
                Some(Snapshot::from_checkpoint(cv, crate::actions::decode_commit(&data)?)?)
            }
            None => None,
        };
        let first = checkpoint.map_or(0, |cv| cv + 1);
        let log = read_commits(self.coordinator.as_ref(), cred, first..=head.version)?;
        uc_obs::span_event(
            "delta.snapshot",
            &match checkpoint {
                Some(cv) => format!("version={} replayed={} from_checkpoint={cv}", head.version, log.len()),
                None => format!("version={} replayed={}", head.version, log.len()),
            },
        );
        Snapshot::replay_from(base, &log)
    }

    /// Write a checkpoint of the current state; returns the checkpointed
    /// version. Subsequent snapshots replay only the commits after it.
    pub fn checkpoint(&self, cred: &Credential) -> DeltaResult<i64> {
        let snap = self.snapshot(cred)?;
        let data = crate::actions::encode_commit(&snap.to_checkpoint_actions());
        self.store
            .put(cred, &self.log_dir.child(&crate::log::checkpoint_file_name(snap.version)), data)?;
        Ok(snap.version)
    }

    /// Snapshot at a historical version (time travel): a plain replay of
    /// commits `0..=version`, never cached.
    pub fn snapshot_at(&self, cred: &Credential, version: i64) -> DeltaResult<Snapshot> {
        let (head, _) = self.find_head(cred)?;
        if !(0..=head.version).contains(&version) {
            return Err(DeltaError::NoSuchVersion { version, head: head.version });
        }
        Snapshot::replay(&read_commits(self.coordinator.as_ref(), cred, 0..=version)?)
    }

    /// Write a batch of rows as one data file and commit it. Returns the
    /// new table version. Retries are the caller's concern: on
    /// [`DeltaError::CommitConflict`] the data file is already on storage
    /// and a retry will commit a fresh add action for it.
    pub fn append(&self, cred: &Credential, rows: &[Row]) -> DeltaResult<i64> {
        let snapshot = self.snapshot(cred)?;
        let add = self.write_data_file(cred, snapshot.schema(), rows)?;
        let version = snapshot.version + 1;
        let actions = vec![
            Action::Add(add),
            Action::CommitInfo(CommitInfo {
                operation: "WRITE".into(),
                timestamp_ms: self.now_ms(),
                ..Default::default()
            }),
        ];
        write_commit(self.coordinator.as_ref(), cred, version, &actions)?;
        uc_obs::span_event("delta.commit", &format!("version={version}"));
        // Periodic checkpointing, as the Delta protocol does every N
        // commits, keeps snapshot construction O(recent commits).
        if version > 0 && version % CHECKPOINT_INTERVAL == 0 {
            self.checkpoint(cred)?;
        }
        Ok(version)
    }

    /// Write rows into several files of at most `rows_per_file` rows each,
    /// in a single commit — how a small-files problem is born.
    pub fn append_fragmented(
        &self,
        cred: &Credential,
        rows: &[Row],
        rows_per_file: usize,
    ) -> DeltaResult<i64> {
        let snapshot = self.snapshot(cred)?;
        let mut actions = Vec::new();
        for chunk in rows.chunks(rows_per_file.max(1)) {
            actions.push(Action::Add(self.write_data_file(cred, snapshot.schema(), chunk)?));
        }
        actions.push(Action::CommitInfo(CommitInfo {
            operation: "WRITE".into(),
            timestamp_ms: self.now_ms(),
            ..Default::default()
        }));
        let version = snapshot.version + 1;
        write_commit(self.coordinator.as_ref(), cred, version, &actions)?;
        Ok(version)
    }

    /// Prepare an append without committing: writes the data file and
    /// returns the actions. Used for multi-table transactions, where the
    /// catalog commits all tables' actions atomically.
    pub fn prepare_append(&self, cred: &Credential, rows: &[Row]) -> DeltaResult<(i64, Vec<Action>)> {
        let snapshot = self.snapshot(cred)?;
        let add = self.write_data_file(cred, snapshot.schema(), rows)?;
        Ok((
            snapshot.version + 1,
            vec![
                Action::Add(add),
                Action::CommitInfo(CommitInfo {
                    operation: "WRITE".into(),
                    timestamp_ms: self.now_ms(),
                    ..Default::default()
                }),
            ],
        ))
    }

    /// Scan rows matching `predicate`, using file stats to skip files.
    /// Returns matching rows and the number of files actually read.
    pub fn scan(
        &self,
        cred: &Credential,
        predicate: Option<&Expr>,
        ctx: &EvalContext,
    ) -> DeltaResult<(Vec<Row>, usize)> {
        let snapshot = self.snapshot(cred)?;
        self.scan_snapshot(cred, &snapshot, predicate, ctx)
    }

    /// Scan against an existing snapshot. The predicate runs over the
    /// shared decoded rows by reference; only the rows kept are cloned.
    pub fn scan_snapshot(
        &self,
        cred: &Credential,
        snapshot: &Snapshot,
        predicate: Option<&Expr>,
        ctx: &EvalContext,
    ) -> DeltaResult<(Vec<Row>, usize)> {
        let schema = snapshot.schema();
        let files = snapshot.prune_files(predicate);
        let files_read = files.len();
        let mut out = Vec::new();
        for file in files {
            for row in self.file_rows(cred, file)?.iter() {
                let keep = match predicate {
                    Some(p) => p.eval_bool(schema, &row, ctx)?,
                    None => true,
                };
                if keep {
                    out.push(row.to_vec());
                }
            }
        }
        Ok((out, files_read))
    }

    /// The decoded rows of one data file: the cache's copy, or fetched with
    /// the caller's credential, decoded once and offered to the cache.
    fn file_rows(&self, cred: &Credential, file: &AddFile) -> DeltaResult<Arc<FileRows>> {
        if let Some(rows) = self.cache.rows(&self.path, file) {
            return Ok(rows);
        }
        uc_cloudstore::sched::yield_point(YIELD_FILE_MISS);
        let data = self.store.get(cred, &self.path.child(&file.path))?;
        Ok(self.cache.install_rows(&self.path, file, FileRows::decode(&data)?))
    }

    /// Delete all rows matching `predicate` via copy-on-write: files with
    /// no matches are untouched, files with matches are rewritten without
    /// the matching rows. Returns the number of rows deleted.
    pub fn delete_where(
        &self,
        cred: &Credential,
        predicate: &Expr,
        ctx: &EvalContext,
    ) -> DeltaResult<u64> {
        let snapshot = self.snapshot(cred)?;
        let schema = snapshot.schema().clone();
        let now = self.now_ms();
        let mut actions = Vec::new();
        let mut deleted = 0u64;
        // Stats pruning bounds the rewrite set exactly like a scan.
        for file in snapshot.prune_files(Some(predicate)) {
            let rows = self.file_rows(cred, file)?;
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows.iter() {
                if predicate.eval_bool(&schema, &row, ctx)? {
                    deleted += 1;
                } else {
                    kept.push(row.to_vec());
                }
            }
            if kept.len() as u64 == file.num_records {
                continue; // stats over-approximated; nothing matched here
            }
            actions.push(Action::Remove(RemoveFile {
                path: file.path.clone(),
                deletion_timestamp_ms: now,
            }));
            if !kept.is_empty() {
                actions.push(Action::Add(self.write_data_file(cred, &schema, &kept)?));
            }
        }
        if actions.is_empty() {
            return Ok(0);
        }
        actions.push(Action::CommitInfo(CommitInfo {
            operation: "DELETE".into(),
            timestamp_ms: now,
            ..Default::default()
        }));
        write_commit(self.coordinator.as_ref(), cred, snapshot.version + 1, &actions)?;
        Ok(deleted)
    }

    /// Compact active files into files of ~`target_rows` rows. This is the
    /// maintenance operation predictive optimization automates (Fig 10c).
    pub fn optimize(&self, cred: &Credential, target_rows: usize) -> DeltaResult<OptimizeMetrics> {
        let snapshot = self.snapshot(cred)?;
        let small: Vec<&AddFile> = snapshot
            .files
            .values()
            .filter(|f| (f.num_records as usize) < target_rows)
            .collect();
        if small.len() < 2 {
            return Ok(OptimizeMetrics { files_removed: 0, files_added: 0, rows_rewritten: 0 });
        }
        // Read all small files' rows.
        let mut rows = Vec::new();
        for file in &small {
            rows.extend(self.file_rows(cred, file)?.iter().map(|row| row.to_vec()));
        }
        // Rewrite as target-sized files.
        let mut actions = Vec::new();
        let mut files_added = 0;
        for chunk in rows.chunks(target_rows.max(1)) {
            actions.push(Action::Add(self.write_data_file(cred, snapshot.schema(), chunk)?));
            files_added += 1;
        }
        let now = self.now_ms();
        for file in &small {
            actions.push(Action::Remove(RemoveFile {
                path: file.path.clone(),
                deletion_timestamp_ms: now,
            }));
        }
        actions.push(Action::CommitInfo(CommitInfo {
            operation: "OPTIMIZE".into(),
            timestamp_ms: now,
            ..Default::default()
        }));
        write_commit(self.coordinator.as_ref(), cred, snapshot.version + 1, &actions)?;
        Ok(OptimizeMetrics {
            files_removed: small.len(),
            files_added,
            rows_rewritten: rows.len() as u64,
        })
    }

    /// Delete storage objects that are no longer referenced by the current
    /// snapshot (tombstoned files). Returns reclaimed bytes — the storage
    /// efficiency part of the predictive-optimization experiment.
    pub fn vacuum(&self, cred: &Credential) -> DeltaResult<VacuumMetrics> {
        let snapshot = self.snapshot(cred)?;
        let mut deleted = 0;
        let mut reclaimed = 0u64;
        for path in snapshot.tombstones.keys() {
            let full = self.path.child(path);
            if let Ok(data) = self.store.get(cred, &full) {
                reclaimed += data.len() as u64;
                self.store.delete(cred, &full)?;
                deleted += 1;
            }
        }
        Ok(VacuumMetrics { objects_deleted: deleted, bytes_reclaimed: reclaimed })
    }

    /// Total bytes of data files under the table root (active + garbage).
    pub fn physical_bytes(&self, cred: &Credential) -> DeltaResult<u64> {
        let listed = self.store.list(cred, &self.path)?;
        Ok(listed
            .iter()
            .filter(|m| !m.path.key().contains(crate::log::LOG_DIR))
            .map(|m| m.size as u64)
            .sum())
    }

    fn write_data_file(
        &self,
        cred: &Credential,
        schema: &Schema,
        rows: &[Row],
    ) -> DeltaResult<AddFile> {
        let n = FILE_COUNTER.fetch_add(1, Ordering::Relaxed);
        let name = format!("part-{n:010}.json");
        let data = encode_rows(schema, rows)?;
        let size = data.len() as u64;
        self.store.put(cred, &self.path.child(&name), data)?;
        Ok(AddFile {
            path: name,
            size_bytes: size,
            num_records: rows.len() as u64,
            stats: collect_stats(schema, rows),
            modification_time_ms: self.now_ms(),
        })
    }

    fn now_ms(&self) -> u64 {
        self.store.sts().clock().now_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::value::{DataType, Field, Value};

    fn setup() -> (ObjectStore, Credential, StoragePath) {
        let store = ObjectStore::in_memory();
        let root = store.create_bucket("bkt");
        (store, Credential::Root(root), StoragePath::parse("s3://bkt/tables/t").unwrap())
    }

    fn schema() -> Schema {
        Schema::new(vec![Field::new("id", DataType::Int), Field::new("name", DataType::Str)])
    }

    fn rows(range: std::ops::Range<i64>) -> Vec<Row> {
        range
            .map(|i| vec![Value::Int(i), Value::Str(format!("row{i}"))])
            .collect()
    }

    #[test]
    fn create_append_scan() {
        let (store, cred, path) = setup();
        let t = DeltaTable::create(store, path, &cred, "t1", schema()).unwrap();
        assert_eq!(t.append(&cred, &rows(0..10)).unwrap(), 1);
        assert_eq!(t.append(&cred, &rows(10..20)).unwrap(), 2);
        let (all, _) = t.scan(&cred, None, &EvalContext::anonymous()).unwrap();
        assert_eq!(all.len(), 20);
        let snap = t.snapshot(&cred).unwrap();
        assert_eq!(snap.version, 2);
        assert_eq!(snap.num_records(), 20);
        assert_eq!(snap.files.len(), 2);
    }

    #[test]
    fn scan_with_predicate_prunes_files() {
        let (store, cred, path) = setup();
        let t = DeltaTable::create(store, path, &cred, "t1", schema()).unwrap();
        t.append(&cred, &rows(0..100)).unwrap();
        t.append(&cred, &rows(100..200)).unwrap();
        t.append(&cred, &rows(200..300)).unwrap();
        let pred = Expr::cmp("id", CmpOp::Eq, 150i64);
        let (matched, files_read) = t.scan(&cred, Some(&pred), &EvalContext::anonymous()).unwrap();
        assert_eq!(matched.len(), 1);
        assert_eq!(matched[0][0], Value::Int(150));
        assert_eq!(files_read, 1, "stats pruning should skip 2 of 3 files");
    }

    #[test]
    fn append_validates_schema() {
        let (store, cred, path) = setup();
        let t = DeltaTable::create(store, path, &cred, "t1", schema()).unwrap();
        let bad = vec![vec![Value::Str("oops".into()), Value::Int(1)]];
        assert!(matches!(t.append(&cred, &bad), Err(DeltaError::Schema(_))));
    }

    #[test]
    fn time_travel_reads_old_versions() {
        let (store, cred, path) = setup();
        let t = DeltaTable::create(store, path, &cred, "t1", schema()).unwrap();
        t.append(&cred, &rows(0..5)).unwrap(); // v1
        t.append(&cred, &rows(5..10)).unwrap(); // v2
        let old = t.snapshot_at(&cred, 1).unwrap();
        assert_eq!(old.num_records(), 5);
        let new = t.snapshot(&cred).unwrap();
        assert_eq!(new.num_records(), 10);
    }

    #[test]
    fn optimize_compacts_small_files() {
        let (store, cred, path) = setup();
        let t = DeltaTable::create(store, path, &cred, "t1", schema()).unwrap();
        t.append_fragmented(&cred, &rows(0..100), 5).unwrap(); // 20 small files
        assert_eq!(t.snapshot(&cred).unwrap().files.len(), 20);
        let metrics = t.optimize(&cred, 100).unwrap();
        assert_eq!(metrics.files_removed, 20);
        assert_eq!(metrics.files_added, 1);
        assert_eq!(metrics.rows_rewritten, 100);
        let snap = t.snapshot(&cred).unwrap();
        assert_eq!(snap.files.len(), 1);
        assert_eq!(snap.num_records(), 100);
        // data is intact
        let (all, _) = t.scan(&cred, None, &EvalContext::anonymous()).unwrap();
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn optimize_noop_when_already_compact() {
        let (store, cred, path) = setup();
        let t = DeltaTable::create(store, path, &cred, "t1", schema()).unwrap();
        t.append(&cred, &rows(0..100)).unwrap();
        let before = t.snapshot(&cred).unwrap().version;
        let metrics = t.optimize(&cred, 50).unwrap();
        assert_eq!(metrics.files_removed, 0);
        assert_eq!(t.snapshot(&cred).unwrap().version, before, "no commit on noop");
    }

    #[test]
    fn vacuum_reclaims_tombstoned_files() {
        let (store, cred, path) = setup();
        let t = DeltaTable::create(store.clone(), path, &cred, "t1", schema()).unwrap();
        t.append_fragmented(&cred, &rows(0..100), 10).unwrap();
        let before_bytes = t.physical_bytes(&cred).unwrap();
        t.optimize(&cred, 100).unwrap();
        // Optimize adds a compacted file; garbage still on storage.
        assert!(t.physical_bytes(&cred).unwrap() > before_bytes);
        let metrics = t.vacuum(&cred).unwrap();
        assert_eq!(metrics.objects_deleted, 10);
        assert!(metrics.bytes_reclaimed > 0);
        // After vacuum only the compacted file remains.
        let snap = t.snapshot(&cred).unwrap();
        assert_eq!(snap.files.len(), 1);
        let (all, _) = t.scan(&cred, None, &EvalContext::anonymous()).unwrap();
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn concurrent_appends_one_conflicts() {
        let (store, cred, path) = setup();
        let t = DeltaTable::create(store.clone(), path.clone(), &cred, "t1", schema()).unwrap();
        // Two handles race to commit version 1 manually.
        let t2 = DeltaTable::open(store, path);
        let (v1, a1) = t.prepare_append(&cred, &rows(0..5)).unwrap();
        let (v2, a2) = t2.prepare_append(&cred, &rows(5..10)).unwrap();
        assert_eq!(v1, v2);
        write_commit(t.coordinator().as_ref(), &cred, v1, &a1).unwrap();
        assert!(matches!(
            write_commit(t2.coordinator().as_ref(), &cred, v2, &a2),
            Err(DeltaError::CommitConflict { .. })
        ));
    }

    #[test]
    fn open_nonexistent_table_errors() {
        let (store, cred, path) = setup();
        let t = DeltaTable::open(store, path);
        assert!(matches!(t.snapshot(&cred), Err(DeltaError::NotATable(_))));
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use crate::expr::EvalContext;
    use crate::log::read_log;
    use crate::value::{DataType, Field, Value};

    fn setup() -> (ObjectStore, Credential, DeltaTable) {
        let store = ObjectStore::in_memory();
        let root = store.create_bucket("bkt");
        let cred = Credential::Root(root);
        let path = StoragePath::parse("s3://bkt/tables/cp").unwrap();
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let t = DeltaTable::create(store.clone(), path, &cred, "cp", schema).unwrap();
        (store, cred, t)
    }

    fn row(v: i64) -> Vec<Vec<Value>> {
        vec![vec![Value::Int(v)]]
    }

    #[test]
    fn auto_checkpoint_written_every_interval() {
        let (store, cred, t) = setup();
        for i in 0..CHECKPOINT_INTERVAL {
            t.append(&cred, &row(i)).unwrap();
        }
        let log_dir = t.path().child(crate::log::LOG_DIR);
        let checkpoints: Vec<i64> = store
            .list(&cred, &log_dir)
            .unwrap()
            .iter()
            .filter_map(|m| crate::log::parse_checkpoint_version(m.path.key()))
            .collect();
        assert_eq!(checkpoints, vec![CHECKPOINT_INTERVAL]);
    }

    #[test]
    fn snapshot_from_checkpoint_equals_full_replay() {
        let (_store, cred, t) = setup();
        for i in 0..25 {
            t.append(&cred, &row(i)).unwrap();
        }
        // checkpointed snapshot
        let fast = t.snapshot(&cred).unwrap();
        // force a full replay by reading the raw log
        let full = Snapshot::replay(&read_log(t.coordinator().as_ref(), &cred).unwrap()).unwrap();
        assert_eq!(fast.version, full.version);
        assert_eq!(
            fast.files.keys().collect::<Vec<_>>(),
            full.files.keys().collect::<Vec<_>>()
        );
        assert_eq!(fast.num_records(), full.num_records());
        // and the data reads identically
        let (rows, _) = t.scan(&cred, None, &EvalContext::anonymous()).unwrap();
        assert_eq!(rows.len(), 25);
    }

    #[test]
    fn checkpoint_preserves_tombstones_for_vacuum() {
        let (_store, cred, t) = setup();
        t.append_fragmented(&cred, &(0..40).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(), 10)
            .unwrap();
        t.optimize(&cred, 1000).unwrap(); // creates 4 tombstones at v2
        let v = t.checkpoint(&cred).unwrap();
        assert_eq!(v, 2);
        // the checkpointed snapshot still knows the garbage
        let snap = t.snapshot(&cred).unwrap();
        assert_eq!(snap.tombstones.len(), 4);
        let metrics = t.vacuum(&cred).unwrap();
        assert_eq!(metrics.objects_deleted, 4);
    }

    #[test]
    fn manual_checkpoint_speeds_up_snapshot_reads() {
        let (_store, cred, t) = setup();
        for i in 0..9 {
            t.append(&cred, &row(i)).unwrap();
        }
        let v = t.checkpoint(&cred).unwrap();
        assert_eq!(v, 9);
        t.append(&cred, &row(9)).unwrap(); // auto-checkpoint at 10 too
        let snap = t.snapshot(&cred).unwrap();
        assert_eq!(snap.version, 10);
        assert_eq!(snap.num_records(), 10);
    }
}
