//! The transaction log and commit coordination.
//!
//! Commits can be coordinated two ways, matching the paper:
//!
//! * [`StorageCommitCoordinator`] — the classic Delta protocol: the next
//!   log version is claimed with an atomic `put_if_absent` on object
//!   storage. Single-table transactions only.
//! * A catalog-owned coordinator (implemented in `uc-catalog`) — commits
//!   go through the catalog service, which arbitrates versions in its
//!   transactional metadata store. Because the catalog can update several
//!   tables' commit state in one metadata transaction, this enables
//!   multi-table transactions (§6.3).

use std::ops::RangeInclusive;

use bytes::Bytes;
use uc_cloudstore::{Credential, ObjectMeta, ObjectStore, StoragePath};

use crate::actions::{decode_commit, encode_commit, Action};
use crate::error::{DeltaError, DeltaResult};

/// Relative directory holding the log.
pub const LOG_DIR: &str = "_delta_log";

/// Format a log object name for a version, e.g. `00000000000000000007.json`.
pub fn commit_file_name(version: i64) -> String {
    format!("{version:020}.json")
}

/// Checkpoint object name for a version,
/// e.g. `00000000000000000010.checkpoint.json`.
pub fn checkpoint_file_name(version: i64) -> String {
    format!("{version:020}.checkpoint.json")
}

/// Parse a version out of a checkpoint object key.
pub fn parse_checkpoint_version(key: &str) -> Option<i64> {
    let name = key.rsplit('/').next()?;
    let stem = name.strip_suffix(".checkpoint.json")?;
    if stem.len() == 20 && stem.bytes().all(|b| b.is_ascii_digit()) {
        stem.parse().ok()
    } else {
        None
    }
}

/// Parse a version out of a log object key, if it is a commit file.
pub fn parse_commit_version(key: &str) -> Option<i64> {
    let name = key.rsplit('/').next()?;
    let stem = name.strip_suffix(".json")?;
    if stem.len() == 20 && stem.bytes().all(|b| b.is_ascii_digit()) {
        stem.parse().ok()
    } else {
        None
    }
}

/// What identifies the storage object behind a commit: `(size,
/// created_at_ms)` as a listing reports them. Two logs that reach the same
/// version at the same location differ here unless they wrote objects of
/// the same size in the same millisecond.
pub type ObjectStamp = (usize, u64);

/// Where a table's log ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Head {
    pub version: i64,
    /// Stamp of the commit object at `version`; `None` when the
    /// coordinator keeps the log somewhere a listing does not show.
    pub stamp: Option<ObjectStamp>,
}

/// The stamp of the commit object for `version` in a listing of the log
/// directory (key order, as [`ObjectStore::list`] returns it). Searched
/// from the end: callers ask about the head or a version near it.
pub fn stamp_in_listing(log_listing: &[ObjectMeta], version: i64) -> Option<ObjectStamp> {
    log_listing
        .iter()
        .rev()
        .find(|m| parse_commit_version(m.path.key()) == Some(version))
        .map(|m| (m.size, m.created_at_ms))
}

/// The highest commit in a listing of the log directory.
pub fn head_in_listing(log_listing: &[ObjectMeta]) -> Option<Head> {
    log_listing.iter().rev().find_map(|m| {
        let version = parse_commit_version(m.path.key())?;
        Some(Head { version, stamp: Some((m.size, m.created_at_ms)) })
    })
}

/// The newest checkpoint at or below `max_version` in a listing of the
/// log directory.
pub fn checkpoint_in_listing(log_listing: &[ObjectMeta], max_version: i64) -> Option<i64> {
    log_listing
        .iter()
        .rev()
        .filter_map(|m| parse_checkpoint_version(m.path.key()))
        .find(|v| *v <= max_version)
}

/// Arbitrates which writer claims each table version.
pub trait CommitCoordinator: Send + Sync {
    /// Latest committed version, `None` for a table with no commits.
    fn latest_version(&self, cred: &Credential) -> DeltaResult<Option<i64>>;

    /// The head, for a caller that has just listed `<table>/_delta_log`
    /// (every snapshot does, to present its credential and to find
    /// checkpoints). A coordinator whose log is that directory answers
    /// from the listing; any other asks its own authority.
    fn head(&self, cred: &Credential, _log_listing: &[ObjectMeta]) -> DeltaResult<Option<Head>> {
        Ok(self.latest_version(cred)?.map(|version| Head { version, stamp: None }))
    }

    /// Atomically publish `payload` as `version`; fails with
    /// [`DeltaError::CommitConflict`] if the version is already taken.
    fn try_commit(&self, cred: &Credential, version: i64, payload: Bytes) -> DeltaResult<()>;

    /// Read a committed version's payload.
    fn read_commit(&self, cred: &Credential, version: i64) -> DeltaResult<Option<Bytes>>;
}

/// Storage-backed coordinator: the log lives at `<table>/_delta_log/` and
/// versions are claimed via `put_if_absent`.
pub struct StorageCommitCoordinator {
    store: ObjectStore,
    log_path: StoragePath,
}

impl StorageCommitCoordinator {
    pub fn new(store: ObjectStore, table_path: &StoragePath) -> Self {
        StorageCommitCoordinator { store: store.clone(), log_path: table_path.child(LOG_DIR) }
    }

    /// Path of the log directory.
    pub fn log_path(&self) -> &StoragePath {
        &self.log_path
    }
}

impl CommitCoordinator for StorageCommitCoordinator {
    fn latest_version(&self, cred: &Credential) -> DeltaResult<Option<i64>> {
        let objects = self.store.list(cred, &self.log_path)?;
        Ok(head_in_listing(&objects).map(|h| h.version))
    }

    fn head(&self, _cred: &Credential, log_listing: &[ObjectMeta]) -> DeltaResult<Option<Head>> {
        Ok(head_in_listing(log_listing))
    }

    fn try_commit(&self, cred: &Credential, version: i64, payload: Bytes) -> DeltaResult<()> {
        let path = self.log_path.child(&commit_file_name(version));
        match self.store.put_if_absent(cred, &path, payload) {
            Ok(()) => Ok(()),
            Err(uc_cloudstore::StorageError::AlreadyExists(_)) => {
                Err(DeltaError::CommitConflict { version })
            }
            Err(e) => Err(e.into()),
        }
    }

    fn read_commit(&self, cred: &Credential, version: i64) -> DeltaResult<Option<Bytes>> {
        let path = self.log_path.child(&commit_file_name(version));
        match self.store.get(cred, &path) {
            Ok(data) => Ok(Some(data)),
            Err(uc_cloudstore::StorageError::NoSuchObject(_)) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// Read the full action history `[0, latest]` through a coordinator.
pub fn read_log(
    coordinator: &dyn CommitCoordinator,
    cred: &Credential,
) -> DeltaResult<Vec<(i64, Vec<Action>)>> {
    match coordinator.latest_version(cred)? {
        Some(latest) => read_commits(coordinator, cred, 0..=latest),
        None => Ok(Vec::new()),
    }
}

/// Read and decode the commits in `versions`; a missing one is corruption.
pub fn read_commits(
    coordinator: &dyn CommitCoordinator,
    cred: &Credential,
    versions: RangeInclusive<i64>,
) -> DeltaResult<Vec<(i64, Vec<Action>)>> {
    let mut out = Vec::with_capacity(versions.size_hint().0);
    for v in versions {
        let payload = coordinator
            .read_commit(cred, v)?
            .ok_or_else(|| DeltaError::Corrupt(format!("missing log version {v}")))?;
        out.push((v, decode_commit(&payload)?));
    }
    Ok(out)
}

/// Commit `actions` as `version` through a coordinator.
pub fn write_commit(
    coordinator: &dyn CommitCoordinator,
    cred: &Credential,
    version: i64,
    actions: &[Action],
) -> DeltaResult<()> {
    coordinator.try_commit(cred, version, encode_commit(actions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::{CommitInfo, Protocol};

    fn setup() -> (ObjectStore, Credential, StoragePath) {
        let store = ObjectStore::in_memory();
        let root = store.create_bucket("bkt");
        (store, Credential::Root(root), StoragePath::parse("s3://bkt/tables/t1").unwrap())
    }

    fn info(op: &str) -> Vec<Action> {
        vec![Action::CommitInfo(CommitInfo { operation: op.into(), ..Default::default() })]
    }

    #[test]
    fn commit_file_names_sort_with_versions() {
        assert_eq!(commit_file_name(7), "00000000000000000007.json");
        assert!(commit_file_name(9) < commit_file_name(10));
        assert_eq!(parse_commit_version("x/_delta_log/00000000000000000042.json"), Some(42));
        assert_eq!(parse_commit_version("x/_delta_log/checkpoint.parquet"), None);
        assert_eq!(parse_commit_version("x/_delta_log/0007.json"), None);
    }

    #[test]
    fn empty_table_has_no_version() {
        let (store, cred, path) = setup();
        let coord = StorageCommitCoordinator::new(store, &path);
        assert_eq!(coord.latest_version(&cred).unwrap(), None);
        assert!(read_log(&coord, &cred).unwrap().is_empty());
    }

    #[test]
    fn sequential_commits_advance_version() {
        let (store, cred, path) = setup();
        let coord = StorageCommitCoordinator::new(store, &path);
        write_commit(&coord, &cred, 0, &info("CREATE")).unwrap();
        write_commit(&coord, &cred, 1, &info("WRITE")).unwrap();
        assert_eq!(coord.latest_version(&cred).unwrap(), Some(1));
        let log = read_log(&coord, &cred).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].0, 0);
        assert_eq!(log[1].0, 1);
    }

    #[test]
    fn concurrent_writers_race_one_wins() {
        let (store, cred, path) = setup();
        let coord = StorageCommitCoordinator::new(store, &path);
        write_commit(&coord, &cred, 0, &info("CREATE")).unwrap();
        // Both writers target version 1.
        write_commit(&coord, &cred, 1, &info("writer-a")).unwrap();
        let err = write_commit(&coord, &cred, 1, &info("writer-b")).unwrap_err();
        assert_eq!(err, DeltaError::CommitConflict { version: 1 });
        // Winner's payload is intact.
        let log = read_log(&coord, &cred).unwrap();
        match &log[1].1[0] {
            Action::CommitInfo(ci) => assert_eq!(ci.operation, "writer-a"),
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn missing_middle_version_is_corrupt() {
        let (store, cred, path) = setup();
        let coord = StorageCommitCoordinator::new(store, &path);
        write_commit(&coord, &cred, 0, &[Action::Protocol(Protocol::default())]).unwrap();
        write_commit(&coord, &cred, 2, &info("skipped 1")).unwrap();
        assert!(matches!(read_log(&coord, &cred), Err(DeltaError::Corrupt(_))));
    }
}
