//! Read and write transactions.
//!
//! `ReadTxn` gives snapshot isolation for free: it pins a CSN and resolves
//! every lookup against version chains at that CSN.
//!
//! `WriteTxn` is serializable via optimistic concurrency control. It tracks
//! the full read set — point reads *and* scanned prefixes — and validates at
//! commit that nothing observed has a newer committed version than the
//! transaction's snapshot. Scanned-prefix validation also catches phantoms:
//! a row inserted into a scanned range after the snapshot fails validation
//! because its version chain's latest CSN exceeds the snapshot.
//!
//! Both register their snapshot with the database when they begin and
//! release it when dropped (a committing `WriteTxn` releases it once
//! validation is done): the oldest open snapshot is the horizon commits
//! reclaim against (see [`crate::db`]).

use std::collections::{BTreeMap, HashSet};

use bytes::Bytes;
use uc_cloudstore::faults::points;
use uc_cloudstore::latency::OpClass;

use crate::db::{remove_dead, Db, Version};
use crate::error::{TxError, TxResult};

/// Snapshot-isolated read-only transaction.
pub struct ReadTxn {
    db: Db,
    snapshot: u64,
}

impl ReadTxn {
    /// `snapshot` must be registered with `db` (see `Db::begin_read`);
    /// dropping the transaction releases it.
    pub(crate) fn new(db: Db, snapshot: u64) -> Self {
        ReadTxn { db, snapshot }
    }

    /// CSN this transaction observes.
    pub fn snapshot_csn(&self) -> u64 {
        self.snapshot
    }

    /// Point lookup at the snapshot.
    pub fn get(&self, table: &str, key: &str) -> Option<Bytes> {
        self.db.charge(OpClass::Read);
        self.db.stats().record_read();
        let guard = self.db.inner.tables.read();
        guard
            .get(table)?
            .get(key)?
            .visible_at(self.snapshot)
            .and_then(|v| v.value.clone())
    }

    /// All live rows whose key starts with `prefix`, in key order.
    pub fn scan_prefix(&self, table: &str, prefix: &str) -> Vec<(String, Bytes)> {
        self.scan_prefix_from(table, prefix, prefix)
    }

    /// The rows of [`Self::scan_prefix`] at or after `start`: a prefix scan
    /// resumed mid-range, as a reader of a version-ordered range reads from
    /// its position on. Charged as a single scan; it visits no key below
    /// `start`.
    pub fn scan_prefix_from(&self, table: &str, prefix: &str, start: &str) -> Vec<(String, Bytes)> {
        self.db.charge(OpClass::List);
        self.db.stats().record_scan();
        let guard = self.db.inner.tables.read();
        let Some(t) = guard.get(table) else {
            return Vec::new();
        };
        let mut steps = 0;
        let rows = t
            .range(start.max(prefix).to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, chain)| {
                steps += 1;
                chain
                    .visible_at(self.snapshot)
                    .and_then(|v| v.value.clone())
                    .map(|val| (k.clone(), val))
            })
            .collect();
        self.db.stats().record_steps(steps);
        rows
    }

    /// All live rows at the chain prefixes of `key` — every prefix ending
    /// at a [`CHAIN_SEP`] byte, shortest first. For tree-encoded keys
    /// (every segment terminator is a `CHAIN_SEP`) this fetches the whole
    /// ancestor chain of a node in one table traversal under one lock
    /// acquisition, charged as a single scan.
    pub fn scan_chain(&self, table: &str, key: &str) -> Vec<(String, Bytes)> {
        self.db.charge(OpClass::List);
        self.db.stats().record_scan();
        let guard = self.db.inner.tables.read();
        let Some(t) = guard.get(table) else {
            return Vec::new();
        };
        let mut steps = 0;
        let rows = chain_prefixes(key)
            .filter_map(|p| {
                let chain = t.get(p)?;
                steps += 1;
                chain
                    .visible_at(self.snapshot)
                    .and_then(|v| v.value.clone())
                    .map(|val| (p.to_string(), val))
            })
            .collect();
        self.db.stats().record_steps(steps);
        rows
    }

    /// Greatest live key in `[start, end)` with its value — an index seek
    /// to the predecessor of `end`, charged as a single read. Range scans
    /// plus this primitive are what the tree keyspace's ancestor checks
    /// (path overlap, nearest-covering-path resolution) run on.
    pub fn pred_in_range(&self, table: &str, start: &str, end: &str) -> Option<(String, Bytes)> {
        self.db.charge(OpClass::Read);
        self.db.stats().record_read();
        let guard = self.db.inner.tables.read();
        let t = guard.get(table)?;
        let mut steps = 0;
        let found = t.range(start.to_string()..end.to_string()).rev().find_map(|(k, chain)| {
            steps += 1;
            let v = chain.visible_at(self.snapshot)?.value.clone()?;
            Some((k.clone(), v))
        });
        self.db.stats().record_steps(steps);
        found
    }
}

impl Drop for ReadTxn {
    fn drop(&mut self) {
        self.db.close_snapshot(self.snapshot);
    }
}

/// Chain-prefix separator byte recognized by [`ReadTxn::scan_chain`] /
/// [`WriteTxn::scan_chain`]: the tree-key segment terminator.
pub const CHAIN_SEP: char = '\u{1}';

/// Every prefix of `key` ending at a [`CHAIN_SEP`] byte, shortest first.
fn chain_prefixes(key: &str) -> impl Iterator<Item = &str> {
    key.bytes()
        .enumerate()
        .filter(|(_, b)| *b == CHAIN_SEP as u8)
        .map(move |(i, _)| &key[..=i])
}

/// Serializable read-write transaction.
pub struct WriteTxn {
    db: Db,
    snapshot: u64,
    /// The snapshot is still registered with the database.
    snapshot_open: bool,
    finished: bool,
    /// Point reads performed (table, key).
    reads: HashSet<(String, String)>,
    /// Prefix scans performed (table, prefix).
    scans: Vec<(String, String)>,
    /// Predecessor seeks performed: (table, effective lower bound, end).
    /// The lower bound is the found key when the seek hit (changes below
    /// it cannot alter the result) or the seek's `start` when it missed.
    preds: Vec<(String, String, String)>,
    /// Buffered writes; `None` = delete.
    writes: BTreeMap<(String, String), Option<Bytes>>,
}

impl WriteTxn {
    /// `snapshot` must be registered with `db` (see `Db::begin_write`).
    pub(crate) fn new(db: Db, snapshot: u64) -> Self {
        WriteTxn {
            db,
            snapshot,
            snapshot_open: true,
            finished: false,
            reads: HashSet::new(),
            scans: Vec::new(),
            preds: Vec::new(),
            writes: BTreeMap::new(),
        }
    }

    /// CSN this transaction reads at.
    pub fn snapshot_csn(&self) -> u64 {
        self.snapshot
    }

    /// Point lookup: sees the transaction's own buffered writes first, then
    /// the snapshot. The read is recorded for commit-time validation.
    pub fn get(&mut self, table: &str, key: &str) -> Option<Bytes> {
        let wkey = (table.to_string(), key.to_string());
        if let Some(buffered) = self.writes.get(&wkey) {
            return buffered.clone();
        }
        self.reads.insert(wkey);
        self.db.charge(OpClass::Read);
        self.db.stats().record_read();
        let guard = self.db.inner.tables.read();
        guard
            .get(table)?
            .get(key)?
            .visible_at(self.snapshot)
            .and_then(|v| v.value.clone())
    }

    /// Prefix scan merging buffered writes over the snapshot. The prefix is
    /// recorded for phantom-safe validation.
    pub fn scan_prefix(&mut self, table: &str, prefix: &str) -> Vec<(String, Bytes)> {
        self.scans.push((table.to_string(), prefix.to_string()));
        self.db.charge(OpClass::List);
        self.db.stats().record_scan();
        let guard = self.db.inner.tables.read();
        let mut merged: BTreeMap<String, Option<Bytes>> = BTreeMap::new();
        let mut steps = 0;
        if let Some(t) = guard.get(table) {
            for (k, chain) in t.range(prefix.to_string()..).take_while(|(k, _)| k.starts_with(prefix)) {
                steps += 1;
                if let Some(v) = chain.visible_at(self.snapshot).and_then(|v| v.value.clone()) {
                    merged.insert(k.clone(), Some(v));
                }
            }
        }
        drop(guard);
        self.db.stats().record_steps(steps);
        for ((t, k), v) in &self.writes {
            if t == table && k.starts_with(prefix) {
                merged.insert(k.clone(), v.clone());
            }
        }
        merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|val| (k, val)))
            .collect()
    }

    /// All live rows at the chain prefixes of `key` (see
    /// [`ReadTxn::scan_chain`]), merging buffered writes. Every prefix —
    /// present *and* absent — lands in the validated read set, so a
    /// concurrent create or drop anywhere on the ancestor chain conflicts
    /// at commit. Charged as a single scan.
    pub fn scan_chain(&mut self, table: &str, key: &str) -> Vec<(String, Bytes)> {
        self.db.charge(OpClass::List);
        self.db.stats().record_scan();
        let mut out = Vec::new();
        let mut steps = 0;
        let guard = self.db.inner.tables.read();
        let t = guard.get(table);
        for p in chain_prefixes(key) {
            let wkey = (table.to_string(), p.to_string());
            if let Some(buffered) = self.writes.get(&wkey) {
                if let Some(v) = buffered {
                    out.push((p.to_string(), v.clone()));
                }
                continue;
            }
            self.reads.insert(wkey);
            let Some(chain) = t.and_then(|t| t.get(p)) else { continue };
            steps += 1;
            if let Some(v) = chain.visible_at(self.snapshot).and_then(|v| v.value.clone()) {
                out.push((p.to_string(), v));
            }
        }
        drop(guard);
        self.db.stats().record_steps(steps);
        out
    }

    /// Greatest live key in `[start, end)` (see [`ReadTxn::pred_in_range`])
    /// merging buffered writes. The seek is recorded for commit-time
    /// validation: any committed change in `[found-or-start, end)` after
    /// the snapshot — which is exactly the set of changes that could move
    /// the result — conflicts.
    pub fn pred_in_range(&mut self, table: &str, start: &str, end: &str) -> Option<(String, Bytes)> {
        self.db.charge(OpClass::Read);
        self.db.stats().record_read();
        let mut best: Option<(String, Bytes)> = None;
        let mut steps = 0;
        {
            let guard = self.db.inner.tables.read();
            if let Some(t) = guard.get(table) {
                for (k, chain) in t.range(start.to_string()..end.to_string()).rev() {
                    steps += 1;
                    match self.writes.get(&(table.to_string(), k.clone())) {
                        Some(None) => continue, // buffered delete masks the row
                        Some(Some(v)) => {
                            best = Some((k.clone(), v.clone()));
                            break;
                        }
                        None => {
                            if let Some(v) =
                                chain.visible_at(self.snapshot).and_then(|v| v.value.clone())
                            {
                                best = Some((k.clone(), v));
                                break;
                            }
                        }
                    }
                }
            }
        }
        self.db.stats().record_steps(steps);
        // A buffered insert at a key the database has never seen can beat
        // the database's best.
        let lo = (table.to_string(), start.to_string());
        let hi = (table.to_string(), end.to_string());
        for ((_, k), v) in self.writes.range(lo..hi).rev() {
            if let Some(v) = v {
                if best.as_ref().map(|(bk, _)| k > bk).unwrap_or(true) {
                    best = Some((k.clone(), v.clone()));
                }
                break;
            }
        }
        let effective_lo = best.as_ref().map(|(k, _)| k.clone()).unwrap_or_else(|| start.to_string());
        self.preds.push((table.to_string(), effective_lo, end.to_string()));
        best
    }

    /// Buffer an upsert.
    pub fn put(&mut self, table: &str, key: &str, value: Bytes) {
        self.writes
            .insert((table.to_string(), key.to_string()), Some(value));
    }

    /// Buffer a delete.
    pub fn delete(&mut self, table: &str, key: &str) {
        self.writes.insert((table.to_string(), key.to_string()), None);
    }

    /// The keys of `table` this transaction has buffered a put or a delete
    /// for, in key order: what its commit will write there.
    pub fn written_keys<'a>(&'a self, table: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.writes.keys().filter(move |(t, _)| t == table).map(|(_, k)| k.as_str())
    }

    /// Validate and commit; returns the new CSN. On [`TxError::Conflict`]
    /// the transaction is consumed — callers retry from `begin_write`.
    pub fn commit(self) -> TxResult<u64> {
        let db = self.db.clone();
        let obs = &db.inner.obs;
        let start_ms = obs.clock_ms();
        let mut span = obs.span("txdb", "commit");
        let result = self.commit_inner();
        match &result {
            Err(TxError::Conflict { .. }) => span.set_status("conflict"),
            Err(_) => span.set_status("error"),
            Ok(_) => {}
        }
        // Attribute the commit to the request's tenant when a catalog API
        // guard has one on the thread-local scope stack; bare commits
        // (tests, tooling) skip the labeled series entirely.
        if let Some(label) = uc_obs::current_tenant() {
            let now = obs.clock_ms();
            db.inner.stats.record_tenant_commit(&label, now, now.saturating_sub(start_ms));
        }
        result
    }

    fn commit_inner(mut self) -> TxResult<u64> {
        if self.finished {
            return Err(TxError::AlreadyFinished);
        }
        self.finished = true;
        if self.writes.is_empty() {
            // Read-only write-txn: snapshot reads are already consistent.
            return Ok(self.snapshot);
        }
        self.db.charge(OpClass::Write);

        let db = self.db.clone();
        let inner = &db.inner;

        // Fault injection at the commit boundary: the three transient
        // failure shapes the paper's DB write protocol must survive. All
        // consume the transaction, like their organic counterparts.
        if inner.faults.should_inject(points::TXDB_POOL_TIMEOUT) {
            return Err(TxError::Unavailable {
                detail: "injected fault: connection pool permit wait timed out".into(),
            });
        }
        if inner.faults.should_inject(points::TXDB_COMMIT_UNAVAILABLE) {
            return Err(TxError::Unavailable {
                detail: "injected fault: database unreachable at commit".into(),
            });
        }
        if inner.faults.should_inject(points::TXDB_COMMIT_CONFLICT) {
            inner.stats.record_conflict();
            uc_obs::span_event("txdb.conflict", &format!("injected snapshot={}", self.snapshot));
            return Err(TxError::Conflict {
                detail: format!("injected conflict at snapshot {}", self.snapshot),
            });
        }

        // Interleaving-exploration yield: placed before the commit lock so
        // a parked client never holds it. A no-op outside scheduled runs.
        uc_cloudstore::sched::yield_point(uc_cloudstore::sched::points::TXDB_COMMIT);

        let mut dead = inner.commit_lock.lock();

        // --- Validation phase (under commit lock; no commits can interleave).
        // The weaken switch exists only to prove the history checker spots
        // the anomalies validation prevents; see Db::set_unsafe_skip_commit_validation.
        if !inner.weaken_validation.load(std::sync::atomic::Ordering::Relaxed) {
            let tables = inner.tables.read();
            let conflicting_key = |table: &str, key: &str| -> bool {
                tables
                    .get(table)
                    .and_then(|t| t.get(key))
                    .is_some_and(|chain| chain.latest_csn() > self.snapshot)
            };
            for (table, key) in self.reads.iter().chain(self.writes.keys()) {
                if conflicting_key(table, key) {
                    inner.stats.record_conflict();
                    // Event detail names the table but not the key: keys can
                    // embed random entity Uids, which would break trace-dump
                    // byte-determinism across runs.
                    uc_obs::span_event(
                        "txdb.conflict",
                        &format!("{table} snapshot={}", self.snapshot),
                    );
                    return Err(TxError::Conflict {
                        detail: format!("{table}/{key} changed after snapshot {}", self.snapshot),
                    });
                }
            }
            for (table, prefix) in &self.scans {
                if let Some(t) = tables.get(table) {
                    let phantom = t
                        .range(prefix.clone()..)
                        .take_while(|(k, _)| k.starts_with(prefix.as_str()))
                        .any(|(_, chain)| chain.latest_csn() > self.snapshot);
                    if phantom {
                        inner.stats.record_conflict();
                        uc_obs::span_event(
                            "txdb.conflict",
                            &format!("{table} scan snapshot={}", self.snapshot),
                        );
                        return Err(TxError::Conflict {
                            detail: format!(
                                "scan {table}/{prefix}* observed a change after snapshot {}",
                                self.snapshot
                            ),
                        });
                    }
                }
            }
            // Predecessor seeks: a commit into [found-or-start, end) after
            // the snapshot could have produced a different predecessor
            // (a new key above the found one, or a change/removal of the
            // found key itself), so it invalidates the seek.
            for (table, lo, end) in &self.preds {
                if let Some(t) = tables.get(table) {
                    let moved = t
                        .range(lo.clone()..end.clone())
                        .any(|(_, chain)| chain.latest_csn() > self.snapshot);
                    if moved {
                        inner.stats.record_conflict();
                        uc_obs::span_event(
                            "txdb.conflict",
                            &format!("{table} pred snapshot={}", self.snapshot),
                        );
                        return Err(TxError::Conflict {
                            detail: format!(
                                "pred seek {table} range observed a change after snapshot {}",
                                self.snapshot
                            ),
                        });
                    }
                }
            }
        }

        // --- Apply phase, reclaiming as the rows land (crate::db docs).
        // Validation was this transaction's last read: its own snapshot no
        // longer needs to hold the horizon.
        self.close_snapshot();
        let horizon = db.reclaim_horizon();
        let new_csn = inner.csn.load(std::sync::atomic::Ordering::Acquire) + 1;
        let rows = self.writes.len() as u64;
        {
            let mut tables = inner.tables.write();
            for ((table, key), value) in std::mem::take(&mut self.writes) {
                let chain = tables
                    .entry(table.clone())
                    .or_default()
                    .entry(key.clone())
                    .or_default();
                let deleted = value.is_none();
                chain.versions.push(Version { csn: new_csn, value });
                chain.prune(horizon);
                if deleted {
                    dead.push_back((new_csn, table, key));
                }
            }
            remove_dead(&mut tables, &mut dead, horizon);
        }
        inner.stats.record_write(rows);
        inner
            .csn
            .store(new_csn, std::sync::atomic::Ordering::Release);
        inner.stats.record_commit();
        Ok(new_csn)
    }

    /// Discard buffered writes.
    pub fn rollback(mut self) {
        self.finished = true;
        self.writes.clear();
    }

    fn close_snapshot(&mut self) {
        if std::mem::replace(&mut self.snapshot_open, false) {
            self.db.close_snapshot(self.snapshot);
        }
    }
}

impl Drop for WriteTxn {
    fn drop(&mut self) {
        self.close_snapshot();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Db;

    fn put1(db: &Db, table: &str, key: &str, val: &str) -> u64 {
        let mut tx = db.begin_write();
        tx.put(table, key, Bytes::from(val.to_string()));
        tx.commit().unwrap()
    }

    #[test]
    fn write_then_read_back() {
        let db = Db::in_memory();
        put1(&db, "t", "a", "1");
        let rt = db.begin_read();
        assert_eq!(rt.get("t", "a"), Some(Bytes::from_static(b"1")));
        assert_eq!(rt.get("t", "missing"), None);
    }

    #[test]
    fn snapshot_reads_ignore_later_commits() {
        let db = Db::in_memory();
        put1(&db, "t", "a", "old");
        let rt = db.begin_read();
        put1(&db, "t", "a", "new");
        put1(&db, "t", "b", "born-later");
        assert_eq!(rt.get("t", "a"), Some(Bytes::from_static(b"old")));
        assert_eq!(rt.get("t", "b"), None);
        // a fresh snapshot sees the new state
        let rt2 = db.begin_read();
        assert_eq!(rt2.get("t", "a"), Some(Bytes::from_static(b"new")));
    }

    #[test]
    fn txn_reads_own_writes() {
        let db = Db::in_memory();
        let mut tx = db.begin_write();
        tx.put("t", "a", Bytes::from_static(b"mine"));
        assert_eq!(tx.get("t", "a"), Some(Bytes::from_static(b"mine")));
        tx.delete("t", "a");
        assert_eq!(tx.get("t", "a"), None);
    }

    #[test]
    fn uncommitted_writes_are_invisible() {
        let db = Db::in_memory();
        let mut tx = db.begin_write();
        tx.put("t", "a", Bytes::from_static(b"x"));
        assert_eq!(db.begin_read().get("t", "a"), None);
        tx.rollback();
        assert_eq!(db.begin_read().get("t", "a"), None);
    }

    #[test]
    fn write_write_conflict_detected() {
        let db = Db::in_memory();
        put1(&db, "t", "a", "base");
        let mut tx1 = db.begin_write();
        let mut tx2 = db.begin_write();
        tx1.put("t", "a", Bytes::from_static(b"one"));
        tx2.put("t", "a", Bytes::from_static(b"two"));
        tx1.commit().unwrap();
        assert!(matches!(tx2.commit(), Err(TxError::Conflict { .. })));
        assert_eq!(db.stats().conflicts(), 1);
    }

    #[test]
    fn read_write_conflict_detected() {
        // tx2 reads a row tx1 writes: serializability requires tx2 to abort
        // if it commits after tx1 (its read is stale).
        let db = Db::in_memory();
        put1(&db, "t", "a", "base");
        let mut tx1 = db.begin_write();
        let mut tx2 = db.begin_write();
        let _ = tx2.get("t", "a");
        tx2.put("t", "b", Bytes::from_static(b"derived"));
        tx1.put("t", "a", Bytes::from_static(b"changed"));
        tx1.commit().unwrap();
        assert!(matches!(tx2.commit(), Err(TxError::Conflict { .. })));
    }

    #[test]
    fn disjoint_writes_both_commit() {
        let db = Db::in_memory();
        let mut tx1 = db.begin_write();
        let mut tx2 = db.begin_write();
        tx1.put("t", "a", Bytes::from_static(b"1"));
        tx2.put("t", "b", Bytes::from_static(b"2"));
        tx1.commit().unwrap();
        tx2.commit().unwrap();
        let rt = db.begin_read();
        assert!(rt.get("t", "a").is_some() && rt.get("t", "b").is_some());
    }

    #[test]
    fn phantom_insert_into_scanned_prefix_conflicts() {
        let db = Db::in_memory();
        put1(&db, "t", "schema1/t1", "x");
        let mut scanner = db.begin_write();
        let rows = scanner.scan_prefix("t", "schema1/");
        assert_eq!(rows.len(), 1);
        scanner.put("t", "count", Bytes::from_static(b"1"));
        // concurrent insert into the scanned range
        put1(&db, "t", "schema1/t2", "y");
        assert!(matches!(scanner.commit(), Err(TxError::Conflict { .. })));
    }

    #[test]
    fn phantom_delete_from_scanned_prefix_conflicts() {
        let db = Db::in_memory();
        put1(&db, "t", "s/t1", "x");
        put1(&db, "t", "s/t2", "y");
        let mut scanner = db.begin_write();
        assert_eq!(scanner.scan_prefix("t", "s/").len(), 2);
        scanner.put("t", "other", Bytes::from_static(b"z"));
        let mut deleter = db.begin_write();
        deleter.delete("t", "s/t2");
        deleter.commit().unwrap();
        assert!(matches!(scanner.commit(), Err(TxError::Conflict { .. })));
    }

    #[test]
    fn scan_outside_written_range_does_not_conflict() {
        let db = Db::in_memory();
        put1(&db, "t", "a/1", "x");
        let mut scanner = db.begin_write();
        let _ = scanner.scan_prefix("t", "a/");
        scanner.put("t", "out", Bytes::from_static(b"v"));
        put1(&db, "t", "b/1", "y"); // outside scanned prefix
        scanner.commit().unwrap();
    }

    #[test]
    fn scan_merges_buffered_writes() {
        let db = Db::in_memory();
        put1(&db, "t", "p/committed", "c");
        put1(&db, "t", "p/doomed", "d");
        let mut tx = db.begin_write();
        tx.put("t", "p/buffered", Bytes::from_static(b"b"));
        tx.delete("t", "p/doomed");
        let rows = tx.scan_prefix("t", "p/");
        let keys: Vec<_> = rows.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["p/buffered", "p/committed"]);
    }

    #[test]
    fn read_only_write_txn_commits_without_bumping_csn() {
        let db = Db::in_memory();
        put1(&db, "t", "a", "1");
        let before = db.current_csn();
        let mut tx = db.begin_write();
        let _ = tx.get("t", "a");
        assert_eq!(tx.commit().unwrap(), before);
        assert_eq!(db.current_csn(), before);
    }

    #[test]
    fn written_keys_list_buffered_puts_and_deletes_in_key_order() {
        let db = Db::in_memory();
        put1(&db, "t", "a", "1");
        let mut tx = db.begin_write();
        tx.put("t", "c", Bytes::from_static(b"3"));
        tx.delete("t", "a");
        tx.put("u", "b", Bytes::from_static(b"2"));
        let _ = tx.get("t", "z");
        assert_eq!(tx.written_keys("t").collect::<Vec<_>>(), ["a", "c"], "reads are not writes");
        assert_eq!(tx.written_keys("u").collect::<Vec<_>>(), ["b"]);
        assert_eq!(tx.written_keys("v").count(), 0);
        tx.commit().unwrap();
        assert_eq!(db.begin_read().get("t", "a"), None, "the delete committed a tombstone");
    }

    #[test]
    fn scan_prefix_from_resumes_mid_prefix_and_stops_at_its_end() {
        let db = Db::in_memory();
        for k in ["m/01", "m/02", "m/03", "n/01"] {
            put1(&db, "t", k, "v");
        }
        let rt = db.begin_read();
        let keys = |start: &str| rt.scan_prefix_from("t", "m/", start).into_iter().map(|(k, _)| k).collect::<Vec<_>>();
        assert_eq!(keys("m/02"), ["m/02", "m/03"]);
        assert_eq!(keys("m/04"), Vec::<String>::new());
        assert_eq!(keys(""), ["m/01", "m/02", "m/03"], "a start below the prefix reads the whole prefix");
        let steps0 = db.stats().steps();
        keys("m/03");
        assert_eq!(db.stats().steps() - steps0, 1, "no key below the start is visited");
    }

    #[test]
    fn scan_chain_fetches_every_terminator_prefix() {
        let db = Db::in_memory();
        let (a, ab, abc) = ("ms\u{1}", "ms\u{1}c\u{1}", "ms\u{1}c\u{1}s\u{1}");
        put1(&db, "t", a, "A");
        put1(&db, "t", abc, "C");
        put1(&db, "t", "ms\u{1}other\u{1}", "X");
        let rt = db.begin_read();
        let rows = rt.scan_chain("t", abc);
        let keys: Vec<_> = rows.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec![a, abc], "absent middle prefix {ab} skipped, shortest first");
        // charged as exactly one scan, zero point reads
        let scans0 = db.stats().scans();
        let reads0 = db.stats().reads();
        let _ = db.begin_read().scan_chain("t", abc);
        assert_eq!(db.stats().scans() - scans0, 1);
        assert_eq!(db.stats().reads() - reads0, 0);
    }

    #[test]
    fn write_scan_chain_registers_absent_prefixes_for_validation() {
        let db = Db::in_memory();
        put1(&db, "t", "ms\u{1}c\u{1}s\u{1}", "leaf");
        let mut tx = db.begin_write();
        let rows = tx.scan_chain("t", "ms\u{1}c\u{1}s\u{1}");
        assert_eq!(rows.len(), 1);
        tx.put("t", "derived", Bytes::from_static(b"d"));
        // A concurrent create of the *absent* ancestor must invalidate the
        // chain read (phantom on the ancestor chain).
        put1(&db, "t", "ms\u{1}c\u{1}", "born");
        assert!(matches!(tx.commit(), Err(TxError::Conflict { .. })));
    }

    #[test]
    fn scan_chain_merges_buffered_writes() {
        let db = Db::in_memory();
        put1(&db, "t", "ms\u{1}", "A");
        put1(&db, "t", "ms\u{1}c\u{1}", "B");
        let mut tx = db.begin_write();
        tx.delete("t", "ms\u{1}c\u{1}");
        tx.put("t", "ms\u{1}c2\u{1}", Bytes::from_static(b"mine"));
        let rows = tx.scan_chain("t", "ms\u{1}c\u{1}s\u{1}");
        let keys: Vec<_> = rows.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["ms\u{1}"], "buffered delete masks the row");
        let rows = tx.scan_chain("t", "ms\u{1}c2\u{1}x\u{1}");
        let keys: Vec<_> = rows.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["ms\u{1}", "ms\u{1}c2\u{1}"], "buffered put visible");
    }

    #[test]
    fn pred_in_range_finds_greatest_visible_key() {
        let db = Db::in_memory();
        put1(&db, "t", "p/a", "1");
        put1(&db, "t", "p/m", "2");
        put1(&db, "t", "p/z", "3");
        let rt = db.begin_read();
        let (k, v) = rt.pred_in_range("t", "p/", "p/x").unwrap();
        assert_eq!((k.as_str(), &v[..]), ("p/m", &b"2"[..]));
        // end is exclusive
        let (k, _) = rt.pred_in_range("t", "p/", "p/m").unwrap();
        assert_eq!(k, "p/a");
        assert!(rt.pred_in_range("t", "p/", "p/a").is_none());
    }

    #[test]
    fn pred_in_range_merges_buffered_writes() {
        let db = Db::in_memory();
        put1(&db, "t", "p/m", "db");
        let mut tx = db.begin_write();
        tx.delete("t", "p/m");
        assert!(tx.pred_in_range("t", "p/", "p/x").is_none(), "buffered delete masks");
        tx.put("t", "p/q", Bytes::from_static(b"mine"));
        let (k, v) = tx.pred_in_range("t", "p/", "p/x").unwrap();
        assert_eq!((k.as_str(), &v[..]), ("p/q", &b"mine"[..]));
    }

    #[test]
    fn pred_seek_validates_against_concurrent_inserts_above_found() {
        let db = Db::in_memory();
        put1(&db, "t", "p/a", "1");
        let mut tx = db.begin_write();
        let (k, _) = tx.pred_in_range("t", "p/", "p/z").unwrap();
        assert_eq!(k, "p/a");
        tx.put("t", "derived", Bytes::from_static(b"d"));
        // A new key between the found one and `end` changes the answer.
        put1(&db, "t", "p/m", "2");
        assert!(matches!(tx.commit(), Err(TxError::Conflict { .. })));
    }

    #[test]
    fn pred_seek_ignores_concurrent_inserts_below_found() {
        let db = Db::in_memory();
        put1(&db, "t", "p/m", "1");
        let mut tx = db.begin_write();
        let (k, _) = tx.pred_in_range("t", "p/", "p/z").unwrap();
        assert_eq!(k, "p/m");
        tx.put("t", "derived", Bytes::from_static(b"d"));
        // Below the found key: cannot change the predecessor, no conflict.
        put1(&db, "t", "p/a", "2");
        tx.commit().unwrap();
    }

    #[test]
    fn pred_seek_miss_validates_whole_range() {
        let db = Db::in_memory();
        let mut tx = db.begin_write();
        assert!(tx.pred_in_range("t", "p/", "p/z").is_none());
        tx.put("t", "derived", Bytes::from_static(b"d"));
        put1(&db, "t", "p/a", "1");
        assert!(matches!(tx.commit(), Err(TxError::Conflict { .. })));
    }

    #[test]
    fn concurrent_counter_increments_are_serializable() {
        // Classic lost-update test: N threads increment a counter with
        // retry-on-conflict; the final value must be exactly N * iters.
        let db = Db::in_memory();
        put1(&db, "t", "ctr", "0");
        let threads = 8;
        let iters = 25;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..iters {
                    loop {
                        let mut tx = db.begin_write();
                        let cur: i64 = tx
                            .get("t", "ctr")
                            .map(|b| String::from_utf8(b.to_vec()).unwrap().parse().unwrap())
                            .unwrap();
                        tx.put("t", "ctr", Bytes::from((cur + 1).to_string()));
                        if tx.commit().is_ok() {
                            break;
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let final_val: i64 = db
            .get_latest("t", "ctr")
            .map(|b| String::from_utf8(b.to_vec()).unwrap().parse().unwrap())
            .unwrap();
        assert_eq!(final_val, (threads * iters) as i64);
    }
}
