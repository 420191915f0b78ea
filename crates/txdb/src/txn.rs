//! Read and write transactions.
//!
//! A [`ReadTxn`] is a snapshot: it pins a CSN and the partition map of that
//! moment (see [`crate::db`]), and every read resolves the version chains
//! at that CSN. Each read primitive is written once, here, over the
//! snapshot with an optional *overlay* — one table's buffered writes — laid
//! over its answer. A `ReadTxn` has none. A read whose keys all lie in one
//! partition reads that partition alone; a shorter prefix or a range that
//! spans partitions reads each and merges them in key order.
//!
//! A [`WriteTxn`] is a reader plus a write buffer and a read set, and is
//! serializable via optimistic concurrency control. Its reads are the
//! reader's with the buffer as the overlay; each records the `Span` of
//! keys whose change could alter its answer. A commit takes the commit
//! locks of the partitions it touches (those of every key written and every
//! span read; all of them for a span no one partition holds) in name order,
//! then checks every buffered key and every span read: a chain in one with
//! a committed version newer than the snapshot is a conflict. A span covers
//! keys that were absent at the snapshot too, so a row inserted into a
//! scanned range after the snapshot conflicts (no phantoms). It then takes
//! the row-map write locks of the partitions it writes, and last the one
//! sequencer, under which it assigns its CSN, installs and publishes — so
//! CSNs are published in order and a snapshot at `c` sees every commit up
//! to `c` whole.
//!
//! The reader registers its snapshot with the database when it begins and
//! releases it when dropped; a committing `WriteTxn` drops its reader once
//! validation is done. The oldest open snapshot is the horizon commits
//! reclaim against (see [`crate::db`]).

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included, Unbounded};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use uc_cloudstore::faults::points;
use uc_cloudstore::latency::OpClass;
use uc_cloudstore::sched;

use crate::db::{find, first_sep, partition_of, Db, Partition, Parts, Table, Version, VersionChain};
use crate::error::{TxError, TxResult};

/// One table's buffered writes by key; `None` is a delete.
type Buffer = BTreeMap<String, Option<Bytes>>;

/// The value `chain` holds at `snapshot`; `None` if absent or deleted.
fn value_at(chain: &VersionChain, snapshot: u64) -> Option<Bytes> {
    chain.visible_at(snapshot).and_then(|v| v.value.clone())
}

/// Snapshot-isolated read-only transaction, and the reader inside every
/// [`WriteTxn`].
pub struct ReadTxn {
    db: Db,
    snapshot: u64,
    /// The partitions at the snapshot.
    parts: Arc<Parts>,
}

impl ReadTxn {
    /// `snapshot` must be registered with `db`, and `parts` be the
    /// partition map read with it (see `Db::begin_read`); dropping the
    /// transaction releases it.
    pub(crate) fn new(db: Db, snapshot: u64, parts: Arc<Parts>) -> Self {
        ReadTxn { db, snapshot, parts }
    }

    /// CSN this transaction observes.
    pub fn snapshot_csn(&self) -> u64 {
        self.snapshot
    }

    pub(crate) fn parts(&self) -> &[Arc<Partition>] {
        &self.parts
    }

    /// The partitions that can hold a key of `span`: its one partition, or
    /// every partition when no one partition holds it.
    fn cover(&self, span: &Span<&str>) -> &[Arc<Partition>] {
        match span.partition() {
            Some(name) => find(&self.parts, name).map_or(&[], std::slice::from_ref),
            None => &self.parts,
        }
    }

    /// Point lookup at the snapshot.
    pub fn get(&self, table: &str, key: &str) -> Option<Bytes> {
        self.db.charge(OpClass::Read);
        self.db.stats().record_read();
        let rows = find(&self.parts, partition_of(key))?.rows.read();
        value_at(rows.tables.get(table)?.get(key)?, self.snapshot)
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
        self.scan_over(table, prefix, start, None)
    }

    /// All live rows at the chain prefixes of `key` — every prefix ending
    /// at a [`CHAIN_SEP`] byte, shortest first. For tree-encoded keys
    /// (every segment terminator is a `CHAIN_SEP`) this fetches the whole
    /// ancestor chain of a node in one table traversal under one lock
    /// acquisition, charged as a single scan.
    pub fn scan_chain(&self, table: &str, key: &str) -> Vec<(String, Bytes)> {
        self.chain_over(table, key, None)
    }

    /// Greatest live key in `[start, end)` with its value — an index seek
    /// to the predecessor of `end`, charged as a single read. Range scans
    /// plus this primitive are what the tree keyspace's ancestor checks
    /// (path overlap, nearest-covering-path resolution) run on.
    pub fn pred_in_range(&self, table: &str, start: &str, end: &str) -> Option<(String, Bytes)> {
        self.pred_over(table, start, end, None)
    }

    /// [`Self::scan_prefix_from`] with `over` laid over the rows. Steps
    /// count every chain the range visits, buffered or not.
    fn scan_over(&self, table: &str, prefix: &str, start: &str, over: Option<&Buffer>) -> Vec<(String, Bytes)> {
        self.db.charge(OpClass::List);
        self.db.stats().record_scan();
        let from = (Included(start.max(prefix)), Unbounded);
        let parts = self.cover(&Span::Prefix(prefix));
        let mut steps = 0;
        let mut rows = Vec::new();
        for p in parts {
            let guard = p.rows.read();
            let Some(t) = guard.tables.get(table) else { continue };
            rows.extend(t.range::<str, _>(from).take_while(|(k, _)| k.starts_with(prefix)).filter_map(|(k, chain)| {
                steps += 1;
                value_at(chain, self.snapshot).map(|v| (k.clone(), v))
            }));
        }
        if parts.len() > 1 {
            rows.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        }
        self.db.stats().record_steps(steps);
        match over {
            Some(b) => lay_over(rows, b.range::<str, _>(from).take_while(|(k, _)| k.starts_with(prefix))),
            None => rows,
        }
    }

    /// [`Self::scan_chain`] with `over` laid over the rows. A buffered
    /// prefix is not looked up, so it is no step. Every chain prefix of a
    /// key is in the key's partition.
    fn chain_over(&self, table: &str, key: &str, over: Option<&Buffer>) -> Vec<(String, Bytes)> {
        self.db.charge(OpClass::List);
        self.db.stats().record_scan();
        let guard = find(&self.parts, partition_of(key)).map(|p| p.rows.read());
        let t = guard.as_ref().and_then(|rows| rows.tables.get(table));
        let mut steps = 0;
        let rows = chain_prefixes(key)
            .filter_map(|p| {
                let value = match over.and_then(|b| b.get(p)) {
                    Some(buffered) => buffered.clone(),
                    None => {
                        let chain = t?.get(p)?;
                        steps += 1;
                        value_at(chain, self.snapshot)
                    }
                };
                value.map(|v| (p.to_string(), v))
            })
            .collect();
        drop(guard);
        self.db.stats().record_steps(steps);
        rows
    }

    /// [`Self::pred_in_range`] with `over` laid over the range: a buffered
    /// delete hides a row, a buffered put is a row.
    fn pred_over(&self, table: &str, start: &str, end: &str, over: Option<&Buffer>) -> Option<(String, Bytes)> {
        self.db.charge(OpClass::Read);
        self.db.stats().record_read();
        let range = (Included(start), Excluded(end));
        let mut steps = 0;
        let mut found: Option<(String, Bytes)> = None;
        for p in self.cover(&Span::Range(start, end)) {
            let guard = p.rows.read();
            let Some(t) = guard.tables.get(table) else { continue };
            let best = t.range::<str, _>(range).rev().find_map(|(k, chain)| {
                steps += 1;
                let value = match over.and_then(|b| b.get(k)) {
                    Some(buffered) => buffered.clone(),
                    None => value_at(chain, self.snapshot),
                };
                value.map(|v| (k, v))
            });
            if let Some((k, v)) = best.filter(|(k, _)| found.as_ref().is_none_or(|(f, _)| *k > f)) {
                found = Some((k.clone(), v));
            }
        }
        self.db.stats().record_steps(steps);
        // A buffered put at a key the snapshot does not hold can beat the
        // snapshot's best.
        let put = over.and_then(|b| b.range::<str, _>(range).rev().find_map(|(k, v)| Some((k, v.as_ref()?))));
        match put {
            Some((k, v)) if found.as_ref().is_none_or(|(f, _)| k > f) => Some((k.clone(), v.clone())),
            _ => found,
        }
    }
}

impl Drop for ReadTxn {
    fn drop(&mut self) {
        self.db.close_snapshot(self.snapshot);
    }
}

/// `rows` with `buffered` (both in key order) laid over them: a buffered
/// put replaces or joins a row, a buffered delete removes one.
fn lay_over<'a>(
    rows: Vec<(String, Bytes)>,
    buffered: impl Iterator<Item = (&'a String, &'a Option<Bytes>)>,
) -> Vec<(String, Bytes)> {
    let mut rows = rows.into_iter().peekable();
    let mut out = Vec::new();
    for (key, value) in buffered {
        while let Some(row) = rows.next_if(|(k, _)| k < key) {
            out.push(row);
        }
        rows.next_if(|(k, _)| k == key);
        out.extend(value.clone().map(|v| (key.clone(), v)));
    }
    out.extend(rows);
    out
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

/// The keys of one table a read's answer depends on: a commit after the
/// snapshot to any of them could have changed it.
#[derive(Debug)]
enum Span<K> {
    /// One key: a point read, one prefix of a chain scan, a buffered write.
    Key(K),
    /// Every key starting with the prefix: a prefix scan.
    Prefix(K),
    /// `[lo, end)`: a predecessor seek, from the key it found (changes
    /// below it cannot alter the answer), or from its start when it found
    /// none.
    Range(K, K),
}

impl Span<String> {
    fn as_str(&self) -> Span<&str> {
        match self {
            Span::Key(k) => Span::Key(k),
            Span::Prefix(p) => Span::Prefix(p),
            Span::Range(lo, end) => Span::Range(lo, end),
        }
    }
}

impl<'a> Span<&'a str> {
    /// The one partition every key of the span lives in, or `None` when
    /// its keys can lie in several: a prefix, or the common prefix of a
    /// range's ends, that stops short of the first separator.
    fn partition(&self) -> Option<&'a str> {
        match *self {
            Span::Key(k) => Some(partition_of(k)),
            Span::Prefix(p) => first_sep(p).map(|i| &p[..i]),
            Span::Range(lo, end) => {
                let i = first_sep(lo)?;
                (end.as_bytes().get(..=i) == lo.as_bytes().get(..=i)).then(|| &lo[..i])
            }
        }
    }

    /// Some chain of `t` in the span has a version newer than `snapshot`.
    fn changed_after(&self, t: &Table, snapshot: u64) -> bool {
        let newer = |(_, chain): (&String, &VersionChain)| chain.latest_csn() > snapshot;
        match *self {
            Span::Key(k) => t.get_key_value(k).is_some_and(newer),
            Span::Prefix(p) => {
                t.range::<str, _>((Included(p), Unbounded)).take_while(|(k, _)| k.starts_with(p)).any(newer)
            }
            Span::Range(lo, end) => t.range::<str, _>((Included(lo), Excluded(end))).any(newer),
        }
    }

    /// What the `txdb.conflict` event calls the read: nothing for a point.
    fn kind(&self) -> &'static str {
        match self {
            Span::Key(_) => "",
            Span::Prefix(_) => " scan",
            Span::Range(..) => " pred",
        }
    }
}

/// Serializable read-write transaction: a reader, the writes it buffers
/// and the spans its reads saw.
pub struct WriteTxn {
    reader: ReadTxn,
    /// Buffered writes by table.
    writes: BTreeMap<String, Buffer>,
    /// `(table, span)` per read, validated at commit.
    reads: Vec<(String, Span<String>)>,
}

impl WriteTxn {
    pub(crate) fn new(reader: ReadTxn) -> Self {
        WriteTxn { reader, writes: BTreeMap::new(), reads: Vec::new() }
    }

    /// CSN this transaction reads at.
    pub fn snapshot_csn(&self) -> u64 {
        self.reader.snapshot
    }

    /// Point lookup: the transaction's own buffered write if it has one,
    /// else the snapshot's row, and the key joins the read set.
    pub fn get(&mut self, table: &str, key: &str) -> Option<Bytes> {
        if let Some(buffered) = self.writes.get(table).and_then(|b| b.get(key)) {
            return buffered.clone();
        }
        self.reads.push((table.to_string(), Span::Key(key.to_string())));
        self.reader.get(table, key)
    }

    /// [`ReadTxn::scan_prefix`] with buffered writes laid over it. The
    /// prefix joins the read set, so a phantom in it conflicts.
    pub fn scan_prefix(&mut self, table: &str, prefix: &str) -> Vec<(String, Bytes)> {
        self.reads.push((table.to_string(), Span::Prefix(prefix.to_string())));
        self.reader.scan_over(table, prefix, prefix, self.writes.get(table))
    }

    /// [`ReadTxn::scan_chain`] with buffered writes laid over it. Every
    /// prefix it did not find buffered — present *and* absent — joins the
    /// read set, so a concurrent create or drop anywhere on the ancestor
    /// chain conflicts.
    pub fn scan_chain(&mut self, table: &str, key: &str) -> Vec<(String, Bytes)> {
        let buffer = self.writes.get(table);
        let rows = self.reader.chain_over(table, key, buffer);
        let read = chain_prefixes(key).filter(|p| !buffer.is_some_and(|b| b.contains_key(*p)));
        self.reads.extend(read.map(|p| (table.to_string(), Span::Key(p.to_string()))));
        rows
    }

    /// [`ReadTxn::pred_in_range`] with buffered writes laid over it.
    /// `[found-or-start, end)` joins the read set: a change there is
    /// exactly what could move the answer.
    pub fn pred_in_range(&mut self, table: &str, start: &str, end: &str) -> Option<(String, Bytes)> {
        let found = self.reader.pred_over(table, start, end, self.writes.get(table));
        let lo = found.as_ref().map_or(start, |(k, _)| k.as_str());
        self.reads.push((table.to_string(), Span::Range(lo.to_string(), end.to_string())));
        found
    }

    /// Buffer an upsert.
    pub fn put(&mut self, table: &str, key: &str, value: Bytes) {
        self.buffer(table, key, Some(value));
    }

    /// Buffer a delete.
    pub fn delete(&mut self, table: &str, key: &str) {
        self.buffer(table, key, None);
    }

    fn buffer(&mut self, table: &str, key: &str, value: Option<Bytes>) {
        match self.writes.get_mut(table) {
            Some(b) => {
                b.insert(key.to_string(), value);
            }
            None => {
                self.writes.insert(table.to_string(), BTreeMap::from([(key.to_string(), value)]));
            }
        }
    }

    /// The keys of `table` this transaction has buffered a put or a delete
    /// for, in key order: what its commit will write there.
    pub fn written_keys<'a>(&'a self, table: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.writes.get(table).into_iter().flat_map(|b| b.keys().map(String::as_str))
    }

    /// Validate and commit; returns the new CSN. On [`TxError::Conflict`]
    /// the transaction is consumed — callers retry from `begin_write`.
    /// Dropping a transaction instead discards its writes.
    pub fn commit(self) -> TxResult<u64> {
        let db = self.reader.db.clone();
        let obs = &db.inner.obs;
        let start_ms = obs.clock_ms();
        let mut span = obs.span("txdb", "commit");
        let result = self.commit_inner(&db);
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

    fn commit_inner(self, db: &Db) -> TxResult<u64> {
        let WriteTxn { reader, writes, reads } = self;
        let snapshot = reader.snapshot;
        if writes.is_empty() {
            // Read-only write-txn: snapshot reads are already consistent.
            return Ok(snapshot);
        }
        db.charge(OpClass::Write);
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
            uc_obs::span_event("txdb.conflict", format_args!("injected snapshot={snapshot}"));
            return Err(TxError::Conflict {
                detail: format!("injected conflict at snapshot {snapshot}"),
            });
        }

        // Interleaving-exploration yield: placed before any partition lock
        // so a parked client never holds one. A no-op outside scheduled runs.
        sched::yield_point(sched::points::TXDB_COMMIT);

        // Every key written (as a point), then every span read, with the one
        // partition it lies in, if it has one.
        let rows = writes.values().map(Buffer::len).sum::<usize>();
        let written = writes.iter().flat_map(|(table, b)| b.keys().map(move |k| (table.as_str(), Span::Key(k.as_str()))));
        let checks: Vec<(Option<&str>, &str, Span<&str>)> = written
            .chain(reads.iter().map(|(table, span)| (table.as_str(), span.as_str())))
            .map(|(table, span)| (span.partition(), table, span))
            .collect();
        let mut names: Vec<&str> = checks.iter().filter_map(|(part, _, _)| *part).collect();
        names.sort_unstable();
        names.dedup();

        // The partitions to lock: the named ones — from the snapshot's map,
        // or made if missing — or, when some span has no one partition,
        // every partition.
        let wide = checks.iter().any(|(part, _, _)| part.is_none());
        let map = if wide || names.iter().any(|n| find(reader.parts(), n).is_none()) {
            db.partitions_with(&names)
        } else {
            Arc::clone(&reader.parts)
        };
        let parts: Parts = if wide {
            Parts::clone(&map)
        } else {
            names.iter().filter_map(|n| find(&map, n).cloned()).collect()
        };
        let locked: Vec<_> = parts.iter().map(|p| p.commit.lock()).collect();
        // Holds the commit locks, so it is an opt-in point: only a scheduler
        // that asks for it stops here, one whose other clients commit in
        // other partitions (see sched::OPT_IN).
        sched::yield_point(sched::points::TXDB_PARTITION);

        // --- Validation, under the commit locks: no commit touching these
        // partitions interleaves. Every key written and every span read
        // must be unchanged since the snapshot. The weaken switch exists
        // only to prove the history checker spots the anomalies this
        // prevents; see Db::set_unsafe_skip_commit_validation.
        if !inner.weaken_validation.load(Ordering::Relaxed) {
            for p in &parts {
                let rows = p.rows.read();
                let mut mine = checks.iter().filter(|(part, _, _)| part.is_none_or(|n| n == p.name));
                let changed = mine.find(|(_, table, span)| {
                    rows.tables.get(*table).is_some_and(|t| span.changed_after(t, snapshot))
                });
                if let Some((_, table, span)) = changed {
                    // The event detail names the table and the read's kind
                    // but not the key: keys can embed random entity Uids,
                    // which would break trace-dump byte-determinism.
                    let detail = format!("{table} {span:?} changed after snapshot {snapshot}");
                    drop(rows);
                    drop(locked);
                    return Err(conflict(db, format_args!("{table}{} snapshot={snapshot}", span.kind()), detail));
                }
            }
        }

        // --- Apply phase, reclaiming as the rows land (crate::db docs).
        // Validation was this transaction's last read: its own snapshot no
        // longer needs to hold the horizon.
        drop(reader);
        let horizon = db.reclaim_horizon();
        let wrote: Vec<&Arc<Partition>> =
            parts.iter().filter(|p| checks[..rows].iter().any(|(part, _, _)| *part == Some(p.name.as_str()))).collect();
        let mut guards: Vec<_> = wrote.iter().map(|p| p.rows.write()).collect();
        let mut seq = inner.sequencer.lock();
        if wide && inner.made.load(Ordering::Relaxed) != map.len() {
            // A partition made since the spans were checked may hold a
            // commit ahead of this one, into a span it never checked there.
            drop(seq);
            drop(guards);
            drop(locked);
            let detail = format!("a partition was made while spans at snapshot {snapshot} were checked");
            return Err(conflict(db, format_args!("partition made snapshot={snapshot}"), detail));
        }
        let new_csn = inner.csn.load(Ordering::Acquire) + 1;
        for (table, buffer) in writes {
            for (key, value) in buffer {
                let Some(i) = wrote.iter().position(|p| p.name == partition_of(&key)) else { continue };
                let part = &mut *guards[i];
                if value.is_none() {
                    part.dead.push_back((new_csn, table.clone(), key.clone()));
                }
                if !part.tables.contains_key(&table) {
                    part.tables.insert(table.clone(), Table::new());
                }
                let Some(t) = part.tables.get_mut(&table) else { continue };
                let chain = t.entry(key).or_default();
                chain.versions.push(Version { csn: new_csn, value });
                chain.prune(horizon);
            }
        }
        for (p, part) in wrote.iter().zip(&guards) {
            seq.note(p, part.dead_after(horizon), new_csn);
        }
        let due = seq.take_idle(horizon, new_csn);
        inner.csn.store(new_csn, Ordering::Release);
        drop(seq);
        for part in &mut guards {
            part.remove_dead(horizon);
        }
        drop(guards);
        drop(locked);
        for note in due {
            db.drain(note, horizon, new_csn);
        }
        inner.stats.record_write(rows as u64);
        inner.stats.record_commit();
        Ok(new_csn)
    }
}

/// Count a conflict, record its `txdb.conflict` event and build its error.
/// Called with no lock held: the event takes the tracer's lane, a leaf.
fn conflict(db: &Db, event: std::fmt::Arguments<'_>, detail: String) -> TxError {
    db.inner.stats.record_conflict();
    uc_obs::span_event("txdb.conflict", event);
    TxError::Conflict { detail }
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
        drop(tx);
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

    /// `f`'s answer and the `[reads, scans, steps]` it charged.
    fn charged<R>(db: &Db, f: impl FnOnce() -> R) -> (R, [u64; 3]) {
        let s = db.stats();
        let before = [s.reads(), s.scans(), s.steps()];
        let answer = f();
        (answer, [s.reads() - before[0], s.scans() - before[1], s.steps() - before[2]])
    }

    #[test]
    fn a_write_txn_with_nothing_buffered_reads_and_charges_as_a_read_txn() {
        let db = Db::in_memory();
        let keys = ["r\u{1}", "r\u{1}a\u{1}", "r\u{1}a\u{1}x\u{1}", "r\u{1}b\u{1}", "r\u{1}b\u{1}z\u{1}", "s\u{1}"];
        for k in keys {
            put1(&db, "t", k, k);
        }
        // A held snapshot keeps a deleted chain resident: a tombstone every
        // scan and seek still steps over.
        let held = db.begin_read();
        let mut tx = db.begin_write();
        tx.delete("t", "r\u{1}b\u{1}");
        tx.commit().unwrap();
        let rt = db.begin_read();
        let mut tx = db.begin_write();
        assert_eq!(rt.snapshot_csn(), tx.snapshot_csn());
        let probes = keys.into_iter().chain(["", "r\u{1}a", "r\u{1}b\u{1}q\u{1}", "t\u{1}"]);
        for p in probes {
            let read = charged(&db, || rt.get("t", p));
            assert_eq!(charged(&db, || tx.get("t", p)), read, "get {p:?}");
            let read = charged(&db, || rt.scan_prefix("t", p));
            assert_eq!(charged(&db, || tx.scan_prefix("t", p)), read, "scan_prefix {p:?}");
            let read = charged(&db, || rt.scan_chain("t", p));
            assert_eq!(charged(&db, || tx.scan_chain("t", p)), read, "scan_chain {p:?}");
            for end in keys.into_iter().filter(|end| *end > p) {
                let read = charged(&db, || rt.pred_in_range("t", p, end));
                assert_eq!(charged(&db, || tx.pred_in_range("t", p, end)), read, "pred_in_range {p:?}..{end:?}");
            }
        }
        drop(held);
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
            .begin_read()
            .get("t", "ctr")
            .map(|b| String::from_utf8(b.to_vec()).unwrap().parse().unwrap())
            .unwrap();
        assert_eq!(final_val, (threads * iters) as i64);
    }
}
