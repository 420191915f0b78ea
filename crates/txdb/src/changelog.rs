//! Ordered change log over committed writes.
//!
//! The catalog's write-through cache consumes it for *selective*
//! reconciliation: invalidate exactly the entries that changed between two
//! database versions (§4.5). A record names the row a commit touched, not
//! its value — the value lives in the version chain, where GC can free it.
//!
//! Retention: every commit drops the records at or below
//! min(snapshot horizon, oldest registered [`ChangeCursor`]). A cache holds
//! a cursor at the CSN it has consumed through; a consumer whose position
//! fell below the oldest retained record (it held no cursor) sees that via
//! [`ChangeLog::min_retained_csn`] and must resync in full.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

/// Kind of change a committed write applied to a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    Put,
    Delete,
}

/// One committed row change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeRecord {
    /// Commit sequence number of the transaction that made the change.
    pub csn: u64,
    pub table: String,
    pub key: String,
    pub kind: ChangeKind,
}

/// Registered cursor positions: CSN → how many cursors sit there.
type Cursors = Arc<Mutex<BTreeMap<u64, usize>>>;

/// Append-only log, truncated from the front as commits pass it.
#[derive(Default)]
pub struct ChangeLog {
    records: RwLock<VecDeque<ChangeRecord>>,
    cursors: Cursors,
}

impl ChangeLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one commit's records (in order), then drop every record at
    /// or below min(`horizon`, oldest cursor). Records arrive in CSN order,
    /// so the drop is a pop from the front: amortized O(1) per record.
    pub(crate) fn append(&self, batch: Vec<ChangeRecord>, horizon: u64) {
        let keep_after = self.oldest_cursor().map_or(horizon, |c| c.min(horizon));
        let mut records = self.records.write();
        records.extend(batch);
        while records.front().is_some_and(|r| r.csn <= keep_after) {
            records.pop_front();
        }
    }

    /// All retained records with `csn > after_csn`, in commit order.
    pub fn changes_since(&self, after_csn: u64) -> Vec<ChangeRecord> {
        let records = self.records.read();
        let idx = records.partition_point(|r| r.csn <= after_csn);
        records.range(idx..).cloned().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.read().is_empty()
    }

    /// Drop records with `csn < before_csn` now, cursors or not — what a
    /// bounded-retention deployment would do; consumers that fell behind
    /// must fall back to a full resync.
    pub fn truncate_before(&self, before_csn: u64) {
        let mut records = self.records.write();
        while records.front().is_some_and(|r| r.csn < before_csn) {
            records.pop_front();
        }
    }

    /// Smallest retained CSN, if any — consumers compare against this to
    /// detect that they missed truncated history.
    pub fn min_retained_csn(&self) -> Option<u64> {
        self.records.read().front().map(|r| r.csn)
    }

    /// Register a cursor at `csn`: until it advances or is dropped, the log
    /// keeps every record after `csn`.
    pub fn cursor(&self, csn: u64) -> ChangeCursor {
        *self.cursors.lock().entry(csn).or_default() += 1;
        ChangeCursor { cursors: self.cursors.clone(), csn: AtomicU64::new(csn) }
    }

    /// Position of the oldest registered cursor.
    pub fn oldest_cursor(&self) -> Option<u64> {
        self.cursors.lock().keys().next().copied()
    }
}

/// A consumer's position in the [`ChangeLog`]: the CSN it has consumed
/// through. Dropping it releases the records it held.
pub struct ChangeCursor {
    cursors: Cursors,
    csn: AtomicU64,
}

impl ChangeCursor {
    /// The CSN this cursor has consumed through.
    pub fn csn(&self) -> u64 {
        self.csn.load(Ordering::Acquire)
    }

    /// Move forward to `csn`, releasing the records at or below it; a
    /// position behind the current one is ignored. Free when not ahead.
    pub fn advance(&self, csn: u64) {
        if csn <= self.csn() {
            return;
        }
        let mut cursors = self.cursors.lock();
        let old = self.csn();
        if csn <= old {
            return;
        }
        release(&mut cursors, old);
        *cursors.entry(csn).or_default() += 1;
        self.csn.store(csn, Ordering::Release);
    }
}

impl Drop for ChangeCursor {
    fn drop(&mut self) {
        release(&mut self.cursors.lock(), self.csn());
    }
}

fn release(cursors: &mut BTreeMap<u64, usize>, csn: u64) {
    if let Some(n) = cursors.get_mut(&csn) {
        *n -= 1;
        if *n == 0 {
            cursors.remove(&csn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(csn: u64, key: &str) -> ChangeRecord {
        ChangeRecord { csn, table: "t".into(), key: key.into(), kind: ChangeKind::Put }
    }

    #[test]
    fn changes_since_filters_by_csn() {
        let log = ChangeLog::new();
        log.append(vec![rec(1, "a"), rec(1, "b")], 0);
        log.append(vec![rec(2, "c")], 0);
        log.append(vec![rec(3, "d")], 0);
        let got = log.changes_since(1);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].key, "c");
        assert_eq!(got[1].key, "d");
        assert_eq!(log.changes_since(0).len(), 4);
        assert!(log.changes_since(3).is_empty());
    }

    #[test]
    fn truncate_drops_old_records() {
        let log = ChangeLog::new();
        log.append(vec![rec(1, "a"), rec(2, "b"), rec(3, "c")], 0);
        log.truncate_before(3);
        assert_eq!(log.len(), 1);
        assert_eq!(log.min_retained_csn(), Some(3));
        assert_eq!(log.changes_since(0).len(), 1);
    }

    #[test]
    fn empty_append_is_noop() {
        let log = ChangeLog::new();
        log.append(vec![], 0);
        assert!(log.is_empty());
        assert_eq!(log.min_retained_csn(), None);
    }

    #[test]
    fn append_drops_what_the_horizon_passed_unless_a_cursor_holds_it() {
        let log = ChangeLog::new();
        log.append(vec![rec(1, "a")], 0);
        log.append(vec![rec(2, "b")], 1);
        assert_eq!(log.min_retained_csn(), Some(2), "no cursor: the horizon alone decides");
        let cursor = log.cursor(2);
        log.append(vec![rec(3, "c")], 2);
        log.append(vec![rec(4, "d")], 3);
        assert_eq!(log.min_retained_csn(), Some(3), "the cursor holds everything after 2");
        cursor.advance(3);
        cursor.advance(1);
        assert_eq!((cursor.csn(), log.oldest_cursor()), (3, Some(3)), "cursors never move back");
        log.append(vec![rec(5, "e")], 4);
        assert_eq!(log.min_retained_csn(), Some(4));
        drop(cursor);
        assert_eq!(log.oldest_cursor(), None);
        log.append(vec![rec(6, "f")], 5);
        assert_eq!(log.changes_since(0).iter().map(|r| r.csn).collect::<Vec<_>>(), [6]);
    }

    #[test]
    fn cursors_at_one_position_count_separately() {
        let log = ChangeLog::new();
        let (a, b) = (log.cursor(2), log.cursor(2));
        a.advance(5);
        assert_eq!(log.oldest_cursor(), Some(2), "b still sits at 2");
        drop(b);
        assert_eq!(log.oldest_cursor(), Some(5));
        drop(a);
        assert_eq!(log.oldest_cursor(), None);
    }
}
