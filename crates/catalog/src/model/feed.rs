//! The change feed: one row per committed metastore version, written in the
//! commit it describes — the §4.5 reconciliation log and the §4.4 event
//! stream, as one table.
//!
//! `T_FEED` is keyed `{ms}/{version:020}`. The version is fixed-width, so
//! key order is version order and a metastore's feed is one contiguous,
//! version-ordered range of its own. Row v holds the `T_TREE` and `T_PATH`
//! keys commit v wrote — what a reconciling cache invalidates — and the
//! change events the commit carried. The last key of the range *is* the
//! metastore version: there is no other version row, and two writers of one
//! metastore conflict on the seek that finds it. The commit that writes row
//! v deletes row v − [`WINDOW`], so a metastore holds at most `WINDOW` rows,
//! busy or idle; a reader whose position fell out of the window starts over
//! from the full state.
//!
//! This module is the format: key builders and the row codec. The write
//! protocol (`UnityCatalog::write_ms`) writes rows; the cache's reconcile
//! and `UnityCatalog::events_since` read them.

use std::fmt::Write as _;

use bytes::Bytes;
use uc_txdb::ReadTxn;

use crate::error::{UcError, UcResult};
use crate::events::ChangeOp;
use crate::ids::Uid;
use crate::jsonutil;
use crate::types::SecurableKind;

/// Feed rows: `{ms}/{version:020}` → [`FeedRow::encode`]d row.
pub const T_FEED: &str = "feed";

/// Rows a metastore retains: the newest `WINDOW` versions. A node whose
/// cache is further behind reconciles in full, and an event consumer
/// further behind resyncs by polling, so the window only has to outlast a
/// burst of writes another node did not see — `ablation_reconcile`'s is
/// 20 — with room to spare. A row of an ordinary write is ~260 bytes, so
/// the window is ~70 KB per metastore, idle ones included; a bulk chunk's
/// row names every key the chunk wrote.
pub const WINDOW: u64 = 256;

/// The key of a metastore's row `version`.
pub fn key(ms: &Uid, version: u64) -> String {
    format!("{ms}/{version:020}")
}

/// Prefix of every row of a metastore.
pub fn prefix(ms: &Uid) -> String {
    format!("{ms}/")
}

/// Bounds `[start, end)` of the seek for a metastore's version: the
/// greatest key of its range.
pub(crate) fn head_range(ms: &Uid) -> (String, String) {
    (prefix(ms), key(ms, u64::MAX))
}

/// The version a feed key names.
pub fn version_of(key: &str) -> u64 {
    key.rsplit('/').next().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// One change event as its commit stored it; the feed read adds the
/// metastore, the version and the time.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedEvent {
    pub id: Uid,
    pub kind: SecurableKind,
    /// Entity name at event time (a deleted entity keeps its last name, so
    /// consumers can de-index it).
    pub name: String,
    pub op: ChangeOp,
}

/// What one commit wrote and announced.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct FeedRow {
    /// Commit time on the writing node's clock.
    pub at_ms: u64,
    /// `T_TREE` keys the commit put or deleted.
    pub tree: Vec<String>,
    /// `T_PATH` keys the commit put or deleted.
    pub path: Vec<String>,
    pub events: Vec<FeedEvent>,
}

/// Encode one commit's row from what the commit has at hand, borrowed:
/// `at_ms;`, then the tree keys, the path keys and the events, each list
/// closed by `;`. A string is `{len}:` and its bytes, so a key holds any
/// byte unescaped; an enum is its JSON text and `;`. Every commit writes
/// one, so the row is not JSON: encoded through the serde tree, a grant
/// cost ~1.4 µs more on a 2-vCPU host, and `write_mix`'s p50 rose 30 %
/// over ten alternating pairs.
pub fn encode<'a>(
    at_ms: u64,
    tree: impl IntoIterator<Item = &'a str>,
    path: impl IntoIterator<Item = &'a str>,
    events: &[FeedEvent],
) -> Bytes {
    let mut out = String::with_capacity(256);
    let string = |out: &mut String, s: &str| {
        let _ = write!(out, "{}:", s.len());
        out.push_str(s);
    };
    let _ = write!(out, "{at_ms};");
    tree.into_iter().for_each(|key| string(&mut out, key));
    out.push(';');
    path.into_iter().for_each(|key| string(&mut out, key));
    out.push(';');
    for e in events {
        string(&mut out, e.id.as_str());
        let _ = write!(out, "{};", jsonutil::to_string(&e.kind));
        string(&mut out, &e.name);
        let _ = write!(out, "{};", jsonutil::to_string(&e.op));
    }
    out.push(';');
    Bytes::from(out)
}

impl FeedRow {
    pub fn encode(&self) -> Bytes {
        encode(self.at_ms, self.tree.iter().map(String::as_str), self.path.iter().map(String::as_str), &self.events)
    }

    pub fn decode(raw: &[u8]) -> UcResult<FeedRow> {
        let corrupt = || UcError::Database("corrupt feed row".into());
        let mut r = Reader(std::str::from_utf8(raw).map_err(|_| corrupt())?);
        let key = |r: &mut Reader| r.string().map(str::to_string);
        let event = |r: &mut Reader| {
            Some(FeedEvent {
                id: Uid::from(r.string()?),
                kind: serde_json::from_str(r.word()?).ok()?,
                name: r.string()?.to_string(),
                op: serde_json::from_str(r.word()?).ok()?,
            })
        };
        let row = (|| {
            let at_ms = r.word()?.parse().ok()?;
            let (tree, path, events) = (r.list(key)?, r.list(key)?, r.list(event)?);
            r.0.is_empty().then_some(FeedRow { at_ms, tree, path, events })
        })();
        row.ok_or_else(corrupt)
    }
}

/// A cursor over an encoded [`FeedRow`].
struct Reader<'a>(&'a str);

impl<'a> Reader<'a> {
    /// Everything up to the next `;`.
    fn word(&mut self) -> Option<&'a str> {
        let (word, rest) = self.0.split_once(';')?;
        self.0 = rest;
        Some(word)
    }

    /// Items up to the list's closing `;`.
    fn list<T>(&mut self, item: impl Fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let mut out = Vec::new();
        loop {
            if let Some(rest) = self.0.strip_prefix(';') {
                self.0 = rest;
                return Some(out);
            }
            out.push(item(self)?);
        }
    }

    /// A `{len}:`-prefixed string.
    fn string(&mut self) -> Option<&'a str> {
        let (len, rest) = self.0.split_once(':')?;
        let len: usize = len.parse().ok()?;
        let s = rest.get(..len)?;
        self.0 = &rest[len..];
        Some(s)
    }
}

/// The rows of versions `(after, through]` at `rt`'s snapshot, oldest
/// first, and whether they are the whole of that history: `false` when the
/// window no longer holds row `after + 1`, so a reader at `after` missed
/// commits, and no row is returned. One range read from `after + 1`; no row
/// past `through` is decoded.
pub(crate) fn rows_between(
    rt: &ReadTxn,
    ms: &Uid,
    after: u64,
    through: u64,
) -> UcResult<(Vec<(u64, FeedRow)>, bool)> {
    let first = after.saturating_add(1);
    let raw = rt.scan_prefix_from(T_FEED, &prefix(ms), &key(ms, first));
    if raw.first().is_some_and(|(k, _)| version_of(k) != first) {
        return Ok((Vec::new(), false));
    }
    let rows = raw
        .iter()
        .map(|(k, v)| (version_of(k), v))
        .take_while(|(version, _)| *version <= through)
        .map(|(version, v)| Ok((version, FeedRow::decode(v)?)))
        .collect::<UcResult<_>>()?;
    Ok((rows, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_by_version_within_one_metastore() {
        let ms = Uid::from("ms");
        assert!(key(&ms, 9) < key(&ms, 10));
        assert!(key(&ms, 99) < key(&ms, 100));
        assert!(key(&ms, 1).starts_with(&prefix(&ms)));
        assert!(!key(&Uid::from("ms2"), 1).starts_with(&prefix(&ms)), "no metastore is a prefix of another's range");
        let (start, end) = head_range(&ms);
        assert!(start < key(&ms, 1) && key(&ms, u64::MAX - 1) < end);
        assert_eq!(version_of(&key(&ms, 42)), 42);
    }

    #[test]
    fn rows_roundtrip() {
        let event = |name: &str, op| FeedEvent { id: Uid::from("e"), kind: SecurableKind::Catalog, name: name.into(), op };
        let row = FeedRow {
            at_ms: 7,
            tree: vec!["ms\u{1}catalog:c\u{1}".into(), "x;y:z".into(), String::new()],
            path: vec![],
            events: vec![event("c", ChangeOp::Create), event("a:3;b", ChangeOp::LineageAdd)],
        };
        assert_eq!(FeedRow::decode(&row.encode()).unwrap(), row);
        assert_eq!(FeedRow::decode(&FeedRow::default().encode()).unwrap(), FeedRow::default());
        let encoded = row.encode();
        for cut in 0..encoded.len() {
            assert!(FeedRow::decode(&encoded[..cut]).is_err(), "a row cut at {cut} is corrupt");
        }
        assert!(FeedRow::decode(b"1;;;;trailing").is_err());
    }

    #[test]
    fn rows_between_reads_a_range_and_tells_a_gap() {
        let db = uc_txdb::Db::in_memory();
        let ms = Uid::from("ms");
        let mut tx = db.begin_write();
        for v in 3..=6 {
            tx.put(T_FEED, &key(&ms, v), FeedRow { at_ms: v, ..Default::default() }.encode());
        }
        tx.put(T_FEED, &key(&Uid::from("other"), 7), FeedRow::default().encode());
        tx.commit().unwrap();
        let rt = db.begin_read();
        let versions = |after, through| {
            let (rows, complete) = rows_between(&rt, &ms, after, through).unwrap();
            (rows.into_iter().map(|(v, row)| (v, row.at_ms)).collect::<Vec<_>>(), complete)
        };
        assert_eq!(versions(3, 5), (vec![(4, 4), (5, 5)], true));
        assert_eq!(versions(2, u64::MAX), (vec![(3, 3), (4, 4), (5, 5), (6, 6)], true));
        assert_eq!(versions(6, u64::MAX), (vec![], true), "caught up");
        assert_eq!(versions(9, u64::MAX), (vec![], true), "ahead of the head: nothing to read");
        assert_eq!(versions(u64::MAX, u64::MAX), (vec![], true), "a position from outside cannot overflow");
        assert_eq!(versions(1, u64::MAX), (vec![], false), "row 2 is gone: a reader at 1 missed it");
    }
}
