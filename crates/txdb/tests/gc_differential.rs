//! Reclamation is invisible: random interleavings of begin / get / scan /
//! resumed scan / chain scan / predecessor seek / put / delete / commit /
//! drop run against
//! the real database — which prunes versions and removes dead chains on
//! every commit — and against a reference that keeps every version forever.
//! Every read of every open transaction, and every commit verdict, must
//! agree; after each step, every open read snapshot must re-read exactly
//! what the reference says it holds.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use proptest::prelude::*;
use uc_txdb::{Db, ReadTxn, TxError, WriteTxn};

const T: &str = "t";

/// Tree-shaped keys (segments end in `\u{1}`), so chain scans, prefix
/// scans and seeks all cross each other's ranges.
const KEYS: [&str; 7] = [
    "r\u{1}",
    "r\u{1}a\u{1}",
    "r\u{1}a\u{1}x\u{1}",
    "r\u{1}a\u{1}y\u{1}",
    "r\u{1}b\u{1}",
    "r\u{1}b\u{1}z\u{1}",
    "s\u{1}",
];
const PREFIXES: [&str; 5] = ["", "r\u{1}", "r\u{1}a\u{1}", "r\u{1}b\u{1}", "s"];
const SLOTS: usize = 5;

/// Every version ever committed, never reclaimed.
#[derive(Default)]
struct Reference {
    csn: u64,
    history: BTreeMap<String, Vec<(u64, Option<Bytes>)>>,
}

impl Reference {
    fn at(&self, key: &str, snap: u64) -> Option<Bytes> {
        let versions = self.history.get(key)?;
        let idx = versions.partition_point(|(csn, _)| *csn <= snap);
        versions.get(idx.checked_sub(1)?)?.1.clone()
    }

    fn changed_after(&self, key: &str, snap: u64) -> bool {
        self.history.get(key).and_then(|v| v.last()).is_some_and(|(csn, _)| *csn > snap)
    }

    /// Live rows at `snap` with `writes` laid over them.
    fn view(&self, snap: u64, writes: &BTreeMap<String, Option<Bytes>>) -> BTreeMap<String, Bytes> {
        let mut rows: BTreeMap<String, Bytes> =
            self.history.keys().filter_map(|k| Some((k.clone(), self.at(k, snap)?))).collect();
        for (k, v) in writes {
            match v {
                Some(v) => rows.insert(k.clone(), v.clone()),
                None => rows.remove(k),
            };
        }
        rows
    }

    fn versions(&self) -> usize {
        self.history.values().map(Vec::len).sum()
    }
}

/// What the reference tracks of an open write transaction: exactly what
/// the real one validates at commit.
#[derive(Default)]
struct WriteModel {
    writes: BTreeMap<String, Option<Bytes>>,
    reads: BTreeSet<String>,
    scans: Vec<String>,
    preds: Vec<(String, String)>,
}

enum Slot {
    Read(ReadTxn),
    Write(WriteTxn, Box<WriteModel>),
}

fn chain_prefixes(key: &str) -> Vec<&str> {
    key.char_indices().filter(|(_, c)| *c == '\u{1}').map(|(i, _)| &key[..=i]).collect()
}

fn prefix_rows(view: &BTreeMap<String, Bytes>, prefix: &str) -> Vec<(String, Bytes)> {
    view.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(k, v)| (k.clone(), v.clone())).collect()
}

fn pred(view: &BTreeMap<String, Bytes>, start: &str, end: &str) -> Option<(String, Bytes)> {
    view.range(start.to_string()..end.to_string()).next_back().map(|(k, v)| (k.clone(), v.clone()))
}

/// A seek range: between two keys of the universe, or a prefix's subtree.
fn seek_range(a: usize, b: usize) -> (String, String) {
    let (lo, hi) = (KEYS[a.min(b)], KEYS[a.max(b)]);
    if lo == hi {
        (lo.to_string(), format!("{lo}\u{1}"))
    } else {
        (lo.to_string(), hi.to_string())
    }
}

/// Every open read snapshot re-reads what the reference holds at it.
fn check_open_snapshots(slots: &[Option<Slot>], reference: &Reference) {
    for slot in slots.iter().flatten() {
        let Slot::Read(rt) = slot else { continue };
        let snap = rt.snapshot_csn();
        let view = reference.view(snap, &BTreeMap::new());
        assert_eq!(rt.scan_prefix(T, ""), prefix_rows(&view, ""), "snapshot {snap} lost rows");
        for key in KEYS {
            assert_eq!(rt.get(T, key), reference.at(key, snap), "snapshot {snap} lost {key:?}");
        }
    }
}

type Op = (u8, usize, usize, usize);

/// Slots below this one hold read transactions, the rest write ones.
const READERS: usize = 2;

/// One step. An op on an empty slot begins its transaction first; codes
/// 10 to 15 weight puts and commits up, since reclamation needs a key
/// committed more than once while a snapshot is open; 16 resumes a prefix
/// scan, which only a read transaction has.
fn step(db: &Db, reference: &mut Reference, slots: &mut [Option<Slot>], (op, slot, a, b): Op, n: usize) {
    let key = KEYS[a];
    let op = match op {
        10..=12 => 6,
        13..=15 => 8,
        op => op,
    };
    let current = slots[slot].get_or_insert_with(|| {
        if slot < READERS {
            Slot::Read(db.begin_read())
        } else {
            Slot::Write(db.begin_write(), Box::default())
        }
    });
    match (op, current) {
        (0 | 1, _) => slots[slot] = None,
        (2, Slot::Read(rt)) => assert_eq!(rt.get(T, key), reference.at(key, rt.snapshot_csn())),
        (2, Slot::Write(tx, m)) => {
            let want = match m.writes.get(key) {
                Some(buffered) => buffered.clone(),
                None => {
                    m.reads.insert(key.to_string());
                    reference.at(key, tx.snapshot_csn())
                }
            };
            assert_eq!(tx.get(T, key), want);
        }
        (3, Slot::Read(rt)) => {
            let p = PREFIXES[a % PREFIXES.len()];
            let view = reference.view(rt.snapshot_csn(), &BTreeMap::new());
            assert_eq!(rt.scan_prefix(T, p), prefix_rows(&view, p));
        }
        (3, Slot::Write(tx, m)) => {
            let p = PREFIXES[a % PREFIXES.len()];
            m.scans.push(p.to_string());
            let view = reference.view(tx.snapshot_csn(), &m.writes);
            assert_eq!(tx.scan_prefix(T, p), prefix_rows(&view, p));
        }
        (4, Slot::Read(rt)) => {
            let view = reference.view(rt.snapshot_csn(), &BTreeMap::new());
            let want: Vec<_> =
                chain_prefixes(key).into_iter().filter_map(|p| Some((p.to_string(), view.get(p)?.clone()))).collect();
            assert_eq!(rt.scan_chain(T, key), want);
        }
        (4, Slot::Write(tx, m)) => {
            let view = reference.view(tx.snapshot_csn(), &m.writes);
            let mut want = Vec::new();
            for p in chain_prefixes(key) {
                if !m.writes.contains_key(p) {
                    m.reads.insert(p.to_string());
                }
                if let Some(v) = view.get(p) {
                    want.push((p.to_string(), v.clone()));
                }
            }
            assert_eq!(tx.scan_chain(T, key), want);
        }
        (5, Slot::Read(rt)) => {
            let (lo, hi) = seek_range(a, b);
            let view = reference.view(rt.snapshot_csn(), &BTreeMap::new());
            assert_eq!(rt.pred_in_range(T, &lo, &hi), pred(&view, &lo, &hi));
        }
        (5, Slot::Write(tx, m)) => {
            let (lo, hi) = seek_range(a, b);
            let want = pred(&reference.view(tx.snapshot_csn(), &m.writes), &lo, &hi);
            let effective_lo = want.as_ref().map_or(lo.clone(), |(k, _)| k.clone());
            m.preds.push((effective_lo, hi.clone()));
            assert_eq!(tx.pred_in_range(T, &lo, &hi), want);
        }
        (6, Slot::Write(tx, m)) => {
            let value = Bytes::from(format!("v{n}"));
            tx.put(T, key, value.clone());
            m.writes.insert(key.to_string(), Some(value));
        }
        (7 | 9, Slot::Write(tx, m)) => {
            tx.delete(T, key);
            m.writes.insert(key.to_string(), None);
        }
        (16, Slot::Read(rt)) => {
            let (p, start) = (PREFIXES[a % PREFIXES.len()], KEYS[b]);
            let view = reference.view(rt.snapshot_csn(), &BTreeMap::new());
            let want: Vec<_> = prefix_rows(&view, p).into_iter().filter(|(k, _)| k.as_str() >= start).collect();
            assert_eq!(rt.scan_prefix_from(T, p, start), want);
        }
        (8, Slot::Write(..)) => {
            let Some(Slot::Write(tx, m)) = slots[slot].take() else { unreachable!() };
            commit(reference, tx, *m);
        }
        _ => {} // a write op on a read slot
    }
}

/// Commit through the database and decide the reference's verdict the way
/// validation does, over the full history; both must agree.
fn commit(reference: &mut Reference, tx: WriteTxn, m: WriteModel) {
    let snap = tx.snapshot_csn();
    let moved = |k: &String| reference.changed_after(k, snap);
    let conflict = !m.writes.is_empty()
        && (m.reads.iter().chain(m.writes.keys()).any(moved)
            || m.scans.iter().any(|p| reference.history.keys().any(|k| k.starts_with(p.as_str()) && moved(k)))
            || m.preds.iter().any(|(lo, hi)| reference.history.range(lo.clone()..hi.clone()).any(|(k, _)| moved(k))));
    match tx.commit() {
        Ok(csn) if m.writes.is_empty() => assert_eq!(csn, snap),
        Ok(csn) => {
            assert!(!conflict, "the reference sees a conflict the database missed");
            reference.csn += 1;
            assert_eq!(csn, reference.csn);
            for (k, v) in m.writes {
                reference.history.entry(k).or_default().push((csn, v));
            }
        }
        Err(TxError::Conflict { .. }) => assert!(conflict, "the database saw a conflict the reference did not"),
        Err(e) => panic!("unexpected commit error {e}"),
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    collection::vec((0u8..17, 0usize..SLOTS, 0usize..KEYS.len(), 0usize..KEYS.len()), 1..160)
}

/// Drive `ops` against `db` and the reference; panics at the first
/// divergence.
fn run(db: &Db, ops: Vec<Op>) {
    let mut reference = Reference::default();
    let mut slots: Vec<Option<Slot>> = (0..SLOTS).map(|_| None).collect();
    for (n, op) in ops.into_iter().enumerate() {
        step(db, &mut reference, &mut slots, op, n);
        check_open_snapshots(&slots, &reference);
        assert!(db.resident().1 <= reference.versions(), "reclamation only ever removes");
    }
    slots.clear();
    assert_eq!(db.horizon(), db.current_csn(), "every snapshot was released");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reclamation_never_changes_what_an_open_snapshot_reads(ops in ops()) {
        run(&Db::in_memory(), ops);
    }
}

/// Teeth: the same sequences against reclamation that ignores open
/// snapshots must diverge from the reference.
#[test]
fn the_differential_catches_reclamation_that_ignores_open_snapshots() {
    let caught = (0..64).any(|seed| {
        let ops = ops().generate(&mut TestRng::from_seed(seed));
        let db = Db::in_memory();
        db.set_unsafe_gc_ignore_snapshots(true);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&db, ops))).is_err()
    });
    assert!(caught, "64 sequences ran clean with reclamation ignoring open snapshots");
}

/// A long reader pins its versions through a storm of overwrites and
/// deletes; once it is gone, the next commits bring every written chain
/// back to what the horizon needs.
#[test]
fn a_held_reader_pins_versions_and_releasing_it_frees_them() {
    let db = Db::in_memory();
    let commit = |f: &dyn Fn(&mut WriteTxn)| {
        let mut tx = db.begin_write();
        f(&mut tx);
        tx.commit().unwrap()
    };
    for key in KEYS {
        commit(&|tx| tx.put(T, key, Bytes::from_static(b"base")));
    }
    let held = db.begin_read();
    let before = held.scan_prefix(T, "");
    for round in 0..20 {
        for key in KEYS {
            if round % 5 == 4 {
                commit(&|tx| tx.delete(T, key));
            } else {
                commit(&|tx| tx.put(T, key, Bytes::from(format!("r{round}"))));
            }
        }
    }
    assert_eq!(held.scan_prefix(T, ""), before, "the held snapshot reads what it read");
    let (_, pinned) = db.resident();
    drop(held);
    for key in KEYS {
        commit(&|tx| tx.put(T, key, Bytes::from_static(b"last")));
    }
    let (chains, versions) = db.resident();
    assert_eq!(chains, KEYS.len());
    assert!(versions <= 2 * KEYS.len(), "{versions} versions resident after release (was {pinned})");
    assert!(pinned > 20 * KEYS.len(), "the held snapshot kept {pinned} versions");
}
