//! Reclamation and partitioning are invisible: random interleavings of
//! begin / get / scan / resumed scan / chain scan / predecessor seek / put /
//! delete / commit / drop run against the real database — which splits its
//! keys into partitions by first segment, and prunes versions and removes
//! dead chains on every commit — and against a reference that is one key
//! space and keeps every version forever. Every read of every open
//! transaction, and every commit verdict, must agree; after each step,
//! every open read snapshot must re-read exactly what the reference says it
//! holds.
//!
//! The keys lie in three metastore partitions (`m1`, `m2`, `m3`) and the
//! global one (`g`, `z`), so scans of a short prefix merge partitions, a
//! seek can span them, and a write transaction can write several. Halfway
//! through each sequence `m3` stops being written, with whatever snapshots
//! are open still reading it; once every transaction is gone, one commit
//! elsewhere must leave no dead chain in any partition.

#![allow(clippy::unwrap_used, clippy::panic, reason = "helpers outside #[test] functions fail the test as a test body does")]

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use proptest::prelude::*;
use uc_txdb::{Db, ReadTxn, TxError, WriteTxn};

const T: &str = "t";

/// Tree-shaped keys (segments end in `\u{1}`) and `/`-keys in three
/// metastore partitions, and two global keys, in key order: chain scans,
/// prefix scans and seeks all cross each other's ranges and partitions.
const KEYS: [&str; 12] = [
    "g",
    "m1\u{1}",
    "m1\u{1}a\u{1}",
    "m1\u{1}a\u{1}x\u{1}",
    "m1/p",
    "m2\u{1}",
    "m2\u{1}b\u{1}",
    "m2/q",
    "m3\u{1}",
    "m3\u{1}c\u{1}",
    "m3/r",
    "z",
];
/// One partition's (`m1\u{1}…`, `m3/`), or several: the global prefix, a
/// prefix of metastore ids, and short prefixes a global key shares.
const PREFIXES: [&str; 7] = ["", "m", "m1\u{1}", "m1\u{1}a\u{1}", "m2", "m3/", "g"];
/// The partition that stops being written halfway through a sequence, and
/// where its writes go instead.
const RETIRED: &str = "m3";
const RETIRED_TO: usize = 1;
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
/// scan, which only a read transaction has. Once `retired`, a write to the
/// retired partition goes to a key of `m1` instead.
fn step(db: &Db, reference: &mut Reference, slots: &mut [Option<Slot>], (op, slot, a, b): Op, n: usize, retired: bool) {
    let op = match op {
        10..=12 => 6,
        13..=15 => 8,
        op => op,
    };
    let writes = matches!(op, 6 | 7 | 9);
    let key = match KEYS[a] {
        k if retired && writes && k.starts_with(RETIRED) => KEYS[RETIRED_TO + a % 3],
        k => k,
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
/// divergence. The retired partition is not written in the second half.
/// Once every transaction is gone, commits to a key outside the universe
/// drain every partition's dead keys — a partition's own commits drain it,
/// and a commit elsewhere drains one left idle for four times as many
/// commits as there are partitions with dead keys, here at most four —
/// so what stays is one chain per live key.
fn run(db: &Db, ops: Vec<Op>) {
    let mut reference = Reference::default();
    let mut slots: Vec<Option<Slot>> = (0..SLOTS).map(|_| None).collect();
    let half = ops.len() / 2;
    for (n, op) in ops.into_iter().enumerate() {
        step(db, &mut reference, &mut slots, op, n, n >= half);
        check_open_snapshots(&slots, &reference);
        assert!(db.resident().1 <= reference.versions(), "reclamation only ever removes");
    }
    slots.clear();
    assert_eq!(db.horizon(), db.current_csn(), "every snapshot was released");
    for _ in 0..=4 * 4 {
        let mut tx = db.begin_write();
        tx.put(T, "settle", Bytes::from_static(b"s"));
        tx.commit().unwrap();
    }
    let live = KEYS.iter().filter(|k| reference.at(k, reference.csn).is_some()).count();
    assert_eq!(db.resident().0, live + 1, "a dead chain outlived every snapshot that could read it");
}

#[test]
fn the_keys_are_in_key_order_and_span_four_partitions() {
    assert!(KEYS.windows(2).all(|w| w[0] < w[1]));
    let parts: BTreeSet<&str> = KEYS.iter().map(|k| k.find(['/', '\u{1}']).map_or("", |i| &k[..i])).collect();
    assert_eq!(parts.into_iter().collect::<Vec<_>>(), ["", "m1", "m2", "m3"]);
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

/// One multi-metastore commit sequence — puts, overwrites and deletes in
/// three metastores and the global partition, cross-partition commits, a
/// reader held across part of it, and a metastore no commit writes again,
/// then commits to one global key — and `(chains, versions)` resident
/// after each commit. The pins are what one unpartitioned row map with one
/// dead-key FIFO held after the same sequence: any commit drained every
/// key the horizon had passed. Here a partition no commit writes waits
/// until it has gone idle, so the heap may lag the pins, never lead them,
/// and ends equal to them.
#[test]
fn resident_after_a_multi_metastore_sequence_ends_at_the_unpartitioned_ones() {
    let db = Db::in_memory();
    let mut seen = Vec::new();
    let mut commit = |puts: &[&str], deletes: &[&str]| {
        let mut tx = db.begin_write();
        for key in puts {
            tx.put(T, key, Bytes::from(format!("{key}@{}", tx.snapshot_csn())));
        }
        for key in deletes {
            tx.delete(T, key);
        }
        tx.commit().unwrap();
        seen.push(db.resident());
    };
    commit(&["m1\u{1}", "m1\u{1}a\u{1}", "m1/p", "g"], &[]);
    commit(&["m2\u{1}", "m2/q", "m3\u{1}", "m3/r"], &[]);
    let held = db.begin_read();
    commit(&["m1\u{1}", "m1/p"], &["m2/q"]);
    commit(&["m3\u{1}c\u{1}"], &["m3/r", "g"]);
    commit(&["m1\u{1}a\u{1}"], &["m3\u{1}", "m3\u{1}c\u{1}"]);
    drop(held);
    commit(&["m2\u{1}b\u{1}"], &[]);
    commit(&["z"], &["m1/p"]);
    commit(&["m1\u{1}"], &[]);
    commit(&["m2\u{1}"], &["z"]);
    commit(&["g"], &[]);
    commit(&["m1\u{1}"], &[]);
    for _ in 0..16 {
        commit(&["g"], &[]);
    }
    let pins = [(4, 4), (8, 8), (8, 11), (9, 14), (9, 17), (5, 8), (6, 9), (5, 7), (5, 9), (5, 8), (5, 8)]
        .into_iter()
        .chain([(5, 9); 16]);
    for (step, (held, pin)) in seen.iter().zip(pins).enumerate() {
        assert!(held.0 >= pin.0 && held.1 >= pin.1, "commit {step}: {held:?} resident, below the pin {pin:?}");
    }
    assert_eq!(seen.last(), Some(&(5, 9)), "{seen:?}");
}
