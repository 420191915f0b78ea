//! The table cache's protocol, by example: exact store work per snapshot
//! (cold, warm, extended, from a checkpoint, time travel), the cases in
//! which an entry must *not* be reused (a table recreated at the same
//! location, files rewritten and vacuumed), the byte budget, and two
//! clients missing the same file.
//!
//! Counts are read from the store's own `store.list.count` /
//! `store.get.count`; none of this is wall-clock.

use std::sync::Arc;

use uc_cloudstore::sched::{self, SchedMode, Scheduler};
use uc_cloudstore::{Clock, Credential, LatencyModel, ObjectStore, StoragePath, StsService};
use uc_delta::expr::{CmpOp, EvalContext, Expr};
use uc_delta::table::{CHECKPOINT_INTERVAL, YIELD_FILE_MISS};
use uc_delta::value::{DataType, Field, Row, Schema, Value};
use uc_delta::{DeltaError, DeltaTable, TableCache};

fn setup() -> (ObjectStore, Credential) {
    let store = ObjectStore::in_memory();
    let root = store.create_bucket("bkt");
    (store, Credential::Root(root))
}

fn path(name: &str) -> StoragePath {
    StoragePath::parse(&format!("s3://bkt/tables/{name}")).unwrap()
}

fn schema() -> Schema {
    Schema::new(vec![Field::new("x", DataType::Int)])
}

fn rows(range: std::ops::Range<i64>) -> Vec<Row> {
    range.map(|i| vec![Value::Int(i)]).collect()
}

fn xs(rows: &[Row]) -> Vec<i64> {
    let mut out: Vec<i64> = rows
        .iter()
        .map(|r| match r[0] {
            Value::Int(i) => i,
            ref other => panic!("unexpected value {other:?}"),
        })
        .collect();
    out.sort_unstable();
    out
}

fn scan_all(table: &DeltaTable, cred: &Credential) -> Vec<i64> {
    xs(&table.scan(cred, None, &EvalContext::anonymous()).unwrap().0)
}

/// `(lists, gets)` the store has served so far.
fn store_work(store: &ObjectStore) -> (u64, u64) {
    (
        store.obs().counter("store.list.count").get(),
        store.obs().counter("store.get.count").get(),
    )
}

/// `(lists, gets)` that `f` costs.
fn work_of<T>(store: &ObjectStore, f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = store_work(store);
    let out = f();
    let after = store_work(store);
    ((after.0 - before.0, after.1 - before.1), out)
}

/// A table of five commits (create + four appends of ten rows), with the
/// cache emptied afterwards so that the next read is cold.
fn five_commit_table(store: &ObjectStore, cred: &Credential, name: &str) -> DeltaTable {
    let table = DeltaTable::create(store.clone(), path(name), cred, name, schema()).unwrap();
    for c in 0..4 {
        table.append(cred, &rows(c * 10..(c + 1) * 10)).unwrap();
    }
    TableCache::of(store).clear();
    table
}

#[test]
fn snapshot_costs_one_listing_and_only_the_commits_it_lacks() {
    let (store, cred) = setup();
    five_commit_table(&store, &cred, "t");
    // A second handle: the cache belongs to the store, not to a handle.
    let reader = DeltaTable::open(store.clone(), path("t"));

    let (cold, snap) = work_of(&store, || reader.snapshot(&cred).unwrap());
    assert_eq!(cold, (1, 5), "cold: one listing, the five commits");
    assert_eq!(snap.version, 4);

    let (warm, again) = work_of(&store, || reader.snapshot(&cred).unwrap());
    assert_eq!(warm, (1, 0), "warm: one listing, nothing read");
    assert!(Arc::ptr_eq(&snap, &again), "the cached snapshot itself is returned");

    let (first_scan, _) = work_of(&store, || scan_all(&reader, &cred));
    assert_eq!(first_scan, (1, 4), "first scan decodes the four data files");
    let (warm_scan, got) = work_of(&store, || scan_all(&reader, &cred));
    assert_eq!(warm_scan, (1, 0), "warm scan: one listing, no object read");
    assert_eq!(got, (0..40).collect::<Vec<_>>());

    // One more commit, by another handle: the reader fetches that commit
    // and that data file and nothing else.
    DeltaTable::open(store.clone(), path("t")).append(&cred, &rows(40..50)).unwrap();
    let (extended, snap) = work_of(&store, || reader.snapshot(&cred).unwrap());
    assert_eq!(extended, (1, 1), "extended: one listing, the one new commit");
    assert_eq!(snap.version, 5);
    let (scan, got) = work_of(&store, || scan_all(&reader, &cred));
    assert_eq!(scan, (1, 1), "scan after the append: the one new data file");
    assert_eq!(got, (0..50).collect::<Vec<_>>());
}

#[test]
fn cold_snapshot_reads_the_checkpoint_and_only_the_commits_after_it() {
    let (store, cred) = setup();
    let table = DeltaTable::create(store.clone(), path("cp"), &cred, "cp", schema()).unwrap();
    for i in 0..CHECKPOINT_INTERVAL + 2 {
        table.append(&cred, &rows(i..i + 1)).unwrap();
    }
    TableCache::of(&store).clear();
    let (cold, snap) = work_of(&store, || table.snapshot(&cred).unwrap());
    assert_eq!(snap.version, CHECKPOINT_INTERVAL + 2);
    assert_eq!(cold, (1, 3), "one listing; the checkpoint at 10, commits 11 and 12");
    assert_eq!(snap.num_records(), (CHECKPOINT_INTERVAL + 2) as u64);
}

#[test]
fn time_travel_reads_only_up_to_its_version_and_refuses_the_future() {
    let (store, cred) = setup();
    let table = five_commit_table(&store, &cred, "tt");
    let (work, old) = work_of(&store, || table.snapshot_at(&cred, 2).unwrap());
    assert_eq!(work, (1, 3), "one listing, commits 0..=2");
    assert_eq!(old.version, 2);
    assert_eq!(old.num_records(), 20);
    assert_eq!(
        table.snapshot_at(&cred, 9).unwrap_err(),
        DeltaError::NoSuchVersion { version: 9, head: 4 }
    );
    assert!(matches!(table.snapshot_at(&cred, -1), Err(DeltaError::NoSuchVersion { .. })));
    // Time travel neither uses nor disturbs the current entry.
    assert_eq!(TableCache::of(&store).tables(), 0);
}

/// Delete every object under `root` — what dropping an external table's
/// files by hand looks like to the store.
fn delete_all(store: &ObjectStore, cred: &Credential, root: &StoragePath) {
    for meta in store.list(cred, root).unwrap() {
        store.delete(cred, &meta.path).unwrap();
    }
}

#[test]
fn a_table_recreated_at_the_same_location_is_read_as_the_new_table() {
    // `extra` more commits in the second life: 0 ⇒ the head is at the same
    // version as the entry's (only the stamp tells them apart), 2 ⇒ the
    // head is ahead (the entry must not be extended).
    for extra in [0, 2] {
        let clock = Clock::manual(1_000);
        let store = ObjectStore::new(StsService::new(clock.clone()), LatencyModel::zero());
        let cred = Credential::Root(store.create_bucket("bkt"));
        let root = path("ext");

        let first = DeltaTable::create(store.clone(), root.clone(), &cred, "first", schema()).unwrap();
        first.append(&cred, &rows(10..20)).unwrap();
        first.append(&cred, &rows(20..30)).unwrap();
        assert_eq!(scan_all(&first, &cred), (10..30).collect::<Vec<_>>());
        assert_eq!(TableCache::of(&store).cached_files(&root), 2, "first life is warm");

        // The second life is written by someone else — built in a store of
        // its own and copied over object by object, so nothing passes
        // through this store's cache. Same location, same number of
        // commits, same object sizes (ids of equal length, two-digit values
        // throughout): version, listing length and sizes all agree with
        // the entry. Only `created_at_ms` differs.
        let elsewhere = ObjectStore::new(StsService::new(Clock::manual(1_000)), LatencyModel::zero());
        let their_cred = Credential::Root(elsewhere.create_bucket("bkt"));
        let second =
            DeltaTable::create(elsewhere.clone(), root.clone(), &their_cred, "other", schema()).unwrap();
        second.append(&their_cred, &rows(50..60)).unwrap();
        second.append(&their_cred, &rows(60..70)).unwrap();
        for i in 0..extra {
            second.append(&their_cred, &rows(70 + i..71 + i)).unwrap();
        }
        let sizes = |s: &ObjectStore, c: &Credential| -> Vec<usize> {
            s.list(c, &root.child("_delta_log")).unwrap().iter().map(|m| m.size).collect()
        };
        let first_life = sizes(&store, &cred);
        assert_eq!(sizes(&elsewhere, &their_cred)[..3], first_life[..], "extra={extra}: equal sizes");

        delete_all(&store, &cred, &root);
        clock.advance_ms(5);
        for meta in elsewhere.list(&their_cred, &root).unwrap() {
            let data = elsewhere.get(&their_cred, &meta.path).unwrap();
            store.put(&cred, &meta.path, data).unwrap();
        }

        let reader = DeltaTable::open(store.clone(), root.clone());
        let snap = reader.snapshot(&cred).unwrap();
        assert_eq!(snap.metadata.id, "other", "extra={extra}: the new table's metadata");
        assert_eq!(
            scan_all(&reader, &cred),
            (50..70 + extra).collect::<Vec<_>>(),
            "extra={extra}: the new table's rows, none of the old"
        );
    }
}

#[test]
fn rewritten_and_vacuumed_files_leave_the_cache() {
    let (store, cred) = setup();
    let cache = TableCache::of(&store);
    let root = path("v");
    let table = DeltaTable::create(store.clone(), root.clone(), &cred, "v", schema()).unwrap();
    table.append_fragmented(&cred, &rows(0..80), 10).unwrap();
    let reader = DeltaTable::open(store.clone(), root.clone());
    assert_eq!(scan_all(&reader, &cred).len(), 80);
    assert_eq!(cache.cached_files(&root), 8);
    let held = cache.weight_bytes();

    // Copy-on-write delete of half the table, then vacuum.
    let deleted = table
        .delete_where(&cred, &Expr::cmp("x", CmpOp::Lt, 40i64), &EvalContext::anonymous())
        .unwrap();
    assert_eq!(deleted, 40);
    assert_eq!(table.vacuum(&cred).unwrap().objects_deleted, 4);
    // Vacuum took a snapshot: the entry now names four files, and the
    // rows of the four that left are gone with them.
    assert_eq!(cache.cached_files(&root), 4);
    assert!(cache.weight_bytes() < held, "{} < {held}", cache.weight_bytes());
    assert_eq!(scan_all(&reader, &cred), (40..80).collect::<Vec<_>>());

    // Compaction replaces every remaining file.
    table.optimize(&cred, 1_000).unwrap();
    table.vacuum(&cred).unwrap();
    assert_eq!(cache.cached_files(&root), 0, "no old file survives the new snapshot");
    let (work, got) = work_of(&store, || scan_all(&reader, &cred));
    assert_eq!(got, (40..80).collect::<Vec<_>>());
    assert_eq!(work, (1, 1), "the one compacted file is read");
    assert_eq!(cache.cached_files(&root), 1);
    assert!(cache.weight_bytes() < held);
}

#[test]
fn the_cache_stays_within_its_budget_and_evicted_tables_read_correctly() {
    const BUDGET: usize = 24_000;
    const TABLES: i64 = 16;
    let (store, cred) = setup();
    let cache = TableCache::install_with_budget(&store, BUDGET);
    let obs = store.obs().clone();
    let mut lookups = 0u64;
    let tables: Vec<DeltaTable> = (0..TABLES)
        .map(|t| {
            let name = format!("b{t}");
            let table = DeltaTable::create(store.clone(), path(&name), &cred, &name, schema()).unwrap();
            for c in 0..2 {
                table.append(&cred, &rows(t * 100 + c * 20..t * 100 + (c + 1) * 20)).unwrap();
                lookups += 1; // the append's own snapshot
                assert!(cache.weight_bytes() <= BUDGET);
            }
            table
        })
        .collect();
    // Two passes over every table: the second finds most of them evicted.
    for _ in 0..2 {
        for (t, table) in tables.iter().enumerate() {
            let t = t as i64;
            assert_eq!(scan_all(table, &cred), (t * 100..t * 100 + 40).collect::<Vec<_>>());
            lookups += 3; // the snapshot and its two files
            assert!(cache.weight_bytes() <= BUDGET, "{} > {BUDGET}", cache.weight_bytes());
            assert_eq!(obs.gauge("delta.cache.bytes").get(), cache.weight_bytes() as i64);
        }
    }
    assert!(cache.tables() < TABLES as usize, "sixteen tables do not fit in {BUDGET} bytes");
    assert!(obs.counter("delta.cache.evictions").get() > 0);
    assert_eq!(
        obs.counter("delta.cache.hits").get() + obs.counter("delta.cache.misses").get(),
        lookups,
        "every snapshot lookup and every file lookup is one hit or one miss"
    );
}

/// Two clients scan the same cold one-file table under the deterministic
/// scheduler. Returns `(data-file gets, files held, weight)`.
fn two_clients_miss_one_file(seed: u64) -> (u64, usize, usize) {
    let (store, cred) = setup();
    let root = path("race");
    let table = DeltaTable::create(store.clone(), root.clone(), &cred, "race", schema()).unwrap();
    table.append(&cred, &rows(0..25)).unwrap();
    let cache = TableCache::of(&store);
    cache.clear();
    // The snapshot is warm, the file is not: every get below is the file's.
    table.snapshot(&cred).unwrap();
    let gets_before = store_work(&store).1;

    let sched = Scheduler::new(seed, 2, SchedMode::RandomWalk, 16);
    let handles: Vec<_> = (0..2)
        .map(|client| {
            let sched = sched.clone();
            let table = DeltaTable::open(store.clone(), root.clone());
            let cred = cred.clone();
            std::thread::spawn(move || {
                sched.register_current(client);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    scan_all(&table, &cred)
                }));
                sched::finish_current();
                result
            })
        })
        .collect();
    sched.run_to_completion();
    for h in handles {
        let got = h.join().unwrap().unwrap_or_else(|p| std::panic::resume_unwind(p));
        assert_eq!(got, (0..25).collect::<Vec<_>>(), "seed {seed}");
    }
    assert!(sched.trace_text().contains(YIELD_FILE_MISS), "the miss window is a yield point");
    (store_work(&store).1 - gets_before, cache.cached_files(&root), cache.weight_bytes())
}

#[test]
fn two_clients_missing_the_same_file_leave_one_entry() {
    let alone = {
        let (store, cred) = setup();
        let root = path("race");
        let table = DeltaTable::create(store.clone(), root, &cred, "race", schema()).unwrap();
        table.append(&cred, &rows(0..25)).unwrap();
        TableCache::of(&store).clear();
        scan_all(&table, &cred);
        TableCache::of(&store).weight_bytes()
    };
    let mut both_missed = 0;
    for seed in 0..24 {
        let (file_gets, files, weight) = two_clients_miss_one_file(seed);
        assert_eq!(files, 1, "seed {seed}: one entry for the one file");
        assert_eq!(weight, alone, "seed {seed}: charged once");
        if file_gets == 2 {
            both_missed += 1;
        }
    }
    assert!(both_missed > 0, "no seed of 24 interleaved the two misses");
}
