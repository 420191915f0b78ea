//! The table cache's executable specification (ROADMAP 2(b)).
//!
//! 1. **Differential.** Whatever sequence of writes a table goes through,
//!    a reader through the cache sees, after every step, exactly what a
//!    full replay of the log and a direct decode of the data files give:
//!    same version, same files, same tombstones, same scan results — with
//!    the default budget and with one so small that entries are evicted
//!    between steps.
//! 2. **Freshness.** Under seeded interleavings of a writer and readers, a
//!    read never returns a version older than the last commit acknowledged
//!    before it began, and its rows are exactly that version's (the
//!    visibility rule of LakeVilla / GitLake, PAPERS.md). The same run with
//!    validation skipped must be flagged — the property's teeth.
//!
//! Schedules derive from `UC_SCHED_SEED` (printed, default 0), as in
//! `tests/check_histories.rs`.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use uc_cloudstore::sched::{self, points, SchedMode, Scheduler};
use uc_cloudstore::{Credential, ObjectStore, StoragePath};
use uc_delta::actions::{Action, AddFile, CommitInfo};
use uc_delta::datafile::{collect_stats, decode_rows, encode_rows};
use uc_delta::expr::{CmpOp, EvalContext, Expr};
use uc_delta::log::{read_log, write_commit};
use uc_delta::value::{DataType, Field, Row, Schema, Value};
use uc_delta::{DeltaTable, Snapshot, TableCache};

fn schema() -> Schema {
    Schema::new(vec![Field::new("x", DataType::Int)])
}

fn table_path() -> StoragePath {
    StoragePath::parse("s3://bkt/tables/t").unwrap()
}

fn sorted_xs(rows: &[Row]) -> Vec<i64> {
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

// ---------------------------------------------------------------------
// 1. Differential
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Write {
    Append(usize),
    AppendFragmented(usize, usize),
    /// Delete rows with `x < cut`, `cut` this percentage of the values
    /// written so far.
    DeleteBelow(u8),
    Optimize(usize),
    Vacuum,
    Checkpoint,
}

fn write_strategy() -> impl Strategy<Value = Write> {
    prop_oneof![
        (1usize..12).prop_map(Write::Append),
        (1usize..12).prop_map(Write::Append),
        ((4usize..24), (1usize..6)).prop_map(|(n, per)| Write::AppendFragmented(n, per)),
        (0u8..100).prop_map(Write::DeleteBelow),
        (2usize..40).prop_map(Write::Optimize),
        Just(Write::Vacuum),
        Just(Write::Checkpoint),
    ]
}

/// What the log and the data files say, read without the cache: a full
/// replay, then every active file fetched and decoded directly.
fn reference(
    store: &ObjectStore,
    cred: &Credential,
    writer: &DeltaTable,
    predicate: Option<&Expr>,
) -> (Snapshot, Vec<i64>) {
    let snapshot = Snapshot::replay(&read_log(writer.coordinator().as_ref(), cred).unwrap()).unwrap();
    let ctx = EvalContext::anonymous();
    let mut rows = Vec::new();
    for file in snapshot.files.values() {
        let data = store.get(cred, &table_path().child(&file.path)).unwrap();
        for row in decode_rows(&data).unwrap() {
            if predicate.is_none_or(|p| p.eval_bool(snapshot.schema(), &row, &ctx).unwrap()) {
                rows.push(row);
            }
        }
    }
    (snapshot, sorted_xs(&rows))
}

fn cached_reads_equal_replay(writes: &[Write], budget: Option<usize>) {
    let store = ObjectStore::in_memory();
    let cred = Credential::Root(store.create_bucket("bkt"));
    if let Some(bytes) = budget {
        TableCache::install_with_budget(&store, bytes);
    }
    let cache = TableCache::of(&store);
    let writer = DeltaTable::create(store.clone(), table_path(), &cred, "t", schema()).unwrap();
    let reader = DeltaTable::open(store.clone(), table_path());
    let ctx = EvalContext::anonymous();
    let mut next = 0i64;
    for (step, write) in writes.iter().enumerate() {
        match *write {
            Write::Append(n) => {
                let rows: Vec<Row> = (next..next + n as i64).map(|i| vec![Value::Int(i)]).collect();
                next += n as i64;
                writer.append(&cred, &rows).unwrap();
            }
            Write::AppendFragmented(n, per) => {
                let rows: Vec<Row> = (next..next + n as i64).map(|i| vec![Value::Int(i)]).collect();
                next += n as i64;
                writer.append_fragmented(&cred, &rows, per).unwrap();
            }
            Write::DeleteBelow(percent) => {
                let cut = next * percent as i64 / 100;
                writer.delete_where(&cred, &Expr::cmp("x", CmpOp::Lt, cut), &ctx).unwrap();
            }
            Write::Optimize(target) => {
                writer.optimize(&cred, target).unwrap();
            }
            Write::Vacuum => {
                writer.vacuum(&cred).unwrap();
            }
            Write::Checkpoint => {
                writer.checkpoint(&cred).unwrap();
            }
        }
        // A predicate that prunes some files and keeps part of others.
        let predicate = Expr::cmp("x", CmpOp::Ge, next / 3);
        for predicate in [None, Some(&predicate)] {
            let (expect, expect_rows) = reference(&store, &cred, &writer, predicate);
            let got = reader.snapshot(&cred).unwrap();
            assert_eq!(got.version, expect.version, "step {}: {:?}", step, write);
            assert_eq!(&got.files, &expect.files, "step {}: {:?}", step, write);
            assert_eq!(&got.tombstones, &expect.tombstones, "step {}: {:?}", step, write);
            assert_eq!(&got.metadata, &expect.metadata);
            let (rows, _) = reader.scan_snapshot(&cred, &got, predicate, &ctx).unwrap();
            assert_eq!(sorted_xs(&rows), expect_rows, "step {}: {:?}", step, write);
        }
        assert!(cache.weight_bytes() <= cache.budget_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reads_through_the_cache_equal_replay_and_direct_decode(
        writes in proptest::collection::vec(write_strategy(), 1..14),
    ) {
        cached_reads_equal_replay(&writes, None);
    }

    /// Room for a snapshot and a handful of small files: installs evict,
    /// scans outlive the entry they started under.
    #[test]
    fn reads_equal_replay_with_the_budget_shrunk_to_a_few_files(
        writes in proptest::collection::vec(write_strategy(), 1..14),
        budget in 600usize..6_000,
    ) {
        cached_reads_equal_replay(&writes, Some(budget));
    }
}

// ---------------------------------------------------------------------
// 2. Freshness
// ---------------------------------------------------------------------

const COMMITS: i64 = 6;
const READERS: usize = 2;
const READS: usize = 8;

fn sched_seed() -> u64 {
    let seed = std::env::var("UC_SCHED_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0);
    eprintln!("UC_SCHED_SEED={seed}");
    seed
}

/// Commit version `v` (one data file holding the row `v`) the way another
/// process would: objects put straight into the store, nothing read
/// through this store's cache.
fn commit_remotely(store: &ObjectStore, cred: &Credential, table: &DeltaTable, v: i64) {
    let rows = vec![vec![Value::Int(v)]];
    let name = format!("remote-{v:04}.json");
    let data = encode_rows(&schema(), &rows).unwrap();
    let add = AddFile {
        path: name.clone(),
        size_bytes: data.len() as u64,
        num_records: 1,
        stats: collect_stats(&schema(), &rows),
        modification_time_ms: 0,
    };
    store.put(cred, &table_path().child(&name), data).unwrap();
    let actions = [
        Action::Add(add),
        Action::CommitInfo(CommitInfo { operation: "WRITE".into(), ..Default::default() }),
    ];
    write_commit(table.coordinator().as_ref(), cred, v, &actions).unwrap();
}

/// One writer acknowledging versions `1..=COMMITS` (version `v` appends the
/// single row `v`) and `READERS` readers through the cache, interleaved by
/// the seeded scheduler. Returns the violations and the schedule trace.
///
/// The writer is `DeltaTable::append` — in-process, through the same cache,
/// so its own snapshots and installs interleave with the readers'. When it
/// is handed a stale snapshot itself (validation skipped) its commit
/// conflicts: that is recorded as a violation too, and the version is then
/// committed the way a remote process would, so the run goes on.
fn freshness_run(seed: u64, mode: SchedMode, skip_validation: bool) -> (Vec<String>, String) {
    let store = ObjectStore::in_memory();
    let cred = Credential::Root(store.create_bucket("bkt"));
    DeltaTable::create(store.clone(), table_path(), &cred, "t", schema()).unwrap();
    TableCache::of(&store).set_unsafe_skip_validation(skip_validation);

    let acknowledged = Arc::new(AtomicI64::new(0));
    let violations = Arc::new(Mutex::new(Vec::new()));
    let clients = 1 + READERS;
    let sched = Scheduler::new(seed, clients, mode, (clients * READS * 3) as u64);
    let mut handles = Vec::new();
    for client in 0..clients {
        let sched = sched.clone();
        let store = store.clone();
        let table = DeltaTable::open(store.clone(), table_path());
        let cred = cred.clone();
        let acknowledged = acknowledged.clone();
        let violations = violations.clone();
        handles.push(std::thread::spawn(move || {
            sched.register_current(client);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if client == 0 {
                    for v in 1..=COMMITS {
                        sched::yield_point(points::OP_START);
                        match table.append(&cred, &[vec![Value::Int(v)]]) {
                            Ok(committed) => assert_eq!(committed, v, "single writer"),
                            Err(e) => {
                                violations
                                    .lock()
                                    .unwrap()
                                    .push(format!("writer built version {v} on a stale snapshot: {e}"));
                                commit_remotely(&store, &cred, &table, v);
                            }
                        }
                        acknowledged.store(v, Ordering::SeqCst);
                    }
                    return;
                }
                for read in 0..READS {
                    sched::yield_point(points::OP_START);
                    // The baton serializes clients: this is the last
                    // version acknowledged before the read begins.
                    let floor = acknowledged.load(Ordering::SeqCst);
                    let snapshot = table.snapshot(&cred).unwrap();
                    let (rows, _) = table
                        .scan_snapshot(&cred, &snapshot, None, &EvalContext::anonymous())
                        .unwrap();
                    if snapshot.version < floor {
                        violations.lock().unwrap().push(format!(
                            "client {client} read {read}: version {} after {floor} was acknowledged",
                            snapshot.version
                        ));
                    }
                    let expect: Vec<i64> = (1..=snapshot.version).collect();
                    if sorted_xs(&rows) != expect {
                        violations.lock().unwrap().push(format!(
                            "client {client} read {read}: rows {:?} at version {}",
                            sorted_xs(&rows),
                            snapshot.version
                        ));
                    }
                }
            }));
            // Always hand the baton back, even on panic, or the run hangs.
            sched::finish_current();
            if let Err(p) = result {
                std::panic::resume_unwind(p);
            }
        }));
    }
    sched.run_to_completion();
    for h in handles {
        h.join().unwrap();
    }
    let found = violations.lock().unwrap().clone();
    (found, sched.trace_text())
}

const MODES: [SchedMode; 2] = [SchedMode::RandomWalk, SchedMode::Pct { depth: 3 }];

#[test]
fn a_read_never_returns_less_than_the_last_acknowledged_commit() {
    let base = sched_seed();
    for offset in 0..40u64 {
        for mode in MODES {
            let seed = base.wrapping_add(offset);
            let (violations, trace) = freshness_run(seed, mode, false);
            assert!(violations.is_empty(), "seed {seed} mode {mode:?}: {violations:#?}\n{trace}");
            assert!(
                trace.contains(uc_delta::table::YIELD_SNAPSHOT_HEAD),
                "the window between reading the head and the lookup is explored"
            );
        }
    }
}

#[test]
fn the_same_seed_replays_the_same_interleaving() {
    let seed = sched_seed();
    for mode in MODES {
        assert_eq!(freshness_run(seed, mode, false).1, freshness_run(seed, mode, false).1);
    }
}

#[test]
fn skipping_validation_is_flagged_as_a_stale_read() {
    let base = sched_seed();
    let mut found = Vec::new();
    for offset in 0..8u64 {
        found.extend(freshness_run(base.wrapping_add(offset), SchedMode::RandomWalk, true).0);
        if !found.is_empty() {
            break;
        }
    }
    assert!(!found.is_empty(), "a cache that never validates went undetected across 8 seeds");
    assert!(
        found.iter().any(|v| v.contains("was acknowledged")),
        "expected a stale-version violation, got {found:#?}"
    );
}
