//! The table cache under real concurrency: two sessions read one table
//! while a committer appends to it, compacts it, checkpoints it and
//! recreates it at the same location. Every snapshot a session is served
//! must be one the head it read continues:
//!
//! * never older than the last commit acknowledged before the read began
//!   (a later life of the table counts as newer than any version of an
//!   earlier one);
//! * exactly the table at its version, in its life: its rows are the rows
//!   the committer had appended by then.
//!
//! A read that overlaps a recreate is not checked: the log is deleted
//! and rewritten under it, and a cold build reads each commit object by
//! its path, so it can read one life's commit at a version the listing
//! showed for the other. Such a snapshot is installed under the head the
//! listing showed, which no later listing shows again. Every other read
//! must hold both.

#![allow(clippy::unwrap_used, clippy::panic, reason = "helpers outside #[test] functions fail the test as a test body does")]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;
use uc_cloudstore::{Clock, Credential, LatencyModel, ObjectStore, StoragePath, StsService};
use uc_delta::expr::EvalContext;
use uc_delta::value::{DataType, Field, Row, Schema, Value};
use uc_delta::{DeltaTable, TableCache};

fn schema() -> Schema {
    Schema::new(vec![Field::new("x", DataType::Int)])
}

fn root() -> StoragePath {
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

#[derive(Debug, Clone)]
enum Step {
    Append(usize),
    Optimize,
    Checkpoint,
    /// Delete every object of the table, then create it again: the next
    /// life, its log restarting at version 0.
    Recreate,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1usize..4).prop_map(Step::Append),
        (1usize..4).prop_map(Step::Append),
        (1usize..4).prop_map(Step::Append),
        Just(Step::Optimize),
        Just(Step::Checkpoint),
        Just(Step::Recreate),
    ]
}

/// Sets its flag when dropped.
struct Stop<'a>(&'a AtomicBool);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// A point in the table's history, ordered: life first, then version.
fn at(life: u64, version: i64) -> u64 {
    (life << 32) | version as u64
}

/// Run `steps` against two reading sessions; returns what they saw wrong.
fn sessions_under_a_committer(steps: &[Step], budget: Option<usize>) -> Vec<String> {
    let clock = Clock::manual(1_000);
    let store = ObjectStore::new(StsService::new(clock.clone()), LatencyModel::zero());
    let cred = Credential::Root(store.create_bucket("bkt"));
    if let Some(bytes) = budget {
        TableCache::install_with_budget(&store, bytes);
    }
    // Life `l` of the table has metadata id `life-l` and rows `l * 1000 + i`.
    DeltaTable::create(store.clone(), root(), &cred, "life-0", schema()).unwrap();
    // The rows of each (life, version), published before the commit that
    // makes it lands.
    let expected: Mutex<HashMap<(u64, i64), Vec<i64>>> = Mutex::new(HashMap::from([((0, 0), Vec::new())]));
    let acknowledged = AtomicU64::new(at(0, 0));
    // Recreates begun and finished.
    let (begun, finished) = (AtomicU64::new(0), AtomicU64::new(0));
    let done = AtomicBool::new(false);
    let violations = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // The sessions stop when the committer does, panicking or not.
            let _stop = Stop(&done);
            let mut table = DeltaTable::open(store.clone(), root());
            let (mut life, mut version, mut next) = (0u64, 0i64, 0i64);
            let mut rows: Vec<i64> = Vec::new();
            for step in steps {
                match *step {
                    Step::Append(n) => {
                        let new: Vec<i64> = (next..next + n as i64).map(|i| life as i64 * 1000 + i).collect();
                        next += n as i64;
                        rows.extend(&new);
                        expected.lock().unwrap().insert((life, version + 1), rows.clone());
                        let batch: Vec<Row> = new.iter().map(|x| vec![Value::Int(*x)]).collect();
                        version = table.append(&cred, &batch).unwrap();
                    }
                    Step::Optimize => {
                        expected.lock().unwrap().insert((life, version + 1), rows.clone());
                        if table.optimize(&cred, 8).unwrap().files_removed > 0 {
                            version += 1;
                        }
                    }
                    Step::Checkpoint => {
                        table.checkpoint(&cred).unwrap();
                    }
                    Step::Recreate => {
                        begun.fetch_add(1, Ordering::SeqCst);
                        for meta in store.list(&cred, &root()).unwrap() {
                            store.delete(&cred, &meta.path).unwrap();
                        }
                        // A commit object is told from the last life's by
                        // its stamp: size and creation millisecond.
                        clock.advance_ms(1);
                        life += 1;
                        (version, next) = (0, 0);
                        rows.clear();
                        expected.lock().unwrap().insert((life, 0), Vec::new());
                        table = DeltaTable::create(store.clone(), root(), &cred, &format!("life-{life}"), schema()).unwrap();
                        finished.fetch_add(1, Ordering::SeqCst);
                    }
                }
                acknowledged.store(at(life, version), Ordering::SeqCst);
            }
        });
        for session in 0..2 {
            let (store, cred, expected, acknowledged, done, violations) =
                (&store, &cred, &expected, &acknowledged, &done, &violations);
            let (begun, finished) = (&begun, &finished);
            scope.spawn(move || {
                let table = DeltaTable::open(store.clone(), root());
                let ctx = EvalContext::anonymous();
                let mut reads = 0;
                // At least a few reads after the last step, then until it.
                while reads < 4 || !done.load(Ordering::SeqCst) {
                    reads += 1;
                    let recreates = finished.load(Ordering::SeqCst);
                    let floor = acknowledged.load(Ordering::SeqCst);
                    let Ok(snapshot) = table.snapshot(cred) else { continue };
                    let Ok((rows, _)) = table.scan_snapshot(cred, &snapshot, None, &ctx) else { continue };
                    if begun.load(Ordering::SeqCst) != recreates {
                        continue;
                    }
                    let life: u64 = snapshot.metadata.id.trim_start_matches("life-").parse().unwrap();
                    let (version, got) = (snapshot.version, sorted_xs(&rows));
                    let mut found = violations.lock().unwrap();
                    if found.len() >= 8 {
                        break;
                    }
                    if at(life, version) < floor {
                        found.push(format!(
                            "session {session}: life {life} version {version} after life {} version {} was acknowledged",
                            floor >> 32,
                            floor & u32::MAX as u64
                        ));
                    }
                    let want = expected.lock().unwrap().get(&(life, version)).cloned();
                    if want.as_ref() != Some(&got) {
                        found.push(format!("session {session}: life {life} version {version}: rows {got:?}, want {want:?}"));
                    }
                }
            });
        }
    });
    violations.into_inner().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_session_is_never_served_a_snapshot_its_head_does_not_continue(
        steps in proptest::collection::vec(step(), 1..24),
    ) {
        let violations = sessions_under_a_committer(&steps, None);
        prop_assert!(violations.is_empty(), "{:#?}", violations);
    }

    /// A budget of a few files: installs evict entries sessions still read.
    #[test]
    fn so_it_is_with_the_budget_shrunk_to_a_few_files(
        steps in proptest::collection::vec(step(), 1..24),
        budget in 600usize..6_000,
    ) {
        let violations = sessions_under_a_committer(&steps, Some(budget));
        prop_assert!(violations.is_empty(), "{:#?}", violations);
    }
}
