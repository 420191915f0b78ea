//! Writers on different metastores never meet. A commit in metastore A is
//! parked by the deterministic scheduler inside its partition section —
//! validated, holding A's commit lock — and while it is parked a read and
//! a commit in metastore B, on a thread the scheduler does not drive, must
//! both complete; what the B read returns is unchanged by A's commit.
//!
//! A store with one commit lock for every metastore fails this test: B's
//! commit waits for A's, which waits for the baton B's caller holds, and
//! the test gives up after `PATIENCE`. Nor does A's parked commit add any
//! work to B's: B's commit takes exactly the locks it takes with A idle.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use bytes::Bytes;
use uc_cloudstore::sched::{self, points, SchedMode, Scheduler};
use uc_txdb::{Db, TxResult};

const T: &str = "tree";

/// How long B's read and commit may take before the test calls them
/// blocked behind A.
const PATIENCE: Duration = Duration::from_secs(10);

/// Lock acquisitions `(shared, exclusive)` of B's commit, a chain read and
/// one write in B's partition. Shared: the validation read of B's rows.
/// Exclusive: the connection pool's count twice (the permit taken and
/// returned), B's commit lock, the snapshot registry twice (the commit's
/// snapshot closes, the horizon is read), B's rows to install, and the
/// sequencer.
const B_COMMIT_LOCKS: (u64, u64) = (1, 7);

fn val(s: &str) -> Bytes {
    Bytes::from(s.to_string())
}

type Rows = Vec<(String, Bytes)>;

/// Metastore B's transaction: a chain read, then `key` written and
/// committed; with the lock acquisitions of its commit.
fn commit_in_b(db: &Db, key: &str, value: &str) -> (Rows, TxResult<u64>, (u64, u64)) {
    let mut tx = db.begin_write();
    let chain = tx.scan_chain(T, "msB\u{1}c\u{1}x\u{1}");
    tx.put(T, key, val(value));
    let (shared, exclusive) = parking_lot::acquisitions();
    let committed = tx.commit();
    let (s, e) = parking_lot::acquisitions();
    (chain, committed, (s - shared, e - exclusive))
}

#[test]
fn a_commit_parked_in_one_metastore_blocks_no_read_or_commit_in_another() {
    let db = Db::in_memory();
    let mut tx = db.begin_write();
    tx.put(T, "msB\u{1}", val("B"));
    tx.put(T, "msB\u{1}c\u{1}", val("B.c"));
    tx.put(T, "msA\u{1}", val("A"));
    tx.commit().unwrap();

    let sched = Scheduler::new(7, 2, SchedMode::RandomWalk, 16).park_at(points::TXDB_PARTITION);
    let (parked_tx, parked_rx) = mpsc::channel();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    // Client 0: a commit in metastore A, parked inside its partition section.
    let a = {
        let db = db.clone();
        sched.spawn(0, move || {
            let mut tx = db.begin_write();
            let _ = tx.get(T, "msA\u{1}");
            tx.put(T, "msA\u{1}c\u{1}", val("A.c"));
            tx.commit()
        })
    };
    // Client 1: keeps the baton from the moment A parks until B is done.
    let gate = {
        let watch = sched.clone();
        sched.spawn(1, move || {
            let parked = |trace: String| trace.lines().last().is_some_and(|l| l.ends_with("client=0 point=txdb.partition"));
            while !parked(watch.trace_text()) {
                sched::yield_point("test.wait");
            }
            parked_tx.send(()).unwrap();
            let _ = resume_rx.recv();
        })
    };
    let run = {
        let sched = sched.clone();
        thread::spawn(move || sched.run_to_completion())
    };
    parked_rx.recv_timeout(PATIENCE).expect("A's commit parks in its partition section");
    let parked_at = db.current_csn();

    // Metastore B, while A is parked.
    let (done_tx, done_rx) = mpsc::channel();
    let b = {
        let db = db.clone();
        thread::spawn(move || {
            let rt = db.begin_read();
            let read = rt.scan_prefix(T, "msB\u{1}");
            let (chain, committed, locks) = commit_in_b(&db, "msB\u{1}d\u{1}", "B.d");
            done_tx.send((rt, read, chain, committed, locks)).unwrap();
        })
    };
    let (rt, read, chain, committed, parked_locks) = done_rx.recv_timeout(PATIENCE).unwrap_or_else(|_| {
        panic!("metastore B's read and commit did not complete within {PATIENCE:?} while A's commit was parked")
    });
    let b_csn = committed.unwrap();
    assert_eq!(b_csn, parked_at + 1, "B's commit was published while A's was parked");
    let b_rows = vec![("msB\u{1}".to_string(), val("B")), ("msB\u{1}c\u{1}".to_string(), val("B.c"))];
    assert_eq!(read, b_rows);
    assert_eq!(chain, b_rows);

    b.join().unwrap();
    resume_tx.send(()).unwrap();
    run.join().unwrap();
    gate.join().unwrap();
    assert_eq!(a.join().unwrap().unwrap(), b_csn + 1, "A committed after B");
    assert!(sched.trace_text().contains("client=0 point=txdb.partition"));

    assert_eq!(rt.scan_prefix(T, "msB\u{1}"), read, "B's read is unchanged by A's commit");
    let mut now = b_rows;
    now.push(("msB\u{1}d\u{1}".to_string(), val("B.d")));
    assert_eq!(db.begin_read().scan_prefix(T, "msB\u{1}"), now);
    assert_eq!(db.begin_read().get(T, "msA\u{1}c\u{1}"), Some(val("A.c")));

    let (_, idle, idle_locks) = commit_in_b(&db, "msB\u{1}e\u{1}", "B.e");
    idle.unwrap();
    assert_eq!(parked_locks, idle_locks, "B's commit takes the same locks with A's commit parked as with A idle");
    assert_eq!(parked_locks, B_COMMIT_LOCKS);
}
