//! Writers on different metastores never meet. A commit in metastore A is
//! parked by the deterministic scheduler inside its partition section —
//! validated, holding A's commit lock — and while it is parked a read and
//! a commit in metastore B, on a thread the scheduler does not drive, must
//! both complete; what the B read returns is unchanged by A's commit.
//!
//! A store with one commit lock for every metastore fails this test: B's
//! commit waits for A's, which waits for the baton B's caller holds, and
//! the test gives up after `PATIENCE`.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use bytes::Bytes;
use uc_cloudstore::sched::{self, points, SchedMode, Scheduler};
use uc_txdb::Db;

const T: &str = "tree";

/// How long B's read and commit may take before the test calls them
/// blocked behind A.
const PATIENCE: Duration = Duration::from_secs(10);

fn val(s: &str) -> Bytes {
    Bytes::from(s.to_string())
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
        let (db, sched) = (db.clone(), sched.clone());
        thread::spawn(move || {
            sched.register_current(0);
            let mut tx = db.begin_write();
            let _ = tx.get(T, "msA\u{1}");
            tx.put(T, "msA\u{1}c\u{1}", val("A.c"));
            let committed = tx.commit();
            sched::finish_current();
            committed
        })
    };
    // Client 1: keeps the baton from the moment A parks until B is done.
    let gate = {
        let sched = sched.clone();
        thread::spawn(move || {
            sched.register_current(1);
            let parked = |trace: String| trace.lines().last().is_some_and(|l| l.ends_with("client=0 point=txdb.partition"));
            while !parked(sched.trace_text()) {
                sched::yield_point("test.wait");
            }
            parked_tx.send(()).unwrap();
            let _ = resume_rx.recv();
            sched::finish_current();
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
            let mut tx = db.begin_write();
            let chain = tx.scan_chain(T, "msB\u{1}c\u{1}x\u{1}");
            tx.put(T, "msB\u{1}d\u{1}", val("B.d"));
            let committed = tx.commit();
            done_tx.send((rt, read, chain, committed)).unwrap();
        })
    };
    let (rt, read, chain, committed) = done_rx.recv_timeout(PATIENCE).unwrap_or_else(|_| {
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
}
