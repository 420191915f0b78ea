//! Step-level tests of the serving policy, no threads: the decisions the
//! thread driver and the replay driver share (`FlightMap::join` /
//! `finish`, `Batcher::enqueue` / `next_group`, the batch-queue bound) are
//! plain functions of the calls made so far, so each is pinned here by
//! calling it directly.

use std::sync::Arc;

use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::{Entity, FullName, SecurableKind, Uid};
use uc_cloudstore::{Clock, LatencyModel, ObjectStore, StsService};
use uc_delta::value::{DataType, Field, Schema};
use uc_serve::batch::{Batcher, PendingItem, Signature, BATCH_QUEUE_CAPACITY};
use uc_serve::flight::{FlightKey, FlightMap, Join};
use uc_serve::{replay, RetryPolicy, ServeConfig, ServePlane};
use uc_txdb::{Db, DbConfig};
use uc_workload::openloop::{Arrival, OpenLoopParams, RequestKind, Schedule};

fn key(version: u64) -> FlightKey {
    (Uid::from("ms"), "alice".to_string(), "main.s.t0".to_string(), version)
}

#[test]
fn join_leads_then_follows_and_finish_retires_before_publishing() {
    let flights = FlightMap::default();
    let Join::Lead(lead) = flights.join(&key(0)) else { panic!("first join must lead") };
    let Join::Follow(follow) = flights.join(&key(0)) else { panic!("second join must follow") };
    // A request that observed an invalidation keys a different flight.
    assert!(matches!(flights.join(&key(1)), Join::Lead(_)), "a new version never joins");
    assert_eq!(flights.in_flight(), 2);

    let table = Arc::new(Entity::new(SecurableKind::Table, "t0", None, Uid::from("ms"), "o", 0));
    flights.finish(&key(0), &lead, Ok(table.clone()));
    // Retired: a late arrival starts a fresh flight rather than joining
    // the finished one — and all of that before the follower has looked.
    assert_eq!(flights.in_flight(), 1, "only the version-1 flight is left");
    assert!(matches!(flights.join(&key(0)), Join::Lead(_)), "join after finish leads again");
    let seen = follow.wait().expect("the follower is handed the leader's result");
    assert!(Arc::ptr_eq(&seen, &table), "the follower's value is the leader's");
}

fn item(principal: &str) -> PendingItem {
    let sig = Signature {
        ms: Uid::from("ms"),
        ctx: Context::user(principal),
        want_credentials: false,
    };
    PendingItem::new(sig, vec![FullName::parse("main.s.t0").unwrap()])
}

#[test]
fn enqueue_elects_one_leader_and_next_group_chunks_by_signature() {
    let batcher = Batcher::default();
    assert_eq!(batcher.enqueue(item("alice")), Some(true), "an idle queue elects the arrival");
    for principal in ["bob", "alice", "alice", "bob", "alice"] {
        assert_eq!(batcher.enqueue(item(principal)), Some(false), "a leader already owns it");
    }
    // Queue: a b a a b a, max_batch 3. The head's signature is gathered
    // past foreign items up to the cap; the rest keep arrival order.
    let principals = |group: &[PendingItem]| -> Vec<String> {
        group.iter().map(|i| i.sig.ctx.principal.clone()).collect()
    };
    assert_eq!(principals(&batcher.next_group(3).unwrap()), ["alice", "alice", "alice"]);
    assert_eq!(principals(&batcher.next_group(3).unwrap()), ["bob", "bob"]);
    // One item left: leadership is still held, so an arrival now follows.
    assert_eq!(batcher.enqueue(item("bob")), Some(false));
    assert_eq!(principals(&batcher.next_group(3).unwrap()), ["alice"]);
    assert_eq!(principals(&batcher.next_group(3).unwrap()), ["bob"]);
    // Only observing the empty queue releases leadership.
    assert_eq!(batcher.queued(), 0);
    assert_eq!(batcher.enqueue(item("alice")), Some(false), "not released by the last group");
    assert!(batcher.next_group(3).is_some());
    assert!(batcher.next_group(3).is_none());
    assert_eq!(batcher.enqueue(item("alice")), Some(true), "released by the empty observation");
}

/// One quantum of `BATCH_QUEUE_CAPACITY + 1` resolves, replayed: nothing
/// drains until the whole quantum is queued, so the last one hits the
/// queue bound and sheds exactly like an admission shed — one audited
/// `requestShed`, one `serve.shed` — while the rest are served.
#[test]
fn the_request_past_the_batch_queue_bound_sheds_with_one_audited_deny() {
    let store = ObjectStore::new(StsService::new(Clock::manual(0)), LatencyModel::zero());
    let db = Db::new(DbConfig::default());
    let uc = UnityCatalog::new(db, store.clone(), UcConfig::default(), "node-0");
    let ms = uc.create_metastore("admin", "serve", "us-west-2").unwrap();
    let admin = Context::user("admin");
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&admin, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&admin, &ms, "s3://lake/managed").unwrap();
    uc.create_catalog(&admin, &ms, "main").unwrap();
    uc.create_schema(&admin, &ms, "main", "s").unwrap();
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    uc.create_table(&admin, &ms, TableSpec::managed("main.s.t0", schema).unwrap()).unwrap();
    let plane = ServePlane::new(
        uc.clone(),
        ServeConfig {
            queue_capacity: 2 * BATCH_QUEUE_CAPACITY,
            retry: RetryPolicy { max_retries: 0, base_ms: 4 },
            ..ServeConfig::default()
        },
    );
    let kind = RequestKind::Resolve { keys: vec![0] };
    let arrival = |client| Arrival { at_ms: 1, tenant: 0, client, key: 0, kind: kind.clone() };
    let schedule = Schedule {
        params: OpenLoopParams::fig5(1, 1.0),
        arrivals: (0..=BATCH_QUEUE_CAPACITY as u64).map(arrival).collect(),
    };
    let binding = replay::ReplayBinding {
        ms,
        contexts: vec![admin],
        tables: vec![vec!["main.s.t0".to_string()]],
        want_credentials: false,
    };
    let report = replay::run(&plane, &schedule, &binding);
    assert_eq!(report.offered, BATCH_QUEUE_CAPACITY as u64 + 1);
    assert_eq!((report.shed, report.dropped), (1, 1), "exactly the last arrival sheds");
    assert_eq!(report.batch_items, BATCH_QUEUE_CAPACITY as u64);
    assert_eq!(report.batches, (BATCH_QUEUE_CAPACITY / ServeConfig::default().max_batch) as u64);
    assert_eq!(report.errors, 0);
    assert_eq!(uc.audit_log().query(|r| r.action == "requestShed").len(), 1);
    assert_eq!(plane.batch_queue_len(), 0, "the elected leader drained the queue");
}
