//! Serving-plane integration suite: coalescing exactly-once, audited
//! shedding, bounded virtual-clock retry, deterministic replay, and the
//! read-your-snapshot flight key.
//!
//! The correctness contract under test (DESIGN.md §10):
//!
//! * N racing `getTable`s for one key produce **exactly one database
//!   execution and one audit record per flight** — leaders do real work,
//!   followers are free;
//! * an over-budget request is **shed, never dropped silently**: a typed
//!   429, a `requestShed` deny in the audit trail, a `serve.shed` tick;
//! * retry backoff runs on the injected clock — deterministic and
//!   instant under a manual clock;
//! * the deterministic replay of an open-loop schedule is a pure
//!   function of its seed, with per-tenant telemetry obeying the
//!   conservation law;
//! * the flight key embeds the metastore cache version, so an
//!   invalidation can never serve a stale leader result to a
//!   post-invalidation arrival.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use uc_bench::{labeled_counter_sum, parse_snapshot, SnapshotValue, World, WorldConfig};
use uc_catalog::audit::AuditDecision;
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::rest::ApiError;
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::{FullName, UcError};
use uc_cloudstore::{Clock, LatencyModel, ObjectStore, StsService};
use uc_delta::value::{DataType, Field, Schema};
use uc_obs::Obs;
use uc_serve::replay::{run_with, ReplayBinding};
use uc_serve::{replay, RetryPolicy, Role, ServeConfig, ServePlane};
use uc_txdb::{Db, DbConfig};
use uc_workload::openloop::{Arrival, OpenLoopParams, RequestKind, Schedule};

const ADMIN: &str = "admin";
const TABLES: usize = 8;

fn seed_tables(uc: &UnityCatalog, ctx: &Context, ms: &uc_catalog::Uid) {
    uc.create_catalog(ctx, ms, "main").unwrap();
    uc.create_schema(ctx, ms, "main", "s").unwrap();
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    for i in 0..TABLES {
        uc.create_table(
            ctx,
            ms,
            TableSpec::managed(&format!("main.s.t{i}"), schema.clone()).unwrap(),
        )
        .unwrap();
    }
}

/// A cache-miss world: every read goes to the (latency-modelled) db.
fn miss_world() -> World {
    let world = World::build(&WorldConfig {
        db_pool: 8,
        db_latency: Duration::from_millis(2),
        cache: false,
        ..Default::default()
    });
    seed_tables(&world.uc, &world.admin(), &world.ms);
    world
}

/// A manual-clock world (instant, deterministic) for replay and backoff
/// tests; `cache` controls whether the metastore version can advance.
fn manual_world(cache: bool) -> (Arc<UnityCatalog>, uc_catalog::Uid) {
    let clock = Clock::manual(0);
    let obs_clock = clock.clone();
    let obs = Obs::with_clock_fn(Arc::new(move || obs_clock.now_ms()));
    let sts = StsService::new(clock).with_obs(obs.clone());
    let store = ObjectStore::new(sts, LatencyModel::zero()).with_obs(obs.clone());
    let db = Db::new(DbConfig { obs: obs.clone(), ..Default::default() });
    let uc = UnityCatalog::new(
        db,
        store.clone(),
        UcConfig {
            cache: if cache {
                uc_catalog::cache::CacheConfig::default()
            } else {
                uc_catalog::cache::CacheConfig::disabled()
            },
            obs,
            ..Default::default()
        },
        "node-0",
    );
    let ms = uc.create_metastore(ADMIN, "serve", "us-west-2").unwrap();
    let ctx = Context::user(ADMIN);
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
    seed_tables(&uc, &ctx, &ms);
    (uc, ms)
}

/// Database round trips so far: point reads plus range scans (a cache-off
/// by-name read is one chain scan and no point read).
fn db_reads(uc: &UnityCatalog) -> u64 {
    counter(uc, "txdb.read.count") + counter(uc, "txdb.scan.count")
}

fn counter(uc: &UnityCatalog, name: &str) -> u64 {
    match parse_snapshot(&uc.metrics_snapshot()).get(name) {
        Some(SnapshotValue::Counter(n)) => *n,
        _ => 0,
    }
}

/// N threads racing the same key share flights: every request is served
/// (leader xor follower), each flight is exactly one catalog execution —
/// the database and the audit trail both count leaders, never N.
#[test]
fn racing_get_tables_coalesce_exactly_once() {
    let world = miss_world();
    let plane = Arc::new(ServePlane::new(world.uc.clone(), ServeConfig::default()));
    plane.register_tenant(&world.ms, "serve");
    let ctx = world.admin();

    // Calibrate: one uncontended call's database round trips (the chain
    // scan; constant shape for any 3-part name with the cache off).
    let before = db_reads(&world.uc);
    plane.get_table(&ctx, &world.ms, "main.s.t1").unwrap();
    let reads_per_call = db_reads(&world.uc) - before;
    assert!(reads_per_call > 0, "cache-off getTable must read the db");
    let audits_before = world
        .uc
        .audit_log()
        .query(|r| r.action == "getSecurable" && r.detail.contains("main.s.t0"))
        .len() as u64;

    const N: usize = 16;
    let before = db_reads(&world.uc);
    let leaders = AtomicU64::new(0);
    let followers = AtomicU64::new(0);
    let barrier = Barrier::new(N);
    std::thread::scope(|scope| {
        for _ in 0..N {
            scope.spawn(|| {
                barrier.wait();
                let served = plane.get_table(&ctx, &world.ms, "main.s.t0").unwrap();
                assert_eq!(served.value.name, "t0");
                match served.role {
                    Role::Leader => leaders.fetch_add(1, Ordering::Relaxed),
                    Role::Follower => followers.fetch_add(1, Ordering::Relaxed),
                };
            });
        }
    });
    let leaders = leaders.load(Ordering::Relaxed);
    let followers = followers.load(Ordering::Relaxed);

    // Every request served exactly once; at least one flight coalesced.
    assert_eq!(leaders + followers, N as u64);
    assert!(leaders >= 1);
    assert!(
        followers > 0,
        "16 simultaneous misses at 2 ms/db-read must share at least one flight"
    );
    // Exactly one database execution per leader — followers are free.
    assert_eq!(db_reads(&world.uc) - before, leaders * reads_per_call);
    // Exactly one audit record per leader (the coalesced requests never
    // reached the catalog, so they cannot double-audit).
    let audits = world
        .uc
        .audit_log()
        .query(|r| r.action == "getSecurable" && r.detail.contains("main.s.t0"))
        .len() as u64;
    assert_eq!(audits - audits_before, leaders);
    // Telemetry agrees with the observed roles.
    assert_eq!(counter(&world.uc, "serve.coalesce.followers"), followers);
}

/// Over-budget requests shed loudly: typed 429, audited deny, counted.
#[test]
fn shed_is_audited_and_maps_to_429() {
    let (uc, ms) = manual_world(false);
    let plane = ServePlane::new(
        uc.clone(),
        ServeConfig { queue_capacity: 0, ..ServeConfig::default() },
    );
    plane.register_tenant(&ms, "serve");
    let ctx = Context::user(ADMIN);

    let err = plane.get_table(&ctx, &ms, "main.s.t0").unwrap_err();
    let UcError::ResourceExhausted(_) = &err else {
        panic!("expected ResourceExhausted, got {err:?}");
    };
    assert_eq!(ApiError::from(err).status, 429, "shed must surface as HTTP 429");

    let sheds = uc.audit_log().query(|r| {
        r.action == "requestShed" && r.decision == AuditDecision::Deny && r.principal == ADMIN
    });
    assert_eq!(sheds.len(), 1, "every shed is exactly one audited deny");
    assert_eq!(counter(&uc, "serve.shed"), 1);
    // Resolve sheds through the same contract.
    let refs = vec![FullName::parse("main.s.t0").unwrap()];
    let err = plane.resolve(&ctx, &ms, refs, false).unwrap_err();
    assert!(matches!(err, UcError::ResourceExhausted(_)));
    assert_eq!(counter(&uc, "serve.shed"), 2);
}

/// Shed-and-retry backoff is bounded and driven by the injected clock:
/// on a manual clock it is instant and advances virtual time exactly.
#[test]
fn retry_backoff_is_bounded_and_virtual() {
    let (uc, ms) = manual_world(false);
    let plane = ServePlane::new(
        uc.clone(),
        ServeConfig {
            queue_capacity: 0,
            retry: RetryPolicy { max_retries: 3, base_ms: 4 },
            ..ServeConfig::default()
        },
    );
    plane.register_tenant(&ms, "serve");
    let ctx = Context::user(ADMIN);
    let t0 = uc.clock().now_ms();
    let err = plane.get_table_with_retry(&ctx, &ms, "main.s.t0").unwrap_err();
    assert!(matches!(err, UcError::ResourceExhausted(_)));
    // Four shed attempts (initial + 3 retries), backoffs 4, 8, 16 ms.
    assert_eq!(uc.clock().now_ms() - t0, 4 + 8 + 16);
    assert_eq!(counter(&uc, "serve.retries"), 3);
    assert_eq!(counter(&uc, "serve.shed"), 4);
    assert_eq!(
        uc.audit_log().query(|r| r.action == "requestShed").len(),
        4,
        "every attempt's shed is audited"
    );
}

/// The replay driver backs off on the same ladder as the thread driver
/// (`RetryPolicy::backoff_ms`), in virtual time: a request shed at quantum
/// `t` is re-offered at exactly `t + 4`, `t + 4 + 8`, `t + 4 + 8 + 16`, and
/// a zero base re-offers in the same quantum instead of being clamped up.
#[test]
fn replay_reoffers_shed_requests_on_the_retry_ladder() {
    for (base_ms, quanta) in [(4, [10, 14, 22, 38]), (0, [10, 10, 10, 10])] {
        let (uc, ms) = manual_world(false);
        let plane = ServePlane::new(
            uc.clone(),
            ServeConfig {
                queue_capacity: 0,
                retry: RetryPolicy { max_retries: 3, base_ms },
                ..ServeConfig::default()
            },
        );
        let kind = RequestKind::GetTable;
        let arrival = Arrival { at_ms: 10, tenant: 0, client: 0, key: 0, kind };
        let schedule = Schedule { params: OpenLoopParams::fig5(1, 1.0), arrivals: vec![arrival] };
        let binding = ReplayBinding {
            ms,
            contexts: vec![Context::user(ADMIN)],
            tables: vec![vec!["main.s.t0".to_string()]],
            want_credentials: false,
        };
        let mut offered_at = Vec::new();
        let report = run_with(&plane, &schedule, &binding, |t, _| offered_at.push(t));
        assert_eq!(offered_at, quanta, "base_ms={base_ms}");
        assert_eq!((report.offered, report.shed, report.retried, report.dropped), (4, 4, 3, 1));
        assert_eq!(counter(&uc, "serve.retries"), 3);
    }
}

fn replay_fixture() -> (Arc<UnityCatalog>, ServePlane, Schedule, ReplayBinding) {
    let (uc, ms) = manual_world(false);
    let plane = ServePlane::new(
        uc.clone(),
        ServeConfig { queue_capacity: 8, ..ServeConfig::default() },
    );
    plane.register_tenant(&ms, "serve");
    let mut params = OpenLoopParams::fig5(42, 60_000.0);
    params.horizon_ms = 50;
    params.tenants = 2;
    let schedule = Schedule::generate(&params);
    let names: Vec<String> = (0..TABLES).map(|i| format!("main.s.t{i}")).collect();
    let binding = ReplayBinding {
        ms: ms.clone(),
        contexts: (0..params.tenants).map(|t| Context::user(&format!("tenant{t}"))).collect(),
        tables: (0..params.tenants).map(|_| names.clone()).collect(),
        want_credentials: false,
    };
    let admin = Context::user(ADMIN);
    for t in 0..params.tenants {
        for name in &names {
            uc.grant_read_path(&admin, &ms, name, &format!("tenant{t}")).unwrap();
        }
    }
    (uc, plane, schedule, binding)
}

/// Same seed ⇒ byte-identical replay: the report, the serve counters,
/// and the audit trail are pure functions of the schedule.
#[test]
fn replay_is_deterministic_and_conserves_telemetry() {
    let serve_counters = |uc: &UnityCatalog| -> String {
        let snapshot = uc.metrics_snapshot();
        let mut lines: Vec<&str> = snapshot
            .lines()
            .filter(|l| l.starts_with("serve.") && l.contains(" counter "))
            .collect();
        lines.sort_unstable();
        lines.join("\n")
    };

    let (uc_a, plane_a, schedule, binding_a) = replay_fixture();
    let report_a = replay::run(&plane_a, &schedule, &binding_a);
    let (uc_b, plane_b, _, binding_b) = replay_fixture();
    let report_b = replay::run(&plane_b, &schedule, &binding_b);

    assert_eq!(report_a, report_b, "replay report must be seed-pure");
    assert_eq!(
        report_a.canonical_text(),
        report_b.canonical_text(),
        "canonical artifact must be byte-identical"
    );
    assert_eq!(
        serve_counters(&uc_a),
        serve_counters(&uc_b),
        "serve telemetry must be byte-identical across replays"
    );
    // Audit trails agree in shape: every shed is a deny, counted once.
    let shed_audits =
        |uc: &UnityCatalog| uc.audit_log().query(|r| r.action == "requestShed").len() as u64;
    assert_eq!(shed_audits(&uc_a), report_a.shed);
    assert_eq!(shed_audits(&uc_b), report_a.shed);

    // The storm actually exercised every mechanism.
    assert!(report_a.shed > 0, "8-deep budget under 60 K rps must shed");
    assert!(report_a.followers > 0, "hot keys must coalesce");
    assert!(report_a.batches > 0, "resolve arrivals must batch");
    assert_eq!(report_a.errors, 0);

    // Serve accounting: every admitted request is served exactly once.
    assert_eq!(
        report_a.admitted,
        report_a.leaders + report_a.followers + report_a.batch_items
    );
    // Conservation law: per-tenant cells (plus overflow) sum exactly to
    // each global serve counter.
    let parsed = parse_snapshot(&uc_a.metrics_snapshot());
    for base in ["serve.admitted", "serve.shed", "serve.coalesce.leaders", "serve.coalesce.followers"] {
        let global = match parsed.get(base) {
            Some(SnapshotValue::Counter(n)) => *n,
            other => panic!("{base} missing: {other:?}"),
        };
        assert_eq!(
            labeled_counter_sum(&parsed, &format!("{base}.by_tenant")),
            global,
            "{base}.by_tenant must sum to the global counter"
        );
    }

    // Followers are served, not just counted: each is handed exactly the
    // entity its flight's leader fetched in that quantum.
    let (_uc_c, plane_c, _, binding_c) = replay_fixture();
    let mut led = std::collections::HashMap::new();
    let mut followed = 0;
    replay::run_observed(&plane_c, &schedule, &binding_c, |_, _| {}, |t, ctx, served| {
        let flight = (t, ctx.principal.clone(), served.value.name.clone());
        match served.role {
            Role::Leader => assert!(led.insert(flight, served.value.id.clone()).is_none()),
            Role::Follower => {
                followed += 1;
                assert_eq!(led.get(&flight), Some(&served.value.id), "not its leader's entity");
            }
        }
    });
    assert_eq!(followed, report_a.followers);
}

/// The flight key embeds the metastore cache version: an invalidation
/// advances the version, so post-invalidation requests compute a new key
/// and can never be served a pre-invalidation leader's result.
#[test]
fn invalidation_advances_the_flight_key_version() {
    let (uc, ms) = manual_world(true);
    let plane = ServePlane::new(uc.clone(), ServeConfig::default());
    plane.register_tenant(&ms, "serve");
    let ctx = Context::user(ADMIN);

    let v0 = uc.metastore_cache_version(&ms);
    let served = plane.get_table(&ctx, &ms, "main.s.t0").unwrap();
    assert_eq!(served.key_version, v0, "flight key pins the version at join time");

    // A write invalidates: the metastore version advances, so new
    // arrivals key a fresh flight.
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    uc.create_table(&ctx, &ms, TableSpec::managed("main.s.fresh", schema).unwrap()).unwrap();
    let v1 = uc.metastore_cache_version(&ms);
    assert!(v1 > v0, "a committed write must advance the metastore version");
    let served = plane.get_table(&ctx, &ms, "main.s.t0").unwrap();
    assert_eq!(served.key_version, v1, "post-invalidation requests use the new key");

    // Same property through the replay driver: a write injected between
    // quanta moves every later flight to the new version.
    let params = OpenLoopParams {
        horizon_ms: 10,
        ..OpenLoopParams::fig5(7, 3_000.0)
    };
    let schedule = Schedule::generate(&params);
    let names: Vec<String> = (0..TABLES).map(|i| format!("main.s.t{i}")).collect();
    let binding = ReplayBinding {
        ms: ms.clone(),
        contexts: vec![ctx.clone()],
        tables: vec![names],
        want_credentials: false,
    };
    let mut invalidated_at = None;
    let report = run_with(&plane, &schedule, &binding, |t, plane| {
        if t >= 5 && invalidated_at.is_none() {
            let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
            plane
                .catalog()
                .create_table(
                    &Context::user(ADMIN),
                    &binding.ms,
                    TableSpec::managed("main.s.mid_replay", schema).unwrap(),
                )
                .unwrap();
            invalidated_at = Some(t);
        }
    });
    assert!(invalidated_at.is_some(), "schedule must reach the invalidation quantum");
    assert!(
        report.last_version > v1,
        "flights after the mid-replay write must carry the advanced version"
    );
}

/// Racing resolves combine into batches, and every request still gets
/// exactly its own refs' results back.
#[test]
fn batched_resolves_split_correctly() {
    let world = miss_world();
    let plane = Arc::new(ServePlane::new(world.uc.clone(), ServeConfig::default()));
    plane.register_tenant(&world.ms, "serve");
    let ctx = world.admin();

    const N: usize = 12;
    let barrier = Arc::new(Barrier::new(N));
    std::thread::scope(|scope| {
        for i in 0..N {
            let plane = Arc::clone(&plane);
            let barrier = Arc::clone(&barrier);
            let ctx = ctx.clone();
            let ms = world.ms.clone();
            scope.spawn(move || {
                // Each request asks for a distinct slice of the tables.
                let refs: Vec<FullName> = (0..=(i % 3))
                    .map(|k| FullName::parse(&format!("main.s.t{}", (i + k) % TABLES)).unwrap())
                    .collect();
                barrier.wait();
                let served = plane.resolve(&ctx, &ms, refs.clone(), false).unwrap();
                assert_eq!(served.value.len(), refs.len(), "positional split must match");
                for (want, got) in refs.iter().zip(&served.value) {
                    assert_eq!(got.entity.name, want.asset().unwrap());
                }
            });
        }
    });
    let parsed = parse_snapshot(&world.uc.metrics_snapshot());
    let batches = match parsed.get("serve.batch.count") {
        Some(SnapshotValue::Counter(n)) => *n,
        other => panic!("serve.batch.count missing: {other:?}"),
    };
    assert!(batches >= 1, "racing resolves must dispatch");
    assert!(batches <= N as u64, "dispatches never exceed requests");
    let sizes = match parsed.get("serve.batch.size") {
        Some(SnapshotValue::Histogram { count, sum, .. }) => (*count, *sum),
        other => panic!("serve.batch.size missing: {other:?}"),
    };
    assert_eq!(sizes, (batches, N as u64), "batch sizes must sum to the request count");
}
