//! Serving-plane integration suite: one catalog call per admitted
//! request, audited shedding, bounded virtual-clock retry, and
//! deterministic replay.
//!
//! The correctness contract under test (DESIGN.md §10):
//!
//! * an admitted request is **exactly one catalog call** with exactly the
//!   audit records, op counts and database reads of the direct call — N
//!   racing `getTable`s for one key are N of each;
//! * an over-budget request is **shed, never dropped silently**: a typed
//!   429, a `requestShed` deny in the audit trail, a `serve.shed` tick;
//! * retry backoff runs on the injected clock — deterministic and
//!   instant under a manual clock;
//! * the deterministic replay of an open-loop schedule is a pure
//!   function of its seed, with per-tenant telemetry obeying the
//!   conservation law.

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
use uc_serve::{replay, ServeConfig, ServePlane};
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

/// A manual-clock, cache-off world (instant, deterministic) for replay and
/// backoff tests.
fn manual_world() -> (Arc<UnityCatalog>, uc_catalog::Uid) {
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
            cache: uc_catalog::cache::CacheConfig::disabled(),
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

/// The decisions recorded so far for getting `main.s.t0`.
fn t0_audits(uc: &UnityCatalog) -> Vec<AuditDecision> {
    let records = uc.audit_log().query(|r| r.action == "getSecurable" && r.detail.contains("main.s.t0"));
    records.iter().map(|r| r.decision).collect()
}

/// N threads racing the same key with the cache off are N catalog calls:
/// N `getSecurable` allows, N `get_securable` op counts and N times one
/// call's database reads — nothing is answered on the catalog's behalf.
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
    let audits_before = t0_audits(&world.uc).len();
    let calls_before = counter(&world.uc, "catalog.get_securable.count");

    const N: usize = 16;
    let before = db_reads(&world.uc);
    let barrier = Barrier::new(N);
    std::thread::scope(|scope| {
        for _ in 0..N {
            scope.spawn(|| {
                barrier.wait();
                let table = plane.get_table(&ctx, &world.ms, "main.s.t0").unwrap();
                assert_eq!(table.name, "t0");
            });
        }
    });

    assert_eq!(counter(&world.uc, "catalog.get_securable.count") - calls_before, N as u64);
    assert_eq!(db_reads(&world.uc) - before, N as u64 * reads_per_call);
    let audits = t0_audits(&world.uc);
    assert_eq!(audits[audits_before..], [AuditDecision::Allow; N], "one allow per request");
    assert_eq!(counter(&world.uc, "serve.admitted"), N as u64 + 1);
}

/// Over-budget requests shed loudly: typed 429, audited deny, counted.
#[test]
fn shed_is_audited_and_maps_to_429() {
    let (uc, ms) = manual_world();
    let plane = ServePlane::new(uc.clone(), ServeConfig { queue_capacity: 0 });
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
    let (uc, ms) = manual_world();
    let plane = ServePlane::new(uc.clone(), ServeConfig { queue_capacity: 0 });
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
/// (`ServePlane::retry_after`), in virtual time: a request shed at quantum
/// `t` is re-offered at exactly `t + 4`, `t + 4 + 8`, `t + 4 + 8 + 16`.
#[test]
fn replay_reoffers_shed_requests_on_the_retry_ladder() {
    let (uc, ms) = manual_world();
    let plane = ServePlane::new(uc.clone(), ServeConfig { queue_capacity: 0 });
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
    assert_eq!(offered_at, [10, 14, 22, 38]);
    assert_eq!((report.offered, report.shed, report.retried, report.dropped), (4, 4, 3, 1));
    assert_eq!(counter(&uc, "serve.retries"), 3);
}

fn replay_fixture() -> (Arc<UnityCatalog>, ServePlane, Schedule, ReplayBinding) {
    let (uc, ms) = manual_world();
    let plane = ServePlane::new(uc.clone(), ServeConfig { queue_capacity: 8 });
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

    // The storm sheds, and every admitted request is one catalog call.
    assert!(report_a.shed > 0, "8-deep budget under 60 K rps must shed");
    assert_eq!(report_a.errors, 0);
    let calls = |uc: &UnityCatalog| {
        counter(uc, "catalog.get_securable.count") + counter(uc, "catalog.resolve_for_query.count")
    };
    assert_eq!(calls(&uc_a), report_a.admitted);
    // Conservation law: per-tenant cells (plus overflow) sum exactly to
    // each global serve counter.
    let parsed = parse_snapshot(&uc_a.metrics_snapshot());
    for base in ["serve.admitted", "serve.shed"] {
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

}

/// One replay quantum with two `Resolve` arrivals from one principal —
/// one on a table it may read, one on a table it may not — is two
/// `resolve_for_query` calls: one `Allow` for the first, one `Deny` for
/// the second, and nothing recorded twice.
#[test]
fn a_replay_quantum_audits_each_resolve_exactly_once() {
    let (uc, ms) = manual_world();
    let plane = ServePlane::new(uc.clone(), ServeConfig::default());
    uc.grant_read_path(&Context::user(ADMIN), &ms, "main.s.t0", "alice").unwrap();
    let resolve = |key| Arrival { at_ms: 3, tenant: 0, client: 0, key, kind: RequestKind::Resolve { keys: vec![key] } };
    let schedule = Schedule { params: OpenLoopParams::fig5(1, 1.0), arrivals: vec![resolve(0), resolve(1)] };
    let binding = ReplayBinding {
        ms,
        contexts: vec![Context::user("alice")],
        tables: vec![vec!["main.s.t0".to_string(), "main.s.t1".to_string()]],
        want_credentials: false,
    };
    let audits0 = uc.audit_log().total_recorded();

    let report = replay::run(&plane, &schedule, &binding);

    assert_eq!((report.offered, report.admitted, report.errors), (2, 2, 1));
    assert_eq!(counter(&uc, "catalog.resolve_for_query.count"), 2);
    let added = uc.audit_log().recent((uc.audit_log().total_recorded() - audits0) as usize);
    let trail: Vec<(AuditDecision, &str, &str)> =
        added.iter().map(|r| (r.decision, r.action.as_str(), r.detail.as_str())).collect();
    assert_eq!(
        trail,
        [
            (AuditDecision::Allow, "resolveForQuery", "main.s.t0"),
            (AuditDecision::Deny, "resolveForQuery", "main.s.t1"),
        ]
    );
}
