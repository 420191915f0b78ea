//! Deterministic telemetry dump: drive a fixed-seed chaos workload with
//! tracing live and print the full trace (JSON lines) plus the metrics
//! snapshot.
//!
//! This is the CI determinism gate's subject: two invocations with the
//! same `UC_CHAOS_SEED` must produce byte-identical output, because every
//! source of telemetry is deterministic — fault schedules come from the
//! seeded plan, timestamps from the shared manual clock, trace IDs from a
//! sequential counter, and the metrics snapshot iterates a sorted map.
//! Any nondeterminism that leaks into the observability plane (a random
//! ID in a span name, a wall-clock timestamp, hash-map iteration order)
//! shows up here as a diff.

#![expect(clippy::disallowed_methods, reason = "a bin reads its own configuration from the environment")]

use std::sync::Arc;

use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::types::FullName;
use uc_cloudstore::faults::{points, FaultMode, FaultPlan};
use uc_cloudstore::{AccessLevel, Clock, LatencyModel, ObjectStore, StsService};
use uc_delta::value::{DataType, Field, Schema};
use uc_engine::{Engine, EngineConfig};
use uc_obs::Obs;
use uc_txdb::{Db, DbConfig};

const ADMIN: &str = "admin";

fn main() {
    let seed: u64 = std::env::var("UC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(424242);

    // One fault plan, one manual clock, one Obs handle — shared by every
    // layer, exactly like the chaos test harness.
    let plan = FaultPlan::seeded(seed);
    let clock = Clock::manual(0);
    let obs_clock = clock.clone();
    let obs = Obs::with_clock_fn(Arc::new(move || obs_clock.now_ms()));
    let sts = StsService::new(clock).with_faults(plan.clone()).with_obs(obs.clone());
    let store = ObjectStore::with_faults(sts, LatencyModel::zero(), plan.clone())
        .with_obs(obs.clone());
    let db = Db::new(DbConfig {
        faults: plan.clone(),
        obs: obs.clone(),
        ..Default::default()
    });
    let uc = UnityCatalog::new(
        db,
        store.clone(),
        UcConfig { faults: plan.clone(), obs: obs.clone(), ..Default::default() },
        "node-0",
    );
    let ms = uc.create_metastore(ADMIN, "chaos", "us-west-2").unwrap();
    let ctx = Context::user(ADMIN);
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();

    // The workload: engine-driven DDL + DML under storage and commit
    // faults, a conflict storm absorbed by write retries, and a credential
    // vend — every layer contributes spans and counters.
    let engine = Engine::new(uc.clone(), ms.clone(), EngineConfig::trusted("dbr"));
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();

    plan.arm(points::STORE_PUT_IF_ABSENT, FaultMode::Probability(0.25));
    plan.arm(points::TXDB_COMMIT_CONFLICT, FaultMode::Probability(0.2));
    for i in 0..25i64 {
        let _ = s.execute(&format!("INSERT INTO main.s.t VALUES ({i})"));
        let _ = uc.update_comment(
            &ctx,
            &ms,
            &FullName::parse("main.s.t").unwrap(),
            "relation",
            &format!("c{i}"),
        );
    }
    plan.disarm(points::STORE_PUT_IF_ABSENT);
    plan.disarm(points::TXDB_COMMIT_CONFLICT);

    // A burst of injected serialization conflicts, retried to success.
    plan.arm(points::TXDB_COMMIT_CONFLICT, FaultMode::FirstN(5));
    uc.create_table(
        &ctx,
        &ms,
        TableSpec::managed("main.s.stormy", Schema::new(vec![Field::new("x", DataType::Int)]))
            .unwrap(),
    )
    .unwrap();
    plan.disarm(points::TXDB_COMMIT_CONFLICT);

    let _ = uc
        .temp_credentials(&ctx, &ms, &FullName::parse("main.s.t").unwrap(), "relation", AccessLevel::Read)
        .unwrap();
    let _ = s.execute("SELECT * FROM main.s.t").unwrap();

    println!("# chaos-telemetry seed={seed}");
    println!("# trace");
    print!("{}", obs.trace_jsonl());
    print!("{}", obs.metrics_snapshot());

    // The flight recorder froze itself at the first injected fault (the
    // workload above arms several); dump the frozen ring as canonical
    // JSONL and as a Chrome-trace export. Both are part of the CI
    // double-run byte diff — a schedule-dependent lane index or arrival
    // order leaking into the merge would show up here.
    println!("# flight");
    match obs.flight_jsonl() {
        Some(jsonl) => print!("{jsonl}"),
        None => println!("(no freeze triggered)"),
    }
    println!("# flight-chrome-trace");
    match obs.flight_chrome_trace() {
        Some(trace) => println!("{trace}"),
        None => println!("[]"),
    }
}
