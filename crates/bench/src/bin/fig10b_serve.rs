//! Figure 10(b) at 100× load: the serving plane's admission control.
//!
//! The paper's Fig 10(b) shows the uncached catalog hitting a throughput
//! wall below 10 K rps; `cache_read_scaling` regenerates that figure. This
//! bench offers the catalog a Fig 5 Poisson schedule at 100× the paper's
//! wall (1 M offered rps in virtual time, millions of distinct clients)
//! through the serving plane's deterministic replay driver, in a
//! manual-clock world: bounded per-tenant admission sheds the excess, each
//! shed an audited 429 retried on the backoff ladder, and every admitted
//! request is exactly one catalog call — which the bench asserts from the
//! catalog's own op counters. The figure replays 100 virtual ms;
//! `UC_SERVE_REPLAY=1` replays 20 and prints *only* the canonical
//! artifact, so CI can byte-diff two runs.

use std::sync::Arc;

use uc_bench::{parse_snapshot, SnapshotValue};
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_cloudstore::{Clock, FaultPlan, LatencyModel, ObjectStore, StsService};
use uc_delta::value::{DataType, Field, Schema};
use uc_obs::Obs;
use uc_serve::replay::{run as replay_run, ReplayBinding, ReplayReport};
use uc_serve::{ServeConfig, ServePlane};
use uc_txdb::{Db, DbConfig};
use uc_workload::openloop::{OpenLoopParams, Schedule};

/// Tables every tenant reads.
const KEYS: usize = 16;

fn seed_tables(uc: &UnityCatalog, ctx: &Context, ms: &uc_catalog::Uid) {
    uc.create_catalog(ctx, ms, "main").unwrap();
    uc.create_schema(ctx, ms, "main", "s").unwrap();
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    for i in 0..KEYS {
        uc.create_table(
            ctx,
            ms,
            TableSpec::managed(&format!("main.s.t{i}"), schema.clone()).unwrap(),
        )
        .unwrap();
    }
}

fn table_names() -> Vec<String> {
    (0..KEYS).map(|i| format!("main.s.t{i}")).collect()
}

/// Deterministic open-loop replay: manual clock, zero modelled latency
/// (virtual time only), Fig 5 arrivals at 100× the paper's 10 K wall.
fn replay_world() -> (Arc<UnityCatalog>, uc_catalog::Uid) {
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
            faults: FaultPlan::disabled(),
            obs,
            ..Default::default()
        },
        "node-0",
    );
    let ms = uc.create_metastore("admin", "bench", "us-west-2").unwrap();
    let ctx = Context::user("admin");
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
    seed_tables(&uc, &ctx, &ms);
    (uc, ms)
}

fn replay_100x(horizon_ms: u64) -> (ReplayReport, String) {
    let (uc, ms) = replay_world();
    // Small per-tenant budget so the 100× storm actually sheds.
    let plane = ServePlane::new(uc.clone(), ServeConfig { queue_capacity: 64 });
    plane.register_tenant(&ms, "bench");
    let mut params = OpenLoopParams::fig5(0xF16B, 1_000_000.0);
    params.horizon_ms = horizon_ms;
    let schedule = Schedule::generate(&params);
    let names = table_names();
    let binding = ReplayBinding {
        ms: ms.clone(),
        contexts: (0..params.tenants)
            .map(|t| Context::user(&format!("tenant{t}")))
            .collect(),
        tables: (0..params.tenants).map(|_| names.clone()).collect(),
        want_credentials: false,
    };
    // Tenant principals need the read path; grant via admin.
    let admin = Context::user("admin");
    for t in 0..params.tenants {
        let grantee = format!("tenant{t}");
        for name in &names {
            uc.grant_read_path(&admin, &ms, name, &grantee).unwrap();
        }
    }
    let before = catalog_calls(&uc);
    let report = replay_run(&plane, &schedule, &binding);
    let calls = catalog_calls(&uc) - before;
    assert_eq!(calls, report.admitted, "every admitted request is exactly one catalog call");

    // The byte-diffed artifact: replay counters, the catalog calls they
    // made, and every serve.* counter line of the snapshot (counters only
    // — they are exact).
    let mut artifact = String::new();
    artifact.push_str(&report.canonical_text());
    artifact.push_str(&format!("serve.replay.catalog_calls={calls}\n"));
    let snapshot = uc.metrics_snapshot();
    let mut lines: Vec<&str> = snapshot
        .lines()
        .filter(|l| l.starts_with("serve.") && l.contains(" counter "))
        .collect();
    lines.sort_unstable();
    for line in lines {
        artifact.push_str(line);
        artifact.push('\n');
    }
    (report, artifact)
}

/// Calls the catalog has served on the two ops the plane admits.
fn catalog_calls(uc: &UnityCatalog) -> u64 {
    let parsed = parse_snapshot(&uc.metrics_snapshot());
    ["catalog.get_securable.count", "catalog.resolve_for_query.count"]
        .iter()
        .map(|name| match parsed.get(*name) {
            Some(SnapshotValue::Counter(n)) => *n,
            _ => 0,
        })
        .sum()
}

fn main() {
    if std::env::var("UC_SERVE_REPLAY").is_ok() {
        // CI determinism gate: print nothing but the canonical artifact.
        let (_, artifact) = replay_100x(20);
        print!("{artifact}");
        return;
    }
    println!("open-loop replay at 100× the paper wall (1 M offered rps, virtual time)…");
    let (report, artifact) = replay_100x(100);
    print!("{artifact}");
    assert!(report.shed > 0, "100× storm must exercise admission shedding");
}
