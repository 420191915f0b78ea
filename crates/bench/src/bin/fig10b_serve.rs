//! Figure 10(b) at 100× load: the serving plane's coalescing knee.
//!
//! The paper's Fig 10(b) shows the uncached catalog hitting a throughput
//! wall below 10 K rps — the database pool is the bottleneck, and every
//! `getTable` pays it. `cache_read_scaling` regenerates that figure; this
//! bench regenerates it *two orders of magnitude past the wall*, where
//! even a cache-miss storm (cache disabled, every read hits the pool)
//! must stay live. The serving plane's answer is single-flight
//! coalescing: concurrent misses for the same key share one database
//! execution, so throughput scales with *distinct* hot keys, not with
//! client count.
//!
//! Two arms share the same world shape (db pool=8 @1 ms/read, 200 µs api
//! hop, cache off): `coalesced` serves through a [`ServePlane`] with
//! coalescing on; `uncoalesced` serves through the same plane with it off
//! (admission only). The closed-loop sweep pushes client counts far past
//! the pool knee over a 16-key hot set; the figure asserts the coalesced
//! arm beats the uncoalesced arm ≥ 4× at the knee.
//!
//! A second, open-loop section drives the deterministic replay path with
//! a Fig 5 Poisson schedule at 100× the paper's wall (1 M offered rps in
//! virtual time, millions of distinct clients) through a manual-clock
//! world: admission sheds deterministically and coalesce/batch splits are
//! seed-pure. The figure replays 100 virtual ms; `UC_SERVE_REPLAY=1`
//! replays 20 and prints *only* that canonical artifact, so CI can
//! byte-diff two runs.

use std::sync::Arc;
use std::time::Duration;

use uc_bench::{closed_loop_indexed, labeled_counter_sum, parse_snapshot, print_table, SnapshotValue, World, WorldConfig};
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_cloudstore::{Clock, FaultPlan, LatencyModel, ObjectStore, StsService};
use uc_delta::value::{DataType, Field, Schema};
use uc_obs::Obs;
use uc_serve::replay::{run as replay_run, ReplayBinding, ReplayReport};
use uc_serve::{ServeConfig, ServePlane};
use uc_txdb::{Db, DbConfig};
use uc_workload::openloop::{OpenLoopParams, Schedule};

/// Hot-key working set: small enough that clients pile up on the same
/// keys (Zipf reality), large enough to keep the pool busy.
const KEYS: usize = 16;

/// A cache-miss-storm world: metadata cache off, so every read pays the
/// modelled database (pool=8, 1 ms/read) — the regime past Fig 10(b)'s
/// wall.
fn build_world() -> World {
    let world = World::build(&WorldConfig {
        db_pool: 8,
        db_latency: Duration::from_millis(1),
        api_latency: Duration::from_micros(200),
        cache: false,
        ..Default::default()
    });
    seed_tables(&world.uc, &world.admin(), &world.ms);
    world
}

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

fn build_plane(world: &World, coalesce: bool) -> ServePlane {
    let plane = ServePlane::new(
        world.uc.clone(),
        ServeConfig {
            // The sweep measures coalescing, not shedding: budget above
            // the largest client count so admission never rejects.
            queue_capacity: 8192,
            coalesce,
        },
    );
    plane.register_tenant(&world.ms, "bench");
    plane
}

fn sweep(plane: &ServePlane, world: &World, names: &[String], threads: usize, duration: Duration) -> uc_bench::LoadSummary {
    let ctx = world.admin();
    let ms = world.ms.clone();
    closed_loop_indexed(threads, duration, |worker, iter| {
        // Worker-local stride over the hot set: no shared state inside
        // the measured region.
        let i = (worker * 31 + iter as usize * 7) % KEYS;
        plane.get_table(&ctx, &ms, &names[i]).unwrap();
    })
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
    let plane = ServePlane::new(
        uc.clone(),
        ServeConfig {
            // Small per-tenant budget so the 100× storm actually sheds.
            queue_capacity: 64,
            ..Default::default()
        },
    );
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
    let report = replay_run(&plane, &schedule, &binding);

    // The byte-diffed artifact: replay counters plus every serve.*
    // counter line of the snapshot (counters only — they are exact).
    let mut artifact = String::new();
    artifact.push_str(&report.canonical_text());
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

fn main() {
    if std::env::var("UC_SERVE_REPLAY").is_ok() {
        // CI determinism gate: print nothing but the canonical artifact.
        let (_, artifact) = replay_100x(20);
        print!("{artifact}");
        return;
    }
    let thread_counts = [1usize, 4, 16, 64, 128, 256];
    let duration = Duration::from_millis(400);

    println!("building coalesced and uncoalesced serve worlds ({KEYS} hot tables, cache off)…");
    let world_c = build_world();
    let world_u = build_world();
    let plane_c = build_plane(&world_c, true);
    let plane_u = build_plane(&world_u, false);
    let names = table_names();

    let mut rows = Vec::new();
    let mut ratio_at_knee = 0.0f64;
    for &threads in &thread_counts {
        let with = sweep(&plane_c, &world_c, &names, threads, duration);
        let without = sweep(&plane_u, &world_u, &names, threads, duration);
        let ratio = with.throughput_rps / without.throughput_rps.max(1e-9);
        ratio_at_knee = ratio;
        rows.push(vec![
            threads.to_string(),
            format!("{:.0}", with.throughput_rps),
            format!("{:.1}", with.p99.as_secs_f64() * 1e3),
            format!("{:.0}", without.throughput_rps),
            format!("{:.1}", without.p99.as_secs_f64() * 1e3),
            format!("{ratio:.1}×"),
        ]);
    }

    // Conservation + exactly-once accounting over the coalesced sweep:
    // leaders+followers is every served request, per-tenant label cells
    // sum exactly to the globals, and every leader is one catalog call.
    let followers_per_leader = {
        let parsed = parse_snapshot(&world_c.uc.metrics_snapshot());
        let counter = |name: &str| match parsed.get(name) {
            Some(SnapshotValue::Counter(n)) => *n,
            other => panic!("{name} missing from snapshot: {other:?}"),
        };
        let leaders = counter("serve.coalesce.leaders");
        let followers = counter("serve.coalesce.followers");
        let admitted = counter("serve.admitted");
        assert!(leaders > 0, "coalesced sweep must elect leaders");
        assert_eq!(
            leaders + followers,
            admitted,
            "every admitted request is served exactly once (leader xor follower)"
        );
        assert_eq!(
            labeled_counter_sum(&parsed, "serve.admitted.by_tenant"),
            admitted,
            "per-tenant admitted cells must sum to the global counter"
        );
        assert_eq!(
            labeled_counter_sum(&parsed, "serve.coalesce.followers.by_tenant"),
            followers,
            "per-tenant follower cells must sum to the global counter"
        );
        followers as f64 / leaders.max(1) as f64
    };

    print_table(
        "Fig 10(b) ×100 — serve-plane getTable, cache-miss storm",
        &["clients", "coalesced rps", "p99 ms", "uncoalesced rps", "p99 ms", "ratio"],
        &rows,
    );
    println!(
        "knee ratio (largest client count): {ratio_at_knee:.1}× — followers per leader {followers_per_leader:.1}"
    );
    assert!(
        ratio_at_knee >= 4.0,
        "coalescing gate: coalesced rps must be ≥ 4× uncoalesced at the knee \
         (got {ratio_at_knee:.1}×)"
    );

    println!("\nopen-loop replay at 100× the paper wall (1 M offered rps, virtual time)…");
    let (report, _) = replay_100x(100);
    println!("{}", report.canonical_text());
    assert!(report.shed > 0, "100× storm must exercise admission shedding");
    assert!(report.followers > 0, "100× storm must coalesce concurrent same-key reads");
}
