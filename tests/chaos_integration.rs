//! Chaos suite: deterministic fault injection across the whole stack.
//!
//! Every test builds a world whose storage, STS, database, and catalog
//! all share one seeded [`FaultPlan`], arms a fault mode, drives a real
//! workload (life-of-a-query through the engine, or multi-node cache
//! coherence), and asserts the §4.5 invariants hold *under* the faults:
//! caches agree with the database, one asset per path, no lost or
//! duplicate writes, and bounded retries recover from transient failure.
//!
//! Determinism: the seed is printed at the start of every test
//! (`UC_CHAOS_SEED=<n>`); rerunning with that seed in the environment
//! reproduces the identical fault schedule, byte for byte — see
//! `same_seed_replays_identical_fault_schedule`.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use uc_catalog::cache::CacheConfig;
use uc_catalog::service::crud::{BulkSchemaSpec, TableSpec};
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::sharding::ShardRouter;
use uc_catalog::types::FullName;
use uc_cloudstore::faults::{points, FaultMode, FaultPlan};
use uc_cloudstore::{AccessLevel, Clock, LatencyModel, ObjectStore, StsService};
use uc_delta::value::{DataType, Field, Schema, Value};
use uc_engine::{Engine, EngineConfig};
use uc_obs::Obs;
use uc_txdb::{Db, DbConfig};

const ADMIN: &str = "admin";

/// A world whose every layer shares one fault plan, one manual clock, and
/// one observability handle (tracing live, timestamped from the virtual
/// clock, so span events replay under the same seed).
struct ChaosWorld {
    plan: FaultPlan,
    db: Db,
    store: ObjectStore,
    uc: Arc<UnityCatalog>,
    ms: uc_catalog::ids::Uid,
    obs: Obs,
}

/// Seed selection: `UC_CHAOS_SEED` env var if set (replay), otherwise the
/// test's own fixed default. The chosen seed is printed so a failing run
/// can be reproduced exactly.
fn chaos_seed(default: u64) -> u64 {
    let seed = std::env::var("UC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default);
    eprintln!("chaos: UC_CHAOS_SEED={seed} (set this env var to replay the fault schedule)");
    seed
}

fn chaos_world(seed: u64) -> ChaosWorld {
    let plan = FaultPlan::seeded(seed);
    let clock = Clock::manual(0);
    let obs_clock = clock.clone();
    let obs = Obs::with_clock_fn(Arc::new(move || obs_clock.now_ms()));
    let sts = StsService::new(clock).with_faults(plan.clone()).with_obs(obs.clone());
    let store = ObjectStore::with_faults(sts, LatencyModel::zero(), plan.clone())
        .with_obs(obs.clone());
    let db = Db::new(DbConfig { faults: plan.clone(), obs: obs.clone(), ..Default::default() });
    let uc = UnityCatalog::new(
        db.clone(),
        store.clone(),
        UcConfig { faults: plan.clone(), obs: obs.clone(), ..Default::default() },
        "node-0",
    );
    let ms = uc.create_metastore(ADMIN, "chaos", "us-west-2").unwrap();
    let ctx = Context::user(ADMIN);
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
    ChaosWorld { plan, db, store, uc, ms, obs }
}

/// A second catalog node over the same database and store, sharing the
/// same fault plan (the catalog points are per-config, so pass it again).
fn spawn_node(w: &ChaosWorld, id: &str) -> Arc<UnityCatalog> {
    UnityCatalog::new(
        w.db.clone(),
        w.store.clone(),
        UcConfig { faults: w.plan.clone(), ..Default::default() },
        id,
    )
}

/// A cache-disabled node: every read goes to the database, so its answers
/// are ground truth for cache≡DB equivalence checks.
fn truth_node(w: &ChaosWorld) -> Arc<UnityCatalog> {
    UnityCatalog::new(
        w.db.clone(),
        w.store.clone(),
        UcConfig { cache: CacheConfig::disabled(), ..Default::default() },
        "node-truth",
    )
}

fn int_schema() -> Schema {
    Schema::new(vec![Field::new("x", DataType::Int)])
}

/// Current metastore version straight from the database.
fn db_ms_version(w: &ChaosWorld) -> u64 {
    let rt = w.db.begin_read();
    uc_catalog::cache::read_ms_version(&rt, &w.ms)
}

// ---------------------------------------------------------------------
// Fault mode 1: storage-operation failures (Delta commit primitive)
// ---------------------------------------------------------------------

#[test]
fn storage_faults_cause_no_lost_or_duplicate_writes() {
    let seed = chaos_seed(0xD1CE);
    let w = chaos_world(seed);
    let engine = Engine::new(w.uc.clone(), w.ms.clone(), EngineConfig::trusted("dbr"));
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();

    // Fail ~30% of conditional writes — the atomic primitive every Delta
    // commit rides on.
    w.plan.arm(points::STORE_PUT_IF_ABSENT, FaultMode::Probability(0.3));

    let mut committed = BTreeSet::new();
    let mut failed = 0u32;
    for i in 0..40i64 {
        match s.execute(&format!("INSERT INTO main.s.t VALUES ({i})")) {
            Ok(_) => {
                committed.insert(i);
            }
            Err(e) => {
                // Fault surfaces as a storage error, not a panic or a
                // silent half-write.
                assert!(
                    e.to_string().contains("injected fault"),
                    "unexpected error shape: {e}"
                );
                failed += 1;
            }
        }
    }
    assert!(failed > 0, "p=0.3 over 40 commits must fail at least once");
    assert!(!committed.is_empty(), "p=0.3 over 40 commits must succeed at least once");
    assert!(w.plan.injected(points::STORE_PUT_IF_ABSENT) > 0);

    // Heal and read back: exactly the acknowledged writes are visible —
    // no lost writes, no duplicates, no phantom rows from failed commits.
    w.plan.disarm(points::STORE_PUT_IF_ABSENT);
    let result = s.execute("SELECT * FROM main.s.t").unwrap();
    let mut seen = Vec::new();
    for row in &result.rows {
        match &row[0] {
            Value::Int(v) => seen.push(*v),
            other => panic!("unexpected value {other:?}"),
        }
    }
    seen.sort_unstable();
    let expect: Vec<i64> = committed.iter().copied().collect();
    assert_eq!(seen, expect, "visible rows must be exactly the acknowledged inserts");
}

// ---------------------------------------------------------------------
// Fault mode 2: token expiry mid-scan → engine re-vends and retries
// ---------------------------------------------------------------------

#[test]
fn token_expiry_mid_scan_recovers_by_revending() {
    let seed = chaos_seed(0xE0F);
    let w = chaos_world(seed);
    let engine = Engine::new(w.uc.clone(), w.ms.clone(), EngineConfig::trusted("dbr"));
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
    // several commits → several files → several storage ops per scan
    for i in 0..5 {
        s.execute(&format!("INSERT INTO main.s.t VALUES ({i})")).unwrap();
    }

    // The first two token verifications fail as "expired", then heal:
    // the scan's first attempt dies, the engine re-vends a read token
    // through the catalog (full re-authorization) and retries.
    w.plan.arm(points::STS_VERIFY, FaultMode::FirstN(2));
    let result = s.execute("SELECT * FROM main.s.t").unwrap();
    assert_eq!(result.rows.len(), 5);
    assert_eq!(w.plan.injected(points::STS_VERIFY), 2, "both scheduled expiries fired");

    // An expiry landing *mid*-scan (after the snapshot was read) recovers
    // the same way: re-vend, rescan from the snapshot. A SELECT over an
    // unchanged table presents its token once (the listing), so one fresh
    // INSERT first gives this one three verifications: the listing, the
    // new commit, the new data file — the third (hit index 2, the last
    // there is) is the mid-scan one.
    s.execute("INSERT INTO main.s.t VALUES (5)").unwrap();
    w.plan.arm(points::STS_VERIFY, FaultMode::Schedule(vec![2]));
    let result = s.execute("SELECT * FROM main.s.t").unwrap();
    assert_eq!(result.rows.len(), 6);
    assert_eq!(w.plan.injected(points::STS_VERIFY), 1, "mid-scan expiry fired once");
    w.plan.disarm(points::STS_VERIFY);
}

// ---------------------------------------------------------------------
// Fault mode 3: commit-conflict storm + transient DB outages
// ---------------------------------------------------------------------

#[test]
fn commit_conflict_storm_is_absorbed_by_write_retries() {
    let seed = chaos_seed(0x57072);
    let w = chaos_world(seed);
    let ctx = Context::user(ADMIN);
    w.uc.create_catalog(&ctx, &w.ms, "main").unwrap();
    w.uc.create_schema(&ctx, &w.ms, "main", "s").unwrap();
    let ver_before = db_ms_version(&w);
    let retries_before = w.uc.service_stats().write_retries.load(Ordering::Relaxed);

    // Five consecutive injected serialization conflicts, then the storm
    // passes. The write protocol must retry through all of them.
    w.plan.arm(points::TXDB_COMMIT_CONFLICT, FaultMode::FirstN(5));
    w.uc.create_table(&ctx, &w.ms, TableSpec::managed("main.s.stormy", int_schema()).unwrap())
        .unwrap();
    w.plan.disarm(points::TXDB_COMMIT_CONFLICT);

    let retries_after = w.uc.service_stats().write_retries.load(Ordering::Relaxed);
    assert!(retries_after >= retries_before + 5, "each injected conflict costs one retry");
    assert!(
        w.uc.service_stats().write_backoff_ms.load(Ordering::Relaxed) > 0,
        "retries must back off"
    );
    // One logical write → exactly one version bump, despite six attempts.
    assert_eq!(db_ms_version(&w), ver_before + 1, "no duplicate application of the write");
    assert!(w.uc.get_table(&ctx, &w.ms, "main.s.stormy").is_ok());

    // The trace saw the storm happen, not just its end state: every
    // injected conflict left a span event at the txdb layer, every retry
    // left one at the catalog layer, and the injection itself is an event
    // on whatever span was active when it fired.
    assert_eq!(
        w.obs.count_events("txdb.conflict", Some("injected")),
        5,
        "one conflict event per injected serialization failure"
    );
    assert!(
        w.obs.count_events("write.retry", Some("cause=conflict")) >= 5,
        "one retry event per absorbed conflict"
    );
    assert!(
        w.obs.count_events("fault.injected", Some(points::TXDB_COMMIT_CONFLICT)) >= 5,
        "fault injections are visible in the trace"
    );
    // And the commit spans tell the same story: five conflicted, one ok.
    let jsonl = w.obs.trace_jsonl();
    let conflicted = jsonl
        .lines()
        .filter(|l| l.contains(r#""layer":"txdb""#))
        .count();
    assert!(conflicted > 0, "txdb spans present in the dump");
    assert!(jsonl.lines().any(|l| l.contains(r#""status":"conflict""#)));
}

#[test]
fn transient_db_unavailability_is_retried_with_backoff() {
    let seed = chaos_seed(0xDB0FF);
    let w = chaos_world(seed);
    let ctx = Context::user(ADMIN);
    w.uc.create_catalog(&ctx, &w.ms, "main").unwrap();
    w.uc.create_schema(&ctx, &w.ms, "main", "s").unwrap();

    // Both unavailability shapes: a pool-permit timeout and a backend
    // outage at commit. Each heals after two hits.
    w.plan.arm(points::TXDB_POOL_TIMEOUT, FaultMode::FirstN(2));
    w.plan.arm(points::TXDB_COMMIT_UNAVAILABLE, FaultMode::FirstN(2));
    let clock_before = w.uc.clock().now_ms();
    w.uc.create_table(&ctx, &w.ms, TableSpec::managed("main.s.flaky", int_schema()).unwrap())
        .unwrap();
    w.plan.disarm(points::TXDB_POOL_TIMEOUT);
    w.plan.disarm(points::TXDB_COMMIT_UNAVAILABLE);

    assert_eq!(w.plan.injected(points::TXDB_POOL_TIMEOUT), 2);
    assert_eq!(w.plan.injected(points::TXDB_COMMIT_UNAVAILABLE), 2);
    let backoff = w.uc.service_stats().write_backoff_ms.load(Ordering::Relaxed);
    assert!(backoff > 0, "unavailability retries must back off");
    // The backoff is virtual: it advanced the manual clock, no wall sleep.
    assert!(w.uc.clock().now_ms() >= clock_before + backoff);
    assert!(w.uc.get_table(&ctx, &w.ms, "main.s.flaky").is_ok());
}

#[test]
fn sustained_outage_fails_cleanly_and_heals() {
    let seed = chaos_seed(0xDEAD);
    let w = chaos_world(seed);
    let ctx = Context::user(ADMIN);
    w.uc.create_catalog(&ctx, &w.ms, "main").unwrap();
    w.uc.create_schema(&ctx, &w.ms, "main", "s").unwrap();
    let ver_before = db_ms_version(&w);

    // Outage longer than the retry bound: the write must fail with a
    // clean error, leave no partial state, and succeed once healed.
    w.plan.arm(points::TXDB_COMMIT_UNAVAILABLE, FaultMode::FirstN(1000));
    let err = w
        .uc
        .create_table(&ctx, &w.ms, TableSpec::managed("main.s.doomed", int_schema()).unwrap())
        .unwrap_err();
    assert!(err.to_string().contains("transient failures"), "clean abort error: {err}");
    assert_eq!(db_ms_version(&w), ver_before, "failed write must not bump the version");
    w.plan.disarm(points::TXDB_COMMIT_UNAVAILABLE);

    w.uc.create_table(&ctx, &w.ms, TableSpec::managed("main.s.doomed", int_schema()).unwrap())
        .unwrap();
    assert_eq!(db_ms_version(&w), ver_before + 1);
}

// ---------------------------------------------------------------------
// Fault mode 4: credential vending outage
// ---------------------------------------------------------------------

#[test]
fn vending_outage_degrades_gracefully_and_recovers() {
    let seed = chaos_seed(0x5E11);
    let w = chaos_world(seed);
    let engine = Engine::new(w.uc.clone(), w.ms.clone(), EngineConfig::trusted("dbr"));
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
    s.execute("INSERT INTO main.s.t VALUES (1)").unwrap();

    w.plan.arm(points::CATALOG_VEND, FaultMode::FirstN(1));
    let err = w
        .uc
        .temp_credentials(
            &Context::user(ADMIN),
            &w.ms,
            &FullName::parse("main.s.t").unwrap(),
            "relation",
            AccessLevel::Read,
        )
        .unwrap_err();
    assert!(err.to_string().contains("vending unavailable"), "graceful error: {err}");
    // Healed: the very next vend succeeds and the token works end to end.
    let tok = w
        .uc
        .temp_credentials(
            &Context::user(ADMIN),
            &w.ms,
            &FullName::parse("main.s.t").unwrap(),
            "relation",
            AccessLevel::Read,
        )
        .unwrap();
    assert!(w.store.sts().verify(&tok).is_ok());
    assert_eq!(s.execute("SELECT * FROM main.s.t").unwrap().rows.len(), 1);
}

// ---------------------------------------------------------------------
// Fault mode 5: multi-node cache coherence under node churn
// ---------------------------------------------------------------------

#[test]
fn cache_matches_database_under_node_churn_and_cache_faults() {
    let seed = chaos_seed(0xC0C0A);
    let w = chaos_world(seed);
    let ctx = Context::user(ADMIN);
    w.uc.create_catalog(&ctx, &w.ms, "main").unwrap();
    w.uc.create_schema(&ctx, &w.ms, "main", "s").unwrap();

    let node_b = spawn_node(&w, "node-b");
    let node_c = spawn_node(&w, "node-c");
    let mut router = ShardRouter::new(vec![w.uc.clone(), node_b.clone(), node_c.clone()]);

    // Nodes sometimes crash between DB commit and cache update, and
    // sometimes drop reconciliation passes entirely.
    w.plan.arm(points::CATALOG_CACHE_SKIP, FaultMode::Probability(0.4));
    w.plan.arm(points::CATALOG_RECONCILE_SKIP, FaultMode::EveryNth(2));

    let schema_name = FullName::parse("main.s").unwrap();
    for round in 0..12 {
        // write through whichever node currently owns the metastore
        let owner = router.node_for(&w.ms);
        owner
            .create_table(&ctx, &w.ms, TableSpec::managed(&format!("main.s.t{round}"), int_schema()).unwrap())
            .unwrap();
        owner
            .update_comment(&ctx, &w.ms, &FullName::parse(&format!("main.s.t{round}")).unwrap(), "relation", &format!("round {round}"))
            .unwrap();
        // interleave reads on every surviving node (warms caches, some of
        // which are now stale by injected fault)
        for node in router.nodes() {
            let _ = node.list_children(&ctx, &w.ms, &schema_name, None).unwrap();
        }
        // node churn: every 4th round the owner dies; every 6th a node
        // rejoins cold
        if round % 4 == 3 {
            let dead = owner.node_id().to_string();
            router.remove_node(&dead);
        }
        if round % 6 == 5 {
            router.add_node(spawn_node(&w, &format!("node-r{round}")));
        }
        // reconciliation keeper runs on every node — some passes are
        // dropped by the armed fault
        for node in router.nodes() {
            node.reconcile_metastore(&w.ms);
        }
    }
    assert!(w.plan.injected(points::CATALOG_CACHE_SKIP) > 0, "cache-skip fault must fire");
    assert!(w.plan.injected(points::CATALOG_RECONCILE_SKIP) > 0, "reconcile-skip fault must fire");

    // Heal, reconcile once for real, and check cache≡DB on every node.
    w.plan.disarm(points::CATALOG_CACHE_SKIP);
    w.plan.disarm(points::CATALOG_RECONCILE_SKIP);
    let truth = truth_node(&w);
    let db_tables = truth.list_children(&ctx, &w.ms, &schema_name, None).unwrap();
    assert_eq!(db_tables.len(), 12, "every acknowledged create is durable");
    for node in router.nodes() {
        node.reconcile_metastore(&w.ms);
        let cached = node.list_children(&ctx, &w.ms, &schema_name, None).unwrap();
        assert_eq!(cached.len(), db_tables.len(), "node {} agrees on count", node.node_id());
        for t in &db_tables {
            let via_cache = node
                .get_table(&ctx, &w.ms, &format!("main.s.{}", t.name))
                .unwrap();
            assert_eq!(via_cache.id, t.id, "node {} id for {}", node.node_id(), t.name);
            assert_eq!(via_cache.comment, t.comment, "node {} comment for {}", node.node_id(), t.name);
        }
    }

    // One-asset-per-path still holds over the raw path index.
    let rt = w.db.begin_read();
    let all = uc_catalog::model::paths::all_paths(&rt, &w.ms);
    for (i, (p1, _)) in all.iter().enumerate() {
        for (p2, _) in &all[i + 1..] {
            assert!(!p1.overlaps(p2), "{p1} overlaps {p2}");
        }
    }
}

// ---------------------------------------------------------------------
// Fault mode 6: bulk-loaded 10⁵-asset namespace under a fault storm
// ---------------------------------------------------------------------

/// Bulk-import a six-figure namespace through the chunked write path
/// while commits randomly conflict, the backend flickers, and the
/// write-through cache drops updates — then verify the namespace came
/// out exactly right: every acknowledged row durable, a mid-storm
/// subtree drop cascades exactly once, and the cache agrees with the
/// database after one reconcile pass.
#[test]
fn bulk_namespace_survives_fault_storm() {
    let seed = chaos_seed(0xB1_6B16);
    let w = chaos_world(seed);
    let ctx = Context::user(ADMIN);
    w.uc.create_catalog(&ctx, &w.ms, "main").unwrap();

    // 10⁵ assets in release; debug builds shrink the population so plain
    // `cargo test` stays fast. `UC_CHAOS_ASSETS` overrides both.
    let assets: usize = std::env::var("UC_CHAOS_ASSETS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 20_000 } else { 100_000 });
    const TABLES_PER_SCHEMA: usize = 200;
    let n_schemas = (assets / (TABLES_PER_SCHEMA + 1)).max(2);
    let specs: Vec<BulkSchemaSpec> = (0..n_schemas)
        .map(|s| BulkSchemaSpec {
            name: format!("s{s:05}"),
            tables: (0..TABLES_PER_SCHEMA).map(|t| format!("t{t}")).collect(),
        })
        .collect();

    // The storm: serialization conflicts and transient outages hit the
    // chunked commits (each absorbed by the bounded write retry), while
    // the write-through cache drops a third of its updates.
    w.plan.arm(points::TXDB_COMMIT_CONFLICT, FaultMode::Probability(0.05));
    w.plan.arm(points::TXDB_COMMIT_UNAVAILABLE, FaultMode::Probability(0.02));
    w.plan.arm(points::CATALOG_CACHE_SKIP, FaultMode::Probability(0.3));

    let created = w
        .uc
        .bulk_create_tables(&ctx, &w.ms, "main", &specs, &int_schema(), 2 * TABLES_PER_SCHEMA)
        .unwrap();
    assert_eq!(created, n_schemas * (TABLES_PER_SCHEMA + 1), "every row acknowledged");

    // Mid-storm subtree drop: one schema and its whole table set go away
    // in a single cascading write, retried through whatever it hits.
    let victim = FullName::parse("main.s00001").unwrap();
    let dropped = w.uc.drop_securable(&ctx, &w.ms, &victim, "schema").unwrap();
    assert_eq!(dropped, TABLES_PER_SCHEMA + 1, "cascade covers the schema and its tables");

    assert!(w.plan.injected(points::TXDB_COMMIT_CONFLICT) > 0, "conflict storm must fire");
    assert!(w.plan.injected(points::CATALOG_CACHE_SKIP) > 0, "cache-skip fault must fire");
    w.plan.disarm(points::TXDB_COMMIT_CONFLICT);
    w.plan.disarm(points::TXDB_COMMIT_UNAVAILABLE);
    w.plan.disarm(points::CATALOG_CACHE_SKIP);

    // Ground truth from a cache-disabled node: exactly the surviving
    // schemas remain, and nothing under the dropped one resolves.
    let truth = truth_node(&w);
    let cat = FullName::parse("main").unwrap();
    let db_schemas = truth.list_children(&ctx, &w.ms, &cat, None).unwrap();
    assert_eq!(db_schemas.len(), n_schemas - 1, "one schema dropped, the rest durable");
    assert!(truth.get_securable(&ctx, &w.ms, &victim, "schema").is_err());
    assert!(truth.get_table(&ctx, &w.ms, "main.s00001.t0").is_err());

    // Cache ≡ DB after one reconcile, sampled across the namespace.
    w.uc.reconcile_metastore(&w.ms);
    for s in (0..n_schemas).step_by((n_schemas / 7).max(1)) {
        if s == 1 {
            continue; // the dropped schema
        }
        let parent = FullName::parse(&format!("main.s{s:05}")).unwrap();
        let cached = w.uc.list_children(&ctx, &w.ms, &parent, None).unwrap();
        assert_eq!(cached.len(), TABLES_PER_SCHEMA, "schema s{s:05} table count");
        let name = format!("main.s{s:05}.t{}", s % TABLES_PER_SCHEMA);
        let via_cache = w.uc.get_table(&ctx, &w.ms, &name).unwrap();
        let via_db = truth.get_table(&ctx, &w.ms, &name).unwrap();
        assert_eq!(via_cache.id, via_db.id, "cache and db disagree on {name}");
    }
    assert!(w.uc.get_table(&ctx, &w.ms, "main.s00001.t0").is_err());
}

// ---------------------------------------------------------------------
// Determinism: the same seed replays the same fault schedule
// ---------------------------------------------------------------------

#[test]
fn same_seed_replays_identical_fault_schedule() {
    // The whole value of the plane: a failing chaos run prints its seed,
    // and rerunning with that seed injects the identical schedule.
    let run = |seed: u64| {
        let w = chaos_world(seed);
        let engine = Engine::new(w.uc.clone(), w.ms.clone(), EngineConfig::trusted("dbr"));
        let mut s = engine.session(ADMIN);
        s.execute("CREATE CATALOG main").unwrap();
        s.execute("CREATE SCHEMA main.s").unwrap();
        s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
        w.plan.arm(points::STORE_PUT_IF_ABSENT, FaultMode::Probability(0.25));
        w.plan.arm(points::TXDB_COMMIT_CONFLICT, FaultMode::Probability(0.2));
        let mut outcomes = Vec::new();
        for i in 0..25i64 {
            outcomes.push(s.execute(&format!("INSERT INTO main.s.t VALUES ({i})")).is_ok());
            let _ = w.uc.update_comment(
                &Context::user(ADMIN),
                &w.ms,
                &FullName::parse("main.s.t").unwrap(),
                "relation",
                &format!("c{i}"),
            );
        }
        (w.plan.injection_log(), outcomes)
    };
    let (log1, outcomes1) = run(777);
    let (log2, outcomes2) = run(777);
    assert!(!log1.is_empty(), "the schedule must actually inject");
    assert_eq!(log1, log2, "same seed → identical injection log");
    assert_eq!(outcomes1, outcomes2, "same seed → identical workload outcomes");
    let (log3, _) = run(778);
    assert_ne!(log1, log3, "different seed → different schedule");
}
