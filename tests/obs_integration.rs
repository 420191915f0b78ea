//! Observability-plane integration suite.
//!
//! The contract under test (DESIGN.md §6): with every layer sharing one
//! `Obs` handle, one seeded fault plan, and one manual clock, telemetry
//! is *replayable* — two identical runs emit byte-identical trace dumps
//! and metrics snapshots — and *joined* — spans nest across layers under
//! one trace ID, audit records carry that trace ID, and fault injections
//! and retries appear as span events, not just mutated end-state.

use std::sync::Arc;

use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::rest::{RequestAuth, RestApi};
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::types::FullName;
use uc_cloudstore::faults::{points, FaultMode, FaultPlan};
use uc_cloudstore::{Clock, LatencyModel, ObjectStore, StsService};
use uc_delta::value::{DataType, Field, Schema};
use uc_engine::{Engine, EngineConfig};
use uc_obs::Obs;
use uc_txdb::{Db, DbConfig};

const ADMIN: &str = "admin";

struct ObservedWorld {
    plan: FaultPlan,
    uc: Arc<UnityCatalog>,
    ms: uc_catalog::ids::Uid,
    obs: Obs,
}

/// Every layer shares one fault plan, one manual clock, and one traced
/// `Obs` handle — the replayable-telemetry configuration.
fn observed_world(seed: u64) -> ObservedWorld {
    let plan = FaultPlan::seeded(seed);
    let clock = Clock::manual(0);
    let obs_clock = clock.clone();
    let obs = Obs::with_clock_fn(Arc::new(move || obs_clock.now_ms()));
    let sts = StsService::new(clock).with_faults(plan.clone()).with_obs(obs.clone());
    let store = ObjectStore::with_faults(sts, LatencyModel::zero(), plan.clone())
        .with_obs(obs.clone());
    let db = Db::new(DbConfig { faults: plan.clone(), obs: obs.clone(), ..Default::default() });
    let uc = UnityCatalog::new(
        db,
        store.clone(),
        UcConfig { faults: plan.clone(), obs: obs.clone(), ..Default::default() },
        "node-0",
    );
    let ms = uc.create_metastore(ADMIN, "obs", "us-west-2").unwrap();
    let ctx = Context::user(ADMIN);
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
    ObservedWorld { plan, uc, ms, obs }
}

fn int_schema() -> Schema {
    Schema::new(vec![Field::new("x", DataType::Int)])
}

/// A fault-heavy workload whose telemetry must replay exactly: engine DML
/// under probabilistic storage/commit faults, then a conflict storm.
/// Returns (trace jsonl, metrics snapshot, frozen flight dump, Chrome trace).
fn run_chaos_workload(seed: u64) -> (String, String, String, String) {
    let w = observed_world(seed);
    let engine = Engine::new(w.uc.clone(), w.ms.clone(), EngineConfig::trusted("dbr"));
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
    w.plan.arm(points::STORE_PUT_IF_ABSENT, FaultMode::Probability(0.25));
    w.plan.arm(points::TXDB_COMMIT_CONFLICT, FaultMode::Probability(0.2));
    for i in 0..15i64 {
        let _ = s.execute(&format!("INSERT INTO main.s.t VALUES ({i})"));
    }
    w.plan.disarm(points::STORE_PUT_IF_ABSENT);
    w.plan.disarm(points::TXDB_COMMIT_CONFLICT);
    let _ = s.execute("SELECT * FROM main.s.t").unwrap();
    let flight = w.obs.flight_jsonl().unwrap_or_default();
    let chrome = w.obs.flight_chrome_trace().unwrap_or_default();
    (w.obs.trace_jsonl(), w.obs.metrics_snapshot(), flight, chrome)
}

#[test]
fn same_seed_runs_emit_byte_identical_telemetry() {
    let (trace1, metrics1, flight1, chrome1) = run_chaos_workload(424242);
    let (trace2, metrics2, flight2, chrome2) = run_chaos_workload(424242);
    assert!(!trace1.is_empty() && trace1.lines().count() > 50, "the trace is substantial");
    assert_eq!(trace1, trace2, "same seed → byte-identical trace dump");
    assert_eq!(metrics1, metrics2, "same seed → byte-identical metrics snapshot");

    // The workload injects faults, so the flight recorder auto-froze; the
    // frozen ring (content-sorted merge, no lane/arrival leakage) and its
    // Chrome-trace export must replay byte-identically too.
    assert!(
        flight1.starts_with(r#"{"flight":"frozen","reason":"fault.injected"#),
        "fault injection must auto-freeze the flight recorder: {flight1}"
    );
    assert_eq!(flight1, flight2, "same seed → byte-identical flight dump");
    assert_eq!(chrome1, chrome2, "same seed → byte-identical Chrome trace");

    let (trace3, ..) = run_chaos_workload(99);
    assert_ne!(trace1, trace3, "different seed → different trace");
}

#[test]
fn explicit_flight_freeze_captures_audit_trail_and_serves_over_rest() {
    let w = observed_world(5);
    let ctx = Context::user(ADMIN);
    w.uc.create_catalog(&ctx, &w.ms, "main").unwrap();
    w.uc.create_schema(&ctx, &w.ms, "main", "s").unwrap();
    w.uc.create_table(&ctx, &w.ms, TableSpec::managed("main.s.t", int_schema()).unwrap())
        .unwrap();

    // No faults ran, so nothing auto-froze; an explicit freeze snapshots
    // the per-thread rings on demand, and the audit feed is in them.
    assert!(w.obs.flight_jsonl().is_none(), "no auto-freeze without faults");
    let dump = w.uc.flight_freeze("operator.request");
    assert!(
        dump.starts_with(r#"{"flight":"frozen","reason":"operator.request""#),
        "explicit freeze carries its reason: {dump}"
    );
    assert!(
        dump.lines().any(|l| l.contains(r#""kind":"audit","name":"createTable""#)),
        "audit decisions feed the recorder:\n{dump}"
    );

    // The REST surface serves the already-frozen dump plus the
    // Chrome-trace rendering of the same events.
    let api = RestApi::new(w.uc.clone());
    let admin = RequestAuth::user(ADMIN);
    let resp = api
        .handle(&admin, &w.ms, "metrics.flightrecorder", &serde_json::json!({}))
        .unwrap();
    assert_eq!(resp["jsonl"].as_str().unwrap(), dump, "REST serves the frozen dump");
    let chrome = resp["chrome_trace"].as_str().unwrap();
    assert!(
        chrome.starts_with('[') && chrome.contains(r#""ph":"i""#),
        "chrome trace is a JSON array of events: {chrome}"
    );
}

#[test]
fn spans_nest_across_layers_under_one_trace() {
    let w = observed_world(1);
    let ctx = Context::user(ADMIN);
    let api_calls = || w.obs.counter("catalog.api.calls").get();
    let get_metastore_calls = w.obs.counter("catalog.get_metastore.count").get();
    let calls_0 = api_calls();
    w.uc.create_catalog(&ctx, &w.ms, "main").unwrap();
    let calls_1 = api_calls();
    w.uc.create_schema(&ctx, &w.ms, "main", "s").unwrap();
    w.obs.tracer().clear();
    let calls_2 = api_calls();
    w.uc.create_table(&ctx, &w.ms, TableSpec::managed("main.s.t", int_schema()).unwrap())
        .unwrap();
    // One request is one API entry: neither the metastore-level privilege
    // check nor the managed-path allocation re-enters `get_metastore`.
    assert_eq!((calls_1 - calls_0) + (api_calls() - calls_2), 2, "create_catalog + create_table");
    assert_eq!(w.obs.counter("catalog.get_metastore.count").get(), get_metastore_calls);
    let jsonl = w.obs.trace_jsonl();

    // The catalog entry point opened a root span; find its trace ID.
    let root = jsonl
        .lines()
        .find(|l| l.contains(r#""layer":"catalog","name":"create_table""#))
        .expect("create_table root span in the dump");
    let trace_key = root
        .split(r#""trace":"#)
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .unwrap()
        .to_string();
    // The database layer joined the *same* trace: the commit runs as a
    // child span, not a fresh root.
    assert!(
        jsonl
            .lines()
            .any(|l| l.contains(r#""layer":"txdb""#)
                && l.contains(&format!(r#""trace":{trace_key},"#))),
        "txdb span missing from trace {trace_key}:\n{jsonl}"
    );

    // Same story one flow over: a credential vend nests the STS mint
    // under the catalog entry point's trace.
    w.obs.tracer().clear();
    w.uc.temp_credentials(
        &ctx,
        &w.ms,
        &FullName::parse("main.s.t").unwrap(),
        "relation",
        uc_cloudstore::AccessLevel::Read,
    )
    .unwrap();
    let jsonl = w.obs.trace_jsonl();
    let vend_root = jsonl
        .lines()
        .find(|l| l.contains(r#""layer":"catalog","name":"temp_credentials""#))
        .expect("temp_credentials root span");
    let vend_trace = vend_root
        .split(r#""trace":"#)
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .unwrap()
        .to_string();
    assert!(
        jsonl
            .lines()
            .any(|l| l.contains(r#""layer":"sts","name":"mint""#)
                && l.contains(&format!(r#""trace":{vend_trace},"#))),
        "sts mint span missing from vend trace {vend_trace}:\n{jsonl}"
    );
}

#[test]
fn mid_scan_renewals_are_audited_with_trace_ids() {
    let w = observed_world(2);
    let engine = Engine::new(w.uc.clone(), w.ms.clone(), EngineConfig::trusted("dbr"));
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
    for i in 0..3 {
        s.execute(&format!("INSERT INTO main.s.t VALUES ({i})")).unwrap();
    }

    // Expire the first two token verifications: the engine re-vends
    // mid-scan through `renew_read_credential`.
    w.plan.arm(points::STS_VERIFY, FaultMode::FirstN(2));
    let result = s.execute("SELECT * FROM main.s.t").unwrap();
    w.plan.disarm(points::STS_VERIFY);
    assert_eq!(result.rows.len(), 3);

    // The renewal is a first-class audited action (the pre-fix gap), and
    // the record joins back to the trace of the scan that triggered it.
    let renewals = w.uc.audit_log().query(|r| r.action == "renewTemporaryCredentials");
    assert!(!renewals.is_empty(), "renewals must be audited like initial vends");
    for r in &renewals {
        assert_eq!(r.principal, ADMIN);
        assert!(r.trace_id.is_some(), "renewal audit record must carry its trace ID");
    }
    // The renewal is also visible as a span event on the scan span.
    assert!(w.obs.count_events("engine.credential_renew", None) >= 1);
    // And the initial vends are audited under the standard action name.
    assert!(
        !w.uc.audit_log().query(|r| r.action == "generateTemporaryCredentials").is_empty()
    );
}

#[test]
fn rest_metrics_accessor_exposes_every_layer() {
    let w = observed_world(3);
    let api = RestApi::new(w.uc.clone());
    let admin = RequestAuth::user(ADMIN);
    api.handle(&admin, &w.ms, "catalogs.create", &serde_json::json!({"name": "main"}))
        .unwrap();
    let text = api.metrics();
    assert!(text.starts_with("# uc-obs metrics snapshot"));
    for needle in ["catalog.api.calls", "rest.catalogs.create.count", "txdb.commit.count"] {
        assert!(text.contains(needle), "{needle} missing:\n{text}");
    }
    // One registry behind both doors: the REST accessor and the service
    // accessor serve the same bytes.
    assert_eq!(text, w.uc.metrics_snapshot());
}

/// Run a fixed read-heavy workload with `threads` concurrent clients and
/// return the canonical audit text (uid-normalized) plus the metrics
/// snapshot. The world is deterministic — reseeded RNG, manual clock
/// frozen at 0, trace IDs pinned per logical op — so the *content* of
/// both artifacts is a pure function of the workload, and the thread
/// count only changes interleaving, which the sharded audit merge and the
/// striped counter folds must erase.
fn thread_variant_snapshot(threads: usize) -> (String, String) {
    const SEED: u64 = 991;
    const TABLES: usize = 8;
    const OPS_PER_THREAD: u64 = 12;
    // Pinned trace IDs start above 2^32 so they can't collide with the
    // tracer's sequential allocator.
    const BASE: u64 = 1 << 40;
    uc_cloudstore::seed::reseed(SEED);
    let w = observed_world(SEED);
    let ctx = Context::user(ADMIN);
    w.uc.create_catalog(&ctx, &w.ms, "main").unwrap();
    w.uc.create_schema(&ctx, &w.ms, "main", "s").unwrap();
    let names: Vec<String> = (0..TABLES).map(|i| format!("main.s.t{i}")).collect();
    for name in &names {
        w.uc
            .create_table(&ctx, &w.ms, TableSpec::managed(name, int_schema()).unwrap())
            .unwrap();
        w.uc.get_table(&ctx, &w.ms, name).unwrap(); // warm the cache
    }

    // Concurrent read-only phase. The total op set {(t, k)} is fixed;
    // `threads` only controls how it is distributed over OS threads, and
    // each op pins its own trace ID so the canonical merge key
    // (timestamp, trace) is identical across distributions.
    let total_ops = 16u64; // divisible by 1, 4, and 16
    let per_thread = total_ops / threads as u64 * OPS_PER_THREAD;
    std::thread::scope(|scope| {
        for t in 0..threads as u64 {
            let uc = w.uc.clone();
            let ms = w.ms.clone();
            let obs = w.obs.clone();
            let ctx = ctx.clone();
            let names = &names;
            scope.spawn(move || {
                for k in 0..per_thread {
                    let op = t * per_thread + k; // globally unique op index
                    let _span = obs.span_pinned("bench", "get_table", BASE + op);
                    uc.get_table(&ctx, &ms, &names[op as usize % TABLES]).unwrap();
                }
            });
        }
    });

    let audit = normalize_uids(&w.uc.audit_log().canonical_text());
    let metrics = w.uc.metrics_snapshot();
    (audit, metrics)
}

/// Replace each 32-hex uid token by its first-appearance index. Parallel
/// tests in this binary share the process-global seed stream, so uids can
/// differ between two otherwise-identical worlds; ordering cannot (the
/// canonical merge key never involves uids), which is exactly what the
/// normalized text checks.
fn normalize_uids(text: &str) -> String {
    let mut map: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    let mut out = String::with_capacity(text.len());
    let mut token = String::new();
    let flush = |token: &mut String,
                 out: &mut String,
                 map: &mut std::collections::HashMap<String, usize>| {
        if token.len() == 32 && token.chars().all(|c| c.is_ascii_hexdigit()) {
            let next = map.len();
            let id = *map.entry(token.clone()).or_insert(next);
            out.push_str(&format!("uid{id}"));
        } else {
            out.push_str(token);
        }
        token.clear();
    };
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            token.push(c);
        } else {
            flush(&mut token, &mut out, &mut map);
            out.push(c);
        }
    }
    flush(&mut token, &mut out, &mut map);
    out
}

/// The byte-stability contract for the sharded hot path: the canonical
/// audit log and the metrics snapshot must be byte-identical whether the
/// fixed workload ran on 1, 4, or 16 threads. Lane placement, flush
/// batching, and counter-stripe placement are all erased by the merge and
/// the folds.
#[test]
fn audit_and_metrics_are_byte_stable_across_thread_counts() {
    let (audit1, metrics1) = thread_variant_snapshot(1);
    let (audit4, metrics4) = thread_variant_snapshot(4);
    let (audit16, metrics16) = thread_variant_snapshot(16);

    assert!(audit1.lines().count() > 100, "the audit log is substantial");
    assert_eq!(audit1, audit4, "audit canonical text: 1-thread vs 4-thread");
    assert_eq!(audit1, audit16, "audit canonical text: 1-thread vs 16-thread");
    assert_eq!(metrics1, metrics4, "metrics snapshot: 1-thread vs 4-thread");
    assert_eq!(metrics1, metrics16, "metrics snapshot: 1-thread vs 16-thread");

    // The snapshots above include the dimensional plane, so the equality
    // already proves the labeled series are thread-count-invariant; pin
    // down that they are actually *present* (with the metastore alias,
    // not a uid) so the assertion can't pass vacuously.
    assert!(
        metrics1.contains("catalog.get_securable.count.by_tenant{t=obs,p=admin}"),
        "per-tenant getTable series must be in the snapshot:\n{metrics1}"
    );
    assert!(
        metrics1.contains("txdb.commit.count.by_tenant{t=obs,p=admin}"),
        "per-tenant commit series must be in the snapshot:\n{metrics1}"
    );
}

#[test]
fn write_retry_backoff_lands_in_latency_histograms() {
    let w = observed_world(4);
    let ctx = Context::user(ADMIN);
    w.uc.create_catalog(&ctx, &w.ms, "main").unwrap();
    w.uc.create_schema(&ctx, &w.ms, "main", "s").unwrap();
    // Five injected conflicts force five backoffs; the manual clock
    // advances under the open create_table span, so the virtual duration
    // lands in the operation's latency histogram.
    w.plan.arm(points::TXDB_COMMIT_CONFLICT, FaultMode::FirstN(5));
    w.uc.create_table(&ctx, &w.ms, TableSpec::managed("main.s.t", int_schema()).unwrap())
        .unwrap();
    w.plan.disarm(points::TXDB_COMMIT_CONFLICT);
    let h = w.obs.histogram("catalog.create_table.latency_ms");
    assert_eq!(h.count(), 1);
    assert!(h.sum() > 0, "virtual backoff time must be attributed to the operation");
    assert_eq!(h.sum(), h.max(), "single sample: sum == max");
    assert!(
        w.uc.service_stats().write_backoff_ms.load(std::sync::atomic::Ordering::Relaxed)
            >= h.sum(),
        "histogram duration is bounded by the recorded backoff"
    );
}
