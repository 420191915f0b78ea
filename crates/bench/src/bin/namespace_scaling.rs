//! Namespace-scaling bench: the tree-encoded keyspace at 10⁴–10⁵ assets
//! per metastore (DESIGN.md §11).
//!
//! The paper's lakehouse populations put hundreds of thousands of
//! securables under one metastore; §6's listing and resolution latencies
//! hold only if those operations stay O(1) in database round trips
//! rather than O(result) in *point reads*. This bench bulk-loads a
//! namespace and measures listing (one range scan) and cold resolution
//! (one chain scan) against a database that charges one simulated round
//! trip (1 ms) per read and per scan, with writes free so bulk
//! population doesn't drown the measurement.
//!
//! Population goes through [`UnityCatalog::bulk_create_tables`] in
//! chunked commits (200-table schemas, one commit per schema), the same
//! write protocol production uses.
//!
//! Results append to `BENCH_tree.json` (one entry per `UC_BENCH_LABEL`;
//! entries recorded before the flat name index was deleted keep their
//! `legacy_*` fields as history). The acceptance gate is on database
//! operations per call, which are exact on a 1-core runner: a listing
//! costs ≤ 3 and a cold resolution ≤ 2 at every size. Quick mode
//! (`UC_BENCH_QUICK`) runs the 10⁵ point only and applies the same gate
//! as a CI regression tripwire, writing `BENCH_tree_quick.json` so smoke
//! runs never overwrite the canonical record.
//!
//! Environment knobs:
//!
//! * `UC_BENCH_LABEL` — label for this run's entry (default `run`);
//!   an existing entry with the same label is replaced.
//! * `UC_BENCH_QUICK` — CI sanity mode: the 10⁵ point only.
//! * `UC_BENCH_OUT`   — output path (default `BENCH_tree.json`, or
//!   `BENCH_tree_quick.json` in quick mode).

use std::time::Duration;

use serde::{Deserialize, Serialize};
use uc_bench::{mean_std_ms, print_table, time_it, World, WorldConfig};
use uc_catalog::service::crud::BulkSchemaSpec;
use uc_catalog::service::{UcConfig, UnityCatalog};
use uc_catalog::types::FullName;
use uc_cloudstore::LatencyModel;
use uc_delta::value::{DataType, Field, Schema};

/// Tables per schema: the population is `assets / TABLES_PER_SCHEMA`
/// schemas of this width under one catalog.
const TABLES_PER_SCHEMA: usize = 200;
/// Schemas sampled per listing measurement.
const LIST_SAMPLES: usize = 10;
/// Distinct qualified names resolved per cold-resolution measurement.
const RESOLVE_SAMPLES: usize = 50;

/// Gated ceilings on database operations (reads + scans) per call.
const MAX_LIST_OPS: f64 = 3.0;
const MAX_RESOLVE_OPS: f64 = 2.0;

/// The results file. Earlier runs are carried as raw JSON so entries
/// recorded against the deleted legacy layout survive a rewrite.
#[derive(Serialize, Deserialize, Default)]
struct BenchFile {
    bench: String,
    note: String,
    runs: Vec<serde_json::Value>,
}

/// One labelled run; every per-size vector is indexed like `assets`.
#[derive(Serialize)]
struct Run {
    label: String,
    quick: bool,
    /// Population sizes measured (securables under the metastore).
    assets: Vec<u64>,
    /// Mean latency of listing one 200-table schema.
    tree_list_ms: Vec<f64>,
    /// Database operations one listing costs — gated.
    tree_list_ops_per_call: Vec<f64>,
    /// Mean latency of cold-resolving a qualified table name on a fresh
    /// node (the chain privilege inheritance evaluates over).
    tree_resolve_ms: Vec<f64>,
    /// Database operations one cold resolution costs — gated.
    tree_resolve_ops_per_call: Vec<f64>,
    /// Wall-clock seconds spent bulk-loading to the final size.
    populate_s_tree: f64,
}

fn build_world() -> World {
    let world = World::build(&WorldConfig {
        // One simulated round trip per read and per scan; writes free so
        // population cost doesn't dominate, control ops free.
        db_latency_model: Some(LatencyModel::per_class(
            Duration::from_millis(1),
            Duration::ZERO,
            Duration::from_millis(1),
            Duration::ZERO,
        )),
        ..Default::default()
    });
    let ctx = world.admin();
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world
}

fn schema_name(i: usize) -> String {
    format!("s{i:05}")
}

/// Grow the world's `main` catalog from `from` to `to` schemas of
/// [`TABLES_PER_SCHEMA`] tables each, through the bulk import path.
fn populate(world: &World, from: usize, to: usize) -> Duration {
    let ctx = world.admin();
    let columns = Schema::new(vec![Field::new("x", DataType::Int)]);
    let specs: Vec<BulkSchemaSpec> = (from..to)
        .map(|s| BulkSchemaSpec {
            name: schema_name(s),
            tables: (0..TABLES_PER_SCHEMA).map(|t| format!("t{t}")).collect(),
        })
        .collect();
    let expected = specs.len() * (TABLES_PER_SCHEMA + 1);
    time_it(|| {
        let created = world
            .uc
            .bulk_create_tables(&ctx, &world.ms, "main", &specs, &columns, 2 * TABLES_PER_SCHEMA)
            .expect("bulk import succeeds");
        assert_eq!(created, expected, "bulk import must create every row");
    })
}

/// Mean listing latency over [`LIST_SAMPLES`] schemas spread across the
/// namespace, plus the database operations one listing costs.
fn measure_listing(world: &World, n_schemas: usize) -> (f64, f64) {
    let ctx = world.admin();
    let step = (n_schemas / LIST_SAMPLES).max(1);
    let mut samples = Vec::new();
    let reads0 = world.db.stats().reads();
    let scans0 = world.db.stats().scans();
    let mut calls = 0u64;
    for s in (0..n_schemas).step_by(step).take(LIST_SAMPLES) {
        let parent = FullName::parse(&format!("main.{}", schema_name(s))).unwrap();
        // Warm parent resolution so the measured call isolates the
        // listing itself (resolution is measured separately below).
        world.uc.get_securable(&ctx, &world.ms, &parent, "schema").unwrap();
        let mut listed = 0;
        samples.push(time_it(|| {
            listed = world
                .uc
                .list_children(&ctx, &world.ms, &parent, Some("relation"))
                .unwrap()
                .len();
        }));
        assert_eq!(listed, TABLES_PER_SCHEMA, "every schema holds the full table set");
        calls += 1;
    }
    let ops = (world.db.stats().reads() - reads0) + (world.db.stats().scans() - scans0);
    let (mean, _) = mean_std_ms(&samples);
    (mean, ops as f64 / calls as f64)
}

/// Cold-resolution cost: a fresh catalog node (empty cache) over the same
/// database resolves [`RESOLVE_SAMPLES`] distinct qualified names. Every
/// lookup is a first touch, so the database path — one chain scan — is
/// what's measured. The node's one-time reads (its metastore row and the
/// caller's principal record) are warmed first: they are per node, not
/// per resolution.
fn measure_resolution(world: &World, n_schemas: usize) -> (f64, f64) {
    let probe = UnityCatalog::new(
        world.db.clone(),
        world.store.clone(),
        UcConfig::default(),
        "probe",
    );
    let ctx = world.admin();
    probe.get_metastore(&world.ms).unwrap();
    probe.principal_groups(&ctx.principal).unwrap();
    let step = (n_schemas / RESOLVE_SAMPLES).max(1);
    let mut samples = Vec::new();
    let reads0 = world.db.stats().reads();
    let scans0 = world.db.stats().scans();
    let mut calls = 0u64;
    for s in (0..n_schemas).step_by(step).take(RESOLVE_SAMPLES) {
        let name = format!("main.{}.t{}", schema_name(s), s % TABLES_PER_SCHEMA);
        let mut got = String::new();
        samples.push(time_it(|| {
            got = probe.get_table(&ctx, &world.ms, &name).unwrap().name.clone();
        }));
        assert!(name.ends_with(&got));
        calls += 1;
    }
    let ops = (world.db.stats().reads() - reads0) + (world.db.stats().scans() - scans0);
    let (mean, _) = mean_std_ms(&samples);
    (mean, ops as f64 / calls as f64)
}

fn main() {
    let quick = std::env::var("UC_BENCH_QUICK").is_ok();
    let label = std::env::var("UC_BENCH_LABEL").unwrap_or_else(|_| "run".to_string());
    let default_out = if quick { "BENCH_tree_quick.json" } else { "BENCH_tree.json" };
    let out_path = std::env::var("UC_BENCH_OUT").unwrap_or_else(|_| default_out.to_string());
    // Population sizes in securables; 10⁵ is the gated point. Full mode
    // also measures 10⁴ so the scaling trend is in the record.
    let sizes: &[usize] = if quick { &[100_000] } else { &[10_000, 100_000] };

    let world = build_world();

    let mut run = Run {
        label: label.clone(),
        quick,
        assets: Vec::new(),
        tree_list_ms: Vec::new(),
        tree_list_ops_per_call: Vec::new(),
        tree_resolve_ms: Vec::new(),
        tree_resolve_ops_per_call: Vec::new(),
        populate_s_tree: 0.0,
    };
    let mut rows = Vec::new();
    let mut loaded = 0usize;
    for &assets in sizes {
        let n_schemas = assets / (TABLES_PER_SCHEMA + 1);
        println!("populating to {assets} assets ({n_schemas} schemas)…");
        run.populate_s_tree += populate(&world, loaded, n_schemas).as_secs_f64();
        loaded = n_schemas;

        let (list_ms, list_ops) = measure_listing(&world, n_schemas);
        let (resolve_ms, resolve_ops) = measure_resolution(&world, n_schemas);

        run.assets.push(assets as u64);
        run.tree_list_ms.push(list_ms);
        run.tree_list_ops_per_call.push(list_ops);
        run.tree_resolve_ms.push(resolve_ms);
        run.tree_resolve_ops_per_call.push(resolve_ops);
        rows.push(vec![
            assets.to_string(),
            format!("{list_ms:.2}"),
            format!("{list_ops:.2}"),
            format!("{resolve_ms:.2}"),
            format!("{resolve_ops:.2}"),
        ]);

        assert!(
            list_ops <= MAX_LIST_OPS,
            "acceptance gate: listing a schema must cost ≤ {MAX_LIST_OPS} db ops at \
             {assets} assets (got {list_ops:.2})"
        );
        assert!(
            resolve_ops <= MAX_RESOLVE_OPS,
            "acceptance gate: a cold resolution must cost ≤ {MAX_RESOLVE_OPS} db ops at \
             {assets} assets (got {resolve_ops:.2})"
        );
        println!(
            "gate passed at {assets} assets: list {list_ops:.2} ops (≤ {MAX_LIST_OPS}), \
             resolve {resolve_ops:.2} ops (≤ {MAX_RESOLVE_OPS})"
        );
    }

    print_table(
        &format!("namespace scaling — tree keyspace, label={label}"),
        &["assets", "list ms", "list ops", "resolve ms", "resolve ops"],
        &rows,
    );
    println!("populate: {:.1} s", run.populate_s_tree);

    let mut file: BenchFile = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_default();
    file.bench = "namespace_scaling".to_string();
    file.note = format!(
        "tree-encoded keyspace; {TABLES_PER_SCHEMA}-table schemas bulk-loaded under one \
         catalog; db charges 1ms per read and per scan, writes free. list = list_children \
         of one schema (parent resolution warmed); resolve = cold get_table on a fresh \
         node. ops = db reads+scans per call. gate: list ops ≤ {MAX_LIST_OPS}, resolve \
         ops ≤ {MAX_RESOLVE_OPS} at every size. legacy_* fields in older runs were \
         measured on the flat name index deleted since."
    );
    file.runs.retain(|r| r["label"].as_str() != Some(label.as_str()));
    file.runs.push(serde_json::to_value(run).expect("run serializes"));
    let json = serde_json::to_string_pretty(&file).expect("bench file serializes");
    std::fs::write(&out_path, json + "\n").expect("write bench file");
    println!("wrote {out_path}");
}
