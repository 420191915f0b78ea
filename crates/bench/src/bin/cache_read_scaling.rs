//! Read-scaling bench for the metadata cache: cached vs uncached
//! `getTable` throughput as the client thread count grows.
//!
//! Fig 10(b) sweeps 1→64 clients and credits the write-through cache
//! (§4.5) with the throughput headroom; this bench tracks how the *cached*
//! path itself scales with threads — the dimension that regresses when a
//! shared lock serializes cache hits. Results are appended to
//! `BENCH_cache.json` (one entry per `UC_BENCH_LABEL`), so the perf
//! trajectory of the read path is recorded across commits. Each run also
//! records a perfect-scaling reference line (1-thread cached rps × N) so
//! the distance to linear is visible in the record, not just in a reader's
//! head.
//!
//! The harness itself must not serialize the sweep: workers derive which
//! table to hit from their own (worker, iteration) coordinates via
//! `closed_loop_indexed` — no shared "next request" counter — and request
//! names are precomputed so the measured region holds no allocation.
//!
//! Environment knobs:
//!
//! * `UC_BENCH_LABEL`  — label for this run's entry (default `run`);
//!   an existing entry with the same label is replaced.
//! * `UC_BENCH_QUICK`  — when set, a short CI mode: fewer thread counts,
//!   shorter duration.
//! * `UC_BENCH_HOP_MS` — engine→catalog network hop in milliseconds
//!   (default 0). With a hop, a cached read is latency-bound and threads
//!   overlap their waits, so throughput scales with threads even on one
//!   core — the configuration the CI scaling-ratio gate runs: in quick
//!   mode a nonzero hop sweeps [1, 32] and asserts 32-thread cached rps
//!   ≥ 8× 1-thread (a knee from a shared exclusive lock on the hit path
//!   caps the ratio near 1 regardless of core count).
//! * `UC_BENCH_OUT`    — output path (default `BENCH_cache.json`, or
//!   `BENCH_cache_quick.json` in quick mode so CI smoke runs never
//!   overwrite the canonical record).
//!
//! The world models the paper's setup: a bounded database pool with a
//! per-read round trip (pool=8, 1 ms), standing in for the remote OLTP
//! instance. The default zero-hop configuration isolates the in-process
//! cache path so lock contention is what dominates a cached hit.

use std::time::Duration;

use serde::{Deserialize, Serialize};
use uc_bench::{closed_loop_indexed, print_table, World, WorldConfig};
use uc_catalog::service::crud::TableSpec;
use uc_delta::value::{DataType, Field, Schema};

const TABLES: usize = 100;

#[derive(Serialize, Deserialize, Default)]
struct BenchFile {
    bench: String,
    note: String,
    runs: Vec<Run>,
}

/// One labelled run. The trailing fields are `Option` so entries written
/// before they existed still deserialize (the JSON shim reads a missing
/// field as null).
#[derive(Serialize, Deserialize)]
struct Run {
    label: String,
    quick: bool,
    threads: Vec<u64>,
    cached_rps: Vec<f64>,
    cached_mean_us: Vec<f64>,
    cached_p99_us: Vec<f64>,
    uncached_rps: Vec<f64>,
    hit_rate: f64,
    /// Host cores the run had (`available_parallelism`); scaling numbers
    /// from a 1-core host are latency-bound, not CPU-bound.
    cores: Option<u64>,
    /// Engine→catalog hop (`UC_BENCH_HOP_MS`) in effect.
    api_hop_ms: Option<f64>,
    /// Perfect-scaling reference: 1-thread cached rps × N per point.
    perfect_scaling_rps: Option<Vec<f64>>,
}

fn build(cache: bool, hop_ms: u64) -> World {
    let world = World::build(&WorldConfig {
        db_pool: 8,
        db_latency: Duration::from_millis(1),
        api_latency: Duration::from_millis(hop_ms),
        cache,
        ..Default::default()
    });
    let ctx = world.admin();
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    for i in 0..TABLES {
        world
            .uc
            .create_table(
                &ctx,
                &world.ms,
                TableSpec::managed(&format!("main.s.t{i}"), schema.clone()).unwrap(),
            )
            .unwrap();
    }
    world
}

fn table_names() -> Vec<String> {
    (0..TABLES).map(|i| format!("main.s.t{i}")).collect()
}

fn sweep(world: &World, names: &[String], threads: usize, duration: Duration) -> uc_bench::LoadSummary {
    let ctx = world.admin();
    closed_loop_indexed(threads, duration, |worker, iter| {
        // Stride by a prime so each worker walks its own permutation of
        // the table set; no cross-thread state is involved.
        let i = (worker * 31 + iter as usize * 7) % TABLES;
        world.uc.get_table(&ctx, &world.ms, &names[i]).unwrap();
    })
}

fn main() {
    let quick = std::env::var("UC_BENCH_QUICK").is_ok();
    let label = std::env::var("UC_BENCH_LABEL").unwrap_or_else(|_| "run".to_string());
    let hop_ms: u64 = std::env::var("UC_BENCH_HOP_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    // Quick mode is a CI sanity gate; keep its short-duration points out
    // of the canonical record unless an output path is given explicitly.
    let default_out = if quick { "BENCH_cache_quick.json" } else { "BENCH_cache.json" };
    let out_path = std::env::var("UC_BENCH_OUT").unwrap_or_else(|_| default_out.to_string());
    let thread_counts: &[usize] = match (quick, hop_ms > 0) {
        (true, false) => &[1, 8],
        (true, true) => &[1, 32], // the CI scaling-ratio gate's two points
        (false, _) => &[1, 2, 4, 8, 16, 32],
    };
    let duration = if quick {
        Duration::from_millis(200)
    } else {
        Duration::from_millis(400)
    };

    println!("building cached and uncached worlds ({TABLES} tables each, hop={hop_ms} ms)…");
    let cached = build(true, hop_ms);
    let uncached = build(false, hop_ms);
    let names = table_names();
    // Warm the cached node deterministically: one pass over every table,
    // so the sweeps measure steady-state hits regardless of duration.
    {
        let ctx = cached.admin();
        for name in &names {
            cached.uc.get_table(&ctx, &cached.ms, name).unwrap();
        }
    }

    let mut run = Run {
        label: label.clone(),
        quick,
        threads: Vec::new(),
        cached_rps: Vec::new(),
        cached_mean_us: Vec::new(),
        cached_p99_us: Vec::new(),
        uncached_rps: Vec::new(),
        hit_rate: 0.0,
        cores: std::thread::available_parallelism().ok().map(|n| n.get() as u64),
        api_hop_ms: Some(hop_ms as f64),
        perfect_scaling_rps: Some(Vec::new()),
    };
    let mut rows = Vec::new();
    let mut one_thread_rps = 0.0f64;
    for &threads in thread_counts {
        let with = sweep(&cached, &names, threads, duration);
        let without = sweep(&uncached, &names, threads, duration);
        if threads == 1 {
            one_thread_rps = with.throughput_rps;
        }
        let perfect = one_thread_rps * threads as f64;
        run.threads.push(threads as u64);
        run.cached_rps.push(with.throughput_rps);
        run.cached_mean_us.push(with.mean.as_secs_f64() * 1e6);
        run.cached_p99_us.push(with.p99.as_secs_f64() * 1e6);
        run.uncached_rps.push(without.throughput_rps);
        if let Some(p) = run.perfect_scaling_rps.as_mut() {
            p.push(perfect);
        }
        rows.push(vec![
            threads.to_string(),
            format!("{:.0}", with.throughput_rps),
            format!("{:.0}", perfect),
            format!("{:.1}", with.mean.as_secs_f64() * 1e6),
            format!("{:.1}", with.p99.as_secs_f64() * 1e6),
            format!("{:.0}", without.throughput_rps),
        ]);
        if threads == 32 && quick && hop_ms > 0 {
            let ratio = with.throughput_rps / one_thread_rps.max(1e-9);
            assert!(
                ratio >= 8.0,
                "scaling gate: 32-thread cached rps must be ≥ 8× 1-thread \
                 under a {hop_ms} ms hop (got {:.1}×: {:.0} vs {:.0} rps) — \
                 something on the hit path serializes requests",
                ratio,
                with.throughput_rps,
                one_thread_rps,
            );
            println!("scaling gate passed: 32-thread/1-thread cached ratio {ratio:.1}× (≥ 8×)");
        }
    }
    run.hit_rate = cached.uc.cache_stats().hit_rate();

    // The sweep ran with tenant labeling on (the default): verify the
    // dimensional plane metered it. The per-tenant getTable values must
    // appear and sum exactly to the op's global counter — the bounded
    // label table loses nothing even under the full sweep's concurrency.
    {
        let parsed = uc_bench::parse_snapshot(&cached.uc.metrics_snapshot());
        let global = match parsed.get("catalog.get_securable.count") {
            Some(uc_bench::SnapshotValue::Counter(n)) => *n,
            other => panic!("catalog.get_securable.count missing: {other:?}"),
        };
        let by_tenant = uc_bench::labeled_counter_sum(&parsed, "catalog.get_securable.count.by_tenant");
        assert!(global > 0, "sweep must meter get_securable (the getTable entry op)");
        assert_eq!(
            by_tenant, global,
            "per-tenant get_securable counts must sum to the global counter"
        );
        assert!(
            parsed.keys().any(|k| k.starts_with("catalog.get_securable.count.by_tenant{t=bench")),
            "labeled series must carry the metastore alias, not a uid"
        );
    }
    print_table(
        &format!("cache read scaling — getTable, label={label}"),
        &["threads", "cached rps", "perfect rps", "mean µs", "p99 µs", "uncached rps"],
        &rows,
    );
    println!("cache hit rate: {:.2} %", run.hit_rate * 100.0);

    let mut file: BenchFile = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_default();
    file.bench = "cache_read_scaling".to_string();
    file.note = format!(
        "getTable closed-loop throughput vs threads ({TABLES} tables; db pool=8 @1ms/read; \
         api hop per UC_BENCH_HOP_MS, default zero). cached sweeps hit the metadata cache; \
         uncached reads the db every call. perfect_scaling_rps = 1-thread cached rps × N."
    );
    file.runs.retain(|r| r.label != label);
    file.runs.push(run);
    let json = serde_json::to_string_pretty(&file).expect("bench file serializes");
    std::fs::write(&out_path, json + "\n").expect("write bench file");
    println!("wrote {out_path}");
}
