//! Figure 10(b): latency vs throughput for a query-path metadata API
//! (getTable), with and without the server-side metadata cache, as the
//! client thread count grows.
//!
//! Paper: caching yields 3–40× lower latency and much higher throughput;
//! without it the system is bottlenecked by database reads and hits its
//! throughput wall below 10 K requests/second.
//!
//! Setup mirrors the paper's: both configurations share the same backing
//! database model (bounded connection pool + per-read latency, pool=8 @
//! 1 ms, standing in for the AWS MySQL instance) and a 200 µs
//! engine→catalog hop; only the cache flag differs. Each row also shows a
//! perfect-scaling reference (1-thread cached rps × N), so the distance to
//! linear is in the table, not in a reader's head.
//!
//! The harness itself must not serialize the sweep: workers derive which
//! table to hit from their own (worker, iteration) coordinates via
//! `closed_loop_indexed` — no shared "next request" counter — and request
//! names are precomputed so the measured region holds no allocation.
//!
//! The scaling property behind the cached column — a cached hit takes no
//! shared exclusive lock — is gated in tier-1, not here:
//! `tests/read_scaling.rs` asserts the latency-bound ratio (16 threads ≥
//! 4× 1 thread under a 1 ms hop).

use std::time::Duration;

use uc_bench::{closed_loop_indexed, fmt_dur, print_table, World, WorldConfig};
use uc_catalog::service::crud::TableSpec;
use uc_delta::value::{DataType, Field, Schema};

const TABLES: usize = 100;

fn build(cache: bool) -> World {
    let world = World::build(&WorldConfig {
        db_pool: 8,
        db_latency: Duration::from_millis(1),
        api_latency: Duration::from_micros(200),
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
    let thread_counts = [1usize, 2, 4, 8, 16, 32, 64];
    let duration = Duration::from_millis(500);

    println!("building cached and uncached worlds ({TABLES} tables each)…");
    let cached = build(true);
    let uncached = build(false);
    let names: Vec<String> = (0..TABLES).map(|i| format!("main.s.t{i}")).collect();
    // Warm the cached node deterministically: one pass over every table,
    // so the sweeps measure steady-state hits regardless of duration.
    {
        let ctx = cached.admin();
        for name in &names {
            cached.uc.get_table(&ctx, &cached.ms, name).unwrap();
        }
    }

    let mut rows = Vec::new();
    let mut one_thread_rps = 0.0f64;
    let mut max_uncached_rps: f64 = 0.0;
    let mut ratios = Vec::new();
    for &threads in &thread_counts {
        let with = sweep(&cached, &names, threads, duration);
        let without = sweep(&uncached, &names, threads, duration);
        if threads == 1 {
            one_thread_rps = with.throughput_rps;
        }
        max_uncached_rps = max_uncached_rps.max(without.throughput_rps);
        let ratio = without.mean.as_secs_f64() / with.mean.as_secs_f64();
        ratios.push(ratio);
        rows.push(vec![
            threads.to_string(),
            format!("{:.0}", with.throughput_rps),
            format!("{:.0}", one_thread_rps * threads as f64),
            fmt_dur(with.mean),
            fmt_dur(with.p99),
            format!("{:.0}", without.throughput_rps),
            fmt_dur(without.mean),
            fmt_dur(without.p99),
            format!("{ratio:.1}×"),
        ]);
    }

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
        "Fig 10(b) — getTable latency vs throughput (DB: pool=8, 1 ms/read; 200 µs hop)",
        &[
            "clients",
            "cached rps",
            "perfect rps",
            "cached mean",
            "cached p99",
            "uncached rps",
            "uncached mean",
            "uncached p99",
            "lat. ratio",
        ],
        &rows,
    );
    let min_ratio = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_ratio = ratios.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\nlatency improvement from caching: {min_ratio:.1}×–{max_ratio:.1}× (paper: 3×–40×)\n\
         uncached throughput wall: {max_uncached_rps:.0} rps (paper: < 10 000 rps)\n\
         cache hit rate: {:.1} %",
        cached.uc.cache_stats().hit_rate() * 100.0
    );
    assert!(max_uncached_rps < 10_000.0, "uncached must hit the DB wall");
    assert!(max_ratio >= 3.0, "caching must win by at least 3×");
}
