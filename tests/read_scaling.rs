//! Multithreaded read-scaling suite for the audit/telemetry hot path.
//!
//! The tentpole claim (DESIGN.md §6–§7): a cached `getTable` takes **zero
//! shared exclusive locks** end to end — api_enter counters, the cache
//! hit, and the audit append are all per-thread or striped. These tests
//! check the two observable consequences:
//!
//! * **Scaling** — under a latency-bound configuration (a nonzero
//!   engine→catalog hop) threads overlap their waits, so 16 client
//!   threads must clear a conservative multiple of 1-thread throughput
//!   even on a single-core host. A shared exclusive lock anywhere on the
//!   hit path caps the ratio near 1 and fails the gate.
//! * **No torn audits** — per-thread audit lanes must lose nothing,
//!   duplicate nothing, and preserve the canonical order contract when
//!   appends race the merge.
//!
//! Sized for CI (sub-second sweeps), and the only read-scaling gate:
//! `cache_read_scaling` in `uc-bench` regenerates Fig 10(b) and asserts
//! the paper's cached-vs-uncached claims, not a scaling ratio.

use std::sync::Arc;
use std::time::Duration;

use uc_bench::{closed_loop_indexed, World, WorldConfig};
use uc_catalog::service::crud::TableSpec;
use uc_delta::value::{DataType, Field, Schema};
use uc_obs::Obs;

const TABLES: usize = 16;

fn int_schema() -> Schema {
    Schema::new(vec![Field::new("x", DataType::Int)])
}

/// A cached world with `TABLES` tables and an optional api hop, warmed so
/// every sweep below measures steady-state hits.
fn warmed_world(hop: Duration, obs: Obs) -> (World, Vec<String>) {
    let world = World::build(&WorldConfig {
        api_latency: hop,
        obs,
        ..Default::default()
    });
    let ctx = world.admin();
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    for i in 0..TABLES {
        world
            .uc
            .create_table(
                &ctx,
                &world.ms,
                TableSpec::managed(&format!("main.s.t{i}"), int_schema()).unwrap(),
            )
            .unwrap();
    }
    let names: Vec<String> = (0..TABLES).map(|i| format!("main.s.t{i}")).collect();
    for name in &names {
        world.uc.get_table(&ctx, &world.ms, name).unwrap();
    }
    (world, names)
}

/// Latency-bound scaling gate: with a 1 ms hop, 16 threads overlap their
/// hops, so cached throughput must reach at least 4× the 1-thread rate
/// (perfect would be 16×; 4× is conservative enough for a loaded CI host
/// while still far above the ~1× a serialized hit path produces).
#[test]
fn sixteen_threads_beat_one_thread_under_latency_bound() {
    let (world, names) = warmed_world(Duration::from_millis(1), Obs::disabled());
    let ctx = world.admin();
    let sweep = |threads: usize| {
        closed_loop_indexed(threads, Duration::from_millis(150), |worker, iter| {
            let i = (worker * 31 + iter as usize * 7) % TABLES;
            world.uc.get_table(&ctx, &world.ms, &names[i]).unwrap();
        })
    };
    let one = sweep(1);
    let sixteen = sweep(16);
    let ratio = sixteen.throughput_rps / one.throughput_rps.max(1e-9);
    assert!(
        ratio >= 4.0,
        "16-thread cached getTable must scale ≥ 4× 1-thread under a 1 ms hop \
         (got {ratio:.1}×: {:.0} vs {:.0} rps) — a shared exclusive lock on \
         the hit path would cap this near 1×",
        sixteen.throughput_rps,
        one.throughput_rps,
    );
}

/// Torn-audit detector: every thread wraps each read in a pinned span with
/// a thread-unique trace ID, so each audit record is attributable to the
/// exact (thread, op) that produced it. After the concurrent phase the
/// merged log must contain **exactly one** record per (thread, op) — no
/// lost appends, no duplicates — and seq order must follow canonical
/// (timestamp, trace) order.
#[test]
fn concurrent_audit_appends_lose_and_duplicate_nothing() {
    // Pin trace IDs above 2^32 so they cannot collide with the tracer's
    // sequential allocator (see Tracer::span_pinned).
    const BASE: u64 = 1 << 40;
    const THREADS: usize = 16;
    const OPS: u64 = 25;
    let obs = Obs::with_clock_fn(Arc::new(|| 0));
    let (world, names) = warmed_world(Duration::ZERO, obs.clone());
    let latency = obs.histogram("bench.get_table.latency_ms");

    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let uc = world.uc.clone();
            let ms = world.ms.clone();
            let ctx = world.admin();
            let obs = obs.clone();
            let names = &names;
            let latency = &latency;
            scope.spawn(move || {
                for k in 0..OPS {
                    let _span = obs.span_pinned("bench", "get_table", BASE + t * OPS + k, latency);
                    let name = &names[(t as usize + k as usize) % TABLES];
                    uc.get_table(&ctx, &ms, name).unwrap();
                }
            });
        }
    });

    // The reads audit `getSecurable`; collect the pinned ones. `query`
    // flushes every lane first, so this is the merged canonical view.
    let records = world
        .uc
        .audit_log()
        .query(|r| r.action == "getSecurable" && r.trace_id.is_some_and(|t| t >= BASE));
    let mut counts = vec![0usize; THREADS * OPS as usize];
    for r in &records {
        let idx = (r.trace_id.unwrap() - BASE) as usize;
        assert!(idx < counts.len(), "unexpected pinned trace {}", r.trace_id.unwrap());
        counts[idx] += 1;
        assert_eq!(r.principal, uc_bench::ADMIN);
        assert_eq!(r.decision, uc_catalog::audit::AuditDecision::Allow);
    }
    for (idx, n) in counts.iter().enumerate() {
        assert_eq!(
            *n,
            1,
            "audit record for thread {} op {} appears {n} times (want exactly 1)",
            idx / OPS as usize,
            idx % OPS as usize,
        );
    }
    // The merged log's assigned seqs must be dense and in canonical
    // (timestamp-major, trace-minor) order.
    let all = world.uc.audit_log().recent(usize::MAX);
    for (i, r) in all.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "seq numbers must be dense after the merge");
    }
    for pair in all.windows(2) {
        let key = |r: &uc_catalog::audit::AuditRecord| {
            (r.timestamp_ms, r.trace_id.unwrap_or(u64::MAX))
        };
        assert!(
            key(&pair[0]) <= key(&pair[1]),
            "canonical order violated between seq {} and {}",
            pair[0].seq,
            pair[1].seq
        );
    }
}

/// Lane fan-out smoke: concurrent appenders land in *different* lanes
/// (per-thread slots), so the pre-flush pending buffers must show spread —
/// a single non-empty lane would mean the sharding is vestigial.
#[test]
fn concurrent_appends_spread_across_lanes() {
    let (world, names) = warmed_world(Duration::ZERO, Obs::disabled());
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let uc = world.uc.clone();
            let ms = world.ms.clone();
            let ctx = world.admin();
            let names = &names;
            scope.spawn(move || {
                for k in 0..5usize {
                    uc.get_table(&ctx, &ms, &names[(t + k) % TABLES]).unwrap();
                }
            });
        }
    });
    // No flush-triggering accessor has run since the spawned threads
    // appended; occupancy reads the raw lanes.
    let occupancy = world.uc.audit_log().pending_lane_occupancy();
    let busy = occupancy.iter().filter(|&&n| n > 0).count();
    assert!(
        busy >= 2,
        "8 appender threads must spread across ≥ 2 audit lanes, got {busy} \
         (occupancy: {occupancy:?})"
    );
    // And the flush must still account for every pending record.
    let pending: usize = occupancy.iter().sum();
    let total = world.uc.audit_log().total_recorded();
    assert!(total >= pending as u64, "flushed total covers the pending records");
}
