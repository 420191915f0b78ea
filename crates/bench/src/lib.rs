#![forbid(unsafe_code)]
//! Shared harness for the figure-regeneration binaries and benches.
//!
//! Every table and figure in the paper's evaluation (§6) has a binary in
//! `src/bin/` that regenerates it; this library holds what they share —
//! world bootstrapping with configurable latency models, a closed-loop
//! load generator, latency summaries, and plain-text table output.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use uc_catalog::ids::Uid;
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_cloudstore::{LatencyModel, ObjectStore, StsService, Clock};
use uc_obs::{Histogram, Obs};
use uc_txdb::{Db, DbConfig};

pub mod timer;
pub use timer::Stopwatch;

pub use uc_obs as obs;
pub use uc_workload as workload;

/// The administrator principal every harness world uses.
pub const ADMIN: &str = "admin";

/// A bootstrapped catalog world.
pub struct World {
    pub db: Db,
    pub store: ObjectStore,
    pub uc: Arc<UnityCatalog>,
    pub ms: Uid,
}

/// Knobs for world construction.
pub struct WorldConfig {
    /// Database connection pool size.
    pub db_pool: usize,
    /// Per-operation database latency.
    pub db_latency: Duration,
    /// Engine→catalog network hop latency.
    pub api_latency: Duration,
    /// Object storage per-operation latency.
    pub storage_latency: Duration,
    /// Metadata cache enabled?
    pub cache: bool,
    /// Credential cache enabled?
    pub cred_cache: bool,
    /// STS mint round-trip cost.
    pub sts_mint_cost: Duration,
    /// Observability handle shared by every layer of the world. The
    /// default is metrics-only; pass `Obs::with_clock_fn` to also collect
    /// replayable traces.
    pub obs: Obs,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            db_pool: 64,
            db_latency: Duration::ZERO,
            api_latency: Duration::ZERO,
            storage_latency: Duration::ZERO,
            cache: true,
            cred_cache: true,
            sts_mint_cost: Duration::ZERO,
            obs: Obs::disabled(),
        }
    }
}

impl World {
    /// Build a world: database + storage + one catalog node + a metastore
    /// with a storage credential and managed root configured.
    pub fn build(cfg: &WorldConfig) -> World {
        let db = Db::new(DbConfig {
            pool_size: cfg.db_pool,
            latency: LatencyModel::uniform(cfg.db_latency),
            obs: cfg.obs.clone(),
            ..Default::default()
        });
        let store = ObjectStore::new(
            StsService::new(Clock::system()).with_obs(cfg.obs.clone()),
            LatencyModel::uniform(cfg.storage_latency),
        )
        .with_obs(cfg.obs.clone());
        let uc_config = UcConfig {
            api_latency: LatencyModel::uniform(cfg.api_latency),
            cache: if cfg.cache {
                uc_catalog::cache::CacheConfig::default()
            } else {
                uc_catalog::cache::CacheConfig::disabled()
            },
            cred_cache_enabled: cfg.cred_cache,
            sts_mint_cost: cfg.sts_mint_cost,
            obs: cfg.obs.clone(),
            ..Default::default()
        };
        let uc = UnityCatalog::new(db.clone(), store.clone(), uc_config, "node-0");
        let ms = uc.create_metastore(ADMIN, "bench", "us-west-2").unwrap();
        let ctx = Context::user(ADMIN);
        let root = store.create_bucket("lake");
        uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
        uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
        World { db, store, uc, ms }
    }

    pub fn admin(&self) -> Context {
        Context::user(ADMIN)
    }
}

/// Latency summary of one load run.
#[derive(Debug, Clone, Copy)]
pub struct LoadSummary {
    pub requests: u64,
    pub wall: Duration,
    pub throughput_rps: f64,
    pub mean: Duration,
    pub p50: Duration,
    pub p99: Duration,
}

/// Run a closed loop: `threads` workers issue `op` back-to-back for
/// `duration`, aggregating per-request latencies into a shared
/// [`uc_obs::Histogram`] — the same log-bucketed instrument the request
/// path records into, so bench tables and `/metrics` snapshots report
/// percentiles from one definition. Workers record concurrently with no
/// merge step; log₂ buckets keep the relative error of a reported
/// percentile under 2× at any magnitude, which is ample for the
/// order-of-magnitude comparisons in §6.
pub fn closed_loop(
    threads: usize,
    duration: Duration,
    op: impl Fn() + Send + Sync,
) -> LoadSummary {
    closed_loop_indexed(threads, duration, |_, _| op())
}

/// [`closed_loop`], passing each invocation its worker index and that
/// worker's iteration number. This is how a sweep derives per-request
/// variety (which table to hit) without any shared state: a shared
/// `AtomicU64` "next request" counter — the obvious alternative — puts
/// one contended cache line *inside the measured region* and caps the
/// very scaling the harness exists to measure.
pub fn closed_loop_indexed(
    threads: usize,
    duration: Duration,
    op: impl Fn(usize, u64) + Send + Sync,
) -> LoadSummary {
    let op = &op;
    let total = AtomicU64::new(0);
    let total = &total;
    let latencies = Histogram::new();
    let start = Stopwatch::start();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let latencies = latencies.clone();
            scope.spawn(move || {
                let mut n = 0u64;
                while start.elapsed() < duration {
                    let t0 = Stopwatch::start();
                    op(t, n);
                    latencies.record(t0.elapsed().as_nanos() as u64);
                    n += 1;
                }
                // One shared add per worker per run, outside the timed
                // region — not per request.
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
    });
    let wall = start.elapsed();
    let requests = total.load(Ordering::Relaxed);
    let mean = if latencies.count() == 0 {
        Duration::ZERO
    } else {
        Duration::from_nanos(latencies.sum() / latencies.count())
    };
    LoadSummary {
        requests,
        wall,
        throughput_rps: requests as f64 / wall.as_secs_f64(),
        mean,
        p50: Duration::from_nanos(latencies.percentile(0.5)),
        p99: Duration::from_nanos(latencies.percentile(0.99)),
    }
}

/// One parsed instrument from a uc-obs text snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotValue {
    Counter(u64),
    Gauge(i64),
    Histogram { count: u64, sum: u64, p50: u64, p95: u64, p99: u64, max: u64 },
    /// A trailing-window series line (`<name> window bucket_ms=… …`).
    Window { bucket_ms: u64, window_ms: u64, count: u64, rate_per_s: u64, p50: u64, p99: u64 },
}

/// Parse a `Registry::text_snapshot` back into name → value pairs.
///
/// The consumer side of the snapshot contract: bench binaries and the CI
/// determinism gate read telemetry through this instead of scraping ad-hoc
/// stdout. Lines that don't parse are skipped — exporters may grow fields,
/// and a reader must not panic on a newer snapshot.
pub fn parse_snapshot(text: &str) -> std::collections::BTreeMap<String, SnapshotValue> {
    let mut out = std::collections::BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(kind)) = (parts.next(), parts.next()) else { continue };
        let fields: Vec<&str> = parts.collect();
        let field = |key: &str| -> Option<u64> {
            fields
                .iter()
                .find_map(|f| f.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
                .and_then(|v| v.parse().ok())
        };
        let value = match kind {
            "counter" => fields.first().and_then(|v| v.parse().ok()).map(SnapshotValue::Counter),
            "gauge" => fields.first().and_then(|v| v.parse().ok()).map(SnapshotValue::Gauge),
            "histogram" => Some(SnapshotValue::Histogram {
                count: field("count").unwrap_or(0),
                sum: field("sum").unwrap_or(0),
                p50: field("p50").unwrap_or(0),
                p95: field("p95").unwrap_or(0),
                p99: field("p99").unwrap_or(0),
                max: field("max").unwrap_or(0),
            }),
            "window" => Some(SnapshotValue::Window {
                bucket_ms: field("bucket_ms").unwrap_or(0),
                window_ms: field("window_ms").unwrap_or(0),
                count: field("count").unwrap_or(0),
                rate_per_s: field("rate_per_s").unwrap_or(0),
                p50: field("p50").unwrap_or(0),
                p99: field("p99").unwrap_or(0),
            }),
            _ => None,
        };
        if let Some(v) = value {
            out.insert(name.to_string(), v);
        }
    }
    out
}

/// Sum every labeled counter of a family (`base{label} counter v`),
/// including the `{~overflow}` tail cell. The family contract is that
/// this sum equals the family's unlabeled global counter exactly — the
/// heavy-hitter `approx` lines are estimates and never parse as counters,
/// so they can't double-count here.
pub fn labeled_counter_sum(
    parsed: &std::collections::BTreeMap<String, SnapshotValue>,
    base: &str,
) -> u64 {
    let prefix = format!("{base}{{");
    parsed
        .iter()
        .filter(|(name, _)| name.starts_with(&prefix))
        .filter_map(|(_, v)| match v {
            SnapshotValue::Counter(n) => Some(*n),
            _ => None,
        })
        .sum()
}

/// Mean and standard deviation of durations, in milliseconds.
pub fn mean_std_ms(samples: &[Duration]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    let mean = ms.iter().sum::<f64>() / ms.len() as f64;
    let var = ms.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / ms.len() as f64;
    (mean, var.sqrt())
}

/// Render a plain-text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}", w = w))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Format bytes human-readably.
pub fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.1} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} KB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

/// Format a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 1_000_000 {
        format!("{:.2} s", d.as_secs_f64())
    } else if us >= 1_000 {
        format!("{:.2} ms", us as f64 / 1e3)
    } else {
        format!("{us} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_and_serves() {
        let w = World::build(&WorldConfig::default());
        let ctx = w.admin();
        w.uc.create_catalog(&ctx, &w.ms, "main").unwrap();
        assert_eq!(w.uc.list_catalogs(&ctx, &w.ms).unwrap().len(), 1);
    }

    #[test]
    fn closed_loop_measures_throughput() {
        let counter = AtomicU64::new(0);
        let summary = closed_loop(4, Duration::from_millis(100), || {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(summary.requests, counter.load(Ordering::Relaxed));
        assert!(summary.throughput_rps > 1000.0);
        assert!(summary.p99 >= summary.p50);
    }

    #[test]
    fn observed_world_populates_every_layer_metric() {
        let obs = Obs::enabled();
        let w = World::build(&WorldConfig { obs: obs.clone(), ..Default::default() });
        let ctx = w.admin();
        w.uc.create_catalog(&ctx, &w.ms, "main").unwrap();
        let root = w.store.create_bucket("aux");
        w.store
            .put(
                &root.clone().into(),
                &uc_cloudstore::StoragePath::parse("s3://aux/obj").unwrap(),
                bytes::Bytes::from_static(b"x"),
            )
            .unwrap();
        let parsed = parse_snapshot(&obs.metrics_snapshot());
        for name in ["catalog.create_catalog.count", "txdb.commit.count", "store.put.count"] {
            match parsed.get(name) {
                Some(SnapshotValue::Counter(n)) => assert!(*n > 0, "{name} is zero"),
                other => panic!("{name} missing or wrong kind: {other:?}"),
            }
        }
    }

    #[test]
    fn parse_snapshot_round_trips_the_text_format() {
        let r = uc_obs::Registry::new();
        r.counter("a.op.count").add(7);
        r.gauge("b.op.depth").set(-3);
        let h = r.histogram("c.op.latency_ms");
        for v in [1u64, 2, 100] {
            h.record(v);
        }
        let parsed = parse_snapshot(&r.text_snapshot());
        assert_eq!(parsed["a.op.count"], SnapshotValue::Counter(7));
        assert_eq!(parsed["b.op.depth"], SnapshotValue::Gauge(-3));
        match &parsed["c.op.latency_ms"] {
            SnapshotValue::Histogram { count, sum, max, .. } => {
                assert_eq!((*count, *sum, *max), (3, 103, 100));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn parse_snapshot_reads_labeled_and_window_lines() {
        let obs = Obs::disabled();
        let fam = obs.counter_family("catalog.get_table.count.by_tenant");
        fam.inc("t=acme,p=root");
        fam.add("t=zeta,p=root", 4);
        obs.counter("catalog.get_table.count").add(5);
        obs.window("catalog.get_table.window").record(0, 3);
        let parsed = parse_snapshot(&obs.metrics_snapshot());
        assert_eq!(
            parsed["catalog.get_table.count.by_tenant{t=acme,p=root}"],
            SnapshotValue::Counter(1)
        );
        assert_eq!(
            labeled_counter_sum(&parsed, "catalog.get_table.count.by_tenant"),
            5,
            "per-tenant values must sum to the global counter"
        );
        match &parsed["catalog.get_table.window"] {
            SnapshotValue::Window { bucket_ms, window_ms, count, .. } => {
                assert_eq!((*bucket_ms, *window_ms, *count), (uc_obs::WINDOW_BUCKET_MS, uc_obs::WINDOW_MS, 1));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(512.0), "512 B");
        assert_eq!(fmt_bytes(2_500_000.0), "2.5 MB");
        assert!(fmt_dur(Duration::from_micros(250)).contains("µs"));
        assert!(fmt_dur(Duration::from_millis(5)).contains("ms"));
        let (m, s) = mean_std_ms(&[Duration::from_millis(10), Duration::from_millis(10)]);
        assert!((m - 10.0).abs() < 1e-9);
        assert!(s.abs() < 1e-9);
    }
}
