//! One workload, start to finish: set-up, the timed window, and — on a
//! traced run — the single-client replay that attributes time to layers.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::gen::{self, Op, Sizes, Workload};
use crate::metrics::Values;
use crate::run::{slice_ops_s, timed_window, Window};
use crate::trace::{probes, traced_replay, Tracer};
use crate::world::World;

/// The traced replay covers this fraction of a client's sequence.
const TRACED_SHARE: usize = 20;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

struct Prepared {
    world: World,
    sequences: Vec<(usize, Vec<Op>)>,
    gen_s: f64,
}

/// Generate the inputs, build the world, load it and warm its caches:
/// everything that happens before the first timed op.
fn set_up(w: Workload, sizes: &Sizes, seed: u64, clients: &[usize]) -> Prepared {
    let t0 = Instant::now();
    let sequences: Vec<(usize, Vec<Op>)> = clients
        .iter()
        .map(|&c| (c, gen::ops(w, sizes, seed, c)))
        .collect();
    let gen_s = t0.elapsed().as_secs_f64();
    Prepared {
        world: World::build(w, sizes),
        sequences,
        gen_s,
    }
}

/// `VmHWM` of this process in MiB: the high-water mark of resident memory.
/// Database and object store are in memory, so this is also the program's
/// space amplification.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `w` once: set up, then the lead-in and the timed window. `started`
/// is when the process did: `setup_s` is the wall from there to the first
/// timed op.
/// With `trace` the traced replay follows, and the window's slices and the
/// spans are written under `out_dir`.
pub fn run(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    clients: usize,
    trace: bool,
    out_dir: &Path,
    started: Instant,
) -> Outcome {
    let client_ids: Vec<usize> = (0..clients).collect();
    let Prepared {
        world,
        sequences,
        gen_s,
    } = set_up(w, sizes, seed, &client_ids);
    let window = timed_window(&world, sequences);
    let peak_rss_mb = peak_rss_mb();
    eprintln!(
        "{}: timed window {:.2} s, {} ops on {clients} client(s)",
        w.name(),
        window.wall_s,
        window.attempted
    );
    let mut values = Values::default();
    values.set("setup_s", (window.started - started).as_secs_f64());
    values.set("ops_s", window.ops_s());
    values.set("p50_us", window.quantile_us(0.50));
    values.set("p99_us", window.quantile_us(0.99));
    values.set("peak_rss_mb", peak_rss_mb);
    values.set("workload.gen_s", gen_s);
    values.set("workload.populate_s", world.populate_s);
    window_layer_metrics(&world, &window, &mut values);
    let (mut attempted, mut failed) = (window.attempted, window.failed);
    if trace {
        drop(world);
        if let Err(e) = write_slices(&window, &out_dir.join(format!("{}.slices.jsonl", w.name()))) {
            eprintln!("warning: could not write the slices: {e}");
        }
        let (a, f) = traced_layer_metrics(w, sizes, seed, out_dir, &mut values);
        attempted += a;
        failed += f;
    }
    Outcome {
        attempted,
        failed,
        values,
    }
}

/// One JSON object a line per slice of the window: where a stall or a
/// slow spell of the host sits.
fn write_slices(window: &Window, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, slice) in window.slices.iter().enumerate() {
        writeln!(
            out,
            r#"{{"slice":{i},"ops_s":{},"p50_us":{},"p99_us":{}}}"#,
            slice_ops_s(slice),
            slice.quantile_us(0.50),
            slice.quantile_us(0.99)
        )?;
    }
    out.flush()
}

/// Counts and ratios of the full window, read from the program's public
/// counters at its boundaries.
fn window_layer_metrics(world: &World, window: &Window, values: &mut Values) {
    let c = &window.counters;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            None
        } else {
            Some(num as f64 / den as f64)
        }
    };
    values.set("fail_ratio", window.per_op(window.failed));
    values.set("db_rtt_per_op", window.per_op(c.db_round_trips()));
    values.set("txdb.reads_per_op", window.per_op(c.db_reads));
    values.set("txdb.scans_per_op", window.per_op(c.db_scans));
    values.set("txdb.commits_per_op", window.per_op(c.db_commits));
    values.set("txdb.rows_per_op", window.per_op(c.db_rows));
    values.set("txdb.conflicts", c.db_conflicts as f64);
    values.set("txdb.pool_waits", c.pool_waits as f64);
    values.set_some(
        "delta.store_gets_per_query",
        ratio(c.store_gets, window.queries),
    );
    values.set_some(
        "delta.store_lists_per_query",
        ratio(c.store_lists, window.queries),
    );
    values.set(
        "cloudstore.sts_verify_per_op",
        window.per_op(c.sts_verifies),
    );
    values.set("cloudstore.sts_mint_per_op", window.per_op(c.sts_mints));
    values.set_some(
        "catalog.cache_hit_ratio",
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
    );
    values.set(
        "catalog.cache_evictions_per_op",
        window.per_op(c.cache_evictions),
    );
    values.set("catalog.cache_stale_retries", c.cache_stale_retries as f64);
    values.set("catalog.cache_gate_waits", c.cache_gate_waits as f64);
    values.set("catalog.cache_pin_retries", c.cache_pin_retries as f64);
    values.set_some(
        "catalog.cred_cache_hit_ratio",
        ratio(c.cred_hits, c.cred_hits + c.cred_misses),
    );
    values.set(
        "catalog.audit_records_per_op",
        window.per_op(c.audit_records),
    );
    values.set("catalog.write_retries", c.write_retries as f64);
    values.set("catalog.drift_ratio", window.drift_ratio());
    values.set_some(
        "rest.error_ratio",
        ratio(window.rest_errors, window.rest_calls),
    );
    values.set("serve.shed", c.serve_shed as f64);
    values.set("bench.ops_s_window", window.whole_ops_s());
    values.set("bench.p50_window_us", window.hist.quantile_us(0.50));
    values.set("bench.p99_window_us", window.hist.quantile_us(0.99));
    values.set("bench.p999_us", window.hist.quantile_us(0.999));
    values.set("bench.samples", window.hist.count() as f64);

    let live_rows = world.db.live_rows();
    let live_entities = world
        .db
        .begin_read()
        .scan_prefix(uc_catalog::model::keys::T_ENTITY, "")
        .len();
    values.set("txdb.live_rows", live_rows as f64);
    values.set_some(
        "txdb.rows_per_entity",
        ratio(live_rows as u64, live_entities as u64),
    );
    let t0 = Instant::now();
    let snapshot = world.uc.metrics_snapshot();
    values.set("obs.snapshot_us", t0.elapsed().as_secs_f64() * 1e6);
    values.set(
        "obs.series",
        snapshot
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .count() as f64,
    );
}

/// On a fresh world: an untraced single-client baseline over client 1's
/// first 1/20, then the traced replay of client 0's first 1/20, then the
/// direct probes. Returns (attempted, failed) of the two replays.
fn traced_layer_metrics(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    out_dir: &Path,
    values: &mut Values,
) -> (u64, u64) {
    let n = (sizes.ops_per_client / TRACED_SHARE).max(1);
    // A generated sequence is prefix-stable, so a shorter one *is* the
    // first part of the full one. write_mix: one round of `n` lifecycles
    // (after the baseline's lead-in round).
    let slice = Sizes {
        ops_per_client: n,
        ring: sizes.ring.min(n),
        round: sizes.round.min(n),
        ..sizes.clone()
    };
    let Prepared {
        world,
        mut sequences,
        ..
    } = set_up(w, &slice, seed, &[0, 1]);
    let (_, traced_ops) = sequences.remove(0);
    let baseline = timed_window(&world, sequences);
    let traced = traced_replay(&world, 0, &traced_ops);
    let mut t: Tracer = traced.tracer;
    probes(&world, &mut t);
    if let Err(e) = t.write_jsonl(&out_dir.join(format!("{}.trace.jsonl", w.name()))) {
        eprintln!("warning: could not write the trace: {e}");
    }

    values.set(
        "trace.overhead_ratio",
        (traced.attempted as f64 / traced.wall_s) / baseline.ops_s(),
    );
    let rest_get = ("rest", "tables.get");
    let warm_get = ("catalog", "get_table");
    let resolve = ("catalog", "resolve_for_query");
    for (name, layer, span) in [
        ("engine.execute_us", "engine", "execute"),
        ("engine.parse_us", "engine", "parse"),
        ("delta.snapshot_us", "delta", "snapshot"),
        ("delta.scan_us", "delta", "scan"),
        ("cloudstore.get_us", "cloudstore", "get"),
        ("cloudstore.list_us", "cloudstore", "list"),
        ("cloudstore.sts_mint_us", "cloudstore", "sts_mint"),
        ("catalog.get_table_us", "catalog", "get_table"),
        (
            "catalog.resolve_for_query_us",
            "catalog",
            "resolve_for_query",
        ),
        ("catalog.temp_credentials_us", "catalog", "temp_credentials"),
        ("catalog.get_table_cold_us", "catalog", "get_table_cold"),
        ("catalog.list_children_us", "catalog", "list_children"),
        ("catalog.create_table_us", "catalog", "create_table"),
        ("catalog.grant_us", "catalog", "grant"),
        ("catalog.drop_us", "catalog", "drop"),
        ("catalog.purge_us", "catalog", "purge"),
        ("txdb.get_us", "txdb", "get"),
        ("txdb.scan_chain_us", "txdb", "scan_chain"),
        ("txdb.scan200_us", "txdb", "scan200"),
        ("txdb.commit5_us", "txdb", "commit5"),
        ("rest.handle_get_us", "rest", "tables.get"),
    ] {
        values.set_some(name, t.median_us(layer, span));
    }
    values.set_some(
        "engine.self_us",
        t.median_diff_us(
            ("engine", "execute"),
            &[
                resolve,
                ("catalog", "principal_groups"),
                ("delta", "snapshot"),
                ("delta", "scan"),
            ],
        ),
    );
    values.set_some("rest.self_get_us", t.median_diff_us(rest_get, &[warm_get]));
    values.set_some(
        "rest.self_list_us",
        t.median_diff_us(("rest", "tables.list"), &[("catalog", "list_children")]),
    );
    values.set_some(
        "serve.self_get_us",
        t.median_diff_us(("serve", "get_table"), &[warm_get]),
    );
    values.set_some(
        "serve.self_resolve_us",
        t.median_diff_us(("serve", "resolve"), &[resolve]),
    );
    let cold = ("catalog", "get_table_cold");
    let (missed, first_gets) = (
        t.count(cold.0, cold.1),
        t.count(cold.0, cold.1) + t.count("catalog", "get_table_first"),
    );
    if first_gets > 0 {
        values.set("catalog.cold_get_ratio", missed as f64 / first_gets as f64);
    }
    // A cold get's own time: the whole call less what its database calls
    // cost when issued bare.
    if let (Some(cold_us), Some(get_us), Some(scan_us)) = (
        t.median_us(cold.0, cold.1),
        t.median_us("txdb", "get"),
        t.median_us("txdb", "scan_chain"),
    ) {
        let reads = t.mean_count(cold.0, cold.1, |c| c.db_reads).unwrap_or(0.0);
        let scans = t.mean_count(cold.0, cold.1, |c| c.db_scans).unwrap_or(0.0);
        values.set(
            "catalog.self_cold_us",
            cold_us - reads * get_us - scans * scan_us,
        );
    }
    (
        baseline.attempted + traced.attempted,
        baseline.failed + traced.failed,
    )
}
