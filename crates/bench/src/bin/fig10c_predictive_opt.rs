//! Figure 10(c): predictive optimization — automated OPTIMIZE/VACUUM.
//!
//! Paper: on a 1 M-row data set, a query selecting ~5 % of rows gets up
//! to 20× faster after predictive optimization rewrites the file layout,
//! and garbage collection improves storage efficiency by up to 2×.
//!
//! Substitution (documented in DESIGN.md): the substrate is the JSON
//! row-group table format at 100 K rows with a 1 ms-per-object storage
//! model; the *mechanism* is identical — many small files make selective
//! scans touch many objects, compaction plus min/max pruning reduces the
//! touched set to ~1.

use std::time::Duration;

use uc_bench::{fmt_bytes, fmt_dur, print_table, World, WorldConfig};
use uc_catalog::service::crud::TableSpec;
use uc_catalog::types::FullName;
use uc_cloudstore::{AccessLevel, Credential};
use uc_delta::expr::{CmpOp, Expr};
use uc_delta::value::{DataType, Field, Schema, Value};

const TOTAL_ROWS: usize = 100_000;
const ROWS_PER_FRAGMENT: usize = 100;
const OPTIMIZE_TARGET: usize = 10_000;

fn main() {
    let world = World::build(&WorldConfig {
        storage_latency: Duration::from_millis(2),
        ..Default::default()
    });
    let ctx = world.admin();
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let schema = Schema::new(vec![Field::new("id", DataType::Int), Field::new("v", DataType::Int)]);
    let ent = world
        .uc
        .create_table(&ctx, &world.ms, TableSpec::managed("main.s.events", schema.clone()).unwrap())
        .unwrap();

    // Engine writes TOTAL_ROWS in tiny fragments (streaming ingestion's
    // classic small-files problem).
    let rw = world
        .uc
        .temp_credentials(&ctx, &world.ms, &FullName::parse("main.s.events").unwrap(), "relation", AccessLevel::ReadWrite)
        .unwrap();
    let cred = Credential::Temp(rw);
    let path = uc_cloudstore::StoragePath::parse(ent.storage_path.as_ref().unwrap()).unwrap();
    let table = uc_delta::DeltaTable::create(world.store.clone(), path, &cred, ent.id.as_str(), schema)
        .unwrap();
    println!(
        "writing {TOTAL_ROWS} rows as {} fragments of {ROWS_PER_FRAGMENT}…",
        TOTAL_ROWS / ROWS_PER_FRAGMENT
    );
    let rows: Vec<Vec<Value>> = (0..TOTAL_ROWS)
        .map(|i| vec![Value::Int(i as i64), Value::Int((i % 97) as i64)])
        .collect();
    table.append_fragmented(&cred, &rows, ROWS_PER_FRAGMENT).unwrap();

    // Engines cache the table snapshot across queries; time the scan the
    // way a warmed engine would see it — with the data files cold. The
    // three ranges overlap, so each measurement starts by dropping the
    // node-local cache: otherwise the 5 % scan would find the 1 % scan's
    // files already decoded and the figure would time the cache.
    let cache = uc_delta::TableCache::of(&world.store);
    let selective_scan = |selectivity: f64| -> (Duration, usize, usize) {
        cache.clear();
        let snapshot = table.snapshot(&cred).unwrap();
        let span = (TOTAL_ROWS as f64 * selectivity) as i64;
        let lo = (TOTAL_ROWS as i64 - span) / 2;
        let pred = Expr::cmp("id", CmpOp::Ge, lo).and(Expr::cmp("id", CmpOp::Lt, lo + span));
        let t0 = uc_bench::Stopwatch::start();
        let (rows, files) = table
            .scan_snapshot(&cred, &snapshot, Some(&pred), &uc_delta::expr::EvalContext::anonymous())
            .unwrap();
        (t0.elapsed(), rows.len(), files)
    };

    let selectivities = [0.01, 0.05, 0.10];
    let before: Vec<(Duration, usize, usize)> =
        selectivities.iter().map(|s| selective_scan(*s)).collect();
    let bytes_before = table.physical_bytes(&cred).unwrap();

    println!("running predictive optimization (OPTIMIZE to {OPTIMIZE_TARGET}-row files + VACUUM)…");
    let t0 = uc_bench::Stopwatch::start();
    let opt = table.optimize(&cred, OPTIMIZE_TARGET).unwrap();
    let bytes_with_garbage = table.physical_bytes(&cred).unwrap();
    let vac = table.vacuum(&cred).unwrap();
    let maintenance = t0.elapsed();
    let bytes_after = table.physical_bytes(&cred).unwrap();

    let after: Vec<(Duration, usize, usize)> =
        selectivities.iter().map(|s| selective_scan(*s)).collect();

    let rows_out: Vec<Vec<String>> = selectivities
        .iter()
        .zip(before.iter().zip(after.iter()))
        .map(|(s, (b, a))| {
            vec![
                format!("{:.0} %", s * 100.0),
                fmt_dur(b.0),
                b.2.to_string(),
                fmt_dur(a.0),
                a.2.to_string(),
                format!("{:.1}×", b.0.as_secs_f64() / a.0.as_secs_f64()),
            ]
        })
        .collect();
    print_table(
        "Fig 10(c) — selective query latency before/after predictive optimization",
        &["selectivity", "before", "files read", "after", "files read", "speedup"],
        &rows_out,
    );
    print_table(
        "Fig 10(c) — storage efficiency",
        &["stage", "data bytes"],
        &[
            vec!["fragmented".into(), fmt_bytes(bytes_before as f64)],
            vec!["after OPTIMIZE (garbage retained)".into(), fmt_bytes(bytes_with_garbage as f64)],
            vec!["after VACUUM".into(), fmt_bytes(bytes_after as f64)],
        ],
    );
    let five_pct_speedup = before[1].0.as_secs_f64() / after[1].0.as_secs_f64();
    let ten_pct_speedup = before[2].0.as_secs_f64() / after[2].0.as_secs_f64();
    let storage_gain = bytes_with_garbage as f64 / bytes_after as f64;
    println!(
        "\nmaintenance: rewrote {} files into {} in {} ({} objects vacuumed)\n\
         5 % query speedup: {five_pct_speedup:.1}× (paper: up to 20×)\n\
         storage efficiency: {storage_gain:.1}× (paper: up to 2×)",
        opt.files_removed,
        opt.files_added,
        fmt_dur(maintenance),
        vac.objects_deleted
    );
    // machine-noise-tolerant qualitative claims: substantial speedups
    // that grow with selectivity ("up to" 14-16× at 10 % here)
    assert!(five_pct_speedup > 4.0, "5 % queries must speed up substantially");
    assert!(ten_pct_speedup > 8.0, "10 % queries must speed up further");
    assert!(ten_pct_speedup > five_pct_speedup, "speedup grows with files touched");
    assert!(storage_gain > 1.5, "vacuum must reclaim close to half");
    // correctness: identical results before and after
    assert_eq!(before[1].1, after[1].1);
}
