//! §6.1 aggregate usage statistics, regenerated from the calibrated
//! population and trace models (scaled 1:1000 relative to production).
//!
//! Paper: ~100 M tables, 550 K volumes, 400 K models, 4 M schemas, 200 K
//! catalogs, 100 K metastores; 98.2 % of API requests are reads; asset
//! counts per container are heavy-tailed (mode ≈30 tables per catalog,
//! largest catalogs ≥ 500 K tables).

use uc_bench::{parse_snapshot, print_table, SnapshotValue, World, WorldConfig};
use uc_catalog::types::SecurableKind;
use uc_obs::Obs;
use uc_workload::population::{Population, PopulationParams};
use uc_workload::stats::quantile;
use uc_workload::trace::{Trace, TraceParams};

fn main() {
    // Scale: paper ratios hold per-metastore; we generate 2 000 of the
    // 100 000 metastores and compare *ratios*.
    let population = Population::generate(&PopulationParams { num_metastores: 2_000, ..Default::default() });
    let counts = population.kind_counts();
    let scale = 100_000.0 / counts["metastores"] as f64;

    let paper: &[(&str, f64)] = &[
        ("metastores", 100e3),
        ("catalogs", 200e3),
        ("schemas", 4e6),
        ("tables", 100e6),
        ("volumes", 550e3),
        ("models", 400e3),
    ];
    let rows: Vec<Vec<String>> = paper
        .iter()
        .map(|(k, target)| {
            let measured = *counts.get(*k).unwrap_or(&0) as f64 * scale;
            vec![
                k.to_string(),
                format!("{:.2e}", measured),
                format!("{:.2e}", target),
                format!("{:.1}×", measured / target),
            ]
        })
        .collect();
    print_table(
        "§6.1 — asset counts (scaled to 100 K metastores)",
        &["kind", "extrapolated", "paper", "ratio"],
        &rows,
    );

    // Heavy tails.
    let per_catalog: Vec<f64> = population
        .assets_per_catalog(SecurableKind::Table)
        .into_iter()
        .map(|c| c as f64)
        .collect();
    let volumes_per_catalog: Vec<f64> = population
        .assets_per_catalog(SecurableKind::Volume)
        .into_iter()
        .filter(|&c| c > 0)
        .map(|c| c as f64)
        .collect();
    print_table(
        "§6.1 — per-catalog distribution shape",
        &["metric", "measured", "paper"],
        &[
            vec!["tables/catalog p50".into(), format!("{:.0}", quantile(&per_catalog, 0.5)), "mode ~30".into()],
            vec!["tables/catalog p99".into(), format!("{:.0}", quantile(&per_catalog, 0.99)), "heavy tail".into()],
            vec![
                "tables/catalog max".into(),
                format!("{:.0}", per_catalog.iter().cloned().fold(0.0, f64::max)),
                "≥ 500 K at full scale".into(),
            ],
            vec![
                "volumes/catalog p50".into(),
                format!("{:.0}", quantile(&volumes_per_catalog, 0.5)),
                "mode < 6".into(),
            ],
        ],
    );

    // Read/write mix from the trace model.
    let trace = Trace::generate(&TraceParams { num_events: 200_000, ..Default::default() });
    let writes = trace.write_fraction();
    print_table(
        "§6.1 — API mix",
        &["metric", "measured", "paper"],
        &[vec![
            "read fraction".into(),
            format!("{:.1} %", (1.0 - writes) * 100.0),
            "98.2 %".into(),
        ]],
    );
    assert!((1.0 - writes - 0.982).abs() < 0.005);

    // Cross-check through the telemetry plane: replay a miniature mix
    // against an instrumented world and read the counts back out of the
    // uc-obs metrics snapshot — the same exporter CI diffs for
    // determinism — instead of trusting the workload model's own tally.
    let obs = Obs::enabled();
    let w = World::build(&WorldConfig { obs: obs.clone(), ..Default::default() });
    let ctx = w.admin();
    let calls_before = obs.counter("catalog.api.calls").get();
    w.uc.create_catalog(&ctx, &w.ms, "main").unwrap();
    w.uc.create_schema(&ctx, &w.ms, "main", "s").unwrap();
    for _ in 0..500 {
        let _ = w.uc.list_catalogs(&ctx, &w.ms).unwrap();
    }
    let parsed = parse_snapshot(&obs.metrics_snapshot());
    let counter = |name: &str| match parsed.get(name) {
        Some(SnapshotValue::Counter(n)) => *n,
        _ => 0,
    };
    let api_calls = counter("catalog.api.calls") - calls_before;
    let snapshot_writes =
        counter("catalog.create_catalog.count") + counter("catalog.create_schema.count");
    print_table(
        "§6.1 — replayed mix, read back from the metrics snapshot",
        &["metric", "value"],
        &[
            vec!["api calls".into(), api_calls.to_string()],
            vec!["write calls".into(), snapshot_writes.to_string()],
            vec![
                "read fraction".into(),
                format!("{:.1} %", (api_calls - snapshot_writes) as f64 / api_calls as f64 * 100.0),
            ],
            vec!["txdb commits".into(), counter("txdb.commit.count").to_string()],
        ],
    );
    // The counter meters client requests: no write re-enters a public
    // API internally.
    assert_eq!(api_calls, 502, "2 writes + 500 reads");

    // The dimensional-telemetry conservation law: for every op, the
    // per-tenant labeled values (registered slots + overflow) sum exactly
    // to the op's global counter — nothing is lost to the bounded label
    // table, nothing double-counted.
    for op in ["list_catalogs", "create_catalog", "create_schema"] {
        let global = counter(&format!("catalog.{op}.count"));
        let by_tenant =
            uc_bench::labeled_counter_sum(&parsed, &format!("catalog.{op}.count.by_tenant"));
        assert_eq!(
            by_tenant, global,
            "per-tenant {op} counts must sum to the global counter"
        );
        assert!(global > 0, "{op} was exercised");
    }

    println!("\nconclusion: the calibrated models reproduce the published aggregates");
}
