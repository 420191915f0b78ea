//! The metric dictionary: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` lists the same names (a test keeps the
//! two in step); README.md says what each measures and which end-to-end
//! metric a per-layer metric is expected to move.

use serde_json::{json, Value as Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Gated metrics only: the share of the median by which the metric may
    /// worsen before a change counts as a regression.
    pub bound: f64,
    /// Outcome counts only: the distance that is allowed whatever the
    /// median, which may be 0.
    pub abs_bound: f64,
}

impl Def {
    /// How far from a median of `median` the metric may move.
    pub fn allowed(&self, median: f64) -> f64 {
        (self.bound * median.abs()).max(self.abs_bound)
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        abs_bound: 0.0,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        abs_bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports all of them
/// from the untraced run.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_s", "op/s", Higher, 0.25),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("p99_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Single-layer metrics, reported by the traced run. A metric whose layer
/// a workload never calls reads 0 there.
pub const PER_LAYER: &[Def] = &[
    // Outcome counts of the window. The issue lists them end to end; they
    // are 0 on a healthy run, respectively on the two hot workloads, and
    // an end-to-end bound is a share of the parent's median, so they are
    // listed here and `repeat` holds them to a bound of their own.
    Def {
        abs_bound: 0.001,
        ..layer("fail_ratio", "ratio", Lower)
    },
    Def {
        bound: 0.02,
        abs_bound: 0.001,
        ..layer("db_rtt_per_op", "count", Lower)
    },
    layer("engine.execute_us", "us", Lower),
    layer("engine.parse_us", "us", Lower),
    layer("engine.self_us", "us", Lower),
    layer("delta.snapshot_us", "us", Lower),
    layer("delta.scan_us", "us", Lower),
    layer("delta.store_gets_per_query", "count", Lower),
    layer("delta.store_lists_per_query", "count", Lower),
    layer("cloudstore.get_us", "us", Lower),
    layer("cloudstore.list_us", "us", Lower),
    layer("cloudstore.sts_verify_per_op", "count", Lower),
    layer("cloudstore.sts_mint_per_op", "count", Lower),
    layer("cloudstore.sts_mint_us", "us", Lower),
    layer("catalog.get_table_us", "us", Lower),
    layer("catalog.resolve_for_query_us", "us", Lower),
    layer("catalog.temp_credentials_us", "us", Lower),
    layer("catalog.get_table_cold_us", "us", Lower),
    layer("catalog.list_children_us", "us", Lower),
    layer("catalog.create_table_us", "us", Lower),
    layer("catalog.grant_us", "us", Lower),
    layer("catalog.drop_us", "us", Lower),
    layer("catalog.purge_us", "us", Lower),
    layer("catalog.cache_hit_ratio", "ratio", Higher),
    layer("catalog.cold_get_ratio", "ratio", Lower),
    layer("catalog.cache_evictions_per_op", "count", Lower),
    layer("catalog.cache_stale_retries", "count", Lower),
    layer("catalog.cache_gate_waits", "count", Lower),
    layer("catalog.cache_pin_retries", "count", Lower),
    layer("catalog.cred_cache_hit_ratio", "ratio", Higher),
    layer("catalog.audit_records_per_op", "count", Lower),
    layer("catalog.write_retries", "count", Lower),
    layer("catalog.self_cold_us", "us", Lower),
    layer("catalog.drift_ratio", "ratio", Higher),
    layer("txdb.reads_per_op", "count", Lower),
    layer("txdb.scans_per_op", "count", Lower),
    layer("txdb.commits_per_op", "count", Lower),
    layer("txdb.rows_per_op", "count", Lower),
    layer("txdb.conflicts", "count", Lower),
    layer("txdb.get_us", "us", Lower),
    layer("txdb.scan_chain_us", "us", Lower),
    layer("txdb.scan200_us", "us", Lower),
    layer("txdb.commit5_us", "us", Lower),
    layer("txdb.pool_waits", "count", Lower),
    layer("txdb.live_rows", "count", Lower),
    layer("txdb.rows_per_entity", "count", Lower),
    layer("rest.handle_get_us", "us", Lower),
    layer("rest.self_get_us", "us", Lower),
    layer("rest.self_list_us", "us", Lower),
    layer("rest.error_ratio", "ratio", Lower),
    layer("serve.self_get_us", "us", Lower),
    layer("serve.self_resolve_us", "us", Lower),
    layer("serve.shed", "count", Lower),
    layer("obs.snapshot_us", "us", Lower),
    layer("obs.series", "count", Lower),
    layer("workload.gen_s", "s", Lower),
    layer("workload.populate_s", "s", Lower),
    layer("trace.overhead_ratio", "ratio", Higher),
    // The window as a whole, where the end-to-end figures are the median
    // slice's: correct ops ÷ wall, and percentiles over every sample.
    layer("bench.ops_s_window", "op/s", Higher),
    layer("bench.p50_window_us", "us", Lower),
    layer("bench.p99_window_us", "us", Lower),
    layer("bench.p999_us", "us", Lower),
    layer("bench.samples", "count", Higher),
];

/// Every metric that has a bound: the ones `repeat` compares.
pub fn gated() -> impl Iterator<Item = &'static Def> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .filter(|d| d.bound > 0.0 || d.abs_bound > 0.0)
}

/// The values one run measured, by metric name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not in the metric dictionary"
        );
        self.0.push((name, value));
    }

    /// Set when the layer was called at all.
    pub fn set_some(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Everything that was set, in dictionary order.
    pub fn measured_json(&self) -> Json {
        Json::Object(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .filter_map(|d| {
                    Some((
                        d.name.to_string(),
                        json!({"value": self.get(d.name)?, "unit": d.unit}),
                    ))
                })
                .collect(),
        )
    }

    /// `{"name": {"value": v, "unit": u}, …}` over `defs`, in their order;
    /// 0 for a metric whose layer the workload never calls.
    pub fn to_json(&self, defs: &[Def]) -> Json {
        Json::Object(
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        json!({"value": self.get(d.name).unwrap_or(0.0), "unit": d.unit}),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    /// `BENCHMARK.json` at the repository root is the contract; this table
    /// is what the program prints. They must list the same metrics.
    #[test]
    fn benchmark_json_lists_exactly_this_dictionary() {
        let manifest: Json = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = manifest[key].as_array().expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key}: count");
            for (l, d) in listed.iter().zip(defs) {
                assert_eq!(l["name"].as_str(), Some(d.name), "{key}");
                assert_eq!(l["unit"].as_str(), Some(d.unit), "{key}: {}", d.name);
                assert_eq!(
                    l["better"].as_str(),
                    Some(d.better.as_str()),
                    "{key}: {}",
                    d.name
                );
                if key == "end_to_end" {
                    assert_eq!(l["bound"].as_f64(), Some(d.bound), "bound of {}", d.name);
                }
            }
        }
        let workloads: Vec<&str> = manifest["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .filter_map(|w| w["name"].as_str())
            .collect();
        let ours: Vec<&str> = crate::gen::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
