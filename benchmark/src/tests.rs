//! Every workload at 1/100 scale with all reply checks on.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use crate::bench;
use crate::gen::{self, Call, Expect, Op, Sizes, Workload};
use crate::run::{timed_window, Window, LEAD_IN_SHARE};
use crate::world::World;

/// Worlds draw their ids from one process-wide stream, which the
/// repeatability tests re-pin; tests that build a world take turns.
static WORLDS: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    WORLDS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn sequences(w: Workload, sizes: &Sizes, seed: u64, clients: usize) -> Vec<(usize, Vec<Op>)> {
    (0..clients)
        .map(|c| (c, gen::ops(w, sizes, seed, c)))
        .collect()
}

fn run_small(w: Workload, seed: u64, clients: usize) -> (World, Window) {
    let sizes = Sizes::small(w);
    uc_cloudstore::seed::reseed(seed);
    let world = World::build(w, &sizes);
    let window = timed_window(&world, sequences(w, &sizes, seed, clients));
    (world, window)
}

fn expected_ops(w: Workload, clients: usize) -> u64 {
    let sizes = Sizes::small(w);
    let per_client = match w {
        Workload::WriteMix => {
            sizes.lifecycles() * gen::LIFECYCLE_OPS + sizes.lifecycles() / gen::PURGE_EVERY
        }
        _ => sizes.ops_per_client + sizes.ops_per_client / LEAD_IN_SHARE,
    };
    (per_client * clients) as u64
}

#[test]
fn every_workload_runs_clean_on_one_and_two_clients() {
    let _turn = serial();
    for w in Workload::ALL {
        for clients in [1, 2] {
            let (_, window) = run_small(w, 11, clients);
            assert_eq!(
                window.failed,
                0,
                "{} on {clients} client(s): fail_ratio must be 0",
                w.name()
            );
            assert_eq!(
                window.attempted,
                expected_ops(w, clients),
                "{}: fixed-length sequence",
                w.name()
            );
            // Every op but the lead-in tenth (write_mix: round) is timed.
            let timed = match w {
                Workload::WriteMix => {
                    window.attempted * Sizes::small(w).rounds() as u64
                        / (Sizes::small(w).rounds() as u64 + 1)
                }
                _ => (Sizes::small(w).ops_per_client * clients) as u64,
            };
            assert_eq!(window.hist.count(), timed, "{}", w.name());
        }
    }
}

#[test]
fn single_client_counts_repeat_exactly() {
    let _turn = serial();
    for w in Workload::ALL {
        let (_, a) = run_small(w, 5, 1);
        let (_, b) = run_small(w, 5, 1);
        assert_eq!(
            a.counters,
            b.counters,
            "{}: every counter delta must repeat",
            w.name()
        );
        assert_eq!(
            (
                a.attempted,
                a.failed,
                a.rest_calls,
                a.rest_errors,
                a.queries
            ),
            (
                b.attempted,
                b.failed,
                b.rest_calls,
                b.rest_errors,
                b.queries
            ),
            "{}",
            w.name()
        );
    }
}

#[test]
fn predicted_zeros_hold() {
    let _turn = serial();
    for w in [Workload::QueryHot, Workload::MetaHot] {
        let (_, window) = run_small(w, 3, 2);
        let c = window.counters;
        assert_eq!(
            c.db_round_trips(),
            0,
            "{}: a warm hot workload never reaches the database",
            w.name()
        );
        assert_eq!(
            c.cache_misses,
            0,
            "{}: everything fits the metadata cache",
            w.name()
        );
        assert_eq!(
            c.cred_misses,
            0,
            "{}: everything fits the credential cache",
            w.name()
        );
        assert_eq!(c.sts_mints, 0, "{}", w.name());
    }
    let (_, cold) = run_small(Workload::MetaCold, 3, 2);
    assert!(
        cold.counters.cache_misses > 0 && cold.counters.cache_evictions > 0,
        "meta_cold must miss and evict"
    );
    assert!(cold.counters.db_reads > 0 && cold.counters.db_scans > 0);
    assert_eq!(cold.counters.db_commits, 0, "meta_cold is read-only");
    let (_, writes) = run_small(Workload::WriteMix, 3, 2);
    assert!(writes.counters.db_commits > 0 && writes.counters.sts_mints > 0);
    for (w, window) in [(Workload::MetaCold, &cold), (Workload::WriteMix, &writes)] {
        assert_eq!(window.queries, 0, "{} issues no SQL", w.name());
        assert_eq!(
            window.counters.store_gets,
            0,
            "{} reads no table data",
            w.name()
        );
    }
}

/// Sum every `base.by_tenant{label}` counter of a metrics snapshot per
/// base name, next to the unlabeled global counter of that base.
fn family_sums(snapshot: &str) -> BTreeMap<String, (u64, Option<u64>)> {
    let mut out: BTreeMap<String, (u64, Option<u64>)> = BTreeMap::new();
    let counters: Vec<(&str, u64)> = snapshot
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (name, kind, value) = (parts.next()?, parts.next()?, parts.next()?);
            (kind == "counter").then(|| value.parse().ok().map(|v| (name, v)))?
        })
        .collect();
    for (name, value) in &counters {
        if let Some((base, _label)) = name.split_once(".by_tenant{") {
            out.entry(base.to_string()).or_default().0 += value;
        }
    }
    for (base, entry) in out.iter_mut() {
        // The vending path labels STS mints under its own name; their
        // global counter is the STS service's.
        let global = if base == "catalog.sts.mint.count" {
            "sts.mint.count"
        } else {
            base.as_str()
        };
        entry.1 = counters
            .iter()
            .find(|(name, _)| *name == global)
            .map(|(_, v)| *v);
    }
    out
}

#[test]
fn per_tenant_family_sums_equal_the_global_counters() {
    let _turn = serial();
    for w in [Workload::MetaHot, Workload::WriteMix] {
        let (world, _) = run_small(w, 9, 2);
        let sums = family_sums(&world.uc.metrics_snapshot());
        assert!(
            sums.len() >= 3,
            "{}: expected several labeled families, got {sums:?}",
            w.name()
        );
        for (base, (labeled, global)) in sums {
            // Registering the principals is an account-level write: those
            // commits, and only those, carry no tenant.
            let untenanted = if base == "txdb.commit.count" {
                gen::USERS as u64
            } else {
                0
            };
            assert_eq!(
                Some(labeled + untenanted),
                global,
                "{}: {base} per-tenant cells must sum to the global",
                w.name()
            );
        }
    }
}

/// The checker has teeth: replies that do not match a (deliberately
/// wrong) expectation are counted, one failure per wrong expectation.
#[test]
fn a_wrong_expectation_is_counted_as_a_failure() {
    let _turn = serial();
    for w in [Workload::QueryHot, Workload::MetaHot, Workload::MetaCold] {
        let sizes = Sizes {
            ring: 400,
            ops_per_client: 400,
            ..Sizes::small(w)
        };
        let world = World::build(w, &sizes);
        let mut ops = gen::ops(w, &sizes, 21, 0);
        for op in ops.iter_mut().step_by(7) {
            op.expect = match &op.expect {
                Expect::Rows { n, masked } => Expect::Rows {
                    n: n + 1,
                    masked: *masked,
                },
                Expect::Table(t) => Expect::Table((t + 1) % sizes.tables() as u32),
                Expect::Resolved { tables, creds } => Expect::Resolved {
                    tables: *tables,
                    creds: !creds,
                },
                Expect::Scope(t) => Expect::Scope((t + 1) % sizes.tables() as u32),
                Expect::GroupGrant(_) => Expect::GroupGrant("MODIFY"),
                Expect::Listed(n) => Expect::Listed(n - 1),
                Expect::Status(s) => Expect::Status(s + 1),
                other => other.clone(),
            };
        }
        // Every seventh op of the ring is spoiled, and the lead-in replays
        // the ring's first tenth once more.
        let issued = sizes.ops_per_client + sizes.ops_per_client / LEAD_IN_SHARE;
        let spoiled = (0..issued)
            .filter(|i| (i % sizes.ring).is_multiple_of(7))
            .count() as u64;
        let window = timed_window(&world, vec![(0, ops)]);
        assert_eq!(
            window.failed,
            spoiled,
            "{}: each spoiled expectation is one failure",
            w.name()
        );
    }
    // write_mix: a lifecycle whose create expects another name, and one
    // whose revoked grantee is expected to still get a token.
    let sizes = Sizes {
        ops_per_client: 20,
        ..Sizes::small(Workload::WriteMix)
    };
    let world = World::build(Workload::WriteMix, &sizes);
    let mut ops = gen::ops(Workload::WriteMix, &sizes, 21, 0);
    ops[0].expect = Expect::Created("not_this_name".into());
    let denied = ops
        .iter()
        .position(|o| o.expect == Expect::Status(403))
        .expect("a denied vend");
    ops[denied].expect = Expect::MyScope;
    assert!(matches!(
        ops[denied].call,
        Call::Rest {
            method: "credentials.temporary",
            ..
        }
    ));
    let window = timed_window(&world, vec![(0, ops)]);
    assert_eq!(window.failed, 2);
}

fn test_out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(name)
}

#[test]
fn traced_run_attributes_time_to_the_layers_each_workload_uses() {
    let _turn = serial();
    let out = test_out_dir("test-traces");
    for w in Workload::ALL {
        let sizes = Sizes::small(w);
        let outcome = bench::run(w, &sizes, 13, 1, true, &out, std::time::Instant::now());
        assert_eq!(outcome.failed, 0, "{}", w.name());
        let v = &outcome.values;
        let has = |name: &str| v.get(name).is_some();
        assert!(
            v.get("trace.overhead_ratio").is_some_and(|r| r > 0.0),
            "{}",
            w.name()
        );
        assert!(has("txdb.get_us") && has("txdb.commit5_us") && has("cloudstore.sts_mint_us"));
        match w {
            Workload::QueryHot => {
                let execute = v.get("engine.execute_us").expect("engine.execute_us");
                let parts: f64 = [
                    "engine.self_us",
                    "catalog.resolve_for_query_us",
                    "delta.snapshot_us",
                    "delta.scan_us",
                ]
                .iter()
                .map(|n| v.get(n).unwrap_or_else(|| panic!("{n} missing")))
                .sum();
                // Medians of parts against the median of the whole: loose
                // here, checked to 5 % at full scale (README).
                assert!(
                    (parts / execute - 1.0).abs() < 0.35,
                    "parts {parts} vs execute {execute}"
                );
                assert!(
                    has("cloudstore.get_us") && has("cloudstore.list_us") && has("engine.parse_us")
                );
                assert!(!has("rest.handle_get_us") && !has("catalog.create_table_us"));
            }
            Workload::MetaHot | Workload::MetaCold => {
                assert!(
                    has("rest.handle_get_us")
                        && has("rest.self_get_us")
                        && has("catalog.get_table_us")
                );
                assert!(has("serve.self_get_us") && has("serve.self_resolve_us"));
                assert_eq!(has("catalog.get_table_cold_us"), w == Workload::MetaCold);
                assert_eq!(has("rest.self_list_us"), w == Workload::MetaCold);
                assert_eq!(has("txdb.scan200_us"), w == Workload::MetaCold);
            }
            Workload::WriteMix => {
                for n in [
                    "catalog.create_table_us",
                    "catalog.grant_us",
                    "catalog.drop_us",
                    "catalog.get_table_us",
                ] {
                    assert!(has(n), "{n} missing on write_mix");
                }
            }
        }
        if w != Workload::QueryHot {
            for n in [
                "engine.execute_us",
                "engine.parse_us",
                "engine.self_us",
                "delta.snapshot_us",
                "delta.scan_us",
            ] {
                assert!(
                    !has(n),
                    "{}: {n} must be absent, the layer is never called",
                    w.name()
                );
            }
        }
        // Every span is one JSON object with the documented keys.
        let trace = std::fs::read_to_string(out.join(format!("{}.trace.jsonl", w.name())))
            .expect("trace file");
        assert!(trace.lines().count() > 100);
        for line in trace.lines().take(200) {
            let span: serde_json::Value = serde_json::from_str(line).expect("span parses");
            for key in ["req", "span", "parent", "start_ns", "end_ns"] {
                assert!(span[key].as_u64().is_some(), "{key} in {line}");
            }
            assert!(span["layer"].as_str().is_some() && span["name"].as_str().is_some());
            assert!(span["end_ns"].as_u64() >= span["start_ns"].as_u64());
        }
    }
}
