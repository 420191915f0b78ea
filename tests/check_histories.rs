//! Interleaving explorer + snapshot-isolation checker suite (`uc-check`).
//!
//! Every run is a pure function of `(seed, mode, workload shape)`: the
//! scheduler trace and the recorded history are asserted byte-identical
//! across re-runs, a fixed seed bank must replay clean, and a deliberately
//! weakened transaction commit check must be flagged as a serializability
//! violation — proving the checker has teeth.
//!
//! Determinism mirrors the chaos suite: the seed is printed as
//! `UC_SCHED_SEED=<n>` and can be pinned via that environment variable.

use proptest::prelude::*;

use uc_check::checker::Violation;
use uc_check::explorer::{run_one, sched_seed, RunConfig};
use uc_cloudstore::sched::SchedMode;

const MODES: [SchedMode; 2] = [SchedMode::RandomWalk, SchedMode::Pct { depth: 3 }];

// ---------------------------------------------------------------------
// 1. Same seed => byte-identical interleaving and history
// ---------------------------------------------------------------------

#[test]
fn same_seed_reproduces_byte_identical_run() {
    for mode in MODES {
        for seed in [7u64, 424242] {
            let cfg = RunConfig::new(seed, mode);
            let a = run_one(&cfg);
            let b = run_one(&cfg);
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "seed {seed} mode {mode:?} diverged across identical runs"
            );
        }
    }
}

#[test]
fn different_seeds_explore_different_interleavings() {
    let a = run_one(&RunConfig::new(1, SchedMode::RandomWalk));
    let b = run_one(&RunConfig::new(2, SchedMode::RandomWalk));
    assert_ne!(a.schedule, b.schedule, "distinct seeds produced one schedule");
}

#[test]
fn pct_and_random_walk_schedules_differ() {
    let a = run_one(&RunConfig::new(5, SchedMode::RandomWalk));
    let b = run_one(&RunConfig::new(5, SchedMode::Pct { depth: 3 }));
    assert_ne!(a.schedule, b.schedule, "modes produced identical schedules");
}

// ---------------------------------------------------------------------
// 2. Seed bank: >= 100 explorer runs must replay clean
// ---------------------------------------------------------------------

#[test]
fn hundred_seeded_runs_pass_clean() {
    let base = sched_seed(0);
    let mut runs = 0usize;
    for offset in 0..50u64 {
        for mode in MODES {
            let out = run_one(&RunConfig::new(base.wrapping_add(offset), mode));
            assert!(
                out.violations.is_empty(),
                "seed {} mode {mode:?} violated: {:#?}\nhistory:\n{}",
                base.wrapping_add(offset),
                out.violations,
                out.history.canonical_text()
            );
            runs += 1;
        }
    }
    assert!(runs >= 100);
}

// ---------------------------------------------------------------------
// 3. Teeth: weakened commit validation must be flagged
// ---------------------------------------------------------------------

#[test]
fn weakened_commit_check_is_flagged_as_violation() {
    let base = sched_seed(0);
    let mut all: Vec<Violation> = Vec::new();
    for offset in 0..8u64 {
        let mut cfg = RunConfig::new(base.wrapping_add(offset), SchedMode::RandomWalk);
        cfg.weaken_commit = true;
        all.extend(run_one(&cfg).violations);
        if !all.is_empty() {
            break;
        }
    }
    assert!(
        !all.is_empty(),
        "weakened commit validation produced no violations across 8 seeds"
    );
    // The signature of lost conflict detection: two writers committing the
    // same version, or an effect the sequential model cannot reproduce.
    assert!(
        all.iter().any(|v| matches!(
            v,
            Violation::DuplicateCommitVersion { .. }
                | Violation::WriteMismatch { .. }
                | Violation::CommitOrderMismatch { .. }
        )),
        "expected a serializability-class violation, got {all:#?}"
    );
}

// ---------------------------------------------------------------------
// 4. UC_SCHED_SEED pins the run
// ---------------------------------------------------------------------

#[test]
fn uc_sched_seed_env_overrides_default() {
    std::env::set_var("UC_SCHED_SEED", "31337");
    let seed = sched_seed(0);
    std::env::remove_var("UC_SCHED_SEED");
    assert_eq!(seed, 31337);
    let a = run_one(&RunConfig::new(seed, SchedMode::Pct { depth: 3 }));
    let b = run_one(&RunConfig::new(seed, SchedMode::Pct { depth: 3 }));
    assert_eq!(a.fingerprint(), b.fingerprint());
}

// ---------------------------------------------------------------------
// 5. History shape sanity on a real run
// ---------------------------------------------------------------------

#[test]
fn histories_are_complete_and_commit_versions_unique() {
    let cfg = RunConfig::new(99, SchedMode::RandomWalk);
    let out = run_one(&cfg);
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
    assert_eq!(out.history.ops.len(), cfg.clients * cfg.ops_per_client);
    let mut versions: Vec<u64> =
        out.history.ops.iter().filter_map(|o| o.commit.map(|(v, _)| v)).collect();
    let before = versions.len();
    versions.sort_unstable();
    versions.dedup();
    assert_eq!(versions.len(), before, "duplicate commit versions in a clean run");
    // Every op carries at least one observed snapshot version.
    assert!(out.history.ops.iter().all(|o| !o.reads.is_empty()));
}

// ---------------------------------------------------------------------
// 6. Property: arbitrary seeds replay clean in both modes
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn explorer_runs_clean_for_arbitrary_seeds(seed in 0u64..1_000_000, mode in 0usize..2) {
        let out = run_one(&RunConfig::new(seed, MODES[mode]));
        prop_assert!(
            out.violations.is_empty(),
            "seed {} mode {:?}: {:#?}",
            seed,
            MODES[mode],
            out.violations
        );
    }
}

// ---------------------------------------------------------------------
// 7. Adversarial telemetry flushes must not move the verdict
// ---------------------------------------------------------------------

/// Flusher clients drain the sharded audit lanes and fold the metric
/// stripes at scheduler-chosen points *between* the real clients' commit
/// steps (the `audit.flush` / `obs.fold` yield points). The merge must be
/// a pure observer: every seed that runs clean without flushers runs
/// clean with them, and the checker's history is identical op for op.
#[test]
fn adversarial_flushes_do_not_change_verdicts() {
    let base = sched_seed(0);
    for offset in 0..6u64 {
        for mode in MODES {
            let seed = base.wrapping_add(offset);
            let plain = run_one(&RunConfig::new(seed, mode));
            let mut cfg = RunConfig::new(seed, mode);
            cfg.flush_clients = 2;
            let flushed = run_one(&cfg);
            // The extra clients reshuffle the interleaving (that's the
            // point), so histories differ run to run — but the checker's
            // verdict may not: clean stays clean.
            assert!(
                plain.violations.is_empty(),
                "seed {seed} mode {mode:?} (no flushers): {:#?}",
                plain.violations
            );
            assert!(
                flushed.violations.is_empty(),
                "seed {seed} mode {mode:?} (2 flushers): {:#?}",
                flushed.violations
            );
            // The client-visible history shape must be unperturbed: the
            // flushers add no ops and steal no commit versions.
            assert_eq!(
                flushed.history.ops.len(),
                cfg.clients * cfg.ops_per_client,
                "seed {seed} mode {mode:?}: flushers leaked ops into the history"
            );
            // And the flushers must actually have run under the scheduler:
            // their steps appear in the interleaving trace.
            assert_ne!(
                flushed.schedule, plain.schedule,
                "seed {seed} mode {mode:?}: flush clients never entered the schedule"
            );
        }
    }
}

/// A flush-heavy run is still deterministic: same seed, same flusher
/// count → byte-identical fingerprint.
#[test]
fn flush_heavy_runs_replay_byte_identical() {
    let mut cfg = RunConfig::new(4242, SchedMode::Pct { depth: 3 });
    cfg.flush_clients = 3;
    let a = run_one(&cfg);
    let b = run_one(&cfg);
    assert_eq!(a.fingerprint(), b.fingerprint());
}

// ---------------------------------------------------------------------
// 8. Adversarial flight-recorder freezes must not move the verdict
// ---------------------------------------------------------------------

/// Freeze clients snapshot the flight recorder at scheduler-chosen points
/// (the `flight.freeze` yield point runs before the rings are read), so a
/// freeze can land between a commit and the audit feed that describes it.
/// The freeze is a pure observer — clean stays clean, the history keeps
/// exactly the real clients' ops — and the recorder's content-sorted merge
/// keeps the dump itself independent of where the schedule put the freeze.
#[test]
fn adversarial_flight_freezes_do_not_change_verdicts() {
    let base = sched_seed(0);
    for offset in 0..6u64 {
        for mode in MODES {
            let seed = base.wrapping_add(offset);
            let plain = run_one(&RunConfig::new(seed, mode));
            let mut cfg = RunConfig::new(seed, mode);
            cfg.freeze_clients = 2;
            let frozen = run_one(&cfg);
            assert!(
                plain.violations.is_empty(),
                "seed {seed} mode {mode:?} (no freezers): {:#?}",
                plain.violations
            );
            assert!(
                frozen.violations.is_empty(),
                "seed {seed} mode {mode:?} (2 freezers): {:#?}",
                frozen.violations
            );
            assert_eq!(
                frozen.history.ops.len(),
                cfg.clients * cfg.ops_per_client,
                "seed {seed} mode {mode:?}: freezers leaked ops into the history"
            );
            assert_ne!(
                frozen.schedule, plain.schedule,
                "seed {seed} mode {mode:?}: freeze clients never entered the schedule"
            );
        }
    }
}

/// A freeze-heavy run is still deterministic: same seed, same freezer
/// count → byte-identical fingerprint (schedule + canonical history).
#[test]
fn freeze_heavy_runs_replay_byte_identical() {
    let mut cfg = RunConfig::new(4242, SchedMode::Pct { depth: 3 });
    cfg.flush_clients = 2;
    cfg.freeze_clients = 2;
    let a = run_one(&cfg);
    let b = run_one(&cfg);
    assert_eq!(a.fingerprint(), b.fingerprint());
}

/// Pinned replay of the proptest corpus case in
/// `tests/check_histories.proptest-regressions` (the vendored proptest
/// shim is generator-only and does not read that file, so the case is
/// replayed here verbatim).
#[test]
fn regression_seed_734003_pct_runs_clean() {
    let out = run_one(&RunConfig::new(734_003, SchedMode::Pct { depth: 3 }));
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
}

// ---------------------------------------------------------------------
// 9. Subtree adversary: cascades vs. deep creates vs. range listings
// ---------------------------------------------------------------------

/// ≥100 seeded runs of the subtree-adversary schedule: clients racing
/// cascading `DropSchema` (one range scan over the subtree's tree-key
/// range) against recreate-and-deep-create and range-scan listings on the
/// same schema. Every run must satisfy the snapshot checker *and* the
/// structural sweep `run_one` appends — tree rows 1:1 with active
/// entities, every tree key's ancestor prefixes present (no orphan at any
/// prefix), and the path index prefix-free (one asset per path).
#[test]
fn subtree_adversary_hundred_seeded_runs_hold_invariants() {
    let base = sched_seed(0);
    let mut runs = 0usize;
    let mut cascades = 0usize;
    for offset in 0..50u64 {
        for mode in MODES {
            let seed = base.wrapping_add(offset);
            let mut cfg = RunConfig::new(seed, mode);
            cfg.clients = 2;
            cfg.subtree_clients = 2;
            cfg.ops_per_client = 8;
            let out = run_one(&cfg);
            assert!(
                out.violations.is_empty(),
                "seed {seed} mode {mode:?} subtree adversary violated: {:#?}\nhistory:\n{}",
                out.violations,
                out.history.canonical_text()
            );
            assert_eq!(
                out.history.ops.len(),
                (cfg.clients + cfg.subtree_clients) * cfg.ops_per_client,
                "subtree clients must feed the history like any client"
            );
            // Count multi-entity cascades (schema + at least one table died
            // in one drop) to prove the schedule has teeth.
            cascades += out
                .history
                .ops
                .iter()
                .filter(|o| {
                    o.resp
                        .strip_prefix("ok:dropped:")
                        .and_then(|n| n.parse::<usize>().ok())
                        .is_some_and(|n| n >= 2)
                })
                .count();
            runs += 1;
        }
    }
    assert!(runs >= 100);
    assert!(
        cascades > 0,
        "the adversary never landed a multi-entity cascade across {runs} runs — the schedule is toothless"
    );
}

/// Pinned replays of subtree-adversary schedules in which a cascade lands
/// between a request's name resolution and its ancestor walk. When the
/// walk re-read the ancestors by parent id through the (since advanced)
/// cache, the request died with `database error: dangling parent` — a
/// listing in the first two, a `drop_table` in the third. A request's
/// ancestors are the chain it resolved once.
#[test]
fn a_cascade_under_a_resolved_chain_never_dangles() {
    for (seed, mode) in [
        (77, SchedMode::RandomWalk),
        (108, SchedMode::Pct { depth: 3 }),
        (267, SchedMode::RandomWalk),
    ] {
        let mut cfg = RunConfig::new(seed, mode);
        cfg.clients = 2;
        cfg.subtree_clients = 2;
        cfg.ops_per_client = 8;
        let out = run_one(&cfg);
        assert!(
            out.violations.is_empty(),
            "seed {seed} mode {mode:?}: {:#?}\nhistory:\n{}",
            out.violations,
            out.history.canonical_text()
        );
    }
}

/// The same race for requests that address an asset **by id** (or by
/// storage path, or as a view's dependency): a cascade dropping the
/// asset's schema lands, under the seeded scheduler, at every yield point
/// of the reads. A by-id chain is one cached read at one version — the
/// pointer, then the chain at the key it names — so the only answers are
/// the asset with its whole chain, or `NotFound`. When the chain was walked
/// up parent by parent, each level its own read, a cascade between two
/// levels surfaced as `database error: dangling parent`.
#[test]
fn a_cascade_under_a_by_id_chain_is_not_found_never_dangling() {
    use uc_catalog::authz::Privilege;
    use uc_catalog::service::crud::TableSpec;
    use uc_catalog::service::{Context, UnityCatalog};
    use uc_catalog::{FullName, UcError};
    use uc_cloudstore::sched::Scheduler;
    use uc_cloudstore::AccessLevel;
    use uc_delta::value::{DataType, Field, Schema};

    let base = sched_seed(0);
    let cols = || Schema::new(vec![Field::new("x", DataType::Int)]);
    let name = |n: &str| FullName::parse(n).unwrap();
    let mut not_found = 0usize;
    for offset in 0..40u64 {
        for mode in MODES {
            let seed = base.wrapping_add(offset);
            let uc = UnityCatalog::in_memory();
            let ms = uc.create_metastore("root", "check", "us-west-2").unwrap();
            let ctx = Context::user("root");
            let root = uc.object_store().create_bucket("lake");
            uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
            uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
            uc.create_catalog(&ctx, &ms, "main").unwrap();
            uc.create_schema(&ctx, &ms, "main", "keep").unwrap();
            uc.create_schema(&ctx, &ms, "main", "doomed").unwrap();
            let table = uc.create_table(&ctx, &ms, TableSpec::managed("main.doomed.t", cols()).unwrap()).unwrap();
            let view = name("main.keep.v");
            uc.create_view(&ctx, &ms, &view, "SELECT x FROM main.doomed.t", cols(), &[name("main.doomed.t")]).unwrap();
            let path = table.storage_path.clone().unwrap();

            // Each by-id entry point, twice, so the cascade can land before,
            // between and after them; all on one node, whose cache the drop
            // writes through.
            let reads: Vec<Box<dyn Fn() -> Result<(), UcError> + Send>> = {
                let by_id = |f: fn(&UnityCatalog, &Context, &uc_catalog::Uid, &uc_catalog::Uid) -> Result<(), UcError>| {
                    let (uc, ctx, ms, id) = (uc.clone(), ctx.clone(), ms.clone(), table.id.clone());
                    Box::new(move || f(&uc, &ctx, &ms, &id)) as Box<dyn Fn() -> Result<(), UcError> + Send>
                };
                let (uc_p, ctx_p, ms_p) = (uc.clone(), ctx.clone(), ms.clone());
                let (uc_v, ctx_v, ms_v) = (uc.clone(), ctx.clone(), ms.clone());
                vec![
                    by_id(|uc, ctx, ms, id| uc.get_entity_by_id(ctx, ms, id).map(drop)),
                    by_id(|uc, ctx, ms, id| uc.renew_read_credential(ctx, ms, id).map(drop)),
                    by_id(|uc, ctx, ms, id| uc.commit_table(ctx, ms, id, 0, bytes::Bytes::from_static(b"{}"))),
                    by_id(|uc, ctx, ms, id| uc.authorize_batch(ctx, ms, &[(id.clone(), Privilege::Select)]).map(drop)),
                    Box::new(move || uc_p.temp_credentials_for_path(&ctx_p, &ms_p, &path, AccessLevel::Read).map(drop)),
                    Box::new(move || uc_v.resolve_for_query(&ctx_v, &ms_v, std::slice::from_ref(&view), false).map(drop)),
                ]
            };
            let sched = Scheduler::new(seed, 2, mode, 256);
            let dropper = {
                let (uc, ctx, ms) = (uc.clone(), ctx.clone(), ms.clone());
                sched.spawn(0, move || uc.drop_securable(&ctx, &ms, &FullName::parse("main.doomed").unwrap(), "schema"))
            };
            let reader = sched.spawn(1, move || {
                reads.iter().chain(reads.iter()).map(|read| read()).collect::<Vec<Result<(), UcError>>>()
            });
            sched.run_to_completion();
            assert_eq!(dropper.join().unwrap().unwrap(), 2, "schema + table");
            for (i, result) in reader.join().unwrap().into_iter().enumerate() {
                match result {
                    Ok(()) | Err(UcError::CommitConflict { .. }) => {}
                    Err(UcError::NotFound(_)) => not_found += 1,
                    Err(other) => panic!("seed {seed} mode {mode:?} read {i}: {other}"),
                }
            }
        }
    }
    assert!(not_found > 0, "the cascade never landed before a read: the schedule is toothless");
}

/// The adversarial schedule replays byte-identically from its seed, like
/// every other explorer configuration.
#[test]
fn subtree_adversary_runs_replay_byte_identical() {
    let mut cfg = RunConfig::new(24_601, SchedMode::Pct { depth: 3 });
    cfg.subtree_clients = 3;
    let a = run_one(&cfg);
    let b = run_one(&cfg);
    assert_eq!(a.fingerprint(), b.fingerprint());
}

// ---------------------------------------------------------------------
// 10. The structural verifier has teeth
// ---------------------------------------------------------------------

/// A freshly created metastore verifies clean; an active entity whose
/// tree row is missing is exactly one `TreeIndexMismatch`, and so is a
/// trash row for an entity that is still live.
#[test]
fn verify_structure_flags_a_missing_tree_row() {
    use uc_catalog::model::keys;
    use uc_catalog::service::{Context, UnityCatalog};
    use uc_check::checker::verify_structure;

    let uc = UnityCatalog::in_memory();
    let ms = uc.create_metastore("admin", "m", "us-west-2").unwrap();
    assert!(verify_structure(uc.db(), &ms).is_empty(), "fresh metastore");

    uc_check::workload::seed_world(&uc, &Context::user("admin"), &ms);
    assert!(verify_structure(uc.db(), &ms).is_empty(), "seeded metastore");

    let table_key = keys::tree_key(
        &ms,
        &[("catalog", "main"), ("schema", "s"), ("relation", "seed0")],
    );
    let mut tx = uc.db().begin_write();
    let row = tx.get(keys::T_TREE, &table_key).expect("seeded table");
    tx.delete(keys::T_TREE, &table_key);
    tx.commit().unwrap();
    let violations = verify_structure(uc.db(), &ms);
    assert!(
        matches!(violations.as_slice(), [Violation::TreeIndexMismatch { .. }]),
        "expected exactly one tree-index mismatch, got {violations:?}"
    );

    // Put back, the structure is whole again; a copy of the live row in
    // the trash is one mismatch of its own.
    let id = uc_catalog::Entity::decode(&row).unwrap().id;
    let mut tx = uc.db().begin_write();
    tx.put(keys::T_TREE, &table_key, row.clone());
    tx.commit().unwrap();
    assert!(verify_structure(uc.db(), &ms).is_empty(), "repaired metastore");
    let mut tx = uc.db().begin_write();
    tx.put(keys::T_TRASH, &keys::ent_key(&ms, &id), row);
    tx.commit().unwrap();
    let violations = verify_structure(uc.db(), &ms);
    assert!(
        matches!(violations.as_slice(), [Violation::TreeIndexMismatch { why, .. }] if why.contains("trash")),
        "expected exactly one trash mismatch, got {violations:?}"
    );
}

// ---------------------------------------------------------------------
// 11. Reclamation adversary: a reader never loses its snapshot
// ---------------------------------------------------------------------

/// Snapshot clients hold a database snapshot across yields while the
/// clients commit, and every commit reclaims versions and dead rows below
/// the horizon. Whatever the interleaving, the held snapshot re-reads
/// exactly what it first read, and the clients' verdicts stay clean.
#[test]
fn snapshot_readers_never_lose_their_snapshot() {
    let base = sched_seed(0);
    for offset in 0..6u64 {
        for mode in MODES {
            let seed = base.wrapping_add(offset);
            let mut cfg = RunConfig::new(seed, mode);
            cfg.snapshot_clients = 2;
            cfg.subtree_clients = 1;
            let out = run_one(&cfg);
            assert!(out.violations.is_empty(), "seed {seed} mode {mode:?}: {:#?}", out.violations);
            assert_eq!(
                out.history.ops.len(),
                (cfg.clients + cfg.subtree_clients) * cfg.ops_per_client,
                "snapshot readers add no ops"
            );
        }
    }
}

/// Teeth: reclamation that ignores open snapshots is caught as a lost
/// snapshot — and only the held readers can catch it, since no client's
/// own read spans a commit.
#[test]
fn weakened_gc_is_flagged_as_a_lost_snapshot() {
    let base = sched_seed(0);
    let mut all: Vec<Violation> = Vec::new();
    for offset in 0..8u64 {
        let mut cfg = RunConfig::new(base.wrapping_add(offset), SchedMode::RandomWalk);
        cfg.weaken_gc = true;
        cfg.snapshot_clients = 1;
        all.extend(run_one(&cfg).violations);
        if !all.is_empty() {
            break;
        }
    }
    assert!(!all.is_empty(), "reclamation ignoring open snapshots went undetected across 8 seeds");
    assert!(
        all.iter().all(|v| matches!(v, Violation::SnapshotLost { .. })),
        "expected lost snapshots only, got {all:#?}"
    );
}

#[test]
fn snapshot_reader_runs_replay_byte_identical() {
    let mut cfg = RunConfig::new(8_128, SchedMode::Pct { depth: 3 });
    cfg.snapshot_clients = 2;
    let a = run_one(&cfg);
    let b = run_one(&cfg);
    assert_eq!(a.fingerprint(), b.fingerprint());
}

// ---------------------------------------------------------------------
// 12. The change feed is the commit history
// ---------------------------------------------------------------------

/// The feed rule on a hand-driven history of one committed create: clean
/// as committed; a row that forgets a key its commit wrote, or names one it
/// did not, is one `FeedMismatch` at that version; and so is a window that
/// no longer ends at the last commit.
#[test]
fn the_feed_rule_flags_a_row_that_misnames_its_commit_or_is_missing() {
    use uc_catalog::model::feed::{self, FeedRow, T_FEED};
    use uc_catalog::service::{Context, UnityCatalog};
    use uc_check::checker::check_with_feed;
    use uc_check::model::ModelOp;
    use uc_check::workload::{exec_op, initial_model, seed_world};
    use uc_check::{History, OpRecord};

    let uc = UnityCatalog::in_memory();
    let ms = uc.create_metastore("admin", "m", "us-west-2").unwrap();
    let ctx = Context::user("admin");
    seed_world(&uc, &ctx, &ms);
    let base = uc_catalog::cache::read_ms_version(&uc.db().begin_read(), &ms);
    let op = ModelOp::CreateTable { schema: "s".into(), name: "t1".into(), path: "s3://lake/ext/s/t1".into() };
    let resp = exec_op(&uc, &ctx, &ms, &op);
    assert_eq!(resp, "ok:table:t1");
    let commit = Some((base + 1, uc.db().current_csn()));
    let history = History {
        base_version: base,
        ops: vec![OpRecord { seq: 0, client: 0, op, resp, reads: vec![base], commit, aborts: vec![] }],
    };
    let check = || check_with_feed(&history, &initial_model(), uc.db(), &ms);
    assert_eq!(check(), vec![], "the feed as the write protocol left it");

    let key = feed::key(&ms, base + 1);
    let row = FeedRow::decode(&uc.db().begin_read().get(T_FEED, &key).unwrap()).unwrap();
    assert_eq!((row.tree.len(), row.path.len()), (1, 1), "the table's tree row and its path");
    let rewrite = |row: Option<FeedRow>| {
        let mut tx = uc.db().begin_write();
        match row {
            Some(row) => tx.put(T_FEED, &key, row.encode()),
            None => tx.delete(T_FEED, &key),
        }
        tx.commit().unwrap();
    };
    let flagged_at = |what: &str| {
        let violations = check();
        assert!(
            matches!(violations.as_slice(), [Violation::FeedMismatch { version, .. }] if *version == base + 1),
            "{what}: expected one feed mismatch at {}, got {violations:#?}",
            base + 1
        );
    };
    rewrite(Some(FeedRow { path: vec![], ..row.clone() }));
    flagged_at("a forgotten path key");
    let mut extra = row.clone();
    extra.tree.push(uc_catalog::model::keys::tree_key(&ms, &[("catalog", "main")]));
    rewrite(Some(extra));
    flagged_at("a key the commit did not write");
    rewrite(Some(row));
    assert_eq!(check(), vec![], "restored");
    rewrite(None);
    flagged_at("a missing last row");
}
