//! Concurrency stress tests for the sharded metadata cache (DESIGN.md §7).
//!
//! The paper's evaluation (Fig 10b) sweeps 1→64 concurrent clients against
//! the cached read path; these tests drive real reader threads spinning
//! `get_table` / `resolve_for_query` against a writer thread doing
//! create/update/drop on the same metastore and assert the snapshot-read
//! invariants the atomic pin + shard design must uphold:
//!
//! * **No torn reads** — a lookup returns either a complete entity or
//!   `NotFound`, never a half-installed one; the entity returned for a
//!   name is the entity *with that name* (name→entity consistency at the
//!   pinned version).
//! * **No composite listings** — a catalog listing racing catalog
//!   create/drop is a set some single metastore version held.
//! * **Writer progress under readers** — the per-metastore write gate
//!   serializes mutation without starving behind the lock-free hit path.
//! * **Convergence** — once the writer stops, a cached node answers
//!   exactly like a cache-disabled node reading the database.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use uc_catalog::cache::CacheConfig;
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::types::FullName;
use uc_cloudstore::{AccessLevel, ObjectStore};
use uc_delta::value::{DataType, Field, Schema};
use uc_txdb::Db;

const ADMIN: &str = "admin";
/// Tables that exist for the whole run (readers expect hits).
const STABLE_TABLES: usize = 8;
/// Tables the writer churns through create/update/drop (readers accept
/// found-or-not-found, never anything inconsistent).
const CHURN_TABLES: usize = 4;

fn int_schema() -> Schema {
    Schema::new(vec![Field::new("x", DataType::Int)])
}

fn node(db: &Db, store: &ObjectStore, id: &str) -> Arc<UnityCatalog> {
    UnityCatalog::new(db.clone(), store.clone(), UcConfig::default(), id)
}

struct StressWorld {
    db: Db,
    store: ObjectStore,
    uc: Arc<UnityCatalog>,
    ms: uc_catalog::ids::Uid,
}

fn stress_world() -> StressWorld {
    let db = Db::in_memory();
    let store = ObjectStore::in_memory();
    let uc = node(&db, &store, "node-0");
    let ms = uc.create_metastore(ADMIN, "stress", "us-west-2").unwrap();
    let ctx = Context::user(ADMIN);
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
    uc.create_catalog(&ctx, &ms, "main").unwrap();
    uc.create_catalog(&ctx, &ms, "roll0").unwrap();
    uc.create_schema(&ctx, &ms, "main", "s").unwrap();
    for i in 0..STABLE_TABLES {
        uc.create_table(
            &ctx,
            &ms,
            TableSpec::managed(&format!("main.s.stable{i}"), int_schema()).unwrap(),
        )
        .unwrap();
    }
    StressWorld { db, store, uc, ms }
}

/// Readers spin lookups while a writer churns tables in the same schema
/// and rolls a window of catalogs. Asserts name→entity consistency on
/// every single read and snapshot consistency on every listing.
fn run_stress(reader_threads: usize, writer_iters: usize) {
    let w = stress_world();
    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let torn = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for r in 0..reader_threads {
            let uc = w.uc.clone();
            let ms = w.ms.clone();
            let stop = &stop;
            let reads = &reads;
            let torn = &torn;
            scope.spawn(move || {
                let ctx = Context::user(ADMIN);
                let mut i = r; // offset start so threads don't march in step
                while !stop.load(Ordering::Relaxed) {
                    // Stable tables must always resolve, correctly.
                    let stable = format!("stable{}", i % STABLE_TABLES);
                    match uc.get_table(&ctx, &ms, &format!("main.s.{stable}")) {
                        Ok(ent) => {
                            if ent.name != stable || !ent.is_active() {
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                            // The path index rides the same protocol: a
                            // stable table's storage path resolves to that
                            // table (the token is scoped to its path)
                            // however the writer's applies interleave.
                            if i % 3 == 0 {
                                let path = ent.storage_path.as_deref().expect("managed table path");
                                let tok = uc
                                    .temp_credentials_for_path(&ctx, &ms, path, AccessLevel::Read)
                                    .expect("stable table path must resolve");
                                if tok.scope.to_string() != path {
                                    torn.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Err(e) => panic!("stable table lookup failed: {e}"),
                    }
                    // Churned tables may or may not exist — but a returned
                    // entity must be the named one, complete and active.
                    let churn = format!("churn{}", i % CHURN_TABLES);
                    if let Ok(ent) = uc.get_table(&ctx, &ms, &format!("main.s.{churn}")) {
                        if ent.name != churn || !ent.is_active() {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // The resolve path exercises chain walks (schema +
                    // catalog lookups) against the same shards.
                    if i % 7 == 0 {
                        let refs = [FullName::parse(&format!("main.s.{stable}")).unwrap()];
                        let resolved = uc
                            .resolve_for_query(&ctx, &ms, &refs, false)
                            .expect("stable table must resolve");
                        assert_eq!(resolved.len(), 1);
                    }
                    // The writer creates `roll{j+1}` before it drops
                    // `roll{j}`, so every metastore version holds one
                    // rolling catalog or two consecutive ones. A listing
                    // that scanned one version and resolved entities at
                    // another could come back empty or with a gap.
                    if i % 5 == 0 {
                        let mut rolling: Vec<usize> = uc
                            .list_catalogs(&ctx, &ms)
                            .expect("catalog listing")
                            .iter()
                            .filter_map(|c| c.name.strip_prefix("roll")?.parse().ok())
                            .collect();
                        rolling.sort_unstable();
                        let snapshot = match rolling.as_slice() {
                            [_] => true,
                            [a, b] => a + 1 == *b,
                            _ => false,
                        };
                        if !snapshot {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }

        let ctx = Context::user(ADMIN);
        for j in 0..writer_iters {
            w.uc.create_catalog(&ctx, &w.ms, &format!("roll{}", j + 1)).unwrap();
            w.uc
                .drop_securable(&ctx, &w.ms, &FullName::of(&[&format!("roll{j}")]), "catalog")
                .unwrap();
            let t = j % CHURN_TABLES;
            let name = format!("main.s.churn{t}");
            match j % 3 {
                0 => {
                    // May already exist from a previous lap — then update.
                    let spec = TableSpec::managed(&name, int_schema()).unwrap();
                    if w.uc.create_table(&ctx, &w.ms, spec).is_err() {
                        let _ = w.uc.update_comment(
                            &ctx,
                            &w.ms,
                            &FullName::parse(&name).unwrap(),
                            "relation",
                            &format!("lap {j}"),
                        );
                    }
                }
                1 => {
                    let _ = w.uc.update_comment(
                        &ctx,
                        &w.ms,
                        &FullName::parse(&name).unwrap(),
                        "relation",
                        &format!("lap {j}"),
                    );
                }
                _ => {
                    let _ = w.uc.drop_securable(
                        &ctx,
                        &w.ms,
                        &FullName::parse(&name).unwrap(),
                        "relation",
                    );
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(
        torn.load(Ordering::Relaxed),
        0,
        "readers observed inconsistent entities"
    );
    assert!(
        reads.load(Ordering::Relaxed) > 0,
        "readers made no progress"
    );

    // Convergence: a cache-disabled node over the same database is ground
    // truth; the stressed node must agree on every table.
    let truth = UnityCatalog::new(
        w.db.clone(),
        w.store.clone(),
        UcConfig { cache: CacheConfig::disabled(), ..Default::default() },
        "node-truth",
    );
    let ctx = Context::user(ADMIN);
    for i in 0..STABLE_TABLES {
        let name = format!("main.s.stable{i}");
        let cached = w.uc.get_table(&ctx, &w.ms, &name).unwrap();
        let direct = truth.get_table(&ctx, &w.ms, &name).unwrap();
        assert_eq!(cached.id, direct.id, "{name} diverged");
    }
    for t in 0..CHURN_TABLES {
        let name = format!("main.s.churn{t}");
        let cached = w.uc.get_table(&ctx, &w.ms, &name).ok().map(|e| e.id.clone());
        let direct = truth.get_table(&ctx, &w.ms, &name).ok().map(|e| e.id.clone());
        assert_eq!(cached, direct, "{name} diverged after writer stopped");
    }
    // The stress must actually have exercised the cache.
    assert!(w.uc.cache_stats().hits.load(Ordering::Relaxed) > 0);
}

#[test]
fn readers_vs_writer_sharded() {
    run_stress(4, 300);
}

/// Write-through visibility: after a writer's call returns, a reader on
/// the same node sees the new state immediately (no torn window between
/// entry install and pin advance that loses the entity).
#[test]
fn own_writes_visible_immediately() {
    let w = stress_world();
    let ctx = Context::user(ADMIN);
    for j in 0..50 {
        let name = format!("main.s.flip{}", j % 2);
        let spec = TableSpec::managed(&name, int_schema()).unwrap();
        if w.uc.create_table(&ctx, &w.ms, spec).is_ok() {
            let ent = w
                .uc
                .get_table(&ctx, &w.ms, &name)
                .expect("created table must be visible to its own node");
            assert!(ent.is_active());
            w.uc
                .drop_securable(&ctx, &w.ms, &FullName::parse(&name).unwrap(), "relation")
                .unwrap();
            assert!(
                w.uc.get_table(&ctx, &w.ms, &name).is_err(),
                "dropped table must disappear immediately"
            );
        }
    }
}

/// Concurrent first-touch of a metastore cache: every thread must land on
/// the same `MsCache` instance (the `for_metastore` fast path races its
/// insert path).
#[test]
fn concurrent_first_touch_converges() {
    let w = stress_world();
    let ctx = Context::user(ADMIN);
    // Fresh node over the same substrate: its per-ms map starts empty, so
    // every thread races the first-touch insert.
    let fresh = node(&w.db, &w.store, "node-fresh");
    std::thread::scope(|scope| {
        for r in 0..8 {
            let uc = fresh.clone();
            let ms = w.ms.clone();
            let ctx = ctx.clone();
            scope.spawn(move || {
                let name = format!("main.s.stable{}", r % STABLE_TABLES);
                for _ in 0..50 {
                    uc.get_table(&ctx, &ms, &name).unwrap();
                }
            });
        }
    });
    // All threads' installs landed in one cache: a warm re-read is a hit.
    let before = fresh.cache_stats().hits.load(Ordering::Relaxed);
    for r in 0..STABLE_TABLES {
        fresh
            .get_table(&ctx, &w.ms, &format!("main.s.stable{r}"))
            .unwrap();
    }
    let after = fresh.cache_stats().hits.load(Ordering::Relaxed);
    // Each get_table performs several cached lookups (catalog, schema,
    // table, ownership chain) — all of them must hit on a warm cache.
    assert!(after - before >= STABLE_TABLES as u64, "warm reads must all hit");
    let misses_before = fresh.cache_stats().misses.load(Ordering::Relaxed);
    fresh.get_table(&ctx, &w.ms, "main.s.stable0").unwrap();
    assert_eq!(
        fresh.cache_stats().misses.load(Ordering::Relaxed),
        misses_before,
        "a fully warm read must not miss"
    );
}
