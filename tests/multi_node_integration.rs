//! Multi-node behaviour: sharding, dual ownership, conflict storms, and
//! cache coherence under node churn — the no-consensus design of §4.5.

use std::sync::Arc;

use uc_bench::{World, WorldConfig, ADMIN};
use uc_catalog::model::feed::{self, FeedRow, T_FEED, WINDOW};
use uc_catalog::model::keys;
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::sharding::ShardRouter;
use uc_catalog::types::FullName;
use uc_delta::value::{DataType, Field, Schema};

fn schema() -> Schema {
    Schema::new(vec![Field::new("id", DataType::Int)])
}

fn spawn_node(world: &World, id: &str) -> Arc<UnityCatalog> {
    UnityCatalog::new(world.db.clone(), world.store.clone(), UcConfig::default(), id)
}

#[test]
fn writes_race_across_nodes_without_corruption() {
    // Two nodes both "own" the metastore (split-brain) and hammer writes.
    // The metastore-version conditioning must serialize everything: every
    // created table exists exactly once, no name is double-assigned.
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let node_b = spawn_node(&world, "node-b");

    let mk = |node: Arc<UnityCatalog>, ms: uc_catalog::ids::Uid, start: usize| {
        std::thread::spawn(move || {
            let ctx = Context::user(ADMIN);
            for i in start..start + 20 {
                node.create_table(
                    &ctx,
                    &ms,
                    TableSpec::managed(&format!("main.s.t{i}"), schema()).unwrap(),
                )
                .unwrap();
            }
        })
    };
    let h1 = mk(world.uc.clone(), world.ms.clone(), 0);
    let h2 = mk(node_b.clone(), world.ms.clone(), 20);
    h1.join().unwrap();
    h2.join().unwrap();

    // both nodes agree on the full table set
    for node in [&world.uc, &node_b] {
        node.reconcile_metastore(&world.ms);
        let kids = node
            .list_children(&ctx, &world.ms, &FullName::parse("main.s").unwrap(), None)
            .unwrap();
        assert_eq!(kids.len(), 40, "node {} sees all tables", node.node_id());
    }
}

#[test]
fn same_name_created_on_both_nodes_yields_exactly_one_winner() {
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let node_b = spawn_node(&world, "node-b");

    let mut wins = 0;
    let mut losses = 0;
    for i in 0..10 {
        let name = format!("main.s.contested{i}");
        let a = world.uc.create_table(&ctx, &world.ms, TableSpec::managed(&name, schema()).unwrap());
        let b = node_b.create_table(&ctx, &world.ms, TableSpec::managed(&name, schema()).unwrap());
        match (a.is_ok(), b.is_ok()) {
            (true, false) | (false, true) => {
                wins += 1;
                losses += 1;
            }
            other => panic!("expected exactly one winner, got {other:?}"),
        }
    }
    assert_eq!((wins, losses), (10, 10));
}

#[test]
fn conflict_storm_on_one_entity_retries_to_completion() {
    // Many threads on two nodes update the same catalog's comment: the
    // write path retries serialization conflicts internally; every update
    // must eventually land.
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    let node_b = spawn_node(&world, "node-b");
    let threads = 6;
    let per_thread = 10;
    let mut handles = Vec::new();
    for t in 0..threads {
        let node = if t % 2 == 0 { world.uc.clone() } else { node_b.clone() };
        let ms = world.ms.clone();
        handles.push(std::thread::spawn(move || {
            let ctx = Context::user(ADMIN);
            for i in 0..per_thread {
                node.update_comment(
                    &ctx,
                    &ms,
                    &FullName::parse("main").unwrap(),
                    "catalog",
                    &format!("t{t}-i{i}"),
                )
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Every update succeeded (retry loops absorbed any serialization
    // conflicts — on multi-core hosts `write_retries` is typically > 0),
    // and both nodes converge on the same final value.
    world.uc.reconcile_metastore(&world.ms);
    node_b.reconcile_metastore(&world.ms);
    let read = |node: &Arc<UnityCatalog>| {
        node.get_securable(&ctx, &world.ms, &FullName::parse("main").unwrap(), "catalog")
            .unwrap()
            .comment
            .clone()
            .unwrap()
    };
    let final_a = read(&world.uc);
    let final_b = read(&node_b);
    assert!(final_a.starts_with('t'));
    assert_eq!(final_a, final_b, "both nodes converge after reconciliation");
}

#[test]
fn router_rebalances_on_node_loss_and_service_continues() {
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    let node_b = spawn_node(&world, "node-b");
    let node_c = spawn_node(&world, "node-c");

    let mut router = ShardRouter::new(vec![world.uc.clone(), node_b.clone(), node_c.clone()]);
    let before = router.node_for(&world.ms).node_id().to_string();

    // route through the assigned node
    router
        .node_for(&world.ms)
        .create_schema(&ctx, &world.ms, "main", "s1")
        .unwrap();

    // the assigned node "dies"
    router.remove_node(&before);
    let after = router.node_for(&world.ms).node_id().to_string();
    assert_ne!(before, after);

    // the replacement node serves reads (cold cache → DB) and writes
    let node = router.node_for(&world.ms);
    let kids = node
        .list_children(&ctx, &world.ms, &FullName::parse("main").unwrap(), None)
        .unwrap();
    assert_eq!(kids.len(), 1);
    node.create_schema(&ctx, &world.ms, "main", "s2").unwrap();
    assert_eq!(
        node.list_children(&ctx, &world.ms, &FullName::parse("main").unwrap(), None)
            .unwrap()
            .len(),
        2
    );
}

#[test]
fn cold_node_bootstraps_cache_from_db_reads() {
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    for i in 0..10 {
        world
            .uc
            .create_table(&ctx, &world.ms, TableSpec::managed(&format!("main.s.t{i}"), schema()).unwrap())
            .unwrap();
    }
    let cold = spawn_node(&world, "node-cold");
    // first pass misses, second pass hits
    for _ in 0..2 {
        for i in 0..10 {
            cold.get_table(&ctx, &world.ms, &format!("main.s.t{i}")).unwrap();
        }
    }
    let stats = cold.cache_stats();
    let (hits, misses) = (stats.hits.get(), stats.misses.get());
    assert!(hits > 0, "second pass must hit");
    assert!(misses > 0, "first pass must miss");

    // A path read follows the same rule as a name read. The other node
    // creates a table the cold node has never seen: resolving its storage
    // path is one miss (which also reconciles the lagging cache), and the
    // install makes the next call a hit that reads nothing.
    let spec = TableSpec::managed("main.s.late", schema()).unwrap();
    let path = world.uc.create_table(&ctx, &world.ms, spec).unwrap().storage_path.clone().unwrap();
    let vend = || cold.temp_credentials_for_path(&ctx, &world.ms, &path, uc_cloudstore::AccessLevel::Read);
    vend().unwrap();
    assert_eq!(stats.misses.get(), misses + 1, "a path miss is one cache miss");
    let (hits, db_reads) = (stats.hits.get(), world.db.stats().reads());
    vend().unwrap();
    assert!(stats.hits.get() > hits, "the installed path entry must hit");
    assert_eq!(world.db.stats().reads(), db_reads, "a cached path read touches no database row");
}

#[test]
fn creates_under_a_parent_dropped_on_another_node_are_not_found() {
    // Node A authorizes creates against its cached chain; node B drops the
    // parent. A's cache is not told (no read of A's reaches the database),
    // so only the write transaction can notice: every create re-reads its
    // parent there and answers NotFound instead of committing an
    // unreachable tree row — or a path registration that would block the
    // prefix forever — under the soft-deleted container.
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    let ms = &world.ms;
    let node_a = &world.uc;
    node_a.create_catalog(&ctx, ms, "main").unwrap();
    node_a.create_schema(&ctx, ms, "main", "s").unwrap();
    node_a.create_catalog(&ctx, ms, "doomed").unwrap();
    let name = |n: &str| FullName::parse(n).unwrap();
    // Warm A (write-through already cached the chain; this proves it).
    node_a.get_securable(&ctx, ms, &name("main.s"), "schema").unwrap();

    let node_b = spawn_node(&world, "node-b");
    node_b.drop_securable(&ctx, ms, &name("main.s"), "schema").unwrap();
    node_b.drop_securable(&ctx, ms, &name("doomed"), "catalog").unwrap();
    node_a.get_securable(&ctx, ms, &name("main.s"), "schema").expect("A still serves its cached chain");

    let rows = |table: &str, prefix: String| world.db.begin_read().scan_prefix(table, &prefix).len();
    let tree_rows = || rows(keys::T_TREE, keys::tree_ms_prefix(ms));
    let path_rows = || rows(keys::T_PATH, keys::path_ms_prefix(ms));
    let (tree_before, paths_before) = (tree_rows(), path_rows());
    let not_found = |what: &str, r: uc_catalog::UcResult<Arc<uc_catalog::Entity>>| {
        assert!(matches!(r, Err(uc_catalog::UcError::NotFound(_))), "{what}: expected NotFound, got {r:?}");
    };
    not_found("create_view", node_a.create_view(&ctx, ms, &name("main.s.v"), "SELECT 1", schema(), &[]));
    not_found("create_volume", node_a.create_volume(&ctx, ms, &name("main.s.vol"), None));
    not_found("create_function", node_a.create_function(&ctx, ms, &name("main.s.f"), "1"));
    not_found("create_registered_model", node_a.create_registered_model(&ctx, ms, &name("main.s.m")));
    not_found("create_schema", node_a.create_schema(&ctx, ms, "doomed", "s"));
    // Once the tombstones are purged the parent row is absent rather than
    // soft-deleted: still NotFound, not a `dangling parent` database error.
    node_b.purge_soft_deleted(ms).unwrap();
    not_found("create_volume after purge", node_a.create_volume(&ctx, ms, &name("main.s.vol"), None));
    assert_eq!(tree_rows(), tree_before, "no tree row under a dropped parent");
    assert_eq!(path_rows(), paths_before, "no path registered under a dropped parent");
}

#[test]
fn mirrors_under_a_federated_catalog_dropped_on_another_node_are_not_found() {
    // `mirror_table` creates its schema and its table through the same
    // create protocol as every other create: names arriving from the
    // foreign catalog are validated, and each create re-reads its parent
    // inside its transaction, so a federated catalog (or mirrored schema)
    // dropped on node B is NotFound on node A, whose cache still holds it.
    use uc_catalog::service::federation::ForeignTableMeta;
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    let ms = &world.ms;
    let node_a = &world.uc;
    node_a.create_connection(&ctx, ms, "conn", "thrift://hms").unwrap();
    let meta = |name: &str| ForeignTableMeta {
        name: name.into(),
        columns: schema(),
        storage_path: None,
        foreign_type: "hive".into(),
    };
    let tree_rows = || world.db.begin_read().scan_prefix(keys::T_TREE, &keys::tree_ms_prefix(ms)).len();
    let node_b = spawn_node(&world, "node-b");
    let fed = FullName::parse("fed").unwrap();

    // The schema create re-reads the federated catalog.
    node_a.create_federated_catalog(&ctx, ms, "fed", "conn").unwrap();
    node_b.drop_securable(&ctx, ms, &fed, "catalog").unwrap();
    node_a.get_securable(&ctx, ms, &fed, "catalog").expect("A still serves its cached catalog");
    let before = tree_rows();
    let r = node_a.mirror_table(&ctx, ms, "fed", "legacy", &meta("t1"));
    assert!(matches!(r, Err(uc_catalog::UcError::NotFound(_))), "schema under a dropped catalog: {r:?}");
    assert_eq!(tree_rows(), before, "no tree row under a dropped federated catalog");

    // The table create re-reads the mirrored schema.
    node_a.create_federated_catalog(&ctx, ms, "fed", "conn").unwrap();
    node_a.mirror_table(&ctx, ms, "fed", "legacy", &meta("t1")).unwrap();
    node_b.drop_securable(&ctx, ms, &FullName::parse("fed.legacy").unwrap(), "schema").unwrap();
    let before = tree_rows();
    let r = node_a.mirror_table(&ctx, ms, "fed", "legacy", &meta("t2"));
    assert!(matches!(r, Err(uc_catalog::UcError::NotFound(_))), "table under a dropped schema: {r:?}");
    assert_eq!(tree_rows(), before, "no tree row under a dropped mirrored schema");

    // Foreign names are outside input.
    for (schema_name, table) in [("legacy2", "bad name"), ("bad schema", "t3")] {
        let r = node_a.mirror_table(&ctx, ms, "fed", schema_name, &meta(table));
        assert!(matches!(r, Err(uc_catalog::UcError::InvalidArgument(_))), "{schema_name}.{table}: {r:?}");
    }
}

#[test]
fn a_node_more_than_a_window_behind_reconciles_in_full() {
    // If the feed's window has moved past a node's pin, selective
    // invalidation can't be trusted — the node must fall back to a full
    // evict (and still end up coherent).
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    for i in 0..20 {
        world
            .uc
            .create_table(&ctx, &world.ms, TableSpec::managed(&format!("main.s.t{i}"), schema()).unwrap())
            .unwrap();
    }
    let node_b = spawn_node(&world, "node-b");
    // warm node B
    for i in 0..20 {
        node_b.get_table(&ctx, &world.ms, &format!("main.s.t{i}")).unwrap();
    }
    // node A writes, then writes on until the window has retired A's row
    let comment = |t: &str, c: &str| {
        let name = FullName::parse(t).unwrap();
        world.uc.update_comment(&ctx, &world.ms, &name, "relation", c).unwrap();
    };
    let pinned = node_b.metastore_cache_version(&world.ms);
    comment("main.s.t3", "fresh");
    for i in 0..WINDOW {
        comment("main.s.t4", &format!("busy {i}"));
    }
    let (full, selective) = (node_b.cache_stats().full_reconciles.get(), node_b.cache_stats().selective_reconciles.get());
    node_b.reconcile_metastore(&world.ms);
    assert_eq!(node_b.metastore_cache_version(&world.ms), pinned + WINDOW + 1);
    assert_eq!(node_b.cache_stats().full_reconciles.get(), full + 1, "a pin behind the window forces the full strategy");
    assert_eq!(node_b.cache_stats().selective_reconciles.get(), selective);
    // and node B still serves the fresh values
    let comment_of = |t: &str| node_b.get_table(&ctx, &world.ms, t).unwrap().comment.clone();
    assert_eq!(comment_of("main.s.t3").as_deref(), Some("fresh"));
    assert_eq!(comment_of("main.s.t4"), Some(format!("busy {}", WINDOW - 1)));
    assert_eq!(comment_of("main.s.t5"), None);
}

#[test]
fn concurrent_path_registrations_never_violate_invariant() {
    // Failure injection: many threads across two nodes race to create
    // external tables whose paths overlap; whatever subset wins, the
    // one-asset-per-path invariant must hold in the end.
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let root = world.store.create_bucket("ext");
    world.uc.create_storage_credential(&ctx, &world.ms, "ec", &root).unwrap();
    world.uc.create_external_location(&ctx, &world.ms, "el", "s3://ext/data", "ec").unwrap();
    let node_b = spawn_node(&world, "node-b");

    let mut handles = Vec::new();
    for t in 0..4 {
        let node = if t % 2 == 0 { world.uc.clone() } else { node_b.clone() };
        let ms = world.ms.clone();
        handles.push(std::thread::spawn(move || {
            let ctx = Context::user(ADMIN);
            for i in 0..10 {
                // deliberately overlapping path families: x, x/sub
                let depth = (t + i) % 2;
                let path = if depth == 0 {
                    format!("s3://ext/data/dir{i}")
                } else {
                    format!("s3://ext/data/dir{i}/sub")
                };
                let spec = uc_catalog::service::crud::TableSpec {
                    name: FullName::parse(&format!("main.s.race_{t}_{i}")).unwrap(),
                    columns: schema(),
                    format: uc_catalog::types::TableFormat::Parquet,
                    table_type: uc_catalog::types::TableType::External,
                    storage_path: Some(path),
                    foreign_type: None,
                };
                let _ = node.create_table(&ctx, &ms, spec); // conflicts allowed
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // invariant check over the raw path index
    let rt = world.db.begin_read();
    let all = uc_catalog::model::paths::all_paths(&rt, &world.ms);
    for (i, (p1, _)) in all.iter().enumerate() {
        for (p2, _) in &all[i + 1..] {
            assert!(!p1.overlaps(p2), "{p1} overlaps {p2}");
        }
    }
    assert!(all.len() >= 10, "a healthy subset must have won");
}

/// An update writes its entity's `T_TREE` row and nothing else, so a node
/// that cached the entity **by id only** must still find it from that
/// row's change record: every by-id load installs the entity under its
/// tree key as well, and the name index leads the reconcile back to it.
#[test]
fn update_on_another_node_invalidates_an_entity_cached_by_id_only() {
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let table = world.uc.create_table(&ctx, &world.ms, TableSpec::managed("main.s.t", schema()).unwrap()).unwrap();
    let node_b = spawn_node(&world, "node-b");
    assert!(node_b.get_entity_by_id(&ctx, &world.ms, &table.id).unwrap().grants.is_empty());

    let name = FullName::parse("main.s.t").unwrap();
    world.uc.grant(&ctx, &world.ms, &name, "relation", "alice", uc_catalog::authz::Privilege::Select).unwrap();
    let rt = world.db.begin_read();
    let version = uc_catalog::cache::read_ms_version(&rt, &world.ms);
    let row = FeedRow::decode(&rt.get(T_FEED, &feed::key(&world.ms, version)).unwrap()).unwrap();
    let tree_key = keys::tree_key(&world.ms, &[("catalog", "main"), ("schema", "s"), ("relation", "t")]);
    assert_eq!((row.tree, row.path), (vec![tree_key], vec![]), "an update moves nothing: its tree row is all it names");

    node_b.reconcile_metastore(&world.ms);
    let reads0 = world.db.stats().reads();
    let seen = node_b.get_entity_by_id(&ctx, &world.ms, &table.id).unwrap();
    assert_eq!(seen.grants, vec![("alice".to_string(), uc_catalog::authz::Privilege::Select)]);
    assert!(world.db.stats().reads() > reads0, "the stale entry was invalidated, not served");
}

/// A dropped table's cache entry outlives its name: when the name is
/// re-created and the old entry is then LRU-evicted, the eviction must leave
/// the name index pointing at the successor — it is how a remote grant on
/// the successor (one `T_TREE` record at that key) finds the entry to
/// invalidate before a by-id read serves it.
#[test]
fn evicting_a_dropped_table_keeps_its_recreated_name_invalidatable() {
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    for t in ["t", "u"] {
        world.uc.create_table(&ctx, &world.ms, TableSpec::managed(&format!("main.s.{t}"), schema()).unwrap()).unwrap();
    }
    // Node B holds five entries at most: metastore, catalog, schema, the
    // dropped table's tombstone and its successor.
    let mut config = UcConfig::default();
    config.cache.max_entries = 5;
    let node_b = UnityCatalog::new(world.db.clone(), world.store.clone(), config, "node-b");
    let name = FullName::parse("main.s.t").unwrap();
    node_b.get_table(&ctx, &world.ms, "main.s.t").unwrap();
    node_b.drop_securable(&ctx, &world.ms, &name, "relation").unwrap();
    let again = node_b.create_table(&ctx, &world.ms, TableSpec::managed("main.s.t", schema()).unwrap()).unwrap();
    // Everything but the tombstone is touched, then a sixth entry evicts
    // the coldest one.
    node_b.get_entity_by_id(&ctx, &world.ms, &again.id).unwrap();
    node_b.get_table(&ctx, &world.ms, "main.s.u").unwrap();
    assert_eq!(node_b.cache_stats().evictions.get(), 1, "the tombstone was evicted");
    let reads0 = world.db.stats().reads();
    node_b.get_entity_by_id(&ctx, &world.ms, &again.id).unwrap();
    assert_eq!(world.db.stats().reads(), reads0, "the successor is still cached");

    world.uc.reconcile_metastore(&world.ms);
    world.uc.grant(&ctx, &world.ms, &name, "relation", "alice", uc_catalog::authz::Privilege::Select).unwrap();
    node_b.reconcile_metastore(&world.ms);
    let seen = node_b.get_entity_by_id(&ctx, &world.ms, &again.id).unwrap();
    assert_eq!(seen.grants, vec![("alice".to_string(), uc_catalog::authz::Privilege::Select)]);
}

/// Node B reads, then stays idle while node A commits `WINDOW - 1`
/// versions: the feed still holds every row since B's pin, although
/// nothing registered B as a reader, so B's next reconcile is *selective*
/// and invalidates exactly what A touched.
#[test]
fn a_node_fewer_than_a_window_behind_reconciles_selectively() {
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let names: Vec<String> = (0..20).map(|i| format!("main.s.t{i}")).collect();
    for n in names.iter().chain([&"main.s.unread".to_string()]) {
        world.uc.create_table(&ctx, &world.ms, TableSpec::managed(n, schema()).unwrap()).unwrap();
    }
    let node_b = spawn_node(&world, "node-b");
    for n in &names {
        node_b.get_table(&ctx, &world.ms, n).unwrap();
    }
    let pinned = node_b.metastore_cache_version(&world.ms);
    for n in &names[..5] {
        world.uc.update_comment(&ctx, &world.ms, &FullName::parse(n).unwrap(), "relation", "fresh").unwrap();
    }
    let unread = FullName::parse("main.s.unread").unwrap();
    for i in 5..WINDOW - 1 {
        world.uc.update_comment(&ctx, &world.ms, &unread, "relation", &format!("busy {i}")).unwrap();
    }
    let stats = node_b.cache_stats();
    let (full, selective, invalidated) = (stats.full_reconciles.get(), stats.selective_reconciles.get(), stats.invalidations.get());
    node_b.reconcile_metastore(&world.ms);
    assert_eq!(node_b.metastore_cache_version(&world.ms), pinned + WINDOW - 1);
    assert_eq!(stats.full_reconciles.get(), full, "no full reconcile");
    assert_eq!(stats.selective_reconciles.get(), selective + 1);
    assert_eq!(stats.invalidations.get(), invalidated + 5, "exactly the five updated tables");
    for (i, n) in names.iter().enumerate() {
        let comment = node_b.get_table(&ctx, &world.ms, n).unwrap().comment.clone();
        assert_eq!(comment.as_deref(), (i < 5).then_some("fresh"), "{n}");
    }
}

/// Each metastore keeps its own feed and nothing per reader: a busy one
/// retires its oldest row with every commit past the window, and an idle
/// one keeps its few rows whatever the busy one does — neither holds the
/// other's history.
#[test]
fn an_idle_metastore_holds_at_most_a_window_of_feed_rows() {
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    let rows = |prefix: String| world.db.begin_read().scan_prefix(T_FEED, &prefix).len() as u64;
    let idle = world.uc.create_metastore(ADMIN, "idle", "us-west-2").unwrap();
    world.uc.create_catalog(&ctx, &idle, "c").unwrap();
    world.uc.reconcile_metastore(&idle);
    let idle_rows = rows(feed::prefix(&idle));
    assert_eq!(idle_rows, 2, "the metastore and its catalog");
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    for i in 0..WINDOW + 10 {
        world.uc.create_schema(&ctx, &world.ms, "main", &format!("s{i}")).unwrap();
    }
    world.uc.reconcile_metastore(&world.ms);
    assert_eq!(rows(feed::prefix(&world.ms)), WINDOW, "the busy metastore holds its window");
    assert_eq!(rows(feed::prefix(&idle)), idle_rows, "the idle one keeps its rows, and holds nothing else");
    assert_eq!(rows(String::new()), WINDOW + idle_rows);
}

/// A lineage edge is discovery metadata: it commits a metastore version,
/// so its event is in the feed, but the row names no tree or path key, so
/// another node's reconcile across it invalidates nothing.
#[test]
fn a_lineage_version_costs_another_node_no_invalidation() {
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    for t in ["up", "down"] {
        world.uc.create_table(&ctx, &world.ms, TableSpec::managed(&format!("main.s.{t}"), schema()).unwrap()).unwrap();
    }
    let node_b = spawn_node(&world, "node-b");
    for t in ["main.s.up", "main.s.down"] {
        node_b.get_table(&ctx, &world.ms, t).unwrap();
    }
    let pinned = node_b.metastore_cache_version(&world.ms);
    let name = |n: &str| FullName::parse(n).unwrap();
    world.uc.add_lineage(&ctx, &world.ms, &name("main.s.up"), &name("main.s.down"), Some("job")).unwrap();
    let page = node_b.events_since(&ctx, &world.ms, pinned).unwrap();
    let ops: Vec<_> = page.events.iter().map(|e| (e.op, e.name.as_str(), e.at_version)).collect();
    assert_eq!(ops, [(uc_catalog::events::ChangeOp::LineageAdd, "down", pinned + 1)]);

    let stats = node_b.cache_stats();
    let (invalidated, full) = (stats.invalidations.get(), stats.full_reconciles.get());
    node_b.reconcile_metastore(&world.ms);
    assert_eq!(node_b.metastore_cache_version(&world.ms), pinned + 1);
    assert_eq!((stats.invalidations.get(), stats.full_reconciles.get()), (invalidated, full), "nothing invalidated");
    let reads0 = world.db.stats().reads();
    node_b.get_table(&ctx, &world.ms, "main.s.down").unwrap();
    assert_eq!(world.db.stats().reads(), reads0, "still a cache hit");
}

/// A dropped storage credential vends on no node: neither the one that
/// created (and vended with) it, nor one over the same database that never
/// saw it. The root credential is read from the metastore's storage
/// credentials on every mint, not from a per-node copy.
#[test]
fn a_dropped_storage_credential_vends_on_no_node() {
    use uc_catalog::error::UcError;
    use uc_cloudstore::{AccessLevel, ObjectStore};
    use uc_txdb::Db;

    let store = ObjectStore::in_memory();
    let node_a = UnityCatalog::new(Db::in_memory(), store.clone(), UcConfig::default(), "node-a");
    let node_b = UnityCatalog::new(node_a.db().clone(), store.clone(), UcConfig::default(), "node-b");
    let ctx = Context::user(ADMIN);
    let ms = node_a.create_metastore(ADMIN, "creds", "us-west-2").unwrap();
    node_a.create_storage_credential(&ctx, &ms, "cred", &store.create_bucket("lake")).unwrap();
    node_a.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
    node_a.create_catalog(&ctx, &ms, "main").unwrap();
    node_a.create_schema(&ctx, &ms, "main", "s").unwrap();
    let [first, second] = ["main.s.t1", "main.s.t2"].map(|t| {
        node_a.create_table(&ctx, &ms, TableSpec::managed(t, schema()).unwrap()).unwrap();
        FullName::parse(t).unwrap()
    });
    node_a.temp_credentials(&ctx, &ms, &first, "relation", AccessLevel::Read).unwrap();

    node_a.drop_securable(&ctx, &ms, &FullName::parse("cred").unwrap(), "storagecred").unwrap();
    for node in [&node_a, &node_b] {
        let vend = node.temp_credentials(&ctx, &ms, &second, "relation", AccessLevel::Read);
        assert!(
            matches!(vend, Err(UcError::Storage(ref m)) if m == "no storage credential for bucket lake"),
            "{}: {vend:?}",
            node.node_id()
        );
    }
}
