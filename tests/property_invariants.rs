//! Property-based invariants across the stack.

use proptest::prelude::*;

use uc_bench::{World, WorldConfig, ADMIN};
use uc_catalog::authz::decision::{can_traverse, decide, AuthzContext, AuthzNode, Need};
use uc_catalog::authz::Privilege;
use uc_catalog::ids::Uid;
use uc_catalog::model::paths;
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::Context;
use uc_catalog::types::{FullName, SecurableKind};
use uc_cloudstore::faults::{points, FaultMode, FaultPlan};
use uc_cloudstore::{Clock, Credential, LatencyModel, ObjectStore, StoragePath, StsService};
use uc_delta::value::{DataType, Field, Schema, Value};
use uc_delta::DeltaTable;
use uc_txdb::{Db, DbConfig};

// ---------------------------------------------------------------------
// 1. One-asset-per-path invariant under random create/drop sequences
// ---------------------------------------------------------------------

/// Paths drawn from a small segment alphabet to force collisions.
fn arb_path() -> impl Strategy<Value = String> {
    let seg = prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")];
    proptest::collection::vec(seg, 1..4)
        .prop_map(|segs| format!("s3://bkt/{}", segs.join("/")))
}

#[derive(Debug, Clone)]
enum PathOp {
    Register(String),
    Unregister(String),
}

fn arb_path_ops() -> impl Strategy<Value = Vec<PathOp>> {
    proptest::collection::vec(
        prop_oneof![
            arb_path().prop_map(PathOp::Register),
            arb_path().prop_map(PathOp::Unregister),
        ],
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_asset_per_path_invariant_holds(ops in arb_path_ops()) {
        let db = Db::in_memory();
        let ms = Uid::from("ms");
        for op in ops {
            match op {
                PathOp::Register(p) => {
                    let path = StoragePath::parse(&p).unwrap();
                    let mut tx = db.begin_write();
                    if paths::register_path(&mut tx, &ms, &path, &Uid::generate()).is_ok() {
                        tx.commit().unwrap();
                    }
                }
                PathOp::Unregister(p) => {
                    let path = StoragePath::parse(&p).unwrap();
                    let mut tx = db.begin_write();
                    paths::unregister_path(&mut tx, &ms, &path);
                    tx.commit().unwrap();
                }
            }
            // Invariant: no two registered paths overlap.
            let rt = db.begin_read();
            let all = paths::all_paths(&rt, &ms);
            for (i, (p1, _)) in all.iter().enumerate() {
                for (p2, _) in &all[i + 1..] {
                    prop_assert!(!p1.overlaps(p2), "{p1} overlaps {p2}");
                }
            }
            // And resolution of any registered path returns that asset.
            for (p, id) in &all {
                let resolved = paths::resolve_path(&rt, &ms, p);
                prop_assert_eq!(resolved.map(|(i, _)| i), Some(id.clone()));
            }
        }
    }

    // -----------------------------------------------------------------
    // 2. MVCC: snapshot reads equal a sequential model at commit points
    // -----------------------------------------------------------------

    #[test]
    fn mvcc_matches_sequential_model(
        ops in proptest::collection::vec((0u8..3, 0u8..6, 0u64..100), 1..60)
    ) {
        let db = Db::in_memory();
        let mut model: std::collections::BTreeMap<String, u64> = Default::default();
        for (op, key, val) in ops {
            let key = format!("k{key}");
            match op {
                0 => {
                    let mut tx = db.begin_write();
                    tx.put("t", &key, bytes::Bytes::from(val.to_string()));
                    tx.commit().unwrap();
                    model.insert(key, val);
                }
                1 => {
                    let mut tx = db.begin_write();
                    tx.delete("t", &key);
                    tx.commit().unwrap();
                    model.remove(&key);
                }
                _ => {
                    let rt = db.begin_read();
                    let got = rt.get("t", &key)
                        .map(|b| String::from_utf8(b.to_vec()).unwrap().parse::<u64>().unwrap());
                    prop_assert_eq!(got, model.get(&key).copied());
                    // scans agree with the model too
                    let scanned: Vec<String> =
                        rt.scan_prefix("t", "k").into_iter().map(|(k, _)| k).collect();
                    let expected: Vec<String> = model.keys().cloned().collect();
                    prop_assert_eq!(scanned, expected);
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // 3. Delta: replay determinism and record conservation
    // -----------------------------------------------------------------

    #[test]
    fn delta_replay_is_deterministic_and_conserves_rows(
        batches in proptest::collection::vec(1usize..30, 1..8),
        optimize_at in proptest::option::of(0usize..8),
    ) {
        let store = ObjectStore::in_memory();
        let root = store.create_bucket("b");
        let cred = Credential::Root(root);
        let path = StoragePath::parse("s3://b/t").unwrap();
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let table = DeltaTable::create(store, path, &cred, "tid", schema).unwrap();
        let mut total = 0i64;
        for (i, n) in batches.iter().enumerate() {
            let rows: Vec<Vec<Value>> =
                (0..*n).map(|j| vec![Value::Int(total + j as i64)]).collect();
            table.append(&cred, &rows).unwrap();
            total += *n as i64;
            if optimize_at == Some(i) {
                table.optimize(&cred, 1000).unwrap();
            }
        }
        let snap1 = table.snapshot(&cred).unwrap();
        let snap2 = table.snapshot(&cred).unwrap();
        prop_assert_eq!(snap1.version, snap2.version);
        prop_assert_eq!(snap1.files.keys().collect::<Vec<_>>(), snap2.files.keys().collect::<Vec<_>>());
        prop_assert_eq!(snap1.num_records() as i64, total);
        // every row readable exactly once
        let (rows, _) = table
            .scan(&cred, None, &uc_delta::expr::EvalContext::anonymous())
            .unwrap();
        prop_assert_eq!(rows.len() as i64, total);
    }

    // -----------------------------------------------------------------
    // 4. Authorization monotonicity: adding grants never removes access
    // -----------------------------------------------------------------

    #[test]
    fn adding_grants_is_monotone(
        base_grants in proptest::collection::vec((0usize..3, 0u8..4), 0..6),
        extra in (0usize..3, 0u8..4),
        check_priv in 0u8..4,
    ) {
        let privs = [Privilege::Select, Privilege::Modify, Privilege::UseSchema, Privilege::UseCatalog];
        let levels = ["table", "schema", "catalog"];
        let build = |grants: &[(usize, u8)]| {
            let node = |idx: usize, kind: SecurableKind| AuthzNode {
                id: Uid::from(levels[idx]),
                kind,
                owner: "owner".to_string(),
                grants: grants
                    .iter()
                    .filter(|(l, _)| *l == idx)
                    .map(|(_, p)| ("alice".to_string(), privs[*p as usize]))
                    .collect(),
            };
            vec![
                node(0, SecurableKind::Table),
                node(1, SecurableKind::Schema),
                node(2, SecurableKind::Catalog),
            ]
        };
        let alice = AuthzContext::new("alice");
        let before = build(&base_grants);
        let mut extended = base_grants.clone();
        extended.push(extra);
        let after = build(&extended);
        let p = privs[check_priv as usize];
        // monotone in every decision dimension
        prop_assert!(!decide(&before, &alice, Need::Holds(p)) || decide(&after, &alice, Need::Holds(p)));
        prop_assert!(!can_traverse(&before, &alice) || can_traverse(&after, &alice));
        prop_assert!(!decide(&before, &alice, Need::See) || decide(&after, &alice, Need::See));
        prop_assert!(!decide(&before, &alice, Need::Data(Privilege::Select))
            || decide(&after, &alice, Need::Data(Privilege::Select)));
    }

    // -----------------------------------------------------------------
    // 4b. One decision procedure: `decide` over light `AuthzNode` chains
    //     and over the service's own `Arc<Entity>` chains agree — the
    //     reference the deleted copy-into-nodes path is held to.
    // -----------------------------------------------------------------

    #[test]
    fn decide_agrees_over_nodes_and_entities(
        depth in 1usize..5,
        owners in proptest::collection::vec(0usize..4, 4..5),
        grants in proptest::collection::vec((0usize..4, 0usize..4, 0usize..9), 0..10),
        principal in 0usize..3,
        in_team in 0u8..2,
        in_ops in 0u8..2,
        is_admin in 0u8..2,
    ) {
        let names = ["alice", "bob", "team", "ops"];
        let privs = [
            Privilege::Select, Privilege::Modify, Privilege::UseSchema, Privilege::UseCatalog,
            Privilege::CreateTable, Privilege::CreateCatalog, Privilege::Execute,
            Privilege::Manage, Privilege::All,
        ];
        // Leaf-first chains ending at the metastore: [metastore],
        // [share-like leaf, metastore], [schema, catalog, metastore], and
        // the full table chain.
        let kinds: &[SecurableKind] = match depth {
            1 => &[SecurableKind::Metastore],
            2 => &[SecurableKind::Share, SecurableKind::Metastore],
            3 => &[SecurableKind::Schema, SecurableKind::Catalog, SecurableKind::Metastore],
            _ => &[SecurableKind::Table, SecurableKind::Schema, SecurableKind::Catalog, SecurableKind::Metastore],
        };
        let nodes: Vec<AuthzNode> = kinds
            .iter()
            .enumerate()
            .map(|(level, kind)| AuthzNode {
                id: Uid::from(format!("n{level}").as_str()),
                kind: *kind,
                owner: names[owners[level]].to_string(),
                grants: grants
                    .iter()
                    .filter(|(l, _, _)| *l == level)
                    .map(|(_, g, p)| (names[*g].to_string(), privs[*p]))
                    .collect(),
            })
            .collect();
        let entities: Vec<std::sync::Arc<uc_catalog::model::entity::Entity>> = nodes
            .iter()
            .map(|n| {
                let mut e = uc_catalog::model::entity::Entity::new(
                    n.kind, n.id.as_str(), None, Uid::from("m"), &n.owner, 0,
                );
                e.grants = n.grants.clone();
                std::sync::Arc::new(e)
            })
            .collect();
        let mut who = AuthzContext::new(["alice", "bob", "carol"][principal]);
        if in_team == 1 {
            who.groups.insert("team".to_string());
        }
        if in_ops == 1 {
            who.groups.insert("ops".to_string());
        }
        who.is_metastore_admin = is_admin == 1;
        let pair = [Privilege::CreateTable, Privilege::Modify];
        let mut needs = vec![Need::MetastoreAdmin, Need::Admin, Need::See, Need::AdminOrAny(&pair), Need::AdminOrAny(&[])];
        for p in privs {
            needs.extend([Need::MetastoreAdminOr(p), Need::Data(p), Need::Holds(p)]);
        }
        for need in needs {
            prop_assert_eq!(decide(&nodes, &who, need), decide(&entities, &who, need), "{}", need);
        }
        prop_assert_eq!(can_traverse(&nodes, &who), can_traverse(&entities, &who));
    }
}

// ---------------------------------------------------------------------
// 4c. A listing decides each child over `[child] + the parent's chain`;
//     that must be the decision the per-child ancestor walk
//     (`visible_batch`, by id) makes, on generated grants and owners.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn listing_visibility_equals_the_per_child_walk(
        grants in proptest::collection::vec((0usize..6, 0usize..2, 0usize..4), 0..6),
        alice_owns in proptest::collection::vec(0u8..2, 3..4),
        in_team in 0u8..2,
    ) {
        let world = World::build(&WorldConfig::default());
        let (uc, ms) = (&world.uc, &world.ms);
        let admin = Context::user(ADMIN);
        uc.upsert_principal("alice", if in_team == 1 { &["team"] } else { &[] }).unwrap();
        uc.create_catalog(&admin, ms, "main").unwrap();
        uc.create_schema(&admin, ms, "main", "s").unwrap();
        let columns = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut ids = Vec::new();
        for (t, owned) in alice_owns.iter().enumerate() {
            let name = FullName::parse(&format!("main.s.t{t}")).unwrap();
            let ent = uc
                .create_table(&admin, ms, TableSpec::managed(&name.to_string(), columns.clone()).unwrap())
                .unwrap();
            if *owned == 1 {
                uc.transfer_ownership(&admin, ms, &name, "relation", "alice").unwrap();
            }
            ids.push(ent.id.clone());
        }
        let targets = [
            ("main.s.t0", "relation"), ("main.s.t1", "relation"), ("main.s.t2", "relation"),
            ("main.s", "schema"), ("main", "catalog"), ("main.s.t1", "relation"),
        ];
        let privs = [Privilege::Select, Privilege::Modify, Privilege::Manage, Privilege::All];
        for (level, grantee, p) in grants {
            let (name, group) = targets[level];
            let grantee = ["alice", "team"][grantee];
            uc.grant(&admin, ms, &FullName::parse(name).unwrap(), group, grantee, privs[p]).unwrap();
        }
        let alice = Context::user("alice");
        let schema_name = FullName::parse("main.s").unwrap();
        let listed: Vec<Uid> = uc
            .list_children(&alice, ms, &schema_name, Some("relation"))
            .unwrap()
            .iter()
            .map(|e| e.id.clone())
            .collect();
        let walked = uc.visible_batch(ms, "alice", &ids).unwrap();
        let expected: Vec<Uid> =
            ids.iter().zip(walked).filter(|(_, visible)| *visible).map(|(id, _)| id.clone()).collect();
        prop_assert_eq!(listed, expected);
        // One level up: schemas under the catalog, same rule.
        let schema_id = uc.get_entity_by_id(&admin, ms, &ids[0]).unwrap().parent.clone().unwrap();
        let listed = uc.list_children(&alice, ms, &FullName::parse("main").unwrap(), None).unwrap();
        let walked = uc.visible_batch(ms, "alice", std::slice::from_ref(&schema_id)).unwrap();
        prop_assert_eq!(listed.len() == 1, walked[0]);
    }
}

// ---------------------------------------------------------------------
// 4b. One row per entity: the tree ↔ pointer ↔ trash structure holds
//     after every step of a random lifecycle, and a read by id equals
//     the read by name (same entity, same chain)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn by_id_reads_equal_by_name_reads_and_structure_holds(
        ops in proptest::collection::vec((0u8..6, 0u8..6), 1..30)
    ) {
        let world = World::build(&WorldConfig::default());
        let (uc, ms) = (&world.uc, &world.ms);
        let admin = Context::user(ADMIN);
        uc.create_catalog(&admin, ms, "main").unwrap();
        // Two schemas; `schemas[s]` is what schema `s` is called now.
        let mut schemas = ["s0".to_string(), "s1".to_string()];
        for s in &schemas {
            uc.create_schema(&admin, ms, "main", s).unwrap();
        }
        let columns = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut live: std::collections::BTreeMap<(usize, u8), Uid> = Default::default();
        for (step, (op, n)) in ops.into_iter().enumerate() {
            let s = (n % 2) as usize;
            let schema = FullName::of(&["main", &schemas[s]]);
            let table = FullName::parse(&format!("{schema}.t{n}")).unwrap();
            match op {
                0 | 1 => {
                    if let Ok(ent) = uc.create_table(&admin, ms, TableSpec::managed(&table.to_string(), columns.clone()).unwrap()) {
                        live.insert((s, n), ent.id.clone());
                    }
                }
                2 => {
                    let (target, group) = [(&table, "relation"), (&schema, "schema")][(n % 4 / 2) as usize];
                    let granted = uc.grant(&admin, ms, target, group, "alice", Privilege::Select);
                    prop_assert_eq!(granted.is_ok(), group == "schema" || live.contains_key(&(s, n)));
                }
                3 => {
                    let renamed = format!("s{s}r{step}");
                    uc.rename_securable(&admin, ms, &schema, "schema", &renamed).unwrap();
                    schemas[s] = renamed;
                }
                4 => {
                    let dropped = uc.drop_securable(&admin, ms, &table, "relation").is_ok();
                    prop_assert_eq!(dropped, live.remove(&(s, n)).is_some());
                }
                _ => drop(uc.purge_soft_deleted(ms).unwrap()),
            }
            prop_assert_eq!(uc_check::checker::verify_structure(&world.db, ms), vec![]);
        }
        // The writer's own cache, and a node that reads by id before it
        // has cached anything.
        let cold = uc_catalog::service::UnityCatalog::new(
            world.db.clone(),
            world.store.clone(),
            uc_catalog::service::UcConfig::default(),
            "cold",
        );
        let alice = Context::user("alice");
        for ((s, n), id) in &live {
            let name = format!("main.{}.t{n}", schemas[*s]);
            for node in [&cold, uc] {
                let by_id = node.get_entity_by_id(&admin, ms, id).unwrap();
                prop_assert_eq!(&by_id, &node.get_table(&admin, ms, &name).unwrap());
                // Same chain: the grants alice inherits decide both alike.
                let seen_by_id = node.visible_batch(ms, "alice", std::slice::from_ref(id)).unwrap()[0];
                prop_assert_eq!(seen_by_id, node.get_table(&alice, ms, &name).is_ok(), "{}", name);
            }
        }
    }
}

// ---------------------------------------------------------------------
// 5. Cache ≡ database equivalence under random write/read interleavings
//    (two nodes over one database)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cache_agrees_with_database(ops in proptest::collection::vec((0u8..4, 0u8..5), 1..25)) {
        let world = World::build(&WorldConfig::default());
        let ctx = Context::user(ADMIN);
        world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
        world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
        let node_b = uc_catalog::service::UnityCatalog::new(
            world.db.clone(),
            world.store.clone(),
            uc_catalog::service::UcConfig::default(),
            "node-b",
        );
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        for (op, t) in ops {
            let name = format!("main.s.t{t}");
            let node = if op % 2 == 0 { &world.uc } else { &node_b };
            match op {
                0 | 1 => {
                    // upsert-ish: create or comment
                    let spec = TableSpec::managed(&name, schema.clone()).unwrap();
                    if node.create_table(&ctx, &world.ms, spec).is_err() {
                        let _ = node.update_comment(
                            &ctx,
                            &world.ms,
                            &FullName::parse(&name).unwrap(),
                            "relation",
                            &format!("c{op}{t}"),
                        );
                    }
                }
                2 => {
                    let _ = node.drop_securable(
                        &ctx,
                        &world.ms,
                        &FullName::parse(&name).unwrap(),
                        "relation",
                    );
                }
                _ => {
                    let _ = node.get_table(&ctx, &world.ms, &name);
                }
            }
        }
        // After reconciling, both nodes' cached views equal the database.
        for node in [&world.uc, &node_b] {
            node.reconcile_metastore(&world.ms);
            for t in 0..5 {
                let name = format!("main.s.t{t}");
                let via_cache = node.get_table(&ctx, &world.ms, &name).ok();
                // a fresh node has no cache state: pure DB truth
                let fresh = uc_catalog::service::UnityCatalog::new(
                    world.db.clone(),
                    world.store.clone(),
                    uc_catalog::service::UcConfig {
                        cache: uc_catalog::cache::CacheConfig::disabled(),
                        ..Default::default()
                    },
                    "node-fresh",
                );
                let via_db = fresh.get_table(&ctx, &world.ms, &name).ok();
                prop_assert_eq!(
                    via_cache.as_ref().map(|e| (&e.id, &e.comment)),
                    via_db.as_ref().map(|e| (&e.id, &e.comment)),
                    "node {} diverges from DB on {}", node.node_id(), name
                );
            }
        }
    }
}

/// Pinned replay of the shrunk case stored in
/// `property_invariants.proptest-regressions`
/// (`ops = [(1, 4), (2, 4), (0, 4), (1, 4)]`): create t4 on node B, drop
/// it on node A, recreate it on node A, then comment it on node B — the
/// create/drop/recreate ping-pong that once left node B's name index
/// pointing at the dropped entity. The harness's generator-only proptest
/// does not consult regression files, so the case is encoded as an
/// explicit test to keep it exercised forever.
#[test]
fn regression_cache_agrees_after_cross_node_drop_and_recreate() {
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let node_b = uc_catalog::service::UnityCatalog::new(
        world.db.clone(),
        world.store.clone(),
        uc_catalog::service::UcConfig::default(),
        "node-b",
    );
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    let name = FullName::parse("main.s.t4").unwrap();
    // (1, 4): create on node B
    node_b
        .create_table(&ctx, &world.ms, TableSpec::managed("main.s.t4", schema.clone()).unwrap())
        .unwrap();
    // (2, 4): drop on node A
    world.uc.drop_securable(&ctx, &world.ms, &name, "relation").unwrap();
    // (0, 4): recreate on node A
    world
        .uc
        .create_table(&ctx, &world.ms, TableSpec::managed("main.s.t4", schema).unwrap())
        .unwrap();
    // (1, 4): node B sees the *new* entity and comments it
    let _ = node_b.update_comment(&ctx, &world.ms, &name, "relation", "c14");
    for node in [&world.uc, &node_b] {
        node.reconcile_metastore(&world.ms);
        let via_cache = node.get_table(&ctx, &world.ms, "main.s.t4").ok();
        let fresh = uc_catalog::service::UnityCatalog::new(
            world.db.clone(),
            world.store.clone(),
            uc_catalog::service::UcConfig {
                cache: uc_catalog::cache::CacheConfig::disabled(),
                ..Default::default()
            },
            "node-fresh",
        );
        let via_db = fresh.get_table(&ctx, &world.ms, "main.s.t4").ok();
        assert_eq!(
            via_cache.as_ref().map(|e| (&e.id, &e.comment)),
            via_db.as_ref().map(|e| (&e.id, &e.comment)),
            "node {} diverges from DB on main.s.t4",
            node.node_id()
        );
    }
}

// ---------------------------------------------------------------------
// 6. Cache ≡ database and version monotonicity under *injected faults*
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cache_agrees_with_database_under_faults(
        seed in 0u64..1_000_000,
        // Exercise the sharded cache across shard counts: 1 reproduces the
        // single-lock layout, 16 is the default sharded layout.
        shards in prop_oneof![Just(1usize), Just(4usize), Just(16usize)],
        ops in proptest::collection::vec((0u8..5, 0u8..5), 1..30),
    ) {
        // Every layer shares one seeded fault plan: commits randomly hit
        // injected conflicts, write-through cache updates are randomly
        // skipped, and reconciliation passes are randomly dropped.
        let plan = FaultPlan::seeded(seed);
        let clock = Clock::manual(0);
        let sts = StsService::new(clock).with_faults(plan.clone());
        let store = ObjectStore::with_faults(sts, LatencyModel::zero(), plan.clone());
        let db = Db::new(DbConfig { faults: plan.clone(), ..Default::default() });
        let mk_node = |id: &str, cache: bool| uc_catalog::service::UnityCatalog::new(
            db.clone(),
            store.clone(),
            uc_catalog::service::UcConfig {
                cache: if cache {
                    uc_catalog::cache::CacheConfig { shards, ..Default::default() }
                } else {
                    uc_catalog::cache::CacheConfig::disabled()
                },
                faults: plan.clone(),
                ..Default::default()
            },
            id,
        );
        let node_a = mk_node("node-a", true);
        let node_b = mk_node("node-b", true);
        let ctx = Context::user(ADMIN);
        let ms = node_a.create_metastore(ADMIN, "chaos", "us-west-2").unwrap();
        let root = store.create_bucket("lake");
        node_a.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
        node_a.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
        node_a.create_catalog(&ctx, &ms, "main").unwrap();
        node_a.create_schema(&ctx, &ms, "main", "s").unwrap();

        plan.arm(points::TXDB_COMMIT_CONFLICT, FaultMode::Probability(0.2));
        plan.arm(points::CATALOG_CACHE_SKIP, FaultMode::Probability(0.3));
        plan.arm(points::CATALOG_RECONCILE_SKIP, FaultMode::Probability(0.3));

        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let ms_version = |db: &Db| {
            let rt = db.begin_read();
            uc_catalog::cache::read_ms_version(&rt, &ms)
        };
        let mut last_version = ms_version(&db);
        for (op, t) in ops {
            let name = format!("main.s.t{t}");
            let node = if op % 2 == 0 { &node_a } else { &node_b };
            match op {
                0 | 1 => {
                    let spec = TableSpec::managed(&name, schema.clone()).unwrap();
                    if node.create_table(&ctx, &ms, spec).is_err() {
                        let _ = node.update_comment(
                            &ctx,
                            &ms,
                            &FullName::parse(&name).unwrap(),
                            "relation",
                            &format!("c{op}{t}"),
                        );
                    }
                }
                2 => {
                    let _ = node.drop_securable(&ctx, &ms, &FullName::parse(&name).unwrap(), "relation");
                }
                3 => {
                    let _ = node.get_table(&ctx, &ms, &name);
                }
                _ => {
                    node.reconcile_metastore(&ms); // may be dropped by fault
                }
            }
            // Metastore version is monotone no matter what was injected.
            let v = ms_version(&db);
            prop_assert!(v >= last_version, "version went backwards: {v} < {last_version}");
            last_version = v;
        }

        // Heal; one real reconcile must restore cache ≡ DB on both nodes.
        plan.disarm(points::TXDB_COMMIT_CONFLICT);
        plan.disarm(points::CATALOG_CACHE_SKIP);
        plan.disarm(points::CATALOG_RECONCILE_SKIP);
        let truth = mk_node("node-truth", false);
        for node in [&node_a, &node_b] {
            node.reconcile_metastore(&ms);
            for t in 0..5 {
                let name = format!("main.s.t{t}");
                let via_cache = node.get_table(&ctx, &ms, &name).ok();
                let via_db = truth.get_table(&ctx, &ms, &name).ok();
                prop_assert_eq!(
                    via_cache.as_ref().map(|e| (&e.id, &e.comment)),
                    via_db.as_ref().map(|e| (&e.id, &e.comment)),
                    "node {} diverges from DB on {} (seed {})", node.node_id(), name, seed
                );
            }
        }
    }
}
