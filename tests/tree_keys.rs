//! Property-test corpus for the order-preserving tree key codec
//! (DESIGN.md §11) plus the single-range-scan acceptance assertions:
//! listing children, cascading a subtree drop, and resolving a qualified
//! name (the chain privilege inheritance evaluates over) must each cost
//! exactly one range scan over the tree-encoded keyspace. The exact
//! work counts of the one-row layout (the entity in `T_TREE`, an id
//! pointer to it in `T_ENTITY`, a dropped entity in `T_TRASH`) close the
//! file.

use proptest::prelude::*;

use uc_bench::{World, WorldConfig};
use uc_catalog::model::{keys, treekey};
use uc_catalog::service::crud::{BulkSchemaSpec, TableSpec};
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::types::FullName;
use uc_delta::value::{DataType, Field, Schema};

// ---------------------------------------------------------------------
// 1. Codec properties over an adversarial segment alphabet
// ---------------------------------------------------------------------

/// Segments drawn to stress every framing hazard: empty strings, the
/// terminator/escape bytes themselves, the legacy index separators
/// (`|`, `.`, `/`), multi-byte unicode, and the classic sibling-prefix
/// pairs.
fn arb_segment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[a-d]{1,4}",
        "[\u{0}-\u{3}]{1,3}",
        "[a-c|./: ]{1,5}",
        "[α-ε]{1,3}",
        Just("t1".to_string()),
        Just("t10".to_string()),
        Just("ware".to_string()),
        Just("warehouse".to_string()),
    ]
}

fn arb_path() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(arb_segment(), 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Round trip: decode ∘ encode is the identity for arbitrary segment
    /// vectors — nothing about the content can confuse the framing.
    #[test]
    fn encode_decode_round_trips(path in arb_path()) {
        let key = treekey::encode(&path);
        prop_assert_eq!(treekey::decode(&key), Some(path));
    }

    /// Order preservation: byte order of encoded keys equals the
    /// lexicographic order of the segment vectors. This is the property
    /// that makes "all descendants of a node" one contiguous key range.
    #[test]
    fn key_order_equals_path_order(a in arb_path(), b in arb_path()) {
        let (ka, kb) = (treekey::encode(&a), treekey::encode(&b));
        prop_assert_eq!(
            ka.cmp(&kb),
            a.cmp(&b),
            "key order diverged from path order for {:?} vs {:?}",
            a,
            b
        );
    }

    /// Prefix containment: a parent's key is a string prefix of every
    /// descendant's key, and depth counts segments without decoding.
    #[test]
    fn parent_prefixes_descendants(base in arb_path(), ext in arb_segment()) {
        let parent = treekey::encode(&base);
        let mut extended = base.clone();
        extended.push(ext);
        let child = treekey::encode(&extended);
        prop_assert!(child.starts_with(&parent));
        prop_assert_eq!(treekey::depth(&parent), base.len());
        prop_assert_eq!(treekey::depth(&child), base.len() + 1);
        // The ancestor chain of the child ends with [parent, child].
        let chain: Vec<&str> = treekey::chain_prefixes(&child).collect();
        prop_assert_eq!(chain.len(), extended.len());
        if !base.is_empty() {
            prop_assert_eq!(chain[base.len() - 1], parent.as_str());
        }
    }
}

// ---------------------------------------------------------------------
// 2. Sibling-prefix traps pinned as explicit regressions
// ---------------------------------------------------------------------

/// `t1` vs `t10`: under the raw flat scheme a prefix scan for `t1`'s
/// subtree would swallow `t10`. The terminator framing keeps them
/// siblings while still placing `t1`'s real descendants inside its range.
#[test]
fn regression_t1_vs_t10_are_siblings() {
    let t1 = treekey::encode(&["ms", "s", "t1"]);
    let t10 = treekey::encode(&["ms", "s", "t10"]);
    assert!(!t10.starts_with(&t1), "t10 must not sit inside t1's key range");
    assert!(t1 < t10, "shorter sibling sorts first");
    let t1_child = treekey::encode(&["ms", "s", "t1", "part"]);
    assert!(t1_child.starts_with(&t1));
    assert!(t1_child < t10, "t1's subtree sits wholly before t10");
}

/// `ware` vs `warehouse`: the storage-path analogue of the same trap.
#[test]
fn regression_ware_vs_warehouse_are_siblings() {
    let ware = treekey::encode(&["ms", "ware"]);
    let warehouse = treekey::encode(&["ms", "warehouse"]);
    assert!(!warehouse.starts_with(&ware));
    assert!(ware < warehouse);
    let under_ware = treekey::encode(&["ms", "ware", "x"]);
    assert!(under_ware.starts_with(&ware));
    assert!(under_ware < warehouse, "ware's subtree ends before warehouse begins");
}

// ---------------------------------------------------------------------
// 3. Single-range-scan acceptance assertions (service level, DbStats)
// ---------------------------------------------------------------------

fn seeded_world(tables: &[&str]) -> (World, Context) {
    let world = World::build(&WorldConfig::default());
    let ctx = world.admin();
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    for t in tables {
        world
            .uc
            .create_table(
                &ctx,
                &world.ms,
                TableSpec::managed(&format!("main.s.{t}"), schema.clone()).unwrap(),
            )
            .unwrap();
    }
    (world, ctx)
}

/// Listing the children of a schema costs exactly one range scan of the
/// tree index — no per-child point reads, regardless of sibling names
/// that are string prefixes of each other.
#[test]
fn list_children_is_one_range_scan() {
    let (world, ctx) = seeded_world(&["t1", "t10", "ware", "warehouse"]);
    let parent = FullName::parse("main.s").unwrap();
    // Warm the cache so parent resolution is served from memory and the
    // measured delta isolates the listing itself.
    world.uc.list_children(&ctx, &world.ms, &parent, Some("relation")).unwrap();
    let scans0 = world.db.stats().scans();
    let listed = world.uc.list_children(&ctx, &world.ms, &parent, Some("relation")).unwrap();
    let mut names: Vec<&str> = listed.iter().map(|e| e.name.as_str()).collect();
    names.sort_unstable();
    assert_eq!(names, vec!["t1", "t10", "ware", "warehouse"]);
    assert_eq!(
        world.db.stats().scans() - scans0,
        1,
        "listing must be a single range scan of the tree index"
    );
}

/// Dropping a schema cascades to every descendant in one range scan of
/// the subtree's key range — the scan returns full entity rows, so no
/// recursive name-index walk and no per-child reads.
#[test]
fn subtree_drop_is_one_range_scan() {
    let (world, ctx) = seeded_world(&["t1", "t10", "t2"]);
    let schema_name = FullName::parse("main.s").unwrap();
    // Warm name resolution for the drop target.
    world.uc.get_securable(&ctx, &world.ms, &schema_name, "schema").unwrap();
    let scans0 = world.db.stats().scans();
    let dropped = world.uc.drop_securable(&ctx, &world.ms, &schema_name, "schema").unwrap();
    assert_eq!(dropped, 4, "schema + three tables");
    assert_eq!(
        world.db.stats().scans() - scans0,
        1,
        "cascade must be a single range scan of the subtree"
    );
    // And nothing under the schema resolves afterwards.
    assert!(world.uc.get_table(&ctx, &world.ms, "main.s.t1").is_err());
    assert!(world.uc.get_table(&ctx, &world.ms, "main.s.t10").is_err());
}

/// The bulk namespace import creates schemas and tables in chunked
/// transactions, is idempotent on re-run, and everything it loads is
/// visible through the ordinary tree-scan listing path.
#[test]
fn bulk_import_populates_and_converges() {
    let world = World::build(&WorldConfig::default());
    let ctx = world.admin();
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    let specs: Vec<BulkSchemaSpec> = (0..3)
        .map(|s| BulkSchemaSpec {
            name: format!("bulk_{s}"),
            tables: (0..10).map(|t| format!("t{t}")).collect(),
        })
        .collect();
    // Chunk smaller than a schema's table list so every schema spans
    // multiple commits.
    let created = world
        .uc
        .bulk_create_tables(&ctx, &world.ms, "main", &specs, &schema, 4)
        .unwrap();
    assert_eq!(created, 3 + 30, "3 schemas + 30 tables");
    // Idempotent: a resumed import creates nothing new.
    let again = world
        .uc
        .bulk_create_tables(&ctx, &world.ms, "main", &specs, &schema, 4)
        .unwrap();
    assert_eq!(again, 0, "re-run must skip every existing row");
    // Loaded rows serve through the normal read paths.
    for s in 0..3 {
        let parent = FullName::parse(&format!("main.bulk_{s}")).unwrap();
        let listed = world
            .uc
            .list_children(&ctx, &world.ms, &parent, Some("relation"))
            .unwrap();
        assert_eq!(listed.len(), 10);
        let got = world
            .uc
            .get_table(&ctx, &world.ms, &format!("main.bulk_{s}.t7"))
            .unwrap();
        assert_eq!(got.name, "t7");
    }
    // And a bulk-loaded subtree still cascades as one range scan.
    let dropped = world
        .uc
        .drop_securable(&ctx, &world.ms, &FullName::parse("main.bulk_1").unwrap(), "schema")
        .unwrap();
    assert_eq!(dropped, 11, "schema + ten tables");
}

/// Bulk import is a metastore-admin capability: ordinary principals are
/// refused before any write happens.
#[test]
fn bulk_import_requires_metastore_admin() {
    let world = World::build(&WorldConfig::default());
    let ctx = world.admin();
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    let specs = [BulkSchemaSpec { name: "s".into(), tables: vec!["t".into()] }];
    let intruder = Context::user("mallory");
    let err = world
        .uc
        .bulk_create_tables(&intruder, &world.ms, "main", &specs, &schema, 8)
        .unwrap_err();
    assert!(
        format!("{err}").contains("metastore admin"),
        "expected a permission error, got: {err}"
    );
}

/// Resolving a qualified name against the database costs one chain scan
/// over the tree index: the ancestor chain — which the privilege
/// inheritance walk evaluates over — comes back from that single scan,
/// not from per-level point reads.
#[test]
fn uncached_name_resolution_is_one_range_scan() {
    let world = World::build(&WorldConfig { cache: false, ..Default::default() });
    let ctx = world.admin();
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    world
        .uc
        .create_table(&ctx, &world.ms, TableSpec::managed("main.s.t", schema).unwrap())
        .unwrap();
    let scans0 = world.db.stats().scans();
    let got = world.uc.get_table(&ctx, &world.ms, "main.s.t").unwrap();
    assert_eq!(got.name, "t");
    assert_eq!(
        world.db.stats().scans() - scans0,
        1,
        "metastore.catalog.schema.table must resolve via one chain scan"
    );
}

// ---------------------------------------------------------------------
// 4. Exact work counts of the one-row layout (DbStats deltas)
// ---------------------------------------------------------------------

/// Creating a managed table writes four rows: the entity's tree row, the
/// id pointer to it, its storage path, and the metastore version. There
/// is no other name index to maintain.
#[test]
fn create_table_writes_four_rows() {
    let (world, ctx) = seeded_world(&["warm"]);
    let writes0 = world.db.stats().writes();
    world
        .uc
        .create_table(
            &ctx,
            &world.ms,
            TableSpec::managed("main.s.t", Schema::new(vec![Field::new("x", DataType::Int)]))
                .unwrap(),
        )
        .unwrap();
    assert_eq!(world.db.stats().writes() - writes0, 4, "pointer + tree + path + msver");
}

/// Dropping a table moves its row from the tree to the trash and removes
/// its pointer and path: it touches those four tables and the version —
/// in particular no row of a separate name index.
#[test]
fn drop_table_writes_no_name_row() {
    let (world, ctx) = seeded_world(&["t"]);
    let csn0 = world.db.current_csn();
    let writes0 = world.db.stats().writes();
    let dropped = world
        .uc
        .drop_securable(&ctx, &world.ms, &FullName::parse("main.s.t").unwrap(), "relation")
        .unwrap();
    assert_eq!(dropped, 1);
    assert_eq!(world.db.stats().writes() - writes0, 5, "pointer + tree + path + trash + msver");
    let mut tables: Vec<String> = world
        .db
        .changelog()
        .changes_since(csn0)
        .into_iter()
        .map(|c| c.table)
        .collect();
    tables.sort_unstable();
    assert_eq!(tables, [keys::T_ENTITY, keys::T_MSVER, keys::T_PATH, keys::T_TRASH, keys::T_TREE]);
}

/// A bulk-loaded entity occupies exactly two live rows: its one copy, and
/// the id pointer to it (whose value is the copy's key, not a second copy).
#[test]
fn bulk_loaded_entities_cost_two_rows_each() {
    let world = World::build(&WorldConfig::default());
    let ctx = world.admin();
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    let entities = |w: &World| w.db.begin_read().scan_prefix(keys::T_ENTITY, "").len();
    let (rows0, ents0) = (world.db.live_rows(), entities(&world));
    let specs = [BulkSchemaSpec {
        name: "s".into(),
        tables: (0..50).map(|t| format!("t{t}")).collect(),
    }];
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    let created = world.uc.bulk_create_tables(&ctx, &world.ms, "main", &specs, &schema, 16).unwrap();
    assert_eq!(created, 51);
    assert_eq!(entities(&world) - ents0, 51);
    assert_eq!(world.db.live_rows() - rows0, 2 * 51, "one tree row + one pointer each");
    let rt = world.db.begin_read();
    for (id_key, pointer) in rt.scan_prefix(keys::T_ENTITY, "") {
        let row = rt.get(keys::T_TREE, std::str::from_utf8(&pointer).unwrap()).expect("a pointer names a tree row");
        let ent = uc_catalog::Entity::decode(&row).unwrap();
        assert_eq!(id_key, keys::ent_key(&world.ms, &ent.id), "the row a pointer names is that id's entity");
    }
}

/// A second catalog node over the same database, with its one-time reads
/// (metastore row, principal record) already paid.
fn warmed_probe(world: &World, ctx: &Context) -> std::sync::Arc<UnityCatalog> {
    let probe =
        UnityCatalog::new(world.db.clone(), world.store.clone(), UcConfig::default(), "probe");
    probe.get_metastore(&world.ms).unwrap();
    probe.principal_groups(&ctx.principal).unwrap();
    probe
}

/// A cold `resolve_for_query` leaf is one chain scan — the leaf and every
/// level above it from one snapshot, whether or not the levels above were
/// cached — on top of the version read every database snapshot pays.
#[test]
fn cold_resolve_leaf_is_one_chain_scan() {
    let (world, ctx) = seeded_world(&["a", "b"]);
    let probe = warmed_probe(&world, &ctx);
    let refs = |t: &str| [FullName::parse(&format!("main.s.{t}")).unwrap()];
    probe.resolve_for_query(&ctx, &world.ms, &refs("a"), false).unwrap();
    let cost = db_cost(&world, || {
        let got = probe.resolve_for_query(&ctx, &world.ms, &refs("b"), false).unwrap();
        assert_eq!(got[0].entity.name, "b");
    });
    assert_eq!(cost, [1, 1, 0, 0], "msver + the leaf's chain scan");
}

/// A by-id read is a pointer read in front of the by-key read: cold, it
/// costs the version read, the pointer, and the same one chain scan — and
/// returns what the by-name read returns.
#[test]
fn cold_by_id_reads_are_a_pointer_read_and_one_chain_scan() {
    let (world, ctx) = seeded_world(&["a", "b"]);
    let by_name = |t: &str| world.uc.get_table(&ctx, &world.ms, &format!("main.s.{t}")).unwrap();
    let (a, b) = (by_name("a"), by_name("b"));
    let probe = warmed_probe(&world, &ctx);
    let get = db_cost(&world, || assert_eq!(probe.get_entity_by_id(&ctx, &world.ms, &a.id).unwrap(), a));
    assert_eq!(get, [2, 1, 0, 0], "cold get_entity_by_id: msver + pointer, one chain scan");
    // The node's first vend also looks the bucket's root credential up.
    probe.renew_read_credential(&ctx, &world.ms, &a.id).unwrap();
    let renew = db_cost(&world, || drop(probe.renew_read_credential(&ctx, &world.ms, &b.id).unwrap()));
    assert_eq!(renew, [2, 1, 0, 0], "cold renew_read_credential: msver + pointer, one chain scan");
    let warm = db_cost(&world, || drop(probe.get_entity_by_id(&ctx, &world.ms, &b.id).unwrap()));
    assert_eq!(warm, [0, 0, 0, 0], "the by-id load cached the entity under its id and its name");
}

/// The garbage collector's victims are the metastore's range of the
/// trash: finding them costs the same whether the dropped tables were 3
/// of 3 or 3 of 200.
#[test]
fn purge_cost_does_not_depend_on_the_live_population() {
    let purge_cost = |live: usize| {
        let names: Vec<String> = (0..live).map(|i| format!("t{i}")).collect();
        let (world, ctx) = seeded_world(&names.iter().map(String::as_str).collect::<Vec<_>>());
        for t in &names[..3] {
            world.uc.drop_securable(&ctx, &world.ms, &FullName::parse(&format!("main.s.{t}")).unwrap(), "relation").unwrap();
        }
        db_cost(&world, || assert_eq!(world.uc.purge_soft_deleted(&world.ms).unwrap().0, 3))
    };
    let (few, many) = (purge_cost(3), purge_cost(200));
    assert_eq!(few, many, "purge reads its victims, not the namespace");
    println!("purge of 3 dropped tables: {few:?}");
}

/// Listing catalogs or shares is one range scan whose rows carry the
/// entities: no per-object read, however many objects and however cold
/// the node's cache.
#[test]
fn metastore_level_listings_are_one_scan_and_no_entity_reads() {
    let world = World::build(&WorldConfig::default());
    let ctx = world.admin();
    for i in 0..6 {
        world.uc.create_catalog(&ctx, &world.ms, &format!("c{i}")).unwrap();
        world.uc.create_share(&ctx, &world.ms, &format!("sh{i}")).unwrap();
    }
    let probe = warmed_probe(&world, &ctx);
    let (reads0, scans0) = (world.db.stats().reads(), world.db.stats().scans());
    assert_eq!(probe.list_catalogs(&ctx, &world.ms).unwrap().len(), 6);
    assert_eq!(world.db.stats().scans() - scans0, 1);
    assert_eq!(world.db.stats().reads() - reads0, 1, "the snapshot's version read only");
    let (reads0, scans0) = (world.db.stats().reads(), world.db.stats().scans());
    assert_eq!(probe.list_shares(&ctx, &world.ms).unwrap().len(), 6);
    assert_eq!(world.db.stats().scans() - scans0, 1);
    assert_eq!(world.db.stats().reads() - reads0, 1, "the snapshot's version read only");
}

/// The database work of `op` as `DbStats` counts it:
/// `[reads, scans, commits, rows written]`.
fn db_cost<T>(world: &World, op: impl FnOnce() -> T) -> [u64; 4] {
    let s = world.db.stats();
    let now = || [s.reads(), s.scans(), s.commits(), s.writes()];
    let before = now();
    op();
    let after = now();
    std::array::from_fn(|i| after[i] - before[i])
}

/// The write protocol's exact database bill on a warm node (ROADMAP 6b
/// style: counts, not wall-clock), measured. A write reads the version,
/// the pointer of the entity it needs alive (a create: its parent), and
/// what it decides on: the vacant key (a create), the row (an update) or
/// the subtree (a drop). No ancestor is read, whatever the depth.
#[test]
fn write_ops_cost_exact_reads_scans_commits_rows() {
    let (world, ctx) = seeded_world(&["base"]);
    let (uc, ms) = (&world.uc, &world.ms);
    let cols = || Schema::new(vec![Field::new("x", DataType::Int)]);
    let name = |n: &str| FullName::parse(n).unwrap();

    let create_table =
        db_cost(&world, || uc.create_table(&ctx, ms, TableSpec::managed("main.s.t", cols()).unwrap()).unwrap());
    let create_view = db_cost(&world, || {
        uc.create_view(&ctx, ms, &name("main.s.v"), "SELECT x FROM main.s.base", cols(), &[name("main.s.base")])
            .unwrap()
    });
    let create_volume = db_cost(&world, || uc.create_volume(&ctx, ms, &name("main.s.vol"), None).unwrap());
    let create_schema = db_cost(&world, || uc.create_schema(&ctx, ms, "main", "s2").unwrap());
    let grant = db_cost(&world, || {
        uc.grant(&ctx, ms, &name("main.s.t"), "relation", "alice", uc_catalog::authz::Privilege::Select).unwrap()
    });
    let drop_table = db_cost(&world, || uc.drop_securable(&ctx, ms, &name("main.s.t"), "relation").unwrap());

    assert_eq!(create_table, [4, 1, 1, 4], "managed create_table: pointer + tree + path + msver rows");
    assert_eq!(create_view, [3, 0, 1, 3], "create_view with one dependency");
    assert_eq!(create_volume, [4, 1, 1, 4], "managed create_volume");
    assert_eq!(create_schema, [3, 0, 1, 3], "create_schema");
    assert_eq!(grant, [3, 0, 1, 2], "grant: the tree row and msver, no pointer write");
    assert_eq!(
        drop_table,
        [2, 1, 1, 5],
        "drop_securable of a table: one row more than the two-table layout's 4, the trash row \
         (pointer and tree row deleted, path deleted, trash row put, msver)"
    );
}

/// Renaming a schema moves its subtree in the database and costs the
/// renaming node's cache nothing: the rows it never read are not
/// installed (a cache smaller than the subtree evicts nothing and keeps
/// its working set), and what it did hold under the old keys is dropped
/// and found again under the new ones.
#[test]
fn schema_rename_installs_no_unread_descendants() {
    const TABLES: u64 = 30;
    let names: Vec<String> = (0..TABLES).map(|i| format!("t{i}")).collect();
    let (world, ctx) = seeded_world(&names.iter().map(String::as_str).collect::<Vec<_>>());
    world.uc.create_schema(&ctx, &world.ms, "main", "other").unwrap();
    let cols = Schema::new(vec![Field::new("x", DataType::Int)]);
    world.uc.create_table(&ctx, &world.ms, TableSpec::managed("main.other.hot", cols).unwrap()).unwrap();
    let mut config = UcConfig::default();
    config.cache.max_entries = 8;
    let node = UnityCatalog::new(world.db.clone(), world.store.clone(), config, "small");
    node.get_table(&ctx, &world.ms, "main.other.hot").unwrap();
    let t0 = node.get_table(&ctx, &world.ms, "main.s.t0").unwrap();

    let rename = db_cost(&world, || {
        node.rename_securable(&ctx, &world.ms, &FullName::parse("main.s").unwrap(), "schema", "s2").unwrap()
    });
    // Reads: msver, the schema's pointer and row, the vacancy of the new
    // key. Rows, per moved row: the old tree row deleted, the pointer and
    // the new tree row put; plus msver.
    assert_eq!(rename, [4, 1, 1, 3 * (TABLES + 1) + 1], "rename of a schema holding {TABLES} tables");
    assert_eq!(node.cache_stats().evictions.get(), 0, "the subtree was not pushed through the cache");
    let hot = db_cost(&world, || drop(node.get_table(&ctx, &world.ms, "main.other.hot").unwrap()));
    assert_eq!(hot, [0, 0, 0, 0], "the working set survived the rename");
    assert!(node.get_table(&ctx, &world.ms, "main.s.t0").is_err(), "the old name is gone");
    let moved = node.get_entity_by_id(&ctx, &world.ms, &t0.id).unwrap();
    assert_eq!(moved, node.get_table(&ctx, &world.ms, "main.s2.t0").unwrap(), "the table read before the rename moved with it");
}
