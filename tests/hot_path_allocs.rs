//! Exact hot-path cost gate (ROADMAP 6b): heap allocations and cached
//! entity reads (`cache.hits`) per cached `get_table`, by-name
//! `temp_credentials` and `temp_credentials_for_path`, allocations per
//! cached `tables.get` through `RestApi::handle`, and allocations per
//! cached governed read: a grantee's `get_table` and a trusted engine's
//! `resolve_for_query` of a table under a row filter, a column mask and a
//! container ABAC policy. The cold paths are pinned the same way: the row
//! codec (`Entity::decode` / `encode`), an uncached `get_table`, a
//! 200-table listing, typed and through REST, a three-table
//! `tables.resolve` and a catalog's `grants.list` through REST, and a
//! `get_table` that misses the table on a node whose cache holds its
//! containers.
//!
//! A wall-clock ratio on a shared 1–2 core host cannot resolve a few
//! percent; an allocation count is exact. This binary installs a counting
//! global allocator (per-thread counter, so the libtest harness thread
//! never pollutes the reading), warms one node with the default
//! `UcConfig`, and asserts that each of 1 000 cached calls performs the
//! same number of allocations and no more than the pinned constant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use uc_catalog::authz::{AbacEffect, AbacPolicy, ColumnMaskPolicy, RowFilterPolicy};
use uc_catalog::authz::Privilege;
use uc_catalog::cache::CacheConfig;
use uc_catalog::service::crud::{BulkSchemaSpec, TableSpec};
use uc_catalog::service::rest::RestApi;
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::types::FullName;
use uc_catalog::Entity;
use uc_cloudstore::{AccessLevel, ObjectStore};
use uc_delta::expr::{CmpOp, Expr};
use uc_delta::value::{DataType, Field, Schema, Value};
use uc_txdb::Db;

thread_local! {
    /// Allocations (incl. reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates (const-initialised `Cell<u64>`, no
// destructor) nor touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per cached `get_table` (25 while the by-name probe built a
/// key per level and the metastore was a second lookup; now one key, one
/// chain).
const PARENT_GET_TABLE_ALLOCS: u64 = 21;
/// Allocations per cached by-name `temp_credentials` (41 before the vend
/// evaluated the borrowed chain instead of copying it into `AuthzNode`s,
/// 28 before the one-key probe).
const NAME_CREDENTIAL_ALLOCS: u64 = 24;
/// Allocations per cached `temp_credentials_for_path` (41, then 32 while
/// the parent walk cloned each parent id).
const PATH_CREDENTIAL_ALLOCS: u64 = 30;
/// Allocations per cached `tables.get` through `RestApi::handle`: the
/// typed call's and the JSON reply's. The caller's `Context` is handed
/// through as it came (44 while the door rebuilt it per request, 50 while
/// `rest.{method}.count` was looked up per request, 48 before the one-key
/// probe, 42 while the reply object grew by doubling instead of being
/// built at its size).
const REST_GET_TABLE_ALLOCS: u64 = 40;
/// Allocations per cached `get_table` by a grantee who is not the
/// metastore owner: what the owner's costs (25 while the admin list was
/// parsed out of the metastore's properties on every such request).
const GRANTEE_GET_TABLE_ALLOCS: u64 = 21;
/// Allocations per cached trusted-engine `resolve_for_query` of a table
/// with a row filter, a column mask and a schema ABAC policy masking a
/// tagged column: the policies handed to the engine are the one copy
/// (108 while each policy, tag list and the admin list were parsed out of
/// JSON properties on every request; pinned 45, measured 30, once rows
/// decoded straight into their structs).
const GOVERNED_RESOLVE_ALLOCS: u64 = 30;
/// `cache.hits` per cached `get_table`: table, schema, catalog, metastore.
/// A by-name vend must read the same (it read 7 while it re-walked the
/// chain it had just resolved and looked the metastore up again).
const GET_TABLE_HITS: u64 = 4;
/// `cache.hits` per cached path vend: the asset by path, then its three
/// ancestors (5 before: the metastore twice).
const PATH_CREDENTIAL_HITS: u64 = 4;

/// Allocations per `Entity::decode` of a `meta_cold` table row: one per
/// string the entity owns, and the properties map's node (48 while every
/// row was parsed into a JSON tree and each string cloned out of it).
const DECODE_TABLE_ROW_ALLOCS: u64 = 12;
/// Allocations per `Entity::encode` of that row: the text, and its copy
/// into `Bytes` (38 while the row was rendered into a tree, then printed).
const ENCODE_TABLE_ROW_ALLOCS: u64 = 2;
/// Allocations per uncached `get_table` (cache off, a chain of four rows;
/// 199 with the tree decode).
const COLD_GET_TABLE_ALLOCS: u64 = 64;
/// Allocations per uncached 200-table `list_children` (10 172 with the
/// tree decode; 2 873 while every txdb range read copied its bounds into
/// `String`s).
const COLD_LIST_CHILDREN_ALLOCS: u64 = 2_870;
/// Allocations per uncached 200-table `tables.list` through
/// `RestApi::handle`, the JSON reply included (17 779 with the tree
/// decode; 10 480 with the copied bounds; 10 477 while the reply's
/// 200-entity array was built, then deep-copied by `json!`).
const COLD_REST_LIST_ALLOCS: u64 = 6_476;
/// Allocations per uncached `tables.resolve` of three tables through
/// `RestApi::handle`, the JSON reply included (410 while each entity's
/// grants and the reply's arrays were built, then copied).
const COLD_REST_RESOLVE_ALLOCS: u64 = 274;
/// Allocations per uncached `grants.list` through `RestApi::handle` of the
/// catalog's three grants (70 while the reply's array was built, then
/// copied).
const COLD_REST_GRANTS_LIST_ALLOCS: u64 = 54;
/// Allocations per `get_table` that misses the table but finds its three
/// containers cached (the cache on, as `meta_cold` runs it): one chain
/// scan, one decode, one install. 78 while a miss decoded all four rows,
/// the containers it already held included: their decodes cost 25
/// allocations and their `Arc`s 3, where finding them costs an id copy
/// each and the rows to install one vector. 54 while the metastore
/// version's seek copied its two bounds into `String`s.
const MISS_GET_TABLE_ALLOCS: u64 = 52;
/// Tables in the cold node's schema: a `meta_cold` schema's.
const COLD_TABLES: usize = 200;

const CALLS: usize = 1_000;

/// Allocation count of each of `CALLS` invocations of `op`. The audit
/// log is flushed between calls, outside the counted window: its
/// per-thread lane is a `Vec` that doubles every 2^k records and merges
/// every ~3 000, and draining it makes that amortised cost exactly one
/// lane allocation per call instead of an occasional outlier.
fn allocs_per_call(uc: &UnityCatalog, mut op: impl FnMut()) -> Vec<u64> {
    allocs_of_calls(uc, CALLS, |_| op())
}

/// [`allocs_per_call`] of `op(0)`, …, `op(calls - 1)`.
fn allocs_of_calls(uc: &UnityCatalog, calls: usize, mut op: impl FnMut(usize)) -> Vec<u64> {
    // Pre-sized so recording a sample never allocates inside a window.
    let mut samples = Vec::with_capacity(calls);
    for call in 0..calls {
        uc.audit_log().flush();
        let before = ALLOCS.with(Cell::get);
        op(call);
        samples.push(ALLOCS.with(Cell::get) - before);
    }
    samples
}

fn assert_constant_and_bounded(what: &str, samples: &[u64], pinned: u64) {
    let first = samples[0];
    let odd: Vec<(usize, u64)> = samples
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, n)| *n != first)
        .take(5)
        .collect();
    assert!(odd.is_empty(), "{what}: allocations vary across calls ({first} vs (call, n) {odd:?})");
    println!("{what}: {first} allocations per call (pinned {pinned})");
    assert!(first <= pinned, "{what}: {first} allocations per call, pinned at {pinned}");
}

/// A node with the default `UcConfig` and managed table `main.s.t`
/// (columns `x`, `y`), created by `admin`, the metastore owner.
fn node_with_table() -> (Arc<UnityCatalog>, uc_catalog::Uid, Context, Arc<uc_catalog::Entity>) {
    let store = ObjectStore::in_memory();
    let uc = UnityCatalog::new(Db::in_memory(), store.clone(), Default::default(), "node-0");
    let ctx = Context::user("admin");
    let ms = uc.create_metastore("admin", "allocs", "us-west-2").unwrap();
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
    uc.create_catalog(&ctx, &ms, "main").unwrap();
    uc.create_schema(&ctx, &ms, "main", "s").unwrap();
    let columns = Schema::new(vec![Field::new("x", DataType::Int), Field::new("y", DataType::Int)]);
    let table = uc
        .create_table(&ctx, &ms, TableSpec::managed("main.s.t", columns).unwrap())
        .unwrap();
    (uc, ms, ctx, table)
}

#[test]
fn cached_reads_allocate_a_constant_no_larger_than_the_parent() {
    let (uc, ms, ctx, table) = node_with_table();
    let path = table.storage_path.clone().expect("managed tables have storage");

    // Warm: entity cache, credential cache, per-op instruments, tenant
    // label memo.
    let name = FullName::parse("main.s.t").unwrap();
    let api = RestApi::new(uc.clone());
    let wire_get = serde_json::json!({"name": "main.s.t"});
    for _ in 0..16 {
        api.handle(&ctx, &ms, "tables.get", &wire_get).unwrap();
        uc.get_table(&ctx, &ms, "main.s.t").unwrap();
        uc.temp_credentials(&ctx, &ms, &name, "relation", AccessLevel::Read).unwrap();
        uc.temp_credentials_for_path(&ctx, &ms, &path, AccessLevel::Read).unwrap();
    }
    let db_reads = uc.db().stats().reads();

    let hits = || uc.cache_stats().hits.get();
    let hits_0 = hits();
    let get_table = allocs_per_call(&uc, || {
        uc.get_table(&ctx, &ms, "main.s.t").unwrap();
    });
    let hits_1 = hits();
    let name_credential = allocs_per_call(&uc, || {
        uc.temp_credentials(&ctx, &ms, &name, "relation", AccessLevel::Read).unwrap();
    });
    let hits_2 = hits();
    let path_credential = allocs_per_call(&uc, || {
        uc.temp_credentials_for_path(&ctx, &ms, &path, AccessLevel::Read).unwrap();
    });
    let hits_3 = hits();
    let rest_get_table = allocs_per_call(&uc, || {
        api.handle(&ctx, &ms, "tables.get", &wire_get).unwrap();
    });
    assert_eq!(uc.db().stats().reads(), db_reads, "measured calls must all be cache hits");

    assert_constant_and_bounded("get_table", &get_table, PARENT_GET_TABLE_ALLOCS);
    assert_constant_and_bounded("temp_credentials", &name_credential, NAME_CREDENTIAL_ALLOCS);
    assert_constant_and_bounded(
        "temp_credentials_for_path",
        &path_credential,
        PATH_CREDENTIAL_ALLOCS,
    );
    assert_constant_and_bounded("rest tables.get", &rest_get_table, REST_GET_TABLE_ALLOCS);

    // Cached entity reads (`cache.hits`) per call: one per chain level,
    // and nothing re-read once the chain is resolved. A by-name vend
    // resolves exactly the chain `get_table` does.
    let per_call = |from: u64, to: u64| (to - from) as f64 / CALLS as f64;
    println!(
        "cache.hits per call: get_table {}, temp_credentials {}, temp_credentials_for_path {}",
        per_call(hits_0, hits_1),
        per_call(hits_1, hits_2),
        per_call(hits_2, hits_3)
    );
    assert_eq!(hits_1 - hits_0, GET_TABLE_HITS * CALLS as u64, "get_table cache.hits");
    assert_eq!(hits_2 - hits_1, GET_TABLE_HITS * CALLS as u64, "by-name vend reads what get_table reads");
    assert_eq!(hits_3 - hits_2, PATH_CREDENTIAL_HITS * CALLS as u64, "path vend cache.hits");
}

#[test]
fn cached_governed_reads_allocate_a_constant_below_the_parent() {
    let (uc, ms, admin, _) = node_with_table();
    let name = FullName::parse("main.s.t").unwrap();
    uc.grant_read_path(&admin, &ms, "main.s.t", "alice").unwrap();
    let filter = RowFilterPolicy { expr: Expr::cmp("x", CmpOp::Gt, 0i64) };
    uc.set_row_filter(&admin, &ms, &name, filter).unwrap();
    let mask = ColumnMaskPolicy { column: "y".into(), mask: Expr::Literal(Value::Null), exempt_when: None };
    uc.set_column_mask(&admin, &ms, &name, mask).unwrap();
    uc.set_column_tag(&admin, &ms, &name, "x", "pii", "high").unwrap();
    let pii = AbacPolicy {
        name: "mask-pii".into(),
        tag_key: "pii".into(),
        tag_value: None,
        effect: AbacEffect::MaskColumns {
            mask: Expr::Literal(Value::Str("REDACTED".into())),
            exempt_groups: vec!["privacy".into()],
        },
    };
    uc.create_abac_policy(&admin, &ms, &FullName::parse("main.s").unwrap(), "schema", pii).unwrap();
    let alice = Context::user("alice");
    let engine = Context::trusted("alice", "dbr");
    let refs = [name];
    let resolve = || uc.resolve_for_query(&engine, &ms, &refs, false).unwrap();
    let masked: Vec<String> = resolve()[0].fgac.column_masks.iter().map(|m| m.column.clone()).collect();
    assert_eq!(masked, ["y", "x"], "the direct mask, then the ABAC-derived one");
    assert!(resolve()[0].fgac.row_filter.is_some());
    for _ in 0..16 {
        uc.get_table(&alice, &ms, "main.s.t").unwrap();
        resolve();
    }
    let db_reads = uc.db().stats().reads();

    let grantee_get_table = allocs_per_call(&uc, || {
        uc.get_table(&alice, &ms, "main.s.t").unwrap();
    });
    let governed_resolve = allocs_per_call(&uc, || {
        resolve();
    });
    assert_eq!(uc.db().stats().reads(), db_reads, "measured calls must all be cache hits");

    assert_constant_and_bounded("grantee get_table", &grantee_get_table, GRANTEE_GET_TABLE_ALLOCS);
    assert_constant_and_bounded("governed resolve_for_query", &governed_resolve, GOVERNED_RESOLVE_ALLOCS);
}

/// A node with the metadata cache off and schema `main.s` bulk-loaded with
/// `COLD_TABLES` tables, shaped like `meta_cold`'s world: two-column
/// managed Delta tables with no storage of their own, and the analysts'
/// group grants on the catalog.
fn cold_node() -> (Arc<UnityCatalog>, uc_catalog::Uid, Context) {
    let store = ObjectStore::in_memory();
    let config = UcConfig { cache: CacheConfig::disabled(), ..Default::default() };
    let uc = UnityCatalog::new(Db::in_memory(), store.clone(), config, "node-0");
    let ctx = Context::user("admin");
    let ms = uc.create_metastore("admin", "cold", "us-west-2").unwrap();
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
    uc.create_catalog(&ctx, &ms, "main").unwrap();
    let spec = BulkSchemaSpec {
        name: "s".into(),
        tables: (0..COLD_TABLES).map(|t| format!("t{t:06}")).collect(),
    };
    let columns = Schema::new(vec![Field::new("id", DataType::Int), Field::new("amount", DataType::Int)]);
    uc.bulk_create_tables(&ctx, &ms, "main", &[spec], &columns, 1_000).unwrap();
    let catalog = FullName::parse("main").unwrap();
    for p in [Privilege::UseCatalog, Privilege::UseSchema, Privilege::Select] {
        uc.grant(&ctx, &ms, &catalog, "catalog", "analysts", p).unwrap();
    }
    (uc, ms, ctx)
}

#[test]
fn cold_reads_allocate_a_constant_below_the_parent() {
    let (uc, ms, ctx) = cold_node();
    let api = RestApi::new(uc.clone());
    let schema = FullName::parse("main.s").unwrap();
    let wire_list = serde_json::json!({"schema": "main.s"});
    let wire_resolve = serde_json::json!({"names": ["main.s.t000000", "main.s.t000001", "main.s.t000002"]});
    let wire_grants = serde_json::json!({"securable": "main", "kind_group": "catalog"});
    let table = uc.get_table(&ctx, &ms, "main.s.t000000").unwrap();
    let row = table.encode();
    assert_eq!(Entity::decode(&row).unwrap(), *table, "the row decodes to the entity it encodes");
    for _ in 0..4 {
        uc.get_table(&ctx, &ms, "main.s.t000000").unwrap();
        uc.list_children(&ctx, &ms, &schema, Some("relation")).unwrap();
        api.handle(&ctx, &ms, "tables.list", &wire_list).unwrap();
        api.handle(&ctx, &ms, "tables.resolve", &wire_resolve).unwrap();
        api.handle(&ctx, &ms, "grants.list", &wire_grants).unwrap();
    }
    let db_reads = uc.db().stats().reads();

    let decode = allocs_per_call(&uc, || {
        Entity::decode(&row).unwrap();
    });
    let encode = allocs_per_call(&uc, || {
        table.encode();
    });
    let get_table = allocs_per_call(&uc, || {
        uc.get_table(&ctx, &ms, "main.s.t000000").unwrap();
    });
    let list = allocs_per_call(&uc, || {
        assert_eq!(uc.list_children(&ctx, &ms, &schema, Some("relation")).unwrap().len(), COLD_TABLES);
    });
    let rest_list = allocs_per_call(&uc, || {
        api.handle(&ctx, &ms, "tables.list", &wire_list).unwrap();
    });
    let rest_resolve = allocs_per_call(&uc, || {
        api.handle(&ctx, &ms, "tables.resolve", &wire_resolve).unwrap();
    });
    let rest_grants = allocs_per_call(&uc, || {
        assert_eq!(api.handle(&ctx, &ms, "grants.list", &wire_grants).unwrap()["grants"].as_array().unwrap().len(), 3);
    });
    assert!(uc.db().stats().reads() > db_reads, "measured reads must miss the (disabled) cache");

    assert_constant_and_bounded("Entity::decode of a table row", &decode, DECODE_TABLE_ROW_ALLOCS);
    assert_constant_and_bounded("Entity::encode of a table row", &encode, ENCODE_TABLE_ROW_ALLOCS);
    assert_constant_and_bounded("uncached get_table", &get_table, COLD_GET_TABLE_ALLOCS);
    assert_constant_and_bounded("uncached list_children (200)", &list, COLD_LIST_CHILDREN_ALLOCS);
    assert_constant_and_bounded("uncached rest tables.list (200)", &rest_list, COLD_REST_LIST_ALLOCS);
    assert_constant_and_bounded("uncached rest tables.resolve (3)", &rest_resolve, COLD_REST_RESOLVE_ALLOCS);
    assert_constant_and_bounded("uncached rest grants.list (3)", &rest_grants, COLD_REST_GRANTS_LIST_ALLOCS);
}

/// A cache miss decodes only the row the node does not hold: node 2 reads
/// every table of the cold node's schema once, node 1 rewrites each one,
/// and node 2 reconciles, which evicts the 200 tables and keeps their
/// containers (and leaves its maps sized for the tables, so a re-install
/// never grows one). Each `get_table` on node 2 is then a miss on the
/// table alone.
#[test]
fn a_miss_under_cached_containers_allocates_a_constant_below_the_parent() {
    let (uc, ms, ctx) = cold_node();
    let node = UnityCatalog::new(uc.db().clone(), uc.object_store().clone(), UcConfig::default(), "node-1");
    let names: Vec<String> = (0..COLD_TABLES).map(|t| format!("main.s.t{t:06}")).collect();
    for name in &names {
        node.get_table(&ctx, &ms, name).unwrap();
    }
    for name in &names {
        uc.update_comment(&ctx, &ms, &FullName::parse(name).unwrap(), "relation", "rewritten").unwrap();
    }
    node.reconcile_metastore(&ms);
    let stats = node.cache_stats();
    let (misses, hits, db_reads) = (stats.misses.get(), stats.hits.get(), node.db().stats().reads());

    let miss = allocs_of_calls(&node, COLD_TABLES, |t| {
        assert_eq!(node.get_table(&ctx, &ms, &names[t]).unwrap().comment.as_deref(), Some("rewritten"));
    });
    assert_eq!(stats.misses.get() - misses, COLD_TABLES as u64, "every measured call misses");
    assert_eq!(stats.hits.get(), hits, "a miss is served from its one snapshot");
    assert!(node.db().stats().reads() > db_reads);
    assert_constant_and_bounded("get_table missing the table alone", &miss, MISS_GET_TABLE_ALLOCS);
}
