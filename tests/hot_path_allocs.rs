//! Exact hot-path cost gate (ROADMAP 6b, 22): heap allocations and cached
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
//! containers. A warm engine SELECT is pinned per shape `query_hot` runs —
//! a plain table, a view, a row-filtered and masked table — and so are the
//! parse each of them starts with and the one `_delta_log` listing each of
//! them makes.
//!
//! Next to every warm allocation pin sits a lock pin: the `(shared,
//! exclusive)` acquisitions the call makes, as the `parking_lot` shim
//! counts them per thread (`parking_lot::acquisitions`), with tracing off
//! and, for a cached `get_table`, on. The paper's cached read takes no
//! shared exclusive lock past its fast path; each pin's comment names every
//! lock it counts and why it is there, so a lock added to any warm path
//! fails its pin, in debug and in release.
//!
//! A wall-clock ratio on a shared 1–2 core host cannot resolve a few
//! percent; an allocation count is exact, and so is a lock count. This
//! binary installs a counting global allocator (per-thread counter, so the
//! libtest harness thread never pollutes the reading), warms one node with
//! the default `UcConfig`, and asserts that each of 1 000 cached calls
//! performs the same number of allocations and lock acquisitions, and no
//! more than the pinned constants.

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
use uc_cloudstore::{AccessLevel, Credential, ObjectStore, StoragePath};
use uc_delta::expr::{CmpOp, Expr};
use uc_delta::value::{DataType, Field, Schema, Value};
use uc_engine::{Engine, EngineConfig};
use uc_obs::Obs;
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
#[allow(unsafe_code, reason = "a counting global allocator can only be written as an unsafe impl; see SAFETY above")]
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
/// 21 while an audit record copied its action into a `String`.
const PARENT_GET_TABLE_ALLOCS: u64 = 20;
/// Allocations per cached by-name `temp_credentials` (41 before the vend
/// evaluated the borrowed chain instead of copying it into `AuthzNode`s,
/// 28 before the one-key probe).
/// 24 while an audit record copied its action into a `String`.
const NAME_CREDENTIAL_ALLOCS: u64 = 23;
/// Allocations per cached `temp_credentials_for_path` (41, then 32 while
/// the parent walk cloned each parent id).
/// 30 while an audit record copied its action into a `String`.
const PATH_CREDENTIAL_ALLOCS: u64 = 29;
/// Allocations per cached `tables.get` through `RestApi::handle`: the
/// typed call's and the JSON reply's. The caller's `Context` is handed
/// through as it came (44 while the door rebuilt it per request, 50 while
/// `rest.{method}.count` was looked up per request, 48 before the one-key
/// probe, 42 while the reply object grew by doubling instead of being
/// built at its size).
/// 40 while an audit record copied its action into a `String`.
const REST_GET_TABLE_ALLOCS: u64 = 39;
/// Allocations per cached `get_table` by a grantee who is not the
/// metastore owner: what the owner's costs (25 while the admin list was
/// parsed out of the metastore's properties on every such request).
/// 21 while an audit record copied its action into a `String`.
const GRANTEE_GET_TABLE_ALLOCS: u64 = 20;
/// Allocations per cached trusted-engine `resolve_for_query` of a table
/// with a row filter, a column mask and a schema ABAC policy masking a
/// tagged column: the policies handed to the engine are the one copy
/// (108 while each policy, tag list and the admin list were parsed out of
/// JSON properties on every request; pinned 45, measured 30, once rows
/// decoded straight into their structs).
/// 30 while an audit record copied its action into a `String`.
const GOVERNED_RESOLVE_ALLOCS: u64 = 29;
/// Lock acquisitions `(shared, exclusive)` per cached `get_table`, tracing
/// off. Shared: the node's metastore map (`NodeCache::for_metastore`);
/// per chain level a name-index probe and the cached read itself
/// (`MsCache::id_by_name`, `MsCache::get_at`), each a shard read lock whose
/// writers serialize behind the write gate, not here; and the principal
/// cache (`TtlCache::get`, written only on insert and expiry): that is
/// 1 + 4 × 2 + 1. Exclusive: the audit record's lane mutex, which no other
/// lane's writer touches; the lane's merge into the log (one per
/// `lane_high_water` records) runs in the flush outside the window.
///
/// A warm call takes none of the cold halves: a miss round (a db read,
/// then the write gate) or the uncached read from a db snapshot when the
/// cache is off or the stale-retry budget is spent; the first call's
/// interning of an op's instruments (a `OnceLock` after it) and of a
/// label's metric slot (a per-thread cache after it); the alias map's
/// read lock on the first sighting of a (metastore, principal) per
/// thread; and the deterministic scheduler's rendezvous, which only
/// threads registered with a model run reach.
const GET_TABLE_LOCKS: (u64, u64) = (10, 1);
/// A by-name vend: `get_table`'s, and the credential cache's read lock.
const NAME_CREDENTIAL_LOCKS: (u64, u64) = (11, 1);
/// A path vend: the metastore map, one path-index probe
/// (`MsCache::id_by_path`), the cached read of each of four levels, the
/// principal and credential caches: 1 + 1 + 4 + 2.
const PATH_CREDENTIAL_LOCKS: (u64, u64) = (8, 1);
/// `tables.get` through `RestApi::handle`: the typed call's; the door
/// takes none.
const REST_GET_TABLE_LOCKS: (u64, u64) = GET_TABLE_LOCKS;
/// A grantee's cached `get_table`: the owner's.
const GRANTEE_GET_TABLE_LOCKS: (u64, u64) = GET_TABLE_LOCKS;
/// A trusted resolve of the governed table, no credential asked: the
/// chain and the principal record, as `get_table`.
const GOVERNED_RESOLVE_LOCKS: (u64, u64) = GET_TABLE_LOCKS;
/// A cached `get_table` with tracing on (`Obs::enabled()`): the untraced
/// call's, and seven exclusive acquisitions more. The span's open and
/// close, and the cache's history-read event, each append to the trace
/// ring (a leaf mutex over a bounded O(1) append) and to this thread's
/// flight-recorder lane (`thread_slot` partitions the lanes, so no other
/// writer contends); the audit record is mirrored into the flight lane
/// too: 3 × 2 + 1. An armed incident trigger's freeze fires at most once
/// per trigger, never on this steady path. The op's trailing window turns
/// a slot over under a mutex once per `WINDOW_BUCKET_MS` (125 ms) of the
/// obs clock, so under `Obs::enabled()`'s system clock one call in each
/// bucket takes eight; the test freezes the clock to count the steady
/// call. Untraced, the clock reads 0 and never turns a slot over.
const TRACED_GET_TABLE_LOCKS: (u64, u64) = (10, 8);
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
/// 64 while an audit record copied its action into a `String`.
const COLD_GET_TABLE_ALLOCS: u64 = 63;
/// Allocations per uncached 200-table `list_children`, its audited `Allow`
/// included (10 172 with the tree decode; 2 873 while every txdb range
/// read copied its bounds into `String`s; 2 870 while a served listing
/// recorded no `Allow`, whose record is the 5 more).
/// 2 875 while an audit record copied its action into a `String`.
const COLD_LIST_CHILDREN_ALLOCS: u64 = 2_874;
/// Allocations per uncached 200-table `tables.list` through
/// `RestApi::handle`, the JSON reply and the audited `Allow` included
/// (17 779 with the tree decode; 10 480 with the copied bounds; 10 477
/// while the reply's 200-entity array was built, then deep-copied by
/// `json!`; 6 476 while a served listing recorded no `Allow`).
/// 6 481 while an audit record copied its action into a `String`.
const COLD_REST_LIST_ALLOCS: u64 = 6_480;
/// Allocations per uncached `tables.resolve` of three tables through
/// `RestApi::handle`, the JSON reply included (410 while each entity's
/// grants and the reply's arrays were built, then copied).
/// 274 while each audit record copied its action into a `String`.
const COLD_REST_RESOLVE_ALLOCS: u64 = 271;
/// Allocations per uncached `grants.list` through `RestApi::handle` of the
/// catalog's three grants, the audited `Allow` included (70 while the
/// reply's array was built, then copied; 54 while a served `show_grants`
/// recorded no `Allow`, whose record and its detail are the 6 more).
/// 60 while an audit record copied its action into a `String`.
const COLD_REST_GRANTS_LIST_ALLOCS: u64 = 59;
/// Allocations per `get_table` that misses the table but finds its three
/// containers cached (the cache on, as `meta_cold` runs it): one chain
/// scan, one decode, one install. 78 while a miss decoded all four rows,
/// the containers it already held included: their decodes cost 25
/// allocations and their `Arc`s 3, where finding them costs an id copy
/// each and the rows to install one vector. 54 while the metastore
/// version's seek copied its two bounds into `String`s.
/// 52 while an audit record copied its action into a `String`.
const MISS_GET_TABLE_ALLOCS: u64 = 51;
/// Allocations per warm `SELECT id, owner, amount … WHERE grp = 3` over a
/// plain 128-row table in four files (221 while the predicate built an
/// owned value per side per row, and each kept row was copied whole, then
/// copied again by the projection; 164 while the lexer made a `String` of
/// every token and the parser cloned each again).
/// 129 while an audit record copied its action into a `String`.
const TABLE_SELECT_ALLOCS: u64 = 128;
/// Allocations per warm `SELECT … WHERE grp = 3` through a view
/// `SELECT id, grp, owner, amount … WHERE grp < 4` over that table (524
/// with the copies above at both levels; 370 while the view's body was
/// parsed again on every read and the base level built each of its 64
/// rows for the view level to read). Within 25 of the table's: the view is
/// one scan of the table.
/// 148 while an audit record copied its action into a `String`.
const VIEW_SELECT_ALLOCS: u64 = 147;
/// Allocations per warm `SELECT … WHERE grp = 3` over that table under a
/// row filter (`owner = current_user()`) and a mask on `amount` (259 while
/// the filter and the mask ran as passes of their own over the copied
/// rows; 178 with the copying lexer).
/// 143 while an audit record copied its action into a `String`.
const GOVERNED_SELECT_ALLOCS: u64 = 142;
/// Lock acquisitions `(shared, exclusive)` per warm SELECT of the plain
/// table. Shared: the trusted resolve's chain and principal record (ten,
/// as `get_table`) and its credential cache; the session's group lookup
/// (the principal cache); the `_delta_log` listing (the store's object
/// map). Exclusive: the audit lane, the table cache's snapshot lookup and
/// one decoded-rows lookup per data file (four).
const TABLE_SELECT_LOCKS: (u64, u64) = (13, 6);
/// Per warm SELECT through the view. Shared: the view's chain by name (9,
/// as the table's), the principal record, the base's chain by id (the
/// metastore map and four cached reads: 5), the credential cache, the
/// session's group lookup, the engine's parsed-body cache and the
/// listing: 9 + 1 + 5 + 1 + 1 + 1 + 1. Exclusive: the table's six.
const VIEW_SELECT_LOCKS: (u64, u64) = (19, 6);
/// Per warm SELECT of the row-filtered, masked table: the plain table's.
const GOVERNED_SELECT_LOCKS: (u64, u64) = TABLE_SELECT_LOCKS;
/// Allocations per `parse_statement` of a `query_hot` SELECT,
/// `SELECT id, owner, amount FROM main.s000.t000012 WHERE id >= 5 AND grp
/// <> 2`: the token vector, the syntax tree's strings and boxes, the name's
/// parts (60 while the lexer collected the text into a `Vec<char>`, made a
/// `String` of every token and of every punctuation character, the parser
/// cloned each token it read and kept a copy of the text, and the name's
/// parts were joined, then split again).
const PARSE_SELECT_ALLOCS: u64 = 21;
/// Allocations per `ObjectStore::list` of a five-commit `_delta_log` (39
/// while each listed path was `format!`ted and parsed back).
const LOG_LISTING_ALLOCS: u64 = 17;
/// Lock acquisitions per listing with the bucket's root credential: the
/// store's object map, read to check the secret and to list.
const LOG_LISTING_LOCKS: (u64, u64) = (2, 0);
/// Tables in the cold node's schema: a `meta_cold` schema's.
const COLD_TABLES: usize = 200;

const CALLS: usize = 1_000;

/// What one call cost the calling thread: its heap allocations, and its
/// lock acquisitions `(shared, exclusive)` as the `parking_lot` shim
/// counts them.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cost {
    allocs: u64,
    locks: (u64, u64),
}

/// The [`Cost`] of each of `CALLS` invocations of `op`. The audit log is
/// flushed between calls, outside the counted window: its per-thread lane
/// is a `Vec` that doubles every 2^k records and merges every ~3 000, and
/// draining it makes that amortised cost exactly one lane allocation per
/// call instead of an occasional outlier, and keeps the merge's locks out
/// of the count.
fn allocs_per_call(uc: &UnityCatalog, mut op: impl FnMut()) -> Vec<Cost> {
    allocs_of_calls(uc, CALLS, |_| op())
}

/// [`allocs_per_call`] of `op(0)`, …, `op(calls - 1)`.
fn allocs_of_calls(uc: &UnityCatalog, calls: usize, mut op: impl FnMut(usize)) -> Vec<Cost> {
    // Pre-sized so recording a sample never allocates inside a window.
    let mut samples = Vec::with_capacity(calls);
    for call in 0..calls {
        uc.audit_log().flush();
        let (allocs, (shared, exclusive)) = (ALLOCS.with(Cell::get), parking_lot::acquisitions());
        op(call);
        let locks = parking_lot::acquisitions();
        samples.push(Cost {
            allocs: ALLOCS.with(Cell::get) - allocs,
            locks: (locks.0 - shared, locks.1 - exclusive),
        });
    }
    samples
}

/// What every call in `samples` read: `read` of each must be the same.
fn constant<T: Copy + PartialEq + std::fmt::Debug>(what: &str, samples: &[Cost], read: impl Fn(&Cost) -> T) -> T {
    let first = read(&samples[0]);
    let odd: Vec<(usize, T)> =
        samples.iter().map(read).enumerate().filter(|(_, n)| *n != first).take(5).collect();
    assert!(odd.is_empty(), "{what}: the cost varies across calls ({first:?} vs (call, n) {odd:?})");
    first
}

fn assert_constant_and_bounded(what: &str, samples: &[Cost], pinned: u64) {
    let first = constant(what, samples, |c| c.allocs);
    println!("{what}: {first} allocations per call (pinned {pinned})");
    assert!(first <= pinned, "{what}: {first} allocations per call, pinned at {pinned}");
}

/// Every call takes the same lock acquisitions, and no more shared or
/// exclusive ones than pinned.
fn assert_locks(what: &str, samples: &[Cost], pinned: (u64, u64)) {
    let (shared, exclusive) = constant(what, samples, |c| c.locks);
    println!("{what}: {shared} shared, {exclusive} exclusive lock acquisitions per call (pinned {pinned:?})");
    assert!(
        shared <= pinned.0 && exclusive <= pinned.1,
        "{what}: ({shared}, {exclusive}) lock acquisitions per call, pinned at {pinned:?}"
    );
}

/// A node with the default `UcConfig` and managed table `main.s.t`
/// (columns `x`, `y`), created by `admin`, the metastore owner.
fn node_with_table() -> (Arc<UnityCatalog>, uc_catalog::Uid, Context, Arc<uc_catalog::Entity>) {
    node_with_table_under(UcConfig::default())
}

/// [`node_with_table`] under `config`.
fn node_with_table_under(config: UcConfig) -> (Arc<UnityCatalog>, uc_catalog::Uid, Context, Arc<uc_catalog::Entity>) {
    let store = ObjectStore::in_memory();
    let uc = UnityCatalog::new(Db::in_memory(), store.clone(), config, "node-0");
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
    assert_locks("get_table", &get_table, GET_TABLE_LOCKS);
    assert_locks("temp_credentials", &name_credential, NAME_CREDENTIAL_LOCKS);
    assert_locks("temp_credentials_for_path", &path_credential, PATH_CREDENTIAL_LOCKS);
    assert_locks("rest tables.get", &rest_get_table, REST_GET_TABLE_LOCKS);

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

/// With tracing on, a cached `get_table` takes the trace ring's and the
/// flight recorder's locks on top of the untraced call's. Only the lock
/// pair is pinned: a traced call allocates its records.
#[test]
fn a_traced_cached_read_takes_a_constant_number_of_locks() {
    let obs = Obs::with_clock_fn(Arc::new(|| 0));
    let (uc, ms, ctx, _) = node_with_table_under(UcConfig { obs, ..Default::default() });
    for _ in 0..16 {
        uc.get_table(&ctx, &ms, "main.s.t").unwrap();
    }
    let get_table = allocs_per_call(&uc, || {
        uc.get_table(&ctx, &ms, "main.s.t").unwrap();
    });
    assert_locks("traced get_table", &get_table, TRACED_GET_TABLE_LOCKS);
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
    assert_locks("grantee get_table", &grantee_get_table, GRANTEE_GET_TABLE_LOCKS);
    assert_locks("governed resolve_for_query", &governed_resolve, GOVERNED_RESOLVE_LOCKS);
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

/// A trusted engine's node with `main.s.t`, `main.s.f` (`query_hot`'s
/// shape: `id, grp, owner, amount`, four INSERTs of 32 rows; `f` under a
/// row filter `owner = current_user()` and a mask on `amount`) and the view
/// `main.s.v` over `t`, each readable by `alice`.
fn engine_node() -> (Arc<UnityCatalog>, Arc<Engine>, ObjectStore, Credential) {
    let store = ObjectStore::in_memory();
    let uc = UnityCatalog::new(Db::in_memory(), store.clone(), Default::default(), "node-0");
    let ctx = Context::user("admin");
    let ms = uc.create_metastore("admin", "allocs", "us-west-2").unwrap();
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
    let engine = Engine::new(uc.clone(), ms.clone(), EngineConfig::trusted("dbr"));
    let mut admin = engine.session("admin");
    admin.execute("CREATE CATALOG main").unwrap();
    admin.execute("CREATE SCHEMA main.s").unwrap();
    for table in ["t", "f"] {
        admin.execute(&format!("CREATE TABLE main.s.{table} (id BIGINT, grp BIGINT, owner STRING, amount BIGINT)")).unwrap();
        for c in 0..4 {
            let values: Vec<String> = (c * 32..(c + 1) * 32)
                .map(|j| format!("({j}, {}, 'user{}', {})", j % 8, j / 2 % 4, 1000 + j))
                .collect();
            admin.execute(&format!("INSERT INTO main.s.{table} VALUES {}", values.join(", "))).unwrap();
        }
    }
    admin.execute("CREATE VIEW main.s.v AS SELECT id, grp, owner, amount FROM main.s.t WHERE grp < 4").unwrap();
    let f = FullName::parse("main.s.f").unwrap();
    let own_rows = Expr::Cmp {
        op: CmpOp::Eq,
        lhs: Box::new(Expr::Column("owner".into())),
        rhs: Box::new(Expr::CurrentUser),
    };
    uc.set_row_filter(&ctx, &ms, &f, RowFilterPolicy { expr: own_rows }).unwrap();
    let mask = ColumnMaskPolicy { column: "amount".into(), mask: Expr::Literal(Value::Int(-1)), exempt_when: None };
    uc.set_column_mask(&ctx, &ms, &f, mask).unwrap();
    for relation in ["main.s.t", "main.s.f", "main.s.v"] {
        uc.grant_read_path(&ctx, &ms, relation, "user1").unwrap();
    }
    (uc, engine, store, Credential::Root(root))
}

/// A warm governed SELECT allocates a constant, below the parent's, for
/// each shape `query_hot` runs: a plain table, a view, and a row-filtered,
/// masked table. Each statement is run twice to warm every cache on its
/// path (metadata, credential, snapshot, decoded files) before the
/// measured calls.
#[test]
fn a_warm_select_allocates_a_constant_below_the_parent() {
    let (uc, engine, _, _) = engine_node();
    let mut user = engine.session("user1");
    let db_reads = uc.db().stats().reads();
    let mut measure = |sql: &str, rows: usize| {
        for _ in 0..2 {
            assert_eq!(user.execute(sql).unwrap().rows.len(), rows, "{sql}");
        }
        let db_reads = uc.db().stats().reads();
        let samples = allocs_of_calls(&uc, 200, |_| {
            assert_eq!(user.execute(sql).unwrap().rows.len(), rows, "{sql}");
        });
        assert_eq!(uc.db().stats().reads(), db_reads, "{sql}: warm calls read no row");
        samples
    };
    let table = measure("SELECT id, owner, amount FROM main.s.t WHERE grp = 3", 16);
    let view = measure("SELECT id, owner, amount FROM main.s.v WHERE grp = 3", 16);
    let governed = measure("SELECT id, owner, amount FROM main.s.f WHERE grp = 3", 16);
    assert!(uc.db().stats().reads() > db_reads);
    assert_constant_and_bounded("warm table SELECT", &table, TABLE_SELECT_ALLOCS);
    assert_constant_and_bounded("warm view SELECT", &view, VIEW_SELECT_ALLOCS);
    assert_constant_and_bounded("warm filtered, masked SELECT", &governed, GOVERNED_SELECT_ALLOCS);
    assert_locks("warm table SELECT", &table, TABLE_SELECT_LOCKS);
    assert_locks("warm view SELECT", &view, VIEW_SELECT_LOCKS);
    assert_locks("warm filtered, masked SELECT", &governed, GOVERNED_SELECT_LOCKS);
    let (view, table) = (view[0].allocs, table[0].allocs);
    assert!(view <= table + 25, "a warm view SELECT allocates {view} to the table's {table}");
}

/// Parsing a SELECT of `query_hot`'s shape: what every SELECT does once.
#[test]
fn parsing_a_select_allocates_a_constant_below_the_parent() {
    let (uc, ..) = node_with_table();
    let sql = "SELECT id, owner, amount FROM main.s000.t000012 WHERE id >= 5 AND grp <> 2";
    let parses = allocs_of_calls(&uc, CALLS, |_| {
        assert!(matches!(uc_engine::parse_statement(sql), Ok(uc_engine::Statement::Select(_))));
    });
    assert_constant_and_bounded("parse_statement of a SELECT", &parses, PARSE_SELECT_ALLOCS);
    assert_locks("parse_statement of a SELECT", &parses, (0, 0));
}

/// Listing a table's five-commit log: what every warm SELECT does once.
#[test]
fn a_log_listing_allocates_a_constant_below_the_parent() {
    let (uc, engine, store, root) = engine_node();
    let table = uc.get_table(&Context::user("admin"), engine.metastore(), "main.s.t").unwrap();
    let log = StoragePath::parse(table.storage_path.as_ref().unwrap()).unwrap().child("_delta_log");
    let listing = allocs_of_calls(&uc, CALLS, |_| {
        assert_eq!(store.list(&root, &log).unwrap().len(), 5);
    });
    assert_constant_and_bounded("5-object _delta_log listing", &listing, LOG_LISTING_ALLOCS);
    assert_locks("5-object _delta_log listing", &listing, LOG_LISTING_LOCKS);
}
