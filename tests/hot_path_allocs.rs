//! Exact hot-path cost gate (ROADMAP 6b): heap allocations and cached
//! entity reads (`cache.hits`) per cached `get_table`, by-name
//! `temp_credentials` and `temp_credentials_for_path`, and allocations
//! per cached `tables.get` through `RestApi::handle`.
//!
//! A wall-clock ratio on a shared 1–2 core host cannot resolve a few
//! percent; an allocation count is exact. This binary installs a counting
//! global allocator (per-thread counter, so the libtest harness thread
//! never pollutes the reading), warms one node with the default
//! `UcConfig`, and asserts that each of 1 000 cached calls performs the
//! same number of allocations and no more than the pinned constant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::rest::{RequestAuth, RestApi};
use uc_catalog::service::{Context, UnityCatalog};
use uc_catalog::types::FullName;
use uc_cloudstore::{AccessLevel, ObjectStore};
use uc_delta::value::{DataType, Field, Schema};
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
/// typed call's, the request context and the JSON reply. The route's
/// counter is interned, so a repeated request formats no series name and
/// takes no registry lock (50 while `rest.{method}.count` was looked up
/// per request, 48 before the one-key probe).
const REST_GET_TABLE_ALLOCS: u64 = 44;
/// `cache.hits` per cached `get_table`: table, schema, catalog, metastore.
/// A by-name vend must read the same (it read 7 while it re-walked the
/// chain it had just resolved and looked the metastore up again).
const GET_TABLE_HITS: u64 = 4;
/// `cache.hits` per cached path vend: the asset by path, then its three
/// ancestors (5 before: the metastore twice).
const PATH_CREDENTIAL_HITS: u64 = 4;

const CALLS: usize = 1_000;

/// Allocation count of each of `CALLS` invocations of `op`. The audit
/// log is flushed between calls, outside the counted window: its
/// per-thread lane is a `Vec` that doubles every 2^k records and merges
/// every ~3 000, and draining it makes that amortised cost exactly one
/// lane allocation per call instead of an occasional outlier.
fn allocs_per_call(uc: &UnityCatalog, mut op: impl FnMut()) -> Vec<u64> {
    // Pre-sized so recording a sample never allocates inside a window.
    let mut samples = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        uc.audit_log().flush();
        let before = ALLOCS.with(Cell::get);
        op();
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

#[test]
fn cached_reads_allocate_a_constant_no_larger_than_the_parent() {
    let store = ObjectStore::in_memory();
    let uc = UnityCatalog::new(Db::in_memory(), store.clone(), Default::default(), "node-0");
    let ctx = Context::user("admin");
    let ms = uc.create_metastore("admin", "allocs", "us-west-2").unwrap();
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
    uc.create_catalog(&ctx, &ms, "main").unwrap();
    uc.create_schema(&ctx, &ms, "main", "s").unwrap();
    let columns = Schema::new(vec![Field::new("x", DataType::Int)]);
    let table = uc
        .create_table(&ctx, &ms, TableSpec::managed("main.s.t", columns).unwrap())
        .unwrap();
    let path = table.storage_path.clone().expect("managed tables have storage");

    // Warm: entity cache, credential cache, per-op instruments, tenant
    // label memo, the route's counter.
    let name = FullName::parse("main.s.t").unwrap();
    let (api, auth) = (RestApi::new(uc.clone()), RequestAuth::user("admin"));
    let wire_get = serde_json::json!({"name": "main.s.t"});
    for _ in 0..16 {
        api.handle(&auth, &ms, "tables.get", &wire_get).unwrap();
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
        api.handle(&auth, &ms, "tables.get", &wire_get).unwrap();
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
