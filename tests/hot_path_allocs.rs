//! Exact hot-path cost gate (ROADMAP 6b): heap allocations per cached
//! `get_table` and per cached `temp_credentials_for_path`.
//!
//! A wall-clock ratio on a shared 1–2 core host cannot resolve a few
//! percent; an allocation count is exact. This binary installs a counting
//! global allocator (per-thread counter, so the libtest harness thread
//! never pollutes the reading), warms one node with the default
//! `UcConfig`, and asserts that each of 1 000 cached calls performs the
//! same number of allocations and no more than the parent commit did.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::{Context, UnityCatalog};
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

/// Allocations per cached `get_table` measured by this test at the parent
/// commit (7f121b0, before the cache module owned the read protocol).
const PARENT_GET_TABLE_ALLOCS: u64 = 25;
/// Allocations per cached `temp_credentials_for_path` at the parent commit.
const PARENT_PATH_CREDENTIAL_ALLOCS: u64 = 41;

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

fn assert_constant_and_bounded(what: &str, samples: &[u64], parent: u64) {
    let first = samples[0];
    let odd: Vec<(usize, u64)> = samples
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, n)| *n != first)
        .take(5)
        .collect();
    assert!(odd.is_empty(), "{what}: allocations vary across calls ({first} vs (call, n) {odd:?})");
    println!("{what}: {first} allocations per call (parent {parent})");
    assert!(first <= parent, "{what}: {first} allocations per call, parent commit made {parent}");
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
    // label memo.
    for _ in 0..16 {
        uc.get_table(&ctx, &ms, "main.s.t").unwrap();
        uc.temp_credentials_for_path(&ctx, &ms, &path, AccessLevel::Read).unwrap();
    }
    let db_reads = uc.db().stats().reads();

    let get_table = allocs_per_call(&uc, || {
        uc.get_table(&ctx, &ms, "main.s.t").unwrap();
    });
    let path_credential = allocs_per_call(&uc, || {
        uc.temp_credentials_for_path(&ctx, &ms, &path, AccessLevel::Read).unwrap();
    });
    assert_eq!(uc.db().stats().reads(), db_reads, "measured calls must all be cache hits");

    assert_constant_and_bounded("get_table", &get_table, PARENT_GET_TABLE_ALLOCS);
    assert_constant_and_bounded(
        "temp_credentials_for_path",
        &path_credential,
        PARENT_PATH_CREDENTIAL_ALLOCS,
    );
}
