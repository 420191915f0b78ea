//! A warm governed SELECT: what it costs, exactly, and what a warm table
//! cache must still refuse (ROADMAP 6(b): counts, not wall-clock).
//!
//! 1. **Cost.** `EngineSession::execute("SELECT …")` over a table that has
//!    not changed — plain, through a view, row-filtered and masked — costs
//!    one store listing (the query's own credential, on the table's log
//!    directory), no object read, one STS verification, no mint, no
//!    database round trip, and leaves one audit record. FGAC is applied to
//!    the rows the scan copied out; the shared cached rows are never
//!    touched.
//! 2. **Refusals**, next to `tests/sts_negative.rs`: with the table's rows
//!    sitting in the cache, a sibling table's token, a forged token and an
//!    expired token are each refused by the store at the listing, an
//!    expiry inside the engine is recovered by exactly one renewal, and a
//!    principal whose grant was revoked is refused by the catalog before
//!    the store is asked anything.

use std::sync::Arc;

use uc_catalog::audit::AuditDecision;
use uc_catalog::authz::fgac::{ColumnMaskPolicy, RowFilterPolicy};
use uc_catalog::authz::Privilege;
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::types::FullName;
use uc_catalog::UcError;
use uc_cloudstore::faults::points;
use uc_cloudstore::{
    AccessLevel, Clock, Credential, FaultMode, FaultPlan, LatencyModel, ObjectStore, StoragePath,
    StorageError, StsService,
};
use uc_delta::expr::{CmpOp, Expr};
use uc_delta::value::Value;
use uc_delta::{DeltaError, DeltaTable, TableCache};
use uc_engine::{Engine, EngineConfig, EngineError, EngineSession};
use uc_obs::Obs;
use uc_txdb::{Db, DbConfig};

const ADMIN: &str = "admin";
const ALICE: &str = "alice";
const MASKED: i64 = -1;

struct World {
    clock: Clock,
    plan: FaultPlan,
    obs: Obs,
    db: Db,
    store: ObjectStore,
    uc: Arc<UnityCatalog>,
    ms: uc_catalog::Uid,
    engine: Arc<Engine>,
}

/// One metrics registry for every layer; managed tables `main.s.t` (four
/// commits: create + three INSERTs of four rows), `main.s.other`, the view
/// `main.s.v` over `t`, and `main.s.f` with a row filter (`owner` is the
/// caller, admin sees all) and a mask on `amount` (admin exempt). Alice
/// may read all of them.
fn world() -> World {
    let plan = FaultPlan::seeded(7);
    let clock = Clock::manual(0);
    let obs = Obs::disabled();
    let sts = StsService::new(clock.clone()).with_faults(plan.clone()).with_obs(obs.clone());
    let store =
        ObjectStore::with_faults(sts, LatencyModel::zero(), plan.clone()).with_obs(obs.clone());
    let db = Db::new(DbConfig { obs: obs.clone(), ..Default::default() });
    let uc = UnityCatalog::new(
        db.clone(),
        store.clone(),
        UcConfig { obs: obs.clone(), ..Default::default() },
        "node-0",
    );
    let ms = uc.create_metastore(ADMIN, "select", "us-west-2").unwrap();
    let ctx = Context::user(ADMIN);
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();

    let engine = Engine::new(uc.clone(), ms.clone(), EngineConfig::trusted("dbr"));
    let mut admin = engine.session(ADMIN);
    admin.execute("CREATE CATALOG main").unwrap();
    admin.execute("CREATE SCHEMA main.s").unwrap();
    for table in ["t", "other", "f"] {
        admin
            .execute(&format!("CREATE TABLE main.s.{table} (id BIGINT, owner STRING, amount BIGINT)"))
            .unwrap();
        for c in 0..3 {
            let values: Vec<String> = (c * 4..(c + 1) * 4)
                .map(|i| format!("({i}, '{}', {})", if i % 2 == 0 { ALICE } else { "bob" }, i * 10))
                .collect();
            admin.execute(&format!("INSERT INTO main.s.{table} VALUES {}", values.join(", "))).unwrap();
        }
    }
    admin
        .execute("CREATE VIEW main.s.v AS SELECT id, owner, amount FROM main.s.t WHERE id < 6")
        .unwrap();
    let is_admin = Expr::Cmp {
        op: CmpOp::Eq,
        lhs: Box::new(Expr::CurrentUser),
        rhs: Box::new(Expr::Literal(Value::Str(ADMIN.into()))),
    };
    let f = FullName::parse("main.s.f").unwrap();
    let own_rows = Expr::Cmp {
        op: CmpOp::Eq,
        lhs: Box::new(Expr::Column("owner".into())),
        rhs: Box::new(Expr::CurrentUser),
    };
    uc.set_row_filter(&ctx, &ms, &f, RowFilterPolicy { expr: own_rows.or(is_admin.clone()) }).unwrap();
    let mask = ColumnMaskPolicy {
        column: "amount".into(),
        mask: Expr::Literal(Value::Int(MASKED)),
        exempt_when: Some(is_admin),
    };
    uc.set_column_mask(&ctx, &ms, &f, mask).unwrap();
    for relation in ["main.s.t", "main.s.other", "main.s.f", "main.s.v"] {
        uc.grant_read_path(&ctx, &ms, relation, ALICE).unwrap();
    }
    World { clock, plan, obs, db, store, uc, ms, engine }
}

impl World {
    fn path_of(&self, table: &str) -> StoragePath {
        let entity = self.uc.get_table(&Context::user(ADMIN), &self.ms, table).unwrap();
        StoragePath::parse(entity.storage_path.as_ref().unwrap()).unwrap()
    }

    fn read_token(&self, principal: &str, table: &str) -> Credential {
        let name = FullName::parse(table).unwrap();
        let token = self
            .uc
            .temp_credentials(&Context::user(principal), &self.ms, &name, "relation", AccessLevel::Read)
            .unwrap();
        Credential::Temp(token)
    }
}

/// Work counted across every layer.
#[derive(Debug, PartialEq, Eq)]
struct Cost {
    store_lists: u64,
    store_gets: u64,
    sts_verifies: u64,
    sts_mints: u64,
    db_round_trips: u64,
    audit_records: u64,
}

/// What a warm governed SELECT costs, whatever the relation.
const WARM_SELECT: Cost = Cost {
    store_lists: 1,
    store_gets: 0,
    sts_verifies: 1,
    sts_mints: 0,
    db_round_trips: 0,
    audit_records: 1,
};

fn counters(w: &World) -> Cost {
    let db = w.db.stats();
    Cost {
        store_lists: w.obs.counter("store.list.count").get(),
        store_gets: w.obs.counter("store.get.count").get(),
        sts_verifies: w.obs.counter("sts.verify.count").get(),
        sts_mints: w.obs.counter("sts.mint.count").get(),
        db_round_trips: db.reads() + db.scans() + db.commits(),
        audit_records: w.uc.audit_log().total_recorded(),
    }
}

fn cost_of<T>(w: &World, f: impl FnOnce() -> T) -> (Cost, T) {
    let before = counters(w);
    let out = f();
    let after = counters(w);
    let cost = Cost {
        store_lists: after.store_lists - before.store_lists,
        store_gets: after.store_gets - before.store_gets,
        sts_verifies: after.sts_verifies - before.sts_verifies,
        sts_mints: after.sts_mints - before.sts_mints,
        db_round_trips: after.db_round_trips - before.db_round_trips,
        audit_records: after.audit_records - before.audit_records,
    };
    (cost, out)
}

/// `(id, amount)` of every row, by id.
fn id_amount(session: &mut EngineSession, sql: &str) -> Vec<(i64, i64)> {
    let result = session.execute(sql).unwrap();
    let col = |name: &str| result.columns.iter().position(|c| c == name).unwrap();
    let (id, amount) = (col("id"), col("amount"));
    let mut out: Vec<(i64, i64)> = result
        .rows
        .iter()
        .map(|r| match (&r[id], &r[amount]) {
            (Value::Int(i), Value::Int(a)) => (*i, *a),
            other => panic!("unexpected row {other:?}"),
        })
        .collect();
    out.sort_unstable();
    out
}

// ---------------------------------------------------------------------
// 1. Cost
// ---------------------------------------------------------------------

#[test]
fn a_warm_governed_select_costs_one_listing_and_one_audit_record() {
    let w = world();
    let mut alice = w.engine.session(ALICE);
    let all: Vec<(i64, i64)> = (0..12).map(|i| (i, i * 10)).collect();
    let cases: [(&str, Vec<(i64, i64)>); 3] = [
        ("SELECT * FROM main.s.t WHERE id >= 0", all.clone()),
        ("SELECT * FROM main.s.v", all[..6].to_vec()),
        // her own rows only, amounts masked
        ("SELECT * FROM main.s.f", (0..12).step_by(2).map(|i| (i, MASKED)).collect()),
    ];
    for (sql, expect) in &cases {
        // Twice to warm every cache on the path (metadata, credential,
        // snapshot, files), then the measured one.
        for _ in 0..2 {
            assert_eq!(&id_amount(&mut alice, sql), expect, "{sql}");
        }
        let (cost, got) = cost_of(&w, || id_amount(&mut alice, sql));
        assert_eq!(&got, expect, "{sql}");
        assert_eq!(cost, WARM_SELECT, "{sql}");
    }
}

#[test]
fn a_masked_read_leaves_the_shared_rows_unmasked() {
    let w = world();
    let masked: Vec<(i64, i64)> = (0..12).step_by(2).map(|i| (i, MASKED)).collect();
    let clear: Vec<(i64, i64)> = (0..12).map(|i| (i, i * 10)).collect();
    let mut alice = w.engine.session(ALICE);
    let mut admin = w.engine.session(ADMIN);
    // Alice's read fills the cache and masks *her copy* of the rows …
    assert_eq!(id_amount(&mut alice, "SELECT * FROM main.s.f"), masked);
    // … the admin, exempt from filter and mask, is served from the same
    // cached rows (no object read) and sees every row with its amount.
    let (cost, got) = cost_of(&w, || id_amount(&mut admin, "SELECT * FROM main.s.f"));
    assert_eq!(got, clear);
    assert_eq!(cost.store_gets, 0, "served from the rows alice's read decoded");
    // And again in the other order.
    assert_eq!(id_amount(&mut alice, "SELECT * FROM main.s.f"), masked);
    assert_eq!(id_amount(&mut admin, "SELECT * FROM main.s.f"), clear);
}

// ---------------------------------------------------------------------
// 2. Refusals with the rows in the cache
// ---------------------------------------------------------------------

/// Warm `main.s.t` with two reads by Alice; returns its root.
fn warm_t(w: &World) -> StoragePath {
    let mut alice = w.engine.session(ALICE);
    for _ in 0..2 {
        assert_eq!(alice.execute("SELECT * FROM main.s.t").unwrap().rows.len(), 12);
    }
    let root = w.path_of("main.s.t");
    assert_eq!(TableCache::of(&w.store).cached_files(&root), 3, "t's rows are cached");
    root
}

#[test]
fn a_warm_table_still_refuses_foreign_forged_and_expired_tokens() {
    let w = world();
    let root = warm_t(&w);
    let handle = DeltaTable::open(w.store.clone(), root.clone());
    let refused = |cred: &Credential| match handle.snapshot(cred) {
        Err(DeltaError::Storage(e)) => e,
        other => panic!("expected the store to refuse, got {:?}", other.map(|s| s.version)),
    };

    // Alice's own token for the sibling table `other`, presented on `t`.
    let sibling = w.read_token(ALICE, "main.s.other");
    assert!(matches!(refused(&sibling), StorageError::AccessDenied(_)));

    // The same token with its scope rewritten to `t`: the signature fails.
    let Credential::Temp(mut forged) = sibling else { unreachable!() };
    forged.scope = root.clone();
    assert!(matches!(refused(&Credential::Temp(forged)), StorageError::InvalidCredential(_)));

    // A valid token for `t`, aged out.
    let own = w.read_token(ALICE, "main.s.t");
    assert_eq!(handle.snapshot(&own).unwrap().version, 3);
    w.clock.advance_ms(UcConfig::default().cred_ttl_ms + 1);
    assert!(matches!(refused(&own), StorageError::ExpiredCredential { .. }));

    // None of it disturbed the entry.
    assert_eq!(TableCache::of(&w.store).cached_files(&root), 3);
}

#[test]
fn an_expiry_on_a_warm_select_is_recovered_by_exactly_one_renewal() {
    let w = world();
    warm_t(&w);
    let mut alice = w.engine.session(ALICE);
    let renewals = |w: &World| {
        w.uc.audit_log()
            .query(|r| {
                r.principal == ALICE
                    && r.action == "renewTemporaryCredentials"
                    && r.decision == AuditDecision::Allow
            })
            .len()
    };
    assert_eq!(renewals(&w), 0);
    // The one verification a warm SELECT makes reports the token expired.
    w.plan.arm(points::STS_VERIFY, FaultMode::FirstN(1));
    let (cost, result) = cost_of(&w, || alice.execute("SELECT * FROM main.s.t").unwrap());
    w.plan.disarm(points::STS_VERIFY);
    assert_eq!(result.rows.len(), 12);
    assert_eq!(w.plan.injected(points::STS_VERIFY), 1);
    assert_eq!(renewals(&w), 1, "scan_table renewed once");
    assert_eq!(
        (cost.store_lists, cost.store_gets, cost.sts_verifies),
        (2, 0, 2),
        "the refused listing, then the renewed one; still no object read"
    );
}

#[test]
fn a_revoked_grant_is_refused_before_the_store_while_the_rows_are_cached() {
    let w = world();
    let root = warm_t(&w);
    let t = FullName::parse("main.s.t").unwrap();
    w.uc.revoke(&Context::user(ADMIN), &w.ms, &t, "relation", ALICE, Privilege::Select).unwrap();

    let mut alice = w.engine.session(ALICE);
    let (cost, result) = cost_of(&w, || alice.execute("SELECT * FROM main.s.t"));
    assert!(
        matches!(result, Err(EngineError::Catalog(UcError::PermissionDenied(_)))),
        "{result:?}"
    );
    assert_eq!((cost.store_lists, cost.store_gets, cost.sts_verifies), (0, 0, 0));
    assert_eq!(TableCache::of(&w.store).cached_files(&root), 3, "the rows are still there");
    let denials = w.uc.audit_log().query(|r| r.principal == ALICE && r.decision == AuditDecision::Deny);
    assert!(!denials.is_empty(), "the refusal is audited");

    // The admin is served from those same rows.
    let mut admin = w.engine.session(ADMIN);
    let (cost, result) = cost_of(&w, || admin.execute("SELECT * FROM main.s.t").unwrap());
    assert_eq!(result.rows.len(), 12);
    assert_eq!(cost.store_gets, 0);
}
