//! End-to-end "life of a SQL query" tests: engine ↔ catalog ↔ storage.

#![allow(clippy::unwrap_used, clippy::panic, reason = "helpers outside #[test] functions fail the test as a test body does")]

use std::sync::Arc;

use uc_catalog::audit::Reason;
use uc_catalog::authz::fgac::{ColumnMaskPolicy, RowFilterPolicy};
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::types::FullName;
use uc_catalog::UcError;
use uc_cloudstore::ObjectStore;
use uc_delta::expr::{CmpOp, Expr};
use uc_delta::value::Value;
use uc_engine::{DataFilteringService, Engine, EngineConfig, EngineError};
use uc_hms::{HiveMetastore, HmsConnector, HmsDatabase, HmsTable};
use uc_txdb::Db;

const ADMIN: &str = "admin";

struct World {
    uc: Arc<UnityCatalog>,
    ms: uc_catalog::ids::Uid,
    db: Db,
    store: ObjectStore,
}

fn world() -> World {
    let db = Db::in_memory();
    let store = ObjectStore::in_memory();
    let uc = UnityCatalog::new(db.clone(), store.clone(), UcConfig::default(), "node-0");
    let ms = uc.create_metastore(ADMIN, "prod", "us-west-2").unwrap();
    let ctx = Context::user(ADMIN);
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
    World { uc, ms, db, store }
}

fn trusted_engine(w: &World) -> Arc<Engine> {
    Engine::new(w.uc.clone(), w.ms.clone(), EngineConfig::trusted("dbr"))
}

#[test]
fn ddl_insert_select_roundtrip() {
    let w = world();
    let engine = trusted_engine(&w);
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.sales").unwrap();
    s.execute("CREATE TABLE main.sales.orders (id BIGINT, customer STRING, total DOUBLE)")
        .unwrap();
    s.execute("INSERT INTO main.sales.orders VALUES (1, 'ada', 10.5), (2, 'bob', 3.25), (3, 'ada', 8.0)")
        .unwrap();

    let all = s.execute("SELECT * FROM main.sales.orders").unwrap();
    assert_eq!(all.columns, vec!["id", "customer", "total"]);
    assert_eq!(all.rows.len(), 3);

    let filtered = s
        .execute("SELECT customer, total FROM main.sales.orders WHERE total >= 8.0")
        .unwrap();
    assert_eq!(filtered.columns, vec!["customer", "total"]);
    assert_eq!(filtered.rows.len(), 2);

    let described = s.execute("DESCRIBE main.sales.orders").unwrap();
    assert_eq!(described.rows.len(), 3);
}

#[test]
fn grants_enforced_through_sql() {
    let w = world();
    let engine = trusted_engine(&w);
    let mut admin = engine.session(ADMIN);
    admin.execute("CREATE CATALOG main").unwrap();
    admin.execute("CREATE SCHEMA main.s").unwrap();
    admin.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
    admin.execute("INSERT INTO main.s.t VALUES (1)").unwrap();

    let mut alice = engine.session("alice");
    // default deny
    assert!(matches!(
        alice.execute("SELECT * FROM main.s.t"),
        Err(EngineError::Catalog(_))
    ));
    admin.execute("GRANT USE CATALOG ON CATALOG main TO alice").unwrap();
    admin.execute("GRANT USE SCHEMA ON SCHEMA main.s TO alice").unwrap();
    admin.execute("GRANT SELECT ON TABLE main.s.t TO alice").unwrap();
    assert_eq!(alice.execute("SELECT * FROM main.s.t").unwrap().rows.len(), 1);
    // no MODIFY → no INSERT
    assert!(alice.execute("INSERT INTO main.s.t VALUES (2)").is_err());
    admin.execute("GRANT MODIFY ON TABLE main.s.t TO alice").unwrap();
    alice.execute("INSERT INTO main.s.t VALUES (2)").unwrap();
    // revoke closes the door again
    admin.execute("REVOKE SELECT ON TABLE main.s.t FROM alice").unwrap();
    assert!(alice.execute("SELECT * FROM main.s.t").is_err());
}

#[test]
fn row_filters_and_masks_enforced_by_trusted_engine() {
    let w = world();
    let engine = trusted_engine(&w);
    let mut admin = engine.session(ADMIN);
    admin.execute("CREATE CATALOG main").unwrap();
    admin.execute("CREATE SCHEMA main.hr").unwrap();
    admin
        .execute("CREATE TABLE main.hr.people (name STRING, manager STRING, ssn STRING, salary DOUBLE)")
        .unwrap();
    admin
        .execute(
            "INSERT INTO main.hr.people VALUES \
             ('ada', 'grace', '111-11-1111', 120.0), \
             ('bob', 'grace', '222-22-2222', 95.0), \
             ('carl', 'linus', '333-33-3333', 88.0)",
        )
        .unwrap();
    let ctx = Context::user(ADMIN);
    let name = FullName::parse("main.hr.people").unwrap();
    // row filter: managers see their reports
    w.uc.set_row_filter(
        &ctx,
        &w.ms,
        &name,
        RowFilterPolicy {
            expr: Expr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(Expr::Column("manager".into())),
                rhs: Box::new(Expr::CurrentUser),
            },
        },
    )
    .unwrap();
    // column mask: ssn redacted unless in hr group
    w.uc.set_column_mask(
        &ctx,
        &w.ms,
        &name,
        ColumnMaskPolicy {
            column: "ssn".into(),
            mask: Expr::Literal(Value::Str("***".into())),
            exempt_when: Some(Expr::IsAccountGroupMember("hr".into())),
        },
    )
    .unwrap();
    w.uc.grant_read_path(&ctx, &w.ms, "main.hr.people", "grace").unwrap();
    w.uc.grant_read_path(&ctx, &w.ms, "main.hr.people", "heidi").unwrap();
    w.uc.upsert_principal("heidi", &["hr"]).unwrap();

    // grace: sees only her two reports, ssn masked
    let mut grace = engine.session("grace");
    let res = grace.execute("SELECT name, ssn FROM main.hr.people").unwrap();
    assert_eq!(res.rows.len(), 2);
    for row in &res.rows {
        assert_eq!(row[1], Value::Str("***".into()));
    }

    // heidi (hr group): row filter still applies (manager = heidi → none)
    let mut heidi = engine.session("heidi");
    let res = heidi.execute("SELECT * FROM main.hr.people").unwrap();
    assert_eq!(res.rows.len(), 0);
}

#[test]
fn untrusted_engine_delegates_to_data_filtering_service() {
    let w = world();
    let trusted = trusted_engine(&w);
    let mut admin = trusted.session(ADMIN);
    admin.execute("CREATE CATALOG main").unwrap();
    admin.execute("CREATE SCHEMA main.hr").unwrap();
    admin.execute("CREATE TABLE main.hr.t (owner STRING, v BIGINT)").unwrap();
    admin
        .execute("INSERT INTO main.hr.t VALUES ('alice', 1), ('bob', 2)")
        .unwrap();
    let ctx = Context::user(ADMIN);
    let name = FullName::parse("main.hr.t").unwrap();
    w.uc.set_row_filter(
        &ctx,
        &w.ms,
        &name,
        RowFilterPolicy {
            expr: Expr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(Expr::Column("owner".into())),
                rhs: Box::new(Expr::CurrentUser),
            },
        },
    )
    .unwrap();
    w.uc.grant_read_path(&ctx, &w.ms, "main.hr.t", "alice").unwrap();

    // an untrusted ML engine without DFS is refused
    let untrusted = Engine::new(w.uc.clone(), w.ms.clone(), EngineConfig::untrusted("ml-gpu"));
    let mut alice = untrusted.session("alice");
    assert!(alice.execute("SELECT * FROM main.hr.t").is_err());

    // with a DFS attached, the query succeeds and is filtered
    let dfs = DataFilteringService::new(trusted.clone());
    let mut alice = untrusted.session("alice").with_dfs(dfs);
    let res = alice.execute("SELECT * FROM main.hr.t").unwrap();
    assert_eq!(res.rows.len(), 1);
    assert_eq!(res.rows[0][0], Value::Str("alice".into()));
}

#[test]
fn views_expand_with_view_based_access() {
    let w = world();
    let engine = trusted_engine(&w);
    let mut admin = engine.session(ADMIN);
    admin.execute("CREATE CATALOG main").unwrap();
    admin.execute("CREATE SCHEMA main.s").unwrap();
    admin.execute("CREATE TABLE main.s.base (id BIGINT, secret STRING)").unwrap();
    admin
        .execute("INSERT INTO main.s.base VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        .unwrap();
    admin
        .execute("CREATE VIEW main.s.public_ids AS SELECT id FROM main.s.base WHERE id > 1")
        .unwrap();
    // alice can read the view but not the base
    w.uc.grant_read_path(&Context::user(ADMIN), &w.ms, "main.s.public_ids", "alice").unwrap();
    let mut alice = engine.session("alice");
    assert!(alice.execute("SELECT * FROM main.s.base").is_err());
    let res = alice.execute("SELECT * FROM main.s.public_ids").unwrap();
    assert_eq!(res.columns, vec!["id"]);
    assert_eq!(res.rows.len(), 2);
    // outer predicate composes with the view's predicate
    let res = alice
        .execute("SELECT * FROM main.s.public_ids WHERE id = 3")
        .unwrap();
    assert_eq!(res.rows.len(), 1);
    // lineage was reported by the engine at view creation
    let down = w
        .uc
        .lineage(
            &Context::user(ADMIN),
            &w.ms,
            &FullName::parse("main.s.base").unwrap(),
            uc_catalog::lineage::LineageDirection::Downstream,
            5,
        )
        .unwrap();
    assert_eq!(down.len(), 1);
}

#[test]
fn multi_table_transaction_commits_atomically() {
    let w = world();
    let engine = Engine::new(
        w.uc.clone(),
        w.ms.clone(),
        EngineConfig::trusted("dbr").with_catalog_owned_commits(),
    );
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.bank").unwrap();
    s.execute("CREATE TABLE main.bank.accounts (id BIGINT, balance DOUBLE)").unwrap();
    s.execute("CREATE TABLE main.bank.ledger (txid BIGINT, amount DOUBLE)").unwrap();

    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO main.bank.accounts VALUES (1, 100.0)").unwrap();
    s.execute("INSERT INTO main.bank.ledger VALUES (1, 100.0)").unwrap();
    // nothing visible yet
    assert_eq!(s.execute("SELECT * FROM main.bank.accounts").unwrap().rows.len(), 0);
    s.execute("COMMIT").unwrap();
    assert_eq!(s.execute("SELECT * FROM main.bank.accounts").unwrap().rows.len(), 1);
    assert_eq!(s.execute("SELECT * FROM main.bank.ledger").unwrap().rows.len(), 1);

    // rollback discards buffered writes
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO main.bank.accounts VALUES (2, 50.0)").unwrap();
    s.execute("ROLLBACK").unwrap();
    assert_eq!(s.execute("SELECT * FROM main.bank.accounts").unwrap().rows.len(), 1);

    // transaction misuse errors
    assert!(matches!(s.execute("COMMIT"), Err(EngineError::Transaction(_))));
    s.execute("BEGIN").unwrap();
    assert!(matches!(s.execute("BEGIN"), Err(EngineError::Transaction(_))));
}

#[test]
fn optimize_and_vacuum_through_sql() {
    let w = world();
    let engine = trusted_engine(&w);
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
    // many tiny inserts → many small files
    for i in 0..12 {
        s.execute(&format!("INSERT INTO main.s.t VALUES ({i})")).unwrap();
    }
    let before = s.execute("SELECT * FROM main.s.t").unwrap();
    assert_eq!(before.rows.len(), 12);
    assert_eq!(before.files_scanned, 12);

    let msg = s.execute("OPTIMIZE main.s.t").unwrap().message;
    assert!(msg.contains("rewrote 12 file(s) into 1"), "{msg}");
    let after = s.execute("SELECT * FROM main.s.t").unwrap();
    assert_eq!(after.rows.len(), 12);
    assert_eq!(after.files_scanned, 1);

    let msg = s.execute("VACUUM main.s.t").unwrap().message;
    assert!(msg.contains("vacuumed 12 object(s)"), "{msg}");
}

#[test]
fn stats_pruning_reduces_files_scanned() {
    let w = world();
    let engine = trusted_engine(&w);
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
    for base in [0, 100, 200] {
        let values: Vec<String> = (base..base + 10).map(|v| format!("({v})")).collect();
        s.execute(&format!("INSERT INTO main.s.t VALUES {}", values.join(", "))).unwrap();
    }
    let res = s.execute("SELECT * FROM main.s.t WHERE x = 105").unwrap();
    assert_eq!(res.rows.len(), 1);
    assert_eq!(res.files_scanned, 1, "min/max stats must prune 2 of 3 files");
}

#[test]
fn federation_queries_hms_through_uc() {
    let w = world();
    // A legacy HMS with existing data (its own metastore db).
    let hms = HiveMetastore::in_memory();
    hms.create_database(&HmsDatabase { name: "legacy".into(), description: None, location: None })
        .unwrap();
    hms.create_table(&HmsTable {
        db: "legacy".into(),
        name: "customers".into(),
        columns: uc_delta::value::Schema::new(vec![uc_delta::value::Field::new(
            "id",
            uc_delta::value::DataType::Int,
        )]),
        location: Some("s3://legacy-bucket/customers".into()),
        table_type: "MANAGED_TABLE".into(),
        format: "PARQUET".into(),
    })
    .unwrap();

    let ctx = Context::user(ADMIN);
    w.uc.create_connection(&ctx, &w.ms, "legacy_hms", "thrift://hms:9083").unwrap();
    w.uc.create_federated_catalog(&ctx, &w.ms, "legacy", "legacy_hms").unwrap();

    // engine-driven on-demand mirroring
    let connector = HmsConnector { hms };
    let mirrored = w
        .uc
        .federated_get_table(&ctx, &w.ms, "legacy", "legacy", "customers", &connector)
        .unwrap();
    assert_eq!(mirrored.table_type(), Some(uc_catalog::types::TableType::Foreign));
    assert_eq!(mirrored.properties.get("foreign_type").map(|s| s.as_str()), Some("hive"));

    // simple clients (UI) now see the mirrored table via plain UC reads
    let via_uc = w.uc.get_table(&ctx, &w.ms, "legacy.legacy.customers").unwrap();
    assert_eq!(via_uc.id, mirrored.id);
    let _ = (&w.db, &w.store);
}

#[test]
fn audit_and_api_counters_track_engine_activity() {
    let w = world();
    let engine = trusted_engine(&w);
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
    s.execute("INSERT INTO main.s.t VALUES (1)").unwrap();
    s.execute("SELECT * FROM main.s.t").unwrap();
    let calls = w
        .uc
        .service_stats()
        .api_calls
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(calls >= 5, "expected several catalog API calls, saw {calls}");
    let audit = w.uc.audit_log();
    assert!(!audit.query(|r| r.action == "resolveForQuery").is_empty());
    assert!(!audit.query(|r| r.action == "generateTemporaryCredentials").is_empty());
}

#[test]
fn shallow_clone_pins_version_and_grants_base_access() {
    let w = world();
    let engine = trusted_engine(&w);
    let mut admin = engine.session(ADMIN);
    admin.execute("CREATE CATALOG main").unwrap();
    admin.execute("CREATE SCHEMA main.s").unwrap();
    admin.execute("CREATE TABLE main.s.base (x BIGINT)").unwrap();
    admin.execute("INSERT INTO main.s.base VALUES (1), (2)").unwrap();
    admin.execute("CREATE TABLE main.s.snap SHALLOW CLONE main.s.base").unwrap();
    // base evolves after the clone
    admin.execute("INSERT INTO main.s.base VALUES (3)").unwrap();

    // the clone still reads the pinned version (2 rows), the base reads 3
    assert_eq!(admin.execute("SELECT * FROM main.s.snap").unwrap().rows.len(), 2);
    assert_eq!(admin.execute("SELECT * FROM main.s.base").unwrap().rows.len(), 3);

    // SELECT on the clone grants data access even without base privileges
    w.uc.grant_read_path(&Context::user(ADMIN), &w.ms, "main.s.snap", "alice").unwrap();
    let mut alice = engine.session("alice");
    assert!(alice.execute("SELECT * FROM main.s.base").is_err());
    let res = alice.execute("SELECT * FROM main.s.snap WHERE x >= 2").unwrap();
    assert_eq!(res.rows.len(), 1);

    // clones share the relation namespace with tables/views
    assert!(admin
        .execute("CREATE TABLE main.s.snap SHALLOW CLONE main.s.base")
        .is_err());
    // cloning requires read access on the source
    assert!(alice
        .execute("CREATE TABLE main.s.snap2 SHALLOW CLONE main.s.base")
        .is_err());
}

#[test]
fn direct_iceberg_facade_serves_governed_tables() {
    let w = world();
    let engine = trusted_engine(&w);
    let mut admin = engine.session(ADMIN);
    admin.execute("CREATE CATALOG main").unwrap();
    admin.execute("CREATE SCHEMA main.s").unwrap();
    admin.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
    admin.execute("INSERT INTO main.s.t VALUES (1), (2)").unwrap();
    let ctx = Context::user(ADMIN);
    let name = FullName::parse("main.s.t").unwrap();

    // an Iceberg client with SELECT loads UniForm metadata
    w.uc.grant_read_path(&ctx, &w.ms, "main.s.t", "iceuser").unwrap();
    let ice_client = Context::user("iceuser");
    let meta = w.uc.load_table_as_iceberg(&ice_client, &w.ms, &name).unwrap();
    assert_eq!(meta.current_snapshot_id, 1);
    assert_eq!(meta.snapshots[0].summary_total_records, 2);

    // without SELECT: denied
    let nobody = Context::user("nobody");
    assert!(w.uc.load_table_as_iceberg(&nobody, &w.ms, &name).is_err());

    // FGAC gates pass-through: Iceberg metadata carries files and no rule,
    // so a filtered table is refused to every Iceberg client, a trusted
    // engine included, and the refusal names the data filtering service
    w.uc.set_row_filter(
        &ctx,
        &w.ms,
        &name,
        RowFilterPolicy {
            expr: Expr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(Expr::Column("x".into())),
                rhs: Box::new(Expr::Literal(Value::Int(1))),
            },
        },
    )
    .unwrap();
    assert!(w.uc.load_table_as_iceberg(&ice_client, &w.ms, &name).is_err());
    let trusted = Context::trusted("iceuser", "trusted-iceberg-engine");
    match w.uc.load_table_as_iceberg(&trusted, &w.ms, &name) {
        Err(UcError::PermissionDenied(r)) => {
            assert_eq!(r.reason(), Reason::PoliciesNotExpressible);
            assert!(r.to_string().contains("data filtering service"), "{r}");
        }
        other => panic!("a trusted Iceberg load of a filtered table: {other:?}"),
    }
}

#[test]
fn delete_dml_with_copy_on_write() {
    let w = world();
    let engine = trusted_engine(&w);
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.t (x BIGINT, keep BOOLEAN)").unwrap();
    s.execute("INSERT INTO main.s.t VALUES (1, true), (2, false), (3, true), (4, false)").unwrap();

    let msg = s.execute("DELETE FROM main.s.t WHERE keep = false").unwrap().message;
    assert!(msg.contains("deleted 2 row(s)"), "{msg}");
    let res = s.execute("SELECT x FROM main.s.t").unwrap();
    assert_eq!(res.rows.len(), 2);
    assert!(res.rows.iter().all(|r| r[0] == Value::Int(1) || r[0] == Value::Int(3)));

    // DELETE matching nothing is a no-op (no new commit)
    let before = s.execute("SELECT * FROM main.s.t").unwrap().rows.len();
    let msg = s.execute("DELETE FROM main.s.t WHERE x = 999").unwrap().message;
    assert!(msg.contains("deleted 0"), "{msg}");
    assert_eq!(s.execute("SELECT * FROM main.s.t").unwrap().rows.len(), before);

    // unconditional DELETE empties the table
    s.execute("DELETE FROM main.s.t").unwrap();
    assert_eq!(s.execute("SELECT * FROM main.s.t").unwrap().rows.len(), 0);

    // authorization: SELECT-only principal cannot DELETE
    s.execute("INSERT INTO main.s.t VALUES (9, true)").unwrap();
    w.uc.grant_read_path(&Context::user(ADMIN), &w.ms, "main.s.t", "reader").unwrap();
    let mut reader = engine.session("reader");
    assert!(reader.execute("DELETE FROM main.s.t").is_err());
    assert_eq!(s.execute("SELECT * FROM main.s.t").unwrap().rows.len(), 1);
}

#[test]
fn rename_preserves_identity_and_grants() {
    let w = world();
    let engine = trusted_engine(&w);
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.old_name (x BIGINT)").unwrap();
    s.execute("INSERT INTO main.s.old_name VALUES (7)").unwrap();
    let ctx = Context::user(ADMIN);
    w.uc.grant_read_path(&ctx, &w.ms, "main.s.old_name", "alice").unwrap();
    let before = w.uc.get_table(&ctx, &w.ms, "main.s.old_name").unwrap();

    w.uc.rename_securable(&ctx, &w.ms, &FullName::parse("main.s.old_name").unwrap(), "relation", "new_name")
        .unwrap();

    // old name is gone — including from the warm cache
    assert!(w.uc.get_table(&ctx, &w.ms, "main.s.old_name").is_err());
    let after = w.uc.get_table(&ctx, &w.ms, "main.s.new_name").unwrap();
    assert_eq!(after.id, before.id, "identity survives the rename");
    assert_eq!(after.grants, before.grants, "grants survive the rename");

    // data access continues under the new name for the grantee
    let mut alice = engine.session("alice");
    assert_eq!(alice.execute("SELECT * FROM main.s.new_name").unwrap().rows.len(), 1);

    // the freed name is reusable; the target name is protected
    s.execute("CREATE TABLE main.s.old_name (y BIGINT)").unwrap();
    assert!(matches!(
        w.uc.rename_securable(&ctx, &w.ms, &FullName::parse("main.s.old_name").unwrap(), "relation", "new_name"),
        Err(uc_catalog::UcError::AlreadyExists(_))
    ));
    // non-admin cannot rename
    assert!(w
        .uc
        .rename_securable(&Context::user("alice"), &w.ms, &FullName::parse("main.s.new_name").unwrap(), "relation", "sneaky")
        .is_err());
}

#[test]
fn workspace_bindings_gate_catalog_access() {
    let w = world();
    let ctx = Context::user(ADMIN);
    // engines attached to two different workspaces
    let prod_engine = Engine::new(
        w.uc.clone(),
        w.ms.clone(),
        EngineConfig::trusted("dbr").in_workspace("prod-ws"),
    );
    let dev_engine = Engine::new(
        w.uc.clone(),
        w.ms.clone(),
        EngineConfig::trusted("dbr").in_workspace("dev-ws"),
    );
    let mut admin_prod = prod_engine.session(ADMIN);
    admin_prod.execute("CREATE CATALOG restricted").unwrap();
    admin_prod.execute("CREATE SCHEMA restricted.s").unwrap();
    admin_prod.execute("CREATE TABLE restricted.s.t (x BIGINT)").unwrap();
    admin_prod.execute("INSERT INTO restricted.s.t VALUES (1)").unwrap();

    // bind the catalog to prod-ws only
    w.uc.set_catalog_bindings(&ctx, &w.ms, "restricted", &["prod-ws"]).unwrap();

    // prod workspace keeps working
    assert_eq!(admin_prod.execute("SELECT * FROM restricted.s.t").unwrap().rows.len(), 1);
    // dev workspace — same principal! — is rejected
    let mut admin_dev = dev_engine.session(ADMIN);
    assert!(admin_dev.execute("SELECT * FROM restricted.s.t").is_err());
    // a request with no workspace at all is rejected too
    assert!(w.uc.get_table(&ctx, &w.ms, "restricted.s.t").is_err());

    // clearing the binding restores access
    w.uc.set_catalog_bindings(&ctx, &w.ms, "restricted", &[]).unwrap();
    assert_eq!(admin_dev.execute("SELECT * FROM restricted.s.t").unwrap().rows.len(), 1);
}

#[test]
fn count_star_aggregation() {
    let w = world();
    let engine = trusted_engine(&w);
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
    s.execute("INSERT INTO main.s.t VALUES (1), (2), (3), (4)").unwrap();
    let res = s.execute("SELECT COUNT(*) FROM main.s.t").unwrap();
    assert_eq!(res.columns, vec!["count"]);
    assert_eq!(res.rows, vec![vec![Value::Int(4)]]);
    let res = s.execute("SELECT COUNT(*) FROM main.s.t WHERE x >= 3").unwrap();
    assert_eq!(res.rows, vec![vec![Value::Int(2)]]);
    // counting respects FGAC row filters too
    let ctx = Context::user(ADMIN);
    w.uc.set_row_filter(
        &ctx,
        &w.ms,
        &FullName::parse("main.s.t").unwrap(),
        RowFilterPolicy { expr: Expr::cmp("x", CmpOp::Le, 1i64) },
    )
    .unwrap();
    let res = s.execute("SELECT COUNT(*) FROM main.s.t").unwrap();
    assert_eq!(res.rows, vec![vec![Value::Int(1)]]);
}

#[test]
fn order_by_and_limit() {
    let w = world();
    let engine = trusted_engine(&w);
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.t (x BIGINT, name STRING)").unwrap();
    s.execute("INSERT INTO main.s.t VALUES (3, 'c'), (1, 'a'), (2, 'b'), (5, 'e'), (4, 'd')")
        .unwrap();
    let res = s.execute("SELECT x, name FROM main.s.t ORDER BY x DESC LIMIT 2").unwrap();
    assert_eq!(res.rows, vec![
        vec![Value::Int(5), Value::Str("e".into())],
        vec![Value::Int(4), Value::Str("d".into())],
    ]);
    let res = s.execute("SELECT name FROM main.s.t ORDER BY name LIMIT 3").unwrap();
    assert_eq!(res.rows.len(), 3);
    assert_eq!(res.rows[0][0], Value::Str("a".into()));
    // ORDER BY must reference a projected column
    assert!(s.execute("SELECT name FROM main.s.t ORDER BY x").is_err());
    // LIMIT larger than the result is harmless
    assert_eq!(s.execute("SELECT * FROM main.s.t LIMIT 100").unwrap().rows.len(), 5);
}

#[test]
fn view_with_limit_keeps_its_definition() {
    let w = world();
    let engine = trusted_engine(&w);
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
    s.execute("INSERT INTO main.s.t VALUES (5), (3), (9), (1), (7)").unwrap();
    s.execute("CREATE VIEW main.s.top3 AS SELECT x FROM main.s.t ORDER BY x DESC LIMIT 3")
        .unwrap();
    let res = s.execute("SELECT * FROM main.s.top3").unwrap();
    assert_eq!(res.rows, vec![
        vec![Value::Int(9)],
        vec![Value::Int(7)],
        vec![Value::Int(5)],
    ]);
    // outer predicate composes over the view's limited output
    let res = s.execute("SELECT * FROM main.s.top3 WHERE x < 9").unwrap();
    assert_eq!(res.rows.len(), 2);
}

/// `(id, amount)` of every row of `sql`'s result, sorted.
fn id_amount(session: &mut uc_engine::EngineSession, sql: &str) -> Vec<(i64, i64)> {
    let res = session.execute(sql).unwrap();
    let mut out: Vec<(i64, i64)> = res
        .rows
        .iter()
        .map(|r| match (&r[0], &r[1]) {
            (Value::Int(id), Value::Int(amount)) => (*id, *amount),
            other => panic!("unexpected row {other:?}"),
        })
        .collect();
    out.sort_unstable();
    out
}

/// A masked column reads as its mask on every path a query can take: a
/// WHERE over it matches the masked value, never the stored one, and stats
/// (which describe stored values) prune no file for it — through a trusted
/// engine, through the data filtering service, and at a view's own level.
/// The row filter still reads stored values.
#[test]
fn a_where_clause_reads_masked_values_never_stored_ones() {
    let w = world();
    let trusted = trusted_engine(&w);
    let mut admin = trusted.session(ADMIN);
    admin.execute("CREATE CATALOG main").unwrap();
    admin.execute("CREATE SCHEMA main.s").unwrap();
    for table in ["f", "t"] {
        admin.execute(&format!("CREATE TABLE main.s.{table} (id BIGINT, owner STRING, amount BIGINT)")).unwrap();
        // two files: amounts 1000–1001 and 1002–1003
        for ids in [[0, 1], [2, 3]] {
            let values: Vec<String> = ids
                .iter()
                .map(|i| format!("({i}, '{}', {})", if i % 2 == 0 { "alice" } else { "bob" }, 1000 + i))
                .collect();
            admin.execute(&format!("INSERT INTO main.s.{table} VALUES {}", values.join(", "))).unwrap();
        }
    }
    admin.execute("CREATE VIEW main.s.v AS SELECT id, amount, owner FROM main.s.t").unwrap();
    let ctx = Context::user(ADMIN);
    let is_admin = Expr::Cmp {
        op: CmpOp::Eq,
        lhs: Box::new(Expr::CurrentUser),
        rhs: Box::new(Expr::Literal(Value::Str(ADMIN.into()))),
    };
    let own_rows = Expr::Cmp {
        op: CmpOp::Eq,
        lhs: Box::new(Expr::Column("owner".into())),
        rhs: Box::new(Expr::CurrentUser),
    };
    for relation in ["main.s.f", "main.s.v"] {
        let name = FullName::parse(relation).unwrap();
        let filter = RowFilterPolicy { expr: own_rows.clone().or(is_admin.clone()) };
        w.uc.set_row_filter(&ctx, &w.ms, &name, filter).unwrap();
        let mask = ColumnMaskPolicy {
            column: "amount".into(),
            mask: Expr::Literal(Value::Int(-1)),
            exempt_when: Some(is_admin.clone()),
        };
        w.uc.set_column_mask(&ctx, &w.ms, &name, mask).unwrap();
        w.uc.grant_read_path(&ctx, &w.ms, relation, "alice").unwrap();
    }

    let untrusted = Engine::new(w.uc.clone(), w.ms.clone(), EngineConfig::untrusted("ml-gpu"));
    let dfs = DataFilteringService::new(trusted.clone());
    let mut paths = [
        ("trusted", trusted.session("alice")),
        ("data filtering service", untrusted.session("alice").with_dfs(dfs)),
    ];
    for (path, alice) in &mut paths {
        for relation in ["main.s.f", "main.s.v"] {
            let q = |pred: &str| format!("SELECT id, amount FROM {relation} WHERE {pred}");
            // the stored value is not there to be matched …
            assert_eq!(id_amount(alice, &q("amount = 1002")), vec![], "{path}, {relation}");
            assert_eq!(id_amount(alice, &q("amount > 0")), vec![], "{path}, {relation}");
            // … the masked one is, in every file: her rows only (the filter)
            assert_eq!(id_amount(alice, &q("amount = -1")), vec![(0, -1), (2, -1)], "{path}, {relation}");
            assert_eq!(id_amount(alice, &q("id >= 2 AND amount < 0")), vec![(2, -1)], "{path}, {relation}");
        }
    }
    // the exempt admin reads and matches what is stored
    for relation in ["main.s.f", "main.s.v"] {
        let sql = format!("SELECT id, amount FROM {relation} WHERE amount = 1002");
        assert_eq!(id_amount(&mut admin, &sql), vec![(2, 1002)], "{relation}");
    }
}
