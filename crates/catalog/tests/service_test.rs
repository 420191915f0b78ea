//! End-to-end tests of the Unity Catalog service: namespace, governance,
//! vending, FGAC/ABAC, caching across nodes, commits, sharing, federation.

#![allow(clippy::unwrap_used, reason = "helpers outside #[test] functions fail the test as a test body does")]

use std::sync::Arc;

use bytes::Bytes;
use uc_catalog::audit::{AuditDecision, AuditLog};
use uc_catalog::authz::fgac::RowFilterPolicy;
use uc_catalog::authz::abac::{AbacEffect, AbacPolicy};
use uc_catalog::authz::Privilege;
use uc_catalog::error::UcError;
use uc_catalog::ids::Uid;
use uc_catalog::model::entity::props;
use uc_catalog::model::keys;
use uc_catalog::Entity;
use uc_catalog::ops::Op;
use uc_catalog::service::commits::TableCommit;
use uc_catalog::service::resolve::ResolvedSecurable;
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::discovery_api::MetaFilter;
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::types::{FullName, SecurableKind, TableFormat};
use uc_cloudstore::{AccessLevel, Credential, ObjectStore, StoragePath};
use uc_delta::expr::{CmpOp, Expr};
use uc_delta::value::{DataType, Field, Schema, Value};
use uc_txdb::Db;

const ADMIN: &str = "admin";

struct Fixture {
    uc: Arc<UnityCatalog>,
    ms: Uid,
    store: ObjectStore,
}

fn table_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("owner_name", DataType::Str),
        Field::new("salary", DataType::Float),
    ])
}

/// Bootstrap a metastore with storage root + credential and one
/// catalog/schema, as `admin`.
fn fixture() -> Fixture {
    fixture_with(UcConfig::default())
}

fn fixture_with(config: UcConfig) -> Fixture {
    let db = Db::in_memory();
    let store = ObjectStore::in_memory();
    let uc = UnityCatalog::new(db, store.clone(), config, "node-0");
    let ms = uc.create_metastore(ADMIN, "prod", "us-west-2").unwrap();
    let ctx = Context::user(ADMIN);
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
    uc.create_catalog(&ctx, &ms, "main").unwrap();
    uc.create_schema(&ctx, &ms, "main", "sales").unwrap();
    Fixture { uc, ms, store }
}

fn admin() -> Context {
    Context::user(ADMIN)
}

#[test]
fn namespace_create_get_list() {
    let f = fixture();
    let ctx = admin();
    let t = f
        .uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.orders", table_schema()).unwrap())
        .unwrap();
    assert_eq!(t.kind, SecurableKind::Table);
    assert!(t.storage_path.as_deref().unwrap().starts_with("s3://lake/managed/tables/"));

    let fetched = f.uc.get_table(&ctx, &f.ms, "main.sales.orders").unwrap();
    assert_eq!(fetched.id, t.id);

    // case-insensitive resolution
    let fetched2 = f.uc.get_table(&ctx, &f.ms, "MAIN.SALES.ORDERS").unwrap();
    assert_eq!(fetched2.id, t.id);

    let cats = f.uc.list_catalogs(&ctx, &f.ms).unwrap();
    assert_eq!(cats.len(), 1);
    let children = f
        .uc
        .list_children(&ctx, &f.ms, &FullName::parse("main.sales").unwrap(), None)
        .unwrap();
    assert_eq!(children.len(), 1);
}

#[test]
fn tables_and_views_share_namespace() {
    let f = fixture();
    let ctx = admin();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.orders", table_schema()).unwrap())
        .unwrap();
    let err = f
        .uc
        .create_view(
            &ctx,
            &f.ms,
            &FullName::parse("main.sales.orders").unwrap(),
            "SELECT 1",
            table_schema(),
            &[],
        )
        .unwrap_err();
    assert!(matches!(err, UcError::AlreadyExists(_)));
    // but a volume with the same name is fine (different group)
    f.uc
        .create_volume(&ctx, &f.ms, &FullName::parse("main.sales.orders").unwrap(), None)
        .unwrap();
}

#[test]
fn duplicate_table_rejected() {
    let f = fixture();
    let ctx = admin();
    let spec = TableSpec::managed("main.sales.orders", table_schema()).unwrap();
    f.uc.create_table(&ctx, &f.ms, spec.clone()).unwrap();
    assert!(matches!(
        f.uc.create_table(&ctx, &f.ms, spec),
        Err(UcError::AlreadyExists(_))
    ));
}

#[test]
fn default_deny_and_grant_flow() {
    let f = fixture();
    let ctx = admin();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.orders", table_schema()).unwrap())
        .unwrap();
    let alice = Context::trusted("alice", "dbr");

    // alice sees nothing by default — existence is hidden
    assert!(matches!(
        f.uc.get_table(&alice, &f.ms, "main.sales.orders"),
        Err(UcError::NotFound(_))
    ));
    // resolution denied
    assert!(f
        .uc
        .resolve_for_query(&alice, &f.ms, &[FullName::parse("main.sales.orders").unwrap()], false)
        .is_err());

    // grant the read path
    f.uc.grant_read_path(&ctx, &f.ms, "main.sales.orders", "alice").unwrap();
    let resolved = f
        .uc
        .resolve_for_query(&alice, &f.ms, &[FullName::parse("main.sales.orders").unwrap()], false)
        .unwrap();
    assert_eq!(resolved.len(), 1);
    assert_eq!(resolved[0].schema.as_ref().unwrap().fields.len(), 3);

    // revoking SELECT denies again
    f.uc
        .revoke(&ctx, &f.ms, &FullName::parse("main.sales.orders").unwrap(), "relation", "alice", Privilege::Select)
        .unwrap();
    assert!(f
        .uc
        .resolve_for_query(&alice, &f.ms, &[FullName::parse("main.sales.orders").unwrap()], false)
        .is_err());
}

#[test]
fn select_granted_on_catalog_inherits() {
    let f = fixture();
    let ctx = admin();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.orders", table_schema()).unwrap())
        .unwrap();
    let cat = FullName::parse("main").unwrap();
    for p in [Privilege::UseCatalog, Privilege::UseSchema, Privilege::Select] {
        f.uc.grant(&ctx, &f.ms, &cat, "catalog", "analysts", p).unwrap();
    }
    f.uc.upsert_principal("bob", &["analysts"]).unwrap();
    let bob = Context::trusted("bob", "dbr");
    // a table created AFTER the grant is also covered
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.later", table_schema()).unwrap())
        .unwrap();
    for t in ["main.sales.orders", "main.sales.later"] {
        assert!(f
            .uc
            .resolve_for_query(&bob, &f.ms, &[FullName::parse(t).unwrap()], false)
            .is_ok());
    }
}

#[test]
fn credential_vending_by_name_and_path() {
    let f = fixture();
    let ctx = admin();
    let t = f
        .uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.orders", table_schema()).unwrap())
        .unwrap();
    f.uc.grant_read_path(&ctx, &f.ms, "main.sales.orders", "alice").unwrap();
    let alice = Context::trusted("alice", "dbr");

    let tok = f
        .uc
        .temp_credentials(&alice, &f.ms, &FullName::parse("main.sales.orders").unwrap(), "relation", AccessLevel::Read)
        .unwrap();
    let table_path = StoragePath::parse(t.storage_path.as_ref().unwrap()).unwrap();
    assert_eq!(tok.scope, table_path);

    // path-based access resolves to the same asset and policy
    let inner = table_path.child("part-000.json").to_string();
    let tok2 = f
        .uc
        .temp_credentials_for_path(&alice, &f.ms, &inner, AccessLevel::Read)
        .unwrap();
    assert_eq!(tok2.scope, table_path, "token is scoped to the asset, not the file");

    // write access requires MODIFY
    assert!(matches!(
        f.uc.temp_credentials_for_path(&alice, &f.ms, &inner, AccessLevel::ReadWrite),
        Err(UcError::PermissionDenied(_))
    ));

    // the token actually works against storage and is bounded by scope
    let cred = Credential::Temp(tok);
    f.store
        .put(&Credential::Root(f.uc.object_store().sts().issue_root("x")), &table_path.child("f"), Bytes::new())
        .unwrap_err(); // forged root rejected
    assert!(f.store.list(&cred, &table_path).is_ok());
    let outside = StoragePath::parse("s3://lake/managed/tables").unwrap();
    assert!(f.store.list(&cred, &outside).is_err());
}

#[test]
fn vending_unknown_path_denied() {
    let f = fixture();
    let alice = Context::user("alice");
    assert!(matches!(
        f.uc.temp_credentials_for_path(&alice, &f.ms, "s3://lake/elsewhere/file", AccessLevel::Read),
        Err(UcError::NotFound(_))
    ));
}

#[test]
fn fgac_requires_trusted_engine() {
    let f = fixture();
    let ctx = admin();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.orders", table_schema()).unwrap())
        .unwrap();
    f.uc.grant_read_path(&ctx, &f.ms, "main.sales.orders", "alice").unwrap();
    let name = FullName::parse("main.sales.orders").unwrap();
    f.uc
        .set_row_filter(
            &ctx,
            &f.ms,
            &name,
            RowFilterPolicy {
                expr: Expr::Cmp {
                    op: CmpOp::Eq,
                    lhs: Box::new(Expr::Column("owner_name".into())),
                    rhs: Box::new(Expr::CurrentUser),
                },
            },
        )
        .unwrap();

    // untrusted engine: denied
    let alice_untrusted = Context::user("alice");
    assert!(matches!(
        f.uc.resolve_for_query(&alice_untrusted, &f.ms, std::slice::from_ref(&name), false),
        Err(UcError::PermissionDenied(_))
    ));
    assert!(matches!(
        f.uc.temp_credentials(&alice_untrusted, &f.ms, &name, "relation", AccessLevel::Read),
        Err(UcError::PermissionDenied(_))
    ));

    // trusted engine: allowed and receives the policy
    let alice = Context::trusted("alice", "dbr");
    let resolved = f.uc.resolve_for_query(&alice, &f.ms, &[name], false).unwrap();
    assert!(resolved[0].fgac.row_filter.is_some());
}

#[test]
fn abac_policy_masks_tagged_columns() {
    let f = fixture();
    let ctx = admin();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.people", table_schema()).unwrap())
        .unwrap();
    let name = FullName::parse("main.sales.people").unwrap();
    f.uc.set_column_tag(&ctx, &f.ms, &name, "salary", "pii", "high").unwrap();
    f.uc
        .create_abac_policy(
            &ctx,
            &f.ms,
            &FullName::parse("main").unwrap(),
            "catalog",
            AbacPolicy {
                name: "mask-pii".into(),
                tag_key: "pii".into(),
                tag_value: None,
                effect: AbacEffect::MaskColumns {
                    mask: Expr::Literal(Value::Null),
                    exempt_groups: vec!["hr".into()],
                },
            },
        )
        .unwrap();
    f.uc.grant_read_path(&ctx, &f.ms, "main.sales.people", "alice").unwrap();
    f.uc.grant_read_path(&ctx, &f.ms, "main.sales.people", "hanna").unwrap();
    f.uc.upsert_principal("hanna", &["hr"]).unwrap();

    // alice (not in hr) gets a derived mask on salary
    let alice = Context::trusted("alice", "dbr");
    let resolved = f.uc.resolve_for_query(&alice, &f.ms, std::slice::from_ref(&name), false).unwrap();
    assert_eq!(resolved[0].fgac.column_masks.len(), 1);
    assert_eq!(resolved[0].fgac.column_masks[0].column, "salary");

    // hanna (hr) sees no mask
    let hanna = Context::trusted("hanna", "dbr");
    let resolved = f.uc.resolve_for_query(&hanna, &f.ms, &[name], false).unwrap();
    assert!(resolved[0].fgac.column_masks.is_empty());
}

#[test]
fn abac_restriction_denies_unless_group() {
    let f = fixture();
    let ctx = admin();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.secret", table_schema()).unwrap())
        .unwrap();
    let name = FullName::parse("main.sales.secret").unwrap();
    f.uc.set_tag(&ctx, &f.ms, &name, "relation", "classification", "secret").unwrap();
    f.uc
        .create_abac_policy(
            &ctx,
            &f.ms,
            &FullName::parse("main").unwrap(),
            "catalog",
            AbacPolicy {
                name: "secret-data".into(),
                tag_key: "classification".into(),
                tag_value: Some("secret".into()),
                effect: AbacEffect::RestrictAccess { allowed_groups: vec!["cleared".into()] },
            },
        )
        .unwrap();
    f.uc.grant_read_path(&ctx, &f.ms, "main.sales.secret", "alice").unwrap();
    let alice = Context::trusted("alice", "dbr");
    assert!(matches!(
        f.uc.resolve_for_query(&alice, &f.ms, std::slice::from_ref(&name), false),
        Err(UcError::PermissionDenied(_))
    ));
    f.uc.upsert_principal("alice", &["cleared"]).unwrap();
    assert!(f.uc.resolve_for_query(&alice, &f.ms, &[name], false).is_ok());
}

#[test]
fn view_based_access_control() {
    let f = fixture();
    let ctx = admin();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.orders", table_schema()).unwrap())
        .unwrap();
    f.uc
        .create_view(
            &ctx,
            &f.ms,
            &FullName::parse("main.sales.orders_summary").unwrap(),
            "SELECT id FROM main.sales.orders",
            Schema::new(vec![Field::new("id", DataType::Int)]),
            &[FullName::parse("main.sales.orders").unwrap()],
        )
        .unwrap();
    // alice gets SELECT on the VIEW only
    f.uc.grant_read_path(&ctx, &f.ms, "main.sales.orders_summary", "alice").unwrap();
    let alice = Context::trusted("alice", "dbr");
    // direct table access denied
    assert!(f
        .uc
        .resolve_for_query(&alice, &f.ms, &[FullName::parse("main.sales.orders").unwrap()], false)
        .is_err());
    // view access resolves the base table transitively with credentials
    let resolved = f
        .uc
        .resolve_for_query(&alice, &f.ms, &[FullName::parse("main.sales.orders_summary").unwrap()], true)
        .unwrap();
    assert_eq!(resolved[0].dependencies.len(), 1);
    let base = &resolved[0].dependencies[0];
    assert_eq!(base.entity.name, "orders");
    assert!(base.read_credential.is_some(), "engine gets base-table creds via the view");
}

#[test]
fn one_asset_per_path_enforced_via_api() {
    let f = fixture();
    let ctx = admin();
    let root = f.store.create_bucket("ext");
    f.uc.create_storage_credential(&ctx, &f.ms, "ext_cred", &root).unwrap();
    f.uc.create_external_location(&ctx, &f.ms, "ext_loc", "s3://ext/data", "ext_cred").unwrap();
    f.uc
        .create_table(
            &ctx,
            &f.ms,
            TableSpec::external("main.sales.t1", table_schema(), "s3://ext/data/t1", TableFormat::Parquet).unwrap(),
        )
        .unwrap();
    // overlapping child path
    let err = f
        .uc
        .create_table(
            &ctx,
            &f.ms,
            TableSpec::external("main.sales.t2", table_schema(), "s3://ext/data/t1/sub", TableFormat::Parquet).unwrap(),
        )
        .unwrap_err();
    assert!(matches!(err, UcError::PathConflict { .. }));
    // overlapping parent path
    let err = f
        .uc
        .create_table(
            &ctx,
            &f.ms,
            TableSpec::external("main.sales.t3", table_schema(), "s3://ext/data", TableFormat::Parquet).unwrap(),
        )
        .unwrap_err();
    assert!(matches!(err, UcError::PathConflict { .. }));
}

#[test]
fn external_table_requires_external_location() {
    let f = fixture();
    let ctx = admin();
    // Admins may register external tables anywhere (they pass the
    // location check); ordinary users need a covering external location.
    f.uc
        .create_table(
            &ctx,
            &f.ms,
            TableSpec::external("main.sales.t1", table_schema(), "s3://nowhere/t1", TableFormat::Parquet).unwrap(),
        )
        .unwrap();
    f.uc.grant(&ctx, &f.ms, &FullName::parse("main").unwrap(), "catalog", "carol", Privilege::UseCatalog).unwrap();
    f.uc.grant(&ctx, &f.ms, &FullName::parse("main.sales").unwrap(), "schema", "carol", Privilege::UseSchema).unwrap();
    f.uc.grant(&ctx, &f.ms, &FullName::parse("main.sales").unwrap(), "schema", "carol", Privilege::CreateTable).unwrap();
    let carol = Context::user("carol");
    let err2 = f
        .uc
        .create_table(
            &ctx2_or(&carol),
            &f.ms,
            TableSpec::external("main.sales.t2", table_schema(), "s3://nowhere/t2", TableFormat::Parquet).unwrap(),
        )
        .unwrap_err();
    assert!(matches!(err2, UcError::PermissionDenied(_)));
}

fn ctx2_or(c: &Context) -> Context {
    c.clone()
}

#[test]
fn drop_cascades_and_purge_reclaims_storage() {
    let f = fixture();
    let ctx = admin();
    let t = f
        .uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.orders", table_schema()).unwrap())
        .unwrap();
    // put some fake data at the managed location (as the engine would)
    let path = StoragePath::parse(t.storage_path.as_ref().unwrap()).unwrap();
    let tok = f
        .uc
        .temp_credentials(&ctx, &f.ms, &FullName::parse("main.sales.orders").unwrap(), "relation", AccessLevel::ReadWrite)
        .unwrap();
    f.store
        .put(&Credential::Temp(tok), &path.child("part-0.json"), Bytes::from_static(b"data"))
        .unwrap();

    // dropping the catalog cascades: catalog + schema + table
    let dropped = f
        .uc
        .drop_securable(&ctx, &f.ms, &FullName::parse("main").unwrap(), "catalog")
        .unwrap();
    assert_eq!(dropped, 3);
    assert!(matches!(
        f.uc.get_table(&ctx, &f.ms, "main.sales.orders"),
        Err(UcError::NotFound(_))
    ));
    // the name is immediately reusable
    f.uc.create_catalog(&ctx, &f.ms, "main").unwrap();

    // GC removes rows and managed storage
    let (purged, objects) = f.uc.purge_soft_deleted(&f.ms).unwrap();
    assert_eq!(purged, 3);
    assert_eq!(objects, 1);
}

#[test]
fn model_registry_lifecycle() {
    let f = fixture();
    let ctx = admin();
    f.uc
        .create_registered_model(&ctx, &f.ms, &FullName::parse("main.sales.churn").unwrap())
        .unwrap();
    let (v1, n1) = f
        .uc
        .create_model_version(&ctx, &f.ms, &FullName::parse("main.sales.churn").unwrap())
        .unwrap();
    let (_v2, n2) = f
        .uc
        .create_model_version(&ctx, &f.ms, &FullName::parse("main.sales.churn").unwrap())
        .unwrap();
    assert_eq!((n1, n2), (1, 2));
    assert!(v1.storage_path.as_deref().unwrap().ends_with("/v1"));

    // artifact flow: resolve with EXECUTE + vended creds
    f.uc.grant(&ctx, &f.ms, &FullName::parse("main").unwrap(), "catalog", "mle", Privilege::UseCatalog).unwrap();
    f.uc.grant(&ctx, &f.ms, &FullName::parse("main.sales").unwrap(), "schema", "mle", Privilege::UseSchema).unwrap();
    f.uc.grant(&ctx, &f.ms, &FullName::parse("main.sales.churn").unwrap(), "model", "mle", Privilege::Execute).unwrap();
    let mle = Context::user("mle");
    let resolved = f
        .uc
        .resolve_model_version(&mle, &f.ms, &FullName::parse("main.sales.churn").unwrap(), 1)
        .unwrap();
    let tok = resolved.read_credential.unwrap();
    assert!(tok.scope.to_string().ends_with("/v1"));
}

#[test]
fn catalog_owned_commits_single_and_multi() {
    let f = fixture();
    let ctx = admin();
    let t1 = f
        .uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.t1", table_schema()).unwrap())
        .unwrap();
    let t2 = f
        .uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.t2", table_schema()).unwrap())
        .unwrap();

    f.uc.commit_table(&ctx, &f.ms, &t1.id, 0, Bytes::from_static(b"v0")).unwrap();
    assert_eq!(f.uc.latest_table_version(&ctx, &f.ms, &t1.id).unwrap(), 0);
    // stale commit rejected
    assert!(matches!(
        f.uc.commit_table(&ctx, &f.ms, &t1.id, 0, Bytes::from_static(b"dup")),
        Err(UcError::CommitConflict { .. })
    ));
    assert_eq!(
        f.uc.read_table_commit(&ctx, &f.ms, &t1.id, 0).unwrap().unwrap(),
        Bytes::from_static(b"v0")
    );

    // multi-table: all-or-nothing
    let bad = vec![
        TableCommit { table_id: t1.id.clone(), version: 1, payload: Bytes::from_static(b"a") },
        TableCommit { table_id: t2.id.clone(), version: 5, payload: Bytes::from_static(b"b") }, // wrong
    ];
    assert!(f.uc.commit_tables_atomically(&ctx, &f.ms, bad).is_err());
    assert_eq!(f.uc.latest_table_version(&ctx, &f.ms, &t1.id).unwrap(), 0, "t1 unchanged");

    let good = vec![
        TableCommit { table_id: t1.id.clone(), version: 1, payload: Bytes::from_static(b"a") },
        TableCommit { table_id: t2.id.clone(), version: 0, payload: Bytes::from_static(b"b") },
    ];
    f.uc.commit_tables_atomically(&ctx, &f.ms, good).unwrap();
    assert_eq!(f.uc.latest_table_version(&ctx, &f.ms, &t1.id).unwrap(), 1);
    assert_eq!(f.uc.latest_table_version(&ctx, &f.ms, &t2.id).unwrap(), 0);
}

#[test]
fn two_nodes_share_one_database_coherently() {
    let db = Db::in_memory();
    let store = ObjectStore::in_memory();
    let node_a = UnityCatalog::new(db.clone(), store.clone(), UcConfig::default(), "node-a");
    let node_b = UnityCatalog::new(db, store, UcConfig::default(), "node-b");

    let ms = node_a.create_metastore(ADMIN, "prod", "us-east-1").unwrap();
    let ctx = admin();
    node_a.create_catalog(&ctx, &ms, "main").unwrap();

    // node B sees the catalog (reads through its own cold cache)
    let cats = node_b.list_catalogs(&ctx, &ms).unwrap();
    assert_eq!(cats.len(), 1);

    // node B writes; node A must observe it despite its warm cache
    node_b.create_schema(&ctx, &ms, "main", "from_b").unwrap();
    let kids = node_a
        .list_children(&ctx, &ms, &FullName::parse("main").unwrap(), None)
        .unwrap();
    assert_eq!(kids.len(), 1);
    assert_eq!(kids[0].name, "from_b");

    // interleaved comment updates from both nodes never conflict (each
    // write revalidates against the database)
    for i in 0..10 {
        let node = if i % 2 == 0 { &node_a } else { &node_b };
        node.update_comment(&ctx, &ms, &FullName::parse("main").unwrap(), "catalog", &format!("v{i}"))
            .unwrap();
    }
    // the last writer (node B) serves the latest value from its cache
    let b_view = node_b.get_securable(&ctx, &ms, &FullName::parse("main").unwrap(), "catalog").unwrap();
    assert_eq!(b_view.comment, Some("v9".into()));
    // node A's pure cache hit may serve its own last-known snapshot (v8);
    // an explicit reconcile bounds the staleness
    let a_stale = node_a.get_securable(&ctx, &ms, &FullName::parse("main").unwrap(), "catalog").unwrap();
    assert!(a_stale.comment == Some("v8".into()) || a_stale.comment == Some("v9".into()));
    node_a.reconcile_metastore(&ms);
    let a_view = node_a.get_securable(&ctx, &ms, &FullName::parse("main").unwrap(), "catalog").unwrap();
    assert_eq!(a_view.comment, Some("v9".into()));
}

#[test]
fn cache_serves_repeated_reads_without_db() {
    let f = fixture();
    let ctx = admin();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.orders", table_schema()).unwrap())
        .unwrap();
    // warm
    f.uc.get_table(&ctx, &f.ms, "main.sales.orders").unwrap();
    let reads_before = f.uc.db().stats().reads();
    let hits_before = f.uc.cache_stats().hits.load(std::sync::atomic::Ordering::Relaxed);
    for _ in 0..50 {
        f.uc.get_table(&ctx, &f.ms, "main.sales.orders").unwrap();
    }
    let reads_after = f.uc.db().stats().reads();
    let hits_after = f.uc.cache_stats().hits.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(reads_after, reads_before, "hot reads must not touch the DB");
    assert!(hits_after >= hits_before + 150, "expected cache hits on chain lookups");
}

#[test]
fn sharing_end_to_end_with_iceberg() {
    let f = fixture();
    let ctx = admin();
    let t = f
        .uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.orders", table_schema()).unwrap())
        .unwrap();
    // engine writes delta data using vended rw creds
    let rw = f
        .uc
        .temp_credentials(&ctx, &f.ms, &FullName::parse("main.sales.orders").unwrap(), "relation", AccessLevel::ReadWrite)
        .unwrap();
    let path = StoragePath::parse(t.storage_path.as_ref().unwrap()).unwrap();
    let table = uc_delta::DeltaTable::create(
        f.store.clone(),
        path,
        &Credential::Temp(rw.clone()),
        t.id.as_str(),
        table_schema(),
    )
    .unwrap();
    table
        .append(
            &Credential::Temp(rw),
            &[vec![Value::Int(1), Value::Str("a".into()), Value::Float(10.0)]],
        )
        .unwrap();

    f.uc.create_share(&ctx, &f.ms, "partner_share").unwrap();
    f.uc
        .add_table_to_share(&ctx, &f.ms, "partner_share", &FullName::parse("main.sales.orders").unwrap())
        .unwrap();
    f.uc
        .grant(&ctx, &f.ms, &FullName::parse("partner_share").unwrap(), "share", "recipient", Privilege::Select)
        .unwrap();

    let recipient = Context::user("recipient");
    // recipient has NO table grants, only the share
    let tables = f.uc.list_share_tables(&recipient, &f.ms, "partner_share").unwrap();
    assert_eq!(tables.len(), 1);
    assert_eq!(tables[0].alias, "sales.orders");

    let resp = f
        .uc
        .query_share_table(&recipient, &f.ms, "partner_share", "sales.orders")
        .unwrap();
    assert_eq!(resp.files.len(), 1);
    assert_eq!(resp.version, 1);
    // recipient can fetch the shared file with the vended token
    let file_path = StoragePath::parse(&resp.files[0].url).unwrap();
    assert!(f.store.get(&Credential::Temp(resp.credential), &file_path).is_ok());

    // and as Iceberg via UniForm
    let ice = f
        .uc
        .query_share_table_as_iceberg(&recipient, &f.ms, "partner_share", "sales.orders")
        .unwrap();
    assert_eq!(ice.current_snapshot_id, 1);
    assert_eq!(ice.snapshots[0].manifest.entries.len(), 1);

    // an unrelated user cannot query the share
    let outsider = Context::user("outsider");
    assert!(f
        .uc
        .query_share_table(&outsider, &f.ms, "partner_share", "sales.orders")
        .is_err());
}

#[test]
fn lineage_tracking_and_filtering() {
    let f = fixture();
    let ctx = admin();
    for t in ["raw", "clean", "gold"] {
        f.uc
            .create_table(&ctx, &f.ms, TableSpec::managed(&format!("main.sales.{t}"), table_schema()).unwrap())
            .unwrap();
    }
    let n = |s: &str| FullName::parse(s).unwrap();
    f.uc.add_lineage(&ctx, &f.ms, &n("main.sales.raw"), &n("main.sales.clean"), Some("job-1")).unwrap();
    f.uc.add_lineage(&ctx, &f.ms, &n("main.sales.clean"), &n("main.sales.gold"), Some("job-2")).unwrap();

    let down = f
        .uc
        .lineage(&ctx, &f.ms, &n("main.sales.raw"), uc_catalog::lineage::LineageDirection::Downstream, 10)
        .unwrap();
    assert_eq!(down.len(), 2);
    let up = f
        .uc
        .lineage(&ctx, &f.ms, &n("main.sales.gold"), uc_catalog::lineage::LineageDirection::Upstream, 10)
        .unwrap();
    assert_eq!(up.len(), 2);
    // pre-deletion check: gold has no downstream dependencies
    let gold_down = f
        .uc
        .lineage(&ctx, &f.ms, &n("main.sales.gold"), uc_catalog::lineage::LineageDirection::Downstream, 10)
        .unwrap();
    assert!(gold_down.is_empty());
}

/// Every mutation is one commit and announces itself once, at that
/// commit's version: a grant is one `GrantChange` (not an update plus a
/// grant event), a tag one `TagChange`, and each event's `at_version` is the
/// version its commit's `history.commit` recorded.
#[test]
fn change_events_flow_for_all_mutations() {
    use uc_catalog::events::ChangeOp;
    let obs = uc_obs::Obs::enabled();
    let f = fixture_with(UcConfig { obs: obs.clone(), ..Default::default() });
    let ctx = admin();
    let start = f.uc.events_since(&ctx, &f.ms, 0).unwrap().next_version;
    let orders = FullName::parse("main.sales.orders").unwrap();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.orders", table_schema()).unwrap())
        .unwrap();
    f.uc.grant_on_table(&ctx, &f.ms, "main.sales.orders", "alice", Privilege::Select).unwrap();
    f.uc.set_tag(&ctx, &f.ms, &orders, "relation", "domain", "sales").unwrap();
    f.uc.drop_securable(&ctx, &f.ms, &orders, "relation").unwrap();

    let committed: Vec<u64> = obs
        .tracer()
        .records()
        .iter()
        .filter_map(|r| match r {
            uc_obs::TraceRecord::Event { name, detail, .. } if name == "history.commit" => {
                detail.strip_prefix("version=")?.split(' ').next()?.parse().ok()
            }
            _ => None,
        })
        .filter(|v| *v > start)
        .collect();
    assert_eq!(committed.len(), 4, "one commit per mutation: {committed:?}");
    let page = f.uc.events_since(&ctx, &f.ms, start).unwrap();
    let got: Vec<(ChangeOp, u64)> = page.events.iter().map(|e| (e.op, e.at_version)).collect();
    let ops = [ChangeOp::Create, ChangeOp::GrantChange, ChangeOp::TagChange, ChangeOp::Delete];
    assert_eq!(got, ops.into_iter().zip(committed).collect::<Vec<_>>());
    assert!(page.events.iter().all(|e| e.name == "orders" && e.metastore == f.ms));
}

#[test]
fn info_schema_query_with_pushdown_and_visibility() {
    let f = fixture();
    let ctx = admin();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.orders", table_schema()).unwrap())
        .unwrap();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.lines", table_schema()).unwrap())
        .unwrap();
    f.uc.set_tag(&ctx, &f.ms, &FullName::parse("main.sales.orders").unwrap(), "relation", "pii", "yes").unwrap();

    let tagged = f
        .uc
        .query_entities(&ctx, &f.ms, &[MetaFilter::KindIs(SecurableKind::Table), MetaFilter::HasTag("pii".into())], 100)
        .unwrap();
    assert_eq!(tagged.len(), 1);
    assert_eq!(tagged[0].name, "orders");

    // an unprivileged user sees nothing
    let nobody = Context::user("nobody");
    let visible = f
        .uc
        .query_entities(&nobody, &f.ms, &[MetaFilter::KindIs(SecurableKind::Table)], 100)
        .unwrap();
    assert!(visible.is_empty());
}

#[test]
fn audit_log_records_allows_and_denies() {
    let f = fixture();
    let ctx = admin();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.orders", table_schema()).unwrap())
        .unwrap();
    let mallory = Context::user("mallory");
    let _ = f.uc.temp_credentials(
        &mallory,
        &f.ms,
        &FullName::parse("main.sales.orders").unwrap(),
        "relation",
        AccessLevel::Read,
    );
    let denies = f
        .uc
        .audit_log()
        .query(|r| r.principal == "mallory" && r.decision == uc_catalog::audit::AuditDecision::Deny);
    assert!(!denies.is_empty());
    let allows = f
        .uc
        .audit_log()
        .query(|r| r.principal == ADMIN && r.action == "createTable");
    assert_eq!(allows.len(), 1);
}

#[test]
fn admin_separation_admin_cannot_read_data() {
    let f = fixture();
    let ctx = admin();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.orders", table_schema()).unwrap())
        .unwrap();
    // a second admin who owns nothing
    f.uc.add_metastore_admin(&ctx, &f.ms, "auditor").unwrap();
    let auditor = Context::trusted("auditor", "dbr");
    // can see & manage
    assert!(f.uc.get_table(&auditor, &f.ms, "main.sales.orders").is_ok());
    assert!(f.uc.grant_on_table(&auditor, &f.ms, "main.sales.orders", "x", Privilege::Select).is_ok());
    // but cannot read data (no SELECT)
    assert!(matches!(
        f.uc.resolve_for_query(&auditor, &f.ms, &[FullName::parse("main.sales.orders").unwrap()], false),
        Err(UcError::PermissionDenied(_))
    ));
}

#[test]
fn metastores_are_isolated_namespaces() {
    let db = Db::in_memory();
    let store = ObjectStore::in_memory();
    let uc = UnityCatalog::new(db, store.clone(), UcConfig::default(), "n0");
    let ms1 = uc.create_metastore("admin1", "prod", "us").unwrap();
    let ms2 = uc.create_metastore("admin2", "dev", "eu").unwrap();
    let ctx1 = Context::user("admin1");
    let ctx2 = Context::user("admin2");
    uc.create_catalog(&ctx1, &ms1, "main").unwrap();
    // the same catalog name is free in the other metastore
    uc.create_catalog(&ctx2, &ms2, "main").unwrap();
    // ms2's admin sees nothing in ms1 (not an admin there, no grants)
    assert!(uc.list_catalogs(&ctx2, &ms1).unwrap().is_empty());
    // objects in one metastore are invisible through the other
    assert!(uc
        .get_securable(&ctx1, &ms2, &FullName::parse("main").unwrap(), "catalog")
        .is_err());
    // and storage paths may coincide across metastores (separate indexes)
    let r1 = store.create_bucket("shared");
    uc.create_storage_credential(&ctx1, &ms1, "c", &r1).unwrap();
    let r2 = store.create_bucket("shared");
    uc.create_storage_credential(&ctx2, &ms2, "c", &r2).unwrap();
}

#[test]
fn view_nesting_depth_is_bounded() {
    let f = fixture();
    let ctx = admin();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.base", table_schema()).unwrap())
        .unwrap();
    let mut prev = "main.sales.base".to_string();
    for i in 0..14 {
        let name = format!("main.sales.v{i}");
        f.uc
            .create_view(
                &ctx,
                &f.ms,
                &FullName::parse(&name).unwrap(),
                "SELECT …",
                table_schema(),
                &[FullName::parse(&prev).unwrap()],
            )
            .unwrap();
        prev = name;
    }
    let err = f
        .uc
        .resolve_for_query(&Context::trusted(ADMIN, "dbr"), &f.ms, &[FullName::parse(&prev).unwrap()], false)
        .unwrap_err();
    assert!(matches!(err, UcError::InvalidArgument(_)), "{err}");
}

/// A view over `main.sales.base`, in a node with no metadata cache (so a
/// rewritten row is what the next read sees).
fn view_over_base() -> Fixture {
    let f = fixture_with(UcConfig { cache: uc_catalog::cache::CacheConfig::disabled(), ..Default::default() });
    let ctx = admin();
    f.uc.create_table(&ctx, &f.ms, TableSpec::managed("main.sales.base", table_schema()).unwrap()).unwrap();
    let base = FullName::parse("main.sales.base").unwrap();
    let view = FullName::parse("main.sales.v").unwrap();
    f.uc.create_view(&ctx, &f.ms, &view, "SELECT id FROM main.sales.base", table_schema(), &[base]).unwrap();
    f
}

/// Rewrite the view's stored row.
fn edit_view_row(f: &Fixture, edit: impl FnOnce(&mut Entity)) {
    let key = keys::tree_key(&f.ms, &[("catalog", "main"), ("schema", "sales"), ("relation", "v")]);
    let mut tx = f.uc.db().begin_write();
    let mut e = Entity::decode(&tx.get(keys::T_TREE, &key).unwrap()).unwrap();
    edit(&mut e);
    tx.put(keys::T_TREE, &key, e.encode());
    tx.commit().unwrap();
}

fn resolve_view(f: &Fixture) -> Result<Vec<ResolvedSecurable>, UcError> {
    let engine = Context::trusted(ADMIN, "dbr");
    f.uc.resolve_for_query(&engine, &f.ms, &[FullName::parse("main.sales.v").unwrap()], false)
}

#[test]
fn resolve_fails_closed_on_a_schema_that_does_not_decode() {
    let f = view_over_base();
    assert!(resolve_view(&f).unwrap()[0].schema.is_some());
    edit_view_row(&f, |e| {
        e.properties.insert(props::SCHEMA.into(), r#"{"fields":7}"#.into());
    });
    let err = resolve_view(&f).unwrap_err();
    assert!(matches!(err, UcError::Database(_)), "{err}");
    // An absent schema is none, not corrupt.
    edit_view_row(&f, |e| {
        e.properties.remove(props::SCHEMA);
    });
    assert!(resolve_view(&f).unwrap()[0].schema.is_none());
}

#[test]
fn resolve_fails_closed_on_a_dependency_list_that_does_not_decode() {
    let f = view_over_base();
    assert_eq!(resolve_view(&f).unwrap()[0].dependencies.len(), 1);
    edit_view_row(&f, |e| {
        e.properties.insert(props::DEPENDENCIES.into(), r#"["base-id""#.into());
    });
    let err = resolve_view(&f).unwrap_err();
    assert!(matches!(err, UcError::Database(_)), "{err}");
}

#[test]
fn disabled_cache_mode_is_functionally_identical() {
    let db = Db::in_memory();
    let store = ObjectStore::in_memory();
    let cfg = UcConfig { cache: uc_catalog::cache::CacheConfig::disabled(), ..Default::default() };
    let uc = UnityCatalog::new(db, store.clone(), cfg, "n0");
    let ms = uc.create_metastore(ADMIN, "prod", "us").unwrap();
    let ctx = admin();
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/root").unwrap();
    uc.create_catalog(&ctx, &ms, "main").unwrap();
    uc.create_schema(&ctx, &ms, "main", "s").unwrap();
    uc.create_table(&ctx, &ms, TableSpec::managed("main.s.t", table_schema()).unwrap()).unwrap();
    uc.grant_read_path(&ctx, &ms, "main.s.t", "alice").unwrap();
    let alice = Context::trusted("alice", "dbr");
    assert!(uc.resolve_for_query(&alice, &ms, &[FullName::parse("main.s.t").unwrap()], true).is_ok());
    assert_eq!(
        uc.cache_stats().hits.load(std::sync::atomic::Ordering::Relaxed),
        0,
        "disabled cache must never hit"
    );
    uc.drop_securable(&ctx, &ms, &FullName::parse("main.s.t").unwrap(), "relation").unwrap();
    assert!(uc.get_table(&ctx, &ms, "main.s.t").is_err());
}

#[test]
fn audit_log_respects_capacity() {
    let log = AuditLog::new(16);
    for i in 0..40u64 {
        log.record(i, ADMIN, Op::CREATE_CATALOG.actions[0], None, AuditDecision::Allow, format!("c{i}"), None);
    }
    assert_eq!(log.len(), 16, "bounded retention");
    assert_eq!(log.total_recorded(), 40);
    // newest records survive
    let recent = log.recent(1);
    assert!(recent[0].detail.contains("c39"));
}

#[test]
fn querying_share_after_table_drop_fails_cleanly() {
    let f = fixture();
    let ctx = admin();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.t", table_schema()).unwrap())
        .unwrap();
    f.uc.create_share(&ctx, &f.ms, "sh").unwrap();
    f.uc
        .add_table_to_share(&ctx, &f.ms, "sh", &FullName::parse("main.sales.t").unwrap())
        .unwrap();
    f.uc
        .grant(&ctx, &f.ms, &FullName::parse("sh").unwrap(), "share", "r", Privilege::Select)
        .unwrap();
    f.uc
        .drop_securable(&ctx, &f.ms, &FullName::parse("main.sales.t").unwrap(), "relation")
        .unwrap();
    let r = Context::user("r");
    // members listing still shows the alias, but querying reports the drop
    let err = f.uc.query_share_table(&r, &f.ms, "sh", "sales.t").unwrap_err();
    assert!(matches!(err, UcError::NotFound(_)), "{err}");
}

#[test]
fn principal_groups_refresh_within_ttl_window() {
    let f = fixture();
    let ctx = admin();
    f.uc
        .create_table(&ctx, &f.ms, TableSpec::managed("main.sales.t", table_schema()).unwrap())
        .unwrap();
    // group-based grant
    f.uc.grant(&ctx, &f.ms, &FullName::parse("main").unwrap(), "catalog", "team", Privilege::UseCatalog).unwrap();
    f.uc.grant(&ctx, &f.ms, &FullName::parse("main.sales").unwrap(), "schema", "team", Privilege::UseSchema).unwrap();
    f.uc.grant_on_table(&ctx, &f.ms, "main.sales.t", "team", Privilege::Select).unwrap();
    let bob = Context::trusted("bob", "dbr");
    assert!(f.uc.resolve_for_query(&bob, &f.ms, &[FullName::parse("main.sales.t").unwrap()], false).is_err());
    // joining the group takes effect immediately on this node (the
    // upsert clears the local TTL cache)
    f.uc.upsert_principal("bob", &["team"]).unwrap();
    assert!(f.uc.resolve_for_query(&bob, &f.ms, &[FullName::parse("main.sales.t").unwrap()], false).is_ok());
}

#[test]
fn a_leaf_name_is_validated_wherever_it_came_from() {
    // `FullName::of` builds a name without `validate_object_name`; the
    // create protocol validates the leaf itself, so no typed caller can
    // commit an entity that no REST call (`FullName::parse`) can name.
    use uc_catalog::model::keys;
    let f = fixture();
    let ctx = admin();
    let (uc, ms) = (&f.uc, &f.ms);
    uc.create_table(&ctx, ms, TableSpec::managed("main.sales.base", table_schema()).unwrap()).unwrap();
    let base = FullName::parse("main.sales.base").unwrap();
    let long = "x".repeat(256);
    let rows = || {
        let rt = uc.db().begin_read();
        [keys::T_TREE, keys::T_ENTITY, keys::T_TRASH, keys::T_PATH].map(|t| rt.scan_prefix(t, "").len())
    };
    let allows = || uc.audit_log().query(|r| r.decision == uc_catalog::audit::AuditDecision::Allow).len();
    let before = (rows(), allows());
    for leaf in ["has space", "9lives", "", long.as_str()] {
        let name = FullName::of(&["main", "sales", leaf]);
        let spec = TableSpec { name: name.clone(), ..TableSpec::managed("main.sales.ok", table_schema()).unwrap() };
        let results = [
            ("create_table", uc.create_table(&ctx, ms, spec)),
            ("create_shallow_clone", uc.create_shallow_clone(&ctx, ms, &name, &base, 0)),
            ("create_view", uc.create_view(&ctx, ms, &name, "SELECT 1", table_schema(), &[])),
            ("create_volume", uc.create_volume(&ctx, ms, &name, None)),
            ("create_function", uc.create_function(&ctx, ms, &name, "1")),
            ("create_registered_model", uc.create_registered_model(&ctx, ms, &name)),
        ];
        for (op, r) in results {
            assert!(matches!(r, Err(UcError::InvalidArgument(_))), "{op}({leaf:?}): {r:?}");
        }
    }
    assert_eq!((rows(), allows()), before, "nothing written, nothing allowed");
}

#[test]
fn ownership_transfers_only_where_the_manifest_lists_owner() {
    let f = fixture();
    let ctx = admin();
    let model = FullName::parse("main.sales.m").unwrap();
    f.uc.create_registered_model(&ctx, &f.ms, &model).unwrap();
    f.uc.create_model_version(&ctx, &f.ms, &model).unwrap();
    let version = FullName::parse("main.sales.m.v1").unwrap();
    let err = f.uc.transfer_ownership(&ctx, &f.ms, &version, "modelversion", "bob").unwrap_err();
    assert!(matches!(err, UcError::UnsupportedOperation(_)), "{err}");
    let moved = f.uc.transfer_ownership(&ctx, &f.ms, &model, "model", "bob").unwrap();
    assert_eq!(moved.owner, "bob");
}
