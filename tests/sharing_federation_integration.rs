//! Cross-crate openness tests: sharing + UniForm consumed by a real
//! reader, federation keeping mirrors fresh, and engine interop over
//! shares.

use uc_bench::{World, WorldConfig, ADMIN};
use uc_catalog::authz::Privilege;
use uc_catalog::model::keys;
use uc_catalog::UcError;
use uc_catalog::service::Context;
use uc_catalog::types::FullName;
use uc_cloudstore::{Credential, StoragePath};
use uc_delta::value::{DataType, Field, Schema, Value};
use uc_engine::{Engine, EngineConfig};
use uc_hms::{HiveMetastore, HmsConnector, HmsDatabase, HmsTable};

fn hms_with(db: &str, tables: &[(&str, &str)]) -> HiveMetastore {
    let hms = HiveMetastore::in_memory();
    hms.create_database(&HmsDatabase { name: db.into(), description: None, location: None })
        .unwrap();
    for (name, loc) in tables {
        hms.create_table(&HmsTable {
            db: db.into(),
            name: (*name).into(),
            columns: Schema::new(vec![Field::new("id", DataType::Int)]),
            location: Some((*loc).into()),
            table_type: "EXTERNAL_TABLE".into(),
            format: "PARQUET".into(),
        })
        .unwrap();
    }
    hms
}

#[test]
fn iceberg_reader_consumes_shared_delta_table() {
    // An "Iceberg-only client": reads UniForm metadata, fetches the
    // manifest's files directly, decodes rows — never touching the Delta
    // log.
    let world = World::build(&WorldConfig::default());
    let engine = Engine::new(world.uc.clone(), world.ms.clone(), EngineConfig::trusted("dbr"));
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG a").unwrap();
    s.execute("CREATE SCHEMA a.b").unwrap();
    s.execute("CREATE TABLE a.b.t (x BIGINT, y STRING)").unwrap();
    s.execute("INSERT INTO a.b.t VALUES (1, 'one'), (2, 'two')").unwrap();
    s.execute("INSERT INTO a.b.t VALUES (3, 'three')").unwrap();

    let ctx = world.admin();
    world.uc.create_share(&ctx, &world.ms, "xshare").unwrap();
    world
        .uc
        .add_table_to_share(&ctx, &world.ms, "xshare", &FullName::parse("a.b.t").unwrap())
        .unwrap();
    world
        .uc
        .grant(&ctx, &world.ms, &FullName::parse("xshare").unwrap(), "share", "iceberg_client", Privilege::Select)
        .unwrap();

    let client = Context::user("iceberg_client");
    let meta = world
        .uc
        .query_share_table_as_iceberg(&client, &world.ms, "xshare", "b.t")
        .unwrap();
    // token comes from the Delta-protocol response; same files
    let resp = world.uc.query_share_table(&client, &world.ms, "xshare", "b.t").unwrap();
    let cred = Credential::Temp(resp.credential);
    let mut rows = Vec::new();
    for entry in &meta.snapshots[0].manifest.entries {
        let path = StoragePath::parse(&entry.file_path).unwrap();
        let data = world.store.get(&cred, &path).unwrap();
        rows.extend(uc_delta::datafile::decode_rows(&data).unwrap());
    }
    assert_eq!(rows.len(), 3);
    assert!(rows.contains(&vec![Value::Int(2), Value::Str("two".into())]));
    // schema translated
    assert_eq!(meta.schemas[0].fields[0].field_type, "long");
    assert_eq!(meta.schemas[0].fields[1].field_type, "string");
}

#[test]
fn a_share_member_row_that_does_not_decode_fails_the_share_read() {
    let world = World::build(&WorldConfig::default());
    let engine = Engine::new(world.uc.clone(), world.ms.clone(), EngineConfig::trusted("dbr"));
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG a").unwrap();
    s.execute("CREATE SCHEMA a.b").unwrap();
    s.execute("CREATE TABLE a.b.t (x BIGINT)").unwrap();
    let ctx = world.admin();
    let share = world.uc.create_share(&ctx, &world.ms, "sh").unwrap();
    world
        .uc
        .add_table_to_share(&ctx, &world.ms, "sh", &FullName::parse("a.b.t").unwrap())
        .unwrap();
    assert_eq!(world.uc.list_share_tables(&ctx, &world.ms, "sh").unwrap().len(), 1);

    let garbage = format!("{}garbage", keys::share_members_prefix(&world.ms, &share.id));
    let mut tx = world.uc.db().begin_write();
    tx.put(keys::T_SHAREMEM, &garbage, bytes::Bytes::from_static(b"not a member"));
    tx.commit().unwrap();
    // The corrupt member fails the read instead of silently leaving the
    // share, even for a lookup of the good member.
    let listed = world.uc.list_share_tables(&ctx, &world.ms, "sh");
    assert!(matches!(listed, Err(UcError::Database(_))), "{listed:?}");
    let queried = world.uc.query_share_table(&ctx, &world.ms, "sh", "b.t");
    assert!(matches!(queried, Err(UcError::Database(_))), "{:?}", queried.err());
}

#[test]
fn share_updates_are_visible_on_next_query() {
    let world = World::build(&WorldConfig::default());
    let engine = Engine::new(world.uc.clone(), world.ms.clone(), EngineConfig::trusted("dbr"));
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG a").unwrap();
    s.execute("CREATE SCHEMA a.b").unwrap();
    s.execute("CREATE TABLE a.b.t (x BIGINT)").unwrap();
    s.execute("INSERT INTO a.b.t VALUES (1)").unwrap();
    let ctx = world.admin();
    world.uc.create_share(&ctx, &world.ms, "live").unwrap();
    world
        .uc
        .add_table_to_share(&ctx, &world.ms, "live", &FullName::parse("a.b.t").unwrap())
        .unwrap();
    world
        .uc
        .grant(&ctx, &world.ms, &FullName::parse("live").unwrap(), "share", "r", Privilege::Select)
        .unwrap();
    let r = Context::user("r");
    let v1 = world.uc.query_share_table(&r, &world.ms, "live", "b.t").unwrap();
    assert_eq!(v1.version, 1);
    assert_eq!(v1.files.len(), 1);
    s.execute("INSERT INTO a.b.t VALUES (2)").unwrap();
    let v2 = world.uc.query_share_table(&r, &world.ms, "live", "b.t").unwrap();
    assert_eq!(v2.version, 2);
    assert_eq!(v2.files.len(), 2, "recipients see the provider's commits without copies");
}

#[test]
fn federation_mirror_refreshes_and_survives_foreign_outage() {
    let world = World::build(&WorldConfig::default());
    let ctx = world.admin();
    let hms = hms_with("legacy", &[("t1", "s3://legacy/t1")]);
    world.uc.create_connection(&ctx, &world.ms, "conn", "thrift://hms").unwrap();
    world.uc.create_federated_catalog(&ctx, &world.ms, "fed", "conn").unwrap();
    let connector = HmsConnector { hms: hms.clone() };

    // first access mirrors
    let first = world
        .uc
        .federated_get_table(&ctx, &world.ms, "fed", "legacy", "t1", &connector)
        .unwrap();
    assert_eq!(first.table_schema().unwrap().fields.len(), 1);

    // foreign side evolves (schema change) → next access refreshes
    let mut altered = hms.get_table("legacy", "t1").unwrap();
    altered.columns = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("added", DataType::Str),
    ]);
    hms.alter_table(&altered).unwrap();
    let refreshed = world
        .uc
        .federated_get_table(&ctx, &world.ms, "fed", "legacy", "t1", &connector)
        .unwrap();
    assert_eq!(refreshed.table_schema().unwrap().fields.len(), 2);
    assert_eq!(refreshed.id, first.id, "same mirrored entity, updated in place");

    // foreign table dropped → stale mirror still serves (documented
    // staleness trade-off), with the mirror's last schema
    hms.drop_table("legacy", "t1").unwrap();
    let stale = world
        .uc
        .federated_get_table(&ctx, &world.ms, "fed", "legacy", "t1", &connector)
        .unwrap();
    assert_eq!(stale.table_schema().unwrap().fields.len(), 2);

    // a table that never existed anywhere fails cleanly
    assert!(world
        .uc
        .federated_get_table(&ctx, &world.ms, "fed", "legacy", "ghost", &connector)
        .is_err());
}

#[test]
fn federated_tables_are_governed_like_native_ones() {
    let world = World::build(&WorldConfig::default());
    let ctx = world.admin();
    let hms = hms_with("legacy", &[("secrets", "s3://legacy/secrets")]);
    world.uc.create_connection(&ctx, &world.ms, "conn", "thrift://hms").unwrap();
    world.uc.create_federated_catalog(&ctx, &world.ms, "fed", "conn").unwrap();
    let connector = HmsConnector { hms };
    world
        .uc
        .federated_get_table(&ctx, &world.ms, "fed", "legacy", "secrets", &connector)
        .unwrap();

    // an unprivileged user cannot even see the mirrored table
    let nobody = Context::user("nobody");
    assert!(world.uc.get_table(&nobody, &world.ms, "fed.legacy.secrets").is_err());

    // grants work identically on federated assets
    world
        .uc
        .grant_read_path(&ctx, &world.ms, "fed.legacy.secrets", "partneruser")
        .unwrap();
    let partner = Context::user("partneruser");
    assert!(world.uc.get_table(&partner, &world.ms, "fed.legacy.secrets").is_ok());

    // and mirroring requires authority on the federated catalog
    let connector2 = HmsConnector { hms: hms_with("legacy", &[("x", "s3://legacy/x")]) };
    assert!(world
        .uc
        .federated_get_table(&partner, &world.ms, "fed", "legacy", "x", &connector2)
        .is_err());
}
