//! Cross-crate lifecycle integration: the full life of assets and
//! queries — engine + catalog + delta + cloudstore + txdb together.

use std::time::Duration;

use uc_bench::{World, WorldConfig, ADMIN};
use uc_catalog::service::{Context, UcConfig, UnityCatalog, CRED_TTL_MS};
use uc_catalog::types::FullName;
use uc_cloudstore::{AccessLevel, Clock, Credential, LatencyModel, ObjectStore, StoragePath, StsService};
use uc_delta::value::Value;
use uc_engine::{Engine, EngineConfig};
use uc_txdb::Db;

#[test]
fn predictive_optimization_flow() {
    // The Fig 10(c) mechanism at test scale: a fragmented table is slow
    // for selective queries; OPTIMIZE + VACUUM fix latency and storage.
    let world = World::build(&WorldConfig {
        storage_latency: Duration::from_micros(300),
        ..Default::default()
    });
    let engine = Engine::new(world.uc.clone(), world.ms.clone(), EngineConfig::trusted("dbr"));
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
    // 60 fragments of 10 rows
    for base in 0..60 {
        let vals: Vec<String> = (base * 10..(base + 1) * 10).map(|v| format!("({v})")).collect();
        s.execute(&format!("INSERT INTO main.s.t VALUES {}", vals.join(","))).unwrap();
    }
    let selective = "SELECT * FROM main.s.t WHERE x >= 100 AND x < 130";
    let before = s.execute(selective).unwrap();
    assert_eq!(before.rows.len(), 30);
    assert!(before.files_scanned >= 3);

    // data-file bytes only (the log is metadata, not reclaimable garbage)
    let data_bytes = || {
        let ent = world.uc.get_table(&world.admin(), &world.ms, "main.s.t").unwrap();
        let path = StoragePath::parse(ent.storage_path.as_ref().unwrap()).unwrap();
        let tok = world
            .uc
            .temp_credentials(&world.admin(), &world.ms, &FullName::parse("main.s.t").unwrap(), "relation", AccessLevel::Read)
            .unwrap();
        world
            .store
            .list(&Credential::Temp(tok), &path)
            .unwrap()
            .iter()
            .filter(|m| !m.path.key().contains("_delta_log"))
            .map(|m| m.size)
            .sum::<usize>()
    };

    s.execute("OPTIMIZE main.s.t").unwrap();
    let after = s.execute(selective).unwrap();
    assert_eq!(after.rows.len(), 30);
    assert_eq!(after.files_scanned, 1, "one compacted file");
    assert!(after.files_scanned < before.files_scanned);

    // after OPTIMIZE the garbage (old fragments) still occupies storage
    let physical_with_garbage = data_bytes();
    s.execute("VACUUM main.s.t").unwrap();
    let physical_clean = data_bytes();
    assert!(
        physical_with_garbage as f64 > 1.5 * physical_clean as f64,
        "vacuum reclaims ~half the storage: {physical_with_garbage} -> {physical_clean}"
    );
}

#[test]
fn volumes_store_unstructured_data_under_governance() {
    let world = World::build(&WorldConfig::default());
    let uc = &world.uc;
    let ctx = world.admin();
    let engine = Engine::new(uc.clone(), world.ms.clone(), EngineConfig::trusted("dbr"));
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG media").unwrap();
    s.execute("CREATE SCHEMA media.raw").unwrap();
    s.execute("CREATE VOLUME media.raw.images").unwrap();

    let vol = uc
        .get_securable(&ctx, &world.ms, &FullName::parse("media.raw.images").unwrap(), "volume")
        .unwrap();
    let root = StoragePath::parse(vol.storage_path.as_ref().unwrap()).unwrap();

    // admin uploads files through a vended token
    let rw = uc
        .temp_credentials(&ctx, &world.ms, &FullName::parse("media.raw.images").unwrap(), "volume", AccessLevel::ReadWrite)
        .unwrap();
    let cred = Credential::Temp(rw);
    for f in ["cat.png", "dog.png", "fish.png"] {
        world.store.put(&cred, &root.child(f), bytes::Bytes::from_static(b"\x89PNG...")).unwrap();
    }

    // a reader with READ_VOLUME can list and fetch, but not write
    uc.grant(&ctx, &world.ms, &FullName::parse("media").unwrap(), "catalog", "reader", uc_catalog::authz::Privilege::UseCatalog).unwrap();
    uc.grant(&ctx, &world.ms, &FullName::parse("media.raw").unwrap(), "schema", "reader", uc_catalog::authz::Privilege::UseSchema).unwrap();
    uc.grant(&ctx, &world.ms, &FullName::parse("media.raw.images").unwrap(), "volume", "reader", uc_catalog::authz::Privilege::ReadVolume).unwrap();
    let reader = Context::user("reader");
    let ro = uc
        .temp_credentials(&reader, &world.ms, &FullName::parse("media.raw.images").unwrap(), "volume", AccessLevel::Read)
        .unwrap();
    let ro_cred = Credential::Temp(ro);
    assert_eq!(world.store.list(&ro_cred, &root).unwrap().len(), 3);
    assert!(world.store.put(&ro_cred, &root.child("new.png"), bytes::Bytes::new()).is_err());
    assert!(uc
        .temp_credentials(&reader, &world.ms, &FullName::parse("media.raw.images").unwrap(), "volume", AccessLevel::ReadWrite)
        .is_err());
}

#[test]
fn token_expiry_mid_scan_forces_revend() {
    // Failure injection: an engine holds a token across a long scan; the
    // token expires; storage rejects it; re-vending restores access. The
    // clock is manual, so the scan outlives the token's TTL instantly.
    let clock = Clock::manual(0);
    let store = ObjectStore::new(StsService::new(clock.clone()), LatencyModel::zero());
    let uc = UnityCatalog::new(Db::in_memory(), store.clone(), UcConfig::default(), "node-0");
    let ctx = Context::user(ADMIN);
    let ms = uc.create_metastore(ADMIN, "expiry", "us-west-2").unwrap();
    let bucket = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &bucket).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
    let engine = Engine::new(uc.clone(), ms.clone(), EngineConfig::trusted("dbr"));
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
    s.execute("INSERT INTO main.s.t VALUES (1)").unwrap();

    let name = FullName::parse("main.s.t").unwrap();
    let tok = uc.temp_credentials(&ctx, &ms, &name, "relation", AccessLevel::Read).unwrap();
    let ent = uc.get_table(&ctx, &ms, "main.s.t").unwrap();
    let path = StoragePath::parse(ent.storage_path.as_ref().unwrap()).unwrap();
    assert!(store.list(&Credential::Temp(tok.clone()), &path).is_ok());

    clock.advance_ms(CRED_TTL_MS + 1);
    let err = store.list(&Credential::Temp(tok), &path).unwrap_err();
    assert!(matches!(err, uc_cloudstore::StorageError::ExpiredCredential { .. }));

    // re-vend and continue
    let fresh = uc.temp_credentials(&ctx, &ms, &name, "relation", AccessLevel::Read).unwrap();
    assert!(store.list(&Credential::Temp(fresh), &path).is_ok());
}

#[test]
fn drop_and_recreate_reuses_name_and_storage_is_gced() {
    let world = World::build(&WorldConfig::default());
    let engine = Engine::new(world.uc.clone(), world.ms.clone(), EngineConfig::trusted("dbr"));
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    for round in 0..3 {
        s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
        s.execute(&format!("INSERT INTO main.s.t VALUES ({round})")).unwrap();
        let res = s.execute("SELECT * FROM main.s.t").unwrap();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(res.rows[0][0], Value::Int(round));
        s.execute("DROP TABLE main.s.t").unwrap();
        let (purged, _objects) = world.uc.purge_soft_deleted(&world.ms).unwrap();
        assert_eq!(purged, 1);
    }
}

#[test]
fn information_schema_reflects_live_metadata() {
    use uc_catalog::service::discovery_api::MetaFilter;
    use uc_catalog::types::SecurableKind;
    let world = World::build(&WorldConfig::default());
    let engine = Engine::new(world.uc.clone(), world.ms.clone(), EngineConfig::trusted("dbr"));
    let mut s = engine.session(ADMIN);
    s.execute("CREATE CATALOG main").unwrap();
    s.execute("CREATE SCHEMA main.s").unwrap();
    for i in 0..5 {
        s.execute(&format!("CREATE TABLE main.s.t{i} (x BIGINT)")).unwrap();
    }
    s.execute("CREATE VIEW main.s.v AS SELECT x FROM main.s.t0").unwrap();
    let tables = world
        .uc
        .query_entities(&world.admin(), &world.ms, &[MetaFilter::KindIs(SecurableKind::Table)], 100)
        .unwrap();
    assert_eq!(tables.len(), 5);
    let delta_tables = world
        .uc
        .query_entities(
            &world.admin(),
            &world.ms,
            &[
                MetaFilter::KindIs(SecurableKind::Table),
                MetaFilter::PropEquals("format".into(), "DELTA".into()),
            ],
            100,
        )
        .unwrap();
    assert_eq!(delta_tables.len(), 5);
    let views = world
        .uc
        .query_entities(&world.admin(), &world.ms, &[MetaFilter::KindIs(SecurableKind::View)], 100)
        .unwrap();
    assert_eq!(views.len(), 1);
}
