//! Figure 10(a): end-to-end TPC-H / TPC-DS query latency with Unity
//! Catalog vs a local Hive Metastore.
//!
//! Paper's setup: UC as a *remote* service with governance enabled and
//! the §4.5 optimizations on, vs HMS in its fastest "local metastore"
//! configuration (direct JDBC to the database, no service hop, no
//! governance). Both share the same database model. Paper's result: no
//! statistical difference, despite UC's handicap and extra work.
//!
//! Per query, each client does exactly what its engine would:
//!   UC : one batched resolve (authorization + metadata + credentials)
//!        then scans every referenced table with vended tokens;
//!   HMS: one get_table per referenced table (direct DB), then scans with
//!        credentials the client already holds (no vending, no checks).

use std::time::Duration;

use uc_bench::{mean_std_ms, print_table, World, WorldConfig, ADMIN};
use uc_catalog::service::crud::TableSpec;
use uc_catalog::types::FullName;
use uc_cloudstore::Credential;
use uc_delta::expr::EvalContext;
use uc_delta::value::Value;
use uc_delta::DeltaTable;
use uc_hms::{HiveMetastore, HmsDatabase, HmsTable};
use uc_txdb::{Db, DbConfig};
use uc_workload::tpc::{tpcds_queries, tpcds_tables, tpch_queries, tpch_tables, BenchQuery, BenchTable};

const ROWS_PER_TABLE: usize = 40;
const REPS: usize = 5;

struct Setup {
    world: World,
    hms: HiveMetastore,
}

/// Create the benchmark tables in UC (managed Delta + data), and register
/// the same locations in an HMS over an identically-configured database.
fn setup(tables: &[BenchTable], catalog: &str) -> Setup {
    let world = World::build(&WorldConfig {
        db_pool: 16,
        db_latency: Duration::from_millis(1),
        api_latency: Duration::from_micros(500), // UC is remote
        storage_latency: Duration::from_micros(200),
        ..Default::default()
    });
    let ctx = world.admin();
    world.uc.create_catalog(&ctx, &world.ms, catalog).unwrap();
    world.uc.create_schema(&ctx, &world.ms, catalog, "bench").unwrap();
    let hms_db = Db::new(DbConfig {
        pool_size: 16,
        latency: uc_cloudstore::LatencyModel::uniform(Duration::from_millis(1)),
        ..Default::default()
    });
    let hms = HiveMetastore::new(hms_db);
    hms.create_database(&HmsDatabase { name: "bench".into(), description: None, location: None })
        .unwrap();

    for t in tables {
        let name = format!("{catalog}.bench.{}", t.name);
        let ent = world
            .uc
            .create_table(&ctx, &world.ms, TableSpec::managed(&name, t.schema.clone()).unwrap())
            .unwrap();
        // engine-style physical init + data load with vended credentials
        let rw = world
            .uc
            .temp_credentials(&ctx, &world.ms, &FullName::parse(&name).unwrap(), "relation", uc_cloudstore::AccessLevel::ReadWrite)
            .unwrap();
        let path = uc_cloudstore::StoragePath::parse(ent.storage_path.as_ref().unwrap()).unwrap();
        let table = DeltaTable::create(
            world.store.clone(),
            path,
            &Credential::Temp(rw.clone()),
            ent.id.as_str(),
            t.schema.clone(),
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..ROWS_PER_TABLE)
            .map(|i| {
                t.schema
                    .fields
                    .iter()
                    .map(|f| match f.data_type {
                        uc_delta::value::DataType::Int => Value::Int(i as i64),
                        uc_delta::value::DataType::Float => Value::Float(i as f64),
                        uc_delta::value::DataType::Str => Value::Str(format!("v{i}")),
                        uc_delta::value::DataType::Bool => Value::Bool(i % 2 == 0),
                    })
                    .collect()
            })
            .collect();
        table.append(&Credential::Temp(rw), &rows).unwrap();
        // register the same table + location in HMS
        hms.create_table(&HmsTable {
            db: "bench".into(),
            name: t.name.to_string(),
            columns: t.schema.clone(),
            location: ent.storage_path.clone(),
            table_type: "MANAGED_TABLE".into(),
            format: "DELTA".into(),
        })
        .unwrap();
    }
    Setup { world, hms }
}

/// The figure compares two metadata paths in front of the *same* cold
/// scans. Both sides read the same tables through the same store, so
/// without this the UC query would decode the files and the HMS query
/// after it would find them in the node-local cache (and vice versa).
fn drop_table_cache(setup: &Setup) {
    uc_delta::TableCache::of(&setup.world.store).clear();
}

/// One query through UC: batched resolve + scans with vended tokens.
fn run_query_uc(setup: &Setup, catalog: &str, q: &BenchQuery) -> Duration {
    let ctx = uc_catalog::service::Context::trusted(ADMIN, "dbr");
    let refs: Vec<FullName> = q
        .tables
        .iter()
        .map(|t| FullName::parse(&format!("{catalog}.bench.{t}")).unwrap())
        .collect();
    drop_table_cache(setup);
    let t0 = uc_bench::Stopwatch::start();
    let resolved = setup
        .world
        .uc
        .resolve_for_query(&ctx, &setup.world.ms, &refs, true)
        .unwrap();
    for r in &resolved {
        let cred = Credential::Temp(r.read_credential.clone().unwrap());
        let path = uc_cloudstore::StoragePath::parse(r.entity.storage_path.as_ref().unwrap()).unwrap();
        let table = DeltaTable::open(setup.world.store.clone(), path);
        let (rows, _) = table.scan(&cred, None, &EvalContext::anonymous()).unwrap();
        assert_eq!(rows.len(), ROWS_PER_TABLE);
    }
    t0.elapsed()
}

/// One query through local HMS: per-table metadata reads + direct scans.
fn run_query_hms(setup: &Setup, q: &BenchQuery, root: &Credential) -> Duration {
    drop_table_cache(setup);
    let t0 = uc_bench::Stopwatch::start();
    for t in &q.tables {
        let meta = setup.hms.get_table("bench", t).unwrap();
        let path = uc_cloudstore::StoragePath::parse(meta.location.as_ref().unwrap()).unwrap();
        let table = DeltaTable::open(setup.world.store.clone(), path);
        let (rows, _) = table.scan(root, None, &EvalContext::anonymous()).unwrap();
        assert_eq!(rows.len(), ROWS_PER_TABLE);
    }
    t0.elapsed()
}

fn bench_suite(name: &str, tables: Vec<BenchTable>, queries: Vec<BenchQuery>) -> Vec<String> {
    let catalog = "tpc";
    let setup = setup(&tables, catalog);
    // HMS-era clients hold long-lived bucket credentials of their own and
    // go straight to storage — exactly the ungoverned pattern the paper
    // contrasts. (`create_bucket` on an existing bucket registers and
    // returns an additional root credential.)
    let lake_cred = Credential::Root(setup.world.store.create_bucket("lake"));

    // warmup (populates UC caches: the steady state the paper measures)
    for q in queries.iter().take(4) {
        run_query_uc(&setup, catalog, q);
        run_query_hms(&setup, q, &lake_cred);
    }
    let mut uc_lat = Vec::new();
    let mut hms_lat = Vec::new();
    for _ in 0..REPS {
        for q in &queries {
            uc_lat.push(run_query_uc(&setup, catalog, q));
            hms_lat.push(run_query_hms(&setup, q, &lake_cred));
        }
    }
    let (uc_mean, uc_std) = mean_std_ms(&uc_lat);
    let (hms_mean, hms_std) = mean_std_ms(&hms_lat);
    println!(
        "{name}: UC {uc_mean:.2}±{uc_std:.2} ms, HMS-local {hms_mean:.2}±{hms_std:.2} ms, \
         ratio {:.2}",
        uc_mean / hms_mean
    );
    vec![
        name.to_string(),
        format!("{uc_mean:.2} ± {uc_std:.2}"),
        format!("{hms_mean:.2} ± {hms_std:.2}"),
        format!("{:.2}", uc_mean / hms_mean),
    ]
}

fn main() {
    println!("running TPC metadata+scan workloads (UC remote+governed vs HMS local)…");
    let row_h = bench_suite("TPC-H (22 queries)", tpch_tables(), tpch_queries());
    let row_ds = bench_suite("TPC-DS (99 queries)", tpcds_tables(), tpcds_queries());
    print_table(
        "Fig 10(a) — per-query latency (ms)",
        &["workload", "Unity Catalog", "HMS (local)", "UC/HMS"],
        &[row_h.clone(), row_ds.clone()],
    );
    let ratio_h: f64 = row_h[3].parse().unwrap();
    let ratio_ds: f64 = row_ds[3].parse().unwrap();
    println!(
        "\npaper: no statistical difference between UC and HMS despite UC being\n\
         remote and doing governance + credential vending.\n\
         measured ratios: TPC-H {ratio_h:.2}, TPC-DS {ratio_ds:.2}"
    );
    assert!(ratio_h < 1.6 && ratio_ds < 1.6, "UC must stay competitive");
}
