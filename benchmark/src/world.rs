//! World construction: database + object store + one catalog node, and
//! the namespace, data and grants each workload runs against.
//!
//! No latency is injected anywhere (db, store, api, STS mint): the
//! repository's `spin_sleep` would otherwise turn wall time into
//! round-trips × a constant and hide the program's own CPU work. What a
//! remote database would charge is reported as a count (`db_rtt_per_op`).

use std::sync::Arc;
use std::time::Instant;

use uc_catalog::authz::fgac::{ColumnMaskPolicy, RowFilterPolicy};
use uc_catalog::authz::Privilege;
use uc_catalog::cache::CacheConfig;
use uc_catalog::service::crud::{BulkSchemaSpec, TableSpec};
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::types::FullName;
use uc_catalog::Uid;
use uc_cloudstore::{Clock, LatencyModel, ObjectStore, RootCredential, StsService};
use uc_delta::expr::{CmpOp, Expr};
use uc_delta::value::{DataType, Field, Schema, Value};
use uc_engine::{Engine, EngineConfig};
use uc_obs::Obs;
use uc_txdb::{Db, DbConfig};

use crate::gen::{self, Sizes, Workload, CATALOG, GROUP};

pub const ENGINE_NAME: &str = "bench-engine";
/// Closed-loop clients a world is laid out for.
pub const MAX_CLIENTS: usize = 2;

pub struct World {
    pub workload: Workload,
    pub sizes: Sizes,
    pub db: Db,
    pub store: ObjectStore,
    pub uc: Arc<UnityCatalog>,
    /// One metastore; on write_mix one per client and round, client-major
    /// (writes to a metastore are serialized: two writers on one starve
    /// the longer transaction, see README).
    pub metastores: Vec<Uid>,
    /// Root credential of each metastore's bucket (for the STS probe).
    pub roots: Vec<RootCredential>,
    /// Entity id and storage path of each static table, recorded at
    /// set-up; replies are checked against them.
    pub ids: Vec<String>,
    pub paths: Vec<String>,
    /// Seconds spent creating the namespace and loading data (part of
    /// set-up, reported as `workload.populate_s`).
    pub populate_s: f64,
}

fn admin() -> Context {
    Context::user(&gen::principal_name(gen::ADMIN))
}

fn table_columns() -> Schema {
    Schema::new(vec![
        Field {
            name: "id".into(),
            data_type: DataType::Int,
            nullable: true,
        },
        Field {
            name: "amount".into(),
            data_type: DataType::Int,
            nullable: true,
        },
    ])
}

impl World {
    pub fn build(workload: Workload, sizes: &Sizes) -> World {
        let obs = Obs::disabled(); // live metrics, inert tracing: the production-shaped default
        let db = Db::new(DbConfig {
            obs: obs.clone(),
            ..Default::default()
        });
        let store = ObjectStore::new(
            StsService::new(Clock::system()).with_obs(obs.clone()),
            LatencyModel::zero(),
        )
        .with_obs(obs.clone());
        let uc = UnityCatalog::new(
            db.clone(),
            store.clone(),
            UcConfig {
                cache: CacheConfig {
                    max_entries: sizes.cache_entries,
                    ..Default::default()
                },
                obs,
                ..Default::default()
            },
            "node-0",
        );
        let mut world = World {
            workload,
            sizes: sizes.clone(),
            db,
            store,
            uc,
            metastores: Vec::new(),
            roots: Vec::new(),
            ids: Vec::new(),
            paths: Vec::new(),
            populate_s: 0.0,
        };
        let t0 = Instant::now();
        let metastores = match world.rounds_per_client() {
            0 => 1,
            rounds => MAX_CLIENTS * rounds,
        };
        for m in 0..metastores {
            world.add_metastore(m);
        }
        for u in 0..gen::USERS as u8 {
            world
                .uc
                .upsert_principal(&gen::principal_name(u), &[GROUP])
                .expect("upsert principal");
        }
        match workload {
            Workload::QueryHot => world.populate_query_hot(),
            Workload::MetaHot => world.populate_meta_hot(),
            Workload::MetaCold => world.populate_meta_cold(),
            Workload::WriteMix => world.populate_write_mix(),
        }
        world.populate_s = t0.elapsed().as_secs_f64();
        world.warm_up();
        world
    }

    /// Metastores each write_mix client owns, one per round: the lead-in
    /// round, then the timed ones. 0 elsewhere: every client shares one.
    fn rounds_per_client(&self) -> usize {
        match self.sizes.rounds() {
            0 => 0,
            timed => timed + 1,
        }
    }

    pub fn metastores_of(&self, client: usize) -> &[Uid] {
        match self.rounds_per_client() {
            0 => &self.metastores[..1],
            rounds => &self.metastores[client * rounds..][..rounds],
        }
    }

    fn add_metastore(&mut self, m: usize) {
        let uc = &self.uc;
        let ms = uc
            .create_metastore(
                &gen::principal_name(gen::ADMIN),
                &format!("bench{m}"),
                "us-west-2",
            )
            .expect("create metastore");
        let bucket = format!("lake{m}");
        let root = self.store.create_bucket(&bucket);
        uc.create_storage_credential(&admin(), &ms, "lake_cred", &root)
            .expect("storage credential");
        uc.set_metastore_root(&admin(), &ms, &format!("s3://{bucket}/managed"))
            .expect("metastore root");
        uc.create_catalog(&admin(), &ms, CATALOG)
            .expect("create catalog");
        self.metastores.push(ms);
        self.roots.push(root);
    }

    fn grant(&self, ms: &Uid, securable: &str, group: &str, privilege: Privilege) {
        let name = FullName::parse(securable).expect("securable name");
        self.uc
            .grant(&admin(), ms, &name, group, GROUP, privilege)
            .expect("grant");
    }

    /// Schemas with USE_SCHEMA + SELECT granted to the group on each, and
    /// USE_CATALOG on the catalog: access comes from group grants on the
    /// schema.
    fn create_schemas_with_group_grants(&self) {
        let ms = &self.metastores[0];
        self.grant(ms, CATALOG, "catalog", Privilege::UseCatalog);
        for s in 0..self.sizes.schemas {
            self.uc
                .create_schema(&admin(), ms, CATALOG, &gen::schema_name(s))
                .expect("create schema");
            self.grant(
                ms,
                &gen::schema_full_name(s),
                "schema",
                Privilege::UseSchema,
            );
            self.grant(ms, &gen::schema_full_name(s), "schema", Privilege::Select);
        }
    }

    fn record(&mut self, entity: &uc_catalog::Entity) {
        self.ids.push(entity.id.as_str().to_string());
        self.paths
            .push(entity.storage_path.clone().unwrap_or_default());
    }

    /// 256 Delta tables loaded through the engine (4 INSERT commits × 32
    /// rows), 32 views, 32 tables with a row filter and a column mask.
    fn populate_query_hot(&mut self) {
        self.create_schemas_with_group_grants();
        let ms = self.metastores[0].clone();
        let sizes = self.sizes.clone();
        let engine = Engine::new(
            self.uc.clone(),
            ms.clone(),
            EngineConfig::trusted(ENGINE_NAME),
        );
        let mut session = engine.session(&gen::principal_name(gen::ADMIN));
        for t in 0..sizes.tables() {
            let name = gen::table_full_name(&sizes, t);
            session
                .execute(&format!(
                    "CREATE TABLE {name} (id BIGINT, grp BIGINT, owner STRING, amount BIGINT)"
                ))
                .expect("create table");
            for c in 0..sizes.commits {
                let values: Vec<String> = (c * sizes.rows_per_commit
                    ..(c + 1) * sizes.rows_per_commit)
                    .map(|j| {
                        let r = gen::data_row(t, j);
                        format!(
                            "({}, {}, '{}', {})",
                            r.id,
                            r.grp,
                            gen::principal_name(r.owner),
                            r.amount
                        )
                    })
                    .collect();
                session
                    .execute(&format!("INSERT INTO {name} VALUES {}", values.join(", ")))
                    .expect("insert");
            }
        }
        for v in 0..sizes.views {
            let base = gen::table_full_name(&sizes, gen::view_base(&sizes, v));
            session
                .execute(&format!(
                    "CREATE VIEW {} AS SELECT id, grp, owner, amount FROM {base} WHERE grp < {}",
                    gen::view_full_name(&sizes, v),
                    gen::VIEW_GRP_BELOW
                ))
                .expect("create view");
        }
        for t in sizes.tables() - sizes.fgac..sizes.tables() {
            let name = FullName::parse(&gen::table_full_name(&sizes, t)).expect("table name");
            let filter = RowFilterPolicy {
                expr: Expr::Cmp {
                    op: CmpOp::Eq,
                    lhs: Box::new(Expr::Column("owner".into())),
                    rhs: Box::new(Expr::CurrentUser),
                },
            };
            self.uc
                .set_row_filter(&admin(), &ms, &name, filter)
                .expect("row filter");
            let mask = ColumnMaskPolicy {
                column: "amount".into(),
                mask: Expr::Literal(Value::Int(gen::MASKED_AMOUNT)),
                exempt_when: None,
            };
            self.uc
                .set_column_mask(&admin(), &ms, &name, mask)
                .expect("column mask");
        }
        for t in 0..sizes.tables() {
            let e = self
                .uc
                .get_table(&admin(), &ms, &gen::table_full_name(&sizes, t))
                .expect("get table");
            self.record(&e);
        }
    }

    /// 2 000 managed tables (metadata only: a storage path, no data).
    fn populate_meta_hot(&mut self) {
        self.create_schemas_with_group_grants();
        let ms = self.metastores[0].clone();
        for t in 0..self.sizes.tables() {
            let spec = TableSpec::managed(&gen::table_full_name(&self.sizes, t), table_columns())
                .expect("table spec");
            let e = self
                .uc
                .create_table(&admin(), &ms, spec)
                .expect("create table");
            self.record(&e);
        }
    }

    /// 100 000 tables bulk-loaded; the group's grants sit on the catalog.
    fn populate_meta_cold(&mut self) {
        let ms = self.metastores[0].clone();
        let sizes = self.sizes.clone();
        let specs: Vec<BulkSchemaSpec> = (0..sizes.schemas)
            .map(|s| BulkSchemaSpec {
                name: gen::schema_name(s),
                tables: (s * sizes.tables_per_schema..(s + 1) * sizes.tables_per_schema)
                    .map(gen::table_leaf)
                    .collect(),
            })
            .collect();
        let created = self
            .uc
            .bulk_create_tables(&admin(), &ms, CATALOG, &specs, &table_columns(), 1_000)
            .expect("bulk load");
        assert_eq!(
            created,
            sizes.tables() + sizes.schemas,
            "bulk load created every entity"
        );
        for p in [
            Privilege::UseCatalog,
            Privilege::UseSchema,
            Privilege::Select,
        ] {
            self.grant(&ms, CATALOG, "catalog", p);
        }
        // Listings return children in key order, which is table order.
        for s in 0..sizes.schemas {
            let schema = FullName::parse(&gen::schema_full_name(s)).expect("schema name");
            let children = self
                .uc
                .list_children(&admin(), &ms, &schema, Some("relation"))
                .expect("list schema");
            assert_eq!(children.len(), sizes.tables_per_schema);
            for (i, e) in children.iter().enumerate() {
                assert_eq!(e.name, gen::table_leaf(s * sizes.tables_per_schema + i));
                self.record(e);
            }
        }
    }

    /// Empty schemas in every client's metastore; the grantee reaches new
    /// tables through group USE grants on the catalog.
    fn populate_write_mix(&mut self) {
        for ms in &self.metastores {
            self.grant(ms, CATALOG, "catalog", Privilege::UseCatalog);
            self.grant(ms, CATALOG, "catalog", Privilege::UseSchema);
            for s in 0..self.sizes.schemas {
                self.uc
                    .create_schema(&admin(), ms, CATALOG, &gen::schema_name(s))
                    .expect("create schema");
            }
        }
    }

    /// Fill the caches the timed window is meant to find warm: every
    /// static relation's entity and read credential on the hot workloads,
    /// a full (and therefore evicting) metadata cache on meta_cold, and
    /// every principal's record everywhere.
    fn warm_up(&self) {
        let ms = &self.metastores[0];
        let trusted = Context::trusted(&gen::principal_name(gen::ADMIN), ENGINE_NAME);
        let sizes = &self.sizes;
        let resolve = |name: String, creds: bool| {
            let name = FullName::parse(&name).expect("relation name");
            self.uc
                .resolve_for_query(&trusted, ms, std::slice::from_ref(&name), creds)
                .expect("warm-up resolve");
        };
        match self.workload {
            Workload::QueryHot | Workload::MetaHot => {
                (0..sizes.tables()).for_each(|t| resolve(gen::table_full_name(sizes, t), true));
                (0..sizes.views).for_each(|v| resolve(gen::view_full_name(sizes, v), true));
            }
            Workload::MetaCold => {
                (0..sizes.cache_entries.min(sizes.tables()))
                    .for_each(|t| resolve(gen::table_full_name(sizes, t), false));
            }
            Workload::WriteMix => {}
        }
        for p in 0..=gen::ADMIN {
            self.uc
                .principal_groups(&gen::principal_name(p))
                .expect("principal record");
        }
    }
}
