//! A Hive-Metastore-style baseline catalog.
//!
//! This is the comparison system for the paper's evaluation (Fig 9,
//! Fig 10a) and the foreign catalog for federation tests. It reproduces
//! HMS's shape faithfully:
//!
//! * a two-level namespace (database → table), tables only;
//! * no governance: no grants, no credential vending, no audit — clients
//!   receive the table *location* and go to storage themselves with
//!   whatever credentials they already hold;
//! * "local metastore" deployment: clients query the backing database
//!   directly (JDBC in the paper), so there is no service hop and no
//!   service-side cache.
//!
//! It runs over the same [`uc_txdb::Db`] substrate as Unity Catalog so
//! the Fig 10 comparisons hold the storage/database model constant.

use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use uc_delta::value::Schema;
use uc_obs::{Counter, Histogram};
use uc_txdb::Db;

use uc_catalog::error::{UcError, UcResult};
use uc_catalog::service::federation::{ForeignCatalogConnector, ForeignTableMeta};

/// Database (schema) record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HmsDatabase {
    pub name: String,
    pub description: Option<String>,
    pub location: Option<String>,
}

/// Table record: name, columns, location, format — what HMS stores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HmsTable {
    pub db: String,
    pub name: String,
    pub columns: Schema,
    pub location: Option<String>,
    /// MANAGED_TABLE / EXTERNAL_TABLE / VIRTUAL_VIEW — HMS's three types.
    pub table_type: String,
    pub format: String,
}

/// Errors from the metastore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HmsError {
    NoSuchDatabase(String),
    NoSuchTable(String),
    AlreadyExists(String),
    Storage(String),
}

impl std::fmt::Display for HmsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HmsError::NoSuchDatabase(d) => write!(f, "no such database: {d}"),
            HmsError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            HmsError::AlreadyExists(x) => write!(f, "already exists: {x}"),
            HmsError::Storage(s) => write!(f, "metastore db error: {s}"),
        }
    }
}

impl std::error::Error for HmsError {}

pub type HmsResult<T> = Result<T, HmsError>;

const T_DB: &str = "hms_db";
const T_TBL: &str = "hms_tbl";

/// The metastore's API calls, each timed into `hms.{name}.latency_ms`.
#[derive(Clone, Copy)]
enum Api {
    CreateDatabase,
    GetDatabase,
    ListDatabases,
    CreateTable,
    GetTable,
    ListTables,
    DropTable,
    AlterTable,
}

impl Api {
    const COUNT: usize = 8;

    fn name(self) -> &'static str {
        match self {
            Api::CreateDatabase => "create_database",
            Api::GetDatabase => "get_database",
            Api::ListDatabases => "list_databases",
            Api::CreateTable => "create_table",
            Api::GetTable => "get_table",
            Api::ListTables => "list_tables",
            Api::DropTable => "drop_table",
            Api::AlterTable => "alter_table",
        }
    }
}

/// The API's metric handles, interned in the database's registry on a
/// call's first use (so a call never touched registers no series) and
/// held after it: a call takes no registry lock.
#[derive(Default)]
struct Instruments {
    calls: OnceLock<Counter>,
    latency: [OnceLock<Histogram>; Api::COUNT],
}

/// A Hive Metastore over a transactional database, in "local metastore"
/// mode: every call is a direct database operation.
#[derive(Clone)]
pub struct HiveMetastore {
    db: Db,
    instruments: Arc<Instruments>,
}

impl HiveMetastore {
    pub fn new(db: Db) -> Self {
        HiveMetastore { db, instruments: Arc::default() }
    }

    pub fn in_memory() -> Self {
        HiveMetastore::new(Db::in_memory())
    }

    pub fn db(&self) -> &Db {
        &self.db
    }

    /// Open an API span on the database's shared observability handle —
    /// the baseline shows up in the same traces and snapshots as UC, so
    /// the §6.2 comparison can be read off one `/metrics` dump.
    fn api_enter(&self, api: Api) -> uc_obs::SpanGuard {
        let obs = self.db.obs();
        self.instruments.calls.get_or_init(|| obs.counter("hms.api.calls")).inc();
        let name = api.name();
        let latency = self.instruments.latency[api as usize]
            .get_or_init(|| obs.histogram(&format!("hms.{name}.latency_ms")));
        obs.span_timed("hms", name, latency)
    }

    pub fn create_database(&self, database: &HmsDatabase) -> HmsResult<()> {
        let _api = self.api_enter(Api::CreateDatabase);
        let mut tx = self.db.begin_write();
        if tx.get(T_DB, &database.name).is_some() {
            return Err(HmsError::AlreadyExists(database.name.clone()));
        }
        tx.put(T_DB, &database.name, encode(database));
        tx.commit().map_err(|e| HmsError::Storage(e.to_string()))?;
        Ok(())
    }

    pub fn get_database(&self, name: &str) -> HmsResult<HmsDatabase> {
        let _api = self.api_enter(Api::GetDatabase);
        let rt = self.db.begin_read();
        let raw = rt
            .get(T_DB, name)
            .ok_or_else(|| HmsError::NoSuchDatabase(name.to_string()))?;
        decode(&raw)
    }

    pub fn list_databases(&self) -> Vec<String> {
        let _api = self.api_enter(Api::ListDatabases);
        let rt = self.db.begin_read();
        rt.scan_prefix(T_DB, "").into_iter().map(|(k, _)| k).collect()
    }

    pub fn create_table(&self, table: &HmsTable) -> HmsResult<()> {
        let _api = self.api_enter(Api::CreateTable);
        let key = format!("{}/{}", table.db, table.name);
        let mut tx = self.db.begin_write();
        if tx.get(T_DB, &table.db).is_none() {
            return Err(HmsError::NoSuchDatabase(table.db.clone()));
        }
        if tx.get(T_TBL, &key).is_some() {
            return Err(HmsError::AlreadyExists(key));
        }
        tx.put(T_TBL, &key, encode(table));
        tx.commit().map_err(|e| HmsError::Storage(e.to_string()))?;
        Ok(())
    }

    /// The core read path: returns full table metadata including the
    /// storage location. No authorization — that's the point of the
    /// baseline.
    pub fn get_table(&self, db: &str, name: &str) -> HmsResult<HmsTable> {
        let _api = self.api_enter(Api::GetTable);
        let rt = self.db.begin_read();
        let raw = rt
            .get(T_TBL, &format!("{db}/{name}"))
            .ok_or_else(|| HmsError::NoSuchTable(format!("{db}.{name}")))?;
        decode(&raw)
    }

    pub fn list_tables(&self, db: &str) -> Vec<String> {
        let _api = self.api_enter(Api::ListTables);
        let rt = self.db.begin_read();
        rt.scan_prefix(T_TBL, &format!("{db}/"))
            .into_iter()
            .filter_map(|(k, _)| k.split_once('/').map(|(_, t)| t.to_string()))
            .collect()
    }

    pub fn drop_table(&self, db: &str, name: &str) -> HmsResult<()> {
        let _api = self.api_enter(Api::DropTable);
        let key = format!("{db}/{name}");
        let mut tx = self.db.begin_write();
        if tx.get(T_TBL, &key).is_none() {
            return Err(HmsError::NoSuchTable(format!("{db}.{name}")));
        }
        tx.delete(T_TBL, &key);
        tx.commit().map_err(|e| HmsError::Storage(e.to_string()))?;
        Ok(())
    }

    pub fn alter_table(&self, table: &HmsTable) -> HmsResult<()> {
        let _api = self.api_enter(Api::AlterTable);
        let key = format!("{}/{}", table.db, table.name);
        let mut tx = self.db.begin_write();
        if tx.get(T_TBL, &key).is_none() {
            return Err(HmsError::NoSuchTable(key));
        }
        tx.put(T_TBL, &key, encode(table));
        tx.commit().map_err(|e| HmsError::Storage(e.to_string()))?;
        Ok(())
    }
}

#[expect(clippy::expect_used, reason = "HMS record types serialize infallibly; a failure here is a code bug")]
fn encode<T: Serialize>(value: &T) -> Bytes {
    Bytes::from(serde_json::to_vec(value).expect("hms record serializes"))
}

fn decode<T: for<'de> Deserialize<'de>>(raw: &[u8]) -> HmsResult<T> {
    serde_json::from_slice(raw).map_err(|e| HmsError::Storage(format!("corrupt record: {e}")))
}

/// Federation connector: lets Unity Catalog mount this HMS as a foreign
/// catalog (§4.2.4).
pub struct HmsConnector {
    pub hms: HiveMetastore,
}

impl ForeignCatalogConnector for HmsConnector {
    fn connector_type(&self) -> &str {
        "hive"
    }

    fn list_schemas(&self) -> UcResult<Vec<String>> {
        Ok(self.hms.list_databases())
    }

    fn list_tables(&self, schema: &str) -> UcResult<Vec<String>> {
        Ok(self.hms.list_tables(schema))
    }

    fn get_table(&self, schema: &str, table: &str) -> UcResult<ForeignTableMeta> {
        let t = self
            .hms
            .get_table(schema, table)
            .map_err(|e| UcError::Federation(e.to_string()))?;
        Ok(ForeignTableMeta {
            name: t.name,
            columns: t.columns,
            storage_path: t.location,
            foreign_type: "hive".to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_delta::value::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("id", DataType::Int)])
    }

    fn sample_table(db: &str, name: &str) -> HmsTable {
        HmsTable {
            db: db.into(),
            name: name.into(),
            columns: schema(),
            location: Some(format!("s3://warehouse/{db}/{name}")),
            table_type: "MANAGED_TABLE".into(),
            format: "PARQUET".into(),
        }
    }

    #[test]
    fn database_lifecycle() {
        let hms = HiveMetastore::in_memory();
        hms.create_database(&HmsDatabase { name: "sales".into(), description: None, location: None })
            .unwrap();
        assert_eq!(hms.get_database("sales").unwrap().name, "sales");
        assert_eq!(hms.list_databases(), vec!["sales"]);
        assert!(matches!(
            hms.create_database(&HmsDatabase { name: "sales".into(), description: None, location: None }),
            Err(HmsError::AlreadyExists(_))
        ));
        assert!(matches!(hms.get_database("nope"), Err(HmsError::NoSuchDatabase(_))));
    }

    #[test]
    fn table_lifecycle() {
        let hms = HiveMetastore::in_memory();
        hms.create_database(&HmsDatabase { name: "sales".into(), description: None, location: None })
            .unwrap();
        hms.create_table(&sample_table("sales", "orders")).unwrap();
        let t = hms.get_table("sales", "orders").unwrap();
        assert_eq!(t.location.as_deref(), Some("s3://warehouse/sales/orders"));
        assert_eq!(hms.list_tables("sales"), vec!["orders"]);

        // duplicate + missing database
        assert!(matches!(
            hms.create_table(&sample_table("sales", "orders")),
            Err(HmsError::AlreadyExists(_))
        ));
        assert!(matches!(
            hms.create_table(&sample_table("nope", "x")),
            Err(HmsError::NoSuchDatabase(_))
        ));

        // alter
        let mut altered = sample_table("sales", "orders");
        altered.format = "ORC".into();
        hms.alter_table(&altered).unwrap();
        assert_eq!(hms.get_table("sales", "orders").unwrap().format, "ORC");

        // drop
        hms.drop_table("sales", "orders").unwrap();
        assert!(matches!(hms.get_table("sales", "orders"), Err(HmsError::NoSuchTable(_))));
        assert!(hms.list_tables("sales").is_empty());
    }

    #[test]
    fn connector_exposes_hms_to_uc_federation() {
        let hms = HiveMetastore::in_memory();
        hms.create_database(&HmsDatabase { name: "legacy".into(), description: None, location: None })
            .unwrap();
        hms.create_table(&sample_table("legacy", "customers")).unwrap();
        let connector = HmsConnector { hms };
        assert_eq!(connector.connector_type(), "hive");
        assert_eq!(connector.list_schemas().unwrap(), vec!["legacy"]);
        assert_eq!(connector.list_tables("legacy").unwrap(), vec!["customers"]);
        let meta = connector.get_table("legacy", "customers").unwrap();
        assert_eq!(meta.name, "customers");
        assert_eq!(meta.foreign_type, "hive");
        assert!(connector.get_table("legacy", "ghost").is_err());
    }
}
