//! Catalog federation (§4.2.4): mount foreign catalogs and mirror their
//! metadata on demand.
//!
//! Mirroring is engine-driven, matching the paper's current
//! implementation: the engine already has connectivity to the foreign
//! catalog, fetches metadata during query execution, and pushes it into
//! the federated catalog via [`UnityCatalog::mirror_table`]. Simple
//! clients that only talk to UC (a UI) see whatever was last mirrored —
//! the staleness trade-off §4.2.4 describes.

use std::sync::Arc;

use uc_delta::value::Schema;
use uc_txdb::WriteTxn;

use crate::authz::decision::Need;
use crate::authz::Privilege;
use crate::error::{UcError, UcResult};
use crate::events::ChangeOp;
use crate::ids::Uid;
use crate::model::entity::{props, Entity};
use crate::model::keys::{self, T_TREE};
use crate::ops::Op;
use crate::service::{Context, UnityCatalog};
use crate::types::{FullName, SecurableKind, TableType};

/// What a connector returns for one foreign table.
#[derive(Debug, Clone)]
pub struct ForeignTableMeta {
    pub name: String,
    pub columns: Schema,
    pub storage_path: Option<String>,
    /// Foreign system type, e.g. "hive", "mysql", "snowflake".
    pub foreign_type: String,
}

/// A client of some foreign catalog. Implementations live with the system
/// they connect to (e.g. `uc-hms` provides a Hive Metastore connector).
pub trait ForeignCatalogConnector: Send + Sync {
    fn connector_type(&self) -> &str;
    fn list_schemas(&self) -> UcResult<Vec<String>>;
    fn list_tables(&self, schema: &str) -> UcResult<Vec<String>>;
    fn get_table(&self, schema: &str, table: &str) -> UcResult<ForeignTableMeta>;
}

impl UnityCatalog {
    /// Register a connection to a foreign catalog.
    pub fn create_connection(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &str,
        endpoint: &str,
    ) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::CREATE_CONNECTION, Some(ctx), Some(ms));
        let top = self.metastore_chain(ms)?;
        api.audit.gate(&top, Need::MetastoreAdminOr(Privilege::CreateConnection), name)?;
        let created = self.create_entity(ctx, SecurableKind::Connection, &top, name, name, |_tx, ent| {
            ent.properties.insert(props::ENDPOINT.to_string(), endpoint.to_string());
            Ok(())
        })?;
        api.audit.allow(&created.id, endpoint);
        Ok(created)
    }

    /// Create a federated catalog mirroring a foreign catalog reachable
    /// through `connection_name`: a catalog whose properties name the
    /// connection, written in one commit.
    pub fn create_federated_catalog(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &str,
        connection_name: &str,
    ) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::CREATE_FEDERATED_CATALOG, Some(ctx), Some(ms));
        let top = self.metastore_chain(ms)?;
        api.audit.gate(&top, Need::MetastoreAdminOr(Privilege::CreateCatalog), name)?;
        let connection_key = keys::tree_key(ms, &[(SecurableKind::Connection.name_group(), connection_name)]);
        let connection = self
            .chain_at_key(ms, &connection_key)?
            .ok_or_else(|| UcError::NotFound(format!("connection {connection_name}")))?
            .swap_remove(0);
        let created = self.create_entity(ctx, SecurableKind::Catalog, &top, name, name, |_tx, ent| {
            ent.properties
                .insert(props::CONNECTION_ID.to_string(), connection.id.to_string());
            ent.properties.insert(props::FEDERATED.to_string(), "true".to_string());
            Ok(())
        })?;
        api.audit.allow(&created.id, name);
        Ok(created)
    }

    /// Push foreign-table metadata into a federated catalog (engine-driven
    /// on-demand mirroring). Creates the schema on first touch; updates
    /// the mirrored table if it already exists. Schema and table names
    /// arrive from the foreign catalog: both creates go through the one
    /// create protocol, which validates them like any other outside input.
    pub fn mirror_table(
        &self,
        ctx: &Context,
        ms: &Uid,
        federated_catalog: &str,
        schema_name: &str,
        meta: &ForeignTableMeta,
    ) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::MIRROR_TABLE, Some(ctx), Some(ms));
        let cat_key = keys::tree_key(ms, &[("catalog", federated_catalog)]);
        let full = self
            .chain_at_key(ms, &cat_key)?
            .ok_or_else(|| UcError::NotFound(federated_catalog.to_string()))?;
        if full[0].properties.get(props::FEDERATED).map(|s| s.as_str()) != Some("true") {
            return Err(UcError::Federation(format!(
                "{federated_catalog} is not a federated catalog"
            )));
        }
        // Mirroring requires write authority on the federated catalog.
        api.audit.gate(&full, Need::AdminOrAny(&[Privilege::CreateTable]), &meta.name)?;
        let schema_what = format!("{federated_catalog}.{schema_name}");
        let table_what = format!("{schema_what}.{}", meta.name);
        // Ensure the schema exists; its chain is the table's parent chain.
        let mut schema_key = cat_key;
        keys::tree_push_child(&mut schema_key, "schema", schema_name);
        let parent = match self.chain_at_key(ms, &schema_key)? {
            Some(chain) => chain,
            None => match self.create_entity(ctx, SecurableKind::Schema, &full, schema_name, &schema_what, |_tx, _ent| Ok(())) {
                // Lost a race to another mirror of the same schema: reuse its row.
                Err(UcError::AlreadyExists(_)) => self
                    .chain_at_key(ms, &schema_key)?
                    .ok_or_else(|| UcError::NotFound(schema_what.clone()))?,
                created => std::iter::once(created?).chain(full).collect(),
            },
        };
        // What a mirror pass writes onto the table, new (as the create's
        // fill) or existing.
        let now = self.now_ms();
        let refresh = |_tx: &mut WriteTxn, ent: &mut Entity| {
            ent.set_table_schema(&meta.columns);
            ent.properties
                .insert(props::TABLE_TYPE.to_string(), TableType::Foreign.as_str().to_string());
            ent.properties
                .insert(props::FOREIGN_TYPE.to_string(), meta.foreign_type.clone());
            if let Some(p) = &meta.storage_path {
                ent.storage_path = Some(p.clone());
            }
            ent.properties
                .insert(props::MIRRORED_AT_MS.to_string(), now.to_string());
            Ok(())
        };
        let mut table_key = schema_key;
        keys::tree_push_child(&mut table_key, "relation", &meta.name);
        // Update in place: an upsert of the row this transaction read.
        let cache = self.cache.for_metastore(ms);
        let update = || {
            self.write_ms(ms, |tx, _ver, fx| {
                let raw = tx
                    .get(T_TREE, &table_key)
                    .ok_or_else(|| UcError::NotFound(table_what.clone()))?;
                let mut ent = Arc::unwrap_or_clone(cache.decoded(&table_key, &raw)?);
                refresh(tx, &mut ent)?;
                ent.updated_at_ms = now;
                Ok(fx.upsert_at(tx, ent, ChangeOp::Update, table_key.clone()))
            })
        };
        let mirrored = match self.chain_at_key(ms, &table_key)? {
            Some(_) => update()?,
            None => match self.create_entity(ctx, SecurableKind::Table, &parent, &meta.name, &table_what, refresh) {
                // Lost a race to another mirror of the same table: refresh its row.
                Err(UcError::AlreadyExists(_)) => update()?,
                created => created?,
            },
        };
        api.audit.allow(&mirrored.id, table_what);
        Ok(mirrored)
    }

    /// On-demand federated read, as an engine performs it: fetch the
    /// freshest metadata from the foreign catalog via `connector`, mirror
    /// it, and return the mirrored entity. Falls back to the mirror if the
    /// foreign catalog is unreachable.
    pub fn federated_get_table(
        &self,
        ctx: &Context,
        ms: &Uid,
        federated_catalog: &str,
        schema: &str,
        table: &str,
        connector: &dyn ForeignCatalogConnector,
    ) -> UcResult<Arc<Entity>> {
        match connector.get_table(schema, table) {
            Ok(meta) => self.mirror_table(ctx, ms, federated_catalog, schema, &meta),
            Err(fetch_err) => {
                // Foreign catalog unavailable: serve the (possibly stale)
                // mirror if we have one.
                let name = FullName::of(&[federated_catalog, schema, table]);
                self.get_securable(ctx, ms, &name, "relation")
                    .map_err(|_| UcError::Federation(format!(
                        "foreign fetch failed ({fetch_err}) and no mirrored copy exists"
                    )))
            }
        }
    }
}
