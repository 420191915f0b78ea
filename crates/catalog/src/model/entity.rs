//! The generic entity: one struct for every securable kind.
//!
//! Type-specific attributes (a table's column schema, a view's SQL, a
//! model version's number, a connection's endpoint) live in the
//! `properties` map, validated by the kind's manifest. Common attributes
//! — identity, namespace position, ownership, lifecycle, storage path —
//! are first-class fields, so the core service can implement namespace,
//! lifecycle, access control, and auditing uniformly across kinds.

use std::collections::BTreeMap;

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use uc_delta::value::Schema;

use crate::authz::privilege::Privilege;
use crate::error::{UcError, UcResult};
use crate::ids::Uid;
use crate::types::{LifecycleState, SecurableKind, TableFormat, TableType};

/// Well-known property names.
pub mod props {
    /// Table column schema (JSON-encoded [`uc_delta::value::Schema`]).
    pub const SCHEMA: &str = "schema";
    /// Table type: MANAGED / EXTERNAL / VIEW / FOREIGN / SHALLOW_CLONE.
    pub const TABLE_TYPE: &str = "table_type";
    /// Storage format: DELTA / ICEBERG / PARQUET / CSV.
    pub const FORMAT: &str = "format";
    /// View definition SQL.
    pub const VIEW_SQL: &str = "view_sql";
    /// JSON list of entity ids a view/function depends on.
    pub const DEPENDENCIES: &str = "dependencies";
    /// For foreign tables: the connector type (e.g. "hive", "mysql").
    pub const FOREIGN_TYPE: &str = "foreign_type";
    /// For federated catalogs: the connection entity id.
    pub const CONNECTION_ID: &str = "connection_id";
    /// For storage credentials: the bucket the root credential covers.
    pub const BUCKET: &str = "bucket";
    /// For storage credentials: the root secret (catalog-internal!).
    pub const ROOT_SECRET: &str = "root_secret";
    /// For model versions: the numeric version.
    pub const MODEL_VERSION: &str = "model_version";
    /// For model versions / registered models: lifecycle stage.
    pub const MODEL_STAGE: &str = "model_stage";
    /// For shallow clones: the base table entity id.
    pub const CLONE_BASE: &str = "clone_base";
    /// Latest catalog-owned commit version of a table (decimal).
    pub const COMMIT_VERSION: &str = "commit_version";
    /// Region of a metastore.
    pub const REGION: &str = "region";
    /// JSON list of metastore admin principals.
    pub const ADMINS: &str = "admins";
    /// For connections: endpoint URL of the foreign catalog.
    pub const ENDPOINT: &str = "endpoint";
}

/// A securable object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Entity {
    pub id: Uid,
    pub kind: SecurableKind,
    pub name: String,
    /// Parent entity id; `None` only for metastores.
    pub parent: Option<Uid>,
    /// The metastore this entity belongs to (self for metastores).
    pub metastore: Uid,
    /// Owning principal: holds all privileges on this object.
    pub owner: String,
    pub comment: Option<String>,
    /// Canonical storage path for assets with storage.
    pub storage_path: Option<String>,
    /// Type-specific attributes (see [`props`]).
    pub properties: BTreeMap<String, String>,
    /// Privilege grants directly on this securable: (grantee, privilege).
    /// Grants live on the entity record so the write-through cache keeps
    /// authorization metadata exactly as coherent as the rest of the
    /// entity's metadata.
    pub grants: Vec<(String, Privilege)>,
    pub state: LifecycleState,
    pub created_at_ms: u64,
    pub updated_at_ms: u64,
}

/// Entities evaluate authorization decisions directly (no per-request
/// copy into [`crate::authz::decision::AuthzNode`]s — see
/// [`crate::authz::decision::AuthzNodeView`]).
impl crate::authz::decision::AuthzNodeView for Entity {
    fn node_kind(&self) -> SecurableKind {
        self.kind
    }
    fn node_owner(&self) -> &str {
        &self.owner
    }
    fn node_grants(&self) -> &[(String, Privilege)] {
        &self.grants
    }
}

impl Entity {
    /// Build a new active entity with a fresh id.
    pub fn new(
        kind: SecurableKind,
        name: &str,
        parent: Option<Uid>,
        metastore: Uid,
        owner: &str,
        now_ms: u64,
    ) -> Entity {
        let id = Uid::generate();
        let metastore = if kind == SecurableKind::Metastore { id.clone() } else { metastore };
        Entity {
            id,
            kind,
            name: name.to_string(),
            parent,
            metastore,
            owner: owner.to_string(),
            comment: None,
            storage_path: None,
            properties: BTreeMap::new(),
            grants: Vec::new(),
            state: LifecycleState::Active,
            created_at_ms: now_ms,
            updated_at_ms: now_ms,
        }
    }

    /// Serialize for storage.
    pub fn encode(&self) -> Bytes {
        Bytes::from(crate::jsonutil::to_vec(self))
    }

    /// Deserialize from storage.
    pub fn decode(data: &[u8]) -> UcResult<Entity> {
        serde_json::from_slice(data)
            .map_err(|e| UcError::Database(format!("corrupt entity record: {e}")))
    }

    /// Column schema, for tables/views.
    pub fn table_schema(&self) -> UcResult<Schema> {
        let raw = self
            .properties
            .get(props::SCHEMA)
            .ok_or_else(|| UcError::InvalidArgument(format!("{} has no schema", self.name)))?;
        serde_json::from_str(raw)
            .map_err(|e| UcError::Database(format!("corrupt schema on {}: {e}", self.name)))
    }

    pub fn set_table_schema(&mut self, schema: &Schema) {
        self.properties.insert(
            props::SCHEMA.to_string(),
            crate::jsonutil::to_string(schema),
        );
    }

    pub fn table_type(&self) -> Option<TableType> {
        self.properties
            .get(props::TABLE_TYPE)
            .and_then(|s| TableType::parse(s))
    }

    pub fn table_format(&self) -> Option<TableFormat> {
        self.properties
            .get(props::FORMAT)
            .and_then(|s| TableFormat::parse(s))
    }

    /// Dependency ids (views → base relations, functions → referenced).
    pub fn dependencies(&self) -> Vec<Uid> {
        self.properties
            .get(props::DEPENDENCIES)
            .and_then(|raw| serde_json::from_str::<Vec<String>>(raw).ok())
            .map(|v| v.into_iter().map(Uid::from_string).collect())
            .unwrap_or_default()
    }

    pub fn set_dependencies(&mut self, deps: &[Uid]) {
        let raw: Vec<&str> = deps.iter().map(|d| d.as_str()).collect();
        self.properties.insert(
            props::DEPENDENCIES.to_string(),
            crate::jsonutil::to_string(&raw),
        );
    }

    /// Latest catalog-owned commit version, -1 if never committed through
    /// the catalog.
    pub fn commit_version(&self) -> i64 {
        self.properties
            .get(props::COMMIT_VERSION)
            .and_then(|s| s.parse().ok())
            .unwrap_or(-1)
    }

    /// True when visible in the namespace.
    pub fn is_active(&self) -> bool {
        self.state == LifecycleState::Active
    }

    /// Add a grant; returns false if it already exists.
    pub fn add_grant(&mut self, grantee: &str, privilege: Privilege) -> bool {
        let pair = (grantee.to_string(), privilege);
        if self.grants.contains(&pair) {
            return false;
        }
        self.grants.push(pair);
        true
    }

    /// Remove a grant; returns false if it did not exist.
    pub fn remove_grant(&mut self, grantee: &str, privilege: Privilege) -> bool {
        let before = self.grants.len();
        self.grants
            .retain(|(g, p)| !(g == grantee && *p == privilege));
        self.grants.len() != before
    }
}

/// Governance metadata stored in entity properties. Tags, FGAC policies,
/// and ABAC policies ride on the entity record itself so a single cache
/// protocol keeps *all* authorization-relevant metadata exactly as fresh
/// as the entity (§4.5's strong-consistency requirement for governance).
impl Entity {
    /// Set an entity-level tag.
    pub fn set_tag(&mut self, key: &str, value: &str) {
        self.properties.insert(format!("tag:{key}"), value.to_string());
    }

    /// All entity-level tags as (key, value).
    pub fn tags(&self) -> Vec<(String, String)> {
        self.properties
            .iter()
            .filter_map(|(k, v)| k.strip_prefix("tag:").map(|key| (key.to_string(), v.clone())))
            .collect()
    }

    /// Set a column-level tag (tables/views).
    pub fn set_column_tag(&mut self, column: &str, key: &str, value: &str) {
        self.properties
            .insert(format!("coltag:{column}:{key}"), value.to_string());
    }

    /// All column tags as (column, key, value).
    pub fn column_tags(&self) -> Vec<(String, String, String)> {
        self.properties
            .iter()
            .filter_map(|(k, v)| {
                let rest = k.strip_prefix("coltag:")?;
                let (col, key) = rest.split_once(':')?;
                Some((col.to_string(), key.to_string(), v.clone()))
            })
            .collect()
    }

    /// Attach/replace the row filter policy.
    pub fn set_row_filter(&mut self, policy: &crate::authz::fgac::RowFilterPolicy) {
        self.properties.insert(
            "fgac:filter".to_string(),
            crate::jsonutil::to_string(policy),
        );
    }

    pub fn clear_row_filter(&mut self) {
        self.properties.remove("fgac:filter");
    }

    pub fn row_filter(&self) -> Option<crate::authz::fgac::RowFilterPolicy> {
        self.properties
            .get("fgac:filter")
            .and_then(|raw| serde_json::from_str(raw).ok())
    }

    /// Attach/replace a column mask.
    pub fn set_column_mask(&mut self, policy: &crate::authz::fgac::ColumnMaskPolicy) {
        self.properties.insert(
            format!("fgac:mask:{}", policy.column),
            crate::jsonutil::to_string(policy),
        );
    }

    pub fn column_masks(&self) -> Vec<crate::authz::fgac::ColumnMaskPolicy> {
        self.properties
            .iter()
            .filter(|(k, _)| k.starts_with("fgac:mask:"))
            .filter_map(|(_, v)| serde_json::from_str(v).ok())
            .collect()
    }

    /// True if any FGAC policy is attached (gates untrusted engines).
    pub fn has_fgac(&self) -> bool {
        self.properties
            .keys()
            .any(|k| k == "fgac:filter" || k.starts_with("fgac:mask:"))
    }

    /// Attach an ABAC policy (on container entities).
    pub fn set_abac_policy(&mut self, policy: &crate::authz::abac::AbacPolicy) {
        self.properties.insert(
            format!("abac:{}", policy.name),
            crate::jsonutil::to_string(policy),
        );
    }

    pub fn abac_policies(&self) -> Vec<crate::authz::abac::AbacPolicy> {
        self.properties
            .iter()
            .filter(|(k, _)| k.starts_with("abac:"))
            .filter_map(|(_, v)| serde_json::from_str(v).ok())
            .collect()
    }

    /// Workspace bindings on a catalog: when non-empty, only requests
    /// originating from a listed workspace may access the catalog (§3.2).
    pub fn workspace_bindings(&self) -> Vec<String> {
        self.properties
            .get("workspace_bindings")
            .and_then(|raw| serde_json::from_str(raw).ok())
            .unwrap_or_default()
    }

    pub fn set_workspace_bindings(&mut self, workspaces: &[String]) {
        if workspaces.is_empty() {
            self.properties.remove("workspace_bindings");
        } else {
            self.properties.insert(
                "workspace_bindings".to_string(),
                crate::jsonutil::to_string(workspaces),
            );
        }
    }

    /// Metastore admins (metastore entities only).
    pub fn metastore_admins(&self) -> Vec<String> {
        self.properties
            .get(props::ADMINS)
            .and_then(|raw| serde_json::from_str(raw).ok())
            .unwrap_or_default()
    }

    pub fn set_metastore_admins(&mut self, admins: &[String]) {
        self.properties.insert(
            props::ADMINS.to_string(),
            crate::jsonutil::to_string(admins),
        );
    }
}

/// Account principal record: group memberships.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct PrincipalRecord {
    pub groups: Vec<String>,
}

impl PrincipalRecord {
    pub fn encode(&self) -> Bytes {
        Bytes::from(crate::jsonutil::to_vec(self))
    }

    pub fn decode(data: &[u8]) -> UcResult<PrincipalRecord> {
        serde_json::from_slice(data)
            .map_err(|e| UcError::Database(format!("corrupt principal record: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_delta::value::{DataType, Field};

    #[test]
    fn metastore_entity_is_its_own_metastore() {
        let e = Entity::new(SecurableKind::Metastore, "prod", None, Uid::from("ignored"), "admin", 1);
        assert_eq!(e.metastore, e.id);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut e = Entity::new(
            SecurableKind::Table,
            "orders",
            Some(Uid::from("schema-1")),
            Uid::from("ms-1"),
            "alice",
            42,
        );
        e.comment = Some("fact table".into());
        e.storage_path = Some("s3://bkt/warehouse/orders".into());
        e.properties.insert(props::TABLE_TYPE.into(), "MANAGED".into());
        let back = Entity::decode(&e.encode()).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn schema_property_roundtrip() {
        let mut e = Entity::new(
            SecurableKind::Table,
            "t",
            Some(Uid::from("s")),
            Uid::from("ms"),
            "o",
            0,
        );
        let schema = Schema::new(vec![Field::new("id", DataType::Int)]);
        e.set_table_schema(&schema);
        assert_eq!(e.table_schema().unwrap(), schema);
    }

    #[test]
    fn missing_schema_is_invalid_argument() {
        let e = Entity::new(SecurableKind::Table, "t", None, Uid::from("ms"), "o", 0);
        assert!(matches!(e.table_schema(), Err(UcError::InvalidArgument(_))));
    }

    #[test]
    fn dependencies_roundtrip() {
        let mut e = Entity::new(SecurableKind::View, "v", None, Uid::from("ms"), "o", 0);
        assert!(e.dependencies().is_empty());
        let deps = vec![Uid::from("a"), Uid::from("b")];
        e.set_dependencies(&deps);
        assert_eq!(e.dependencies(), deps);
    }

    #[test]
    fn commit_version_defaults_to_negative_one() {
        let mut e = Entity::new(SecurableKind::Table, "t", None, Uid::from("ms"), "o", 0);
        assert_eq!(e.commit_version(), -1);
        e.properties.insert(props::COMMIT_VERSION.into(), "7".into());
        assert_eq!(e.commit_version(), 7);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Entity::decode(b"nonsense").is_err());
        assert!(PrincipalRecord::decode(b"{bad").is_err());
    }
}
