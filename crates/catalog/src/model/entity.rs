//! The generic entity: one struct for every securable kind.
//!
//! Type-specific attributes (a table's column schema, a view's SQL, a
//! model version's number, a connection's endpoint) live in the
//! `properties` map, validated by the kind's manifest. Common attributes
//! — identity, namespace position, ownership, lifecycle, storage path —
//! are first-class fields, so the core service can implement namespace,
//! lifecycle, access control, and auditing uniformly across kinds.
//! Authorization metadata is typed and rides on the row too: `grants`,
//! and everything else in one [`Governance`] value (§4.2–§4.3), so the
//! cache protocol keeps all of it exactly as fresh as the entity (§4.5)
//! and a value that does not decode fails the row's decode.

use std::collections::BTreeMap;

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use uc_delta::value::Schema;

use crate::authz::abac::AbacPolicy;
use crate::authz::fgac::FgacPolicies;
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
    /// Managed-storage root of a metastore.
    pub const ROOT_LOCATION: &str = "root_location";
    /// For connections: endpoint URL of the foreign catalog.
    pub const ENDPOINT: &str = "endpoint";
    /// For external locations: the storage credential backing it.
    pub const CREDENTIAL: &str = "credential";
    /// For functions: the SQL body.
    pub const BODY: &str = "body";
    /// For registered models: the number the next version gets.
    pub const NEXT_VERSION: &str = "next_version";
    /// For federated catalogs: "true".
    pub const FEDERATED: &str = "federated";
    /// For mirrored foreign tables: when the last mirror pass wrote it.
    pub const MIRRORED_AT_MS: &str = "mirrored_at_ms";
    /// For shallow clones: the base table version the clone pins.
    pub const CLONE_VERSION: &str = "clone_version";
}

/// A securable's authorization metadata beyond its grants (§4.2–§4.3).
/// Each part is set only on the kinds it applies to; the maps keep the
/// order every reader sees.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct Governance {
    /// Metastore admins (metastores).
    pub admins: Vec<String>,
    /// Workspaces a catalog is bound to: when non-empty, only requests
    /// from a listed workspace may reach it (§3.2).
    pub workspace_bindings: Vec<String>,
    /// Tags, by key.
    pub tags: BTreeMap<String, String>,
    /// Column tags (relations), by column, then by key.
    pub column_tags: BTreeMap<String, BTreeMap<String, String>>,
    /// Row filter and column masks (relations); masks sorted by column,
    /// at most one per column.
    pub fgac: FgacPolicies,
    /// ABAC policies (containers), by name.
    pub abac: BTreeMap<String, AbacPolicy>,
}

/// What [`Entity::governance`] reads when an entity carries none.
static NO_GOVERNANCE: Governance = Governance {
    admins: Vec::new(),
    workspace_bindings: Vec::new(),
    tags: BTreeMap::new(),
    column_tags: BTreeMap::new(),
    fgac: FgacPolicies { row_filter: None, column_masks: Vec::new() },
    abac: BTreeMap::new(),
};

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
    /// The rest of its authorization metadata; `None` (one `null` in the
    /// row) for the many securables that carry none.
    pub governance: Option<Box<Governance>>,
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
            governance: None,
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

    /// Dependency ids (views → base relations, functions → referenced);
    /// none when the property is absent, and `Database` when it is present
    /// but does not decode.
    pub fn dependencies(&self) -> UcResult<Vec<Uid>> {
        let Some(raw) = self.properties.get(props::DEPENDENCIES) else {
            return Ok(Vec::new());
        };
        serde_json::from_str(raw)
            .map_err(|e| UcError::Database(format!("corrupt dependencies on {}: {e}", self.name)))
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

    /// The entity's governance metadata; empty when it carries none.
    pub fn governance(&self) -> &Governance {
        self.governance.as_deref().unwrap_or(&NO_GOVERNANCE)
    }

    /// The governance metadata to update, created empty on first use.
    pub fn governance_mut(&mut self) -> &mut Governance {
        self.governance.get_or_insert_default()
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
        assert!(e.dependencies().unwrap().is_empty());
        let deps = vec![Uid::from("a"), Uid::from("b")];
        e.set_dependencies(&deps);
        assert_eq!(e.dependencies().unwrap(), deps);
        e.properties.insert(props::DEPENDENCIES.into(), "[\"a\",".into());
        assert!(matches!(e.dependencies(), Err(UcError::Database(_))));
    }

    #[test]
    fn commit_version_defaults_to_negative_one() {
        let mut e = Entity::new(SecurableKind::Table, "t", None, Uid::from("ms"), "o", 0);
        assert_eq!(e.commit_version(), -1);
        e.properties.insert(props::COMMIT_VERSION.into(), "7".into());
        assert_eq!(e.commit_version(), 7);
    }

    /// Every governance part survives the row's own encoding, in the
    /// orders readers rely on.
    #[test]
    fn every_governance_field_roundtrips() {
        use crate::authz::abac::AbacEffect;
        use crate::authz::fgac::{ColumnMaskPolicy, RowFilterPolicy};
        use uc_delta::expr::{CmpOp, Expr};
        use uc_delta::value::Value;

        let mut e = Entity::new(SecurableKind::Table, "t", Some(Uid::from("s")), Uid::from("ms"), "o", 0);
        let g = e.governance_mut();
        g.admins = vec!["admins-group".into()];
        g.workspace_bindings = vec!["ws-1".into(), "ws-2".into()];
        g.tags.insert("pii".into(), "yes".into());
        g.tags.insert("domain".into(), "sales".into());
        g.column_tags.entry("ssn".into()).or_default().insert("pii".into(), "high".into());
        g.column_tags.entry("email".into()).or_default().insert("pii".into(), "low".into());
        g.fgac.row_filter = Some(RowFilterPolicy { expr: Expr::cmp("region", CmpOp::Eq, "emea") });
        g.fgac.column_masks.push(ColumnMaskPolicy {
            column: "ssn".into(),
            mask: Expr::Literal(Value::Str("***-**-****".into())),
            exempt_when: Some(Expr::IsAccountGroupMember("hr".into())),
        });
        let restrict = AbacPolicy {
            name: "restrict".into(),
            tag_key: "classification".into(),
            tag_value: Some("secret".into()),
            effect: AbacEffect::RestrictAccess { allowed_groups: vec!["cleared".into()] },
        };
        g.abac.insert(restrict.name.clone(), restrict);
        let back = Entity::decode(&e.encode()).unwrap();
        assert_eq!(back, e);
        let g = back.governance();
        assert_eq!(g.tags.keys().collect::<Vec<_>>(), ["domain", "pii"]);
        assert_eq!(g.column_tags.keys().collect::<Vec<_>>(), ["email", "ssn"]);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Entity::decode(b"nonsense").is_err());
        assert!(PrincipalRecord::decode(b"{bad").is_err());
        // A governance part that does not decode fails the whole row: a
        // restriction never reads as absent.
        let mut e = Entity::new(SecurableKind::Catalog, "c", None, Uid::from("ms"), "o", 0);
        e.governance_mut().workspace_bindings = vec!["ws".into()];
        let row = String::from_utf8(e.encode().to_vec()).unwrap();
        for (good, bad) in [
            (r#""workspace_bindings":["ws"]"#, r#""workspace_bindings":"ws""#),
            (r#""row_filter":null"#, r#""row_filter":"owner = current_user()""#),
        ] {
            assert!(row.contains(good), "{row}");
            let err = Entity::decode(row.replace(good, bad).as_bytes()).unwrap_err();
            assert!(matches!(err, UcError::Database(_)), "{err:?}");
        }
    }
}
