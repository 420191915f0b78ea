//! The operation table: the catalog's API operations, declared once
//! (§4.2.1 audits every request for every asset type; this is the list of
//! requests). `api_enter` takes a row's handle (`Op::CREATE_TABLE`) and
//! returns a guard carrying the row; the guard's gate and audit calls
//! record under the row's actions, the per-op instrument table is indexed
//! by `index`, and the deny sweep and the per-op audit trail pins iterate
//! [`Op::ALL`]. An action exists only
//! here: [`Action`] has no public constructor, so no other module can
//! hand the audit log a string of its own.

/// The name an audit record carries for what was attempted, e.g.
/// `createTable`. Only this table makes one and the audit sink takes
/// nothing else, so a request cannot record a string of its own:
///
/// ```compile_fail
/// use uc_catalog::audit::{AuditDecision, AuditLog};
/// let log = AuditLog::new(8);
/// log.record(0, "alice", "getTable", None, AuditDecision::Allow, String::new(), None);
/// ```
///
/// ```
/// use uc_catalog::audit::{AuditDecision, AuditLog};
/// let log = AuditLog::new(8);
/// log.record(0, "alice", uc_catalog::ops::GET_SECURABLE, None, AuditDecision::Allow, String::new(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Action(&'static str);

impl Action {
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl PartialEq<&str> for Action {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// One API operation.
#[derive(Debug)]
pub struct Op {
    /// Names the request span and the `catalog.{name}.*` series.
    pub name: &'static str,
    /// The audit actions the op may record, primary first: refusals and
    /// the op's `Allow` go under the primary unless the request picks
    /// another of these. Empty for a read / list op that is spanned but
    /// not audited — one that audits anyway panics on the index: a name
    /// the table does not hold is the drift it exists to end.
    pub actions: &'static [Action],
    /// Position in [`Op::ALL`].
    pub index: usize,
}

// Actions that several rows list, or that a request picks by name instead
// of taking its op's primary.
/// Refusal at the external location covering a create's explicit path.
pub const USE_EXTERNAL_PATH: Action = Action("useExternalPath");
/// Seeing one securable: `get_securable`, `get_entity_by_id`, and the
/// reads that return something of it (`get_tags`, `lineage`).
pub const GET_SECURABLE: Action = Action("getSecurable");
/// Reading a share: its member list, or one member's snapshot.
pub const QUERY_SHARE: Action = Action("queryShare");
/// The `Allow` of serving one shared table's files and credential.
pub const QUERY_SHARE_TABLE: Action = Action("queryShareTable");
/// Reading a catalog-owned table's commit state: its head or a payload.
pub const READ_TABLE_COMMIT: Action = Action("readTableCommit");
/// `policy_update` is one op with three faces.
pub const SET_ROW_FILTER: Action = Action("setRowFilter");
pub const SET_COLUMN_MASK: Action = Action("setColumnMask");
pub const CLEAR_ROW_FILTER: Action = Action("clearRowFilter");

macro_rules! action {
    ($literal:literal) => { Action($literal) };
    ($named:ident) => { $named };
}

/// `HANDLE = "name" => [actions];` per row, sorted by name. Emits the
/// `Op::HANDLE` consts and `Op::ALL`; a row's index is its position.
macro_rules! ops {
    ($($handle:ident = $name:literal => [$($action:tt),*];)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms, reason = "one variant per op handle, named as the handle")]
        enum Position { $($handle),* }
        impl Op {
            $(pub const $handle: &'static Op = &Op {
                name: $name,
                actions: &[$(action!($action)),*],
                index: Position::$handle as usize,
            };)*
            /// Every operation, sorted by name.
            pub const ALL: &'static [&'static Op] = &[$(Op::$handle),*];
        }
    };
}

ops! {
    ADD_LINEAGE = "add_lineage" => ["addLineage"];
    ADD_METASTORE_ADMIN = "add_metastore_admin" => ["addMetastoreAdmin"];
    ADD_TABLE_TO_SHARE = "add_table_to_share" => ["addToShare"];
    AUTHORIZE_BATCH = "authorize_batch" => [];
    BULK_CREATE_TABLES = "bulk_create_tables" => ["bulkCreateTables"];
    COMMIT_TABLES_ATOMICALLY = "commit_tables_atomically" => ["commitTable"];
    CREATE_ABAC_POLICY = "create_abac_policy" => ["createAbacPolicy"];
    CREATE_CATALOG = "create_catalog" => ["createCatalog"];
    CREATE_CONNECTION = "create_connection" => ["createConnection"];
    CREATE_EXTERNAL_LOCATION = "create_external_location" => ["createExternalLocation"];
    CREATE_FEDERATED_CATALOG = "create_federated_catalog" => ["createFederatedCatalog"];
    CREATE_FUNCTION = "create_function" => ["createFunction"];
    CREATE_METASTORE = "create_metastore" => ["createMetastore"];
    CREATE_MODEL_VERSION = "create_model_version" => ["createModelVersion"];
    CREATE_REGISTERED_MODEL = "create_registered_model" => ["createRegisteredModel"];
    CREATE_SCHEMA = "create_schema" => ["createSchema"];
    CREATE_SHALLOW_CLONE = "create_shallow_clone" => ["createShallowClone"];
    CREATE_SHARE = "create_share" => ["createShare"];
    CREATE_STORAGE_CREDENTIAL = "create_storage_credential" => ["createStorageCredential"];
    CREATE_TABLE = "create_table" => ["createTable", USE_EXTERNAL_PATH];
    CREATE_VIEW = "create_view" => ["createView"];
    CREATE_VOLUME = "create_volume" => ["createVolume", USE_EXTERNAL_PATH];
    DROP_SECURABLE = "drop_securable" => ["dropSecurable"];
    EVENTS_SINCE = "events_since" => ["listEvents"];
    GET_ENTITY_BY_ID = "get_entity_by_id" => [GET_SECURABLE];
    GET_METASTORE = "get_metastore" => [];
    GET_SECURABLE = "get_securable" => [GET_SECURABLE];
    GET_TAGS = "get_tags" => [GET_SECURABLE];
    GRANT = "grant" => ["grant"];
    LATEST_TABLE_VERSION = "latest_table_version" => [READ_TABLE_COMMIT];
    LINEAGE = "lineage" => [GET_SECURABLE];
    LIST_CATALOGS = "list_catalogs" => [];
    LIST_CHILDREN = "list_children" => ["listChildren"];
    LIST_SHARE_TABLES = "list_share_tables" => [QUERY_SHARE];
    LIST_SHARES = "list_shares" => [];
    LOAD_TABLE_AS_ICEBERG = "load_table_as_iceberg" => ["loadTableAsIceberg"];
    MIRROR_TABLE = "mirror_table" => ["mirrorTable"];
    POLICY_UPDATE = "policy_update" => [SET_ROW_FILTER, SET_COLUMN_MASK, CLEAR_ROW_FILTER];
    PURGE_SOFT_DELETED = "purge_soft_deleted" => ["purgeSoftDeleted"];
    QUERY_ENTITIES = "query_entities" => [];
    QUERY_SHARE_TABLE = "query_share_table" => [QUERY_SHARE, QUERY_SHARE_TABLE];
    QUERY_SHARE_TABLE_AS_ICEBERG = "query_share_table_as_iceberg" => [QUERY_SHARE];
    READ_TABLE_COMMIT = "read_table_commit" => [READ_TABLE_COMMIT];
    RENAME_SECURABLE = "rename_securable" => ["renameSecurable"];
    RENEW_READ_CREDENTIAL = "renew_read_credential" => ["renewTemporaryCredentials"];
    RESOLVE_FOR_QUERY = "resolve_for_query" => ["resolveForQuery"];
    RESOLVE_MODEL_VERSION = "resolve_model_version" => ["resolveModelVersion"];
    REVOKE = "revoke" => ["revoke"];
    SERVE_ADMIT = "serve_admit" => ["requestShed"];
    SET_CATALOG_BINDINGS = "set_catalog_bindings" => ["setCatalogBindings"];
    SET_METASTORE_ROOT = "set_metastore_root" => ["setMetastoreRoot"];
    SHOW_GRANTS = "show_grants" => ["getPermissions"];
    TAG_UPDATE = "tag_update" => ["setTag"];
    TEMP_CREDENTIALS = "temp_credentials" => ["generateTemporaryCredentials"];
    TEMP_CREDENTIALS_FOR_PATH = "temp_credentials_for_path" => ["generateTemporaryPathCredentials"];
    TRANSFER_OWNERSHIP = "transfer_ownership" => ["transferOwnership"];
    UPDATE_COMMENT = "update_comment" => ["updateComment"];
    VISIBLE_BATCH = "visible_batch" => [];
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What every reader of the table relies on: `api_instruments` indexes
    /// by `index`, the metric namespace by the sorted unique names, the
    /// audit log by non-empty actions.
    #[test]
    fn op_table_invariants() {
        for pair in Op::ALL.windows(2) {
            assert!(pair[0].name < pair[1].name, "{} must sort before {}", pair[0].name, pair[1].name);
        }
        for (position, op) in Op::ALL.iter().enumerate() {
            assert_eq!(op.index, position, "{}", op.name);
            for (i, action) in op.actions.iter().enumerate() {
                assert!(!action.as_str().is_empty(), "{}", op.name);
                assert!(!op.actions[..i].contains(action), "{} lists {} twice", op.name, action.as_str());
            }
        }
    }
}
