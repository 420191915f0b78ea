//! Common vocabulary: securable kinds, names, table classifications.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::{UcError, UcResult};

/// Every kind of securable object the catalog manages.
///
/// Containers (`Metastore`, `Catalog`, `Schema`) hold other securables;
/// leaf kinds are data/AI assets or configuration objects. The set mirrors
/// the paper's object model (Fig 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SecurableKind {
    Metastore,
    Catalog,
    Schema,
    Table,
    View,
    Volume,
    Function,
    RegisteredModel,
    ModelVersion,
    StorageCredential,
    ExternalLocation,
    Connection,
    Share,
}

impl SecurableKind {
    /// Namespace group: two securables in the same parent and group cannot
    /// share a name. Tables and views share the `relation` group — "two
    /// table-like assets cannot have the same name in a given schema".
    pub fn name_group(self) -> &'static str {
        match self {
            SecurableKind::Metastore => "metastore",
            SecurableKind::Catalog => "catalog",
            SecurableKind::Schema => "schema",
            SecurableKind::Table | SecurableKind::View => "relation",
            SecurableKind::Volume => "volume",
            SecurableKind::Function => "function",
            SecurableKind::RegisteredModel => "model",
            SecurableKind::ModelVersion => "modelversion",
            SecurableKind::StorageCredential => "storagecred",
            SecurableKind::ExternalLocation => "extloc",
            SecurableKind::Connection => "connection",
            SecurableKind::Share => "share",
        }
    }

    /// True for the container levels of the three-level namespace.
    pub fn is_container(self) -> bool {
        matches!(
            self,
            SecurableKind::Metastore | SecurableKind::Catalog | SecurableKind::Schema
        )
    }

    pub fn as_str(self) -> &'static str {
        match self {
            SecurableKind::Metastore => "METASTORE",
            SecurableKind::Catalog => "CATALOG",
            SecurableKind::Schema => "SCHEMA",
            SecurableKind::Table => "TABLE",
            SecurableKind::View => "VIEW",
            SecurableKind::Volume => "VOLUME",
            SecurableKind::Function => "FUNCTION",
            SecurableKind::RegisteredModel => "REGISTERED_MODEL",
            SecurableKind::ModelVersion => "MODEL_VERSION",
            SecurableKind::StorageCredential => "STORAGE_CREDENTIAL",
            SecurableKind::ExternalLocation => "EXTERNAL_LOCATION",
            SecurableKind::Connection => "CONNECTION",
            SecurableKind::Share => "SHARE",
        }
    }
}

impl fmt::Display for SecurableKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A fully qualified three-level name: `catalog.schema.asset`. One- and
/// two-level forms name catalogs and schemas respectively.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FullName {
    pub parts: Vec<String>,
}

impl FullName {
    /// Parse a dotted name with 1–4 parts (4 covers model versions:
    /// `catalog.schema.model.version`).
    pub fn parse(s: &str) -> UcResult<FullName> {
        FullName::checked(s.split('.').map(|p| p.trim().to_string()).collect(), |_| s.to_string())
    }

    /// A name from its parts, validated as [`FullName::parse`] validates
    /// the parts of a dotted one: 1–4 parts, each a valid object name.
    pub fn from_parts(parts: Vec<String>) -> UcResult<FullName> {
        FullName::checked(parts, |parts| parts.join("."))
    }

    /// `parts` as a name, if valid; `written` renders the name as the
    /// caller wrote it, for the error.
    fn checked(parts: Vec<String>, written: impl FnOnce(&[String]) -> String) -> UcResult<FullName> {
        if parts.is_empty() || parts.len() > 4 || parts.iter().any(|p| p.is_empty()) {
            return Err(UcError::InvalidArgument(format!("bad qualified name: {}", written(&parts))));
        }
        for p in &parts {
            validate_object_name(p)?;
        }
        Ok(FullName { parts })
    }

    pub fn of(parts: &[&str]) -> FullName {
        FullName { parts: parts.iter().map(|s| s.to_string()).collect() }
    }

    pub fn catalog(&self) -> &str {
        &self.parts[0]
    }

    pub fn schema(&self) -> Option<&str> {
        self.parts.get(1).map(|s| s.as_str())
    }

    pub fn asset(&self) -> Option<&str> {
        self.parts.get(2).map(|s| s.as_str())
    }

    pub fn len(&self) -> usize {
        self.parts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl fmt::Display for FullName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.parts.join("."))
    }
}

/// Validate an object name: non-empty, ≤ 255 chars, identifier-ish.
pub fn validate_object_name(name: &str) -> UcResult<()> {
    if name.is_empty() || name.len() > 255 {
        return Err(UcError::InvalidArgument(format!(
            "name must be 1–255 characters, got {:?}",
            name
        )));
    }
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return Err(UcError::InvalidArgument("empty object name".into()));
    };
    if !(first.is_ascii_alphabetic() || first == '_') {
        return Err(UcError::InvalidArgument(format!(
            "name must start with a letter or underscore: {name:?}"
        )));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(UcError::InvalidArgument(format!(
            "name may contain only alphanumerics, '_' and '-': {name:?}"
        )));
    }
    Ok(())
}

/// Who allocated a table's storage, plus the derived/federated variants —
/// the classification behind the paper's Fig 6(b) and Fig 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TableType {
    /// The catalog allocates and owns the storage path.
    Managed,
    /// The user brings an existing path under an external location.
    External,
    /// A SQL view over other relations.
    View,
    /// Mirrored from a foreign catalog via federation.
    Foreign,
    /// A shallow clone sharing the base table's data files.
    ShallowClone,
}

impl TableType {
    pub fn as_str(self) -> &'static str {
        match self {
            TableType::Managed => "MANAGED",
            TableType::External => "EXTERNAL",
            TableType::View => "VIEW",
            TableType::Foreign => "FOREIGN",
            TableType::ShallowClone => "SHALLOW_CLONE",
        }
    }

    pub fn parse(s: &str) -> Option<TableType> {
        match s {
            "MANAGED" => Some(TableType::Managed),
            "EXTERNAL" => Some(TableType::External),
            "VIEW" => Some(TableType::View),
            "FOREIGN" => Some(TableType::Foreign),
            "SHALLOW_CLONE" => Some(TableType::ShallowClone),
            _ => None,
        }
    }
}

/// Storage format of tabular data (Fig 8a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TableFormat {
    Delta,
    Iceberg,
    Parquet,
    Csv,
}

impl TableFormat {
    pub fn as_str(self) -> &'static str {
        match self {
            TableFormat::Delta => "DELTA",
            TableFormat::Iceberg => "ICEBERG",
            TableFormat::Parquet => "PARQUET",
            TableFormat::Csv => "CSV",
        }
    }

    pub fn parse(s: &str) -> Option<TableFormat> {
        match s {
            "DELTA" => Some(TableFormat::Delta),
            "ICEBERG" => Some(TableFormat::Iceberg),
            "PARQUET" => Some(TableFormat::Parquet),
            "CSV" => Some(TableFormat::Csv),
            _ => None,
        }
    }
}

/// Lifecycle state of an entity (§4.2.1 "Lifecycle").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LifecycleState {
    /// Being created; resources may still be provisioning.
    Provisioning,
    /// Live and addressable.
    Active,
    /// Soft-deleted: invisible to the namespace, awaiting GC.
    SoftDeleted,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_and_views_share_a_name_group() {
        assert_eq!(SecurableKind::Table.name_group(), SecurableKind::View.name_group());
        assert_ne!(SecurableKind::Table.name_group(), SecurableKind::Volume.name_group());
    }

    #[test]
    fn full_name_parses_three_levels() {
        let n = FullName::parse("main.sales.orders").unwrap();
        assert_eq!(n.catalog(), "main");
        assert_eq!(n.schema(), Some("sales"));
        assert_eq!(n.asset(), Some("orders"));
        assert_eq!(n.to_string(), "main.sales.orders");
    }

    #[test]
    fn full_name_rejects_bad_input() {
        assert!(FullName::parse("").is_err());
        assert!(FullName::parse("a..b").is_err());
        assert!(FullName::parse("a.b.c.d.e").is_err());
        assert!(FullName::parse("1abc").is_err());
        assert!(FullName::parse("a b").is_err());
    }

    #[test]
    fn object_name_validation() {
        assert!(validate_object_name("orders").is_ok());
        assert!(validate_object_name("_tmp-1").is_ok());
        assert!(validate_object_name("").is_err());
        assert!(validate_object_name("9lives").is_err());
        assert!(validate_object_name("has space").is_err());
        assert!(validate_object_name(&"x".repeat(256)).is_err());
        assert!(validate_object_name(&"x".repeat(255)).is_ok());
    }

    #[test]
    fn table_type_and_format_roundtrip() {
        for t in [
            TableType::Managed,
            TableType::External,
            TableType::View,
            TableType::Foreign,
            TableType::ShallowClone,
        ] {
            assert_eq!(TableType::parse(t.as_str()), Some(t));
        }
        for f in [TableFormat::Delta, TableFormat::Iceberg, TableFormat::Parquet, TableFormat::Csv] {
            assert_eq!(TableFormat::parse(f.as_str()), Some(f));
        }
        assert_eq!(TableType::parse("NOPE"), None);
    }
}
