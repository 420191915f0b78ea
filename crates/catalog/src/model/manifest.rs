//! The declarative asset-type registry (§4.2.2's adapter layer).
//!
//! Each securable kind registers a manifest holding exactly what the core
//! reads where behaviour depends on the kind: the privilege that gates
//! creating one, the privileges that gate its data when vending, which
//! privileges are grantable on it, which fields clients may update, where
//! its managed storage is allocated, and a validation hook for its
//! properties. Reads, listings and drops never look at it.
//!
//! `validate` runs on every create and update by construction: there is
//! one create (`UnityCatalog::create_entity`) and one update
//! (`update_entity_by_id`). Adding an asset type (as §4.2.3 did for MLflow
//! registered models) costs a manifest entry here, a row in the op table
//! ([`crate::ops`]) and an entry function of pre-flight + fill —
//! `api_enter`, the guard's gate, any authorization of the kind's own, a
//! closure setting its properties — and no change to namespace,
//! lifecycle, grants, vending or audit code.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::authz::privilege::Privilege;
use crate::error::{UcError, UcResult};
use crate::model::entity::{props, Entity};
use crate::types::SecurableKind;

/// Static description of one asset type.
pub struct AssetTypeManifest {
    pub kind: SecurableKind,
    /// Privilege required on the parent container to create one.
    pub create_privilege: Option<Privilege>,
    /// Privilege that grants reading the asset's data.
    pub read_data_privilege: Option<Privilege>,
    /// Privilege that grants writing the asset's data.
    pub write_data_privilege: Option<Privilege>,
    /// Privileges that may be granted on this kind.
    pub grantable: &'static [Privilege],
    /// Client-updatable fields (everything else is rejected).
    pub updatable_fields: &'static [&'static str],
    /// Sub-directory of the metastore root its managed storage is
    /// allocated in; `None` for kinds the catalog allocates no path for.
    pub managed_subdir: Option<&'static str>,
    /// Kind-specific property validation, run on create and update.
    pub validate: fn(&Entity) -> UcResult<()>,
}

fn no_validation(_: &Entity) -> UcResult<()> {
    Ok(())
}

fn validate_table(e: &Entity) -> UcResult<()> {
    e.table_schema()?; // must parse
    if e.table_type().is_none() {
        return Err(UcError::InvalidArgument("table requires table_type".into()));
    }
    if e.table_format().is_none() && e.table_type() != Some(crate::types::TableType::Foreign) {
        return Err(UcError::InvalidArgument("table requires a storage format".into()));
    }
    Ok(())
}

fn validate_view(e: &Entity) -> UcResult<()> {
    e.table_schema()?;
    if !e.properties.contains_key(props::VIEW_SQL) {
        return Err(UcError::InvalidArgument("view requires view_sql".into()));
    }
    Ok(())
}

fn validate_comment_len(e: &Entity) -> UcResult<()> {
    if let Some(c) = &e.comment {
        if c.len() > 4096 {
            return Err(UcError::InvalidArgument("comment exceeds 4096 characters".into()));
        }
    }
    Ok(())
}

fn validate_model_version(e: &Entity) -> UcResult<()> {
    let v = e
        .properties
        .get(props::MODEL_VERSION)
        .ok_or_else(|| UcError::InvalidArgument("model version requires a number".into()))?;
    v.parse::<u64>()
        .map_err(|_| UcError::InvalidArgument(format!("bad model version: {v}")))?;
    Ok(())
}

fn validate_storage_credential(e: &Entity) -> UcResult<()> {
    for required in [props::BUCKET, props::ROOT_SECRET] {
        if !e.properties.contains_key(required) {
            return Err(UcError::InvalidArgument(format!(
                "storage credential requires property {required}"
            )));
        }
    }
    Ok(())
}

fn validate_external_location(e: &Entity) -> UcResult<()> {
    if e.storage_path.is_none() {
        return Err(UcError::InvalidArgument("external location requires a path".into()));
    }
    Ok(())
}

fn validate_connection(e: &Entity) -> UcResult<()> {
    if !e.properties.contains_key(props::ENDPOINT) {
        return Err(UcError::InvalidArgument("connection requires an endpoint".into()));
    }
    Ok(())
}

const CONTAINER_GRANTS: &[Privilege] = &[
    Privilege::UseCatalog,
    Privilege::UseSchema,
    Privilege::Select,
    Privilege::Modify,
    Privilege::CreateSchema,
    Privilege::CreateTable,
    Privilege::CreateVolume,
    Privilege::CreateModel,
    Privilege::CreateFunction,
    Privilege::ReadVolume,
    Privilege::WriteVolume,
    Privilege::Execute,
    Privilege::Manage,
    Privilege::All,
];

fn build_registry() -> HashMap<SecurableKind, AssetTypeManifest> {
    let mut m = HashMap::new();
    let mut add = |manifest: AssetTypeManifest| {
        m.insert(manifest.kind, manifest);
    };

    add(AssetTypeManifest {
        kind: SecurableKind::Metastore,
        create_privilege: None, // account-level operation
        read_data_privilege: None,
        write_data_privilege: None,
        grantable: &[
            Privilege::CreateCatalog,
            Privilege::CreateExternalLocation,
            Privilege::CreateConnection,
            Privilege::CreateShare,
            Privilege::Manage,
            Privilege::All,
        ],
        updatable_fields: &["comment"],
        managed_subdir: None,
        validate: validate_comment_len,
    });
    add(AssetTypeManifest {
        kind: SecurableKind::Catalog,
        create_privilege: Some(Privilege::CreateCatalog),
        read_data_privilege: None,
        write_data_privilege: None,
        grantable: CONTAINER_GRANTS,
        updatable_fields: &["comment", "owner"],
        managed_subdir: None,
        validate: validate_comment_len,
    });
    add(AssetTypeManifest {
        kind: SecurableKind::Schema,
        create_privilege: Some(Privilege::CreateSchema),
        read_data_privilege: None,
        write_data_privilege: None,
        grantable: CONTAINER_GRANTS,
        updatable_fields: &["comment", "owner"],
        managed_subdir: None,
        validate: validate_comment_len,
    });
    add(AssetTypeManifest {
        kind: SecurableKind::Table,
        create_privilege: Some(Privilege::CreateTable),
        read_data_privilege: Some(Privilege::Select),
        write_data_privilege: Some(Privilege::Modify),
        grantable: &[Privilege::Select, Privilege::Modify, Privilege::Manage, Privilege::All],
        updatable_fields: &["comment", "owner"],
        managed_subdir: Some("tables"),
        validate: validate_table,
    });
    add(AssetTypeManifest {
        kind: SecurableKind::View,
        create_privilege: Some(Privilege::CreateTable),
        read_data_privilege: Some(Privilege::Select),
        write_data_privilege: None, // views are not writable
        grantable: &[Privilege::Select, Privilege::Manage, Privilege::All],
        updatable_fields: &["comment", "owner"],
        managed_subdir: None,
        validate: validate_view,
    });
    add(AssetTypeManifest {
        kind: SecurableKind::Volume,
        create_privilege: Some(Privilege::CreateVolume),
        read_data_privilege: Some(Privilege::ReadVolume),
        write_data_privilege: Some(Privilege::WriteVolume),
        grantable: &[
            Privilege::ReadVolume,
            Privilege::WriteVolume,
            Privilege::Manage,
            Privilege::All,
        ],
        updatable_fields: &["comment", "owner"],
        managed_subdir: Some("volumes"),
        validate: validate_comment_len,
    });
    add(AssetTypeManifest {
        kind: SecurableKind::Function,
        create_privilege: Some(Privilege::CreateFunction),
        read_data_privilege: Some(Privilege::Execute),
        write_data_privilege: None,
        grantable: &[Privilege::Execute, Privilege::Manage, Privilege::All],
        updatable_fields: &["comment", "owner"],
        managed_subdir: None,
        validate: no_validation,
    });
    add(AssetTypeManifest {
        kind: SecurableKind::RegisteredModel,
        create_privilege: Some(Privilege::CreateModel),
        read_data_privilege: Some(Privilege::Execute),
        write_data_privilege: Some(Privilege::Modify),
        grantable: &[Privilege::Execute, Privilege::Modify, Privilege::Manage, Privilege::All],
        updatable_fields: &["comment", "owner"],
        managed_subdir: Some("models"),
        validate: validate_comment_len,
    });
    add(AssetTypeManifest {
        kind: SecurableKind::ModelVersion,
        create_privilege: Some(Privilege::Modify), // on the registered model
        read_data_privilege: Some(Privilege::Execute),
        write_data_privilege: Some(Privilege::Modify),
        grantable: &[],
        updatable_fields: &["comment"],
        managed_subdir: None,
        validate: validate_model_version,
    });
    add(AssetTypeManifest {
        kind: SecurableKind::StorageCredential,
        create_privilege: Some(Privilege::CreateExternalLocation),
        read_data_privilege: None,
        write_data_privilege: None,
        grantable: &[Privilege::Manage, Privilege::All],
        updatable_fields: &["comment", "owner"],
        managed_subdir: None,
        validate: validate_storage_credential,
    });
    add(AssetTypeManifest {
        kind: SecurableKind::ExternalLocation,
        create_privilege: Some(Privilege::CreateExternalLocation),
        read_data_privilege: Some(Privilege::ReadVolume),
        write_data_privilege: Some(Privilege::WriteVolume),
        grantable: &[
            Privilege::ReadVolume,
            Privilege::WriteVolume,
            Privilege::CreateTable,
            Privilege::Manage,
            Privilege::All,
        ],
        updatable_fields: &["comment", "owner"],
        managed_subdir: None,
        validate: validate_external_location,
    });
    add(AssetTypeManifest {
        kind: SecurableKind::Connection,
        create_privilege: Some(Privilege::CreateConnection),
        read_data_privilege: None,
        write_data_privilege: None,
        grantable: &[Privilege::Manage, Privilege::All],
        updatable_fields: &["comment", "owner"],
        managed_subdir: None,
        validate: validate_connection,
    });
    add(AssetTypeManifest {
        kind: SecurableKind::Share,
        create_privilege: Some(Privilege::CreateShare),
        read_data_privilege: Some(Privilege::Select),
        write_data_privilege: None,
        grantable: &[Privilege::Select, Privilege::Manage, Privilege::All],
        updatable_fields: &["comment", "owner"],
        managed_subdir: None,
        validate: no_validation,
    });
    m
}

/// The global asset-type registry.
pub fn registry() -> &'static HashMap<SecurableKind, AssetTypeManifest> {
    static REGISTRY: OnceLock<HashMap<SecurableKind, AssetTypeManifest>> = OnceLock::new();
    REGISTRY.get_or_init(build_registry)
}

/// Look up one kind's manifest. Every kind is registered.
#[expect(clippy::expect_used, reason = "the registry is total over SecurableKind; a miss is a code bug")]
pub fn manifest(kind: SecurableKind) -> &'static AssetTypeManifest {
    registry().get(&kind).expect("all kinds registered")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Uid;

    #[test]
    fn every_kind_is_registered() {
        for kind in [
            SecurableKind::Metastore,
            SecurableKind::Catalog,
            SecurableKind::Schema,
            SecurableKind::Table,
            SecurableKind::View,
            SecurableKind::Volume,
            SecurableKind::Function,
            SecurableKind::RegisteredModel,
            SecurableKind::ModelVersion,
            SecurableKind::StorageCredential,
            SecurableKind::ExternalLocation,
            SecurableKind::Connection,
            SecurableKind::Share,
        ] {
            assert_eq!(manifest(kind).kind, kind);
        }
    }

    #[test]
    fn only_table_volume_and_model_have_managed_storage() {
        let placed: Vec<(SecurableKind, &str)> = registry()
            .values()
            .filter_map(|m| Some((m.kind, m.managed_subdir?)))
            .collect();
        assert_eq!(placed.len(), 3, "{placed:?}");
        assert_eq!(manifest(SecurableKind::Table).managed_subdir, Some("tables"));
        assert_eq!(manifest(SecurableKind::Volume).managed_subdir, Some("volumes"));
        assert_eq!(manifest(SecurableKind::RegisteredModel).managed_subdir, Some("models"));
    }

    #[test]
    fn table_validation_requires_schema_and_type() {
        let mut e = Entity::new(SecurableKind::Table, "t", None, Uid::from("ms"), "o", 0);
        assert!((manifest(SecurableKind::Table).validate)(&e).is_err());
        e.set_table_schema(&uc_delta::value::Schema::default());
        assert!((manifest(SecurableKind::Table).validate)(&e).is_err());
        e.properties.insert(props::TABLE_TYPE.into(), "MANAGED".into());
        e.properties.insert(props::FORMAT.into(), "DELTA".into());
        assert!((manifest(SecurableKind::Table).validate)(&e).is_ok());
    }

    #[test]
    fn foreign_table_needs_no_format() {
        let mut e = Entity::new(SecurableKind::Table, "t", None, Uid::from("ms"), "o", 0);
        e.set_table_schema(&uc_delta::value::Schema::default());
        e.properties.insert(props::TABLE_TYPE.into(), "FOREIGN".into());
        assert!((manifest(SecurableKind::Table).validate)(&e).is_ok());
    }

    #[test]
    fn comment_length_is_validated() {
        let mut e = Entity::new(SecurableKind::Catalog, "c", None, Uid::from("ms"), "o", 0);
        e.comment = Some("ok".into());
        assert!((manifest(SecurableKind::Catalog).validate)(&e).is_ok());
        e.comment = Some("x".repeat(5000));
        assert!((manifest(SecurableKind::Catalog).validate)(&e).is_err());
    }

    #[test]
    fn model_version_validation() {
        let mut e = Entity::new(SecurableKind::ModelVersion, "v1", None, Uid::from("ms"), "o", 0);
        assert!((manifest(SecurableKind::ModelVersion).validate)(&e).is_err());
        e.properties.insert(props::MODEL_VERSION.into(), "nope".into());
        assert!((manifest(SecurableKind::ModelVersion).validate)(&e).is_err());
        e.properties.insert(props::MODEL_VERSION.into(), "3".into());
        assert!((manifest(SecurableKind::ModelVersion).validate)(&e).is_ok());
    }

    #[test]
    fn data_privileges_match_kinds() {
        assert_eq!(manifest(SecurableKind::Table).read_data_privilege, Some(Privilege::Select));
        assert_eq!(manifest(SecurableKind::Volume).read_data_privilege, Some(Privilege::ReadVolume));
        assert_eq!(
            manifest(SecurableKind::RegisteredModel).read_data_privilege,
            Some(Privilege::Execute)
        );
        assert_eq!(manifest(SecurableKind::View).write_data_privilege, None);
    }
}
