//! CRUD APIs for all securable kinds — the uniform core the asset-type
//! manifests plug into (§4.2).

use std::sync::Arc;

use uc_cloudstore::{AccessLevel, RootCredential, StoragePath};
use uc_delta::value::Schema;

use crate::audit::Reason;
use crate::authz::decision::{AuthzContext, Need};
use crate::authz::Privilege;
use crate::cache::{MsCache, WriteEffects};
use crate::error::{UcError, UcResult};
use crate::events::ChangeOp;
use crate::ids::Uid;
use crate::model::entity::{props, Entity};
use crate::model::feed::FeedEvent;
use crate::model::keys::{self, T_COMMIT, T_ENTITY, T_TRASH, T_TREE};
use crate::model::manifest::manifest;
use crate::model::paths;
use crate::model::treekey;
use crate::ops::{self, Op};
use crate::service::{live_key, tree_children, ApiGuard, Context, UnityCatalog};
use crate::types::{
    validate_object_name, FullName, LifecycleState, SecurableKind, TableFormat, TableType,
};

/// Everything needed to create a table.
#[derive(Debug, Clone)]
pub struct TableSpec {
    pub name: FullName,
    pub columns: Schema,
    pub format: TableFormat,
    pub table_type: TableType,
    /// Required for external tables; forbidden for managed ones.
    pub storage_path: Option<String>,
    /// Connector type for foreign tables.
    pub foreign_type: Option<String>,
}

impl TableSpec {
    pub fn managed(name: &str, columns: Schema) -> UcResult<Self> {
        Ok(TableSpec {
            name: FullName::parse(name)?,
            columns,
            format: TableFormat::Delta,
            table_type: TableType::Managed,
            storage_path: None,
            foreign_type: None,
        })
    }

    pub fn external(name: &str, columns: Schema, path: &str, format: TableFormat) -> UcResult<Self> {
        Ok(TableSpec {
            name: FullName::parse(name)?,
            columns,
            format,
            table_type: TableType::External,
            storage_path: Some(path.to_string()),
            foreign_type: None,
        })
    }
}

/// One schema's worth of a bulk namespace import: the schema name and its
/// table names, all created under one catalog by
/// [`UnityCatalog::bulk_create_tables`].
#[derive(Debug, Clone)]
pub struct BulkSchemaSpec {
    pub name: String,
    pub tables: Vec<String>,
}

impl UnityCatalog {
    // ------------------------------------------------------------------
    // Metastore lifecycle
    // ------------------------------------------------------------------

    /// Create a metastore. Account-level: the creator becomes owner and
    /// first admin.
    pub fn create_metastore(&self, principal: &str, name: &str, region: &str) -> UcResult<Uid> {
        let caller = Context::user(principal);
        let api = self.api_enter(Op::CREATE_METASTORE, Some(&caller), None);
        validate_object_name(name)?;
        let now = self.now_ms();
        let mut ent = Entity::new(SecurableKind::Metastore, name, None, Uid::from(""), principal, now);
        ent.properties.insert(props::REGION.to_string(), region.to_string());
        ent.governance_mut().admins.push(principal.to_string());
        let ms = ent.id.clone();
        // Register the human-readable label alias before the first write:
        // any telemetry emitted for this metastore from here on renders
        // the name, never the random uid.
        self.register_tenant_alias(&ms, name);
        self.write_ms(&ms, |tx, _ver, fx| {
            fx.create_at(tx, ent.clone(), keys::tree_ms_prefix(&ms));
            Ok(())
        })?;
        api.audit.allow(&ms, name);
        Ok(ms)
    }

    /// Fetch the metastore entity.
    pub fn get_metastore(&self, ms: &Uid) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter(Op::GET_METASTORE, None, Some(ms));
        Ok(self.metastore_chain(ms)?.swap_remove(0))
    }

    /// Set the managed-storage root for a metastore (admin only).
    pub fn set_metastore_root(&self, ctx: &Context, ms: &Uid, root_path: &str) -> UcResult<()> {
        let api = self.api_enter(Op::SET_METASTORE_ROOT, Some(ctx), Some(ms));
        StoragePath::parse(root_path).map_err(|e| UcError::InvalidArgument(e.to_string()))?;
        api.audit.gate(&self.metastore_chain(ms)?, Need::MetastoreAdmin, root_path)?;
        self.update_entity_by_id(ms, ms, ChangeOp::Update, |e| {
            e.properties.insert(props::ROOT_LOCATION.to_string(), root_path.to_string());
            Ok(())
        })?;
        api.audit.allow(ms, root_path);
        Ok(())
    }

    /// Add a metastore admin (admin only).
    pub fn add_metastore_admin(&self, ctx: &Context, ms: &Uid, principal: &str) -> UcResult<()> {
        let api = self.api_enter(Op::ADD_METASTORE_ADMIN, Some(ctx), Some(ms));
        api.audit.gate(&self.metastore_chain(ms)?, Need::MetastoreAdmin, principal)?;
        self.update_entity_by_id(ms, ms, ChangeOp::Update, |e| {
            let admins = &mut e.governance_mut().admins;
            if !admins.iter().any(|a| a == principal) {
                admins.push(principal.to_string());
            }
            Ok(())
        })?;
        api.audit.allow(ms, principal);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Storage configuration assets
    // ------------------------------------------------------------------

    /// Register a storage credential: the catalog becomes the holder of
    /// the bucket's root credential (clients never see it).
    pub fn create_storage_credential(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &str,
        root: &RootCredential,
    ) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::CREATE_STORAGE_CREDENTIAL, Some(ctx), Some(ms));
        let top = self.metastore_chain(ms)?;
        let need = Need::MetastoreAdminOr(Privilege::CreateExternalLocation);
        api.audit.gate(&top, need, name)?;
        let created = self.create_entity(ctx, SecurableKind::StorageCredential, &top, name, name, |_tx, ent| {
            ent.properties.insert(props::BUCKET.to_string(), root.bucket.clone());
            ent.properties.insert(props::ROOT_SECRET.to_string(), root.secret.to_string());
            Ok(())
        })?;
        api.audit.allow(&created.id, name);
        Ok(created)
    }

    /// Create an external location covering a path, backed by a storage
    /// credential. External locations may not overlap one another.
    pub fn create_external_location(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &str,
        path: &str,
        credential_name: &str,
    ) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::CREATE_EXTERNAL_LOCATION, Some(ctx), Some(ms));
        let parsed = StoragePath::parse(path).map_err(|e| UcError::InvalidArgument(e.to_string()))?;
        let top = self.metastore_chain(ms)?;
        let need = Need::MetastoreAdminOr(Privilege::CreateExternalLocation);
        api.audit.gate(&top, need, name)?;
        // The credential must exist and cover the bucket.
        let cred_key = keys::tree_key(ms, &[(SecurableKind::StorageCredential.name_group(), credential_name)]);
        let cred = self
            .chain_at_key(ms, &cred_key)?
            .ok_or_else(|| UcError::NotFound(format!("storage credential {credential_name}")))?
            .swap_remove(0);
        if cred.properties.get(props::BUCKET).map(|b| b.as_str()) != Some(parsed.bucket()) {
            return Err(UcError::InvalidArgument(format!(
                "credential {credential_name} does not cover bucket {}",
                parsed.bucket()
            )));
        }
        let created = self.create_entity(ctx, SecurableKind::ExternalLocation, &top, name, name, |tx, ent| {
            // Overlap check against existing external locations (small set;
            // the scan is in the transaction's validated read set).
            for other in tree_children(
                &self.cache.for_metastore(ms),
                |p| tx.scan_prefix(T_TREE, p),
                &keys::tree_ms_prefix(ms),
                Some(SecurableKind::ExternalLocation.name_group()),
            )? {
                if let Some(op) = other.storage_path.as_ref().and_then(|p| StoragePath::parse(p).ok()) {
                    if op.overlaps(&parsed) {
                        return Err(UcError::PathConflict {
                            requested: parsed.to_string(),
                            existing: op.to_string(),
                        });
                    }
                }
            }
            ent.storage_path = Some(parsed.to_string());
            ent.properties.insert(props::CREDENTIAL.to_string(), credential_name.to_string());
            Ok(())
        })?;
        api.audit.allow(&created.id, path);
        Ok(created)
    }

    // ------------------------------------------------------------------
    // Containers
    // ------------------------------------------------------------------

    /// Create a catalog in the metastore.
    pub fn create_catalog(&self, ctx: &Context, ms: &Uid, name: &str) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::CREATE_CATALOG, Some(ctx), Some(ms));
        let top = self.metastore_chain(ms)?;
        api.audit.gate(&top, Need::MetastoreAdminOr(Privilege::CreateCatalog), name)?;
        let created = self.create_entity(ctx, SecurableKind::Catalog, &top, name, name, |_tx, _ent| Ok(()))?;
        api.audit.allow(&created.id, name);
        Ok(created)
    }

    /// Create a schema inside a catalog.
    pub fn create_schema(&self, ctx: &Context, ms: &Uid, catalog: &str, name: &str) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::CREATE_SCHEMA, Some(ctx), Some(ms));
        let full = self.chain_by_name(ms, &FullName::of(&[catalog]), "catalog")?;
        api.audit.gate(&full, Need::AdminOrAny(&[Privilege::CreateSchema]), name)?;
        let created = self.create_entity(ctx, SecurableKind::Schema, &full, name, format_args!("{catalog}.{name}"), |_tx, _ent| Ok(()))?;
        api.audit.allow(&created.id, name);
        Ok(created)
    }

    // ------------------------------------------------------------------
    // Leaf assets
    // ------------------------------------------------------------------

    /// Shared pre-flight for creating a leaf asset under a schema:
    /// resolves the parent chain and checks the create privilege. Returns
    /// the schema's full chain, the caller's context and the leaf segment
    /// of `name`.
    fn authorize_create_in_schema<'a>(
        &self,
        api: &ApiGuard<'_>,
        ms: &Uid,
        name: &'a FullName,
        kind: SecurableKind,
    ) -> UcResult<(Vec<Arc<Entity>>, AuthzContext, &'a str)> {
        let (Some(schema_name), Some(leaf), 3) = (name.schema(), name.asset(), name.len()) else {
            return Err(UcError::InvalidArgument(format!("expected catalog.schema.name, got {name}")));
        };
        let full = self.chain_by_name(ms, &FullName::of(&[name.catalog(), schema_name]), "schema")?;
        let Some(needed) = manifest(kind).create_privilege else {
            return Err(UcError::UnsupportedOperation(format!("{kind} cannot be created in a schema")));
        };
        let who = api.audit.gate(&full, Need::AdminOrAny(&[needed]), name)?;
        Ok((full, who, leaf))
    }

    /// Storage placement for every storage-backed kind: the `explicit`
    /// path, or a managed one under the metastore root (on the entity that
    /// ends the parent's `chain`) in the kind's manifest sub-directory —
    /// registered in the path index inside this transaction (one asset per
    /// path) and recorded on the entity.
    fn place(
        tx: &mut uc_txdb::WriteTxn,
        chain: &[Arc<Entity>],
        ent: &mut Entity,
        explicit: Option<&StoragePath>,
    ) -> UcResult<()> {
        let path = match explicit {
            Some(p) => p.clone(),
            None => {
                let subdir = manifest(ent.kind).managed_subdir.ok_or_else(|| {
                    UcError::UnsupportedOperation(format!("{} has no managed storage", ent.kind))
                })?;
                let root = chain
                    .last()
                    .and_then(|ms_ent| ms_ent.properties.get(props::ROOT_LOCATION))
                    .ok_or_else(|| UcError::InvalidArgument(
                        "metastore has no root location configured for managed storage".into(),
                    ))?;
                let root = StoragePath::parse(root).map_err(|e| UcError::Storage(e.to_string()))?;
                root.child(subdir).child(ent.id.as_str())
            }
        };
        paths::register_path(tx, &ent.metastore, &path, &ent.id)?;
        ent.storage_path = Some(path.to_string());
        Ok(())
    }

    /// What every table row carries, whichever create wrote it.
    fn fill_table(ent: &mut Entity, columns: &Schema, table_type: TableType, format: TableFormat) {
        ent.set_table_schema(columns);
        ent.properties.insert(props::TABLE_TYPE.to_string(), table_type.as_str().to_string());
        ent.properties.insert(props::FORMAT.to_string(), format.as_str().to_string());
    }

    /// For external assets: find the external location covering `path` and
    /// require a creation-enabling privilege on it.
    fn authorize_external_path(
        &self,
        api: &ApiGuard<'_>,
        who: &AuthzContext,
        ms: &Uid,
        path: &StoragePath,
    ) -> UcResult<()> {
        if who.is_metastore_admin {
            return Ok(());
        }
        let audit = api.audit.acting(ops::USE_EXTERNAL_PATH);
        // One scan yields every location at one snapshot; resolving ids
        // through the cache instead could mix in a later version.
        let rt = self.db.begin_read();
        let locations = tree_children(
            &self.cache.for_metastore(ms),
            |p| rt.scan_prefix(T_TREE, p),
            &keys::tree_ms_prefix(ms),
            Some(SecurableKind::ExternalLocation.name_group()),
        )?;
        crate::cache::history_read_event(crate::cache::read_ms_version(&rt, ms));
        for loc in locations {
            let Some(loc_path) = loc.storage_path.as_ref().and_then(|p| StoragePath::parse(p).ok())
            else {
                continue;
            };
            if loc_path.is_prefix_of(path) {
                // Its chain through the cache: dropped since the scan, it
                // covers nothing.
                let Some(chain) = self.chain_by_id(ms, &loc.id)? else { break };
                let need = Need::AdminOrAny(&[Privilege::CreateTable, Privilege::WriteVolume]);
                return audit.gate_with(who, &chain, need, path);
            }
        }
        Err(audit.refuse(None, path, Reason::NoExternalLocation, format!("no external location covers {path}")))
    }

    /// Create a table (managed or external or foreign).
    pub fn create_table(&self, ctx: &Context, ms: &Uid, spec: TableSpec) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::CREATE_TABLE, Some(ctx), Some(ms));
        let (full, who, leaf) =
            self.authorize_create_in_schema(&api, ms, &spec.name, SecurableKind::Table)?;
        match (spec.table_type, &spec.storage_path) {
            (TableType::Managed, Some(_)) => {
                return Err(UcError::InvalidArgument("managed tables may not specify a storage path".into()))
            }
            (TableType::External, None) => {
                return Err(UcError::InvalidArgument("external tables require a storage path".into()))
            }
            _ => {}
        }
        let explicit = spec.storage_path.as_deref().map(StoragePath::parse).transpose()
            .map_err(|e| UcError::InvalidArgument(e.to_string()))?;
        if let (Some(path), TableType::External) = (&explicit, spec.table_type) {
            self.authorize_external_path(&api, &who, ms, path)?;
        }
        let created = self.create_entity(ctx, SecurableKind::Table, &full, leaf, &spec.name, |tx, ent| {
            Self::fill_table(ent, &spec.columns, spec.table_type, spec.format);
            if let Some(ft) = &spec.foreign_type {
                ent.properties.insert(props::FOREIGN_TYPE.to_string(), ft.clone());
            }
            if spec.table_type == TableType::Managed || explicit.is_some() {
                Self::place(tx, &full, ent, explicit.as_ref())?;
            }
            Ok(())
        })?;
        api.audit.allow(&created.id, spec.name);
        Ok(created)
    }

    /// Bulk-import a namespace under a catalog: every schema in `specs`
    /// plus its tables, written through the normal write protocol in
    /// chunked transactions of about `chunk` assets each — the
    /// Record-Layer-style bulk load that makes 10⁵–10⁷-asset populations
    /// practical to build. Each chunk is one serializable commit with
    /// full write-through (tree index, cache, events);
    /// per-row cost is amortized by resolving each schema container once
    /// per chunk (one existence read plus one children scan for
    /// duplicate detection) instead of per table. Tables are created as
    /// managed Delta relations without storage allocation — bulk import
    /// loads metadata, not data. Existing schemas are reused and
    /// existing table names are skipped, so a resumed import converges.
    /// Metastore-admin only. Returns the number of entities created.
    pub fn bulk_create_tables(
        &self,
        ctx: &Context,
        ms: &Uid,
        catalog: &str,
        specs: &[BulkSchemaSpec],
        columns: &Schema,
        chunk: usize,
    ) -> UcResult<usize> {
        let api = self.api_enter(Op::BULK_CREATE_TABLES, Some(ctx), Some(ms));
        let mut full = self.chain_by_name(ms, &FullName::of(&[catalog]), "catalog")?;
        api.audit.gate(&full, Need::MetastoreAdmin, catalog)?;
        let cat = full.swap_remove(0);
        let chunk = chunk.max(1);
        let now = self.now_ms();
        let cache = self.cache.for_metastore(ms);
        let mut created = 0usize;
        // Container tree keys derive from names alone (catalogs do not
        // move), with no per-row reads.
        let mut cat_key = keys::tree_ms_prefix(ms);
        keys::tree_push_child(&mut cat_key, SecurableKind::Catalog.name_group(), catalog);
        for spec in specs {
            validate_object_name(&spec.name)?;
            let mut schema_key = cat_key.clone();
            keys::tree_push_child(&mut schema_key, SecurableKind::Schema.name_group(), &spec.name);
            let mut start = 0usize;
            let mut first = true;
            // The first chunk of a schema also ensures the schema row, so
            // an empty schema still costs exactly one commit.
            while first || start < spec.tables.len() {
                first = false;
                let end = (start + chunk).min(spec.tables.len());
                let batch = &spec.tables[start..end];
                created += self.write_ms(ms, |tx, _ver, fx| {
                    // Drops race bulk imports like any other create.
                    live_key(tx, ms, &cat.id, catalog)?;
                    let mut n = 0usize;
                    let schema_id = match tx.get(T_TREE, &schema_key) {
                        Some(raw) => cache.decoded(&schema_key, &raw)?.id.clone(),
                        None => {
                            let ent = Entity::new(
                                SecurableKind::Schema,
                                &spec.name,
                                Some(cat.id.clone()),
                                ms.clone(),
                                &ctx.principal,
                                now,
                            );
                            let arc = fx.create_at(tx, ent, schema_key.clone());
                            n += 1;
                            arc.id.clone()
                        }
                    };
                    // One children scan dedups the whole chunk; inserting
                    // as we go also catches duplicates within the batch.
                    let group_prefix =
                        keys::tree_group_prefix(&schema_key, SecurableKind::Table.name_group());
                    let mut existing: std::collections::HashSet<String> = tx
                        .scan_prefix(T_TREE, &group_prefix)
                        .into_iter()
                        .map(|(k, _)| k)
                        .collect();
                    for t in batch {
                        validate_object_name(t)?;
                        let mut tk = schema_key.clone();
                        keys::tree_push_child(&mut tk, SecurableKind::Table.name_group(), t);
                        if !existing.insert(tk.clone()) {
                            continue;
                        }
                        let mut ent = Entity::new(
                            SecurableKind::Table,
                            t,
                            Some(schema_id.clone()),
                            ms.clone(),
                            &ctx.principal,
                            now,
                        );
                        Self::fill_table(&mut ent, columns, TableType::Managed, TableFormat::Delta);
                        (manifest(ent.kind).validate)(&ent)?;
                        fx.create_at(tx, ent, tk);
                        n += 1;
                    }
                    Ok(n)
                })?;
                start = end;
            }
        }
        api.audit.allow(&cat.id, format!("{catalog} ({created} entities)"));
        Ok(created)
    }

    /// Create a shallow clone of a table: a new relation that shares the
    /// source's data files at a pinned version (zero-copy). Per §4.3.2,
    /// SELECT on the clone grants access to its data even without
    /// privileges on the base table — the same view-style semantics, so
    /// the base rides along as a resolved dependency.
    pub fn create_shallow_clone(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        source: &FullName,
        source_version: i64,
    ) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::CREATE_SHALLOW_CLONE, Some(ctx), Some(ms));
        let (full, who, leaf) =
            self.authorize_create_in_schema(&api, ms, name, SecurableKind::Table)?;
        let src_full = self.chain_by_name(ms, source, "relation")?;
        let src = src_full[0].clone();
        if src.kind != SecurableKind::Table || src.storage_path.is_none() {
            return Err(UcError::InvalidArgument(format!(
                "{source} is not a cloneable storage-backed table"
            )));
        }
        // the cloner must be able to read the source
        api.audit.gate_with(&who, &src_full, Need::Data(Privilege::Select), source)?;
        let created = self.create_entity(ctx, SecurableKind::Table, &full, leaf, name, |_tx, ent| {
            ent.set_table_schema(&src.table_schema()?);
            ent.properties
                .insert(props::TABLE_TYPE.to_string(), TableType::ShallowClone.as_str().to_string());
            if let Some(f) = src.properties.get(props::FORMAT) {
                ent.properties.insert(props::FORMAT.to_string(), f.clone());
            }
            ent.properties.insert(props::CLONE_BASE.to_string(), src.id.to_string());
            ent.properties
                .insert(props::CLONE_VERSION.to_string(), source_version.to_string());
            // The clone has no storage of its own: data access flows
            // through the resolved base dependency.
            ent.set_dependencies(std::slice::from_ref(&src.id));
            Ok(())
        })?;
        api.audit.allow(&created.id, format!("{source} -> {name}"));
        Ok(created)
    }

    /// Create a view over other relations. The creator must be able to
    /// read every base relation; afterwards, SELECT on the view suffices
    /// for readers (view-based access control, §4.3.2).
    pub fn create_view(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        view_sql: &str,
        columns: Schema,
        dependencies: &[FullName],
    ) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::CREATE_VIEW, Some(ctx), Some(ms));
        let (full, who, leaf) =
            self.authorize_create_in_schema(&api, ms, name, SecurableKind::View)?;
        let mut dep_ids = Vec::new();
        for dep in dependencies {
            // the creator must be able to read every base relation
            let dep_full = self.chain_by_name(ms, dep, "relation")?;
            api.audit.gate_with(&who, &dep_full, Need::Data(Privilege::Select), dep)?;
            dep_ids.push(dep_full[0].id.clone());
        }
        let created = self.create_entity(ctx, SecurableKind::View, &full, leaf, name, |_tx, ent| {
            ent.set_table_schema(&columns);
            ent.properties.insert(props::TABLE_TYPE.to_string(), TableType::View.as_str().to_string());
            ent.properties.insert(props::VIEW_SQL.to_string(), view_sql.to_string());
            ent.set_dependencies(&dep_ids);
            Ok(())
        })?;
        api.audit.allow(&created.id, name);
        Ok(created)
    }

    /// Create a volume (managed unless an external path is given).
    pub fn create_volume(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        external_path: Option<&str>,
    ) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::CREATE_VOLUME, Some(ctx), Some(ms));
        let (full, who, leaf) =
            self.authorize_create_in_schema(&api, ms, name, SecurableKind::Volume)?;
        let explicit = external_path.map(StoragePath::parse).transpose()
            .map_err(|e| UcError::InvalidArgument(e.to_string()))?;
        if let Some(path) = &explicit {
            self.authorize_external_path(&api, &who, ms, path)?;
        }
        let created = self.create_entity(ctx, SecurableKind::Volume, &full, leaf, name, |tx, ent| {
            Self::place(tx, &full, ent, explicit.as_ref())?;
            ent.properties.insert(
                props::TABLE_TYPE.to_string(),
                if explicit.is_some() { "EXTERNAL" } else { "MANAGED" }.to_string(),
            );
            Ok(())
        })?;
        api.audit.allow(&created.id, name);
        Ok(created)
    }

    /// Create a SQL function.
    pub fn create_function(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        body: &str,
    ) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::CREATE_FUNCTION, Some(ctx), Some(ms));
        let (full, _who, leaf) =
            self.authorize_create_in_schema(&api, ms, name, SecurableKind::Function)?;
        let created = self.create_entity(ctx, SecurableKind::Function, &full, leaf, name, |_tx, ent| {
            ent.properties.insert(props::BODY.to_string(), body.to_string());
            Ok(())
        })?;
        api.audit.allow(&created.id, name);
        Ok(created)
    }

    /// Create a registered model (the MLflow registry asset type, §4.2.3).
    pub fn create_registered_model(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
    ) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::CREATE_REGISTERED_MODEL, Some(ctx), Some(ms));
        let (full, _who, leaf) =
            self.authorize_create_in_schema(&api, ms, name, SecurableKind::RegisteredModel)?;
        let created = self.create_entity(ctx, SecurableKind::RegisteredModel, &full, leaf, name, |tx, ent| {
            ent.properties.insert(props::NEXT_VERSION.to_string(), "1".to_string());
            Self::place(tx, &full, ent, None)
        })?;
        api.audit.allow(&created.id, name);
        Ok(created)
    }

    /// Create the next version of a registered model. Returns the version
    /// entity and its number. The version's artifacts live under the
    /// model's managed path (governed by the model's chain, so the path is
    /// deliberately not separately registered in the path index).
    pub fn create_model_version(
        &self,
        ctx: &Context,
        ms: &Uid,
        model_name: &FullName,
    ) -> UcResult<(Arc<Entity>, u64)> {
        let api = self.api_enter(Op::CREATE_MODEL_VERSION, Some(ctx), Some(ms));
        let full = self.chain_by_name(ms, model_name, SecurableKind::RegisteredModel.name_group())?;
        let model = full[0].clone();
        if model.kind != SecurableKind::RegisteredModel {
            return Err(UcError::InvalidArgument(format!("{model_name} is not a model")));
        }
        api.audit.gate(&full, Need::AdminOrAny(&[Privilege::Modify]), model_name)?;
        let now = self.now_ms();
        let result = self.write_ms(ms, |tx, _ver, fx| {
            // Re-read the model inside the transaction for a race-free
            // version counter.
            let (mut model_now, model_key) = self.live_entity(tx, ms, &model.id, model_name)?;
            let version: u64 = model_now
                .properties
                .get(props::NEXT_VERSION)
                .and_then(|s| s.parse().ok())
                .unwrap_or(1);
            model_now
                .properties
                .insert(props::NEXT_VERSION.to_string(), (version + 1).to_string());
            model_now.updated_at_ms = now;

            let mut ver_ent = Entity::new(
                SecurableKind::ModelVersion,
                &format!("v{version}"),
                Some(model.id.clone()),
                ms.clone(),
                &ctx.principal,
                now,
            );
            ver_ent.properties.insert(props::MODEL_VERSION.to_string(), version.to_string());
            ver_ent.properties.insert(props::MODEL_STAGE.to_string(), "None".to_string());
            if let Some(base) = &model_now.storage_path {
                ver_ent.storage_path = Some(format!("{base}/v{version}"));
            }
            (manifest(ver_ent.kind).validate)(&ver_ent)?;
            let mut ver_key = model_key.clone();
            keys::tree_push_child(&mut ver_key, ver_ent.kind.name_group(), &ver_ent.name);
            fx.upsert_at(tx, model_now, ChangeOp::Update, model_key);
            Ok((fx.create_at(tx, ver_ent, ver_key), version))
        })?;
        api.audit.allow(&result.0.id, model_name);
        Ok(result)
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Fetch a securable by qualified name, enforcing visibility.
    pub fn get_securable(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
    ) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::GET_SECURABLE, Some(ctx), Some(ms));
        let (full, _) = api.audit.see(ms, name, leaf_group)?;
        api.audit.allow(&full[0].id, name);
        Ok(full[0].clone())
    }

    /// Fetch a table or view by name.
    pub fn get_table(&self, ctx: &Context, ms: &Uid, name: &str) -> UcResult<Arc<Entity>> {
        self.get_securable(ctx, ms, &FullName::parse(name)?, "relation")
    }

    /// List catalogs visible to the caller.
    pub fn list_catalogs(&self, ctx: &Context, ms: &Uid) -> UcResult<Vec<Arc<Entity>>> {
        let api = self.api_enter(Op::LIST_CATALOGS, Some(ctx), Some(ms));
        let root = self.metastore_chain(ms)?;
        let who = self.authz_context_with(&root, &ctx.principal)?;
        self.visible_children(&api, ms, &who, &root, Some(SecurableKind::Catalog.name_group()))
    }

    /// The children of `parent[0]` (given with its full chain) that `who`
    /// can see from the request's workspace ([`Audited::visible`], the
    /// parent's half decided once: [`Audited::visible_below`]), read at
    /// **one** snapshot: entities come from the scan's
    /// own rows, never through the cache — the cache may have advanced
    /// past the scan, and mixing the two yields a listing no single
    /// metastore version ever held (the history checker flags such
    /// composite listings). For the same reason a child's ancestors are
    /// the chain this request already resolved, not a per-child walk
    /// through a cache that can move under the loop: a cascade landing
    /// mid-listing used to surface as `dangling parent`.
    pub(crate) fn visible_children(
        &self,
        api: &ApiGuard<'_>,
        ms: &Uid,
        who: &AuthzContext,
        parent: &[Arc<Entity>],
        group: Option<&str>,
    ) -> UcResult<Vec<Arc<Entity>>> {
        let mut parent_key = keys::tree_ms_prefix(ms);
        for e in parent.iter().rev().filter(|e| e.kind != SecurableKind::Metastore) {
            keys::tree_push_child(&mut parent_key, e.kind.name_group(), &e.name);
        }
        let rt = self.db.begin_read();
        let mut out = Vec::new();
        let cache = self.cache.for_metastore(ms);
        let visible = api.audit.visible_below(who, parent);
        for ent in tree_children(&cache, |p| rt.scan_prefix(T_TREE, p), &parent_key, group)? {
            // Catalogs carry no parent id; everything else names its
            // container. A mismatch means the container was dropped and
            // re-created under the same name between the request's
            // resolution and this scan: only then walk by parent id, and
            // decide over the chain that walk finds.
            let under_parent = ent.parent.as_ref().is_none_or(|p| *p == parent[0].id);
            if under_parent {
                if visible(&ent) {
                    out.push(ent);
                }
            } else if let Some(chain) = self.chain_by_id(ms, &ent.id)? {
                if api.audit.visible(who, &chain) {
                    out.push(chain[0].clone());
                }
            }
            // else: dropped as well since the scan, so not listed.
        }
        crate::cache::history_read_event(crate::cache::read_ms_version(&rt, ms));
        Ok(out)
    }

    /// List the children of a container (catalog → schemas, schema →
    /// assets), optionally restricted to one namespace group.
    pub fn list_children(
        &self,
        ctx: &Context,
        ms: &Uid,
        parent: &FullName,
        group: Option<&str>,
    ) -> UcResult<Vec<Arc<Entity>>> {
        let api = self.api_enter(Op::LIST_CHILDREN, Some(ctx), Some(ms));
        let parent_group = if parent.len() == 1 { "catalog" } else { "schema" };
        let parent_full = self.chain_by_name(ms, parent, parent_group)?;
        api.audit.bound(&parent_full)?;
        let who = self.authz_context_with(&parent_full, &ctx.principal)?;
        let children = self.visible_children(&api, ms, &who, &parent_full, group)?;
        api.audit.allow(&parent_full[0].id, parent);
        Ok(children)
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Internal: rewrite an entity by id through the write protocol; the
    /// commit announces it as one `op` event.
    pub(crate) fn update_entity_by_id(
        &self,
        ms: &Uid,
        id: &Uid,
        op: ChangeOp,
        f: impl Fn(&mut Entity) -> UcResult<()>,
    ) -> UcResult<Arc<Entity>> {
        let now = self.now_ms();
        self.write_ms(ms, |tx, _ver, fx| {
            // A dropped entity must never be updated: its name may have
            // been re-assigned to a successor entity, whose row a
            // re-upsert would overwrite (a caller can reach this via a
            // stale cached name mapping).
            let (mut ent, tk) = self.live_entity(tx, ms, id, id)?;
            f(&mut ent)?;
            ent.updated_at_ms = now;
            (manifest(ent.kind).validate)(&ent)?;
            Ok(fx.upsert_at(tx, ent, op, tk))
        })
    }

    /// `field` must be one the target's manifest lets clients update.
    fn require_updatable(target: &Entity, field: &str) -> UcResult<()> {
        if manifest(target.kind).updatable_fields.contains(&field) {
            return Ok(());
        }
        Err(UcError::UnsupportedOperation(format!("{} does not support {field} updates", target.kind)))
    }

    /// Update a securable's comment (MODIFY or admin authority).
    pub fn update_comment(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
        comment: &str,
    ) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::UPDATE_COMMENT, Some(ctx), Some(ms));
        let full = self.chain_by_name(ms, name, leaf_group)?;
        let target = &full[0];
        Self::require_updatable(target, "comment")?;
        api.audit.gate(&full, Need::AdminOrAny(&[Privilege::Modify]), name)?;
        let updated = self.update_entity_by_id(ms, &target.id, ChangeOp::Update, |e| {
            e.comment = Some(comment.to_string());
            Ok(())
        })?;
        api.audit.allow(&target.id, name);
        Ok(updated)
    }

    /// Transfer ownership (admin authority required).
    pub fn transfer_ownership(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
        new_owner: &str,
    ) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::TRANSFER_OWNERSHIP, Some(ctx), Some(ms));
        let full = self.chain_by_name(ms, name, leaf_group)?;
        let target = &full[0];
        Self::require_updatable(target, "owner")?;
        api.audit.gate(&full, Need::Admin, new_owner)?;
        let updated = self.update_entity_by_id(ms, &target.id, ChangeOp::Update, |e| {
            e.owner = new_owner.to_string();
            Ok(())
        })?;
        api.audit.allow(&target.id, new_owner);
        Ok(updated)
    }

    /// Rename a securable in place (admin authority). IDs are stable, so
    /// grants, lineage, shares, and view dependencies survive the rename;
    /// only tree keys — and the id pointers to them — move.
    pub fn rename_securable(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
        new_name: &str,
    ) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::RENAME_SECURABLE, Some(ctx), Some(ms));
        validate_object_name(new_name)?;
        let full = self.chain_by_name(ms, name, leaf_group)?;
        let target = &full[0];
        if target.kind.is_container() && target.kind != SecurableKind::Schema {
            // renaming catalogs would silently break external references;
            // UC likewise restricts it
            return Err(UcError::UnsupportedOperation(format!(
                "{} cannot be renamed",
                target.kind
            )));
        }
        api.audit.gate(&full, Need::Admin, new_name)?;
        let now = self.now_ms();
        let cache = self.cache.for_metastore(ms);
        let renamed = self.write_ms(ms, |tx, _ver, fx| {
            let (mut ent, old_tree) = self.live_entity(tx, ms, &target.id, name)?;
            ent.name = new_name.to_string();
            ent.updated_at_ms = now;
            // Same parent (the next-longest prefix of the key), new last segment.
            let parent = treekey::chain_prefixes(&old_tree).rev().nth(1).unwrap_or_default();
            let mut new_tree = parent.to_string();
            keys::tree_push_child(&mut new_tree, ent.kind.name_group(), new_name);
            if new_tree != old_tree && tx.get(T_TREE, &new_tree).is_some() {
                return Err(UcError::AlreadyExists(new_name.to_string()));
            }
            // The node's key embeds its name, so its row — and, for a
            // schema, every descendant row sharing the prefix — moves, and
            // each moved row's id pointer with it. One range scan rewrites
            // them; descendant *values* are untouched (they embed parent
            // ids, not names), and the cache drops what it held under the
            // old keys rather than learning rows nobody read.
            for (k, v) in tx.scan_prefix(T_TREE, &old_tree) {
                tx.delete(T_TREE, &k);
                if k != old_tree {
                    let moved = format!("{new_tree}{}", &k[old_tree.len()..]);
                    let below = cache.decoded(&k, &v)?;
                    tx.put(T_ENTITY, &keys::ent_key(ms, &below.id), moved.clone().into());
                    tx.put(T_TREE, &moved, v);
                    fx.moved_from.push(k);
                }
            }
            tx.put(T_ENTITY, &keys::ent_key(ms, &ent.id), new_tree.clone().into());
            Ok(fx.upsert_at(tx, ent, ChangeOp::Update, new_tree))
        })?;
        api.audit.allow(&renamed.id, format!("{name} -> {new_name}"));
        Ok(renamed)
    }

    /// Bind a catalog to a set of workspaces; an empty list clears the
    /// binding. Admin authority on the catalog required.
    pub fn set_catalog_bindings(
        &self,
        ctx: &Context,
        ms: &Uid,
        catalog: &str,
        workspaces: &[&str],
    ) -> UcResult<()> {
        let api = self.api_enter(Op::SET_CATALOG_BINDINGS, Some(ctx), Some(ms));
        let full = self.chain_by_name(ms, &FullName::of(&[catalog]), "catalog")?;
        let target = &full[0];
        api.audit.gate(&full, Need::Admin, catalog)?;
        let list: Vec<String> = workspaces.iter().map(|w| w.to_string()).collect();
        self.update_entity_by_id(ms, &target.id, ChangeOp::Update, |e| {
            e.governance_mut().workspace_bindings = list.clone();
            Ok(())
        })?;
        api.audit.allow(&target.id, format!("{list:?}"));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Deletion and garbage collection
    // ------------------------------------------------------------------

    /// Soft-delete a securable (admin authority). Containers cascade to
    /// all descendants. Returns the number of entities soft-deleted.
    pub fn drop_securable(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
    ) -> UcResult<usize> {
        let api = self.api_enter(Op::DROP_SECURABLE, Some(ctx), Some(ms));
        let full = self.chain_by_name(ms, name, leaf_group)?;
        let target = &full[0];
        api.audit.gate(&full, Need::Admin, name)?;
        let now = self.now_ms();
        let cache = self.cache.for_metastore(ms);
        let count = self.write_ms(ms, |tx, _ver, fx| {
            // The whole cascade is one range scan of the target's key
            // range, parents before children, each row carrying its full
            // entity.
            Self::soft_delete_subtree(&cache, tx, ms, target, now, fx)
        })?;
        api.audit.allow(&target.id, format!("{name} ({count} entities)"));
        Ok(count)
    }

    /// Soft-delete `target` and every descendant in **one** range scan of
    /// the tree index. Per row: move it from the tree (freeing the name —
    /// its absence is what hides the subtree from listings and resolution)
    /// to the trash, remove its id pointer, and unregister its storage
    /// path.
    fn soft_delete_subtree(
        cache: &MsCache,
        tx: &mut uc_txdb::WriteTxn,
        ms: &Uid,
        target: &Entity,
        now: u64,
        fx: &mut WriteEffects,
    ) -> UcResult<usize> {
        // Drops are by *identity*: `target` was resolved to an id at read
        // time, and only that entity (plus descendants) may die. Its
        // pointer is read at commit time — if it was dropped concurrently
        // the drop counts zero, even if another live entity now owns the
        // same name (and therefore the same tree key).
        let root_key = match live_key(tx, ms, &target.id, &target.name) {
            Err(UcError::NotFound(_)) => return Ok(0),
            live => live?,
        };
        let mut count = 0;
        for (tree_key, raw) in tx.scan_prefix(T_TREE, &root_key) {
            let mut ent = Arc::unwrap_or_clone(cache.decoded(&tree_key, &raw)?);
            tx.delete(T_TREE, &tree_key);
            if let Some(p) = ent.storage_path.as_ref().and_then(|p| StoragePath::parse(p).ok()) {
                paths::unregister_path(tx, ms, &p);
            }
            ent.state = LifecycleState::SoftDeleted;
            ent.updated_at_ms = now;
            let id_key = keys::ent_key(ms, &ent.id);
            tx.delete(T_ENTITY, &id_key);
            tx.put(T_TRASH, &id_key, ent.encode());
            fx.events.push(FeedEvent { id: ent.id.clone(), kind: ent.kind, name: ent.name.clone(), op: ChangeOp::Delete });
            fx.tombstones.push(ent.id);
            count += 1;
        }
        Ok(count)
    }

    /// Garbage-collect soft-deleted entities: remove their rows, their
    /// catalog-owned commit history, and (for managed assets) their cloud
    /// storage. The victims are exactly the metastore's range of the
    /// trash; one whose storage listing or any delete fails stays there for
    /// the next purge (counted in `catalog.purge.storage_failures`), never
    /// orphaning the objects. Returns (entities purged, objects deleted).
    pub fn purge_soft_deleted(&self, ms: &Uid) -> UcResult<(usize, usize)> {
        let api = self.api_enter(Op::PURGE_SOFT_DELETED, None, Some(ms));
        // Collect victims outside the write to keep the transaction small.
        let mut victims: Vec<Entity> = self
            .db
            .begin_read()
            .scan_prefix(T_TRASH, &keys::ent_ms_prefix(ms))
            .into_iter()
            .map(|(_, raw)| Entity::decode(&raw))
            .collect::<UcResult<_>>()?;
        let (mut objects_deleted, mut failures) = (0, 0);
        // Each bucket's root credential is read once per purge, not once
        // per victim.
        let mut roots = std::collections::HashMap::new();
        // Managed storage cleanup happens before metadata removal so a
        // crash, or a failed cleanup, leaves the tombstone for a retry.
        victims.retain(|victim| {
            let managed = victim.table_type() == Some(TableType::Managed)
                || victim.kind == SecurableKind::RegisteredModel;
            let path = victim.storage_path.as_ref().and_then(|p| StoragePath::parse(p).ok());
            let Some(path) = path.filter(|_| managed) else { return true };
            let cred: &Option<_> = roots
                .entry(path.bucket().to_string())
                .or_insert_with(|| self.root_for_bucket(ms, path.bucket()).ok().map(uc_cloudstore::Credential::Root));
            let Some((objs, cred)) = cred.clone().and_then(|cred| Some((self.store.list(&cred, &path).ok()?, cred))) else {
                failures += 1; // no root credential, or the listing failed
                return false;
            };
            let deleted = objs.iter().filter(|o| self.store.delete(&cred, &o.path).is_ok()).count();
            objects_deleted += deleted;
            failures += objs.len() - deleted;
            deleted == objs.len()
        });
        if failures > 0 {
            self.config.obs.counter("catalog.purge.storage_failures").add(failures as u64);
        }
        let purged = self.write_ms(ms, |tx, _ver, fx| {
            for victim in &victims {
                if tx.get(T_TRASH, &keys::ent_key(ms, &victim.id)).is_some() {
                    tx.delete(T_TRASH, &keys::ent_key(ms, &victim.id));
                    // Drop catalog-owned commit history.
                    for (k, _) in tx.scan_prefix(T_COMMIT, &keys::commit_prefix(ms, &victim.id)) {
                        tx.delete(T_COMMIT, &k);
                    }
                    fx.purged.push(victim.id.clone());
                }
            }
            Ok(fx.purged.len())
        })?;
        // Release what this node holds for the victims: the cache entries
        // went with the write-through; their vended credentials go here.
        self.cred_cache.remove_all(
            victims
                .iter()
                .flat_map(|v| [AccessLevel::Read, AccessLevel::ReadWrite].map(|level| (v.id.clone(), level))),
        );
        // GC is a destructive governance action: it lands in the audit
        // trail like any other mutation (run as the node, not a tenant).
        api.audit.allow(ms, format!("purged {purged} row(s), {objects_deleted} object(s)"));
        Ok((purged, objects_deleted))
    }
}
