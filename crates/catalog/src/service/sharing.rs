//! Open sharing interfaces: a Delta-Sharing-style protocol and an Iceberg
//! REST-style facade over UniForm metadata.
//!
//! Shares are securables: a share collects tables (under aliases), and
//! granting SELECT on the share to a recipient principal exposes exactly
//! those tables. Queries against a shared table return the table's file
//! list plus a read-scoped temporary credential — recipients never see
//! the provider's cloud credentials and cannot reach outside the shared
//! table's path. The same snapshot can be served as Iceberg metadata
//! (UniForm), so Iceberg-only clients read Delta data with no copy.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use uc_cloudstore::{AccessLevel, Credential, StoragePath, TempCredential};
use uc_delta::log::StorageCommitCoordinator;
use uc_delta::uniform::{snapshot_to_iceberg, IcebergMetadata};
use uc_delta::Snapshot;

use crate::authz::decision::Need;
use crate::authz::Privilege;
use crate::error::{UcError, UcResult};
use crate::ids::Uid;
use crate::model::entity::Entity;
use crate::model::keys::{self, T_SHAREMEM};
use crate::ops::{self, Op};
use crate::service::{ApiGuard, Context, UnityCatalog};
use crate::types::{FullName, SecurableKind};

/// A table exposed through a share.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShareMember {
    pub table_id: String,
    /// `schema.table` name the recipient sees.
    pub alias: String,
}

/// One shared data file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedFile {
    pub url: String,
    pub size_bytes: u64,
    pub num_records: u64,
}

/// Response to a shared-table query (Delta-Sharing-style).
#[derive(Debug, Clone)]
pub struct SharedTableResponse {
    pub format: String,
    pub schema: uc_delta::value::Schema,
    pub version: i64,
    pub files: Vec<SharedFile>,
    /// Read credential scoped to the shared table's path.
    pub credential: TempCredential,
}

impl UnityCatalog {
    /// Create a share (CREATE_SHARE on the metastore or admin).
    pub fn create_share(&self, ctx: &Context, ms: &Uid, name: &str) -> UcResult<Arc<Entity>> {
        let api = self.api_enter(Op::CREATE_SHARE, Some(&ctx.principal), Some(ms));
        let top = self.metastore_chain(ms)?;
        api.audit.gate(&top, Need::MetastoreAdminOr(Privilege::CreateShare), name)?;
        let created = self.create_entity(ctx, SecurableKind::Share, &top, name, name, |_tx, _ent| Ok(()))?;
        api.audit.allow(&created.id, name);
        Ok(created)
    }

    /// Add a table to a share. The sharer needs admin authority on the
    /// share and read access to the table.
    pub fn add_table_to_share(
        &self,
        ctx: &Context,
        ms: &Uid,
        share_name: &str,
        table: &FullName,
    ) -> UcResult<()> {
        let api = self.api_enter(Op::ADD_TABLE_TO_SHARE, Some(&ctx.principal), Some(ms));
        let full = self.share_chain(ms, share_name)?;
        let share = &full[0];
        let who = api.audit.gate(&full, Need::Admin, share_name)?;
        let table_full = self.chain_by_name(ms, table, "relation")?;
        let table_ent = &table_full[0];
        api.audit.gate_with(&who, &table_full, Need::Data(Privilege::Select), table)?;
        let alias = format!("{}.{}", table.schema().unwrap_or("default"), table_ent.name);
        let member = ShareMember { table_id: table_ent.id.to_string(), alias };
        let share_id = share.id.clone();
        let table_id = table_ent.id.clone();
        self.write_ms(ms, |tx, _ver, _fx| {
            tx.put(
                T_SHAREMEM,
                &keys::share_member_key(ms, &share_id, &table_id),
                bytes::Bytes::from(crate::jsonutil::to_vec(&member)),
            );
            Ok(())
        })?;
        api.audit.allow(&share.id, table);
        Ok(())
    }

    /// A share's full chain, `[share, metastore]`.
    fn share_chain(&self, ms: &Uid, name: &str) -> UcResult<Vec<Arc<Entity>>> {
        self.chain_at_key(ms, &keys::tree_key(ms, &[(SecurableKind::Share.name_group(), name)]))?
            .ok_or_else(|| UcError::NotFound(format!("share {name}")))
    }

    /// Shares the caller can access (owner, admin, or SELECT grant).
    pub fn list_shares(&self, ctx: &Context, ms: &Uid) -> UcResult<Vec<Arc<Entity>>> {
        let _api = self.api_enter(Op::LIST_SHARES, Some(&ctx.principal), Some(ms));
        let root = self.metastore_chain(ms)?;
        let who = self.authz_context_with(&root, &ctx.principal)?;
        self.visible_children(ms, &who, &root, Some(SecurableKind::Share.name_group()))
    }

    /// Tables within a share (recipient must have SELECT on the share).
    pub fn list_share_tables(
        &self,
        ctx: &Context,
        ms: &Uid,
        share_name: &str,
    ) -> UcResult<Vec<ShareMember>> {
        let api = self.api_enter(Op::LIST_SHARE_TABLES, Some(&ctx.principal), Some(ms));
        let share = self.authorize_share_read(&api, ms, share_name)?;
        let rt = self.db.begin_read();
        Ok(rt
            .scan_prefix(T_SHAREMEM, &keys::share_members_prefix(ms, &share.id))
            .into_iter()
            .filter_map(|(_, raw)| serde_json::from_slice(&raw).ok())
            .collect())
    }

    /// SELECT on the share (or admin authority over it).
    fn authorize_share_read(
        &self,
        api: &ApiGuard<'_>,
        ms: &Uid,
        share_name: &str,
    ) -> UcResult<Arc<Entity>> {
        let full = self.share_chain(ms, share_name)?;
        api.audit.gate(&full, Need::AdminOrAny(&[Privilege::Select]), share_name)?;
        Ok(full[0].clone())
    }

    /// Query a shared table: snapshot + file list + scoped read token.
    /// Note: access is authorized against the *share*, not the underlying
    /// table — recipients need no grants on the table itself.
    pub fn query_share_table(
        &self,
        ctx: &Context,
        ms: &Uid,
        share_name: &str,
        alias: &str,
    ) -> UcResult<SharedTableResponse> {
        let api = self.api_enter(Op::QUERY_SHARE_TABLE, Some(&ctx.principal), Some(ms));
        let (table, snapshot) = self.shared_snapshot(&api, ms, share_name, alias)?;
        let table_path = table
            .storage_path
            .as_ref()
            .and_then(|p| StoragePath::parse(p).ok())
            .ok_or_else(|| UcError::UnsupportedOperation("shared table has no storage".into()))?;
        let files = snapshot
            .files
            .values()
            .map(|f| SharedFile {
                url: table_path.child(&f.path).to_string(),
                size_bytes: f.size_bytes,
                num_records: f.num_records,
            })
            .collect();
        let credential = self.mint_for_entity(ms, &table, AccessLevel::Read)?;
        api.audit.acting(ops::QUERY_SHARE_TABLE).allow(&table.id, alias);
        Ok(SharedTableResponse {
            format: "delta".into(),
            schema: snapshot.metadata.schema.clone(),
            version: snapshot.version,
            files,
            credential,
        })
    }

    /// Serve a shared table as Iceberg metadata (UniForm): Iceberg-only
    /// clients read the same files through their own metadata model.
    pub fn query_share_table_as_iceberg(
        &self,
        ctx: &Context,
        ms: &Uid,
        share_name: &str,
        alias: &str,
    ) -> UcResult<IcebergMetadata> {
        let api = self.api_enter(Op::QUERY_SHARE_TABLE_AS_ICEBERG, Some(&ctx.principal), Some(ms));
        let (table, snapshot) = self.shared_snapshot(&api, ms, share_name, alias)?;
        let table_path = table
            .storage_path
            .as_ref()
            .and_then(|p| StoragePath::parse(p).ok())
            .ok_or_else(|| UcError::UnsupportedOperation("shared table has no storage".into()))?;
        Ok(snapshot_to_iceberg(&snapshot, &table_path, self.now_ms()))
    }

    fn shared_snapshot(
        &self,
        api: &ApiGuard<'_>,
        ms: &Uid,
        share_name: &str,
        alias: &str,
    ) -> UcResult<(Arc<Entity>, Snapshot)> {
        let share = self.authorize_share_read(api, ms, share_name)?;
        let rt = self.db.begin_read();
        let member = rt
            .scan_prefix(T_SHAREMEM, &keys::share_members_prefix(ms, &share.id))
            .into_iter()
            .filter_map(|(_, raw)| serde_json::from_slice::<ShareMember>(&raw).ok())
            .find(|m| m.alias == alias)
            .ok_or_else(|| UcError::NotFound(format!("{alias} in share {share_name}")))?;
        drop(rt);
        let table = self
            .chain_by_id(ms, &Uid::from(member.table_id.as_str()))?
            .ok_or_else(|| UcError::NotFound(format!("shared table {alias} was dropped")))?
            .swap_remove(0);
        let snapshot = self.table_snapshot_internal(ms, &table)?;
        Ok((table, snapshot))
    }

    /// Iceberg REST-style facade for *direct* (non-share) access: an
    /// Iceberg client with SELECT on a Delta table loads it as Iceberg
    /// metadata generated via UniForm — the same files, no copy. FGAC
    /// tables are gated to trusted engines exactly like raw-credential
    /// access.
    pub fn load_table_as_iceberg(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
    ) -> UcResult<IcebergMetadata> {
        let api = self.api_enter(Op::LOAD_TABLE_AS_ICEBERG, Some(&ctx.principal), Some(ms));
        let full = self.chain_by_name(ms, name, "relation")?;
        let table = &full[0];
        api.audit.gate(&full, Need::Data(Privilege::Select), name)?;
        if table.has_fgac() && !ctx.is_trusted_engine() {
            return Err(UcError::PermissionDenied(
                "table has fine-grained policies; Iceberg pass-through requires a trusted engine".into(),
            ));
        }
        let snapshot = self.table_snapshot_internal(ms, table)?;
        let path = StoragePath::parse(table.storage_path.as_ref().ok_or_else(|| {
            UcError::UnsupportedOperation(format!("{name} has no storage"))
        })?)
        .map_err(|e| UcError::Storage(e.to_string()))?;
        api.audit.allow(&table.id, name);
        Ok(snapshot_to_iceberg(&snapshot, &path, self.now_ms()))
    }

    /// Build a table's current snapshot with catalog-internal access: the
    /// catalog reads the log with its own root credential (or its own
    /// commit store for catalog-owned tables). Used by sharing and the
    /// Iceberg facade.
    pub(crate) fn table_snapshot_internal(&self, ms: &Uid, table: &Entity) -> UcResult<Snapshot> {
        let path_str = table
            .storage_path
            .as_ref()
            .ok_or_else(|| UcError::UnsupportedOperation(format!("{} has no storage", table.name)))?;
        let path = StoragePath::parse(path_str).map_err(|e| UcError::Storage(e.to_string()))?;
        let root = self.root_for_bucket(ms, path.bucket())?;
        let cred = Credential::Root(root);
        if table.commit_version() >= 0 {
            // Catalog-owned: replay commits from the catalog's store.
            let latest = table.commit_version();
            let mut log = Vec::with_capacity((latest + 1) as usize);
            for v in 0..=latest {
                let payload = self
                    .commit_read_internal(ms, &table.id, v)
                    .ok_or_else(|| UcError::Database(format!("missing commit {v} for {}", table.name)))?;
                let actions = uc_delta::actions::decode_commit(&payload)?;
                log.push((v, actions));
            }
            Ok(Snapshot::replay(&log)?)
        } else {
            let coordinator = StorageCommitCoordinator::new(self.store.clone(), &path);
            let log = uc_delta::log::read_log(&coordinator, &cred)?;
            if log.is_empty() {
                return Err(UcError::NotFound(format!("{} has no table data", table.name)));
            }
            Ok(Snapshot::replay(&log)?)
        }
    }
}
