//! Catalog-owned table commits and multi-table transactions (§6.3).
//!
//! Instead of claiming log versions with `put_if_absent` on object
//! storage, a catalog-owned table commits *through the catalog*: the
//! commit payload is stored in the catalog's transactional database and
//! the table's latest version is advanced with a compare-and-set. Because
//! several tables' commit state can be updated in one metadata
//! transaction, this is what makes multi-table / multi-statement
//! transactions possible — something the storage-level protocol cannot do
//! across buckets.

use std::sync::Arc;

use bytes::Bytes;
use uc_cloudstore::Credential;
use uc_delta::error::{DeltaError, DeltaResult};
use uc_delta::log::CommitCoordinator;

use crate::authz::decision::Need;
use crate::authz::Privilege;
use crate::error::{UcError, UcResult};
use crate::events::ChangeOp;
use crate::ids::Uid;
use crate::model::entity::{props, Entity};
use crate::model::keys::{self, T_COMMIT};
use crate::ops::Op;
use crate::service::{ApiGuard, Context, UnityCatalog};

/// One table's contribution to a (possibly multi-table) commit.
#[derive(Debug, Clone)]
pub struct TableCommit {
    pub table_id: Uid,
    /// The version being committed; must be exactly `latest + 1`.
    pub version: i64,
    /// Encoded log actions (same payload format as the storage log).
    pub payload: Bytes,
}

impl UnityCatalog {
    /// Authorize data access (`privilege` plus the USE chain) on a table
    /// addressed by id.
    fn authorize_table(
        &self,
        api: &ApiGuard<'_>,
        ms: &Uid,
        table_id: &Uid,
        privilege: Privilege,
    ) -> UcResult<Arc<Entity>> {
        let full = self
            .chain_by_id(ms, table_id)?
            .ok_or_else(|| UcError::NotFound(table_id.to_string()))?;
        api.audit.gate(&full, Need::Data(privilege), "")?;
        Ok(full[0].clone())
    }

    /// Commit one table version through the catalog.
    pub fn commit_table(
        &self,
        ctx: &Context,
        ms: &Uid,
        table_id: &Uid,
        version: i64,
        payload: Bytes,
    ) -> UcResult<()> {
        self.commit_tables_atomically(
            ctx,
            ms,
            vec![TableCommit { table_id: table_id.clone(), version, payload }],
        )
    }

    /// Commit several tables atomically: either every table advances to
    /// its target version or none does.
    pub fn commit_tables_atomically(
        &self,
        ctx: &Context,
        ms: &Uid,
        commits: Vec<TableCommit>,
    ) -> UcResult<()> {
        let api = self.api_enter(Op::COMMIT_TABLES_ATOMICALLY, Some(ctx), Some(ms));
        if commits.is_empty() {
            return Ok(());
        }
        for c in &commits {
            self.authorize_table(&api, ms, &c.table_id, Privilege::Modify)?;
        }
        let now = self.now_ms();
        self.write_ms(ms, |tx, _ver, fx| {
            for c in &commits {
                let (mut ent, tk) = self.live_entity(tx, ms, &c.table_id, &c.table_id)?;
                let latest = ent.commit_version();
                if c.version != latest + 1 {
                    return Err(UcError::CommitConflict { expected: c.version, actual: latest });
                }
                tx.put(T_COMMIT, &keys::commit_key(ms, &c.table_id, c.version), c.payload.clone());
                ent.properties
                    .insert(props::COMMIT_VERSION.to_string(), c.version.to_string());
                ent.updated_at_ms = now;
                fx.upsert_at(tx, ent, ChangeOp::Commit, tk);
            }
            Ok(())
        })?;
        for c in &commits {
            api.audit.allow(&c.table_id, format!("v{}", c.version));
        }
        Ok(())
    }

    /// Latest catalog-owned version of a table (-1 if none).
    pub fn latest_table_version(&self, ctx: &Context, ms: &Uid, table_id: &Uid) -> UcResult<i64> {
        let api = self.api_enter(Op::LATEST_TABLE_VERSION, Some(ctx), Some(ms));
        let entity = self.authorize_table(&api, ms, table_id, Privilege::Select)?;
        api.audit.allow(table_id, "latest");
        Ok(entity.commit_version())
    }

    /// Read one committed payload.
    pub fn read_table_commit(
        &self,
        ctx: &Context,
        ms: &Uid,
        table_id: &Uid,
        version: i64,
    ) -> UcResult<Option<Bytes>> {
        let api = self.api_enter(Op::READ_TABLE_COMMIT, Some(ctx), Some(ms));
        self.authorize_table(&api, ms, table_id, Privilege::Select)?;
        let payload = self.commit_read_internal(ms, table_id, version);
        api.audit.allow(table_id, format!("v{version}"));
        Ok(payload)
    }

    /// Internal commit read (no authorization; catalog-internal flows
    /// such as sharing snapshot construction).
    pub(crate) fn commit_read_internal(&self, ms: &Uid, table_id: &Uid, version: i64) -> Option<Bytes> {
        let rt = self.db.begin_read();
        rt.get(T_COMMIT, &keys::commit_key(ms, table_id, version))
    }

}

/// A [`CommitCoordinator`] that routes a Delta table's commits through the
/// catalog — plug it into [`uc_delta::DeltaTable::with_coordinator`] to
/// make a table catalog-owned. Authentication is the captured [`Context`];
/// the storage credential argument is ignored (the log never touches
/// object storage).
pub struct CatalogCommitCoordinator {
    pub uc: Arc<UnityCatalog>,
    pub ctx: Context,
    pub ms: Uid,
    pub table_id: Uid,
}

fn to_delta(e: UcError) -> DeltaError {
    match e {
        UcError::CommitConflict { expected, .. } => DeltaError::CommitConflict { version: expected },
        other => DeltaError::Coordinator(other.to_string()),
    }
}

impl CommitCoordinator for CatalogCommitCoordinator {
    fn latest_version(&self, _cred: &Credential) -> DeltaResult<Option<i64>> {
        let v = self
            .uc
            .latest_table_version(&self.ctx, &self.ms, &self.table_id)
            .map_err(to_delta)?;
        Ok((v >= 0).then_some(v))
    }

    fn try_commit(&self, _cred: &Credential, version: i64, payload: Bytes) -> DeltaResult<()> {
        self.uc
            .commit_table(&self.ctx, &self.ms, &self.table_id, version, payload)
            .map_err(to_delta)
    }

    fn read_commit(&self, _cred: &Credential, version: i64) -> DeltaResult<Option<Bytes>> {
        self.uc
            .read_table_commit(&self.ctx, &self.ms, &self.table_id, version)
            .map_err(to_delta)
    }
}
