//! Grant management APIs (§3.3).

use std::sync::Arc;

use crate::authz::decision::{decide, Need};
use crate::authz::Privilege;
use crate::error::{UcError, UcResult};
use crate::events::ChangeOp;
use crate::ids::Uid;
use crate::model::manifest::manifest;
use crate::ops::Op;
use crate::service::{Context, UnityCatalog};
use crate::types::FullName;

impl UnityCatalog {
    /// Grant a privilege on a securable to a principal or group. Requires
    /// admin authority over the securable (owner, MANAGE, container owner,
    /// or metastore admin).
    pub fn grant(
        &self,
        ctx: &Context,
        ms: &Uid,
        securable: &FullName,
        leaf_group: &str,
        grantee: &str,
        privilege: Privilege,
    ) -> UcResult<()> {
        let api = self.api_enter(Op::GRANT, Some(&ctx.principal), Some(ms));
        let full = self.chain_by_name(ms, securable, leaf_group)?;
        let target = &full[0];
        if privilege != Privilege::All && !manifest(target.kind).grantable.contains(&privilege) {
            return Err(UcError::InvalidArgument(format!(
                "{privilege} is not grantable on {}",
                target.kind
            )));
        }
        api.audit.gate(&full, Need::Admin, format_args!("{privilege} to {grantee}"))?;
        self.update_entity_by_id(ms, &target.id, |e| {
            e.add_grant(grantee, privilege);
            Ok(())
        })?;
        // Grant changes are metadata changes: surface them on the event
        // stream for discovery consumers.
        self.publish_grant_event(ms, &target.id, target.kind, &target.name);
        api.audit.allow(&target.id, format!("{privilege} to {grantee}"));
        Ok(())
    }

    /// Revoke a previously granted privilege.
    pub fn revoke(
        &self,
        ctx: &Context,
        ms: &Uid,
        securable: &FullName,
        leaf_group: &str,
        grantee: &str,
        privilege: Privilege,
    ) -> UcResult<()> {
        let api = self.api_enter(Op::REVOKE, Some(&ctx.principal), Some(ms));
        let full = self.chain_by_name(ms, securable, leaf_group)?;
        let target = &full[0];
        api.audit.gate(&full, Need::Admin, format_args!("{privilege} from {grantee}"))?;
        self.update_entity_by_id(ms, &target.id, |e| {
            e.remove_grant(grantee, privilege);
            Ok(())
        })?;
        self.publish_grant_event(ms, &target.id, target.kind, &target.name);
        api.audit.allow(&target.id, format!("{privilege} from {grantee}"));
        Ok(())
    }

    /// List the grants directly on a securable (visible to callers who can
    /// see the securable).
    pub fn show_grants(
        &self,
        ctx: &Context,
        ms: &Uid,
        securable: &FullName,
        leaf_group: &str,
    ) -> UcResult<Vec<(String, Privilege)>> {
        let _api = self.api_enter(Op::SHOW_GRANTS, Some(&ctx.principal), Some(ms));
        let full = self.chain_by_name(ms, securable, leaf_group)?;
        let who = self.authz_context_with(&full, &ctx.principal)?;
        if !decide(&full, &who, Need::See) {
            return Err(UcError::NotFound(securable.to_string()));
        }
        Ok(full[0].grants.clone())
    }

    /// Batched authorization API for second-tier services (§4.4): for each
    /// (entity id, privilege) pair, report whether `principal` holds it.
    pub fn authorize_batch(
        &self,
        ms: &Uid,
        principal: &str,
        checks: &[(Uid, Privilege)],
    ) -> UcResult<Vec<bool>> {
        let _api = self.api_enter(Op::AUTHORIZE_BATCH, Some(principal), Some(ms));
        let who = self.authz_context(ms, principal)?;
        let mut out = Vec::with_capacity(checks.len());
        for (id, privilege) in checks {
            let full = self.chain_by_id(ms, id)?;
            out.push(full.is_some_and(|full| decide(&full, &who, Need::Holds(*privilege))));
        }
        Ok(out)
    }

    /// Batched visibility API: for each entity id, can `principal` see it
    /// at all? Discovery services use this to filter search results.
    pub fn visible_batch(&self, ms: &Uid, principal: &str, ids: &[Uid]) -> UcResult<Vec<bool>> {
        let _api = self.api_enter(Op::VISIBLE_BATCH, Some(principal), Some(ms));
        let who = self.authz_context(ms, principal)?;
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            out.push(self.chain_by_id(ms, id)?.is_some_and(|full| decide(&full, &who, Need::See)));
        }
        Ok(out)
    }

    /// Fetch an entity by id, subject to visibility.
    pub fn get_entity_by_id(&self, ctx: &Context, ms: &Uid, id: &Uid) -> UcResult<Arc<crate::model::entity::Entity>> {
        let _api = self.api_enter(Op::GET_ENTITY_BY_ID, Some(&ctx.principal), Some(ms));
        let full = self.chain_by_id(ms, id)?.ok_or_else(|| UcError::NotFound(id.to_string()))?;
        let who = self.authz_context_with(&full, &ctx.principal)?;
        if !decide(&full, &who, Need::See) {
            return Err(UcError::NotFound(id.to_string()));
        }
        Ok(full[0].clone())
    }

    fn publish_grant_event(&self, ms: &Uid, id: &Uid, kind: crate::types::SecurableKind, name: &str) {
        // Event version: read the cache's current version best-effort.
        let version = self.metastore_cache_version(ms);
        self.events.publish(crate::events::MetadataChangeEvent {
            seq: 0,
            metastore: ms.clone(),
            entity_id: id.clone(),
            kind,
            name: name.to_string(),
            op: ChangeOp::GrantChange,
            at_version: version,
            timestamp_ms: self.now_ms(),
        });
    }

    /// Convenience wrapper for tests and examples: grant on a table.
    pub fn grant_on_table(
        &self,
        ctx: &Context,
        ms: &Uid,
        table: &str,
        grantee: &str,
        privilege: Privilege,
    ) -> UcResult<()> {
        self.grant(ctx, ms, &FullName::parse(table)?, "relation", grantee, privilege)
    }

    /// The standard read-access bundle: USE CATALOG + USE SCHEMA + SELECT.
    pub fn grant_read_path(
        &self,
        ctx: &Context,
        ms: &Uid,
        table: &str,
        grantee: &str,
    ) -> UcResult<()> {
        let name = FullName::parse(table)?;
        let Some(schema_name) = name.schema().filter(|_| name.len() == 3) else {
            return Err(UcError::InvalidArgument("expected catalog.schema.table".into()));
        };
        self.grant(ctx, ms, &FullName::of(&[name.catalog()]), "catalog", grantee, Privilege::UseCatalog)?;
        self.grant(
            ctx,
            ms,
            &FullName::of(&[name.catalog(), schema_name]),
            "schema",
            grantee,
            Privilege::UseSchema,
        )?;
        self.grant(ctx, ms, &name, "relation", grantee, Privilege::Select)
    }
}

/// Arc helper so call sites can use `uc.grant(...)` on `Arc<UnityCatalog>`
/// without noise — inherent methods already work through Deref; this
/// module exists for the free helpers only.
pub type SharedCatalog = Arc<UnityCatalog>;
