//! Temporary credential vending (§4.3.1).
//!
//! Clients never hold cloud credentials. They request access to an asset —
//! by name or by raw storage path — and the catalog resolves the asset
//! (one-asset-per-path makes path resolution unambiguous), authorizes the
//! caller for the requested access level, and mints a token down-scoped to
//! the asset's registered path. Unexpired tokens are cached and reused.

use std::sync::Arc;

use uc_cloudstore::faults::points;
use uc_cloudstore::{AccessLevel, StoragePath, TempCredential};

use crate::authz::decision::Need;
use crate::error::{UcError, UcResult};
use crate::ids::Uid;
use crate::model::entity::Entity;
use crate::model::manifest::manifest;
use crate::ops::Op;
use crate::service::{ApiGuard, Context, UnityCatalog};
use crate::types::FullName;

impl UnityCatalog {
    /// Vend a temporary credential for an asset addressed by name.
    pub fn temp_credentials(
        &self,
        ctx: &Context,
        ms: &Uid,
        asset: &FullName,
        leaf_group: &str,
        access: AccessLevel,
    ) -> UcResult<TempCredential> {
        let api = self.api_enter(Op::TEMP_CREDENTIALS, Some(&ctx.principal), Some(ms));
        let full = self.chain_by_name(ms, asset, leaf_group)?;
        self.vend_for_chain(&api, ctx, ms, &full, access, asset)
    }

    /// Vend a temporary credential for a raw storage path: resolve the
    /// covering asset, enforce *its* policies, and scope the token to the
    /// asset's registered path — uniform access control regardless of
    /// whether the table was addressed by name or by path.
    pub fn temp_credentials_for_path(
        &self,
        ctx: &Context,
        ms: &Uid,
        path: &str,
        access: AccessLevel,
    ) -> UcResult<TempCredential> {
        let api = self.api_enter(Op::TEMP_CREDENTIALS_FOR_PATH, Some(&ctx.principal), Some(ms));
        let parsed = StoragePath::parse(path).map_err(|e| UcError::InvalidArgument(e.to_string()))?;
        let Some(full) = self.chain_by_path(ms, &parsed)? else {
            api.audit.deny(None, path);
            return Err(UcError::NotFound(format!("no asset governs path {path}")));
        };
        self.vend_for_chain(&api, ctx, ms, &full, access, path)
    }

    /// Shared vending flow once the asset's full chain is known — the same
    /// decision whether it was addressed by name, by path or by id.
    fn vend_for_chain(
        &self,
        api: &ApiGuard<'_>,
        ctx: &Context,
        ms: &Uid,
        full: &[Arc<Entity>],
        access: AccessLevel,
        detail: impl std::fmt::Display,
    ) -> UcResult<TempCredential> {
        let entity = &full[0];
        let m = manifest(entity.kind);
        let needed = match access {
            AccessLevel::Read => m.read_data_privilege,
            AccessLevel::ReadWrite => m.write_data_privilege,
        }
        .ok_or_else(|| {
            UcError::UnsupportedOperation(format!(
                "{} assets do not support {access:?} data access",
                entity.kind
            ))
        })?;
        self.enforce_workspace_binding(ctx, full)?;
        api.audit.gate(full, Need::Data(needed), &detail)?;
        // Tables with FGAC policies must not hand raw storage access to
        // untrusted engines — the policy would be unenforceable.
        if entity.has_fgac() && !ctx.is_trusted_engine() {
            api.audit.deny(Some(&entity.id), "fgac requires trusted engine");
            return Err(UcError::PermissionDenied(
                "asset has fine-grained policies; use a trusted engine or the data filtering service".into(),
            ));
        }
        let token = self.mint_for_entity(ms, entity, access)?;
        api.audit.allow(&entity.id, detail);
        Ok(token)
    }

    /// Re-vend a *read* credential for an asset a client already holds an
    /// (expired or expiring) token for. This is the mid-scan recovery path:
    /// an engine whose token ages out during a long scan comes back here
    /// for a fresh one. Full authorization runs again — revocations since
    /// the original vend are honored — and each renewal is audited under
    /// `renewTemporaryCredentials` with the originating trace ID, exactly
    /// like an initial vend.
    pub fn renew_read_credential(
        &self,
        ctx: &Context,
        ms: &Uid,
        id: &Uid,
    ) -> UcResult<TempCredential> {
        let api = self.api_enter(Op::RENEW_READ_CREDENTIAL, Some(&ctx.principal), Some(ms));
        let full = self
            .chain_by_id(ms, id)?
            .ok_or_else(|| UcError::NotFound(format!("asset {id}")))?;
        self.vend_for_chain(&api, ctx, ms, &full, AccessLevel::Read, "renew")
    }

    /// Mint (or reuse from the TTL cache) a token scoped to the entity's
    /// storage path. Catalog-internal: no authorization.
    pub(crate) fn mint_for_entity(
        &self,
        ms: &Uid,
        entity: &Entity,
        access: AccessLevel,
    ) -> UcResult<TempCredential> {
        let path_str = entity.storage_path.as_ref().ok_or_else(|| {
            UcError::UnsupportedOperation(format!("{} has no storage", entity.name))
        })?;
        if self.config.faults.should_inject(points::CATALOG_VEND) {
            return Err(UcError::Storage(
                "injected fault: credential vending unavailable".into(),
            ));
        }
        let scope = StoragePath::parse(path_str).map_err(|e| UcError::Storage(e.to_string()))?;
        let cache_key = (entity.id.clone(), access);
        if self.config.cred_cache_enabled {
            if let Some(tok) = self.cred_cache.get(&cache_key) {
                // Reuse only while a useful fraction of the TTL remains.
                if tok.remaining_ms(self.now_ms()) > self.config.cred_ttl_ms / 4 {
                    return Ok(tok);
                }
            }
        }
        let root = self.root_for_bucket(ms, scope.bucket())?;
        // Model the cloud provider STS round trip (the cost the token
        // cache amortizes across queries and executors).
        if !self.config.sts_mint_cost.is_zero() {
            uc_cloudstore::LatencyModel::uniform(self.config.sts_mint_cost)
                .apply(uc_cloudstore::OpClass::Control);
        }
        let token = self
            .store
            .sts()
            .mint(&root, &scope, access, self.config.cred_ttl_ms)?;
        // Count actual STS mints (cache hits returned above) against the
        // requesting tenant — the per-tenant view of who pays for vending.
        if let Some(label) = uc_obs::current_tenant() {
            self.config
                .obs
                .counter_family("catalog.sts.mint.count.by_tenant")
                .inc(&label);
        }
        if self.config.cred_cache_enabled {
            self.cred_cache
                .put_with_expiry(cache_key, token.clone(), token.expires_at_ms);
        }
        Ok(token)
    }
}
