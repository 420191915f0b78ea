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

use crate::audit::AuditDecision;
use crate::authz::decision::Need;
use crate::error::{UcError, UcResult};
use crate::ids::Uid;
use crate::model::entity::Entity;
use crate::model::manifest::manifest;
use crate::ops::Op;
use crate::service::{ApiGuard, Context, UnityCatalog, CRED_TTL_MS};
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
        let api = self.api_enter(Op::TEMP_CREDENTIALS, Some(ctx), Some(ms));
        let full = self.chain_by_name(ms, asset, leaf_group)?;
        self.vend_for_chain(&api, ms, &full, access, asset)
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
        let api = self.api_enter(Op::TEMP_CREDENTIALS_FOR_PATH, Some(ctx), Some(ms));
        let parsed = StoragePath::parse(path).map_err(|e| UcError::InvalidArgument(e.to_string()))?;
        let Some(full) = self.chain_by_path(ms, &parsed)? else {
            api.audit.record(None, AuditDecision::Deny, path);
            return Err(UcError::NotFound(format!("no asset governs path {path}")));
        };
        self.vend_for_chain(&api, ms, &full, access, path)
    }

    /// Shared vending flow once the asset's full chain is known — the same
    /// decision whether it was addressed by name, by path or by id: the
    /// gate (bindings included), then the data-policy rule.
    fn vend_for_chain(
        &self,
        api: &ApiGuard<'_>,
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
        let who = api.audit.gate(full, Need::Data(needed), &detail)?;
        // Raw storage access would bypass any policy that binds the asset.
        api.audit.policies(&who, full)?;
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
        let api = self.api_enter(Op::RENEW_READ_CREDENTIAL, Some(ctx), Some(ms));
        let full = self
            .chain_by_id(ms, id)?
            .ok_or_else(|| UcError::NotFound(format!("asset {id}")))?;
        self.vend_for_chain(&api, ms, &full, AccessLevel::Read, "renew")
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
            return Err(UcError::Unavailable(
                "injected fault: credential vending unavailable".into(),
            ));
        }
        let scope = StoragePath::parse(path_str).map_err(|e| UcError::Storage(e.to_string()))?;
        let cache_key = (entity.id.clone(), access);
        if self.config.cred_cache_enabled {
            if let Some(tok) = self.cred_cache.get(&cache_key) {
                // Reuse only while a useful fraction of the TTL remains.
                if tok.remaining_ms(self.now_ms()) > CRED_TTL_MS / 4 {
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
            .mint(&root, &scope, access, CRED_TTL_MS)?;
        // Count actual STS mints (cache hits returned above) against the
        // requesting tenant — the per-tenant view of who pays for vending.
        if let Some(label) = uc_obs::current_tenant() {
            self.stats.sts_mints_by_tenant.inc(&label);
        }
        if self.config.cred_cache_enabled {
            self.cred_cache
                .put_with_expiry(cache_key, token.clone(), token.expires_at_ms);
        }
        Ok(token)
    }
}
