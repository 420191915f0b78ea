//! Batched metadata resolution — the "life of a SQL query" entry point
//! (§3.4 step 2).
//!
//! One API call authorizes and returns everything an engine needs to plan
//! a query over a set of relations: entity metadata, column schemas,
//! transitively resolved view dependencies, applicable FGAC policies
//! (trusted engines only), ABAC-derived policies, and — optionally —
//! read credentials for every storage-backed securable involved. Nested
//! views over hundreds of base tables resolve in a single round trip,
//! which is the batching optimization §4.5 credits for interactive-query
//! latency.

use std::sync::Arc;

use uc_cloudstore::{AccessLevel, TempCredential};
use uc_delta::value::Schema;

use crate::authz::decision::{AuthzContext, Need};
use crate::authz::fgac::FgacPolicies;
use crate::authz::Privilege;
use crate::error::{UcError, UcResult};
use crate::ids::Uid;
use crate::model::entity::{props, Entity};
use crate::ops::Op;
use crate::service::{ApiGuard, Context, UnityCatalog};
use crate::types::{FullName, SecurableKind};

/// Maximum view-nesting depth resolved in one call.
const MAX_DEPTH: usize = 12;

/// One fully resolved securable.
#[derive(Debug, Clone)]
pub struct ResolvedSecurable {
    pub entity: Arc<Entity>,
    /// Column schema for relations.
    pub schema: Option<Schema>,
    /// FGAC policies the engine must enforce (empty when none apply; only
    /// populated for trusted engines).
    pub fgac: FgacPolicies,
    /// Transitive dependencies (views → base relations).
    pub dependencies: Vec<ResolvedSecurable>,
    /// Read credential for storage-backed securables, when requested.
    pub read_credential: Option<TempCredential>,
}

impl UnityCatalog {
    /// Resolve all `refs` (tables/views) for a read query in one batched
    /// call: per ref, the gate (SELECT plus the USE chain, then the
    /// workspace bindings) → dependency closure, policies and credentials →
    /// `Allow` audit. The
    /// caller's context is built once, from the first chain's metastore
    /// entity. A refusal ends the call: the refs before it have already
    /// recorded their `Allow`s, so a caller must not re-run them.
    pub fn resolve_for_query(
        &self,
        ctx: &Context,
        ms: &Uid,
        refs: &[FullName],
        want_credentials: bool,
    ) -> UcResult<Vec<ResolvedSecurable>> {
        let api = self.api_enter(Op::RESOLVE_FOR_QUERY, Some(ctx), Some(ms));
        let mut who: Option<AuthzContext> = None;
        let mut out = Vec::with_capacity(refs.len());
        for name in refs {
            let full = self.chain_by_name(ms, name, "relation")?;
            let who = match &mut who {
                Some(who) => who,
                None => who.insert(self.authz_context_with(&full, &ctx.principal)?),
            };
            api.audit.gate_with(who, &full, Need::Data(Privilege::Select), name)?;
            let resolved = self.resolve_entity(&api, ms, who, &full, want_credentials, 0)?;
            api.audit.allow(&resolved.entity.id, name);
            out.push(resolved);
        }
        Ok(out)
    }

    /// Resolve one entity plus its dependency closure. Dependencies of a
    /// view are resolved *without* caller privilege checks: SELECT on the
    /// view grants access to the data it exposes (view-based access
    /// control) — the engine receives base metadata and credentials even
    /// when the caller has no direct grants on the base tables. The
    /// data-policy rule (`Audited::policies`) holds at every level.
    fn resolve_entity(
        &self,
        api: &ApiGuard<'_>,
        ms: &Uid,
        who: &AuthzContext,
        full_chain: &[Arc<Entity>],
        want_credentials: bool,
        depth: usize,
    ) -> UcResult<ResolvedSecurable> {
        let entity = full_chain[0].clone();
        if depth > MAX_DEPTH {
            return Err(UcError::InvalidArgument(format!(
                "view nesting exceeds {MAX_DEPTH} levels at {}",
                entity.name
            )));
        }
        let fgac = api.audit.policies(who, full_chain)?;
        // An absent schema is none; a schema or dependency list that is
        // present but does not decode is a corrupt row.
        let schema = entity.properties.contains_key(props::SCHEMA).then(|| entity.table_schema()).transpose()?;
        let mut dependencies = Vec::new();
        for dep_id in entity.dependencies()? {
            let dep_chain = self
                .chain_by_id(ms, &dep_id)?
                .ok_or_else(|| UcError::NotFound(format!("view dependency {dep_id} of {}", entity.name)))?;
            dependencies.push(self.resolve_entity(api, ms, who, &dep_chain, want_credentials, depth + 1)?);
        }
        let read_credential = if want_credentials && entity.storage_path.is_some() {
            Some(self.mint_for_entity(ms, &entity, AccessLevel::Read)?)
        } else {
            None
        };
        Ok(ResolvedSecurable { entity, schema, fgac, dependencies, read_credential })
    }

    /// Resolve a model version for serving: metadata plus an artifact-read
    /// credential — the MLflow `RestStore`/`ArtifactRepository` flow
    /// (§4.2.3).
    pub fn resolve_model_version(
        &self,
        ctx: &Context,
        ms: &Uid,
        model: &FullName,
        version: u64,
    ) -> UcResult<ResolvedSecurable> {
        let api = self.api_enter(Op::RESOLVE_MODEL_VERSION, Some(ctx), Some(ms));
        let mut parts: Vec<&str> = model.parts.iter().map(|s| s.as_str()).collect();
        let vname = format!("v{version}");
        parts.push(&vname);
        let name = FullName::of(&parts);
        let full = self.chain_by_name(ms, &name, SecurableKind::ModelVersion.name_group())?;
        let entity = full[0].clone();
        let who = api.audit.gate(&full, Need::Data(Privilege::Execute), &name)?;
        let fgac = api.audit.policies(&who, &full)?;
        let read_credential = Some(self.mint_for_entity(ms, &entity, AccessLevel::Read)?);
        api.audit.allow(&entity.id, name);
        Ok(ResolvedSecurable {
            schema: None,
            fgac,
            dependencies: Vec::new(),
            read_credential,
            entity,
        })
    }
}
