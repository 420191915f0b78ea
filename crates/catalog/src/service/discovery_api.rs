//! Discovery-facing APIs (§4.4): tags, FGAC/ABAC policy management,
//! lineage ingestion and traversal, the change-event feed, and the
//! metadata query API (information schema) with filter pushdown.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::sync::Arc;

use crate::authz::decision::{decide, Need};
use crate::authz::Privilege;
use crate::authz::abac::AbacPolicy;
use crate::authz::fgac::{ColumnMaskPolicy, RowFilterPolicy};
use crate::error::{UcError, UcResult};
use crate::events::{ChangeOp, MetadataChangeEvent};
use crate::ids::Uid;
use crate::lineage::{LineageDirection, LineageEdge};
use crate::model::entity::Entity;
use crate::model::keys::{self, T_LINEAGE, T_TREE};
use crate::ops::{self, Action, Op};
use crate::service::{Context, UnityCatalog};
use crate::types::{FullName, SecurableKind};

/// A pushed-down predicate for the metadata query API.
#[derive(Debug, Clone)]
pub enum MetaFilter {
    KindIs(SecurableKind),
    OwnerIs(String),
    /// Property equals value (e.g. format = DELTA).
    PropEquals(String, String),
    /// Entity carries this tag key (any value).
    HasTag(String),
    NameContains(String),
}

impl MetaFilter {
    fn matches(&self, e: &Entity) -> bool {
        match self {
            MetaFilter::KindIs(k) => e.kind == *k,
            MetaFilter::OwnerIs(o) => &e.owner == o,
            MetaFilter::PropEquals(k, v) => e.properties.get(k) == Some(v),
            MetaFilter::HasTag(k) => e.properties.contains_key(&format!("tag:{k}")),
            MetaFilter::NameContains(s) => e.name.contains(s.as_str()),
        }
    }
}

impl UnityCatalog {
    // ------------------------------------------------------------------
    // Tags
    // ------------------------------------------------------------------

    /// Set an entity-level tag (MODIFY or admin authority).
    pub fn set_tag(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
        key: &str,
        value: &str,
    ) -> UcResult<()> {
        self.tag_update(ctx, ms, name, leaf_group, |e| {
            e.set_tag(key, value);
        })
    }

    /// Set a column-level tag on a relation.
    pub fn set_column_tag(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        column: &str,
        key: &str,
        value: &str,
    ) -> UcResult<()> {
        self.tag_update(ctx, ms, name, "relation", |e| {
            e.set_column_tag(column, key, value);
        })
    }

    fn tag_update(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
        f: impl Fn(&mut Entity),
    ) -> UcResult<()> {
        let api = self.api_enter(Op::TAG_UPDATE, Some(&ctx.principal), Some(ms));
        let full = self.chain_by_name(ms, name, leaf_group)?;
        let target = &full[0];
        api.audit.gate(&full, Need::AdminOrAny(&[Privilege::Modify]), name)?;
        self.update_entity_by_id(ms, &target.id, |e| {
            f(e);
            Ok(())
        })?;
        self.publish_simple(ms, target, ChangeOp::TagChange);
        api.audit.allow(&target.id, name);
        Ok(())
    }

    /// Read tags on a securable the caller can see.
    pub fn get_tags(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
    ) -> UcResult<Vec<(String, String)>> {
        let _api = self.api_enter(Op::GET_TAGS, Some(&ctx.principal), Some(ms));
        let ent = self.get_securable(ctx, ms, name, leaf_group)?;
        Ok(ent.tags())
    }

    // ------------------------------------------------------------------
    // FGAC / ABAC policy management
    // ------------------------------------------------------------------

    /// Attach a row filter to a table (admin authority required).
    pub fn set_row_filter(
        &self,
        ctx: &Context,
        ms: &Uid,
        table: &FullName,
        policy: RowFilterPolicy,
    ) -> UcResult<()> {
        self.policy_update(ctx, ms, table, ops::SET_ROW_FILTER, move |e| {
            e.set_row_filter(&policy);
        })
    }

    /// Attach a column mask to a table (admin authority required).
    pub fn set_column_mask(
        &self,
        ctx: &Context,
        ms: &Uid,
        table: &FullName,
        policy: ColumnMaskPolicy,
    ) -> UcResult<()> {
        self.policy_update(ctx, ms, table, ops::SET_COLUMN_MASK, move |e| {
            e.set_column_mask(&policy);
        })
    }

    /// Remove a table's row filter.
    pub fn clear_row_filter(&self, ctx: &Context, ms: &Uid, table: &FullName) -> UcResult<()> {
        self.policy_update(ctx, ms, table, ops::CLEAR_ROW_FILTER, |e| {
            e.clear_row_filter();
        })
    }

    fn policy_update(
        &self,
        ctx: &Context,
        ms: &Uid,
        table: &FullName,
        action: Action,
        f: impl Fn(&mut Entity),
    ) -> UcResult<()> {
        let api = self.api_enter(Op::POLICY_UPDATE, Some(&ctx.principal), Some(ms));
        let audit = api.audit.acting(action);
        let full = self.chain_by_name(ms, table, "relation")?;
        let target = &full[0];
        audit.gate(&full, Need::Admin, table)?;
        self.update_entity_by_id(ms, &target.id, |e| {
            f(e);
            Ok(())
        })?;
        audit.allow(&target.id, table);
        Ok(())
    }

    /// Attach an ABAC policy to a container (admin authority on the
    /// container). The policy covers all current AND future securables in
    /// scope whose tags match.
    pub fn create_abac_policy(
        &self,
        ctx: &Context,
        ms: &Uid,
        scope: &FullName,
        scope_group: &str,
        policy: AbacPolicy,
    ) -> UcResult<()> {
        let api = self.api_enter(Op::CREATE_ABAC_POLICY, Some(&ctx.principal), Some(ms));
        let full = self.chain_by_name(ms, scope, scope_group)?;
        let target = &full[0];
        if !target.kind.is_container() {
            return Err(UcError::InvalidArgument(
                "ABAC policies attach to containers".into(),
            ));
        }
        api.audit.gate(&full, Need::Admin, &policy.name)?;
        let pname = policy.name.clone();
        self.update_entity_by_id(ms, &target.id, |e| {
            e.set_abac_policy(&policy);
            Ok(())
        })?;
        api.audit.allow(&target.id, &pname);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lineage
    // ------------------------------------------------------------------

    /// Record a lineage edge reported by an engine: `upstream` fed
    /// `downstream` in some job/query. The caller must be able to see both
    /// endpoints.
    pub fn add_lineage(
        &self,
        ctx: &Context,
        ms: &Uid,
        upstream: &FullName,
        downstream: &FullName,
        via: Option<&str>,
    ) -> UcResult<()> {
        let api = self.api_enter(Op::ADD_LINEAGE, Some(&ctx.principal), Some(ms));
        let up = self.get_securable(ctx, ms, upstream, "relation")?;
        let down = self.get_securable(ctx, ms, downstream, "relation")?;
        let edge = LineageEdge {
            upstream: up.id.clone(),
            downstream: down.id.clone(),
            via: via.map(|s| s.to_string()),
            columns: vec![],
            created_at_ms: self.now_ms(),
        };
        // Lineage is discovery metadata: stored transactionally but outside
        // the metastore-version protocol (it never affects operational
        // reads, so cache coherence is not required).
        let mut tx = self.db.begin_write();
        tx.put(T_LINEAGE, &keys::lineage_down_key(ms, &down.id, &up.id), edge.encode());
        tx.put(T_LINEAGE, &keys::lineage_up_key(ms, &up.id, &down.id), edge.encode());
        tx.commit()?;
        self.events.publish(MetadataChangeEvent {
            seq: 0,
            metastore: ms.clone(),
            entity_id: down.id.clone(),
            kind: down.kind,
            name: down.name.clone(),
            op: ChangeOp::LineageAdd,
            at_version: 0,
            timestamp_ms: self.now_ms(),
        });
        api.audit.allow(&down.id, format!("{upstream} -> {downstream}"));
        Ok(())
    }

    /// Transitive lineage from a securable, filtered to entities the
    /// caller can see. Returns entity ids.
    pub fn lineage(
        &self,
        ctx: &Context,
        ms: &Uid,
        start: &FullName,
        direction: LineageDirection,
        max_hops: usize,
    ) -> UcResult<BTreeSet<Uid>> {
        let _api = self.api_enter(Op::LINEAGE, Some(&ctx.principal), Some(ms));
        let start_ent = self.get_securable(ctx, ms, start, "relation")?;
        let who = self.authz_context(ms, &ctx.principal)?;
        let rt = self.db.begin_read();
        let mut seen: HashSet<Uid> = HashSet::new();
        let mut queue = VecDeque::from([(start_ent.id.clone(), 0usize)]);
        while let Some((node, depth)) = queue.pop_front() {
            if depth >= max_hops {
                continue;
            }
            let prefix = match direction {
                LineageDirection::Downstream => format!("{ms}/u/{node}/"),
                LineageDirection::Upstream => format!("{ms}/d/{node}/"),
            };
            for (key, _) in rt.scan_prefix(T_LINEAGE, &prefix) {
                let Some(next) = key.rsplit('/').next() else { continue };
                let next = Uid::from(next);
                if seen.insert(next.clone()) {
                    queue.push_back((next, depth + 1));
                }
            }
        }
        seen.remove(&start_ent.id);
        // Authorization filter: hide entities the caller cannot see.
        let mut visible = BTreeSet::new();
        for id in seen {
            if self.chain_by_id(ms, &id)?.is_some_and(|full| decide(&full, &who, Need::See)) {
                visible.insert(id);
            }
        }
        Ok(visible)
    }

    // ------------------------------------------------------------------
    // Events
    // ------------------------------------------------------------------

    /// Consume the change-event stream from an offset. Used by second-tier
    /// services; returns (events, next offset).
    pub fn events_since(&self, offset: u64) -> (Vec<MetadataChangeEvent>, u64) {
        let _api = self.api_enter(Op::EVENTS_SINCE, None, None);
        self.events.since(offset)
    }

    fn publish_simple(&self, ms: &Uid, ent: &Entity, op: ChangeOp) {
        self.events.publish(MetadataChangeEvent {
            seq: 0,
            metastore: ms.clone(),
            entity_id: ent.id.clone(),
            kind: ent.kind,
            name: ent.name.clone(),
            op,
            at_version: 0,
            timestamp_ms: self.now_ms(),
        });
    }

    // ------------------------------------------------------------------
    // Metadata query API (information schema)
    // ------------------------------------------------------------------

    /// Query entities in a metastore with pushed-down filters, returning
    /// only securables visible to the caller. Powers information_schema
    /// and discovery backends.
    pub fn query_entities(
        &self,
        ctx: &Context,
        ms: &Uid,
        filters: &[MetaFilter],
        limit: usize,
    ) -> UcResult<Vec<Arc<Entity>>> {
        let _api = self.api_enter(Op::QUERY_ENTITIES, Some(&ctx.principal), Some(ms));
        let who = self.authz_context(ms, &ctx.principal)?;
        let rt = self.db.begin_read();
        let mut out = Vec::new();
        // One scan of the metastore's tree range, at one snapshot. Keys
        // sort ancestors before descendants, so the rows seen so far whose
        // keys prefix the current one *are* its chain: `path` holds them,
        // metastore first.
        let mut path: Vec<(String, Arc<Entity>)> = Vec::new();
        for (key, raw) in rt.scan_prefix(T_TREE, &keys::tree_ms_prefix(ms)) {
            if out.len() >= limit {
                break;
            }
            let ent = Arc::new(Entity::decode(&raw)?);
            while path.last().is_some_and(|(above, _)| !key.starts_with(above.as_str())) {
                path.pop();
            }
            path.push((key, ent.clone()));
            // Pushdown: cheap predicate evaluation before the (costlier)
            // authorization decision.
            if !filters.iter().all(|f| f.matches(&ent)) {
                continue;
            }
            let full: Vec<Arc<Entity>> = path.iter().rev().map(|(_, e)| e.clone()).collect();
            if decide(&full, &who, Need::See) {
                out.push(ent);
            }
        }
        Ok(out)
    }
}
