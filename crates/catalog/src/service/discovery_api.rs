//! Discovery-facing APIs (§4.4): tags, FGAC/ABAC policy management,
//! lineage ingestion and traversal, the change-event feed, and the
//! metadata query API (information schema) with filter pushdown.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::sync::Arc;

use crate::authz::decision::Need;
use crate::authz::Privilege;
use crate::authz::abac::AbacPolicy;
use crate::authz::fgac::{ColumnMaskPolicy, RowFilterPolicy};
use crate::error::{UcError, UcResult};
use crate::cache::read_ms_version;
use crate::events::{ChangeOp, EventPage, MetadataChangeEvent};
use crate::ids::Uid;
use crate::lineage::{LineageDirection, LineageEdge};
use crate::model::entity::Entity;
use crate::model::feed::{self, FeedEvent};
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
            MetaFilter::HasTag(k) => e.governance().tags.contains_key(k),
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
            e.governance_mut().tags.insert(key.to_string(), value.to_string());
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
            let tags = e.governance_mut().column_tags.entry(column.to_string()).or_default();
            tags.insert(key.to_string(), value.to_string());
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
        let api = self.api_enter(Op::TAG_UPDATE, Some(ctx), Some(ms));
        let full = self.chain_by_name(ms, name, leaf_group)?;
        let target = &full[0];
        api.audit.gate(&full, Need::AdminOrAny(&[Privilege::Modify]), name)?;
        self.update_entity_by_id(ms, &target.id, ChangeOp::TagChange, |e| {
            f(e);
            Ok(())
        })?;
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
        let api = self.api_enter(Op::GET_TAGS, Some(ctx), Some(ms));
        let (full, _) = api.audit.see(ms, name, leaf_group)?;
        api.audit.allow(&full[0].id, name);
        Ok(full[0].governance().tags.clone().into_iter().collect())
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
            e.governance_mut().fgac.row_filter = Some(policy.clone());
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
        // Masks stay sorted by column, one per column: a new mask on a
        // masked column replaces the old one.
        self.policy_update(ctx, ms, table, ops::SET_COLUMN_MASK, move |e| {
            let masks = &mut e.governance_mut().fgac.column_masks;
            match masks.binary_search_by(|m| m.column.cmp(&policy.column)) {
                Ok(at) => masks[at] = policy.clone(),
                Err(at) => masks.insert(at, policy.clone()),
            }
        })
    }

    /// Remove a table's row filter.
    pub fn clear_row_filter(&self, ctx: &Context, ms: &Uid, table: &FullName) -> UcResult<()> {
        self.policy_update(ctx, ms, table, ops::CLEAR_ROW_FILTER, |e| {
            e.governance_mut().fgac.row_filter = None;
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
        let api = self.api_enter(Op::POLICY_UPDATE, Some(ctx), Some(ms));
        let audit = api.audit.acting(action);
        let full = self.chain_by_name(ms, table, "relation")?;
        let target = &full[0];
        audit.gate(&full, Need::Admin, table)?;
        self.update_entity_by_id(ms, &target.id, ChangeOp::Update, |e| {
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
        let api = self.api_enter(Op::CREATE_ABAC_POLICY, Some(ctx), Some(ms));
        let full = self.chain_by_name(ms, scope, scope_group)?;
        let target = &full[0];
        if !target.kind.is_container() {
            return Err(UcError::InvalidArgument(
                "ABAC policies attach to containers".into(),
            ));
        }
        api.audit.gate(&full, Need::Admin, &policy.name)?;
        let pname = policy.name.clone();
        self.update_entity_by_id(ms, &target.id, ChangeOp::Update, |e| {
            e.governance_mut().abac.insert(policy.name.clone(), policy.clone());
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
    /// endpoints, through the workspace it calls from; a refusal is this
    /// op's own.
    pub fn add_lineage(
        &self,
        ctx: &Context,
        ms: &Uid,
        upstream: &FullName,
        downstream: &FullName,
        via: Option<&str>,
    ) -> UcResult<()> {
        let api = self.api_enter(Op::ADD_LINEAGE, Some(ctx), Some(ms));
        let mut ends = Vec::with_capacity(2);
        for name in [upstream, downstream] {
            let (mut full, _) = api.audit.see(ms, name, "relation")?;
            ends.push(full.swap_remove(0));
        }
        let (up, down) = (&ends[0], &ends[1]);
        let edge = LineageEdge {
            upstream: up.id.clone(),
            downstream: down.id.clone(),
            via: via.map(|s| s.to_string()),
            columns: vec![],
            created_at_ms: self.now_ms(),
        };
        // Lineage is discovery metadata: it commits a metastore version so
        // that its event is in the feed, but writes no tree or path row, so
        // another node's reconcile of that version invalidates nothing.
        self.write_ms(ms, |tx, _ver, fx| {
            tx.put(T_LINEAGE, &keys::lineage_down_key(ms, &down.id, &up.id), edge.encode());
            tx.put(T_LINEAGE, &keys::lineage_up_key(ms, &up.id, &down.id), edge.encode());
            let (id, kind, name) = (down.id.clone(), down.kind, down.name.clone());
            fx.events.push(FeedEvent { id, kind, name, op: ChangeOp::LineageAdd });
            Ok(())
        })?;
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
        let api = self.api_enter(Op::LINEAGE, Some(ctx), Some(ms));
        let (full, who) = api.audit.see(ms, start, "relation")?;
        let start_ent = &full[0];
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
            if self.chain_by_id(ms, &id)?.is_some_and(|full| api.audit.visible(&who, &full)) {
                visible.insert(id);
            }
        }
        api.audit.allow(&start_ent.id, start);
        Ok(visible)
    }

    // ------------------------------------------------------------------
    // Events
    // ------------------------------------------------------------------

    /// Consume a metastore's change-event stream after `after_version`, on
    /// any node: one range read of the metastore's feed, at one snapshot.
    /// Used by second-tier services, which pass `next_version` back in. A
    /// consumer behind the feed's retention window gets `resync` and no
    /// events: it rebuilds from the full state (the query API), then
    /// resumes from `next_version`. On return this node's cache is at
    /// `next_version` or later, so an entity an event names is never read
    /// back older than the event. It names every securable: admins only.
    pub fn events_since(&self, ctx: &Context, ms: &Uid, after_version: u64) -> UcResult<EventPage> {
        let api = self.api_enter(Op::EVENTS_SINCE, Some(ctx), Some(ms));
        let root = self.metastore_chain(ms)?;
        api.audit.gate(&root, Need::MetastoreAdmin, "events")?;
        let rt = self.db.begin_read();
        let (rows, complete) = feed::rows_between(&rt, ms, after_version, u64::MAX)?;
        api.audit.allow(&root[0].id, format!("events after v{after_version}"));
        let next_version = rows.last().map_or_else(|| read_ms_version(&rt, ms), |(version, _)| *version);
        let cache = self.cache.for_metastore(ms);
        if cache.version() < next_version {
            cache.catch_up(ms, &self.db);
        }
        if !complete {
            return Ok(EventPage { events: Vec::new(), next_version, resync: true });
        }
        let events = rows
            .into_iter()
            .flat_map(|(at_version, row)| {
                let timestamp_ms = row.at_ms;
                row.events.into_iter().map(move |e| MetadataChangeEvent {
                    metastore: ms.clone(),
                    entity_id: e.id,
                    kind: e.kind,
                    name: e.name,
                    op: e.op,
                    at_version,
                    timestamp_ms,
                })
            })
            .collect();
        Ok(EventPage { events, next_version, resync: false })
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
        let api = self.api_enter(Op::QUERY_ENTITIES, Some(ctx), Some(ms));
        let who = self.authz_context(ms, &ctx.principal)?;
        let rt = self.db.begin_read();
        let mut out = Vec::new();
        // One scan of the metastore's tree range, at one snapshot. Keys
        // sort ancestors before descendants, so the rows seen so far whose
        // keys prefix the current one *are* its chain: `path` holds them,
        // metastore first.
        let mut path: Vec<(String, Arc<Entity>)> = Vec::new();
        let cache = self.cache.for_metastore(ms);
        for (key, raw) in rt.scan_prefix(T_TREE, &keys::tree_ms_prefix(ms)) {
            if out.len() >= limit {
                break;
            }
            let ent = cache.decoded(&key, &raw)?;
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
            if api.audit.visible(&who, &full) {
                out.push(ent);
            }
        }
        Ok(out)
    }
}
