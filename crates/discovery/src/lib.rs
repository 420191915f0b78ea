//! Second-tier discovery services (§4.4): search over catalog metadata.
//!
//! The discovery service is a *background* consumer of the core catalog:
//! it ingests the metadata change-event stream to keep an inverted index
//! over names, comments, and tags, and answers search queries filtered
//! through the catalog's batched authorization API — so users only ever
//! see results they could see in the operational catalog.
//!
//! Two synchronization strategies are implemented, matching the paper's
//! discussion of the design space:
//!
//! * [`DiscoveryService::sync`] — event-driven: consume only what changed
//!   since the last metastore version consumed (cheap, fresh). The stream
//!   is the metastore's change feed, so a service attached to any node
//!   sees every node's writes, and its position survives a restart;
//! * [`DiscoveryService::sync_by_polling`] — rescan the full metadata via
//!   the query API (what discovery catalogs must do against catalogs
//!   without change streams; the ablation bench quantifies the cost). An
//!   event consumer that fell behind the feed's retention window resyncs
//!   this way.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use parking_lot::RwLock;
use uc_catalog::cache::read_ms_version;
use uc_catalog::events::ChangeOp;
use uc_catalog::ids::Uid;
use uc_catalog::service::{Context, UnityCatalog};
use uc_catalog::types::SecurableKind;
use uc_catalog::UcResult;

/// An indexed document: the searchable projection of one securable.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedEntity {
    pub id: Uid,
    pub kind: SecurableKind,
    pub name: String,
    pub comment: Option<String>,
    pub tags: Vec<(String, String)>,
}

/// One search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    pub id: Uid,
    pub kind: SecurableKind,
    pub name: String,
}

/// Synchronization counters (for the events-vs-polling ablation).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyncStats {
    /// Events consumed so far.
    pub events_consumed: u64,
    /// Entities (re)indexed.
    pub entities_indexed: u64,
    /// Entities removed from the index.
    pub entities_removed: u64,
    /// Catalog API calls made during synchronization.
    pub catalog_calls: u64,
}

struct IndexState {
    /// token → entity ids.
    postings: BTreeMap<String, BTreeSet<Uid>>,
    /// id → document (for de-indexing and hit rendering).
    docs: HashMap<Uid, IndexedEntity>,
    /// The metastore version the index reflects every event through.
    consumed: u64,
    stats: SyncStats,
}

/// The discovery service for one metastore.
pub struct DiscoveryService {
    uc: Arc<UnityCatalog>,
    ms: Uid,
    /// Platform identity with visibility over the metastore (typically a
    /// metastore admin service principal), calling from the workspace the
    /// service runs in: the index holds what this context may see.
    service_ctx: Context,
    state: RwLock<IndexState>,
}

impl DiscoveryService {
    pub fn new(uc: Arc<UnityCatalog>, ms: Uid, service_ctx: Context) -> Self {
        DiscoveryService {
            uc,
            ms,
            service_ctx,
            state: RwLock::new(IndexState {
                postings: BTreeMap::new(),
                docs: HashMap::new(),
                consumed: 0,
                stats: SyncStats::default(),
            }),
        }
    }

    /// Event-driven incremental sync. Returns how many events were
    /// processed — or, when the service was behind the feed's retention
    /// window and resynced by polling, how many entities it re-read.
    pub fn sync(&self) -> UcResult<usize> {
        let _span = self.uc.obs().span_timed("discovery", "sync");
        let consumed = self.state.read().consumed;
        let page = self.uc.events_since(&self.service_ctx, &self.ms, consumed)?;
        if page.resync {
            return self.sync_by_polling();
        }
        let count = page.events.len();
        let mut touched: BTreeMap<Uid, ChangeOp> = BTreeMap::new();
        for ev in &page.events {
            // Later events for the same entity supersede earlier ones.
            touched.insert(ev.entity_id.clone(), ev.op);
        }
        // Fetch updated entities *before* taking the index write lock:
        // get_entity_by_id re-enters the catalog service (a yield point
        // under the deterministic scheduler), and the index lock must not
        // be held across it — readers would stall, and a yield point
        // reached holding a guard panics.
        let mut fetched = Vec::with_capacity(touched.len());
        let mut calls = 0u64;
        for (id, op) in touched {
            let ent = match op {
                ChangeOp::Delete => None,
                _ => {
                    calls += 1;
                    // A fetch that fails raced with a delete: drop below.
                    self.uc.get_entity_by_id(&self.service_ctx, &self.ms, &id).ok()
                }
            };
            fetched.push((id, op, ent));
        }
        let mut state = self.state.write();
        state.stats.events_consumed += count as u64;
        state.stats.catalog_calls += calls;
        for (id, op, ent) in fetched {
            match (op, ent) {
                (ChangeOp::Delete, _) => {
                    Self::remove_doc(&mut state, &id);
                    state.stats.entities_removed += 1;
                }
                (_, Some(ent)) => {
                    let doc = IndexedEntity {
                        id: ent.id.clone(),
                        kind: ent.kind,
                        name: ent.name.clone(),
                        comment: ent.comment.clone(),
                        tags: ent.governance().tags.clone().into_iter().collect(),
                    };
                    Self::index_doc(&mut state, doc);
                    state.stats.entities_indexed += 1;
                }
                (_, None) => Self::remove_doc(&mut state, &id),
            }
        }
        state.consumed = state.consumed.max(page.next_version);
        // The index lock is a leaf: released before the registry's.
        drop(state);
        self.uc.obs().counter("discovery.sync.events").add(count as u64);
        Ok(count)
    }

    /// Polling-style full resync: rescan every entity via the metadata
    /// query API. Much more catalog load for the same freshness. The scan
    /// reflects every version up to the feed head read before it, so event
    /// consumption resumes from there (re-indexing what the scan already
    /// saw is idempotent).
    pub fn sync_by_polling(&self) -> UcResult<usize> {
        let _span = self.uc.obs().span_timed("discovery", "sync_by_polling");
        let head = self.head();
        let entities = self
            .uc
            .query_entities(&self.service_ctx, &self.ms, &[], usize::MAX)?;
        let mut state = self.state.write();
        state.consumed = state.consumed.max(head);
        state.stats.catalog_calls += 1;
        state.postings.clear();
        let count = entities.len();
        let live: BTreeSet<Uid> = entities.iter().map(|e| e.id.clone()).collect();
        state.docs.retain(|id, _| live.contains(id));
        for ent in entities {
            let doc = IndexedEntity {
                id: ent.id.clone(),
                kind: ent.kind,
                name: ent.name.clone(),
                comment: ent.comment.clone(),
                tags: ent.governance().tags.clone().into_iter().collect(),
            };
            Self::index_doc(&mut state, doc);
            state.stats.entities_indexed += 1;
        }
        Ok(count)
    }

    fn tokens_of(doc: &IndexedEntity) -> BTreeSet<String> {
        let mut tokens = BTreeSet::new();
        for part in doc.name.split(['_', '-', '.']) {
            if !part.is_empty() {
                tokens.insert(part.to_ascii_lowercase());
            }
        }
        if let Some(c) = &doc.comment {
            for word in c.split_whitespace() {
                tokens.insert(word.trim_matches(|ch: char| !ch.is_alphanumeric()).to_ascii_lowercase());
            }
        }
        for (k, v) in &doc.tags {
            tokens.insert(k.to_ascii_lowercase());
            if !v.is_empty() {
                tokens.insert(v.to_ascii_lowercase());
            }
        }
        tokens.remove("");
        tokens
    }

    fn index_doc(state: &mut IndexState, doc: IndexedEntity) {
        Self::remove_doc(state, &doc.id.clone());
        for token in Self::tokens_of(&doc) {
            state.postings.entry(token).or_default().insert(doc.id.clone());
        }
        state.docs.insert(doc.id.clone(), doc);
    }

    fn remove_doc(state: &mut IndexState, id: &Uid) {
        if let Some(doc) = state.docs.remove(id) {
            for token in Self::tokens_of(&doc) {
                if let Some(set) = state.postings.get_mut(&token) {
                    set.remove(id);
                    if set.is_empty() {
                        state.postings.remove(&token);
                    }
                }
            }
        }
    }

    /// Search for entities matching all query tokens, visible to the user
    /// `ctx` names from the workspace it calls from. Authorization is
    /// enforced through the catalog's batch visibility API at query time —
    /// the index itself is not an authorization boundary.
    pub fn search(&self, ctx: &Context, query: &str) -> UcResult<Vec<SearchHit>> {
        let _span = self.uc.obs().span_timed("discovery", "search");
        self.uc.obs().counter("discovery.search.count").inc();
        let tokens: Vec<String> = query
            .split_whitespace()
            .map(|t| t.to_ascii_lowercase())
            .collect();
        if tokens.is_empty() {
            return Ok(Vec::new());
        }
        let state = self.state.read();
        let mut candidates: Option<BTreeSet<Uid>> = None;
        for token in &tokens {
            let matches: BTreeSet<Uid> = state
                .postings
                .range(token.clone()..)
                .take_while(|(t, _)| t.starts_with(token.as_str()))
                .flat_map(|(_, ids)| ids.iter().cloned())
                .collect();
            candidates = Some(match candidates {
                Some(prev) => prev.intersection(&matches).cloned().collect(),
                None => matches,
            });
        }
        let ids: Vec<Uid> = candidates.unwrap_or_default().into_iter().collect();
        let hits: Vec<SearchHit> = ids
            .iter()
            .filter_map(|id| state.docs.get(id))
            .map(|d| SearchHit { id: d.id.clone(), kind: d.kind, name: d.name.clone() })
            .collect();
        drop(state);
        // Authorization filter via the core service.
        let visible = self.uc.visible_batch(ctx, &self.ms, &ids)?;
        Ok(hits
            .into_iter()
            .zip(visible)
            .filter_map(|(hit, ok)| ok.then_some(hit))
            .collect())
    }

    /// How many entities are indexed.
    pub fn indexed_count(&self) -> usize {
        self.state.read().docs.len()
    }

    /// Synchronization counters.
    pub fn stats(&self) -> SyncStats {
        self.state.read().stats
    }

    /// Freshness: metastore versions committed but not yet consumed.
    pub fn lag(&self) -> u64 {
        self.head().saturating_sub(self.state.read().consumed)
    }

    /// The metastore's current version: its feed head.
    fn head(&self) -> u64 {
        read_ms_version(&self.uc.db().begin_read(), &self.ms)
    }
}
