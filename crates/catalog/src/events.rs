//! The metadata change-event stream (§4.4).
//!
//! Whenever metadata changes, the commit that changes it stores the events
//! in its metastore's change feed ([`crate::model::feed`]), so an event
//! exists exactly when its commit does, on every node, across restarts.
//! Second-tier services (search, lineage, external discovery catalogs)
//! consume a metastore's stream by version through
//! `UnityCatalog::events_since`, staying fresh without polling the
//! operational APIs; a consumer's position is the version it has read
//! through, so consumption is restartable and consumers progress
//! independently.

use serde::{Deserialize, Serialize};

use crate::ids::Uid;
use crate::types::SecurableKind;

/// What changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChangeOp {
    Create,
    Update,
    Delete,
    GrantChange,
    TagChange,
    /// A catalog-owned table commit.
    Commit,
    LineageAdd,
}

/// One published change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetadataChangeEvent {
    pub metastore: Uid,
    pub entity_id: Uid,
    pub kind: SecurableKind,
    /// Entity name at event time (already-deleted entities keep their
    /// last name so consumers can de-index them).
    pub name: String,
    pub op: ChangeOp,
    /// The metastore version of the commit that carried the event: its
    /// position in the stream.
    pub at_version: u64,
    pub timestamp_ms: u64,
}

/// One read of a metastore's stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EventPage {
    /// The events of every version after the consumer's, oldest first.
    pub events: Vec<MetadataChangeEvent>,
    /// The version read through: the consumer's next `after_version`.
    pub next_version: u64,
    /// The consumer was behind the feed's retention window: the events it
    /// missed are gone and `events` is empty. It must rebuild from the full
    /// state, then consume from `next_version`.
    pub resync: bool,
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::service::{Context, UnityCatalog};

    fn world() -> (Arc<UnityCatalog>, Uid, Context) {
        let uc = UnityCatalog::in_memory();
        let ms = uc.create_metastore("admin", "prod", "us-west-2").unwrap();
        (uc, ms, Context::user("admin"))
    }

    #[test]
    fn publish_assigns_dense_sequence() {
        // Versions are the sequence: every commit is the next one, and its
        // events carry it.
        let (uc, ms, ctx) = world();
        let start = uc.events_since(&ctx, &ms, 0).unwrap().next_version;
        for name in ["a", "b", "c"] {
            uc.create_catalog(&ctx, &ms, name).unwrap();
        }
        let page = uc.events_since(&ctx, &ms, start).unwrap();
        let versions: Vec<u64> = page.events.iter().map(|e| e.at_version).collect();
        assert_eq!(versions, [start + 1, start + 2, start + 3]);
        assert_eq!(page.next_version, start + 3);
    }

    #[test]
    fn consumption_by_offset() {
        let (uc, ms, ctx) = world();
        uc.create_catalog(&ctx, &ms, "a").unwrap();
        let page = uc.events_since(&ctx, &ms, 0).unwrap();
        assert_eq!(page.events.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(), ["prod", "a"]);
        assert!(!page.resync);
        // nothing new
        let again = uc.events_since(&ctx, &ms, page.next_version).unwrap();
        assert!(again.events.is_empty());
        assert_eq!(again.next_version, page.next_version);
        // a new event arrives
        uc.create_catalog(&ctx, &ms, "c").unwrap();
        let next = uc.events_since(&ctx, &ms, again.next_version).unwrap();
        assert_eq!(next.events.len(), 1);
        assert_eq!(next.events[0].name, "c");
        assert_eq!(next.next_version, page.next_version + 1);
    }

    #[test]
    fn independent_consumers_progress_separately() {
        let (uc, ms, ctx) = world();
        for i in 0..5 {
            uc.create_catalog(&ctx, &ms, &format!("e{i}")).unwrap();
        }
        let fast = uc.events_since(&ctx, &ms, 0).unwrap();
        let slow = uc.events_since(&ctx, &ms, 3).unwrap();
        assert_eq!(fast.events.len(), 6, "the metastore's own create and five catalogs");
        assert_eq!(slow.events.len(), 3);
        assert_eq!(slow.events[0].name, "e2");
        assert_eq!(fast.next_version, slow.next_version);
    }

    #[test]
    fn offset_beyond_head_is_safe() {
        let (uc, ms, ctx) = world();
        let page = uc.events_since(&ctx, &ms, 99).unwrap();
        assert!(page.events.is_empty() && !page.resync);
        assert_eq!(page.next_version, 1, "a position past the head is brought back to it");
    }
}
