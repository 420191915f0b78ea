//! The generic entity–relationship data model (§4.2.2).
//!
//! Every securable is an [`entity::Entity`] persisted in the backing
//! database together with index rows maintained in the same transaction:
//! an order-preserving tree index ([`treekey`], DESIGN.md §11) that is the
//! name index (namespace uniqueness) and makes listings, subtree drops,
//! and ancestor-chain resolution single range scans, and a path index
//! (the one-asset-per-path invariant). [`manifest`] is the declarative
//! asset-type registry: per-kind privileges, hierarchy position, storage
//! behaviour, and validation hooks — the extension point through which
//! registered models were added (§4.2.3). [`feed`] is the per-metastore
//! change feed each write appends to in its own transaction.

pub mod entity;
pub mod feed;
pub mod keys;
pub mod manifest;
pub mod paths;
pub mod treekey;
