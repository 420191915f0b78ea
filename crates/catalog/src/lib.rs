//! Unity Catalog: an open, universal Lakehouse catalog — Rust reproduction.
//!
//! This crate implements the paper's primary contribution: a multi-tenant
//! catalog service over a three-level namespace (metastore → catalog →
//! schema → asset) with
//!
//! * a generic **entity–relationship data model** with a declarative
//!   asset-type registry ([`model`]) — adding an asset type is adding a
//!   manifest, demonstrated by the MLflow-style registered models;
//! * the **one-asset-per-path principle** enforced transactionally over
//!   storage paths ([`model::paths`]);
//! * **consistent governance**: ownership, SQL-style hierarchical grants,
//!   fine-grained access control (row filters / column masks for trusted
//!   engines), attribute-based access control, and audit logging
//!   ([`authz`], [`audit`]), over operations declared once ([`ops`]);
//! * **credential vending**: clients never touch cloud storage directly;
//!   the catalog resolves names *or raw paths* to assets, authorizes, and
//!   mints down-scoped expiring tokens ([`service`], §4.3.1);
//! * the §4.5 **performance design**: a per-metastore write-through
//!   multi-version cache giving snapshot reads and serializable writes
//!   without distributed consensus, plus TTL caches for immutable
//!   metadata and batched metadata resolution ([`cache`]);
//! * **discovery support**: metadata change events, lineage ingestion,
//!   and a batch authorization API for second-tier services ([`events`],
//!   [`lineage`]);
//! * **openness**: catalog federation over foreign catalogs, a Delta
//!   Sharing-style protocol, an Iceberg REST-style facade via UniForm,
//!   and catalog-owned commits enabling multi-table transactions.
//!
//! The entry point is [`service::UnityCatalog`] (one node) and
//! [`sharding::ShardRouter`] (a fleet of nodes over one database).

pub mod audit;
pub mod authz;
pub mod cache;
pub mod error;
pub mod events;
pub mod ids;
pub(crate) mod jsonutil;
pub mod lineage;
pub mod model;
pub mod ops;
pub mod service;
pub mod sharding;
pub mod types;

pub use error::{UcError, UcResult};
pub use ids::Uid;
pub use model::entity::Entity;
pub use service::{Context, EngineIdentity, UcConfig, UnityCatalog};
pub use types::{FullName, SecurableKind};
