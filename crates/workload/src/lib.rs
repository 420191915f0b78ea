//! Workload generators for the paper's evaluation (§6).
//!
//! The published evaluation is built on production telemetry from ~9,000
//! customers. That telemetry is not available, so this crate provides the
//! documented substitution: *generative models whose parameters are
//! calibrated to the aggregates the paper reports*, from which each
//! figure's distribution is re-derived mechanistically:
//!
//! * [`population`] — synthetic metastore populations with heavy-tailed
//!   asset counts, asset-type mixes, table-type/format mixes (§6.1,
//!   Figs 4, 6, 8a);
//! * [`trace`] — access traces with Zipf popularity and per-type arrival
//!   rates (Fig 5) and a name/path access-mode mix (Fig 11);
//! * [`clients`] — external client-type × query-type diversity (Fig 9);
//! * [`timeline`] — asset-creation growth curves (Figs 7, 8b, 8c);
//! * [`tpc`] — TPC-H and TPC-DS *metadata workloads*: schemas plus
//!   per-query table-reference sets (Fig 10a);
//! * [`stats`] — helpers for CDFs, quantiles, and histogram rendering
//!   shared by the figure benches;
//! * [`openloop`] — open-loop arrival schedules (Fig 5 Poisson model ×
//!   Fig 9 client diversity) for the serving plane and its benches.
//!
//! Everything is deterministic given a seed.

pub mod clients;
pub mod openloop;
pub mod population;
pub mod randx;
pub mod stats;
pub mod timeline;
pub mod tpc;
pub mod trace;

pub use openloop::{Arrival, OpenLoopParams, RequestKind, Schedule};
pub use population::{AssetSpec, CatalogSpec, MetastoreSpec, Population, PopulationParams, SchemaSpec};
pub use stats::{cdf_points, quantile};
