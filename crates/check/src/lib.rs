#![forbid(unsafe_code)]
//! `uc-check`: deterministic interleaving explorer and snapshot-isolation
//! history checker for the catalog stack.
//!
//! Three pieces (§4.5's invariants, made executable):
//!
//! * **History recording** — the catalog and transaction layer emit
//!   `history.read` / `history.commit` / `history.abort` span events at
//!   their snapshot and commit points; [`history::assemble`] joins them
//!   with the driver's op log into a [`history::History`].
//! * **Checking** — [`checker::check`] replays a history against the pure
//!   sequential [`model::ModelState`] and verifies commit-order
//!   equivalence, read-your-snapshot, read-your-writes, no lost or
//!   duplicate writes, and one-asset-per-path at every prefix;
//!   [`checker::check_with_feed`] adds that a metastore's change feed is
//!   its commit history, key for key.
//! * **Exploration** — [`explorer::run_one`] drives seeded multi-client
//!   workloads through chosen interleavings using the cooperative
//!   [`uc_cloudstore::sched::Scheduler`] (random walk or PCT-style
//!   priorities), every run replayable from `UC_SCHED_SEED`.

pub mod checker;
pub mod explorer;
pub mod history;
pub mod model;
pub mod workload;

pub use checker::{check, Violation};
pub use explorer::{run_one, sched_seed, RunConfig, RunOutput};
pub use history::{assemble, DriverRow, History, OpRecord};
pub use model::{ModelOp, ModelState};
