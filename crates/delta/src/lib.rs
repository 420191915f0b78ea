//! A miniature Delta-Lake-style table format over [`uc_cloudstore`].
//!
//! The paper's governed assets are predominantly Delta tables: a table is a
//! directory in cloud storage containing data files plus a `_delta_log/`
//! transaction log of JSON *actions*. This crate reproduces that protocol
//! at small scale, preserving the properties the catalog and the paper's
//! experiments rely on:
//!
//! * **Optimistic commits**: a commit is a `put_if_absent` of the next log
//!   version — concurrent writers race and exactly one wins
//!   ([`StorageCommitCoordinator`]). Alternatively a table can be
//!   *catalog-owned*: commits go through a [`CommitCoordinator`]
//!   implemented by the catalog, which is what enables multi-table
//!   transactions (§6.3 of the paper).
//! * **Snapshots by log replay**: [`Snapshot`] folds the action stream into
//!   the active file set, schema, and table version.
//! * **A validated node-local cache**: one [`TableCache`] per object store
//!   keeps the last snapshot and the decoded data files of each table; a
//!   read reuses them only after it has found the log head with its own
//!   credential and the head matches.
//! * **File statistics + pruning**: data files carry min/max stats and
//!   scans skip files a predicate cannot match — the mechanism behind the
//!   predictive-optimization experiment (Fig 10c).
//! * **OPTIMIZE / VACUUM**: compaction of small files and garbage
//!   collection of unreferenced objects, i.e. the maintenance operations
//!   predictive optimization automates.
//! * **UniForm**: projection of a snapshot into Iceberg-style metadata so
//!   Iceberg clients can read the same data without a copy.
//!
//! Data files are JSON row groups rather than Parquet; what matters for the
//! reproduction is the *log protocol* and the stats-driven scan behaviour,
//! not the on-disk encoding.

pub mod actions;
pub mod cache;
pub mod datafile;
pub mod error;
pub mod expr;
pub mod log;
pub mod plan;
pub mod snapshot;
pub mod table;
pub mod uniform;
pub mod value;

pub use actions::{Action, AddFile, ColumnStats, MetaData, Protocol, RemoveFile};
pub use cache::TableCache;
pub use error::{DeltaError, DeltaResult};
pub use expr::{Bound, Cells, CmpOp, EvalContext, Expr};
pub use log::{CommitCoordinator, StorageCommitCoordinator};
pub use plan::{Mask, Plan, ScanSpec};
pub use snapshot::Snapshot;
pub use table::{DeltaTable, OptimizeMetrics, VacuumMetrics};
pub use value::{DataType, Field, Row, Schema, Value, ValueRef};
