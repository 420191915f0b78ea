//! An embedded ACID metadata database with MVCC.
//!
//! This crate stands in for the "standard relational database" (MySQL in the
//! paper's evaluation) that backs the Unity Catalog service. It provides the
//! exact semantics the catalog's §4.5 cache design depends on:
//!
//! * **Snapshot-isolated reads**: a read transaction observes the database
//!   as of its begin point, regardless of concurrent commits.
//! * **Serializable writes**: read-write transactions validate their full
//!   read set (including range scans, for phantom protection) at commit and
//!   abort with [`TxError::Conflict`] if anything they observed changed.
//!   A write transaction lists the keys it buffered
//!   ([`WriteTxn::written_keys`]), so a caller can record what a commit
//!   wrote *in* that commit: the catalog's per-metastore change feed is
//!   ordinary rows written this way, not a log kept here.
//! * **One partition per metastore key range**: a key's first segment (the
//!   text before its first `/` or [`CHAIN_SEP`], the metastore id of every
//!   catalog key) picks its partition, and each partition has its own rows,
//!   commit lock and dead keys. Readers and writers of one metastore never
//!   wait on another's; what every commit shares is assigning, installing
//!   and publishing its CSN, in CSN order (see [`db`] and [`txn`]).
//! * **Reclamation on the write path**: every open transaction registers
//!   its snapshot, and each commit prunes the versions and removes the dead
//!   rows no open snapshot can see, in the partitions it writes and in any
//!   that no commit writes any more (see [`db`]). There is no sweeper and
//!   no setting.
//! * **A bounded connection pool with injected latency**: the resource
//!   model that produces the paper's Fig 10(b) "DB-bottlenecked" regime.
//!
//! Data model: named logical tables of `String → Bytes` rows, ordered by
//! key, with prefix scans. Callers (the catalog) layer typed entities and
//! secondary indexes on top by writing index rows in the same transaction.

pub mod db;
pub mod error;
pub mod pool;
pub mod stats;
pub mod txn;

pub use db::{Db, DbConfig};
pub use error::{TxError, TxResult};
pub use stats::DbStats;
pub use txn::{ReadTxn, WriteTxn, CHAIN_SEP};
