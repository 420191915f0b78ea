//! A miniature SQL engine — the Databricks-Runtime stand-in.
//!
//! The engine exists to exercise the catalog exactly the way Figure 1 of
//! the paper describes the life of a SQL query:
//!
//! 1. parse the query and collect securable references;
//! 2. resolve all of them in one batched catalog call (metadata, view
//!    dependency closure, FGAC policies, read credentials);
//! 3. plan and execute, reading data files from object storage with the
//!    vended down-scoped tokens — the engine never holds cloud
//!    credentials of its own;
//! 4. if the engine is *trusted*, faithfully apply row filters and column
//!    masks before returning rows; untrusted engines are refused FGAC
//!    tables and can delegate to the [`dfs::DataFilteringService`];
//! 5. report audit/lineage back to the catalog.
//!
//! Writes go through Delta commits — storage-coordinated by default, or
//! catalog-owned when the engine is configured for it, which is what
//! enables `BEGIN … COMMIT` multi-table transactions (§6.3).

pub mod dfs;
pub mod error;
pub mod exec;
pub mod sql;

pub use dfs::DataFilteringService;
pub use error::{EngineError, EngineResult};
pub use exec::{Engine, EngineConfig, EngineSession, QueryResult};
pub use sql::{parse_statement, Statement};
