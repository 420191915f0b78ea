//! Delta table errors.

use std::fmt;

use uc_cloudstore::StorageError;

/// Result alias for table-format operations.
pub type DeltaResult<T> = Result<T, DeltaError>;

/// Errors from log, snapshot, and scan operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// The underlying object store rejected an operation.
    Storage(StorageError),
    /// Another writer committed the version this writer targeted.
    CommitConflict { version: i64 },
    /// The table has no log at the expected location.
    NotATable(String),
    /// Time travel to a version the log does not (yet) have.
    NoSuchVersion { version: i64, head: i64 },
    /// A log object or data file failed to decode.
    Corrupt(String),
    /// Schema problem: unknown column, arity mismatch, type mismatch.
    Schema(String),
    /// A commit coordinator (e.g. a catalog service) failed.
    Coordinator(String),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Storage(e) => write!(f, "storage error: {e}"),
            DeltaError::CommitConflict { version } => {
                write!(f, "commit conflict at version {version}")
            }
            DeltaError::NotATable(p) => write!(f, "no delta table at {p}"),
            DeltaError::NoSuchVersion { version, head } => {
                write!(f, "no version {version}: the log ends at {head}")
            }
            DeltaError::Corrupt(msg) => write!(f, "corrupt table data: {msg}"),
            DeltaError::Schema(msg) => write!(f, "schema error: {msg}"),
            DeltaError::Coordinator(msg) => write!(f, "commit coordinator error: {msg}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<StorageError> for DeltaError {
    fn from(e: StorageError) -> Self {
        DeltaError::Storage(e)
    }
}
