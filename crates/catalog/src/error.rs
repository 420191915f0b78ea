//! Catalog error type.

use std::fmt;

use uc_cloudstore::StorageError;
use uc_delta::DeltaError;
use uc_txdb::TxError;

use crate::audit::Refusal;

/// Result alias for catalog operations.
pub type UcResult<T> = Result<T, UcError>;

/// Errors surfaced by the Unity Catalog API.
#[derive(Debug, Clone, PartialEq)]
pub enum UcError {
    /// The named securable does not exist (or is invisible to the caller
    /// in contexts where existence itself is sensitive).
    NotFound(String),
    /// A securable with this name already exists in the namespace.
    AlreadyExists(String),
    /// The request was refused, and the refusal's `Deny` recorded.
    PermissionDenied(Refusal),
    /// The request violates the one-asset-per-path principle.
    PathConflict { requested: String, existing: String },
    /// Input failed the asset type's validation rules.
    InvalidArgument(String),
    /// The operation is not defined for this securable kind.
    UnsupportedOperation(String),
    /// A commit targeted a stale table version (catalog-owned commits).
    CommitConflict { expected: i64, actual: i64 },
    /// The serving plane shed this request under admission control; the
    /// caller should back off and retry (HTTP 429).
    ResourceExhausted(String),
    /// A dependency failed transiently: a write that kept conflicting or
    /// finding the database unreachable past its retry budget, an object
    /// store or STS outage, credential vending down. The same request may
    /// succeed on retry (HTTP 503).
    Unavailable(String),
    /// A stored record is corrupt or an internal invariant is broken.
    Database(String),
    /// Storage layer error (e.g. during managed-storage provisioning).
    Storage(String),
    /// A federation connector failed.
    Federation(String),
}

impl fmt::Display for UcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UcError::NotFound(s) => write!(f, "not found: {s}"),
            UcError::AlreadyExists(s) => write!(f, "already exists: {s}"),
            UcError::PermissionDenied(s) => write!(f, "permission denied: {s}"),
            UcError::PathConflict { requested, existing } => write!(
                f,
                "path {requested} overlaps existing asset path {existing}"
            ),
            UcError::InvalidArgument(s) => write!(f, "invalid argument: {s}"),
            UcError::UnsupportedOperation(s) => write!(f, "unsupported operation: {s}"),
            UcError::CommitConflict { expected, actual } => write!(
                f,
                "commit conflict: expected version {expected}, table is at {actual}"
            ),
            UcError::ResourceExhausted(s) => write!(f, "resource exhausted: {s}"),
            UcError::Unavailable(s) => write!(f, "unavailable: {s}"),
            UcError::Database(s) => write!(f, "database error: {s}"),
            UcError::Storage(s) => write!(f, "storage error: {s}"),
            UcError::Federation(s) => write!(f, "federation error: {s}"),
        }
    }
}

impl std::error::Error for UcError {}

impl From<TxError> for UcError {
    fn from(e: TxError) -> Self {
        match e {
            TxError::Conflict { .. } | TxError::Unavailable { .. } => UcError::Unavailable(e.to_string()),
        }
    }
}

impl From<StorageError> for UcError {
    fn from(e: StorageError) -> Self {
        match e {
            StorageError::Unavailable(_) => UcError::Unavailable(e.to_string()),
            _ => UcError::Storage(e.to_string()),
        }
    }
}

impl From<DeltaError> for UcError {
    fn from(e: DeltaError) -> Self {
        match e {
            DeltaError::Storage(StorageError::Unavailable(_)) => UcError::Unavailable(e.to_string()),
            _ => UcError::Storage(e.to_string()),
        }
    }
}
