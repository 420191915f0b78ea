//! Transaction errors.

use std::fmt;

/// Result alias for transactional operations.
pub type TxResult<T> = Result<T, TxError>;

/// Errors a transaction can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError {
    /// Serialization failure: something in the transaction's read or write
    /// set changed after its snapshot. Retry the whole transaction.
    Conflict { detail: String },
    /// The database was transiently unreachable (connection-pool permit
    /// timeout, backend outage, fault injection). Retry the transaction.
    Unavailable { detail: String },
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::Conflict { detail } => write!(f, "serialization conflict: {detail}"),
            TxError::Unavailable { detail } => write!(f, "database unavailable: {detail}"),
        }
    }
}

impl std::error::Error for TxError {}
