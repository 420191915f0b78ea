//! Transaction-log actions, mirroring the Delta protocol's action types.
//!
//! A commit is a JSON array of actions stored at
//! `_delta_log/<version>.json`. Replaying actions in order reconstructs the
//! table state: `metaData` sets the schema, `add`/`remove` maintain the
//! active file set, `protocol` gates readers/writers, and `commitInfo`
//! carries provenance (which the catalog's lineage tracking consumes).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::value::{Schema, Value};

/// Reader/writer protocol versions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Protocol {
    pub min_reader_version: u32,
    pub min_writer_version: u32,
}

impl Default for Protocol {
    fn default() -> Self {
        Protocol { min_reader_version: 1, min_writer_version: 1 }
    }
}

/// Table-level metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetaData {
    /// Stable table identifier (survives renames in the catalog).
    pub id: String,
    pub schema: Schema,
    pub partition_columns: Vec<String>,
    pub configuration: BTreeMap<String, String>,
}

/// Per-column min/max/null statistics carried by `add` actions and used
/// for scan-time file pruning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ColumnStats {
    pub min: Option<Value>,
    pub max: Option<Value>,
    pub null_count: u64,
}

/// A data file joining the table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddFile {
    /// Path relative to the table root.
    pub path: String,
    pub size_bytes: u64,
    pub num_records: u64,
    /// Stats per column name.
    pub stats: BTreeMap<String, ColumnStats>,
    pub modification_time_ms: u64,
}

/// A data file leaving the table (still on storage until VACUUM).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoveFile {
    pub path: String,
    pub deletion_timestamp_ms: u64,
}

/// Commit provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CommitInfo {
    pub operation: String,
    pub principal: Option<String>,
    pub engine: Option<String>,
    pub timestamp_ms: u64,
}

/// One log action.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "action", rename_all = "camelCase")]
pub enum Action {
    Protocol(Protocol),
    MetaData(MetaData),
    Add(AddFile),
    Remove(RemoveFile),
    CommitInfo(CommitInfo),
}

/// Serialize a commit's actions as newline-delimited JSON, as the Delta
/// protocol does.
pub fn encode_commit(actions: &[Action]) -> bytes::Bytes {
    let mut out = String::new();
    for a in actions {
        #[expect(clippy::expect_used, reason = "Action is a plain enum; serialization is infallible")]
        out.push_str(&serde_json::to_string(a).expect("actions serialize"));
        out.push('\n');
    }
    bytes::Bytes::from(out)
}

/// Parse a commit object back into actions.
pub fn decode_commit(data: &[u8]) -> Result<Vec<Action>, crate::error::DeltaError> {
    let text = std::str::from_utf8(data)
        .map_err(|e| crate::error::DeltaError::Corrupt(format!("non-utf8 commit: {e}")))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            serde_json::from_str(l)
                .map_err(|e| crate::error::DeltaError::Corrupt(format!("bad action: {e}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Field};

    fn sample_actions() -> Vec<Action> {
        vec![
            Action::Protocol(Protocol::default()),
            Action::MetaData(MetaData {
                id: "tbl-1".into(),
                schema: Schema::new(vec![Field::new("x", DataType::Int)]),
                partition_columns: vec![],
                configuration: BTreeMap::new(),
            }),
            Action::Add(AddFile {
                path: "part-0001.json".into(),
                size_bytes: 128,
                num_records: 10,
                stats: BTreeMap::from([(
                    "x".to_string(),
                    ColumnStats { min: Some(Value::Int(0)), max: Some(Value::Int(9)), null_count: 0 },
                )]),
                modification_time_ms: 42,
            }),
            Action::Remove(RemoveFile { path: "part-0000.json".into(), deletion_timestamp_ms: 42 }),
            Action::CommitInfo(CommitInfo {
                operation: "WRITE".into(),
                principal: Some("alice".into()),
                engine: Some("uc-engine".into()),
                timestamp_ms: 42,
            }),
        ]
    }

    #[test]
    fn commit_encoding_roundtrips() {
        let actions = sample_actions();
        let encoded = encode_commit(&actions);
        let decoded = decode_commit(&encoded).unwrap();
        assert_eq!(actions, decoded);
    }

    #[test]
    fn encoded_commit_is_ndjson() {
        let encoded = encode_commit(&sample_actions());
        let text = std::str::from_utf8(&encoded).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().all(|l| l.starts_with('{')));
    }

    #[test]
    fn decode_skips_blank_lines() {
        let actions = vec![Action::Protocol(Protocol::default())];
        let mut raw = encode_commit(&actions).to_vec();
        raw.extend_from_slice(b"\n\n");
        assert_eq!(decode_commit(&raw).unwrap(), actions);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_commit(b"not json\n").is_err());
        assert!(decode_commit(&[0xff, 0xfe]).is_err());
    }
}
