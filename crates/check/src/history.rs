//! History recording: assembling per-operation records from the driver's
//! row log plus the `uc-obs` trace stream.
//!
//! The catalog emits three kinds of span events during instrumented runs:
//!
//! * `history.read`  `version=N`        — a name/id resolution observed
//!   snapshot version `N` (cache hit, db read, or post-loop fallback).
//! * `history.commit` `version=N csn=M` — a write transaction committed,
//!   advancing the metastore to version `N` at database CSN `M`.
//! * `history.abort` `version=N`        — a write closure returned an error
//!   while the metastore was at version `N` (the op did not commit).
//!
//! The driver wraps each operation in its own root span, so the span's
//! `trace_id` keys every event back to the originating operation.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use uc_obs::TraceRecord;

use crate::model::ModelOp;

/// What the workload driver knows about one executed operation.
#[derive(Clone, Debug)]
pub struct DriverRow {
    /// Global sequence number taken at op start (deterministic under the
    /// baton scheduler).
    pub seq: u64,
    pub client: usize,
    pub op: ModelOp,
    /// Response digest in the canonical `ok:`/`err:` format.
    pub resp: String,
    /// Root trace id of the span the op ran under.
    pub trace_id: u64,
}

/// One fully-assembled operation record.
#[derive(Clone, Debug)]
pub struct OpRecord {
    pub seq: u64,
    pub client: usize,
    pub op: ModelOp,
    pub resp: String,
    /// Snapshot versions observed by reads, in emission order.
    pub reads: Vec<u64>,
    /// `(version, csn)` if the op committed a write.
    pub commit: Option<(u64, u64)>,
    /// Metastore versions at which write attempts aborted.
    pub aborts: Vec<u64>,
}

/// A complete recorded run.
#[derive(Clone, Debug)]
pub struct History {
    /// Metastore version the world was at before the concurrent phase.
    pub base_version: u64,
    pub ops: Vec<OpRecord>,
}

impl History {
    /// Canonical, byte-stable text form (sorted by seq). Used for replay
    /// fingerprinting and CI diffing. Contains names only — no random ids.
    pub fn canonical_text(&self) -> String {
        let mut ops: Vec<&OpRecord> = self.ops.iter().collect();
        ops.sort_by_key(|o| o.seq);
        let mut out = format!("base_version={}\n", self.base_version);
        for o in ops {
            let _ = write!(
                out,
                "op={} client={} call={} reads={:?}",
                o.seq, o.client, o.op, o.reads
            );
            if let Some((v, csn)) = o.commit {
                let _ = write!(out, " commit={v}:{csn}");
            }
            if !o.aborts.is_empty() {
                let _ = write!(out, " aborts={:?}", o.aborts);
            }
            let _ = writeln!(out, " resp={}", o.resp);
        }
        out
    }
}

fn parse_kv(detail: &str, key: &str) -> Option<u64> {
    detail.split_whitespace().find_map(|tok| {
        tok.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
            .and_then(|v| v.parse().ok())
    })
}

/// Join driver rows with the trace stream into a `History`.
///
/// Events whose trace id belongs to no driver row (setup, probe spans) are
/// ignored.
pub fn assemble(base_version: u64, rows: Vec<DriverRow>, records: &[TraceRecord]) -> History {
    let mut by_trace: BTreeMap<u64, OpRecord> = rows
        .into_iter()
        .map(|r| {
            (
                r.trace_id,
                OpRecord {
                    seq: r.seq,
                    client: r.client,
                    op: r.op,
                    resp: r.resp,
                    reads: Vec::new(),
                    commit: None,
                    aborts: Vec::new(),
                },
            )
        })
        .collect();

    for rec in records {
        let TraceRecord::Event { trace_id, name, detail, .. } = rec else {
            continue;
        };
        let Some(op) = by_trace.get_mut(trace_id) else {
            continue;
        };
        match *name {
            "history.read" => {
                if let Some(v) = parse_kv(detail, "version") {
                    op.reads.push(v);
                }
            }
            "history.commit" => {
                if let (Some(v), Some(csn)) =
                    (parse_kv(detail, "version"), parse_kv(detail, "csn"))
                {
                    op.commit = Some((v, csn));
                }
            }
            "history.abort" => {
                if let Some(v) = parse_kv(detail, "version") {
                    op.aborts.push(v);
                }
            }
            _ => {}
        }
    }

    let mut ops: Vec<OpRecord> = by_trace.into_values().collect();
    ops.sort_by_key(|o| o.seq);
    History { base_version, ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_kv_extracts_fields() {
        assert_eq!(parse_kv("version=7", "version"), Some(7));
        assert_eq!(parse_kv("version=7 csn=12", "csn"), Some(12));
        assert_eq!(parse_kv("version=7 csn=12", "ver"), None);
        assert_eq!(parse_kv("note=x", "version"), None);
    }

    #[test]
    fn canonical_text_is_sorted_and_stable() {
        let h = History {
            base_version: 3,
            ops: vec![
                OpRecord {
                    seq: 1,
                    client: 1,
                    op: ModelOp::ListTables { schema: "s".into() },
                    resp: "ok:list:[]".into(),
                    reads: vec![3, 3],
                    commit: None,
                    aborts: vec![],
                },
                OpRecord {
                    seq: 0,
                    client: 0,
                    op: ModelOp::CreateSchema { name: "s2".into() },
                    resp: "ok:schema:s2".into(),
                    reads: vec![3],
                    commit: Some((4, 9)),
                    aborts: vec![],
                },
            ],
        };
        let text = h.canonical_text();
        assert_eq!(
            text,
            "base_version=3\n\
             op=0 client=0 call=create_schema(main.s2) reads=[3] commit=4:9 resp=ok:schema:s2\n\
             op=1 client=1 call=list_tables(main.s) reads=[3, 3] resp=ok:list:[]\n"
        );
    }
}
