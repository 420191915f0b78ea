//! Snapshots: the table state produced by replaying the log.

use std::collections::BTreeMap;

use crate::actions::{Action, AddFile, MetaData, Protocol};
use crate::error::{DeltaError, DeltaResult};
use crate::expr::Expr;
use crate::value::{Schema, Value};

/// Immutable view of a table at a version.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub version: i64,
    pub protocol: Protocol,
    pub metadata: MetaData,
    /// Active files keyed by relative path.
    pub files: BTreeMap<String, AddFile>,
    /// Files removed but not yet vacuumed (path → deletion timestamp).
    pub tombstones: BTreeMap<String, u64>,
    /// The table cache's slots for the decoded rows of `files`, when the
    /// cache installed this snapshot ([`crate::cache::TableCache`]).
    pub(crate) decoded: crate::cache::Decoded,
}

impl Snapshot {
    /// Fold an ordered action history into a snapshot.
    pub fn replay(log: &[(i64, Vec<Action>)]) -> DeltaResult<Snapshot> {
        Self::replay_from(None, log)
    }

    /// Fold actions on top of an optional checkpoint base — the base is
    /// the state at its version; `log` holds only the commits after it.
    pub fn replay_from(base: Option<Snapshot>, log: &[(i64, Vec<Action>)]) -> DeltaResult<Snapshot> {
        let (mut protocol, mut metadata, mut files, mut tombstones, mut version) = match base {
            Some(b) => (Some(b.protocol), Some(b.metadata), b.files, b.tombstones, b.version),
            None => (None, None, BTreeMap::new(), BTreeMap::new(), -1),
        };
        for (v, actions) in log {
            version = *v;
            for action in actions {
                match action {
                    Action::Protocol(p) => protocol = Some(p.clone()),
                    Action::MetaData(m) => metadata = Some(m.clone()),
                    Action::Add(add) => {
                        tombstones.remove(&add.path);
                        files.insert(add.path.clone(), add.clone());
                    }
                    Action::Remove(rm) => {
                        files.remove(&rm.path);
                        tombstones.insert(rm.path.clone(), rm.deletion_timestamp_ms);
                    }
                    Action::CommitInfo(_) => {}
                }
            }
        }
        let protocol =
            protocol.ok_or_else(|| DeltaError::Corrupt("log has no protocol action".into()))?;
        let metadata =
            metadata.ok_or_else(|| DeltaError::Corrupt("log has no metaData action".into()))?;
        Ok(Snapshot { version, protocol, metadata, files, tombstones, decoded: Default::default() })
    }

    pub fn schema(&self) -> &Schema {
        &self.metadata.schema
    }

    /// Total rows across active files (from file stats).
    pub fn num_records(&self) -> u64 {
        self.files.values().map(|f| f.num_records).sum()
    }

    /// Estimate of the heap this snapshot holds, allocator overhead
    /// included: the file and tombstone maps dominate, the schema and
    /// protocol are a constant beside them. What the table cache charges a
    /// snapshot against its budget.
    pub fn approx_bytes(&self) -> usize {
        use crate::cache::alloc_bytes;
        use std::mem::size_of;
        // A B-tree leaf has room for 11 entries whatever it holds, and a
        // larger tree's nodes are on average two thirds full.
        let btree = |len: usize, entry: usize| match len {
            0 => 0,
            _ => alloc_bytes(entry * (len + len / 2).max(11)),
        };
        let value_bytes = |v: &Option<Value>| match v {
            Some(Value::Str(s)) => alloc_bytes(s.len()),
            _ => 0,
        };
        let files: usize = self
            .files
            .iter()
            .map(|(path, f)| {
                let stats: usize = f
                    .stats
                    .iter()
                    .map(|(col, s)| alloc_bytes(col.len()) + value_bytes(&s.min) + value_bytes(&s.max))
                    .sum();
                2 * alloc_bytes(path.len())
                    + btree(f.stats.len(), size_of::<String>() + size_of::<crate::actions::ColumnStats>())
                    + stats
            })
            .sum::<usize>()
            + btree(self.files.len(), size_of::<String>() + size_of::<AddFile>());
        let tombstones: usize = self.tombstones.keys().map(|path| alloc_bytes(path.len())).sum::<usize>()
            + btree(self.tombstones.len(), size_of::<String>() + size_of::<u64>());
        let schema: usize = self
            .metadata
            .schema
            .fields
            .iter()
            .map(|f| size_of::<crate::value::Field>() + alloc_bytes(f.name.len()))
            .sum();
        size_of::<Snapshot>() + alloc_bytes(self.metadata.id.len()) + schema + files + tombstones
    }

    /// Serialize the full state as checkpoint actions (protocol,
    /// metadata, every active file, every tombstone).
    pub fn to_checkpoint_actions(&self) -> Vec<Action> {
        let mut actions = Vec::with_capacity(2 + self.files.len() + self.tombstones.len());
        actions.push(Action::Protocol(self.protocol.clone()));
        actions.push(Action::MetaData(self.metadata.clone()));
        actions.extend(self.files.values().cloned().map(Action::Add));
        actions.extend(self.tombstones.iter().map(|(path, ts)| {
            Action::Remove(crate::actions::RemoveFile {
                path: path.clone(),
                deletion_timestamp_ms: *ts,
            })
        }));
        actions
    }

    /// Rebuild the state a checkpoint captured at `version`.
    pub fn from_checkpoint(version: i64, actions: Vec<Action>) -> DeltaResult<Snapshot> {
        Snapshot::replay(&[(version, actions)])
    }

    /// Active files that might contain rows matching `predicate`, using
    /// per-file statistics. `None` predicate returns everything. Stats
    /// describe stored values, so a conjunct that reads a column for which
    /// `masked` holds (the predicate sees its mask, not what is stored)
    /// never prunes.
    pub fn prune_files(&self, predicate: Option<&Expr>, masked: impl Fn(&str) -> bool) -> Vec<&AddFile> {
        self.files
            .values()
            .filter(|f| predicate.is_none_or(|p| conjuncts_may_match(p, &masked, f)))
            .collect()
    }
}

/// [`file_may_match`] of each top-level conjunct that reads no masked
/// column.
pub(crate) fn conjuncts_may_match(expr: &Expr, masked: &impl Fn(&str) -> bool, file: &AddFile) -> bool {
    match expr {
        Expr::And(a, b) => conjuncts_may_match(a, masked, file) && conjuncts_may_match(b, masked, file),
        e => e.reads_any(masked) || file_may_match(e, file),
    }
}

/// Conservative stats-based check: can any row in the file satisfy the
/// predicate? Unknown shapes return `true` (never skip incorrectly).
pub fn file_may_match(expr: &Expr, file: &AddFile) -> bool {
    match expr {
        Expr::And(a, b) => file_may_match(a, file) && file_may_match(b, file),
        // For OR, the file may match if either side may.
        Expr::Or(a, b) => file_may_match(a, file) || file_may_match(b, file),
        Expr::Cmp { op, lhs, rhs } => {
            // Only `col <op> literal` (either orientation) is prunable.
            let (col, lit, op) = match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Column(c), Expr::Literal(v)) => (c, v, *op),
                (Expr::Literal(v), Expr::Column(c)) => (c, v, op.flip()),
                _ => return true,
            };
            let Some(stats) = file.stats.get(col) else {
                return true;
            };
            let (Some(min), Some(max)) = (&stats.min, &stats.max) else {
                // No min/max (all-null or stats missing): only rows with
                // values could match a comparison, and none are known.
                return stats.null_count < file.num_records;
            };
            may_satisfy(op, min, max, lit)
        }
        // IS NULL prunes when the file has no nulls in that column.
        Expr::IsNull(inner) => match inner.as_ref() {
            Expr::Column(c) => file
                .stats
                .get(c)
                .map(|s| s.null_count > 0)
                .unwrap_or(true),
            _ => true,
        },
        // NOT, principal functions, bare columns/literals: not prunable.
        _ => true,
    }
}

fn may_satisfy(op: crate::expr::CmpOp, min: &Value, max: &Value, lit: &Value) -> bool {
    use crate::expr::CmpOp::*;
    use std::cmp::Ordering::*;
    let min_cmp = min.try_cmp(lit);
    let max_cmp = max.try_cmp(lit);
    let (Some(min_cmp), Some(max_cmp)) = (min_cmp, max_cmp) else {
        return true; // incomparable types: cannot prune safely
    };
    match op {
        Eq => min_cmp != Greater && max_cmp != Less,
        Ne => !(min_cmp == Equal && max_cmp == Equal),
        Lt => min_cmp == Less,
        Le => min_cmp != Greater,
        Gt => max_cmp == Greater,
        Ge => max_cmp != Less,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::ColumnStats;
    use crate::expr::CmpOp;
    use std::collections::BTreeMap;

    fn add_with_stats(path: &str, min: i64, max: i64, nulls: u64, records: u64) -> AddFile {
        AddFile {
            path: path.into(),
            size_bytes: 100,
            num_records: records,
            stats: BTreeMap::from([(
                "x".to_string(),
                ColumnStats {
                    min: Some(Value::Int(min)),
                    max: Some(Value::Int(max)),
                    null_count: nulls,
                },
            )]),
            modification_time_ms: 0,
        }
    }

    fn meta() -> MetaData {
        MetaData {
            id: "t".into(),
            schema: Schema::new(vec![crate::value::Field::new("x", crate::value::DataType::Int)]),
            partition_columns: vec![],
            configuration: BTreeMap::new(),
        }
    }

    #[test]
    fn replay_builds_active_file_set() {
        let log = vec![
            (
                0,
                vec![
                    Action::Protocol(Protocol::default()),
                    Action::MetaData(meta()),
                    Action::Add(add_with_stats("a", 0, 9, 0, 10)),
                ],
            ),
            (
                1,
                vec![
                    Action::Add(add_with_stats("b", 10, 19, 0, 10)),
                    Action::Remove(crate::actions::RemoveFile {
                        path: "a".into(),
                        deletion_timestamp_ms: 5,
                    }),
                ],
            ),
        ];
        let snap = Snapshot::replay(&log).unwrap();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.files.len(), 1);
        assert!(snap.files.contains_key("b"));
        assert_eq!(snap.tombstones.get("a"), Some(&5));
        assert_eq!(snap.num_records(), 10);
    }

    #[test]
    fn re_add_clears_tombstone() {
        let log = vec![(
            0,
            vec![
                Action::Protocol(Protocol::default()),
                Action::MetaData(meta()),
                Action::Add(add_with_stats("a", 0, 9, 0, 10)),
                Action::Remove(crate::actions::RemoveFile { path: "a".into(), deletion_timestamp_ms: 1 }),
                Action::Add(add_with_stats("a", 0, 9, 0, 10)),
            ],
        )];
        let snap = Snapshot::replay(&log).unwrap();
        assert!(snap.files.contains_key("a"));
        assert!(snap.tombstones.is_empty());
    }

    #[test]
    fn replay_requires_protocol_and_metadata() {
        let log = vec![(0, vec![Action::Add(add_with_stats("a", 0, 1, 0, 2))])];
        assert!(matches!(Snapshot::replay(&log), Err(DeltaError::Corrupt(_))));
    }

    #[test]
    fn pruning_eq_respects_min_max() {
        let f = add_with_stats("a", 10, 20, 0, 100);
        assert!(file_may_match(&Expr::cmp("x", CmpOp::Eq, 15i64), &f));
        assert!(file_may_match(&Expr::cmp("x", CmpOp::Eq, 10i64), &f));
        assert!(!file_may_match(&Expr::cmp("x", CmpOp::Eq, 9i64), &f));
        assert!(!file_may_match(&Expr::cmp("x", CmpOp::Eq, 21i64), &f));
    }

    #[test]
    fn pruning_range_operators() {
        let f = add_with_stats("a", 10, 20, 0, 100);
        assert!(!file_may_match(&Expr::cmp("x", CmpOp::Lt, 10i64), &f));
        assert!(file_may_match(&Expr::cmp("x", CmpOp::Le, 10i64), &f));
        assert!(!file_may_match(&Expr::cmp("x", CmpOp::Gt, 20i64), &f));
        assert!(file_may_match(&Expr::cmp("x", CmpOp::Ge, 20i64), &f));
        assert!(file_may_match(&Expr::cmp("x", CmpOp::Ne, 15i64), &f));
        // Ne prunes only a constant file
        let constant = add_with_stats("b", 7, 7, 0, 10);
        assert!(!file_may_match(&Expr::cmp("x", CmpOp::Ne, 7i64), &constant));
    }

    #[test]
    fn pruning_flipped_literal_column() {
        let f = add_with_stats("a", 10, 20, 0, 100);
        // 25 < x  ⟺  x > 25 → cannot match (max 20)
        let e = Expr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(Expr::Literal(Value::Int(25))),
            rhs: Box::new(Expr::Column("x".into())),
        };
        assert!(!file_may_match(&e, &f));
    }

    #[test]
    fn pruning_and_or_composition() {
        let f = add_with_stats("a", 10, 20, 0, 100);
        let in_range = Expr::cmp("x", CmpOp::Ge, 12i64).and(Expr::cmp("x", CmpOp::Le, 14i64));
        let out_of_range = Expr::cmp("x", CmpOp::Gt, 100i64).and(Expr::cmp("x", CmpOp::Lt, 200i64));
        assert!(file_may_match(&in_range, &f));
        assert!(!file_may_match(&out_of_range, &f));
        assert!(file_may_match(&out_of_range.clone().or(in_range), &f));
    }

    #[test]
    fn only_conjuncts_over_unmasked_columns_prune() {
        let log = vec![(
            0,
            vec![
                Action::Protocol(Protocol::default()),
                Action::MetaData(meta()),
                Action::Add(add_with_stats("a", 10, 20, 0, 100)),
            ],
        )];
        let snap = Snapshot::replay(&log).unwrap();
        let out = Expr::cmp("x", CmpOp::Eq, -1i64);
        assert!(snap.prune_files(Some(&out), |_| false).is_empty());
        // masked, `x` reads as its mask: the stored range says nothing
        assert_eq!(snap.prune_files(Some(&out), |c| c == "x").len(), 1);
        // with `y` masked, the conjunct over `x` still prunes; a disjunction
        // that reads `y` does not
        let unmasked = Expr::cmp("y", CmpOp::Eq, 1i64);
        assert!(snap.prune_files(Some(&out.clone().and(unmasked.clone())), |c| c == "y").is_empty());
        assert_eq!(snap.prune_files(Some(&out.or(unmasked)), |c| c == "y").len(), 1);
    }

    #[test]
    fn pruning_is_null_uses_null_count() {
        let no_nulls = add_with_stats("a", 1, 2, 0, 10);
        let some_nulls = add_with_stats("b", 1, 2, 3, 10);
        let e = Expr::IsNull(Box::new(Expr::Column("x".into())));
        assert!(!file_may_match(&e, &no_nulls));
        assert!(file_may_match(&e, &some_nulls));
    }

    #[test]
    fn unknown_shapes_never_prune() {
        let f = add_with_stats("a", 10, 20, 0, 100);
        assert!(file_may_match(&Expr::CurrentUser, &f));
        assert!(file_may_match(
            &Expr::Not(Box::new(Expr::cmp("x", CmpOp::Eq, 0i64))),
            &f
        ));
        // column without stats
        assert!(file_may_match(&Expr::cmp("unknown_col", CmpOp::Eq, 0i64), &f));
    }

    #[test]
    fn all_null_file_prunes_comparisons() {
        let mut f = add_with_stats("a", 0, 0, 10, 10);
        f.stats.get_mut("x").unwrap().min = None;
        f.stats.get_mut("x").unwrap().max = None;
        assert!(!file_may_match(&Expr::cmp("x", CmpOp::Eq, 5i64), &f));
    }
}
