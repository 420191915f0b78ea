//! Offline snapshot-isolation / serializability checker.
//!
//! Replays a recorded [`History`] against the pure sequential
//! [`ModelState`] and verifies, at every prefix of the commit order:
//!
//! * **Commit-order equivalence** — committed versions are dense
//!   (`base+1, base+2, ...`), unique, and their database CSN order agrees
//!   with version order.
//! * **No lost or duplicate writes** — each committed op's response digest
//!   is reproduced by the model when applied at its commit point, with name
//!   resolution taken from one of the snapshot versions the op actually
//!   read (∃-quantified over its observed reads: the live catalog resolves
//!   at a possibly-stale snapshot and acts by identity at commit).
//! * **Read-your-snapshot** — read-only ops and aborted writes must be
//!   explainable by *some* pair of observed snapshot versions.
//! * **Read-your-writes** — after a client commits version `V`, every later
//!   op by that client observes a version `>= V`.
//! * **One-asset-per-path** — no two live external tables overlap by path
//!   prefix in any committed state.
//!
//! [`check_with_feed`] adds the change-feed rule: a metastore's retained
//! feed rows are its commit history, one row per committed version, and
//! each names exactly the tree and path keys the model says its commit
//! wrote.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::history::{History, OpRecord};
use crate::model::{paths_overlap, ModelState, ModelWrites};

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two commits claim the same metastore version.
    DuplicateCommitVersion { version: u64, seqs: Vec<u64> },
    /// Committed versions are not dense from `base_version + 1`.
    VersionGap { expected: u64, found: u64 },
    /// CSN order disagrees with version order.
    CommitOrderMismatch { version: u64, csn: u64, prev_csn: u64 },
    /// A committed op's effect is not reproducible by the model at its
    /// commit point under any observed resolve snapshot.
    WriteMismatch { seq: u64, got: String, tried: Vec<String> },
    /// An aborted write's error is not explainable at its abort version.
    AbortedOpMismatch { seq: u64, got: String, tried: Vec<String> },
    /// A read-only op's response matches no observed snapshot.
    StaleRead { seq: u64, got: String, tried: Vec<String> },
    /// A client failed to observe its own committed write.
    NonMonotonicClient { client: usize, seq: u64, committed: u64, observed: u64 },
    /// Two live external tables overlap by path prefix.
    PathOverlap { version: u64, a: String, b: String },
    /// The tree rows and the id pointers disagree: a tree row whose id has
    /// no pointer back to its key, a pointer that names no row, a missing
    /// ancestor prefix row, or a trash row whose id is still live.
    TreeIndexMismatch { key: String, why: String },
    /// The path index violates one-asset-per-path: a registered key is a
    /// strict prefix of another registered key, or a row points at a
    /// missing/inactive entity.
    PathIndexMismatch { key: String, why: String },
    /// A read through a held snapshot changed while it was held:
    /// reclamation took a version an open snapshot could still see.
    SnapshotLost { reader: usize, csn: u64, now: u64 },
    /// The change feed is not the commit history: a retained row is
    /// missing, extra or out of place, or names other keys than its
    /// commit wrote.
    FeedMismatch { version: u64, why: String },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DuplicateCommitVersion { version, seqs } => {
                write!(f, "duplicate commit version {version} claimed by ops {seqs:?}")
            }
            Violation::VersionGap { expected, found } => {
                write!(f, "commit version gap: expected {expected}, found {found}")
            }
            Violation::CommitOrderMismatch { version, csn, prev_csn } => write!(
                f,
                "commit order mismatch at version {version}: csn {csn} <= previous csn {prev_csn}"
            ),
            Violation::WriteMismatch { seq, got, tried } => write!(
                f,
                "op {seq}: committed response {got:?} not reproducible (model said {tried:?})"
            ),
            Violation::AbortedOpMismatch { seq, got, tried } => write!(
                f,
                "op {seq}: aborted response {got:?} not explainable (model said {tried:?})"
            ),
            Violation::StaleRead { seq, got, tried } => write!(
                f,
                "op {seq}: read response {got:?} matches no observed snapshot (model said {tried:?})"
            ),
            Violation::NonMonotonicClient { client, seq, committed, observed } => write!(
                f,
                "client {client} op {seq}: observed version {observed} after own commit {committed}"
            ),
            Violation::PathOverlap { version, a, b } => {
                write!(f, "path overlap at version {version}: {a:?} vs {b:?}")
            }
            Violation::TreeIndexMismatch { key, why } => {
                write!(f, "tree index mismatch at {key:?}: {why}")
            }
            Violation::PathIndexMismatch { key, why } => {
                write!(f, "path index mismatch at {key:?}: {why}")
            }
            Violation::SnapshotLost { reader, csn, now } => write!(
                f,
                "snapshot reader {reader}: its snapshot at csn {csn} read differently at csn {now}"
            ),
            Violation::FeedMismatch { version, why } => write!(f, "feed row {version}: {why}"),
        }
    }
}

/// Verify the on-disk structural invariants of a metastore's indexes
/// directly against the database — independent of any recorded history,
/// so it holds at *every* quiescent point, not just checked prefixes:
///
/// * **Tree ↔ pointer 1:1** — every tree row's entity id has a
///   `T_ENTITY` pointer holding exactly that row's key, and every pointer
///   names a present tree row: `T_ENTITY` has one row per active entity.
/// * **Trash is out of the namespace** — a trash row's id has neither a
///   pointer nor a tree row.
/// * **No orphan at any prefix** — every terminator-prefix of every tree
///   key is itself a present row: a child can never outlive its ancestor
///   chain in the index.
/// * **One asset per path, prefix-free** — registered path keys are
///   prefix-free (no registered path is an ancestor of another) and each
///   names an active entity.
pub fn verify_structure(db: &uc_txdb::Db, ms: &uc_catalog::Uid) -> Vec<Violation> {
    use uc_catalog::model::{keys, treekey};
    use uc_catalog::Entity;

    let mut violations = Vec::new();
    let rt = db.begin_read();
    let mismatch = |key: &str, why: String| Violation::TreeIndexMismatch { key: key.to_string(), why };

    // Pointers by id (the `{ms}/` prefix stripped): id → tree key.
    let ent_prefix = keys::ent_ms_prefix(ms);
    let pointers: BTreeMap<String, String> = rt
        .scan_prefix(keys::T_ENTITY, &ent_prefix)
        .into_iter()
        .map(|(k, v)| (k[ent_prefix.len()..].to_string(), String::from_utf8_lossy(&v).into_owned()))
        .collect();

    // Tree rows by key: key → the id of the entity the row holds.
    let mut rows: BTreeMap<String, String> = BTreeMap::new();
    for (key, raw) in rt.scan_prefix(keys::T_TREE, &keys::tree_ms_prefix(ms)) {
        match Entity::decode(&raw) {
            Ok(ent) => drop(rows.insert(key, ent.id.as_str().to_string())),
            Err(e) => violations.push(mismatch(&key, format!("undecodable value: {e}"))),
        }
    }
    for (key, id) in &rows {
        match pointers.get(id) {
            Some(pointed) if pointed == key => {}
            Some(pointed) => violations.push(mismatch(key, format!("entity {id} points at {pointed:?}"))),
            None => violations.push(mismatch(key, format!("orphan row: entity {id} has no pointer"))),
        }
        for prefix in treekey::chain_prefixes(key) {
            if !rows.contains_key(prefix) {
                violations.push(mismatch(key, format!("ancestor prefix {prefix:?} has no row")));
            }
        }
    }
    for (id, pointed) in pointers.iter().filter(|(id, pointed)| rows.get(*pointed) != Some(*id)) {
        violations.push(mismatch(pointed, format!("pointer of {id} names no tree row of its own")));
    }
    for (key, _) in rt.scan_prefix(keys::T_TRASH, &ent_prefix) {
        if pointers.contains_key(&key[ent_prefix.len()..]) {
            violations.push(mismatch(&key, "trash row of an entity that is still live".to_string()));
        }
    }

    let path_rows = rt.scan_prefix(keys::T_PATH, &keys::path_ms_prefix(ms));
    for pair in path_rows.windows(2) {
        // Rows come back in key order, and an ancestor sorts immediately
        // before its first descendant — adjacent comparison is complete.
        if pair[1].0.starts_with(&pair[0].0) {
            violations.push(Violation::PathIndexMismatch {
                key: pair[1].0.clone(),
                why: format!("registered under registered ancestor {:?}", pair[0].0),
            });
        }
    }
    for (key, id_raw) in &path_rows {
        let id = String::from_utf8_lossy(id_raw);
        if !pointers.contains_key(id.as_ref()) {
            violations.push(Violation::PathIndexMismatch {
                key: key.clone(),
                why: format!("orphan row: entity {id} missing or inactive"),
            });
        }
    }

    violations
}

/// Check a recorded history against an initial model state (the world as it
/// stood at `history.base_version`). Returns all violations found.
pub fn check(history: &History, initial: &ModelState) -> Vec<Violation> {
    replay(history, initial).0
}

/// [`check`], plus the change-feed rule for metastore `ms`, read from `db`
/// once the run is quiet:
///
/// * the retained rows are contiguous, at most `WINDOW` of them, and end at
///   the last committed version (the base version when nothing committed);
/// * the row of every committed op names exactly the `T_TREE` / `T_PATH`
///   keys the *model* says the op wrote ([`ModelState::writes`], keyed by
///   the catalog's key builders) — an account independent of the write
///   path that filled the row. Where several observed snapshots explain
///   a commit, any of their accounts will do.
pub fn check_with_feed(
    history: &History,
    initial: &ModelState,
    db: &uc_txdb::Db,
    ms: &uc_catalog::Uid,
) -> Vec<Violation> {
    use uc_catalog::model::feed::{self, FeedRow, T_FEED};
    use uc_catalog::model::keys;

    let (mut violations, writes) = replay(history, initial);
    let mismatch = |version: u64, why: String| Violation::FeedMismatch { version, why };
    let rows = db.begin_read().scan_prefix(T_FEED, &feed::prefix(ms));
    let commits = history.ops.iter().filter_map(|o| o.commit);
    let head = commits.map(|(v, _)| v).fold(history.base_version, u64::max);
    let versions: Vec<u64> = rows.iter().map(|(k, _)| feed::version_of(k)).collect();
    let expected: Vec<u64> = (head.saturating_sub(feed::WINDOW) + 1..=head).collect();
    if versions != expected {
        let why = format!("retained versions {versions:?} are not the window ending at the last commit");
        violations.push(mismatch(head, why));
    }
    let key_of = |(schema, table): &(String, Option<String>)| {
        let mut chain = vec![("catalog", "main"), ("schema", schema.as_str())];
        chain.extend(table.as_deref().map(|t| ("relation", t)));
        keys::tree_key(ms, &chain)
    };
    let path_key = |p: &String| keys::path_key(ms, p);
    for ((key, raw), version) in rows.iter().zip(&versions) {
        let Some(accounts) = writes.get(version) else { continue };
        let row = match FeedRow::decode(raw) {
            Ok(row) => row,
            Err(e) => {
                violations.push(mismatch(*version, format!("undecodable row at {key:?}: {e}")));
                continue;
            }
        };
        let named: (BTreeSet<String>, BTreeSet<String>) = (row.tree.into_iter().collect(), row.path.into_iter().collect());
        let explained = accounts
            .iter()
            .any(|w| (w.tree.iter().map(key_of).collect(), w.paths.iter().map(path_key).collect()) == named);
        if !explained {
            let why = format!("names tree {:?} / path {:?}, the model wrote {accounts:?}", named.0, named.1);
            violations.push(mismatch(*version, why));
        }
    }
    violations
}

/// Replay `history`'s commits through the model and check it: the
/// violations, and per committed version the model's accounts of what the
/// commit wrote (one per observed snapshot that explains it).
fn replay(history: &History, initial: &ModelState) -> (Vec<Violation>, BTreeMap<u64, Vec<ModelWrites>>) {
    let mut violations = Vec::new();
    let mut writes: BTreeMap<u64, Vec<ModelWrites>> = BTreeMap::new();

    // --- Phase 1: commit-order integrity -------------------------------
    let mut commits: Vec<&OpRecord> = history.ops.iter().filter(|o| o.commit.is_some()).collect();
    commits.sort_by_key(|o| o.commit.unwrap());

    let mut by_version: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for c in &commits {
        by_version.entry(c.commit.unwrap().0).or_default().push(c.seq);
    }
    for (version, seqs) in &by_version {
        if seqs.len() > 1 {
            violations.push(Violation::DuplicateCommitVersion {
                version: *version,
                seqs: seqs.clone(),
            });
        }
    }
    let mut expected = history.base_version + 1;
    let mut prev_csn: Option<u64> = None;
    for c in &commits {
        let (version, csn) = c.commit.unwrap();
        if version > expected {
            violations.push(Violation::VersionGap { expected, found: version });
        }
        if version >= expected {
            expected = version + 1;
        }
        if let Some(p) = prev_csn {
            if csn <= p {
                violations.push(Violation::CommitOrderMismatch { version, csn, prev_csn: p });
            }
        }
        prev_csn = Some(csn);
    }

    // --- Phase 2: replay commits, building the snapshot sequence -------
    // snapshots[i] = (version, state after all commits <= version)
    let mut snapshots: Vec<(u64, ModelState)> = vec![(history.base_version, initial.clone())];
    let state_at = |snaps: &[(u64, ModelState)], v: u64| -> ModelState {
        // Latest snapshot with version <= v (versions outside the recorded
        // range clamp to the nearest end).
        let idx = snaps.partition_point(|(sv, _)| *sv <= v);
        snaps[idx.saturating_sub(1)].1.clone()
    };

    for c in &commits {
        let (version, _) = c.commit.unwrap();
        let pre = snapshots.last().unwrap().1.clone();
        // Candidate resolve versions: every snapshot version the op read,
        // falling back to the commit predecessor if it recorded none.
        let mut candidates: Vec<u64> = c.reads.clone();
        if candidates.is_empty() {
            candidates.push(snapshots.last().unwrap().0);
        }
        candidates.sort_unstable();
        candidates.dedup();

        let mut committed: Option<ModelState> = None;
        let mut tried = Vec::new();
        for &rv in &candidates {
            let rs = state_at(&snapshots, rv);
            let mut next = pre.clone();
            let resp = next.apply_resolved(&c.op, &rs);
            if resp == c.resp {
                writes.entry(version).or_default().push(pre.writes(&c.op, &rs, &resp));
                committed.get_or_insert(next);
            } else {
                tried.push(resp);
            }
        }
        tried.sort_unstable();
        tried.dedup();
        match committed {
            Some(next) => {
                // One-asset-per-path sweep over the new committed state.
                let paths = next.live_path_list();
                'sweep: for i in 0..paths.len() {
                    for j in (i + 1)..paths.len() {
                        if paths_overlap(&paths[i], &paths[j]) {
                            violations.push(Violation::PathOverlap {
                                version,
                                a: paths[i].clone(),
                                b: paths[j].clone(),
                            });
                            break 'sweep;
                        }
                    }
                }
                snapshots.push((version, next));
            }
            None => {
                violations.push(Violation::WriteMismatch {
                    seq: c.seq,
                    got: c.resp.clone(),
                    tried,
                });
                // Keep the pre-state associated with this version so later
                // reads of it still resolve to something.
                snapshots.push((version, pre));
            }
        }
    }

    // --- Phase 3: aborted writes and read-only ops ---------------------
    let all_versions: Vec<u64> = snapshots.iter().map(|(v, _)| *v).collect();
    for op in &history.ops {
        if op.commit.is_some() {
            continue;
        }
        let read_candidates: Vec<u64> = if op.reads.is_empty() {
            all_versions.clone()
        } else {
            let mut c = op.reads.clone();
            c.sort_unstable();
            c.dedup();
            c
        };
        if !op.aborts.is_empty() {
            // The op ended in an abort at some version `a`: its error must
            // be explainable by effecting against the state at `a` with
            // resolution from some observed read.
            let mut ok = false;
            let mut tried = Vec::new();
            'outer: for &a in &op.aborts {
                let base = state_at(&snapshots, a);
                for &rv in &read_candidates {
                    let rs = state_at(&snapshots, rv);
                    let resp = base.clone().apply_resolved(&op.op, &rs);
                    if resp == op.resp {
                        ok = true;
                        break 'outer;
                    }
                    tried.push(resp);
                }
            }
            if !ok {
                tried.sort_unstable();
                tried.dedup();
                violations.push(Violation::AbortedOpMismatch {
                    seq: op.seq,
                    got: op.resp.clone(),
                    tried,
                });
            }
            continue;
        }
        // Pure read (or an error produced before any write attempt): must
        // match some pair of observed snapshots (list ops resolve the
        // schema and scan the children in two phases, so two versions may
        // legitimately differ).
        let mut ok = false;
        let mut tried = Vec::new();
        'pairs: for &v2 in &read_candidates {
            let base = state_at(&snapshots, v2);
            for &v1 in &read_candidates {
                let rs = state_at(&snapshots, v1);
                let resp = base.clone().apply_resolved(&op.op, &rs);
                if resp == op.resp {
                    ok = true;
                    break 'pairs;
                }
                tried.push(resp);
            }
        }
        if !ok {
            tried.sort_unstable();
            tried.dedup();
            violations.push(Violation::StaleRead {
                seq: op.seq,
                got: op.resp.clone(),
                tried,
            });
        }
    }

    // --- Phase 4: read-your-writes per client --------------------------
    let mut ops_by_seq: Vec<&OpRecord> = history.ops.iter().collect();
    ops_by_seq.sort_by_key(|o| o.seq);
    let mut last_commit: BTreeMap<usize, u64> = BTreeMap::new();
    for op in &ops_by_seq {
        if let Some(&committed) = last_commit.get(&op.client) {
            let observed = op
                .reads
                .iter()
                .chain(op.aborts.iter())
                .copied()
                .chain(op.commit.map(|(v, _)| v))
                .max();
            if let Some(observed) = observed {
                if observed < committed {
                    violations.push(Violation::NonMonotonicClient {
                        client: op.client,
                        seq: op.seq,
                        committed,
                        observed,
                    });
                }
            }
        }
        if let Some((v, _)) = op.commit {
            let e = last_commit.entry(op.client).or_insert(0);
            *e = (*e).max(v);
        }
    }

    (violations, writes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpRecord;
    use crate::model::ModelOp;

    fn seeded() -> ModelState {
        let mut m = ModelState::new();
        let s = m.seed_schema("s");
        m.seed_table(s, "seed0", "s3://lake/ext/s/seed0");
        m
    }

    fn rec(
        seq: u64,
        client: usize,
        op: ModelOp,
        resp: &str,
        reads: Vec<u64>,
        commit: Option<(u64, u64)>,
    ) -> OpRecord {
        OpRecord { seq, client, op, resp: resp.into(), reads, commit, aborts: vec![] }
    }

    #[test]
    fn clean_sequential_history_passes() {
        let h = History {
            base_version: 5,
            ops: vec![
                rec(
                    0,
                    0,
                    ModelOp::CreateTable {
                        schema: "s".into(),
                        name: "t0".into(),
                        path: "s3://lake/ext/s/t0".into(),
                    },
                    "ok:table:t0",
                    vec![5],
                    Some((6, 10)),
                ),
                rec(
                    1,
                    1,
                    ModelOp::GetTable { schema: "s".into(), name: "t0".into() },
                    "ok:get:t0:comment=-:path=s3://lake/ext/s/t0",
                    vec![6],
                    None,
                ),
            ],
        };
        assert_eq!(check(&h, &seeded()), vec![]);
    }

    #[test]
    fn duplicate_version_is_flagged() {
        let mk = |seq, name: &str, csn| {
            rec(
                seq,
                seq as usize,
                ModelOp::CreateTable {
                    schema: "s".into(),
                    name: name.into(),
                    path: format!("s3://lake/ext/s/{name}"),
                },
                &format!("ok:table:{name}"),
                vec![5],
                Some((6, csn)),
            )
        };
        let h = History { base_version: 5, ops: vec![mk(0, "a", 10), mk(1, "b", 11)] };
        let vs = check(&h, &seeded());
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::DuplicateCommitVersion { version: 6, .. })),
            "expected duplicate-version violation, got {vs:?}"
        );
    }

    #[test]
    fn lost_write_is_flagged_as_stale_read() {
        // t0 is created at version 6, but a later read at version 6 claims
        // it does not exist -> the read is unexplainable.
        let h = History {
            base_version: 5,
            ops: vec![
                rec(
                    0,
                    0,
                    ModelOp::CreateTable {
                        schema: "s".into(),
                        name: "t0".into(),
                        path: "s3://lake/ext/s/t0".into(),
                    },
                    "ok:table:t0",
                    vec![5],
                    Some((6, 10)),
                ),
                rec(
                    1,
                    1,
                    ModelOp::GetTable { schema: "s".into(), name: "t0".into() },
                    "err:not_found",
                    vec![6],
                    None,
                ),
            ],
        };
        let vs = check(&h, &seeded());
        assert!(
            vs.iter().any(|v| matches!(v, Violation::StaleRead { seq: 1, .. })),
            "expected stale read, got {vs:?}"
        );
    }

    #[test]
    fn read_your_writes_is_enforced() {
        let h = History {
            base_version: 5,
            ops: vec![
                rec(
                    0,
                    0,
                    ModelOp::CreateTable {
                        schema: "s".into(),
                        name: "t0".into(),
                        path: "s3://lake/ext/s/t0".into(),
                    },
                    "ok:table:t0",
                    vec![5],
                    Some((6, 10)),
                ),
                // Same client then reads at version 5 < its own commit 6.
                rec(
                    1,
                    0,
                    ModelOp::GetTable { schema: "s".into(), name: "seed0".into() },
                    "ok:get:seed0:comment=-:path=s3://lake/ext/s/seed0",
                    vec![5],
                    None,
                ),
            ],
        };
        let vs = check(&h, &seeded());
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::NonMonotonicClient { client: 0, seq: 1, .. })),
            "expected non-monotonic client, got {vs:?}"
        );
    }

    #[test]
    fn version_gap_and_csn_disorder_are_flagged() {
        let h = History {
            base_version: 5,
            ops: vec![
                rec(
                    0,
                    0,
                    ModelOp::CreateTable {
                        schema: "s".into(),
                        name: "a".into(),
                        path: "s3://lake/ext/s/a".into(),
                    },
                    "ok:table:a",
                    vec![5],
                    Some((7, 10)),
                ),
                rec(
                    1,
                    1,
                    ModelOp::CreateTable {
                        schema: "s".into(),
                        name: "b".into(),
                        path: "s3://lake/ext/s/b".into(),
                    },
                    "ok:table:b",
                    vec![7],
                    Some((8, 9)),
                ),
            ],
        };
        let vs = check(&h, &seeded());
        assert!(vs.iter().any(|v| matches!(v, Violation::VersionGap { expected: 6, found: 7 })));
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::CommitOrderMismatch { version: 8, csn: 9, .. })));
    }

    #[test]
    fn path_overlap_in_committed_state_is_flagged() {
        // Both creates claim success with overlapping paths (as a weakened
        // commit check would allow).
        let h = History {
            base_version: 5,
            ops: vec![
                rec(
                    0,
                    0,
                    ModelOp::CreateTable {
                        schema: "s".into(),
                        name: "a".into(),
                        path: "s3://lake/ext/shared".into(),
                    },
                    "ok:table:a",
                    vec![5],
                    Some((6, 10)),
                ),
                rec(
                    1,
                    1,
                    ModelOp::CreateTable {
                        schema: "s".into(),
                        name: "b".into(),
                        path: "s3://lake/ext/shared/sub".into(),
                    },
                    "ok:table:b",
                    vec![5],
                    Some((7, 11)),
                ),
            ],
        };
        let vs = check(&h, &seeded());
        // The second create must either mismatch (model refuses) — which is
        // the expected signal — or produce a path overlap.
        assert!(
            vs.iter().any(|v| matches!(
                v,
                Violation::WriteMismatch { seq: 1, .. } | Violation::PathOverlap { .. }
            )),
            "expected write mismatch or path overlap, got {vs:?}"
        );
    }
}
