//! A pure sequential reference model of the catalog's entity-relationship
//! core, small enough to audit by eye (~300 lines).
//!
//! The model deliberately mirrors the *semantics* the live catalog exposes,
//! not its implementation: entities have stable identities (`EntId`), names
//! are an index over identities, drops are idempotent soft-deletes, and
//! external-table paths live in a flat registry with a prefix-overlap rule.
//!
//! # Two-phase application
//!
//! The live catalog resolves names at a (possibly stale) snapshot version and
//! then acts on the resolved *identity* at commit time.  A name-keyed model
//! cannot express that: after a concurrent rename, a live `update_comment`
//! addressed by the old name still succeeds (it holds the entity id), while a
//! name lookup in the final state fails.  So the model exposes
//! [`ModelState::apply_resolved`], which resolves names against one state
//! (the *resolve state* — the snapshot the live operation read) and
//! validates/effects the change against another (`self` — the commit-time
//! state).  [`ModelState::apply`] is the degenerate case where both coincide.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Synthetic entity identity. Assigned densely in creation order, which is
/// deterministic because the checker replays commits in commit order.
pub type EntId = u64;

#[derive(Clone, Debug)]
pub struct SchemaRec {
    pub name: String,
    pub alive: bool,
}

#[derive(Clone, Debug)]
pub struct TableRec {
    pub schema: EntId,
    pub name: String,
    pub comment: Option<String>,
    pub path: String,
    pub alive: bool,
}

/// One catalog-shaped operation, addressed by name (as the live API is).
/// All ops run inside the fixed catalog `main`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelOp {
    CreateSchema { name: String },
    DropSchema { name: String },
    CreateTable { schema: String, name: String, path: String },
    GetTable { schema: String, name: String },
    UpdateComment { schema: String, name: String, comment: String },
    RenameTable { schema: String, name: String, new_name: String },
    DropTable { schema: String, name: String },
    ListTables { schema: String },
}

impl fmt::Display for ModelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelOp::CreateSchema { name } => write!(f, "create_schema(main.{name})"),
            ModelOp::DropSchema { name } => write!(f, "drop_schema(main.{name})"),
            ModelOp::CreateTable { schema, name, path } => {
                write!(f, "create_table(main.{schema}.{name},{path})")
            }
            ModelOp::GetTable { schema, name } => write!(f, "get_table(main.{schema}.{name})"),
            ModelOp::UpdateComment { schema, name, comment } => {
                write!(f, "update_comment(main.{schema}.{name},{comment})")
            }
            ModelOp::RenameTable { schema, name, new_name } => {
                write!(f, "rename_table(main.{schema}.{name},{new_name})")
            }
            ModelOp::DropTable { schema, name } => write!(f, "drop_table(main.{schema}.{name})"),
            ModelOp::ListTables { schema } => write!(f, "list_tables(main.{schema})"),
        }
    }
}

/// `true` when two external paths are equal or one is a directory prefix of
/// the other — the catalog's one-asset-per-path invariant.
pub fn paths_overlap(p: &str, q: &str) -> bool {
    p == q
        || q.strip_prefix(p).is_some_and(|rest| rest.starts_with('/'))
        || p.strip_prefix(q).is_some_and(|rest| rest.starts_with('/'))
}

/// The rows a committed op wrote, by name: tree rows as `(schema, table)`
/// — `None` for the schema's own row — and registered storage paths. The
/// model's account of a commit, to hold the change feed's row against.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModelWrites {
    pub tree: BTreeSet<(String, Option<String>)>,
    pub paths: BTreeSet<String>,
}

/// The full sequential state: identity tables plus name indexes.
#[derive(Clone, Debug, Default)]
pub struct ModelState {
    next_id: EntId,
    pub schemas_by_id: BTreeMap<EntId, SchemaRec>,
    pub tables_by_id: BTreeMap<EntId, TableRec>,
    /// Live schema name -> identity.
    pub schemas: BTreeMap<String, EntId>,
    /// Live (schema identity, table name) -> table identity.
    pub table_names: BTreeMap<(EntId, String), EntId>,
}

impl ModelState {
    pub fn new() -> Self {
        ModelState::default()
    }

    fn fresh_id(&mut self) -> EntId {
        self.next_id += 1;
        self.next_id
    }

    /// Seed helper used to build the initial model matching the live world.
    pub fn seed_schema(&mut self, name: &str) -> EntId {
        let id = self.fresh_id();
        self.schemas_by_id
            .insert(id, SchemaRec { name: name.to_string(), alive: true });
        self.schemas.insert(name.to_string(), id);
        id
    }

    /// Seed helper: table under an existing schema identity.
    pub fn seed_table(&mut self, schema: EntId, name: &str, path: &str) -> EntId {
        let id = self.fresh_id();
        self.tables_by_id.insert(
            id,
            TableRec {
                schema,
                name: name.to_string(),
                comment: None,
                path: path.to_string(),
                alive: true,
            },
        );
        self.table_names.insert((schema, name.to_string()), id);
        id
    }

    fn resolve_schema(&self, name: &str) -> Option<EntId> {
        self.schemas.get(name).copied()
    }

    fn resolve_table(&self, schema: &str, name: &str) -> Option<EntId> {
        let sid = self.resolve_schema(schema)?;
        self.table_names.get(&(sid, name.to_string())).copied()
    }

    fn live_paths(&self) -> impl Iterator<Item = &str> {
        self.tables_by_id
            .values()
            .filter(|t| t.alive)
            .map(|t| t.path.as_str())
    }

    fn path_conflicts(&self, path: &str) -> bool {
        self.live_paths().any(|p| paths_overlap(p, path))
    }

    /// Apply with resolution and effect against the same state.
    pub fn apply(&mut self, op: &ModelOp) -> String {
        let resolve = self.clone();
        self.apply_resolved(op, &resolve)
    }

    /// Resolve names against `rs` (the snapshot the live op read), validate
    /// and effect against `self` (the commit-time state). Returns the
    /// response digest in the same format the live driver produces.
    pub fn apply_resolved(&mut self, op: &ModelOp, rs: &ModelState) -> String {
        match op {
            ModelOp::CreateSchema { name } => {
                if self.schemas.contains_key(name) {
                    return "err:already_exists".into();
                }
                let id = self.fresh_id();
                self.schemas_by_id
                    .insert(id, SchemaRec { name: name.clone(), alive: true });
                self.schemas.insert(name.clone(), id);
                format!("ok:schema:{name}")
            }
            ModelOp::DropSchema { name } => {
                let Some(sid) = rs.resolve_schema(name) else {
                    return "err:not_found".into();
                };
                let Some(rec) = self.schemas_by_id.get_mut(&sid) else {
                    return "err:not_found".into();
                };
                if !rec.alive {
                    return "ok:dropped:0".into();
                }
                rec.alive = false;
                let dead_name = rec.name.clone();
                if self.schemas.get(&dead_name) == Some(&sid) {
                    self.schemas.remove(&dead_name);
                }
                let mut count = 1usize;
                let children: Vec<EntId> = self
                    .tables_by_id
                    .iter()
                    .filter(|(_, t)| t.schema == sid && t.alive)
                    .map(|(id, _)| *id)
                    .collect();
                for tid in children {
                    let t = self.tables_by_id.get_mut(&tid).unwrap();
                    t.alive = false;
                    let key = (sid, t.name.clone());
                    if self.table_names.get(&key) == Some(&tid) {
                        self.table_names.remove(&key);
                    }
                    count += 1;
                }
                format!("ok:dropped:{count}")
            }
            ModelOp::CreateTable { schema, name, path } => {
                let Some(sid) = rs.resolve_schema(schema) else {
                    return "err:not_found".into();
                };
                // Commit-time parent liveness re-check (mirrors the live
                // in-transaction re-read).
                if !self.schemas_by_id.get(&sid).is_some_and(|s| s.alive) {
                    return "err:not_found".into();
                }
                if self.table_names.contains_key(&(sid, name.clone())) {
                    return "err:already_exists".into();
                }
                if self.path_conflicts(path) {
                    return "err:path_conflict".into();
                }
                let id = self.fresh_id();
                self.tables_by_id.insert(
                    id,
                    TableRec {
                        schema: sid,
                        name: name.clone(),
                        comment: None,
                        path: path.clone(),
                        alive: true,
                    },
                );
                self.table_names.insert((sid, name.clone()), id);
                format!("ok:table:{name}")
            }
            ModelOp::GetTable { schema, name } => {
                let Some(tid) = rs.resolve_table(schema, name) else {
                    return "err:not_found".into();
                };
                match rs.tables_by_id.get(&tid) {
                    Some(t) if t.alive => format!(
                        "ok:get:{}:comment={}:path={}",
                        t.name,
                        t.comment.as_deref().unwrap_or("-"),
                        t.path
                    ),
                    _ => "err:not_found".into(),
                }
            }
            ModelOp::UpdateComment { schema, name, comment } => {
                let Some(tid) = rs.resolve_table(schema, name) else {
                    return "err:not_found".into();
                };
                match self.tables_by_id.get_mut(&tid) {
                    Some(t) if t.alive => {
                        t.comment = Some(comment.clone());
                        format!("ok:comment:{}:{comment}", t.name)
                    }
                    _ => "err:not_found".into(),
                }
            }
            ModelOp::RenameTable { schema, name, new_name } => {
                let Some(tid) = rs.resolve_table(schema, name) else {
                    return "err:not_found".into();
                };
                let (sid, old_name, alive) = match self.tables_by_id.get(&tid) {
                    Some(t) => (t.schema, t.name.clone(), t.alive),
                    None => return "err:not_found".into(),
                };
                if !alive {
                    return "err:not_found".into();
                }
                let new_key = (sid, new_name.clone());
                match self.table_names.get(&new_key) {
                    Some(&other) if other != tid => return "err:already_exists".into(),
                    _ => {}
                }
                let old_key = (sid, old_name);
                if self.table_names.get(&old_key) == Some(&tid) {
                    self.table_names.remove(&old_key);
                }
                self.table_names.insert(new_key, tid);
                let t = self.tables_by_id.get_mut(&tid).unwrap();
                t.name = new_name.clone();
                format!("ok:renamed:{new_name}")
            }
            ModelOp::DropTable { schema, name } => {
                let Some(tid) = rs.resolve_table(schema, name) else {
                    return "err:not_found".into();
                };
                let Some(t) = self.tables_by_id.get_mut(&tid) else {
                    return "err:not_found".into();
                };
                if !t.alive {
                    return "ok:dropped:0".into();
                }
                t.alive = false;
                let key = (t.schema, t.name.clone());
                if self.table_names.get(&key) == Some(&tid) {
                    self.table_names.remove(&key);
                }
                "ok:dropped:1".into()
            }
            ModelOp::ListTables { schema } => {
                let Some(sid) = rs.resolve_schema(schema) else {
                    return "err:not_found".into();
                };
                let mut names: Vec<&str> = self
                    .tables_by_id
                    .values()
                    .filter(|t| t.schema == sid && t.alive)
                    .map(|t| t.name.as_str())
                    .collect();
                names.sort_unstable();
                format!("ok:list:[{}]", names.join(","))
            }
        }
    }

    /// What `op` wrote when it committed against `self` (the commit-time
    /// state), resolving names against `rs`, with response `resp`: the row
    /// of every entity it created, changed, moved or dropped, at the name
    /// that row had (a move writes both), and the path of every table it
    /// created or dropped. A drop that found its target already gone
    /// wrote nothing.
    pub fn writes(&self, op: &ModelOp, rs: &ModelState, resp: &str) -> ModelWrites {
        let mut w = ModelWrites::default();
        if !resp.starts_with("ok:") || resp == "ok:dropped:0" {
            return w;
        }
        let schema_name = |sid: EntId| self.schemas_by_id.get(&sid).map_or_else(String::new, |s| s.name.clone());
        let table_row = |w: &mut ModelWrites, t: &TableRec, name: &str| {
            w.tree.insert((schema_name(t.schema), Some(name.to_string())));
        };
        match op {
            ModelOp::CreateSchema { name } => drop(w.tree.insert((name.clone(), None))),
            ModelOp::DropSchema { name } => {
                let Some(sid) = rs.resolve_schema(name) else { return w };
                w.tree.insert((schema_name(sid), None));
                for t in self.tables_by_id.values().filter(|t| t.schema == sid && t.alive) {
                    table_row(&mut w, t, &t.name);
                    w.paths.insert(t.path.clone());
                }
            }
            ModelOp::CreateTable { schema, name, path } => {
                let Some(sid) = rs.resolve_schema(schema) else { return w };
                w.tree.insert((schema_name(sid), Some(name.clone())));
                w.paths.insert(path.clone());
            }
            ModelOp::UpdateComment { schema, name, .. }
            | ModelOp::RenameTable { schema, name, .. }
            | ModelOp::DropTable { schema, name } => {
                let Some(t) = rs.resolve_table(schema, name).and_then(|tid| self.tables_by_id.get(&tid)) else {
                    return w;
                };
                table_row(&mut w, t, &t.name);
                match op {
                    ModelOp::RenameTable { new_name, .. } => table_row(&mut w, t, new_name),
                    ModelOp::DropTable { .. } => drop(w.paths.insert(t.path.clone())),
                    _ => {}
                }
            }
            ModelOp::GetTable { .. } | ModelOp::ListTables { .. } => {}
        }
        w
    }

    /// All live external paths, for the one-asset-per-path sweep.
    pub fn live_path_list(&self) -> Vec<String> {
        self.live_paths().map(str::to_string).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_drop_roundtrip() {
        let mut m = ModelState::new();
        assert_eq!(m.apply(&ModelOp::CreateSchema { name: "s".into() }), "ok:schema:s");
        let op = ModelOp::CreateTable {
            schema: "s".into(),
            name: "t".into(),
            path: "s3://b/p".into(),
        };
        assert_eq!(m.apply(&op), "ok:table:t");
        assert_eq!(m.apply(&op), "err:already_exists");
        assert_eq!(
            m.apply(&ModelOp::GetTable { schema: "s".into(), name: "t".into() }),
            "ok:get:t:comment=-:path=s3://b/p"
        );
        assert_eq!(
            m.apply(&ModelOp::DropTable { schema: "s".into(), name: "t".into() }),
            "ok:dropped:1"
        );
        assert_eq!(
            m.apply(&ModelOp::GetTable { schema: "s".into(), name: "t".into() }),
            "err:not_found"
        );
    }

    #[test]
    fn drop_schema_cascades_and_double_drop_table_is_zero() {
        let mut m = ModelState::new();
        m.apply(&ModelOp::CreateSchema { name: "s".into() });
        m.apply(&ModelOp::CreateTable {
            schema: "s".into(),
            name: "t".into(),
            path: "s3://b/p".into(),
        });
        // Stale-resolve double drop: resolve against a snapshot where the
        // table is alive, effect against a state where it is already dead.
        let rs = m.clone();
        let drop = ModelOp::DropTable { schema: "s".into(), name: "t".into() };
        assert_eq!(m.apply_resolved(&drop, &rs), "ok:dropped:1");
        assert_eq!(m.apply_resolved(&drop, &rs), "ok:dropped:0");
        assert_eq!(
            m.apply(&ModelOp::DropSchema { name: "s".into() }),
            "ok:dropped:1" // table already dead, only the schema counts
        );
    }

    #[test]
    fn rename_keeps_identity_for_stale_resolvers() {
        let mut m = ModelState::new();
        m.apply(&ModelOp::CreateSchema { name: "s".into() });
        m.apply(&ModelOp::CreateTable {
            schema: "s".into(),
            name: "a".into(),
            path: "s3://b/a".into(),
        });
        let stale = m.clone();
        m.apply(&ModelOp::RenameTable {
            schema: "s".into(),
            name: "a".into(),
            new_name: "b".into(),
        });
        // An updater that resolved "a" before the rename still lands on the
        // same identity, now named "b".
        let upd = ModelOp::UpdateComment {
            schema: "s".into(),
            name: "a".into(),
            comment: "c".into(),
        };
        assert_eq!(m.apply_resolved(&upd, &stale), "ok:comment:b:c");
        // But resolving against the current state fails.
        let cur = m.clone();
        assert_eq!(m.apply_resolved(&upd, &cur), "err:not_found");
    }

    #[test]
    fn path_overlap_rules() {
        assert!(paths_overlap("s3://b/x", "s3://b/x"));
        assert!(paths_overlap("s3://b/x", "s3://b/x/y"));
        assert!(paths_overlap("s3://b/x/y", "s3://b/x"));
        assert!(!paths_overlap("s3://b/x", "s3://b/xy"));
        let mut m = ModelState::new();
        m.apply(&ModelOp::CreateSchema { name: "s".into() });
        m.apply(&ModelOp::CreateTable {
            schema: "s".into(),
            name: "t".into(),
            path: "s3://b/x".into(),
        });
        assert_eq!(
            m.apply(&ModelOp::CreateTable {
                schema: "s".into(),
                name: "u".into(),
                path: "s3://b/x/sub".into(),
            }),
            "err:path_conflict"
        );
    }
}
