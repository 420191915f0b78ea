//! Database table names and key construction.
//!
//! Every key is prefixed by the metastore id, so (a) all operations are
//! naturally metastore-scoped, and (b) the cache can filter the database
//! change log down to one metastore by key prefix during reconciliation.
//!
//! An entity has one row. While it is active the row sits in `T_TREE` at
//! its tree key — the `{group}:{name}` ancestor chain under the metastore,
//! so a name is free exactly when no row sits at its tree key and a create
//! is insert-if-absent on that key — and `T_ENTITY` holds a pointer from
//! its id to that key. A soft delete moves the row to `T_TRASH` and removes
//! the pointer, so a pointer's presence *is* liveness, every by-id read is
//! a pointer read in front of the by-key read, and the garbage collector's
//! victims are one range of `T_TRASH`.

use crate::ids::Uid;
use crate::model::treekey;

/// Id pointers: `{ms}/{id}` → the entity's `T_TREE` key. Exactly one row
/// per *active* entity, written only where an entity is created, moved
/// (renamed, or under a renamed schema) or dropped.
pub const T_ENTITY: &str = "ent";
/// Soft-deleted entities awaiting garbage collection, keyed like the
/// pointer they lost (`ent_key`): `{ms}/{id}` → Entity JSON.
pub const T_TRASH: &str = "trash";
/// Path index: tree-encoded `enc(ms).enc(path segments)` → entity id.
/// Order-preserving, so overlap checks and nearest-covering-ancestor
/// resolution are one range scan + one predecessor seek (see
/// `model::paths` and DESIGN.md §11).
pub const T_PATH: &str = "path";
/// Active entities, tree-encoded: `enc(ms).enc(group:name)...` → Entity
/// JSON, the entity's only copy. All descendants of a node occupy one
/// contiguous key range; the ancestor chain of a node is exactly the
/// terminator-prefix chain of its key (one `scan_chain`). Written through
/// `WriteEffects`; a soft delete removes the row, freeing the name. The
/// metastore entity itself sits at the bare metastore prefix.
pub const T_TREE: &str = "tree";
/// Metastore version: `{ms}` → decimal version.
pub const T_MSVER: &str = "msver";
/// Principals: `{name}` → principal record JSON (account-level).
pub const T_PRINCIPAL: &str = "prin";
/// Lineage edges: `{ms}/d/{downstream}/{upstream}` and `{ms}/u/{upstream}/{downstream}`.
pub const T_LINEAGE: &str = "lineage";
/// Catalog-owned commit log: `{ms}/{table}/{version:020}` → payload.
pub const T_COMMIT: &str = "commit";
/// Share membership: `{ms}/{share}/{entity}` → alias.
pub const T_SHAREMEM: &str = "sharemem";

pub fn ent_key(ms: &Uid, id: &Uid) -> String {
    format!("{ms}/{id}")
}

/// Prefix of every `T_ENTITY` pointer — and every `T_TRASH` row — of a
/// metastore.
pub fn ent_ms_prefix(ms: &Uid) -> String {
    format!("{ms}/")
}

// ---------------------------------------------------------------------
// Tree index keys (order-preserving; see model::treekey and DESIGN.md §11)
// ---------------------------------------------------------------------

/// Root of a metastore's tree keyspace: the encoded metastore segment.
/// Every tree and path key of the metastore starts with this, so "the
/// whole namespace" is one contiguous range.
pub fn tree_ms_prefix(ms: &Uid) -> String {
    let mut key = String::with_capacity(ms.as_str().len() + 1);
    treekey::push_segment(&mut key, ms.as_str());
    key
}

/// One tree segment's content: `{group}:{lowercased name}` — the group
/// comes first so children of one namespace group are contiguous within
/// the parent's range. SQL identifiers are case-insensitive, so names
/// are normalized to lowercase.
fn tree_segment(group: &str, name: &str) -> String {
    let mut seg = String::with_capacity(group.len() + name.len() + 1);
    seg.push_str(group);
    seg.push(':');
    seg.extend(name.chars().map(|c| c.to_ascii_lowercase()));
    seg
}

/// Append a child's encoded segment to its parent's tree key.
pub fn tree_push_child(parent_key: &mut String, group: &str, name: &str) {
    treekey::push_segment(parent_key, &tree_segment(group, name));
}

/// Tree key of a node from its already-resolved ancestor names, outermost
/// first: `&[(group, name), ...]` under `ms`.
pub fn tree_key(ms: &Uid, chain: &[(&str, &str)]) -> String {
    let mut key = tree_ms_prefix(ms);
    for (group, name) in chain {
        tree_push_child(&mut key, group, name);
    }
    key
}

/// Prefix of every child of `parent_key` within one name group: the
/// partial segment `{group}:` escaped without a terminator. Escaping is
/// char-by-char, so this is a string prefix of exactly the children whose
/// segment starts with `{group}:`.
pub fn tree_group_prefix(parent_key: &str, group: &str) -> String {
    let mut key = String::with_capacity(parent_key.len() + group.len() + 1);
    key.push_str(parent_key);
    treekey::escape_into(&mut key, group);
    key.push(':');
    key
}

/// The metastore id of a tree or path key (everything before the first
/// terminator; metastore uids contain no escapable characters).
pub fn ms_of_tree_key(key: &str) -> Option<&str> {
    key.split(treekey::TERM).next()
}

// ---------------------------------------------------------------------
// Path index keys (tree-encoded storage-path hierarchy)
// ---------------------------------------------------------------------

/// Split a canonical storage path (`scheme://bucket/seg/..`) into tree
/// segments: the `scheme://bucket` root, then each path component. The
/// parent path's segments are a prefix of the child's, which is what
/// makes the encoded parent key a string prefix of the child key.
fn path_segments(canonical_path: &str) -> Vec<&str> {
    let rest_at = canonical_path.find("://").map(|i| i + 3).unwrap_or(0);
    match canonical_path[rest_at..].find('/') {
        Some(j) => {
            let cut = rest_at + j;
            let mut segs = vec![&canonical_path[..cut]];
            segs.extend(canonical_path[cut + 1..].split('/'));
            segs
        }
        None => vec![canonical_path],
    }
}

pub fn path_key(ms: &Uid, canonical_path: &str) -> String {
    let mut key = tree_ms_prefix(ms);
    for seg in path_segments(canonical_path) {
        treekey::push_segment(&mut key, seg);
    }
    key
}

/// Prefix of every path key in a metastore.
pub fn path_ms_prefix(ms: &Uid) -> String {
    tree_ms_prefix(ms)
}

/// Decode a path-index key back to its canonical path string.
pub fn path_of_path_key(key: &str) -> Option<String> {
    let segs = treekey::decode(key)?;
    // segs[0] is the metastore id, segs[1] the scheme://bucket root.
    if segs.len() < 2 {
        return None;
    }
    Some(segs[1..].join("/"))
}

pub fn lineage_down_key(ms: &Uid, downstream: &Uid, upstream: &Uid) -> String {
    format!("{ms}/d/{downstream}/{upstream}")
}

pub fn lineage_up_key(ms: &Uid, upstream: &Uid, downstream: &Uid) -> String {
    format!("{ms}/u/{upstream}/{downstream}")
}

pub fn commit_key(ms: &Uid, table: &Uid, version: i64) -> String {
    format!("{ms}/{table}/{version:020}")
}

pub fn commit_prefix(ms: &Uid, table: &Uid) -> String {
    format!("{ms}/{table}/")
}

pub fn share_member_key(ms: &Uid, share: &Uid, entity: &Uid) -> String {
    format!("{ms}/{share}/{entity}")
}

pub fn share_members_prefix(ms: &Uid, share: &Uid) -> String {
    format!("{ms}/{share}/")
}

/// Extract the metastore id from an entity-table key (`{ms}/{id}`).
pub fn ms_of_ent_key(key: &str) -> Option<&str> {
    key.split('/').next()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(s: &str) -> Uid {
        Uid::from(s)
    }

    #[test]
    fn tree_keys_are_lowercased() {
        let ms = uid("ms");
        assert_eq!(
            tree_key(&ms, &[("relation", "Orders")]),
            tree_key(&ms, &[("relation", "orders")])
        );
    }

    #[test]
    fn commit_keys_sort_numerically() {
        let ms = uid("ms");
        let t = uid("t");
        assert!(commit_key(&ms, &t, 9) < commit_key(&ms, &t, 10));
        assert!(commit_key(&ms, &t, 99) < commit_key(&ms, &t, 100));
    }

    #[test]
    fn ms_extraction() {
        assert_eq!(ms_of_ent_key("msid/entid"), Some("msid"));
    }

    #[test]
    fn tree_keys_nest_by_string_prefix() {
        let ms = uid("ms1");
        let cat = tree_key(&ms, &[("catalog", "Main")]);
        let sch = tree_key(&ms, &[("catalog", "Main"), ("schema", "S")]);
        let tbl = tree_key(&ms, &[("catalog", "main"), ("schema", "s"), ("relation", "t")]);
        assert!(cat.starts_with(&tree_ms_prefix(&ms)));
        assert!(sch.starts_with(&cat), "names are case-normalized");
        assert!(tbl.starts_with(&sch));
        assert_eq!(ms_of_tree_key(&tbl), Some("ms1"));
    }

    #[test]
    fn tree_group_prefix_selects_one_group() {
        let ms = uid("ms");
        let parent = tree_key(&ms, &[("catalog", "c"), ("schema", "s")]);
        let rel_prefix = tree_group_prefix(&parent, "relation");
        let table = tree_key(&ms, &[("catalog", "c"), ("schema", "s"), ("relation", "t")]);
        let volume = tree_key(&ms, &[("catalog", "c"), ("schema", "s"), ("volume", "v")]);
        assert!(table.starts_with(&rel_prefix));
        assert!(!volume.starts_with(&rel_prefix));
        assert!(volume.starts_with(&parent));
    }

    #[test]
    fn path_keys_nest_like_storage_paths() {
        let ms = uid("ms");
        let parent = path_key(&ms, "s3://b/warehouse");
        let child = path_key(&ms, "s3://b/warehouse/t1");
        let sibling = path_key(&ms, "s3://b/warehouse2");
        let bucket_only = path_key(&ms, "s3://b");
        assert!(child.starts_with(&parent));
        assert!(!sibling.starts_with(&parent), "no sibling-prefix trap");
        assert!(parent.starts_with(&bucket_only));
        assert!(parent.starts_with(&path_ms_prefix(&ms)));
        assert_eq!(path_of_path_key(&child), Some("s3://b/warehouse/t1".to_string()));
    }
}
