//! The authorization decision engine.
//!
//! Decisions are computed over a *securable chain*: the object itself
//! followed by its ancestors up to the metastore, each carrying its owner
//! and the grants attached to it. The service assembles chains from its
//! cache/database; this module is pure logic, which keeps the decision
//! table unit-testable in isolation.

use std::collections::HashSet;

use crate::authz::privilege::Privilege;
use crate::ids::Uid;
use crate::types::SecurableKind;

/// One securable in a chain, with its governance metadata.
#[derive(Debug, Clone)]
pub struct AuthzNode {
    pub id: Uid,
    pub kind: SecurableKind,
    pub owner: String,
    /// Grants directly on this securable: (principal-or-group, privilege).
    pub grants: Vec<(String, Privilege)>,
}

/// The caller: resolved principal, expanded groups, and whether they are a
/// metastore admin.
#[derive(Debug, Clone)]
pub struct AuthzContext {
    pub principal: String,
    pub groups: HashSet<String>,
    pub is_metastore_admin: bool,
}

impl AuthzContext {
    pub fn new(principal: &str) -> Self {
        AuthzContext {
            principal: principal.to_string(),
            groups: HashSet::new(),
            is_metastore_admin: false,
        }
    }

    /// Does a grantee string refer to this caller (directly or via group)?
    fn matches(&self, grantee: &str) -> bool {
        grantee == self.principal || self.groups.contains(grantee)
    }
}

/// Borrowed view of one securable in a chain, so decisions can run
/// directly over the service's `&[Arc<Entity>]` chains without cloning
/// every owner string and grant list into [`AuthzNode`]s first — the read
/// hot path evaluates `can_see` on every lookup.
pub trait AuthzNodeView {
    fn node_kind(&self) -> SecurableKind;
    fn node_owner(&self) -> &str;
    fn node_grants(&self) -> &[(String, Privilege)];
}

impl AuthzNodeView for AuthzNode {
    fn node_kind(&self) -> SecurableKind {
        self.kind
    }
    fn node_owner(&self) -> &str {
        &self.owner
    }
    fn node_grants(&self) -> &[(String, Privilege)] {
        &self.grants
    }
}

impl<T: AuthzNodeView> AuthzNodeView for std::sync::Arc<T> {
    fn node_kind(&self) -> SecurableKind {
        (**self).node_kind()
    }
    fn node_owner(&self) -> &str {
        (**self).node_owner()
    }
    fn node_grants(&self) -> &[(String, Privilege)] {
        (**self).node_grants()
    }
}

/// Administrative authority over `chain[0]`: metastore admin, owner of the
/// object or any ancestor, or a MANAGE/ALL grant on the object or any
/// ancestor. Confers management rights (grant, transfer, drop, update)
/// over the object — but NOT data access (§3.3: a schema owner does not
/// automatically gain SELECT on its tables).
pub fn has_admin_authority<N: AuthzNodeView>(chain: &[N], who: &AuthzContext) -> bool {
    if who.is_metastore_admin {
        return true;
    }
    chain.iter().any(|node| {
        who.matches(node.node_owner())
            || node
                .node_grants()
                .iter()
                .any(|(g, p)| who.matches(g) && matches!(p, Privilege::Manage | Privilege::All))
    })
}

/// Does the caller hold `privilege` on `chain[0]`? True if they own the
/// object itself (owners hold all privileges on their object), or a
/// matching grant (the privilege itself or ALL) exists on the object or
/// any ancestor (privilege inheritance, §3.3).
pub fn has_privilege<N: AuthzNodeView>(
    chain: &[N],
    who: &AuthzContext,
    privilege: Privilege,
) -> bool {
    if let Some(object) = chain.first() {
        if who.matches(object.node_owner()) {
            return true;
        }
    }
    chain.iter().any(|node| {
        node.node_grants()
            .iter()
            .any(|(g, p)| who.matches(g) && (*p == privilege || *p == Privilege::All))
    })
}

/// The USE chain requirement: USE CATALOG on the catalog ancestor and
/// USE SCHEMA on the schema ancestor (owners of those containers and
/// metastore admins pass implicitly for their container).
pub fn can_traverse<N: AuthzNodeView>(chain: &[N], who: &AuthzContext) -> bool {
    if who.is_metastore_admin {
        return true;
    }
    for (idx, node) in chain.iter().enumerate() {
        let needed = match node.node_kind() {
            SecurableKind::Catalog if idx > 0 => Privilege::UseCatalog,
            SecurableKind::Schema if idx > 0 => Privilege::UseSchema,
            _ => continue,
        };
        // The sub-chain rooted at this container: a USE grant on the
        // container itself or anything above it satisfies traversal.
        if !has_privilege(&chain[idx..], who, needed) {
            return false;
        }
    }
    true
}

/// Can the caller see `chain[0]`'s metadata at all? Any privilege,
/// ownership anywhere in the chain, or admin authority qualifies.
pub fn can_see<N: AuthzNodeView>(chain: &[N], who: &AuthzContext) -> bool {
    if has_admin_authority(chain, who) {
        return true;
    }
    chain.iter().any(|node| {
        node.node_grants().iter().any(|(g, _)| who.matches(g)) || who.matches(node.node_owner())
    })
}

/// What an operation requires of the caller on `chain[0]` — the closed set
/// of rules the service asks for. Every allow / deny is [`decide`] over
/// one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Need<'a> {
    /// The caller is a metastore admin.
    MetastoreAdmin,
    /// Metastore admin, or the privilege held on the metastore (the chain
    /// is the metastore alone): the `CREATE_*` rights for top-level
    /// securables.
    MetastoreAdminOr(Privilege),
    /// [`has_admin_authority`].
    Admin,
    /// Admin authority, or any one of these privileges held.
    AdminOrAny(&'a [Privilege]),
    /// The data-access rule, for reads and writes alike: the USE chain
    /// ([`can_traverse`]) plus the privilege held.
    Data(Privilege),
    /// [`has_privilege`] alone (no traversal requirement).
    Holds(Privilege),
    /// [`can_see`].
    See,
}

impl std::fmt::Display for Need<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Need::MetastoreAdmin => f.write_str("metastore admin"),
            Need::MetastoreAdminOr(p) => write!(f, "metastore admin or {p} on the metastore"),
            Need::Admin => f.write_str("admin authority"),
            Need::AdminOrAny(ps) => {
                f.write_str("admin authority")?;
                ps.iter().try_for_each(|p| write!(f, " or {p}"))
            }
            Need::Data(p) => write!(f, "{p} (plus USE on containers)"),
            Need::Holds(p) => write!(f, "{p}"),
            Need::See => f.write_str("visibility"),
        }
    }
}

/// The one decision procedure: does `who` meet `need` on `chain[0]`?
/// `chain` is the securable followed by its ancestors up to the metastore.
pub fn decide<N: AuthzNodeView>(chain: &[N], who: &AuthzContext, need: Need<'_>) -> bool {
    match need {
        Need::MetastoreAdmin => who.is_metastore_admin,
        Need::MetastoreAdminOr(p) => who.is_metastore_admin || has_privilege(chain, who, p),
        Need::Admin => has_admin_authority(chain, who),
        Need::AdminOrAny(ps) => {
            has_admin_authority(chain, who) || ps.iter().any(|p| has_privilege(chain, who, *p))
        }
        Need::Data(p) => can_traverse(chain, who) && has_privilege(chain, who, p),
        Need::Holds(p) => has_privilege(chain, who, p),
        Need::See => can_see(chain, who),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: &str, kind: SecurableKind, owner: &str, grants: &[(&str, Privilege)]) -> AuthzNode {
        AuthzNode {
            id: Uid::from(id),
            kind,
            owner: owner.to_string(),
            grants: grants.iter().map(|(g, p)| (g.to_string(), *p)).collect(),
        }
    }

    /// table chain: table → schema → catalog → metastore
    fn chain(
        table_grants: &[(&str, Privilege)],
        schema_grants: &[(&str, Privilege)],
        catalog_grants: &[(&str, Privilege)],
    ) -> Vec<AuthzNode> {
        vec![
            node("t", SecurableKind::Table, "table_owner", table_grants),
            node("s", SecurableKind::Schema, "schema_owner", schema_grants),
            node("c", SecurableKind::Catalog, "catalog_owner", catalog_grants),
            node("m", SecurableKind::Metastore, "ms_admin", &[]),
        ]
    }

    fn user(name: &str) -> AuthzContext {
        AuthzContext::new(name)
    }

    #[test]
    fn select_requires_grant_plus_use_chain() {
        let c = chain(
            &[("alice", Privilege::Select)],
            &[("alice", Privilege::UseSchema)],
            &[("alice", Privilege::UseCatalog)],
        );
        assert!(decide(&c, &user("alice"), Need::Data(Privilege::Select)));
    }

    #[test]
    fn missing_use_catalog_blocks_read() {
        let c = chain(
            &[("alice", Privilege::Select)],
            &[("alice", Privilege::UseSchema)],
            &[], // no USE CATALOG
        );
        assert!(has_privilege(&c, &user("alice"), Privilege::Select));
        assert!(!can_traverse(&c, &user("alice")));
        assert!(!decide(&c, &user("alice"), Need::Data(Privilege::Select)));
    }

    #[test]
    fn select_granted_on_catalog_inherits_down() {
        let c = chain(
            &[],
            &[("alice", Privilege::UseSchema)],
            &[("alice", Privilege::Select), ("alice", Privilege::UseCatalog)],
        );
        assert!(decide(&c, &user("alice"), Need::Data(Privilege::Select)));
    }

    #[test]
    fn all_privileges_grant_implies_everything() {
        let c = chain(&[], &[], &[("alice", Privilege::All)]);
        let alice = user("alice");
        assert!(has_privilege(&c, &alice, Privilege::Select));
        assert!(has_privilege(&c, &alice, Privilege::Modify));
        assert!(can_traverse(&c, &alice), "ALL covers USE privileges too");
        assert!(has_admin_authority(&c, &alice));
    }

    #[test]
    fn group_grants_apply_to_members() {
        let c = chain(
            &[("analysts", Privilege::Select)],
            &[("analysts", Privilege::UseSchema)],
            &[("analysts", Privilege::UseCatalog)],
        );
        let mut bob = user("bob");
        assert!(!decide(&c, &bob, Need::Data(Privilege::Select)));
        bob.groups.insert("analysts".to_string());
        assert!(decide(&c, &bob, Need::Data(Privilege::Select)));
    }

    #[test]
    fn table_owner_holds_all_privileges_on_table_but_still_needs_use_chain() {
        let c = chain(&[], &[], &[]);
        let owner = user("table_owner");
        assert!(has_privilege(&c, &owner, Privilege::Select));
        assert!(has_privilege(&c, &owner, Privilege::Modify));
        // but traversal still requires USE on containers
        assert!(!can_traverse(&c, &owner));
        assert!(!decide(&c, &owner, Need::Data(Privilege::Select)));
    }

    #[test]
    fn schema_owner_has_admin_authority_but_no_data_access() {
        let c = chain(&[], &[], &[]);
        let schema_owner = user("schema_owner");
        assert!(has_admin_authority(&c, &schema_owner));
        // the separation the paper calls out for regulated environments:
        assert!(!has_privilege(&c, &schema_owner, Privilege::Select));
        assert!(!decide(&c, &schema_owner, Need::Data(Privilege::Select)));
    }

    #[test]
    fn manage_grant_confers_admin_authority_not_data_access() {
        let c = chain(&[("ops", Privilege::Manage)], &[], &[]);
        let mut carol = user("carol");
        carol.groups.insert("ops".to_string());
        assert!(has_admin_authority(&c, &carol));
        assert!(!has_privilege(&c, &carol, Privilege::Select));
    }

    #[test]
    fn manage_on_ancestor_inherits_down() {
        let c = chain(&[], &[], &[("ops", Privilege::Manage)]);
        let mut carol = user("carol");
        carol.groups.insert("ops".to_string());
        assert!(has_admin_authority(&c, &carol));
    }

    #[test]
    fn metastore_admin_has_admin_authority_and_traversal_but_no_data_access() {
        let c = chain(&[], &[], &[]);
        let mut admin = user("root");
        admin.is_metastore_admin = true;
        assert!(has_admin_authority(&c, &admin));
        assert!(can_traverse(&c, &admin));
        assert!(!has_privilege(&c, &admin, Privilege::Select));
    }

    #[test]
    fn use_grant_on_schema_does_not_leak_to_catalog() {
        // USE SCHEMA granted on the schema, but USE CATALOG missing.
        let c = chain(&[("alice", Privilege::Select), ("alice", Privilege::UseSchema)], &[], &[]);
        assert!(!can_traverse(&c, &user("alice")));
    }

    #[test]
    fn use_catalog_granted_on_metastore_inherits_to_catalog() {
        let mut c = chain(&[("alice", Privilege::Select)], &[("alice", Privilege::UseSchema)], &[]);
        // grant USE CATALOG at the metastore level
        c[3].grants.push(("alice".to_string(), Privilege::UseCatalog));
        assert!(can_traverse(&c, &user("alice")));
    }

    #[test]
    fn can_see_with_any_grant() {
        let c = chain(&[("alice", Privilege::Select)], &[], &[]);
        assert!(can_see(&c, &user("alice")));
        assert!(!can_see(&c, &user("mallory")));
        assert!(can_see(&c, &user("schema_owner")), "ancestors' owners see descendants");
    }

    #[test]
    fn default_is_deny() {
        let c = chain(&[], &[], &[]);
        let nobody = user("nobody");
        assert!(!has_privilege(&c, &nobody, Privilege::Select));
        assert!(!can_traverse(&c, &nobody));
        assert!(!can_see(&c, &nobody));
        assert!(!has_admin_authority(&c, &nobody));
    }

    /// One row per [`Need`] variant: a principal the rule allows through a
    /// direct grant, the same grant reaching a group member, a principal
    /// it refuses, and what a metastore admin with no grant at all gets —
    /// admins traverse and administer but hold no data privilege.
    #[test]
    fn every_need_allows_denies_and_treats_admins_as_specified() {
        // The chain in which `who` holds `grant` (plus the USE chain), or
        // the metastore alone carrying that grant.
        fn build(who: &str, grant: Privilege, ms_only: bool) -> Vec<AuthzNode> {
            if ms_only {
                return vec![node("m", SecurableKind::Metastore, "ms_owner", &[(who, grant)])];
            }
            chain(&[(who, grant)], &[(who, Privilege::UseSchema)], &[(who, Privilege::UseCatalog)])
        }
        let create = [Privilege::CreateTable, Privilege::WriteVolume];
        // (need, a grant that meets it — none does for the admin bit —,
        //  metastore-only chain?, met by a grantless metastore admin?)
        let rows = [
            (Need::MetastoreAdmin, None, false, true),
            (Need::MetastoreAdminOr(Privilege::CreateCatalog), Some(Privilege::CreateCatalog), true, true),
            (Need::Admin, Some(Privilege::Manage), false, true),
            (Need::AdminOrAny(&create), Some(Privilege::WriteVolume), false, true),
            (Need::Data(Privilege::Select), Some(Privilege::Select), false, false),
            (Need::Holds(Privilege::Modify), Some(Privilege::Modify), false, false),
            (Need::See, Some(Privilege::Select), false, true),
        ];
        let mut member = user("bob");
        member.groups.insert("team".to_string());
        let mut admin = user("root");
        admin.is_metastore_admin = true;
        for (need, grant, ms_only, admin_allowed) in rows {
            let of = |who| build(who, grant.unwrap_or(Privilege::All), ms_only);
            assert_eq!(decide(&of("alice"), &user("alice"), need), grant.is_some(), "{need}: direct grant");
            assert_eq!(decide(&of("team"), &member, need), grant.is_some(), "{need}: group member");
            assert!(!decide(&of("alice"), &user("mallory"), need), "{need}: no grant");
            assert!(!decide(&of("team"), &user("bob"), need), "{need}: not in the group");
            assert_eq!(decide(&chain(&[], &[], &[]), &admin, need), admin_allowed, "{need}: metastore admin");
        }
        // The data rule is one rule: a privilege without the USE chain is refused.
        let no_use = chain(&[("alice", Privilege::Modify)], &[], &[]);
        assert!(decide(&no_use, &user("alice"), Need::Holds(Privilege::Modify)));
        assert!(!decide(&no_use, &user("alice"), Need::Data(Privilege::Modify)));
    }
}
