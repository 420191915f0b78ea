//! Negative-path credential vending tests (§4.3.1).
//!
//! The happy paths are covered by the engine and lifecycle suites; these
//! tests pin the *denials*: a token scoped to one asset's path must not
//! open sibling paths that share a string prefix, an expired token must
//! stop working even though it was validly minted, and renewal must re-run
//! full authorization so revocations issued after the original vend are
//! honored (and audited).

use std::sync::Arc;

use uc_catalog::audit::AuditDecision;
use uc_catalog::authz::Privilege;
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::{Context, UcConfig, UnityCatalog, CRED_TTL_MS};
use uc_catalog::types::{FullName, TableFormat};
use uc_catalog::UcError;
use uc_cloudstore::{
    AccessLevel, Clock, Credential, LatencyModel, ObjectStore, StoragePath, StsService,
};
use uc_delta::value::{DataType, Field, Schema};
use uc_txdb::Db;

const ADMIN: &str = "admin";

struct World {
    clock: Clock,
    store: ObjectStore,
    uc: Arc<UnityCatalog>,
    ms: uc_catalog::Uid,
    root: Credential,
}

fn int_schema() -> Schema {
    Schema::new(vec![Field::new("x", DataType::Int)])
}

/// A world with catalog `main`, schema `s`, and external tables `t1` and
/// `t2` at `s3://lake/warehouse/t1` and `.../t2`, plus loose objects under
/// the sibling prefix `.../t10` that no asset governs.
fn world() -> World {
    let clock = Clock::manual(0);
    let sts = StsService::new(clock.clone());
    let store = ObjectStore::new(sts, LatencyModel::zero());
    let db = Db::in_memory();
    let uc = UnityCatalog::new(db, store.clone(), UcConfig::default(), "node-0");
    let ms = uc.create_metastore(ADMIN, "sts", "us-west-2").unwrap();
    let ctx = Context::user(ADMIN);
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.create_catalog(&ctx, &ms, "main").unwrap();
    uc.create_schema(&ctx, &ms, "main", "s").unwrap();
    for t in ["t1", "t2"] {
        let spec = TableSpec::external(
            &format!("main.s.{t}"),
            int_schema(),
            &format!("s3://lake/warehouse/{t}"),
            TableFormat::Delta,
        )
        .unwrap();
        uc.create_table(&ctx, &ms, spec).unwrap();
    }
    let root = Credential::Root(root);
    for obj in ["t1/part-0", "t2/part-0", "t10/part-0"] {
        let p = StoragePath::parse(&format!("s3://lake/warehouse/{obj}")).unwrap();
        store.put(&root, &p, bytes::Bytes::from_static(b"rows")).unwrap();
    }
    World { clock, store, uc, ms, root }
}

fn obj(path: &str) -> StoragePath {
    StoragePath::parse(path).unwrap()
}

// ---------------------------------------------------------------------
// 1. Scope containment: a t1 token opens t1 only — not the t10 sibling
//    that shares a string prefix, not the t2 sibling.
// ---------------------------------------------------------------------

#[test]
fn credential_scoped_to_one_path_rejects_sibling_prefixes() {
    let w = world();
    let ctx = Context::user(ADMIN);
    let tok = w
        .uc
        .temp_credentials(
            &ctx,
            &w.ms,
            &FullName::parse("main.s.t1").unwrap(),
            "relation",
            AccessLevel::Read,
        )
        .unwrap();
    assert_eq!(tok.scope, obj("s3://lake/warehouse/t1"));
    let cred = Credential::Temp(tok);

    // In scope: the object under the table's registered path.
    w.store.get(&cred, &obj("s3://lake/warehouse/t1/part-0")).unwrap();
    // `t10` shares the string prefix "t1" but is a different path segment.
    w.store
        .get(&cred, &obj("s3://lake/warehouse/t10/part-0"))
        .expect_err("t1 token must not open sibling t10");
    // An ordinary sibling is equally out of scope.
    w.store
        .get(&cred, &obj("s3://lake/warehouse/t2/part-0"))
        .expect_err("t1 token must not open sibling t2");
    // Read scope does not imply write scope, even in-path.
    w.store
        .put(&cred, &obj("s3://lake/warehouse/t1/new"), bytes::Bytes::new())
        .expect_err("read token must not write");
    // The root credential still reads everything (sanity).
    w.store.get(&w.root, &obj("s3://lake/warehouse/t10/part-0")).unwrap();
}

// ---------------------------------------------------------------------
// 2. Expiry + renewal: an aged-out token stops working, and renewal
//    re-runs full authorization — a revocation issued after the original
//    vend denies the renewal (audited), and a re-grant restores it.
// ---------------------------------------------------------------------

#[test]
fn expired_then_renewed_token_rerurns_full_authorization() {
    let w = world();
    let admin = Context::user(ADMIN);
    let bob = Context::user("bob");
    let table = FullName::parse("main.s.t1").unwrap();
    let table_id = w.uc.get_table(&admin, &w.ms, "main.s.t1").unwrap().id.clone();

    // Bob cannot vend before any grant.
    let denied = w
        .uc
        .temp_credentials(&bob, &w.ms, &table, "relation", AccessLevel::Read)
        .expect_err("ungranted principal must not vend");
    assert!(matches!(denied, UcError::PermissionDenied(_) | UcError::NotFound(_)));

    // USE CATALOG + USE SCHEMA + SELECT in one call; now the vend works.
    w.uc.grant_read_path(&admin, &w.ms, "main.s.t1", "bob").unwrap();
    let tok = w
        .uc
        .temp_credentials(&bob, &w.ms, &table, "relation", AccessLevel::Read)
        .unwrap();
    let part = obj("s3://lake/warehouse/t1/part-0");
    w.store.get(&Credential::Temp(tok.clone()), &part).unwrap();

    // Age the token out: the store now rejects it outright.
    w.clock.advance_ms(CRED_TTL_MS + 1);
    w.store
        .get(&Credential::Temp(tok), &part)
        .expect_err("expired token must be rejected");

    // A revocation issued while the engine was away must be honored by
    // the renewal path — it re-runs authorization, not just re-signing.
    w.uc.revoke(&admin, &w.ms, &table, "relation", "bob", Privilege::Select).unwrap();
    let denied = w
        .uc
        .renew_read_credential(&bob, &w.ms, &table_id)
        .expect_err("renewal after revocation must be denied");
    assert!(matches!(denied, UcError::PermissionDenied(_)));
    let denials = w.uc.audit_log().query(|r| {
        r.principal == "bob"
            && r.action == "renewTemporaryCredentials"
            && r.decision == AuditDecision::Deny
    });
    assert!(!denials.is_empty(), "denied renewal must be audited");

    // Re-grant: renewal succeeds and the fresh token works again.
    w.uc.grant(&admin, &w.ms, &table, "relation", "bob", Privilege::Select).unwrap();
    let renewed = w.uc.renew_read_credential(&bob, &w.ms, &table_id).unwrap();
    assert!(renewed.remaining_ms(w.clock.now_ms()) > 0);
    w.store.get(&Credential::Temp(renewed), &part).unwrap();
    let allows = w.uc.audit_log().query(|r| {
        r.principal == "bob"
            && r.action == "renewTemporaryCredentials"
            && r.decision == AuditDecision::Allow
    });
    assert!(!allows.is_empty(), "successful renewal must be audited");
}

// ---------------------------------------------------------------------
// 3. Root credentials are a metastore's own: a second metastore on the
//    node, with no storage credential for bucket `lake`, cannot vend with
//    the first one's — the same refusal a fresh node gives.
// ---------------------------------------------------------------------

#[test]
fn a_metastore_vends_only_with_its_own_storage_credential() {
    let w = world();
    let admin = Context::user(ADMIN);
    let other = w.uc.create_metastore(ADMIN, "other", "us-west-2").unwrap();
    w.uc.create_catalog(&admin, &other, "main").unwrap();
    w.uc.create_schema(&admin, &other, "main", "s").unwrap();
    let spec = TableSpec::external("main.s.b", int_schema(), "s3://lake/other/b", TableFormat::Delta).unwrap();
    w.uc.create_table(&admin, &other, spec).unwrap();
    // This node has vended with the first metastore's root for `lake`.
    let t1 = FullName::parse("main.s.t1").unwrap();
    w.uc.temp_credentials(&admin, &w.ms, &t1, "relation", AccessLevel::Read).unwrap();

    let fresh = UnityCatalog::new(w.uc.db().clone(), w.store.clone(), UcConfig::default(), "node-1");
    let b = FullName::parse("main.s.b").unwrap();
    for node in [&fresh, &w.uc] {
        let err = node.temp_credentials(&admin, &other, &b, "relation", AccessLevel::Read).unwrap_err();
        assert_eq!(err, UcError::Storage("no storage credential for bucket lake".into()), "{}", node.node_id());
    }
}
