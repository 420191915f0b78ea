//! Double-count hazard suite: a request that retries internally must hit
//! the audit log and the op counters **exactly once**.
//!
//! The audit append and the per-op counter bump both live on the sharded
//! hot path now (per-thread lanes, striped counters), and the write path
//! retries commit conflicts inside the same request. The hazard: if the
//! audit record or the `catalog.<op>.count` increment sat inside the
//! retry loop, an injected conflict would double-audit (an auditor would
//! see two `createTable` grants for one table) or double-count (rps
//! dashboards would inflate under contention). Property-tested across
//! conflict counts, with the shrunk boundary case pinned.

use std::sync::Arc;

use proptest::prelude::*;
use uc_catalog::audit::AuditDecision;
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_cloudstore::faults::{points, FaultMode, FaultPlan};
use uc_cloudstore::{Clock, LatencyModel, ObjectStore, StsService};
use uc_delta::value::{DataType, Field, Schema};
use uc_obs::Obs;
use uc_txdb::{Db, DbConfig};

const ADMIN: &str = "admin";

struct FaultyWorld {
    plan: FaultPlan,
    uc: Arc<UnityCatalog>,
    ms: uc_catalog::ids::Uid,
    obs: Obs,
}

fn faulty_world() -> FaultyWorld {
    let plan = FaultPlan::seeded(7);
    let clock = Clock::manual(0);
    let obs_clock = clock.clone();
    let obs = Obs::with_clock_fn(Arc::new(move || obs_clock.now_ms()));
    let sts = StsService::new(clock).with_faults(plan.clone()).with_obs(obs.clone());
    let store =
        ObjectStore::with_faults(sts, LatencyModel::zero(), plan.clone()).with_obs(obs.clone());
    let db = Db::new(DbConfig { faults: plan.clone(), obs: obs.clone(), ..Default::default() });
    let uc = UnityCatalog::new(
        db,
        store.clone(),
        UcConfig { faults: plan.clone(), obs: obs.clone(), ..Default::default() },
        "node-0",
    );
    let ms = uc.create_metastore(ADMIN, "retry", "us-west-2").unwrap();
    let ctx = Context::user(ADMIN);
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
    uc.create_catalog(&ctx, &ms, "main").unwrap();
    uc.create_schema(&ctx, &ms, "main", "s").unwrap();
    FaultyWorld { plan, uc, ms, obs }
}

fn int_schema() -> Schema {
    Schema::new(vec![Field::new("x", DataType::Int)])
}

/// Create one table while the first `conflicts` commit attempts abort,
/// and assert the request audits exactly once, counts exactly once, and
/// retried exactly `conflicts` times.
fn assert_exactly_once(w: &FaultyWorld, table: &str, conflicts: u32) {
    let ctx = Context::user(ADMIN);
    let audits_before = w
        .uc
        .audit_log()
        .query(|r| r.action == "createTable" && r.decision == AuditDecision::Allow)
        .len();
    let count_before = w.obs.counter("catalog.create_table.count").get();
    let retries_before = w
        .uc
        .service_stats()
        .write_retries
        .load(std::sync::atomic::Ordering::Relaxed);

    w.plan.arm(points::TXDB_COMMIT_CONFLICT, FaultMode::FirstN(conflicts as u64));
    let name = format!("main.s.{table}");
    w.uc
        .create_table(&ctx, &w.ms, TableSpec::managed(&name, int_schema()).unwrap())
        .unwrap();
    w.plan.disarm(points::TXDB_COMMIT_CONFLICT);

    let audits_after = w
        .uc
        .audit_log()
        .query(|r| r.action == "createTable" && r.decision == AuditDecision::Allow)
        .len();
    let count_after = w.obs.counter("catalog.create_table.count").get();
    let retries_after = w
        .uc
        .service_stats()
        .write_retries
        .load(std::sync::atomic::Ordering::Relaxed);

    assert_eq!(
        audits_after - audits_before,
        1,
        "a createTable that retried {conflicts} conflict(s) must audit exactly once"
    );
    assert_eq!(
        count_after - count_before,
        1,
        "catalog.create_table.count must rise by exactly 1 across {conflicts} retry(ies)"
    );
    assert_eq!(
        retries_after - retries_before,
        conflicts as u64,
        "each injected conflict is one recorded retry"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Across 0–4 injected commit conflicts, every request stays
    /// exactly-once in the audit log and the op counters.
    #[test]
    fn retried_requests_audit_and_count_exactly_once(
        conflicts in 0u32..5,
        salt in 0u32..1000,
    ) {
        let w = faulty_world();
        assert_exactly_once(&w, &format!("t_{salt}_{conflicts}"), conflicts);
    }
}

/// Pinned regression (the shrunk boundary from the property above): the
/// maximum in-budget retry burst must still audit and count once.
#[test]
fn four_conflict_burst_audits_once() {
    let w = faulty_world();
    assert_exactly_once(&w, "t_pinned", 4);
}

/// Two sequential faulted requests stay independent: the second request's
/// exactly-once accounting is unaffected by the first one's retries.
#[test]
fn back_to_back_retry_storms_stay_exactly_once() {
    let w = faulty_world();
    assert_exactly_once(&w, "t_first", 3);
    assert_exactly_once(&w, "t_second", 2);
}

// ---------------------------------------------------------------------
// Refusals: one gate, one `Deny`, under the refused op's own action
// ---------------------------------------------------------------------

mod deny {
    use super::*;
    use uc_catalog::audit::AuditRecord;
    use uc_catalog::authz::abac::{AbacEffect, AbacPolicy};
    use uc_catalog::authz::fgac::RowFilterPolicy;
    use uc_catalog::authz::Privilege;
    use uc_catalog::error::{UcError, UcResult};
    use uc_catalog::ops::Op;
    use uc_catalog::service::federation::ForeignTableMeta;
    use uc_catalog::types::FullName;
    use uc_cloudstore::{AccessLevel, RootCredential};
    use uc_delta::expr::{CmpOp, Expr};

    fn name(s: &str) -> FullName {
        FullName::parse(s).unwrap()
    }

    /// Run `call`, which must be refused, and return the audit records it
    /// added.
    fn refused(w: &FaultyWorld, call: impl FnOnce() -> UcResult<()>) -> (UcError, Vec<AuditRecord>) {
        let before = w.uc.audit_log().total_recorded();
        let err = call().expect_err("an outsider's call must be refused");
        let added = (w.uc.audit_log().total_recorded() - before) as usize;
        (err, w.uc.audit_log().recent(added))
    }

    /// For each op that declares audit actions and takes a nameable
    /// target, a principal with no grant at all is refused with
    /// `PermissionDenied` (`NotFound` where existence is hidden) and the
    /// refusal adds exactly one record: a `Deny`, under one of that op's
    /// own actions, naming the securable it was decided on.
    #[test]
    fn every_audited_op_refuses_an_outsider_with_exactly_one_deny_under_its_own_action() {
        let w = faulty_world();
        let (uc, ms) = (&w.uc, &w.ms);
        let admin = Context::user(ADMIN);
        let table = uc
            .create_table(&admin, ms, TableSpec::managed("main.s.t", int_schema()).unwrap())
            .unwrap();
        let path = table.storage_path.clone().unwrap();
        uc.create_registered_model(&admin, ms, &name("main.s.m")).unwrap();
        uc.create_model_version(&admin, ms, &name("main.s.m")).unwrap();
        uc.create_share(&admin, ms, "sh").unwrap();
        uc.create_connection(&admin, ms, "conn", "thrift://hms").unwrap();
        uc.create_federated_catalog(&admin, ms, "fed", "conn").unwrap();

        let out = Context::user("mallory");
        let root = RootCredential { bucket: "other".into(), secret: 1 };
        let meta = ForeignTableMeta {
            name: "ft".into(),
            columns: int_schema(),
            storage_path: None,
            foreign_type: "hive".into(),
        };
        let policy = AbacPolicy {
            name: "p".into(),
            tag_key: "pii".into(),
            tag_value: None,
            effect: AbacEffect::RestrictAccess { allowed_groups: vec![] },
        };
        let filter = RowFilterPolicy { expr: Expr::cmp("x", CmpOp::Eq, 1i64) };
        let t = name("main.s.t");
        let m = name("main.s.m");
        type Call<'a> = Box<dyn FnOnce() -> UcResult<()> + 'a>;
        let sweep: Vec<(&str, Call)> = vec![
            ("add_metastore_admin", Box::new(|| uc.add_metastore_admin(&out, ms, "mallory"))),
            ("add_table_to_share", Box::new(|| uc.add_table_to_share(&out, ms, "sh", &t))),
            ("bulk_create_tables", Box::new(|| uc.bulk_create_tables(&out, ms, "main", &[], &int_schema(), 8).map(drop))),
            ("commit_tables_atomically", Box::new(|| uc.commit_table(&out, ms, &table.id, 0, bytes::Bytes::new()))),
            ("create_abac_policy", Box::new(|| uc.create_abac_policy(&out, ms, &name("main"), "catalog", policy.clone()))),
            ("create_catalog", Box::new(|| uc.create_catalog(&out, ms, "c2").map(drop))),
            ("create_connection", Box::new(|| uc.create_connection(&out, ms, "c2", "thrift://x").map(drop))),
            ("create_external_location", Box::new(|| uc.create_external_location(&out, ms, "loc", "s3://lake/ext", "lake_cred").map(drop))),
            ("create_federated_catalog", Box::new(|| uc.create_federated_catalog(&out, ms, "fed2", "conn").map(drop))),
            ("create_function", Box::new(|| uc.create_function(&out, ms, &name("main.s.f"), "1").map(drop))),
            ("create_model_version", Box::new(|| uc.create_model_version(&out, ms, &m).map(drop))),
            ("create_registered_model", Box::new(|| uc.create_registered_model(&out, ms, &name("main.s.m2")).map(drop))),
            ("create_schema", Box::new(|| uc.create_schema(&out, ms, "main", "s2").map(drop))),
            ("create_shallow_clone", Box::new(|| uc.create_shallow_clone(&out, ms, &name("main.s.c"), &t, 0).map(drop))),
            ("create_share", Box::new(|| uc.create_share(&out, ms, "sh2").map(drop))),
            ("create_storage_credential", Box::new(|| uc.create_storage_credential(&out, ms, "cred2", &root).map(drop))),
            ("create_table", Box::new(|| uc.create_table(&out, ms, TableSpec::managed("main.s.t2", int_schema()).unwrap()).map(drop))),
            ("create_view", Box::new(|| uc.create_view(&out, ms, &name("main.s.v"), "select 1", int_schema(), &[]).map(drop))),
            ("create_volume", Box::new(|| uc.create_volume(&out, ms, &name("main.s.vol"), None).map(drop))),
            ("drop_securable", Box::new(|| uc.drop_securable(&out, ms, &t, "relation").map(drop))),
            ("get_securable", Box::new(|| uc.get_table(&out, ms, "main.s.t").map(drop))),
            ("grant", Box::new(|| uc.grant(&out, ms, &t, "relation", "mallory", Privilege::Select))),
            ("latest_table_version", Box::new(|| uc.latest_table_version(&out, ms, &table.id).map(drop))),
            ("list_share_tables", Box::new(|| uc.list_share_tables(&out, ms, "sh").map(drop))),
            ("load_table_as_iceberg", Box::new(|| uc.load_table_as_iceberg(&out, ms, &t).map(drop))),
            ("mirror_table", Box::new(|| uc.mirror_table(&out, ms, "fed", "s", &meta).map(drop))),
            ("policy_update", Box::new(|| uc.set_row_filter(&out, ms, &t, filter.clone()))),
            ("query_share_table", Box::new(|| uc.query_share_table(&out, ms, "sh", "s.t").map(drop))),
            ("query_share_table_as_iceberg", Box::new(|| uc.query_share_table_as_iceberg(&out, ms, "sh", "s.t").map(drop))),
            ("read_table_commit", Box::new(|| uc.read_table_commit(&out, ms, &table.id, 0).map(drop))),
            ("rename_securable", Box::new(|| uc.rename_securable(&out, ms, &t, "relation", "t9").map(drop))),
            ("renew_read_credential", Box::new(|| uc.renew_read_credential(&out, ms, &table.id).map(drop))),
            ("resolve_for_query", Box::new(|| uc.resolve_for_query(&out, ms, std::slice::from_ref(&t), false).map(drop))),
            ("resolve_model_version", Box::new(|| uc.resolve_model_version(&out, ms, &m, 1).map(drop))),
            ("revoke", Box::new(|| uc.revoke(&out, ms, &t, "relation", ADMIN, Privilege::Select))),
            ("set_catalog_bindings", Box::new(|| uc.set_catalog_bindings(&out, ms, "main", &["ws"]))),
            ("set_metastore_root", Box::new(|| uc.set_metastore_root(&out, ms, "s3://lake/elsewhere"))),
            ("tag_update", Box::new(|| uc.set_tag(&out, ms, &t, "relation", "k", "v"))),
            ("temp_credentials", Box::new(|| uc.temp_credentials(&out, ms, &t, "relation", AccessLevel::Read).map(drop))),
            ("temp_credentials_for_path", Box::new(|| uc.temp_credentials_for_path(&out, ms, &path, AccessLevel::Read).map(drop))),
            ("transfer_ownership", Box::new(|| uc.transfer_ownership(&out, ms, &t, "relation", "mallory").map(drop))),
            ("update_comment", Box::new(|| uc.update_comment(&out, ms, &t, "relation", "hi").map(drop))),
        ];
        // Audited ops the sweep cannot reach with a refusal of their own.
        let not_swept = [
            "add_lineage",              // refused inside the nested `get_securable` it calls, under that op's action
            "create_metastore",         // account-level: no authorization decision
            "purge_soft_deleted",       // node-internal: no principal
            "serve_admit",              // the serving plane's shed, not a catalog entry point
        ];
        let mut covered: Vec<&str> = sweep.iter().map(|(op, _)| *op).chain(not_swept).collect();
        covered.sort_unstable();
        let audited: Vec<&str> =
            Op::ALL.iter().filter(|op| !op.actions.is_empty()).map(|op| op.name).collect();
        assert_eq!(covered, audited, "every op that declares audit actions is swept or listed");

        for (op, call) in sweep {
            let row = Op::ALL.iter().find(|row| row.name == op).unwrap();
            let allowed: Vec<&str> = row.actions.iter().map(|a| a.as_str()).collect();
            let (err, added) = refused(&w, call);
            match op {
                "get_securable" => assert!(matches!(err, UcError::NotFound(_)), "{op}: {err}"),
                _ => assert!(matches!(err, UcError::PermissionDenied(_)), "{op}: {err}"),
            }
            assert_eq!(added.len(), 1, "{op}: exactly one audit record, got {added:?}");
            let rec = &added[0];
            assert_eq!(rec.decision, AuditDecision::Deny, "{op}");
            assert_eq!(rec.principal, "mallory", "{op}");
            assert!(allowed.contains(&rec.action.as_str()), "{op}: audited as {} (allowed {allowed:?})", rec.action);
            assert!(rec.securable.is_some(), "{op}: the deny names the securable it was decided on");
        }
    }

    /// A federated catalog is created by one entry, one commit and one
    /// metastore version, and lands in the trail under its own action —
    /// not as a plain `createCatalog` followed by an un-audited update.
    #[test]
    fn federated_catalog_creation_is_one_audited_atomic_operation() {
        let w = faulty_world();
        let (uc, ms) = (&w.uc, &w.ms);
        let admin = Context::user(ADMIN);
        uc.create_connection(&admin, ms, "conn", "thrift://hms").unwrap();
        let version = || -> u64 {
            let raw = uc.db().begin_read().get(uc_catalog::model::keys::T_MSVER, ms.as_str()).unwrap();
            String::from_utf8(raw.to_vec()).unwrap().parse().unwrap()
        };
        let calls = || uc.service_stats().api_calls.load(std::sync::atomic::Ordering::Relaxed);
        let before = (calls(), uc.db().stats().commits(), version(), uc.audit_log().total_recorded());

        let fed = uc.create_federated_catalog(&admin, ms, "fed", "conn").unwrap();

        assert_eq!(calls() - before.0, 1, "one api entry, no nested public call");
        assert_eq!(uc.db().stats().commits() - before.1, 1, "one commit");
        assert_eq!(version() - before.2, 1, "one metastore version");
        assert_eq!(fed.properties.get("federated").map(String::as_str), Some("true"));
        let added = uc.audit_log().recent((uc.audit_log().total_recorded() - before.3) as usize);
        assert_eq!(added.len(), 1, "{added:?}");
        assert_eq!(
            (added[0].decision, added[0].action.as_str(), added[0].securable.as_ref()),
            (AuditDecision::Allow, "createFederatedCatalog", Some(&fed.id))
        );
    }

    /// The gate comes first for every create: an unauthorised caller with
    /// a malformed name gets an audited `PermissionDenied`, not an
    /// unaudited `InvalidArgument` that confirms nothing was checked.
    #[test]
    fn an_outsider_with_a_malformed_name_is_denied_before_the_name_is_read() {
        let w = faulty_world();
        let (uc, ms) = (&w.uc, &w.ms);
        uc.create_connection(&Context::user(ADMIN), ms, "conn", "thrift://hms").unwrap();
        let out = Context::user("mallory");
        let root = RootCredential { bucket: "other".into(), secret: 1 };
        let bad = "has space";
        type Call<'a> = Box<dyn FnOnce() -> UcResult<()> + 'a>;
        let calls: Vec<(&str, Call)> = vec![
            ("createStorageCredential", Box::new(|| uc.create_storage_credential(&out, ms, bad, &root).map(drop))),
            ("createExternalLocation", Box::new(|| uc.create_external_location(&out, ms, bad, "s3://lake/ext", "lake_cred").map(drop))),
            ("createCatalog", Box::new(|| uc.create_catalog(&out, ms, bad).map(drop))),
            ("createSchema", Box::new(|| uc.create_schema(&out, ms, "main", bad).map(drop))),
            ("createShare", Box::new(|| uc.create_share(&out, ms, bad).map(drop))),
            ("createConnection", Box::new(|| uc.create_connection(&out, ms, bad, "thrift://x").map(drop))),
            ("createFederatedCatalog", Box::new(|| uc.create_federated_catalog(&out, ms, bad, "conn").map(drop))),
        ];
        for (action, call) in calls {
            let (err, added) = refused(&w, call);
            assert!(matches!(err, UcError::PermissionDenied(_)), "{action}: {err}");
            assert_eq!(added.len(), 1, "{action}: {added:?}");
            assert_eq!((added[0].decision, added[0].action.as_str()), (AuditDecision::Deny, action));
        }
        // The same names from an authorised caller are refused as malformed.
        let err = uc.create_catalog(&Context::user(ADMIN), ms, bad).unwrap_err();
        assert!(matches!(err, UcError::InvalidArgument(_)), "{err}");
    }

    /// A policy refusal is audited under the op that was refused: an
    /// untrusted engine resolving a row-filtered table lands as one
    /// `resolveForQuery` deny.
    #[test]
    fn fgac_refusals_are_audited_under_the_calling_resolve_op() {
        let w = faulty_world();
        let (uc, ms) = (&w.uc, &w.ms);
        let admin = Context::user(ADMIN);
        uc.create_table(&admin, ms, TableSpec::managed("main.s.rf", int_schema()).unwrap()).unwrap();
        uc.grant_read_path(&admin, ms, "main.s.rf", "alice").unwrap();
        let rf = name("main.s.rf");
        uc.set_row_filter(&admin, ms, &rf, RowFilterPolicy { expr: Expr::cmp("x", CmpOp::Eq, 1i64) })
            .unwrap();
        let untrusted = Context::user("alice");
        let refs = std::slice::from_ref(&rf);

        let (err, added) = refused(&w, || uc.resolve_for_query(&untrusted, ms, refs, false).map(drop));
        assert!(matches!(&err, UcError::PermissionDenied(m) if m.contains("trusted engine")), "{err}");
        assert_eq!(added.len(), 1, "{added:?}");
        assert_eq!((added[0].decision, added[0].action.as_str()), (AuditDecision::Deny, "resolveForQuery"));
    }
}
