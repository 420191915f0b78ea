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
    use uc_catalog::audit::{AuditRecord, Reason};
    use uc_catalog::authz::abac::{AbacEffect, AbacPolicy};
    use uc_catalog::authz::fgac::RowFilterPolicy;
    use uc_catalog::authz::Privilege;
    use uc_catalog::error::{UcError, UcResult};
    use uc_catalog::ids::Uid;
    use uc_catalog::lineage::LineageDirection;
    use uc_catalog::model::entity::Entity;
    use uc_catalog::ops::Op;
    use uc_catalog::service::federation::ForeignTableMeta;
    use uc_catalog::service::rest::{ApiError, RestApi};
    use uc_catalog::types::FullName;
    use serde_json::json;
    use uc_cloudstore::{AccessLevel, RootCredential};
    use uc_delta::expr::{CmpOp, Expr};

    fn name(s: &str) -> FullName {
        FullName::parse(s).unwrap()
    }

    /// What `call` returns, and the audit records it added.
    fn trail_of<T>(uc: &UnityCatalog, call: impl FnOnce() -> T) -> (T, Vec<AuditRecord>) {
        let before = uc.audit_log().total_recorded();
        let got = call();
        let added = (uc.audit_log().total_recorded() - before) as usize;
        (got, uc.audit_log().recent(added))
    }

    /// Run `call`, which must be refused, and return the audit records it
    /// added.
    fn refused(w: &FaultyWorld, call: impl FnOnce() -> UcResult<()>) -> (UcError, Vec<AuditRecord>) {
        let (got, added) = trail_of(&w.uc, call);
        (got.expect_err("an outsider's call must be refused"), added)
    }

    /// A served call's trail is `len` records, none a `Deny`, each under
    /// an action of `op`'s own row. `None` when it is; else what it was.
    fn served_trail(op: &str, trail: &[AuditRecord], len: usize) -> Option<String> {
        let row = Op::ALL.iter().find(|row| row.name == op).expect("an op of the table");
        let foreign = |r: &AuditRecord| {
            r.decision == AuditDecision::Deny || !row.actions.contains(&r.action)
        };
        let got: Vec<_> = trail.iter().map(|r| (r.decision, r.action.as_str())).collect();
        (trail.len() != len || trail.iter().any(foreign)).then(|| format!("{op} served: trail {got:?}, pinned at {len} records"))
    }

    /// For each op that declares audit actions and takes a nameable
    /// target, a principal with no grant at all is refused with
    /// `PermissionDenied` (`NotFound` where existence is hidden) and the
    /// refusal adds exactly one record: a `Deny`, under one of that op's
    /// own actions, naming the securable it was decided on. The refused
    /// call is one api entry: no op nests another public one.
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
            ("add_lineage", Box::new(|| uc.add_lineage(&out, ms, &t, &t, None))),
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
            ("events_since", Box::new(|| uc.events_since(&out, ms, 0).map(drop))),
            ("get_entity_by_id", Box::new(|| uc.get_entity_by_id(&out, ms, &table.id).map(drop))),
            ("get_securable", Box::new(|| uc.get_table(&out, ms, "main.s.t").map(drop))),
            ("get_tags", Box::new(|| uc.get_tags(&out, ms, &t, "relation").map(drop))),
            ("grant", Box::new(|| uc.grant(&out, ms, &t, "relation", "mallory", Privilege::Select))),
            ("latest_table_version", Box::new(|| uc.latest_table_version(&out, ms, &table.id).map(drop))),
            ("list_share_tables", Box::new(|| uc.list_share_tables(&out, ms, "sh").map(drop))),
            ("lineage", Box::new(|| uc.lineage(&out, ms, &t, LineageDirection::Downstream, 3).map(drop))),
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
            ("show_grants", Box::new(|| uc.show_grants(&out, ms, &t, "relation").map(drop))),
            ("tag_update", Box::new(|| uc.set_tag(&out, ms, &t, "relation", "k", "v"))),
            ("temp_credentials", Box::new(|| uc.temp_credentials(&out, ms, &t, "relation", AccessLevel::Read).map(drop))),
            ("temp_credentials_for_path", Box::new(|| uc.temp_credentials_for_path(&out, ms, &path, AccessLevel::Read).map(drop))),
            ("transfer_ownership", Box::new(|| uc.transfer_ownership(&out, ms, &t, "relation", "mallory").map(drop))),
            ("update_comment", Box::new(|| uc.update_comment(&out, ms, &t, "relation", "hi").map(drop))),
        ];
        // Audited ops the sweep cannot reach with a refusal of their own.
        let not_swept = [
            "create_metastore",         // account-level: no authorization decision
            "list_children",            // an outsider gets the children it may see; its one refusal, a binding, is tested below
            "purge_soft_deleted",       // node-internal: no principal
            "serve_admit",              // the serving plane's shed, not a catalog entry point
        ];
        let mut covered: Vec<&str> = sweep.iter().map(|(op, _)| *op).chain(not_swept).collect();
        covered.sort_unstable();
        let audited: Vec<&str> =
            Op::ALL.iter().filter(|op| !op.actions.is_empty()).map(|op| op.name).collect();
        assert_eq!(covered, audited, "every op that declares audit actions is swept or listed");

        let calls = || uc.service_stats().api_calls.load(std::sync::atomic::Ordering::Relaxed);
        for (op, call) in sweep {
            let row = Op::ALL.iter().find(|row| row.name == op).unwrap();
            let allowed: Vec<&str> = row.actions.iter().map(|a| a.as_str()).collect();
            let calls0 = calls();
            let (err, added) = refused(&w, call);
            assert_eq!(calls() - calls0, 1, "{op}: one api entry, no nested public call");
            match op {
                "get_securable" | "get_entity_by_id" | "get_tags" | "show_grants" | "lineage" | "add_lineage" => {
                    assert!(matches!(err, UcError::NotFound(_)), "{op}: {err}")
                }
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

    /// The same refusals through the REST door: every route whose op row
    /// declares audit actions answers an outsider with 403 (404 where
    /// existence is hidden), adds exactly one `Deny` under one of that
    /// op's own actions, and is one api entry.
    #[test]
    fn every_audited_route_refuses_an_outsider_with_exactly_one_deny_under_its_own_action() {
        let w = faulty_world();
        let (uc, ms) = (&w.uc, &w.ms);
        let table = uc
            .create_table(&Context::user(ADMIN), ms, TableSpec::managed("main.s.t", int_schema()).unwrap())
            .unwrap();
        let api = RestApi::new(uc.clone());
        let out = Context::user("mallory");
        let t = json!({"name": "main.s.t"});
        let columns = json!({"fields": [{"name": "x", "data_type": "Int", "nullable": true}]});
        let grant = json!({"securable": "main.s.t", "kind_group": "relation", "grantee": "mallory", "privilege": "SELECT"});
        let sweep: Vec<(&str, serde_json::Value, &Op)> = vec![
            ("catalogs.create", json!({"name": "c2"}), Op::CREATE_CATALOG),
            ("credentials.temporary", json!({"name": "main.s.t", "operation": "READ"}), Op::TEMP_CREDENTIALS),
            ("credentials.temporary", json!({"path": table.storage_path, "operation": "READ"}), Op::TEMP_CREDENTIALS_FOR_PATH),
            ("events.list", json!({"after_version": 0}), Op::EVENTS_SINCE),
            ("grants.add", grant.clone(), Op::GRANT),
            ("grants.list", json!({"securable": "main.s.t", "kind_group": "relation"}), Op::SHOW_GRANTS),
            ("grants.revoke", grant, Op::REVOKE),
            ("iceberg.loadTable", t.clone(), Op::LOAD_TABLE_AS_ICEBERG),
            ("schemas.create", json!({"catalog": "main", "name": "s2"}), Op::CREATE_SCHEMA),
            ("securables.drop", json!({"name": "main.s.t", "kind_group": "relation"}), Op::DROP_SECURABLE),
            ("tables.create", json!({"name": "main.s.t2", "columns": columns}), Op::CREATE_TABLE),
            ("tables.get", t, Op::GET_SECURABLE),
            ("tables.resolve", json!({"names": ["main.s.t"]}), Op::RESOLVE_FOR_QUERY),
        ];
        let calls = || uc.service_stats().api_calls.load(std::sync::atomic::Ordering::Relaxed);
        for (route, params, op) in sweep {
            let allowed: Vec<&str> = op.actions.iter().map(|a| a.as_str()).collect();
            let (calls0, audits0) = (calls(), uc.audit_log().total_recorded());
            let err = api.handle(&out, ms, route, &params).expect_err("an outsider's call must be refused");
            assert_eq!(calls() - calls0, 1, "{route}: one api entry");
            let hidden = matches!(route, "tables.get" | "grants.list");
            assert_eq!(err.status, if hidden { 404 } else { 403 }, "{route}: {}", err.message);
            let added = uc.audit_log().recent((uc.audit_log().total_recorded() - audits0) as usize);
            assert_eq!(added.len(), 1, "{route}: exactly one audit record, got {added:?}");
            let rec = &added[0];
            assert_eq!((rec.decision, rec.principal.as_str()), (AuditDecision::Deny, "mallory"), "{route}");
            assert!(allowed.contains(&rec.action.as_str()), "{route}: audited as {} (allowed {allowed:?})", rec.action);
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
        let version = || uc_catalog::cache::read_ms_version(&uc.db().begin_read(), ms);
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

    /// What the binding matrix calls: the metastore admin's world with
    /// `main` (and the federated catalog `fed`) bound to `ws-a`. `main.s.t`
    /// holds a row, is in share `sh` and is downstream of `other.s.up`;
    /// `main.s.m` has a version.
    struct BoundWorld {
        w: FaultyWorld,
        main: Arc<Entity>,
        fed: Arc<Entity>,
        t: Arc<Entity>,
        up: Arc<Entity>,
        /// What each set-returning call returns before anything is bound.
        unbound: Vec<Vec<Uid>>,
    }

    type SetCall = fn(&UnityCatalog, &Uid, &Context, &BoundWorld) -> UcResult<Vec<Uid>>;

    /// The set-returning ops of the binding matrix, each as the ids it
    /// returns.
    fn set_calls() -> Vec<(&'static str, SetCall)> {
        use uc_catalog::service::discovery_api::MetaFilter;
        use uc_catalog::types::SecurableKind;
        fn ids(es: Vec<Arc<Entity>>) -> Vec<Uid> {
            es.iter().map(|e| e.id.clone()).collect()
        }
        // The batch APIs answer for `[t, up]`: the ids they say yes to.
        fn kept(b: &BoundWorld, yes: Vec<bool>) -> Vec<Uid> {
            [&b.t.id, &b.up.id].into_iter().zip(yes).filter(|(_, y)| *y).map(|(id, _)| id.clone()).collect()
        }
        vec![
            ("list_catalogs", |uc, ms, ctx, _| uc.list_catalogs(ctx, ms).map(ids)),
            ("query_entities", |uc, ms, ctx, _| uc.query_entities(ctx, ms, &[MetaFilter::KindIs(SecurableKind::Table)], 100).map(ids)),
            ("lineage", |uc, ms, ctx, _| uc.lineage(ctx, ms, &name("other.s.up"), LineageDirection::Downstream, 3).map(|s| s.into_iter().collect())),
            ("visible_batch", |uc, ms, ctx, b| uc.visible_batch(ctx, ms, &[b.t.id.clone(), b.up.id.clone()]).map(|k| kept(b, k))),
            ("authorize_batch", |uc, ms, ctx, b| {
                let checks = [(b.t.id.clone(), Privilege::Select), (b.up.id.clone(), Privilege::Select)];
                uc.authorize_batch(ctx, ms, &checks).map(|k| kept(b, k))
            }),
        ]
    }

    fn bound_world() -> BoundWorld {
        use uc_engine::{Engine, EngineConfig};
        let w = faulty_world();
        let (uc, ms) = (&w.uc, &w.ms);
        let admin = Context::user(ADMIN);
        let mut s = Engine::new(uc.clone(), ms.clone(), EngineConfig::trusted("dbr")).session(ADMIN);
        s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
        s.execute("INSERT INTO main.s.t VALUES (1)").unwrap();
        uc.create_registered_model(&admin, ms, &name("main.s.m")).unwrap();
        uc.create_model_version(&admin, ms, &name("main.s.m")).unwrap();
        uc.create_share(&admin, ms, "sh").unwrap();
        uc.add_table_to_share(&admin, ms, "sh", &name("main.s.t")).unwrap();
        uc.create_connection(&admin, ms, "conn", "thrift://hms").unwrap();
        let fed = uc.create_federated_catalog(&admin, ms, "fed", "conn").unwrap();
        uc.create_catalog(&admin, ms, "other").unwrap();
        uc.create_schema(&admin, ms, "other", "s").unwrap();
        let up = uc.create_table(&admin, ms, TableSpec::managed("other.s.up", int_schema()).unwrap()).unwrap();
        uc.add_lineage(&admin, ms, &name("other.s.up"), &name("main.s.t"), None).unwrap();
        let main = uc.get_securable(&admin, ms, &name("main"), "catalog").unwrap();
        let t = uc.get_table(&admin, ms, "main.s.t").unwrap();
        let mut b = BoundWorld { w, main, fed, t, up, unbound: Vec::new() };
        let unbound = set_calls().into_iter().map(|(_, call)| call(&b.w.uc, &b.w.ms, &admin, &b).unwrap()).collect();
        b.unbound = unbound;
        for catalog in ["main", "fed"] {
            b.w.uc.set_catalog_bindings(&admin, &b.w.ms, catalog, &["ws-a"]).unwrap();
        }
        b
    }

    /// Workspace bindings (§3.2) hold on every op. With `main` and `fed`
    /// bound to `ws-a`, the metastore admin calling from `ws-b`:
    /// - is refused by every op whose target lies in a bound catalog, with
    ///   a 403 and exactly one `Deny`, under the op's primary action,
    ///   naming that catalog (each row in a world of its own);
    /// - gets nothing of either catalog from a set-returning op, which
    ///   records nothing of its own;
    /// - is served by the ops deliberately left unbound.
    ///
    /// From `ws-a` every call returns what it returns with no binding, and
    /// its trail is pinned: the number written beside each op is how many
    /// records a served call adds, none a `Deny`, each under an action of
    /// the op's own row. So are the unbound ops', and those of the ops with
    /// no target in a catalog, called once by the admin. Every `Op::ALL`
    /// row is in one of those lists. A pin of 0 beside an op whose row has
    /// actions is a read that audits its refusals only.
    #[test]
    fn a_workspace_binding_refusal_is_one_deny_under_the_calling_op() {
        type Call<'a> = Box<dyn Fn(&UnityCatalog, &Uid, &Context, &BoundWorld) -> UcResult<()> + 'a>;
        let (t, m) = (name("main.s.t"), name("main.s.m"));
        let meta = ForeignTableMeta { name: "ft".into(), columns: int_schema(), storage_path: None, foreign_type: "hive".into() };
        let policy = AbacPolicy {
            name: "p".into(),
            tag_key: "pii".into(),
            tag_value: None,
            effect: AbacEffect::RestrictAccess { allowed_groups: vec![] },
        };
        let filter = RowFilterPolicy { expr: Expr::cmp("x", CmpOp::Eq, 1i64) };
        let single: Vec<(&str, usize, Call)> = vec![
            ("add_lineage", 1, Box::new(|uc, ms, ctx, _| uc.add_lineage(ctx, ms, &t, &t, None))),
            ("add_table_to_share", 1, Box::new(|uc, ms, ctx, _| uc.add_table_to_share(ctx, ms, "sh", &t))),
            ("bulk_create_tables", 1, Box::new(|uc, ms, ctx, _| uc.bulk_create_tables(ctx, ms, "main", &[], &int_schema(), 8).map(drop))),
            ("commit_tables_atomically", 1, Box::new(|uc, ms, ctx, b| uc.commit_table(ctx, ms, &b.t.id, 0, bytes::Bytes::new()))),
            ("create_abac_policy", 1, Box::new(|uc, ms, ctx, _| uc.create_abac_policy(ctx, ms, &name("main.s"), "schema", policy.clone()))),
            ("create_function", 1, Box::new(|uc, ms, ctx, _| uc.create_function(ctx, ms, &name("main.s.f"), "1").map(drop))),
            ("create_model_version", 1, Box::new(|uc, ms, ctx, _| uc.create_model_version(ctx, ms, &m).map(drop))),
            ("create_registered_model", 1, Box::new(|uc, ms, ctx, _| uc.create_registered_model(ctx, ms, &name("main.s.m2")).map(drop))),
            ("create_schema", 1, Box::new(|uc, ms, ctx, _| uc.create_schema(ctx, ms, "main", "s2").map(drop))),
            ("create_shallow_clone", 1, Box::new(|uc, ms, ctx, _| uc.create_shallow_clone(ctx, ms, &name("main.s.c"), &t, 0).map(drop))),
            ("create_table", 1, Box::new(|uc, ms, ctx, _| uc.create_table(ctx, ms, TableSpec::managed("main.s.t2", int_schema()).unwrap()).map(drop))),
            ("create_view", 1, Box::new(|uc, ms, ctx, _| uc.create_view(ctx, ms, &name("main.s.v"), "select 1", int_schema(), &[]).map(drop))),
            ("create_volume", 1, Box::new(|uc, ms, ctx, _| uc.create_volume(ctx, ms, &name("main.s.vol"), None).map(drop))),
            ("drop_securable", 1, Box::new(|uc, ms, ctx, _| uc.drop_securable(ctx, ms, &t, "relation").map(drop))),
            ("get_entity_by_id", 1, Box::new(|uc, ms, ctx, b| uc.get_entity_by_id(ctx, ms, &b.t.id).map(drop))),
            ("get_securable", 1, Box::new(|uc, ms, ctx, _| uc.get_table(ctx, ms, "main.s.t").map(drop))),
            ("get_tags", 1, Box::new(|uc, ms, ctx, _| uc.get_tags(ctx, ms, &t, "relation").map(drop))),
            ("grant", 1, Box::new(|uc, ms, ctx, _| uc.grant(ctx, ms, &t, "relation", "bob", Privilege::Select))),
            ("latest_table_version", 1, Box::new(|uc, ms, ctx, b| uc.latest_table_version(ctx, ms, &b.t.id).map(drop))),
            ("lineage", 1, Box::new(|uc, ms, ctx, _| uc.lineage(ctx, ms, &t, LineageDirection::Upstream, 3).map(drop))),
            ("list_children", 1, Box::new(|uc, ms, ctx, _| uc.list_children(ctx, ms, &name("main.s"), None).map(drop))),
            ("load_table_as_iceberg", 1, Box::new(|uc, ms, ctx, _| uc.load_table_as_iceberg(ctx, ms, &t).map(drop))),
            ("mirror_table", 1, Box::new(|uc, ms, ctx, _| uc.mirror_table(ctx, ms, "fed", "s", &meta).map(drop))),
            ("policy_update", 1, Box::new(|uc, ms, ctx, _| uc.set_row_filter(ctx, ms, &t, filter.clone()))),
            ("read_table_commit", 1, Box::new(|uc, ms, ctx, b| uc.read_table_commit(ctx, ms, &b.t.id, 0).map(drop))),
            ("rename_securable", 1, Box::new(|uc, ms, ctx, _| uc.rename_securable(ctx, ms, &t, "relation", "t9").map(drop))),
            ("renew_read_credential", 1, Box::new(|uc, ms, ctx, b| uc.renew_read_credential(ctx, ms, &b.t.id).map(drop))),
            ("resolve_for_query", 1, Box::new(|uc, ms, ctx, _| uc.resolve_for_query(ctx, ms, std::slice::from_ref(&t), false).map(drop))),
            ("resolve_model_version", 1, Box::new(|uc, ms, ctx, _| uc.resolve_model_version(ctx, ms, &m, 1).map(drop))),
            ("revoke", 1, Box::new(|uc, ms, ctx, _| uc.revoke(ctx, ms, &t, "relation", ADMIN, Privilege::Select))),
            ("show_grants", 1, Box::new(|uc, ms, ctx, _| uc.show_grants(ctx, ms, &t, "relation").map(drop))),
            ("tag_update", 1, Box::new(|uc, ms, ctx, _| uc.set_tag(ctx, ms, &t, "relation", "k", "v"))),
            ("temp_credentials", 1, Box::new(|uc, ms, ctx, _| uc.temp_credentials(ctx, ms, &t, "relation", AccessLevel::Read).map(drop))),
            ("temp_credentials_for_path", 1, Box::new(|uc, ms, ctx, b| {
                uc.temp_credentials_for_path(ctx, ms, b.t.storage_path.as_deref().unwrap(), AccessLevel::Read).map(drop)
            })),
            ("transfer_ownership", 1, Box::new(|uc, ms, ctx, _| uc.transfer_ownership(ctx, ms, &t, "relation", "bob").map(drop))),
            ("update_comment", 1, Box::new(|uc, ms, ctx, _| uc.update_comment(ctx, ms, &t, "relation", "hi").map(drop))),
        ];
        // Deliberately unbound: the share ops (a share's chain holds no
        // catalog; the share and the member table's data policies govern),
        // the metastore admin's change stream, and the one op that undoes a
        // binding.
        let unbound: Vec<(&str, usize, Call)> = vec![
            ("events_since", 1, Box::new(|uc, ms, ctx, _| uc.events_since(ctx, ms, 0).map(drop))),
            ("list_share_tables", 1, Box::new(|uc, ms, ctx, _| uc.list_share_tables(ctx, ms, "sh").map(drop))),
            ("query_share_table", 1, Box::new(|uc, ms, ctx, _| uc.query_share_table(ctx, ms, "sh", "s.t").map(drop))),
            ("query_share_table_as_iceberg", 1, Box::new(|uc, ms, ctx, _| uc.query_share_table_as_iceberg(ctx, ms, "sh", "s.t").map(drop))),
            ("set_catalog_bindings", 1, Box::new(|uc, ms, ctx, _| uc.set_catalog_bindings(ctx, ms, "main", &["ws-a"]))),
        ];
        // Ops with no target inside a catalog, each served to the admin.
        let cred = RootCredential { bucket: "other".into(), secret: 1 };
        let catalog_free: Vec<(&str, usize, Call)> = vec![
            ("add_metastore_admin", 1, Box::new(|uc, ms, ctx, _| uc.add_metastore_admin(ctx, ms, "bob"))),
            ("create_catalog", 1, Box::new(|uc, ms, ctx, _| uc.create_catalog(ctx, ms, "c2").map(drop))),
            ("create_connection", 1, Box::new(|uc, ms, ctx, _| uc.create_connection(ctx, ms, "conn2", "thrift://x").map(drop))),
            ("create_external_location", 1, Box::new(|uc, ms, ctx, _| uc.create_external_location(ctx, ms, "loc", "s3://lake/ext", "lake_cred").map(drop))),
            ("create_federated_catalog", 1, Box::new(|uc, ms, ctx, _| uc.create_federated_catalog(ctx, ms, "fed2", "conn").map(drop))),
            ("create_metastore", 1, Box::new(|uc, _, ctx, _| uc.create_metastore(&ctx.principal, "ms2", "us-west-2").map(drop))),
            ("create_share", 1, Box::new(|uc, ms, ctx, _| uc.create_share(ctx, ms, "sh2").map(drop))),
            ("create_storage_credential", 1, Box::new(|uc, ms, ctx, _| uc.create_storage_credential(ctx, ms, "cred2", &cred).map(drop))),
            ("get_metastore", 0, Box::new(|uc, ms, _, _| uc.get_metastore(ms).map(drop))),
            ("list_shares", 0, Box::new(|uc, ms, ctx, _| uc.list_shares(ctx, ms).map(drop))),
            ("purge_soft_deleted", 1, Box::new(|uc, ms, _, _| uc.purge_soft_deleted(ms).map(drop))),
            ("set_metastore_root", 1, Box::new(|uc, ms, ctx, _| uc.set_metastore_root(ctx, ms, "s3://lake/managed2"))),
        ];
        let sets = set_calls();
        // What the admin's served call of each set-returning op records, in
        // `set_calls` order.
        let set_trails = [0, 0, 1, 0, 0];
        let mut covered: Vec<&str> = [&single, &unbound, &catalog_free].into_iter().flatten().map(|(op, ..)| *op).collect();
        // The serving plane's shed is its one record: see below.
        covered.extend(sets.iter().map(|(op, _)| *op).chain(["serve_admit"]));
        covered.sort_unstable();
        covered.dedup();
        let all: Vec<&str> = Op::ALL.iter().map(|op| op.name).collect();
        assert_eq!(covered, all, "every op is in the matrix or has no target in a catalog");

        let (here, elsewhere) = (Context::user(ADMIN).in_workspace("ws-a"), Context::user(ADMIN).in_workspace("ws-b"));
        let mut failures: Vec<String> = Vec::new();
        for (op, len, call) in &single {
            let b = bound_world();
            let (uc, ms) = (&b.w.uc, &b.w.ms);
            let action = Op::ALL.iter().find(|row| row.name == *op).unwrap().actions[0].as_str();
            let bound = if *op == "mirror_table" { &b.fed.id } else { &b.main.id };
            let (status, added) = trail_of(uc, || call(uc, ms, &elsewhere, &b).map_err(|e| ApiError::from(e).status));
            let trail: Vec<_> = added.iter().map(|r| (r.decision, r.action.as_str(), r.securable.as_ref())).collect();
            if status != Err(403) || trail != [(AuditDecision::Deny, action, Some(bound))] {
                failures.push(format!("{op} from ws-b: {status:?}, trail {trail:?}"));
            }
            match trail_of(uc, || call(uc, ms, &here, &b)) {
                (Err(e), _) => failures.push(format!("{op} from ws-a: {e}")),
                (Ok(()), trail) => failures.extend(served_trail(op, &trail, *len)),
            }
        }
        let b = bound_world();
        let (uc, ms) = (&b.w.uc, &b.w.ms);
        let in_bound = [b.main.id.clone(), b.fed.id.clone(), b.t.id.clone()];
        for (((op, call), unbound), len) in sets.iter().zip(&b.unbound).zip(set_trails) {
            assert!(unbound.iter().any(|id| in_bound.contains(id)), "{op}: the unbound answer holds something of main");
            let audits = |ctx: &Context| trail_of(uc, || call(uc, ms, ctx, &b).unwrap());
            let ((from_a, trail_a), (from_b, trail_b)) = (audits(&here), audits(&elsewhere));
            let outside: Vec<_> = unbound.iter().filter(|id| !in_bound.contains(id)).cloned().collect();
            if &from_a != unbound || from_b != outside {
                failures.push(format!("{op}: ws-a {from_a:?}, ws-b {from_b:?}, unbound {unbound:?}"));
            }
            if trail_b.len() != trail_a.len() || trail_b.iter().any(|r| r.decision == AuditDecision::Deny) {
                failures.push(format!("{op}: ws-b recorded {trail_b:?}"));
            }
            failures.extend(served_trail(op, &trail_a, len));
        }
        for (op, len, call) in &unbound {
            match trail_of(uc, || call(uc, ms, &elsewhere, &b)) {
                (Err(e), _) => failures.push(format!("{op} from ws-b: {e}")),
                (Ok(()), trail) => failures.extend(served_trail(op, &trail, *len)),
            }
        }
        let admin = Context::user(ADMIN);
        for (op, len, call) in &catalog_free {
            match trail_of(uc, || call(uc, ms, &admin, &b)) {
                (Err(e), _) => failures.push(format!("{op}: {e}")),
                (Ok(()), trail) => failures.extend(served_trail(op, &trail, *len)),
            }
        }
        // A shed request is recorded as what it is: one `Deny`.
        let (_, shed) = trail_of(uc, || uc.audit_shed(ADMIN, "over budget"));
        let shed: Vec<_> = shed.iter().map(|r| (r.decision, r.action.as_str())).collect();
        assert_eq!(shed, [(AuditDecision::Deny, Op::SERVE_ADMIT.actions[0].as_str())]);
        assert!(failures.is_empty(), "{failures:#?}");
    }

    /// An op whose row declares no action records nothing, served or
    /// refused: for the metastore admin and for an outsider alike.
    #[test]
    fn an_op_without_actions_adds_no_record_for_an_admin_or_an_outsider() {
        use uc_catalog::service::discovery_api::MetaFilter;
        use uc_catalog::types::SecurableKind;
        let w = faulty_world();
        let (uc, ms) = (&w.uc, &w.ms);
        let table = uc
            .create_table(&Context::user(ADMIN), ms, TableSpec::managed("main.s.t", int_schema()).unwrap())
            .unwrap();
        let id = table.id.clone();
        type Call<'a> = Box<dyn Fn(&Context) -> bool + 'a>;
        let calls: Vec<(&str, Call)> = vec![
            ("authorize_batch", Box::new(|ctx| uc.authorize_batch(ctx, ms, &[(id.clone(), Privilege::Select)]).is_ok())),
            ("get_metastore", Box::new(|_| uc.get_metastore(ms).is_ok())),
            ("list_catalogs", Box::new(|ctx| uc.list_catalogs(ctx, ms).is_ok())),
            ("list_shares", Box::new(|ctx| uc.list_shares(ctx, ms).is_ok())),
            ("query_entities", Box::new(|ctx| uc.query_entities(ctx, ms, &[MetaFilter::KindIs(SecurableKind::Table)], 100).is_ok())),
            ("visible_batch", Box::new(|ctx| uc.visible_batch(ctx, ms, std::slice::from_ref(&id)).is_ok())),
        ];
        let actionless: Vec<&str> = Op::ALL.iter().filter(|op| op.actions.is_empty()).map(|op| op.name).collect();
        assert_eq!(calls.iter().map(|(op, _)| *op).collect::<Vec<_>>(), actionless);
        for (op, call) in &calls {
            for who in [ADMIN, "mallory"] {
                let (served, trail) = trail_of(uc, || call(&Context::user(who)));
                assert!(served || who != ADMIN, "{op}: the admin is served");
                assert!(trail.is_empty(), "{op} as {who}: {trail:?}");
            }
        }
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
        assert!(matches!(&err, UcError::PermissionDenied(r) if r.reason() == Reason::NeedsTrustedEngine), "{err}");
        assert_eq!(added.len(), 1, "{added:?}");
        assert_eq!((added[0].decision, added[0].action.as_str()), (AuditDecision::Deny, "resolveForQuery"));
    }

    /// The governance a data-path matrix row reads under.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Governance {
        None,
        RowFilter,
        AbacMask,
        AbacRestriction,
    }

    /// The data-policy rule holds however the data is reached. Each path
    /// that releases data or a data credential is called by `alice`, who
    /// holds every grant it needs, through an untrusted client and through
    /// a trusted engine, on table `main.s.t` (model version `main.s.m.v1`
    /// for `resolve_model_version`) under four governance states, each
    /// attached after the share was made. An ABAC restriction (to a group
    /// alice is not in) refuses both callers; a row filter or an ABAC mask
    /// alone refuses the untrusted client, and refuses the trusted engine
    /// on the two Iceberg facades, whose metadata carries files and no
    /// rule. A refusal is a 403 with its typed reason and exactly one
    /// `Deny`, under the path's own action, naming the asset; every other
    /// call succeeds.
    #[test]
    fn every_data_path_applies_one_data_policy_rule() {
        use uc_catalog::audit::Reason;
        use uc_delta::value::Value;
        use uc_engine::{Engine, EngineConfig};
        for governance in [Governance::None, Governance::RowFilter, Governance::AbacMask, Governance::AbacRestriction] {
            let w = faulty_world();
            let (uc, ms) = (&w.uc, &w.ms);
            let admin = Context::user(ADMIN);
            let mut s = Engine::new(uc.clone(), ms.clone(), EngineConfig::trusted("dbr")).session(ADMIN);
            s.execute("CREATE TABLE main.s.t (x BIGINT)").unwrap();
            s.execute("INSERT INTO main.s.t VALUES (1)").unwrap();
            let (t, m, v1) = (name("main.s.t"), name("main.s.m"), name("main.s.m.v1"));
            let table = uc.get_table(&admin, ms, "main.s.t").unwrap();
            let path = table.storage_path.clone().unwrap();
            uc.grant_read_path(&admin, ms, "main.s.t", "alice").unwrap();
            uc.create_registered_model(&admin, ms, &m).unwrap();
            let (version, _) = uc.create_model_version(&admin, ms, &m).unwrap();
            uc.grant(&admin, ms, &m, "model", "alice", Privilege::Execute).unwrap();
            uc.create_share(&admin, ms, "sh").unwrap();
            uc.add_table_to_share(&admin, ms, "sh", &t).unwrap();
            uc.grant(&admin, ms, &name("sh"), "share", "alice", Privilege::Select).unwrap();
            let effect = match governance {
                Governance::None => None,
                Governance::RowFilter => {
                    uc.set_row_filter(&admin, ms, &t, RowFilterPolicy { expr: Expr::cmp("x", CmpOp::Eq, 1i64) }).unwrap();
                    None
                }
                Governance::AbacMask => {
                    uc.set_column_tag(&admin, ms, &t, "x", "pii", "yes").unwrap();
                    let mask = Expr::Literal(Value::Null);
                    Some(("pii", AbacEffect::MaskColumns { mask, exempt_groups: vec!["privacy".into()] }))
                }
                Governance::AbacRestriction => {
                    uc.set_tag(&admin, ms, &t, "relation", "secret", "yes").unwrap();
                    uc.set_tag(&admin, ms, &v1, "modelversion", "secret", "yes").unwrap();
                    Some(("secret", AbacEffect::RestrictAccess { allowed_groups: vec!["cleared".into()] }))
                }
            };
            if let Some((tag, effect)) = effect {
                let policy = AbacPolicy { name: "p".into(), tag_key: tag.into(), tag_value: None, effect };
                uc.create_abac_policy(&admin, ms, &name("main.s"), "schema", policy).unwrap();
            }

            for ctx in [Context::user("alice"), Context::trusted("alice", "dbr")] {
                type Call<'a> = Box<dyn Fn() -> UcResult<()> + 'a>;
                let paths: Vec<(&Op, Call, &uc_catalog::ids::Uid)> = vec![
                    (Op::RESOLVE_FOR_QUERY, Box::new(|| uc.resolve_for_query(&ctx, ms, std::slice::from_ref(&t), true).map(drop)), &table.id),
                    (Op::TEMP_CREDENTIALS, Box::new(|| uc.temp_credentials(&ctx, ms, &t, "relation", AccessLevel::Read).map(drop)), &table.id),
                    (Op::TEMP_CREDENTIALS_FOR_PATH, Box::new(|| uc.temp_credentials_for_path(&ctx, ms, &path, AccessLevel::Read).map(drop)), &table.id),
                    (Op::RENEW_READ_CREDENTIAL, Box::new(|| uc.renew_read_credential(&ctx, ms, &table.id).map(drop)), &table.id),
                    (Op::LOAD_TABLE_AS_ICEBERG, Box::new(|| uc.load_table_as_iceberg(&ctx, ms, &t).map(drop)), &table.id),
                    (Op::QUERY_SHARE_TABLE, Box::new(|| uc.query_share_table(&ctx, ms, "sh", "s.t").map(drop)), &table.id),
                    (Op::QUERY_SHARE_TABLE_AS_ICEBERG, Box::new(|| uc.query_share_table_as_iceberg(&ctx, ms, "sh", "s.t").map(drop)), &table.id),
                    (Op::RESOLVE_MODEL_VERSION, Box::new(|| uc.resolve_model_version(&ctx, ms, &m, 1).map(drop)), &version.id),
                ];
                for (op, call, asset) in paths {
                    let row = format!("{} / {governance:?} / {:?}", op.name, ctx.engine);
                    let governed = match governance {
                        Governance::RowFilter | Governance::AbacMask => op.name != "resolve_model_version",
                        _ => false,
                    };
                    let iceberg = op.name.ends_with("as_iceberg");
                    let expected = match governance {
                        Governance::AbacRestriction => Some(Reason::AbacRestriction),
                        _ if governed && !ctx.is_trusted_engine() => Some(Reason::NeedsTrustedEngine),
                        _ if governed && iceberg => Some(Reason::PoliciesNotExpressible),
                        _ => None,
                    };
                    let before = uc.audit_log().total_recorded();
                    let result = call();
                    let added = uc.audit_log().recent((uc.audit_log().total_recorded() - before) as usize);
                    let Some(reason) = expected else {
                        assert!(result.is_ok(), "{row}: {:?}", result.err());
                        continue;
                    };
                    let err = result.expect_err(&row);
                    assert!(matches!(&err, UcError::PermissionDenied(r) if r.reason() == reason), "{row}: {err}");
                    assert_eq!(ApiError::from(err).status, 403, "{row}");
                    let trail: Vec<_> = added.iter().map(|r| (r.decision, r.action.as_str(), r.securable.as_ref())).collect();
                    assert_eq!(trail, [(AuditDecision::Deny, op.actions[0].as_str(), Some(asset))], "{row}");
                }
                // A trusted recipient is handed what binds the shared table.
                if ctx.is_trusted_engine() && matches!(governance, Governance::RowFilter | Governance::AbacMask) {
                    let policies = uc.query_share_table(&ctx, ms, "sh", "s.t").unwrap().policies;
                    let handed = (policies.row_filter.is_some(), !policies.column_masks.is_empty());
                    assert_eq!(handed, (governance == Governance::RowFilter, governance == Governance::AbacMask), "{governance:?}");
                }
            }
        }
    }

    /// Clearing a row filter is one `clearRowFilter` allow, and a trusted
    /// engine's next resolve is handed no filter.
    #[test]
    fn a_cleared_row_filter_is_one_allow_and_reaches_no_engine() {
        let w = faulty_world();
        let (uc, ms) = (&w.uc, &w.ms);
        let admin = Context::user(ADMIN);
        uc.create_table(&admin, ms, TableSpec::managed("main.s.rf", int_schema()).unwrap()).unwrap();
        let rf = name("main.s.rf");
        uc.set_row_filter(&admin, ms, &rf, RowFilterPolicy { expr: Expr::cmp("x", CmpOp::Eq, 1i64) })
            .unwrap();
        let engine = Context::trusted(ADMIN, "dbr");
        let row_filter = || uc.resolve_for_query(&engine, ms, std::slice::from_ref(&rf), false).unwrap()[0].fgac.row_filter.clone();
        assert!(row_filter().is_some());

        let audits0 = uc.audit_log().total_recorded();
        uc.clear_row_filter(&admin, ms, &rf).unwrap();
        let added = uc.audit_log().recent((uc.audit_log().total_recorded() - audits0) as usize);
        let actions: Vec<(AuditDecision, &str)> = added.iter().map(|r| (r.decision, r.action.as_str())).collect();
        assert_eq!(actions, [(AuditDecision::Allow, "clearRowFilter")]);
        assert_eq!(row_filter(), None);
    }

    /// `add_lineage` decides both endpoints itself: a caller who can see
    /// the upstream but not the downstream is refused with one `Deny` under
    /// `addLineage`, and nothing is recorded under `getSecurable` — there
    /// is no nested request.
    #[test]
    fn a_refused_add_lineage_is_one_deny_under_its_own_action() {
        let w = faulty_world();
        let (uc, ms) = (&w.uc, &w.ms);
        let admin = Context::user(ADMIN);
        uc.create_catalog(&admin, ms, "other").unwrap();
        uc.create_schema(&admin, ms, "other", "s").unwrap();
        for t in ["main.s.up", "other.s.down"] {
            uc.create_table(&admin, ms, TableSpec::managed(t, int_schema()).unwrap()).unwrap();
        }
        uc.grant_read_path(&admin, ms, "main.s.up", "alice").unwrap();
        let alice = Context::user("alice");
        let (err, added) = refused(&w, || uc.add_lineage(&alice, ms, &name("main.s.up"), &name("other.s.down"), None));
        assert!(matches!(err, UcError::NotFound(_)), "{err}");
        let actions: Vec<(AuditDecision, &str)> = added.iter().map(|r| (r.decision, r.action.as_str())).collect();
        assert_eq!(actions, [(AuditDecision::Deny, "addLineage")]);
        let calls = uc.service_stats().api_calls.load(std::sync::atomic::Ordering::Relaxed);
        uc.add_lineage(&admin, ms, &name("main.s.up"), &name("other.s.down"), None).unwrap();
        assert_eq!(uc.service_stats().api_calls.load(std::sync::atomic::Ordering::Relaxed) - calls, 1, "one api entry");
    }

    /// An allowed `get_tags` or `lineage` is one api entry and one `Allow`
    /// under the op's own `getSecurable` action: no nested `get_securable`
    /// request. (The sweep above covers their refusals.)
    #[test]
    fn an_allowed_get_tags_or_lineage_is_one_api_entry() {
        let w = faulty_world();
        let (uc, ms) = (&w.uc, &w.ms);
        let admin = Context::user(ADMIN);
        uc.create_table(&admin, ms, TableSpec::managed("main.s.t", int_schema()).unwrap()).unwrap();
        let t = name("main.s.t");
        let calls = || uc.service_stats().api_calls.load(std::sync::atomic::Ordering::Relaxed);
        type Call<'a> = Box<dyn Fn() -> UcResult<()> + 'a>;
        let ops: Vec<(&str, Call)> = vec![
            ("get_tags", Box::new(|| uc.get_tags(&admin, ms, &t, "relation").map(drop))),
            ("lineage", Box::new(|| uc.lineage(&admin, ms, &t, LineageDirection::Upstream, 3).map(drop))),
        ];
        for (op, call) in ops {
            let (calls0, audits0) = (calls(), uc.audit_log().total_recorded());
            call().unwrap();
            assert_eq!(calls() - calls0, 1, "{op}: one api entry");
            let added = uc.audit_log().recent((uc.audit_log().total_recorded() - audits0) as usize);
            let actions: Vec<(AuditDecision, &str)> = added.iter().map(|r| (r.decision, r.action.as_str())).collect();
            assert_eq!(actions, [(AuditDecision::Allow, "getSecurable")], "{op}");
        }
    }
}
