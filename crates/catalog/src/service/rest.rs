//! The open REST-style API facade.
//!
//! Unity Catalog's interoperability story (§1, §4.1) rests on *open,
//! well-defined APIs*: any client that can form a JSON request — a BI
//! tool, a UI, an engine in another language — can drive the catalog
//! without linking against it. This module is that wire surface: a
//! transport-agnostic dispatcher mapping `(method, JSON params)` to the
//! service API, with JSON responses and structured errors carrying
//! HTTP-style status codes.
//!
//! The dispatcher is deliberately thin: every request arrives with the
//! caller's [`Context`] (what the `principal`, `engine`, `trusted` and
//! `workspace` headers say), is translated, delegated to the typed API
//! (which performs all authorization and counts the request under its
//! op's `catalog.{op}.count`), and serialized back. No governance logic
//! lives here. Each route is declared once, as an arm of
//! `RestApi::dispatch`; each error status is chosen once, in
//! `From<UcError> for ApiError`.

use std::sync::Arc;

use serde_json::Value as Json;
use uc_cloudstore::TempCredential;

use crate::authz::Privilege;
use crate::error::{UcError, UcResult};
use crate::events::{EventPage, MetadataChangeEvent};
use crate::ids::Uid;
use crate::model::entity::{props, Entity};
use crate::service::crud::TableSpec;
use crate::service::resolve::ResolvedSecurable;
use crate::service::{Context, UnityCatalog};
use crate::types::{FullName, TableFormat, TableType};

/// A structured API error: HTTP-ish status plus message.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    pub status: u16,
    pub message: String,
}

/// The status table: every error reply is built here, from the typed
/// error the request met.
impl From<UcError> for ApiError {
    fn from(e: UcError) -> Self {
        let status = match &e {
            UcError::InvalidArgument(_) | UcError::UnsupportedOperation(_) => 400,
            UcError::PermissionDenied(_) => 403,
            UcError::NotFound(_) => 404,
            UcError::AlreadyExists(_) | UcError::PathConflict { .. } => 409,
            UcError::CommitConflict { .. } => 409,
            UcError::ResourceExhausted(_) => 429,
            UcError::Database(_) | UcError::Storage(_) | UcError::Federation(_) => 500,
            UcError::Unavailable(_) => 503,
        };
        ApiError { status, message: e.to_string() }
    }
}

/// The caller of a request, as its headers identify it: a [`Context`].
/// The alias keeps the name wire clients already use.
pub type RequestAuth = Context;

/// A reply object: `fields` in order, built at their exact number. Every
/// reply is assembled from parts moved in; the JSON macro would render
/// each finished subtree it is handed by copying it.
fn object<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The wire representation of an entity.
fn entity_json(e: &Entity) -> Json {
    object([
        ("id", e.id.as_str().into()),
        ("kind", e.kind.as_str().into()),
        ("name", e.name.as_str().into()),
        ("owner", e.owner.as_str().into()),
        ("comment", e.comment.as_deref().into()),
        ("storage_path", e.storage_path.as_deref().into()),
        ("table_type", e.table_type().map(TableType::as_str).into()),
        ("format", e.table_format().map(TableFormat::as_str).into()),
        ("created_at_ms", e.created_at_ms.into()),
        ("updated_at_ms", e.updated_at_ms.into()),
        ("grants", grants_json(&e.grants)),
    ])
}

fn grants_json(grants: &[(String, Privilege)]) -> Json {
    grants.iter().map(|(g, p)| object([("grantee", g.as_str().into()), ("privilege", p.as_str().into())])).collect()
}

/// The reply of `grants.list`.
fn grants_reply(grants: &[(String, Privilege)]) -> Json {
    object([("grants", grants_json(grants))])
}

/// The reply of the listing routes: the entities under `key`.
fn list_reply(key: &str, list: &[Arc<Entity>]) -> Json {
    object([(key, list.iter().map(|e| entity_json(e)).collect())])
}

/// The reply of `events.list`.
fn events_reply(page: &EventPage) -> Json {
    let event = |e: &MetadataChangeEvent| {
        object([
            ("entity_id", e.entity_id.as_str().into()),
            ("kind", e.kind.as_str().into()),
            ("name", e.name.as_str().into()),
            ("op", format!("{:?}", e.op).into()),
            ("at_version", e.at_version.into()),
        ])
    };
    object([
        ("next_version", page.next_version.into()),
        ("resync", page.resync.into()),
        ("events", page.events.iter().map(event).collect()),
    ])
}

/// The reply of `credentials.temporary`.
fn credential_reply(token: &TempCredential) -> Json {
    let access = match token.access {
        uc_cloudstore::AccessLevel::Read => "READ",
        uc_cloudstore::AccessLevel::ReadWrite => "READ_WRITE",
    };
    object([
        ("scope", token.scope.to_string().into()),
        ("access", access.into()),
        ("expires_at_ms", token.expires_at_ms.into()),
        ("nonce", token.nonce.into()),
        ("signature", token.signature.into()),
    ])
}

fn str_param<'a>(params: &'a Json, key: &str) -> UcResult<&'a str> {
    params
        .get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| UcError::InvalidArgument(format!("missing string parameter '{key}'")))
}

fn name_param(params: &Json, key: &str) -> UcResult<FullName> {
    FullName::parse(str_param(params, key)?)
}

/// A REST endpoint bound to one catalog node.
pub struct RestApi {
    uc: Arc<UnityCatalog>,
}

/// The `names` / `with_credentials` parameters of the resolve routes.
fn resolve_params(params: &Json) -> UcResult<(Vec<FullName>, bool)> {
    let names = params
        .get("names")
        .and_then(|v| v.as_array())
        .ok_or_else(|| UcError::InvalidArgument("missing 'names' array".into()))?;
    let mut refs = Vec::with_capacity(names.len());
    for n in names {
        let s = n.as_str().ok_or_else(|| UcError::InvalidArgument("names must be strings".into()))?;
        refs.push(FullName::parse(s)?);
    }
    let want_creds = params
        .get("with_credentials")
        .and_then(|v| v.as_bool())
        .unwrap_or(false);
    Ok((refs, want_creds))
}

/// The reply of the resolve routes.
fn resolved_json(resolved: &[ResolvedSecurable]) -> Json {
    let securable = |r: &ResolvedSecurable| {
        object([
            ("entity", entity_json(&r.entity)),
            ("has_row_filter", r.fgac.row_filter.is_some().into()),
            ("masked_columns", r.fgac.column_masks.iter().map(|m| m.column.as_str()).collect()),
            ("dependencies", r.dependencies.iter().map(|d| d.entity.name.as_str()).collect()),
            ("has_credential", r.read_credential.is_some().into()),
        ])
    };
    object([("securables", resolved.iter().map(securable).collect())])
}

impl RestApi {
    pub fn new(uc: Arc<UnityCatalog>) -> Self {
        RestApi { uc }
    }

    /// Dispatch one request. `method` mirrors the REST route (e.g.
    /// `catalogs.create`, `tables.get`); `params` is the request body.
    pub fn handle(
        &self,
        ctx: &Context,
        ms: &Uid,
        method: &str,
        params: &Json,
    ) -> Result<Json, ApiError> {
        let mut span = self.uc.obs().span("rest", method);
        let result = self.dispatch(ctx, ms, method, params).map_err(ApiError::from);
        if let Err(e) = &result {
            span.set_status(if e.status >= 500 { "error" } else { "client_error" });
        }
        result
    }

    fn dispatch(&self, ctx: &Context, ms: &Uid, method: &str, params: &Json) -> UcResult<Json> {
        match method {
            "catalogs.create" => {
                let e = self.uc.create_catalog(ctx, ms, str_param(params, "name")?)?;
                Ok(entity_json(&e))
            }
            "catalogs.list" => {
                let list = self.uc.list_catalogs(ctx, ms)?;
                Ok(list_reply("catalogs", &list))
            }
            "schemas.create" => {
                let e = self.uc.create_schema(
                    ctx,
                    ms,
                    str_param(params, "catalog")?,
                    str_param(params, "name")?,
                )?;
                Ok(entity_json(&e))
            }
            "tables.create" => {
                let name = name_param(params, "name")?;
                let columns: uc_delta::value::Schema = serde_json::from_value(
                    params.get("columns").cloned().unwrap_or(Json::Null),
                )
                .map_err(|e| UcError::InvalidArgument(format!("bad columns: {e}")))?;
                let format = params
                    .get("format")
                    .and_then(|v| v.as_str())
                    .map(|s| TableFormat::parse(s).ok_or_else(|| UcError::InvalidArgument(format!("bad format {s}"))))
                    .transpose()?
                    .unwrap_or(TableFormat::Delta);
                let location = params.get("location").and_then(|v| v.as_str());
                let spec = TableSpec {
                    name,
                    columns,
                    format,
                    table_type: if location.is_some() { TableType::External } else { TableType::Managed },
                    storage_path: location.map(|s| s.to_string()),
                    foreign_type: None,
                };
                let e = self.uc.create_table(ctx, ms, spec)?;
                Ok(entity_json(&e))
            }
            "tables.get" => {
                let e = self.uc.get_table(ctx, ms, str_param(params, "name")?)?;
                Ok(entity_json(&e))
            }
            "tables.list" => {
                let parent = name_param(params, "schema")?;
                let list = self.uc.list_children(ctx, ms, &parent, Some("relation"))?;
                Ok(list_reply("tables", &list))
            }
            "securables.drop" => {
                let name = name_param(params, "name")?;
                let group = str_param(params, "kind_group")?;
                let dropped = self.uc.drop_securable(ctx, ms, &name, group)?;
                Ok(object([("dropped", dropped.into())]))
            }
            "grants.add" | "grants.revoke" => {
                let name = name_param(params, "securable")?;
                let group = str_param(params, "kind_group")?;
                let grantee = str_param(params, "grantee")?;
                let privilege = crate::authz::Privilege::parse(str_param(params, "privilege")?)
                    .ok_or_else(|| UcError::InvalidArgument("unknown privilege".into()))?;
                if method == "grants.add" {
                    self.uc.grant(ctx, ms, &name, group, grantee, privilege)?;
                } else {
                    self.uc.revoke(ctx, ms, &name, group, grantee, privilege)?;
                }
                Ok(object([("ok", true.into())]))
            }
            "grants.list" => {
                let name = name_param(params, "securable")?;
                let group = str_param(params, "kind_group")?;
                let grants = self.uc.show_grants(ctx, ms, &name, group)?;
                Ok(grants_reply(&grants))
            }
            "credentials.temporary" => {
                let access = match str_param(params, "operation")? {
                    "READ" => uc_cloudstore::AccessLevel::Read,
                    "READ_WRITE" => uc_cloudstore::AccessLevel::ReadWrite,
                    other => return Err(UcError::InvalidArgument(format!("bad operation {other}"))),
                };
                let token = if let Some(path) = params.get("path").and_then(|v| v.as_str()) {
                    self.uc.temp_credentials_for_path(ctx, ms, path, access)?
                } else {
                    let name = name_param(params, "name")?;
                    let group = params
                        .get("kind_group")
                        .and_then(|v| v.as_str())
                        .unwrap_or("relation");
                    self.uc.temp_credentials(ctx, ms, &name, group, access)?
                };
                Ok(credential_reply(&token))
            }
            "tables.resolve" => {
                let (refs, want_creds) = resolve_params(params)?;
                Ok(resolved_json(&self.uc.resolve_for_query(ctx, ms, &refs, want_creds)?))
            }
            "events.list" => {
                let after = params.get("after_version").and_then(|v| v.as_u64()).unwrap_or(0);
                let page = self.uc.events_since(ctx, ms, after)?;
                Ok(events_reply(&page))
            }
            "metrics.snapshot" => Ok(object([("snapshot", self.uc.metrics_snapshot().into())])),
            "metrics.flightrecorder" => {
                // Serve the existing frozen dump if a trigger already
                // fired; otherwise freeze now so the operator always gets
                // the most recent window of events.
                let jsonl = match self.uc.obs().flight_jsonl() {
                    Some(j) => j,
                    None => self.uc.flight_freeze("rest.request"),
                };
                Ok(object([("jsonl", jsonl.into()), ("chrome_trace", self.uc.obs().flight_chrome_trace().into())]))
            }
            "metastore.summary" => {
                let e = self.uc.get_metastore(ms)?;
                Ok(object([
                    ("id", e.id.as_str().into()),
                    ("name", e.name.as_str().into()),
                    ("region", e.properties.get(props::REGION).map(String::as_str).into()),
                    ("admins", e.governance().admins.iter().map(String::as_str).collect()),
                ]))
            }
            "iceberg.loadTable" => {
                let name = name_param(params, "name")?;
                let meta = self.uc.load_table_as_iceberg(ctx, ms, &name)?;
                serde_json::to_value(meta).map_err(|e| UcError::Database(e.to_string()))
            }
            other => Err(UcError::NotFound(format!("unknown method {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::keys::{self, T_TREE};
    use crate::service::UcConfig;
    use crate::types::SecurableKind;
    use serde_json::json;
    use uc_cloudstore::faults::{points, FaultMode, FaultPlan};
    use uc_cloudstore::{Clock, LatencyModel, ObjectStore, StsService};
    use uc_txdb::{Db, DbConfig};

    fn setup() -> (RestApi, Uid, Context) {
        setup_with(FaultPlan::disabled())
    }

    /// A node whose every layer consults `faults`, with a metastore and
    /// its managed-storage root.
    fn setup_with(faults: FaultPlan) -> (RestApi, Uid, Context) {
        let sts = StsService::new(Clock::manual(0)).with_faults(faults.clone());
        let store = ObjectStore::with_faults(sts, LatencyModel::zero(), faults.clone());
        let db = Db::new(DbConfig { faults: faults.clone(), ..Default::default() });
        let uc = UnityCatalog::new(db, store.clone(), UcConfig { faults, ..Default::default() }, "node-0");
        let ms = uc.create_metastore("admin", "prod", "us").unwrap();
        let root = store.create_bucket("lake");
        let ctx = Context::user("admin");
        uc.create_storage_credential(&ctx, &ms, "cred", &root).unwrap();
        uc.set_metastore_root(&ctx, &ms, "s3://lake/root").unwrap();
        (RestApi::new(uc), ms, ctx)
    }

    fn columns_json() -> Json {
        json!({"fields": [{"name": "x", "data_type": "Int", "nullable": true}]})
    }

    #[test]
    fn full_crud_flow_over_the_wire() {
        let (api, ms, admin) = setup();
        api.handle(&admin, &ms, "catalogs.create", &json!({"name": "main"})).unwrap();
        api.handle(&admin, &ms, "schemas.create", &json!({"catalog": "main", "name": "s"})).unwrap();
        let t = api
            .handle(&admin, &ms, "tables.create", &json!({
                "name": "main.s.t",
                "columns": columns_json(),
            }))
            .unwrap();
        assert_eq!(t["kind"], "TABLE");
        assert_eq!(t["table_type"], "MANAGED");
        let got = api.handle(&admin, &ms, "tables.get", &json!({"name": "main.s.t"})).unwrap();
        assert_eq!(got["id"], t["id"]);
        let listed = api.handle(&admin, &ms, "tables.list", &json!({"schema": "main.s"})).unwrap();
        assert_eq!(listed["tables"].as_array().unwrap().len(), 1);
        let dropped = api
            .handle(&admin, &ms, "securables.drop", &json!({"name": "main.s.t", "kind_group": "relation"}))
            .unwrap();
        assert_eq!(dropped["dropped"], 1);
    }

    /// Every error reply's status comes from the one table in
    /// `From<UcError> for ApiError`: the caller's mistakes (400 – 409), a
    /// corrupt row (500) — including a row whose governance metadata does
    /// not decode, which must never be served as a table with no row
    /// filter, nor vended to an untrusted caller — and — under a seeded
    /// fault plan — a transient
    /// failure at each layer below the door (503): the database refusing
    /// every commit past the write's retry budget, the STS mint, the vend
    /// itself, the object store's listing. Each outage heals when its
    /// point is disarmed.
    #[test]
    fn errors_carry_http_style_statuses() {
        let plan = FaultPlan::seeded(29);
        let (api, ms, admin) = setup_with(plan.clone());
        api.handle(&admin, &ms, "catalogs.create", &json!({"name": "main"})).unwrap();
        api.handle(&admin, &ms, "schemas.create", &json!({"catalog": "main", "name": "s"})).unwrap();
        api.handle(&admin, &ms, "tables.create", &json!({"name": "main.s.t", "columns": columns_json()}))
            .unwrap();
        // A row no decoder accepts, at a name nothing has cached.
        let mut key = keys::tree_ms_prefix(&ms);
        for (group, leaf) in [("catalog", "main"), ("schema", "s"), ("relation", "corrupt")] {
            keys::tree_push_child(&mut key, group, leaf);
        }
        let mut tx = api.uc.db().begin_write();
        tx.put(T_TREE, &key, bytes::Bytes::from_static(b"not an entity"));
        // `t`'s row, under another name, with a row filter that is not an
        // expression.
        let mut t_key = keys::tree_ms_prefix(&ms);
        for (group, leaf) in [("catalog", "main"), ("schema", "s"), ("relation", "t")] {
            keys::tree_push_child(&mut t_key, group, leaf);
        }
        let row = String::from_utf8(tx.get(T_TREE, &t_key).unwrap().to_vec()).unwrap();
        let bad = r#""governance":{"admins":[],"workspace_bindings":[],"tags":{},"column_tags":{},"fgac":{"row_filter":"owner = current_user()","column_masks":[]},"abac":{}}"#;
        assert!(row.contains(r#""governance":null"#), "{row}");
        let ungoverned = row.replace(r#""governance":null"#, bad);
        tx.put(T_TREE, &key.replace("corrupt", "ungoverned"), ungoverned.into_bytes().into());
        tx.commit().unwrap();

        let nobody = Context::user("nobody");
        let read = json!({"name": "main.s.t", "operation": "READ"});
        let new_table = json!({"name": "main.s.u", "columns": columns_json()});
        let cases: Vec<(&Context, &str, Json, Option<&str>, u16)> = vec![
            (&admin, "nope", json!({}), None, 404),
            (&admin, "catalogs.create", json!({}), None, 400),
            (&admin, "credentials.temporary", json!({"name": "main.s.t", "operation": "WRITE"}), None, 400),
            (&nobody, "catalogs.create", json!({"name": "other"}), None, 403),
            (&admin, "tables.get", json!({"name": "main.x.y"}), None, 404),
            (&admin, "catalogs.create", json!({"name": "main"}), None, 409),
            (&admin, "tables.get", json!({"name": "main.s.corrupt"}), None, 500),
            (&admin, "tables.get", json!({"name": "main.s.ungoverned"}), None, 500),
            (&admin, "tables.resolve", json!({"names": ["main.s.ungoverned"], "with_credentials": true}), None, 500),
            (&admin, "tables.create", new_table, Some(points::TXDB_COMMIT_UNAVAILABLE), 503),
            (&admin, "credentials.temporary", read.clone(), Some(points::STS_MINT), 503),
            (&admin, "credentials.temporary", read, Some(points::CATALOG_VEND), 503),
            (&admin, "iceberg.loadTable", json!({"name": "main.s.t"}), Some(points::STORE_LIST), 503),
        ];
        for (who, method, params, fault, status) in cases {
            if let Some(point) = fault {
                plan.arm(point, FaultMode::FirstN(1000));
            }
            let err = api.handle(who, &ms, method, &params).unwrap_err();
            assert_eq!(err.status, status, "{method} under {fault:?}: {}", err.message);
            if let Some(point) = fault {
                plan.disarm(point);
                let healed = api.handle(who, &ms, method, &params).map_err(|e| e.status);
                assert_ne!(healed, Err(503), "{method} heals once {point} is disarmed");
            }
        }
    }

    #[test]
    fn grants_and_credentials_over_the_wire() {
        let (api, ms, admin) = setup();
        api.handle(&admin, &ms, "catalogs.create", &json!({"name": "main"})).unwrap();
        api.handle(&admin, &ms, "schemas.create", &json!({"catalog": "main", "name": "s"})).unwrap();
        api.handle(&admin, &ms, "tables.create", &json!({"name": "main.s.t", "columns": columns_json()}))
            .unwrap();
        for (securable, group, privilege) in [
            ("main", "catalog", "USE CATALOG"),
            ("main.s", "schema", "USE SCHEMA"),
            ("main.s.t", "relation", "SELECT"),
        ] {
            api.handle(&admin, &ms, "grants.add", &json!({
                "securable": securable, "kind_group": group,
                "grantee": "alice", "privilege": privilege,
            }))
            .unwrap();
        }
        let grants = api
            .handle(&admin, &ms, "grants.list", &json!({"securable": "main.s.t", "kind_group": "relation"}))
            .unwrap();
        assert_eq!(grants["grants"][0]["grantee"], "alice");

        // alice vends a read token over the wire
        let alice = Context::user("alice");
        let tok = api
            .handle(&alice, &ms, "credentials.temporary", &json!({"name": "main.s.t", "operation": "READ"}))
            .unwrap();
        assert!(tok["scope"].as_str().unwrap().starts_with("s3://lake/root/tables/"));
        // …but not a write token
        assert_eq!(
            api.handle(&alice, &ms, "credentials.temporary", &json!({"name": "main.s.t", "operation": "READ_WRITE"}))
                .unwrap_err()
                .status,
            403
        );
        // revoke closes access
        api.handle(&admin, &ms, "grants.revoke", &json!({
            "securable": "main.s.t", "kind_group": "relation",
            "grantee": "alice", "privilege": "SELECT",
        }))
        .unwrap();
        assert_eq!(
            api.handle(&alice, &ms, "credentials.temporary", &json!({"name": "main.s.t", "operation": "READ"}))
                .unwrap_err()
                .status,
            403
        );
    }

    #[test]
    fn batched_resolve_and_events_over_the_wire() {
        let (api, ms, admin) = setup();
        api.handle(&admin, &ms, "catalogs.create", &json!({"name": "main"})).unwrap();
        api.handle(&admin, &ms, "schemas.create", &json!({"catalog": "main", "name": "s"})).unwrap();
        api.handle(&admin, &ms, "tables.create", &json!({"name": "main.s.a", "columns": columns_json()}))
            .unwrap();
        api.handle(&admin, &ms, "tables.create", &json!({"name": "main.s.b", "columns": columns_json()}))
            .unwrap();
        let resolved = api
            .handle(&admin, &ms, "tables.resolve", &json!({
                "names": ["main.s.a", "main.s.b"],
                "with_credentials": true,
            }))
            .unwrap();
        let securables = resolved["securables"].as_array().unwrap();
        assert_eq!(securables.len(), 2);
        assert_eq!(securables[0]["has_credential"], true);

        let events = api.handle(&admin, &ms, "events.list", &json!({"after_version": 0})).unwrap();
        let listed = events["events"].as_array().unwrap();
        assert!(listed.len() >= 4);
        assert_eq!(events["resync"], false);
        let next = events["next_version"].as_u64().unwrap();
        assert_eq!(listed.last().unwrap()["at_version"].as_u64(), Some(next), "a position is a version");
        let empty = api.handle(&admin, &ms, "events.list", &json!({"after_version": next})).unwrap();
        assert!(empty["events"].as_array().unwrap().is_empty());
        assert_eq!(empty["next_version"].as_u64(), Some(next));
    }

    /// The snapshot route serves the node's one registry, and the door
    /// itself adds nothing to it: a stream of made-up methods is a stream
    /// of 404s that leaves every series as it was.
    #[test]
    fn metrics_endpoint_reflects_api_traffic() {
        let (api, ms, admin) = setup();
        api.handle(&admin, &ms, "catalogs.create", &json!({"name": "main"})).unwrap();
        let snapshot = || api.handle(&admin, &ms, "metrics.snapshot", &json!({})).unwrap()["snapshot"].clone();
        let text = snapshot();
        let text = text.as_str().unwrap();
        assert!(text.starts_with("# uc-obs metrics snapshot"));
        assert!(text.contains("catalog.create_catalog.count"), "snapshot:\n{text}");
        assert_eq!(text, api.uc.metrics_snapshot());
        for i in 0..100 {
            let err = api.handle(&admin, &ms, &format!("made.up.{i}"), &json!({})).unwrap_err();
            assert_eq!(err.status, 404);
        }
        assert_eq!(snapshot(), text, "unknown methods register nothing");
    }

    /// A table with fixed ids and times, a comment that needs escaping, a
    /// storage path and two grants.
    fn fixed_table() -> Entity {
        let mut e = Entity::new(SecurableKind::Table, "t", Some(Uid::from("s-1")), Uid::from("ms-1"), "alice", 1_000);
        e.id = Uid::from("t-1");
        e.comment = Some("daily \"sales\"".into());
        e.storage_path = Some("s3://lake/managed/t".into());
        e.properties.insert(props::TABLE_TYPE.into(), TableType::Managed.as_str().into());
        e.properties.insert(props::FORMAT.into(), TableFormat::Delta.as_str().into());
        e.updated_at_ms = 2_000;
        e.add_grant("bob", Privilege::Select);
        e.add_grant("analysts", Privilege::Modify);
        e
    }

    /// An entity of `kind` with no comment, storage, properties or grants.
    fn fixed_bare(kind: SecurableKind, id: &str, name: &str) -> Arc<Entity> {
        let mut e = Entity::new(kind, name, None, Uid::from("ms-1"), "admin", 500);
        e.id = Uid::from(id);
        Arc::new(e)
    }

    fn fixed_token(access: uc_cloudstore::AccessLevel) -> TempCredential {
        TempCredential {
            scope: uc_cloudstore::StoragePath::parse("s3://lake/managed/t").unwrap(),
            access,
            expires_at_ms: 3_600_000,
            nonce: 42,
            signature: u64::MAX - 1,
        }
    }

    /// Each reply builder prints, byte for byte and in key order, the text
    /// the `json!` builders it replaced printed for the same inputs.
    #[test]
    fn reply_builders_print_their_golden_text() {
        use crate::authz::fgac::FgacPolicies;
        use crate::authz::{ColumnMaskPolicy, RowFilterPolicy};
        use crate::events::{ChangeOp, MetadataChangeEvent};
        use uc_cloudstore::AccessLevel;
        use uc_delta::expr::{CmpOp, Expr};

        let table = Arc::new(fixed_table());
        let view = fixed_bare(SecurableKind::View, "v-1", "v");
        let filtered = ResolvedSecurable {
            entity: table.clone(),
            schema: None,
            fgac: FgacPolicies {
                row_filter: Some(RowFilterPolicy { expr: Expr::cmp("x", CmpOp::Gt, 0i64) }),
                column_masks: vec![ColumnMaskPolicy {
                    column: "y".into(),
                    mask: Expr::Literal(uc_delta::value::Value::Null),
                    exempt_when: None,
                }],
            },
            dependencies: Vec::new(),
            read_credential: Some(fixed_token(AccessLevel::Read)),
        };
        let resolved = [
            ResolvedSecurable {
                entity: view,
                schema: None,
                fgac: FgacPolicies::default(),
                dependencies: vec![filtered.clone()],
                read_credential: None,
            },
            filtered,
        ];
        let event = |id: &str, op: ChangeOp, at_version: u64| MetadataChangeEvent {
            metastore: Uid::from("ms-1"),
            entity_id: Uid::from(id),
            kind: SecurableKind::Table,
            name: "t".into(),
            op,
            at_version,
            timestamp_ms: 9_000,
        };
        let page = EventPage {
            events: vec![event("t-1", ChangeOp::Create, 7), event("t-1", ChangeOp::GrantChange, 8)],
            next_version: 8,
            resync: false,
        };
        let catalogs = [fixed_bare(SecurableKind::Catalog, "c-1", "main"), fixed_bare(SecurableKind::Catalog, "c-2", "dev")];
        let cases = [
            ("entity_json", entity_json(&table), r#"{"id":"t-1","kind":"TABLE","name":"t","owner":"alice","comment":"daily \"sales\"","storage_path":"s3://lake/managed/t","table_type":"MANAGED","format":"DELTA","created_at_ms":1000,"updated_at_ms":2000,"grants":[{"grantee":"bob","privilege":"SELECT"},{"grantee":"analysts","privilege":"MODIFY"}]}"#),
            ("resolved_json", resolved_json(&resolved), r#"{"securables":[{"entity":{"id":"v-1","kind":"VIEW","name":"v","owner":"admin","comment":null,"storage_path":null,"table_type":null,"format":null,"created_at_ms":500,"updated_at_ms":500,"grants":[]},"has_row_filter":false,"masked_columns":[],"dependencies":["t"],"has_credential":false},{"entity":{"id":"t-1","kind":"TABLE","name":"t","owner":"alice","comment":"daily \"sales\"","storage_path":"s3://lake/managed/t","table_type":"MANAGED","format":"DELTA","created_at_ms":1000,"updated_at_ms":2000,"grants":[{"grantee":"bob","privilege":"SELECT"},{"grantee":"analysts","privilege":"MODIFY"}]},"has_row_filter":true,"masked_columns":["y"],"dependencies":[],"has_credential":true}]}"#),
            ("grants.list", grants_reply(&table.grants), r#"{"grants":[{"grantee":"bob","privilege":"SELECT"},{"grantee":"analysts","privilege":"MODIFY"}]}"#),
            ("catalogs.list", list_reply("catalogs", &catalogs), r#"{"catalogs":[{"id":"c-1","kind":"CATALOG","name":"main","owner":"admin","comment":null,"storage_path":null,"table_type":null,"format":null,"created_at_ms":500,"updated_at_ms":500,"grants":[]},{"id":"c-2","kind":"CATALOG","name":"dev","owner":"admin","comment":null,"storage_path":null,"table_type":null,"format":null,"created_at_ms":500,"updated_at_ms":500,"grants":[]}]}"#),
            ("events.list", events_reply(&page), r#"{"next_version":8,"resync":false,"events":[{"entity_id":"t-1","kind":"TABLE","name":"t","op":"Create","at_version":7},{"entity_id":"t-1","kind":"TABLE","name":"t","op":"GrantChange","at_version":8}]}"#),
            ("credentials.temporary READ", credential_reply(&fixed_token(AccessLevel::Read)), r#"{"scope":"s3://lake/managed/t","access":"READ","expires_at_ms":3600000,"nonce":42,"signature":18446744073709551614}"#),
            ("credentials.temporary READ_WRITE", credential_reply(&fixed_token(AccessLevel::ReadWrite)), r#"{"scope":"s3://lake/managed/t","access":"READ_WRITE","expires_at_ms":3600000,"nonce":42,"signature":18446744073709551614}"#),
        ];
        for (what, reply, golden) in cases {
            let text = serde_json::to_string(&reply).unwrap();
            assert_eq!(text, golden, "{what}");
        }
    }
}
