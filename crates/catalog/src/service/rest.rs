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
//! The dispatcher is deliberately thin: every request is authenticated by
//! headers (`principal`, `engine`, `trusted`, `workspace`), translated,
//! delegated to the typed API (which performs all authorization), and
//! serialized back. No governance logic lives here.

use serde_json::{json, Value as Json};

use crate::error::UcError;
use crate::ids::Uid;
use crate::model::entity::Entity;
use crate::service::crud::TableSpec;
use crate::service::resolve::ResolvedSecurable;
use crate::service::{Context, EngineIdentity, UnityCatalog};
use crate::types::{FullName, SecurableKind, TableFormat, TableType};

/// A structured API error: HTTP-ish status plus message.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    pub status: u16,
    pub message: String,
}

impl From<UcError> for ApiError {
    fn from(e: UcError) -> Self {
        let status = match &e {
            UcError::NotFound(_) => 404,
            UcError::AlreadyExists(_) | UcError::PathConflict { .. } => 409,
            UcError::CommitConflict { .. } => 409,
            UcError::PermissionDenied(_) => 403,
            UcError::ResourceExhausted(_) => 429,
            UcError::InvalidArgument(_) | UcError::UnsupportedOperation(_) => 400,
            UcError::Database(_) | UcError::Storage(_) | UcError::Federation(_) => 500,
        };
        ApiError { status, message: e.to_string() }
    }
}

fn bad_request(msg: impl Into<String>) -> ApiError {
    ApiError { status: 400, message: msg.into() }
}

/// Caller identification, as it would arrive in request headers.
#[derive(Debug, Clone)]
pub struct RequestAuth {
    pub principal: String,
    pub engine: String,
    pub trusted: bool,
    pub workspace: Option<String>,
}

impl RequestAuth {
    pub fn user(principal: &str) -> Self {
        RequestAuth {
            principal: principal.to_string(),
            engine: "rest-client".into(),
            trusted: false,
            workspace: None,
        }
    }

    fn context(&self) -> Context {
        Context {
            principal: self.principal.clone(),
            engine: if self.trusted {
                EngineIdentity::Trusted(self.engine.clone())
            } else {
                EngineIdentity::Untrusted(self.engine.clone())
            },
            workspace: self.workspace.clone(),
        }
    }
}

/// The wire representation of an entity.
fn entity_json(e: &Entity) -> Json {
    json!({
        "id": e.id.as_str(),
        "kind": e.kind.as_str(),
        "name": e.name,
        "owner": e.owner,
        "comment": e.comment,
        "storage_path": e.storage_path,
        "table_type": e.table_type().map(|t| t.as_str()),
        "format": e.table_format().map(|f| f.as_str()),
        "created_at_ms": e.created_at_ms,
        "updated_at_ms": e.updated_at_ms,
        "grants": e.grants.iter()
            .map(|(g, p)| json!({"grantee": g, "privilege": p.as_str()}))
            .collect::<Vec<_>>(),
    })
}

fn str_param<'a>(params: &'a Json, key: &str) -> Result<&'a str, ApiError> {
    params
        .get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| bad_request(format!("missing string parameter '{key}'")))
}

fn name_param(params: &Json, key: &str) -> Result<FullName, ApiError> {
    FullName::parse(str_param(params, key)?).map_err(ApiError::from)
}

/// Every route [`RestApi::dispatch`] knows, sorted: the methods that get a
/// `rest.{method}.count` series of their own.
const ROUTES: [&str; 17] = [
    "catalogs.create", "catalogs.list", "credentials.temporary", "events.list",
    "grants.add", "grants.list", "grants.revoke", "iceberg.loadTable",
    "metastore.summary", "metrics.flightrecorder", "metrics.snapshot",
    "schemas.create", "securables.drop",
    "tables.create", "tables.get", "tables.list", "tables.resolve",
];

/// A REST endpoint bound to one catalog node.
pub struct RestApi {
    uc: std::sync::Arc<UnityCatalog>,
    /// One request counter per entry of [`ROUTES`], interned on its first
    /// request, and a last one every other method shares: a series per
    /// client-chosen `method` string would grow the registry without bound.
    counts: [std::sync::OnceLock<uc_obs::Counter>; ROUTES.len() + 1],
}

/// The `names` / `with_credentials` parameters of the resolve routes.
fn resolve_params(params: &Json) -> Result<(Vec<FullName>, bool), ApiError> {
    let names = params
        .get("names")
        .and_then(|v| v.as_array())
        .ok_or_else(|| bad_request("missing 'names' array"))?;
    let mut refs = Vec::with_capacity(names.len());
    for n in names {
        let s = n.as_str().ok_or_else(|| bad_request("names must be strings"))?;
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
    json!({
        "securables": resolved.iter().map(|r| json!({
            "entity": entity_json(&r.entity),
            "has_row_filter": r.fgac.row_filter.is_some(),
            "masked_columns": r.fgac.column_masks.iter().map(|m| m.column.clone()).collect::<Vec<_>>(),
            "dependencies": r.dependencies.iter().map(|d| d.entity.name.clone()).collect::<Vec<_>>(),
            "has_credential": r.read_credential.is_some(),
        })).collect::<Vec<_>>()
    })
}

impl RestApi {
    pub fn new(uc: std::sync::Arc<UnityCatalog>) -> Self {
        RestApi { uc, counts: std::array::from_fn(|_| std::sync::OnceLock::new()) }
    }

    /// Dispatch one request. `method` mirrors the REST route (e.g.
    /// `catalogs.create`, `tables.get`); `params` is the request body.
    pub fn handle(
        &self,
        auth: &RequestAuth,
        ms: &Uid,
        method: &str,
        params: &Json,
    ) -> Result<Json, ApiError> {
        let mut span = self.uc.obs().span("rest", method);
        let slot = ROUTES.binary_search(&method).unwrap_or(ROUTES.len());
        let route = ROUTES.get(slot).unwrap_or(&"unknown");
        self.counts[slot].get_or_init(|| self.uc.obs().counter(&format!("rest.{route}.count"))).inc();
        let result = self.dispatch(auth, ms, method, params);
        if let Err(e) = &result {
            span.set_status(if e.status >= 500 { "error" } else { "client_error" });
        }
        result
    }

    /// The metrics accessor, mirroring a `GET /metrics` route: a
    /// deterministic text snapshot of every instrument the node has
    /// registered, across all layers sharing its `Obs` handle.
    pub fn metrics(&self) -> String {
        self.uc.metrics_snapshot()
    }

    fn dispatch(
        &self,
        auth: &RequestAuth,
        ms: &Uid,
        method: &str,
        params: &Json,
    ) -> Result<Json, ApiError> {
        let ctx = auth.context();
        match method {
            "catalogs.create" => {
                let e = self.uc.create_catalog(&ctx, ms, str_param(params, "name")?)?;
                Ok(entity_json(&e))
            }
            "catalogs.list" => {
                let list = self.uc.list_catalogs(&ctx, ms)?;
                Ok(json!({ "catalogs": list.iter().map(|e| entity_json(e)).collect::<Vec<_>>() }))
            }
            "schemas.create" => {
                let e = self.uc.create_schema(
                    &ctx,
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
                .map_err(|e| bad_request(format!("bad columns: {e}")))?;
                let format = params
                    .get("format")
                    .and_then(|v| v.as_str())
                    .map(|s| TableFormat::parse(s).ok_or_else(|| bad_request(format!("bad format {s}"))))
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
                let e = self.uc.create_table(&ctx, ms, spec)?;
                Ok(entity_json(&e))
            }
            "tables.get" => {
                let e = self.uc.get_table(&ctx, ms, str_param(params, "name")?)?;
                Ok(entity_json(&e))
            }
            "tables.list" => {
                let parent = name_param(params, "schema")?;
                let list = self.uc.list_children(&ctx, ms, &parent, Some("relation"))?;
                Ok(json!({ "tables": list.iter().map(|e| entity_json(e)).collect::<Vec<_>>() }))
            }
            "securables.drop" => {
                let name = name_param(params, "name")?;
                let group = str_param(params, "kind_group")?;
                let dropped = self.uc.drop_securable(&ctx, ms, &name, group)?;
                Ok(json!({ "dropped": dropped }))
            }
            "grants.add" | "grants.revoke" => {
                let name = name_param(params, "securable")?;
                let group = str_param(params, "kind_group")?;
                let grantee = str_param(params, "grantee")?;
                let privilege = crate::authz::Privilege::parse(str_param(params, "privilege")?)
                    .ok_or_else(|| bad_request("unknown privilege"))?;
                if method == "grants.add" {
                    self.uc.grant(&ctx, ms, &name, group, grantee, privilege)?;
                } else {
                    self.uc.revoke(&ctx, ms, &name, group, grantee, privilege)?;
                }
                Ok(json!({ "ok": true }))
            }
            "grants.list" => {
                let name = name_param(params, "securable")?;
                let group = str_param(params, "kind_group")?;
                let grants = self.uc.show_grants(&ctx, ms, &name, group)?;
                Ok(json!({
                    "grants": grants.iter()
                        .map(|(g, p)| json!({"grantee": g, "privilege": p.as_str()}))
                        .collect::<Vec<_>>()
                }))
            }
            "credentials.temporary" => {
                let access = match str_param(params, "operation")? {
                    "READ" => uc_cloudstore::AccessLevel::Read,
                    "READ_WRITE" => uc_cloudstore::AccessLevel::ReadWrite,
                    other => return Err(bad_request(format!("bad operation {other}"))),
                };
                let token = if let Some(path) = params.get("path").and_then(|v| v.as_str()) {
                    self.uc.temp_credentials_for_path(&ctx, ms, path, access)?
                } else {
                    let name = name_param(params, "name")?;
                    let group = params
                        .get("kind_group")
                        .and_then(|v| v.as_str())
                        .unwrap_or("relation");
                    self.uc.temp_credentials(&ctx, ms, &name, group, access)?
                };
                Ok(json!({
                    "scope": token.scope.to_string(),
                    "access": match token.access {
                        uc_cloudstore::AccessLevel::Read => "READ",
                        uc_cloudstore::AccessLevel::ReadWrite => "READ_WRITE",
                    },
                    "expires_at_ms": token.expires_at_ms,
                    "nonce": token.nonce,
                    "signature": token.signature,
                }))
            }
            "tables.resolve" => {
                let (refs, want_creds) = resolve_params(params)?;
                Ok(resolved_json(&self.uc.resolve_for_query(&ctx, ms, &refs, want_creds)?))
            }
            "events.list" => {
                let offset = params.get("offset").and_then(|v| v.as_u64()).unwrap_or(0);
                let (events, next) = self.uc.events_since(offset);
                Ok(json!({
                    "next_offset": next,
                    "events": events.iter().map(|e| json!({
                        "seq": e.seq,
                        "entity_id": e.entity_id.as_str(),
                        "kind": e.kind.as_str(),
                        "name": e.name,
                        "op": format!("{:?}", e.op),
                        "at_version": e.at_version,
                    })).collect::<Vec<_>>()
                }))
            }
            "metrics.snapshot" => Ok(json!({ "snapshot": self.uc.metrics_snapshot() })),
            "metrics.flightrecorder" => {
                // Serve the existing frozen dump if a trigger already
                // fired; otherwise freeze now so the operator always gets
                // the most recent window of events.
                let jsonl = match self.uc.obs().flight_jsonl() {
                    Some(j) => j,
                    None => self.uc.flight_freeze("rest.request"),
                };
                Ok(json!({
                    "jsonl": jsonl,
                    "chrome_trace": self.uc.obs().flight_chrome_trace(),
                }))
            }
            "metastore.summary" => {
                let e = self.uc.get_metastore(ms)?;
                Ok(json!({
                    "id": e.id.as_str(),
                    "name": e.name,
                    "region": e.properties.get("region"),
                    "admins": e.metastore_admins(),
                }))
            }
            "iceberg.loadTable" => {
                let name = name_param(params, "name")?;
                let meta = self.uc.load_table_as_iceberg(&ctx, ms, &name)?;
                serde_json::to_value(meta).map_err(|e| ApiError { status: 500, message: e.to_string() })
            }
            other => Err(ApiError { status: 404, message: format!("unknown method {other}") }),
        }
    }
}

/// Kind-group helper exposed for wire clients that address securables
/// generically.
pub fn kind_group_of(kind: &str) -> Option<&'static str> {
    let kind = match kind.to_ascii_uppercase().as_str() {
        "TABLE" => SecurableKind::Table,
        "VIEW" => SecurableKind::View,
        "VOLUME" => SecurableKind::Volume,
        "FUNCTION" => SecurableKind::Function,
        "MODEL" | "REGISTERED_MODEL" => SecurableKind::RegisteredModel,
        "CATALOG" => SecurableKind::Catalog,
        "SCHEMA" => SecurableKind::Schema,
        "SHARE" => SecurableKind::Share,
        _ => return None,
    };
    Some(kind.name_group())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn setup() -> (RestApi, Uid, RequestAuth) {
        let uc = UnityCatalog::in_memory();
        let ms = uc.create_metastore("admin", "prod", "us").unwrap();
        let store = uc.object_store().clone();
        let root = store.create_bucket("lake");
        let ctx = Context::user("admin");
        uc.create_storage_credential(&ctx, &ms, "cred", &root).unwrap();
        uc.set_metastore_root(&ctx, &ms, "s3://lake/root").unwrap();
        (RestApi::new(uc), ms, RequestAuth::user("admin"))
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

    #[test]
    fn errors_carry_http_style_statuses() {
        let (api, ms, admin) = setup();
        // 404 unknown method
        assert_eq!(api.handle(&admin, &ms, "nope", &json!({})).unwrap_err().status, 404);
        // 400 missing parameter
        assert_eq!(
            api.handle(&admin, &ms, "catalogs.create", &json!({})).unwrap_err().status,
            400
        );
        // 404 missing securable
        api.handle(&admin, &ms, "catalogs.create", &json!({"name": "main"})).unwrap();
        assert_eq!(
            api.handle(&admin, &ms, "tables.get", &json!({"name": "main.x.y"})).unwrap_err().status,
            404
        );
        // 409 duplicate
        assert_eq!(
            api.handle(&admin, &ms, "catalogs.create", &json!({"name": "main"})).unwrap_err().status,
            409
        );
        // 403 permission denied
        let nobody = RequestAuth::user("nobody");
        assert_eq!(
            api.handle(&nobody, &ms, "catalogs.create", &json!({"name": "other"})).unwrap_err().status,
            403
        );
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
        let alice = RequestAuth::user("alice");
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

        let events = api.handle(&admin, &ms, "events.list", &json!({"offset": 0})).unwrap();
        assert!(events["events"].as_array().unwrap().len() >= 4);
        let next = events["next_offset"].as_u64().unwrap();
        let empty = api.handle(&admin, &ms, "events.list", &json!({"offset": next})).unwrap();
        assert!(empty["events"].as_array().unwrap().is_empty());
    }

    #[test]
    fn metrics_endpoint_reflects_api_traffic() {
        let (api, ms, admin) = setup();
        api.handle(&admin, &ms, "catalogs.create", &json!({"name": "main"})).unwrap();
        let text = api.metrics();
        assert!(text.starts_with("# uc-obs metrics snapshot"));
        assert!(text.contains("catalog.create_catalog.count"), "snapshot:\n{text}");
        let wire = api.handle(&admin, &ms, "metrics.snapshot", &json!({})).unwrap();
        assert!(wire["snapshot"].as_str().unwrap().contains("catalog.api.calls"));
    }

    /// `method` is the client's string: only a route the dispatcher knows
    /// gets a series of its own, so no stream of made-up methods can grow
    /// the registry.
    #[test]
    fn request_counters_are_one_per_route_and_one_for_the_rest() {
        let (api, ms, admin) = setup();
        assert!(ROUTES.windows(2).all(|w| w[0] < w[1]), "binary-searched");
        for route in ROUTES {
            let unknown = matches!(api.handle(&admin, &ms, route, &json!({})), Err(e) if e.message.starts_with("unknown method"));
            assert!(!unknown, "{route} is listed but not dispatched");
        }
        let series = || api.metrics().lines().count();
        let mut after_first = 0;
        for i in 0..1000 {
            let err = api.handle(&admin, &ms, &format!("made.up.{i}"), &json!({})).unwrap_err();
            assert_eq!(err.status, 404);
            if i == 0 {
                after_first = series();
            }
        }
        assert_eq!(series(), after_first, "999 more unknown methods, no new series");
        assert!(api.metrics().contains("rest.unknown.count counter 1000\n"));
    }

    #[test]
    fn kind_group_mapping() {
        assert_eq!(kind_group_of("TABLE"), Some("relation"));
        assert_eq!(kind_group_of("view"), Some("relation"));
        assert_eq!(kind_group_of("VOLUME"), Some("volume"));
        assert_eq!(kind_group_of("MODEL"), Some("model"));
        assert_eq!(kind_group_of("GIZMO"), None);
    }
}
