//! The traced run: per-layer attribution measured from outside.
//!
//! For each request the benchmark plays the caller's role one level down,
//! timing every call it makes into a layer's public functions — for a
//! SELECT the engine's own sequence (parse, resolve, groups, snapshot,
//! scan), for a REST call the typed `UnityCatalog` call it maps to and the
//! `ServePlane` entry where one exists — plus direct probes of the
//! database, the object store and STS. Each call is a span
//! `{req, span, parent, layer, name, start_ns, end_ns}` kept in memory and
//! written out when the run ends. End-to-end metrics never come from here.

use std::io::Write;
use std::time::Instant;

use serde_json::Value as Json;
use uc_catalog::authz::Privilege;
use uc_catalog::model::entity::props;
use uc_catalog::model::keys;
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::Context;
use uc_catalog::types::{FullName, SecurableKind};
use uc_catalog::{UcError, Uid};
use uc_cloudstore::{AccessLevel, Credential, StoragePath};
use uc_delta::expr::EvalContext;
use uc_delta::DeltaTable;
use uc_engine::sql::Statement;
use uc_engine::{parse_statement, Engine, EngineConfig, EngineSession};
use uc_serve::{ServeConfig, ServePlane};

use crate::client::{Client, Reply};
use crate::gen::{self, Call, Expect, Op, Workload};
use crate::run::{Counters, Probe};
use crate::stats::median;
use crate::world::{World, ENGINE_NAME};

pub struct Span {
    pub req: u32,
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counter deltas over the span, on the first call of each request.
    pub counts: Option<Counters>,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
            req: 0,
        }
    }

    fn next_request(&mut self) {
        self.req += 1;
    }

    /// Time `f` as a span of `layer`; spans opened inside `f` become its
    /// children. Bookkeeping sits outside the timed interval.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span {
            req: self.req,
            id,
            parent,
            layer,
            name,
            start_ns: 0,
            end_ns: 0,
            counts: None,
        });
        self.open.push(id);
        let start = self.t0.elapsed();
        let out = f(self);
        let end = self.t0.elapsed();
        self.open.pop();
        let span = &mut self.spans[id as usize - 1];
        span.start_ns = start.as_nanos() as u64;
        span.end_ns = end.as_nanos() as u64;
        out
    }

    /// [`Tracer::span`] that also records the counter deltas over the call.
    fn counted<T>(
        &mut self,
        probe: &Probe,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let before = probe.read();
        let out = self.span(layer, name, |_| f());
        let delta = probe.read().since(&before);
        if let Some(span) = self.spans.last_mut() {
            span.counts = Some(delta);
        }
        out
    }

    fn rename_last(&mut self, name: &'static str) {
        if let Some(span) = self.spans.last_mut() {
            span.name = name;
        }
    }

    fn matching(&self, layer: &str, name: &str) -> impl Iterator<Item = &Span> {
        let (layer, name) = (layer.to_string(), name.to_string());
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.name == name)
    }

    pub fn count(&self, layer: &str, name: &str) -> usize {
        self.matching(layer, name).count()
    }

    /// Median duration in µs of the spans `layer/name`; `None` when the
    /// layer was never called.
    pub fn median_us(&self, layer: &str, name: &str) -> Option<f64> {
        median(
            self.matching(layer, name)
                .map(|s| s.nanos() as f64 / 1e3)
                .collect(),
        )
    }

    /// Median over requests of `of` minus the spans in `minus`, for the
    /// requests that have all of them: one layer's time less the time of
    /// the layers it calls, on the same input.
    pub fn median_diff_us(&self, of: (&str, &str), minus: &[(&str, &str)]) -> Option<f64> {
        let mut diffs = Vec::new();
        let mut i = 0;
        while i < self.spans.len() {
            let req = self.spans[i].req;
            let end = i + self.spans[i..].iter().take_while(|s| s.req == req).count();
            let find = |(layer, name): (&str, &str)| {
                // The last match: a repeated call is the warm one.
                self.spans[i..end]
                    .iter()
                    .rev()
                    .find(|s| s.layer == layer && s.name == name)
            };
            if let Some(whole) = find(of) {
                let parts: Vec<_> = minus.iter().filter_map(|m| find(*m)).collect();
                if parts.len() == minus.len() {
                    let covered: u64 = parts.iter().map(|s| s.nanos()).sum();
                    diffs.push((whole.nanos() as f64 - covered as f64) / 1e3);
                }
            }
            i = end;
        }
        median(diffs)
    }

    /// Mean of a counter delta over the counted spans `layer/name`.
    pub fn mean_count(&self, layer: &str, name: &str, f: fn(&Counters) -> u64) -> Option<f64> {
        let counts: Vec<u64> = self
            .matching(layer, name)
            .filter_map(|s| s.counts.as_ref().map(f))
            .collect();
        (!counts.is_empty()).then(|| counts.iter().sum::<u64>() as f64 / counts.len() as f64)
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                out,
                r#"{{"req":{},"span":{},"parent":{},"layer":"{}","name":"{}","start_ns":{},"end_ns":{}"#,
                s.req, s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns
            )?;
            if let Some(c) = &s.counts {
                write!(
                    out,
                    r#","counts":{{"db_reads":{},"db_scans":{},"db_commits":{},"db_rows":{},"cache_misses":{},"store_gets":{},"store_lists":{},"sts_mints":{},"sts_verifies":{}}}"#,
                    c.db_reads,
                    c.db_scans,
                    c.db_commits,
                    c.db_rows,
                    c.cache_misses,
                    c.store_gets,
                    c.store_lists,
                    c.sts_mints,
                    c.sts_verifies
                )?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

pub struct Traced {
    pub tracer: Tracer,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

fn str_param<'a>(params: &'a Json, key: &str) -> &'a str {
    params[key]
        .as_str()
        .expect("generated request carries this parameter")
}

fn name_param(params: &Json, key: &str) -> FullName {
    FullName::parse(str_param(params, key)).expect("generated names are valid")
}

struct Replayer<'w> {
    world: &'w World,
    probe: Probe<'w>,
    client: Client<'w>,
    plane: ServePlane,
    t: Tracer,
    failed: u64,
}

impl<'w> Replayer<'w> {
    fn ctx(&self, op: &Op) -> Context {
        Context::user(&gen::principal_name(op.principal))
    }

    /// A SELECT: the engine's `execute`, then the same statement taken
    /// apart the way the engine takes it apart.
    fn sql(&mut self, op: &Op, sql: &str, session: &mut EngineSession) {
        let reply = Reply::Sql(
            self.t
                .counted(&self.probe, "engine", "execute", || session.execute(sql)),
        );
        self.failed += !self.client.check(op, &reply) as u64;

        let world = self.world;
        let uc = &world.uc;
        let ms = self.client.ms(op);
        let who = gen::principal_name(op.principal);
        let ctx = Context::trusted(&who, ENGINE_NAME);
        let mut storage = None;
        self.t.span("engine", "replay", |t| {
            let Ok(Statement::Select(query)) = t.span("engine", "parse", |_| parse_statement(sql))
            else {
                return;
            };
            let resolved = t.span("catalog", "resolve_for_query", |_| {
                uc.resolve_for_query(&ctx, ms, std::slice::from_ref(&query.from), true)
            });
            let Ok(resolved) = resolved else { return }; // the outsider stops here, as in the engine
            let groups = t.span("catalog", "principal_groups", |_| uc.principal_groups(&who));
            let eval = EvalContext::new(&who, groups.unwrap_or_default());
            // The storage-backed relation: the table itself, or a view's
            // base read under the view's own predicate.
            let mut target = &resolved[0];
            let mut predicate = query.predicate.clone();
            if target.entity.kind == SecurableKind::View {
                let view_sql = target
                    .entity
                    .properties
                    .get(props::VIEW_SQL)
                    .cloned()
                    .unwrap_or_default();
                if let Ok(Statement::Select(inner)) =
                    t.span("engine", "parse", |_| parse_statement(&view_sql))
                {
                    predicate = inner.predicate;
                }
                let Some(base) = target.dependencies.first() else {
                    return;
                };
                target = base;
            }
            let (Some(token), Some(path)) = (
                target.read_credential.clone(),
                target.entity.storage_path.as_ref(),
            ) else {
                return;
            };
            let Ok(path) = StoragePath::parse(path) else {
                return;
            };
            let cred = Credential::Temp(token);
            let table = DeltaTable::open(world.store.clone(), path.clone());
            if let Ok(snapshot) = t.span("delta", "snapshot", |_| table.snapshot(&cred)) {
                let _ = t.span("delta", "scan", |_| {
                    table.scan_snapshot(&cred, &snapshot, predicate.as_ref(), &eval)
                });
            }
            storage = Some((cred, path));
        });
        // Object-store probes with the query's own credential.
        if let Some((cred, path)) = storage {
            let listed = self
                .t
                .span("cloudstore", "list", |_| world.store.list(&cred, &path));
            if let Some(first) = listed.ok().and_then(|l| l.into_iter().next()) {
                let _ = self
                    .t
                    .span("cloudstore", "get", |_| world.store.get(&cred, &first.path));
            }
        }
    }

    /// A read-only REST call: `handle`, then the typed call it maps to and
    /// the serving plane's entry, all on the same input.
    fn rest_read(&mut self, op: &Op, method: &'static str, params: &Json) {
        let ctx = self.ctx(op);
        let ms = self.client.ms(op).clone();
        let uc = &self.world.uc;
        if method == "tables.get" && self.world.workload == Workload::MetaCold {
            // Only the first call can miss the cache; it is the typed one
            // so that the cold cost is the catalog's alone.
            let _ = self
                .t
                .counted(&self.probe, "catalog", "get_table_first", || {
                    uc.get_table(&ctx, &ms, str_param(params, "name"))
                });
            if self
                .t
                .spans
                .last()
                .and_then(|s| s.counts)
                .is_some_and(|c| c.cache_misses > 0)
            {
                self.t.rename_last("get_table_cold");
            }
        }
        let (rest, auth) = (self.client.rest(), self.client.auth(op.principal));
        let reply = Reply::Rest(self.t.counted(&self.probe, "rest", method, || {
            rest.handle(auth, &ms, method, params)
        }));
        self.failed += !self.client.check(op, &reply) as u64;
        let plane = &self.plane;
        match method {
            "tables.get" => {
                let name = str_param(params, "name");
                let _ = self
                    .t
                    .span("catalog", "get_table", |_| uc.get_table(&ctx, &ms, name));
                let _ = self
                    .t
                    .span("serve", "get_table", |_| plane.get_table(&ctx, &ms, name));
            }
            "tables.resolve" => {
                let refs: Vec<FullName> = params["names"]
                    .as_array()
                    .map(|a| {
                        a.iter()
                            .filter_map(|n| FullName::parse(n.as_str()?).ok())
                            .collect()
                    })
                    .unwrap_or_default();
                let creds = params["with_credentials"].as_bool().unwrap_or(false);
                let _ = self.t.span("catalog", "resolve_for_query", |_| {
                    uc.resolve_for_query(&ctx, &ms, &refs, creds)
                });
                let _ = self.t.span("serve", "resolve", |_| {
                    plane.resolve(&ctx, &ms, refs.clone(), creds)
                });
            }
            "tables.list" => {
                let schema = name_param(params, "schema");
                let _ = self.t.span("catalog", "list_children", |_| {
                    uc.list_children(&ctx, &ms, &schema, Some("relation"))
                });
            }
            "credentials.temporary" => {
                let name = name_param(params, "name");
                let _ = self.t.span("catalog", "temp_credentials", |_| {
                    uc.temp_credentials(&ctx, &ms, &name, "relation", AccessLevel::Read)
                });
            }
            _ => {
                let name = name_param(params, "securable");
                let _ = self.t.span("catalog", "show_grants", |_| {
                    uc.show_grants(&ctx, &ms, &name, str_param(params, "kind_group"))
                });
            }
        }
    }

    /// write_mix: a write cannot be issued twice, so the benchmark plays
    /// the REST layer's role and calls the typed API directly.
    fn typed_only(&mut self, op: &Op, method: &str, params: &Json) {
        let ctx = self.ctx(op);
        let ms = self.client.ms(op).clone();
        let uc = &self.world.uc;
        let probe = &self.probe;
        let t = &mut self.t;
        let outcome: Result<(), UcError> = match method {
            "tables.create" => {
                let columns =
                    serde_json::from_value(params["columns"].clone()).expect("generated columns");
                let spec =
                    TableSpec::managed(str_param(params, "name"), columns).expect("generated name");
                t.counted(probe, "catalog", "create_table", || {
                    uc.create_table(&ctx, &ms, spec)
                })
                .map(drop)
            }
            "grants.add" | "grants.revoke" => {
                let name = name_param(params, "securable");
                let (group, grantee) = (
                    str_param(params, "kind_group"),
                    str_param(params, "grantee"),
                );
                if method == "grants.add" {
                    t.counted(probe, "catalog", "grant", || {
                        uc.grant(&ctx, &ms, &name, group, grantee, Privilege::All)
                    })
                } else {
                    t.counted(probe, "catalog", "revoke", || {
                        uc.revoke(&ctx, &ms, &name, group, grantee, Privilege::All)
                    })
                }
            }
            "tables.get" => t
                .counted(probe, "catalog", "get_table", || {
                    uc.get_table(&ctx, &ms, str_param(params, "name"))
                })
                .map(drop),
            "credentials.temporary" => {
                let name = name_param(params, "name");
                t.counted(probe, "catalog", "temp_credentials", || {
                    uc.temp_credentials(&ctx, &ms, &name, "relation", AccessLevel::ReadWrite)
                })
                .map(drop)
            }
            "securables.drop" => {
                let name = name_param(params, "name");
                t.counted(probe, "catalog", "drop", || {
                    uc.drop_securable(&ctx, &ms, &name, "relation")
                })
                .map(drop)
            }
            other => unreachable!("write_mix generates no {other}"),
        };
        let ok = match (&op.expect, &outcome) {
            (Expect::Status(403), Err(UcError::PermissionDenied(_))) => true,
            (Expect::Status(404), Err(UcError::NotFound(_))) => true,
            (Expect::Status(_), _) => false,
            (_, result) => result.is_ok(),
        };
        self.failed += !ok as u64;
    }

    fn purge(&mut self, op: &Op) {
        let (uc, ms) = (&self.world.uc, self.client.ms(op).clone());
        let result = self.t.counted(&self.probe, "catalog", "purge", || {
            uc.purge_soft_deleted(&ms)
        });
        self.failed += result.is_err() as u64;
    }
}

/// Replay `ops` as client `client` — `ops_per_client` of the ring, or the
/// first round — on one thread, every layer call a span.
pub fn traced_replay(world: &World, client: usize, ops: &[Op]) -> Traced {
    let n = if world.sizes.round > 0 {
        ops.iter().take_while(|op| op.ms == 0).count()
    } else {
        world.sizes.ops_per_client
    };
    let c = Client::new(world, client);
    let ms = c.ms(&ops[0]).clone();
    let plane = ServePlane::new(world.uc.clone(), ServeConfig::default());
    plane.register_tenant(&ms, "bench");
    let engine = Engine::new(world.uc.clone(), ms, EngineConfig::trusted(ENGINE_NAME));
    let mut sessions: Vec<EngineSession> = (0..=gen::ADMIN)
        .map(|p| engine.session(&gen::principal_name(p)))
        .collect();
    let mut r = Replayer {
        world,
        probe: Probe::new(world),
        client: c,
        plane,
        t: Tracer::new(n * 10),
        failed: 0,
    };
    // Unique requests are writes: they cannot be issued a second time.
    let typed_only = world.sizes.round > 0;
    let t_start = Instant::now();
    for op in ops.iter().cycle().take(n) {
        r.t.next_request();
        match &op.call {
            Call::Sql(sql) => r.sql(op, sql, &mut sessions[op.principal as usize]),
            Call::Rest { method, params } if typed_only => r.typed_only(op, method, params),
            Call::Rest { method, params } => r.rest_read(op, method, params),
            Call::Purge => r.purge(op),
        }
    }
    let wall_s = t_start.elapsed().as_secs_f64();
    Traced {
        tracer: r.t,
        wall_s,
        attempted: n as u64,
        failed: r.failed,
    }
}

/// Direct probes of the database and STS on representative keys, each a
/// span of its layer. They run after the replay, so they perturb none of
/// its counts.
pub fn probes(world: &World, t: &mut Tracer) {
    const ROUNDS: usize = 2_000;
    let ms = &world.metastores[0];
    let sizes = &world.sizes;
    let schema_key = |s: usize| {
        let mut key = keys::tree_ms_prefix(ms);
        keys::tree_push_child(&mut key, "catalog", gen::CATALOG);
        keys::tree_push_child(&mut key, "schema", &gen::schema_name(s));
        key
    };
    for i in 0..ROUNDS {
        t.next_request();
        // An entity row and the tree key of the same entity: a static
        // table where the workload has them (a stride walks the namespace
        // without favouring one B-tree leaf), else the metastore and a
        // schema.
        let (id, chain_key) = if world.ids.is_empty() {
            (ms.clone(), schema_key(i % sizes.schemas))
        } else {
            let table = i * 7919 % world.ids.len();
            let mut key = schema_key(table / sizes.tables_per_schema);
            keys::tree_push_child(&mut key, "relation", &gen::table_leaf(table));
            (Uid::from_string(world.ids[table].clone()), key)
        };
        let ent_key = keys::ent_key(ms, &id);
        t.span("txdb", "get", |_| {
            world.db.begin_read().get(keys::T_ENTITY, &ent_key)
        });
        t.span("txdb", "scan_chain", |_| {
            world.db.begin_read().scan_chain(keys::T_TREE, &chain_key)
        });
        if sizes.tables_per_schema == 200 {
            let prefix = keys::tree_group_prefix(&schema_key(i % sizes.schemas), "relation");
            let rows = t.span("txdb", "scan200", |_| {
                world.db.begin_read().scan_prefix(keys::T_TREE, &prefix)
            });
            assert_eq!(rows.len(), 200, "scan200 probe reads one 200-table schema");
        }
        t.span("txdb", "commit5", |_| {
            let mut tx = world.db.begin_write();
            for k in 0..5 {
                tx.put(
                    "bench_probe",
                    &format!("{i:06}/{k}"),
                    bytes::Bytes::from_static(b"probe-row-value"),
                );
            }
            tx.commit()
        })
        .expect("probe commit");
        let scope =
            StoragePath::parse(&format!("s3://{}/managed/probe/{i}", world.roots[0].bucket))
                .expect("probe scope");
        t.span("cloudstore", "sts_mint", |_| {
            world
                .store
                .sts()
                .mint(&world.roots[0], &scope, AccessLevel::Read, 900_000)
        })
        .expect("probe mint");
    }
}
