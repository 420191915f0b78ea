//! Statement execution: the life of a SQL query (§3.4).

use std::sync::Arc;

use uc_cloudstore::{AccessLevel, Credential, ObjectStore, StoragePath};
use uc_catalog::ids::Uid;
use uc_catalog::model::entity::Entity;
use uc_catalog::service::commits::{CatalogCommitCoordinator, TableCommit};
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::resolve::ResolvedSecurable;
use uc_catalog::service::{Context, UnityCatalog};
use uc_catalog::types::{FullName, SecurableKind, TableFormat, TableType};
use uc_catalog::UcError;
use uc_delta::actions::encode_commit;
use uc_delta::expr::{EvalContext, Expr};
use uc_delta::value::{Field, Row, Schema, Value};
use uc_delta::DeltaTable;

use crate::dfs::DataFilteringService;
use crate::error::{EngineError, EngineResult};
use crate::sql::{parse_statement, Projection, SelectQuery, Statement};

/// Engine identity and behaviour.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Engine name presented to the catalog.
    pub name: String,
    /// Trusted engines are isolated from user code and may enforce FGAC.
    pub trusted: bool,
    /// Route Delta commits through the catalog (enables multi-table
    /// transactions).
    pub catalog_owned_commits: bool,
    /// Workspace this engine's cluster is attached to (catalog bindings
    /// are enforced against it).
    pub workspace: Option<String>,
}

impl EngineConfig {
    pub fn trusted(name: &str) -> Self {
        EngineConfig {
            name: name.to_string(),
            trusted: true,
            catalog_owned_commits: false,
            workspace: None,
        }
    }

    pub fn untrusted(name: &str) -> Self {
        EngineConfig {
            name: name.to_string(),
            trusted: false,
            catalog_owned_commits: false,
            workspace: None,
        }
    }

    pub fn in_workspace(mut self, workspace: &str) -> Self {
        self.workspace = Some(workspace.to_string());
        self
    }

    pub fn with_catalog_owned_commits(mut self) -> Self {
        self.catalog_owned_commits = true;
        self
    }
}

/// A compute engine attached to one metastore.
pub struct Engine {
    pub(crate) uc: Arc<UnityCatalog>,
    pub(crate) ms: Uid,
    pub(crate) store: ObjectStore,
    pub(crate) config: EngineConfig,
}

impl Engine {
    pub fn new(uc: Arc<UnityCatalog>, ms: Uid, config: EngineConfig) -> Arc<Self> {
        let store = uc.object_store().clone();
        Arc::new(Engine { uc, ms, store, config })
    }

    /// Open a session for a principal.
    pub fn session(self: &Arc<Self>, principal: &str) -> EngineSession {
        EngineSession {
            engine: self.clone(),
            principal: principal.to_string(),
            dfs: None,
            txn_buffer: None,
        }
    }

    pub fn catalog(&self) -> &Arc<UnityCatalog> {
        &self.uc
    }

    pub fn metastore(&self) -> &Uid {
        &self.ms
    }

    pub(crate) fn context_for(&self, principal: &str) -> Context {
        if self.config.trusted {
            let ctx = Context::trusted(principal, &self.config.name);
            match &self.config.workspace {
                Some(w) => ctx.in_workspace(w),
                None => ctx,
            }
        } else {
            Context {
                principal: principal.to_string(),
                engine: uc_catalog::service::EngineIdentity::Untrusted(self.config.name.clone()),
                workspace: self.config.workspace.clone(),
            }
        }
    }

    /// Build a table handle with the right commit coordinator.
    pub(crate) fn delta_table(&self, ctx: &Context, entity: &Entity) -> EngineResult<DeltaTable> {
        let path = entity
            .storage_path
            .as_ref()
            .ok_or_else(|| EngineError::Unsupported(format!("{} has no storage", entity.name)))?;
        let path = StoragePath::parse(path).map_err(|e| EngineError::Catalog(e.into()))?;
        let catalog_owned = entity.commit_version() >= 0
            || (self.config.catalog_owned_commits && entity.table_type() == Some(TableType::Managed));
        if catalog_owned {
            let coordinator = Arc::new(CatalogCommitCoordinator {
                uc: self.uc.clone(),
                ctx: ctx.clone(),
                ms: self.ms.clone(),
                table_id: entity.id.clone(),
            });
            Ok(DeltaTable::with_coordinator(self.store.clone(), path, coordinator))
        } else {
            Ok(DeltaTable::open(self.store.clone(), path))
        }
    }
}

/// Result of a statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    /// Data files actually read (reveals stats-pruning effectiveness).
    pub files_scanned: usize,
    /// Human-readable outcome for non-query statements.
    pub message: String,
}

impl QueryResult {
    fn message(msg: impl Into<String>) -> Self {
        QueryResult { columns: vec![], rows: vec![], files_scanned: 0, message: msg.into() }
    }
}

/// A user session on an engine. Holds the multi-statement transaction
/// buffer when one is open.
pub struct EngineSession {
    engine: Arc<Engine>,
    principal: String,
    dfs: Option<Arc<DataFilteringService>>,
    /// Open transaction: buffered inserts per table.
    txn_buffer: Option<Vec<(FullName, Vec<Row>)>>,
}

impl EngineSession {
    /// Attach a data-filtering service for FGAC delegation (untrusted
    /// engines).
    pub fn with_dfs(mut self, dfs: Arc<DataFilteringService>) -> Self {
        self.dfs = Some(dfs);
        self
    }

    pub fn principal(&self) -> &str {
        &self.principal
    }

    fn ctx(&self) -> Context {
        self.engine.context_for(&self.principal)
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> EngineResult<QueryResult> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(stmt)
    }

    /// Execute a pre-parsed statement.
    pub fn execute_statement(&mut self, stmt: Statement) -> EngineResult<QueryResult> {
        let ctx = self.ctx();
        let uc = &self.engine.uc;
        let ms = &self.engine.ms;
        match stmt {
            Statement::CreateCatalog { name } => {
                uc.create_catalog(&ctx, ms, &name)?;
                Ok(QueryResult::message(format!("created catalog {name}")))
            }
            Statement::CreateSchema { catalog, name } => {
                uc.create_schema(&ctx, ms, &catalog, &name)?;
                Ok(QueryResult::message(format!("created schema {catalog}.{name}")))
            }
            Statement::CreateTable { name, columns, location, format } => {
                self.create_table(&ctx, name, columns, location, format)
            }
            Statement::CreateView { name, query, sql } => self.create_view(&ctx, name, query, sql),
            Statement::CreateShallowClone { name, source } => {
                self.create_shallow_clone(&ctx, name, source)
            }
            Statement::CreateVolume { name, location } => {
                uc.create_volume(&ctx, ms, &name, location.as_deref())?;
                Ok(QueryResult::message(format!("created volume {name}")))
            }
            Statement::Insert { table, rows } => self.insert(&ctx, table, rows),
            Statement::Delete { table, predicate } => self.delete(&ctx, table, predicate),
            Statement::Select(query) => self.select(&ctx, &query),
            Statement::Grant { privilege, kind, on, to } => {
                let p = uc_catalog::authz::Privilege::parse(&privilege)
                    .ok_or_else(|| EngineError::Parse(format!("unknown privilege {privilege}")))?;
                uc.grant(&ctx, ms, &on, kind.name_group(), &to, p)?;
                Ok(QueryResult::message(format!("granted {privilege} on {on} to {to}")))
            }
            Statement::Revoke { privilege, kind, on, from } => {
                let p = uc_catalog::authz::Privilege::parse(&privilege)
                    .ok_or_else(|| EngineError::Parse(format!("unknown privilege {privilege}")))?;
                uc.revoke(&ctx, ms, &on, kind.name_group(), &from, p)?;
                Ok(QueryResult::message(format!("revoked {privilege} on {on} from {from}")))
            }
            Statement::Drop { kind, name } => {
                let dropped = uc.drop_securable(&ctx, ms, &name, kind.name_group())?;
                Ok(QueryResult::message(format!("dropped {dropped} securable(s)")))
            }
            Statement::Begin => {
                if self.txn_buffer.is_some() {
                    return Err(EngineError::Transaction("transaction already open".into()));
                }
                self.txn_buffer = Some(Vec::new());
                Ok(QueryResult::message("transaction started"))
            }
            Statement::Commit => self.commit_transaction(&ctx),
            Statement::Rollback => {
                if self.txn_buffer.take().is_none() {
                    return Err(EngineError::Transaction("no open transaction".into()));
                }
                Ok(QueryResult::message("transaction rolled back"))
            }
            Statement::Optimize { table } => self.optimize(&ctx, table),
            Statement::Vacuum { table } => self.vacuum(&ctx, table),
            Statement::Describe { table } => {
                let ent = uc.get_securable(&ctx, ms, &table, "relation")?;
                let schema = ent.table_schema()?;
                let rows = schema
                    .fields
                    .iter()
                    .map(|f| {
                        vec![
                            Value::Str(f.name.clone()),
                            Value::Str(f.data_type.to_string()),
                            Value::Bool(f.nullable),
                        ]
                    })
                    .collect();
                Ok(QueryResult {
                    columns: vec!["col_name".into(), "data_type".into(), "nullable".into()],
                    rows,
                    files_scanned: 0,
                    message: String::new(),
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    fn create_table(
        &mut self,
        ctx: &Context,
        name: FullName,
        columns: Vec<(String, uc_delta::value::DataType, bool)>,
        location: Option<String>,
        format: Option<String>,
    ) -> EngineResult<QueryResult> {
        let schema = Schema::new(
            columns
                .into_iter()
                .map(|(n, dt, nullable)| Field { name: n, data_type: dt, nullable })
                .collect(),
        );
        let format = format
            .as_deref()
            .map(|f| TableFormat::parse(f).ok_or_else(|| EngineError::Parse(format!("unknown format {f}"))))
            .transpose()?
            .unwrap_or(TableFormat::Delta);
        let spec = match &location {
            None => TableSpec {
                name: name.clone(),
                columns: schema.clone(),
                format,
                table_type: TableType::Managed,
                storage_path: None,
                foreign_type: None,
            },
            Some(loc) => TableSpec {
                name: name.clone(),
                columns: schema.clone(),
                format,
                table_type: TableType::External,
                storage_path: Some(loc.clone()),
                foreign_type: None,
            },
        };
        let entity = self.engine.uc.create_table(ctx, &self.engine.ms, spec)?;
        // Physically initialize Delta tables: the engine writes the first
        // commit with a vended read-write credential.
        if format == TableFormat::Delta {
            let token = self.engine.uc.temp_credentials(
                ctx,
                &self.engine.ms,
                &name,
                "relation",
                AccessLevel::ReadWrite,
            )?;
            let table = self.engine.delta_table(ctx, &entity)?;
            table.create_with(&Credential::Temp(token), entity.id.as_str(), schema)?;
        }
        Ok(QueryResult::message(format!("created table {name}")))
    }

    fn create_view(
        &mut self,
        ctx: &Context,
        name: FullName,
        query: SelectQuery,
        sql: String,
    ) -> EngineResult<QueryResult> {
        // Derive the view's schema from the base relation's schema.
        let base = self
            .engine
            .uc
            .get_securable(ctx, &self.engine.ms, &query.from, "relation")?;
        let base_schema = base.table_schema()?;
        let view_schema = match &query.projection {
            Projection::CountStar => {
                return Err(EngineError::Unsupported(
                    "aggregating views are not supported; query COUNT(*) directly".into(),
                ))
            }
            Projection::Star => base_schema,
            Projection::Columns(cols) => {
                let mut fields = Vec::with_capacity(cols.len());
                for c in cols {
                    let field = base_schema
                        .field(c)
                        .ok_or_else(|| EngineError::Catalog(UcError::InvalidArgument(format!(
                            "view references unknown column {c}"
                        ))))?;
                    fields.push(field.clone());
                }
                Schema::new(fields)
            }
        };
        self.engine.uc.create_view(
            ctx,
            &self.engine.ms,
            &name,
            &sql,
            view_schema,
            std::slice::from_ref(&query.from),
        )?;
        // Engines report lineage during processing (§4.4).
        self.engine
            .uc
            .add_lineage(ctx, &self.engine.ms, &query.from, &name, Some("create-view"))?;
        Ok(QueryResult::message(format!("created view {name}")))
    }

    fn create_shallow_clone(
        &mut self,
        ctx: &Context,
        name: FullName,
        source: FullName,
    ) -> EngineResult<QueryResult> {
        // Pin the clone at the source's current version. The engine reads
        // the source's log head with its own (authorized) credentials.
        let base = self
            .engine
            .uc
            .get_securable(ctx, &self.engine.ms, &source, "relation")?;
        let token = self.engine.uc.temp_credentials(
            ctx,
            &self.engine.ms,
            &source,
            "relation",
            AccessLevel::Read,
        )?;
        let handle = self.engine.delta_table(ctx, &base)?;
        let version = handle.snapshot(&Credential::Temp(token))?.version;
        self.engine
            .uc
            .create_shallow_clone(ctx, &self.engine.ms, &name, &source, version)?;
        Ok(QueryResult::message(format!(
            "created shallow clone {name} of {source} at version {version}"
        )))
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    fn insert(&mut self, ctx: &Context, table: FullName, rows: Vec<Row>) -> EngineResult<QueryResult> {
        if let Some(buffer) = &mut self.txn_buffer {
            buffer.push((table, rows));
            return Ok(QueryResult::message("buffered in open transaction"));
        }
        let entity = self
            .engine
            .uc
            .get_securable(ctx, &self.engine.ms, &table, "relation")?;
        if entity.kind != SecurableKind::Table {
            return Err(EngineError::Unsupported("INSERT into a view".into()));
        }
        let token = self.engine.uc.temp_credentials(
            ctx,
            &self.engine.ms,
            &table,
            "relation",
            AccessLevel::ReadWrite,
        )?;
        let handle = self.engine.delta_table(ctx, &entity)?;
        let n = rows.len();
        let version = handle.append(&Credential::Temp(token), &rows)?;
        Ok(QueryResult::message(format!("inserted {n} row(s) at version {version}")))
    }

    fn delete(
        &mut self,
        ctx: &Context,
        table: FullName,
        predicate: Option<Expr>,
    ) -> EngineResult<QueryResult> {
        if self.txn_buffer.is_some() {
            return Err(EngineError::Transaction(
                "DELETE inside a multi-statement transaction is not supported".into(),
            ));
        }
        let entity = self
            .engine
            .uc
            .get_securable(ctx, &self.engine.ms, &table, "relation")?;
        if entity.kind != SecurableKind::Table
            || entity.table_type() == Some(TableType::ShallowClone)
        {
            return Err(EngineError::Unsupported("DELETE targets a writable table".into()));
        }
        let token = self.engine.uc.temp_credentials(
            ctx,
            &self.engine.ms,
            &table,
            "relation",
            AccessLevel::ReadWrite,
        )?;
        let handle = self.engine.delta_table(ctx, &entity)?;
        // no WHERE clause deletes everything
        let pred = predicate
            .unwrap_or(Expr::Literal(uc_delta::value::Value::Bool(true)));
        let eval_ctx = self.eval_context()?;
        let deleted = handle.delete_where(&Credential::Temp(token), &pred, &eval_ctx)?;
        Ok(QueryResult::message(format!("deleted {deleted} row(s)")))
    }

    fn commit_transaction(&mut self, ctx: &Context) -> EngineResult<QueryResult> {
        let Some(buffer) = self.txn_buffer.take() else {
            return Err(EngineError::Transaction("no open transaction".into()));
        };
        if buffer.is_empty() {
            return Ok(QueryResult::message("empty transaction committed"));
        }
        // Group buffered rows per table, preserving order.
        let mut per_table: Vec<(FullName, Vec<Row>)> = Vec::new();
        for (table, rows) in buffer {
            match per_table.iter_mut().find(|(t, _)| *t == table) {
                Some((_, acc)) => acc.extend(rows),
                None => per_table.push((table, rows)),
            }
        }
        // Stage data files + actions per table, then commit all through
        // the catalog atomically.
        let mut commits = Vec::with_capacity(per_table.len());
        for (table, rows) in &per_table {
            let entity = self
                .engine
                .uc
                .get_securable(ctx, &self.engine.ms, table, "relation")?;
            if entity.commit_version() < 0 && !self.engine.config.catalog_owned_commits {
                return Err(EngineError::Transaction(format!(
                    "{table} is not catalog-owned; multi-statement transactions require \
                     catalog-owned commits"
                )));
            }
            let token = self.engine.uc.temp_credentials(
                ctx,
                &self.engine.ms,
                table,
                "relation",
                AccessLevel::ReadWrite,
            )?;
            let handle = self.engine.delta_table(ctx, &entity)?;
            let (version, actions) = handle.prepare_append(&Credential::Temp(token), rows)?;
            commits.push(TableCommit {
                table_id: entity.id.clone(),
                version,
                payload: encode_commit(&actions),
            });
        }
        let n = commits.len();
        self.engine
            .uc
            .commit_tables_atomically(ctx, &self.engine.ms, commits)?;
        Ok(QueryResult::message(format!("transaction committed across {n} table(s)")))
    }

    fn optimize(&mut self, ctx: &Context, table: FullName) -> EngineResult<QueryResult> {
        let entity = self
            .engine
            .uc
            .get_securable(ctx, &self.engine.ms, &table, "relation")?;
        let token = self.engine.uc.temp_credentials(
            ctx,
            &self.engine.ms,
            &table,
            "relation",
            AccessLevel::ReadWrite,
        )?;
        let handle = self.engine.delta_table(ctx, &entity)?;
        let metrics = handle.optimize(&Credential::Temp(token), 100_000)?;
        Ok(QueryResult::message(format!(
            "optimized: rewrote {} file(s) into {} ({} rows)",
            metrics.files_removed, metrics.files_added, metrics.rows_rewritten
        )))
    }

    fn vacuum(&mut self, ctx: &Context, table: FullName) -> EngineResult<QueryResult> {
        let entity = self
            .engine
            .uc
            .get_securable(ctx, &self.engine.ms, &table, "relation")?;
        let token = self.engine.uc.temp_credentials(
            ctx,
            &self.engine.ms,
            &table,
            "relation",
            AccessLevel::ReadWrite,
        )?;
        let handle = self.engine.delta_table(ctx, &entity)?;
        let metrics = handle.vacuum(&Credential::Temp(token))?;
        Ok(QueryResult::message(format!(
            "vacuumed {} object(s), reclaimed {} bytes",
            metrics.objects_deleted, metrics.bytes_reclaimed
        )))
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    fn select(&mut self, ctx: &Context, query: &SelectQuery) -> EngineResult<QueryResult> {
        let resolved = match self.engine.uc.resolve_for_query(
            ctx,
            &self.engine.ms,
            std::slice::from_ref(&query.from),
            true,
        ) {
            Ok(r) => r,
            // Untrusted engines delegate FGAC queries to the data
            // filtering service (§4.3.2) when one is attached.
            Err(UcError::PermissionDenied(msg)) if msg.contains("trusted engine") => {
                match self.dfs.clone() {
                    Some(dfs) => return dfs.execute_select(&self.principal, query),
                    None => return Err(UcError::PermissionDenied(msg).into()),
                }
            }
            Err(e) => return Err(e.into()),
        };
        let eval_ctx = self.eval_context()?;
        let (schema, rows, files) = self.execute_relation(ctx, &resolved[0], query.predicate.as_ref(), &eval_ctx)?;
        let mut result = project(&schema, rows, &query.projection, files)?;
        apply_order_and_limit(&mut result, query)?;
        Ok(result)
    }

    /// The principal context for FGAC expression evaluation.
    fn eval_context(&self) -> EngineResult<EvalContext> {
        let groups = self.engine.uc.principal_groups(&self.principal)?;
        Ok(EvalContext::new(&self.principal, groups))
    }

    /// Recursively evaluate a resolved relation (table or view) with an
    /// optional extra predicate, applying FGAC policies at every level.
    fn execute_relation(
        &self,
        ctx: &Context,
        resolved: &ResolvedSecurable,
        extra_predicate: Option<&Expr>,
        eval_ctx: &EvalContext,
    ) -> EngineResult<(Schema, Vec<Row>, usize)> {
        let entity = &resolved.entity;
        match entity.kind {
            SecurableKind::Table if entity.table_type() == Some(TableType::ShallowClone) => {
                // A shallow clone shares the base's files at a pinned
                // version; the base arrives as a resolved dependency
                // (clone SELECT grants base access, §4.3.2).
                let base = resolved.dependencies.first().ok_or_else(|| {
                    EngineError::Unsupported(format!("clone {} has no resolved base", entity.name))
                })?;
                let pinned: i64 = entity
                    .properties
                    .get("clone_version")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                let schema = resolved
                    .schema
                    .clone()
                    .ok_or_else(|| EngineError::Unsupported(format!("{} has no schema", entity.name)))?;
                let token = base.read_credential.clone().ok_or_else(|| {
                    EngineError::Unsupported(format!("no read credential for clone base of {}", entity.name))
                })?;
                let (mut rows, files) = self.scan_table(
                    ctx, &base.entity, token, Some(pinned), extra_predicate, eval_ctx,
                )?;
                rows = self.apply_fgac(resolved, &schema, rows, eval_ctx)?;
                Ok((schema, rows, files))
            }
            SecurableKind::Table => {
                let schema = resolved
                    .schema
                    .clone()
                    .ok_or_else(|| EngineError::Unsupported(format!("{} has no schema", entity.name)))?;
                let token = resolved.read_credential.clone().ok_or_else(|| {
                    EngineError::Unsupported(format!("no read credential for {}", entity.name))
                })?;
                let (mut rows, files) =
                    self.scan_table(ctx, entity, token, None, extra_predicate, eval_ctx)?;
                rows = self.apply_fgac(resolved, &schema, rows, eval_ctx)?;
                Ok((schema, rows, files))
            }
            SecurableKind::View => {
                let view_sql = entity
                    .properties
                    .get(uc_catalog::model::entity::props::VIEW_SQL)
                    .ok_or_else(|| EngineError::Unsupported(format!("view {} has no SQL", entity.name)))?;
                let Statement::Select(inner) = parse_statement(view_sql)? else {
                    return Err(EngineError::Unsupported("view SQL is not a SELECT".into()));
                };
                let base = resolved.dependencies.first().ok_or_else(|| {
                    EngineError::Unsupported(format!("view {} has no resolved base", entity.name))
                })?;
                // Evaluate the view's own query against the base relation
                // (using the *resolution's* authority, not the caller's).
                let (base_schema, base_rows, files) =
                    self.execute_relation(ctx, base, inner.predicate.as_ref(), eval_ctx)?;
                let mut view_result = project(&base_schema, base_rows, &inner.projection, files)?;
                // a view's own ORDER BY / LIMIT are part of its definition
                apply_order_and_limit(&mut view_result, &inner)?;
                let view_schema = resolved
                    .schema
                    .clone()
                    .unwrap_or_else(|| Schema::new(vec![]));
                // Apply the outer predicate over the view's output, then
                // the view's own FGAC policies.
                let mut rows = view_result.rows;
                if let Some(p) = extra_predicate {
                    let mut kept = Vec::with_capacity(rows.len());
                    for row in rows {
                        if p.eval_bool(&view_schema, &row, eval_ctx)? {
                            kept.push(row);
                        }
                    }
                    rows = kept;
                }
                let rows = self.apply_fgac(resolved, &view_schema, rows, eval_ctx)?;
                Ok((view_schema, rows, view_result.files_scanned))
            }
            other => Err(EngineError::Unsupported(format!("cannot SELECT from a {other}"))),
        }
    }

    /// Snapshot + scan a Delta table with bounded recovery from mid-scan
    /// credential expiry: a token can age out between resolution and the
    /// storage reads (long queries, small TTLs). The snapshot is the
    /// store's shared, validated one (`uc_delta::TableCache`): a table
    /// that has not changed costs one credentialed listing. On
    /// `ExpiredCredential` the engine asks the catalog for a fresh read
    /// token — full re-authorization, so revocations since resolution are
    /// honored — and retries. `pinned` selects `snapshot_at` (shallow
    /// clones).
    fn scan_table(
        &self,
        ctx: &Context,
        entity: &Arc<Entity>,
        token: uc_cloudstore::TempCredential,
        pinned: Option<i64>,
        extra_predicate: Option<&Expr>,
        eval_ctx: &EvalContext,
    ) -> EngineResult<(Vec<Row>, usize)> {
        let handle = self.engine.delta_table(ctx, entity)?;
        // Root the scan in the trace: storage spans nest under it, and the
        // credential-renew events below need an active span to attach to.
        let mut scan_span = self.engine.uc.obs().span("engine", "scan_table");
        let mut token = token;
        let mut attempts = 0;
        loop {
            let cred = Credential::Temp(token.clone());
            let result = (|| {
                let snapshot = match pinned {
                    Some(v) => Arc::new(handle.snapshot_at(&cred, v)?),
                    None => handle.snapshot(&cred)?,
                };
                handle.scan_snapshot(&cred, &snapshot, extra_predicate, eval_ctx)
            })();
            match result {
                Ok(out) => return Ok(out),
                Err(uc_delta::DeltaError::Storage(
                    uc_cloudstore::StorageError::ExpiredCredential { .. },
                )) if attempts < 3 => {
                    attempts += 1;
                    uc_obs::span_event("engine.credential_renew", &format!("attempt={attempts}"));
                    token = self
                        .engine
                        .uc
                        .renew_read_credential(ctx, &self.engine.ms, &entity.id)?;
                }
                Err(e) => {
                    scan_span.set_status("error");
                    return Err(e.into());
                }
            }
        }
    }

    /// Faithfully enforce the FGAC policies the catalog returned — this is
    /// the trusted-engine contract.
    fn apply_fgac(
        &self,
        resolved: &ResolvedSecurable,
        schema: &Schema,
        rows: Vec<Row>,
        eval_ctx: &EvalContext,
    ) -> EngineResult<Vec<Row>> {
        let mut rows = rows;
        if let Some(filter) = &resolved.fgac.row_filter {
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                if filter.expr.eval_bool(schema, &row, eval_ctx)? {
                    kept.push(row);
                }
            }
            rows = kept;
        }
        for mask in &resolved.fgac.column_masks {
            if let Some(exempt) = &mask.exempt_when {
                // Exemption conditions reference only the principal, so one
                // evaluation (against an empty row) decides the query.
                if exempt.eval_bool(&Schema::new(vec![]), &Row::new(), eval_ctx).unwrap_or(false) {
                    continue;
                }
            }
            let Some(idx) = schema.index_of(&mask.column) else { continue };
            for row in &mut rows {
                row[idx] = mask.mask.eval(schema, row, eval_ctx)?;
            }
        }
        Ok(rows)
    }
}

/// Apply ORDER BY and LIMIT to an assembled result.
fn apply_order_and_limit(result: &mut QueryResult, query: &SelectQuery) -> EngineResult<()> {
    if let Some((col, desc)) = &query.order_by {
        let idx = result.columns.iter().position(|c| c == col).ok_or_else(|| {
            EngineError::Catalog(UcError::InvalidArgument(format!(
                "ORDER BY column {col} not in projection"
            )))
        })?;
        result.rows.sort_by(|a, b| {
            let ord = a[idx]
                .try_cmp(&b[idx])
                .unwrap_or(std::cmp::Ordering::Equal);
            if *desc {
                ord.reverse()
            } else {
                ord
            }
        });
    }
    if let Some(n) = query.limit {
        result.rows.truncate(n);
    }
    Ok(())
}

/// Apply a projection and assemble the result.
fn project(
    schema: &Schema,
    rows: Vec<Row>,
    projection: &Projection,
    files_scanned: usize,
) -> EngineResult<QueryResult> {
    match projection {
        Projection::CountStar => Ok(QueryResult {
            columns: vec!["count".into()],
            rows: vec![vec![Value::Int(rows.len() as i64)]],
            files_scanned,
            message: String::new(),
        }),
        Projection::Star => Ok(QueryResult {
            columns: schema.fields.iter().map(|f| f.name.clone()).collect(),
            rows,
            files_scanned,
            message: String::new(),
        }),
        Projection::Columns(cols) => {
            let mut indices = Vec::with_capacity(cols.len());
            for c in cols {
                indices.push(schema.index_of(c).ok_or_else(|| {
                    EngineError::Catalog(UcError::InvalidArgument(format!("unknown column {c}")))
                })?);
            }
            let rows = rows
                .into_iter()
                .map(|row| indices.iter().map(|&i| row[i].clone()).collect())
                .collect();
            Ok(QueryResult { columns: cols.clone(), rows, files_scanned, message: String::new() })
        }
    }
}
