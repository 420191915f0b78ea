//! A hand-written SQL dialect: lexer, expression parser, statements.
//!
//! The dialect covers what the paper's workloads need — DDL over the
//! catalog's asset types, grants, inserts, single-relation selects with
//! predicates, transactions, and table maintenance. Expressions reuse
//! [`uc_delta::expr::Expr`], so the same language serves WHERE clauses,
//! row filters, and column masks.

use uc_catalog::types::FullName;
use uc_delta::expr::{CmpOp, Expr};
use uc_delta::value::{DataType, Value};

use crate::error::{EngineError, EngineResult};

/// Projection list of a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    Star,
    Columns(Vec<String>),
    /// `COUNT(*)`.
    CountStar,
}

/// A single-relation SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    pub projection: Projection,
    pub from: FullName,
    pub predicate: Option<Expr>,
    /// ORDER BY column (descending when the flag is set).
    pub order_by: Option<(String, bool)>,
    pub limit: Option<usize>,
}

/// Kinds of object DDL can address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    Catalog,
    Schema,
    Table,
    View,
    Volume,
}

impl ObjectKind {
    /// The catalog namespace group for this kind.
    pub fn name_group(self) -> &'static str {
        match self {
            ObjectKind::Catalog => "catalog",
            ObjectKind::Schema => "schema",
            ObjectKind::Table | ObjectKind::View => "relation",
            ObjectKind::Volume => "volume",
        }
    }
}

/// One parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateCatalog { name: String },
    CreateSchema { catalog: String, name: String },
    CreateTable {
        name: FullName,
        columns: Vec<(String, DataType, bool)>,
        location: Option<String>,
        format: Option<String>,
    },
    CreateView { name: FullName, query: SelectQuery, sql: String },
    CreateShallowClone { name: FullName, source: FullName },
    CreateVolume { name: FullName, location: Option<String> },
    Insert { table: FullName, rows: Vec<Vec<Value>> },
    Delete { table: FullName, predicate: Option<Expr> },
    Select(SelectQuery),
    Grant { privilege: String, kind: ObjectKind, on: FullName, to: String },
    Revoke { privilege: String, kind: ObjectKind, on: FullName, from: String },
    Drop { kind: ObjectKind, name: FullName },
    Begin,
    Commit,
    Rollback,
    Optimize { table: FullName },
    Vacuum { table: FullName },
    Describe { table: FullName },
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

/// A token, borrowed from the statement's text: the lexer copies nothing,
/// and a `String` is made only where the syntax tree keeps one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'s> {
    Ident(&'s str),
    /// A string literal's contents, between its quotes.
    Str(&'s str),
    Num(&'s str),
    Punct(&'static str),
}

/// Operators of two characters, tried before the one-character ones.
const PUNCT2: [&str; 4] = ["<=", ">=", "<>", "!="];
/// The one-character operators, each its own `&'static str`.
const PUNCT1: [&str; 9] = ["(", ")", ",", ".", "*", "=", "<", ">", ";"];

/// One pass over the input's bytes. Every token boundary is an ASCII byte,
/// so each token is a slice of `input`; a non-ASCII character is
/// whitespace to skip or an error, and may appear only inside a string.
fn lex(input: &str) -> EngineResult<Vec<Token<'_>>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let start = i;
        if c.is_ascii_alphabetic() || c == b'_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            tokens.push(Token::Ident(&input[start..i]));
        } else if c.is_ascii_digit() || (c == b'-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)) {
            i += 1;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                i += 1;
            }
            tokens.push(Token::Num(&input[start..i]));
        } else if c == b'\'' {
            let Some(len) = bytes[i + 1..].iter().position(|&b| b == b'\'') else {
                return Err(EngineError::Parse("unterminated string literal".into()));
            };
            tokens.push(Token::Str(&input[i + 1..i + 1 + len]));
            i += len + 2;
        } else if let Some(p) = PUNCT2.iter().find(|p| bytes[i..].starts_with(p.as_bytes())) {
            tokens.push(Token::Punct(p));
            i += 2;
        } else if let Some(p) = PUNCT1.iter().find(|p| p.as_bytes()[0] == c) {
            tokens.push(Token::Punct(p));
            i += 1;
        } else {
            // whitespace, or a character no token starts with
            let Some(ch) = input[i..].chars().next() else { break };
            if !ch.is_whitespace() {
                return Err(EngineError::Parse(format!("unexpected character {ch:?}")));
            }
            i += ch.len_utf8();
        }
    }
    Ok(tokens)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'s> {
    tokens: Vec<Token<'s>>,
    pos: usize,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Option<Token<'s>> {
        self.tokens.get(self.pos).copied()
    }

    fn next(&mut self) -> EngineResult<Token<'s>> {
        let t = self.peek().ok_or_else(|| EngineError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn at_end(&self) -> bool {
        matches!(self.peek(), None | Some(Token::Punct(";")))
    }

    /// Consume a keyword (case-insensitive); error if absent.
    fn expect_kw(&mut self, kw: &str) -> EngineResult<()> {
        match self.next()? {
            Token::Ident(w) if w.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(EngineError::Parse(format!("expected {kw}, found {other:?}"))),
        }
    }

    /// Consume a keyword if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(w)) if w.eq_ignore_ascii_case(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Token::Punct(q)) if q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> EngineResult<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(EngineError::Parse(format!("expected {p:?}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> EngineResult<&'s str> {
        match self.next()? {
            Token::Ident(w) => Ok(w),
            other => Err(EngineError::Parse(format!("expected identifier, found {other:?}"))),
        }
    }

    fn qualified_name(&mut self) -> EngineResult<FullName> {
        let mut parts = Vec::with_capacity(3);
        parts.push(self.ident()?.to_string());
        while self.eat_punct(".") {
            parts.push(self.ident()?.to_string());
        }
        FullName::from_parts(parts).map_err(|e| EngineError::Parse(e.to_string()))
    }

    fn string(&mut self) -> EngineResult<String> {
        match self.next()? {
            Token::Str(s) => Ok(s.to_string()),
            other => Err(EngineError::Parse(format!("expected string literal, found {other:?}"))),
        }
    }

    // --- expressions -------------------------------------------------

    fn expr(&mut self) -> EngineResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> EngineResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> EngineResult<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> EngineResult<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> EngineResult<Expr> {
        let lhs = self.primary()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            let e = Expr::IsNull(Box::new(lhs));
            return Ok(if negated { Expr::Not(Box::new(e)) } else { e });
        }
        let op = match self.peek() {
            Some(Token::Punct(p)) => match p {
                "=" => CmpOp::Eq,
                "<>" | "!=" => CmpOp::Ne,
                "<" => CmpOp::Lt,
                "<=" => CmpOp::Le,
                ">" => CmpOp::Gt,
                ">=" => CmpOp::Ge,
                _ => return Ok(lhs),
            },
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.primary()?;
        Ok(Expr::Cmp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) })
    }

    fn primary(&mut self) -> EngineResult<Expr> {
        match self.next()? {
            Token::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Token::Num(n) => Ok(Expr::Literal(parse_number(n)?)),
            Token::Str(s) => Ok(Expr::Literal(Value::Str(s.to_string()))),
            Token::Ident(w) if w.eq_ignore_ascii_case("TRUE") => Ok(Expr::Literal(Value::Bool(true))),
            Token::Ident(w) if w.eq_ignore_ascii_case("FALSE") => Ok(Expr::Literal(Value::Bool(false))),
            Token::Ident(w) if w.eq_ignore_ascii_case("NULL") => Ok(Expr::Literal(Value::Null)),
            Token::Ident(w) if w.eq_ignore_ascii_case("current_user") => {
                self.expect_punct("(")?;
                self.expect_punct(")")?;
                Ok(Expr::CurrentUser)
            }
            Token::Ident(w) if w.eq_ignore_ascii_case("is_account_group_member") => {
                self.expect_punct("(")?;
                let group = self.string()?;
                self.expect_punct(")")?;
                Ok(Expr::IsAccountGroupMember(group))
            }
            Token::Ident(col) => Ok(Expr::Column(col.to_string())),
            other => Err(EngineError::Parse(format!("unexpected token in expression: {other:?}"))),
        }
    }

    // --- statements ---------------------------------------------------

    fn select_query(&mut self) -> EngineResult<SelectQuery> {
        // SELECT already consumed
        let projection = if self.eat_punct("*") {
            Projection::Star
        } else if matches!(self.peek(), Some(Token::Ident(w)) if w.eq_ignore_ascii_case("COUNT")) {
            self.pos += 1;
            self.expect_punct("(")?;
            self.expect_punct("*")?;
            self.expect_punct(")")?;
            Projection::CountStar
        } else {
            let mut cols = vec![self.ident()?.to_string()];
            while self.eat_punct(",") {
                cols.push(self.ident()?.to_string());
            }
            Projection::Columns(cols)
        };
        self.expect_kw("FROM")?;
        let from = self.qualified_name()?;
        let predicate = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let order_by = if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            let col = self.ident()?.to_string();
            let desc = if self.eat_kw("DESC") {
                true
            } else {
                self.eat_kw("ASC");
                false
            };
            Some((col, desc))
        } else {
            None
        };
        let limit = if self.eat_kw("LIMIT") {
            match self.next()? {
                Token::Num(n) => Some(n.parse::<usize>().map_err(|_| {
                    EngineError::Parse(format!("bad LIMIT {n}"))
                })?),
                other => return Err(EngineError::Parse(format!("expected LIMIT count, found {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectQuery { projection, from, predicate, order_by, limit })
    }

    fn value_literal(&mut self) -> EngineResult<Value> {
        match self.next()? {
            Token::Num(n) => parse_number(n),
            Token::Str(s) => Ok(Value::Str(s.to_string())),
            Token::Ident(w) if w.eq_ignore_ascii_case("NULL") => Ok(Value::Null),
            Token::Ident(w) if w.eq_ignore_ascii_case("TRUE") => Ok(Value::Bool(true)),
            Token::Ident(w) if w.eq_ignore_ascii_case("FALSE") => Ok(Value::Bool(false)),
            other => Err(EngineError::Parse(format!("expected literal, found {other:?}"))),
        }
    }

    fn object_kind(&mut self) -> EngineResult<ObjectKind> {
        let w = self.ident()?;
        match keyword(w, &["CATALOG", "SCHEMA", "DATABASE", "TABLE", "VIEW", "VOLUME"]) {
            "CATALOG" => Ok(ObjectKind::Catalog),
            "SCHEMA" | "DATABASE" => Ok(ObjectKind::Schema),
            "TABLE" => Ok(ObjectKind::Table),
            "VIEW" => Ok(ObjectKind::View),
            "VOLUME" => Ok(ObjectKind::Volume),
            _ => Err(EngineError::Parse(format!("unknown object kind {}", w.to_ascii_uppercase()))),
        }
    }

    fn statement(&mut self) -> EngineResult<Statement> {
        let head = self.ident()?;
        let stmt = match keyword(head, &STATEMENT_KEYWORDS) {
            "CREATE" => self.create_statement()?,
            "INSERT" => {
                self.expect_kw("INTO")?;
                let table = self.qualified_name()?;
                self.expect_kw("VALUES")?;
                let mut rows = Vec::new();
                loop {
                    self.expect_punct("(")?;
                    let mut row = vec![self.value_literal()?];
                    while self.eat_punct(",") {
                        row.push(self.value_literal()?);
                    }
                    self.expect_punct(")")?;
                    rows.push(row);
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                Statement::Insert { table, rows }
            }
            "SELECT" => Statement::Select(self.select_query()?),
            "DELETE" => {
                self.expect_kw("FROM")?;
                let table = self.qualified_name()?;
                let predicate = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
                Statement::Delete { table, predicate }
            }
            "GRANT" => {
                let privilege = self.privilege_name()?;
                self.expect_kw("ON")?;
                let kind = self.object_kind()?;
                let on = self.qualified_name()?;
                self.expect_kw("TO")?;
                let to = self.grantee()?;
                Statement::Grant { privilege, kind, on, to }
            }
            "REVOKE" => {
                let privilege = self.privilege_name()?;
                self.expect_kw("ON")?;
                let kind = self.object_kind()?;
                let on = self.qualified_name()?;
                self.expect_kw("FROM")?;
                let from = self.grantee()?;
                Statement::Revoke { privilege, kind, on, from }
            }
            "DROP" => {
                let kind = self.object_kind()?;
                let name = self.qualified_name()?;
                Statement::Drop { kind, name }
            }
            "BEGIN" => Statement::Begin,
            "COMMIT" => Statement::Commit,
            "ROLLBACK" => Statement::Rollback,
            "OPTIMIZE" => Statement::Optimize { table: self.qualified_name()? },
            "VACUUM" => Statement::Vacuum { table: self.qualified_name()? },
            "DESCRIBE" | "DESC" => Statement::Describe { table: self.qualified_name()? },
            _ => return Err(EngineError::Parse(format!("unknown statement {}", head.to_ascii_uppercase()))),
        };
        if !self.at_end() {
            return Err(EngineError::Parse(format!(
                "trailing tokens after statement: {:?}",
                self.peek()
            )));
        }
        Ok(stmt)
    }

    fn privilege_name(&mut self) -> EngineResult<String> {
        // Privileges can be two words (USE CATALOG / USE SCHEMA / ALL
        // PRIVILEGES / CREATE TABLE …); greedily join while the next token
        // is not ON.
        let mut privilege = self.ident()?.to_ascii_uppercase();
        while let Some(Token::Ident(w)) = self.peek() {
            if w.eq_ignore_ascii_case("ON") {
                break;
            }
            self.pos += 1;
            privilege.push(' ');
            privilege.extend(w.chars().map(|c| c.to_ascii_uppercase()));
        }
        Ok(privilege)
    }

    fn grantee(&mut self) -> EngineResult<String> {
        match self.next()? {
            Token::Ident(w) | Token::Str(w) => Ok(w.to_string()),
            other => Err(EngineError::Parse(format!("expected grantee, found {other:?}"))),
        }
    }

    fn create_statement(&mut self) -> EngineResult<Statement> {
        let kind = self.object_kind()?;
        match kind {
            ObjectKind::Catalog => Ok(Statement::CreateCatalog { name: self.ident()?.to_string() }),
            ObjectKind::Schema => {
                let name = self.qualified_name()?;
                let Some(schema) = name.schema().filter(|_| name.len() == 2) else {
                    return Err(EngineError::Parse("CREATE SCHEMA needs catalog.schema".into()));
                };
                Ok(Statement::CreateSchema {
                    catalog: name.catalog().to_string(),
                    name: schema.to_string(),
                })
            }
            ObjectKind::Table => {
                let name = self.qualified_name()?;
                if self.eat_kw("SHALLOW") {
                    self.expect_kw("CLONE")?;
                    let source = self.qualified_name()?;
                    return Ok(Statement::CreateShallowClone { name, source });
                }
                self.expect_punct("(")?;
                let mut columns = Vec::new();
                loop {
                    let col = self.ident()?;
                    let ty_name = self.ident()?;
                    let dt = DataType::parse(ty_name)
                        .ok_or_else(|| EngineError::Parse(format!("unknown type {ty_name}")))?;
                    let mut nullable = true;
                    if self.eat_kw("NOT") {
                        self.expect_kw("NULL")?;
                        nullable = false;
                    }
                    columns.push((col.to_string(), dt, nullable));
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct(")")?;
                let mut location = None;
                let mut format = None;
                loop {
                    if self.eat_kw("USING") {
                        format = Some(self.ident()?.to_ascii_uppercase());
                    } else if self.eat_kw("LOCATION") {
                        location = Some(self.string()?);
                    } else {
                        break;
                    }
                }
                Ok(Statement::CreateTable { name, columns, location, format })
            }
            ObjectKind::View => {
                let name = self.qualified_name()?;
                self.expect_kw("AS")?;
                self.expect_kw("SELECT")?;
                let query = self.select_query()?;
                // Store a canonical re-rendering of the defining query; the
                // engine re-parses it when expanding the view.
                let sql = render_select(&query);
                Ok(Statement::CreateView { name, query, sql })
            }
            ObjectKind::Volume => {
                let name = self.qualified_name()?;
                let location = if self.eat_kw("LOCATION") { Some(self.string()?) } else { None };
                Ok(Statement::CreateVolume { name, location })
            }
        }
    }
}

/// The words a statement can start with.
const STATEMENT_KEYWORDS: [&str; 14] = [
    "CREATE", "INSERT", "SELECT", "DELETE", "GRANT", "REVOKE", "DROP", "BEGIN", "COMMIT", "ROLLBACK",
    "OPTIMIZE", "VACUUM", "DESCRIBE", "DESC",
];

/// The keyword of `keywords` that `word` spells, in any case; `""` when
/// none does.
fn keyword(word: &str, keywords: &[&'static str]) -> &'static str {
    keywords.iter().find(|k| word.eq_ignore_ascii_case(k)).copied().unwrap_or("")
}

fn parse_number(n: &str) -> EngineResult<Value> {
    if n.contains('.') {
        n.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| EngineError::Parse(format!("bad number {n}")))
    } else {
        n.parse::<i64>()
            .map(Value::Int)
            .map_err(|_| EngineError::Parse(format!("bad number {n}")))
    }
}

/// Render a select query back to parseable SQL (used for view storage).
pub fn render_select(q: &SelectQuery) -> String {
    let cols = match &q.projection {
        Projection::Star => "*".to_string(),
        Projection::Columns(cs) => cs.join(", "),
        Projection::CountStar => "COUNT(*)".to_string(),
    };
    let mut sql = match &q.predicate {
        Some(p) => format!("SELECT {cols} FROM {} WHERE {p}", q.from),
        None => format!("SELECT {cols} FROM {}", q.from),
    };
    if let Some((col, desc)) = &q.order_by {
        sql.push_str(&format!(" ORDER BY {col}{}", if *desc { " DESC" } else { "" }));
    }
    if let Some(n) = q.limit {
        sql.push_str(&format!(" LIMIT {n}"));
    }
    sql
}

/// Parse one SQL statement.
pub fn parse_statement(sql: &str) -> EngineResult<Statement> {
    let tokens = lex(sql)?;
    if tokens.is_empty() {
        return Err(EngineError::Parse("empty statement".into()));
    }
    Parser { tokens, pos: 0 }.statement()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(sql: &str) -> Statement {
        parse_statement(sql).unwrap()
    }

    #[test]
    fn parses_create_catalog_and_schema() {
        assert_eq!(p("CREATE CATALOG main"), Statement::CreateCatalog { name: "main".into() });
        assert_eq!(
            p("create schema main.sales"),
            Statement::CreateSchema { catalog: "main".into(), name: "sales".into() }
        );
    }

    #[test]
    fn parses_create_table_with_types_and_options() {
        let stmt = p(
            "CREATE TABLE main.sales.orders (id BIGINT NOT NULL, name STRING, total DOUBLE) \
             USING delta LOCATION 's3://bkt/x'",
        );
        match stmt {
            Statement::CreateTable { name, columns, location, format } => {
                assert_eq!(name.to_string(), "main.sales.orders");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[0], ("id".into(), DataType::Int, false));
                assert_eq!(columns[1], ("name".into(), DataType::Str, true));
                assert_eq!(location.as_deref(), Some("s3://bkt/x"));
                assert_eq!(format.as_deref(), Some("DELTA"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_select_star_and_projection() {
        match p("SELECT * FROM main.sales.orders") {
            Statement::Select(q) => {
                assert_eq!(q.projection, Projection::Star);
                assert_eq!(q.from.to_string(), "main.sales.orders");
                assert!(q.predicate.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        match p("SELECT id, name FROM t WHERE id >= 10 AND name = 'bob' OR id IS NULL") {
            Statement::Select(q) => {
                assert_eq!(q.projection, Projection::Columns(vec!["id".into(), "name".into()]));
                assert!(q.predicate.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_order_by_and_limit() {
        match p("SELECT * FROM t WHERE x > 1 ORDER BY x DESC LIMIT 5") {
            Statement::Select(q) => {
                assert_eq!(q.order_by, Some(("x".to_string(), true)));
                assert_eq!(q.limit, Some(5));
                let rendered = render_select(&q);
                assert!(rendered.ends_with("ORDER BY x DESC LIMIT 5"), "{rendered}");
                assert!(parse_statement(&rendered).is_ok());
            }
            other => panic!("unexpected {other:?}"),
        }
        match p("SELECT x FROM t ORDER BY x ASC") {
            Statement::Select(q) => assert_eq!(q.order_by, Some(("x".to_string(), false))),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_statement("SELECT * FROM t LIMIT many").is_err());
    }

    #[test]
    fn parses_count_star() {
        match p("SELECT COUNT(*) FROM main.s.t WHERE x > 0") {
            Statement::Select(q) => {
                assert_eq!(q.projection, Projection::CountStar);
                assert!(q.predicate.is_some());
                // renders back to parseable SQL
                let rendered = render_select(&q);
                assert!(rendered.starts_with("SELECT COUNT(*)"));
                assert!(parse_statement(&rendered).is_ok());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_where_functions() {
        match p("SELECT * FROM t WHERE owner = current_user() AND is_account_group_member('hr')") {
            Statement::Select(q) => {
                let e = q.predicate.unwrap();
                let s = e.to_string();
                assert!(s.contains("current_user()"));
                assert!(s.contains("is_account_group_member('hr')"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_insert_multi_row() {
        match p("INSERT INTO main.s.t VALUES (1, 'a', 1.5), (2, NULL, -0.5)") {
            Statement::Insert { table, rows } => {
                assert_eq!(table.to_string(), "main.s.t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0], Value::Int(1));
                assert_eq!(rows[1][1], Value::Null);
                assert_eq!(rows[1][2], Value::Float(-0.5));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_grant_revoke() {
        assert_eq!(
            p("GRANT SELECT ON TABLE main.s.t TO alice"),
            Statement::Grant {
                privilege: "SELECT".into(),
                kind: ObjectKind::Table,
                on: FullName::parse("main.s.t").unwrap(),
                to: "alice".into()
            }
        );
        assert_eq!(
            p("GRANT USE CATALOG ON CATALOG main TO analysts"),
            Statement::Grant {
                privilege: "USE CATALOG".into(),
                kind: ObjectKind::Catalog,
                on: FullName::parse("main").unwrap(),
                to: "analysts".into()
            }
        );
        assert!(matches!(p("REVOKE SELECT ON TABLE main.s.t FROM alice"), Statement::Revoke { .. }));
    }

    #[test]
    fn parses_delete() {
        match p("DELETE FROM main.s.t WHERE x < 5") {
            Statement::Delete { table, predicate } => {
                assert_eq!(table.to_string(), "main.s.t");
                assert!(predicate.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(p("DELETE FROM t"), Statement::Delete { predicate: None, .. }));
    }

    #[test]
    fn parses_maintenance_and_txn() {
        assert!(matches!(p("OPTIMIZE main.s.t"), Statement::Optimize { .. }));
        assert!(matches!(p("VACUUM main.s.t"), Statement::Vacuum { .. }));
        assert_eq!(p("BEGIN"), Statement::Begin);
        assert_eq!(p("COMMIT"), Statement::Commit);
        assert_eq!(p("ROLLBACK"), Statement::Rollback);
        assert!(matches!(p("DESCRIBE main.s.t"), Statement::Describe { .. }));
        assert!(matches!(p("DROP VIEW main.s.v"), Statement::Drop { kind: ObjectKind::View, .. }));
    }

    #[test]
    fn parses_shallow_clone() {
        match p("CREATE TABLE main.s.snap SHALLOW CLONE main.s.base") {
            Statement::CreateShallowClone { name, source } => {
                assert_eq!(name.to_string(), "main.s.snap");
                assert_eq!(source.to_string(), "main.s.base");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_create_view() {
        match p("CREATE VIEW main.s.v AS SELECT id FROM main.s.t WHERE id > 5") {
            Statement::CreateView { name, query, .. } => {
                assert_eq!(name.to_string(), "main.s.v");
                assert_eq!(query.from.to_string(), "main.s.t");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_statement("").is_err());
        assert!(parse_statement("FLY me TO the moon").is_err());
        assert!(parse_statement("SELECT FROM t").is_err());
        assert!(parse_statement("SELECT * FROM t WHERE 'unterminated").is_err());
        assert!(parse_statement("SELECT * FROM t extra_token junk").is_err());
        assert!(parse_statement("CREATE TABLE t (x FANCYTYPE)").is_err());
    }

    #[test]
    fn trailing_semicolon_is_fine() {
        assert!(matches!(p("BEGIN;"), Statement::Begin));
    }
}
