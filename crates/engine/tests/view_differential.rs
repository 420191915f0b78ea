//! A view read as one scan against the same view read level by level.
//!
//! Each case draws a table (NULLs, ints and floats mixed in one numeric
//! column, strings) written by several INSERTs, so that it spans several
//! data files with their own stats; a caller (a user and groups); the
//! table's row filter and up to two masks (with exemptions); a view over
//! it — its WHERE over the table's columns and its columns, in any order —
//! with its own row filter and up to two masks over the view's columns;
//! and a caller's `SELECT` on the view — a predicate (half of whose
//! comparisons read a masked column, of either level) and a projection.
//!
//! A trusted engine runs the `SELECT`, the table and the view composed
//! into one plan over the table's cached cells, with file pruning. The
//! reference runs the two levels separately over the inserted rows,
//! through `uc_delta::Plan` over `&[Value]` rows (which
//! `crates/delta/tests/scan_differential.rs` checks against a spelled-out
//! evaluator): the table's level — its filter over stored values, its
//! masks, the view's WHERE over the masked row, the view's columns —
//! yields the view's rows; the view's level — its filter, its masks, the
//! caller's predicate, the caller's columns — runs over those. The
//! engine's rows must be the reference's, in order.

use std::sync::Arc;

use proptest::prelude::*;
use rand::Rng;
use uc_catalog::authz::fgac::{ColumnMaskPolicy, RowFilterPolicy};
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::types::FullName;
use uc_cloudstore::ObjectStore;
use uc_delta::expr::{CmpOp, EvalContext, Expr};
use uc_delta::value::{DataType, Field, Row, Schema, Value};
use uc_delta::{Mask, Plan, ScanSpec};
use uc_engine::sql::Projection;
use uc_engine::{parse_statement, Engine, EngineConfig, Statement};
use uc_txdb::Db;

const ADMIN: &str = "admin";
const COLUMNS: [(&str, DataType); 4] =
    [("id", DataType::Int), ("x", DataType::Float), ("name", DataType::Str), ("owner", DataType::Str)];
const USERS: [&str; 3] = ["ann", "bob", "cy"];
const GROUPS: [&str; 2] = ["hr", "eng"];

fn table_schema() -> Schema {
    Schema::new(COLUMNS.iter().map(|(n, t)| Field::new(n, *t)).collect())
}

/// A mask as the catalog stores it: column, mask, exemption.
type MaskDef = (String, Expr, Option<Expr>);

#[derive(Debug)]
struct Case {
    user: &'static str,
    groups: Vec<String>,
    /// One INSERT per data file.
    inserts: Vec<String>,
    table_filter: Option<Expr>,
    table_masks: Vec<MaskDef>,
    /// The view's columns, by index into `COLUMNS`; `None` is `*`.
    view_columns: Option<Vec<usize>>,
    view_where: Option<Expr>,
    view_filter: Option<Expr>,
    view_masks: Vec<MaskDef>,
    /// The caller's `SELECT` on the view.
    select: String,
}

impl Case {
    fn view_names(&self) -> Vec<&'static str> {
        match &self.view_columns {
            None => COLUMNS.iter().map(|(n, _)| *n).collect(),
            Some(cols) => cols.iter().map(|&c| COLUMNS[c].0).collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Cases
// ---------------------------------------------------------------------

struct Gen<'r> {
    rng: &'r mut TestRng,
    /// Columns (by name) a mask replaces, at either level, and the mask's
    /// literal if it is one: half of the caller's comparisons read such a
    /// column, and half of those compare it with that literal.
    masked: Vec<(&'static str, Option<Value>)>,
}

impl Gen<'_> {
    fn below(&mut self, n: usize) -> usize {
        self.rng.inner().gen_range(0..n)
    }

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len())]
    }

    fn type_of(column: &str) -> DataType {
        COLUMNS.iter().find(|(n, _)| *n == column).map(|(_, t)| *t).expect("a known column")
    }

    /// A value of `column`'s type, or NULL.
    fn cell(&mut self, column: &str) -> Value {
        if self.below(5) == 0 {
            return Value::Null;
        }
        match Self::type_of(column) {
            DataType::Int => Value::Int(self.below(7) as i64 - 3),
            DataType::Float if self.below(3) == 0 => Value::Int(self.below(7) as i64 - 3),
            DataType::Float => Value::Float(self.below(14) as f64 / 2.0 - 2.75),
            _ if column == "owner" => Value::Str(self.pick(&USERS).to_string()),
            _ => Value::Str(self.pick(&["", "a", "b", "ann"]).to_string()),
        }
    }

    fn literal(&mut self) -> Value {
        match self.below(6) {
            0 => Value::Null,
            1 => Value::Int(self.below(7) as i64 - 3),
            2 => Value::Float(self.below(14) as f64 / 2.0 - 2.75),
            3 => Value::Str(self.pick(&USERS).to_string()),
            4 => Value::Str(self.pick(&["", "a", "b"]).to_string()),
            _ => Value::Bool(self.below(2) == 0),
        }
    }

    /// A value of `column`'s type above every stored one: what no file's
    /// stats admit.
    fn beyond(column: &str) -> Value {
        match Self::type_of(column) {
            DataType::Int => Value::Int(9),
            DataType::Float => Value::Float(9.5),
            _ => Value::Str("zz".into()),
        }
    }

    fn literal_for(&mut self, column: &str) -> Value {
        match self.below(4) {
            0 => self.literal(),
            _ => self.cell(column),
        }
    }

    /// A comparison's operand over `columns`, as SQL can write one.
    fn operand(&mut self, columns: &[&'static str]) -> Expr {
        match self.below(5) {
            0 | 1 => Expr::Column(self.pick(columns).to_string()),
            2 => Expr::CurrentUser,
            _ => Expr::Literal(self.literal()),
        }
    }

    /// A boolean expression over `columns` at most `depth` connectives
    /// deep, of the shapes the parser builds (so that it reads back from
    /// its SQL as itself).
    fn predicate(&mut self, columns: &[&'static str], depth: usize) -> Expr {
        let leaf = depth == 0 || self.below(3) == 0;
        match if leaf { self.below(6) } else { 6 + self.below(3) } {
            0..=3 => {
                let op = self.pick(&[CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]);
                let (lhs, rhs) = if self.below(3) == 0 {
                    (self.operand(columns), self.operand(columns))
                } else {
                    // `column <op> literal` (or the caller), either way round
                    let masked: Vec<_> = self.masked.iter().filter(|(c, _)| columns.contains(c)).cloned().collect();
                    let (c, mask) = match self.below(2) {
                        0 if !masked.is_empty() => masked[self.below(masked.len())].clone(),
                        _ => (self.pick(columns), None),
                    };
                    let col = Expr::Column(c.to_string());
                    let lit = match (c, mask) {
                        (_, Some(mask)) if self.below(2) == 0 => Expr::Literal(mask),
                        ("owner", _) if self.below(2) == 0 => Expr::CurrentUser,
                        _ => Expr::Literal(self.literal_for(c)),
                    };
                    if self.below(4) == 0 { (lit, col) } else { (col, lit) }
                };
                Expr::Cmp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
            }
            4 if self.below(4) == 0 => Expr::IsNull(Box::new(self.operand(columns))),
            4 => Expr::IsNull(Box::new(Expr::Column(self.pick(columns).to_string()))),
            5 => Expr::IsAccountGroupMember(self.pick(&GROUPS).to_string()),
            6 => self.predicate(columns, depth - 1).and(self.predicate(columns, depth - 1)),
            7 => self.predicate(columns, depth - 1).or(self.predicate(columns, depth - 1)),
            _ => Expr::Not(Box::new(self.predicate(columns, depth - 1))),
        }
    }

    /// Up to two masks over distinct `columns` (a relation has one mask a
    /// column), each remembered as masked.
    fn masks(&mut self, columns: &[&'static str]) -> Vec<MaskDef> {
        let mut unmasked = columns.to_vec();
        (0..[0, 1, 1, 2][self.below(4)].min(columns.len()))
            .map(|_| {
                let i = self.below(unmasked.len());
                let column = unmasked.swap_remove(i);
                let mask = match self.below(3) {
                    0 => self.operand(columns),
                    1 => Expr::Literal(self.literal_for(column)),
                    _ => Expr::Literal(Self::beyond(column)),
                };
                let literal = match &mask {
                    Expr::Literal(v) => Some(v.clone()),
                    _ => None,
                };
                self.masked.push((column, literal));
                let exempt = (self.below(3) == 0).then(|| match self.below(2) {
                    0 => Expr::IsAccountGroupMember(self.pick(&GROUPS).to_string()),
                    _ => Expr::Cmp {
                        op: CmpOp::Eq,
                        lhs: Box::new(Expr::CurrentUser),
                        rhs: Box::new(Expr::Literal(Value::Str(self.pick(&USERS).to_string()))),
                    },
                });
                (column.to_string(), mask, exempt)
            })
            .collect()
    }

    /// Distinct columns of `of`, 1 to 4 of them, in a random order.
    fn some_of(&mut self, of: &[&'static str]) -> Vec<&'static str> {
        let mut left = of.to_vec();
        (0..1 + self.below(of.len()))
            .map(|_| {
                let i = self.below(left.len());
                left.swap_remove(i)
            })
            .collect()
    }

    fn case(&mut self) -> Case {
        let all: Vec<&'static str> = COLUMNS.iter().map(|(n, _)| *n).collect();
        let user = self.pick(&USERS);
        let groups = GROUPS.iter().filter(|_| self.below(2) == 0).map(|g| g.to_string()).collect();
        let n = self.below(24);
        let rows: Vec<Vec<String>> =
            (0..n).map(|_| all.iter().map(|c| sql_literal(&self.cell(c))).collect()).collect();
        let chunk = 1 + self.below(5);
        let inserts = rows
            .chunks(chunk)
            .map(|chunk| {
                let values: Vec<String> = chunk.iter().map(|r| format!("({})", r.join(", "))).collect();
                format!("INSERT INTO main.s.t VALUES {}", values.join(", "))
            })
            .collect();
        let table_filter = (self.below(4) == 0).then(|| self.predicate(&all, 1));
        let table_masks = self.masks(&all);
        let view_columns = (self.below(3) != 0).then(|| {
            self.some_of(&all).iter().map(|c| all.iter().position(|a| a == c).expect("a column")).collect()
        });
        let view_where = (self.below(3) == 0).then(|| self.predicate(&all, 1));
        let mut case = Case {
            user,
            groups,
            inserts,
            table_filter,
            table_masks,
            view_columns,
            view_where,
            view_filter: None,
            view_masks: Vec::new(),
            select: String::new(),
        };
        let view = case.view_names();
        case.view_filter = (self.below(4) == 0).then(|| self.predicate(&view, 1));
        case.view_masks = self.masks(&view);
        let projection = match self.below(4) {
            0 => "COUNT(*)".to_string(),
            1 => "*".to_string(),
            _ => self.some_of(&view).join(", "),
        };
        let mut predicate = (self.below(8) != 0).then(|| self.predicate(&view, 2));
        // A third of the time, a first conjunct that holds for every row a
        // literal mask replaced: what pruning past the mask would lose.
        let literal_masks: Vec<_> =
            self.masked.iter().filter(|(c, lit)| view.contains(c) && lit.is_some()).cloned().collect();
        if !literal_masks.is_empty() && self.below(3) == 0 {
            let (column, literal) = literal_masks[self.below(literal_masks.len())].clone();
            let op = self.pick(&[CmpOp::Eq, CmpOp::Le, CmpOp::Ge]);
            let pinned = Expr::cmp(column, op, literal.expect("a literal mask"));
            predicate = Some(match predicate {
                Some(p) => pinned.and(p),
                None => pinned,
            });
        }
        case.select = match predicate {
            Some(p) => format!("SELECT {projection} FROM main.s.v WHERE {p}"),
            None => format!("SELECT {projection} FROM main.s.v"),
        };
        case
    }
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{s}'"),
        v => v.to_string(),
    }
}

struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        Gen { rng, masked: Vec::new() }.case()
    }
}

// ---------------------------------------------------------------------
// The reference: two levels, run one after the other
// ---------------------------------------------------------------------

fn plan_masks(defs: &[MaskDef]) -> Vec<Mask<'_>> {
    defs.iter().map(|(column, mask, exempt)| Mask { column, mask, exempt_when: exempt.as_ref() }).collect()
}

fn reference(case: &Case) -> Result<Vec<Row>, String> {
    let ctx = EvalContext::new(case.user, case.groups.iter().cloned());
    let mut stored = Vec::new();
    for insert in &case.inserts {
        let Ok(Statement::Insert { rows, .. }) = parse_statement(insert) else { panic!("{insert}") };
        stored.extend(rows);
    }
    let table = table_schema();
    let view_names: Vec<String> = case.view_names().iter().map(|c| c.to_string()).collect();
    let view_schema = Schema::new(view_names.iter().map(|c| table.field(c).expect("a column").clone()).collect());
    let masks = plan_masks(&case.table_masks);
    let table_level = ScanSpec {
        row_filter: case.table_filter.as_ref(),
        masks: &masks,
        predicate: case.view_where.as_ref(),
        columns: case.view_columns.as_ref().map(|_| view_names.as_slice()),
        view: None,
    };
    let mut view_rows = Vec::new();
    Plan::bind(&table, &table_level, &ctx)
        .and_then(|p| p.run(stored.iter().map(Vec::as_slice), &mut view_rows))
        .map_err(|e| e.to_string())?;

    let Ok(Statement::Select(select)) = parse_statement(&case.select) else { panic!("{}", case.select) };
    let masks = plan_masks(&case.view_masks);
    let columns: Option<&[String]> = match &select.projection {
        Projection::Star => None,
        Projection::Columns(cols) => Some(cols),
        Projection::CountStar => Some(&[]),
    };
    let view_level = ScanSpec {
        row_filter: case.view_filter.as_ref(),
        masks: &masks,
        predicate: select.predicate.as_ref(),
        columns,
        view: None,
    };
    let mut out = Vec::new();
    Plan::bind(&view_schema, &view_level, &ctx)
        .and_then(|p| p.run(view_rows.iter().map(Vec::as_slice), &mut out))
        .map_err(|e| e.to_string())?;
    Ok(match select.projection {
        Projection::CountStar => vec![vec![Value::Int(out.len() as i64)]],
        _ => out,
    })
}

// ---------------------------------------------------------------------
// The system under test
// ---------------------------------------------------------------------

/// The case's table and view, governed as drawn, on a fresh node; the
/// caller's `SELECT` through a trusted engine: its rows and the number of
/// data files it read.
fn engine(case: &Case) -> Result<(Vec<Row>, usize), String> {
    let store = ObjectStore::in_memory();
    let uc = UnityCatalog::new(Db::in_memory(), store.clone(), UcConfig::default(), "node-0");
    let ms = uc.create_metastore(ADMIN, "views", "us-west-2").unwrap();
    let ctx = Context::user(ADMIN);
    let root = store.create_bucket("lake");
    uc.create_storage_credential(&ctx, &ms, "lake_cred", &root).unwrap();
    uc.set_metastore_root(&ctx, &ms, "s3://lake/managed").unwrap();
    let groups: Vec<&str> = case.groups.iter().map(String::as_str).collect();
    uc.upsert_principal(case.user, &groups).unwrap();
    let engine: Arc<Engine> = Engine::new(uc.clone(), ms.clone(), EngineConfig::trusted("dbr"));
    let mut admin = engine.session(ADMIN);
    admin.execute("CREATE CATALOG main").unwrap();
    admin.execute("CREATE SCHEMA main.s").unwrap();
    admin.execute("CREATE TABLE main.s.t (id BIGINT, x DOUBLE, name STRING, owner STRING)").unwrap();
    for insert in &case.inserts {
        admin.execute(insert).unwrap();
    }
    let columns = match &case.view_columns {
        None => "*".to_string(),
        Some(_) => case.view_names().join(", "),
    };
    let body = match &case.view_where {
        Some(p) => format!("SELECT {columns} FROM main.s.t WHERE {p}"),
        None => format!("SELECT {columns} FROM main.s.t"),
    };
    admin.execute(&format!("CREATE VIEW main.s.v AS {body}")).unwrap();
    let Ok(Statement::CreateView { query, .. }) = parse_statement(&format!("CREATE VIEW main.s.v AS {body}")) else {
        panic!("{body}")
    };
    assert_eq!(query.predicate, case.view_where, "the view's WHERE reads back as drawn: {body}");
    for (relation, filter, masks) in
        [("main.s.t", &case.table_filter, &case.table_masks), ("main.s.v", &case.view_filter, &case.view_masks)]
    {
        let name = FullName::parse(relation).unwrap();
        if let Some(expr) = filter {
            uc.set_row_filter(&ctx, &ms, &name, RowFilterPolicy { expr: expr.clone() }).unwrap();
        }
        for (column, mask, exempt_when) in masks {
            let policy = ColumnMaskPolicy { column: column.clone(), mask: mask.clone(), exempt_when: exempt_when.clone() };
            uc.set_column_mask(&ctx, &ms, &name, policy).unwrap();
        }
        uc.grant_read_path(&ctx, &ms, relation, case.user).unwrap();
    }
    let select = || {
        let result = engine.session(case.user).execute(&case.select);
        result.map(|r| (r.rows, r.files_scanned)).map_err(|e| e.to_string())
    };
    let result = select();
    // a second, warm read (the parsed body and the decoded files cached)
    // returns the same
    let again = select();
    assert_eq!(result, again, "a warm read of {case:#?}");
    result
}

fn run(case: &Case) {
    match (reference(case), engine(case)) {
        (Ok(expect), got) => assert_eq!(got.map(|(rows, _)| rows), Ok(expect), "{case:#?}"),
        (Err(_), got) => assert!(got.is_err(), "{case:#?}: {got:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_view_read_as_one_scan_agrees_with_its_two_levels(case in Cases) {
        run(&case);
    }
}

/// The generator reaches what the property is about: cases whose caller
/// predicate reads a column a mask replaces and still keeps rows, cases
/// with a base level that keeps some rows but not all, and cases where the
/// table spans more than one file.
#[test]
fn the_cases_reach_masked_predicates_and_several_files() {
    let (mut masked_reads, mut partial, mut files) = (0, 0, 0);
    for seed in 0..256 {
        let case = Cases.generate(&mut TestRng::from_seed(seed));
        let Ok(rows) = reference(&case) else { continue };
        let masked: Vec<&str> = case.table_masks.iter().chain(&case.view_masks).map(|(c, _, _)| c.as_str()).collect();
        let Ok(Statement::Select(select)) = parse_statement(&case.select) else { continue };
        masked_reads +=
            (!rows.is_empty() && select.predicate.as_ref().is_some_and(|p| p.reads_any(|c| masked.contains(&c)))) as u32;
        let stored: usize = case.inserts.iter().map(|i| i.matches("), (").count() + 1).sum();
        let counted = select.projection == Projection::CountStar;
        partial += (!counted && !rows.is_empty() && rows.len() < stored) as u32;
        files += (case.inserts.len() > 1) as u32;
    }
    assert!(masked_reads >= 30, "only {masked_reads} of 256 cases read a masked column and keep rows");
    assert!(partial >= 15, "only {partial} of 256 cases kept some rows but not all");
    assert!(files >= 150, "only {files} of 256 cases span several files");
}

/// A caller's comparison over a column the view masks reads the mask, not
/// what the table's file stats describe: a file whose stored `name`s are
/// all below `'zz'` still holds rows whose masked `name` is `'zz'`. And a
/// comparison over an unmasked column is pushed into the table's pruning:
/// it reads one file of three.
#[test]
fn a_comparison_over_a_masked_view_column_prunes_no_file() {
    let inserts = ["(1, 0.25, 'a', 'ann'), (2, 0.5, 'b', 'bob')", "(3, 1.25, 'a', 'cy')", "(4, 2.25, 'b', 'ann')"]
        .map(|v| format!("INSERT INTO main.s.t VALUES {v}"));
    let mut case = Case {
        user: "ann",
        groups: Vec::new(),
        inserts: inserts.to_vec(),
        table_filter: None,
        table_masks: Vec::new(),
        view_columns: Some(vec![0, 2]),
        view_where: Some(Expr::cmp("id", CmpOp::Ge, 2i64)),
        view_filter: None,
        view_masks: vec![("name".into(), Expr::Literal(Value::Str("zz".into())), None)],
        select: "SELECT id FROM main.s.v WHERE name = 'zz'".into(),
    };
    assert_eq!(reference(&case).unwrap(), [2, 3, 4].map(|i| vec![Value::Int(i)]));
    run(&case);
    assert_eq!(engine(&case).unwrap().1, 3, "the view's WHERE prunes no file; the masked comparison none");
    case.select = "SELECT id FROM main.s.v WHERE id = 3 AND name = 'zz'".into();
    run(&case);
    assert_eq!(engine(&case).unwrap().1, 1, "the comparison over `id` prunes two files");
}
