//! The planned scan and `delete_where` against a reference evaluator
//! written here: a plain tree interpreter over owned rows, by column name,
//! with SQL's three-valued logic spelled out.
//!
//! Each case draws a table (NULLs, ints and floats mixed in one numeric
//! column, strings), a caller (a user and groups), a row filter, up to two
//! column masks (with exemptions), a predicate over AND / OR / NOT /
//! IS NULL / comparisons / `current_user()` / group membership, and a
//! projection. The rows a scan keeps must be the reference's, in order: the
//! filter over stored values, the masks in order (each reading the ones
//! before it), the predicate over the masked row, then the projection —
//! both through `DeltaTable::scan_planned` over cached cells (where stats
//! pruning must not change the answer) and through `Plan::run` over
//! `&[Value]` rows (a view's level). `delete_where` must keep exactly the rows the reference's
//! predicate does not hold for.

#![allow(clippy::unwrap_used, reason = "helpers outside #[test] functions fail the test as a test body does")]

use std::cmp::Ordering;

use proptest::prelude::*;
use rand::Rng;
use uc_cloudstore::{Credential, ObjectStore, StoragePath};
use uc_delta::expr::{CmpOp, EvalContext, Expr};
use uc_delta::value::{DataType, Field, Row, Schema, Value};
use uc_delta::{DeltaError, DeltaTable, Mask, Plan, ScanSpec};

const COLUMNS: [(&str, DataType); 4] =
    [("id", DataType::Int), ("x", DataType::Float), ("name", DataType::Str), ("owner", DataType::Str)];
const USERS: [&str; 3] = ["ann", "bob", "cy"];
const GROUPS: [&str; 2] = ["hr", "eng"];

fn schema() -> Schema {
    Schema::new(COLUMNS.iter().map(|(n, t)| Field::new(n, *t)).collect())
}

// ---------------------------------------------------------------------
// Reference
// ---------------------------------------------------------------------

struct Caller {
    user: String,
    groups: Vec<String>,
}

fn position(name: &str) -> Result<usize, String> {
    COLUMNS.iter().position(|(n, _)| *n == name).ok_or(format!("unknown column {name}"))
}

fn compare(a: &Value, b: &Value) -> Option<Ordering> {
    match (a, b) {
        (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            let f = |v: &Value| match v {
                Value::Int(i) => *i as f64,
                Value::Float(f) => *f,
                _ => unreachable!(),
            };
            f(a).partial_cmp(&f(b))
        }
        (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
        (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
        _ => None,
    }
}

fn value(e: &Expr, row: &[Value], who: &Caller) -> Result<Value, String> {
    Ok(match e {
        Expr::Column(c) => row[position(c)?].clone(),
        Expr::Literal(v) => v.clone(),
        Expr::CurrentUser => Value::Str(who.user.clone()),
        Expr::IsAccountGroupMember(g) => Value::Bool(who.groups.contains(g)),
        Expr::IsNull(inner) => Value::Bool(matches!(value(inner, row, who)?, Value::Null)),
        _ => match truth(e, row, who)? {
            Some(b) => Value::Bool(b),
            None => Value::Null,
        },
    })
}

fn truth(e: &Expr, row: &[Value], who: &Caller) -> Result<Option<bool>, String> {
    Ok(match e {
        Expr::Cmp { op, lhs, rhs } => {
            compare(&value(lhs, row, who)?, &value(rhs, row, who)?).map(|o| match op {
                CmpOp::Eq => o == Ordering::Equal,
                CmpOp::Ne => o != Ordering::Equal,
                CmpOp::Lt => o == Ordering::Less,
                CmpOp::Le => o != Ordering::Greater,
                CmpOp::Gt => o == Ordering::Greater,
                CmpOp::Ge => o != Ordering::Less,
            })
        }
        Expr::And(a, b) => match (truth(a, row, who)?, truth(b, row, who)?) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Expr::Or(a, b) => match (truth(a, row, who)?, truth(b, row, who)?) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        Expr::Not(a) => truth(a, row, who)?.map(|b| !b),
        _ => match value(e, row, who)? {
            Value::Bool(b) => Some(b),
            Value::Null => None,
            other => return Err(format!("expected boolean, got {other}")),
        },
    })
}

fn holds(e: &Expr, row: &[Value], who: &Caller) -> Result<bool, String> {
    Ok(truth(e, row, who)? == Some(true))
}

/// What a governed read of `rows` returns, spelled out.
fn reference(case: &Case, rows: &[Row]) -> Result<Vec<Row>, String> {
    let who = &case.caller;
    let mut out = Vec::new();
    for stored in rows {
        if let Some(f) = &case.filter {
            if !holds(f, stored, who)? {
                continue;
            }
        }
        let mut row = stored.clone();
        for (column, mask, exempt) in &case.masks {
            if exempt.as_ref().is_some_and(|e| holds(e, &[], who).unwrap_or(false)) {
                continue;
            }
            row[position(column)?] = value(mask, &row, who)?;
        }
        if let Some(p) = &case.predicate {
            if !holds(p, &row, who)? {
                continue;
            }
        }
        out.push(match &case.columns {
            None => row,
            Some(cols) => cols.iter().map(|c| Ok(row[position(c)?].clone())).collect::<Result<_, String>>()?,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Cases
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Case {
    caller: Caller,
    rows: Vec<Row>,
    /// Rows per data file.
    chunk: usize,
    filter: Option<Expr>,
    masks: Vec<(String, Expr, Option<Expr>)>,
    predicate: Option<Expr>,
    columns: Option<Vec<String>>,
}

impl std::fmt::Debug for Caller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} in {:?}", self.user, self.groups)
    }
}

struct Gen<'r> {
    rng: &'r mut TestRng,
    /// The masked columns, which half of the predicate's comparisons read.
    masked: Vec<usize>,
}

impl Gen<'_> {
    fn below(&mut self, n: usize) -> usize {
        self.rng.inner().gen_range(0..n)
    }

    fn pick<'a, T>(&mut self, of: &'a [T]) -> &'a T {
        &of[self.below(of.len())]
    }

    fn cell(&mut self, column: usize) -> Value {
        if self.below(5) == 0 {
            return Value::Null;
        }
        match COLUMNS[column].1 {
            DataType::Int => Value::Int(self.below(7) as i64 - 3),
            // ints are valid in a float column, and compare numerically
            DataType::Float if self.below(3) == 0 => Value::Int(self.below(7) as i64 - 3),
            DataType::Float => Value::Float(self.below(14) as f64 / 2.0 - 3.0),
            _ if column == 3 => Value::Str(self.pick(&USERS).to_string()),
            _ => Value::Str(self.pick(&["", "a", "b", "ann"]).to_string()),
        }
    }

    /// A literal of `column`'s type, most of the time.
    fn literal_for(&mut self, column: usize) -> Value {
        match self.below(4) {
            0 => self.literal(),
            _ => self.cell(column),
        }
    }

    fn literal(&mut self) -> Value {
        match self.below(6) {
            0 => Value::Null,
            1 => Value::Int(self.below(7) as i64 - 3),
            2 => Value::Float(self.below(14) as f64 / 2.0 - 3.0),
            3 => Value::Str(self.pick(&USERS).to_string()),
            4 => Value::Str(self.pick(&["", "a", "b"]).to_string()),
            _ => Value::Bool(self.below(2) == 0),
        }
    }

    fn operand(&mut self) -> Expr {
        match self.below(5) {
            0 | 1 => Expr::Column(self.pick(&COLUMNS).0.to_string()),
            2 => Expr::CurrentUser,
            _ => Expr::Literal(self.literal()),
        }
    }

    /// A boolean expression at most `depth` connectives deep.
    fn predicate(&mut self, depth: usize) -> Expr {
        let leaf = depth == 0 || self.below(3) == 0;
        match if leaf { self.below(4) } else { 4 + self.below(4) } {
            0 | 1 => {
                let op = *self.pick(&[CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]);
                let (lhs, rhs) = if self.below(3) == 0 {
                    (self.operand(), self.operand())
                } else {
                    // `column <op> literal` (or the caller), either way round
                    let c = match self.below(2) {
                        0 if !self.masked.is_empty() => {
                            let i = self.below(self.masked.len());
                            self.masked[i]
                        }
                        _ => self.below(COLUMNS.len()),
                    };
                    let col = Expr::Column(COLUMNS[c].0.to_string());
                    let lit = match c {
                        3 if self.below(2) == 0 => Expr::CurrentUser,
                        _ => Expr::Literal(self.literal_for(c)),
                    };
                    if self.below(4) == 0 { (lit, col) } else { (col, lit) }
                };
                Expr::Cmp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
            }
            2 => Expr::IsNull(Box::new(self.operand())),
            3 => Expr::IsAccountGroupMember(self.pick(&GROUPS).to_string()),
            4 => self.predicate(depth - 1).and(self.predicate(depth - 1)),
            5 => self.predicate(depth - 1).or(self.predicate(depth - 1)),
            6 => Expr::Not(Box::new(self.predicate(depth - 1))),
            _ => Expr::IsNull(Box::new(self.predicate(depth - 1))),
        }
    }

    fn case(&mut self) -> Case {
        let caller = Caller {
            user: self.pick(&USERS).to_string(),
            groups: GROUPS.iter().filter(|_| self.below(2) == 0).map(|g| g.to_string()).collect(),
        };
        let n = self.below(16);
        let rows = (0..n).map(|_| (0..COLUMNS.len()).map(|c| self.cell(c)).collect()).collect();
        let filter = (self.below(2) == 0).then(|| self.predicate(2));
        let masks = (0..[0, 1, 1, 2][self.below(4)])
            .map(|_| {
                let c = self.below(COLUMNS.len());
                self.masked.push(c);
                let column = COLUMNS[c].0.to_string();
                let mask = match self.below(3) {
                    0 => self.operand(),
                    _ => Expr::Literal(self.literal_for(c)),
                };
                let exempt = (self.below(3) == 0).then(|| match self.below(2) {
                    0 => Expr::IsAccountGroupMember(self.pick(&GROUPS).to_string()),
                    _ => Expr::Cmp {
                        op: CmpOp::Eq,
                        lhs: Box::new(Expr::CurrentUser),
                        rhs: Box::new(Expr::Literal(Value::Str(self.pick(&USERS).to_string()))),
                    },
                });
                (column, mask, exempt)
            })
            .collect();
        let predicate = (self.below(8) != 0).then(|| self.predicate(2));
        let columns = (self.below(2) == 0)
            .then(|| (0..1 + self.below(3)).map(|_| self.pick(&COLUMNS).0.to_string()).collect());
        Case { caller, rows, chunk: 1 + self.below(5), filter, masks, predicate, columns }
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
// The system under test
// ---------------------------------------------------------------------

fn table(rows: &[Row], chunk: usize) -> (DeltaTable, Credential) {
    let store = ObjectStore::in_memory();
    let cred = Credential::Root(store.create_bucket("bkt"));
    let path = StoragePath::parse("s3://bkt/t").unwrap();
    let table = DeltaTable::create(store, path, &cred, "t", schema()).unwrap();
    if !rows.is_empty() {
        table.append_fragmented(&cred, rows, chunk).unwrap();
    }
    (table, cred)
}

fn context(case: &Case) -> EvalContext {
    EvalContext::new(&case.caller.user, case.caller.groups.iter().cloned())
}

/// The case through `scan_planned` (over cached cells) and through
/// `Plan::run` over `&[Value]` rows, as a view's level runs it.
fn planned(case: &Case) -> (Result<Vec<Row>, DeltaError>, Result<Vec<Row>, DeltaError>) {
    let masks: Vec<Mask> = case
        .masks
        .iter()
        .map(|(column, mask, exempt)| Mask { column, mask, exempt_when: exempt.as_ref() })
        .collect();
    let spec = ScanSpec {
        row_filter: case.filter.as_ref(),
        masks: &masks,
        predicate: case.predicate.as_ref(),
        columns: case.columns.as_deref(),
        view: None,
    };
    let ctx = context(case);
    let (t, cred) = table(&case.rows, case.chunk);
    let snapshot = t.snapshot(&cred).unwrap();
    let scanned = t.scan_planned(&cred, &snapshot, &spec, &ctx).map(|(rows, _)| rows);
    let mut values = Vec::new();
    let values = Plan::bind(&schema(), &spec, &ctx)
        .and_then(|plan| plan.run(case.rows.iter().map(Vec::as_slice), &mut values))
        .map(|()| values);
    (scanned, values)
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

fn run(case: &Case) {
    let expect = reference(case, &case.rows);
    let (scanned, values) = planned(case);
    match &expect {
        Ok(rows) => {
            assert_eq!(scanned.as_ref().ok(), Some(rows), "scan_planned, {case:#?}");
            assert_eq!(values.as_ref().ok(), Some(rows), "Plan::run over values, {case:#?}");
        }
        Err(_) => assert!(scanned.is_err() && values.is_err(), "{case:#?}: {scanned:?} / {values:?}"),
    }

    // delete_where: what the predicate does not hold for (over stored
    // values; a DELETE has no policies) stays, and no more.
    let Some(p) = &case.predicate else { return };
    let who = &case.caller;
    let kept: Result<Vec<Row>, String> = case
        .rows
        .iter()
        .filter_map(|r| holds(p, r, who).map(|h| (!h).then(|| r.clone())).transpose())
        .collect();
    let (t, cred) = table(&case.rows, case.chunk);
    let deleted = t.delete_where(&cred, p, &context(case));
    match kept {
        Ok(kept) => {
            assert_eq!(deleted.ok(), Some((case.rows.len() - kept.len()) as u64), "{case:#?}");
            let (left, _) = t.scan(&cred, None, &EvalContext::anonymous()).unwrap();
            assert_eq!(sorted(left), sorted(kept), "delete_where kept set, {case:#?}");
        }
        Err(_) => assert!(deleted.is_err(), "{case:#?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_planned_scan_and_delete_where_agree_with_the_reference(case in Cases) {
        run(&case);
    }
}

/// The generator reaches what the property is about: cases where running
/// the predicate over stored values, before the masks (the order that let a
/// `WHERE` read under a mask), keeps other rows than the reference, and
/// cases that keep some rows but not all.
#[test]
fn the_cases_tell_the_enforcement_orders_apart() {
    let (mut caught, mut partial) = (0, 0);
    for seed in 0..512 {
        let case = Cases.generate(&mut TestRng::from_seed(seed));
        let Ok(rows) = reference(&case, &case.rows) else { continue };
        partial += (!rows.is_empty() && rows.len() < case.rows.len()) as u32;
        let who = &case.caller;
        let stored_first = case
            .rows
            .iter()
            .filter(|r| case.filter.iter().chain(&case.predicate).all(|e| holds(e, r, who).unwrap_or(false)))
            .count();
        caught += (stored_first != rows.len()) as u32;
    }
    assert!(caught >= 24, "only {caught} of 512 cases tell the orders apart");
    assert!(partial >= 50, "only {partial} of 512 cases kept some rows but not all");
}

/// Binding fails on an unknown column whether or not a file is read: an
/// empty table (no data file) refuses the scan, as a full one does.
#[test]
fn an_unknown_column_fails_the_scan_of_an_empty_table() {
    let unknown = Expr::cmp("nope", CmpOp::Eq, 1i64);
    for rows in [Vec::new(), vec![vec![Value::Int(1), Value::Null, Value::Null, Value::Null]]] {
        let (t, cred) = table(&rows, 1);
        let result = t.scan(&cred, Some(&unknown), &EvalContext::anonymous());
        assert!(matches!(result, Err(DeltaError::Schema(_))), "{} rows: {result:?}", rows.len());
        let deleted = t.delete_where(&cred, &unknown, &EvalContext::anonymous());
        assert!(matches!(deleted, Err(DeltaError::Schema(_))), "{} rows: {deleted:?}", rows.len());
    }
}
