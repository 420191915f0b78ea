//! A small expression language over rows.
//!
//! One expression type serves three consumers: the engine's `WHERE`
//! clauses, the catalog's fine-grained access control (row filters and
//! column masks, §4.3.2), and scan-time file pruning. FGAC expressions may
//! reference the calling principal via [`Expr::CurrentUser`] and
//! [`Expr::IsAccountGroupMember`], mirroring Unity Catalog's SQL UDF-based
//! policies; these evaluate against the [`EvalContext`].
//!
//! An `Expr` is never evaluated as written: [`Expr::bind`] compiles it for
//! one schema and one caller into a [`Bound`] expression — columns
//! resolved to positions, the principal functions folded to constants —
//! which reads the cells of any [`Cells`] row in place. Evaluation uses
//! SQL-flavoured three-valued logic: comparisons with NULL yield NULL, and
//! a row passes a filter only if it evaluates to TRUE.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use crate::error::{DeltaError, DeltaResult};
use crate::value::{Schema, Value, ValueRef};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped: `a < b` is `b > a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            op => op,
        }
    }

    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Column reference by name.
    Column(String),
    /// Constant.
    Literal(Value),
    /// Binary comparison.
    Cmp { op: CmpOp, lhs: Box<Expr>, rhs: Box<Expr> },
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    /// `<expr> IS NULL`.
    IsNull(Box<Expr>),
    /// The calling principal's name (FGAC policies).
    CurrentUser,
    /// True if the calling principal is in the named group (FGAC policies).
    IsAccountGroupMember(String),
}

impl Expr {
    /// `col <op> literal` convenience constructor.
    pub fn cmp(col: &str, op: CmpOp, lit: impl Into<Value>) -> Expr {
        Expr::Cmp {
            op,
            lhs: Box::new(Expr::Column(col.to_string())),
            rhs: Box::new(Expr::Literal(lit.into())),
        }
    }

    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// All column names referenced by the expression.
    pub fn referenced_columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.for_each_column(&mut |c| {
            out.insert(c.to_string());
        });
        out
    }

    /// Whether the expression reads a column `cols` holds for.
    pub fn reads_any(&self, cols: impl Fn(&str) -> bool) -> bool {
        let mut any = false;
        self.for_each_column(&mut |c| any |= cols(c));
        any
    }

    fn for_each_column(&self, f: &mut impl FnMut(&str)) {
        match self {
            Expr::Column(c) => f(c),
            Expr::Cmp { lhs: a, rhs: b, .. } | Expr::And(a, b) | Expr::Or(a, b) => {
                a.for_each_column(f);
                b.for_each_column(f);
            }
            Expr::Not(e) | Expr::IsNull(e) => e.for_each_column(f),
            Expr::Literal(_) | Expr::CurrentUser | Expr::IsAccountGroupMember(_) => {}
        }
    }

    /// Compile the expression for `schema` and the caller `ctx`: every
    /// column resolved to its position, `current_user()` and
    /// `is_account_group_member(..)` folded to constants. An unknown column
    /// fails here, whether or not any row is ever read.
    pub fn bind(&self, schema: &Schema, ctx: &EvalContext) -> DeltaResult<Bound> {
        Ok(Bound(Node::bind(self, schema, ctx)?))
    }
}

/// A row a [`Bound`] expression reads, by position and in place: a row of
/// a cached data file ([`crate::datafile::RowRef`]) or a slice of values.
pub trait Cells {
    /// The cell at `idx`; `None` past the end of the row.
    fn cell(&self, idx: usize) -> Option<ValueRef<'_>>;
}

impl Cells for [Value] {
    fn cell(&self, idx: usize) -> Option<ValueRef<'_>> {
        self.get(idx).map(ValueRef::from)
    }
}

impl<R: Cells + ?Sized> Cells for &R {
    fn cell(&self, idx: usize) -> Option<ValueRef<'_>> {
        (**self).cell(idx)
    }
}

/// An expression bound to a schema and a caller by [`Expr::bind`]; the one
/// evaluator of every scan, row filter, mask and `DELETE`.
#[derive(Debug, Clone)]
pub struct Bound(Node);

#[derive(Debug, Clone)]
enum Node {
    Const(Value),
    Column(usize),
    /// `column <op> literal`, either way round as written.
    ColumnCmp { col: usize, op: CmpOp, lit: Value },
    Cmp { op: CmpOp, lhs: Box<Node>, rhs: Box<Node> },
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
    IsNull(Box<Node>),
}

impl Bound {
    /// Filter semantics: the row passes only on TRUE (NULL filters out).
    pub fn matches<R: Cells + ?Sized>(&self, row: &R) -> DeltaResult<bool> {
        Ok(self.0.truth(row)? == Some(true))
    }

    /// The expression's value over `row` (what a column mask writes).
    pub fn value<R: Cells + ?Sized>(&self, row: &R) -> DeltaResult<Value> {
        Ok(self.0.scalar(row)?.to_value())
    }
}

impl Node {
    fn bind(expr: &Expr, schema: &Schema, ctx: &EvalContext) -> DeltaResult<Node> {
        let bind = |e: &Expr| Node::bind(e, schema, ctx).map(Box::new);
        Ok(match expr {
            Expr::Column(name) => Node::Column(
                schema
                    .index_of(name)
                    .ok_or_else(|| DeltaError::Schema(format!("unknown column {name}")))?,
            ),
            Expr::Literal(v) => Node::Const(v.clone()),
            Expr::CurrentUser => Node::Const(Value::Str(ctx.user.clone())),
            Expr::IsAccountGroupMember(g) => Node::Const(Value::Bool(ctx.groups.contains(g))),
            Expr::Cmp { op, lhs, rhs } => match (*bind(lhs)?, *bind(rhs)?) {
                (Node::Column(col), Node::Const(lit)) => Node::ColumnCmp { col, op: *op, lit },
                (Node::Const(lit), Node::Column(col)) => Node::ColumnCmp { col, op: op.flip(), lit },
                (lhs, rhs) => Node::Cmp { op: *op, lhs: Box::new(lhs), rhs: Box::new(rhs) },
            },
            Expr::And(a, b) => Node::And(bind(a)?, bind(b)?),
            Expr::Or(a, b) => Node::Or(bind(a)?, bind(b)?),
            Expr::Not(e) => Node::Not(bind(e)?),
            Expr::IsNull(e) => Node::IsNull(bind(e)?),
        })
    }

    /// Three-valued truth: `Some(true/false)`, or `None` for NULL.
    fn truth<R: Cells + ?Sized>(&self, row: &R) -> DeltaResult<Option<bool>> {
        Ok(match self {
            Node::ColumnCmp { col, op, lit } => cell(row, *col)?.try_cmp(lit.into()).map(|o| op.test(o)),
            Node::Cmp { op, lhs, rhs } => lhs.scalar(row)?.try_cmp(rhs.scalar(row)?).map(|o| op.test(o)),
            Node::And(a, b) => match (a.truth(row)?, b.truth(row)?) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Node::Or(a, b) => match (a.truth(row)?, b.truth(row)?) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            Node::Not(e) => e.truth(row)?.map(|b| !b),
            Node::IsNull(e) => Some(e.scalar(row)?.is_null()),
            Node::Const(_) | Node::Column(_) => match self.scalar(row)? {
                ValueRef::Bool(b) => Some(b),
                ValueRef::Null => None,
                other => {
                    return Err(DeltaError::Schema(format!("expected boolean, got {other}")))
                }
            },
        })
    }

    fn scalar<'a, R: Cells + ?Sized>(&'a self, row: &'a R) -> DeltaResult<ValueRef<'a>> {
        Ok(match self {
            Node::Const(v) => v.into(),
            Node::Column(col) => cell(row, *col)?,
            _ => match self.truth(row)? {
                Some(b) => ValueRef::Bool(b),
                None => ValueRef::Null,
            },
        })
    }
}

/// The cell at `col`; a row that ends before it is a schema error.
pub(crate) fn cell<R: Cells + ?Sized>(row: &R, col: usize) -> DeltaResult<ValueRef<'_>> {
    row.cell(col)
        .ok_or_else(|| DeltaError::Schema(format!("row too short for column {col}")))
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Cmp { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::IsNull(e) => write!(f, "{e} IS NULL"),
            Expr::CurrentUser => write!(f, "current_user()"),
            Expr::IsAccountGroupMember(g) => write!(f, "is_account_group_member('{g}')"),
        }
    }
}

/// Who is evaluating — the principal context FGAC policies depend on.
#[derive(Debug, Clone, Default)]
pub struct EvalContext {
    pub user: String,
    pub groups: BTreeSet<String>,
}

impl EvalContext {
    pub fn new(user: &str, groups: impl IntoIterator<Item = String>) -> Self {
        EvalContext { user: user.to_string(), groups: groups.into_iter().collect() }
    }

    /// Anonymous context for plain scan predicates.
    pub fn anonymous() -> Self {
        EvalContext::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Row;
    use crate::value::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("dept", DataType::Str),
            Field::new("salary", DataType::Float),
        ])
    }

    fn row(id: i64, dept: &str, salary: f64) -> Row {
        vec![Value::Int(id), Value::Str(dept.into()), Value::Float(salary)]
    }

    fn ctx() -> EvalContext {
        EvalContext::new("alice", vec!["hr".to_string()])
    }

    /// Filter semantics of `e` over `r`, bound as a scan binds it.
    fn holds(e: &Expr, s: &Schema, r: &Row) -> bool {
        e.bind(s, &ctx()).unwrap().matches(r.as_slice()).unwrap()
    }

    #[test]
    fn comparison_operators() {
        let s = schema();
        let r = row(5, "eng", 100.0);
        for (op, expect) in [
            (CmpOp::Eq, false),
            (CmpOp::Ne, true),
            (CmpOp::Lt, true),
            (CmpOp::Le, true),
            (CmpOp::Gt, false),
            (CmpOp::Ge, false),
        ] {
            let e = Expr::cmp("id", op, 10i64);
            assert_eq!(holds(&e, &s, &r), expect, "op {op}");
        }
    }

    #[test]
    fn and_or_not_logic() {
        let s = schema();
        let r = row(5, "eng", 100.0);
        let t = Expr::cmp("id", CmpOp::Eq, 5i64);
        let f = Expr::cmp("id", CmpOp::Eq, 6i64);
        assert!(holds(&t.clone().and(t.clone()), &s, &r));
        assert!(!holds(&t.clone().and(f.clone()), &s, &r));
        assert!(holds(&t.clone().or(f.clone()), &s, &r));
        assert!(!holds(&f.clone().or(f.clone()), &s, &r));
        assert!(holds(&Expr::Not(Box::new(f)), &s, &r));
    }

    #[test]
    fn null_comparisons_filter_out() {
        let s = schema();
        let r = vec![Value::Null, Value::Str("eng".into()), Value::Null];
        // NULL = 5 → NULL → row filtered out
        assert!(!holds(&Expr::cmp("id", CmpOp::Eq, 5i64), &s, &r));
        // NULL <> 5 also filters out (three-valued logic)
        assert!(!holds(&Expr::cmp("id", CmpOp::Ne, 5i64), &s, &r));
        // IS NULL is the way to match nulls
        assert!(holds(&Expr::IsNull(Box::new(Expr::Column("id".into()))), &s, &r));
    }

    #[test]
    fn three_valued_and_or() {
        let s = schema();
        let r = vec![Value::Null, Value::Str("eng".into()), Value::Float(1.0)];
        let null_cmp = Expr::cmp("id", CmpOp::Eq, 1i64); // NULL
        let true_cmp = Expr::cmp("dept", CmpOp::Eq, "eng"); // TRUE
        let false_cmp = Expr::cmp("dept", CmpOp::Eq, "hr"); // FALSE
        // NULL AND FALSE = FALSE → filtered, NULL AND TRUE = NULL → filtered
        assert!(!holds(&null_cmp.clone().and(false_cmp.clone()), &s, &r));
        assert!(!holds(&null_cmp.clone().and(true_cmp.clone()), &s, &r));
        // NULL OR TRUE = TRUE → passes
        assert!(holds(&null_cmp.clone().or(true_cmp), &s, &r));
        // NULL OR FALSE = NULL → filtered
        assert!(!holds(&null_cmp.or(false_cmp), &s, &r));
    }

    #[test]
    fn principal_functions() {
        let s = schema();
        let r = row(1, "eng", 1.0);
        let is_alice = Expr::Cmp {
            op: CmpOp::Eq,
            lhs: Box::new(Expr::CurrentUser),
            rhs: Box::new(Expr::Literal("alice".into())),
        };
        assert!(holds(&is_alice, &s, &r));
        assert!(holds(&Expr::IsAccountGroupMember("hr".into()), &s, &r));
        assert!(!holds(&Expr::IsAccountGroupMember("finance".into()), &s, &r));
    }

    #[test]
    fn unknown_column_is_a_schema_error() {
        // at bind time: no row is needed to find it
        let s = schema();
        assert!(matches!(
            Expr::cmp("nope", CmpOp::Eq, 1i64).bind(&s, &ctx()),
            Err(DeltaError::Schema(_))
        ));
    }

    #[test]
    fn binding_folds_the_caller_and_puts_the_literal_on_the_right() {
        let s = schema();
        let r = row(1, "alice", 1.0);
        // `dept = current_user()` as alice: a column against a constant
        let own = Expr::Cmp {
            op: CmpOp::Eq,
            lhs: Box::new(Expr::Column("dept".into())),
            rhs: Box::new(Expr::CurrentUser),
        };
        let bound = own.bind(&s, &ctx()).unwrap();
        assert!(matches!(bound.0, Node::ColumnCmp { col: 1, op: CmpOp::Eq, .. }), "{bound:?}");
        assert!(bound.matches(r.as_slice()).unwrap());
        // a literal on the left is flipped onto the column: 0 < id is id > 0
        let flipped = Expr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(Expr::Literal(Value::Int(0))),
            rhs: Box::new(Expr::Column("id".into())),
        };
        let bound = flipped.bind(&s, &ctx()).unwrap();
        assert!(matches!(bound.0, Node::ColumnCmp { col: 0, op: CmpOp::Gt, .. }), "{bound:?}");
        assert!(bound.matches(r.as_slice()).unwrap());
        // a non-boolean under NOT binds, and fails on each row it reads
        let bad = Expr::Not(Box::new(Expr::Literal(Value::Int(5))));
        let bound = bad.bind(&s, &ctx()).unwrap();
        assert!(matches!(bound.matches(r.as_slice()), Err(DeltaError::Schema(_))));
    }

    #[test]
    fn referenced_columns_collects_all() {
        let e = Expr::cmp("a", CmpOp::Eq, 1i64)
            .and(Expr::cmp("b", CmpOp::Lt, 2i64).or(Expr::IsNull(Box::new(Expr::Column("c".into())))));
        let cols: Vec<_> = e.referenced_columns().into_iter().collect();
        assert_eq!(cols, vec!["a", "b", "c"]);
    }

    #[test]
    fn expr_serde_roundtrip() {
        let e = Expr::cmp("salary", CmpOp::Ge, 50.0).and(Expr::IsAccountGroupMember("hr".into()));
        let json = serde_json::to_string(&e).unwrap();
        let back: Expr = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn display_is_sql_like() {
        let e = Expr::cmp("dept", CmpOp::Eq, "eng").and(Expr::cmp("id", CmpOp::Gt, 3i64));
        assert_eq!(e.to_string(), "(dept = 'eng' AND id > 3)");
    }
}
