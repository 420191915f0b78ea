//! A small expression language over rows.
//!
//! One expression type serves three consumers: the engine's `WHERE`
//! clauses, the catalog's fine-grained access control (row filters and
//! column masks, §4.3.2), and scan-time file pruning. FGAC expressions may
//! reference the calling principal via [`Expr::CurrentUser`] and
//! [`Expr::IsAccountGroupMember`], mirroring Unity Catalog's SQL UDF-based
//! policies; these evaluate against the [`EvalContext`].
//!
//! Evaluation uses SQL-flavoured three-valued logic: comparisons with NULL
//! yield NULL, and a row passes a filter only if it evaluates to TRUE.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use crate::error::{DeltaError, DeltaResult};
use crate::value::{Schema, Value};

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
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Column(c) => {
                out.insert(c.clone());
            }
            Expr::Cmp { lhs, rhs, .. } => {
                lhs.collect_columns(out);
                rhs.collect_columns(out);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Not(e) | Expr::IsNull(e) => e.collect_columns(out),
            Expr::Literal(_) | Expr::CurrentUser | Expr::IsAccountGroupMember(_) => {}
        }
    }

    /// Evaluate to a value. Boolean contexts use [`Expr::eval_bool`].
    pub fn eval<R: RowView + ?Sized>(&self, schema: &Schema, row: &R, ctx: &EvalContext) -> DeltaResult<Value> {
        Ok(match self {
            Expr::Column(name) => {
                let idx = schema
                    .index_of(name)
                    .ok_or_else(|| DeltaError::Schema(format!("unknown column {name}")))?;
                row.value(idx)
                    .ok_or_else(|| DeltaError::Schema(format!("row too short for {name}")))?
            }
            Expr::Literal(v) => v.clone(),
            Expr::Cmp { op, lhs, rhs } => {
                let l = lhs.eval(schema, row, ctx)?;
                let r = rhs.eval(schema, row, ctx)?;
                match l.try_cmp(&r) {
                    Some(ord) => Value::Bool(op.test(ord)),
                    None => Value::Null, // NULL comparison → NULL
                }
            }
            Expr::And(a, b) => {
                match (a.eval_bool3(schema, row, ctx)?, b.eval_bool3(schema, row, ctx)?) {
                    (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                    (Some(true), Some(true)) => Value::Bool(true),
                    _ => Value::Null,
                }
            }
            Expr::Or(a, b) => {
                match (a.eval_bool3(schema, row, ctx)?, b.eval_bool3(schema, row, ctx)?) {
                    (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                    (Some(false), Some(false)) => Value::Bool(false),
                    _ => Value::Null,
                }
            }
            Expr::Not(e) => match e.eval_bool3(schema, row, ctx)? {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            },
            Expr::IsNull(e) => Value::Bool(e.eval(schema, row, ctx)?.is_null()),
            Expr::CurrentUser => Value::Str(ctx.user.clone()),
            Expr::IsAccountGroupMember(g) => Value::Bool(ctx.groups.contains(g)),
        })
    }

    /// Evaluate as a SQL boolean: `Some(true/false)` or `None` for NULL.
    fn eval_bool3<R: RowView + ?Sized>(
        &self,
        schema: &Schema,
        row: &R,
        ctx: &EvalContext,
    ) -> DeltaResult<Option<bool>> {
        match self.eval(schema, row, ctx)? {
            Value::Bool(b) => Ok(Some(b)),
            Value::Null => Ok(None),
            other => Err(DeltaError::Schema(format!(
                "expected boolean, got {other}"
            ))),
        }
    }

    /// Filter semantics: the row passes only on TRUE (NULL filters out).
    pub fn eval_bool<R: RowView + ?Sized>(&self, schema: &Schema, row: &R, ctx: &EvalContext) -> DeltaResult<bool> {
        Ok(self.eval_bool3(schema, row, ctx)? == Some(true))
    }
}

/// A row an expression can read columns from, by position: a plain row, or
/// a row of a cached data file ([`crate::datafile::RowRef`]), whose values
/// are materialized only when a column is actually read.
pub trait RowView {
    /// The value at `idx`; `None` past the end of the row.
    fn value(&self, idx: usize) -> Option<Value>;
}

impl RowView for Vec<Value> {
    fn value(&self, idx: usize) -> Option<Value> {
        self.get(idx).cloned()
    }
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
            assert_eq!(e.eval_bool(&s, &r, &ctx()).unwrap(), expect, "op {op}");
        }
    }

    #[test]
    fn and_or_not_logic() {
        let s = schema();
        let r = row(5, "eng", 100.0);
        let t = Expr::cmp("id", CmpOp::Eq, 5i64);
        let f = Expr::cmp("id", CmpOp::Eq, 6i64);
        assert!(t.clone().and(t.clone()).eval_bool(&s, &r, &ctx()).unwrap());
        assert!(!t.clone().and(f.clone()).eval_bool(&s, &r, &ctx()).unwrap());
        assert!(t.clone().or(f.clone()).eval_bool(&s, &r, &ctx()).unwrap());
        assert!(!f.clone().or(f.clone()).eval_bool(&s, &r, &ctx()).unwrap());
        assert!(Expr::Not(Box::new(f)).eval_bool(&s, &r, &ctx()).unwrap());
    }

    #[test]
    fn null_comparisons_filter_out() {
        let s = schema();
        let r = vec![Value::Null, Value::Str("eng".into()), Value::Null];
        // NULL = 5 → NULL → row filtered out
        assert!(!Expr::cmp("id", CmpOp::Eq, 5i64).eval_bool(&s, &r, &ctx()).unwrap());
        // NULL <> 5 also filters out (three-valued logic)
        assert!(!Expr::cmp("id", CmpOp::Ne, 5i64).eval_bool(&s, &r, &ctx()).unwrap());
        // IS NULL is the way to match nulls
        assert!(Expr::IsNull(Box::new(Expr::Column("id".into())))
            .eval_bool(&s, &r, &ctx())
            .unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        let s = schema();
        let r = vec![Value::Null, Value::Str("eng".into()), Value::Float(1.0)];
        let null_cmp = Expr::cmp("id", CmpOp::Eq, 1i64); // NULL
        let true_cmp = Expr::cmp("dept", CmpOp::Eq, "eng"); // TRUE
        let false_cmp = Expr::cmp("dept", CmpOp::Eq, "hr"); // FALSE
        // NULL AND FALSE = FALSE → filtered, NULL AND TRUE = NULL → filtered
        assert!(!null_cmp.clone().and(false_cmp.clone()).eval_bool(&s, &r, &ctx()).unwrap());
        assert!(!null_cmp.clone().and(true_cmp.clone()).eval_bool(&s, &r, &ctx()).unwrap());
        // NULL OR TRUE = TRUE → passes
        assert!(null_cmp.clone().or(true_cmp).eval_bool(&s, &r, &ctx()).unwrap());
        // NULL OR FALSE = NULL → filtered
        assert!(!null_cmp.or(false_cmp).eval_bool(&s, &r, &ctx()).unwrap());
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
        assert!(is_alice.eval_bool(&s, &r, &ctx()).unwrap());
        assert!(Expr::IsAccountGroupMember("hr".into())
            .eval_bool(&s, &r, &ctx())
            .unwrap());
        assert!(!Expr::IsAccountGroupMember("finance".into())
            .eval_bool(&s, &r, &ctx())
            .unwrap());
    }

    #[test]
    fn unknown_column_is_a_schema_error() {
        let s = schema();
        let r = row(1, "eng", 1.0);
        assert!(matches!(
            Expr::cmp("nope", CmpOp::Eq, 1i64).eval(&s, &r, &ctx()),
            Err(DeltaError::Schema(_))
        ));
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
