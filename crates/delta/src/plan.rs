//! One planned scan: what a governed read enforces on each row, and in
//! which order.
//!
//! A [`ScanSpec`] names the policies and the query: the relation's row
//! filter, its column masks, the query's predicate and the columns kept.
//! [`Plan::bind`] binds all of them once, to the relation's schema and the
//! caller; [`Plan::run`] then takes each row through
//!
//! 1. the row filter, over the stored values;
//! 2. the masks, in order (a later mask reads the earlier ones' output);
//! 3. the predicate, over the masked row — a `WHERE` never reads what a
//!    mask hides;
//!
//! and builds a kept row once, of only the kept columns. The same plan runs
//! over a cached data file's cells ([`crate::DeltaTable::scan_planned`])
//! and over a view's output rows.
//!
//! A view over a table is one plan of two levels ([`ScanSpec::view`]): the
//! base level (the table's filter and masks, the view's `WHERE` and
//! columns) keeps a row, and the view level (the view's own filter and
//! masks, the caller's predicate and columns) reads that kept row in
//! place, as the base level outputs it — no row is built between them.

use crate::error::{DeltaError, DeltaResult};
use crate::expr::{cell, Bound, Cells, EvalContext, Expr};
use crate::value::{Row, Schema, Value, ValueRef};

/// A column mask as a scan applies it: `column` reads as `mask` unless
/// `exempt_when` holds for the caller.
#[derive(Debug, Clone, Copy)]
pub struct Mask<'a> {
    pub column: &'a str,
    pub mask: &'a Expr,
    pub exempt_when: Option<&'a Expr>,
}

/// What a scan enforces and keeps, before it is bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanSpec<'a> {
    /// Over stored values.
    pub row_filter: Option<&'a Expr>,
    /// Applied in order to the rows the filter keeps.
    pub masks: &'a [Mask<'a>],
    /// The query's predicate, over the masked row.
    pub predicate: Option<&'a Expr>,
    /// The columns a kept row carries, in order; `None` keeps all.
    pub columns: Option<&'a [String]>,
    /// A view's level over this one: the view's schema, whose columns are
    /// this level's kept columns by position, and what the view enforces
    /// and keeps over them. `None`: the kept rows are the result. The view
    /// level has no view of its own.
    pub view: Option<(&'a Schema, &'a ScanSpec<'a>)>,
}

/// A [`ScanSpec`] bound to a schema and a caller.
#[derive(Debug)]
pub struct Plan {
    filter: Option<Bound>,
    /// `(position, mask)` of every mask the caller is not exempt from, on a
    /// column the schema has.
    masks: Vec<(usize, Bound)>,
    predicate: Option<Bound>,
    columns: Vec<usize>,
    /// The view level, run over each row this level keeps.
    view: Option<Box<Plan>>,
}

impl Plan {
    /// Bind every expression of `spec` to `schema` and `ctx`. A mask whose
    /// exemption holds, or whose column the schema lacks, is dropped; an
    /// exemption reads only the caller (it is decided over an empty row,
    /// and one that cannot be decided does not exempt).
    pub fn bind(schema: &Schema, spec: &ScanSpec, ctx: &EvalContext) -> DeltaResult<Plan> {
        let bind = |e: Option<&Expr>| e.map(|e| e.bind(schema, ctx)).transpose();
        let mut masks = Vec::with_capacity(spec.masks.len());
        for m in spec.masks {
            let exempt = m.exempt_when.is_some_and(|e| {
                e.bind(&Schema::default(), ctx).and_then(|b| b.matches::<[Value]>(&[])).unwrap_or(false)
            });
            if let (false, Some(idx)) = (exempt, schema.index_of(m.column)) {
                masks.push((idx, m.mask.bind(schema, ctx)?));
            }
        }
        let columns: Vec<usize> = match spec.columns {
            None => (0..schema.len()).collect(),
            Some(names) => names
                .iter()
                .map(|c| schema.index_of(c).ok_or_else(|| DeltaError::Schema(format!("unknown column {c}"))))
                .collect::<DeltaResult<_>>()?,
        };
        let view = match spec.view {
            None => None,
            Some((_, view)) if view.view.is_some() => {
                return Err(DeltaError::Schema("a view level has no view of its own".into()))
            }
            Some((view_schema, view)) => Some(Box::new(Plan::bind(view_schema, view, ctx)?)),
        };
        Ok(Plan { filter: bind(spec.row_filter)?, masks, predicate: bind(spec.predicate)?, columns, view })
    }

    /// Whether a mask replaces the column at `idx`.
    pub(crate) fn masks_column(&self, idx: usize) -> bool {
        self.masks.iter().any(|(col, _)| *col == idx)
    }

    /// Whether the view level's column `name` reads the stored column of
    /// the same name in `schema` (this level's), masked at neither level:
    /// only then do that column's file stats bound what the view level
    /// reads.
    pub(crate) fn view_reads_stored(&self, schema: &Schema, view_schema: &Schema, name: &str) -> bool {
        let Some(view) = &self.view else { return false };
        let Some(idx) = view_schema.index_of(name) else { return false };
        let Some(&col) = self.columns.get(idx) else { return false };
        !view.masks_column(idx) && !self.masks_column(col) && schema.fields[col].name == name
    }

    /// Take each row through the plan; push every kept row onto `out`. The
    /// rows are read in place: a cached file's (`RowRef`s) or a view's
    /// output (`&[Value]`s); so is a kept row, by the view level.
    pub fn run<R: Cells>(&self, rows: impl IntoIterator<Item = R>, out: &mut Vec<Row>) -> DeltaResult<()> {
        let mut masked = Vec::with_capacity(self.masks.len());
        let mut view_masked = Vec::with_capacity(self.view.as_ref().map_or(0, |v| v.masks.len()));
        for row in rows {
            if !self.keep(&row, &mut masked)? {
                continue;
            }
            let kept = Kept(Masked { row: &row, plan: self, values: &masked });
            out.push(match &self.view {
                None => kept.to_row()?,
                Some(view) if view.keep(&kept, &mut view_masked)? => {
                    Kept(Masked { row: &kept, plan: view, values: &view_masked }).to_row()?
                }
                Some(_) => continue,
            });
        }
        Ok(())
    }

    /// Filter, masks, predicate. The masks' values are left in `masked`,
    /// one per mask, for the kept row.
    fn keep<R: Cells + ?Sized>(&self, row: &R, masked: &mut Vec<Value>) -> DeltaResult<bool> {
        if let Some(filter) = &self.filter {
            if !filter.matches(row)? {
                return Ok(false);
            }
        }
        masked.clear();
        for (_, mask) in &self.masks {
            let value = mask.value(&Masked { row, plan: self, values: masked })?;
            masked.push(value);
        }
        match &self.predicate {
            None => Ok(true),
            Some(p) if self.masks.is_empty() => p.matches(row),
            Some(p) => p.matches(&Masked { row, plan: self, values: masked }),
        }
    }

    /// The last of the first `applied` masks that replaces column `col`.
    fn mask_of(&self, col: usize, applied: usize) -> Option<usize> {
        self.masks[..applied].iter().rposition(|(c, _)| *c == col)
    }
}

/// A row with the masks applied so far laid over it.
struct Masked<'p, R: ?Sized> {
    row: &'p R,
    plan: &'p Plan,
    values: &'p [Value],
}

impl<R: Cells + ?Sized> Cells for Masked<'_, R> {
    fn cell(&self, idx: usize) -> Option<ValueRef<'_>> {
        match self.plan.mask_of(idx, self.values.len()) {
            Some(j) => Some((&self.values[j]).into()),
            None => self.row.cell(idx),
        }
    }
}

/// A row as its plan's level outputs it, every mask applied: cell `i` is
/// the `i`-th kept column.
struct Kept<'p, R: ?Sized>(Masked<'p, R>);

impl<R: Cells + ?Sized> Cells for Kept<'_, R> {
    fn cell(&self, idx: usize) -> Option<ValueRef<'_>> {
        self.0.cell(*self.0.plan.columns.get(idx)?)
    }
}

impl<R: Cells + ?Sized> Kept<'_, R> {
    /// The kept row, built once.
    fn to_row(&self) -> DeltaResult<Row> {
        let mut row = Vec::with_capacity(self.0.plan.columns.len());
        for idx in 0..self.0.plan.columns.len() {
            row.push(cell(self, idx)?.to_value());
        }
        Ok(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::value::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("owner", DataType::Str),
            Field::new("amount", DataType::Int),
        ])
    }

    fn rows() -> Vec<Row> {
        (0..6)
            .map(|i| vec![Value::Int(i), Value::Str(if i % 2 == 0 { "ann" } else { "bob" }.into()), Value::Int(1000 + i)])
            .collect()
    }

    fn run(spec: &ScanSpec, ctx: &EvalContext) -> Vec<Row> {
        let mut out = Vec::new();
        Plan::bind(&schema(), spec, ctx).unwrap().run(rows().iter().map(Vec::as_slice), &mut out).unwrap();
        out
    }

    #[test]
    fn the_predicate_reads_masked_values_and_the_filter_stored_ones() {
        let ctx = EvalContext::new("ann", Vec::new());
        let own = Expr::Cmp {
            op: CmpOp::Eq,
            lhs: Box::new(Expr::Column("owner".into())),
            rhs: Box::new(Expr::CurrentUser),
        };
        let hidden = Expr::Literal(Value::Int(-1));
        let masks = [Mask { column: "amount", mask: &hidden, exempt_when: None }];
        let columns = ["id".to_string(), "amount".to_string()];
        let stored = Expr::cmp("amount", CmpOp::Eq, 1002i64);
        let spec =
            ScanSpec { row_filter: Some(&own), masks: &masks, predicate: Some(&stored), columns: Some(&columns), view: None };
        assert!(run(&spec, &ctx).is_empty(), "a stored amount is never matched");
        let shown = Expr::cmp("amount", CmpOp::Eq, -1i64);
        let spec = ScanSpec { predicate: Some(&shown), ..spec };
        let ann: Vec<Row> = [0, 2, 4].iter().map(|&i| vec![Value::Int(i), Value::Int(-1)]).collect();
        assert_eq!(run(&spec, &ctx), ann, "every row of hers reads -1");
    }

    #[test]
    fn a_later_mask_reads_an_earlier_one_and_an_exempt_mask_is_dropped() {
        let ctx = EvalContext::new("ann", vec!["hr".to_string()]);
        let id = Expr::Column("id".into());
        let zero = Expr::Literal(Value::Int(0));
        let hr = Expr::IsAccountGroupMember("hr".into());
        let masks = [
            Mask { column: "id", mask: &zero, exempt_when: None },
            Mask { column: "amount", mask: &id, exempt_when: None },
            Mask { column: "owner", mask: &zero, exempt_when: Some(&hr) },
            Mask { column: "nope", mask: &zero, exempt_when: None },
        ];
        let got = run(&ScanSpec { masks: &masks, ..Default::default() }, &ctx);
        assert_eq!(got[1], vec![Value::Int(0), Value::Str("bob".into()), Value::Int(0)]);
    }

    #[test]
    fn binding_fails_on_an_unknown_column_before_any_row() {
        let ctx = EvalContext::anonymous();
        let unknown = Expr::cmp("nope", CmpOp::Eq, 1i64);
        for spec in [
            ScanSpec { predicate: Some(&unknown), ..Default::default() },
            ScanSpec { row_filter: Some(&unknown), ..Default::default() },
        ] {
            assert!(matches!(Plan::bind(&schema(), &spec, &ctx), Err(DeltaError::Schema(_))));
        }
        let columns = ["nope".to_string()];
        let spec = ScanSpec { columns: Some(&columns), ..Default::default() };
        assert!(matches!(Plan::bind(&schema(), &spec, &ctx), Err(DeltaError::Schema(_))));
    }
}
