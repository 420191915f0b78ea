//! `render_select` and `parse_statement` are inverse on the queries the
//! parser builds: a view's body is stored rendered and parsed back on
//! read, and the data filtering service used to hand a query over the same
//! way, so a query that does not survive the trip changes what it reads.
//!
//! Each case is a generated `SelectQuery` of the shapes the parser can
//! build: any projection, a one- to four-part name, an optional ORDER BY
//! and LIMIT, and a predicate over columns, literals of every type,
//! `current_user()`, group membership, comparisons, AND / OR / NOT and
//! IS NULL, nested. The tree is built as the parser would build it from
//! SQL: a comparison's or IS NULL's operand is a primary (or a
//! parenthesized AND / OR), and a float carries a fraction — `1.0` renders
//! as `1`, which reads back as an integer.

use proptest::prelude::*;
use rand::Rng;
use uc_catalog::types::FullName;
use uc_delta::expr::{CmpOp, Expr};
use uc_delta::value::Value;
use uc_engine::sql::{render_select, Projection, SelectQuery};
use uc_engine::{parse_statement, Statement};

/// Identifiers no keyword of the dialect spells.
const NAMES: [&str; 8] = ["id", "grp", "owner", "amount", "x", "_y", "t000012", "main"];
const STRINGS: [&str; 5] = ["", "ann", "a b", "café", "x = 1 AND"];

struct Gen<'r> {
    rng: &'r mut TestRng,
}

impl Gen<'_> {
    fn below(&mut self, n: usize) -> usize {
        self.rng.inner().gen_range(0..n)
    }

    fn name(&mut self) -> String {
        NAMES[self.below(NAMES.len())].to_string()
    }

    fn literal(&mut self) -> Value {
        match self.below(6) {
            0 => Value::Null,
            1 => Value::Bool(self.below(2) == 0),
            2 => Value::Int(self.below(2001) as i64 - 1000),
            3 => Value::Int(if self.below(2) == 0 { i64::MIN } else { i64::MAX }),
            4 => Value::Float(self.below(81) as f64 - 40.0 + [0.25, 0.5, 0.75][self.below(3)]),
            _ => Value::Str(STRINGS[self.below(STRINGS.len())].to_string()),
        }
    }

    /// What a comparison or IS NULL may take as an operand.
    fn operand(&mut self, depth: usize) -> Expr {
        match self.below(if depth == 0 { 4 } else { 6 }) {
            0 => Expr::Column(self.name()),
            1 => Expr::Literal(self.literal()),
            2 if self.below(2) == 0 => Expr::CurrentUser,
            2 => Expr::IsAccountGroupMember(STRINGS[self.below(STRINGS.len())].to_string()),
            3 => Expr::Literal(self.literal()),
            4 => self.predicate(depth - 1).and(self.predicate(depth - 1)),
            _ => self.predicate(depth - 1).or(self.predicate(depth - 1)),
        }
    }

    /// A WHERE clause at most `depth` connectives deep.
    fn predicate(&mut self, depth: usize) -> Expr {
        match self.below(if depth == 0 { 3 } else { 6 }) {
            0 => {
                let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][self.below(6)];
                let (lhs, rhs) = (self.operand(depth), self.operand(depth));
                Expr::Cmp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
            }
            1 => Expr::IsNull(Box::new(self.operand(depth))),
            2 => self.operand(depth),
            3 => Expr::Not(Box::new(self.predicate(depth - 1))),
            4 => self.predicate(depth - 1).and(self.predicate(depth - 1)),
            _ => self.predicate(depth - 1).or(self.predicate(depth - 1)),
        }
    }

    fn query(&mut self) -> SelectQuery {
        let projection = match self.below(3) {
            0 => Projection::Star,
            1 => Projection::CountStar,
            _ => Projection::Columns((0..1 + self.below(4)).map(|_| self.name()).collect()),
        };
        let parts = (0..1 + self.below(4)).map(|_| self.name()).collect();
        SelectQuery {
            projection,
            from: FullName::from_parts(parts).unwrap(),
            predicate: (self.below(4) != 0).then(|| self.predicate(3)),
            order_by: (self.below(3) == 0).then(|| (self.name(), self.below(2) == 0)),
            limit: (self.below(3) == 0).then(|| self.below(1000)),
        }
    }
}

struct Queries;

impl Strategy for Queries {
    type Value = SelectQuery;

    fn generate(&self, rng: &mut TestRng) -> SelectQuery {
        Gen { rng }.query()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn a_rendered_select_parses_back_to_itself(q in Queries) {
        let sql = render_select(&q);
        match parse_statement(&sql) {
            Ok(Statement::Select(back)) => assert_eq!(back, q, "{sql}"),
            other => panic!("{sql}: {other:?}"),
        }
    }
}
