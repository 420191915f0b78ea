//! Fine-grained access control policies (§4.3.2).
//!
//! Row filters and column masks are *policies stored by the catalog,
//! enforced by trusted engines*. The catalog returns them as part of
//! metadata resolution only to engines authenticated as trusted; access to
//! tables carrying FGAC policies is denied outright to untrusted engines,
//! which must delegate to a data-filtering service instead.

use serde::{Deserialize, Serialize};

use uc_delta::expr::Expr;

/// A row filter: rows are visible only where the expression evaluates to
/// TRUE for the calling principal. May reference `current_user()` and
/// `is_account_group_member(...)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RowFilterPolicy {
    pub expr: Expr,
}

/// A column mask: the column's value is replaced by `mask` unless the
/// optional exemption expression evaluates to TRUE for the caller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnMaskPolicy {
    pub column: String,
    /// Replacement expression (commonly a literal like `'REDACTED'`).
    pub mask: Expr,
    /// If present and TRUE for the caller, the mask is not applied.
    pub exempt_when: Option<Expr>,
}

/// The FGAC bundle: stored on a relation (its `Governance::fgac`) and
/// returned with its metadata to trusted engines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FgacPolicies {
    pub row_filter: Option<RowFilterPolicy>,
    pub column_masks: Vec<ColumnMaskPolicy>,
}

impl FgacPolicies {
    pub fn is_empty(&self) -> bool {
        self.row_filter.is_none() && self.column_masks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::UcError;
    use crate::ids::Uid;
    use crate::model::entity::Entity;
    use crate::types::SecurableKind;
    use uc_delta::expr::CmpOp;
    use uc_delta::value::Value;

    fn owner_filter() -> RowFilterPolicy {
        RowFilterPolicy {
            expr: Expr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(Expr::Column("owner".into())),
                rhs: Box::new(Expr::CurrentUser),
            },
        }
    }

    fn ssn_mask() -> ColumnMaskPolicy {
        ColumnMaskPolicy {
            column: "ssn".into(),
            mask: Expr::Literal(Value::Str("***-**-****".into())),
            exempt_when: Some(Expr::IsAccountGroupMember("hr".into())),
        }
    }

    /// A table whose stored FGAC bundle is `fgac`.
    fn governed_table(fgac: FgacPolicies) -> Entity {
        let mut t = Entity::new(SecurableKind::Table, "t", Some(Uid::from("s")), Uid::from("ms"), "o", 0);
        t.governance_mut().fgac = fgac;
        t
    }

    /// Policies are stored inside their relation's row and come back from
    /// its encoding unchanged.
    #[test]
    fn policies_roundtrip_through_storage_encoding() {
        let stored = FgacPolicies { row_filter: Some(owner_filter()), column_masks: vec![ssn_mask()] };
        let row = governed_table(stored.clone()).encode();
        let back = Entity::decode(&row).unwrap();
        assert_eq!(back.governance().fgac.row_filter, Some(owner_filter()));
        assert_eq!(back.governance().fgac.column_masks, vec![ssn_mask()]);
        assert_eq!(back.governance().fgac, stored);
    }

    /// A stored row filter or column mask that does not decode fails the
    /// read of its row, a `Database` error: it never reads as absent.
    #[test]
    fn decode_rejects_garbage() {
        let stored = FgacPolicies { row_filter: None, column_masks: vec![ssn_mask()] };
        let row = String::from_utf8(governed_table(stored).encode().to_vec()).unwrap();
        for (good, bad) in [
            (r#""row_filter":null"#, r#""row_filter":"zzz""#),
            (r#""column_masks":[{"#, r#""column_masks":["zzz",{"#),
        ] {
            assert!(row.contains(good), "{row}");
            let err = Entity::decode(row.replace(good, bad).as_bytes()).unwrap_err();
            assert!(matches!(err, UcError::Database(_)), "{err:?}");
        }
    }

    #[test]
    fn empty_bundle_detection() {
        assert!(FgacPolicies::default().is_empty());
        let bundle = FgacPolicies {
            row_filter: None,
            column_masks: vec![ColumnMaskPolicy {
                column: "c".into(),
                mask: Expr::Literal(Value::Null),
                exempt_when: None,
            }],
        };
        assert!(!bundle.is_empty());
    }
}
