//! Attribute-based access control (§3.3).
//!
//! An ABAC policy lives on a *container* (catalog or schema, or the
//! metastore itself) and applies to every current and future securable in
//! that scope whose tags match the policy's condition. Policies are
//! evaluated dynamically at metadata-resolution time, so newly tagged or
//! newly created assets are covered immediately without re-grants.
//!
//! Two effects are modelled, covering the paper's motivating examples:
//!
//! * [`AbacEffect::MaskColumns`] — apply a redacting column mask to every
//!   column tagged with the policy's tag ("mask all 'PII' columns for
//!   non-privileged users");
//! * [`AbacEffect::RestrictAccess`] — deny data access to matching assets
//!   unless the caller is in one of the exempt groups.

use std::collections::{BTreeMap, HashSet};

use serde::{Deserialize, Serialize};

use uc_delta::expr::Expr;

use crate::authz::fgac::ColumnMaskPolicy;

/// What a matched policy does.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AbacEffect {
    /// Mask matching *columns* (tag match is evaluated per column).
    MaskColumns {
        /// Replacement expression.
        mask: Expr,
        /// Groups that see unmasked data.
        exempt_groups: Vec<String>,
    },
    /// Deny data access to matching *securables* unless in a group.
    RestrictAccess { allowed_groups: Vec<String> },
}

/// A tag-driven policy attached to a container scope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AbacPolicy {
    pub name: String,
    /// Tag key the policy matches on (e.g. "pii").
    pub tag_key: String,
    /// Optional tag value constraint; `None` matches any value.
    pub tag_value: Option<String>,
    pub effect: AbacEffect,
}

impl AbacPolicy {
    /// Does this policy match a tag set (`key → value`)?
    pub fn matches(&self, tags: &BTreeMap<String, String>) -> bool {
        tags.get(&self.tag_key)
            .is_some_and(|value| self.tag_value.as_ref().is_none_or(|v| v == value))
    }

    /// Synthesize the column masks this policy induces, given a table's
    /// column tags (`column → key → value`) and the caller's groups.
    pub fn derive_masks(
        &self,
        column_tags: &BTreeMap<String, BTreeMap<String, String>>,
        caller_groups: &HashSet<String>,
    ) -> Vec<ColumnMaskPolicy> {
        let AbacEffect::MaskColumns { mask, exempt_groups } = &self.effect else {
            return Vec::new();
        };
        if exempt_groups.iter().any(|g| caller_groups.contains(g)) {
            return Vec::new();
        }
        column_tags
            .iter()
            .filter(|(_, tags)| self.matches(tags))
            .map(|(col, _)| ColumnMaskPolicy {
                column: col.clone(),
                mask: mask.clone(),
                exempt_when: None,
            })
            .collect()
    }

    /// Evaluate an access restriction against the caller. `None` means the
    /// policy is not a restriction or does not match; `Some(allowed)`
    /// reports the decision.
    pub fn evaluate_restriction(
        &self,
        entity_tags: &BTreeMap<String, String>,
        caller_groups: &HashSet<String>,
    ) -> Option<bool> {
        let AbacEffect::RestrictAccess { allowed_groups } = &self.effect else {
            return None;
        };
        if !self.matches(entity_tags) {
            return None;
        }
        Some(allowed_groups.iter().any(|g| caller_groups.contains(g)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_delta::value::Value;

    fn tags(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    fn column_tags(triples: &[(&str, &str, &str)]) -> BTreeMap<String, BTreeMap<String, String>> {
        let mut out: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
        for (col, k, v) in triples {
            out.entry(col.to_string()).or_default().insert(k.to_string(), v.to_string());
        }
        out
    }

    fn pii_mask_policy() -> AbacPolicy {
        AbacPolicy {
            name: "mask-pii".into(),
            tag_key: "pii".into(),
            tag_value: None,
            effect: AbacEffect::MaskColumns {
                mask: Expr::Literal(Value::Str("REDACTED".into())),
                exempt_groups: vec!["privacy-officers".into()],
            },
        }
    }

    #[test]
    fn tag_matching_with_and_without_value() {
        let any = pii_mask_policy();
        assert!(any.matches(&tags(&[("pii", "email")])));
        assert!(any.matches(&tags(&[("owner", "x"), ("pii", "")])));
        assert!(!any.matches(&tags(&[("owner", "x")])));

        let specific = AbacPolicy { tag_value: Some("high".into()), ..pii_mask_policy() };
        assert!(specific.matches(&tags(&[("pii", "high")])));
        assert!(!specific.matches(&tags(&[("pii", "low")])));
    }

    #[test]
    fn derive_masks_for_tagged_columns() {
        let p = pii_mask_policy();
        let coltags = column_tags(&[("ssn", "pii", "high"), ("email", "pii", "email"), ("amount", "finance", "x")]);
        let masks = p.derive_masks(&coltags, &HashSet::new());
        let cols: Vec<_> = masks.iter().map(|m| m.column.as_str()).collect();
        assert_eq!(cols, vec!["email", "ssn"]);
    }

    #[test]
    fn exempt_groups_see_unmasked_data() {
        let p = pii_mask_policy();
        let coltags = column_tags(&[("ssn", "pii", "x")]);
        let groups: HashSet<String> = ["privacy-officers".to_string()].into();
        assert!(p.derive_masks(&coltags, &groups).is_empty());
    }

    #[test]
    fn restriction_evaluation() {
        let p = AbacPolicy {
            name: "restricted-data".into(),
            tag_key: "classification".into(),
            tag_value: Some("secret".into()),
            effect: AbacEffect::RestrictAccess { allowed_groups: vec!["cleared".into()] },
        };
        let secret = tags(&[("classification", "secret")]);
        assert_eq!(p.evaluate_restriction(&secret, &HashSet::new()), Some(false));
        let cleared: HashSet<String> = ["cleared".to_string()].into();
        assert_eq!(p.evaluate_restriction(&secret, &cleared), Some(true));
        // untagged entity: policy silent
        assert_eq!(p.evaluate_restriction(&BTreeMap::new(), &HashSet::new()), None);
        // mask policies never answer restriction queries
        assert_eq!(pii_mask_policy().evaluate_restriction(&secret, &HashSet::new()), None);
    }

    /// ABAC policies are stored inside their container's row, by name, and
    /// come back from its encoding unchanged.
    #[test]
    fn policy_storage_roundtrip() {
        use crate::ids::Uid;
        use crate::model::entity::Entity;
        use crate::types::SecurableKind;

        let p = pii_mask_policy();
        let mut schema = Entity::new(SecurableKind::Schema, "s", Some(Uid::from("c")), Uid::from("ms"), "o", 0);
        schema.governance_mut().abac.insert(p.name.clone(), p.clone());
        let back = Entity::decode(&schema.encode()).unwrap();
        assert_eq!(back.governance().abac.get("mask-pii"), Some(&p));
        assert_eq!(back.governance().abac.len(), 1);
    }
}
