//! Governance: privileges, grants, authorization decisions, FGAC, ABAC.
//!
//! The model follows §3.3 of the paper:
//!
//! * every securable has an **owner** holding all privileges on it;
//! * **grants** are SQL-style and **inherit down** the securable
//!   hierarchy — a SELECT grant on a catalog covers all current and
//!   future tables in it;
//! * **administrative authority** (owner of the object or an ancestor,
//!   a MANAGE grant, or metastore admin) is inherited for *managing*
//!   descendants but confers no data access by itself;
//! * **usage privileges** (USE CATALOG / USE SCHEMA) gate traversal into
//!   containers;
//! * **fine-grained access control** attaches row filters and column
//!   masks that only trusted engines may enforce;
//! * **attribute-based access control** derives FGAC policies and access
//!   restrictions dynamically from tags within a container scope.

pub mod abac;
pub mod decision;
pub mod fgac;
pub mod privilege;

pub use abac::{AbacEffect, AbacPolicy};
pub use decision::{decide, AuthzContext, AuthzNode, Need};
pub use fgac::{ColumnMaskPolicy, RowFilterPolicy};
pub use privilege::Privilege;
