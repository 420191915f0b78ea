//! Fixture crate root: one module per rule family.

pub mod api;
pub mod keyspace;
