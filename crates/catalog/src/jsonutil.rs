//! Infallible JSON encoding for the catalog's own model types.
//!
//! Serializing an in-memory model type (entities, policies, lineage
//! edges, share members) cannot fail: none of them contain non-string
//! map keys or fallible `Serialize` impls. Routing every such encode
//! through this module keeps the rest of the crate free of `expect`
//! (the hygiene rule) while concentrating the panic-on-bug behavior in
//! two audited lines.

use serde::Serialize;

/// JSON-encode a model value to bytes.
#[expect(clippy::expect_used, reason = "model types serialize infallibly; a failure here is a code bug")]
pub(crate) fn to_vec<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    serde_json::to_vec(value).expect("model type serializes")
}

/// JSON-encode a model value to a string.
#[expect(clippy::expect_used, reason = "model types serialize infallibly; a failure here is a code bug")]
pub(crate) fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("model type serializes")
}
