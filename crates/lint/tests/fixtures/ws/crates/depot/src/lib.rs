//! Second fixture crate: cross-crate callees for the interprocedural
//! rules. The demo crate reaches these through `uc_depot::`-qualified
//! calls (and through the `Uc` receiver type), so every diagnostic they
//! cause crosses a crate boundary — exactly what the old per-function
//! scanner could not see.
#![forbid(unsafe_code)]

pub struct Uc;

impl Uc {
    /// Yieldful catalog read: demo's `held_across_yieldful_call` holds a
    /// guard across a call to this method. The old linter needed this
    /// name curated in `yieldful_calls`; now the yield below is found by
    /// call-graph reachability.
    pub fn get_entity_by_id(&self, _id: u32) -> u32 {
        yield_point(2);
        7
    }
}

/// First hop of the cross-crate yield chain: yields two calls below the
/// demo crate's call site.
pub fn mid_hop(uc: &Uc) {
    leaf_hop(uc);
}

fn leaf_hop(_uc: &Uc) {
    yield_point(3);
}
