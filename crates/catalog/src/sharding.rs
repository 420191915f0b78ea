//! Best-effort metastore-to-node assignment (§4.5, "UC shards metastores
//! across its nodes").
//!
//! Following the paper (and Slicer, which inspired Databricks' sharding
//! service), assignments are *best-effort with no hard guarantees*:
//! routing is rendezvous hashing over node ids, two routers with different
//! node views may send the same metastore to different nodes, and
//! correctness never depends on exclusive ownership — the metastore
//! version protocol detects concurrent owners and reconciles.

use std::sync::Arc;

use crate::ids::Uid;
use crate::service::UnityCatalog;

/// Routes metastores to catalog nodes.
pub struct ShardRouter {
    nodes: Vec<Arc<UnityCatalog>>,
}

impl ShardRouter {
    /// Build a router over an existing fleet. All nodes must share the
    /// same database and object store.
    pub fn new(nodes: Vec<Arc<UnityCatalog>>) -> Self {
        assert!(!nodes.is_empty(), "router needs at least one node");
        ShardRouter { nodes }
    }

    /// The node assigned to a metastore (highest rendezvous weight).
    #[expect(clippy::expect_used, reason = "the constructor asserts the fleet is non-empty")]
    pub fn node_for(&self, ms: &Uid) -> Arc<UnityCatalog> {
        self.nodes
            .iter()
            .max_by_key(|n| rendezvous_weight(n.node_id(), ms.as_str()))
            .expect("non-empty")
            .clone()
    }

    pub fn nodes(&self) -> &[Arc<UnityCatalog>] {
        &self.nodes
    }

    /// Simulate node loss: drop a node from the view. Metastores it owned
    /// re-route on the next call; the version protocol handles any writes
    /// still in flight on the removed node.
    pub fn remove_node(&mut self, node_id: &str) {
        self.nodes.retain(|n| n.node_id() != node_id);
        assert!(!self.nodes.is_empty(), "cannot remove the last node");
    }

    /// Add a node to the view (scale-out); some metastores re-route.
    pub fn add_node(&mut self, node: Arc<UnityCatalog>) {
        self.nodes.push(node);
    }
}

/// FNV-1a over the pair with an avalanche finalizer (splitmix64), as a
/// stable rendezvous weight. The finalizer matters: raw FNV diffuses
/// differences only towards high bits, which biases the max-weight choice.
fn rendezvous_weight(node_id: &str, ms: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in node_id.bytes().chain([0xff]).chain(ms.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::UcConfig;
    use uc_cloudstore::ObjectStore;
    use uc_txdb::Db;

    fn fleet(n: usize) -> Vec<Arc<UnityCatalog>> {
        let db = Db::in_memory();
        let store = ObjectStore::in_memory();
        (0..n)
            .map(|i| {
                UnityCatalog::new(db.clone(), store.clone(), UcConfig::default(), &format!("node-{i}"))
            })
            .collect()
    }

    #[test]
    fn routing_is_deterministic() {
        let router = ShardRouter::new(fleet(4));
        let ms = Uid::from("metastore-1");
        let a = router.node_for(&ms).node_id().to_string();
        let b = router.node_for(&ms).node_id().to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn routing_spreads_metastores() {
        let router = ShardRouter::new(fleet(4));
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            let ms = Uid::from(format!("ms-{i}").as_str());
            seen.insert(router.node_for(&ms).node_id().to_string());
        }
        assert_eq!(seen.len(), 4, "all nodes should receive some metastores");
    }

    #[test]
    fn node_removal_only_moves_its_metastores() {
        let nodes = fleet(4);
        let router_before = ShardRouter::new(nodes.clone());
        let mut router_after = ShardRouter::new(nodes);
        router_after.remove_node("node-2");
        let mut moved = 0;
        let mut total = 0;
        for i in 0..500 {
            let ms = Uid::from(format!("ms-{i}").as_str());
            let before = router_before.node_for(&ms).node_id().to_string();
            let after = router_after.node_for(&ms).node_id().to_string();
            total += 1;
            if before != after {
                moved += 1;
                assert_eq!(before, "node-2", "only the removed node's metastores move");
            }
        }
        // roughly a quarter should have lived on the removed node
        assert!(moved > 0 && moved < total / 2, "moved {moved}/{total}");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_router_panics() {
        let _ = ShardRouter::new(Vec::new()).node_for(&Uid::from("x"));
    }
}
