//! A two-level fat-tree, modelling MareNostrum 4's OmniPath fabric.
//!
//! Nodes hang off leaf (edge) switches; leaves connect to a spine layer.
//! Pairs under the same leaf take 2 hops (node→leaf→node); pairs under
//! different leaves take 4 (node→leaf→spine→leaf→node). The uplink layer is
//! tapered (MareNostrum 4 runs close to 2:1), so cross-leaf routes share
//! capacity.

use crate::topology::{check_node, NodeId, Topology};

/// Fat-tree description.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Total nodes.
    pub n_nodes: usize,
    /// Nodes per leaf switch.
    pub leaf_size: usize,
    /// Uplink taper: 1.0 = full bisection, 2.0 = half bisection (2:1).
    pub taper: f64,
}

impl FatTree {
    /// MareNostrum 4: 3456 nodes, 32-port leaves, ~2:1 taper to the spine.
    pub fn marenostrum4() -> Self {
        Self {
            n_nodes: 3456,
            leaf_size: 32,
            taper: 2.0,
        }
    }

    /// Custom geometry.
    ///
    /// # Panics
    /// Panics on a zero node count, zero leaf size or taper < 1.
    pub fn with_geometry(n_nodes: usize, leaf_size: usize, taper: f64) -> Self {
        assert!(n_nodes > 0 && leaf_size > 0, "degenerate fat-tree");
        assert!(taper >= 1.0, "taper must be ≥ 1");
        Self {
            n_nodes,
            leaf_size,
            taper,
        }
    }

    /// Which leaf switch a node hangs off.
    pub fn leaf_of(&self, n: NodeId) -> usize {
        check_node(self, n);
        n.index() / self.leaf_size
    }
}

impl Topology for FatTree {
    fn nodes(&self) -> usize {
        self.n_nodes
    }

    fn hops(&self, a: NodeId, b: NodeId) -> usize {
        if a == b {
            0
        } else if self.leaf_of(a) == self.leaf_of(b) {
            2
        } else {
            4
        }
    }

    fn sharing(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b || self.leaf_of(a) == self.leaf_of(b) {
            1.0
        } else {
            self.taper
        }
    }

    fn name(&self) -> &str {
        "OmniPath fat-tree"
    }

    fn diameter(&self) -> usize {
        if self.n_nodes <= self.leaf_size {
            2
        } else {
            4
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mn4_geometry() {
        let t = FatTree::marenostrum4();
        assert_eq!(t.nodes(), 3456);
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn hop_classes() {
        let t = FatTree::marenostrum4();
        assert_eq!(t.hops(NodeId(0), NodeId(0)), 0);
        assert_eq!(t.hops(NodeId(0), NodeId(31)), 2);
        assert_eq!(t.hops(NodeId(0), NodeId(32)), 4);
        assert_eq!(t.hops(NodeId(100), NodeId(3455)), 4);
    }

    #[test]
    fn sharing_reflects_taper() {
        let t = FatTree::marenostrum4();
        assert_eq!(t.sharing(NodeId(0), NodeId(5)), 1.0);
        assert_eq!(t.sharing(NodeId(0), NodeId(64)), 2.0);
    }

    #[test]
    fn single_leaf_tree_diameter() {
        let t = FatTree::with_geometry(16, 32, 1.0);
        assert_eq!(t.diameter(), 2);
    }

    #[test]
    #[should_panic(expected = "taper")]
    fn bad_taper_rejected() {
        FatTree::with_geometry(8, 4, 0.5);
    }
}
