//! The topology abstraction shared by all interconnect models.

/// Identifier of a compute node within a cluster (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A network topology: node count, point-to-point hop distance, and link
/// sharing class.
pub trait Topology {
    /// Number of nodes attached to the network.
    fn nodes(&self) -> usize;

    /// Number of switch/router hops on the minimal route between two nodes.
    /// Zero for a node talking to itself.
    fn hops(&self, a: NodeId, b: NodeId) -> usize;

    /// Oversubscription factor of the route: 1.0 when the pair enjoys
    /// dedicated link capacity (same leaf switch / same Tofu group), larger
    /// when the route crosses tapered or shared trunk links.
    fn sharing(&self, a: NodeId, b: NodeId) -> f64;

    /// Human-readable topology name.
    fn name(&self) -> &str;

    /// Largest hop distance over all pairs (diameter). Default implementation
    /// scans all pairs; concrete topologies may override with a closed form.
    fn diameter(&self) -> usize {
        let n = self.nodes();
        let mut d = 0;
        for a in 0..n {
            for b in 0..n {
                d = d.max(self.hops(NodeId(a), NodeId(b)));
            }
        }
        d
    }

    /// Mean pairwise hop distance of a node set in closed form, when the
    /// topology can produce it without enumerating the k² pairs. `None`
    /// (the default) sends callers down the dense pair scan in
    /// [`mean_pairwise_hops`](crate::placement::mean_pairwise_hops);
    /// topologies with per-dimension separable distances (TofuD) override
    /// this with an exact histogram fold that is bit-identical to the
    /// scan. Implementations may also return `None` for inputs they
    /// cannot fold (unsorted or duplicated ids).
    fn set_mean_hops(&self, _nodes: &[NodeId]) -> Option<f64> {
        None
    }

    /// Build the memoized pair table a `Network` consults on its fast
    /// path. Defaults to the dense all-pairs
    /// [`RoutingTable`](crate::table::RoutingTable); topologies with
    /// translation symmetry override this to return a folded table whose
    /// memory is independent of the pair count (TofuD folds 158,976-node
    /// Fugaku from ~100 GB dense to under 10 MB). Either way the table
    /// answers `hops`/`sharing` bit-for-bit like the topology itself.
    fn pair_table(&self) -> crate::table::PairTable
    where
        Self: Sized + Sync,
    {
        crate::table::PairTable::Dense(crate::table::RoutingTable::build(self))
    }
}

/// Validate a node id against a topology, panicking with context otherwise.
pub fn check_node<T: Topology + ?Sized>(topo: &T, n: NodeId) {
    assert!(
        n.index() < topo.nodes(),
        "node {n} out of range for {} ({} nodes)",
        topo.name(),
        topo.nodes()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Line(usize);
    impl Topology for Line {
        fn nodes(&self) -> usize {
            self.0
        }
        fn hops(&self, a: NodeId, b: NodeId) -> usize {
            a.index().abs_diff(b.index())
        }
        fn sharing(&self, _: NodeId, _: NodeId) -> f64 {
            1.0
        }
        fn name(&self) -> &str {
            "line"
        }
    }

    #[test]
    fn default_diameter_scans_pairs() {
        assert_eq!(Line(5).diameter(), 4);
        assert_eq!(Line(1).diameter(), 0);
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId(7).to_string(), "n7");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn check_node_panics() {
        check_node(&Line(3), NodeId(3));
    }
}
