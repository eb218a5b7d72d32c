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

/// A node set as ascending, disjoint `[start, end)` id runs — the shape an
/// allocation takes on a machine whose ids follow the torus curve. Pushing
/// a run that touches the previous one extends it, so equal sets always
/// have equal run lists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeRuns {
    runs: Vec<(usize, usize)>,
}

impl NodeRuns {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Group strictly ascending ids into runs; `None` when the ids are not
    /// strictly ascending (unsorted or duplicated).
    pub fn from_sorted(nodes: &[NodeId]) -> Option<Self> {
        if nodes.windows(2).any(|w| w[1] <= w[0]) {
            return None;
        }
        let mut out = Self::new();
        for (start, end) in id_runs(nodes) {
            out.push(start, end);
        }
        Some(out)
    }

    /// Append the run `[start, end)`, merging it into the last run when the
    /// two touch.
    ///
    /// # Panics
    /// Panics if the run is empty or starts before the last run ends.
    pub fn push(&mut self, start: usize, end: usize) {
        assert!(start < end, "empty run [{start}, {end})");
        match self.runs.last_mut() {
            Some(last) if last.1 == start => last.1 = end,
            Some(last) => {
                assert!(last.1 < start, "run [{start}, {end}) is out of order");
                self.runs.push((start, end));
            }
            None => self.runs.push((start, end)),
        }
    }

    /// The `[start, end)` runs, ascending.
    pub fn runs(&self) -> &[(usize, usize)] {
        &self.runs
    }

    /// Number of nodes in the set. O(runs).
    pub fn len(&self) -> usize {
        self.runs.iter().map(|&(s, e)| e - s).sum()
    }

    /// True for the empty set.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The nodes in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.runs.iter().flat_map(|&(s, e)| (s..e).map(NodeId))
    }

    /// Whether `node` is in the set. O(log runs).
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        let k = self.runs.partition_point(|&(_, e)| e <= i);
        self.runs.get(k).is_some_and(|&(s, _)| s <= i)
    }

    /// The nodes as an ascending list.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

/// The maximal stretches of consecutive ascending ids in `nodes`, as
/// `[start, end)` pairs in input order: `[3, 4, 5, 9, 2]` gives `(3, 6)`,
/// `(9, 10)`, `(2, 3)`.
pub fn id_runs(nodes: &[NodeId]) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        let start = nodes.get(i)?.index();
        let mut end = start + 1;
        i += 1;
        while nodes.get(i).is_some_and(|n| n.index() == end) {
            end += 1;
            i += 1;
        }
        Some((start, end))
    })
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

    /// [`set_mean_hops`](Self::set_mean_hops) for a set given as id runs,
    /// scored from the run endpoints alone. `None` (the default) sends
    /// [`runs_mean_pairwise_hops`](crate::placement::runs_mean_pairwise_hops)
    /// down the dense pair scan.
    fn runs_mean_hops(&self, _runs: &NodeRuns) -> Option<f64> {
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
    fn node_runs_merge_touching_runs_and_answer_membership() {
        let mut r = NodeRuns::new();
        assert!(r.is_empty());
        r.push(2, 5);
        r.push(5, 7);
        r.push(9, 10);
        assert_eq!(r.runs(), &[(2, 7), (9, 10)]);
        assert_eq!(r.len(), 6);
        let ids: Vec<usize> = r.iter().map(NodeId::index).collect();
        assert_eq!(ids, vec![2, 3, 4, 5, 6, 9]);
        for i in 0..12 {
            assert_eq!(r.contains(NodeId(i)), ids.contains(&i), "id {i}");
        }
        assert_eq!(NodeRuns::from_sorted(&r.to_vec()), Some(r));
        let ids: Vec<NodeId> = [3, 4, 5, 9, 2].map(NodeId).to_vec();
        let runs: Vec<(usize, usize)> = id_runs(&ids).collect();
        assert_eq!(runs, vec![(3, 6), (9, 10), (2, 3)]);
        assert_eq!(NodeRuns::from_sorted(&[NodeId(3), NodeId(3)]), None);
        assert_eq!(NodeRuns::from_sorted(&[NodeId(4), NodeId(1)]), None);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn node_runs_reject_overlap() {
        let mut r = NodeRuns::new();
        r.push(4, 8);
        r.push(6, 9);
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
