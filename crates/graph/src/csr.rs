//! Compressed-sparse-row graph representation.

use crate::store::{EdgeIter, GraphStore, NeighborsRef, SizeBreakdown, WeightsRef};
use std::fmt;

/// Identifier of a node in a graph. Node ids are dense: a graph with `n`
/// nodes uses ids `0..n`.
pub type NodeId = u32;

/// Weight of an edge.
///
/// Weights are integral: the paper's workloads either ignore weights
/// (connected components, MIS), use unit weights that aggregate to integer
/// sums under coarsening (Louvain/Leiden), or compare weights for minima
/// (Boruvka). Integer weights keep reductions exact and deterministic.
pub type Weight = u64;

/// An immutable directed graph in compressed-sparse-row form, with one
/// weight per edge.
///
/// The adjacency lives in a [`GraphStore`]: either raw CSR arrays or a
/// bit-packed delta compressed tier ([`Graph::compress`]) — every accessor
/// works identically on both.
///
/// All algorithms in this workspace treat the graph as *symmetric* (every
/// edge has its reverse present); [`crate::GraphBuilder`] enforces that when
/// asked. `Graph` itself does not require symmetry.
///
/// # Example
///
/// ```
/// use kimbap_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1, 5);
/// b.add_edge(1, 2, 7);
/// let g = b.symmetric(true).build();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 4); // both directions
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    store: GraphStore,
}

impl Graph {
    /// Builds a graph directly from CSR arrays.
    ///
    /// Prefer [`crate::GraphBuilder`] unless you already hold CSR data.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent (see [`Graph::try_from_csr`]).
    pub fn from_csr(offsets: Vec<u64>, targets: Vec<NodeId>, weights: Vec<Weight>) -> Self {
        Self::try_from_csr(offsets, targets, weights).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a graph from CSR arrays, or says which rule they break.
    ///
    /// # Errors
    ///
    /// Fails if the arrays are inconsistent: `offsets` must start at 0 and
    /// never decrease, its last element must equal `targets.len()`,
    /// `weights.len()` must equal `targets.len()`, and every target must be
    /// a valid node id.
    pub fn try_from_csr(
        offsets: Vec<u64>,
        targets: Vec<NodeId>,
        weights: Vec<Weight>,
    ) -> Result<Self, &'static str> {
        if offsets.first() != Some(&0) {
            return Err("offsets must start at 0");
        }
        if offsets.last() != Some(&(targets.len() as u64)) {
            return Err("last offset must equal the number of edges");
        }
        if weights.len() != targets.len() {
            return Err("one weight per edge");
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be non-decreasing");
        }
        let n = (offsets.len() - 1) as u64;
        if targets.iter().any(|&t| u64::from(t) >= n) {
            return Err("edge target out of range");
        }
        Ok(Graph {
            store: GraphStore::Raw {
                offsets,
                targets,
                weights,
            },
        })
    }

    /// The backing store.
    pub fn store(&self) -> &GraphStore {
        &self.store
    }

    /// This graph re-encoded on the compressed tier. Neighbor blocks are
    /// sorted during encoding, so an unsorted-within-source raw graph will
    /// come back with each node's edges sorted.
    pub fn compress(&self) -> Graph {
        Graph {
            store: self.store.compressed(),
        }
    }

    /// This graph re-materialized on the raw tier.
    pub fn decompress(&self) -> Graph {
        Graph {
            store: self.store.decompressed(),
        }
    }

    /// `true` if backed by the compressed tier.
    pub fn is_compressed(&self) -> bool {
        self.store.is_compressed()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.store.num_nodes()
    }

    /// Number of *directed* edges. A symmetric graph stores both directions
    /// of each undirected edge, so this is twice the undirected edge count.
    pub fn num_edges(&self) -> usize {
        self.store.num_edges()
    }

    /// Out-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> usize {
        self.store.degree(u)
    }

    /// Neighbors of `u`, sorted ascending. Borrowed on the raw tier;
    /// decoded into a per-thread scratch buffer on the compressed tier.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: NodeId) -> NeighborsRef<'_> {
        self.store.neighbors(u)
    }

    /// Weights of `u`'s out-edges, parallel to [`Graph::neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn edge_weights(&self, u: NodeId) -> WeightsRef<'_> {
        self.store.edge_weights(u)
    }

    /// Iterates `(neighbor, weight)` pairs of `u`'s out-edges.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn edges(&self, u: NodeId) -> EdgeIter<'_> {
        self.store.edges(u)
    }

    /// Sum of the weights of `u`'s out-edges (the *weighted degree* used by
    /// modularity computations).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn weighted_degree(&self, u: NodeId) -> u64 {
        self.store.weighted_degree(u)
    }

    /// Total weight of all directed edges.
    pub fn total_weight(&self) -> u64 {
        self.store.total_weight()
    }

    /// Maximum out-degree over all nodes, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as NodeId)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Iterates all node ids `0..num_nodes()`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Iterates every directed edge as `(src, dst, weight)`.
    pub fn all_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.nodes()
            .flat_map(move |u| self.edges(u).map(move |(v, w)| (u, v, w)))
    }

    /// Returns `true` if every edge `(u, v, w)` has a reverse `(v, u, w)`.
    ///
    /// Copies every row once, sorted by `(target, weight)`, so each reverse
    /// edge is one binary search away: O(m log d) in all, where scanning
    /// `v`'s row for every edge into `v` costs Σ deg(v)² on a power-law
    /// graph. Rows need not be sorted or free of parallel edges.
    pub fn is_symmetric(&self) -> bool {
        let mut rows: Vec<(NodeId, Weight)> = Vec::with_capacity(self.num_edges());
        let mut offsets = Vec::with_capacity(self.num_nodes() + 1);
        offsets.push(0);
        for u in self.nodes() {
            let start = rows.len();
            rows.extend(self.edges(u));
            rows[start..].sort_unstable();
            offsets.push(rows.len());
        }
        let row = |u: NodeId| &rows[offsets[u as usize]..offsets[u as usize + 1]];
        self.nodes().all(|u| {
            row(u)
                .iter()
                .all(|&(v, w)| row(v).binary_search(&(u, w)).is_ok())
        })
    }

    /// In-memory size in bytes, including per-component allocations and
    /// struct overhead (see [`Graph::size_breakdown`]).
    pub fn size_bytes(&self) -> usize {
        self.store.size_bytes()
    }

    /// Per-component byte accounting of the backing store.
    pub fn size_breakdown(&self) -> SizeBreakdown {
        self.store.size_breakdown()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("num_nodes", &self.num_nodes())
            .field("num_edges", &self.num_edges())
            .field("compressed", &self.is_compressed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_csr(
            vec![0, 2, 4, 6],
            vec![1, 2, 0, 2, 0, 1],
            vec![1, 1, 1, 1, 1, 1],
        )
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.weighted_degree(0), 2);
        assert_eq!(g.total_weight(), 6);
        assert_eq!(g.max_degree(), 2);
        assert!(g.is_symmetric());
    }

    #[test]
    fn compressed_tier_matches_raw() {
        let g = triangle();
        let c = g.compress();
        assert!(c.is_compressed());
        assert_eq!(g.num_edges(), c.num_edges());
        for u in g.nodes() {
            assert_eq!(&g.neighbors(u)[..], &c.neighbors(u)[..]);
            assert_eq!(&g.edge_weights(u)[..], &c.edge_weights(u)[..]);
        }
        assert_eq!(c.decompress(), g);
        assert!(c.size_bytes() < g.size_bytes());
    }

    #[test]
    fn size_bytes_counts_offsets_and_struct() {
        let g = Graph::from_csr(vec![0], vec![], vec![]);
        let b = g.size_breakdown();
        // Even an empty graph holds the one-entry offsets array plus the
        // container itself.
        assert!(b.offsets >= 8);
        assert!(b.struct_bytes > 0);
        assert_eq!(g.size_bytes(), b.total());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_csr(vec![0], vec![], vec![]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.is_symmetric());
    }

    #[test]
    fn isolated_nodes() {
        let g = Graph::from_csr(vec![0, 0, 0, 1], vec![0], vec![9]);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(2), 1);
        assert_eq!(g.edges(2).collect::<Vec<_>>(), vec![(0, 9)]);
        assert!(!g.is_symmetric());
    }

    #[test]
    fn symmetry_needs_every_reverse_edge_with_its_weight() {
        // Hub 0 links to 1..=5 and back, with a parallel pair to 5; the
        // reverse rows are unsorted.
        let hub = |w05: Weight, drop_reverse: bool| {
            let mut rows: Vec<Vec<(NodeId, Weight)>> = vec![
                vec![(5, 2), (3, 1), (1, 1), (5, 7), (4, 1), (2, 1)],
                vec![(0, 1)],
                vec![(0, 1)],
                vec![(0, 1)],
                vec![(0, 1)],
                vec![(0, 7), (0, w05)],
            ];
            if drop_reverse {
                rows[3].clear();
            }
            let mut offsets = vec![0];
            let (mut targets, mut weights) = (Vec::new(), Vec::new());
            for row in rows {
                for (t, w) in row {
                    targets.push(t);
                    weights.push(w);
                }
                offsets.push(targets.len() as u64);
            }
            Graph::from_csr(offsets, targets, weights)
        };
        assert!(hub(2, false).is_symmetric());
        assert!(hub(2, false).compress().is_symmetric());
        // 0 -> 5 weighs 2, but no 5 -> 0 does.
        assert!(!hub(3, false).is_symmetric());
        // 0 -> 3 has no reverse edge at all.
        assert!(!hub(2, true).is_symmetric());
    }

    #[test]
    fn all_edges_enumerates_in_csr_order() {
        let g = triangle();
        let edges: Vec<_> = g.all_edges().collect();
        assert_eq!(edges.len(), 6);
        assert_eq!(edges[0], (0, 1, 1));
        assert_eq!(edges[5], (2, 1, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn degree_out_of_range_panics() {
        triangle().degree(3);
    }

    #[test]
    #[should_panic(expected = "edge target out of range")]
    fn bad_target_panics() {
        Graph::from_csr(vec![0, 1], vec![5], vec![1]);
    }

    #[test]
    #[should_panic(expected = "last offset")]
    fn inconsistent_offsets_panic() {
        Graph::from_csr(vec![0, 2], vec![0], vec![1]);
    }

    #[test]
    fn try_from_csr_names_the_broken_rule() {
        let bad = |o: &[u64], t: &[NodeId], w: &[Weight]| {
            Graph::try_from_csr(o.to_vec(), t.to_vec(), w.to_vec()).unwrap_err()
        };
        let start = "offsets must start at 0";
        assert_eq!(bad(&[], &[], &[]), start);
        // Degrees sum to 1, not the 3 edges.
        assert_eq!(bad(&[2, 2, 3], &[0, 1, 0], &[1; 3]), start);
        let order = "offsets must be non-decreasing";
        assert_eq!(bad(&[0, 5, 3, 5], &[0; 5], &[1; 5]), order);
        assert_eq!(bad(&[0, 1], &[0], &[]), "one weight per edge");
    }
}
