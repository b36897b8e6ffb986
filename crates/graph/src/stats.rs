//! Summary statistics for graphs (the contents of the paper's Table 1).

use crate::csr::Graph;
use std::fmt;

/// Summary statistics of a graph, matching the columns of Table 1 in the
/// paper: `|V|`, `|E|`, `|E|/|V|`, max degree, and in-memory size.
///
/// # Example
///
/// ```
/// use kimbap_graph::{gen, GraphStats};
///
/// let g = gen::grid_road(8, 8, 0);
/// let s = GraphStats::of(&g);
/// assert_eq!(s.num_nodes, 64);
/// assert_eq!(s.max_degree, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of directed edges.
    pub num_edges: usize,
    /// Maximum out-degree.
    pub max_degree: usize,
    /// In-memory size in bytes (all components + struct overhead).
    pub size_bytes: usize,
    /// Bytes in the offsets array (raw) or block index (compressed).
    pub offsets_bytes: usize,
    /// Bytes in the targets array (raw) or topology: degrees, first
    /// targets and gap runs (compressed).
    pub targets_bytes: usize,
    /// Bytes in the weights array (raw) or weight runs (compressed).
    pub weights_bytes: usize,
    /// Whether the graph is stored on the compressed tier.
    pub compressed: bool,
}

impl GraphStats {
    /// Computes statistics for `g`.
    pub fn of(g: &Graph) -> Self {
        let b = g.size_breakdown();
        GraphStats {
            num_nodes: g.num_nodes(),
            num_edges: g.num_edges(),
            max_degree: g.max_degree(),
            size_bytes: b.total(),
            offsets_bytes: b.offsets,
            targets_bytes: b.targets,
            weights_bytes: b.weights,
            compressed: g.is_compressed(),
        }
    }

    /// Average stored bytes per directed edge, or 0.0 for an edgeless graph.
    pub fn bytes_per_edge(&self) -> f64 {
        if self.num_edges == 0 {
            0.0
        } else {
            self.size_bytes as f64 / self.num_edges as f64
        }
    }

    /// Average directed degree `|E| / |V|`, or 0.0 for the empty graph.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.num_edges as f64 / self.num_nodes as f64
        }
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "|V|={} |E|={} |E|/|V|={:.1} max-deg={} size={}B \
             (off={} tgt={} wt={}) {:.2}B/edge{}",
            self.num_nodes,
            self.num_edges,
            self.avg_degree(),
            self.max_degree,
            self.size_bytes,
            self.offsets_bytes,
            self.targets_bytes,
            self.weights_bytes,
            self.bytes_per_edge(),
            if self.compressed { " [compressed]" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn stats_of_grid() {
        let g = gen::grid_road(3, 3, 0);
        let s = GraphStats::of(&g);
        assert_eq!(s.num_nodes, 9);
        assert_eq!(s.num_edges, 24);
        assert_eq!(s.max_degree, 4);
        assert!(s.avg_degree() > 2.0);
        assert!(s.to_string().contains("|V|=9"));
    }

    #[test]
    fn components_sum_and_compressed_budget() {
        let g = gen::rmat(10, 8, 2);
        let s = GraphStats::of(&g);
        assert!(!s.compressed);
        assert_eq!(
            s.size_bytes,
            s.offsets_bytes
                + s.targets_bytes
                + s.weights_bytes
                + std::mem::size_of::<crate::GraphStore>()
        );
        // The headline budget: unit-weight R-MAT under 4 B/edge and at
        // least 2.5x smaller than raw CSR.
        let unit = gen::with_unit_weights(&g);
        let cs = GraphStats::of(&unit.compress());
        assert!(cs.compressed);
        assert_eq!(cs.weights_bytes, 0, "unit weights store no weight bytes");
        assert!(cs.bytes_per_edge() < 4.0, "{:.2} B/edge", cs.bytes_per_edge());
        assert!(cs.size_bytes * 5 < s.size_bytes * 2);
    }

    #[test]
    fn empty_stats() {
        let g = crate::GraphBuilder::new().build();
        let s = GraphStats::of(&g);
        assert_eq!(s.avg_degree(), 0.0);
    }
}

/// Histogram of out-degrees as `(degree, count)` pairs, ascending and
/// sparse (only degrees that occur).
pub fn degree_histogram(g: &Graph) -> Vec<(usize, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for u in g.nodes() {
        *counts.entry(g.degree(u)).or_insert(0usize) += 1;
    }
    counts.into_iter().collect()
}

/// Lower-bound estimate of the graph's diameter by a double BFS sweep
/// (BFS from `start`, then BFS from the farthest node found). Exact on
/// trees; a good lower bound in general. Returns 0 for graphs with no
/// reachable pairs.
///
/// # Panics
///
/// Panics if `start` is out of range on a non-empty graph.
pub fn approx_diameter(g: &Graph, start: crate::NodeId) -> usize {
    if g.num_nodes() == 0 {
        return 0;
    }
    fn bfs_far(g: &Graph, s: crate::NodeId) -> (crate::NodeId, usize) {
        let mut dist = vec![usize::MAX; g.num_nodes()];
        dist[s as usize] = 0;
        let mut q = std::collections::VecDeque::from([s]);
        let (mut far, mut far_d) = (s, 0);
        while let Some(u) = q.pop_front() {
            for &v in g.neighbors(u).iter() {
                if dist[v as usize] == usize::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    if dist[v as usize] > far_d {
                        far_d = dist[v as usize];
                        far = v;
                    }
                    q.push_back(v);
                }
            }
        }
        (far, far_d)
    }
    let (far, _) = bfs_far(g, start);
    bfs_far(g, far).1
}

#[cfg(test)]
mod shape_tests {
    use super::*;
    use crate::gen;

    #[test]
    fn histogram_counts_every_node() {
        let g = gen::rmat(8, 4, 5);
        let h = degree_histogram(&g);
        let total: usize = h.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, g.num_nodes());
        // Power law: the top degree occurs far less often than degree 0/1.
        let max_deg = h.last().unwrap().0;
        assert_eq!(max_deg, g.max_degree());
    }

    #[test]
    fn diameter_of_path_is_exact() {
        let mut b = crate::GraphBuilder::new();
        for i in 0..40u32 {
            b.add_edge(i, i + 1, 1);
        }
        let g = b.symmetric(true).build();
        assert_eq!(approx_diameter(&g, 20), 40);
    }

    #[test]
    fn grid_diameter_matches_manhattan() {
        let g = gen::grid_road(7, 9, 0);
        assert_eq!(approx_diameter(&g, 0), 7 + 9 - 2);
    }

    #[test]
    fn road_analog_has_much_higher_diameter_than_social() {
        let road = gen::grid_road(40, 40, 1);
        let social = gen::rmat(10, 8, 1);
        let d_road = approx_diameter(&road, 0);
        let d_social = approx_diameter(&social, 0);
        assert!(
            d_road > 5 * d_social.max(1),
            "road {d_road} vs social {d_social}"
        );
    }

    #[test]
    fn empty_graph_diameter() {
        let g = crate::GraphBuilder::new().build();
        assert_eq!(approx_diameter(&g, 0), 0);
    }
}
