//! Single-threaded reference implementations used to validate the
//! distributed algorithms. These are deliberately simple and obviously
//! correct rather than fast.

use kimbap_graph::{Graph, NodeId};

/// Union-find with path compression (no ranks: union by min label so the
/// representative is the smallest id, matching the distributed outputs).
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    /// Representative (smallest id) of `x`'s set.
    pub fn find(&mut self, x: u32) -> u32 {
        if self.parent[x as usize] != x {
            let root = self.find(self.parent[x as usize]);
            self.parent[x as usize] = root;
        }
        self.parent[x as usize]
    }

    /// Merges the sets of `a` and `b`; the smaller representative wins.
    pub fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        self.parent[hi as usize] = lo;
    }
}

/// Labels every node with the minimum node id in its component.
pub fn connected_components(g: &Graph) -> Vec<u64> {
    let mut uf = UnionFind::new(g.num_nodes());
    for (u, v, _) in g.all_edges() {
        uf.union(u, v);
    }
    (0..g.num_nodes() as u32)
        .map(|u| uf.find(u) as u64)
        .collect()
}

/// Total weight of a minimum spanning forest (Kruskal). For graphs with
/// duplicate weights the forest itself may differ between algorithms, but
/// the total weight of any MSF is unique given a consistent total order;
/// with the `(weight, src, dst)` tie-break used by the distributed Boruvka,
/// weights are effectively distinct, so total weights must match exactly.
pub fn msf_weight(g: &Graph) -> u64 {
    let mut edges: Vec<(u64, u32, u32)> = g
        .all_edges()
        .filter(|&(u, v, _)| u < v)
        .map(|(u, v, w)| (w, u, v))
        .collect();
    edges.sort_unstable();
    let mut uf = UnionFind::new(g.num_nodes());
    let mut total = 0;
    for (w, u, v) in edges {
        if uf.find(u) != uf.find(v) {
            uf.union(u, v);
            total += w;
        }
    }
    total
}

/// Number of edges in any spanning forest: `n - #components`.
pub fn msf_edge_count(g: &Graph) -> usize {
    let labels = connected_components(g);
    let mut roots: Vec<u64> = labels.clone();
    roots.sort_unstable();
    roots.dedup();
    g.num_nodes() - roots.len()
}

/// Checks that `in_set` is a valid *maximal* independent set of `g`:
/// no two set members are adjacent, and every non-member has a member
/// neighbor. Returns an error describing the first violation.
pub fn check_mis(g: &Graph, in_set: &[bool]) -> Result<(), String> {
    assert_eq!(in_set.len(), g.num_nodes());
    for u in g.nodes() {
        if in_set[u as usize] {
            for v in g.targets(u) {
                if v != u && in_set[v as usize] {
                    return Err(format!("adjacent nodes {u} and {v} both in set"));
                }
            }
        } else {
            let covered = g.targets(u).any(|v| in_set[v as usize]);
            if !covered && g.degree(u) > 0 {
                return Err(format!("node {u} is not in the set and has no set neighbor"));
            }
            if g.degree(u) == 0 {
                return Err(format!("isolated node {u} must be in the set"));
            }
        }
    }
    Ok(())
}

/// Directed modularity of an assignment: `Q = Σ_C [ in_C/M − (tot_C/M)² ]`,
/// where `M` is the total directed edge weight, `in_C` the directed weight
/// inside `C`, and `tot_C` the summed weighted degree of `C`'s nodes.
pub fn modularity(g: &Graph, communities: &[NodeId]) -> f64 {
    assert_eq!(communities.len(), g.num_nodes());
    let m = g.total_weight() as f64;
    if m == 0.0 {
        return 0.0;
    }
    let mut internal: std::collections::HashMap<NodeId, u64> = std::collections::HashMap::new();
    let mut tot: std::collections::HashMap<NodeId, u64> = std::collections::HashMap::new();
    for u in g.nodes() {
        *tot.entry(communities[u as usize]).or_default() += g.weighted_degree(u);
        for (v, w) in g.edges(u) {
            if communities[u as usize] == communities[v as usize] {
                *internal.entry(communities[u as usize]).or_default() += w;
            }
        }
    }
    tot.iter()
        .map(|(c, &t)| {
            let i = internal.get(c).copied().unwrap_or(0) as f64;
            i / m - (t as f64 / m).powi(2)
        })
        .sum()
}

/// Checks a community assignment is well-formed: every label is a valid
/// node id and connected nodes in one community are actually connected via
/// the community (weak check: label exists).
pub fn check_communities(g: &Graph, communities: &[NodeId]) -> Result<(), String> {
    if communities.len() != g.num_nodes() {
        return Err("wrong assignment length".into());
    }
    for (u, &c) in communities.iter().enumerate() {
        if c as usize >= g.num_nodes() {
            return Err(format!("node {u} assigned to invalid community {c}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kimbap_graph::{builder::from_edges, gen};

    #[test]
    fn union_find_min_labels() {
        let mut uf = UnionFind::new(5);
        uf.union(3, 4);
        uf.union(1, 3);
        assert_eq!(uf.find(4), 1);
        assert_eq!(uf.find(0), 0);
    }

    #[test]
    fn cc_on_two_triangles() {
        let g = from_edges([(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1)]);
        assert_eq!(connected_components(&g), vec![0, 0, 0, 3, 3, 3]);
    }

    #[test]
    fn kruskal_weight_on_square() {
        // Square with diagonal: MST picks the three lightest edges that
        // connect everything.
        let g = from_edges([(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4), (0, 2, 10)]);
        assert_eq!(msf_weight(&g), 6);
        assert_eq!(msf_edge_count(&g), 3);
    }

    #[test]
    fn mis_checker_accepts_valid() {
        let g = from_edges([(0, 1, 1), (1, 2, 1)]);
        assert!(check_mis(&g, &[true, false, true]).is_ok());
        assert!(check_mis(&g, &[true, true, false]).is_err()); // adjacent
        assert!(check_mis(&g, &[true, false, false]).is_err()); // not maximal
    }

    #[test]
    fn modularity_of_perfect_split() {
        // Two disconnected triangles, each its own community: Q = 1/2.
        let g = from_edges([(0, 1, 1), (1, 2, 1), (2, 0, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1)]);
        let q = modularity(&g, &[0, 0, 0, 3, 3, 3]);
        assert!((q - 0.5).abs() < 1e-9, "q = {q}");
        // Everything in one community: Q = 0 minus the degree term.
        let q1 = modularity(&g, &[0; 6]);
        assert!(q1 < q);
    }

    #[test]
    fn modularity_empty_graph() {
        let g = kimbap_graph::GraphBuilder::new().build();
        assert_eq!(modularity(&g, &[]), 0.0);
    }

    #[test]
    fn msf_weight_matches_grid_structure() {
        let g = gen::grid_road(5, 5, 2);
        let w = msf_weight(&g);
        assert!(w > 0);
        assert_eq!(msf_edge_count(&g), 24); // spanning tree of 25 nodes
    }
}
