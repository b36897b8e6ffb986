//! Synthetic graph generators reproducing the *shapes* of the paper's
//! evaluation inputs.
//!
//! The paper's workloads divide into two shapes that drive every result:
//!
//! * **road-europe** — high diameter, roughly uniform small degrees (max 16).
//!   Reproduced by [`grid_road`], a 2-D grid whose diameter grows as
//!   `rows + cols`.
//! * **friendster / clueweb12 / wdc12** — power-law degree distributions with
//!   a few very high-degree hubs. Reproduced by [`rmat`], the standard
//!   recursive-matrix generator (Graph500 parameters).
//!
//! All generators return symmetric graphs with unit weights; use
//! [`with_random_weights`] to assign weights for spanning-forest workloads.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId, Weight};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// R-MAT quadrant probabilities. The defaults are the Graph500 parameters
/// (`a = 0.57, b = 0.19, c = 0.19`), which produce a power-law degree
/// distribution with pronounced hubs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Probability of recursing into the top-right quadrant.
    pub b: f64,
    /// Probability of recursing into the bottom-left quadrant.
    pub c: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

/// Generates a symmetric power-law graph with `2^scale` nodes and
/// approximately `edge_factor * 2^scale` undirected edges, using the default
/// Graph500 R-MAT parameters.
///
/// Self-loops are dropped and parallel edges merged, so the realized edge
/// count is slightly below the nominal one (more so at small scales).
///
/// # Example
///
/// ```
/// let g = kimbap_graph::gen::rmat(8, 8, 1);
/// assert!(g.is_symmetric());
/// ```
pub fn rmat(scale: u32, edge_factor: usize, seed: u64) -> Graph {
    rmat_with(scale, edge_factor, seed, RmatParams::default())
}

/// Generates an R-MAT graph with explicit quadrant probabilities.
///
/// # Panics
///
/// Panics if `scale >= 32`, or if the probabilities are not a valid
/// sub-distribution (`a + b + c > 1` or any negative).
pub fn rmat_with(scale: u32, edge_factor: usize, seed: u64, p: RmatParams) -> Graph {
    assert!(scale < 32, "scale must fit in a u32 node id");
    assert!(
        p.a >= 0.0 && p.b >= 0.0 && p.c >= 0.0 && p.a + p.b + p.c <= 1.0,
        "invalid R-MAT probabilities"
    );
    let n = 1usize << scale;
    let m = edge_factor * n;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(2 * m);
    b.ensure_nodes(n);
    for _ in 0..m {
        let (mut u, mut v) = (0u32, 0u32);
        for bit in (0..scale).rev() {
            let r: f64 = rng.random();
            let (du, dv) = if r < p.a {
                (0, 0)
            } else if r < p.a + p.b {
                (0, 1)
            } else if r < p.a + p.b + p.c {
                (1, 0)
            } else {
                (1, 1)
            };
            u |= du << bit;
            v |= dv << bit;
        }
        if u != v {
            b.add_edge(u, v, 1);
        }
    }
    b.symmetric(true).build()
}

/// Generates a symmetric `rows x cols` 4-neighbor grid graph — the
/// high-diameter, uniform-low-degree analog of a road network.
///
/// Node `(r, c)` has id `r * cols + c`; every node has degree 2–4 and the
/// diameter is `rows + cols - 2`.
///
/// # Panics
///
/// Panics if `rows * cols` overflows `u32` or either dimension is zero.
///
/// # Example
///
/// ```
/// let g = kimbap_graph::gen::grid_road(10, 10, 7);
/// assert_eq!(g.num_nodes(), 100);
/// assert_eq!(g.max_degree(), 4);
/// ```
pub fn grid_road(rows: usize, cols: usize, seed: u64) -> Graph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let n = rows
        .checked_mul(cols)
        .filter(|&n| n <= u32::MAX as usize)
        .expect("grid too large for u32 node ids");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(4 * n);
    b.ensure_nodes(n);
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    for r in 0..rows {
        for c in 0..cols {
            // Road-like weights: short random segment lengths.
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1), rng.random_range(1..=8));
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c), rng.random_range(1..=8));
            }
        }
    }
    b.symmetric(true).build()
}

/// Generates a symmetric Erdős–Rényi G(n, m) graph: `m` undirected edges
/// drawn uniformly (self-loops excluded, parallel edges merged).
///
/// # Panics
///
/// Panics if `n < 2` and `m > 0`.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m == 0 || n >= 2, "need at least two nodes to place an edge");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(2 * m);
    b.ensure_nodes(n);
    for _ in 0..m {
        let u = rng.random_range(0..n as u32);
        let mut v = rng.random_range(0..n as u32);
        while v == u {
            v = rng.random_range(0..n as u32);
        }
        b.add_edge(u, v, 1);
    }
    b.symmetric(true).build()
}

/// Returns a copy of `g` with every undirected edge assigned a random weight
/// in `1..=max_weight` (both directions get the same weight), for
/// minimum-spanning-forest workloads.
///
/// The weight of edge `{u, v}` depends only on `u`, `v`, `max_weight`, and
/// `seed`, so it is deterministic and symmetric by construction.
///
/// # Panics
///
/// Panics if `max_weight == 0`.
pub fn with_random_weights(g: &Graph, max_weight: Weight, seed: u64) -> Graph {
    assert!(max_weight > 0, "max_weight must be positive");
    let mut b = GraphBuilder::with_capacity(g.num_edges());
    b.ensure_nodes(g.num_nodes());
    for (u, v, _) in g.all_edges() {
        if u <= v {
            let (lo, hi) = (u.min(v) as u64, u.max(v) as u64);
            // Stable per-undirected-edge hash -> weight.
            let mut h = lo
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(hi)
                .wrapping_add(seed);
            h ^= h >> 31;
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 29;
            b.add_edge(u, v, h % max_weight + 1);
        }
    }
    b.symmetric(true).build()
}

/// Returns a copy of `g` with every edge weight set to 1 — the storage
/// shape of weight-oblivious workloads (connected components, MIS), and
/// the shape that triggers the compressed tier's no-weight-array fast
/// path. Note the generators above can produce non-unit weights even from
/// unit input because [`GraphBuilder`] sums merged parallel edges.
pub fn with_unit_weights(g: &Graph) -> Graph {
    let mut offsets = Vec::with_capacity(g.num_nodes() + 1);
    offsets.push(0u64);
    let mut targets = Vec::with_capacity(g.num_edges());
    for u in g.nodes() {
        targets.extend(g.targets(u));
        offsets.push(targets.len() as u64);
    }
    let weights = vec![1; targets.len()];
    Graph::from_csr(offsets, targets, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_symmetric_and_power_law() {
        let g = rmat(10, 8, 42);
        assert!(g.num_nodes() <= 1 << 10);
        assert!(g.is_symmetric());
        // Power law: max degree far exceeds the average.
        let avg = g.num_edges() / g.num_nodes();
        assert!(g.max_degree() > 4 * avg, "expected hubs, got max {} avg {avg}", g.max_degree());
    }

    #[test]
    fn rmat_deterministic_by_seed() {
        assert_eq!(rmat(8, 4, 7), rmat(8, 4, 7));
        assert_ne!(rmat(8, 4, 7), rmat(8, 4, 8));
    }

    #[test]
    fn grid_shape() {
        let g = grid_road(5, 7, 1);
        assert_eq!(g.num_nodes(), 35);
        // Interior nodes have degree 4, corners 2.
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.degree(0), 2);
        // Undirected edge count: 5*6 + 4*7 horizontal/vertical.
        assert_eq!(g.num_edges(), 2 * (5 * 6 + 4 * 7));
        assert!(g.is_symmetric());
    }

    #[test]
    fn er_basic() {
        let g = erdos_renyi(100, 300, 3);
        assert_eq!(g.num_nodes(), 100);
        assert!(g.num_edges() <= 600);
        assert!(g.is_symmetric());
    }

    #[test]
    fn random_weights_symmetric_and_bounded() {
        let g = with_random_weights(&grid_road(4, 4, 0), 100, 5);
        assert!(g.is_symmetric());
        for (_, _, w) in g.all_edges() {
            assert!((1..=100).contains(&w));
        }
    }

    #[test]
    #[should_panic(expected = "scale must fit")]
    fn rmat_scale_too_large() {
        rmat(32, 1, 0);
    }
}
