//! Property-based tests for graph construction invariants.

use kimbap_graph::builder::{from_edges, MergePolicy};
use kimbap_graph::{gen, CompressedGraph, GraphBuilder, NodeId, Weight};
use proptest::prelude::*;

fn edge_list() -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    prop::collection::vec((0u32..64, 0u32..64, 1u64..100), 0..200)
}

/// splitmix64: expands one generated seed into a block's values.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A raw CSR: `(offsets, targets, weights)`.
type Csr = (Vec<u64>, Vec<NodeId>, Vec<Weight>);

/// Appends node `u`'s block: `degree` targets starting at a first target
/// below, at or above `u` (or at 0 / `u32::MAX`), ascending by gaps of
/// at most `gap_bits` bits (so duplicates when 0, and up to `u32::MAX`
/// when 32), clamped at `u32::MAX`; weights come from `weight`. Every
/// other block is handed over in descending order, which compression
/// must sort.
fn push_block(
    csr: &mut Csr,
    degree: usize,
    gap_bits: u32,
    seed: u64,
    mut weight: impl FnMut(&mut u64) -> Weight,
) {
    let u = csr.0.len() as u64 - 1;
    let mut state = seed;
    let mut t = match mix(&mut state) % 5 {
        0 => 0,
        1 => u.saturating_sub(1),
        2 => u,
        3 => u + 1 + mix(&mut state) % 1000,
        _ => mix(&mut state) >> 33,
    };
    let mut block = Vec::with_capacity(degree);
    for i in 0..degree {
        if i > 0 {
            let gap = if gap_bits == 32 && i == 1 {
                u64::from(u32::MAX) // a full-width gap where it fits
            } else {
                mix(&mut state) & ((1u64 << gap_bits) - 1)
            };
            t = (t + gap).min(u64::from(u32::MAX));
        }
        block.push((t as NodeId, weight(&mut state)));
    }
    block.sort_unstable();
    if seed % 2 == 1 {
        block.reverse();
    }
    for (t, w) in block {
        csr.1.push(t);
        csr.2.push(w);
    }
    csr.0.push(csr.1.len() as u64);
}

/// Compresses `csr` and checks every decode path against it: `degree`,
/// `edges`, `targets`, both `decode_into`s, and `next()` for a prefix
/// then `fold` over the rest.
fn assert_compressed_matches_raw((offsets, targets, weights): &Csr) {
    let c = CompressedGraph::from_csr_slices(offsets, targets, weights);
    assert_eq!(c.num_nodes(), offsets.len() - 1);
    assert_eq!(c.num_edges(), targets.len());
    assert_eq!(c.total_weight(), weights.iter().sum::<u64>());
    assert_eq!(c.unit_weights(), weights.iter().all(|&w| w == 1));
    let (mut ts, mut ws) = (Vec::new(), Vec::new());
    for u in 0..c.num_nodes() {
        let (s, e) = (offsets[u] as usize, offsets[u + 1] as usize);
        let mut raw: Vec<(NodeId, Weight)> = targets[s..e]
            .iter()
            .copied()
            .zip(weights[s..e].iter().copied())
            .collect();
        raw.sort_unstable();
        let raw_targets: Vec<NodeId> = raw.iter().map(|&(t, _)| t).collect();
        let raw_weights: Vec<Weight> = raw.iter().map(|&(_, w)| w).collect();
        let u = u as NodeId;
        assert_eq!(c.degree(u), raw.len());
        assert_eq!(c.edges(u).collect::<Vec<_>>(), raw, "node {u}");
        assert_eq!(c.targets(u).collect::<Vec<_>>(), raw_targets, "node {u}");
        c.decode_into(u, &mut ts, Some(&mut ws));
        assert_eq!((&ts, &ws), (&raw_targets, &raw_weights), "node {u}");
        c.decode_into(u, &mut ts, None);
        assert_eq!(ts, raw_targets, "node {u}");
        for k in [1, 2, raw.len() / 2, raw.len().saturating_sub(1)] {
            let k = k.min(raw.len());
            let mut edges = c.edges(u);
            let head: Vec<_> = edges.by_ref().take(k).collect();
            assert_eq!(edges.len(), raw.len() - k);
            let all = edges.fold(head, |mut v, e| {
                v.push(e);
                v
            });
            assert_eq!(all, raw, "node {u}: {k} edges by next(), then fold");
            let mut tgts = c.targets(u);
            let head: Vec<_> = tgts.by_ref().take(k).collect();
            let all = tgts.fold(head, |mut v, t| {
                v.push(t);
                v
            });
            assert_eq!(
                all, raw_targets,
                "node {u}: {k} targets by next(), then fold"
            );
        }
    }
}

proptest! {
    #[test]
    fn built_graphs_are_symmetric(edges in edge_list()) {
        let g = from_edges(edges);
        prop_assert!(g.is_symmetric());
    }

    #[test]
    fn neighbors_sorted_and_unique(edges in edge_list()) {
        let g = from_edges(edges);
        for u in g.nodes() {
            let ns = g.neighbors(u);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn total_weight_preserved_by_sum_merge(edges in edge_list()) {
        // Without symmetrization, SumWeights merging preserves total weight.
        let expected: u64 = edges.iter().map(|&(_, _, w)| w).sum();
        let mut b = GraphBuilder::new();
        for (s, d, w) in &edges {
            b.add_edge(*s, *d, *w);
        }
        let g = b.build();
        prop_assert_eq!(g.total_weight(), expected);
    }

    #[test]
    fn min_merge_keeps_minimum(edges in edge_list()) {
        let mut b = GraphBuilder::new();
        for (s, d, w) in &edges {
            b.add_edge(*s, *d, *w);
        }
        b.merge_policy(MergePolicy::MinWeight);
        let g = b.build();
        for &(s, d, w) in &edges {
            let stored = g
                .edges(s)
                .find(|&(t, _)| t == d)
                .map(|(_, sw)| sw)
                .expect("edge present");
            prop_assert!(stored <= w);
        }
    }

    #[test]
    fn degree_sums_to_edge_count(edges in edge_list()) {
        let g = from_edges(edges);
        let sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(sum, g.num_edges());
    }

    #[test]
    fn rmat_edge_bound(scale in 4u32..9, ef in 1usize..8, seed in 0u64..50) {
        let g = gen::rmat(scale, ef, seed);
        // Symmetrized and deduped: at most 2 * nominal edges.
        prop_assert!(g.num_edges() <= 2 * ef * (1 << scale));
        prop_assert!(g.is_symmetric());
    }

    // Differential: the compressed tier must answer every accessor exactly
    // like raw CSR, on arbitrary graphs (degree-0 nodes included — ids up
    // to 63 with as few as 0 edges leave isolated tails).
    #[test]
    fn compressed_tier_is_indistinguishable(edges in edge_list()) {
        let g = from_edges(edges);
        let c = g.compress();
        prop_assert!(c.is_compressed());
        prop_assert_eq!(g.num_nodes(), c.num_nodes());
        prop_assert_eq!(g.num_edges(), c.num_edges());
        prop_assert_eq!(g.total_weight(), c.total_weight());
        prop_assert_eq!(g.max_degree(), c.max_degree());
        for u in g.nodes() {
            prop_assert_eq!(g.degree(u), c.degree(u));
            prop_assert_eq!(&g.neighbors(u)[..], &c.neighbors(u)[..]);
            prop_assert_eq!(&g.edge_weights(u)[..], &c.edge_weights(u)[..]);
            prop_assert_eq!(
                g.edges(u).collect::<Vec<_>>(),
                c.edges(u).collect::<Vec<_>>()
            );
            prop_assert_eq!(g.weighted_degree(u), c.weighted_degree(u));
        }
        prop_assert_eq!(c.decompress(), g);
    }

    // Weight extremes: u64::MAX weights and a max-degree hub (node 0
    // linked to everyone) survive the compression roundtrip.
    #[test]
    fn compressed_survives_hubs_and_weight_extremes(
        n in 2u32..80,
        extreme in prop::collection::vec(prop::bool::ANY, 1..80),
    ) {
        let mut b = GraphBuilder::new();
        for v in 1..n {
            let w = if extreme[(v as usize - 1) % extreme.len()] {
                u64::MAX >> 10 // huge, but total_weight must not overflow
            } else {
                1
            };
            b.add_edge(0, v, w);
        }
        let g = b.symmetric(true).build();
        let c = g.compress();
        prop_assert_eq!(g.max_degree(), n as usize - 1);
        for u in g.nodes() {
            prop_assert_eq!(
                g.edges(u).collect::<Vec<_>>(),
                c.edges(u).collect::<Vec<_>>()
            );
        }
        prop_assert_eq!(c.total_weight(), g.total_weight());
    }

    // The bit-packed block layout against raw CSR, block by block:
    // degrees 0, 1, 2, 3..=20 and 301..=400; gap widths 0 (duplicate
    // targets) to 32; first targets below and above the node; weights
    // all 1 (no weight bits), 1..=100, or up to 2^16.
    #[test]
    fn compressed_blocks_match_raw_csr(
        blocks in prop::collection::vec((0u32..5, 0u32..33, 0u64..=u64::MAX, 0u32..4), 1..7),
    ) {
        let mut csr: Csr = (vec![0], Vec::new(), Vec::new());
        for (class, gap_bits, seed, weights) in blocks {
            let degree = match class {
                0..=2 => class as usize,
                3 => 3 + (seed >> 40) as usize % 18,
                _ => 301 + (seed >> 40) as usize % 100,
            };
            push_block(&mut csr, degree, gap_bits, seed, |s| match weights {
                0 | 1 => 1,
                2 => 1 + mix(s) % 100,
                _ => 1 + mix(s) % (1 << 16),
            });
        }
        assert_compressed_matches_raw(&csr);
    }

    // Weights wider than 56 bits (the decoder's second load) at every bit
    // offset, and, closing the graph, a block whose weights take the
    // total to exactly `u64::MAX` — with a weight of `u64::MAX` itself
    // when nothing came before, or of 0 (stored as `0 − 1`, all ones).
    #[test]
    fn compressed_blocks_hold_weights_up_to_u64_max(
        blocks in prop::collection::vec((0u32..4, 0u64..=u64::MAX), 0..5),
        last in 0u32..3,
    ) {
        let mut csr: Csr = (vec![0], Vec::new(), Vec::new());
        for (degree, seed) in blocks {
            // At most 12 edges below 2^60 each: the total cannot overflow.
            push_block(&mut csr, degree as usize, 32, seed, |s| {
                1 + (mix(s) >> (4 + mix(s) % 8))
            });
        }
        let rest = u64::MAX - csr.2.iter().sum::<u64>();
        match last {
            0 => {}
            1 => push_block(&mut csr, 1, 0, 2, |_| rest),
            _ => {
                let mut ws = [rest, 0].into_iter();
                push_block(&mut csr, 2, 7, 4, move |_| ws.next().expect("two weights"));
            }
        }
        assert_compressed_matches_raw(&csr);
    }
}
