//! Differential tests of the community-detection kernels: Louvain's move
//! decisions and Leiden's merge decisions through the flat accumulator and
//! local-id reads must be indistinguishable from the `HashMap` +
//! global-id reference kernels they replaced
//! (`LouvainConfig::reference_kernel`) — the same per-level mappings, the
//! same modularity bits, the same level and round counts — on every input
//! shape, host and thread count and storage tier.

use crate::builder::NpmBuilder;
use crate::louvain::{compose_labels, louvain, CommunityResult, LouvainConfig};
use crate::{leiden, refcheck};
use kimbap_comm::{Cluster, HostCtx};
use kimbap_dist::{partition_cfg, DistGraph, PartitionCfg, Policy};
use kimbap_graph::{builder::from_edges, gen, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The input shapes the kernels must agree on.
fn input(kind: u8, seed: u64) -> Graph {
    let mut r = StdRng::seed_from_u64(seed);
    match kind {
        // Skewed, weighted.
        0 => gen::with_random_weights(&gen::rmat(6, 4, seed), 9, seed ^ 5),
        // Uniform degrees, every score tied with some other.
        1 => gen::grid_road(r.random_range(4..8usize), r.random_range(4..8usize), seed),
        // Hubs whose neighbor-community count outgrows the accumulator's
        // first table several times over, leaves, a few leaf-leaf edges.
        2 => {
            let leaves = r.random_range(40..100u32);
            let hubs = r.random_range(1..4u32);
            let mut edges = Vec::new();
            for h in 0..hubs {
                for l in 0..leaves {
                    if r.random_range(0..4u32) != 0 {
                        edges.push((h, hubs + l, r.random_range(1..4u64)));
                    }
                }
            }
            for _ in 0..leaves {
                let (a, b) = (r.random_range(0..leaves), r.random_range(0..leaves));
                edges.push((hubs + a, hubs + b, r.random_range(0..3u64)));
            }
            edges.push((0, hubs + leaves - 1, 1));
            from_edges(edges)
        }
        // Anything goes: self-loops, zero weights, nodes whose every edge
        // weighs nothing (weighted degree 0), isolated ids.
        _ => {
            let n = r.random_range(12..52u32);
            let mut edges: Vec<(u32, u32, u64)> = (0..3 * n)
                .map(|_| (r.random_range(0..n), r.random_range(0..n), r.random_range(0..4u64)))
                .collect();
            edges.extend((0..n).step_by(5).map(|u| (u, u, 2)));
            edges.push((n + 2, 0, 0)); // zero-weight-degree tail node
            edges.push((0, 1, 1)); // total weight is never zero
            from_edges(edges)
        }
    }
}

type Algo = fn(&DistGraph, &HostCtx, &NpmBuilder, &LouvainConfig) -> CommunityResult;

/// Every host's result and BSP round count for one kernel.
fn run(
    parts: &[DistGraph],
    threads: usize,
    algo: Algo,
    reference_kernel: bool,
) -> Vec<(CommunityResult, u64)> {
    let b = NpmBuilder;
    let cfg = LouvainConfig {
        reference_kernel,
        ..LouvainConfig::default()
    };
    Cluster::with_threads(parts.len(), threads).run(|ctx| {
        let result = algo(&parts[ctx.host()], ctx, &b, &cfg);
        (result, ctx.current_round())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn accumulator_kernels_match_the_hashmap_reference(
        kind in 0u8..4,
        seed in 0u64..1 << 40,
        hosts in 1usize..5,
        threads in 1usize..4,
        compressed in prop::bool::ANY,
    ) {
        let g = input(kind, seed);
        let mut pcfg = PartitionCfg::new(Policy::EdgeCutBlocked, hosts);
        pcfg.compressed = compressed;
        let parts = partition_cfg(&g, &pcfg);
        let algos: [(&str, Algo); 2] = [("louvain", louvain), ("leiden", leiden)];
        for (name, algo) in algos {
            let what = format!(
                "{name} kind {kind} seed {seed} {hosts}x{threads} compressed={compressed}"
            );
            let new = run(&parts, threads, algo, false);
            let reference = run(&parts, threads, algo, true);
            for (h, ((new, new_rounds), (old, old_rounds))) in
                new.iter().zip(&reference).enumerate()
            {
                prop_assert_eq!(&new.mappings, &old.mappings, "{}: host {} mappings", what, h);
                prop_assert_eq!(
                    new.modularity.to_bits(), old.modularity.to_bits(),
                    "{}: host {} modularity {} vs {}", what, h, new.modularity, old.modularity
                );
                prop_assert_eq!(new.levels, old.levels, "{}: host {} levels", what, h);
                prop_assert_eq!(new.final_nodes, old.final_nodes, "{}: host {} final nodes", what, h);
                prop_assert_eq!(new_rounds, old_rounds, "{}: host {} rounds", what, h);
            }
            // Aggregation and the modularity pass are shared by both
            // kernels; pin them to the single-machine definition (Leiden
            // reports its communities' score before refinement).
            if name == "louvain" {
                let results: Vec<CommunityResult> = new.into_iter().map(|(r, _)| r).collect();
                let q = refcheck::modularity(&g, &compose_labels(g.num_nodes(), &results));
                prop_assert!(
                    (results[0].modularity - q).abs() < 1e-9,
                    "{}: reported {} but the labels score {}", what, results[0].modularity, q
                );
            }
        }
    }
}

/// The inputs above do reach what they are for: a node with more neighbor
/// communities than the accumulator's first table holds.
#[test]
fn hub_inputs_outgrow_the_first_table() {
    let g = input(2, 7);
    let max_degree = (0..g.num_nodes() as u32)
        .map(|u| g.degree(u))
        .max()
        .unwrap();
    assert!(max_degree > 16, "hub degree {max_degree}");
}
