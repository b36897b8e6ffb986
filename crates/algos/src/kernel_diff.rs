//! Differential tests of the community-detection kernels: Louvain's move
//! decisions and Leiden's merge decisions through the round's proxy table
//! and the slot-indexed accumulator, community totals kept by per-move
//! deltas, and aggregation over proxy slots must be indistinguishable from
//! the reference kernels they replaced (`Knobs::reference_kernel`:
//! `HashMap` + global-id decisions, totals rebuilt from zero every round,
//! per-edge global-id coarse reads summed in a `BTreeMap`) — the same
//! per-level coarse edge lists and mappings, the same modularity bits, the
//! same level and round counts — on every input shape, host and thread
//! count and storage tier.

use crate::builder::NpmBuilder;
use crate::leiden::leiden_with;
use crate::louvain::{compose_labels, local_moving, louvain_with, CommunityResult, Knobs};
use crate::refcheck;
use kimbap_comm::{Cluster, HostCtx};
use kimbap_dist::{partition_cfg, DistGraph, PartitionCfg, Policy};
use kimbap_graph::{builder::from_edges, gen, Graph, NodeId};
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
        3 => {
            let n = r.random_range(12..52u32);
            let mut edges: Vec<(u32, u32, u64)> = (0..3 * n)
                .map(|_| (r.random_range(0..n), r.random_range(0..n), r.random_range(0..4u64)))
                .collect();
            edges.extend((0..n).step_by(5).map(|u| (u, u, 2)));
            edges.push((n + 2, 0, 0)); // zero-weight-degree tail node
            edges.push((0, 1, 1)); // total weight is never zero
            from_edges(edges)
        }
        // Leiden's second merge round: once a six-node component is one
        // community (resolution 0), `u` has no smaller neighbor in it, so
        // it stays a singleton in round 1 while its neighbors `v1` and `v2`
        // join subcommunity `s` and `x` joins `t`; in round 2 `u` must see
        // `s` once, with both edges' weight, and prefer it to the smaller
        // `t`.
        4 => {
            let mut edges = Vec::new();
            for i in 0..r.random_range(4..12u32) {
                let (t, s, u, v1, v2, x) =
                    (6 * i, 6 * i + 1, 6 * i + 2, 6 * i + 3, 6 * i + 4, 6 * i + 5);
                let w = r.random_range(1..4u64);
                edges.extend([
                    (s, v1, w),
                    (s, v2, w),
                    (u, v1, w),
                    (u, v2, w),
                    (u, x, w),
                    (t, x, w),
                ]);
            }
            from_edges(edges)
        }
        // A band: each node links to the next three ids, heavier inside
        // runs of 8-15 consecutive ids. A community's representative is
        // then several hops from its far members, so a host whose block
        // edge cuts a run holds mirrors in communities it has no proxy of:
        // the decisions' overflow slots.
        _ => {
            let n = r.random_range(60..160u32);
            let mut run_end = r.random_range(8..16u32);
            let mut edges = Vec::new();
            for u in 0..n {
                if u >= run_end {
                    run_end = u + r.random_range(8..16u32);
                }
                for v in (u + 1..=u + 3).filter(|&v| v < n) {
                    let w = if v < run_end {
                        r.random_range(3..6u64)
                    } else {
                        1
                    };
                    edges.push((u, v, w));
                }
            }
            from_edges(edges)
        }
    }
}

type Algo = fn(&DistGraph, &HostCtx, &NpmBuilder, &Knobs) -> CommunityResult;

/// Every host's result and BSP round count for one kernel.
fn run(
    parts: &[DistGraph],
    threads: usize,
    algo: Algo,
    resolution: f64,
    reference_kernel: bool,
) -> Vec<(CommunityResult, u64)> {
    let b = NpmBuilder;
    let cfg = Knobs {
        resolution,
        reference_kernel,
        ..Knobs::PRODUCT
    };
    Cluster::with_threads(parts.len(), threads).run(|ctx| {
        let result = algo(&parts[ctx.host()], ctx, &b, &cfg);
        (result, ctx.current_round())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn accumulator_kernels_match_the_hashmap_reference(
        kind in 0u8..6,
        seed in 0u64..1 << 40,
        hosts in 1usize..5,
        threads in 1usize..4,
        compressed in prop::bool::ANY,
        resolution_pick in 0usize..3,
    ) {
        // Resolution 0 drops the penalty: whole components become one
        // community, which Leiden's second merge round needs (kind 4).
        let resolution = [1.0, 0.5, 0.0][resolution_pick];
        let g = input(kind, seed);
        let mut pcfg = PartitionCfg::new(Policy::EdgeCutBlocked, hosts);
        pcfg.compressed = compressed;
        let parts = partition_cfg(&g, &pcfg);
        let algos: [(&str, Algo); 2] = [("louvain", louvain_with), ("leiden", leiden_with)];
        for (name, algo) in algos {
            let what = format!(
                "{name} kind {kind} seed {seed} {hosts}x{threads} compressed={compressed} \
                 resolution={resolution}"
            );
            let new = run(&parts, threads, algo, resolution, false);
            let reference = run(&parts, threads, algo, resolution, true);
            for (h, ((new, new_rounds), (old, old_rounds))) in
                new.iter().zip(&reference).enumerate()
            {
                prop_assert_eq!(
                    &new.coarse_edges, &old.coarse_edges, "{}: host {} coarse edges", what, h
                );
                prop_assert_eq!(&new.mappings, &old.mappings, "{}: host {} mappings", what, h);
                prop_assert_eq!(
                    new.modularity.to_bits(), old.modularity.to_bits(),
                    "{}: host {} modularity {} vs {}", what, h, new.modularity, old.modularity
                );
                prop_assert_eq!(new.levels, old.levels, "{}: host {} levels", what, h);
                prop_assert_eq!(new.final_nodes, old.final_nodes, "{}: host {} final nodes", what, h);
                prop_assert_eq!(new_rounds, old_rounds, "{}: host {} rounds", what, h);
            }
            // The modularity pass is shared by both kernels; pin it to the
            // single-machine definition (Leiden reports its communities'
            // score before refinement).
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

/// The band inputs above do reach what they are for: at 2-4 hosts, after
/// five rounds of level 0 — with more rounds still to run — some host holds
/// a proxy whose community has no proxy there, a key only an overflow slot
/// can sum.
#[test]
fn band_inputs_need_overflow_slots() {
    let g = input(5, 0);
    let (b, m_total) = (NpmBuilder, g.total_weight() as f64);
    let five = Knobs {
        max_rounds: 5,
        ..Knobs::PRODUCT
    };
    for hosts in 2..5 {
        let parts = partition_cfg(&g, &PartitionCfg::new(Policy::EdgeCutBlocked, hosts));
        let per_host = Cluster::with_threads(hosts, 2).run(|ctx| {
            let cur = &parts[ctx.host()];
            let moving = local_moving(cur, ctx, &b, &five, m_total, None);
            let orphans = (0..cur.num_local_nodes() as u32)
                .filter(|&l| {
                    cur.global_to_local(moving.comm.read_local(l) as NodeId)
                        .is_none()
                })
                .count();
            let before = ctx.current_round();
            local_moving(cur, ctx, &b, &Knobs::PRODUCT, m_total, None);
            (orphans, ctx.current_round() - before)
        });
        let orphans: usize = per_host.iter().map(|&(o, _)| o).sum();
        assert!(orphans > 0, "{hosts} hosts: no community without a proxy");
        assert!(
            per_host[0].1 > 5,
            "{hosts} hosts: level 0 ends in {} rounds",
            per_host[0].1
        );
    }
}
