//! Beyond the paper's seven: classic adjacent-vertex workloads (BFS,
//! SSSP, PageRank) written on the same node-property map API.
//!
//! These are not part of the paper's evaluation; they demonstrate that the
//! programming framework covers the standard vertex-centric repertoire,
//! and they double as additional correctness load on the runtime (a sum
//! reduction with convergence thresholds behaves very differently from the
//! monotone min-reductions the paper's algorithms lean on).

use crate::builder::MapBuilder;
use kimbap_comm::HostCtx;
use kimbap_dist::DistGraph;
use kimbap_graph::NodeId;
use kimbap_npm::{Min, NodePropMap, Sum};

/// Unreached marker for BFS/SSSP distances.
pub const UNREACHED: u64 = u64::MAX;

/// Breadth-first search levels from `source`: returns `(node, level)` for
/// this host's masters (`UNREACHED` if unreachable). Collective.
pub fn bfs<B: MapBuilder>(
    dg: &DistGraph,
    ctx: &HostCtx,
    b: &B,
    source: NodeId,
) -> Vec<(NodeId, u64)> {
    let mut dist = b.build::<u64, Min>(dg, ctx, Min);
    dist.init_masters(&|g| if g == source { 0 } else { UNREACHED });
    dist.pin_mirrors(ctx);
    loop {
        // Publish the BSP round so fault plans can target it.
        ctx.set_round(ctx.current_round() + 1);
        dist.reset_updated();
        let d = &dist;
        ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
            for lid in range {
                let lid = lid as u32;
                let targets = dg.targets(lid);
                if targets.len() == 0 {
                    continue;
                }
                let my = d.read(dg.local_to_global(lid));
                if my == UNREACHED {
                    continue;
                }
                targets.for_each(|dst| {
                    let dst_g = dg.local_to_global(dst);
                    if my + 1 < d.read(dst_g) {
                        d.reduce(tid, dst_g, my + 1);
                    }
                });
            }
        });
        if !dist.sync_round(ctx) {
            break;
        }
    }
    dist.unpin_mirrors();
    dg.master_nodes()
        .map(|m| {
            let g = dg.local_to_global(m);
            (g, dist.read(g))
        })
        .collect()
}

/// Single-source shortest paths (Bellman-Ford style relaxation over edge
/// weights): returns `(node, distance)` for this host's masters. Collective.
pub fn sssp<B: MapBuilder>(
    dg: &DistGraph,
    ctx: &HostCtx,
    b: &B,
    source: NodeId,
) -> Vec<(NodeId, u64)> {
    let mut dist = b.build::<u64, Min>(dg, ctx, Min);
    dist.init_masters(&|g| if g == source { 0 } else { UNREACHED });
    dist.pin_mirrors(ctx);
    loop {
        // Publish the BSP round so fault plans can target it.
        ctx.set_round(ctx.current_round() + 1);
        dist.reset_updated();
        let d = &dist;
        ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
            for lid in range {
                let lid = lid as u32;
                let edges = dg.edges(lid);
                if edges.len() == 0 {
                    continue;
                }
                let my = d.read(dg.local_to_global(lid));
                if my == UNREACHED {
                    continue;
                }
                edges.for_each(|(dst, w)| {
                    let dst_g = dg.local_to_global(dst);
                    let cand = my.saturating_add(w);
                    if cand < d.read(dst_g) {
                        d.reduce(tid, dst_g, cand);
                    }
                });
            }
        });
        if !dist.sync_round(ctx) {
            break;
        }
    }
    dist.unpin_mirrors();
    dg.master_nodes()
        .map(|m| {
            let g = dg.local_to_global(m);
            (g, dist.read(g))
        })
        .collect()
}

/// Fixed-point scaling factor for PageRank ranks (integer sums keep the
/// distributed reductions exact and deterministic).
pub const PR_SCALE: u64 = 1_000_000;

/// PageRank with damping 0.85, `iters` synchronous iterations, uniform
/// teleport. Ranks are fixed-point scaled by [`PR_SCALE`] and sum
/// (approximately, due to rounding and dangling nodes) to `n * PR_SCALE`.
/// Returns `(node, rank)` for this host's masters. Collective.
pub fn pagerank<B: MapBuilder>(
    dg: &DistGraph,
    ctx: &HostCtx,
    b: &B,
    iters: usize,
) -> Vec<(NodeId, u64)> {
    let n = dg.num_global_nodes() as u64;
    if n == 0 {
        return Vec::new();
    }

    // Global out-degrees (edges may span hosts under a vertex-cut).
    let mut degree = b.build::<u64, Sum>(dg, ctx, Sum);
    {
        let d = &degree;
        ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
            for lid in range {
                let deg = dg.degree(lid as u32) as u64;
                if deg > 0 {
                    d.reduce(tid, dg.local_to_global(lid as u32), deg);
                }
            }
        });
    }
    degree.reduce_sync(ctx);
    degree.pin_mirrors(ctx);

    let mut rank = b.build::<u64, Sum>(dg, ctx, Sum);
    rank.init_masters(&|_| PR_SCALE);
    rank.pin_mirrors(ctx);
    let mut contrib = b.build::<u64, Sum>(dg, ctx, Sum);

    for _ in 0..iters {
        // Publish the BSP round so fault plans can target it.
        ctx.set_round(ctx.current_round() + 1);
        // Scatter: each node sends rank/degree along its edges.
        contrib.reset_values(ctx);
        {
            let (r, d, c) = (&rank, &degree, &contrib);
            ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
                for lid in range {
                    let lid = lid as u32;
                    let targets = dg.targets(lid);
                    if targets.len() == 0 {
                        continue;
                    }
                    let g = dg.local_to_global(lid);
                    let share = r.read(g) / d.read(g).max(1);
                    targets.for_each(|dst| c.reduce(tid, dg.local_to_global(dst), share));
                }
            });
        }
        contrib.reduce_sync(ctx);

        // Gather: rank = teleport + damping * contributions (masters only;
        // contributions of a master are local under GAR).
        rank.reset_updated();
        let teleport = (PR_SCALE * 15) / 100;
        let updates: Vec<(NodeId, u64)> = dg
            .master_nodes()
            .map(|m| {
                let g = dg.local_to_global(m);
                (g, teleport + (contrib.read(g) * 85) / 100)
            })
            .collect();
        for (g, v) in updates {
            rank.set(g, v);
        }
        rank.broadcast_sync(ctx);
    }

    dg.master_nodes()
        .map(|m| {
            let g = dg.local_to_global(m);
            (g, rank.read(g))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NpmBuilder;
    use crate::merge_master_values;
    use kimbap_comm::Cluster;
    use kimbap_dist::{partition, Policy};
    use kimbap_graph::{gen, Graph};
    use std::collections::VecDeque;

    fn ref_bfs(g: &Graph, source: NodeId) -> Vec<u64> {
        let mut dist = vec![UNREACHED; g.num_nodes()];
        dist[source as usize] = 0;
        let mut q = VecDeque::from([source]);
        while let Some(u) = q.pop_front() {
            for &v in g.neighbors(u).iter() {
                if dist[v as usize] == UNREACHED {
                    dist[v as usize] = dist[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    fn ref_sssp(g: &Graph, source: NodeId) -> Vec<u64> {
        // Dijkstra.
        let mut dist = vec![UNREACHED; g.num_nodes()];
        dist[source as usize] = 0;
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(std::cmp::Reverse((0u64, source)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for (v, w) in g.edges(u) {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        dist
    }

    #[test]
    fn bfs_matches_reference() {
        let g = gen::rmat(8, 4, 61);
        let parts = partition(&g, Policy::CartesianVertexCut, 3);
        let b = NpmBuilder;
        let per_host =
            Cluster::with_threads(3, 2).run(|ctx| bfs(&parts[ctx.host()], ctx, &b, 0));
        assert_eq!(merge_master_values(g.num_nodes(), per_host), ref_bfs(&g, 0));
    }

    #[test]
    fn bfs_on_path_counts_hops() {
        let mut bb = kimbap_graph::GraphBuilder::new();
        for i in 0..50u32 {
            bb.add_edge(i, i + 1, 1);
        }
        let g = bb.symmetric(true).build();
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let b = NpmBuilder;
        let per_host = Cluster::new(2).run(|ctx| bfs(&parts[ctx.host()], ctx, &b, 0));
        let levels = merge_master_values(g.num_nodes(), per_host);
        assert_eq!(levels[50], 50);
    }

    #[test]
    fn sssp_matches_dijkstra() {
        let g = gen::grid_road(9, 9, 13); // built-in random weights
        let parts = partition(&g, Policy::CartesianVertexCut, 2);
        let b = NpmBuilder;
        let per_host =
            Cluster::with_threads(2, 2).run(|ctx| sssp(&parts[ctx.host()], ctx, &b, 0));
        assert_eq!(
            merge_master_values(g.num_nodes(), per_host),
            ref_sssp(&g, 0)
        );
    }

    #[test]
    fn pagerank_mass_and_partition_independence() {
        let g = gen::rmat(7, 6, 67);
        let n = g.num_nodes();
        let run = |hosts: usize| {
            let parts = partition(&g, Policy::EdgeCutBlocked, hosts);
            let b = NpmBuilder;
            let per_host = Cluster::with_threads(hosts, 2)
                .run(|ctx| pagerank(&parts[ctx.host()], ctx, &b, 10));
            merge_master_values(n, per_host)
        };
        let r1 = run(1);
        let r3 = run(3);
        assert_eq!(r1, r3, "ranks must not depend on the partitioning");
        // Mass conservation within rounding: ranks sum to ~n * PR_SCALE.
        let total: u64 = r1.iter().sum();
        let expected = n as u64 * PR_SCALE;
        let tol = expected / 5; // dangling nodes leak mass; stay in range
        assert!(
            total > expected - tol && total < expected + tol,
            "total {total} vs expected {expected}"
        );
        // Hubs must out-rank leaves.
        let hub = (0..n as u32).max_by_key(|&u| g.degree(u)).unwrap();
        let leaf = (0..n as u32)
            .filter(|&u| g.degree(u) > 0)
            .min_by_key(|&u| g.degree(u))
            .unwrap();
        assert!(r1[hub as usize] > r1[leaf as usize]);
    }
}
