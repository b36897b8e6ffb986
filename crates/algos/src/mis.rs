//! Priority-based maximal independent set (Burtscher et al., §6.1).
//!
//! Every node gets a unique priority derived from its degree (lower degree
//! ⇒ higher priority, which favors larger sets) with the node id as a
//! tie-break. Each round, an undecided node whose priority exceeds that of
//! all undecided neighbors joins the set; its neighbors drop out. All reads
//! are adjacent, so this is a pure adjacent-vertex program (Table 2) —
//! mirrors are pinned, requests elided.

use crate::builder::MapBuilder;
use kimbap_comm::HostCtx;
use kimbap_dist::DistGraph;
use kimbap_graph::NodeId;
use kimbap_npm::{Max, NodePropMap, Sum, SumReducer};

/// Node state encoding in the `state` map (`Max`-reduced, so decisions are
/// monotone: undecided < in-set < out).
const UNDECIDED: u64 = 0;
/// The node joined the independent set.
const IN_SET: u64 = 1;
/// A neighbor joined the set, so this node is excluded.
const OUT: u64 = 2;

/// Unique priority: low degree wins, node id breaks ties.
fn priority(degree: u64, id: NodeId) -> u64 {
    let capped = degree.min(u32::MAX as u64 - 1) as u32;
    ((u32::MAX - capped) as u64) << 32 | id as u64
}

/// Computes a maximal independent set; returns `(global id, in_set)` for
/// this host's masters. Collective.
///
/// Uses two long-lived node-property maps (degree and state, as in the
/// paper's two-map MIS) plus a per-round scratch map holding the best
/// undecided-neighbor priority.
pub fn mis<B: MapBuilder>(dg: &DistGraph, ctx: &HostCtx, b: &B) -> Vec<(NodeId, bool)> {
    // Global degrees: local degrees sum-reduced (a node's edges may span
    // hosts under a vertex-cut).
    let mut degree = b.build::<u64, Sum>(dg, ctx, Sum);
    {
        let d = &degree;
        ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
            for lid in range {
                let lid = lid as u32;
                let deg = dg.degree(lid) as u64;
                if deg > 0 {
                    d.reduce(tid, dg.local_to_global(lid), deg);
                }
            }
        });
    }
    degree.reduce_sync(ctx);
    degree.pin_mirrors(ctx); // adjacent reads of neighbor degrees

    let mut state = b.build::<u64, Max>(dg, ctx, Max);
    state.pin_mirrors(ctx); // identity (UNDECIDED) everywhere
    let mut best = b.build::<u64, Max>(dg, ctx, Max);

    let undecided = SumReducer::new();
    loop {
        // Phase 1: per-round scratch — highest undecided-neighbor priority.
        best.reset_values(ctx);
        {
            let (s, d, bm) = (&state, &degree, &best);
            ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
                for lid in range {
                    let lid = lid as u32;
                    let targets = dg.targets(lid);
                    if targets.len() == 0 {
                        continue;
                    }
                    let g = dg.local_to_global(lid);
                    if s.read(g) != UNDECIDED {
                        continue;
                    }
                    targets.for_each(|dst| {
                        let dst_g = dg.local_to_global(dst);
                        if s.read(dst_g) == UNDECIDED {
                            bm.reduce(tid, g, priority(d.read(dst_g), dst_g));
                        }
                    });
                }
            });
        }
        best.reduce_sync(ctx);

        // Phase 2: winners join the set (decided at masters; `best` of a
        // master is a local read under GAR).
        state.reset_updated();
        {
            let (s, d, bm) = (&state, &degree, &best);
            ctx.par_for(0..dg.num_masters(), |tid, range| {
                for m in range {
                    let g = dg.local_to_global(m as u32);
                    if s.read(g) == UNDECIDED && priority(d.read(g), g) > bm.read(g) {
                        s.reduce(tid, g, IN_SET);
                    }
                }
            });
        }
        state.reduce_sync(ctx);
        state.broadcast_sync(ctx);

        // Phase 3: neighbors of winners drop out.
        {
            let s = &state;
            ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
                for lid in range {
                    let lid = lid as u32;
                    let targets = dg.targets(lid);
                    if targets.len() == 0 {
                        continue;
                    }
                    if s.read(dg.local_to_global(lid)) != IN_SET {
                        continue;
                    }
                    targets.for_each(|dst| {
                        let dst_g = dg.local_to_global(dst);
                        if s.read(dst_g) == UNDECIDED {
                            s.reduce(tid, dst_g, OUT);
                        }
                    });
                }
            });
        }
        state.reduce_sync(ctx);
        state.broadcast_sync(ctx);

        // Quiescence: any undecided master left anywhere?
        undecided.set(0);
        {
            let (s, u) = (&state, &undecided);
            ctx.par_for(0..dg.num_masters(), |_tid, range| {
                for m in range {
                    if s.read(dg.local_to_global(m as u32)) == UNDECIDED {
                        u.reduce(1);
                    }
                }
            });
        }
        if undecided.read(ctx) == 0 {
            break;
        }
    }

    // Isolated nodes never see a competitor: they are in the set. A node
    // with edges is in iff its state is IN_SET.
    dg.master_nodes()
        .map(|m| {
            let g = dg.local_to_global(m);
            (g, state.read(g) == IN_SET)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NpmBuilder;
    use crate::merge_master_values;
    use crate::refcheck;
    use kimbap_comm::Cluster;
    use kimbap_dist::{partition, Policy};
    use kimbap_graph::{gen, Graph};

    fn run_mis(g: &Graph, hosts: usize, threads: usize, policy: Policy) -> Vec<bool> {
        let parts = partition(g, policy, hosts);
        let b = NpmBuilder;
        let per_host = Cluster::with_threads(hosts, threads)
            .run(|ctx| mis(&parts[ctx.host()], ctx, &b));
        merge_master_values(g.num_nodes(), per_host)
    }

    #[test]
    fn valid_on_grid() {
        let g = gen::grid_road(6, 6, 2);
        let set = run_mis(&g, 3, 2, Policy::EdgeCutBlocked);
        refcheck::check_mis(&g, &set).unwrap();
    }

    #[test]
    fn valid_on_power_law_cvc() {
        let g = gen::rmat(8, 4, 7);
        let set = run_mis(&g, 4, 2, Policy::CartesianVertexCut);
        refcheck::check_mis(&g, &set).unwrap();
    }

    #[test]
    fn isolated_nodes_included() {
        let mut b = kimbap_graph::GraphBuilder::new();
        b.add_edge(0, 1, 1).ensure_nodes(5);
        let g = b.symmetric(true).build();
        let set = run_mis(&g, 2, 1, Policy::EdgeCutBlocked);
        assert!(set[2] && set[3] && set[4], "isolated nodes belong to any MIS");
        refcheck::check_mis(&g, &set).unwrap();
    }

    #[test]
    fn deterministic_across_host_counts() {
        // Priorities are data-dependent only, so the set must not depend on
        // the partitioning.
        let g = gen::rmat(7, 3, 9);
        let a = run_mis(&g, 1, 1, Policy::EdgeCutBlocked);
        let b = run_mis(&g, 4, 2, Policy::CartesianVertexCut);
        assert_eq!(a, b);
    }

    #[test]
    fn star_prefers_leaves() {
        // Star: center has degree 10, leaves degree 1 -> all leaves in.
        let mut b = kimbap_graph::GraphBuilder::new();
        for i in 1..=10u32 {
            b.add_edge(0, i, 1);
        }
        let g = b.symmetric(true).build();
        let set = run_mis(&g, 2, 2, Policy::EdgeCutBlocked);
        assert!(!set[0]);
        assert!(set[1..].iter().all(|&x| x));
    }
}
