//! Boruvka's minimum spanning forest (§6.1) — a trans-vertex program.
//!
//! Each round every component selects its minimum-weight outgoing edge
//! (a min-reduction keyed by the component representative, i.e. a write to
//! a dynamically computed node), components hook along the selected edges,
//! and parent pointers are compressed by pointer jumping. Ties are broken
//! by `(weight, src, dst)`, making the edge order total and the forest
//! deterministic.

use crate::builder::MapBuilder;
use crate::cc::shortcut;
use kimbap_comm::HostCtx;
use kimbap_dist::DistGraph;
use kimbap_graph::NodeId;
use kimbap_npm::{BoolReducer, Min, NodePropMap, ReduceOp};

/// Per-host MSF output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MsfHostResult {
    /// Forest edges recorded by this host as `(src, dst, weight)`.
    ///
    /// An edge can be selected by the components of *both* endpoints, so
    /// the union over hosts may contain duplicates — merge with
    /// [`merge_forest`].
    pub edges: Vec<(NodeId, NodeId, u64)>,
}

/// Deduplicates per-host forest edges and returns `(edges, total_weight)`, the total wrapping.
pub fn merge_forest(per_host: Vec<MsfHostResult>) -> (Vec<(NodeId, NodeId, u64)>, u64) {
    let mut edges: Vec<(NodeId, NodeId, u64)> = per_host
        .into_iter()
        .flat_map(|h| h.edges)
        .map(|(u, v, w)| (u.min(v), u.max(v), w))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let total = edges.iter().fold(0u64, |t, &(_, _, w)| t.wrapping_add(w));
    (edges, total)
}

/// Runs distributed Boruvka; returns this host's selected edges.
/// Collective.
pub fn msf<B: MapBuilder>(dg: &DistGraph, ctx: &HostCtx, b: &B) -> MsfHostResult {
    type MinEdge = (u64, (u32, u32));

    let mut parent = b.build::<u64, Min>(dg, ctx, Min);
    parent.init_masters(&|g| g as u64);
    // The first map tracks parents; the second holds, per component, the
    // minimum (weight, edge) to merge with — the paper's two MSF maps.
    let mut minedge = b.build::<MinEdge, Min>(dg, ctx, Min);
    let none: MinEdge = Min.identity();

    let work_done = BoolReducer::new();
    let forest = parking_lot::Mutex::new(Vec::new());

    loop {
        work_done.set(false);

        // Phase 1: every component min-reduces its lightest outgoing edge.
        // Parent reads are adjacent -> pinned mirrors.
        parent.pin_mirrors(ctx);
        minedge.reset_values(ctx);
        {
            let (p, me) = (&parent, &minedge);
            ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
                for lid in range {
                    let lid = lid as u32;
                    let edges = dg.edges(lid);
                    if edges.len() == 0 {
                        continue;
                    }
                    let gu = dg.local_to_global(lid);
                    let pu = p.read(gu);
                    edges.for_each(|(dst, w)| {
                        let gv = dg.local_to_global(dst);
                        let pv = p.read(gv);
                        if pu != pv {
                            let e: MinEdge = (w, (gu, gv));
                            me.reduce(tid, pu as NodeId, e);
                            me.reduce(tid, pv as NodeId, e);
                        }
                    });
                }
            });
        }
        minedge.reduce_sync(ctx);
        parent.unpin_mirrors();

        // Phase 2a: roots request the parents of their chosen edge's
        // endpoints (any node in the graph — the trans-vertex accesses).
        {
            let (p, me) = (&parent, &minedge);
            ctx.par_for(0..dg.num_masters(), |_tid, range| {
                for m in range {
                    let g = dg.local_to_global(m as u32);
                    if p.read(g) != g as u64 {
                        continue; // not a root
                    }
                    let e = me.read(g);
                    if e != none {
                        let (_, (u, v)) = e;
                        p.request(u);
                        p.request(v);
                    }
                }
            });
        }
        parent.request_sync(ctx);

        // Phase 2b: hook — the larger root adopts the smaller; record the
        // edge.
        {
            let (p, me) = (&parent, &minedge);
            let forest = &forest;
            let work_done = &work_done;
            ctx.par_for(0..dg.num_masters(), |tid, range| {
                let mut local_edges = Vec::new();
                for m in range {
                    let g = dg.local_to_global(m as u32);
                    if p.read(g) != g as u64 {
                        continue;
                    }
                    let e = me.read(g);
                    if e == none {
                        continue;
                    }
                    let (w, (u, v)) = e;
                    let (cu, cv) = (p.read(u), p.read(v));
                    if cu == cv {
                        continue;
                    }
                    let (lo, hi) = (cu.min(cv), cu.max(cv));
                    p.reduce(tid, hi as NodeId, lo);
                    work_done.reduce(true);
                    local_edges.push((u, v, w));
                }
                if !local_edges.is_empty() {
                    forest.lock().extend(local_edges);
                }
            });
        }
        parent.reduce_sync(ctx);

        // Phase 3: compress parent chains to stars.
        shortcut(&mut parent, dg, ctx);

        if !work_done.read(ctx) {
            break;
        }
    }

    MsfHostResult {
        edges: forest.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NpmBuilder;
    use crate::refcheck;
    use kimbap_comm::Cluster;
    use kimbap_dist::{partition, Policy};
    use kimbap_graph::{gen, Graph};

    fn run_msf(g: &Graph, hosts: usize, threads: usize, policy: Policy) -> (usize, u64) {
        let parts = partition(g, policy, hosts);
        let b = NpmBuilder;
        let per_host = Cluster::with_threads(hosts, threads)
            .run(|ctx| msf(&parts[ctx.host()], ctx, &b));
        let (edges, weight) = merge_forest(per_host);
        // No duplicate undirected edges.
        let mut keys: Vec<_> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), edges.len());
        // Forest edges must not create cycles.
        let mut uf = refcheck::UnionFind::new(g.num_nodes());
        for &(u, v, _) in &edges {
            assert_ne!(uf.find(u), uf.find(v), "cycle via ({u},{v})");
            uf.union(u, v);
        }
        (edges.len(), weight)
    }

    #[test]
    fn weighted_grid_matches_kruskal() {
        let g = gen::grid_road(6, 7, 4); // random weights built in
        let (count, weight) = run_msf(&g, 3, 2, Policy::EdgeCutBlocked);
        assert_eq!(count, refcheck::msf_edge_count(&g));
        assert_eq!(weight, refcheck::msf_weight(&g));
    }

    #[test]
    fn power_law_with_random_weights() {
        let g = gen::with_random_weights(&gen::rmat(7, 4, 6), 1000, 3);
        let (count, weight) = run_msf(&g, 4, 2, Policy::CartesianVertexCut);
        assert_eq!(count, refcheck::msf_edge_count(&g));
        assert_eq!(weight, refcheck::msf_weight(&g));
    }

    #[test]
    fn disconnected_forest() {
        let mut b = kimbap_graph::GraphBuilder::new();
        b.add_edge(0, 1, 5).add_edge(1, 2, 3).add_edge(0, 2, 4);
        b.add_edge(10, 11, 7);
        b.ensure_nodes(12);
        let g = b.symmetric(true).build();
        let (count, weight) = run_msf(&g, 2, 1, Policy::EdgeCutBlocked);
        assert_eq!(count, 3); // 2 in the triangle + 1 in the pair
        assert_eq!(weight, 3 + 4 + 7);
    }

    #[test]
    fn single_host_equals_multi_host() {
        let g = gen::with_random_weights(&gen::rmat(6, 3, 1), 50, 9);
        let a = run_msf(&g, 1, 1, Policy::EdgeCutBlocked);
        let b = run_msf(&g, 3, 2, Policy::EdgeCutBlocked);
        assert_eq!(a.1, b.1);
        assert_eq!(a.0, b.0);
    }
}
