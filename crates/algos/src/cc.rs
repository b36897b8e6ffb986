//! Connected components: label propagation (CC-LP), shortcutting label
//! propagation (CC-SCLP), and Shiloach-Vishkin (CC-SV).
//!
//! All three label every node with the smallest node id in its component.
//! CC-LP is a pure adjacent-vertex program; CC-SV is the paper's running
//! trans-vertex example (Figs. 4 and 8); CC-SCLP interleaves the two.

use crate::builder::MapBuilder;
use kimbap_comm::HostCtx;
use kimbap_dist::DistGraph;
use kimbap_npm::{BoolReducer, Min, NodePropMap};
use kimbap_graph::NodeId;

/// Collects `(global id, value)` for every master on this host.
pub(crate) fn collect_masters<M: NodePropMap<u64>>(
    map: &M,
    dg: &DistGraph,
) -> Vec<(NodeId, u64)> {
    dg.master_nodes()
        .map(|m| {
            let g = dg.local_to_global(m);
            (g, map.read(g))
        })
        .collect()
}

/// Label propagation: push the node's label to every neighbor, keep the
/// minimum, repeat until quiescent. Adjacent-vertex only, so the compiler
/// (and this hand mirror of its output) pins mirrors and elides requests.
///
/// Returns this host's master labels. Collective.
pub fn cc_lp<B: MapBuilder>(dg: &DistGraph, ctx: &HostCtx, b: &B) -> Vec<(NodeId, u64)> {
    let mut label = b.build::<u64, Min>(dg, ctx, Min);
    label.init_masters(&|g| g as u64);
    label.pin_mirrors(ctx);
    loop {
        // Publish the BSP round so fault plans can target it.
        ctx.set_round(ctx.current_round() + 1);
        label.reset_updated();
        let l = &label;
        ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
            for lid in range {
                let lid = lid as u32;
                // One block lookup serves both the skip test and the scan
                // (degree() would decode the compressed header twice), and
                // targets() skips weight bytes entirely — CC never reads
                // them.
                let targets = dg.targets(lid);
                if targets.len() == 0 {
                    continue;
                }
                let my = l.read(dg.local_to_global(lid));
                targets.for_each(|dst| {
                    let dst_g = dg.local_to_global(dst);
                    if my < l.read(dst_g) {
                        l.reduce(tid, dst_g, my);
                    }
                });
            }
        });
        if !label.sync_round(ctx) {
            break;
        }
    }
    label.unpin_mirrors();
    collect_masters(&label, dg)
}

/// One hook pass of CC-SV (paper Fig. 8, `Hook`): for every edge
/// `src -> dst` with `parent(src) > parent(dst)`, min-reduce
/// `parent(parent(src))` by `parent(dst)` — a write to a dynamically
/// computed node. Pinned mirrors serve the adjacent reads.
fn hook<M: NodePropMap<u64>>(
    parent: &mut M,
    dg: &DistGraph,
    ctx: &HostCtx,
    work_done: &BoolReducer,
) {
    parent.pin_mirrors(ctx);
    loop {
        ctx.set_round(ctx.current_round() + 1);
        parent.reset_updated();
        let p = &*parent;
        ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
            for lid in range {
                let lid = lid as u32;
                let targets = dg.targets(lid);
                if targets.len() == 0 {
                    continue;
                }
                let src_parent = p.read(dg.local_to_global(lid));
                targets.for_each(|dst| {
                    let dst_parent = p.read(dg.local_to_global(dst));
                    if src_parent > dst_parent {
                        work_done.reduce(true);
                        p.reduce(tid, src_parent as NodeId, dst_parent);
                    }
                });
            }
        });
        if !parent.sync_round(ctx) {
            break;
        }
    }
    parent.unpin_mirrors();
}

/// One shortcut pass (paper Fig. 8, `Shortcut`): `parent(n) <-
/// parent(parent(n))` until quiescent. The grandparent may be any node in
/// the graph, so each round requests the parents' properties first; the
/// compiler's master-elision restricts the iterator to masters.
pub(crate) fn shortcut<M: NodePropMap<u64>>(parent: &mut M, dg: &DistGraph, ctx: &HostCtx) {
    loop {
        ctx.set_round(ctx.current_round() + 1);
        parent.reset_updated();
        let p = &*parent;
        ctx.par_for(0..dg.num_masters(), |_tid, range| {
            for m in range {
                let g = dg.local_to_global(m as u32);
                let par = p.read(g);
                p.request(par as NodeId);
            }
        });
        parent.request_sync(ctx);
        let p = &*parent;
        ctx.par_for(0..dg.num_masters(), |tid, range| {
            for m in range {
                let g = dg.local_to_global(m as u32);
                let par = p.read(g);
                let grand = p.read(par as NodeId);
                if par != grand {
                    p.reduce(tid, g, grand);
                }
            }
        });
        if !parent.sync_round(ctx) {
            break;
        }
    }
}

/// Shiloach-Vishkin connected components (paper Fig. 4): alternate hook and
/// shortcut until a full round makes no progress. Pointer jumping lets
/// labels skip many edges per round, which is why CC-SV beats CC-LP on
/// high-diameter graphs (§6.2).
///
/// Returns this host's master labels. Collective.
pub fn cc_sv<B: MapBuilder>(dg: &DistGraph, ctx: &HostCtx, b: &B) -> Vec<(NodeId, u64)> {
    let mut parent = b.build::<u64, Min>(dg, ctx, Min);
    parent.init_masters(&|g| g as u64);
    let work_done = BoolReducer::new();
    loop {
        work_done.set(false);
        hook(&mut parent, dg, ctx, &work_done);
        shortcut(&mut parent, dg, ctx);
        if !work_done.read(ctx) {
            break;
        }
    }
    collect_masters(&parent, dg)
}

/// Shortcutting label propagation (Stergiou et al.): each outer round runs
/// one label-propagation sweep (adjacent-vertex, pinned mirrors) followed
/// by one pointer-jumping sweep (trans-vertex, requests), combining LP's
/// fast fan-out on power-law graphs with shortcutting's long jumps on
/// high-diameter graphs.
///
/// Returns this host's master labels. Collective.
pub fn cc_sclp<B: MapBuilder>(dg: &DistGraph, ctx: &HostCtx, b: &B) -> Vec<(NodeId, u64)> {
    let mut label = b.build::<u64, Min>(dg, ctx, Min);
    label.init_masters(&|g| g as u64);
    loop {
        // LP sweep.
        ctx.set_round(ctx.current_round() + 1);
        label.pin_mirrors(ctx);
        label.reset_updated();
        let l = &label;
        ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
            for lid in range {
                let lid = lid as u32;
                // One block lookup serves both the skip test and the scan
                // (degree() would decode the compressed header twice), and
                // targets() skips weight bytes entirely — CC never reads
                // them.
                let targets = dg.targets(lid);
                if targets.len() == 0 {
                    continue;
                }
                let my = l.read(dg.local_to_global(lid));
                targets.for_each(|dst| {
                    let dst_g = dg.local_to_global(dst);
                    if my < l.read(dst_g) {
                        l.reduce(tid, dst_g, my);
                    }
                });
            }
        });
        let lp_updated = label.sync_round(ctx);
        label.unpin_mirrors();

        // Shortcut sweep: one pointer jump per outer round.
        label.reset_updated();
        let l = &label;
        ctx.par_for(0..dg.num_masters(), |_tid, range| {
            for m in range {
                let g = dg.local_to_global(m as u32);
                l.request(l.read(g) as NodeId);
            }
        });
        label.request_sync(ctx);
        let l = &label;
        ctx.par_for(0..dg.num_masters(), |tid, range| {
            for m in range {
                let g = dg.local_to_global(m as u32);
                let par = l.read(g);
                let grand = l.read(par as NodeId);
                if par != grand {
                    l.reduce(tid, g, grand);
                }
            }
        });
        label.reduce_sync(ctx);
        let sc_updated = label.is_updated(ctx);

        if !lp_updated && !sc_updated {
            break;
        }
    }
    collect_masters(&label, dg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{NpmBuilder, ShardedBuilder};
    use crate::merge_master_values;
    use crate::refcheck;
    use kimbap_comm::Cluster;
    use kimbap_dist::{partition, Policy};
    use kimbap_graph::{gen, Graph};

    fn run_cc(
        g: &Graph,
        hosts: usize,
        threads: usize,
        policy: Policy,
        algo: impl Fn(&DistGraph, &HostCtx, &NpmBuilder) -> Vec<(NodeId, u64)> + Sync,
    ) -> Vec<u64> {
        let parts = partition(g, policy, hosts);
        let b = NpmBuilder;
        let per_host =
            Cluster::with_threads(hosts, threads).run(|ctx| algo(&parts[ctx.host()], ctx, &b));
        merge_master_values(g.num_nodes(), per_host)
    }

    fn check_graph(g: &Graph, hosts: usize, threads: usize, policy: Policy) {
        let expected = refcheck::connected_components(g);
        for (name, labels) in [
            ("sv", run_cc(g, hosts, threads, policy, cc_sv)),
            ("lp", run_cc(g, hosts, threads, policy, cc_lp)),
            ("sclp", run_cc(g, hosts, threads, policy, cc_sclp)),
        ] {
            assert_eq!(
                labels, expected,
                "{name} wrong on {hosts} hosts / {policy:?}"
            );
        }
    }

    #[test]
    fn connected_grid() {
        let g = gen::grid_road(7, 9, 1);
        check_graph(&g, 3, 2, Policy::EdgeCutBlocked);
    }

    #[test]
    fn power_law_cvc() {
        let g = gen::rmat(8, 4, 5);
        check_graph(&g, 4, 2, Policy::CartesianVertexCut);
    }

    #[test]
    fn disconnected_components() {
        // Two separate paths + isolated nodes.
        let mut b = kimbap_graph::GraphBuilder::new();
        for i in 0..10u32 {
            b.add_edge(i, i + 1, 1);
        }
        for i in 20..25u32 {
            b.add_edge(i, i + 1, 1);
        }
        b.ensure_nodes(30);
        let g = b.symmetric(true).build();
        check_graph(&g, 2, 1, Policy::EdgeCutBlocked);
        check_graph(&g, 3, 2, Policy::CartesianVertexCut);
    }

    #[test]
    fn single_host_matches() {
        let g = gen::rmat(7, 3, 8);
        check_graph(&g, 1, 2, Policy::EdgeCutBlocked);
    }

    #[test]
    fn high_diameter_path() {
        // A long path: worst case for LP, best case for pointer jumping.
        let mut b = kimbap_graph::GraphBuilder::new();
        for i in 0..200u32 {
            b.add_edge(i, i + 1, 1);
        }
        let g = b.symmetric(true).build();
        check_graph(&g, 2, 2, Policy::EdgeCutBlocked);
    }

    #[test]
    fn sv_works_on_all_variants() {
        fn labels<B: MapBuilder>(g: &Graph, parts: &[DistGraph], b: &B) -> Vec<u64> {
            let per_host =
                Cluster::with_threads(3, 2).run(|ctx| cc_sv(&parts[ctx.host()], ctx, b));
            merge_master_values(g.num_nodes(), per_host)
        }
        let g = gen::rmat(7, 4, 3);
        let expected = refcheck::connected_components(&g);
        let parts = partition(&g, Policy::EdgeCutBlocked, 3);
        for b in [ShardedBuilder::sgr_only(), ShardedBuilder::sgr_cf()] {
            assert_eq!(labels(&g, &parts, &b), expected, "{b} diverged");
        }
        assert_eq!(labels(&g, &parts, &NpmBuilder), expected, "SGR+CF+GAR diverged");
    }
}
