//! Deterministic distributed Leiden community detection (§6.1, LD) — the
//! paper's first distributed Leiden implementation.
//!
//! Leiden improves Louvain's quality guarantee by inserting a *refinement*
//! phase between local moving and aggregation (Traag et al. 2019): within
//! each community, nodes are re-partitioned into well-connected
//! *subcommunities*, and aggregation collapses subcommunities (not
//! communities), carrying the community assignment to the next level as
//! the initial partition. This prevents badly-connected communities from
//! being locked in by aggregation.
//!
//! Determinism notes (this is a BSP formulation, like our Louvain):
//!
//! * refinement is merge-only — a node may join another subcommunity only
//!   while it is still a singleton, and only a subcommunity with a smaller
//!   id, which makes simultaneous decisions acyclic and convergent;
//! * the well-connectedness gate `w(u, C∖u) ≥ γ·k_u·(tot_C − k_u)/M`
//!   follows the Leiden paper.
//!
//! Five node-property maps are used per level (community, community total,
//! subcommunity, subcommunity total/size, and the coarse-id map), matching
//! the paper's "five node property maps for cluster and subcluster
//! information".

use crate::accum::{number_overflow, DecisionScratch, SlotWeights, NO_PROXY};
use crate::builder::MapBuilder;
use crate::louvain::{
    aggregate, local_moving, modularity_of, par_each_mut, proxy_slot, CommunityResult, Knobs,
    MovingOutcome, MAX_LEVELS,
};
use kimbap_comm::HostCtx;
use kimbap_dist::{assemble_dist_graph, DistGraph, Policy};
use kimbap_graph::NodeId;
use kimbap_npm::{Min, NodePropMap, Sum, SumReducer};

/// Maximum refinement (merge) rounds per level.
const MAX_REFINE_ROUNDS: usize = 10;

/// Runs deterministic distributed Leiden; returns this host's
/// [`CommunityResult`]. Collective.
pub fn leiden<B: MapBuilder>(dg: &DistGraph, ctx: &HostCtx, b: &B) -> CommunityResult {
    leiden_with(dg, ctx, b, &Knobs::PRODUCT)
}

/// [`leiden`] under `cfg`.
pub(crate) fn leiden_with<B: MapBuilder>(
    dg: &DistGraph,
    ctx: &HostCtx,
    b: &B,
    cfg: &Knobs,
) -> CommunityResult {
    let mut result = CommunityResult::default();
    let mut owned: Option<DistGraph> = None;
    let mut init_comm: Option<Vec<u64>> = None;
    let mut pending_final: Option<Vec<(NodeId, NodeId)>> = None;

    let local_w: u64 = dg
        .master_nodes()
        .chain(dg.mirror_nodes())
        .map(|l| dg.weighted_degree(l))
        .sum();
    let m_total = ctx.all_reduce_u64(local_w, |a, b| a + b) as f64;

    for _level in 0..MAX_LEVELS {
        let (mapping, coarse_edges, n_coarse, modularity, improved, init_pairs) = {
            let cur = owned.as_ref().unwrap_or(dg);
            run_level(cur, ctx, b, cfg, m_total, init_comm.as_deref())
        };
        result.modularity = modularity;
        result.levels += 1;
        result.final_nodes = n_coarse;
        result.mappings.push(mapping);
        #[cfg(test)]
        result.coarse_edges.push(coarse_edges.clone());

        let prev_n = owned
            .as_ref()
            .map(|d| d.num_global_nodes())
            .unwrap_or(dg.num_global_nodes());
        let shrunk = n_coarse < prev_n;

        let next = assemble_dist_graph(ctx, n_coarse, Policy::EdgeCutBlocked, coarse_edges);

        // Project the community partition onto the coarse graph: every
        // coarse node (a subcommunity) starts the next level in the
        // community it came from.
        let mut init = b.build::<u64, Min>(&next, ctx, Min);
        {
            let im = &init;
            ctx.par_for(0..init_pairs.len(), |tid, range| {
                for i in range {
                    let (coarse, label) = init_pairs[i];
                    im.reduce(tid, coarse, label as u64);
                }
            });
        }
        init.reduce_sync(ctx);
        let seed: Vec<u64> = next
            .master_nodes()
            .map(|m| {
                let g = next.local_to_global(m);
                let v = init.read(g);
                // Coarse nodes always receive a label from some member.
                debug_assert_ne!(v, u64::MAX, "coarse node {g} got no community");
                v
            })
            .collect();
        drop(init);

        // Final projected labels for composition if we stop here.
        let final_mapping: Vec<(NodeId, NodeId)> = next
            .master_nodes()
            .zip(seed.iter())
            .map(|(m, &c)| (next.local_to_global(m), c as NodeId))
            .collect();

        init_comm = Some(seed);
        owned = Some(next);
        pending_final = Some(final_mapping);

        if !improved || !shrunk || n_coarse <= 1 {
            break;
        }
    }
    // Close the label chain: map the final coarse nodes (subcommunities) to
    // their projected communities, so composed labels are communities.
    if let Some(fm) = pending_final {
        result.mappings.push(fm);
    }
    result
}

/// One local proxy as a round's merge decisions read it: its community,
/// its subcommunity and the subcommunity's slot in the decision
/// accumulator (both are named by node ids).
#[derive(Debug, Clone, Copy, Default)]
struct SubProxy {
    comm: NodeId,
    sub: NodeId,
    slot: u32,
}

/// What a merge decision reads: the level's graph, the round's proxy
/// table and the requested community totals.
struct Refine<'a, T> {
    cur: &'a DistGraph,
    proxies: &'a [SubProxy],
    comm_tot: &'a T,
    gamma: f64,
    m_total: f64,
}

impl<T: NodePropMap<i64>> Refine<'_, T> {
    /// The subcommunity the singleton master `lid` (community `my_comm`,
    /// weighted degree `k_u`) joins: the best-connected one with a smaller
    /// id inside its community, ties to the smallest id; `None` if it is
    /// not well connected to the community or has no such neighbor. Each
    /// neighbor's community, subcommunity and slot come from the proxy
    /// table, summed by slot in `w_to`.
    #[inline]
    fn target(&self, lid: u32, my_comm: u64, k_u: u64, w_to: &mut SlotWeights<()>) -> Option<u64> {
        let cur = self.cur;
        let g = cur.local_to_global(lid) as u64;
        let proxies = self.proxies;
        let mut w_in_comm = 0u64;
        w_to.clear();
        cur.edges(lid).for_each(|(dst, w)| {
            let p = proxies[dst as usize];
            if dst != lid && p.comm as u64 == my_comm {
                w_in_comm += w;
                if (p.sub as u64) < g {
                    w_to.add(p.slot, p.sub as u64, w, ());
                }
            }
        });
        self.choose(my_comm, k_u, w_in_comm, w_to.iter().map(|(s, w, ())| (s, w)))
    }

    /// The well-connectedness gate, then the choice among `(subcommunity,
    /// weight from u)` candidates — a total order, so any iteration order
    /// picks the same one.
    #[inline]
    fn choose(
        &self,
        my_comm: u64,
        k_u: u64,
        w_in_comm: u64,
        candidates: impl Iterator<Item = (u64, u64)>,
    ) -> Option<u64> {
        let tot_c = self.comm_tot.read(my_comm as NodeId) as f64;
        let gate = self.gamma * k_u as f64 * (tot_c - k_u as f64) / self.m_total;
        if (w_in_comm as f64) < gate {
            return None; // not well connected: stays singleton
        }
        candidates
            .max_by_key(|&(s, w)| (w, std::cmp::Reverse(s)))
            .map(|(s, _)| s)
    }

    /// [`Refine::target`] as it was before the accumulator: a `HashMap`
    /// probe and two global-id reads per edge.
    #[cfg(test)]
    fn target_reference(
        &self,
        comm: &impl NodePropMap<u64>,
        sub_map: &impl NodePropMap<u64>,
        lid: u32,
        my_comm: u64,
        k_u: u64,
    ) -> Option<u64> {
        let cur = self.cur;
        let g = cur.local_to_global(lid) as u64;
        let mut w_in_comm = 0u64;
        let mut w_to: std::collections::HashMap<u64, u64> = Default::default();
        for (dst, w) in cur.edges(lid) {
            let gv = cur.local_to_global(dst);
            if gv as u64 == g {
                continue;
            }
            if comm.read(gv) == my_comm {
                w_in_comm += w;
                let s = sub_map.read(gv);
                if s < g {
                    *w_to.entry(s).or_default() += w;
                }
            }
        }
        self.choose(my_comm, k_u, w_in_comm, w_to.into_iter())
    }
}

/// One Leiden level: local moving → subcommunity refinement → aggregation
/// by subcommunity. Returns `(mapping, coarse_edges, n_coarse, modularity,
/// improved, init_pairs)` where `init_pairs` project communities onto
/// coarse ids.
#[allow(clippy::type_complexity)]
fn run_level<B: MapBuilder>(
    cur: &DistGraph,
    ctx: &HostCtx,
    b: &B,
    cfg: &Knobs,
    m_total: f64,
    init_comm: Option<&[u64]>,
) -> (
    Vec<(NodeId, NodeId)>,
    Vec<(NodeId, NodeId, u64)>,
    usize,
    f64,
    bool,
    Vec<(NodeId, NodeId)>,
) {
    let masters = cur.num_masters();

    // Phase 1: local moving (maps 1 and 2: comm, comm_tot). Its totals
    // serve the modularity and the well-connectedness gate.
    let MovingOutcome {
        cur_comm,
        comm,
        k,
        mut comm_tot,
    } = local_moving(cur, ctx, b, cfg, m_total, init_comm);
    let (comm, cur_comm, k) = (&comm, &cur_comm, &k);
    let modularity = modularity_of(cur, ctx, b, cur_comm, comm, &comm_tot, m_total);

    // Phase 2: refinement into subcommunities (maps 3-4: subcomm,
    // subcomm size/total).
    let mut sub: Vec<u64> = (0..masters)
        .map(|m| cur.local_to_global(m as u32) as u64)
        .collect();
    let mut sub_map = b.build::<u64, Min>(cur, ctx, Min);
    for (m, &s) in sub.iter().enumerate() {
        sub_map.set(cur.local_to_global(m as u32), s);
    }
    sub_map.pin_mirrors(ctx);

    let mut sub_size = b.build::<u64, Sum>(cur, ctx, Sum);
    let merges = SumReducer::new();
    let mut scratch = DecisionScratch::<SlotWeights<()>>::per_thread(ctx.threads());
    let num_local = cur.num_local_nodes();
    let mut proxies = vec![
        SubProxy {
            slot: NO_PROXY,
            ..SubProxy::default()
        };
        num_local
    ];

    // The community totals the gate reads: neither `cur_comm` nor the
    // totals change during refinement, so one request serves every round.
    {
        let ct = &comm_tot;
        ctx.par_for(0..masters, |_tid, range| {
            for m in range {
                ct.request(cur_comm[m] as NodeId);
            }
        });
    }
    comm_tot.request_sync(ctx);

    for _round in 0..MAX_REFINE_ROUNDS {
        // Subcommunity sizes (a singleton has size 1).
        sub_size.reset_values(ctx);
        {
            let ss = &sub_size;
            let sb = &sub;
            ctx.par_for(0..masters, |tid, range| {
                for m in range {
                    ss.reduce(tid, sb[m] as NodeId, 1);
                }
            });
        }
        sub_size.reduce_sync(ctx);

        // The round's proxy table: every local proxy's community,
        // subcommunity and the subcommunity's slot, so the decisions read
        // one entry per edge and no map.
        {
            let (cm, sm, sb) = (comm, &sub_map, &sub);
            par_each_mut(ctx, &mut proxies, |l, p| {
                let (c, s) = if l < masters {
                    (cur_comm[l], sb[l])
                } else {
                    (cm.read_local(cur, l as u32), sm.read_local(cur, l as u32))
                };
                *p = SubProxy {
                    comm: c as NodeId,
                    sub: s as NodeId,
                    slot: proxy_slot(cur, s, p.sub as u64, p.slot),
                };
            });
        }
        let slots =
            number_overflow(num_local, proxies.iter_mut().map(|p| (p.sub as u64, &mut p.slot)));

        // Merge decisions.
        merges.set(0);
        for s in &mut scratch {
            s.get_mut().w_to.reset(slots);
        }
        {
            let refine = Refine {
                cur,
                proxies: &proxies,
                comm_tot: &comm_tot,
                gamma: cfg.resolution,
                m_total,
            };
            #[cfg(test)]
            let sm = &sub_map;
            let ss = &sub_size;
            let sb = &sub;
            let scratch = &scratch;
            let merges = &merges;
            ctx.par_for(0..masters, |tid, range| {
                let DecisionScratch { w_to, decided } = &mut *scratch[tid].lock();
                for m in range {
                    let lid = m as u32;
                    let g = cur.local_to_global(lid);
                    // Merge-only: still a singleton?
                    if sb[m] != g as u64 || ss.read(g) != 1 || k[m] == 0 {
                        continue;
                    }
                    #[cfg(test)]
                    let target = if cfg.reference_kernel {
                        refine.target_reference(comm, sm, lid, cur_comm[m], k[m])
                    } else {
                        refine.target(lid, cur_comm[m], k[m], w_to)
                    };
                    #[cfg(not(test))]
                    let target = refine.target(lid, cur_comm[m], k[m], w_to);
                    if let Some(best) = target {
                        decided.push((m, best));
                        merges.reduce(1);
                    }
                }
            });
        }
        sub_map.reset_updated();
        for s in &mut scratch {
            for (m, sc) in s.get_mut().decided.drain(..) {
                sub[m] = sc;
                sub_map.set(cur.local_to_global(m as u32), sc);
            }
        }
        sub_map.broadcast_sync(ctx);

        if merges.read(ctx) == 0 {
            break;
        }
    }

    // Phase 3: aggregate by subcommunity (map 5: the coarse-id map inside
    // `aggregate`).
    #[cfg(test)]
    let (mapping, coarse_edges, n_coarse, _sub_improved) = if cfg.reference_kernel {
        crate::louvain::aggregate_reference(cur, ctx, b, &sub, &sub_map)
    } else {
        aggregate(cur, ctx, b, &sub, &sub_map)
    };
    #[cfg(not(test))]
    let (mapping, coarse_edges, n_coarse, _sub_improved) = aggregate(cur, ctx, b, &sub, &sub_map);

    // Project communities to coarse space: community label = smallest
    // coarse id of any member subcommunity (`mapping[m].1` is master
    // `m`'s).
    let mut comm_label = b.build::<u64, Min>(cur, ctx, Min);
    {
        let (cl, mapping) = (&comm_label, &mapping);
        ctx.par_for(0..masters, |tid, range| {
            for m in range {
                cl.reduce(tid, cur_comm[m] as NodeId, mapping[m].1 as u64);
            }
        });
    }
    comm_label.reduce_sync(ctx);
    {
        let cl = &comm_label;
        ctx.par_for(0..masters, |_tid, range| {
            for m in range {
                cl.request(cur_comm[m] as NodeId);
            }
        });
    }
    comm_label.request_sync(ctx);

    // (coarse id of u's subcommunity, coarse label of u's community).
    let mut init_pairs: Vec<(NodeId, NodeId)> = (0..masters)
        .map(|m| (mapping[m].1, comm_label.read(cur_comm[m] as NodeId) as NodeId))
        .collect();
    init_pairs.sort_unstable();
    init_pairs.dedup();

    // Improvement: did local moving produce non-singleton communities?
    let moved_local = cur_comm
        .iter()
        .enumerate()
        .any(|(m, &c)| c != cur.local_to_global(m as u32) as u64);
    let improved = ctx.all_reduce_or(moved_local);

    (mapping, coarse_edges, n_coarse, modularity, improved, init_pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NpmBuilder;
    use crate::louvain::{compose_labels, louvain};
    use crate::refcheck;
    use kimbap_comm::Cluster;
    use kimbap_dist::partition;
    use kimbap_graph::{builder::from_edges, gen, Graph};
    use std::collections::HashMap;

    fn run_leiden(g: &Graph, hosts: usize, threads: usize) -> (Vec<NodeId>, f64) {
        let parts = partition(g, Policy::EdgeCutBlocked, hosts);
        let b = NpmBuilder;
        let results =
            Cluster::with_threads(hosts, threads).run(|ctx| leiden(&parts[ctx.host()], ctx, &b));
        let q = results[0].modularity;
        let labels = compose_labels(g.num_nodes(), &results);
        (labels, q)
    }

    #[test]
    fn finds_ring_of_cliques() {
        let mut edges = Vec::new();
        for c in 0..4u32 {
            let base = c * 6;
            for a in 0..6 {
                for b in (a + 1)..6 {
                    edges.push((base + a, base + b, 1));
                }
            }
            edges.push((base, ((c + 1) % 4) * 6, 1));
        }
        let g = from_edges(edges);
        let (labels, q) = run_leiden(&g, 3, 2);
        for c in 0..4u32 {
            let base = (c * 6) as usize;
            assert!(
                (base..base + 6).all(|i| labels[i] == labels[base]),
                "clique {c} split: {labels:?}"
            );
        }
        assert!(q > 0.6, "q = {q}");
    }

    #[test]
    fn quality_at_least_louvain_on_power_law() {
        // Leiden's refinement must not lose quality vs plain Louvain.
        let g = gen::rmat(7, 6, 17);
        let (ld_labels, _) = run_leiden(&g, 2, 2);
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let b = NpmBuilder;
        let lv = Cluster::with_threads(2, 2).run(|ctx| louvain(&parts[ctx.host()], ctx, &b));
        let lv_labels = compose_labels(g.num_nodes(), &lv);
        let q_ld = refcheck::modularity(&g, &ld_labels);
        let q_lv = refcheck::modularity(&g, &lv_labels);
        assert!(
            q_ld >= q_lv - 0.05,
            "Leiden q {q_ld} far below Louvain q {q_lv}"
        );
    }

    #[test]
    fn reported_modularity_matches_reference() {
        let g = gen::grid_road(8, 8, 7);
        let (labels, q) = run_leiden(&g, 2, 2);
        let q_ref = refcheck::modularity(&g, &labels);
        assert!((q - q_ref).abs() < 1e-9, "q={q} ref={q_ref}");
        assert!(q > 0.4);
    }

    #[test]
    fn deterministic_across_host_counts() {
        let g = gen::rmat(6, 4, 23);
        let (l1, q1) = run_leiden(&g, 1, 1);
        let (l2, q2) = run_leiden(&g, 3, 2);
        assert!((q1 - q2).abs() < 1e-9, "q1={q1} q2={q2}");
        let canon = |ls: &[NodeId]| {
            let mut seen = HashMap::new();
            ls.iter()
                .map(|&l| {
                    let next = seen.len() as u32;
                    *seen.entry(l).or_insert(next)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(canon(&l1), canon(&l2));
    }
}
