//! Deterministic distributed Louvain community detection (§6.1, LV).
//!
//! Louvain alternates two phases: *refinement* (each node greedily moves to
//! the neighboring community with the best modularity gain) and
//! *coarsening* (communities collapse into single nodes and the process
//! repeats on the aggregated graph).
//!
//! The Kimbap formulation stores a community's aggregate state in its
//! representative node's property, so computing a neighbor community's
//! total weight is a read of a *dynamically computed* node id — the
//! trans-vertex access that adjacent-vertex frameworks cannot express.
//! Per refinement round:
//!
//! 1. rebuild the community-total map (`Sum` reductions keyed by community
//!    representative);
//! 2. request the totals of the active node's own and neighboring
//!    communities (request-compute / request-sync);
//! 3. compute modularity gains, pick the best move (ties to the smallest
//!    community id), write decisions, and broadcast them to mirrors.
//!
//! Louvain runs on an outgoing edge-cut partition (as in the paper, which
//! uses the same edge-cut for Kimbap and Vite), so a master holds all of
//! its node's edges and can decide moves locally.

use crate::accum::{DecisionScratch, NeighborWeights};
use crate::builder::MapBuilder;
use kimbap_comm::HostCtx;
use kimbap_dist::{assemble_dist_graph, DistGraph, Policy};
use kimbap_graph::{NodeId, Weight};
use kimbap_npm::{Max, Min, NodePropMap, Sum, SumReducer};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Tuning knobs for Louvain/Leiden.
#[derive(Debug, Clone, Copy)]
pub struct LouvainConfig {
    /// Maximum coarsening levels.
    pub max_levels: usize,
    /// Maximum refinement rounds per level.
    pub max_rounds: usize,
    /// Stop refining a level once fewer than this fraction of nodes moved.
    pub min_move_fraction: f64,
    /// Resolution parameter γ of the modularity objective.
    pub resolution: f64,
    /// Decide moves and merges with the `HashMap` + global-id reference
    /// kernels the differential tests compare the product ones against.
    #[cfg(test)]
    pub(crate) reference_kernel: bool,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        LouvainConfig {
            max_levels: 12,
            max_rounds: 48,
            min_move_fraction: 0.005,
            resolution: 1.0,
            #[cfg(test)]
            reference_kernel: false,
        }
    }
}

/// Per-host output of [`louvain`] / [`fn@crate::leiden`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommunityResult {
    /// For each level: this host's `(node id at that level, coarse id at
    /// the next level)` for its masters. Compose across hosts and levels
    /// with [`compose_labels`].
    pub mappings: Vec<Vec<(NodeId, NodeId)>>,
    /// Modularity of the final partition (same value on every host).
    pub modularity: f64,
    /// Number of levels executed.
    pub levels: usize,
    /// Node count of the final coarse graph.
    pub final_nodes: usize,
}

/// [`try_compose_labels`], panicking on what it rejects.
pub fn compose_labels(n0: usize, per_host: &[CommunityResult]) -> Vec<NodeId> {
    try_compose_labels(n0, per_host).unwrap_or_else(|e| panic!("{e}"))
}

/// Composes per-level, per-host mappings into final community labels for
/// the original `n0` nodes. Labels are coarse-node ids of the last level.
/// A level whose mapping misses a live node is an `Err`.
pub fn try_compose_labels(n0: usize, per_host: &[CommunityResult]) -> Result<Vec<NodeId>, String> {
    let levels = per_host.iter().map(|r| r.mappings.len()).max().unwrap_or(0);
    let mut labels: Vec<NodeId> = (0..n0 as NodeId).collect();
    for level in 0..levels {
        // Gather this level's full mapping.
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        for host in per_host {
            if let Some(m) = host.mappings.get(level) {
                map.extend(m.iter().copied());
            }
        }
        for l in labels.iter_mut() {
            *l = *map
                .get(l)
                .ok_or_else(|| format!("level {level}'s mapping misses live node {l}"))?;
        }
    }
    Ok(labels)
}

/// State carried between levels.
pub(crate) struct LevelOutcome {
    /// Master-node -> coarse-id mapping for this host.
    pub(crate) mapping: Vec<(NodeId, NodeId)>,
    /// Aggregated coarse edges produced by this host.
    pub(crate) coarse_edges: Vec<(NodeId, NodeId, Weight)>,
    /// Global number of coarse nodes.
    pub(crate) n_coarse: usize,
    /// Modularity of the partition found at this level.
    pub(crate) modularity: f64,
    /// Did any node change community at this level?
    pub(crate) improved: bool,
}

/// Result of the local-moving phase on one level.
pub(crate) struct MovingOutcome<'g, B: MapBuilder + 'g> {
    /// Community of each master, by master offset.
    pub(crate) cur_comm: Vec<u64>,
    /// The community map, still pinned (mirrors hold current assignments).
    pub(crate) comm: B::Map<'g, u64, Min>,
    /// Weighted degree of each master.
    pub(crate) k: Vec<u64>,
}

/// What a move decision reads: the level's graph, the pinned community
/// map and the community totals requested for this round.
struct Gain<'a, C, T> {
    cur: &'a DistGraph,
    comm: &'a C,
    comm_tot: &'a T,
    resolution: f64,
    m_total: f64,
}

impl<C: NodePropMap<u64>, T: NodePropMap<i64>> Gain<'_, C, T> {
    /// The community master `lid` (now in `my_comm`, weighted degree `k_u`)
    /// gains most by joining: ties go to the smallest community id, and
    /// only a strict improvement beats staying. Neighbors' communities are
    /// read by local id and summed in `w_to`; candidates are scored in the
    /// order the edge list first names them.
    #[inline]
    fn best(&self, lid: u32, my_comm: u64, k_u: u64, w_to: &mut NeighborWeights) -> u64 {
        w_to.clear();
        self.cur.edges(lid).for_each(|(dst, w)| {
            if dst != lid {
                // self-loops stay internal anywhere
                w_to.add(self.comm.read_local(self.cur, dst), w);
            }
        });
        self.pick(my_comm, k_u, w_to.get(my_comm), w_to.iter())
    }

    /// The decision rule over `(community, weight from u)` candidates.
    #[inline]
    fn pick(
        &self,
        my_comm: u64,
        k_u: u64,
        stay_w: u64,
        candidates: impl Iterator<Item = (u64, u64)>,
    ) -> u64 {
        let ku = k_u as f64;
        let penalty = |tot: f64| self.resolution * tot * ku / self.m_total;
        // Score of staying (community totals exclude u itself).
        let stay_tot = (self.comm_tot.read(my_comm as NodeId) - k_u as i64) as f64;
        let mut best_score = stay_w as f64 - penalty(stay_tot);
        let mut best_comm = my_comm;
        for (c, w_uc) in candidates {
            if c == my_comm {
                continue;
            }
            let score = w_uc as f64 - penalty(self.comm_tot.read(c as NodeId) as f64);
            let eps = 1e-12;
            if score > best_score + eps || (score > best_score - eps && c < best_comm) {
                best_score = score;
                best_comm = c;
            }
        }
        best_comm
    }

    /// [`Gain::best`] as it was before the accumulator: a `HashMap` probe
    /// and a global-id read per edge, candidates in the map's order.
    #[cfg(test)]
    fn best_reference(&self, lid: u32, my_comm: u64, k_u: u64) -> u64 {
        let cur = self.cur;
        let mut w_to: HashMap<u64, u64> = HashMap::new();
        let gu = cur.local_to_global(lid);
        cur.edges(lid).for_each(|(dst, w)| {
            let gv = cur.local_to_global(dst);
            if gv != gu {
                *w_to.entry(self.comm.read(gv)).or_default() += w;
            }
        });
        let stay_w = *w_to.get(&my_comm).unwrap_or(&0);
        self.pick(my_comm, k_u, stay_w, w_to.iter().map(|(&c, &w)| (c, w)))
    }
}

/// Runs deterministic Louvain; returns this host's [`CommunityResult`].
/// Collective.
pub fn louvain<B: MapBuilder>(
    dg: &DistGraph,
    ctx: &HostCtx,
    b: &B,
    cfg: &LouvainConfig,
) -> CommunityResult {
    let mut result = CommunityResult::default();
    let mut owned: Option<DistGraph> = None;
    // Total directed edge weight M is invariant under coarsening.
    let local_w: u64 = dg
        .master_nodes()
        .chain(dg.mirror_nodes())
        .map(|l| dg.weighted_degree(l))
        .sum();
    let m_total = ctx.all_reduce_u64(local_w, |a, b| a + b) as f64;

    for _level in 0..cfg.max_levels {
        let outcome = {
            let cur = owned.as_ref().unwrap_or(dg);
            refine_and_aggregate(cur, ctx, b, cfg, m_total, None)
        };
        result.modularity = outcome.modularity;
        result.levels += 1;
        result.final_nodes = outcome.n_coarse;
        result.mappings.push(outcome.mapping);
        let prev_n = owned
            .as_ref()
            .map(|d| d.num_global_nodes())
            .unwrap_or(dg.num_global_nodes());
        let shrunk = outcome.n_coarse < prev_n;
        let next = assemble_dist_graph(
            ctx,
            outcome.n_coarse,
            Policy::EdgeCutBlocked,
            outcome.coarse_edges,
        );
        owned = Some(next);
        if !outcome.improved || !shrunk || outcome.n_coarse <= 1 {
            break;
        }
    }
    result
}

/// The local-moving phase: greedy modularity-gain moves until quiescent
/// (or the round cap). `init_comm` seeds the partition (`None` =
/// singletons) — Leiden seeds levels with the projected partition.
pub(crate) fn local_moving<'g, B: MapBuilder>(
    cur: &'g DistGraph,
    ctx: &HostCtx,
    b: &'g B,
    cfg: &LouvainConfig,
    m_total: f64,
    init_comm: Option<&[u64]>,
) -> MovingOutcome<'g, B> {
    let n = cur.num_global_nodes();
    let masters = cur.num_masters();

    // k[u]: weighted degree of each master. The edge-cut stores all of a
    // node's edges at its master, so a local sum suffices.
    let k: Vec<u64> = (0..masters as u32)
        .map(|m| cur.weighted_degree(m))
        .collect();

    // Current community of each master, host-local; mirrored through the
    // `comm` map for neighbor reads.
    let mut cur_comm: Vec<u64> = match init_comm {
        Some(seed) => seed.to_vec(),
        None => (0..masters).map(|m| cur.local_to_global(m as u32) as u64).collect(),
    };

    let mut comm = b.build::<u64, Min>(cur, ctx, Min);
    for (m, &c) in cur_comm.iter().enumerate() {
        comm.set(cur.local_to_global(m as u32), c);
    }
    comm.pin_mirrors(ctx);

    let mut comm_tot = b.build::<i64, Sum>(cur, ctx, Sum);
    let moves = SumReducer::new();
    let mut scratch = DecisionScratch::per_thread(ctx.threads());

    for round in 0..cfg.max_rounds {
        // Publish the BSP round so fault plans can target it.
        ctx.set_round(ctx.current_round() + 1);
        // (1) Rebuild community totals from scratch (Sum reductions keyed
        // by community representative — trans-vertex writes).
        comm_tot.reset_values(ctx);
        {
            let ct = &comm_tot;
            let cc = &cur_comm;
            let kk = &k;
            ctx.par_for(0..masters, |tid, range| {
                for m in range {
                    if kk[m] > 0 {
                        ct.reduce(tid, cc[m] as NodeId, kk[m] as i64);
                    }
                }
            });
        }
        comm_tot.reduce_sync(ctx);

        // (2) Request the totals this host's gain computations will read.
        // Every neighbor is a local proxy, so one pass over the proxies
        // covers all communities any edge can reference — O(V_local)
        // requests instead of O(E) (the request bitset de-duplicates
        // anyway; this skips the redundant per-edge reads).
        {
            let (ct, cm) = (&comm_tot, &comm);
            let cc = &cur_comm;
            ctx.par_for(0..cur.num_local_nodes(), |_tid, range| {
                for l in range {
                    let c = if l < masters {
                        cc[l]
                    } else {
                        cm.read_local(cur, l as u32)
                    };
                    ct.request(c as NodeId);
                }
            });
        }
        comm_tot.request_sync(ctx);

        // (3) Decide moves: best modularity gain, ties to the smallest
        // community id; strict improvement required. Masters decide, each
        // over its node's whole edge list.
        moves.set(0);
        {
            let gain = Gain {
                cur,
                comm: &comm,
                comm_tot: &comm_tot,
                resolution: cfg.resolution,
                m_total,
            };
            let cc = &cur_comm;
            let kk = &k;
            let scratch = &scratch;
            let moves = &moves;
            ctx.par_for(0..masters, |tid, range| {
                let DecisionScratch { w_to, decided } = &mut *scratch[tid].lock();
                for m in range {
                    let lid = m as u32;
                    if cur.degree(lid) == 0 || kk[m] == 0 {
                        continue;
                    }
                    // Only a deterministic pseudo-random half of the nodes
                    // may move each round. Fully synchronous moves act on
                    // stale community totals: if every node of a grid joins
                    // its min-id neighbor at once, communities overshoot
                    // into giant blobs and modularity collapses. Gating
                    // moves damps the overshoot while staying deterministic
                    // and partition-independent (Vite gets the same effect
                    // from intra-host serialization of its atomic updates).
                    if move_gate(cur.local_to_global(lid) as u64, round) {
                        continue;
                    }
                    #[cfg(test)]
                    let best = if cfg.reference_kernel {
                        gain.best_reference(lid, cc[m], kk[m])
                    } else {
                        gain.best(lid, cc[m], kk[m], w_to)
                    };
                    #[cfg(not(test))]
                    let best = gain.best(lid, cc[m], kk[m], w_to);
                    if best != cc[m] {
                        decided.push((m, best));
                        moves.reduce(1);
                    }
                }
            });
        }

        // Apply decisions and publish them to mirrors.
        comm.reset_updated();
        for s in &mut scratch {
            for (m, c) in s.get_mut().decided.drain(..) {
                cur_comm[m] = c;
                comm.set(cur.local_to_global(m as u32), c);
            }
        }
        comm.broadcast_sync(ctx);

        let total_moves = moves.read(ctx);
        if (total_moves as f64) < cfg.min_move_fraction * n as f64 {
            break;
        }
    }

    MovingOutcome { cur_comm, comm, k }
}

/// Modularity `Q = Σ_C [ in_C/M − (tot_C/M)² ]` of the partition described
/// by `cur_comm` / `comm`. Collective.
pub(crate) fn modularity_of<B: MapBuilder>(
    cur: &DistGraph,
    ctx: &HostCtx,
    b: &B,
    cur_comm: &[u64],
    comm: &impl NodePropMap<u64>,
    k: &[u64],
    m_total: f64,
) -> f64 {
    let masters = cur.num_masters();

    // Community totals.
    let mut comm_tot = b.build::<i64, Sum>(cur, ctx, Sum);
    {
        let ct = &comm_tot;
        let cc = &cur_comm;
        ctx.par_for(0..masters, |tid, range| {
            for m in range {
                if k[m] > 0 {
                    ct.reduce(tid, cc[m] as NodeId, k[m] as i64);
                }
            }
        });
    }
    comm_tot.reduce_sync(ctx);

    // Internal weight per community (for modularity). Under the edge-cut
    // every local edge is stored at its source's master, so summing over
    // masters covers all edges.
    let mut internal = b.build::<u64, Sum>(cur, ctx, Sum);
    {
        let (cm, int) = (&comm, &internal);
        let cc = &cur_comm;
        ctx.par_for(0..masters, |tid, range| {
            for m in range {
                let lid = m as u32;
                let cu = cc[m];
                // One reduction per node, not per edge: `Sum` is
                // associative, and a node with no internal edge must
                // leave no partial behind (as when each edge reduced).
                let (mut w_in, mut any) = (0u64, false);
                cur.edges(lid).for_each(|(dst, w)| {
                    if dst == lid || cm.read_local(cur, dst) == cu {
                        w_in += w;
                        any = true;
                    }
                });
                if any {
                    int.reduce(tid, cu as NodeId, w_in);
                }
            }
        });
    }
    internal.reduce_sync(ctx);

    // Q = Σ_C [ in_C/M − (tot_C/M)² ], summed over community reps we own.
    let local_q: f64 = cur
        .master_nodes()
        .map(|mm| {
            let g = cur.local_to_global(mm);
            let tot = comm_tot.read(g);
            if tot == 0 {
                return 0.0;
            }
            let in_c = internal.read(g) as f64;
            in_c / m_total - (tot as f64 / m_total) * (tot as f64 / m_total)
        })
        .sum();
    ctx.all_reduce(local_q, |a, b| a + b)
}

/// One Louvain level on `cur`: local-moving refinement, then aggregation.
pub(crate) fn refine_and_aggregate<B: MapBuilder>(
    cur: &DistGraph,
    ctx: &HostCtx,
    b: &B,
    cfg: &LouvainConfig,
    m_total: f64,
    init_comm: Option<&[u64]>,
) -> LevelOutcome {
    let moving = local_moving(cur, ctx, b, cfg, m_total, init_comm);
    let modularity = modularity_of(cur, ctx, b, &moving.cur_comm, &moving.comm, &moving.k, m_total);
    let (mapping, coarse_edges, n_coarse, improved) =
        aggregate(cur, ctx, b, &moving.cur_comm, &moving.comm);

    LevelOutcome {
        mapping,
        coarse_edges,
        n_coarse,
        modularity,
        improved,
    }
}

/// Outcome of [`aggregate`]: `(mapping, coarse edges, coarse node count,
/// improved)`.
pub(crate) type AggregateOutcome = (
    Vec<(NodeId, NodeId)>,
    Vec<(NodeId, NodeId, Weight)>,
    usize,
    bool,
);

/// Collapses communities into coarse nodes: assigns dense coarse ids to
/// used communities, maps every master to its coarse id, and aggregates
/// local edges by coarse endpoint pair.
pub(crate) fn aggregate<B: MapBuilder>(
    cur: &DistGraph,
    ctx: &HostCtx,
    b: &B,
    cur_comm: &[u64],
    comm: &impl NodePropMap<u64>,
) -> AggregateOutcome {
    let masters = cur.num_masters();

    // Mark used community representatives.
    let mut used = b.build::<u64, Max>(cur, ctx, Max);
    {
        let u = &used;
        let cc = cur_comm;
        ctx.par_for(0..masters, |tid, range| {
            for m in range {
                u.reduce(tid, cc[m] as NodeId, 1);
            }
        });
    }
    used.reduce_sync(ctx);

    // Dense coarse ids: rank among used reps, offset by host prefix.
    let my_used: Vec<NodeId> = cur
        .master_nodes()
        .map(|m| cur.local_to_global(m))
        .filter(|&g| used.read(g) == 1)
        .collect();
    let counts = ctx.all_gather(my_used.len() as u64);
    let offset: u64 = counts[..ctx.host()].iter().sum();
    let n_coarse: u64 = counts.iter().sum();

    let mut newid = b.build::<u64, Min>(cur, ctx, Min);
    for (rank, &g) in my_used.iter().enumerate() {
        newid.set(g, offset + rank as u64);
    }

    // Every master needs the coarse id of its own community and of each
    // neighbor's community (under the edge-cut only masters carry edges).
    {
        let (ni, cm) = (&newid, comm);
        let cc = cur_comm;
        ctx.par_for(0..masters, |_tid, range| {
            for m in range {
                let lid = m as u32;
                ni.request(cc[m] as NodeId);
                cur.targets(lid)
                    .for_each(|dst| ni.request(cm.read_local(cur, dst) as NodeId));
            }
        });
    }
    newid.request_sync(ctx);

    // Emit mapping + aggregated coarse edges.
    let mapping: Vec<(NodeId, NodeId)> = (0..masters)
        .map(|m| {
            (
                cur.local_to_global(m as u32),
                newid.read(cur_comm[m] as NodeId) as NodeId,
            )
        })
        .collect();

    // Each thread sums its own coarse pairs, keyed `cu << 32 | cv` so one
    // word hashes and the key order is the `(cu, cv)` order.
    let per_thread: Vec<Mutex<NeighborWeights>> =
        (0..ctx.threads()).map(|_| Mutex::default()).collect();
    {
        let (ni, cm) = (&newid, comm);
        let cc = cur_comm;
        let per_thread = &per_thread;
        ctx.par_for(0..masters, |tid, range| {
            let mut local = per_thread[tid].lock();
            for m in range {
                let lid = m as u32;
                let cu_comm = cc[m];
                let cu = ni.read(cu_comm as NodeId);
                cur.edges(lid).for_each(|(dst, w)| {
                    let cv_comm = if dst == lid {
                        cu_comm
                    } else {
                        cm.read_local(cur, dst)
                    };
                    local.add(cu << 32 | ni.read(cv_comm as NodeId), w);
                });
            }
        });
    }
    // The edges go over the wire, so their order must not depend on which
    // thread met which pair: concatenate, sort, and sum the pairs two
    // threads both saw.
    let mut pairs: Vec<(u64, Weight)> = Vec::new();
    for local in per_thread {
        pairs.extend(local.into_inner().iter());
    }
    pairs.sort_unstable_by_key(|&(pair, _)| pair);
    pairs.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    let coarse_edges: Vec<(NodeId, NodeId, Weight)> = pairs
        .into_iter()
        .map(|(pair, w)| ((pair >> 32) as NodeId, pair as NodeId, w))
        .collect();

    // Improvement check: did anyone leave its singleton?
    let moved_local = mapping_changes_anything(cur, cur_comm);
    let improved = ctx.all_reduce_or(moved_local);

    (mapping, coarse_edges, n_coarse as usize, improved)
}

/// Deterministic per-round move gate: nodes whose hash parity mismatches
/// the round must wait (damps synchronous-move overshoot).
fn move_gate(g: u64, round: usize) -> bool {
    let mut h = g ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h & 1 == 1
}

/// `true` if any master's community differs from itself (i.e. refinement
/// produced a non-singleton partition).
fn mapping_changes_anything(cur: &DistGraph, cur_comm: &[u64]) -> bool {
    cur_comm
        .iter()
        .enumerate()
        .any(|(m, &c)| c != cur.local_to_global(m as u32) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NpmBuilder;
    use crate::refcheck;
    use kimbap_comm::Cluster;
    use kimbap_dist::{partition, partition_cfg, PartitionCfg};
    use kimbap_graph::{builder::from_edges, gen, Graph};

    fn run_louvain(g: &Graph, hosts: usize, threads: usize) -> (Vec<NodeId>, f64) {
        let parts = partition(g, Policy::EdgeCutBlocked, hosts);
        let b = NpmBuilder;
        let cfg = LouvainConfig::default();
        let results = Cluster::with_threads(hosts, threads)
            .run(|ctx| louvain(&parts[ctx.host()], ctx, &b, &cfg));
        let q = results[0].modularity;
        let labels = compose_labels(g.num_nodes(), &results);
        (labels, q)
    }

    /// Two 5-cliques joined by one edge: Louvain must find the cliques.
    fn two_cliques() -> Graph {
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in (a + 1)..5 {
                edges.push((a, b, 1));
                edges.push((a + 5, b + 5, 1));
            }
        }
        edges.push((0, 5, 1));
        from_edges(edges)
    }

    #[test]
    fn finds_cliques() {
        let g = two_cliques();
        let (labels, q) = run_louvain(&g, 2, 2);
        // All of clique 1 in one community, clique 2 in another.
        assert!(labels[0..5].iter().all(|&l| l == labels[0]));
        assert!(labels[5..10].iter().all(|&l| l == labels[5]));
        assert_ne!(labels[0], labels[5]);
        // Reported modularity matches a reference computation.
        let q_ref = refcheck::modularity(&g, &labels);
        assert!((q - q_ref).abs() < 1e-9, "q={q} ref={q_ref}");
        assert!(q > 0.3);
    }

    #[test]
    fn ring_of_cliques() {
        // 4 cliques of 6 nodes in a ring — the classic Louvain testbed.
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
        let (labels, q) = run_louvain(&g, 3, 2);
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
    fn deterministic_across_hosts() {
        // Nothing in the partition steers a move, so Louvain and Leiden
        // find the same communities on any host count and storage tier.
        // Labels are coarse ids whose numbering depends on host count, but
        // the partition structure and modularity must agree.
        let canon = |ls: &[NodeId]| {
            let mut seen = HashMap::new();
            ls.iter()
                .map(|&l| {
                    let next = seen.len() as u32;
                    *seen.entry(l).or_insert(next)
                })
                .collect::<Vec<_>>()
        };
        type Algo = fn(&DistGraph, &HostCtx, &NpmBuilder, &LouvainConfig) -> CommunityResult;
        let algos: [(&str, Algo); 2] = [("louvain", louvain), ("leiden", crate::leiden)];
        let unit = gen::with_unit_weights(&gen::rmat(7, 4, 13));
        let weighted = gen::with_random_weights(&unit, 9, 13);
        let (b, cfg) = (NpmBuilder, LouvainConfig::default());
        for (name, algo) in algos {
            for g in [&unit, &weighted] {
                let mut first: Option<(Vec<NodeId>, f64)> = None;
                for hosts in 1..=4 {
                    for compressed in [false, true] {
                        let pcfg = PartitionCfg {
                            compressed,
                            ..PartitionCfg::new(Policy::EdgeCutBlocked, hosts)
                        };
                        let parts = partition_cfg(g, &pcfg);
                        let results = Cluster::with_threads(hosts, 2)
                            .run(|ctx| algo(&parts[ctx.host()], ctx, &b, &cfg));
                        let labels = canon(&compose_labels(g.num_nodes(), &results));
                        let q = results[0].modularity;
                        let (l1, q1) = first.get_or_insert_with(|| (labels.clone(), q));
                        let what = format!("{name} on {hosts} hosts, compressed={compressed}");
                        assert!((*q1 - q).abs() < 1e-9, "{what}: q={q} vs {q1}");
                        assert_eq!(l1, &labels, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn improves_modularity_on_power_law() {
        let g = gen::rmat(8, 8, 21);
        let (labels, q) = run_louvain(&g, 2, 2);
        let q_ref = refcheck::modularity(&g, &labels);
        assert!((q - q_ref).abs() < 1e-9);
        // Better than the trivial all-singleton partition (Q < 0) and the
        // one-community partition (Q = 0 at best).
        assert!(q > 0.0, "q = {q}");
    }

    #[test]
    fn grid_communities_are_local() {
        let g = gen::grid_road(8, 8, 5);
        let (labels, q) = run_louvain(&g, 2, 2);
        assert!(q > 0.5, "grids have strong locality, q = {q}");
        refcheck::check_communities(&g, &labels).unwrap_or_else(|e| panic!("{e}"));
    }
}
