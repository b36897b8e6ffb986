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
//! 1. bring the community-total map up to date: a level's first round
//!    reduces every node's weighted degree into its community
//!    representative (`Sum`, trans-vertex writes); every later round
//!    reduce-syncs only the last round's moves, `−k` into the community a
//!    node left and `+k` into the one it joined — exact `i64` sums, so the
//!    totals equal a rebuild's, and the level's modularity (and Leiden's
//!    well-connectedness gate) reads the same map after one more sync;
//! 2. request the totals of the active node's own and neighboring
//!    communities (request-compute / request-sync);
//! 3. compute modularity gains, pick the best move (ties to the smallest
//!    community id), write decisions, and broadcast them to mirrors.
//!
//! Louvain runs on an outgoing edge-cut partition (as in the paper, which
//! uses the same edge-cut for Kimbap and Vite), so a master holds all of
//! its node's edges and can decide moves locally.

use crate::accum::{number_overflow, DecisionScratch, SlotWeights, NO_PROXY};
use crate::builder::MapBuilder;
use kimbap_comm::HostCtx;
use kimbap_dist::{assemble_dist_graph, DistGraph, Policy};
use kimbap_graph::{NodeId, Weight};
use kimbap_npm::{Max, Min, NodePropMap, Sum, SumReducer};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Maximum coarsening levels of Louvain and Leiden.
pub(crate) const MAX_LEVELS: usize = 12;

/// A level's local moving stops once a round moves fewer than this
/// fraction of its nodes.
const MIN_MOVE_FRACTION: f64 = 0.005;

/// What the differential tests vary; [`Knobs::PRODUCT`] is what
/// [`louvain`] and [`fn@crate::leiden`] run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Knobs {
    /// Resolution parameter γ of the modularity objective.
    pub(crate) resolution: f64,
    /// Maximum local-moving rounds per level.
    pub(crate) max_rounds: usize,
    /// Run the reference kernels the differential tests compare the
    /// product ones against: moves and merges decided through a `HashMap`
    /// and global-id reads; community totals rebuilt from zero every round
    /// and once more after the last, for the modularity and Leiden's gate;
    /// coarse edges read by global id per edge and summed in a `BTreeMap`.
    #[cfg(test)]
    pub(crate) reference_kernel: bool,
}

impl Knobs {
    /// The product path's knobs: γ = 1, at most 48 rounds a level.
    pub(crate) const PRODUCT: Knobs = Knobs {
        resolution: 1.0,
        max_rounds: 48,
        #[cfg(test)]
        reference_kernel: false,
    };
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
    /// For each level: the coarse edges this host produced, in wire order.
    #[cfg(test)]
    pub(crate) coarse_edges: Vec<Vec<(NodeId, NodeId, Weight)>>,
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
    /// Every community's total weighted degree, reduce-synced after the
    /// last round: what the level's modularity and Leiden's gate read.
    pub(crate) comm_tot: B::Map<'g, i64, Sum>,
}

/// One local proxy as a round's move decisions read it: its community,
/// that community's total (requested this round) and the community's slot
/// in the decision accumulator. Communities are node ids, so 16 bytes an
/// entry.
#[derive(Debug, Clone, Copy, Default)]
struct Proxy {
    comm: NodeId,
    slot: u32,
    tot: i64,
}

/// The accumulator slot of the community (or subcommunity) named by node
/// `c`: the local id of `c`'s proxy on this host, or [`NO_PROXY`] until
/// the round numbers its overflow slots. Every proxy of a round that names
/// `c` gets the same slot. A proxy slot depends only on `c` and the level's
/// partition, so a table entry that named `c` last round with `slot` keeps
/// it; an overflow slot is renumbered every round.
#[inline]
pub(crate) fn proxy_slot(cur: &DistGraph, c: u64, was: u64, slot: u32) -> u32 {
    if c == was && (slot as usize) < cur.num_local_nodes() {
        return slot;
    }
    cur.global_to_local(c as NodeId).unwrap_or(NO_PROXY)
}

/// Runs `f(i, &mut items[i])` for every item, one contiguous chunk per
/// pool thread.
pub(crate) fn par_each_mut<T: Send>(
    ctx: &HostCtx,
    items: &mut [T],
    f: impl Fn(usize, &mut T) + Sync,
) {
    let chunk = items.len().div_ceil(ctx.threads()).max(1);
    let parts: Vec<Mutex<&mut [T]>> = items.chunks_mut(chunk).map(Mutex::new).collect();
    ctx.pool().run(|tid| {
        if let Some(part) = parts.get(tid) {
            for (i, item) in part.lock().iter_mut().enumerate() {
                f(tid * chunk + i, item);
            }
        }
    });
}

/// What a move decision reads: the level's graph and the round's proxy
/// table.
struct Gain<'a> {
    cur: &'a DistGraph,
    proxies: &'a [Proxy],
    resolution: f64,
    m_total: f64,
}

impl Gain<'_> {
    /// The community master `lid` (weighted degree `k_u`) gains most by
    /// joining: ties go to the smallest community id, and only a strict
    /// improvement beats staying. Each neighbor's community, its total and
    /// its slot come from the proxy table, summed by slot in `w_to`;
    /// candidates are scored in the order the edge list first names them.
    #[inline]
    fn best(&self, lid: u32, k_u: u64, w_to: &mut SlotWeights<i64>) -> u64 {
        w_to.clear();
        let proxies = self.proxies;
        self.cur.edges(lid).for_each(|(dst, w)| {
            if dst != lid {
                // self-loops stay internal anywhere
                let p = proxies[dst as usize];
                w_to.add(p.slot, p.comm as u64, w, p.tot);
            }
        });
        let me = proxies[lid as usize];
        self.pick(me.comm as u64, k_u, w_to.get(me.slot), me.tot, w_to.iter())
    }

    /// The decision rule over `(community, weight from u, community
    /// total)` candidates; `stay_tot` is `my_comm`'s total, u included.
    #[inline]
    fn pick(
        &self,
        my_comm: u64,
        k_u: u64,
        stay_w: u64,
        stay_tot: i64,
        candidates: impl Iterator<Item = (u64, u64, i64)>,
    ) -> u64 {
        let ku = k_u as f64;
        let penalty = |tot: f64| self.resolution * tot * ku / self.m_total;
        // Score of staying (community totals exclude u itself).
        let stay_tot = (stay_tot - k_u as i64) as f64;
        let mut best_score = stay_w as f64 - penalty(stay_tot);
        let mut best_comm = my_comm;
        for (c, w_uc, tot) in candidates {
            if c == my_comm {
                continue;
            }
            let score = w_uc as f64 - penalty(tot as f64);
            let eps = 1e-12;
            if score > best_score + eps || (score > best_score - eps && c < best_comm) {
                best_score = score;
                best_comm = c;
            }
        }
        best_comm
    }

    /// [`Gain::best`] as it was before the accumulator: a `HashMap` probe
    /// and a global-id read per edge, a global-id total read per
    /// candidate, candidates in the map's order.
    #[cfg(test)]
    fn best_reference(
        &self,
        comm: &impl NodePropMap<u64>,
        comm_tot: &impl NodePropMap<i64>,
        lid: u32,
        my_comm: u64,
        k_u: u64,
    ) -> u64 {
        let cur = self.cur;
        let mut w_to: HashMap<u64, u64> = HashMap::new();
        let gu = cur.local_to_global(lid);
        cur.edges(lid).for_each(|(dst, w)| {
            let gv = cur.local_to_global(dst);
            if gv != gu {
                *w_to.entry(comm.read(gv)).or_default() += w;
            }
        });
        let stay_w = *w_to.get(&my_comm).unwrap_or(&0);
        let candidates = w_to
            .iter()
            .map(|(&c, &w)| (c, w, comm_tot.read(c as NodeId)));
        self.pick(
            my_comm,
            k_u,
            stay_w,
            comm_tot.read(my_comm as NodeId),
            candidates,
        )
    }
}

/// Runs deterministic Louvain; returns this host's [`CommunityResult`].
/// Collective.
pub fn louvain<B: MapBuilder>(dg: &DistGraph, ctx: &HostCtx, b: &B) -> CommunityResult {
    louvain_with(dg, ctx, b, &Knobs::PRODUCT)
}

/// [`louvain`] under `cfg`.
pub(crate) fn louvain_with<B: MapBuilder>(
    dg: &DistGraph,
    ctx: &HostCtx,
    b: &B,
    cfg: &Knobs,
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

    for _level in 0..MAX_LEVELS {
        let outcome = {
            let cur = owned.as_ref().unwrap_or(dg);
            refine_and_aggregate(cur, ctx, b, cfg, m_total, None)
        };
        result.modularity = outcome.modularity;
        result.levels += 1;
        result.final_nodes = outcome.n_coarse;
        result.mappings.push(outcome.mapping);
        #[cfg(test)]
        result.coarse_edges.push(outcome.coarse_edges.clone());
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
    cfg: &Knobs,
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

    // The first round's totals; later rounds add the moves' deltas.
    let mut comm_tot = b.build::<i64, Sum>(cur, ctx, Sum);
    add_totals(&comm_tot, ctx, &cur_comm, &k);
    let moves = SumReducer::new();
    let mut scratch = DecisionScratch::<SlotWeights<i64>>::per_thread(ctx.threads());
    let num_local = cur.num_local_nodes();
    let mut proxies = vec![
        Proxy {
            slot: NO_PROXY,
            ..Proxy::default()
        };
        num_local
    ];

    for round in 0..cfg.max_rounds {
        // Publish the BSP round so fault plans can target it.
        ctx.set_round(ctx.current_round() + 1);
        // (1) Bring the totals up to date: the build above in round 0,
        // the last round's moves after that.
        #[cfg(test)]
        if cfg.reference_kernel {
            rebuild_totals(&mut comm_tot, ctx, &cur_comm, &k);
        }
        comm_tot.reduce_sync(ctx);

        // (2) Request the totals this host's gain computations will read.
        // Every neighbor is a local proxy, so one pass over the proxies
        // covers all communities any edge can reference — O(V_local)
        // requests instead of O(E) (the request bitset de-duplicates
        // anyway; this skips the redundant per-edge reads). The same pass
        // fills the round's proxy table: community and slot now, the
        // total once it has arrived, so the decisions read one entry per
        // edge and no map at all.
        {
            let (ct, cm) = (&comm_tot, &comm);
            let cc = &cur_comm;
            par_each_mut(ctx, &mut proxies, |l, p| {
                let c = if l < masters {
                    cc[l]
                } else {
                    cm.read_local(cur, l as u32)
                };
                ct.request(c as NodeId);
                p.slot = proxy_slot(cur, c, p.comm as u64, p.slot);
                p.comm = c as NodeId;
            });
        }
        let slots =
            number_overflow(num_local, proxies.iter_mut().map(|p| (p.comm as u64, &mut p.slot)));
        comm_tot.request_sync(ctx);
        {
            let ct = &comm_tot;
            par_each_mut(ctx, &mut proxies, |_, p| {
                p.tot = if (p.slot as usize) < num_local {
                    ct.read_local(cur, p.slot)
                } else {
                    ct.read(p.comm)
                };
            });
        }

        // (3) Decide moves: best modularity gain, ties to the smallest
        // community id; strict improvement required. Masters decide, each
        // over its node's whole edge list, and a move reduces its delta
        // into the totals: BSP, so no read sees it before the next sync.
        moves.set(0);
        for s in &mut scratch {
            s.get_mut().w_to.reset(slots);
        }
        {
            let gain = Gain {
                cur,
                proxies: &proxies,
                resolution: cfg.resolution,
                m_total,
            };
            #[cfg(test)]
            let cm = &comm;
            let ct = &comm_tot;
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
                        gain.best_reference(cm, ct, lid, cc[m], kk[m])
                    } else {
                        gain.best(lid, kk[m], w_to)
                    };
                    #[cfg(not(test))]
                    let best = gain.best(lid, kk[m], w_to);
                    if best != cc[m] {
                        decided.push((m, best));
                        moves.reduce(1);
                        ct.reduce(tid, cc[m] as NodeId, -(kk[m] as i64));
                        ct.reduce(tid, best as NodeId, kk[m] as i64);
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
        if (total_moves as f64) < MIN_MOVE_FRACTION * n as f64 {
            break;
        }
    }
    // The last round's moves.
    #[cfg(test)]
    if cfg.reference_kernel {
        rebuild_totals(&mut comm_tot, ctx, &cur_comm, &k);
    }
    comm_tot.reduce_sync(ctx);

    MovingOutcome {
        cur_comm,
        comm,
        k,
        comm_tot,
    }
}

/// Reduces every master's weighted degree into its community's total.
fn add_totals(comm_tot: &impl NodePropMap<i64>, ctx: &HostCtx, cur_comm: &[u64], k: &[u64]) {
    ctx.par_for(0..cur_comm.len(), |tid, range| {
        for m in range {
            if k[m] > 0 {
                comm_tot.reduce(tid, cur_comm[m] as NodeId, k[m] as i64);
            }
        }
    });
}

/// The reference kernels' totals: reset to zero and rebuilt from
/// `cur_comm` (pending move deltas are dropped); visible after the next
/// reduce-sync.
#[cfg(test)]
fn rebuild_totals(
    comm_tot: &mut impl NodePropMap<i64>,
    ctx: &HostCtx,
    cur_comm: &[u64],
    k: &[u64],
) {
    comm_tot.reset_values(ctx);
    add_totals(comm_tot, ctx, cur_comm, k);
}

/// Modularity `Q = Σ_C [ in_C/M − (tot_C/M)² ]` of the partition described
/// by `cur_comm` / `comm`, whose community totals `comm_tot` holds.
/// Collective.
pub(crate) fn modularity_of<B: MapBuilder>(
    cur: &DistGraph,
    ctx: &HostCtx,
    b: &B,
    cur_comm: &[u64],
    comm: &impl NodePropMap<u64>,
    comm_tot: &impl NodePropMap<i64>,
    m_total: f64,
) -> f64 {
    let masters = cur.num_masters();

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
    cfg: &Knobs,
    m_total: f64,
    init_comm: Option<&[u64]>,
) -> LevelOutcome {
    let MovingOutcome {
        cur_comm,
        comm,
        comm_tot,
        ..
    } = local_moving(cur, ctx, b, cfg, m_total, init_comm);
    let modularity = modularity_of(cur, ctx, b, &cur_comm, &comm, &comm_tot, m_total);
    // Aggregation's maps need not share the peak with the totals.
    drop(comm_tot);
    #[cfg(test)]
    let (mapping, coarse_edges, n_coarse, improved) = if cfg.reference_kernel {
        aggregate_reference(cur, ctx, b, &cur_comm, &comm)
    } else {
        aggregate(cur, ctx, b, &cur_comm, &comm)
    };
    #[cfg(not(test))]
    let (mapping, coarse_edges, n_coarse, improved) = aggregate(cur, ctx, b, &cur_comm, &comm);

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

/// One local proxy as aggregation reads it: its community, the
/// community's slot (as in the move decisions) and the community's coarse
/// id.
#[derive(Debug, Clone, Copy, Default)]
struct CoarseProxy {
    comm: NodeId,
    slot: u32,
    coarse: NodeId,
}

/// Collapses communities into coarse nodes: assigns dense coarse ids to
/// used communities, maps every master to its coarse id, and aggregates
/// local edges by coarse endpoint pair.
///
/// Every edge's endpoints are local proxies, so one pass over the proxies
/// requests and reads every coarse id an edge can name, and the edge pass
/// reads one table entry per edge. The masters are grouped by their
/// community's slot, so one group holds all of a coarse node's edges on
/// this host: a pool thread takes whole groups and sums each one's pairs in
/// a [`SlotWeights`] over the proxy slots, with no pair met twice.
pub(crate) fn aggregate<B: MapBuilder>(
    cur: &DistGraph,
    ctx: &HostCtx,
    b: &B,
    cur_comm: &[u64],
    comm: &impl NodePropMap<u64>,
) -> AggregateOutcome {
    let masters = cur.num_masters();
    let num_local = cur.num_local_nodes();
    let (mut newid, n_coarse) = coarse_ids(cur, ctx, b, cur_comm);

    // Every proxy's community and slot; request its coarse id.
    let mut proxies = vec![CoarseProxy::default(); num_local];
    {
        let ni = &newid;
        par_each_mut(ctx, &mut proxies, |l, p| {
            let c = if l < masters {
                cur_comm[l]
            } else {
                comm.read_local(cur, l as u32)
            };
            ni.request(c as NodeId);
            p.comm = c as NodeId;
            p.slot = cur.global_to_local(p.comm).unwrap_or(NO_PROXY);
        });
    }
    let slots = number_overflow(
        num_local,
        proxies.iter_mut().map(|p| (p.comm as u64, &mut p.slot)),
    );
    newid.request_sync(ctx);
    {
        let ni = &newid;
        par_each_mut(ctx, &mut proxies, |_, p| {
            p.coarse = if (p.slot as usize) < num_local {
                ni.read_local(cur, p.slot)
            } else {
                ni.read(p.comm)
            } as NodeId;
        });
    }
    let mapping: Vec<(NodeId, NodeId)> = proxies[..masters]
        .iter()
        .enumerate()
        .map(|(m, p)| (cur.local_to_global(m as u32), p.coarse))
        .collect();

    // Masters grouped by their community's slot (a counting sort).
    let mut start = vec![0usize; slots + 1];
    for p in &proxies[..masters] {
        start[p.slot as usize + 1] += 1;
    }
    for s in 0..slots {
        start[s + 1] += start[s];
    }
    let groups: Vec<(usize, usize)> = start
        .windows(2)
        .filter(|w| w[0] < w[1])
        .map(|w| (w[0], w[1]))
        .collect();
    let mut members = vec![0u32; masters];
    for (m, p) in proxies[..masters].iter().enumerate() {
        let next = &mut start[p.slot as usize];
        members[*next] = m as u32;
        *next += 1;
    }

    // Each group's coarse pairs, summed by the neighbor community's slot.
    type Scratch = (SlotWeights<()>, Vec<(NodeId, NodeId, Weight)>);
    let per_thread: Vec<Mutex<Scratch>> = (0..ctx.threads())
        .map(|_| {
            let mut w_to = SlotWeights::new();
            w_to.reset(slots);
            Mutex::new((w_to, Vec::new()))
        })
        .collect();
    {
        let (proxies, members, groups) = (&proxies, &members, &groups);
        let per_thread = &per_thread;
        ctx.par_for(0..groups.len(), |tid, range| {
            let (w_to, out) = &mut *per_thread[tid].lock();
            for &(lo, hi) in &groups[range] {
                for &m in &members[lo..hi] {
                    cur.edges(m).for_each(|(dst, w)| {
                        let p = proxies[dst as usize];
                        w_to.add(p.slot, p.coarse as u64, w, ());
                    });
                }
                let cu = proxies[members[lo] as usize].coarse;
                out.extend(w_to.iter().map(|(cv, w, ())| (cu, cv as NodeId, w)));
                w_to.clear();
            }
        });
    }
    // The edges go over the wire, so their order must not depend on which
    // thread took which group.
    let mut coarse_edges: Vec<(NodeId, NodeId, Weight)> = Vec::new();
    for scratch in per_thread {
        coarse_edges.append(&mut scratch.into_inner().1);
    }
    coarse_edges.sort_unstable_by_key(|&(cu, cv, _)| (cu, cv));

    // Improvement check: did anyone leave its singleton?
    let moved_local = mapping_changes_anything(cur, cur_comm);
    let improved = ctx.all_reduce_or(moved_local);

    (mapping, coarse_edges, n_coarse, improved)
}

/// The coarse-id map of a level: every used community (one that some
/// master belongs to) numbered densely, by owner host and then by id, at
/// its representative's master. Returns it with the coarse node count.
fn coarse_ids<'g, B: MapBuilder>(
    cur: &'g DistGraph,
    ctx: &HostCtx,
    b: &'g B,
    cur_comm: &[u64],
) -> (B::Map<'g, u64, Min>, usize) {
    let masters = cur.num_masters();

    // Mark used community representatives.
    let mut used = b.build::<u64, Max>(cur, ctx, Max);
    {
        let u = &used;
        ctx.par_for(0..masters, |tid, range| {
            for m in range {
                u.reduce(tid, cur_comm[m] as NodeId, 1);
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
    (newid, n_coarse as usize)
}

/// [`aggregate`] as it was before the proxy table, as the reference: per
/// edge a request and a coarse-id read by global id, the pairs summed in a
/// `BTreeMap`.
#[cfg(test)]
pub(crate) fn aggregate_reference<B: MapBuilder>(
    cur: &DistGraph,
    ctx: &HostCtx,
    b: &B,
    cur_comm: &[u64],
    comm: &impl NodePropMap<u64>,
) -> AggregateOutcome {
    let (mut newid, n_coarse) = coarse_ids(cur, ctx, b, cur_comm);
    for (lid, &c) in (0..).zip(cur_comm) {
        newid.request(c as NodeId);
        cur.targets(lid)
            .for_each(|dst| newid.request(comm.read_local(cur, dst) as NodeId));
    }
    newid.request_sync(ctx);
    let mapping: Vec<(NodeId, NodeId)> = (0..)
        .zip(cur_comm)
        .map(|(lid, &c)| (cur.local_to_global(lid), newid.read(c as NodeId) as NodeId))
        .collect();
    let mut pairs: std::collections::BTreeMap<(NodeId, NodeId), Weight> = Default::default();
    for (lid, &cu_comm) in (0..).zip(cur_comm) {
        let cu = newid.read(cu_comm as NodeId) as NodeId;
        for (dst, w) in cur.edges(lid) {
            let cv_comm = if dst == lid {
                cu_comm
            } else {
                comm.read_local(cur, dst)
            };
            *pairs
                .entry((cu, newid.read(cv_comm as NodeId) as NodeId))
                .or_default() += w;
        }
    }
    let coarse_edges = pairs.into_iter().map(|((cu, cv), w)| (cu, cv, w)).collect();
    let improved = ctx.all_reduce_or(mapping_changes_anything(cur, cur_comm));
    (mapping, coarse_edges, n_coarse, improved)
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
        let results =
            Cluster::with_threads(hosts, threads).run(|ctx| louvain(&parts[ctx.host()], ctx, &b));
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
        type Algo = fn(&DistGraph, &HostCtx, &NpmBuilder) -> CommunityResult;
        let algos: [(&str, Algo); 2] = [("louvain", louvain), ("leiden", crate::leiden)];
        let unit = gen::with_unit_weights(&gen::rmat(7, 4, 13));
        let weighted = gen::with_random_weights(&unit, 9, 13);
        let b = NpmBuilder;
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
                            .run(|ctx| algo(&parts[ctx.host()], ctx, &b));
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
