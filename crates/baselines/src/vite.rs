//! Vite-style hand-optimized distributed Louvain (Ghosh et al., IPDPS'18)
//! — the baseline of Figs. 9a/10a/11.
//!
//! Vite is hand-written MPI+OpenMP code. The paper attributes its gap to
//! Kimbap to two implementation choices, both reproduced here:
//!
//! 1. **single-threaded inspection**: after communication, *one* thread
//!    walks the local graph to build the shared community map;
//! 2. **contended atomic reductions**: all threads then reduce community
//!    totals into that single shared map with atomic adds — on power-law
//!    graphs many threads hit the same hub communities (§6.4: "Vite is 3×
//!    slower than SGR-only primarily because it uses a single thread to
//!    construct a local, shared map").
//!
//! Vite also ships whole ghost-community updates every round (no
//! temporal-invariant filtering) and supports the probabilistic *early
//! termination* heuristic (§6.2): a node stable for 4 consecutive rounds
//! is skipped with 75% probability (deterministic hash here).

use crate::neighbor_weights::NeighborWeights;
use kimbap_algos::accum::{DecisionScratch, MulHashMap};
use kimbap_comm::wire::{encode_slice, iter_decoded};
use kimbap_comm::HostCtx;
use kimbap_dist::{assemble_dist_graph, DistGraph, Policy};
use kimbap_graph::NodeId;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Configuration for the Vite baseline.
#[derive(Debug, Clone, Copy)]
pub struct ViteConfig {
    /// Maximum coarsening levels.
    pub max_levels: usize,
    /// Maximum move rounds per level.
    pub max_rounds: usize,
    /// Stop refining once fewer than this fraction of nodes moved.
    pub min_move_fraction: f64,
    /// Enable the probabilistic early-termination heuristic.
    pub early_termination: bool,
}

impl Default for ViteConfig {
    fn default() -> Self {
        ViteConfig {
            max_levels: 12,
            max_rounds: 48,
            min_move_fraction: 0.005,
            early_termination: true,
        }
    }
}

/// Per-host result of the Vite baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViteResult {
    /// Modularity of the final partition.
    pub modularity: f64,
    /// Levels executed.
    pub levels: usize,
    /// Final coarse node count.
    pub final_nodes: usize,
}

fn splitmix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// Same per-round move gate as the Kimbap Louvain (both are synchronous
/// BSP formulations and need the same overshoot damping).
fn move_gate(g: u64, round: usize) -> bool {
    splitmix(g ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) & 1 == 1
}

/// Runs Vite-style Louvain; returns the final modularity (identical on
/// every host). Collective.
pub fn louvain(dg: &DistGraph, ctx: &HostCtx, cfg: &ViteConfig) -> ViteResult {
    let local_w: u64 = dg
        .local_nodes()
        .map(|l| dg.weighted_degree(l))
        .sum();
    let m_total = ctx.all_reduce_u64(local_w, |a, b| a + b) as f64;

    let mut result = ViteResult {
        modularity: 0.0,
        levels: 0,
        final_nodes: dg.num_global_nodes(),
    };
    let mut owned: Option<DistGraph> = None;
    for _level in 0..cfg.max_levels {
        let (q, improved, coarse_edges, n_coarse) = {
            let cur = owned.as_ref().unwrap_or(dg);
            run_level(cur, ctx, cfg, m_total)
        };
        result.modularity = q;
        result.levels += 1;
        let prev = result.final_nodes;
        result.final_nodes = n_coarse;
        let next = assemble_dist_graph(ctx, n_coarse, Policy::EdgeCutBlocked, coarse_edges);
        owned = Some(next);
        if !improved || n_coarse >= prev || n_coarse <= 1 {
            break;
        }
    }
    result
}

/// Ships `(key, value)` pairs per destination host and returns everything
/// received, flattened.
fn exchange_pairs(ctx: &HostCtx, outgoing: Vec<Vec<(u64, i64)>>) -> Vec<(u64, i64)> {
    let bufs = outgoing
        .into_iter()
        .map(|pairs| encode_slice(&pairs))
        .collect();
    ctx.exchange(bufs)
        .iter()
        .flat_map(|b| iter_decoded::<(u64, i64)>(b).collect::<Vec<_>>())
        .collect()
}

#[allow(clippy::type_complexity)]
fn run_level(
    cur: &DistGraph,
    ctx: &HostCtx,
    cfg: &ViteConfig,
    m_total: f64,
) -> (f64, bool, Vec<(NodeId, NodeId, u64)>, usize) {
    let masters = cur.num_masters();
    let num_local = cur.num_local_nodes();
    let own = cur.ownership().clone();
    let hosts = ctx.num_hosts();
    let k: Vec<u64> = (0..masters as u32).map(|m| cur.weighted_degree(m)).collect();

    // Community of every local proxy (mirrors refreshed every round).
    let mut comm_local: Vec<u64> = (0..num_local as u32)
        .map(|l| cur.local_to_global(l) as u64)
        .collect();
    let mut stable = vec![0u8; masters];
    let mut any_move = false;
    let mut scratch = DecisionScratch::<NeighborWeights>::per_thread(ctx.threads());

    for round in 0..cfg.max_rounds {
        // --- Inspection phase (§6.4): ONE thread walks the local graph
        // and constructs the single shared map — an O(E) serial pass that
        // is Vite's main bottleneck on big graphs. ------------------------
        let mut shared: MulHashMap<u64, AtomicI64> = MulHashMap::default();
        for m in 0..masters {
            shared.entry(comm_local[m]).or_insert_with(|| AtomicI64::new(0));
            for (dst, _) in cur.edges(m as u32) {
                shared
                    .entry(comm_local[dst as usize])
                    .or_insert_with(|| AtomicI64::new(0));
            }
        }

        // --- Execution phase: all threads concurrently perform atomic
        // reductions on the shared map (hub communities contend). ---------
        {
            let shared = &shared;
            let cl = &comm_local;
            let kk = &k;
            ctx.par_for(0..masters, |_tid, range| {
                for m in range {
                    if kk[m] > 0 {
                        shared[&cl[m]].fetch_add(kk[m] as i64, Ordering::Relaxed);
                    }
                }
            });
        }

        // --- Ship per-community partials to their owners, reduce there
        // (again through a shared map with atomic adds). ------------------
        let mut contrib: Vec<Vec<(u64, i64)>> = vec![Vec::new(); hosts];
        for (&c, v) in &shared {
            let t = v.load(Ordering::Relaxed);
            if t != 0 {
                contrib[own.owner(c as NodeId)].push((c, t));
            }
        }
        let received = exchange_pairs(ctx, contrib);
        let mut shared: MulHashMap<u64, AtomicI64> = MulHashMap::default();
        for &(c, _) in &received {
            shared.entry(c).or_insert_with(|| AtomicI64::new(0));
        }
        {
            let shared = &shared;
            let received = &received;
            ctx.par_for(0..received.len(), |_tid, range| {
                for i in range {
                    let (c, kk) = received[i];
                    shared[&c].fetch_add(kk, Ordering::Relaxed);
                }
            });
        }

        // --- Which community totals does this host need back? ------------
        let mut needed: Vec<u64> = comm_local.clone();
        needed.sort_unstable();
        needed.dedup();
        let mut asks: Vec<Vec<(u64, i64)>> = vec![Vec::new(); hosts];
        for &c in &needed {
            asks[own.owner(c as NodeId)].push((c, 0));
        }
        // Two-step ask/answer.
        let asked = {
            let bufs = asks
                .iter()
                .map(|pairs| encode_slice(&pairs.iter().map(|&(c, _)| c).collect::<Vec<u64>>()))
                .collect();
            ctx.exchange(bufs)
        };
        let answers: Vec<Vec<u8>> = asked
            .iter()
            .map(|buf| {
                let mut out = Vec::new();
                for c in iter_decoded::<u64>(buf) {
                    let tot = shared.get(&c).map(|a| a.load(Ordering::Relaxed)).unwrap_or(0);
                    (c, tot).write_to(&mut out);
                }
                out
            })
            .collect();
        let answered = ctx.exchange(answers);
        // Single-threaded: build the local tot map.
        let mut tot: MulHashMap<u64, i64> = MulHashMap::default();
        for (h, buf) in answered.iter().enumerate() {
            let _ = h;
            for (c, t) in iter_decoded::<(u64, i64)>(buf) {
                tot.insert(c, t);
            }
        }
        for pairs in asks.iter().enumerate().filter(|&(h, _)| h == ctx.host()).map(|(_, p)| p) {
            for &(c, _) in pairs {
                let t = shared.get(&c).map(|a| a.load(Ordering::Relaxed)).unwrap_or(0);
                tot.insert(c, t);
            }
        }

        // --- Parallel move decisions. -----------------------------------
        let moves = AtomicU64::new(0);
        {
            let (tot, cl, kk, stable) = (&tot, &comm_local, &k, &stable);
            let scratch = &scratch;
            let moves = &moves;
            ctx.par_for(0..masters, |tid, range| {
                let DecisionScratch { w_to, decided } = &mut *scratch[tid].lock();
                for m in range {
                    let lid = m as u32;
                    if cur.degree(lid) == 0 || kk[m] == 0 {
                        continue;
                    }
                    let g = cur.local_to_global(lid) as u64;
                    if move_gate(g, round) {
                        continue;
                    }
                    // Early termination: stable nodes skipped with 75%
                    // probability.
                    if cfg.early_termination
                        && stable[m] >= 4
                        && !splitmix(g ^ (round as u64) << 8).is_multiple_of(4)
                    {
                        continue;
                    }
                    let my_comm = cl[m];
                    let ku = kk[m] as f64;
                    // Vite keeps no per-round proxy table, so it sums
                    // neighbour weights by hashed community id.
                    w_to.clear();
                    cur.edges(lid).for_each(|(dst, w)| {
                        if dst != lid {
                            w_to.add(cl[dst as usize], w);
                        }
                    });
                    let stay_w = w_to.get(my_comm) as f64;
                    let stay_tot = (tot.get(&my_comm).copied().unwrap_or(0) - kk[m] as i64) as f64;
                    let mut best_score = stay_w - stay_tot * ku / m_total;
                    let mut best_comm = my_comm;
                    for (c, w_uc) in w_to.iter() {
                        if c == my_comm {
                            continue;
                        }
                        let tc = tot.get(&c).copied().unwrap_or(0) as f64;
                        let score = w_uc as f64 - tc * ku / m_total;
                        let eps = 1e-12;
                        if score > best_score + eps || (score > best_score - eps && c < best_comm)
                        {
                            best_score = score;
                            best_comm = c;
                        }
                    }
                    if best_comm != my_comm {
                        decided.push((m, best_comm));
                        moves.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        let mut moved_here = vec![false; masters];
        for s in &mut scratch {
            for (m, c) in s.get_mut().decided.drain(..) {
                comm_local[m] = c;
                moved_here[m] = true;
                any_move = true;
            }
        }
        for m in 0..masters {
            stable[m] = if moved_here[m] { 0 } else { stable[m].saturating_add(1) };
        }

        // --- Ghost update: ship ALL mirror communities (no
        // changed-only filtering — the hand-written code resends). --------
        let outgoing: Vec<Vec<u8>> = (0..hosts)
            .map(|peer| {
                if peer == ctx.host() {
                    return Vec::new();
                }
                let pairs: Vec<(u64, i64)> = cur
                    .mirrors_on_peer(peer)
                    .iter()
                    .map(|&g| {
                        let l = cur.global_to_local(g).unwrap() as usize;
                        (g as u64, comm_local[l] as i64)
                    })
                    .collect();
                encode_slice(&pairs)
            })
            .collect();
        let received = ctx.exchange(outgoing);
        for buf in &received {
            for (g, c) in iter_decoded::<(u64, i64)>(buf) {
                if let Some(l) = cur.global_to_local(g as NodeId) {
                    comm_local[l as usize] = c as u64;
                }
            }
        }

        let total_moves = ctx.all_reduce_u64(moves.load(Ordering::Relaxed), |a, b| a + b);
        if (total_moves as f64) < cfg.min_move_fraction * cur.num_global_nodes() as f64 {
            break;
        }
    }

    // --- Modularity: per-community internal weight and totals at owners.
    let mut in_contrib: MulHashMap<u64, i64> = MulHashMap::default();
    let mut tot_contrib: MulHashMap<u64, i64> = MulHashMap::default();
    for m in 0..masters {
        let lid = m as u32;
        if k[m] > 0 {
            *tot_contrib.entry(comm_local[m]).or_default() += k[m] as i64;
        }
        for (dst, w) in cur.edges(lid) {
            if comm_local[m] == comm_local[dst as usize] {
                *in_contrib.entry(comm_local[m]).or_default() += w as i64;
            }
        }
    }
    let route = |m: MulHashMap<u64, i64>| -> Vec<Vec<(u64, i64)>> {
        let mut out = vec![Vec::new(); hosts];
        for (c, v) in m {
            out[own.owner(c as NodeId)].push((c, v));
        }
        out
    };
    let mut in_c: MulHashMap<u64, i64> = MulHashMap::default();
    for (c, v) in exchange_pairs(ctx, route(in_contrib)) {
        *in_c.entry(c).or_default() += v;
    }
    let mut tot_c: MulHashMap<u64, i64> = MulHashMap::default();
    for (c, v) in exchange_pairs(ctx, route(tot_contrib)) {
        *tot_c.entry(c).or_default() += v;
    }
    let local_q: f64 = tot_c
        .iter()
        .map(|(c, &t)| {
            let i = in_c.get(c).copied().unwrap_or(0) as f64;
            i / m_total - (t as f64 / m_total) * (t as f64 / m_total)
        })
        .sum();
    let q = ctx.all_reduce(local_q, |a, b| a + b);

    // --- Aggregation (single-threaded, like Vite's builder). ------------
    // Dense coarse ids for used communities, assigned by their owners.
    let mut used: Vec<Vec<(u64, i64)>> = vec![Vec::new(); hosts];
    let mut my_used: Vec<u64> = (0..masters).map(|m| comm_local[m]).collect();
    my_used.sort_unstable();
    my_used.dedup();
    for &c in &my_used {
        used[own.owner(c as NodeId)].push((c, 0));
    }
    let mut owned_used: Vec<u64> = exchange_pairs(ctx, used.clone())
        .into_iter()
        .map(|(c, _)| c)
        .chain(used[ctx.host()].iter().map(|&(c, _)| c))
        .collect();
    owned_used.sort_unstable();
    owned_used.dedup();
    let counts = ctx.all_gather(owned_used.len() as u64);
    let offset: u64 = counts[..ctx.host()].iter().sum();
    let n_coarse: u64 = counts.iter().sum();
    let newid: MulHashMap<u64, u64> = owned_used
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, offset + i as u64))
        .collect();

    // Resolve new ids for every community this host references.
    let mut refs: Vec<u64> = comm_local.clone();
    refs.sort_unstable();
    refs.dedup();
    let mut asks: Vec<Vec<u64>> = vec![Vec::new(); hosts];
    for &c in &refs {
        asks[own.owner(c as NodeId)].push(c);
    }
    let asked = ctx.exchange(asks.iter().map(|k| encode_slice(k)).collect());
    let answers = asked
        .iter()
        .map(|buf| {
            let pairs: Vec<(u64, u64)> = iter_decoded::<u64>(buf)
                .map(|c| (c, newid[&c]))
                .collect();
            encode_slice(&pairs)
        })
        .collect();
    let answered = ctx.exchange(answers);
    let mut resolve: MulHashMap<u64, u64> = MulHashMap::default();
    for buf in &answered {
        for (c, id) in iter_decoded::<(u64, u64)>(buf) {
            resolve.insert(c, id);
        }
    }
    for &c in &asks[ctx.host()] {
        resolve.insert(c, newid[&c]);
    }

    // Coarse edge aggregation, single-threaded.
    let mut agg: MulHashMap<(NodeId, NodeId), u64> = MulHashMap::default();
    for m in 0..masters {
        let lid = m as u32;
        let cu = resolve[&comm_local[m]] as NodeId;
        for (dst, w) in cur.edges(lid) {
            let cv = resolve[&comm_local[dst as usize]] as NodeId;
            *agg.entry((cu, cv)).or_default() += w;
        }
    }
    let coarse_edges = agg.into_iter().map(|((u, v), w)| (u, v, w)).collect();

    // The level-loop exit must be a *global* decision or hosts deadlock at
    // the next collective.
    let improved = ctx.all_reduce_or(any_move);

    (q, improved, coarse_edges, n_coarse as usize)
}

/// Extension hook for `(u64, i64)` serialization in answer buffers.
trait WriteTo {
    fn write_to(&self, buf: &mut Vec<u8>);
}

impl WriteTo for (u64, i64) {
    fn write_to(&self, buf: &mut Vec<u8>) {
        use kimbap_comm::Wire;
        self.write(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kimbap_comm::Cluster;
    use kimbap_dist::partition;
    use kimbap_graph::{builder::from_edges, gen};

    fn run(g: &kimbap_graph::Graph, hosts: usize, threads: usize, et: bool) -> ViteResult {
        let parts = partition(g, Policy::EdgeCutBlocked, hosts);
        let cfg = ViteConfig {
            early_termination: et,
            ..ViteConfig::default()
        };
        let results = Cluster::with_threads(hosts, threads)
            .run(|ctx| louvain(&parts[ctx.host()], ctx, &cfg));
        for r in &results {
            assert!((r.modularity - results[0].modularity).abs() < 1e-9);
        }
        results[0]
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
        let r = run(&g, 3, 2, false);
        assert!(r.modularity > 0.6, "q = {}", r.modularity);
    }

    #[test]
    fn comparable_quality_to_kimbap() {
        let g = gen::rmat(7, 6, 29);
        let vite_q = run(&g, 2, 2, false).modularity;
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let b = kimbap_algos::NpmBuilder;
        let kimbap = Cluster::with_threads(2, 2)
            .run(|ctx| kimbap_algos::louvain(&parts[ctx.host()], ctx, &b));
        let kimbap_q = kimbap[0].modularity;
        assert!(
            (vite_q - kimbap_q).abs() < 0.15,
            "vite {vite_q} vs kimbap {kimbap_q}"
        );
        assert!(vite_q > 0.0);
    }

    #[test]
    fn early_termination_still_positive_quality() {
        let g = gen::grid_road(10, 10, 4);
        let r = run(&g, 2, 2, true);
        assert!(r.modularity > 0.4, "q = {}", r.modularity);
        assert!(r.final_nodes < 100);
    }
}
