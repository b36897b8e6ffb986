//! Galois-style shared-memory (single-host) algorithms — the Table 3
//! comparison.
//!
//! Galois runs on one machine and updates node properties **in place with
//! atomics, asynchronously**: a thread's write is immediately visible to
//! every other thread, with no BSP rounds and no communication phases.
//! That is why it wins on pointer-jumping algorithms (MSF, CC-SV: chains
//! collapse within one pass) and loses on Leiden (threads contend on
//! subcluster counters; §6.3).
//!
//! All functions here take a plain [`Graph`] plus a thread count and use a
//! [`WorkerPool`] directly — no cluster, no partitions.

use kimbap_comm::WorkerPool;
use kimbap_graph::{Graph, NodeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Asynchronous label propagation: each thread propagates minima in place
/// until a full pass changes nothing.
pub fn cc_lp(g: &Graph, threads: usize) -> Vec<u64> {
    let pool = WorkerPool::new(threads);
    let labels: Vec<AtomicU64> = g.nodes().map(|u| AtomicU64::new(u as u64)).collect();
    let changed = AtomicBool::new(true);
    while changed.swap(false, Ordering::Relaxed) {
        pool.par_for(0..g.num_nodes(), |_tid, range| {
            for u in range {
                let my = labels[u].load(Ordering::Relaxed);
                for v in g.targets(u as NodeId) {
                    let old = labels[v as usize].fetch_min(my, Ordering::Relaxed);
                    if my < old {
                        changed.store(true, Ordering::Relaxed);
                    }
                }
            }
        });
    }
    labels.into_iter().map(AtomicU64::into_inner).collect()
}

/// Asynchronous Shiloach-Vishkin with in-place pointer jumping: hooks and
/// shortcuts interleave freely across threads.
pub fn cc_sv(g: &Graph, threads: usize) -> Vec<u64> {
    let pool = WorkerPool::new(threads);
    let parent: Vec<AtomicU64> = g.nodes().map(|u| AtomicU64::new(u as u64)).collect();
    let load = |x: usize| parent[x].load(Ordering::Relaxed);
    let changed = AtomicBool::new(true);
    while changed.swap(false, Ordering::Relaxed) {
        // Hook.
        pool.par_for(0..g.num_nodes(), |_tid, range| {
            for u in range {
                let pu = load(u);
                for v in g.targets(u as NodeId) {
                    let pv = load(v as usize);
                    if pu > pv {
                        let old = parent[pu as usize].fetch_min(pv, Ordering::Relaxed);
                        if pv < old {
                            changed.store(true, Ordering::Relaxed);
                        }
                    }
                }
            }
        });
        // Shortcut: full pointer jumping, asynchronously.
        pool.par_for(0..g.num_nodes(), |_tid, range| {
            for u in range {
                loop {
                    let p = load(u);
                    let gp = load(p as usize);
                    if p == gp {
                        break;
                    }
                    parent[u].fetch_min(gp, Ordering::Relaxed);
                }
            }
        });
    }
    parent.into_iter().map(AtomicU64::into_inner).collect()
}

/// Asynchronous Boruvka: per-round min-edge selection with atomic
/// compare-exchange on packed `(weight, edge-index)` slots, in-place
/// union-find with pointer jumping.
///
/// Returns `(forest edge list, total weight)`.
pub fn msf(g: &Graph, threads: usize) -> (Vec<(NodeId, NodeId, u64)>, u64) {
    let pool = WorkerPool::new(threads);
    let n = g.num_nodes();
    let parent: Vec<AtomicU64> = (0..n as u64).map(AtomicU64::new).collect();
    let find = |mut x: u64| -> u64 {
        loop {
            let p = parent[x as usize].load(Ordering::Relaxed);
            if p == x {
                return x;
            }
            let gp = parent[p as usize].load(Ordering::Relaxed);
            // Path halving.
            let _ = parent[x as usize].compare_exchange(
                p,
                gp,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            x = p;
        }
    };

    let mut forest: Vec<(NodeId, NodeId, u64)> = Vec::new();
    loop {
        // Min outgoing edge per component, packed as (weight, u, v).
        let best: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        // Edge catalog per component candidate: store packed index into a
        // per-round edge list. We pack (weight:32, edge_idx:32).
        let edges: Vec<(NodeId, NodeId, u64)> = g
            .all_edges()
            .filter(|&(u, v, _)| u < v)
            .collect();
        pool.par_for(0..edges.len(), |_tid, range| {
            for i in range {
                let (u, v, w) = edges[i];
                let (cu, cv) = (find(u as u64), find(v as u64));
                if cu == cv {
                    continue;
                }
                let packed = (w.min(u32::MAX as u64) << 32) | i as u64;
                best[cu as usize].fetch_min(packed, Ordering::Relaxed);
                best[cv as usize].fetch_min(packed, Ordering::Relaxed);
            }
        });
        // Hook the selected edges (sequential: tiny compared to the scan).
        let mut hooked = false;
        let mut selected: Vec<usize> = best
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .filter(|&p| p != u64::MAX)
            .map(|p| (p & 0xFFFF_FFFF) as usize)
            .collect();
        selected.sort_unstable();
        selected.dedup();
        for i in selected {
            let (u, v, w) = edges[i];
            let (cu, cv) = (find(u as u64), find(v as u64));
            if cu == cv {
                continue;
            }
            let (lo, hi) = (cu.min(cv), cu.max(cv));
            parent[hi as usize].store(lo, Ordering::Relaxed);
            forest.push((u, v, w));
            hooked = true;
        }
        if !hooked {
            break;
        }
    }
    let total = forest.iter().map(|&(_, _, w)| w).sum();
    (forest, total)
}

/// Priority-based MIS with the same priority function as the distributed
/// version, executed with in-place atomic state flips.
pub fn mis(g: &Graph, threads: usize) -> Vec<bool> {
    let pool = WorkerPool::new(threads);
    let n = g.num_nodes();
    let prio = |u: NodeId| -> u64 {
        let capped = (g.degree(u) as u64).min(u32::MAX as u64 - 1) as u32;
        ((u32::MAX - capped) as u64) << 32 | u as u64
    };
    // 0 undecided, 1 in, 2 out.
    let state: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let undecided = AtomicBool::new(true);
    while undecided.swap(false, Ordering::Relaxed) {
        pool.par_for(0..n, |_tid, range| {
            for u in range {
                if state[u].load(Ordering::Relaxed) != 0 {
                    continue;
                }
                let u = u as NodeId;
                let my = prio(u);
                // A neighbor already in the set blocks `u` too: its pass
                // excluding its neighbors may not have reached `u` yet.
                let beaten = g.targets(u).any(|v| {
                    let s = state[v as usize].load(Ordering::Relaxed);
                    s == 1 || (s == 0 && prio(v) > my)
                });
                if beaten {
                    undecided.store(true, Ordering::Relaxed);
                    continue;
                }
                // Highest priority in the undecided neighborhood: join and
                // exclude the neighbors.
                if state[u as usize]
                    .compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    for v in g.targets(u) {
                        let _ = state[v as usize].compare_exchange(
                            0,
                            2,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        );
                    }
                }
            }
        });
    }
    state
        .into_iter()
        .enumerate()
        .map(|(u, s)| s.into_inner() == 1 || g.degree(u as NodeId) == 0)
        .collect()
}

/// Shared-memory Louvain with atomic in-place reductions on community
/// totals (the contention §6.3 blames for Galois's LD timeout).
///
/// Returns `(labels, modularity)`.
pub fn louvain(g: &Graph, threads: usize, max_rounds: usize) -> (Vec<NodeId>, f64) {
    community_detection(g, threads, max_rounds, false)
}

/// Shared-memory Leiden: Louvain plus a subcommunity refinement phase with
/// atomic subcluster counters.
///
/// Returns `(labels, modularity)`.
pub fn leiden(g: &Graph, threads: usize, max_rounds: usize) -> (Vec<NodeId>, f64) {
    community_detection(g, threads, max_rounds, true)
}

/// Deterministic per-round move gate (see `kimbap-algos`' Louvain).
fn move_gate(g: u64, round: usize) -> bool {
    let mut h = g ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h & 1 == 1
}

fn community_detection(
    g: &Graph,
    threads: usize,
    max_rounds: usize,
    refine: bool,
) -> (Vec<NodeId>, f64) {
    let pool = WorkerPool::new(threads);
    let n = g.num_nodes();
    let m_total = g.total_weight() as f64;
    if n == 0 || m_total == 0.0 {
        return (Vec::new(), 0.0);
    }
    let k: Vec<u64> = g.nodes().map(|u| g.weighted_degree(u)).collect();
    let comm: Vec<AtomicU64> = (0..n as u64).map(AtomicU64::new).collect();
    // In-place atomic community totals: every move does two fetch_adds —
    // hub communities serialize here.
    let tot: Vec<AtomicU64> = k.iter().map(|&x| AtomicU64::new(x)).collect();

    for round in 0..max_rounds {
        let moved = AtomicBool::new(false);
        pool.par_for(0..n, |_tid, range| {
            let mut w_to: HashMap<u64, u64> = HashMap::new();
            for u in range {
                if k[u] == 0 {
                    continue;
                }
                // Same per-round move gate as the distributed versions:
                // even asynchronous moves overshoot when many low-id
                // neighbors jump at once on stale totals.
                if move_gate(u as u64, round) {
                    continue;
                }
                let my = comm[u].load(Ordering::Relaxed);
                let ku = k[u] as f64;
                w_to.clear();
                for (v, w) in g.edges(u as NodeId) {
                    if v as usize == u {
                        continue;
                    }
                    *w_to.entry(comm[v as usize].load(Ordering::Relaxed)).or_default() += w;
                }
                let stay_w = *w_to.get(&my).unwrap_or(&0) as f64;
                let stay_tot = tot[my as usize].load(Ordering::Relaxed) as f64 - ku;
                let mut best_score = stay_w - stay_tot * ku / m_total;
                let mut best = my;
                for (&c, &w_uc) in &w_to {
                    if c == my {
                        continue;
                    }
                    let tc = tot[c as usize].load(Ordering::Relaxed) as f64;
                    let score = w_uc as f64 - tc * ku / m_total;
                    if score > best_score + 1e-12 {
                        best_score = score;
                        best = c;
                    }
                }
                if best != my {
                    // Asynchronous move with atomic total updates (the
                    // Galois pattern: immediately visible, contended).
                    comm[u].store(best, Ordering::Relaxed);
                    tot[my as usize].fetch_sub(k[u], Ordering::Relaxed);
                    tot[best as usize].fetch_add(k[u], Ordering::Relaxed);
                    moved.store(true, Ordering::Relaxed);
                }
            }
        });
        if refine {
            // Subcommunity counters: extra atomic traffic per node per
            // round (size bookkeeping of the refinement phase).
            let sub_size: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            pool.par_for(0..n, |_tid, range| {
                for u in range {
                    let c = comm[u].load(Ordering::Relaxed);
                    sub_size[c as usize].fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        if !moved.load(Ordering::Relaxed) {
            break;
        }
    }
    let labels: Vec<NodeId> = comm
        .into_iter()
        .map(|c| c.into_inner() as NodeId)
        .collect();
    let q = kimbap_algos::refcheck::modularity(g, &labels);
    (labels, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kimbap_algos::refcheck;
    use kimbap_graph::gen;
    use kimbap_graph::stats::approx_diameter;

    #[test]
    fn cc_variants_match_reference() {
        let g = gen::rmat(8, 4, 41);
        let expected = refcheck::connected_components(&g);
        assert_eq!(cc_lp(&g, 4), expected);
        assert_eq!(cc_sv(&g, 4), expected);
    }

    #[test]
    fn cc_on_path() {
        let mut b = kimbap_graph::GraphBuilder::new();
        for i in 0..300u32 {
            b.add_edge(i, i + 1, 1);
        }
        let g = b.symmetric(true).build();
        assert!(cc_sv(&g, 4).iter().all(|&l| l == 0));
    }

    #[test]
    fn msf_matches_kruskal() {
        let g = gen::with_random_weights(&gen::rmat(7, 4, 43), 500, 7);
        let (edges, total) = msf(&g, 4);
        assert_eq!(total, refcheck::msf_weight(&g));
        assert_eq!(edges.len(), refcheck::msf_edge_count(&g));
    }

    #[test]
    fn mis_is_valid() {
        let g = gen::grid_road(8, 8, 5);
        refcheck::check_mis(&g, &mis(&g, 4)).unwrap();
        let g = gen::rmat(8, 6, 47);
        refcheck::check_mis(&g, &mis(&g, 4)).unwrap();
        // Repeated 4-thread runs catch a node joining beside a neighbor
        // that has joined but not yet excluded it.
        for seed in 0..8 {
            let g = gen::rmat(10, 8, seed);
            for _ in 0..25 {
                refcheck::check_mis(&g, &mis(&g, 4)).unwrap();
            }
        }
    }

    #[test]
    fn adjacency_readers_agree_across_storage_tiers() {
        // Each reader walks `targets()`; on the compressed tier that is the
        // streaming decoder, which must answer as the raw slices do.
        for g in [gen::rmat(8, 6, 47), gen::grid_road(12, 12, 5)] {
            let c = g.compress();
            assert_eq!(approx_diameter(&c, 0), approx_diameter(&g, 0));
            assert_eq!(gen::with_unit_weights(&c), gen::with_unit_weights(&g));
            assert_eq!(cc_lp(&c, 2), cc_lp(&g, 2));
            assert_eq!(cc_sv(&c, 2), cc_sv(&g, 2));
            let set = mis(&g, 1);
            assert_eq!(mis(&c, 1), set);
            // A valid set, one no longer maximal, one with adjacent members.
            let mut unmaximal = set.clone();
            unmaximal[set.iter().position(|&x| x).unwrap()] = false;
            for s in [set, unmaximal, vec![true; g.num_nodes()]] {
                assert_eq!(refcheck::check_mis(&c, &s), refcheck::check_mis(&g, &s));
            }
        }
    }

    #[test]
    fn louvain_quality() {
        let g = gen::grid_road(10, 10, 1);
        // Single-threaded: the gated sweep is deterministic, so the
        // quality bound is exact.
        let (labels, q) = louvain(&g, 1, 50);
        // HashMap iteration order makes float summation order vary:
        // compare with a tolerance.
        assert!((q - refcheck::modularity(&g, &labels)).abs() < 1e-9);
        assert!(q > 0.4, "q = {q}");
        // Multithreaded: asynchronous moves are scheduling-dependent;
        // require sane (positive) quality only.
        let (_, q4) = louvain(&g, 4, 50);
        assert!(q4 > 0.2, "async q = {q4}");
    }

    #[test]
    fn leiden_runs_and_reports() {
        let g = gen::rmat(7, 4, 53);
        let (labels, q) = leiden(&g, 4, 50);
        assert_eq!(labels.len(), g.num_nodes());
        assert!(q > -1.0 && q <= 1.0);
    }
}
