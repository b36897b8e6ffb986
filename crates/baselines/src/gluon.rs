//! A Gluon-style adjacent-vertex framework (§2.2) and its CC-LP.
//!
//! Gluon keeps *all* proxies (masters and mirrors) materialized in dense
//! per-host arrays; operators read and reduce cached values directly with
//! atomics during compute. Communication synchronizes only values that
//! changed (the temporal invariant): reduce-sync ships changed mirror
//! values to masters, broadcast-sync ships changed master values back to
//! mirrors. There are no request phases — which is exactly why the model
//! is limited to adjacent-vertex operators.

use kimbap_comm::wire::{encode_slice, iter_decoded};
use kimbap_comm::HostCtx;
use kimbap_dist::{DistGraph, LocalId};
use kimbap_graph::NodeId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A dense, min-reduced node property over one host's proxies.
///
/// Values are indexed by *local* proxy id; mirrors cache the master value
/// and accumulate partial minima between syncs.
#[derive(Debug)]
pub struct GluonMinProp<'g> {
    dg: &'g DistGraph,
    vals: Vec<AtomicU64>,
    changed: Vec<AtomicBool>,
    any_master_changed: AtomicBool,
}

impl<'g> GluonMinProp<'g> {
    /// Creates the property with `init(global_id)` per proxy.
    pub fn new(dg: &'g DistGraph, init: impl Fn(NodeId) -> u64) -> Self {
        let vals = dg
            .local_nodes()
            .map(|l| AtomicU64::new(init(dg.local_to_global(l))))
            .collect();
        let changed = dg.local_nodes().map(|_| AtomicBool::new(false)).collect();
        GluonMinProp {
            dg,
            vals,
            changed,
            any_master_changed: AtomicBool::new(false),
        }
    }

    /// Reads the cached value of local proxy `l`.
    pub fn read(&self, l: LocalId) -> u64 {
        self.vals[l as usize].load(Ordering::Relaxed)
    }

    /// Min-reduces `v` into local proxy `l` (atomic, called from compute).
    pub fn min_reduce(&self, l: LocalId, v: u64) {
        let old = self.vals[l as usize].fetch_min(v, Ordering::Relaxed);
        if v < old {
            self.changed[l as usize].store(true, Ordering::Relaxed);
            if self.dg.is_master(l) {
                self.any_master_changed.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Clears per-round change tracking.
    pub fn reset_round(&mut self) {
        for c in self.changed.iter_mut() {
            *c.get_mut() = false;
        }
        *self.any_master_changed.get_mut() = false;
    }

    /// Reduce-sync: changed mirror values are shipped to their masters and
    /// min-combined there. Collective.
    pub fn reduce_sync(&mut self, ctx: &HostCtx) {
        let own = self.dg.ownership().clone();
        let outgoing: Vec<Vec<u8>> = (0..ctx.num_hosts())
            .map(|peer| {
                if peer == ctx.host() {
                    return Vec::new();
                }
                let mut pairs = Vec::new();
                for l in self.dg.mirror_nodes() {
                    let g = self.dg.local_to_global(l);
                    if own.owner(g) == peer && *self.changed[l as usize].get_mut() {
                        pairs.push((g, *self.vals[l as usize].get_mut()));
                    }
                }
                encode_slice(&pairs)
            })
            .collect();
        let received = ctx.exchange(outgoing);
        for buf in &received {
            for (g, v) in iter_decoded::<(NodeId, u64)>(buf) {
                let l = self
                    .dg
                    .global_to_local(g)
                    .expect("received value for unowned node") as usize;
                let slot = self.vals[l].get_mut();
                if v < *slot {
                    *slot = v;
                    *self.changed[l].get_mut() = true;
                    *self.any_master_changed.get_mut() = true;
                }
            }
        }
    }

    /// Broadcast-sync: changed master values are pushed to their mirrors.
    /// Collective.
    pub fn broadcast_sync(&mut self, ctx: &HostCtx) {
        let outgoing: Vec<Vec<u8>> = (0..ctx.num_hosts())
            .map(|peer| {
                if peer == ctx.host() {
                    return Vec::new();
                }
                let mut pairs = Vec::new();
                for &g in self.dg.mirrors_on_peer(peer) {
                    let l = self.dg.global_to_local(g).unwrap() as usize;
                    if *self.changed[l].get_mut() {
                        pairs.push((g, *self.vals[l].get_mut()));
                    }
                }
                encode_slice(&pairs)
            })
            .collect();
        let received = ctx.exchange(outgoing);
        for buf in &received {
            for (g, v) in iter_decoded::<(NodeId, u64)>(buf) {
                let l = self.dg.global_to_local(g).expect("mirror exists") as usize;
                *self.vals[l].get_mut() = v;
            }
        }
    }

    /// Collective quiescence check: did any master value change this round?
    pub fn is_updated(&self, ctx: &HostCtx) -> bool {
        ctx.all_reduce_or(self.any_master_changed.load(Ordering::Relaxed))
    }
}

/// Gluon-style push CC-LP: atomically min-propagate labels to neighbor
/// proxies, then reduce/broadcast changed values. Returns this host's
/// master labels. Collective.
pub fn cc_lp(dg: &DistGraph, ctx: &HostCtx) -> Vec<(NodeId, u64)> {
    let mut label = GluonMinProp::new(dg, |g| g as u64);
    loop {
        label.reset_round();
        {
            let l = &label;
            ctx.par_for(0..dg.num_local_nodes(), |_tid, range| {
                for lid in range {
                    let lid = lid as LocalId;
                    if dg.degree(lid) == 0 {
                        continue;
                    }
                    let my = l.read(lid);
                    for (dst, _) in dg.edges(lid) {
                        if my < l.read(dst) {
                            l.min_reduce(dst, my);
                        }
                    }
                }
            });
        }
        label.reduce_sync(ctx);
        label.broadcast_sync(ctx);
        if !label.is_updated(ctx) {
            break;
        }
    }
    dg.master_nodes()
        .map(|l| (dg.local_to_global(l), label.read(l)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kimbap_algos::{merge_master_values, refcheck};
    use kimbap_comm::Cluster;
    use kimbap_dist::{partition, Policy};
    use kimbap_graph::gen;

    fn run(g: &kimbap_graph::Graph, hosts: usize, threads: usize, policy: Policy) -> Vec<u64> {
        let parts = partition(g, policy, hosts);
        let per_host = Cluster::with_threads(hosts, threads)
            .run(|ctx| cc_lp(&parts[ctx.host()], ctx));
        merge_master_values(g.num_nodes(), per_host)
    }

    #[test]
    fn matches_reference_on_grid() {
        let g = gen::grid_road(7, 7, 3);
        assert_eq!(
            run(&g, 3, 2, Policy::EdgeCutBlocked),
            refcheck::connected_components(&g)
        );
    }

    #[test]
    fn matches_reference_on_power_law_cvc() {
        let g = gen::rmat(8, 4, 11);
        assert_eq!(
            run(&g, 4, 2, Policy::CartesianVertexCut),
            refcheck::connected_components(&g)
        );
    }

    #[test]
    fn agrees_with_kimbap_cc_lp() {
        let g = gen::rmat(7, 3, 23);
        let gluon = run(&g, 3, 1, Policy::CartesianVertexCut);
        let parts = partition(&g, Policy::CartesianVertexCut, 3);
        let b = kimbap_algos::NpmBuilder;
        let kimbap = merge_master_values(
            g.num_nodes(),
            Cluster::new(3).run(|ctx| kimbap_algos::cc::cc_lp(&parts[ctx.host()], ctx, &b)),
        );
        assert_eq!(gluon, kimbap);
    }

    #[test]
    fn sends_only_changed_values() {
        // After convergence, one extra round must move almost nothing.
        let g = gen::grid_road(5, 5, 0);
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let bytes = Cluster::new(2).run(|ctx| {
            let dg = &parts[ctx.host()];
            let mut label = GluonMinProp::new(dg, |g| g as u64);
            // Run to convergence.
            loop {
                label.reset_round();
                // no compute: nothing changes
                label.reduce_sync(ctx);
                label.broadcast_sync(ctx);
                if !label.is_updated(ctx) {
                    break;
                }
            }
            ctx.stats().bytes
        });
        // The only traffic is the 1-byte quiescence all-reduce per peer.
        assert!(
            bytes.iter().all(|&b| b <= 1),
            "idle rounds must carry no property data, got {bytes:?}"
        );
    }
}
