//! Helpers shared by the kimbap integration suites (fault injection,
//! transport robustness, the sim property tests, and the serve suites):
//! the standard three-host cluster, one run-and-merge wrapper per
//! algorithm family, host-error classifiers, and proptest strategy
//! utilities. Each suite compiles its own copy (`mod common;`), so
//! anything a given suite doesn't call is expectedly dead there.
#![allow(dead_code)]

use kimbap_algos::{self as algos, cc::cc_lp, merge_master_values, msf, NpmBuilder};
use kimbap_comm::{Cluster, CrashSignal, FaultPlan, HostCtx, HostError};
use kimbap_dist::{partition, DistGraph, Policy};
use kimbap_graph::Graph;
use proptest::prelude::*;

/// Host count every suite's cluster runs with.
pub const HOSTS: usize = 3;

/// The standard in-proc baseline cluster.
pub fn inproc() -> Cluster {
    Cluster::with_threads(HOSTS, 2)
}

/// Runs cc_lp on `cluster` under `plan` and returns the merged labels
/// plus the cluster-wide retransmission count. `recovering` wraps each
/// host in [`HostCtx::run_recovering`] (required for crash-bearing
/// plans).
pub fn cc_lp_labels(
    g: &Graph,
    cluster: &Cluster,
    plan: FaultPlan,
    recovering: bool,
) -> (Vec<u64>, u64) {
    let parts = partition(g, Policy::EdgeCutBlocked, HOSTS);
    let b = NpmBuilder;
    let per_host = cluster.run_with_faults(plan, |ctx| {
        let labels = if recovering {
            ctx.run_recovering(|ctx| cc_lp(&parts[ctx.host()], ctx, &b))
        } else {
            cc_lp(&parts[ctx.host()], ctx, &b)
        };
        (labels, ctx.stats().retransmits)
    });
    let retransmits = per_host.iter().map(|(_, r)| r).sum();
    let labels = merge_master_values(
        g.num_nodes(),
        per_host.into_iter().map(|(l, _)| l).collect(),
    );
    (labels, retransmits)
}

/// Runs louvain under `plan` (always inside `run_recovering`) and returns
/// (composed labels, modularity bits).
pub fn louvain_result(g: &Graph, cluster: &Cluster, plan: FaultPlan) -> (Vec<u32>, u64) {
    let parts = partition(g, Policy::EdgeCutBlocked, HOSTS);
    let b = NpmBuilder;
    let cfg = algos::LouvainConfig::default();
    let results = cluster.run_with_faults(plan, |ctx| {
        ctx.run_recovering(|ctx| algos::louvain(&parts[ctx.host()], ctx, &b, &cfg))
    });
    let modularity = results[0].modularity;
    let labels = algos::compose_labels(g.num_nodes(), &results);
    (labels, modularity.to_bits())
}

/// Runs msf under `plan` inside `run_recovering` and returns the
/// canonical (sorted edges, total weight) forest.
pub fn msf_forest(g: &Graph, cluster: &Cluster, plan: FaultPlan) -> (Vec<(u32, u32, u64)>, u64) {
    let parts = partition(g, Policy::CartesianVertexCut, HOSTS);
    let b = NpmBuilder;
    let per_host = cluster.run_with_faults(plan, |ctx| {
        ctx.run_recovering(|ctx| algos::msf(&parts[ctx.host()], ctx, &b))
    });
    let (mut edges, total) = msf::merge_forest(per_host);
    edges.sort_unstable();
    (edges, total)
}

/// Runs mis under `plan` inside `run_recovering` and returns the merged
/// membership vector.
pub fn mis_set(g: &Graph, cluster: &Cluster, plan: FaultPlan) -> Vec<bool> {
    let parts = partition(g, Policy::CartesianVertexCut, HOSTS);
    let b = NpmBuilder;
    let per_host = cluster.run_with_faults(plan, |ctx| {
        ctx.run_recovering(|ctx| algos::mis(&parts[ctx.host()], ctx, &b))
    });
    merge_master_values(g.num_nodes(), per_host)
}

/// Runs `f` elastically (partition recomputed from the live membership on
/// every attempt) and returns the survivors' values, skipping the killed
/// hosts' own permanent-loss aborts. Any other host error is a bug.
pub fn run_elastic_survivors<R: Send>(
    g: &Graph,
    cluster: &Cluster,
    plan: FaultPlan,
    policy: Policy,
    f: impl Fn(&DistGraph, &HostCtx) -> R + Sync,
) -> Vec<R> {
    let res = cluster.try_run_with_faults(plan, |ctx| {
        ctx.run_elastic(|ctx| {
            let parts = partition(g, policy, ctx.num_hosts());
            f(&parts[ctx.host()], ctx)
        })
    });
    res.into_iter()
        .enumerate()
        .filter_map(|(h, r)| match r {
            Ok(v) => Some(v),
            Err(e) if permanent_loss(&e) => None,
            Err(e) => panic!("host {h}: {e}"),
        })
        .collect()
}

/// True for host errors rooted in communication failure: every host that
/// unwound with a [`CrashSignal`]. The set a faulted run may legitimately
/// surface instead of converging; anything else escaping a host is a bug.
pub fn comm_rooted(e: &HostError) -> bool {
    e.signal.is_some()
}

/// True for a killed host's own abort — the *expected* casualty of an
/// elastic run, skipped rather than surfaced.
pub fn permanent_loss(e: &HostError) -> bool {
    matches!(e.signal, Some(CrashSignal::Killed { .. }))
}

/// `Some(inner)` half the time, `None` the other half — the vendored
/// proptest has no `prop::option`, so build it from a weighted union.
pub fn maybe<S>(inner: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), inner.prop_map(Some).boxed(),]
}
