//! Differential test for the fused round tail: `NodePropMap::sync_round`
//! must be indistinguishable from `reduce_sync; broadcast_sync; is_updated`
//! — same labels, same agreed quiescence flag every round (hence the same
//! round count) — for every hand-written adjacent-vertex loop, on every
//! map (the product `Npm` and the sharded baseline's two rows), thread
//! count and transport backend.

use kimbap_algos::{bfs, cc, merge_master_values, sssp, MapBuilder, NpmBuilder, ShardedBuilder};
use kimbap_comm::{Cluster, HostCtx};
use kimbap_dist::{partition, DistGraph, Policy};
use kimbap_graph::{gen, Graph, NodeId};
use kimbap_npm::{ChangedKeys, NodePropMap, PropValue, ReduceOp};
use std::sync::Mutex;

const HOSTS: usize = 3;

/// A map whose round tail is either the map's own `sync_round` or the
/// three calls spelled out, and which logs the flag each tail returned.
struct Tail<'g, T> {
    inner: Box<dyn NodePropMap<T> + 'g>,
    fused: bool,
    flags: &'g Mutex<Vec<bool>>,
}

impl<T: PropValue> NodePropMap<T> for Tail<'_, T> {
    fn sync_round(&mut self, ctx: &HostCtx) -> bool {
        let updated = if self.fused {
            self.inner.sync_round(ctx)
        } else {
            self.inner.reduce_sync(ctx);
            self.inner.broadcast_sync(ctx);
            self.inner.is_updated(ctx)
        };
        self.flags.lock().unwrap().push(updated);
        updated
    }

    fn init_masters(&mut self, f: &dyn Fn(NodeId) -> T) {
        self.inner.init_masters(f)
    }
    fn read(&self, key: NodeId) -> T {
        self.inner.read(key)
    }
    fn set(&mut self, key: NodeId, value: T) {
        self.inner.set(key, value)
    }
    fn reduce(&self, tid: usize, key: NodeId, value: T) {
        self.inner.reduce(tid, key, value)
    }
    fn request(&self, key: NodeId) {
        self.inner.request(key)
    }
    fn request_sync(&mut self, ctx: &HostCtx) {
        self.inner.request_sync(ctx)
    }
    fn reduce_sync(&mut self, ctx: &HostCtx) {
        self.inner.reduce_sync(ctx)
    }
    fn broadcast_sync(&mut self, ctx: &HostCtx) {
        self.inner.broadcast_sync(ctx)
    }
    fn pin_mirrors(&mut self, ctx: &HostCtx) {
        self.inner.pin_mirrors(ctx)
    }
    fn unpin_mirrors(&mut self) {
        self.inner.unpin_mirrors()
    }
    fn reset_updated(&mut self) {
        self.inner.reset_updated()
    }
    fn changed_keys(&self) -> ChangedKeys<'_> {
        self.inner.changed_keys()
    }
    fn reset_values(&mut self, ctx: &HostCtx) {
        self.inner.reset_values(ctx)
    }
    fn is_updated(&self, ctx: &HostCtx) -> bool {
        self.inner.is_updated(ctx)
    }
}

/// The map a [`TailBuilder`] wraps: the product map, or a row of the
/// sharded baseline.
#[derive(Debug, Clone, Copy)]
enum Inner {
    Npm,
    Sharded(ShardedBuilder),
}

struct TailBuilder {
    inner: Inner,
    fused: bool,
    /// One flag log per host.
    flags: Vec<Mutex<Vec<bool>>>,
}

impl MapBuilder for TailBuilder {
    type Map<'g, T: PropValue, Op: ReduceOp<T>> = Tail<'g, T>;

    fn build<'g, T: PropValue, Op: ReduceOp<T>>(
        &'g self,
        dg: &'g DistGraph,
        ctx: &HostCtx,
        op: Op,
    ) -> Self::Map<'g, T, Op> {
        let inner: Box<dyn NodePropMap<T> + 'g> = match &self.inner {
            Inner::Npm => Box::new(NpmBuilder.build(dg, ctx, op)),
            Inner::Sharded(b) => Box::new(b.build(dg, ctx, op)),
        };
        Tail {
            inner,
            fused: self.fused,
            flags: &self.flags[ctx.host()],
        }
    }
}

type Algo = fn(&DistGraph, &HostCtx, &TailBuilder) -> Vec<(NodeId, u64)>;

/// Runs `algo` with the chosen tail; returns the merged labels and each
/// host's per-round flag log.
fn run(
    g: &Graph,
    parts: &[DistGraph],
    cluster: &Cluster,
    inner: Inner,
    fused: bool,
    algo: Algo,
) -> (Vec<u64>, Vec<Vec<bool>>) {
    let b = TailBuilder {
        inner,
        fused,
        flags: (0..HOSTS).map(|_| Mutex::new(Vec::new())).collect(),
    };
    let per_host = cluster.run(|ctx| algo(&parts[ctx.host()], ctx, &b));
    let flags = b.flags.into_iter().map(|f| f.into_inner().unwrap()).collect();
    (merge_master_values(g.num_nodes(), per_host), flags)
}

#[test]
fn fused_tail_equals_three_call_tail_everywhere() {
    let algos: [(&str, Algo); 5] = [
        ("cc-lp", |dg, ctx, b| cc::cc_lp(dg, ctx, b)),
        ("cc-sv", |dg, ctx, b| cc::cc_sv(dg, ctx, b)),
        ("cc-sclp", |dg, ctx, b| cc::cc_sclp(dg, ctx, b)),
        ("bfs", |dg, ctx, b| bfs(dg, ctx, b, 0)),
        ("sssp", |dg, ctx, b| sssp(dg, ctx, b, 0)),
    ];
    // A weighted high-diameter grid under an edge cut (the pinned-GAR fast
    // path) and a skewed graph with several components under a vertex cut.
    let inputs = [
        (gen::grid_road(5, 7, 11), Policy::EdgeCutBlocked),
        (gen::rmat(6, 3, 17), Policy::CartesianVertexCut),
    ];
    for (g, policy) in &inputs {
        let parts = partition(g, *policy, HOSTS);
        for threads in [1, 2] {
            let backends = [
                ("in-proc", Cluster::with_threads(HOSTS, threads)),
                ("sim", Cluster::with_threads(HOSTS, threads).sim(29)),
                ("tcp", Cluster::with_threads(HOSTS, threads).tcp()),
            ];
            for (backend, cluster) in &backends {
                let maps = [
                    Inner::Sharded(ShardedBuilder::sgr_only()),
                    Inner::Sharded(ShardedBuilder::sgr_cf()),
                    Inner::Npm,
                ];
                for inner in maps {
                    for (name, algo) in algos {
                        let what = format!("{name} {inner:?} x{threads} {backend} {policy:?}");
                        let fused = run(g, &parts, cluster, inner, true, algo);
                        let split = run(g, &parts, cluster, inner, false, algo);
                        assert_eq!(fused.0, split.0, "{what}: labels differ");
                        assert_eq!(fused.1, split.1, "{what}: per-round flags differ");
                        assert!(!fused.1[0].is_empty(), "{what}: no round ran");
                        assert!(
                            fused.1.iter().all(|f| *f == fused.1[0]),
                            "{what}: hosts disagree on a round's flag"
                        );
                    }
                }
            }
        }
    }
}
