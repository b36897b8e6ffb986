//! §4.2's motivating measurement: the fraction of node-property reads that
//! hit *master* properties.
//!
//! Paper: 65% of reads are master reads on 4 hosts, 50% on 32 hosts — far
//! above the ~3% of nodes that are masters per host — which is the
//! locality GAR exploits by keeping master properties in a dense local
//! vector.
//!
//! This bench runs the library's CC-SV (the paper's running example) on
//! [`Npm`] maps wrapped by a counting [`MapBuilder`], which classifies
//! every read by its key's owner, then reports the read mix.

use kimbap_algos::{cc, merge_master_values, refcheck, MapBuilder};
use kimbap_bench::{print_row, print_title, threads_per_host, Inputs};
use kimbap_comm::{Cluster, HostCtx};
use kimbap_dist::{partition, DistGraph, Policy};
use kimbap_graph::{Graph, NodeId};
use kimbap_npm::{NodePropMap, Npm, PropValue, ReduceOp};
use std::sync::atomic::{AtomicU64, Ordering};

/// Builds [`Npm`] maps that count master and remote reads, summed over
/// every host and thread.
#[derive(Default)]
struct CountingBuilder {
    master: AtomicU64,
    remote: AtomicU64,
}

/// An [`Npm`] whose reads are counted: a read of a key this host owns is
/// a master read, any other is a remote read (a mirror or a requested
/// key). `read_local` keeps the trait's default, which reads through
/// `read`.
struct CountingMap<'g, T: PropValue, Op: ReduceOp<T>> {
    inner: Npm<'g, T, Op>,
    dg: &'g DistGraph,
    counts: &'g CountingBuilder,
}

impl MapBuilder for CountingBuilder {
    type Map<'g, T: PropValue, Op: ReduceOp<T>> = CountingMap<'g, T, Op>;

    fn build<'g, T: PropValue, Op: ReduceOp<T>>(
        &'g self,
        dg: &'g DistGraph,
        ctx: &HostCtx,
        op: Op,
    ) -> CountingMap<'g, T, Op> {
        CountingMap {
            inner: Npm::new(dg, ctx, op),
            dg,
            counts: self,
        }
    }
}

impl<T: PropValue, Op: ReduceOp<T>> CountingMap<'_, T, Op> {
    fn count(&self, master: bool) {
        let c = if master {
            &self.counts.master
        } else {
            &self.counts.remote
        };
        c.fetch_add(1, Ordering::Relaxed);
    }
}

impl<T: PropValue, Op: ReduceOp<T>> NodePropMap<T> for CountingMap<'_, T, Op> {
    fn init_masters(&mut self, f: &dyn Fn(NodeId) -> T) {
        self.inner.init_masters(f)
    }
    fn read(&self, key: NodeId) -> T {
        self.count(self.dg.ownership().owner(key) == self.dg.host());
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
    fn reset_values(&mut self, ctx: &HostCtx) {
        self.inner.reset_values(ctx)
    }
    fn is_updated(&self, ctx: &HostCtx) -> bool {
        self.inner.is_updated(ctx)
    }
    fn sync_round(&mut self, ctx: &HostCtx) -> bool {
        self.inner.sync_round(ctx)
    }
}

/// CC-SV on counting maps: (master reads, remote reads) and the labels.
fn cc_sv_counted(g: &Graph, hosts: usize) -> (u64, u64, Vec<u64>) {
    let parts = partition(g, Policy::CartesianVertexCut, hosts);
    let counts = CountingBuilder::default();
    let out = Cluster::with_threads(hosts, threads_per_host())
        .run(|ctx| cc::cc_sv(&parts[ctx.host()], ctx, &counts));
    let labels = merge_master_values(g.num_nodes(), out);
    (
        counts.master.into_inner(),
        counts.remote.into_inner(),
        labels,
    )
}

fn main() {
    print_title(
        "Read locality (§4.2): master vs remote property reads, CC-SV",
        "paper: 65% master reads on 4 hosts, 50% on 32 — GAR's motivation",
    );
    print_row(&[
        "graph".into(),
        "hosts".into(),
        "master%".into(),
        "masters/host%".into(),
    ]);
    for (name, g) in [("road", Inputs::road()), ("social", Inputs::social())] {
        let expected = refcheck::connected_components(&g);
        for hosts in [2, 4] {
            let (master, remote, labels) = cc_sv_counted(&g, hosts);
            assert_eq!(labels, expected, "counted CC-SV must stay correct");
            let pct = 100.0 * master as f64 / (master + remote).max(1) as f64;
            print_row(&[
                name.into(),
                hosts.to_string(),
                format!("{pct:.1}%"),
                format!("{:.1}%", 100.0 / hosts as f64),
            ]);
        }
    }
    println!(
        "\nexpected shape: master-read share far exceeds the per-host master\n\
         fraction, and decreases as hosts increase."
    );
}
