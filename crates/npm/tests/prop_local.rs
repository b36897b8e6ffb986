//! Differential tests of the local-id accessors: `read_local`,
//! `reduce_local` and `request_local` must be indistinguishable from
//! `read`, `reduce` and `request` on the proxy's global id — same values,
//! same canonical state after the sync, same traffic — for every local id,
//! under every pinning mode and partition policy. `read_local` is checked
//! twice: the inherent accessor compiled plans call and the trait-level
//! `NodePropMap::read_local` hand-written operators call. The sharded
//! baseline of Fig. 11's SGR-only and SGR+CF rows has no local-id
//! accessors; it runs the same cases through the translation it stands
//! for, which pins the trait's translating default (also pinned by
//! `kimbap-baselines`' `community_detection_agrees_across_backends`).

use kimbap_comm::{Cluster, HostCtx};
use kimbap_dist::{partition, DistGraph, LocalId, Policy};
use kimbap_graph::builder::from_edges;
use kimbap_npm::{Min, NodePropMap, Npm, ShardedMap};
use proptest::prelude::*;

const HOSTS: usize = 3;

/// The local-id accessors under test.
trait ByLid: NodePropMap<u64> {
    fn read_lid(&self, dg: &DistGraph, lid: LocalId) -> u64;
    fn reduce_lid(&self, dg: &DistGraph, tid: usize, lid: LocalId, value: u64);
    fn request_lid(&self, dg: &DistGraph, lid: LocalId);
}

impl ByLid for Npm<'_, u64, Min> {
    fn read_lid(&self, _: &DistGraph, lid: LocalId) -> u64 {
        self.read_local(lid)
    }
    fn reduce_lid(&self, _: &DistGraph, tid: usize, lid: LocalId, value: u64) {
        self.reduce_local(tid, lid, value)
    }
    fn request_lid(&self, _: &DistGraph, lid: LocalId) {
        self.request_local(lid)
    }
}

impl ByLid for ShardedMap<u64, Min> {
    fn read_lid(&self, dg: &DistGraph, lid: LocalId) -> u64 {
        self.read(dg.local_to_global(lid))
    }
    fn reduce_lid(&self, dg: &DistGraph, tid: usize, lid: LocalId, value: u64) {
        self.reduce(tid, dg.local_to_global(lid), value)
    }
    fn request_lid(&self, dg: &DistGraph, lid: LocalId) {
        self.request(dg.local_to_global(lid))
    }
}

type Make = for<'a> fn(&'a DistGraph, &HostCtx) -> Box<dyn ByLid + 'a>;

fn sgr_only<'a>(dg: &'a DistGraph, ctx: &HostCtx) -> Box<dyn ByLid + 'a> {
    Box::new(ShardedMap::new(dg, ctx, Min, false))
}

fn sgr_cf<'a>(dg: &'a DistGraph, ctx: &HostCtx) -> Box<dyn ByLid + 'a> {
    Box::new(ShardedMap::new(dg, ctx, Min, true))
}

fn gar<'a>(dg: &'a DistGraph, ctx: &HostCtx) -> Box<dyn ByLid + 'a> {
    Box::new(Npm::new(dg, ctx, Min))
}

/// Fig. 11's three Kimbap rows, and whether each keeps every proxy
/// resident (only the product map drops unpinned, unrequested mirrors).
const ROWS: [(&str, Make, bool); 3] =
    [("SGR-only", sgr_only, true), ("SGR+CF", sgr_cf, true), ("SGR+CF+GAR", gar, false)];

fn edge_list() -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    prop::collection::vec((0u32..40, 0u32..40, Just(1u64)), 1..120)
}

/// Per host: `(pick, value)` reductions; `pick` selects a local id.
fn workload() -> impl Strategy<Value = Vec<Vec<(u32, u64)>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..10_000, 0u64..60_000), 0..80),
        HOSTS,
    )
}

/// What one host observed: every local id's value through both accessors
/// before the reductions, `(messages, bytes)` of each map's reduce-sync,
/// and every readable local id's value through both afterwards.
type Observed = (Vec<(u64, u64)>, [(u64, u64); 2], Vec<(u64, u64)>);

/// Runs the same workload on two maps over one partition — `by_key`
/// through the global-id trait methods, `by_lid` through the local-id
/// accessors — and reports what each host saw.
fn run(
    edges: &[(u32, u32, u64)],
    loads: &[Vec<(u32, u64)>],
    policy: Policy,
    (make, resident): (Make, bool),
    pinned: bool,
) -> Vec<Observed> {
    let g = from_edges(edges.iter().copied());
    let parts = partition(&g, policy, HOSTS);
    Cluster::with_threads(HOSTS, 2).run(|ctx| {
        let dg = &parts[ctx.host()];
        let make = || {
            let mut m = make(dg, ctx);
            m.init_masters(&|g| 50_000 - g as u64);
            m
        };
        let (mut by_key, mut by_lid) = (make(), make());
        if pinned {
            by_key.pin_mirrors(ctx);
            by_lid.pin_mirrors(ctx);
        } else {
            for l in dg.local_nodes() {
                by_key.request(dg.local_to_global(l));
                by_lid.request_lid(dg, l);
            }
            by_key.request_sync(ctx);
            by_lid.request_sync(ctx);
        }
        let read_all = |by_key: &dyn ByLid, by_lid: &dyn ByLid, mirrors: bool| {
            let n = if mirrors {
                dg.num_local_nodes()
            } else {
                dg.num_masters()
            };
            (0..n as u32)
                .map(|l| {
                    let by_trait = by_lid.read_local(dg, l);
                    assert_eq!(by_trait, by_lid.read_lid(dg, l), "lid {l}: trait vs inherent");
                    (by_key.read(dg.local_to_global(l)), by_trait)
                })
                .collect::<Vec<_>>()
        };
        let before = read_all(&*by_key, &*by_lid, true);

        // One thread id per call site keeps the per-thread partial buffers
        // of the two maps in step, so their wire images can be compared.
        let n = dg.num_local_nodes() as u32;
        for (i, &(pick, v)) in loads[ctx.host()].iter().enumerate() {
            let l = pick % n;
            by_key.reduce(i % 2, dg.local_to_global(l), v);
            by_lid.reduce_lid(dg, i % 2, l, v);
        }
        let mut traffic = [(0, 0); 2];
        let maps = [&mut by_key, &mut by_lid];
        for (m, t) in maps.into_iter().zip(&mut traffic) {
            let s0 = ctx.stats();
            m.reduce_sync(ctx);
            if pinned {
                m.broadcast_sync(ctx);
            }
            let s1 = ctx.stats();
            *t = (s1.messages - s0.messages, s1.bytes - s0.bytes);
        }
        // Unpinned mirrors are dropped by the product map's reduce-sync;
        // the sharded baseline keeps every proxy resident.
        (before, traffic, read_all(&*by_key, &*by_lid, pinned || resident))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn local_id_accessors_match_the_global_id_interface(
        edges in edge_list(),
        loads in workload(),
    ) {
        let policies = [Policy::EdgeCutBlocked, Policy::CartesianVertexCut];
        for policy in policies {
            for (row, make, resident) in ROWS {
                for pinned in [true, false] {
                    let what = format!("{policy:?} {row} pinned={pinned}");
                    let observed = run(&edges, &loads, policy, (make, resident), pinned);
                    for (h, (before, traffic, after)) in observed.into_iter().enumerate() {
                        for (l, (by_key, by_lid)) in before.iter().enumerate() {
                            prop_assert_eq!(by_key, by_lid, "{}: host {} lid {} before", what, h, l);
                        }
                        prop_assert_eq!(traffic[0], traffic[1], "{}: host {} traffic", what, h);
                        for (l, (by_key, by_lid)) in after.iter().enumerate() {
                            prop_assert_eq!(by_key, by_lid, "{}: host {} lid {} after", what, h, l);
                        }
                    }
                }
            }
        }
    }
}

/// An unpinned, unrequested mirror reads the same through every accessor
/// on every row: the same value where proxies stay resident, the same
/// panic message where they do not.
#[test]
fn read_local_of_an_unrequested_mirror_panics_like_read() {
    let g = from_edges((0..12u32).map(|i| (i, (i + 1) % 12, 1)));
    let parts = partition(&g, Policy::EdgeCutBlocked, 2);
    for (row, make, resident) in ROWS {
        let outcomes = Cluster::new(2).run(|ctx| {
            let dg = &parts[ctx.host()];
            let mut m = make(dg, ctx);
            m.init_masters(&|g| g as u64);
            let mirror = dg
                .mirror_nodes()
                .next()
                .expect("a ring partition has mirrors");
            let catch = |f: &dyn Fn() -> u64| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
                    payload
                        .downcast_ref::<String>()
                        .expect("panic message")
                        .clone()
                })
            };
            let by_key = catch(&|| m.read(dg.local_to_global(mirror)));
            let by_lid = catch(&|| m.read_lid(dg, mirror));
            let by_trait = catch(&|| m.read_local(dg, mirror));
            // Masters stay readable, and so does the mirror once requested.
            assert_eq!(m.read_local(dg, 0), dg.local_to_global(0) as u64);
            m.request_lid(dg, mirror);
            m.request_sync(ctx);
            assert_eq!(m.read_local(dg, mirror), dg.local_to_global(mirror) as u64);
            [by_key, by_lid, by_trait]
        });
        for [by_key, by_lid, by_trait] in outcomes {
            assert_eq!(by_lid, by_key, "{row}");
            assert_eq!(by_trait, by_key, "{row}");
            match by_key {
                // Only the product map drops unrequested mirrors.
                Err(message) => {
                    assert!(!resident, "{row}");
                    assert!(message.contains("neither requested nor pinned"), "{message}");
                }
                Ok(_) => assert!(resident, "{row}"),
            }
        }
    }
}
