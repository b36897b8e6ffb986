//! Differential tests of the local-id accessors: `read_local`,
//! `reduce_local` and `request_local` must be indistinguishable from
//! `read`, `reduce` and `request` on the proxy's global id — same values,
//! same canonical state after the sync, same traffic — for every local id,
//! under every runtime variant, pinning mode and partition policy.
//! `read_local` is checked twice: the inherent accessor compiled
//! plans call and the trait-level `NodePropMap::read_local` hand-written
//! operators call (the translating default other backends inherit is
//! pinned by `kimbap-baselines`' `community_detection_agrees_across_backends`).

use kimbap_comm::Cluster;
use kimbap_dist::{partition, Policy};
use kimbap_graph::builder::from_edges;
use kimbap_npm::{Min, NodePropMap, Npm, Variant};
use proptest::prelude::*;

const HOSTS: usize = 3;

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
    variant: Variant,
    pinned: bool,
) -> Vec<Observed> {
    let g = from_edges(edges.iter().copied());
    let parts = partition(&g, policy, HOSTS);
    Cluster::with_threads(HOSTS, 2).run(|ctx| {
        let dg = &parts[ctx.host()];
        let make = || {
            let mut m: Npm<u64, Min> = Npm::with_variant(dg, ctx, Min, variant);
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
                by_lid.request_local(l);
            }
            by_key.request_sync(ctx);
            by_lid.request_sync(ctx);
        }
        let read_all = |by_key: &Npm<u64, Min>, by_lid: &Npm<u64, Min>, mirrors: bool| {
            let n = if mirrors {
                dg.num_local_nodes()
            } else {
                dg.num_masters()
            };
            (0..n as u32)
                .map(|l| {
                    let by_trait = NodePropMap::read_local(by_lid, dg, l);
                    assert_eq!(by_trait, by_lid.read_local(l), "lid {l}: trait vs inherent");
                    (by_key.read(dg.local_to_global(l)), by_trait)
                })
                .collect::<Vec<_>>()
        };
        let before = read_all(&by_key, &by_lid, true);

        // One thread id per call site keeps the per-thread partial buffers
        // of the two maps in step, so their wire images can be compared.
        let n = dg.num_local_nodes() as u32;
        for (i, &(pick, v)) in loads[ctx.host()].iter().enumerate() {
            let l = pick % n;
            by_key.reduce(i % 2, dg.local_to_global(l), v);
            by_lid.reduce_local(i % 2, l, v);
        }
        let mut traffic = [(0, 0); 2];
        let maps: [&mut Npm<u64, Min>; 2] = [&mut by_key, &mut by_lid];
        for (m, t) in maps.into_iter().zip(&mut traffic) {
            let s0 = ctx.stats();
            m.reduce_sync(ctx);
            if pinned {
                m.broadcast_sync(ctx);
            }
            let s1 = ctx.stats();
            *t = (s1.messages - s0.messages, s1.bytes - s0.bytes);
        }
        // Unpinned mirrors are dropped by the reduce-sync (for the
        // partition-aware variant; the others keep every proxy resident).
        let mirrors_readable = pinned || !variant.partition_aware();
        (
            before,
            traffic,
            read_all(&by_key, &by_lid, mirrors_readable),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn local_id_accessors_match_the_global_id_interface(
        edges in edge_list(),
        loads in workload(),
    ) {
        for policy in [Policy::EdgeCutBlocked, Policy::CartesianVertexCut] {
            for variant in [Variant::SgrOnly, Variant::SgrCf, Variant::SgrCfGar] {
                for pinned in [true, false] {
                    let what = format!("{policy:?} {variant:?} pinned={pinned}");
                    for (h, (before, traffic, after)) in
                        run(&edges, &loads, policy, variant, pinned).into_iter().enumerate()
                    {
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
/// on every variant: the same value where proxies stay resident, the same
/// panic message where they do not.
#[test]
fn read_local_of_an_unrequested_mirror_panics_like_read() {
    let g = from_edges((0..12u32).map(|i| (i, (i + 1) % 12, 1)));
    let parts = partition(&g, Policy::EdgeCutBlocked, 2);
    for variant in [Variant::SgrOnly, Variant::SgrCf, Variant::SgrCfGar] {
        let outcomes = Cluster::new(2).run(|ctx| {
            let dg = &parts[ctx.host()];
            let mut m: Npm<u64, Min> = Npm::with_variant(dg, ctx, Min, variant);
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
            let by_lid = catch(&|| m.read_local(mirror));
            let by_trait = catch(&|| NodePropMap::read_local(&m, dg, mirror));
            // Masters stay readable, and so does the mirror once requested.
            assert_eq!(NodePropMap::read_local(&m, dg, 0), dg.local_to_global(0) as u64);
            m.request_local(mirror);
            m.request_sync(ctx);
            assert_eq!(NodePropMap::read_local(&m, dg, mirror), dg.local_to_global(mirror) as u64);
            [by_key, by_lid, by_trait]
        });
        for [by_key, by_lid, by_trait] in outcomes {
            assert_eq!(by_lid, by_key, "{variant}");
            assert_eq!(by_trait, by_key, "{variant}");
            match by_key {
                // Only the partition-aware map drops unrequested mirrors.
                Err(message) => {
                    assert_eq!(variant, Variant::SgrCfGar);
                    assert!(message.contains("neither requested nor pinned"), "{message}");
                }
                Ok(_) => assert_ne!(variant, Variant::SgrCfGar),
            }
        }
    }
}

/// Read counters move the same way through both accessors.
#[test]
fn read_local_counts_reads_like_read() {
    let g = from_edges((0..12u32).map(|i| (i, (i + 1) % 12, 1)));
    let parts = partition(&g, Policy::EdgeCutBlocked, 2);
    Cluster::new(2).run(|ctx| {
        let dg = &parts[ctx.host()];
        let make = || {
            let mut m: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            m.enable_read_stats();
            m.pin_mirrors(ctx);
            m
        };
        let (by_key, by_lid) = (make(), make());
        for l in dg.local_nodes() {
            by_key.read(dg.local_to_global(l));
            by_lid.read_local(l);
            by_key.reduce(0, dg.local_to_global(l), 1);
            by_lid.reduce_local(0, l, 1);
        }
        assert_eq!(by_key.read_stats(), by_lid.read_stats());
        assert!(by_lid.read_stats().remote_reads > 0);
    });
}
