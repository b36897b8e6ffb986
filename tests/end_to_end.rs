//! Cross-crate integration tests: every algorithm, every runtime, one
//! graph suite, validated against single-threaded references.

use kimbap::engine::Engine;
use kimbap::prelude::*;
use kimbap_algos::msf::{merge_forest, msf};
use kimbap_algos::{
    cc, compose_labels, leiden, louvain, merge_master_values, mis, refcheck, NpmBuilder,
    ShardedBuilder,
};
use kimbap_baselines::{galois, gluon, mckv::McBuilder, vite};
use kimbap_compiler::{compile, programs, OptLevel};

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("road", gen::grid_road(12, 12, 1)),
        ("social", gen::rmat(8, 6, 2)),
        ("sparse", gen::erdos_renyi(150, 200, 3)),
    ]
}

#[test]
fn all_cc_algorithms_and_runtimes_agree() {
    for (name, g) in graphs() {
        let expected = refcheck::connected_components(&g);
        for hosts in [1, 3] {
            let parts = partition(&g, Policy::CartesianVertexCut, hosts);
            let b = NpmBuilder;
            for (algo_name, labels) in [
                (
                    "sv",
                    Cluster::with_threads(hosts, 2)
                        .run(|ctx| cc::cc_sv(&parts[ctx.host()], ctx, &b)),
                ),
                (
                    "lp",
                    Cluster::with_threads(hosts, 2)
                        .run(|ctx| cc::cc_lp(&parts[ctx.host()], ctx, &b)),
                ),
                (
                    "sclp",
                    Cluster::with_threads(hosts, 2)
                        .run(|ctx| cc::cc_sclp(&parts[ctx.host()], ctx, &b)),
                ),
            ] {
                assert_eq!(
                    merge_master_values(g.num_nodes(), labels),
                    expected,
                    "{algo_name} on {name} with {hosts} hosts"
                );
            }
            // Gluon baseline.
            let gl = Cluster::with_threads(hosts, 2).run(|ctx| gluon::cc_lp(&parts[ctx.host()], ctx));
            assert_eq!(merge_master_values(g.num_nodes(), gl), expected, "gluon {name}");
        }
        // Galois shared-memory.
        assert_eq!(galois::cc_lp(&g, 4), expected, "galois lp {name}");
        assert_eq!(galois::cc_sv(&g, 4), expected, "galois sv {name}");
    }
}

#[test]
fn npm_variants_and_mc_agree_on_cc_sv() {
    let g = gen::rmat(7, 4, 5);
    let expected = refcheck::connected_components(&g);
    let hosts = 3;
    let parts = partition(&g, Policy::EdgeCutBlocked, hosts);
    for b in [ShardedBuilder::sgr_only(), ShardedBuilder::sgr_cf()] {
        let labels = Cluster::with_threads(hosts, 2)
            .run(|ctx| cc::cc_sv(&parts[ctx.host()], ctx, &b));
        assert_eq!(merge_master_values(g.num_nodes(), labels), expected, "{b}");
    }
    let labels = Cluster::with_threads(hosts, 2)
        .run(|ctx| cc::cc_sv(&parts[ctx.host()], ctx, &NpmBuilder));
    assert_eq!(merge_master_values(g.num_nodes(), labels), expected, "SGR+CF+GAR");
    let mc = McBuilder::new(hosts);
    let labels =
        Cluster::with_threads(hosts, 2).run(|ctx| cc::cc_sv(&parts[ctx.host()], ctx, &mc));
    assert_eq!(merge_master_values(g.num_nodes(), labels), expected, "MC");
}

#[test]
fn msf_agrees_across_runtimes() {
    let g = gen::with_random_weights(&gen::rmat(7, 4, 8), 300, 5);
    let expected_weight = refcheck::msf_weight(&g);
    let expected_count = refcheck::msf_edge_count(&g);

    let parts = partition(&g, Policy::CartesianVertexCut, 3);
    let b = NpmBuilder;
    let per_host = Cluster::with_threads(3, 2).run(|ctx| msf(&parts[ctx.host()], ctx, &b));
    let (edges, weight) = merge_forest(per_host);
    assert_eq!((edges.len(), weight), (expected_count, expected_weight));

    let (ga_edges, ga_weight) = galois::msf(&g, 4);
    assert_eq!((ga_edges.len(), ga_weight), (expected_count, expected_weight));
}

#[test]
fn mis_valid_on_all_runtimes() {
    let g = gen::rmat(8, 4, 9);
    let parts = partition(&g, Policy::CartesianVertexCut, 2);
    let b = NpmBuilder;
    let set = merge_master_values(
        g.num_nodes(),
        Cluster::with_threads(2, 2).run(|ctx| mis(&parts[ctx.host()], ctx, &b)),
    );
    refcheck::check_mis(&g, &set).unwrap();
    // The shared-memory Galois result is also valid (possibly different —
    // it is asynchronous).
    refcheck::check_mis(&g, &galois::mis(&g, 4)).unwrap();
}

#[test]
fn community_detection_quality_chain() {
    // LV and LD (Kimbap), Vite, and Galois all report real modularity on
    // the same graph, and the distributed ones agree with the reference
    // modularity of their own labels.
    let g = gen::rmat(8, 8, 11);
    let hosts = 2;
    let parts = partition(&g, Policy::EdgeCutBlocked, hosts);
    let b = NpmBuilder;

    let lv = Cluster::with_threads(hosts, 2).run(|ctx| louvain(&parts[ctx.host()], ctx, &b));
    let lv_labels = compose_labels(g.num_nodes(), &lv);
    assert!((lv[0].modularity - refcheck::modularity(&g, &lv_labels)).abs() < 1e-9);
    assert!(lv[0].modularity > 0.0);

    let ld = Cluster::with_threads(hosts, 2).run(|ctx| leiden(&parts[ctx.host()], ctx, &b));
    let ld_labels = compose_labels(g.num_nodes(), &ld);
    assert!((ld[0].modularity - refcheck::modularity(&g, &ld_labels)).abs() < 1e-9);

    let v = Cluster::with_threads(hosts, 2).run(|ctx| {
        vite::louvain(&parts[ctx.host()], ctx, &vite::ViteConfig::default())
    });
    assert!(v[0].modularity > 0.0);

    let (_, ga_q) = galois::louvain(&g, 4, 50);
    assert!(ga_q > 0.0);
}

#[test]
fn compiled_plans_match_native_algorithms() {
    let g = gen::rmat(7, 4, 13);
    let hosts = 2;
    let parts = partition(&g, Policy::EdgeCutBlocked, hosts);
    let b = NpmBuilder;

    for (prog, native) in [
        (programs::cc_sv(), {
            let labels = Cluster::with_threads(hosts, 2)
                .run(|ctx| cc::cc_sv(&parts[ctx.host()], ctx, &b));
            merge_master_values(g.num_nodes(), labels)
        }),
        (programs::cc_lp(), {
            let labels = Cluster::with_threads(hosts, 2)
                .run(|ctx| cc::cc_lp(&parts[ctx.host()], ctx, &b));
            merge_master_values(g.num_nodes(), labels)
        }),
    ] {
        for opt in [OptLevel::Full, OptLevel::None] {
            let plan = compile(&prog, opt);
            let outs = Cluster::with_threads(hosts, 2)
                .run(|ctx| Engine::new(&parts[ctx.host()], ctx, &plan).run(ctx));
            let mut labels = vec![0u64; g.num_nodes()];
            for o in &outs {
                for &(gid, v) in &o.map_values[0] {
                    labels[gid as usize] = v;
                }
            }
            assert_eq!(labels, native, "{} at {opt:?}", prog.name);
        }
    }
}

#[test]
fn partitioning_policies_do_not_change_results() {
    let g = gen::rmat(7, 4, 17);
    let expected = refcheck::connected_components(&g);
    for policy in [Policy::EdgeCutBlocked, Policy::CartesianVertexCut] {
        let parts = partition(&g, policy, 4);
        let b = NpmBuilder;
        let labels = Cluster::with_threads(4, 1)
            .run(|ctx| cc::cc_sv(&parts[ctx.host()], ctx, &b));
        assert_eq!(
            merge_master_values(g.num_nodes(), labels),
            expected,
            "policy {policy}"
        );
    }
}
