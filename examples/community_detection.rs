//! Community detection on a power-law graph: Kimbap Louvain and Leiden vs
//! the Vite baseline.
//!
//! Reproduces in miniature what Figs. 9a/9b measure: same deterministic
//! Louvain, three runtimes, timing plus modularity.
//!
//! Run with: `cargo run --release --example community_detection`

use std::time::Instant;

use kimbap::prelude::*;
use kimbap_algos::{compose_labels, leiden, louvain, refcheck, NpmBuilder};
use kimbap_baselines::vite;

fn main() {
    let hosts = 4;
    let g = gen::rmat(13, 12, 7);
    println!("input: {}", GraphStats::of(&g));
    let parts = partition(&g, Policy::EdgeCutBlocked, hosts);

    // Kimbap Louvain.
    let builder = NpmBuilder;
    let t = Instant::now();
    let results =
        Cluster::with_threads(hosts, 2).run(|ctx| louvain(&parts[ctx.host()], ctx, &builder));
    let lv_time = t.elapsed();
    let labels = compose_labels(g.num_nodes(), &results);
    let communities = {
        let mut c = labels.clone();
        c.sort_unstable();
        c.dedup();
        c.len()
    };
    println!(
        "kimbap LV : q={:.4} ({} levels, {} communities) in {:.2?}",
        results[0].modularity, results[0].levels, communities, lv_time
    );
    // The reported modularity is a real, verifiable quantity.
    let q_check = refcheck::modularity(&g, &labels);
    assert!((results[0].modularity - q_check).abs() < 1e-9);

    // Kimbap Leiden (the paper's first distributed implementation).
    let t = Instant::now();
    let ld = Cluster::with_threads(hosts, 2).run(|ctx| leiden(&parts[ctx.host()], ctx, &builder));
    println!(
        "kimbap LD : q={:.4} ({} levels) in {:.2?}",
        ld[0].modularity,
        ld[0].levels,
        t.elapsed()
    );

    // Vite baseline (hand-optimized distributed Louvain).
    let vcfg = vite::ViteConfig::default();
    let t = Instant::now();
    let v = Cluster::with_threads(hosts, 2).run(|ctx| vite::louvain(&parts[ctx.host()], ctx, &vcfg));
    println!(
        "vite LV   : q={:.4} ({} levels) in {:.2?}",
        v[0].modularity,
        v[0].levels,
        t.elapsed()
    );
}
