//! Classic traversal workloads (BFS, SSSP, PageRank) on the Kimbap
//! node-property map — the framework is not limited to the paper's seven
//! algorithms.
//!
//! Run with: `cargo run --release --example traversals`

use std::time::Instant;

use kimbap::prelude::*;
use kimbap_algos::extra::{bfs, pagerank, sssp, PR_SCALE, UNREACHED};
use kimbap_algos::{merge_master_values, NpmBuilder};

fn main() {
    let hosts = 4;
    let g = gen::rmat(12, 8, 11);
    println!("input: {}", GraphStats::of(&g));
    let parts = partition(&g, Policy::CartesianVertexCut, hosts);
    let b = NpmBuilder;
    let cluster = Cluster::with_threads(hosts, 2);

    // BFS levels from node 0.
    let t = Instant::now();
    let levels = merge_master_values(
        g.num_nodes(),
        cluster.run(|ctx| bfs(&parts[ctx.host()], ctx, &b, 0)),
    );
    let reached = levels.iter().filter(|&&l| l != UNREACHED).count();
    let depth = levels.iter().filter(|&&l| l != UNREACHED).max().unwrap();
    println!("BFS     : reached {reached} nodes, depth {depth}, in {:.2?}", t.elapsed());

    // Weighted shortest paths.
    let gw = gen::with_random_weights(&g, 100, 3);
    let parts_w = partition(&gw, Policy::CartesianVertexCut, hosts);
    let t = Instant::now();
    let dist = merge_master_values(
        gw.num_nodes(),
        cluster.run(|ctx| sssp(&parts_w[ctx.host()], ctx, &b, 0)),
    );
    let far = dist.iter().filter(|&&d| d != UNREACHED).max().unwrap();
    println!("SSSP    : farthest reachable distance {far}, in {:.2?}", t.elapsed());

    // PageRank (10 iterations).
    let t = Instant::now();
    let ranks = merge_master_values(
        g.num_nodes(),
        cluster.run(|ctx| pagerank(&parts[ctx.host()], ctx, &b, 10)),
    );
    let top = (0..g.num_nodes()).max_by_key(|&u| ranks[u]).unwrap();
    println!(
        "PageRank: top node {top} (degree {}), rank {:.3}, in {:.2?}",
        g.degree(top as u32),
        ranks[top] as f64 / PR_SCALE as f64,
        t.elapsed()
    );
    // The top-ranked node should be a hub.
    assert!(g.degree(top as u32) as f64 >= 0.2 * g.max_degree() as f64);
}
