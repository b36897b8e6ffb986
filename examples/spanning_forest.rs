//! Minimum spanning forest with distributed Boruvka — a trans-vertex
//! program that hooks components through dynamically computed nodes.
//!
//! Run with: `cargo run --release --example spanning_forest`

use std::time::Instant;

use kimbap::prelude::*;
use kimbap_algos::msf::{merge_forest, msf};
use kimbap_algos::{refcheck, NpmBuilder};

fn main() {
    let hosts = 4;
    // A weighted road-network analog: high diameter, small degrees.
    let g = gen::grid_road(250, 250, 3);
    println!("input: {}", GraphStats::of(&g));

    let parts = partition(&g, Policy::CartesianVertexCut, hosts);
    let builder = NpmBuilder;

    let t = Instant::now();
    let per_host = Cluster::with_threads(hosts, 2).run(|ctx| msf(&parts[ctx.host()], ctx, &builder));
    let elapsed = t.elapsed();

    let (edges, total) = merge_forest(per_host);
    println!(
        "forest: {} edges, total weight {total}, found in {elapsed:.2?}",
        edges.len()
    );

    // Verify against single-threaded Kruskal.
    assert_eq!(total, refcheck::msf_weight(&g));
    assert_eq!(edges.len(), refcheck::msf_edge_count(&g));
    println!("matches Kruskal reference — OK");
}
