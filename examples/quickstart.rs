//! Quickstart: connected components with a trans-vertex algorithm.
//!
//! Builds a small two-component graph, partitions it across a simulated
//! 2-host cluster, runs Shiloach-Vishkin (the paper's running example),
//! and prints the labels plus the communication bill.
//!
//! Run with: `cargo run --release --example quickstart`

use kimbap::prelude::*;
use kimbap_algos::{cc, merge_master_values, NpmBuilder};

fn main() {
    // A path 0-1-2-3-4 and a triangle 10-11-12, plus an isolated node.
    let mut b = GraphBuilder::new();
    for i in 0..4u32 {
        b.add_edge(i, i + 1, 1);
    }
    b.add_edge(10, 11, 1).add_edge(11, 12, 1).add_edge(12, 10, 1);
    b.ensure_nodes(14);
    let g = b.symmetric(true).build();
    println!("input: {}", GraphStats::of(&g));

    // Partition edges across 2 hosts with a Cartesian vertex-cut (what the
    // paper uses for CC) and run CC-SV on every host, SPMD-style.
    let parts = partition(&g, Policy::CartesianVertexCut, 2);
    let builder = NpmBuilder; // SGR + CF + GAR
    let outputs = Cluster::with_threads(2, 2).run(|ctx| {
        let labels = cc::cc_sv(&parts[ctx.host()], ctx, &builder);
        (labels, ctx.stats())
    });

    let (label_lists, stats): (Vec<_>, Vec<_>) = outputs.into_iter().unzip();
    let labels = merge_master_values(g.num_nodes(), label_lists);
    println!("components: {labels:?}");
    assert_eq!(labels[0..5], [0, 0, 0, 0, 0]);
    assert_eq!(labels[10..13], [10, 10, 10]);
    assert_eq!(labels[13], 13); // isolated node is its own component

    for (host, s) in stats.iter().enumerate() {
        println!(
            "host {host}: {} msgs, {} bytes, {:.2} ms in communication",
            s.messages,
            s.bytes,
            s.comm_nanos as f64 / 1e6
        );
    }
}
