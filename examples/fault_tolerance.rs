//! Fault injection and recovery on the simulated cluster.
//!
//! Runs connected components three times on the same graph: fault-free,
//! under seeded frame faults (drops + corruption, survived by the
//! retransmitting collectives), and with a mid-run host crash (survived
//! by whole-closure replay). All three must agree bit-for-bit.
//!
//! Run with: `cargo run --release --example fault_tolerance`

use kimbap::prelude::*;
use kimbap_algos::{cc::cc_lp, merge_master_values, NpmBuilder};

const HOSTS: usize = 3;

fn run(g: &Graph, plan: FaultPlan, recovering: bool) -> (Vec<u64>, u64) {
    let parts = partition(g, Policy::EdgeCutBlocked, HOSTS);
    let b = NpmBuilder;
    let cluster = Cluster::with_threads(HOSTS, 2);
    let out = cluster.run_with_faults(plan, |ctx| {
        let labels = if recovering {
            ctx.run_recovering(|ctx| cc_lp(&parts[ctx.host()], ctx, &b))
        } else {
            cc_lp(&parts[ctx.host()], ctx, &b)
        };
        (labels, ctx.stats().retransmits)
    });
    let retx = out.iter().map(|(_, r)| r).sum();
    let labels = merge_master_values(g.num_nodes(), out.into_iter().map(|(l, _)| l).collect());
    (labels, retx)
}

fn main() {
    let g = gen::rmat(10, 8, 7);
    println!(
        "graph: {} nodes / {} edges, {HOSTS} hosts",
        g.num_nodes(),
        g.num_edges()
    );

    let (baseline, _) = run(&g, FaultPlan::new(), false);
    println!("fault-free:        {} components", count(&baseline));

    // Seeded frame faults: targeted drop + corruption, plus 2% random drops.
    let noisy = FaultPlan::new()
        .drop_frame(0, 1, 1)
        .corrupt_frame(1, 2, 2, 17)
        .with_seed(7)
        .drop_rate(0.02);
    let (labels, retx) = run(&g, noisy, false);
    assert_eq!(labels, baseline, "frame faults changed the output");
    println!("drops+corruption:  {} components ({retx} frames retransmitted)", count(&labels));

    // Host 1 dies entering round 2; every host replays from the top.
    let (labels, _) = run(&g, FaultPlan::new().crash_host(1, 2), true);
    assert_eq!(labels, baseline, "crash recovery changed the output");
    println!("mid-run crash:     {} components (recovered, bit-identical)", count(&labels));
}

fn count(labels: &[u64]) -> usize {
    let mut roots: Vec<u64> = labels.to_vec();
    roots.sort_unstable();
    roots.dedup();
    roots.len()
}
