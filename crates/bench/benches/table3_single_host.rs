//! Table 3: Galois (shared-memory, 1 host) vs Kimbap on 1 host and on the
//! full cluster, for the medium graphs.
//!
//! Expected shapes (paper §6.3): comparable LV / CC-LP / MIS on one host;
//! Galois wins MSF and CC-SV on one host (asynchronous atomic pointer
//! jumping vs BSP rounds); Kimbap wins LD (no reduction conflicts); the
//! multi-host Kimbap column beats both on the bigger inputs.

use kimbap_algos as algos;
use kimbap_algos::NpmBuilder;
use kimbap_baselines::galois;
use kimbap_bench::{json, print_row, print_title, run_timed, threads_per_host, Inputs, RunStats};
use kimbap_dist::{partition, Policy};
use kimbap_graph::Graph;
use std::time::Instant;

fn fmt(secs: f64) -> String {
    format!("{secs:.3}s")
}

fn galois_time(f: impl FnOnce()) -> String {
    let t = Instant::now();
    f();
    fmt(t.elapsed().as_secs_f64())
}

fn bench_graph(name: &str, g: &Graph, cluster_hosts: usize) {
    let threads = threads_per_host();
    // Galois gets all the machine parallelism one host would have.
    let galois_threads = threads * cluster_hosts;
    let b = NpmBuilder;
    let weighted = Inputs::weighted(g);

    let one_ec = partition(g, Policy::EdgeCutBlocked, 1);
    let many_ec = partition(g, Policy::EdgeCutBlocked, cluster_hosts);
    let one_cvc = partition(g, Policy::CartesianVertexCut, 1);
    let many_cvc = partition(g, Policy::CartesianVertexCut, cluster_hosts);
    let one_w = partition(&weighted, Policy::CartesianVertexCut, 1);
    let many_w = partition(&weighted, Policy::CartesianVertexCut, cluster_hosts);

    let row = |app: &str, ga: String, k1: &RunStats, kn: &RunStats| {
        print_row(&[
            app.into(),
            name.into(),
            ga,
            fmt(k1.secs),
            fmt(kn.secs),
        ]);
        let case = format!("{name}/{app}");
        json::record("table3_single_host", &case, "kimbap", 1, k1);
        json::record("table3_single_host", &case, "kimbap", cluster_hosts, kn);
    };

    // LV.
    let ga = galois_time(|| {
        galois::louvain(g, galois_threads, 48);
    });
    let (_, k1) = run_timed(&one_ec, threads, |dg, ctx| algos::louvain(dg, ctx, &b));
    let (_, kn) = run_timed(&many_ec, threads, |dg, ctx| algos::louvain(dg, ctx, &b));
    row("LV", ga, &k1, &kn);

    // LD.
    let ga = galois_time(|| {
        galois::leiden(g, galois_threads, 48);
    });
    let (_, k1) = run_timed(&one_ec, threads, |dg, ctx| algos::leiden(dg, ctx, &b));
    let (_, kn) = run_timed(&many_ec, threads, |dg, ctx| algos::leiden(dg, ctx, &b));
    row("LD", ga, &k1, &kn);

    // MSF.
    let ga = galois_time(|| {
        galois::msf(&weighted, galois_threads);
    });
    let (_, k1) = run_timed(&one_w, threads, |dg, ctx| algos::msf(dg, ctx, &b));
    let (_, kn) = run_timed(&many_w, threads, |dg, ctx| algos::msf(dg, ctx, &b));
    row("MSF", ga, &k1, &kn);

    // CC-LP.
    let ga = galois_time(|| {
        galois::cc_lp(g, galois_threads);
    });
    let (_, k1) = run_timed(&one_cvc, threads, |dg, ctx| algos::cc::cc_lp(dg, ctx, &b));
    let (_, kn) = run_timed(&many_cvc, threads, |dg, ctx| algos::cc::cc_lp(dg, ctx, &b));
    row("CC-LP", ga, &k1, &kn);

    // CC-SV.
    let ga = galois_time(|| {
        galois::cc_sv(g, galois_threads);
    });
    let (_, k1) = run_timed(&one_cvc, threads, |dg, ctx| algos::cc::cc_sv(dg, ctx, &b));
    let (_, kn) = run_timed(&many_cvc, threads, |dg, ctx| algos::cc::cc_sv(dg, ctx, &b));
    row("CC-SV", ga, &k1, &kn);

    // MIS.
    let ga = galois_time(|| {
        galois::mis(g, galois_threads);
    });
    let (_, k1) = run_timed(&one_cvc, threads, |dg, ctx| algos::mis(dg, ctx, &b));
    let (_, kn) = run_timed(&many_cvc, threads, |dg, ctx| algos::mis(dg, ctx, &b));
    row("MIS", ga, &k1, &kn);
}

fn main() {
    let cluster_hosts = *Inputs::medium_hosts().last().unwrap_or(&4);
    print_title(
        "Table 3: Galois (1 host) vs Kimbap (1 host / cluster)",
        &format!("cluster column uses {cluster_hosts} hosts"),
    );
    print_row(&[
        "app".into(),
        "graph".into(),
        "galois-1".into(),
        "kimbap-1".into(),
        format!("kimbap-{cluster_hosts}"),
    ]);
    bench_graph("road", &Inputs::road(), cluster_hosts);
    bench_graph("social", &Inputs::social(), cluster_hosts);
    println!(
        "\nexpected shapes: galois wins MSF and CC-SV on one host (async atomics\n\
         vs BSP); LV/CC-LP/MIS comparable; kimbap-N fastest overall on social."
    );
}
