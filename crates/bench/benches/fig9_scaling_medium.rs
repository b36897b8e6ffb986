//! Figure 9: strong scaling on the medium-size graphs (paper: 1–16 hosts).
//!
//! Five panels: (a) LV — Kimbap vs Vite; (b) LD; (c) CC — Gluon-LP vs
//! Kimbap LP/SCLP/SV; (d) MSF; (e) MIS. Expected shapes: Kimbap-LV beats
//! Vite; CC-SCLP/SV beat CC-LP on the road graph and lose on the power-law
//! graph; all Kimbap applications scale with host count.

use kimbap_algos as algos;
use kimbap_algos::NpmBuilder;
use kimbap_baselines::{gluon, vite};
use kimbap_bench::{print_row, print_title, run_timed, threads_per_host, Inputs};
use kimbap_dist::{partition, Policy};
use kimbap_graph::Graph;

fn bench_graph(name: &str, g: &Graph, weighted: &Graph, hosts_list: &[usize]) {
    let threads = threads_per_host();
    let b = NpmBuilder;
    let vcfg = vite::ViteConfig::default();

    for &hosts in hosts_list {
        let ec = partition(g, Policy::EdgeCutBlocked, hosts);
        let cvc = partition(g, Policy::CartesianVertexCut, hosts);
        let cvc_w = partition(weighted, Policy::CartesianVertexCut, hosts);

        // (a) LV: Kimbap vs Vite (both on the edge-cut, like the paper).
        let (_, s) = run_timed(&ec, threads, |dg, ctx| algos::louvain(dg, ctx, &b));
        print_row(&[name.into(), "LV/kimbap".into(), hosts.to_string(), fmt(s.secs)]);
        let (_, s) = run_timed(&ec, threads, |dg, ctx| vite::louvain(dg, ctx, &vcfg));
        print_row(&[name.into(), "LV/vite".into(), hosts.to_string(), fmt(s.secs)]);

        // (b) LD.
        let (_, s) = run_timed(&ec, threads, |dg, ctx| algos::leiden(dg, ctx, &b));
        print_row(&[name.into(), "LD/kimbap".into(), hosts.to_string(), fmt(s.secs)]);

        // (c) CC: four systems on the Cartesian vertex-cut.
        let (_, s) = run_timed(&cvc, threads, gluon::cc_lp);
        print_row(&[name.into(), "CC/gluon-lp".into(), hosts.to_string(), fmt(s.secs)]);
        let (_, s) = run_timed(&cvc, threads, |dg, ctx| algos::cc::cc_lp(dg, ctx, &b));
        print_row(&[name.into(), "CC/kimbap-lp".into(), hosts.to_string(), fmt(s.secs)]);
        let (_, s) = run_timed(&cvc, threads, |dg, ctx| algos::cc::cc_sclp(dg, ctx, &b));
        print_row(&[name.into(), "CC/kimbap-sclp".into(), hosts.to_string(), fmt(s.secs)]);
        let (_, s) = run_timed(&cvc, threads, |dg, ctx| algos::cc::cc_sv(dg, ctx, &b));
        print_row(&[name.into(), "CC/kimbap-sv".into(), hosts.to_string(), fmt(s.secs)]);

        // (d) MSF on the weighted graph.
        let (_, s) = run_timed(&cvc_w, threads, |dg, ctx| algos::msf(dg, ctx, &b));
        print_row(&[name.into(), "MSF/kimbap".into(), hosts.to_string(), fmt(s.secs)]);

        // (e) MIS.
        let (_, s) = run_timed(&cvc, threads, |dg, ctx| algos::mis(dg, ctx, &b));
        print_row(&[name.into(), "MIS/kimbap".into(), hosts.to_string(), fmt(s.secs)]);
    }
}

/// Wall-clock strong scaling needs real cores; warn when the simulated
/// cluster is time-sliced onto fewer.
fn warn_if_serialized() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 4 {
        println!(
            "note: only {cores} CPU core(s) available — simulated hosts time-slice,\n\
             so wall-clock times will NOT drop as hosts increase; compare systems\n\
             within a host count instead."
        );
    }
}

fn fmt(secs: f64) -> String {
    format!("{secs:.3}s")
}

fn main() {
    warn_if_serialized();
    let hosts = Inputs::medium_hosts();
    print_title(
        "Figure 9: strong scaling, medium graphs",
        &format!(
            "hosts {hosts:?} x {} threads each (override: KIMBAP_HOSTS_MEDIUM, KIMBAP_THREADS)",
            threads_per_host()
        ),
    );
    print_row(&[
        "graph".into(),
        "app/system".into(),
        "hosts".into(),
        "time".into(),
    ]);
    let road = Inputs::road();
    bench_graph("road", &road, &road, &hosts); // grid is already weighted
    let social = Inputs::social();
    let social_w = Inputs::weighted(&social);
    bench_graph("social", &social, &social_w, &hosts);
    println!(
        "\nexpected shapes: LV/kimbap < LV/vite; on road, CC sclp/sv << lp;\n\
         on social, CC lp wins; kimbap-lp ~ gluon-lp."
    );
}
