//! Figure 10: strong scaling on the large-size graphs (paper: 32–256
//! hosts on clueweb12 and wdc12; Vite timed out there).
//!
//! Same five panels as Fig. 9, on the larger power-law analogs with more
//! hosts. The headline: Kimbap keeps scaling where the hand-optimized
//! baseline no longer finishes.

use kimbap_algos as algos;
use kimbap_algos::NpmBuilder;
use kimbap_bench::{print_row, print_title, run_timed, threads_per_host, Inputs};
use kimbap_dist::{partition, Policy};
use kimbap_graph::Graph;

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

fn bench_graph(name: &str, g: &Graph, hosts_list: &[usize], run_ld: bool) {
    let threads = threads_per_host();
    let b = NpmBuilder;
    let weighted = Inputs::weighted(g);

    for &hosts in hosts_list {
        let ec = partition(g, Policy::EdgeCutBlocked, hosts);
        let cvc = partition(g, Policy::CartesianVertexCut, hosts);
        let cvc_w = partition(&weighted, Policy::CartesianVertexCut, hosts);

        let (_, s) = run_timed(&ec, threads, |dg, ctx| algos::louvain(dg, ctx, &b));
        print_row(&[name.into(), "LV/kimbap".into(), hosts.to_string(), fmt(s.secs)]);
        if run_ld {
            // The paper's LD runs out of memory on wdc12 — we keep it to
            // clueweb12's analog as well.
            let (_, s) = run_timed(&ec, threads, |dg, ctx| algos::leiden(dg, ctx, &b));
            print_row(&[name.into(), "LD/kimbap".into(), hosts.to_string(), fmt(s.secs)]);
        }
        let (_, s) = run_timed(&cvc, threads, |dg, ctx| algos::cc::cc_lp(dg, ctx, &b));
        print_row(&[name.into(), "CC/kimbap-lp".into(), hosts.to_string(), fmt(s.secs)]);
        let (_, s) = run_timed(&cvc, threads, |dg, ctx| algos::cc::cc_sclp(dg, ctx, &b));
        print_row(&[name.into(), "CC/kimbap-sclp".into(), hosts.to_string(), fmt(s.secs)]);
        let (_, s) = run_timed(&cvc, threads, |dg, ctx| algos::cc::cc_sv(dg, ctx, &b));
        print_row(&[name.into(), "CC/kimbap-sv".into(), hosts.to_string(), fmt(s.secs)]);
        let (_, s) = run_timed(&cvc_w, threads, |dg, ctx| algos::msf(dg, ctx, &b));
        print_row(&[name.into(), "MSF/kimbap".into(), hosts.to_string(), fmt(s.secs)]);
        let (_, s) = run_timed(&cvc, threads, |dg, ctx| algos::mis(dg, ctx, &b));
        print_row(&[name.into(), "MIS/kimbap".into(), hosts.to_string(), fmt(s.secs)]);
    }
}

fn main() {
    warn_if_serialized();
    let hosts = Inputs::large_hosts();
    print_title(
        "Figure 10: strong scaling, large graphs",
        &format!(
            "hosts {hosts:?} x {} threads each (override: KIMBAP_HOSTS_LARGE); \
             Vite omitted — it times out on the paper's large inputs",
            threads_per_host()
        ),
    );
    print_row(&[
        "graph".into(),
        "app/system".into(),
        "hosts".into(),
        "time".into(),
    ]);
    bench_graph("web", &Inputs::web(), &hosts, true);
    bench_graph("hyperlink", &Inputs::hyperlink(), &hosts, false);
    println!("\nexpected shape: CC-LP remains the fastest CC on power-law inputs.");
}
