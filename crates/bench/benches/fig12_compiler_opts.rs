//! Figure 12: compiled programs with and without the §5.2 compiler
//! optimizations (master-elision and pinned mirrors), for the two
//! adjacent-vertex programs CC-LP and MIS, with the comp/comm breakdown.
//!
//! Both plans execute on the same engine and runtime; only the generated
//! communication differs. Expected shape: NO-OPT is strictly slower and
//! moves strictly more bytes; the gap grows with rounds and graph size
//! (the paper reports 79× total at cluster scale).

use kimbap::engine::Engine;
use kimbap_bench::{print_row, print_title, run_timed, threads_per_host, Inputs};
use kimbap_compiler::{compile, programs, OptLevel};
use kimbap_dist::{partition, Policy};
use kimbap_graph::Graph;

fn fmt(secs: f64) -> String {
    format!("{secs:.3}s")
}

fn bench(name: &str, app: &str, prog: &kimbap_compiler::ir::Program, g: &Graph, hosts: usize) {
    let threads = threads_per_host();
    let parts = partition(g, Policy::EdgeCutBlocked, hosts);
    let mut measured = Vec::new();
    for (label, opt) in [("OPT", OptLevel::Full), ("NO-OPT", OptLevel::None)] {
        let plan = compile(prog, opt);
        let (outs, s) = run_timed(&parts, threads, |dg, ctx| {
            Engine::new(dg, ctx, &plan).run(ctx).rounds
        });
        print_row(&[
            app.into(),
            name.into(),
            label.into(),
            hosts.to_string(),
            fmt(s.secs),
            fmt(s.comp_secs()),
            fmt(s.comm_secs()),
            format!("{}B", s.totals.bytes),
            format!("{}rnd", outs[0]),
        ]);
        measured.push(s.totals.bytes);
    }
    assert!(
        measured[1] >= measured[0],
        "{app}/{name}: NO-OPT must not move fewer bytes than OPT"
    );
}

fn main() {
    let hosts_list = Inputs::medium_hosts();
    print_title(
        "Figure 12: compile-time optimizations ON vs OFF (comp/comm breakdown)",
        "identical programs, identical runtime; only the generated requests/broadcasts differ",
    );
    print_row(&[
        "app".into(),
        "graph".into(),
        "mode".into(),
        "hosts".into(),
        "total".into(),
        "comp".into(),
        "comm".into(),
        "bytes".into(),
        "rounds".into(),
    ]);
    let road = Inputs::road();
    let social = Inputs::social();
    let cc_lp = programs::cc_lp();
    let mis = programs::mis();
    for &hosts in &hosts_list {
        bench("road", "CC-LP", &cc_lp, &road, hosts);
        bench("social", "CC-LP", &cc_lp, &social, hosts);
        bench("road", "MIS", &mis, &road, hosts);
        bench("social", "MIS", &mis, &social, hosts);
    }
    println!("\nexpected shape: NO-OPT strictly more bytes and more time per row.");
}
