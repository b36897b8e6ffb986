//! Figure 11: the runtime ablation — Vite, MC (memcached), SGR-only,
//! SGR+CF, SGR+CF+GAR — for LV and CC-SV on the medium graphs, with the
//! computation/communication breakdown.
//!
//! Expected shapes (§6.4): MC slowest by far (per-key string ops + CAS
//! retries); SGR-only beats MC ~an order of magnitude; CF pays off most on
//! power-law/hub-heavy reductions; GAR adds ~another factor by keeping
//! master reads local; Vite lands between MC and SGR-only (single-threaded
//! inspection).

use kimbap_algos as algos;
use kimbap_algos::{MapBuilder, NpmBuilder, ShardedBuilder};
use kimbap_baselines::{mckv::McBuilder, vite};
use kimbap_bench::{json, print_row, print_title, run_timed, threads_per_host, Inputs};
use kimbap_comm::HostCtx;
use kimbap_dist::{partition_cfg, DistGraph, PartitionCfg, Policy};
use kimbap_graph::Graph;

fn fmt(secs: f64) -> String {
    format!("{secs:.3}s")
}

fn skip_mc() -> bool {
    std::env::var("KIMBAP_SKIP_MC").is_ok()
}

/// Smoke mode (`KIMBAP_BENCH_SMOKE`): one tiny graph, one app, one host
/// count — just enough to prove the bench runs and emits JSON records.
fn smoke() -> bool {
    std::env::var("KIMBAP_BENCH_SMOKE").is_ok()
}

/// Runs `app` (LV or CC-SV) on one host with maps from `b`.
fn run_app<B: MapBuilder>(app: &str, dg: &DistGraph, ctx: &HostCtx, b: &B) {
    match app {
        "LV" => {
            algos::louvain(dg, ctx, b);
        }
        _ => {
            algos::cc::cc_sv(dg, ctx, b);
        }
    }
}

fn bench(name: &str, app: &str, g: &Graph, hosts: usize) {
    let threads = threads_per_host();
    // Compressed local CSRs, like the CLI's read-only default: the records'
    // graph_bytes show the footprint win and secs must hold the runtime.
    // KIMBAP_BENCH_RAW keeps the raw arrays for an apples-to-apples
    // storage-tier comparison on the same machine.
    let ec = partition_cfg(
        g,
        &PartitionCfg {
            policy: Policy::EdgeCutBlocked,
            hosts,
            compressed: std::env::var("KIMBAP_BENCH_RAW").is_err(),
        },
    );

    let row = |system: &str, secs: f64, comp: f64, comm: f64, overlapped: bool| {
        let (c1, c2) = if overlapped {
            ("(overlap)".to_string(), "(overlap)".to_string())
        } else {
            (fmt(comp), fmt(comm))
        };
        print_row(&[
            app.into(),
            name.into(),
            system.into(),
            hosts.to_string(),
            fmt(secs),
            c1,
            c2,
        ]);
    };

    let case = format!("{name}/{app}");

    // Vite (LV only; it is a Louvain implementation).
    if app == "LV" {
        let vcfg = vite::ViteConfig::default();
        let (_, s) = run_timed(&ec, threads, |dg, ctx| vite::louvain(dg, ctx, &vcfg));
        row("vite", s.secs, 0.0, 0.0, true);
        json::record("fig11_runtime_variants", &case, "vite", hosts, &s);
    }

    // MC.
    if !skip_mc() {
        let mc = McBuilder::new(hosts);
        let (_, s) = run_timed(&ec, threads, |dg, ctx| run_app(app, dg, ctx, &mc));
        row("MC", s.secs, 0.0, 0.0, true);
        json::record("fig11_runtime_variants", &case, "mc", hosts, &s);
    }

    // The three Kimbap rows: the sharded baseline's two, then the product
    // map.
    let sharded = [("sgr_only", ShardedBuilder::sgr_only()), ("sgr_cf", ShardedBuilder::sgr_cf())];
    for (system, b) in sharded {
        let (_, s) = run_timed(&ec, threads, |dg, ctx| run_app(app, dg, ctx, &b));
        row(&b.to_string(), s.secs, s.comp_secs(), s.comm_secs(), false);
        json::record("fig11_runtime_variants", &case, system, hosts, &s);
    }
    let (_, s) = run_timed(&ec, threads, |dg, ctx| run_app(app, dg, ctx, &NpmBuilder));
    row("SGR+CF+GAR", s.secs, s.comp_secs(), s.comm_secs(), false);
    json::record("fig11_runtime_variants", &case, "sgr_cf_gar", hosts, &s);
}

fn main() {
    let hosts_list = Inputs::medium_hosts();
    print_title(
        "Figure 11: runtime variants (comp/comm breakdown)",
        "MC and Vite overlap computation with communication (single bar), like the paper",
    );
    print_row(&[
        "app".into(),
        "graph".into(),
        "system".into(),
        "hosts".into(),
        "total".into(),
        "comp".into(),
        "comm".into(),
    ]);
    let road = Inputs::road();
    if smoke() {
        // CI smoke: prove the harness runs end to end and emits records.
        bench("road", "CC-SV", &road, hosts_list.iter().copied().find(|&h| h >= 2).unwrap_or(2));
        return;
    }
    let social = Inputs::social();
    for &hosts in &hosts_list {
        if hosts < 2 {
            continue; // variants differ only with real distribution
        }
        bench("road", "LV", &road, hosts);
        bench("social", "LV", &social, hosts);
        bench("road", "CC-SV", &road, hosts);
        bench("social", "CC-SV", &social, hosts);
    }
    println!(
        "\nexpected order per group: MC >> vite > SGR-only > SGR+CF > SGR+CF+GAR\n\
         (set KIMBAP_SKIP_MC to skip the slowest bars)"
    );
}
