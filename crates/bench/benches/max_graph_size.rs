//! max_graph_size: the storage-capacity experiment behind ROADMAP item 3.
//!
//! Measures what the compressed tier buys in bytes — and what it costs in
//! seconds — on the Table 1 input analogs:
//!
//! 1. Whole-graph footprint, raw vs compressed, per input (the headline
//!    bytes-per-edge numbers; unit-weight social must land under 4 B/edge,
//!    ≥ 2.5x below raw — ci.sh asserts this via `kimbap stats`).
//! 2. A capacity ladder: unit-weight R-MAT at growing scales, with process
//!    peak RSS, showing how much further the same memory goes.
//! 3. Runtime parity: CC-LP over raw vs compressed partitions, so the
//!    footprint win is shown not to cost wall-clock.

use kimbap_algos::{cc, NpmBuilder};
use kimbap_bench::{
    json, peak_rss_bytes, print_row, print_title, run_timed, threads_per_host, Inputs,
};
use kimbap_dist::{partition_cfg, PartitionCfg, Policy};
use kimbap_graph::{gen, Graph, GraphStats};

fn smoke() -> bool {
    std::env::var("KIMBAP_BENCH_SMOKE").is_ok()
}

fn fmt_bytes(b: u64) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.1}KiB", b as f64 / 1024.0)
    }
}

/// One whole-graph row: raw and compressed side by side.
fn size_case(case: &str, g: &Graph) {
    let raw = GraphStats::of(g);
    let comp = GraphStats::of(&g.compress());
    for (system, s) in [("raw", &raw), ("compressed", &comp)] {
        print_row(&[
            case.into(),
            system.into(),
            "1".into(),
            fmt_bytes(s.size_bytes as u64),
            format!("{:.2}", s.bytes_per_edge()),
            format!("{:.2}x", raw.size_bytes as f64 / s.size_bytes as f64),
        ]);
        json::record_size(
            "max_graph_size",
            case,
            system,
            &json::SizeRecord {
                hosts: 1,
                num_edges: g.num_edges() as u64,
                graph_bytes: s.size_bytes as u64,
                max_host_graph_bytes: s.size_bytes as u64,
                peak_rss_bytes: peak_rss_bytes(),
            },
        );
    }
}

/// CC-LP on raw vs compressed partitions: same labels, same ballpark
/// seconds, a fraction of the bytes.
fn runtime_parity(g: &Graph, hosts: usize) {
    let threads = threads_per_host();
    let b = NpmBuilder;
    let mut labels: Vec<Vec<u64>> = Vec::new();
    for compressed in [false, true] {
        let parts = partition_cfg(
            g,
            &PartitionCfg {
                policy: Policy::CartesianVertexCut,
                hosts,
                compressed,
            },
        );
        let (outs, s) = run_timed(&parts, threads, |dg, ctx| cc::cc_lp(dg, ctx, &b));
        labels.push(kimbap_algos::merge_master_values(g.num_nodes(), outs));
        let system = if compressed { "compressed" } else { "raw" };
        print_row(&[
            "social/CC-LP".into(),
            system.into(),
            hosts.to_string(),
            fmt_bytes(s.graph_bytes),
            format!("{:.3}s", s.secs),
            fmt_bytes(s.peak_rss_bytes),
        ]);
        json::record("max_graph_size", "runtime/social_cc_lp", system, hosts, &s);
    }
    assert_eq!(labels[0], labels[1], "compressed labels diverged from raw");
}

fn main() {
    print_title(
        "max_graph_size: compressed-tier capacity (bytes/edge)",
        "unit-weight inputs store no weight array at all on the compressed tier",
    );
    print_row(&[
        "case".into(),
        "system".into(),
        "hosts".into(),
        "bytes".into(),
        "B/edge|secs".into(),
        "ratio|rss".into(),
    ]);

    let social_unit = gen::with_unit_weights(&Inputs::social());
    size_case("social_unit", &social_unit);
    if smoke() {
        runtime_parity(&social_unit, 2);
        return;
    }
    size_case("road", &gen::with_unit_weights(&Inputs::road()));
    size_case("social_weighted", &Inputs::weighted(&Inputs::social()));
    size_case("web", &gen::with_unit_weights(&Inputs::web()));
    size_case("hyperlink", &gen::with_unit_weights(&Inputs::hyperlink()));

    // Capacity ladder: how far the same memory stretches. Scales chosen to
    // stay laptop-friendly; KIMBAP_SCALE=medium pushes one notch further.
    let max_scale = match std::env::var("KIMBAP_SCALE").as_deref() {
        Ok("tiny") => 12,
        Ok("medium") => 17,
        _ => 15,
    };
    for scale in (11..=max_scale).step_by(2) {
        let g = gen::with_unit_weights(&gen::rmat(scale, 16, 42));
        size_case(&format!("rmat_s{scale}"), &g);
    }

    runtime_parity(&social_unit, 4);
}
