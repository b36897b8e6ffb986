//! Golden outputs of the two community rows: Louvain's and Leiden's merged
//! label fingerprint ([`serve::merge_job_outputs`]) and the exact bits of
//! their reported modularity, on a weighted R-MAT and a grid at one and
//! three hosts, pinned to `fixtures/community_golden.txt`.
//!
//! The kernel differential in `kimbap-algos` compares each fast kernel
//! with a reference that shares the decision rules (`Gain::pick`,
//! `Refine::choose`, `move_gate`), so a change to a rule passes it; this
//! file fails on any change to what the rows compute.
//!
//! Fixture format, one line per case: `algo graph hosts modularity_bits
//! label,label,...`, labels in node order.

use kimbap::serve::{self, Algo, JobOutput};
use kimbap_comm::Cluster;
use kimbap_dist::partition;
use kimbap_graph::{gen, Graph};

const FIXTURE: &str = include_str!("fixtures/community_golden.txt");

fn graphs() -> [(&'static str, Graph); 2] {
    [
        (
            "rmat9-weighted",
            gen::with_random_weights(&gen::rmat(9, 8, 43), 16, 7),
        ),
        ("grid20", gen::grid_road(20, 20, 5)),
    ]
}

/// Every case's fixture line, computed by the current code.
fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for algo in [Algo::Louvain, Algo::Leiden] {
        for (name, g) in graphs() {
            for hosts in [1, 3] {
                let parts = partition(&g, algo.row().policy, hosts);
                let outs = Cluster::with_threads(hosts, 2)
                    .run(|ctx| (algo.row().run)(&parts[ctx.host()], ctx, 0));
                let JobOutput::Communities(first) = &outs[0] else {
                    panic!("{} returned no communities", algo.name());
                };
                let q = first.modularity.to_bits();
                let labels = serve::merge_job_outputs(algo, g.num_nodes(), outs);
                let labels: Vec<String> = labels.iter().map(u64::to_string).collect();
                lines.push(format!(
                    "{} {name} {hosts} {q:#018x} {}",
                    algo.name(),
                    labels.join(",")
                ));
            }
        }
    }
    lines
}

#[test]
fn community_rows_match_their_golden_outputs() {
    let want: Vec<&str> = FIXTURE.lines().collect();
    let got = golden_lines();
    assert_eq!(got.len(), want.len(), "case count");
    for (got, want) in got.iter().zip(&want) {
        let case = |l: &str| l.split(' ').take(3).collect::<Vec<_>>().join(" ");
        assert_eq!(case(got), case(want), "case order");
        let (g, w): (Vec<&str>, Vec<&str>) = (got.split(' ').collect(), want.split(' ').collect());
        assert_eq!(g[3], w[3], "{}: modularity bits", case(want));
        let (gl, wl): (Vec<&str>, Vec<&str>) =
            (g[4].split(',').collect(), w[4].split(',').collect());
        assert_eq!(gl.len(), wl.len(), "{}: node count", case(want));
        if let Some(i) = (0..gl.len()).find(|&i| gl[i] != wl[i]) {
            panic!(
                "{}: node {i} labelled {} (golden {})",
                case(want),
                gl[i],
                wl[i]
            );
        }
    }
}
