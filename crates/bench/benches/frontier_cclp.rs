//! Frontier (active-set) execution: CC-LP dense vs sparse on the fig11
//! rMAT input.
//!
//! Label propagation is the canonical frontier workload: the first rounds
//! touch everything, then activity collapses to the shrinking set of nodes
//! whose neighborhoods still change. Dense execution pays the full
//! `ParFor` every round; the sparse engine iterates only the changed-key
//! frontier. Expected shape: identical results and round counts, with the
//! tail rounds (after round 2) several times cheaper sparse — the gap
//! grows with graph diameter.
//!
//! Each run also records its per-round activity trace (`rounds` array in
//! the JSON record), which is what `EXPERIMENTS.md` and CI read to verify
//! the sparse path actually engaged.

use kimbap::engine::{Engine, EngineConfig, EngineOutput};
use kimbap_bench::{json, print_row, print_title, run_timed, threads_per_host, Inputs};
use kimbap_compiler::{compile, programs, OptLevel};
use kimbap_dist::{partition, Policy};

fn fmt(secs: f64) -> String {
    format!("{secs:.3}s")
}

/// Folds per-host activity into cluster-wide per-round records.
fn merge_rounds(outs: &[EngineOutput]) -> Vec<json::RoundRecord> {
    (0..outs[0].activity.len())
        .map(|i| json::RoundRecord {
            round: outs[0].activity[i].round,
            active: outs.iter().map(|o| o.activity[i].active).sum(),
            total: outs.iter().map(|o| o.activity[i].total).sum(),
            sparse: outs.iter().all(|o| o.activity[i].sparse),
            reduce_compute_secs: outs
                .iter()
                .map(|o| o.activity[i].reduce_compute_nanos)
                .max()
                .unwrap_or(0) as f64
                / 1e9,
        })
        .collect()
}

/// Master labels merged across hosts, for the dense-vs-sparse equality
/// check.
fn merged_labels(outs: &[EngineOutput]) -> Vec<(u64, u64)> {
    let mut all: Vec<(u64, u64)> = outs
        .iter()
        .flat_map(|o| o.map_values[0].iter().map(|&(g, v)| (g as u64, v)))
        .collect();
    all.sort_unstable();
    all
}

fn main() {
    let hosts = Inputs::medium_hosts()
        .iter()
        .copied()
        .find(|&h| h >= 2)
        .unwrap_or(2);
    let threads = threads_per_host();
    let g = Inputs::social();
    let parts = partition(&g, Policy::EdgeCutBlocked, hosts);
    let plan = compile(&programs::cc_lp(), OptLevel::Full);

    print_title(
        "Frontier execution: CC-LP dense vs sparse (rMAT social graph)",
        "same plan and runtime; sparse rounds iterate only changed-key readers",
    );
    print_row(&[
        "mode".into(),
        "hosts".into(),
        "rounds".into(),
        "total".into(),
        "reduce-comp".into(),
        "tail-comp".into(),
        "tail-active".into(),
    ]);

    let mut outs_by_mode = Vec::new();
    let mut tail_secs = Vec::new();
    for (label, sparse) in [("dense", false), ("sparse", true)] {
        let cfg = EngineConfig {
            sparse,
            ..EngineConfig::default()
        };
        let (outs, s) = run_timed(&parts, threads, |dg, ctx| {
            Engine::with_config(dg, ctx, &plan, cfg).run(ctx)
        });
        let rounds = merge_rounds(&outs);
        // Tail = rounds after round 2, where a frontier workload has
        // stopped touching most of the graph.
        let tail: Vec<&json::RoundRecord> = rounds.iter().filter(|r| r.round > 2).collect();
        let tail_comp: f64 = tail.iter().map(|r| r.reduce_compute_secs).sum();
        let tail_active: u64 = tail.iter().map(|r| r.active).sum();
        let tail_total: u64 = tail.iter().map(|r| r.total).sum();
        print_row(&[
            label.into(),
            hosts.to_string(),
            outs[0].rounds.to_string(),
            fmt(s.secs),
            fmt(s.totals.reduce_compute_nanos as f64 / 1e9),
            fmt(tail_comp),
            format!("{tail_active}/{tail_total}"),
        ]);
        json::record("frontier_cclp", "social/CC-LP", label, hosts, &s);
        json::record_rounds("frontier_cclp", "social/CC-LP", label, hosts, &rounds);

        if sparse {
            // The sparse path must actually engage: every round after the
            // dense pin round is sparse, and past round 2 the frontier is
            // a strict subset of the node space.
            assert!(
                rounds.iter().skip(1).all(|r| r.sparse),
                "sparse run fell back to dense after the pin round"
            );
            assert!(
                rounds.len() > 2,
                "label propagation quiesced too fast to measure a tail"
            );
            for r in &tail {
                assert!(
                    r.active < r.total,
                    "round {}: sparse frontier did not shrink ({}/{})",
                    r.round,
                    r.active,
                    r.total
                );
            }
        }
        outs_by_mode.push(outs);
        tail_secs.push(tail_comp);
    }

    assert_eq!(
        merged_labels(&outs_by_mode[0]),
        merged_labels(&outs_by_mode[1]),
        "sparse execution diverged from dense"
    );
    assert_eq!(outs_by_mode[0][0].rounds, outs_by_mode[1][0].rounds);

    if tail_secs[1] > 0.0 {
        println!(
            "\ntail (rounds >2) reduce-compute speedup: {:.1}x (dense {} vs sparse {})",
            tail_secs[0] / tail_secs[1],
            fmt(tail_secs[0]),
            fmt(tail_secs[1]),
        );
    }
    println!("expected shape: identical labels and rounds; sparse tail several times cheaper.");
}
