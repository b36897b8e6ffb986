//! End-to-end fault injection: whole algorithms run under seeded fault
//! plans and must produce output bit-identical to a fault-free run.
//!
//! Three recovery mechanisms are exercised:
//! * frame-level faults (drop/duplicate/delay/corrupt) survived
//!   transparently by the retransmitting exchange;
//! * host crashes survived by full replay (`HostCtx::run_recovering`,
//!   used by the hand-written algorithms);
//! * host crashes survived by round-level checkpoint replay (the engine's
//!   recovery path for compiled plans).
//!
//! The fixed-seed fault matrix (`fault_matrix_smoke`) runs all seven rows
//! of `serve::TABLE` on the deterministic simulation backend, with
//! fault-free baselines computed on the in-proc backend: every matrix
//! cell is simultaneously a recovery check and a cross-backend
//! conformance check.

mod common;

use common::{cc_lp_labels, inproc, louvain_result, mis_set, msf_forest, run_elastic_survivors, HOSTS};
use kimbap::engine::Engine;
use kimbap::serve::{merge_job_outputs, JobOutput, TABLE};
use kimbap_algos::{self as algos, cc::cc_lp, merge_master_values, msf, NpmBuilder};
use kimbap_comm::{new_trace_sink, Cluster, CrashSignal, FaultPlan};
use kimbap_compiler::{compile, programs, OptLevel};
use kimbap_dist::{partition, Policy};
use kimbap_graph::gen;

/// Scheduler seed for matrix runs on the simulation backend.
const SIM_SEED: u64 = 7;

#[test]
fn cc_lp_survives_targeted_frame_faults() {
    let g = gen::rmat(7, 4, 31);
    let (baseline, _) = cc_lp_labels(&g, &inproc(), FaultPlan::new(), false);
    // One of each frame fault, spread over early rounds and host pairs.
    let plan = FaultPlan::new()
        .drop_frame(0, 1, 1)
        .duplicate_frame(2, 0, 1)
        .delay_frame(1, 2, 2)
        .corrupt_frame(2, 1, 2, 123);
    let (faulted, _) = cc_lp_labels(&g, &inproc(), plan, false);
    assert_eq!(faulted, baseline);
}

#[test]
fn cc_lp_reports_retransmits_under_drops() {
    let g = gen::grid_road(6, 6, 3);
    let plan = FaultPlan::new().drop_frame(0, 1, 1).corrupt_frame(1, 0, 1, 9);
    let (_, retx) = cc_lp_labels(&g, &Cluster::new(HOSTS), plan, false);
    assert!(
        retx >= 2,
        "dropped and corrupted frames must be retransmitted, got {retx}"
    );
}

#[test]
fn cc_lp_survives_random_fault_soup() {
    let g = gen::rmat(6, 4, 9);
    let (baseline, _) = cc_lp_labels(&g, &inproc(), FaultPlan::new(), false);
    for seed in [1u64, 42, 1337] {
        let plan = FaultPlan::new()
            .with_seed(seed)
            .drop_rate(0.03)
            .duplicate_rate(0.03)
            .corrupt_rate(0.03);
        assert_eq!(
            cc_lp_labels(&g, &inproc(), plan, false).0,
            baseline,
            "seed {seed} diverged"
        );
    }
}

#[test]
fn cc_lp_recovers_from_mid_run_crash() {
    let g = gen::rmat(7, 4, 31);
    let (baseline, _) = cc_lp_labels(&g, &inproc(), FaultPlan::new(), false);
    // Host 1 crashes entering round 2; all hosts replay from the top.
    let plan = FaultPlan::new().crash_host(1, 2);
    let (recovered, _) = cc_lp_labels(&g, &inproc(), plan, true);
    assert_eq!(recovered, baseline);
}

#[test]
fn engine_checkpoint_replay_matches_fault_free() {
    // The compiled cc_sv plan under a mid-run host crash: the engine
    // checkpoints master properties and scalar reducers at every round
    // boundary, so the crashed round replays from the checkpoint instead
    // of restarting the program.
    let g = gen::rmat(7, 4, 31);
    let plan = compile(&programs::cc_sv(), OptLevel::Full);
    let parts = partition(&g, Policy::EdgeCutBlocked, HOSTS);
    let run = |faults: FaultPlan| {
        let outs = Cluster::with_threads(HOSTS, 2).run_with_faults(faults, |ctx| {
            Engine::new(&parts[ctx.host()], ctx, &plan).run(ctx)
        });
        let labels = merge_master_values(
            g.num_nodes(),
            outs.iter().map(|o| o.map_values[0].clone()).collect(),
        );
        (labels, outs[0].rounds)
    };
    let (baseline, rounds) = run(FaultPlan::new());
    assert!(rounds >= 3, "need a multi-round run to crash mid-way");
    assert_eq!(baseline, kimbap_algos::refcheck::connected_components(&g));

    for crash_round in [2, 3] {
        let (labels, replayed_rounds) = run(FaultPlan::new().crash_host(1, crash_round));
        assert_eq!(labels, baseline, "crash at round {crash_round} diverged");
        // Replayed rounds are not double-counted.
        assert_eq!(replayed_rounds, rounds);
    }
}

#[test]
fn engine_loop_recovers_eight_times_then_propagates() {
    // A compiled loop spends `run_recovering`'s budget: eight crashes of
    // one round each replay it from its checkpoint; the ninth propagates
    // from the crashed host as the `CrashSignal` it unwound with.
    let g = gen::grid_road(7, 7, 3);
    let plan = compile(&programs::cc_lp(), OptLevel::Full);
    let parts = partition(&g, Policy::EdgeCutBlocked, HOSTS);
    let crashes = |n: usize| (0..n).fold(FaultPlan::new(), |p, _| p.crash_host(1, 2));
    let run = |faults: FaultPlan| {
        Cluster::new(HOSTS).try_run_with_faults(faults, |ctx| {
            Engine::new(&parts[ctx.host()], ctx, &plan).run(ctx).rounds
        })
    };
    let rounds = |faults| -> Vec<Option<u64>> { run(faults).into_iter().map(Result::ok).collect() };
    let baseline = rounds(FaultPlan::new());
    assert!(baseline.iter().all(Option::is_some));
    assert_eq!(rounds(crashes(8)), baseline, "after 8 crashes");
    let ninth = run(crashes(9));
    assert!(
        matches!(&ninth[1], Err(e) if matches!(e.signal, Some(CrashSignal::Injected { host: 1, round: 2 }))),
        "host 1 after 9 crashes: {:?}",
        ninth[1]
    );
}

#[test]
fn engine_recovers_from_crash_plus_frame_faults() {
    let g = gen::grid_road(7, 7, 3);
    let plan = compile(&programs::cc_lp(), OptLevel::Full);
    let parts = partition(&g, Policy::EdgeCutBlocked, HOSTS);
    let run = |faults: FaultPlan| {
        let outs = Cluster::new(HOSTS).run_with_faults(faults, |ctx| {
            Engine::new(&parts[ctx.host()], ctx, &plan).run(ctx)
        });
        merge_master_values(
            g.num_nodes(),
            outs.into_iter().map(|o| o.map_values[0].clone()).collect(),
        )
    };
    let baseline = run(FaultPlan::new());
    let faults = FaultPlan::new()
        .drop_frame(0, 2, 1)
        .corrupt_frame(2, 0, 1, 321)
        .crash_host(2, 2)
        .with_seed(5)
        .drop_rate(0.02);
    assert_eq!(run(faults), baseline);
}

#[test]
fn louvain_recovers_from_mid_run_crash() {
    let g = gen::rmat(6, 6, 4);
    let baseline = louvain_result(&g, &inproc(), FaultPlan::new());
    let plan = FaultPlan::new().crash_host(0, 3);
    let recovered = louvain_result(&g, &inproc(), plan);
    assert_eq!(recovered.0, baseline.0, "community labels diverged");
    assert_eq!(recovered.1, baseline.1, "modularity diverged");
}

#[test]
fn louvain_survives_frame_faults() {
    let g = gen::rmat(6, 6, 4);
    let baseline = louvain_result(&g, &inproc(), FaultPlan::new());
    let plan = FaultPlan::new()
        .drop_frame(1, 0, 1)
        .duplicate_frame(0, 2, 2)
        .with_seed(11)
        .corrupt_rate(0.02);
    assert_eq!(louvain_result(&g, &inproc(), plan), baseline);
}

/// Crash-then-shrink matrix: host 1 is permanently killed mid-run on the
/// simulation backend, the two survivors agree it out of the membership,
/// re-partition, and re-converge. cc_lp / msf / mis outputs are
/// partition-independent, so they must equal the fault-free run of the
/// full cluster; louvain's merge order tracks the partition, so its
/// baseline is the fault-free run of the surviving two-host cluster
/// (full-restart semantics make that the exact expectation).
#[test]
fn shrink_matrix_smoke() {
    let g = gen::rmat(6, 4, 9);
    let gw = gen::with_random_weights(&g, 1 << 16, 9 ^ 0x5eed);
    let n = g.num_nodes();
    let b = NpmBuilder;
    let kill = || FaultPlan::new().kill_host(1, 2);
    let sim = || Cluster::with_threads(HOSTS, 2).sim(SIM_SEED);

    let (cc_baseline, _) = cc_lp_labels(&g, &inproc(), FaultPlan::new(), true);
    let run_cc = || {
        let ph = run_elastic_survivors(&g, &sim(), kill(), Policy::EdgeCutBlocked, |dg, ctx| {
            cc_lp(dg, ctx, &b)
        });
        assert_eq!(ph.len(), HOSTS - 1, "exactly the victim must be lost");
        merge_master_values(n, ph)
    };
    let cc_first = run_cc();
    assert_eq!(cc_first, cc_baseline, "cc diverged after shrink");
    // Same seed, same kill, same schedule: the degraded run is
    // byte-reproducible.
    assert_eq!(run_cc(), cc_first, "shrunk cc run is not seed-reproducible");

    let msf_baseline = msf_forest(&gw, &inproc(), FaultPlan::new());
    let ph = run_elastic_survivors(&gw, &sim(), kill(), Policy::CartesianVertexCut, |dg, ctx| {
        algos::msf(dg, ctx, &b)
    });
    let (mut edges, total) = msf::merge_forest(ph);
    edges.sort_unstable();
    assert_eq!((edges, total), msf_baseline, "msf diverged after shrink");

    let mis_baseline = mis_set(&g, &inproc(), FaultPlan::new());
    let ph = run_elastic_survivors(&g, &sim(), kill(), Policy::CartesianVertexCut, |dg, ctx| {
        algos::mis(dg, ctx, &b)
    });
    assert_eq!(
        merge_master_values(n, ph),
        mis_baseline,
        "mis diverged after shrink"
    );

    let parts2 = partition(&g, Policy::EdgeCutBlocked, HOSTS - 1);
    let base2 =
        Cluster::with_threads(HOSTS - 1, 2).run(|ctx| algos::louvain(&parts2[ctx.host()], ctx, &b));
    let expected = algos::compose_labels(n, &base2);
    let ph = run_elastic_survivors(&g, &sim(), kill(), Policy::EdgeCutBlocked, |dg, ctx| {
        algos::louvain(dg, ctx, &b)
    });
    assert_eq!(
        algos::compose_labels(n, &ph),
        expected,
        "louvain diverged after shrink"
    );
}

/// The fixed-seed fault matrix run by scripts/ci.sh: three plans (drops,
/// corruption, a mid-run crash) x the seven rows of `serve::TABLE`, each
/// run as `kimbap run` runs it (the row's policy, recovering in place) on
/// the deterministic simulation backend, against a fault-free in-proc
/// baseline. Every cell must see its fault fire in the trace: every row
/// publishes its rounds (MIS one per phase), so a round-addressed crash
/// lands on each.
#[test]
fn fault_matrix_smoke() {
    let g = gen::rmat(6, 4, 9);
    let gw = gen::with_random_weights(&g, 1 << 16, 9 ^ 0x5eed);
    let plans = || {
        [
            ("fault_drop", FaultPlan::new().drop_frame(0, 1, 1).with_seed(1).drop_rate(0.02)),
            (
                "fault_corrupt",
                FaultPlan::new()
                    .corrupt_frame(1, 2, 1, 55)
                    .with_seed(2)
                    .corrupt_rate(0.02),
            ),
            ("crash", FaultPlan::new().crash_host(1, 2)),
        ]
    };
    for row in &TABLE {
        let g = if row.weighted { &gw } else { &g };
        let parts = partition(g, row.policy, HOSTS);
        let run = |cluster: &Cluster, plan: FaultPlan| {
            let outs = cluster.run_with_faults(plan, |ctx| {
                ctx.run_recovering(|ctx| (row.run)(&parts[ctx.host()], ctx, 0))
            });
            // A community row's modularity (the same on every host) must
            // match bit for bit too, not just its labels.
            let q = match &outs[0] {
                JobOutput::Communities(c) => Some(c.modularity.to_bits()),
                _ => None,
            };
            (merge_job_outputs(row.algo, g.num_nodes(), outs), q)
        };
        let baseline = run(&inproc(), FaultPlan::new());
        assert_eq!((row.check)(g, &baseline.0), Ok(()), "{} baseline", row.name);
        for (fault, plan) in plans() {
            let sink = new_trace_sink();
            let sim = Cluster::with_threads(HOSTS, 2)
                .sim(SIM_SEED)
                .with_trace_sink(sink.clone());
            assert_eq!(run(&sim, plan), baseline, "{} diverged under {fault}", row.name);
            let fired = sink.lock().iter().any(|ev| ev.kind == fault);
            assert!(fired, "{}: {fault} never fired", row.name);
        }
    }
}
