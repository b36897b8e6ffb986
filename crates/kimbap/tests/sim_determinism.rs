//! Determinism of the simulation backend at the whole-system level: a
//! seed fully determines the multi-host schedule, so a seed is a bug
//! report. Same seed, same graph, same fault plan => byte-identical
//! event trace and identical output labels; a different seed perturbs
//! the schedule but never the converged labels.

use kimbap::simfuzz;
use kimbap_algos::{cc::cc_lp, merge_master_values, refcheck, NpmBuilder};
use kimbap_comm::{new_trace_sink, Cluster, CrashSignal, FaultPlan, TraceEvent};
use kimbap_dist::{partition, Policy};
use kimbap_graph::gen;

const HOSTS: usize = 3;

/// One full cc_lp run on the simulation backend under `seed`'s derived
/// fault plan; returns the merged labels and the JSONL-serialized trace.
fn traced_run(g: &kimbap_graph::Graph, sim_seed: u64, plan: FaultPlan) -> (Vec<u64>, Vec<String>) {
    let parts = partition(g, Policy::EdgeCutBlocked, HOSTS);
    let b = NpmBuilder;
    let sink = new_trace_sink();
    let cluster = Cluster::with_threads(HOSTS, 1)
        .sim(sim_seed)
        .with_transport_config(simfuzz::sim_transport_config())
        .with_trace_sink(sink.clone());
    let per_host = cluster.run_with_faults(plan, |ctx| {
        ctx.run_recovering(|ctx| cc_lp(&parts[ctx.host()], ctx, &b))
    });
    let labels = merge_master_values(g.num_nodes(), per_host);
    let trace = std::mem::take(&mut *sink.lock());
    (labels, trace.iter().map(TraceEvent::to_json).collect())
}

#[test]
fn same_seed_replays_byte_identical_trace_and_labels() {
    let g = gen::rmat(6, 4, 9);
    let seed = 4242;
    let (l1, t1) = traced_run(&g, seed, simfuzz::random_fault_plan(seed, HOSTS));
    let (l2, t2) = traced_run(&g, seed, simfuzz::random_fault_plan(seed, HOSTS));
    assert!(!t1.is_empty(), "trace must be recorded");
    assert_eq!(l1, l2, "same seed must produce identical labels");
    assert_eq!(t1, t2, "same seed must produce a byte-identical trace");
    assert_eq!(
        l1,
        refcheck::connected_components(&g),
        "converged labels must match the reference"
    );
}

/// Louvain's coarse-edge aggregation once leaked `HashMap` iteration
/// order (per-process random) into the wire payloads: labels matched
/// but traces differed across replays. Guard the byte-level claim on
/// the algorithm with the most serialization surface.
#[test]
fn louvain_replays_byte_identical_trace() {
    use kimbap_algos::louvain::{compose_labels, louvain};
    let g = gen::rmat(6, 4, 9);
    let run = || {
        let parts = partition(&g, Policy::EdgeCutBlocked, HOSTS);
        let b = NpmBuilder;
        let sink = new_trace_sink();
        let cluster = Cluster::with_threads(HOSTS, 1)
            .sim(17)
            .with_transport_config(simfuzz::sim_transport_config())
            .with_trace_sink(sink.clone());
        let per_host = cluster.run_with_faults(simfuzz::random_fault_plan(17, HOSTS), |ctx| {
            ctx.run_recovering(|ctx| louvain(&parts[ctx.host()], ctx, &b))
        });
        let labels = compose_labels(g.num_nodes(), &per_host);
        let trace = std::mem::take(&mut *sink.lock());
        (labels, trace.iter().map(TraceEvent::to_json).collect::<Vec<_>>())
    };
    let (l1, t1) = run();
    let (l2, t2) = run();
    assert_eq!(l1, l2, "same seed must produce identical community labels");
    assert_eq!(t1, t2, "louvain replay must be byte-identical");
}

/// A live join racing a permanent kill — the gnarliest interleaving the
/// elastic engine supports (the knock can land while the survivors are
/// mid-shrink) — is still a pure function of the seed: two runs replay
/// byte-identical traces and identical labels.
#[test]
fn join_during_recovery_replays_byte_identical_trace() {
    use kimbap::elastic::run_plan_elastic;
    use kimbap_compiler::{compile, programs, OptLevel};
    use kimbap_dist::PartitionCfg;

    let g = gen::rmat(6, 4, 9);
    let run = || {
        let prog = compile(&programs::cc_lp(), OptLevel::Full);
        let cfg = PartitionCfg::new(Policy::EdgeCutBlocked, HOSTS);
        // Host 1 dies at round 2 while the spare slot knocks from the
        // very start: join and shrink recovery race by construction.
        let plan = FaultPlan::new().kill_host(1, 2).join_host(HOSTS, 0);
        let sink = new_trace_sink();
        let cluster = Cluster::with_threads(HOSTS + 1, 1)
            .sim(23)
            .with_transport_config(simfuzz::sim_transport_config())
            .with_trace_sink(sink.clone());
        let res = cluster.try_run_with_faults(plan, |ctx| run_plan_elastic(&g, cfg, &prog, ctx));
        let mut vals = Vec::new();
        for (h, r) in res.into_iter().enumerate() {
            match r {
                Ok(Some(out)) => vals.push(out.map_values.into_iter().next().unwrap_or_default()),
                Ok(None) => {} // joiner gave up cleanly
                Err(e) if matches!(e.signal, Some(CrashSignal::Killed { .. })) => {
                    assert_eq!(h, 1, "only the planned victim may die");
                }
                Err(e) => panic!("host {h}: {e}"),
            }
        }
        let labels = merge_master_values(g.num_nodes(), vals);
        let trace = std::mem::take(&mut *sink.lock());
        (labels, trace.iter().map(TraceEvent::to_json).collect::<Vec<_>>())
    };
    let (l1, t1) = run();
    let (l2, t2) = run();
    assert_eq!(
        l1,
        refcheck::connected_components(&g),
        "churned labels must match the reference"
    );
    assert_eq!(l1, l2, "same seed must produce identical labels under churn");
    assert_eq!(t1, t2, "join-during-recovery replay must be byte-identical");
}

#[test]
fn different_seed_changes_schedule_but_not_labels() {
    let g = gen::rmat(6, 4, 9);
    let (l1, t1) = traced_run(&g, 1, FaultPlan::new());
    let (l2, t2) = traced_run(&g, 2, FaultPlan::new());
    assert_ne!(t1, t2, "a different seed should reorder the schedule");
    assert_eq!(l1, l2, "the schedule must never change converged labels");
}

#[test]
fn trace_linearizes_fault_verdicts_and_repairs() {
    // A targeted drop plus background drops: the trace must record both
    // the injected faults and the repair traffic they trigger.
    let g = gen::rmat(6, 4, 9);
    let plan = FaultPlan::new().drop_frame(0, 1, 1).with_seed(3).drop_rate(0.03);
    let (labels, trace) = traced_run(&g, 77, plan);
    assert_eq!(labels, refcheck::connected_components(&g));
    let has = |kind: &str| trace.iter().any(|line| line.contains(&format!("\"kind\":\"{kind}\"")));
    for kind in ["schedule", "send", "barrier_arrive", "barrier_complete", "fault_drop", "retx_request"] {
        assert!(has(kind), "trace is missing `{kind}` events");
    }
    // seq must be a total order starting at 0 with no gaps.
    for (i, line) in trace.iter().enumerate() {
        assert!(
            line.contains(&format!("\"seq\":{i},")),
            "trace seq out of order at {i}: {line}"
        );
    }
}
