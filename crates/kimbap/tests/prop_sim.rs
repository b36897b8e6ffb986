//! Simulation-backed property tests: under ANY partition policy and ANY
//! randomized fault schedule (drops, duplicates, delays, crashes,
//! stalls), a simulated cc_lp run must either converge to the
//! single-threaded reference labels or surface a communication error
//! (`Timeout` / `PeerDown` / `HostFailure`) — it must never hang and
//! never silently diverge. Failures print the `kimbap sim` command that
//! replays the offending schedule.

mod common;

use common::{comm_rooted, maybe, permanent_loss, HOSTS};
use kimbap::elastic::run_plan_elastic;
use kimbap::simfuzz;
use kimbap_algos::{cc::cc_lp, merge_master_values, refcheck, NpmBuilder};
use kimbap_comm::{Cluster, FaultPlan};
use kimbap_compiler::{compile, programs, OptLevel};
use kimbap_dist::{partition, PartitionCfg, Policy};
use kimbap_graph::gen;
use proptest::prelude::*;

fn policies() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::EdgeCutBlocked),
        Just(Policy::EdgeCutIncoming),
        Just(Policy::EdgeCutHashed),
        Just(Policy::CartesianVertexCut),
    ]
}

/// Random fault schedules: per-mille frame-noise rates plus optional
/// structured crash and stall faults in the early rounds.
fn fault_plans() -> impl Strategy<Value = FaultPlan> {
    (
        (0u64..=u64::MAX, 0u64..=40, 0u64..=30, 0u64..=50),
        maybe((1usize..HOSTS, 1u64..4)),
        maybe((0usize..HOSTS, 1u64..4, 150u32..450)),
    )
        .prop_map(|((seed, drop, dup, delay), crash, stall)| {
            let mut plan = FaultPlan::new()
                .with_seed(seed)
                .drop_rate(drop as f64 / 1000.0)
                .duplicate_rate(dup as f64 / 1000.0)
                .delay_rate(delay as f64 / 1000.0);
            if let Some((h, r)) = crash {
                plan = plan.crash_host(h, r);
            }
            if let Some((h, r, ms)) = stall {
                plan = plan.stall_host(h, r, ms);
            }
            plan
        })
}

/// Runs cc_lp on the simulation backend and classifies the outcome:
/// `Ok(Some(labels))` converged, `Ok(None)` surfaced a communication
/// failure, `Err` a non-communication panic (a real bug).
fn sim_cc_lp(
    g: &kimbap_graph::Graph,
    policy: Policy,
    plan: FaultPlan,
    sim_seed: u64,
) -> Result<Option<Vec<u64>>, String> {
    let parts = partition(g, policy, HOSTS);
    let b = NpmBuilder;
    let cluster = Cluster::with_threads(HOSTS, 1)
        .sim(sim_seed)
        .with_transport_config(simfuzz::sim_transport_config());
    let res = cluster.try_run_with_faults(plan, |ctx| {
        ctx.run_recovering(|ctx| cc_lp(&parts[ctx.host()], ctx, &b))
    });
    let mut vals = Vec::with_capacity(HOSTS);
    for r in res {
        match r {
            Ok(v) => vals.push(v),
            Err(e) if comm_rooted(&e) => {
                return Ok(None);
            }
            Err(e) => return Err(format!("non-communication panic: {e}")),
        }
    }
    Ok(Some(merge_master_values(g.num_nodes(), vals)))
}

/// The elastic variant: permanent host loss is survivable, so the killed
/// host's own abort is an expected casualty and the survivors' merged
/// labels are the outcome. `Ok(None)` means a host surfaced a clean
/// communication failure (`MembershipLost` when the shrink could not be
/// agreed, or a plain timeout) instead of converging.
fn sim_cc_lp_elastic(
    g: &kimbap_graph::Graph,
    plan: FaultPlan,
    sim_seed: u64,
) -> Result<Option<Vec<u64>>, String> {
    let b = NpmBuilder;
    let cluster = Cluster::with_threads(HOSTS, 1)
        .sim(sim_seed)
        .with_transport_config(simfuzz::sim_transport_config());
    let res = cluster.try_run_with_faults(plan, |ctx| {
        ctx.run_elastic(|ctx| {
            let parts = partition(g, Policy::CartesianVertexCut, ctx.num_hosts());
            cc_lp(&parts[ctx.host()], ctx, &b)
        })
    });
    let mut vals = Vec::with_capacity(HOSTS);
    let mut surfaced = false;
    for r in res {
        match r {
            Ok(v) => vals.push(v),
            Err(e) if permanent_loss(&e) => {}
            Err(e) if comm_rooted(&e) => {
                surfaced = true;
            }
            Err(e) => return Err(format!("non-communication panic: {e}")),
        }
    }
    if surfaced || vals.is_empty() {
        return Ok(None);
    }
    Ok(Some(merge_master_values(g.num_nodes(), vals)))
}

/// The churn variant: the compiled elastic engine with grow armed, on a
/// cluster sized one past the members when the plan carries a latent
/// joiner. Members may shrink past a kill AND admit the joiner in the
/// same run; a joiner that gives up (the members finished first)
/// contributes no masters, which is benign. Outcome classification
/// matches [`sim_cc_lp_elastic`].
fn sim_cc_lp_churn(
    g: &kimbap_graph::Graph,
    plan: FaultPlan,
    sim_seed: u64,
) -> Result<Option<Vec<u64>>, String> {
    let prog = compile(&programs::cc_lp(), OptLevel::Full);
    let cfg = PartitionCfg::new(Policy::EdgeCutBlocked, HOSTS);
    let capacity = HOSTS + plan.latent_hosts().len();
    let cluster = Cluster::with_threads(capacity, 1)
        .sim(sim_seed)
        .with_transport_config(simfuzz::sim_transport_config());
    let res = cluster.try_run_with_faults(plan, |ctx| run_plan_elastic(g, cfg, &prog, ctx));
    let mut vals = Vec::with_capacity(capacity);
    let mut surfaced = false;
    for r in res {
        match r {
            Ok(Some(out)) => vals.push(out.map_values.into_iter().next().unwrap_or_default()),
            Ok(None) => {} // joiner gave up cleanly — no masters to merge
            Err(e) if permanent_loss(&e) => {}
            Err(e) if comm_rooted(&e) => {
                surfaced = true;
            }
            Err(e) => return Err(format!("non-communication panic: {e}")),
        }
    }
    if surfaced || vals.is_empty() {
        return Ok(None);
    }
    Ok(Some(merge_master_values(g.num_nodes(), vals)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary (policy, fault schedule, scheduler seed, graph): the run
    /// converges to the reference labels or aborts with a surfaced
    /// communication error.
    #[test]
    fn cc_lp_converges_or_surfaces(
        policy in policies(),
        plan in fault_plans(),
        sim_seed in 0u64..=u64::MAX,
        graph_seed in 0u64..64,
    ) {
        let g = gen::rmat(6, 4, graph_seed);
        match sim_cc_lp(&g, policy, plan, sim_seed) {
            Ok(Some(labels)) => {
                prop_assert_eq!(labels, refcheck::connected_components(&g),
                    "converged labels diverged from reference");
            }
            Ok(None) => {} // surfaced cleanly — acceptable under faults
            Err(bug) => panic!("{bug}"),
        }
    }

    /// The CLI fuzz path: everything — graph, fault plan, schedule — is
    /// derived from ONE seed, so a failure here is replayed exactly by
    /// the printed `kimbap sim` command.
    #[test]
    fn cli_fuzz_seed_converges_or_surfaces(seed in 0u64..=u64::MAX) {
        let replay = simfuzz::replay_command("cc-lp", seed, HOSTS, 1, 6, 4, "random");
        let g = gen::rmat(6, 4, seed);
        let plan = simfuzz::random_fault_plan(seed, HOSTS);
        match sim_cc_lp(&g, Policy::CartesianVertexCut, plan, seed) {
            Ok(Some(labels)) => {
                prop_assert_eq!(labels, refcheck::connected_components(&g),
                    "labels diverged from reference; replay: {}", replay);
            }
            Ok(None) => {}
            Err(bug) => panic!("{bug}; replay: {replay}"),
        }
    }

    /// Permanent loss at an ARBITRARY time: whatever host is killed at
    /// whatever round under whatever schedule, an elastic run either
    /// shrinks past it and converges to the reference labels, or
    /// surfaces a clean membership-lost failure — never a hang, never a
    /// silent divergence, never an unexplained panic.
    #[test]
    fn killed_host_shrinks_and_converges_or_surfaces(
        victim in 1usize..HOSTS,
        round in 1u64..6,
        sim_seed in 0u64..=u64::MAX,
        graph_seed in 0u64..32,
    ) {
        let g = gen::rmat(6, 4, graph_seed);
        let plan = FaultPlan::new().kill_host(victim, round);
        match sim_cc_lp_elastic(&g, plan, sim_seed) {
            Ok(Some(labels)) => {
                prop_assert_eq!(labels, refcheck::connected_components(&g),
                    "survivor labels diverged from reference");
            }
            Ok(None) => {} // surfaced membership loss — acceptable
            Err(bug) => panic!("{bug}"),
        }
    }

    /// The elastic CLI fuzz path: seed-derived kill-bearing plans
    /// (`random_kill_plan`) must shrink-and-converge or surface, and the
    /// printed `kimbap sim --faults kill` command replays them exactly.
    #[test]
    fn cli_elastic_fuzz_seed_shrinks_or_surfaces(seed in 0u64..=u64::MAX) {
        let replay = simfuzz::replay_command("cc-lp", seed, HOSTS, 1, 6, 4, "kill");
        let g = gen::rmat(6, 4, seed);
        let plan = simfuzz::random_kill_plan(seed, HOSTS);
        match sim_cc_lp_elastic(&g, plan, seed) {
            Ok(Some(labels)) => {
                prop_assert_eq!(labels, refcheck::connected_components(&g),
                    "survivor labels diverged from reference; replay: {}", replay);
            }
            Ok(None) => {}
            Err(bug) => panic!("{bug}; replay: {replay}"),
        }
    }

    /// The churn CLI fuzz path: seed-derived mixed join/kill plans
    /// (`random_churn_plan`) run the compiled elastic engine through
    /// every membership interleaving — join-only, kill-only, both, or
    /// quiet — and the final merged labels must still equal the
    /// static-membership reference (or the run surfaces a clean
    /// failure). The printed `kimbap sim --faults churn` command replays
    /// the schedule exactly.
    #[test]
    fn cli_churn_fuzz_seed_grows_shrinks_or_surfaces(seed in 0u64..=u64::MAX) {
        let replay = simfuzz::replay_command("cc-lp", seed, HOSTS, 1, 6, 4, "churn");
        let g = gen::rmat(6, 4, seed);
        let plan = simfuzz::random_churn_plan(seed, HOSTS);
        match sim_cc_lp_churn(&g, plan, seed) {
            Ok(Some(labels)) => {
                prop_assert_eq!(labels, refcheck::connected_components(&g),
                    "churned labels diverged from reference; replay: {}", replay);
            }
            Ok(None) => {}
            Err(bug) => panic!("{bug}; replay: {replay}"),
        }
    }
}
