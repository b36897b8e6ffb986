//! Cross-backend robustness: the transport abstraction must not change
//! algorithm output, and recovery must behave identically whether hosts
//! are threads with in-memory mailboxes, threads connected over real TCP
//! loopback sockets, or cooperatively scheduled hosts inside the
//! deterministic simulation.
//!
//! Three properties are checked end to end:
//! * the fixed-seed fault matrix (drops, corruption, mid-run crash x
//!   cc_lp, louvain, msf) produces bit-identical output on all three
//!   backends, and the injecting plans actually exercise the repair path
//!   (nonzero retransmission counters);
//! * a permanently killed host is shrunk away and a live joiner is
//!   admitted with the same labels, the same shrink / grow verdicts and
//!   the same membership counters on every backend — all three run the
//!   one membership protocol;
//! * a hung host is flagged — by the phase deadline or by the heartbeat
//!   failure detector — and checkpoint replay restores the fault-free
//!   answer. Each detector is checked on the simulation backend (where
//!   the stall elapses in virtual time) plus one real backend, so both
//!   real transports stay covered without paying every wall-clock stall
//!   twice.

mod common;

use common::{cc_lp_labels, louvain_result as louvain_labels, msf_forest, HOSTS};
use kimbap::engine::{Engine, EngineConfig};
use kimbap_algos::merge_master_values;
use kimbap_comm::{Cluster, FaultPlan, HeartbeatConfig, TransportConfig};
use kimbap_compiler::{compile, programs, OptLevel};
use kimbap_comm::wire::encode_slice;
use kimbap_dist::{ownership_for, partition, partition_cfg, Ownership, PartitionCfg, Policy};
use kimbap_graph::gen;
use std::time::Duration;

/// Scheduler seed for the simulation backend in the conformance matrix;
/// conformance must hold for any seed, this pins one for reproducibility.
const SIM_SEED: u64 = 0xC0FFEE;

/// The three cluster configurations under test: in-memory mailboxes, TCP
/// loopback sockets, and the deterministic simulation — otherwise
/// identical.
fn backends() -> [(&'static str, Cluster); 3] {
    [
        ("inproc", Cluster::with_threads(HOSTS, 2)),
        ("tcp", Cluster::with_threads(HOSTS, 2).tcp()),
        ("sim", Cluster::with_threads(HOSTS, 2).sim(SIM_SEED)),
    ]
}

/// The same three seeded plans as `fault_injection::fault_matrix_smoke`.
fn matrix_plans() -> [FaultPlan; 3] {
    [
        FaultPlan::new().drop_frame(0, 1, 1).with_seed(1).drop_rate(0.02),
        FaultPlan::new()
            .corrupt_frame(1, 2, 1, 55)
            .with_seed(2)
            .corrupt_rate(0.02),
        FaultPlan::new().crash_host(1, 2),
    ]
}

/// The PR's acceptance matrix: three seeded plans x three algorithms must
/// produce identical output on the in-proc, TCP-loopback, and simulation
/// backends — and the frame-injecting plans must actually exercise the
/// retransmission path on every backend.
#[test]
fn fault_matrix_is_transport_invariant() {
    let g = gen::rmat(6, 4, 9);
    let gw = gen::with_random_weights(&g, 1 << 16, 9 ^ 0x5eed);
    let baseline = Cluster::with_threads(HOSTS, 2);
    let (cc_baseline, _) = cc_lp_labels(&g, &baseline, FaultPlan::new(), true);
    let louvain_baseline = louvain_labels(&g, &baseline, FaultPlan::new());
    let msf_baseline = msf_forest(&gw, &baseline, FaultPlan::new());
    for (name, cluster) in backends() {
        for (i, plan) in matrix_plans().into_iter().enumerate() {
            let (labels, retransmits) = cc_lp_labels(&g, &cluster, plan, true);
            assert_eq!(labels, cc_baseline, "cc diverged under plan {i} on {name}");
            if i == 0 {
                // The drop plan removes a frame outright: repair must go
                // through the retransmission path, on every backend.
                assert!(retransmits >= 1, "drop plan caused no retransmits on {name}");
            }
        }
        for (i, plan) in matrix_plans().into_iter().enumerate() {
            assert_eq!(
                louvain_labels(&g, &cluster, plan),
                louvain_baseline,
                "louvain diverged under plan {i} on {name}"
            );
        }
        for (i, plan) in matrix_plans().into_iter().enumerate() {
            assert_eq!(
                msf_forest(&gw, &cluster, plan),
                msf_baseline,
                "msf diverged under plan {i} on {name}"
            );
        }
    }
}

/// Runs the compiled cc_sv plan and merges the label map, reporting the
/// per-host robustness counters alongside.
fn engine_cc_sv(
    g: &kimbap_graph::Graph,
    cluster: &Cluster,
    plan: FaultPlan,
    config: EngineConfig,
) -> (Vec<u64>, u64, u64) {
    let compiled = compile(&programs::cc_sv(), OptLevel::Full);
    let parts = partition(g, Policy::EdgeCutBlocked, HOSTS);
    let outs = cluster.run_with_faults(plan, |ctx| {
        let out = Engine::with_config(&parts[ctx.host()], ctx, &compiled, config).run(ctx);
        let s = ctx.stats();
        (out, s.timeout_aborts, s.heartbeat_suspicions)
    });
    let timeouts = outs.iter().map(|(_, t, _)| t).sum();
    let suspicions = outs.iter().map(|(_, _, s)| s).sum();
    let labels = merge_master_values(
        g.num_nodes(),
        outs.into_iter().map(|(o, _, _)| o.map_values[0].clone()).collect(),
    );
    (labels, timeouts, suspicions)
}

/// What `kimbap _worker` does: every host partitions the graph *on its
/// own*, from nothing but the graph and the host count — here each on a
/// different storage tier too. The block boundaries each host derived are
/// exchanged over the transport and must be byte-equal everywhere, and
/// the compiled cc-sv run over those private partitions must produce the
/// shared-partition labels.
#[test]
fn every_host_derives_the_same_block_boundaries() {
    let g = gen::rmat(7, 4, 31);
    let (baseline, _, _) = engine_cc_sv(
        &g,
        &Cluster::with_threads(HOSTS, 2),
        FaultPlan::new(),
        EngineConfig::default(),
    );
    let compiled = compile(&programs::cc_sv(), OptLevel::Full);
    for (name, cluster) in backends() {
        let outs = cluster.run(|ctx| {
            let cfg = PartitionCfg {
                compressed: ctx.host() % 2 == 0,
                ..PartitionCfg::new(Policy::EdgeCutBlocked, ctx.num_hosts())
            };
            let parts = partition_cfg(&g, &cfg);
            let dg = &parts[ctx.host()];
            let Ownership::Blocked { bounds } = dg.ownership() else {
                panic!("edge-cut (blocked) must use blocked ownership");
            };
            assert_eq!(
                dg.ownership(),
                &ownership_for(&g, Policy::EdgeCutBlocked, ctx.num_hosts())
            );
            let mine = encode_slice(&bounds[..]);
            for (peer, theirs) in ctx.exchange(vec![mine.clone(); HOSTS]).iter().enumerate() {
                assert_eq!(theirs, &mine, "host {peer} cut different blocks on {name}");
            }
            Engine::new(dg, ctx, &compiled).run(ctx)
        });
        let labels = merge_master_values(
            g.num_nodes(),
            outs.into_iter().map(|o| o.map_values[0].clone()).collect(),
        );
        assert_eq!(labels, baseline, "private partitions diverged on {name}");
    }
}

/// A host that stalls mid-round is flagged by the phase deadline; every
/// host aborts the round and checkpoint replay restores the fault-free
/// labels. Checked on the simulation backend (virtual time) and in-proc
/// (real clock).
#[test]
fn engine_hung_host_recovers_via_deadline() {
    let g = gen::rmat(7, 4, 31);
    let config = EngineConfig {
        phase_timeout: Some(Duration::from_millis(150)),
        ..EngineConfig::default()
    };
    let (baseline, t0, _) =
        engine_cc_sv(&g, &Cluster::with_threads(HOSTS, 2), FaultPlan::new(), config);
    assert_eq!(t0, 0, "fault-free run must not trip the deadline");
    let backends = [
        ("sim", Cluster::with_threads(HOSTS, 2).sim(SIM_SEED)),
        ("inproc", Cluster::with_threads(HOSTS, 2)),
    ];
    for (name, cluster) in backends {
        let plan = FaultPlan::new().stall_host(1, 2, 400);
        let (labels, timeouts, _) = engine_cc_sv(&g, &cluster, plan, config);
        assert_eq!(labels, baseline, "stall recovery diverged on {name}");
        assert!(timeouts >= 1, "no timeout abort recorded on {name}");
    }
}

/// The same hung host flagged by the heartbeat failure detector instead:
/// no phase deadline configured, but the stalled host goes silent past
/// `suspect_after` and peers abort with `PeerDown`. Checked on the
/// simulation backend (virtual time) and TCP loopback (real detector
/// threads).
#[test]
fn engine_hung_host_recovers_via_heartbeat() {
    let g = gen::rmat(7, 4, 31);
    let hb = TransportConfig::with_heartbeat(HeartbeatConfig {
        interval: Duration::from_millis(10),
        suspect_after: Duration::from_millis(80),
    });
    let (baseline, _, _) = engine_cc_sv(
        &g,
        &Cluster::with_threads(HOSTS, 2),
        FaultPlan::new(),
        EngineConfig::default(),
    );
    let backends = [
        ("sim", Cluster::with_threads(HOSTS, 2).sim(SIM_SEED)),
        ("tcp", Cluster::with_threads(HOSTS, 2).tcp()),
    ];
    for (name, cluster) in backends {
        let cluster = cluster.with_transport_config(hb.clone());
        let plan = FaultPlan::new().stall_host(1, 2, 400);
        let (labels, _, suspicions) = engine_cc_sv(&g, &cluster, plan, EngineConfig::default());
        assert_eq!(labels, baseline, "heartbeat recovery diverged on {name}");
        assert!(suspicions >= 1, "no heartbeat suspicion recorded on {name}");
    }
}

/// What one elastic conformance run agreed, per surviving host: final
/// members, membership generation, `membership_changes` and `joins`.
type Agreement = Vec<(Vec<usize>, u64, u64, u64)>;

/// The elastic compiled cc-lp plan (`run_plan_elastic` on every host,
/// a latent one joining) on `cluster` under `plan`. Returns the
/// merged labels and what every finishing host agreed; the killed host's
/// own abort is skipped.
fn elastic_cc_lp(g: &kimbap_graph::Graph, cluster: &Cluster, plan: FaultPlan) -> (Vec<u64>, Agreement) {
    use kimbap::elastic::run_plan_elastic;
    let prog = compile(&programs::cc_lp(), OptLevel::Full);
    let cfg = PartitionCfg::new(Policy::EdgeCutBlocked, HOSTS);
    let res = cluster.try_run_with_faults(plan, |ctx| {
        let out = run_plan_elastic(g, cfg, &prog, ctx).expect("the joiner must be admitted");
        let s = ctx.stats();
        let agreed = (ctx.members(), ctx.generation(), s.membership_changes, s.joins);
        (out.map_values[0].clone(), agreed)
    });
    let mut values = Vec::new();
    let mut agreed = Vec::new();
    for (h, r) in res.into_iter().enumerate() {
        match r {
            Ok((v, a)) => {
                values.push(v);
                agreed.push(a);
            }
            Err(e) if common::permanent_loss(&e) => {}
            Err(e) => panic!("host {h}: {e}"),
        }
    }
    (merge_master_values(g.num_nodes(), values), agreed)
}

/// The conformance rows for membership change: elastic cc-lp with host 1
/// killed mid-run, and with a latent host joining. On in-proc, TCP loopback and the simulation, labels
/// equal the fault-free baseline, and the shrink and grow verdicts — the
/// final member set, the generation, `membership_changes` and `joins` on
/// every finishing host — are identical across backends.
#[test]
fn kill_and_join_rows_agree_across_backends() {
    let g = gen::rmat(7, 4, 31);
    let (baseline, _) = cc_lp_labels(&g, &Cluster::with_threads(HOSTS, 2), FaultPlan::new(), true);
    let with_joiner = |c: Cluster| -> Cluster {
        match c.backend() {
            kimbap_comm::Backend::InProc => Cluster::with_threads(HOSTS + 1, 2),
            kimbap_comm::Backend::TcpLoopback => Cluster::with_threads(HOSTS + 1, 2).tcp(),
            kimbap_comm::Backend::Sim { seed } => Cluster::with_threads(HOSTS + 1, 2).sim(seed),
        }
    };
    let mut shrinks = Vec::new();
    let mut grows = Vec::new();
    for (name, cluster) in backends() {
        let (labels, agreed) = elastic_cc_lp(&g, &cluster, FaultPlan::new().kill_host(1, 2));
        assert_eq!(labels, baseline, "kill row diverged on {name}");
        assert_eq!(agreed.len(), HOSTS - 1, "survivors on {name}");
        shrinks.push((name, agreed));

        let cluster = with_joiner(cluster);
        let (labels, agreed) = elastic_cc_lp(&g, &cluster, FaultPlan::new().join_host(HOSTS, 0));
        assert_eq!(labels, baseline, "join row diverged on {name}");
        assert_eq!(agreed.len(), HOSTS + 1, "members plus joiner on {name}");
        grows.push((name, agreed));
    }
    for rows in [&shrinks, &grows] {
        let (first, expect) = &rows[0];
        assert!(expect.windows(2).all(|w| w[0] == w[1]), "hosts disagree on {first}: {expect:?}");
        for (name, agreed) in rows.iter() {
            assert_eq!(agreed, expect, "{name} agreed differently from {first}");
        }
    }
    assert_eq!(shrinks[0].1[0], (vec![0, 2], 1, 1, 0), "one shrink removing host 1");
    assert_eq!(grows[0].1[0], ((0..=HOSTS).collect(), 1, 1, 1), "one grow admitting the joiner");
}
