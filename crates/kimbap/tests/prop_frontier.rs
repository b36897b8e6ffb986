//! Property-based differential test of active-set (frontier) execution:
//! for random sparse-eligible vertex programs, sparse rounds must be
//! round-for-round identical to dense execution — same final maps, same
//! round count — across thread counts. Sparse
//! iteration only skips nodes whose read inputs provably did not change,
//! so any divergence is an engine soundness bug, not a tolerance issue.
//!
//! Loops the compiler certifies for the host-local fixpoint
//! (`CompiledLoop::local_fixpoint`) run a varying number of passes per
//! round, but each round still ends at the host's one local fixpoint of
//! the round's start state, so their round counts stay schedule-free; the
//! global schedule's round-for-round claim is pinned on the same plans
//! with the certificate cleared. A second property checks that the two
//! schedules reach the same final maps.

use kimbap::engine::{Engine, EngineConfig, EngineOutput};
use kimbap_comm::Cluster;
use kimbap_compiler::ir::{
    BinOp, Expr, KimbapWhile, MapDecl, NodeIterator, Program, Stmt, TopStmt,
};
use kimbap_compiler::transform::CompiledTop;
use kimbap_compiler::{compile, CompiledProgram, OptLevel};
use kimbap_dist::{partition, Policy};
use kimbap_graph::builder::from_edges;
use kimbap_npm::DynReduceOp;
use proptest::prelude::*;

/// A random monotone *adjacent-vertex* operator: reads keyed only by the
/// active node and the current edge destination, min-reduce to an
/// adjacent key. At `OptLevel::Full` the compiler certifies these for
/// sparse execution (the read map is pinned, reductions idempotent).
fn adjacent_operator_strategy() -> impl Strategy<Value = Vec<Stmt>> {
    let reduce_key = prop_oneof![Just(Expr::Node), Just(Expr::EdgeDst)];
    let guard = prop_oneof![
        Just(Expr::bin(BinOp::Gt, Expr::Var(0), Expr::Var(1))),
        Just(Expr::bin(BinOp::Ne, Expr::Var(0), Expr::Var(1))),
        Just(Expr::bin(BinOp::Lt, Expr::Var(1), Expr::Var(0))),
    ];
    (reduce_key, guard, prop::bool::ANY).prop_map(|(rkey, cond, reduce_min_of_both)| {
        let reduce_value = if reduce_min_of_both {
            Expr::bin(BinOp::Min, Expr::Var(0), Expr::Var(1))
        } else {
            Expr::Var(1)
        };
        vec![
            Stmt::Read {
                dst: 0,
                map: 0,
                key: Expr::Node,
            },
            Stmt::ForEdges {
                body: vec![
                    Stmt::Read {
                        dst: 1,
                        map: 0,
                        key: Expr::EdgeDst,
                    },
                    Stmt::If {
                        cond,
                        then: vec![Stmt::Reduce {
                            map: 0,
                            key: rkey,
                            value: reduce_value,
                        }],
                    },
                ],
            },
        ]
    })
}

fn program_of(ops: Vec<Vec<Stmt>>) -> Program {
    Program {
        name: "random-frontier",
        maps: vec![MapDecl {
            op: DynReduceOp::Min,
            name: "m",
        }],
        num_reducers: 0,
        num_vars: 2,
        body: std::iter::once(TopStmt::InitMap {
            map: 0,
            value: Expr::Node,
        })
        .chain(ops.into_iter().map(|body| {
            TopStmt::While(KimbapWhile {
                quiesce_map: 0,
                iterator: NodeIterator::AllNodes,
                body,
            })
        }))
        .collect(),
    }
}

/// A random operator the compiler certifies for the host-local fixpoint:
/// a push (`m[dst] <- w`) or pull (`m[node] <- w`) relaxation that writes
/// the other endpoint's read, or the min of both, under one of the three
/// strict-improvement guards.
fn certified_operator_strategy() -> impl Strategy<Value = Vec<Stmt>> {
    (prop::bool::ANY, prop::bool::ANY, 0u32..3).prop_map(|(push, min_of_both, guard)| {
        let (target, source) = if push { (1, 0) } else { (0, 1) };
        let written = if min_of_both {
            Expr::bin(BinOp::Min, Expr::Var(0), Expr::Var(1))
        } else {
            Expr::Var(source)
        };
        let cond = match guard {
            0 => Expr::bin(BinOp::Lt, written.clone(), Expr::Var(target)),
            1 => Expr::bin(BinOp::Gt, Expr::Var(target), written.clone()),
            _ => Expr::bin(BinOp::Ne, Expr::Var(target), written.clone()),
        };
        vec![
            Stmt::Read {
                dst: 0,
                map: 0,
                key: Expr::Node,
            },
            Stmt::ForEdges {
                body: vec![
                    Stmt::Read {
                        dst: 1,
                        map: 0,
                        key: Expr::EdgeDst,
                    },
                    Stmt::If {
                        cond,
                        then: vec![Stmt::Reduce {
                            map: 0,
                            key: if push { Expr::EdgeDst } else { Expr::Node },
                            value: written,
                        }],
                    },
                ],
            },
        ]
    })
}

fn program_strategy() -> impl Strategy<Value = Program> {
    prop::collection::vec(adjacent_operator_strategy(), 1..3).prop_map(program_of)
}

fn edge_list() -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    prop::collection::vec((0u32..24, 0u32..24, Just(1u64)), 1..60)
}

fn run_cfg(
    program: &Program,
    edges: &[(u32, u32, u64)],
    hosts: usize,
    threads: usize,
    cfg: EngineConfig,
) -> (Vec<u64>, Vec<EngineOutput>) {
    let plan = compile(program, OptLevel::Full);
    let cluster = Cluster::with_threads(hosts, threads);
    run_plan(&plan, edges, Policy::EdgeCutBlocked, &cluster, cfg)
}

/// `plan` with every loop's host-local fixpoint certificate cleared: the
/// global schedule, one pass of the operator per round.
fn global_schedule(plan: &CompiledProgram) -> CompiledProgram {
    let mut plan = plan.clone();
    for t in &mut plan.body {
        if let CompiledTop::Loop(l) = t {
            l.local_fixpoint = false;
        }
    }
    plan
}

/// Runs a compiled `plan` on `cluster` over `edges` partitioned under
/// `policy`; returns the merged map 0 and every host's output.
fn run_plan(
    plan: &CompiledProgram,
    edges: &[(u32, u32, u64)],
    policy: Policy,
    cluster: &Cluster,
    cfg: EngineConfig,
) -> (Vec<u64>, Vec<EngineOutput>) {
    let g = from_edges(edges.iter().copied());
    let parts = partition(&g, policy, cluster.num_hosts());
    let outs = cluster.run(|ctx| Engine::with_config(&parts[ctx.host()], ctx, plan, cfg).run(ctx));
    let mut vals = vec![0u64; g.num_nodes()];
    for o in &outs {
        for (gid, v) in &o.map_values[0] {
            vals[*gid as usize] = *v;
        }
    }
    (vals, outs)
}

/// Number of `While` loops in the program (each contributes one dense pin
/// round per invocation).
fn num_loops(p: &Program) -> usize {
    p.body
        .iter()
        .filter(|t| matches!(t, TopStmt::While(_)))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_execution_matches_dense(
        program in program_strategy(),
        edges in edge_list(),
        threads in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
    ) {
        let sparse_cfg = EngineConfig { sparse: true, ..EngineConfig::default() };
        let dense_cfg = EngineConfig { sparse: false, ..EngineConfig::default() };
        let (sv, souts) = run_cfg(&program, &edges, 2, threads, sparse_cfg);
        let (dv, douts) = run_cfg(&program, &edges, 2, threads, dense_cfg);
        prop_assert_eq!(&sv, &dv);
        // Schedule-free for certified loops too: see the module docs.
        prop_assert_eq!(souts[0].rounds, douts[0].rounds);

        // The global schedule of the same plan, round for round.
        let global = global_schedule(&compile(&program, OptLevel::Full));
        let cluster = Cluster::with_threads(2, threads);
        let (gsv, gsouts) = run_plan(&global, &edges, Policy::EdgeCutBlocked, &cluster, sparse_cfg);
        let (gdv, gdouts) = run_plan(&global, &edges, Policy::EdgeCutBlocked, &cluster, dense_cfg);
        prop_assert_eq!(&gsv, &sv);
        prop_assert_eq!(&gsv, &gdv);
        prop_assert_eq!(gsouts[0].rounds, gdouts[0].rounds);
        let single_pass = |o: &EngineOutput| o.activity.iter().all(|a| a.passes == 1);
        prop_assert!(gsouts.iter().chain(&gdouts).all(single_pass));

        // Dense runs must never report a sparse round; sparse runs take
        // every certified loop sparse right after its pin round, so only
        // the per-loop pin rounds stay dense.
        prop_assert!(douts.iter().all(|o| o.activity.iter().all(|a| !a.sparse)));
        let plan = compile(&program, OptLevel::Full);
        let certified = plan.body.iter().all(|t| match t {
            CompiledTop::Loop(l) => l.sparse.is_some(),
            _ => true,
        });
        prop_assert!(certified, "adjacent min programs must certify at Full");
        let pins = num_loops(&program) as u64;
        for o in &souts {
            let sparse_rounds = o.activity.iter().filter(|a| a.sparse).count() as u64;
            prop_assert_eq!(sparse_rounds, o.rounds - pins);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random certified programs reach the same final maps whether their
    /// loops settle each host locally between exchanges or run the global
    /// schedule, on the same compiled plan, and never take more rounds.
    #[test]
    fn host_local_fixpoint_matches_the_global_schedule(
        program in prop::collection::vec(certified_operator_strategy(), 1..3).prop_map(program_of),
        edges in edge_list(),
        threads in 1usize..=3,
        vertex_cut in prop::bool::ANY,
        sim in prop::bool::ANY,
        seed in 0u64..1000,
    ) {
        let plan = compile(&program, OptLevel::Full);
        prop_assert!(plan
            .body
            .iter()
            .all(|t| !matches!(t, CompiledTop::Loop(l) if !l.local_fixpoint)));
        let policy = if vertex_cut { Policy::CartesianVertexCut } else { Policy::EdgeCutBlocked };
        let cluster = || {
            let c = Cluster::with_threads(2, threads);
            if sim { c.sim(seed) } else { c }
        };
        let cfg = EngineConfig::default();
        let (lv, louts) = run_plan(&plan, &edges, policy, &cluster(), cfg);
        let (gv, gouts) = run_plan(&global_schedule(&plan), &edges, policy, &cluster(), cfg);
        prop_assert_eq!(lv, gv);
        prop_assert!(louts[0].rounds <= gouts[0].rounds);
    }
}

/// A trans-vertex read (`m[m[n]]`) makes sparse iteration unsound; the
/// compiler must refuse to certify the loop and the engine must stay
/// dense even with sparse execution enabled, while still agreeing with
/// the dense run.
#[test]
fn trans_vertex_program_falls_back_to_dense() {
    let body = vec![
        Stmt::Read {
            dst: 0,
            map: 0,
            key: Expr::Node,
        },
        Stmt::Read {
            dst: 1,
            map: 0,
            key: Expr::Var(0), // chained: key computed from a prior read
        },
        Stmt::If {
            cond: Expr::bin(BinOp::Lt, Expr::Var(1), Expr::Var(0)),
            then: vec![Stmt::Reduce {
                map: 0,
                key: Expr::Node,
                value: Expr::Var(1),
            }],
        },
        Stmt::ForEdges {
            body: vec![
                Stmt::Read {
                    dst: 1,
                    map: 0,
                    key: Expr::EdgeDst,
                },
                Stmt::If {
                    cond: Expr::bin(BinOp::Lt, Expr::Var(1), Expr::Var(0)),
                    then: vec![Stmt::Reduce {
                        map: 0,
                        key: Expr::Node,
                        value: Expr::Var(1),
                    }],
                },
            ],
        },
    ];
    let program = program_of(vec![body]);
    let plan = compile(&program, OptLevel::Full);
    for t in &plan.body {
        if let CompiledTop::Loop(l) = t {
            assert!(l.sparse.is_none(), "trans-vertex loop must not certify");
        }
    }
    let edges: Vec<(u32, u32, u64)> = (0..40).map(|i| (i % 20, (i * 7 + 3) % 20, 1)).collect();
    let (sv, souts) = run_cfg(
        &program,
        &edges,
        3,
        2,
        EngineConfig {
            sparse: true,
            ..EngineConfig::default()
        },
    );
    let (dv, _) = run_cfg(
        &program,
        &edges,
        3,
        2,
        EngineConfig {
            sparse: false,
            ..EngineConfig::default()
        },
    );
    assert_eq!(sv, dv);
    assert!(souts.iter().all(|o| o.activity.iter().all(|a| !a.sparse)));
}
