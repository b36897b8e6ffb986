//! The tree-walking interpreter the engine used to be — the reference
//! semantics of operator bodies, compiled into tests only.
//!
//! [`Engine::exec_parfor`] hands a `ParFor` to [`exec_parfor`] instead of
//! the lowered executor when the engine's test-only `reference` field is
//! set (it counts the `ParFor`s walked, so a test can tell the switch
//! took); everything around the operator (rounds, frontiers, syncs,
//! checkpoints) is the same code either way. The differential proptests
//! below run random and fixed programs both ways and demand identical
//! outcomes. The walker evaluates the `Stmt` tree directly through the
//! global-id [`NodePropMap`] interface, one atomic per scalar
//! contribution — no register code, no local-id accessor, no per-chunk
//! accumulator — so it shares nothing with what it checks.

#[path = "../../tests/common/random_programs.rs"]
mod random_programs;

use super::*;
use kimbap_comm::Cluster;
use kimbap_compiler::ir::{BinOp, Expr, Program, Stmt};
use kimbap_compiler::transform::RequestPhase;
use kimbap_compiler::{compile, programs, OptLevel};
use kimbap_dist::{partition_cfg, PartitionCfg, Policy};
use kimbap_graph::builder::from_edges;
use kimbap_graph::{gen, Graph};
use proptest::prelude::*;
use random_programs::{random_edges, random_program, Rng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Evaluation context for one statement application.
#[derive(Debug, Clone, Copy)]
struct EvalCtx {
    /// Active node's global id.
    node: u64,
    /// Current edge `(destination global id, weight)`, inside `ForEdges`.
    edge: Option<(u64, u64)>,
}

fn eval(e: &Expr, c: EvalCtx, env: &[u64]) -> u64 {
    match e {
        Expr::Const(x) => *x,
        Expr::Var(v) => env[*v],
        Expr::Node => c.node,
        Expr::EdgeDst => c.edge.expect("EdgeDst outside ForEdges").0,
        Expr::EdgeWeight => c.edge.expect("EdgeWeight outside ForEdges").1,
        Expr::Bin(op, a, b) => {
            let (a, b) = (eval(a, c, env), eval(b, c, env));
            match op {
                BinOp::Lt => (a < b) as u64,
                BinOp::Gt => (a > b) as u64,
                BinOp::Ne => (a != b) as u64,
                BinOp::Eq => (a == b) as u64,
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Min => a.min(b),
            }
        }
    }
}

/// A map initializer's value at node `g`.
pub(super) fn eval_initializer(value: &Expr, g: NodeId) -> u64 {
    let c = EvalCtx {
        node: g as u64,
        edge: None,
    };
    eval(value, c, &[])
}

/// The `Stmt` body `code` was lowered from: the loop or request phase of
/// `plan` that owns it.
fn body_of<'p>(plan: &'p CompiledProgram, code: &Code) -> &'p [Stmt] {
    fn find<'p>(tops: &'p [CompiledTop], code: &Code) -> Option<&'p [Stmt]> {
        tops.iter().find_map(|t| match t {
            CompiledTop::Loop(l) | CompiledTop::Once(l) => {
                if std::ptr::eq(&l.code, code) {
                    return Some(&l.body[..]);
                }
                l.request_phases
                    .iter()
                    .find(|p: &&RequestPhase| std::ptr::eq(&p.code, code))
                    .map(|p| &p.body[..])
            }
            CompiledTop::DoWhileScalar { body, .. } => find(body, code),
            _ => None,
        })
    }
    find(&plan.body, code).expect("code belongs to the engine's plan")
}

/// [`Engine::exec_parfor`] by tree walk; `walked` counts the calls.
pub(super) fn exec_parfor(
    engine: &Engine<'_>,
    walked: &AtomicU64,
    ctx: &HostCtx,
    iterator: NodeIterator,
    code: &Code,
    active: Option<&ActiveSet>,
) -> (u64, u64) {
    walked.fetch_add(1, Ordering::Relaxed);
    let body = body_of(engine.plan, code);
    let n = match iterator {
        NodeIterator::AllNodes => engine.dg.num_local_nodes(),
        NodeIterator::Masters => engine.dg.num_masters(),
    };
    let num_vars = engine.plan.num_vars;
    let run_one = |lid: LocalId, tid: usize, env: &mut Vec<u64>| {
        let c = EvalCtx {
            node: engine.dg.local_to_global(lid) as u64,
            edge: None,
        };
        exec_stmts(engine, body, lid, tid, c, env);
    };
    match active {
        None => {
            ctx.par_for(0..n, |tid, range| {
                let mut env = vec![0u64; num_vars];
                for l in range {
                    run_one(l as LocalId, tid, &mut env);
                }
            });
            (n as u64, n as u64)
        }
        Some(ActiveSet::List(list)) => {
            ctx.par_for(0..list.len(), |tid, range| {
                let mut env = vec![0u64; num_vars];
                for i in range {
                    run_one(list[i], tid, &mut env);
                }
            });
            (list.len() as u64, n as u64)
        }
        Some(ActiveSet::Bits { words, count }) => {
            ctx.par_for(0..words.len(), |tid, wrange| {
                let mut env = vec![0u64; num_vars];
                for w in wrange {
                    let mut bits = words[w];
                    while bits != 0 {
                        let lid = (w * 64 + bits.trailing_zeros() as usize) as LocalId;
                        bits &= bits - 1;
                        run_one(lid, tid, &mut env);
                    }
                }
            });
            (*count as u64, n as u64)
        }
    }
}

fn exec_stmts(
    engine: &Engine<'_>,
    stmts: &[Stmt],
    lid: LocalId,
    tid: usize,
    c: EvalCtx,
    env: &mut [u64],
) {
    for s in stmts {
        match s {
            Stmt::Let { dst, value } => env[*dst] = eval(value, c, env),
            Stmt::Read { dst, map, key } => {
                env[*dst] = engine.maps[*map].read(eval(key, c, env) as NodeId);
            }
            Stmt::Reduce { map, key, value } => {
                engine.maps[*map].reduce(tid, eval(key, c, env) as NodeId, eval(value, c, env));
            }
            Stmt::Request { map, key } => {
                engine.maps[*map].request(eval(key, c, env) as NodeId);
            }
            Stmt::ReduceScalar { reducer, value } => {
                engine.reducers[*reducer].reduce(eval(value, c, env));
            }
            Stmt::If { cond, then } => {
                if eval(cond, c, env) != 0 {
                    exec_stmts(engine, then, lid, tid, c, env);
                }
            }
            Stmt::ForEdges { body } => {
                for (dst, w) in engine.dg.edges(lid) {
                    let ec = EvalCtx {
                        node: c.node,
                        edge: Some((engine.dg.local_to_global(dst) as u64, w)),
                    };
                    exec_stmts(engine, body, lid, tid, ec, env);
                }
            }
        }
    }
}

/// Everything a run leaves behind that the executor can influence,
/// per host: master values of every map, scalar-reducer locals, the
/// round count, and each round's `(round, active, total, sparse)`.
type Outcome = Vec<(
    Vec<Vec<(NodeId, u64)>>,
    Vec<u64>,
    u64,
    Vec<(u64, u64, u64, bool)>,
)>;

#[derive(Debug, Clone, Copy)]
struct Setup {
    opt: OptLevel,
    policy: Policy,
    hosts: usize,
    threads: usize,
    compressed: bool,
    sparse: bool,
}

fn run(program: &Program, g: &Graph, s: Setup, reference: bool) -> Outcome {
    let plan = compile(program, s.opt);
    let parts = partition_cfg(
        g,
        &PartitionCfg {
            compressed: s.compressed,
            ..PartitionCfg::new(s.policy, s.hosts)
        },
    );
    Cluster::with_threads(s.hosts, s.threads).run(|ctx| {
        let config = EngineConfig {
            sparse: s.sparse,
            ..EngineConfig::default()
        };
        let mut engine = Engine::with_config(&parts[ctx.host()], ctx, &plan, config);
        engine.reference = reference.then(AtomicU64::default);
        let plan = engine.plan;
        engine.exec_body(ctx, &plan.body, &[]);
        if let Some(walked) = &engine.reference {
            assert!(
                walked.load(Ordering::Relaxed) > 0,
                "the tree walk never ran"
            );
        }
        let reducers = engine.reducers.iter().map(|r| r.local()).collect();
        let out = engine.into_output();
        let activity = out
            .activity
            .iter()
            .map(|a| (a.round, a.active, a.total, a.sparse))
            .collect();
        (out.map_values, reducers, out.rounds, activity)
    })
}

/// Lowered executor ≡ tree walk under every thread count, frontier
/// setting and store tier; the remaining axes (optimization level,
/// policy, host count) are drawn from `pick`.
fn assert_executors_agree(program: &Program, g: &Graph, pick: &mut Rng) {
    for threads in [1, 2, 4] {
        for sparse in [true, false] {
            for compressed in [false, true] {
                let s = Setup {
                    opt: if pick.chance(1, 2) {
                        OptLevel::Full
                    } else {
                        OptLevel::None
                    },
                    policy: if pick.chance(1, 2) {
                        Policy::EdgeCutBlocked
                    } else {
                        Policy::CartesianVertexCut
                    },
                    hosts: 2 + pick.below(2) as usize,
                    threads,
                    compressed,
                    sparse,
                };
                let lowered = run(program, g, s, false);
                let walked = run(program, g, s, true);
                assert_eq!(lowered, walked, "{s:?} on {program:#?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn lowered_executor_matches_the_tree_walk_on_random_programs(seed in 0u64..u64::MAX) {
        let program = random_program(seed, true);
        // Past 64 nodes frontiers are lists as well as bitmaps.
        let g = from_edges(random_edges(seed, 90, 260));
        assert_executors_agree(&program, &g, &mut Rng::new(seed));
    }
}

#[test]
fn lowered_executor_matches_the_tree_walk_on_the_paper_programs() {
    let mut pick = Rng::new(17);
    let social = gen::rmat(6, 4, 31);
    let road = gen::grid_road(6, 6, 3);
    for program in [
        programs::cc_sv(),
        programs::cc_lp(),
        programs::cc_sclp(),
        programs::mis(),
    ] {
        assert_executors_agree(&program, &social, &mut pick);
        assert_executors_agree(&program, &road, &mut pick);
    }
    // A 40-node path threaded through 2000 otherwise isolated nodes (its
    // ids alternate between the two blocks, so every hop crosses hosts):
    // label propagation's frontier is a few dozen nodes of a thousand for
    // forty rounds — the list-shaped active set, which the small inputs
    // above almost never produce.
    let stop = |j: u32| (j % 2) * 1000 + j / 2;
    let lane = from_edges(
        (0..39)
            .flat_map(|j| [(stop(j), stop(j + 1), 1), (stop(j + 1), stop(j), 1)])
            .chain([(1998, 1999, 1), (1999, 1998, 1)]),
    );
    assert_executors_agree(&programs::cc_lp(), &lane, &mut pick);
    let lists = run(
        &programs::cc_lp(),
        &lane,
        Setup {
            opt: OptLevel::Full,
            policy: Policy::EdgeCutBlocked,
            hosts: 2,
            threads: 2,
            compressed: true,
            sparse: true,
        },
        false,
    );
    let list_rounds = lists
        .iter()
        .flat_map(|(_, _, _, activity)| activity)
        .filter(|&&(_, active, total, sparse)| sparse && active > 1 && active * 20 < total)
        .count();
    assert!(list_rounds > 20, "only {list_rounds} list-shaped rounds");
}
