//! Property-based end-to-end test of the compiler + engine: for *random*
//! well-formed vertex programs, the optimized and unoptimized plans must
//! produce identical results on random graphs — the §5.2 elisions are
//! semantics-preserving by construction, and this hunts for counterexamples.
//!
//! The programs come from `common/random_programs.rs`: nested arithmetic,
//! `Let`, scalar reductions inside and outside edge loops, `dst` and
//! `weight` used as values, nested guards, reduce keys that are the node,
//! the edge destination or computed, `Masters` and `AllNodes` iterators —
//! restricted here to idempotent (`Min` / `Max`) maps, whose final values
//! cannot depend on how many proxies a node has. The same generator, with
//! `Sum` maps as well, drives the lowered-executor vs tree-walk-reference
//! differential inside the `kimbap` crate (`src/engine/reference.rs`),
//! which compares scalar reducers and per-round activity too.

#[path = "common/random_programs.rs"]
mod random_programs;

use kimbap::engine::Engine;
use kimbap_comm::Cluster;
use kimbap_compiler::ir::Program;
use kimbap_compiler::{compile, OptLevel};
use kimbap_dist::{partition, Policy};
use kimbap_graph::builder::from_edges;
use proptest::prelude::*;
use random_programs::{random_edges, random_program};

fn program_strategy() -> impl Strategy<Value = Program> {
    (0u64..u64::MAX).prop_map(|seed| random_program(seed, false))
}

fn edge_list() -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    (0u64..u64::MAX).prop_map(|seed| random_edges(seed, 24, 60))
}

/// Every map's merged master values.
fn run(
    program: &Program,
    opt: OptLevel,
    edges: &[(u32, u32, u64)],
    hosts: usize,
) -> Vec<Vec<u64>> {
    let g = from_edges(edges.iter().copied());
    let parts = partition(&g, Policy::EdgeCutBlocked, hosts);
    let plan = compile(program, opt);
    let outs = Cluster::new(hosts).run(|ctx| {
        Engine::new(&parts[ctx.host()], ctx, &plan).run(ctx)
    });
    let mut vals = vec![vec![0u64; g.num_nodes()]; program.maps.len()];
    for o in outs {
        for (map, values) in o.map_values.iter().enumerate() {
            for (gid, v) in values {
                vals[map][*gid as usize] = *v;
            }
        }
    }
    vals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn opt_and_noopt_agree_on_random_programs(
        program in program_strategy(),
        edges in edge_list(),
    ) {
        let full = run(&program, OptLevel::Full, &edges, 2);
        let none = run(&program, OptLevel::None, &edges, 2);
        prop_assert_eq!(full, none);
    }

    #[test]
    fn host_count_does_not_change_results(
        program in program_strategy(),
        edges in edge_list(),
    ) {
        let one = run(&program, OptLevel::Full, &edges, 1);
        let three = run(&program, OptLevel::Full, &edges, 3);
        prop_assert_eq!(one, three);
    }
}
