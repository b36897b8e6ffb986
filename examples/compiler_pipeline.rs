//! The compiler pipeline, end to end: write CC-SV once (the paper's
//! Fig. 4), compile it with and without the §5.2 optimizations, inspect the
//! generated BSP structure (Fig. 8) and the register code the hook is
//! lowered to, and execute both plans on a cluster.
//!
//! Run with: `cargo run --release --example compiler_pipeline`

use kimbap::engine::Engine;
use kimbap::prelude::*;
use kimbap_compiler::transform::{CompiledLoop, CompiledTop};
use kimbap_compiler::{classify_program, compile, programs, OptLevel};

fn describe(name: &str, l: &CompiledLoop) {
    println!(
        "  {name}: iterate {:?}, {} request phase(s), pin {:?}, reduce-sync {:?}, broadcast {:?}",
        l.iterator,
        l.request_phases.len(),
        l.pinned_maps,
        l.reduce_maps,
        l.broadcast_maps,
    );
}

fn main() {
    let prog = programs::cc_sv();
    let class = classify_program(&prog);
    println!(
        "program {}: {} operator(s), adjacent={}, trans={}",
        prog.name, class.num_operators, class.uses_adjacent, class.uses_trans
    );

    for opt in [OptLevel::Full, OptLevel::None] {
        println!("\ncompiled at {opt:?}:");
        let plan = compile(&prog, opt);
        if let CompiledTop::DoWhileScalar { body, .. } = &plan.body[1] {
            if let CompiledTop::Loop(hook) = &body[1] {
                describe("hook    ", hook);
                if opt == OptLevel::Full {
                    // What the engine executes for the hook: flat register
                    // ops, adjacent keys resolved to local ids.
                    for line in hook.code.to_string().lines() {
                        println!("      {line}");
                    }
                }
            }
            if let CompiledTop::Loop(shortcut) = &body[2] {
                describe("shortcut", shortcut);
            }
        }
    }

    // Execute both plans and compare results and communication volume.
    let g = gen::rmat(10, 8, 5);
    let parts = partition(&g, Policy::EdgeCutBlocked, 4);
    println!("\nexecuting on {} ({} hosts):", GraphStats::of(&g), 4);
    let mut results = Vec::new();
    for opt in [OptLevel::Full, OptLevel::None] {
        let plan = compile(&prog, opt);
        let t = std::time::Instant::now();
        let out = Cluster::with_threads(4, 2).run(|ctx| {
            let o = Engine::new(&parts[ctx.host()], ctx, &plan).run(ctx);
            (o, ctx.stats())
        });
        let elapsed = t.elapsed();
        let bytes: u64 = out.iter().map(|(_, s)| s.bytes).sum();
        let rounds = out[0].0.rounds;
        println!("  {opt:?}: {elapsed:.2?}, {rounds} BSP rounds, {bytes} bytes moved");
        let mut labels = vec![0u64; g.num_nodes()];
        for (o, _) in &out {
            for &(gid, v) in &o.map_values[0] {
                labels[gid as usize] = v;
            }
        }
        results.push(labels);
    }
    assert_eq!(results[0], results[1], "OPT and NO-OPT must agree");
    println!("\nboth plans produce identical components — OK");
}
