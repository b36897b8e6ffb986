//! Elastic plan execution: survive permanent host loss.
//!
//! [`run_plan_elastic`] wraps the [`Engine`] in a membership-shrink loop.
//! While the cluster is whole it behaves exactly like `Engine::run`; when
//! a host is lost for good, the engine's recovery path raises a
//! [`ShrinkSignal`] carrying the last checkpoint in partition-independent
//! form, and this driver:
//!
//! 1. agrees the shrink with the other survivors
//!    ([`HostCtx::recover_shrink`]), which compacts logical ranks onto the
//!    surviving hosts and bumps the membership generation;
//! 2. recomputes the graph partition over the reduced host set;
//! 3. re-shards the durable state — each survivor contributes its own
//!    checkpoint shard plus, when its ring predecessor is among the
//!    departed, the predecessor's replicated shard — routing every master
//!    pair to its new owner through one exchange;
//! 4. rebuilds the engine on the new partition, installs the adopted
//!    state, and resumes the program from the loop that was executing.
//!
//! When the replicas cannot reconstruct the full checkpoint (adjacent
//! departures, a loss before the first replication, a non-resumable
//! program point, or a non-partition-aware variant), every survivor
//! agrees — all inputs to the verdict are all-reduced — to restart the
//! program from scratch on the shrunk membership instead. Either way the
//! output is the one a fault-free run on the surviving hosts produces.
//!
//! The same driver also grows: with [`EngineConfig::allow_grow`] the
//! engine raises a [`GrowSignal`] at the round boundary where the members
//! vote that a latent host is knocking. The driver then:
//!
//! 1. agrees the grow with the other members ([`HostCtx::recover_grow`]),
//!    admitting the knockers and bumping the membership generation, while
//!    the joiner sits in [`join_plan_elastic`] / [`HostCtx::join_cluster`];
//! 2. recomputes the partition over the expanded host set (the weighted
//!    block cut sees only the graph and the new host count);
//! 3. re-shards the members' checkpoint shards onto the new ownership in
//!    one routed exchange ([`grow_reshard`] — the joiner contributes
//!    nothing and adopts whatever now lands on its shard);
//! 4. resumes from the last checkpoint on the grown membership. Mirrors
//!    re-materialize through the replayed round's request phase, and the
//!    checkpoint replication ring — successor by logical rank — includes
//!    the newcomer from the first post-grow checkpoint on.

use crate::engine::{
    AdoptedState, DurableState, Engine, EngineConfig, EngineOutput, GrowSignal, ShrinkSignal,
};
use kimbap_comm::{clock, Deadline, GrowOutcome, HostCtx, ShrinkOutcome};
use kimbap_compiler::transform::CompiledProgram;
use kimbap_dist::{ownership_for, partition, Policy};
use kimbap_graph::{Graph, NodeId};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Membership shrinks tolerated per program before giving up.
const MAX_SHRINKS: u32 = 8;

/// Membership grows tolerated per program before giving up (bounds the
/// pathological case of a knocker that retracts and re-knocks forever).
const MAX_GROWS: u32 = 8;

/// Re-sharded state plus the program point to resume from.
struct ResumePoint {
    top_idx: usize,
    state: AdoptedState,
}

/// Runs `plan` to completion on the current membership, surviving
/// permanent host loss by shrinking onto the survivors (see the module
/// docs). Collective; call from every live host.
///
/// The partition is computed *inside* the attempt from `ctx.num_hosts()`,
/// so each retry re-partitions over the membership that is actually
/// alive.
pub fn run_plan_elastic(
    g: &Graph,
    policy: Policy,
    plan: &CompiledProgram,
    config: EngineConfig,
    ctx: &HostCtx,
) -> EngineOutput {
    let config = EngineConfig {
        allow_shrink: true,
        ..config
    };
    run_plan_elastic_from(g, policy, plan, config, ctx, None)
}

/// The shared elastic loop: run (or resume) the program, catching shrink
/// and grow signals until it completes. `config` must already have
/// `allow_shrink` set; [`run_plan_elastic`] enters with no resume point,
/// [`join_plan_elastic`] with the state the grow re-shard handed the
/// newcomer.
fn run_plan_elastic_from(
    g: &Graph,
    policy: Policy,
    plan: &CompiledProgram,
    config: EngineConfig,
    ctx: &HostCtx,
    mut resume: Option<ResumePoint>,
) -> EngineOutput {
    let mut shrinks = 0u32;
    let mut grows = 0u32;
    loop {
        let parts = partition(g, policy, ctx.num_hosts());
        let dg = &parts[ctx.host()];
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut engine = Engine::with_config(dg, ctx, plan, config);
            match resume.take() {
                Some(rp) => {
                    engine.adopt(&rp.state);
                    engine.run_from(ctx, rp.top_idx)
                }
                None => engine.run(ctx),
            }
        }));
        match attempt {
            Ok(out) => return out,
            Err(payload) => match payload.downcast::<ShrinkSignal>() {
                Ok(sig) => {
                    shrinks += 1;
                    if shrinks > MAX_SHRINKS {
                        panic!("membership shrank more than {MAX_SHRINKS} times; giving up");
                    }
                    let outcome = match ctx.recover_shrink() {
                        Ok(o) => o,
                        Err(e) => panic!("membership shrink failed: {e}"),
                    };
                    resume = reshard(ctx, g, policy, plan, &config, *sig, &outcome);
                }
                Err(payload) => match payload.downcast::<GrowSignal>() {
                    Ok(sig) => {
                        grows += 1;
                        if grows > MAX_GROWS {
                            panic!("membership grew more than {MAX_GROWS} times; giving up");
                        }
                        let outcome = match ctx.recover_grow() {
                            Ok(o) => o,
                            Err(e) => panic!("membership grow failed: {e}"),
                        };
                        resume = grow_reshard(ctx, g, policy, plan, &config, Some(*sig), &outcome);
                    }
                    Err(payload) => resume_unwind(payload),
                },
            },
        }
    }
}

/// Joins a running elastic computation from a latent host: waits out the
/// fault plan's declared join delay, knocks until admitted (or
/// `join_deadline` expires — the give-up is benign and returns `None`
/// without disturbing the members), takes the grow re-shard's state for
/// its new shard, and runs the rest of the program as a full member.
/// Returns the same [`EngineOutput`] every member produces.
pub fn join_plan_elastic(
    g: &Graph,
    policy: Policy,
    plan: &CompiledProgram,
    config: EngineConfig,
    ctx: &HostCtx,
    join_deadline: &Deadline,
) -> Option<EngineOutput> {
    if let Some(d) = ctx.join_delay() {
        clock::sleep(d);
    }
    let outcome = match ctx.join_cluster(join_deadline) {
        Ok(o) => o,
        // Typed give-up: the members never stopped at a grow gate (the
        // run may have finished, or growth is disabled). The joiner
        // simply reports it has nothing.
        Err(_) => return None,
    };
    let config = EngineConfig {
        allow_shrink: true,
        ..config
    };
    let resume = grow_reshard(ctx, g, policy, plan, &config, None, &outcome);
    Some(run_plan_elastic_from(g, policy, plan, config, ctx, resume))
}

/// Redistributes the union of surviving checkpoint shards and adopted
/// replicas over the new ownership. Returns `None` — identically on every
/// survivor — when the checkpoint cannot be reconstructed and the program
/// must restart from scratch. Collective on the shrunk membership.
fn reshard(
    ctx: &HostCtx,
    g: &Graph,
    policy: Policy,
    plan: &CompiledProgram,
    config: &EngineConfig,
    sig: ShrinkSignal,
    outcome: &ShrinkOutcome,
) -> Option<ResumePoint> {
    let n = g.num_nodes();
    let new_n = ctx.num_hosts();
    let me = ctx.host();
    let nmaps = plan.maps.len();
    ctx.set_deadline(Deadline::none());

    // This host contributes its own shard plus, when its ring predecessor
    // (in old logical ranks — the ranks replication ran under) departed,
    // the predecessor's replicated shard. Non-adjacent multi-departures
    // are each covered by their own successor; adjacent ones lose a shard
    // and fail the coverage check below.
    let pred_old = (outcome.my_old_rank + outcome.old_count - 1) % outcome.old_count;
    let adopter = outcome.departed.contains(&pred_old);
    let replica = if adopter { sig.replica.as_ref() } else { None };

    // Agree on resumability. Every input to the verdict is all-reduced,
    // so all survivors reach the identical decision.
    let locally_fit = sig.top_idx.is_some()
        && config.variant.partition_aware()
        && sig.state.maps.len() == nmaps
        && (!adopter
            || replica.is_some_and(|r| r.rounds == sig.state.rounds && r.maps.len() == nmaps));
    if ctx.all_reduce_u64(locally_fit as u64, |a, b| a.min(b)) == 0 {
        return None;
    }
    // Checkpoints are taken at collective round boundaries, so every
    // surviving shard must be at the same round to replay together.
    let r_min = ctx.all_reduce_u64(sig.state.rounds, |a, b| a.min(b));
    let r_max = ctx.all_reduce_u64(sig.state.rounds, |a, b| a.max(b));
    if r_min != r_max {
        return None;
    }
    // Coverage: surviving shards plus adopted replicas must hold every
    // master of every map exactly once.
    for m in 0..nmaps {
        let mine = sig.state.maps[m].len() + replica.map_or(0, |r| r.maps[m].len());
        if ctx.all_reduce_u64(mine as u64, |a, b| a + b) != n as u64 {
            return None;
        }
    }

    // Route every contributed pair to its owner under the re-partitioned
    // graph. Pairs are `(map, key, value)` triples of little-endian u64s.
    let own = ownership_for(g, policy, new_n);
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); new_n];
    let encode = |state: &DurableState, out: &mut Vec<Vec<u8>>| {
        for (m, pairs) in state.maps.iter().enumerate() {
            for &(k, v) in pairs {
                let buf = &mut out[own.owner(k)];
                buf.extend_from_slice(&(m as u64).to_le_bytes());
                buf.extend_from_slice(&(k as u64).to_le_bytes());
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    };
    encode(&sig.state, &mut out);
    if let Some(r) = replica {
        encode(r, &mut out);
    }
    let recv = ctx.exchange(out);

    let mut maps: Vec<HashMap<NodeId, u64>> = vec![HashMap::new(); nmaps];
    let mut moved = 0u64;
    for (from, buf) in recv.iter().enumerate() {
        assert_eq!(buf.len() % 24, 0, "torn re-shard payload");
        for c in buf.chunks_exact(24) {
            let m = u64::from_le_bytes(c[0..8].try_into().unwrap()) as usize;
            let k = u64::from_le_bytes(c[8..16].try_into().unwrap()) as NodeId;
            let v = u64::from_le_bytes(c[16..24].try_into().unwrap());
            if from != me {
                moved += 1;
            }
            maps[m].insert(k, v);
        }
    }
    ctx.add_resharded_keys(moved);

    // Scalar reducers are global sums of per-host locals: survivors keep
    // their own, and the adopter absorbs the departed predecessor's share
    // exactly once.
    let mut reducers = sig.state.reducers.clone();
    if let Some(r) = replica {
        for (acc, &v) in reducers.iter_mut().zip(&r.reducers) {
            *acc = acc.wrapping_add(v);
        }
    }

    Some(ResumePoint {
        top_idx: sig.top_idx.expect("checked by the fitness vote"),
        state: AdoptedState {
            maps,
            reducers,
            rounds: sig.state.rounds,
        },
    })
}

/// Redistributes the members' checkpoint shards over the expanded
/// ownership after a grow. Collective on the grown membership: members
/// pass their [`GrowSignal`]; the newcomer passes `None` (it owned
/// nothing) and contributes neutral identities to every agreement vote.
/// Returns `None` — identically everywhere — when the members' state
/// cannot resume and the program must restart from scratch on the grown
/// membership.
fn grow_reshard(
    ctx: &HostCtx,
    g: &Graph,
    policy: Policy,
    plan: &CompiledProgram,
    config: &EngineConfig,
    sig: Option<GrowSignal>,
    _outcome: &GrowOutcome,
) -> Option<ResumePoint> {
    let n = g.num_nodes();
    let new_n = ctx.num_hosts();
    let me = ctx.host();
    let nmaps = plan.maps.len();
    ctx.set_deadline(Deadline::none());
    let member = sig.as_ref();

    // Agree on resumability. Unlike a shrink nobody's shard is missing,
    // but the members must still be resumable (a directly resumable loop,
    // a partition-aware variant) and checkpointed at one common round.
    // The joiner votes neutrally: fit, round identities, zero coverage.
    let locally_fit = member.is_none_or(|s| {
        s.top_idx.is_some() && config.variant.partition_aware() && s.state.maps.len() == nmaps
    });
    if ctx.all_reduce_u64(locally_fit as u64, |a, b| a.min(b)) == 0 {
        return None;
    }
    let r_min = ctx.all_reduce_u64(member.map_or(u64::MAX, |s| s.state.rounds), |a, b| a.min(b));
    let r_max = ctx.all_reduce_u64(member.map_or(0, |s| s.state.rounds), |a, b| a.max(b));
    if r_min != r_max {
        return None;
    }
    // Coverage: the members' shards must hold every master of every map
    // exactly once (a crash between checkpoint and grow gate cannot lose
    // keys, but the vote proves it rather than assuming it).
    for m in 0..nmaps {
        let mine = member.map_or(0, |s| s.state.maps[m].len());
        if ctx.all_reduce_u64(mine as u64, |a, b| a + b) != n as u64 {
            return None;
        }
    }
    // The newcomer learns the resume point from the members (all carry
    // the same index; min over the joiner's neutral MAX picks it).
    let top = ctx.all_reduce_u64(
        member.map_or(u64::MAX, |s| s.top_idx.expect("checked by the fitness vote") as u64),
        |a, b| a.min(b),
    ) as usize;

    // Route every master pair to its owner under the expanded partition
    // through one exchange — same triple encoding as the shrink re-shard.
    let own = ownership_for(g, policy, new_n);
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); new_n];
    if let Some(s) = member {
        for (m, pairs) in s.state.maps.iter().enumerate() {
            for &(k, v) in pairs {
                let buf = &mut out[own.owner(k)];
                buf.extend_from_slice(&(m as u64).to_le_bytes());
                buf.extend_from_slice(&(k as u64).to_le_bytes());
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    let recv = ctx.exchange(out);

    let mut maps: Vec<HashMap<NodeId, u64>> = vec![HashMap::new(); nmaps];
    let mut moved = 0u64;
    for (from, buf) in recv.iter().enumerate() {
        assert_eq!(buf.len() % 24, 0, "torn re-shard payload");
        for c in buf.chunks_exact(24) {
            let m = u64::from_le_bytes(c[0..8].try_into().unwrap()) as usize;
            let k = u64::from_le_bytes(c[8..16].try_into().unwrap()) as NodeId;
            let v = u64::from_le_bytes(c[16..24].try_into().unwrap());
            if from != me {
                moved += 1;
            }
            maps[m].insert(k, v);
        }
    }
    ctx.add_grow_resharded_keys(moved);

    // Scalar reducers are global sums of per-host locals: members keep
    // their own, the newcomer starts from zero.
    let reducers = member.map_or_else(
        || vec![0; plan.num_reducers],
        |s| s.state.reducers.clone(),
    );

    Some(ResumePoint {
        top_idx: top,
        state: AdoptedState {
            maps,
            reducers,
            rounds: r_min,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kimbap_comm::{Cluster, FaultPlan};
    use kimbap_compiler::{compile, programs, OptLevel};
    use kimbap_graph::gen;

    /// Every host of the final membership must have re-partitioned over the
    /// same boundary table, the one `ownership_for` derives from the graph
    /// and the new host count alone: host `rank`'s output lists exactly
    /// that table's masters for `rank`.
    fn assert_final_ownership(g: &Graph, outs: &[&EngineOutput]) {
        let own = ownership_for(g, Policy::EdgeCutBlocked, outs.len());
        for (rank, out) in outs.iter().enumerate() {
            let keys: Vec<NodeId> = out.map_values[0].iter().map(|&(k, _)| k).collect();
            assert_eq!(
                keys,
                own.masters(rank).collect::<Vec<_>>(),
                "rank {rank} finished on different block boundaries"
            );
        }
    }

    fn merged_map0(n: usize, outs: &[&EngineOutput]) -> Vec<u64> {
        let mut out = vec![0; n];
        for o in outs {
            for &(g, v) in &o.map_values[0] {
                out[g as usize] = v;
            }
        }
        out
    }

    #[test]
    fn killed_host_resumes_from_replicated_checkpoint() {
        let g = gen::grid_road(7, 7, 3);
        let plan = compile(&programs::cc_lp(), OptLevel::Full);
        let expected = kimbap_algos_free_baseline(&g);

        // The sim backend pins the schedule to the seed: every survivor
        // catches the loss at the same checkpoint round, so the run
        // deterministically takes the re-shard path (on the in-proc
        // backend load can skew the catch rounds, and the agreed
        // full-restart fallback — correct but reshard-free — may fire).
        let faults = FaultPlan::new().kill_host(1, 3);
        let res = Cluster::with_threads(4, 1).sim(11).try_run_with_faults(faults, |ctx| {
            let out = run_plan_elastic(
                &g,
                Policy::EdgeCutBlocked,
                &plan,
                EngineConfig::default(),
                ctx,
            );
            (out, ctx.stats())
        });

        assert!(res[1].is_err(), "the killed host must not return a result");
        let survivors: Vec<_> = [0usize, 2, 3]
            .iter()
            .map(|&h| res[h].as_ref().unwrap_or_else(|e| panic!("host {h}: {e}")))
            .collect();
        let outs: Vec<&EngineOutput> = survivors.iter().map(|(o, _)| o).collect();
        assert_eq!(
            merged_map0(g.num_nodes(), &outs),
            expected,
            "degraded output diverged from the fault-free labels"
        );
        assert_final_ownership(&g, &outs);
        for (_, stats) in &survivors {
            assert_eq!(stats.membership_changes, 1);
            assert!(stats.degraded_rounds >= 1, "no degraded rounds counted");
        }
        // The re-shard exchange moved the departed host's keys (and the
        // repartition's) across the wire on at least one survivor.
        assert!(
            survivors.iter().any(|(_, s)| s.resharded_keys > 0),
            "no keys were re-sharded"
        );
    }

    #[test]
    fn joined_host_adopts_resharded_state() {
        let g = gen::grid_road(7, 7, 3);
        let plan = compile(&programs::cc_lp(), OptLevel::Full);
        let expected = kimbap_algos_free_baseline(&g);

        // Capacity 4, host 3 latent: the cluster computes on {0,1,2}
        // until host 3 knocks, grows to {0,1,2,3}, re-shards the master
        // maps over the expanded ownership, and finishes four-wide. The
        // labels are the algorithm's fixed point either way, so the
        // merged output must match the static fault-free baseline.
        let faults = FaultPlan::new().join_host(3, 0);
        let res = Cluster::with_threads(4, 1).sim(11).try_run_with_faults(faults, |ctx| {
            let config = EngineConfig {
                allow_grow: true,
                ..EngineConfig::default()
            };
            let out = if ctx.is_member() {
                run_plan_elastic(&g, Policy::EdgeCutBlocked, &plan, config, ctx)
            } else {
                join_plan_elastic(
                    &g,
                    Policy::EdgeCutBlocked,
                    &plan,
                    config,
                    ctx,
                    &Deadline::after("join", std::time::Duration::from_secs(60)),
                )
                .expect("joiner gave up before admission")
            };
            (out, ctx.stats())
        });

        let hosts: Vec<_> = (0..4)
            .map(|h| res[h].as_ref().unwrap_or_else(|e| panic!("host {h}: {e}")))
            .collect();
        let outs: Vec<&EngineOutput> = hosts.iter().map(|(o, _)| o).collect();
        assert_eq!(
            merged_map0(g.num_nodes(), &outs),
            expected,
            "grown output diverged from the fault-free labels"
        );
        assert_final_ownership(&g, &outs);
        for (h, (_, stats)) in hosts.iter().enumerate() {
            assert_eq!(stats.joins, 1, "host {h} counted the wrong join total");
            assert_eq!(stats.membership_changes, 1);
            assert_eq!(
                stats.degraded_rounds, 0,
                "a grow from the declared-latent baseline is not degradation"
            );
        }
        // Expanding ownership 3 -> 4 moves masters onto the newcomer (and
        // between survivors) through the grow re-shard exchange.
        assert!(
            hosts.iter().any(|(_, s)| s.grow_resharded_keys > 0),
            "no keys were re-sharded to the joined host"
        );
    }

    /// The reference labels a fault-free run would produce.
    fn kimbap_algos_free_baseline(g: &Graph) -> Vec<u64> {
        let plan = compile(&programs::cc_lp(), OptLevel::Full);
        let parts = partition(g, Policy::EdgeCutBlocked, 4);
        let outs = Cluster::new(4)
            .run(|ctx| Engine::new(&parts[ctx.host()], ctx, &plan).run(ctx));
        merged_map0(g.num_nodes(), &outs.iter().collect::<Vec<_>>())
    }
}
