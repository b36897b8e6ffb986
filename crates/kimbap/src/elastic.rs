//! Elastic plan execution: survive permanent host loss and admit joiners.
//!
//! [`run_plan_elastic`] wraps the [`Engine`] in a membership-change loop.
//! While the membership holds it behaves exactly like `Engine::run`, plus
//! checkpoint replication to the ring successor and one knock vote per
//! round. When a host is lost for good, or the members vote that a latent
//! host is knocking, the engine raises a [`MembershipSignal`] carrying the
//! last checkpoint in partition-independent form, and this driver:
//!
//! 1. agrees the change with the other members — the shrink gate
//!    ([`HostCtx::recover_shrink`]) or the grow gate
//!    ([`HostCtx::recover_grow`], while the joiner sits in
//!    [`join_plan_elastic`] / [`HostCtx::join_cluster`]); either compacts
//!    logical ranks over the new member set and bumps the generation;
//! 2. recomputes the graph partition over the new host count;
//! 3. re-shards the durable state (`reshard`) — each member contributes
//!    its own checkpoint shard plus, when its ring predecessor departed,
//!    the predecessor's replicated shard; a joiner contributes nothing —
//!    routing every master pair to its new owner through one exchange;
//! 4. rebuilds the engine on the new partition, installs the adopted
//!    state, and resumes the program from the loop that was executing.
//!
//! When the checkpoint cannot be reconstructed (adjacent departures, a
//! loss before the first replication, a non-resumable program point, or
//! a non-partition-aware variant), every member agrees — all inputs to the
//! verdict are all-reduced — to restart the program from scratch on the
//! new membership instead. Either way the output is the one a fault-free
//! run on the final membership produces.

use crate::engine::{
    AdoptedState, Engine, EngineConfig, EngineOutput, MembershipCause, MembershipSignal,
};
use kimbap_comm::{clock, Deadline, HostCtx, MembershipChange};
use kimbap_compiler::transform::CompiledProgram;
use kimbap_dist::{ownership_for, partition, Policy};
use kimbap_graph::{Graph, NodeId};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Membership changes (shrinks and grows together) tolerated per program
/// before giving up; bounds a knocker that retracts and re-knocks forever.
const MAX_MEMBERSHIP_CHANGES: u32 = 16;

/// Re-sharded state plus the program point to resume from.
struct ResumePoint {
    top_idx: usize,
    state: AdoptedState,
}

/// Runs `plan` to completion on the current membership, surviving
/// permanent host loss and admitting knocking joiners (see the module
/// docs). Collective; call from every member.
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
    run_plan_elastic_from(g, policy, plan, config, ctx, None)
}

/// The shared elastic loop: run (or resume) the program, catching
/// membership signals until it completes. [`run_plan_elastic`] enters
/// with no resume point, [`join_plan_elastic`] with the state the
/// re-shard handed the newcomer.
fn run_plan_elastic_from(
    g: &Graph,
    policy: Policy,
    plan: &CompiledProgram,
    config: EngineConfig,
    ctx: &HostCtx,
    mut resume: Option<ResumePoint>,
) -> EngineOutput {
    let mut changes = 0u32;
    loop {
        let parts = partition(g, policy, ctx.num_hosts());
        let dg = &parts[ctx.host()];
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut engine = Engine::with_config(dg, ctx, plan, config);
            engine.elastic = true;
            match resume.take() {
                Some(rp) => {
                    engine.adopt(&rp.state);
                    engine.run_from(ctx, rp.top_idx)
                }
                None => engine.run(ctx),
            }
        }));
        let sig = match attempt {
            Ok(out) => return out,
            Err(payload) => match payload.downcast::<MembershipSignal>() {
                Ok(sig) => *sig,
                Err(payload) => resume_unwind(payload),
            },
        };
        changes += 1;
        if changes > MAX_MEMBERSHIP_CHANGES {
            panic!("membership changed more than {MAX_MEMBERSHIP_CHANGES} times; giving up");
        }
        let change = match sig.cause {
            MembershipCause::Shrink => ctx.recover_shrink(),
            MembershipCause::Grow => ctx.recover_grow(),
        }
        .unwrap_or_else(|e| panic!("membership change failed: {e}"));
        resume = reshard(ctx, g, policy, plan, &config, Some(&sig), &change);
    }
}

/// Joins a running elastic computation from a latent host: waits out the
/// fault plan's declared join delay, knocks until admitted (or
/// `join_deadline` expires — the give-up is benign and returns `None`
/// without disturbing the members), takes the re-shard's state for its
/// new shard, and runs the rest of the program as a full member.
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
    // A give-up is a typed timeout: the members never stopped at a grow
    // gate (the run may have finished, or growth is disabled). The joiner
    // simply reports it has nothing.
    let change = ctx.join_cluster(join_deadline).ok()?;
    let resume = reshard(ctx, g, policy, plan, &config, None, &change);
    Some(run_plan_elastic_from(g, policy, plan, config, ctx, resume))
}

/// Redistributes the members' checkpoint shards, plus any replica adopted
/// from a departed ring predecessor, over the new ownership. Collective
/// on the new membership: members pass their [`MembershipSignal`]; a
/// joiner passes `None` (it owned nothing) and votes the neutral value of
/// every agreement. Returns `None` — identically everywhere — when the
/// checkpoint cannot be reconstructed and the program must restart from
/// scratch.
fn reshard(
    ctx: &HostCtx,
    g: &Graph,
    policy: Policy,
    plan: &CompiledProgram,
    config: &EngineConfig,
    member: Option<&MembershipSignal>,
    change: &MembershipChange,
) -> Option<ResumePoint> {
    let n = g.num_nodes();
    let new_n = ctx.num_hosts();
    let me = ctx.host();
    let nmaps = plan.maps.len();
    ctx.set_deadline(Deadline::none());

    // A member adopts its ring predecessor's replica (old logical ranks —
    // the ranks replication ran under) only when that predecessor
    // departed, which never happens in a grow. Non-adjacent
    // multi-departures are each covered by their own successor; adjacent
    // ones lose a shard and fail the coverage check below.
    let pred_old = (change.my_old_rank + change.old_count - 1) % change.old_count;
    let adopter = change.departed.contains(&pred_old);
    let replica = member.and_then(|s| s.replica.as_ref()).filter(|_| adopter);

    // Agree on resumability. Every input to the verdict is all-reduced,
    // so all members reach the identical decision; a joiner votes fit.
    let locally_fit = member.is_none_or(|s| {
        s.top_idx.is_some()
            && config.variant.partition_aware()
            && s.state.maps.len() == nmaps
            && (!adopter
                || replica.is_some_and(|r| r.rounds == s.state.rounds && r.maps.len() == nmaps))
    });
    if ctx.all_reduce_u64(locally_fit as u64, |a, b| a.min(b)) == 0 {
        return None;
    }
    // Checkpoints are taken at collective round boundaries, so every
    // member's shard must be at the same round to replay together.
    let r_min = ctx.all_reduce_u64(member.map_or(u64::MAX, |s| s.state.rounds), |a, b| a.min(b));
    let r_max = ctx.all_reduce_u64(member.map_or(0, |s| s.state.rounds), |a, b| a.max(b));
    if r_min != r_max {
        return None;
    }
    // Coverage: members' shards plus adopted replicas must hold every
    // master of every map exactly once.
    for m in 0..nmaps {
        let mine =
            member.map_or(0, |s| s.state.maps[m].len()) + replica.map_or(0, |r| r.maps[m].len());
        if ctx.all_reduce_u64(mine as u64, |a, b| a + b) != n as u64 {
            return None;
        }
    }
    // A joiner learns the resume point from the members (all carry the
    // same index; min over the joiner's neutral MAX picks it).
    let top = ctx.all_reduce_u64(
        member.map_or(u64::MAX, |s| {
            s.top_idx.expect("checked by the fitness vote") as u64
        }),
        |a, b| a.min(b),
    ) as usize;

    // Route every contributed pair to its owner under the re-partitioned
    // graph. Pairs are `(map, key, value)` triples of little-endian u64s.
    let own = ownership_for(g, policy, new_n);
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); new_n];
    for state in member.map(|s| &s.state).into_iter().chain(replica) {
        for (m, pairs) in state.maps.iter().enumerate() {
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
        let triples = decode_triples(buf, nmaps)
            .unwrap_or_else(|e| ctx.protocol_violation(format!("re-shard from host {from}: {e}")));
        if from != me {
            moved += triples.len() as u64;
        }
        for (m, k, v) in triples {
            maps[m].insert(k, v);
        }
    }
    ctx.add_resharded_keys(moved);

    // Scalar reducers are global sums of per-host locals: members keep
    // their own, a joiner starts from zero, and an adopter absorbs the
    // departed predecessor's share exactly once.
    let mut reducers =
        member.map_or_else(|| vec![0; plan.num_reducers], |s| s.state.reducers.clone());
    if let Some(r) = replica {
        for (acc, &v) in reducers.iter_mut().zip(&r.reducers) {
            *acc = acc.wrapping_add(v);
        }
    }

    Some(ResumePoint {
        top_idx: top,
        state: AdoptedState {
            maps,
            reducers,
            rounds: r_min,
        },
    })
}

/// Decodes one peer's re-shard payload into `(map, key, value)` triples.
/// CRC framing below already guards the bytes, so a malformed payload is
/// a peer's protocol bug; the caller escalates the `Err` through
/// [`HostCtx::protocol_violation`].
fn decode_triples(buf: &[u8], nmaps: usize) -> Result<Vec<(usize, NodeId, u64)>, String> {
    if !buf.len().is_multiple_of(24) {
        return Err(format!("{} bytes is not whole 24-byte triples", buf.len()));
    }
    let word = |c: &[u8], i: usize| u64::from_le_bytes(c[i * 8..i * 8 + 8].try_into().unwrap());
    buf.chunks_exact(24)
        .map(|c| {
            let m = word(c, 0);
            if m >= nmaps as u64 {
                return Err(format!("map index {m} out of range for {nmaps} maps"));
            }
            Ok((m as usize, word(c, 1) as NodeId, word(c, 2)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kimbap_comm::{Cluster, FaultPlan, HostStats};
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

    /// Elastic cc-lp on a 4-slot sim cluster (seed 11, which pins the
    /// schedule, so every member catches a loss at the same checkpoint
    /// round and the run deterministically takes the re-shard path rather
    /// than the agreed full restart). Members run [`run_plan_elastic`], a
    /// latent host [`join_plan_elastic`]. Asserts that the finishing hosts
    /// are exactly `finishers`, that their merged labels equal a fault-free
    /// run's, that they re-partitioned onto one boundary table, and that
    /// the re-shard exchange moved keys. Returns each finisher's stats and
    /// the first round its last attempt ran (a restart from scratch runs
    /// round 1 again).
    fn elastic_row(faults: FaultPlan, finishers: &[usize]) -> Vec<(HostStats, u64)> {
        let g = gen::grid_road(7, 7, 3);
        let plan = compile(&programs::cc_lp(), OptLevel::Full);
        let res = Cluster::with_threads(4, 1)
            .sim(11)
            .try_run_with_faults(faults, |ctx| {
                let config = EngineConfig::default();
                let out = if ctx.is_member() {
                    run_plan_elastic(&g, Policy::EdgeCutBlocked, &plan, config, ctx)
                } else {
                    let deadline = Deadline::after("join", std::time::Duration::from_secs(60));
                    join_plan_elastic(&g, Policy::EdgeCutBlocked, &plan, config, ctx, &deadline)
                        .expect("joiner gave up before admission")
                };
                (out, ctx.stats())
            });
        let done: Vec<usize> = (0..4).filter(|&h| res[h].is_ok()).collect();
        assert_eq!(done, finishers, "wrong hosts finished: {res:?}");
        let hosts: Vec<_> = done.iter().map(|&h| res[h].as_ref().unwrap()).collect();
        let outs: Vec<&EngineOutput> = hosts.iter().map(|(o, _)| o).collect();
        assert_eq!(
            merged_map0(g.num_nodes(), &outs),
            free_baseline(&g),
            "elastic output diverged from the fault-free labels"
        );
        assert_final_ownership(&g, &outs);
        assert!(
            hosts.iter().any(|(_, s)| s.resharded_keys > 0),
            "no keys were re-sharded"
        );
        hosts
            .iter()
            .map(|(o, s)| (*s, o.activity.first().map_or(0, |a| a.round)))
            .collect()
    }

    #[test]
    fn kill_join_and_join_then_kill_resume_from_resharded_state() {
        // Kill host 1: its successor adopts the replicated shard.
        for (s, first) in elastic_row(FaultPlan::new().kill_host(1, 3), &[0, 2, 3]) {
            assert_eq!((s.membership_changes, s.joins), (1, 0));
            assert!(s.degraded_rounds >= 1, "no degraded rounds counted");
            assert!(first > 1, "the shrink restarted instead of resuming");
        }
        // Join host 3: capacity 4, the cluster computes on {0,1,2} until
        // host 3 knocks, then finishes four-wide on re-sharded masters.
        for (s, _) in elastic_row(FaultPlan::new().join_host(3, 0), &[0, 1, 2, 3]) {
            assert_eq!((s.membership_changes, s.joins), (1, 1));
            assert_eq!(
                s.degraded_rounds, 0,
                "a grow from the declared-latent baseline is not degradation"
            );
        }
        // Join host 3, then kill it after admission: the ring replicated
        // the newcomer's shard to host 0, which recovers it.
        let faults = FaultPlan::new().join_host(3, 0).kill_host(3, 5);
        for (s, first) in elastic_row(faults, &[0, 1, 2]) {
            assert_eq!((s.membership_changes, s.joins), (2, 1));
            assert!(
                first > 1,
                "the newcomer's shard was lost: the run restarted"
            );
        }
    }

    #[test]
    fn malformed_reshard_payloads_are_typed_errors() {
        let err = decode_triples(&[0u8; 23], 1).unwrap_err();
        assert!(err.contains("23 bytes"), "{err}");
        let mut triple = [0u8; 24];
        triple[0] = 2;
        let err = decode_triples(&triple, 2).unwrap_err();
        assert!(err.contains("map index 2"), "{err}");
        assert_eq!(decode_triples(&triple, 3), Ok(vec![(2, 0, 0)]));
    }

    /// The reference labels a fault-free run would produce.
    fn free_baseline(g: &Graph) -> Vec<u64> {
        let plan = compile(&programs::cc_lp(), OptLevel::Full);
        let parts = partition(g, Policy::EdgeCutBlocked, 4);
        let outs = Cluster::new(4).run(|ctx| Engine::new(&parts[ctx.host()], ctx, &plan).run(ctx));
        merged_map0(g.num_nodes(), &outs.iter().collect::<Vec<_>>())
    }
}
