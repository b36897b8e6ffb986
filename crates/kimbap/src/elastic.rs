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
//!    ([`HostCtx::recover_grow`], while the joiner knocks in
//!    [`HostCtx::join_cluster`]); either compacts
//!    logical ranks over the new member set and bumps the generation;
//! 2. builds its own part of the graph over the new host count
//!    ([`live_part`]), under the caller's policy and storage tier;
//! 3. re-shards the durable state (`reshard`) — each member contributes
//!    its own checkpoint shard plus, when its ring predecessor departed,
//!    the predecessor's replicated shard; a joiner contributes nothing —
//!    routing every master pair to its new owner through one exchange;
//! 4. rebuilds the engine on the new partition, restores the routed
//!    state the way a crash restores a checkpoint, and resumes the program
//!    from the loop that was executing, inside any enclosing
//!    `do { .. } while` body.
//!
//! When the checkpoint cannot be reconstructed (adjacent departures, a
//! loss before the first replication, or members stopped at different
//! rounds or loops), every member agrees — all inputs to the
//! verdict are all-reduced — to restart the program from scratch on the
//! new membership instead. Either way the output is the one a fault-free
//! run on the final membership produces.

use crate::engine::{Checkpoint, Engine, EngineOutput, MembershipCause, MembershipSignal};
use kimbap_comm::{clock, CommError, CrashSignal, Deadline, HostCtx, MembershipChange};
use kimbap_compiler::transform::CompiledProgram;
use kimbap_dist::{ownership_for, partition_host, DistGraph, Ownership, PartitionCfg};
use kimbap_graph::{Graph, NodeId};
use kimbap_npm::MapSnapshot;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Membership changes (shrinks and grows together) tolerated per program
/// before giving up; bounds a knocker that retracts and re-knocks forever.
const MAX_MEMBERSHIP_CHANGES: u32 = 16;

/// Re-sharded state plus the program point to resume from.
struct ResumePoint {
    resume_at: Vec<usize>,
    state: Checkpoint,
}

/// How long a latent host knocks before giving up on admission.
const JOIN_DEADLINE: Duration = Duration::from_secs(10);

/// Runs `plan` to completion, surviving permanent host loss and admitting
/// knocking joiners (see the module docs). Collective; call from every
/// host. A latent host waits out its declared join delay, knocks, takes
/// the re-shard's state for its new shard and runs the rest as a full
/// member — or, not admitted within 10 s (the members finished first),
/// gives up benignly and returns `None`. `cfg` names the policy and
/// storage tier; each attempt partitions over the live membership
/// ([`live_part`]).
pub fn run_plan_elastic(
    g: &Graph,
    cfg: PartitionCfg,
    plan: &CompiledProgram,
    ctx: &HostCtx,
) -> Option<EngineOutput> {
    let mut resume = None;
    if !ctx.is_member() {
        if let Some(d) = ctx.join_delay() {
            clock::sleep(d);
        }
        // A give-up is a typed timeout: the members never stopped at a
        // grow gate (the run may have finished, or growth is disabled).
        let change = ctx.join_cluster(&Deadline::after("join", JOIN_DEADLINE)).ok()?;
        resume = reshard(ctx, g, plan, None, &change);
    }
    let mut changes = 0u32;
    loop {
        let dg = &live_part(g, cfg, ctx);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut engine = Engine::new(dg, ctx, plan);
            engine.elastic = true;
            match resume.take() {
                Some(rp) => {
                    engine.restore(&rp.state);
                    engine.run_from(ctx, &rp.resume_at)
                }
                None => engine.run(ctx),
            }
        }));
        let sig = match attempt {
            Ok(out) => return Some(out),
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
        .unwrap_or_else(|e| match e {
            // A host departed during the gate: a communication-rooted
            // failure, unwound with the typed signal launchers sort by.
            CommError::MembershipLost { .. } => resume_unwind(Box::new(CrashSignal::Comm(e))),
            // Anything else (a gate timeout or protocol violation) is a bug.
            _ => panic!("membership change failed: {e}"),
        });
        resume = reshard(ctx, g, plan, Some(&sig), &change);
    }
}

/// This host's part of `g` under `cfg`'s policy and storage tier, over the
/// live membership (`cfg.hosts` is not read), built alone ([`partition_host`]).
pub fn live_part(g: &Graph, cfg: PartitionCfg, ctx: &HostCtx) -> DistGraph {
    partition_host(g, &PartitionCfg { hosts: ctx.num_hosts(), ..cfg }, ctx.host())
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
    plan: &CompiledProgram,
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
        s.state.maps.len() == nmaps
            && (!adopter
                || replica.is_some_and(|r| r.rounds == s.state.rounds && r.maps.len() == nmaps))
    });
    if ctx.all_reduce_u64(locally_fit as u64, |a, b| a.min(b)) == 0 {
        return None;
    }
    // Checkpoints are taken at collective round boundaries, so every
    // member's shard must be at the same round to replay together.
    let rounds = agree(ctx, member.map(|s| s.state.rounds))?;
    // Coverage: members' shards plus adopted replicas must hold every
    // master of every map exactly once.
    for m in 0..nmaps {
        let mine =
            member.map_or(0, |s| s.state.maps[m].len()) + replica.map_or(0, |r| r.maps[m].len());
        if ctx.all_reduce_u64(mine as u64, |a, b| a + b) != n as u64 {
            return None;
        }
    }
    // They must also have stopped in the same loop (its index path); a
    // joiner learns which one from the members.
    let depth = agree(ctx, member.map(|s| s.resume_at.len() as u64))?;
    let resume_at = (0..depth as usize)
        .map(|d| agree(ctx, member.map(|s| s.resume_at[d] as u64)).map(|i| i as usize))
        .collect::<Option<Vec<usize>>>()?;

    // Route every contributed pair to its owner under the re-partitioned
    // graph. Pairs are `(map, key, value)` triples of little-endian u64s.
    let own = ownership_for(g, new_n);
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
    let (maps, moved) =
        install_triples(&own, me, nmaps, &recv).unwrap_or_else(|e| ctx.protocol_violation(e));
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
        resume_at,
        state: Checkpoint {
            maps,
            reducers,
            rounds,
            activity_len: 0,
        },
    })
}

/// Lays the re-shard exchange's payloads (`recv[from]` from host `from`:
/// `(map, key, value)` triples of little-endian u64s) out as this host's
/// master tables under `own`: per map, one value per master of `me`, in
/// master-offset order, plus the number of keys that came from other
/// hosts. CRC framing below already guards the bytes, so a payload that is
/// not whole triples, names a map the program lacks, carries a key `me`
/// does not own or one twice, or leaves a master without a value is a
/// peer's protocol bug; the caller escalates the `Err` through
/// [`HostCtx::protocol_violation`].
fn install_triples(
    own: &Ownership,
    me: usize,
    nmaps: usize,
    recv: &[Vec<u8>],
) -> Result<(Vec<MapSnapshot<u64>>, u64), String> {
    let mut maps = vec![vec![None; own.num_masters(me)]; nmaps];
    let mut moved = 0u64;
    let word = |c: &[u8], i: usize| u64::from_le_bytes(c[i * 8..i * 8 + 8].try_into().unwrap());
    for (from, buf) in recv.iter().enumerate() {
        let err = |e: String| Err(format!("re-shard from host {from}: {e}"));
        if !buf.len().is_multiple_of(24) {
            return err(format!("{} bytes is not whole 24-byte triples", buf.len()));
        }
        for c in buf.chunks_exact(24) {
            let (m, k) = (word(c, 0), word(c, 1));
            if m >= nmaps as u64 {
                return err(format!("map index {m} out of range for {nmaps} maps"));
            }
            let Some(k) = NodeId::try_from(k)
                .ok()
                .filter(|&k| (k as usize) < own.num_nodes() && own.owner(k) == me)
            else {
                return err(format!("key {k} is not a master of host {me}"));
            };
            if maps[m as usize][own.master_offset(k)]
                .replace(word(c, 2))
                .is_some()
            {
                return err(format!("key {k} of map {m} delivered twice"));
            }
        }
        if from != me {
            moved += (buf.len() / 24) as u64;
        }
    }
    let mut tables = Vec::with_capacity(nmaps);
    for (m, vals) in maps.into_iter().enumerate() {
        let table: Option<Vec<u64>> = vals.into_iter().collect();
        let unset = || format!("re-shard left a master of map {m} without a value");
        tables.push(table.ok_or_else(unset)?);
    }
    Ok((tables, moved))
}

/// Agrees one value over the new membership: `Some(v)` exactly when every
/// member voted `v`, identically everywhere. A joiner votes `None`, which
/// is neutral. Collective.
fn agree(ctx: &HostCtx, mine: Option<u64>) -> Option<u64> {
    let lo = ctx.all_reduce_u64(mine.unwrap_or(u64::MAX), u64::min);
    let hi = ctx.all_reduce_u64(mine.unwrap_or(0), u64::max);
    (lo == hi).then_some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kimbap_comm::{Cluster, FaultPlan, HostStats};
    use kimbap_compiler::ir::Program;
    use kimbap_compiler::{compile, programs, OptLevel};
    use kimbap_dist::{partition, Policy};
    use kimbap_graph::gen;

    /// Every host of the final membership must have re-partitioned over the
    /// same boundary table, the one `ownership_for` derives from the graph
    /// and the new host count alone: host `rank`'s output lists exactly
    /// that table's masters for `rank`.
    fn assert_final_ownership(g: &Graph, outs: &[&EngineOutput]) {
        let own = ownership_for(g, outs.len());
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

    /// Elastic `program` ([`run_plan_elastic`] on every host) on a 4-slot
    /// sim cluster, partitioned under `cfg` (seed 11, which pins the
    /// schedule, so every member catches a loss at the same checkpoint
    /// round and the run deterministically takes the re-shard path rather
    /// than the agreed full restart). Asserts that the finishing hosts
    /// are exactly `finishers`, that their merged labels equal a fault-free
    /// run's, that they re-partitioned onto one boundary table, and that
    /// the re-shard exchange moved keys. Returns each finisher's stats and
    /// the first round its last attempt ran (a restart from scratch runs
    /// round 1 again).
    fn elastic_row(
        program: fn() -> Program,
        cfg: PartitionCfg,
        faults: FaultPlan,
        finishers: &[usize],
    ) -> Vec<(HostStats, u64)> {
        let g = gen::grid_road(7, 7, 3);
        let plan = compile(&program(), OptLevel::Full);
        let res = Cluster::with_threads(4, 1)
            .sim(11)
            .try_run_with_faults(faults, |ctx| {
                let out = run_plan_elastic(&g, cfg, &plan, ctx);
                (out.expect("joiner gave up before admission"), ctx.stats())
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
        let cfg = PartitionCfg::new(Policy::EdgeCutBlocked, 4);
        for (s, first) in elastic_row(
            programs::cc_lp,
            cfg,
            FaultPlan::new().kill_host(1, 3),
            &[0, 2, 3],
        ) {
            assert_eq!((s.membership_changes, s.joins), (1, 0));
            assert!(s.degraded_rounds >= 1, "no degraded rounds counted");
            assert!(first > 1, "the shrink restarted instead of resuming");
        }
        // Join host 3: capacity 4, the cluster computes on {0,1,2} until
        // host 3 knocks, then finishes four-wide on re-sharded masters.
        for (s, _) in elastic_row(
            programs::cc_lp,
            cfg,
            FaultPlan::new().join_host(3, 0),
            &[0, 1, 2, 3],
        ) {
            assert_eq!((s.membership_changes, s.joins), (1, 1));
            assert_eq!(
                s.degraded_rounds, 0,
                "a grow from the declared-latent baseline is not degradation"
            );
        }
        // Join host 3, then kill it after admission: the ring replicated
        // the newcomer's shard to host 0, which recovers it.
        let faults = FaultPlan::new().join_host(3, 0).kill_host(3, 5);
        for (s, first) in elastic_row(programs::cc_lp, cfg, faults, &[0, 1, 2]) {
            assert_eq!((s.membership_changes, s.joins), (2, 1));
            assert!(
                first > 1,
                "the newcomer's shard was lost: the run restarted"
            );
        }
    }

    #[test]
    fn vertex_cut_on_the_compressed_tier_resumes_after_a_kill_and_a_join() {
        // The row's own policy and storage tier carry through every
        // re-partition: the cc rows' Cartesian vertex-cut, compressed.
        let cfg = PartitionCfg {
            compressed: true,
            ..PartitionCfg::new(Policy::CartesianVertexCut, 4)
        };
        for program in [programs::cc_lp, programs::cc_sv] {
            let kill = FaultPlan::new().kill_host(1, 3);
            for (s, first) in elastic_row(program, cfg, kill, &[0, 2, 3]) {
                assert_eq!((s.membership_changes, s.joins), (1, 0));
                assert!(first > 1, "the shrink restarted instead of resuming");
            }
            let join = FaultPlan::new().join_host(3, 0);
            for (s, _) in elastic_row(program, cfg, join, &[0, 1, 2, 3]) {
                assert_eq!((s.membership_changes, s.joins), (1, 1));
            }
        }
    }

    /// One `(map, key, value)` triple as the re-shard exchange carries it.
    fn triple(m: u64, k: u64, v: u64) -> Vec<u8> {
        [m, k, v].iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn reshard_installs_master_tables_and_rejects_what_it_cannot_place() {
        // Six nodes in blocks of three: host 1 owns 3, 4 and 5.
        let own = Ownership::blocked(6, 2);
        let mut from0 = triple(0, 4, 40);
        from0.extend(triple(1, 3, 31));
        let mut from1 = triple(0, 3, 30);
        from1.extend(triple(0, 5, 50));
        from1.extend(triple(1, 4, 41));
        from1.extend(triple(1, 5, 51));
        let (tables, moved) = install_triples(&own, 1, 2, &[from0.clone(), from1.clone()]).unwrap();
        assert_eq!(tables, vec![vec![30, 40, 50], vec![31, 41, 51]]);
        assert_eq!(moved, 2, "only host 0's two keys moved");

        // A key another host owns, and one past the graph.
        for k in [2, 6] {
            let mut bad = from0.clone();
            bad.extend(triple(1, k, 0));
            let err = install_triples(&own, 1, 2, &[bad, from1.clone()]).unwrap_err();
            assert_eq!(
                err,
                format!("re-shard from host 0: key {k} is not a master of host 1")
            );
        }
        // The same key from two hosts.
        let mut twice = from0.clone();
        twice.extend(triple(0, 5, 50));
        let err = install_triples(&own, 1, 2, &[twice, from1.clone()]).unwrap_err();
        assert_eq!(err, "re-shard from host 1: key 5 of map 0 delivered twice");
        // A master nobody sent.
        let err = install_triples(&own, 1, 2, &[from0, triple(0, 3, 30)]).unwrap_err();
        assert_eq!(err, "re-shard left a master of map 0 without a value");
    }

    #[test]
    fn a_misplaced_reshard_key_is_a_protocol_violation() {
        // What `reshard` does with the error: the receiving host fails
        // with a typed protocol violation, not a panic.
        let own = Ownership::blocked(4, 2);
        let res = Cluster::new(2).try_run(|ctx| {
            // Host 0 keeps its masters 0 and 1; host 1 keeps host 0's 0.
            let mut out = vec![Vec::new(); 2];
            out[ctx.host()] = [triple(0, 0, 7), triple(0, 1, 7)].concat();
            if ctx.host() == 1 {
                out[1].truncate(24);
            }
            let recv = ctx.exchange(out);
            let installed = install_triples(&own, ctx.host(), 1, &recv);
            installed.unwrap_or_else(|e| ctx.protocol_violation(e))
        });
        assert_eq!(res[0].as_ref().ok(), Some(&(vec![vec![7, 7]], 0)));
        let err = res[1].as_ref().unwrap_err();
        assert!(
            err.message.contains("protocol violation")
                && err.message.contains("key 0 is not a master of host 1"),
            "host 1 reported: {}",
            err.message
        );
    }

    #[test]
    fn malformed_reshard_payloads_are_typed_errors() {
        let own = Ownership::blocked(1, 1);
        let err = install_triples(&own, 0, 1, &[vec![0u8; 23]]).unwrap_err();
        assert!(err.contains("23 bytes"), "{err}");
        let err = install_triples(&own, 0, 2, &[triple(2, 0, 0)]).unwrap_err();
        assert!(err.contains("map index 2"), "{err}");
        let err = install_triples(&own, 0, 1, &[triple(0, 1 << 32, 0)]).unwrap_err();
        assert!(err.contains("key 4294967296 is not a master"), "{err}");
    }

    /// The reference labels a fault-free run would produce.
    fn free_baseline(g: &Graph) -> Vec<u64> {
        let plan = compile(&programs::cc_lp(), OptLevel::Full);
        let parts = partition(g, Policy::EdgeCutBlocked, 4);
        let outs = Cluster::new(4).run(|ctx| Engine::new(&parts[ctx.host()], ctx, &plan).run(ctx));
        merged_map0(g.num_nodes(), &outs.iter().collect::<Vec<_>>())
    }
}
