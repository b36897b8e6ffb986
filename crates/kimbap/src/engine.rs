//! Execution engine for compiler-generated BSP plans.
//!
//! The paper's compiler emits C++; this reproduction's compiler emits a
//! [`CompiledProgram`] whose operator bodies are lowered to flat register
//! code ([`kimbap_compiler::lower`]), and this engine executes that code
//! against the real node-property map runtime — every `Request`,
//! `RequestSync`, `ReduceSync`, `BroadcastSync`, and `PinMirrors` in the
//! plan turns into the corresponding [`NodePropMap`] call, so compiled
//! programs exercise exactly the same distributed machinery as the
//! hand-written algorithms in `kimbap-algos` (whose outputs they are
//! tested to match).

use kimbap_comm::{clock, Deadline, HostCtx, SyncPhase};
use kimbap_compiler::ir::NodeIterator;
use kimbap_compiler::lower::{apply_bin, Code, Op, Test};
use kimbap_compiler::transform::{CompiledLoop, CompiledProgram, CompiledTop};
use kimbap_compiler::ReadDep;
use kimbap_dist::{DistGraph, LocalId};
use kimbap_graph::NodeId;
use kimbap_npm::{ChangedKeys, DynReduceOp, MapSnapshot, NodePropMap, Npm, SumReducer};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

#[cfg(test)]
mod reference;

/// Execution options for [`Engine`], orthogonal to the compiled plan.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Allow sparse (active-set) rounds for loops the compiler certified
    /// with a [`kimbap_compiler::SparsePlan`]. When false every round runs
    /// dense, regardless of the plan.
    pub sparse: bool,
    /// Deadline applied to every sync phase of every round: a host that
    /// does not complete the phase's collectives within this budget aborts
    /// with [`kimbap_comm::CommError::Timeout`] and recovers via
    /// checkpoint replay, instead of wedging the round forever behind a
    /// hung peer. `None` (the default) waits indefinitely.
    pub phase_timeout: Option<Duration>,
    /// Offset added to every round the engine publishes via
    /// [`kimbap_comm::HostCtx::set_round`]. A serving layer sets this to
    /// `job_index * JOB_ROUND_STRIDE` so round-targeted faults and traces
    /// address "round `r` of job `k`" even when many engine runs share one
    /// `HostCtx`. Zero (the default) preserves the single-job numbering.
    pub round_base: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            sparse: true,
            phase_timeout: None,
            round_base: 0,
        }
    }
}

/// What one BSP round's reduce-compute `ParFor` actually executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundActivity {
    /// Global round number (1-based, shared across the program's loops).
    pub round: u64,
    /// Nodes the operator body ran on.
    pub active: u64,
    /// Dense extent of the loop's iterator on this host.
    pub total: u64,
    /// Whether the round iterated a sparse active set.
    pub sparse: bool,
    /// Wall-clock time of the reduce-compute phase.
    pub reduce_compute_nanos: u64,
    /// Passes of the operator the round ran before its exchange: 1 on the
    /// global schedule; under a host-local fixpoint, until the host was
    /// quiet. `active` and `sparse` describe the first pass, whose
    /// frontier the previous exchange decided.
    pub passes: u32,
}

/// The nodes a sparse round executes — Ligra's two frontier shapes.
enum ActiveSet {
    /// Sorted local ids; chosen when the frontier is far enough below the
    /// extent that per-node dispatch beats scanning a bitmap.
    List(Vec<LocalId>),
    /// Bitmap over the iterator extent, scanned word by word.
    Bits { words: Vec<u64>, count: usize },
}

/// A round-level checkpoint: everything needed to replay a BSP loop from
/// its last completed round after a host failure.
///
/// Taken on every host at each reduce-sync boundary (end of a round, after
/// the quiescence check). Master properties and scalar reducers are the
/// whole durable state: remote caches are re-materialized by the replayed
/// round's request phase, and pinned mirrors by re-pinning. A re-shard
/// ([`crate::elastic`]) builds one from the routed state, and a fresh
/// engine on the new membership restores it like any other.
#[derive(Debug, Clone)]
pub(crate) struct Checkpoint {
    /// Per map: this host's master values, in master-offset order.
    pub(crate) maps: Vec<MapSnapshot<u64>>,
    /// Per scalar reducer: this host's local contribution.
    pub(crate) reducers: Vec<u64>,
    /// Round counter at the checkpoint.
    pub(crate) rounds: u64,
    /// Activity records accumulated at checkpoint time; a restore
    /// truncates back to here so replayed rounds are not double-counted.
    pub(crate) activity_len: usize,
}

/// A checkpoint in partition-independent form: explicit master pairs per
/// map, scalar-reducer locals, and the round counter. This is what one
/// host ships to its replication ring successor at every checkpoint, and
/// what a member re-shards onto the new ownership after a membership
/// change.
#[derive(Debug, Clone)]
pub struct DurableState {
    /// Per map: `(global id, value)` for every master of the originating
    /// host's shard, in deterministic (ascending id) order.
    pub maps: Vec<Vec<(NodeId, u64)>>,
    /// Per scalar reducer: the originating host's local contribution.
    pub reducers: Vec<u64>,
    /// Round counter at the checkpoint.
    pub rounds: u64,
}

/// Why an elastic engine stopped: it chooses which membership gate the
/// elastic driver runs, and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipCause {
    /// Recovery alignment reported permanently departed hosts.
    Shrink,
    /// The members' per-round vote saw a latent host knocking to join.
    Grow,
}

/// Panic payload an engine run by the elastic driver raises instead of a
/// terminal error (a permanent loss) or at the round boundary where the
/// members vote that a latent host is knocking. Carries everything the
/// driver needs to change the membership and resume from the last
/// checkpoint.
pub struct MembershipSignal {
    /// Which gate the driver runs.
    pub cause: MembershipCause,
    /// Where the loop that was executing sits in the program: its index
    /// in the program body, then in each enclosing `DoWhileScalar`'s body
    /// (outermost first). [`Engine::run_from`] resumes there.
    pub resume_at: Vec<usize>,
    /// This host's own durable state at the last checkpoint.
    pub state: DurableState,
    /// The ring predecessor's durable state from the last replication
    /// exchange, if one completed.
    pub replica: Option<DurableState>,
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn take_u64(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let b = buf
        .get(*pos..*pos + 8)
        .ok_or_else(|| format!("{} bytes end inside the word at byte {pos}", buf.len()))?;
    *pos += 8;
    Ok(u64::from_le_bytes(b.try_into().unwrap()))
}

fn encode_state(s: &DurableState) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, s.rounds);
    put_u64(&mut buf, s.reducers.len() as u64);
    for &r in &s.reducers {
        put_u64(&mut buf, r);
    }
    put_u64(&mut buf, s.maps.len() as u64);
    for m in &s.maps {
        put_u64(&mut buf, m.len() as u64);
        for &(k, v) in m {
            put_u64(&mut buf, k as u64);
            put_u64(&mut buf, v);
        }
    }
    buf
}

/// Decodes a ring predecessor's replica. CRC framing below already guards
/// the bytes, so a malformed payload is a peer's protocol bug; the caller
/// escalates the `Err` through [`HostCtx::protocol_violation`].
fn decode_state(buf: &[u8]) -> Result<DurableState, String> {
    let mut pos = 0;
    let rounds = take_u64(buf, &mut pos)?;
    let nred = take_u64(buf, &mut pos)? as usize;
    let mut reducers = Vec::with_capacity(nred.min(1 << 16));
    for _ in 0..nred {
        reducers.push(take_u64(buf, &mut pos)?);
    }
    let nmaps = take_u64(buf, &mut pos)? as usize;
    let mut maps = Vec::with_capacity(nmaps.min(1 << 16));
    for _ in 0..nmaps {
        let len = take_u64(buf, &mut pos)? as usize;
        let mut pairs = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            let k = take_u64(buf, &mut pos)?;
            let k = NodeId::try_from(k).map_err(|_| format!("key {k} wider than a node id"))?;
            pairs.push((k, take_u64(buf, &mut pos)?));
        }
        maps.push(pairs);
    }
    if pos != buf.len() {
        return Err(format!(
            "{} trailing bytes after the state",
            buf.len() - pos
        ));
    }
    Ok(DurableState {
        maps,
        reducers,
        rounds,
    })
}

/// Per-host output of a program run.
#[derive(Debug, Clone, Default)]
pub struct EngineOutput {
    /// For every map: `(global id, value)` of this host's masters.
    pub map_values: Vec<Vec<(NodeId, u64)>>,
    /// Total BSP rounds executed across all loops.
    pub rounds: u64,
    /// Per-round execution record, in round order.
    pub activity: Vec<RoundActivity>,
}

/// Frames of at most this many registers live on the executing thread's
/// stack; a body the lowering pass sized larger gets a heap frame.
const INLINE_REGS: usize = 16;

/// Runs `f` over a fresh frame for `code`: zeroed registers with the
/// constants loaded.
#[inline]
fn with_frame<R>(code: &Code, f: impl FnOnce(&mut [u64]) -> R) -> R {
    let n = code.num_regs();
    let mut inline = [0u64; INLINE_REGS];
    let mut spill = Vec::new();
    let regs = if n <= INLINE_REGS {
        &mut inline[..n]
    } else {
        spill.resize(n, 0);
        &mut spill[..]
    };
    for &(r, v) in code.consts() {
        regs[r as usize] = v;
    }
    f(regs)
}

/// The plan executor: owns one node-property map per program map and
/// one scalar reducer per program reducer.
pub struct Engine<'g> {
    dg: &'g DistGraph,
    plan: &'g CompiledProgram,
    maps: Vec<Npm<'g, u64, DynReduceOp>>,
    reducers: Vec<SumReducer>,
    rounds: u64,
    config: EngineConfig,
    activity: Vec<RoundActivity>,
    /// Set by the elastic driver: replicate every checkpoint to the ring
    /// successor, vote each round on knocking joiners, and raise a
    /// [`MembershipSignal`] on a permanent loss or a knock.
    pub(crate) elastic: bool,
    /// The ring predecessor's durable state from the last replication
    /// exchange (elastic runs only).
    replica: Option<DurableState>,
    /// Index path of the program item currently executing, outermost
    /// first: the resume point a [`MembershipSignal`] reports.
    cursor: Vec<usize>,
    /// When set, operator bodies run through the tree-walking
    /// [`reference`] interpreter instead of the lowered code, and the
    /// counter records how many `ParFor`s did.
    #[cfg(test)]
    reference: Option<std::sync::atomic::AtomicU64>,
}

impl<'g> Engine<'g> {
    /// Creates an engine for `plan` on this host's partition with the
    /// default configuration (GAR runtime, sparse rounds on). Collective.
    pub fn new(dg: &'g DistGraph, ctx: &HostCtx, plan: &'g CompiledProgram) -> Self {
        Self::with_config(dg, ctx, plan, EngineConfig::default())
    }

    /// Creates an engine with an explicit [`EngineConfig`]. Collective.
    pub fn with_config(
        dg: &'g DistGraph,
        ctx: &HostCtx,
        plan: &'g CompiledProgram,
        config: EngineConfig,
    ) -> Self {
        let maps = plan
            .maps
            .iter()
            .map(|d| Npm::new(dg, ctx, d.op))
            .collect();
        Engine {
            dg,
            plan,
            maps,
            reducers: (0..plan.num_reducers).map(|_| SumReducer::new()).collect(),
            rounds: 0,
            config,
            activity: Vec::new(),
            elastic: false,
            replica: None,
            cursor: Vec::new(),
            #[cfg(test)]
            reference: None,
        }
    }

    /// Runs the program to completion and returns the master values of
    /// every map. Collective.
    pub fn run(self, ctx: &HostCtx) -> EngineOutput {
        self.run_from(ctx, &[])
    }

    /// Heap bytes of every map's dense master/mirror value tables on this
    /// host.
    pub fn map_table_bytes(&self) -> usize {
        self.maps.iter().map(|m| m.table_bytes()).sum()
    }

    /// Runs the program from `resume_at`: empty for a fresh run; a
    /// [`MembershipSignal::resume_at`] after a re-shard restored its
    /// routed state on a changed membership. Collective.
    pub fn run_from(mut self, ctx: &HostCtx, resume_at: &[usize]) -> EngineOutput {
        let plan: &'g CompiledProgram = self.plan;
        self.exec_body(ctx, &plan.body, resume_at);
        self.into_output()
    }

    /// Executes `body` from the item `resume_at` names (from the top when
    /// it is empty), tracking the item in [`Engine::cursor`].
    fn exec_body(&mut self, ctx: &HostCtx, body: &'g [CompiledTop], resume_at: &[usize]) {
        let (start, inner) = resume_at.split_first().map_or((0, &[][..]), |(&i, r)| (i, r));
        for (i, t) in body.iter().enumerate().skip(start) {
            self.cursor.push(i);
            self.exec_top(ctx, t, if i == start { inner } else { &[] });
            self.cursor.pop();
        }
    }

    fn into_output(self) -> EngineOutput {
        let map_values = self
            .maps
            .iter()
            .map(|m| {
                self.dg
                    .master_nodes()
                    .map(|l| {
                        let g = self.dg.local_to_global(l);
                        (g, m.read(g))
                    })
                    .collect()
            })
            .collect();
        EngineOutput {
            map_values,
            rounds: self.rounds,
            activity: self.activity,
        }
    }

    fn exec_top(&mut self, ctx: &HostCtx, t: &'g CompiledTop, resume_at: &[usize]) {
        match t {
            #[cfg(test)]
            CompiledTop::InitMap { map, value, .. } if self.reference.is_some() => {
                self.maps[*map].init_masters(&|g| reference::eval_initializer(value, g));
            }
            CompiledTop::InitMap { map, code, .. } => {
                // An initializer is `let v0 = <value>` over the node's
                // global id alone: it runs against no map, and the local
                // id handed to the executor is never looked at.
                let exec: Exec<'_, '_, false> = Exec {
                    dg: self.dg,
                    maps: &[],
                    q: 0,
                };
                with_frame(code, |regs| {
                    let regs = std::cell::RefCell::new(regs);
                    self.maps[*map].init_masters(&|g| {
                        let regs = &mut **regs.borrow_mut();
                        regs[code.node_reg() as usize] = g as u64;
                        exec.node_ops(code, regs, &mut Vec::new(), 0, 0);
                        regs[0]
                    });
                });
            }
            CompiledTop::ResetMap { map } => self.maps[*map].reset_values(ctx),
            CompiledTop::SetScalar { reducer, value } => self.reducers[*reducer].set(*value),
            CompiledTop::Loop(l) => self.exec_loop(ctx, l, true),
            CompiledTop::Once(l) => self.exec_loop(ctx, l, false),
            CompiledTop::DoWhileScalar { body, reducer } => {
                // A resumed run enters the first pass mid-body. Reset for
                // the next pass happens via the body's leading SetScalar,
                // as in the source program.
                self.exec_body(ctx, body, resume_at);
                while self.reducers[*reducer].read(ctx) != 0 {
                    self.exec_body(ctx, body, &[]);
                }
            }
        }
    }

    /// Captures the engine's durable state at a round boundary.
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            maps: self.maps.iter().map(|m| m.snapshot()).collect(),
            reducers: self.reducers.iter().map(|r| r.local()).collect(),
            rounds: self.rounds,
            activity_len: self.activity.len(),
        }
    }

    /// Converts `cp` to its partition-independent form (explicit master
    /// pairs instead of shard-relative offsets).
    fn globalize(&self, cp: &Checkpoint) -> DurableState {
        DurableState {
            maps: self
                .maps
                .iter()
                .zip(&cp.maps)
                .map(|(m, s)| m.globalize_snapshot(s))
                .collect(),
            reducers: cp.reducers.clone(),
            rounds: cp.rounds,
        }
    }

    /// Ships this host's checkpoint (globalized) to its ring successor and
    /// installs the predecessor's as the local replica. Collective; runs
    /// inside the loop's recovery scope, so a crash mid-exchange rewinds
    /// and re-replicates like any failed round.
    fn replicate(&mut self, ctx: &HostCtx, cp: &Checkpoint) {
        let k = ctx.num_hosts();
        if k < 2 {
            return;
        }
        ctx.set_deadline(Deadline::maybe("replicate", self.config.phase_timeout));
        let me = ctx.host();
        let mut out = vec![Vec::new(); k];
        out[(me + 1) % k] = encode_state(&self.globalize(cp));
        let recv = ctx.exchange(out);
        let from = (me + k - 1) % k;
        let replica = decode_state(&recv[from])
            .unwrap_or_else(|e| ctx.protocol_violation(format!("replica from host {from}: {e}")));
        self.replica = Some(replica);
        ctx.set_deadline(Deadline::none());
    }

    /// Hands the elastic driver this host's durable state at `cp` plus the
    /// predecessor's replica. `resume_unwind`, not `panic_any`: this is
    /// control flow, and the panic hook must not print it.
    fn raise(&mut self, cause: MembershipCause, cp: &Checkpoint) -> ! {
        resume_unwind(Box::new(MembershipSignal {
            cause,
            resume_at: self.cursor.clone(),
            state: self.globalize(cp),
            replica: self.replica.take(),
        }))
    }

    /// Rewinds the engine to `cp`: after [`HostCtx::recover_align`] has
    /// healed the fabric, or, on a fresh engine, to the state a re-shard
    /// routed to this host's masters. The next executed loop pins mirrors
    /// and replays from it.
    pub(crate) fn restore(&mut self, cp: &Checkpoint) {
        for (m, s) in self.maps.iter_mut().zip(&cp.maps) {
            m.restore(s);
        }
        for (r, &v) in self.reducers.iter().zip(&cp.reducers) {
            r.set(v);
        }
        self.rounds = cp.rounds;
        self.activity.truncate(cp.activity_len);
    }

    fn exec_loop(&mut self, ctx: &HostCtx, l: &CompiledLoop, repeat: bool) {
        let mut cp = self.checkpoint();
        let mut need_pin = true;
        // Replication runs at the top of the protected step, so a crash
        // anywhere inside rewinds both the round and the replica exchange
        // together; after a restore it re-ships the restored checkpoint so
        // the successor's replica matches what survivors would replay.
        let mut replicate_due = self.elastic;
        let mut recoveries = 0u32;
        loop {
            let step = catch_unwind(AssertUnwindSafe(|| {
                if self.elastic {
                    // Synchronized join detection: one host acting on its
                    // local view of a knock would desync the collectives,
                    // so every member votes and all stop at the same round
                    // boundary.
                    let knocking = u64::from(!ctx.pending_joins().is_empty());
                    if ctx.all_reduce_u64(knocking, |a, b| a.max(b)) != 0 {
                        self.raise(MembershipCause::Grow, &cp);
                    }
                }
                if replicate_due {
                    self.replicate(ctx, &cp);
                }
                self.loop_step(ctx, l, repeat, need_pin)
            }));
            match step {
                Ok(done) => {
                    need_pin = false;
                    replicate_due = self.elastic;
                    cp = self.checkpoint();
                    if done {
                        break;
                    }
                }
                Err(payload) => {
                    // Only recoverable host failures are handled; real bugs
                    // (assertion failures etc.), killed hosts and anything
                    // beyond the recovery budget propagate unchanged.
                    if let Err(payload) = ctx.recover_crash(payload, &mut recoveries) {
                        if self.elastic && !ctx.pending_departures().is_empty() {
                            self.raise(MembershipCause::Shrink, &cp);
                        }
                        resume_unwind(payload);
                    }
                    self.restore(&cp);
                    need_pin = true;
                    replicate_due = self.elastic;
                }
            }
        }
        for m in &l.pinned_maps {
            self.maps[*m].unpin_mirrors();
        }
    }

    /// Executes one BSP round of `l` (pinning mirrors first on the initial
    /// round and after a recovery); returns `true` when the loop is done.
    fn loop_step(&mut self, ctx: &HostCtx, l: &CompiledLoop, repeat: bool, pin: bool) -> bool {
        let timeout = self.config.phase_timeout;
        if pin {
            ctx.set_deadline(Deadline::maybe("pin_mirrors", timeout));
            for m in &l.pinned_maps {
                self.maps[*m].pin_mirrors(ctx);
            }
        }
        self.rounds += 1;
        ctx.set_round(self.config.round_base + self.rounds);

        // Consume the previous round's changed-key delta into a frontier
        // *before* opening the next tracking window. Pin rounds (first
        // round and post-recovery replays) and one-shot loops always run
        // dense: every node must execute at least once for the inductive
        // skip argument to hold.
        let frontier = if repeat && !pin {
            self.build_active_set(l)
        } else {
            None
        };
        self.maps[l.quiesce_map].reset_updated();
        if let Some(plan) = &l.sparse {
            // Open a fresh delta window on every read map so the next
            // round's frontier reflects exactly this round's changes.
            for &(m, _) in &plan.read_deps {
                if m != l.quiesce_map {
                    self.maps[m].reset_updated();
                }
            }
        }

        // Each segment of the round reports its wall-clock time to the
        // per-phase counters (Fig. 6 attribution); pinning and the
        // quiescence check sit outside the four phases.
        for phase in &l.request_phases {
            let t = clock::now_nanos();
            self.exec_parfor(ctx, l.iterator, &phase.code, None, None);
            ctx.add_phase_nanos(SyncPhase::RequestCompute, clock::now_nanos().saturating_sub(t));
            let t = clock::now_nanos();
            ctx.set_deadline(Deadline::maybe("request_sync", timeout));
            for m in &phase.sync_maps {
                self.maps[*m].request_sync(ctx);
            }
            ctx.add_phase_nanos(SyncPhase::RequestSync, clock::now_nanos().saturating_sub(t));
        }

        // A certified loop settles this host before the round's one
        // exchange: after every pass the local combine folds the pass's
        // partials into the tables, and the next pass runs on what that
        // changed, until nothing does. A crash anywhere in here
        // replays the whole round, passes included, from the checkpoint.
        let q = l.quiesce_map;
        let local = (repeat && l.local_fixpoint).then_some(q);
        if local.is_some() {
            self.maps[q].begin_local_passes();
        }
        let t = clock::now_nanos();
        let (active, total) = self.exec_parfor(ctx, l.iterator, &l.code, frontier.as_ref(), local);
        let (mut executed, mut extent, mut passes) = (active, total, 1);
        while local.is_some() && self.maps[q].combine_local() {
            let next = self.build_active_set(l);
            let (pass_active, pass_total) =
                self.exec_parfor(ctx, l.iterator, &l.code, next.as_ref(), local);
            executed += pass_active;
            extent += pass_total;
            passes += 1;
        }
        let reduce_compute_nanos = clock::now_nanos().saturating_sub(t);
        ctx.add_phase_nanos(SyncPhase::ReduceCompute, reduce_compute_nanos);
        ctx.add_parfor_activity(executed, extent, frontier.is_some());
        self.activity.push(RoundActivity {
            round: self.rounds,
            active,
            total,
            sparse: frontier.is_some(),
            reduce_compute_nanos,
            passes,
        });

        let t = clock::now_nanos();
        ctx.set_deadline(Deadline::maybe("reduce_sync", timeout));
        // When the whole tail concerns the quiescence map alone (every
        // adjacent-vertex loop), its reduce, broadcast and quiescence check
        // go through the map's fused entry point.
        let updated = if repeat && l.reduce_maps == [q] && l.broadcast_maps == [q] {
            let updated = self.maps[q].sync_round(ctx);
            ctx.add_phase_nanos(SyncPhase::ReduceSync, clock::now_nanos().saturating_sub(t));
            updated
        } else {
            for m in &l.reduce_maps {
                self.maps[*m].reduce_sync(ctx);
            }
            for m in &l.broadcast_maps {
                self.maps[*m].broadcast_sync(ctx);
            }
            ctx.add_phase_nanos(SyncPhase::ReduceSync, clock::now_nanos().saturating_sub(t));
            ctx.set_deadline(Deadline::maybe("quiesce", timeout));
            repeat && self.maps[q].is_updated(ctx)
        };
        // The loop may be followed by non-engine collectives (stats
        // gathers, result merges) that should not inherit a stale bound.
        ctx.set_deadline(Deadline::none());
        !updated
    }

    /// Builds the active set for one round of `l` from the changed-key
    /// deltas of the maps its body reads, or `None` when the round must
    /// run dense: no certified [`kimbap_compiler::SparsePlan`], sparse
    /// execution disabled, or a read map's delta window was invalidated
    /// by an untracked mutation.
    fn build_active_set(&self, l: &CompiledLoop) -> Option<ActiveSet> {
        let plan = l.sparse.as_ref()?;
        if !self.config.sparse {
            return None;
        }
        let n = match l.iterator {
            NodeIterator::AllNodes => self.dg.num_local_nodes(),
            NodeIterator::Masters => self.dg.num_masters(),
        };
        let num_masters = self.dg.num_masters();

        fn activate(words: &mut [u64], count: &mut usize, n: usize, lid: usize) {
            if lid < n && words[lid / 64] & (1u64 << (lid % 64)) == 0 {
                words[lid / 64] |= 1u64 << (lid % 64);
                *count += 1;
            }
        }

        let mut words = vec![0u64; n.div_ceil(64)];
        let mut count = 0usize;
        for &(m, dep) in &plan.read_deps {
            let ChangedKeys::Tracked { masters, remote } = self.maps[m].changed_keys() else {
                return None;
            };
            // Under GAR a master's bit offset *is* its local id — both
            // are the rank of the global id among this host's owned
            // nodes — and a changed remote key `g` is the mirror proxy
            // `num_masters + slot(g)`. A changed key re-activates its own
            // reader; an adjacent-keyed read additionally re-activates
            // the in-neighbors whose edge reads observe it.
            for off in masters.iter_set() {
                activate(&mut words, &mut count, n, off);
                if dep == ReadDep::Adjacent {
                    for &src in self.dg.in_neighbors(off as LocalId) {
                        activate(&mut words, &mut count, n, src as usize);
                    }
                }
            }
            for &g in remote {
                let Some(slot) = self.dg.mirror_slot(g) else {
                    continue;
                };
                let lid = num_masters + slot as usize;
                activate(&mut words, &mut count, n, lid);
                if dep == ReadDep::Adjacent {
                    for &src in self.dg.in_neighbors(lid as LocalId) {
                        activate(&mut words, &mut count, n, src as usize);
                    }
                }
            }
        }

        // Ligra-style shape switch: materialize a list only well below
        // the break-even where per-node dispatch beats scanning the
        // bitmap (1/20th of the extent, mirroring Ligra's threshold).
        Some(if count * 20 < n {
            let mut list = Vec::with_capacity(count);
            for (w, &word) in words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    list.push((w * 64 + bits.trailing_zeros() as usize) as LocalId);
                    bits &= bits - 1;
                }
            }
            ActiveSet::List(list)
        } else {
            ActiveSet::Bits { words, count }
        })
    }

    /// Runs `code` over the iterator's extent — dense, or restricted to
    /// `active` — and returns `(nodes executed, dense extent)`. Every
    /// chunk runs in its own frame, whose scalar-reducer accumulators are
    /// flushed when the chunk retires. A pass of a host-local fixpoint
    /// (`local` names its quiescence map) reads and reduces that map
    /// through the thread-visible accessors; see [`Exec`].
    fn exec_parfor(
        &self,
        ctx: &HostCtx,
        iterator: NodeIterator,
        code: &Code,
        active: Option<&ActiveSet>,
        local: Option<usize>,
    ) -> (u64, u64) {
        #[cfg(test)]
        if let Some(walked) = &self.reference {
            return reference::exec_parfor(self, walked, ctx, iterator, code, active);
        }
        let n = match iterator {
            NodeIterator::AllNodes => self.dg.num_local_nodes(),
            NodeIterator::Masters => self.dg.num_masters(),
        };
        match local {
            Some(q) => self.parfor::<true>(ctx, n, code, active, q),
            None => self.parfor::<false>(ctx, n, code, active, 0),
        }
    }

    /// [`Engine::exec_parfor`] over an extent of `n` nodes.
    fn parfor<const LOCAL: bool>(
        &self,
        ctx: &HostCtx,
        n: usize,
        code: &Code,
        active: Option<&ActiveSet>,
        q: usize,
    ) -> (u64, u64) {
        let exec: Exec<'_, 'g, LOCAL> = Exec {
            dg: self.dg,
            maps: &self.maps,
            q,
        };
        match active {
            None => {
                ctx.par_for(0..n, |tid, range| {
                    self.exec_chunk(&exec, code, tid, range.map(|l| l as LocalId));
                });
                (n as u64, n as u64)
            }
            Some(ActiveSet::List(list)) => {
                ctx.par_for(0..list.len(), |tid, range| {
                    self.exec_chunk(&exec, code, tid, list[range].iter().copied());
                });
                (list.len() as u64, n as u64)
            }
            Some(ActiveSet::Bits { words, count }) => {
                ctx.par_for(0..words.len(), |tid, wrange| {
                    let nodes = wrange.flat_map(|w| {
                        let mut bits = words[w];
                        std::iter::from_fn(move || {
                            (bits != 0).then(|| {
                                let lid = (w * 64 + bits.trailing_zeros() as usize) as LocalId;
                                bits &= bits - 1;
                                lid
                            })
                        })
                    });
                    self.exec_chunk(&exec, code, tid, nodes);
                });
                (*count as u64, n as u64)
            }
        }
    }

    /// Runs `code` on one chunk of nodes in a frame of its own, then
    /// flushes the frame's scalar-reducer accumulators: one
    /// [`SumReducer::reduce`] per reducer per chunk instead of one per
    /// firing statement. A local pass also runs, depth first after each
    /// node, every edge destination this thread's own reductions lowered:
    /// a label then crosses the host's slab in one pass instead of one hop
    /// per pass.
    #[inline]
    fn exec_chunk<const LOCAL: bool>(
        &self,
        exec: &Exec<'_, 'g, LOCAL>,
        code: &Code,
        tid: usize,
        nodes: impl Iterator<Item = LocalId>,
    ) {
        with_frame(code, |regs| {
            let mut work = Vec::new();
            for lid in nodes {
                exec.node(code, regs, &mut work, tid, lid);
                if LOCAL {
                    while let Some(next) = work.pop() {
                        exec.node(code, regs, &mut work, tid, next);
                    }
                }
            }
            for &(reducer, acc) in code.scalars() {
                self.reducers[reducer].reduce(regs[acc as usize]);
            }
        });
    }
}

/// An edge body's opening [`Op::ReadDstSkipUnless`], decoded.
#[derive(Clone, Copy)]
struct EdgeHead<'a, 'g> {
    map: &'a Npm<'g, u64, DynReduceOp>,
    /// The read goes through [`Npm::read_visible`] (a local pass's read of
    /// the quiescence map).
    visible: bool,
    dst: usize,
    test: Test,
}

/// Evaluates `test`: how many ops to skip — none when it holds, after its
/// folded-in scalar contribution has been counted.
#[inline(always)]
fn skip_of(test: Test, regs: &mut [u64]) -> usize {
    if !test.cmp.test(regs[test.a as usize], regs[test.b as usize]) {
        return test.skip as usize;
    }
    if let Some((acc, val)) = test.count {
        regs[acc as usize] = regs[acc as usize].wrapping_add(regs[val as usize]);
    }
    0
}

/// What lowered code runs against: this host's partition and the program's
/// maps. The one executor of operator bodies — dense rounds, all three
/// frontier shapes, request phases and map initializers go through
/// [`Exec::node`] / [`Exec::node_ops`].
///
/// `LOCAL` marks a host-local fixpoint's pass: reads of the quiescence map
/// `q` go through [`Npm::read_visible`] and reductions through
/// [`Npm::reduce_visible`], so a thread sees its own reductions, and an
/// edge destination whose value a reduction lowered is pushed onto the
/// thread's worklist (`work`). Elsewhere `work` stays empty.
struct Exec<'a, 'g, const LOCAL: bool> {
    dg: &'g DistGraph,
    maps: &'a [Npm<'g, u64, DynReduceOp>],
    q: usize,
}

impl<const LOCAL: bool> Exec<'_, '_, LOCAL> {
    /// Applies `code` to the proxy with local id `lid`.
    #[inline]
    fn node(
        &self,
        code: &Code,
        regs: &mut [u64],
        work: &mut Vec<LocalId>,
        tid: usize,
        lid: LocalId,
    ) {
        if code.uses_node() {
            regs[code.node_reg() as usize] = self.dg.local_to_global(lid) as u64;
        }
        self.node_ops(code, regs, work, tid, lid);
    }

    /// The node-level op loop; the caller has filled the node register.
    #[inline]
    fn node_ops(
        &self,
        code: &Code,
        regs: &mut [u64],
        work: &mut Vec<LocalId>,
        tid: usize,
        lid: LocalId,
    ) {
        let ops = code.ops();
        let mut pc = 0;
        while pc < ops.len() {
            if let Op::ForEdges { len } = ops[pc] {
                let end = pc + 1 + len as usize;
                self.for_edges(code, &ops[pc + 1..end], regs, work, tid, lid);
                pc = end;
            } else {
                // Outside an edge body no op looks at the destination.
                pc += 1 + self.step(ops[pc], regs, work, tid, lid, lid);
            }
        }
    }

    /// `map[lid]` as this thread sees it.
    #[inline(always)]
    fn read(&self, map: u32, tid: usize, lid: LocalId) -> u64 {
        let m = &self.maps[map as usize];
        if LOCAL && map as usize == self.q {
            m.read_visible(tid, lid)
        } else {
            m.read_local(lid)
        }
    }

    /// `map[lid] <- val`; returns whether a local pass's reduction lowered
    /// the value this thread sees.
    #[inline(always)]
    fn reduce(&self, map: u32, tid: usize, lid: LocalId, val: u64) -> bool {
        let m = &self.maps[map as usize];
        if LOCAL {
            m.reduce_visible(tid, lid, val)
        } else {
            m.reduce_local(tid, lid, val);
            false
        }
    }

    /// Runs the edge body `body` once per out-edge of `lid`.
    #[inline]
    fn for_edges(
        &self,
        code: &Code,
        body: &[Op],
        regs: &mut [u64],
        work: &mut Vec<LocalId>,
        tid: usize,
        lid: LocalId,
    ) {
        // The fused opening "read the neighbour, test it" is decoded here,
        // once per node: an edge that fails the test dispatches no op.
        let (head, rest) = match body.split_first() {
            Some((&Op::ReadDstSkipUnless { dst, map, test }, rest)) => (
                Some(EdgeHead {
                    map: &self.maps[map as usize],
                    visible: LOCAL && map as usize == self.q,
                    dst: dst as usize,
                    test,
                }),
                rest,
            ),
            _ => (None, body),
        };
        let dst_reg = code.uses_dst().then(|| code.dst_reg() as usize);
        // `fold` with a force-inlined closure, not `for_each`: the
        // compressed tier's `fold` applies its closure at three sites (two
        // in its paired-load loop, one in its tail), and left to itself
        // LLVM outlines a closure this size rather than copy it — a call
        // per edge, worth 1.5 ns where a dense hook edge costs 12.6.
        if code.uses_weight() {
            let weight_reg = code.weight_reg() as usize;
            self.dg.edges(lid).fold(
                (),
                #[inline(always)]
                move |(), (dst, w)| {
                    regs[weight_reg] = w;
                    self.edge(head, rest, regs, work, tid, lid, dst, dst_reg);
                },
            );
        } else {
            self.dg.targets(lid).fold(
                (),
                #[inline(always)]
                move |(), dst| self.edge(head, rest, regs, work, tid, lid, dst, dst_reg),
            );
        }
    }

    /// Applies an edge body (`head`, if it opened with the fused read and
    /// test, then `rest`) to the edge `lid -> dst`. A leaf: edge bodies
    /// hold no `ForEdges`, so this inlines into the edge iterator's fold.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn edge(
        &self,
        head: Option<EdgeHead<'_, '_>>,
        rest: &[Op],
        regs: &mut [u64],
        work: &mut Vec<LocalId>,
        tid: usize,
        lid: LocalId,
        dst: LocalId,
        dst_reg: Option<usize>,
    ) {
        if let Some(r) = dst_reg {
            regs[r] = self.dg.local_to_global(dst) as u64;
        }
        let mut pc = 0;
        if let Some(h) = head {
            regs[h.dst] = if LOCAL && h.visible {
                h.map.read_visible(tid, dst)
            } else {
                h.map.read_local(dst)
            };
            pc = skip_of(h.test, regs);
        }
        while pc < rest.len() {
            pc += 1 + self.step(rest[pc], regs, work, tid, lid, dst);
        }
    }

    /// Executes one op other than `ForEdges`; returns how many following
    /// ops to skip.
    #[inline(always)]
    fn step(
        &self,
        op: Op,
        regs: &mut [u64],
        work: &mut Vec<LocalId>,
        tid: usize,
        lid: LocalId,
        dst: LocalId,
    ) -> usize {
        let r = |regs: &[u64], i: u32| regs[i as usize];
        match op {
            Op::Bin { op, dst, a, b } => regs[dst as usize] = apply_bin(op, r(regs, a), r(regs, b)),
            Op::Mov { dst, src } => regs[dst as usize] = r(regs, src),
            Op::ReadNode { dst, map } => regs[dst as usize] = self.read(map, tid, lid),
            Op::ReadDst { dst: d, map } => regs[d as usize] = self.read(map, tid, dst),
            Op::ReadAt { dst, map, key } => {
                regs[dst as usize] = self.maps[map as usize].read(r(regs, key) as NodeId);
            }
            Op::ReduceNode { map, val } => {
                self.reduce(map, tid, lid, r(regs, val));
            }
            Op::ReduceDst { map, val } => {
                if self.reduce(map, tid, dst, r(regs, val)) {
                    work.push(dst);
                }
            }
            Op::ReduceAt { map, key, val } => {
                self.maps[map as usize].reduce(tid, r(regs, key) as NodeId, r(regs, val));
            }
            Op::RequestNode { map } => self.maps[map as usize].request_local(lid),
            Op::RequestDst { map } => self.maps[map as usize].request_local(dst),
            Op::RequestAt { map, key } => self.maps[map as usize].request(r(regs, key) as NodeId),
            Op::Acc { acc, val } => {
                regs[acc as usize] = r(regs, acc).wrapping_add(r(regs, val));
            }
            Op::SkipUnless(test) => return skip_of(test, regs),
            Op::ReadDstSkipUnless { dst: d, map, test } => {
                regs[d as usize] = self.read(map, tid, dst);
                return skip_of(test, regs);
            }
            Op::ForEdges { .. } => unreachable!("edge bodies hold no ForEdges"),
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kimbap_comm::{Cluster, FaultPlan};
    use kimbap_compiler::{compile, programs, OptLevel};
    use kimbap_dist::{partition, Policy};
    use kimbap_graph::gen;

    fn run_plan(
        prog: &kimbap_compiler::ir::Program,
        opt: OptLevel,
        g: &kimbap_graph::Graph,
        hosts: usize,
        threads: usize,
        policy: Policy,
    ) -> Vec<EngineOutput> {
        let plan = compile(prog, opt);
        let parts = partition(g, policy, hosts);
        Cluster::with_threads(hosts, threads)
            .run(|ctx| Engine::new(&parts[ctx.host()], ctx, &plan).run(ctx))
    }

    #[test]
    fn replica_payloads_round_trip_and_malformed_ones_are_errors() {
        let state = DurableState {
            maps: vec![vec![(3, 7), (9, u64::MAX)], vec![]],
            reducers: vec![5],
            rounds: 42,
        };
        let buf = encode_state(&state);
        let back = decode_state(&buf).unwrap();
        assert_eq!(
            (back.maps, back.reducers, back.rounds),
            (state.maps, state.reducers, 42)
        );
        let short = decode_state(&buf[..buf.len() - 1]).unwrap_err();
        assert!(short.contains("end inside the word"), "{short}");
        let mut padded = buf.clone();
        padded.extend_from_slice(&0u64.to_le_bytes());
        let padded = decode_state(&padded).unwrap_err();
        assert!(padded.contains("8 trailing bytes"), "{padded}");
    }

    fn merged_map0(n: usize, outs: &[EngineOutput]) -> Vec<u64> {
        let mut out = vec![0; n];
        for o in outs {
            for &(g, v) in &o.map_values[0] {
                out[g as usize] = v;
            }
        }
        out
    }

    #[test]
    fn cc_sv_plan_matches_reference() {
        let g = gen::rmat(7, 4, 31);
        let expected = kimbap_algos::refcheck::connected_components(&g);
        for opt in [OptLevel::Full, OptLevel::None] {
            let outs = run_plan(&programs::cc_sv(), opt, &g, 3, 2, Policy::EdgeCutBlocked);
            assert_eq!(
                merged_map0(g.num_nodes(), &outs),
                expected,
                "cc-sv diverged at {opt:?}"
            );
        }
    }

    #[test]
    fn cc_lp_plan_matches_reference() {
        let g = gen::grid_road(7, 7, 3);
        let expected = kimbap_algos::refcheck::connected_components(&g);
        for opt in [OptLevel::Full, OptLevel::None] {
            let outs = run_plan(&programs::cc_lp(), opt, &g, 2, 2, Policy::EdgeCutBlocked);
            assert_eq!(
                merged_map0(g.num_nodes(), &outs),
                expected,
                "cc-lp diverged at {opt:?}"
            );
        }
    }

    #[test]
    fn cc_sclp_plan_matches_reference() {
        let g = gen::rmat(6, 3, 17);
        let expected = kimbap_algos::refcheck::connected_components(&g);
        let outs = run_plan(
            &programs::cc_sclp(),
            OptLevel::Full,
            &g,
            3,
            1,
            Policy::EdgeCutBlocked,
        );
        assert_eq!(merged_map0(g.num_nodes(), &outs), expected);
    }

    #[test]
    fn mis_plan_is_valid_and_matches_native() {
        let g = gen::rmat(7, 3, 5);
        let outs = run_plan(
            &programs::mis(),
            OptLevel::Full,
            &g,
            2,
            2,
            Policy::CartesianVertexCut,
        );
        // Map 1 is `state`: 1 = in set. Isolated nodes stay 0 but belong in
        // any MIS.
        let mut in_set = vec![false; g.num_nodes()];
        for o in &outs {
            for &(gid, v) in &o.map_values[1] {
                in_set[gid as usize] = v == 1 || g.degree(gid) == 0;
            }
        }
        kimbap_algos::refcheck::check_mis(&g, &in_set).unwrap();

        // Exactly the same set the native implementation picks (priorities
        // are identical).
        let parts = partition(&g, Policy::CartesianVertexCut, 2);
        let b = kimbap_algos::NpmBuilder;
        let native = Cluster::with_threads(2, 2)
            .run(|ctx| kimbap_algos::mis(&parts[ctx.host()], ctx, &b));
        let native_set =
            kimbap_algos::merge_master_values(g.num_nodes(), native);
        assert_eq!(in_set, native_set);
    }

    #[test]
    fn opt_and_noopt_agree_on_mis() {
        let g = gen::grid_road(6, 6, 9);
        let a = run_plan(&programs::mis(), OptLevel::Full, &g, 2, 1, Policy::EdgeCutBlocked);
        let b = run_plan(&programs::mis(), OptLevel::None, &g, 2, 1, Policy::EdgeCutBlocked);
        let get = |outs: &[EngineOutput]| {
            let mut v = vec![0; g.num_nodes()];
            for o in outs {
                for &(gid, s) in &o.map_values[1] {
                    v[gid as usize] = s;
                }
            }
            v
        };
        assert_eq!(get(&a), get(&b));
    }

    #[test]
    fn plan_maps_store_one_value_per_slot() {
        // A compiled plan's maps hold what a hand-built map of the same
        // value type holds on the same partition: one u64 per master and
        // mirror slot.
        let parts = partition(&gen::rmat(7, 4, 31), Policy::EdgeCutBlocked, 2);
        for prog in [programs::cc_sv(), programs::mis()] {
            let plan = compile(&prog, OptLevel::Full);
            Cluster::with_threads(2, 2).run(|ctx| {
                let dg = &parts[ctx.host()];
                let eng = Engine::new(dg, ctx, &plan);
                let hand: usize = plan
                    .maps
                    .iter()
                    .map(|d| Npm::<u64, DynReduceOp>::new(dg, ctx, d.op).table_bytes())
                    .sum();
                assert_eq!(eng.map_table_bytes(), hand, "{}", plan.name);
                assert_eq!(
                    hand,
                    plan.maps.len() * (dg.num_masters() + dg.num_mirrors()) * 8,
                    "{}",
                    plan.name
                );
            });
        }
    }

    #[test]
    fn engine_populates_phase_counters() {
        let g = gen::rmat(7, 4, 31);
        let plan = compile(&programs::cc_sv(), OptLevel::Full);
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let stats = Cluster::with_threads(2, 2).run(|ctx| {
            ctx.reset_stats();
            Engine::new(&parts[ctx.host()], ctx, &plan).run(ctx);
            ctx.stats()
        });
        for (h, s) in stats.iter().enumerate() {
            // CC-SV's plan has request phases and reduce syncs every round,
            // so all four phases must have accumulated time on every host.
            assert!(s.request_compute_nanos > 0, "host {h}: no request-compute time");
            assert!(s.request_sync_nanos > 0, "host {h}: no request-sync time");
            assert!(s.reduce_compute_nanos > 0, "host {h}: no reduce-compute time");
            assert!(s.reduce_sync_nanos > 0, "host {h}: no reduce-sync time");
        }
        // merge() takes the max across hosts for phase times.
        let mut total = kimbap_comm::HostStats::default();
        for s in &stats {
            total.merge(s);
        }
        let max_rc = stats.iter().map(|s| s.reduce_compute_nanos).max().unwrap();
        assert_eq!(total.reduce_compute_nanos, max_rc);
    }

    /// `plan` with every loop's host-local fixpoint certificate cleared.
    fn global_schedule(plan: &CompiledProgram) -> CompiledProgram {
        let mut plan = plan.clone();
        for t in &mut plan.body {
            if let CompiledTop::Loop(l) = t {
                l.local_fixpoint = false;
            }
        }
        plan
    }

    #[test]
    fn cc_lp_runs_sparse_tail_rounds_and_matches_dense() {
        let g = gen::rmat(8, 6, 11);
        let local = compile(&programs::cc_lp(), OptLevel::Full);
        let global = global_schedule(&local);
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let run_cfg = |plan: &CompiledProgram, sparse: bool| {
            Cluster::with_threads(2, 2).run(|ctx| {
                let cfg = EngineConfig {
                    sparse,
                    ..EngineConfig::default()
                };
                Engine::with_config(&parts[ctx.host()], ctx, plan, cfg).run(ctx)
            })
        };
        let expected = kimbap_algos::refcheck::connected_components(&g);

        // The global schedule: identical results, round for round.
        let sparse_outs = run_cfg(&global, true);
        let dense_outs = run_cfg(&global, false);
        assert_eq!(merged_map0(g.num_nodes(), &sparse_outs), expected);
        assert_eq!(merged_map0(g.num_nodes(), &dense_outs), expected);
        assert_eq!(sparse_outs[0].rounds, dense_outs[0].rounds);
        // The dense run never leaves the dense path…
        assert!(dense_outs.iter().all(|o| o.activity.iter().all(|a| !a.sparse)));
        // …while the sparse run shrinks its tail rounds: everything after
        // the pin round is sparse, and later frontiers are strict subsets.
        for o in &sparse_outs {
            let tail: Vec<_> = o.activity.iter().skip(1).collect();
            assert!(!tail.is_empty(), "label propagation needs multiple rounds");
            assert!(tail.iter().all(|a| a.sparse && a.active <= a.total && a.passes == 1));
            let last = tail.last().unwrap();
            // The final round observed a quiesced frontier-to-be: nothing
            // changed, so the previous delta had shrunk well below dense.
            assert!(last.active < last.total);
        }

        // The certified schedule: the same final labels in no more rounds.
        // Passes vary with the frontier, but every round still ends at the
        // host's one local fixpoint of its start state, so the round count
        // does not depend on sparse or dense passes.
        let local_sparse = run_cfg(&local, true);
        let local_dense = run_cfg(&local, false);
        assert_eq!(merged_map0(g.num_nodes(), &local_sparse), expected);
        assert_eq!(merged_map0(g.num_nodes(), &local_dense), expected);
        assert_eq!(local_sparse[0].rounds, local_dense[0].rounds);
        assert!(local_sparse[0].rounds <= sparse_outs[0].rounds);
        for o in &local_sparse {
            assert!(o.activity.iter().skip(1).all(|a| a.sparse));
        }
    }

    #[test]
    fn certified_grid_settles_each_slab_locally_and_recovers_from_a_crash() {
        // On a grid each host owns a contiguous block of rows: the global
        // schedule moves a label one row per round, the certified one
        // settles a block per round. Under the vertex cut mirrors carry
        // edges too, so the broadcast must refresh every master a pass
        // changed, not only those the last pass did.
        let g = gen::grid_road(30, 30, 5);
        let expected = kimbap_algos::refcheck::connected_components(&g);
        let local = compile(&programs::cc_lp(), OptLevel::Full);
        let global = global_schedule(&local);
        for policy in [Policy::EdgeCutBlocked, Policy::CartesianVertexCut] {
            let parts = partition(&g, policy, 2);
            let run = |plan: &CompiledProgram, faults: FaultPlan| {
                let outs = Cluster::with_threads(2, 2).run_with_faults(faults, |ctx| {
                    Engine::new(&parts[ctx.host()], ctx, plan).run(ctx)
                });
                (merged_map0(g.num_nodes(), &outs), outs[0].rounds, outs)
            };
            let (labels, rounds, outs) = run(&local, FaultPlan::new());
            let (global_labels, global_rounds, _) = run(&global, FaultPlan::new());
            assert_eq!(labels, expected, "{policy:?}");
            assert_eq!(global_labels, expected, "{policy:?}");
            assert!(rounds <= 4, "{policy:?}: {rounds} rounds on two blocks");
            assert!(global_rounds >= 30, "{policy:?}: {global_rounds} global rounds");
            assert!(outs.iter().any(|o| o.activity.iter().any(|a| a.passes > 1)));

            // A crash in round 2 rewinds to the last global checkpoint and
            // replays the whole round, its local passes included.
            let (recovered, replayed, _) = run(&local, FaultPlan::new().crash_host(1, 2));
            assert_eq!(recovered, expected, "{policy:?}");
            assert_eq!(replayed, rounds, "{policy:?}: replayed rounds were counted twice");
        }
    }

    #[test]
    fn trans_vertex_programs_never_go_sparse() {
        // CC-SV reads parent(parent(n)): the compiler refuses to certify a
        // sparse plan, so every round must report dense even with sparse
        // execution enabled (the default).
        let g = gen::rmat(7, 4, 31);
        let outs = run_plan(&programs::cc_sv(), OptLevel::Full, &g, 2, 2, Policy::EdgeCutBlocked);
        assert!(outs.iter().all(|o| o.activity.iter().all(|a| !a.sparse)));
        assert!(outs.iter().all(|o| o.activity.len() as u64 == o.rounds));
    }

    #[test]
    fn noopt_does_more_communication() {
        // The Fig. 12 premise: the unoptimized plan moves more data. Use a
        // power-law graph — requests grow with edge count, broadcasts only
        // with the mirror set.
        let g = gen::rmat(8, 8, 2);
        let parts = partition(&g, Policy::EdgeCutBlocked, 3);
        let traffic = |opt: OptLevel| -> u64 {
            let plan = compile(&programs::cc_lp(), opt);
            let stats = Cluster::new(3).run(|ctx| {
                Engine::new(&parts[ctx.host()], ctx, &plan).run(ctx);
                ctx.stats().bytes
            });
            stats.iter().sum()
        };
        let opt = traffic(OptLevel::Full);
        let noopt = traffic(OptLevel::None);
        // At paper scale (hundreds of rounds, billions of edges) the gap is
        // orders of magnitude; at unit-test scale the reduce traffic common
        // to both dominates, so just require a clear margin.
        assert!(
            noopt as f64 > 1.2 * opt as f64,
            "expected request-heavy NO-OPT ({noopt}B) > OPT ({opt}B)"
        );
    }
}
