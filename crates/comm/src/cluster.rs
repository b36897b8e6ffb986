//! The cluster runtime: hosts, transports, and failure-aware collectives.
//!
//! Every inter-host payload travels as a stream of bounded, checksummed
//! chunk frames ([`crate::wire::frame_chunk`]); receivers validate length
//! and CRC per chunk, reassemble by chunk index, and re-request exactly
//! the damaged or missing chunks ([`RetxRequest`]) from the sender's
//! retained outbox, so a [`crate::FaultPlan`] dropping, duplicating,
//! delaying, or corrupting frames is survived transparently (visible only
//! in [`HostStats::retransmits`]). On a carrier that cannot lose frames
//! ([`Transport::lossless`]) with no fault plan installed, the same
//! exchange skips the checksums, the outbox and the loss agreement — one
//! rendezvous instead of two. Host crashes are survived too: a panicking
//! host marks itself failed so sibling hosts observe
//! [`CommError::HostFailure`] instead of deadlocking, and
//! [`HostCtx::run_recovering`] restarts all hosts from a consistent state.
//!
//! The bytes themselves move through a pluggable
//! [`Transport`]: the default in-proc fabric
//! (shared memory, zero configuration), a TCP mesh
//! ([`Backend::TcpLoopback`] in-process, or true multi-process via
//! `kimbap run --transport tcp`), or the deterministic simulation. The
//! exchange protocol — sequencing, CRC validation, fault injection,
//! retransmission, the collective retry verdict — lives here, and the
//! membership protocol under it in [`crate::transport::membership`], both
//! above the trait, so every backend shares them verbatim. Robustness is
//! layered the same way: phase
//! [`Deadline`]s turn hung peers into [`CommError::Timeout`], the optional
//! heartbeat detector turns silent peers into [`CommError::PeerDown`], and
//! retries back off with seeded decorrelated jitter
//! ([`crate::transport::Backoff`]).

use crate::clock;
use crate::fault::{FaultPlan, FaultState, SendAction};
use crate::pool::WorkerPool;
use crate::transport::inproc::{InProcFabric, InProcTransport};
use crate::transport::sim::{SimFabric, SimTransport, TraceSink};
use crate::transport::tcp::TcpTransport;
use crate::transport::{membership, Backoff, Deadline, RetxRequest, Transport, TransportConfig};
use crate::wire::{
    encode_slice, frame_chunk, frame_chunk_unchecked, parse_chunk, parse_chunk_unchecked, Wire,
    CHUNK_HEADER, CHUNK_PAYLOAD,
};
use parking_lot::Mutex;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Retransmission attempts per exchange before the collective fails with
/// [`CommError::FrameLoss`].
const MAX_ATTEMPTS: u32 = 4;

/// Crash recoveries per [`HostCtx::run_recovering`] call before the panic
/// is propagated unchanged.
const MAX_RECOVERIES: u32 = 8;

/// Declares every per-host counter once: its doc and its merge rule. The
/// table expands to the public [`HostStats`] snapshot, its
/// [`HostStats::merge`], and the private atomic [`StatCells`] with the
/// snapshot and reset that [`HostCtx::stats`] and [`HostCtx::reset_stats`]
/// use. A merge rule is `sum` (cluster-wide totals: traffic, work) or
/// `max` (how long the cluster spent, or events every member counts once).
macro_rules! host_stats {
    ($($(#[$doc:meta])* $name:ident: $rule:ident,)*) => {
        /// Per-host communication counters.
        ///
        /// `comm_nanos` covers time spent inside collective calls
        /// (serialization, mailbox traffic, and waiting at the implied
        /// barriers); everything else a host does is computation. Bytes and
        /// messages count only *inter*-host traffic — a host delivering to
        /// itself models a local memcpy, which the paper's
        /// communication-volume numbers also exclude. Retransmissions
        /// triggered by injected faults count only in `retransmits`, keeping
        /// `messages`/`bytes` equal to the fault-free logical volume.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct HostStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl HostStats {
            /// Adds another host's counters into this one (for
            /// cluster-wide totals), each by its merge rule.
            pub fn merge(&mut self, other: &HostStats) {
                $(host_stats!(@$rule self.$name, other.$name);)*
            }
        }

        /// Internal atomic counters backing [`HostStats`].
        #[derive(Debug, Default)]
        struct StatCells {
            $($name: AtomicU64,)*
        }

        impl StatCells {
            fn snapshot(&self) -> HostStats {
                HostStats { $($name: self.$name.load(Ordering::Relaxed),)* }
            }

            fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)*
            }
        }
    };
    (@sum $a:expr, $b:expr) => { $a += $b };
    (@max $a:expr, $b:expr) => { $a = $a.max($b) };
}

host_stats! {
    // Traffic is a cluster-wide total: sum. Time answers "how long did the
    // cluster spend here": the slowest host gates the barrier, so max.
    /// Messages sent to other hosts.
    messages: sum,
    /// Payload bytes sent to other hosts.
    bytes: sum,
    /// Nanoseconds spent inside communication calls.
    comm_nanos: max,
    /// Frames re-sent after a receiver reported loss or corruption.
    retransmits: sum,
    /// Received frames rejected by length/CRC validation.
    crc_rejects: sum,
    /// Collectives this host aborted because the heartbeat detector
    /// flagged a silent peer ([`CommError::PeerDown`]).
    heartbeat_suspicions: sum,
    /// Collectives this host aborted on a phase deadline
    /// ([`CommError::Timeout`]).
    timeout_aborts: sum,
    // Phase times, like comm_nanos: max.
    /// Nanoseconds spent in the request-compute phase (engines report
    /// these via [`HostCtx::add_phase_nanos`]; zero if never reported).
    request_compute_nanos: max,
    /// Nanoseconds spent in request-sync collectives.
    request_sync_nanos: max,
    /// Nanoseconds spent in the reduce-compute (operator body) phase.
    reduce_compute_nanos: max,
    /// Nanoseconds spent in reduce-sync/broadcast-sync collectives.
    reduce_sync_nanos: max,
    // Work counts are cluster-wide totals, like traffic: sum. Sparse rounds
    // happen per host at the same round cadence, so max keeps the count in
    // units of rounds.
    /// Nodes actually executed by reduce-compute `ParFor`s (engines report
    /// these via [`HostCtx::add_parfor_activity`]; zero if never reported).
    active_nodes: sum,
    /// Nodes the same `ParFor`s would have executed densely — the
    /// denominator of the frontier density `active_nodes / parfor_nodes`.
    parfor_nodes: sum,
    /// Rounds that iterated a sparse frontier instead of all nodes.
    sparse_rounds: max,
    // Membership changes and joins are cluster-wide events every member
    // counts once, and degraded rounds run at the same cadence everywhere:
    // max keeps them in units of events/rounds. Resharded keys are per-host
    // transfer work, so they sum like traffic.
    /// Membership shrinks and grows this host agreed to at a shrink or
    /// grow gate (one per generation bump; see [`MembershipChange`]).
    membership_changes: max,
    /// BSP rounds executed on a degraded (shrunk) membership.
    degraded_rounds: max,
    /// Master keys this host received from other hosts while re-sharding
    /// onto a changed membership (engines report these via
    /// [`HostCtx::add_resharded_keys`]).
    resharded_keys: sum,
    /// Hosts admitted by grow agreements this host took part in (one per
    /// admitted host; see [`HostCtx::recover_grow`]).
    joins: max,
    /// Physical chunk frames sent to other hosts (data chunks, plus one
    /// header-only frame per destination whose payload is empty; first
    /// transmissions only — re-sends count in `chunk_retransmits`).
    chunks_sent: sum,
    /// Chunk frames re-sent after a receiver reported loss or corruption.
    chunk_retransmits: sum,
    /// Always 0: nothing writes it. Kept only because `benchmark/` reads
    /// it; retire it together with `comm.overlap_share`.
    overlap_nanos: max,
    // Cache events are per-host work, like traffic: sum.
    /// Serve-layer result-cache lookups answered from the cache (schedulers
    /// report these via [`HostCtx::add_cache_events`]; zero if no serving
    /// layer runs).
    cache_hits: sum,
    /// Serve-layer result-cache lookups that missed and forced a fresh
    /// computation.
    cache_misses: sum,
    /// Serve-layer result-cache entries evicted (capacity pressure or a
    /// graph-epoch bump).
    cache_evictions: sum,
}

/// The four phases of one NPM BSP round (Fig. 6 of the paper), used to
/// attribute wall-clock time via [`HostCtx::add_phase_nanos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPhase {
    /// Scanning edges and marking remote properties to fetch.
    RequestCompute,
    /// Exchanging request keys and fetched values (`request_sync`).
    RequestSync,
    /// Running the operator body and folding partials (`reduce`).
    ReduceCompute,
    /// Combining partials and exchanging them (`reduce_sync` and any
    /// trailing `broadcast_sync`).
    ReduceSync,
}

/// A communication failure observed by a collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// One or more hosts failed (panicked) while this host was inside a
    /// collective; the listed hosts are the known casualties.
    HostFailure {
        /// Hosts that have failed.
        hosts: Vec<usize>,
    },
    /// The heartbeat failure detector flagged silent peers: they stopped
    /// announcing liveness for longer than the configured suspect
    /// threshold, without reporting a crash.
    PeerDown {
        /// The suspected-silent hosts.
        hosts: Vec<usize>,
    },
    /// A collective did not complete within its phase [`Deadline`].
    Timeout {
        /// The phase label carried by the deadline.
        phase: &'static str,
        /// Hosts that had not arrived when the deadline passed.
        hosts: Vec<usize>,
    },
    /// A frame could not be delivered within the retry budget. Every host
    /// in the exchange returns this same error — the collective fails as a
    /// unit, never leaving hosts disagreeing about whether it completed.
    FrameLoss {
        /// Hosts that were still missing a frame when the budget ran out.
        hosts: Vec<usize>,
        /// Retransmission attempts performed.
        attempts: u32,
    },
    /// The caller violated the collective's contract (wrong buffer count
    /// or a malformed peer payload).
    Protocol {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// One or more hosts departed permanently: recovery within the current
    /// membership is impossible. Callers may shrink onto the survivors
    /// ([`HostCtx::recover_shrink`] / [`HostCtx::run_elastic`]) or abort.
    MembershipLost {
        /// The permanently departed hosts (physical ids).
        departed: Vec<usize>,
        /// The membership generation in which the loss was observed.
        generation: u64,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::HostFailure { hosts } => write!(f, "host failure: hosts {hosts:?} down"),
            CommError::PeerDown { hosts } => {
                write!(f, "peer down: hosts {hosts:?} silent past the heartbeat threshold")
            }
            CommError::Timeout { phase, hosts } => {
                write!(f, "timeout: phase {phase} missing hosts {hosts:?} at deadline")
            }
            CommError::FrameLoss { hosts, attempts } => write!(
                f,
                "frame loss: hosts {hosts:?} missing frames after {attempts} retransmits"
            ),
            CommError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            CommError::MembershipLost {
                departed,
                generation,
            } => write!(
                f,
                "membership lost: hosts {departed:?} permanently departed (generation {generation})"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// The panic payload used for recoverable host failures.
///
/// [`HostCtx::run_recovering`] catches exactly this type: injected crashes
/// and communication failures escalated by the infallible collective
/// wrappers. Any other panic (a real bug) propagates unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashSignal {
    /// A [`crate::FaultKind::CrashHost`] fault fired on this host.
    Injected {
        /// The crashed host.
        host: usize,
        /// The round it was entering.
        round: u64,
    },
    /// A [`crate::FaultKind::KillHost`] fault fired on this host: the loss
    /// is permanent, so no recovery path may restart this host. Survivors
    /// observe it as [`CommError::MembershipLost`] once their recovery
    /// alignment fails.
    Killed {
        /// The killed host (physical id).
        host: usize,
        /// The round it was entering.
        round: u64,
    },
    /// An infallible collective wrapper observed a communication error.
    Comm(CommError),
}

impl std::fmt::Display for CrashSignal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashSignal::Injected { host, round } => {
                write!(f, "injected crash of host {host} at round {round}")
            }
            CrashSignal::Killed { host, round } => {
                write!(f, "permanent host loss: host {host} killed at round {round}")
            }
            CrashSignal::Comm(e) => write!(f, "communication failed: {e}"),
        }
    }
}

/// A host closure's failure, as reported by [`Cluster::try_run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostError {
    /// The failed host.
    pub host: usize,
    /// The panic message (or [`CrashSignal`] description).
    pub message: String,
    /// The [`CrashSignal`] the host unwound with, or `None` for any other
    /// panic (a bug rather than a communication-rooted failure).
    pub signal: Option<CrashSignal>,
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host {}: {}", self.host, self.message)
    }
}

impl std::error::Error for HostError {}

/// The agreed outcome of a membership change ([`HostCtx::recover_shrink`],
/// [`HostCtx::recover_grow`] or [`HostCtx::join_cluster`]): who left, who
/// was admitted, and where this host stood in the old membership, in
/// **old logical ranks** so re-shard code (checkpoint replicas keyed by
/// old ownership) can relocate every shard deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipChange {
    /// Old logical ranks of the hosts that permanently departed (empty
    /// for a grow).
    pub departed: Vec<usize>,
    /// Physical host ids admitted (empty for a shrink, and for a grow
    /// whose gate fired after every knocker retracted or died).
    pub joined: Vec<usize>,
    /// This host's logical rank in the old membership, or `old_count` for
    /// a host admitted by this very change (it owned nothing before).
    pub my_old_rank: usize,
    /// The old membership size.
    pub old_count: usize,
    /// The new membership generation (bumped by this change).
    pub generation: u64,
}

/// The full membership mask for an `n`-host cluster (saturated past 64
/// hosts, where shrinking is unsupported).
fn full_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Whether physical host `h` is in `mask` (hosts past bit 63 are always
/// members — clusters that large never shrink).
fn in_mask(mask: u64, h: usize) -> bool {
    h >= 64 || mask & (1u64 << h) != 0
}

/// Set when the current process hosts exactly one member of a
/// multi-process mesh (`run_transport_host`): a permanent kill fault then
/// exits the process instead of unwinding, so peers observe a real dead
/// worker (EOF on every connection) rather than an in-process panic.
static PROCESS_PER_HOST: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// The exit code a killed multi-process worker dies with (see
/// [`crate::FaultKind::KillHost`]); launchers treat it as an injected
/// permanent loss rather than a harness bug.
pub const KILLED_EXIT_CODE: i32 = 86;

/// Round-band stride a serving layer uses to tag collectives with the job
/// they belong to: job `k` publishes rounds in `[k * JOB_ROUND_STRIDE,
/// (k + 1) * JOB_ROUND_STRIDE)` via [`HostCtx::set_round`], so
/// round-targeted faults and traces can address "round `r` of job `k`"
/// without ambiguity across a multi-job schedule. Algorithms that advance
/// rounds relatively (`set_round(current_round() + 1)`) compose with the
/// band for free.
pub const JOB_ROUND_STRIDE: u64 = 1 << 32;

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(sig) = payload.downcast_ref::<CrashSignal>() {
        sig.to_string()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "host closure panicked".to_string()
    }
}

/// Concatenates the payloads of a complete, index-ordered run of chunk
/// frames.
fn join_chunks(frames: &mut [Option<Vec<u8>>]) -> Vec<u8> {
    if let [only] = frames {
        // One chunk: strip the header in place rather than copy out.
        let mut buf = only.take().expect("chunk checked present");
        buf.drain(..CHUNK_HEADER);
        return buf;
    }
    fn body(f: &Option<Vec<u8>>) -> &[u8] {
        &f.as_ref().expect("chunk checked present")[CHUNK_HEADER..]
    }
    let mut buf = Vec::with_capacity(frames.iter().map(|f| body(f).len()).sum());
    for f in frames.iter() {
        buf.extend_from_slice(body(f));
    }
    buf
}

/// Which transport backend a [`Cluster`] runs its hosts over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// Shared-memory fabric within the process (the default).
    #[default]
    InProc,
    /// A real TCP mesh over `127.0.0.1`, still one thread per host in this
    /// process — the bridge between the simulator and `kimbap run
    /// --transport tcp` multi-process mode, and the backend the
    /// cross-backend determinism tests exercise.
    TcpLoopback,
    /// The deterministic simulation fabric: hosts run cooperatively under
    /// a seeded discrete-event scheduler with a virtual clock, so the
    /// whole run — delivery order, faults, heartbeats, timeouts — is a
    /// pure function of the seed and replays exactly.
    Sim {
        /// Seed driving the scheduler's host interleaving.
        seed: u64,
    },
}

/// A cluster of `num_hosts` hosts, each with its own worker pool of
/// `threads_per_host` threads.
///
/// [`Cluster::run`] spawns one OS thread per host, hands each a
/// [`HostCtx`], and joins them, returning the per-host results in host
/// order. The closure runs once on every host — exactly like an
/// `mpirun`-launched SPMD program. By default hosts talk over the in-proc
/// fabric; [`Cluster::tcp`] switches them to a loopback TCP mesh.
#[derive(Debug)]
pub struct Cluster {
    num_hosts: usize,
    threads_per_host: usize,
    backend: Backend,
    transport_cfg: TransportConfig,
    trace_sink: Option<TraceSink>,
}

impl Cluster {
    /// Creates a cluster of `num_hosts` hosts with one compute thread each.
    ///
    /// # Panics
    ///
    /// Panics if `num_hosts == 0`.
    pub fn new(num_hosts: usize) -> Self {
        Self::with_threads(num_hosts, 1)
    }

    /// Creates a cluster with `threads_per_host` compute threads per host.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn with_threads(num_hosts: usize, threads_per_host: usize) -> Self {
        assert!(num_hosts > 0, "cluster needs at least one host");
        assert!(threads_per_host > 0, "hosts need at least one thread");
        Cluster {
            num_hosts,
            threads_per_host,
            backend: Backend::InProc,
            transport_cfg: TransportConfig::default(),
            trace_sink: None,
        }
    }

    /// Switches the hosts onto a loopback TCP mesh
    /// ([`Backend::TcpLoopback`]).
    pub fn tcp(mut self) -> Self {
        self.backend = Backend::TcpLoopback;
        self
    }

    /// Switches the hosts onto the deterministic simulation fabric
    /// ([`Backend::Sim`]) scheduled by `seed`.
    pub fn sim(mut self, seed: u64) -> Self {
        self.backend = Backend::Sim { seed };
        self
    }

    /// Collects the simulation backend's linearized event trace into
    /// `sink` after each run (replacing its previous contents). Ignored by
    /// the other backends.
    pub fn with_trace_sink(mut self, sink: TraceSink) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Sets transport options (e.g. the heartbeat failure detector) for
    /// whichever backend is selected.
    pub fn with_transport_config(mut self, cfg: TransportConfig) -> Self {
        self.transport_cfg = cfg;
        self
    }

    /// The selected transport backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.num_hosts
    }

    /// Compute threads per host.
    pub fn threads_per_host(&self) -> usize {
        self.threads_per_host
    }

    /// Runs `f` once per host, in parallel, and returns the results in host
    /// order.
    ///
    /// # Panics
    ///
    /// Panics (after all hosts have been joined) if any host's closure
    /// panicked.
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&HostCtx) -> R + Sync,
        R: Send,
    {
        self.run_with_faults(FaultPlan::default(), f)
    }

    /// Like [`Cluster::run`], with a [`FaultPlan`] injected into the
    /// transport boundary.
    ///
    /// # Panics
    ///
    /// Panics (after all hosts have been joined) if any host's closure
    /// panicked — including unrecovered injected crashes.
    pub fn run_with_faults<F, R>(&self, plan: FaultPlan, f: F) -> Vec<R>
    where
        F: Fn(&HostCtx) -> R + Sync,
        R: Send,
    {
        let mut failures = Vec::new();
        let mut out = Vec::with_capacity(self.num_hosts);
        for r in self.try_run_with_faults(plan, f) {
            match r {
                Ok(v) => out.push(v),
                Err(e) => failures.push(e.to_string()),
            }
        }
        if !failures.is_empty() {
            panic!("host thread panicked: {}", failures.join("; "));
        }
        out
    }

    /// Runs `f` once per host, catching per-host panics: each host yields
    /// `Ok(result)` or `Err` describing its failure. Sibling hosts of a
    /// failed host observe [`CommError::HostFailure`] from any collective
    /// they are in instead of deadlocking.
    pub fn try_run<F, R>(&self, f: F) -> Vec<Result<R, HostError>>
    where
        F: Fn(&HostCtx) -> R + Sync,
        R: Send,
    {
        self.try_run_with_faults(FaultPlan::default(), f)
    }

    /// Like [`Cluster::try_run`], with a [`FaultPlan`] injected into the
    /// transport boundary.
    pub fn try_run_with_faults<F, R>(&self, plan: FaultPlan, f: F) -> Vec<Result<R, HostError>>
    where
        F: Fn(&HostCtx) -> R + Sync,
        R: Send,
    {
        // One FaultState shared by every host, whichever backend carries
        // the bytes: the same seeded plan fires the same schedule over the
        // in-proc fabric and the TCP loopback mesh.
        let latent = plan.latent_hosts();
        let faults = Arc::new(FaultState::new(plan));
        match self.backend {
            Backend::InProc => {
                let fabric = Arc::new(InProcFabric::new(
                    self.num_hosts,
                    self.transport_cfg.clone(),
                    &latent,
                ));
                std::thread::scope(|scope| {
                    let mut handles = Vec::with_capacity(self.num_hosts);
                    for host in 0..self.num_hosts {
                        let fabric = fabric.clone();
                        let faults = faults.clone();
                        let f = &f;
                        let threads = self.threads_per_host;
                        handles.push(
                            std::thread::Builder::new()
                                .name(format!("kimbap-host-{host}"))
                                .spawn_scoped(scope, move || {
                                    let transport = InProcTransport::new(fabric, host);
                                    run_host(&transport, threads, faults, |ctx| f(ctx))
                                })
                                .expect("failed to spawn host thread"),
                        );
                    }
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("failed to join host thread"))
                        .collect()
                })
            }
            Backend::TcpLoopback => {
                let (listeners, ports) = TcpTransport::loopback_listeners(self.num_hosts)
                    .expect("failed to bind loopback listeners");
                std::thread::scope(|scope| {
                    let mut handles = Vec::with_capacity(self.num_hosts);
                    for (host, listener) in listeners.into_iter().enumerate() {
                        let faults = faults.clone();
                        let ports = ports.clone();
                        let cfg = self.transport_cfg.clone();
                        let f = &f;
                        let threads = self.threads_per_host;
                        let num_hosts = self.num_hosts;
                        let latent = latent.clone();
                        handles.push(
                            std::thread::Builder::new()
                                .name(format!("kimbap-host-{host}"))
                                .spawn_scoped(scope, move || {
                                    let transport = TcpTransport::with_listener(
                                        host, num_hosts, listener, &ports, cfg, &latent,
                                    )
                                    .expect("failed to build tcp loopback mesh");
                                    run_host(&transport, threads, faults, |ctx| f(ctx))
                                })
                                .expect("failed to spawn host thread"),
                        );
                    }
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("failed to join host thread"))
                        .collect()
                })
            }
            Backend::Sim { seed } => {
                let fabric = Arc::new(SimFabric::new(
                    self.num_hosts,
                    self.transport_cfg.clone(),
                    seed,
                    &latent,
                ));
                let results = std::thread::scope(|scope| {
                    let mut handles = Vec::with_capacity(self.num_hosts);
                    for host in 0..self.num_hosts {
                        let fabric = fabric.clone();
                        let faults = faults.clone();
                        let f = &f;
                        let threads = self.threads_per_host;
                        handles.push(
                            std::thread::Builder::new()
                                .name(format!("kimbap-host-{host}"))
                                .spawn_scoped(scope, move || {
                                    let transport = SimTransport::new(fabric.clone(), host);
                                    // The whole host stack — deadlines,
                                    // backoff, stalls, phase timers — runs
                                    // on this host's virtual clock.
                                    clock::with_clock(transport.clock(), || {
                                        fabric.register(host);
                                        let r = run_host(&transport, threads, faults, |ctx| f(ctx));
                                        fabric.finish(host);
                                        r
                                    })
                                })
                                .expect("failed to spawn host thread"),
                        );
                    }
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("failed to join host thread"))
                        .collect()
                });
                if let Some(sink) = &self.trace_sink {
                    *sink.lock() = fabric.take_trace();
                }
                results
            }
        }
    }
}

/// Runs one host closure over an already-connected transport, with the
/// cluster's crash accounting: a panic marks the host failed (so peers'
/// collectives error out) and departed (so recovery alignment reports it
/// instead of hanging); a clean return marks it departed only.
///
/// This is the per-host harness [`Cluster`] uses internally; the `kimbap`
/// binary's multi-process mode calls [`run_transport_host`] to get the
/// identical harness around a [`TcpTransport`] it built itself.
fn run_host<R, F>(
    transport: &dyn Transport,
    threads: usize,
    faults: Arc<FaultState>,
    f: F,
) -> Result<R, HostError>
where
    F: FnOnce(&HostCtx) -> R,
{
    let host = transport.host();
    let num_hosts = transport.num_hosts();
    // Latent hosts (declared joiners) are capacity, not members: they are
    // masked out of the initial membership and only enter via a grow
    // agreement. `initial_members` is the degradation baseline — a cluster
    // launched with latent capacity is not "degraded" merely because the
    // capacity has not joined yet.
    let latent = membership::latent_hosts(transport);
    let mut init_mask = full_mask(num_hosts);
    for &h in &latent {
        if h < 64 {
            init_mask &= !(1u64 << h);
        }
    }
    let ctx = HostCtx {
        host,
        num_hosts,
        initial_members: num_hosts - latent.len(),
        lossless: transport.lossless() && faults.is_empty(),
        transport,
        faults,
        pool: WorkerPool::new(threads),
        stats: StatCells::default(),
        outbox: (0..num_hosts).map(|_| Mutex::new(Vec::new())).collect(),
        delayed: (0..num_hosts).map(|_| Mutex::new(Vec::new())).collect(),
        early: (0..num_hosts).map(|_| Mutex::new(Vec::new())).collect(),
        send_seq: (0..num_hosts).map(|_| AtomicU64::new(0)).collect(),
        recv_seq: (0..num_hosts).map(|_| AtomicU64::new(0)).collect(),
        round: AtomicU64::new(0),
        deadline: Mutex::new(Deadline::none()),
        job_deadline: Mutex::new(None),
        member_mask: AtomicU64::new(init_mask),
        generation: AtomicU64::new(0),
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&ctx)));
    match result {
        Ok(v) => {
            // A departed host can never rejoin a recovery alignment; make
            // that a reported failure, not a deadlock.
            membership::mark_departed(transport);
            Ok(v)
        }
        Err(payload) => {
            membership::mark_failed(transport);
            membership::mark_departed(transport);
            Err(HostError {
                host,
                message: panic_message(&*payload),
                signal: payload.downcast_ref::<CrashSignal>().cloned(),
            })
        }
    }
}

/// Runs one host closure over a caller-built transport with the standard
/// per-host harness (crash accounting, fault injection, [`HostCtx`]
/// plumbing). The `kimbap` binary's `_worker` subcommand uses this to run
/// one host of a multi-process TCP mesh.
pub fn run_transport_host<T, R, F>(
    transport: &T,
    threads: usize,
    plan: FaultPlan,
    f: F,
) -> Result<R, HostError>
where
    T: Transport,
    F: FnOnce(&HostCtx) -> R,
{
    PROCESS_PER_HOST.store(true, Ordering::Relaxed);
    run_host(transport, threads, Arc::new(FaultState::new(plan)), f)
}

/// Per-host execution context: identity, collectives, intra-host
/// parallelism, and counters.
///
/// A `HostCtx` is created by [`Cluster::run`] and borrowed by the host
/// closure; it is not `Sync` across hosts (each host has its own), but its
/// methods may be called freely from the host's main thread. Collectives
/// must be called by **all hosts** in the same order — they contain
/// barriers.
pub struct HostCtx<'a> {
    host: usize,
    num_hosts: usize,
    /// Members at launch (`num_hosts` minus declared latent joiners): the
    /// baseline [`HostCtx::degraded`] compares against.
    initial_members: usize,
    transport: &'a dyn Transport,
    faults: Arc<FaultState>,
    /// Whether exchanges may trust the carrier: the transport cannot lose
    /// or corrupt frames and no fault plan is installed. Derived once at
    /// start; see [`HostCtx::try_exchange`].
    lossless: bool,
    pool: WorkerPool,
    stats: StatCells,
    /// `outbox[to]`: the chunk frames of the last exchange sent to `to`
    /// (indexed by chunk), retained for retransmission. Stays empty on a
    /// lossless exchange.
    outbox: Vec<Mutex<Vec<Vec<u8>>>>,
    /// `delayed[to]`: frames a `DelayFrame` fault held back; flushed to the
    /// transport at the start of this host's next exchange, where their
    /// stale sequence numbers get them ignored.
    delayed: Vec<Mutex<Vec<Vec<u8>>>>,
    /// `early[from]`: frames of `from`'s *next* exchange that a lossless
    /// exchange drained while finishing the current one. Without the
    /// loss-agreement rendezvous a peer may leave an exchange, and send the
    /// next, before this host has drained; its frames wait here.
    early: Vec<Mutex<Vec<Vec<u8>>>>,
    /// Next sequence number per destination.
    send_seq: Vec<AtomicU64>,
    /// `recv_seq[from]`: the sequence number this host will accept next.
    recv_seq: Vec<AtomicU64>,
    /// This host's published BSP round (for fault matching).
    round: AtomicU64,
    /// Ambient phase deadline applied by the unsuffixed collectives; the
    /// engine re-stamps it each phase from `EngineConfig::phase_timeout`.
    deadline: Mutex<Deadline>,
    /// Job-scoped deadline a serving layer stamps around one scheduled
    /// job ([`HostCtx::set_job_deadline`]). While set, [`HostCtx::deadline`]
    /// returns the *earlier* of the ambient and job deadlines, so a job's
    /// budget bounds every collective the job runs — including engine
    /// phases that re-stamp their own ambient deadline. Recovery alignment
    /// is immune: those gates pass an explicit unbounded deadline.
    job_deadline: Mutex<Option<Deadline>>,
    /// Bitmask of physical host ids currently in the membership (bit `h`
    /// set ⇔ host `h` is a member). Starts full minus declared latent
    /// joiners; [`HostCtx::recover_shrink`] clears departed hosts' bits
    /// and [`HostCtx::recover_grow`] sets admitted ones. Clusters of more
    /// than 64 hosts run with a saturated mask and cannot change
    /// membership.
    member_mask: AtomicU64,
    /// Membership generation: bumped once per agreed shrink or grow.
    generation: AtomicU64,
}

impl<'a> HostCtx<'a> {
    /// This host's **logical** rank in `0..num_hosts()`.
    ///
    /// Equal to the physical host id until a shrink; afterwards ranks are
    /// compacted over the surviving membership (survivor with the lowest
    /// physical id becomes rank 0, and so on), so SPMD code that
    /// partitions work by `host()/num_hosts()` transparently covers the
    /// whole key space on the shrunk cluster.
    pub fn host(&self) -> usize {
        let mask = self.member_mask.load(Ordering::Relaxed);
        if mask == full_mask(self.num_hosts) {
            return self.host;
        }
        (0..self.host).filter(|&h| in_mask(mask, h)).count()
    }

    /// Number of hosts in the current membership (the cluster size until a
    /// shrink, the survivor count after).
    pub fn num_hosts(&self) -> usize {
        let mask = self.member_mask.load(Ordering::Relaxed);
        if mask == full_mask(self.num_hosts) {
            return self.num_hosts;
        }
        (0..self.num_hosts).filter(|&h| in_mask(mask, h)).count()
    }

    /// This host's fixed physical id in the original `0..cluster_size`
    /// launch (the id transports and fault plans address).
    pub fn physical_host(&self) -> usize {
        self.host
    }

    /// The physical host ids of the current membership, ascending; logical
    /// rank `r` is `members()[r]`.
    pub fn members(&self) -> Vec<usize> {
        let mask = self.member_mask.load(Ordering::Relaxed);
        (0..self.num_hosts).filter(|&h| in_mask(mask, h)).collect()
    }

    /// The current membership generation (0 until the first shrink).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Physical ids of hosts that permanently departed but are not yet
    /// excluded by a shrink verdict. Non-empty exactly when the next
    /// recovery must shrink the membership instead of realigning it.
    pub fn pending_departures(&self) -> Vec<usize> {
        membership::departed_hosts(self.transport)
    }

    /// Whether the membership has shrunk below the launch-time member
    /// count (latent capacity that never joined does not count as
    /// degradation, and a join can lift a shrunk cluster back to health).
    fn degraded(&self) -> bool {
        self.num_hosts() < self.initial_members
    }

    /// Number of intra-host compute threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The host's worker pool, for custom parallel patterns.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Runs `f(tid, chunk)` over `range` across the host's worker pool.
    pub fn par_for<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize, Range<usize>) + Send + Sync,
    {
        self.pool.par_for(range, f);
    }

    /// Publishes this host's current BSP round, consumed by round-targeted
    /// faults in the [`FaultPlan`]. Code that never calls this runs in
    /// round 0.
    pub fn set_round(&self, round: u64) {
        if self.degraded() {
            self.stats.degraded_rounds.fetch_add(1, Ordering::Relaxed);
        }
        self.round.store(round, Ordering::Relaxed);
    }

    /// The round last published via [`HostCtx::set_round`].
    pub fn current_round(&self) -> u64 {
        self.round.load(Ordering::Relaxed)
    }

    /// Sets the ambient phase deadline applied by every unsuffixed
    /// collective ([`HostCtx::barrier`], [`HostCtx::exchange`], the
    /// `all_*` family) until re-stamped. [`Deadline::none`] — the initial
    /// value — waits forever.
    pub fn set_deadline(&self, deadline: Deadline) {
        *self.deadline.lock() = deadline;
    }

    /// Stamps (or clears) the job-scoped deadline a serving layer applies
    /// around one scheduled job. While set, [`HostCtx::deadline`] clamps to
    /// the earlier of the ambient and job deadlines — so the job's budget
    /// escalates through the same timeout → [`CommError::Timeout`] →
    /// recovery path as a phase deadline, even inside engines that
    /// re-stamp the ambient deadline per phase.
    pub fn set_job_deadline(&self, deadline: Option<Deadline>) {
        *self.job_deadline.lock() = deadline;
    }

    /// The current effective phase deadline: the ambient deadline, clamped
    /// to the job-scoped deadline when one is stamped (whichever expires
    /// first wins).
    pub fn deadline(&self) -> Deadline {
        let ambient = *self.deadline.lock();
        match *self.job_deadline.lock() {
            None => ambient,
            Some(job) => match (ambient.at_nanos(), job.at_nanos()) {
                (None, _) => job,
                (_, None) => ambient,
                (Some(a), Some(j)) => {
                    if j < a {
                        job
                    } else {
                        ambient
                    }
                }
            },
        }
    }

    /// Escalates a communication error into a recoverable host failure:
    /// marks this host failed (so siblings' collectives error out rather
    /// than deadlock) and panics with a [`CrashSignal`], which
    /// [`HostCtx::run_recovering`] knows how to catch.
    fn fail_with(&self, signal: CrashSignal) -> ! {
        membership::mark_failed(self.transport);
        // resume_unwind skips the panic hook: injected crashes and comm
        // failures are expected control flow (recovered or reported as
        // CommError), so they must not spray backtraces on stderr.
        std::panic::resume_unwind(Box::new(signal));
    }

    /// Unwraps a collective result for the infallible wrappers.
    fn unwrap_comm<T>(&self, r: Result<T, CommError>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => self.fail_with(CrashSignal::Comm(e)),
        }
    }

    /// Fires pending injected host faults (stall, then crash) for this
    /// host's current round.
    fn check_faults(&self) {
        let round = self.current_round();
        if let Some(stall) = self.faults.stall_due(self.host, round) {
            // Go completely quiet — no heartbeats, no traffic — for the
            // stall duration, like a host wedged in a GC pause or IO hang.
            // The sleep runs on the ambient clock: virtual (and instant in
            // wall time) under the simulation backend.
            self.transport
                .note("stall", format_args!("round={round} millis={}", stall.as_millis()));
            self.transport.silence(stall);
            clock::sleep(stall);
        }
        if self.faults.kill_due(self.host, round) {
            self.transport.note("kill", format_args!("round={round}"));
            if PROCESS_PER_HOST.load(Ordering::Relaxed) {
                // A multi-process worker dies for real: peers see EOF on
                // every connection, exactly like a machine loss.
                std::process::exit(KILLED_EXIT_CODE);
            }
            self.fail_with(CrashSignal::Killed {
                host: self.host,
                round,
            });
        }
        if self.faults.crash_due(self.host, round) {
            self.transport.note("crash", format_args!("round={round}"));
            self.fail_with(CrashSignal::Injected {
                host: self.host,
                round,
            });
        }
    }

    /// Funnels a collective's error into the robustness counters.
    fn note_err<T>(&self, r: Result<T, CommError>) -> Result<T, CommError> {
        if let Err(e) = &r {
            match e {
                CommError::Timeout { .. } => {
                    self.stats.timeout_aborts.fetch_add(1, Ordering::Relaxed);
                }
                CommError::PeerDown { .. } => {
                    self.stats
                        .heartbeat_suspicions
                        .fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
        r
    }

    /// Sends one chunk frame through the fault injector at the transport
    /// boundary.
    fn transmit(&self, to: usize, round: u64, seq: u64, chunk: u32, attempt: u32, mut frame: Vec<u8>) {
        match self
            .faults
            .on_send(self.host, to, round, seq, chunk, attempt, &mut frame)
        {
            SendAction::Drop => {
                self.transport.note(
                    "fault_drop",
                    format_args!("to={to} seq={seq} chunk={chunk} attempt={attempt}"),
                );
            }
            SendAction::Duplicate => {
                self.transport.note(
                    "fault_dup",
                    format_args!("to={to} seq={seq} chunk={chunk} attempt={attempt}"),
                );
                self.transport.send(to, frame.clone());
                self.transport.send(to, frame);
            }
            SendAction::Delay => {
                self.transport.note(
                    "fault_delay",
                    format_args!("to={to} seq={seq} chunk={chunk} attempt={attempt}"),
                );
                self.delayed[to].lock().push(frame);
            }
            SendAction::Corrupt => {
                self.transport.note(
                    "fault_corrupt",
                    format_args!("to={to} seq={seq} chunk={chunk} attempt={attempt}"),
                );
                self.transport.send(to, frame);
            }
            SendAction::Deliver => self.transport.send(to, frame),
        }
    }

    /// Waits until all hosts reach this barrier. Counted as communication
    /// time.
    ///
    /// # Panics
    ///
    /// Panics with a recoverable [`CrashSignal`] if a peer host has failed
    /// (see [`HostCtx::try_barrier`] for the non-panicking form).
    pub fn barrier(&self) {
        let r = self.try_barrier();
        self.unwrap_comm(r);
    }

    /// Failure-aware barrier under the ambient deadline: `Err` if a peer
    /// host has failed, been flagged by the failure detector, or the
    /// deadline passed.
    pub fn try_barrier(&self) -> Result<(), CommError> {
        self.try_barrier_by(&self.deadline())
    }

    /// [`HostCtx::try_barrier`] with an explicit [`Deadline`].
    pub fn try_barrier_by(&self, deadline: &Deadline) -> Result<(), CommError> {
        self.check_faults();
        let t = clock::now_nanos();
        let r = self.note_err(membership::barrier(self.transport, deadline));
        self.add_comm_nanos(clock::now_nanos().saturating_sub(t));
        r
    }

    /// All-to-all exchange: `outgoing[h]` is delivered to host `h`; returns
    /// the buffers received from every host (indexed by source), empty
    /// buffers included.
    ///
    /// This is the collective underlying the paper's request-sync and
    /// reduce-sync phases: exactly one message between every pair of hosts.
    /// The final chunk of each payload carries the end-of-stream flag; an
    /// empty payload still travels as one header-only frame so the
    /// receiver can tell "nothing" from "lost", but is not counted in the
    /// traffic stats.
    ///
    /// # Panics
    ///
    /// Panics if `outgoing.len() != num_hosts()`, and with a recoverable
    /// [`CrashSignal`] on communication failure (see
    /// [`HostCtx::try_exchange`] for the non-panicking form).
    pub fn exchange(&self, outgoing: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert_eq!(outgoing.len(), self.num_hosts(), "one buffer per host");
        let r = self.try_exchange(outgoing);
        self.unwrap_comm(r)
    }

    /// Failure-aware all-to-all exchange under the ambient deadline.
    ///
    /// Each payload travels as bounded chunk frames, every chunk carrying
    /// the exchange's sequence number, its chunk index, a length, and a
    /// CRC32. Receivers accept exactly the next sequence number per sender
    /// — duplicates, stale delayed frames, and corrupted frames are all
    /// rejected — reassemble by chunk index, and re-request exactly the
    /// missing chunks from the sender's retained outbox with jittered
    /// exponential backoff. The retry decision is made collectively (all
    /// hosts read the same missing-flags snapshot), so either every host
    /// completes the exchange or every host returns the same
    /// [`CommError::FrameLoss`].
    ///
    /// When the transport is [`Transport::lossless`] and the run has no
    /// [`FaultPlan`], none of that can trigger, so the same routine frames
    /// without a CRC, retains nothing, and returns after the one barrier
    /// that orders sends before drains — a frame missing at that point is a
    /// [`CommError::Protocol`] bug, not a loss to repair.
    pub fn try_exchange(&self, outgoing: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, CommError> {
        self.try_exchange_by(outgoing, &self.deadline())
    }

    /// [`HostCtx::try_exchange`] with an explicit [`Deadline`].
    pub fn try_exchange_by(
        &self,
        outgoing: Vec<Vec<u8>>,
        deadline: &Deadline,
    ) -> Result<Vec<Vec<u8>>, CommError> {
        // Buffers, results, and indices are all **logical**: position `r`
        // talks to the host of logical rank `r` in the current membership.
        // The physical arrays (outbox, sequence numbers, transport sends)
        // keep their launch-time indexing underneath.
        let members = self.members();
        let k = members.len();
        if outgoing.len() != k {
            return Err(CommError::Protocol {
                detail: format!(
                    "exchange needs one buffer per member host ({k}), got {}",
                    outgoing.len()
                ),
            });
        }
        self.check_faults();
        let t = clock::now_nanos();
        let me = self.host;
        let round = self.current_round();
        let lossless = self.lossless;

        // Flush frames a DelayFrame fault held back from an earlier
        // exchange. Their sequence numbers are stale by now, so receivers
        // ignore them — exactly the late-delivery semantics being modeled.
        for &to in &members {
            if to == me {
                continue;
            }
            let mut held = self.delayed[to].lock();
            for frame in held.drain(..) {
                self.transport.send(to, frame);
            }
        }

        // One chunk stream per remote member, in rank order; this is also
        // where the per-exchange sequence number is consumed.
        let mut result = vec![Vec::new(); k];
        for ((slot, payload), &to) in result.iter_mut().zip(outgoing).zip(&members) {
            if to == me {
                // Self-delivery is a local memcpy: no frames, no stats.
                *slot = payload;
                continue;
            }
            self.send_stream(to, round, &payload);
            if !payload.is_empty() {
                // Traffic stats count the logical payload once, not its
                // chunks, so the fault-free volume stays comparable across
                // chunk sizes.
                self.stats.messages.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
            }
            self.send_seq[to].fetch_add(1, Ordering::Relaxed);
        }

        // Every member's sends for this exchange precede its arrival here.
        self.note_err(membership::barrier(self.transport, deadline))?;

        // Reassembly state per source: whole frames by chunk index, and the
        // final chunk's index once seen.
        let mut got: Vec<bool> = members.iter().map(|&from| from == me).collect();
        let mut parts: Vec<Vec<Option<Vec<u8>>>> = vec![Vec::new(); k];
        let mut last_idx: Vec<Option<u32>> = vec![None; k];

        let mut attempt: u32 = 0;
        let mut backoff = Backoff::retransmit(me);
        loop {
            // Drain everything that arrived; accept only chunks of the
            // expected sequence number (with a valid checksum, unless the
            // carrier makes one pointless).
            for (li, &from) in members.iter().enumerate() {
                if from == me {
                    continue;
                }
                let early = std::mem::take(&mut *self.early[from].lock());
                let arrived = self.transport.drain(from);
                if got[li] {
                    continue;
                }
                let want = self.recv_seq[from].load(Ordering::Relaxed);
                for frame in early.into_iter().chain(arrived) {
                    let header = if lossless {
                        parse_chunk_unchecked(&frame)
                    } else {
                        parse_chunk(&frame)
                    }
                    .map(|(h, _)| h);
                    match header {
                        Ok(h) if h.seq == want => {
                            let idx = h.chunk as usize;
                            if parts[li].len() <= idx {
                                parts[li].resize_with(idx + 1, || None);
                            }
                            if h.last {
                                last_idx[li] = Some(h.chunk);
                            }
                            if parts[li][idx].is_none() {
                                parts[li][idx] = Some(frame);
                            }
                        }
                        // With no second rendezvous the sender may already
                        // be one exchange ahead (never two: its next exchange
                        // needs this host at the barrier).
                        Ok(h) if lossless && h.seq == want + 1 => {
                            self.early[from].lock().push(frame);
                        }
                        Ok(_) => {} // duplicate or stale: ignore
                        Err(_) => {
                            self.stats.crc_rejects.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // Complete when the final chunk's index is known and every
                // chunk up to it is present; concatenate in index order.
                if let Some(last) = last_idx[li] {
                    let last = last as usize;
                    if parts[li].len() > last
                        && parts[li][..=last].iter().all(|c| c.is_some())
                    {
                        result[li] = join_chunks(&mut parts[li][..=last]);
                        got[li] = true;
                    }
                }
                if !got[li] {
                    if lossless {
                        return Err(CommError::Protocol {
                            detail: format!(
                                "lossless carrier delivered an incomplete stream from host {from}"
                            ),
                        });
                    }
                    // Ask for exactly what is missing — everything while
                    // the final chunk is unknown, else the index gaps.
                    let req = match last_idx[li] {
                        None => RetxRequest::All,
                        Some(last) => RetxRequest::Chunks(
                            (0..=last)
                                .filter(|&i| {
                                    parts[li]
                                        .get(i as usize)
                                        .is_none_or(|c| c.is_none())
                                })
                                .collect(),
                        ),
                    };
                    membership::request_retx(self.transport, from, req);
                }
            }
            if lossless {
                // Nothing can be missing, so there is no verdict to agree.
                break;
            }
            let still_missing = !got.iter().all(|&g| g);
            let flags = self.note_err(membership::sync_missing(
                self.transport,
                still_missing,
                deadline,
            ))?;

            // All missing flags are in the snapshot; every host computes
            // the same verdict from the same generation. Flags left behind
            // by hosts outside the membership are ignored.
            let missing_hosts: Vec<usize> =
                members.iter().copied().filter(|&h| flags[h]).collect();
            if missing_hosts.is_empty() {
                break;
            }
            if attempt >= MAX_ATTEMPTS {
                // Identical on every host: the collective fails as a unit.
                return Err(CommError::FrameLoss {
                    hosts: missing_hosts,
                    attempts: attempt,
                });
            }
            attempt += 1;
            backoff.sleep();
            for (requester, req) in membership::take_retx(self.transport) {
                let seq = self.send_seq[requester]
                    .load(Ordering::Relaxed)
                    .wrapping_sub(1);
                let frames: Vec<(u32, Vec<u8>)> = {
                    let ob = self.outbox[requester].lock();
                    match &req {
                        RetxRequest::All => ob
                            .iter()
                            .enumerate()
                            .map(|(i, f)| (i as u32, f.clone()))
                            .collect(),
                        RetxRequest::Chunks(idxs) => idxs
                            .iter()
                            .filter_map(|&i| {
                                ob.get(i as usize).map(|f| (i, f.clone()))
                            })
                            .collect(),
                    }
                };
                self.stats.retransmits.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .chunk_retransmits
                    .fetch_add(frames.len() as u64, Ordering::Relaxed);
                for (idx, frame) in frames {
                    self.transmit(requester, round, seq, idx, attempt, frame);
                }
            }
            // Barrier before re-draining: retransmissions are complete
            // everywhere before any host re-checks its inbox.
            self.note_err(membership::barrier(self.transport, deadline))?;
        }

        for &from in &members {
            if from != me {
                self.recv_seq[from].fetch_add(1, Ordering::Relaxed);
            }
        }
        self.add_comm_nanos(clock::now_nanos().saturating_sub(t));
        Ok(result)
    }

    /// All-to-all exchange that also agrees one bit: returns the received
    /// buffers plus the OR of every host's `vote`. The bit rides each remote
    /// payload as one trailing byte, so a BSP round's broadcast and its
    /// quiescence check ([`HostCtx::all_reduce_or`]) cost one collective
    /// instead of two, for the same bytes on the wire.
    ///
    /// # Panics
    ///
    /// Panics if `outgoing.len() != num_hosts()`, and with a recoverable
    /// [`CrashSignal`] on communication failure (see
    /// [`HostCtx::try_exchange_or`] for the non-panicking form).
    pub fn exchange_or(&self, outgoing: Vec<Vec<u8>>, vote: bool) -> (Vec<Vec<u8>>, bool) {
        assert_eq!(outgoing.len(), self.num_hosts(), "one buffer per host");
        let r = self.try_exchange_or(outgoing, vote);
        self.unwrap_comm(r)
    }

    /// Failure-aware form of [`HostCtx::exchange_or`] (under the ambient
    /// deadline). A peer buffer too short to hold the vote byte is a
    /// [`CommError::Protocol`].
    pub fn try_exchange_or(
        &self,
        mut outgoing: Vec<Vec<u8>>,
        vote: bool,
    ) -> Result<(Vec<Vec<u8>>, bool), CommError> {
        let me = self.host();
        for (h, buf) in outgoing.iter_mut().enumerate() {
            if h != me {
                vote.write(buf);
            }
        }
        let mut received = self.try_exchange(outgoing)?;
        let mut any = vote;
        for (h, buf) in received.iter_mut().enumerate() {
            if h == me {
                continue;
            }
            // An empty buffer leaves nothing to read: `Truncated`.
            let at = buf.len().saturating_sub(bool::SIZE);
            any |= bool::try_read(&buf[at..]).map_err(|e| CommError::Protocol {
                detail: format!("exchange_or: vote from host {h}: {e}"),
            })?;
            buf.truncate(at);
        }
        Ok((received, any))
    }

    /// Escalates a malformed peer payload found by a protocol layered on
    /// [`HostCtx::exchange`] (a map decoding its key/value pairs, say)
    /// exactly as the infallible collectives escalate their own
    /// [`CommError::Protocol`]: this host is marked failed and unwinds with
    /// a recoverable [`CrashSignal`].
    pub fn protocol_violation(&self, detail: String) -> ! {
        self.fail_with(CrashSignal::Comm(CommError::Protocol { detail }))
    }

    /// Sends `payload` to physical host `to` as one chunk stream of the
    /// current exchange: bounded frames, the final one flagged LAST (an
    /// empty payload is a single header-only LAST frame). The frames are
    /// retained for retransmission unless the exchange is lossless.
    fn send_stream(&self, to: usize, round: u64, payload: &[u8]) {
        let seq = self.send_seq[to].load(Ordering::Relaxed);
        let n_chunks = payload.len().div_ceil(CHUNK_PAYLOAD).max(1);
        let mut retained = (!self.lossless).then(|| self.outbox[to].lock());
        if let Some(ob) = &mut retained {
            ob.clear();
        }
        self.stats
            .chunks_sent
            .fetch_add(n_chunks as u64, Ordering::Relaxed);
        for idx in 0..n_chunks {
            let lo = idx * CHUNK_PAYLOAD;
            let body = &payload[lo..(lo + CHUNK_PAYLOAD).min(payload.len())];
            let last = idx + 1 == n_chunks;
            let frame = if self.lossless {
                frame_chunk_unchecked(seq, idx as u32, last, body)
            } else {
                frame_chunk(seq, idx as u32, last, body)
            };
            if let Some(ob) = &mut retained {
                ob.push(frame.clone());
            }
            self.transmit(to, round, seq, idx as u32, 0, frame);
        }
    }

    /// All-reduce over one wire value per host: every host receives
    /// `combine` folded over all hosts' values (in host order).
    ///
    /// # Panics
    ///
    /// Panics with a recoverable [`CrashSignal`] on communication failure
    /// (see [`HostCtx::try_all_reduce`] for the non-panicking form).
    pub fn all_reduce<T, F>(&self, value: T, combine: F) -> T
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        let r = self.try_all_reduce(value, combine);
        self.unwrap_comm(r)
    }

    /// Failure-aware all-reduce (under the ambient deadline).
    pub fn try_all_reduce<T, F>(&self, value: T, combine: F) -> Result<T, CommError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        let me = self.host();
        let buf = encode_slice(&[value]);
        let outgoing = (0..self.num_hosts())
            .map(|h| if h == me { Vec::new() } else { buf.clone() })
            .collect();
        let received = self.try_exchange(outgoing)?;
        let mut acc = value;
        for (h, buf) in received.iter().enumerate() {
            if h == me {
                continue;
            }
            if buf.len() != T::SIZE {
                return Err(CommError::Protocol {
                    detail: format!(
                        "all_reduce expected {} bytes from host {h}, got {}",
                        T::SIZE,
                        buf.len()
                    ),
                });
            }
            let v = T::read(buf);
            // Fold in host order relative to our own position.
            acc = if h < me { combine(v, acc) } else { combine(acc, v) };
        }
        Ok(acc)
    }

    /// All-reduce specialized to `u64`.
    pub fn all_reduce_u64<F: Fn(u64, u64) -> u64>(&self, v: u64, f: F) -> u64 {
        self.all_reduce(v, f)
    }

    /// Logical-OR all-reduce over booleans — the quiescence check of
    /// `IsUpdated()`.
    pub fn all_reduce_or(&self, v: bool) -> bool {
        self.all_reduce(v, |a, b| a || b)
    }

    /// Gathers one wire value from every host; every host receives the full
    /// host-ordered vector.
    ///
    /// # Panics
    ///
    /// Panics with a recoverable [`CrashSignal`] on communication failure
    /// (see [`HostCtx::try_all_gather`] for the non-panicking form).
    pub fn all_gather<T: Wire>(&self, value: T) -> Vec<T> {
        let r = self.try_all_gather(value);
        self.unwrap_comm(r)
    }

    /// Failure-aware all-gather (under the ambient deadline).
    pub fn try_all_gather<T: Wire>(&self, value: T) -> Result<Vec<T>, CommError> {
        let me = self.host();
        let buf = encode_slice(&[value]);
        let outgoing = (0..self.num_hosts())
            .map(|h| if h == me { Vec::new() } else { buf.clone() })
            .collect();
        let received = self.try_exchange(outgoing)?;
        let mut out = Vec::with_capacity(received.len());
        for (h, buf) in received.iter().enumerate() {
            if h == me {
                out.push(value);
            } else {
                if buf.len() != T::SIZE {
                    return Err(CommError::Protocol {
                        detail: format!(
                            "all_gather expected {} bytes from host {h}, got {}",
                            T::SIZE,
                            buf.len()
                        ),
                    });
                }
                out.push(T::read(buf));
            }
        }
        Ok(out)
    }

    /// Clears this host's exchange-protocol state — retained, delayed and
    /// early frames, sequence numbers, the published round — and its
    /// membership view's per-round state and in-flight frames. Every
    /// recovery flavour runs this between its stop gate and its heal gate,
    /// while no host is sending.
    fn reset_protocol_state(&self) {
        for h in 0..self.num_hosts {
            self.outbox[h].lock().clear();
            self.delayed[h].lock().clear();
            self.early[h].lock().clear();
            self.send_seq[h].store(0, Ordering::Relaxed);
            self.recv_seq[h].store(0, Ordering::Relaxed);
        }
        self.round.store(0, Ordering::Relaxed);
        membership::reset(self.transport);
    }

    /// Snapshot of this host's communication counters.
    pub fn stats(&self) -> HostStats {
        self.stats.snapshot()
    }

    /// Resets the communication counters (benchmarks call this after
    /// warm-up/partitioning, which the paper excludes from timing).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Attributes `nanos` of wall-clock time to one NPM round phase. Called
    /// by engines that drive the BSP loop; the cluster itself never guesses
    /// phase boundaries.
    pub fn add_phase_nanos(&self, phase: SyncPhase, nanos: u64) {
        let cell = match phase {
            SyncPhase::RequestCompute => &self.stats.request_compute_nanos,
            SyncPhase::RequestSync => &self.stats.request_sync_nanos,
            SyncPhase::ReduceCompute => &self.stats.reduce_compute_nanos,
            SyncPhase::ReduceSync => &self.stats.reduce_sync_nanos,
        };
        cell.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records one reduce-compute `ParFor`'s activity: `active` nodes ran
    /// out of a dense extent of `total`, via a sparse frontier or not.
    /// Engines report this per round alongside the phase times.
    pub fn add_parfor_activity(&self, active: u64, total: u64, sparse: bool) {
        self.stats.active_nodes.fetch_add(active, Ordering::Relaxed);
        self.stats.parfor_nodes.fetch_add(total, Ordering::Relaxed);
        if sparse {
            self.stats.sparse_rounds.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds externally measured communication time (used by subsystems that
    /// implement their own wire protocols, e.g. the memcached baseline).
    pub fn add_comm_nanos(&self, nanos: u64) {
        self.stats.comm_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Adds externally counted message/byte traffic (for subsystems modeling
    /// per-operation messages outside [`HostCtx::exchange`]).
    pub fn add_traffic(&self, messages: u64, bytes: u64) {
        self.stats.messages.fetch_add(messages, Ordering::Relaxed);
        self.stats.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records master keys received from other hosts while re-sharding
    /// onto a changed membership (engines report these after a shrink or
    /// grow).
    pub fn add_resharded_keys(&self, keys: u64) {
        self.stats.resharded_keys.fetch_add(keys, Ordering::Relaxed);
    }

    /// Records serve-layer result-cache events (a scheduler reports one
    /// hit or miss per job lookup, and any evictions its inserts caused).
    pub fn add_cache_events(&self, hits: u64, misses: u64, evictions: u64) {
        self.stats.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.stats.cache_misses.fetch_add(misses, Ordering::Relaxed);
        self.stats.cache_evictions.fetch_add(evictions, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for HostCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostCtx")
            .field("host", &self.host)
            .field("num_hosts", &self.num_hosts)
            .field("threads", &self.pool.threads())
            .finish()
    }
}

#[path = "recovery.rs"]
mod recovery;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultKind};
    use crate::transport::sim::TraceEvent;
    use crate::wire::decode_slice;
    use std::time::Duration;

    #[test]
    fn run_returns_results_in_host_order() {
        let c = Cluster::new(5);
        let ids = c.run(|ctx| ctx.host());
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn exchange_delivers_point_to_point() {
        let c = Cluster::new(4);
        let ok = c.run(|ctx| {
            // Host h sends "h*10 + to" to every host `to`.
            let outgoing = (0..ctx.num_hosts())
                .map(|to| encode_slice(&[(ctx.host() * 10 + to) as u64]))
                .collect();
            let received = ctx.exchange(outgoing);
            (0..ctx.num_hosts()).all(|from| {
                decode_slice::<u64>(&received[from]) == vec![(from * 10 + ctx.host()) as u64]
            })
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn exchange_repeated_rounds_do_not_leak() {
        let c = Cluster::new(3);
        let ok = c.run(|ctx| {
            for round in 0..10u64 {
                let outgoing = (0..ctx.num_hosts())
                    .map(|_| encode_slice(&[round]))
                    .collect();
                let received = ctx.exchange(outgoing);
                for buf in &received {
                    if decode_slice::<u64>(buf) != vec![round] {
                        return false;
                    }
                }
            }
            true
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn all_reduce_sum_and_or() {
        let c = Cluster::new(4);
        let res = c.run(|ctx| {
            let sum = ctx.all_reduce_u64(ctx.host() as u64 + 1, |a, b| a + b);
            let any = ctx.all_reduce_or(ctx.host() == 2);
            let none = ctx.all_reduce_or(false);
            (sum, any, none)
        });
        assert!(res.iter().all(|&(s, a, n)| s == 10 && a && !n));
    }

    #[test]
    fn all_gather_orders_by_host() {
        let c = Cluster::new(3);
        let res = c.run(|ctx| ctx.all_gather((ctx.host() as u32, 100 - ctx.host() as u64)));
        for r in res {
            assert_eq!(r, vec![(0, 100), (1, 99), (2, 98)]);
        }
    }

    #[test]
    fn stats_count_only_remote_traffic() {
        let c = Cluster::new(2);
        let stats = c.run(|ctx| {
            let outgoing = (0..2).map(|_| vec![0u8; 16]).collect();
            ctx.exchange(outgoing);
            ctx.stats()
        });
        for s in stats {
            assert_eq!(s.messages, 1); // self-send not counted
            assert_eq!(s.bytes, 16);
            assert_eq!(s.retransmits, 0);
            assert!(s.comm_nanos > 0);
        }
    }

    #[test]
    fn reset_stats_zeroes_every_counter() {
        let c = Cluster::new(2);
        let stats = c.run(|ctx| {
            ctx.exchange((0..2).map(|_| vec![0u8; 16]).collect());
            ctx.add_phase_nanos(SyncPhase::RequestCompute, 5);
            ctx.add_phase_nanos(SyncPhase::ReduceSync, 5);
            ctx.add_parfor_activity(3, 7, true);
            ctx.add_resharded_keys(2);
            ctx.add_cache_events(1, 1, 1);
            let before = ctx.stats();
            ctx.reset_stats();
            (before, ctx.stats())
        });
        for (before, after) in stats {
            assert_ne!(before, HostStats::default());
            assert_eq!(after, HostStats::default());
        }
    }

    #[test]
    fn empty_payloads_not_counted() {
        let c = Cluster::new(3);
        let stats = c.run(|ctx| {
            ctx.exchange((0..3).map(|_| Vec::new()).collect());
            ctx.stats()
        });
        for s in stats {
            assert_eq!(s.messages, 0);
            assert_eq!(s.bytes, 0);
        }
    }

    #[test]
    fn single_host_cluster_collectives() {
        let c = Cluster::new(1);
        let res = c.run(|ctx| {
            let v = ctx.all_reduce_u64(7, |a, b| a + b);
            let g = ctx.all_gather(9u32);
            (v, g)
        });
        assert_eq!(res[0], (7, vec![9]));
    }

    #[test]
    fn hosts_run_with_pools() {
        let c = Cluster::with_threads(2, 3);
        let sums = c.run(|ctx| {
            use std::sync::atomic::{AtomicU64, Ordering};
            let acc = AtomicU64::new(0);
            ctx.par_for(0..1000, |_tid, r| {
                acc.fetch_add(r.len() as u64, Ordering::Relaxed);
            });
            acc.load(Ordering::Relaxed)
        });
        assert_eq!(sums, vec![1000, 1000]);
    }

    // ----- lossless carriers -----------------------------------------------

    /// A plan whose only fault addresses a round no test reaches: non-empty
    /// (so the full protocol runs) yet never firing.
    fn never_firing_plan() -> FaultPlan {
        FaultPlan::new().drop_frame(0, 1, u64::MAX)
    }

    #[test]
    fn lossless_is_derived_from_carrier_and_plan() {
        let flag = |c: Cluster, plan: FaultPlan| c.run_with_faults(plan, |ctx| ctx.lossless);
        assert_eq!(flag(Cluster::new(2), FaultPlan::new()), vec![true, true]);
        assert_eq!(flag(Cluster::new(2), never_firing_plan()), vec![false, false]);
        assert_eq!(flag(Cluster::new(2).tcp(), FaultPlan::new()), vec![false, false]);
        assert_eq!(flag(Cluster::new(2).sim(1), FaultPlan::new()), vec![false, false]);
    }

    #[test]
    fn lossless_exchange_matches_full_protocol() {
        // The same exchange sequence, at every chunk-boundary size, with and
        // without the integrity machinery.
        const C: usize = crate::wire::CHUNK_PAYLOAD;
        let sizes = [0, 1, C - 1, C, C + 1, 3 * C];
        let run = |plan: FaultPlan| {
            Cluster::new(3).run_with_faults(plan, move |ctx| {
                let payload = |step: usize, to: usize| {
                    let len = sizes[(step + to + ctx.host()) % sizes.len()];
                    (0..len)
                        .map(|i| (i * 31 + step * 7 + ctx.host() * 16 + to) as u8)
                        .collect::<Vec<u8>>()
                };
                let mut seen = Vec::new();
                for step in 0..sizes.len() {
                    seen.push(ctx.exchange((0..3).map(|to| payload(step, to)).collect()));
                }
                (seen, ctx.stats())
            })
        };
        let lossless = run(FaultPlan::new());
        let full = run(never_firing_plan());
        for (l, f) in lossless.iter().zip(&full) {
            assert_eq!(l.0, f.0, "lossless and full-protocol buffers differ");
            // Same streams on the wire either way; only the checks differ.
            assert_eq!(l.1.chunks_sent, f.1.chunks_sent);
            assert_eq!((l.1.messages, l.1.bytes), (f.1.messages, f.1.bytes));
            assert_eq!(l.1.retransmits + f.1.retransmits, 0);
        }
    }

    #[test]
    fn a_peer_running_one_exchange_ahead_is_stashed_not_lost() {
        // Host 0 dawdles before every exchange, so it is the last to reach
        // the rendezvous and the first to leave it: its next exchange's
        // frames land while host 1 is still waking up to drain this one.
        // Barriers and all-reduces interleave so the stash also has to stay
        // out of their way.
        let ok = Cluster::new(2).run(|ctx| {
            assert!(ctx.lossless);
            let peer = 1 - ctx.host();
            for i in 0..1000u64 {
                if ctx.host() == 0 {
                    std::thread::sleep(Duration::from_micros(20));
                }
                let mut outgoing = vec![Vec::new(); 2];
                outgoing[peer] = encode_slice(&[i, ctx.host() as u64]);
                let got = ctx.exchange(outgoing);
                if decode_slice::<u64>(&got[peer]) != vec![i, peer as u64] {
                    return false;
                }
                if i % 7 == 0 {
                    ctx.barrier();
                }
                if i % 5 == 0 && ctx.all_reduce_u64(i, |a, b| a + b) != 2 * i {
                    return false;
                }
            }
            // Nothing lingers once both hosts are past the last exchange.
            ctx.barrier();
            ctx.early.iter().all(|e| e.lock().is_empty())
        });
        assert_eq!(ok, vec![true, true]);
    }

    #[test]
    fn recovery_clears_the_early_frame_stash() {
        // Attempt 0 ends with host 0 holding a frame of host 1's *next*
        // exchange (planted, as if host 1 had run ahead before it crashed).
        // Recovery restarts sequence numbers, so a stash that survived it
        // would be mistaken for attempt 1's second exchange.
        let res = Cluster::new(2).run(|ctx| {
            let attempt = std::cell::Cell::new(0u64);
            ctx.run_recovering(|ctx| {
                let n = attempt.replace(attempt.get() + 1);
                let round = |tag: u64| {
                    let got = ctx.exchange(vec![encode_slice(&[n, tag]); 2]);
                    decode_slice::<u64>(&got[1 - ctx.host()])
                };
                let first = round(1);
                if n == 0 {
                    if ctx.host() == 0 {
                        let stale = frame_chunk_unchecked(1, 0, true, &encode_slice(&[0u64, 2]));
                        ctx.early[1].lock().push(stale);
                    } else {
                        ctx.fail_with(CrashSignal::Injected { host: 1, round: 0 });
                    }
                }
                (first, round(2), ctx.early.iter().all(|e| e.lock().is_empty()))
            })
        });
        for r in res {
            assert_eq!(r, (vec![1, 1], vec![1, 2], true));
        }
    }

    #[test]
    fn exchange_or_agrees_the_vote_for_the_price_of_the_all_reduce() {
        let res = Cluster::new(3).run(|ctx| {
            let payload = |to: usize| vec![(ctx.host() * 16 + to) as u8; to];
            let t0 = ctx.stats().bytes;
            let (bufs, any) = ctx.exchange_or((0..3).map(payload).collect(), ctx.host() == 2);
            let t1 = ctx.stats().bytes;
            // The two collectives it replaces, for the byte comparison.
            let plain = ctx.exchange((0..3).map(payload).collect());
            ctx.all_reduce_or(ctx.host() == 2);
            let t2 = ctx.stats().bytes;
            let (_, none) = ctx.exchange_or(vec![Vec::new(); 3], false);
            (bufs == plain, any, none, t1 - t0, t2 - t1)
        });
        for (same, any, none, fused_bytes, split_bytes) in res {
            assert!(same, "the vote byte must not leak into the buffers");
            assert!(any && !none);
            assert_eq!(fused_bytes, split_bytes);
        }
    }

    #[test]
    fn exchange_or_reports_a_missing_vote_as_protocol_error() {
        let res = Cluster::new(2).run(|ctx| {
            if ctx.host() == 0 {
                ctx.try_exchange_or(vec![Vec::new(); 2], true).map(|_| ())
            } else {
                // A peer speaking plain exchange: no trailing vote byte.
                ctx.try_exchange(vec![Vec::new(); 2]).map(|_| ())
            }
        });
        match &res[0] {
            Err(CommError::Protocol { detail }) => assert!(detail.contains("vote from host 1")),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert_eq!(res[1], Ok(()));
    }

    #[test]
    fn multi_chunk_payloads_survive_chunk_targeted_drops() {
        // Drop a middle chunk of a 3-chunk payload (plus the final, LAST-
        // carrying chunk on another link) and make sure reassembly
        // re-requests them: the gap exactly, the unknown extent in full.
        let len = 2 * crate::wire::CHUNK_PAYLOAD + 100; // chunks 0,1,2 (2 = LAST)
        let plan = FaultPlan::new().drop_chunk(0, 1, 0, 1).drop_chunk(1, 2, 0, 2);
        let res = Cluster::new(3).run_with_faults(plan, move |ctx| {
            let outgoing = (0..3)
                .map(|to| vec![(ctx.host() * 16 + to) as u8; len])
                .collect();
            let received = ctx.exchange(outgoing);
            let ok = (0..3).all(|from| {
                received[from] == vec![(from * 16 + ctx.host()) as u8; len]
            });
            (ok, ctx.stats())
        });
        assert!(res.iter().all(|r| r.0));
        let retx: u64 = res.iter().map(|r| r.1.chunk_retransmits).sum();
        assert!(retx >= 2, "both dropped chunks should be re-sent, got {retx}");
        // One frame for the gap, the 3-frame stream whose end was lost: far
        // fewer than the 18 frames the exchange carried.
        assert!(retx <= 6, "retransmission should not resend every stream");
    }

    // ----- fault tolerance ------------------------------------------------

    /// The exchange every fault test runs: host h sends h*10+to to host to.
    fn tagged_exchange(ctx: &HostCtx) -> bool {
        let outgoing = (0..ctx.num_hosts())
            .map(|to| encode_slice(&[(ctx.host() * 10 + to) as u64]))
            .collect();
        let received = ctx.exchange(outgoing);
        (0..ctx.num_hosts())
            .all(|from| decode_slice::<u64>(&received[from]) == vec![(from * 10 + ctx.host()) as u64])
    }

    #[test]
    fn panicking_host_does_not_deadlock_siblings() {
        // Regression test for the barrier-poisoning hazard: with a plain
        // std barrier, a panicking host left siblings blocked forever.
        let c = Cluster::new(3);
        let res = c.try_run(|ctx| {
            if ctx.host() == 1 {
                panic!("boom-host-1");
            }
            ctx.try_barrier()
        });
        for survivor in [0, 2] {
            match &res[survivor] {
                Ok(Err(CommError::HostFailure { hosts })) => assert!(hosts.contains(&1), "{hosts:?}"),
                other => panic!("survivor {survivor} got {other:?}"),
            }
        }
        let err = res[1].as_ref().unwrap_err();
        assert_eq!(err.host, 1);
        assert!(err.message.contains("boom-host-1"));
    }

    #[test]
    #[should_panic(expected = "host thread panicked")]
    fn run_panics_on_host_failure() {
        Cluster::new(2).run(|ctx| {
            if ctx.host() == 0 {
                panic!("kaboom");
            }
            let _ = ctx.try_barrier();
        });
    }

    #[test]
    fn dropped_frame_is_retransmitted() {
        let plan = FaultPlan::new().drop_frame(0, 1, 0);
        let res = Cluster::new(3).run_with_faults(plan, |ctx| {
            (tagged_exchange(ctx), ctx.stats().retransmits)
        });
        assert!(res.iter().all(|r| r.0));
        assert!(res[0].1 >= 1, "host 0 should have retransmitted to host 1");
    }

    #[test]
    fn duplicate_delay_and_corrupt_are_survived() {
        let plan = FaultPlan::new()
            .duplicate_frame(2, 0, 0)
            .delay_frame(1, 2, 0)
            .corrupt_frame(0, 2, 0, 77);
        let res = Cluster::new(3).run_with_faults(plan, |ctx| {
            // Two exchanges: the delayed frame from the first arrives
            // stale during the second and must be ignored.
            tagged_exchange(ctx) && tagged_exchange(ctx)
        });
        assert!(res.iter().all(|&ok| ok));
    }

    #[test]
    fn random_fault_soup_is_survived() {
        let plan = FaultPlan::new()
            .with_seed(7)
            .drop_rate(0.05)
            .duplicate_rate(0.05)
            .corrupt_rate(0.05);
        let res = Cluster::new(4).run_with_faults(plan, |ctx| {
            (0..20).all(|_| tagged_exchange(ctx))
        });
        assert!(res.iter().all(|&ok| ok));
    }

    #[test]
    fn persistent_loss_fails_identically_on_all_hosts() {
        // A link that drops every frame (and every retransmit) exhausts the
        // retry budget; the collective must fail with the same error
        // everywhere instead of leaving hosts disagreeing.
        let plan = FaultPlan::new().fault(Fault {
            kind: FaultKind::DropFrame,
            from: Some(0),
            to: Some(1),
            round: None,
            chunk: None,
            times: u32::MAX,
        });
        let res = Cluster::new(2).try_run_with_faults(plan, |ctx| {
            let outgoing = (0..2).map(|_| vec![9u8; 8]).collect();
            ctx.try_exchange(outgoing)
        });
        let expected = CommError::FrameLoss {
            hosts: vec![1],
            attempts: MAX_ATTEMPTS,
        };
        for r in res {
            assert_eq!(r.unwrap().unwrap_err(), expected);
        }
    }

    #[test]
    fn injected_crash_recovers_bit_identically() {
        let work = |ctx: &HostCtx| {
            let mut acc = 0u64;
            for round in 1..=3u64 {
                ctx.set_round(round);
                acc = acc * 31 + ctx.all_reduce_u64(ctx.host() as u64 + round, |a, b| a + b);
            }
            acc
        };
        let baseline = Cluster::new(3).run(work);
        let plan = FaultPlan::new().crash_host(1, 2);
        let recovered = Cluster::new(3)
            .run_with_faults(plan, |ctx| ctx.run_recovering(work));
        assert_eq!(recovered, baseline);
    }

    #[test]
    #[should_panic(expected = "host thread panicked")]
    fn unrecovered_crash_fails_the_run() {
        let plan = FaultPlan::new().crash_host(0, 0);
        // No run_recovering: the injected crash surfaces like any panic.
        Cluster::new(2).run_with_faults(plan, |ctx| ctx.all_reduce_u64(1, |a, b| a + b));
    }

    #[test]
    fn set_round_is_per_host() {
        let c = Cluster::new(2);
        let rounds = c.run(|ctx| {
            assert_eq!(ctx.current_round(), 0);
            ctx.set_round(ctx.host() as u64 + 5);
            ctx.current_round()
        });
        assert_eq!(rounds, vec![5, 6]);
    }

    // ----- transport backends ---------------------------------------------

    #[test]
    fn tcp_loopback_runs_the_same_collectives() {
        let c = Cluster::new(3).tcp();
        let res = c.run(|ctx| {
            let sum = ctx.all_reduce_u64(ctx.host() as u64 + 1, |a, b| a + b);
            let gathered = ctx.all_gather(ctx.host() as u32);
            ctx.barrier();
            (sum, gathered, tagged_exchange(ctx))
        });
        for (sum, gathered, ok) in res {
            assert_eq!(sum, 6);
            assert_eq!(gathered, vec![0, 1, 2]);
            assert!(ok);
        }
    }

    #[test]
    fn tcp_loopback_survives_targeted_faults() {
        let plan = FaultPlan::new()
            .drop_frame(0, 1, 0)
            .duplicate_frame(2, 0, 0)
            .corrupt_frame(1, 2, 0, 33);
        let res = Cluster::new(3).tcp().run_with_faults(plan, |ctx| {
            (tagged_exchange(ctx), ctx.stats().retransmits)
        });
        assert!(res.iter().all(|r| r.0));
        assert!(res.iter().map(|r| r.1).sum::<u64>() >= 1);
    }

    #[test]
    fn tcp_loopback_recovers_injected_crash() {
        let work = |ctx: &HostCtx| {
            let mut acc = 0u64;
            for round in 1..=3u64 {
                ctx.set_round(round);
                acc = acc * 31 + ctx.all_reduce_u64(ctx.host() as u64 + round, |a, b| a + b);
            }
            acc
        };
        let baseline = Cluster::new(3).run(work);
        let plan = FaultPlan::new().crash_host(1, 2);
        let recovered = Cluster::new(3)
            .tcp()
            .run_with_faults(plan, |ctx| ctx.run_recovering(work));
        assert_eq!(recovered, baseline);
    }

    #[test]
    fn barrier_timeout_reports_phase_and_laggards() {
        let c = Cluster::new(2);
        let res = c.try_run(|ctx| {
            if ctx.host() == 0 {
                let d = Deadline::after("probe", Duration::from_millis(50));
                let r = ctx.try_barrier_by(&d);
                // Complete the generation so host 1 is not stranded.
                let _ = ctx.try_barrier();
                (r, ctx.stats().timeout_aborts)
            } else {
                std::thread::sleep(Duration::from_millis(250));
                (ctx.try_barrier(), 0)
            }
        });
        let (r0, aborts) = res[0].as_ref().unwrap();
        match r0 {
            Err(CommError::Timeout { phase, hosts }) => {
                assert_eq!(*phase, "probe");
                assert_eq!(hosts, &vec![1]);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(*aborts, 1);
        assert!(res[1].as_ref().unwrap().0.is_ok());
    }

    #[test]
    fn ambient_deadline_applies_to_unsuffixed_collectives() {
        let c = Cluster::new(2);
        let res = c.try_run(|ctx| {
            if ctx.host() == 0 {
                ctx.set_deadline(Deadline::after("ambient", Duration::from_millis(50)));
                let r = ctx.try_barrier();
                ctx.set_deadline(Deadline::none());
                let _ = ctx.try_barrier();
                r
            } else {
                std::thread::sleep(Duration::from_millis(250));
                ctx.try_barrier()
            }
        });
        match res[0].as_ref().unwrap() {
            Err(CommError::Timeout { phase, .. }) => assert_eq!(*phase, "ambient"),
            other => panic!("expected ambient timeout, got {other:?}"),
        }
    }

    #[test]
    fn stalled_host_is_flagged_by_heartbeat_and_recovery_completes() {
        use crate::transport::{HeartbeatConfig, TransportConfig};
        let work = |ctx: &HostCtx| {
            let mut acc = 0u64;
            for round in 1..=3u64 {
                ctx.set_round(round);
                acc = acc * 31 + ctx.all_reduce_u64(ctx.host() as u64 + round, |a, b| a + b);
            }
            acc
        };
        let baseline = Cluster::new(3).run(work);
        let plan = FaultPlan::new().stall_host(1, 2, 400);
        let cfg = TransportConfig::with_heartbeat(HeartbeatConfig {
            interval: Duration::from_millis(10),
            suspect_after: Duration::from_millis(80),
        });
        let res = Cluster::new(3)
            .with_transport_config(cfg)
            .run_with_faults(plan, |ctx| {
                (ctx.run_recovering(work), ctx.stats().heartbeat_suspicions)
            });
        let values: Vec<u64> = res.iter().map(|r| r.0).collect();
        assert_eq!(values, baseline);
        let suspicions: u64 = res.iter().map(|r| r.1).sum();
        assert!(suspicions >= 1, "some host should have aborted on PeerDown");
    }

    #[test]
    fn stalled_host_is_flagged_by_deadline_and_recovery_completes() {
        let work = |ctx: &HostCtx| {
            ctx.set_deadline(Deadline::maybe("round", Some(Duration::from_millis(150))));
            let mut acc = 0u64;
            for round in 1..=3u64 {
                ctx.set_round(round);
                ctx.set_deadline(Deadline::after("round", Duration::from_millis(150)));
                acc = acc * 31 + ctx.all_reduce_u64(ctx.host() as u64 + round, |a, b| a + b);
            }
            acc
        };
        let baseline = Cluster::new(3).run(work);
        let plan = FaultPlan::new().stall_host(0, 2, 400);
        let res = Cluster::new(3).run_with_faults(plan, |ctx| {
            (ctx.run_recovering(work), ctx.stats().timeout_aborts)
        });
        let values: Vec<u64> = res.iter().map(|r| r.0).collect();
        assert_eq!(values, baseline);
        let aborts: u64 = res.iter().map(|r| r.1).sum();
        assert!(aborts >= 1, "some host should have aborted on deadline");
    }

    // ----- simulation backend ---------------------------------------------

    #[test]
    fn sim_backend_runs_collectives() {
        let res = Cluster::new(3).sim(7).run(|ctx| {
            let ok = tagged_exchange(ctx);
            let sum = ctx.all_reduce_u64(ctx.host() as u64, |a, b| a + b);
            (ok, sum)
        });
        for (ok, sum) in res {
            assert!(ok);
            assert_eq!(sum, 3);
        }
    }

    #[test]
    fn sim_backend_same_seed_identical_trace() {
        let run = |seed: u64| {
            let sink: TraceSink = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let plan = FaultPlan::new().with_seed(5).drop_rate(0.05);
            let res = Cluster::new(3)
                .sim(seed)
                .with_trace_sink(sink.clone())
                .run_with_faults(plan, |ctx| {
                    let mut acc = 0u64;
                    for round in 1..=3u64 {
                        ctx.set_round(round);
                        acc =
                            acc * 31 + ctx.all_reduce_u64(ctx.host() as u64 + round, |a, b| a + b);
                    }
                    (acc, ctx.stats().retransmits)
                });
            let trace = std::mem::take(&mut *sink.lock());
            (res, trace)
        };
        let (r1, t1) = run(11);
        let (r2, t2) = run(11);
        assert!(!t1.is_empty(), "trace sink should be filled");
        assert_eq!(r1, r2, "same seed must produce identical results");
        assert_eq!(t1, t2, "same seed must replay the same schedule");
        let j1: Vec<String> = t1.iter().map(TraceEvent::to_json).collect();
        let j2: Vec<String> = t2.iter().map(TraceEvent::to_json).collect();
        assert_eq!(j1, j2, "JSONL serialization must be byte-identical");
        let (_, t3) = run(12);
        assert_ne!(t1, t3, "a different seed should change the schedule");
    }

    #[test]
    fn sim_backend_resolves_heartbeat_stall_in_virtual_time() {
        use crate::transport::{HeartbeatConfig, TransportConfig};
        let work = |ctx: &HostCtx| {
            let mut acc = 0u64;
            for round in 1..=3u64 {
                ctx.set_round(round);
                acc = acc * 31 + ctx.all_reduce_u64(ctx.host() as u64 + round, |a, b| a + b);
            }
            acc
        };
        let baseline = Cluster::new(3).run(work);
        let wall = std::time::Instant::now();
        let plan = FaultPlan::new().stall_host(1, 2, 400);
        let cfg = TransportConfig::with_heartbeat(HeartbeatConfig {
            interval: Duration::from_millis(10),
            suspect_after: Duration::from_millis(80),
        });
        let res = Cluster::new(3)
            .sim(21)
            .with_transport_config(cfg)
            .run_with_faults(plan, |ctx| {
                (ctx.run_recovering(work), ctx.stats().heartbeat_suspicions)
            });
        let values: Vec<u64> = res.iter().map(|r| r.0).collect();
        assert_eq!(values, baseline);
        let suspicions: u64 = res.iter().map(|r| r.1).sum();
        assert!(suspicions >= 1, "the stall should be flagged by heartbeat");
        // The 400ms stall and 80ms suspicion threshold elapse on the
        // virtual clock; wall time stays far below the injected delays.
        assert!(
            wall.elapsed() < Duration::from_millis(350),
            "virtual time leaked into wall time: {:?}",
            wall.elapsed()
        );
    }

    #[test]
    fn sim_backend_resolves_deadline_stall_in_virtual_time() {
        let work = |ctx: &HostCtx| {
            let mut acc = 0u64;
            for round in 1..=3u64 {
                ctx.set_round(round);
                ctx.set_deadline(Deadline::after("round", Duration::from_millis(150)));
                acc = acc * 31 + ctx.all_reduce_u64(ctx.host() as u64 + round, |a, b| a + b);
            }
            acc
        };
        let baseline = Cluster::new(3).run(work);
        let plan = FaultPlan::new().stall_host(0, 2, 400);
        let res = Cluster::new(3).sim(33).run_with_faults(plan, |ctx| {
            (ctx.run_recovering(work), ctx.stats().timeout_aborts)
        });
        let values: Vec<u64> = res.iter().map(|r| r.0).collect();
        assert_eq!(values, baseline);
        let aborts: u64 = res.iter().map(|r| r.1).sum();
        assert!(aborts >= 1, "the stall should trip the phase deadline");
    }

    #[test]
    fn sim_backend_survives_injected_crash() {
        let work = |ctx: &HostCtx| {
            let mut acc = 0u64;
            for round in 1..=3u64 {
                ctx.set_round(round);
                acc = acc * 31 + ctx.all_reduce_u64(ctx.host() as u64 + round, |a, b| a + b);
            }
            acc
        };
        let baseline = Cluster::new(3).run(work);
        let plan = FaultPlan::new().crash_host(1, 2);
        let res = Cluster::new(3)
            .sim(55)
            .run_with_faults(plan, |ctx| ctx.run_recovering(work));
        assert_eq!(res, baseline);
    }

    // ----- permanent host loss / membership shrink ------------------------

    /// Membership-independent SPMD work: each host sums the keys it owns
    /// under `key % num_hosts() == host()`, so the all-reduced total is the
    /// same whatever the membership — the shrunk survivors must reproduce
    /// the fault-free value exactly.
    fn partitioned_sum(ctx: &HostCtx) -> u64 {
        let mut acc = 0u64;
        for round in 1..=4u64 {
            ctx.set_round(round);
            let k = ctx.num_hosts();
            let me = ctx.host();
            let local: u64 = (0..1000u64)
                .filter(|v| (*v as usize) % k == me)
                .map(|v| v.wrapping_mul(round))
                .sum();
            acc = acc.wrapping_mul(31).wrapping_add(
                ctx.all_reduce_u64(local, |a, b| a.wrapping_add(b)),
            );
        }
        acc
    }

    fn assert_shrink_survives(cluster: Cluster) {
        let baseline = Cluster::new(4).run(partitioned_sum);
        let plan = FaultPlan::new().kill_host(1, 2);
        let res = cluster.try_run_with_faults(plan, |ctx| {
            let v = ctx.run_elastic(partitioned_sum);
            (v, ctx.stats(), ctx.members(), ctx.generation())
        });
        for h in [0usize, 2, 3] {
            let (v, stats, members, generation) =
                res[h].as_ref().unwrap_or_else(|e| panic!("host {h}: {e}"));
            assert_eq!(*v, baseline[0], "survivor {h} diverged");
            assert_eq!(members, &vec![0, 2, 3]);
            assert_eq!(*generation, 1);
            assert_eq!(stats.membership_changes, 1);
            assert!(stats.degraded_rounds >= 1, "no degraded rounds counted");
        }
        let err = res[1].as_ref().unwrap_err();
        assert_eq!(err.signal, Some(CrashSignal::Killed { host: 1, round: 2 }));
        assert!(
            err.message.starts_with("permanent host loss"),
            "victim reported: {}",
            err.message
        );
    }

    #[test]
    fn killed_host_shrinks_inproc() {
        assert_shrink_survives(Cluster::new(4));
    }

    #[test]
    fn killed_host_shrinks_sim() {
        assert_shrink_survives(Cluster::new(4).sim(77));
    }

    #[test]
    fn killed_host_shrinks_tcp_loopback() {
        assert_shrink_survives(Cluster::new(4).tcp());
    }

    #[test]
    fn killed_host_shrink_is_seed_reproducible() {
        let run = || {
            Cluster::new(4)
                .sim(99)
                .try_run_with_faults(FaultPlan::new().kill_host(2, 3), |ctx| {
                    ctx.run_elastic(partitioned_sum)
                })
                .into_iter()
                .map(|r| r.map_err(|e| e.message))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    // ----- live host join / membership grow -------------------------------

    /// One BSP round of the membership-independent partitioned sum, folded
    /// into `acc` (the body of `partitioned_sum`, factored so grow tests
    /// can run different round ranges before and after a join).
    fn sum_rounds(ctx: &HostCtx, rounds: std::ops::RangeInclusive<u64>, acc: &mut u64) {
        for round in rounds {
            ctx.set_round(round);
            let k = ctx.num_hosts();
            let me = ctx.host();
            let local: u64 = (0..1000u64)
                .filter(|v| (*v as usize) % k == me)
                .map(|v| v.wrapping_mul(round))
                .sum();
            *acc = acc.wrapping_mul(31).wrapping_add(
                ctx.all_reduce_u64(local, |a, b| a.wrapping_add(b)),
            );
        }
    }

    /// Per-round all-reduced total of the partitioned sum (membership
    /// independent: every key is owned by exactly one member).
    fn round_total(round: u64) -> u64 {
        (0..1000u64).map(|v| v.wrapping_mul(round)).sum()
    }

    fn assert_grow_admits(cluster: Cluster) {
        // A 4-host static baseline: because each round's all-reduce total
        // is membership independent, members that live through the grow
        // must still fold the exact same four totals.
        let baseline = Cluster::new(4).run(partitioned_sum);
        let plan = FaultPlan::new().join_host(3, 50);
        let res = cluster.try_run_with_faults(plan, |ctx| {
            let mut acc = 0u64;
            if ctx.is_member() {
                sum_rounds(ctx, 1..=2, &mut acc);
                // Stop at the grow gate once the newcomer knocks.
                while ctx.pending_joins().is_empty() {
                    clock::sleep(Duration::from_millis(5));
                }
                let outcome = ctx.recover_grow().expect("grow agreement failed");
                assert_eq!(outcome.joined, vec![3]);
                assert_eq!(outcome.old_count, 3);
                sum_rounds(ctx, 3..=4, &mut acc);
            } else {
                if let Some(d) = ctx.join_delay() {
                    clock::sleep(d);
                }
                let outcome = ctx
                    .join_cluster(&Deadline::after("join", Duration::from_secs(60)))
                    .expect("join failed");
                assert!(outcome.joined.contains(&ctx.physical_host()));
                assert_eq!(outcome.old_count, 3);
                sum_rounds(ctx, 3..=4, &mut acc);
            }
            (acc, ctx.stats(), ctx.members(), ctx.generation())
        });
        for (h, r) in res.iter().enumerate().take(3) {
            let (v, stats, members, generation) =
                r.as_ref().unwrap_or_else(|e| panic!("member {h}: {e}"));
            assert_eq!(*v, baseline[0], "member {h} diverged after grow");
            assert_eq!(members, &vec![0, 1, 2, 3]);
            assert_eq!(*generation, 1);
            assert_eq!(stats.membership_changes, 1);
            assert_eq!(stats.joins, 1);
            assert_eq!(stats.degraded_rounds, 0, "latent capacity is not degradation");
        }
        let (v, stats, members, generation) =
            res[3].as_ref().unwrap_or_else(|e| panic!("joiner: {e}"));
        assert_eq!(*v, round_total(3).wrapping_mul(31).wrapping_add(round_total(4)));
        assert_eq!(members, &vec![0, 1, 2, 3]);
        assert_eq!(*generation, 1);
        assert_eq!(stats.membership_changes, 1);
        assert_eq!(stats.joins, 1);
    }

    #[test]
    fn latent_host_joins_inproc() {
        assert_grow_admits(Cluster::new(4));
    }

    #[test]
    fn latent_host_joins_sim() {
        assert_grow_admits(Cluster::new(4).sim(123));
    }

    #[test]
    fn latent_host_joins_tcp_loopback() {
        assert_grow_admits(Cluster::new(4).tcp());
    }

    #[test]
    fn latent_host_join_is_seed_reproducible() {
        let run = || {
            Cluster::new(4)
                .sim(131)
                .try_run_with_faults(FaultPlan::new().join_host(3, 40), |ctx| {
                    let mut acc = 0u64;
                    if ctx.is_member() {
                        sum_rounds(ctx, 1..=2, &mut acc);
                        while ctx.pending_joins().is_empty() {
                            clock::sleep(Duration::from_millis(5));
                        }
                        ctx.recover_grow().expect("grow agreement failed");
                    } else {
                        if let Some(d) = ctx.join_delay() {
                            clock::sleep(d);
                        }
                        ctx.join_cluster(&Deadline::after("join", Duration::from_secs(60)))
                            .expect("join failed");
                    }
                    sum_rounds(ctx, 3..=4, &mut acc);
                    (acc, ctx.members(), ctx.generation())
                })
                .into_iter()
                .map(|r| r.map_err(|e| e.message))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn joiner_gives_up_with_typed_timeout() {
        // Nobody ever stops at a grow gate: the joiner must give up with a
        // typed timeout instead of hanging, and the members must finish
        // their run untouched.
        let plan = FaultPlan::new().join_host(2, 1);
        let res = Cluster::new(3).sim(17).try_run_with_faults(plan, |ctx| {
            if ctx.is_member() {
                Ok(partitioned_sum(ctx))
            } else {
                Err(ctx
                    .join_cluster(&Deadline::after("join", Duration::from_millis(400)))
                    .expect_err("join against deaf members must time out"))
            }
        });
        let baseline = Cluster::new(3).run(partitioned_sum);
        for (h, r) in res.iter().enumerate().take(2) {
            let v = r.as_ref().unwrap().as_ref().unwrap();
            assert_eq!(*v, baseline[0], "member {h} was disturbed by the knock");
        }
        match res[2].as_ref().unwrap() {
            Err(CommError::Timeout { phase, .. }) => assert_eq!(*phase, "join"),
            other => panic!("expected typed join timeout, got {other:?}"),
        }
    }

    #[test]
    fn membership_lost_without_shrink_is_typed() {
        // Without run_elastic, survivors surface the typed verdict instead
        // of a generic terminal error.
        let plan = FaultPlan::new().kill_host(1, 2);
        let res = Cluster::new(3).try_run_with_faults(plan, |ctx| {
            ctx.run_recovering(partitioned_sum)
        });
        // The victim is host 1; survivors may additionally list each other
        // (whichever survivor aborts first departs too, cascading).
        for h in [0usize, 2] {
            let err = res[h].as_ref().unwrap_err();
            assert!(
                err.message.contains("membership lost") && err.message.contains('1'),
                "survivor {h} reported: {}",
                err.message
            );
        }
    }
}
