//! `kimbap serve`: multi-tenant job scheduling over resident graphs.
//!
//! A single `kimbap run` loads the graph, executes one algorithm, and
//! exits; the NPM design only pays off when many analytics queries
//! amortize one resident partitioned graph. This module turns the engine
//! into that long-lived server: each host keeps its `DistGraph` partition
//! resident in a [`HostServer`], accepts a local admission queue of
//! [`JobSpec`]s (algorithm, opaque params tag, priority, deadline), and
//! executes them under an **agreed schedule** so every host runs the same
//! jobs in the same order.
//!
//! The moving parts, in the order a batch flows through them:
//!
//! * **Admission → agreement.** Hosts submit jobs independently, so no
//!   host sees the global queue. [`HostServer::serve_batch`] starts with
//!   one all-to-all exchange of the local queues; every host then sorts
//!   the union by `(priority desc, deadline budget asc, submitter, seq)`
//!   and executes that canonical order. No coordinator, one collective.
//! * **Result cache.** Keyed by `(graph epoch, algorithm, params)` with
//!   bounded LRU capacity. Because the schedule and the cache operations
//!   are identical on every host, the per-host caches stay in lockstep —
//!   a hit on one host is a hit on all, so a cached job completes without
//!   a single collective. Hit/miss/eviction counts surface in
//!   [`kimbap_comm::HostStats`] and the tracked bench JSON.
//! * **Deadline escalation.** A job deadline is stamped into the
//!   [`HostCtx`] as a *job-scoped* deadline that clamps every collective
//!   the job runs (see [`HostCtx::set_job_deadline`]); expiry escalates
//!   through the existing timeout → crash-signal → recovery path. At the
//!   next attempt the hosts agree (min all-reduce) which job ran out of
//!   budget, mark it [`JobStatus::DeadlineMissed`], and skip it.
//! * **Recovery.** The whole batch runs inside one
//!   [`HostCtx::run_recovering`] region and the result cache doubles as
//!   the checkpoint: after a crash the schedule replays from the top and
//!   every already-completed job replays as a cache hit, so recovery cost
//!   is proportional to the interrupted job, not the whole batch.
//! * **Job-banded rounds.** Job `k` publishes BSP rounds in the band
//!   `k * JOB_ROUND_STRIDE ..`, so round-targeted fault plans and traces
//!   can address "round `r` of job `k`" across a multi-job schedule.
//!
//! The differential obligation (tested by `serve_differential.rs` and the
//! `kimbap serve-sim` fuzz loop): a batch served concurrently from many
//! hosts' queues is byte-identical, job for job, to the same jobs run
//! serially.

use crate::engine::{Engine, EngineConfig};
use kimbap_algos::louvain::CommunityResult;
use kimbap_algos::msf::MsfHostResult;
use kimbap_algos::{
    cc, leiden, louvain, mis, msf, refcheck, try_compose_labels, try_merge_master_values,
    NpmBuilder,
};
use kimbap_comm::wire::{encode_slice, try_decode_slice};
use kimbap_comm::{Cluster, Deadline, HostCtx, Wire, JOB_ROUND_STRIDE};
use kimbap_compiler::ir::Program;
use kimbap_compiler::{compile, programs, CompiledProgram, OptLevel};
use kimbap_dist::{DistGraph, Policy};
use kimbap_graph::{Graph, NodeId};
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::HashSet;
use std::sync::OnceLock;
use std::time::Duration;

/// The seven analytics algorithms, as every launcher (`kimbap run`, `sim`,
/// the TCP worker, `serve`) names them. Everything that differs per
/// algorithm — spelling, wire id, partition policy, executor, validity
/// check, summary line — is one [`AlgoRow`] of [`TABLE`]; the methods here
/// are lookups into it, so one name means one executor whichever
/// subcommand runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Connected components, Shiloach–Vishkin (compiled engine plan).
    CcSv,
    /// Connected components, label propagation (compiled engine plan; its
    /// loop is certified for the host-local fixpoint, so each host settles
    /// its own slab between exchanges).
    CcLp,
    /// Connected components, short-cutting label propagation.
    CcSclp,
    /// Maximal independent set.
    Mis,
    /// Minimum spanning forest.
    Msf,
    /// Louvain community detection.
    Louvain,
    /// Leiden community detection.
    Leiden,
}

/// One algorithm's row of [`TABLE`]: plain data and `fn` pointers.
pub struct AlgoRow {
    /// The variant this row describes (`TABLE[algo as usize].algo == algo`).
    pub algo: Algo,
    /// The CLI spelling; also part of `serve --out-dir` file names.
    pub name: &'static str,
    /// Stable wire/cache id (the 32-byte job records and cache keys).
    pub id: u64,
    /// Partition policy of single-algorithm launches (`kimbap run`, `sim`,
    /// the TCP worker). `serve` keeps one resident
    /// [`Policy::EdgeCutBlocked`] partition, which every row accepts.
    pub policy: Policy,
    /// Runs the algorithm on this host's partition and returns its
    /// partial. The `u64` is the job's round band: the compiled plan takes
    /// it as [`EngineConfig::round_base`]; the hand-written loops advance
    /// rounds relatively (`set_round(current_round() + 1)`), so the band
    /// the caller pre-stamped carries through on its own.
    pub run: fn(&DistGraph, &HostCtx, u64) -> JobOutput,
    /// Checks a merged fingerprint (see [`merge_job_outputs`]) against the
    /// single-threaded references in [`refcheck`].
    pub check: fn(&Graph, &[u64]) -> Result<(), String>,
    /// One line summarizing a merged fingerprint in the algorithm's terms.
    pub describe: fn(&Graph, &[u64]) -> String,
    /// Whether the fingerprint is unique only under distinct edge weights
    /// (a forest's edge list, under ties): `sim` draws random weights for
    /// such inputs, and diffs across partitions need a weighted graph.
    pub weighted: bool,
    /// The vertex program behind `run`, for the compiled-plan rows: what
    /// [`Algo::plan`] compiles once and the [`crate::elastic`] driver resumes.
    pub plan: Option<fn() -> Program>,
}

/// The algorithm table, in wire-id order.
pub const TABLE: [AlgoRow; 7] = [
    AlgoRow {
        algo: Algo::CcSv,
        name: "cc-sv",
        id: 0,
        policy: Policy::CartesianVertexCut,
        run: |dg, ctx, band| run_plan(Algo::CcSv, dg, ctx, band),
        check: check_components,
        describe: describe_components,
        weighted: false,
        plan: Some(programs::cc_sv),
    },
    AlgoRow {
        algo: Algo::CcLp,
        name: "cc-lp",
        id: 1,
        policy: Policy::CartesianVertexCut,
        run: |dg, ctx, band| run_plan(Algo::CcLp, dg, ctx, band),
        check: check_components,
        describe: describe_components,
        weighted: false,
        plan: Some(programs::cc_lp),
    },
    AlgoRow {
        algo: Algo::CcSclp,
        name: "cc-sclp",
        id: 2,
        policy: Policy::CartesianVertexCut,
        run: |dg, ctx, _| JobOutput::Masters(cc::cc_sclp(dg, ctx, &NpmBuilder)),
        check: check_components,
        describe: describe_components,
        weighted: false,
        plan: None,
    },
    AlgoRow {
        algo: Algo::Mis,
        name: "mis",
        id: 3,
        policy: Policy::CartesianVertexCut,
        run: |dg, ctx, _| JobOutput::MisSet(mis(dg, ctx, &NpmBuilder)),
        check: |g, set| {
            let set: Vec<bool> = set.iter().map(|&x| x == 1).collect();
            refcheck::check_mis(g, &set).map_err(|e| format!("invalid MIS: {e}"))
        },
        describe: |_, set| {
            let members = set.iter().filter(|&&x| x == 1).count();
            format!("independent set of {members} nodes")
        },
        weighted: false,
        plan: None,
    },
    AlgoRow {
        algo: Algo::Msf,
        name: "msf",
        id: 4,
        policy: Policy::CartesianVertexCut,
        run: |dg, ctx, _| JobOutput::Forest(msf(dg, ctx, &NpmBuilder)),
        check: |g, fp| {
            let want = [refcheck::msf_weight(g), refcheck::msf_edge_count(g) as u64];
            if fp.get(..2) == Some(&want[..]) {
                Ok(())
            } else {
                Err("forest weight / edge count diverge from Kruskal".into())
            }
        },
        describe: |_, fp| format!("forest: {} edges, weight {}", fp[1], fp[0]),
        weighted: true,
        plan: None,
    },
    AlgoRow {
        algo: Algo::Louvain,
        name: "louvain",
        id: 5,
        policy: Policy::EdgeCutBlocked,
        run: |dg, ctx, _| JobOutput::Communities(louvain(dg, ctx, &NpmBuilder)),
        check: check_communities,
        describe: describe_communities,
        weighted: false,
        plan: None,
    },
    AlgoRow {
        algo: Algo::Leiden,
        name: "leiden",
        id: 6,
        policy: Policy::EdgeCutBlocked,
        run: |dg, ctx, _| JobOutput::Communities(leiden(dg, ctx, &NpmBuilder)),
        check: check_communities,
        describe: describe_communities,
        weighted: false,
        plan: None,
    },
];

impl Algo {
    /// Every algorithm, in [`TABLE`] (wire-id) order.
    pub const ALL: [Algo; 7] = {
        use Algo::*;
        [CcSv, CcLp, CcSclp, Mis, Msf, Louvain, Leiden]
    };

    /// This algorithm's table row.
    pub fn row(self) -> &'static AlgoRow {
        &TABLE[self as usize]
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Algo> {
        TABLE.iter().find(|r| r.name == s).map(|r| r.algo)
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// The row's compiled plan (see [`AlgoRow::plan`]), compiled on first
    /// use; `None` for the hand-written rows.
    pub fn plan(self) -> Option<&'static CompiledProgram> {
        let program = self.row().plan?;
        Some(PLANS[self as usize].get_or_init(|| compile(&program(), OptLevel::Full)))
    }

    fn from_id(id: u64) -> Option<Algo> {
        TABLE.iter().find(|r| r.id == id).map(|r| r.algo)
    }
}

fn distinct(labels: &[u64]) -> usize {
    let mut l = labels.to_vec();
    l.sort_unstable();
    l.dedup();
    l.len()
}

fn check_components(g: &Graph, labels: &[u64]) -> Result<(), String> {
    if labels == refcheck::connected_components(g) {
        Ok(())
    } else {
        Err("labels diverge from the single-threaded reference".into())
    }
}

fn describe_components(_: &Graph, labels: &[u64]) -> String {
    format!("{} components", distinct(labels))
}

fn community_ids(labels: &[u64]) -> Vec<NodeId> {
    labels.iter().map(|&l| l as NodeId).collect()
}

fn check_communities(g: &Graph, labels: &[u64]) -> Result<(), String> {
    refcheck::check_communities(g, &community_ids(labels))
        .map_err(|e| format!("invalid communities: {e}"))
}

fn describe_communities(g: &Graph, labels: &[u64]) -> String {
    let q = refcheck::modularity(g, &community_ids(labels));
    format!("q={q:.4}, {} communities", distinct(labels))
}

/// One submitted analytics job, as it sits in a host's admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Algorithm to run.
    pub algo: Algo,
    /// Opaque client tag: part of the cache key and the agreed order, not
    /// interpreted by execution — two submissions with equal `(algo,
    /// params)` are the *same query* and share one cached result.
    pub params: u64,
    /// Higher runs earlier in the agreed schedule.
    pub priority: u8,
    /// Wall-clock budget from the moment the job starts executing; a job
    /// that exceeds it is marked [`JobStatus::DeadlineMissed`] rather
    /// than wedging the batch. `None` waits as long as it takes.
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// A plain no-priority, no-deadline submission.
    pub fn new(algo: Algo) -> JobSpec {
        JobSpec {
            algo,
            params: 0,
            priority: 0,
            deadline: None,
        }
    }

    /// The deadline in whole milliseconds (the wire/ordering granularity).
    fn deadline_ms(&self) -> Option<u64> {
        self.deadline.map(|d| d.as_millis() as u64)
    }
}

/// A job placed into the agreed schedule: the spec plus its provenance
/// (which host submitted it, at which position of that host's queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledJob {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Logical rank of the submitting host.
    pub submitter: usize,
    /// Position in the submitter's local queue.
    pub seq: usize,
}

/// One host's share of a completed job's result, in the algorithm's
/// native shape. Merging across hosts stays caller-side (via
/// [`merge_job_outputs`]) so the cache stores exactly what a fresh run
/// produces — identical partials merge to identical outputs.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// Per-master `u64` values (the cc family).
    Masters(Vec<(NodeId, u64)>),
    /// Per-master set membership (MIS).
    MisSet(Vec<(NodeId, bool)>),
    /// This host's forest edges (MSF).
    Forest(MsfHostResult),
    /// This host's community mappings (Louvain/Leiden).
    Communities(CommunityResult),
}

/// How one scheduled job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The job produced its output — freshly computed or served from the
    /// result cache.
    Completed {
        /// True when the output came from the result cache.
        cached: bool,
    },
    /// The job's deadline expired before it completed; the schedule
    /// agreed to skip it and moved on.
    DeadlineMissed,
}

impl JobStatus {
    /// True for a completed job answered from the result cache.
    pub fn is_cached(self) -> bool {
        matches!(self, JobStatus::Completed { cached: true })
    }
}

/// One host's record of one scheduled job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// The job, in agreed-schedule position.
    pub job: ScheduledJob,
    /// How it ended.
    pub status: JobStatus,
    /// This host's output partial (`None` iff the deadline was missed).
    pub output: Option<JobOutput>,
}

/// Result-cache key: `(graph epoch, algorithm, params)`. The epoch is
/// part of the key so bumping it (a graph swap) makes every older entry
/// unreachable — stale results are structurally impossible to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    epoch: u64,
    algo: Algo,
    params: u64,
}

/// Bounded LRU result cache. A `Vec` in recency order (most recent last)
/// keeps iteration — and therefore eviction — deterministic, which the
/// lockstep-cache invariant of [`HostServer::serve_batch`] relies on;
/// serve capacities are small enough that the linear scan is noise next
/// to running an algorithm.
struct ResultCache {
    capacity: usize,
    entries: Vec<(CacheKey, Cached)>,
}

/// One cached output. Per-master labels over a contiguous run of keys —
/// every cc-* partial on a blocked partition — keep one `(label, count)`
/// per run of equal labels instead of a 16-byte `(key, value)` pair per
/// master: a component's members sit in long runs of one label (a
/// 120x120 grid's partial is one run, an R-MAT(15, 16) partial about 0.37
/// runs per master), so the entries that dominate a cache of label jobs
/// shrink.
#[derive(Debug)]
enum Cached {
    /// `JobOutput::Masters` with keys `first, first + 1, ...` and values
    /// run-length encoded.
    Run { first: NodeId, runs: Vec<(u64, u32)> },
    /// Any other output, as produced.
    Output(JobOutput),
}

impl Cached {
    fn of(out: &JobOutput) -> Cached {
        match out {
            JobOutput::Masters(pairs)
                if pairs.iter().zip(pairs.first().map_or(0, |p| p.0)..).all(|(p, k)| p.0 == k) =>
            {
                // Sized exactly: cache entries live long, and growth would
                // leave freed steps behind.
                let changes = pairs.windows(2).filter(|w| w[0].1 != w[1].1).count();
                let mut runs: Vec<(u64, u32)> = Vec::with_capacity(changes + 1);
                for &(_, v) in pairs {
                    match runs.last_mut() {
                        Some((label, n)) if *label == v => *n += 1,
                        _ => runs.push((v, 1)),
                    }
                }
                Cached::Run {
                    first: pairs.first().map_or(0, |p| p.0),
                    runs,
                }
            }
            out => Cached::Output(out.clone()),
        }
    }

    fn output(&self) -> JobOutput {
        match self {
            Cached::Run { first, runs } => {
                let mut pairs = Vec::with_capacity(runs.iter().map(|&(_, n)| n as usize).sum());
                let vals = runs.iter().flat_map(|&(v, n)| std::iter::repeat_n(v, n as usize));
                pairs.extend((*first..).zip(vals));
                JobOutput::Masters(pairs)
            }
            Cached::Output(out) => out.clone(),
        }
    }
}

impl ResultCache {
    fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
        }
    }

    /// Looks `key` up, refreshing its recency on a hit.
    fn get(&mut self, key: &CacheKey) -> Option<JobOutput> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        let e = self.entries.remove(i);
        let out = e.1.output();
        self.entries.push(e);
        Some(out)
    }

    /// Inserts (or refreshes) `key`, returning how many entries were
    /// evicted to make room.
    fn insert(&mut self, key: CacheKey, out: &JobOutput) -> u64 {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(i);
        }
        self.entries.push((key, Cached::of(out)));
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            self.entries.remove(0);
            evicted += 1;
        }
        evicted
    }

    /// Drops every entry older than `epoch`, returning the count.
    fn purge_epochs_before(&mut self, epoch: u64) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|(k, _)| k.epoch >= epoch);
        (before - self.entries.len()) as u64
    }
}

/// One host's long-lived serving state: the result cache and the graph
/// epoch. Lives across batches (and across graph swaps) on the host's
/// side of the cluster closure; the resident `DistGraph` itself is passed
/// into [`HostServer::serve_batch`] by reference so the caller controls
/// its lifetime.
pub struct HostServer {
    cache: ResultCache,
    epoch: u64,
}

impl HostServer {
    /// A fresh server at epoch 0 with a result cache bounded to
    /// `cache_capacity` entries (minimum 1).
    pub fn new(cache_capacity: usize) -> HostServer {
        HostServer {
            cache: ResultCache::new(cache_capacity),
            epoch: 0,
        }
    }

    /// The current graph epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the graph epoch — the caller does this exactly when it
    /// swaps in a new resident graph. Every cache entry keyed to an older
    /// epoch becomes unreachable immediately (and is purged, counted as
    /// evictions, at the start of the next batch). All hosts must bump in
    /// lockstep, like every other serve-side operation.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Serves one batch of jobs over the resident partition `dg`.
    ///
    /// Collective: every host calls this with its own `local` admission
    /// queue, the schedules are agreed via one all-to-all exchange, and
    /// every host returns reports in the same agreed order with the same
    /// statuses. Faults (and deadline misses) recover inside this call;
    /// it panics out only on a permanent kill or an exhausted recovery
    /// budget, like any [`HostCtx::run_recovering`] region.
    pub fn serve_batch(
        &mut self,
        ctx: &HostCtx,
        dg: &DistGraph,
        local: &[JobSpec],
    ) -> Vec<JobReport> {
        let epoch = self.epoch;
        let cache = &mut self.cache;
        // An epoch bump since the last batch leaves stale entries behind;
        // purge them up front and count them as evictions.
        let purged = cache.purge_epochs_before(epoch);
        ctx.add_cache_events(0, 0, purged);
        // Jobs (by schedule index) whose deadline the hosts agreed was
        // missed, and the job the current attempt is executing. Both live
        // outside the recovery closure so state survives replays.
        let missed: RefCell<HashSet<usize>> = RefCell::new(HashSet::new());
        let in_flight: Cell<Option<(usize, Deadline)>> = Cell::new(None);
        ctx.run_recovering(|ctx| {
            // A replayed attempt may still carry the aborted job's
            // deadline — job-scoped or the ambient one an engine phase
            // stamped before dying; clear both before the first collective.
            ctx.set_job_deadline(None);
            ctx.set_deadline(Deadline::none());
            // Deadline escalation: if the previous attempt aborted inside
            // a job whose budget has run out, agree (min all-reduce — any
            // single expired host suffices) to mark it missed and skip it
            // on this and every later attempt.
            let candidate = match in_flight.take() {
                Some((k, dl)) if dl.expired() => k as u64,
                _ => u64::MAX,
            };
            let expired = ctx.all_reduce_u64(candidate, u64::min);
            if expired != u64::MAX {
                missed.borrow_mut().insert(expired as usize);
            }
            let schedule = agree_schedule(ctx, local);
            let mut reports = Vec::with_capacity(schedule.len());
            for (k, job) in schedule.into_iter().enumerate() {
                if missed.borrow().contains(&k) {
                    reports.push(JobReport {
                        job,
                        status: JobStatus::DeadlineMissed,
                        output: None,
                    });
                    continue;
                }
                let key = CacheKey {
                    epoch,
                    algo: job.spec.algo,
                    params: job.spec.params,
                };
                if let Some(out) = cache.get(&key) {
                    // Lockstep caches: every host hits together, so a
                    // cached job involves no collective at all. This is
                    // also what makes the cache a free checkpoint — on a
                    // replay, completed jobs take this path.
                    ctx.add_cache_events(1, 0, 0);
                    reports.push(JobReport {
                        job,
                        status: JobStatus::Completed { cached: true },
                        output: Some(out),
                    });
                    continue;
                }
                ctx.add_cache_events(0, 1, 0);
                // Band the job's rounds so fault plans and traces can
                // address "round r of job k".
                let band = k as u64 * JOB_ROUND_STRIDE;
                ctx.set_round(band);
                let dl = job
                    .spec
                    .deadline
                    .map(|budget| Deadline::after("job", budget));
                in_flight.set(Some((k, dl.unwrap_or_else(Deadline::none))));
                ctx.set_job_deadline(dl);
                let out = (job.spec.algo.row().run)(dg, ctx, band);
                ctx.set_job_deadline(None);
                in_flight.set(None);
                let evicted = cache.insert(key, &out);
                ctx.add_cache_events(0, 0, evicted);
                reports.push(JobReport {
                    job,
                    status: JobStatus::Completed { cached: false },
                    output: Some(out),
                });
            }
            reports
        })
    }
}

/// Agrees the batch schedule: one all-to-all exchange of the hosts' local
/// queues, then a canonical sort every host computes identically —
/// priority first (descending), then deadline budget (tightest first,
/// `None` last), then submitter rank and queue position as the total
/// tiebreak.
fn agree_schedule(ctx: &HostCtx, local: &[JobSpec]) -> Vec<ScheduledJob> {
    let me = ctx.host();
    let hosts = ctx.num_hosts();
    let mine = encode_jobs(local);
    let outgoing = (0..hosts)
        .map(|h| if h == me { Vec::new() } else { mine.clone() })
        .collect();
    let incoming = ctx.exchange(outgoing);
    let mut all = Vec::new();
    for (h, buf) in incoming.iter().enumerate() {
        let specs = if h == me {
            local.to_vec()
        } else {
            decode_jobs(buf)
                .unwrap_or_else(|e| ctx.protocol_violation(format!("job queue from host {h}: {e}")))
        };
        for (seq, spec) in specs.into_iter().enumerate() {
            all.push(ScheduledJob {
                spec,
                submitter: h,
                seq,
            });
        }
    }
    all.sort_by_key(|j| {
        (
            Reverse(j.spec.priority),
            j.spec.deadline_ms().unwrap_or(u64::MAX),
            j.submitter,
            j.seq,
        )
    });
    all
}

/// Fixed-size wire records for the admission exchange: four `u64` words
/// per job.
fn encode_jobs(jobs: &[JobSpec]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(jobs.len() * 32);
    for j in jobs {
        for w in [
            j.algo.row().id,
            u64::from(j.priority),
            j.params,
            j.deadline_ms().unwrap_or(u64::MAX),
        ] {
            buf.extend_from_slice(&w.to_le_bytes());
        }
    }
    buf
}

/// Decodes a peer's queue payload. CRC framing below already guards the
/// bytes, so a malformed payload is a peer's protocol bug; the caller
/// escalates the `Err` through [`HostCtx::protocol_violation`].
fn decode_jobs(buf: &[u8]) -> Result<Vec<JobSpec>, String> {
    if !buf.len().is_multiple_of(32) {
        return Err(format!(
            "{} bytes is not whole 32-byte job records",
            buf.len()
        ));
    }
    buf.chunks_exact(32)
        .map(|c| {
            let w = |i: usize| u64::from_le_bytes(c[i * 8..(i + 1) * 8].try_into().unwrap());
            Ok(JobSpec {
                algo: Algo::from_id(w(0)).ok_or_else(|| format!("unknown algo id {}", w(0)))?,
                priority: w(1) as u8,
                params: w(2),
                deadline: match w(3) {
                    u64::MAX => None,
                    ms => Some(Duration::from_millis(ms)),
                },
            })
        })
        .collect()
}

/// Gathers one job's per-host outputs on logical rank 0, which merges
/// them with [`merge_job_outputs`]: one exchange in which only rank 0's
/// inbox is non-empty. Returns the fingerprint on rank 0, `None`
/// elsewhere. Collective. A peer payload that does not decode, or whose
/// shape differs from rank 0's own output, is a protocol violation.
pub fn gather_job_outputs(ctx: &HostCtx, algo: Algo, n: usize, out: JobOutput) -> Option<Vec<u64>> {
    let mut outgoing = vec![Vec::new(); ctx.num_hosts()];
    if ctx.host() != 0 {
        outgoing[0] = encode_output(&out);
    }
    let incoming = ctx.exchange(outgoing);
    if ctx.host() != 0 {
        return None;
    }
    let tag = out.tag();
    let peers = incoming.iter().enumerate().skip(1).map(|(h, buf)| {
        decode_output(buf, tag)
            .unwrap_or_else(|e| ctx.protocol_violation(format!("job output from host {h}: {e}")))
    });
    let merged = try_merge_job_outputs(n, std::iter::once(out).chain(peers).collect());
    Some(merged.unwrap_or_else(|e| ctx.protocol_violation(format!("{} outputs: {e}", algo.name()))))
}

impl JobOutput {
    /// The shape's wire tag.
    fn tag(&self) -> u8 {
        match self {
            JobOutput::Masters(_) => 0,
            JobOutput::MisSet(_) => 1,
            JobOutput::Forest(_) => 2,
            JobOutput::Communities(_) => 3,
        }
    }
}

/// Encodes a job output for [`gather_job_outputs`]: the shape's tag, then
/// [`encode_slice`] sections, each after its `u64` item count — one, or a
/// level count and one per level of a community result. Only what
/// [`merge_job_outputs`] reads travels: not a community result's summary.
fn encode_output(out: &JobOutput) -> Vec<u8> {
    fn section<T: Wire>(buf: &mut Vec<u8>, items: &[T]) {
        (items.len() as u64).write(buf);
        buf.extend_from_slice(&encode_slice(items));
    }
    let mut buf = vec![out.tag()];
    match out {
        JobOutput::Masters(v) => section(&mut buf, v),
        JobOutput::MisSet(v) => section(&mut buf, v),
        JobOutput::Forest(f) => section(&mut buf, &f.edges),
        JobOutput::Communities(c) => {
            (c.mappings.len() as u64).write(&mut buf);
            c.mappings.iter().for_each(|m| section(&mut buf, m));
        }
    }
    buf
}

/// Decodes [`encode_output`]'s bytes, which must carry shape `want` (what
/// does not travel comes back empty or zero). A truncated payload,
/// trailing bytes, an unknown tag or another shape is an `Err`.
fn decode_output(buf: &[u8], want: u8) -> Result<JobOutput, String> {
    fn count(rest: &mut &[u8]) -> Result<u64, String> {
        let n = u64::try_read(rest).map_err(|e| format!("a count: {e}"))?;
        *rest = &rest[u64::SIZE..];
        Ok(n)
    }
    fn section<T: Wire>(rest: &mut &[u8]) -> Result<Vec<T>, String> {
        let len = count(rest)?;
        let bytes = usize::try_from(len)
            .ok()
            .and_then(|l| l.checked_mul(T::SIZE))
            .filter(|&b| b <= rest.len())
            .ok_or_else(|| format!("a section of {len} items cut short"))?;
        let (body, tail) = rest.split_at(bytes);
        *rest = tail;
        try_decode_slice(body).map_err(|e| e.to_string())
    }
    let (&tag, mut rest) = buf.split_first().ok_or("an empty payload")?;
    let rest = &mut rest;
    let out = match tag {
        t if t > 3 => return Err(format!("unknown output tag {t}")),
        t if t != want => return Err(format!("an output of shape {t}, not {want}")),
        0 => JobOutput::Masters(section(rest)?),
        1 => JobOutput::MisSet(section(rest)?),
        2 => JobOutput::Forest(MsfHostResult {
            edges: section(rest)?,
        }),
        _ => {
            let levels = count(rest)?;
            let mappings = (0..levels).map(|_| section(rest)).collect::<Result<Vec<_>, _>>()?;
            JobOutput::Communities(CommunityResult {
                levels: mappings.len(),
                mappings,
                modularity: 0.0,
                final_nodes: 0,
            })
        }
    };
    match rest.len() {
        0 => Ok(out),
        extra => Err(format!("{extra} trailing bytes")),
    }
}

/// The compiled plans of the rows that run one, by wire id: each compiled
/// once per process and shared by every job that requests it.
static PLANS: [OnceLock<CompiledProgram>; TABLE.len()] = [const { OnceLock::new() }; TABLE.len()];

/// Runs `algo`'s compiled plan as one job in round band `band`; the first
/// map's masters are the partial.
fn run_plan(algo: Algo, dg: &DistGraph, ctx: &HostCtx, band: u64) -> JobOutput {
    let plan = algo.plan().expect("only plan rows run a plan");
    let cfg = EngineConfig {
        round_base: band,
        ..EngineConfig::default()
    };
    let out = Engine::with_config(dg, ctx, plan, cfg).run(ctx);
    JobOutput::Masters(out.map_values.into_iter().next().unwrap_or_default())
}

/// Merges one job's per-host output partials into the canonical `u64`
/// fingerprint the CLI writes and the differential suites diff: labels
/// for the cc family and Louvain/Leiden, 0/1 membership for MIS, and
/// `[total weight, edge count, (u, v, w)...]` with sorted edges for MSF.
/// `n` is the graph's node count.
/// Panics on partials no correct run produces.
pub fn merge_job_outputs(algo: Algo, n: usize, outs: Vec<JobOutput>) -> Vec<u64> {
    try_merge_job_outputs(n, outs).unwrap_or_else(|e| panic!("{} job produced {e}", algo.name()))
}

/// [`merge_job_outputs`] for partials peers sent: mixed shapes, a node
/// `>= n`, a master reported by zero or two hosts, or a community mapping
/// that misses a live node is an `Err`.
fn try_merge_job_outputs(n: usize, outs: Vec<JobOutput>) -> Result<Vec<u64>, String> {
    // Dispatch on the partials' shape, not on the algorithm: sort them by
    // shape, then merge the one shape every host must have produced.
    let hosts = outs.len();
    let (mut masters, mut sets, mut forests, mut comms) = (vec![], vec![], vec![], vec![]);
    for o in outs {
        match o {
            JobOutput::Masters(v) => masters.push(v),
            JobOutput::MisSet(v) => sets.push(v),
            JobOutput::Forest(f) => forests.push(f),
            JobOutput::Communities(c) => comms.push(c),
        }
    }
    if ![masters.len(), sets.len(), forests.len(), comms.len()].contains(&hosts) {
        return Err("partials of mixed shapes".into());
    }
    Ok(if !sets.is_empty() {
        try_merge_master_values(n, sets)?.into_iter().map(u64::from).collect()
    } else if !forests.is_empty() {
        let (edges, total) = msf::merge_forest(forests);
        let mut fp = vec![total, edges.len() as u64];
        for (u, v, w) in edges {
            if u.max(v) as usize >= n {
                return Err(format!("forest edge ({u}, {v}) out of range for {n} nodes"));
            }
            fp.extend([u as u64, v as u64, w]);
        }
        fp
    } else if !comms.is_empty() {
        try_compose_labels(n, &comms)?.into_iter().map(u64::from).collect()
    } else {
        try_merge_master_values(n, masters)?
    })
}

/// The serial baseline the differential suites compare against: one
/// algorithm run alone on `cluster` (the `kimbap run` execution path,
/// minus the CLI), canonicalized with [`merge_job_outputs`]. Uses the
/// same per-host partitions the server holds resident, so
/// partition-dependent outputs (Louvain's merge order) are comparable.
pub fn serial_reference(n: usize, parts: &[DistGraph], cluster: &Cluster, algo: Algo) -> Vec<u64> {
    let outs = cluster.run(|ctx| {
        ctx.run_recovering(|ctx| (algo.row().run)(&parts[ctx.host()], ctx, 0))
    });
    merge_job_outputs(algo, n, outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kimbap_dist::partition;
    use kimbap_graph::gen;

    fn key(params: u64) -> CacheKey {
        CacheKey {
            epoch: 0,
            algo: Algo::CcLp,
            params,
        }
    }

    fn out(v: u64) -> JobOutput {
        JobOutput::Masters(vec![(0, v)])
    }

    #[test]
    fn cache_is_lru_and_bounded() {
        let mut c = ResultCache::new(2);
        assert_eq!(c.insert(key(1), &out(1)), 0);
        assert_eq!(c.insert(key(2), &out(2)), 0);
        // Touch 1 so 2 becomes the eviction victim.
        assert_eq!(c.get(&key(1)), Some(out(1)));
        assert_eq!(c.insert(key(3), &out(3)), 1);
        assert_eq!(c.get(&key(2)), None, "LRU victim must be gone");
        assert_eq!(c.get(&key(1)), Some(out(1)));
        assert_eq!(c.get(&key(3)), Some(out(3)));
        assert_eq!(c.entries.len(), 2);
    }

    #[test]
    fn cached_outputs_come_back_unchanged() {
        let run = JobOutput::Masters((40..1040).map(|k| (k, u64::from(k) * 3)).collect());
        let labels = JobOutput::Masters((7..507).map(|k| (k, u64::from(k / 100 % 2))).collect());
        let gappy = JobOutput::Masters(vec![(4, 1), (5, 1), (9, 2)]);
        let set = JobOutput::MisSet(vec![(0, true), (1, false)]);
        assert!(matches!(Cached::of(&run), Cached::Run { first: 40, .. }));
        assert!(matches!(&Cached::of(&labels), Cached::Run { runs, .. } if runs.len() == 6));
        assert!(matches!(Cached::of(&gappy), Cached::Output(_)));
        let mut c = ResultCache::new(8);
        let none = JobOutput::Masters(Vec::new());
        for (p, o) in [&run, &labels, &gappy, &set, &none].into_iter().enumerate() {
            c.insert(key(p as u64), o);
            assert_eq!(c.get(&key(p as u64)).as_ref(), Some(o));
        }
    }

    #[test]
    fn cache_purges_stale_epochs() {
        let mut c = ResultCache::new(8);
        c.insert(key(1), &out(1));
        c.insert(
            CacheKey {
                epoch: 1,
                algo: Algo::CcLp,
                params: 1,
            },
            &out(9),
        );
        assert_eq!(c.purge_epochs_before(1), 1);
        assert_eq!(c.get(&key(1)), None, "epoch-0 entry must be purged");
        assert_eq!(c.entries.len(), 1);
    }

    #[test]
    fn job_wire_roundtrip() {
        let jobs = vec![
            JobSpec {
                algo: Algo::Louvain,
                params: 7,
                priority: 3,
                deadline: Some(Duration::from_millis(250)),
            },
            JobSpec::new(Algo::CcSv),
            JobSpec {
                algo: Algo::Msf,
                params: u64::MAX,
                priority: 255,
                deadline: None,
            },
        ];
        assert_eq!(decode_jobs(&encode_jobs(&jobs)), Ok(jobs));
        assert_eq!(decode_jobs(&[]), Ok(vec![]));
    }

    #[test]
    fn table_is_pinned() {
        // Wire ids and names are persistent (cache keys, 32-byte job
        // records, `serve --out-dir` file names): ALL, TABLE and the enum
        // discriminants all follow wire-id order 0..=6.
        for (i, algo) in Algo::ALL.into_iter().enumerate() {
            let row = algo.row();
            assert_eq!((row.algo, row.id, algo as usize), (algo, i as u64, i));
            assert_eq!(Algo::parse(algo.name()), Some(algo));
            assert_eq!(Algo::from_id(row.id), Some(algo));
        }
        let names = Algo::ALL.map(Algo::name);
        assert_eq!(names, ["cc-sv", "cc-lp", "cc-sclp", "mis", "msf", "louvain", "leiden"]);
        assert_eq!(Algo::from_id(7), None);
        assert_eq!(Algo::parse("cc"), None);
    }

    #[test]
    fn malformed_job_payloads_are_typed_errors() {
        let err = decode_jobs(&[0u8; 31]).unwrap_err();
        assert!(err.contains("31 bytes"), "{err}");
        let mut record = encode_jobs(&[JobSpec::new(Algo::Leiden)]);
        record[0] = 7;
        let err = decode_jobs(&record).unwrap_err();
        assert!(err.contains("unknown algo id 7"), "{err}");
    }

    #[test]
    fn malformed_peer_queue_is_a_protocol_violation() {
        let res = Cluster::new(2).try_run(|ctx| {
            if ctx.host() == 0 {
                agree_schedule(ctx, &[JobSpec::new(Algo::CcLp)]);
            } else {
                // A peer whose queue payload is one byte short of a record
                // (it may then see host 0 fail, or not: it is not judged).
                let _ = ctx.try_exchange(vec![vec![0u8; 31]; 2]);
            }
        });
        let err = res[0].as_ref().unwrap_err();
        assert!(
            err.message.contains("protocol violation") && err.message.contains("31 bytes"),
            "host 0 reported: {}",
            err.message
        );
    }

    #[test]
    fn every_row_passes_its_check_and_the_references() {
        // Each row, on a power-law and a high-diameter input, on the
        // in-proc and the simulation backend: the row's own structural
        // check must pass, and so must the reference it stands for, spelled
        // out here independently of the table.
        let rmat = gen::with_random_weights(&gen::rmat(6, 4, 11), 1 << 16, 5);
        for g in [rmat, gen::grid_road(7, 9, 3)] {
            let n = g.num_nodes();
            for row in &TABLE {
                let parts = partition(&g, row.policy, 3);
                let clusters = [Cluster::with_threads(3, 1), Cluster::with_threads(3, 1).sim(7)];
                for cluster in &clusters {
                    let fp = serial_reference(n, &parts, cluster, row.algo);
                    assert_eq!((row.check)(&g, &fp), Ok(()), "{}", row.name);
                    assert!(!(row.describe)(&g, &fp).is_empty());
                    use Algo::*;
                    match row.algo {
                        CcSv | CcLp | CcSclp => {
                            assert_eq!(fp, refcheck::connected_components(&g), "{}", row.name)
                        }
                        Mis => {
                            let set: Vec<bool> = fp.iter().map(|&x| x == 1).collect();
                            refcheck::check_mis(&g, &set).unwrap();
                        }
                        Msf => {
                            assert_eq!(fp[0], refcheck::msf_weight(&g));
                            assert_eq!(fp[1], refcheck::msf_edge_count(&g) as u64);
                            assert_eq!(fp.len(), 2 + 3 * fp[1] as usize);
                        }
                        Louvain | Leiden => {
                            let labels: Vec<NodeId> = fp.iter().map(|&l| l as NodeId).collect();
                            refcheck::check_communities(&g, &labels).unwrap();
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn checks_reject_wrong_fingerprints() {
        let g = gen::grid_road(4, 4, 1);
        // No component, set, forest or community is labelled past `n`.
        let wrong = vec![g.num_nodes() as u64 + 5; g.num_nodes()];
        for row in &TABLE {
            assert!((row.check)(&g, &wrong).is_err(), "{}", row.name);
        }
    }

    #[test]
    fn merge_dispatches_on_shape_and_rejects_a_mix() {
        let masters = |v: u64| JobOutput::Masters(vec![(v as NodeId, v)]);
        let merged = merge_job_outputs(Algo::CcLp, 2, vec![masters(0), masters(1)]);
        assert_eq!(merged, vec![0, 1]);
        let sets = vec![JobOutput::MisSet(vec![(0, true)]), JobOutput::MisSet(vec![(1, false)])];
        assert_eq!(merge_job_outputs(Algo::Mis, 2, sets), vec![1, 0]);
        let mixed = vec![masters(0), JobOutput::MisSet(vec![(1, true)])];
        let res = std::panic::catch_unwind(|| merge_job_outputs(Algo::CcLp, 2, mixed));
        assert!(res.is_err(), "mixed shapes must not merge");
    }

    /// One of each output shape, as the gather would carry it (the fields
    /// that do not travel already at their decoded defaults).
    fn one_of_each_shape() -> [JobOutput; 4] {
        [
            JobOutput::Masters(vec![(3, 7), (4, u64::MAX)]),
            JobOutput::MisSet(vec![(0, true), (9, false)]),
            JobOutput::Forest(MsfHostResult {
                edges: vec![(1, 2, 30), (2, 5, 1)],
            }),
            JobOutput::Communities(CommunityResult {
                mappings: vec![vec![(0, 1), (1, 1)], vec![], vec![(1, 0)]],
                modularity: 0.0,
                levels: 3,
                final_nodes: 0,
            }),
        ]
    }

    #[test]
    fn job_outputs_round_trip_and_malformed_ones_are_typed_errors() {
        for out in one_of_each_shape() {
            let buf = encode_output(&out);
            assert_eq!(decode_output(&buf, out.tag()), Ok(out.clone()));
            // Every cut of the payload is an error, never a panic.
            for len in 0..buf.len() {
                assert!(decode_output(&buf[..len], out.tag()).is_err(), "{out:?} cut at {len}");
            }
            let mut long = buf.clone();
            long.push(0);
            assert!(decode_output(&long, out.tag()).is_err(), "{out:?} with a trailing byte");
            let other = (out.tag() + 1) % 4;
            let err = decode_output(&buf, other).unwrap_err();
            assert_eq!(err, format!("an output of shape {}, not {other}", out.tag()));
        }
        // Only what the merge reads travels.
        let communities = JobOutput::Communities(CommunityResult {
            mappings: vec![vec![(0, 0)]],
            modularity: 0.5,
            levels: 1,
            final_nodes: 1,
        });
        assert!(matches!(
            decode_output(&encode_output(&communities), 3),
            Ok(JobOutput::Communities(c)) if c.mappings == [[(0, 0)]] && c.final_nodes == 0
        ));
        let err = decode_output(&[4, 0, 0, 0, 0, 0, 0, 0, 0], 0).unwrap_err();
        assert!(err.contains("unknown output tag 4"), "{err}");
        let mut masters = encode_output(&JobOutput::Masters(vec![(1, 2)]));
        masters.extend_from_slice(&[0; 12]);
        assert_eq!(decode_output(&masters, 0), Err("12 trailing bytes".to_string()));
        // A length prefix far past the payload is cut short, not allocated.
        let mut huge = vec![0u8];
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_output(&huge, 0).unwrap_err();
        assert!(err.contains("cut short"), "{err}");
        // Well-formed payloads whose contents cannot merge are errors too.
        let masters = |v: Vec<(NodeId, u64)>| JobOutput::Masters(v);
        let forest = |edges| JobOutput::Forest(MsfHostResult { edges });
        let comm = |mappings| {
            JobOutput::Communities(CommunityResult {
                mappings,
                ..CommunityResult::default()
            })
        };
        for (outs, want) in [
            (
                vec![masters(vec![(0, 1), (1, 1)]), masters(vec![(9, 1)])],
                "node 9 out of range for 2 nodes",
            ),
            (
                vec![
                    JobOutput::MisSet(vec![(0, true), (1, true)]),
                    JobOutput::MisSet(vec![(1, false)]),
                ],
                "node 1 reported by two hosts",
            ),
            (vec![masters(vec![(1, 1)]), masters(vec![])], "node 0 reported by no host"),
            (
                vec![forest(vec![(0, 1, 3)]), forest(vec![(1, 2, 3)])],
                "forest edge (1, 2) out of range for 2 nodes",
            ),
            (
                vec![comm(vec![vec![(0, 0)]]), comm(vec![vec![(1, 1)], vec![(0, 7)]])],
                "level 1's mapping misses live node 1",
            ),
        ] {
            let outs = outs.iter().map(|o| decode_output(&encode_output(o), o.tag()).unwrap());
            assert_eq!(try_merge_job_outputs(2, outs.collect()), Err(want.to_string()));
        }
    }

    #[test]
    fn gathered_outputs_merge_on_rank_zero_and_a_foreign_shape_is_a_protocol_violation() {
        let n = 4;
        let fps = Cluster::new(2).run(|ctx| {
            let mine = (ctx.host() as NodeId * 2..ctx.host() as NodeId * 2 + 2).map(|k| (k, 5));
            gather_job_outputs(ctx, Algo::CcLp, n, JobOutput::Masters(mine.collect()))
        });
        assert_eq!(fps, vec![Some(vec![5; 4]), None]);
        let res = Cluster::new(2).try_run(|ctx| {
            let out = match ctx.host() {
                0 => JobOutput::Masters(vec![(0, 1), (1, 1)]),
                _ => JobOutput::MisSet(vec![(2, true), (3, false)]),
            };
            gather_job_outputs(ctx, Algo::CcLp, n, out)
        });
        let err = res[0].as_ref().unwrap_err();
        assert!(
            err.message.contains("protocol violation")
                && err.message.contains("an output of shape 1, not 0"),
            "host 0 reported: {}",
            err.message
        );
        // A well-formed payload with a key past the graph is one too.
        let res = Cluster::new(2).try_run(|ctx| {
            let out = JobOutput::Masters(vec![(ctx.host() as NodeId * n as NodeId, 1)]);
            gather_job_outputs(ctx, Algo::CcLp, n, out)
        });
        let err = res[0].as_ref().unwrap_err();
        assert!(
            err.message.contains("protocol violation")
                && err.message.contains("node 4 out of range for 4 nodes"),
            "host 0 reported: {}",
            err.message
        );
    }

    #[test]
    fn schedule_order_is_priority_deadline_then_provenance() {
        // Single host: agreement degenerates to the canonical sort.
        let jobs = vec![
            JobSpec::new(Algo::CcLp),
            JobSpec {
                algo: Algo::Mis,
                params: 0,
                priority: 2,
                deadline: Some(Duration::from_millis(500)),
            },
            JobSpec {
                algo: Algo::Msf,
                params: 0,
                priority: 2,
                deadline: Some(Duration::from_millis(100)),
            },
            JobSpec {
                algo: Algo::Louvain,
                params: 0,
                priority: 2,
                deadline: None,
            },
        ];
        let orders = Cluster::new(1).run(|ctx| agree_schedule(ctx, &jobs));
        let algos: Vec<Algo> = orders[0].iter().map(|j| j.spec.algo).collect();
        // Priority 2 first — tightest deadline leading, deadline-less
        // last — then the priority-0 submission.
        assert_eq!(algos, vec![Algo::Msf, Algo::Mis, Algo::Louvain, Algo::CcLp]);
        assert!(orders[0].iter().all(|j| j.submitter == 0));
        assert_eq!(orders[0][0].seq, 2);
    }

    #[test]
    fn schedules_agree_across_hosts() {
        // Three hosts with different local queues must compute identical
        // schedules, interleaved by priority before provenance.
        let queues = vec![
            vec![JobSpec::new(Algo::CcLp)],
            vec![JobSpec {
                algo: Algo::Mis,
                params: 4,
                priority: 9,
                deadline: None,
            }],
            vec![JobSpec::new(Algo::CcSv), JobSpec::new(Algo::Louvain)],
        ];
        let q = &queues;
        let schedules = Cluster::new(3).run(|ctx| agree_schedule(ctx, &q[ctx.host()]));
        assert_eq!(schedules[0], schedules[1]);
        assert_eq!(schedules[1], schedules[2]);
        assert_eq!(schedules[0].len(), 4);
        assert_eq!(schedules[0][0].spec.algo, Algo::Mis, "priority 9 first");
        assert_eq!(schedules[0][0].submitter, 1);
    }
}
