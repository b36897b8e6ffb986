//! Set-up from nothing, then the resident cluster: one `Cluster::run`
//! that serves the warm-up unit and every measured unit (and, in a traced
//! run, the per-layer probes) through `HostServer::serve_batch`.

use crate::check::{check_unit, Oracle, Verdicts};
use crate::metrics::Metrics;
use crate::probes;
use crate::sys::{self, process_cpu_ns};
use crate::trace::{Recorder, Span};
use crate::workload::{Sizes, Workload, HOSTS, MIX_BUMP_EVERY, THREADS};
use kimbap::serve::{HostServer, JobReport, JobSpec};
use kimbap_comm::{Cluster, HostCtx, HostStats, JOB_ROUND_STRIDE};
use kimbap_dist::{partition_cfg, DistGraph, PartitionCfg, Policy};
use kimbap_graph::{io, Graph};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Everything a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Which workload.
    pub w: Workload,
    /// Problem sizes.
    pub sizes: Sizes,
    /// Feeds the graph generator and the job mix.
    pub seed: u64,
    /// Measure for at least this long (and at least `sizes.min_units`).
    pub seconds: f64,
    /// Record spans and per-unit counters on every other unit, then run
    /// the per-layer probes.
    pub trace: bool,
    /// Self-test: corrupt one label before checking.
    pub corrupt: bool,
}

/// What one set-up repetition cost, stage by stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    /// Seconds in `gen`.
    pub gen_s: f64,
    /// Seconds in `write_binary` (buffered, flushed).
    pub write_s: f64,
    /// Seconds in `read_binary`.
    pub read_s: f64,
    /// Seconds in `partition_cfg` (compression included).
    pub partition_s: f64,
    /// Size of the binary graph file.
    pub file_bytes: u64,
    /// `Cluster::run` called → host 0 through its first barrier
    /// (filled in once the cluster has run).
    pub cluster_start_s: f64,
    /// Set-up began → warm-up unit done (likewise).
    pub first_result_s: f64,
}

/// The graph as a server holds it after loading.
#[derive(Debug)]
pub struct Loaded {
    /// When set-up began (before generation).
    pub begin: Instant,
    /// The re-read input graph (raw CSR; the oracles' view).
    pub g: Graph,
    /// The resident compressed partitions.
    pub parts: Vec<DistGraph>,
    /// What getting here cost.
    pub cost: SetupCost,
}

/// The partitioning `kimbap serve` uses: the one policy every algorithm
/// accepts, on the compressed tier, no hub splitting.
pub fn serve_partition(g: &Graph, compressed: bool) -> Vec<DistGraph> {
    partition_cfg(
        g,
        &PartitionCfg {
            compressed,
            ..PartitionCfg::new(Policy::EdgeCutBlocked, HOSTS)
        },
    )
}

/// Nothing → resident partitions: generate, write, re-read, compress and
/// partition, each stage a span under one `setup.load` span.
pub fn load(plan: &Plan, file: &Path, rec: &mut Recorder, rep: u64) -> std::io::Result<Loaded> {
    let begin = Instant::now();
    let all = rec.begin("setup.load", rep);
    let (g0, gen_s) = rec.time("setup.gen", rep, || plan.w.graph(&plan.sizes, plan.seed));
    let (res, write_s) = rec.time("setup.write_binary", rep, || {
        let mut out = BufWriter::new(File::create(file)?);
        io::write_binary(&g0, &mut out)?;
        out.flush()
    });
    res?;
    drop(g0);
    let (g, read_s) = rec.time("setup.read_binary", rep, || {
        io::read_binary(BufReader::new(File::open(file)?))
    });
    let g = g?;
    let (parts, partition_s) = rec.time("setup.partition", rep, || serve_partition(&g, true));
    rec.end(all);
    let cost = SetupCost {
        gen_s,
        write_s,
        read_s,
        partition_s,
        file_bytes: std::fs::metadata(file)?.len(),
        ..SetupCost::default()
    };
    Ok(Loaded {
        begin,
        g,
        parts,
        cost,
    })
}

/// One timed `serve_batch`.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Barrier to barrier on this host, seconds.
    pub wall_s: f64,
    /// Process CPU time over the same interval, seconds.
    pub cpu_s: f64,
    /// This host's counter deltas over the batch (traced units only).
    pub delta: Option<HostStats>,
    /// `HostCtx::current_round` within the last computed job's band.
    pub rounds: u64,
}

/// The counters the benchmark reads, `now - then`.
pub fn since(now: &HostStats, then: &HostStats) -> HostStats {
    HostStats {
        messages: now.messages - then.messages,
        bytes: now.bytes - then.bytes,
        comm_nanos: now.comm_nanos - then.comm_nanos,
        retransmits: now.retransmits - then.retransmits,
        request_compute_nanos: now.request_compute_nanos - then.request_compute_nanos,
        request_sync_nanos: now.request_sync_nanos - then.request_sync_nanos,
        reduce_compute_nanos: now.reduce_compute_nanos - then.reduce_compute_nanos,
        reduce_sync_nanos: now.reduce_sync_nanos - then.reduce_sync_nanos,
        active_nodes: now.active_nodes - then.active_nodes,
        parfor_nodes: now.parfor_nodes - then.parfor_nodes,
        chunks_sent: now.chunks_sent - then.chunks_sent,
        overlap_nanos: now.overlap_nanos - then.overlap_nanos,
        cache_hits: now.cache_hits - then.cache_hits,
        cache_misses: now.cache_misses - then.cache_misses,
        cache_evictions: now.cache_evictions - then.cache_evictions,
        ..HostStats::default()
    }
}

/// Times one `serve_batch` between barriers. With a recorder the unit is
/// traced: a span around the call and a counter delta, both taken inside
/// the timed interval so their cost shows in `trace.overhead_pct`.
pub fn timed_batch(
    ctx: &HostCtx,
    server: &mut HostServer,
    dg: &DistGraph,
    local: &[JobSpec],
    trace: Option<(&mut Recorder, u64)>,
) -> (Unit, Vec<JobReport>) {
    ctx.barrier();
    let (t0, c0) = (Instant::now(), process_cpu_ns());
    let (reports, delta) = match trace {
        Some((rec, unit)) => {
            let before = ctx.stats();
            let open = rec.begin("serve_batch", unit);
            let reports = server.serve_batch(ctx, dg, local);
            rec.end(open);
            (reports, Some(since(&ctx.stats(), &before)))
        }
        None => (server.serve_batch(ctx, dg, local), None),
    };
    ctx.barrier();
    let unit = Unit {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: (process_cpu_ns() - c0) as f64 / 1e9,
        delta,
        rounds: ctx.current_round() % JOB_ROUND_STRIDE,
    };
    (unit, reports)
}

/// What one host brings back from the resident run.
#[derive(Debug)]
pub struct HostOut {
    /// `Cluster::run` called → this host through its first barrier.
    pub cluster_start_s: f64,
    /// Set-up began → warm-up unit done.
    pub first_result_s: f64,
    /// The measured units, in order (empty for a set-up-only repetition).
    pub units: Vec<Unit>,
    /// Counter deltas over all measured units.
    pub totals: HostStats,
    /// This host's spans.
    pub spans: Vec<Span>,
    /// Probe results (host 0 of a traced run).
    pub layers: Metrics,
}

/// State the host threads share for the untimed check between units.
struct Shared {
    deposits: Vec<Mutex<Vec<JobReport>>>,
    /// Written by host 0.
    verdicts: Mutex<Verdicts>,
}

/// Starts the cluster over `loaded`'s partitions and serves the warm-up
/// unit. With an oracle the hosts stay resident: every unit from the
/// warm-up on is checked, units are measured until both `plan.seconds`
/// and `sizes.min_units` are met, and a traced run then probes the layers.
/// Without one this is a set-up repetition and returns after the warm-up.
pub fn serve(
    plan: &Plan,
    loaded: &Loaded,
    oracle: Option<&Oracle>,
    epoch: Instant,
    rep: u64,
) -> (Vec<HostOut>, Verdicts) {
    let w = plan.w;
    let cluster = Cluster::with_threads(HOSTS, THREADS);
    let cluster = if w.tcp() { cluster.tcp() } else { cluster };
    // Raw twin of the resident partitions, for the decode probes' baseline.
    let raw = (plan.trace && oracle.is_some()).then(|| serve_partition(&loaded.g, false));
    let shared = Shared {
        deposits: (0..HOSTS).map(|_| Mutex::new(Vec::new())).collect(),
        verdicts: Mutex::new(Verdicts::default()),
    };
    let cpus = sys::allowed_cpus();
    let called = Instant::now();
    let outs = cluster.run(|ctx| {
        let host = ctx.host();
        // A host thread that migrates drags its working set across cores;
        // one core each (main.rs checked there are enough).
        if let Err(e) = sys::pin_to_cpu(cpus[host]) {
            eprintln!("host {host} runs unpinned: {e}");
        }
        let dg = &loaded.parts[host];
        let mut rec = Recorder::new(epoch, host);
        ctx.barrier();
        let cluster_start_s = rec.record_since("setup.cluster_start", rep, called);
        let mut server = HostServer::new(w.cache_capacity());

        // Untimed: hand this unit's reports to host 0, which checks them.
        let check = |ctx: &HostCtx, reports: Vec<JobReport>| {
            let Some(oracle) = oracle else { return };
            *shared.deposits[host].lock().expect("deposit lock") = reports;
            ctx.barrier();
            if host == 0 {
                let per_host = shared
                    .deposits
                    .iter()
                    .map(|d| std::mem::take(&mut *d.lock().expect("deposit lock")))
                    .collect();
                let mut v = shared.verdicts.lock().expect("verdict lock");
                check_unit(
                    oracle,
                    &loaded.g,
                    per_host,
                    w.jobs_per_unit(),
                    plan.corrupt,
                    &mut v,
                );
            }
        };

        let warm = rec.begin("setup.warmup_unit", rep);
        let (_, reports) = timed_batch(ctx, &mut server, dg, &w.queue(0, host, plan.seed), None);
        rec.end(warm);
        let first_result_s = loaded.begin.elapsed().as_secs_f64();
        check(ctx, reports);

        let mut units = Vec::new();
        let base = ctx.stats();
        let started = Instant::now();
        while oracle.is_some() {
            let unit = units.len() as u64 + 1;
            if w == Workload::ServeMix && unit.is_multiple_of(MIX_BUMP_EVERY) {
                server.bump_epoch();
            }
            // Odd units of a traced run are traced, even ones are not, so
            // one run yields both sides of the tracing-overhead comparison.
            let trace = (plan.trace && unit % 2 == 1).then_some((&mut rec, unit));
            let (u, reports) =
                timed_batch(ctx, &mut server, dg, &w.queue(unit, host, plan.seed), trace);
            units.push(u);
            let measured_s = started.elapsed().as_secs_f64();
            check(ctx, reports);
            // Host 0's clock decides, so every host stops at the same unit.
            let more = host == 0 && (unit < plan.sizes.min_units || measured_s < plan.seconds);
            if ctx.all_reduce_u64(u64::from(more), u64::max) == 0 {
                break;
            }
        }
        let totals = since(&ctx.stats(), &base);

        let mut layers = Metrics::default();
        if let Some(raw) = &raw {
            probes::run(
                ctx,
                plan,
                loaded,
                &raw[host],
                &mut server,
                &mut rec,
                &mut layers,
            );
        }
        HostOut {
            cluster_start_s,
            first_result_s,
            units,
            totals,
            spans: rec.into_spans(),
            layers,
        }
    });
    (outs, shared.verdicts.into_inner().expect("verdict lock"))
}
