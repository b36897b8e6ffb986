//! Timing and reporting helpers for the figure/table benches.

use kimbap_comm::{Cluster, HostCtx};
use kimbap_dist::DistGraph;
use std::time::Instant;

/// One measured run: wall-clock split into computation and communication
/// (the stacked bars of Figs. 11 and 12), plus traffic counters and the
/// per-phase breakdown engines report through `HostCtx::add_phase_nanos`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Total wall-clock seconds (max over hosts, measured inside the SPMD
    /// closure — cluster spawn/teardown is excluded).
    pub secs: f64,
    /// Seconds inside communication calls (max over hosts).
    pub comm_secs: f64,
    /// Messages sent between hosts (sum).
    pub messages: u64,
    /// Payload bytes sent between hosts (sum).
    pub bytes: u64,
    /// Frames re-sent after loss or corruption (sum over hosts; zero in
    /// fault-free runs).
    pub retransmits: u64,
    /// Received frames rejected by length/CRC validation (sum over hosts).
    pub crc_rejects: u64,
    /// Collectives aborted on heartbeat suspicion (sum over hosts).
    pub heartbeat_suspicions: u64,
    /// Collectives aborted on a phase deadline (sum over hosts).
    pub timeout_aborts: u64,
    /// Membership generations agreed past permanent host loss (max over
    /// hosts: every survivor of the same shrink counts it once).
    pub membership_changes: u64,
    /// BSP rounds executed on a shrunk membership (max over hosts).
    pub degraded_rounds: u64,
    /// Master keys received from other hosts by re-shard exchanges after
    /// a shrink (sum over hosts).
    pub resharded_keys: u64,
    /// Hosts admitted into the membership by grow agreements (max over
    /// hosts: every participant of the same grow counts it once).
    pub joins: u64,
    /// Master keys received from other hosts by grow re-shard exchanges
    /// after a join (sum over hosts).
    pub grow_resharded_keys: u64,
    /// Seconds in the request-compute phase (max over hosts; zero unless
    /// the workload reports phases).
    pub request_compute_secs: f64,
    /// Seconds in request-sync collectives (max over hosts).
    pub request_sync_secs: f64,
    /// Seconds in the reduce-compute phase (max over hosts).
    pub reduce_compute_secs: f64,
    /// Seconds in reduce-sync/broadcast-sync collectives (max over hosts).
    pub reduce_sync_secs: f64,
    /// Wire chunks sent by the chunked framing layer (sum over hosts).
    pub chunks_sent: u64,
    /// Individual chunks re-sent on targeted retransmit requests (sum
    /// over hosts; zero in fault-free runs).
    pub chunk_retransmits: u64,
    /// Serve-layer result-cache hits (sum over hosts; zero unless a
    /// serving layer answered queries from its cache).
    pub cache_hits: u64,
    /// Serve-layer result-cache misses (sum over hosts).
    pub cache_misses: u64,
    /// Serve-layer result-cache evictions, capacity or epoch-purge (sum
    /// over hosts).
    pub cache_evictions: u64,
    /// Local graph storage, summed over hosts (raw CSR arrays or the
    /// compressed tier's blocks — whatever the partitions carry).
    pub graph_bytes: u64,
    /// The largest single host's local graph storage — the number the
    /// weighted block cut (`kimbap_dist::ownership_for`) keeps down on
    /// power-law inputs.
    pub max_host_graph_bytes: u64,
    /// Peak resident set of the bench process (`VmHWM`), in bytes; 0 on
    /// platforms without `/proc`. All simulated hosts share the process,
    /// so this is a cluster-wide high-water mark.
    pub peak_rss_bytes: u64,
}

impl RunStats {
    /// Computation seconds (wall minus communication).
    pub fn comp_secs(&self) -> f64 {
        (self.secs - self.comm_secs).max(0.0)
    }
}

/// This process's peak resident set (`VmHWM` from `/proc/self/status`),
/// in bytes; 0 where that interface doesn't exist.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Runs `f` SPMD over the pre-partitioned graph and measures it.
///
/// Timing starts *inside* the SPMD closure, after a barrier and a stats
/// reset, and `secs` is the max of the per-host elapsed times — so thread
/// spawn and cluster teardown never pollute the measurement, and counters
/// accumulated by earlier runs on a reused context are discarded.
pub fn run_timed<R: Send>(
    parts: &[DistGraph],
    threads: usize,
    f: impl Fn(&DistGraph, &HostCtx) -> R + Sync,
) -> (Vec<R>, RunStats) {
    let hosts = parts.len();
    let results = Cluster::with_threads(hosts, threads).run(|ctx| {
        ctx.barrier();
        ctx.reset_stats();
        let start = Instant::now();
        let r = f(&parts[ctx.host()], ctx);
        (r, start.elapsed().as_secs_f64(), ctx.stats())
    });
    let mut stats = RunStats::default();
    let mut out = Vec::with_capacity(hosts);
    for (r, secs, s) in results {
        stats.secs = stats.secs.max(secs);
        stats.comm_secs = stats.comm_secs.max(s.comm_nanos as f64 / 1e9);
        stats.messages += s.messages;
        stats.bytes += s.bytes;
        stats.retransmits += s.retransmits;
        stats.crc_rejects += s.crc_rejects;
        stats.heartbeat_suspicions += s.heartbeat_suspicions;
        stats.timeout_aborts += s.timeout_aborts;
        stats.membership_changes = stats.membership_changes.max(s.membership_changes);
        stats.degraded_rounds = stats.degraded_rounds.max(s.degraded_rounds);
        stats.resharded_keys += s.resharded_keys;
        stats.joins = stats.joins.max(s.joins);
        stats.grow_resharded_keys += s.grow_resharded_keys;
        stats.request_compute_secs =
            stats.request_compute_secs.max(s.request_compute_nanos as f64 / 1e9);
        stats.request_sync_secs = stats.request_sync_secs.max(s.request_sync_nanos as f64 / 1e9);
        stats.reduce_compute_secs =
            stats.reduce_compute_secs.max(s.reduce_compute_nanos as f64 / 1e9);
        stats.reduce_sync_secs = stats.reduce_sync_secs.max(s.reduce_sync_nanos as f64 / 1e9);
        stats.chunks_sent += s.chunks_sent;
        stats.chunk_retransmits += s.chunk_retransmits;
        stats.cache_hits += s.cache_hits;
        stats.cache_misses += s.cache_misses;
        stats.cache_evictions += s.cache_evictions;
        out.push(r);
    }
    stats.graph_bytes = parts.iter().map(|p| p.size_bytes() as u64).sum();
    stats.max_host_graph_bytes = parts
        .iter()
        .map(|p| p.size_bytes() as u64)
        .max()
        .unwrap_or(0);
    stats.peak_rss_bytes = peak_rss_bytes();
    (out, stats)
}

/// Prints a bench title banner.
pub fn print_title(title: &str, note: &str) {
    println!("\n================================================================");
    println!("{title}");
    if !note.is_empty() {
        println!("{note}");
    }
    println!("================================================================");
}

/// Prints one aligned result row.
pub fn print_row(cols: &[String]) {
    let widths = [14usize, 22, 8, 10, 10, 10, 12, 12];
    let mut line = String::new();
    for (i, c) in cols.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(10);
        line.push_str(&format!("{c:<w$} "));
    }
    println!("{}", line.trim_end());
}
