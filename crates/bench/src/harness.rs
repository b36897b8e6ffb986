//! Timing and reporting helpers for the figure/table benches.

use kimbap_comm::{Cluster, HostCtx, HostStats};
use kimbap_dist::DistGraph;
use std::time::Instant;

/// Nanoseconds as seconds.
pub(crate) fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// One measured run: wall-clock split into computation and communication
/// (the stacked bars of Figs. 11 and 12), plus every host's counters —
/// traffic, recovery events and the per-phase breakdown engines report
/// through `HostCtx::add_phase_nanos` — and the graph's footprint.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Total wall-clock seconds (max over hosts, measured inside the SPMD
    /// closure — cluster spawn/teardown is excluded).
    pub secs: f64,
    /// Every host's counters folded with [`HostStats::merge`]: traffic and
    /// work sum, times and cluster-wide events take the max.
    pub totals: HostStats,
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
    /// Seconds inside communication calls (max over hosts).
    pub fn comm_secs(&self) -> f64 {
        secs(self.totals.comm_nanos)
    }

    /// Computation seconds (wall minus communication).
    pub fn comp_secs(&self) -> f64 {
        (self.secs - self.comm_secs()).max(0.0)
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
        stats.totals.merge(&s);
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
