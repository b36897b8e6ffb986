//! Machine-readable bench records for the tracked `BENCH_<date>.json`.
//!
//! The figure/table benches print human-oriented tables; CI and the perf
//! history additionally want numbers a script can diff. When the
//! `KIMBAP_BENCH_JSON` environment variable names a file, every measured
//! case appends one JSON object per line (JSONL) there; `scripts/bench.sh`
//! wraps the lines into the committed `BENCH_<date>.json`. With the
//! variable unset, recording is a no-op, so `cargo bench` behaves exactly
//! as before.

use crate::harness::secs;
use crate::RunStats;
use std::fs::OpenOptions;
use std::io::Write;

/// The environment variable naming the JSONL sink.
pub const ENV_JSON: &str = "KIMBAP_BENCH_JSON";

fn escape(s: &str) -> String {
    // Bench/case names are ASCII identifiers and paths; escape the two
    // characters that could break a JSON string anyway.
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn append_line(path: &str, line: &str) {
    let file = OpenOptions::new().create(true).append(true).open(path);
    match file {
        Ok(mut f) => {
            if let Err(e) = writeln!(f, "{line}") {
                eprintln!("warning: failed to write bench record to {path}: {e}");
            }
        }
        Err(e) => eprintln!("warning: failed to open bench record file {path}: {e}"),
    }
}

fn record_run_to(path: &str, bench: &str, case: &str, system: &str, hosts: usize, r: &RunStats) {
    let s = &r.totals;
    append_line(
        path,
        &format!(
            concat!(
                "{{\"bench\":\"{}\",\"case\":\"{}\",\"system\":\"{}\",\"hosts\":{},",
                "\"secs\":{:.6},\"comm_secs\":{:.6},\"messages\":{},\"bytes\":{},",
                "\"retransmits\":{},\"crc_rejects\":{},",
                "\"heartbeat_suspicions\":{},\"timeout_aborts\":{},",
                "\"membership_changes\":{},\"degraded_rounds\":{},",
                "\"resharded_keys\":{},",
                "\"joins\":{},",
                "\"request_compute_secs\":{:.6},\"request_sync_secs\":{:.6},",
                "\"reduce_compute_secs\":{:.6},\"reduce_sync_secs\":{:.6},",
                "\"chunks_sent\":{},\"chunk_retransmits\":{},",
                "\"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},",
                "\"graph_bytes\":{},\"max_host_graph_bytes\":{},",
                "\"peak_rss_bytes\":{}}}"
            ),
            escape(bench),
            escape(case),
            escape(system),
            hosts,
            r.secs,
            secs(s.comm_nanos),
            s.messages,
            s.bytes,
            s.retransmits,
            s.crc_rejects,
            s.heartbeat_suspicions,
            s.timeout_aborts,
            s.membership_changes,
            s.degraded_rounds,
            s.resharded_keys,
            s.joins,
            secs(s.request_compute_nanos),
            secs(s.request_sync_nanos),
            secs(s.reduce_compute_nanos),
            secs(s.reduce_sync_nanos),
            s.chunks_sent,
            s.chunk_retransmits,
            s.cache_hits,
            s.cache_misses,
            s.cache_evictions,
            r.graph_bytes,
            r.max_host_graph_bytes,
            r.peak_rss_bytes,
        ),
    );
}

/// One storage-footprint measurement from the `max_graph_size` bench: no
/// timings, just how many bytes a graph (or its per-host partitions) cost
/// on a given storage tier.
#[derive(Debug, Clone, Copy)]
pub struct SizeRecord {
    /// Hosts the graph was partitioned over (1 = whole graph, unsplit).
    pub hosts: usize,
    /// Edges in the graph (for the bytes-per-edge division).
    pub num_edges: u64,
    /// Storage bytes, summed over hosts.
    pub graph_bytes: u64,
    /// The largest single host's storage bytes.
    pub max_host_graph_bytes: u64,
    /// Process peak RSS after building, in bytes.
    pub peak_rss_bytes: u64,
}

fn record_size_to(path: &str, bench: &str, case: &str, system: &str, r: &SizeRecord) {
    let bpe = r.graph_bytes as f64 / (r.num_edges.max(1)) as f64;
    append_line(
        path,
        &format!(
            concat!(
                "{{\"bench\":\"{}\",\"case\":\"{}\",\"system\":\"{}\",\"hosts\":{},",
                "\"num_edges\":{},\"graph_bytes\":{},\"max_host_graph_bytes\":{},",
                "\"bytes_per_edge\":{:.3},\"peak_rss_bytes\":{}}}"
            ),
            escape(bench),
            escape(case),
            escape(system),
            r.hosts,
            r.num_edges,
            r.graph_bytes,
            r.max_host_graph_bytes,
            bpe,
            r.peak_rss_bytes,
        ),
    );
}

/// One BSP round of a frontier-execution record: how many nodes the
/// round's reduce-compute actually ran, cluster-wide.
#[derive(Debug, Clone, Copy)]
pub struct RoundRecord {
    /// Global round number (1-based).
    pub round: u64,
    /// Nodes executed, summed across hosts.
    pub active: u64,
    /// Dense iterator extent, summed across hosts.
    pub total: u64,
    /// Whether every host took the sparse path this round.
    pub sparse: bool,
    /// Reduce-compute seconds (max over hosts).
    pub reduce_compute_secs: f64,
}

fn record_rounds_to(
    path: &str,
    bench: &str,
    case: &str,
    system: &str,
    hosts: usize,
    rounds: &[RoundRecord],
) {
    let items: Vec<String> = rounds
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "{{\"round\":{},\"active\":{},\"total\":{},",
                    "\"sparse\":{},\"reduce_compute_secs\":{:.6}}}"
                ),
                r.round, r.active, r.total, r.sparse, r.reduce_compute_secs,
            )
        })
        .collect();
    append_line(
        path,
        &format!(
            "{{\"bench\":\"{}\",\"case\":\"{}\",\"system\":\"{}\",\"hosts\":{},\"rounds\":[{}]}}",
            escape(bench),
            escape(case),
            escape(system),
            hosts,
            items.join(","),
        ),
    );
}

fn record_micro_to(path: &str, bench: &str, case: &str, ns_per_iter: f64) {
    append_line(
        path,
        &format!(
            "{{\"bench\":\"{}\",\"case\":\"{}\",\"ns_per_iter\":{:.1}}}",
            escape(bench),
            escape(case),
            ns_per_iter,
        ),
    );
}

/// Records one measured macro-bench case (a `run_timed` result) if
/// `KIMBAP_BENCH_JSON` is set.
pub fn record(bench: &str, case: &str, system: &str, hosts: usize, stats: &RunStats) {
    if let Ok(path) = std::env::var(ENV_JSON) {
        record_run_to(&path, bench, case, system, hosts, stats);
    }
}

/// Records one micro-bench result (nanoseconds per iteration) if
/// `KIMBAP_BENCH_JSON` is set.
pub fn record_micro(bench: &str, case: &str, ns_per_iter: f64) {
    if let Ok(path) = std::env::var(ENV_JSON) {
        record_micro_to(&path, bench, case, ns_per_iter);
    }
}

/// Records one storage-footprint measurement if `KIMBAP_BENCH_JSON` is
/// set.
pub fn record_size(bench: &str, case: &str, system: &str, r: &SizeRecord) {
    if let Ok(path) = std::env::var(ENV_JSON) {
        record_size_to(&path, bench, case, system, r);
    }
}

/// Records a per-round activity trace for one measured case if
/// `KIMBAP_BENCH_JSON` is set.
pub fn record_rounds(bench: &str, case: &str, system: &str, hosts: usize, rounds: &[RoundRecord]) {
    if let Ok(path) = std::env::var(ENV_JSON) {
        record_rounds_to(&path, bench, case, system, hosts, rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_one_json_object_per_line() {
        let path = std::env::temp_dir().join(format!(
            "kimbap-bench-json-test-{}.jsonl",
            std::process::id()
        ));
        let path_s = path.to_str().unwrap();
        let _ = std::fs::remove_file(&path);

        let stats = RunStats {
            secs: 1.5,
            totals: kimbap_comm::HostStats {
                comm_nanos: 250_000_000,
                messages: 42,
                bytes: 1024,
                retransmits: 3,
                crc_rejects: 1,
                membership_changes: 1,
                degraded_rounds: 5,
                resharded_keys: 128,
                joins: 1,
                reduce_sync_nanos: 125_000_000,
                chunks_sent: 96,
                chunk_retransmits: 2,
                cache_hits: 7,
                cache_misses: 3,
                cache_evictions: 1,
                ..Default::default()
            },
            graph_bytes: 4096,
            max_host_graph_bytes: 1536,
            peak_rss_bytes: 65536,
        };
        record_run_to(path_s, "fig11", "road/cc_sv", "sgr_cf_gar", 4, &stats);
        record_micro_to(path_s, "micro_npm", "reduce_compute/\"quoted\"", 3524165.0);
        record_size_to(
            path_s,
            "max_graph_size",
            "social_unit",
            "compressed",
            &SizeRecord {
                hosts: 1,
                num_edges: 1000,
                graph_bytes: 3210,
                max_host_graph_bytes: 3210,
                peak_rss_bytes: 131072,
            },
        );
        record_rounds_to(
            path_s,
            "frontier_cclp",
            "social/CC-LP",
            "sparse",
            2,
            &[
                RoundRecord {
                    round: 1,
                    active: 512,
                    total: 512,
                    sparse: false,
                    reduce_compute_secs: 0.25,
                },
                RoundRecord {
                    round: 2,
                    active: 37,
                    total: 512,
                    sparse: true,
                    reduce_compute_secs: 0.0625,
                },
            ],
        );

        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"bench\":\"fig11\""));
        assert!(lines[0].contains("\"hosts\":4"));
        assert!(lines[0].contains("\"messages\":42"));
        assert!(lines[0].contains("\"retransmits\":3,\"crc_rejects\":1"));
        assert!(lines[0].contains("\"heartbeat_suspicions\":0,\"timeout_aborts\":0"));
        assert!(lines[0]
            .contains("\"membership_changes\":1,\"degraded_rounds\":5,\"resharded_keys\":128"));
        assert!(lines[0].contains("\"joins\":1,\"request_compute_secs\":0.000000"));
        assert!(lines[0].contains("\"secs\":1.500000,\"comm_secs\":0.250000"));
        assert!(lines[0].contains("\"reduce_sync_secs\":0.125000"));
        assert!(lines[0].contains("\"chunks_sent\":96,\"chunk_retransmits\":2"));
        assert!(lines[0].contains("\"cache_hits\":7,\"cache_misses\":3,\"cache_evictions\":1"));
        assert!(lines[0].contains(
            "\"graph_bytes\":4096,\"max_host_graph_bytes\":1536,\"peak_rss_bytes\":65536"
        ));
        assert!(lines[1].contains("\\\"quoted\\\""));
        assert!(lines[1].contains("\"ns_per_iter\":3524165.0"));
        assert!(lines[2].starts_with("{\"bench\":\"max_graph_size\""));
        assert!(lines[2].contains("\"num_edges\":1000,\"graph_bytes\":3210"));
        assert!(lines[2].contains("\"bytes_per_edge\":3.210"));
        assert!(lines[3].starts_with("{\"bench\":\"frontier_cclp\""));
        assert!(lines[3].contains("\"rounds\":[{\"round\":1,"));
        assert!(lines[3].contains("\"active\":37,\"total\":512,\"sparse\":true"));
        std::fs::remove_file(&path).unwrap();
    }
}
