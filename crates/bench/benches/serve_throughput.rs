//! Serving throughput: a multi-tenant job stream over one resident graph.
//!
//! `kimbap serve` keeps the partitioned graph in memory and multiplexes a
//! queue of analytics jobs onto it; this bench measures the two numbers
//! that regime is about — jobs per second over a mixed stream, and the
//! cache-hit ratio when tenants repeat queries. The stream is three passes
//! over eight distinct `(algorithm, params)` queries, so a correct result
//! cache answers two thirds of the stream without touching a collective.
//!
//! Expected shape: hit ratio ~0.67 on every run, and the cached passes
//! cost microseconds next to the computed first pass — jobs/sec is
//! dominated by the eight real computations.

use kimbap::serve::{Algo, HostServer, JobSpec, JobStatus};
use kimbap_bench::{json, print_row, print_title, run_timed, threads_per_host, Inputs};
use kimbap_dist::{partition, Policy};

const HOSTS: usize = 4;
const PASSES: usize = 3;
const CACHE_CAPACITY: usize = 16;

/// One pass of the distinct queries: every algorithm family the server
/// can run, two parameter tags each.
fn distinct_queries() -> Vec<JobSpec> {
    [Algo::CcLp, Algo::CcSv, Algo::Mis, Algo::Louvain]
        .into_iter()
        .flat_map(|algo| {
            (0..2).map(move |params| JobSpec {
                params,
                ..JobSpec::new(algo)
            })
        })
        .collect()
}

fn main() {
    let threads = threads_per_host();
    let g = Inputs::social();
    let parts = partition(&g, Policy::EdgeCutBlocked, HOSTS);

    let distinct = distinct_queries();
    let jobs: Vec<JobSpec> = std::iter::repeat_n(distinct.clone(), PASSES)
        .flatten()
        .collect();
    // Round-robin the stream across the hosts' admission queues, as a
    // set of independent tenants would.
    let mut queues = vec![Vec::new(); HOSTS];
    for (i, &spec) in jobs.iter().enumerate() {
        queues[i % HOSTS].push(spec);
    }
    let queues = &queues;

    print_title(
        "Serving throughput: mixed job stream over a resident graph",
        "3 passes x 8 distinct (algo, params) queries; repeats must hit the result cache",
    );
    print_row(&[
        "case".into(),
        "hosts".into(),
        "jobs".into(),
        "jobs/s".into(),
        "hit-ratio".into(),
        "total".into(),
    ]);

    let (reports, s) = run_timed(&parts, threads, |dg, ctx| {
        let mut server = HostServer::new(CACHE_CAPACITY);
        server.serve_batch(ctx, dg, &queues[ctx.host()])
    });

    for (h, host_reports) in reports.iter().enumerate() {
        assert_eq!(host_reports.len(), jobs.len(), "host {h} schedule length");
        for (k, r) in host_reports.iter().enumerate() {
            assert!(
                matches!(r.status, JobStatus::Completed { .. }),
                "host {h}: fault-free job {k} did not complete"
            );
        }
    }
    // The whole point of serving from residency: repeats never recompute.
    let expected_hits = (jobs.len() - distinct.len()) as u64 * HOSTS as u64;
    let c = &s.totals;
    assert!(
        c.cache_hits > 0,
        "a stream with {PASSES} passes over the same queries must hit the cache"
    );
    assert_eq!(
        (c.cache_hits, c.cache_misses),
        (expected_hits, distinct.len() as u64 * HOSTS as u64),
        "every repeat cached, every first sight computed, on every host"
    );

    let jobs_per_sec = jobs.len() as f64 / s.secs.max(1e-9);
    let hit_ratio = c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64;
    print_row(&[
        "social/mixed".into(),
        HOSTS.to_string(),
        jobs.len().to_string(),
        format!("{jobs_per_sec:.1}"),
        format!("{hit_ratio:.2}"),
        format!("{:.3}s", s.secs),
    ]);
    json::record("serve_throughput", "social/mixed", "kimbap", HOSTS, &s);

    println!(
        "\n{} jobs in {:.3}s: {:.1} jobs/s, cache hit ratio {:.2} ({} hits / {} misses / {} evictions)",
        jobs.len(),
        s.secs,
        jobs_per_sec,
        hit_ratio,
        c.cache_hits,
        c.cache_misses,
        c.cache_evictions,
    );
    println!("expected shape: hit ratio ~0.67; cached passes cost ~nothing next to pass one.");
}
