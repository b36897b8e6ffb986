//! Per-layer probes of a traced run: timed calls into public functions of
//! each layer, on the workload's own resident graph, partition and
//! transport, after the measured units are done.
//!
//! Every host runs every probe in lockstep (most are collectives); the
//! numbers reported are host 0's. Rates and per-op times are medians over
//! `Sizes::probe_reps` repetitions.

use crate::metrics::Metrics;
use crate::resident::{timed_batch, Loaded, Plan};
use crate::stats::median;
use crate::trace::Recorder;
use crate::workload::HOSTS;
use kimbap::serve::{Algo, HostServer, JobSpec};
use kimbap_algos::{cc, NpmBuilder};
use kimbap_comm::{wire, HostCtx, CHUNK_PAYLOAD};
use kimbap_compiler::{compile, programs, OptLevel};
use kimbap_dist::DistGraph;
use kimbap_graph::NodeId;
use kimbap_npm::{Min, NodePropMap, Npm, Sum};
use std::hint::black_box;
use std::time::Instant;

/// Seconds `f` takes.
fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    // A clock too coarse to see the call must not turn a rate into `inf`.
    t.elapsed().as_secs_f64().max(1e-9)
}

/// Median seconds of `reps` calls of `f`.
fn med_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..reps).map(|_| secs(&mut f)).collect::<Vec<_>>())
}

/// Runs every probe and reports into `m`.
pub fn run(
    ctx: &HostCtx,
    plan: &Plan,
    loaded: &Loaded,
    raw: &DistGraph,
    server: &mut HostServer,
    rec: &mut Recorder,
    m: &mut Metrics,
) {
    let dg = &loaded.parts[ctx.host()];
    let reps = plan.sizes.probe_reps;
    graph(dg, raw, reps, m);
    npm(ctx, dg, reps, m);
    comm(ctx, dg, reps, m);
    m.push(
        "compiler.compile_ms",
        "ms",
        1e3 * med_secs(reps, || {
            black_box(compile(&programs::cc_sv(), OptLevel::Full));
        }),
    );
    serve_and_cc_lp(ctx, plan, dg, server, rec, m);
}

/// Decode rates of the resident (compressed) partition against its raw
/// twin: what `targets()`/`edges()` cost the operators per edge.
fn graph(dg: &DistGraph, raw: &DistGraph, reps: usize, m: &mut Metrics) {
    let nodes = 0..dg.num_local_nodes() as u32;
    let medges = dg.num_local_edges() as f64 / 1e6;
    let scan_targets = |dg: &DistGraph| {
        let mut acc = 0u64;
        for l in nodes.clone() {
            dg.targets(l)
                .for_each(|dst| acc = acc.wrapping_add(u64::from(dst)));
        }
        black_box(acc);
    };
    let t = med_secs(reps, || scan_targets(dg));
    m.push("graph.decode_targets_medges_per_s", "Medges/s", medges / t);
    let t = med_secs(reps, || {
        let mut acc = 0u64;
        for l in nodes.clone() {
            dg.edges(l)
                .for_each(|(dst, w)| acc = acc.wrapping_add(u64::from(dst) ^ w));
        }
        black_box(acc);
    });
    m.push("graph.decode_edges_medges_per_s", "Medges/s", medges / t);
    let t = med_secs(reps, || scan_targets(raw));
    m.push("graph.raw_targets_medges_per_s", "Medges/s", medges / t);
}

/// NPM operations on a `Sum` map over the resident partition: per-op
/// costs of the developer API, and one bulk round of each collective
/// (every master and every mirror touched).
fn npm(ctx: &HostCtx, dg: &DistGraph, reps: usize, m: &mut Metrics) {
    let masters: Vec<NodeId> = dg.master_nodes().map(|l| dg.local_to_global(l)).collect();
    let mirrors = dg.mirror_globals();
    // Enough passes over a key set that a per-op time is not clock noise.
    let passes = |keys: &[NodeId]| 200_000usize.div_ceil(keys.len().max(1));
    let per_op_ns = |keys: &[NodeId], t: f64| 1e9 * t / (passes(keys) * keys.len().max(1)) as f64;
    let reads = |map: &Npm<u64, Sum>, keys: &[NodeId]| {
        secs(|| {
            let mut acc = 0u64;
            for _ in 0..passes(keys) {
                for &k in keys {
                    acc = acc.wrapping_add(map.read(k));
                }
            }
            black_box(acc);
        })
    };
    let reduces = |map: &Npm<u64, Sum>, keys: &[NodeId]| {
        secs(|| {
            for _ in 0..passes(keys) {
                for &k in keys {
                    map.reduce(0, k, 1);
                }
            }
        })
    };
    let mut samples: [Vec<f64>; 8] = Default::default();
    let mut table_bytes = 0;
    for _ in 0..reps {
        let mut map: Npm<u64, Sum> = Npm::new(dg, ctx, Sum);
        map.init_masters(&|g| u64::from(g));
        table_bytes = map.table_bytes();
        let t = [
            reads(&map, &masters),
            secs(|| map.pin_mirrors(ctx)),
            reads(&map, mirrors),
            reduces(&map, &masters),
            reduces(&map, mirrors),
            secs(|| map.reduce_sync(ctx)),
            secs(|| map.broadcast_sync(ctx)),
            {
                map.unpin_mirrors();
                for &k in mirrors {
                    map.request(k);
                }
                secs(|| map.request_sync(ctx))
            },
        ];
        for (s, t) in samples.iter_mut().zip(t) {
            s.push(t);
        }
    }
    let [rd_master, pin, rd_mirror, red_local, red_remote, red_sync, bcast, req_sync] =
        samples.map(|s| median(&s));
    m.push("npm.read_master_ns", "ns", per_op_ns(&masters, rd_master));
    m.push("npm.read_mirror_ns", "ns", per_op_ns(mirrors, rd_mirror));
    m.push("npm.reduce_local_ns", "ns", per_op_ns(&masters, red_local));
    m.push("npm.reduce_remote_ns", "ns", per_op_ns(mirrors, red_remote));
    m.push("npm.reduce_sync_ms", "ms", 1e3 * red_sync);
    m.push("npm.broadcast_sync_ms", "ms", 1e3 * bcast);
    m.push("npm.request_sync_ms", "ms", 1e3 * req_sync);
    m.push("npm.pin_mirrors_ms", "ms", 1e3 * pin);
    m.push("npm.table_mb", "MB", table_bytes as f64 / 1e6);
}

/// Collective latencies and bandwidth on the workload's transport, the
/// worker pool's dispatch cost, and the wire codec's throughput.
fn comm(ctx: &HostCtx, dg: &DistGraph, reps: usize, m: &mut Metrics) {
    // Latencies: median over blocks of 100 calls.
    let per_call_us = |f: &dyn Fn()| {
        1e6 * med_secs(4 * reps, || {
            for _ in 0..100 {
                f();
            }
        }) / 100.0
    };
    m.push("comm.barrier_us", "us", per_call_us(&|| ctx.barrier()));
    m.push(
        "comm.all_reduce_us",
        "us",
        per_call_us(&|| {
            black_box(ctx.all_reduce_u64(1, u64::max));
        }),
    );
    let to_peers = |bytes: usize| -> Vec<Vec<u8>> {
        (0..HOSTS)
            .map(|h| {
                if h == ctx.host() {
                    Vec::new()
                } else {
                    vec![0xA5; bytes]
                }
            })
            .collect()
    };
    m.push(
        "comm.exchange_64b_us",
        "us",
        per_call_us(&|| {
            black_box(ctx.exchange(to_peers(64)));
        }),
    );
    const MB: usize = 1 << 20;
    // The payload is built outside the timed call.
    let samples: Vec<f64> = (0..4 * reps)
        .map(|_| {
            let outgoing = to_peers(MB);
            secs(|| {
                black_box(ctx.exchange(outgoing));
            })
        })
        .collect();
    let t = median(&samples);
    m.push("comm.exchange_1mb_mb_per_s", "MB/s", MB as f64 / 1e6 / t);
    let n = dg.num_local_nodes();
    m.push(
        "comm.pool.par_for_us",
        "us",
        per_call_us(&|| {
            ctx.par_for(0..n, |_, range| {
                black_box(range);
            })
        }),
    );

    // Wire codec over 1 MiB, chunked the way an exchange chunks it.
    let payload: Vec<u8> = (0..MB).map(|i| (i * 31) as u8).collect();
    let mb = MB as f64 / 1e6;
    let frame_all = || -> Vec<Vec<u8>> {
        payload
            .chunks(CHUNK_PAYLOAD)
            .enumerate()
            .map(|(i, c)| wire::frame_chunk(7, i as u32, false, c))
            .collect()
    };
    let t = med_secs(4 * reps, || {
        black_box(frame_all());
    });
    m.push("comm.wire.frame_mb_per_s", "MB/s", mb / t);
    let frames = frame_all();
    let t = med_secs(4 * reps, || {
        for f in &frames {
            black_box(wire::parse_chunk(f).expect("own frame parses"));
        }
    });
    m.push("comm.wire.parse_mb_per_s", "MB/s", mb / t);
    let t = med_secs(4 * reps, || {
        black_box(wire::crc32(&payload));
    });
    m.push("comm.wire.crc32_mb_per_s", "MB/s", mb / t);
    // The (key, value) pairs a reduce-sync ships.
    let pairs: Vec<(u32, u64)> = (0..MB as u32 / 12).map(|i| (i, u64::from(i) * 3)).collect();
    let t = med_secs(4 * reps, || {
        black_box(wire::encode_slice(&pairs));
    });
    m.push(
        "comm.wire.encode_slice_mb_per_s",
        "MB/s",
        (pairs.len() * 12) as f64 / 1e6 / t,
    );
}

/// Per-round timings of [`probe_cc_lp`], in seconds, summed over rounds.
#[derive(Debug, Default, Clone, Copy)]
struct ProbeTotals {
    rounds: u64,
    compute: f64,
    reduce_sync: f64,
    broadcast_sync: f64,
    quiesce: f64,
}

/// CC-LP written against `NodePropMap` exactly as `kimbap_algos::cc::cc_lp`
/// is, with a span around each round and around each of its four steps —
/// the Fig. 11 compute/communication split of the hand-written path,
/// which reports no phase times of its own.
fn probe_cc_lp(
    dg: &DistGraph,
    ctx: &HostCtx,
    rec: &mut Recorder,
    rep: u64,
    totals: &mut ProbeTotals,
) -> Vec<(NodeId, u64)> {
    let all = rec.begin("probe.cc_lp", rep);
    let mut label: Npm<u64, Min> = Npm::new(dg, ctx, Min);
    label.init_masters(&|g| u64::from(g));
    label.pin_mirrors(ctx);
    loop {
        let round = rec.begin("probe.round", rep);
        ctx.set_round(ctx.current_round() + 1);
        label.reset_updated();
        let l = &label;
        let ((), t) = rec.time("probe.compute", rep, || {
            ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
                for lid in range {
                    let lid = lid as u32;
                    let targets = dg.targets(lid);
                    if targets.len() == 0 {
                        continue;
                    }
                    let my = l.read(dg.local_to_global(lid));
                    targets.for_each(|dst| {
                        let dst_g = dg.local_to_global(dst);
                        if my < l.read(dst_g) {
                            l.reduce(tid, dst_g, my);
                        }
                    });
                }
            })
        });
        totals.compute += t;
        totals.reduce_sync += rec
            .time("probe.reduce_sync", rep, || label.reduce_sync(ctx))
            .1;
        totals.broadcast_sync += rec
            .time("probe.broadcast_sync", rep, || label.broadcast_sync(ctx))
            .1;
        let (updated, t) = rec.time("probe.quiesce", rep, || label.is_updated(ctx));
        totals.quiesce += t;
        totals.rounds += 1;
        rec.end(round);
        if !updated {
            break;
        }
    }
    label.unpin_mirrors();
    let out = dg
        .master_nodes()
        .map(|m| {
            let g = dg.local_to_global(m);
            (g, label.read(g))
        })
        .collect();
    rec.end(all);
    out
}

/// The serve layer's own costs (a unit of eight hits; `serve_batch` of one
/// `cc-lp` miss against `cc_lp` called directly) and the instrumented
/// CC-LP loop, interleaved so all three see the same machine state.
fn serve_and_cc_lp(
    ctx: &HostCtx,
    plan: &Plan,
    dg: &DistGraph,
    server: &mut HostServer,
    rec: &mut Recorder,
    m: &mut Metrics,
) {
    let (host, reps) = (ctx.host(), plan.sizes.probe_reps);
    // Params no unit has used: units count up from the seed's base.
    let fresh = |rep: usize| JobSpec {
        params: u64::MAX - rep as u64,
        ..JobSpec::new(Algo::CcLp)
    };
    let (mut via_serve, mut direct, mut probe) = (Vec::new(), Vec::new(), Vec::new());
    let mut totals = ProbeTotals::default();
    for rep in 0..reps {
        let queue = if host == 0 {
            vec![fresh(rep)]
        } else {
            Vec::new()
        };
        via_serve.push(timed_batch(ctx, server, dg, &queue, None).0.wall_s);
        ctx.barrier();
        let mut labels = Vec::new();
        direct.push(secs(|| {
            labels = cc::cc_lp(dg, ctx, &NpmBuilder::default());
            ctx.barrier();
        }));
        let mut probed = Vec::new();
        probe.push(secs(|| {
            probed = probe_cc_lp(dg, ctx, rec, rep as u64, &mut totals);
            ctx.barrier();
        }));
        assert_eq!(
            probed, labels,
            "the probe loop no longer computes what cc_lp computes"
        );
    }
    let rounds = totals.rounds as f64;
    m.push("algos.probe_rounds", "count", rounds / reps as f64);
    m.push(
        "algos.probe_compute_ms_per_round",
        "ms",
        1e3 * totals.compute / rounds,
    );
    m.push(
        "algos.probe_reduce_sync_ms_per_round",
        "ms",
        1e3 * totals.reduce_sync / rounds,
    );
    m.push(
        "algos.probe_broadcast_sync_ms_per_round",
        "ms",
        1e3 * totals.broadcast_sync / rounds,
    );
    m.push(
        "algos.probe_quiesce_us_per_round",
        "us",
        1e6 * totals.quiesce / rounds,
    );
    m.push(
        "algos.probe_vs_cclp",
        "ratio",
        median(&probe) / median(&direct),
    );
    m.push(
        "serve.overhead_us",
        "us",
        1e6 * (median(&via_serve) - median(&direct)),
    );

    // Eight hits, no compute: the queries just inserted, asked again.
    let again: Vec<JobSpec> = (0..8)
        .filter(|i| i % HOSTS == host)
        .map(|i| fresh(i % reps))
        .collect();
    let hits: Vec<f64> = (0..10 * reps)
        .map(|_| {
            let (unit, reports) = timed_batch(ctx, server, dg, &again, None);
            assert!(reports.len() == 8 && reports.iter().all(|r| r.status.is_cached()));
            unit.wall_s
        })
        .collect();
    m.push("serve.hit_unit_us", "us", 1e6 * median(&hits));
}
