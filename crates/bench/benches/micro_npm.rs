//! Criterion micro/ablation benchmarks for the node-property map's design
//! choices: the GAR read layout (dense vector + sorted-vector binary
//! search vs a hash map), conflict-free thread-local reductions vs a
//! shared sharded-lock map, and the request-dedup bitset vs a hash set.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use kimbap_bench::json;
use kimbap_comm::Cluster;
use kimbap_dist::{partition, Policy};
use kimbap_graph::gen;
use kimbap_algos::{MapBuilder, ShardedBuilder};
use kimbap_npm::{ConcurrentBitset, Min, NodePropMap, Npm, ShardedMap, Sum};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// GAR read layout: dense vector (masters) and sorted-vector binary search
/// (remote cache) vs the general-purpose hash map.
fn bench_read_layouts(c: &mut Criterion) {
    let n = 100_000usize;
    let dense: Vec<u64> = (0..n as u64).collect();
    let sorted_keys: Vec<u32> = (0..n as u32).map(|i| i * 7).collect();
    let sorted_vals: Vec<u64> = (0..n as u64).collect();
    let map: HashMap<u32, u64> = sorted_keys.iter().map(|&k| (k, k as u64)).collect();
    let probes: Vec<u32> = (0..1000u32).map(|i| (i * 7919) % (7 * n as u32)).collect();

    let mut g = c.benchmark_group("read_layout");
    g.bench_function("dense_vector(master)", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &p in &probes {
                acc = acc.wrapping_add(dense[(p as usize) % n]);
            }
            black_box(acc)
        })
    });
    g.bench_function("sorted_binary_search(remote)", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &p in &probes {
                if let Ok(i) = sorted_keys.binary_search(&p) {
                    acc = acc.wrapping_add(sorted_vals[i]);
                }
            }
            black_box(acc)
        })
    });
    g.bench_function("hash_map(general purpose)", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &p in &probes {
                if let Some(&v) = map.get(&p) {
                    acc = acc.wrapping_add(v);
                }
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// CF thread-local maps vs the shared sharded-lock map, on a hub-heavy
/// reduction workload (every thread hammers the same few keys — a
/// power-law graph's reduction profile).
fn bench_reduce_contention(c: &mut Criterion) {
    let g = gen::rmat(10, 8, 3);
    let parts = partition(&g, Policy::EdgeCutBlocked, 1);
    let mut group = c.benchmark_group("reduce_contention");
    group.sample_size(10);
    for (label, row) in [
        ("cf_thread_local", ShardedBuilder::sgr_cf()),
        ("shared_map", ShardedBuilder::sgr_only()),
    ] {
        group.bench_function(label, |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let parts = &parts;
                    let elapsed = Cluster::with_threads(1, 4).run(|ctx| {
                        let npm: ShardedMap<u64, Sum> = row.build(&parts[0], ctx, Sum);
                        let t = Instant::now();
                        ctx.par_for(0..200_000, |tid, range| {
                            for i in range {
                                // 90% of reduces hit 8 hub keys.
                                let key = if i % 10 != 0 { (i % 8) as u32 } else { (i % 1024) as u32 };
                                npm.reduce(tid, key, 1);
                            }
                        });
                        t.elapsed()
                    });
                    total += elapsed[0];
                }
                total
            })
        });
    }
    group.finish();
}

/// Request de-duplication: the concurrent bitset vs a locked hash set.
fn bench_request_dedup(c: &mut Criterion) {
    let n = 1 << 20;
    let keys: Vec<usize> = (0..100_000).map(|i| (i * 31) % n).collect();
    let mut g = c.benchmark_group("request_dedup");
    g.bench_function("concurrent_bitset", |b| {
        b.iter_batched(
            || ConcurrentBitset::new(n),
            |bits| {
                for &k in &keys {
                    bits.set(k);
                }
                black_box(bits.count_set())
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("locked_hash_set", |b| {
        b.iter_batched(
            parking_lot_mutex_set,
            |set| {
                for &k in &keys {
                    set.lock().insert(k);
                }
                black_box(set.lock().len())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn parking_lot_mutex_set() -> parking_lot::Mutex<HashSet<usize>> {
    parking_lot::Mutex::new(HashSet::new())
}

/// Reduce-compute hot path of the default (SGR+CF+GAR) backend: per-call
/// cost of `Npm::reduce` on a hub-heavy workload mixing owned keys (the
/// dense local range) and remote keys. This is the bench the perf
/// trajectory in `BENCH_*.json` tracks for the CF buffer rebuild.
fn bench_reduce_compute_gar(c: &mut Criterion) {
    let g = gen::rmat(10, 8, 3);
    let hosts = 2;
    let parts = partition(&g, Policy::EdgeCutBlocked, hosts);
    let mut group = c.benchmark_group("reduce_compute");
    group.sample_size(10);
    group.bench_function("sgr_cf_gar", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let parts = &parts;
                let times = Cluster::with_threads(hosts, 4).run(|ctx| {
                    let dg = &parts[ctx.host()];
                    let npm: Npm<u64, Sum> = Npm::new(dg, ctx, Sum);
                    let n = dg.num_global_nodes() as u32;
                    let t = Instant::now();
                    ctx.par_for(0..400_000, |tid, range| {
                        for i in range {
                            // 90% of reduces hit 8 hub keys; the rest
                            // scatter across the whole (owned + remote)
                            // key space.
                            let key =
                                if i % 10 != 0 { (i % 8) as u32 } else { (i as u32 * 7919) % n };
                            npm.reduce(tid, key, 1);
                        }
                    });
                    t.elapsed()
                });
                total += times.into_iter().max().unwrap();
            }
            json::record_micro(
                "micro_npm",
                "reduce_compute/sgr_cf_gar",
                total.as_nanos() as f64 / iters as f64,
            );
            total
        })
    });
    group.finish();
}

/// Materialized-mirror reads under GAR: per-call cost of `Npm::read` for a
/// pinned mirror (served by the remote cache). The second bench the perf
/// trajectory in `BENCH_*.json` tracks.
fn bench_mirror_reads(c: &mut Criterion) {
    let g = gen::rmat(10, 8, 5);
    let hosts = 4;
    let parts = partition(&g, Policy::EdgeCutBlocked, hosts);
    let mut group = c.benchmark_group("mirror_reads");
    group.sample_size(10);
    group.bench_function("sgr_cf_gar_pinned", |b| {
        b.iter_custom(|iters| {
            let parts = &parts;
            let times = Cluster::with_threads(hosts, 2).run(|ctx| {
                let dg = &parts[ctx.host()];
                let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
                npm.init_masters(&|g| g as u64);
                npm.pin_mirrors(ctx);
                let mirrors = dg.mirror_globals();
                let t = Instant::now();
                let mut acc = 0u64;
                for _ in 0..iters {
                    for &m in mirrors {
                        acc = acc.wrapping_add(npm.read(m));
                    }
                }
                black_box(acc);
                t.elapsed()
            });
            let total = times.into_iter().max().unwrap();
            json::record_micro(
                "micro_npm",
                "mirror_reads/sgr_cf_gar_pinned",
                total.as_nanos() as f64 / iters as f64,
            );
            total
        })
    });
    group.finish();
}

/// End-to-end sync cost of one BSP reduce round at increasing host counts.
fn bench_reduce_sync_round(c: &mut Criterion) {
    let g = gen::rmat(10, 8, 5);
    let mut group = c.benchmark_group("reduce_sync_round");
    group.sample_size(10);
    for hosts in [1usize, 2, 4] {
        let parts = partition(&g, Policy::EdgeCutBlocked, hosts);
        group.bench_function(format!("{hosts}_hosts"), |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let parts = &parts;
                    let times = Cluster::with_threads(hosts, 2).run(|ctx| {
                        let dg = &parts[ctx.host()];
                        let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
                        npm.init_masters(&|g| g as u64);
                        ctx.par_for(0..dg.num_local_nodes(), |tid, range| {
                            for l in range {
                                let gid = dg.local_to_global(l as u32);
                                npm.reduce(tid, gid, gid as u64 / 2);
                            }
                        });
                        let t = Instant::now();
                        npm.reduce_sync(ctx);
                        t.elapsed()
                    });
                    total += times.into_iter().max().unwrap();
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_read_layouts,
    bench_reduce_contention,
    bench_request_dedup,
    bench_reduce_compute_gar,
    bench_mirror_reads,
    bench_reduce_sync_round
);
criterion_main!(benches);
