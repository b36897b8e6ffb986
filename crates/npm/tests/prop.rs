//! Property-based tests for node-property map invariants.

use kimbap_comm::{Cluster, HostCtx};
use kimbap_dist::{partition, DistGraph, Policy};
use kimbap_graph::{builder::from_edges, NodeId};
use kimbap_npm::{Min, NodePropMap, Npm, ShardedMap, Sum};
use proptest::prelude::*;

type Make = for<'a> fn(&'a DistGraph, &HostCtx) -> Box<dyn NodePropMap<u64> + 'a>;

fn sgr_only<'a>(dg: &'a DistGraph, ctx: &HostCtx) -> Box<dyn NodePropMap<u64> + 'a> {
    Box::new(ShardedMap::new(dg, ctx, Min, false))
}

fn sgr_cf<'a>(dg: &'a DistGraph, ctx: &HostCtx) -> Box<dyn NodePropMap<u64> + 'a> {
    Box::new(ShardedMap::new(dg, ctx, Min, true))
}

fn gar<'a>(dg: &'a DistGraph, ctx: &HostCtx) -> Box<dyn NodePropMap<u64> + 'a> {
    Box::new(Npm::new(dg, ctx, Min))
}

/// Fig. 11's three Kimbap rows: the sharded baseline's two and the
/// product map.
const ROWS: [(&str, Make); 3] = [("SGR-only", sgr_only), ("SGR+CF", sgr_cf), ("SGR+CF+GAR", gar)];

/// A randomized workload: per host, a list of (key, value) reductions.
fn workload(n: u32) -> impl Strategy<Value = Vec<Vec<(u32, u64)>>> {
    prop::collection::vec(
        prop::collection::vec((0..n, 0u64..1000), 0..120),
        3, // hosts
    )
}

fn graph(n: u32) -> kimbap_graph::Graph {
    // A ring so every node exists and has edges.
    from_edges((0..n).map(|i| (i, (i + 1) % n, 1)))
}

/// Applies a host-partitioned workload on a chosen backend and returns the
/// canonical value of every node.
fn run_min(
    make: Make,
    n: u32,
    loads: &[Vec<(u32, u64)>],
    threads: usize,
) -> Vec<u64> {
    let g = graph(n);
    let parts = partition(&g, Policy::EdgeCutBlocked, loads.len());
    let out = Cluster::with_threads(loads.len(), threads).run(|ctx| {
        let dg = &parts[ctx.host()];
        let mut npm = make(dg, ctx);
        npm.init_masters(&|g| g as u64 + 10_000);
        let my = &loads[ctx.host()];
        ctx.par_for(0..my.len(), |tid, range| {
            for i in range {
                let (k, v) = my[i];
                npm.reduce(tid, k, v);
            }
        });
        npm.reduce_sync(ctx);
        // Every host reads its own masters.
        dg.master_nodes()
            .map(|m| {
                let g = dg.local_to_global(m);
                (g, npm.read(g))
            })
            .collect::<Vec<(NodeId, u64)>>()
    });
    let mut vals = vec![0u64; n as usize];
    for host in out {
        for (g, v) in host {
            vals[g as usize] = v;
        }
    }
    vals
}

/// Sequential model of the same reduction.
fn model_min(n: u32, loads: &[Vec<(u32, u64)>]) -> Vec<u64> {
    let mut vals: Vec<u64> = (0..n as u64).map(|g| g + 10_000).collect();
    for host in loads {
        for &(k, v) in host {
            vals[k as usize] = vals[k as usize].min(v);
        }
    }
    vals
}

/// One multi-round program: per round, each of the 3 hosts gets a reduce
/// list and a list of keys to request (and read back after the syncs).
type Round = (Vec<Vec<(u32, u64)>>, Vec<Vec<u32>>);

fn program(n: u32) -> impl Strategy<Value = Vec<Round>> {
    prop::collection::vec(
        (
            prop::collection::vec(prop::collection::vec((0..n, 0u64..1000), 0..60), 3),
            prop::collection::vec(prop::collection::vec(0..n, 0..20), 3),
        ),
        1..4, // rounds
    )
}

/// Differential check of a full round pipeline: every host runs the same
/// randomized reduce → reduce_sync → request → request_sync → read
/// sequence on the real backend, and every observed value must equal the
/// sequential reference model's snapshot at that round. Returns the final
/// merged canonical values for the end-of-program comparison.
fn run_program((row, make): (&str, Make), n: u32, rounds: &[Round], threads: usize) -> Vec<u64> {
    // Reference model: per-round snapshots of the canonical values.
    let mut model: Vec<u64> = (0..n as u64).map(|g| g + 10_000).collect();
    let mut snapshots: Vec<Vec<u64>> = Vec::with_capacity(rounds.len());
    for (reduces, _) in rounds {
        for host in reduces {
            for &(k, v) in host {
                model[k as usize] = model[k as usize].min(v);
            }
        }
        snapshots.push(model.clone());
    }

    let g = graph(n);
    let parts = partition(&g, Policy::EdgeCutBlocked, 3);
    let snaps = &snapshots;
    let out = Cluster::with_threads(3, threads).run(|ctx| {
        let dg = &parts[ctx.host()];
        let mut npm = make(dg, ctx);
        npm.init_masters(&|g| g as u64 + 10_000);
        for (r, (reduces, requests)) in rounds.iter().enumerate() {
            let my = &reduces[ctx.host()];
            ctx.par_for(0..my.len(), |tid, range| {
                for i in range {
                    let (k, v) = my[i];
                    npm.reduce(tid, k, v);
                }
            });
            npm.reduce_sync(ctx);
            for &k in &requests[ctx.host()] {
                npm.request(k);
            }
            npm.request_sync(ctx);
            // Requested keys and own masters must both show the model's
            // post-reduce_sync value for this round.
            for &k in &requests[ctx.host()] {
                assert_eq!(
                    npm.read(k),
                    snaps[r][k as usize],
                    "{row}: requested key {k} wrong in round {r}"
                );
            }
            for m in dg.master_nodes() {
                let gk = dg.local_to_global(m);
                assert_eq!(
                    npm.read(gk),
                    snaps[r][gk as usize],
                    "{row}: master {gk} wrong in round {r}"
                );
            }
        }
        dg.master_nodes()
            .map(|m| {
                let gk = dg.local_to_global(m);
                (gk, npm.read(gk))
            })
            .collect::<Vec<(NodeId, u64)>>()
    });
    let mut vals = vec![0u64; n as usize];
    for host in out {
        for (gk, v) in host {
            vals[gk as usize] = v;
        }
    }
    vals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_variants_match_sequential_model(loads in workload(64)) {
        let expected = model_min(64, &loads);
        for (row, make) in ROWS {
            let got = run_min(make, 64, &loads, 2);
            prop_assert_eq!(&got, &expected, "{} diverged", row);
        }
    }

    #[test]
    fn thread_count_does_not_change_results(loads in workload(48)) {
        let a = run_min(gar, 48, &loads, 1);
        let b = run_min(gar, 48, &loads, 4);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn round_pipeline_matches_model_all_variants(
        rounds in program(56),
        threads in 1usize..9,
    ) {
        // The differential gate for the hot-path rebuild: randomized
        // reduce/request/read/sync programs observe bit-identical values
        // on every backend, at every thread count, in every round.
        let expected = {
            let mut m: Vec<u64> = (0..56u64).map(|g| g + 10_000).collect();
            for (reduces, _) in &rounds {
                for host in reduces {
                    for &(k, v) in host {
                        m[k as usize] = m[k as usize].min(v);
                    }
                }
            }
            m
        };
        for row in ROWS {
            let got = run_program(row, 56, &rounds, threads);
            prop_assert_eq!(&got, &expected, "{} diverged", row.0);
        }
    }

    #[test]
    fn sum_reductions_are_exact(loads in workload(32)) {
        // Sum is sensitive to duplication/loss: totals must match exactly.
        let g = graph(32);
        let parts = partition(&g, Policy::EdgeCutBlocked, loads.len());
        let loads_ref = &loads;
        let out = Cluster::with_threads(loads.len(), 2).run(|ctx| {
            let dg = &parts[ctx.host()];
            let mut npm: Npm<u64, Sum> = Npm::new(dg, ctx, Sum);
            let my = &loads_ref[ctx.host()];
            ctx.par_for(0..my.len(), |tid, range| {
                for i in range {
                    let (k, v) = my[i];
                    npm.reduce(tid, k, v);
                }
            });
            npm.reduce_sync(ctx);
            dg.master_nodes()
                .map(|m| {
                    let g = dg.local_to_global(m);
                    npm.read(g)
                })
                .sum::<u64>()
        });
        let total: u64 = out.iter().sum();
        let expected: u64 = loads.iter().flatten().map(|&(_, v)| v).sum();
        prop_assert_eq!(total, expected);
    }

    #[test]
    fn requests_see_post_sync_values(keys in prop::collection::vec(0u32..40, 1..30)) {
        // After reduce_sync + request_sync, any host can read any key and
        // sees the canonical minimum.
        let g = graph(40);
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let keys_ref = &keys;
        let ok = Cluster::new(2).run(|ctx| {
            let dg = &parts[ctx.host()];
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|g| g as u64 + 100);
            for (i, &k) in keys_ref.iter().enumerate() {
                npm.reduce(0, k, (ctx.host() as u64) * 50 + i as u64);
            }
            npm.reduce_sync(ctx);
            for &k in keys_ref.iter() {
                npm.request(k);
            }
            npm.request_sync(ctx);
            // Model: min over both hosts' reduces and the init value.
            keys_ref.iter().all(|&k| {
                let mut expect = k as u64 + 100;
                for h in 0..2u64 {
                    for (j, &kk) in keys_ref.iter().enumerate() {
                        if kk == k {
                            expect = expect.min(h * 50 + j as u64);
                        }
                    }
                }
                npm.read(k) == expect
            })
        });
        prop_assert!(ok.iter().all(|&b| b));
    }
}
