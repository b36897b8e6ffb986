//! The four workloads: which graph, which transport, which jobs a unit
//! submits. README.md says why each exists.

use kimbap::serve::{Algo, JobSpec};
use kimbap_graph::{gen, Graph};
use std::time::Duration;

/// Hosts of the resident cluster; one compute thread each, so the two
/// host threads have a core apiece on the 2-core VM.
pub const HOSTS: usize = 2;
/// Compute threads per host.
pub const THREADS: usize = 1;

/// Seed of every R-MAT topology (see [`Workload::graph`]).
const TOPOLOGY_SEED: u64 = 42;

/// `kimbap serve`'s default result-cache capacity.
const SERVE_CACHE_CAPACITY: usize = 32;
/// `serve-mix`'s capacity: four units' worth of fresh queries.
pub const MIX_CACHE_CAPACITY: usize = 16;
/// Fresh queries per `serve-mix` unit (as many repeats ride along).
pub const MIX_FRESH: usize = 4;
/// `serve-mix` bumps the graph epoch before every unit whose index is a
/// multiple of this.
pub const MIX_BUMP_EVERY: u64 = 25;
/// Never missed; puts the deadline clamp and its agreement all-reduce on
/// the path.
const MIX_DEADLINE: Duration = Duration::from_secs(30);

/// Problem sizes: the measured ones, or the tiny `--smoke` ones.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// R-MAT scale of `lv-social` and `serve-mix`.
    pub social_scale: u32,
    /// R-MAT scale of `ccsv-social-tcp`.
    pub social_tcp_scale: u32,
    /// R-MAT edge factor.
    pub edge_factor: usize,
    /// Side of the `cclp-road` grid.
    pub grid_side: usize,
    /// Measured units are never fewer than this.
    pub min_units: u64,
    /// Set-up repetitions (the last one stays resident).
    pub setup_reps: u64,
    /// Repetitions of each per-layer probe.
    pub probe_reps: usize,
}

impl Sizes {
    /// The sizes every gated number is measured at.
    pub const FULL: Sizes = Sizes {
        social_scale: 14,
        social_tcp_scale: 15,
        edge_factor: 16,
        grid_side: 120,
        min_units: 100,
        setup_reps: 8,
        probe_reps: 5,
    };
    /// Plumbing check only.
    pub const SMOKE: Sizes = Sizes {
        social_scale: 8,
        social_tcp_scale: 8,
        edge_factor: 4,
        grid_side: 12,
        min_units: 5,
        setup_reps: 2,
        probe_reps: 2,
    };
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Louvain on a social graph, in-proc.
    LvSocial,
    /// CC-LP on a road grid, in-proc.
    CclpRoad,
    /// CC-SV (compiled plan) on a social graph over loopback TCP.
    CcsvSocialTcp,
    /// Eight-job mixed batches, half of them cache hits, in-proc.
    ServeMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LvSocial,
        Workload::CclpRoad,
        Workload::CcsvSocialTcp,
        Workload::ServeMix,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LvSocial => "lv-social",
            Workload::CclpRoad => "cclp-road",
            Workload::CcsvSocialTcp => "ccsv-social-tcp",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Generates the input graph. The run's seed draws the road grid's
    /// edge weights; the R-MAT topology is drawn from [`TOPOLOGY_SEED`]
    /// whatever the run's seed, because how many rounds Louvain, CC-SV,
    /// MIS and Boruvka take is a discrete function of the topology: between
    /// R-MAT seeds the same code's `job_ms` moved by ±6% and `peak_rss_mb`
    /// by ±4%, reproducibly per seed (README, "Noise"), which would swamp
    /// any gate worth having. The seed moves everything that leaves the amount of
    /// work alone (see [`Workload::queue`]).
    pub fn graph(self, sizes: &Sizes, seed: u64) -> Graph {
        match self {
            Workload::LvSocial | Workload::ServeMix => {
                gen::rmat(sizes.social_scale, sizes.edge_factor, TOPOLOGY_SEED)
            }
            Workload::CcsvSocialTcp => {
                gen::rmat(sizes.social_tcp_scale, sizes.edge_factor, TOPOLOGY_SEED)
            }
            Workload::CclpRoad => gen::grid_road(sizes.grid_side, sizes.grid_side, seed),
        }
    }

    /// True for the one workload whose hosts talk over real sockets.
    pub fn tcp(self) -> bool {
        self == Workload::CcsvSocialTcp
    }

    /// Result-cache capacity of the resident servers.
    pub fn cache_capacity(self) -> usize {
        match self {
            Workload::ServeMix => MIX_CACHE_CAPACITY,
            _ => SERVE_CACHE_CAPACITY,
        }
    }

    /// Jobs per unit (all hosts' queues together).
    pub fn jobs_per_unit(self) -> u64 {
        match self {
            Workload::ServeMix => 2 * MIX_FRESH as u64,
            _ => 1,
        }
    }

    /// The algorithms this workload's jobs run (what needs an oracle).
    pub fn algos(self) -> &'static [Algo] {
        match self {
            Workload::LvSocial => &[Algo::Louvain],
            Workload::CclpRoad => &[Algo::CcLp],
            Workload::CcsvSocialTcp => &[Algo::CcSv],
            Workload::ServeMix => &[Algo::CcLp, Algo::CcSv, Algo::Mis, Algo::Msf],
        }
    }

    /// Host `host`'s admission queue for unit `unit` (0 is the warm-up).
    ///
    /// `params` never repeat across units except where `serve-mix` repeats
    /// them on purpose, so single-job units always compute. The seed moves
    /// the params, which host submits, and `serve-mix`'s priorities —
    /// except that `cc-sv` always gets the lowest, so the last job a unit
    /// computes is the compiled-plan one and `HostCtx::current_round`
    /// reads its round count afterwards.
    pub fn queue(self, unit: u64, host: usize, seed: u64) -> Vec<JobSpec> {
        let base = mix64(seed) >> 16;
        match self {
            Workload::ServeMix => {
                let algos = self.algos();
                // Fresh queries of this unit, then the previous unit's.
                let jobs = (0..2 * MIX_FRESH).map(|i| {
                    let (u, a) = if i < MIX_FRESH {
                        (unit + 1, i)
                    } else {
                        (unit, i - MIX_FRESH)
                    };
                    let algo = algos[a];
                    let priority = match algo {
                        Algo::CcSv => 0,
                        _ => 1 + (mix64(seed ^ (unit * 8 + i as u64)) % 3) as u8,
                    };
                    JobSpec {
                        algo,
                        params: base + u,
                        priority,
                        deadline: Some(MIX_DEADLINE),
                    }
                });
                // Round-robin over the hosts' queues.
                jobs.enumerate()
                    .filter(|(i, _)| i % HOSTS == host)
                    .map(|(_, j)| j)
                    .collect()
            }
            _ if unit.wrapping_add(seed) as usize % HOSTS == host => vec![JobSpec {
                params: base + unit,
                ..JobSpec::new(self.algos()[0])
            }],
            _ => Vec::new(),
        }
    }
}

/// SplitMix64's output function: a cheap seed scrambler.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn single_job_units_submit_one_new_query() {
        for w in [
            Workload::LvSocial,
            Workload::CclpRoad,
            Workload::CcsvSocialTcp,
        ] {
            let mut seen = std::collections::HashSet::new();
            for unit in 0..50 {
                let all: Vec<JobSpec> = (0..HOSTS).flat_map(|h| w.queue(unit, h, 42)).collect();
                assert_eq!(all.len() as u64, w.jobs_per_unit());
                assert!(seen.insert(all[0].params), "params repeat at unit {unit}");
            }
        }
    }

    #[test]
    fn mix_units_repeat_exactly_the_previous_fresh_queries() {
        let w = Workload::ServeMix;
        let unit = |u| -> Vec<JobSpec> { (0..HOSTS).flat_map(|h| w.queue(u, h, 7)).collect() };
        let key = |j: &JobSpec| (j.algo.name(), j.params);
        for u in 1..30 {
            let (prev, cur) = (unit(u - 1), unit(u));
            assert_eq!(cur.len() as u64, w.jobs_per_unit());
            let fresh_prev: Vec<_> = {
                let max = prev.iter().map(|j| j.params).max().unwrap();
                prev.iter().filter(|j| j.params == max).map(key).collect()
            };
            let min = cur.iter().map(|j| j.params).min().unwrap();
            let mut repeats: Vec<_> = cur.iter().filter(|j| j.params == min).map(key).collect();
            let mut want = fresh_prev.clone();
            repeats.sort_unstable();
            want.sort_unstable();
            assert_eq!(repeats, want);
            assert_eq!(repeats.len(), MIX_FRESH);
            // Both hosts submit.
            assert!((0..HOSTS).all(|h| w.queue(u, h, 7).len() == MIX_FRESH));
        }
    }
}
