//! Seed-derived fuzz inputs for the deterministic simulation backend,
//! shared by the `kimbap sim` subcommand and the simulation test suites.
//!
//! Everything here is a pure function of the seed: the fault plan a fuzz
//! run injects, the heartbeat configuration it runs under, and the CLI
//! command that replays it. Tests that fail on a seed print the replay
//! command and the CLI reconstructs the identical run — same graph, same
//! faults, same schedule — because both sides derive from this module.

use crate::serve::{Algo, JobSpec};
use kimbap_comm::{FaultPlan, HeartbeatConfig, TransportConfig, JOB_ROUND_STRIDE};
use std::time::Duration;

/// One splitmix64 step: advances `z` and returns a well-mixed draw.
pub fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Derives the randomized fault plan a simulated fuzz run injects for
/// `seed`: always some background frame noise (drop/duplicate/corrupt/
/// delay rates), plus a crash and/or a stall in the first few rounds
/// about a quarter of the time each. Pure function of the seed, so a
/// replay reconstructs the identical plan.
pub fn random_fault_plan(seed: u64, hosts: usize) -> FaultPlan {
    let mut z = seed ^ 0x5eed_fa57;
    let mut rate = |hi: u64| (splitmix(&mut z) % hi) as f64 / 1000.0;
    let mut plan = FaultPlan::new()
        .with_seed(seed ^ 0x0bad_cafe)
        .drop_rate(rate(30))
        .duplicate_rate(rate(20))
        .corrupt_rate(rate(20))
        .delay_rate(rate(50));
    if hosts >= 2 {
        if splitmix(&mut z) % 100 < 25 {
            let h = 1 + (splitmix(&mut z) as usize) % (hosts - 1);
            plan = plan.crash_host(h, 1 + splitmix(&mut z) % 3);
        }
        if splitmix(&mut z) % 100 < 25 {
            let h = (splitmix(&mut z) as usize) % hosts;
            let round = 1 + splitmix(&mut z) % 3;
            let millis = (150 + splitmix(&mut z) % 350) as u32;
            plan = plan.stall_host(h, round, millis);
        }
    }
    if let Some((from, to, round, chunk)) = chunk_drop(seed, hosts) {
        plan = plan.drop_chunk(from, to, round, chunk);
    }
    plan
}

/// The chunk-boundary fault a seed's fuzz plans carry, if any: about a
/// third of seeds drop the `k`-th wire chunk of one directed link in an
/// early round, so the 50-seed smoke exercises partial-stream reassembly
/// and chunk-targeted retransmit (not just whole-frame loss). Returns
/// `(from, to, round, chunk)`. Derived from its own splitmix salt so it
/// composes with the other seed-derived draws without perturbing them.
pub fn chunk_drop(seed: u64, hosts: usize) -> Option<(usize, usize, u64, u32)> {
    let mut z = seed ^ 0xc41c_0b0a;
    if hosts >= 2 && splitmix(&mut z) % 100 < 35 {
        let from = (splitmix(&mut z) as usize) % hosts;
        let to = (from + 1 + (splitmix(&mut z) as usize) % (hosts - 1)) % hosts;
        let round = 1 + splitmix(&mut z) % 3;
        // Index 0 is a small payload's only chunk (data and LAST flag in
        // one frame, so the receiver must re-request the whole stream);
        // index 1 is a gap or a lost stream end in a multi-chunk payload.
        // An index past the stream end is a harmless no-op, preserving
        // plan determinism.
        let chunk = (splitmix(&mut z) % 2) as u32;
        Some((from, to, round, chunk))
    } else {
        None
    }
}

/// The permanent-kill a seed's elastic fuzz plan carries, if any: about
/// 40% of seeds kill one non-zero host within the first few rounds. Pure
/// function of the seed; [`random_kill_plan`] injects exactly this kill,
/// and the launcher uses it to pick the right convergence baseline (a
/// fired kill makes the run finish on the shrunk membership).
pub fn kill_victim(seed: u64, hosts: usize) -> Option<(usize, u64)> {
    let mut z = seed ^ 0x1057_4057;
    if hosts >= 2 && splitmix(&mut z) % 100 < 40 {
        let h = 1 + (splitmix(&mut z) as usize) % (hosts - 1);
        let round = 1 + splitmix(&mut z) % 4;
        Some((h, round))
    } else {
        None
    }
}

/// Derives the fault plan a kill-family (`kimbap sim --faults kill`) fuzz
/// run injects for `seed`: the usual background frame noise plus, for the
/// seeds [`kill_victim`] selects, a permanent host kill — so crash →
/// shrink → re-converge interleavings are seed-fuzzable and replayable.
pub fn random_kill_plan(seed: u64, hosts: usize) -> FaultPlan {
    let mut z = seed ^ 0xe1a5_71c5;
    let mut rate = |hi: u64| (splitmix(&mut z) % hi) as f64 / 1000.0;
    let mut plan = FaultPlan::new()
        .with_seed(seed ^ 0x0bad_cafe)
        .drop_rate(rate(30))
        .duplicate_rate(rate(20))
        .corrupt_rate(rate(20))
        .delay_rate(rate(50));
    if let Some((h, round)) = kill_victim(seed, hosts) {
        plan = plan.kill_host(h, round);
    }
    if let Some((from, to, round, chunk)) = chunk_drop(seed, hosts) {
        plan = plan.drop_chunk(from, to, round, chunk);
    }
    plan
}

/// The live join a seed's churn fuzz plan carries, if any: about half
/// the seeds spawn one latent host (the cluster's spare capacity slot,
/// index `hosts`) that knocks `delay_ms` into the run. Pure function of
/// the seed; [`random_churn_plan`] injects exactly this join, and the
/// launcher uses it to pick the right convergence baseline (an admitted
/// join makes the run finish on the grown membership).
pub fn join_entry(seed: u64, hosts: usize) -> Option<(usize, u64)> {
    let mut z = seed ^ 0x6a01_4b0b;
    if hosts >= 2 && splitmix(&mut z) % 100 < 50 {
        // Delay 0 or 1 ms of virtual time: small graphs finish in a few
        // virtual milliseconds, so this lands the knock mid-run for most
        // seeds and past the finish line for a few — both interleavings
        // (admission and benign give-up) stay in the fuzzed population.
        let delay_ms = splitmix(&mut z) % 2;
        Some((hosts, delay_ms))
    } else {
        None
    }
}

/// Derives the fault plan a churn-family (`kimbap sim --faults churn`)
/// fuzz run injects for `seed`: the usual background frame noise, the
/// permanent kill [`kill_victim`] selects (~40% of seeds), and the live
/// join [`join_entry`] selects (~50% of seeds). The two draws are
/// independent, so the seed population covers join-only, kill-only,
/// join-then-kill, kill-then-join, and quiet runs — every grow/shrink
/// interleaving the elastic engine must survive, each replayable by
/// seed.
pub fn random_churn_plan(seed: u64, hosts: usize) -> FaultPlan {
    let mut plan = random_kill_plan(seed, hosts);
    if let Some((h, delay_ms)) = join_entry(seed, hosts) {
        plan = plan.join_host(h, delay_ms);
    }
    plan
}

/// How a plan family derives its plan from `(seed, hosts)`.
pub type DrawPlan = fn(u64, usize) -> FaultPlan;

/// The seeded plan families `kimbap sim --faults` names, each with the
/// plan it draws for a seed: frame noise with crashes and stalls
/// (`random`, the default), noise with a permanent kill on some seeds
/// (`kill`), and kills with live joins (`churn`).
pub const PLAN_FAMILIES: [(&str, DrawPlan); 3] = [
    ("random", random_fault_plan),
    ("kill", random_kill_plan),
    ("churn", random_churn_plan),
];

/// The algorithm pool serve fuzz job mixes draw from. Deliberately spans
/// the execution paths the scheduler multiplexes: the compiled-plan
/// engine on a loop certified for the host-local fixpoint (`cc-lp`) and
/// on one with request phases (`cc-sv`), a hand-written loop of three
/// one-round phases per step (`mis`), and the multi-level Louvain
/// pipeline.
const SERVE_ALGOS: [Algo; 4] = [Algo::CcLp, Algo::CcSv, Algo::Mis, Algo::Louvain];

/// Derives the job mix a serve fuzz run submits for `seed`: 3–8 jobs,
/// each tagged with the host whose admission queue receives it. About a
/// third of jobs past the first duplicate an earlier `(algo, params)`
/// pair — exercising the result cache mid-schedule — and about a quarter
/// carry a deadline, a third of those tight enough (1–3 virtual ms) to
/// expire even on a fault-free run, the rest generous (200–1000 ms) so
/// they fire mainly when a seeded stall lands inside that job's band.
/// Pure function of the seed, so a replay reconstructs the identical
/// queue on every host.
pub fn serve_job_mix(seed: u64, hosts: usize) -> Vec<(usize, JobSpec)> {
    let mut z = seed ^ 0x5e44_e10b;
    let n = 3 + (splitmix(&mut z) % 6) as usize;
    let mut jobs: Vec<(usize, JobSpec)> = Vec::with_capacity(n);
    for _ in 0..n {
        let dup = !jobs.is_empty() && splitmix(&mut z) % 100 < 35;
        let (algo, params) = if dup {
            let prev = jobs[(splitmix(&mut z) as usize) % jobs.len()].1;
            (prev.algo, prev.params)
        } else {
            let algo = SERVE_ALGOS[(splitmix(&mut z) as usize) % SERVE_ALGOS.len()];
            (algo, splitmix(&mut z) % 4)
        };
        let priority = (splitmix(&mut z) % 4) as u8;
        let deadline = if splitmix(&mut z) % 100 < 25 {
            let ms = if splitmix(&mut z).is_multiple_of(3) {
                1 + splitmix(&mut z) % 3
            } else {
                200 + splitmix(&mut z) % 800
            };
            Some(Duration::from_millis(ms))
        } else {
            None
        };
        let host = (splitmix(&mut z) as usize) % hosts;
        jobs.push((
            host,
            JobSpec {
                algo,
                params,
                priority,
                deadline,
            },
        ));
    }
    jobs
}

/// Derives the fault plan a serve fuzz run injects for `seed`: the usual
/// background frame noise plus, for ~40% of seeds, one mid-stream crash
/// or stall targeted at an early round *inside a random job's round
/// band* (`k * JOB_ROUND_STRIDE + r`), so scheduler interleavings get
/// fuzzed against faults landing in specific jobs — including jobs that
/// never publish a round in that band (the fault then stays a harmless
/// no-op, which is itself an interleaving worth covering).
pub fn serve_fault_plan(seed: u64, hosts: usize, jobs: usize) -> FaultPlan {
    let mut z = seed ^ 0x5e4f_a017;
    let mut rate = |hi: u64| (splitmix(&mut z) % hi) as f64 / 1000.0;
    let mut plan = FaultPlan::new()
        .with_seed(seed ^ 0x0bad_cafe)
        .drop_rate(rate(30))
        .duplicate_rate(rate(20))
        .corrupt_rate(rate(20))
        .delay_rate(rate(50));
    if hosts >= 2 && jobs > 0 && splitmix(&mut z) % 100 < 40 {
        let k = splitmix(&mut z) % jobs as u64;
        let round = k * JOB_ROUND_STRIDE + 1 + splitmix(&mut z) % 3;
        if splitmix(&mut z).is_multiple_of(2) {
            let h = 1 + (splitmix(&mut z) as usize) % (hosts - 1);
            plan = plan.crash_host(h, round);
        } else {
            let h = (splitmix(&mut z) as usize) % hosts;
            let millis = (150 + splitmix(&mut z) % 350) as u32;
            plan = plan.stall_host(h, round, millis);
        }
    }
    plan
}

/// The exact CLI invocation that replays one serve fuzz seed.
pub fn serve_replay_command(
    seed: u64,
    hosts: usize,
    threads: usize,
    scale: u32,
    ef: usize,
) -> String {
    format!(
        "kimbap serve-sim --seed {seed} --hosts {hosts} --threads {threads} \
         --scale {scale} --ef {ef}"
    )
}

/// The transport configuration simulated fuzz runs use: a fast heartbeat
/// (10 ms interval, 80 ms suspicion) so injected stalls are detected —
/// both delays elapse on the virtual clock, costing microseconds of wall
/// time.
pub fn sim_transport_config() -> TransportConfig {
    TransportConfig::with_heartbeat(HeartbeatConfig {
        interval: Duration::from_millis(10),
        suspect_after: Duration::from_millis(80),
    })
}

/// The exact CLI invocation that replays one simulated fuzz seed drawn
/// from the plan family `faults` ([`PLAN_FAMILIES`]).
pub fn replay_command(
    algo: &str,
    seed: u64,
    hosts: usize,
    threads: usize,
    scale: u32,
    ef: usize,
    faults: &str,
) -> String {
    format!(
        "kimbap sim --algo {algo} --seed {seed} --hosts {hosts} --threads {threads} \
         --scale {scale} --ef {ef} --faults {faults} --trace trace.jsonl"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plans_are_seed_deterministic() {
        for seed in 0..64 {
            assert_eq!(
                format!("{:?}", random_fault_plan(seed, 3)),
                format!("{:?}", random_fault_plan(seed, 3))
            );
        }
    }

    #[test]
    fn fault_plans_vary_with_seed() {
        let distinct = (0..64)
            .map(|s| format!("{:?}", random_fault_plan(s, 3)))
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 32, "plans should differ across seeds");
    }

    #[test]
    fn kill_plans_are_deterministic_and_cover_both_modes() {
        // The CI fuzz smoke runs seeds 1..=25: a healthy mix of seeds
        // with and without a permanent kill must fall in that window.
        let kills = (1..=25).filter(|&s| kill_victim(s, 4).is_some()).count();
        assert!((5..=20).contains(&kills), "skewed kill coverage: {kills}/25");
        for seed in 0..32 {
            assert_eq!(
                format!("{:?}", random_kill_plan(seed, 4)),
                format!("{:?}", random_kill_plan(seed, 4))
            );
        }
    }

    #[test]
    fn chunk_drops_are_deterministic_and_well_formed() {
        // The CI fuzz smoke runs seeds 1..=25: a healthy share of them
        // must carry a chunk-targeted drop so partial-stream recovery is
        // exercised, and the derived link must always be a remote pair.
        let hits = (1..=25).filter(|&s| chunk_drop(s, 4).is_some()).count();
        assert!((5..=18).contains(&hits), "skewed chunk-drop coverage: {hits}/25");
        for seed in 0..64 {
            assert_eq!(chunk_drop(seed, 4), chunk_drop(seed, 4));
            if let Some((from, to, round, chunk)) = chunk_drop(seed, 4) {
                assert!(from < 4 && to < 4 && from != to);
                assert!((1..=3).contains(&round));
                assert!(chunk < 2);
            }
        }
        assert_eq!(chunk_drop(7, 1), None, "no peers, no chunk faults");
    }

    #[test]
    fn churn_plans_are_deterministic_and_cover_all_interleavings() {
        // The CI churn fuzz runs seeds 1..=25: that window must contain
        // joins, kills, AND at least a few seeds drawing both at once
        // (the join-then-kill / kill-then-join interleavings the grow
        // and shrink recovery paths have to compose under).
        let joins = (1..=25).filter(|&s| join_entry(s, 4).is_some()).count();
        assert!((8..=20).contains(&joins), "skewed join coverage: {joins}/25");
        let both = (1..=25)
            .filter(|&s| join_entry(s, 4).is_some() && kill_victim(s, 4).is_some())
            .count();
        assert!(both >= 2, "no seeds mix a join with a kill: {both}/25");
        for seed in 0..32 {
            assert_eq!(
                format!("{:?}", random_churn_plan(seed, 4)),
                format!("{:?}", random_churn_plan(seed, 4))
            );
            if let Some((h, delay_ms)) = join_entry(seed, 4) {
                assert_eq!(h, 4, "the joiner is the spare capacity slot");
                assert!(delay_ms <= 1);
                assert_eq!(
                    random_churn_plan(seed, 4).latent_hosts(),
                    vec![4],
                    "the churn plan must declare the joiner latent"
                );
            }
        }
    }

    #[test]
    fn serve_job_mixes_are_deterministic_with_healthy_coverage() {
        // The CI serve fuzz runs seeds 1..=25: that window must contain
        // duplicate submissions (cache hits mid-schedule), deadlines of
        // both flavours, and every algorithm in the pool.
        let mut dup_seeds = 0;
        let mut tight = 0;
        let mut generous = 0;
        let mut algos = std::collections::HashSet::new();
        for seed in 1..=25u64 {
            let mix = serve_job_mix(seed, 3);
            assert_eq!(mix, serve_job_mix(seed, 3), "mix must be seed-pure");
            assert!((3..=8).contains(&mix.len()));
            let mut seen = std::collections::HashSet::new();
            let mut dups = false;
            for (host, job) in &mix {
                assert!(*host < 3);
                algos.insert(job.algo);
                dups |= !seen.insert((job.algo, job.params));
                match job.deadline {
                    Some(d) if d <= Duration::from_millis(3) => tight += 1,
                    Some(_) => generous += 1,
                    None => {}
                }
            }
            dup_seeds += usize::from(dups);
        }
        // Deliberate dups plus accidental (algo, params) collisions make
        // duplicate-rich mixes the norm — exactly what the cache wants.
        assert!(dup_seeds >= 8, "skewed dup coverage: {dup_seeds}/25");
        assert!(tight >= 2, "no tight deadlines in the CI window: {tight}");
        assert!(generous >= 2, "no generous deadlines in the CI window: {generous}");
        assert_eq!(algos.len(), SERVE_ALGOS.len(), "algo pool not covered");
    }

    #[test]
    fn serve_fault_plans_are_deterministic_and_banded() {
        // A healthy share of the CI window must carry the mid-stream
        // crash-or-stall, and it must land inside some job's round band.
        let mut structured = 0;
        for seed in 1..=25u64 {
            let jobs = serve_job_mix(seed, 3).len();
            let plan = serve_fault_plan(seed, 3, jobs);
            assert_eq!(
                format!("{plan:?}"),
                format!("{:?}", serve_fault_plan(seed, 3, jobs))
            );
            let debug = format!("{plan:?}");
            if debug.contains("Crash") || debug.contains("Stall") {
                structured += 1;
            }
        }
        assert!(
            (4..=18).contains(&structured),
            "skewed serve fault coverage: {structured}/25"
        );
        // Single host: background noise only, no one to crash against.
        let lone = format!("{:?}", serve_fault_plan(7, 1, 5));
        assert!(!lone.contains("Crash") && !lone.contains("Stall"));
    }

    #[test]
    fn single_host_plans_have_no_structured_faults() {
        // With one host there is no peer to crash or stall relative to.
        let plan = random_fault_plan(9, 1);
        assert_eq!(format!("{plan:?}"), format!("{:?}", random_fault_plan(9, 1)));
    }
}
