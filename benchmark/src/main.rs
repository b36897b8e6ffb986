//! The Kimbap benchmark: four resident-cluster workloads, five gated
//! end-to-end metrics, per-layer probes. `README.md` beside this package
//! explains every workload and metric; `BENCHMARK.json` at the repo root
//! names them and the command that runs this program.

mod awake;
mod check;
mod json;
mod metrics;
mod probes;
mod resident;
mod stats;
mod sys;
mod trace;
mod workload;

use check::{Oracle, Verdicts};
use metrics::Metrics;
use resident::{HostOut, Loaded, Plan, SetupCost, Unit};
use stats::{median, quantile, serve_mix_counts, trimmed_jobs_per_s, CacheCounts};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{child_coverage, Recorder, MAIN};
use workload::{Sizes, Workload, HOSTS, MIX_BUMP_EVERY, MIX_CACHE_CAPACITY, MIX_FRESH, THREADS};

const USAGE: &str = "usage: kimbap-benchmark [--workload] NAME [--seed N] [--seconds S] \
[--trace [0|1]] [--smoke] [--corrupt] [--out DIR] [--spec BENCHMARK.json]
  NAME       lv-social | cclp-road | ccsv-social-tcp | serve-mix
  --seconds  measure for at least S seconds (and never fewer than 100 units)
  --trace    traced run: per-layer metrics instead of the end-to-end ones
  --smoke    tiny sizes; without NAME, check every workload's metric names
             and units against BENCHMARK.json
  --corrupt  self-test: corrupt one label per unit; must exit non-zero";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    corrupt: bool,
    out: PathBuf,
    spec: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        smoke: false,
        corrupt: false,
        out: PathBuf::from("benchmark/out"),
        spec: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        let workload = |s: &str| Workload::parse(s).ok_or(format!("unknown workload '{s}'"));
        match arg.as_str() {
            "--workload" => a.workload = Some(workload(&value("a name")?)?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=150.0).contains(&a.seconds) {
                    return Err("--seconds must be within 0..=150".into());
                }
            }
            // Bare `--trace` means on; the driver spells it `--trace 0|1`.
            "--trace" => {
                a.trace = it
                    .next_if(|s| *s == "0" || *s == "1")
                    .is_none_or(|s| s == "1")
            }
            "--smoke" => a.smoke = true,
            "--corrupt" => a.corrupt = true,
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--spec" => a.spec = PathBuf::from(value("a file")?),
            name if !name.starts_with('-') && a.workload.is_none() => {
                a.workload = Some(workload(name)?)
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(a)
}

/// A finished run.
struct Outcome {
    metrics: Metrics,
    verdicts: Verdicts,
    units: usize,
    /// Every set-up repetition's time to the first result, seconds.
    setups_s: Vec<f64>,
}

/// Runs one workload: set-up `sizes.setup_reps` times from nothing, the
/// last repetition staying resident for the measured units.
fn run_workload(plan: &Plan, out_dir: &Path) -> std::io::Result<Outcome> {
    let w = plan.w;
    assert!(
        plan.sizes.setup_reps >= 2,
        "the oracle is computed after the first set-up"
    );
    let epoch = Instant::now();
    let load_start = sys::loadavg();
    std::fs::create_dir_all(out_dir)?;
    let file = out_dir.join(format!("{}.kg", w.name()));
    let mut rec = Recorder::new(epoch, MAIN);
    let mut oracle = None;
    let mut costs = Vec::new();
    // Host threads' spans of the set-up-only repetitions.
    let mut recorders = Vec::new();
    let mut resident = None;
    for rep in 0..plan.sizes.setup_reps {
        let loaded = resident::load(plan, &file, &mut rec, rep)?;
        let stay = rep + 1 == plan.sizes.setup_reps;
        let (outs, verdicts) =
            resident::serve(plan, &loaded, oracle.as_ref().filter(|_| stay), epoch, rep);
        if oracle.is_none() {
            oracle = Some(Oracle::compute(w, &loaded.g, &loaded.parts));
        }
        costs.push(SetupCost {
            cluster_start_s: outs[0].cluster_start_s,
            first_result_s: outs[0].first_result_s,
            ..loaded.cost
        });
        if stay {
            resident = Some((loaded, outs, verdicts));
        } else {
            recorders.extend(outs.into_iter().map(|o| o.spans));
        }
    }
    std::fs::remove_file(&file)?;
    let (loaded, mut outs, mut verdicts) = resident.expect("the last repetition stays resident");
    let units = outs[0].units.len();
    check_counters(w, &outs, &mut verdicts);

    let mut metrics = Metrics::default();
    if plan.trace {
        per_layer(
            plan,
            &costs,
            &loaded,
            &mut outs,
            &verdicts,
            load_start,
            &mut metrics,
        );
        let coverage = child_coverage(&outs[0].spans, "probe.round");
        recorders.push(rec.into_spans());
        recorders.extend(outs.into_iter().map(|o| o.spans));
        metrics.push(
            "trace.probe_coverage_pct",
            "%",
            100.0 * coverage.iter().copied().fold(f64::INFINITY, f64::min),
        );
        metrics.push(
            "trace.spans",
            "count",
            recorders.iter().map(Vec::len).sum::<usize>() as f64,
        );
        let path = out_dir.join(format!("{}.trace.json", w.name()));
        std::fs::write(&path, trace::to_json(&recorders))?;
        println!("spans written to {}", path.display());
    } else {
        end_to_end(w, &costs, &outs[0].units, &mut metrics);
    }
    Ok(Outcome {
        metrics,
        verdicts,
        units,
        setups_s: costs.iter().map(|c| c.first_result_s).collect(),
    })
}

/// Whole-run checks on the counters: the cache counters against their
/// closed form, identical on every host; no retransmits without faults.
fn check_counters(w: Workload, outs: &[HostOut], v: &mut Verdicts) {
    let n = outs[0].units.len() as u64;
    let want = match w {
        // The warm-up unit left its eight misses resident.
        Workload::ServeMix => serve_mix_counts(
            1,
            n,
            2 * MIX_FRESH as u64,
            MIX_FRESH as u64,
            MIX_CACHE_CAPACITY as u64,
            MIX_BUMP_EVERY,
        ),
        // Every unit is one new query; the warm-up's is resident.
        _ => CacheCounts {
            hits: 0,
            misses: n,
            evictions: (n + 1).saturating_sub(w.cache_capacity() as u64),
        },
    };
    for (h, o) in outs.iter().enumerate() {
        let got = CacheCounts {
            hits: o.totals.cache_hits,
            misses: o.totals.cache_misses,
            evictions: o.totals.cache_evictions,
        };
        if got != want {
            v.failures.push(format!(
                "host {h} cache counters {got:?}, closed form {want:?}"
            ));
        }
        if o.totals.retransmits != 0 {
            v.failures.push(format!(
                "host {h} retransmitted {} frames",
                o.totals.retransmits
            ));
        }
    }
}

/// The five gated numbers (README, "End-to-end metrics").
fn end_to_end(w: Workload, costs: &[SetupCost], units: &[Unit], m: &mut Metrics) {
    let jobs = w.jobs_per_unit();
    let wall: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    let cpu_per_job: Vec<f64> = units.iter().map(|u| u.cpu_s / jobs as f64).collect();
    let with_jobs: Vec<(f64, u64)> = wall.iter().map(|&s| (s, jobs)).collect();
    m.push(
        "setup_s",
        "s",
        costs
            .iter()
            .map(|c| c.first_result_s)
            .fold(f64::INFINITY, f64::min),
    );
    m.push("job_ms", "ms", 1e3 * quantile(&wall, 0.1));
    m.push("jobs_per_s", "1/s", trimmed_jobs_per_s(&with_jobs));
    m.push("cpu_ms_per_job", "ms", 1e3 * quantile(&cpu_per_job, 0.1));
    m.push("peak_rss_mb", "MB", sys::peak_rss_mb());
}

/// Everything a traced run reports that does not come from a probe:
/// set-up stage costs, per-job counter deltas of the traced units, and
/// the ungated companions of the gated numbers.
fn per_layer(
    plan: &Plan,
    costs: &[SetupCost],
    loaded: &Loaded,
    outs: &mut [HostOut],
    verdicts: &Verdicts,
    load_start: f64,
    m: &mut Metrics,
) {
    let w = plan.w;
    let stage = |f: &dyn Fn(&SetupCost) -> f64| median(&costs.iter().map(f).collect::<Vec<_>>());
    let file_mb = loaded.cost.file_bytes as f64 / 1e6;

    m.push("graph.gen_s", "s", stage(&|c| c.gen_s));
    m.push(
        "graph.write_binary_mb_per_s",
        "MB/s",
        file_mb / stage(&|c| c.write_s),
    );
    m.push(
        "graph.read_binary_mb_per_s",
        "MB/s",
        file_mb / stage(&|c| c.read_s),
    );
    let mut compressed = None;
    let compress_s: Vec<f64> = (0..plan.sizes.probe_reps)
        .map(|_| {
            let t = Instant::now();
            compressed = Some(loaded.g.compress());
            t.elapsed().as_secs_f64()
        })
        .collect();
    m.push("graph.compress_s", "s", median(&compress_s));
    let stats = kimbap_graph::GraphStats::of(&compressed.expect("probe_reps >= 1"));
    m.push("graph.bytes_per_edge", "B", stats.bytes_per_edge());

    m.push("dist.partition_s", "s", stage(&|c| c.partition_s));
    let max_host = loaded
        .parts
        .iter()
        .map(|p| p.size_bytes())
        .max()
        .unwrap_or(0);
    m.push("dist.max_host_graph_mb", "MB", max_host as f64 / 1e6);
    let mirrors: usize = loaded.parts.iter().map(|p| p.num_mirrors()).sum();
    m.push(
        "dist.mirror_ratio",
        "ratio",
        mirrors as f64 / loaded.g.num_nodes() as f64,
    );
    m.push(
        "comm.cluster_start_ms",
        "ms",
        1e3 * stage(&|c| c.cluster_start_s),
    );

    // Counter deltas exist on the traced (odd) units, on every host.
    let jobs = w.jobs_per_unit() as f64;
    let units = &outs[0].units;
    let traced: Vec<usize> = (0..units.len())
        .filter(|&i| units[i].delta.is_some())
        .collect();
    let delta = |h: usize, i: usize| outs[h].units[i].delta.expect("traced unit");
    let med_sum = |f: &dyn Fn(&kimbap_comm::HostStats) -> u64| {
        median(
            &traced
                .iter()
                .map(|&i| (0..HOSTS).map(|h| f(&delta(h, i))).sum::<u64>() as f64)
                .collect::<Vec<_>>(),
        )
    };
    let med_host0 = |f: &dyn Fn(&Unit, &kimbap_comm::HostStats) -> f64| {
        median(
            &traced
                .iter()
                .map(|&i| f(&units[i], &delta(0, i)))
                .collect::<Vec<_>>(),
        )
    };
    let total0 = |f: &dyn Fn(&kimbap_comm::HostStats) -> u64| {
        traced.iter().map(|&i| f(&delta(0, i))).sum::<u64>() as f64
    };
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    m.push(
        "comm.messages_per_job",
        "count",
        med_sum(&|d| d.messages) / jobs,
    );
    m.push("comm.bytes_per_job", "B", med_sum(&|d| d.bytes) / jobs);
    m.push(
        "comm.chunks_per_job",
        "count",
        med_sum(&|d| d.chunks_sent) / jobs,
    );
    m.push(
        "comm.comm_share",
        "ratio",
        med_host0(&|u, d| d.comm_nanos as f64 / 1e9 / u.wall_s),
    );
    m.push(
        "comm.overlap_share",
        "ratio",
        ratio(total0(&|d| d.overlap_nanos), total0(&|d| d.comm_nanos)),
    );
    m.push(
        "comm.retransmits",
        "count",
        outs.iter().map(|o| o.totals.retransmits).sum::<u64>() as f64,
    );

    m.push(
        "engine.rounds_per_job",
        "count",
        median(&units.iter().map(|u| u.rounds as f64).collect::<Vec<_>>()),
    );
    m.push(
        "engine.request_compute_ms",
        "ms",
        med_host0(&|_, d| d.request_compute_nanos as f64 / 1e6),
    );
    m.push(
        "engine.request_sync_ms",
        "ms",
        med_host0(&|_, d| d.request_sync_nanos as f64 / 1e6),
    );
    m.push(
        "engine.reduce_compute_ms",
        "ms",
        med_host0(&|_, d| d.reduce_compute_nanos as f64 / 1e6),
    );
    m.push(
        "engine.reduce_sync_ms",
        "ms",
        med_host0(&|_, d| d.reduce_sync_nanos as f64 / 1e6),
    );
    m.push(
        "engine.active_ratio",
        "ratio",
        ratio(total0(&|d| d.active_nodes), total0(&|d| d.parfor_nodes)),
    );

    let t = &outs[0].totals;
    m.push(
        "serve.hit_ratio",
        "ratio",
        ratio(t.cache_hits as f64, (t.cache_hits + t.cache_misses) as f64),
    );
    m.push(
        "serve.evictions_per_unit",
        "count",
        t.cache_evictions as f64 / units.len() as f64,
    );
    m.push(
        "serve.deadline_missed",
        "count",
        verdicts.deadline_missed as f64,
    );

    let wall: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    m.push("run.job_p50_ms", "ms", 1e3 * median(&wall));
    m.push("run.job_p90_ms", "ms", 1e3 * quantile(&wall, 0.9));
    m.push("run.job_min_ms", "ms", 1e3 * quantile(&wall, 0.0));
    m.push(
        "run.jobs_per_s_raw",
        "1/s",
        jobs * units.len() as f64 / wall.iter().sum::<f64>(),
    );
    m.push("run.units", "count", units.len() as f64);
    m.push("run.loadavg_start", "load", load_start);
    m.push("run.loadavg_end", "load", sys::loadavg());

    // Tracing overhead: the same estimator on the traced and untraced
    // halves of this run's units.
    let p10 = |traced: bool| {
        let half: Vec<f64> = units
            .iter()
            .filter(|u| u.delta.is_some() == traced)
            .map(|u| u.wall_s)
            .collect();
        quantile(&half, 0.1)
    };
    m.push(
        "trace.overhead_pct",
        "%",
        100.0 * (p10(true) - p10(false)) / p10(false),
    );

    m.extend(std::mem::take(&mut outs[0].layers));
}

/// Prints the report and the result line; the exit code says whether
/// every check passed.
fn finish(plan: &Plan, o: &Outcome) -> ExitCode {
    let failed = o.verdicts.failures.len() as u64;
    println!(
        "{} seed={} units={} hosts={HOSTS}x{THREADS} nproc={} {}",
        plan.w.name(),
        plan.seed,
        o.units,
        sys::allowed_cpus().len(),
        if plan.trace { "traced" } else { "untraced" }
    );
    println!("  set-up repetitions (s): {:.4?}", o.setups_s);
    print!("{}", o.metrics.table());
    for f in o.verdicts.failures.iter().take(10) {
        println!("FAILED: {f}");
    }
    println!(
        "{}: {} attempted, {failed} failed",
        plan.w.name(),
        o.verdicts.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        o.verdicts.attempted,
        o.metrics.to_json()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--smoke` without a workload: every workload, traced and untraced, at
/// tiny sizes; the reported names and units must be exactly those
/// `BENCHMARK.json` names, and a corrupted label must be caught.
fn smoke(args: &Args) -> Result<(), String> {
    let text =
        std::fs::read_to_string(&args.spec).map_err(|e| format!("{}: {e}", args.spec.display()))?;
    let spec = json::parse(&text)?;
    let named: Vec<&str> = spec
        .get("workloads")
        .map(|w| {
            w.items()
                .iter()
                .filter_map(|w| w.get("name")?.as_str())
                .collect()
        })
        .unwrap_or_default();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if named != ours {
        return Err(format!(
            "BENCHMARK.json names workloads {named:?}, the program has {ours:?}"
        ));
    }
    let plan = |w, trace, corrupt| Plan {
        w,
        sizes: Sizes::SMOKE,
        seed: args.seed,
        seconds: 0.0,
        trace,
        corrupt,
    };
    for w in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let o = run_workload(&plan(w, trace, false), &args.out).map_err(|e| e.to_string())?;
            o.metrics
                .check_against(&spec, section)
                .map_err(|e| format!("{}: {e}", w.name()))?;
            if let Some(f) = o.verdicts.failures.first() {
                return Err(format!("{}: {f}", w.name()));
            }
            println!(
                "smoke {:<16} {section:<10} {} attempted, 0 failed",
                w.name(),
                o.verdicts.attempted
            );
        }
    }
    let o = run_workload(&plan(Workload::CclpRoad, false, true), &args.out)
        .map_err(|e| e.to_string())?;
    if o.verdicts.failures.len() as u64 != o.verdicts.attempted {
        return Err("a corrupted label went unnoticed".into());
    }
    println!(
        "smoke corrupt-label self-test: {} of {} jobs failed, as they must",
        o.verdicts.failures.len(),
        o.verdicts.attempted
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, cpu] = argv.as_slice() {
        if flag == awake::SPIN_ARG {
            awake::spin(cpu.parse().expect("spinner cpu"));
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One core per compute thread, asserted rather than hoped for:
    // oversubscribed hosts would time the scheduler, not the system.
    let cpus = sys::allowed_cpus();
    if cpus.len() < HOSTS * THREADS {
        eprintln!(
            "{HOSTS} hosts x {THREADS} threads need {} cores, this process has {}",
            HOSTS * THREADS,
            cpus.len()
        );
        return ExitCode::from(2);
    }
    let _awake = awake::KeepAwake::start(&cpus[..HOSTS * THREADS]);
    let Some(w) = args.workload else {
        if !args.smoke {
            eprintln!("no workload named\n{USAGE}");
            return ExitCode::from(2);
        }
        return match smoke(&args) {
            Ok(()) => {
                println!("smoke ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let plan = Plan {
        w,
        sizes: if args.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        },
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds },
        trace: args.trace,
        corrupt: args.corrupt,
    };
    match run_workload(&plan, &args.out) {
        Ok(o) => finish(&plan, &o),
        Err(e) => {
            eprintln!("{}: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}
