//! The `kimbap` command-line tool: generate graphs, inspect them, run the
//! distributed algorithms on a simulated cluster, and compile vertex
//! programs.
//!
//! ```text
//! kimbap gen --kind rmat --scale 12 --ef 8 --out g.kg
//! kimbap stats g.kg
//! kimbap run cc-sv g.kg --hosts 4 --threads 2
//! kimbap run cc-lp g.kg --hosts 3 --transport tcp --faults drop --seed 1
//! kimbap run cc-sv g.kg --hosts 4 --faults kill
//! kimbap run louvain g.kg --hosts 4
//! kimbap compile program.kv [--no-opt]
//! ```
//!
//! `--transport tcp` runs each host as its own OS process connected over
//! TCP loopback: the launcher re-executes this binary with the hidden
//! `_worker` subcommand once per host and waits for them; each worker binds
//! `127.0.0.1:port_base+host` ([`DEFAULT_PORT_BASE`] unless `--port-base`
//! says otherwise). The same seeded `--faults` plans run on
//! either transport and must produce identical outputs.
//!
//! `run`, `sim` and `_worker` share one host-side launcher ([`run_host`])
//! over one algorithm table ([`serve::TABLE`]), the one `serve` executes
//! jobs from. It ends every job by gathering the hosts' outputs on logical
//! rank 0 ([`serve::gather_job_outputs`]); whichever process holds that
//! rank — the in-proc or sim launcher, or one TCP worker — reports the
//! result ([`finish`]). The fault plan alone decides whether a launch may
//! change its membership ([`FaultPlan::changes_membership`]: `--faults
//! kill` or `join`, or `sim --faults kill|churn`); every other plan keeps
//! the fixed-membership path.

use kimbap::elastic::{live_part, run_plan_elastic};
use kimbap::prelude::*;
use kimbap::serve::{
    self, Algo, AlgoRow, HostServer, JobOutput, JobReport, JobSpec, JobStatus, TABLE,
};
use kimbap::simfuzz;
use kimbap_comm::{
    new_trace_sink, run_transport_host, CrashSignal, HostError, TcpTransport, TransportConfig,
};
use kimbap_compiler::{classify_program, compile, frontend, OptLevel};
use kimbap_dist::{partition_cfg, PartitionCfg};
use kimbap_graph::io;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// A subcommand's entry point: its arguments after the subcommand name.
type Command = fn(&[String]) -> CliResult;

/// Every subcommand, by the name `main` dispatches on.
const COMMANDS: [(&str, Command); 9] = [
    ("gen", cmd_gen),
    ("stats", cmd_stats),
    ("run", cmd_run),
    ("sim", cmd_sim),
    ("serve", cmd_serve),
    ("submit", cmd_submit),
    ("serve-sim", cmd_serve_sim),
    ("_worker", cmd_worker),
    ("compile", cmd_compile),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((_, cmd)) = args
        .first()
        .and_then(|name| COMMANDS.iter().find(|(n, _)| n == name))
    else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match cmd(&args[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where the TCP workers' listener ports start (host `i` binds
/// `DEFAULT_PORT_BASE + i`): below Linux's default ephemeral port range
/// (32768-60999), so a port an earlier outgoing connection still holds
/// cannot make `bind` fail, and clear of the bases `scripts/ci.sh` uses
/// (26800-28117).
const DEFAULT_PORT_BASE: u16 = 24000;

const USAGE: &str = "\
usage:
  kimbap gen --kind <rmat|grid|er> [--scale N] [--ef N] [--rows N] [--cols N]
             [--nodes N] [--edges N] [--seed N] [--weights MAX]
             [--unit-weights] --out FILE
  kimbap stats FILE [--hosts N]
  kimbap run <cc-sv|cc-lp|cc-sclp|mis|msf|louvain|leiden> FILE
             [--hosts N] [--threads N] [--transport inproc|tcp]
             [--faults none|drop|corrupt|crash|kill|join] [--seed N]
             [--port-base N] [--out FILE] [--raw]
  kimbap sim [--algo <cc-sv|cc-lp|cc-sclp|mis|msf|louvain|leiden>]
             [--seed N] [--seeds N] [--hosts N] [--threads N]
             [--scale N] [--ef N] [--faults random|kill|churn]
             [--trace FILE] [--out FILE] [--raw]
  kimbap serve FILE [--hosts N] [--threads N] [--jobs FILE] [--job SPEC]...
               [--cache-capacity N] [--out-dir DIR] [--raw]
  kimbap submit --jobs FILE SPEC
  kimbap serve-sim [--seed N] [--seeds N] [--hosts N] [--threads N]
                   [--scale N] [--ef N] [--raw]
  kimbap compile FILE.kv [--no-opt]

graphs are stored in the kimbap binary format (.kg) or may be text edge
lists; stats --hosts N also partitions the graph under the default policy
and prints each host's masters, mirrors, edges and weight (edges plus a
per-master term: what the partitioner balances) with their max/mean;
vertex programs (.kv) use the surface syntax of kimbap-compiler's
frontend. run, sim, serve and the TCP workers look an algorithm up in
one table (kimbap::serve::TABLE), so a name picks the same executor
everywhere: cc-sv and cc-lp are compiled plans, the rest hand-written loops.
--faults injects a seeded fault plan and --out writes the merged output
one value per line (labels; 0/1 membership for mis; weight, edge count
and the sorted edges for msf) for diffing across launchers, transports
and storage tiers. --transport tcp spawns one worker process per host
over TCP loopback, host i listening on port --port-base + i (default
24000, below Linux's ephemeral port range 32768-60999); the workers
gather their outputs on the first one, which writes --out and prints
the result.

kimbap sim replays a fully deterministic multi-host schedule on the
discrete-event simulation backend: the seed fixes the R-MAT input graph,
a randomized fault plan (drops, dups, corruption, delays, crashes,
stalls), and every scheduling decision, so the same seed reproduces the
same run byte for byte. Each seed must either converge to the fault-free
reference labels or surface a communication failure — anything else (and
any divergence) fails with the exact command that replays it. --seeds N
fuzzes N consecutive seeds; --trace dumps the event schedule as JSONL.

The fault plan decides whether the membership may change; no switch
does. --faults kill survives permanent host loss: host 1 exits mid-run,
the survivors agree it out of the membership and re-converge, the
compiled-plan rows (cc-sv, cc-lp) from their last checkpoint re-sharded
over the survivors, the others by restarting, and the output must equal
the fault-free one. --faults join (compiled-plan rows only) admits a
live host mid-run: one spare host knocks ~50 ms in (on --transport tcp it
is its own worker process, 50 ms after that process starts), the members
stop at a round boundary, re-shard the master maps over the expanded
ownership, and resume. Every other plan keeps the fixed membership.
kimbap sim --faults picks the seeded plan family: random (frame noise,
crashes, stalls; the default), kill (noise plus a permanent kill on ~40%
of seeds) or churn (kills plus joins, compiled-plan rows only); kill and
churn run every seed on the elastic path and check each interleaving
converges.

runs are read-only over the graph, so each host stores its local CSR on
the compressed tier (bit-packed delta neighbor blocks) by default; --raw
keeps the uncompressed arrays. --raw changes only memory, never
outputs: the CI smoke diffs compressed against raw labels. Where the
blocks fall takes no flag: the partitioner cuts them so that hosts carry
equal work.

kimbap serve keeps one partitioned graph resident and runs a whole batch
of analytics jobs over it. A job SPEC is
algo[,prio=N][,deadline-ms=N][,params=N][,host=N] — for example
'louvain,prio=3,deadline-ms=500'; params is an opaque query tag (equal
(algo,params) pairs share one cached result) and host picks the
admission queue the job enters (round-robin by default). kimbap submit
appends a validated SPEC to a jobs file that serve later drains via
--jobs. Jobs run in an agreed order (priority desc, tightest deadline
first, then submission provenance) identical on every host; repeated
queries are answered from a per-host result cache keyed by (graph
epoch, algorithm, params), and a job that exceeds its deadline is
marked missed by agreement instead of wedging the batch.

kimbap serve-sim fuzzes the scheduler the way kimbap sim fuzzes one
algorithm: the seed fixes the graph, a 3-8 job mix (random priorities,
deadlines, duplicate submissions, submitting hosts), and a fault plan
that can land one crash or stall inside a specific job's round band.
Every completed job must match the same job run serially on a fault-
free cluster, byte for byte; anything else fails with the exact
serve-sim command that replays it.";

type CliResult = Result<(), String>;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Rejects every `--flag` that subcommand `cmd` does not accept, so a typo
/// fails instead of silently running without the option. `valued` flags
/// consume the argument after them (never inspected, whatever it looks
/// like); `switches` stand alone.
fn check_flags(cmd: &str, args: &[String], valued: &[&str], switches: &[&str]) -> CliResult {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if valued.contains(&a.as_str()) {
            it.next();
        } else if a.starts_with("--") && !switches.contains(&a.as_str()) {
            return Err(format!("unknown flag '{a}' for 'kimbap {cmd}'"));
        }
    }
    Ok(())
}

fn flag_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
    }
}

/// Reads a `--hosts` or `--threads` value, which must be at least 1: zero
/// is a usage error, not an empty run or a panic further in.
fn flag_count(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match flag_num(args, name, default)? {
        0 => Err(format!("{name} must be at least 1")),
        n => Ok(n),
    }
}

/// What a launch partitions under: `policy` over `hosts` hosts, with
/// local CSRs compressed (every run is read-only over the graph) unless
/// `--raw` is given.
fn tier_cfg(policy: Policy, hosts: usize, args: &[String]) -> PartitionCfg {
    PartitionCfg {
        compressed: !args.iter().any(|a| a == "--raw"),
        ..PartitionCfg::new(policy, hosts)
    }
}

/// Looks an algorithm name up in [`serve::TABLE`] — before any I/O, so a
/// typo fails fast — and names the valid spellings when it is not there.
fn parse_algo(name: &str) -> Result<&'static AlgoRow, String> {
    Algo::parse(name).map(Algo::row).ok_or_else(|| {
        let valid = Algo::ALL.map(Algo::name).join(", ");
        format!("unknown algorithm '{name}' (valid: {valid})")
    })
}

/// Fails unless `row` can admit the joiner `--faults FAULTS` declares:
/// only a compiled plan resumes on re-sharded state.
fn check_growable(row: &AlgoRow, faults: &str) -> CliResult {
    if row.plan.is_some() {
        return Ok(());
    }
    let rows: Vec<_> = TABLE.iter().filter(|r| r.plan.is_some()).map(|r| r.name).collect();
    let rows = rows.join(", ");
    let name = row.name;
    Err(format!("--faults {faults} admits a joiner by resuming a compiled plan: {rows}, not {name}"))
}

fn load_graph(path: &str) -> Result<Graph, String> {
    let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut r = BufReader::new(f);
    if path.ends_with(".kg") {
        io::read_binary(&mut r).map_err(|e| format!("read {path}: {e}"))
    } else {
        io::read_edge_list(r).map_err(|e| format!("read {path}: {e}"))
    }
}

fn cmd_gen(args: &[String]) -> CliResult {
    check_flags(
        "gen",
        args,
        &[
            "--kind", "--scale", "--ef", "--rows", "--cols", "--nodes", "--edges", "--seed",
            "--weights", "--out",
        ],
        &["--unit-weights"],
    )?;
    let kind = flag(args, "--kind").ok_or("missing --kind")?;
    let seed = flag_num(args, "--seed", 42u64)?;
    let out = flag(args, "--out").ok_or("missing --out")?;
    let mut g = match kind.as_str() {
        "rmat" => gen::rmat(
            flag_num(args, "--scale", 12u32)?,
            flag_num(args, "--ef", 8usize)?,
            seed,
        ),
        "grid" => gen::grid_road(
            flag_num(args, "--rows", 100usize)?,
            flag_num(args, "--cols", 100usize)?,
            seed,
        ),
        "er" => gen::erdos_renyi(
            flag_num(args, "--nodes", 10_000usize)?,
            flag_num(args, "--edges", 50_000usize)?,
            seed,
        ),
        other => return Err(format!("unknown kind '{other}'")),
    };
    if let Some(maxw) = flag(args, "--weights") {
        let maxw: u64 = maxw.parse().map_err(|_| "bad --weights")?;
        g = gen::with_random_weights(&g, maxw, seed ^ WEIGHT_SEED_SALT);
    }
    // Generators merge parallel edges by summing weights, so even "plain"
    // R-MAT graphs carry weights > 1; this forces every weight back to 1
    // (the compressed tier then stores no weight bytes at all).
    if args.iter().any(|a| a == "--unit-weights") {
        g = gen::with_unit_weights(&g);
    }
    let f = File::create(&out).map_err(|e| format!("create {out}: {e}"))?;
    io::write_binary(&g, BufWriter::new(f)).map_err(|e| e.to_string())?;
    println!("wrote {} ({})", out, GraphStats::of(&g));
    Ok(())
}

/// Salt mixed into derived weight seeds.
const WEIGHT_SEED_SALT: u64 = 0x5eed;

fn cmd_stats(args: &[String]) -> CliResult {
    check_flags("stats", args, &["--hosts"], &[])?;
    let path = args.first().ok_or("missing FILE")?;
    let hosts: usize = flag_num(args, "--hosts", 0)?;
    let g = load_graph(path)?;
    println!("{}", GraphStats::of(&g));
    println!("symmetric: {}", g.is_symmetric());
    if !g.is_compressed() {
        let c = GraphStats::of(&g.compress());
        println!(
            "compressed: {} bytes ({:.2} B/edge, {:.2}x smaller)",
            c.size_bytes,
            c.bytes_per_edge(),
            GraphStats::of(&g).size_bytes as f64 / c.size_bytes as f64
        );
    }
    if hosts > 0 {
        let policy = Policy::default();
        let parts = partition(&g, policy, hosts);
        println!("partition: {policy}, {hosts} hosts");
        println!("  host    masters    mirrors      edges     weight");
        for p in &parts {
            println!(
                "  {:>4} {:>10} {:>10} {:>10} {:>10}",
                p.host(),
                p.num_masters(),
                p.num_mirrors(),
                p.num_local_edges(),
                p.load_weight()
            );
        }
        let loads: Vec<u64> = parts.iter().map(|p| p.load_weight()).collect();
        let (max, total) = (loads.iter().max().unwrap_or(&0), loads.iter().sum::<u64>());
        println!(
            "balance: {:.3} max/mean host weight",
            (max * hosts as u64) as f64 / total.max(1) as f64
        );
    }
    Ok(())
}

/// Builds one of the named, seeded fault plans shared by `--faults` on
/// both transports; the names match the fixed plans of the in-proc fault
/// matrix so CLI runs can be diffed against the test suite's expectations.
fn fault_plan(name: &str, seed: u64, hosts: usize) -> Result<FaultPlan, String> {
    if hosts < 2 && name != "none" {
        return Err("--faults needs at least 2 hosts".into());
    }
    Ok(match name {
        "none" => FaultPlan::new(),
        "drop" => FaultPlan::new()
            .drop_frame(0, 1, 1)
            .with_seed(seed)
            .drop_rate(0.02),
        "corrupt" => FaultPlan::new()
            .corrupt_frame(1, (hosts - 1).min(2), 1, 55)
            .with_seed(seed)
            .corrupt_rate(0.02),
        "crash" => FaultPlan::new().crash_host(1, 2),
        // Permanent loss: host 1 dies at round 2 and never comes back —
        // in process mode the worker exits with KILLED_EXIT_CODE; the
        // survivors shrink past it.
        "kill" => FaultPlan::new().kill_host(1, 2),
        // Live join: the highest capacity slot starts latent and knocks
        // 50 ms into the run; the launcher sizes the cluster one past
        // --hosts for it.
        "join" => FaultPlan::new().join_host(hosts - 1, 50),
        other => return Err(format!("unknown fault plan '{other}'")),
    })
}

/// The one host-side entry point of every launcher (in-proc `run`, the TCP
/// worker, `sim`): runs `row` on this host's own part of `g` ([`live_part`])
/// and gathers the outputs on logical rank 0, which returns the merged
/// fingerprint (other hosts `None`). Fixed membership builds the part once
/// and recovers in place on it. `elastic` (the fault plan may change the
/// membership): a row with a plan resumes from re-sharded checkpoints on a
/// part per attempt (a joiner that gives up returns `None` without joining
/// the gather); a row without one restarts on a part over the survivors of
/// a shrink.
fn run_host(
    row: &AlgoRow,
    g: &Graph,
    cfg: PartitionCfg,
    elastic: bool,
    ctx: &HostCtx,
) -> Option<Vec<u64>> {
    let gather = |ctx: &HostCtx, out| serve::gather_job_outputs(ctx, row.algo, g.num_nodes(), out);
    match row.algo.plan() {
        Some(plan) if elastic => {
            let joiner = !ctx.is_member();
            let Some(out) = run_plan_elastic(g, cfg, plan, ctx) else {
                println!("joiner gave up: the members finished before admission");
                return None;
            };
            if joiner {
                println!("host {} was admitted mid-run", ctx.host());
            }
            let masters = out.map_values.into_iter().next().unwrap_or_default();
            ctx.run_recovering(|ctx| gather(ctx, JobOutput::Masters(masters.clone())))
        }
        _ if elastic => {
            ctx.run_elastic(|ctx| gather(ctx, (row.run)(&live_part(g, cfg, ctx), ctx, 0)))
        }
        _ => {
            let part = live_part(g, cfg, ctx);
            ctx.run_recovering(|ctx| gather(ctx, (row.run)(&part, ctx, 0)))
        }
    }
}

/// Launches one worker process of this same binary per capacity slot,
/// connected over TCP loopback, each with `run`'s arguments less the
/// transport plus its `--host`, and waits for them. Any worker exiting
/// non-zero fails the run — except, when `plan` kills a host, one dying
/// with [`kimbap_comm::KILLED_EXIT_CODE`]: the injected permanent loss.
fn run_tcp(args: &[String], plan: &FaultPlan, capacity: usize) -> CliResult {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let at = args.iter().position(|a| a == "--transport");
    let forwarded = args.iter().enumerate().filter(|(i, _)| at.is_none_or(|t| *i != t && *i != t + 1));
    let forwarded: Vec<&String> = forwarded.map(|(_, a)| a).collect();
    let mut children = Vec::with_capacity(capacity);
    for h in 0..capacity {
        let child = std::process::Command::new(&exe)
            .arg("_worker")
            .args(&forwarded)
            .args(["--host", &h.to_string()])
            .spawn()
            .map_err(|e| format!("spawn worker {h}: {e}"))?;
        children.push((h, child));
    }
    let mut failed = Vec::new();
    for (h, mut child) in children {
        let status = child.wait().map_err(|e| format!("wait worker {h}: {e}"))?;
        if plan.changes_membership() && status.code() == Some(kimbap_comm::KILLED_EXIT_CODE) {
            println!("worker {h} was killed; survivors shrank past it");
        } else if !status.success() {
            failed.push(format!("worker {h} exited with {status}"));
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

/// Hidden subcommand: one TCP host process spawned by [`run_tcp`], with
/// `run`'s arguments and its own `--host`.
fn cmd_worker(args: &[String]) -> CliResult {
    check_flags(
        "_worker",
        args,
        &["--hosts", "--host", "--threads", "--faults", "--seed", "--port-base", "--out"],
        &["--raw"],
    )?;
    launch(args, Some(flag_num(args, "--host", 0)?))
}

/// Runs `kimbap run`'s job: on an in-proc cluster, by spawning TCP worker
/// processes, or — for a worker, `host` — as that one host over TCP.
fn launch(args: &[String], host: Option<usize>) -> CliResult {
    let row = parse_algo(args.first().ok_or("missing algorithm")?)?;
    let path = args.get(1).ok_or("missing FILE")?;
    let hosts = flag_count(args, "--hosts", 2)?;
    let threads = flag_count(args, "--threads", 2)?;
    let transport = flag(args, "--transport").unwrap_or_else(|| "inproc".into());
    let faults = flag(args, "--faults").unwrap_or_else(|| "none".into());
    let seed: u64 = flag_num(args, "--seed", 1)?;
    if !matches!(transport.as_str(), "inproc" | "tcp") {
        return Err(format!("unknown transport '{transport}'"));
    }
    if faults == "join" {
        check_growable(row, &faults)?;
    }
    // The join plan's latent host occupies one capacity slot past the
    // requested member count: the cluster starts computing on --hosts
    // members and grows into the spare when the joiner knocks.
    let capacity = if faults == "join" { hosts + 1 } else { hosts };
    let plan = fault_plan(&faults, seed, capacity)?;
    let elastic = plan.changes_membership();
    if transport == "tcp" && host.is_none() {
        return run_tcp(args, &plan, capacity);
    }
    let cfg = tier_cfg(row.policy, hosts, args);
    let g = load_graph(path)?;
    if host.unwrap_or(0) == 0 {
        println!("input: {}", GraphStats::of(&g));
        println!("storage: {}", if cfg.compressed { "compressed" } else { "raw" });
    }
    let t = Instant::now();
    let merged = match host {
        None => {
            let cluster = Cluster::with_threads(capacity, threads);
            match run_cluster(row, &g, cfg, &cluster, plan, elastic)? {
                Outcome::Done(merged) => Some(merged),
                Outcome::Aborted(m) => return Err(format!("run aborted: {m}")),
            }
        }
        Some(host) => {
            let port_base: u16 = flag_num(args, "--port-base", DEFAULT_PORT_BASE)?;
            let latent = plan.latent_hosts();
            let config = TransportConfig::default();
            let transport = match TcpTransport::bind(host, capacity, port_base, config, &latent) {
                Ok(t) => t,
                // A joiner that cannot reach any member (they finished
                // and closed their listeners first) gives up benignly:
                // the members' outputs already cover every node.
                Err(e) if latent.contains(&host) => {
                    println!("joiner could not reach the cluster ({e}); giving up");
                    return Ok(());
                }
                Err(e) => return Err(format!("host {host}: bind tcp transport: {e}")),
            };
            run_transport_host(&transport, threads, plan, |ctx| {
                run_host(row, &g, cfg, elastic, ctx)
            })
            .map_err(|e| format!("host {host}: {e}"))?
        }
    };
    if let Some(fp) = merged {
        let summary = finish(row, &g, &fp, flag(args, "--out").as_deref())?;
        println!("{summary} in {:.2?}", t.elapsed());
    }
    Ok(())
}

/// Reports a merged fingerprint: writes it to `out` (if given), one value
/// per line, and returns the row's summary of it. Whichever process holds
/// the fingerprint calls it: the in-proc and sim launchers, or the TCP
/// worker at logical rank 0.
fn finish(row: &AlgoRow, g: &Graph, fp: &[u64], out: Option<&str>) -> Result<String, String> {
    if let Some(out) = out {
        write_lines(out, fp)?;
    }
    Ok((row.describe)(g, fp))
}

/// How a launch under faults ended: every host finished, or at least one
/// aborted with a *communication-rooted* error. Faults must surface as
/// timeouts / failed peers — a non-communication panic is a bug and fails
/// the run.
enum Outcome<T> {
    /// Every host finished; what they produced.
    Done(T),
    /// A host aborted cleanly on a communication failure (its message).
    Aborted(String),
}

fn host_values<R>(
    res: Vec<Result<R, HostError>>,
    elastic: bool,
) -> Result<Outcome<Vec<R>>, String> {
    let mut vals = Vec::with_capacity(res.len());
    let mut aborted = None;
    for (h, r) in res.into_iter().enumerate() {
        match r {
            Ok(v) => vals.push(v),
            // In an elastic run the killed host is an *expected*
            // casualty: it aborts with its own permanent-loss error while
            // the survivors shrink past it, so its result is skipped
            // rather than treated as the run's outcome.
            Err(HostError { signal: Some(CrashSignal::Killed { .. }), .. }) if elastic => {
                println!("host {h} was killed; survivors shrank past it");
            }
            Err(e) if e.signal.is_some() => aborted = Some(e.to_string()),
            Err(e) => return Err(format!("non-communication host panic: {e}")),
        }
    }
    match aborted {
        Some(m) => Ok(Outcome::Aborted(m)),
        None if vals.is_empty() => Ok(Outcome::Aborted("every host was killed".into())),
        None => Ok(Outcome::Done(vals)),
    }
}

/// Runs `row` through [`run_host`] on every host of `cluster` under `plan`
/// and returns the canonical `u64` fingerprint logical rank 0 gathered
/// (see [`serve::merge_job_outputs`]).
fn run_cluster(
    row: &AlgoRow,
    g: &Graph,
    cfg: PartitionCfg,
    cluster: &Cluster,
    plan: FaultPlan,
    elastic: bool,
) -> Result<Outcome<Vec<u64>>, String> {
    let res = cluster.try_run_with_faults(plan, |ctx| run_host(row, g, cfg, elastic, ctx));
    Ok(match host_values(res, elastic)? {
        Outcome::Aborted(m) => Outcome::Aborted(m),
        Outcome::Done(outs) => Outcome::Done(
            outs.into_iter()
                .flatten()
                .next()
                .ok_or("no host gathered the outputs")?,
        ),
    })
}

/// Runs one seed end-to-end on `cfg.hosts` members: generate the graph,
/// compute the fault-free reference, replay the schedule `draw` derives
/// from the seed on the sim backend (on the elastic path if `elastic`),
/// dump the trace (before verdicts, so a failing seed leaves its schedule
/// on disk), and check convergence. Either verdict names the trace length.
#[allow(clippy::too_many_arguments)]
fn run_sim_seed(
    row: &AlgoRow,
    seed: u64,
    cfg: PartitionCfg,
    threads: usize,
    scale: u32,
    ef: usize,
    draw: simfuzz::DrawPlan,
    elastic: bool,
    trace_path: Option<&str>,
    out: Option<&str>,
) -> Result<Outcome<String>, String> {
    let hosts = cfg.hosts;
    let mut g = gen::rmat(scale, ef, seed);
    if row.weighted {
        g = gen::with_random_weights(&g, 1 << 16, seed ^ WEIGHT_SEED_SALT);
    }
    // Fault-free reference on the in-proc backend (a standing one-seed
    // conformance check between the two local backends), validated by the
    // row's structural check against the single-threaded reference.
    let reference = |hosts: usize| -> Result<Vec<u64>, String> {
        let parts = partition_cfg(&g, &PartitionCfg { hosts, ..cfg });
        let cluster = Cluster::with_threads(hosts, threads);
        let labels = serve::serial_reference(g.num_nodes(), &parts, &cluster, row.algo);
        (row.check)(&g, &labels).map(|()| labels)
    };
    let baseline = reference(hosts)?;
    let plan = draw(seed, hosts);
    // A fired kill makes the survivors finish on the shrunk membership.
    // Algorithms whose output depends on the partition (louvain/leiden)
    // then legitimately converge to the fault-free output of a cluster
    // one host smaller, so that baseline is accepted too.
    let killed = plan.changes_membership() && simfuzz::kill_victim(seed, hosts).is_some();
    let shrunk_baseline = if killed {
        Some(reference(hosts - 1)?)
    } else {
        None
    };
    // A churn plan's joiner occupies one spare capacity slot past the
    // member count; seeds without a join run at plain capacity.
    let capacity = hosts + plan.latent_hosts().len();
    let sink = new_trace_sink();
    let cluster = Cluster::with_threads(capacity, threads)
        .sim(seed)
        .with_transport_config(simfuzz::sim_transport_config())
        .with_trace_sink(sink.clone());
    let outcome = run_cluster(row, &g, cfg, &cluster, plan, elastic)?;
    let trace = std::mem::take(&mut *sink.lock());
    if let Some(path) = trace_path {
        let events: Vec<String> = trace.iter().map(|ev| ev.to_json()).collect();
        write_lines(path, &events)?;
    }
    let events = trace.len();
    Ok(match outcome {
        Outcome::Aborted(m) => Outcome::Aborted(format!("{m} ({events} events)")),
        Outcome::Done(labels) => {
            if labels != baseline && shrunk_baseline.as_ref() != Some(&labels) {
                return Err("labels diverge from the fault-free baseline".into());
            }
            // No wall-clock time: the verdict depends on the seed alone.
            let summary = finish(row, &g, &labels, out)?;
            Outcome::Done(format!("{summary}, {events} events"))
        }
    })
}

/// The seed loop `sim` and `serve-sim` share: runs `one` on `--seeds`
/// consecutive seeds from `--seed` and prints each verdict. A seed must
/// converge or surface a communication failure; anything else fails the
/// command with the `replay` invocation that reproduces it.
fn fuzz_seeds(
    args: &[String],
    replay: impl Fn(u64) -> String,
    one: impl Fn(u64) -> Result<Outcome<String>, String>,
) -> CliResult {
    let seed: u64 = flag_num(args, "--seed", 1)?;
    let nseeds: u64 = flag_num(args, "--seeds", 1)?;
    let t = Instant::now();
    let (mut converged, mut aborted) = (0u64, 0u64);
    for s in seed..seed.saturating_add(nseeds) {
        match one(s).map_err(|e| format!("seed {s}: {e}\nreplay: {}", replay(s)))? {
            Outcome::Done(detail) => {
                converged += 1;
                println!("seed {s}: converged ({detail})");
            }
            Outcome::Aborted(m) => {
                aborted += 1;
                println!("seed {s}: surfaced failure: {m}");
            }
        }
    }
    println!(
        "{nseeds} seed(s) in {:.2?}: {converged} converged, {aborted} surfaced failures, 0 diverged",
        t.elapsed()
    );
    Ok(())
}

fn cmd_sim(args: &[String]) -> CliResult {
    check_flags(
        "sim",
        args,
        &[
            "--algo", "--seed", "--seeds", "--hosts", "--threads", "--scale", "--ef", "--faults",
            "--trace", "--out",
        ],
        &["--raw"],
    )?;
    let row = parse_algo(flag(args, "--algo").as_deref().unwrap_or("cc-lp"))?;
    let hosts = flag_count(args, "--hosts", 3)?;
    // One worker thread per host by default: intra-host pools are real
    // threads even under simulation, and single-threaded hosts keep the
    // whole run (not just the schedule) bit-reproducible.
    let threads = flag_count(args, "--threads", 1)?;
    let scale: u32 = flag_num(args, "--scale", 6)?;
    let ef: usize = flag_num(args, "--ef", 4)?;
    let faults = flag(args, "--faults").unwrap_or_else(|| "random".into());
    let Some(&(_, draw)) = simfuzz::PLAN_FAMILIES
        .iter()
        .find(|(name, _)| *name == faults)
    else {
        let valid = simfuzz::PLAN_FAMILIES.map(|(name, _)| name).join(", ");
        return Err(format!("unknown fault family '{faults}' (valid: {valid})"));
    };
    if faults == "churn" {
        check_growable(row, &faults)?;
    }
    // Every seed of the kill and churn families runs on the elastic
    // path, one whose draw changes nothing included: the family, not the
    // seed, picks the path a seed's schedule runs on.
    let elastic = faults != "random";
    let cfg = tier_cfg(row.policy, hosts, args);
    let trace_path = flag(args, "--trace");
    let out = flag(args, "--out");
    fuzz_seeds(
        args,
        |s| simfuzz::replay_command(row.name, s, hosts, threads, scale, ef, &faults),
        |s| {
            run_sim_seed(
                row,
                s,
                cfg,
                threads,
                scale,
                ef,
                draw,
                elastic,
                trace_path.as_deref(),
                out.as_deref(),
            )
        },
    )
}

/// Every occurrence of a repeated flag, in order (`--job` may be given
/// many times).
fn flag_all(args: &[String], name: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

/// Parses one job SPEC: `algo[,prio=N][,deadline-ms=N][,params=N][,host=N]`.
/// Returns the explicit admission host, if any, alongside the spec.
fn parse_job_spec(s: &str) -> Result<(Option<usize>, JobSpec), String> {
    let mut fields = s.split(',');
    let algo_name = fields.next().ok_or_else(|| format!("empty job spec '{s}'"))?;
    let algo = parse_algo(algo_name).map_err(|e| format!("{e} in '{s}'"))?.algo;
    let mut spec = JobSpec::new(algo);
    let mut host = None;
    for field in fields {
        let (key, val) = field
            .split_once('=')
            .ok_or_else(|| format!("malformed field '{field}' in '{s}'"))?;
        let num: u64 = val
            .parse()
            .map_err(|_| format!("bad value '{val}' for {key} in '{s}'"))?;
        match key {
            "prio" => spec.priority = num.min(255) as u8,
            "deadline-ms" => spec.deadline = Some(Duration::from_millis(num)),
            "params" => spec.params = num,
            "host" => host = Some(num as usize),
            other => return Err(format!("unknown field '{other}' in '{s}'")),
        }
    }
    Ok((host, spec))
}

/// Collects the batch's job specs from `--jobs FILE` lines (blank lines
/// and `#` comments skipped) followed by repeated `--job SPEC` flags.
fn collect_jobs(args: &[String]) -> Result<Vec<(Option<usize>, JobSpec)>, String> {
    let mut jobs = Vec::new();
    if let Some(path) = flag(args, "--jobs") {
        let body =
            std::fs::read_to_string(&path).map_err(|e| format!("read jobs file {path}: {e}"))?;
        for line in body.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            jobs.push(parse_job_spec(line)?);
        }
    }
    for spec in flag_all(args, "--job") {
        jobs.push(parse_job_spec(&spec)?);
    }
    Ok(jobs)
}

/// Distributes collected jobs onto per-host admission queues: an explicit
/// `host=N` field pins the job, everything else round-robins.
fn admission_queues(
    jobs: Vec<(Option<usize>, JobSpec)>,
    hosts: usize,
) -> Result<Vec<Vec<JobSpec>>, String> {
    let mut queues = vec![Vec::new(); hosts];
    let mut rr = 0;
    for (pin, spec) in jobs {
        let h = match pin {
            Some(h) if h >= hosts => {
                return Err(format!("job pinned to host {h}, but only {hosts} host(s)"))
            }
            Some(h) => h,
            None => {
                let h = rr;
                rr = (rr + 1) % hosts;
                h
            }
        };
        queues[h].push(spec);
    }
    Ok(queues)
}

/// One agreed job with its cross-host-merged canonical fingerprint
/// (`None` for deadline-missed jobs).
type MergedReport = (JobReport, Option<Vec<u64>>);

/// Checks every host returned the same agreed schedule and statuses, then
/// merges each completed job's per-host outputs into its canonical
/// fingerprint.
fn merge_reports(n: usize, per_host: Vec<Vec<JobReport>>) -> Result<Vec<MergedReport>, String> {
    let first = per_host.first().ok_or("no host produced reports")?;
    for (h, reports) in per_host.iter().enumerate() {
        if reports.len() != first.len() {
            return Err(format!(
                "host {h} scheduled {} job(s), host 0 scheduled {}",
                reports.len(),
                first.len()
            ));
        }
        for (k, (r, r0)) in reports.iter().zip(first).enumerate() {
            if r.job != r0.job || r.status != r0.status {
                return Err(format!("hosts disagree on job {k}: {r:?} vs {r0:?}"));
            }
        }
    }
    let jobs = first.len();
    let mut merged = Vec::with_capacity(jobs);
    for k in 0..jobs {
        let report = per_host[0][k].clone();
        let fp = if report.output.is_some() {
            let outs = per_host
                .iter()
                .map(|r| r[k].output.clone().expect("statuses agree"))
                .collect();
            Some(serve::merge_job_outputs(report.job.spec.algo, n, outs))
        } else {
            None
        };
        merged.push((report, fp));
    }
    Ok(merged)
}

/// Default result-cache capacity for `serve` sessions: comfortably more
/// than one batch's distinct queries, small enough that long sessions see
/// evictions.
const SERVE_CACHE_CAPACITY: usize = 32;

fn cmd_serve(args: &[String]) -> CliResult {
    check_flags(
        "serve",
        args,
        &["--hosts", "--threads", "--jobs", "--job", "--cache-capacity", "--out-dir"],
        &["--raw"],
    )?;
    let path = args.first().ok_or("missing FILE")?.clone();
    let hosts = flag_count(args, "--hosts", 2)?;
    let threads = flag_count(args, "--threads", 2)?;
    let capacity: usize = flag_num(args, "--cache-capacity", SERVE_CACHE_CAPACITY)?;
    let out_dir = flag(args, "--out-dir");
    let jobs = collect_jobs(args)?;
    if jobs.is_empty() {
        return Err("no jobs: give --jobs FILE and/or --job SPEC".into());
    }
    let queues = admission_queues(jobs, hosts)?;
    let g = load_graph(&path)?;
    let n = g.num_nodes();
    println!("input: {}", GraphStats::of(&g));
    // One resident partition serves every algorithm, so the policy must
    // be one they all accept: edge-cut with blocked ownership.
    let parts = partition_cfg(&g, &tier_cfg(Policy::EdgeCutBlocked, hosts, args));
    println!(
        "resident: {} local bytes over {hosts} host(s), cache capacity {capacity}",
        parts.iter().map(|p| p.size_bytes()).sum::<usize>()
    );
    let t = Instant::now();
    let cluster = Cluster::with_threads(hosts, threads);
    let q = &queues;
    let p = &parts;
    let results = cluster.run(|ctx| {
        let mut server = HostServer::new(capacity);
        let reports = server.serve_batch(ctx, &p[ctx.host()], &q[ctx.host()]);
        (reports, ctx.stats())
    });
    let elapsed = t.elapsed();
    let (reports, stats): (Vec<_>, Vec<HostStats>) = results.into_iter().unzip();
    let merged = merge_reports(n, reports)?;
    let total = merged.len();
    for (k, (report, fp)) in merged.iter().enumerate() {
        let spec = report.job.spec;
        let what = match (&report.status, fp) {
            (JobStatus::DeadlineMissed, _) => "deadline missed".to_string(),
            (JobStatus::Completed { cached }, Some(fp)) => format!(
                "{}{}",
                (spec.algo.row().describe)(&g, fp),
                if *cached { " (cached)" } else { "" }
            ),
            (JobStatus::Completed { .. }, None) => unreachable!("completed jobs carry output"),
        };
        println!(
            "job {k}: {} prio={} params={} from host {}: {what}",
            spec.algo.name(),
            spec.priority,
            spec.params,
            report.job.submitter
        );
        if let (Some(dir), Some(fp)) = (&out_dir, fp) {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
            write_lines(&format!("{dir}/job{k}-{}.txt", spec.algo.name()), fp)?;
        }
    }
    let mut agg = HostStats::default();
    for s in &stats {
        agg.merge(s);
    }
    println!(
        "{total} job(s) in {elapsed:.2?}: cache {} hit(s), {} miss(es), {} eviction(s)",
        agg.cache_hits, agg.cache_misses, agg.cache_evictions
    );
    Ok(())
}

fn cmd_submit(args: &[String]) -> CliResult {
    check_flags("submit", args, &["--jobs"], &[])?;
    let jobs = flag(args, "--jobs").ok_or("missing --jobs FILE")?;
    // The SPEC is the one positional argument left after removing the
    // --jobs flag and its value.
    let jobs_at = args.iter().position(|a| a == "--jobs").unwrap();
    let spec = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| i != jobs_at && i != jobs_at + 1 && !a.starts_with("--"))
        .map(|(_, a)| a.clone())
        .next()
        .ok_or("missing SPEC")?;
    // Validate before appending so a bad spec never poisons the queue
    // file a later serve drains.
    parse_job_spec(&spec)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&jobs)
        .map_err(|e| format!("open {jobs}: {e}"))?;
    writeln!(f, "{spec}").map_err(|e| format!("write {jobs}: {e}"))?;
    println!("queued '{spec}' in {jobs}");
    Ok(())
}

/// Runs one serve fuzz seed end-to-end: seed-derived graph, job mix, and
/// fault plan; serial fault-free baselines per distinct query; then the
/// faulted scheduled run on the sim backend, diffing every completed
/// job's merged output against its baseline.
fn run_serve_seed(
    seed: u64,
    cfg: &PartitionCfg,
    threads: usize,
    scale: u32,
    ef: usize,
) -> Result<Outcome<String>, String> {
    let hosts = cfg.hosts;
    let g = gen::rmat(scale, ef, seed);
    let n = g.num_nodes();
    let parts = partition_cfg(&g, cfg);
    let mix = simfuzz::serve_job_mix(seed, hosts);
    let mut queues = vec![Vec::new(); hosts];
    for &(h, spec) in &mix {
        queues[h].push(spec);
    }
    // Serial fault-free baselines, one per distinct algorithm in the mix
    // (params never change execution, so they share a baseline).
    let mut baselines: std::collections::HashMap<Algo, Vec<u64>> = Default::default();
    let serial = Cluster::with_threads(hosts, threads);
    for &(_, spec) in &mix {
        baselines
            .entry(spec.algo)
            .or_insert_with(|| serve::serial_reference(n, &parts, &serial, spec.algo));
    }
    let plan = simfuzz::serve_fault_plan(seed, hosts, mix.len());
    let cluster = Cluster::with_threads(hosts, threads)
        .sim(seed)
        .with_transport_config(simfuzz::sim_transport_config());
    let q = &queues;
    let p = &parts;
    let res = cluster.try_run_with_faults(plan, |ctx| {
        let mut server = HostServer::new(SERVE_CACHE_CAPACITY);
        server.serve_batch(ctx, &p[ctx.host()], &q[ctx.host()])
    });
    match host_values(res, false)? {
        Outcome::Aborted(m) => Ok(Outcome::Aborted(m)),
        Outcome::Done(per_host) => {
            let merged = merge_reports(n, per_host)?;
            let (mut computed, mut cached, mut missed) = (0, 0, 0);
            for (k, (report, fp)) in merged.iter().enumerate() {
                match (&report.status, fp) {
                    (JobStatus::DeadlineMissed, _) => missed += 1,
                    (JobStatus::Completed { cached: c }, Some(fp)) => {
                        if *c {
                            cached += 1;
                        } else {
                            computed += 1;
                        }
                        let base = &baselines[&report.job.spec.algo];
                        if fp != base {
                            return Err(format!(
                                "job {k} ({}) diverges from its serial baseline",
                                report.job.spec.algo.name()
                            ));
                        }
                    }
                    (JobStatus::Completed { .. }, None) => {
                        return Err(format!("job {k} completed without output"))
                    }
                }
            }
            Ok(Outcome::Done(format!(
                "{computed} computed, {cached} cached, {missed} missed"
            )))
        }
    }
}

fn cmd_serve_sim(args: &[String]) -> CliResult {
    check_flags(
        "serve-sim",
        args,
        &["--seed", "--seeds", "--hosts", "--threads", "--scale", "--ef"],
        &["--raw"],
    )?;
    let hosts = flag_count(args, "--hosts", 3)?;
    let threads = flag_count(args, "--threads", 1)?;
    let scale: u32 = flag_num(args, "--scale", 6)?;
    let ef: usize = flag_num(args, "--ef", 4)?;
    // The resident partition of `serve` (see there).
    let cfg = tier_cfg(Policy::EdgeCutBlocked, hosts, args);
    fuzz_seeds(
        args,
        |s| simfuzz::serve_replay_command(s, hosts, threads, scale, ef),
        |s| run_serve_seed(s, &cfg, threads, scale, ef),
    )
}

/// Writes one value per line (the diffable label dump behind `--out`).
fn write_lines<T: std::fmt::Display>(out: &str, vals: &[T]) -> Result<(), String> {
    let f = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let mut w = BufWriter::new(f);
    for v in vals {
        writeln!(w, "{v}").map_err(|e| format!("write {out}: {e}"))?;
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> CliResult {
    check_flags(
        "run",
        args,
        &["--hosts", "--threads", "--transport", "--faults", "--seed", "--port-base", "--out"],
        &["--raw"],
    )?;
    launch(args, None)
}

fn cmd_compile(args: &[String]) -> CliResult {
    check_flags("compile", args, &[], &["--no-opt"])?;
    let path = args.first().ok_or("missing FILE")?;
    let opt = if args.iter().any(|a| a == "--no-opt") {
        OptLevel::None
    } else {
        OptLevel::Full
    };
    let src = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let prog = frontend::parse(&src).map_err(|e| e.to_string())?;
    let class = classify_program(&prog);
    println!(
        "program {}: {} operators, adjacent={}, trans={}",
        prog.name, class.num_operators, class.uses_adjacent, class.uses_trans
    );
    let plan = compile(&prog, opt);
    println!("compiled at {opt:?}: {} top-level steps", plan.body.len());
    list_steps(&plan.body, 1);
    Ok(())
}

/// Prints one line per step, nested steps and each operator's lowered
/// register code (what the engine executes) indented beneath it.
fn list_steps(steps: &[kimbap_compiler::transform::CompiledTop], depth: usize) {
    use kimbap_compiler::transform::CompiledTop as T;
    let pad = "  ".repeat(depth);
    let code = |title: &str, code: &kimbap_compiler::lower::Code| {
        println!("{pad}    {title}:");
        for line in code.to_string().lines() {
            println!("{pad}      {line}");
        }
    };
    for (i, top) in steps.iter().enumerate() {
        println!("{pad}[{i}] {}", describe(top));
        match top {
            T::Loop(l) | T::Once(l) => {
                for (k, phase) in l.request_phases.iter().enumerate() {
                    code(&format!("request phase {k}"), &phase.code);
                }
                code("operator", &l.code);
            }
            T::DoWhileScalar { body, .. } => list_steps(body, depth + 1),
            T::InitMap { .. } | T::ResetMap { .. } | T::SetScalar { .. } => {}
        }
    }
}

fn describe(top: &kimbap_compiler::transform::CompiledTop) -> String {
    use kimbap_compiler::transform::CompiledTop as T;
    match top {
        T::InitMap { map, .. } => format!("init map {map}"),
        T::ResetMap { map } => format!("reset map {map}"),
        T::SetScalar { reducer, value } => format!("set reducer {reducer} = {value}"),
        T::Loop(l) => format!(
            "while-updated loop: {:?}, {} request phase(s), pin {:?}, broadcast {:?}{}",
            l.iterator,
            l.request_phases.len(),
            l.pinned_maps,
            l.broadcast_maps,
            if l.local_fixpoint { ", host-local fixpoint" } else { "" }
        ),
        T::Once(l) => format!(
            "parfor: {:?}, {} request phase(s), pin {:?}",
            l.iterator,
            l.request_phases.len(),
            l.pinned_maps
        ),
        T::DoWhileScalar { body, reducer } => {
            format!("do {{ {} steps }} while reducer {reducer}", body.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{check_flags, cmd_run, cmd_sim, COMMANDS};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn check_flags_accepts_known_and_names_unknown() {
        let valued = ["--hosts", "--out"];
        let switches = ["--raw"];
        let ok = args(&["cc-lp", "g.kg", "--hosts", "3", "--raw"]);
        assert_eq!(check_flags("run", &ok, &valued, &switches), Ok(()));
        let typo = args(&["cc-lp", "g.kg", "--allow-shrnk"]);
        let err = check_flags("run", &typo, &valued, &switches).unwrap_err();
        assert!(err.contains("--allow-shrnk") && err.contains("kimbap run"), "{err}");
    }

    #[test]
    fn check_flags_never_inspects_a_flag_value() {
        // `--out`'s value looks like a flag; it is a file name.
        let a = args(&["g.kg", "--out", "--labels.txt", "--raw"]);
        assert_eq!(check_flags("run", &a, &["--out"], &["--raw"]), Ok(()));
        // ...but the same token in flag position is rejected.
        let b = args(&["g.kg", "--labels.txt"]);
        assert!(check_flags("run", &b, &["--out"], &["--raw"]).is_err());
    }

    #[test]
    fn a_joiner_names_the_rows_with_a_plan() {
        // Both checks run before any file is opened (there is none).
        let join = args(&["louvain", "missing.kg", "--faults", "join"]);
        let Err(err) = cmd_run(&join) else {
            panic!("louvain has no plan to resume");
        };
        let names_plans = |err: &str| err.ends_with("cc-sv, cc-lp, not louvain");
        assert!(
            err.starts_with("--faults join ") && names_plans(&err),
            "{err}"
        );
        let churn = args(&["--algo", "louvain", "--faults", "churn"]);
        let Err(err) = cmd_sim(&churn) else {
            panic!("louvain has no plan to resume");
        };
        assert!(
            err.starts_with("--faults churn ") && names_plans(&err),
            "{err}"
        );
        // A row with a plan gets past the check to the missing file.
        let join = args(&["cc-sv", "missing.kg", "--faults", "join"]);
        assert!(cmd_run(&join).unwrap_err().starts_with("open missing.kg"));
    }

    #[test]
    fn zero_hosts_or_threads_is_a_usage_error() {
        // Rejected before any I/O: the graph file does not exist.
        for name in ["run", "_worker", "sim", "serve", "serve-sim"] {
            let (_, cmd) = COMMANDS.iter().find(|(n, _)| *n == name).unwrap();
            for flag in ["--hosts", "--threads"] {
                let mut a = match name {
                    "run" | "_worker" => args(&["cc-sv", "missing.kg"]),
                    "serve" => args(&["missing.kg", "--job", "cc-sv"]),
                    _ => Vec::new(),
                };
                a.extend(args(&[flag, "0"]));
                let want = Err(format!("{flag} must be at least 1"));
                assert_eq!(cmd(&a), want, "kimbap {name} {a:?}");
                if name == "run" {
                    a.extend(args(&["--transport", "tcp"]));
                    assert_eq!(cmd(&a), want, "kimbap {name} {a:?}");
                }
            }
        }
    }

    #[test]
    fn every_subcommand_rejects_the_hub_threshold() {
        // A removed flag must fail loudly, not be silently ignored: the
        // hub threshold, and the membership switches the fault plan
        // replaced.
        for removed in ["hub-threshold", "allow-shrink", "allow-grow"] {
            let flag = format!("--{removed}");
            let a = args(&["cc-lp", "g.kg", &flag, "8"]);
            for (name, cmd) in COMMANDS {
                assert_eq!(
                    cmd(&a),
                    Err(format!("unknown flag '{flag}' for 'kimbap {name}'"))
                );
            }
        }
    }
}
