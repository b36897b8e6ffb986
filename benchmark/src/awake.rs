//! Keeps the guest's virtual CPUs from halting while the benchmark runs.
//!
//! The hosts of an in-proc cluster block on condition variables, so on a
//! 2-core KVM guest each collective lets a vCPU go idle. Whether the
//! hypervisor then parks that vCPU or keeps polling for it is decided by
//! an adaptive policy outside the guest: for minutes at a time every
//! wake-up costs tens of microseconds and restarts on cold caches, then
//! for minutes it does not. Identical runs moved by 30–50% between those
//! regimes (README, "Noise"), which no estimator inside a 20 s run can
//! remove. One lowest-priority spinner process per core, pinned, removes
//! the regime: a vCPU that never idles is never parked. The spinners are
//! separate processes, so `cpu_ms_per_job` (process CPU time) does not see
//! them, and at `nice 19` they yield the core within a scheduler tick.

use crate::sys;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The hidden first argument that turns this program into a spinner.
pub const SPIN_ARG: &str = "--keep-awake";

/// Longest a spinner lives, whatever happens to its parent: beyond the
/// benchmark contract's 180 s per run.
const SPIN_LIFETIME: Duration = Duration::from_secs(240);

/// Running spinners; dropping the guard stops them and waits for each.
#[derive(Debug)]
pub struct KeepAwake {
    spinners: Vec<Child>,
}

impl KeepAwake {
    /// Starts one spinner pinned to each of `cpus`. Best effort: where a
    /// sandbox forbids it the run goes on, noisier, and says so.
    pub fn start(cpus: &[usize]) -> KeepAwake {
        let spawn = |cpu: &usize| {
            Command::new(std::env::current_exe()?)
                .args([SPIN_ARG, &cpu.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
        };
        let spinners = cpus
            .iter()
            .filter_map(|cpu| {
                spawn(cpu)
                    .map_err(|e| eprintln!("no keep-awake spinner on cpu {cpu}: {e}"))
                    .ok()
            })
            .collect();
        KeepAwake { spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        for child in &mut self.spinners {
            // Errors mean the spinner is already gone, which is the goal.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The spinner's whole life: pin, drop priority, burn the core until the
/// parent goes away or the lifetime cap passes.
pub fn spin(cpu: usize) {
    let parent = sys::parent_pid();
    sys::die_with_parent();
    // Unpinned, the spinner still keeps some core awake.
    let _ = sys::pin_to_cpu(cpu);
    sys::lowest_priority();
    let born = Instant::now();
    // The parent may have died before the death signal was armed.
    while sys::parent_pid() == parent && born.elapsed() < SPIN_LIFETIME {
        // A plain counting loop: `spin_loop()`'s PAUSE is what hypervisors
        // watch for to take the core away from a spinning vCPU.
        for i in 0..1_000_000u32 {
            std::hint::black_box(i);
        }
    }
}
