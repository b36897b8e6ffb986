//! What the benchmark asks the operating system: process CPU time, peak
//! resident set, load average, core count. Linux only, like the rest of
//! the repo's tooling.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn nice(inc: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn getppid() -> i32;
}

/// The cores (among the first 64) the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = 0u64;
    // SAFETY: pid 0 is the calling thread; `mask` is a live, writable
    // 8-byte CPU set and its size is passed alongside.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..64).filter(|cpu| mask >> cpu & 1 == 1).collect()
}

/// Pins the calling thread to `cpu` (which must be below 64).
pub fn pin_to_cpu(cpu: usize) -> std::io::Result<()> {
    let mask: u64 = 1 << cpu;
    // SAFETY: pid 0 is the calling thread; `mask` is a live 8-byte CPU
    // set and its size is passed alongside; the call only reads it.
    match unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) } {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error()),
    }
}

/// Drops the calling process to the lowest `nice` priority.
pub fn lowest_priority() {
    // SAFETY: `nice` takes a plain integer and touches no memory. Its
    // result is not checked: lowering priority needs no privilege, and -1
    // is also a legitimate new nice value.
    unsafe { nice(19) };
}

/// Asks the kernel to kill this process when the thread that started it
/// exits, however that happens.
pub fn die_with_parent() {
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: PR_SET_PDEATHSIG takes the signal number by value and
    // ignores the remaining arguments; no memory is passed.
    let rc = unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) };
    assert_eq!(rc, 0, "prctl(PR_SET_PDEATHSIG) failed");
}

/// Process id of the parent (1 once it has been orphaned).
pub fn parent_pid() -> i32 {
    // SAFETY: `getppid` takes no arguments and cannot fail.
    unsafe { getppid() }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, in
/// nanoseconds — wall time bought by spinning shows up here.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and the clock id is a constant
    // the kernel defines; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// The 1-minute load average: the machine state that explains a bad run.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .expect("parse /proc/loadavg")
}
