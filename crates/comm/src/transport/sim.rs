//! The deterministic simulation transport: a seeded discrete-event
//! scheduler that runs all hosts cooperatively on a virtual clock.
//!
//! FoundationDB-style simulation testing for the cluster: every host is
//! still an OS thread (so host closures run unmodified), but only **one
//! host runs at a time** — a run token is handed from host to host by the
//! scheduler, and a host gives it up only inside a transport wait
//! (barrier, gate, or a virtual sleep). Hosts interact with each other
//! exclusively through the transport, so serializing those interaction
//! points serializes the whole run: which host runs next is drawn from a
//! seeded RNG, and everything else follows deterministically. The same
//! seed therefore reproduces the same interleaving, the same fault
//! verdicts, the same heartbeat suspicions, the same timeouts — byte for
//! byte.
//!
//! # Virtual time
//!
//! The fabric owns a clock that only advances when no host is runnable:
//! the scheduler pops the earliest pending timer (a sleep expiry, a phase
//! deadline, a heartbeat tick) from its event queue and jumps `now` to
//! it. A 400 ms injected stall or an 80 ms heartbeat suspicion threshold
//! costs microseconds of wall time. Each host thread installs a
//! [`crate::clock::Clock`] view of this virtual clock while it runs, so
//! `Deadline`s, `Backoff` sleeps, and injected stalls all land in the
//! event queue instead of the OS scheduler.
//!
//! # Heartbeats and deadlines without threads
//!
//! The real backends run detector threads; here both are timer events.
//! A heartbeat tick refreshes every live, unsilenced host's beat and has
//! every host suspect, in its own view, the peers silent past
//! `suspect_after` — identical semantics to the in-proc detector, minus
//! the races.
//!
//! # Collectives
//!
//! The membership protocol is the shared one in [`super::membership`]:
//! each host has its own view, a post applies a message to the peer's view
//! instantly, and a host whose wait step is not yet satisfied blocks *on
//! its view*. Any post into a blocked host's view makes it runnable again
//! (it re-runs its step when scheduled); a bounded wait registers one
//! deadline timer, which fires only if the host is still blocked in that
//! same wait.
//!
//! # The trace
//!
//! Every scheduling decision, send, fault verdict, barrier event,
//! suspicion, and timeout is appended to a linearized [`TraceEvent`] log
//! (dumpable as JSONL via [`TraceEvent::to_json`]). Two runs with the
//! same seed produce identical traces; a diff of two traces is a diff of
//! two schedules.

use super::{Ctrl, Deadline, Membership, Transport, TransportConfig};
use crate::clock::Clock;
use crate::fault::mix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::time::Duration;

/// Idle timer fires tolerated without any host becoming runnable before
/// the scheduler declares the run wedged and breaks every wait. With a
/// 10 ms heartbeat this is ~100 virtual seconds of pure ticking.
const MAX_IDLE_FIRES: usize = 10_000;

/// One linearized simulator event. `seq` totally orders the trace; `t` is
/// virtual nanoseconds. Two runs with the same seed and inputs produce
/// element-identical (and therefore byte-identical, via
/// [`TraceEvent::to_json`]) traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time in nanoseconds since the run started.
    pub t: u64,
    /// Position in the trace's total order.
    pub seq: u64,
    /// The acting (or affected, for suspicions) host.
    pub host: usize,
    /// Event kind: `schedule`, `send`, `barrier_arrive`,
    /// `barrier_complete`, `sync_missing`, `sleep`, `timeout`, `suspect`,
    /// `mark_failed`, `departed`, `gate_*`, `join`, `heal`, `silence`,
    /// `recover_reset`, `retx_request`, `fault_*`, `kill`, `crash`,
    /// `stall`, `finish`, `deadlock`.
    pub kind: &'static str,
    /// Kind-specific detail, deterministic for a given schedule.
    pub detail: String,
}

impl TraceEvent {
    /// Serializes the event as one JSON object (one JSONL line).
    pub fn to_json(&self) -> String {
        let mut detail = String::with_capacity(self.detail.len());
        for c in self.detail.chars() {
            match c {
                '"' => detail.push_str("\\\""),
                '\\' => detail.push_str("\\\\"),
                c if (c as u32) < 0x20 => detail.push_str(&format!("\\u{:04x}", c as u32)),
                c => detail.push(c),
            }
        }
        format!(
            "{{\"t\":{},\"seq\":{},\"host\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
            self.t, self.seq, self.host, self.kind, detail
        )
    }
}

/// Shared sink a [`crate::Cluster`] fills with the simulation trace after
/// a run (see `Cluster::with_trace_sink`).
pub type TraceSink = Arc<parking_lot::Mutex<Vec<TraceEvent>>>;

/// Creates an empty [`TraceSink`] for `Cluster::with_trace_sink`, saving
/// callers a direct `parking_lot` dependency.
pub fn new_trace_sink() -> TraceSink {
    Arc::new(parking_lot::Mutex::new(Vec::new()))
}

/// What a blocked host is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocked {
    /// Wait `id` on its membership view (distinguishes stale deadlines).
    View { id: u64 },
    /// Virtual sleep `id` (distinguishes stale wake timers).
    Sleep { id: u64 },
}

/// A host's scheduling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Thread not yet at the startup latch.
    Registering,
    /// Runnable, waiting to be handed the token.
    Ready,
    /// Holds the run token.
    Running,
    /// Parked in a transport wait.
    Blocked(Blocked),
    /// Closure finished (or died); never scheduled again.
    Done,
}

/// A pending virtual-time event.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TimerKind {
    /// End of a virtual sleep.
    Wake { host: usize, id: u64 },
    /// Deadline of view wait `id`.
    Deadline { host: usize, id: u64 },
    /// Global heartbeat tick: refresh beats, suspect the silent.
    HeartbeatTick,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Timer {
    at: u64,
    /// Insertion order; ties on `at` resolve deterministically.
    seq: u64,
    kind: TimerKind,
}

impl Ord for Timer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct SimState {
    /// Virtual nanoseconds since the run started.
    now: u64,
    /// Scheduler RNG (splitmix64 walk from the seed).
    rng: u64,
    /// Next timer insertion sequence.
    timer_seq: u64,
    /// Next trace sequence.
    trace_seq: u64,
    /// Next sleep / view-wait id.
    block_seq: u64,
    /// Startup latch: hosts registered so far.
    registered: usize,
    /// The host currently holding the run token.
    running: Option<usize>,
    /// Hosts ready to be scheduled.
    runnable: Vec<usize>,
    status: Vec<Status>,
    /// Whether a woken host's wait expired (set by `wake`, taken in
    /// `block`).
    wake: Vec<Option<bool>>,
    timers: BinaryHeap<Reverse<Timer>>,
    /// `mailboxes[to][from]`: frames in flight (delivery is instantaneous
    /// in virtual time; ordering and interleaving come from the seeded
    /// scheduler, loss/delay/reordering from the fault plan above).
    mailboxes: Vec<Vec<Vec<Vec<u8>>>>,
    /// Each host's membership view.
    views: Vec<Membership>,
    // Heartbeat ledger, in virtual nanoseconds.
    last_beat: Vec<u64>,
    silence_until: Vec<u64>,
    trace: Vec<TraceEvent>,
}

/// The shared discrete-event fabric behind [`SimTransport`]: the virtual
/// clock, the event queue, the run token, the mailboxes, and the trace.
/// Created by `Cluster::sim`; one per run.
pub struct SimFabric {
    hosts: usize,
    cfg: TransportConfig,
    state: StdMutex<SimState>,
    cv: Condvar,
}

impl std::fmt::Debug for SimFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimFabric")
            .field("hosts", &self.hosts)
            .field("cfg", &self.cfg)
            .finish()
    }
}

/// Order-sensitive digest of a frame's bytes, recorded with each traced
/// send so divergent payloads (not just divergent schedules) show up in a
/// trace diff.
fn frame_digest(frame: &[u8]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &b in frame {
        acc = mix(acc ^ b as u64);
    }
    acc
}

impl SimFabric {
    /// Creates the fabric for `hosts` cooperatively scheduled slots,
    /// interleaved by `seed`, of which `latent` start as non-member
    /// capacity: they take part in no collective until a grow gate admits
    /// them. Join timing, like everything else here, is a pure function of
    /// the seed and the hosts' virtual sleeps.
    pub fn new(hosts: usize, cfg: TransportConfig, seed: u64, latent: &[usize]) -> Self {
        SimFabric {
            hosts,
            cfg,
            state: StdMutex::new(SimState {
                now: 0,
                rng: mix(seed ^ 0x73696d_u64),
                timer_seq: 0,
                trace_seq: 0,
                block_seq: 0,
                registered: 0,
                running: None,
                runnable: Vec::new(),
                status: vec![Status::Registering; hosts],
                wake: vec![None; hosts],
                timers: BinaryHeap::new(),
                mailboxes: (0..hosts)
                    .map(|_| (0..hosts).map(|_| Vec::new()).collect())
                    .collect(),
                views: (0..hosts).map(|h| Membership::new(hosts, h, latent)).collect(),
                last_beat: vec![0; hosts],
                silence_until: vec![0; hosts],
                trace: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SimState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn trace(&self, s: &mut SimState, host: usize, kind: &'static str, detail: String) {
        let ev = TraceEvent {
            t: s.now,
            seq: s.trace_seq,
            host,
            kind,
            detail,
        };
        s.trace_seq += 1;
        s.trace.push(ev);
    }

    fn push_timer(&self, s: &mut SimState, at: u64, kind: TimerKind) {
        let seq = s.timer_seq;
        s.timer_seq += 1;
        s.timers.push(Reverse(Timer { at, seq, kind }));
    }

    /// Moves a blocked host back onto the runnable list; `expired` tells
    /// a view wait its deadline passed.
    fn wake(&self, s: &mut SimState, host: usize, expired: bool) {
        debug_assert!(matches!(s.status[host], Status::Blocked(_)));
        s.status[host] = Status::Ready;
        s.wake[host] = Some(expired);
        s.runnable.push(host);
    }

    /// Re-runs `host`'s wait step after its view changed.
    fn poke(&self, s: &mut SimState, host: usize) {
        if matches!(s.status[host], Status::Blocked(Blocked::View { .. })) {
            self.wake(s, host, false);
        }
    }

    /// Hands the run token to a seeded-random runnable host; when none is
    /// runnable, advances virtual time by firing the earliest timers until
    /// one is (or declares the run wedged and breaks every wait).
    fn schedule(&self, s: &mut SimState) {
        debug_assert!(s.running.is_none());
        let mut idle_fires = 0usize;
        loop {
            if !s.runnable.is_empty() {
                s.rng = mix(s.rng);
                let i = (s.rng % s.runnable.len() as u64) as usize;
                let host = s.runnable.swap_remove(i);
                s.running = Some(host);
                s.status[host] = Status::Running;
                self.trace(s, host, "schedule", String::new());
                self.cv.notify_all();
                return;
            }
            if s.status.iter().all(|st| *st == Status::Done) {
                // Run over; drop whatever timers remain (heartbeats).
                s.timers.clear();
                self.cv.notify_all();
                return;
            }
            match s.timers.pop() {
                Some(Reverse(timer)) => {
                    s.now = s.now.max(timer.at);
                    self.fire(s, timer.kind);
                    idle_fires += 1;
                    if idle_fires > MAX_IDLE_FIRES && s.runnable.is_empty() {
                        self.break_deadlock(s, "no progress after repeated timer fires");
                    }
                }
                None => self.break_deadlock(s, "event queue empty with hosts blocked"),
            }
        }
    }

    /// "Never hang": wakes every blocked host — sleepers resume, collective
    /// waiters get a protocol error that surfaces as a reported host
    /// failure instead of a wedged process.
    fn break_deadlock(&self, s: &mut SimState, why: &str) {
        self.trace(s, usize::from(self.hosts == 0), "deadlock", why.to_string());
        let detail = format!("sim deadlock at t={}ns: {why}", s.now);
        let mut woke = false;
        for h in 0..self.hosts {
            if let Status::Blocked(b) = s.status[h] {
                if matches!(b, Blocked::View { .. }) {
                    s.views[h].wedge(detail.clone());
                }
                self.wake(s, h, false);
                woke = true;
            }
        }
        assert!(
            woke,
            "sim scheduler wedged with no blocked hosts: {why} (status {:?})",
            s.status
        );
    }

    /// Fires one timer event.
    fn fire(&self, s: &mut SimState, kind: TimerKind) {
        match kind {
            TimerKind::Wake { host, id } => {
                if s.status[host] == Status::Blocked(Blocked::Sleep { id }) {
                    self.wake(s, host, false);
                }
            }
            TimerKind::Deadline { host, id } => {
                if s.status[host] == Status::Blocked(Blocked::View { id }) {
                    self.wake(s, host, true);
                }
            }
            TimerKind::HeartbeatTick => {
                let Some(hb) = self.cfg.heartbeat else { return };
                // Every live, unsilenced host beats — same as each host's
                // detector thread on the real backends.
                for h in 0..self.hosts {
                    if s.status[h] != Status::Done && s.silence_until[h] <= s.now {
                        s.last_beat[h] = s.now;
                    }
                }
                // Every live host watches its peers from its own view.
                let limit = hb.suspect_after.as_nanos() as u64;
                for h in 0..self.hosts {
                    if s.status[h] == Status::Done {
                        continue;
                    }
                    for peer in 0..self.hosts {
                        if s.now.saturating_sub(s.last_beat[peer]) > limit
                            && s.views[h].suspect(peer)
                        {
                            self.trace(s, peer, "suspect", format!("by={h}"));
                            self.poke(s, h);
                        }
                    }
                }
                if s.status.iter().any(|st| *st != Status::Done) {
                    let at = s.now.saturating_add(hb.interval.as_nanos() as u64);
                    self.push_timer(s, at, TimerKind::HeartbeatTick);
                }
            }
        }
    }

    /// Startup latch: parks the calling host thread until every host has
    /// registered and the scheduler hands it the token for the first time.
    /// The initial runnable set is `0..hosts` regardless of thread startup
    /// order, so the first pick is already seed-determined.
    pub fn register(&self, host: usize) {
        let mut s = self.lock();
        assert_eq!(s.status[host], Status::Registering, "double register");
        s.status[host] = Status::Ready;
        s.registered += 1;
        if s.registered == self.hosts {
            s.runnable = (0..self.hosts).collect();
            if let Some(hb) = self.cfg.heartbeat {
                let at = s.now + hb.interval.as_nanos() as u64;
                self.push_timer(&mut s, at, TimerKind::HeartbeatTick);
            }
            self.schedule(&mut s);
        }
        while s.running != Some(host) {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks the host's closure finished and releases the token for good.
    pub fn finish(&self, host: usize) {
        let mut s = self.lock();
        debug_assert_eq!(s.running, Some(host), "finish without the token");
        s.status[host] = Status::Done;
        s.running = None;
        self.trace(&mut s, host, "finish", String::new());
        self.schedule(&mut s);
    }

    /// Takes the recorded trace (the run must be over).
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.lock().trace)
    }

    /// Parks `host`, hands the token away, and waits to be woken; returns
    /// the re-locked state and whether the wake was a deadline expiry.
    fn block<'a>(
        &'a self,
        mut s: MutexGuard<'a, SimState>,
        host: usize,
        b: Blocked,
    ) -> (MutexGuard<'a, SimState>, bool) {
        debug_assert_eq!(s.running, Some(host), "blocking without the token");
        s.status[host] = Status::Blocked(b);
        s.running = None;
        self.schedule(&mut s);
        while s.running != Some(host) {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        let expired = s.wake[host].take().expect("scheduled without a wake result");
        (s, expired)
    }

    fn now(&self) -> u64 {
        self.lock().now
    }

    /// Virtual sleep: the host gives up the token until `now + d`.
    fn sleep(&self, host: usize, d: Duration) {
        if d.is_zero() {
            return;
        }
        let mut s = self.lock();
        let id = s.block_seq;
        s.block_seq += 1;
        let at = s.now.saturating_add(d.as_nanos() as u64);
        self.trace(&mut s, host, "sleep", format!("until={at}"));
        self.push_timer(&mut s, at, TimerKind::Wake { host, id });
        // A deadlock-break resumes the sleeper early; either way there is
        // nothing to propagate from a sleep.
        let _ = self.block(s, host, Blocked::Sleep { id });
    }

    /// A view wait: runs `step` until it returns `true`, blocking on the
    /// view between tries (see the module docs).
    fn wait(
        &self,
        host: usize,
        deadline: &Deadline,
        step: &mut dyn FnMut(&mut Membership, bool) -> bool,
    ) {
        let mut s = self.lock();
        let at = deadline.at_nanos();
        let mut expired = at.is_some_and(|at| at <= s.now);
        if step(&mut s.views[host], expired) {
            return;
        }
        let id = s.block_seq;
        s.block_seq += 1;
        if let Some(at) = at {
            self.push_timer(&mut s, at, TimerKind::Deadline { host, id });
        }
        loop {
            let (g, woke_expired) = self.block(s, host, Blocked::View { id });
            s = g;
            expired |= woke_expired || at.is_some_and(|at| at <= s.now);
            if step(&mut s.views[host], expired) {
                return;
            }
        }
    }
}

/// One host's handle to the shared [`SimFabric`]. Only valid under
/// `Cluster::sim`'s cooperative runner: methods assume the calling host
/// currently holds the run token.
pub struct SimTransport {
    fabric: Arc<SimFabric>,
    host: usize,
}

impl std::fmt::Debug for SimTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimTransport")
            .field("host", &self.host)
            .field("hosts", &self.fabric.hosts)
            .finish()
    }
}

impl SimTransport {
    /// Creates host `host`'s handle.
    pub fn new(fabric: Arc<SimFabric>, host: usize) -> Self {
        SimTransport { fabric, host }
    }

    /// This host's view of the fabric's virtual clock, for
    /// [`crate::clock::with_clock`].
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::new(SimClock {
            fabric: self.fabric.clone(),
            host: self.host,
        })
    }
}

impl Transport for SimTransport {
    fn host(&self) -> usize {
        self.host
    }

    fn num_hosts(&self) -> usize {
        self.fabric.hosts
    }

    fn send(&self, to: usize, frame: Vec<u8>) {
        let fab = &self.fabric;
        let mut s = fab.lock();
        fab.trace(
            &mut s,
            self.host,
            "send",
            format!("to={to} len={} digest={:016x}", frame.len(), frame_digest(&frame)),
        );
        s.mailboxes[to][self.host].push(frame);
    }

    fn drain(&self, from: usize) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.fabric.lock().mailboxes[self.host][from])
    }

    fn post(&self, to: usize, msg: Ctrl) {
        let fab = &self.fabric;
        let mut s = fab.lock();
        s.views[to].apply(self.host, msg);
        fab.poke(&mut s, to);
    }

    fn wait(&self, deadline: &Deadline, step: &mut dyn FnMut(&mut Membership, bool) -> bool) {
        self.fabric.wait(self.host, deadline, step);
    }

    fn reset(&self) {
        let mut s = self.fabric.lock();
        let me = self.host;
        for row in &mut s.mailboxes[me] {
            row.clear();
        }
        // A recovering host is alive: refresh its beat so the silence
        // that triggered recovery is not re-flagged after the heal.
        s.last_beat[me] = s.now;
    }

    fn silence(&self, d: Duration) {
        let fab = &self.fabric;
        let mut s = fab.lock();
        let until = s.now.saturating_add(d.as_nanos() as u64);
        s.silence_until[self.host] = until;
        fab.trace(&mut s, self.host, "silence", format!("until={until}"));
    }

    fn note(&self, kind: &'static str, detail: std::fmt::Arguments<'_>) {
        let fab = &self.fabric;
        let mut s = fab.lock();
        fab.trace(&mut s, self.host, kind, detail.to_string());
    }
}

/// A host's view of the fabric's virtual clock.
struct SimClock {
    fabric: Arc<SimFabric>,
    host: usize,
}

impl Clock for SimClock {
    fn now_nanos(&self) -> u64 {
        self.fabric.now()
    }

    fn sleep(&self, d: Duration) {
        self.fabric.sleep(self.host, d);
    }
}
