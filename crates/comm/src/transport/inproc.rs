//! The in-process transport: shared-memory mailboxes, a failure-aware
//! barrier, and a recovery gate — the original simulated fabric, now
//! behind the [`Transport`] trait.
//!
//! With the default [`TransportConfig`] this backend behaves exactly like
//! the pre-transport cluster: no extra threads, unbounded waits, identical
//! synchronization structure. Deadlines and the heartbeat detector are
//! opt-in layers on the same primitives.

use super::{Deadline, GrowVerdict, RetxRequest, Transport, TransportConfig};
use crate::clock;
use crate::cluster::CommError;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Duration;

/// How a blocking fabric wait ended early.
pub(crate) enum WaitBreak {
    /// Hosts have failed; `suspected` is the subset flagged only by the
    /// heartbeat detector.
    Failed {
        failed: Vec<usize>,
        suspected: Vec<usize>,
    },
    /// The deadline passed; `laggards` had not arrived.
    TimedOut { laggards: Vec<usize> },
    /// Hosts departed for good (recovery gate only).
    Departed { departed: Vec<usize> },
}

impl WaitBreak {
    pub(crate) fn into_comm_error(self, deadline: &Deadline) -> CommError {
        match self {
            WaitBreak::Failed { failed, suspected } => {
                if !suspected.is_empty() && suspected.len() == failed.len() {
                    CommError::PeerDown { hosts: suspected }
                } else {
                    CommError::HostFailure { hosts: failed }
                }
            }
            WaitBreak::TimedOut { laggards } => CommError::Timeout {
                phase: deadline.phase(),
                hosts: laggards,
            },
            WaitBreak::Departed { departed } => CommError::HostFailure { hosts: departed },
        }
    }
}

/// A barrier that reports peer failures instead of deadlocking.
///
/// Semantically a generation-counted barrier over the *live* hosts: when
/// [`FtBarrier::mark_failed`] records a casualty, every current and future
/// waiter gets `Err` with the casualty list until [`FtBarrier::heal`]
/// resets the barrier (which recovery does once all live hosts are
/// realigned and no waiter can exist). Waits additionally honor a
/// [`Deadline`]: a timed-out waiter withdraws its arrival and reports the
/// hosts that never showed up.
struct FtBarrier {
    state: StdMutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    live: usize,
    failed: Vec<bool>,
    suspected: Vec<bool>,
    here: Vec<bool>,
    /// Hosts excluded by a membership shrink: no longer counted as
    /// participants and never reported as casualties again.
    excluded: Vec<bool>,
    nexcluded: usize,
}

impl BarrierState {
    fn failure(&self) -> WaitBreak {
        WaitBreak::Failed {
            failed: (0..self.failed.len())
                .filter(|&h| self.failed[h] && !self.excluded[h])
                .collect(),
            suspected: (0..self.suspected.len())
                .filter(|&h| self.suspected[h] && !self.excluded[h])
                .collect(),
        }
    }

    /// Hosts still participating after exclusions.
    fn expected(&self) -> usize {
        self.failed.len() - self.nexcluded
    }

    fn any_failed(&self) -> bool {
        self.live < self.expected()
    }
}

impl FtBarrier {
    /// Creates the barrier; `latent` hosts start excluded (not counted as
    /// participants) until a grow verdict re-admits them.
    fn new(hosts: usize, latent: &[usize]) -> Self {
        let mut excluded = vec![false; hosts];
        for &h in latent {
            excluded[h] = true;
        }
        FtBarrier {
            state: StdMutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                live: hosts - latent.len(),
                failed: vec![false; hosts],
                suspected: vec![false; hosts],
                here: vec![false; hosts],
                excluded,
                nexcluded: latent.len(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Waits for all live hosts; `Err` if any host has failed (now or
    /// while waiting) or the deadline passes first.
    fn wait(&self, host: usize, deadline: &Deadline) -> Result<(), WaitBreak> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.any_failed() {
            return Err(s.failure());
        }
        s.arrived += 1;
        s.here[host] = true;
        if s.arrived >= s.live {
            s.arrived = 0;
            s.here.iter_mut().for_each(|h| *h = false);
            s.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let gen = s.generation;
        loop {
            s = match deadline.remaining() {
                None => self.cv.wait(s).unwrap_or_else(|e| e.into_inner()),
                Some(rem) if rem.is_zero() => {
                    // Withdraw the arrival so the generation stays sound for
                    // whoever keeps waiting (checks below ran last wake).
                    s.arrived -= 1;
                    s.here[host] = false;
                    let laggards = (0..s.here.len())
                        .filter(|&h| h != host && !s.here[h] && !s.failed[h] && !s.excluded[h])
                        .collect();
                    return Err(WaitBreak::TimedOut { laggards });
                }
                Some(rem) => {
                    self.cv
                        .wait_timeout(s, rem)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
            // Failure check first: a casualty may make `arrived >= live`
            // true without completing the generation.
            if s.any_failed() {
                return Err(s.failure());
            }
            if s.generation != gen {
                return Ok(());
            }
        }
    }

    /// Records that `host` died; wakes all waiters so they observe the
    /// failure. Idempotent; upgrades a suspicion into a hard failure.
    /// Ignored for excluded hosts — they are no longer participants.
    fn mark_failed(&self, host: usize) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.excluded[host] {
            return;
        }
        if s.failed[host] {
            s.suspected[host] = false;
            return;
        }
        s.failed[host] = true;
        s.live -= 1;
        self.cv.notify_all();
    }

    /// Records a heartbeat suspicion of `host`: like a failure, but
    /// reported as [`CommError::PeerDown`]. Idempotent; never downgrades a
    /// hard failure. Ignored for excluded hosts.
    fn suspect(&self, host: usize) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.failed[host] || s.excluded[host] {
            return;
        }
        s.failed[host] = true;
        s.suspected[host] = true;
        s.live -= 1;
        self.cv.notify_all();
    }

    /// Removes `host` from the barrier's membership: it stops counting
    /// toward completion and is cleared from the casualty lists. Called
    /// under the gate lock by the shrink verdict.
    fn exclude(&self, host: usize) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.excluded[host] {
            return;
        }
        s.excluded[host] = true;
        s.nexcluded += 1;
        if s.failed[host] {
            // `live` was already decremented when the failure landed.
            s.failed[host] = false;
            s.suspected[host] = false;
        } else {
            s.live -= 1;
        }
        self.cv.notify_all();
    }

    /// Re-admits an excluded `host` into the barrier's membership — the
    /// inverse of [`FtBarrier::exclude`], called under the gate lock by a
    /// grow verdict. The host starts counting toward completion again.
    fn include(&self, host: usize) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !s.excluded[host] {
            return;
        }
        s.excluded[host] = false;
        s.nexcluded -= 1;
        s.failed[host] = false;
        s.suspected[host] = false;
        s.here[host] = false;
        s.live += 1;
        self.cv.notify_all();
    }

    /// Resets the barrier to all-members-alive (excluded hosts stay out).
    /// Only sound when no host is waiting on it — recovery guarantees this
    /// by healing under the [`Gate`] lock while every live host is parked
    /// at the gate.
    fn heal(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.live = s.expected();
        for f in &mut s.failed {
            *f = false;
        }
        for f in &mut s.suspected {
            *f = false;
        }
        for h in &mut s.here {
            *h = false;
        }
        s.arrived = 0;
    }
}

/// Recovery-alignment barrier, independent of the (possibly failed)
/// [`FtBarrier`].
///
/// Hosts that complete their closure (or die unrecoverably) are marked
/// *departed*; once any host departs, recovery can never realign the full
/// cluster, so gate waits report the departed hosts instead of hanging.
struct Gate {
    state: StdMutex<GateState>,
    cv: Condvar,
}

struct GateState {
    arrived: usize,
    generation: u64,
    departed: Vec<bool>,
    /// Departed hosts not yet excluded by a shrink verdict; once a shrink
    /// absorbs a departure this drops back to zero and gates work again.
    ndeparted: usize,
    here: Vec<bool>,
    /// Hosts removed from the membership by a shrink verdict. Departed
    /// flags stay set (so heartbeats keep skipping them) but they no
    /// longer count as participants or pending departures.
    excluded: Vec<bool>,
    nexcluded: usize,
    /// Shrink-gate arrivals, kept separate from the recovery gate so a
    /// departure observed mid-shrink cannot corrupt ordinary alignment.
    shrink_arrived: usize,
    shrink_here: Vec<bool>,
    shrink_gen: u64,
    /// Verdict of the shrink generation that last completed.
    shrink_verdict: Vec<usize>,
    /// Latent capacity: hosts that are part of the fabric's address space
    /// but not members until a grow admits them. Latent hosts are also
    /// `excluded` (so every existing collective skips them); the flag
    /// distinguishes "waiting to join" from "removed by a shrink".
    latent: Vec<bool>,
    /// Grow-gate arrivals (members and knocking candidates alike), kept
    /// separate from the recovery and shrink gates.
    grow_here: Vec<bool>,
    grow_gen: u64,
    /// Highest membership generation announced by this grow's arrivals.
    grow_max_gen: u64,
    /// Verdict of the grow generation that last completed.
    grow_verdict: GrowVerdict,
}

impl GateState {
    fn departure(&self) -> WaitBreak {
        WaitBreak::Departed {
            departed: (0..self.departed.len())
                .filter(|&h| self.departed[h] && !self.excluded[h])
                .collect(),
        }
    }

    /// Hosts that are full participants: neither departed nor excluded.
    fn survivors(&self) -> usize {
        self.departed.len() - self.nexcluded - self.ndeparted
    }

    /// Member arrivals at the grow gate (latent candidates not counted).
    fn grow_members_here(&self) -> usize {
        (0..self.grow_here.len())
            .filter(|&h| self.grow_here[h] && !self.latent[h])
            .count()
    }

    /// Live candidates knocking at the grow gate.
    fn grow_candidates(&self) -> Vec<usize> {
        (0..self.grow_here.len())
            .filter(|&h| self.grow_here[h] && self.latent[h] && !self.departed[h])
            .collect()
    }
}

impl Gate {
    fn new(hosts: usize, latent: &[usize]) -> Self {
        let mut excluded = vec![false; hosts];
        let mut latent_flags = vec![false; hosts];
        for &h in latent {
            excluded[h] = true;
            latent_flags[h] = true;
        }
        Gate {
            state: StdMutex::new(GateState {
                arrived: 0,
                generation: 0,
                departed: vec![false; hosts],
                ndeparted: 0,
                here: vec![false; hosts],
                excluded,
                nexcluded: latent.len(),
                shrink_arrived: 0,
                shrink_here: vec![false; hosts],
                shrink_gen: 0,
                shrink_verdict: Vec::new(),
                latent: latent_flags,
                grow_here: vec![false; hosts],
                grow_gen: 0,
                grow_max_gen: 0,
                grow_verdict: GrowVerdict {
                    joined: Vec::new(),
                    members: 0,
                    generation: 0,
                },
            }),
            cv: Condvar::new(),
        }
    }

    /// Waits for all non-departed hosts, running `f` under the gate lock
    /// when the last one arrives (before anyone is released).
    fn wait_then<F: FnOnce()>(
        &self,
        host: usize,
        deadline: &Deadline,
        f: F,
    ) -> Result<(), WaitBreak> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.ndeparted > 0 {
            return Err(s.departure());
        }
        s.arrived += 1;
        s.here[host] = true;
        if s.arrived >= s.survivors() {
            f();
            s.arrived = 0;
            s.here.iter_mut().for_each(|h| *h = false);
            s.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let gen = s.generation;
        loop {
            s = match deadline.remaining() {
                None => self.cv.wait(s).unwrap_or_else(|e| e.into_inner()),
                Some(rem) if rem.is_zero() => {
                    s.arrived -= 1;
                    s.here[host] = false;
                    let laggards = (0..s.here.len())
                        .filter(|&h| h != host && !s.here[h] && !s.departed[h] && !s.excluded[h])
                        .collect();
                    return Err(WaitBreak::TimedOut { laggards });
                }
                Some(rem) => {
                    self.cv
                        .wait_timeout(s, rem)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
            if s.generation != gen {
                return Ok(());
            }
            if s.ndeparted > 0 {
                // Withdraw the arrival: a stale count left behind here
                // would let the post-shrink heal gate complete before
                // every survivor has actually reset and re-arrived.
                s.arrived -= 1;
                s.here[host] = false;
                return Err(s.departure());
            }
        }
    }

    /// Records that `host` left the run for good. Idempotent. Departures of
    /// already-excluded hosts change nothing.
    fn mark_departed(&self, host: usize) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.departed[host] {
            return;
        }
        s.departed[host] = true;
        if !s.excluded[host] {
            s.ndeparted += 1;
        }
        self.cv.notify_all();
    }

    fn is_departed(&self, host: usize) -> bool {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).departed[host]
    }

    /// Departed-but-not-excluded hosts: the casualties a shrink would
    /// absorb.
    fn pending_departures(&self) -> Vec<usize> {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (0..s.departed.len())
            .filter(|&h| s.departed[h] && !s.excluded[h])
            .collect()
    }

    /// The shrink gate: waits until every survivor has arrived, then the
    /// finalizing host computes the verdict — all pending departures —
    /// excludes those hosts (calling `exclude` for each, under the gate
    /// lock, so the barrier shrinks atomically with the gate), and wakes
    /// everyone with the identical sorted verdict.
    ///
    /// A departure that lands *while* survivors are waiting shrinks the
    /// completion target; departure notifications re-run the completion
    /// check, so the gate cannot deadlock on a second casualty.
    fn shrink<F: Fn(usize)>(
        &self,
        host: usize,
        deadline: &Deadline,
        exclude: F,
    ) -> Result<Vec<usize>, WaitBreak> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let gen = s.shrink_gen;
        s.shrink_arrived += 1;
        s.shrink_here[host] = true;
        loop {
            if s.shrink_arrived >= s.survivors() {
                let verdict: Vec<usize> = (0..s.departed.len())
                    .filter(|&h| s.departed[h] && !s.excluded[h])
                    .collect();
                for &h in &verdict {
                    s.excluded[h] = true;
                    exclude(h);
                }
                s.nexcluded += verdict.len();
                s.ndeparted = 0;
                s.shrink_verdict = verdict.clone();
                s.shrink_arrived = 0;
                s.shrink_here.iter_mut().for_each(|h| *h = false);
                s.shrink_gen += 1;
                self.cv.notify_all();
                return Ok(verdict);
            }
            s = match deadline.remaining() {
                None => self.cv.wait(s).unwrap_or_else(|e| e.into_inner()),
                Some(rem) if rem.is_zero() => {
                    s.shrink_arrived -= 1;
                    s.shrink_here[host] = false;
                    let laggards = (0..s.shrink_here.len())
                        .filter(|&h| {
                            h != host && !s.shrink_here[h] && !s.departed[h] && !s.excluded[h]
                        })
                        .collect();
                    return Err(WaitBreak::TimedOut { laggards });
                }
                Some(rem) => {
                    self.cv
                        .wait_timeout(s, rem)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
            if s.shrink_gen != gen {
                return Ok(s.shrink_verdict.clone());
            }
        }
    }

    /// Latent hosts currently knocking at the grow gate.
    fn pending_joiners(&self) -> Vec<usize> {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.grow_candidates()
    }

    /// The grow gate: members arrive with their current membership
    /// generation, latent candidates arrive to knock. Once every member
    /// *and* at least one live candidate are here, the finalizing host
    /// re-admits the candidates (calling `include` for each under the gate
    /// lock, so the barrier grows atomically with the gate) and wakes
    /// everyone with the identical verdict.
    ///
    /// Error paths — deadline expiry, a member departing mid-wait —
    /// withdraw the caller's arrival, so a crash during a join can never
    /// leave a stale arrival that lets a later grow complete early.
    fn grow<F: Fn(usize)>(
        &self,
        host: usize,
        deadline: &Deadline,
        my_generation: u64,
        include: F,
    ) -> Result<GrowVerdict, WaitBreak> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.ndeparted > 0 {
            return Err(s.departure());
        }
        let gen = s.grow_gen;
        s.grow_here[host] = true;
        s.grow_max_gen = s.grow_max_gen.max(my_generation);
        loop {
            let candidates = s.grow_candidates();
            if s.grow_members_here() >= s.survivors() && !candidates.is_empty() {
                for &h in &candidates {
                    s.excluded[h] = false;
                    s.nexcluded -= 1;
                    s.latent[h] = false;
                    include(h);
                }
                let members = (0..s.departed.len())
                    .filter(|&h| !s.excluded[h] && !s.departed[h])
                    .fold(0u64, |m, h| m | (1 << h));
                let verdict = GrowVerdict {
                    joined: candidates,
                    members,
                    generation: s.grow_max_gen,
                };
                s.grow_verdict = verdict.clone();
                s.grow_here.iter_mut().for_each(|h| *h = false);
                s.grow_max_gen = 0;
                s.grow_gen += 1;
                self.cv.notify_all();
                return Ok(verdict);
            }
            s = match deadline.remaining() {
                None => self.cv.wait(s).unwrap_or_else(|e| e.into_inner()),
                Some(rem) if rem.is_zero() => {
                    s.grow_here[host] = false;
                    let laggards = (0..s.grow_here.len())
                        .filter(|&h| {
                            h != host && !s.grow_here[h] && !s.departed[h] && !s.excluded[h]
                        })
                        .collect();
                    return Err(WaitBreak::TimedOut { laggards });
                }
                Some(rem) => {
                    self.cv
                        .wait_timeout(s, rem)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
            if s.grow_gen != gen {
                return Ok(s.grow_verdict.clone());
            }
            if s.ndeparted > 0 {
                s.grow_here[host] = false;
                return Err(s.departure());
            }
        }
    }
}

/// Shared state between the in-process hosts: framed mailboxes,
/// retransmission plumbing, the failure-aware barrier, the recovery gate,
/// and (when enabled) the heartbeat ledger.
pub struct InProcFabric {
    hosts: usize,
    cfg: TransportConfig,
    /// `mailboxes[to][from]` holds frames in flight from `from` to `to`.
    mailboxes: Vec<Vec<Mutex<Vec<Vec<u8>>>>>,
    /// `retx[sender][requester]`: what the requester asks the sender to
    /// re-send (merged across requests until the sender collects them).
    retx: Vec<Vec<Mutex<Option<RetxRequest>>>>,
    /// Per-host "I am still missing a frame" flag, read collectively.
    missing: Vec<AtomicBool>,
    barrier: FtBarrier,
    gate: Gate,
    /// Heartbeat ledger: clock-nanoseconds of each host's last announced
    /// beat.
    last_beat: Vec<AtomicU64>,
    /// Per-host silence deadline (clock-nanoseconds) for the
    /// hang-simulation test hook.
    silence_until: Vec<AtomicU64>,
    /// Hosts configured as latent capacity at construction (immutable —
    /// the *initial* member set is `0..hosts` minus these).
    initial_latent: Vec<usize>,
}

impl InProcFabric {
    /// Creates the shared fabric for `hosts` in-process hosts.
    pub fn new(hosts: usize, cfg: TransportConfig) -> Self {
        Self::new_with_latent(hosts, cfg, &[])
    }

    /// Creates the shared fabric for `hosts` slots of which `latent` start
    /// as non-member capacity: they take part in no collective until a
    /// grow gate admits them.
    pub fn new_with_latent(hosts: usize, cfg: TransportConfig, latent: &[usize]) -> Self {
        // Seed the beat ledger with "now": the clock's epoch is process
        // global, so a zero ledger would read as an ancient silence and
        // trip the detector before the first real beat.
        let now = clock::now_nanos();
        InProcFabric {
            hosts,
            cfg,
            mailboxes: (0..hosts)
                .map(|_| (0..hosts).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            retx: (0..hosts)
                .map(|_| (0..hosts).map(|_| Mutex::new(None)).collect())
                .collect(),
            missing: (0..hosts).map(|_| AtomicBool::new(false)).collect(),
            barrier: FtBarrier::new(hosts, latent),
            gate: Gate::new(hosts, latent),
            last_beat: (0..hosts).map(|_| AtomicU64::new(now)).collect(),
            silence_until: (0..hosts).map(|_| AtomicU64::new(0)).collect(),
            initial_latent: latent.to_vec(),
        }
    }

    fn now_nanos(&self) -> u64 {
        clock::now_nanos()
    }
}

impl std::fmt::Debug for InProcFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcFabric")
            .field("hosts", &self.hosts)
            .field("cfg", &self.cfg)
            .finish()
    }
}

/// Joins the per-host heartbeat thread on drop.
struct HeartbeatGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for HeartbeatGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One host's handle to the shared [`InProcFabric`].
pub struct InProcTransport {
    fabric: Arc<InProcFabric>,
    host: usize,
    _heartbeat: Option<HeartbeatGuard>,
}

impl InProcTransport {
    /// Creates host `host`'s transport, spawning its heartbeat thread if
    /// the fabric's config enables the detector.
    pub fn new(fabric: Arc<InProcFabric>, host: usize) -> Self {
        let heartbeat = fabric.cfg.heartbeat.map(|hb| {
            let stop = Arc::new(AtomicBool::new(false));
            let fab = fabric.clone();
            let flag = stop.clone();
            let handle = std::thread::Builder::new()
                .name(format!("kimbap-hb-{host}"))
                .spawn(move || {
                    while !flag.load(Ordering::Relaxed) {
                        let now = fab.now_nanos();
                        // Beat unless silenced (the hang-simulation hook).
                        if fab.silence_until[host].load(Ordering::Relaxed) <= now {
                            fab.last_beat[host].store(now, Ordering::Relaxed);
                        }
                        // Monitor the peers: prolonged silence is suspicion.
                        let limit = hb.suspect_after.as_nanos() as u64;
                        for peer in 0..fab.hosts {
                            if peer == host || fab.gate.is_departed(peer) {
                                continue;
                            }
                            let seen = fab.last_beat[peer].load(Ordering::Relaxed);
                            if now.saturating_sub(seen) > limit {
                                fab.barrier.suspect(peer);
                            }
                        }
                        clock::sleep(hb.interval);
                    }
                })
                .expect("failed to spawn heartbeat thread");
            HeartbeatGuard {
                stop,
                handle: Some(handle),
            }
        });
        InProcTransport {
            fabric,
            host,
            _heartbeat: heartbeat,
        }
    }
}

impl std::fmt::Debug for InProcTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcTransport")
            .field("host", &self.host)
            .field("hosts", &self.fabric.hosts)
            .finish()
    }
}

impl Transport for InProcTransport {
    fn host(&self) -> usize {
        self.host
    }

    fn num_hosts(&self) -> usize {
        self.fabric.hosts
    }

    fn lossless(&self) -> bool {
        // A mailbox push under a mutex: nothing between `send` and `drain`
        // can drop, reorder or alter a frame.
        true
    }

    fn send(&self, to: usize, frame: Vec<u8>) {
        self.fabric.mailboxes[to][self.host].lock().push(frame);
    }

    fn drain(&self, from: usize) -> Vec<Vec<u8>> {
        std::mem::take(&mut *self.fabric.mailboxes[self.host][from].lock())
    }

    fn request_retx(&self, from: usize, req: RetxRequest) {
        let mut cell = self.fabric.retx[from][self.host].lock();
        match &mut *cell {
            Some(cur) => cur.merge(req),
            None => *cell = Some(req),
        }
    }

    fn take_retx_requests(&self) -> Vec<(usize, RetxRequest)> {
        (0..self.fabric.hosts)
            .filter_map(|r| {
                self.fabric.retx[self.host][r]
                    .lock()
                    .take()
                    .map(|req| (r, req))
            })
            .collect()
    }

    fn barrier(&self, deadline: &Deadline) -> Result<(), CommError> {
        self.fabric
            .barrier
            .wait(self.host, deadline)
            .map_err(|b| b.into_comm_error(deadline))
    }

    fn sync_missing(&self, missing: bool, deadline: &Deadline) -> Result<Vec<bool>, CommError> {
        let fab = &self.fabric;
        fab.missing[self.host].store(missing, Ordering::Relaxed);
        self.barrier(deadline)?;
        // All flags are now published; every host reads the same snapshot.
        Ok((0..fab.hosts)
            .map(|h| fab.missing[h].load(Ordering::Relaxed))
            .collect())
    }

    fn mark_failed(&self) {
        self.fabric.barrier.mark_failed(self.host);
    }

    fn mark_departed(&self) {
        self.fabric.gate.mark_departed(self.host);
    }

    fn gate_align(&self, deadline: &Deadline) -> Result<(), CommError> {
        self.fabric
            .gate
            .wait_then(self.host, deadline, || {})
            .map_err(|b| b.into_comm_error(deadline))
    }

    fn recover_reset(&self) {
        let fab = &self.fabric;
        let me = self.host;
        // Each host clears its own rows; the rows are disjoint, and
        // together the hosts cover every cell.
        for h in 0..fab.hosts {
            fab.mailboxes[me][h].lock().clear();
            *fab.retx[me][h].lock() = None;
        }
        fab.missing[me].store(false, Ordering::Relaxed);
        // A recovering host is alive by definition: refresh its beat so a
        // pre-recovery silence is not re-flagged after the heal.
        fab.last_beat[me].store(fab.now_nanos(), Ordering::Relaxed);
    }

    fn gate_heal(&self, deadline: &Deadline) -> Result<(), CommError> {
        let fab = &self.fabric;
        // The last arriver heals the barrier under the gate lock, before
        // any host is released to use it.
        fab.gate
            .wait_then(self.host, deadline, || fab.barrier.heal())
            .map_err(|b| b.into_comm_error(deadline))
    }

    fn gate_shrink(&self, deadline: &Deadline) -> Result<Vec<usize>, CommError> {
        let fab = &self.fabric;
        fab.gate
            .shrink(self.host, deadline, |h| fab.barrier.exclude(h))
            .map_err(|b| b.into_comm_error(deadline))
    }

    fn shrink_heal(&self, deadline: &Deadline) -> Result<(), CommError> {
        // Post-verdict the pending-departure count is zero, so the plain
        // recovery gate (and its barrier heal) realigns the survivors.
        self.gate_heal(deadline)
    }

    fn gate_grow(&self, deadline: &Deadline, my_generation: u64) -> Result<GrowVerdict, CommError> {
        let fab = &self.fabric;
        fab.gate
            .grow(self.host, deadline, my_generation, |h| {
                fab.barrier.include(h)
            })
            .map_err(|b| b.into_comm_error(deadline))
    }

    fn grow_heal(&self, deadline: &Deadline) -> Result<(), CommError> {
        // Post-verdict the joiners count as survivors, so the plain
        // recovery gate (and its barrier heal) aligns the grown set.
        self.gate_heal(deadline)
    }

    fn pending_joiners(&self) -> Vec<usize> {
        self.fabric.gate.pending_joiners()
    }

    fn latent_hosts(&self) -> Vec<usize> {
        self.fabric.initial_latent.clone()
    }

    fn departed_hosts(&self) -> Vec<usize> {
        self.fabric.gate.pending_departures()
    }

    fn silence(&self, d: Duration) {
        let until = self.fabric.now_nanos() + d.as_nanos() as u64;
        self.fabric.silence_until[self.host].store(until, Ordering::Relaxed);
    }
}
