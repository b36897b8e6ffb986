//! The in-process carrier: shared-memory mailboxes, and one mutex-guarded
//! [`Membership`] view per host that peers post into directly — no
//! encoding, one lock and (when the host is waiting) one wake-up per
//! message.
//!
//! With the default [`TransportConfig`] this carrier spawns no threads and
//! every wait is unbounded. Deadlines and the heartbeat detector are
//! opt-in layers on the same primitives.

use super::{Ctrl, Deadline, Membership, Transport, TransportConfig};
use crate::clock;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::time::Duration;

/// One host's view plus whether the host is parked on it (so a post
/// signals the condvar only when someone is there to wake).
struct Slot {
    view: Membership,
    waiting: bool,
}

/// Shared state between the in-process hosts: framed mailboxes, the
/// per-host views, and (when enabled) the heartbeat ledger.
pub struct InProcFabric {
    hosts: usize,
    cfg: TransportConfig,
    /// `mailboxes[to][from]` holds frames in flight from `from` to `to`.
    mailboxes: Vec<Vec<Mutex<Vec<Vec<u8>>>>>,
    slots: Vec<StdMutex<Slot>>,
    cvs: Vec<Condvar>,
    /// Heartbeat ledger: clock-nanoseconds of each host's last announced
    /// beat.
    last_beat: Vec<AtomicU64>,
    /// Per-host silence deadline (clock-nanoseconds) for the
    /// hang-simulation test hook.
    silence_until: Vec<AtomicU64>,
}

impl InProcFabric {
    /// Creates the shared fabric for `hosts` slots of which `latent` start
    /// as non-member capacity: they take part in no collective until a
    /// grow gate admits them.
    pub fn new(hosts: usize, cfg: TransportConfig, latent: &[usize]) -> Self {
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
            slots: (0..hosts)
                .map(|h| {
                    StdMutex::new(Slot {
                        view: Membership::new(hosts, h, latent),
                        waiting: false,
                    })
                })
                .collect(),
            cvs: (0..hosts).map(|_| Condvar::new()).collect(),
            last_beat: (0..hosts).map(|_| AtomicU64::new(now)).collect(),
            silence_until: (0..hosts).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn slot(&self, h: usize) -> MutexGuard<'_, Slot> {
        self.slots[h].lock().unwrap_or_else(|e| e.into_inner())
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
                    let limit = hb.suspect_after.as_nanos() as u64;
                    while !flag.load(Ordering::Relaxed) {
                        let now = clock::now_nanos();
                        // Beat unless silenced (the hang-simulation hook).
                        if fab.silence_until[host].load(Ordering::Relaxed) <= now {
                            fab.last_beat[host].store(now, Ordering::Relaxed);
                        }
                        // Monitor the peers: prolonged silence is suspicion.
                        let mut slot = fab.slot(host);
                        let mut woke = false;
                        for peer in 0..fab.hosts {
                            let seen = fab.last_beat[peer].load(Ordering::Relaxed);
                            if now.saturating_sub(seen) > limit && slot.view.watches(peer) {
                                woke |= slot.view.suspect(peer);
                            }
                        }
                        let waiting = slot.waiting;
                        drop(slot);
                        if woke && waiting {
                            fab.cvs[host].notify_all();
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

    fn post(&self, to: usize, msg: Ctrl) {
        let mut slot = self.fabric.slot(to);
        slot.view.apply(self.host, msg);
        let waiting = slot.waiting;
        drop(slot);
        if waiting {
            self.fabric.cvs[to].notify_all();
        }
    }

    fn wait(&self, deadline: &Deadline, step: &mut dyn FnMut(&mut Membership, bool) -> bool) {
        let cv = &self.fabric.cvs[self.host];
        let mut slot = self.fabric.slot(self.host);
        loop {
            let rem = deadline.remaining();
            let expired = rem.is_some_and(|r| r.is_zero());
            if step(&mut slot.view, expired) {
                return;
            }
            slot.waiting = true;
            slot = match rem {
                None => cv.wait(slot).unwrap_or_else(|e| e.into_inner()),
                Some(rem) => {
                    cv.wait_timeout(slot, rem)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
            slot.waiting = false;
        }
    }

    fn reset(&self) {
        // Each host clears its own inbound row; together the hosts cover
        // every mailbox.
        for h in 0..self.fabric.hosts {
            self.fabric.mailboxes[self.host][h].lock().clear();
        }
        // A recovering host is alive by definition: refresh its beat so a
        // pre-recovery silence is not re-flagged after the heal.
        self.fabric.last_beat[self.host].store(clock::now_nanos(), Ordering::Relaxed);
    }

    fn silence(&self, d: Duration) {
        let until = clock::now_nanos() + d.as_nanos() as u64;
        self.fabric.silence_until[self.host].store(until, Ordering::Relaxed);
    }
}
