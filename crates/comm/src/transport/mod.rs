//! The carrier contract behind the cluster's collectives.
//!
//! [`crate::HostCtx`]'s exchange protocol — framing, sequencing, CRC
//! validation, fault injection, retransmission from the retained outbox,
//! and the collective retry verdict — lives in `cluster.rs`; the
//! membership protocol — barriers, loss agreement, recovery alignment,
//! shrink and grow — lives once in [`membership`], over one per-host
//! [`membership::Membership`] view. A [`Transport`] is only the carrier
//! underneath: it moves frames, delivers [`membership::Ctrl`] messages to
//! a peer's view in per-link FIFO order, and blocks on its own host's
//! view. Three carriers implement it:
//!
//! * [`inproc::InProcTransport`] — shared-memory mailboxes; a post applies
//!   the message straight to the peer's mutex-guarded view. The default,
//!   and the only lossless carrier.
//! * [`tcp::TcpTransport`] — a real TCP mesh (one connection per host
//!   pair, one writer thread per peer); each connection's reader thread
//!   feeds the view. Used by `kimbap run --transport tcp`.
//! * [`sim::SimTransport`] — the deterministic simulation: hosts run one
//!   at a time under a seeded scheduler on a virtual clock, and a host
//!   blocked on its view is re-run whenever a post changes it.
//!
//! Robustness is layered above the carrier: phase [`Deadline`]s bound
//! every blocking wait (a hung peer surfaces as
//! [`crate::CommError::Timeout`] instead of wedging the round), each
//! carrier's optional heartbeat detector marks silent peers suspected in
//! its own view ([`crate::CommError::PeerDown`]), and retries use
//! [`Backoff`] with exponential growth and decorrelated jitter.

use crate::fault::mix;
pub use membership::{Ctrl, Membership};
use std::time::Duration;

pub mod inproc;
pub mod membership;
pub mod sim;
pub mod tcp;

/// A phase deadline carried into every blocking transport wait.
///
/// `Deadline::none()` (the default) waits forever. A bounded deadline
/// makes the wait return [`crate::CommError::Timeout`] naming the phase
/// and the laggard hosts.
///
/// Expiry is stored as nanoseconds on the ambient [`crate::clock::Clock`]
/// rather than an `Instant`, so a deadline stamped inside the simulation
/// backend expires in virtual time — microseconds of wall time — while a
/// deadline stamped on a real run expires in wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Option<u64>,
    phase: &'static str,
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::none()
    }
}

impl Deadline {
    /// An unbounded deadline: waits block until the condition resolves.
    pub const fn none() -> Self {
        Deadline {
            at: None,
            phase: "",
        }
    }

    /// A deadline `timeout` from now (on the ambient clock), attributed to
    /// `phase`.
    pub fn after(phase: &'static str, timeout: Duration) -> Self {
        Deadline {
            at: crate::clock::now_nanos().checked_add(timeout.as_nanos() as u64),
            phase,
        }
    }

    /// [`Deadline::after`] when a timeout is configured, otherwise
    /// [`Deadline::none`].
    pub fn maybe(phase: &'static str, timeout: Option<Duration>) -> Self {
        match timeout {
            Some(t) => Deadline::after(phase, t),
            None => Deadline {
                at: None,
                phase,
            },
        }
    }

    /// The phase label used in [`crate::CommError::Timeout`].
    pub fn phase(&self) -> &'static str {
        if self.phase.is_empty() {
            "collective"
        } else {
            self.phase
        }
    }

    /// Time left before expiry (on the ambient clock); `None` means
    /// unbounded.
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| Duration::from_nanos(at.saturating_sub(crate::clock::now_nanos())))
    }

    /// Absolute expiry in ambient-clock nanoseconds; `None` means
    /// unbounded. The simulation backend uses this to register timer
    /// events instead of polling `remaining`.
    pub fn at_nanos(&self) -> Option<u64> {
        self.at
    }

    /// True once a bounded deadline has passed.
    pub fn expired(&self) -> bool {
        matches!(self.remaining(), Some(d) if d.is_zero())
    }
}

/// Exponential backoff with decorrelated jitter (seeded, hence
/// deterministic): each delay is drawn uniformly from
/// `[base, 3 * previous]` and clamped to `cap`.
///
/// Replaces fixed `20µs << attempt` retry sleeps: jitter decorrelates the
/// retry storms of hosts that failed together, while the seed keeps any
/// single host's schedule reproducible.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    cur: Duration,
    rng: u64,
}

impl Backoff {
    /// A backoff starting at `base` and never exceeding `cap`.
    pub fn new(seed: u64, base: Duration, cap: Duration) -> Self {
        Backoff {
            base,
            cap,
            cur: base,
            rng: mix(seed),
        }
    }

    /// The default retransmission backoff for `host` (tens of microseconds
    /// up to ~2ms — the in-proc exchange retry scale).
    pub fn retransmit(host: usize) -> Self {
        Backoff::new(
            host as u64 ^ 0x7261_6e73_6d69_7473,
            Duration::from_micros(20),
            Duration::from_millis(2),
        )
    }

    /// The default reconnect backoff for `host` (milliseconds up to a
    /// second — TCP connection establishment scale).
    pub fn reconnect(host: usize) -> Self {
        Backoff::new(
            host as u64 ^ 0x7265_636f_6e6e_6563,
            Duration::from_millis(2),
            Duration::from_secs(1),
        )
    }

    /// Draws the next delay.
    pub fn next_delay(&mut self) -> Duration {
        self.rng = mix(self.rng);
        let lo = self.base.as_nanos() as u64;
        let hi = (self.cur.as_nanos() as u64).saturating_mul(3).max(lo + 1);
        let nanos = lo + self.rng % (hi - lo);
        self.cur = Duration::from_nanos(nanos).min(self.cap);
        self.cur
    }

    /// Sleeps for the next delay on the ambient clock (virtual time under
    /// the simulation backend).
    pub fn sleep(&mut self) {
        crate::clock::sleep(self.next_delay());
    }
}

/// Heartbeat failure-detector settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// How often each host announces liveness.
    pub interval: Duration,
    /// Silence longer than this marks the peer suspected
    /// ([`crate::CommError::PeerDown`]).
    pub suspect_after: Duration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_millis(25),
            suspect_after: Duration::from_millis(250),
        }
    }
}

/// Transport-level options, shared by every carrier.
///
/// The default disables the heartbeat detector: no extra threads, no
/// timing sensitivity, bit-identical behavior to the pre-transport
/// cluster. Tests and the multi-process launcher opt in explicitly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransportConfig {
    /// Run the heartbeat failure detector with these settings; `None`
    /// (default) disables it.
    pub heartbeat: Option<HeartbeatConfig>,
}

impl TransportConfig {
    /// A config with the heartbeat detector enabled at `hb`.
    pub fn with_heartbeat(hb: HeartbeatConfig) -> Self {
        TransportConfig {
            heartbeat: Some(hb),
        }
    }
}

/// What a receiver asks a sender to re-send for the current exchange.
///
/// With chunked payloads the retransmit granularity is per chunk: a
/// receiver that knows exactly which chunk indices it is missing asks for
/// just those, and a receiver that has not yet seen the stream's final
/// chunk (so cannot know the full extent) asks for everything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetxRequest {
    /// Re-send every retained chunk of the current exchange.
    All,
    /// Re-send just these chunk indices (sorted, deduplicated).
    Chunks(Vec<u32>),
}

impl RetxRequest {
    /// Merges another request into this one: `All` absorbs everything;
    /// two chunk lists take their sorted union.
    pub fn merge(&mut self, other: RetxRequest) {
        match (&mut *self, other) {
            (RetxRequest::All, _) => {}
            (_, RetxRequest::All) => *self = RetxRequest::All,
            (RetxRequest::Chunks(mine), RetxRequest::Chunks(theirs)) => {
                mine.extend(theirs);
                mine.sort_unstable();
                mine.dedup();
            }
        }
    }
}

/// The agreed outcome of a membership grow: which latent hosts were
/// admitted, what the post-grow member set is, and the generation the
/// expanded cluster continues from.
///
/// Every participant of the same grow gate — survivors and joiners alike
/// — receives an identical verdict. The member mask is authoritative: a
/// joiner has no way to know which hosts earlier shrinks removed (or
/// earlier grows added), so it adopts the mask instead of deriving one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrowVerdict {
    /// Physical ids of the hosts admitted by this grow, sorted.
    pub joined: Vec<usize>,
    /// Post-grow member mask (bit `h` set ⇔ physical host `h` is a
    /// member), including the newly admitted hosts.
    pub members: u64,
    /// The highest membership generation any participant had completed
    /// before this grow; everyone continues at `generation + 1`.
    pub generation: u64,
}

/// Moves frames and [`Ctrl`] messages between hosts and blocks on this
/// host's [`Membership`] view.
///
/// One instance exists per host (it knows its own identity). Methods are
/// called from the host's main thread; implementations must be `Sync`
/// because [`crate::HostCtx`] is shared with intra-host worker closures.
/// Every collective is written once over these methods (see
/// [`membership`]); an implementation only carries.
pub trait Transport: Sync {
    /// This host's id in `0..num_hosts`.
    fn host(&self) -> usize;

    /// Number of host slots in the mesh, latent capacity included.
    fn num_hosts(&self) -> usize;

    /// Whether this carrier delivers every frame handed to
    /// [`Transport::send`] intact, in order, and visible to the receiver's
    /// [`Transport::drain`] once the receiver has seen a barrier arrival
    /// the send preceded. The exchange protocol drops its integrity
    /// machinery (CRC, retained outbox, the loss-agreement rendezvous) on
    /// such a carrier when no fault plan is installed. Default: `false`.
    fn lossless(&self) -> bool {
        false
    }

    /// Queues one raw frame for delivery to `to`. Best-effort: loss is
    /// detected (and repaired) by the generic retransmission layer, and
    /// dead peers surface from the next collective wait.
    fn send(&self, to: usize, frame: Vec<u8>);

    /// Takes every frame that has arrived from `from`.
    fn drain(&self, from: usize) -> Vec<Vec<u8>>;

    /// Delivers `msg` to `to`'s view, after everything this host sent or
    /// posted to `to` before it, and wakes `to` if it is waiting.
    fn post(&self, to: usize, msg: Ctrl);

    /// Runs `step(view, expired)` on this host's view under its lock —
    /// again each time the view changes — until it returns `true`. Once
    /// `deadline` has passed, `step` is called with `expired` set and must
    /// return `true`.
    fn wait(&self, deadline: &Deadline, step: &mut dyn FnMut(&mut Membership, bool) -> bool);

    /// Drops this host's undelivered frames and refreshes its liveness
    /// bookkeeping. Recovery calls it between the align and heal gates,
    /// when no member is sending.
    fn reset(&self);

    /// Test hook: suppresses this host's heartbeats for `d`, simulating a
    /// host that has gone silent without crashing.
    fn silence(&self, d: Duration);

    /// Trace hook: the generic layers report protocol steps and the
    /// decisions they made above the carrier (fault-injection verdicts,
    /// injected crashes and stalls) so a recording carrier can linearize
    /// them into its event trace. Default: ignored — only the simulation
    /// records.
    fn note(&self, _kind: &'static str, _detail: std::fmt::Arguments<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_deadline_never_expires() {
        let d = Deadline::none();
        assert_eq!(d.remaining(), None);
        assert!(!d.expired());
        assert_eq!(d.phase(), "collective");
        assert_eq!(Deadline::maybe("x", None).remaining(), None);
        assert_eq!(Deadline::maybe("x", None).phase(), "x");
    }

    #[test]
    fn bounded_deadline_expires() {
        let d = Deadline::after("probe", Duration::from_millis(1));
        assert_eq!(d.phase(), "probe");
        assert!(d.remaining().is_some());
        std::thread::sleep(Duration::from_millis(5));
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn retx_requests_merge_to_all_or_sorted_union() {
        let mut r = RetxRequest::Chunks(vec![3, 1]);
        r.merge(RetxRequest::Chunks(vec![2, 3]));
        assert_eq!(r, RetxRequest::Chunks(vec![1, 2, 3]));
        r.merge(RetxRequest::All);
        assert_eq!(r, RetxRequest::All);
        r.merge(RetxRequest::Chunks(vec![9]));
        assert_eq!(r, RetxRequest::All);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        let mk = || Backoff::new(9, Duration::from_micros(20), Duration::from_millis(2));
        let (mut a, mut b) = (mk(), mk());
        let da: Vec<_> = (0..32).map(|_| a.next_delay()).collect();
        let db: Vec<_> = (0..32).map(|_| b.next_delay()).collect();
        assert_eq!(da, db, "same seed, same schedule");
        assert!(da.iter().all(|d| *d >= Duration::from_micros(20)));
        assert!(da.iter().all(|d| *d <= Duration::from_millis(2)));
        // Jitter: the schedule is not a fixed geometric ladder.
        assert!(da.windows(2).any(|w| w[0] != w[1]));
        // Decorrelated across seeds.
        let mut c = Backoff::new(10, Duration::from_micros(20), Duration::from_millis(2));
        let dc: Vec<_> = (0..32).map(|_| c.next_delay()).collect();
        assert_ne!(da, dc);
    }
}
