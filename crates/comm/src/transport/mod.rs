//! The pluggable host-to-host transport behind the cluster's collectives.
//!
//! [`crate::HostCtx`]'s exchange protocol — framing, sequencing, CRC
//! validation, fault injection, retransmission from the retained outbox,
//! and the collective retry verdict — is backend-agnostic; everything that
//! actually moves bytes between hosts sits behind the [`Transport`] trait.
//! Two backends implement it:
//!
//! * [`inproc::InProcTransport`] — the original in-memory fabric (shared
//!   mailboxes, a failure-aware barrier, a recovery gate), the default and
//!   the deterministic test backend;
//! * [`tcp::TcpTransport`] — a real TCP mesh (one connection per host
//!   pair) for multi-process runs via `kimbap run --transport tcp`.
//!
//! Robustness is layered on the trait boundary, not per backend: phase
//! [`Deadline`]s bound every blocking wait (a hung peer surfaces as
//! [`crate::CommError::Timeout`] instead of wedging the round), an
//! optional heartbeat failure detector turns silent peers into
//! [`crate::CommError::PeerDown`], and retries use [`Backoff`] with
//! exponential growth and decorrelated jitter.

use crate::cluster::CommError;
use crate::fault::mix;
use std::time::Duration;

pub mod inproc;
pub mod sim;
pub mod tcp;

/// A phase deadline carried into every blocking transport wait.
///
/// `Deadline::none()` (the default) waits forever — exactly the pre-PR
/// behavior. A bounded deadline makes the wait return
/// [`CommError::Timeout`] naming the phase and the laggard hosts.
///
/// Expiry is stored as nanoseconds on the ambient [`crate::clock::Clock`]
/// rather than an `Instant`, so a deadline stamped inside the simulation
/// backend expires in virtual time — microseconds of wall time — while a
/// deadline stamped on a real run behaves exactly as before.
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

    /// The phase label used in [`CommError::Timeout`].
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
    /// ([`CommError::PeerDown`]).
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

/// Transport-level options, shared by both backends.
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

/// Moves framed bytes between hosts and implements the collective
/// synchronization primitives the exchange protocol is built on.
///
/// One instance exists per host (it knows its own identity). Methods are
/// called from the host's main thread; implementations must be `Sync`
/// because [`crate::HostCtx`] is shared with intra-host worker closures.
///
/// The generic layer in `cluster.rs` owns everything above this trait:
/// sequence numbers, the retained outbox, delayed-frame buffers, CRC
/// validation, fault injection, and the retry loop. Implementations only
/// move bytes and synchronize.
pub trait Transport: Sync {
    /// This host's id in `0..num_hosts`.
    fn host(&self) -> usize;

    /// Number of hosts in the mesh.
    fn num_hosts(&self) -> usize;

    /// Whether this carrier delivers every frame handed to
    /// [`Transport::send`] intact, in order, and visible to the receiver's
    /// [`Transport::drain`] once both hosts have passed a
    /// [`Transport::barrier`] the send preceded. The exchange protocol
    /// drops its integrity machinery (CRC, retained outbox, the
    /// loss-agreement rendezvous) on such a carrier when no fault plan is
    /// installed. Default: `false` — a carrier must opt in.
    fn lossless(&self) -> bool {
        false
    }

    /// Queues one raw frame for delivery to `to`. Best-effort: loss is
    /// detected (and repaired) by the generic retransmission layer, and
    /// dead peers surface from the next collective wait.
    fn send(&self, to: usize, frame: Vec<u8>);

    /// Takes every frame that has arrived from `from`.
    fn drain(&self, from: usize) -> Vec<Vec<u8>>;

    /// Asks `from` to re-send retained chunks of its current exchange
    /// payload for this host. Requests accumulate on the sender side via
    /// [`RetxRequest::merge`] until collected.
    fn request_retx(&self, from: usize, req: RetxRequest);

    /// The peers that asked this host to re-send since the last call,
    /// with their merged requests (clearing the requests).
    fn take_retx_requests(&self) -> Vec<(usize, RetxRequest)>;

    /// Failure-aware barrier over all hosts, bounded by `deadline`.
    fn barrier(&self, deadline: &Deadline) -> Result<(), CommError>;

    /// Collective missing-flag sync: publishes this host's flag, waits for
    /// every host's, and returns the host-indexed snapshot (own flag
    /// included). Doubles as a barrier: every host sees the same snapshot.
    fn sync_missing(&self, missing: bool, deadline: &Deadline) -> Result<Vec<bool>, CommError>;

    /// Marks this host failed, waking every peer's collective waits with
    /// [`CommError::HostFailure`]. Idempotent.
    fn mark_failed(&self);

    /// Marks this host as permanently gone (closure finished or died
    /// unrecoverably); recovery alignment reports it instead of hanging.
    /// Idempotent.
    fn mark_departed(&self);

    /// Recovery alignment, phase 1: waits until every non-departed host
    /// has stopped issuing traffic and entered recovery.
    fn gate_align(&self, deadline: &Deadline) -> Result<(), CommError>;

    /// Recovery alignment, phase 2: discards this host's transport-side
    /// state (undelivered frames, retransmission requests, barrier
    /// progress). Called between [`Transport::gate_align`] and
    /// [`Transport::gate_heal`], when no host is sending.
    fn recover_reset(&self);

    /// Recovery alignment, phase 3: waits for every non-departed host to
    /// finish resetting, then heals the failure state so collectives work
    /// again.
    fn gate_heal(&self, deadline: &Deadline) -> Result<(), CommError>;

    /// Membership shrink, phase 1: waits until every *survivor* — every
    /// host that is neither permanently departed nor already excluded by an
    /// earlier shrink — has entered the shrink gate, then agrees on the
    /// verdict: the set of departed-but-not-yet-excluded hosts. Those hosts
    /// are excluded from every future collective (barriers, gates,
    /// heartbeats) and the sorted verdict is returned identically on every
    /// survivor. Backends that cannot shrink return
    /// [`CommError::Protocol`].
    fn gate_shrink(&self, _deadline: &Deadline) -> Result<Vec<usize>, CommError> {
        Err(CommError::Protocol {
            detail: "transport does not support membership shrink".to_string(),
        })
    }

    /// Membership shrink, phase 2: waits for every survivor to finish
    /// resetting its protocol state, then heals the failure machinery for
    /// the reduced membership. Called after [`Transport::gate_shrink`] and
    /// [`Transport::recover_reset`].
    fn shrink_heal(&self, _deadline: &Deadline) -> Result<(), CommError> {
        Ok(())
    }

    /// Hosts currently known to be permanently departed but not yet
    /// excluded by a shrink verdict — the casualties a
    /// [`CommError::MembershipLost`] should name. Empty when recovery is
    /// still possible within the current membership.
    fn departed_hosts(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Membership grow, phase 1: a generation-stamped agreement admitting
    /// latent hosts. Members call it with their current membership
    /// generation at a round boundary; a latent host calls it (with
    /// generation 0) to knock — the call *is* its admission request. The
    /// gate completes when every member has arrived and at least one
    /// candidate is knocking; the identical [`GrowVerdict`] is returned to
    /// every participant. Error paths (deadline expiry, a member dying
    /// mid-wait) withdraw the caller's gate arrival so a crash during a
    /// join cannot wedge the remaining participants. Backends that cannot
    /// grow return [`CommError::Protocol`].
    fn gate_grow(&self, _deadline: &Deadline, _my_generation: u64) -> Result<GrowVerdict, CommError> {
        Err(CommError::Protocol {
            detail: "transport does not support membership grow".to_string(),
        })
    }

    /// Membership grow, phase 2: waits for every post-grow member (old
    /// members plus the admitted joiners) to finish resetting its protocol
    /// state, then heals the failure machinery for the expanded
    /// membership. Called after [`Transport::gate_grow`] and
    /// [`Transport::recover_reset`].
    fn grow_heal(&self, _deadline: &Deadline) -> Result<(), CommError> {
        Ok(())
    }

    /// Latent hosts currently knocking at the grow gate — what a member's
    /// per-round grow vote observes. Empty on backends without grow
    /// support.
    fn pending_joiners(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Hosts configured as latent capacity: part of the mesh's address
    /// space but not members until a grow admits them. Empty on backends
    /// without grow support.
    fn latent_hosts(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Test hook: suppresses this host's heartbeats for `d`, simulating a
    /// host that has gone silent without crashing.
    fn silence(&self, d: Duration);

    /// Trace hook: the generic layer reports decisions it made above the
    /// transport (fault-injection verdicts, injected crashes and stalls)
    /// so a recording backend can linearize them into its event trace.
    /// Default: ignored — only the simulation backend records.
    fn note(&self, _kind: &'static str, _detail: String) {}
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
