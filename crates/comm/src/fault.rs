//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] describes, ahead of a run, which failures the fabric
//! should inject: targeted single faults (drop/duplicate/delay/corrupt a
//! specific sender→receiver frame in a specific round, or crash a host at
//! a round boundary) and seeded random background fault rates. The fabric
//! consults the plan on every send and at every barrier, so any failure
//! scenario is a reproducible unit test: the same plan against the same
//! program yields the same injected faults.
//!
//! Round numbers come from [`crate::HostCtx::set_round`]; algorithms and
//! the engine publish their BSP round before each round's collectives.
//! Code that never calls `set_round` runs entirely in round 0, so plans
//! targeting round 0 (or `any_round`) still apply.

use std::sync::atomic::{AtomicU32, Ordering};

/// What a single targeted fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame is silently discarded.
    DropFrame,
    /// The frame is delivered twice.
    DuplicateFrame,
    /// The frame is held back and delivered during the sender's *next*
    /// exchange (where it arrives stale and is rejected by sequence
    /// number) — modeling reordering/late delivery.
    DelayFrame,
    /// One bit of the frame (header or payload) is flipped in flight.
    CorruptFrame {
        /// Bit index to flip, taken modulo the frame's bit length.
        bit: u32,
    },
    /// The host panics (simulated crash) on entry to its next collective.
    CrashHost,
    /// The host is lost permanently on entry to its next collective: it
    /// never participates in recovery alignment again, so survivors must
    /// either shrink the membership (a run whose plan kills a host does,
    /// see [`FaultPlan::changes_membership`]) or abort with
    /// `CommError::MembershipLost`. In multi-process mode the worker
    /// process exits instead of panicking, modeling a machine death.
    KillHost,
    /// The host goes silent (stops sending, including heartbeats) for the
    /// given duration on entry to its next collective — modeling a hung
    /// (but not crashed) worker. Detected by the heartbeat failure
    /// detector or by phase deadlines, never by the host itself.
    StallHost {
        /// How long the host stays silent, in milliseconds.
        millis: u32,
    },
}

/// One targeted fault: a kind plus a match condition.
#[derive(Debug, Clone)]
pub struct Fault {
    /// What to do.
    pub kind: FaultKind,
    /// Sending host (crashing host for [`FaultKind::CrashHost`]); `None`
    /// matches any. Plans meant for exact replay should pin this: with
    /// `None`, which host claims the firing budget first depends on thread
    /// scheduling.
    pub from: Option<usize>,
    /// Receiving host; `None` matches any. Ignored for crashes.
    pub to: Option<usize>,
    /// BSP round to fire in; `None` matches any round.
    pub round: Option<u64>,
    /// Chunk index within the exchange payload to fire on; `None` matches
    /// any chunk. Lets plans target a specific chunk boundary (e.g. drop
    /// only the k-th chunk of a large payload, or its final, stream-closing
    /// chunk).
    pub chunk: Option<u32>,
    /// How many times the fault fires before it is spent.
    pub times: u32,
}

impl Fault {
    fn matches(&self, from: usize, to: usize, round: u64, chunk: u32) -> bool {
        self.from.is_none_or(|f| f == from)
            && self.to.is_none_or(|t| t == to)
            && self.round.is_none_or(|r| r == round)
            && self.chunk.is_none_or(|c| c == chunk)
    }
}

/// A deterministic fault schedule for one cluster run.
///
/// Built with the `FaultPlan::drop_frame`-style methods; an empty
/// (default) plan injects nothing and costs one branch per send.
///
/// # Example
///
/// ```
/// use kimbap_comm::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .drop_frame(0, 1, 2)        // drop host 0 -> host 1 in round 2
///     .corrupt_frame(1, 0, 3, 17) // flip bit 17 of a 1 -> 0 frame in round 3
///     .crash_host(2, 4);          // crash host 2 entering round 4
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pub(crate) faults: Vec<Fault>,
    pub(crate) seed: u64,
    pub(crate) drop_rate: f64,
    pub(crate) duplicate_rate: f64,
    pub(crate) corrupt_rate: f64,
    pub(crate) delay_rate: f64,
    /// Hosts that start latent and knock to join mid-run: `(host,
    /// delay_ms)`. Not a fault per se, but part of the same deterministic
    /// schedule: the cluster reserves the host as capacity and the host
    /// begins knocking after the delay.
    pub(crate) joins: Vec<(usize, u64)>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
            && self.drop_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.delay_rate == 0.0
    }

    /// Adds an arbitrary targeted fault.
    pub fn fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    fn pair_fault(self, kind: FaultKind, from: usize, to: usize, round: u64) -> Self {
        self.fault(Fault {
            kind,
            from: Some(from),
            to: Some(to),
            round: Some(round),
            chunk: None,
            times: 1,
        })
    }

    /// Drops one `from -> to` frame in `round`.
    pub fn drop_frame(self, from: usize, to: usize, round: u64) -> Self {
        self.pair_fault(FaultKind::DropFrame, from, to, round)
    }

    /// Delivers one `from -> to` frame twice in `round`.
    pub fn duplicate_frame(self, from: usize, to: usize, round: u64) -> Self {
        self.pair_fault(FaultKind::DuplicateFrame, from, to, round)
    }

    /// Delays one `from -> to` frame in `round` until the sender's next
    /// exchange.
    pub fn delay_frame(self, from: usize, to: usize, round: u64) -> Self {
        self.pair_fault(FaultKind::DelayFrame, from, to, round)
    }

    /// Flips bit `bit` (mod frame length) of one `from -> to` frame in
    /// `round`.
    pub fn corrupt_frame(self, from: usize, to: usize, round: u64, bit: u32) -> Self {
        self.pair_fault(FaultKind::CorruptFrame { bit }, from, to, round)
    }

    /// Drops the chunk with index `chunk` of one `from -> to` exchange
    /// payload in `round` — targeting a chunk boundary instead of the whole
    /// payload, so partial-payload recovery is exercised.
    pub fn drop_chunk(self, from: usize, to: usize, round: u64, chunk: u32) -> Self {
        self.fault(Fault {
            kind: FaultKind::DropFrame,
            from: Some(from),
            to: Some(to),
            round: Some(round),
            chunk: Some(chunk),
            times: 1,
        })
    }

    /// Crashes `host` when it enters its first collective of `round`.
    pub fn crash_host(self, host: usize, round: u64) -> Self {
        self.fault(Fault {
            kind: FaultKind::CrashHost,
            from: Some(host),
            to: None,
            round: Some(round),
            chunk: None,
            times: 1,
        })
    }

    /// Permanently kills `host` when it enters its first collective of
    /// `round`. Unlike [`FaultPlan::crash_host`], the victim never returns:
    /// recovery alignment cannot complete and the run either shrinks onto
    /// the survivors or surfaces `CommError::MembershipLost`.
    pub fn kill_host(self, host: usize, round: u64) -> Self {
        self.fault(Fault {
            kind: FaultKind::KillHost,
            from: Some(host),
            to: None,
            round: Some(round),
            chunk: None,
            times: 1,
        })
    }

    /// Hangs `host` for `millis` milliseconds when it enters its first
    /// collective of `round`: the host stops responding (and heartbeating)
    /// without crashing, so only the failure detector or a phase deadline
    /// can flag it.
    pub fn stall_host(self, host: usize, round: u64, millis: u32) -> Self {
        self.fault(Fault {
            kind: FaultKind::StallHost { millis },
            from: Some(host),
            to: None,
            round: Some(round),
            chunk: None,
            times: 1,
        })
    }

    /// Declares `host` as a late joiner: the cluster starts with it latent
    /// (reserved capacity, not a member), and the host begins knocking on
    /// the grow gate `delay_ms` after the run starts. Only an elastic run
    /// admits it (a launcher runs one for a plan that declares a joiner,
    /// see [`FaultPlan::changes_membership`]); otherwise the host knocks
    /// until it times out.
    pub fn join_host(mut self, host: usize, delay_ms: u64) -> Self {
        self.joins.push((host, delay_ms));
        self
    }

    /// True if the plan kills a host ([`FaultPlan::kill_host`]) or declares
    /// a joiner ([`FaultPlan::join_host`]): the run's membership may
    /// change, so it must run elastic. Every other plan keeps the
    /// fixed-membership path.
    pub fn changes_membership(&self) -> bool {
        !self.joins.is_empty()
            || self
                .faults
                .iter()
                .any(|f| matches!(f.kind, FaultKind::KillHost))
    }

    /// The hosts declared latent by [`FaultPlan::join_host`], i.e. the
    /// capacity that starts outside the membership.
    pub fn latent_hosts(&self) -> Vec<usize> {
        self.joins.iter().map(|&(h, _)| h).collect()
    }

    /// How long `host` waits before its first knock, if it is a declared
    /// joiner.
    pub fn join_delay(&self, host: usize) -> Option<std::time::Duration> {
        self.joins
            .iter()
            .find(|&&(h, _)| h == host)
            .map(|&(_, ms)| std::time::Duration::from_millis(ms))
    }

    /// Seeds the random background faults (irrelevant if all rates are 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Drops each frame independently with probability `p`. Retransmits
    /// draw fresh coins, so `p < 1` converges under bounded retry.
    pub fn drop_rate(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "rate must be in [0, 1)");
        self.drop_rate = p;
        self
    }

    /// Duplicates each frame independently with probability `p`.
    pub fn duplicate_rate(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "rate must be in [0, 1)");
        self.duplicate_rate = p;
        self
    }

    /// Flips one pseudorandom bit of each frame independently with
    /// probability `p`.
    pub fn corrupt_rate(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "rate must be in [0, 1)");
        self.corrupt_rate = p;
        self
    }

    /// Delays each frame independently with probability `p` until the
    /// sender's next exchange (seeded jitter — the same seed always delays
    /// the same frames, like the other rate faults).
    pub fn delay_rate(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "rate must be in [0, 1)");
        self.delay_rate = p;
        self
    }
}

/// What the fabric should do with a frame about to be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendAction {
    Deliver,
    Drop,
    Duplicate,
    Delay,
    /// Deliver the (already bit-flipped) frame; distinct from `Deliver`
    /// so the send path can trace that corruption happened.
    Corrupt,
}

/// Runtime state of a plan: per-fault firing budgets.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    fired: Vec<AtomicU32>,
}

/// splitmix64 finalizer: decorrelates the (seed, from, to, seq, attempt)
/// coordinates into an independent coin per physical transmission (also
/// the PRNG behind the transport layer's jittered backoff).
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let fired = plan.faults.iter().map(|_| AtomicU32::new(0)).collect();
        FaultState { plan, fired }
    }

    /// True if the plan schedules nothing at all: no fault, no background
    /// rate and no latent joiner.
    pub(crate) fn is_empty(&self) -> bool {
        self.plan.is_empty() && self.plan.joins.is_empty()
    }

    /// The plan's declared join delay for `host` (see
    /// [`FaultPlan::join_delay`]).
    pub(crate) fn join_delay(&self, host: usize) -> Option<std::time::Duration> {
        self.plan.join_delay(host)
    }

    /// Tries to claim one firing of fault `i`; false once the budget is
    /// spent.
    fn claim(&self, i: usize) -> bool {
        let budget = self.plan.faults[i].times;
        self.fired[i]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < budget).then_some(n + 1)
            })
            .is_ok()
    }

    /// Decides the fate of a chunk frame from `from` to `to` (`chunk` is
    /// its index within the exchange payload), mutating it in place for
    /// corruption faults. Self-sends are never faulted.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_send(
        &self,
        from: usize,
        to: usize,
        round: u64,
        seq: u64,
        chunk: u32,
        attempt: u32,
        frame: &mut [u8],
    ) -> SendAction {
        if from == to || (self.plan.is_empty()) {
            return SendAction::Deliver;
        }
        // Targeted faults first, in plan order.
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if matches!(
                fault.kind,
                FaultKind::CrashHost | FaultKind::KillHost | FaultKind::StallHost { .. }
            ) || !fault.matches(from, to, round, chunk)
            {
                continue;
            }
            if !self.claim(i) {
                continue;
            }
            match fault.kind {
                FaultKind::DropFrame => return SendAction::Drop,
                FaultKind::DuplicateFrame => return SendAction::Duplicate,
                FaultKind::DelayFrame => return SendAction::Delay,
                FaultKind::CorruptFrame { bit } => {
                    flip_bit(frame, bit as u64);
                    return SendAction::Corrupt;
                }
                FaultKind::CrashHost | FaultKind::KillHost | FaultKind::StallHost { .. } => {
                    unreachable!()
                }
            }
        }
        // Random background faults: one coin per physical transmission, so
        // a retransmit (attempt > 0) is not doomed to repeat its fate.
        let p = self.plan.drop_rate
            + self.plan.duplicate_rate
            + self.plan.corrupt_rate
            + self.plan.delay_rate;
        if p > 0.0 {
            let h = mix(
                self.plan
                    .seed
                    .wrapping_add(mix((from as u64) << 40 | (to as u64) << 20 | attempt as u64))
                    .wrapping_add(mix(seq.wrapping_mul(0x2545_F491_4F6C_DD1D)))
                    .wrapping_add(mix(0x6368_756e_6b00_0000 | chunk as u64)),
            );
            let r = unit(h);
            if r < self.plan.drop_rate {
                return SendAction::Drop;
            }
            if r < self.plan.drop_rate + self.plan.duplicate_rate {
                return SendAction::Duplicate;
            }
            if r < self.plan.drop_rate + self.plan.duplicate_rate + self.plan.corrupt_rate {
                flip_bit(frame, mix(h));
                return SendAction::Corrupt;
            }
            if r < p {
                return SendAction::Delay;
            }
        }
        SendAction::Deliver
    }

    /// True exactly once when `host` has a pending crash for `round`.
    pub(crate) fn crash_due(&self, host: usize, round: u64) -> bool {
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if matches!(fault.kind, FaultKind::CrashHost)
                && fault.from.is_none_or(|h| h == host)
                && fault.round.is_none_or(|r| r == round)
                && self.claim(i)
            {
                return true;
            }
        }
        false
    }

    /// True exactly once when `host` has a pending permanent kill for
    /// `round`.
    pub(crate) fn kill_due(&self, host: usize, round: u64) -> bool {
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if matches!(fault.kind, FaultKind::KillHost)
                && fault.from.is_none_or(|h| h == host)
                && fault.round.is_none_or(|r| r == round)
                && self.claim(i)
            {
                return true;
            }
        }
        false
    }

    /// The stall duration, exactly once per budgeted firing, when `host`
    /// has a pending [`FaultKind::StallHost`] for `round`.
    pub(crate) fn stall_due(&self, host: usize, round: u64) -> Option<std::time::Duration> {
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if let FaultKind::StallHost { millis } = fault.kind {
                if fault.from.is_none_or(|h| h == host)
                    && fault.round.is_none_or(|r| r == round)
                    && self.claim(i)
                {
                    return Some(std::time::Duration::from_millis(millis as u64));
                }
            }
        }
        None
    }
}

fn flip_bit(frame: &mut [u8], bit: u64) {
    if frame.is_empty() {
        return;
    }
    let bit = (bit % (frame.len() as u64 * 8)) as usize;
    frame[bit / 8] ^= 1 << (bit % 8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_always_delivers() {
        let st = FaultState::new(FaultPlan::new());
        let mut frame = vec![0u8; 8];
        for seq in 0..100 {
            assert_eq!(st.on_send(0, 1, 0, seq, 0, 0, &mut frame), SendAction::Deliver);
        }
        assert_eq!(frame, vec![0u8; 8]);
    }

    #[test]
    fn targeted_drop_fires_once() {
        let st = FaultState::new(FaultPlan::new().drop_frame(0, 1, 3));
        let mut f = vec![0u8; 4];
        // Wrong round, wrong pair: deliver.
        assert_eq!(st.on_send(0, 1, 2, 0, 0, 0, &mut f), SendAction::Deliver);
        assert_eq!(st.on_send(1, 0, 3, 0, 0, 0, &mut f), SendAction::Deliver);
        // Match: drop, but only the first time.
        assert_eq!(st.on_send(0, 1, 3, 1, 0, 0, &mut f), SendAction::Drop);
        assert_eq!(st.on_send(0, 1, 3, 2, 0, 1, &mut f), SendAction::Deliver);
    }

    #[test]
    fn corruption_mutates_frame() {
        let st = FaultState::new(FaultPlan::new().corrupt_frame(0, 1, 0, 9));
        let mut f = vec![0u8; 4];
        assert_eq!(st.on_send(0, 1, 0, 0, 0, 0, &mut f), SendAction::Corrupt);
        assert_eq!(f, vec![0, 2, 0, 0]); // bit 9 = byte 1, bit 1
    }

    #[test]
    fn self_sends_never_faulted() {
        let st = FaultState::new(FaultPlan::new().drop_rate(0.999999).with_seed(1));
        let mut f = vec![0u8; 4];
        assert_eq!(st.on_send(2, 2, 0, 0, 0, 0, &mut f), SendAction::Deliver);
    }

    #[test]
    fn chunk_targeted_drop_fires_only_on_that_chunk() {
        let st = FaultState::new(FaultPlan::new().drop_chunk(0, 1, 2, 3));
        let mut f = vec![0u8; 4];
        // Wrong chunk, wrong round: deliver.
        assert_eq!(st.on_send(0, 1, 2, 0, 2, 0, &mut f), SendAction::Deliver);
        assert_eq!(st.on_send(0, 1, 1, 0, 3, 0, &mut f), SendAction::Deliver);
        // Matching chunk: drop, once.
        assert_eq!(st.on_send(0, 1, 2, 0, 3, 0, &mut f), SendAction::Drop);
        assert_eq!(st.on_send(0, 1, 2, 0, 3, 1, &mut f), SendAction::Deliver);
    }

    #[test]
    fn crash_fires_once_at_round() {
        let st = FaultState::new(FaultPlan::new().crash_host(1, 5));
        assert!(!st.crash_due(1, 4));
        assert!(!st.crash_due(0, 5));
        assert!(st.crash_due(1, 5));
        assert!(!st.crash_due(1, 5), "crash budget spent");
    }

    #[test]
    fn kill_fires_once_at_round() {
        let st = FaultState::new(FaultPlan::new().kill_host(2, 3));
        assert!(!st.kill_due(2, 2));
        assert!(!st.kill_due(1, 3));
        assert!(st.kill_due(2, 3));
        assert!(!st.kill_due(2, 3), "kill budget spent");
        // Kills never affect the frame path.
        let mut f = vec![0u8; 4];
        let st = FaultState::new(FaultPlan::new().kill_host(0, 0));
        assert_eq!(st.on_send(0, 1, 0, 0, 0, 0, &mut f), SendAction::Deliver);
    }

    #[test]
    fn only_kills_and_joins_change_membership() {
        let fixed = FaultPlan::new()
            .drop_frame(0, 1, 1)
            .corrupt_frame(1, 0, 1, 3)
            .crash_host(1, 2)
            .stall_host(0, 1, 10)
            .with_seed(3)
            .drop_rate(0.1);
        assert!(!fixed.changes_membership());
        assert!(!FaultPlan::new().changes_membership());
        assert!(fixed.clone().kill_host(1, 2).changes_membership());
        assert!(fixed.join_host(2, 50).changes_membership());
    }

    #[test]
    fn delay_rate_schedule_is_seed_deterministic() {
        let plan = FaultPlan::new()
            .drop_rate(0.1)
            .duplicate_rate(0.1)
            .corrupt_rate(0.1)
            .delay_rate(0.2)
            .with_seed(7);
        let a = FaultState::new(plan.clone());
        let b = FaultState::new(plan.clone());
        let mut fa = vec![0u8; 16];
        let mut fb = vec![0u8; 16];
        let fate_a: Vec<_> = (0..256)
            .map(|s| a.on_send(0, 1, 0, s, 0, 0, &mut fa))
            .collect();
        let fate_b: Vec<_> = (0..256)
            .map(|s| b.on_send(0, 1, 0, s, 0, 0, &mut fb))
            .collect();
        assert_eq!(fate_a, fate_b, "identical seeds, identical schedules");
        assert_eq!(fa, fb, "identical corruption under identical seeds");
        assert!(fate_a.contains(&SendAction::Delay));
        assert!(fate_a.contains(&SendAction::Drop));
        assert!(fate_a.contains(&SendAction::Deliver));
        // A different seed yields a different schedule.
        let c = FaultState::new(plan.with_seed(8));
        let mut fc = vec![0u8; 16];
        let fate_c: Vec<_> = (0..256)
            .map(|s| c.on_send(0, 1, 0, s, 0, 0, &mut fc))
            .collect();
        assert_ne!(fate_a, fate_c, "different seeds diverge");
        // delay_rate = 0 leaves the drop/dup/corrupt schedule untouched:
        // delay occupies the tail of the unit interval.
        let base = FaultPlan::new()
            .drop_rate(0.1)
            .duplicate_rate(0.1)
            .corrupt_rate(0.1)
            .with_seed(7);
        let d = FaultState::new(base);
        let mut fd = vec![0u8; 16];
        let fate_d: Vec<_> = (0..256)
            .map(|s| d.on_send(0, 1, 0, s, 0, 0, &mut fd))
            .collect();
        for (x, y) in fate_a.iter().zip(fate_d.iter()) {
            if *x != SendAction::Delay {
                assert_eq!(x, y, "non-delay fates unchanged by delay_rate");
            } else {
                assert_eq!(*y, SendAction::Deliver);
            }
        }
    }

    #[test]
    fn random_rates_are_deterministic_and_attempt_sensitive() {
        let plan = FaultPlan::new().drop_rate(0.3).with_seed(42);
        let a = FaultState::new(plan.clone());
        let b = FaultState::new(plan);
        let mut f = vec![0u8; 4];
        let fate_a: Vec<_> = (0..64).map(|s| a.on_send(0, 1, 0, s, 0, 0, &mut f)).collect();
        let fate_b: Vec<_> = (0..64).map(|s| b.on_send(0, 1, 0, s, 0, 0, &mut f)).collect();
        assert_eq!(fate_a, fate_b, "same plan, same fates");
        assert!(fate_a.contains(&SendAction::Drop));
        assert!(fate_a.contains(&SendAction::Deliver));
        // A dropped frame's retransmit (attempt 1) is a fresh coin: over
        // all dropped seqs, at least one retransmit survives.
        let retries_survive = (0..64)
            .filter(|&s| fate_a[s as usize] == SendAction::Drop)
            .any(|s| a.on_send(0, 1, 0, s, 0, 1, &mut f) == SendAction::Deliver);
        assert!(retries_survive);
    }
}
