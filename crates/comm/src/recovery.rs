//! Recovery and membership change, as an `impl HostCtx` block: realign
//! after a recoverable failure ([`HostCtx::recover_align`],
//! [`HostCtx::run_recovering`]), shrink past a permanent loss, grow to
//! admit a joiner ([`HostCtx::recover_shrink`], [`HostCtx::recover_grow`],
//! [`HostCtx::join_cluster`] over one shared tail), and restart on the
//! survivors ([`HostCtx::run_elastic`]). A child module of `cluster.rs`,
//! so it reaches the host's private protocol state.

use super::{in_mask, CommError, CrashSignal, HostCtx, MembershipChange, MAX_RECOVERIES};
use crate::transport::{membership, Backoff, Deadline, Transport};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

impl HostCtx<'_> {
    /// Realigns all live hosts after a recoverable failure and heals the
    /// transport: pending frames, delayed frames, retransmission flags, and
    /// sequence numbers are reset, and the failure state is healed.
    ///
    /// Must be called by **every** live host (it contains barriers).
    /// [`HostCtx::run_recovering`] calls it automatically.
    pub fn recover_align(&self) -> Result<(), CommError> {
        // The ambient deadline that aborted the failed phase is typically
        // expired by now; recovery itself must not race it.
        self.set_deadline(Deadline::none());
        let unbounded = Deadline::none();
        // Phase 1: every live host stops issuing traffic.
        membership::align(self.transport, &unbounded)?;
        // Phase 2: each host clears its own protocol state and tells the
        // transport to drop everything in flight; no host is sending.
        self.reset_protocol_state();
        // Phase 3: wait for every host to finish resetting, then heal the
        // failure state so collectives work again.
        membership::heal(self.transport, &unbounded)
    }

    /// Runs `f`, restarting it after recoverable host failures (injected
    /// crashes, detector- or deadline-triggered aborts, and the
    /// communication failures they cause on sibling hosts).
    ///
    /// All hosts must call this with the same deterministic `f`: after a
    /// failure, every live host realigns via [`HostCtx::recover_align`]
    /// and re-executes `f` from the top, so a deterministic `f` reproduces
    /// the exact fault-free result. (The engine layers round-level
    /// checkpointing on top of this so it resumes mid-computation instead
    /// of from scratch.)
    ///
    /// # Panics
    ///
    /// Propagates non-[`CrashSignal`] panics (real bugs) unchanged, and
    /// gives up after `MAX_RECOVERIES` restarts.
    pub fn run_recovering<F, R>(&self, mut f: F) -> R
    where
        F: FnMut(&HostCtx) -> R,
    {
        let mut recoveries = 0;
        loop {
            match catch_unwind(AssertUnwindSafe(|| f(self))) {
                Ok(v) => return v,
                Err(payload) => {
                    if recoveries >= MAX_RECOVERIES || !payload.is::<CrashSignal>() {
                        resume_unwind(payload);
                    }
                    if matches!(
                        payload.downcast_ref::<CrashSignal>(),
                        Some(CrashSignal::Killed { .. })
                    ) {
                        // This host was permanently killed: it must die,
                        // not rejoin the recovery gate.
                        resume_unwind(payload);
                    }
                    recoveries += 1;
                    if self.recover_align().is_err() {
                        let departed = membership::departed_hosts(self.transport);
                        if !departed.is_empty() {
                            // A host departed for good: surface the typed
                            // verdict so callers can shrink
                            // ([`HostCtx::run_elastic`]) or abort, instead
                            // of a generic terminal error.
                            self.fail_with(CrashSignal::Comm(CommError::MembershipLost {
                                departed,
                                generation: self.generation(),
                            }));
                        }
                        resume_unwind(payload);
                    }
                }
            }
        }
    }

    /// Agrees a membership shrink with the other survivors and heals the
    /// transport onto the reduced host set: the departed hosts are excluded
    /// from every future collective, the membership generation is bumped,
    /// and logical ranks ([`HostCtx::host`] / [`HostCtx::num_hosts`]) are
    /// compacted over the survivors.
    ///
    /// Must be called by **every** survivor (it contains barriers),
    /// typically after observing [`CommError::MembershipLost`].
    /// [`HostCtx::run_elastic`] calls it automatically.
    pub fn recover_shrink(&self) -> Result<MembershipChange, CommError> {
        self.enter_membership_gate("shrink")?;
        let old_members = self.members();
        // Phase 1: every survivor stops at the shrink gate and agrees the
        // verdict — the set of permanently departed hosts, excluded from
        // every later collective as the gate completes.
        let verdict = membership::shrink(self.transport, &Deadline::none())?;
        if verdict.is_empty() {
            return Err(CommError::Protocol {
                detail: "shrink gate agreed an empty departure set".to_string(),
            });
        }
        let mask = verdict
            .iter()
            .fold(self.member_mask.load(Ordering::Relaxed), |m, &h| m & !(1u64 << h));
        let departed = verdict
            .iter()
            .map(|&h| {
                old_members
                    .iter()
                    .position(|&m| m == h)
                    .expect("shrink verdict host was not a member")
            })
            .collect();
        let change = MembershipChange {
            departed,
            joined: Vec::new(),
            my_old_rank: self.host(),
            old_count: old_members.len(),
            generation: self.generation() + 1,
        };
        self.change_membership(mask, change, membership::shrink_heal)
    }

    /// Checks a membership gate can run on this cluster (the member mask
    /// holds at most 64 hosts) and clears the ambient deadline, which the
    /// gate must not race.
    fn enter_membership_gate(&self, gate: &str) -> Result<(), CommError> {
        if self.num_hosts > 64 {
            return Err(CommError::Protocol {
                detail: format!("membership {gate} supports at most 64 hosts"),
            });
        }
        self.set_deadline(Deadline::none());
        Ok(())
    }

    /// The shared tail of every membership change: installs the agreed
    /// member mask and generation, counts the change and its joins, clears
    /// this host's protocol state like [`HostCtx::recover_align`] (sequence
    /// numbers and retained outboxes restart from zero), and heals the
    /// transport onto the new membership with the gate's own `heal`.
    fn change_membership(
        &self,
        mask: u64,
        change: MembershipChange,
        heal: fn(&dyn Transport, &Deadline) -> Result<(), CommError>,
    ) -> Result<MembershipChange, CommError> {
        self.member_mask.store(mask, Ordering::Relaxed);
        self.generation.store(change.generation, Ordering::Relaxed);
        self.stats.membership_changes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .joins
            .fetch_add(change.joined.len() as u64, Ordering::Relaxed);
        self.reset_protocol_state();
        heal(self.transport, &Deadline::none())?;
        Ok(change)
    }

    /// Whether this host is currently in the membership. `false` for a
    /// declared latent joiner that has not yet been admitted by
    /// [`HostCtx::join_cluster`] (and for a host excluded by a shrink
    /// verdict it somehow survived, which cannot happen under the normal
    /// harness).
    pub fn is_member(&self) -> bool {
        in_mask(self.member_mask.load(Ordering::Relaxed), self.host)
    }

    /// The fault plan's declared join delay for this host, if it launches
    /// latent ([`crate::FaultPlan::join_host`]).
    pub fn join_delay(&self) -> Option<std::time::Duration> {
        self.faults.join_delay(self.host)
    }

    /// Physical ids of latent hosts currently knocking to join. Members
    /// poll this (cheap, lock-only) once per round to decide when to stop
    /// at a grow gate.
    pub fn pending_joins(&self) -> Vec<usize> {
        membership::pending_joiners(self.transport)
    }

    /// Agrees a membership grow with the other members, admitting every
    /// latent host currently knocking ([`HostCtx::pending_joins`]), and
    /// heals the transport onto the expanded host set. The mirror of
    /// [`HostCtx::recover_shrink`]: the admitted hosts enter every future
    /// collective, the membership generation is bumped, and logical ranks
    /// are re-compacted over the expanded membership.
    ///
    /// Must be called by **every** member at the same point in the round
    /// structure (it contains barriers); the joiners concurrently sit in
    /// [`HostCtx::join_cluster`]. The gate is bounded — a joiner that
    /// crashes mid-knock cannot wedge the members (the verdict may then
    /// admit nobody, which is reported as a normal outcome with an empty
    /// `joined`).
    pub fn recover_grow(&self) -> Result<MembershipChange, CommError> {
        self.enter_membership_gate("grow")?;
        let (my_old_rank, old_count) = (self.host(), self.num_hosts());
        let deadline = Deadline::after("grow", std::time::Duration::from_secs(30));
        let verdict = membership::grow(self.transport, &deadline, self.generation())?;
        self.admit(verdict, my_old_rank, old_count)
    }

    /// Applies an agreed grow verdict through [`HostCtx::change_membership`].
    /// Every participant (member or joiner) lands on the same generation:
    /// one past the highest generation any participant carried into the
    /// gate.
    fn admit(
        &self,
        verdict: crate::transport::GrowVerdict,
        my_old_rank: usize,
        old_count: usize,
    ) -> Result<MembershipChange, CommError> {
        let change = MembershipChange {
            departed: Vec::new(),
            joined: verdict.joined,
            my_old_rank,
            old_count,
            generation: verdict.generation + 1,
        };
        self.change_membership(verdict.members, change, membership::grow_heal)
    }

    /// Joins a running cluster from a latent host: knocks over the
    /// transport, waits for the members to cut a grow verdict at their next
    /// round boundary, and heals onto the agreed membership. Retries with
    /// decorrelated-jitter backoff until `deadline` expires, then gives up
    /// with a typed [`CommError::Timeout`] — a joiner never hangs silently
    /// and its give-up never aborts the members' run (a retracted knock
    /// simply drops out of the next verdict).
    pub fn join_cluster(&self, deadline: &Deadline) -> Result<MembershipChange, CommError> {
        self.enter_membership_gate("grow")?;
        let mut backoff = Backoff::reconnect(self.host);
        loop {
            // Knock with a bounded per-attempt window so a stalled cluster
            // (e.g. mid-recovery) is retried rather than waited on forever.
            let window = std::time::Duration::from_secs(2);
            let attempt = match deadline.remaining() {
                Some(rem) if rem.is_zero() => {
                    return Err(CommError::Timeout {
                        phase: "join",
                        hosts: vec![],
                    })
                }
                Some(rem) => Deadline::after("join", window.min(rem)),
                None => Deadline::after("join", window),
            };
            match membership::grow(self.transport, &attempt, 0) {
                Ok(verdict) => {
                    // The joiner owned nothing before: its "old rank" is
                    // one past the old membership, which had
                    // `members - joined` hosts.
                    let old_count = (0..self.num_hosts)
                        .filter(|&h| in_mask(verdict.members, h))
                        .count()
                        - verdict.joined.len();
                    return self.admit(verdict, old_count, old_count);
                }
                Err(err) => {
                    if deadline.expired() {
                        return Err(CommError::Timeout {
                            phase: "join",
                            hosts: match err {
                                CommError::Timeout { hosts, .. } => hosts,
                                _ => vec![],
                            },
                        });
                    }
                    crate::clock::sleep(backoff.next_delay());
                }
            }
        }
    }

    /// Runs `f` like [`HostCtx::run_recovering`], additionally surviving
    /// **permanent** host loss: when recovery within the current membership
    /// is impossible ([`CommError::MembershipLost`]), the survivors agree a
    /// shrink via [`HostCtx::recover_shrink`] and re-execute `f` on the
    /// reduced membership.
    ///
    /// `f` must partition its work by [`HostCtx::host`] /
    /// [`HostCtx::num_hosts`] *inside* the closure (they change across a
    /// shrink) and be deterministic given any membership, so the survivors
    /// reproduce the fault-free result. Killed hosts propagate their own
    /// [`CrashSignal::Killed`] unchanged.
    pub fn run_elastic<F, R>(&self, mut f: F) -> R
    where
        F: FnMut(&HostCtx) -> R,
    {
        let mut shrinks = 0;
        loop {
            match catch_unwind(AssertUnwindSafe(|| self.run_recovering(&mut f))) {
                Ok(v) => return v,
                Err(payload) => {
                    let lost = matches!(
                        payload.downcast_ref::<CrashSignal>(),
                        Some(CrashSignal::Comm(CommError::MembershipLost { .. }))
                    );
                    if shrinks >= MAX_RECOVERIES || !lost {
                        resume_unwind(payload);
                    }
                    shrinks += 1;
                    if self.recover_shrink().is_err() {
                        resume_unwind(payload);
                    }
                }
            }
        }
    }
}
