//! The membership protocol, written once for every carrier.
//!
//! Each host keeps one [`Membership`] view: what it has heard from every
//! peer about barriers, recovery gates, shrinks and grows, plus who has
//! failed, been suspected, departed, been excluded, or is still latent
//! capacity. Views change only by applying [`Ctrl`] messages that peers
//! [`Transport::post`] — the in-proc fabric applies them straight to the
//! peer's view, the simulation under its scheduler lock, TCP from each
//! connection's reader thread — and by the carrier's own failure detector.
//!
//! Every collective has the same shape: *arrive* (read the next
//! generation from the view), *post* the arrival to every member, then
//! [`Transport::wait`] until a predicate on the view holds, a failure is
//! seen, or the deadline passes. The predicates are `*_poll` methods on
//! the view, so the agreement logic is a pure state machine the unit tests
//! drive without any carrier. Generations are highwater marks: a peer's
//! arrival at generation `g` stays visible until it announces `g + 1`, and
//! per-link FIFO delivery (which all three carriers provide) makes each
//! peer's announcements monotone.
//!
//! Rules every collective shares:
//!
//! * **Done first.** A wait that is complete returns `Ok` even if a peer
//!   failed afterwards; the next collective reports it.
//! * **Failures.** A member that failed or was suspected by the heartbeat
//!   detector breaks barrier-class waits: all-suspected maps to
//!   [`CommError::PeerDown`], anything harder to
//!   [`CommError::HostFailure`]. A clean departure alone does not (a peer
//!   may finish and depart before this host learns of the crash that ended
//!   the run — links are FIFO one by one, not causally ordered across
//!   each other). Recovery gates ignore failures (that is what they
//!   recover from) and break only on a departure.
//! * **Laggards.** A timeout names the members that neither arrived nor
//!   are known down; an excluded or latent host is never a laggard.
//! * **Epochs.** Every heal bumps the failure epoch; a `Failed` notice is
//!   kept across a heal only if it was sent in the epoch the heal enters,
//!   so a host that fails right after healing is not forgotten by a slower
//!   peer's heal.
//!
//! # Wire codec
//!
//! On a byte stream (TCP) each message is `[tag u8][len u32 LE][body]`.
//! Tags 1 (`DATA`, a `wire.rs` frame) and 5 (`HB`, a heartbeat) belong to
//! the carrier; the rest encode a [`Ctrl`]:
//!
//! | tag | message | body |
//! |----:|---------|------|
//! | 2 | `Barrier` | `gen u64` |
//! | 3 | `Missing` | `gen u64, flag u8` |
//! | 4 | `Retx` | `0` (everything) or `1, count u32, count x u32` chunk indices |
//! | 6 | `Failed` | `epoch u64` |
//! | 7 | `Departed` | — (EOF without it is treated as process death) |
//! | 8 | `Gate` | `gen u64` |
//! | 9 | `Shrink` | `gen u64, departed_mask u64` |
//! | 10 | `Join` | `knock u64` (0 retracts) |
//! | 11 | `Grow` | `gen u64, membership_generation u64` |
//! | 12 | `GrowVerdict` | `gen, joined_mask, member_mask, generation, epoch, gate_gen, shrink_gen` (u64 each) |
//!
//! Tags 9 and up are membership agreement frames: a carrier purging its
//! queues at a recovery reset must keep them (the grow leader resets right
//! after posting a verdict its peers may not have received yet).

use super::{Deadline, GrowVerdict, RetxRequest, Transport};
use crate::cluster::CommError;
use std::collections::BTreeMap;

const TAG_BARRIER: u8 = 2;
const TAG_MISSING: u8 = 3;
const TAG_RETX: u8 = 4;
const TAG_FAILED: u8 = 6;
const TAG_DEPARTED: u8 = 7;
const TAG_GATE: u8 = 8;
/// The first membership-agreement tag (see the module docs).
pub(crate) const TAG_SHRINK: u8 = 9;
const TAG_JOIN: u8 = 10;
const TAG_GROW: u8 = 11;
const TAG_GROW_VERDICT: u8 = 12;

/// The counters a joiner adopts from the grow verdict that admits it, so
/// its next gate, shrink and `Failed` notice line up with the members'
/// (it adopts the member set from the verdict's mask).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Failure epoch.
    pub epoch: u64,
    /// Completed recovery-gate generation.
    pub gate: u64,
    /// Completed shrink generation.
    pub shrink: u64,
}

/// One control message between two hosts' [`Membership`] views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ctrl {
    /// Barrier arrival at this generation.
    Barrier(u64),
    /// Recovery-gate arrival (align or heal) at this generation.
    Gate(u64),
    /// The sender's "still missing a frame" flag for this sync generation.
    Missing {
        /// Missing-sync generation.
        gen: u64,
        /// Whether the sender is still missing a frame.
        flag: bool,
    },
    /// Re-send retained chunks of the current exchange to the sender.
    Retx(RetxRequest),
    /// The sender crashed during this failure epoch.
    Failed {
        /// The sender's failure epoch.
        epoch: u64,
    },
    /// The sender left the run for good.
    Departed,
    /// Shrink-gate arrival (or, with an empty mask, shrink-heal arrival).
    Shrink {
        /// Shrink generation.
        gen: u64,
        /// Departed members the sender saw when it arrived (bit per host).
        departed: u64,
    },
    /// A latent host knocks (`true`) or retracts its knock (`false`).
    Join {
        /// Knock or retraction.
        knock: bool,
    },
    /// Grow-gate arrival (or, with generation 0, grow-heal arrival).
    Grow {
        /// Grow generation.
        gen: u64,
        /// The sender's membership generation.
        generation: u64,
    },
    /// The grow leader's verdict for a grow generation.
    GrowVerdict {
        /// Grow generation the verdict completes.
        gen: u64,
        /// The verdict itself.
        verdict: GrowVerdict,
        /// The leader's counters, adopted by the admitted hosts.
        sync: Counters,
    },
}

fn mask_of(hosts: impl IntoIterator<Item = usize>) -> u64 {
    hosts
        .into_iter()
        .filter(|&h| h < 64)
        .fold(0, |m, h| m | (1u64 << h))
}

fn hosts_of(mask: u64) -> Vec<usize> {
    (0..64).filter(|&h| mask & (1u64 << h) != 0).collect()
}

impl Ctrl {
    fn tag(&self) -> u8 {
        match self {
            Ctrl::Barrier(_) => TAG_BARRIER,
            Ctrl::Gate(_) => TAG_GATE,
            Ctrl::Missing { .. } => TAG_MISSING,
            Ctrl::Retx(_) => TAG_RETX,
            Ctrl::Failed { .. } => TAG_FAILED,
            Ctrl::Departed => TAG_DEPARTED,
            Ctrl::Shrink { .. } => TAG_SHRINK,
            Ctrl::Join { .. } => TAG_JOIN,
            Ctrl::Grow { .. } => TAG_GROW,
            Ctrl::GrowVerdict { .. } => TAG_GROW_VERDICT,
        }
    }

    /// Encodes the message as `(tag, body)` for a byte-stream carrier.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let words = |ws: &[u64]| ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
        let body = match self {
            Ctrl::Barrier(g) | Ctrl::Gate(g) => words(&[*g]),
            Ctrl::Missing { gen, flag } => {
                let mut b = words(&[*gen]);
                b.push(*flag as u8);
                b
            }
            Ctrl::Retx(RetxRequest::All) => vec![0],
            Ctrl::Retx(RetxRequest::Chunks(chunks)) => {
                let mut b = Vec::with_capacity(5 + chunks.len() * 4);
                b.push(1);
                b.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
                for c in chunks {
                    b.extend_from_slice(&c.to_le_bytes());
                }
                b
            }
            Ctrl::Failed { epoch } => words(&[*epoch]),
            Ctrl::Departed => Vec::new(),
            Ctrl::Shrink { gen, departed } => words(&[*gen, *departed]),
            Ctrl::Join { knock } => words(&[*knock as u64]),
            Ctrl::Grow { gen, generation } => words(&[*gen, *generation]),
            Ctrl::GrowVerdict { gen, verdict, sync } => words(&[
                *gen,
                mask_of(verdict.joined.iter().copied()),
                verdict.members,
                verdict.generation,
                sync.epoch,
                sync.gate,
                sync.shrink,
            ]),
        };
        (self.tag(), body)
    }

    /// Decodes a `(tag, body)` pair; `None` for carrier tags, unknown tags
    /// and malformed bodies. A malformed `Retx` body decodes as "re-send
    /// everything": over-asking is always safe.
    pub fn decode(tag: u8, body: &[u8]) -> Option<Ctrl> {
        let w = |i: usize| -> Option<u64> {
            Some(u64::from_le_bytes(
                body.get(i * 8..i * 8 + 8)?.try_into().ok()?,
            ))
        };
        Some(match tag {
            TAG_BARRIER => Ctrl::Barrier(w(0)?),
            TAG_GATE => Ctrl::Gate(w(0)?),
            TAG_MISSING => Ctrl::Missing {
                gen: w(0)?,
                flag: *body.get(8)? != 0,
            },
            TAG_RETX => Ctrl::Retx(decode_retx(body).unwrap_or(RetxRequest::All)),
            TAG_FAILED => Ctrl::Failed { epoch: w(0)? },
            TAG_DEPARTED => Ctrl::Departed,
            TAG_SHRINK => Ctrl::Shrink {
                gen: w(0)?,
                departed: w(1)?,
            },
            TAG_JOIN => Ctrl::Join { knock: w(0)? != 0 },
            TAG_GROW => Ctrl::Grow {
                gen: w(0)?,
                generation: w(1)?,
            },
            TAG_GROW_VERDICT => Ctrl::GrowVerdict {
                gen: w(0)?,
                verdict: GrowVerdict {
                    joined: hosts_of(w(1)?),
                    members: w(2)?,
                    generation: w(3)?,
                },
                sync: Counters {
                    epoch: w(4)?,
                    gate: w(5)?,
                    shrink: w(6)?,
                },
            },
            _ => return None,
        })
    }
}

fn decode_retx(body: &[u8]) -> Option<RetxRequest> {
    match body.first()? {
        0 => Some(RetxRequest::All),
        1 => {
            let n = u32::from_le_bytes(body.get(1..5)?.try_into().ok()?) as usize;
            let rest = body.get(5..)?;
            if rest.len() != n * 4 {
                return None;
            }
            Some(RetxRequest::Chunks(
                rest.chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("sized chunk")))
                    .collect(),
            ))
        }
        _ => None,
    }
}

/// One host's view of the membership protocol (see the module docs).
#[derive(Debug, Clone)]
pub struct Membership {
    me: usize,
    /// Highest barrier / gate / shrink / grow generation each peer
    /// announced.
    barrier_seen: Vec<u64>,
    gate_seen: Vec<u64>,
    shrink_seen: Vec<u64>,
    grow_seen: Vec<u64>,
    /// Highest membership generation each peer announced at a grow gate.
    grow_generation: Vec<u64>,
    /// Missing flags per peer, keyed by generation, so a fast peer's next
    /// verdict never overwrites one this host has not read yet.
    missing: Vec<BTreeMap<u64, bool>>,
    /// What each peer asked this host to re-send (merged until taken).
    retx: Vec<Option<RetxRequest>>,
    /// The failure epoch of each peer's standing `Failed` notice.
    failed: Vec<Option<u64>>,
    /// Peers the heartbeat detector flagged as silent.
    suspected: Vec<bool>,
    departed: Vec<bool>,
    /// Removed by a shrink verdict: never a participant again.
    excluded: Vec<bool>,
    /// Capacity that is not a member until a grow verdict admits it.
    latent: Vec<bool>,
    /// Latent peers with an unretracted knock.
    join_pending: Vec<bool>,
    epoch: u64,
    /// This host's completed generations.
    bar_gen: u64,
    miss_gen: u64,
    gate_gen: u64,
    shrink_gen: u64,
    grow_gen: u64,
    /// Union of the departed masks announced by shrink arrivals.
    shrink_union: u64,
    /// The last grow verdict applied.
    verdict: Option<GrowVerdict>,
    /// Set by a carrier that declares the run wedged (the simulation's
    /// deadlock breaker); the next wait step reports it.
    wedged: Option<String>,
}

type Poll<T> = Option<Result<T, CommError>>;

impl Membership {
    /// The view of host `me` in a mesh of `hosts`, of which `latent` start
    /// as non-member capacity.
    pub fn new(hosts: usize, me: usize, latent: &[usize]) -> Self {
        let mut latent_flags = vec![false; hosts];
        for &h in latent {
            latent_flags[h] = true;
        }
        Membership {
            me,
            barrier_seen: vec![0; hosts],
            gate_seen: vec![0; hosts],
            shrink_seen: vec![0; hosts],
            grow_seen: vec![0; hosts],
            grow_generation: vec![0; hosts],
            missing: vec![BTreeMap::new(); hosts],
            retx: vec![None; hosts],
            failed: vec![None; hosts],
            suspected: vec![false; hosts],
            departed: vec![false; hosts],
            excluded: vec![false; hosts],
            latent: latent_flags,
            join_pending: vec![false; hosts],
            epoch: 0,
            bar_gen: 0,
            miss_gen: 0,
            gate_gen: 0,
            shrink_gen: 0,
            grow_gen: 0,
            shrink_union: 0,
            verdict: None,
            wedged: None,
        }
    }

    fn hosts(&self) -> usize {
        self.departed.len()
    }

    /// Whether `p` takes part in collectives: neither excluded nor latent.
    fn member(&self, p: usize) -> bool {
        !self.excluded[p] && !self.latent[p]
    }

    /// Members other than this host, ascending: who collectives wait for
    /// and post to.
    fn peers(&self) -> Vec<usize> {
        (0..self.hosts())
            .filter(|&p| p != self.me && self.member(p))
            .collect()
    }

    /// Whether member `p` is known to be failed or suspected.
    fn failed_or_suspected(&self, p: usize) -> bool {
        self.failed[p].is_some() || self.suspected[p]
    }

    /// Whether member `p` is known to be failed, suspected, or departed.
    fn down(&self, p: usize) -> bool {
        self.failed_or_suspected(p) || self.departed[p]
    }

    /// Applies one message from `from`.
    pub fn apply(&mut self, from: usize, msg: Ctrl) {
        match msg {
            Ctrl::Barrier(g) => self.barrier_seen[from] = self.barrier_seen[from].max(g),
            Ctrl::Gate(g) => self.gate_seen[from] = self.gate_seen[from].max(g),
            Ctrl::Missing { gen, flag } => {
                self.missing[from].insert(gen, flag);
            }
            Ctrl::Retx(req) => match &mut self.retx[from] {
                Some(cur) => cur.merge(req),
                cell => *cell = Some(req),
            },
            Ctrl::Failed { epoch } => {
                if epoch >= self.epoch && !self.excluded[from] {
                    self.failed[from] = Some(epoch);
                    self.suspected[from] = false;
                }
            }
            Ctrl::Departed => self.departed[from] = true,
            Ctrl::Shrink { gen, departed } => {
                self.shrink_seen[from] = self.shrink_seen[from].max(gen);
                self.shrink_union |= departed;
            }
            Ctrl::Join { knock } => {
                self.join_pending[from] = knock && self.latent[from] && !self.departed[from];
            }
            Ctrl::Grow { gen, generation } => {
                self.grow_seen[from] = self.grow_seen[from].max(gen);
                self.grow_generation[from] = self.grow_generation[from].max(generation);
            }
            Ctrl::GrowVerdict { gen, verdict, sync } => self.admit(gen, verdict, sync),
        }
    }

    /// Applies grow verdict `gen` (idempotent): the joined hosts become
    /// members, and a host admitted by it adopts the leader's counters.
    fn admit(&mut self, gen: u64, verdict: GrowVerdict, sync: Counters) {
        if gen <= self.grow_gen {
            return;
        }
        self.grow_gen = gen;
        if verdict.joined.contains(&self.me) {
            // A joiner cannot know which hosts earlier shrinks removed:
            // the verdict's member mask is authoritative.
            self.epoch = sync.epoch;
            self.gate_gen = sync.gate;
            self.shrink_gen = sync.shrink;
            for p in 0..self.hosts().min(64) {
                if verdict.members & (1u64 << p) == 0 && !self.latent[p] {
                    self.excluded[p] = true;
                }
            }
        }
        for &p in &verdict.joined {
            self.latent[p] = false;
            self.join_pending[p] = false;
            self.failed[p] = None;
            self.suspected[p] = false;
        }
        self.verdict = Some(verdict);
    }

    /// Whether the failure detector should watch `p`: a live member not
    /// already known down.
    pub fn watches(&self, p: usize) -> bool {
        p != self.me && self.member(p) && !self.down(p)
    }

    /// Heartbeat suspicion of `p`; returns whether it changed the view.
    pub fn suspect(&mut self, p: usize) -> bool {
        let fresh = self.watches(p);
        self.suspected[p] |= fresh;
        fresh
    }

    /// A carrier lost its link to `p` for good (write failure); `departed`
    /// additionally records process death (EOF without a `Departed`).
    pub fn link_lost(&mut self, p: usize, departed: bool) {
        // EOF after a `Departed` notice is a clean exit.
        if self.excluded[p] || (departed && self.departed[p]) {
            return;
        }
        self.failed[p].get_or_insert(self.epoch);
        self.departed[p] |= departed;
    }

    /// Whether a carrier may still write to `p`: not gone, and either a
    /// member or a knocking joiner (whose process is known to exist).
    pub fn reachable(&self, p: usize) -> bool {
        !self.departed[p] && !self.excluded[p] && (!self.latent[p] || self.join_pending[p])
    }

    /// Records a carrier-declared wedge, reported by the next wait step.
    pub fn wedge(&mut self, detail: String) {
        self.wedged = Some(detail);
    }

    /// The failure a barrier-class wait reports, if any member is down.
    fn failure(&self) -> Option<CommError> {
        let down: Vec<usize> = self
            .peers()
            .into_iter()
            .filter(|&p| self.failed_or_suspected(p))
            .collect();
        if down.is_empty() {
            return None;
        }
        let suspected: Vec<usize> = down
            .iter()
            .copied()
            .filter(|&p| self.failed[p].is_none())
            .collect();
        Some(if suspected.len() == down.len() {
            CommError::PeerDown { hosts: suspected }
        } else {
            CommError::HostFailure { hosts: down }
        })
    }

    /// The one laggard rule: members that did not arrive (`seen` false)
    /// and are not known down.
    fn timeout(&self, deadline: &Deadline, seen: impl Fn(usize) -> bool) -> CommError {
        CommError::Timeout {
            phase: deadline.phase(),
            hosts: self
                .peers()
                .into_iter()
                .filter(|&p| !seen(p) && !self.down(p))
                .collect(),
        }
    }

    fn departed_mask(&self) -> u64 {
        mask_of(self.departed_members())
    }

    /// Departed members: the casualties a shrink would absorb.
    pub fn departed_members(&self) -> Vec<usize> {
        (0..self.hosts())
            .filter(|&p| self.departed[p] && self.member(p))
            .collect()
    }

    /// Latent hosts with an unretracted knock.
    pub fn pending_joiners(&self) -> Vec<usize> {
        (0..self.hosts())
            .filter(|&p| self.latent[p] && self.join_pending[p] && !self.departed[p])
            .collect()
    }

    /// Hosts that are still latent capacity.
    pub fn latent_hosts(&self) -> Vec<usize> {
        (0..self.hosts()).filter(|&p| self.latent[p]).collect()
    }

    /// Drops per-round state before a heal: barrier and missing-sync
    /// generations restart at zero (hosts abort a failed round at
    /// different collective counts), retransmit requests are void. Gate,
    /// shrink and grow generations are never reset: recovery itself
    /// synchronizes on them.
    fn reset_round_state(&mut self) {
        self.barrier_seen.iter_mut().for_each(|g| *g = 0);
        self.missing.iter_mut().for_each(BTreeMap::clear);
        self.retx.iter_mut().for_each(|r| *r = None);
        self.bar_gen = 0;
        self.miss_gen = 0;
    }

    /// Heals the failure state: a new epoch, suspicions cleared, and only
    /// `Failed` notices already sent in the new epoch — or from hosts that
    /// departed, which no heal brings back — kept.
    fn heal(&mut self) {
        self.epoch += 1;
        let epoch = self.epoch;
        for (f, &gone) in self.failed.iter_mut().zip(&self.departed) {
            if !gone && f.is_some_and(|e| e < epoch) {
                *f = None;
            }
        }
        self.suspected.iter_mut().for_each(|s| *s = false);
    }

    fn barrier_poll(&mut self, arrival: u64, deadline: &Deadline, expired: bool) -> Poll<()> {
        let seen = |v: &Self, p: usize| v.barrier_seen[p] >= arrival;
        if self.peers().into_iter().all(|p| seen(self, p)) {
            self.bar_gen = arrival;
            return Some(Ok(()));
        }
        if let Some(e) = self.failure() {
            return Some(Err(e));
        }
        expired.then(|| Err(self.timeout(deadline, |p| seen(self, p))))
    }

    fn missing_poll(&mut self, gen: u64, deadline: &Deadline, expired: bool) -> Poll<Vec<bool>> {
        let seen = |v: &Self, p: usize| v.missing[p].contains_key(&gen);
        if self.peers().into_iter().all(|p| seen(self, p)) {
            let flags = (0..self.hosts())
                .map(|p| self.missing[p].get(&gen).copied().unwrap_or(false))
                .collect();
            // Prune consumed generations; later ones (fast peers) stay.
            for m in &mut self.missing {
                *m = m.split_off(&(gen + 1));
            }
            self.miss_gen = gen;
            return Some(Ok(flags));
        }
        if let Some(e) = self.failure() {
            return Some(Err(e));
        }
        expired.then(|| Err(self.timeout(deadline, |p| seen(self, p))))
    }

    fn gate_poll(
        &mut self,
        arrival: u64,
        heal: bool,
        deadline: &Deadline,
        expired: bool,
    ) -> Poll<()> {
        let peers = self.peers();
        if peers.iter().all(|&p| self.gate_seen[p] >= arrival) {
            self.gate_gen = arrival;
            if heal {
                self.heal();
            }
            return Some(Ok(()));
        }
        // A member that departed without arriving never will: nobody can
        // complete this generation, so everyone consumes it and reports
        // the departures (a stale arrival must not complete a later gate).
        if peers
            .iter()
            .any(|&p| self.departed[p] && self.gate_seen[p] < arrival)
        {
            self.gate_gen = arrival;
            return Some(Err(CommError::HostFailure {
                hosts: self.departed_members(),
            }));
        }
        expired.then(|| Err(self.timeout(deadline, |p| self.gate_seen[p] >= arrival)))
    }

    /// Shrink arrival: the generation and the departed members this host
    /// announces.
    fn shrink_arrive(&self) -> (u64, u64) {
        (self.shrink_gen + 1, self.departed_mask())
    }

    /// The shrink gate completes once every member arrived or departed.
    /// The verdict is the union of the departures announced by the
    /// arrivals: per-link FIFO means every survivor saw the same arrivals
    /// (a peer's arrival precedes its departure), so every survivor
    /// computes the same verdict.
    fn shrink_poll(
        &mut self,
        arrival: u64,
        mine: u64,
        deadline: &Deadline,
        expired: bool,
    ) -> Poll<Vec<usize>> {
        let seen = |v: &Self, p: usize| v.shrink_seen[p] >= arrival || v.departed[p];
        if self.peers().into_iter().all(|p| seen(self, p)) {
            let union = self.shrink_union | mine;
            let verdict: Vec<usize> = hosts_of(union)
                .into_iter()
                .filter(|&p| p < self.hosts() && self.member(p))
                .collect();
            for &p in &verdict {
                self.excluded[p] = true;
                self.failed[p] = None;
                self.suspected[p] = false;
            }
            self.shrink_gen = arrival;
            self.shrink_union = 0;
            return Some(Ok(verdict));
        }
        expired.then(|| Err(self.timeout(deadline, |p| seen(self, p))))
    }

    /// Second round of the shrink generation, after every survivor reset:
    /// shrink generations are announced only from the shrink path, which
    /// has no abort between reset and announcement, so an arrival here
    /// proves the peer finished resetting.
    fn shrink_heal_poll(&mut self, arrival: u64, deadline: &Deadline, expired: bool) -> Poll<()> {
        let seen = |v: &Self, p: usize| v.shrink_seen[p] >= arrival || v.departed[p];
        if self.peers().into_iter().all(|p| seen(self, p)) {
            self.shrink_gen = arrival;
            self.heal();
            return Some(Ok(()));
        }
        expired.then(|| Err(self.timeout(deadline, |p| seen(self, p))))
    }

    /// A member at the grow gate. The leader — the lowest-id live member —
    /// cuts the verdict once every member has arrived, admitting every
    /// knocking candidate (possibly none), and returns the posts that
    /// carry it; everyone else waits for that verdict. A member that
    /// departed without arriving breaks the gate for everyone.
    #[allow(clippy::type_complexity)]
    fn grow_poll(
        &mut self,
        arrival: u64,
        my_generation: u64,
        deadline: &Deadline,
        expired: bool,
    ) -> Poll<(GrowVerdict, Vec<(usize, Ctrl)>)> {
        if self.grow_gen >= arrival {
            let v = self
                .verdict
                .clone()
                .expect("grow generation without verdict");
            return Some(Ok((v, Vec::new())));
        }
        let peers = self.peers();
        let gone: Vec<usize> = peers
            .iter()
            .copied()
            .filter(|&p| self.departed[p] && self.grow_seen[p] < arrival)
            .collect();
        if !gone.is_empty() {
            return Some(Err(CommError::HostFailure { hosts: gone }));
        }
        let leader = (0..self.hosts()).find(|&p| self.member(p) && !self.departed[p]);
        if leader == Some(self.me) && peers.iter().all(|&p| self.grow_seen[p] >= arrival) {
            let joined = self.pending_joiners();
            let members = mask_of((0..self.hosts()).filter(|&p| self.member(p)))
                | mask_of(joined.iter().copied());
            let generation = peers
                .iter()
                .map(|&p| self.grow_generation[p])
                .fold(my_generation, u64::max);
            let verdict = GrowVerdict {
                joined,
                members,
                generation,
            };
            let sync = Counters {
                epoch: self.epoch,
                gate: self.gate_gen,
                shrink: self.shrink_gen,
            };
            self.admit(arrival, verdict.clone(), sync);
            let msg = Ctrl::GrowVerdict {
                gen: arrival,
                verdict: verdict.clone(),
                sync,
            };
            let posts = self.peers().into_iter().map(|p| (p, msg.clone())).collect();
            return Some(Ok((verdict, posts)));
        }
        expired.then(|| Err(self.timeout(deadline, |p| self.grow_seen[p] >= arrival)))
    }

    /// A latent host knocking: done once a verdict admitted it; fails when
    /// no member is left to admit it.
    fn knock_poll(&mut self, deadline: &Deadline, expired: bool) -> Poll<GrowVerdict> {
        if !self.latent[self.me] {
            let v = self.verdict.clone().expect("admitted without a verdict");
            return Some(Ok(v));
        }
        let peers = self.peers();
        if peers.iter().all(|&p| self.departed[p]) {
            return Some(Err(CommError::HostFailure { hosts: peers }));
        }
        expired.then(|| Err(self.timeout(deadline, |_| false)))
    }

    /// Second round of the grow generation, after every post-grow member
    /// reset (same argument as [`Membership::shrink_heal_poll`]).
    fn grow_heal_poll(&mut self, arrival: u64, deadline: &Deadline, expired: bool) -> Poll<()> {
        let seen = |v: &Self, p: usize| v.grow_seen[p] >= arrival || v.departed[p];
        if self.peers().into_iter().all(|p| seen(self, p)) {
            self.grow_gen = arrival;
            self.heal();
            return Some(Ok(()));
        }
        expired.then(|| Err(self.timeout(deadline, |p| seen(self, p))))
    }
}

// ----- the collectives, over any carrier ----------------------------------

/// Runs `f` on this host's view (a wait that is done at once).
pub(crate) fn view<R>(tr: &dyn Transport, f: impl FnOnce(&mut Membership) -> R) -> R {
    let mut f = Some(f);
    let mut out = None;
    tr.wait(&Deadline::none(), &mut |v, _| {
        out = f.take().map(|f| f(v));
        true
    });
    out.expect("view step ran")
}

/// Waits on this host's view until `poll` settles; a carrier-declared
/// wedge settles it as [`CommError::Protocol`].
fn settle<T>(
    tr: &dyn Transport,
    deadline: &Deadline,
    mut poll: impl FnMut(&mut Membership, bool) -> Poll<T>,
) -> Result<T, CommError> {
    let mut out = None;
    tr.wait(deadline, &mut |v, expired| {
        out = match v.wedged.take() {
            Some(detail) => Some(Err(CommError::Protocol { detail })),
            None => poll(v, expired),
        };
        out.is_some()
    });
    let r = out.expect("wait returned unsettled");
    if let Err(CommError::Timeout { phase, .. }) = &r {
        tr.note("timeout", format_args!("phase={phase}"));
    }
    r
}

fn post_all(tr: &dyn Transport, to: &[usize], msg: Ctrl) {
    for &p in to {
        tr.post(p, msg.clone());
    }
}

/// Failure-aware barrier over the members, bounded by `deadline`.
pub(crate) fn barrier(tr: &dyn Transport, deadline: &Deadline) -> Result<(), CommError> {
    let (arrival, to) = view(tr, |v| (v.bar_gen + 1, v.peers()));
    tr.note("barrier_arrive", format_args!("gen={arrival}"));
    post_all(tr, &to, Ctrl::Barrier(arrival));
    settle(tr, deadline, |v, e| v.barrier_poll(arrival, deadline, e))?;
    tr.note("barrier_complete", format_args!("gen={arrival}"));
    Ok(())
}

/// Collective missing-flag sync: publishes this host's flag, waits for
/// every member's, and returns the host-indexed snapshot (own flag
/// included; non-members read `false`). Doubles as a barrier.
pub(crate) fn sync_missing(
    tr: &dyn Transport,
    missing: bool,
    deadline: &Deadline,
) -> Result<Vec<bool>, CommError> {
    let (gen, to) = view(tr, |v| {
        let gen = v.miss_gen + 1;
        v.missing[v.me].insert(gen, missing);
        (gen, v.peers())
    });
    tr.note("sync_missing", format_args!("missing={missing}"));
    post_all(tr, &to, Ctrl::Missing { gen, flag: missing });
    settle(tr, deadline, |v, e| v.missing_poll(gen, deadline, e))
}

/// Asks `from` to re-send retained chunks of its current exchange.
pub(crate) fn request_retx(tr: &dyn Transport, from: usize, req: RetxRequest) {
    match &req {
        RetxRequest::All => tr.note("retx_request", format_args!("from={from} all")),
        RetxRequest::Chunks(c) => tr.note("retx_request", format_args!("from={from} chunks={c:?}")),
    }
    tr.post(from, Ctrl::Retx(req));
}

/// The peers that asked this host to re-send, with their merged requests.
pub(crate) fn take_retx(tr: &dyn Transport) -> Vec<(usize, RetxRequest)> {
    view(tr, |v| {
        (0..v.hosts())
            .filter_map(|p| v.retx[p].take().map(|r| (p, r)))
            .collect()
    })
}

/// Tells every member this host crashed, breaking their waits.
pub(crate) fn mark_failed(tr: &dyn Transport) {
    let (epoch, to) = view(tr, |v| (v.epoch, v.peers()));
    tr.note("mark_failed", format_args!(""));
    post_all(tr, &to, Ctrl::Failed { epoch });
}

/// Tells every peer — latent ones included, so a knocker learns the
/// cluster is gone — that this host left for good.
pub(crate) fn mark_departed(tr: &dyn Transport) {
    tr.note("departed", format_args!(""));
    let me = tr.host();
    let to: Vec<usize> = (0..tr.num_hosts()).filter(|&p| p != me).collect();
    post_all(tr, &to, Ctrl::Departed);
}

/// Departed members not yet excluded by a shrink.
pub(crate) fn departed_hosts(tr: &dyn Transport) -> Vec<usize> {
    view(tr, |v| v.departed_members())
}

/// Latent hosts currently knocking.
pub(crate) fn pending_joiners(tr: &dyn Transport) -> Vec<usize> {
    view(tr, |v| v.pending_joiners())
}

/// Hosts that are still latent capacity.
pub(crate) fn latent_hosts(tr: &dyn Transport) -> Vec<usize> {
    view(tr, |v| v.latent_hosts())
}

fn gate(tr: &dyn Transport, deadline: &Deadline, heal: bool) -> Result<(), CommError> {
    let (arrival, to) = view(tr, |v| (v.gate_gen + 1, v.peers()));
    let kind = if heal { "gate_heal" } else { "gate_align" };
    tr.note(kind, format_args!("gen={arrival}"));
    post_all(tr, &to, Ctrl::Gate(arrival));
    settle(tr, deadline, |v, e| v.gate_poll(arrival, heal, deadline, e))?;
    if heal {
        tr.note("heal", format_args!("gen={arrival}"));
    }
    Ok(())
}

/// Recovery alignment, phase 1: every member has stopped issuing traffic.
pub(crate) fn align(tr: &dyn Transport, deadline: &Deadline) -> Result<(), CommError> {
    gate(tr, deadline, false)
}

/// Recovery alignment, phase 2: drops this host's in-flight and per-round
/// state; called between [`align`] and [`heal`], when no member sends.
pub(crate) fn reset(tr: &dyn Transport) {
    view(tr, Membership::reset_round_state);
    tr.reset();
    tr.note("recover_reset", format_args!(""));
}

/// Recovery alignment, phase 3: every member has reset; heal the failure
/// state so collectives work again.
pub(crate) fn heal(tr: &dyn Transport, deadline: &Deadline) -> Result<(), CommError> {
    gate(tr, deadline, true)
}

/// Membership shrink, phase 1: agrees the departed members with every
/// survivor and excludes them; returns the sorted verdict.
pub(crate) fn shrink(tr: &dyn Transport, deadline: &Deadline) -> Result<Vec<usize>, CommError> {
    let ((arrival, mine), to) = view(tr, |v| (v.shrink_arrive(), v.peers()));
    tr.note("gate_shrink", format_args!("gen={arrival}"));
    post_all(
        tr,
        &to,
        Ctrl::Shrink {
            gen: arrival,
            departed: mine,
        },
    );
    let verdict = settle(tr, deadline, |v, e| {
        v.shrink_poll(arrival, mine, deadline, e)
    })?;
    tr.note(
        "gate_shrink_complete",
        format_args!("gen={arrival} departed={verdict:?}"),
    );
    Ok(verdict)
}

/// Membership shrink, phase 2: every survivor has reset; heal.
pub(crate) fn shrink_heal(tr: &dyn Transport, deadline: &Deadline) -> Result<(), CommError> {
    let (arrival, to) = view(tr, |v| (v.shrink_gen + 1, v.peers()));
    post_all(
        tr,
        &to,
        Ctrl::Shrink {
            gen: arrival,
            departed: 0,
        },
    );
    settle(tr, deadline, |v, e| {
        v.shrink_heal_poll(arrival, deadline, e)
    })?;
    tr.note("heal", format_args!("shrink={arrival}"));
    Ok(())
}

/// Membership grow, phase 1. A member arrives with its membership
/// generation and receives the leader's verdict; a latent host knocks and
/// receives the verdict that admits it, retracting its knock if the
/// deadline passes first.
pub(crate) fn grow(
    tr: &dyn Transport,
    deadline: &Deadline,
    my_generation: u64,
) -> Result<GrowVerdict, CommError> {
    let (latent, arrival, to) = view(tr, |v| (v.latent[v.me], v.grow_gen + 1, v.peers()));
    if latent {
        tr.note("join", format_args!("gen={arrival}"));
        post_all(tr, &to, Ctrl::Join { knock: true });
        let r = settle(tr, deadline, |v, e| v.knock_poll(deadline, e));
        if r.is_err() {
            post_all(tr, &to, Ctrl::Join { knock: false });
        }
        return r;
    }
    tr.note(
        "gate_grow",
        format_args!("gen={arrival} my_gen={my_generation}"),
    );
    post_all(
        tr,
        &to,
        Ctrl::Grow {
            gen: arrival,
            generation: my_generation,
        },
    );
    let (verdict, posts) = settle(tr, deadline, |v, e| {
        v.grow_poll(arrival, my_generation, deadline, e)
    })?;
    for (p, msg) in posts {
        tr.post(p, msg);
    }
    tr.note(
        "gate_grow_complete",
        format_args!(
            "gen={arrival} joined={:?} members={:#x}",
            verdict.joined, verdict.members
        ),
    );
    Ok(verdict)
}

/// Membership grow, phase 2: every post-grow member has reset; heal.
pub(crate) fn grow_heal(tr: &dyn Transport, deadline: &Deadline) -> Result<(), CommError> {
    let (arrival, to) = view(tr, |v| (v.grow_gen + 1, v.peers()));
    post_all(
        tr,
        &to,
        Ctrl::Grow {
            gen: arrival,
            generation: 0,
        },
    );
    settle(tr, deadline, |v, e| v.grow_heal_poll(arrival, deadline, e))?;
    tr.note("heal", format_args!("grow={arrival}"));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::mix;
    use std::collections::{BTreeMap, VecDeque};

    #[test]
    fn ctrl_codec_round_trips() {
        let verdict = GrowVerdict {
            joined: vec![1, 4],
            members: 0b11011,
            generation: 7,
        };
        let msgs = [
            Ctrl::Barrier(3),
            Ctrl::Gate(9),
            Ctrl::Missing { gen: 2, flag: true },
            Ctrl::Retx(RetxRequest::All),
            Ctrl::Retx(RetxRequest::Chunks(vec![0, 5])),
            Ctrl::Failed { epoch: 4 },
            Ctrl::Departed,
            Ctrl::Shrink {
                gen: 1,
                departed: 0b100,
            },
            Ctrl::Join { knock: false },
            Ctrl::Grow {
                gen: 2,
                generation: 3,
            },
            Ctrl::GrowVerdict {
                gen: 5,
                verdict,
                sync: Counters {
                    epoch: 1,
                    gate: 2,
                    shrink: 3,
                },
            },
        ];
        for m in msgs {
            let (tag, body) = m.encode();
            assert_eq!(Ctrl::decode(tag, &body), Some(m));
        }
        // Over-asking is safe: a garbled retransmit request means "all".
        assert_eq!(
            Ctrl::decode(TAG_RETX, &[1, 9]),
            Some(Ctrl::Retx(RetxRequest::All))
        );
        assert_eq!(Ctrl::decode(1, &[]), None, "DATA is a carrier tag");
    }

    /// Where one simulated host is in the shrink-then-grow scenario.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Task {
        Start,
        Shrink(u64, u64),
        ShrinkHeal(u64),
        Grow(u64),
        /// Grow heal; `again` when the verdict admitted nobody.
        GrowHeal(u64, bool),
        Knock,
        Retracted,
        Gone,
        Done,
    }

    /// Views joined by per-link FIFO queues, driven one random event at a
    /// time: deliver the head of some link, or let some host take a step.
    struct World {
        views: Vec<Membership>,
        links: Vec<Vec<VecDeque<Ctrl>>>,
        tasks: Vec<Task>,
        rng: u64,
        victims: Vec<usize>,
        joiner: usize,
        shrinks: Vec<Vec<Vec<usize>>>,
        grows: BTreeMap<u64, Vec<(usize, GrowVerdict)>>,
    }

    impl World {
        fn new(seed: u64) -> Self {
            let mut rng = mix(seed ^ 0x6d65_6d62);
            let members = 2 + (rng % 4) as usize;
            rng = mix(rng);
            let mut victims = vec![(rng % members as u64) as usize];
            // Half the worlds with three or more members lose a second
            // host while the survivors are already agreeing the first loss.
            rng = mix(rng);
            if members >= 3 && rng.is_multiple_of(2) {
                victims
                    .push((victims[0] + 1 + (mix(rng) % (members as u64 - 1)) as usize) % members);
            }
            let hosts = members + 1;
            let joiner = members;
            World {
                views: (0..hosts)
                    .map(|h| Membership::new(hosts, h, &[joiner]))
                    .collect(),
                links: (0..hosts)
                    .map(|_| (0..hosts).map(|_| VecDeque::new()).collect())
                    .collect(),
                tasks: vec![Task::Start; hosts],
                rng,
                victims,
                joiner,
                shrinks: vec![Vec::new(); hosts],
                grows: BTreeMap::new(),
            }
        }

        fn draw(&mut self, n: usize) -> usize {
            self.rng = mix(self.rng);
            (self.rng % n as u64) as usize
        }

        fn post(&mut self, from: usize, to: &[usize], msg: Ctrl) {
            for &p in to {
                self.links[from][p].push_back(msg.clone());
            }
        }

        /// Posts this host's arrival at the next shrink/grow heal.
        fn start_heal(&mut self, h: usize, grow: bool, again: bool) {
            let v = &self.views[h];
            let peers = v.peers();
            let (arrival, msg) = if grow {
                let a = v.grow_gen + 1;
                (
                    a,
                    Ctrl::Grow {
                        gen: a,
                        generation: 0,
                    },
                )
            } else {
                let a = v.shrink_gen + 1;
                (
                    a,
                    Ctrl::Shrink {
                        gen: a,
                        departed: 0,
                    },
                )
            };
            self.post(h, &peers, msg);
            self.tasks[h] = if grow {
                Task::GrowHeal(arrival, again)
            } else {
                Task::ShrinkHeal(arrival)
            };
        }

        fn start_grow(&mut self, h: usize) {
            let arrival = self.views[h].grow_gen + 1;
            let peers = self.views[h].peers();
            self.post(
                h,
                &peers,
                Ctrl::Grow {
                    gen: arrival,
                    generation: 1,
                },
            );
            self.tasks[h] = Task::Grow(arrival);
        }

        fn knock(&mut self, h: usize, knock: bool) {
            let peers = self.views[h].peers();
            self.post(h, &peers, Ctrl::Join { knock });
            self.tasks[h] = if knock { Task::Knock } else { Task::Retracted };
        }

        fn record_grow(&mut self, h: usize, gen: u64, v: GrowVerdict) {
            self.grows.entry(gen).or_default().push((h, v));
        }

        /// A timeout must never name an excluded or latent host.
        fn check_laggards(&self, h: usize, r: Poll<impl std::fmt::Debug>) {
            if let Some(Err(CommError::Timeout { hosts, .. })) = r {
                let v = &self.views[h];
                for p in hosts {
                    assert!(
                        p != h && v.member(p),
                        "host {h} named bystander {p} a laggard"
                    );
                }
            }
        }

        /// Polls a clone of `h`'s view as if its deadline had passed.
        fn probe(&self, h: usize) {
            let d = Deadline::none();
            let mut v = self.views[h].clone();
            let next = v.bar_gen + 1;
            self.check_laggards(h, v.barrier_poll(next, &d, true));
            let mut v = self.views[h].clone();
            match self.tasks[h] {
                Task::Shrink(a, m) => self.check_laggards(h, v.shrink_poll(a, m, &d, true)),
                Task::ShrinkHeal(a) => self.check_laggards(h, v.shrink_heal_poll(a, &d, true)),
                Task::Grow(a) => self.check_laggards(h, v.grow_poll(a, 1, &d, true)),
                Task::GrowHeal(a, _) => self.check_laggards(h, v.grow_heal_poll(a, &d, true)),
                Task::Knock => self.check_laggards(h, v.knock_poll(&d, true)),
                _ => {}
            }
        }

        fn step(&mut self, h: usize) {
            let d = Deadline::none();
            match self.tasks[h] {
                // The first victim dies at once; the second only after
                // some survivor has entered the shrink.
                Task::Start
                    if h == self.victims[0]
                        || (self.victims.get(1) == Some(&h)
                            && self.tasks.iter().any(|t| matches!(t, Task::Shrink(..)))) =>
                {
                    let (epoch, peers) = (self.views[h].epoch, self.views[h].peers());
                    self.post(h, &peers, Ctrl::Failed { epoch });
                    let all: Vec<usize> = (0..self.views.len()).filter(|&p| p != h).collect();
                    self.post(h, &all, Ctrl::Departed);
                    self.tasks[h] = Task::Gone;
                }
                Task::Start if h == self.joiner => self.knock(h, true),
                // A survivor enters the shrink once it has seen the loss.
                Task::Start
                    if !self.victims.contains(&h)
                        && !self.views[h].departed_members().is_empty() =>
                {
                    let (a, m) = self.views[h].shrink_arrive();
                    let peers = self.views[h].peers();
                    self.post(
                        h,
                        &peers,
                        Ctrl::Shrink {
                            gen: a,
                            departed: m,
                        },
                    );
                    self.tasks[h] = Task::Shrink(a, m);
                }
                Task::Shrink(a, m) => {
                    if let Some(r) = self.views[h].shrink_poll(a, m, &d, false) {
                        self.shrinks[h].push(r.expect("shrink"));
                        self.start_heal(h, false, false);
                    }
                }
                Task::ShrinkHeal(a) if self.views[h].shrink_heal_poll(a, &d, false).is_some() => {
                    if self.views[h].departed_members().is_empty() {
                        self.start_grow(h);
                    } else {
                        // A loss no arrival announced: shrink again.
                        self.tasks[h] = Task::Start;
                    }
                }
                Task::Grow(a) => {
                    if let Some(r) = self.views[h].grow_poll(a, 1, &d, false) {
                        let (v, posts) = r.expect("grow");
                        for (p, msg) in posts {
                            self.links[h][p].push_back(msg);
                        }
                        let again = v.joined.is_empty();
                        self.record_grow(h, a, v);
                        self.start_heal(h, true, again);
                    }
                }
                Task::GrowHeal(a, again)
                    if self.views[h].grow_heal_poll(a, &d, false).is_some() =>
                {
                    if again {
                        self.start_grow(h);
                    } else {
                        self.tasks[h] = Task::Done;
                    }
                }
                Task::Knock => {
                    // Now and then the knocker's deadline passes first.
                    let expired = self.draw(8) == 0;
                    match self.views[h].knock_poll(&d, expired) {
                        Some(Ok(v)) => {
                            let gen = self.views[h].grow_gen;
                            self.record_grow(h, gen, v);
                            self.start_heal(h, true, false);
                        }
                        Some(Err(CommError::Timeout { .. })) => self.knock(h, false),
                        Some(Err(e)) => panic!("knock failed: {e}"),
                        None => {}
                    }
                }
                Task::Retracted => self.knock(h, true),
                _ => {}
            }
        }

        fn run(&mut self) {
            let hosts = self.views.len();
            for _ in 0..200_000 {
                if (0..hosts).all(|h| matches!(self.tasks[h], Task::Done | Task::Gone)) {
                    return;
                }
                let h = self.draw(hosts);
                if self.draw(2) == 0 {
                    let busy: Vec<(usize, usize)> = (0..hosts)
                        .flat_map(|f| (0..hosts).map(move |t| (f, t)))
                        .filter(|&(f, t)| !self.links[f][t].is_empty())
                        .collect();
                    if !busy.is_empty() {
                        let (f, t) = busy[self.draw(busy.len())];
                        let msg = self.links[f][t].pop_front().expect("busy link");
                        self.views[t].apply(f, msg);
                        continue;
                    }
                }
                if self.draw(4) == 0 {
                    self.probe(h);
                }
                self.step(h);
            }
            panic!("scenario did not finish: {:?}", self.tasks);
        }
    }

    /// Two to five members lose one or two hosts and admit a knocking
    /// joiner under random per-link FIFO schedules: every survivor must
    /// return the same shrink verdicts, every participant of a grow
    /// generation the same verdict, and every view must end on the same
    /// member set.
    #[test]
    fn views_agree_on_shrink_and_grow_verdicts_under_random_schedules() {
        for seed in 0..300 {
            let mut w = World::new(seed);
            w.run();
            let survivors: Vec<usize> = (0..w.joiner).filter(|h| !w.victims.contains(h)).collect();
            let mut victims = w.victims.clone();
            victims.sort_unstable();
            let first = &w.shrinks[survivors[0]];
            let mut shrunk = first.concat();
            shrunk.sort_unstable();
            assert_eq!(shrunk, victims, "seed {seed}: every loss is shrunk away");
            for &h in &survivors {
                assert_eq!(
                    &w.shrinks[h], first,
                    "seed {seed}: host {h}'s shrink verdicts"
                );
            }
            for (gen, got) in &w.grows {
                let (_, first) = &got[0];
                for (h, v) in got {
                    assert_eq!(v, first, "seed {seed}: grow {gen} split at host {h}");
                }
            }
            let admitted: Vec<_> = w
                .grows
                .values()
                .filter(|g| !g[0].1.joined.is_empty())
                .collect();
            assert_eq!(admitted.len(), 1, "seed {seed}: one admitting verdict");
            assert_eq!(
                admitted[0].len(),
                survivors.len() + 1,
                "seed {seed}: joiner got it too"
            );
            let members = |h: usize| -> Vec<usize> {
                (0..w.views.len())
                    .filter(|&p| w.views[h].member(p))
                    .collect()
            };
            let mut expect = survivors.clone();
            expect.push(w.joiner);
            for h in expect.iter().copied() {
                assert_eq!(members(h), expect, "seed {seed}: host {h}'s member set");
            }
        }
    }
}
