//! The distributed node-property map implementation (§4 of the paper).

use crate::bitset::ConcurrentBitset;
use crate::ops::ReduceOp;
use crate::partial::{CfPartials, FastOwn, PartialBuf};
use crate::value::PropValue;
use kimbap_comm::wire::{encode_slice, iter_decoded};
use kimbap_comm::{HostCtx, Wire};
use kimbap_dist::{DistGraph, LocalId, Ownership};
use kimbap_graph::NodeId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};

/// The keys whose readable values changed since the last
/// [`NodePropMap::reset_updated`] — the per-round delta behind the engine's
/// frontier (active-set) execution.
///
/// `Tracked` borrows bookkeeping the map maintains anyway: `masters` is the
/// per-master update bitset written by `set`/`reduce_sync` (bit index =
/// master offset, which equals the `DistGraph` local id), and
/// `remote` lists the global ids of pinned mirrors whose cached value
/// changed in the last `broadcast_sync`. Together they cover every key
/// whose *readable* value differs from the start of the round.
///
/// `Untracked` means the map cannot vouch for a complete delta — either
/// the backend keeps no per-key bits (the sharded baseline), or an
/// untracked mutation (a `request_sync` materialization, `reset_values`,
/// a checkpoint restore) happened inside the window. Callers must then
/// treat every key as potentially changed.
#[derive(Debug, Clone, Copy)]
pub enum ChangedKeys<'a> {
    /// No complete delta is available: assume everything changed.
    Untracked,
    /// The complete set of keys whose readable value changed.
    Tracked {
        /// Per-master update bits; bit index = master offset.
        masters: &'a ConcurrentBitset,
        /// Global ids of pinned mirrors updated by the last broadcast.
        remote: &'a [NodeId],
    },
}

/// The shared-memory node-property map interface (paper Figs. 2 and 5).
///
/// `read`/`reduce`/`set` are the developer API; the remaining methods are
/// the low-level API driven by compiler-generated code. All `*_sync`
/// methods, `sync_round`, `pin_mirrors`, and `is_updated` are
/// **collectives**: every host must call them in the same order.
pub trait NodePropMap<T: PropValue>: Send + Sync {
    /// Initializes every master property via `f(global_id)` (the paper's
    /// `Set` loop, e.g. `parent_npm.Set(node, node)` in Fig. 4).
    fn init_masters(&mut self, f: &dyn Fn(NodeId) -> T);

    /// Reads the property of `key`.
    ///
    /// Master properties are always readable. Remote properties must have
    /// been requested (or be pinned mirrors); reads observe the value
    /// materialized by the last `request_sync`/`broadcast_sync`, i.e. BSP
    /// semantics — reductions from the current round are not yet visible.
    ///
    /// # Panics
    ///
    /// Panics if `key` is a remote node that was never requested.
    fn read(&self, key: NodeId) -> T;

    /// [`NodePropMap::read`] of the proxy whose local id in `dg` — the
    /// partition the map was built over — is `lid`: what a hand-written
    /// operator calls for a key it holds positionally (an edge's `dst`).
    /// The default translates and calls `read`; a backend whose tables are
    /// indexed by local id ([`Npm`]) skips the trip through the global id.
    /// Same value and same panic as `read(dg.local_to_global(lid))`.
    #[inline]
    fn read_local(&self, dg: &DistGraph, lid: LocalId) -> T {
        self.read(dg.local_to_global(lid))
    }

    /// Assigns `value` to `key`. For initialization only (§3.1): applied
    /// only on `key`'s owner host, not synchronized, no race detection.
    fn set(&mut self, key: NodeId, value: T);

    /// Reduces `value` into `key`'s property using the map's operator.
    /// `tid` is the calling pool thread's id. The result becomes visible
    /// after the next `reduce_sync`.
    fn reduce(&self, tid: usize, key: NodeId, value: T);

    /// Marks `key` as needed by the next `request_sync`. Duplicate
    /// requests are de-duplicated through a concurrent bitset.
    fn request(&self, key: NodeId);

    /// Collective: exchanges requests, serves them from canonical values,
    /// and materializes the remote cache.
    fn request_sync(&mut self, ctx: &HostCtx);

    /// Collective: combines thread partials (CF), scatters them to owners
    /// (SGR), reduces them onto canonical values, and drops unpinned cache
    /// entries.
    fn reduce_sync(&mut self, ctx: &HostCtx);

    /// Collective: pushes updated master values to their mirrors (only
    /// meaningful between `pin_mirrors`/`unpin_mirrors`).
    fn broadcast_sync(&mut self, ctx: &HostCtx);

    /// Collective: materializes all mirror properties in the cache and
    /// keeps them resident, served by broadcast instead of
    /// request/response.
    fn pin_mirrors(&mut self, ctx: &HostCtx);

    /// Drops pinned mirrors from the cache.
    fn unpin_mirrors(&mut self);

    /// Clears the per-round update flag and per-key delta (start of a BSP
    /// round): the window observed by [`NodePropMap::changed_keys`] begins
    /// here.
    fn reset_updated(&mut self);

    /// The keys whose readable values changed since the last
    /// [`NodePropMap::reset_updated`], as a cheap borrowed view. The
    /// default reports [`ChangedKeys::Untracked`], which is always sound
    /// (callers fall back to dense iteration).
    fn changed_keys(&self) -> ChangedKeys<'_> {
        ChangedKeys::Untracked
    }

    /// Resets every canonical value to the operator's identity and drops
    /// pending partials — equivalent to constructing a fresh map, which is
    /// what the paper's programs do for per-phase maps (e.g. the per-round
    /// neighbor-priority map in MIS or the per-level maps in Louvain);
    /// reusing the allocation just avoids churn. Pinned mirrors stay pinned
    /// and will hold identity until the next `broadcast_sync`.
    fn reset_values(&mut self, ctx: &HostCtx);

    /// Collective: `true` if any host's canonical value changed in the last
    /// `reduce_sync` — the quiescence condition of `KimbapWhile`.
    fn is_updated(&self, ctx: &HostCtx) -> bool;

    /// Collective: the tail of one BSP round — `reduce_sync`, then
    /// `broadcast_sync`, then `is_updated` — returning the agreed
    /// quiescence flag. Map state and result are exactly those of the three
    /// calls; an implementation may spend fewer collectives on them.
    fn sync_round(&mut self, ctx: &HostCtx) -> bool {
        self.reduce_sync(ctx);
        self.broadcast_sync(ctx);
        self.is_updated(ctx)
    }
}

/// A copy of a map's canonical (master) state, taken by [`Npm::snapshot`]
/// and reapplied by [`Npm::restore`] — the per-map payload of the engine's
/// round-level checkpoints: the dense master-value vector.
///
/// Only canonical values are captured: caches, pending partials, and
/// request sets are transient within a BSP round, and a checkpoint is only
/// taken at round boundaries where they are empty or reconstructible.
pub type MapSnapshot<T> = Vec<T>;

/// Escalates a peer buffer that is not a whole number of `W` records as a
/// protocol violation instead of letting the decoder's assertion trip.
/// One length check per buffer, before anything is decoded.
pub(crate) fn check_whole<W: Wire>(ctx: &HostCtx, what: &str, unit: &str, received: &[Vec<u8>]) {
    for (from, buf) in received.iter().enumerate() {
        if !buf.len().is_multiple_of(W::SIZE) {
            ctx.protocol_violation(format!(
                "{what} from host {from}: {} bytes is not whole {unit}",
                buf.len()
            ));
        }
    }
}

/// The node-property map (see the [crate docs](crate) and
/// [`NodePropMap`] for semantics): SGR+CF+GAR.
pub struct Npm<'g, T: PropValue, Op: ReduceOp<T>> {
    dg: &'g DistGraph,
    op: Op,
    host: usize,
    num_hosts: usize,
    /// Key-distribution map: the graph's ownership.
    key_own: Ownership,
    /// Precomputed is-mine test derived from `key_own` for the hot paths.
    fast_own: FastOwn,
    /// Master values, indexed by master offset (= local id).
    vals: Vec<T>,
    /// Per-master update bits, shared by the broadcast's temporal
    /// invariant and the frontier delta view.
    updated: ConcurrentBitset,
    /// Requested keys that have *no* mirror proxy (trans-vertex requests):
    /// sorted keys + parallel values (paper Fig. 6). Mirror values live in
    /// `mirror_vals`.
    cache_keys: Vec<NodeId>,
    cache_vals: Vec<T>,
    /// Dense mirror-value table indexed by the partition's mirror slot,
    /// with presence bits. O(1) reads for materialized mirrors; the
    /// paper's sorted-pair form survives only on the wire.
    mirror_vals: Vec<T>,
    mirror_has: Vec<bool>,
    requests: ConcurrentBitset,
    /// CF: per-thread partial buffers and the combine's state.
    cf: CfPartials<T>,
    pinned: bool,
    /// Pin happened this round: the next broadcast must carry all mirror
    /// values, not just updated ones.
    broadcast_all: bool,
    /// Pinned mirrors whose cached value changed in the last
    /// `broadcast_sync` or [`Npm::combine_local`] — the remote half of
    /// [`ChangedKeys::Tracked`].
    changed_remote: Vec<NodeId>,
    /// Host-local fixpoint state, sized on the first
    /// [`Npm::begin_local_passes`] and empty otherwise. Each local combine
    /// restarts the master update bits as the next pass's delta, so the
    /// masters the round's passes changed are kept here for the broadcast.
    local_updated: ConcurrentBitset,
    /// Mirror slots a host-local fixpoint lowered this round: the mirror
    /// partials the round's one reduce-sync ships.
    lowered: ConcurrentBitset,
    /// The current delta window is complete: no untracked mutation
    /// (request-sync materialization, value reset, restore) has happened
    /// since the last `reset_updated`. Cleared events force
    /// [`ChangedKeys::Untracked`] until the window rolls over.
    delta_tracked: bool,
    any_updated: AtomicBool,
}

impl<'g, T: PropValue, Op: ReduceOp<T>> Npm<'g, T, Op> {
    /// Creates a map over `dg`'s node space. Every master property starts
    /// at the operator's identity.
    pub fn new(dg: &'g DistGraph, ctx: &HostCtx, op: Op) -> Self {
        let host = ctx.host();
        let key_own = dg.ownership().clone();
        let m = key_own.num_masters(host);
        Npm {
            dg,
            op,
            host,
            num_hosts: ctx.num_hosts(),
            fast_own: FastOwn::new(&key_own, host),
            cf: CfPartials::new(&key_own, host, ctx.threads(), m, op.identity()),
            key_own,
            vals: vec![op.identity(); m],
            updated: ConcurrentBitset::new(m),
            cache_keys: Vec::new(),
            cache_vals: Vec::new(),
            mirror_vals: vec![op.identity(); dg.num_mirrors()],
            mirror_has: vec![false; dg.num_mirrors()],
            requests: ConcurrentBitset::new(dg.num_global_nodes()),
            pinned: false,
            broadcast_all: false,
            changed_remote: Vec::new(),
            local_updated: ConcurrentBitset::new(0),
            lowered: ConcurrentBitset::new(0),
            delta_tracked: true,
            any_updated: AtomicBool::new(false),
        }
    }

    /// Heap bytes of the dense master and mirror value tables, one `T` per
    /// entry (capacity-based, like the graph's size accounting).
    pub fn table_bytes(&self) -> usize {
        (self.vals.capacity() + self.mirror_vals.capacity()) * std::mem::size_of::<T>()
    }

    /// The map's reduction operator.
    pub fn op(&self) -> Op {
        self.op
    }

    // Local-id accessors: what compiler-lowered operator code calls for
    // keys it knows positionally (the active node, an edge destination).

    /// [`NodePropMap::read`] of the proxy with local id `lid`, without the
    /// trip through its global id: a master's table offset *is* its local
    /// id and mirror slot `s` is local id `num_masters + s`, so the dense
    /// tables are indexed directly. Same value and — for a mirror that was
    /// neither requested nor pinned — the same panic as `read`.
    ///
    /// # Panics
    ///
    /// Panics if `lid` is not a local id of the map's partition, or where
    /// `read(local_to_global(lid))` would.
    #[inline]
    pub fn read_local(&self, lid: LocalId) -> T {
        let l = lid as usize;
        match l.checked_sub(self.dg.num_masters()) {
            None => self.vals[l],
            Some(slot) if self.mirror_has[slot] => self.mirror_vals[slot],
            // An unmaterialized mirror: `read` owns the miss.
            Some(_) => self.read(self.dg.local_to_global(lid)),
        }
    }

    /// [`NodePropMap::reduce`] into the proxy with local id `lid`: a
    /// master's partial lands in the calling thread's dense buffer at
    /// offset `lid`, with no ownership test. Exactly the state
    /// `reduce(tid, local_to_global(lid), value)` leaves.
    ///
    /// # Panics
    ///
    /// Panics if `lid` is not a local id of the map's partition.
    #[inline]
    pub fn reduce_local(&self, tid: usize, lid: LocalId, value: T) {
        let op = self.op;
        let buf = self.cf.buf(tid);
        if (lid as usize) < self.dg.num_masters() {
            buf.reduce_local(lid, value, |a, b| op.combine(a, b));
        } else {
            buf.reduce_remote(self.dg.local_to_global(lid), value, |a, b| op.combine(a, b));
        }
    }

    // Host-local fixpoint. A loop the compiler certified
    // (`CompiledLoop::local_fixpoint`) relaxes this host's masters and
    // mirrors in place, pass after pass, until the host is quiet, and only
    // then runs the round's one `sync_round`. Within a pass each thread
    // sees its own partials; between passes `combine_local` folds them
    // into the tables.

    /// Sizes the state host-local passes use: every thread's dense partial
    /// buffer grows to cover mirror slots (local ids past the masters), and
    /// the lowered-mirror bits to the mirror count. Idempotent.
    pub fn begin_local_passes(&mut self) {
        let n = self.dg.num_local_nodes();
        for b in self.cf.bufs_mut() {
            b.ensure_dense(n);
        }
        if self.local_updated.len() != self.dg.num_masters() {
            self.local_updated = ConcurrentBitset::new(self.dg.num_masters());
        }
        if self.lowered.len() != self.dg.num_mirrors() {
            self.lowered = ConcurrentBitset::new(self.dg.num_mirrors());
        }
    }

    /// The value of the proxy with local id `lid` as pool thread `tid`
    /// sees it inside a host-local pass: the table's value combined with
    /// the thread's own partial, so a thread's reductions are visible to
    /// its later reads. Requires [`Npm::begin_local_passes`].
    #[inline]
    pub fn read_visible(&self, tid: usize, lid: LocalId) -> T {
        let own = self.cf.buf(tid).local(lid);
        self.op.combine(self.read_local(lid), own)
    }

    /// Reduces `value` into the proxy with local id `lid` inside a
    /// host-local pass and returns whether that lowered (for `Max`,
    /// raised) the value thread `tid` sees. A reduction that changes
    /// nothing the thread sees records no partial: the combined tables can
    /// only have moved further in the operator's direction. Requires
    /// [`Npm::begin_local_passes`].
    #[inline]
    pub fn reduce_visible(&self, tid: usize, lid: LocalId, value: T) -> bool {
        let op = self.op;
        let buf: &mut PartialBuf<T> = self.cf.buf(tid);
        let seen = op.combine(self.read_local(lid), buf.local(lid));
        if op.combine(seen, value) == seen {
            return false;
        }
        buf.reduce_local(lid, value, |a, b| op.combine(a, b));
        true
    }

    /// The local combine between two host-local passes (not a collective).
    /// Drains every thread's partials — those of [`Npm::reduce_visible`]
    /// and of plain `reduce` / `reduce_local` alike — and
    ///
    /// * folds master partials into the master table. The update bits
    ///   restart as this pass's changes, the next pass's frontier delta
    ///   ([`NodePropMap::changed_keys`]); the round's changes, which the
    ///   broadcast needs, accumulate beside them;
    /// * lowers `mirror_vals` by the mirror partials, listing the lowered
    ///   mirrors in the delta and keeping them for the round's single
    ///   reduce-sync, which ships each lowered mirror's value to its owner.
    ///
    /// Returns whether any master or mirror changed: `false` means this
    /// host is quiet. Requires [`Npm::begin_local_passes`].
    ///
    /// Shipping a lowered mirror's value instead of its partials is exact
    /// because a pinned mirror holds its master's value at every round
    /// start, and a partial that did not lower it cannot lower the master.
    pub fn combine_local(&mut self) -> bool {
        self.updated.clear();
        self.changed_remote.clear();
        let (vals, updated, local_updated) = (&mut self.vals, &self.updated, &self.local_updated);
        let (op, dg) = (self.op, self.dg);
        let nm = dg.num_masters();
        let (mirror_vals, lowered, changed_remote) =
            (&mut self.mirror_vals, &self.lowered, &mut self.changed_remote);
        let (mut masters, mut mirrors) = (false, false);
        let mut lower = |slot: usize, v: T| {
            let new = op.combine(mirror_vals[slot], v);
            if new != mirror_vals[slot] {
                mirror_vals[slot] = new;
                lowered.set(slot);
                changed_remote.push(dg.mirror_globals()[slot]);
                mirrors = true;
            }
        };
        for buf in self.cf.bufs_mut() {
            buf.drain_local(|off, v| {
                let o = off as usize;
                if o >= nm {
                    return lower(o - nm, v);
                }
                let new = op.combine(vals[o], v);
                if new != vals[o] {
                    vals[o] = new;
                    updated.set(o);
                    local_updated.set(o);
                    masters = true;
                }
            });
            buf.drain_remote(|g, v| {
                let slot = dg.mirror_slot(g).expect("a local pass reduced into a non-proxy");
                lower(slot as usize, v);
            });
        }
        if masters {
            self.any_updated.store(true, Ordering::Relaxed);
        }
        masters || mirrors
    }

    /// Queues every mirror a host-local fixpoint lowered this round as a
    /// partial for its owner, ahead of the reduce-sync scatter.
    fn stage_lowered_mirrors(&mut self) {
        if self.lowered.none_set() {
            return;
        }
        let op = self.op;
        let buf = self.cf.bufs_mut().next().expect("a pool has a thread");
        for slot in self.lowered.iter_set() {
            let g = self.dg.mirror_globals()[slot];
            buf.reduce_remote(g, self.mirror_vals[slot], |a, b| op.combine(a, b));
        }
        self.lowered.clear();
    }

    /// [`NodePropMap::request`] of the proxy with local id `lid`: masters
    /// need no request and the ownership test is one comparison.
    ///
    /// # Panics
    ///
    /// Panics if `lid` is not a local id of the map's partition.
    #[inline]
    pub fn request_local(&self, lid: LocalId) {
        if (lid as usize) < self.dg.num_masters() {
            return;
        }
        self.requests.set(self.dg.local_to_global(lid) as usize);
    }

    fn cache_lookup(&self, key: NodeId) -> Option<T> {
        self.cache_keys
            .binary_search(&key)
            .ok()
            .map(|i| self.cache_vals[i])
    }

    /// Captures this host's master values for checkpointing.
    ///
    /// Call at a BSP round boundary (after `reduce_sync`): the snapshot
    /// deliberately excludes the remote cache, pending partials, and the
    /// request set, which are all empty or reconstructible there.
    pub fn snapshot(&self) -> MapSnapshot<T> {
        self.vals.clone()
    }

    /// Rewinds this host's map to a [`Npm::snapshot`]: master values are
    /// reapplied and every transient (cache, partials, requests, update
    /// flags, pin state) is reset as if the map had just reached that
    /// round boundary.
    ///
    /// Mirrors are dropped: callers that had mirrors pinned must call
    /// `pin_mirrors` again (the engine's recovery path does), which
    /// re-materializes them from the restored master values.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot came from a map with a different node space.
    pub fn restore(&mut self, snap: &MapSnapshot<T>) {
        assert_eq!(self.vals.len(), snap.len(), "snapshot from a different map");
        self.vals.copy_from_slice(snap);
        self.updated.clear();
        self.cache_keys.clear();
        self.cache_vals.clear();
        self.mirror_vals.fill(self.op.identity());
        self.mirror_has.fill(false);
        self.requests.clear();
        self.cf.clear();
        self.pinned = false;
        self.broadcast_all = false;
        self.changed_remote.clear();
        self.local_updated.clear();
        self.lowered.clear();
        // The rewind is not a tracked mutation; the next round must run
        // dense before delta windows resume.
        self.delta_tracked = false;
        self.any_updated.store(false, Ordering::Relaxed);
    }

    /// Expands a snapshot of **this host's** shard into explicit
    /// `(node, value)` pairs — the partition-independent form a host ships
    /// to its replication successor, and the form a survivor re-shards
    /// under a recomputed ownership after a membership shrink. Offsets are
    /// decoded through the shared ownership, so the order is deterministic
    /// (ascending node id) and replicated payloads are byte-stable across
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's length does not match this host's master
    /// count (snapshot from a different shard or node space).
    pub fn globalize_snapshot(&self, snap: &MapSnapshot<T>) -> Vec<(NodeId, T)> {
        assert_eq!(
            snap.len(),
            self.key_own.num_masters(self.host),
            "snapshot from a different shard"
        );
        self.key_own
            .masters(self.host)
            .zip(snap.iter().copied())
            .collect()
    }

    /// Gather-reduce: folds the combined partials onto the master table
    /// (see [`CfPartials::gather`]). Each pool thread's keys are one
    /// contiguous run of master offsets ([`FastOwn::shard_offsets`]), so
    /// the table splits into one `&mut` slice per thread; the lock that
    /// hands a slice over is taken once per thread and never contended.
    fn gather_fold(&mut self, ctx: &HostCtx, received: &[Vec<u8>]) {
        let (op, fast) = (self.op, self.fast_own);
        let bounds = fast.shard_offsets(ctx.threads(), self.key_own.num_nodes(), self.vals.len());
        let mut rest = &mut self.vals[..];
        let slices: Vec<Mutex<&mut [T]>> = bounds
            .windows(2)
            .map(|w| {
                let (mine, tail) = std::mem::take(&mut rest).split_at_mut(w[1] - w[0]);
                rest = tail;
                Mutex::new(mine)
            })
            .collect();
        let (slices, bounds, updated, any) = (&slices, &bounds, &self.updated, &self.any_updated);
        self.cf.gather(ctx, received, |tid| {
            let mut table = slices[tid].lock();
            let base = bounds[tid];
            move |k: NodeId, v: T| {
                let off = fast.local_offset(k).expect("gather key not owned") as usize;
                let slot = &mut table[off - base];
                let new = op.combine(*slot, v);
                if new != *slot {
                    *slot = new;
                    updated.set(off);
                    any.store(true, Ordering::Relaxed);
                }
            }
        });
    }

    /// The broadcast over pinned mirrors: one exchange pushing master
    /// values to the hosts that mirror them. With a `vote`, the same
    /// exchange carries every host's bit and the agreed OR is returned
    /// (without one the result is `false`).
    fn broadcast_pinned(&mut self, ctx: &HostCtx, vote: Option<bool>) -> bool {
        let all = self.broadcast_all;
        self.broadcast_all = false;
        // One-way push of master values to mirror hosts. The temporal
        // invariant (partitions don't change) lets us send only values
        // updated by the last reduce_sync — except right after pinning,
        // when mirrors hold no values yet. Under a host-local fixpoint the
        // update bits hold only the last pass's and the gather's changes;
        // the rest of the round's are in `local_updated`.
        let local = (!self.local_updated.is_empty()).then_some(&self.local_updated);
        let outgoing: Vec<Vec<u8>> = (0..self.num_hosts)
            .map(|peer| {
                let mut buf = Vec::new();
                if peer != self.host {
                    for &g in self.dg.mirrors_on_peer(peer) {
                        let off = self.key_own.master_offset(g);
                        if all || self.updated.get(off) || local.is_some_and(|l| l.get(off)) {
                            (g, self.vals[off]).write(&mut buf);
                        }
                    }
                }
                buf
            })
            .collect();
        let (received, any) = match vote {
            Some(v) => ctx.exchange_or(outgoing, v),
            None => (ctx.exchange(outgoing), false),
        };
        check_whole::<(NodeId, T)>(ctx, "broadcast", "(key, value) pairs", &received);
        for buf in &received {
            for (k, v) in iter_decoded::<(NodeId, T)>(buf) {
                self.mirror_store(k, v);
            }
        }
        any
    }

    /// Stores a broadcast value into the mirror table if `key`'s mirror is
    /// materialized, recording actual changes in the remote delta.
    fn mirror_store(&mut self, key: NodeId, value: T) {
        if let Some(slot) = self.dg.mirror_slot(key) {
            let slot = slot as usize;
            if self.mirror_has[slot] {
                if self.mirror_vals[slot] != value {
                    self.changed_remote.push(key);
                }
                self.mirror_vals[slot] = value;
            }
        }
    }
}

/// Read slow path: `key` is remote and was neither requested nor pinned.
#[cold]
#[inline(never)]
pub(crate) fn read_miss(host: usize, key: NodeId) -> ! {
    panic!("host {host}: read of remote node {key} that was neither requested nor pinned");
}

/// Replaces / merges a sorted key/value cache with `pairs` (sorted by
/// key). Entries in `pairs` win over existing ones; existing entries are
/// retained only when `keep_existing`.
pub(crate) fn merge_cache<T: Copy>(
    keys: &mut Vec<NodeId>,
    vals: &mut Vec<T>,
    pairs: Vec<(NodeId, T)>,
    keep_existing: bool,
) {
    debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
    if !keep_existing || keys.is_empty() {
        *keys = pairs.iter().map(|&(k, _)| k).collect();
        *vals = pairs.iter().map(|&(_, v)| v).collect();
        return;
    }
    let mut new_keys = Vec::with_capacity(keys.len() + pairs.len());
    let mut new_vals = Vec::with_capacity(new_keys.capacity());
    let (mut i, mut j) = (0, 0);
    while i < keys.len() || j < pairs.len() {
        let take_new = j < pairs.len() && (i >= keys.len() || pairs[j].0 <= keys[i]);
        if take_new {
            if i < keys.len() && pairs[j].0 == keys[i] {
                i += 1; // new value supersedes old
            }
            new_keys.push(pairs[j].0);
            new_vals.push(pairs[j].1);
            j += 1;
        } else {
            new_keys.push(keys[i]);
            new_vals.push(vals[i]);
            i += 1;
        }
    }
    *keys = new_keys;
    *vals = new_vals;
}

/// Fetches current values for `keys` (grouped per owner, sorted) through
/// the request/response protocol — owners answer with `serve(key)` — and
/// returns the merged sorted pair list. Collective.
pub(crate) fn fetch_keys<T: PropValue>(
    ctx: &HostCtx,
    keys_by_owner: Vec<Vec<NodeId>>,
    serve: impl Fn(NodeId) -> T,
) -> Vec<(NodeId, T)> {
    let host = ctx.host();
    // Round 1: ship request key lists.
    let outgoing = keys_by_owner
        .iter()
        .enumerate()
        .map(|(h, keys)| if h == host { Vec::new() } else { encode_slice(keys) })
        .collect();
    let incoming = ctx.exchange(outgoing);
    check_whole::<NodeId>(ctx, "request list", "keys", &incoming);

    // Serve: respond with values in request order.
    let responses: Vec<Vec<u8>> = incoming
        .iter()
        .enumerate()
        .map(|(h, buf)| {
            if h == host {
                return Vec::new();
            }
            let mut resp = Vec::with_capacity(buf.len() / NodeId::SIZE * T::SIZE);
            for key in iter_decoded::<NodeId>(buf) {
                serve(key).write(&mut resp);
            }
            resp
        })
        .collect();

    // Round 2: ship responses.
    let answers = ctx.exchange(responses);

    // Materialize.
    let mut pairs: Vec<(NodeId, T)> = Vec::new();
    for (h, keys) in keys_by_owner.iter().enumerate() {
        if h == host {
            pairs.extend(keys.iter().map(|&k| (k, serve(k))));
        } else {
            let answer = &answers[h];
            if answer.len() != keys.len() * T::SIZE {
                ctx.protocol_violation(format!(
                    "response from host {h}: {} bytes for {} keys",
                    answer.len(),
                    keys.len()
                ));
            }
            pairs.extend(keys.iter().copied().zip(iter_decoded::<T>(answer)));
        }
    }
    pairs.sort_unstable_by_key(|&(k, _)| k);
    pairs
}

/// The requested keys of `requests`, bucketed per owner host under `own`
/// and sorted, in parallel over word chunks of the bitset. Chunks are
/// ascending in key space, and both ownership kinds are monotone within a
/// chunk, so chunk-order concatenation keeps every per-host list sorted.
pub(crate) fn requested_by_owner(
    ctx: &HostCtx,
    requests: &ConcurrentBitset,
    own: &Ownership,
) -> Vec<Vec<NodeId>> {
    let num_hosts = own.num_hosts();
    let num_words = requests.num_words();
    let chunk = num_words.div_ceil(ctx.threads()).max(1);
    let parts = ctx.pool().run_map(|tid| {
        let lo = (tid * chunk).min(num_words);
        let hi = ((tid + 1) * chunk).min(num_words);
        let mut per: Vec<Vec<NodeId>> = vec![Vec::new(); num_hosts];
        for k in requests.iter_set_words(lo..hi) {
            let k = k as NodeId;
            per[own.owner(k)].push(k);
        }
        per
    });
    let mut merged: Vec<Vec<NodeId>> = vec![Vec::new(); num_hosts];
    for per in parts {
        for (h, mut keys) in per.into_iter().enumerate() {
            merged[h].append(&mut keys);
        }
    }
    merged
}

impl<'g, T: PropValue, Op: ReduceOp<T>> NodePropMap<T> for Npm<'g, T, Op> {
    fn init_masters(&mut self, f: &dyn Fn(NodeId) -> T) {
        for i in 0..self.key_own.num_masters(self.host) {
            let g = self.key_own.master_at(self.host, i);
            self.set(g, f(g));
        }
    }

    #[inline]
    fn read(&self, key: NodeId) -> T {
        // Masters: O(1) dense table via precomputed ownership. The cache
        // never holds owned keys (requests for them are elided).
        if let Some(off) = self.fast_own.local_offset(key) {
            return self.vals[off as usize];
        }
        // Materialized mirrors: O(1) dense table indexed by the
        // partition's mirror slot.
        if let Some(slot) = self.dg.mirror_slot(key) {
            let slot = slot as usize;
            if self.mirror_has[slot] {
                return self.mirror_vals[slot];
            }
        }
        // Requested keys without a mirror proxy (trans-vertex requests):
        // sorted spill, binary search.
        if let Some(v) = self.cache_lookup(key) {
            return v;
        }
        read_miss(self.host, key)
    }

    #[inline]
    fn read_local(&self, dg: &DistGraph, lid: LocalId) -> T {
        debug_assert!(std::ptr::eq(dg, self.dg), "a map reads the partition it was built over");
        Npm::read_local(self, lid)
    }

    /// # Panics
    ///
    /// Panics if this host does not own `key`: key owners follow the graph
    /// partition, so every host initializes exactly its masters.
    fn set(&mut self, key: NodeId, value: T) {
        let Some(off) = self.fast_own.local_offset(key) else {
            let owner = self.key_own.owner(key);
            panic!("host {}: set of node {key}, which host {owner} owns", self.host);
        };
        let off = off as usize;
        if self.vals[off] != value {
            self.vals[off] = value;
            self.updated.set(off);
            self.any_updated.store(true, Ordering::Relaxed);
        }
    }

    #[inline]
    fn reduce(&self, tid: usize, key: NodeId, value: T) {
        debug_assert!((key as usize) < self.key_own.num_nodes());
        let op = self.op;
        let buf = self.cf.buf(tid);
        match self.fast_own.local_offset(key) {
            Some(off) => buf.reduce_local(off, value, |a, b| op.combine(a, b)),
            None => buf.reduce_remote(key, value, |a, b| op.combine(a, b)),
        }
    }

    fn request(&self, key: NodeId) {
        if self.key_own.owner(key) == self.host {
            return; // masters are always materialized
        }
        self.requests.set(key as usize);
    }

    fn request_sync(&mut self, ctx: &HostCtx) {
        let keys_by_owner = requested_by_owner(ctx, &self.requests, &self.key_own);
        self.requests.clear();
        let pairs = fetch_keys(ctx, keys_by_owner, |k| self.vals[self.key_own.master_offset(k)]);
        // Request materialization changes readable values outside the
        // per-key delta bookkeeping: the current window can no longer
        // vouch for completeness.
        if !pairs.is_empty() {
            self.delta_tracked = false;
        }
        // Mirror-proxied keys materialize straight into the dense mirror
        // table; only trans-vertex requests (no proxy) go to the sorted
        // spill. Earlier phases' spilled values stay valid until
        // reduce-sync drops them (a BSP round may chain several
        // request-compute/request-sync phases, e.g. `parent(parent(n))`).
        let mut spill: Vec<(NodeId, T)> = Vec::new();
        for (k, v) in pairs {
            if let Some(slot) = self.dg.mirror_slot(k) {
                self.mirror_vals[slot as usize] = v;
                self.mirror_has[slot as usize] = true;
            } else {
                spill.push((k, v));
            }
        }
        merge_cache(&mut self.cache_keys, &mut self.cache_vals, spill, true);
    }

    fn reduce_sync(&mut self, ctx: &HostCtx) {
        self.stage_lowered_mirrors();

        // Scatter: combine thread partials over disjoint key ranges and
        // serialize (key, value) pairs per owner host.
        let outgoing = self.cf.combine_scatter(ctx, self.op);
        let received = ctx.exchange(outgoing);
        self.gather_fold(ctx, &received);

        // Ad-hoc requested (non-mirror) values always drop. The mirror
        // table stays resident while pinned — its (now stale) values are
        // refreshed by the following broadcast_sync — and is invalidated
        // wholesale through the presence bits otherwise.
        self.cache_keys.clear();
        self.cache_vals.clear();
        if !self.pinned {
            self.mirror_has.fill(false);
        }
    }

    fn broadcast_sync(&mut self, ctx: &HostCtx) {
        if self.pinned {
            self.broadcast_pinned(ctx, None);
        }
    }

    fn pin_mirrors(&mut self, ctx: &HostCtx) {
        self.pinned = true;
        // Materialize the whole mirror table with identity placeholders
        // (ad-hoc spilled requests are superseded), then pull in the real
        // values with a full broadcast.
        self.mirror_vals.fill(self.op.identity());
        self.mirror_has.fill(true);
        self.cache_keys.clear();
        self.cache_vals.clear();
        self.broadcast_all = true;
        self.broadcast_sync(ctx);
    }

    fn unpin_mirrors(&mut self) {
        debug_assert!(self.lowered.none_set(), "lowered mirrors never shipped");
        self.pinned = false;
        self.mirror_has.fill(false);
        self.cache_keys.clear();
        self.cache_vals.clear();
    }

    fn reset_updated(&mut self) {
        self.any_updated.store(false, Ordering::Relaxed);
        self.updated.clear();
        self.changed_remote.clear();
        self.local_updated.clear();
        // A fresh window begins: the per-key delta is complete from here
        // until the next untracked mutation.
        self.delta_tracked = true;
    }

    fn reset_values(&mut self, _ctx: &HostCtx) {
        let id = self.op.identity();
        self.vals.fill(id);
        self.updated.clear();
        self.cf.clear();
        self.any_updated.store(false, Ordering::Relaxed);
        self.changed_remote.clear();
        self.local_updated.clear();
        self.lowered.clear();
        // A wholesale reinitialization changes values without per-key
        // bookkeeping: invalidate the window.
        self.delta_tracked = false;
        if self.pinned {
            // Mirror values are now stale everywhere; the next broadcast
            // must resend everything.
            self.mirror_vals.fill(id);
            self.cache_vals.fill(id);
            self.broadcast_all = true;
        }
    }

    fn changed_keys(&self) -> ChangedKeys<'_> {
        if !self.delta_tracked {
            return ChangedKeys::Untracked;
        }
        ChangedKeys::Tracked {
            masters: &self.updated,
            remote: &self.changed_remote,
        }
    }

    fn is_updated(&self, ctx: &HostCtx) -> bool {
        ctx.all_reduce_or(self.any_updated.load(Ordering::Relaxed))
    }

    fn sync_round(&mut self, ctx: &HostCtx) -> bool {
        self.reduce_sync(ctx);
        if !self.pinned {
            return self.is_updated(ctx);
        }
        // The broadcast is one exchange among all hosts: let it carry the
        // quiescence bits too.
        self.broadcast_pinned(ctx, Some(self.any_updated.load(Ordering::Relaxed)))
    }
}

impl<T: PropValue, Op: ReduceOp<T>> std::fmt::Debug for Npm<'_, T, Op> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Npm")
            .field("host", &self.host)
            .field("cached", &self.cache_keys.len())
            .field("pinned", &self.pinned)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ops::{Min, Sum};
    use kimbap_comm::Cluster;
    use kimbap_dist::{partition, Policy};
    use kimbap_graph::gen;

    pub(crate) fn with_cluster<R: Send>(
        hosts: usize,
        threads: usize,
        policy: Policy,
        f: impl Fn(&HostCtx, &DistGraph) -> R + Sync,
    ) -> Vec<R> {
        let g = gen::grid_road(6, 6, 3);
        let parts = partition(&g, policy, hosts);
        Cluster::with_threads(hosts, threads).run(|ctx| f(ctx, &parts[ctx.host()]))
    }

    /// Builds one host's `Min` map. The shared checks below take one, so
    /// the sharded baseline's tests run them on its rows too.
    pub(crate) type Make = for<'a> fn(&'a DistGraph, &HostCtx) -> Box<dyn NodePropMap<u64> + 'a>;

    pub(crate) fn gar<'a>(dg: &'a DistGraph, ctx: &HostCtx) -> Box<dyn NodePropMap<u64> + 'a> {
        Box::new(Npm::<u64, Min>::new(dg, ctx, Min))
    }

    #[test]
    fn set_and_read_masters() {
        let out = with_cluster(3, 1, Policy::EdgeCutBlocked, |ctx, dg| {
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|g| g as u64 * 2);
            dg.master_nodes()
                .all(|m| npm.read(dg.local_to_global(m)) == dg.local_to_global(m) as u64 * 2)
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn reduce_sync_applies_min_across_hosts() {
        let out = with_cluster(4, 2, Policy::EdgeCutBlocked, |ctx, dg| {
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|g| g as u64 + 100);
            // Every host reduces (host id) into node 5.
            npm.reduce(0, 5, ctx.host() as u64 + 10);
            npm.reduce_sync(ctx);
            npm.request(5);
            npm.request_sync(ctx);
            npm.read(5)
        });
        assert!(out.iter().all(|&v| v == 10));
    }

    #[test]
    fn reduce_keeps_smaller_canonical() {
        let out = with_cluster(2, 1, Policy::EdgeCutBlocked, |ctx, dg| {
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|_| 1); // canonical smaller than any reduce
            npm.reduce(0, 3, 50);
            npm.reduce_sync(ctx);
            npm.request(3);
            npm.request_sync(ctx);
            npm.read(3)
        });
        assert!(out.iter().all(|&v| v == 1));
    }

    #[test]
    fn is_updated_tracks_changes() {
        let out = with_cluster(2, 1, Policy::EdgeCutBlocked, |ctx, dg| {
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|_| 100);
            npm.reset_updated();
            npm.reduce(0, 0, 5);
            npm.reduce_sync(ctx);
            let first = npm.is_updated(ctx);
            npm.reset_updated();
            // Reducing a larger value changes nothing.
            npm.reduce(0, 0, 7);
            npm.reduce_sync(ctx);
            let second = npm.is_updated(ctx);
            (first, second)
        });
        assert!(out.iter().all(|&(a, b)| a && !b));
    }

    #[test]
    #[should_panic(expected = "host thread panicked")]
    fn unrequested_remote_read_panics() {
        // Node 0 is owned by host 0; host 1 reads it without requesting.
        let g = gen::grid_road(4, 4, 0);
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let got: Vec<u64> = Cluster::new(2).run(|ctx| {
            let npm: Npm<u64, Min> = Npm::new(&parts[ctx.host()], ctx, Min);
            if ctx.host() == 1 {
                npm.read(0)
            } else {
                0
            }
        });
        drop(got);
    }

    #[test]
    fn pinned_mirrors_follow_broadcast() {
        pinned_mirrors_follow_broadcast_on("SGR+CF+GAR", gar);
    }

    pub(crate) fn pinned_mirrors_follow_broadcast_on(what: &str, make: Make) {
        let out = with_cluster(3, 2, Policy::EdgeCutBlocked, move |ctx, dg| {
            let mut npm = make(dg, ctx);
            npm.init_masters(&|g| g as u64 + 1000);
            npm.pin_mirrors(ctx);
            // All mirror reads now resolve to the owner's canonical.
            let ok_initial = dg
                .mirror_globals()
                .iter()
                .all(|&m| npm.read(m) == m as u64 + 1000);
            // Owners update node values; broadcast refreshes mirrors.
            npm.reset_updated();
            npm.reduce(0, 7, 3); // min: 3 < 1007
            npm.reduce_sync(ctx);
            npm.broadcast_sync(ctx);
            let ok_after = dg
                .mirror_globals()
                .iter()
                .all(|&m| npm.read(m) == if m == 7 { 3 } else { m as u64 + 1000 });
            npm.unpin_mirrors();
            ok_initial && ok_after
        });
        assert!(out.iter().all(|&b| b), "{what} failed");
    }

    /// A few label-propagation-like rounds over pinned mirrors, with the
    /// round tail fused or spelled out; returns the per-round agreed flags,
    /// every readable value at the end, and the chunk frames sent per round.
    fn lp_rounds(make: Make, fused: bool) -> Vec<(Vec<bool>, Vec<u64>, Vec<u64>)> {
        with_cluster(2, 2, Policy::EdgeCutBlocked, move |ctx, dg| {
            let mut npm = make(dg, ctx);
            npm.init_masters(&|g| g as u64 + 100);
            npm.pin_mirrors(ctx);
            let (mut flags, mut chunks) = (Vec::new(), Vec::new());
            // Rounds 0-2 lower some labels (round 1 only on host 0's side),
            // round 3 changes nothing: the flag must turn false everywhere.
            for round in 0..4u64 {
                npm.reset_updated();
                if round < 3 && (round != 1 || ctx.host() == 0) {
                    for key in [3u32, 20, 33] {
                        npm.reduce(0, key, 50 - 2 * round - ctx.host() as u64);
                    }
                }
                let before = ctx.stats().chunks_sent;
                flags.push(if fused {
                    npm.sync_round(ctx)
                } else {
                    npm.reduce_sync(ctx);
                    npm.broadcast_sync(ctx);
                    npm.is_updated(ctx)
                });
                chunks.push(ctx.stats().chunks_sent - before);
            }
            let readable = (0..dg.num_local_nodes() as u32)
                .map(|l| npm.read(dg.local_to_global(l)))
                .collect();
            (flags, readable, chunks)
        })
    }

    #[test]
    fn sync_round_equals_the_three_call_tail() {
        sync_round_equals_the_three_call_tail_on("SGR+CF+GAR", gar);
    }

    pub(crate) fn sync_round_equals_the_three_call_tail_on(what: &str, make: Make) {
        let fused = lp_rounds(make, true);
        let split = lp_rounds(make, false);
        for (f, s) in fused.iter().zip(&split) {
            assert_eq!(f.0, s.0, "{what}: agreed flags differ");
            assert_eq!(f.1, s.1, "{what}: readable values differ");
            assert_eq!(f.0, vec![true, true, true, false]);
        }
        assert_eq!(fused[0].0, fused[1].0, "{what}: hosts disagree on the flag");
    }

    #[test]
    fn fused_round_on_pinned_gar_hosts_is_two_exchanges() {
        // On two hosts every exchange is one chunk frame per host (payloads
        // here are far below a chunk), so frames sent count exchanges.
        for (fused, per_round) in [(true, 2), (false, 3)] {
            for host in lp_rounds(gar, fused) {
                assert_eq!(host.2, vec![per_round; 4], "fused={fused}");
            }
        }
    }

    #[test]
    fn misaligned_broadcast_buffer_is_a_protocol_violation() {
        let g = gen::grid_road(6, 6, 3);
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let res = Cluster::new(2).try_run(|ctx| {
            let mut npm: Npm<u64, Min> = Npm::new(&parts[ctx.host()], ctx, Min);
            npm.init_masters(&|g| g as u64);
            npm.pin_mirrors(ctx);
            if ctx.host() == 0 {
                npm.broadcast_sync(ctx);
            } else {
                // A peer that sends 5 bytes where (u32, u64) pairs belong
                // (and may then see host 0 fail, or not: it is not judged).
                let _ = ctx.try_exchange(vec![vec![0xAB; 5]; 2]);
            }
        });
        let err = res[0].as_ref().unwrap_err();
        assert!(
            err.message.contains("protocol violation") && err.message.contains("5 bytes"),
            "host 0 reported: {}",
            err.message
        );
    }

    /// Runs `victim` on host 0 of a 2-host grid cluster while host 1 plays
    /// `peer` against the raw exchanges; returns host 0's error message.
    fn host0_error(
        victim: impl Fn(&mut Npm<u64, Min>, &HostCtx) + Sync,
        peer: impl Fn(&HostCtx) + Sync,
    ) -> String {
        let g = gen::grid_road(6, 6, 3);
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let res = Cluster::new(2).try_run(|ctx| {
            let mut npm: Npm<u64, Min> = Npm::new(&parts[ctx.host()], ctx, Min);
            npm.init_masters(&|g| g as u64);
            if ctx.host() == 0 {
                victim(&mut npm, ctx);
            } else {
                // The peer may then see host 0 fail, or not: not judged.
                peer(ctx);
            }
        });
        res[0].as_ref().unwrap_err().message.clone()
    }

    #[test]
    fn misaligned_request_list_is_a_protocol_violation() {
        let err = host0_error(
            |npm, ctx| npm.request_sync(ctx),
            // 5 bytes where u32 keys belong.
            |ctx| {
                let _ = ctx.try_exchange(vec![vec![0xAB; 5]; 2]);
            },
        );
        assert!(
            err.contains("protocol violation") && err.contains("request list from host 1: 5 bytes"),
            "host 0 reported: {err}"
        );
    }

    #[test]
    fn short_response_is_a_protocol_violation() {
        let err = host0_error(
            |npm, ctx| {
                npm.request(35); // the grid's last node: a host-1 master
                npm.request_sync(ctx);
            },
            // Take the request, then answer with 3 bytes for one u64.
            |ctx| {
                if ctx.try_exchange(vec![Vec::new(); 2]).is_ok() {
                    let _ = ctx.try_exchange(vec![vec![0xAB; 3]; 2]);
                }
            },
        );
        assert!(
            err.contains("protocol violation") && err.contains("3 bytes for 1 keys"),
            "host 0 reported: {err}"
        );
    }

    #[test]
    fn misaligned_reduce_sync_buffer_is_a_protocol_violation() {
        let err = host0_error(
            |npm, ctx| npm.reduce_sync(ctx),
            // 5 bytes where (u32, u64) pairs belong.
            |ctx| {
                let _ = ctx.try_exchange(vec![vec![0xAB; 5]; 2]);
            },
        );
        assert!(
            err.contains("protocol violation") && err.contains("reduce-sync from host 1: 5 bytes"),
            "host 0 reported: {err}"
        );
    }

    #[test]
    fn sum_map_accumulates() {
        let out = with_cluster(2, 2, Policy::EdgeCutBlocked, |ctx, dg| {
            let mut npm: Npm<u64, Sum> = Npm::new(dg, ctx, Sum);
            // 4 threads-worth of adds onto key 2 from both hosts.
            ctx.par_for(0..100, |tid, range| {
                for _ in range {
                    npm.reduce(tid, 2, 1);
                }
            });
            npm.reduce_sync(ctx);
            npm.request(2);
            npm.request_sync(ctx);
            npm.read(2)
        });
        assert!(out.iter().all(|&v| v == 200));
    }

    #[test]
    fn request_dedup_counts_once() {
        let out = with_cluster(2, 2, Policy::EdgeCutBlocked, |ctx, dg| {
            let npm_cell = parking_lot::Mutex::new(Npm::<u64, Min>::new(dg, ctx, Min));
            {
                let npm = npm_cell.lock();
                let remote = if ctx.host() == 0 { 30u32 } else { 0 };
                for _ in 0..1000 {
                    npm.request(remote);
                }
            }
            let npm = npm_cell.into_inner();
            let by_owner = requested_by_owner(ctx, &npm.requests, &npm.key_own);
            by_owner.iter().map(Vec::len).sum::<usize>()
        });
        assert!(out.iter().all(|&c| c == 1));
    }

    #[test]
    fn changed_keys_tracks_round_delta() {
        let out = with_cluster(2, 2, Policy::EdgeCutBlocked, |ctx, dg| {
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|g| g as u64 + 100);
            npm.pin_mirrors(ctx);
            npm.reset_updated();
            // Quiet round: nothing changes anywhere.
            npm.reduce_sync(ctx);
            npm.broadcast_sync(ctx);
            let quiet = match npm.changed_keys() {
                ChangedKeys::Tracked { masters, remote } => {
                    masters.none_set() && remote.is_empty()
                }
                ChangedKeys::Untracked => false,
            };
            npm.reset_updated();
            // Node 3 (owned by host 0) improves under Min.
            npm.reduce(0, 3, 1);
            npm.reduce_sync(ctx);
            npm.broadcast_sync(ctx);
            let delta_ok = match npm.changed_keys() {
                ChangedKeys::Tracked { masters, remote } => {
                    if npm.key_own.owner(3) == ctx.host() {
                        masters.get(npm.key_own.master_offset(3))
                            && masters.count_set() == 1
                            && remote.is_empty()
                    } else {
                        // The non-owner sees the change exactly when node 3
                        // is mirrored here.
                        let expect: Vec<NodeId> =
                            if dg.mirror_slot(3).is_some() { vec![3] } else { vec![] };
                        masters.none_set() && remote == expect.as_slice()
                    }
                }
                ChangedKeys::Untracked => false,
            };
            quiet && delta_ok
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn changed_keys_invalidated_by_untracked_mutations() {
        let out = with_cluster(2, 1, Policy::EdgeCutBlocked, |ctx, dg| {
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|g| g as u64);
            npm.reset_updated();
            // Request materialization mutates readable values outside the
            // delta bookkeeping.
            let remote = if ctx.host() == 0 { 20u32 } else { 0 };
            npm.request(remote);
            npm.request_sync(ctx);
            let after_request = matches!(npm.changed_keys(), ChangedKeys::Untracked);
            npm.reset_updated();
            let after_reset = matches!(npm.changed_keys(), ChangedKeys::Tracked { .. });
            npm.reset_values(ctx);
            let after_reset_values = matches!(npm.changed_keys(), ChangedKeys::Untracked);
            after_request && after_reset && after_reset_values
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn snapshot_restore_rewinds_canonical_state() {
        let out = with_cluster(3, 2, Policy::EdgeCutBlocked, move |ctx, dg| {
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|g| g as u64 + 50);
            let snap = npm.snapshot();
            // Diverge: reductions, requests, and a pin all mutate state.
            npm.reduce(0, 4, 1);
            npm.reduce_sync(ctx);
            npm.pin_mirrors(ctx);
            npm.restore(&snap);
            npm.pin_mirrors(ctx); // recovery path: re-materialize mirrors
            let ok_values = dg
                .local_nodes()
                .map(|l| dg.local_to_global(l))
                .all(|g| npm.read(g) == g as u64 + 50);
            // The restored map must behave identically going forward.
            npm.reset_updated();
            npm.reduce(0, 4, 1);
            npm.reduce_sync(ctx);
            npm.request(4);
            npm.request_sync(ctx);
            ok_values && npm.read(4) == 1
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "set of node")]
    fn set_of_a_key_another_host_owns_panics() {
        // Under a Cartesian vertex cut most hosts hold mirrors; a `set` of
        // one names the host and the key at the call, instead of being
        // buffered and dropped.
        let g = gen::grid_road(6, 6, 3);
        let parts = partition(&g, Policy::CartesianVertexCut, 4);
        assert!(parts.iter().any(|dg| dg.num_mirrors() > 0));
        Cluster::new(4).run(|ctx| {
            let dg = &parts[ctx.host()];
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            if let Some(&mirror) = dg.mirror_globals().first() {
                npm.set(mirror, 1);
            }
        });
    }

    #[test]
    fn cache_dropped_after_reduce_sync() {
        let g = gen::grid_road(4, 4, 0);
        let parts = partition(&g, Policy::EdgeCutBlocked, 2);
        let panicked = Cluster::new(2).run(|ctx| {
            let dg = &parts[ctx.host()];
            let mut npm: Npm<u64, Min> = Npm::new(dg, ctx, Min);
            npm.init_masters(&|g| g as u64);
            let remote = if ctx.host() == 0 { 15u32 } else { 0 };
            npm.request(remote);
            npm.request_sync(ctx);
            let _ = npm.read(remote);
            npm.reduce_sync(ctx);
            // Cache must be gone now.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| npm.read(remote))).is_err()
        });
        // Node 15 is remote to host 0 and node 0 is remote to host 1, so
        // both post-sync reads must fail.
        assert!(panicked[0]);
        assert!(panicked[1]);
    }
}
