//! Thread-owned partial-reduction buffers for conflict-free reductions.
//!
//! §4.1's CF optimization gives every pool thread its own partial map so
//! that `reduce()` never contends. The original implementation still paid
//! a `Mutex` acquire and a SipHash `HashMap` probe per call on a map that
//! is thread-private *by construction*. [`PartialBuf`] removes both costs:
//!
//! - keys in this host's GAR master range land in a **dense
//!   identity-initialized array** indexed by master offset, with a
//!   touched-list so draining skips untouched slots;
//! - remote keys land in an **open-addressed table** with an FxHash-style
//!   multiplicative hash and linear probing — no per-entry allocation, no
//!   SipHash.
//!
//! Draining resets entries but keeps every allocation, so a buffer's
//! capacity converges to the round's working set — the capacity
//! pre-sizing from previous-round counts falls out for free.
//!
//! [`ThreadOwned`] supplies the aliasing model: a fixed slot per pool
//! thread, handed out as `&mut` under the invariant that concurrent
//! callers use distinct thread ids (exactly the guarantee `WorkerPool`
//! provides).
//!
//! [`CfPartials`] owns the whole CF state of one map — the thread buffers
//! and the combine's spill cells — together with the combine-scatter and
//! the gather, so the product map and the sharded baseline run the same
//! reduce-sync.

use crate::map::check_whole;
use crate::ops::ReduceOp;
use crate::value::PropValue;
use kimbap_comm::wire::iter_decoded;
use kimbap_comm::{HostCtx, Wire};
use kimbap_dist::Ownership;
use kimbap_graph::NodeId;
use parking_lot::Mutex;
use std::cell::UnsafeCell;

/// Precomputed is-mine test for one host's key-distribution map.
///
/// [`Ownership`] answers "who owns key `k`" for *any* host — a search of
/// its boundary table or a modulus, with asserted bounds checks — fine
/// for collectives, too slow for the per-call `reduce`/`read` fast paths,
/// which only ever ask "is `k` mine, and at which master offset".
/// `FastOwn` pre-resolves this host's row of the boundary table (blocked
/// ownership) or modulus residue (hashed ownership) into two branch-light
/// operations.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FastOwn {
    /// Blocked ownership: this host owns the contiguous range
    /// `lo .. lo + len`.
    Block { lo: u32, len: u32 },
    /// Hashed ownership: this host owns keys `≡ host (mod hosts)`.
    Mod { hosts: u32, host: u32 },
}

impl FastOwn {
    pub fn new(own: &Ownership, host: usize) -> Self {
        match own {
            Ownership::Blocked { bounds } => FastOwn::Block {
                lo: bounds[host],
                len: bounds[host + 1] - bounds[host],
            },
            Ownership::Hashed { hosts, .. } => FastOwn::Mod {
                hosts: *hosts as u32,
                host: host as u32,
            },
        }
    }

    /// This host's master offset for `key`, or `None` if `key` is remote.
    #[inline]
    pub fn local_offset(self, key: NodeId) -> Option<u32> {
        match self {
            FastOwn::Block { lo, len } => {
                let d = key.wrapping_sub(lo);
                (d < len).then_some(d)
            }
            FastOwn::Mod { hosts, host } => {
                (key % hosts == host).then(|| key / hosts)
            }
        }
    }

    /// The pool thread (of `threads`) that combines and gathers `key`:
    /// disjoint ascending ranges. A blocked host's own keys are split by
    /// master offset, so every thread gets an equal slice of the host's
    /// block wherever the block lies in the id space; remote keys, and
    /// hashed ownership (whose owned keys stride the whole space), are
    /// split over the `n` global ids. The scatter, the gather and the
    /// sharded baseline's canonical store must all agree on it.
    #[inline]
    pub fn shard(self, key: NodeId, threads: usize, n: usize) -> usize {
        let (pos, span) = match self {
            FastOwn::Block { lo, len } if key.wrapping_sub(lo) < len => (key - lo, len as usize),
            _ => (key, n.max(1)),
        };
        debug_assert!((pos as usize) < span);
        (pos as u64 * threads as u64 / span as u64) as usize
    }

    /// The master offsets each of `threads` pool threads gathers, as
    /// `threads + 1` ascending bounds over this host's `masters` offsets:
    /// thread `t` owns `bounds[t]..bounds[t + 1]`. [`FastOwn::shard`] never
    /// decreases along master offsets (a blocked host splits its own
    /// offsets; hashed ownership's owned keys ascend with their offsets),
    /// so each thread's share is one contiguous run, found by bisection.
    pub fn shard_offsets(self, threads: usize, n: usize, masters: usize) -> Vec<usize> {
        let first_at_least = |t: usize| {
            let (mut lo, mut hi) = (0, masters);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.shard(self.key_at(mid as u32), threads, n) < t {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        (0..=threads).map(first_at_least).collect()
    }

    /// Inverse of [`FastOwn::local_offset`]: the global key at master
    /// offset `off`.
    #[inline]
    pub fn key_at(self, off: u32) -> NodeId {
        match self {
            FastOwn::Block { lo, .. } => lo + off,
            FastOwn::Mod { hosts, host } => off * hosts + host,
        }
    }
}

/// One (source thread, destination thread) spill cell of the CF combine.
type BucketCell<T> = Mutex<Vec<(NodeId, T)>>;

/// One map's conflict-free reduction state: a partial buffer per pool
/// thread, the combine's spill cells, and the owned pairs the combine keeps
/// off the wire, all keyed by one key distribution.
pub(crate) struct CfPartials<T> {
    /// Who owns each key (the wire destination of a combined pair).
    own: Ownership,
    /// This host's row of `own`, for the per-pair tests.
    fast: FastOwn,
    /// Per-thread lock-free partial buffers (dense local range +
    /// open-addressed remote table).
    tls: ThreadOwned<PartialBuf<T>>,
    /// Spill cell per (source thread, destination thread). Region A of
    /// [`CfPartials::combine_scatter`] fills row `tid`; region B drains
    /// column `tid`. Uncontended locks by construction.
    bucket_cells: Vec<Vec<BucketCell<T>>>,
    /// Per-destination-thread owned pairs that skip the wire and are
    /// applied by the gather (self-delivery was always an uncounted
    /// memcpy).
    local_pairs: ThreadOwned<Vec<(NodeId, T)>>,
    /// Bytes serialized to each host by the previous reduce-sync: the
    /// capacity hint for this round's scatter buffers.
    prev_out_bytes: Vec<usize>,
}

impl<T: PropValue> CfPartials<T> {
    /// CF state for `host` under `own`, one buffer per `threads` pool
    /// thread, each with a dense part of `dense_len` master offsets.
    pub fn new(
        own: &Ownership,
        host: usize,
        threads: usize,
        dense_len: usize,
        identity: T,
    ) -> Self {
        CfPartials {
            own: own.clone(),
            fast: FastOwn::new(own, host),
            tls: ThreadOwned::new(threads, || PartialBuf::new(dense_len, identity)),
            bucket_cells: (0..threads)
                .map(|_| (0..threads).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            local_pairs: ThreadOwned::new(threads, Vec::new),
            prev_out_bytes: vec![0; own.num_hosts()],
        }
    }

    /// The calling pool thread's partial buffer.
    #[inline]
    #[allow(clippy::mut_from_ref)] // one slot per pool thread; see below
    pub fn buf(&self, tid: usize) -> &mut PartialBuf<T> {
        // SAFETY: `tid` is the caller's pool thread id; WorkerPool hands
        // each worker a distinct dense id, so no two concurrent callers
        // share a slot, and every caller drops the borrow before returning.
        unsafe { self.tls.slot(tid) }
    }

    /// Every thread's partial buffer, outside a parallel region.
    pub fn bufs_mut(&mut self) -> impl Iterator<Item = &mut PartialBuf<T>> {
        self.tls.iter_mut()
    }

    /// Resets every transient (thread buffers, combine cells, owned
    /// pairs), keeping allocations.
    pub fn clear(&mut self) {
        for b in self.tls.iter_mut() {
            b.clear();
        }
        for row in self.bucket_cells.iter_mut() {
            for cell in row.iter_mut() {
                cell.get_mut().clear();
            }
        }
        for p in self.local_pairs.iter_mut() {
            p.clear();
        }
    }

    /// One empty wire buffer per host, sized by what the previous
    /// reduce-sync sent there; [`CfPartials::finish_wire`] closes them.
    pub fn wire_buffers(&self) -> Vec<Mutex<Vec<u8>>> {
        self.prev_out_bytes
            .iter()
            .map(|&b| Mutex::new(Vec::with_capacity(b)))
            .collect()
    }

    /// The outgoing buffers of this round's scatter, remembering their
    /// sizes as the next round's capacity hint.
    pub fn finish_wire(&mut self, per_host: Vec<Mutex<Vec<u8>>>) -> Vec<Vec<u8>> {
        let outgoing: Vec<Vec<u8>> = per_host.into_iter().map(|m| m.into_inner()).collect();
        for (prev, out) in self.prev_out_bytes.iter_mut().zip(&outgoing) {
            *prev = out.len();
        }
        outgoing
    }

    /// CF scatter half of reduce-sync: drains every thread's partial
    /// buffer, combines partials over disjoint destination key ranges
    /// (Fig. 7), and serializes remote-owned pairs per destination host.
    ///
    /// The combine touches each entry exactly twice — once when its source
    /// thread buckets it by [`FastOwn::shard`] (region A), once when its
    /// destination thread folds the bucket into its own emptied buffer
    /// (region B) — O(entries) total, instead of the previous
    /// all-threads-rescan-everything O(threads × entries).
    ///
    /// Keys this host owns never reach the wire: they land in
    /// `local_pairs` and are folded by [`CfPartials::gather`]. (They were
    /// previously self-delivered, which the traffic stats never counted,
    /// so observable message/byte counts are unchanged.)
    pub fn combine_scatter(&mut self, ctx: &HostCtx, op: impl ReduceOp<T>) -> Vec<Vec<u8>> {
        let n = self.own.num_nodes();
        let threads = self.bucket_cells.len();
        let (fast, own, host) = (self.fast, &self.own, ctx.host());
        let per_host = self.wire_buffers();
        {
            let tls = &self.tls;
            let cells = &self.bucket_cells;
            // Region A: each thread drains its own buffer, pre-bucketing
            // every entry by its destination combine thread.
            ctx.pool().run(|tid| {
                // SAFETY: WorkerPool hands each worker a distinct dense
                // thread id, so no two threads share a slot.
                let buf = unsafe { tls.slot(tid) };
                let mut row: Vec<_> = cells[tid].iter().map(|c| c.lock()).collect();
                buf.drain_local(|off, v| {
                    let k = fast.key_at(off);
                    row[fast.shard(k, threads, n)].push((k, v));
                });
                buf.drain_remote(|k, v| {
                    row[fast.shard(k, threads, n)].push((k, v));
                });
            });
            let local_pairs = &self.local_pairs;
            let per_host = &per_host;
            let prev_bytes = &self.prev_out_bytes;
            // Region B: each thread folds its incoming buckets into its
            // own (drained) buffer, then serializes — owned keys into
            // `local_pairs`, remote keys into per-destination-host wire
            // buffers.
            ctx.pool().run(|tid| {
                // SAFETY: distinct tids per worker; region A's barrier has
                // passed, so every buffer is drained and reusable as this
                // thread's combine accumulator.
                let acc = unsafe { tls.slot(tid) };
                debug_assert!(acc.is_empty());
                for src_cells in cells.iter() {
                    let mut cell = src_cells[tid].lock();
                    for &(k, v) in cell.iter() {
                        match fast.local_offset(k) {
                            Some(off) => acc.reduce_local(off, v, |a, b| op.combine(a, b)),
                            None => acc.reduce_remote(k, v, |a, b| op.combine(a, b)),
                        }
                    }
                    cell.clear(); // keep capacity for the next round
                }
                // SAFETY: distinct tids per worker.
                let mine = unsafe { local_pairs.slot(tid) };
                debug_assert!(mine.is_empty());
                let mut wire: Vec<Vec<u8>> = prev_bytes
                    .iter()
                    .map(|&b| Vec::with_capacity(b / threads))
                    .collect();
                acc.drain_local(|off, v| mine.push((fast.key_at(off), v)));
                acc.drain_remote(|k, v| (k, v).write(&mut wire[own.owner(k)]));
                for (h, w) in wire.into_iter().enumerate() {
                    debug_assert!(h != host || w.is_empty(), "owned key serialized");
                    if !w.is_empty() {
                        per_host[h].lock().extend_from_slice(&w);
                    }
                }
            });
        }
        self.finish_wire(per_host)
    }

    /// Gather half of reduce-sync: pool thread `tid` folds, through the
    /// sink `sink(tid)` returns, every pair in its key range — first the
    /// owned pairs the combine kept back, then matching pairs from every
    /// buffer in `received`, in host order. Key ranges are disjoint, so
    /// the sinks never touch the same key.
    pub fn gather<S: FnMut(NodeId, T)>(
        &self,
        ctx: &HostCtx,
        received: &[Vec<u8>],
        sink: impl Fn(usize) -> S + Sync,
    ) {
        // Checked here, on the host thread: the pool threads below decode
        // without a way to report a peer's bytes.
        check_whole::<(NodeId, T)>(ctx, "reduce-sync", "(key, value) pairs", received);
        let n = self.own.num_nodes();
        let threads = self.bucket_cells.len();
        let (fast, local_pairs) = (self.fast, &self.local_pairs);
        ctx.pool().run(|tid| {
            let mut apply = sink(tid);
            // SAFETY: distinct tids per worker.
            let mine = unsafe { local_pairs.slot(tid) };
            for &(k, v) in mine.iter() {
                debug_assert_eq!(fast.shard(k, threads, n), tid);
                apply(k, v);
            }
            mine.clear();
            for buf in received {
                for (k, v) in iter_decoded::<(NodeId, T)>(buf) {
                    if fast.shard(k, threads, n) == tid {
                        apply(k, v);
                    }
                }
            }
        });
    }
}

/// Fixed-size array of per-thread slots, mutable through a shared
/// reference under a caller-enforced distinct-thread-id discipline.
pub(crate) struct ThreadOwned<V> {
    slots: Vec<UnsafeCell<V>>,
}

// SAFETY: a slot is only ever accessed by the pool thread whose id it is
// keyed by (callers uphold this; see `slot`), so sharing the container
// across threads is sound whenever the payload itself is `Send`.
unsafe impl<V: Send> Sync for ThreadOwned<V> {}

impl<V> ThreadOwned<V> {
    pub fn new(n: usize, mut make: impl FnMut() -> V) -> Self {
        ThreadOwned {
            slots: (0..n).map(|_| UnsafeCell::new(make())).collect(),
        }
    }

    /// Exclusive access to slot `tid` through a shared reference.
    ///
    /// # Safety
    ///
    /// During any parallel region, no two concurrent callers may pass the
    /// same `tid`, and the slot must not be accessed through `iter_mut`
    /// concurrently. `WorkerPool::run`/`par_for` hand each worker a unique
    /// dense thread id, which is exactly this contract.
    #[allow(clippy::mut_from_ref)] // aliasing discharged by the tid contract
    #[inline]
    pub unsafe fn slot(&self, tid: usize) -> &mut V {
        debug_assert!(tid < self.slots.len(), "thread id {tid} out of range");
        unsafe { &mut *self.slots[tid].get() }
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().map(|c| c.get_mut())
    }
}

impl<V> std::fmt::Debug for ThreadOwned<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadOwned").field("slots", &self.slots.len()).finish()
    }
}

/// Sentinel marking a vacant open-addressing cell. `NodeId::MAX` cannot be
/// a real key: reduce keys are bounded by `Ownership::num_nodes()`, which
/// is a `usize` node count below 2^32 in every supported graph.
const EMPTY: NodeId = NodeId::MAX;

/// First remote-table allocation, in slots (power of two).
const REMOTE_MIN_CAP: usize = 64;

/// One thread's lock-free partial-reduction buffer (dense local range +
/// open-addressed remote table). All methods are plain `&mut self`; the
/// thread-ownership discipline lives in [`ThreadOwned`].
pub(crate) struct PartialBuf<T> {
    /// The reduction identity: initial value of dense slots and filler for
    /// vacant remote cells.
    identity: T,
    /// Dense partials for keys in this host's master range, indexed by
    /// master offset.
    local_vals: Vec<T>,
    /// Which dense slots hold a live partial. A separate bit (rather than
    /// comparing against identity) because a reduction may legitimately
    /// produce the identity value.
    local_hit: Vec<bool>,
    /// Master offsets with `local_hit` set, in first-touch order.
    touched: Vec<u32>,
    /// Open-addressed remote table: keys (EMPTY = vacant) and values in
    /// parallel arrays, capacity always zero or a power of two.
    rkeys: Vec<NodeId>,
    rvals: Vec<T>,
    /// Live entries in the remote table.
    rlive: usize,
}

#[inline]
fn fx_slot(key: NodeId, mask: usize) -> usize {
    // Fibonacci multiplicative hash; the high half mixes best, so fold it
    // down before masking.
    let h = (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    ((h >> 32) as usize) & mask
}

impl<T: Copy> PartialBuf<T> {
    /// A buffer whose dense part covers `local_len` master offsets.
    pub fn new(local_len: usize, identity: T) -> Self {
        PartialBuf {
            identity,
            local_vals: vec![identity; local_len],
            local_hit: vec![false; local_len],
            touched: Vec::new(),
            rkeys: Vec::new(),
            rvals: Vec::new(),
            rlive: 0,
        }
    }

    /// Extends the dense part to cover `len` offsets (a host-local fixpoint
    /// keeps mirror partials there too, past the master range). Never
    /// shrinks.
    pub fn ensure_dense(&mut self, len: usize) {
        if self.local_vals.len() < len {
            self.local_vals.resize(len, self.identity);
            self.local_hit.resize(len, false);
        }
    }

    /// The dense partial at offset `off`: the identity when none has been
    /// recorded since the last drain.
    #[inline]
    pub fn local(&self, off: u32) -> T {
        self.local_vals[off as usize]
    }

    /// `true` if no partial has been recorded since the last drain.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty() && self.rlive == 0
    }

    /// Folds `value` into the dense slot for master offset `off`.
    #[inline]
    pub fn reduce_local(&mut self, off: u32, value: T, combine: impl Fn(T, T) -> T) {
        let o = off as usize;
        if self.local_hit[o] {
            self.local_vals[o] = combine(self.local_vals[o], value);
        } else {
            self.local_hit[o] = true;
            self.local_vals[o] = value;
            self.touched.push(off);
        }
    }

    /// Folds `value` into the open-addressed slot for remote `key`.
    #[inline]
    pub fn reduce_remote(&mut self, key: NodeId, value: T, combine: impl Fn(T, T) -> T) {
        debug_assert_ne!(key, EMPTY, "node id collides with the vacant sentinel");
        if self.rlive * 8 >= self.rkeys.len() * 7 {
            self.grow_remote();
        }
        let mask = self.rkeys.len() - 1;
        let mut i = fx_slot(key, mask);
        loop {
            let k = self.rkeys[i];
            if k == key {
                self.rvals[i] = combine(self.rvals[i], value);
                return;
            }
            if k == EMPTY {
                self.rkeys[i] = key;
                self.rvals[i] = value;
                self.rlive += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles (or first-allocates) the remote table and rehashes.
    #[cold]
    fn grow_remote(&mut self) {
        let new_cap = (self.rkeys.len() * 2).max(REMOTE_MIN_CAP);
        let old_keys = std::mem::replace(&mut self.rkeys, vec![EMPTY; new_cap]);
        let old_vals = std::mem::replace(&mut self.rvals, vec![self.identity; new_cap]);
        let mask = new_cap - 1;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k == EMPTY {
                continue;
            }
            let mut i = fx_slot(k, mask);
            while self.rkeys[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.rkeys[i] = k;
            self.rvals[i] = v;
        }
    }

    /// Drains every dense (local-range) partial as `(master_offset,
    /// value)`, resetting the dense part but keeping its allocation.
    pub fn drain_local(&mut self, mut sink: impl FnMut(u32, T)) {
        let identity = self.identity;
        for off in self.touched.drain(..) {
            let o = off as usize;
            sink(off, self.local_vals[o]);
            self.local_vals[o] = identity;
            self.local_hit[o] = false;
        }
    }

    /// Drains every remote partial as `(key, value)`, resetting the table
    /// but keeping its allocation (so next round's inserts pay no growth).
    pub fn drain_remote(&mut self, mut sink: impl FnMut(NodeId, T)) {
        if self.rlive == 0 {
            return;
        }
        let identity = self.identity;
        for (k, v) in self.rkeys.iter_mut().zip(self.rvals.iter_mut()) {
            if *k != EMPTY {
                sink(*k, *v);
                *k = EMPTY;
                *v = identity;
            }
        }
        self.rlive = 0;
    }

    /// Resets the buffer without observing its contents.
    pub fn clear(&mut self) {
        self.drain_local(|_, _| {});
        self.drain_remote(|_, _| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_partials_combine_and_drain() {
        let mut b: PartialBuf<u64> = PartialBuf::new(8, u64::MAX);
        let min = |a: u64, b: u64| a.min(b);
        b.reduce_local(3, 10, min);
        b.reduce_local(3, 4, min);
        b.reduce_local(0, u64::MAX, min); // identity value is still a hit
        assert!(!b.is_empty());
        let mut out = Vec::new();
        b.drain_local(|off, v| out.push((off, v)));
        out.sort_unstable();
        assert_eq!(out, vec![(0, u64::MAX), (3, 4)]);
        assert!(b.is_empty());
        // Slots reset for the next round.
        b.reduce_local(3, 9, min);
        let mut out = Vec::new();
        b.drain_local(|off, v| out.push((off, v)));
        assert_eq!(out, vec![(3, 9)]);
    }

    #[test]
    fn remote_table_grows_and_drains() {
        let mut b: PartialBuf<u64> = PartialBuf::new(0, 0);
        let sum = |a: u64, b: u64| a + b;
        // Enough distinct keys to force several growth steps.
        for round in 0..3u64 {
            for k in 0..500u32 {
                b.reduce_remote(k * 7 + 1, round + 1, sum);
            }
        }
        let mut out = Vec::new();
        b.drain_remote(|k, v| out.push((k, v)));
        assert_eq!(out.len(), 500);
        assert!(out.iter().all(|&(_, v)| v == 1 + 2 + 3));
        assert!(b.is_empty());
        // Draining kept capacity: re-inserting the same keys needs no growth.
        let cap = b.rkeys.len();
        for k in 0..500u32 {
            b.reduce_remote(k * 7 + 1, 1, sum);
        }
        assert_eq!(b.rkeys.len(), cap);
    }

    #[test]
    fn gather_shards_tile_each_hosts_block() {
        // 2 hosts x 4 threads, with blocks of very different widths (one
        // hub-heavy node range, one long tail): every thread must get a
        // non-empty contiguous slice of its host's masters. Splitting over
        // the global id space instead left threads 2-3 of host 0 and
        // threads 0-1 of host 1 without gather work.
        let weights: Vec<u64> = (0..100).map(|g| if g < 10 { 90 } else { 10 }).collect();
        let own = Ownership::blocked_by_weight(&weights, 2);
        assert!(own.num_masters(0) < own.num_masters(1) / 4);
        let threads = 4;
        for h in 0..2 {
            let fast = FastOwn::new(&own, h);
            let shards: Vec<usize> = own
                .masters(h)
                .map(|g| fast.shard(g, threads, own.num_nodes()))
                .collect();
            assert!(shards.windows(2).all(|w| w[0] <= w[1]), "host {h}: not ranges");
            for t in 0..threads {
                assert!(shards.contains(&t), "host {h}: thread {t} has no masters");
            }
            // Keys of the other host still land on a valid thread.
            for g in own.masters(1 - h) {
                assert!(fast.shard(g, threads, own.num_nodes()) < threads);
            }
        }
    }

    #[test]
    fn shard_offsets_are_each_threads_keys() {
        let weights: Vec<u64> = (0..100).map(|g| if g < 10 { 90 } else { 10 }).collect();
        for own in [
            Ownership::blocked_by_weight(&weights, 3),
            Ownership::hashed(100, 3),
            Ownership::hashed(7, 3),
        ] {
            for (h, threads) in [(0, 1), (1, 4), (2, 5)] {
                let fast = FastOwn::new(&own, h);
                let m = own.num_masters(h);
                let bounds = fast.shard_offsets(threads, own.num_nodes(), m);
                assert_eq!((bounds.len(), bounds[0], bounds[threads]), (threads + 1, 0, m));
                for t in 0..threads {
                    for off in bounds[t]..bounds[t + 1] {
                        let k = fast.key_at(off as u32);
                        assert_eq!(fast.shard(k, threads, own.num_nodes()), t, "{own:?} {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn thread_owned_slots_are_disjoint() {
        let owned: ThreadOwned<Vec<usize>> = ThreadOwned::new(4, Vec::new);
        std::thread::scope(|s| {
            for tid in 0..4 {
                let owned = &owned;
                s.spawn(move || {
                    // SAFETY: each spawned thread uses a distinct tid.
                    let v = unsafe { owned.slot(tid) };
                    for i in 0..100 {
                        v.push(tid * 1000 + i);
                    }
                });
            }
        });
        let mut owned = owned;
        for (tid, v) in owned.iter_mut().enumerate() {
            assert_eq!(v.len(), 100);
            assert!(v.iter().all(|&x| x / 1000 == tid));
        }
    }
}
