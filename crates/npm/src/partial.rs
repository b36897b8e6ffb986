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

use kimbap_graph::NodeId;
use std::cell::UnsafeCell;

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
