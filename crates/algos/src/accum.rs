//! The community-detection scratch maps: a neighbour community's slot ->
//! summed edge weight, rebuilt once per node (or per coarse node) inside
//! the edge loops of Louvain and Leiden.
//!
//! Louvain's move decision, Leiden's merge decision and their aggregation
//! key their sums by *slot* ([`SlotWeights`]): each round (or level) gives
//! every community a local position — the local id of its proxy on this
//! host, or an overflow slot past `num_local_nodes` for the few without
//! one ([`number_overflow`]) — so a sum is one indexed add into a `u32`
//! position array, with no hashing or probing. The slots are proxy ids,
//! not community ids, so a thread's scratch is sized by its host's share
//! of the graph, never by the global node count. Candidates come back in
//! first-touch order: the order the edge lists first name them.
//!
//! The Vite baseline keeps its own hashed accumulator
//! (`kimbap_baselines::neighbor_weights`).

use parking_lot::Mutex;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the multiplicative hash (2^64 / golden ratio).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Position of a slot no candidate holds in [`SlotWeights`].
const UNTOUCHED: u32 = u32::MAX;

/// Slot of a key with no proxy on this host until [`number_overflow`]
/// numbers it.
pub const NO_PROXY: u32 = u32::MAX;

/// `slot -> (key, Σ weight, carried value)` over a dense range of slots
/// the caller assigns, one per distinct key.
///
/// A `u32` position array maps each slot to its candidate in a list kept
/// in first-touch order; adding is one indexed read and one add, and
/// clearing walks the list. The value carried with a key (Louvain's
/// community total) is the one given at its first touch.
///
/// # Example
///
/// ```
/// use kimbap_algos::accum::SlotWeights;
///
/// let mut acc = SlotWeights::new();
/// acc.reset(8);
/// // Community 70 has slot 2, community 30 slot 5.
/// for (slot, community, w) in [(2, 70, 2), (5, 30, 1), (2, 70, 5)] {
///     acc.add(slot, community, w, 'x');
/// }
/// assert_eq!(acc.get(2), 7);
/// assert_eq!(acc.get(4), 0);
/// // Candidates come back in the order they were first met.
/// assert_eq!(acc.iter().collect::<Vec<_>>(), [(70, 7, 'x'), (30, 1, 'x')]);
/// acc.clear();
/// assert!(acc.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SlotWeights<V> {
    /// Per slot: index into `held` of its candidate, or `UNTOUCHED`.
    pos: Vec<u32>,
    /// `(slot, key, Σ weight, carried)` in first-touch order.
    held: Vec<(u32, u64, u64, V)>,
}

impl<V: Copy> Default for SlotWeights<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy> SlotWeights<V> {
    /// An empty accumulator over no slots; [`SlotWeights::reset`] sizes it.
    pub fn new() -> Self {
        SlotWeights {
            pos: Vec::new(),
            held: Vec::new(),
        }
    }

    /// Forgets every candidate and covers slots `0..slots`: once per round,
    /// when the caller numbers its slots.
    pub fn reset(&mut self, slots: usize) {
        assert!(slots < UNTOUCHED as usize, "more slots than u32 positions");
        self.clear();
        self.pos.resize(slots, UNTOUCHED);
    }

    /// Number of distinct slots held.
    pub fn len(&self) -> usize {
        self.held.len()
    }

    /// `true` if no slot is held.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Forgets every candidate; the slots stay covered.
    pub fn clear(&mut self) {
        for &(slot, ..) in &self.held {
            self.pos[slot as usize] = UNTOUCHED;
        }
        self.held.clear();
    }

    /// Adds `weight` to `slot`'s sum (a zero weight still records it);
    /// `key` and `carried` are stored on the slot's first touch.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below the count of the last
    /// [`SlotWeights::reset`].
    #[inline]
    pub fn add(&mut self, slot: u32, key: u64, weight: u64, carried: V) {
        let p = &mut self.pos[slot as usize];
        if *p == UNTOUCHED {
            *p = self.held.len() as u32;
            self.held.push((slot, key, weight, carried));
        } else {
            let held = &mut self.held[*p as usize];
            debug_assert_eq!(held.1, key, "slot {slot} holds two keys");
            held.2 += weight;
        }
    }

    /// `slot`'s sum; zero if it was never added.
    #[inline]
    pub fn get(&self, slot: u32) -> u64 {
        match self.pos[slot as usize] {
            UNTOUCHED => 0,
            p => self.held[p as usize].2,
        }
    }

    /// `(key, sum, carried)` in first-touch order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, u64, V)> + '_ {
        self.held.iter().map(|&(_, key, w, v)| (key, w, v))
    }
}

/// Gives every key whose slot is [`NO_PROXY`] an overflow slot past
/// `num_local`, one per distinct key, numbered in the order `entries`
/// first names them; returns the number of slots now in use. The other
/// slots are left as they are.
pub fn number_overflow<'a>(
    num_local: usize,
    entries: impl Iterator<Item = (u64, &'a mut u32)>,
) -> usize {
    let mut overflow: MulHashMap<u64, u32> = MulHashMap::default();
    for (key, slot) in entries {
        if *slot == NO_PROXY {
            let next = (num_local + overflow.len()) as u32;
            *slot = *overflow.entry(key).or_insert(next);
        }
    }
    num_local + overflow.len()
}

/// One pool thread's scratch for a per-master decision loop (Louvain's
/// moves, Leiden's merges, the Vite baseline's moves). Allocated once per
/// level, one per thread, so a round allocates nothing; a `par_for` chunk
/// takes its own thread's uncontended lock once.
#[derive(Debug, Default)]
pub struct DecisionScratch<A> {
    /// Neighbor community -> edge weight of the node being decided.
    pub w_to: A,
    /// `(master offset, community joined)` decided this round; drained
    /// when the round applies them.
    pub decided: Vec<(usize, u64)>,
}

impl<A: Default> DecisionScratch<A> {
    /// One scratch per pool thread, indexed by `tid`.
    pub fn per_thread(threads: usize) -> Vec<Mutex<Self>> {
        (0..threads).map(|_| Mutex::default()).collect()
    }
}

/// A multiplicative hash as a `std` hasher, for keyed-by-node-id maps
/// (overflow slot numbering, the Vite baseline's shared maps). Keys come
/// from the program, never from outside it, so losing SipHash's flooding
/// resistance costs nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct MulHasher(u64);

impl Hasher for MulHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(MUL);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`MulHasher`]: deterministic iteration order and
/// no SipHash round per probe.
pub type MulHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<MulHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn slot_held(acc: &SlotWeights<i64>) -> Vec<(u64, u64, i64)> {
        acc.iter().collect()
    }

    #[test]
    fn slot_sums_in_first_touch_order_and_keep_the_first_carried_value() {
        let mut acc = SlotWeights::new();
        acc.reset(10);
        // (slot, key, weight, carried): slot 4 is community 90, 1 is 20, 7 is 55.
        for (slot, key, w, tot) in [
            (4, 90, 1, -3),
            (1, 20, 10, 8),
            (4, 90, 100, -3),
            (7, 55, 0, 2),
        ] {
            acc.add(slot, key, w, tot);
        }
        acc.add(1, 20, 1000, 8);
        assert_eq!(slot_held(&acc), [(90, 101, -3), (20, 1010, 8), (55, 0, 2)]);
        assert_eq!(acc.len(), 3);
        assert_eq!(
            (acc.get(4), acc.get(1), acc.get(7), acc.get(0)),
            (101, 1010, 0, 0)
        );
    }

    #[test]
    fn slot_clear_leaves_no_stale_weight_or_position() {
        let mut acc = SlotWeights::new();
        acc.reset(64);
        for node in 0..200u32 {
            acc.clear();
            assert!(acc.is_empty());
            assert!(
                acc.pos.iter().all(|&p| p == UNTOUCHED),
                "node {node}: a position survived clear"
            );
            // Overlapping slot windows: every slot of the previous node but
            // one is met again and must restart from zero, at the position
            // of its new first touch.
            let window: Vec<u32> = (0..6).map(|i| (node + i) % 64).collect();
            for &s in &window {
                assert_eq!(acc.get(s), 0, "node {node}: slot {s} kept a weight");
                acc.add(s, s as u64 * 3, node as u64 + 1, -(s as i64));
                acc.add(s, s as u64 * 3, 1, 0);
            }
            let want: Vec<_> = window
                .iter()
                .map(|&s| (s as u64 * 3, node as u64 + 2, -(s as i64)))
                .collect();
            assert_eq!(slot_held(&acc), want);
        }
    }

    #[test]
    fn reset_follows_slot_counts_that_shrink_and_grow() {
        // One scratch serves every level: level 0 has many slots, coarse
        // levels fewer, and overflow changes the count round to round.
        let mut acc = SlotWeights::new();
        acc.reset(1000);
        acc.add(999, 7, 5, 1);
        acc.add(3, 8, 2, 1);
        // A coarser level, reset while the last node's candidates are held.
        acc.reset(10);
        assert_eq!((acc.pos.len(), acc.len()), (10, 0));
        assert_eq!(acc.get(3), 0);
        acc.add(9, 70, 4, 2);
        assert_eq!(slot_held(&acc), [(70, 4, 2)]);
        // A round with more overflow slots than the last one.
        acc.reset(12);
        assert!(acc.pos.iter().all(|&p| p == UNTOUCHED));
        acc.add(11, 71, 1, 3);
        acc.add(9, 72, 1, 3);
        assert_eq!(slot_held(&acc), [(71, 1, 3), (72, 1, 3)]);
        assert_eq!(acc.get(11), 1);
    }

    #[test]
    #[should_panic]
    fn a_slot_past_the_reset_count_is_refused() {
        let mut acc = SlotWeights::new();
        acc.reset(4);
        acc.add(4, 1, 1, ());
    }

    #[test]
    fn overflow_slots_number_keys_without_a_proxy() {
        // Five local proxies; keys 900 and 901 have no proxy here.
        let num_local = 5;
        let mut table: Vec<(u64, u32)> = vec![
            (10, 0),
            (900, NO_PROXY),
            (12, 2),
            (901, NO_PROXY),
            (900, NO_PROXY),
            (10, 0),
        ];
        let slots = number_overflow(num_local, table.iter_mut().map(|(k, s)| (*k, s)));
        assert_eq!(slots, 7);
        let got: Vec<u32> = table.iter().map(|&(_, s)| s).collect();
        // Proxy slots untouched; overflow numbered from `num_local` in
        // first-seen order, one slot per distinct key.
        assert_eq!(got, [0, 5, 2, 6, 5, 0]);
        // An accumulator over those slots sums each key once.
        let mut acc = SlotWeights::new();
        acc.reset(slots);
        for (w, &(key, slot)) in table.iter().enumerate() {
            acc.add(slot, key, w as u64 + 1, ());
        }
        let held: Vec<(u64, u64)> = acc.iter().map(|(k, w, ())| (k, w)).collect();
        assert_eq!(held, [(10, 7), (900, 7), (12, 3), (901, 4)]);
        // No key without a proxy: no overflow slot.
        let mut local: Vec<(u64, u32)> = vec![(1, 1), (3, 0)];
        assert_eq!(
            number_overflow(2, local.iter_mut().map(|(k, s)| (*k, s))),
            2
        );
    }

    #[test]
    fn mul_hash_map_iterates_deterministically() {
        let build = || {
            let mut m: MulHashMap<(u32, u32), u64> = MulHashMap::default();
            for i in 0..500u32 {
                *m.entry((i % 37, i % 11)).or_default() += i as u64;
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
