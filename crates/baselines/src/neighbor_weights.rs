//! The Vite baseline's neighbour-community accumulator: community ->
//! summed edge weight, rebuilt once per node inside its move decisions.
//!
//! [`NeighborWeights`] is open-addressed with a multiplicative hash, keeps
//! the slots it touched in a list — so clearing costs O(distinct keys),
//! not O(capacity), and iteration is in *first-touch order*, the order the
//! node's edge list first names the keys, the same on every run — and
//! grows to at most four times the largest number of distinct keys it has
//! held. Kimbap's own Louvain and Leiden sum by proxy slot instead
//! (`kimbap_algos::accum::SlotWeights`).

/// Odd multiplier of the multiplicative hash (2^64 / golden ratio).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Key of a free slot. Keys are community ids (node ids), which never
/// reach it.
const FREE: u64 = u64::MAX;

/// Slots of a new accumulator; most nodes never outgrow it.
const MIN_SLOTS: usize = 16;

/// `key -> Σ weight` for `u64` keys other than `u64::MAX`.
///
/// # Example
///
/// ```
/// use kimbap_baselines::neighbor_weights::NeighborWeights;
///
/// let mut acc = NeighborWeights::new();
/// for (community, w) in [(7, 2), (3, 1), (7, 5)] {
///     acc.add(community, w);
/// }
/// assert_eq!(acc.get(7), 7);
/// assert_eq!(acc.get(4), 0);
/// // Candidates come back in the order they were first met.
/// assert_eq!(acc.iter().collect::<Vec<_>>(), [(7, 7), (3, 1)]);
/// acc.clear();
/// assert!(acc.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct NeighborWeights {
    /// `(key, weight)`; a power-of-two number of slots, at most half full.
    slots: Vec<(u64, u64)>,
    /// Occupied slots, in the order their keys first arrived.
    touched: Vec<u32>,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl Default for NeighborWeights {
    fn default() -> Self {
        Self::new()
    }
}

impl NeighborWeights {
    /// An empty accumulator.
    pub fn new() -> Self {
        NeighborWeights {
            slots: vec![(FREE, 0); MIN_SLOTS],
            touched: Vec::new(),
            shift: 64 - MIN_SLOTS.trailing_zeros(),
        }
    }

    /// Number of distinct keys held.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// `true` if no key is held.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Number of slots (at least twice the largest `len()` so far).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Forgets every key; the slots stay allocated.
    pub fn clear(&mut self) {
        for &s in &self.touched {
            self.slots[s as usize].0 = FREE;
        }
        self.touched.clear();
    }

    /// The slot holding `key`, or the free slot where it belongs.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(MUL) >> self.shift) as usize;
        loop {
            let k = self.slots[i].0;
            if k == key || k == FREE {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds `weight` to `key`'s sum (a zero weight still records the key).
    #[inline]
    pub fn add(&mut self, key: u64, weight: u64) {
        debug_assert_ne!(key, FREE, "u64::MAX is not a key");
        let mut i = self.probe(key);
        if self.slots[i].0 == key {
            self.slots[i].1 += weight;
            return;
        }
        if (self.touched.len() + 1) * 2 > self.slots.len() {
            self.grow();
            i = self.probe(key);
        }
        self.slots[i] = (key, weight);
        self.touched.push(i as u32);
    }

    /// `key`'s sum; zero if it was never added.
    #[inline]
    pub fn get(&self, key: u64) -> u64 {
        let (k, w) = self.slots[self.probe(key)];
        if k == key {
            w
        } else {
            0
        }
    }

    /// `(key, sum)` in first-touch order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
        self.touched.iter().map(|&s| self.slots[s as usize])
    }

    /// Doubles the slots and re-inserts the keys in first-touch order.
    #[cold]
    fn grow(&mut self) {
        let held: Vec<(u64, u64)> = self.iter().collect();
        let n = self.slots.len() * 2;
        assert!(n <= 1 << 31, "accumulator outgrew u32 slot ids");
        self.slots.clear();
        self.slots.resize(n, (FREE, 0));
        self.shift -= 1;
        self.touched.clear();
        for (key, weight) in held {
            let i = self.probe(key);
            self.slots[i] = (key, weight);
            self.touched.push(i as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn held(acc: &NeighborWeights) -> Vec<(u64, u64)> {
        acc.iter().collect()
    }

    #[test]
    fn sums_per_key_in_first_touch_order() {
        let mut acc = NeighborWeights::new();
        for (k, w) in [(9, 1), (2, 10), (9, 100), (5, 0), (2, 1000)] {
            acc.add(k, w);
        }
        assert_eq!(held(&acc), [(9, 101), (2, 1010), (5, 0)]);
        assert_eq!(acc.len(), 3);
        assert_eq!(
            (acc.get(9), acc.get(2), acc.get(5), acc.get(6)),
            (101, 1010, 0, 0)
        );
    }

    #[test]
    fn reuse_across_nodes_leaves_no_stale_weight() {
        let mut acc = NeighborWeights::new();
        for node in 0..200u64 {
            acc.clear();
            assert!(acc.is_empty());
            // Overlapping key windows: every key of the previous node but
            // one is met again and must restart from zero.
            for k in node..node + 6 {
                assert_eq!(acc.get(k), 0, "node {node}: key {k} kept a weight");
                acc.add(k, node + 1);
                acc.add(k, 1);
            }
            let want: Vec<_> = (node..node + 6).map(|k| (k, node + 2)).collect();
            assert_eq!(held(&acc), want);
        }
        assert_eq!(acc.capacity(), MIN_SLOTS, "six keys fit the first table");
    }

    #[test]
    fn grows_mid_node_and_keeps_sums_and_order() {
        let mut acc = NeighborWeights::new();
        acc.add(3, 1);
        acc.clear();
        // A hub: far more distinct keys than the initial capacity, each
        // met twice, with growth happening between the two visits.
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 7919 % 4001).collect();
        for &k in &keys {
            acc.add(k, 1);
        }
        for &k in keys.iter().rev() {
            acc.add(k, 2);
        }
        assert_eq!(held(&acc), keys.iter().map(|&k| (k, 3)).collect::<Vec<_>>());
        assert!(acc.capacity() >= 2 * keys.len());
        assert!(
            acc.capacity() <= 4 * keys.len(),
            "capacity follows the degree"
        );
        // The next, small node reuses the grown table and sees none of it.
        let grown = acc.capacity();
        acc.clear();
        assert!(keys.iter().all(|&k| acc.get(k) == 0));
        acc.add(keys[0], 5);
        assert_eq!(held(&acc), [(keys[0], 5)]);
        assert_eq!(acc.capacity(), grown);
    }

    #[test]
    fn colliding_keys_stay_apart() {
        // Eight keys with one home slot in the 16-slot table: each must
        // chain past the others and keep its own sum.
        let mut acc = NeighborWeights::new();
        let home = |k: u64| k.wrapping_mul(MUL) >> (64 - MIN_SLOTS.trailing_zeros());
        let keys: Vec<u64> = (0..u64::MAX)
            .filter(|&k| home(k) == home(0))
            .take(8)
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            acc.add(k, i as u64 + 1);
        }
        assert_eq!(
            acc.capacity(),
            MIN_SLOTS,
            "eight keys must not grow the table"
        );
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(acc.get(k), i as u64 + 1);
            acc.add(k, 10);
        }
        let want: Vec<_> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64 + 11))
            .collect();
        assert_eq!(held(&acc), want);
        // A key that shares the home but was never added reads zero.
        let absent = (keys[7] + 1..u64::MAX)
            .find(|&k| home(k) == home(0))
            .unwrap();
        assert_eq!(acc.get(absent), 0);
    }

    #[test]
    fn key_zero_and_large_ids() {
        let mut acc = NeighborWeights::new();
        let keys = [0, u32::MAX as u64, (u32::MAX as u64) << 32, u64::MAX - 1, 1];
        for &k in &keys {
            assert_eq!(acc.get(k), 0);
            acc.add(k, k % 1000 + 1);
        }
        assert_eq!(held(&acc), keys.map(|k| (k, k % 1000 + 1)));
        acc.clear();
        assert_eq!(acc.get(0), 0);
        acc.add(0, 4);
        assert_eq!(held(&acc), [(0, 4)]);
    }

    #[test]
    fn first_touch_order_is_the_same_on_every_run() {
        let run = || {
            let mut acc = NeighborWeights::new();
            let mut x = 12345u64;
            for _ in 0..5000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                acc.add(x >> 54, 1);
            }
            held(&acc)
        };
        let first = run();
        assert_eq!(first, run());
        // ... and is the arrival order, whatever the table size was.
        let mut seen = std::collections::HashSet::new();
        let mut x = 12345u64;
        let mut order = Vec::new();
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if seen.insert(x >> 54) {
                order.push(x >> 54);
            }
        }
        assert_eq!(first.iter().map(|&(k, _)| k).collect::<Vec<_>>(), order);
    }
}
