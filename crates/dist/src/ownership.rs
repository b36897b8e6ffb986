//! The node → owning-host map.

use kimbap_graph::NodeId;
use std::sync::Arc;

/// Maps every global node id to the host that owns its master proxy, and to
/// a dense per-host *master offset*.
///
/// Neither variant stores anything per node: blocked ownership is a
/// `hosts + 1` boundary table, hashed ownership is a modulus. That is what
/// lets the node-property map locate any master property with a
/// subtraction or a division (the locality half of the paper's GAR
/// optimization). Cloning is cheap: the boundary table is shared behind an
/// `Arc`.
///
/// # Example
///
/// ```
/// use kimbap_dist::Ownership;
///
/// let own = Ownership::blocked(10, 3); // hosts own [0,4) [4,8) [8,10)
/// assert_eq!(own.owner(5), 1);
/// assert_eq!(own.master_offset(5), 1);
/// assert_eq!(own.num_masters(2), 2);
/// assert_eq!(own.master_at(1, 1), 5);
///
/// // Blocks cut by weight instead of by count: node 0 outweighs the rest.
/// let own = Ownership::blocked_by_weight(&[6, 1, 1, 1, 1, 1, 1], 2);
/// assert_eq!(own.num_masters(0), 1);
/// assert_eq!(own.owner(1), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ownership {
    /// Contiguous blocks: host `h` owns `bounds[h] .. bounds[h + 1]`.
    Blocked {
        /// `hosts + 1` ascending boundaries, from `0` to the node count.
        /// Equal neighbors mean an empty host.
        bounds: Arc<[NodeId]>,
    },
    /// Node `g` is owned by host `g % hosts` (the distribution used by the
    /// memcached and SGR-only runtime variants, which hash keys instead of
    /// exploiting the partition).
    Hashed {
        /// Total node count.
        n: usize,
        /// Number of hosts.
        hosts: usize,
    },
}

impl Ownership {
    /// Blocked ownership over `n` nodes and `hosts` hosts, `ceil(n / hosts)`
    /// nodes per block.
    ///
    /// # Panics
    ///
    /// Panics if `hosts == 0` or `n` does not fit a [`NodeId`].
    pub fn blocked(n: usize, hosts: usize) -> Self {
        assert!(hosts > 0, "need at least one host");
        let block = n.div_ceil(hosts);
        Self::from_bounds((0..=hosts).map(|h| (h * block).min(n)))
    }

    /// Blocked ownership over `weights.len()` nodes whose blocks carry
    /// equal shares of the total weight: block `h` starts at the first
    /// node where the weight before it reaches `h / hosts` of the total.
    /// No block exceeds its share by more than one node's weight; a host
    /// is left empty when a single node spans its whole share (or when
    /// there are fewer nodes than hosts).
    ///
    /// # Panics
    ///
    /// Panics if `hosts == 0` or `weights.len()` does not fit a [`NodeId`].
    pub fn blocked_by_weight(weights: &[u64], hosts: usize) -> Self {
        assert!(hosts > 0, "need at least one host");
        let total: u128 = weights.iter().map(|&w| w as u128).sum();
        let mut bounds = vec![0];
        let (mut k, mut before) = (0, 0u128);
        for h in 1..hosts {
            while k < weights.len() && before * (hosts as u128) < total * h as u128 {
                before += weights[k] as u128;
                k += 1;
            }
            bounds.push(k);
        }
        bounds.push(weights.len());
        Self::from_bounds(bounds.into_iter())
    }

    fn from_bounds(bounds: impl Iterator<Item = usize>) -> Self {
        let bounds = bounds
            .map(|b| NodeId::try_from(b).expect("node count exceeds the NodeId range"))
            .collect();
        Ownership::Blocked { bounds }
    }

    /// Modulo-hashed ownership over `n` nodes and `hosts` hosts.
    ///
    /// # Panics
    ///
    /// Panics if `hosts == 0`.
    pub fn hashed(n: usize, hosts: usize) -> Self {
        assert!(hosts > 0, "need at least one host");
        Ownership::Hashed { n, hosts }
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        match self {
            Ownership::Blocked { bounds } => bounds[bounds.len() - 1] as usize,
            Ownership::Hashed { n, .. } => *n,
        }
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        match self {
            Ownership::Blocked { bounds } => bounds.len() - 1,
            Ownership::Hashed { hosts, .. } => *hosts,
        }
    }

    /// Host owning node `g`: a search of at most `hosts` boundaries under
    /// blocked ownership, one modulus under hashed.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn owner(&self, g: NodeId) -> usize {
        assert!((g as usize) < self.num_nodes(), "node {g} out of range");
        match self {
            // The last block starting at or before `g`; empty blocks
            // sharing that start sort before it.
            Ownership::Blocked { bounds } => bounds[1..].partition_point(|&b| b <= g),
            Ownership::Hashed { hosts, .. } => g as usize % hosts,
        }
    }

    /// Dense index of `g` among its owner's masters (masters are ordered by
    /// global id on every host).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn master_offset(&self, g: NodeId) -> usize {
        match self {
            Ownership::Blocked { bounds } => (g - bounds[self.owner(g)]) as usize,
            Ownership::Hashed { n, hosts } => {
                assert!((g as usize) < *n, "node {g} out of range");
                g as usize / hosts
            }
        }
    }

    /// Number of masters host `h` owns.
    ///
    /// # Panics
    ///
    /// Panics if `h >= num_hosts()`.
    pub fn num_masters(&self, h: usize) -> usize {
        assert!(h < self.num_hosts(), "host {h} out of range");
        match self {
            Ownership::Blocked { bounds } => (bounds[h + 1] - bounds[h]) as usize,
            Ownership::Hashed { n, hosts } => {
                if h < n % hosts {
                    n / hosts + 1
                } else {
                    n / hosts
                }
            }
        }
    }

    /// Global id of host `h`'s `i`-th master (inverse of
    /// [`Ownership::master_offset`]).
    ///
    /// # Panics
    ///
    /// Panics if `h` or `i` is out of range.
    pub fn master_at(&self, h: usize, i: usize) -> NodeId {
        assert!(i < self.num_masters(h), "master index {i} out of range");
        match self {
            Ownership::Blocked { bounds } => bounds[h] + i as NodeId,
            Ownership::Hashed { hosts, .. } => (i * hosts + h) as NodeId,
        }
    }

    /// Iterates the global ids of host `h`'s masters in ascending order.
    pub fn masters(&self, h: usize) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_masters(h)).map(move |i| self.master_at(h, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_consistency(own: &Ownership) {
        let n = own.num_nodes();
        let hosts = own.num_hosts();
        // Every node is owned by exactly one host, offsets are dense.
        let mut total = 0;
        for h in 0..hosts {
            let masters: Vec<_> = own.masters(h).collect();
            assert_eq!(masters.len(), own.num_masters(h));
            assert!(masters.windows(2).all(|w| w[0] < w[1]), "sorted");
            for (i, &g) in masters.iter().enumerate() {
                assert_eq!(own.owner(g), h);
                assert_eq!(own.master_offset(g), i);
                assert_eq!(own.master_at(h, i), g);
            }
            total += masters.len();
        }
        assert_eq!(total, n);
    }

    /// Blocked ownership on top: every block is one contiguous id range
    /// and the blocks tile `0..n` in host order.
    fn check_contiguous(own: &Ownership) {
        let mut next = 0;
        for h in 0..own.num_hosts() {
            for g in own.masters(h) {
                assert_eq!(g, next, "host {h} breaks the tiling");
                next += 1;
            }
        }
        assert_eq!(next as usize, own.num_nodes());
    }

    #[test]
    fn blocked_consistent() {
        for (n, h) in [(10, 3), (10, 1), (1, 4), (16, 4), (7, 8), (0, 2)] {
            let own = Ownership::blocked(n, h);
            check_consistency(&own);
            check_contiguous(&own);
        }
    }

    proptest::proptest! {
        #[test]
        fn weighted_blocks_are_consistent_and_balanced(
            weights in proptest::collection::vec(0u64..1000, 0..200),
            hosts in 1usize..=8,
        ) {
            let own = Ownership::blocked_by_weight(&weights, hosts);
            proptest::prop_assert_eq!(own.num_hosts(), hosts);
            proptest::prop_assert_eq!(own.num_nodes(), weights.len());
            check_consistency(&own);
            check_contiguous(&own);
            let total: u64 = weights.iter().sum();
            let heaviest = weights.iter().copied().max().unwrap_or(0);
            for h in 0..hosts {
                let block: u64 = own.masters(h).map(|g| weights[g as usize]).sum();
                proptest::prop_assert!(
                    block <= total / hosts as u64 + heaviest,
                    "host {} carries {} of {} over {} hosts (heaviest node {})",
                    h, block, total, hosts, heaviest
                );
            }
        }
    }

    #[test]
    fn weighted_blocks_leave_hosts_empty_rather_than_split_a_node() {
        // Fewer nodes than hosts.
        let own = Ownership::blocked_by_weight(&[5, 5], 4);
        check_consistency(&own);
        let sizes: Vec<_> = (0..4).map(|h| own.num_masters(h)).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 2);
        assert_eq!(sizes.iter().filter(|&&m| m == 0).count(), 2);
        // One node outweighs a whole share: the host after it is empty,
        // and `owner` skips the empty block.
        let own = Ownership::blocked_by_weight(&[100, 1, 1], 3);
        check_consistency(&own);
        assert_eq!(
            (0..3).map(|h| own.num_masters(h)).collect::<Vec<_>>(),
            vec![1, 0, 2]
        );
        assert_eq!(own.owner(1), 2);
    }

    #[test]
    fn uniform_weights_on_two_hosts_cut_where_blocked_does() {
        for n in [0, 1, 2, 9, 10, 14_400] {
            assert_eq!(
                Ownership::blocked_by_weight(&vec![12; n], 2),
                Ownership::blocked(n, 2),
                "n = {n}"
            );
        }
    }

    #[test]
    fn hashed_consistent() {
        for (n, h) in [(10, 3), (10, 1), (1, 4), (16, 4), (7, 8), (0, 2)] {
            check_consistency(&Ownership::hashed(n, h));
        }
    }

    #[test]
    fn blocked_is_contiguous() {
        let own = Ownership::blocked(10, 3);
        assert_eq!(own.masters(0).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(own.masters(2).collect::<Vec<_>>(), vec![8, 9]);
    }

    #[test]
    fn hashed_strides() {
        let own = Ownership::hashed(10, 3);
        assert_eq!(own.masters(1).collect::<Vec<_>>(), vec![1, 4, 7]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_out_of_range() {
        Ownership::blocked(5, 2).owner(5);
    }
}
