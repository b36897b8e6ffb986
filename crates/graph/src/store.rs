//! [`GraphStore`]: one CSR, two storage tiers.
//!
//! Both [`crate::Graph`] and the distributed per-host local CSR hold their
//! adjacency through this enum, so every algorithm runs unchanged on
//! either tier: `Raw` keeps the classic offset/target/weight arrays and
//! hands out borrowed slices; `Compressed` wraps a
//! [`CompressedGraph`] and decodes neighbor lists into per-thread
//! reusable scratch buffers (or streams them edge-by-edge through
//! [`GraphStore::edges`], which allocates nothing).

use crate::compressed::{CompressedEdges, CompressedGraph, CompressedTargets};
use crate::csr::{NodeId, Weight};
use std::cell::RefCell;
use std::ops::Deref;

/// Storage backing one CSR adjacency structure.
#[derive(Clone, PartialEq, Eq)]
pub enum GraphStore {
    /// Uncompressed arrays: `offsets[u]..offsets[u+1]` indexes `targets`
    /// and `weights`.
    Raw {
        /// Edge range starts, length `num_nodes + 1`.
        offsets: Vec<u64>,
        /// Edge destinations, grouped by source.
        targets: Vec<NodeId>,
        /// One weight per edge, parallel to `targets`.
        weights: Vec<Weight>,
    },
    /// Bit-packed delta blocks with a per-node offset index.
    Compressed(CompressedGraph),
}

/// Per-component heap accounting of a [`GraphStore`] (plus the container
/// struct itself), so compression ratios are honest: for the compressed
/// tier, `offsets` is the block index and `targets`/`weights` split the
/// block bytes between topology and the weight runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SizeBreakdown {
    /// Offsets array (raw) or block index (compressed).
    pub offsets: usize,
    /// Targets array (raw) or topology bytes: degrees, first targets and
    /// gap runs (compressed).
    pub targets: usize,
    /// Weights array (raw) or weight-run bytes (compressed; 0 on the
    /// unit-weight fast path).
    pub weights: usize,
    /// Fixed in-struct overhead of the container itself.
    pub struct_bytes: usize,
}

impl SizeBreakdown {
    /// Sum of every component.
    pub fn total(&self) -> usize {
        self.offsets + self.targets + self.weights + self.struct_bytes
    }
}

// Per-thread scratch pools the decode guards borrow from, so hot loops
// calling `neighbors`/`edge_weights` on a compressed store reuse a
// handful of buffers instead of allocating per call.
thread_local! {
    static TARGET_SCRATCH: RefCell<Vec<Vec<NodeId>>> = const { RefCell::new(Vec::new()) };
    static WEIGHT_SCRATCH: RefCell<Vec<Vec<Weight>>> = const { RefCell::new(Vec::new()) };
}

fn take_target_buf() -> Vec<NodeId> {
    TARGET_SCRATCH.with(|p| p.borrow_mut().pop().unwrap_or_default())
}

fn take_weight_buf() -> Vec<Weight> {
    WEIGHT_SCRATCH.with(|p| p.borrow_mut().pop().unwrap_or_default())
}

/// A node's neighbor list: either a borrowed raw slice or a scratch
/// buffer holding the decoded block. Derefs to `[NodeId]`.
pub struct NeighborsRef<'a>(NbRepr<'a>);

enum NbRepr<'a> {
    Slice(&'a [NodeId]),
    Scratch(Vec<NodeId>),
}

impl Deref for NeighborsRef<'_> {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        match &self.0 {
            NbRepr::Slice(s) => s,
            NbRepr::Scratch(v) => v,
        }
    }
}

impl Drop for NeighborsRef<'_> {
    fn drop(&mut self) {
        if let NbRepr::Scratch(v) = &mut self.0 {
            let v = std::mem::take(v);
            TARGET_SCRATCH.with(|p| p.borrow_mut().push(v));
        }
    }
}

impl std::fmt::Debug for NeighborsRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl PartialEq<&[NodeId]> for NeighborsRef<'_> {
    fn eq(&self, other: &&[NodeId]) -> bool {
        &**self == *other
    }
}

impl<const N: usize> PartialEq<&[NodeId; N]> for NeighborsRef<'_> {
    fn eq(&self, other: &&[NodeId; N]) -> bool {
        **self == other[..]
    }
}

/// A node's weight list: a borrowed slice, a decoded scratch buffer, or
/// materialized `1`s on the unit-weight fast path. Derefs to `[Weight]`.
pub struct WeightsRef<'a>(WtRepr<'a>);

enum WtRepr<'a> {
    Slice(&'a [Weight]),
    Scratch(Vec<Weight>),
}

impl Deref for WeightsRef<'_> {
    type Target = [Weight];

    fn deref(&self) -> &[Weight] {
        match &self.0 {
            WtRepr::Slice(s) => s,
            WtRepr::Scratch(v) => v,
        }
    }
}

impl Drop for WeightsRef<'_> {
    fn drop(&mut self) {
        if let WtRepr::Scratch(v) = &mut self.0 {
            let v = std::mem::take(v);
            WEIGHT_SCRATCH.with(|p| p.borrow_mut().push(v));
        }
    }
}

impl std::fmt::Debug for WeightsRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl PartialEq<&[Weight]> for WeightsRef<'_> {
    fn eq(&self, other: &&[Weight]) -> bool {
        &**self == *other
    }
}

impl<const N: usize> PartialEq<&[Weight; N]> for WeightsRef<'_> {
    fn eq(&self, other: &&[Weight; N]) -> bool {
        **self == other[..]
    }
}

/// Iterator over one node's `(target, weight)` pairs; allocation-free on
/// both tiers.
pub enum EdgeIter<'a> {
    /// Zips the raw target/weight slices.
    Raw {
        /// The node's targets.
        targets: &'a [NodeId],
        /// The node's weights, parallel to `targets`.
        weights: &'a [Weight],
        /// Next edge index.
        i: usize,
    },
    /// Streams bit-packed gap and weight decodes.
    Compressed(CompressedEdges<'a>),
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, Weight);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, Weight)> {
        match self {
            EdgeIter::Raw { targets, weights, i } => {
                let out = targets.get(*i).map(|&t| (t, weights[*i]));
                *i += 1;
                out
            }
            EdgeIter::Compressed(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            EdgeIter::Raw { targets, i, .. } => targets.len().saturating_sub(*i),
            EdgeIter::Compressed(it) => it.len(),
        };
        (n, Some(n))
    }

    // Hoists the tier dispatch out of the per-edge loop: `for_each`
    // lowers to `fold`, so consumers driving whole blocks pay the match
    // once per node instead of once per edge.
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        match self {
            EdgeIter::Raw { targets, weights, i } => targets[i..]
                .iter()
                .zip(&weights[i..])
                .fold(init, |acc, (&t, &w)| f(acc, (t, w))),
            EdgeIter::Compressed(it) => it.fold(init, f),
        }
    }
}

impl ExactSizeIterator for EdgeIter<'_> {}

/// Iterator over one node's targets only (see [`GraphStore::targets`]);
/// allocation-free on both tiers, weight bytes untouched.
pub enum TargetIter<'a> {
    /// Walks the raw target slice.
    Raw(std::slice::Iter<'a, NodeId>),
    /// Streams bit-packed gap decodes.
    Compressed(CompressedTargets<'a>),
}

impl Iterator for TargetIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match self {
            TargetIter::Raw(it) => it.next().copied(),
            TargetIter::Compressed(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            TargetIter::Raw(it) => it.size_hint(),
            TargetIter::Compressed(it) => (it.len(), Some(it.len())),
        }
    }

    // Same rationale as [`EdgeIter::fold`]: one tier dispatch per node.
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        match self {
            TargetIter::Raw(it) => it.fold(init, |acc, &t| f(acc, t)),
            TargetIter::Compressed(it) => it.fold(init, f),
        }
    }
}

impl ExactSizeIterator for TargetIter<'_> {}

impl GraphStore {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        match self {
            GraphStore::Raw { offsets, .. } => offsets.len() - 1,
            GraphStore::Compressed(c) => c.num_nodes(),
        }
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        match self {
            GraphStore::Raw { targets, .. } => targets.len(),
            GraphStore::Compressed(c) => c.num_edges(),
        }
    }

    /// `true` on the compressed tier.
    pub fn is_compressed(&self) -> bool {
        matches!(self, GraphStore::Compressed(_))
    }

    fn edge_range(&self, offsets: &[u64], u: NodeId) -> (usize, usize) {
        let u = u as usize;
        assert!(u + 1 < offsets.len(), "node {u} out of range");
        (offsets[u] as usize, offsets[u + 1] as usize)
    }

    /// Out-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> usize {
        match self {
            GraphStore::Raw { offsets, .. } => {
                let (s, e) = self.edge_range(offsets, u);
                e - s
            }
            GraphStore::Compressed(c) => c.degree(u),
        }
    }

    /// Neighbors of `u`, sorted ascending — a borrowed slice (raw) or a
    /// per-thread scratch decode (compressed).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: NodeId) -> NeighborsRef<'_> {
        match self {
            GraphStore::Raw { offsets, targets, .. } => {
                let (s, e) = self.edge_range(offsets, u);
                NeighborsRef(NbRepr::Slice(&targets[s..e]))
            }
            GraphStore::Compressed(c) => {
                let mut buf = take_target_buf();
                c.decode_into(u, &mut buf, None);
                NeighborsRef(NbRepr::Scratch(buf))
            }
        }
    }

    /// Weights of `u`'s out-edges, parallel to [`GraphStore::neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn edge_weights(&self, u: NodeId) -> WeightsRef<'_> {
        match self {
            GraphStore::Raw { offsets, weights, .. } => {
                let (s, e) = self.edge_range(offsets, u);
                WeightsRef(WtRepr::Slice(&weights[s..e]))
            }
            GraphStore::Compressed(c) => {
                let mut buf = take_weight_buf();
                buf.clear();
                buf.extend(c.edges(u).map(|(_, w)| w));
                WeightsRef(WtRepr::Scratch(buf))
            }
        }
    }

    /// Iterates `(target, weight)` pairs of `u`'s out-edges.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn edges(&self, u: NodeId) -> EdgeIter<'_> {
        match self {
            GraphStore::Raw { offsets, targets, weights } => {
                let (s, e) = self.edge_range(offsets, u);
                EdgeIter::Raw {
                    targets: &targets[s..e],
                    weights: &weights[s..e],
                    i: 0,
                }
            }
            GraphStore::Compressed(c) => EdgeIter::Compressed(c.edges(u)),
        }
    }

    /// Iterates just the targets of `u`'s out-edges. Weight-blind
    /// algorithms should prefer this over [`GraphStore::edges`]: on the
    /// compressed tier it decodes only the gap run and never
    /// touches the weight bytes.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn targets(&self, u: NodeId) -> TargetIter<'_> {
        match self {
            GraphStore::Raw { offsets, targets, .. } => {
                let (s, e) = self.edge_range(offsets, u);
                TargetIter::Raw(targets[s..e].iter())
            }
            GraphStore::Compressed(c) => TargetIter::Compressed(c.targets(u)),
        }
    }

    /// Sum of `u`'s edge weights. Unit-weight compressed graphs answer
    /// straight from the degree.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn weighted_degree(&self, u: NodeId) -> u64 {
        match self {
            GraphStore::Raw { offsets, weights, .. } => {
                let (s, e) = self.edge_range(offsets, u);
                weights[s..e].iter().sum()
            }
            GraphStore::Compressed(c) => {
                if c.unit_weights() {
                    c.degree(u) as u64
                } else {
                    c.edges(u).map(|(_, w)| w).sum()
                }
            }
        }
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> u64 {
        match self {
            GraphStore::Raw { weights, .. } => weights.iter().sum(),
            GraphStore::Compressed(c) => c.total_weight(),
        }
    }

    /// This store re-encoded on the compressed tier (a clone if already
    /// compressed).
    pub fn compressed(&self) -> GraphStore {
        match self {
            GraphStore::Raw { offsets, targets, weights } => GraphStore::Compressed(
                CompressedGraph::from_csr_slices(offsets, targets, weights),
            ),
            GraphStore::Compressed(c) => GraphStore::Compressed(c.clone()),
        }
    }

    /// This store re-materialized on the raw tier (a clone if already
    /// raw). Compressed blocks decode in sorted order.
    pub fn decompressed(&self) -> GraphStore {
        match self {
            GraphStore::Raw { offsets, targets, weights } => GraphStore::Raw {
                offsets: offsets.clone(),
                targets: targets.clone(),
                weights: weights.clone(),
            },
            GraphStore::Compressed(c) => {
                let n = c.num_nodes();
                let mut offsets = Vec::with_capacity(n + 1);
                let mut targets = Vec::with_capacity(c.num_edges());
                let mut weights = Vec::with_capacity(c.num_edges());
                offsets.push(0u64);
                for u in 0..n as NodeId {
                    for (t, w) in c.edges(u) {
                        targets.push(t);
                        weights.push(w);
                    }
                    offsets.push(targets.len() as u64);
                }
                GraphStore::Raw { offsets, targets, weights }
            }
        }
    }

    /// Per-component heap bytes (see [`SizeBreakdown`]). Uses vector
    /// *capacities*, so over-allocation is visible, and includes the
    /// store's own in-struct bytes.
    pub fn size_breakdown(&self) -> SizeBreakdown {
        let struct_bytes = std::mem::size_of::<GraphStore>();
        match self {
            GraphStore::Raw { offsets, targets, weights } => SizeBreakdown {
                offsets: offsets.capacity() * std::mem::size_of::<u64>(),
                targets: targets.capacity() * std::mem::size_of::<NodeId>(),
                weights: weights.capacity() * std::mem::size_of::<Weight>(),
                struct_bytes,
            },
            GraphStore::Compressed(c) => SizeBreakdown {
                offsets: c.index_bytes(),
                targets: c.data_bytes() - c.weight_data_bytes(),
                weights: c.weight_data_bytes(),
                struct_bytes,
            },
        }
    }

    /// Total in-memory bytes ([`SizeBreakdown::total`]).
    pub fn size_bytes(&self) -> usize {
        self.size_breakdown().total()
    }
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphStore")
            .field("compressed", &self.is_compressed())
            .field("num_nodes", &self.num_nodes())
            .field("num_edges", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_triangle() -> GraphStore {
        GraphStore::Raw {
            offsets: vec![0, 2, 4, 6],
            targets: vec![1, 2, 0, 2, 0, 1],
            weights: vec![3, 4, 3, 5, 4, 5],
        }
    }

    #[test]
    fn tiers_agree() {
        let raw = raw_triangle();
        let comp = raw.compressed();
        assert!(comp.is_compressed());
        assert_eq!(raw.num_nodes(), comp.num_nodes());
        assert_eq!(raw.num_edges(), comp.num_edges());
        assert_eq!(raw.total_weight(), comp.total_weight());
        for u in 0..3 {
            assert_eq!(raw.degree(u), comp.degree(u));
            assert_eq!(&raw.neighbors(u)[..], &comp.neighbors(u)[..]);
            assert_eq!(&raw.edge_weights(u)[..], &comp.edge_weights(u)[..]);
            assert_eq!(
                raw.edges(u).collect::<Vec<_>>(),
                comp.edges(u).collect::<Vec<_>>()
            );
            assert_eq!(raw.weighted_degree(u), comp.weighted_degree(u));
        }
        assert_eq!(comp.decompressed(), raw);
    }

    #[test]
    fn scratch_guards_nest() {
        let comp = raw_triangle().compressed();
        let a = comp.neighbors(0);
        let b = comp.neighbors(1);
        assert_eq!(a, &[1, 2]);
        assert_eq!(b, &[0, 2]);
        drop(a);
        let c = comp.neighbors(2);
        assert_eq!(c, &[0, 1]);
        assert_eq!(b, &[0, 2]); // untouched by the pool reuse
    }

    #[test]
    fn breakdown_components_sum() {
        for store in [raw_triangle(), raw_triangle().compressed()] {
            let b = store.size_breakdown();
            assert_eq!(b.total(), store.size_bytes());
            assert!(b.struct_bytes > 0);
        }
    }

    #[test]
    fn unit_weight_compression_beats_raw() {
        let n = 512usize;
        let mut offsets = vec![0u64];
        let mut targets = Vec::new();
        for u in 0..n {
            for k in 1..=4 {
                targets.push(((u + k) % n) as NodeId);
            }
            offsets.push(targets.len() as u64);
        }
        let weights = vec![1u64; targets.len()];
        let raw = GraphStore::Raw { offsets, targets, weights };
        let comp = raw.compressed();
        let raw_b = raw.size_bytes();
        let comp_b = comp.size_bytes();
        assert!(
            comp_b * 2 < raw_b,
            "compressed {comp_b}B should be far under raw {raw_b}B"
        );
    }
}
