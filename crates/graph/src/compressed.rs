//! Delta+varint-compressed CSR: the read-optimized storage tier.
//!
//! Each node's sorted neighbor block is stored as `varint(degree)`,
//! `zigzag(first_target − node)`, then ascending varint gaps; weighted
//! graphs append a varint weight run *after* the whole target run (with
//! a `varint(target_run_bytes)` header so the weights are O(1) to find),
//! keeping the two streams separate so weight-blind consumers
//! ([`CompressedGraph::targets`]) never touch weight bytes. The
//! unit-weight fast path stores no weight bytes at all and materializes
//! `1` on read. A direct offset index (one `u32` block start per node)
//! gives O(1) random access: the BSP hot loops decode every node's block
//! once per round, and the index costs 4 bytes per node, half of raw
//! CSR's 8-byte offsets.
//!
//! Raw CSR spends 4 bytes per edge on targets plus 8 on weights plus
//! 8 per node on offsets; the compressed form typically lands well under
//! 4 bytes per edge on the unit-weight power-law inputs (see the
//! `max_graph_size` bench and the `ci.sh` bytes-per-edge assertion).

use crate::csr::{NodeId, Weight};

// --- LEB128 varints + zigzag ------------------------------------------------

#[inline]
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[inline]
pub(crate) fn get_varint(data: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = data[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Advances past one varint without decoding its value.
#[inline]
fn skip_varint(data: &[u8], pos: &mut usize) {
    while data[*pos] & 0x80 != 0 {
        *pos += 1;
    }
    *pos += 1;
}

/// [`get_varint`] without per-byte bounds checks, for the edge-decode
/// hot loop: the BSP engines decode every block once per round, and the
/// checked loop's branch per byte is measurable there.
///
/// # Safety
///
/// `*pos` must point at a complete, well-formed varint inside `data`.
/// All positions reached from the constructor-built index over the
/// constructor-encoded blocks satisfy this; the encoding is never read
/// from external input.
#[inline]
unsafe fn get_varint_unchecked(data: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        debug_assert!(*pos < data.len(), "varint runs past the block data");
        // SAFETY: caller guarantees the varint lies within `data`.
        let byte = unsafe { *data.get_unchecked(*pos) };
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

#[inline]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// --- The compressed graph ---------------------------------------------------

/// A graph in per-node delta+varint blocks with a direct offset index.
///
/// Neighbor blocks are sorted ascending (construction sorts each node's
/// `(target, weight)` pairs if the input CSR was not). All algorithms in
/// this workspace are order-independent over a node's edge list, so the
/// reordering is observable only through iteration order.
#[derive(Clone, PartialEq, Eq)]
pub struct CompressedGraph {
    num_nodes: usize,
    num_edges: usize,
    /// `true` iff every weight is 1; then no weight bytes are stored.
    unit_weights: bool,
    total_weight: u64,
    /// Concatenated per-node blocks.
    data: Vec<u8>,
    /// Byte offset of each node's block.
    index: Vec<u32>,
    /// How many of `data`'s bytes encode weights (0 when unit-weight);
    /// lets size reporting split topology from weight storage honestly.
    weight_data_bytes: usize,
}

impl CompressedGraph {
    /// Compresses a raw CSR given as slices.
    ///
    /// # Panics
    ///
    /// Panics if the encoded data would exceed the `u32` index range
    /// (≈4 GiB of compressed blocks), or if the slices are inconsistent.
    pub fn from_csr_slices(offsets: &[u64], targets: &[NodeId], weights: &[Weight]) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(weights.len(), targets.len(), "one weight per edge");
        let n = offsets.len() - 1;
        let unit_weights = weights.iter().all(|&w| w == 1);
        let mut data = Vec::with_capacity(targets.len() * 2);
        let mut index = Vec::with_capacity(n);
        let mut weight_data_bytes = 0usize;
        let mut total_weight = 0u64;
        let mut pairs: Vec<(NodeId, Weight)> = Vec::new();
        let mut run: Vec<u8> = Vec::new();
        for u in 0..n {
            let off = u32::try_from(data.len())
                .expect("compressed graph blocks exceed the u32 index range");
            index.push(off);
            let (s, e) = (offsets[u] as usize, offsets[u + 1] as usize);
            pairs.clear();
            pairs.extend(targets[s..e].iter().copied().zip(weights[s..e].iter().copied()));
            if !pairs.windows(2).all(|w| w[0].0 <= w[1].0) {
                pairs.sort_unstable();
            }
            put_varint(&mut data, pairs.len() as u64);
            // Target deltas build in a side buffer so the weighted layout
            // can prefix the run with its byte length.
            run.clear();
            let mut prev = u as i64;
            for (i, &(t, _)) in pairs.iter().enumerate() {
                if i == 0 {
                    put_varint(&mut run, zigzag(t as i64 - prev));
                } else {
                    put_varint(&mut run, (t as i64 - prev) as u64);
                }
                prev = t as i64;
            }
            if unit_weights {
                data.extend_from_slice(&run);
                total_weight += pairs.len() as u64;
            } else {
                let before = data.len();
                if !pairs.is_empty() {
                    put_varint(&mut data, run.len() as u64);
                }
                let header = data.len() - before;
                data.extend_from_slice(&run);
                let before = data.len();
                for &(_, w) in &pairs {
                    put_varint(&mut data, w);
                    total_weight += w;
                }
                // The run-length header exists only to reach the weight
                // run, so it bills to the weight bytes.
                weight_data_bytes += header + data.len() - before;
            }
        }
        CompressedGraph {
            num_nodes: n,
            num_edges: targets.len(),
            unit_weights,
            total_weight,
            data,
            index,
            weight_data_bytes,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// `true` if the unit-weight fast path is active (no weight bytes
    /// stored; weights materialize as `1` on read).
    pub fn unit_weights(&self) -> bool {
        self.unit_weights
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Heap bytes of the block data.
    pub fn data_bytes(&self) -> usize {
        self.data.len()
    }

    /// Heap bytes of the offset index.
    pub fn index_bytes(&self) -> usize {
        self.index.len() * std::mem::size_of::<u32>()
    }

    /// Bytes of `data` spent on weights (0 on the unit-weight path).
    pub fn weight_data_bytes(&self) -> usize {
        self.weight_data_bytes
    }

    /// Byte position of node `u`'s block.
    fn block_pos(&self, u: NodeId) -> usize {
        let u = u as usize;
        assert!(u < self.num_nodes, "node {u} out of range");
        self.index[u] as usize
    }

    /// Out-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> usize {
        let mut pos = self.block_pos(u);
        get_varint(&self.data, &mut pos) as usize
    }

    /// Streams `(target, weight)` pairs of `u`'s out-edges, decoding
    /// varints on the fly (no scratch buffer).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn edges(&self, u: NodeId) -> CompressedEdges<'_> {
        let mut pos = self.block_pos(u);
        let remaining = get_varint(&self.data, &mut pos) as usize;
        let wpos = if self.unit_weights || remaining == 0 {
            0 // never read
        } else {
            let run = get_varint(&self.data, &mut pos) as usize;
            pos + run
        };
        CompressedEdges {
            data: &self.data,
            pos,
            wpos,
            remaining,
            prev: u as i64,
            first: true,
            unit: self.unit_weights,
        }
    }

    /// Streams just the (sorted) targets of `u`'s out-edges. On weighted
    /// graphs this decodes only the target-delta run and never touches
    /// the weight bytes — the path for weight-blind algorithms.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn targets(&self, u: NodeId) -> CompressedTargets<'_> {
        let mut pos = self.block_pos(u);
        let remaining = get_varint(&self.data, &mut pos) as usize;
        if !self.unit_weights && remaining > 0 {
            skip_varint(&self.data, &mut pos); // the target-run length header
        }
        CompressedTargets {
            data: &self.data,
            pos,
            remaining,
            prev: u as i64,
            first: true,
        }
    }

    /// Decodes `u`'s neighbors (and weights, if `weights` is `Some`) into
    /// reusable buffers, replacing their contents.
    pub fn decode_into(&self, u: NodeId, targets: &mut Vec<NodeId>, weights: Option<&mut Vec<Weight>>) {
        targets.clear();
        match weights {
            Some(ws) => {
                ws.clear();
                for (t, w) in self.edges(u) {
                    targets.push(t);
                    ws.push(w);
                }
            }
            None => targets.extend(self.targets(u)),
        }
    }
}

impl std::fmt::Debug for CompressedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedGraph")
            .field("num_nodes", &self.num_nodes)
            .field("num_edges", &self.num_edges)
            .field("unit_weights", &self.unit_weights)
            .field("data_bytes", &self.data.len())
            .finish()
    }
}

/// Streaming decoder over one node's block (see
/// [`CompressedGraph::edges`]): targets from the delta run, weights in
/// lockstep from the weight run.
pub struct CompressedEdges<'a> {
    data: &'a [u8],
    pos: usize,
    /// Cursor into the weight run (unused on the unit-weight path).
    wpos: usize,
    remaining: usize,
    prev: i64,
    first: bool,
    unit: bool,
}

impl Iterator for CompressedEdges<'_> {
    type Item = (NodeId, Weight);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, Weight)> {
        if self.remaining == 0 {
            return None;
        }
        // SAFETY: `pos`/`wpos` came from the constructor-built index and
        // have only been advanced over whole varints; with
        // `remaining > 0` both runs still hold `remaining` encoded
        // entries, so a well-formed varint starts at each cursor.
        let raw = unsafe { get_varint_unchecked(self.data, &mut self.pos) };
        let t = if self.first {
            self.first = false;
            self.prev + unzigzag(raw)
        } else {
            self.prev + raw as i64
        };
        self.prev = t;
        let w = if self.unit {
            1
        } else {
            // SAFETY: same invariant as above.
            unsafe { get_varint_unchecked(self.data, &mut self.wpos) }
        };
        self.remaining -= 1;
        Some((t as NodeId, w))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }

    // `for_each` (what the BSP hot loops drive) lowers to `fold`; the
    // override peels the zigzag first edge and splits the unit-weight
    // case so the per-edge loop carries no branches beyond the decode
    // itself — measurably faster than the `next()` protocol on dense
    // power-law blocks.
    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        let mut acc = init;
        if self.remaining == 0 {
            return acc;
        }
        let data = self.data;
        let mut pos = self.pos;
        let mut wpos = self.wpos;
        let mut prev = self.prev;
        // SAFETY (all decodes below): both cursors start at offsets from
        // the constructor-built index and advance over whole varints;
        // `remaining` counts the entries still encoded in each run.
        if self.first {
            let raw = unsafe { get_varint_unchecked(data, &mut pos) };
            prev += unzigzag(raw);
            let w = if self.unit {
                1
            } else {
                unsafe { get_varint_unchecked(data, &mut wpos) }
            };
            acc = f(acc, (prev as NodeId, w));
            self.remaining -= 1;
        }
        if self.unit {
            for _ in 0..self.remaining {
                let raw = unsafe { get_varint_unchecked(data, &mut pos) };
                prev += raw as i64;
                acc = f(acc, (prev as NodeId, 1));
            }
        } else {
            for _ in 0..self.remaining {
                let raw = unsafe { get_varint_unchecked(data, &mut pos) };
                prev += raw as i64;
                let w = unsafe { get_varint_unchecked(data, &mut wpos) };
                acc = f(acc, (prev as NodeId, w));
            }
        }
        acc
    }
}

impl ExactSizeIterator for CompressedEdges<'_> {}

/// Streaming decoder over just the target-delta run of one node's block
/// (see [`CompressedGraph::targets`]); weight bytes are never read.
pub struct CompressedTargets<'a> {
    data: &'a [u8],
    pos: usize,
    remaining: usize,
    prev: i64,
    first: bool,
}

impl Iterator for CompressedTargets<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.remaining == 0 {
            return None;
        }
        // SAFETY: `pos` came from the constructor-built index and has
        // only been advanced over whole varints; `remaining > 0` means
        // the target run still holds that many encoded deltas.
        let raw = unsafe { get_varint_unchecked(self.data, &mut self.pos) };
        let t = if self.first {
            self.first = false;
            self.prev + unzigzag(raw)
        } else {
            self.prev + raw as i64
        };
        self.prev = t;
        self.remaining -= 1;
        Some(t as NodeId)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }

    // Same rationale as [`CompressedEdges::fold`].
    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        let mut acc = init;
        if self.remaining == 0 {
            return acc;
        }
        let data = self.data;
        let mut pos = self.pos;
        let mut prev = self.prev;
        // SAFETY: as in `next` — cursor positions only ever derive from
        // the constructor-built index.
        if self.first {
            let raw = unsafe { get_varint_unchecked(data, &mut pos) };
            prev += unzigzag(raw);
            acc = f(acc, prev as NodeId);
            self.remaining -= 1;
        }
        for _ in 0..self.remaining {
            let raw = unsafe { get_varint_unchecked(data, &mut pos) };
            prev += raw as i64;
            acc = f(acc, prev as NodeId);
        }
        acc
    }
}

impl ExactSizeIterator for CompressedTargets<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(offsets: Vec<u64>, targets: Vec<NodeId>, weights: Vec<Weight>) {
        let c = CompressedGraph::from_csr_slices(&offsets, &targets, &weights);
        assert_eq!(c.num_nodes(), offsets.len() - 1);
        assert_eq!(c.num_edges(), targets.len());
        assert_eq!(c.total_weight(), weights.iter().sum::<u64>());
        for u in 0..c.num_nodes() as NodeId {
            let (s, e) = (offsets[u as usize] as usize, offsets[u as usize + 1] as usize);
            let mut expected: Vec<(NodeId, Weight)> = targets[s..e]
                .iter()
                .copied()
                .zip(weights[s..e].iter().copied())
                .collect();
            expected.sort_unstable();
            assert_eq!(c.degree(u), expected.len());
            assert_eq!(c.edges(u).collect::<Vec<_>>(), expected, "node {u}");
        }
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), v);
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn unit_weight_fast_path_stores_no_weight_bytes() {
        let c = CompressedGraph::from_csr_slices(
            &[0, 2, 4, 6],
            &[1, 2, 0, 2, 0, 1],
            &[1, 1, 1, 1, 1, 1],
        );
        assert!(c.unit_weights());
        assert_eq!(c.weight_data_bytes(), 0);
        assert_eq!(c.edges(0).collect::<Vec<_>>(), vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn triangle_weighted() {
        roundtrip(
            vec![0, 2, 4, 6],
            vec![1, 2, 0, 2, 0, 1],
            vec![5, 9, 5, 2, 9, 2],
        );
    }

    #[test]
    fn degree_zero_and_isolated_tail() {
        roundtrip(vec![0, 0, 1, 1, 1], vec![0], vec![7]);
    }

    #[test]
    fn empty_graph() {
        let c = CompressedGraph::from_csr_slices(&[0], &[], &[]);
        assert_eq!(c.num_nodes(), 0);
        assert_eq!(c.num_edges(), 0);
    }

    #[test]
    fn weight_extremes_survive() {
        roundtrip(vec![0, 2], vec![0, 1], vec![u64::MAX, 0]);
    }

    #[test]
    fn unsorted_blocks_are_sorted_on_compression() {
        let c = CompressedGraph::from_csr_slices(&[0, 3], &[2, 0, 1], &[9, 9, 9]);
        assert_eq!(
            c.edges(0).collect::<Vec<_>>(),
            vec![(0, 9), (1, 9), (2, 9)]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        CompressedGraph::from_csr_slices(&[0], &[], &[]).degree(0);
    }
}
