//! Bit-packed delta CSR: the read-optimized storage tier.
//!
//! Each node `u`'s sorted neighbor block is laid out as
//!
//! ```text
//! varint(degree)
//! varint(zigzag(t0 − u))         degree ≥ 1
//! b: u8, (degree − 1)·b bits     degree ≥ 2: gaps t[i] − t[i−1], b = 0..=32
//! bw: u8, degree·bw bits         weighted graphs, degree ≥ 1: w − 1, bw = 0..=64
//! ```
//!
//! Gaps and weights are fixed-width per block, chosen at compress time
//! from the block's widest value, and packed LSB-first. The weight run
//! starts at the byte after the gap bits, so its position follows from
//! the degree and `b` and weight-blind consumers
//! ([`CompressedGraph::targets`]) never touch weight bytes. `bw = 0`
//! (every weight in the block is 1) stores no weight bits, and a graph
//! whose weights are all 1 stores no weight run at all (the unit-weight
//! fast path); both materialize `1` on read. A direct offset index (one
//! `u32` block start per node) gives O(1) random access: the BSP hot
//! loops decode every node's block once per round, and the index costs 4
//! bytes per node, half of raw CSR's 8-byte offsets.
//!
//! Decoding keeps a running bit cursor and reads each value with one
//! unaligned little-endian `u64` load (a second byte for weights wider
//! than 56 bits); `fold`, which the BSP hot loops drive through
//! `for_each`, takes two values from each load when they are at most 28
//! bits wide. The block data ends in 8 zero bytes of padding, so a load
//! that starts anywhere inside the blocks stays in bounds; the loads are
//! still bounds-checked, and the check is never taken. No `unsafe` is
//! involved.
//!
//! Raw CSR spends 4 bytes per edge on targets plus 8 on weights plus
//! 8 per node on offsets; the compressed form typically lands well under
//! 4 bytes per edge on the unit-weight power-law inputs (see the
//! `max_graph_size` bench and the `ci.sh` bytes-per-edge assertion).

use crate::csr::{NodeId, Weight};

// --- Scalars: LEB128 varints, zigzag, bit widths --------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
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

/// The little-endian `u64` at byte `i` of `data`: one unaligned load.
#[inline(always)]
fn load_u64(data: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(data[i..i + 8].try_into().expect("an 8-byte window"))
}

/// The varint at `*pos`, advancing past it; a one-byte value (most
/// degrees) takes no loop.
#[inline(always)]
fn get_varint(data: &[u8], pos: &mut usize) -> u64 {
    let byte = data[*pos];
    if byte < 0x80 {
        *pos += 1;
        return u64::from(byte);
    }
    get_varint_bytes(data, pos)
}

/// [`get_varint`] past the one-byte case: a byte at a time.
fn get_varint_bytes(data: &[u8], pos: &mut usize) -> u64 {
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

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bits needed to hold `v` (0 for 0).
fn bit_width(v: u64) -> u32 {
    u64::BITS - v.leading_zeros()
}

/// The low `width` bits set (`width` ≤ 64).
#[inline]
fn low_bits(width: usize) -> u64 {
    u64::MAX.checked_shr(64 - width as u32).unwrap_or(0)
}

// --- Bit packing ----------------------------------------------------------

/// Zero bytes after the last block: every value load reads 8 bytes from
/// the byte its value starts in, and a block's last value (or the
/// decoders' one read past a gap run) may start in the last data byte.
/// A value wider than 56 bits ends inside the data, so the ninth byte it
/// may reach is in bounds too.
const PAD: usize = 8;

/// Appends `values`, `width` bits each (`width` ≤ 64), LSB-first; the
/// last byte's unused high bits are zero.
fn pack(out: &mut Vec<u8>, values: impl Iterator<Item = u64>, width: u32) {
    if width == 0 {
        return;
    }
    let mut acc = 0u128;
    let mut held = 0u32;
    for v in values {
        acc |= u128::from(v) << held;
        held += width;
        while held >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            held -= 8;
        }
    }
    if held > 0 {
        out.push(acc as u8);
    }
}

/// The value of at most 57 bits at bit `bit` of `data`, masked by `mask`:
/// one unaligned load.
#[inline(always)]
fn get_bits(data: &[u8], bit: usize, mask: u64) -> u64 {
    (load_u64(data, bit / 8) >> (bit % 8)) & mask
}

/// [`get_bits`] for any width up to 64: a value wider than 56 bits at an
/// odd bit offset reaches into a ninth byte.
#[inline(always)]
fn get_wide_bits(data: &[u8], bit: usize, width: usize, mask: u64) -> u64 {
    if width <= 56 {
        return get_bits(data, bit, mask);
    }
    let low = get_bits(data, bit, u64::MAX);
    // Two shifts, so an aligned value (offset 0) shifts the ninth byte
    // out entirely instead of by an overflowing 64.
    let high = (u64::from(data[bit / 8 + 8]) << 1) << (63 - bit % 8);
    (low | high) & mask
}

// --- The compressed graph ---------------------------------------------------

/// A graph in per-node bit-packed delta blocks with a direct offset index.
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
    /// Concatenated per-node blocks, then [`PAD`] zero bytes.
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
        // One byte per edge to start, so the buffer grows once or twice:
        // reserving the 2 B/edge most blocks fit in read 6 MB more peak RSS
        // on the benchmark's `serve-mix`, by heap placement, not by live
        // bytes (EXPERIMENTS.md, "Peak RSS and the block buffer's first
        // reservation").
        let mut data = Vec::with_capacity(targets.len());
        let mut index = Vec::with_capacity(n);
        let mut weight_data_bytes = 0usize;
        let mut total_weight = 0u64;
        let mut pairs: Vec<(NodeId, Weight)> = Vec::new();
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
            let Some(&(first, _)) = pairs.first() else {
                continue;
            };
            put_varint(&mut data, zigzag(i64::from(first) - u as i64));
            if pairs.len() >= 2 {
                let gaps = pairs.windows(2).map(|w| u64::from(w[1].0 - w[0].0));
                let width = bit_width(gaps.clone().fold(0, |a, g| a | g));
                data.push(width as u8);
                pack(&mut data, gaps, width);
            }
            if unit_weights {
                total_weight += pairs.len() as u64;
            } else {
                let before = data.len();
                // `w − 1` wraps a weight of 0 to `u64::MAX`; the decoder's
                // `+ 1` wraps it back.
                let stored = pairs.iter().map(|&(_, w)| w.wrapping_sub(1));
                let width = bit_width(stored.clone().fold(0, |a, v| a | v));
                data.push(width as u8);
                pack(&mut data, stored, width);
                weight_data_bytes += data.len() - before;
                total_weight += pairs.iter().map(|&(_, w)| w).sum::<u64>();
            }
        }
        data.extend_from_slice(&[0; PAD]);
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
    #[inline]
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

    /// Reads `u`'s block header: a target decoder positioned at the first
    /// target, and the byte just past the gap bits (where a weighted
    /// block's weight run starts).
    #[inline(always)]
    fn open(&self, u: NodeId) -> (CompressedTargets<'_>, usize) {
        let data = self.data.as_slice();
        let mut pos = self.block_pos(u);
        let remaining = get_varint(data, &mut pos) as usize;
        let mut targets = CompressedTargets {
            data,
            bit: 0,
            width: 0,
            mask: 0,
            next: u,
            remaining,
        };
        if remaining == 0 {
            return (targets, pos);
        }
        targets.next = (i64::from(u) + unzigzag(get_varint(data, &mut pos))) as NodeId;
        if remaining > 1 {
            targets.width = usize::from(data[pos]);
            targets.mask = low_bits(targets.width);
            pos += 1;
        }
        targets.bit = pos * 8;
        let end = pos + ((remaining - 1) * targets.width).div_ceil(8);
        (targets, end)
    }

    /// Streams `(target, weight)` pairs of `u`'s out-edges, decoding
    /// on the fly (no scratch buffer).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn edges(&self, u: NodeId) -> CompressedEdges<'_> {
        let (targets, end) = self.open(u);
        let wwidth = if self.unit_weights || targets.remaining == 0 {
            0
        } else {
            usize::from(self.data[end])
        };
        CompressedEdges {
            targets,
            wbit: (end + 1) * 8,
            wwidth,
            wmask: low_bits(wwidth),
        }
    }

    /// Streams just the (sorted) targets of `u`'s out-edges. On weighted
    /// graphs this decodes only the gap run and never touches the weight
    /// bytes — the path for weight-blind algorithms.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn targets(&self, u: NodeId) -> CompressedTargets<'_> {
        self.open(u).0
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
/// [`CompressedGraph::edges`]): targets from the gap run, weights in
/// lockstep from the weight run.
pub struct CompressedEdges<'a> {
    targets: CompressedTargets<'a>,
    /// Bit cursor of the next stored `w − 1`.
    wbit: usize,
    /// Bits per stored weight; 0 means every weight is 1 and nothing is
    /// loaded.
    wwidth: usize,
    wmask: u64,
}

impl Iterator for CompressedEdges<'_> {
    type Item = (NodeId, Weight);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, Weight)> {
        let t = self.targets.next()?;
        if self.wwidth == 0 {
            return Some((t, 1));
        }
        let w = get_wide_bits(self.targets.data, self.wbit, self.wwidth, self.wmask);
        self.wbit += self.wwidth;
        Some((t, w.wrapping_add(1)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.targets.size_hint()
    }

    // `for_each` (what the BSP hot loops drive) lowers to `fold`. A block
    // whose weights are all 1 runs the target fold and loads no weights;
    // otherwise, as in [`CompressedTargets::fold`], gaps and weights of
    // at most 28 bits come two to a load.
    #[inline]
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        let CompressedEdges {
            targets,
            mut wbit,
            wwidth,
            wmask,
        } = self;
        if wwidth == 0 {
            return targets.fold(init, move |acc, t| f(acc, (t, 1)));
        }
        let CompressedTargets {
            data,
            mut bit,
            width,
            mask,
            mut next,
            mut remaining,
        } = targets;
        let mut acc = init;
        if width <= 28 && wwidth <= 28 {
            while remaining >= 2 {
                let gaps = load_u64(data, bit / 8) >> (bit % 8);
                let ws = load_u64(data, wbit / 8) >> (wbit % 8);
                acc = f(acc, (next, (ws & wmask) + 1));
                next = next.wrapping_add((gaps & mask) as NodeId);
                acc = f(acc, (next, (ws >> wwidth & wmask) + 1));
                next = next.wrapping_add((gaps >> width & mask) as NodeId);
                bit += 2 * width;
                wbit += 2 * wwidth;
                remaining -= 2;
            }
        }
        for _ in 0..remaining {
            let w = get_wide_bits(data, wbit, wwidth, wmask).wrapping_add(1);
            wbit += wwidth;
            acc = f(acc, (next, w));
            next = next.wrapping_add(get_bits(data, bit, mask) as NodeId);
            bit += width;
        }
        acc
    }
}

impl ExactSizeIterator for CompressedEdges<'_> {}

/// Streaming decoder over just the gap run of one node's block (see
/// [`CompressedGraph::targets`]); weight bytes are never read.
///
/// It decodes one gap ahead: after yielding a target it adds the next
/// gap, so the last step reads one `width`-bit value past the run —
/// inside the block data or its padding, and never yielded.
pub struct CompressedTargets<'a> {
    data: &'a [u8],
    /// Bit cursor of the next gap.
    bit: usize,
    /// Bits per gap (0 when all targets are equal, or degree ≤ 1).
    width: usize,
    mask: u64,
    /// The next target to yield (meaningless once `remaining` is 0).
    next: NodeId,
    remaining: usize,
}

impl Iterator for CompressedTargets<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.remaining == 0 {
            return None;
        }
        let t = self.next;
        self.remaining -= 1;
        self.next = t.wrapping_add(get_bits(self.data, self.bit, self.mask) as NodeId);
        self.bit += self.width;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }

    // Gaps of at most 28 bits come two to a load (two bit offsets plus
    // the shift stay within 64 bits), which halves the loads, index
    // computations and bounds checks; the tail, and wider gaps, take one
    // load each.
    #[inline]
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        let CompressedTargets {
            data,
            mut bit,
            width,
            mask,
            mut next,
            mut remaining,
        } = self;
        let mut acc = init;
        if width <= 28 {
            while remaining >= 2 {
                let word = load_u64(data, bit / 8) >> (bit % 8);
                acc = f(acc, next);
                next = next.wrapping_add((word & mask) as NodeId);
                acc = f(acc, next);
                next = next.wrapping_add((word >> width & mask) as NodeId);
                bit += 2 * width;
                remaining -= 2;
            }
        }
        for _ in 0..remaining {
            acc = f(acc, next);
            next = next.wrapping_add(get_bits(data, bit, mask) as NodeId);
            bit += width;
        }
        acc
    }
}

impl ExactSizeIterator for CompressedTargets<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every decode path of `c` against the raw CSR it was built from
    /// (each block sorted, as compression sorts it).
    fn check_against_raw(
        c: &CompressedGraph,
        offsets: &[u64],
        targets: &[NodeId],
        weights: &[Weight],
    ) {
        assert_eq!(c.num_nodes(), offsets.len() - 1);
        assert_eq!(c.num_edges(), targets.len());
        assert_eq!(c.total_weight(), weights.iter().sum::<u64>());
        let (mut ts, mut ws) = (Vec::new(), Vec::new());
        for u in 0..c.num_nodes() as NodeId {
            let (s, e) = (
                offsets[u as usize] as usize,
                offsets[u as usize + 1] as usize,
            );
            let mut expected: Vec<(NodeId, Weight)> = targets[s..e]
                .iter()
                .copied()
                .zip(weights[s..e].iter().copied())
                .collect();
            expected.sort_unstable();
            let expected_targets: Vec<NodeId> = expected.iter().map(|&(t, _)| t).collect();
            let expected_weights: Vec<Weight> = expected.iter().map(|&(_, w)| w).collect();
            assert_eq!(c.degree(u), expected.len(), "node {u}");
            assert_eq!(c.edges(u).len(), expected.len(), "node {u}");
            assert_eq!(c.edges(u).collect::<Vec<_>>(), expected, "node {u}");
            assert_eq!(
                c.targets(u).collect::<Vec<_>>(),
                expected_targets,
                "node {u}"
            );
            c.decode_into(u, &mut ts, Some(&mut ws));
            assert_eq!(
                (&ts, &ws),
                (&expected_targets, &expected_weights),
                "node {u}"
            );
            c.decode_into(u, &mut ts, None);
            assert_eq!(ts, expected_targets, "node {u}");
            // `next()` for a prefix, then `fold` over the rest.
            for k in 0..=expected.len().min(3) {
                let mut it = c.edges(u);
                let mut got: Vec<_> = it.by_ref().take(k).collect();
                got = it.fold(got, |mut v, e| {
                    v.push(e);
                    v
                });
                assert_eq!(got, expected, "node {u}, edges, {k} by next()");
                let mut it = c.targets(u);
                let mut got: Vec<_> = it.by_ref().take(k).collect();
                assert_eq!(it.len(), expected.len() - k);
                got = it.fold(got, |mut v, t| {
                    v.push(t);
                    v
                });
                assert_eq!(got, expected_targets, "node {u}, targets, {k} by next()");
            }
        }
    }

    fn roundtrip(offsets: Vec<u64>, targets: Vec<NodeId>, weights: Vec<Weight>) -> CompressedGraph {
        let c = CompressedGraph::from_csr_slices(&offsets, &targets, &weights);
        check_against_raw(&c, &offsets, &targets, &weights);
        c
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
    fn packed_values_read_back_at_every_width_and_offset() {
        // 19 values put an odd width's values at every bit offset mod 8.
        for width in 0..=64usize {
            let mask = low_bits(width);
            let values: Vec<u64> = (0..19u64)
                .map(|i| match i % 3 {
                    0 => mask,
                    1 => i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & mask,
                    _ => 0,
                })
                .collect();
            let mut data = Vec::new();
            pack(&mut data, values.iter().copied(), width as u32);
            assert_eq!(data.len(), (19 * width).div_ceil(8));
            data.extend_from_slice(&[0; PAD]);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(
                    get_wide_bits(&data, i * width, width, mask),
                    v,
                    "width {width}, #{i}"
                );
                if width <= 56 {
                    assert_eq!(get_bits(&data, i * width, mask), v, "width {width}, #{i}");
                }
            }
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
    fn all_ones_block_in_a_weighted_graph_stores_only_its_width_byte() {
        // Node 0's weights are all 1 (bw = 0); node 1's are not.
        let c = roundtrip(vec![0, 3, 5], vec![0, 1, 4, 0, 1], vec![1, 1, 1, 2, 300]);
        assert!(!c.unit_weights());
        // Node 0: one width byte. Node 1: one width byte + 2×9 bits.
        assert_eq!(c.weight_data_bytes(), 1 + 1 + 3);
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
    fn widest_gaps_and_first_targets_on_both_sides() {
        let top = u32::MAX;
        roundtrip(
            vec![0, 3, 5, 7, 9],
            // Node 0 spans the whole id range (gap u32::MAX - 1 → width 32);
            // node 1 starts below itself, node 2 at itself, node 3 above.
            vec![0, 1, top, 0, 0, 2, 2, top, top],
            // Weights wider than 56 bits at odd bit offsets: node 0's
            // second (width 61, offset 61) and node 3's (width 63, offset 63).
            vec![256, 1 << 61, 3, 1, 2, 7, 7, 1, 1 << 63],
        );
    }

    #[test]
    fn unsorted_blocks_are_sorted_on_compression() {
        let c = CompressedGraph::from_csr_slices(&[0, 3], &[2, 0, 1], &[9, 9, 9]);
        assert_eq!(c.edges(0).collect::<Vec<_>>(), vec![(0, 9), (1, 9), (2, 9)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        CompressedGraph::from_csr_slices(&[0], &[], &[]).degree(0);
    }
}
