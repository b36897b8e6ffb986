//! Graph serialization: whitespace edge lists (the interchange format of
//! SNAP / WebDataCommons dumps the paper's inputs ship as) and a compact
//! binary CSR format for fast reloads.

use crate::builder::GraphBuilder;
use crate::csr::{Graph, NodeId, Weight};
use std::io::{self, BufRead, Read, Write};

/// Writes `g` as a text edge list: one `src dst weight` triple per line,
/// preceded by a `# nodes <n>` header that preserves isolated nodes.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_edge_list<W: Write>(g: &Graph, mut w: W) -> io::Result<()> {
    writeln!(w, "# nodes {}", g.num_nodes())?;
    for (u, v, wt) in g.all_edges() {
        writeln!(w, "{u} {v} {wt}")?;
    }
    Ok(())
}

/// Reads a text edge list produced by [`write_edge_list`] (or any
/// whitespace-separated `src dst [weight]` file; missing weights default
/// to 1; lines starting with `#` or `%` are comments, except the
/// `# nodes <n>` header).
///
/// The graph is **not** symmetrized — load exactly what the file says and
/// symmetrize with [`GraphBuilder`] if needed.
///
/// # Errors
///
/// Returns `InvalidData` for malformed lines and propagates I/O errors.
pub fn read_edge_list<R: BufRead>(r: R) -> io::Result<Graph> {
    let mut b = GraphBuilder::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# nodes ") {
            let n: usize = rest.trim().parse().map_err(|_| bad(lineno, line))?;
            b.ensure_nodes(n);
            continue;
        }
        if line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let u: NodeId = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad(lineno, line))?;
        let v: NodeId = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad(lineno, line))?;
        let w: Weight = match it.next() {
            Some(t) => t.parse().map_err(|_| bad(lineno, line))?,
            None => 1,
        };
        b.add_edge(u, v, w);
    }
    Ok(b.build())
}

fn bad(lineno: usize, line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed edge list at line {}: {line:?}", lineno + 1),
    )
}

const MAGIC: &[u8; 8] = b"KIMBAPG1";

/// Writes `g` in the binary CSR format (magic, counts, then the raw
/// offset/target/weight arrays, little-endian).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_binary<W: Write>(g: &Graph, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(g.num_nodes() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    // Stream the CSR arrays from the accessors rather than the backing
    // store, so compressed graphs serialize to the same format (their
    // blocks decode in sorted order, which is CSR order for graphs built
    // by GraphBuilder).
    let mut off = 0u64;
    w.write_all(&off.to_le_bytes())?;
    for u in g.nodes() {
        off += g.degree(u) as u64;
        w.write_all(&off.to_le_bytes())?;
    }
    for u in g.nodes() {
        for t in g.targets(u) {
            w.write_all(&t.to_le_bytes())?;
        }
    }
    for u in g.nodes() {
        for (_, wt) in g.edges(u) {
            w.write_all(&wt.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a graph written by [`write_binary`].
///
/// Every count comes from the file, so each is checked before it sizes an
/// allocation, and the arrays go through [`Graph::try_from_csr`]: a
/// corrupt file is an `Err`, never a panic. The format carries no
/// checksum, so a corrupted weight, or an offset or target that stays in
/// range, still loads.
///
/// # Errors
///
/// Returns `InvalidData` on a bad magic number, a node count past the
/// [`NodeId`] range, an array too large to allocate, bytes past the
/// weights, or arrays that break a [`Graph::try_from_csr`] rule;
/// propagates I/O errors (`UnexpectedEof` on truncation).
pub fn read_binary<R: Read>(mut r: R) -> io::Result<Graph> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a kimbap binary graph (bad magic)",
        ));
    }
    let n = read_u64(&mut r)?;
    let m = read_u64(&mut r)?;
    if n > u64::from(NodeId::MAX) {
        return Err(invalid("node count exceeds the NodeId range"));
    }
    let slots = usize::try_from(n)
        .ok()
        .and_then(|n| n.checked_add(1))
        .ok_or_else(|| invalid("node count too large"))?;
    let m = usize::try_from(m).map_err(|_| invalid("edge count too large"))?;
    let offsets = read_array(&mut r, slots, u64::from_le_bytes)?;
    let targets = read_array(&mut r, m, u32::from_le_bytes)?;
    let weights = read_array(&mut r, m, u64::from_le_bytes)?;
    if r.read(&mut [0u8; 1])? != 0 {
        return Err(invalid("bytes past the last weight"));
    }
    Graph::try_from_csr(offsets, targets, weights).map_err(invalid)
}

/// Reads `len` little-endian values of `N` bytes each into a vector of
/// exactly `len` capacity, or fails, rather than aborting, when that
/// capacity cannot be allocated.
fn read_array<R: Read, T, const N: usize>(
    r: &mut R,
    len: usize,
    decode: fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let mut out = Vec::new();
    out.try_reserve_exact(len)
        .map_err(|_| invalid("array too large to allocate"))?;
    for _ in 0..len {
        let mut b = [0u8; N];
        r.read_exact(&mut b)?;
        out.push(decode(b));
    }
    Ok(out)
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt binary graph: {what}"),
    )
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn edge_list_roundtrip() {
        let g = gen::rmat(7, 4, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_preserves_isolated_nodes() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 5).ensure_nodes(10);
        let g = b.build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g2.num_nodes(), 10);
    }

    #[test]
    fn edge_list_defaults_weight_and_skips_comments() {
        let text = "% comment\n# another\n0 1\n1 2 7\n\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edges(0).next().unwrap(), (1, 1));
        assert_eq!(g.edges(1).next().unwrap(), (2, 7));
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let err = read_edge_list("0 x 1\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn binary_roundtrip() {
        let g = gen::grid_road(9, 5, 2);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_write_is_tier_independent() {
        let g = gen::rmat(7, 4, 11);
        let mut raw_buf = Vec::new();
        write_binary(&g, &mut raw_buf).unwrap();
        let mut comp_buf = Vec::new();
        write_binary(&g.compress(), &mut comp_buf).unwrap();
        assert_eq!(raw_buf, comp_buf);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTAGRAPH_______"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = gen::grid_road(4, 4, 0);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(&buf[..]).is_err());
    }

    /// A `.kg` image from raw header fields and arrays.
    fn image(n: u64, m: u64, offsets: &[u64], targets: &[u32], weights: &[u64]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        for v in [n, m].iter().chain(offsets) {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for t in targets {
            buf.extend_from_slice(&t.to_le_bytes());
        }
        for w in weights {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf
    }

    #[test]
    fn binary_rejects_inconsistent_csr() {
        let cases = [
            // Decreasing offsets.
            image(3, 5, &[0, 5, 3, 5], &[0, 1, 2, 0, 1], &[1; 5]),
            // A first offset past 0: degrees sum to 1, not m = 3.
            image(2, 3, &[2, 2, 3], &[0, 1, 0], &[1; 3]),
            // Node counts past the NodeId range.
            image(1 << 61, 0, &[0], &[], &[]),
            image(u64::MAX, 0, &[0], &[], &[]),
            // An edge count no allocation can hold.
            image(1, u64::MAX, &[0, u64::MAX], &[], &[]),
            // The last offset is not m.
            image(2, 2, &[0, 1, 1], &[1, 0], &[1; 2]),
            // A target past n.
            image(2, 2, &[0, 1, 2], &[1, 2], &[1; 2]),
            // Bytes past the weights.
            [image(2, 2, &[0, 1, 2], &[1, 0], &[1; 2]), vec![0]].concat(),
        ];
        for (i, buf) in cases.iter().enumerate() {
            let err = read_binary(&buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "case {i}: {err}");
        }
    }

    #[test]
    fn binary_corruption_is_an_error() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = gen::rmat(6, 4, 5);
        let (n, m) = (g.num_nodes(), g.num_edges());
        let mut good = Vec::new();
        write_binary(&g, &mut good).unwrap();
        assert_eq!(read_binary(&good[..]).unwrap(), g);
        // The bits whose corruption the format can see: the magic and both
        // counts; every offset bit at or above m's bit length (the offset
        // then exceeds m) and every bit of the first offset; every target
        // bit at or above n's. Weights and in-range offset or target bits
        // carry no checksum.
        let bits = |x: usize| usize::BITS - x.leading_zeros();
        let offsets_at = 24;
        let targets_at = offsets_at + 8 * (n + 1);
        let weights_at = targets_at + 4 * m;
        let mut visible = Vec::new();
        visible.extend(0..offsets_at * 8 + 64);
        for i in 1..=n {
            let at = (offsets_at + 8 * i) * 8;
            visible.extend(at + bits(m) as usize..at + 64);
        }
        for i in 0..m {
            let at = (targets_at + 4 * i) * 8;
            visible.extend(at + bits(n - 1) as usize..at + 32);
        }
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..500 {
            let mut buf = good.clone();
            let bit = visible[rng.random_range(0..visible.len())];
            buf[bit / 8] ^= 1 << (bit % 8);
            assert!(read_binary(&buf[..]).is_err(), "flip of bit {bit} loaded");
        }
        for _ in 0..200 {
            let len = rng.random_range(0..good.len());
            assert!(
                read_binary(&good[..len]).is_err(),
                "truncation to {len} loaded"
            );
        }
        for _ in 0..200 {
            // Garbage behind a valid magic, with small counts half the time.
            let mut buf = MAGIC.to_vec();
            let len = rng.random_range(0..weights_at);
            buf.extend((0..len).map(|_| rng.random::<u32>() as u8));
            if rng.random::<bool>() && buf.len() >= 24 {
                buf[8..24].fill(0);
                buf[8] = rng.random_range(0..64);
                buf[16] = rng.random_range(0..64);
            }
            assert!(
                read_binary(&buf[..]).is_err(),
                "garbage of {len} bytes loaded"
            );
        }
    }
}
