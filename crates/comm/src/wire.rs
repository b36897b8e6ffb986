//! Fixed-size binary encoding for values that cross host boundaries.
//!
//! Everything a host sends to another host is serialized through [`Wire`],
//! so byte accounting in [`crate::HostStats`] reflects real message sizes.
//! The encoding is little-endian and fixed-width per type, mirroring the
//! packed buffers an MPI implementation would ship.

/// A value with a fixed-size binary encoding.
///
/// # Example
///
/// ```
/// use kimbap_comm::Wire;
///
/// let mut buf = Vec::new();
/// (7u32, 42u64).write(&mut buf);
/// assert_eq!(buf.len(), <(u32, u64)>::SIZE);
/// assert_eq!(<(u32, u64)>::read(&buf), (7, 42));
/// ```
pub trait Wire: Sized + Copy {
    /// Encoded size in bytes.
    const SIZE: usize;

    /// Appends the encoding of `self` to `buf`.
    fn write(&self, buf: &mut Vec<u8>);

    /// Decodes a value from the front of `buf`, rejecting short buffers.
    ///
    /// This is the decoding entry point for bytes that crossed a host
    /// boundary: a truncated or garbage peer payload surfaces as
    /// [`FrameError::Truncated`] instead of a panic.
    fn try_read(buf: &[u8]) -> Result<Self, FrameError>;

    /// Decodes a value from the front of `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`Wire::SIZE`]. Use
    /// [`Wire::try_read`] for untrusted input.
    fn read(buf: &[u8]) -> Self {
        Self::try_read(buf).expect("buffer shorter than Wire::SIZE")
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const SIZE: usize = std::mem::size_of::<$t>();

            fn write(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }

            fn try_read(buf: &[u8]) -> Result<Self, FrameError> {
                match buf.get(..Self::SIZE) {
                    Some(bytes) => Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized slice"))),
                    None => Err(FrameError::Truncated),
                }
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i64, f64);

impl Wire for bool {
    const SIZE: usize = 1;

    fn write(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }

    fn try_read(buf: &[u8]) -> Result<Self, FrameError> {
        match buf.first() {
            Some(&b) => Ok(b != 0),
            None => Err(FrameError::Truncated),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const SIZE: usize = A::SIZE + B::SIZE;

    fn write(&self, buf: &mut Vec<u8>) {
        self.0.write(buf);
        self.1.write(buf);
    }

    fn try_read(buf: &[u8]) -> Result<Self, FrameError> {
        if buf.len() < Self::SIZE {
            return Err(FrameError::Truncated);
        }
        Ok((A::try_read(buf)?, B::try_read(&buf[A::SIZE..])?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    const SIZE: usize = A::SIZE + B::SIZE + C::SIZE;

    fn write(&self, buf: &mut Vec<u8>) {
        self.0.write(buf);
        self.1.write(buf);
        self.2.write(buf);
    }

    fn try_read(buf: &[u8]) -> Result<Self, FrameError> {
        if buf.len() < Self::SIZE {
            return Err(FrameError::Truncated);
        }
        Ok((
            A::try_read(buf)?,
            B::try_read(&buf[A::SIZE..])?,
            C::try_read(&buf[A::SIZE + B::SIZE..])?,
        ))
    }
}

/// Encodes a slice of wire values into a fresh byte buffer.
pub fn encode_slice<T: Wire>(items: &[T]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(items.len() * T::SIZE);
    for it in items {
        it.write(&mut buf);
    }
    buf
}

/// Decodes a byte buffer produced by [`encode_slice`], rejecting buffers
/// whose length is not a multiple of the element size.
///
/// This is the decoding entry point for peer payloads: a truncated or
/// garbage buffer surfaces as [`FrameError::LengthMismatch`] instead of a
/// panic.
pub fn try_decode_slice<T: Wire>(buf: &[u8]) -> Result<Vec<T>, FrameError> {
    if !buf.len().is_multiple_of(T::SIZE) {
        return Err(FrameError::LengthMismatch);
    }
    buf.chunks_exact(T::SIZE).map(T::try_read).collect()
}

/// Decodes a byte buffer produced by [`encode_slice`].
///
/// # Panics
///
/// Panics if `buf.len()` is not a multiple of `T::SIZE`. Use
/// [`try_decode_slice`] for untrusted input.
pub fn decode_slice<T: Wire>(buf: &[u8]) -> Vec<T> {
    assert_eq!(
        buf.len() % T::SIZE,
        0,
        "buffer length {} is not a multiple of element size {}",
        buf.len(),
        T::SIZE
    );
    buf.chunks_exact(T::SIZE).map(T::read).collect()
}

/// Iterates decoded values without allocating an output vector.
///
/// # Panics
///
/// Panics if `buf.len()` is not a multiple of `T::SIZE`.
pub fn iter_decoded<'a, T: Wire + 'a>(buf: &'a [u8]) -> impl Iterator<Item = T> + 'a {
    assert_eq!(buf.len() % T::SIZE, 0, "misaligned wire buffer");
    buf.chunks_exact(T::SIZE).map(T::read)
}

// ---------------------------------------------------------------------------
// Frame layer: length + checksum validation for host-to-host messages.
// ---------------------------------------------------------------------------

/// First two bytes of every frame ("KF", Kimbap Frame).
pub const FRAME_MAGIC: u16 = 0x4B46;

/// Frame format version.
pub const FRAME_VERSION: u16 = 1;

/// Header size: magic(2) + version(2) + seq(8) + len(4) + crc(4).
pub const FRAME_HEADER: usize = 20;

/// Why a received frame was rejected.
///
/// Any rejection is treated as frame loss by the collectives, which
/// re-request the frame from the sender's retained outbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than a frame header.
    Truncated,
    /// Magic or version bytes wrong — not one of our frames.
    BadMagic,
    /// The header's payload length disagrees with the bytes on the wire.
    LengthMismatch,
    /// CRC32 over header + payload failed — the frame was corrupted.
    ChecksumMismatch,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            FrameError::Truncated => "frame truncated",
            FrameError::BadMagic => "bad frame magic/version",
            FrameError::LengthMismatch => "frame length mismatch",
            FrameError::ChecksumMismatch => "frame checksum mismatch",
        };
        f.write_str(what)
    }
}

impl std::error::Error for FrameError {}

// CRC32 (IEEE 802.3, reflected 0xEDB88320). CRC32 detects *every*
// single-bit error (and every burst up to 32 bits), which is the guarantee
// the corruption-detection property test asserts; a simpler additive or
// FNV checksum would not give it.
//
// Computed slice-by-8: eight lookup tables let the inner loop consume
// eight input bytes per step instead of one, with byte-at-a-time kept only
// for the unaligned tail. Same polynomial, same frame layout — every CRC
// this produces is bit-identical to the classic one-table loop's.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// Wraps `payload` in a validated frame: magic, version, sequence number,
/// payload length, and a CRC32 over everything except the CRC field.
pub fn frame_payload(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    FRAME_MAGIC.write(&mut buf);
    FRAME_VERSION.write(&mut buf);
    seq.write(&mut buf);
    (payload.len() as u32).write(&mut buf);
    let crc = !crc32_update(crc32_update(!0, &buf), payload);
    crc.write(&mut buf);
    buf.extend_from_slice(payload);
    buf
}

// ---------------------------------------------------------------------------
// Chunk frames (format version 2): bounded slices of one logical payload.
// ---------------------------------------------------------------------------

/// Chunk-frame format version.
pub const CHUNK_VERSION: u16 = 2;

/// Chunk header: magic(2) + version(2) + seq(8) + chunk(4) + flags(4) +
/// len(4) + crc(4).
pub const CHUNK_HEADER: usize = 28;

/// Maximum payload bytes carried by one chunk frame.
///
/// Large exchange payloads are cut into chunks of at most this many bytes,
/// so a lost or corrupted frame costs one chunk retransmit instead of the
/// whole payload, and receivers can start combining before the last byte
/// arrives.
pub const CHUNK_PAYLOAD: usize = 16 * 1024;

/// Flag bit marking the final chunk of a logical payload.
pub const CHUNK_FLAG_LAST: u32 = 1;

/// A parsed chunk frame: which exchange it belongs to (`seq`), its index
/// within that exchange's stream to one destination, and whether it closes
/// the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeader {
    /// Exchange sequence number (shared by every chunk of one exchange).
    pub seq: u64,
    /// Zero-based chunk index within the per-destination stream.
    pub chunk: u32,
    /// True for the stream's final chunk (highest index): the last data
    /// chunk, or a header-only frame when the payload is empty.
    pub last: bool,
}

/// Wraps one payload slice in a validated chunk frame: magic, version 2,
/// exchange sequence number, chunk index, flags, payload length, and a
/// CRC32 over everything except the CRC field.
pub fn frame_chunk(seq: u64, chunk: u32, last: bool, payload: &[u8]) -> Vec<u8> {
    let mut buf = chunk_header(seq, chunk, last, payload.len());
    let crc = !crc32_update(crc32_update(!0, &buf), payload);
    crc.write(&mut buf);
    buf.extend_from_slice(payload);
    buf
}

/// [`frame_chunk`] for a carrier that can neither lose nor corrupt frames:
/// the same layout with the CRC field left zero, so framing costs one copy
/// and no checksum pass. Only [`parse_chunk_unchecked`] accepts the result.
pub fn frame_chunk_unchecked(seq: u64, chunk: u32, last: bool, payload: &[u8]) -> Vec<u8> {
    let mut buf = chunk_header(seq, chunk, last, payload.len());
    0u32.write(&mut buf);
    buf.extend_from_slice(payload);
    buf
}

/// The chunk header up to (not including) the CRC field, in a buffer sized
/// for the whole frame.
fn chunk_header(seq: u64, chunk: u32, last: bool, len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(CHUNK_HEADER + len);
    FRAME_MAGIC.write(&mut buf);
    CHUNK_VERSION.write(&mut buf);
    seq.write(&mut buf);
    chunk.write(&mut buf);
    (if last { CHUNK_FLAG_LAST } else { 0 }).write(&mut buf);
    (len as u32).write(&mut buf);
    buf
}

/// Validates a frame produced by [`frame_chunk`], returning its header and
/// payload.
pub fn parse_chunk(frame: &[u8]) -> Result<(ChunkHeader, &[u8]), FrameError> {
    let (header, payload) = parse_chunk_unchecked(frame)?;
    let stored = u32::read(&frame[24..]);
    let computed = !crc32_update(crc32_update(!0, &frame[..24]), payload);
    if stored != computed {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok((header, payload))
}

/// Reads a chunk frame's header and payload, checking magic, version and
/// length but not the CRC: the receive half of [`frame_chunk_unchecked`].
pub fn parse_chunk_unchecked(frame: &[u8]) -> Result<(ChunkHeader, &[u8]), FrameError> {
    if frame.len() < CHUNK_HEADER {
        return Err(FrameError::Truncated);
    }
    if u16::read(frame) != FRAME_MAGIC || u16::read(&frame[2..]) != CHUNK_VERSION {
        return Err(FrameError::BadMagic);
    }
    let seq = u64::read(&frame[4..]);
    let chunk = u32::read(&frame[12..]);
    let flags = u32::read(&frame[16..]);
    let len = u32::read(&frame[20..]) as usize;
    if frame.len().checked_sub(CHUNK_HEADER) != Some(len) {
        return Err(FrameError::LengthMismatch);
    }
    Ok((
        ChunkHeader {
            seq,
            chunk,
            last: flags & CHUNK_FLAG_LAST != 0,
        },
        &frame[CHUNK_HEADER..],
    ))
}

/// Validates a frame produced by [`frame_payload`], returning its sequence
/// number and payload.
pub fn parse_frame(frame: &[u8]) -> Result<(u64, &[u8]), FrameError> {
    if frame.len() < FRAME_HEADER {
        return Err(FrameError::Truncated);
    }
    if u16::read(frame) != FRAME_MAGIC || u16::read(&frame[2..]) != FRAME_VERSION {
        return Err(FrameError::BadMagic);
    }
    let seq = u64::read(&frame[4..]);
    let len = u32::read(&frame[12..]) as usize;
    // Checked subtraction: `FRAME_HEADER + len` could overflow on 32-bit
    // targets for a hostile length field.
    if frame.len().checked_sub(FRAME_HEADER) != Some(len) {
        return Err(FrameError::LengthMismatch);
    }
    let stored = u32::read(&frame[16..]);
    let computed = !crc32_update(
        crc32_update(!0, &frame[..16]),
        &frame[FRAME_HEADER..],
    );
    if stored != computed {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok((seq, &frame[FRAME_HEADER..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut buf = Vec::new();
        0xdead_beefu32.write(&mut buf);
        3.5f64.write(&mut buf);
        true.write(&mut buf);
        assert_eq!(u32::read(&buf), 0xdead_beef);
        assert_eq!(f64::read(&buf[4..]), 3.5);
        assert!(bool::read(&buf[12..]));
    }

    #[test]
    fn roundtrip_tuples() {
        let v = (1u32, (2u64, 3u64));
        let mut buf = Vec::new();
        v.write(&mut buf);
        assert_eq!(<(u32, (u64, u64))>::read(&buf), v);
        assert_eq!(buf.len(), <(u32, (u64, u64))>::SIZE);
    }

    #[test]
    fn slice_roundtrip() {
        let items: Vec<(u32, u64)> = (0..100).map(|i| (i, i as u64 * 7)).collect();
        let buf = encode_slice(&items);
        assert_eq!(buf.len(), 100 * <(u32, u64)>::SIZE);
        assert_eq!(decode_slice::<(u32, u64)>(&buf), items);
        assert_eq!(iter_decoded::<(u32, u64)>(&buf).count(), 100);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_decode_panics() {
        decode_slice::<u64>(&[0u8; 7]);
    }

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello kimbap".to_vec();
        let frame = frame_payload(42, &payload);
        assert_eq!(frame.len(), FRAME_HEADER + payload.len());
        let (seq, got) = parse_frame(&frame).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(got, &payload[..]);
    }

    #[test]
    fn empty_payload_frames() {
        let frame = frame_payload(0, &[]);
        assert_eq!(frame.len(), FRAME_HEADER);
        assert_eq!(parse_frame(&frame).unwrap(), (0, &[][..]));
    }

    #[test]
    fn truncated_and_wrong_magic_rejected() {
        let frame = frame_payload(1, b"xy");
        assert_eq!(parse_frame(&frame[..10]), Err(FrameError::Truncated));
        let mut bad = frame.clone();
        bad[0] ^= 0xFF;
        assert_eq!(parse_frame(&bad), Err(FrameError::BadMagic));
        let mut short = frame;
        short.pop();
        assert_eq!(parse_frame(&short), Err(FrameError::LengthMismatch));
    }

    #[test]
    fn every_single_bit_flip_detected_small() {
        // Exhaustive check on a small frame; the proptest in tests/prop.rs
        // covers random payloads the same way.
        let frame = frame_payload(7, b"abc");
        for bit in 0..frame.len() * 8 {
            let mut f = frame.clone();
            f[bit / 8] ^= 1 << (bit % 8);
            assert!(parse_frame(&f).is_err(), "undetected flip at bit {bit}");
        }
    }

    #[test]
    fn chunk_roundtrip_and_flags() {
        let frame = frame_chunk(9, 3, false, b"mid chunk");
        assert_eq!(frame.len(), CHUNK_HEADER + 9);
        let (h, body) = parse_chunk(&frame).unwrap();
        assert_eq!(h, ChunkHeader { seq: 9, chunk: 3, last: false });
        assert_eq!(body, b"mid chunk");

        let term = frame_chunk(9, 4, true, &[]);
        assert_eq!(term.len(), CHUNK_HEADER);
        let (h, body) = parse_chunk(&term).unwrap();
        assert_eq!(h, ChunkHeader { seq: 9, chunk: 4, last: true });
        assert!(body.is_empty());
    }

    #[test]
    fn unchecked_chunks_skip_only_the_crc() {
        let frame = frame_chunk_unchecked(9, 3, true, b"tail chunk");
        assert_eq!(frame.len(), CHUNK_HEADER + 10);
        let (h, body) = parse_chunk_unchecked(&frame).unwrap();
        assert_eq!(h, ChunkHeader { seq: 9, chunk: 3, last: true });
        assert_eq!(body, b"tail chunk");
        // The checked parser refuses the zeroed CRC field; the unchecked
        // parser reads a checked frame and still validates shape.
        assert_eq!(parse_chunk(&frame), Err(FrameError::ChecksumMismatch));
        let checked = frame_chunk(9, 3, true, b"tail chunk");
        assert_eq!(parse_chunk_unchecked(&checked).unwrap(), (h, body));
        assert_eq!(parse_chunk_unchecked(&frame[..10]), Err(FrameError::Truncated));
        assert_eq!(
            parse_chunk_unchecked(&frame[..frame.len() - 1]),
            Err(FrameError::LengthMismatch)
        );
        let mut bad = frame;
        bad[0] ^= 0xFF;
        assert_eq!(parse_chunk_unchecked(&bad), Err(FrameError::BadMagic));
    }

    #[test]
    fn chunk_and_v1_frames_reject_each_other() {
        // A v1 frame long enough to carry a full chunk header still fails
        // the version check; a short one fails the length check first.
        let v1 = frame_payload(5, &[7u8; 64]);
        assert_eq!(parse_chunk(&v1), Err(FrameError::BadMagic));
        let short_v1 = frame_payload(5, b"abc");
        assert!(parse_chunk(&short_v1).is_err());
        let v2 = frame_chunk(5, 0, true, b"abc");
        assert_eq!(parse_frame(&v2), Err(FrameError::BadMagic));
    }

    #[test]
    fn every_single_bit_flip_detected_chunk() {
        let frame = frame_chunk(7, 1, true, b"abc");
        for bit in 0..frame.len() * 8 {
            let mut f = frame.clone();
            f[bit / 8] ^= 1 << (bit % 8);
            assert!(parse_chunk(&f).is_err(), "undetected flip at bit {bit}");
        }
    }

    #[test]
    fn chunk_parser_survives_truncation_and_garbage() {
        let frame = frame_chunk(3, 2, false, b"abcdef");
        assert_eq!(parse_chunk(&frame[..10]), Err(FrameError::Truncated));
        let mut short = frame.clone();
        short.pop();
        assert_eq!(parse_chunk(&short), Err(FrameError::LengthMismatch));
        for n in 0..64usize {
            let junk: Vec<u8> = (0..n).map(|i| (i * 53 + n) as u8).collect();
            assert!(parse_chunk(&junk).is_err());
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn try_read_rejects_short_buffers() {
        assert_eq!(u64::try_read(&[0u8; 7]), Err(FrameError::Truncated));
        assert_eq!(bool::try_read(&[]), Err(FrameError::Truncated));
        assert_eq!(
            <(u32, u64)>::try_read(&[0u8; 11]),
            Err(FrameError::Truncated)
        );
        assert_eq!(u32::try_read(&[1, 0, 0, 0, 9]), Ok(1));
    }

    #[test]
    fn try_decode_slice_rejects_misaligned() {
        assert_eq!(
            try_decode_slice::<u64>(&[0u8; 7]),
            Err(FrameError::LengthMismatch)
        );
        let buf = encode_slice(&[3u64, 4]);
        assert_eq!(try_decode_slice::<u64>(&buf), Ok(vec![3, 4]));
    }

    #[test]
    fn parse_frame_rejects_garbage_without_panicking() {
        // Arbitrary byte soups, including ones that look header-shaped.
        for n in 0..64usize {
            let junk: Vec<u8> = (0..n).map(|i| (i * 37 + n) as u8).collect();
            assert!(parse_frame(&junk).is_err());
        }
        // A frame whose header claims more payload than arrived.
        let mut frame = frame_payload(3, b"abcdef");
        frame.truncate(FRAME_HEADER + 2);
        assert!(parse_frame(&frame).is_err());
    }
}
