//! Length-prefixed, CRC-guarded frames: the one checked container for
//! every byte the explorer reads back.
//!
//! They carry the shard exchange (`cbh_verify::dist`), checkpoint
//! snapshots (`cbh_verify::snapshot`, a stream of frames) and spilled
//! frontier runs (`cbh_verify::frontier`, a frame per run). A frame
//! either round-trips bit-exactly or fails with a typed [`FrameError`];
//! the decoders never panic on hostile bytes. What frames *mean* is the
//! consumer's business; consumers read payload fields through one total
//! cursor, [`FieldReader`], which fails with the varint codec's
//! [`DeltaError`].
//!
//! ## Wire layout
//!
//! ```text
//! offset  size  field
//!      0     4  magic "CBF1"
//!      4     1  format version (1)
//!      5     1  frame kind (opaque to this layer)
//!      6     4  payload length, u32 little-endian
//!     10   len  payload bytes
//! 10+len     4  CRC32 (IEEE) of bytes 4..10+len (version..payload)
//! ```
//!
//! The magic is a resynchronisation sentinel and is deliberately outside
//! the CRC; everything else — version, kind, length, payload — is covered,
//! so a flipped bit fails typed instead of smuggling in a different frame.

use super::delta::{read_varint, DeltaError};
use std::fmt;
use std::io::Read;

/// Frame magic: "CBF1" (Consensus-Bounds Frame, format 1).
pub const FRAME_MAGIC: [u8; 4] = *b"CBF1";

/// Current frame format version.
pub const FRAME_VERSION: u8 = 1;

/// Hard ceiling on a single frame's payload. A length field past this is
/// rejected *before* any allocation, so hostile bytes cannot ask the
/// decoder for gigabytes.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Frame header bytes preceding the payload (magic + version + kind + len).
pub const FRAME_HEADER_LEN: usize = 10;

/// Trailing CRC bytes.
pub const FRAME_TRAILER_LEN: usize = 4;

/// A typed frame-decoding failure. Total: every byte sequence decodes to
/// frames or to one of these — never a panic, never an oversized
/// allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The input ended inside a frame (header, payload or CRC trailer).
    Truncated,
    /// The first four bytes are not [`FRAME_MAGIC`].
    BadMagic {
        /// The bytes found where the magic belongs.
        found: [u8; 4],
    },
    /// The version byte names a format this decoder does not speak.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// The length field exceeds [`MAX_FRAME_PAYLOAD`].
    Oversize {
        /// The claimed payload length.
        len: u64,
    },
    /// The frame's CRC32 does not match its bytes.
    CrcMismatch {
        /// CRC recorded in the frame trailer.
        expected: u32,
        /// CRC computed over the received bytes.
        found: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic { found } => {
                write!(f, "bad frame magic {found:02x?} (expected {FRAME_MAGIC:02x?})")
            }
            FrameError::UnsupportedVersion { found } => {
                write!(f, "unsupported frame version {found} (expected {FRAME_VERSION})")
            }
            FrameError::Oversize { len } => {
                write!(f, "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap")
            }
            FrameError::CrcMismatch { expected, found } => {
                write!(f, "frame CRC mismatch: recorded {expected:#010x}, computed {found:#010x}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

// ---------------------------------------------------------------------------
// CRC32 (IEEE), slicing-by-8, tables generated at compile time
// ---------------------------------------------------------------------------

/// `CRC32_TABLES[0]` is the bytewise table of the reflected IEEE
/// polynomial; `CRC32_TABLES[k][b]` is the CRC state after byte `b`
/// followed by `k` zero bytes, so eight table lookups advance the CRC by
/// eight bytes at once.
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
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE) of `bytes`: the frame checksum.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Encode / decode
// ---------------------------------------------------------------------------

/// Appends one frame carrying `payload` under `kind` to `out`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_PAYLOAD`] — producers size their
/// batches; only *decoders* must survive hostile lengths.
pub fn encode_frame(kind: u8, payload: &[u8], out: &mut Vec<u8>) {
    assert!(
        payload.len() <= MAX_FRAME_PAYLOAD,
        "frame payload of {} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap",
        payload.len()
    );
    let start = out.len();
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Total byte length of a frame carrying a `payload_len`-byte payload.
pub const fn frame_len(payload_len: usize) -> usize {
    FRAME_HEADER_LEN + payload_len + FRAME_TRAILER_LEN
}

/// Decodes the frame at the front of `bytes`.
///
/// Returns `Ok(Some((kind, payload, consumed)))` for a complete valid
/// frame, `Ok(None)` when `bytes` is a (possibly empty) *prefix* of a valid
/// frame — the streaming "need more bytes" signal — and a typed error for
/// anything else.
///
/// # Errors
///
/// [`FrameError::BadMagic`], [`FrameError::UnsupportedVersion`] and
/// [`FrameError::Oversize`] fire as soon as the offending header bytes are
/// present; [`FrameError::CrcMismatch`] once the whole frame is.
#[allow(clippy::type_complexity)]
pub fn decode_frame(bytes: &[u8]) -> Result<Option<(u8, &[u8], usize)>, FrameError> {
    let ready = bytes.len().min(4);
    if bytes[..ready] != FRAME_MAGIC[..ready] {
        let mut found = [0u8; 4];
        found[..ready].copy_from_slice(&bytes[..ready]);
        return Err(FrameError::BadMagic { found });
    }
    if bytes.len() > 4 && bytes[4] != FRAME_VERSION {
        return Err(FrameError::UnsupportedVersion { found: bytes[4] });
    }
    if bytes.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes(bytes[6..10].try_into().expect("4 length bytes")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversize { len: len as u64 });
    }
    let total = frame_len(len);
    if bytes.len() < total {
        return Ok(None);
    }
    let expected = u32::from_le_bytes(
        bytes[total - FRAME_TRAILER_LEN..total].try_into().expect("4 CRC bytes"),
    );
    let found = crc32(&bytes[4..total - FRAME_TRAILER_LEN]);
    if expected != found {
        return Err(FrameError::CrcMismatch { expected, found });
    }
    Ok(Some((bytes[5], &bytes[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len], total)))
}

/// [`decode_frame`] for inputs claimed complete: a prefix-of-a-frame input
/// is [`FrameError::Truncated`] instead of "wait for more".
///
/// # Errors
///
/// Every [`decode_frame`] error, plus [`FrameError::Truncated`] for
/// incomplete inputs.
pub fn decode_frame_exact(bytes: &[u8]) -> Result<(u8, &[u8], usize), FrameError> {
    decode_frame(bytes)?.ok_or(FrameError::Truncated)
}

// ---------------------------------------------------------------------------
// Streaming reassembly
// ---------------------------------------------------------------------------

/// Reassembles frames from arbitrarily fragmented byte chunks: a socket
/// read may end mid-header or mid-payload, and the next chunk continues
/// exactly where it stopped.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by yielded frames. Compacted lazily
    /// so every `next_frame` is amortised O(frame size).
    pos: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends one received chunk (any size, including empty).
    pub fn push(&mut self, chunk: &[u8]) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// The next complete frame, if the buffered bytes contain one.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Propagates [`decode_frame`]'s typed errors; the reader is then
    /// poisoned garbage-in-garbage-out (resynchronisation is the caller's
    /// policy, and the distributed explorer treats it as fatal).
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
        match decode_frame(&self.buf[self.pos..])? {
            Some((kind, payload, consumed)) => {
                let payload = payload.to_vec();
                self.pos += consumed;
                Ok(Some((kind, payload)))
            }
            None => Ok(None),
        }
    }

    /// `true` if consumed-but-unyielded bytes remain — a closed stream with
    /// a dangling partial frame was truncated mid-frame.
    pub fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Reads one chunk from `r` into the buffer; `Ok(0)` is end-of-stream.
    ///
    /// # Errors
    ///
    /// Propagates the reader's IO error.
    pub fn fill_from<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        let mut chunk = [0u8; 16 * 1024];
        let n = r.read(&mut chunk)?;
        self.push(&chunk[..n]);
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Payload fields
// ---------------------------------------------------------------------------

/// A total cursor over one payload's fields. Every call returns the next
/// field or a typed [`DeltaError`] ([`DeltaError::Truncated`] when the
/// payload ends inside it); none panics, and no count may claim more
/// elements than the bytes left could encode.
#[derive(Debug, Clone)]
pub struct FieldReader<'a> {
    bytes: &'a [u8],
}

impl<'a> FieldReader<'a> {
    /// A cursor at the start of `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        FieldReader { bytes: payload }
    }

    /// The next LEB128 varint, as [`read_varint`] reads it.
    pub fn varint(&mut self) -> Result<u64, DeltaError> {
        read_varint(&mut self.bytes)
    }

    /// The next varint as a `usize` ([`DeltaError::VarintOverflow`] past it).
    pub fn usize(&mut self) -> Result<usize, DeltaError> {
        usize::try_from(self.varint()?).map_err(|_| DeltaError::VarintOverflow)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, DeltaError> {
        let (&byte, rest) = self.bytes.split_first().ok_or(DeltaError::Truncated)?;
        self.bytes = rest;
        Ok(byte)
    }

    /// The next byte as a flag: `0` or `1`, else [`DeltaError::InvalidTag`].
    pub fn bool(&mut self) -> Result<bool, DeltaError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DeltaError::InvalidTag(other)),
        }
    }

    /// The next 16-byte little-endian fingerprint.
    pub fn fp(&mut self) -> Result<u128, DeltaError> {
        let split = self.bytes.split_first_chunk::<16>();
        let (fp, rest) = split.ok_or(DeltaError::Truncated)?;
        self.bytes = rest;
        Ok(u128::from_le_bytes(*fp))
    }

    /// An element count, each element at least `min_elem_bytes` long: a
    /// count the bytes left cannot encode is [`DeltaError::LengthOverflow`],
    /// so a corrupt one never drives an allocation past the payload's size.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, DeltaError> {
        let len = self.varint()?;
        if len.saturating_mul(min_elem_bytes as u64) > self.bytes.len() as u64 {
            return Err(DeltaError::LengthOverflow { len });
        }
        Ok(len as usize)
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DeltaError> {
        let len = self.count(1)?;
        let (head, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        Ok(head)
    }

    /// The bytes not yet read; the cursor stays where it is.
    pub fn rest(&self) -> &'a [u8] {
        self.bytes
    }

    /// End of payload: any byte left is [`DeltaError::TrailingBytes`].
    pub fn end(&self) -> Result<(), DeltaError> {
        match self.bytes.len() {
            0 => Ok(()),
            remaining => Err(DeltaError::TrailingBytes { remaining }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise CRC32 the slicing-by-8 version must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_the_bytewise_reference() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "IEEE check value");
        let buf: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        assert_eq!(crc32(&buf), crc32_bytewise(&buf), "4 KiB buffer");
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "{len} bytes at offset {offset}");
            }
        }
    }

    #[test]
    fn frames_roundtrip() {
        let mut wire = Vec::new();
        encode_frame(7, b"hello", &mut wire);
        encode_frame(9, b"", &mut wire);
        let (kind, payload, used) = decode_frame_exact(&wire).unwrap();
        assert_eq!((kind, payload), (7, &b"hello"[..]));
        let (kind, payload, _) = decode_frame_exact(&wire[used..]).unwrap();
        assert_eq!((kind, payload), (9, &b""[..]));
    }

    #[test]
    fn prefixes_ask_for_more_and_damage_fails_typed() {
        let mut wire = Vec::new();
        encode_frame(3, &[1, 2, 3, 4], &mut wire);
        for cut in 0..wire.len() {
            assert_eq!(decode_frame(&wire[..cut]), Ok(None), "prefix of {cut} bytes");
            assert_eq!(decode_frame_exact(&wire[..cut]), Err(FrameError::Truncated));
        }
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x40;
            assert!(decode_frame_exact(&bad).is_err(), "flip at byte {i} accepted");
        }
        assert!(matches!(
            decode_frame(b"XXXXXXXX"),
            Err(FrameError::BadMagic { .. })
        ));
    }

    #[test]
    fn oversize_lengths_are_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC);
        wire.push(FRAME_VERSION);
        wire.push(0);
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&wire), Err(FrameError::Oversize { .. })));
    }

    #[test]
    fn reader_reassembles_across_arbitrary_splits() {
        let mut wire = Vec::new();
        for k in 0..5u8 {
            encode_frame(k, &vec![k; 3 + k as usize * 7], &mut wire);
        }
        for step in [1usize, 2, 3, 5, 11] {
            let mut reader = FrameReader::new();
            let mut seen = Vec::new();
            for chunk in wire.chunks(step) {
                reader.push(chunk);
                while let Some((kind, payload)) = reader.next_frame().unwrap() {
                    seen.push((kind, payload));
                }
            }
            assert_eq!(seen.len(), 5, "chunk size {step}");
            for (k, (kind, payload)) in seen.iter().enumerate() {
                assert_eq!(*kind, k as u8);
                assert_eq!(payload.len(), 3 + k * 7);
            }
            assert!(!reader.has_partial());
        }
    }
}
