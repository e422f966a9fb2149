//! Length-prefixed, CRC-guarded frames: the shard-exchange wire format.
//!
//! The distributed explorer routes cross-shard candidates between shards
//! over Unix-domain sockets. This module is the *transport* layer of that
//! exchange: byte frames with the same header discipline the snapshot
//! format pins: magic, version, CRC32-per-frame, and typed total decoders
//! that never panic on hostile bytes.
//!
//! What the frames *mean* (message kinds, round protocol, admission
//! verdicts) is the consumer's business (`cbh_verify::dist`, whose
//! payloads are varints and fingerprints, never packed states); this layer
//! only guarantees that a frame either round-trips bit-exactly or fails
//! with a typed [`FrameError`].
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
// CRC32 (IEEE), table generated at compile time — no dependencies
// ---------------------------------------------------------------------------

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the one checksum both this frame format and
/// the explorer's on-disk snapshot format use.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
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
pub fn frame_len(payload_len: usize) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;

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
