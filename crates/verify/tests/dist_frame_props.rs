//! Property tests for the distributed explorer's wire format: the CRC-framed
//! byte frames shards exchange over Unix sockets.
//!
//! - a stream of frames with random kinds and payloads, cut into partial
//!   reads at random points, reassembles through `FrameReader` into exactly
//!   the frames that were encoded, in order;
//! - every strict prefix of a frame is "need more bytes" (streaming) or
//!   [`FrameError::Truncated`] (exact decode) — never a frame, never a panic;
//! - flipping any byte of a frame is a typed [`FrameError`] — the magic check
//!   catches the prelude, the version byte its own flip, and the CRC trailer
//!   everything else;
//! - arbitrary garbage fed to the reader terminates with frames or a typed
//!   error, never a panic or a runaway allocation (the payload cap rejects
//!   absurd lengths before allocating).

use cbh_model::{decode_frame, decode_frame_exact, encode_frame, FrameError, FrameReader};
use proptest::prelude::*;

/// Wire kind used by the tests; the codec treats kinds as opaque.
const KIND: u8 = 3;

/// Splits `bytes` at the (sorted, deduped) cut points and feeds the pieces
/// to a [`FrameReader`], collecting every completed frame.
fn reassemble(bytes: &[u8], cuts: &[usize]) -> Result<Vec<(u8, Vec<u8>)>, FrameError> {
    let mut reader = FrameReader::new();
    let mut frames = Vec::new();
    let mut at = 0usize;
    let mut points: Vec<usize> = cuts.iter().map(|c| c % bytes.len().max(1)).collect();
    points.sort_unstable();
    points.dedup();
    for point in points.into_iter().chain([bytes.len()]) {
        if point <= at {
            continue;
        }
        reader.push(&bytes[at..point]);
        at = point;
        while let Some(frame) = reader.next_frame()? {
            frames.push(frame);
        }
    }
    assert!(!reader.has_partial(), "whole stream consumed");
    Ok(frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fragmented_frame_streams_reassemble_exactly(
        frames in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..600)),
            1..6,
        ),
        cuts in proptest::collection::vec(0usize..4096, 0..12),
    ) {
        let mut wire = Vec::new();
        for (kind, payload) in &frames {
            encode_frame(*kind, payload, &mut wire);
        }
        // However the socket fragments the stream, every frame comes out
        // whole, bit for bit and in send order.
        let decoded = reassemble(&wire, &cuts).expect("honest stream decodes");
        prop_assert_eq!(decoded, frames);
    }

    #[test]
    fn truncated_frames_are_need_more_bytes_never_states(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        kind in any::<u8>(),
    ) {
        let mut wire = Vec::new();
        encode_frame(kind, &payload, &mut wire);
        for cut in 0..wire.len() {
            // Streaming decode: a strict prefix of a valid frame is always
            // an honest "wait for more" — typed errors fire only on bytes
            // that can no longer become a valid frame.
            prop_assert!(decode_frame(&wire[..cut]).unwrap().is_none(), "prefix {cut}");
            // Exact decode of the same prefix is the typed truncation error.
            prop_assert!(
                decode_frame_exact(&wire[..cut]).unwrap_err() == FrameError::Truncated,
                "prefix {cut}"
            );
        }
        let (k, p, consumed) = decode_frame_exact(&wire).expect("whole frame decodes");
        prop_assert_eq!((k, p, consumed), (kind, payload.as_slice(), wire.len()));
    }

    #[test]
    fn every_single_byte_flip_is_a_typed_error(
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        flips in proptest::collection::vec((0usize..4096, 0u8..255), 1..16),
    ) {
        let mut wire = Vec::new();
        encode_frame(KIND, &payload, &mut wire);
        for &(pos, value) in &flips {
            let mut corrupt = wire.clone();
            let at = pos % corrupt.len();
            corrupt[at] ^= value | 1;
            // Magic flips are BadMagic, version flips UnsupportedVersion,
            // length flips Oversize/Truncated/CrcMismatch, and kind,
            // payload or trailer flips CrcMismatch — never Ok, never a
            // panic. (A length flip that *shrinks* the frame is caught by
            // the CRC landing on the wrong bytes.)
            prop_assert!(
                decode_frame_exact(&corrupt).is_err(),
                "flip at {} undetected",
                at
            );
        }
    }

    #[test]
    fn garbage_streams_never_panic_the_reader(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64),
            1..8,
        ),
    ) {
        let mut reader = FrameReader::new();
        'outer: for chunk in &chunks {
            reader.push(chunk);
            loop {
                match reader.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    // Poisoned is a legal terminal state; what matters is
                    // the error being typed, not a panic.
                    Err(_) => break 'outer,
                }
            }
        }
    }
}
