//! Delta and flat byte codecs for [`PackedState`] — the wire format of the
//! spillable frontier.
//!
//! A breadth-first frontier past a memory budget must leave RAM, and a
//! [`PackedState`] is already three flat arrays, so it serialises without
//! reflection or allocation tricks. Two encodings are provided:
//!
//! - **flat** ([`encode_flat`] / [`decode_flat`]): the whole state,
//!   varint-packed — the self-contained record a spill run starts with;
//! - **delta** ([`encode_delta`] / [`apply_delta`]): a child encoded as the
//!   positional difference against a base state. One step changes one
//!   process id, at most a handful of cell words, and the two counters —
//!   exactly the footprint a [`super::PackedUndo`] reverts — so consecutive
//!   frontier entries (siblings or cousins in admission order) differ in
//!   O(step footprint) positions and the delta is a few bytes where the flat
//!   record is proportional to the configuration.
//!
//! Both decoders are **total**: any input byte slice produces either a state
//! or a typed [`DeltaError`] — never a panic and never a silent truncation.
//! Decoding is strict (trailing bytes are an error), so a record embedded in
//! a larger spill frame is framed by its caller with a length prefix.
//!
//! # Wire format
//!
//! All integers are LEB128 varints (7 value bits per byte, little-endian
//! groups, at most 10 bytes for a `u64`). Cell words are stored as their
//! packed `u64` encoding verbatim — inline small non-negative integers, `⊥`
//! and interner references are all short varints; only inline *negative*
//! integers pay the full 10 bytes.
//!
//! ```text
//! flat  := n:varint  proc_id:varint ×n  decided ×n
//!          cells_len:varint  word:varint ×cells_len
//!          touched:varint  steps:varint
//! delta := steps:varint  touched:varint
//!          k:varint  (index:varint  proc_id:varint) ×k
//!          k:varint  (index:varint  decided)        ×k
//!          cells_len:varint
//!          k:varint  (index:varint  word:varint)    ×k
//! decided := 0x00 | 0x01 value:varint
//! ```
//!
//! A delta's cell changes are the positions where the child differs from the
//! base *viewed at the child's length*: every location the child grew into
//! is recorded (the decoder cannot know the memory's default word), and a
//! shorter child simply truncates. Ids are table indices into the producing
//! [`super::PackedCtx`] — the codec moves bytes, not semantics, so a decoded
//! state is only meaningful next to the context that encoded it.

use super::frame::FieldReader;
use super::PackedState;
use std::fmt;

/// Why a byte slice failed to decode. Every variant is a property of the
/// *input*, so corrupt spill records and fuzzed garbage surface as values,
/// not panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The input ended in the middle of a field.
    Truncated,
    /// A varint ran past 10 bytes or past the value range of `u64`.
    VarintOverflow,
    /// A delta named a process or cell index outside the decoded state.
    IndexOutOfRange {
        /// The offending index.
        index: u64,
        /// The length it had to be below.
        len: usize,
    },
    /// A tag byte was neither of its legal values.
    InvalidTag(u8),
    /// Decoding finished with input left over (strict framing).
    TrailingBytes {
        /// How many bytes were not consumed.
        remaining: usize,
    },
    /// A length field claims more elements than the input could possibly
    /// encode (guards allocation-size attacks from corrupt records: nothing
    /// is reserved or resized past what the remaining bytes can justify).
    LengthOverflow {
        /// The claimed element count.
        len: u64,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Truncated => write!(f, "input truncated mid-field"),
            DeltaError::VarintOverflow => write!(f, "varint exceeds u64"),
            DeltaError::IndexOutOfRange { index, len } => {
                write!(f, "index {index} out of range for length {len}")
            }
            DeltaError::InvalidTag(t) => write!(f, "invalid tag byte {t:#04x}"),
            DeltaError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete record")
            }
            DeltaError::LengthOverflow { len } => {
                write!(f, "implausible length field {len}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

/// Appends `value` as a LEB128 varint (the spill wire primitive).
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from the front of `bytes`.
///
/// # Errors
///
/// [`DeltaError::Truncated`] if the slice ends mid-varint,
/// [`DeltaError::VarintOverflow`] past 10 bytes or the `u64` range.
pub fn read_varint(bytes: &mut &[u8]) -> Result<u64, DeltaError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = bytes.split_first().ok_or(DeltaError::Truncated)?;
        *bytes = rest;
        let payload = u64::from(byte & 0x7f);
        if shift >= 63 && payload > (u64::MAX >> shift) {
            return Err(DeltaError::VarintOverflow);
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(DeltaError::VarintOverflow);
        }
    }
}

fn write_decided(out: &mut Vec<u8>, decided: Option<u64>) {
    match decided {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            write_varint(out, v);
        }
    }
}

fn read_decided(r: &mut FieldReader<'_>) -> Result<Option<u64>, DeltaError> {
    Ok(if r.bool()? { Some(r.varint()?) } else { None })
}

/// A process id: a varint that must fit `u32`.
fn read_id(r: &mut FieldReader<'_>) -> Result<u32, DeltaError> {
    u32::try_from(r.varint()?).map_err(|_| DeltaError::VarintOverflow)
}

// ---------------------------------------------------------------------------
// Flat records
// ---------------------------------------------------------------------------

/// Appends the varint-packed flat encoding of `state` to `out` — the
/// self-contained record format of a spill run's first entry.
pub fn encode_flat(state: &PackedState, out: &mut Vec<u8>) {
    write_varint(out, state.procs.len() as u64);
    for &id in &state.procs {
        write_varint(out, u64::from(id));
    }
    for &d in &state.decided {
        write_decided(out, d);
    }
    write_varint(out, state.cells.len() as u64);
    for &word in &state.cells {
        write_varint(out, word);
    }
    write_varint(out, state.touched as u64);
    write_varint(out, state.steps);
}

/// Decodes a flat record, consuming the slice exactly.
///
/// # Errors
///
/// Any [`DeltaError`]; arbitrary input never panics.
pub fn decode_flat(bytes: &[u8]) -> Result<PackedState, DeltaError> {
    let mut r = FieldReader::new(bytes);
    let n = r.count(1)?;
    let mut procs = Vec::with_capacity(n);
    for _ in 0..n {
        procs.push(read_id(&mut r)?);
    }
    let mut decided = Vec::with_capacity(n);
    for _ in 0..n {
        decided.push(read_decided(&mut r)?);
    }
    let cells_len = r.count(1)?;
    let mut cells = Vec::with_capacity(cells_len);
    for _ in 0..cells_len {
        cells.push(r.varint()?);
    }
    let touched = r.usize()?;
    let steps = r.varint()?;
    r.end()?;
    Ok(PackedState {
        procs,
        decided,
        cells,
        touched,
        steps,
    })
}

// ---------------------------------------------------------------------------
// Deltas
// ---------------------------------------------------------------------------

/// Appends `child` encoded as a positional delta against `base` to `out`.
///
/// Works for *any* pair with equal process counts — in practice base and
/// child are consecutive frontier entries, where the changed positions are
/// exactly the step footprint a [`super::PackedUndo`] records, so the delta
/// is a few bytes. Round-trips bit-identically:
/// `apply_delta(base, &delta) == child`, field for field.
///
/// # Panics
///
/// Panics if the process counts differ — states from one exploration run
/// always agree on `n`, so a mismatch is caller error, not data corruption.
pub fn encode_delta(base: &PackedState, child: &PackedState, out: &mut Vec<u8>) {
    assert_eq!(
        base.procs.len(),
        child.procs.len(),
        "delta base and child must have the same process count"
    );
    write_varint(out, child.steps);
    write_varint(out, child.touched as u64);
    // Each change list is written count-first, so the encoder scans twice:
    // once to count, once to emit. The arrays are a handful of cache-hot
    // words, so the second scan is cheaper than materialising a change list
    // per record — spill runs encode thousands of records back to back, and
    // this keeps the whole encoder allocation-free.
    let proc_changes = (0..child.procs.len()).filter(|&i| base.procs[i] != child.procs[i]);
    write_varint(out, proc_changes.clone().count() as u64);
    for i in proc_changes {
        write_varint(out, i as u64);
        write_varint(out, u64::from(child.procs[i]));
    }
    let decided_changes = (0..child.decided.len()).filter(|&i| base.decided[i] != child.decided[i]);
    write_varint(out, decided_changes.clone().count() as u64);
    for i in decided_changes {
        write_varint(out, i as u64);
        write_decided(out, child.decided[i]);
    }
    write_varint(out, child.cells.len() as u64);
    // Changed = differs from the base *viewed at the child's length*: grown
    // locations always differ (the base has no word there) and are recorded,
    // so the decoder never has to invent a default word.
    let cell_changes =
        (0..child.cells.len()).filter(|&i| base.cells.get(i) != Some(&child.cells[i]));
    write_varint(out, cell_changes.clone().count() as u64);
    for i in cell_changes {
        write_varint(out, i as u64);
        write_varint(out, child.cells[i]);
    }
}

/// Reconstructs the child `encode_delta(base, child)` encoded, consuming the
/// slice exactly.
///
/// # Errors
///
/// Any [`DeltaError`]; arbitrary input never panics. Note that a *valid*
/// frame applied to the wrong base decodes without error into a state that
/// is not the original child — deltas carry positions, not checksums; pair
/// them with the base they were encoded against (spill runs do this by
/// construction: each record's base is the record before it).
pub fn apply_delta(base: &PackedState, bytes: &[u8]) -> Result<PackedState, DeltaError> {
    let mut state = base.clone();
    apply_delta_into(&mut state, bytes)?;
    Ok(state)
}

/// [`apply_delta`] without the base clone: patches `state` — the delta's
/// base — into the child **in place**, touching only the changed positions.
/// The workhorse of spill-run stream-back, where consecutive records chain
/// (each record's base is the previous record's decoded state) and the base
/// is never needed again.
///
/// # Errors
///
/// Any [`DeltaError`]; arbitrary input never panics. On error `state` may
/// hold a partial patch — callers treat a failed decode as fatal for the
/// run, never as a value.
pub fn apply_delta_into(state: &mut PackedState, bytes: &[u8]) -> Result<(), DeltaError> {
    let mut r = FieldReader::new(bytes);
    state.steps = r.varint()?;
    state.touched = r.usize()?;
    for _ in 0..r.count(1)? {
        let index = r.varint()?;
        let id = read_id(&mut r)?;
        let len = state.procs.len();
        let slot = usize::try_from(index)
            .ok()
            .and_then(|i| state.procs.get_mut(i))
            .ok_or(DeltaError::IndexOutOfRange { index, len })?;
        *slot = id;
    }
    for _ in 0..r.count(1)? {
        let index = r.varint()?;
        let value = read_decided(&mut r)?;
        let len = state.decided.len();
        let slot = usize::try_from(index)
            .ok()
            .and_then(|i| state.decided.get_mut(i))
            .ok_or(DeltaError::IndexOutOfRange { index, len })?;
        *slot = value;
    }
    // The child's cell count is mostly *unencoded* cells inherited from the
    // base, so it cannot be bounded by the input size alone — but every
    // grown position must appear in the change list, so a well-formed
    // record never exceeds base length + remaining bytes. Rejecting beyond
    // that keeps the resize below allocation-attack scale.
    let cells_len = r.varint()?;
    if cells_len > (state.cells.len() + r.rest().len()) as u64 {
        return Err(DeltaError::LengthOverflow { len: cells_len });
    }
    let cells_len = cells_len as usize;
    // Grown positions are all listed as changes; the placeholder word below
    // is overwritten by a well-formed delta and only survives corrupt input
    // (where any fixed word is as good as any other).
    state.cells.resize(cells_len, super::TAG_BOT);
    for _ in 0..r.count(1)? {
        let index = r.varint()?;
        let word = r.varint()?;
        let slot = usize::try_from(index)
            .ok()
            .and_then(|i| state.cells.get_mut(i))
            .ok_or(DeltaError::IndexOutOfRange {
                index,
                len: cells_len,
            })?;
        *slot = word;
    }
    r.end()
}

#[cfg(test)]
mod tests {
    use super::super::tests::adder_setup;
    use super::*;

    #[test]
    fn varints_roundtrip_across_the_range() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut slice = buf.as_slice();
            assert_eq!(read_varint(&mut slice), Ok(v));
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn overlong_varints_are_rejected() {
        // 10 continuation bytes, then more: past the u64 range.
        let mut bytes: &[u8] = &[0xff; 11];
        assert_eq!(read_varint(&mut bytes), Err(DeltaError::VarintOverflow));
        // 10th byte carries bits beyond 2^64.
        let mut bytes: &[u8] = &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7f];
        assert_eq!(read_varint(&mut bytes), Err(DeltaError::VarintOverflow));
        let mut bytes: &[u8] = &[0x80, 0x80];
        assert_eq!(read_varint(&mut bytes), Err(DeltaError::Truncated));
    }

    #[test]
    fn flat_roundtrip_and_strictness() {
        let (ctx, mut state) = adder_setup(3, 2);
        ctx.step(&mut state, 1).unwrap();
        let mut buf = Vec::new();
        encode_flat(&state, &mut buf);
        assert_eq!(decode_flat(&buf), Ok(state.clone()));
        let mut padded = buf.clone();
        padded.push(0);
        assert_eq!(
            decode_flat(&padded),
            Err(DeltaError::TrailingBytes { remaining: 1 })
        );
        assert_eq!(
            decode_flat(&buf[..buf.len() - 1]),
            Err(DeltaError::Truncated)
        );
    }

    #[test]
    fn delta_roundtrips_one_step() {
        let (ctx, parent) = adder_setup(3, 3);
        for pid in 0..3 {
            let child = ctx.branch_step(&parent, pid).unwrap();
            let mut delta = Vec::new();
            encode_delta(&parent, &child, &mut delta);
            let mut flat = Vec::new();
            encode_flat(&child, &mut flat);
            assert!(delta.len() < flat.len(), "delta must beat the flat record");
            assert_eq!(apply_delta(&parent, &delta), Ok(child));
        }
    }

    #[test]
    fn delta_records_grown_and_truncated_cells() {
        let (ctx, base) = adder_setup(2, 1);
        let mut grown = base.clone();
        ctx.step(&mut grown, 0).unwrap();
        let mut delta = Vec::new();
        encode_delta(&base, &grown, &mut delta);
        assert_eq!(apply_delta(&base, &delta), Ok(grown.clone()));
        // The reverse direction truncates: still an exact round-trip.
        let mut back = Vec::new();
        encode_delta(&grown, &base, &mut back);
        assert_eq!(apply_delta(&grown, &back), Ok(base));
    }

    #[test]
    fn corrupt_deltas_yield_typed_errors() {
        let (ctx, parent) = adder_setup(2, 2);
        let child = ctx.branch_step(&parent, 0).unwrap();
        let mut delta = Vec::new();
        encode_delta(&parent, &child, &mut delta);
        assert_eq!(
            apply_delta(&parent, &delta[..delta.len() - 1]),
            Err(DeltaError::Truncated)
        );
        // An absurd index is caught by the bounds check.
        let mut bad = Vec::new();
        write_varint(&mut bad, 0); // steps
        write_varint(&mut bad, 0); // touched
        write_varint(&mut bad, 1); // one proc change...
        write_varint(&mut bad, 99); // ...at index 99 of 2
        write_varint(&mut bad, 0);
        assert_eq!(
            apply_delta(&parent, &bad),
            Err(DeltaError::IndexOutOfRange { index: 99, len: 2 })
        );
        // A decided tag outside {0, 1}.
        let mut bad = Vec::new();
        for _ in 0..2 {
            write_varint(&mut bad, 0);
        }
        write_varint(&mut bad, 0); // no proc changes
        write_varint(&mut bad, 1); // one decided change
        write_varint(&mut bad, 0); // index 0
        bad.push(7); // invalid tag
        assert_eq!(apply_delta(&parent, &bad), Err(DeltaError::InvalidTag(7)));
    }

    #[test]
    fn implausible_lengths_are_rejected_before_allocating() {
        // A flat record claiming 2^32 processes in a 5-byte input: the count
        // exceeds what the remaining bytes could encode, so it is rejected
        // before any reserve.
        let mut bad = Vec::new();
        write_varint(&mut bad, 1 << 32);
        assert_eq!(
            decode_flat(&bad),
            Err(DeltaError::LengthOverflow { len: 1 << 32 })
        );
        // A delta claiming a multi-gigabyte cell resize against a tiny base:
        // rejected because every grown cell must be paid for in input bytes.
        let (_, parent) = adder_setup(2, 1);
        let mut bad = Vec::new();
        write_varint(&mut bad, 0); // steps
        write_varint(&mut bad, 0); // touched
        write_varint(&mut bad, 0); // no proc changes
        write_varint(&mut bad, 0); // no decided changes
        write_varint(&mut bad, 1 << 33); // cells_len
        write_varint(&mut bad, 0); // no cell changes
        assert_eq!(
            apply_delta(&parent, &bad),
            Err(DeltaError::LengthOverflow { len: 1 << 33 })
        );
        // 2^62 elements of 16 bytes: a wrapping multiply would read 0 bytes.
        let mut huge = Vec::new();
        write_varint(&mut huge, 1 << 62);
        assert_eq!(
            FieldReader::new(&huge).count(16),
            Err(DeltaError::LengthOverflow { len: 1 << 62 })
        );
    }
}
