//! Crash-safe checkpoint/resume for long explorations.
//!
//! A checkpoint captures the committer's **logical** state at an admission
//! boundary — the provenance links of every admitted configuration, the
//! commit cursor and layer counters, and the admitted fingerprint set — so
//! a killed run can be resumed bit-identically at any worker count and any
//! memory budget. It deliberately does *not* capture physical layouts (the
//! tiered fingerprint store's hot table, frontier spill runs, intern-table
//! shards): those are resource-telemetry details excluded from
//! [`crate::checker::ExploreStats`] equality, and every one of them is
//! deterministically rebuilt on resume by replaying each pending node's pid
//! path from the root through fresh intern tables. Storing membership
//! instead of layout is what makes a snapshot valid across engines,
//! worker counts and budgets — and keeps it self-contained (arena spill
//! files delete themselves on exit and are never referenced here).
//!
//! # Wire format (version 2)
//!
//! A snapshot is a stream of [`cbh_model::packed::frame`] frames, the
//! same CRC-guarded container the shard exchange and the spilled frontier
//! runs use. Every byte is under the frame magic check or a frame CRC, and
//! all decode paths are total: corrupt, truncated or version-mismatched
//! input returns a typed [`SnapshotError`] and never panics. The file is
//! written atomically (temp file in the same directory, `fsync`, rename),
//! so a crash mid-write leaves the previous snapshot intact.
//!
//! The frames come in this order, each kind exactly as often as shown:
//!
//! | kind | name        | payload                                           |
//! |------|-------------|---------------------------------------------------|
//! | 1    | HEAD        | version (u8, = 2), admitted configuration count   |
//! | 2    | IDENTITY    | protocol name, `n`, inputs, limits, symmetry flag |
//! | 3    | LINKS × k   | chunk length, then per admitted config:           |
//! |      |             | (parent link + 1 or 0, pid), parents nondecreasing|
//! | 4    | SEEN × k    | chunk length, then sorted, deduplicated admitted  |
//! |      |             | fingerprints (16 B LE)                            |
//! | 5    | CURSORS     | commit cursor, frontier peak, depth, complete flag|
//!
//! LINKS and SEEN are cut into chunks of at most `CHUNK` (65,536)
//! entries, so no frame comes near the frame layer's payload cap at any
//! configuration count; the HEAD count says how many entries the chunks
//! hold in all. HEAD comes first so a progress probe
//! ([`Snapshot::peek_configs`]) reads one small frame. Varints are the
//! LEB128 encoding of [`cbh_model::packed::delta`].
//!
//! # Version policy
//!
//! `VERSION` is bumped on **any** layout change; readers reject every
//! version they were not built for ([`SnapshotError::UnsupportedVersion`])
//! instead of best-effort decoding. Old snapshots are cheap to regenerate
//! (re-run to the next checkpoint), so there is no cross-version migration.

use crate::checker::ExploreLimits;
use cbh_model::packed::delta::{write_varint, DeltaError};
use cbh_model::packed::frame::{
    decode_frame_exact, encode_frame, frame_len, FieldReader, FrameError,
};
use cbh_model::Protocol;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Sentinel parent value in [`Snapshot::links`]: the link chain terminator
/// (the root's "parent"). Identical to the engine's internal sentinel.
pub const NO_PARENT: usize = usize::MAX;

const VERSION: u8 = 2;

const K_HEAD: u8 = 1;
const K_IDENTITY: u8 = 2;
const K_LINKS: u8 = 3;
const K_SEEN: u8 = 4;
const K_CURSORS: u8 = 5;

/// Entries per LINKS or SEEN frame: at most 1.3 MB of links or 1 MiB of
/// fingerprints, far below the frame payload cap.
const CHUNK: usize = 1 << 16;

/// Section names by frame kind − 1.
const SECTIONS: [&str; 5] = ["head", "identity", "links", "seen", "cursors"];

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed snapshot failure. Every decode path is total: corrupt, truncated
/// or hostile bytes map to one of these, never a panic or an oversized
/// allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// An underlying filesystem operation failed.
    Io {
        /// What was being attempted (`"read"`, `"write"`, `"rename"`, …).
        op: &'static str,
        /// The OS error kind.
        kind: std::io::ErrorKind,
    },
    /// A frame failed its check where `section` belongs: the input ended
    /// inside it, it lacks the frame magic, or its CRC does not match.
    Frame {
        /// Which section's frame failed (`"head"`, `"identity"`, …).
        section: &'static str,
        /// The frame layer's typed failure.
        err: FrameError,
    },
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion {
        /// The version the file claims.
        found: u32,
    },
    /// Structurally invalid content (bad counts, unsorted fingerprints,
    /// out-of-range indices, trailing bytes, …).
    Malformed {
        /// What was wrong.
        detail: String,
    },
    /// The snapshot is valid but describes a different exploration than the
    /// one resuming from it (protocol, inputs, limits or symmetry differ).
    IdentityMismatch {
        /// Which identity field disagreed, with both values.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { op, kind } => write!(f, "snapshot {op} failed: {kind}"),
            SnapshotError::Frame { section, err } => write!(f, "snapshot {section} frame: {err}"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found} (expected {VERSION})")
            }
            SnapshotError::Malformed { detail } => write!(f, "malformed snapshot: {detail}"),
            SnapshotError::IdentityMismatch { detail } => {
                write!(f, "snapshot identity mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A field that does not parse inside a frame whose CRC checked.
impl From<DeltaError> for SnapshotError {
    fn from(e: DeltaError) -> Self {
        malformed(format!("bad field: {e}"))
    }
}

fn io_err(op: &'static str) -> impl Fn(std::io::Error) -> SnapshotError {
    move |e| SnapshotError::Io { op, kind: e.kind() }
}

fn malformed(detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed {
        detail: detail.into(),
    }
}

/// Splits the next frame off `bytes`; it must be a `want` frame.
fn next_frame<'a>(bytes: &mut &'a [u8], want: u8) -> Result<FieldReader<'a>, SnapshotError> {
    let all: &'a [u8] = bytes;
    let section = SECTIONS[usize::from(want - 1)];
    let (kind, payload, used) = decode_frame_exact(all).map_err(|err| match err {
        // Version 1 files open with the magic "CBHSNAP1".
        FrameError::BadMagic { found } if want == K_HEAD && found == *b"CBHS" => {
            SnapshotError::UnsupportedVersion { found: 1 }
        }
        err => SnapshotError::Frame { section, err },
    })?;
    if kind != want {
        return Err(malformed(format!("{section} frame of kind {kind}")));
    }
    *bytes = &all[used..];
    Ok(FieldReader::new(payload))
}

/// Reads `kind` chunks, each a count and then entries of at least
/// `min_bytes`, until `out` holds `total`; `entry` reads entry `i`. A chunk
/// grows `out` only by what its bytes hold, whatever HEAD's count claims.
fn read_chunks<T>(
    bytes: &mut &[u8],
    (kind, min_bytes): (u8, usize),
    total: usize,
    out: &mut Vec<T>,
    mut entry: impl FnMut(&mut FieldReader<'_>, usize) -> Result<T, SnapshotError>,
) -> Result<(), SnapshotError> {
    while out.len() < total {
        let mut r = next_frame(bytes, kind)?;
        let count = r.count(min_bytes)?;
        if count == 0 || count > total - out.len() {
            return Err(malformed(format!("chunk of {count} past {total} entries")));
        }
        out.reserve(count);
        for _ in 0..count {
            let item = entry(&mut r, out.len())?;
            out.push(item);
        }
        r.end()?;
    }
    Ok(())
}

/// Reads the HEAD frame off the front of `bytes`: the format version, then
/// the admitted-configuration count.
fn read_head(bytes: &mut &[u8]) -> Result<usize, SnapshotError> {
    let mut r = next_frame(bytes, K_HEAD)?;
    let version = r.u8()?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version.into(),
        });
    }
    let configs = r.usize()?;
    r.end()?;
    if configs == 0 {
        return Err(malformed("zero configurations"));
    }
    Ok(configs)
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// One exploration checkpoint: the committer's complete logical state at an
/// admission boundary, plus the run identity that must match on resume.
///
/// A snapshot is always a **prefix of the deterministic reference order**:
/// the engine only takes one between committing node `next_commit - 1` and
/// node `next_commit`, when the admitted set, the links and the layer
/// counters are exactly what the sequential reference BFS would hold at the
/// same point. That is the whole consistency argument — resuming replays the
/// remaining pending nodes from provenance and continues the identical
/// deterministic schedule, at any worker count and any memory budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The protocol's [`Protocol::name`] — resume refuses a different one.
    pub protocol: String,
    /// Process count.
    pub n: usize,
    /// The exploration's input vector.
    pub inputs: Vec<u64>,
    /// [`ExploreLimits::depth`] of the checkpointed run.
    pub depth: usize,
    /// [`ExploreLimits::max_configs`] of the checkpointed run.
    pub max_configs: usize,
    /// [`ExploreLimits::solo_check_budget`] of the checkpointed run.
    pub solo_check_budget: Option<u64>,
    /// Whether the run used the process-symmetry reduction.
    pub symmetric: bool,
    /// Provenance of every admitted configuration except the root, in
    /// admission order: entry `j` is `(parent, pid)` for configuration
    /// `j + 1`, where `parent` is the parent's link index ([`NO_PARENT`]
    /// when the parent is the root) and `pid` the process stepped.
    pub links: Vec<(usize, usize)>,
    /// The admitted fingerprint set, sorted ascending, no duplicates.
    /// Exactly one entry per admitted configuration.
    pub seen: Vec<u128>,
    /// Admission index of the next configuration the committer will expand.
    pub next_commit: usize,
    /// [`crate::checker::ExploreStats::frontier_peak`] so far.
    pub frontier_peak: usize,
    /// [`crate::checker::ExploreStats::depth_reached`] so far.
    pub depth_reached: usize,
    /// `false` once a horizon configuration with active processes was seen.
    pub complete: bool,
}

impl Snapshot {
    /// Admitted configurations at the checkpoint (root included).
    pub fn configs(&self) -> usize {
        self.links.len() + 1
    }

    /// Writes the snapshot's frames to `out` (see the module docs) and
    /// returns the bytes written.
    fn encode<W: Write>(&self, out: &mut W) -> std::io::Result<u64> {
        let (mut payload, mut wire, mut written) = (Vec::new(), Vec::new(), 0u64);
        let mut emit = |kind: u8, payload: &mut Vec<u8>| {
            wire.clear();
            encode_frame(kind, payload, &mut wire);
            payload.clear();
            written += wire.len() as u64;
            out.write_all(&wire)
        };

        payload.push(VERSION);
        write_varint(&mut payload, self.configs() as u64);
        emit(K_HEAD, &mut payload)?;

        write_varint(&mut payload, self.protocol.len() as u64);
        payload.extend_from_slice(self.protocol.as_bytes());
        write_varint(&mut payload, self.n as u64);
        write_varint(&mut payload, self.inputs.len() as u64);
        for &input in &self.inputs {
            write_varint(&mut payload, input);
        }
        write_varint(&mut payload, self.depth as u64);
        write_varint(&mut payload, self.max_configs as u64);
        payload.push(u8::from(self.solo_check_budget.is_some()));
        if let Some(budget) = self.solo_check_budget {
            write_varint(&mut payload, budget);
        }
        payload.push(u8::from(self.symmetric));
        emit(K_IDENTITY, &mut payload)?;

        for chunk in self.links.chunks(CHUNK) {
            write_varint(&mut payload, chunk.len() as u64);
            for &(parent, pid) in chunk {
                // Parent link + 1, so `NO_PARENT` (`usize::MAX`) wraps to 0.
                write_varint(&mut payload, parent.wrapping_add(1) as u64);
                write_varint(&mut payload, pid as u64);
            }
            emit(K_LINKS, &mut payload)?;
        }

        for chunk in self.seen.chunks(CHUNK) {
            write_varint(&mut payload, chunk.len() as u64);
            for &fp in chunk {
                payload.extend_from_slice(&fp.to_le_bytes());
            }
            emit(K_SEEN, &mut payload)?;
        }

        write_varint(&mut payload, self.next_commit as u64);
        write_varint(&mut payload, self.frontier_peak as u64);
        write_varint(&mut payload, self.depth_reached as u64);
        payload.push(u8::from(self.complete));
        emit(K_CURSORS, &mut payload)?;
        Ok(written)
    }

    /// Serialises to the versioned wire format (see the module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out).expect("writing to a Vec cannot fail");
        out
    }

    /// Decodes and fully validates a snapshot. Total: every failure is a
    /// typed [`SnapshotError`], never a panic or unbounded allocation.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let configs = read_head(&mut bytes)?;

        let mut r = next_frame(&mut bytes, K_IDENTITY)?;
        let protocol = std::str::from_utf8(r.bytes()?)
            .map_err(|_| malformed("protocol name is not UTF-8"))?
            .to_string();
        let n = r.usize()?;
        let inputs = (0..r.count(1)?)
            .map(|_| r.varint())
            .collect::<Result<Vec<_>, _>>()?;
        let depth = r.usize()?;
        let max_configs = r.usize()?;
        let solo_check_budget = if r.bool()? { Some(r.varint()?) } else { None };
        let symmetric = r.bool()?;
        r.end()?;
        if inputs.len() != n {
            return Err(malformed(format!("{} inputs for n = {n}", inputs.len())));
        }

        let mut links = Vec::new();
        // The engine admits breadth-first, so parents never decrease; resume
        // derives every node's depth from that order.
        let mut prev_raw = 0;
        read_chunks(&mut bytes, (K_LINKS, 2), configs - 1, &mut links, |r, j| {
            let (parent_raw, pid) = (r.usize()?, r.usize()?);
            if parent_raw < prev_raw {
                return Err(malformed(format!("link {j} breaks breadth-first order")));
            }
            prev_raw = parent_raw;
            // 0 wraps back to `NO_PARENT`.
            let parent = parent_raw.wrapping_sub(1);
            if parent != NO_PARENT && parent >= j {
                return Err(malformed(format!("link {j} points forward to {parent}")));
            }
            if pid >= n {
                return Err(malformed(format!("link {j} steps pid {pid} with n = {n}")));
            }
            Ok((parent, pid))
        })?;

        let mut seen: Vec<u128> = Vec::new();
        let mut prev_fp = None;
        read_chunks(&mut bytes, (K_SEEN, 16), configs, &mut seen, |r, i| {
            let fp = r.fp()?;
            if prev_fp.is_some_and(|prev| prev >= fp) {
                return Err(malformed(format!("seen set unsorted at entry {i}")));
            }
            prev_fp = Some(fp);
            Ok(fp)
        })?;

        let mut r = next_frame(&mut bytes, K_CURSORS)?;
        let next_commit = r.usize()?;
        let frontier_peak = r.usize()?;
        let depth_reached = r.usize()?;
        let complete = r.bool()?;
        r.end()?;
        if !bytes.is_empty() {
            return Err(malformed(format!(
                "{} trailing bytes after the cursors",
                bytes.len()
            )));
        }
        if next_commit > configs {
            return Err(malformed(format!(
                "commit cursor {next_commit} past {configs} configurations"
            )));
        }
        if depth_reached > depth {
            return Err(malformed(format!(
                "depth_reached {depth_reached} past the depth limit {depth}"
            )));
        }
        if frontier_peak == 0 || frontier_peak > configs {
            return Err(malformed(format!("frontier peak {frontier_peak} out of range")));
        }

        Ok(Snapshot {
            protocol,
            n,
            inputs,
            depth,
            max_configs,
            solo_check_budget,
            symmetric,
            links,
            seen,
            next_commit,
            frontier_peak,
            depth_reached,
            complete,
        })
    }

    /// Writes the snapshot to `path` **atomically**: its frames stream
    /// through a buffered temp file beside it (the whole file is never
    /// built in memory), which is fsynced, then renamed over the target
    /// (whose previous contents survive any crash before the rename
    /// commits). Returns the bytes written.
    ///
    /// # Errors
    ///
    /// Typed [`SnapshotError::Io`] on any filesystem failure.
    pub fn write(&self, path: &Path) -> Result<u64, SnapshotError> {
        let tmp = path.with_file_name(format!(
            "{}.tmp",
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "snapshot".to_string())
        ));
        let mut out = std::io::BufWriter::new(fs::File::create(&tmp).map_err(io_err("create"))?);
        let written = self.encode(&mut out).map_err(io_err("write"))?;
        let file = out
            .into_inner()
            .map_err(|e| io_err("write")(e.into_error()))?;
        file.sync_all().map_err(io_err("sync"))?;
        drop(file);
        fs::rename(&tmp, path).map_err(io_err("rename"))?;
        // Make the rename itself durable (the directory entry).
        #[cfg(unix)]
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(dir) = fs::File::open(dir) {
                let _ = dir.sync_all();
            }
        }
        Ok(written)
    }

    /// Reads and fully validates a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] with kind `NotFound` when there is no snapshot
    /// yet (the "start fresh" signal for
    /// [`Explorer::explore_resumable`](crate::checker::Explorer::explore_resumable)),
    /// and the full typed decode-error surface for anything present but
    /// unusable.
    pub fn read(path: &Path) -> Result<Snapshot, SnapshotError> {
        let bytes = fs::read(path).map_err(io_err("read"))?;
        Snapshot::from_bytes(&bytes)
    }

    /// Reads only the admitted-configuration count from a snapshot's HEAD
    /// frame (CRC-validated) — the cheap progress probe the kill-and-resume
    /// smoke polls while deciding when to kill the child run.
    ///
    /// # Errors
    ///
    /// As [`Snapshot::read`], for the HEAD frame alone.
    pub fn peek_configs(path: &Path) -> Result<u64, SnapshotError> {
        use std::io::Read;
        // The longest HEAD frame: a version byte and a 10-byte varint.
        let mut head = Vec::new();
        fs::File::open(path)
            .map_err(io_err("open"))?
            .take(frame_len(11) as u64)
            .read_to_end(&mut head)
            .map_err(io_err("read"))?;
        read_head(&mut head.as_slice()).map(|configs| configs as u64)
    }

    /// Verifies that this snapshot belongs to exactly the exploration that
    /// is resuming: same protocol, inputs and semantic limits. The memory
    /// budget and worker count are deliberately **not** part of the
    /// identity — outcomes are bit-identical across both, so a run may
    /// resume under a different budget or worker count.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::IdentityMismatch`] naming the differing field.
    pub fn check_identity<P: Protocol>(
        &self,
        protocol: &P,
        inputs: &[u64],
        limits: &ExploreLimits,
        symmetric: bool,
    ) -> Result<(), SnapshotError> {
        let mismatch = |detail: String| Err(SnapshotError::IdentityMismatch { detail });
        if self.protocol != protocol.name() {
            return mismatch(format!(
                "protocol {:?} vs {:?}",
                self.protocol,
                protocol.name()
            ));
        }
        if self.n != protocol.n() {
            return mismatch(format!("n {} vs {}", self.n, protocol.n()));
        }
        if self.inputs != inputs {
            return mismatch(format!("inputs {:?} vs {:?}", self.inputs, inputs));
        }
        if self.depth != limits.depth {
            return mismatch(format!("depth {} vs {}", self.depth, limits.depth));
        }
        if self.max_configs != limits.max_configs {
            return mismatch(format!(
                "max_configs {} vs {}",
                self.max_configs, limits.max_configs
            ));
        }
        if self.solo_check_budget != limits.solo_check_budget {
            return mismatch(format!(
                "solo_check_budget {:?} vs {:?}",
                self.solo_check_budget, limits.solo_check_budget
            ));
        }
        if self.symmetric != symmetric {
            return mismatch(format!("symmetric {} vs {symmetric}", self.symmetric));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbh_model::packed::frame::FRAME_HEADER_LEN;

    fn sample() -> Snapshot {
        Snapshot {
            protocol: "test-proto".to_string(),
            n: 2,
            inputs: vec![0, 1],
            depth: 8,
            max_configs: 1000,
            solo_check_budget: Some(5),
            symmetric: false,
            links: vec![(NO_PARENT, 0), (NO_PARENT, 1), (0, 1), (2, 0)],
            seen: vec![3, 7, (9 << 64) | 4, 1 << 80, u128::MAX],
            next_commit: 3,
            frontier_peak: 2,
            depth_reached: 1,
            complete: true,
        }
    }

    #[test]
    fn round_trips_through_bytes_and_files() {
        let snap = sample();
        assert_eq!(Snapshot::from_bytes(&snap.to_bytes()).unwrap(), snap);
        let path = std::env::temp_dir().join(format!("cbh-snap-test-{}.ck", std::process::id()));
        let bytes = snap.write(&path).unwrap();
        assert_eq!(bytes, snap.to_bytes().len() as u64);
        assert_eq!(Snapshot::read(&path).unwrap(), snap);
        assert_eq!(Snapshot::peek_configs(&path).unwrap(), snap.configs() as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_level_corruption_is_typed() {
        let good = sample().to_bytes();
        // Names the frame failure as "section: variant".
        let failure = |bad: Vec<u8>| match Snapshot::from_bytes(&bad) {
            Err(SnapshotError::Frame { section, err }) => format!("{section}: {err:?}"),
            other => panic!("{other:?}"),
        };
        let flip = |at: usize| {
            let mut bad = good.clone();
            bad[at] ^= 0x10;
            bad
        };
        assert_eq!(failure(Vec::new()), "head: Truncated");
        assert!(failure(flip(0)).starts_with("head: BadMagic"));
        // The first payload byte is HEAD's version.
        assert!(failure(flip(FRAME_HEADER_LEN)).starts_with("head: CrcMismatch"));
        assert!(failure(flip(good.len() - 1)).starts_with("cursors: CrcMismatch"));
        // An honestly framed HEAD of another version, with its 5 configs.
        let mut bad = Vec::new();
        encode_frame(K_HEAD, &[99, 5], &mut bad);
        bad.extend_from_slice(&good[frame_len(2)..]);
        assert_eq!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        );
        // Truncation anywhere is typed, never a panic.
        for len in 0..good.len() {
            assert!(Snapshot::from_bytes(&good[..len]).is_err(), "prefix {len}");
        }
    }

    #[test]
    fn links_out_of_breadth_first_order_are_malformed() {
        // Node 3's parent (the root) precedes node 2's (node 1): no
        // breadth-first run admits that, and resume would mis-layer it.
        let snap = Snapshot {
            links: vec![(NO_PARENT, 0), (0, 0), (NO_PARENT, 1)],
            seen: vec![1, 2, 3, 4],
            ..sample()
        };
        assert!(matches!(
            Snapshot::from_bytes(&snap.to_bytes()),
            Err(SnapshotError::Malformed { .. })
        ));
        // The same links in breadth-first order decode.
        let ordered = Snapshot {
            links: vec![(NO_PARENT, 0), (NO_PARENT, 1), (0, 0)],
            ..snap
        };
        assert_eq!(Snapshot::from_bytes(&ordered.to_bytes()), Ok(ordered));
    }

    #[test]
    fn identity_check_pins_every_field() {
        use crate::strawmen::OneMaxRegister;
        let protocol = OneMaxRegister::new();
        let limits = ExploreLimits {
            depth: 8,
            max_configs: 1000,
            solo_check_budget: Some(5),
            checkpoint_every: None,
            memory_budget: None,
        };
        let snap = Snapshot {
            protocol: protocol.name(),
            n: protocol.n(),
            inputs: vec![0, 1],
            ..sample()
        };
        snap.check_identity(&protocol, &[0, 1], &limits, false).unwrap();
        for (broken, field) in [
            (Snapshot { depth: 9, ..snap.clone() }, "depth"),
            (Snapshot { max_configs: 1, ..snap.clone() }, "max_configs"),
            (Snapshot { solo_check_budget: None, ..snap.clone() }, "solo"),
            (Snapshot { symmetric: true, ..snap.clone() }, "symmetric"),
            (Snapshot { inputs: vec![1, 1], n: 2, ..snap.clone() }, "inputs"),
            (Snapshot { protocol: "other".into(), ..snap.clone() }, "name"),
        ] {
            assert!(
                matches!(
                    broken.check_identity(&protocol, &[0, 1], &limits, false),
                    Err(SnapshotError::IdentityMismatch { .. })
                ),
                "{field} mismatch must be caught"
            );
        }
    }
}
