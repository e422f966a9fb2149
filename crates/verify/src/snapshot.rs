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
//! # Wire format (version 1)
//!
//! Everything is little-endian with explicit offsets; all decode paths are
//! total and return typed [`SnapshotError`]s — corrupt, truncated or
//! version-mismatched input can never panic. The file is written atomically
//! (temp file in the same directory, `fsync`, rename), so a crash mid-write
//! leaves the previous snapshot intact.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     8  magic "CBHSNAP1"
//!      8     4  version (u32, = 1)
//!     12     4  section count (u32, = 4)
//!     16     8  payload length in bytes (u64, = file len - 48)
//!     24     8  admitted configuration count (u64; peekable)
//!     32     8  reserved (0)
//!     40     4  CRC32 (IEEE) of header bytes 0..40
//!     44     4  reserved (0)
//!     48     …  sections, back to back, each:
//!               +0  tag (u32)   +4 payload CRC32 (u32)   +8 len (u64)
//!               +16 payload (len bytes)
//! ```
//!
//! Sections appear exactly once, in tag order:
//!
//! | tag | name     | payload                                              |
//! |-----|----------|------------------------------------------------------|
//! | 1   | IDENTITY | protocol name, `n`, inputs, limits, symmetry flag    |
//! | 2   | LINKS    | per admitted config: (parent link + 1 or 0, pid),    |
//! |     |          | parents nondecreasing (breadth-first order)          |
//! | 3   | SEEN     | sorted, deduplicated admitted fingerprints (16 B LE) |
//! | 4   | CURSORS  | commit cursor, frontier peak, depth, complete flag   |
//!
//! Varints are the LEB128 encoding of [`cbh_model::packed::delta`].
//!
//! # Version policy
//!
//! `VERSION` is bumped on **any** layout change; readers reject every
//! version they were not built for ([`SnapshotError::UnsupportedVersion`])
//! instead of best-effort decoding. Old snapshots are cheap to regenerate
//! (re-run to the next checkpoint), so there is no cross-version migration.

use crate::checker::ExploreLimits;
use cbh_model::packed::delta::{read_varint, write_varint, DeltaError};
use cbh_model::packed::frame::crc32;
use cbh_model::Protocol;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Sentinel parent value in [`Snapshot::links`]: the link chain terminator
/// (the root's "parent"). Identical to the engine's internal sentinel.
pub const NO_PARENT: usize = usize::MAX;

const MAGIC: [u8; 8] = *b"CBHSNAP1";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 48;
const SECTION_HEADER_LEN: usize = 16;

const SEC_IDENTITY: u32 = 1;
const SEC_LINKS: u32 = 2;
const SEC_SEEN: u32 = 3;
const SEC_CURSORS: u32 = 4;
const SECTION_TAGS: [u32; 4] = [SEC_IDENTITY, SEC_LINKS, SEC_SEEN, SEC_CURSORS];

fn section_name(tag: u32) -> &'static str {
    match tag {
        SEC_IDENTITY => "identity",
        SEC_LINKS => "links",
        SEC_SEEN => "seen",
        SEC_CURSORS => "cursors",
        _ => "header",
    }
}

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
    /// The input ended before a complete header/section/field.
    Truncated,
    /// The first eight bytes are not the snapshot magic.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion {
        /// The version the file claims.
        found: u32,
    },
    /// A CRC32 check failed: the bytes were damaged after writing.
    CrcMismatch {
        /// Which section failed (`"header"` for the file header).
        section: &'static str,
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
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found} (expected {VERSION})")
            }
            SnapshotError::CrcMismatch { section } => {
                write!(f, "snapshot {section} section failed its CRC check")
            }
            SnapshotError::Malformed { detail } => write!(f, "malformed snapshot: {detail}"),
            SnapshotError::IdentityMismatch { detail } => {
                write!(f, "snapshot identity mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<DeltaError> for SnapshotError {
    fn from(e: DeltaError) -> Self {
        match e {
            DeltaError::Truncated => SnapshotError::Truncated,
            other => SnapshotError::Malformed {
                detail: format!("bad varint: {other:?}"),
            },
        }
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

    /// Serialises to the versioned wire format (see the module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();

        // IDENTITY
        let mut sec = Vec::new();
        write_varint(&mut sec, self.protocol.len() as u64);
        sec.extend_from_slice(self.protocol.as_bytes());
        write_varint(&mut sec, self.n as u64);
        write_varint(&mut sec, self.inputs.len() as u64);
        for &input in &self.inputs {
            write_varint(&mut sec, input);
        }
        write_varint(&mut sec, self.depth as u64);
        write_varint(&mut sec, self.max_configs as u64);
        match self.solo_check_budget {
            None => sec.push(0),
            Some(budget) => {
                sec.push(1);
                write_varint(&mut sec, budget);
            }
        }
        sec.push(u8::from(self.symmetric));
        push_section(&mut payload, SEC_IDENTITY, &sec);

        // LINKS
        sec.clear();
        write_varint(&mut sec, self.links.len() as u64);
        for &(parent, pid) in &self.links {
            let encoded = if parent == NO_PARENT {
                0
            } else {
                parent as u64 + 1
            };
            write_varint(&mut sec, encoded);
            write_varint(&mut sec, pid as u64);
        }
        push_section(&mut payload, SEC_LINKS, &sec);

        // SEEN
        sec.clear();
        write_varint(&mut sec, self.seen.len() as u64);
        for &fp in &self.seen {
            sec.extend_from_slice(&fp.to_le_bytes());
        }
        push_section(&mut payload, SEC_SEEN, &sec);

        // CURSORS
        sec.clear();
        write_varint(&mut sec, self.next_commit as u64);
        write_varint(&mut sec, self.frontier_peak as u64);
        write_varint(&mut sec, self.depth_reached as u64);
        sec.push(u8::from(self.complete));
        push_section(&mut payload, SEC_CURSORS, &sec);

        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(SECTION_TAGS.len() as u32).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.configs() as u64).to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // reserved
        let header_crc = crc32(&out[..40]);
        out.extend_from_slice(&header_crc.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // reserved
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes and fully validates a snapshot. Total: every failure is a
    /// typed [`SnapshotError`], never a panic or unbounded allocation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let (configs, payload_len) = decode_header(bytes)?;
        let payload = &bytes[HEADER_LEN..];
        if payload.len() as u64 != payload_len {
            return Err(malformed(format!(
                "header claims {payload_len} payload bytes, file carries {}",
                payload.len()
            )));
        }

        let mut cursor = payload;
        let mut sections: Vec<&[u8]> = Vec::with_capacity(SECTION_TAGS.len());
        for &want_tag in &SECTION_TAGS {
            if cursor.len() < SECTION_HEADER_LEN {
                return Err(SnapshotError::Truncated);
            }
            let tag = u32::from_le_bytes(cursor[0..4].try_into().expect("4 bytes"));
            let crc = u32::from_le_bytes(cursor[4..8].try_into().expect("4 bytes"));
            let len = u64::from_le_bytes(cursor[8..16].try_into().expect("8 bytes"));
            if tag != want_tag {
                return Err(malformed(format!(
                    "expected section {want_tag} ({}), found {tag}",
                    section_name(want_tag)
                )));
            }
            let len = usize::try_from(len).map_err(|_| malformed("section length overflow"))?;
            let rest = &cursor[SECTION_HEADER_LEN..];
            if rest.len() < len {
                return Err(SnapshotError::Truncated);
            }
            let body = &rest[..len];
            if crc32(body) != crc {
                return Err(SnapshotError::CrcMismatch {
                    section: section_name(tag),
                });
            }
            sections.push(body);
            cursor = &rest[len..];
        }
        if !cursor.is_empty() {
            return Err(malformed(format!(
                "{} trailing bytes after the last section",
                cursor.len()
            )));
        }

        // IDENTITY
        let mut sec = sections[0];
        let name_len = rd_len(&mut sec, 1)?;
        if sec.len() < name_len {
            return Err(SnapshotError::Truncated);
        }
        let protocol = std::str::from_utf8(&sec[..name_len])
            .map_err(|_| malformed("protocol name is not UTF-8"))?
            .to_string();
        sec = &sec[name_len..];
        let n = rd_usize(&mut sec)?;
        let input_count = rd_len(&mut sec, 1)?;
        let mut inputs = Vec::with_capacity(input_count.min(sec.len()));
        for _ in 0..input_count {
            inputs.push(read_varint(&mut sec)?);
        }
        let depth = rd_usize(&mut sec)?;
        let max_configs = rd_usize(&mut sec)?;
        let solo_check_budget = match rd_u8(&mut sec)? {
            0 => None,
            1 => Some(read_varint(&mut sec)?),
            tag => return Err(malformed(format!("bad solo-budget tag {tag}"))),
        };
        let symmetric = rd_bool(&mut sec)?;
        if !sec.is_empty() {
            return Err(malformed("trailing bytes in identity section"));
        }
        if inputs.len() != n {
            return Err(malformed(format!("{} inputs for n = {n}", inputs.len())));
        }

        // LINKS
        let mut sec = sections[1];
        let link_count = rd_len(&mut sec, 2)?;
        if link_count + 1 != configs {
            return Err(malformed(format!(
                "{link_count} links for {configs} configurations"
            )));
        }
        let mut links = Vec::with_capacity(link_count);
        // The engine admits breadth-first, so parents never decrease; resume
        // derives every node's depth from that order.
        let mut prev_raw = 0;
        for j in 0..link_count {
            let parent_raw = read_varint(&mut sec)?;
            let pid = rd_usize(&mut sec)?;
            if parent_raw < prev_raw {
                return Err(malformed(format!("link {j}'s parent precedes link {}'s", j - 1)));
            }
            prev_raw = parent_raw;
            let parent = match parent_raw {
                0 => NO_PARENT,
                p => {
                    let p = usize::try_from(p - 1).map_err(|_| malformed("parent overflow"))?;
                    if p >= j {
                        return Err(malformed(format!("link {j} points forward to {p}")));
                    }
                    p
                }
            };
            if pid >= n {
                return Err(malformed(format!("link {j} steps pid {pid} with n = {n}")));
            }
            links.push((parent, pid));
        }
        if !sec.is_empty() {
            return Err(malformed("trailing bytes in links section"));
        }

        // SEEN
        let mut sec = sections[2];
        let seen_count = rd_len(&mut sec, 16)?;
        if seen_count != configs {
            return Err(malformed(format!(
                "{seen_count} seen fingerprints for {configs} configurations"
            )));
        }
        let mut seen = Vec::with_capacity(seen_count);
        for i in 0..seen_count {
            if sec.len() < 16 {
                return Err(SnapshotError::Truncated);
            }
            let fp = u128::from_le_bytes(sec[..16].try_into().expect("16 bytes"));
            sec = &sec[16..];
            if seen.last().is_some_and(|&prev| prev >= fp) {
                return Err(malformed(format!("seen set unsorted at entry {i}")));
            }
            seen.push(fp);
        }
        if !sec.is_empty() {
            return Err(malformed("trailing bytes in seen section"));
        }

        // CURSORS
        let mut sec = sections[3];
        let next_commit = rd_usize(&mut sec)?;
        let frontier_peak = rd_usize(&mut sec)?;
        let depth_reached = rd_usize(&mut sec)?;
        let complete = rd_bool(&mut sec)?;
        if !sec.is_empty() {
            return Err(malformed("trailing bytes in cursors section"));
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

    /// Writes the snapshot to `path` **atomically**: encoded into a temp
    /// file beside it, fsynced, then renamed over the target (whose previous
    /// contents survive any crash before the rename commits). Returns the
    /// bytes written.
    ///
    /// # Errors
    ///
    /// Typed [`SnapshotError::Io`] on any filesystem failure.
    pub fn write(&self, path: &Path) -> Result<u64, SnapshotError> {
        let bytes = self.to_bytes();
        let tmp = path.with_file_name(format!(
            "{}.tmp",
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "snapshot".to_string())
        ));
        let mut file = fs::File::create(&tmp).map_err(io_err("create"))?;
        file.write_all(&bytes).map_err(io_err("write"))?;
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
        Ok(bytes.len() as u64)
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

    /// Reads only the admitted-configuration count from a snapshot's header
    /// (48 bytes, CRC-validated) — the cheap progress probe the kill-and-
    /// resume smoke polls while deciding when to kill the child run.
    ///
    /// # Errors
    ///
    /// As [`Snapshot::read`], for the header alone.
    pub fn peek_configs(path: &Path) -> Result<u64, SnapshotError> {
        use std::io::Read;
        let mut header = [0u8; HEADER_LEN];
        let mut file = fs::File::open(path).map_err(io_err("open"))?;
        file.read_exact(&mut header).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                SnapshotError::Truncated
            } else {
                SnapshotError::Io {
                    op: "read",
                    kind: e.kind(),
                }
            }
        })?;
        decode_header(&header).map(|(configs, _)| configs as u64)
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

/// Appends one section (header + payload) to `out`.
fn push_section(out: &mut Vec<u8>, tag: u32, body: &[u8]) {
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
}

/// Validates the 48-byte header; returns `(configs, payload_len)`.
fn decode_header(bytes: &[u8]) -> Result<(usize, u64), SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated);
    }
    if bytes[0..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let stored_crc = u32::from_le_bytes(bytes[40..44].try_into().expect("4 bytes"));
    if crc32(&bytes[..40]) != stored_crc {
        return Err(SnapshotError::CrcMismatch { section: "header" });
    }
    let section_count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if section_count as usize != SECTION_TAGS.len() {
        return Err(malformed(format!("{section_count} sections")));
    }
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let configs = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    let configs = usize::try_from(configs).map_err(|_| malformed("config count overflow"))?;
    if configs == 0 {
        return Err(malformed("zero configurations"));
    }
    Ok((configs, payload_len))
}

/// Varint → usize with a typed error on 32-bit overflow.
fn rd_usize(bytes: &mut &[u8]) -> Result<usize, SnapshotError> {
    usize::try_from(read_varint(bytes)?).map_err(|_| malformed("value overflows usize"))
}

/// Reads an element count and bounds it against the bytes actually present
/// (each element costs at least `min_elem_bytes`), so a corrupt count can
/// never drive an oversized allocation.
fn rd_len(bytes: &mut &[u8], min_elem_bytes: usize) -> Result<usize, SnapshotError> {
    let count = rd_usize(bytes)?;
    if count.saturating_mul(min_elem_bytes) > bytes.len() {
        return Err(SnapshotError::Truncated);
    }
    Ok(count)
}

fn rd_u8(bytes: &mut &[u8]) -> Result<u8, SnapshotError> {
    let (&first, rest) = bytes.split_first().ok_or(SnapshotError::Truncated)?;
    *bytes = rest;
    Ok(first)
}

fn rd_bool(bytes: &mut &[u8]) -> Result<bool, SnapshotError> {
    match rd_u8(bytes)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(malformed(format!("bad bool byte {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let snap = sample();
        let good = snap.to_bytes();
        assert_eq!(Snapshot::from_bytes(&[]), Err(SnapshotError::Truncated));
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(Snapshot::from_bytes(&bad), Err(SnapshotError::BadMagic));
        let mut bad = good.clone();
        bad[8] = 99;
        assert_eq!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        );
        let mut bad = good.clone();
        bad[25] ^= 0x10; // configs field: caught by the header CRC
        assert_eq!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::CrcMismatch { section: "header" })
        );
        // Truncation anywhere in the payload is typed, never a panic.
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
