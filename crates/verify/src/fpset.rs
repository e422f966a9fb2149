//! Tiered fingerprint store: the budgeted replacement for the unbounded
//! seen-`HashSet`.
//!
//! A [`FpSet`] answers exactly one question — "has this 128-bit fingerprint
//! been admitted before?" — with **exact** membership semantics, while
//! keeping its RAM footprint inside the run's shared
//! [`memory budget`](crate::checker::ExploreLimits::memory_budget). Three tiers:
//!
//! 1. A **Bloom front** sized from the expected config count. A miss proves
//!    the fingerprint is new (no bits can un-set), so the common case on the
//!    admission path — a genuinely new configuration — costs four bit
//!    probes and never touches the lower tiers.
//! 2. A **hot table** of open-addressed `u128` slots, linearly probed from
//!    the fingerprint's own bits, with per-entry insertion generations. It
//!    grows by doubling while the shared tracker has budget headroom; once
//!    the budget is hit it stays fixed and **evicts its oldest
//!    generations** to disk instead. BFS duplicate edges overwhelmingly
//!    point at recent layers, so the recency window keeps most duplicate
//!    probes in RAM.
//! 3. Immutable **sorted runs** of raw little-endian `u128`s in the
//!    self-deleting [`SpillArena`](crate::frontier), each with a sparse
//!    in-RAM index (one fingerprint per 4 KiB block). A probe binary-searches
//!    the index, reads one block — through a small LRU block cache — and
//!    binary-searches the block. When `MAX_RUNS` pile up they are k-way
//!    merged into one run with bounded buffers.
//!
//! A Bloom false positive therefore costs at most one hot probe plus one
//! disk block read; it can never flip an admission decision, so the
//! committer's answer sequence — and with it the admission order and the
//! whole bit-identical-to-`reference_explore` argument — is byte-for-byte
//! the sequence the plain `HashSet` would have produced.
//!
//! # Run wire format
//!
//! A run is `count` fingerprints as raw 16-byte little-endian words,
//! strictly increasing. No header: the in-RAM `Run` record carries the
//! segment offsets and count, and [`decode_run`] validates length and
//! ordering when bytes are read back. Compacted runs are written in 4096-
//! fingerprint segments (64 KiB appends) so merge output interleaves with
//! the double-buffered writer without ever buffering the merged run in RAM.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

use crate::frontier::{MemTracker, SpillContext, SpillError};

/// Fingerprints per sparse-index block: 256 × 16 bytes = one 4 KiB read.
const BLOCK_FPS: usize = 256;
/// Fingerprints per compaction output segment (one 64 KiB append). A
/// multiple of [`BLOCK_FPS`], so no index block straddles two segments.
const SEG_FPS: usize = 4096;
/// Compact when this many runs accumulate.
const MAX_RUNS: usize = 8;
/// Largest *starting* hot-table allocation: 512 slots ≈ 10 KiB. Budgeted
/// stores start at their share (never below 64 slots) and grow from there;
/// unbudgeted stores start here and double freely.
const MIN_SLOTS: usize = 512;
/// Hot-table fill limit, in tenths (6 = grow/evict beyond 60% occupancy).
const FILL_TENTHS: usize = 6;
/// Most generations one eviction moves to a single run: bounds both the
/// sort buffer (1 MiB) and the write handed to the double-buffered arena.
const EVICT_MAX: usize = 1 << 16;
/// Most cached run blocks (LRU): 8 × 4 KiB. Budgeted stores keep far fewer
/// (an eighth of their share, at least 1). Duplicate probes into evicted
/// territory cluster heavily (BFS diamonds), so a handful of blocks absorbs
/// most repeat reads.
const CACHE_BLOCKS: usize = 8;
/// Most slots the exact seen set reserves up front (2²³ slots, 128 MiB of
/// fingerprints), so a huge `max_configs` cannot demand an absurd
/// allocation. Past a reserve the set still grows on demand.
pub(crate) const MAX_RESERVED_SLOTS: usize = 1 << 23;

/// Decodes one run (or run block) back from its wire bytes, validating the
/// format: a whole number of 16-byte little-endian fingerprints in strictly
/// increasing order.
///
/// # Errors
///
/// [`SpillError::Corrupt`] on a truncated (non-multiple-of-16) length or an
/// ordering violation — the typed error surface for damaged spill files.
pub fn decode_run(bytes: &[u8]) -> Result<Vec<u128>, SpillError> {
    if !bytes.len().is_multiple_of(16) {
        return Err(SpillError::Corrupt {
            detail: format!("run length {} is not a multiple of 16", bytes.len()),
        });
    }
    let mut out = Vec::with_capacity(bytes.len() / 16);
    for chunk in bytes.chunks_exact(16) {
        out.push(u128::from_le_bytes(chunk.try_into().expect("16-byte chunk")));
    }
    if !out.windows(2).all(|w| w[0] < w[1]) {
        return Err(SpillError::Corrupt {
            detail: "fingerprint run is not strictly increasing".into(),
        });
    }
    Ok(out)
}

fn encode_run(fps: &[u128]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(fps.len() * 16);
    for fp in fps {
        bytes.extend_from_slice(&fp.to_le_bytes());
    }
    bytes
}

/// Folds a 128-bit fingerprint to a 64-bit table hash. Fingerprints are
/// already avalanched, so xor-folding the halves is enough.
fn fold(fp: u128) -> usize {
    ((fp >> 64) as u64 ^ fp as u64) as usize
}

/// Hashes a fingerprint by its own bits ([`fold`]): a keyed SipHash over an
/// already uniform digest only adds cost.
#[derive(Default)]
pub(crate) struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("FpHasher hashes u128 fingerprints only");
    }

    fn write_u128(&mut self, fp: u128) {
        self.0 = fold(fp) as u64;
    }
}

/// A set of fingerprints hashed by their own bits: the exact seen set of
/// every engine.
pub(crate) type FpHashSet = HashSet<u128, BuildHasherDefault<FpHasher>>;

// ---------------------------------------------------------------------------
// Sorted runs
// ---------------------------------------------------------------------------

/// One contiguous byte range of a run: fingerprints
/// `[start_fp, start_fp + count)` live at `offset` in the arena.
struct Segment {
    offset: u64,
    start_fp: usize,
    count: usize,
}

/// One immutable sorted run on disk plus its in-RAM sparse index.
struct Run {
    segments: Vec<Segment>,
    count: usize,
    /// `fps[0]`, `fps[256]`, `fps[512]`, … — one per block.
    index: Vec<u128>,
    last: u128,
}

impl Run {
    /// The block (index position) that could contain `fp`, or `None` if the
    /// run's range excludes it.
    fn block_of(&self, fp: u128) -> Option<usize> {
        if self.index.first().is_none_or(|&first| fp < first) || fp > self.last {
            return None;
        }
        Some(self.index.partition_point(|&b| b <= fp) - 1)
    }

    /// Arena offset and fingerprint count of block `block`.
    fn block_span(&self, block: usize) -> (u64, usize) {
        let start = block * BLOCK_FPS;
        let count = BLOCK_FPS.min(self.count - start);
        let seg_at = self.segments.partition_point(|s| s.start_fp <= start) - 1;
        let seg = &self.segments[seg_at];
        debug_assert!(start - seg.start_fp + count <= seg.count, "block straddles segments");
        (seg.offset + ((start - seg.start_fp) * 16) as u64, count)
    }

    fn resident_bytes(&self) -> usize {
        self.index.len() * 16 + self.segments.len() * std::mem::size_of::<Segment>() + 64
    }

    fn disk_bytes(&self) -> u64 {
        (self.count * 16) as u64
    }
}

/// Builds a [`Run`] record from sorted fingerprint positions as a writer
/// streams them out.
struct RunBuilder {
    segments: Vec<Segment>,
    index: Vec<u128>,
    count: usize,
    last: u128,
}

impl RunBuilder {
    fn new() -> Self {
        RunBuilder {
            segments: Vec::new(),
            index: Vec::new(),
            count: 0,
            last: 0,
        }
    }

    /// Records `fps` written at `offset` as the run's next segment.
    fn push_segment(&mut self, offset: u64, fps: &[u128]) {
        self.segments.push(Segment {
            offset,
            start_fp: self.count,
            count: fps.len(),
        });
        for &fp in fps {
            if self.count.is_multiple_of(BLOCK_FPS) {
                self.index.push(fp);
            }
            self.count += 1;
            self.last = fp;
        }
    }

    fn finish(self) -> Run {
        Run {
            segments: self.segments,
            count: self.count,
            index: self.index,
            last: self.last,
        }
    }
}

/// Streams one existing run back during compaction, one block-sized refill
/// at a time (bounded memory regardless of run size).
struct RunReader {
    run: Run,
    pos: usize,
    buf: Vec<u128>,
    buf_at: usize,
}

impl RunReader {
    fn new(run: Run) -> Self {
        RunReader {
            run,
            pos: 0,
            buf: Vec::new(),
            buf_at: 0,
        }
    }

    /// The reader's current head fingerprint, refilling from disk as needed.
    fn head(&mut self, ctx: &SpillContext) -> Result<Option<u128>, SpillError> {
        if self.buf_at == self.buf.len() {
            if self.pos == self.run.count {
                return Ok(None);
            }
            let block = self.pos / BLOCK_FPS;
            let (offset, count) = self.run.block_span(block);
            self.buf = decode_run(&ctx.arena().read(offset, count * 16)?)?;
            self.buf_at = 0;
        }
        Ok(Some(self.buf[self.buf_at]))
    }

    fn advance(&mut self) {
        self.buf_at += 1;
        self.pos += 1;
    }
}

// ---------------------------------------------------------------------------
// Block cache
// ---------------------------------------------------------------------------

/// A tiny LRU of decoded run blocks keyed by arena offset. Duplicate
/// admissions that fall into evicted territory re-probe the same few blocks
/// (sibling edges land near each other), so even [`CACHE_BLOCKS`] entries
/// turn most disk probes into RAM probes.
struct BlockCache {
    entries: Vec<(u64, u64, Vec<u128>)>,
    tick: u64,
    bytes: usize,
    /// Cached-block limit, derived from the store's budget share.
    max_blocks: usize,
}

impl BlockCache {
    fn new(max_blocks: usize) -> Self {
        BlockCache {
            entries: Vec::new(),
            tick: 0,
            bytes: 0,
            max_blocks,
        }
    }

    fn get(&mut self, key: u64) -> Option<&[u128]> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.iter_mut().find(|(k, _, _)| *k == key).map(
            |(_, last_used, fps)| {
                *last_used = tick;
                fps.as_slice()
            },
        )
    }

    fn insert(&mut self, key: u64, fps: Vec<u128>) {
        self.tick += 1;
        self.bytes += fps.len() * 16;
        if self.entries.len() >= self.max_blocks {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t, _))| *t)
                .map(|(i, _)| i)
                .expect("cache is non-empty");
            let (_, _, evicted) = self.entries.swap_remove(oldest);
            self.bytes -= evicted.len() * 16;
        }
        self.entries.push((key, self.tick, fps));
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }
}

// ---------------------------------------------------------------------------
// FpSet
// ---------------------------------------------------------------------------

struct Inner {
    /// This store's own budget share in bytes (`usize::MAX` when
    /// unbudgeted): the local cap its Bloom front, hot table and caches are
    /// sized against. Local, not global: the frontier's transient pressure
    /// must not be able to pin the hot table at its floor.
    cap_bytes: usize,
    /// Compact when this many runs accumulate — smaller for small shares,
    /// where per-probe run fan-out costs more than re-merging tiny runs.
    runs_max: usize,
    /// Bloom front: bit i set ⇒ some admitted fp hashed to i.
    bloom: Vec<u64>,
    /// Mask over the Bloom *bit* count (a power of two).
    bloom_mask: usize,
    /// Hot table slots; 0 = empty (the fingerprint 0 itself is tracked by
    /// `zero_seen`).
    slots: Vec<u128>,
    /// Insertion generation of each occupied slot. Generations are assigned
    /// densely, and evictions always take the oldest contiguous window, so
    /// the resident generations are exactly `[oldest_gen, next_gen)`.
    gens: Vec<u32>,
    occupied: usize,
    next_gen: u32,
    oldest_gen: u32,
    zero_seen: bool,
    len: usize,
    runs: Vec<Run>,
    cache: BlockCache,
    /// Bytes currently charged to the shared tracker for this set.
    charged: usize,
}

impl Inner {
    fn resident_estimate(&self) -> usize {
        self.slots.len() * 16
            + self.gens.len() * 4
            + self.bloom.len() * 8
            + self.runs.iter().map(Run::resident_bytes).sum::<usize>()
            + self.cache.bytes
    }

    /// Re-syncs the shared tracker with this set's current footprint.
    fn recharge(&mut self, tracker: &MemTracker) {
        let now = self.resident_estimate();
        if now > self.charged {
            tracker.add_resident(now - self.charged);
        } else {
            tracker.sub_resident(self.charged - now);
        }
        self.charged = now;
    }

    fn bloom_indices(&self, fp: u128) -> [usize; 4] {
        // Four independent 32-bit lanes of an already-avalanched hash.
        [
            (fp as u32) as usize & self.bloom_mask,
            ((fp >> 32) as u32) as usize & self.bloom_mask,
            ((fp >> 64) as u32) as usize & self.bloom_mask,
            ((fp >> 96) as u32) as usize & self.bloom_mask,
        ]
    }

    fn bloom_set(&mut self, fp: u128) {
        for i in self.bloom_indices(fp) {
            self.bloom[i / 64] |= 1 << (i % 64);
        }
    }

    fn bloom_maybe(&self, fp: u128) -> bool {
        self.bloom_indices(fp)
            .iter()
            .all(|&i| self.bloom[i / 64] & (1 << (i % 64)) != 0)
    }

    fn hot_contains(&self, fp: u128) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = fold(fp) & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return false;
            }
            if slot == fp {
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a fingerprint known to be absent. The caller has ensured
    /// occupancy headroom.
    fn hot_insert(&mut self, fp: u128) {
        let mask = self.slots.len() - 1;
        let mut i = fold(fp) & mask;
        while self.slots[i] != 0 {
            debug_assert_ne!(self.slots[i], fp, "insert of a present fingerprint");
            i = (i + 1) & mask;
        }
        self.slots[i] = fp;
        self.gens[i] = self.next_gen;
        self.next_gen += 1;
        self.occupied += 1;
    }

    /// Removes the entry at slot `i` with backward-shift deletion, keeping
    /// linear-probe chains intact without tombstones or a rebuild.
    fn hot_remove_slot(&mut self, mut i: usize) {
        let mask = self.slots.len() - 1;
        loop {
            self.slots[i] = 0;
            let mut j = i;
            loop {
                j = (j + 1) & mask;
                if self.slots[j] == 0 {
                    self.occupied -= 1;
                    return;
                }
                let home = fold(self.slots[j]) & mask;
                // `j`'s entry may fill the hole iff its home lies outside
                // the cyclic range (i, j] — otherwise moving it would break
                // its own probe chain.
                let in_range = if i < j {
                    home > i && home <= j
                } else {
                    home > i || home <= j
                };
                if !in_range {
                    self.slots[i] = self.slots[j];
                    self.gens[i] = self.gens[j];
                    break;
                }
            }
            i = j;
        }
    }

    fn hot_remove(&mut self, fp: u128) {
        let mask = self.slots.len() - 1;
        let mut i = fold(fp) & mask;
        while self.slots[i] != fp {
            debug_assert_ne!(self.slots[i], 0, "remove of an absent fingerprint");
            i = (i + 1) & mask;
        }
        self.hot_remove_slot(i);
    }

    /// `true` if doubling the hot table keeps this store inside its own
    /// budget share (growth is checked before it happens, so the tracked
    /// peak never overshoots by the new allocation). The block cache is
    /// excluded: it is bounded on its own and recycles hot probe blocks —
    /// letting its transient contents veto table growth would trade exact
    /// capacity for cache of what that capacity would have kept exact.
    fn can_grow(&self) -> bool {
        // Doubling adds `slots.len()` new slots (16 B) + gens (4 B).
        self.cap_bytes == usize::MAX
            || self.resident_estimate() - self.cache.bytes + self.slots.len() * 20
                <= self.cap_bytes
    }

    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let old_slots = std::mem::replace(&mut self.slots, vec![0; new_len]);
        let old_gens = std::mem::replace(&mut self.gens, vec![0; new_len]);
        let mask = new_len - 1;
        for (fp, gen) in old_slots.into_iter().zip(old_gens) {
            if fp == 0 {
                continue;
            }
            let mut i = fold(fp) & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = fp;
            self.gens[i] = gen;
        }
    }

    /// Moves the oldest generation window out of the hot table into a fresh
    /// sorted run.
    fn evict_window(&mut self, ctx: &SpillContext) -> Result<(), SpillError> {
        if self.occupied == 0 {
            return Ok(());
        }
        let window = (self.occupied / 2).clamp(1, EVICT_MAX) as u32;
        let hi = self.oldest_gen + window;
        let mut fps: Vec<u128> = self
            .slots
            .iter()
            .zip(&self.gens)
            .filter(|&(&fp, &gen)| fp != 0 && gen < hi)
            .map(|(&fp, _)| fp)
            .collect();
        debug_assert_eq!(fps.len(), window as usize, "generations must be dense");
        for &fp in &fps {
            self.hot_remove(fp);
        }
        self.oldest_gen = hi;
        fps.sort_unstable();
        let bytes = encode_run(&fps);
        let byte_len = bytes.len() as u64;
        let offset = ctx.arena().append(bytes)?;
        ctx.tracker().add_spilled(byte_len);
        let mut builder = RunBuilder::new();
        builder.push_segment(offset, &fps);
        self.runs.push(builder.finish());
        Ok(())
    }

    /// Probes the sorted runs for `fp` (newest first: recently evicted
    /// fingerprints are the likeliest duplicate targets).
    fn runs_contain(&mut self, fp: u128, ctx: &SpillContext) -> Result<bool, SpillError> {
        for at in (0..self.runs.len()).rev() {
            let Some(block) = self.runs[at].block_of(fp) else {
                continue;
            };
            let (offset, count) = self.runs[at].block_span(block);
            if let Some(fps) = self.cache.get(offset) {
                if fps.binary_search(&fp).is_ok() {
                    return Ok(true);
                }
                continue;
            }
            let fps = decode_run(&ctx.arena().read(offset, count * 16)?)?;
            let hit = fps.binary_search(&fp).is_ok();
            self.cache.insert(offset, fps);
            if hit {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// K-way merges every run into one, streaming with bounded buffers.
    /// Admitted fingerprints appear in exactly one tier, so the inputs are
    /// disjoint and the merge is a pure interleave.
    fn compact(&mut self, ctx: &SpillContext) -> Result<(), SpillError> {
        if self.runs.len() < 2 {
            return Ok(());
        }
        let mut readers: Vec<RunReader> =
            self.runs.drain(..).map(RunReader::new).collect();
        // The old runs' blocks die with the merge; their cached copies too.
        self.cache.clear();
        let mut builder = RunBuilder::new();
        let mut out: Vec<u128> = Vec::with_capacity(SEG_FPS);
        loop {
            let mut min: Option<(usize, u128)> = None;
            for (at, reader) in readers.iter_mut().enumerate() {
                if let Some(head) = reader.head(ctx)? {
                    if min.is_none_or(|(_, m)| head < m) {
                        min = Some((at, head));
                    }
                }
            }
            let Some((at, fp)) = min else { break };
            readers[at].advance();
            out.push(fp);
            if out.len() == SEG_FPS {
                let bytes = encode_run(&out);
                let byte_len = bytes.len() as u64;
                let offset = ctx.arena().append(bytes)?;
                ctx.tracker().add_spilled(byte_len);
                builder.push_segment(offset, &out);
                out.clear();
            }
        }
        if !out.is_empty() {
            let bytes = encode_run(&out);
            let byte_len = bytes.len() as u64;
            let offset = ctx.arena().append(bytes)?;
            ctx.tracker().add_spilled(byte_len);
            builder.push_segment(offset, &out);
        }
        if builder.count > 0 {
            self.runs.push(builder.finish());
        }
        Ok(())
    }
}

/// The tiered fingerprint store (see the module docs).
///
/// Interior-mutable behind one mutex: the committer is the only admission
/// writer so the lock is uncontended on the hot path, and shared `&FpSet`
/// probes from racing threads (the property tests) linearize safely.
pub struct FpSet {
    ctx: SpillContext,
    inner: Mutex<Inner>,
}

impl FpSet {
    /// An empty store expecting up to `expected` distinct fingerprints,
    /// drawing budget, accounting and spill space from `ctx`.
    pub fn new(expected: usize, ctx: SpillContext) -> Self {
        // The store's budget share: a quarter of the run-wide budget (the
        // frontier needs the rest), floored at 16 KiB — a hot table too
        // small to hold the working BFS layers turns every duplicate edge
        // into a disk probe, so the floor (covered by the documented budget
        // slack) keeps pathologically tiny budgets functional.
        let cap_bytes = match ctx.budget() {
            None => usize::MAX,
            Some(b) => (b / 4).max(16 * 1024),
        };
        // Bloom target: ~10 bits per expected fingerprint (≈1% false
        // positives at full load), a power of two, at most a quarter of the
        // budget share in bytes (`cap × 2` bits, rounded *down* to a power
        // of two) — the hot table repays those bytes better than a sharper
        // front does, since every hot hit skips the run tiers entirely.
        let want_bits = (expected.max(1024).saturating_mul(10)).next_power_of_two();
        let max_bits = match cap_bytes.checked_mul(2) {
            Some(b) => (1usize << (usize::BITS - 1 - b.leading_zeros())).max(2048),
            None => want_bits,
        };
        let bits = want_bits.clamp(2048, max_bits);
        // Hot table start: half the remaining share at 20 B/slot, within
        // [64, MIN_SLOTS]; `can_grow` takes it up from there while the share
        // lasts.
        let slots = if cap_bytes == usize::MAX {
            MIN_SLOTS
        } else {
            (cap_bytes / 40).next_power_of_two().clamp(64, MIN_SLOTS)
        };
        let runs_max = if cap_bytes == usize::MAX {
            MAX_RUNS
        } else {
            (cap_bytes / 8192).clamp(2, MAX_RUNS)
        };
        let mut inner = Inner {
            cap_bytes,
            runs_max,
            bloom: vec![0; bits / 64],
            bloom_mask: bits - 1,
            slots: vec![0; slots],
            gens: vec![0; slots],
            occupied: 0,
            next_gen: 0,
            oldest_gen: 0,
            zero_seen: false,
            len: 0,
            runs: Vec::new(),
            // The cache is charged to the run's tracker (it *is* resident
            // memory), so every block it holds is frontier headroom lost —
            // and repeat probes cluster so tightly that a block or two
            // absorbs nearly all of them. Size it stingily: an eighth of the
            // share at most, not the frontier's spill budget.
            cache: BlockCache::new(if cap_bytes == usize::MAX {
                CACHE_BLOCKS
            } else {
                (cap_bytes / 16384).clamp(1, CACHE_BLOCKS)
            }),
            charged: 0,
        };
        inner.recharge(ctx.tracker());
        FpSet {
            ctx,
            inner: Mutex::new(inner),
        }
    }

    /// Admits `fp`: returns `true` (and records it) if it was never admitted
    /// before — exactly `HashSet::insert`.
    ///
    /// # Errors
    ///
    /// Propagates typed [`SpillError`]s from eviction, compaction or run
    /// probes. No admission decision is ever derived from a failed IO path.
    pub fn admit(&self, fp: u128) -> Result<bool, SpillError> {
        let mut inner = self.inner.lock().unwrap();
        if fp == 0 {
            let new = !inner.zero_seen;
            inner.zero_seen = true;
            inner.len += new as usize;
            return Ok(new);
        }
        if inner.bloom_maybe(fp) {
            // Possible duplicate: confirm against the exact tiers.
            if inner.hot_contains(fp) {
                return Ok(false);
            }
            if !inner.runs.is_empty() {
                let dup = inner.runs_contain(fp, &self.ctx)?;
                // The probe may have pulled blocks into the cache.
                inner.recharge(self.ctx.tracker());
                if dup {
                    return Ok(false);
                }
            }
        }
        inner.bloom_set(fp);
        if (inner.occupied + 1) * 10 > inner.slots.len() * FILL_TENTHS {
            if inner.can_grow() {
                inner.grow();
            } else {
                inner.evict_window(&self.ctx)?;
                if inner.runs.len() >= inner.runs_max {
                    inner.compact(&self.ctx)?;
                }
            }
            inner.recharge(self.ctx.tracker());
        }
        // A plain insert lands in preallocated slots: the resident estimate
        // is unchanged, so the tracker re-sync above only runs on the paths
        // that actually move bytes (growth, eviction, compaction, cache
        // fills) instead of on every admission.
        inner.hot_insert(fp);
        inner.len += 1;
        Ok(true)
    }

    /// Exact membership probe without admission.
    ///
    /// # Errors
    ///
    /// Propagates typed [`SpillError`]s from run probes.
    pub fn contains(&self, fp: u128) -> Result<bool, SpillError> {
        let mut inner = self.inner.lock().unwrap();
        if fp == 0 {
            return Ok(inner.zero_seen);
        }
        if !inner.bloom_maybe(fp) {
            return Ok(false);
        }
        if inner.hot_contains(fp) {
            return Ok(true);
        }
        let hit = inner.runs_contain(fp, &self.ctx)?;
        // The probe may have pulled blocks into the cache.
        inner.recharge(self.ctx.tracker());
        Ok(hit)
    }

    /// Total distinct fingerprints admitted.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len
    }

    /// `true` if nothing has been admitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current sorted runs on disk.
    pub fn run_count(&self) -> usize {
        self.inner.lock().unwrap().runs.len()
    }

    /// Estimated resident bytes (hot table + Bloom + run indexes + cache).
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().unwrap().charged
    }

    /// Live bytes of sorted runs on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .runs
            .iter()
            .map(Run::disk_bytes)
            .sum()
    }

    /// Every admitted fingerprint across all tiers (hot table, zero slot,
    /// on-disk runs), in unspecified order. The tiers are disjoint by
    /// construction — `admit` probes the runs before a hot insert and
    /// eviction windows never re-write run-resident fingerprints — so the
    /// result has exactly [`FpSet::len`] entries. Used by checkpointing,
    /// which needs the seen *membership* (its physical tiering is rebuilt
    /// fresh on resume).
    ///
    /// # Errors
    ///
    /// Propagates typed [`SpillError`]s from run reads.
    pub fn collect_fps(&self) -> Result<Vec<u128>, SpillError> {
        let inner = self.inner.lock().unwrap();
        let mut fps = Vec::with_capacity(inner.len);
        if inner.zero_seen {
            fps.push(0);
        }
        fps.extend(inner.slots.iter().copied().filter(|&fp| fp != 0));
        for run in &inner.runs {
            for seg in &run.segments {
                let bytes = self.ctx.arena().read(seg.offset, seg.count * 16)?;
                fps.extend(decode_run(&bytes)?);
            }
        }
        debug_assert_eq!(fps.len(), inner.len, "tiers overlap or lost entries");
        Ok(fps)
    }

    /// Forces the oldest generation window out to a run regardless of
    /// budget pressure (test hook for the eviction/compaction machinery).
    ///
    /// # Errors
    ///
    /// Propagates typed [`SpillError`]s from the run write.
    pub fn force_evict(&self) -> Result<(), SpillError> {
        let mut inner = self.inner.lock().unwrap();
        inner.evict_window(&self.ctx)?;
        inner.recharge(self.ctx.tracker());
        Ok(())
    }

    /// Forces a full k-way merge of the current runs (test hook).
    ///
    /// # Errors
    ///
    /// Propagates typed [`SpillError`]s from the merge IO.
    pub fn force_compact(&self) -> Result<(), SpillError> {
        let mut inner = self.inner.lock().unwrap();
        inner.compact(&self.ctx)?;
        inner.recharge(self.ctx.tracker());
        Ok(())
    }
}

impl Drop for FpSet {
    fn drop(&mut self) {
        let inner = self.inner.get_mut().unwrap_or_else(|e| e.into_inner());
        self.ctx.tracker().sub_resident(inner.charged);
        inner.charged = 0;
    }
}

// ---------------------------------------------------------------------------
// SeenBackend
// ---------------------------------------------------------------------------

/// Every engine's seen set: an exact [`FpHashSet`] while unbudgeted, the
/// tiered [`FpSet`] under a memory budget. `admit` behaves exactly like
/// `HashSet::insert` with either, so the committer's admission order (and
/// every engine's bit-identity to the reference) rides on the answers.
pub(crate) enum SeenBackend {
    /// `charged` is the table's real size, as last charged to `ctx`.
    Exact { set: FpHashSet, ctx: SpillContext, charged: usize },
    Tiered(FpSet),
}

impl SeenBackend {
    /// Picks the backend for `ctx`'s budget, expecting up to `expected`
    /// distinct fingerprints.
    pub(crate) fn new(expected: usize, ctx: &SpillContext) -> Self {
        match ctx.budget() {
            Some(_) => SeenBackend::Tiered(FpSet::new(expected, ctx.clone())),
            None => SeenBackend::Exact {
                set: FpHashSet::default(),
                ctx: ctx.clone(),
                charged: 0,
            },
        }
    }

    /// Charges the tracker for the exact table's growth. std's table keeps
    /// 8 buckets per 7 of capacity (one spare below 8), each a 16-byte
    /// fingerprint plus a control byte, and one 16-byte control group; it
    /// never shrinks here.
    fn recharge(set: &FpHashSet, ctx: &SpillContext, charged: &mut usize) {
        let cap = set.capacity();
        let now = if cap < 8 { cap + 1 } else { cap / 7 * 8 } * 17 + 16;
        if now > *charged {
            ctx.tracker().add_resident(now - *charged);
            *charged = now;
        }
    }

    /// Makes room for `expected` admissions in one allocation, capped at
    /// [`MAX_RESERVED_SLOTS`], so a big run never rehashes on its way up.
    /// A no-op for the tiered backend, which sizes itself from its budget.
    pub(crate) fn reserve(&mut self, expected: usize) {
        if let SeenBackend::Exact { set, ctx, charged } = self {
            let room = expected.min(MAX_RESERVED_SLOTS / 8 * 7);
            set.reserve(room.saturating_sub(set.len()));
            Self::recharge(set, ctx, charged);
        }
    }

    /// Records `fp`; `true` iff it was not already present.
    pub(crate) fn admit(&mut self, fp: u128) -> Result<bool, SpillError> {
        match self {
            SeenBackend::Exact { set, ctx, charged } => {
                let new = set.insert(fp);
                Self::recharge(set, ctx, charged);
                Ok(new)
            }
            SeenBackend::Tiered(fpset) => fpset.admit(fp),
        }
    }

    /// Resident bytes of the seen set.
    pub(crate) fn seen_resident_bytes(&self) -> usize {
        match self {
            SeenBackend::Exact { charged, .. } => *charged,
            SeenBackend::Tiered(fpset) => fpset.resident_bytes(),
        }
    }

    /// Live bytes of evicted fingerprints on disk (tiered backend only).
    pub(crate) fn fpset_disk_bytes(&self) -> u64 {
        match self {
            SeenBackend::Exact { .. } => 0,
            SeenBackend::Tiered(fpset) => fpset.disk_bytes(),
        }
    }

    /// Every admitted fingerprint, in unspecified order (checkpoint hook:
    /// the snapshot stores sorted membership, not the physical tiering).
    pub(crate) fn collect_fps(&self) -> Result<Vec<u128>, SpillError> {
        match self {
            SeenBackend::Exact { set, .. } => Ok(set.iter().copied().collect()),
            SeenBackend::Tiered(fpset) => fpset.collect_fps(),
        }
    }
}

impl Drop for SeenBackend {
    fn drop(&mut self) {
        if let SeenBackend::Exact { ctx, charged, .. } = self {
            ctx.tracker().sub_resident(*charged);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx(budget: usize) -> SpillContext {
        SpillContext::new(Some(budget))
    }

    #[test]
    fn admit_is_hashset_insert_without_budget_pressure() {
        let set = FpSet::new(1 << 12, SpillContext::new(None));
        let mut reference = HashSet::new();
        for i in 0..4000u128 {
            let fp = i.wrapping_mul(0x9e3779b97f4a7c15_9e3779b97f4a7c15);
            assert_eq!(set.admit(fp).unwrap(), reference.insert(fp), "fp {fp:x}");
        }
        for i in 0..4000u128 {
            let fp = i.wrapping_mul(0x9e3779b97f4a7c15_9e3779b97f4a7c15);
            assert!(set.contains(fp).unwrap());
            assert!(!set.admit(fp).unwrap());
        }
        assert_eq!(set.len(), reference.len());
        assert_eq!(set.run_count(), 0, "unbudgeted set must not spill");
    }

    #[test]
    fn tiny_budget_evicts_to_runs_and_stays_exact() {
        let ctx = tiny_ctx(0);
        let set = FpSet::new(1 << 12, ctx.clone());
        let mut reference = HashSet::new();
        // Interleave fresh admissions with duplicate probes of earlier fps
        // so hot hits, run probes and the Bloom front all participate.
        for i in 0..3000u128 {
            let fp = (i + 1).wrapping_mul(0xdeadbeef_deadbeef_deadbeef_deadbeefu128);
            assert_eq!(set.admit(fp).unwrap(), reference.insert(fp));
            let back = ((i / 2) + 1).wrapping_mul(0xdeadbeef_deadbeef_deadbeef_deadbeefu128);
            assert_eq!(set.admit(back).unwrap(), reference.insert(back));
        }
        assert!(set.run_count() > 0, "zero budget must evict");
        assert!(set.disk_bytes() > 0);
        assert_eq!(set.len(), reference.len());
        for &fp in &reference {
            assert!(set.contains(fp).unwrap());
        }
    }

    #[test]
    fn compaction_merges_runs_and_preserves_membership() {
        let ctx = tiny_ctx(0);
        let set = FpSet::new(1 << 12, ctx.clone());
        let mut all = Vec::new();
        for i in 0..2000u128 {
            let fp = (i + 1) << 64 | (i * 7 + 3);
            set.admit(fp).unwrap();
            all.push(fp);
        }
        while set.run_count() < 3 {
            set.force_evict().unwrap();
        }
        let before = set.run_count();
        set.force_compact().unwrap();
        assert_eq!(set.run_count(), 1, "compaction must leave one run, had {before}");
        for fp in all {
            assert!(set.contains(fp).unwrap());
            assert!(!set.admit(fp).unwrap());
        }
    }

    #[test]
    fn zero_fingerprint_is_tracked_exactly() {
        let set = FpSet::new(16, tiny_ctx(0));
        assert!(!set.contains(0).unwrap());
        assert!(set.admit(0).unwrap());
        assert!(!set.admit(0).unwrap());
        assert!(set.contains(0).unwrap());
    }

    #[test]
    fn decode_run_rejects_truncated_and_unsorted_bytes() {
        let good = encode_run(&[1, 2, 3]);
        assert_eq!(decode_run(&good).unwrap(), vec![1, 2, 3]);
        let truncated = &good[..good.len() - 5];
        assert!(matches!(
            decode_run(truncated),
            Err(SpillError::Corrupt { .. })
        ));
        let unsorted = encode_run(&[3, 2, 1]);
        assert!(matches!(
            decode_run(&unsorted),
            Err(SpillError::Corrupt { .. })
        ));
    }

    #[test]
    fn dropping_the_set_releases_its_accounting() {
        let ctx = tiny_ctx(4096);
        {
            let set = FpSet::new(1 << 10, ctx.clone());
            for i in 1..500u128 {
                set.admit(i << 32).unwrap();
            }
            assert!(ctx.tracker().resident_bytes() > 0);
        }
        assert_eq!(ctx.tracker().resident_bytes(), 0);
    }
}
