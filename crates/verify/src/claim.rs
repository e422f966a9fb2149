//! Lock-free claim table: a fixed-capacity concurrent fingerprint set.
//!
//! No exploration engine uses it: every engine admits into the seen set of
//! `crate::fpset` (an exact hash set, or the tiered [`crate::fpset::FpSet`]
//! under a memory budget). [`ClaimTable`] stays only for its two remaining
//! users, the benchmark's `claim.*` layer metrics and the `claim_props`
//! property tests, which race [`ClaimTable::claim`] (an insert that does not
//! admit) against [`ClaimTable::admit`] (an exactly-once admission recorded
//! in a committed bitmap). The arguments below are what make those races
//! exactly-once.
//!
//! # Layout and probe scheme
//!
//! `words` interleaves slot halves: slot `i` is `(words[2i], words[2i+1])` =
//! `(lo, hi)` of the resident fingerprint. A slot is **write-once**: `lo`
//! moves `0 → fp.lo` exactly once (the CAS that claims the slot) and `hi`
//! moves `0 → fp.hi` exactly once (a release-store by the CAS winner).
//! Probing is linear from `hi(fp) & mask` for up to `PROBE_LIMIT` slots.
//!
//! # Why two u64 halves are safe
//!
//! Matching compares the **full 128 bits** — both halves must agree — so the
//! split loses no information relative to a `HashSet<u128>`. The only hazard
//! is the publication gap between the `lo`-CAS and the `hi`-store; a reader
//! that observes `lo != 0` but `hi == 0` simply spins until the winner's
//! release-store lands (per-location coherence makes that wait finite).
//! Fingerprints with a zero half — probability ≈ 2⁻⁶³ per half under the
//! model's 128-bit content hashing — would be indistinguishable from vacant
//! or half-published slots, so they are routed to the mutex-guarded
//! [`overflow`](ClaimTable#structfield.overflow) map instead, which also
//! absorbs insertions once a probe run finds no vacancy (table effectively
//! full). Every path degrades to a correct, merely slower, shared map —
//! never to a lost or duplicated claim.
//!
//! # Insert-once argument
//!
//! For a fixed fingerprint every thread walks the **same** deterministic
//! probe sequence over slots whose occupancy is monotone (claimed slots are
//! never vacated, resident fingerprints never rewritten). Each thread stops
//! at the first slot that either matches the fingerprint or is vacant; at a
//! vacant slot exactly one CAS wins. The winner sees `ClaimedNew`; every
//! racer either loses the CAS and re-examines the same slot (now holding the
//! winner's fingerprint → `Present`) or arrives later and matches earlier in
//! the walk. A thread can reach the overflow map only after finding the
//! whole probe window occupied by *other* fingerprints — which, by
//! monotonicity, every other thread probing the same fingerprint also finds
//! — so the per-fingerprint decision point is unique: either one table slot
//! or one overflow entry, never both.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Most slots a table reserves up front (2²³ slots, 128 MiB of
/// fingerprints), so a huge `expected` cannot demand an absurd allocation.
const MAX_RESERVED_SLOTS: usize = 1 << 23;

/// Longest linear-probe run before an insertion falls back to the overflow
/// map. Bounds worst-case work per claim on a degenerately full table.
const PROBE_LIMIT: usize = 64;

/// Where a fingerprint landed during a probe.
enum Probe {
    /// This call claimed a vacant slot — first sight of the fingerprint.
    ClaimedNew(usize),
    /// The fingerprint already resides in this slot.
    Present(usize),
    /// Zero-half fingerprint or no vacancy within [`PROBE_LIMIT`]: the
    /// overflow map is authoritative for this fingerprint.
    Overflow,
}

/// A fixed-capacity, lock-free set of 128-bit fingerprints with a separate
/// committed bitmap. See the [module docs](self) for the design argument.
pub struct ClaimTable {
    /// Interleaved slot halves: slot `i` = `(words[2i] = lo, words[2i+1] = hi)`.
    words: Vec<AtomicU64>,
    /// Slot count − 1 (slot count is a power of two).
    mask: usize,
    /// One bit per slot: set iff the committer admitted the resident
    /// fingerprint. Distinguishes "claimed by a worker" from "admitted".
    committed: Vec<AtomicU64>,
    /// Fingerprint → admitted? for everything the table proper cannot hold.
    overflow: Mutex<HashMap<u128, bool>>,
}

impl ClaimTable {
    /// A table sized for about `expected` distinct fingerprints (the
    /// benchmark passes `ExploreLimits::max_configs`). Allocates ~2 slots per
    /// expected entry, clamped to [16, 2²³] slots, so probes stay short at
    /// the advertised fill.
    pub fn new(expected: usize) -> Self {
        let slots = expected
            .saturating_add(1)
            .saturating_mul(2)
            .clamp(16, MAX_RESERVED_SLOTS)
            .next_power_of_two();
        ClaimTable {
            words: (0..slots * 2).map(|_| AtomicU64::new(0)).collect(),
            mask: slots - 1,
            committed: (0..slots.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            overflow: Mutex::new(HashMap::new()),
        }
    }

    /// Number of slots in the fixed table (excluding overflow).
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Estimated resident bytes: the fixed allocation plus the overflow map.
    pub fn resident_bytes(&self) -> usize {
        self.words.len() * 8
            + self.committed.len() * 8
            + self.overflow.lock().unwrap().len() * 40
    }

    /// Waits out the publication gap on `slot`'s hi half and compares it.
    /// Only called when the slot's lo half matched, i.e. some thread CASed
    /// it and its release-store of hi is at worst in flight.
    fn hi_matches(&self, slot: usize, hi: u64) -> bool {
        loop {
            let stored = self.words[slot * 2 + 1].load(Ordering::Acquire);
            if stored != 0 {
                return stored == hi;
            }
            std::hint::spin_loop();
        }
    }

    /// Finds or claims the slot for `fp`. The write path of both
    /// [`ClaimTable::claim`] and [`ClaimTable::admit`].
    fn insert_fp(&self, fp: u128) -> Probe {
        let lo = fp as u64;
        let hi = (fp >> 64) as u64;
        if lo == 0 || hi == 0 {
            return Probe::Overflow; // zero halves are the vacancy sentinel
        }
        let mut slot = (hi as usize) & self.mask;
        for _ in 0..PROBE_LIMIT.min(self.mask + 1) {
            let resident = self.words[slot * 2].load(Ordering::Acquire);
            if resident == 0 {
                match self.words[slot * 2].compare_exchange(
                    0,
                    lo,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.words[slot * 2 + 1].store(hi, Ordering::Release);
                        return Probe::ClaimedNew(slot);
                    }
                    Err(winner) => {
                        if winner == lo && self.hi_matches(slot, hi) {
                            return Probe::Present(slot);
                        }
                    }
                }
            } else if resident == lo && self.hi_matches(slot, hi) {
                return Probe::Present(slot);
            }
            slot = (slot + 1) & self.mask;
        }
        Probe::Overflow
    }

    /// Inserts `fp` without admitting it: `true` iff this call is the first
    /// to claim `fp`. Thread-safe; lock-free off the overflow path.
    pub fn claim(&self, fp: u128) -> bool {
        match self.insert_fp(fp) {
            Probe::ClaimedNew(_) => true,
            Probe::Present(_) => false,
            Probe::Overflow => match self.overflow.lock().unwrap().entry(fp) {
                Entry::Vacant(e) => {
                    e.insert(false);
                    true
                }
                Entry::Occupied(_) => false,
            },
        }
    }

    /// Committer-side admission: `true` iff `fp` has not been admitted
    /// before. Claims do **not** count as admissions — the committed bitmap
    /// keeps the two states distinct — so the result is exactly
    /// `HashSet::insert` on the admitting thread's sequence of calls,
    /// regardless of what was claimed concurrently.
    pub fn admit(&self, fp: u128) -> bool {
        match self.insert_fp(fp) {
            Probe::ClaimedNew(slot) | Probe::Present(slot) => {
                let bit = 1u64 << (slot % 64);
                let prev = self.committed[slot / 64].fetch_or(bit, Ordering::Relaxed);
                prev & bit == 0
            }
            Probe::Overflow => {
                let mut overflow = self.overflow.lock().unwrap();
                let admitted = overflow.entry(fp).or_insert(false);
                !std::mem::replace(admitted, true)
            }
        }
    }

    /// `true` if `fp` was ever claimed or admitted (test/diagnostic view).
    ///
    /// Sound because occupancy is monotone: an overflow insertion happens
    /// only when every slot in `fp`'s probe window is occupied, so a vacant
    /// slot seen here proves `fp` never reached the overflow map either.
    pub fn contains(&self, fp: u128) -> bool {
        let lo = fp as u64;
        let hi = (fp >> 64) as u64;
        if lo != 0 && hi != 0 {
            let mut slot = (hi as usize) & self.mask;
            for _ in 0..PROBE_LIMIT.min(self.mask + 1) {
                let resident = self.words[slot * 2].load(Ordering::Acquire);
                if resident == 0 {
                    return false;
                }
                if resident == lo && self.hi_matches(slot, hi) {
                    return true;
                }
                slot = (slot + 1) & self.mask;
            }
        }
        self.overflow.lock().unwrap().contains_key(&fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A spread-out deterministic fingerprint with no zero halves.
    fn fp(i: u64) -> u128 {
        let lo = (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let hi = (i + 1).wrapping_mul(0xc2b2_ae3d_27d4_eb4f) | 1;
        ((hi as u128) << 64) | lo as u128
    }

    #[test]
    fn claim_admit_and_contains_basics() {
        let table = ClaimTable::new(100);
        assert!(table.claim(fp(1)));
        assert!(!table.claim(fp(1)), "second claim loses");
        assert!(table.admit(fp(1)), "a claim is not an admission");
        assert!(!table.admit(fp(1)), "second admission loses");
        assert!(table.admit(fp(2)), "admit works without a prior claim");
        assert!(!table.claim(fp(2)), "admission also claims");
        assert!(table.contains(fp(1)));
        assert!(table.contains(fp(2)));
        assert!(!table.contains(fp(3)));
    }

    #[test]
    fn zero_half_fingerprints_take_the_overflow_path() {
        let table = ClaimTable::new(16);
        for weird in [0u128, 1, 7 << 64, (3 << 64) | 5, u64::MAX as u128] {
            assert!(table.claim(weird), "{weird:#x} first claim");
            assert!(!table.claim(weird), "{weird:#x} second claim");
            assert!(table.admit(weird), "{weird:#x} first admission");
            assert!(!table.admit(weird), "{weird:#x} second admission");
            assert!(table.contains(weird));
        }
    }

    #[test]
    fn full_table_spills_to_overflow_without_losing_claims() {
        // 16 slots (the minimum), hammered with 10× more fingerprints:
        // most must overflow; none may be lost or doubly claimed.
        let table = ClaimTable::new(0);
        assert_eq!(table.capacity(), 16);
        for i in 0..160 {
            assert!(table.claim(fp(i)), "fp {i} lost");
            assert!(!table.claim(fp(i)), "fp {i} claimed twice");
            assert!(table.admit(fp(i)), "fp {i} admission lost");
            assert!(!table.admit(fp(i)), "fp {i} admitted twice");
        }
        for i in 0..160 {
            assert!(table.contains(fp(i)));
        }
        assert!(!table.overflow.lock().unwrap().is_empty(), "nothing spilled");
    }

    #[test]
    fn concurrent_claims_are_exactly_once() {
        // 8 threads race claims over one overlapping universe; each
        // fingerprint must be won by exactly one thread. The tiny table
        // forces the overflow path to race too.
        for expected in [0usize, 4096] {
            let table = ClaimTable::new(expected);
            let universe: Vec<u128> = (0..2000).map(fp).collect();
            let wins: Vec<Vec<u128>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..8)
                    .map(|t| {
                        let table = &table;
                        let universe = &universe;
                        scope.spawn(move || {
                            let mut won = Vec::new();
                            // Offset start so threads collide mid-stream.
                            for i in 0..universe.len() {
                                let fp = universe[(i + t * 251) % universe.len()];
                                if table.claim(fp) {
                                    won.push(fp);
                                }
                            }
                            won
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut seen = HashSet::new();
            for fp in wins.iter().flatten() {
                assert!(seen.insert(*fp), "fingerprint {fp:#x} claimed twice");
            }
            assert_eq!(seen.len(), universe.len(), "claims lost (cap {expected})");
        }
    }

    #[test]
    fn admissions_are_exactly_once_under_concurrent_claims() {
        // A single "committer" admits while workers spam claims of the same
        // fingerprints: claims must never eat an admission.
        let table = ClaimTable::new(64); // small: exercises overflow too
        let universe: Vec<u128> = (0..1500).map(fp).collect();
        let admitted = std::thread::scope(|scope| {
            for t in 0..4 {
                let table = &table;
                let universe = &universe;
                scope.spawn(move || {
                    for i in 0..universe.len() {
                        table.claim(universe[(i + t * 379) % universe.len()]);
                    }
                });
            }
            let mut admitted = 0;
            for chunk in universe.chunks(3) {
                for &fp in chunk {
                    if table.admit(fp) {
                        admitted += 1;
                    }
                }
            }
            admitted
        });
        assert_eq!(admitted, universe.len(), "every fp admitted exactly once");
        for &fp in &universe {
            assert!(!table.admit(fp), "fp re-admitted after the fact");
        }
    }
}
