//! Property tests for the lock-free claim table, a concurrent fingerprint
//! set that stays exactly-once when claims (inserts that do not admit) race
//! admissions. No engine uses it; the benchmark's `claim.*` metrics do.
//!
//! The reference model is the structure the table replaced: a
//! `HashSet<u128>`. For random fingerprint workloads — duplicates, zero
//! halves, table capacities from degenerate to roomy — the table must give
//! exactly the `HashSet` answers when driven sequentially, and exactly-once
//! claim/admission semantics when driven from racing threads with the work
//! interleaved arbitrarily.

use cbh_verify::claim::ClaimTable;
use proptest::prelude::*;
use std::collections::HashSet;

/// Spreads small generator integers into full-width fingerprints while
/// keeping collisions likely (many duplicates per run) and preserving the
/// generator's occasional zero halves via the pass-through arm.
fn widen(raw: u128, spread: bool) -> u128 {
    if !spread {
        return raw; // raw values keep zero halves and tiny magnitudes
    }
    let lo = (raw as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let hi = ((raw >> 64) as u64 ^ 0xdead_beef).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    ((hi as u128) << 64) | lo as u128
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Driven from one thread, `claim` is exactly `HashSet::insert`.
    #[test]
    fn sequential_claims_agree_with_hashset(
        raws in proptest::collection::vec(0u128..5000, 1..300),
        spread in any::<bool>(),
        expected in 0usize..4096,
    ) {
        let table = ClaimTable::new(expected);
        let mut reference: HashSet<u128> = HashSet::new();
        for &raw in &raws {
            let fp = widen(raw, spread);
            prop_assert_eq!(table.claim(fp), reference.insert(fp));
            prop_assert!(table.contains(fp));
        }
        for &raw in &raws {
            prop_assert!(table.contains(widen(raw, spread)));
        }
    }

    /// Likewise `admit`, independent of interleaved prior claims.
    #[test]
    fn sequential_admissions_agree_with_hashset(
        raws in proptest::collection::vec(0u128..5000, 1..300),
        claim_first in proptest::collection::vec(any::<bool>(), 1..300),
        expected in 0usize..4096,
    ) {
        let table = ClaimTable::new(expected);
        let mut reference: HashSet<u128> = HashSet::new();
        for (i, &raw) in raws.iter().enumerate() {
            let fp = widen(raw, true);
            if claim_first[i % claim_first.len()] {
                table.claim(fp); // claims must not affect admission
            }
            prop_assert_eq!(table.admit(fp), reference.insert(fp));
        }
    }

    /// Racing threads claiming overlapping fingerprint sets: every distinct
    /// fingerprint is won exactly once across all threads — no lost claims,
    /// no duplicate wins — and the winners' union is the input set.
    #[test]
    fn interleaved_claims_are_exactly_once(
        raws in proptest::collection::vec(0u128..2000, 1..200),
        spread in any::<bool>(),
        expected in 0usize..512,
        threads in 2usize..6,
    ) {
        let table = ClaimTable::new(expected);
        let fps: Vec<u128> = raws.iter().map(|&r| widen(r, spread)).collect();
        let wins: Vec<Vec<u128>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let table = &table;
                    let fps = &fps;
                    scope.spawn(move || {
                        let mut won = Vec::new();
                        for i in 0..fps.len() {
                            // Rotated start: threads collide mid-stream.
                            let fp = fps[(i + t * 97) % fps.len()];
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
        let distinct: HashSet<u128> = fps.iter().copied().collect();
        let mut winners: HashSet<u128> = HashSet::new();
        for fp in wins.iter().flatten() {
            prop_assert!(winners.insert(*fp), "{:#x} claimed twice", fp);
        }
        prop_assert_eq!(winners, distinct);
    }

    /// A committer admitting against racing workers: admissions are
    /// exactly-once and complete regardless of claim interleavings — the
    /// engine's determinism hinges on exactly this.
    #[test]
    fn admissions_survive_racing_claims(
        raws in proptest::collection::vec(0u128..1500, 1..150),
        expected in 0usize..256,
    ) {
        let table = ClaimTable::new(expected);
        let fps: Vec<u128> = raws.iter().map(|&r| widen(r, true)).collect();
        let distinct: HashSet<u128> = fps.iter().copied().collect();
        let admitted = std::thread::scope(|scope| {
            for t in 0..3 {
                let table = &table;
                let fps = &fps;
                scope.spawn(move || {
                    for i in 0..fps.len() {
                        table.claim(fps[(i + t * 53) % fps.len()]);
                    }
                });
            }
            let mut first_admissions = 0usize;
            for &fp in &fps {
                if table.admit(fp) {
                    first_admissions += 1;
                }
            }
            first_admissions
        });
        prop_assert_eq!(admitted, distinct.len());
        for &fp in &distinct {
            prop_assert!(!table.admit(fp), "{:#x} re-admitted", fp);
        }
    }

    /// Degenerate capacity: a minimum-size table under a workload far past
    /// its slots must keep full exactly-once semantics via the overflow path.
    #[test]
    fn capacity_exceeded_keeps_exact_semantics(
        raws in proptest::collection::vec(0u128..10_000, 64..400),
    ) {
        let table = ClaimTable::new(0); // 16 slots, guaranteed overflow
        let mut reference: HashSet<u128> = HashSet::new();
        for &raw in &raws {
            let fp = widen(raw, true);
            prop_assert_eq!(table.claim(fp), reference.insert(fp));
        }
        // Everything is still findable after the spill.
        for &raw in &raws {
            prop_assert!(table.contains(widen(raw, true)));
        }
    }
}
