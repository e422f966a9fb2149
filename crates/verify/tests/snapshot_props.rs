//! Property tests for the checkpoint wire format — the bytes a killed
//! exploration trusts with its entire resume state.
//!
//! Mirrors the delta-codec suite (`cbh-model/tests/delta_props.rs`): random
//! structurally-valid snapshots round-trip bit-exactly, and hostile bytes —
//! flips, truncations, outright garbage — always come back as a typed
//! [`SnapshotError`], never a panic, a bogus decode or an oversized
//! allocation. Stronger than the delta codec's corruption bar, in fact:
//! every byte of a snapshot except the four trailing reserved header bytes
//! is CRC-covered, so a flip either leaves the decode equal to the original
//! or fails typed — it can never smuggle in a *different* snapshot.

use cbh_verify::snapshot::{Snapshot, SnapshotError, NO_PARENT};
use proptest::prelude::*;

/// SplitMix64: cheap deterministic diversity for fingerprints and names.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Shapes free-form raw material into a structurally valid snapshot: links
/// point backwards in breadth-first order, pids stay below `n`, the seen
/// set is sorted and duplicate-free with exactly one entry per
/// configuration, and every cursor respects its range invariant.
#[allow(clippy::too_many_arguments)]
fn build_snapshot(
    name_seed: u64,
    n: usize,
    depth: usize,
    max_configs: usize,
    solo: Option<u64>,
    symmetric: bool,
    links_raw: &[(u64, u64)],
    fp_seed: u64,
    cursors: (u64, u64, u64, bool),
) -> Snapshot {
    // Parent node indices (0 = the root) never decrease, as in a
    // breadth-first run: link `j`'s parent is drawn from `[prev, j]`.
    let mut prev = 0;
    let links: Vec<(usize, usize)> = links_raw
        .iter()
        .enumerate()
        .map(|(j, &(parent_raw, pid_raw))| {
            prev += parent_raw as usize % (j + 1 - prev);
            let parent = match prev {
                0 => NO_PARENT,
                k => k - 1,
            };
            (parent, pid_raw as usize % n)
        })
        .collect();
    let configs = links.len() + 1;
    // Low bits carry the index, so fingerprints are distinct by construction.
    let mut seen: Vec<u128> = (0..configs)
        .map(|i| ((mix(fp_seed ^ i as u64) as u128) << 64) | i as u128)
        .collect();
    seen.sort_unstable();
    let (next_raw, peak_raw, reached_raw, complete) = cursors;
    Snapshot {
        protocol: format!("row-{}", name_seed % 1_000),
        n,
        inputs: (0..n as u64).collect(),
        depth,
        max_configs,
        solo_check_budget: solo,
        symmetric,
        links,
        seen,
        next_commit: next_raw as usize % (configs + 1),
        frontier_peak: peak_raw as usize % configs + 1,
        depth_reached: reached_raw as usize % (depth + 1),
        complete,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshots_roundtrip_bit_exactly(
        name_seed in any::<u64>(),
        n in 2usize..6,
        depth in 0usize..64,
        max_configs in 1usize..2_000_000,
        solo_raw in (any::<bool>(), 0u64..10_000),
        symmetric in any::<bool>(),
        links_raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..48),
        fp_seed in any::<u64>(),
        cursors in (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
    ) {
        let solo = solo_raw.0.then_some(solo_raw.1);
        let snap = build_snapshot(
            name_seed, n, depth, max_configs, solo, symmetric,
            &links_raw, fp_seed, cursors,
        );
        let bytes = snap.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).expect("honest snapshot decodes");
        prop_assert_eq!(&decoded, &snap);
        // Re-encoding is byte-stable: one canonical encoding per snapshot.
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn byte_flips_never_panic_and_never_forge_a_different_snapshot(
        links_raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..24),
        fp_seed in any::<u64>(),
        flips in proptest::collection::vec((any::<u64>(), 1u8..=255), 1..24),
    ) {
        let snap = build_snapshot(
            7, 3, 9, 50_000, Some(12), false,
            &links_raw, fp_seed, (1, 2, 3, true),
        );
        let good = snap.to_bytes();
        for &(pos, mask) in &flips {
            let mut corrupt = good.clone();
            let at = pos as usize % corrupt.len();
            corrupt[at] ^= mask;
            // `mask` is nonzero, so the bytes genuinely differ. CRC coverage
            // means the decode must fail typed — unless the flip landed in
            // the trailing reserved header bytes (44..48), the only four
            // bytes outside every checksum, where the decode must still
            // equal the original.
            match Snapshot::from_bytes(&corrupt) {
                Err(_) => {}
                Ok(decoded) => {
                    prop_assert!((44..48).contains(&at), "undetected flip at {}", at);
                    prop_assert_eq!(&decoded, &snap);
                }
            }
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error(
        links_raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..12),
        fp_seed in any::<u64>(),
    ) {
        let snap = build_snapshot(
            3, 2, 6, 9_000, None, true,
            &links_raw, fp_seed, (0, 0, 0, false),
        );
        let good = snap.to_bytes();
        for cut in 0..good.len() {
            match Snapshot::from_bytes(&good[..cut]) {
                Ok(_) => prop_assert!(false, "strict prefix {} decoded", cut),
                // A cut below the CRC-covered region reads as truncation; at
                // or above it, the damaged trailing section may surface as
                // any typed decode error — but never a panic.
                Err(SnapshotError::Io { .. }) => {
                    prop_assert!(false, "in-memory decode returned an Io error")
                }
                Err(_) => {}
            }
        }
    }

    #[test]
    fn arbitrary_garbage_never_panics(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        // Typed error or (vanishingly unlikely) an honest decode — the call
        // must return either way, without panicking or allocating from
        // attacker-controlled counts.
        let _ = Snapshot::from_bytes(&garbage);
    }

    #[test]
    fn garbage_behind_an_honest_header_never_panics(
        links_raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..12),
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Hostile payload bytes behind a header that passes its CRC: the
        // section walk and every count/bounds check must stay total.
        let snap = build_snapshot(1, 2, 4, 1_000, None, false, &links_raw, 5, (0, 0, 0, true));
        let mut bytes = snap.to_bytes();
        bytes.truncate(48);
        bytes.extend_from_slice(&garbage);
        let _ = Snapshot::from_bytes(&bytes);
    }
}
