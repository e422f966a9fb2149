//! Deep-horizon conformance smoke: a state space past 10⁶ configurations,
//! the regime where the pool runs long past its inline start, the seen set
//! holds its full reserve, the per-worker intern caches carry most lookups,
//! and adaptive batching leaves its minimum batch size.
//!
//! The small conformance scenarios can't reach this regime, so a racing
//! bug that only fires under load (a stale cache entry, a batch boundary
//! off-by-one) would slip past them.
//! Here the 8-worker packed run must reproduce the 1-worker packed run
//! bit-for-bit — same `ExploreOutcome`, same `ExploreStats` — on a
//! 1.5M-config space.
//!
//! Marked `#[ignore]`: minutes-scale in debug builds. CI runs it in release
//! via `cargo test --release --test deep_horizon -- --ignored`.

use cbh_core::maxreg::MaxRegConsensus;
use cbh_verify::checker::{ExploreLimits, Explorer};

const DEEP_LIMITS: ExploreLimits = ExploreLimits {
    depth: 26,
    max_configs: 3_000_000,
    solo_check_budget: None,
    memory_budget: None,
    checkpoint_every: None,
};

#[test]
#[ignore = "minutes-scale in debug builds; CI runs it with --release -- --ignored"]
fn packed_w8_matches_w1_past_a_million_configs() {
    let protocol = MaxRegConsensus::new(4);
    let inputs = [0u64, 1, 2, 3];
    let w1 = Explorer::new()
        .workers(1)
        .limits(DEEP_LIMITS)
        .explore_stats(&protocol, &inputs)
        .expect("deep horizon explores cleanly at 1 worker");
    assert!(
        w1.1.configs >= 1_000_000,
        "deep-horizon space shrank below 10^6 configs ({}); the smoke no \
         longer exercises the at-scale regime",
        w1.1.configs
    );
    let w8 = Explorer::new()
        .workers(8)
        .limits(DEEP_LIMITS)
        .explore_stats(&protocol, &inputs)
        .expect("deep horizon explores cleanly at 8 workers");
    assert_eq!(w1, w8, "packed w8 diverged from w1 on the deep horizon");
}

/// Same at-scale regime, but with the memory budget pinned to ~10% of the
/// unbounded run's observed resident peak: the tiered fingerprint store must
/// evict most of a million-plus-entry seen set to disk runs, the frontier
/// must spill most layers — and the outcome must still be bit-identical at
/// 1 and 8 workers, with the tracked resident peak staying under the budget
/// plus a fixed slack for floor-sized structures.
#[test]
#[ignore = "minutes-scale in debug builds; CI runs it with --release -- --ignored"]
fn budgeted_deep_horizon_matches_unbounded() {
    const SLACK: usize = 4 << 20;
    let protocol = MaxRegConsensus::new(4);
    let inputs = [0u64, 1, 2, 3];
    let unbounded = Explorer::new()
        .workers(1)
        .limits(DEEP_LIMITS)
        .explore_stats(&protocol, &inputs)
        .expect("deep horizon explores cleanly unbounded");
    assert!(unbounded.1.configs >= 1_000_000);
    assert_eq!(unbounded.1.bytes_spilled, 0);
    let budget = unbounded.1.peak_resident_bytes / 10;
    let limits = ExploreLimits {
        memory_budget: Some(budget),
        ..DEEP_LIMITS
    };
    for workers in [1, 8] {
        let spilled = Explorer::new()
            .workers(workers)
            .limits(limits)
            .explore_stats(&protocol, &inputs)
            .expect("budgeted deep horizon explores cleanly");
        assert_eq!(
            spilled, unbounded,
            "budget {budget} at {workers} workers diverged on the deep horizon"
        );
        assert!(
            spilled.1.bytes_spilled > 0,
            "budget {budget} at {workers} workers never spilled"
        );
        assert!(
            spilled.1.fpset_disk_bytes > 0,
            "budget {budget} at {workers} workers never evicted the seen set \
             (a 1.5M-entry set cannot fit in a {budget}-byte cap)"
        );
        assert!(
            spilled.1.peak_resident_bytes <= budget + SLACK,
            "budget {budget} at {workers} workers peaked at {} resident bytes",
            spilled.1.peak_resident_bytes
        );
    }
}
