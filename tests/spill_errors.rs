//! Typed spill-failure surface: when the spill directory is unusable, a
//! budgeted run must return a clean [`SimError::Spill`] — never panic inside
//! a worker, never hang the pool, never report a partial outcome as clean.
//!
//! The whole suite is one `#[test]` because it owns the `CBH_SPILL_DIR`
//! process environment variable (same discipline as `spill_hygiene.rs`): it
//! points every arena of this process at a directory that does not exist, so
//! the first spill write fails with a typed `SpillError::Create` that each
//! engine must map to the error outcome.

use space_hierarchy::protocols::bitwise::tas_reset_consensus;
use space_hierarchy::protocols::maxreg::MaxRegConsensus;
use space_hierarchy::sim::SimError;
use space_hierarchy::verify::checker::{explore_stats, ExploreLimits, Explorer};
use space_hierarchy::verify::dist::{explore_sharded, DistConfig};

/// The exact typed value, not a rendering: sharded runs render a shard's
/// error as "dist shard: ..." only when it crossed a process boundary.
fn assert_spill_error(err: SimError, context: &str) {
    match err {
        SimError::Spill { detail } => {
            assert!(
                detail.contains("create spill arena") && !detail.starts_with("dist shard:"),
                "{context}: unexpected spill detail {detail:?}"
            );
        }
        other => panic!("{context}: expected SimError::Spill, got {other:?}"),
    }
}

#[test]
fn unusable_spill_dir_surfaces_as_a_clean_error() {
    // A directory that does not exist (and whose parent does not either):
    // `create_new` fails before a single byte is written. This is the
    // portable stand-in for disk-full/permission failures — all three arrive
    // through the same typed `SpillError` channel.
    let missing = std::env::temp_dir().join(format!(
        "cbh-spill-errors-{}-missing/child",
        std::process::id()
    ));
    assert!(!missing.exists());
    std::env::set_var("CBH_SPILL_DIR", &missing);

    let limits = ExploreLimits {
        depth: 8,
        max_configs: 100_000,
        solo_check_budget: None,
        // Zero budget: the very first frontier push must spill, so the
        // failure fires at the start of the run on every engine.
        memory_budget: Some(0),
        checkpoint_every: None,
    };

    // -- sequential packed engine ------------------------------------------
    let err = explore_stats(&tas_reset_consensus(3), &[0, 1, 2], limits)
        .expect_err("sequential run must fail to spill");
    assert_spill_error(err, "sequential packed engine");

    // -- parallel entry point ----------------------------------------------
    // An 8-worker run starts inline, so at a zero budget it fails before any
    // pool thread exists; the caller still sees the one clean typed error.
    let err = Explorer::new()
        .workers(8)
        .limits(limits)
        .explore_stats(&tas_reset_consensus(3), &[0, 1, 2])
        .expect_err("parallel run must fail to spill");
    assert_spill_error(err, "parallel packed engine");

    // -- worker pool ---------------------------------------------------------
    // `MaxRegConsensus::new(4)` to depth 10 starts its pool after about
    // 2,210 admissions. At 768 KiB the inline prefix never spills (a run
    // capped short of the handoff comes back clean) but the wide frontier
    // does, so the failing arena is hit with the pool live. Workers never
    // touch the arena: the failure always surfaces on the committer
    // thread, as it pushes onto the admission queue, and the pool's stop
    // guard releases the workers while the caller gets the one typed error.
    let pool_limits = ExploreLimits {
        depth: 10,
        memory_budget: Some(768 << 10),
        ..limits
    };
    let maxreg = MaxRegConsensus::new(4);
    let prefix = ExploreLimits { max_configs: 2_200, ..pool_limits };
    let (_, stats) = explore_stats(&maxreg, &[0, 1, 2, 3], prefix).expect("prefix never spills");
    assert_eq!(stats.bytes_spilled, 0);
    for workers in [2, 4, 8] {
        let err = Explorer::new()
            .workers(workers)
            .limits(pool_limits)
            .explore_stats(&maxreg, &[0, 1, 2, 3])
            .expect_err("pool run must fail to spill");
        assert_spill_error(err, &format!("worker pool at {workers} workers"));
    }

    // -- in-process shards ----------------------------------------------------
    // Each in-process shard owns its own arenas, and its handler's error
    // reaches the caller as the exact value, whether the shard fails while
    // it is built or mid-round; the coordinator must not wait on it.
    for shards in [1, 2, 3] {
        let cfg = DistConfig {
            shards,
            workers: 2,
            symmetric: false,
        };
        let err = explore_sharded(&tas_reset_consensus(3), &[0, 1, 2], limits, cfg)
            .expect_err("sharded run must fail to spill");
        assert_spill_error(err, &format!("explore_sharded at {shards} shards"));
    }

    // An unbudgeted run never touches the spill dir, so the same pointing
    // environment must be harmless without a budget.
    let unbounded = ExploreLimits {
        memory_budget: None,
        ..limits
    };
    let (outcome, stats) = explore_stats(&tas_reset_consensus(3), &[0, 1, 2], unbounded)
        .expect("unbudgeted run never spills");
    assert!(outcome.is_clean(), "{outcome:?}");
    assert_eq!(stats.bytes_spilled, 0);

    std::env::remove_var("CBH_SPILL_DIR");
}
