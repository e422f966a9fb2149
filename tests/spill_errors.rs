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
    // The budgeted probe hits the same failing arena; either way the caller
    // sees one clean typed error and every thread shuts down.
    let err = Explorer::new()
        .workers(8)
        .limits(limits)
        .explore_stats(&tas_reset_consensus(3), &[0, 1, 2])
        .expect_err("parallel run must fail to spill");
    assert_spill_error(err, "parallel packed engine");

    // -- work-stealing pool -------------------------------------------------
    // The 8-worker run above fails in its sequential probe, before any pool
    // thread exists. A checkpointing run skips that probe, so here the
    // failing arena is hit inside the pool itself: the committer and every
    // worker must still shut down and hand back the one typed error.
    let checkpoint = std::env::temp_dir().join(format!(
        "cbh-spill-errors-{}-pool.ck",
        std::process::id()
    ));
    for workers in [2, 4] {
        let err = Explorer::new()
            .workers(workers)
            .limits(limits)
            .checkpoint_to(&checkpoint)
            .explore_stats(&tas_reset_consensus(3), &[0, 1, 2])
            .expect_err("pool run must fail to spill");
        assert_spill_error(err, &format!("work-stealing pool at {workers} workers"));
    }
    let _ = std::fs::remove_file(&checkpoint);

    // -- in-process shards ----------------------------------------------------
    // Each shard thread owns its own arenas and reports the failure through
    // the side channel, whether it fails before or after the coordinator's
    // first frame reaches it; the coordinator must not wait on it forever.
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
