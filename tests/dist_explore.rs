//! Tier-1 bit-identity matrix for the distributed sharded explorer.
//!
//! `explore_sharded` must reproduce the clone-based reference BFS — outcome,
//! counterexample schedule and semantic stats — at every point of the
//! `shards {1, 2, 4} × workers {1, 4} × memory budget {unbounded, ~10% of
//! the single-process peak}` matrix, on clean protocols, violating strawmen
//! (whose schedules must replay verbatim), config-capped runs and shallow
//! horizons. The per-shard budget column forces every shard through the
//! spill, disk-run and interner-eviction paths while the never-spilling
//! reference still dictates the exact answer.

use space_hierarchy::protocols::cas::CasConsensus;
use space_hierarchy::protocols::maxreg::MaxRegConsensus;
use space_hierarchy::verify::checker::{explore_stats, ExploreLimits, ExploreOutcome};
use space_hierarchy::verify::dist::{explore_sharded, DistConfig};
use space_hierarchy::verify::reference::reference_explore;
use space_hierarchy::verify::strawmen::{OneMaxRegister, OneRegister};
use space_hierarchy::model::Protocol;

/// Diffs `explore_sharded` against the reference BFS over the whole
/// shard/worker matrix, at the given budget.
fn agree_at<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    what: &str,
) -> ExploreOutcome
where
    P::Proc: Send + Sync,
{
    let oracle = reference_explore(protocol, inputs, limits).unwrap();
    for shards in [1usize, 2, 4] {
        for workers in [1usize, 4] {
            let cfg = DistConfig {
                shards,
                workers,
                symmetric: false,
            };
            let dist = explore_sharded(protocol, inputs, limits, cfg).unwrap();
            assert_eq!(
                dist, oracle,
                "{what}: diverged at {shards} shards x {workers} workers \
                 (budget {:?})",
                limits.memory_budget
            );
        }
    }
    oracle.0
}

/// Runs the matrix unbounded, then again with every shard squeezed to ~10%
/// of the single-process engine's peak resident footprint.
fn agree<P: Protocol>(protocol: &P, inputs: &[u64], limits: ExploreLimits) -> ExploreOutcome
where
    P::Proc: Send + Sync,
{
    let outcome = agree_at(protocol, inputs, limits, "unbounded");
    let (_, stats) = explore_stats(protocol, inputs, limits).unwrap();
    let squeezed = ExploreLimits {
        memory_budget: Some(stats.peak_resident_bytes / 10),
        ..limits
    };
    agree_at(protocol, inputs, squeezed, "10% budget");
    outcome
}

#[test]
fn sharded_matrix_is_bit_identical_on_clean_protocols() {
    let outcome = agree(
        &MaxRegConsensus::new(3),
        &[0, 1, 2],
        ExploreLimits {
            depth: 10,
            max_configs: 100_000,
            solo_check_budget: None,
            memory_budget: None,
            checkpoint_every: None,
        },
    );
    assert!(outcome.is_clean(), "{outcome:?}");
}

#[test]
fn sharded_matrix_is_bit_identical_with_solo_checks() {
    let outcome = agree(
        &CasConsensus::new(3),
        &[0, 1, 2],
        ExploreLimits {
            depth: 9,
            max_configs: 100_000,
            solo_check_budget: Some(10),
            memory_budget: None,
            checkpoint_every: None,
        },
    );
    assert!(outcome.is_clean(), "{outcome:?}");
}

#[test]
fn sharded_matrix_reproduces_counterexample_schedules() {
    // The violating strawmen: the exact 1-minimal witness schedule — not
    // just the verdict — must survive sharding, because admission order is
    // what the coordinator's merge sweep replays.
    let a = agree(&OneMaxRegister::new(), &[0, 1], ExploreLimits::default());
    assert!(
        matches!(a, ExploreOutcome::AgreementViolation { .. }),
        "{a:?}"
    );
    let b = agree(&OneRegister::new(3), &[0, 1, 1], ExploreLimits::default());
    assert!(b.schedule().is_some(), "{b:?}");
}

#[test]
fn sharded_matrix_is_bit_identical_under_config_caps() {
    for cap in [1, 2, 7, 50, 400] {
        agree(
            &MaxRegConsensus::new(2),
            &[1, 0],
            ExploreLimits {
                depth: 12,
                max_configs: cap,
                solo_check_budget: None,
                memory_budget: None,
                checkpoint_every: None,
            },
        );
    }
}

#[test]
fn sharded_matrix_is_bit_identical_at_shallow_horizons() {
    // Without solo checks a shard settles the horizon layer's activity at
    // admission; with them the layer waits for a solo-probing round. Both
    // must report the reference's `complete`: CAS at n = 3 ends at depth 3,
    // so its depth-3 horizon layer is all-terminal and the run complete.
    for solo_check_budget in [None, Some(64)] {
        for depth in 0..6 {
            let limits = ExploreLimits {
                depth,
                max_configs: 100_000,
                solo_check_budget,
                memory_budget: None,
                checkpoint_every: None,
            };
            agree(&MaxRegConsensus::new(3), &[0, 1, 2], limits);
            let cas = agree(&CasConsensus::new(3), &[0, 1, 2], limits);
            let complete = matches!(cas, ExploreOutcome::Clean { complete: true, .. });
            assert_eq!(complete, depth >= 3, "depth {depth}: {cas:?}");
        }
    }
}

#[test]
fn sharded_fan_out_is_bit_identical() {
    // Shards expand a layer on several threads only once it holds 1,024
    // nodes. This row's widest layer (2,260 nodes) crosses that threshold
    // at 1 and 2 shards, so the chunked path and its slot offsets run.
    let protocol = MaxRegConsensus::new(4);
    let inputs = [0, 1, 2, 3];
    let limits = ExploreLimits {
        depth: 10,
        max_configs: 100_000,
        solo_check_budget: None,
        memory_budget: None,
        checkpoint_every: None,
    };
    let oracle = reference_explore(&protocol, &inputs, limits).unwrap();
    assert_eq!(oracle.1.configs, 5_524);
    assert!(oracle.1.frontier_peak >= 2 * 1024, "{:?}", oracle.1);
    for shards in [1usize, 2, 3] {
        for workers in [2usize, 3] {
            let cfg = DistConfig {
                shards,
                workers,
                symmetric: false,
            };
            let dist = explore_sharded(&protocol, &inputs, limits, cfg).unwrap();
            assert_eq!(
                dist, oracle,
                "diverged at {shards} shards x {workers} workers"
            );
        }
    }
}
