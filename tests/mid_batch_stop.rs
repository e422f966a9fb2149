//! Stops and snapshots that land inside a pool batch record.
//!
//! The parallel packed engine hands results to its committer a whole batch
//! at a time (up to 64 admission-ordered nodes per record), and the
//! committer materialises every admitted child itself. So the committer
//! routinely stops in the middle of a record — at the config cap, at a
//! violation — and periodic checkpoints are cut mid-record too. A run only
//! starts its pool once its live frontier holds 1,024 nodes, so every row
//! here has a wider frontier than that (asserted against the reference),
//! and each stop lands past the handoff, inside worker-built records. Each
//! case runs at 2 and 8 workers and must equal the clone-based reference
//! BFS exactly: outcome, counterexample schedule and stats.

use space_hierarchy::model::Protocol;
use space_hierarchy::protocols::maxreg::MaxRegConsensus;
use space_hierarchy::verify::checker::{ExploreLimits, ExploreOutcome, ExploreStats, Explorer};
use space_hierarchy::verify::reference::reference_explore;
use space_hierarchy::verify::snapshot::Snapshot;
use space_hierarchy::verify::strawmen::OneRegister;
use std::path::PathBuf;

const WORKERS: [usize; 2] = [2, 8];

/// The live frontier width at which a run hands off to its pool.
const WIDE: usize = 1024;

fn limits(depth: usize, max_configs: usize) -> ExploreLimits {
    ExploreLimits {
        depth,
        max_configs,
        ..ExploreLimits::default()
    }
}

/// Explores at every pool width and demands the reference result.
fn agree<P>(protocol: &P, inputs: &[u64], limits: ExploreLimits) -> (ExploreOutcome, ExploreStats)
where
    P: Protocol,
    P::Proc: Send + Sync,
{
    let oracle = reference_explore(protocol, inputs, limits).unwrap();
    for workers in WORKERS {
        let got = Explorer::new()
            .limits(limits)
            .workers(workers)
            .explore_stats(protocol, inputs)
            .unwrap();
        assert_eq!(got, oracle, "{workers} workers, {limits:?}");
    }
    oracle
}

#[test]
fn config_cap_inside_a_batch_matches_reference() {
    // `MaxRegConsensus::new(4)` to depth 10 hands off after about 2,200
    // admissions; 64 consecutive caps (one full batch width) past that put
    // the stop at every position of a record.
    let protocol = MaxRegConsensus::new(4);
    let inputs = [0u64, 1, 2, 3];
    let uncapped = reference_explore(&protocol, &inputs, limits(10, 100_000)).unwrap();
    assert!(uncapped.1.frontier_peak >= WIDE, "{:?}", uncapped.1);
    for cap in 2_300..2_364 {
        let (outcome, stats) = agree(&protocol, &inputs, limits(10, cap));
        assert!(outcome.is_clean());
        assert_eq!(stats.configs, cap + 1, "cap {cap} must fire");
    }
}

#[test]
fn violation_inside_a_batch_matches_reference() {
    // Seven processes hand off after about 1,400 admissions and violate at
    // about 2,400.
    let (outcome, stats) = agree(
        &OneRegister::new(7),
        &[0, 1, 0, 1, 0, 1, 0],
        ExploreLimits::default(),
    );
    assert!(!outcome.is_clean(), "one register cannot solve consensus");
    assert!(stats.frontier_peak >= WIDE, "{stats:?}");
    assert!(stats.configs > 2 * WIDE, "the violation must surface in the pool");
}

/// Checkpoints cut on both sides of the handoff, unbudgeted, at a zero
/// budget and at 64 KiB: resuming from every one of them, at either pool
/// width, must reproduce the reference.
#[test]
fn budgeted_resume_from_mid_batch_snapshots_matches_reference() {
    let protocol = MaxRegConsensus::new(4);
    let inputs = [0u64, 1, 2, 3];
    let budgets = [None, Some(0), Some(64 * 1024)];
    for (budget, workers) in budgets.into_iter().flat_map(|b| WORKERS.map(|w| (b, w))) {
        let base = ExploreLimits {
            memory_budget: budget,
            ..limits(10, 100_000)
        };
        let oracle = reference_explore(&protocol, &inputs, base).unwrap();
        assert!(oracle.1.frontier_peak >= WIDE, "{:?}", oracle.1);
        let path: PathBuf = std::env::temp_dir().join(format!(
            "cbh-mid-batch-{}-w{workers}-b{budget:?}.ck",
            std::process::id()
        ));
        // A prime cadence keeps the snapshot points off any batch
        // alignment; the first two land before the handoff, the rest after.
        let checkpointed = Explorer::new()
            .limits(ExploreLimits {
                checkpoint_every: Some(997),
                ..base
            })
            .workers(workers)
            .checkpoint_to(&path)
            .retain_checkpoints(true)
            .explore_stats(&protocol, &inputs)
            .unwrap();
        assert_eq!(checkpointed, oracle, "checkpointed run at {workers} workers, {budget:?}");
        assert_eq!(checkpointed.1.bytes_spilled > 0, budget.is_some(), "{budget:?}");
        let mut retained = 0;
        loop {
            let numbered = PathBuf::from(format!("{}.ck{retained}", path.display()));
            let Ok(snap) = Snapshot::read(&numbered) else { break };
            for resume_workers in WORKERS {
                let resumed = Explorer::new()
                    .limits(base)
                    .workers(resume_workers)
                    .resume_stats(&protocol, &inputs, &snap)
                    .unwrap();
                assert_eq!(
                    resumed, oracle,
                    "snapshot {retained} (next_commit {}) from {workers} workers, \
                     resumed at {resume_workers}, {budget:?}",
                    snap.next_commit
                );
            }
            std::fs::remove_file(&numbered).unwrap();
            retained += 1;
        }
        std::fs::remove_file(&path).unwrap();
        assert!(retained >= 5, "only {retained} snapshots at {workers} workers");
    }
}
