//! Stops and snapshots that land inside a pool batch record.
//!
//! The parallel packed engine hands results to its committer a whole batch
//! at a time (up to 64 admission-ordered nodes per record), and the
//! committer materialises every admitted child itself. So the committer
//! routinely stops in the middle of a record — at the config cap, at a
//! violation — and periodic checkpoints are cut mid-record too. Each case
//! here runs through the pool (more than the 1,024-configuration
//! sequential threshold) at 2 and 8 workers and must equal the clone-based
//! reference BFS exactly: outcome, counterexample schedule and stats.

use space_hierarchy::model::Protocol;
use space_hierarchy::protocols::maxreg::MaxRegConsensus;
use space_hierarchy::verify::checker::{ExploreLimits, ExploreOutcome, ExploreStats, Explorer};
use space_hierarchy::verify::reference::reference_explore;
use space_hierarchy::verify::snapshot::Snapshot;
use space_hierarchy::verify::strawmen::OneRegister;
use std::path::PathBuf;

const WORKERS: [usize; 2] = [2, 8];

fn limits(depth: usize, max_configs: usize) -> ExploreLimits {
    ExploreLimits {
        depth,
        max_configs,
        solo_check_budget: None,
        memory_budget: None,
        checkpoint_every: None,
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
    for cap in 1025..=1100 {
        let (outcome, stats) = agree(&MaxRegConsensus::new(3), &[0, 1, 2], limits(14, cap));
        assert!(outcome.is_clean());
        assert_eq!(stats.configs, cap + 1, "cap {cap} must fire");
    }
}

#[test]
fn violation_inside_a_batch_matches_reference() {
    let (outcome, stats) = agree(
        &OneRegister::new(6),
        &[0, 1, 0, 1, 0, 1],
        ExploreLimits::default(),
    );
    assert!(!outcome.is_clean(), "one register cannot solve consensus");
    assert!(stats.configs > 1024, "the violation must surface in the pool");
}

#[test]
fn budgeted_resume_from_mid_batch_snapshots_matches_reference() {
    let protocol = MaxRegConsensus::new(3);
    let inputs = [0u64, 1, 2];
    let base = ExploreLimits {
        memory_budget: Some(64 * 1024),
        ..limits(16, 100_000)
    };
    let oracle = reference_explore(&protocol, &inputs, base).unwrap();
    assert!(oracle.1.configs > 4 * 1024, "the space must outgrow the sequential path");
    // A prime cadence keeps the snapshot points off any batch alignment.
    let cadence = 997;
    for workers in WORKERS {
        let path: PathBuf = std::env::temp_dir().join(format!(
            "cbh-mid-batch-{}-w{workers}.ck",
            std::process::id()
        ));
        let checkpointed = Explorer::new()
            .limits(ExploreLimits {
                checkpoint_every: Some(cadence),
                ..base
            })
            .workers(workers)
            .checkpoint_to(&path)
            .retain_checkpoints(true)
            .explore_stats(&protocol, &inputs)
            .unwrap();
        assert_eq!(checkpointed, oracle, "checkpointed run at {workers} workers");
        assert!(checkpointed.1.bytes_spilled > 0, "the budget must bite");
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
                     resumed at {resume_workers}",
                    snap.next_commit
                );
            }
            std::fs::remove_file(&numbered).unwrap();
            retained += 1;
        }
        std::fs::remove_file(&path).unwrap();
        assert!(retained >= 3, "only {retained} snapshots at {workers} workers");
    }
}
