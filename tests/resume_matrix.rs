//! Kill-at-every-checkpoint matrix: resuming from **any** snapshot a run
//! ever wrote reproduces the uninterrupted result bit for bit.
//!
//! The two densest Table-1 rows (`tas-reset`, `write01`) run once with a
//! short checkpoint cadence and every snapshot retained; each retained
//! snapshot then stands in for "the run was killed right here", and is
//! resumed at {1, 4} workers × {unbounded, ~10% budget}. Every resumed
//! `(ExploreOutcome, ExploreStats)` must equal the uninterrupted baseline —
//! checkpoints are taken at committer admission boundaries, so each one is
//! a prefix of the deterministic reference order, and the continuation is
//! the identical schedule regardless of worker count or budget. The
//! checkpointed run itself must match the baseline too: snapshotting may
//! never perturb what is explored.

use space_hierarchy::model::Protocol;
use space_hierarchy::protocols::bitwise::{tas_reset_consensus, write01_consensus};
use space_hierarchy::protocols::maxreg::MaxRegConsensus;
use space_hierarchy::verify::checker::{ExploreLimits, ExploreOutcome, ExploreStats, Explorer};
use space_hierarchy::verify::snapshot::{Snapshot, NO_PARENT};
use std::path::PathBuf;

fn matrix_limits() -> ExploreLimits {
    ExploreLimits {
        depth: 7,
        max_configs: 200_000,
        solo_check_budget: None,
        memory_budget: None,
        checkpoint_every: None,
    }
}

/// A unique checkpoint path per row (tests in one binary may run
/// concurrently; pids alone would collide).
fn checkpoint_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cbh-resume-matrix-{}-{tag}.ck", std::process::id()))
}

fn run_matrix<P>(protocol: &P, inputs: &[u64])
where
    P: Protocol,
    P::Proc: Send + Sync,
{
    let name = protocol.name();
    let limits = matrix_limits();
    let baseline: (ExploreOutcome, ExploreStats) = Explorer::new()
        .limits(limits)
        .explore_stats(protocol, inputs)
        .expect("baseline explores");

    // Checkpoint roughly five times across the run, keeping every snapshot.
    let path = checkpoint_path(&name);
    let cadence = (baseline.1.configs as u64 / 5).max(1);
    let checkpointed = Explorer::new()
        .limits(ExploreLimits {
            checkpoint_every: Some(cadence),
            ..limits
        })
        .checkpoint_to(&path)
        .retain_checkpoints(true)
        .explore_stats(protocol, inputs)
        .expect("checkpointed run explores");
    assert_eq!(
        checkpointed, baseline,
        "{name}: snapshotting perturbed the exploration"
    );
    assert!(
        checkpointed.1.checkpoint_bytes > 0,
        "{name}: no checkpoint bytes recorded"
    );

    let ten_percent = (baseline.1.peak_resident_bytes / 10).max(1);
    let mut retained = 0usize;
    loop {
        let numbered = PathBuf::from(format!("{}.ck{retained}", path.display()));
        if !numbered.exists() {
            break;
        }
        let snap = Snapshot::read(&numbered).expect("retained snapshot decodes");
        assert!(
            snap.configs() as u64 >= (retained as u64 + 1) * cadence,
            "{name}: snapshot {retained} taken before its cadence threshold"
        );
        for workers in [1usize, 4] {
            for budget in [None, Some(ten_percent)] {
                let resumed = Explorer::new()
                    .workers(workers)
                    .limits(ExploreLimits {
                        memory_budget: budget,
                        ..limits
                    })
                    .resume_stats(protocol, inputs, &snap)
                    .expect("resume explores");
                assert_eq!(
                    resumed, baseline,
                    "{name}: resume from snapshot {retained} at {workers} workers, \
                     budget {budget:?} diverged"
                );
            }
        }
        std::fs::remove_file(&numbered).expect("cleanup");
        retained += 1;
    }
    std::fs::remove_file(&path).expect("final checkpoint exists");
    assert!(
        retained >= 2,
        "{name}: only {retained} checkpoints retained — the matrix needs \
         several kill points to mean anything"
    );
}

#[test]
fn tas_reset_resumes_bit_identically_from_every_checkpoint() {
    run_matrix(&tas_reset_consensus(3), &[0, 1, 2]);
}

#[test]
fn write01_resumes_bit_identically_from_every_checkpoint() {
    run_matrix(&write01_consensus(3), &[0, 1, 2]);
}

/// The checkpoint file a finished run leaves behind resumes to the same
/// result instantly — the committer has nothing left to do — and
/// `explore_resumable` picks it up transparently.
#[test]
fn resuming_a_finished_run_is_an_identity_operation() {
    let protocol = tas_reset_consensus(3);
    let inputs = [0u64, 1, 2];
    let limits = matrix_limits();
    let path = checkpoint_path("finished");
    let explorer = Explorer::new()
        .limits(ExploreLimits {
            checkpoint_every: Some(64),
            ..limits
        })
        .checkpoint_to(&path);
    let first = explorer
        .explore_resumable(&protocol, &inputs)
        .expect("fresh resumable run explores");
    let baseline = Explorer::new()
        .limits(limits)
        .explore_stats(&protocol, &inputs)
        .expect("baseline explores");
    assert_eq!(first, baseline, "fresh resumable run diverged");
    // Second call finds the last snapshot on disk and finishes from there.
    let second = explorer
        .explore_resumable(&protocol, &inputs)
        .expect("resumed run explores");
    assert_eq!(second, baseline, "resumed run diverged");
    std::fs::remove_file(&path).expect("checkpoint exists");
}

/// Depth of admitted node `index`: the length of its parent-link chain.
fn depth_of(links: &[(usize, usize)], index: usize) -> usize {
    let mut link = index.checked_sub(1).unwrap_or(NO_PARENT);
    let mut depth = 0;
    while link != NO_PARENT {
        depth += 1;
        link = links[link].0;
    }
    depth
}

/// A checkpoint whose pending nodes are the horizon layer alone. Without
/// solo checks, resume rebuilds their inline `has_active` queue; with them,
/// it dispatches every horizon node (at 2 workers, wide enough to start the
/// pool). Both must finish bit-identically at 1 and 2 workers.
#[test]
fn resuming_inside_the_horizon_layer_is_bit_identical() {
    let protocol = MaxRegConsensus::new(4);
    let inputs = [0u64, 1, 2, 3];
    for solo in [None, Some(20)] {
        let limits = ExploreLimits {
            depth: 9,
            solo_check_budget: solo,
            ..matrix_limits()
        };
        let baseline = Explorer::new()
            .limits(limits)
            .explore_stats(&protocol, &inputs)
            .expect("baseline explores");
        // The run's last admission comes from the last node before the
        // horizon, so a cadence that ends on it snapshots just past it.
        let path = checkpoint_path(&format!("horizon-{}", solo.is_some()));
        let checkpointed = Explorer::new()
            .limits(ExploreLimits {
                checkpoint_every: Some(baseline.1.configs as u64 - 1),
                ..limits
            })
            .checkpoint_to(&path)
            .retain_checkpoints(true)
            .explore_stats(&protocol, &inputs)
            .expect("checkpointed run explores");
        assert_eq!(checkpointed, baseline, "solo {solo:?}: snapshotting perturbed the run");
        let numbered = PathBuf::from(format!("{}.ck0", path.display()));
        let snap = Snapshot::read(&numbered).expect("retained snapshot decodes");
        assert!(
            snap.next_commit < snap.configs() && depth_of(&snap.links, snap.next_commit) == limits.depth,
            "solo {solo:?}: commit cursor {} is not a horizon node",
            snap.next_commit
        );
        for workers in [1usize, 2] {
            let resumed = Explorer::new()
                .workers(workers)
                .limits(limits)
                .resume_stats(&protocol, &inputs, &snap)
                .expect("resume explores");
            assert_eq!(resumed, baseline, "solo {solo:?}: resume at {workers} workers diverged");
        }
        std::fs::remove_file(&numbered).expect("cleanup");
        std::fs::remove_file(&path).expect("final checkpoint exists");
    }
}
