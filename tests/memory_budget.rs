//! Tier-1 budget-stress suite for the memory-bounded frontier.
//!
//! The spillable frontier's contract is absolute: `(ExploreOutcome,
//! ExploreStats)` are bit-identical to the unbounded run at any
//! `memory_budget` and any worker count — the budget may only move bytes
//! between RAM and the spill arena, never change what is explored. Two
//! angles on that contract:
//!
//! - the two densest Table-1 rows (`tas-reset`, `write01`), re-explored with
//!   the budget pinned to ~10% of the unbounded run's observed resident
//!   peak, at 1 and 4 workers;
//! - every registry row under a **zero** budget — spilling on every layer,
//!   including the root — at 1, 4 and 8 workers.
//!
//! `bytes_spilled` must be *nonzero* on every budgeted run (the stress is
//! real) and zero on every unbounded one (spilling is strictly opt-in).
//!
//! The budget is also a *true cap*: every budgeted run's tracked resident
//! peak — frontier blocks, the seen set (hot table, Bloom front and run
//! index), intern tables, the claim table — must stay within the budget
//! plus [`SLACK`], a fixed allowance for the structures that cannot shrink
//! below a floor (minimum hot table, in-flight double-buffered spill
//! writes, one streamed-back run block, bounded merge buffers).

use space_hierarchy::model::Protocol;
use space_hierarchy::protocols::bitwise::{tas_reset_consensus, write01_consensus};
use space_hierarchy::protocols::maxreg::MaxRegConsensus;
use space_hierarchy::protocols::registry::{self, RowSpec, RowVisitor};
use space_hierarchy::protocols::stress::value_diverse_consensus;
use space_hierarchy::sim::SimError;
use space_hierarchy::verify::checker::{ExploreLimits, ExploreOutcome, ExploreStats, Explorer};

/// Fixed allowance above the budget for floor-sized structures: minimum
/// hot-table/Bloom allocations, the two in-flight double-buffered spill
/// writes, one streamed-back block per store and bounded merge buffers.
const SLACK: usize = 4 << 20;

/// The true-cap assertion shared by every budgeted run in this suite.
fn assert_within_cap(name: &str, stats: &ExploreStats, budget: usize, workers: usize) {
    assert!(
        stats.peak_resident_bytes <= budget + SLACK,
        "{name}: budget {budget} at {workers} workers peaked at {} resident bytes \
         (> budget + {} slack)",
        stats.peak_resident_bytes,
        SLACK
    );
}

fn explore_at<P>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    workers: usize,
) -> (ExploreOutcome, ExploreStats)
where
    P: Protocol,
    P::Proc: Send + Sync,
{
    Explorer::new()
        .workers(workers)
        .limits(limits)
        .explore_stats(protocol, inputs)
        .expect("workload explores without model errors")
}

/// Unbounded baseline, then budgeted reruns: outcome and semantic stats must
/// compare equal (`ExploreStats` equality excludes the spill telemetry), the
/// budgeted runs must actually spill, and the unbounded one must not.
fn assert_budget_invariance<P>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    budget: impl Fn(&ExploreStats) -> usize,
    workers: &[usize],
) where
    P: Protocol,
    P::Proc: Send + Sync,
{
    let name = protocol.name();
    let unbounded = explore_at(protocol, inputs, limits, 1);
    assert_eq!(unbounded.1.bytes_spilled, 0, "{name}: unbounded run spilled");
    assert!(
        unbounded.1.peak_resident_bytes > 0,
        "{name}: peak telemetry missing"
    );
    let cap = budget(&unbounded.1);
    let budgeted_limits = ExploreLimits {
        memory_budget: Some(cap),
        ..limits
    };
    for &w in workers {
        let spilled = explore_at(protocol, inputs, budgeted_limits, w);
        assert_eq!(
            spilled, unbounded,
            "{name}: budget {:?} at {w} workers diverged",
            budgeted_limits.memory_budget
        );
        assert!(
            spilled.1.bytes_spilled > 0,
            "{name}: budget {:?} at {w} workers never spilled",
            budgeted_limits.memory_budget
        );
        assert_within_cap(&name, &spilled.1, cap, w);
    }
}

#[test]
fn densest_rows_at_ten_percent_budget_match_unbounded() {
    // The two Theorem 9.4 rows are the widest frontiers in the registry —
    // the workloads the disk-spilling frontier exists for.
    let limits = ExploreLimits {
        depth: 9,
        max_configs: 200_000,
        solo_check_budget: None,
        memory_budget: None,
        checkpoint_every: None,
    };
    assert_budget_invariance(
        &tas_reset_consensus(3),
        &[0, 1, 2],
        limits,
        |stats| (stats.peak_resident_bytes / 10).max(1),
        &[1, 4],
    );
    assert_budget_invariance(
        &write01_consensus(3),
        &[0, 1, 2],
        limits,
        |stats| (stats.peak_resident_bytes / 10).max(1),
        &[1, 4],
    );
}

/// Visits one registry row: zero budget (spill on every layer, root
/// included) at 1, 4 and 8 workers against the unbounded baseline.
struct SpillEveryLayer;

impl RowVisitor for SpillEveryLayer {
    type Output = ();

    fn visit<P>(&mut self, spec: &RowSpec, protocol: P)
    where
        P: Protocol,
        P::Proc: Send + Sync,
    {
        let inputs: Vec<u64> = (0..protocol.n() as u64)
            .map(|i| i % protocol.domain())
            .collect();
        let limits = ExploreLimits {
            // Shallow horizon: 20 rows × 4 runs each must stay fast in debug
            // builds; the dense-row test above supplies the depth stress.
            depth: 5,
            max_configs: 20_000,
            solo_check_budget: None,
            memory_budget: None,
            checkpoint_every: None,
        };
        let _ = spec;
        assert_budget_invariance(&protocol, &inputs, limits, |_| 0, &[1, 4, 8]);
    }
}

#[test]
fn every_registry_row_is_budget_invariant_with_zero_budget() {
    for row in registry::all_rows() {
        registry::visit_row(row.id, 3, &mut SpillEveryLayer).expect("registered row");
    }
}

#[test]
fn value_diverse_interning_trips_the_budget_instead_of_overrunning() {
    // Regression: intern tables cannot spill, so a protocol whose states
    // never collide and never compress (`value-diverse`, not a registry
    // row) grows resident bytes past any budget. The engine used to keep
    // exploring anyway; it must instead stop with a typed budget error as
    // soon as resident bytes exceed budget + SLACK.
    let limits = ExploreLimits {
        depth: 13,
        max_configs: 50_000,
        solo_check_budget: None,
        memory_budget: None,
        checkpoint_every: None,
    };
    let protocol = value_diverse_consensus(2);
    let inputs = [0u64, 0];
    // Unbudgeted, the row explores cleanly (and confirms the stress is
    // real: the intern tables alone dwarf the budget used below).
    let (outcome, stats) = explore_at(&protocol, &inputs, limits, 1);
    assert!(matches!(outcome, ExploreOutcome::Clean { .. }));
    let budget = 1 << 20;
    assert!(
        stats.intern_resident_bytes > budget + SLACK,
        "stress row too small to overrun: {} interned bytes",
        stats.intern_resident_bytes
    );
    let budgeted = ExploreLimits {
        memory_budget: Some(budget),
        ..limits
    };
    for workers in [1, 4] {
        let err = Explorer::new()
            .workers(workers)
            .limits(budgeted)
            .explore_stats(&protocol, &inputs)
            .expect_err("interning must trip the budget");
        match err {
            SimError::Budget { needed, budget: b } => {
                assert_eq!(b, budget);
                assert!(needed > budget + SLACK, "error reports the overrun");
            }
            other => panic!("expected SimError::Budget, got {other:?}"),
        }
    }
}

#[test]
fn unbounded_runs_charge_the_seen_set_at_its_real_size() {
    // `MaxRegConsensus::new(4)` to depth 10 goes wide, so at 2 workers its
    // exact seen set reserves room for `max_configs` (100,000) admissions
    // when the pool starts: at least 131,072 sixteen-byte slots. At 1
    // worker the set grows with its 5,524 admissions instead.
    let limits = ExploreLimits {
        depth: 10,
        max_configs: 100_000,
        ..ExploreLimits::default()
    };
    for (workers, slots) in [(1, 5_524), (2, 131_072)] {
        let (_, stats) = explore_at(&MaxRegConsensus::new(4), &[0, 1, 2, 3], limits, workers);
        assert!(stats.seen_resident_bytes >= slots * 16, "{workers} workers: {stats:?}");
        assert!(stats.peak_resident_bytes >= stats.seen_resident_bytes, "{stats:?}");
    }
}

#[test]
fn pooled_runs_spill_no_more_than_one_worker() {
    // `tas-reset` n=4 to depth 14 goes wide, and at 1 MB it spills its
    // admission queue and seen set. A pool holds only a bounded window of
    // dealt nodes beyond that queue, so the queue stays the one frontier
    // store that spills and more workers add no spill traffic of their own.
    // The row's states are large (about 4.4 KB resident each): at 32
    // workers one batch per worker would be 9 MB, so only the window's byte
    // cap keeps the run inside the budget's overrun slack.
    let budget = 1 << 20;
    let limits = ExploreLimits {
        depth: 14,
        memory_budget: Some(budget),
        ..ExploreLimits::default()
    };
    let protocol = tas_reset_consensus(4);
    let inputs = [0, 1, 2, 3];
    let (outcome, stats) = explore_at(&protocol, &inputs, limits, 1);
    assert!(stats.bytes_spilled > 0, "the budget must force spilling");
    for workers in [2, 8, 32] {
        let (pooled_outcome, pooled) = explore_at(&protocol, &inputs, limits, workers);
        assert_eq!((&pooled_outcome, &pooled), (&outcome, &stats), "{workers} workers");
        assert_within_cap("tas-reset", &pooled, budget, workers);
        assert!(
            pooled.bytes_spilled * 4 <= stats.bytes_spilled * 5,
            "{workers} workers spilled {} bytes, 1 worker {}",
            pooled.bytes_spilled,
            stats.bytes_spilled
        );
    }
}
