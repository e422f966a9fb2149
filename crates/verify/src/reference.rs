//! The clone-based reference oracle: ground truth for the frontier engine.
//!
//! [`reference_explore`] is a deliberately naive breadth-first search over
//! the configuration graph. Where [`crate::checker::explore`] memoises
//! 128-bit *incremental Zobrist* digests of packed states and previews each
//! edge's digest before materialising a successor, this oracle clones whole
//! machines, keys its seen-set on [`Machine::fingerprint`] (a different,
//! non-incremental hash construction), and keeps every visited
//! configuration alive so fingerprint collisions can be *detected* instead
//! of silently merging states.
//!
//! The two engines share no hashing or traversal code, yet must produce
//! **bit-identical** outcomes — verdict, counterexample schedule,
//! configuration counts, frontier peaks — on every (protocol, inputs,
//! limits) triple. The conformance fuzzer diffs them on randomized
//! scenarios; any disagreement is a bug in one of the engines (or a hash
//! collision, which the oracle turns into a loud panic rather than a silent
//! undercount).

use crate::checker::{
    decision_violation, schedule_of, ExploreLimits, ExploreOutcome, ExploreStats, Link, NO_LINK,
};
use cbh_model::{Process, Protocol};
use cbh_sim::{Machine, SimError};
use std::collections::HashMap;

/// `true` if the two machines are the same *semantic* configuration:
/// identical process states, recorded decisions and memory. Step counters
/// are ignored, matching what [`Machine::fingerprint`] hashes.
fn semantically_equal<P: Process>(a: &Machine<P>, b: &Machine<P>) -> bool {
    a.memory() == b.memory()
        && (0..a.n()).all(|p| {
            a.process(p) == b.process(p) && a.recorded_decision(p) == b.recorded_decision(p)
        })
}

/// Exhaustively explores all schedules of `protocol` on `inputs` with a
/// naive clone-everything BFS, mirroring the frontier engine's semantics
/// exactly: same admission order (frontier order, then pid order), same
/// violation selection, same `max_configs` over-cap accounting, same
/// completeness rules, same optional per-configuration solo checks.
///
/// Intended as the differential-testing oracle: slower and memory-hungrier
/// than [`crate::checker::explore_stats`], but with independently
/// implemented hashing and traversal. Symmetry reduction is deliberately not
/// offered — the oracle checks the *unreduced* engine; reduced runs are
/// cross-checked against each other and against unreduced verdicts by the
/// conformance suite.
///
/// # Errors
///
/// Propagates [`SimError`] if the protocol steps outside the model.
///
/// # Panics
///
/// Panics if two semantically distinct configurations share a
/// [`Machine::fingerprint`] — a hash collision the fingerprint design makes
/// astronomically unlikely, and which must never be silently absorbed.
pub fn reference_explore<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
) -> Result<(ExploreOutcome, ExploreStats), SimError> {
    let root = Machine::start(protocol, inputs)?;
    let mut seen: HashMap<u128, Machine<P::Proc>> = HashMap::new();
    let mut links: Vec<Link> = Vec::new();
    let mut complete = true;
    let mut frontier_peak = 1usize;
    let mut depth = 0usize;
    macro_rules! stats {
        () => {
            ExploreStats {
                configs: seen.len(),
                frontier_peak,
                depth_reached: depth,
                // The oracle keeps everything live on purpose (collision
                // detection); it neither budgets, spills nor interns.
                ..ExploreStats::default()
            }
        };
    }

    /// Inserts into the seen-map, panicking on a genuine hash collision;
    /// returns `true` if the configuration is new.
    fn admit<Q: Process>(seen: &mut HashMap<u128, Machine<Q>>, fp: u128, m: &Machine<Q>) -> bool {
        if let Some(prev) = seen.get(&fp) {
            assert!(
                semantically_equal(prev, m),
                "fingerprint collision: two distinct configurations share {fp:#034x}"
            );
            return false;
        }
        seen.insert(fp, m.clone());
        true
    }

    let root_fp = root.fingerprint();
    admit(&mut seen, root_fp, &root);
    if let Some(violation) = decision_violation(&root, inputs, NO_LINK, &links) {
        return Ok((violation, stats!()));
    }
    let mut frontier: Vec<(Machine<P::Proc>, usize)> = vec![(root, NO_LINK)];

    'layers: while !frontier.is_empty() {
        frontier_peak = frontier_peak.max(frontier.len());
        let expand = depth < limits.depth;
        if !expand {
            if frontier
                .iter()
                .any(|(m, _)| m.active_iter().next().is_some())
            {
                complete = false;
            }
            if limits.solo_check_budget.is_none() {
                break;
            }
        }
        let mut next = Vec::new();
        for (machine, link) in &frontier {
            if let Some(budget) = limits.solo_check_budget {
                for pid in machine.active_iter() {
                    let mut probe = machine.clone();
                    if probe.run_solo(pid, budget)?.is_none() {
                        return Ok((
                            ExploreOutcome::ObstructionFailure {
                                pid,
                                schedule: schedule_of(&links, *link),
                            },
                            stats!(),
                        ));
                    }
                }
            }
            if !expand {
                continue;
            }
            for pid in machine.active_iter() {
                let child = machine.branch_step(pid)?;
                if !admit(&mut seen, child.fingerprint(), &child) {
                    continue;
                }
                if seen.len() > limits.max_configs {
                    complete = false;
                    break 'layers;
                }
                let child_link = links.len();
                links.push((*link, pid));
                if let Some(violation) = decision_violation(&child, inputs, child_link, &links) {
                    return Ok((violation, stats!()));
                }
                next.push((child, child_link));
            }
        }
        frontier = next;
        // Mirror of the engine: a solo-check-only horizon pass expanded
        // nothing, so it does not count toward `depth_reached`.
        if expand {
            depth += 1;
        }
    }
    let outcome = ExploreOutcome::Clean {
        configs: seen.len(),
        complete,
    };
    Ok((outcome, stats!()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::explore_stats;
    use crate::strawmen::{OneMaxRegister, OneRegister};
    use cbh_core::cas::CasConsensus;
    use cbh_core::maxreg::MaxRegConsensus;

    fn agree<P: Protocol>(protocol: &P, inputs: &[u64], limits: ExploreLimits) {
        let engine = explore_stats(protocol, inputs, limits).unwrap();
        let oracle = reference_explore(protocol, inputs, limits).unwrap();
        assert_eq!(engine, oracle, "engine and reference oracle diverged");
    }

    #[test]
    fn oracle_matches_engine_on_clean_protocols() {
        agree(
            &CasConsensus::new(3),
            &[0, 1, 2],
            ExploreLimits {
                depth: 10,
                max_configs: 100_000,
                solo_check_budget: Some(10),
                memory_budget: None,
                checkpoint_every: None,
            },
        );
        agree(
            &MaxRegConsensus::new(2),
            &[0, 1],
            ExploreLimits {
                depth: 10,
                max_configs: 100_000,
                solo_check_budget: None,
                memory_budget: None,
                checkpoint_every: None,
            },
        );
    }

    #[test]
    fn oracle_matches_engine_on_violations_including_the_schedule() {
        agree(&OneMaxRegister::new(), &[0, 1], ExploreLimits::default());
        agree(&OneRegister::new(2), &[0, 1], ExploreLimits::default());
        agree(&OneRegister::new(3), &[0, 1, 1], ExploreLimits::default());
    }

    #[test]
    fn oracle_matches_engine_under_the_config_cap() {
        // The over-cap exit path must account configurations identically.
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
    fn oracle_matches_engine_at_shallow_horizons() {
        // Incomplete exploration: the `complete: false` flag and the layer
        // accounting must agree at every horizon.
        for depth in 0..8 {
            agree(
                &MaxRegConsensus::new(3),
                &[0, 1, 2],
                ExploreLimits {
                    depth,
                    max_configs: 100_000,
                    solo_check_budget: None,
                    memory_budget: None,
                    checkpoint_every: None,
                },
            );
        }
    }
}
