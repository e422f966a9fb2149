//! Tier-1 conformance suite: the differential backend oracle.
//!
//! Every Table-1 protocol family is fuzzed through (at least) the frontier
//! explorer, the clone-based reference BFS, the parallel and
//! symmetry-reduced explorers, three sequential schedulers and the bounded
//! real-thread runtime; verdicts, decision vectors, space usage and
//! reachable-configuration counts are diffed wherever comparable. A
//! test-only faulty backend proves divergences are *caught* and shrunk to
//! 1-minimal `ScriptedScheduler` reproducers.
//!
//! CI runs the oracle over a fixed matrix of backend columns
//! ([`ci_matrix`]); every run is a pure function of its column's
//! [`ConformanceConfig`].

use space_hierarchy::conformance::{
    faulty::fault_diverges,
    run_suite, shard_backend_name,
    trace::{trace_decision_divergence, trace_divergence},
    worker_backend_name, ConformanceConfig, Scenario, ScenarioGen, SuiteReport,
};
use space_hierarchy::model::{Protocol, Schedule};
use space_hierarchy::protocols::registry::{self, RowSpec, RowVisitor};
use space_hierarchy::sim::replay_schedule;
use space_hierarchy::sync::run_threaded_traced;
use space_hierarchy::verify::checker::{explore, ExploreLimits, ExploreOutcome};
use space_hierarchy::verify::strawmen::{OneMaxRegister, OneRegister};

// ---------------------------------------------------------------------------
// The suite itself
// ---------------------------------------------------------------------------

/// CI's conformance matrix: 200 fixed-seed scenarios (ten laps over the
/// Table-1 registry) per column, each column adding the backends or
/// budgets named by its label. Run in order by
/// `ci_matrix_columns_are_clean`.
fn ci_matrix() -> [(&'static str, ConformanceConfig); 10] {
    let base = ConformanceConfig {
        scenarios: 200,
        ..ConformanceConfig::default()
    };
    [
        ("4 workers, symmetry on", base),
        // The fewest workers that still reach the parallel engine
        // (`workers <= 1` would diff the sequential engine against itself),
        // with symmetry reduction off as in `Explorer::new()`.
        (
            "2 workers, symmetry off",
            ConformanceConfig {
                explorer_workers: 2,
                symmetry: false,
                ..base
            },
        ),
        (
            "8 workers, symmetry on",
            ConformanceConfig {
                explorer_workers: 8,
                ..base
            },
        ),
        // Tiny budgets: every scenario crosses the delta-spill paths (0 =
        // spill on every push; 4096 = runs hover at the threshold, so spills
        // and stream-backs interleave), while the never-spilling reference
        // BFS still demands bit-identical results.
        (
            "4 workers, zero memory budget",
            ConformanceConfig {
                memory_budget: Some(0),
                ..base
            },
        ),
        (
            "8 workers, 4 KiB memory budget",
            ConformanceConfig {
                explorer_workers: 8,
                memory_budget: Some(4096),
                ..base
            },
        ),
        // 8 KiB caps the tiered fingerprint store's hot table at its floor,
        // so seen-set evictions to sorted disk runs (and Bloom-filtered run
        // probes on the admit path) fire on every scenario. It is also below
        // the claim table's old 4 KiB-floor advisory sizing, pinning the
        // clamp-to-remaining-share fix.
        (
            "small-RAM, 8 KiB budget, tiered seen set",
            ConformanceConfig {
                memory_budget: Some(8192),
                ..base
            },
        ),
        // Every scenario re-runs with snapshots retained and is resumed from
        // each one; the 8 KiB column composes resume with the tiered seen
        // set rather than only the in-memory fast path.
        (
            "checkpoint/resume backend",
            ConformanceConfig {
                resume: true,
                ..base
            },
        ),
        (
            "checkpoint/resume, 8 KiB budget",
            ConformanceConfig {
                resume: true,
                memory_budget: Some(8192),
                ..base
            },
        ),
        (
            "sharded explorer, 2 and 4 shards",
            ConformanceConfig { shards: 2, ..base },
        ),
        (
            "threaded trace capture & replay",
            ConformanceConfig {
                trace: true,
                ..base
            },
        ),
    ]
}

/// Asserts one column's report is free of findings, covers the table and ran
/// every backend its config selects; every failure names `label`.
fn assert_column_clean(label: &str, cfg: &ConformanceConfig, report: &SuiteReport) {
    assert!(
        report.findings.is_empty(),
        "{label}: conformance divergences:\n{:#?}",
        report.findings
    );
    assert!(
        report.rows_covered.len() >= 10,
        "{label}: only {} Table-1 rows covered: {:?}",
        report.rows_covered.len(),
        report.rows_covered
    );
    let mut expected = vec![
        "explore",
        "reference-bfs",
        "scripted-replay",
        "round-robin",
        "random-sched",
        "threaded",
        worker_backend_name(cfg.explorer_workers.max(1)),
    ];
    if cfg.symmetry {
        expected.push("explorer-sym");
    }
    if cfg.resume {
        expected.push("explore-resume");
    }
    if cfg.trace {
        expected.push("threaded-trace");
    }
    if cfg.shards > 0 {
        expected.push(shard_backend_name(cfg.shards));
        expected.push(shard_backend_name(cfg.shards * 2));
    }
    for backend in expected {
        assert!(
            report.backends.contains(backend),
            "{label}: backend {backend} never ran; ran: {:?}",
            report.backends
        );
    }
    assert!(report.configs_explored > 0, "{label}: nothing explored");
}

#[test]
fn differential_suite_is_clean_and_covers_the_table() {
    let cfg = ConformanceConfig::default();
    assert_column_clean("defaults", &cfg, &run_suite(&cfg));
}

/// The CI matrix (minutes in debug builds, so release-only via
/// `cargo test --release --test conformance -- --include-ignored`).
#[test]
#[ignore]
fn ci_matrix_columns_are_clean() {
    for (label, cfg) in ci_matrix() {
        assert_column_clean(label, &cfg, &run_suite(&cfg));
    }
}

#[test]
#[should_panic(expected = "fault-injected column: conformance divergences")]
fn a_failing_column_is_reported_under_its_label() {
    let cfg = ConformanceConfig {
        scenarios: 12,
        threaded: false,
        fault_injection: true,
        ..ConformanceConfig::default()
    };
    assert_column_clean("fault-injected column", &cfg, &run_suite(&cfg));
}

#[test]
fn suite_reports_are_a_pure_function_of_the_seed() {
    let cfg = ConformanceConfig {
        scenarios: 12,
        threaded: false,
        fault_injection: true,
        ..ConformanceConfig::default()
    };
    let a = run_suite(&cfg);
    let b = run_suite(&cfg);
    assert_eq!(a, b, "same seed must reproduce the identical report");
    let other = run_suite(&ConformanceConfig {
        master_seed: cfg.master_seed ^ 1,
        ..cfg
    });
    assert_ne!(
        a.findings, other.findings,
        "different seeds explore different scenarios (w.h.p.)"
    );
}

// ---------------------------------------------------------------------------
// Fault injection: divergences are caught and shrunk
// ---------------------------------------------------------------------------

/// Re-verifies one faulty-replay finding against the real protocol: the
/// reproducer diverges, is 1-minimal, and round-trips through the wire
/// format. Uses `fault_diverges` — the *same* predicate the oracle shrank
/// against — so the re-verification cannot drift from the shrinker.
struct VerifyFaultFinding {
    inputs: Vec<u64>,
    reproducer: Schedule,
}

impl RowVisitor for VerifyFaultFinding {
    type Output = ();

    fn visit<P>(&mut self, _spec: &RowSpec, protocol: P)
    where
        P: Protocol,
        P::Proc: Send + Sync,
    {
        // The shrunken reproducer still diverges...
        assert!(
            fault_diverges(&protocol, &self.inputs, &self.reproducer),
            "reproducer no longer diverges: {}",
            self.reproducer
        );
        // ...is 1-minimal: removing any single step kills the divergence...
        for i in 0..self.reproducer.len() {
            let mut candidate = self.reproducer.to_vec();
            candidate.remove(i);
            assert!(
                !fault_diverges(&protocol, &self.inputs, &candidate),
                "reproducer {} is not 1-minimal (step {i} is removable)",
                self.reproducer
            );
        }
        // ...and survives the wire format.
        let parsed: Schedule = self.reproducer.to_string().parse().unwrap();
        assert_eq!(parsed, self.reproducer);
    }
}

#[test]
fn injected_fault_is_caught_and_shrunk_to_minimal_reproducers() {
    let cfg = ConformanceConfig {
        scenarios: 60,
        threaded: false,
        fault_injection: true,
        ..ConformanceConfig::default()
    };
    let report = run_suite(&cfg);
    let faulty: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.backend == "faulty-replay")
        .collect();
    let honest: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.backend != "faulty-replay")
        .collect();
    assert!(
        honest.is_empty(),
        "real backends must stay conformant: {honest:#?}"
    );
    assert!(
        faulty.len() >= 3,
        "the fuzzer must catch the injected fault repeatedly, caught {} times",
        faulty.len()
    );
    for finding in &faulty {
        let reproducer = finding
            .reproducer
            .clone()
            .expect("faulty-replay findings carry a reproducer");
        // The adoption fault is honest on the empty schedule, so every
        // shrunken reproducer is a genuine (non-empty) contention pattern.
        assert!(
            !reproducer.is_empty(),
            "degenerate reproducer for {:?}",
            finding.scenario
        );
        let mut verify = VerifyFaultFinding {
            inputs: finding.inputs.clone(),
            reproducer,
        };
        registry::visit_row(finding.scenario.row, finding.scenario.n, &mut verify)
            .expect("finding cites a registered row");
    }
}

// ---------------------------------------------------------------------------
// Trace capture & replay: lockstep on every row, tampering caught and shrunk
// ---------------------------------------------------------------------------

/// Runs one registry row with capture enabled and checks both directions of
/// the trace oracle: a faithful capture replays in lockstep (no finding),
/// and a forged decision vector is contradicted by the trace's own replay,
/// with the divergence shrunk to a 1-minimal, wire-stable reproducer. Uses
/// `trace_decision_divergence` — the *same* predicate the oracle shrank
/// against — so the re-verification cannot drift from the shrinker.
struct VerifyTraceCapture {
    seed: u64,
}

impl RowVisitor for VerifyTraceCapture {
    type Output = ();

    fn visit<P>(&mut self, spec: &RowSpec, protocol: P)
    where
        P: Protocol,
        P::Proc: Send + Sync,
    {
        let inputs: Vec<u64> = (0..protocol.n())
            .map(|pid| (self.seed >> (8 * (pid % 8))) % protocol.domain())
            .collect();
        let outcome = run_threaded_traced(&protocol, &inputs, 200_000)
            .unwrap_or_else(|e| panic!("row {}: threaded run errored: {e}", spec.id));
        assert_eq!(
            trace_divergence(&protocol, &inputs, &outcome.trace, &outcome.report),
            None,
            "row {}: a faithful capture must replay in lockstep",
            spec.id
        );
        // Control experiment: forge the decisions the threads supposedly
        // reached; the replay of the genuine trace must contradict it.
        let Some(winner) = outcome.report.unanimous() else {
            return; // budget-stopped run: nothing to forge against
        };
        let imposter = (winner + 1) % protocol.domain();
        let mut forged = outcome.report.clone();
        forged.decisions = vec![Some(imposter); protocol.n()];
        let (detail, reproducer) =
            trace_divergence(&protocol, &inputs, &outcome.trace, &forged)
                .unwrap_or_else(|| panic!("row {}: forged decisions must diverge", spec.id));
        assert!(detail.contains("diverges"), "{detail}");
        let minimal = reproducer.expect("decision divergence carries a reproducer");
        assert!(
            trace_decision_divergence(&protocol, &inputs, &minimal, &forged.decisions),
            "row {}: shrunken reproducer no longer diverges: {minimal}",
            spec.id
        );
        // 1-minimal: removing any single step kills the divergence...
        for i in 0..minimal.len() {
            let mut candidate = minimal.to_vec();
            candidate.remove(i);
            assert!(
                !trace_decision_divergence(&protocol, &inputs, &candidate, &forged.decisions),
                "row {}: reproducer {minimal} is not 1-minimal (step {i} is removable)",
                spec.id
            );
        }
        // ...and the reproducer survives the wire format.
        let parsed: Schedule = minimal.to_string().parse().unwrap();
        assert_eq!(parsed, minimal);
    }
}

#[test]
fn captured_traces_replay_lockstep_and_tampering_is_caught() {
    for (i, row) in registry::all_rows().into_iter().enumerate() {
        let mut verify = VerifyTraceCapture {
            seed: 0x5EED_CB41_u64.wrapping_mul(i as u64 + 1),
        };
        registry::visit_row(row.id, row.min_n + (i % 2), &mut verify)
            .expect("registry row exists");
    }
}

// ---------------------------------------------------------------------------
// Satellite: counterexample schedules round-trip through ScriptedScheduler
// ---------------------------------------------------------------------------

fn counterexample_roundtrips<P: Protocol>(protocol: &P, inputs: &[u64]) {
    let out = explore(protocol, inputs, ExploreLimits::default()).unwrap();
    let ExploreOutcome::AgreementViolation {
        decisions,
        schedule,
    } = out
    else {
        panic!("strawman must yield an agreement violation, got {out:?}");
    };
    let wire = Schedule::new(schedule.iter().copied());
    // Wire format round-trip.
    let parsed: Schedule = wire.to_string().parse().unwrap();
    assert_eq!(parsed, wire);
    // Verbatim replay: every scheduled pid steps exactly once per entry (no
    // off-by-one between parent-link pids and scripted steps), and the
    // violating decision vector reappears.
    let report = replay_schedule(protocol, inputs, &parsed).unwrap();
    assert_eq!(
        report.steps,
        schedule.len() as u64,
        "schedule replayed step for step"
    );
    assert!(report.check(inputs).is_err(), "{report:?}");
    let decided: Vec<u64> = report.decisions.iter().flatten().copied().collect();
    assert!(
        decided.contains(&decisions.0) && decided.contains(&decisions.1),
        "replay reproduces the conflicting decisions {decisions:?}: {decided:?}"
    );
}

#[test]
fn counterexample_schedules_roundtrip_through_scripted_replay() {
    counterexample_roundtrips(&OneMaxRegister::new(), &[0, 1]);
    counterexample_roundtrips(&OneRegister::new(2), &[0, 1]);
    counterexample_roundtrips(&OneRegister::new(3), &[0, 1, 1]);
    counterexample_roundtrips(&OneRegister::new(3), &[1, 0, 0]);
}

// ---------------------------------------------------------------------------
// Satellite: the scenario stream itself is seed-stable
// ---------------------------------------------------------------------------

#[test]
fn scenario_stream_is_pinned_for_saved_seeds() {
    // Golden first scenario of master seed 0: shrunken reproducers are filed
    // as (seed, scenario index) pairs, so the stream is a stable interface —
    // like the RNG goldens, a failure here means restore the generator, not
    // update the constants.
    let first = ScenarioGen::new(0).next_scenario();
    assert_eq!(
        first,
        Scenario {
            index: 0,
            row: "cas",
            n: 3,
            input_seed: 487617019471545679,
            sched_seed: 17909611376780542444,
            depth: 5,
        }
    );
}
