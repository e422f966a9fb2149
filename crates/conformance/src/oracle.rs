//! The differential backend oracle.
//!
//! [`run_scenario`] executes one fuzzed [`Scenario`] through every
//! applicable backend and diffs everything two backends can be expected to
//! agree on:
//!
//! | comparison | backends | must match |
//! |---|---|---|
//! | engine vs oracle | packed frontier `explore` vs clone-based reference BFS | outcome **and** stats, bit for bit |
//! | worker fan-out | `Explorer` with 1 vs [`ConformanceConfig::explorer_workers`] workers (the CI matrix sweeps 1/4/8) | outcome and stats, bit for bit |
//! | shard fan-out | sequential engine vs [`cbh_verify::dist::explore_sharded`] at [`ConformanceConfig::shards`] and double (the CI matrix's sharded column runs 2 and 4) | outcome and semantic stats, bit for bit |
//! | symmetry quotient | reduced 1 vs fan-out workers; reduced vs plain | reduced runs identical; verdict equal; reduced configs ≤ plain |
//! | property checks | scripted replay, round-robin, seeded random, bounded threads | agreement + validity; `locations_touched` ≤ the row's exact Table 1 bound |
//! | trace replay | capture-enabled threads vs the model replaying the captured linearization ([`crate::trace`]) | lockstep report equality (decisions, `steps`, locations), wire round-trip identity |
//! | fault injection | honest vs [`FaultyDecider`](crate::faulty::FaultyDecider) scripted replay | decision vectors equal (divergence ⇒ finding + shrunken reproducer) |
//!
//! Any mismatch becomes a [`Finding`]; findings that carry a schedule
//! witness are delta-debugged ([`crate::shrink`]) to a 1-minimal
//! [`Schedule`] reproducer that replays through
//! [`cbh_sim::ScriptedScheduler`]. The whole suite is a pure function of
//! [`ConformanceConfig`]; CI's columns are the labelled configs of
//! `ci_matrix` in `tests/conformance.rs`.

use crate::scenario::{derive_inputs, derive_schedule, Scenario, ScenarioGen};
use crate::shrink::{replay_violates, shrink_schedule, shrink_violation};
use cbh_core::registry::{visit_row, RowSpec, RowVisitor};
use cbh_model::{CompactTrace, Protocol, Schedule};
use cbh_sim::{
    adversarial_then_solo, ConsensusReport, RandomScheduler, RoundRobinScheduler,
    ScriptedScheduler, SimError,
};
use cbh_sync::{run_threaded_bounded, run_threaded_traced};
use cbh_verify::checker::{explore_stats, ExploreLimits, ExploreOutcome, Explorer, ExploreStats};
use cbh_verify::dist::{explore_sharded, DistConfig};
use cbh_verify::reference::reference_explore;
use cbh_verify::snapshot::Snapshot;
use std::collections::BTreeSet;

/// Solo budget for the sequential scheduler backends (same order of
/// magnitude as the consensus matrix uses). Shared with
/// [`crate::faulty::fault_diverges`] so shrinking and re-verification use
/// the identical predicate.
pub(crate) const SOLO_BUDGET: u64 = 50_000_000;

/// Per-thread step budget for the real-thread backend: generous enough that
/// correct protocols decide, bounded so fuzzing never hangs.
const THREAD_BUDGET: u64 = 200_000;

/// What the conformance suite runs and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConformanceConfig {
    /// Master seed: the whole suite is a pure function of it.
    pub master_seed: u64,
    /// How many scenarios to draw (rows are covered round-robin).
    pub scenarios: usize,
    /// Config cap for the exhaustive backends.
    pub max_configs: usize,
    /// When `true`, additionally runs the test-only
    /// [`FaultyDecider`](crate::faulty::FaultyDecider)-wrapped replay backend — the control experiment
    /// proving divergences are caught and shrunk.
    pub fault_injection: bool,
    /// Run the OS-thread backend (`true` everywhere except speed-sensitive
    /// inner loops of the harness's own tests).
    pub threaded: bool,
    /// Run the capture-enabled thread backend (on in the CI matrix's trace
    /// column): every scenario additionally runs on real threads
    /// with the compact event log on, and the captured linearization is
    /// replayed through the deterministic model, which must agree with the
    /// physical run bit for bit — decisions, `steps`,
    /// `locations_allocated`, `locations_touched` — with divergences
    /// ddmin-shrunk to replayable schedules ([`crate::trace`]).
    pub trace: bool,
    /// Worker count for the fan-out explorer backend diffed against the
    /// sequential engine (the CI matrix sweeps `{1, 4, 8}`).
    pub explorer_workers: usize,
    /// Run the symmetry-reduced explorer backends on anonymous rows (the
    /// other axis of CI's worker/symmetry matrix).
    pub symmetry: bool,
    /// Frontier memory budget (bytes) for the exhaustive backends
    /// ([`ExploreLimits::memory_budget`]). `None` (the default) never
    /// spills; the CI matrix's tiny-budget columns pin it low enough that
    /// every scenario exercises the spill paths — and the oracle still
    /// demands bit-identical outcomes and semantic stats against the
    /// never-spilling reference BFS.
    pub memory_budget: Option<usize>,
    /// Run the checkpoint/resume backend (on in the CI matrix's resume
    /// columns): every scenario re-runs with periodic retained
    /// snapshots, then resumes from **each** snapshot in turn — both the
    /// checkpointed run and every kill-at-this-checkpoint resume must be
    /// bit-identical to the uncheckpointed engine run.
    pub resume: bool,
    /// Base shard count for the distributed backend
    /// ([`cbh_verify::dist::explore_sharded`]). `0` (the default) skips it;
    /// the CI matrix's sharded column (2) diffs every scenario at `shards`
    /// **and** `2 * shards` against the sequential engine, bit for bit.
    pub shards: usize,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        ConformanceConfig {
            // PODC 2016 / Ellen — an arbitrary but documented default,
            // shared by every column of the CI matrix.
            master_seed: 0x2016_E11E,
            scenarios: 40,
            max_configs: 20_000,
            fault_injection: false,
            threaded: true,
            trace: false,
            explorer_workers: 4,
            symmetry: true,
            memory_budget: None,
            resume: false,
            shards: 0,
        }
    }
}

/// Stable backend label for a worker count (backend names are part of the
/// findings' vocabulary, so they stay `'static`).
///
/// The table covers the CI matrix's worker counts (1/4/8) plus the common 2
/// and 16; any other count shares the `"explorer-wN"` label, so record the
/// exact `explorer_workers` alongside findings from off-matrix runs.
pub fn worker_backend_name(workers: usize) -> &'static str {
    match workers {
        0 | 1 => "explorer-w1",
        2 => "explorer-w2",
        4 => "explorer-w4",
        8 => "explorer-w8",
        16 => "explorer-w16",
        _ => "explorer-wN",
    }
}

/// Stable backend label for a shard count, mirroring
/// [`worker_backend_name`]. The table covers the CI matrix's sharded
/// column (which runs 2 and 4); off-matrix counts share `"dist-sN"`.
pub fn shard_backend_name(shards: usize) -> &'static str {
    match shards {
        0 | 1 => "dist-s1",
        2 => "dist-s2",
        3 => "dist-s3",
        4 => "dist-s4",
        8 => "dist-s8",
        _ => "dist-sN",
    }
}

/// One detected divergence or property violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The scenario that exposed it (replayable from its seeds).
    pub scenario: Scenario,
    /// The concrete input vector the scenario derived.
    pub inputs: Vec<u64>,
    /// Which backend (or backend pair) disagreed.
    pub backend: &'static str,
    /// Human-readable description of the mismatch.
    pub detail: String,
    /// 1-minimal witness schedule, when the divergence carries one; replay
    /// it with [`cbh_sim::replay_schedule`] / [`ScriptedScheduler`].
    pub reproducer: Option<Schedule>,
}

/// The outcome of one scenario: which backends ran, what they disagreed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// The derived input vector.
    pub inputs: Vec<u64>,
    /// Backends exercised, in execution order.
    pub backends: Vec<&'static str>,
    /// Divergences and property violations (empty = fully conformant).
    pub findings: Vec<Finding>,
    /// Distinct configurations the frontier engine visited.
    pub configs: usize,
}

/// Aggregated result of a conformance run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteReport {
    /// Scenarios executed.
    pub scenarios_run: usize,
    /// Registry row ids covered.
    pub rows_covered: BTreeSet<&'static str>,
    /// Backends exercised at least once.
    pub backends: BTreeSet<&'static str>,
    /// Every divergence found, in scenario order.
    pub findings: Vec<Finding>,
    /// Total distinct configurations explored by the frontier engine.
    pub configs_explored: usize,
}

/// Runs `cfg.scenarios` fuzzed scenarios and aggregates the findings.
///
/// Deterministic: equal configs produce equal reports (including every
/// shrunken reproducer), so a CI failure replays locally from the seed.
pub fn run_suite(cfg: &ConformanceConfig) -> SuiteReport {
    let mut report = SuiteReport {
        scenarios_run: 0,
        rows_covered: BTreeSet::new(),
        backends: BTreeSet::new(),
        findings: Vec::new(),
        configs_explored: 0,
    };
    for scenario in ScenarioGen::new(cfg.master_seed).take(cfg.scenarios) {
        let outcome = run_scenario(&scenario, cfg);
        report.scenarios_run += 1;
        report.rows_covered.insert(scenario.row);
        report.backends.extend(outcome.backends.iter().copied());
        report.findings.extend(outcome.findings);
        report.configs_explored += outcome.configs;
    }
    report
}

/// Runs one scenario through every applicable backend.
///
/// # Panics
///
/// Panics if the scenario names a row the registry does not know — scenarios
/// produced by [`ScenarioGen`] never do.
pub fn run_scenario(scenario: &Scenario, cfg: &ConformanceConfig) -> ScenarioOutcome {
    let mut visitor = OracleVisitor { scenario, cfg };
    visit_row(scenario.row, scenario.n, &mut visitor)
        .unwrap_or_else(|| panic!("scenario names unregistered row {:?}", scenario.row))
}

struct OracleVisitor<'c> {
    scenario: &'c Scenario,
    cfg: &'c ConformanceConfig,
}

impl RowVisitor for OracleVisitor<'_> {
    type Output = ScenarioOutcome;

    fn visit<P>(&mut self, spec: &RowSpec, protocol: P) -> ScenarioOutcome
    where
        P: Protocol,
        P::Proc: Send + Sync,
    {
        let scenario = self.scenario;
        let inputs = derive_inputs(scenario, protocol.domain());
        let limits = ExploreLimits {
            depth: scenario.depth,
            max_configs: self.cfg.max_configs,
            solo_check_budget: None,
            memory_budget: self.cfg.memory_budget,
            checkpoint_every: None,
        };
        let mut out = ScenarioOutcome {
            inputs: inputs.clone(),
            backends: Vec::new(),
            findings: Vec::new(),
            configs: 0,
        };
        let finding = |backend, detail, reproducer| Finding {
            scenario: scenario.clone(),
            inputs: inputs.clone(),
            backend,
            detail,
            reproducer,
        };

        // -- exhaustive backends -----------------------------------------
        out.backends.push("explore");
        let engine = match explore_stats(&protocol, &inputs, limits) {
            Ok(engine) => engine,
            Err(e) => {
                out.findings
                    .push(finding("explore", format!("SimError: {e}"), None));
                return out;
            }
        };
        out.configs = engine.1.configs;
        // Shrinks a witness when its replay really violates consensus, and
        // keeps the claimed schedule verbatim as evidence when it doesn't
        // (obstruction witnesses, or a backend claiming a bogus violation).
        let minimize_witness = |witness: &[usize]| -> Schedule {
            if replay_violates(&protocol, &inputs, witness) {
                shrink_violation(&protocol, &inputs, witness)
            } else {
                Schedule::new(witness.iter().copied())
            }
        };
        if let Some(witness) = engine.0.schedule() {
            // A Table-1 protocol violated consensus (or starved a solo run):
            // a finding in its own right, independent of backend agreement.
            out.findings.push(finding(
                "explore",
                format!("property violation: {:?}", engine.0),
                Some(minimize_witness(witness)),
            ));
        }

        out.backends.push("reference-bfs");
        match reference_explore(&protocol, &inputs, limits) {
            Ok(oracle) => {
                if oracle != engine {
                    let witness = oracle.0.schedule().or(engine.0.schedule());
                    out.findings.push(finding(
                        "reference-bfs",
                        format!("engine {engine:?} != reference {oracle:?}"),
                        witness.map(minimize_witness),
                    ));
                }
            }
            Err(e) => out
                .findings
                .push(finding("reference-bfs", format!("SimError: {e}"), None)),
        }

        let fan_out = self.cfg.explorer_workers.max(1);
        let fan_out_backend = worker_backend_name(fan_out);
        out.backends.push(fan_out_backend);
        match Explorer::new()
            .workers(fan_out)
            .limits(limits)
            .explore_stats(&protocol, &inputs)
        {
            Ok(parallel) => {
                if parallel != engine {
                    out.findings.push(finding(
                        fan_out_backend,
                        format!("1-worker {engine:?} != {fan_out}-worker {parallel:?}"),
                        None,
                    ));
                }
            }
            Err(e) => out
                .findings
                .push(finding(fan_out_backend, format!("SimError: {e}"), None)),
        }

        if self.cfg.shards > 0 {
            // The distributed backend partitions the fingerprint space and
            // merges per-shard admission logs; at both the configured count
            // and its double it must replay the sequential engine exactly —
            // outcome, counterexample schedule and semantic stats. ddmin is
            // untouched: a divergence with a witness shrinks through the
            // same `minimize_witness` as every other exhaustive backend.
            for shards in [self.cfg.shards, self.cfg.shards * 2] {
                let backend = shard_backend_name(shards);
                out.backends.push(backend);
                let dist_cfg = DistConfig {
                    shards,
                    workers: self.cfg.explorer_workers.max(1),
                    symmetric: false,
                };
                match explore_sharded(&protocol, &inputs, limits, dist_cfg) {
                    Ok(sharded) => {
                        if sharded != engine {
                            let witness = sharded.0.schedule().or(engine.0.schedule());
                            out.findings.push(finding(
                                backend,
                                format!("engine {engine:?} != {shards}-shard {sharded:?}"),
                                witness.map(minimize_witness),
                            ));
                        }
                    }
                    Err(e) => out
                        .findings
                        .push(finding(backend, format!("SimError: {e}"), None)),
                }
            }
        }

        if self.cfg.resume {
            out.backends.push("explore-resume");
            match resume_conformance(&protocol, &inputs, limits, fan_out, &engine) {
                Ok(None) => {}
                Ok(Some(detail)) => out.findings.push(finding("explore-resume", detail, None)),
                Err(e) => out
                    .findings
                    .push(finding("explore-resume", format!("SimError: {e}"), None)),
            }
        }

        if self.cfg.symmetry && spec.anonymous {
            out.backends.push("explorer-sym");
            let reduced = |workers| {
                Explorer::new()
                    .workers(workers)
                    .limits(limits)
                    .symmetry_reduction(true)
                    .explore_stats(&protocol, &inputs)
            };
            match (reduced(1), reduced(fan_out.max(2))) {
                (Ok(sym1), Ok(sym4)) => {
                    if sym1 != sym4 {
                        out.findings.push(finding(
                            "explorer-sym",
                            format!(
                                "reduced 1-worker {sym1:?} != {}-worker {sym4:?}",
                                fan_out.max(2)
                            ),
                            None,
                        ));
                    }
                    if sym1.0.is_clean() != engine.0.is_clean() {
                        out.findings.push(finding(
                            "explorer-sym",
                            format!("reduced verdict {:?} != plain verdict {:?}", sym1.0, engine.0),
                            None,
                        ));
                    }
                    if sym1.1.configs > engine.1.configs {
                        out.findings.push(finding(
                            "explorer-sym",
                            format!(
                                "quotient explored more configs ({}) than the plain space ({})",
                                sym1.1.configs, engine.1.configs
                            ),
                            None,
                        ));
                    }
                }
                (Err(e), _) | (_, Err(e)) => out
                    .findings
                    .push(finding("explorer-sym", format!("SimError: {e}"), None)),
            }
        }

        // -- sequential scheduler backends -------------------------------
        let script = derive_schedule(scenario);
        let space_check = |report: &ConsensusReport| -> Option<String> {
            let bound = spec.space?(scenario.n);
            (report.locations_touched > bound).then(|| {
                format!(
                    "locations_touched {} exceeds the Table 1 bound {bound}",
                    report.locations_touched
                )
            })
        };
        type SeqRun<'r> = Box<dyn FnMut() -> Result<ConsensusReport, SimError> + 'r>;
        let sequential: [(&'static str, SeqRun); 3] = [
            (
                "scripted-replay",
                Box::new(|| {
                    adversarial_then_solo(
                        &protocol,
                        &inputs,
                        ScriptedScheduler::new(script.clone()),
                        script.len() as u64,
                        SOLO_BUDGET,
                    )
                }),
            ),
            (
                "round-robin",
                Box::new(|| {
                    adversarial_then_solo(
                        &protocol,
                        &inputs,
                        RoundRobinScheduler::new(),
                        script.len() as u64,
                        SOLO_BUDGET,
                    )
                }),
            ),
            (
                "random-sched",
                Box::new(|| {
                    adversarial_then_solo(
                        &protocol,
                        &inputs,
                        RandomScheduler::seeded(scenario.sched_seed),
                        script.len() as u64,
                        SOLO_BUDGET,
                    )
                }),
            ),
        ];
        for (backend, mut run) in sequential {
            out.backends.push(backend);
            match run() {
                Ok(report) => {
                    // (A process failing to decide surfaces as a SimError —
                    // `adversarial_then_solo` errors rather than returning a
                    // partial report — so `check` passing means unanimity.)
                    if let Err(violation) = report.check(&inputs) {
                        // Schedulers can only witness-shrink the scripted run.
                        let reproducer = (backend == "scripted-replay")
                            .then(|| shrink_scripted_violation(&protocol, &inputs, &script));
                        out.findings.push(finding(
                            backend,
                            format!("consensus violation: {violation}"),
                            reproducer,
                        ));
                    }
                    if let Some(detail) = space_check(&report) {
                        out.findings.push(finding(backend, detail, None));
                    }
                }
                Err(e) => out
                    .findings
                    .push(finding(backend, format!("SimError: {e}"), None)),
            }
        }

        // -- real threads -------------------------------------------------
        if self.cfg.threaded {
            out.backends.push("threaded");
            match run_threaded_bounded(&protocol, &inputs, THREAD_BUDGET) {
                Ok(outcome) => {
                    if let Err(violation) = outcome.report.check(&inputs) {
                        out.findings.push(finding(
                            "threaded",
                            format!("consensus violation: {violation}"),
                            None,
                        ));
                    }
                    if let Some(detail) = space_check(&outcome.report) {
                        out.findings.push(finding("threaded", detail, None));
                    }
                }
                Err(e) => out
                    .findings
                    .push(finding("threaded", format!("ModelError: {e}"), None)),
            }
        }

        // -- trace capture & replay ---------------------------------------
        if self.cfg.trace {
            out.backends.push("threaded-trace");
            match run_threaded_traced(&protocol, &inputs, THREAD_BUDGET) {
                Ok(outcome) => {
                    if let Err(violation) = outcome.report.check(&inputs) {
                        out.findings.push(finding(
                            "threaded-trace",
                            format!("consensus violation: {violation}"),
                            None,
                        ));
                    }
                    if let Some(detail) = space_check(&outcome.report) {
                        out.findings.push(finding("threaded-trace", detail, None));
                    }
                    // The capture must survive its own wire format...
                    match CompactTrace::from_bytes(&outcome.trace.to_bytes()) {
                        Ok(decoded) if decoded == outcome.trace => {}
                        Ok(_) => out.findings.push(finding(
                            "threaded-trace",
                            "trace wire round-trip is not the identity".to_string(),
                            None,
                        )),
                        Err(e) => out.findings.push(finding(
                            "threaded-trace",
                            format!("trace encoding does not decode: {e}"),
                            None,
                        )),
                    }
                    // ...and its replay must agree with the physical run in
                    // lockstep: decisions, steps, locations.
                    if let Some((detail, reproducer)) = crate::trace::trace_divergence(
                        &protocol,
                        &inputs,
                        &outcome.trace,
                        &outcome.report,
                    ) {
                        out.findings
                            .push(finding("threaded-trace", detail, reproducer));
                    }
                }
                Err(e) => out.findings.push(finding(
                    "threaded-trace",
                    format!("ModelError: {e}"),
                    None,
                )),
            }
        }

        // -- fault injection (control experiment) -------------------------
        if self.cfg.fault_injection {
            out.backends.push("faulty-replay");
            let diverges = |s: &[usize]| crate::faulty::fault_diverges(&protocol, &inputs, s);
            if diverges(&script) {
                let minimal = Schedule::new(shrink_schedule(&script, diverges));
                out.findings.push(finding(
                    "faulty-replay",
                    "decision vector diverges from honest scripted replay".to_string(),
                    Some(minimal),
                ));
            }
        }

        out
    }
}

/// The checkpoint/resume oracle for one scenario: re-runs the exploration
/// with periodic retained snapshots, then resumes from **every** snapshot
/// written — each must reproduce the baseline `(ExploreOutcome,
/// ExploreStats)` bit for bit (the kill-at-any-checkpoint guarantee, with
/// the "kill" factored out: a retained snapshot *is* the complete state a
/// killed run would resume from). Returns the first divergence as a finding
/// detail, `None` when fully conformant.
fn resume_conformance<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    workers: usize,
    baseline: &(ExploreOutcome, ExploreStats),
) -> Result<Option<String>, SimError>
where
    P::Proc: Send + Sync,
{
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let tag = SEQ.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "cbh-conformance-resume-{}-{tag}.ck",
        std::process::id()
    ));
    // A handful of checkpoints across the run, however small the scenario.
    let cadence = (baseline.1.configs as u64 / 4).max(1);
    let limits = ExploreLimits {
        checkpoint_every: Some(cadence),
        ..limits
    };
    let checkpointed = Explorer::new()
        .workers(workers)
        .limits(limits)
        .checkpoint_to(&path)
        .retain_checkpoints(true)
        .explore_stats(protocol, inputs)?;
    let mut detail = None;
    if &checkpointed != baseline {
        detail = Some(format!(
            "checkpointed run {checkpointed:?} != baseline {baseline:?}"
        ));
    }
    let mut seq = 0u64;
    while detail.is_none() {
        let numbered = std::path::PathBuf::from(format!("{}.ck{seq}", path.display()));
        let Ok(snapshot) = Snapshot::read(&numbered) else {
            break;
        };
        let resumed = Explorer::new()
            .workers(workers)
            .limits(limits)
            .resume_stats(protocol, inputs, &snapshot)?;
        if &resumed != baseline {
            detail = Some(format!(
                "resume from checkpoint {seq} ({} admitted configs) produced {resumed:?}, \
                 baseline {baseline:?}",
                snapshot.configs()
            ));
        }
        seq += 1;
    }
    let _ = std::fs::remove_file(&path);
    for k in 0u64.. {
        let numbered = format!("{}.ck{k}", path.display());
        if std::fs::remove_file(numbered).is_err() {
            break;
        }
    }
    Ok(detail)
}

/// Shrinks a scripted-replay consensus violation: minimal subsequence whose
/// replay **plus solo finish** still violates agreement or validity.
fn shrink_scripted_violation<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    script: &[usize],
) -> Schedule {
    Schedule::new(shrink_schedule(script, |s| {
        adversarial_then_solo(
            protocol,
            inputs,
            ScriptedScheduler::new(s.to_vec()),
            s.len() as u64,
            SOLO_BUDGET,
        )
        .map(|r| r.check(inputs).is_err())
        .unwrap_or(false)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_scenario_runs_all_core_backends() {
        let cfg = ConformanceConfig {
            threaded: false,
            ..ConformanceConfig::default()
        };
        let scenario = ScenarioGen::new(1).next_scenario();
        let outcome = run_scenario(&scenario, &cfg);
        assert!(outcome.findings.is_empty(), "{:#?}", outcome.findings);
        for backend in ["explore", "reference-bfs", "explorer-w4", "scripted-replay"] {
            assert!(outcome.backends.contains(&backend), "{backend} missing");
        }
        assert!(outcome.configs > 0);
    }

    #[test]
    fn the_sharded_backend_joins_the_matrix_when_configured() {
        let cfg = ConformanceConfig {
            threaded: false,
            shards: 2,
            ..ConformanceConfig::default()
        };
        let scenario = ScenarioGen::new(3).next_scenario();
        let outcome = run_scenario(&scenario, &cfg);
        assert!(outcome.findings.is_empty(), "{:#?}", outcome.findings);
        for backend in ["dist-s2", "dist-s4"] {
            assert!(outcome.backends.contains(&backend), "{backend} missing");
        }
    }

    #[test]
    fn the_trace_backend_joins_the_matrix_when_configured() {
        let cfg = ConformanceConfig {
            trace: true,
            ..ConformanceConfig::default()
        };
        let scenario = ScenarioGen::new(5).next_scenario();
        let outcome = run_scenario(&scenario, &cfg);
        assert!(outcome.findings.is_empty(), "{:#?}", outcome.findings);
        assert!(
            outcome.backends.contains(&"threaded-trace"),
            "threaded-trace missing from {:?}",
            outcome.backends
        );
    }

    #[test]
    fn suite_reports_are_a_pure_function_of_the_config() {
        let cfg = ConformanceConfig {
            scenarios: 6,
            threaded: false,
            ..ConformanceConfig::default()
        };
        assert_eq!(run_suite(&cfg), run_suite(&cfg));
    }
}
