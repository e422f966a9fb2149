//! The traced run: spans around calls into each layer's public functions,
//! and the per-layer metrics derived from them.
//!
//! Explore workloads run their own exploration once more with spans, then
//! the comparison runs the metrics need (1 worker, unbounded, 1 shard) and
//! micro-benchmarks of the model, claim table, seen set and frame codec on
//! the workload's own states and counts. `conformance_fuzz` re-issues each
//! backend call of the oracle per scenario, every one in its own span, in
//! place of the single `run_scenario` call. A metric a workload does not
//! exercise reads 0 (ratios: 1 for `frontier.spill_slowdown`).

use crate::spans::{self_times, Tracer};
use crate::stats::median;
use crate::sys::{usage, Who};
use crate::workload::{
    conformance_config, conformance_pin, emit, explore_inputs, explore_run, scenarios, spill_dir,
    splitmix, ExploreRun, ExploreSpec, Pin, Workload,
};
use cbh_conformance::scenario::{derive_inputs, derive_schedule};
use cbh_conformance::trace::trace_divergence;
use cbh_conformance::{ConformanceConfig, Scenario};
use cbh_core::registry::{visit_row, RowSpec, RowVisitor};
use cbh_model::{
    apply_delta, encode_delta, encode_frame, CompactTrace, FrameReader, PackedCache, Protocol,
};
use cbh_sim::{
    adversarial_then_solo, ConsensusReport, Machine, RandomScheduler, RoundRobinScheduler,
    ScriptedScheduler,
};
use cbh_sync::{run_threaded_bounded, run_threaded_traced};
use cbh_verify::checker::{explore_stats, ExploreLimits, ExploreStats, Explorer};
use cbh_verify::claim::ClaimTable;
use cbh_verify::dist::{explore_sharded, DistConfig};
use cbh_verify::fpset::FpSet;
use cbh_verify::frontier::SpillContext;
use cbh_verify::reference::reference_explore;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// Every per-layer metric: name and unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("model.branch_step_ns", "ns"),
    ("model.edge_digest_ns", "ns"),
    ("model.delta_encode_ns", "ns"),
    ("model.delta_apply_ns", "ns"),
    ("model.delta_bytes", "bytes"),
    ("model.frame_encode_ns_per_kb", "ns/KB"),
    ("model.frame_decode_ns_per_kb", "ns/KB"),
    ("model.intern_resident_bytes", "bytes"),
    ("engine.w1_s", "s"),
    ("engine.speedup_w2", "ratio"),
    ("engine.cpu_util", "ratio"),
    ("engine.peak_resident_bytes", "bytes"),
    ("engine.configs", "count"),
    ("engine.frontier_peak", "count"),
    ("engine.depth_reached", "count"),
    ("claim.new_ms", "ms"),
    ("claim.resident_bytes", "bytes"),
    ("claim.claim_ns", "ns"),
    ("claim.admit_ns", "ns"),
    ("fpset.admit_ns", "ns"),
    ("fpset.contains_ns", "ns"),
    ("fpset.disk_bytes", "bytes"),
    ("fpset.seen_resident_bytes", "bytes"),
    ("frontier.bytes_spilled", "bytes"),
    ("frontier.spill_slowdown", "ratio"),
    ("snapshot.checkpoint_bytes", "bytes"),
    ("snapshot.checkpoint_ms", "ms"),
    ("dist.frames", "count"),
    ("dist.frame_bytes", "bytes"),
    ("dist.bytes_per_config", "bytes"),
    ("dist.speedup_s2", "ratio"),
    ("dist.vs_engine_w1", "ratio"),
    ("dist.connect_ms", "ms"),
    ("reference.ms", "ms"),
    ("sim.sched_ms", "ms"),
    ("sync.threaded_ms", "ms"),
    ("sync.traced_ms", "ms"),
    ("sync.trace_overhead", "ratio"),
    ("sync.trace_frames", "count"),
    ("conformance.explore_ms", "ms"),
    ("conformance.explorer_w2_ms", "ms"),
    ("conformance.dist_ms", "ms"),
    ("conformance.symmetry_ms", "ms"),
    ("conformance.configs_explored", "count"),
    ("conformance.findings", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.unattributed_frac", "ratio"),
];

/// Parallel workers (or shards) every workload runs with; the divisor of
/// `engine.cpu_util`.
const PARALLELISM: f64 = 2.0;

/// States in the model-layer sample of an explore workload.
const SAMPLE_STATES: usize = 20_000;
/// Conformance scenarios sampled for the model layer, and states each.
const SAMPLE_SCENARIOS: usize = 100;
const SAMPLE_STATES_PER_SCENARIO: usize = 200;
/// Timed passes over a model sample (after one untimed warm-up pass).
const SAMPLE_REPS: usize = 3;

/// Frame payload for the codec micro-benchmark: the mean payload of the
/// `sharded_explore` run (23,886,825 bytes in 2,036 frames, less the
/// 14-byte header and trailer), fixed so every workload times the same
/// frames.
const FRAME_PAYLOAD: usize = 11_700;
/// Bytes pushed through the frame codec per direction.
const FRAME_VOLUME: usize = 64 << 20;

/// The oracle's solo and per-thread step budgets (`cbh_conformance`).
const SOLO_BUDGET: u64 = 50_000_000;
const THREAD_BUDGET: u64 = 200_000;

type Metrics = BTreeMap<&'static str, f64>;

/// The traced child: records spans, writes them under `.perfbench/spans/`,
/// and reports every per-layer metric plus `traced_wall_s` and `failed`.
pub fn run_layers(w: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let mut t = Tracer::new();
    let mut m = Metrics::new();
    let mut failures = Vec::new();
    let traced_wall_s = match w.explore() {
        Some(spec) => {
            let mut visitor = ExploreLayers {
                w,
                spec,
                seed,
                dir,
                t: &mut t,
                m: &mut m,
                failures: &mut failures,
            };
            visit_row(spec.row, spec.n, &mut visitor).expect("workload rows are registered")?
        }
        None => conformance_layers(seed, dir, &mut t, &mut m, &mut failures)?,
    };
    frame_micro(&mut t, &mut m, &mut failures);
    let spans_dir = Path::new(".perfbench").join("spans");
    std::fs::create_dir_all(&spans_dir)
        .map_err(|e| format!("create {}: {e}", spans_dir.display()))?;
    let path = spans_dir.join(format!("{}-seed{seed}.tsv", w.name()));
    t.write_tsv(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    for (name, _) in PER_LAYER {
        emit(name, m.get(name).copied().unwrap_or(0.0));
    }
    emit("traced_wall_s", traced_wall_s);
    emit("failed", failures.len());
    emit("why", failures.join("; "));
    Ok(())
}

/// CPU seconds of this process and every child it has reaped.
fn cpu_now() -> f64 {
    usage(Who::Process).cpu_s + usage(Who::Children).cpu_s
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

// ---------------------------------------------------------------------------
// Explore workloads
// ---------------------------------------------------------------------------

struct ExploreLayers<'a> {
    w: Workload,
    spec: ExploreSpec,
    seed: u64,
    dir: &'a Path,
    t: &'a mut Tracer,
    m: &'a mut Metrics,
    failures: &'a mut Vec<String>,
}

impl ExploreLayers<'_> {
    /// Runs one exploration of `spec`'s shape as operation `op` inside a
    /// span `name`, with its shard connection and timed call as child
    /// spans; checks it against the workload's pin.
    fn traced_run<P>(
        &mut self,
        op: u64,
        name: &'static str,
        spec: ExploreSpec,
        protocol: &P,
    ) -> Result<(ExploreRun, ExploreStats), String>
    where
        P: Protocol,
        P::Proc: Send + Sync,
    {
        self.t.set_op(op);
        let (w, seed, dir) = (self.w, self.seed, self.dir);
        let run = self.t.span(name, |t| {
            let run = explore_run(w, &spec, protocol, seed, dir, false, || {})?.expect("measured");
            if let Some((a, b)) = run.connect {
                t.record("dist.connect", a, b);
            }
            t.record(
                if spec.shards > 0 {
                    "dist.coordinate"
                } else {
                    "engine.explore"
                },
                run.call.0,
                run.call.1,
            );
            Ok::<_, String>(run)
        })?;
        let (outcome, stats) = run.result.clone()?;
        let got = Pin::of(&outcome, &stats);
        if got != self.spec.pin {
            self.failures.push(format!(
                "{name}: {got:?} differs from the pin {:?}",
                self.spec.pin
            ));
        }
        Ok((run, stats))
    }
}

impl RowVisitor for ExploreLayers<'_> {
    type Output = Result<f64, String>;

    fn visit<P>(&mut self, _: &RowSpec, protocol: P) -> Result<f64, String>
    where
        P: Protocol,
        P::Proc: Send + Sync,
    {
        let spec = self.spec;
        // Operation 0: the workload's own exploration.
        let cpu0 = cpu_now();
        let (run, stats) = self.traced_run(0, "op", spec, &protocol)?;
        let wall = run.wall_s();
        let cpu = cpu_now() - cpu0;
        let m = &mut *self.m;
        m.insert("engine.cpu_util", cpu / (wall * PARALLELISM));
        m.insert(
            "engine.peak_resident_bytes",
            stats.peak_resident_bytes as f64,
        );
        m.insert("engine.configs", stats.configs as f64);
        m.insert("engine.frontier_peak", stats.frontier_peak as f64);
        m.insert("engine.depth_reached", stats.depth_reached as f64);
        m.insert(
            "model.intern_resident_bytes",
            stats.intern_resident_bytes as f64,
        );
        m.insert("fpset.disk_bytes", stats.fpset_disk_bytes as f64);
        m.insert(
            "fpset.seen_resident_bytes",
            stats.seen_resident_bytes as f64,
        );
        m.insert("frontier.bytes_spilled", stats.bytes_spilled as f64);
        m.insert("snapshot.checkpoint_bytes", stats.checkpoint_bytes as f64);
        m.insert("snapshot.checkpoint_ms", stats.checkpoint_ms as f64);
        m.insert("dist.frames", stats.frames_exchanged as f64);
        m.insert("dist.frame_bytes", stats.frame_bytes as f64);
        m.insert(
            "dist.bytes_per_config",
            stats.frame_bytes as f64 / stats.configs as f64,
        );
        m.insert(
            "dist.connect_ms",
            run.connect
                .map_or(0.0, |(a, b)| (b - a).as_secs_f64() * 1e3),
        );
        m.insert("frontier.spill_slowdown", 1.0);
        let root = self
            .t
            .spans()
            .iter()
            .rposition(|s| s.name == "op")
            .expect("op span");
        let own = self_times(self.t.spans())[root] as f64;
        m.insert(
            "bench.unattributed_frac",
            own / self.t.spans()[root].dur_ns() as f64,
        );

        // Operation 1: the same inputs on the single-process engine at 1 worker.
        let w1 = ExploreSpec {
            workers: 1,
            shards: 0,
            ..spec
        };
        let w1_s = self.traced_run(1, "engine.w1", w1, &protocol)?.0.wall_s();
        self.m.insert("engine.w1_s", w1_s);
        self.m.insert("engine.speedup_w2", w1_s / wall);
        if spec.budget.is_some() {
            // Operation 2: the same run without the budget.
            let unbounded = ExploreSpec {
                budget: None,
                ..spec
            };
            let free_s = self
                .traced_run(2, "frontier.unbounded", unbounded, &protocol)?
                .0
                .wall_s();
            self.m.insert("frontier.spill_slowdown", wall / free_s);
        }
        if spec.shards > 0 {
            // Operation 3: one shard process.
            let one = ExploreSpec { shards: 1, ..spec };
            let s1 = self.traced_run(3, "dist.s1", one, &protocol)?.0.wall_s();
            self.m.insert("dist.speedup_s2", s1 / wall);
            self.m.insert("dist.vs_engine_w1", w1_s / wall);
        }

        self.t.set_op(4);
        let inputs = explore_inputs(self.seed, spec.n);
        let mut acc = ModelAcc::default();
        model_sample(self.t, &protocol, &inputs, SAMPLE_STATES, &mut acc)?;
        acc.report(self.m);
        self.t.set_op(5);
        claim_micro(self.t, self.m, spec.limits().max_configs, stats.configs);
        self.t.set_op(6);
        fpset_micro(
            self.t,
            self.m,
            stats.configs,
            spec.budget,
            self.dir,
            self.failures,
        )?;
        Ok(wall)
    }
}

// ---------------------------------------------------------------------------
// Conformance
// ---------------------------------------------------------------------------

/// What the re-issued backend calls add up to across scenarios.
#[derive(Default)]
struct ConfAcc {
    configs: usize,
    frontier_peak: usize,
    depth_reached: usize,
    peak_resident_bytes: usize,
    intern_resident_bytes: usize,
    max_scenario_configs: usize,
    frames: u64,
    frame_bytes: u64,
    sharded_configs: usize,
    trace_frames: Vec<f64>,
    findings: usize,
}

fn conformance_layers(
    seed: u64,
    dir: &Path,
    t: &mut Tracer,
    m: &mut Metrics,
    failures: &mut Vec<String>,
) -> Result<f64, String> {
    let cfg = conformance_config(seed);
    let scenarios = scenarios(seed);
    let mut acc = ConfAcc::default();
    let cpu0 = cpu_now();
    for s in &scenarios {
        t.set_op(s.index as u64);
        let before = acc.findings;
        t.span("scenario", |t| {
            let mut visitor = ConfLayers {
                s,
                cfg: &cfg,
                t,
                acc: &mut acc,
            };
            visit_row(s.row, s.n, &mut visitor).expect("generated rows are registered")
        });
        if acc.findings > before {
            failures.push(format!(
                "scenario {} ({}): {} findings",
                s.index,
                s.row,
                acc.findings - before
            ));
        }
    }
    let wall = t.total_s("scenario");
    let cpu = cpu_now() - cpu0;
    let pin = conformance_pin(seed)?;
    if acc.configs != pin {
        failures.push(format!(
            "configs_explored {} differs from its pin {pin}",
            acc.configs
        ));
    }

    let med = |name: &str| median(&t.durations_ms(name));
    let per_scenario = [
        ("reference.ms", "reference"),
        ("sim.sched_ms", "sim.sched"),
        ("sync.threaded_ms", "sync.threaded"),
        ("sync.traced_ms", "sync.traced"),
        ("conformance.explore_ms", "conformance.explore"),
        ("conformance.explorer_w2_ms", "conformance.explorer_w2"),
        ("conformance.dist_ms", "conformance.dist"),
        ("conformance.symmetry_ms", "conformance.symmetry"),
    ];
    for (metric, span) in per_scenario {
        m.insert(metric, med(span));
    }
    let explore_s = t.total_s("conformance.explore");
    m.insert("engine.w1_s", explore_s);
    m.insert(
        "engine.speedup_w2",
        explore_s / t.total_s("conformance.explorer_w2"),
    );
    m.insert("engine.cpu_util", cpu / (wall * PARALLELISM));
    m.insert("engine.peak_resident_bytes", acc.peak_resident_bytes as f64);
    m.insert("engine.configs", acc.configs as f64);
    m.insert("engine.frontier_peak", acc.frontier_peak as f64);
    m.insert("engine.depth_reached", acc.depth_reached as f64);
    m.insert(
        "model.intern_resident_bytes",
        acc.intern_resident_bytes as f64,
    );
    m.insert("frontier.spill_slowdown", 1.0);
    m.insert("dist.frames", acc.frames as f64);
    m.insert("dist.frame_bytes", acc.frame_bytes as f64);
    m.insert(
        "dist.bytes_per_config",
        acc.frame_bytes as f64 / acc.sharded_configs as f64,
    );
    m.insert(
        "dist.speedup_s2",
        t.total_s("dist.s1") / t.total_s("dist.s2"),
    );
    m.insert("dist.vs_engine_w1", explore_s / t.total_s("dist.s2"));
    m.insert(
        "sync.trace_overhead",
        t.total_s("sync.traced") / t.total_s("sync.threaded"),
    );
    m.insert("sync.trace_frames", median(&acc.trace_frames));
    m.insert("conformance.configs_explored", acc.configs as f64);
    m.insert("conformance.findings", acc.findings as f64);
    let own = self_times(t.spans());
    let (mut self_ns, mut total_ns) = (0u64, 0u64);
    for (s, own) in t.spans().iter().zip(own) {
        if s.name == "scenario" {
            self_ns += own;
            total_ns += s.dur_ns();
        }
    }
    m.insert("bench.unattributed_frac", self_ns as f64 / total_ns as f64);

    let mut model = ModelAcc::default();
    for s in scenarios.iter().take(SAMPLE_SCENARIOS) {
        t.set_op((scenarios.len() + s.index) as u64);
        let mut visitor = SampleScenario {
            s,
            t: &mut *t,
            acc: &mut model,
        };
        visit_row(s.row, s.n, &mut visitor).expect("generated rows are registered")?;
    }
    model.report(m);
    t.set_op(2 * scenarios.len() as u64);
    claim_micro(t, m, cfg.max_configs, acc.max_scenario_configs);
    fpset_micro(
        t,
        m,
        acc.max_scenario_configs,
        cfg.memory_budget,
        dir,
        failures,
    )?;
    Ok(wall)
}

/// One scenario's backend calls, as `run_scenario` makes them, each in
/// its own span and each checked as the oracle checks it.
struct ConfLayers<'a> {
    s: &'a Scenario,
    cfg: &'a ConformanceConfig,
    t: &'a mut Tracer,
    acc: &'a mut ConfAcc,
}

impl RowVisitor for ConfLayers<'_> {
    type Output = ();

    fn visit<P>(&mut self, spec: &RowSpec, protocol: P)
    where
        P: Protocol,
        P::Proc: Send + Sync,
    {
        let (s, cfg) = (self.s, self.cfg);
        let t = &mut *self.t;
        let acc = &mut *self.acc;
        let inputs = derive_inputs(s, protocol.domain());
        let script = derive_schedule(s);
        let limits = ExploreLimits {
            depth: s.depth,
            max_configs: cfg.max_configs,
            solo_check_budget: None,
            memory_budget: cfg.memory_budget,
            checkpoint_every: None,
        };
        let mut findings = 0;

        let Ok(engine) = t.span("conformance.explore", |_| {
            explore_stats(&protocol, &inputs, limits)
        }) else {
            acc.findings += 1;
            return;
        };
        let stats = engine.1;
        acc.configs += stats.configs;
        acc.max_scenario_configs = acc.max_scenario_configs.max(stats.configs);
        acc.frontier_peak = acc.frontier_peak.max(stats.frontier_peak);
        acc.depth_reached = acc.depth_reached.max(stats.depth_reached);
        acc.peak_resident_bytes = acc.peak_resident_bytes.max(stats.peak_resident_bytes);
        acc.intern_resident_bytes = acc.intern_resident_bytes.max(stats.intern_resident_bytes);
        findings += engine.0.schedule().is_some() as usize;

        let reference = t.span("reference", |_| {
            reference_explore(&protocol, &inputs, limits)
        });
        findings += (reference.as_ref() != Ok(&engine)) as usize;

        let workers = cfg.explorer_workers;
        let parallel = t.span("conformance.explorer_w2", |_| {
            Explorer::new()
                .workers(workers)
                .limits(limits)
                .explore_stats(&protocol, &inputs)
        });
        findings += (parallel.as_ref() != Ok(&engine)) as usize;

        t.span("conformance.dist", |t| {
            for (name, shards) in [("dist.s1", cfg.shards), ("dist.s2", 2 * cfg.shards)] {
                let dist = DistConfig {
                    shards,
                    workers,
                    symmetric: false,
                };
                match t.span(name, |_| explore_sharded(&protocol, &inputs, limits, dist)) {
                    Ok(sharded) => {
                        acc.frames += sharded.1.frames_exchanged;
                        acc.frame_bytes += sharded.1.frame_bytes;
                        acc.sharded_configs += sharded.1.configs;
                        findings += (sharded != engine) as usize;
                    }
                    Err(_) => findings += 1,
                }
            }
        });

        if cfg.symmetry && spec.anonymous {
            t.span("conformance.symmetry", |_| {
                let reduced = |w| {
                    Explorer::new()
                        .workers(w)
                        .limits(limits)
                        .symmetry_reduction(true)
                        .explore_stats(&protocol, &inputs)
                };
                match (reduced(1), reduced(workers.max(2))) {
                    (Ok(a), Ok(b)) => {
                        findings += (a != b) as usize;
                        findings += (a.0.is_clean() != engine.0.is_clean()) as usize;
                        findings += (a.1.configs > stats.configs) as usize;
                    }
                    _ => findings += 1,
                }
            });
        }

        let bound = spec.space.map(|f| f(s.n));
        let bad = |r: &ConsensusReport| {
            r.check(&inputs).is_err() || bound.is_some_and(|b| r.locations_touched > b)
        };
        let steps = script.len() as u64;
        let sched = t.span("sim.sched", |t| {
            [
                t.span("sim.scripted", |_| {
                    adversarial_then_solo(
                        &protocol,
                        &inputs,
                        ScriptedScheduler::new(script.clone()),
                        steps,
                        SOLO_BUDGET,
                    )
                }),
                t.span("sim.round_robin", |_| {
                    adversarial_then_solo(
                        &protocol,
                        &inputs,
                        RoundRobinScheduler::new(),
                        steps,
                        SOLO_BUDGET,
                    )
                }),
                t.span("sim.random", |_| {
                    adversarial_then_solo(
                        &protocol,
                        &inputs,
                        RandomScheduler::seeded(s.sched_seed),
                        steps,
                        SOLO_BUDGET,
                    )
                }),
            ]
        });
        findings += sched
            .iter()
            .filter(|r| r.as_ref().map_or(true, bad))
            .count();

        if cfg.threaded {
            let threaded = t.span("sync.threaded", |_| {
                run_threaded_bounded(&protocol, &inputs, THREAD_BUDGET)
            });
            findings += threaded.map_or(true, |o| bad(&o.report)) as usize;
        }
        if cfg.trace {
            match t.span("sync.traced", |_| {
                run_threaded_traced(&protocol, &inputs, THREAD_BUDGET)
            }) {
                Ok(traced) => {
                    acc.trace_frames.push(traced.trace.len() as f64);
                    findings += bad(&traced.report) as usize;
                    let replay_ok = t.span("conformance.trace_replay", |_| {
                        CompactTrace::from_bytes(&traced.trace.to_bytes()).as_ref()
                            == Ok(&traced.trace)
                            && trace_divergence(&protocol, &inputs, &traced.trace, &traced.report)
                                .is_none()
                    });
                    findings += !replay_ok as usize;
                }
                Err(_) => findings += 1,
            }
        }
        acc.findings += findings;
    }
}

/// Model-layer sample of one scenario's state space.
struct SampleScenario<'a> {
    s: &'a Scenario,
    t: &'a mut Tracer,
    acc: &'a mut ModelAcc,
}

impl RowVisitor for SampleScenario<'_> {
    type Output = Result<(), String>;

    fn visit<P>(&mut self, _: &RowSpec, protocol: P) -> Result<(), String>
    where
        P: Protocol,
        P::Proc: Send + Sync,
    {
        let inputs = derive_inputs(self.s, protocol.domain());
        model_sample(
            self.t,
            &protocol,
            &inputs,
            SAMPLE_STATES_PER_SCENARIO,
            self.acc,
        )
    }
}

// ---------------------------------------------------------------------------
// Micro-benchmarks
// ---------------------------------------------------------------------------

/// Nanoseconds and call counts of the model-layer sample.
#[derive(Default)]
struct ModelAcc {
    branch: (u64, u64),
    digest: (u64, u64),
    encode: (u64, u64),
    apply: (u64, u64),
    delta_bytes: u64,
}

impl ModelAcc {
    fn report(&self, m: &mut Metrics) {
        let per = |(ns, n): (u64, u64)| ns as f64 / n.max(1) as f64;
        m.insert("model.branch_step_ns", per(self.branch));
        m.insert("model.edge_digest_ns", per(self.digest));
        m.insert("model.delta_encode_ns", per(self.encode));
        m.insert("model.delta_apply_ns", per(self.apply));
        m.insert(
            "model.delta_bytes",
            self.delta_bytes as f64 / self.encode.1.max(1) as f64 * SAMPLE_REPS as f64,
        );
    }
}

/// Times the packed model's branch step, edge digest and delta codec over
/// a breadth-first sample of up to `max_states` distinct states, with a
/// warm worker-local cache as the engine's workers have.
fn model_sample<P: Protocol>(
    t: &mut Tracer,
    protocol: &P,
    inputs: &[u64],
    max_states: usize,
    acc: &mut ModelAcc,
) -> Result<(), String> {
    let machine = Machine::start(protocol, inputs).map_err(|e| e.to_string())?;
    let ctx = machine.packed_ctx();
    let mut states = vec![machine.pack(&ctx)];
    let mut parents = vec![0];
    let mut seen = HashSet::from([ctx.digest(&states[0], false)]);
    let mut edges = Vec::new();
    let mut next = 0;
    while next < states.len() {
        let active: Vec<usize> = (0..states[next].n())
            .filter(|&p| ctx.is_active(&states[next], p))
            .collect();
        for pid in active {
            edges.push((next, pid));
            if states.len() < max_states {
                let child = ctx
                    .branch_step(&states[next], pid)
                    .map_err(|e| e.to_string())?;
                if seen.insert(ctx.digest(&child, false)) {
                    states.push(child);
                    parents.push(next);
                }
            }
        }
        next += 1;
    }
    let bases: Vec<u128> = states.iter().map(|s| ctx.digest(s, false)).collect();
    let mut cache = PackedCache::new();
    for &(i, pid) in &edges {
        black_box(ctx.branch_step_cached(&mut cache, &states[i], pid).ok());
        black_box(
            ctx.edge_digest_cached(&mut cache, &states[i], pid, bases[i], false)
                .ok(),
        );
    }
    let calls = (SAMPLE_REPS * edges.len()) as u64;
    let (_, ns) = t.timed("model.branch_step", |_| {
        for _ in 0..SAMPLE_REPS {
            for &(i, pid) in &edges {
                black_box(ctx.branch_step_cached(&mut cache, &states[i], pid).ok());
            }
        }
    });
    acc.branch = (acc.branch.0 + ns, acc.branch.1 + calls);
    let (_, ns) = t.timed("model.edge_digest", |_| {
        for _ in 0..SAMPLE_REPS {
            for &(i, pid) in &edges {
                black_box(
                    ctx.edge_digest_cached(&mut cache, &states[i], pid, bases[i], false)
                        .ok(),
                );
            }
        }
    });
    acc.digest = (acc.digest.0 + ns, acc.digest.1 + calls);

    let pairs = states.len() - 1;
    let mut deltas = vec![Vec::new(); pairs];
    let calls = (SAMPLE_REPS * pairs) as u64;
    let (_, ns) = t.timed("model.delta_encode", |_| {
        for _ in 0..SAMPLE_REPS {
            for (k, delta) in deltas.iter_mut().enumerate() {
                delta.clear();
                encode_delta(&states[parents[k + 1]], &states[k + 1], delta);
            }
        }
    });
    acc.encode = (acc.encode.0 + ns, acc.encode.1 + calls);
    acc.delta_bytes += deltas.iter().map(|d| d.len() as u64).sum::<u64>();
    let (ok, ns) = t.timed("model.delta_apply", |_| {
        let mut ok = true;
        for _ in 0..SAMPLE_REPS {
            for (k, delta) in deltas.iter().enumerate() {
                ok &= black_box(apply_delta(&states[parents[k + 1]], delta)).is_ok();
            }
        }
        ok
    });
    acc.apply = (acc.apply.0 + ns, acc.apply.1 + calls);
    let exact = deltas
        .iter()
        .enumerate()
        .all(|(k, d)| apply_delta(&states[parents[k + 1]], d).as_ref() == Ok(&states[k + 1]));
    if ok && exact {
        Ok(())
    } else {
        Err("a delta did not apply back to its child state".into())
    }
}

/// `n` pseudo-random fingerprints, as the engine's digests are.
fn fingerprints(n: usize, seed: u64) -> Vec<u128> {
    let mut state = seed;
    (0..n)
        .map(|_| (u128::from(splitmix(&mut state)) << 64) | u128::from(splitmix(&mut state)))
        .collect()
}

/// `ClaimTable::new` at the workload's config cap, then two threads racing
/// to claim, and then to admit, the same `n` fingerprints.
fn claim_micro(t: &mut Tracer, m: &mut Metrics, cap: usize, n: usize) {
    let (table, ns) = t.timed("claim.new", |_| ClaimTable::new(cap));
    m.insert("claim.new_ms", ms(ns));
    m.insert("claim.resident_bytes", table.resident_bytes() as f64);
    let fps = fingerprints(n.max(1), 0xC1A1);
    let race = |op: fn(&ClaimTable, u128) -> bool| -> f64 {
        let start = Barrier::new(2);
        let busy_ns: u128 = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|k| {
                    let (fps, table, start) = (&fps, &table, &start);
                    scope.spawn(move || {
                        start.wait();
                        let t0 = Instant::now();
                        for i in 0..fps.len() {
                            black_box(op(table, fps[(i + k * fps.len() / 2) % fps.len()]));
                        }
                        t0.elapsed().as_nanos()
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().expect("racer does not panic"))
                .sum()
        });
        busy_ns as f64 / (2 * fps.len()) as f64
    };
    let claim_ns = t.span("claim.claim", |_| race(ClaimTable::claim));
    let admit_ns = t.span("claim.admit", |_| race(ClaimTable::admit));
    m.insert("claim.claim_ns", claim_ns);
    m.insert("claim.admit_ns", admit_ns);
}

/// The tiered seen set under the workload's budget: admit `n`
/// fingerprints, then probe as many, half of them absent.
fn fpset_micro(
    t: &mut Tracer,
    m: &mut Metrics,
    n: usize,
    budget: Option<usize>,
    dir: &Path,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let n = n.max(2);
    let fps = fingerprints(n, 0xF95E7);
    let absent = fingerprints(n / 2, 0xAB5E);
    std::fs::create_dir(spill_dir(dir)).map_err(|e| format!("create spill dir: {e}"))?;
    let set = FpSet::new(n, SpillContext::new(budget));
    let (admitted, ns) = t.timed("fpset.admit", |_| {
        fps.iter().try_for_each(|&fp| set.admit(fp).map(drop))
    });
    admitted.map_err(|e| format!("fpset admit: {e}"))?;
    m.insert("fpset.admit_ns", ns as f64 / n as f64);
    let (hits, ns) = t.timed("fpset.contains", |_| {
        let mut hits = 0;
        for (present, gone) in fps.iter().zip(&absent) {
            hits += set.contains(*present).unwrap_or(false) as usize;
            hits += set.contains(*gone).unwrap_or(true) as usize;
        }
        hits
    });
    m.insert("fpset.contains_ns", ns as f64 / (2 * absent.len()) as f64);
    if hits != absent.len() {
        failures.push(format!(
            "fpset membership wrong: {hits} hits, {} expected",
            absent.len()
        ));
    }
    drop(set);
    std::fs::remove_dir(spill_dir(dir)).map_err(|e| format!("fpset spill dir not left empty: {e}"))
}

/// The frame codec at the sharded run's mean frame size.
fn frame_micro(t: &mut Tracer, m: &mut Metrics, failures: &mut Vec<String>) {
    let mut state = 0xF4A3E;
    let payload: Vec<u8> = (0..FRAME_PAYLOAD)
        .map(|_| splitmix(&mut state) as u8)
        .collect();
    let reps = FRAME_VOLUME / FRAME_PAYLOAD;
    let kb = (reps * FRAME_PAYLOAD) as f64 / 1024.0;
    let mut wire = Vec::new();
    let (_, ns) = t.timed("model.frame_encode", |_| {
        for _ in 0..reps {
            wire.clear();
            encode_frame(3, &payload, &mut wire);
            black_box(&wire);
        }
    });
    m.insert("model.frame_encode_ns_per_kb", ns as f64 / kb);
    let mut reader = FrameReader::new();
    let (decoded, ns) = t.timed("model.frame_decode", |_| {
        (0..reps).all(|_| {
            reader.push(&wire);
            matches!(reader.next_frame(), Ok(Some((3, p))) if p.len() == FRAME_PAYLOAD)
        })
    });
    m.insert("model.frame_decode_ns_per_kb", ns as f64 / kb);
    reader.push(&wire);
    if !decoded || !matches!(reader.next_frame(), Ok(Some((3, p))) if p == payload) {
        failures.push("frame codec did not round-trip".into());
    }
}
