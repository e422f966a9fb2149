//! The four workloads: what each runs, the inputs a seed gives it, the
//! values every run is checked against, and the measured operation itself.

use crate::sys::{usage, Who};
use cbh_conformance::{run_scenario, ConformanceConfig, Scenario, ScenarioGen};
use cbh_core::registry::{visit_row, RowSpec, RowVisitor};
use cbh_model::Protocol;
use cbh_verify::checker::{explore_stats, ExploreLimits, ExploreOutcome, ExploreStats, Explorer};
use cbh_verify::dist::{accept_shards, coordinate, shard_serve, DistConfig};
use std::io::Read;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// A named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One deep exploration, all in memory.
    DeepExplore,
    /// One exploration under a hard memory budget, with checkpoints.
    BudgetedExplore,
    /// One exploration split across shard processes.
    ShardedExplore,
    /// Many small scenarios through the differential oracle.
    ConformanceFuzz,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::DeepExplore,
        Workload::BudgetedExplore,
        Workload::ShardedExplore,
        Workload::ConformanceFuzz,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeepExplore => "deep_explore",
            Workload::BudgetedExplore => "budgeted_explore",
            Workload::ShardedExplore => "sharded_explore",
            Workload::ConformanceFuzz => "conformance_fuzz",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The exploration an explore workload runs; `None` for
    /// `conformance_fuzz`.
    pub fn explore(self) -> Option<ExploreSpec> {
        let maxreg = ExploreSpec {
            row: "maxreg",
            n: 4,
            depth: 24,
            workers: 2,
            shards: 0,
            budget: None,
            checkpoint: false,
            pin: Pin {
                verdict: "clean-partial",
                configs: 957_439,
                frontier_peak: 212_225,
                depth_reached: 24,
            },
        };
        match self {
            Workload::DeepExplore => Some(maxreg),
            Workload::BudgetedExplore => Some(ExploreSpec {
                row: "tas-reset",
                depth: 20,
                budget: Some(BUDGET_BYTES),
                checkpoint: true,
                pin: Pin {
                    verdict: "clean-partial",
                    configs: 123_723,
                    frontier_peak: 37_237,
                    depth_reached: 20,
                },
                ..maxreg
            }),
            Workload::ShardedExplore => Some(ExploreSpec {
                depth: 20,
                workers: 1,
                shards: 2,
                pin: Pin {
                    verdict: "clean-partial",
                    configs: 308_452,
                    frontier_peak: 82_301,
                    depth_reached: 20,
                },
                ..maxreg
            }),
            Workload::ConformanceFuzz => None,
        }
    }
}

/// `budgeted_explore`'s memory budget: a constant (a tenth of the unbounded
/// run's tracked resident peak of 122,442,832 bytes when it was chosen), so
/// a change that shrinks the peak cannot also shrink the workload.
pub const BUDGET_BYTES: usize = 12_200_000;

/// Scenarios in one `conformance_fuzz` run: enough that p99 has ten
/// samples beyond it.
pub const CONF_SCENARIOS: usize = 1000;

/// Values an exploration must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// [`verdict`] of the outcome.
    pub verdict: &'static str,
    /// Admitted configurations.
    pub configs: usize,
    /// Widest breadth-first layer.
    pub frontier_peak: usize,
    /// Layers fully expanded.
    pub depth_reached: usize,
}

impl Pin {
    /// The pin an exploration's result would take.
    pub fn of(outcome: &ExploreOutcome, stats: &ExploreStats) -> Pin {
        Pin {
            verdict: verdict(outcome),
            configs: stats.configs,
            frontier_peak: stats.frontier_peak,
            depth_reached: stats.depth_reached,
        }
    }
}

/// A stable one-word name for an outcome.
pub fn verdict(outcome: &ExploreOutcome) -> &'static str {
    match outcome {
        ExploreOutcome::Clean { complete: true, .. } => "clean-complete",
        ExploreOutcome::Clean { .. } => "clean-partial",
        ExploreOutcome::AgreementViolation { .. } => "agreement-violation",
        ExploreOutcome::ValidityViolation { .. } => "validity-violation",
        ExploreOutcome::ObstructionFailure { .. } => "obstruction-failure",
    }
}

/// The fixed shape of one explore workload.
#[derive(Debug, Clone, Copy)]
pub struct ExploreSpec {
    /// Registry row (`cbh_core::registry`).
    pub row: &'static str,
    /// Process count.
    pub n: usize,
    /// Depth limit.
    pub depth: usize,
    /// Engine workers, or workers per shard when sharded.
    pub workers: usize,
    /// Shard processes; `0` runs the single-process engine.
    pub shards: usize,
    /// Memory budget in bytes.
    pub budget: Option<usize>,
    /// Write checkpoints to the run's own path.
    pub checkpoint: bool,
    /// What every run must reproduce.
    pub pin: Pin,
}

impl ExploreSpec {
    /// The limits the engine runs under (default config cap).
    pub fn limits(&self) -> ExploreLimits {
        ExploreLimits {
            depth: self.depth,
            memory_budget: self.budget,
            ..ExploreLimits::default()
        }
    }
}

/// SplitMix64: the benchmark's own seeded stream.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inputs `0..n`, assigned to pids in a seed-chosen order. Every
/// permutation of distinct inputs explores the same number of
/// configurations, so one pin serves every seed (and the per-run pin check
/// asserts exactly that).
pub fn explore_inputs(seed: u64, n: usize) -> Vec<u64> {
    let mut inputs: Vec<u64> = (0..n as u64).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        inputs.swap(i, j);
    }
    inputs
}

/// CI's conformance configuration, two explorer workers, the sharded
/// backend at 1 and 2 shards, trace capture on; the seed is the master seed.
pub fn conformance_config(seed: u64) -> ConformanceConfig {
    ConformanceConfig {
        master_seed: seed,
        scenarios: CONF_SCENARIOS,
        explorer_workers: 2,
        shards: 1,
        trace: true,
        ..ConformanceConfig::default()
    }
}

/// The scenarios one `conformance_fuzz` run executes.
pub fn scenarios(seed: u64) -> Vec<Scenario> {
    ScenarioGen::new(seed).take(CONF_SCENARIOS).collect()
}

/// Pinned `configs_explored` of the first [`CONF_SCENARIOS`] scenarios for
/// master seeds `0..64`, taken once with the 1-worker engine (`perfbench
/// --pin`).
const CONF_PINS: [usize; 64] = [
    112_350, 110_723, 111_066, 116_179, 116_066, 115_634, 112_417, 108_804, 111_778, 111_093,
    111_124, 116_385, 109_773, 115_516, 113_692, 112_997, 116_861, 108_784, 112_349, 112_061,
    113_184, 117_040, 110_331, 113_139, 113_425, 113_862, 113_755, 116_189, 111_848, 115_256,
    111_863, 118_457, 114_438, 114_444, 112_764, 113_112, 113_561, 114_586, 114_623, 111_741,
    113_629, 109_753, 110_232, 113_507, 112_672, 114_922, 115_395, 111_600, 114_579, 109_739,
    112_884, 111_821, 113_163, 109_710, 111_749, 114_231, 115_043, 116_390, 112_353, 113_240,
    113_889, 110_583, 110_608, 115_184,
];

/// The configurations the 1-worker engine admits over `scenarios` — the
/// figure `run_scenario` reports as its `configs`.
pub fn engine_configs(scenarios: &[Scenario]) -> Result<usize, String> {
    struct Count<'a>(&'a Scenario);
    impl RowVisitor for Count<'_> {
        type Output = Result<usize, String>;
        fn visit<P>(&mut self, _: &RowSpec, protocol: P) -> Result<usize, String>
        where
            P: Protocol,
            P::Proc: Send + Sync,
        {
            let inputs = cbh_conformance::scenario::derive_inputs(self.0, protocol.domain());
            let limits = ExploreLimits {
                depth: self.0.depth,
                max_configs: ConformanceConfig::default().max_configs,
                ..ExploreLimits::default()
            };
            explore_stats(&protocol, &inputs, limits)
                .map(|(_, stats)| stats.configs)
                .map_err(|e| e.to_string())
        }
    }
    scenarios.iter().try_fold(0, |sum, s| {
        visit_row(s.row, s.n, &mut Count(s))
            .expect("generated rows are registered")
            .map(|c| sum + c)
    })
}

/// The `configs_explored` a run with master seed `seed` must report: the
/// checked-in pin where one exists, else taken now with the 1-worker engine.
pub fn conformance_pin(seed: u64) -> Result<usize, String> {
    match usize::try_from(seed).ok().and_then(|i| CONF_PINS.get(i)) {
        Some(&pin) => Ok(pin),
        None => engine_configs(&scenarios(seed)),
    }
}

// ---------------------------------------------------------------------------
// Per-run paths
// ---------------------------------------------------------------------------

/// The run's spill directory (`CBH_SPILL_DIR`) inside its own directory.
pub fn spill_dir(dir: &Path) -> PathBuf {
    dir.join("spill")
}

fn socket_path(dir: &Path) -> PathBuf {
    dir.join("shards.sock")
}

fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("explore.ckpt")
}

/// Removes the run's checkpoint, socket and spill directory. A spill
/// directory the engine left files in is an error, not something to sweep.
fn clean_run_paths(dir: &Path) -> Result<(), String> {
    for file in [checkpoint_path(dir), socket_path(dir)] {
        match std::fs::remove_file(&file) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("remove {}: {e}", file.display()))
            }
            _ => {}
        }
    }
    std::fs::remove_dir(spill_dir(dir)).map_err(|e| format!("spill dir not left empty: {e}"))
}

/// Prints one `key value` line of a child's report.
pub fn emit(key: &str, value: impl std::fmt::Display) {
    println!("{key} {value}");
}

/// Tells the parent that set-up is over: the next thing is the timed call.
fn ready() {
    println!("ready");
}

// ---------------------------------------------------------------------------
// Explorations
// ---------------------------------------------------------------------------

/// Shard processes connected to this process's coordinator.
struct ShardProcs {
    children: Vec<Child>,
    streams: Vec<UnixStream>,
}

impl ShardProcs {
    /// Spawns `spec.shards` shard processes of this binary and accepts
    /// their connections on the run's socket.
    fn spawn(w: Workload, spec: &ExploreSpec, seed: u64, dir: &Path) -> Result<ShardProcs, String> {
        let socket = socket_path(dir);
        let listener =
            UnixListener::bind(&socket).map_err(|e| format!("bind {}: {e}", socket.display()))?;
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let mut children = Vec::new();
        for shard in 0..spec.shards {
            let child = Command::new(&exe)
                .args([
                    "--shard",
                    &shard.to_string(),
                    "--shards",
                    &spec.shards.to_string(),
                ])
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .arg("--dir")
                .arg(dir)
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn shard: {e}"))?;
            children.push(child);
        }
        let streams =
            accept_shards(&listener, spec.shards).map_err(|e| format!("accept shards: {e}"))?;
        Ok(ShardProcs { children, streams })
    }

    /// Closes the coordinator's ends, reaps every shard (even after one
    /// failed) and sums their peak resident sets (kB).
    fn finish(self) -> Result<u64, String> {
        drop(self.streams);
        let mut rss_kb = 0;
        let mut error = None;
        for mut child in self.children {
            let mut out = String::new();
            if let Some(mut stdout) = child.stdout.take() {
                let _ = stdout.read_to_string(&mut out);
            }
            let kb = match child.wait() {
                Ok(status) if status.success() => out
                    .strip_prefix("rss_kb ")
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .ok_or_else(|| format!("shard report unreadable: {out:?}")),
                Ok(status) => Err(format!("shard exited with {status}")),
                Err(e) => Err(format!("reap shard: {e}")),
            };
            match kb {
                Ok(kb) => rss_kb += kb,
                Err(e) => {
                    error.get_or_insert(e);
                }
            }
        }
        error.map_or(Ok(rss_kb), Err)
    }
}

/// One exploration, with the instants the traced run turns into spans.
pub struct ExploreRun {
    /// Spawning the shards until the last one connected.
    pub connect: Option<(Instant, Instant)>,
    /// The timed call.
    pub call: (Instant, Instant),
    /// What it returned.
    pub result: Result<(ExploreOutcome, ExploreStats), String>,
    /// Summed peak resident set of the shard processes.
    pub shard_rss_kb: u64,
}

impl ExploreRun {
    /// Seconds in the timed call.
    pub fn wall_s(&self) -> f64 {
        (self.call.1 - self.call.0).as_secs_f64()
    }
}

/// Sets up and runs one exploration of `spec`'s shape, on the inputs
/// `seed` gives, in `dir`; `ready` runs between set-up and the timed call.
/// With `setup_only` the timed call is skipped and `None` returned.
pub fn explore_run<P>(
    w: Workload,
    spec: &ExploreSpec,
    protocol: &P,
    seed: u64,
    dir: &Path,
    setup_only: bool,
    ready: impl FnOnce(),
) -> Result<Option<ExploreRun>, String>
where
    P: Protocol,
    P::Proc: Send + Sync,
{
    let inputs = &explore_inputs(seed, spec.n);
    std::fs::create_dir(spill_dir(dir)).map_err(|e| format!("create spill dir: {e}"))?;
    let mut connect = None;
    let mut shards = None;
    if spec.shards > 0 {
        let t = Instant::now();
        shards = Some(ShardProcs::spawn(w, spec, seed, dir)?);
        connect = Some((t, Instant::now()));
    }
    ready();
    if setup_only {
        if let Some(procs) = shards {
            procs.finish()?;
        }
        clean_run_paths(dir)?;
        return Ok(None);
    }
    let limits = spec.limits();
    let start = Instant::now();
    let result = match shards.as_mut() {
        Some(procs) => {
            let cfg = DistConfig {
                shards: spec.shards,
                workers: spec.workers,
                symmetric: false,
            };
            coordinate(
                protocol,
                inputs,
                limits,
                cfg,
                std::mem::take(&mut procs.streams),
            )
        }
        None => {
            let mut explorer = Explorer::new().workers(spec.workers).limits(limits);
            if spec.checkpoint {
                explorer = explorer.checkpoint_to(checkpoint_path(dir));
            }
            explorer.explore_stats(protocol, inputs)
        }
    }
    .map_err(|e| e.to_string());
    let call = (start, Instant::now());
    let shard_rss_kb = match shards {
        Some(procs) => procs.finish()?,
        None => 0,
    };
    clean_run_paths(dir)?;
    Ok(Some(ExploreRun {
        connect,
        call,
        result,
        shard_rss_kb,
    }))
}

/// Runs one measured operation of `w` as this process's only work and
/// reports it as `key value` lines.
pub fn run_op(w: Workload, seed: u64, dir: &Path, setup_only: bool) -> Result<(), String> {
    let Some(spec) = w.explore() else {
        return conformance_op(seed, dir, setup_only);
    };
    struct Op<'a> {
        w: Workload,
        spec: ExploreSpec,
        seed: u64,
        dir: &'a Path,
        setup_only: bool,
    }
    impl RowVisitor for Op<'_> {
        type Output = Result<(), String>;
        fn visit<P>(&mut self, _: &RowSpec, protocol: P) -> Result<(), String>
        where
            P: Protocol,
            P::Proc: Send + Sync,
        {
            let run = explore_run(
                self.w,
                &self.spec,
                &protocol,
                self.seed,
                self.dir,
                self.setup_only,
                ready,
            )?;
            let Some(run) = run else { return Ok(()) };
            let (outcome, stats) = run.result.as_ref().map_err(Clone::clone)?;
            let (me, shards) = (usage(Who::Process), usage(Who::Children));
            emit("wall_s", run.wall_s());
            emit("cpu_s", me.cpu_s + shards.cpu_s);
            emit("rss_mb", (me.maxrss_kb + run.shard_rss_kb) as f64 / 1024.0);
            let pin = Pin::of(outcome, stats);
            emit("verdict", pin.verdict);
            emit("configs", pin.configs);
            emit("frontier_peak", pin.frontier_peak);
            emit("depth_reached", pin.depth_reached);
            Ok(())
        }
    }
    let mut op = Op {
        w,
        spec,
        seed,
        dir,
        setup_only,
    };
    visit_row(spec.row, spec.n, &mut op).expect("workload rows are registered")
}

/// A shard process: serves the coordinator on the run's socket, then
/// reports its peak resident set.
pub fn run_shard(
    w: Workload,
    seed: u64,
    shard: usize,
    shards: usize,
    dir: &Path,
) -> Result<(), String> {
    let spec = ExploreSpec {
        shards,
        ..w.explore().ok_or("not an explore workload")?
    };
    struct Serve<'a> {
        spec: ExploreSpec,
        seed: u64,
        shard: usize,
        dir: &'a Path,
    }
    impl RowVisitor for Serve<'_> {
        type Output = Result<(), String>;
        fn visit<P>(&mut self, _: &RowSpec, protocol: P) -> Result<(), String>
        where
            P: Protocol,
            P::Proc: Send + Sync,
        {
            let inputs = explore_inputs(self.seed, self.spec.n);
            let sock =
                UnixStream::connect(socket_path(self.dir)).map_err(|e| format!("connect: {e}"))?;
            let cfg = DistConfig {
                shards: self.spec.shards,
                workers: self.spec.workers,
                symmetric: false,
            };
            shard_serve(
                &protocol,
                &inputs,
                self.spec.limits(),
                cfg,
                self.shard,
                sock,
            )
            .map_err(|e| e.to_string())
        }
    }
    let mut serve = Serve {
        spec,
        seed,
        shard,
        dir,
    };
    visit_row(spec.row, spec.n, &mut serve).expect("workload rows are registered")?;
    emit("rss_kb", usage(Who::Process).maxrss_kb);
    Ok(())
}

// ---------------------------------------------------------------------------
// Conformance
// ---------------------------------------------------------------------------

fn conformance_op(seed: u64, dir: &Path, setup_only: bool) -> Result<(), String> {
    std::fs::create_dir(spill_dir(dir)).map_err(|e| format!("create spill dir: {e}"))?;
    let cfg = conformance_config(seed);
    let scenarios = scenarios(seed);
    ready();
    if setup_only {
        return clean_run_paths(dir);
    }
    let mut lat_ms = Vec::with_capacity(scenarios.len());
    let (mut configs, mut findings, mut failed) = (0, 0, 0);
    let start = Instant::now();
    for scenario in &scenarios {
        let t = Instant::now();
        let outcome = run_scenario(scenario, &cfg);
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        configs += outcome.configs;
        if let Some(first) = outcome.findings.first() {
            eprintln!(
                "finding in scenario {}: {} {}",
                scenario.index, first.backend, first.detail
            );
            findings += outcome.findings.len();
            failed += 1;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let me = usage(Who::Process);
    clean_run_paths(dir)?;
    emit("wall_s", wall);
    emit("cpu_s", me.cpu_s);
    emit("rss_mb", me.maxrss_kb as f64 / 1024.0);
    emit("scenarios", scenarios.len());
    emit("configs", configs);
    emit("findings", findings);
    emit("failed", failed);
    let lat: Vec<String> = lat_ms.iter().map(f64::to_string).collect();
    emit("lat_ms", lat.join(","));
    Ok(())
}
