//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `README.md` beside this package) and prints, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A readable summary
//! of the same figures precedes it.
//!
//! Every measured operation runs in a child process of its own, so its CPU
//! time and peak resident set come from `getrusage` and no state carries
//! over between operations. Each child gets its own directory under
//! `.perfbench/` in the working directory for its spill files, checkpoint
//! and socket, and must leave it empty. The child modes (`--op`,
//! `--layers`, `--shard`) and the pin-taking mode (`--pin`) are internal.

mod layers;
mod spans;
mod stats;
mod sys;
mod workload;

use stats::{median, tail};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};
use workload::{Pin, Workload, CONF_SCENARIOS};

/// Fewest measured operations (processes) in one run, however long each
/// takes.
const MIN_OPS: usize = 3;
/// Set-up samples per run: measured operations plus set-up-only children.
const SETUP_SAMPLES: usize = 11;
/// A child still running after this is killed and counted as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(60);
/// The traced child runs several explorations and micro-benchmarks.
const LAYERS_TIMEOUT: Duration = Duration::from_secs(150);

/// One end-to-end metric: name and unit, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("configs_per_s", "1/s"),
    ("scenarios_per_s", "1/s"),
    ("scenario_p50_ms", "ms"),
    ("scenario_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("cpu_s", "s"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// `--key value` arguments; `--pin` and `--setup-only` stand alone.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            if !key.starts_with("--") {
                return Err(format!("unexpected argument {key:?}"));
            }
            let value = if key == "--pin" || key == "--setup-only" {
                String::new()
            } else {
                it.next()
                    .ok_or_else(|| format!("{key} needs a value"))?
                    .clone()
            };
            map.insert(key.clone(), value);
        }
        Ok(Args(map))
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.0.get(key).ok_or_else(|| format!("missing {key}"))?;
        raw.parse().map_err(|_| format!("bad {key} {raw:?}"))
    }

    fn workload(&self, key: &str) -> Result<Workload, String> {
        let name: String = self.get(key)?;
        Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    /// A child's run directory; also points the engine's spill arenas
    /// there (before any thread exists to race the environment).
    fn dir(&self) -> Result<PathBuf, String> {
        let dir: PathBuf = self.get("--dir")?;
        std::env::set_var("CBH_SPILL_DIR", workload::spill_dir(&dir));
        Ok(dir)
    }
}

fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    if args.has("--pin") {
        return take_pins();
    }
    if args.has("--shard") {
        let w = args.workload("--workload")?;
        return workload::run_shard(
            w,
            args.get("--seed")?,
            args.get("--shard")?,
            args.get("--shards")?,
            &args.dir()?,
        );
    }
    if args.has("--op") {
        let w = args.workload("--op")?;
        return workload::run_op(
            w,
            args.get("--seed")?,
            &args.dir()?,
            args.has("--setup-only"),
        );
    }
    if args.has("--layers") {
        let w = args.workload("--layers")?;
        return layers::run_layers(w, args.get("--seed")?, &args.dir()?);
    }
    let w = args.workload("--workload")?;
    let seed: u64 = args.get("--seed")?;
    let seconds: u64 = args.get("--seconds")?;
    let trace: u8 = args.get("--trace")?;
    if seconds == 0 || trace > 1 {
        return Err("--seconds must be at least 1 and --trace 0 or 1".into());
    }
    let base = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&base).map_err(|e| format!("create {}: {e}", base.display()))?;
    let report = if trace == 1 {
        traced(w, seed, &base)
    } else {
        untraced(w, seed, Duration::from_secs(seconds), &base)
    };
    std::fs::remove_dir(&base).map_err(|e| format!("run directory not left empty: {e}"))?;
    let _ = std::fs::remove_dir(".perfbench"); // kept when it holds spans
    report.print();
    Ok(())
}

// ---------------------------------------------------------------------------
// Children
// ---------------------------------------------------------------------------

/// What one child process reported.
struct ChildRun {
    /// Spawn until the child said `ready`.
    setup_s: f64,
    /// Its `key value` lines.
    fields: BTreeMap<String, String>,
    /// Why the child counts as failed, if it does.
    error: Option<String>,
}

impl ChildRun {
    fn num(&self, key: &str) -> Result<f64, String> {
        self.fields
            .get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("child reported no {key}"))
    }

    fn text(&self, key: &str) -> &str {
        self.fields.get(key).map_or("", String::as_str)
    }
}

/// Runs this binary with `args` in the fresh directory `dir`, which the
/// child must leave empty; kills it after `timeout`.
fn child(args: &[&str], dir: &Path, timeout: Duration) -> ChildRun {
    let mut run = ChildRun {
        setup_s: f64::NAN,
        fields: BTreeMap::new(),
        error: None,
    };
    if let Err(e) = std::fs::create_dir(dir) {
        run.error = Some(format!("create {}: {e}", dir.display()));
        return run;
    }
    let start = Instant::now();
    let spawned = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(args)
            .arg("--dir")
            .arg(dir)
            .stdout(Stdio::piped())
            .spawn()
    });
    let mut proc = match spawned {
        Ok(p) => p,
        Err(e) => {
            run.error = Some(format!("spawn: {e}"));
            return run;
        }
    };
    let stdout = proc.stdout.take().expect("stdout is piped");
    let proc = Mutex::new(proc);
    let (done, timer) = mpsc::channel::<()>();
    let timed_out = std::thread::scope(|scope| {
        let proc = &proc;
        let watchdog = scope.spawn(move || {
            let expired = timer.recv_timeout(timeout) == Err(mpsc::RecvTimeoutError::Timeout);
            if expired {
                let _ = proc.lock().expect("no panics while locked").kill();
            }
            expired
        });
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if line == "ready" {
                run.setup_s = start.elapsed().as_secs_f64();
            } else if let Some((key, value)) = line.split_once(' ') {
                run.fields.insert(key.to_string(), value.to_string());
            }
        }
        drop(done);
        watchdog.join().expect("watchdog does not panic")
    });
    let status = proc.into_inner().expect("no panics while locked").wait();
    run.error = match status {
        _ if timed_out => Some(format!("killed after {timeout:?}")),
        Ok(s) if !s.success() => Some(format!("child exited with {s}")),
        Err(e) => Some(format!("wait: {e}")),
        Ok(_) => None,
    };
    if let Err(e) = std::fs::remove_dir(dir) {
        let left: Vec<String> = std::fs::read_dir(dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        let _ = std::fs::remove_dir_all(dir);
        run.error
            .get_or_insert(format!("run directory not left empty ({e}): {left:?}"));
    }
    run
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// The final result of one benchmark run.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// Name, value, unit.
    metrics: Vec<(String, f64, String)>,
    /// Readable notes printed before the JSON line.
    notes: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Counts `ops` attempted operations, all failed unless `check` passed;
    /// returns whether it did.
    fn tally(&mut self, ops: usize, check: Result<(), String>) -> bool {
        self.attempted += ops;
        match check {
            Ok(()) => true,
            Err(why) => {
                eprintln!("perfbench: {ops} operation(s) failed: {why}");
                self.failed += ops;
                self.correct = false;
                false
            }
        }
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line. Values that could not be measured read 0.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        println!(
            "{:<32} {:>16.6} ({} of {} operations failed)",
            "failed_frac",
            self.failed_frac(),
            self.failed,
            self.attempted
        );
        for (name, value, unit) in &self.metrics {
            println!("{name:<32} {value:>16.6} {unit}");
        }
        println!("{}", self.json());
    }
}

/// Checks an explore child's result against `pin`.
fn check_pin(pin: Pin, run: &ChildRun) -> Result<(), String> {
    if let Some(e) = &run.error {
        return Err(e.clone());
    }
    let got = format!(
        "{} {} {} {}",
        run.text("verdict"),
        run.text("configs"),
        run.text("frontier_peak"),
        run.text("depth_reached")
    );
    let want = format!(
        "{} {} {} {}",
        pin.verdict, pin.configs, pin.frontier_peak, pin.depth_reached
    );
    if got != want {
        return Err(format!("result ({got}) differs from its pin ({want})"));
    }
    Ok(())
}

/// Checks a conformance batch: no findings and the pinned configuration count.
fn check_conformance(pin: &Result<usize, String>, run: &ChildRun) -> Result<(), String> {
    if let Some(e) = &run.error {
        return Err(e.clone());
    }
    let pin = *pin
        .as_ref()
        .map_err(|e| format!("no conformance pin: {e}"))?;
    let configs = run.num("configs")? as usize;
    if configs != pin {
        return Err(format!(
            "configs_explored {configs} differs from its pin {pin}"
        ));
    }
    if run.num("findings")? != 0.0 {
        return Err(format!("{} conformance findings", run.text("findings")));
    }
    Ok(())
}

/// What every operation of a workload must reproduce.
enum Expected {
    Explore(Pin),
    Conformance(Result<usize, String>),
}

impl Expected {
    /// Looked up (or, for an unpinned conformance seed, taken) before any
    /// timing starts.
    fn of(w: Workload, seed: u64) -> Expected {
        match w.explore() {
            Some(spec) => Expected::Explore(spec.pin),
            None => Expected::Conformance(workload::conformance_pin(seed)),
        }
    }

    /// Operations one `--op` child runs, and whether they passed.
    fn check(&self, run: &ChildRun) -> (usize, Result<(), String>) {
        match self {
            Expected::Explore(pin) => (1, check_pin(*pin, run)),
            Expected::Conformance(pin) => (CONF_SCENARIOS, check_conformance(pin, run)),
        }
    }
}

fn untraced(w: Workload, seed: u64, seconds: Duration, base: &Path) -> Report {
    let seed_s = seed.to_string();
    let op_args = ["--op", w.name(), "--seed", &seed_s];
    let mut next = 0;
    let mut dir = || {
        next += 1;
        base.join(format!("op{next}"))
    };
    let expected = Expected::of(w, seed);
    let mut report = Report::new();
    let mut setups = Vec::new();
    let mut good = Vec::new();
    // Operations repeat, each in a fresh process, while the next one is
    // expected to finish within the run's time.
    let start = Instant::now();
    let mut took = Vec::new();
    while took.len() < MIN_OPS
        || start.elapsed().as_secs_f64() + median(&took) <= seconds.as_secs_f64()
    {
        let t = Instant::now();
        let run = child(&op_args, &dir(), OP_TIMEOUT);
        took.push(t.elapsed().as_secs_f64());
        let (ops, check) = expected.check(&run);
        if report.tally(ops, check) {
            setups.push(run.setup_s);
            good.push(run);
        }
    }
    let mut setup_args = op_args.to_vec();
    setup_args.push("--setup-only");
    while setups.len() < SETUP_SAMPLES && report.correct {
        let run = child(&setup_args, &dir(), OP_TIMEOUT);
        match run.error {
            None => setups.push(run.setup_s),
            Some(why) => {
                report.tally(1, Err(why));
            }
        }
    }
    let nums = |key: &str| -> Vec<f64> { good.iter().filter_map(|r| r.num(key).ok()).collect() };
    let per_s = |key: &str| -> Vec<f64> {
        good.iter()
            .filter_map(|r| Some(r.num(key).ok()? / r.num("wall_s").ok()?))
            .collect()
    };
    let (configs_per_s, scenarios_per_s, lat_ms) = match w.explore() {
        Some(_) => (
            median(&per_s("configs")),
            median(&nums("wall_s").iter().map(|w| 1.0 / w).collect::<Vec<_>>()),
            nums("wall_s").iter().map(|w| w * 1e3).collect::<Vec<_>>(),
        ),
        None => {
            let lat: Vec<f64> = good
                .iter()
                .flat_map(|r| {
                    r.text("lat_ms")
                        .split(',')
                        .filter_map(|v| v.parse().ok())
                        .collect::<Vec<f64>>()
                })
                .collect();
            (median(&per_s("configs")), median(&per_s("scenarios")), lat)
        }
    };
    let p = tail(&lat_ms);
    let unit = if w.explore().is_some() {
        "exploration"
    } else {
        "scenario"
    };
    report.notes.push(format!(
        "{} seed {seed}: {} {unit}s measured in {} process(es); setup_s is the median of {} set-ups",
        w.name(),
        lat_ms.len(),
        good.len(),
        setups.len()
    ));
    report.notes.push(format!(
        "scenario_p99_ms is the p{} of {} {unit} latencies{}",
        p.pct,
        p.samples,
        if p.pct < 99.0 {
            " (no higher percentile has 10 samples beyond it)"
        } else {
            ""
        }
    ));
    let values = [
        median(&setups),
        configs_per_s,
        scenarios_per_s,
        median(&lat_ms),
        p.value,
        // The largest, not the median: per-operation peaks of the 2-worker
        // engine are bimodal, and a median flips between the modes.
        nums("rss_mb").into_iter().fold(f64::NAN, f64::max),
        median(&nums("cpu_s")),
    ];
    report.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit.to_string()))
        .collect();
    report
}

fn traced(w: Workload, seed: u64, base: &Path) -> Report {
    let seed_s = seed.to_string();
    let plain = child(
        &["--op", w.name(), "--seed", &seed_s],
        &base.join("plain"),
        OP_TIMEOUT,
    );
    let layered = child(
        &["--layers", w.name(), "--seed", &seed_s],
        &base.join("layers"),
        LAYERS_TIMEOUT,
    );
    let mut report = Report::new();
    let (ops, check) = Expected::of(w, seed).check(&plain);
    report.tally(ops, check);
    let layered_check = match (&layered.error, layered.num("failed")) {
        (Some(why), _) => Err(why.clone()),
        (None, Ok(0.0)) => Ok(()),
        (None, _) => Err(format!("traced run: {}", layered.text("why"))),
    };
    report.tally(ops, layered_check);
    let overhead =
        layered.num("traced_wall_s").unwrap_or(f64::NAN) / plain.num("wall_s").unwrap_or(f64::NAN);
    report.metrics = layers::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "bench.trace_overhead" => overhead,
                _ => layered.num(name).unwrap_or(f64::NAN),
            };
            (name.to_string(), value, unit.to_string())
        })
        .collect();
    report.notes.push(format!(
        "{} seed {seed}: traced run; spans in .perfbench/spans/{}-seed{seed}.tsv",
        w.name(),
        w.name()
    ));
    report
}

// ---------------------------------------------------------------------------
// Pins
// ---------------------------------------------------------------------------

/// Takes the pins: every explore workload under all input permutations
/// with the 1-worker unbounded engine, cross-checked against the
/// workload's own worker count and budget; then the conformance totals.
fn take_pins() -> Result<(), String> {
    use cbh_core::registry::{visit_row, RowSpec, RowVisitor};
    use cbh_model::Protocol;
    use cbh_verify::checker::Explorer;

    struct Take(workload::ExploreSpec);
    impl RowVisitor for Take {
        type Output = Result<Pin, String>;
        fn visit<P>(&mut self, _: &RowSpec, protocol: P) -> Result<Pin, String>
        where
            P: Protocol,
            P::Proc: Send + Sync,
        {
            let spec = self.0;
            let unbounded = workload::ExploreSpec {
                budget: None,
                ..spec
            };
            let mut pin = None;
            for seed in 0..24u64 {
                let inputs = workload::explore_inputs(seed, spec.n);
                let run = |workers, limits| {
                    Explorer::new()
                        .workers(workers)
                        .limits(limits)
                        .explore_stats(&protocol, &inputs)
                        .map(|(o, s)| (Pin::of(&o, &s), s.peak_resident_bytes))
                        .map_err(|e| e.to_string())
                };
                let (w1, peak) = run(1, unbounded.limits())?;
                if seed == 0 {
                    let (own, _) = run(spec.workers, spec.limits())?;
                    if own != w1 {
                        return Err(format!(
                            "{} workers / budget give {own:?}, 1 worker {w1:?}",
                            spec.workers
                        ));
                    }
                    eprintln!("  unbounded tracked peak {peak} bytes");
                }
                if *pin.get_or_insert(w1) != w1 {
                    return Err(format!("inputs {inputs:?} give {w1:?}, not {pin:?}"));
                }
            }
            Ok(pin.expect("24 permutations"))
        }
    }
    for w in Workload::ALL {
        if let Some(spec) = w.explore() {
            let pin = visit_row(spec.row, spec.n, &mut Take(spec)).expect("registered")?;
            println!("{}: {pin:?}", w.name());
        }
    }
    let totals: Vec<String> = (0..64u64)
        .map(|seed| workload::engine_configs(&workload::scenarios(seed)).map(|c| c.to_string()))
        .collect::<Result<_, _>>()?;
    println!(
        "conformance_fuzz configs_explored, seeds 0..64: [{}]",
        totals.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbh_core::maxreg::MaxRegConsensus;
    use cbh_verify::checker::{ExploreLimits, Explorer};

    /// What an `--op` child reports for one small exploration.
    fn explored() -> (Pin, ChildRun) {
        let limits = ExploreLimits {
            depth: 8,
            ..ExploreLimits::default()
        };
        let (outcome, stats) = Explorer::new()
            .workers(2)
            .limits(limits)
            .explore_stats(&MaxRegConsensus::new(2), &[1, 0])
            .expect("explores");
        let pin = Pin::of(&outcome, &stats);
        let fields = [
            ("verdict", pin.verdict.to_string()),
            ("configs", pin.configs.to_string()),
            ("frontier_peak", pin.frontier_peak.to_string()),
            ("depth_reached", pin.depth_reached.to_string()),
            ("wall_s", "0.5".to_string()),
        ];
        let run = ChildRun {
            setup_s: 0.01,
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            error: None,
        };
        (pin, run)
    }

    #[test]
    fn a_forged_pin_fails_the_operation_and_counts_in_failed_frac() {
        let (pin, run) = explored();
        let mut report = Report::new();
        assert!(report.tally(1, check_pin(pin, &run)));
        let forged = Pin {
            configs: pin.configs + 1,
            ..pin
        };
        assert!(!report.tally(1, check_pin(forged, &run)));
        assert_eq!(
            (report.attempted, report.failed, report.failed_frac()),
            (2, 1, 0.5)
        );
        assert!(report
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }

    #[test]
    fn a_failed_child_fails_its_operation_whatever_it_printed() {
        let (pin, mut run) = explored();
        run.error = Some("run directory not left empty".into());
        assert!(check_pin(pin, &run).is_err());
    }
}
