//! `bench_explore`: the explore-engine trajectory harness.
//!
//! Runs a fixed set of Table-1 exploration workloads through the packed
//! pooled engine at 1/2/4/8 workers, plus a **spilling** run
//! (frontier memory budget pinned to 10% of the unbounded run's observed
//! resident peak) and a **deep-horizon** row (≥10⁶ configs, where
//! seen-set occupancy and intern-cache hit rates actually matter), and
//! emits machine-readable `BENCH_explore.json` (schema `bench_explore/v8`:
//! configs/sec per row × engine × worker count, the w8-vs-w1 speedup, the
//! host's `hw_threads`, and per-row memory telemetry: `peak_resident_bytes`,
//! `bytes_spilled`, `spill_slowdown_w1`, the tiered-store breakdown
//! `seen_resident_bytes` / `intern_resident_bytes` / `fpset_disk_bytes`
//! from the budgeted 1-worker run, and the checkpoint costs
//! `checkpoint_bytes` / `checkpoint_ms` from a snapshotting 1-worker run).
//! Since v6 every row also carries the distributed trajectory: timed
//! in-process `explore_sharded` cells at 1 and 4 shards (bit-identity
//! asserted against the engine first), their ratio `speedup_shards4_vs_1`,
//! and the 4-shard run's wire telemetry `frames_exchanged` / `frame_bytes`.
//! Since v7 every row also carries real-thread capture telemetry:
//! `trace_frames` / `trace_bytes` from one capture-enabled threaded run
//! (lockstep-replay-gated against the model first) and
//! `trace_capture_overhead`, the traced-vs-plain wall-clock ratio measured
//! from back-to-back pairs — the compact log's perturbation budget,
//! accumulated per commit.
//! v8 dropped the cells, speedups and cross-check of the retired
//! machine-walking baseline engine; every remaining field is unchanged.
//! CI uploads the file as a non-gating artifact, so engine-throughput
//! history accumulates per commit without making perf a flaky test — but
//! the artifact's *shape* is gated: `--validate FILE` re-checks a written
//! file against the schema and CI fails the build on drift.
//!
//! Every timed run is held bit-identical (`(ExploreOutcome, ExploreStats)`)
//! to the row's unbounded 1-worker run — worker counts, spilling,
//! checkpointing and sharding may only move time and bytes, never the
//! explored space.
//!
//! After writing the JSON the harness scans for parallel-scaling
//! regressions: any row whose packed 8-worker throughput falls below 0.9×
//! its 1-worker throughput is flagged on stderr and the process exits 2.
//! The check is skipped when the host has a single hardware thread
//! (`hw_threads` records this in the artifact) — there, 8 workers time-slice
//! one core and a "regression" would only measure the scheduler. The CI
//! step runs with `continue-on-error`, so the flag annotates the log
//! without gating the build.
//!
//! Usage: `bench_explore [--quick] [--out PATH] | bench_explore --validate FILE`
//!   --quick     one timed iteration per cell (CI smoke) instead of three
//!   --out       output path (default `BENCH_explore.json`)
//!   --validate  parse FILE and check it against schema v8; exits nonzero
//!               on drift, runs no benchmarks

use cbh_core::bitwise::{tas_reset_consensus, write01_consensus};
use cbh_core::cas::CasConsensus;
use cbh_core::maxreg::MaxRegConsensus;
use cbh_model::Protocol;
use cbh_sim::replay_schedule;
use cbh_sync::{run_threaded_bounded, run_threaded_traced};
use cbh_verify::checker::{ExploreLimits, ExploreOutcome, ExploreStats, Explorer};
use cbh_verify::dist::{explore_sharded, DistConfig};
use std::fmt::Write as _;
use std::time::Instant;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// w8-vs-w1 ratios below this are reported as scaling regressions (when the
/// host has real parallelism to measure).
const SCALING_FLOOR: f64 = 0.9;

/// One measured cell: engine × worker count on one workload.
struct Cell {
    engine: &'static str,
    workers: usize,
    secs: f64,
    configs_per_sec: f64,
}

struct RowReport {
    name: &'static str,
    configs: usize,
    /// Frontier-resident peak of the unbounded 1-worker run — the figure
    /// spill budgets are derived from.
    peak_resident_bytes: usize,
    /// The ~10%-of-peak budget the spilling cells ran under.
    spill_budget: usize,
    /// Arena bytes the budgeted 1-worker run wrote (nonzero = the spill
    /// path really ran; silently-in-memory "spill" rows would be a lie).
    bytes_spilled: u64,
    /// Seen-set resident estimate at the end of the budgeted 1-worker run
    /// (unbudgeted run for rows without spill cells): the tiered store's
    /// Bloom front + hot table + run index, or the exact set's estimate.
    seen_resident_bytes: usize,
    /// Intern-table resident bytes at the end of the same run.
    intern_resident_bytes: usize,
    /// Bytes held in on-disk fingerprint runs at the end of the budgeted
    /// 1-worker run — nonzero means the seen set itself was evicted, not
    /// just the frontier.
    fpset_disk_bytes: u64,
    /// Budgeted-vs-unbounded 1-worker slowdown, measured from *interleaved*
    /// pairs (one unbounded run timed immediately before each budgeted run,
    /// best-of each side). Quotients of cells timed minutes apart absorb
    /// host load drift into the ratio; pairing cancels it. `NAN` (rendered
    /// `null`) for rows without spill cells.
    spill_slowdown_w1: f64,
    /// Total snapshot bytes written by the checkpointed 1-worker run.
    checkpoint_bytes: u64,
    /// Wall-clock milliseconds the same run spent writing snapshots
    /// (drain + fingerprint collection + encode + fsync, per snapshot).
    checkpoint_ms: u64,
    /// 4-shard-vs-1-shard throughput ratio of the in-process distributed
    /// explorer (both bit-identity-checked against the engine first).
    speedup_shards4_vs_1: f64,
    /// Wire frames the 4-shard run moved through its coordinator (rounds,
    /// candidate batches, verdicts, commits — both directions).
    frames_exchanged: u64,
    /// Total encoded bytes of those frames.
    frame_bytes: u64,
    /// Frames one capture-enabled threaded run recorded (= instructions the
    /// physical run applied; the capture is lockstep-replay-gated first).
    trace_frames: u64,
    /// Encoded size of that capture in the trace wire format.
    trace_bytes: u64,
    /// Traced-vs-plain threaded wall-clock ratio from back-to-back pairs
    /// (best-of each side): the compact log's perturbation budget.
    trace_capture_overhead: f64,
    cells: Vec<Cell>,
}

/// The distributed trajectory of one row: timed in-process `explore_sharded`
/// cells at 1 and 4 shards. Bit-identity against the engine baseline is
/// asserted before anything is timed — a throughput number for a diverging
/// explorer would be meaningless — and the 4-shard run's wire telemetry
/// rides along so frame volume accumulates per commit.
fn sharded_cells<P: Protocol>(
    name: &str,
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    baseline: &(ExploreOutcome, ExploreStats),
    iters: usize,
) -> (f64, u64, u64, Vec<Cell>)
where
    P::Proc: Send + Sync,
{
    let configs = baseline.1.configs;
    let mut cells = Vec::new();
    let mut frames = (0u64, 0u64);
    for shards in [1usize, 4] {
        let cfg = DistConfig {
            shards,
            workers: 1,
            symmetric: false,
        };
        // Warm-up doubles as the conformance gate.
        let out = explore_sharded(protocol, inputs, limits, cfg)
            .expect("sharded run explores cleanly");
        assert_eq!(&out, baseline, "{name}: {shards}-shard run diverged");
        if shards == 4 {
            frames = (out.1.frames_exchanged, out.1.frame_bytes);
        }
        let mut best = f64::MAX;
        for _ in 0..iters {
            let start = Instant::now();
            let out = explore_sharded(protocol, inputs, limits, cfg)
                .expect("sharded run explores cleanly");
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(out.1.configs, configs, "{name}: nondeterministic run");
            best = best.min(secs);
        }
        cells.push(Cell {
            engine: "sharded",
            workers: shards,
            secs: best,
            configs_per_sec: configs as f64 / best,
        });
    }
    let speedup = cells[1].configs_per_sec / cells[0].configs_per_sec;
    (speedup, frames.0, frames.1, cells)
}

fn run_engine<P: Protocol>(
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    workers: usize,
) -> (ExploreOutcome, ExploreStats)
where
    P::Proc: Send + Sync,
{
    Explorer::new()
        .workers(workers)
        .limits(limits)
        .explore_stats(protocol, inputs)
        .expect("workload explores cleanly")
}

/// Capture-overhead telemetry for the real-thread backend: how much the
/// compact event log perturbs the run it observes. The capture is gated
/// first — the merged trace must replay through the deterministic model to
/// the bit-identical [`cbh_sim::ConsensusReport`]; an overhead number for
/// an unfaithful capture would be meaningless — then plain and traced runs
/// are timed in back-to-back pairs with the best of each side, so host load
/// drift cancels out of the ratio (the same pairing the w1 spill slowdown
/// uses, and for the same reason). Returns
/// `(trace_frames, trace_bytes, trace_capture_overhead)`.
fn trace_telemetry<P: Protocol>(
    name: &str,
    protocol: &P,
    inputs: &[u64],
    iters: usize,
) -> (u64, u64, f64)
where
    P::Proc: Send + Sync,
{
    const THREAD_BUDGET: u64 = 200_000;
    // Lockstep gate; doubles as the warm-up for the timed pairs below.
    let outcome = run_threaded_traced(protocol, inputs, THREAD_BUDGET)
        .unwrap_or_else(|e| panic!("{name}: traced threaded run errored: {e}"));
    let replayed = replay_schedule(protocol, inputs, &outcome.trace.schedule())
        .unwrap_or_else(|e| panic!("{name}: captured trace fails to replay: {e}"));
    assert_eq!(
        replayed, outcome.report,
        "{name}: capture is not lockstep-faithful"
    );
    let trace_frames = outcome.trace.len() as u64;
    let trace_bytes = outcome.trace.to_bytes().len() as u64;

    let mut best_plain = f64::MAX;
    let mut best_traced = f64::MAX;
    for _ in 0..iters.max(5) {
        let start = Instant::now();
        run_threaded_bounded(protocol, inputs, THREAD_BUDGET)
            .unwrap_or_else(|e| panic!("{name}: plain threaded run errored: {e}"));
        best_plain = best_plain.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        run_threaded_traced(protocol, inputs, THREAD_BUDGET)
            .unwrap_or_else(|e| panic!("{name}: traced threaded run errored: {e}"));
        best_traced = best_traced.min(start.elapsed().as_secs_f64());
    }
    (trace_frames, trace_bytes, best_traced / best_plain)
}

fn bench_row<P: Protocol>(
    name: &'static str,
    protocol: P,
    inputs: &[u64],
    depth: usize,
    iters: usize,
) -> RowReport
where
    P::Proc: Send + Sync,
{
    let limits = ExploreLimits {
        depth,
        max_configs: 1_000_000,
        solo_check_budget: None,
        memory_budget: None,
        checkpoint_every: None,
    };
    // The unbounded 1-worker run is the row's baseline: every timed cell
    // below must reproduce it bit for bit.
    let packed = run_engine(&protocol, inputs, limits, 1);
    let configs = packed.1.configs;

    let mut cells = Vec::new();
    for &workers in &WORKER_COUNTS {
        // Warm-up once (thread pools, intern tables, allocator), then keep
        // the best of `iters` timed runs: explorations are deterministic, so
        // the minimum is the least-noise estimate.
        run_engine(&protocol, inputs, limits, workers);
        let mut best = f64::MAX;
        for _ in 0..iters {
            let start = Instant::now();
            let out = run_engine(&protocol, inputs, limits, workers);
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(out, packed, "{name}: {workers}-worker run diverged");
            best = best.min(secs);
        }
        cells.push(Cell {
            engine: "packed",
            workers,
            secs: best,
            configs_per_sec: configs as f64 / best,
        });
    }

    // Spill trajectory: the same workload with the frontier budget pinned to
    // ~10% of the unbounded run's resident peak. Bit-identical outcomes are
    // asserted (the budget may only move bytes, never change the space), and
    // the slowdown vs the in-memory cells above is the number the
    // memory-bounded frontier is accountable for. Rows whose entire frontier
    // peaks below a few KB are skipped (`spill_slowdown_w1: null`): there a
    // "budget" is all constant arena-setup cost and the quotient measures
    // the filesystem, not the engine.
    const SPILL_MEASURABLE: usize = 4 * 1024;
    let peak_resident_bytes = packed.1.peak_resident_bytes;
    let spill_budget = if peak_resident_bytes >= SPILL_MEASURABLE {
        (peak_resident_bytes / 10).max(1)
    } else {
        0
    };
    let spill_limits = ExploreLimits {
        memory_budget: Some(spill_budget),
        ..limits
    };
    let mut bytes_spilled = 0u64;
    // Tiered-store breakdown: defaults to the unbudgeted run's telemetry so
    // rows without spill cells still report their seen/intern footprint.
    let mut seen_resident_bytes = packed.1.seen_resident_bytes;
    let mut intern_resident_bytes = packed.1.intern_resident_bytes;
    let mut fpset_disk_bytes = 0u64;
    let mut spill_slowdown_w1 = f64::NAN;
    let spill_workers: &[usize] = if spill_budget > 0 { &[1, 8] } else { &[] };
    for &workers in spill_workers {
        run_engine(&protocol, inputs, spill_limits, workers);
        let mut best = f64::MAX;
        // The w1 slowdown is a *paired* measurement: each iteration times an
        // unbounded run immediately before its budgeted run, and the ratio is
        // taken between the two bests. The unbounded cell measured at the top
        // of the row is minutes older by now, and quotients across that gap
        // absorb host load drift into the ratio; back-to-back pairs cancel it.
        let mut best_unbounded = f64::MAX;
        // Ratios are far more noise-sensitive than the absolute cells: a
        // single slow iteration on either side skews the quotient, so the
        // paired w1 cells get extra iterations regardless of `iters`.
        let pair_iters = if workers == 1 { iters.max(7) } else { iters };
        for _ in 0..pair_iters {
            if workers == 1 {
                let start = Instant::now();
                run_engine(&protocol, inputs, limits, workers);
                best_unbounded = best_unbounded.min(start.elapsed().as_secs_f64());
            }
            let start = Instant::now();
            let out = run_engine(&protocol, inputs, spill_limits, workers);
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(out, packed, "{name}: spilling run diverged");
            assert!(out.1.bytes_spilled > 0, "{name}: spill cell never spilled");
            if workers == 1 {
                bytes_spilled = out.1.bytes_spilled;
                seen_resident_bytes = out.1.seen_resident_bytes;
                intern_resident_bytes = out.1.intern_resident_bytes;
                fpset_disk_bytes = out.1.fpset_disk_bytes;
            }
            best = best.min(secs);
        }
        if workers == 1 {
            spill_slowdown_w1 = best / best_unbounded;
        }
        cells.push(Cell {
            engine: "packed-spill",
            workers,
            secs: best,
            configs_per_sec: configs as f64 / best,
        });
    }

    let (checkpoint_bytes, checkpoint_ms) = checkpoint_costs(name, &protocol, inputs, limits, &packed);
    let (speedup_shards4_vs_1, frames_exchanged, frame_bytes, sharded) =
        sharded_cells(name, &protocol, inputs, limits, &packed, iters);
    cells.extend(sharded);
    let (trace_frames, trace_bytes, trace_capture_overhead) =
        trace_telemetry(name, &protocol, inputs, iters);

    RowReport {
        name,
        configs,
        peak_resident_bytes,
        spill_budget,
        bytes_spilled,
        seen_resident_bytes,
        intern_resident_bytes,
        fpset_disk_bytes,
        spill_slowdown_w1,
        checkpoint_bytes,
        checkpoint_ms,
        speedup_shards4_vs_1,
        frames_exchanged,
        frame_bytes,
        trace_frames,
        trace_bytes,
        trace_capture_overhead,
        cells,
    }
}

/// Checkpoint-cost telemetry: one snapshotting 1-worker run at a
/// quarter-of-the-row cadence. The run must stay bit-identical to the
/// plain one (snapshots may cost time, never change the exploration), and
/// its `checkpoint_bytes`/`checkpoint_ms` land in the artifact so snapshot
/// size and stall history accumulate per commit.
fn checkpoint_costs<P: Protocol>(
    name: &str,
    protocol: &P,
    inputs: &[u64],
    limits: ExploreLimits,
    baseline: &(ExploreOutcome, ExploreStats),
) -> (u64, u64)
where
    P::Proc: Send + Sync,
{
    let path = std::env::temp_dir().join(format!(
        "cbh-bench-ckpt-{}-{name}.ck",
        std::process::id()
    ));
    let out = Explorer::new()
        .limits(ExploreLimits {
            checkpoint_every: Some((baseline.1.configs as u64 / 4).max(1)),
            ..limits
        })
        .checkpoint_to(&path)
        .explore_stats(protocol, inputs)
        .expect("checkpointed run explores cleanly");
    assert_eq!(&out, baseline, "{name}: checkpointed run diverged");
    assert!(
        out.1.checkpoint_bytes > 0,
        "{name}: checkpointed run wrote no snapshots"
    );
    let _ = std::fs::remove_file(&path);
    (out.1.checkpoint_bytes, out.1.checkpoint_ms)
}

/// The deep-horizon row: a state space past 10⁶ configs, measured at 1
/// and 8 workers only. The 2/4-worker and spill cells are skipped so the
/// row does not dominate the whole harness (the memory-budget suites
/// already pin spilling semantics). What the row *does* reach is the regime
/// the small rows can't: a seen set millions of entries deep, intern
/// tables big enough that the per-worker caches are load-bearing, and a
/// frontier wide enough for adaptive batching to leave its minimum.
fn bench_deep_row<P: Protocol>(
    name: &'static str,
    protocol: P,
    inputs: &[u64],
    depth: usize,
    iters: usize,
) -> RowReport
where
    P::Proc: Send + Sync,
{
    let limits = ExploreLimits {
        depth,
        max_configs: 3_000_000,
        solo_check_budget: None,
        memory_budget: None,
        checkpoint_every: None,
    };
    // Conformance gate at full scale: the pool must reproduce the
    // sequential committer bit-for-bit. These two runs double as the
    // warm-ups for the timed cells below.
    let w1 = run_engine(&protocol, inputs, limits, 1);
    let w8 = run_engine(&protocol, inputs, limits, 8);
    assert_eq!(w1, w8, "{name}: packed w1 and w8 diverged");
    let configs = w1.1.configs;
    assert!(
        configs >= 1_000_000,
        "{name}: deep-horizon row shrank below 10^6 configs ({configs})"
    );

    let mut cells = Vec::new();
    for workers in [1usize, 8] {
        let mut best = f64::MAX;
        for _ in 0..iters {
            let start = Instant::now();
            let out = run_engine(&protocol, inputs, limits, workers);
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(out.1.configs, configs, "{name}: nondeterministic run");
            best = best.min(secs);
        }
        cells.push(Cell {
            engine: "packed",
            workers,
            secs: best,
            configs_per_sec: configs as f64 / best,
        });
    }

    let (checkpoint_bytes, checkpoint_ms) = checkpoint_costs(name, &protocol, inputs, limits, &w1);
    let (speedup_shards4_vs_1, frames_exchanged, frame_bytes, sharded) =
        sharded_cells(name, &protocol, inputs, limits, &w1, iters);
    cells.extend(sharded);
    let (trace_frames, trace_bytes, trace_capture_overhead) =
        trace_telemetry(name, &protocol, inputs, iters);

    RowReport {
        name,
        configs,
        peak_resident_bytes: w1.1.peak_resident_bytes,
        spill_budget: 0,
        bytes_spilled: 0,
        seen_resident_bytes: w1.1.seen_resident_bytes,
        intern_resident_bytes: w1.1.intern_resident_bytes,
        fpset_disk_bytes: 0,
        spill_slowdown_w1: f64::NAN,
        checkpoint_bytes,
        checkpoint_ms,
        speedup_shards4_vs_1,
        frames_exchanged,
        frame_bytes,
        trace_frames,
        trace_bytes,
        trace_capture_overhead,
        cells,
    }
}

fn cps(report: &RowReport, engine: &str, workers: usize) -> f64 {
    report
        .cells
        .iter()
        .find(|c| c.engine == engine && c.workers == workers)
        .map(|c| c.configs_per_sec)
        .unwrap_or(f64::NAN)
}

fn json_escape_free(s: &str) -> &str {
    // All emitted strings are static identifiers without quotes/backslashes.
    debug_assert!(!s.contains('"') && !s.contains('\\'));
    s
}

/// Writes `"key": ratio` with `null` for cells the row never measured
/// (e.g. the spill slowdown on the deep-horizon row).
fn write_ratio(out: &mut String, key: &str, value: f64) {
    if value.is_finite() {
        let _ = writeln!(out, "      \"{key}\": {value:.3},");
    } else {
        let _ = writeln!(out, "      \"{key}\": null,");
    }
}

fn render_json(rows: &[RowReport], hw_threads: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"bench_explore/v8\",\n");
    // Hardware parallelism actually available to the run: throughput and
    // scaling numbers are meaningless without it (packed w8 on a 1-thread
    // host measures the scheduler, not the engine).
    let _ = writeln!(out, "  \"hw_threads\": {hw_threads},");
    let _ = writeln!(
        out,
        "  \"worker_counts\": [{}],",
        WORKER_COUNTS.map(|w| w.to_string()).join(", ")
    );
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", json_escape_free(row.name));
        let _ = writeln!(out, "      \"configs\": {},", row.configs);
        let _ = writeln!(
            out,
            "      \"peak_resident_bytes\": {},",
            row.peak_resident_bytes
        );
        let _ = writeln!(out, "      \"spill_budget\": {},", row.spill_budget);
        let _ = writeln!(out, "      \"bytes_spilled\": {},", row.bytes_spilled);
        let _ = writeln!(
            out,
            "      \"seen_resident_bytes\": {},",
            row.seen_resident_bytes
        );
        let _ = writeln!(
            out,
            "      \"intern_resident_bytes\": {},",
            row.intern_resident_bytes
        );
        let _ = writeln!(out, "      \"fpset_disk_bytes\": {},", row.fpset_disk_bytes);
        let _ = writeln!(out, "      \"checkpoint_bytes\": {},", row.checkpoint_bytes);
        let _ = writeln!(out, "      \"checkpoint_ms\": {},", row.checkpoint_ms);
        let _ = writeln!(out, "      \"frames_exchanged\": {},", row.frames_exchanged);
        let _ = writeln!(out, "      \"frame_bytes\": {},", row.frame_bytes);
        let _ = writeln!(out, "      \"trace_frames\": {},", row.trace_frames);
        let _ = writeln!(out, "      \"trace_bytes\": {},", row.trace_bytes);
        write_ratio(&mut out, "trace_capture_overhead", row.trace_capture_overhead);
        write_ratio(&mut out, "speedup_shards4_vs_1", row.speedup_shards4_vs_1);
        write_ratio(&mut out, "spill_slowdown_w1", row.spill_slowdown_w1);
        write_ratio(
            &mut out,
            "speedup_packed_w8_vs_w1",
            cps(row, "packed", 8) / cps(row, "packed", 1),
        );
        out.push_str("      \"cells\": [\n");
        for (j, cell) in row.cells.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"engine\": \"{}\", \"workers\": {}, \"secs\": {:.6}, \"configs_per_sec\": {:.1}}}",
                json_escape_free(cell.engine),
                cell.workers,
                cell.secs,
                cell.configs_per_sec
            );
            out.push_str(if j + 1 < row.cells.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 < rows.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Schema check for a written artifact: the exact version string, every
/// per-file and per-row field, and structural balance. A renamed or dropped
/// field fails CI's validation step instead of silently corrupting the
/// accumulated throughput history.
fn validate_schema(text: &str) -> Result<(), String> {
    if !text.contains("\"schema\": \"bench_explore/v8\"") {
        return Err("schema tag is not bench_explore/v8".to_string());
    }
    const TOP_KEYS: [&str; 3] = ["hw_threads", "worker_counts", "rows"];
    const ROW_KEYS: [&str; 19] = [
        "name",
        "configs",
        "peak_resident_bytes",
        "spill_budget",
        "bytes_spilled",
        "seen_resident_bytes",
        "intern_resident_bytes",
        "fpset_disk_bytes",
        "checkpoint_bytes",
        "checkpoint_ms",
        "frames_exchanged",
        "frame_bytes",
        "trace_frames",
        "trace_bytes",
        "trace_capture_overhead",
        "speedup_shards4_vs_1",
        "spill_slowdown_w1",
        "speedup_packed_w8_vs_w1",
        "cells",
    ];
    const CELL_KEYS: [&str; 4] = ["engine", "workers", "secs", "configs_per_sec"];
    let rows = text.matches("\"name\":").count();
    if rows == 0 {
        return Err("no rows".to_string());
    }
    for key in TOP_KEYS {
        if !text.contains(&format!("\"{key}\":")) {
            return Err(format!("missing top-level field {key:?}"));
        }
    }
    for key in ROW_KEYS {
        let found = text.matches(&format!("\"{key}\":")).count();
        if found != rows {
            return Err(format!(
                "field {key:?} appears {found} times for {rows} rows"
            ));
        }
    }
    let cells = text.matches("\"engine\":").count();
    if cells < rows {
        return Err(format!("{cells} cells for {rows} rows"));
    }
    for key in CELL_KEYS {
        let found = text.matches(&format!("\"{key}\":")).count();
        if found != cells {
            return Err(format!(
                "field {key:?} appears {found} times for {cells} cells"
            ));
        }
    }
    for (open, close) in [('{', '}'), ('[', ']')] {
        let opens = text.matches(open).count();
        let closes = text.matches(close).count();
        if opens != closes {
            return Err(format!("unbalanced {open}{close}: {opens} vs {closes}"));
        }
    }
    if !text.trim_end().ends_with('}') {
        return Err("file does not end with a closing brace".to_string());
    }
    Ok(())
}

fn fmt_cps(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.0}")
    } else {
        "-".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let file = args.get(i + 1).expect("--validate requires a file path");
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("--validate: cannot read {file}: {e}"));
        match validate_schema(&text) {
            Ok(()) => {
                eprintln!("{file}: valid bench_explore/v8 artifact");
                return;
            }
            Err(why) => {
                eprintln!("{file}: schema validation failed: {why}");
                std::process::exit(1);
            }
        }
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_explore.json".to_string());
    let iters = if quick { 1 } else { 3 };
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let rows = vec![
        bench_row("maxreg_n2_d18", MaxRegConsensus::new(2), &[0, 1], 18, iters),
        bench_row("maxreg_n3_d12", MaxRegConsensus::new(3), &[0, 1, 2], 12, iters),
        bench_row("cas_n3_d12", CasConsensus::new(3), &[0, 1, 2], 12, iters),
        bench_row(
            "tas_reset_n3_d16",
            tas_reset_consensus(3),
            &[0, 1, 2],
            16,
            iters,
        ),
        bench_row(
            "write01_n3_d14",
            write01_consensus(3),
            &[0, 1, 2],
            14,
            iters,
        ),
        bench_deep_row(
            "maxreg_n4_d26_deep",
            MaxRegConsensus::new(4),
            &[0, 1, 2, 3],
            26,
            iters,
        ),
    ];

    eprintln!(
        "row                 configs  packed-w1   packed-w8  spill-w1  slow  spilledKB  s4/s1  trace"
    );
    for row in &rows {
        let spill_cps = cps(row, "packed-spill", 1);
        let (spill_col, slow_col) = if spill_cps.is_finite() {
            (
                format!("{spill_cps:.0}"),
                format!("{:.2}x", row.spill_slowdown_w1),
            )
        } else {
            ("-".to_string(), "-".to_string())
        };
        eprintln!(
            "{:<19} {:>7}  {:>9}  {:>9} {:>9} {:>5} {:>9}  {:>5}  {:>5}",
            row.name,
            row.configs,
            fmt_cps(cps(row, "packed", 1)),
            fmt_cps(cps(row, "packed", 8)),
            spill_col,
            slow_col,
            row.bytes_spilled / 1024,
            format!("{:.2}x", row.speedup_shards4_vs_1),
            format!("{:.2}x", row.trace_capture_overhead),
        );
    }

    let json = render_json(&rows, hw_threads);
    std::fs::write(&out_path, &json).expect("write BENCH_explore.json");
    eprintln!("wrote {out_path}");

    // Parallel-scaling watchdog: runs after the artifact is written so a
    // flagged run still leaves its numbers behind. Only meaningful with real
    // hardware parallelism — on a single-thread host, 8 workers time-slicing
    // one core would "regress" on every row and the flag would just measure
    // the scheduler.
    if hw_threads < 2 {
        eprintln!(
            "note: hw_threads={hw_threads}; skipping parallel-scaling check (no parallelism to measure)"
        );
        return;
    }
    let mut flagged = false;
    for row in &rows {
        let ratio = cps(row, "packed", 8) / cps(row, "packed", 1);
        if ratio.is_finite() && ratio < SCALING_FLOOR {
            eprintln!(
                "warning: {}: packed w8 runs at {ratio:.2}x of w1 — parallel scaling regression",
                row.name
            );
            flagged = true;
        }
    }
    if flagged {
        std::process::exit(2);
    }
}
