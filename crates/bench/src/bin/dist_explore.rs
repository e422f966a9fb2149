//! `dist_explore`: release-mode multi-process sharded exploration smoke.
//!
//! The tier-1 dist matrix shards *in process*: threads over socketpairs
//! sharing one packed context. This smoke runs the real thing: it
//! re-spawns itself as N shard **processes**, each
//! with its own address space and packed context, connected to the
//! coordinator over a Unix-domain listener — so frames genuinely cross
//! process boundaries and admitted remote candidates are replayed on the
//! owner's side. The deep-horizon row (`MaxRegConsensus::new(4)`
//! at depth 26, ≥1.5M configurations) runs at 1, 2 and 4 shards and every
//! run must be bit-identical — outcome and semantic stats — to the
//! single-process engine baseline. An in-process `explore_sharded` column
//! at 4 shards must match it too, and must move the same frames as the
//! 4-process run: one wire format in both modes. A last column squeezes
//! every shard to ~10% of the baseline's peak resident bytes, forcing the
//! spill and disk-run paths in every child.
//!
//! Usage: `dist_explore [--quick] [--budget-frac F]` (parent),
//! `dist_explore --shard-child ID SHARDS SOCKET [--quick] [--budget B]`
//! (internal). `--quick` shrinks the row for debug-build smoke runs;
//! `--budget-frac 0` skips the budget column. Exits nonzero on any
//! divergence; prints one summary line per shard count on success.

use cbh_core::maxreg::MaxRegConsensus;
use cbh_verify::checker::{ExploreLimits, ExploreOutcome, ExploreStats, Explorer};
use cbh_verify::dist::{accept_shards, coordinate, explore_sharded, shard_serve, DistConfig};
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Shard workers: modest, the smoke measures identity not throughput.
const SHARD_WORKERS: usize = 2;

fn row(quick: bool, budget: Option<usize>) -> (MaxRegConsensus, [u64; 4], ExploreLimits) {
    let limits = ExploreLimits {
        depth: if quick { 14 } else { 26 },
        max_configs: 3_000_000,
        solo_check_budget: None,
        memory_budget: budget,
        checkpoint_every: None,
    };
    (MaxRegConsensus::new(4), [0, 1, 2, 3], limits)
}

/// Shard-child mode: connect, announce, serve rounds until halted.
fn run_shard_child(shard: usize, shards: usize, socket: &str, quick: bool, budget: Option<usize>) -> ! {
    let (protocol, inputs, limits) = row(quick, budget);
    let sock = UnixStream::connect(socket).expect("connect to coordinator");
    let cfg = DistConfig {
        shards,
        workers: SHARD_WORKERS,
        symmetric: false,
    };
    shard_serve(&protocol, &inputs, limits, cfg, shard, sock).expect("shard serves");
    std::process::exit(0);
}

/// Spawns `shards` child processes against a fresh listener and coordinates
/// them through the full row.
fn run_distributed(
    shards: usize,
    quick: bool,
    budget: Option<usize>,
) -> (ExploreOutcome, ExploreStats) {
    let (protocol, inputs, limits) = row(quick, budget);
    let socket = std::env::temp_dir().join(format!(
        "cbh-dist-smoke-{}-{shards}-{}.sock",
        std::process::id(),
        budget.map_or(0, |b| b + 1)
    ));
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket).expect("bind coordinator socket");
    let exe = std::env::current_exe().expect("own path");
    let mut children = Vec::new();
    for shard in 0..shards {
        let mut args = vec![
            "--shard-child".to_string(),
            shard.to_string(),
            shards.to_string(),
            socket.to_string_lossy().into_owned(),
        ];
        if quick {
            args.push("--quick".to_string());
        }
        if let Some(b) = budget {
            args.push("--budget".to_string());
            args.push(b.to_string());
        }
        children.push(
            Command::new(&exe)
                .args(&args)
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn shard child"),
        );
    }
    let streams = accept_shards(&listener, shards).expect("all shards report in");
    let cfg = DistConfig {
        shards,
        workers: SHARD_WORKERS,
        symmetric: false,
    };
    let result = coordinate(&protocol, &inputs, limits, cfg, streams).expect("coordinate");
    for mut child in children {
        let status = child.wait().expect("reap shard child");
        assert!(status.success(), "shard child exited with {status}");
    }
    let _ = std::fs::remove_file(&socket);
    result
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag_val = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    if args.iter().any(|a| a == "--shard-child") {
        let i = args.iter().position(|a| a == "--shard-child").unwrap();
        let shard: usize = args[i + 1].parse().expect("shard id");
        let shards: usize = args[i + 2].parse().expect("shard count");
        let socket = args[i + 3].clone();
        let budget = flag_val("--budget").map(|b| b.parse().expect("budget bytes"));
        run_shard_child(shard, shards, &socket, quick, budget);
    }
    let budget_frac: f64 = flag_val("--budget-frac")
        .map(|f| f.parse().expect("budget fraction"))
        .unwrap_or(0.1);

    let (protocol, inputs, limits) = row(quick, None);
    let started = Instant::now();
    let baseline = Explorer::new()
        .workers(4)
        .limits(limits)
        .explore_stats(&protocol, &inputs)
        .expect("baseline explores");
    let configs = baseline.1.configs;
    if !quick {
        assert!(
            configs >= 1_500_000,
            "deep-horizon row shrank to {configs} configs"
        );
    }
    eprintln!(
        "baseline: {configs} configs in {:.1}s",
        started.elapsed().as_secs_f64()
    );

    let mut four_process = None;
    for shards in [1usize, 2, 4] {
        let t = Instant::now();
        let dist = run_distributed(shards, quick, None);
        assert_eq!(
            dist, baseline,
            "{shards}-shard multi-process run diverged from the engine"
        );
        eprintln!(
            "{shards} shard(s): bit-identical ({configs} configs, \
             {} frames / {} bytes exchanged) in {:.1}s",
            dist.1.frames_exchanged,
            dist.1.frame_bytes,
            t.elapsed().as_secs_f64()
        );
        four_process = Some(dist.1);
    }

    // In-process column: 4 shard threads sharing one packed context must
    // send exactly the 4 processes' frames. Only the closing K_STATS
    // residency varints may differ in length: 5 varints × 9 bytes × 4.
    let procs = four_process.expect("the 4-process run ran");
    let t = Instant::now();
    let cfg = DistConfig {
        shards: 4,
        workers: SHARD_WORKERS,
        symmetric: false,
    };
    let threads = explore_sharded(&protocol, &inputs, limits, cfg).expect("in-process shards");
    assert_eq!(threads, baseline, "4-shard in-process run diverged from the engine");
    assert_eq!(threads.1.frames_exchanged, procs.frames_exchanged, "frame counts differ");
    assert!(
        threads.1.frame_bytes.abs_diff(procs.frame_bytes) <= 5 * 9 * 4,
        "frame bytes differ: {} vs {}",
        threads.1.frame_bytes,
        procs.frame_bytes
    );
    eprintln!(
        "4 shard threads: bit-identical ({} frames / {} bytes exchanged; \
         4 processes: {} / {}) in {:.1}s",
        threads.1.frames_exchanged,
        threads.1.frame_bytes,
        procs.frames_exchanged,
        procs.frame_bytes,
        t.elapsed().as_secs_f64()
    );

    if budget_frac > 0.0 {
        // Budget column: every shard capped to a sliver of the baseline's
        // peak — shards spill to their pid-salted arenas and the answer
        // must not move.
        let budget = (baseline.1.peak_resident_bytes as f64 * budget_frac) as usize;
        let t = Instant::now();
        let dist = run_distributed(2, quick, Some(budget));
        assert_eq!(
            dist, baseline,
            "2-shard run under a {budget}-byte per-shard budget diverged"
        );
        eprintln!(
            "2 shards @ {budget}B/shard budget: bit-identical in {:.1}s",
            t.elapsed().as_secs_f64()
        );
    }
    eprintln!("dist_explore OK");
}
