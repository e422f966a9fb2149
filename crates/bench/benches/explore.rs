//! Criterion group `explore`: state-space engine throughput (configs/sec).
//!
//! Each benchmark runs a *complete* bounded exploration of one Table-1
//! protocol — a fixed workload, so time-per-iteration is directly
//! comparable. For every workload the routines are:
//!
//! - `frontier/…` — the packed-state engine (`cbh_verify::checker::explore`
//!   / `Explorer`), sequential;
//! - `frontier_par/…` — the same engine with the work-stealing pool at
//!   hardware parallelism.
//!
//! The `bench_explore` bin emits the machine-readable worker-count and
//! shard-count comparison.

use cbh_core::bitwise::tas_reset_consensus;
use cbh_core::cas::CasConsensus;
use cbh_core::maxreg::MaxRegConsensus;
use cbh_model::Protocol;
use cbh_verify::checker::{explore, ExploreLimits, ExploreOutcome, Explorer};
use criterion::{criterion_group, criterion_main, Criterion};

fn configure(c: &mut Criterion) -> Criterion {
    let _ = c;
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(600))
        .warm_up_time(std::time::Duration::from_millis(150))
}

/// Runs the frontier engine and returns configs visited, asserting a clean
/// verdict (these workloads contain no violations).
fn frontier_configs<P: Protocol>(protocol: &P, inputs: &[u64], limits: ExploreLimits) -> usize {
    match explore(protocol, inputs, limits).expect("exploration runs") {
        ExploreOutcome::Clean { configs, .. } => configs,
        other => panic!("bench workload must be clean, got {other:?}"),
    }
}

struct Workload<P> {
    name: &'static str,
    protocol: P,
    inputs: Vec<u64>,
    limits: ExploreLimits,
}

fn bench_workload<P: Protocol>(c: &mut Criterion, w: &Workload<P>)
where
    P::Proc: Send + Sync,
{
    // Record the workload sizes once, outside the timed loops: configs/sec =
    // configs below / measured time per iteration.
    eprintln!(
        "[workload {}] frontier visits {} configs",
        w.name,
        frontier_configs(&w.protocol, &w.inputs, w.limits),
    );
    let mut g = c.benchmark_group("explore");
    g.bench_function(format!("frontier/{}", w.name), |b| {
        b.iter(|| frontier_configs(&w.protocol, &w.inputs, w.limits));
    });
    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    let parallel = Explorer::new().limits(w.limits).workers(hw);
    g.bench_function(format!("frontier_par/{}", w.name), |b| {
        b.iter(|| parallel.explore(&w.protocol, &w.inputs).unwrap());
    });
    g.finish();
}

fn maxreg_row(c: &mut Criterion) {
    bench_workload(
        c,
        &Workload {
            name: "maxreg_n2_d18",
            protocol: MaxRegConsensus::new(2),
            inputs: vec![0, 1],
            limits: ExploreLimits {
                depth: 18,
                max_configs: 1_000_000,
                solo_check_budget: None,
                memory_budget: None,
                checkpoint_every: None,
            },
        },
    );
}

fn maxreg3_row(c: &mut Criterion) {
    bench_workload(
        c,
        &Workload {
            name: "maxreg_n3_d12",
            protocol: MaxRegConsensus::new(3),
            inputs: vec![0, 1, 2],
            limits: ExploreLimits {
                depth: 12,
                max_configs: 1_000_000,
                solo_check_budget: None,
                memory_budget: None,
                checkpoint_every: None,
            },
        },
    );
}

fn tas_reset_row(c: &mut Criterion) {
    // Row 4, {read, test-and-set, reset}: heavyweight per-process bit-by-bit
    // state, where interned packed states and incremental digests (no clone
    // or full-state hash per edge) matter most.
    bench_workload(
        c,
        &Workload {
            name: "tas_reset_n3_d14",
            protocol: tas_reset_consensus(3),
            inputs: vec![0, 1, 2],
            limits: ExploreLimits {
                depth: 14,
                max_configs: 1_000_000,
                solo_check_budget: None,
                memory_budget: None,
                checkpoint_every: None,
            },
        },
    );
}

fn cas_row(c: &mut Criterion) {
    bench_workload(
        c,
        &Workload {
            name: "cas_n3",
            protocol: CasConsensus::new(3),
            inputs: vec![0, 1, 2],
            limits: ExploreLimits {
                depth: 12,
                max_configs: 1_000_000,
                solo_check_budget: None,
                memory_budget: None,
                checkpoint_every: None,
            },
        },
    );
}

fn frontier_spill(c: &mut Criterion) {
    // Memory-bounded frontier ablation: the same workload fully in RAM vs
    // with the frontier budget pinned to ~10% of its observed resident peak
    // (every layer delta-compresses into the spill arena and streams back).
    // Outcomes are bit-identical by construction — the quotient of the two
    // routines is the price of running past RAM.
    let protocol = MaxRegConsensus::new(3);
    let inputs = [0u64, 1, 2];
    let limits = ExploreLimits {
        depth: 12,
        max_configs: 1_000_000,
        solo_check_budget: None,
        memory_budget: None,
        checkpoint_every: None,
    };
    let in_memory = Explorer::new().limits(limits);
    let baseline = in_memory
        .explore_stats(&protocol, &inputs)
        .expect("workload explores");
    let budget = (baseline.1.peak_resident_bytes / 10).max(1);
    let spilling = Explorer::new().limits(limits).memory_budget(Some(budget));
    {
        let check = spilling
            .explore_stats(&protocol, &inputs)
            .expect("budgeted workload explores");
        assert_eq!(check, baseline, "spilling run diverged from in-memory");
        assert!(check.1.bytes_spilled > 0, "budget never forced a spill");
    }
    let mut g = c.benchmark_group("frontier_spill");
    g.bench_function("in_memory/maxreg_n3_d12", |b| {
        b.iter(|| in_memory.explore(&protocol, &inputs).unwrap());
    });
    g.bench_function("spilling_10pct/maxreg_n3_d12", |b| {
        b.iter(|| spilling.explore(&protocol, &inputs).unwrap());
    });
    g.finish();
}

fn symmetry_reduction(c: &mut Criterion) {
    // Anonymous protocol with duplicated inputs: the quotiented frontier is
    // the same verdict over a fraction of the states.
    let protocol = MaxRegConsensus::new(3);
    let inputs = [0u64, 0, 1];
    let limits = ExploreLimits {
        depth: 10,
        max_configs: 1_000_000,
        solo_check_budget: None,
        memory_budget: None,
        checkpoint_every: None,
    };
    let mut g = c.benchmark_group("explore_symmetry");
    g.bench_function("plain/maxreg_n3_d10", |b| {
        let explorer = Explorer::new().limits(limits);
        b.iter(|| explorer.explore(&protocol, &inputs).unwrap());
    });
    g.bench_function("reduced/maxreg_n3_d10", |b| {
        let explorer = Explorer::new().limits(limits).symmetry_reduction(true);
        b.iter(|| explorer.explore(&protocol, &inputs).unwrap());
    });
    g.finish();
}

criterion_group! {
    name = explore_group;
    config = configure(&mut Criterion::default());
    targets = maxreg_row, maxreg3_row, tas_reset_row, cas_row, frontier_spill,
        symmetry_reduction,
}
criterion_main!(explore_group);
