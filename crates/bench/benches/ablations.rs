//! Ablation benches: design choices DESIGN.md calls out.
//!
//! - A1: bounded (Lemma 3.2, base-3n `add`) vs unbounded (Lemma 3.1, prime
//!   `multiply`) counters — word growth is the trade-off the bounded variant
//!   buys away.
//! - A2: the append step of the buffer counter as a plain `ℓ-buffer-write`
//!   vs an atomic multiple assignment (Section 7): same space, similar cost —
//!   transactions do not help, as Theorem 7.5 predicts.
//! - A3: the randomized wait-free transform's turn overhead versus direct
//!   adversarial scheduling ([GHHW13]).
//! - A4: Lemma 8.7 — the swap protocol's solo scan count is ≤ 3n−2, measured.
//! - A5: the explorer's process-symmetry reduction on an anonymous protocol
//!   with duplicated inputs, against the plain exploration.
//! - F1: Figure 1 — the history-object reconstruction on the paper's
//!   ℓ-concurrent-appends overlap pattern.
//!
//! Explorer throughput per Table-1 row (worker counts, spilling, shards) is
//! the `bench_explore` bin's job, not Criterion's.

use cbh_bench::{contended_run, spread_inputs};
use cbh_core::buffer::{buffer_consensus, reconstruct_history, BufferCounterFamily, Record};
use cbh_core::counter::{
    AddCounterFamily, AddFlavor, MultiplyCounterFamily, MultiplyFlavor,
};
use cbh_core::racing::RacingConsensus;
use cbh_core::maxreg::MaxRegConsensus;
use cbh_core::swap::SwapConsensus;
use cbh_model::Value;
use cbh_random::{run_randomized, RandomizedConfig};
use cbh_verify::checker::{ExploreLimits, Explorer};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(600))
        .warm_up_time(std::time::Duration::from_millis(150))
}

fn a1_counter_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("a1_bounded_vs_unbounded_counter");
    for n in [3usize, 5, 8] {
        let inputs = spread_inputs(n);
        g.bench_with_input(BenchmarkId::new("unbounded_multiply", n), &n, |b, &n| {
            let protocol = RacingConsensus::new(
                MultiplyCounterFamily::new(n, MultiplyFlavor::ReadMultiply),
                n,
            );
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                contended_run(&protocol, &inputs, seed)
            });
        });
        g.bench_with_input(BenchmarkId::new("bounded_add", n), &n, |b, &n| {
            let protocol =
                RacingConsensus::new(AddCounterFamily::new(n, n, AddFlavor::ReadAdd), n);
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                contended_run(&protocol, &inputs, seed)
            });
        });
    }
    g.finish();
}

fn a2_multi_assign(c: &mut Criterion) {
    let mut g = c.benchmark_group("a2_multi_assign_vs_single_write");
    let n = 6;
    let inputs = spread_inputs(n);
    for (label, multi) in [("single_write", false), ("multi_assign", true)] {
        g.bench_function(label, |b| {
            let family = BufferCounterFamily::new(n, n, 2).with_multi_assign(multi);
            let protocol = RacingConsensus::new(family, n);
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let report = contended_run(&protocol, &inputs, seed);
                assert_eq!(report.locations_touched, 3, "space identical either way");
                report
            });
        });
    }
    g.finish();
}

fn a3_randomized_transform(c: &mut Criterion) {
    let mut g = c.benchmark_group("a3_randomized_wait_free");
    for n in [3usize, 5, 8] {
        g.bench_with_input(BenchmarkId::new("oblivious", n), &n, |b, &n| {
            let protocol = MaxRegConsensus::new(n);
            let inputs = spread_inputs(n);
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                run_randomized(&protocol, &inputs, RandomizedConfig::seeded(seed)).unwrap()
            });
        });
        g.bench_with_input(BenchmarkId::new("adversarial", n), &n, |b, &n| {
            let protocol = MaxRegConsensus::new(n);
            let inputs = spread_inputs(n);
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                contended_run(&protocol, &inputs, seed)
            });
        });
    }
    g.finish();
}

fn a4_swap_solo_scans(c: &mut Criterion) {
    let mut g = c.benchmark_group("a4_swap_solo_lemma_8_7");
    for n in [4usize, 8, 16, 32] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let protocol = SwapConsensus::new(n);
            let inputs = spread_inputs(n);
            b.iter(|| {
                let mut machine = cbh_sim::Machine::start(&protocol, &inputs).unwrap();
                machine.run_solo(0, 50_000_000).unwrap().expect("decides");
                // Lemma 8.7: ≤ 3n−2 scans ⇒ ≤ (3n−2)·2(n−1) reads + 3(n−1) swaps.
                let bound = (3 * n as u64 - 2) * 2 * (n as u64 - 1) + 3 * (n as u64 - 1);
                assert!(machine.steps() <= bound);
                machine.steps()
            });
        });
    }
    g.finish();
}

fn a5_symmetry_reduction(c: &mut Criterion) {
    // Anonymous protocol with duplicated inputs: the quotiented frontier is
    // the same verdict over a fraction of the states.
    let protocol = MaxRegConsensus::new(3);
    let inputs = [0u64, 0, 1];
    let limits = ExploreLimits {
        depth: 10,
        ..ExploreLimits::default()
    };
    let mut g = c.benchmark_group("explore_symmetry");
    for (label, reduced) in [("plain", false), ("reduced", true)] {
        let explorer = Explorer::new().limits(limits).symmetry_reduction(reduced);
        g.bench_function(format!("{label}/maxreg_n3_d10"), |b| {
            b.iter(|| explorer.explore(&protocol, &inputs).unwrap());
        });
    }
    g.finish();
}

fn f1_history_reconstruction(c: &mut Criterion) {
    let mut g = c.benchmark_group("f1_figure1_history_reconstruction");
    for ell in [2usize, 4, 8, 16] {
        g.bench_with_input(BenchmarkId::from_parameter(ell), &ell, |b, &ell| {
            // The Figure 1 pattern: a long pre-history, then ℓ concurrent
            // appends that all read the same history before any wrote.
            let old: Vec<Value> = (0..64)
                .map(|i| {
                    Record {
                        writer: 99,
                        seq: i,
                        payload: Value::int(i),
                    }
                    .encode()
                })
                .collect();
            let entries: Vec<Value> = (0..ell)
                .map(|w| {
                    Value::pair(
                        Value::seq(old.iter().cloned()),
                        Record {
                            writer: w as u64,
                            seq: 0,
                            payload: Value::int(w as u64),
                        }
                        .encode(),
                    )
                })
                .collect();
            b.iter(|| {
                let h = reconstruct_history(&entries);
                assert_eq!(h.len(), 64 + ell);
                h
            });
        });
    }
    g.finish();
}

fn row6_ell_sweep_consensus(c: &mut Criterion) {
    // Companion to F1: end-to-end buffer consensus across the ℓ spectrum at
    // fixed n, showing the space/step trade (fewer, fatter locations).
    let mut g = c.benchmark_group("f1_buffer_consensus_ell_sweep");
    let n = 6;
    let inputs = spread_inputs(n);
    for ell in [1usize, 2, 3, 6] {
        g.bench_with_input(BenchmarkId::from_parameter(ell), &ell, |b, &ell| {
            let protocol = buffer_consensus(n, ell);
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                contended_run(&protocol, &inputs, seed)
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = ablations;
    config = configure();
    targets =
        a1_counter_variants,
        a2_multi_assign,
        a3_randomized_transform,
        a4_swap_solo_scans,
        a5_symmetry_reduction,
        f1_history_reconstruction,
        row6_ell_sweep_consensus,
}
criterion_main!(ablations);
