//! Criterion micro-benchmarks: WalkSAT flip throughput (the quantity
//! behind Table 3's in-memory rates).
//!
//! `walksat_flips` drives full WalkSAT steps (sample + greedy/noise
//! choice + flip); `walksat_flip_loop` isolates the raw
//! [`WalkSat::flip`] bookkeeping over the CSR occurrence arena with no
//! RNG or clause sampling in the measured path.
//!
//! Every case but `er_out_of_cache` keeps its search columns in L2. That
//! one (≈ 238 k clauses) has a 4 B counter and a 16 B violation record per
//! clause, ≈ 4.8 MB, so its flips pay for the memory traffic the flip
//! loop's loads cause, as ER's 913 k clauses do in the repo benchmark's
//! `cold_er`. It runs 100 k flips per iteration, so that building the
//! solver's counters does not dominate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tuffy_grounder::{ground_bottom_up, GroundingMode};
use tuffy_rdbms::OptimizerConfig;
use tuffy_search::WalkSat;

/// `(name, dataset, flips per iteration)`.
fn workloads() -> Vec<(&'static str, tuffy_datagen::Dataset, u64)> {
    vec![
        ("example1_200", tuffy_datagen::example1(200), 10_000),
        ("rc_small", tuffy_datagen::rc(20, 6, 7), 10_000),
        ("er_small", tuffy_datagen::er(8, 40, 7), 10_000),
        ("lp_small", tuffy_datagen::lp(5, 4, 7), 10_000),
        ("ie_small", tuffy_datagen::ie(120, 80, 7), 10_000),
        ("er_out_of_cache", tuffy_datagen::er(24, 130, 7), 100_000),
    ]
}

fn ground(ds: &tuffy_datagen::Dataset) -> tuffy_mrf::Mrf {
    ground_bottom_up(
        &ds.program,
        &ds.evidence,
        GroundingMode::LazyClosure,
        &OptimizerConfig::default(),
    )
    .expect("grounding")
    .mrf
}

fn bench_flips(c: &mut Criterion) {
    let mut group = c.benchmark_group("walksat_flips");
    for (name, ds, flips) in workloads() {
        let mrf = ground(&ds);
        group.throughput(Throughput::Elements(flips));
        group.bench_with_input(BenchmarkId::from_parameter(name), &mrf, |b, mrf| {
            b.iter(|| {
                let mut ws = WalkSat::new(mrf, 42);
                for _ in 0..flips {
                    if !ws.step(0.5) {
                        break;
                    }
                }
                ws.best_cost()
            });
        });
    }
    group.finish();
}

fn bench_flip_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("walksat_flip_loop");
    for (name, ds, flips) in workloads() {
        let mrf = ground(&ds);
        group.throughput(Throughput::Elements(flips));
        group.bench_with_input(BenchmarkId::from_parameter(name), &mrf, |b, mrf| {
            b.iter(|| {
                let n = mrf.num_atoms() as u64;
                let mut ws = WalkSat::new(mrf, 42);
                for i in 0..flips {
                    // Deterministic atom sweep stride, coprime with most
                    // atom counts, keeps the access pattern non-trivial.
                    ws.flip(((i * 7) % n) as u32);
                }
                ws.cost()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flips, bench_flip_loop);
criterion_main!(benches);
