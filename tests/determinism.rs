//! Determinism matrix: a fixed seed must produce identical best-cost
//! trajectories and final truth assignments through the *full*
//! `tuffy-core` pipeline at every worker-pool size, for both the
//! component schedule and the memory-budgeted Gauss-Seidel schedule.
//! (Partition passes seed from (partition, round) alone and merge in
//! schedule order, so thread count must never show in the results.)
//! Marginal and top-k answers, and the default configuration, which
//! takes every core, are held to the same standard.

mod common;

use common::four_testbeds;
use tuffy::{
    MapResult, McSatParams, PartitionStrategy, Query, QueryAnswer, Tuffy, TuffyConfig,
    WalkSatParams,
};
use tuffy_datagen::Dataset;
use tuffy_search::MIN_FLIPS_PER_WORKER;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A flip budget that pays for every pool size in [`THREADS`]: the
/// engine cuts a MAP's pool to what its flips pay for
/// (`SchedulerConfig::paid_by_flips`), so each size really runs that
/// many workers.
const FLIPS: u64 = 8 * MIN_FLIPS_PER_WORKER;

fn config(strategy: PartitionStrategy, threads: usize) -> TuffyConfig {
    TuffyConfig {
        partitioning: strategy,
        threads,
        partition_rounds: 3,
        search: WalkSatParams {
            max_flips: FLIPS,
            seed: 77,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn run_config(program: &Dataset, cfg: TuffyConfig) -> MapResult {
    Tuffy::from_parts(program.program.clone(), program.evidence.clone())
        .with_config(cfg)
        .open_session()
        .unwrap()
        .map()
        .unwrap()
}

fn run(program: &Dataset, strategy: PartitionStrategy, threads: usize) -> MapResult {
    run_config(program, config(strategy, threads))
}

/// Everything about a run that must be thread-count invariant: the final
/// world, its cost, the flips spent, and the whole (flips, cost)
/// trajectory. Wall-clock fields are deliberately excluded.
fn fingerprint(r: &MapResult) -> (String, String, u64, Vec<(u64, String)>) {
    (
        r.to_text(),
        format!("{}", r.cost),
        r.report.flips,
        r.trace
            .points()
            .iter()
            .map(|p| (p.flips, format!("{}", p.cost)))
            .collect(),
    )
}

#[test]
fn component_schedule_is_deterministic_across_thread_counts() {
    let ds = tuffy_datagen::ie(60, 40, 9);
    let base = fingerprint(&run(&ds, PartitionStrategy::Components, THREADS[0]));
    for &threads in &THREADS[1..] {
        let r = fingerprint(&run(&ds, PartitionStrategy::Components, threads));
        assert_eq!(r, base, "threads={threads} diverged");
    }
}

#[test]
fn budgeted_schedule_is_deterministic_across_thread_counts() {
    // A small budget forces Algorithm 3 splits, cut clauses, and several
    // Gauss-Seidel rounds — the most order-sensitive code path.
    let ds = tuffy_datagen::rc(10, 6, 2);
    let base = fingerprint(&run(&ds, PartitionStrategy::Budget(4_000), THREADS[0]));
    for &threads in &THREADS[1..] {
        let r = fingerprint(&run(&ds, PartitionStrategy::Budget(4_000), threads));
        assert_eq!(r, base, "threads={threads} diverged");
    }
}

#[test]
fn repeated_runs_are_bitwise_identical() {
    let ds = tuffy_datagen::er(5, 25, 5);
    let a = fingerprint(&run(&ds, PartitionStrategy::Budget(6_000), 4));
    let b = fingerprint(&run(&ds, PartitionStrategy::Budget(6_000), 4));
    assert_eq!(a, b);
}

#[test]
fn default_config_matches_one_thread_on_the_four_testbeds() {
    for ds in four_testbeds() {
        let default = TuffyConfig {
            search: WalkSatParams {
                max_flips: FLIPS,
                seed: 77,
                ..Default::default()
            },
            ..Default::default()
        };
        let one = TuffyConfig {
            threads: 1,
            ..default
        };
        assert_eq!(
            fingerprint(&run_config(&ds, default)),
            fingerprint(&run_config(&ds, one)),
            "{}: the default diverged from one thread",
            ds.name
        );
    }
}

/// Every probability of a marginal answer and every entry of a top-k
/// answer, as exact bits.
fn sampled(ds: &Dataset, strategy: PartitionStrategy, threads: usize) -> Vec<(String, u64)> {
    let engine = Tuffy::from_parts(ds.program.clone(), ds.evidence.clone())
        .with_config(config(strategy, threads))
        .build_engine()
        .unwrap();
    let mcsat = McSatParams {
        samples: 60,
        seed: 5,
        ..Default::default()
    };
    let snapshot = engine.snapshot();
    let mut bits = Vec::new();
    for query in [Query::marginal_all(), Query::top_k("field", 25)] {
        match snapshot.query(&query.with_mcsat(mcsat)).unwrap() {
            QueryAnswer::Marginal(m) => bits.extend(
                m.names
                    .iter()
                    .zip(&m.marginals)
                    .map(|(name, (_, p))| (name.clone(), p.to_bits())),
            ),
            QueryAnswer::TopK(t) => bits.extend(
                t.entries
                    .iter()
                    .map(|e| (e.name.clone(), e.probability.to_bits())),
            ),
            QueryAnswer::Map(_) => unreachable!("no MAP query was asked"),
        }
    }
    bits
}

#[test]
fn marginals_are_independent_of_the_thread_count() {
    // `Budget` samples through the scheduler: 60 components in 12 bins,
    // several per bin for the pool. `Components` runs one sampler.
    let ds = tuffy_datagen::ie(60, 40, 9);
    for strategy in [
        PartitionStrategy::Components,
        PartitionStrategy::Budget(4_000),
    ] {
        let base = sampled(&ds, strategy, 1);
        assert!(!base.is_empty());
        for threads in [2, 4] {
            assert_eq!(
                sampled(&ds, strategy, threads),
                base,
                "{strategy:?}: threads={threads} diverged"
            );
        }
    }
}
