//! Scenario regressions: every datagen workload (ER, IE, LP, RC) runs
//! the partitioned pipeline — small memory budget, worker pool, Gauss-
//! Seidel rounds — end to end, pinning cost and marginal sanity bounds
//! so each scenario exercises the scheduler on every change.

use tuffy::{McSatParams, PartitionStrategy, Query, Tuffy, TuffyConfig, WalkSatParams};
use tuffy_datagen::Dataset;

/// The partitioned configuration under test: a budget small enough to
/// split real components, a pool of two workers, and a few Gauss-Seidel
/// rounds. The marginal scenario samples on both workers; a MAP budget
/// under 2 × `MIN_FLIPS_PER_WORKER` pays for one, so the MAP scenarios
/// search on one (`tests/determinism.rs` runs the pool sizes).
fn partitioned(budget: usize, max_flips: u64) -> TuffyConfig {
    TuffyConfig {
        partitioning: PartitionStrategy::Budget(budget),
        threads: 2,
        partition_rounds: 3,
        search: WalkSatParams {
            max_flips,
            seed: 2024,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn run_map(ds: Dataset, cfg: TuffyConfig) -> tuffy::MapResult {
    Tuffy::from_parts(ds.program, ds.evidence)
        .with_config(cfg)
        .open_session()
        .unwrap()
        .map()
        .unwrap()
}

#[test]
fn er_partitioned_keeps_hard_symmetry_and_bounded_cost() {
    let r = run_map(tuffy_datagen::er(5, 25, 5), partitioned(6_000, 60_000));
    eprintln!(
        "ER: cost={} partitions={} bins={} rounds={}",
        r.cost, r.report.partitions, r.report.bins, r.report.rounds
    );
    assert_eq!(r.cost.hard, 0, "hard symmetry/transitivity must hold");
    assert!(
        r.report.partitions >= 2,
        "budget should split the ER component"
    );
    // Observed 1.44 at this seed; anything past 5 means the Gauss-Seidel
    // rounds stopped repairing the transitivity cut.
    assert!(r.cost.soft < 5.0, "ER cost regressed: {}", r.cost);
}

#[test]
fn ie_partitioned_solves_components_and_samples_sane_marginals() {
    let r = run_map(tuffy_datagen::ie(60, 40, 9), partitioned(4_000, 50_000));
    eprintln!(
        "IE: cost={} partitions={} bins={} rounds={}",
        r.cost, r.report.partitions, r.report.bins, r.report.rounds
    );
    assert_eq!(r.cost.hard, 0);
    assert!(r.report.bins >= 2, "IE components should spread over bins");
    // Observed 88.5 at this seed.
    assert!(r.cost.soft < 180.0, "IE cost regressed: {}", r.cost);
    // Marginals through the same partitioned scheduler (IE weights are
    // non-negative, so MC-SAT applies).
    let m = {
        let ds = tuffy_datagen::ie(60, 40, 9);
        Tuffy::from_parts(ds.program, ds.evidence)
    }
    .with_config(partitioned(4_000, 10_000))
    .build_engine()
    .unwrap()
    .snapshot()
    .query(&Query::marginal_all().with_mcsat(McSatParams {
        samples: 150,
        burn_in: 15,
        sample_sat_steps: 150,
        seed: 2024,
        ..Default::default()
    }))
    .unwrap()
    .into_marginal()
    .unwrap();
    assert!(!m.marginals.is_empty());
    for (ga, p) in &m.marginals {
        assert!((0.0..=1.0).contains(p), "P({ga:?}) = {p} out of [0,1]");
    }
    let mean = m.marginals.iter().map(|(_, p)| p).sum::<f64>() / m.marginals.len() as f64;
    eprintln!("IE: mean marginal {mean:.3}");
    assert!((0.05..0.95).contains(&mean), "degenerate marginals: {mean}");
}

#[test]
fn lp_partitioned_terminates_with_bounded_cost() {
    let r = run_map(tuffy_datagen::lp(5, 4, 2024), partitioned(8_000, 60_000));
    eprintln!(
        "LP: cost={} partitions={} bins={} rounds={}",
        r.cost, r.report.partitions, r.report.bins, r.report.rounds
    );
    assert_eq!(r.cost.hard, 0);
    // Observed 59.75 at this seed.
    assert!(r.cost.soft < 120.0, "LP cost regressed: {}", r.cost);
}

#[test]
fn rc_partitioned_classifies_with_bounded_cost() {
    let r = run_map(tuffy_datagen::rc(10, 6, 2), partitioned(4_000, 50_000));
    eprintln!(
        "RC: cost={} partitions={} bins={} rounds={}",
        r.cost, r.report.partitions, r.report.bins, r.report.rounds
    );
    assert_eq!(r.cost.hard, 0);
    // Observed 32.9 at this seed.
    assert!(r.cost.soft < 70.0, "RC cost regressed: {}", r.cost);
    assert!(!r.true_atoms().is_empty(), "RC must label some papers");
}
