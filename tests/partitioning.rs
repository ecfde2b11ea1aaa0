//! Partitioning behaviour end to end: Theorem 3.1's speedup, Algorithm
//! 3's budget compliance, Gauss-Seidel convergence, and parallelism.

mod common;

use common::four_testbeds;
use tuffy::{PartitionStrategy, Tuffy, TuffyConfig, WalkSatParams};
use tuffy_datagen::example1;
use tuffy_grounder::{ground_bottom_up, GroundingMode};
use tuffy_mrf::{ComponentSet, Partitioning};
use tuffy_rdbms::OptimizerConfig;

/// Theorem 3.1 / Figure 8: on Example 1 the component-aware search finds
/// the global optimum with a budget under which monolithic WalkSAT is
/// still far away.
#[test]
fn component_awareness_beats_monolithic_on_example1() {
    let n = 200usize;
    let budget = 80 * n as u64;
    let run = |strategy| {
        let cfg = TuffyConfig {
            partitioning: strategy,
            search: WalkSatParams {
                max_flips: budget,
                seed: 13,
                ..Default::default()
            },
            ..Default::default()
        };
        {
            let ds = example1(n);
            Tuffy::from_parts(ds.program, ds.evidence)
        }
        .with_config(cfg)
        .open_session()
        .unwrap()
        .map()
        .unwrap()
    };
    let aware = run(PartitionStrategy::Components);
    let mono = run(PartitionStrategy::None);
    // Optimum is cost n (each component pays its −1 clause).
    assert!(
        (aware.cost.soft - n as f64).abs() < 1e-6,
        "aware: {}",
        aware.cost
    );
    assert!(
        mono.cost.soft > aware.cost.soft,
        "monolithic {} should trail {}",
        mono.cost,
        aware.cost
    );
}

/// Algorithm 3 respects every memory budget, and smaller budgets produce
/// more partitions (Figure 6's setup).
#[test]
fn partition_budgets_are_respected_on_rc() {
    let ds = tuffy_datagen::rc(10, 6, 2);
    let g = ground_bottom_up(
        &ds.program,
        &ds.evidence,
        GroundingMode::LazyClosure,
        &OptimizerConfig::default(),
    )
    .unwrap();
    let mut prev_count = 0usize;
    for beta in [usize::MAX, 600, 120, 40] {
        let p = Partitioning::compute(&g.mrf, beta);
        for i in 0..p.count() {
            // Algorithm 3's tracked size never exceeds β. The realized
            // size can exceed it slightly when a skipped clause lands
            // fully inside a partition anyway (see `tracked_size` docs).
            assert!(
                p.tracked_size[i] <= beta as u64,
                "beta={beta}: partition {i} tracked size {}",
                p.tracked_size[i]
            );
            // The realized size (which counts clauses that were skipped
            // during merging but still fell inside one partition) is not
            // bounded by β — that is the documented slack of the paper's
            // greedy heuristic — but it is always ≥ the tracked size.
            assert!(p.size_metric(&g.mrf, i) as u64 >= p.tracked_size[i]);
        }
        assert!(
            p.count() >= prev_count,
            "smaller beta must not merge partitions"
        );
        prev_count = p.count();
        // No clause is lost.
        let internal: usize = p.internal_clauses.iter().map(Vec::len).sum();
        assert_eq!(internal + p.cut_clauses.len(), g.mrf.clauses().len());
    }
}

/// Gauss-Seidel over a split component still reaches zero hard cost and
/// sane soft cost.
#[test]
fn budget_strategy_converges_on_er() {
    let cfg = TuffyConfig {
        partitioning: PartitionStrategy::Budget(6_000),
        search: WalkSatParams {
            max_flips: 60_000,
            seed: 5,
            ..Default::default()
        },
        partition_rounds: 3,
        ..Default::default()
    };
    let r = {
        let ds = tuffy_datagen::er(5, 25, 5);
        Tuffy::from_parts(ds.program, ds.evidence)
    }
    .with_config(cfg)
    .open_session()
    .unwrap()
    .map()
    .unwrap();
    assert_eq!(r.cost.hard, 0, "hard symmetry must hold");
    // The budget shrinks the per-partition search state well below the
    // whole-MRF footprint (dense ER carries Algorithm 3's documented
    // realized-size slack, so the bound is relative, not absolute).
    let whole = {
        let ds = tuffy_datagen::er(5, 25, 5);
        Tuffy::from_parts(ds.program, ds.evidence)
    }
    .with_config(TuffyConfig {
        partitioning: PartitionStrategy::None,
        search: WalkSatParams {
            max_flips: 1_000,
            seed: 5,
            ..Default::default()
        },
        ..Default::default()
    })
    .open_session()
    .unwrap()
    .map()
    .unwrap();
    assert!(
        r.report.search_ram < whole.report.search_ram,
        "budgeted {} vs whole {}",
        r.report.search_ram,
        whole.report.search_ram
    );
}

/// Parallel and sequential component search produce identical solutions.
#[test]
fn parallel_matches_sequential_on_ie() {
    let run = |threads| {
        let cfg = TuffyConfig {
            threads,
            search: WalkSatParams {
                max_flips: 50_000,
                seed: 9,
                ..Default::default()
            },
            ..Default::default()
        };
        {
            let ds = tuffy_datagen::ie(60, 40, 9);
            Tuffy::from_parts(ds.program, ds.evidence)
        }
        .with_config(cfg)
        .open_session()
        .unwrap()
        .map()
        .unwrap()
    };
    let seq = run(1);
    let par = run(8);
    assert_eq!(format!("{}", seq.cost), format!("{}", par.cost));
    assert_eq!(seq.to_text(), par.to_text());
}

/// FFD bin packing groups the IE components into far fewer batches than
/// one-batch-per-component loading (§3.3 / Table 7's premise).
#[test]
fn ffd_batches_ie_components() {
    let ds = tuffy_datagen::ie(120, 50, 4);
    let g = ground_bottom_up(
        &ds.program,
        &ds.evidence,
        GroundingMode::LazyClosure,
        &OptimizerConfig::default(),
    )
    .unwrap();
    let cs = ComponentSet::detect(&g.mrf);
    let sizes: Vec<u64> = (0..cs.count())
        .filter(|&i| !cs.clauses[i].is_empty())
        .map(|i| cs.size_metric(&g.mrf, i) as u64)
        .collect();
    let capacity = sizes.iter().sum::<u64>() / 8;
    let bins = tuffy_mrf::binpack::first_fit_decreasing(&sizes, capacity);
    assert!(
        bins.len() * 4 < sizes.len(),
        "{} bins for {} components",
        bins.len(),
        sizes.len()
    );
    for b in &bins {
        assert!(b.total <= capacity || b.items.len() == 1);
    }
}

/// Loading one component at a time needs less RAM than the whole MRF
/// (Table 5's RAM column).
#[test]
fn search_ram_reflects_partitioning() {
    let search_ram = |partitioning| {
        let ds = tuffy_datagen::rc(6, 4, 3);
        let cfg = TuffyConfig {
            partitioning,
            search: WalkSatParams {
                max_flips: 5_000,
                seed: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let tuffy = Tuffy::from_parts(ds.program, ds.evidence).with_config(cfg);
        tuffy
            .open_session()
            .unwrap()
            .map()
            .unwrap()
            .report
            .search_ram
    };
    let whole = search_ram(PartitionStrategy::None);
    let comps = search_ram(PartitionStrategy::Components);
    assert!(comps <= whole, "components {comps} vs whole {whole}");
}

/// At β = ∞ Algorithm 3 skips its weight sort and scans clauses in
/// order; its partitions must still be exactly the connected components
/// on `tuffy-bench`'s four search-scale testbeds.
#[test]
fn unbounded_partitioning_is_the_component_set_on_the_four_testbeds() {
    for ds in four_testbeds() {
        let g = ground_bottom_up(
            &ds.program,
            &ds.evidence,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        let parts = Partitioning::compute(&g.mrf, usize::MAX);
        let components = ComponentSet::detect(&g.mrf);
        assert_eq!(parts.label, components.label, "{}", ds.name);
        assert_eq!(parts.atoms, components.atoms, "{}", ds.name);
        assert_eq!(parts.internal_clauses, components.clauses, "{}", ds.name);
        assert!(parts.cut_clauses.is_empty(), "{}", ds.name);
    }
}
