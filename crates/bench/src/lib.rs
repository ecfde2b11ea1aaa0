//! # tuffy-bench — the paper reproductions
//!
//! One report per table and figure of the paper's evaluation (§4 and
//! Appendix C), plus the weight-learning report and Criterion
//! micro-benchmarks. Each report regenerates its table/figure on the
//! synthetic testbeds of `tuffy-datagen`, printing the paper's reported
//! numbers next to the measured ones. Absolute values differ (different
//! hardware, synthetic data, scaled-down sizes — the `tuffy-datagen`
//! crate docs say how each testbed is calibrated); the *shape* — who
//! wins and by roughly what factor — is the reproduction target.
//!
//! Run one report: `cargo run --release -p tuffy-bench -- table2`;
//! run everything: `cargo run --release -p tuffy-bench -- all`. Timing
//! claims about the system itself are the repo benchmark's
//! (`BENCHMARK.json`), not these reports'.

use std::time::{Duration, Instant};
use tuffy::{
    Cost, InferenceReport, PartitionStrategy, TimeCostTrace, Tuffy, TuffyConfig, WalkSatParams,
};
use tuffy_datagen::Dataset;
use tuffy_grounder::{ground_top_down, GroundingResult};
use tuffy_mrf::memory::MemoryFootprint;
use tuffy_search::{flip_rate, WalkSat};

pub mod alchemy_model;
pub mod datasets;
pub mod experiments;
pub mod format;
pub mod rdbms_search;

use rdbms_search::{RdbmsSearch, SSD};

/// Standard seeds so every experiment is reproducible.
pub const SEED: u64 = 20110829; // VLDB 2011's first day

/// Builds the default Tuffy (hybrid, component-aware) configuration with
/// a flip budget.
pub fn tuffy_config(max_flips: u64) -> TuffyConfig {
    TuffyConfig {
        search: WalkSatParams {
            max_flips,
            seed: SEED,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// `Tuffy-p`: partitioning disabled.
pub fn tuffy_p_config(max_flips: u64) -> TuffyConfig {
    TuffyConfig {
        partitioning: PartitionStrategy::None,
        ..tuffy_config(max_flips)
    }
}

/// One MAP run of a system under comparison.
pub struct Run {
    /// Cost of the best world found.
    pub cost: Cost,
    /// Best cost over time, offset by the grounding time.
    pub trace: TimeCostTrace,
    /// Run measurements. The baselines do not look for components, so
    /// they leave the component and partition counts at 0.
    pub report: InferenceReport,
}

/// Runs MAP inference on a dataset under a configuration (a one-shot
/// session: ground, search, report).
pub fn run(dataset: Dataset, cfg: TuffyConfig) -> Run {
    let r = Tuffy::from_parts(dataset.program, dataset.evidence)
        .with_config(cfg)
        .open_session()
        .expect("grounding")
        .map()
        .expect("inference");
    Run {
        cost: r.cost,
        trace: r.trace,
        report: r.report,
    }
}

/// The Alchemy-style baseline: top-down in-memory grounding, then one
/// monolithic WalkSAT from the all-false state, unaware of components.
pub fn alchemy(dataset: Dataset, max_flips: u64) -> Run {
    let cfg = tuffy_config(max_flips);
    let grounding =
        ground_top_down(&dataset.program, &dataset.evidence, cfg.grounding).expect("grounding");
    let mrf = &grounding.mrf;
    let mut trace = TimeCostTrace::with_offset(grounding.stats.wall);
    let started = Instant::now();
    let ws = WalkSat::run_from(
        mrf,
        vec![false; mrf.num_atoms()],
        &cfg.search,
        Some(&mut trace),
    );
    let search_time = started.elapsed();
    let report = InferenceReport {
        flips: ws.flips(),
        search_time,
        search_ram: MemoryFootprint::of(mrf).total(),
        flips_per_sec: flip_rate(ws.flips(), search_time),
        ..report_of(&grounding)
    };
    Run {
        cost: ws.best_cost(),
        trace,
        report,
    }
}

/// `Tuffy-mm`: bottom-up grounding, then WalkSAT against the clause
/// table in the RDBMS on a simulated SSD, whose I/O its search time and
/// flip rate include. Tuffy-mm is for MRFs much larger than memory, so
/// every scan reads every page of the table from disk.
pub fn tuffy_mm(dataset: Dataset, max_flips: u64) -> Run {
    let cfg = tuffy_config(max_flips);
    let grounding = Tuffy::from_parts(dataset.program, dataset.evidence)
        .with_config(cfg)
        .ground()
        .expect("grounding");
    let mrf = &grounding.mrf;
    let mut trace = TimeCostTrace::with_offset(grounding.stats.wall);
    let r = RdbmsSearch::new(mrf, SSD, cfg.search.seed).run(
        max_flips,
        cfg.search.noise,
        Some(&mut trace),
    );
    let report = InferenceReport {
        flips: r.flips,
        search_time: r.wall + r.simulated_io,
        search_ram: mrf.num_atoms() * 2, // truth arrays only
        flips_per_sec: r.flips_per_sec,
        ..report_of(&grounding)
    };
    Run {
        cost: r.cost,
        trace,
        report,
    }
}

/// The grounding half of a baseline's report.
fn report_of(grounding: &GroundingResult) -> InferenceReport {
    InferenceReport {
        grounding: grounding.stats.clone(),
        clauses: grounding.mrf.clauses().len(),
        atoms: grounding.registry.len(),
        clause_table_bytes: grounding.mrf.clause_bytes(),
        ..Default::default()
    }
}

/// Formats a duration in seconds with 2 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}
