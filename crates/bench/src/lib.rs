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

use std::time::Duration;
use tuffy::{Architecture, PartitionStrategy, Tuffy, TuffyConfig, WalkSatParams};
use tuffy_datagen::Dataset;

pub mod alchemy_model;
pub mod datasets;
pub mod experiments;
pub mod format;

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

/// The Alchemy-style baseline: top-down grounding + monolithic search.
pub fn alchemy_config(max_flips: u64) -> TuffyConfig {
    TuffyConfig {
        architecture: Architecture::InMemory,
        partitioning: PartitionStrategy::None,
        ..tuffy_config(max_flips)
    }
}

/// `Tuffy-mm`: RDBMS-resident search with an SSD-like simulated disk.
/// The pool holds nothing (capacity 0): Tuffy-mm exists for MRFs much
/// larger than memory, so at bench scale we model the
/// every-access-misses regime rather than let a toy-sized clause table
/// become pool-resident.
pub fn tuffy_mm_config(max_flips: u64) -> TuffyConfig {
    TuffyConfig {
        architecture: Architecture::RdbmsOnly,
        disk: tuffy::DiskModel::ssd(),
        pool_pages: 0,
        ..tuffy_config(max_flips)
    }
}

/// Runs MAP inference on a dataset under a configuration (a one-shot
/// session: ground, search, report).
pub fn run(dataset: Dataset, cfg: TuffyConfig) -> tuffy::MapResult {
    Tuffy::from_parts(dataset.program, dataset.evidence)
        .with_config(cfg)
        .open_session()
        .expect("grounding")
        .map()
        .expect("inference")
}

/// Formats a duration in seconds with 2 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}
