//! Cold-start grounding: wall time versus worker threads, with the
//! statistics lesion.
//!
//! The parallel-grounding redesign's reason to exist, measured: each
//! grounding-scale dataset is grounded from scratch at 1, 2, 4, and 8
//! worker threads, with the stats-driven optimizer on (default) and off
//! (`--no-stats`: `ANALYZE`d row counts and NDVs replaced by raw table
//! lengths). The deterministic-merge contract means every
//! cell of this table produces the *identical* `GroundingResult` — the
//! threads axis buys only time, never a different MRF (enforced by
//! `tests/grounding_determinism.rs`).
//!
//! Speedup is wall-clock and therefore bounded by `min(threads,
//! host_cpus)`; the JSON records `host_cpus` so numbers from
//! core-starved CI hosts read as what they are.
//!
//! Writes `BENCH_ground.json` at the repository root (full runs only —
//! `--smoke` keeps CI from overwriting the committed numbers)
//! (`cargo run --release -p tuffy-bench --bin exp_ground`).

use crate::format::TextTable;
use std::time::Instant;
use tuffy_datagen::Dataset;
use tuffy_grounder::{ground_bottom_up_threaded, GroundingMode};
use tuffy_rdbms::OptimizerConfig;

/// Worker-thread counts measured.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One (dataset, thread-count) cell.
pub struct GroundRate {
    /// Dataset name.
    pub dataset: String,
    /// Ground clauses produced (identical across the whole row).
    pub clauses: usize,
    /// Worker threads.
    pub threads: usize,
    /// Best-of-reps wall seconds, stats-driven optimizer on.
    pub secs: f64,
    /// Best-of-reps wall seconds with the statistics lesion.
    pub secs_no_stats: f64,
}

fn time_ground(
    ds: &Dataset,
    config: &OptimizerConfig,
    threads: usize,
    reps: usize,
) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut clauses = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let g = ground_bottom_up_threaded(
            &ds.program,
            &ds.evidence,
            GroundingMode::LazyClosure,
            config,
            threads,
        )
        .expect("grounding");
        best = best.min(t0.elapsed().as_secs_f64());
        clauses = g.mrf.num_clauses();
    }
    (best, clauses)
}

/// Grounds every dataset at every thread count, both optimizer arms.
pub fn measure(smoke: bool) -> Vec<GroundRate> {
    let datasets: Vec<Dataset> = if smoke {
        vec![
            crate::datasets::er_bench(),
            crate::datasets::lp_bench(),
            crate::datasets::rc_bench(),
        ]
    } else {
        vec![
            crate::datasets::er_ground(),
            crate::datasets::lp_ground(),
            crate::datasets::rc_ground(),
        ]
    };
    let reps = if smoke { 1 } else { 3 };
    let no_stats = OptimizerConfig {
        use_stats: false,
        ..Default::default()
    };
    let mut out = Vec::new();
    for ds in &datasets {
        for &threads in &THREADS {
            let (secs, clauses) = time_ground(ds, &OptimizerConfig::default(), threads, reps);
            let (secs_no_stats, lesion_clauses) = time_ground(ds, &no_stats, threads, reps);
            assert_eq!(
                clauses, lesion_clauses,
                "optimizer lesion changed the grounding itself"
            );
            out.push(GroundRate {
                dataset: ds.name.clone(),
                clauses,
                threads,
                secs,
                secs_no_stats,
            });
        }
    }
    out
}

fn baseline_secs(rates: &[GroundRate], dataset: &str) -> f64 {
    rates
        .iter()
        .find(|r| r.dataset == dataset && r.threads == 1)
        .map(|r| r.secs)
        .unwrap_or(f64::NAN)
}

/// Renders the measurements as the `BENCH_ground.json` document.
pub fn to_json(rates: &[GroundRate]) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut body =
        String::from("{\n  \"bench\": \"grounding_cold_start\",\n  \"unit\": \"seconds\",\n");
    body.push_str(&format!("  \"host_cpus\": {cpus},\n  \"cells\": [\n"));
    for (i, r) in rates.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"clauses\": {}, \"threads\": {}, \
             \"secs\": {:.6}, \"speedup\": {:.2}, \"secs_no_stats\": {:.6}, \
             \"stats_gain\": {:.2}}}{}\n",
            r.dataset,
            r.clauses,
            r.threads,
            r.secs,
            baseline_secs(rates, &r.dataset) / r.secs.max(1e-12),
            r.secs_no_stats,
            r.secs_no_stats / r.secs.max(1e-12),
            if i + 1 == rates.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]\n}\n");
    body
}

/// Builds the report; full runs also write `BENCH_ground.json` at the
/// repository root.
pub fn report_with(smoke: bool) -> String {
    let rates = measure(smoke);
    if !smoke {
        let json = to_json(&rates);
        if let Err(e) = std::fs::write("BENCH_ground.json", &json) {
            eprintln!("warning: could not write BENCH_ground.json: {e}");
        } else {
            eprintln!("(written to BENCH_ground.json)");
        }
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "Cold-start grounding time vs worker threads, stats lesion alongside\n\
         (every cell produces the identical GroundingResult; wall-clock speedup\n\
         is bounded by min(threads, host_cpus) — this host has {cpus} CPU(s);\n\
         regenerate with `cargo run --release -p tuffy-bench --bin exp_ground`)\n\n",
    );
    let mut t = TextTable::new(vec![
        "dataset",
        "clauses",
        "threads",
        "secs",
        "speedup",
        "no-stats secs",
        "stats gain",
    ]);
    for r in &rates {
        t.row(vec![
            r.dataset.clone(),
            r.clauses.to_string(),
            r.threads.to_string(),
            format!("{:.3}", r.secs),
            format!(
                "{:.2}x",
                baseline_secs(&rates, &r.dataset) / r.secs.max(1e-12)
            ),
            format!("{:.3}", r.secs_no_stats),
            format!("{:.2}x", r.secs_no_stats / r.secs.max(1e-12)),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Full-scale report (the `exp_all` entry).
pub fn report() -> String {
    report_with(false)
}
