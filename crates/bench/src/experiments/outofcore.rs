//! Durable generations and out-of-core grounding: the `tuffy-store`
//! subsystem, measured.
//!
//! Two claims, two tables:
//!
//! 1. **Warm start.** Grounding is the expensive half of a Tuffy run;
//!    `Engine::save` persists the grounded generation (page-aligned,
//!    checksummed segment file) and `Engine::load` revives it without
//!    touching the grounder. The table reports cold-ground wall time
//!    against load wall time — the load column must win by an order of
//!    magnitude — and proves the revived engine answers the same MAP
//!    query *bit-identically* (cost compared via `f64::to_bits`, true
//!    atoms compared exactly).
//!
//! 2. **Spill.** With `OptimizerConfig::mem_budget_bytes` set, join
//!    state beyond the budget goes to sorted on-disk runs
//!    (grace-hash); the grounding that comes back is bit-identical to
//!    the unbounded run of the same executor (same atom numbering, same
//!    clause arenas). The table grounds each workload far above its
//!    budget — the `runs` column proves relations actually spilled —
//!    and reports the overhead paid for bounded memory.
//!
//! Smoke runs the `scale == 1` baselines of the `tuffy-datagen` scale
//! knobs ([`tuffy_datagen::er_scaled`], [`tuffy_datagen::rc_scaled`]);
//! full runs grounding-scale RC (the acceptance workload) and 4× ER.
//! Full runs write `BENCH_store.json` at the repository root
//! (`cargo run --release -p tuffy-bench --bin exp_outofcore`).

use crate::format::TextTable;
use std::time::Instant;
use tuffy::{Engine, OptimizerConfig, Query, Tuffy};
use tuffy_datagen::{er_scaled, rc_scaled, Dataset};
use tuffy_grounder::{ground_bottom_up, GroundingMode};

/// Join-state budget for the full-scale spill arm: small enough that
/// every full workload overflows it many times over.
pub const SPILL_BUDGET_BYTES: usize = 64 * 1024;

/// Budget for the smoke arm, sized so even the `scale == 1` baselines
/// genuinely exceed it.
pub const SMOKE_BUDGET_BYTES: usize = 4 * 1024;

/// One save/load cell: cold grounding versus reviving the stored file.
pub struct StoreCell {
    /// Dataset name.
    pub dataset: String,
    /// Ground clauses in the generation.
    pub clauses: usize,
    /// Wall seconds to ground from sources (parse + ground + index).
    pub ground_secs: f64,
    /// Wall seconds for `Engine::save`.
    pub save_secs: f64,
    /// Wall seconds for `Engine::load`.
    pub load_secs: f64,
    /// Stored file size in bytes.
    pub file_bytes: u64,
    /// Whether the loaded engine answered the probe MAP query
    /// bit-identically (cost bits and true-atom set).
    pub identical: bool,
}

impl StoreCell {
    /// Cold-ground time over load time — the warm-start win.
    pub fn speedup(&self) -> f64 {
        self.ground_secs / self.load_secs.max(1e-9)
    }
}

/// One spill cell: budgeted grounding versus unbounded in-memory.
pub struct SpillCell {
    /// Dataset name.
    pub dataset: String,
    /// Join-state budget the spill arm ran under.
    pub budget_bytes: usize,
    /// Ground clauses (identical across both arms).
    pub clauses: usize,
    /// Wall seconds, unbounded in-memory join state.
    pub inmem_secs: f64,
    /// Wall seconds under [`SPILL_BUDGET_BYTES`].
    pub spill_secs: f64,
    /// Sorted runs written to disk (> 0 proves the budget was exceeded).
    pub runs_written: u64,
    /// Bytes spilled to disk.
    pub bytes_spilled: u64,
    /// Whether the spilled MRF is bit-identical to the in-memory one.
    pub identical: bool,
}

fn workloads(smoke: bool) -> Vec<Dataset> {
    if smoke {
        vec![rc_scaled(1, crate::SEED), er_scaled(1, crate::SEED)]
    } else {
        // Grounding-scale RC (the acceptance workload for the warm-start
        // claim) plus a 4× ER whose join state dwarfs any sane budget.
        vec![crate::datasets::rc_ground(), er_scaled(4, crate::SEED)]
    }
}

/// MAP answers compared bit-for-bit: exact cost bits, exact atom set.
fn map_fingerprint(engine: &Engine) -> (u64, u64, Vec<tuffy_mln::GroundAtom>) {
    let answer = engine
        .snapshot()
        .query(&Query::map())
        .expect("MAP query on grounded engine");
    let map = answer.as_map().expect("MAP answer");
    (
        map.cost.hard,
        map.cost.soft.to_bits(),
        map.true_atoms().to_vec(),
    )
}

fn store_scratch_dir(dataset: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "tuffy-exp-outofcore-{}-{dataset}",
        std::process::id()
    ))
}

/// Grounds, saves, reloads, and cross-checks each workload.
pub fn measure_store(smoke: bool) -> Vec<StoreCell> {
    let mut out = Vec::new();
    for ds in workloads(smoke) {
        let name = ds.name.clone();
        let config = crate::tuffy_config(10_000);
        let t0 = Instant::now();
        let engine = Tuffy::from_parts(ds.program, ds.evidence)
            .with_config(config)
            .build_engine()
            .expect("grounding");
        let ground_secs = t0.elapsed().as_secs_f64();
        let clauses = engine.snapshot().grounding().mrf.num_clauses();

        let dir = store_scratch_dir(&name);
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let path = engine.save(&dir).expect("save generation");
        let save_secs = t0.elapsed().as_secs_f64();
        let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

        let t0 = Instant::now();
        let loaded = Engine::load(&dir).expect("load generation");
        let load_secs = t0.elapsed().as_secs_f64();

        let identical = map_fingerprint(&engine) == map_fingerprint(&loaded);
        assert!(identical, "{name}: loaded engine diverged from original");
        let _ = std::fs::remove_dir_all(&dir);
        out.push(StoreCell {
            dataset: name,
            clauses,
            ground_secs,
            save_secs,
            load_secs,
            file_bytes,
            identical,
        });
    }
    out
}

/// Grounds each workload with and without the memory budget and
/// cross-checks the MRFs bit-for-bit.
pub fn measure_spill(smoke: bool) -> Vec<SpillCell> {
    let budget_bytes = if smoke {
        SMOKE_BUDGET_BYTES
    } else {
        SPILL_BUDGET_BYTES
    };
    let mut out = Vec::new();
    for ds in workloads(smoke) {
        let t0 = Instant::now();
        let inmem = ground_bottom_up(
            &ds.program,
            &ds.evidence,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .expect("in-memory grounding");
        let inmem_secs = t0.elapsed().as_secs_f64();

        let budgeted = OptimizerConfig {
            mem_budget_bytes: budget_bytes,
            ..Default::default()
        };
        let t0 = Instant::now();
        let spilled = ground_bottom_up(
            &ds.program,
            &ds.evidence,
            GroundingMode::LazyClosure,
            &budgeted,
        )
        .expect("out-of-core grounding");
        let spill_secs = t0.elapsed().as_secs_f64();

        assert!(
            spilled.stats.spill.runs_written > 0,
            "{}: workload never exceeded the {budget_bytes}-byte budget",
            ds.name
        );
        let (a, b) = (spilled.mrf.export_columns(), inmem.mrf.export_columns());
        let identical = a.lit_start == b.lit_start
            && a.lit_arena == b.lit_arena
            && a.weights == b.weights
            && a.provenance == b.provenance
            && a.base_cost == b.base_cost
            && spilled.registry.len() == inmem.registry.len();
        assert!(identical, "{}: spilled grounding diverged", ds.name);
        out.push(SpillCell {
            dataset: ds.name,
            budget_bytes,
            clauses: inmem.mrf.num_clauses(),
            inmem_secs,
            spill_secs,
            runs_written: spilled.stats.spill.runs_written,
            bytes_spilled: spilled.stats.spill.bytes_spilled,
            identical,
        });
    }
    out
}

/// Renders the measurements as the `BENCH_store.json` document.
pub fn to_json(stores: &[StoreCell], spills: &[SpillCell]) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut body = String::from("{\n  \"bench\": \"store_outofcore\",\n  \"unit\": \"seconds\",\n");
    body.push_str(&format!("  \"host_cpus\": {cpus},\n  \"store_cells\": [\n"));
    for (i, c) in stores.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"clauses\": {}, \"ground_secs\": {:.6}, \
             \"save_secs\": {:.6}, \"load_secs\": {:.6}, \"load_speedup\": {:.2}, \
             \"file_bytes\": {}, \"bit_identical\": {}}}{}\n",
            c.dataset,
            c.clauses,
            c.ground_secs,
            c.save_secs,
            c.load_secs,
            c.speedup(),
            c.file_bytes,
            c.identical,
            if i + 1 == stores.len() { "" } else { "," }
        ));
    }
    body.push_str("  ],\n  \"spill_cells\": [\n");
    for (i, c) in spills.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"budget_bytes\": {}, \"clauses\": {}, \
             \"inmem_secs\": {:.6}, \"spill_secs\": {:.6}, \"overhead\": {:.2}, \
             \"runs_written\": {}, \"bytes_spilled\": {}, \"bit_identical\": {}}}{}\n",
            c.dataset,
            c.budget_bytes,
            c.clauses,
            c.inmem_secs,
            c.spill_secs,
            c.spill_secs / c.inmem_secs.max(1e-9),
            c.runs_written,
            c.bytes_spilled,
            c.identical,
            if i + 1 == spills.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]\n}\n");
    body
}

/// Builds the report; full runs also write `BENCH_store.json` at the
/// repository root.
pub fn report_with(smoke: bool) -> String {
    let stores = measure_store(smoke);
    let spills = measure_spill(smoke);
    if !smoke {
        // The headline acceptance claim: warm-starting beats cold
        // re-grounding by an order of magnitude on every full workload.
        for c in &stores {
            assert!(
                c.speedup() >= 10.0,
                "{}: warm start only {:.1}x faster than cold grounding",
                c.dataset,
                c.speedup()
            );
        }
        let json = to_json(&stores, &spills);
        if let Err(e) = std::fs::write("BENCH_store.json", &json) {
            eprintln!("warning: could not write BENCH_store.json: {e}");
        } else {
            eprintln!("(written to BENCH_store.json)");
        }
    }
    let mut out = String::from(
        "Durable generations: cold grounding vs Engine::load warm start\n\
         (the loaded engine answers the probe MAP query bit-identically;\n\
         regenerate with `cargo run --release -p tuffy-bench --bin exp_outofcore`)\n\n",
    );
    let mut t = TextTable::new(vec![
        "dataset",
        "clauses",
        "ground secs",
        "save secs",
        "load secs",
        "speedup",
        "file KiB",
        "identical",
    ]);
    for c in &stores {
        t.row(vec![
            c.dataset.clone(),
            c.clauses.to_string(),
            format!("{:.3}", c.ground_secs),
            format!("{:.3}", c.save_secs),
            format!("{:.4}", c.load_secs),
            format!("{:.0}x", c.speedup()),
            format!("{}", c.file_bytes / 1024),
            c.identical.to_string(),
        ]);
    }
    out.push_str(&t.render());
    let budget = spills
        .first()
        .map_or(SPILL_BUDGET_BYTES, |c| c.budget_bytes);
    out.push_str(&format!(
        "\nOut-of-core grounding under a {}-KiB join-state budget\n\
         (runs > 0 means the budget was genuinely exceeded; the spilled\n\
         MRF is bit-identical to the unbounded in-memory grounding)\n\n",
        budget / 1024
    ));
    let mut t = TextTable::new(vec![
        "dataset",
        "clauses",
        "in-mem secs",
        "spill secs",
        "overhead",
        "runs",
        "spilled KiB",
        "identical",
    ]);
    for c in &spills {
        t.row(vec![
            c.dataset.clone(),
            c.clauses.to_string(),
            format!("{:.3}", c.inmem_secs),
            format!("{:.3}", c.spill_secs),
            format!("{:.2}x", c.spill_secs / c.inmem_secs.max(1e-9)),
            c.runs_written.to_string(),
            format!("{}", c.bytes_spilled / 1024),
            c.identical.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Full-scale report (the `exp_all` entry).
pub fn report() -> String {
    report_with(false)
}
