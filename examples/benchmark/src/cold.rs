//! The cold-batch workloads: one `tuffy` CLI run per repetition, each in
//! a fresh child process of the benchmark.
//!
//! The child performs the CLI's call sequence — read the two files,
//! `Tuffy::from_sources`, `build_engine`, `Query::map`, write the result
//! file — and leaves a stats file beside its output. The parent times the
//! child from spawn to exit, which is what a user of the CLI waits for.

use crate::data::{write_inputs, Inputs, Workload};
use crate::report::{peak_rss_mb, Metrics, RunResult};
use crate::stats::{median, tail};
use std::path::Path;
use std::process::Command;
use std::time::Instant;
use tuffy::{Engine, Query, Tuffy, TuffyConfig, WalkSatParams};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The configuration the `tuffy` CLI builds from `--flips`/`--seed`:
/// every other knob at its default.
pub fn cli_config(flips: u64, seed: u64) -> TuffyConfig {
    TuffyConfig {
        search: WalkSatParams {
            max_flips: flips,
            seed,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Lines of `name unit value` — the child's side of the stats file.
pub fn write_stats(path: &Path, stats: &Metrics) -> Result<(), String> {
    let mut text = String::new();
    for (name, m) in &stats.0 {
        for v in &m.samples {
            text.push_str(&format!("{name} {} {v}\n", m.unit));
        }
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The parent's side of the stats file.
pub fn read_stats(path: &Path) -> Result<Metrics, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut stats = Metrics::default();
    for line in text.lines() {
        let mut parts = line.split(' ');
        match (
            parts.next(),
            parts.next(),
            parts.next().map(str::parse::<f64>),
        ) {
            (Some(name), Some(unit), Some(Ok(v))) => stats.add(name, unit, v),
            _ => return Err(format!("{}: bad stats line `{line}`", path.display())),
        }
    }
    Ok(stats)
}

/// The child process of a cold repetition: the CLI's call sequence on the
/// files in `inputs`, the result written to `result.out`, measurements to
/// `child.stats`.
pub fn child_main(inputs: &Inputs, flips: u64, seed: u64) -> Result<(), String> {
    let started = Instant::now();
    // Spelled out rather than shared with `engine_from_files`: the CLI
    // keeps the sources and the `Tuffy` alive until it exits, and the
    // child's peak memory should be the CLI's.
    let (program_src, evidence_src) = inputs.read_sources()?;
    let tuffy = Tuffy::from_sources(&program_src, &evidence_src)
        .map_err(|e| e.to_string())?
        .with_config(cli_config(flips, seed));
    let engine = tuffy.build_engine().map_err(|e| e.to_string())?;
    let ready = started.elapsed();
    let map = engine
        .snapshot()
        .query(&Query::map())
        .map_err(|e| e.to_string())?
        .into_map()
        .ok_or("MAP query returned another answer kind")?;
    let out = inputs.file("result.out");
    std::fs::write(&out, map.to_text()).map_err(|e| format!("{}: {e}", out.display()))?;

    let mut stats = Metrics::default();
    stats.add("ready_s", "s", ready.as_secs_f64());
    stats.add("cost_hard", "count", map.cost.hard as f64);
    stats.add("map_cost", "cost", map.cost.soft);
    stats.add("clauses", "count", map.report.clauses as f64);
    stats.add("flips", "count", map.report.flips as f64);
    stats.add(
        "grounder.regrounds",
        "count",
        engine.groundings_performed() as f64 - 1.0,
    );
    stats.add(
        "core.generations",
        "count",
        engine.generations_created() as f64,
    );
    // The CLI tears its engine down before it exits; a user waits for
    // that too, so the in-process wall includes it.
    drop((map, engine, tuffy, program_src, evidence_src));
    stats.add("inner_wall_s", "s", started.elapsed().as_secs_f64());
    stats.add("peak_rss_mb", "MB", peak_rss_mb());
    write_stats(&inputs.file("child.stats"), &stats)
}

/// What one child repetition produced.
pub struct ChildRun {
    /// Spawn to exit, as the parent saw it.
    pub wall_s: f64,
    pub stats: Metrics,
    pub output: Vec<u8>,
}

/// Spawns this executable as a child in `mode` on `inputs` and waits.
pub fn spawn_child(mode: &str, inputs: &Inputs, flips: u64, seed: u64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for stale in ["result.out", "child.stats"] {
        let _ = std::fs::remove_file(inputs.file(stale));
    }
    let started = Instant::now();
    let status = Command::new(exe)
        .args(["--child", mode, "--dir"])
        .arg(&inputs.dir)
        .args(["--flips", &flips.to_string(), "--seed", &seed.to_string()])
        .status()
        .map_err(|e| format!("spawn child: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("child `{mode}` exited with {status}"));
    }
    let out = inputs.file("result.out");
    Ok(ChildRun {
        wall_s,
        stats: read_stats(&inputs.file("child.stats"))?,
        output: std::fs::read(&out).map_err(|e| format!("{}: {e}", out.display()))?,
    })
}

/// Reads the input files and grounds them under the CLI's configuration.
pub fn engine_from_files(inputs: &Inputs, flips: u64, seed: u64) -> Result<Engine, String> {
    let (program_src, evidence_src) = inputs.read_sources()?;
    Tuffy::from_sources(&program_src, &evidence_src)
        .map_err(|e| e.to_string())?
        .with_config(cli_config(flips, seed))
        .build_engine()
        .map_err(|e| e.to_string())
}

/// The in-process reference a child's output is compared with: the same
/// sequence, run here. Returns `(result text, hard violations, clauses)`.
fn reference(inputs: &Inputs, flips: u64, seed: u64) -> Result<(String, u64, usize), String> {
    let map = engine_from_files(inputs, flips, seed)?
        .snapshot()
        .query(&Query::map())
        .map_err(|e| e.to_string())?
        .into_map()
        .ok_or("MAP query returned another answer kind")?;
    Ok((map.to_text(), map.cost.hard, map.report.clauses))
}

/// Runs a cold workload: set-up [`SETUPS`] times, then child repetitions
/// until `seconds` have passed, then the output checks.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: u64,
    smoke: bool,
    trace: bool,
    work: &Path,
) -> RunResult {
    let mut r = RunResult::default();
    let flips = w.flips(smoke);
    let dir = work.join("inputs");
    let mut inputs = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        inputs = r.step("set-up", write_inputs(w, seed, smoke, &dir));
        r.end_to_end
            .add("setup_s", "s", started.elapsed().as_secs_f64());
    }
    let Some(inputs) = inputs else { return r };

    let mut walls = Vec::new();
    let mut outputs: Vec<Vec<u8>> = Vec::new();
    let mut children = Metrics::default();
    let window = Instant::now();
    while walls.is_empty() || window.elapsed().as_secs_f64() < seconds as f64 {
        let Some(child) = r.step("cold repetition", spawn_child("cold", &inputs, flips, seed))
        else {
            break;
        };
        walls.push(child.wall_s);
        outputs.push(child.output);
        children.merge(child.stats);
    }
    let measured = window.elapsed().as_secs_f64();
    if walls.is_empty() {
        return r;
    }

    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    r.end_to_end.extend("op_p50_ms", "ms", &walls_ms);
    r.end_to_end.add("op_tail_ms", "ms", tail(&walls_ms).1);
    r.end_to_end
        .add("ops_per_s", "1/s", walls.len() as f64 / measured);
    for name in ["ready_s", "peak_rss_mb"] {
        let m = &children.0[name];
        r.end_to_end.extend(name, &m.unit, &m.samples);
    }
    r.details.extend("cold_wall_s", "s", &walls);
    for name in ["map_cost", "inner_wall_s", "clauses", "flips"] {
        let m = &children.0[name];
        r.details.extend(name, &m.unit, &m.samples);
    }
    r.details.add("op_tail_pct", "%", tail(&walls_ms).0 as f64);
    for name in ["grounder.regrounds", "core.generations"] {
        r.per_layer
            .add(name, "count", median(&children.0[name].samples));
    }
    // No server, so nothing refused and no protocol fault.
    r.per_layer.add("serve.busy", "count", 0.0);
    r.per_layer.add("serve.errors", "count", 0.0);

    // Output checks: repetitions agree byte for byte with each other and
    // with an in-process run of the same sequence; the world violates no
    // hard clause; the child grounded the clause count the reference did.
    let reference = r.step("in-process reference", reference(&inputs, flips, seed));
    for (i, out) in outputs.iter().enumerate() {
        r.check(*out == outputs[0], || {
            format!("repetition {i} differs from repetition 0")
        });
    }
    if let Some((text, hard, clauses)) = reference {
        r.check(outputs[0] == text.as_bytes(), || {
            "child output differs from the in-process reference".to_string()
        });
        r.check(hard == 0, || {
            format!("reference world violates {hard} hard clauses")
        });
        r.check(median(&children.0["cost_hard"].samples) == 0.0, || {
            "child world violates hard clauses".to_string()
        });
        let child_clauses = &children.0["clauses"].samples;
        r.check(child_clauses.iter().all(|&c| c == clauses as f64), || {
            format!("child clause counts {child_clauses:?} differ from the reference's {clauses}")
        });
    }
    if trace {
        let untraced = (
            median(&children.0["inner_wall_s"].samples),
            outputs[0].as_slice(),
        );
        crate::profile::run(&inputs, flips, seed, Some(untraced), &mut r);
    }
    r
}
