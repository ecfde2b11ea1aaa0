//! The repo benchmark: cold-batch and `tuffyd` workloads with a per-layer
//! latency budget. See `README.md` beside this package.
//!
//! ```text
//! benchmark [--seed N] [--seconds N] [--smoke] [--trace] [--check-repeat]
//! benchmark --workload NAME --seed N --seconds N --trace 0|1
//! ```
//!
//! The first form runs every workload, checks outputs, and prints every
//! metric with unit, median, quartiles and sample count. The second runs
//! one workload and prints the contract's one-line JSON result
//! (`BENCHMARK.json`). Either exits non-zero if any operation or output
//! check failed.

mod cold;
mod crosscheck;
mod data;
mod profile;
mod report;
mod serve;
mod stats;
mod trace;

use data::{Inputs, Workload};
use report::{Header, RunResult, END_TO_END};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Seed of a run that names none: VLDB 2011's first day, as in the
/// repo's experiment harness.
const DEFAULT_SEED: u64 = 20110829;
/// Measured seconds per workload of a full and of a smoke run.
const FULL_SECONDS: u64 = 30;
const SMOKE_SECONDS: u64 = 2;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
    child: Option<String>,
    dir: Option<PathBuf>,
    flips: u64,
}

fn usage() -> &'static str {
    "usage: benchmark [--seed N] [--seconds N] [--smoke] [--trace] [--check-repeat]\n\
     \x20      benchmark --workload cold_er|cold_ie|serve_read|serve_mixed --seed N --seconds N --trace 0|1"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} expects a value\n{}", usage()))
        };
        fn num(flag: &str, v: String) -> Result<u64, String> {
            v.parse().map_err(|e| format!("{flag}: {e}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&flag)?),
            "--seed" => args.seed = Some(num(&flag, value(&flag)?)?),
            "--seconds" => args.seconds = Some(num(&flag, value(&flag)?)?),
            "--flips" => args.flips = num(&flag, value(&flag)?)?,
            "--child" => args.child = Some(value(&flag)?),
            "--dir" => args.dir = Some(PathBuf::from(value(&flag)?)),
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            // `--trace` alone switches tracing on; the contract's form
            // passes 0 or 1.
            "--trace" => {
                args.trace = it.peek().map(String::as_str) != Some("0");
                if matches!(it.peek().map(String::as_str), Some("0" | "1")) {
                    it.next();
                }
            }
            "-h" | "--help" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

/// A scratch directory inside the current directory (the checkout),
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload; with `trace`, also its layer profile, whose spans
/// are kept as `.bench_work/trace.<workload>.json`.
fn run_workload(w: Workload, seed: u64, seconds: u64, smoke: bool, trace: bool) -> RunResult {
    let work = match WorkDir::new(w.name()) {
        Ok(work) => work,
        Err(e) => {
            let mut r = RunResult::default();
            r.fail(e);
            return r;
        }
    };
    // `VmHWM` is a high-water mark of the whole process: start each
    // workload's from its own floor, so a full run's later workloads do
    // not inherit an earlier one's peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let mut r = match w {
        Workload::ColdEr | Workload::ColdIe => cold::run(w, seed, seconds, smoke, trace, &work.0),
        Workload::ServeRead => serve::run_read(seed, seconds, smoke, trace, &work.0),
        Workload::ServeMixed => serve::run_mixed(seed, seconds, smoke, trace, &work.0),
    };
    if trace {
        let spans = Inputs::in_dir(&work.0.join("inputs")).file("trace.json");
        let kept = Path::new(".bench_work").join(format!("trace.{}.json", w.name()));
        if let Err(e) = std::fs::copy(&spans, &kept) {
            r.fail(format!("keeping {}: {e}", spans.display()));
        }
    }
    r
}

/// `git rev-parse HEAD`, when the current directory is a repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// Runs every workload (and the shipped-binary cross-check) once.
fn run_all(header: &Header, trace: bool) -> Vec<(&'static str, RunResult)> {
    let mut runs: Vec<(&'static str, RunResult)> = Workload::ALL
        .into_iter()
        .map(|w| {
            eprintln!("running {} ...", w.name());
            (
                w.name(),
                run_workload(w, header.seed, header.seconds, header.smoke, trace),
            )
        })
        .collect();
    eprintln!("cross-checking the shipped binaries ...");
    runs.push(("binaries", crosscheck::run(header.seed, header.smoke)));
    runs
}

fn print_report(header: &Header, runs: &[(&'static str, RunResult)]) {
    let view: Vec<(&str, &RunResult)> = runs.iter().map(|(n, r)| (*n, r)).collect();
    print!("{}", report::full_text(header, &view));
    println!("{}", report::full_json(header, &view));
}

/// Relative worsening of `second` against `first` in the metric's bad
/// direction (negative when it improved).
fn worsening(better: &str, first: f64, second: f64) -> f64 {
    match better {
        "higher" => (first - second) / first,
        _ => (second - first) / first,
    }
}

/// Prints each end-to-end metric's run-to-run difference beside its
/// bound; returns how many exceeded it.
fn compare_repeat(
    first: &[(&'static str, RunResult)],
    second: &[(&'static str, RunResult)],
) -> usize {
    let mut exceeded = 0;
    println!("\n== check-repeat: second run against first, per end-to-end metric");
    for ((name, a), (_, b)) in first.iter().zip(second) {
        for (metric, unit, better, bound) in END_TO_END {
            let (x, y) = (a.end_to_end.value(metric), b.end_to_end.value(metric));
            if x.is_nan() && y.is_nan() {
                continue; // not a workload (the binaries cross-check)
            }
            let diff = worsening(better, x, y);
            let over = diff.is_nan() || diff.abs() > bound;
            exceeded += usize::from(over);
            println!(
                "{name:<12} {metric:<12} {x:>12.4} -> {y:>12.4} {unit:<4} diff {:>+7.2}% bound {:>5.1}%{}",
                diff * 100.0,
                bound * 100.0,
                if over { "  EXCEEDED" } else { "" }
            );
        }
    }
    exceeded
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some(mode) = &args.child {
        let dir = args.dir.as_deref().ok_or("--child needs --dir")?;
        let inputs = Inputs::in_dir(dir);
        let seed = args.seed.ok_or("--child needs --seed")?;
        return match mode.as_str() {
            "cold" => cold::child_main(&inputs, args.flips, seed),
            "profile" => profile::child_main(&inputs, args.flips, seed),
            other => Err(format!("unknown child mode `{other}`")),
        }
        .map(|()| true);
    }

    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    if let Some(name) = &args.workload {
        let w = Workload::from_name(name)
            .ok_or_else(|| format!("unknown workload `{name}`\n{}", usage()))?;
        let seconds = args.seconds.ok_or("--workload needs --seconds")?;
        let r = run_workload(w, seed, seconds, args.smoke, args.trace);
        println!("{}", report::driver_line(&r, args.trace));
        return Ok(r.correct());
    }

    let header = Header {
        seed,
        smoke: args.smoke,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            FULL_SECONDS
        }),
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_rev: git_rev(),
    };
    let first = run_all(&header, args.trace);
    print_report(&header, &first);
    let mut ok = first.iter().all(|(_, r)| r.correct());
    if args.check_repeat {
        let second = run_all(&header, args.trace);
        print_report(&header, &second);
        ok &= second.iter().all(|(_, r)| r.correct());
        let exceeded = compare_repeat(&first, &second);
        println!("check-repeat: {exceeded} metric(s) moved by more than their bound");
        ok &= exceeded == 0;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
