//! `tuffy-bench <name>... | all [--smoke] | --list` — regenerates the
//! paper's tables and figures (and the weight-learning report), printing
//! each report and writing it to `bench_results/<name>.txt`.
//!
//! `--smoke` shrinks the `learn` report to tiny instances and skips its
//! `BENCH_learn.json` write; every other report ignores it. An unknown
//! name prints the list of reports and exits non-zero.

use std::process::ExitCode;
use std::time::Instant;
use tuffy_bench::experiments::{
    fig3, fig4, fig5, fig6, fig8, learn, table1, table2, table3, table4, table5, table6, table7,
};

/// A report: the `--smoke` switch in, the rendered text out.
type Report = fn(bool) -> String;

/// Every report, in the order `all` runs them.
const REPORTS: [(&str, Report); 13] = [
    ("table1", |_| table1::report()),
    ("table2", |_| table2::report()),
    ("table3", |_| table3::report()),
    ("table4", |_| table4::report()),
    ("table5", |_| table5::report()),
    ("table6", |_| table6::report()),
    ("table7", |_| table7::report()),
    ("fig3", |_| fig3::report()),
    ("fig4", |_| fig4::report()),
    ("fig5", |_| fig5::report()),
    ("fig6", |_| fig6::report()),
    ("fig8", |_| fig8::report()),
    ("learn", learn::report),
];

fn names() -> String {
    let names: Vec<&str> = REPORTS.iter().map(|(name, _)| *name).collect();
    names.join(" ")
}

/// Prints `body` and writes it to `bench_results/<name>.txt`.
fn emit(name: &str, body: &str) {
    println!("{body}");
    let dir = std::path::Path::new("bench_results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{name}.txt"));
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("(written to {})", path.display());
    }
}

fn main() -> ExitCode {
    let usage = format!(
        "usage: tuffy-bench <name>... | all [--smoke] | --list\nreports: {}",
        names()
    );
    let mut smoke = false;
    let mut selected: Vec<(&str, Report)> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--list" => {
                println!("{}", names());
                return ExitCode::SUCCESS;
            }
            "all" => selected.extend(REPORTS),
            name => match REPORTS.iter().find(|(n, _)| *n == name) {
                Some(&report) => selected.push(report),
                None => {
                    eprintln!("unknown report `{name}`\n{usage}");
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    if selected.is_empty() {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    }
    for (name, report) in selected {
        eprintln!("=== running {name} ===");
        let t0 = Instant::now();
        let body = report(smoke);
        eprintln!("=== {name} done in {:?} ===\n", t0.elapsed());
        emit(name, &body);
    }
    ExitCode::SUCCESS
}
