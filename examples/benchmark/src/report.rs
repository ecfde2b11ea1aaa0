//! Metric vocabulary and report rendering.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's contract: the
//! same names, units and bounds as `BENCHMARK.json` (a unit test keeps
//! the two in step). A run fills a [`RunResult`]; the driver mode prints
//! its one-line JSON, the full mode prints every metric with median,
//! quartiles and sample count.

use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// `(name, unit, better, bound)`: what a user of the system sees. Every
/// workload reports every one; `README.md` says what each means where.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("ready_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
];

/// `(name, unit, better)`: single-layer measurements, taken in the traced
/// run on the workload's own inputs.
pub const PER_LAYER: [(&str, &str, &str); 58] = [
    ("mln.parse_program_s", "s", "lower"),
    ("mln.parse_evidence_s", "s", "lower"),
    ("mln.evidence_mb_per_s", "MB/s", "higher"),
    ("mln.parse_delta_us", "us", "lower"),
    ("rdbms.exec_s", "s", "lower"),
    ("rdbms.queries", "count", "lower"),
    ("rdbms.replans", "count", "lower"),
    ("rdbms.exec_us_per_query", "us", "lower"),
    ("rdbms.plan_s", "s", "lower"),
    ("grounder.ground_s", "s", "lower"),
    ("grounder.self_s", "s", "lower"),
    ("grounder.clauses", "count", "lower"),
    ("grounder.bindings", "count", "lower"),
    ("grounder.clauses_per_binding", "ratio", "higher"),
    ("grounder.clauses_per_s", "1/s", "higher"),
    ("grounder.rounds", "count", "lower"),
    ("grounder.peak_bytes", "B", "lower"),
    ("grounder.patch_ms", "ms", "lower"),
    ("grounder.patch_frac", "ratio", "higher"),
    ("grounder.regrounds", "count", "lower"),
    ("mrf.build_s", "s", "lower"),
    ("mrf.components_s", "s", "lower"),
    ("mrf.partition_s", "s", "lower"),
    ("mrf.components", "count", "higher"),
    ("mrf.largest_component_atoms", "count", "lower"),
    ("mrf.arena_mb", "MB", "lower"),
    ("search.plan_s", "s", "lower"),
    ("search.run_s", "s", "lower"),
    ("search.flips", "count", "higher"),
    ("search.flips_per_s", "1/s", "higher"),
    ("search.map_10k_ms", "ms", "lower"),
    ("search.map_cost", "cost", "lower"),
    ("core.build_engine_s", "s", "lower"),
    ("core.query_map_ms", "ms", "lower"),
    ("core.answer_build_ms", "ms", "lower"),
    ("core.given_fork_ms", "ms", "lower"),
    ("core.apply_label_ms", "ms", "lower"),
    ("core.apply_flip_ms", "ms", "lower"),
    ("core.generations", "count", "lower"),
    ("store.save_s", "s", "lower"),
    ("store.load_s", "s", "lower"),
    ("store.file_mb", "MB", "lower"),
    ("store.wal_append_ms", "ms", "lower"),
    ("store.wal_bytes_per_record", "B", "lower"),
    ("store.checkpoint_s", "s", "lower"),
    ("store.replayed_records", "count", "lower"),
    ("store.replay_ms_per_record", "ms", "lower"),
    ("serve.encode_req_us", "us", "lower"),
    ("serve.decode_req_us", "us", "lower"),
    ("serve.encode_resp_us", "us", "lower"),
    ("serve.decode_resp_us", "us", "lower"),
    ("serve.answer_kb", "KB", "lower"),
    ("serve.ping_us", "us", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.busy", "count", "lower"),
    ("serve.errors", "count", "lower"),
    ("trace.residual_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

/// Samples of one metric; its reported value is their median.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metric {
    pub unit: String,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }
}

/// Named metrics, ordered by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    /// Adds one sample of `name`.
    pub fn add(&mut self, name: &str, unit: &str, value: f64) {
        self.extend(name, unit, &[value]);
    }

    /// Adds samples of `name`.
    pub fn extend(&mut self, name: &str, unit: &str, values: &[f64]) {
        let m = self.0.entry(name.to_string()).or_default();
        m.unit = unit.to_string();
        m.samples.extend_from_slice(values);
    }

    /// The reported value of `name`; `NaN` when it was never measured.
    pub fn value(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, Metric::value)
    }

    pub fn merge(&mut self, other: Metrics) {
        for (name, m) in other.0 {
            self.extend(&name, &m.unit, &m.samples);
        }
    }
}

/// Everything one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// The [`END_TO_END`] metrics.
    pub end_to_end: Metrics,
    /// Workload-specific end-to-end detail (per request class and so on):
    /// printed by the full mode, never part of the contract.
    pub details: Metrics,
    /// The [`PER_LAYER`] metrics plus whatever else the traced run saw.
    pub per_layer: Metrics,
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a check.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
}

impl RunResult {
    /// Counts `n` successful operations.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one operation that failed.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("FAILED: {what}");
        self.failures.push(what);
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.ok(1);
        } else {
            self.fail(what());
        }
    }

    /// Counts a fallible step as one operation and hands back its value.
    pub fn step<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.ok(1);
                Some(v)
            }
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// A finite JSON number with all the digits measured; `null` otherwise.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics being the contract's list for the mode.
pub fn driver_line(result: &RunResult, trace: bool) -> String {
    let (source, names): (&Metrics, Vec<&str>) = if trace {
        (&result.per_layer, PER_LAYER.iter().map(|m| m.0).collect())
    } else {
        (&result.end_to_end, END_TO_END.iter().map(|m| m.0).collect())
    };
    let mut complete = result.correct();
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            let unit = unit_of(name);
            let value = source.value(name);
            if !value.is_finite() {
                eprintln!("FAILED: metric {name} was not measured");
                complete = false;
            }
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {complete}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    )
}

/// The contract's unit of a metric name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

/// One metric as a JSON object with median, quartiles and sample count.
fn metric_json(m: &Metric) -> String {
    let (q1, q3) = quartiles(&m.samples);
    format!(
        "{{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
        m.unit,
        json_number(m.value()),
        json_number(q1),
        json_number(q3),
        m.samples.len()
    )
}

fn metrics_json(metrics: &Metrics) -> String {
    let rows: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, m)| format!("\"{name}\": {}", metric_json(m)))
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// Host and revision metadata every full report carries.
pub struct Header {
    pub seed: u64,
    pub smoke: bool,
    pub seconds: u64,
    pub host_cpus: usize,
    pub git_rev: String,
}

/// The full report as one JSON object.
pub fn full_json(header: &Header, runs: &[(&str, &RunResult)]) -> String {
    let workloads: Vec<String> = runs
        .iter()
        .map(|(name, r)| {
            format!(
                "\"{name}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \
                 \"end_to_end\": {}, \"details\": {}, \"per_layer\": {}}}",
                r.correct(),
                r.attempted,
                r.failed,
                json_number(r.failed as f64 / r.attempted.max(1) as f64),
                metrics_json(&r.end_to_end),
                metrics_json(&r.details),
                metrics_json(&r.per_layer),
            )
        })
        .collect();
    format!(
        "{{\"smoke\": {}, \"seed\": {}, \"seconds\": {}, \"host_cpus\": {}, \"git_rev\": \"{}\", \"workloads\": {{{}}}}}",
        header.smoke,
        header.seed,
        header.seconds,
        header.host_cpus,
        header.git_rev,
        workloads.join(", ")
    )
}

/// The full report as aligned text: one line per metric.
pub fn full_text(header: &Header, runs: &[(&str, &RunResult)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "tuffy benchmark{}: seed {} seconds {} host_cpus {} git {}",
        if header.smoke {
            " (SMOKE — not comparable with a full run)"
        } else {
            ""
        },
        header.seed,
        header.seconds,
        header.host_cpus,
        header.git_rev
    );
    for (name, r) in runs {
        let _ = writeln!(
            out,
            "\n== {name}: {} of {} operations failed (failed_frac {:.6}){}",
            r.failed,
            r.attempted,
            r.failed as f64 / r.attempted.max(1) as f64,
            if r.correct() { "" } else { " — INCORRECT" }
        );
        for (title, metrics) in [
            ("end to end", &r.end_to_end),
            ("detail", &r.details),
            ("per layer", &r.per_layer),
        ] {
            if metrics.0.is_empty() {
                continue;
            }
            let _ = writeln!(out, "-- {title}");
            for (metric, m) in &metrics.0 {
                let (q1, q3) = quartiles(&m.samples);
                let _ = writeln!(
                    out,
                    "{metric:<32} {:>14.4} {:<6} q1 {:>12.4} q3 {:>12.4} n {}",
                    m.value(),
                    m.unit,
                    q1,
                    q3,
                    m.samples.len()
                );
            }
        }
    }
    out
}

/// Peak resident set size of this process, from `VmHWM`, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bytes of the regular files directly inside `dir`, in MB.
pub fn dir_mb(dir: &Path) -> f64 {
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    bytes as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above name the same metrics with
    /// the same units, directions and bounds.
    #[test]
    fn contract_file_matches_the_tables() {
        let json = include_str!("../../../BENCHMARK.json");
        for (name, unit, better, bound) in END_TO_END {
            let row = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&row), "missing or different: {row}");
        }
        for (name, unit, better) in PER_LAYER {
            let row =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&row), "missing or different: {row}");
        }
        let rows = json.matches("{\"name\": ").count();
        // Four workloads carry a name too.
        assert_eq!(rows, END_TO_END.len() + PER_LAYER.len() + 4);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_metrics() {
        let mut r = RunResult::default();
        for (name, unit, _, _) in END_TO_END {
            r.end_to_end.add(name, unit, 1.25);
        }
        r.end_to_end.add("extra", "s", 1.0);
        r.ok(3);
        let line = driver_line(&r, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(!line.contains("extra"));
        // A metric that was never measured makes the run incorrect.
        let line = driver_line(&r, true);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(line.contains("\"value\": null"));
    }

    #[test]
    fn metric_value_is_the_median_of_its_samples() {
        let mut m = Metrics::default();
        m.extend("x", "ms", &[5.0, 1.0, 3.0]);
        assert_eq!(m.value("x"), 3.0);
        assert!(m.value("y").is_nan());
    }
}
