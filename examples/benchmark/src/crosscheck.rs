//! Cross-check against the shipped binaries.
//!
//! The workloads drive the library the way `tuffy` and `tuffyd` do; this
//! check runs the binaries themselves, when `cargo build --release` has
//! left them in the target directory: `tuffy` on the `cold_er` files must
//! write the same atoms as a benchmark child, in about the same time, and
//! `tuffyd` on the `serve_read` files must answer a sample of the read
//! script bit-identically to an in-process recomputation. Where the
//! binaries are absent (a checkout that built only this package) the
//! check is reported as skipped.

use crate::cold::spawn_child;
use crate::data::{read_op, script_candidates, write_inputs, Inputs, ReadOp, Workload};
use crate::report::{RunResult, END_TO_END};
use crate::serve::{engine_from_files, query_predicate, recompute, wire_query};
use crate::stats::median;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Instant;
use tuffy_serve::Client;

/// Requests of the read script replayed against `tuffyd`.
const REPLAYED: u64 = 32;
/// Alternating `tuffy` / child pairs timed.
const PAIRS: usize = 3;

/// `<target>/release/<name>`, if it exists.
fn shipped(name: &str) -> Option<PathBuf> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    let path = target.join("release").join(name);
    path.is_file().then_some(path)
}

/// A spawned `tuffyd`, killed and reaped on drop. Its stderr pipe stays
/// open for as long as it runs, so its exit report has somewhere to go.
struct Daemon {
    child: Child,
    stderr: BufReader<ChildStderr>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub fn run(seed: u64, smoke: bool) -> RunResult {
    let mut r = RunResult::default();
    let (Some(tuffy), Some(tuffyd)) = (shipped("tuffy"), shipped("tuffyd")) else {
        eprintln!(
            "skipped: no target/release/tuffy and tuffyd (run `cargo build --release` first)"
        );
        r.details.add("skipped", "count", 1.0);
        return r;
    };
    let work = Path::new(".bench_work").join(format!("binaries-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    cold_er(&mut r, &tuffy, seed, smoke, &work.join("cold_er"));
    serve_read(&mut r, &tuffyd, seed, smoke, &work.join("serve_read"));
    let _ = std::fs::remove_dir_all(&work);
    r
}

/// `tuffy -i … -e … -r … --flips … --seed …` against a benchmark child.
fn cold_er(r: &mut RunResult, tuffy: &Path, seed: u64, smoke: bool, dir: &Path) {
    let w = Workload::ColdEr;
    let flips = w.flips(smoke);
    let Some(inputs) = r.step("set-up", write_inputs(w, seed, smoke, dir)) else {
        return;
    };
    let out = inputs.file("tuffy.out");
    let (mut cli_s, mut child_s) = (Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        let started = Instant::now();
        let status = Command::new(tuffy)
            .arg("-i")
            .arg(&inputs.program)
            .arg("-e")
            .arg(&inputs.evidence)
            .arg("-r")
            .arg(&out)
            .args(["--flips", &flips.to_string(), "--seed", &seed.to_string()])
            .stderr(Stdio::null())
            .status();
        cli_s.push(started.elapsed().as_secs_f64());
        r.check(status.is_ok_and(|s| s.success()), || {
            "tuffy exited with an error".to_string()
        });
        let Some(child) = r.step("benchmark child", spawn_child("cold", &inputs, flips, seed))
        else {
            return;
        };
        child_s.push(child.wall_s);
        r.check(
            std::fs::read(&out).is_ok_and(|atoms| atoms == child.output),
            || "tuffy wrote different atoms than the benchmark child".to_string(),
        );
    }
    r.details.extend("tuffy_wall_s", "s", &cli_s);
    r.details.extend("child_wall_s", "s", &child_s);
    let bound = END_TO_END
        .iter()
        .find(|m| m.0 == "op_p50_ms")
        .map_or(0.1, |m| m.3);
    let gap = (median(&cli_s) - median(&child_s)).abs() / median(&child_s);
    r.details.add("wall_gap_frac", "ratio", gap);
    r.check(smoke || gap <= bound, || {
        format!(
            "tuffy takes {:.3} s, the benchmark child {:.3} s: further apart than the {bound} bound",
            median(&cli_s),
            median(&child_s)
        )
    });
}

/// `tuffyd` on the `serve_read` files, replaying the head of the script.
fn serve_read(r: &mut RunResult, tuffyd: &Path, seed: u64, smoke: bool, dir: &Path) {
    let Some(inputs) = r.step(
        "set-up",
        write_inputs(Workload::ServeRead, seed, smoke, dir),
    ) else {
        return;
    };
    let Some(engine) = r.step("in-process engine", engine_from_files(&inputs, seed)) else {
        return;
    };
    let snapshot = engine.snapshot();
    let (atoms, _) = script_candidates(&snapshot);
    let predicate = query_predicate(&snapshot);
    let Some((daemon, addr)) = r.step("tuffyd start", start_daemon(tuffyd, &inputs, seed)) else {
        return;
    };
    let Some(mut client) = r.step("connect", Client::connect(addr.as_str())) else {
        return;
    };
    for i in 0..REPLAYED {
        let op: ReadOp = read_op(seed, 0, i, &atoms);
        match (
            client.query(&wire_query(&op, &predicate)),
            recompute(&snapshot, &op, &predicate),
        ) {
            (Ok(served), Ok(expected)) => r.check(served == expected, || {
                format!("tuffyd answers {op:?} differently from Snapshot::query")
            }),
            (Err(e), _) => r.fail(format!("tuffyd request {op:?}: {e}")),
            (_, Err(e)) => r.fail(format!("recomputing {op:?}: {e}")),
        }
    }
    drop(client);
    let mut daemon = daemon;
    if let Some(mut stdin) = daemon.child.stdin.take() {
        let _ = stdin.write_all(b"quit\n");
    }
    r.check(daemon.child.wait().is_ok_and(|s| s.success()), || {
        "tuffyd did not exit cleanly on `quit`".to_string()
    });
}

/// Starts `tuffyd` on an ephemeral loopback port and reads the address it
/// reports on stderr.
fn start_daemon(tuffyd: &Path, inputs: &Inputs, seed: u64) -> Result<(Daemon, String), String> {
    let child = Command::new(tuffyd)
        .arg("-i")
        .arg(&inputs.program)
        .arg("-e")
        .arg(&inputs.evidence)
        .args(["--listen", "127.0.0.1:0", "--seed", &seed.to_string()])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn tuffyd: {e}"))?;
    let mut child = child;
    let stderr = BufReader::new(child.stderr.take().ok_or("tuffyd has no stderr")?);
    let mut daemon = Daemon { child, stderr };
    let mut line = String::new();
    while daemon
        .stderr
        .read_line(&mut line)
        .map_err(|e| e.to_string())?
        > 0
    {
        if let Some(rest) = line.strip_prefix("tuffyd listening on ") {
            let addr = rest.split(' ').next().unwrap_or_default().to_string();
            return Ok((daemon, addr));
        }
        line.clear();
    }
    Err("tuffyd exited before it listened".to_string())
}
