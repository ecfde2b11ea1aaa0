//! `tuffyd`: the Tuffy inference server.
//!
//! Loads a program + evidence, grounds **once** into an
//! [`tuffy::Engine`], and serves the wire protocol on a TCP listener
//! until stdin closes (or `quit` is typed). Clients connect with
//! `tuffy --connect HOST:PORT` or [`tuffy_serve::Client`].
//!
//! ```text
//! tuffyd -i prog.mln [-e evidence.db] [--listen ADDR] [--store DIR]
//!        [--checkpoint-every N] [--drain-ms N]
//!        [--flips N] [--seed N] [--parallel N] [--ground-threads N]
//!        [--mem-budget-bytes N]
//!        [--max-connections N] [--max-inflight N] [--max-heavy N]
//!        [--max-frame-bytes N] [--frame-deadline-ms N]
//! ```
//!
//! `--store DIR` makes the serving lineage durable: committed applies
//! append to a delta write-ahead log in `DIR` **before** they are
//! acknowledged, and on restart the server replays base + WAL back to
//! the exact pre-crash generation (torn WAL tails from a crash
//! mid-append are truncated; a recovery report is printed). If `DIR`
//! already holds a generation file, the server warm-starts from it:
//! base load, plus one grounding at the last WAL record that re-grounds
//! on any store (a flip, a retract or a closed-world change; every
//! record before it only edits the evidence), plus one patch per later
//! record. Answers are bit-identical to the pre-crash server's, and the
//! saved engine configuration applies (the CLI's config flags only
//! matter on the run that grounds). The banner counts the grounding
//! runs (`regrounds`) and the records folded into evidence alone
//! (`evidence only`). Otherwise the server grounds as usual and
//! saves the result into `DIR` (atomically; a crash mid-save leaves the
//! previous state). A corrupt or truncated store file is reported and
//! re-ground from sources, never served. Every `--checkpoint-every`
//! WAL records (default 64; 0 disables) the log is folded into a new
//! base generation so recovery time stays bounded.
//!
//! `--mem-budget-bytes N` bounds grounding-time join state: oversized
//! intermediate results spill to sorted on-disk runs instead of
//! materializing in RAM (out-of-core grounding; the result is
//! bit-identical to the in-memory path).
//!
//! Runtime commands on stdin: `stats` prints the serving counters,
//! `quit` (or EOF) shuts down gracefully — in-flight requests drain
//! under `--drain-ms` (default 5000), late clients see `busy shutdown`,
//! and the WAL is fsynced before exit.

use std::io::BufRead;
use std::process::ExitCode;
use std::time::Duration;
use tuffy::{DurableEngine, Engine, Tuffy, TuffyConfig, WalkSatParams};
use tuffy_serve::{explain_stats, ServeConfig, Server};

struct Args {
    program: String,
    evidence: Option<String>,
    listen: String,
    store: Option<String>,
    checkpoint_every: u64,
    flips: u64,
    seed: u64,
    threads: usize,
    ground_threads: usize,
    mem_budget_bytes: usize,
    serve: ServeConfig,
}

fn usage() -> &'static str {
    "usage: tuffyd -i <prog.mln> [-e <evidence.db>] [--listen ADDR] [--store DIR]\n\
     \x20       [--checkpoint-every N] [--drain-ms N]\n\
     \x20       [--flips N] [--seed N] [--parallel N] [--ground-threads N]\n\
     \x20       [--mem-budget-bytes N]\n\
     \x20       [--max-connections N] [--max-inflight N] [--max-heavy N]\n\
     \x20       [--max-frame-bytes N] [--frame-deadline-ms N]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        program: String::new(),
        evidence: None,
        listen: "127.0.0.1:7090".to_string(),
        store: None,
        checkpoint_every: 64,
        flips: 1_000_000,
        seed: 42,
        threads: 1,
        ground_threads: 0,
        mem_budget_bytes: 0,
        serve: ServeConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} expects a value\n{}", usage()))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("{flag}: {e}"))
        }
        match flag.as_str() {
            "-i" => args.program = value("-i")?,
            "-e" => args.evidence = Some(value("-e")?),
            "--listen" => args.listen = value("--listen")?,
            "--store" => args.store = Some(value("--store")?),
            "--checkpoint-every" => args.checkpoint_every = num(&flag, value(&flag)?)?,
            "--drain-ms" => {
                args.serve.drain_deadline = Duration::from_millis(num(&flag, value(&flag)?)?);
            }
            "--mem-budget-bytes" => args.mem_budget_bytes = num(&flag, value(&flag)?)?,
            "--flips" => args.flips = num(&flag, value(&flag)?)?,
            "--seed" => args.seed = num(&flag, value(&flag)?)?,
            "--parallel" => args.threads = num(&flag, value(&flag)?)?,
            "--ground-threads" => args.ground_threads = num(&flag, value(&flag)?)?,
            "--max-connections" => args.serve.max_connections = num(&flag, value(&flag)?)?,
            "--max-inflight" => args.serve.max_inflight = num(&flag, value(&flag)?)?,
            "--max-heavy" => args.serve.max_heavy = num(&flag, value(&flag)?)?,
            "--max-frame-bytes" => args.serve.max_frame_bytes = num(&flag, value(&flag)?)?,
            "--frame-deadline-ms" => {
                args.serve.frame_deadline = Duration::from_millis(num(&flag, value(&flag)?)?);
            }
            "-h" | "--help" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if args.program.is_empty() {
        return Err(format!("missing -i <prog.mln>\n{}", usage()));
    }
    Ok(args)
}

/// Recovers the durable lineage from `dir` when it holds a generation
/// (replaying the delta WAL back to the pre-crash generation), otherwise
/// grounds from sources and creates a fresh lineage there. Load
/// failures (missing file, corruption) fall back to grounding — a
/// broken store is reported, never served.
fn durable_with_store(
    args: &Args,
    config: TuffyConfig,
    dir: &str,
) -> Result<DurableEngine, String> {
    let dir = std::path::Path::new(dir);
    if dir.join(tuffy::GENERATION_FILE).exists() {
        match DurableEngine::open(dir, args.checkpoint_every) {
            Ok((durable, recovery)) => {
                eprintln!(
                    "recovered from {} in {:?}: generation {} (replayed {} WAL deltas: \
                     evidence only {}, regrounds {}; skipped {} checkpointed{}; \
                     saved config applies)",
                    dir.display(),
                    recovery.wall,
                    recovery.generation,
                    recovery.replayed,
                    recovery.evidence_only,
                    recovery.regrounds,
                    recovery.skipped,
                    if recovery.truncated_tail {
                        "; truncated a torn WAL tail"
                    } else {
                        ""
                    },
                );
                return Ok(durable);
            }
            Err(e) => eprintln!("store at {} unusable ({e}); re-grounding", dir.display()),
        }
    }
    let engine = build_engine(args, config)?;
    let durable =
        DurableEngine::create(engine, dir, args.checkpoint_every).map_err(|e| e.to_string())?;
    eprintln!("saved grounded generation to {}", dir.display());
    Ok(durable)
}

/// Grounds from the program/evidence sources.
fn build_engine(args: &Args, config: TuffyConfig) -> Result<Engine, String> {
    let program_src =
        std::fs::read_to_string(&args.program).map_err(|e| format!("{}: {e}", args.program))?;
    let evidence_src = match &args.evidence {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        None => String::new(),
    };
    Tuffy::from_sources(&program_src, &evidence_src)
        .map_err(|e| e.to_string())?
        .with_config(config)
        .build_engine()
        .map_err(|e| e.to_string())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let config = TuffyConfig {
        threads: args.threads,
        ground_threads: args.ground_threads,
        optimizer: tuffy::OptimizerConfig {
            mem_budget_bytes: args.mem_budget_bytes,
            ..Default::default()
        },
        search: WalkSatParams {
            max_flips: args.flips,
            seed: args.seed,
            ..Default::default()
        },
        ..Default::default()
    };
    let server = match &args.store {
        Some(dir) => {
            let durable = durable_with_store(&args, config, dir)?;
            let reader = durable.reader();
            let snapshot = reader.snapshot();
            eprintln!(
                "grounded {} clauses over {} atoms; serving generation {} (durable, \
                 checkpoint every {} deltas)",
                snapshot.grounding().mrf.clauses().len(),
                snapshot.grounding().registry.len(),
                snapshot.generation(),
                args.checkpoint_every,
            );
            Server::start_durable(durable, args.listen.as_str(), args.serve)
                .map_err(|e| e.to_string())?
        }
        None => {
            let engine = build_engine(&args, config)?;
            let snapshot = engine.snapshot();
            eprintln!(
                "grounded {} clauses over {} atoms; serving generation {}",
                snapshot.grounding().mrf.clauses().len(),
                snapshot.grounding().registry.len(),
                snapshot.generation(),
            );
            Server::start(engine, args.listen.as_str(), args.serve).map_err(|e| e.to_string())?
        }
    };
    eprintln!(
        "tuffyd listening on {} ({} connections, {} in-flight, {} heavy; `stats`, `quit`)",
        server.local_addr(),
        args.serve.max_connections,
        args.serve.max_inflight,
        args.serve.max_heavy,
    );

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line.map_err(|e| e.to_string())?.trim() {
            "" => {}
            "stats" => eprint!("{}", explain_stats(&server.stats())),
            "quit" | "q" => break,
            other => eprintln!("unknown command `{other}` (try `stats` or `quit`)"),
        }
    }
    // Drain before the final report so `drained` / `aborted` are real.
    let final_stats = server.shutdown();
    eprint!("{}", explain_stats(&final_stats));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
