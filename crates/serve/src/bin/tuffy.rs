//! The Tuffy command-line interface.
//!
//! Mirrors the original system's usage: a program file, an evidence
//! file, and an output file of inferred atoms.
//!
//! ```text
//! tuffy -i prog.mln -e evidence.db [-r result.out] [--marginal] \
//!       [--delta d.db ...] [--session] [--connect ADDR] \
//!       [--flips N] [--parallel N] [--no-partition] [--mem-budget BYTES] \
//!       [--partition-rounds N] [--seed N] [--explain] [--explain-schedule] \
//!       [--join-order auto|program] [--join-algo auto|nl] [--no-pushdown]
//! ```
//!
//! All inference runs inside one long-lived session (ground once, query
//! many). `--delta FILE` (repeatable) applies an evidence-delta file
//! after the initial inference and re-runs it, printing whether the
//! grounding was patched incrementally or re-ground. `--session` enters
//! a REPL on stdin: each line is a delta edit (`atom` / `+atom` assert
//! true, `!atom` assert false, `-atom` retract, `~atom` flip) or a
//! command (`:map`, `:marginal`, `:explain`, `:quit`); edits re-run
//! inference immediately.
//!
//! `--connect HOST:PORT` talks to a running `tuffyd` instead of loading
//! a program: inference runs server-side, and `--delta`/`--session`
//! commit deltas over the wire to the server's one lineage, which every
//! connection then reads (under `tuffyd --store DIR` an apply is also
//! written to the server's write-ahead log). Flags
//! that configure a local engine (`-i`, `-e`, `--explain*`, `--learn*`,
//! the partitioning, planner and grounding knobs) are rejected in this
//! mode, naming the flag.
//!
//! `--parallel N` sets the worker threads of both grounding and search;
//! the default, 0, is every core. Answers do not depend on it.
//!
//! `--explain` prints the physical plan (`EXPLAIN`) of every grounding
//! query under the selected lesion knobs and exits without running
//! inference; the three lesion flags mirror the paper's Table 6 study.
//! `--explain-schedule` does the same for the inference scheduler.
//!
//! `--learn LABELS.db` switches to weight learning: the labels file
//! (evidence syntax over the query predicates) becomes the training
//! world, the engine grounds once eagerly, and `--learn-iters`
//! iterations of `--learner vp` (voted perceptron, MAP-based) or
//! `--learner dn` (diagonal Newton, marginal-based) fit the soft rule
//! weights on that fixed grounding. The output is the learned weight
//! per rule; the per-iteration gradient trace goes to stderr.

use std::io::BufRead;
use std::process::ExitCode;
use tuffy::{
    GroundingMode, JoinAlgorithmPolicy, JoinOrderPolicy, McSatParams, PartitionStrategy, Query,
    Session, Tuffy, TuffyConfig, WalkSatParams,
};
use tuffy_learn::{DiagonalNewton, Learner, TrainingSet, VotedPerceptron, WeightLearner};
use tuffy_serve::client::{Client, RetryPolicy, WireAnswer};
use tuffy_serve::wire::{WireQuery, WireQueryKind};

struct Args {
    program: String,
    evidence: Option<String>,
    result: Option<String>,
    deltas: Vec<String>,
    session: bool,
    connect: Option<String>,
    marginal: bool,
    explain: bool,
    explain_schedule: bool,
    flips: u64,
    threads: usize,
    partition: PartitionStrategy,
    partition_rounds: usize,
    seed: u64,
    join_order: JoinOrderPolicy,
    join_algorithm: JoinAlgorithmPolicy,
    pushdown: bool,
    mem_budget_bytes: usize,
    learn: Option<String>,
    learner: LearnerKind,
    learn_iters: usize,
}

#[derive(Clone, Copy, PartialEq)]
enum LearnerKind {
    VotedPerceptron,
    DiagonalNewton,
}

fn usage() -> &'static str {
    "usage: tuffy -i <prog.mln> [-e <evidence.db>] [-r <result.out>]\n\
     \x20       [--marginal] [--delta <delta.db>]... [--session]\n\
     \x20       [--connect HOST:PORT] [--flips N] [--parallel N] [--no-partition]\n\
     \x20       [--mem-budget BYTES] [--partition-rounds N] [--seed N]\n\
     \x20       [--explain] [--explain-schedule]\n\
     \x20       [--join-order auto|program] [--join-algo auto|nl]\n\
     \x20       [--no-pushdown] [--mem-budget-bytes N]\n\
     \x20       [--learn <labels.db>] [--learner vp|dn] [--learn-iters N]"
}

/// Flags that configure a local engine; `--connect` rejects each.
const LOCAL_ONLY: [&str; 15] = [
    "-i",
    "-e",
    "--explain",
    "--explain-schedule",
    "--parallel",
    "--no-partition",
    "--mem-budget",
    "--partition-rounds",
    "--join-order",
    "--join-algo",
    "--no-pushdown",
    "--mem-budget-bytes",
    "--learn",
    "--learner",
    "--learn-iters",
];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        program: String::new(),
        evidence: None,
        result: None,
        deltas: Vec::new(),
        session: false,
        connect: None,
        marginal: false,
        explain: false,
        explain_schedule: false,
        flips: 1_000_000,
        threads: 0,
        partition: PartitionStrategy::Components,
        partition_rounds: 3,
        seed: 42,
        join_order: JoinOrderPolicy::Auto,
        join_algorithm: JoinAlgorithmPolicy::Auto,
        pushdown: true,
        mem_budget_bytes: 0,
        learn: None,
        learner: LearnerKind::VotedPerceptron,
        learn_iters: 10,
    };
    let mut local_flag = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if local_flag.is_none() && LOCAL_ONLY.contains(&flag.as_str()) {
            local_flag = Some(flag.clone());
        }
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} expects a value\n{}", usage()))
        };
        match flag.as_str() {
            "-i" => args.program = value("-i")?,
            "-e" => args.evidence = Some(value("-e")?),
            "-r" => args.result = Some(value("-r")?),
            "--delta" => args.deltas.push(value("--delta")?),
            "--session" => args.session = true,
            "--connect" => args.connect = Some(value("--connect")?),
            "--marginal" => args.marginal = true,
            "--explain" => args.explain = true,
            "--explain-schedule" => args.explain_schedule = true,
            "--no-pushdown" => args.pushdown = false,
            "--join-order" => {
                args.join_order = match value("--join-order")?.as_str() {
                    "auto" => JoinOrderPolicy::Auto,
                    "program" => JoinOrderPolicy::Program,
                    other => return Err(format!("unknown join order `{other}`")),
                };
            }
            "--join-algo" => {
                args.join_algorithm = match value("--join-algo")?.as_str() {
                    "auto" => JoinAlgorithmPolicy::Auto,
                    "nl" | "nested-loop" => JoinAlgorithmPolicy::NestedLoopOnly,
                    other => return Err(format!("unknown join algorithm `{other}`")),
                };
            }
            "--no-partition" => args.partition = PartitionStrategy::None,
            "--mem-budget" => {
                let v = value(&flag)?;
                let bytes: usize = v.parse().map_err(|e| format!("{flag}: {e}"))?;
                args.partition = PartitionStrategy::Budget(bytes);
            }
            // Note: distinct from `--mem-budget`, which bounds the
            // *search* partitioning; this bounds grounding-time join
            // state and spills the excess to disk.
            "--mem-budget-bytes" => {
                args.mem_budget_bytes =
                    value(&flag)?.parse().map_err(|e| format!("{flag}: {e}"))?;
            }
            "--partition-rounds" => {
                args.partition_rounds = value("--partition-rounds")?
                    .parse()
                    .map_err(|e| format!("--partition-rounds: {e}"))?;
            }
            "--flips" => {
                args.flips = value("--flips")?
                    .parse()
                    .map_err(|e| format!("--flips: {e}"))?;
            }
            "--parallel" => {
                args.threads = value(&flag)?.parse().map_err(|e| format!("{flag}: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--learn" => args.learn = Some(value("--learn")?),
            "--learner" => {
                args.learner = match value("--learner")?.as_str() {
                    "vp" | "perceptron" => LearnerKind::VotedPerceptron,
                    "dn" | "newton" => LearnerKind::DiagonalNewton,
                    other => return Err(format!("unknown learner `{other}` (vp|dn)")),
                };
            }
            "--learn-iters" => {
                args.learn_iters = value("--learn-iters")?
                    .parse()
                    .map_err(|e| format!("--learn-iters: {e}"))?;
            }
            "-h" | "--help" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if args.connect.is_some() {
        if let Some(flag) = local_flag {
            return Err(format!(
                "{flag} configures a local engine; --connect runs inference in tuffyd"
            ));
        }
    } else if args.program.is_empty() {
        return Err(format!("missing -i <prog.mln>\n{}", usage()));
    }
    Ok(args)
}

/// The query a CLI inference runs: MAP, or all-predicate marginals
/// seeded from `--seed`.
fn cli_query(marginal: bool, seed: u64) -> Query {
    if marginal {
        Query::marginal_all().with_mcsat(McSatParams {
            seed,
            ..Default::default()
        })
    } else {
        Query::map()
    }
}

/// Renders one query answer the way the CLI emits it, with its progress
/// line on stderr.
fn render_answer(answer: tuffy::QueryAnswer) -> String {
    match answer {
        tuffy::QueryAnswer::Map(r) => {
            eprintln!(
                "search: {} flips in {:?} ({:.0} flips/sec), solution cost {}",
                r.report.flips, r.report.search_time, r.report.flips_per_sec, r.cost
            );
            r.to_text()
        }
        tuffy::QueryAnswer::Marginal(r) => {
            eprintln!(
                "marginals over {} atoms: {} flips in {:?} ({:.0} flips/sec)",
                r.report.atoms, r.report.flips, r.report.search_time, r.report.flips_per_sec
            );
            let mut out = String::new();
            for (name, (_, p)) in r.names.iter().zip(r.marginals.iter()) {
                out.push_str(&format!("{p:.4}\t{name}\n"));
            }
            out
        }
        tuffy::QueryAnswer::TopK(r) => {
            let mut out = String::new();
            for e in &r.entries {
                out.push_str(&format!("{:.4}\t{}\n", e.probability, e.name));
            }
            out
        }
    }
}

/// Runs one inference over the session and returns the rendered output.
fn infer(session: &mut Session, marginal: bool, seed: u64) -> Result<String, String> {
    let answer = session
        .query(&cli_query(marginal, seed))
        .map_err(|e| e.to_string())?;
    Ok(render_answer(answer))
}

fn apply_and_report(
    session: &mut Session,
    delta_src: &str,
    marginal: bool,
    seed: u64,
) -> Result<String, String> {
    let delta = session.parse_delta(delta_src).map_err(|e| e.to_string())?;
    let t0 = std::time::Instant::now();
    let report = session.apply(&delta).map_err(|e| e.to_string())?;
    let output = infer(session, marginal, seed)?;
    eprintln!(
        "delta: {} change(s), {} in {:?}, re-inference in {:?} total",
        report.changes,
        if report.incremental {
            "patched incrementally".to_string()
        } else {
            format!(
                "full re-ground ({})",
                report.reason.as_deref().unwrap_or("unknown")
            )
        },
        report.wall,
        t0.elapsed(),
    );
    Ok(output)
}

fn emit(args: &Args, output: &str) -> Result<(), String> {
    match &args.result {
        Some(path) => std::fs::write(path, output).map_err(|e| format!("{path}: {e}")),
        None => {
            print!("{output}");
            Ok(())
        }
    }
}

fn repl(session: &mut Session, args: &Args) -> Result<(), String> {
    eprintln!(
        "session REPL: evidence edits re-run inference (`atom` assert true, `!atom` assert \
         false, `-atom` retract, `~atom` flip); :map :marginal :explain :quit"
    );
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let trimmed = line.trim();
        let outcome = match trimmed {
            "" => continue,
            ":quit" | ":q" => break,
            ":explain" => {
                eprint!("{}", session.explain());
                continue;
            }
            ":map" => infer(session, false, args.seed),
            ":marginal" => infer(session, true, args.seed),
            _ => apply_and_report(session, trimmed, args.marginal, args.seed),
        };
        match outcome {
            Ok(output) => emit(args, &output)?,
            Err(e) => eprintln!("error: {e}"),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Networked mode (`--connect`)
// ---------------------------------------------------------------------

/// The wire mirror of [`cli_query`]: the same MAP / seeded-marginal
/// request, with `--flips`/`--seed` carried as explicit per-request
/// overrides (a remote server doesn't share this process's config).
fn net_query(marginal: bool, flips: u64, seed: u64) -> WireQuery {
    if marginal {
        let m = McSatParams {
            seed,
            ..Default::default()
        };
        WireQuery {
            kind: WireQueryKind::Marginal,
            mcsat: Some((
                m.samples as u64,
                m.burn_in as u64,
                m.sample_sat_steps,
                m.p_anneal,
                m.temperature,
                m.seed,
            )),
            ..WireQuery::default()
        }
    } else {
        let w = WalkSatParams {
            max_flips: flips,
            seed,
            ..Default::default()
        };
        WireQuery {
            kind: WireQueryKind::Map,
            search: Some((w.max_flips, w.max_tries, w.noise, w.seed)),
            ..WireQuery::default()
        }
    }
}

/// Renders a wire answer in the same output format as the local path:
/// evidence-syntax atom lines for MAP, `prob\tatom` rows for
/// marginal/top-k. Probabilities and costs arrive as exact IEEE bits.
fn render_wire_answer(answer: &WireAnswer) -> String {
    match answer {
        WireAnswer::Map(a) => {
            let cost = tuffy::Cost {
                hard: a.cost_hard,
                soft: f64::from_bits(a.cost_soft_bits),
            };
            eprintln!(
                "search (remote, generation {}): {} flips, solution cost {}",
                a.generation, a.flips, cost
            );
            let mut out = String::new();
            for atom in &a.atoms {
                out.push_str(atom);
                out.push('\n');
            }
            out
        }
        WireAnswer::Marginal(a) | WireAnswer::TopK(a) => {
            eprintln!(
                "marginals (remote, generation {}): {} entries, {} flips",
                a.generation,
                a.entries.len(),
                a.flips
            );
            let mut out = String::new();
            for e in &a.entries {
                out.push_str(&format!(
                    "{:.4}\t{}\n",
                    f64::from_bits(e.probability_bits),
                    e.atom
                ));
            }
            out
        }
    }
}

fn net_infer(client: &mut Client, marginal: bool, args: &Args) -> Result<String, String> {
    // Ride out transient backpressure (`busy queue` / `busy heavy`)
    // with the shared typed retry budget instead of failing the CLI.
    let (answer, retries) = client
        .query_with_retry(
            &net_query(marginal, args.flips, args.seed),
            &RetryPolicy::default(),
        )
        .map_err(|e| e.to_string())?;
    if retries > 0 {
        eprintln!(
            "server busy: answered after {retries} retr{}",
            plural_y(retries)
        );
    }
    Ok(render_wire_answer(&answer))
}

fn plural_y(n: u32) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

fn net_apply_and_report(
    client: &mut Client,
    delta_src: &str,
    args: &Args,
) -> Result<String, String> {
    let applied = client.apply(delta_src).map_err(|e| e.to_string())?;
    eprintln!(
        "delta: {} change(s), {} — generation {} ({} clauses over {} atoms)",
        applied.changes,
        if applied.incremental {
            "patched incrementally"
        } else {
            "full re-ground"
        },
        applied.generation,
        applied.clauses,
        applied.atoms,
    );
    net_infer(client, args.marginal, args)
}

fn net_repl(client: &mut Client, args: &Args) -> Result<(), String> {
    eprintln!(
        "remote session REPL: evidence edits re-run inference server-side; :map :marginal :quit"
    );
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let trimmed = line.trim();
        let outcome = match trimmed {
            "" => continue,
            ":quit" | ":q" => break,
            ":explain" => {
                eprintln!("error: :explain requires a local engine");
                continue;
            }
            ":map" => net_infer(client, false, args),
            ":marginal" => net_infer(client, true, args),
            _ => net_apply_and_report(client, trimmed, args),
        };
        match outcome {
            Ok(output) => emit(args, &output)?,
            Err(e) => eprintln!("error: {e}"),
        }
    }
    Ok(())
}

/// The `--connect` path: same CLI surface, inference runs in `tuffyd`.
fn run_connect(addr: &str, args: &Args) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    eprintln!(
        "connected to tuffyd at {addr} (protocol {}, generation {})",
        client.protocol(),
        client.generation(),
    );
    let output = net_infer(&mut client, args.marginal, args)?;
    emit(args, &output)?;

    for path in &args.deltas {
        let delta_src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("applying delta {path}");
        let output = net_apply_and_report(&mut client, &delta_src, args)?;
        emit(args, &output)?;
    }

    if args.session {
        net_repl(&mut client, args)?;
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if let Some(addr) = &args.connect {
        return run_connect(addr, &args);
    }
    let program_src =
        std::fs::read_to_string(&args.program).map_err(|e| format!("{}: {e}", args.program))?;
    let evidence_src = match &args.evidence {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        None => String::new(),
    };
    let config = TuffyConfig {
        partitioning: args.partition,
        partition_rounds: args.partition_rounds,
        threads: args.threads,
        optimizer: tuffy::OptimizerConfig {
            join_order: args.join_order,
            join_algorithm: args.join_algorithm,
            pushdown: args.pushdown,
            mem_budget_bytes: args.mem_budget_bytes,
        },
        search: WalkSatParams {
            max_flips: args.flips,
            seed: args.seed,
            ..Default::default()
        },
        ..Default::default()
    };
    if let Some(labels_path) = &args.learn {
        return run_learn(&args, &program_src, &evidence_src, labels_path, config);
    }
    let tuffy = Tuffy::from_sources(&program_src, &evidence_src)
        .map_err(|e| e.to_string())?
        .with_config(config);

    if args.explain_schedule {
        let text = tuffy.explain_schedule().map_err(|e| e.to_string())?;
        return emit(&args, &text);
    }
    if args.explain {
        let text = tuffy.explain_grounding().map_err(|e| e.to_string())?;
        return emit(&args, &text);
    }

    let mut session = tuffy.open_session().map_err(|e| e.to_string())?;
    eprintln!(
        "grounded {} clauses over {} atoms in {:?}",
        session.grounding().mrf.clauses().len(),
        session.grounding().registry.len(),
        session.grounding().stats.wall
    );
    let output = infer(&mut session, args.marginal, args.seed)?;
    emit(&args, &output)?;

    for path in &args.deltas {
        let delta_src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("applying delta {path}");
        let output = apply_and_report(&mut session, &delta_src, args.marginal, args.seed)?;
        emit(&args, &output)?;
    }

    if args.session {
        repl(&mut session, &args)?;
    }
    Ok(())
}

/// The `--learn` path: the labels file becomes the training world and
/// the CLI fits the soft rule weights on one fixed grounding, printing
/// the learned weight per rule.
fn run_learn(
    args: &Args,
    program_src: &str,
    evidence_src: &str,
    labels_path: &str,
    config: TuffyConfig,
) -> Result<(), String> {
    let labels_src =
        std::fs::read_to_string(labels_path).map_err(|e| format!("{labels_path}: {e}"))?;
    let mut program = tuffy_mln::parser::parse_program(program_src).map_err(|e| e.to_string())?;
    let evidence =
        tuffy_mln::parser::parse_evidence(&mut program, evidence_src).map_err(|e| e.to_string())?;
    let labels =
        tuffy_mln::parser::parse_evidence(&mut program, &labels_src).map_err(|e| e.to_string())?;
    let labels: Vec<_> = labels.iter().map(|e| e.to_evidence()).collect();

    // A learning engine must materialize the query atoms it learns
    // about: with the labels withheld from evidence, lazy closure would
    // have nothing to activate.
    let config = TuffyConfig {
        grounding: GroundingMode::Eager,
        ..config
    };
    let engine = Tuffy::from_parts(program, evidence)
        .with_config(config)
        .build_engine()
        .map_err(|e| e.to_string())?;
    let snapshot = engine.snapshot();
    eprintln!(
        "grounded {} clauses over {} atoms in {:?}",
        snapshot.grounding().mrf.num_clauses(),
        snapshot.grounding().registry.len(),
        snapshot.grounding().stats.wall
    );
    let training = TrainingSet::from_labels(&snapshot, &labels);
    if training.labeled() == 0 {
        return Err(format!(
            "{labels_path}: no label resolved to a query atom of the grounding"
        ));
    }
    eprintln!(
        "training world: {} of {} labels resolved over {} query atoms (unlabeled atoms \
         default false)",
        training.labeled(),
        labels.len(),
        training.world().len(),
    );

    let fit_config = Learner {
        iters: args.learn_iters,
        search: WalkSatParams {
            max_flips: args.flips,
            seed: args.seed,
            ..Default::default()
        },
        mcsat: McSatParams {
            seed: args.seed,
            ..Default::default()
        },
    };
    let learner: Box<dyn WeightLearner> = match args.learner {
        LearnerKind::VotedPerceptron => Box::new(VotedPerceptron::default()),
        LearnerKind::DiagonalNewton => Box::new(DiagonalNewton::default()),
    };
    let started = std::time::Instant::now();
    let fit = fit_config
        .fit(&engine, &training, learner.as_ref())
        .map_err(|e| e.to_string())?;
    for it in &fit.trace {
        eprintln!("learn iter {}: |gradient| = {:.4}", it.iter, it.grad_norm);
    }
    eprintln!(
        "learned {} rule weight(s) with {} in {:?}; groundings performed: {}",
        fit.weights.iter().filter(|w| !w.is_hard()).count(),
        learner.name(),
        started.elapsed(),
        engine.groundings_performed(),
    );

    let mut out = String::new();
    for (i, (w, rule)) in fit
        .weights
        .iter()
        .zip(engine.program().rules.iter())
        .enumerate()
    {
        let rendered = match w {
            tuffy::Weight::Soft(v) => format!("{v:.6}"),
            tuffy::Weight::Hard => "hard".to_string(),
            tuffy::Weight::NegHard => "neg-hard".to_string(),
        };
        out.push_str(&format!("rule {i} (line {}): {rendered}\n", rule.line));
    }
    emit(args, &out)
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
