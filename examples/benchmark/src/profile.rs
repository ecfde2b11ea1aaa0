//! The traced run: one cold request decomposed layer by layer, then
//! probes of the layers a cold request does not reach.
//!
//! A profile child first replays the CLI's call sequence by calling each
//! layer's public functions directly — the same calls `Tuffy`, `Engine`
//! and `Snapshot` make — under spans, so the parts can be summed and
//! compared with the whole. Its result file must equal the untraced
//! child's byte for byte, which pins that the decomposition does the same
//! work. It then times the remaining public entry points (plan-only
//! grounding, MRF rebuild, serving-budget search, session applies, store
//! and WAL, wire codec, a loopback server) on the same inputs. Nothing
//! outside this directory is instrumented: values the program already
//! returns (`GroundingStats`, `ApplyReport`, `ServerStats`) are read.

use crate::cold::{cli_config, spawn_child, write_stats};
use crate::data::{script_candidates, write_script, Inputs, SERVING_FLIPS};
use crate::report::{Metrics, RunResult};
use crate::serve::{map_query, topk_params, wire_map_answer};
use crate::stats::median;
use crate::trace::{self_by_name, Trace};
use std::sync::Arc;
use std::time::Instant;
use tuffy::{DurableEngine, Engine, Query, Tuffy, WalkSatParams};
use tuffy_grounder::{
    apply_delta_grounding, ground_bottom_up_threaded, DeltaOutcome, GroundingMode,
};
use tuffy_mln::parser::{parse_delta, parse_evidence, parse_program};
use tuffy_mrf::{ComponentSet, MrfBuilder, Partitioning};
use tuffy_rdbms::OptimizerConfig;
use tuffy_search::mcsat::McSat;
use tuffy_search::{Schedule, Scheduler, SchedulerConfig};
use tuffy_serve::wire::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use tuffy_serve::{Client, ServeConfig, Server};
use tuffy_store::wal::Wal;

/// Label asserts the apply, patch and replay probes use.
const LABEL_PROBES: usize = 6;
/// Evidence flips (re-grounds) the apply probe uses.
const FLIP_PROBES: usize = 2;

/// Seconds a repeated probe may use before it stops repeating: dense
/// inputs (a 10 k-flip MAP over ER's 900 k clauses takes a second) get
/// fewer repetitions instead of a minute per probe.
const PROBE_BUDGET_S: f64 = 2.5;

/// The repetitions of one probe: always two, then for as long as the
/// budget, counted from the first, lasts.
fn budgeted<T>(items: impl IntoIterator<Item = T>) -> impl Iterator<Item = T> {
    let began = Instant::now();
    items
        .into_iter()
        .enumerate()
        .take_while(move |(k, _)| *k < 2 || began.elapsed().as_secs_f64() < PROBE_BUDGET_S)
        .map(|(_, item)| item)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The profile child: traced pipeline, then probes; spans to
/// `trace.json`, metrics to `child.stats`, the pipeline's answer to
/// `result.out`.
pub fn child_main(inputs: &Inputs, flips: u64, seed: u64) -> Result<(), String> {
    let mut m = Metrics::default();
    let mut trace = Trace::new();
    pipeline(inputs, flips, seed, &mut trace, &mut m)?;
    probes(inputs, flips, seed, &mut trace, &mut m)?;
    let path = inputs.file("trace.json");
    std::fs::write(&path, trace.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    write_stats(&inputs.file("child.stats"), &m)
}

/// The CLI's call sequence, one span per layer call.
fn pipeline(
    inputs: &Inputs,
    flips: u64,
    seed: u64,
    t: &mut Trace,
    m: &mut Metrics,
) -> Result<(), String> {
    let config = cli_config(flips, seed);
    let root = t.enter("cold", 1);
    let (sources, _) = t.time("io.read", 1, || inputs.read_sources());
    let (program_src, evidence_src) = sources?;

    // `Tuffy::from_sources`.
    let (program, parse_program_s) = t.time("mln.parse_program", 1, || parse_program(&program_src));
    let mut program = program.map_err(err)?;
    let (evidence, parse_evidence_s) = t.time("mln.parse_evidence", 1, || {
        parse_evidence(&mut program, &evidence_src)
    });
    let evidence = evidence.map_err(err)?;

    // `Tuffy::build_engine`: the engine owns copies of both inputs.
    let (owned, _) = t.time("core.clone_inputs", 1, || {
        (Arc::new(program.clone()), evidence.clone())
    });
    let ground = t.enter("grounder.ground", 1);
    let grounding = ground_bottom_up_threaded(
        &owned.0,
        &owned.1,
        config.grounding,
        &config.optimizer,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
    .map_err(err)?;
    let ground_s = t.exit(ground);
    let stats = grounding.stats.clone();
    // Executor time is measured by the executor itself, summed over its
    // plan nodes (and over grounding threads).
    t.attribute(ground, "rdbms.exec", stats.query_exec.as_secs_f64());

    // `Snapshot::query(&Query::map())`.
    let mrf = &grounding.mrf;
    let (components, components_s) = t.time("mrf.components", 1, || ComponentSet::detect(mrf));
    let (schedule, plan_s) = t.time("search.plan", 1, || Arc::new(Schedule::plan(mrf, None)));
    let scheduler = Scheduler::with_schedule(mrf, schedule, config.scheduler_config());
    let mut cost_trace = tuffy::TimeCostTrace::with_offset(stats.wall);
    let (found, run_s) = t.time("search.run", 1, || {
        scheduler.run_from(&vec![false; mrf.num_atoms()], Some(&mut cost_trace))
    });
    // `MapResult::new` + `to_text`: resolve every true atom's names, then
    // render them as evidence lines.
    let (text, _) = t.time("core.answer_build", 1, || {
        let names: Vec<(String, Vec<String>)> = found
            .truth
            .iter()
            .enumerate()
            .filter(|(_, &on)| on)
            .map(|(i, _)| {
                let atom = grounding.registry.ground_atom(i as u32);
                (
                    owned.0.predicate_name(atom.predicate).to_string(),
                    atom.args
                        .iter()
                        .map(|s| owned.0.symbols.resolve(*s).to_string())
                        .collect(),
                )
            })
            .collect();
        let mut out = String::new();
        for (name, args) in &names {
            out.push_str(name);
            out.push('(');
            out.push_str(&args.join(", "));
            out.push_str(")\n");
        }
        out
    });
    let out = inputs.file("result.out");
    let (written, _) = t.time("io.write", 1, || std::fs::write(&out, &text));
    written.map_err(|e| format!("{}: {e}", out.display()))?;

    let evidence_mb = evidence_src.len() as f64 / 1e6;
    let largest = components.atoms.iter().map(Vec::len).max().unwrap_or(0);
    let nontrivial = components.nontrivial_count();
    let arena_mb = mrf.clause_bytes() as f64 / 1e6;
    let (flips_run, cost) = (found.flips, found.cost);
    let teardown = t.enter("core.teardown", 1);
    drop((found, cost_trace, scheduler, components));
    drop((
        grounding,
        owned,
        program,
        evidence,
        program_src,
        evidence_src,
    ));
    t.exit(teardown);
    let wall_s = t.exit(root);

    m.add("mln.parse_program_s", "s", parse_program_s);
    m.add("mln.parse_evidence_s", "s", parse_evidence_s);
    m.add(
        "mln.evidence_mb_per_s",
        "MB/s",
        evidence_mb / parse_evidence_s,
    );
    let exec_s = stats.query_exec.as_secs_f64();
    m.add("rdbms.exec_s", "s", exec_s);
    m.add("rdbms.queries", "count", stats.queries as f64);
    m.add("rdbms.replans", "count", stats.replans as f64);
    m.add(
        "rdbms.exec_us_per_query",
        "us",
        exec_s * 1e6 / stats.queries.max(1) as f64,
    );
    m.add("grounder.ground_s", "s", ground_s);
    m.add("grounder.self_s", "s", ground_s - exec_s);
    m.add("grounder.clauses", "count", stats.clauses as f64);
    m.add(
        "grounder.bindings",
        "count",
        stats.bindings_considered as f64,
    );
    m.add(
        "grounder.clauses_per_binding",
        "ratio",
        stats.clauses as f64 / stats.bindings_considered.max(1) as f64,
    );
    m.add(
        "grounder.clauses_per_s",
        "1/s",
        stats.clauses as f64 / ground_s,
    );
    m.add("grounder.rounds", "count", stats.rounds as f64);
    m.add("grounder.peak_bytes", "B", stats.peak_bytes as f64);
    m.add("mrf.components_s", "s", components_s);
    m.add("mrf.components", "count", nontrivial as f64);
    m.add("mrf.largest_component_atoms", "count", largest as f64);
    m.add("mrf.arena_mb", "MB", arena_mb);
    m.add("search.plan_s", "s", plan_s);
    m.add("search.run_s", "s", run_s);
    m.add("search.flips", "count", flips_run as f64);
    m.add("search.flips_per_s", "1/s", flips_run as f64 / run_s);
    m.add("search.map_cost", "cost", cost.soft);
    m.add("trace.cost_hard", "count", cost.hard as f64);
    m.add("trace.wall_s", "s", wall_s);
    // Time inside the root span that no layer span covers.
    let by_name = self_by_name(t.spans(), root);
    m.add("trace.residual_frac", "ratio", by_name["cold"] / wall_s);
    for (name, secs) in &by_name {
        if name != "cold" {
            m.add(&format!("trace.self_s.{name}"), "s", *secs);
        }
    }
    Ok(())
}

/// Probes of every layer entry point a cold request does not exercise,
/// on the same inputs.
fn probes(
    inputs: &Inputs,
    flips: u64,
    seed: u64,
    t: &mut Trace,
    m: &mut Metrics,
) -> Result<(), String> {
    let (program_src, evidence_src) = inputs.read_sources()?;
    let mut program = parse_program(&program_src).map_err(err)?;
    let evidence = parse_evidence(&mut program, &evidence_src).map_err(err)?;
    let mode = GroundingMode::LazyClosure;
    let optimizer = OptimizerConfig::default();

    // rdbms: compile and plan every binding query, execute none.
    let (plans, plan_s) = t.time("rdbms.plan", 2, || {
        tuffy_grounder::explain_grounding(&program, &evidence, mode, &optimizer)
    });
    plans.map_err(err)?;
    m.add("rdbms.plan_s", "s", plan_s);

    // core: the engine every later probe reads.
    let (engine, build_s) = t.time("core.build_engine", 3, || {
        Tuffy::from_parts(program.clone(), evidence.clone())
            .with_config(cli_config(flips, seed))
            .build_engine()
    });
    let engine = engine.map_err(err)?;
    m.add("core.build_engine_s", "s", build_s);
    let snapshot = engine.snapshot();
    let mrf = &snapshot.grounding().mrf;

    // mrf: re-add every ground clause to a fresh builder and finish.
    let (rebuilt, mrf_build_s) = t.time("mrf.build", 4, || {
        let mut b = MrfBuilder::new();
        b.reserve_atoms(mrf.num_atoms());
        for ci in 0..mrf.num_clauses() {
            b.add_clause_with_origins(
                mrf.clause_lits(ci).to_vec(),
                mrf.clause_weight(ci),
                mrf.provenance(ci),
                mrf.clause_origins(ci),
            );
        }
        b.finish()
    });
    if rebuilt.num_clauses() != mrf.num_clauses() {
        return Err("rebuilt MRF lost clauses".to_string());
    }
    drop(rebuilt);
    m.add("mrf.build_s", "s", mrf_build_s);
    let (_, partition_s) = t.time("mrf.partition", 4, || {
        Partitioning::compute(mrf, usize::MAX)
    });
    m.add("mrf.partition_s", "s", partition_s);

    // search: the flip loop at the serving budget, on the serving store.
    let schedule = Arc::new(Schedule::plan(mrf, None));
    let init = vec![false; mrf.num_atoms()];
    let serving = |s: u64| WalkSatParams {
        max_flips: SERVING_FLIPS,
        seed: s,
        ..Default::default()
    };
    let mut search_ms = Vec::new();
    for k in budgeted(0..7) {
        let scheduler = Scheduler::with_schedule(
            mrf,
            schedule.clone(),
            SchedulerConfig {
                search: serving(seed.wrapping_add(k)),
                ..engine.config().scheduler_config()
            },
        );
        search_ms.push(
            t.time("search.map_10k", 5, || scheduler.run_from(&init, None))
                .1
                * 1e3,
        );
    }
    m.extend("search.map_10k_ms", "ms", &search_ms);

    // core: a whole query at the same budget; what it adds to the search
    // is answer materialisation.
    let plain = |s: u64| Query::map().with_search(serving(s));
    snapshot.query(&plain(seed)).map_err(err)?; // fills the generation's caches
    let mut query_ms = Vec::new();
    let mut last = None;
    for k in budgeted(0..7) {
        let (answer, secs) = t.time("core.query_map", 6, || {
            snapshot.query(&plain(seed.wrapping_add(k)))
        });
        last = Some(answer.map_err(err)?);
        query_ms.push(secs * 1e3);
    }
    m.extend("core.query_map_ms", "ms", &query_ms);
    m.add(
        "core.answer_build_ms",
        "ms",
        median(&query_ms) - median(&search_ms),
    );
    let answer = last.and_then(|a| a.into_map()).ok_or("no MAP answer")?;

    // The deltas the remaining probes play: label asserts on active query
    // atoms, flips of existing evidence tuples.
    let (atoms, tuples) = script_candidates(&snapshot);
    let script = write_script(seed, 4 * (LABEL_PROBES + FLIP_PROBES), &atoms, &tuples);
    let labels: Vec<&String> = script
        .iter()
        .filter(|d| !d.starts_with('~'))
        .take(LABEL_PROBES)
        .collect();
    let flips_: Vec<&String> = script
        .iter()
        .filter(|d| d.starts_with('~'))
        .take(FLIP_PROBES)
        .collect();
    if labels.len() < LABEL_PROBES || flips_.len() < FLIP_PROBES {
        return Err("too few script candidates for the apply probes".to_string());
    }

    // mln: delta parsing.
    let mut scratch = program.clone();
    for delta in labels.iter().chain(&flips_) {
        let (parsed, secs) = t.time("mln.parse_delta", 7, || parse_delta(&mut scratch, delta));
        parsed.map_err(err)?;
        m.add("mln.parse_delta_us", "us", secs * 1e6);
    }

    // core: a `given` query forks an ephemeral generation first.
    for (k, label) in budgeted(labels.iter().enumerate()) {
        let delta = parse_delta(&mut scratch, label).map_err(err)?;
        let query = plain(seed.wrapping_add(k as u64)).given(delta);
        let (answered, secs) = t.time("core.query_given", 8, || snapshot.query(&query));
        answered.map_err(err)?;
        m.add("core.given_fork_ms", "ms", secs * 1e3 - median(&query_ms));
    }

    // grounder: the incremental patch alone, on the base store.
    for label in budgeted(&labels) {
        let delta = parse_delta(&mut scratch, label).map_err(err)?;
        let changes = evidence.clone().apply(&program, &delta).map_err(err)?;
        let (outcome, secs) = t.time("grounder.patch", 9, || {
            apply_delta_grounding(&program, snapshot.grounding(), &changes)
        });
        if matches!(outcome, DeltaOutcome::Patched(_)) {
            m.add("grounder.patch_ms", "ms", secs * 1e3);
        }
    }

    // core: committed applies on a session — patch for the labels,
    // re-ground for the flips.
    let mut session = engine.open_session();
    let mut incremental = 0usize;
    // The labels actually applied; the durable-lineage probe replays them.
    let mut applied: Vec<&String> = Vec::new();
    for (delta, label) in
        budgeted(labels.iter().map(|d| (*d, true))).chain(flips_.iter().map(|d| (*d, false)))
    {
        let parsed = session.parse_delta(delta).map_err(err)?;
        let (report, secs) = t.time("core.apply", 10, || session.apply(&parsed));
        let report = report.map_err(err)?;
        let name = if label {
            "core.apply_label_ms"
        } else {
            "core.apply_flip_ms"
        };
        m.add(name, "ms", secs * 1e3);
        if label {
            incremental += usize::from(report.incremental);
            applied.push(delta);
        }
    }
    drop(session);
    m.add(
        "grounder.patch_frac",
        "ratio",
        incremental as f64 / applied.len() as f64,
    );
    if m.value("grounder.patch_ms").is_nan() {
        // No label fell in the patch fragment on these inputs: the cost of
        // a label apply is then the cost of a re-ground.
        m.add("grounder.patch_ms", "ms", m.value("core.apply_label_ms"));
    }

    store_probes(inputs, &engine, &applied, t, m)?;
    serve_probes(&engine, &answer, seed, t, m)?;

    // search/core: MC-SAT, on the inputs whose weights it accepts.
    let params = topk_params(0);
    if let Ok(mut sampler) = McSat::new(mrf, params.seed) {
        let (_, secs) = t.time("search.mcsat", 13, || {
            sampler.marginals_with_clause_stats(&params)
        });
        m.add("search.mcsat_ms", "ms", secs * 1e3);
        let predicate = program
            .predicate_name(snapshot.grounding().registry.atom(0).0)
            .to_string();
        let query = Query::top_k(&predicate, 10).with_mcsat(params);
        let (miss, miss_s) = t.time("core.marginal_miss", 13, || snapshot.query(&query));
        miss.map_err(err)?;
        let (hit, hit_s) = t.time("core.marginal_hit", 13, || snapshot.query(&query));
        hit.map_err(err)?;
        m.add("core.marginal_miss_ms", "ms", miss_s * 1e3);
        m.add("core.marginal_hit_us", "us", hit_s * 1e6);
    }
    Ok(())
}

/// store: base save/load, raw WAL appends, and a small durable lineage's
/// replay and checkpoint.
fn store_probes(
    inputs: &Inputs,
    engine: &Engine,
    labels: &[&String],
    t: &mut Trace,
    m: &mut Metrics,
) -> Result<(), String> {
    let dir = inputs.file("store_probe");
    let _ = std::fs::remove_dir_all(&dir);
    let (saved, save_s) = t.time("store.save", 11, || engine.save(&dir));
    let file = saved.map_err(err)?;
    m.add("store.save_s", "s", save_s);
    let bytes = std::fs::metadata(&file).map_err(err)?.len();
    m.add("store.file_mb", "MB", bytes as f64 / 1e6);
    let (loaded, load_s) = t.time("store.load", 11, || Engine::load(&dir));
    loaded.map_err(err)?;
    m.add("store.load_s", "s", load_s);

    let (mut wal, _) = Wal::open(&dir.join("probe.twl"), 0).map_err(err)?;
    let empty = wal.len_bytes();
    for label in labels {
        let (appended, secs) = t.time("store.wal_append", 11, || wal.append(label.as_bytes()));
        appended.map_err(err)?;
        m.add("store.wal_append_ms", "ms", secs * 1e3);
    }
    m.add(
        "store.wal_bytes_per_record",
        "B",
        (wal.len_bytes() - empty) as f64 / labels.len() as f64,
    );
    drop(wal);

    let lineage = inputs.file("lineage_probe");
    let _ = std::fs::remove_dir_all(&lineage);
    let mut durable = DurableEngine::create(engine.clone(), &lineage, 0).map_err(err)?;
    for label in labels {
        durable.apply(label).map_err(err)?;
    }
    drop(durable);
    let (opened, open_s) = t.time("store.recover", 11, || DurableEngine::open(&lineage, 0));
    let (mut durable, recovery) = opened.map_err(err)?;
    m.add("store.replayed_records", "count", recovery.replayed as f64);
    m.add(
        "store.replay_ms_per_record",
        "ms",
        (open_s - load_s) * 1e3 / recovery.replayed.max(1) as f64,
    );
    let (folded, checkpoint_s) = t.time("store.checkpoint", 11, || durable.checkpoint());
    folded.map_err(err)?;
    m.add("store.checkpoint_s", "s", checkpoint_s);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&lineage);
    Ok(())
}

/// serve: the wire codec on recorded frames, and a loopback server's
/// ping and MAP round trips.
fn serve_probes(
    engine: &Engine,
    answer: &tuffy::MapResult,
    seed: u64,
    t: &mut Trace,
    m: &mut Metrics,
) -> Result<(), String> {
    let request = Request::Query(map_query(seed));
    let frame = encode_request(&request);
    const REQUEST_REPS: usize = 2000;
    let (_, secs) = t.time("serve.encode_req", 12, || {
        for _ in 0..REQUEST_REPS {
            std::hint::black_box(encode_request(std::hint::black_box(&request)));
        }
    });
    m.add(
        "serve.encode_req_us",
        "us",
        secs * 1e6 / REQUEST_REPS as f64,
    );
    let (_, secs) = t.time("serve.decode_req", 12, || {
        for _ in 0..REQUEST_REPS {
            std::hint::black_box(decode_request(std::hint::black_box(&frame)).is_ok());
        }
    });
    m.add(
        "serve.decode_req_us",
        "us",
        secs * 1e6 / REQUEST_REPS as f64,
    );

    let response = Response::Map(wire_map_answer(engine.program(), 0, answer));
    let frame = encode_response(&response);
    m.add("serve.answer_kb", "KB", frame.len() as f64 / 1024.0);
    const RESPONSE_REPS: usize = 50;
    let (_, secs) = t.time("serve.encode_resp", 12, || {
        for _ in 0..RESPONSE_REPS {
            std::hint::black_box(encode_response(std::hint::black_box(&response)));
        }
    });
    m.add(
        "serve.encode_resp_us",
        "us",
        secs * 1e6 / RESPONSE_REPS as f64,
    );
    let (_, secs) = t.time("serve.decode_resp", 12, || {
        for _ in 0..RESPONSE_REPS {
            std::hint::black_box(decode_response(std::hint::black_box(&frame)).is_ok());
        }
    });
    m.add(
        "serve.decode_resp_us",
        "us",
        secs * 1e6 / RESPONSE_REPS as f64,
    );

    let server =
        Server::start(engine.clone(), "127.0.0.1:0", ServeConfig::default()).map_err(err)?;
    let mut client = Client::connect(server.local_addr()).map_err(err)?;
    for token in 0..200 {
        let sent = Instant::now();
        client.ping(token).map_err(err)?;
        m.add("serve.ping_us", "us", sent.elapsed().as_secs_f64() * 1e6);
    }
    let mut round_trips = Vec::new();
    for k in budgeted(0..15) {
        let (answered, secs) = t.time("serve.map_round_trip", 12, || {
            client.query(&map_query(seed.wrapping_add(k)))
        });
        answered.map_err(err)?;
        round_trips.push(secs * 1e3);
    }
    drop(client);
    server.shutdown();
    m.add(
        "serve.overhead_ms",
        "ms",
        median(&round_trips) - m.value("core.query_map_ms"),
    );
    Ok(())
}

/// Runs the profile child on `inputs` (and an untraced child, unless the
/// caller already has its in-process wall) and folds the measurements
/// into `r.per_layer`. The traced pipeline's answer must equal the
/// untraced one's.
pub fn run(
    inputs: &Inputs,
    flips: u64,
    seed: u64,
    untraced: Option<(f64, &[u8])>,
    r: &mut RunResult,
) {
    let fresh;
    let (untraced_wall, untraced_output) = match untraced {
        Some(known) => known,
        None => {
            let Some(child) = r.step("untraced child", spawn_child("cold", inputs, flips, seed))
            else {
                return;
            };
            fresh = child;
            (fresh.stats.value("inner_wall_s"), fresh.output.as_slice())
        }
    };
    let Some(child) = r.step("profile child", spawn_child("profile", inputs, flips, seed)) else {
        return;
    };
    r.check(child.output == untraced_output, || {
        "the traced pipeline's answer differs from the untraced child's".to_string()
    });
    let stats = child.stats;
    r.check(stats.value("trace.cost_hard") == 0.0, || {
        "the traced pipeline's world violates hard clauses".to_string()
    });
    let traced_wall = stats.value("trace.wall_s");
    r.per_layer.merge(stats);
    r.per_layer.add(
        "trace.overhead_frac",
        "ratio",
        (traced_wall - untraced_wall) / untraced_wall,
    );
}
