//! The serving workloads: a `tuffyd` server on loopback, closed-loop
//! clients in this process.
//!
//! `serve_read` grounds once and plays a read-only mix against
//! `Server::start`; `serve_mixed` runs one writer and one reader against
//! a durable lineage (`Server::start_durable`), then drops it and times a
//! cold recovery. Both check a sample of the answers they recorded
//! against an in-process recomputation, bit for bit.

use crate::cold::SETUPS;
use crate::data::{
    read_op, script_candidates, write_inputs, write_script, Inputs, ReadOp, Workload,
    SERVING_FLIPS, TOPK_SEEDS,
};
use crate::report::{dir_mb, peak_rss_mb, RunResult};
use crate::stats::{median, percentile, tail};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tuffy::{
    DurableEngine, Engine, MapResult, McSatParams, MlnProgram, Query, Snapshot, Tuffy,
    WalkSatParams,
};
use tuffy_serve::wire::{WireMapAnswer, WireProbAnswer, WireProbEntry, WireQuery, WireQueryKind};
use tuffy_serve::{Client, ServeConfig, Server, ServerStats, WireAnswer};

/// Recorded answers recomputed after each window.
const CHECKED_ANSWERS: usize = 32;
/// Equal parts a window is cut into for the throughput samples.
const SEGMENTS: usize = 5;
/// The percentile `serve_read` reports as its tail. Two closed-loop
/// clients keep both cores of a 2-CPU host busy, so a neighbour that takes
/// 30 % of one core in bursts moves the MAP p90 by 37 % and the p95 by
/// 63 %, the p75 by 4 % and the median by 2 % (README, "Steadiness"):
/// above p75 the window measures the host.
const READ_TAIL_PCT: u32 = 75;
/// Of the one-second slices of a `serve_read` window, the share taken as
/// undisturbed: the metrics are the 10th percentile of the slices'
/// latencies and the 90th of their throughputs. The host's speed drops by
/// a quarter to a half for seconds at a time, anywhere from none to most
/// of a window; interference only ever adds time, so the quietest slices
/// are what repeats from run to run.
const QUIET_PCT: u32 = 10;

/// The WalkSAT parameters of a serving-budget MAP request.
fn serving_search(seed: u64) -> WalkSatParams {
    WalkSatParams {
        max_flips: SERVING_FLIPS,
        seed,
        ..Default::default()
    }
}

/// The small MC-SAT override of a top-k request.
pub fn topk_params(seed: u64) -> McSatParams {
    McSatParams {
        samples: 20,
        burn_in: 5,
        sample_sat_steps: 500,
        seed,
        ..Default::default()
    }
}

/// A plain MAP request at the serving budget.
pub fn map_query(seed: u64) -> WireQuery {
    let s = serving_search(seed);
    WireQuery {
        kind: WireQueryKind::Map,
        search: Some((s.max_flips, s.max_tries, s.noise, s.seed)),
        ..WireQuery::default()
    }
}

/// The wire form of a script request; `predicate` is what top-k ranks.
pub fn wire_query(op: &ReadOp, predicate: &str) -> WireQuery {
    match op {
        ReadOp::Map { seed } => map_query(*seed),
        ReadOp::Given { seed, atom } => WireQuery {
            given: Some(atom.clone()),
            ..map_query(*seed)
        },
        ReadOp::TopK { seed } => {
            let m = topk_params(*seed);
            WireQuery {
                kind: WireQueryKind::TopK {
                    predicate: predicate.to_string(),
                    k: 10,
                },
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
        }
    }
}

/// A MAP result as the server frames it.
pub fn wire_map_answer(program: &MlnProgram, generation: u64, r: &MapResult) -> WireMapAnswer {
    WireMapAnswer {
        generation,
        cost_hard: r.cost.hard,
        cost_soft_bits: r.cost.soft.to_bits(),
        flips: r.report.flips,
        atoms: r
            .true_atoms()
            .iter()
            .map(|a| tuffy::render_atom(program, a))
            .collect(),
    }
}

/// The answer `snapshot` gives to a script request, computed in process
/// and framed like the server's, so the two compare bit for bit.
pub fn recompute(snapshot: &Snapshot, op: &ReadOp, predicate: &str) -> Result<WireAnswer, String> {
    let generation = snapshot.generation();
    let program = snapshot.program();
    let answer = match op {
        ReadOp::Map { seed } => snapshot.query(&Query::map().with_search(serving_search(*seed))),
        ReadOp::Given { seed, atom } => {
            let delta = tuffy_mln::parser::parse_delta(&mut program.clone(), atom)
                .map_err(|e| e.to_string())?;
            snapshot.query(&Query::map().with_search(serving_search(*seed)).given(delta))
        }
        ReadOp::TopK { seed } => {
            snapshot.query(&Query::top_k(predicate, 10).with_mcsat(topk_params(*seed)))
        }
    }
    .map_err(|e| e.to_string())?;
    Ok(match answer {
        tuffy::QueryAnswer::Map(r) => WireAnswer::Map(wire_map_answer(program, generation, &r)),
        tuffy::QueryAnswer::TopK(r) => WireAnswer::TopK(WireProbAnswer {
            generation,
            flips: r.report.flips,
            entries: r
                .entries
                .iter()
                .map(|e| WireProbEntry {
                    probability_bits: e.probability.to_bits(),
                    atom: e.name.clone(),
                })
                .collect(),
        }),
        tuffy::QueryAnswer::Marginal(_) => return Err("unexpected marginal answer".to_string()),
    })
}

/// Request classes, as indices into the per-class tables.
const MAP: usize = 0;
const GIVEN: usize = 1;
const TOPK: usize = 2;
const CLASS_NAMES: [&str; 3] = ["map", "given", "topk"];
/// Recorded answers kept per client and class: 32 over two clients.
const SAMPLES_PER_CLASS: [usize; 3] = [10, 3, 3];

fn class_of(op: &ReadOp) -> usize {
    match op {
        ReadOp::Map { .. } => MAP,
        ReadOp::Given { .. } => GIVEN,
        ReadOp::TopK { .. } => TOPK,
    }
}

/// One completed request of the timed window.
struct Done {
    class: usize,
    /// Completion time, seconds since the window opened.
    at: f64,
    latency_ms: f64,
    /// Soft cost of a MAP answer.
    cost: Option<f64>,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    /// Top-k requests sent, warm-up included.
    topk_sent: u64,
    done: Vec<Done>,
    samples: Vec<(ReadOp, WireAnswer)>,
    failures: Vec<String>,
}

/// The timed part of a run: requests that *start* inside it are recorded.
#[derive(Clone, Copy)]
struct Window {
    opens: Instant,
    closes: Instant,
}

impl Window {
    fn after(warm_up: Duration, length: Duration) -> Window {
        let opens = Instant::now() + warm_up;
        Window {
            opens,
            closes: opens + length,
        }
    }

    fn seconds(&self) -> f64 {
        (self.closes - self.opens).as_secs_f64()
    }
}

/// A closed-loop reader: plays its script from the first request, records
/// the ones that start inside `window`, and stops when `stop()` says so
/// (checked between requests).
fn read_client(
    addr: SocketAddr,
    script: impl Fn(u64) -> ReadOp,
    predicate: &str,
    window: Window,
    stop: impl Fn() -> bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.failures.push(format!("connect: {e}"));
            return log;
        }
    };
    let mut kept = [0usize; 3];
    for i in 0.. {
        let started = Instant::now();
        if stop() {
            break;
        }
        let op = script(i);
        log.topk_sent += u64::from(class_of(&op) == TOPK);
        let answer = client.query(&wire_query(&op, predicate));
        if started < window.opens {
            continue;
        }
        let class = class_of(&op);
        match answer {
            Ok(answer) => {
                log.done.push(Done {
                    class,
                    at: (Instant::now() - window.opens).as_secs_f64(),
                    latency_ms: started.elapsed().as_secs_f64() * 1e3,
                    cost: match &answer {
                        WireAnswer::Map(a) => Some(f64::from_bits(a.cost_soft_bits)),
                        _ => None,
                    },
                });
                if kept[class] < SAMPLES_PER_CLASS[class] {
                    kept[class] += 1;
                    log.samples.push((op, answer));
                }
            }
            Err(e) => log
                .failures
                .push(format!("{} request {i}: {e}", CLASS_NAMES[class])),
        }
    }
    log
}

/// Completed requests per second in each of the window's equal segments.
fn segment_rates(done_at: impl Iterator<Item = f64> + Clone, seconds: f64) -> Vec<f64> {
    let segment = seconds / SEGMENTS as f64;
    (0..SEGMENTS)
        .map(|k| {
            let (lo, hi) = (k as f64 * segment, (k + 1) as f64 * segment);
            done_at.clone().filter(|&at| at >= lo && at < hi).count() as f64 / segment
        })
        .collect()
}

/// The completions of a window of `seconds` cut into one-second slices
/// by completion time. A request that outlives the window belongs to no
/// slice.
fn one_second_slices(done: &[Done], seconds: u64) -> Vec<Vec<&Done>> {
    let mut slices = vec![Vec::new(); seconds as usize];
    for d in done {
        if let Some(slice) = slices.get_mut(d.at as usize) {
            slice.push(d);
        }
    }
    slices
}

/// Recomputes up to [`CHECKED_ANSWERS`] recorded answers against
/// `snapshot` and counts every mismatch as a failure.
fn check_samples(
    r: &mut RunResult,
    snapshot: &Snapshot,
    samples: &[(ReadOp, WireAnswer)],
    predicate: &str,
) {
    for (op, served) in samples.iter().take(CHECKED_ANSWERS) {
        match recompute(snapshot, op, predicate) {
            Ok(expected) => r.check(expected == *served, || {
                format!("served answer to {op:?} differs from Snapshot::query")
            }),
            Err(e) => r.fail(format!("recomputing {op:?}: {e}")),
        }
    }
}

/// Warm-up before a window of `seconds`: a tenth of it, at most 3 s.
fn warm_up(seconds: u64) -> Duration {
    Duration::from_secs_f64((seconds as f64 / 10.0).clamp(0.2, 3.0))
}

/// Reads the input files and grounds them, as `tuffyd` does at start-up:
/// its default budget is 1 M flips unless a request overrides it.
pub fn engine_from_files(inputs: &Inputs, seed: u64) -> Result<Engine, String> {
    crate::cold::engine_from_files(inputs, 1_000_000, seed)
}

/// The counters of a serve window that belong to single layers.
fn native_counters(r: &mut RunResult, engine: &Engine, served: &ServerStats) {
    let grounded = engine.groundings_performed() as f64;
    r.per_layer
        .add("grounder.regrounds", "count", grounded - 1.0);
    r.per_layer.add(
        "core.generations",
        "count",
        engine.generations_created() as f64,
    );
    r.per_layer
        .add("serve.busy", "count", served.busy_rejections as f64);
    let errors = served.protocol_errors + served.internal_errors + served.timeouts;
    r.per_layer.add("serve.errors", "count", errors as f64);
}

/// The predicate a workload's top-k requests rank: the one its query
/// atoms belong to.
pub fn query_predicate(snapshot: &Snapshot) -> String {
    let registry = &snapshot.grounding().registry;
    snapshot
        .program()
        .predicate_name(registry.atom(0).0)
        .to_string()
}

/// `serve_read`: ground once, serve a read-only mix.
pub fn run_read(seed: u64, seconds: u64, smoke: bool, trace: bool, work: &Path) -> RunResult {
    let w = Workload::ServeRead;
    let mut r = RunResult::default();
    let dir = work.join("inputs");
    let mut ready_s = Vec::new();
    let mut set_up = |r: &mut RunResult| {
        let started = Instant::now();
        let inputs = r.step("set-up", write_inputs(w, seed, smoke, &dir))?;
        // Ready: from the files on disk to the first pong.
        let ready = Instant::now();
        let server = engine_from_files(&inputs, seed).and_then(|engine| {
            let server = Server::start(engine.clone(), "127.0.0.1:0", ServeConfig::default())
                .map_err(|e| e.to_string())?;
            let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
            client.ping(1).map_err(|e| e.to_string())?;
            Ok((engine, server))
        });
        let (engine, server) = r.step("server start", server)?;
        ready_s.push(ready.elapsed().as_secs_f64());
        r.end_to_end
            .add("setup_s", "s", started.elapsed().as_secs_f64());
        Some((inputs, engine, server))
    };
    let mut up = None;
    for _ in 0..SETUPS {
        drop(up.take());
        up = set_up(&mut r);
        if up.is_none() {
            return r;
        }
    }
    let Some((inputs, engine, server)) = up else {
        return r;
    };

    let snapshot = engine.snapshot();
    let (atoms, _) = script_candidates(&snapshot);
    let predicate = query_predicate(&snapshot);
    let clients = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let addr = server.local_addr();
    // Caches fill before timing: every MC-SAT seed the script cycles over
    // is sampled once, so the window sees the marginal cache as a client
    // polling a stable generation does. What a miss costs is a per-layer
    // metric (`core.marginal_miss_ms`).
    let primed = Client::connect(addr).and_then(|mut client| {
        (0..TOPK_SEEDS).try_for_each(|seed| {
            client
                .query(&wire_query(&ReadOp::TopK { seed }, &predicate))
                .map(drop)
        })
    });
    r.step("priming the marginal cache", primed);
    let window = Window::after(warm_up(seconds), Duration::from_secs(seconds));
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (atoms, predicate) = (&atoms, &predicate);
                scope.spawn(move || {
                    read_client(
                        addr,
                        |i| read_op(seed, c, i, atoms),
                        predicate,
                        window,
                        || Instant::now() >= window.closes,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    r.end_to_end.add("peak_rss_mb", "MB", peak_rss_mb());
    let served = server.stats();

    let mut samples = Vec::new();
    let mut done = Vec::new();
    let mut topk_sent = 0;
    for log in logs {
        topk_sent += log.topk_sent;
        for failure in log.failures {
            r.fail(failure);
        }
        samples.extend(log.samples);
        done.extend(log.done);
    }
    r.ok(done.len() as u64);
    let latencies = |class: usize| -> Vec<f64> {
        done.iter()
            .filter(|d| d.class == class)
            .map(|d| d.latency_ms)
            .collect()
    };
    let maps = latencies(MAP);
    if maps.is_empty() {
        r.fail("no MAP request completed".to_string());
        return r;
    }
    // Per slice: MAP median, MAP tail, completions of all classes. A slice
    // a stall left without a MAP has no latency to give.
    let slices = one_second_slices(&done, seconds);
    let slice_maps: Vec<Vec<f64>> = slices
        .iter()
        .map(|slice| {
            let maps = slice.iter().filter(|d| d.class == MAP);
            maps.map(|d| d.latency_ms).collect()
        })
        .filter(|maps: &Vec<f64>| !maps.is_empty())
        .collect();
    let medians: Vec<f64> = slice_maps.iter().map(|m| median(m)).collect();
    let tails: Vec<f64> = slice_maps
        .iter()
        .map(|m| percentile(m, READ_TAIL_PCT))
        .collect();
    let rates: Vec<f64> = slices.iter().map(|s| s.len() as f64).collect();
    r.end_to_end
        .add("op_p50_ms", "ms", percentile(&medians, QUIET_PCT));
    r.end_to_end
        .add("op_tail_ms", "ms", percentile(&tails, QUIET_PCT));
    r.end_to_end
        .add("ops_per_s", "1/s", percentile(&rates, 100 - QUIET_PCT));

    // The whole window, disturbed slices included; unbounded.
    r.details.add("op_tail_pct", "%", READ_TAIL_PCT as f64);
    r.details
        .add("read_qps", "1/s", done.len() as f64 / window.seconds());
    r.details.extend("map_p50_ms", "ms", &maps);
    r.details.add("map_p95_ms", "ms", tail(&maps).1);
    r.details.extend("slice_map_p50_ms", "ms", &medians);
    r.details.extend("slice_read_qps", "1/s", &rates);
    r.details.extend("given_p50_ms", "ms", &latencies(GIVEN));
    r.details.extend("topk_p50_ms", "ms", &latencies(TOPK));
    let costs: Vec<f64> = done.iter().filter_map(|d| d.cost).collect();
    r.details.extend("map_cost", "cost", &costs);
    // Hits over the top-k requests the clients sent (the priming pass
    // sent the only misses).
    r.details.add(
        "core.marginal_cache_hit_frac",
        "ratio",
        engine.marginal_cache_hits() as f64 / (topk_sent + TOPK_SEEDS) as f64,
    );
    native_counters(&mut r, &engine, &served);

    check_samples(&mut r, &snapshot, &samples, &predicate);
    if trace {
        crate::profile::run(&inputs, SERVING_FLIPS, seed, None, &mut r);
    }
    server.shutdown();
    drop(engine);

    // As many set-ups again, a window later: a slow stretch of the host
    // that covers the first group rarely covers both. `ready_s` is the
    // fastest of them all, for the reason the quiet slices are taken; a
    // fifth of a second of two-threaded grounding is slowed by half
    // whenever a neighbour holds a core. `setup_s` stays the median.
    for _ in 0..SETUPS {
        if set_up(&mut r).is_none() {
            return r;
        }
    }
    let fastest = ready_s.iter().copied().fold(f64::INFINITY, f64::min);
    r.end_to_end.add("ready_s", "s", fastest);
    r.details.extend("ready_each_s", "s", &ready_s);
    r
}

/// Checkpoint threshold and the WAL records left unfolded when the writer
/// stops: `(every, unfolded)`.
fn checkpointing(smoke: bool) -> (u64, u64) {
    if smoke {
        (8, 6)
    } else {
        (64, 48)
    }
}

/// One acked apply.
struct Applied {
    /// A label assert (as opposed to an evidence flip).
    label: bool,
    /// Patched incrementally, as the server reported it.
    incremental: bool,
    latency_ms: f64,
    /// Completion time, seconds since the window opened.
    at: f64,
}

/// What the writer saw.
#[derive(Default)]
struct WriterLog {
    applied: Vec<Applied>,
    failures: Vec<String>,
}

/// The writer: plays `script` until the window has closed *and* the WAL
/// holds exactly `unfolded` records past the last checkpoint, so every
/// run recovers the same amount of log.
fn write_client(
    addr: SocketAddr,
    script: &[String],
    window: Window,
    every: u64,
    unfolded: u64,
) -> WriterLog {
    let mut log = WriterLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.failures.push(format!("connect: {e}"));
            return log;
        }
    };
    std::thread::sleep(window.opens.saturating_duration_since(Instant::now()));
    for (i, delta) in script.iter().enumerate() {
        let started = Instant::now();
        match client.apply(delta) {
            Ok(applied) => log.applied.push(Applied {
                label: !delta.starts_with('~'),
                incremental: applied.incremental,
                latency_ms: started.elapsed().as_secs_f64() * 1e3,
                at: (Instant::now() - window.opens).as_secs_f64(),
            }),
            Err(e) => log.failures.push(format!("apply {i} `{delta}`: {e}")),
        }
        if Instant::now() >= window.closes && (i as u64 + 1) % every == unfolded {
            break;
        }
    }
    log
}

/// Ground-truth check of the final generation: its MAP world, moved by
/// ground-atom identity onto a from-scratch grounding of the merged
/// evidence, must cost the same there — a patched and a fresh store
/// number their atoms differently, so equality is by cross-evaluation —
/// and the two stores must hold the same clauses and atoms by count.
fn check_against_fresh_grounding(r: &mut RunResult, head: &Snapshot, seed: u64) {
    let fresh = Tuffy::from_parts(head.program().clone(), head.evidence().clone())
        .with_config(*head.config())
        .build_engine();
    let Some(fresh) = r.step("from-scratch grounding", fresh) else {
        return;
    };
    let fresh = fresh.snapshot();
    let (ours, theirs) = (head.grounding(), fresh.grounding());
    r.check(
        ours.mrf.num_clauses() == theirs.mrf.num_clauses()
            && ours.registry.len() == theirs.registry.len(),
        || {
            format!(
                "final generation has {} clauses / {} atoms, a fresh grounding {} / {}",
                ours.mrf.num_clauses(),
                ours.registry.len(),
                theirs.mrf.num_clauses(),
                theirs.registry.len()
            )
        },
    );
    let (truth, cost) = head.map_world(&serving_search(seed));
    let moved: Vec<bool> = (0..theirs.registry.len())
        .map(|i| {
            let (pred, args) = theirs.registry.atom(i as u32);
            ours.registry
                .get(pred, args)
                .is_some_and(|id| truth[id as usize])
        })
        .collect();
    let there = theirs.mrf.cost(&moved);
    r.check(
        there.hard == cost.hard && (there.soft - cost.soft).abs() < 1e-6,
        || {
            format!(
                "final MAP world costs {cost} on its own store but {there} on a fresh grounding"
            )
        },
    );
}

/// `serve_mixed`: one writer and one reader on a durable lineage, then a
/// cold recovery.
pub fn run_mixed(seed: u64, seconds: u64, smoke: bool, trace: bool, work: &Path) -> RunResult {
    let w = Workload::ServeMixed;
    let mut r = RunResult::default();
    let (every, unfolded) = checkpointing(smoke);
    let dir = work.join("inputs");
    let store = work.join("store");
    let mut up = None;
    for _ in 0..SETUPS {
        drop(up.take());
        let _ = std::fs::remove_dir_all(&store);
        let started = Instant::now();
        let Some(inputs) = r.step("set-up", write_inputs(w, seed, smoke, &dir)) else {
            return r;
        };
        let server = engine_from_files(&inputs, seed).and_then(|engine| {
            let durable =
                DurableEngine::create(engine.clone(), &store, every).map_err(|e| e.to_string())?;
            let server = Server::start_durable(durable, "127.0.0.1:0", ServeConfig::default())
                .map_err(|e| e.to_string())?;
            Client::connect(server.local_addr())
                .and_then(|mut c| c.ping(1))
                .map_err(|e| e.to_string())?;
            Ok((engine, server))
        });
        let Some((engine, server)) = r.step("durable server start", server) else {
            return r;
        };
        r.end_to_end
            .add("setup_s", "s", started.elapsed().as_secs_f64());
        up = Some((inputs, engine, server));
    }
    let Some((inputs, engine, server)) = up else {
        return r;
    };
    let base = engine.snapshot();
    let (atoms, tuples) = script_candidates(&base);
    let predicate = query_predicate(&base);
    let addr = server.local_addr();
    let plain_maps = |i: u64| ReadOp::Map {
        seed: seed.wrapping_add(i),
    };

    // The reader alone, on generation 0: the baseline its stall behind
    // applies is measured against, and the answers the sample check can
    // recompute (later generations exist only inside the server).
    let alone = Window::after(Duration::ZERO, warm_up(seconds));
    let before = read_client(addr, plain_maps, &predicate, alone, || {
        Instant::now() >= alone.closes
    });

    // Enough script for the fastest writer; the candidates cap it.
    let script = write_script(seed, 4096, &atoms, &tuples);
    let window = Window::after(Duration::ZERO, Duration::from_secs(seconds));
    let writer_done = AtomicBool::new(false);
    let (written, during) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let log = write_client(addr, &script, window, every, unfolded);
            writer_done.store(true, Ordering::SeqCst);
            log
        });
        let reader = scope.spawn(|| {
            read_client(
                addr,
                |i| plain_maps(i + (1 << 32)),
                &predicate,
                window,
                || writer_done.load(Ordering::SeqCst),
            )
        });
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    r.end_to_end.add("peak_rss_mb", "MB", peak_rss_mb());
    let served = server.stats();
    let final_query = map_query(seed);
    let last_served = Client::connect(addr).and_then(|mut c| c.query(&final_query));
    let last_served = r.step("final MAP", last_served);
    r.details.add("store_mb", "MB", dir_mb(&store));
    // Dropped, not drained into a checkpoint: the log keeps its tail.
    drop(server);

    for failure in before
        .failures
        .iter()
        .chain(&written.failures)
        .chain(&during.failures)
    {
        r.fail(failure.clone());
    }
    let applies = written.applied.len();
    r.ok((applies + before.done.len() + during.done.len()) as u64);
    if applies == 0 || during.done.is_empty() {
        r.fail("the mixed window completed no apply or no read".to_string());
        return r;
    }
    let apply_ms: Vec<f64> = written.applied.iter().map(|a| a.latency_ms).collect();
    let (pct, tail_ms) = tail(&apply_ms);
    r.end_to_end.extend("op_p50_ms", "ms", &apply_ms);
    r.end_to_end.add("op_tail_ms", "ms", tail_ms);
    // The writer may run past the window to reach its stopping point, or
    // (on smoke inputs) run out of script before it closes; throughput
    // counts what completed inside the part of the window it was active.
    let active = written
        .applied
        .last()
        .map_or(0.0, |a| a.at)
        .min(window.seconds());
    let completions = written
        .applied
        .iter()
        .map(|a| a.at)
        .chain(during.done.iter().map(|d| d.at));
    r.end_to_end
        .extend("ops_per_s", "1/s", &segment_rates(completions, active));

    let by = |label: bool| -> Vec<f64> {
        written
            .applied
            .iter()
            .filter(|a| a.label == label)
            .map(|a| a.latency_ms)
            .collect()
    };
    r.details.add("op_tail_pct", "%", pct as f64);
    r.details.extend("apply_label_p50_ms", "ms", &by(true));
    r.details.extend("apply_flip_p50_ms", "ms", &by(false));
    r.details.add("applies", "count", applies as f64);
    r.details.add(
        "apply_script_s",
        "s",
        written.applied.last().map_or(f64::NAN, |a| a.at),
    );
    let reads: Vec<f64> = during.done.iter().map(|d| d.latency_ms).collect();
    let reads_alone: Vec<f64> = before.done.iter().map(|d| d.latency_ms).collect();
    r.details.extend("map_p50_ms", "ms", &reads);
    r.details.add("map_tail_ms", "ms", tail(&reads).1);
    r.details.extend("map_alone_p50_ms", "ms", &reads_alone);
    r.details.add(
        "serve.read_stall_ms",
        "ms",
        median(&reads) - median(&reads_alone),
    );
    let costs: Vec<f64> = before.done.iter().filter_map(|d| d.cost).collect();
    r.details.extend("map_cost", "cost", &costs);
    let patched = written.applied.iter().filter(|a| a.incremental).count();
    r.details.add(
        "grounder.patch_frac",
        "ratio",
        patched as f64 / applies as f64,
    );
    native_counters(&mut r, &engine, &served);

    check_samples(&mut r, &base, &before.samples, &predicate);

    // Cold recovery of the dropped lineage: base load + WAL replay. Timed
    // once — it is seconds of work, and a second open would find the
    // operating system's cache warm.
    let started = Instant::now();
    let Some((durable, recovery)) = r.step("recovery", DurableEngine::open(&store, every)) else {
        return r;
    };
    r.end_to_end
        .add("ready_s", "s", started.elapsed().as_secs_f64());
    r.details
        .add("recover_s", "s", r.end_to_end.value("ready_s"));
    r.details
        .add("store.replayed_records", "count", recovery.replayed as f64);
    r.check(recovery.seq == applies as u64, || {
        format!(
            "recovered lineage is at seq {}, the writer committed {applies}",
            recovery.seq
        )
    });
    r.check(recovery.replayed == applies as u64 % every, || {
        format!(
            "recovery replayed {} records of {applies} committed",
            recovery.replayed
        )
    });
    let head = durable.reader().snapshot().clone();
    if let Some(last_served) = last_served {
        // Generations restart with the process; the answer must not.
        let expected = recompute(&head, &ReadOp::Map { seed }, &predicate);
        let same = |a: &WireAnswer, b: &WireAnswer| match (a, b) {
            (WireAnswer::Map(a), WireAnswer::Map(b)) => {
                (a.cost_hard, a.cost_soft_bits, a.flips, &a.atoms)
                    == (b.cost_hard, b.cost_soft_bits, b.flips, &b.atoms)
            }
            _ => false,
        };
        match expected {
            Ok(expected) => r.check(same(&expected, &last_served), || {
                "the recovered head answers differently from the live server's last generation"
                    .to_string()
            }),
            Err(e) => r.fail(format!("recomputing the final MAP: {e}")),
        }
    }
    check_against_fresh_grounding(&mut r, &head, seed);
    drop(durable);

    if trace {
        crate::profile::run(&inputs, SERVING_FLIPS, seed, None, &mut r);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_cut_by_completion_second_and_drop_what_outlives_the_window() {
        let done: Vec<Done> = [0.0, 0.999, 1.0, 2.5, 3.0, 7.2]
            .into_iter()
            .map(|at| Done {
                class: MAP,
                at,
                latency_ms: at,
                cost: None,
            })
            .collect();
        let sizes: Vec<usize> = one_second_slices(&done, 3).iter().map(Vec::len).collect();
        assert_eq!(sizes, [2, 1, 1]);
        assert!(one_second_slices(&done, 0).is_empty());
    }
}
