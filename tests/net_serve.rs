//! End-to-end fault injection against a live `tuffyd` server over
//! loopback, plus the served-answer identity pin: every answer a client
//! receives must be **bit-identical** to asking the in-process
//! [`tuffy::Snapshot::query`] directly — costs, flip counts, atom
//! renderings, and raw `f64` probability bits.
//!
//! Unlike `serve_stress.rs`, this file intentionally holds many
//! `#[test]`s that the harness may run concurrently (CI runs it with
//! `--test-threads=8`): every assertion uses the **per-engine**
//! counters ([`tuffy::Engine::groundings_performed`],
//! [`tuffy::Engine::generations_created`]) rather than the
//! process-global grounder counter, so tests grounding in parallel in
//! the same process cannot perturb each other.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tuffy::{
    DurableEngine, Engine, McSatParams, Query, QueryAnswer, Tuffy, TuffyConfig, WalkSatParams,
};
use tuffy_serve::client::{Client, ClientError, WireAnswer};
use tuffy_serve::wire::{
    decode_response, encode_request, read_frame, write_frame, BusyClass, ErrorCode, Request,
    Response, WireQuery, WireQueryKind, MAGIC,
};
use tuffy_serve::{ServeConfig, Server};
use tuffy_store::{MemStorage, WalStorage};

const PROGRAM: &str = r#"
    *wrote(person, paper)
    *refers(paper, paper)
    cat(paper, category)
    5 cat(p, c1), cat(p, c2) => c1 = c2
    1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
    2 cat(p1, c), refers(p1, p2) => cat(p2, c)
"#;

const EVIDENCE: &str = r#"
    wrote(Joe, P1)
    wrote(Joe, P2)
    wrote(Ann, P4)
    wrote(Ann, P5)
    refers(P1, P3)
    refers(P4, P6)
    cat(P2, DB)
    cat(P5, AI)
"#;

/// The delta used by apply/given tests: conditions on an active open
/// atom, so forks stay inside the incremental patch fragment and never
/// re-ground (the per-engine grounding counter must stay at 1).
const DELTA: &str = "cat(P1, DB)\n";

fn mcsat() -> McSatParams {
    McSatParams {
        samples: 60,
        burn_in: 5,
        sample_sat_steps: 50,
        seed: 7,
        ..Default::default()
    }
}

fn engine() -> Engine {
    let config = TuffyConfig {
        search: WalkSatParams {
            max_flips: 20_000,
            ..Default::default()
        },
        ..Default::default()
    };
    Tuffy::from_sources(PROGRAM, EVIDENCE)
        .unwrap()
        .with_config(config)
        .build_engine()
        .unwrap()
}

fn serve(config: ServeConfig) -> Server {
    Server::start(engine(), "127.0.0.1:0", config).unwrap()
}

/// The wire mirror of [`mcsat`], sent as an explicit per-request
/// override so server answers use the exact parameters of the
/// in-process baseline.
fn wire_mcsat() -> (u64, u64, u64, f64, f64, u64) {
    let m = mcsat();
    (
        m.samples as u64,
        m.burn_in as u64,
        m.sample_sat_steps,
        m.p_anneal,
        m.temperature,
        m.seed,
    )
}

fn wire_map() -> WireQuery {
    WireQuery::default()
}

fn wire_marginal() -> WireQuery {
    WireQuery {
        kind: WireQueryKind::Marginal,
        mcsat: Some(wire_mcsat()),
        ..WireQuery::default()
    }
}

fn wire_topk() -> WireQuery {
    WireQuery {
        kind: WireQueryKind::TopK {
            predicate: "cat".into(),
            k: 3,
        },
        mcsat: Some(wire_mcsat()),
        ..WireQuery::default()
    }
}

fn wire_given_map() -> WireQuery {
    WireQuery {
        given: Some(DELTA.into()),
        ..WireQuery::default()
    }
}

/// Canonical bit-exact rendering of a served answer.
fn wire_canon(a: &WireAnswer) -> String {
    match a {
        WireAnswer::Map(m) => format!(
            "map hard={} soft={:016x} flips={} atoms={:?}",
            m.cost_hard, m.cost_soft_bits, m.flips, m.atoms
        ),
        WireAnswer::Marginal(p) => {
            let rows: Vec<(&str, u64)> = p
                .entries
                .iter()
                .map(|e| (e.atom.as_str(), e.probability_bits))
                .collect();
            format!("marginal flips={} probs={rows:?}", p.flips)
        }
        WireAnswer::TopK(p) => {
            let rows: Vec<(&str, u64)> = p
                .entries
                .iter()
                .map(|e| (e.atom.as_str(), e.probability_bits))
                .collect();
            format!("top_k probs={rows:?}")
        }
    }
}

/// Canonical rendering of an in-process answer, producing the *same*
/// string as [`wire_canon`] when the served answer is bit-identical.
fn local_canon(engine: &Engine, a: &QueryAnswer) -> String {
    let program = engine.program();
    match a {
        QueryAnswer::Map(r) => {
            let atoms: Vec<String> = r
                .true_atoms()
                .iter()
                .map(|ga| tuffy::render_atom(program, ga))
                .collect();
            format!(
                "map hard={} soft={:016x} flips={} atoms={:?}",
                r.cost.hard,
                r.cost.soft.to_bits(),
                r.report.flips,
                atoms
            )
        }
        QueryAnswer::Marginal(r) => {
            let rows: Vec<(&str, u64)> = r
                .names
                .iter()
                .zip(r.marginals.iter())
                .map(|(n, (_, p))| (n.as_str(), p.to_bits()))
                .collect();
            format!("marginal flips={} probs={rows:?}", r.report.flips)
        }
        QueryAnswer::TopK(r) => {
            let rows: Vec<(&str, u64)> = r
                .entries
                .iter()
                .map(|e| (e.name.as_str(), e.probability.to_bits()))
                .collect();
            format!("top_k probs={rows:?}")
        }
    }
}

/// The four in-process baselines, canonicalized.
fn baselines(engine: &Engine) -> Vec<String> {
    let delta = {
        let mut probe = engine.open_session();
        probe.parse_delta(DELTA).unwrap()
    };
    let snapshot = engine.snapshot();
    [
        Query::map(),
        Query::marginal_all().with_mcsat(mcsat()),
        Query::top_k("cat", 3).with_mcsat(mcsat()),
        Query::map().given(delta),
    ]
    .iter()
    .map(|q| local_canon(engine, &snapshot.query(q).unwrap()))
    .collect()
}

fn wire_queries() -> Vec<WireQuery> {
    vec![wire_map(), wire_marginal(), wire_topk(), wire_given_map()]
}

/// A raw socket that has completed the preamble (magic exchange +
/// welcome frame) and can now inject arbitrary bytes.
fn raw_handshake(server: &Server) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut magic = [0u8; 8];
    stream.read_exact(&mut magic).unwrap();
    assert_eq!(magic, MAGIC);
    stream.write_all(&MAGIC).unwrap();
    let welcome = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(matches!(
        decode_response(&welcome).unwrap(),
        Response::Welcome { protocol: 1, .. }
    ));
    stream
}

/// Reads the next typed error frame off a raw socket.
fn expect_error(stream: &mut TcpStream, code: ErrorCode) {
    let frame = read_frame(stream, 1 << 20).unwrap();
    match decode_response(&frame).unwrap() {
        Response::Error(f) => assert_eq!(f.code, code, "unexpected error: {}", f.message),
        other => panic!("expected an `error {}` frame, got {other:?}", code.as_str()),
    }
}

/// Asserts the server still answers a fresh, well-behaved client with
/// the exact baseline MAP answer — the "no wedged worker, no
/// cross-connection corruption" probe run after every injected fault.
fn assert_server_healthy(server: &Server, map_baseline: &str) {
    let mut client = Client::connect(server.local_addr()).unwrap();
    let answer = client.query(&wire_map()).unwrap();
    assert_eq!(wire_canon(&answer), map_baseline);
}

// ---------------------------------------------------------------------
// Identity: served answers == in-process answers, bit for bit
// ---------------------------------------------------------------------

#[test]
fn served_answers_are_bit_identical_to_in_process_queries() {
    let server = serve(ServeConfig::default());
    let baseline = baselines(server.engine());
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (q, expected) in wire_queries().iter().zip(&baseline) {
        let answer = client.query(q).unwrap();
        assert_eq!(&wire_canon(&answer), expected, "served answer diverged");
        assert_eq!(answer.generation(), 0, "queries must not fork generations");
    }
    // Re-running after the whole mix must reproduce the same bits:
    // served queries are stateless, so history cannot leak into answers.
    for (q, expected) in wire_queries().iter().zip(&baseline) {
        assert_eq!(&wire_canon(&client.query(q).unwrap()), expected);
    }
    assert_eq!(server.engine().groundings_performed(), 1);
    // Two passes over [map, marginal, topk, given-map]: the plain MAP
    // is light; marginal, top-k, and `given` take heavy slots.
    assert_eq!(server.stats().queries_light, 2);
    assert_eq!(server.stats().queries_heavy, 6);
}

#[test]
fn concurrent_clients_all_receive_the_sequential_baseline() {
    let server = serve(ServeConfig {
        // Wide admission: this test measures identity under
        // interleaving, not backpressure.
        max_inflight: 64,
        max_heavy: 32,
        ..ServeConfig::default()
    });
    let baseline = baselines(server.engine());
    let gen_before = server.engine().generations_created();
    let queries = wire_queries();
    let addr = server.local_addr();

    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 4;
    let results: Vec<Vec<(usize, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let queries = &queries;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    (0..QUERIES_PER_CLIENT)
                        .map(|i| {
                            // Stagger kinds so every interleaving mixes
                            // light and heavy requests.
                            let k = (c + i) % queries.len();
                            (k, wire_canon(&client.query(&queries[k]).unwrap()))
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for per_client in results {
        for (k, rendered) in per_client {
            assert_eq!(
                rendered, baseline[k],
                "a concurrent client diverged from the sequential baseline"
            );
        }
    }
    // The storm re-used the one grounding the engine build paid for —
    // asserted on the per-engine counter, which concurrent tests in
    // this same process cannot perturb. Each of the 8 `given` queries
    // consumed one ephemeral generation id (copy-on-write forks), on
    // top of the one the baseline's `given` run consumed.
    assert_eq!(server.engine().groundings_performed(), 1);
    assert_eq!(server.engine().generations_created(), gen_before + 8);
}

#[test]
fn applies_advance_the_one_lineage_every_connection_reads() {
    let server = serve(ServeConfig::default());
    let engine = server.engine().clone();
    let baseline_map = baselines(&engine).remove(0);

    // In-process expectation for the post-apply world.
    let expected_after = {
        let mut s = engine.open_session();
        let delta = s.parse_delta(DELTA).unwrap();
        s.apply(&delta).unwrap();
        let answer = s.snapshot().query(&Query::map()).unwrap();
        local_canon(&engine, &answer)
    };
    assert_ne!(expected_after, baseline_map, "the delta must move the MAP");

    let mut writer = Client::connect(server.local_addr()).unwrap();
    let mut reader = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        wire_canon(&reader.query(&wire_map()).unwrap()),
        baseline_map
    );

    let applied = writer.apply(DELTA).unwrap();
    assert!(applied.generation > 0, "apply must fork a new generation");
    assert_eq!(writer.generation(), applied.generation);

    // The writer, a connection opened before the apply, and a fresh
    // connection all read the new head.
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    assert_eq!(fresh.generation(), applied.generation);
    for client in [&mut writer, &mut reader, &mut fresh] {
        let after = client.query(&wire_map()).unwrap();
        assert_eq!(after.generation(), applied.generation);
        assert_eq!(wire_canon(&after), expected_after);
    }

    assert_eq!(
        engine.groundings_performed(),
        1,
        "apply patched, not re-ground"
    );
    assert_eq!(server.stats().applies, 1);
}

/// Plays one script — applies, each followed by the four query kinds —
/// against a server, returning every reported generation and answer.
fn play_script(server: &Server) -> Vec<String> {
    let script = [DELTA, "!cat(P6, AI)\n", "~cat(P2, DB)\n", "cat(P7, DB)\n"];
    let mut writer = Client::connect(server.local_addr()).unwrap();
    let mut transcript = Vec::new();
    for delta in script {
        let applied = writer.apply(delta).unwrap();
        transcript.push(format!(
            "applied generation={} incremental={} changes={} clauses={} atoms={}",
            applied.generation,
            applied.incremental,
            applied.changes,
            applied.clauses,
            applied.atoms
        ));
        let mut reader = Client::connect(server.local_addr()).unwrap();
        transcript.push(format!("welcome generation={}", reader.generation()));
        for q in wire_queries() {
            let answer = reader.query(&q).unwrap();
            transcript.push(format!(
                "generation={} {}",
                answer.generation(),
                wire_canon(&answer)
            ));
        }
    }
    transcript
}

#[test]
fn plain_and_stored_servers_serve_the_same_lineage() {
    let plain = serve(ServeConfig::default());
    let dir = std::env::temp_dir().join(format!("tuffy-net-serve-{}-lineage", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let lineage = DurableEngine::create(engine(), &dir, 0).unwrap();
    let stored = Server::start_durable(lineage, "127.0.0.1:0", ServeConfig::default()).unwrap();

    let transcript = play_script(&plain);
    assert_eq!(transcript.len(), 4 * 6);
    assert_eq!(
        transcript,
        play_script(&stored),
        "the plain and the stored server diverged"
    );
    drop(stored);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Read committed: no query waits for an apply in flight
// ---------------------------------------------------------------------

/// Where a [`GatedWal`]'s next `sync` stands.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum Gate {
    /// Syncs go through.
    #[default]
    Pass,
    /// The next sync stops at the gate…
    Hold,
    /// …and is stopped there now.
    Held,
    /// Syncs fail.
    Fail,
}

/// An in-memory WAL whose `sync` a test can hold at a gate: the point
/// between an apply's append and its commit. A hold lasts until the test
/// opens the gate, or 10 s at most (then the sync goes through), so a
/// server that made a reader wait fails the test instead of hanging it.
#[derive(Clone, Default)]
struct GatedWal {
    log: MemStorage,
    gate: Arc<(Mutex<Gate>, Condvar)>,
}

impl GatedWal {
    fn set(&self, to: Gate) {
        *self.gate.0.lock().unwrap() = to;
        self.gate.1.notify_all();
    }

    fn wait_until(&self, state: Gate) {
        let (gate, turned) = &*self.gate;
        drop(turned.wait_while(gate.lock().unwrap(), |g| *g != state));
    }
}

impl WalStorage for GatedWal {
    fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
        self.log.read_all()
    }

    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.log.append(bytes)
    }

    fn truncate_to(&mut self, len: u64) -> std::io::Result<()> {
        self.log.truncate_to(len)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let (gate, turned) = &*self.gate;
        let mut g = gate.lock().unwrap();
        if *g == Gate::Hold {
            *g = Gate::Held;
            turned.notify_all();
            g = turned
                .wait_timeout_while(g, Duration::from_secs(10), |g| *g == Gate::Held)
                .unwrap()
                .0;
        }
        match *g {
            Gate::Fail => Err(std::io::Error::other("injected fsync failure")),
            _ => self.log.sync(),
        }
    }
}

/// Holds an apply at its WAL fsync and reads beside it: a query on
/// another connection and a fresh connection's welcome must report the
/// committed generation N, bit-identical to `Snapshot::query` on N. Then
/// the gate opens (`fail` = the fsync fails) and every later read must
/// report N+1, or still N when the delta was never made durable.
fn read_beside_a_held_commit(tag: &str, fail: bool) {
    let dir = std::env::temp_dir().join(format!("tuffy-net-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = GatedWal::default();
    let lineage = DurableEngine::create_with_wal(engine(), &dir, Box::new(wal.clone()), 0).unwrap();
    let engine = lineage.engine().clone();
    let committed = lineage.head().reader();
    let n = committed.snapshot().generation();
    let answer_n = local_canon(&engine, &committed.snapshot().query(&Query::map()).unwrap());
    let answer_next = {
        let mut s = lineage.reader();
        let delta = s.parse_delta(DELTA).unwrap();
        s.apply(&delta).unwrap();
        local_canon(&engine, &s.snapshot().query(&Query::map()).unwrap())
    };
    assert_ne!(answer_n, answer_next, "the delta must move the MAP");
    let server = Server::start_durable(lineage, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut reader = Client::connect(addr).unwrap();

    wal.set(Gate::Hold);
    let applied = std::thread::scope(|scope| {
        let writer = scope.spawn(|| Client::connect(addr).unwrap().apply(DELTA));
        wal.wait_until(Gate::Held);
        let started = Instant::now();
        let during = reader.query(&wire_map()).unwrap();
        assert_eq!(during.generation(), n, "a read waited for the held commit");
        assert_eq!(wire_canon(&during), answer_n);
        assert_eq!(Client::connect(addr).unwrap().generation(), n);
        assert!(started.elapsed() < Duration::from_secs(5));
        wal.set(if fail { Gate::Fail } else { Gate::Pass });
        writer.join().unwrap()
    });

    let (generation, expected) = match applied {
        Ok(applied) if !fail => {
            assert!(applied.generation > n);
            (applied.generation, answer_next)
        }
        Err(ClientError::Server(f)) if fail => {
            assert_eq!(f.code, ErrorCode::Internal, "{}", f.message);
            (n, answer_n)
        }
        other => panic!("apply with fail={fail} answered {other:?}"),
    };
    let mut fresh = Client::connect(addr).unwrap();
    assert_eq!(fresh.generation(), generation);
    for client in [&mut reader, &mut fresh] {
        let after = client.query(&wire_map()).unwrap();
        assert_eq!(after.generation(), generation);
        assert_eq!(wire_canon(&after), expected);
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reads_beside_a_held_commit_answer_the_committed_generation() {
    read_beside_a_held_commit("held", false);
}

#[test]
fn a_commit_whose_fsync_fails_is_never_served() {
    read_beside_a_held_commit("fsync-fails", true);
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

#[test]
fn garbage_preamble_draws_bad_magic_and_close() {
    let server = serve(ServeConfig::default());
    let baseline_map = baselines(server.engine()).remove(0);

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut magic = [0u8; 8];
    stream.read_exact(&mut magic).unwrap();
    stream.write_all(b"GARBAGE!").unwrap();
    expect_error(&mut stream, ErrorCode::BadMagic);
    // ...then a clean close.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    // The client library reports the same violation as a typed error.
    match Client::connect(server.local_addr()) {
        Ok(_) => {}
        Err(e) => panic!("well-behaved connect must still work: {e}"),
    }
    assert_server_healthy(&server, &baseline_map);
    assert!(server.stats().protocol_errors >= 1);
}

#[test]
fn oversized_length_prefix_is_rejected_without_reading() {
    let server = serve(ServeConfig::default());
    let baseline_map = baselines(server.engine()).remove(0);

    let mut stream = raw_handshake(&server);
    // Promise 64 MiB (over the 4 MiB cap). The server must answer
    // `too-large` immediately — not try to read, not allocate 64 MiB.
    stream.write_all(&(64u32 << 20).to_be_bytes()).unwrap();
    let t0 = Instant::now();
    expect_error(&mut stream, ErrorCode::TooLarge);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "too-large must be rejected from the prefix alone"
    );
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "unsyncable stream must be closed");

    assert_server_healthy(&server, &baseline_map);
}

/// The frame cap binds answers too: a client reads at most the cap it
/// shares with the server, so an answer over it must become a typed
/// `too-large` error on a connection that stays in sync, not a frame the
/// client refuses mid-stream.
#[test]
fn answers_over_the_frame_cap_are_typed_too_large() {
    let request = encode_request(&Request::Query(wire_marginal()));
    let answer_len = {
        let server = serve(ServeConfig::default());
        let mut stream = raw_handshake(&server);
        write_frame(&mut stream, &request).unwrap();
        read_frame(&mut stream, 1 << 20).unwrap().len()
    };
    assert!(
        request.len() < answer_len,
        "the marginal answer must outsize its request"
    );
    let cap = ((request.len() + answer_len) / 2) as u32;
    let server = serve(ServeConfig {
        max_frame_bytes: cap,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.query(&wire_marginal()).unwrap_err() {
        ClientError::Server(f) => {
            assert_eq!(f.code, ErrorCode::TooLarge, "{}", f.message);
            assert!(f.message.contains(&answer_len.to_string()), "{}", f.message);
        }
        other => panic!("expected `error too-large`, got {other:?}"),
    }
    client.ping(9).unwrap();
}

#[test]
fn zero_length_and_malformed_frames_keep_the_connection_usable() {
    let server = serve(ServeConfig::default());
    let baseline_map = baselines(server.engine()).remove(0);

    let mut stream = raw_handshake(&server);
    // Zero-length frame: malformed, but framing is still in sync.
    stream.write_all(&0u32.to_be_bytes()).unwrap();
    expect_error(&mut stream, ErrorCode::Malformed);
    // Unparseable payload: same.
    write_frame(&mut stream, b"utter nonsense\n").unwrap();
    expect_error(&mut stream, ErrorCode::Malformed);
    // A response frame sent as a request: typed rejection, not a panic.
    write_frame(&mut stream, b"welcome 1 0\n").unwrap();
    expect_error(&mut stream, ErrorCode::Malformed);
    // The same connection still answers real requests afterwards.
    write_frame(&mut stream, b"ping 41\n").unwrap();
    let frame = read_frame(&mut stream, 1 << 20).unwrap();
    assert_eq!(
        decode_response(&frame).unwrap(),
        Response::Pong { token: 41 }
    );

    assert_server_healthy(&server, &baseline_map);
    assert_eq!(server.stats().protocol_errors, 3);
}

#[test]
fn torn_frames_and_mid_request_disconnects_drop_cleanly() {
    let server = serve(ServeConfig::default());
    let baseline_map = baselines(server.engine()).remove(0);

    // Torn frame: promise 100 bytes, send 10, vanish.
    {
        let mut stream = raw_handshake(&server);
        stream.write_all(&100u32.to_be_bytes()).unwrap();
        stream.write_all(b"query\nkind").unwrap();
    } // dropped here — mid-request disconnect

    // Disconnect mid-prefix.
    {
        let mut stream = raw_handshake(&server);
        stream.write_all(&[0u8, 0]).unwrap();
    }

    // Disconnect between preamble and first frame.
    {
        let _stream = raw_handshake(&server);
    }

    // Give the handlers a few ticks to observe the drops, then verify
    // nothing is wedged and no slot leaked.
    let t0 = Instant::now();
    while server.stats().active_connections > 0 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        server.stats().active_connections,
        0,
        "connection slot leaked"
    );
    assert_eq!(server.stats().inflight, 0, "request slot leaked");
    assert_server_healthy(&server, &baseline_map);
}

#[test]
fn slow_loris_hits_the_frame_deadline() {
    let server = serve(ServeConfig {
        frame_deadline: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    let baseline_map = baselines(server.engine()).remove(0);

    let mut stream = raw_handshake(&server);
    // Start a frame, then stall: two prefix bytes, then silence while
    // holding the connection open.
    stream.write_all(&[0u8, 0]).unwrap();
    let t0 = Instant::now();
    expect_error(&mut stream, ErrorCode::Timeout);
    let waited = t0.elapsed();
    assert!(
        waited >= Duration::from_millis(250),
        "deadline fired too early: {waited:?}"
    );
    assert!(
        waited < Duration::from_secs(5),
        "deadline fired far too late: {waited:?}"
    );
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "slow-loris connection must be dropped");

    assert_server_healthy(&server, &baseline_map);
    assert!(server.stats().timeouts >= 1);
}

#[test]
fn query_level_failures_are_typed_not_fatal() {
    let server = serve(ServeConfig::default());
    let baseline_map = baselines(server.engine()).remove(0);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Unknown predicate in top-k.
    let err = client
        .query(&WireQuery {
            kind: WireQueryKind::TopK {
                predicate: "unknown_pred".into(),
                k: 3,
            },
            mcsat: Some(wire_mcsat()),
            ..WireQuery::default()
        })
        .unwrap_err();
    assert!(
        matches!(&err, ClientError::Server(f) if f.code == ErrorCode::Query),
        "expected a typed query error, got {err:?}"
    );

    // Unparseable delta text in a given.
    let err = client
        .query(&WireQuery {
            given: Some("((((not a delta".into()),
            ..WireQuery::default()
        })
        .unwrap_err();
    assert!(matches!(&err, ClientError::Server(f) if f.code == ErrorCode::Query));

    // Unparseable delta in an apply; the session must survive it.
    let err = client.apply("((((not a delta").unwrap_err();
    assert!(matches!(&err, ClientError::Server(f) if f.code == ErrorCode::Query));
    assert_eq!(client.generation(), 0, "failed apply must not fork");

    // The same connection still serves the exact baseline afterwards.
    let answer = client.query(&wire_map()).unwrap();
    assert_eq!(wire_canon(&answer), baseline_map);
}

/// `burn_in` is clamped by the sample cap like `samples`. Unclamped, one
/// top-k frame asking for 2⁴⁰ burn-in samples held a heavy slot until the
/// drain deadline abandoned it.
#[test]
fn huge_burn_in_is_clamped_to_the_sample_cap() {
    let server = serve(ServeConfig::default());
    let mut stream = raw_handshake(&server);
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let (samples, _, steps, p_anneal, temperature, seed) = wire_mcsat();
    let query = WireQuery {
        mcsat: Some((samples, 1 << 40, steps, p_anneal, temperature, seed)),
        ..wire_topk()
    };
    write_frame(&mut stream, &encode_request(&Request::Query(query))).unwrap();
    let frame = read_frame(&mut stream, 1 << 20).expect("answered within the client timeout");
    let answer = decode_response(&frame).unwrap();
    assert!(matches!(answer, Response::TopK(_)), "got {answer:?}");
}

/// Zero samples estimate nothing (the answer was 0/0 = NaN): the query is
/// rejected as `error query`, and the connection keeps serving.
#[test]
fn zero_samples_is_a_typed_query_error() {
    let server = serve(ServeConfig::default());
    let baseline_map = baselines(server.engine()).remove(0);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (_, burn_in, steps, p_anneal, temperature, seed) = wire_mcsat();
    for query in [wire_marginal(), wire_topk()] {
        let query = WireQuery {
            mcsat: Some((0, burn_in, steps, p_anneal, temperature, seed)),
            ..query
        };
        let err = client.query(&query).unwrap_err();
        assert!(
            matches!(&err, ClientError::Server(f) if f.code == ErrorCode::Query),
            "expected a typed query error, got {err:?}"
        );
    }
    assert_eq!(
        wire_canon(&client.query(&wire_map()).unwrap()),
        baseline_map
    );
    let zero = McSatParams {
        samples: 0,
        ..mcsat()
    };
    let in_process = server
        .engine()
        .snapshot()
        .query(&Query::marginal_all().with_mcsat(zero));
    assert!(in_process.is_err(), "in-process callers get the MlnError");
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

/// A heavy query sized to stay in flight for a while (tens of millions
/// of SampleSAT steps) so admission probes can run against it.
fn long_heavy_query() -> WireQuery {
    WireQuery {
        kind: WireQueryKind::Marginal,
        mcsat: Some((400, 10, 60_000, 0.5, 0.5, 7)),
        ..WireQuery::default()
    }
}

#[test]
fn heavy_requests_cannot_starve_light_maps() {
    let server = serve(ServeConfig {
        max_inflight: 2,
        max_heavy: 1,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        // Occupy the single heavy slot with a long marginal.
        let occupant = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.query(&long_heavy_query()).unwrap()
        });

        // Deterministic gate: wait until the server reports the heavy
        // request in flight (not a sleep-and-hope race).
        let t0 = Instant::now();
        while server.stats().inflight_heavy == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "heavy query never became in-flight"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        // A second heavy is turned away with a typed `busy heavy`...
        let mut prober = Client::connect(addr).unwrap();
        let err = prober.query(&wire_marginal()).unwrap_err();
        match &err {
            ClientError::Busy(b) => {
                assert_eq!(b.class, BusyClass::Heavy);
                assert_eq!(b.limit, 1);
            }
            other => panic!("expected busy(heavy), got {other:?}"),
        }

        // ...but a cheap MAP still gets the reserved light slot: the
        // heavy cap sitting below the total cap is exactly what keeps
        // marginals from starving MAP lookups.
        let answer = prober.query(&wire_map()).unwrap();
        assert!(matches!(answer, WireAnswer::Map(_)));

        // The busy rejection left the connection usable (retryable).
        let answer = prober.query(&wire_map()).unwrap();
        assert!(matches!(answer, WireAnswer::Map(_)));

        occupant.join().unwrap();
    });

    assert!(server.stats().busy_rejections >= 1);
    assert_eq!(server.stats().inflight, 0, "admission slot leaked");
    assert_eq!(server.stats().inflight_heavy, 0, "heavy slot leaked");
}

#[test]
fn connection_cap_answers_typed_busy() {
    let server = serve(ServeConfig {
        max_connections: 1,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    let held = Client::connect(addr).unwrap();
    // Second connection: refused with `busy conn` — distinguishable
    // from a dead server — and closed.
    let t0 = Instant::now();
    loop {
        match Client::connect(addr) {
            Err(ClientError::Busy(b)) => {
                assert_eq!(b.class, BusyClass::Connections);
                assert_eq!(b.limit, 1);
                break;
            }
            // The accept loop may briefly lag the active-connection
            // bookkeeping; admitted extras just mean we retry.
            Ok(_) | Err(_) => assert!(
                t0.elapsed() < Duration::from_secs(10),
                "never saw busy(conn) at the connection cap"
            ),
        }
    }
    drop(held);

    // Once the held connection is gone, new clients are admitted again.
    let t0 = Instant::now();
    loop {
        match Client::connect(addr) {
            Ok(mut c) => {
                c.ping(1).unwrap();
                break;
            }
            Err(_) => assert!(
                t0.elapsed() < Duration::from_secs(10),
                "connection slot never freed"
            ),
        }
    }
    assert!(server.stats().rejected_connections >= 1);
}

#[test]
fn shutdown_is_clean_with_connected_clients() {
    let server = serve(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping(7).unwrap();
    let addr = server.local_addr();
    server.shutdown();
    // The lingering client observes shutdown (typed frame or clean
    // close), never a hang.
    match client.ping(8) {
        Err(_) => {}
        Ok(()) => panic!("ping succeeded after shutdown"),
    }
    // The listener is gone.
    assert!(Client::connect(addr).is_err());
}
