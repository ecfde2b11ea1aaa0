//! Chaos suite: crash recovery and fault containment for the durable
//! serving path.
//!
//! * **Kill at a random point** — a durable lineage's WAL is cut at
//!   sampled byte offsets (record boundaries, mid-record, inside the
//!   header) and recovered into a fresh directory. Recovery must land
//!   on the longest committed prefix and answer **bit-identically**
//!   (`f64::to_bits`) to the uninterrupted run at that prefix.
//! * **Server crash** — a `tuffyd` server acks applies over TCP, dies
//!   without checkpointing, and a reopened server serves the same
//!   answers bit for bit, leaving no temp files behind.
//! * **Injected storage faults** — failed appends, short writes, and
//!   fsync errors during `apply` yield typed [`tuffy::DurableError`]s,
//!   never a panic; the lineage keeps serving the previous committed
//!   generation and the retried apply converges on the fault-free
//!   answers. Bit flips on WAL read are detected: interior corruption
//!   is a typed checksum error, tail corruption truncates to the
//!   committed prefix.
//! * **A fresh lineage over an old one** — `create` over a store that
//!   holds a lineage, intact or with a damaged log, starts with an empty
//!   log.
//! * **The publish order** — a [`tuffy::LineageHead`] reads what `apply`,
//!   `relearn` and `open` commit, and `apply` publishes before its
//!   auto-checkpoint runs, so a failed checkpoint leaves the head
//!   published.
//! * **Panic containment** — a handler panic (the chaos ping token)
//!   answers `error internal`, leaks no admission slots, and leaves
//!   both its own connection and every other connection serving.
//! * **Drain accounting** — shutdown finishes in-flight work, answers
//!   `busy shutdown` to connected clients, and reports them as
//!   `drained`, not `aborted`.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tuffy::{
    DurableEngine, DurableError, Engine, LineageHead, MlnProgram, Query, Session, Tuffy,
    TuffyConfig, WalkSatParams,
};
use tuffy_datagen::Dataset;
use tuffy_mln::printer::render_evidence;
use tuffy_mln::Weight;
use tuffy_serve::{
    Busy, BusyClass, Client, ClientError, ErrorCode, ServeConfig, Server, WireAnswer, WireQuery,
};
use tuffy_store::{FaultPlan, FaultyStorage, MemStorage, WalStorage};

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tuffy-chaos-test-{}-{tag}", std::process::id()))
}

/// A scratch dir guaranteed empty.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_config() -> TuffyConfig {
    TuffyConfig {
        search: WalkSatParams {
            max_flips: 5_000,
            seed: 7,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn build(ds: Dataset) -> Engine {
    Tuffy::from_parts(ds.program, ds.evidence)
        .with_config(small_config())
        .build_engine()
        .expect("grounding")
}

/// Synthesizes `n` single-line delta texts from a dataset's evidence:
/// flips, negative asserts, and retracts over distinct existing atoms,
/// plus fresh-constant asserts (which extend the interned domains — the
/// part of replay where ordering bugs would bite).
fn make_deltas(program: &MlnProgram, ds: &Dataset, n: usize) -> Vec<String> {
    let atoms: Vec<String> = ds
        .evidence
        .iter()
        .map(|ev| tuffy::render_atom(program, ev.atom))
        .collect();
    assert!(
        atoms.len() >= n,
        "dataset has {} evidence atoms, need {n}",
        atoms.len()
    );
    // Spread picks across the evidence set so deltas touch distinct
    // atoms (a retract followed by a flip of the same atom would be
    // invalid).
    let step = atoms.len() / n;
    (0..n)
        .map(|i| {
            let atom = &atoms[i * step];
            match i % 4 {
                0 => format!("~{atom}"),
                1 => format!("!{atom}"),
                2 => format!("-{atom}"),
                _ => {
                    // Fresh constant in the last argument position.
                    let (name, args) = atom.split_once('(').expect("rendered atom");
                    let args = args.strip_suffix(')').expect("rendered atom");
                    let mut parts: Vec<&str> = args.split(", ").collect();
                    let fresh = format!("Chaos{i}");
                    *parts.last_mut().unwrap() = &fresh;
                    format!("{name}({})", parts.join(", "))
                }
            }
        })
        .collect()
}

/// MAP answer of the lineage head reduced to exact bits.
fn head_map_bits(durable: &DurableEngine) -> (u64, u64, Vec<String>) {
    map_bits(&durable.reader())
}

/// MAP answer of a reader's generation reduced to exact bits.
fn map_bits(reader: &Session) -> (u64, u64, Vec<String>) {
    let answer = reader.snapshot().query(&Query::map()).expect("MAP query");
    let map = answer.as_map().expect("MAP answer");
    let mut atoms: Vec<String> = map.true_atoms().iter().map(|a| format!("{a:?}")).collect();
    atoms.sort();
    (map.cost.hard, map.cost.soft.to_bits(), atoms)
}

fn assert_no_temp_files(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("read store dir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            !name.ends_with(".tmp"),
            "leaked temp file `{name}` in {}",
            dir.display()
        );
    }
}

// ---------------------------------------------------------------------
// Kill at a random point
// ---------------------------------------------------------------------

/// Cuts the reference run's WAL at sampled byte offsets — record
/// boundaries, one byte short of them, inside the header, and
/// LCG-sampled interior points — and recovers each cut in a fresh
/// directory. Every recovery must land on the longest committed prefix
/// and answer bit-identically to the uninterrupted run at that prefix.
#[test]
fn kill_at_random_point_recovers_a_committed_generation_bit_identically() {
    const DELTAS: usize = 8;
    let ds = tuffy_datagen::er(6, 18, 7);
    let program = ds.program.clone();
    let deltas = make_deltas(&program, &ds, DELTAS);

    let dir_a = fresh_dir("kill-ref");
    let mut durable =
        DurableEngine::create(build(ds), &dir_a, 0).expect("create reference lineage");
    // offsets[k] = WAL length with exactly k committed records;
    // baselines[k] = the exact MAP bits the head served at that point.
    let mut offsets = vec![durable.wal_len_bytes()];
    let mut baselines = vec![head_map_bits(&durable)];
    for (i, delta) in deltas.iter().enumerate() {
        let outcome = durable.apply(delta).expect("reference apply");
        assert_eq!(outcome.seq, i as u64 + 1);
        offsets.push(durable.wal_len_bytes());
        baselines.push(head_map_bits(&durable));
    }
    durable.sync().expect("sync");
    drop(durable);

    let wal_bytes = std::fs::read(dir_a.join(tuffy::WAL_FILE)).expect("read WAL");
    assert_eq!(wal_bytes.len() as u64, *offsets.last().unwrap());

    // Cut points: every record boundary, one byte short of each (torn
    // tail), a mid-header cut, and deterministic LCG samples. No wall
    // clock, no RNG crate — reruns cut at identical points.
    let total = wal_bytes.len() as u64;
    let mut cuts: Vec<u64> = Vec::new();
    for &off in &offsets {
        cuts.push(off);
        cuts.push(off.saturating_sub(1));
    }
    cuts.push(7);
    let mut lcg = 0x2545F4914F6CDD1Du64;
    for _ in 0..8 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        cuts.push(lcg % (total + 1));
    }
    cuts.sort_unstable();
    cuts.dedup();

    for cut in cuts {
        // The committed prefix at this cut: the last record boundary at
        // or before it (a cut inside the 16-byte header recovers base
        // only — the header is rewritten, no records survive).
        let k = offsets
            .iter()
            .take_while(|&&off| off <= cut)
            .count()
            .saturating_sub(1);
        let dir_b = fresh_dir(&format!("kill-cut-{cut}"));
        std::fs::create_dir_all(&dir_b).expect("mkdir");
        std::fs::copy(
            dir_a.join(tuffy::GENERATION_FILE),
            dir_b.join(tuffy::GENERATION_FILE),
        )
        .expect("copy base generation");
        std::fs::write(dir_b.join(tuffy::WAL_FILE), &wal_bytes[..cut as usize])
            .expect("write cut WAL");

        let (recovered, report) =
            DurableEngine::open(&dir_b, 0).expect("recovery must accept any prefix cut");
        assert_eq!(
            report.seq, k as u64,
            "cut at byte {cut}: expected committed prefix of {k} records"
        );
        assert_eq!(report.replayed, k as u64, "cut at byte {cut}");
        assert_eq!(
            head_map_bits(&recovered),
            baselines[k],
            "cut at byte {cut}: recovered answers diverge from the \
             uninterrupted run at prefix {k}"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
    let _ = std::fs::remove_dir_all(&dir_a);
}

// ---------------------------------------------------------------------
// Server-level crash + reopen
// ---------------------------------------------------------------------

#[test]
fn server_acked_applies_survive_a_crash_bit_identically() {
    let ds = tuffy_datagen::er(6, 18, 11);
    let program = ds.program.clone();
    let deltas = make_deltas(&program, &ds, 4);
    let dir = fresh_dir("server-crash");

    let config = ServeConfig {
        read_timeout: Duration::from_millis(10),
        ..ServeConfig::default()
    };
    let durable = DurableEngine::create(build(ds), &dir, 0).expect("create");
    let server = Server::start_durable(durable, "127.0.0.1:0", config).expect("start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for delta in deltas.iter().take(3) {
        let applied = client.apply(delta).expect("acked apply");
        assert!(applied.generation > 0);
    }
    let before = match client.query(&WireQuery::default()).expect("map query") {
        WireAnswer::Map(a) => a,
        other => panic!("expected a MAP answer, got {other:?}"),
    };
    // "Crash": the server goes away without checkpointing. Every acked
    // apply was WAL-synced before its ack, so nothing else is needed.
    drop(client);
    server.shutdown();

    let (recovered, report) = DurableEngine::open(&dir, 0).expect("reopen");
    assert_eq!(report.replayed, 3);
    assert_eq!(report.seq, 3);
    let server = Server::start_durable(recovered, "127.0.0.1:0", config).expect("restart");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    assert_eq!(
        client.generation(),
        report.generation,
        "welcome frame must carry the recovered generation"
    );
    let after = match client.query(&WireQuery::default()).expect("map query") {
        WireAnswer::Map(a) => a,
        other => panic!("expected a MAP answer, got {other:?}"),
    };
    assert_eq!(after.cost_hard, before.cost_hard);
    assert_eq!(
        after.cost_soft_bits, before.cost_soft_bits,
        "soft cost must survive crash + recovery bit-identically"
    );
    assert_eq!(after.atoms, before.atoms);
    drop(client);
    server.shutdown();
    assert_no_temp_files(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Injected storage faults
// ---------------------------------------------------------------------

/// Append-time faults: the faulted apply returns a typed storage error,
/// the head stays on the previous committed generation, and the retried
/// apply lands on the fault-free answers.
#[test]
fn injected_append_faults_are_typed_and_recoverable() {
    let ds = tuffy_datagen::er(6, 18, 13);
    let program = ds.program.clone();
    let deltas = make_deltas(&program, &ds, 2);
    let engine = build(ds);

    // Fault-free reference for the final answers.
    let ref_dir = fresh_dir("faults-ref");
    let mut reference = DurableEngine::create_with_wal(
        engine.clone(),
        &ref_dir,
        Box::new(MemStorage::default()),
        0,
    )
    .expect("reference");
    for delta in &deltas {
        reference.apply(delta).expect("reference apply");
    }
    let want = head_map_bits(&reference);

    // Append 0 is the WAL header; the second apply is append 2.
    let plans = [
        FaultPlan {
            fail_append: Some(2),
            ..FaultPlan::default()
        },
        FaultPlan {
            short_append: Some((2, 5)),
            ..FaultPlan::default()
        },
        FaultPlan {
            fail_sync: Some(2),
            ..FaultPlan::default()
        },
    ];
    for (i, plan) in plans.into_iter().enumerate() {
        let dir = fresh_dir(&format!("faults-{i}"));
        let mut durable = DurableEngine::create_with_wal(
            engine.clone(),
            &dir,
            Box::new(FaultyStorage::new(MemStorage::default(), plan)),
            0,
        )
        .expect("create");
        durable.apply(&deltas[0]).expect("apply before the fault");
        let generation = durable.generation();
        let bits = head_map_bits(&durable);

        match durable.apply(&deltas[1]) {
            Err(DurableError::Store(_)) => {}
            Ok(_) => panic!("plan {plan:?}: faulted apply must not commit"),
            Err(e) => panic!("plan {plan:?}: expected a typed storage error, got {e}"),
        }
        assert_eq!(
            durable.generation(),
            generation,
            "plan {plan:?}: a failed apply must not advance the head"
        );
        assert_eq!(
            head_map_bits(&durable),
            bits,
            "plan {plan:?}: the previous generation must keep serving"
        );
        assert_eq!(durable.committed_seq(), 1);

        // The fault is one-shot; the retry must commit and converge.
        let outcome = durable.apply(&deltas[1]).expect("retried apply");
        assert_eq!(outcome.seq, 2, "the retry reuses the rolled-back sequence");
        assert_eq!(head_map_bits(&durable), want);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Read-time corruption: an interior bit flip is a typed checksum
/// error (the lineage refuses to serve a corrupt generation); a flip
/// in the final record truncates to the committed prefix.
#[test]
fn injected_bit_flips_never_serve_a_corrupt_generation() {
    let ds = tuffy_datagen::er(6, 18, 17);
    let program = ds.program.clone();
    let deltas = make_deltas(&program, &ds, 3);
    let engine = build(ds);

    let dir = fresh_dir("bitflip");
    let mem = MemStorage::default();
    let mut durable =
        DurableEngine::create_with_wal(engine.clone(), &dir, Box::new(mem.clone()), 0)
            .expect("create");
    let mut offsets = vec![durable.wal_len_bytes()];
    let mut baselines = vec![head_map_bits(&durable)];
    for delta in &deltas {
        durable.apply(delta).expect("apply");
        offsets.push(durable.wal_len_bytes());
        baselines.push(head_map_bits(&durable));
    }
    drop(durable);
    let bytes = mem.snapshot();

    // Interior flip: a byte inside record 1's checksummed body (the
    // region starts 4 bytes past the record's length field) while
    // records 2 and 3 follow it. Detection must be a typed error —
    // replaying past silent corruption would serve wrong answers.
    let interior_bit = (offsets[0] + 6) * 8;
    let storage = FaultyStorage::new(
        {
            let m = MemStorage::default();
            m.set(bytes.clone());
            m
        },
        FaultPlan {
            flip_bit: Some(interior_bit),
            ..FaultPlan::default()
        },
    );
    match DurableEngine::open_with_wal(&dir, Box::new(storage), 0) {
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("checksum"),
                "interior corruption should be a checksum error, got: {msg}"
            );
        }
        Ok(_) => panic!("interior WAL corruption must not recover silently"),
    }

    // Tail flip: corruption confined to the final record is
    // indistinguishable from a torn append — recovery truncates it and
    // serves the committed prefix.
    let tail_bit = (offsets[2] + 6) * 8;
    let storage = FaultyStorage::new(
        {
            let m = MemStorage::default();
            m.set(bytes);
            m
        },
        FaultPlan {
            flip_bit: Some(tail_bit),
            ..FaultPlan::default()
        },
    );
    let (recovered, report) =
        DurableEngine::open_with_wal(&dir, Box::new(storage), 0).expect("tail flip recovers");
    assert!(report.truncated_tail);
    assert_eq!(report.replayed, 2);
    assert_eq!(head_map_bits(&recovered), baselines[2]);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// A fresh lineage over an old one
// ---------------------------------------------------------------------

/// `DurableEngine::create` over a store that already holds a lineage
/// starts with an empty log: none of the old records replays onto the
/// new base, and a damaged old log (which `open` refuses) does not stop
/// the re-grounding fallback of `tuffyd --store`.
#[test]
fn create_over_an_old_lineage_starts_with_an_empty_log() {
    let ds = tuffy_datagen::er(6, 18, 29);
    let program = ds.program.clone();
    let deltas = make_deltas(&program, &ds, 2);
    let engine = build(ds);
    let dir = fresh_dir("recreate");
    let wal = dir.join(tuffy::WAL_FILE);
    // The head's MAP bits and its evidence, rendered.
    let head = |durable: &DurableEngine| {
        let reader = durable.reader();
        let snapshot = reader.snapshot();
        let evidence = render_evidence(snapshot.program(), snapshot.evidence());
        (head_map_bits(durable), evidence)
    };
    let old_lineage = || {
        let mut old = DurableEngine::create(engine.clone(), &dir, 0).expect("old lineage");
        let fresh = head(&old);
        for delta in &deltas {
            old.apply(delta).expect("old apply");
        }
        assert_eq!(old.committed_seq(), 2);
        assert_ne!(head(&old), fresh, "the old deltas move the head");
        fresh
    };
    let recreate = |fresh| {
        let created = DurableEngine::create(engine.clone(), &dir, 0).expect("create");
        assert_eq!(created.committed_seq(), 0, "a fresh lineage has no records");
        assert_eq!(created.wal_records(), 0);
        drop(created);
        let (reopened, report) = DurableEngine::open(&dir, 0).expect("reopen");
        assert_eq!(
            report.replayed, 0,
            "no old record replays onto the new base"
        );
        assert_eq!(head(&reopened), fresh);
    };

    // An intact old lineage with two committed deltas.
    recreate(old_lineage());

    // An old log whose first record is damaged in place.
    let fresh = old_lineage();
    let mut bytes = std::fs::read(&wal).expect("read wal");
    bytes[tuffy_store::wal::WAL_HEADER_LEN as usize + 12] ^= 0x20;
    std::fs::write(&wal, &bytes).expect("damage wal");
    assert!(
        DurableEngine::open(&dir, 0).is_err(),
        "open refuses the damaged log"
    );
    recreate(fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The publish order
// ---------------------------------------------------------------------

/// An in-memory WAL that, while armed with a lineage's head, fails the
/// truncation a checkpoint ends with, after noting the generation the
/// head showed at that moment.
#[derive(Clone, Default)]
struct CheckpointProbe {
    log: MemStorage,
    armed: Arc<Mutex<Option<LineageHead>>>,
    seen: Arc<Mutex<Vec<u64>>>,
}

impl WalStorage for CheckpointProbe {
    fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
        self.log.read_all()
    }

    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.log.append(bytes)
    }

    fn truncate_to(&mut self, len: u64) -> std::io::Result<()> {
        if let Some(head) = &*self.armed.lock().unwrap() {
            self.seen.lock().unwrap().push(head.generation());
            return Err(std::io::Error::other("injected checkpoint failure"));
        }
        self.log.truncate_to(len)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.log.sync()
    }
}

/// A `LineageHead` taken before a commit reads the generation the commit
/// made: `apply` publishes it before its auto-checkpoint runs (so a
/// checkpoint that fails leaves it published), `relearn` once the base
/// is saved, and `open` once replay ends.
#[test]
fn the_head_is_published_at_each_commit_point() {
    let ds = tuffy_datagen::er(6, 18, 31);
    let program = ds.program.clone();
    let deltas = make_deltas(&program, &ds, 2);
    let dir = fresh_dir("publish");
    let probe = CheckpointProbe::default();
    let mut durable = DurableEngine::create_with_wal(build(ds), &dir, Box::new(probe.clone()), 1)
        .expect("create lineage");
    let head = durable.head();
    let base = head.generation();

    *probe.armed.lock().unwrap() = Some(head.clone());
    let outcome = durable.apply(&deltas[0]).expect("apply");
    assert!(outcome.generation > base, "the delta forks a generation");
    assert!(!outcome.checkpointed);
    assert!(durable.take_checkpoint_error().is_some());
    assert_eq!(
        *probe.seen.lock().unwrap(),
        [outcome.generation],
        "the auto-checkpoint ran before the head was published"
    );
    assert_eq!(head.generation(), outcome.generation);
    *probe.armed.lock().unwrap() = None;

    let weights: Vec<Weight> = program
        .rules
        .iter()
        .map(|rule| match rule.weight {
            Weight::Soft(w) => Weight::Soft(w * 0.5),
            w => w,
        })
        .collect();
    durable.relearn(&weights).expect("relearn");
    assert!(head.generation() > outcome.generation);

    // Reopened once with nothing to replay, then once more over one
    // record: each reopened head reads the generation replay landed on
    // and answers what the head answered before the drop.
    for delta in [None, Some(&deltas[1])] {
        if let Some(delta) = delta {
            durable.apply(delta).expect("apply after reopen");
        }
        let expected = map_bits(&durable.reader());
        drop(durable);
        let storage = Box::new(probe.log.clone());
        let (reopened, report) =
            DurableEngine::open_with_wal(&dir, storage, 0).expect("reopen lineage");
        durable = reopened;
        let head = durable.head();
        assert_eq!(report.replayed, u64::from(delta.is_some()));
        assert_eq!(head.generation(), report.generation);
        assert_eq!(map_bits(&head.reader()), expected);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Panic containment
// ---------------------------------------------------------------------

#[test]
fn handler_panic_is_contained_to_one_request() {
    const CHAOS: u64 = 0xDEAD_BEEF;
    let engine = build(tuffy_datagen::er(6, 18, 19));
    let config = ServeConfig {
        read_timeout: Duration::from_millis(10),
        chaos_panic_token: Some(CHAOS),
        ..ServeConfig::default()
    };
    let server = Server::start(engine, "127.0.0.1:0", config).expect("start");

    let mut victim = Client::connect(server.local_addr()).expect("connect");
    let mut bystander = Client::connect(server.local_addr()).expect("connect");
    victim.ping(1).expect("ping before the panic");

    match victim.ping(CHAOS) {
        Err(ClientError::Server(fault)) => {
            assert_eq!(fault.code, ErrorCode::Internal, "typed `error internal`");
        }
        other => panic!("expected a typed internal error, got {other:?}"),
    }

    // The panicked request cost exactly itself: the same connection
    // keeps serving, other connections never notice, no admission slot
    // leaked.
    victim
        .ping(2)
        .expect("the victim connection must stay usable");
    bystander
        .query(&WireQuery::default())
        .expect("other connections must be unaffected");
    let stats = server.stats();
    assert_eq!(stats.internal_errors, 1);
    assert_eq!(stats.inflight, 0, "no leaked admission slots");
    assert_eq!(stats.inflight_heavy, 0);

    drop(victim);
    drop(bystander);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------

#[test]
fn shutdown_drains_connected_clients_and_counts_them() {
    let engine = build(tuffy_datagen::er(6, 18, 23));
    let config = ServeConfig {
        read_timeout: Duration::from_millis(10),
        drain_deadline: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let server = Server::start(engine, "127.0.0.1:0", config).expect("start");

    // A connection that closed long before shutdown is not "drained".
    let finished = Client::connect(server.local_addr()).expect("connect");
    drop(finished);
    std::thread::sleep(Duration::from_millis(100));

    let mut c1 = Client::connect(server.local_addr()).expect("connect");
    let mut c2 = Client::connect(server.local_addr()).expect("connect");
    c1.ping(1).expect("ping");
    c2.ping(2).expect("ping");

    let stats = server.shutdown();
    assert_eq!(
        stats.drained, 2,
        "both idle connections finish within the drain deadline"
    );
    assert_eq!(stats.aborted, 0);
    assert_eq!(stats.inflight, 0);

    // Each drained client was told why: `busy shutdown`, the typed
    // backpressure class, not a protocol fault.
    match c1.ping(3) {
        Err(ClientError::Busy(Busy {
            class: BusyClass::Shutdown,
            ..
        })) => {}
        Err(ClientError::Closed | ClientError::Io(_)) => {} // already torn down
        other => panic!("expected busy-shutdown or a closed socket, got {other:?}"),
    }
}
