//! Replay determinism: `replay(base, WAL)` must be *the same function*
//! as applying the deltas live.
//!
//! For each testbed family (ER, RC, IE) the same delta texts are
//! committed two ways — through a [`tuffy::DurableEngine`] (with
//! auto-checkpointing folding the WAL mid-stream) and through a plain
//! in-memory [`tuffy::Session`] — and then a third time by dropping the
//! durable lineage and recovering it from disk. All three must agree on
//! the **deep grounding fingerprint** (atom numbering, clause arenas,
//! weights, provenance, base cost — f64s compared as raw bits) and on
//! bit-identical MAP answers. This is the property that makes WAL
//! recovery honest: delta parsing (constant-interning order) and
//! incremental grounding contain no hidden nondeterminism, and the
//! folded-sequence bookkeeping replays every delta exactly once even
//! though flips are not idempotent.

mod common;

use common::fingerprint;
use tuffy::{
    DurableEngine, MlnProgram, Query, Session, Snapshot, Tuffy, TuffyConfig, WalkSatParams,
};
use tuffy_datagen::Dataset;

/// MAP answer reduced to exact bits.
fn map_bits(snapshot: &Snapshot) -> (u64, u64, Vec<String>) {
    let answer = snapshot.query(&Query::map()).expect("MAP query");
    let map = answer.as_map().expect("MAP answer");
    let mut atoms: Vec<String> = map.true_atoms().iter().map(|a| format!("{a:?}")).collect();
    atoms.sort();
    (map.cost.hard, map.cost.soft.to_bits(), atoms)
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tuffy-waldet-test-{}-{tag}", std::process::id()))
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

/// Delta texts over distinct evidence atoms: flips and negative asserts
/// (not in the idempotent fragment — replaying one twice would show),
/// retracts, and fresh-constant asserts (which extend interning order).
fn make_deltas(program: &MlnProgram, ds: &Dataset, n: usize) -> Vec<String> {
    let atoms: Vec<String> = ds
        .evidence
        .iter()
        .map(|ev| tuffy::render_atom(program, &ev.atom))
        .collect();
    assert!(
        atoms.len() >= n,
        "{}: dataset has {} evidence atoms, need {n}",
        ds.name,
        atoms.len()
    );
    let step = atoms.len() / n;
    (0..n)
        .map(|i| {
            let atom = &atoms[i * step];
            match i % 4 {
                0 => format!("~{atom}"),
                1 => format!("!{atom}"),
                2 => format!("-{atom}"),
                _ => {
                    let (name, args) = atom.split_once('(').expect("rendered atom");
                    let args = args.strip_suffix(')').expect("rendered atom");
                    let mut parts: Vec<&str> = args.split(", ").collect();
                    let fresh = format!("Replay{i}");
                    *parts.last_mut().unwrap() = &fresh;
                    format!("{name}({})", parts.join(", "))
                }
            }
        })
        .collect()
}

fn assert_heads_agree(tag: &str, durable: &DurableEngine, session: &Session) {
    let reader = durable.reader();
    assert_eq!(
        fingerprint(reader.snapshot().grounding()),
        fingerprint(session.snapshot().grounding()),
        "{tag}: durable head and live session diverged in grounding"
    );
    assert_eq!(
        map_bits(reader.snapshot()),
        map_bits(session.snapshot()),
        "{tag}: durable head and live session diverged in MAP answer"
    );
}

/// Applies `n` deltas through a checkpointing durable lineage and a
/// live session, checking equivalence live and again after recovery.
fn check_family(tag: &str, ds: Dataset, n: usize) {
    const CHECKPOINT_EVERY: u64 = 3;
    let program = ds.program.clone();
    let deltas = make_deltas(&program, &ds, n);
    let engine = Tuffy::from_parts(ds.program, ds.evidence)
        .with_config(small_config())
        .build_engine()
        .expect("grounding");

    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    // Checkpointing mid-stream makes this a fold-correctness test too:
    // recovery must replay exactly the unfolded suffix, never a folded
    // (and non-idempotent) flip a second time.
    let mut durable =
        DurableEngine::create(engine.clone(), &dir, CHECKPOINT_EVERY).expect("create");
    let mut session = engine.open_session();

    for (i, delta) in deltas.iter().enumerate() {
        let outcome = durable.apply(delta).expect("durable apply");
        assert_eq!(outcome.seq, i as u64 + 1);
        assert!(
            durable.take_checkpoint_error().is_none(),
            "{tag}: auto-checkpoint failed"
        );
        let parsed = session.parse_delta(delta).expect("parse");
        session.apply(&parsed).expect("session apply");
        assert_heads_agree(&format!("{tag} after delta {i}"), &durable, &session);
    }
    assert_eq!(durable.committed_seq(), n as u64);
    drop(durable);

    // Recovery: base (folded through the last checkpoint) + WAL suffix
    // must reproduce the live lineage exactly.
    let (recovered, report) = DurableEngine::open(&dir, 0).expect("recover");
    assert_eq!(report.seq, n as u64);
    assert_eq!(
        report.replayed + (n as u64 / CHECKPOINT_EVERY) * CHECKPOINT_EVERY,
        n as u64,
        "{tag}: recovery must replay exactly the deltas the base did not fold"
    );
    assert_eq!(report.skipped, 0);
    assert!(!report.truncated_tail);
    assert_heads_agree(&format!("{tag} after recovery"), &recovered, &session);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn er_replay_is_bit_identical_to_live_applies() {
    check_family("er", tuffy_datagen::er(8, 24, 7), 10);
}

#[test]
fn rc_replay_is_bit_identical_to_live_applies() {
    check_family("rc", tuffy_datagen::rc(3, 6, 7), 10);
}

#[test]
fn ie_replay_is_bit_identical_to_live_applies() {
    check_family("ie", tuffy_datagen::ie(12, 10, 7), 10);
}
