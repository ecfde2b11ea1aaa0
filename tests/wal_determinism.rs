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
//!
//! Recovery grounds once at the last record that forces a re-ground and
//! folds every earlier record into the evidence alone, so the prefix
//! suites restart a lineage with no checkpoint after *every* apply and
//! check the head again — with the last forcing record at every position
//! of the script, fresh constants interned on both sides of it, and the
//! replay's grounding counts worked out from the script.

mod common;

use common::fingerprint;
use std::time::Instant;
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

/// One step of a prefix script, named by what replay must do for it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    /// Assert an active query atom: a patch.
    Label,
    /// Flip an existing evidence tuple: a re-ground on any store.
    Flip,
    /// Retract an existing evidence tuple: a re-ground on any store.
    Retract,
    /// Assert an open atom over a fresh constant: a re-ground because
    /// the atom is inactive, which depends on the store, so not forced.
    Fresh,
}

/// Delta texts for `steps`. Labels (and the atoms fresh asserts are
/// made from) come from the front of the registry; flips and retracts
/// take distinct positive tuples from the back of the evidence, open
/// predicates first as the benchmark's writer picks them. No step
/// touches an atom another step touched.
fn prefix_script(snapshot: &Snapshot, steps: &[Step]) -> Vec<String> {
    let program = snapshot.program();
    let registry = &snapshot.grounding().registry;
    let mut active =
        (0..registry.len() as u32).map(|i| tuffy::render_atom(program, &registry.ground_atom(i)));
    let positive: Vec<_> = snapshot.evidence().iter().filter(|e| e.positive).collect();
    let open: Vec<_> = positive
        .iter()
        .copied()
        .filter(|e| !program.predicate(e.atom.predicate).closed_world)
        .collect();
    let mut tuples = if open.is_empty() { positive } else { open }
        .into_iter()
        .rev()
        .map(|e| tuffy::render_atom(program, &e.atom));
    steps
        .iter()
        .enumerate()
        .map(|(i, step)| match step {
            Step::Label => active.next().expect("enough active atoms"),
            Step::Flip => format!("~{}", tuples.next().expect("enough evidence tuples")),
            Step::Retract => format!("-{}", tuples.next().expect("enough evidence tuples")),
            Step::Fresh => {
                let atom = active.next().expect("enough active atoms");
                let (head, _) = atom.rsplit_once(", ").expect("an atom of arity 2 or more");
                format!("{head}, Fresh{i})")
            }
        })
        .collect()
}

/// `(regrounds, evidence_only)` that recovering `steps` must report: one
/// grounding at the last flip or retract and one per fresh assert after
/// it; every record before that flip or retract is evidence only.
fn expected_replay(steps: &[Step]) -> (u64, u64) {
    let forced = steps
        .iter()
        .rposition(|s| matches!(s, Step::Flip | Step::Retract))
        .map_or(0, |i| i + 1);
    let after = steps[forced..]
        .iter()
        .filter(|&&s| s == Step::Fresh)
        .count();
    (
        u64::from(forced > 0) + after as u64,
        forced.saturating_sub(1) as u64,
    )
}

/// Commits `steps` through a durable lineage with no checkpoint and a
/// live session, restarting the lineage from disk after every apply:
/// each recovered head must match the session by deep fingerprint and
/// MAP bits, and report the script's grounding counts.
fn check_every_prefix(tag: &str, ds: Dataset, steps: &[Step]) {
    let engine = Tuffy::from_parts(ds.program, ds.evidence)
        .with_config(small_config())
        .build_engine()
        .expect("grounding");
    let deltas = prefix_script(&engine.snapshot(), steps);
    let dir = scratch_dir(&format!("prefix-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut durable = DurableEngine::create(engine.clone(), &dir, 0).expect("create");
    let mut session = engine.open_session();
    for (k, (step, delta)) in steps.iter().zip(&deltas).enumerate() {
        durable.apply(delta).expect("durable apply");
        let parsed = session.parse_delta(delta).expect("parse");
        let live = session.apply(&parsed).expect("session apply");
        // The expected counts below trust the script's classes; the live
        // apply confirms them.
        assert_eq!(
            live.incremental,
            *step == Step::Label,
            "{tag} step {k} {step:?} `{delta}`: {:?}",
            live.reason
        );
        drop(durable);

        let prefix = k + 1;
        let (recovered, report) = DurableEngine::open(&dir, 0).expect("recover");
        assert_eq!(report.replayed, prefix as u64, "{tag} prefix {prefix}");
        assert_eq!(
            (report.regrounds, report.evidence_only),
            expected_replay(&steps[..prefix]),
            "{tag} prefix {prefix}: (regrounds, evidence_only)"
        );
        assert_heads_agree(
            &format!("{tag} recovered at prefix {prefix}"),
            &recovered,
            &session,
        );
        durable = recovered;
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rc_recovers_every_prefix_of_the_benchmark_writer() {
    use Step::*;
    // Three labels to one flip, as the serving benchmark's writer plays
    // it, ending on a tail of labels after the last flip.
    let steps = [
        Label, Label, Label, Flip, Label, Label, Label, Flip, Label, Label, Label, Flip, Label,
        Label,
    ];
    assert_eq!(expected_replay(&steps[..3]), (0, 0), "a label-only prefix");
    check_every_prefix("rc", tuffy_datagen::rc(4, 8, 7), &steps);
}

/// Flips, retracts and fresh-constant asserts on both sides of the last
/// forcing record.
const MIXED: [Step; 9] = [
    Step::Label,
    Step::Fresh,
    Step::Flip,
    Step::Label,
    Step::Retract,
    Step::Fresh,
    Step::Label,
    Step::Label,
    Step::Fresh,
];

#[test]
fn er_recovers_every_prefix() {
    check_every_prefix("er", tuffy_datagen::er(8, 24, 7), &MIXED);
}

#[test]
fn ie_recovers_every_prefix() {
    check_every_prefix("ie", tuffy_datagen::ie(12, 10, 7), &MIXED);
}

/// `RecoveryReport::wall` is load plus replay: with an empty WAL there
/// is nothing to replay, so nearly all of `open` is the load it covers.
#[test]
fn recovery_wall_time_includes_the_base_load() {
    let ds = tuffy_datagen::er(8, 24, 7);
    let engine = Tuffy::from_parts(ds.program, ds.evidence)
        .with_config(small_config())
        .build_engine()
        .expect("grounding");
    let dir = scratch_dir("wall");
    let _ = std::fs::remove_dir_all(&dir);
    drop(DurableEngine::create(engine, &dir, 0).expect("create"));
    let started = Instant::now();
    let (_recovered, report) = DurableEngine::open(&dir, 0).expect("recover");
    let open = started.elapsed();
    assert_eq!(report.replayed, 0);
    assert!(
        report.wall * 2 >= open,
        "report says {:?} of an open that took {open:?}",
        report.wall
    );
    let _ = std::fs::remove_dir_all(&dir);
}
