//! Query API semantics: ephemeral conditioning, filtering, ranking, and
//! copy-on-write generation behavior.
//!
//! The load-bearing property is `given ≡ apply + query + rollback`:
//! `snapshot.query(&q.given(delta))` must be bit-identical to committing
//! the delta through `Session::apply` and querying the resulting
//! generation — and afterwards the original snapshot must be completely
//! unaffected (same generation, same answers), i.e. the "rollback" is
//! free because nothing was ever mutated. Proptested over random delta
//! sequences on the ER/IE/RC generators so both the incremental-patch
//! and full-re-ground fork paths are exercised.

use proptest::prelude::*;
use tuffy::{EvidenceDelta, McSatParams, Query, Tuffy, TuffyConfig, WalkSatParams};
use tuffy_datagen::Dataset;

fn config(max_flips: u64) -> TuffyConfig {
    TuffyConfig {
        search: WalkSatParams {
            max_flips,
            seed: 2026,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Bit-exact rendering of a MAP result.
fn canon_map(r: &tuffy::MapResult) -> String {
    format!(
        "cost={} flips={} atoms={:?}",
        r.cost,
        r.report.flips,
        r.true_atoms()
    )
}

/// Builds a delta from generated picks over the engine's query atoms and
/// evidence tuples (mirrors the generator of `session_equivalence`).
fn build_delta(engine: &tuffy::Engine, picks: &[(u8, usize)]) -> EvidenceDelta {
    let snapshot = engine.snapshot();
    let registry = &snapshot.grounding().registry;
    let evidence: Vec<_> = snapshot
        .evidence()
        .iter()
        .map(|e| e.to_evidence())
        .collect();
    let mut delta = EvidenceDelta::new();
    for &(kind, idx) in picks {
        match kind % 4 {
            0 | 1 if !registry.is_empty() => {
                let atom = registry.ground_atom((idx % registry.len()) as u32);
                if kind % 4 == 0 {
                    delta.assert_true(atom);
                } else {
                    delta.assert_false(atom);
                }
            }
            2 if !evidence.is_empty() => {
                delta.retract(evidence[idx % evidence.len()].atom.clone());
            }
            3 if !evidence.is_empty() => {
                delta.flip(evidence[idx % evidence.len()].atom.clone());
            }
            _ => {}
        }
    }
    delta
}

/// The property: for every generated delta, `given` equals
/// `apply + query`, and the original snapshot rolls back for free.
fn assert_given_equals_apply(
    ds: Dataset,
    picks: &[(u8, usize)],
    max_flips: u64,
) -> Result<(), String> {
    let engine = Tuffy::from_parts(ds.program, ds.evidence)
        .with_config(config(max_flips))
        .build_engine()
        .map_err(|e| e.to_string())?;
    let snapshot = engine.snapshot();
    let baseline = canon_map(
        snapshot
            .query(&Query::map())
            .map_err(|e| e.to_string())?
            .as_map()
            .ok_or("non-map answer")?,
    );
    let delta = build_delta(&engine, picks);
    if delta.is_empty() {
        return Ok(());
    }

    // Path 1: ephemeral conditioning.
    let given = snapshot
        .query(&Query::map().given(delta.clone()))
        .map_err(|e| e.to_string())?;
    let given = canon_map(given.as_map().ok_or("non-map answer")?);

    // Path 2: commit the delta in a session, query its new generation
    // statelessly (no warm start, same as the fork path).
    let mut session = engine.open_session();
    session.apply(&delta).map_err(|e| e.to_string())?;
    let applied = session
        .snapshot()
        .query(&Query::map())
        .map_err(|e| e.to_string())?;
    let applied = canon_map(applied.as_map().ok_or("non-map answer")?);
    if given != applied {
        return Err(format!(
            "given ({given}) != apply+query ({applied}) for delta {delta:?}"
        ));
    }

    // Rollback: the original snapshot was never touched — same
    // generation id, same answer, and the engine's base likewise.
    if snapshot.generation() != 0 {
        return Err("original snapshot changed generation".to_string());
    }
    let after = canon_map(
        snapshot
            .query(&Query::map())
            .map_err(|e| e.to_string())?
            .as_map()
            .ok_or("non-map answer")?,
    );
    if after != baseline {
        return Err(format!(
            "rollback violated: baseline ({baseline}) vs after ({after})"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn rc_given_matches_apply(
        picks in proptest::collection::vec((0u8..4, 0usize..10_000), 1..3),
        seed in 0u64..4,
    ) {
        prop_assert_eq!(
            assert_given_equals_apply(tuffy_datagen::rc(6, 4, seed), &picks, 120_000),
            Ok(())
        );
    }

    #[test]
    fn ie_given_matches_apply(
        picks in proptest::collection::vec((0u8..4, 0usize..10_000), 1..3),
        seed in 0u64..4,
    ) {
        prop_assert_eq!(
            assert_given_equals_apply(tuffy_datagen::ie(12, 16, seed), &picks, 120_000),
            Ok(())
        );
    }

    #[test]
    fn er_given_matches_apply(
        picks in proptest::collection::vec((0u8..4, 0usize..10_000), 1..3),
        seed in 0u64..3,
    ) {
        prop_assert_eq!(
            assert_given_equals_apply(tuffy_datagen::er(4, 16, seed), &picks, 150_000),
            Ok(())
        );
    }
}

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
    refers(P1, P3)
    cat(P2, DB)
"#;

fn figure1_engine() -> tuffy::Engine {
    Tuffy::from_sources(PROGRAM, EVIDENCE)
        .unwrap()
        .with_config(config(20_000))
        .build_engine()
        .unwrap()
}

fn mcsat() -> McSatParams {
    McSatParams {
        samples: 200,
        burn_in: 20,
        sample_sat_steps: 100,
        seed: 5,
        ..Default::default()
    }
}

/// `Query::marginal(preds)` returns exactly the atoms of those
/// predicates, with the same probabilities the unfiltered query reports.
#[test]
fn marginal_predicate_filter_subsets_the_full_answer() {
    let engine = figure1_engine();
    let snapshot = engine.snapshot();
    let full = snapshot
        .query(&Query::marginal_all().with_mcsat(mcsat()))
        .unwrap()
        .into_marginal()
        .unwrap();
    let filtered = snapshot
        .query(&Query::marginal(["cat"]).with_mcsat(mcsat()))
        .unwrap()
        .into_marginal()
        .unwrap();
    assert!(!filtered.marginals.is_empty());
    assert!(filtered.names.iter().all(|n| n.starts_with("cat(")));
    for (name, (_, p)) in filtered.names.iter().zip(filtered.marginals.iter()) {
        let i = full
            .names
            .iter()
            .position(|n| n == name)
            .expect("filtered atom missing from the full answer");
        assert_eq!(p.to_bits(), full.marginals[i].1.to_bits(), "{name}");
    }
    assert!(snapshot.query(&Query::marginal(["no_such_pred"])).is_err());
}

/// `Query::top_k` ranks by probability, descending, ties by atom id, and
/// agrees bit-for-bit with the full marginal pass it is derived from.
#[test]
fn top_k_ranks_the_marginal_answer() {
    let engine = figure1_engine();
    let snapshot = engine.snapshot();
    let full = snapshot
        .query(&Query::marginal(["cat"]).with_mcsat(mcsat()))
        .unwrap()
        .into_marginal()
        .unwrap();
    let top = snapshot
        .query(&Query::top_k("cat", 2).with_mcsat(mcsat()))
        .unwrap()
        .into_top_k()
        .unwrap();
    assert_eq!(top.entries.len(), 2.min(full.marginals.len()));
    let mut probs: Vec<f64> = full.marginals.iter().map(|(_, p)| *p).collect();
    probs.sort_by(|a, b| b.partial_cmp(a).unwrap());
    for (entry, expected) in top.entries.iter().zip(probs.iter()) {
        assert_eq!(entry.probability.to_bits(), expected.to_bits());
    }
    assert!(
        top.entries
            .windows(2)
            .all(|w| w[0].probability >= w[1].probability),
        "top-k not descending"
    );
    assert!(snapshot.query(&Query::top_k("no_such_pred", 1)).is_err());
}

/// `Session::query(&Query::map())` is the warm-started `Session::map` —
/// identical answers, including the zero-flip warm re-query.
#[test]
fn session_query_map_matches_session_map() {
    let engine = figure1_engine();
    let mut a = engine.open_session();
    let mut b = engine.open_session();
    let via_map = (a.map().unwrap(), a.map().unwrap());
    let via_query = (
        b.query(&Query::map()).unwrap().into_map().unwrap(),
        b.query(&Query::map()).unwrap().into_map().unwrap(),
    );
    assert_eq!(canon_map(&via_map.0), canon_map(&via_query.0));
    assert_eq!(canon_map(&via_map.1), canon_map(&via_query.1));
    assert_eq!(
        via_query.1.report.flips, 0,
        "warm re-query should need no flips"
    );
}

/// A delta with no grounding effect shares the generation (and its
/// store) outright; a patching delta advances it.
#[test]
fn generations_advance_only_when_the_store_changes() {
    let engine = figure1_engine();
    let mut session = engine.open_session();
    assert_eq!(session.snapshot().generation(), 0);

    // Asserting evidence that is already present changes nothing.
    let noop = session.parse_delta("cat(P2, DB)\n").unwrap();
    let report = session.apply(&noop).unwrap();
    assert!(report.incremental);
    assert_eq!(
        session.snapshot().generation(),
        0,
        "no-op delta must share the generation"
    );

    // Clamping an active atom patches the store: new generation.
    let patch = session.parse_delta("cat(P1, DB)\n").unwrap();
    let report = session.apply(&patch).unwrap();
    assert!(report.incremental);
    assert!(report.patch.is_some());
    assert!(session.snapshot().generation() > 0);

    // The engine's base snapshot never moved.
    assert_eq!(engine.snapshot().generation(), 0);
    assert_eq!(engine.groundings_performed(), 1);
}

/// A `given` delta whose atoms use constants interned *after* the
/// engine was built (via `Session::parse_delta`) must run against the
/// session's copy-on-write program — the snapshot's own program has
/// never seen them. Regression test: this used to read the stale
/// program and could panic resolving the new symbol.
#[test]
fn given_delta_with_new_constants_uses_the_session_program() {
    let engine = figure1_engine();
    let mut session = engine.open_session();
    // P9 is a brand-new constant: interning it grows the session's
    // program fork; the atom is inactive, so the fork re-grounds (under
    // the session's program, where P9 resolves).
    let delta = session.parse_delta("cat(P9, DB)\n").unwrap();
    // The asserted atom becomes *evidence* in the fork; the query must
    // simply execute against the extended program (it used to read the
    // snapshot's stale program and could panic resolving P9).
    let given = session
        .query(&Query::map().given(delta.clone()))
        .unwrap()
        .into_map()
        .unwrap();

    // Equivalent to committing the delta and querying statelessly.
    session.apply(&delta).unwrap();
    let applied = session
        .snapshot()
        .query(&Query::map())
        .unwrap()
        .into_map()
        .unwrap();
    assert_eq!(canon_map(&given), canon_map(&applied));

    // The session's own snapshot was untouched by the given query (two
    // generations were allocated: one ephemeral, one committed).
    assert_eq!(engine.snapshot().generation(), 0);

    // A *bare* snapshot has no way to know session-interned constants:
    // it must reject the delta with an error, not panic resolving the
    // unknown symbol.
    let err = engine
        .snapshot()
        .query(&Query::map().given(delta))
        .unwrap_err();
    assert!(
        err.to_string().contains("unknown to this snapshot"),
        "{err}"
    );
}

/// A `given` delta over constants the program already knows resolves
/// against the shared program: the session keeps reading the engine's
/// program, not a copy. Only a new constant copies it.
#[test]
fn known_constant_given_shares_the_program() {
    let engine = figure1_engine();
    let mut session = engine.open_session();
    let delta = session.parse_delta("!cat(P3, DB)\n").unwrap();
    session.query(&Query::map().given(delta)).unwrap();
    assert!(
        std::ptr::eq(session.program(), engine.program()),
        "a known-constant delta copied the program"
    );

    session.parse_delta("cat(P9, DB)\n").unwrap();
    assert!(!std::ptr::eq(session.program(), engine.program()));
}
