//! Session semantics: `apply(delta)` followed by `map()` must be
//! result-equivalent to rebuilding a fresh session from the merged
//! evidence, whether the delta took the incremental patch path or
//! forced a full re-ground, across all four scenario generators
//! (ER, IE, LP, RC). Equivalence is checked three ways:
//!
//! 1. the two runs reach the same cost;
//! 2. the session's world, transplanted by ground-atom identity onto
//!    the from-scratch grounding, evaluates to exactly that cost;
//! 3. and vice versa.
//!
//! (2) and (3) are the strong checks: they fail if the patched grounded
//! store differs *semantically* from a fresh grounding in any clause or
//! constant. They also make the property well-posed when the MAP
//! optimum is not unique — randomized search may land on different
//! equal-cost worlds from warm vs cold starts, in which case literal
//! true-atom-set equality is unachievable by any solver; the unit tests
//! in `tuffy::pipeline` pin exact atom sets on programs whose optimum
//! is unique.
//!
//! Scales and flip budgets are chosen so WalkSAT converges to the
//! optimum at these seeds; the vendored proptest is deterministic per
//! test, so the comparisons are stable run to run.

use proptest::prelude::*;
use tuffy::{EvidenceDelta, Tuffy, TuffyConfig, WalkSatParams};
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

/// Builds a delta from generated picks: each `(kind, index)` chooses an
/// op over the session's current query atoms or evidence tuples.
fn build_delta(session: &tuffy::Session, picks: &[(u8, usize)]) -> EvidenceDelta {
    let registry = &session.grounding().registry;
    let evidence: Vec<_> = session.evidence().iter().map(|e| e.to_evidence()).collect();
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

/// The core property: a session taken through a *sequence* of deltas
/// must, after every apply, be result-equivalent to a fresh session on
/// the merged evidence — later rounds exercise patches of patches
/// (provenance and opacity carried across rebuilds).
fn assert_equivalent(
    ds: Dataset,
    rounds: &[Vec<(u8, usize)>],
    max_flips: u64,
) -> Result<(), String> {
    let tuffy = Tuffy::from_parts(ds.program, ds.evidence).with_config(config(max_flips));
    let mut session = tuffy.open_session().map_err(|e| e.to_string())?;
    session.map().map_err(|e| e.to_string())?; // establish warm state
    for picks in rounds {
        let delta = build_delta(&session, picks);
        if delta.is_empty() {
            continue;
        }
        session.apply(&delta).map_err(|e| e.to_string())?;
        let updated = session.map().map_err(|e| e.to_string())?;

        let mut fresh = Tuffy::from_parts(session.program().clone(), session.evidence().clone())
            .with_config(config(max_flips))
            .open_session()
            .map_err(|e| e.to_string())?;
        let scratch = fresh.map().map_err(|e| e.to_string())?;

        if updated.cost.hard != scratch.cost.hard
            || (updated.cost.soft - scratch.cost.soft).abs() > 1e-6
        {
            return Err(format!(
                "cost diverged: session {} vs fresh {} (delta {delta:?})",
                updated.cost, scratch.cost
            ));
        }
        // Cross-evaluate each world on the other store's grounding: the
        // transplanted cost must match exactly, or the groundings diverged.
        for (label, world, host, expect) in [
            (
                "session world on fresh store",
                &updated,
                &fresh,
                scratch.cost,
            ),
            (
                "fresh world on session store",
                &scratch,
                &session,
                updated.cost,
            ),
        ] {
            let trues: std::collections::HashSet<_> = world.true_atoms().iter().cloned().collect();
            let g = host.grounding();
            let truth: Vec<bool> = (0..g.mrf.num_atoms())
                .map(|i| trues.contains(&g.registry.ground_atom(i as u32)))
                .collect();
            let cross = g.mrf.cost(&truth);
            if cross.hard != expect.hard || (cross.soft - expect.soft).abs() > 1e-6 {
                return Err(format!(
                    "{label}: transplanted cost {cross} vs expected {expect} (delta {delta:?})"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn rc_session_matches_fresh(
        rounds in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0usize..10_000), 1..3), 1..4),
        seed in 0u64..4,
    ) {
        prop_assert_eq!(
            assert_equivalent(tuffy_datagen::rc(6, 4, seed), &rounds, 120_000),
            Ok(())
        );
    }

    #[test]
    fn ie_session_matches_fresh(
        rounds in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0usize..10_000), 1..3), 1..4),
        seed in 0u64..4,
    ) {
        prop_assert_eq!(
            assert_equivalent(tuffy_datagen::ie(12, 16, seed), &rounds, 120_000),
            Ok(())
        );
    }

    #[test]
    fn lp_session_matches_fresh(
        rounds in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0usize..10_000), 1..3), 1..4),
        seed in 0u64..3,
    ) {
        prop_assert_eq!(
            assert_equivalent(tuffy_datagen::lp(3, 2, seed), &rounds, 150_000),
            Ok(())
        );
    }

    #[test]
    fn er_session_matches_fresh(
        rounds in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0usize..10_000), 1..3), 1..4),
        seed in 0u64..3,
    ) {
        prop_assert_eq!(
            assert_equivalent(tuffy_datagen::er(4, 16, seed), &rounds, 150_000),
            Ok(())
        );
    }
}
