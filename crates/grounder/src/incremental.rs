//! Incremental re-grounding: patch a [`GroundingResult`] under an
//! evidence delta instead of re-running the grounding queries.
//!
//! The task-decomposition view of inference (many small queries over one
//! shared grounded store) needs evidence updates to be cheap. The key
//! observation: asserting a truth value for an atom that is already
//! *active* (registered as a query atom) cannot enlarge the grounding —
//! everything reachable from "possibly true" was grounded when the atom
//! activated — so the new evidence only *resolves* literals in existing
//! clauses, exactly like emission resolves literals against evidence:
//!
//! * a clause with a now-**satisfied** literal drops out, contributing
//!   its satisfied-constant (non-zero only for negative contributions);
//! * a now-**falsified** literal is deleted; a clause losing every
//!   literal contributes its violated-constant to the base cost;
//! * the lazy closure is then *re-derived* over the surviving clauses: a
//!   clause whose discovery depended on an atom being possibly true (a
//!   reachable-table join on a negated literal, or the activity anchor
//!   of a negative-weight clause) survives only if that atom is still
//!   activated by some admitted clause — the deletion-cascade analogue
//!   of semi-naive evaluation, computed as a least fixpoint;
//! * atoms left with no clauses leave the registry, mirroring the fresh
//!   grounding (which would never have activated them).
//!
//! Everything else falls back to a full re-ground, with the reason
//! reported: deltas on closed-world predicates (their tuples feed the
//! grounding joins of §3.1, so one tuple can create or destroy
//! arbitrarily many bindings), retractions and flips of existing
//! evidence (the old value pruned clauses at grounding time; they must
//! be re-derived from the queries), asserts on inactive atoms
//! (activation can cascade outward through bindings the store never
//! saw), and a few provenance-sensitive corners documented inline. The
//! first two classes re-ground whatever the store holds, and
//! [`forces_reground`] decides them without one. The patch is *exact*
//! when taken: property tests pin clause-for-clause equality against a
//! fresh grounding of the merged evidence.

use crate::bottomup::GroundingResult;
use crate::registry::AtomRegistry;
use crate::stats::GroundingStats;
use std::time::Instant;
use tuffy_mln::ast::{Literal, Term};
use tuffy_mln::evidence::EvidenceChange;
use tuffy_mln::fxhash::{FxHashMap, FxHashSet};
use tuffy_mln::program::MlnProgram;
use tuffy_mln::weight::Weight;
use tuffy_mrf::{AtomId, Cost, Lit, MrfBuilder};

/// Counters describing one successful patch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Atoms clamped to an evidence truth value (and removed from the
    /// registry).
    pub clamped_atoms: usize,
    /// Clauses dropped because a clamped literal satisfied them.
    pub satisfied_clauses: usize,
    /// Clauses whose every literal a clamp falsified (their violated
    /// constant moved into the base cost).
    pub emptied_clauses: usize,
    /// Clauses that lost at least one literal but survived.
    pub shrunk_clauses: usize,
    /// Clauses removed by the activation cascade (a fresh grounding
    /// would never discover their bindings).
    pub cascaded_clauses: usize,
    /// Atoms dropped from the registry because no clause mentions them
    /// anymore.
    pub orphaned_atoms: usize,
}

/// A successfully patched grounding.
pub struct PatchedGrounding {
    /// The updated grounding (MRF, registry, refreshed stats).
    pub grounding: GroundingResult,
    /// Old atom id → new atom id (`None` for clamped/orphaned atoms) —
    /// lets callers carry search state across the patch.
    pub remap: Vec<Option<AtomId>>,
    /// Patch counters.
    pub stats: PatchStats,
}

/// The outcome of attempting an incremental re-ground.
pub enum DeltaOutcome {
    /// The delta does not affect the grounding at all.
    Unchanged,
    /// The grounding was patched in place of a re-ground.
    Patched(Box<PatchedGrounding>),
    /// The delta is outside the provably-exact patch fragment; the
    /// caller must re-ground from the merged evidence.
    NeedsFullReground {
        /// Human-readable explanation (surfaced by `session.explain()`
        /// and the CLI).
        reason: String,
    },
}

/// Whether any rule quantifies existentially over an open-world
/// predicate. Existential disjuncts expand in emission (not through
/// joins), so the patch's discovery model does not cover them.
fn has_open_existential(program: &MlnProgram) -> bool {
    program.rules.iter().any(|r| {
        if r.formula.exists.is_empty() {
            return false;
        }
        let exists: FxHashSet<_> = r.formula.exists.iter().copied().collect();
        r.formula
            .body
            .iter()
            .chain(r.formula.head.iter())
            .any(|lit| match lit {
                Literal::Pred { atom, .. } => {
                    !program.predicate(atom.predicate).closed_world
                        && atom
                            .args
                            .iter()
                            .any(|t| matches!(t, Term::Var(v) if exists.contains(v)))
                }
                Literal::Eq { .. } => false,
            })
    })
}

/// Whether any negative-weight rule clausifies with a negated literal
/// over an open-world predicate. Such clauses ground through reachable
/// joins rather than activity variants, and the two are indistinguishable
/// in the finished MRF — the patch's anchor condition would misjudge
/// them, so their presence forces a full re-ground.
fn has_negative_rule_with_negated_open(program: &MlnProgram) -> bool {
    program.rules.iter().any(|r| {
        let negative = match r.weight {
            Weight::Soft(w) => w < 0.0,
            Weight::NegHard => true,
            Weight::Hard => false,
        };
        if !negative {
            return false;
        }
        let negated_open = |lit: &Literal, in_body: bool| match lit {
            Literal::Pred { atom, negated } => {
                // Clausal polarity: body literals flip (b => h ≡ ¬b ∨ h).
                let negated_in_clause = if in_body { !*negated } else { *negated };
                negated_in_clause && !program.predicate(atom.predicate).closed_world
            }
            Literal::Eq { .. } => false,
        };
        r.formula.body.iter().any(|l| negated_open(l, true))
            || r.formula.head.iter().any(|l| negated_open(l, false))
    })
}

/// Why `changes` re-ground on *any* grounding, or `None` when the answer
/// depends on the store they would patch. Two classes qualify, decided
/// by the program and the net changes alone:
///
/// * a change on a closed-world predicate: its tuples feed the grounding
///   joins of §3.1, so one tuple can create or destroy arbitrarily many
///   bindings;
/// * a retract or flip of existing evidence (`before.is_some()`): the
///   old value pruned clauses at grounding time, and they must be
///   re-derived from the queries.
///
/// [`apply_delta_grounding`] answers [`DeltaOutcome::NeedsFullReground`]
/// through this function before it looks at the store, so a caller that
/// holds no grounding — WAL replay finding the records a later re-ground
/// throws away — sees exactly the decision an apply would make.
pub fn forces_reground(program: &MlnProgram, changes: &[EvidenceChange]) -> Option<String> {
    changes.iter().find_map(|ch| {
        let name = program.predicate_name(ch.atom.predicate);
        if program.predicate(ch.atom.predicate).closed_world {
            Some(format!(
                "delta touches closed-world predicate `{name}`: its tuples feed the grounding joins"
            ))
        } else if ch.before.is_some() {
            Some(format!(
                "retract/flip of existing `{name}` evidence: the old value pruned clauses that must be re-derived"
            ))
        } else {
            None
        }
    })
}

/// Attempts to patch `previous` under the net evidence `changes` (as
/// returned by [`tuffy_mln::evidence::EvidenceSet::apply`]).
///
/// Non-destructive by contract: `previous` is never mutated, so callers
/// holding it — concurrent readers of an older generation — keep a valid
/// grounded store while the patched copy becomes the next generation.
/// When the delta has no grounding effect ([`DeltaOutcome::Unchanged`])
/// the caller should keep sharing `previous` outright (its
/// [`tuffy_mrf::Mrf`] arenas are `Arc` slices, so "sharing" is
/// reference counting, not copying). A patch compacts atom ids
/// (clamped and orphaned atoms leave
/// the registry), which shifts every surviving literal and occurrence
/// entry — the patched copy therefore carries fresh arenas, and the
/// structural sharing happens at whole-generation granularity rather
/// than per column.
pub fn apply_delta_grounding(
    program: &MlnProgram,
    previous: &GroundingResult,
    changes: &[EvidenceChange],
) -> DeltaOutcome {
    if changes.is_empty() {
        return DeltaOutcome::Unchanged;
    }
    if let Some(reason) = forces_reground(program, changes) {
        return DeltaOutcome::NeedsFullReground { reason };
    }
    let start = Instant::now();
    let full = |reason: &str| DeltaOutcome::NeedsFullReground {
        reason: reason.to_string(),
    };

    // ── Eligibility: which atoms can be clamped exactly? ────────────────
    // Every change left is an assert on an open predicate with no prior
    // evidence.
    let mut clamp: FxHashMap<AtomId, bool> = FxHashMap::default();
    for ch in changes {
        let Some(after) = ch.after else { continue };
        let name = program.predicate_name(ch.atom.predicate);
        let args: Vec<u32> = ch.atom.args.iter().map(|s| s.0).collect();
        let Some(aid) = previous.registry.get(ch.atom.predicate, &args) else {
            return full(&format!(
                "asserted `{name}` atom is not active in the current grounding: activation can cascade"
            ));
        };
        if previous.mrf.patch_opaque(aid) {
            return full(&format!(
                "`{name}` atom touches a clause whose merged weight cancelled to zero"
            ));
        }
        clamp.insert(aid, after);
    }
    if clamp.is_empty() {
        return DeltaOutcome::Unchanged;
    }
    if has_open_existential(program) {
        return full("a rule quantifies existentially over an open predicate");
    }
    if has_negative_rule_with_negated_open(program) {
        return full("a negative-weight rule has a negated open literal");
    }

    // ── Resolve clamped literals clause by clause. ──────────────────────
    let mrf = &previous.mrf;
    let mut stats = PatchStats {
        clamped_atoms: clamp.len(),
        ..Default::default()
    };
    enum Fate {
        /// Untouched by the clamps (may still cascade away).
        Keep,
        Satisfied,
        Emptied,
        Shrunk(Vec<Lit>),
    }
    let mut fate: Vec<Fate> = Vec::with_capacity(mrf.clauses().len());
    for (ci, clause) in mrf.clauses().iter().enumerate() {
        let touched = clause.lits.iter().any(|l| clamp.contains_key(&l.atom()));
        if !touched {
            fate.push(Fate::Keep);
            continue;
        }
        let prov = mrf.provenance(ci);
        let has_negative = prov.neg_soft > 0.0 || prov.neg_hard > 0;
        let mut lits: Vec<Lit> = Vec::with_capacity(clause.lits.len());
        let mut satisfied_by_positive = false;
        let mut satisfied_by_negated = false;
        for l in clause.lits.iter() {
            match clamp.get(&l.atom()) {
                Some(&v) if l.eval(v) => {
                    if l.is_positive() {
                        satisfied_by_positive = true;
                    } else {
                        satisfied_by_negated = true;
                    }
                }
                Some(_) => {} // falsified literal: delete
                None => lits.push(*l),
            }
        }
        fate.push(if satisfied_by_positive || satisfied_by_negated {
            if has_negative && satisfied_by_negated && !satisfied_by_positive {
                // A negated literal satisfied by a *false* assert means a
                // fresh grounding never discovers the binding (the atom
                // leaves the reachable set): fine when the constant is 0,
                // wrong for negative contributions.
                return full("clamp satisfies a negated literal of a negative-weight clause");
            }
            if has_negative && lits.iter().any(|l| !l.is_positive()) {
                // The negative contribution's re-discovery would depend
                // on unclamped atoms staying active — entangled with the
                // cascade below; fall back rather than approximate.
                return full(
                    "clamped negative-weight clause still has unresolved negated literals",
                );
            }
            stats.satisfied_clauses += 1;
            Fate::Satisfied
        } else if lits.is_empty() {
            stats.emptied_clauses += 1;
            Fate::Emptied
        } else {
            stats.shrunk_clauses += 1;
            Fate::Shrunk(lits)
        });
    }

    // ── Re-derive the closure over the surviving clauses. ───────────────
    // A fresh grounding discovers a clause's binding only if every
    // negated literal's atom is possibly true (reachable join) and — for
    // negative-weight all-positive clauses — some positive literal's
    // atom anchors the activity variant. Clamped-true atoms are seeded
    // into the reachable tables by the new evidence; everything else
    // must be re-activated by an admitted clause. Least fixpoint.
    struct Live<'a> {
        ci: usize,
        lits: Option<&'a [Lit]>, // None = original clause literals
    }
    let live: Vec<Live> = fate
        .iter()
        .enumerate()
        .filter_map(|(ci, f)| match f {
            Fate::Keep => Some(Live { ci, lits: None }),
            Fate::Shrunk(lits) => Some(Live {
                ci,
                lits: Some(lits),
            }),
            _ => None,
        })
        .collect();
    fn lits_of<'a>(lc: &Live<'a>, mrf: &'a tuffy_mrf::Mrf) -> &'a [Lit] {
        lc.lits.unwrap_or_else(|| mrf.clause_lits(lc.ci))
    }
    let mut admitted = vec![false; live.len()];
    let mut active = vec![false; mrf.num_atoms()];
    loop {
        let mut changed = false;
        for (i, lc) in live.iter().enumerate() {
            if admitted[i] {
                continue;
            }
            let lits = lits_of(lc, mrf);
            let negs_ok = lits
                .iter()
                .filter(|l| !l.is_positive())
                .all(|l| active[l.atom() as usize]);
            let prov = mrf.provenance(lc.ci);
            let pure_negative = prov.pos_soft == 0.0
                && prov.hard == 0
                && (prov.neg_soft > 0.0 || prov.neg_hard > 0);
            let all_positive = lits.iter().all(|l| l.is_positive());
            let anchor_ok =
                !(pure_negative && all_positive) || lits.iter().any(|l| active[l.atom() as usize]);
            if negs_ok && anchor_ok {
                admitted[i] = true;
                changed = true;
                for l in lits {
                    active[l.atom() as usize] = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ── Rebuild: constants, compacted registry, remapped clauses. ───────
    let mut constants = Cost::ZERO;
    for (ci, f) in fate.iter().enumerate() {
        match f {
            Fate::Satisfied => constants = constants.add(mrf.provenance(ci).satisfied_constant()),
            Fate::Emptied => constants = constants.add(mrf.provenance(ci).violated_constant()),
            Fate::Keep | Fate::Shrunk(_) => {}
        }
    }
    let mut occurs = vec![false; mrf.num_atoms()];
    for (i, lc) in live.iter().enumerate() {
        if !admitted[i] {
            stats.cascaded_clauses += 1;
            continue;
        }
        for l in lits_of(lc, mrf) {
            occurs[l.atom() as usize] = true;
        }
    }

    let mut remap: Vec<Option<AtomId>> = vec![None; mrf.num_atoms()];
    let mut registry = AtomRegistry::new();
    for (id, pred, args) in previous.registry.iter() {
        if clamp.contains_key(&id) || !occurs[id as usize] {
            continue;
        }
        remap[id as usize] = Some(registry.intern(pred, args));
    }
    stats.orphaned_atoms = previous.registry.len() - registry.len() - clamp.len();

    let mut builder = MrfBuilder::new();
    let mut remapped: Vec<Lit> = Vec::new();
    for (i, lc) in live.iter().enumerate() {
        if !admitted[i] {
            continue;
        }
        remapped.clear();
        remapped.extend(lits_of(lc, mrf).iter().map(|l| {
            Lit::new(
                remap[l.atom() as usize].expect("surviving atom"),
                l.is_positive(),
            )
        }));
        // Carry the contribution split and rule attribution verbatim:
        // constants of a *later* patch must still see which part of a
        // merged weight is negative or hard, and a relearn after a patch
        // must still know which rules fed each clause.
        builder.add_clause_with_origins(
            &remapped,
            mrf.clause_weight(lc.ci),
            mrf.provenance(lc.ci),
            mrf.clause_origins(lc.ci),
        );
    }
    for (old_id, new_id) in remap.iter().enumerate() {
        if let Some(new_id) = new_id {
            if mrf.patch_opaque(old_id as AtomId) {
                builder.mark_opaque(*new_id);
            }
        }
    }
    builder.reserve_atoms(registry.len());
    let mut patched = builder.finish();
    patched.base_cost = mrf.base_cost.add(constants);

    let new_stats = GroundingStats {
        wall: start.elapsed(),
        rounds: 0,
        clauses: patched.clauses().len(),
        atoms: registry.len(),
        bindings_considered: 0,
        queries: 0,
        replans: 0,
        query_exec: std::time::Duration::ZERO,
        io: Default::default(),
        peak_bytes: previous.stats.peak_bytes,
        spill: Default::default(),
    };
    DeltaOutcome::Patched(Box::new(PatchedGrounding {
        grounding: GroundingResult {
            mrf: patched,
            registry,
            stats: new_stats,
        },
        remap,
        stats,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottomup::ground_bottom_up;
    use crate::compile::GroundingMode;
    use tuffy_mln::evidence::{EvidenceDelta, EvidenceSet};
    use tuffy_mln::ground::GroundAtom;
    use tuffy_mln::parser::{parse_evidence, parse_program};
    use tuffy_rdbms::OptimizerConfig;

    const FIGURE1: &str = r#"
        *wrote(person, paper)
        *refers(paper, paper)
        cat(paper, category)
        5 cat(p, c1), cat(p, c2) => c1 = c2
        1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
        2 cat(p1, c), refers(p1, p2) => cat(p2, c)
        -0.05 cat(p, DB)
        -0.05 cat(p, AI)
    "#;
    const EVIDENCE: &str = r#"
        wrote(Joe, P1)
        wrote(Joe, P2)
        wrote(Jake, P3)
        refers(P1, P3)
        refers(P3, P4)
        cat(P2, DB)
    "#;

    fn setup() -> (MlnProgram, EvidenceSet, GroundingResult) {
        let mut p = parse_program(FIGURE1).unwrap();
        let ev = parse_evidence(&mut p, EVIDENCE).unwrap();
        let g = ground_bottom_up(
            &p,
            &ev,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        (p, ev, g)
    }

    fn atom(p: &mut MlnProgram, pred: &str, args: &[&str]) -> GroundAtom {
        let pred = p.predicate_by_name(pred).unwrap();
        let args = args.iter().map(|a| p.symbols.intern(a)).collect();
        GroundAtom::new(pred, args)
    }

    /// Canonical clause multiset via the registry (ids are not stable
    /// across patch vs fresh grounding; names are).
    fn canon(r: &GroundingResult) -> Vec<String> {
        let mut v: Vec<String> = r
            .mrf
            .clauses()
            .iter()
            .map(|c| {
                let mut lits: Vec<String> = c
                    .lits
                    .iter()
                    .map(|l| {
                        let (pred, args) = r.registry.atom(l.atom());
                        format!(
                            "{}p{}({args:?})",
                            if l.is_positive() { "" } else { "!" },
                            pred.0
                        )
                    })
                    .collect();
                lits.sort();
                format!("{:?} {}", c.weight, lits.join(" v "))
            })
            .collect();
        v.sort();
        v
    }

    /// Applies `delta` both ways — patch and fresh re-ground — and
    /// asserts clause-for-clause equality.
    fn assert_patch_exact(delta_ops: &[(&str, &[&str], bool)]) {
        let (mut p, mut ev, g) = setup();
        let mut delta = EvidenceDelta::new();
        for (pred, args, value) in delta_ops {
            let a = atom(&mut p, pred, args);
            if *value {
                delta.assert_true(a);
            } else {
                delta.assert_false(a);
            }
        }
        let changes = ev.apply(&p, &delta).unwrap();
        let patched = match apply_delta_grounding(&p, &g, &changes) {
            DeltaOutcome::Patched(p) => p,
            DeltaOutcome::Unchanged => panic!("expected a patch, delta was a grounding no-op"),
            DeltaOutcome::NeedsFullReground { reason } => panic!("expected a patch: {reason}"),
        };
        let fresh = ground_bottom_up(
            &p,
            &ev,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        assert_eq!(
            canon(&patched.grounding),
            canon(&fresh),
            "clause sets differ"
        );
        assert_eq!(
            patched.grounding.mrf.base_cost.hard, fresh.mrf.base_cost.hard,
            "hard base costs differ"
        );
        assert!(
            (patched.grounding.mrf.base_cost.soft - fresh.mrf.base_cost.soft).abs() < 1e-9,
            "soft base costs differ: {} vs {}",
            patched.grounding.mrf.base_cost.soft,
            fresh.mrf.base_cost.soft
        );
        assert_eq!(patched.grounding.registry.len(), fresh.registry.len());
        // The remap points every surviving old atom at the same ground atom.
        for (old_id, new_id) in patched.remap.iter().enumerate() {
            if let Some(new_id) = new_id {
                assert_eq!(
                    g.registry.ground_atom(old_id as AtomId),
                    patched.grounding.registry.ground_atom(*new_id)
                );
            }
        }
    }

    #[test]
    fn assert_true_on_active_atom_is_exact() {
        // cat(P1, DB) activated via Joe's coauthorship with labeled P2.
        assert_patch_exact(&[("cat", &["P1", "DB"], true)]);
    }

    #[test]
    fn assert_false_on_active_atom_is_exact() {
        // Falsifying cat(P1, DB) must cascade: cat(P3, DB) and cat(P4, DB)
        // lose their sole activation path, so their clauses (including the
        // negative priors) disappear, exactly as in a fresh grounding.
        assert_patch_exact(&[("cat", &["P1", "DB"], false)]);
    }

    #[test]
    fn multi_atom_delta_is_exact() {
        assert_patch_exact(&[("cat", &["P1", "DB"], true), ("cat", &["P3", "DB"], false)]);
    }

    #[test]
    fn deep_chain_clamp_is_exact() {
        // cat(P4, DB) sits two closure hops from the evidence label.
        assert_patch_exact(&[("cat", &["P4", "DB"], true)]);
    }

    #[test]
    fn closed_world_delta_falls_back() {
        let (mut p, mut ev, g) = setup();
        let a = atom(&mut p, "wrote", &["Joe", "P3"]);
        let mut delta = EvidenceDelta::new();
        delta.assert_true(a);
        let changes = ev.apply(&p, &delta).unwrap();
        match apply_delta_grounding(&p, &g, &changes) {
            DeltaOutcome::NeedsFullReground { reason } => {
                assert!(reason.contains("closed-world"), "{reason}");
            }
            _ => panic!("closed-world delta must re-ground"),
        }
    }

    #[test]
    fn retract_falls_back() {
        let (mut p, mut ev, g) = setup();
        let a = atom(&mut p, "cat", &["P2", "DB"]);
        let mut delta = EvidenceDelta::new();
        delta.retract(a);
        let changes = ev.apply(&p, &delta).unwrap();
        match apply_delta_grounding(&p, &g, &changes) {
            DeltaOutcome::NeedsFullReground { reason } => {
                assert!(reason.contains("retract"), "{reason}");
            }
            _ => panic!("retraction must re-ground"),
        }
    }

    #[test]
    fn inactive_atom_falls_back() {
        let (mut p, mut ev, g) = setup();
        // cat(P9, DB): P9 appears nowhere, the atom is not active.
        let a = atom(&mut p, "cat", &["P9", "DB"]);
        let mut delta = EvidenceDelta::new();
        delta.assert_true(a);
        let changes = ev.apply(&p, &delta).unwrap();
        match apply_delta_grounding(&p, &g, &changes) {
            DeltaOutcome::NeedsFullReground { reason } => {
                assert!(reason.contains("not active"), "{reason}");
            }
            _ => panic!("inactive atom must re-ground"),
        }
    }

    #[test]
    fn open_existential_falls_back() {
        let mut p = parse_program(
            "*paper(paper)\nwrote(person, paper)\n*person(person)\n\
             paper(x) => EXIST a wrote(a, x).\n1 wrote(y, z)\n",
        )
        .unwrap();
        let mut ev = parse_evidence(&mut p, "paper(P1)\nperson(Ann)\n").unwrap();
        let g = ground_bottom_up(
            &p,
            &ev,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        let a = atom(&mut p, "wrote", &["Ann", "P1"]);
        assert!(g
            .registry
            .get(a.predicate, &[a.args[0].0, a.args[1].0])
            .is_some());
        let mut delta = EvidenceDelta::new();
        delta.assert_true(a);
        let changes = ev.apply(&p, &delta).unwrap();
        match apply_delta_grounding(&p, &g, &changes) {
            DeltaOutcome::NeedsFullReground { reason } => {
                assert!(reason.contains("existential"), "{reason}");
            }
            _ => panic!("open existential must re-ground"),
        }
    }

    #[test]
    fn classifier_never_promises_a_reground_the_patch_would_not_do() {
        let (mut p, ev, base) = setup();
        // An already-patched store next to the base one.
        let mut patched_ev = ev.clone();
        let mut first = EvidenceDelta::new();
        first.assert_false(atom(&mut p, "cat", &["P4", "DB"]));
        let changes = patched_ev.apply(&p, &first).unwrap();
        let patched = match apply_delta_grounding(&p, &base, &changes) {
            DeltaOutcome::Patched(patched) => patched.grounding,
            _ => panic!("the set-up delta should patch"),
        };

        type Op = for<'a> fn(&'a mut EvidenceDelta, GroundAtom) -> &'a mut EvidenceDelta;
        let mut one = |op: Op, pred: &str, args: &[&str]| {
            let mut delta = EvidenceDelta::new();
            op(&mut delta, atom(&mut p, pred, args));
            delta
        };
        let classes = [
            (
                "assert on an active atom",
                one(EvidenceDelta::assert_true, "cat", &["P1", "DB"]),
                false,
            ),
            (
                "assert on an inactive atom",
                one(EvidenceDelta::assert_true, "cat", &["P9", "DB"]),
                false,
            ),
            (
                "retract",
                one(EvidenceDelta::retract, "cat", &["P2", "DB"]),
                true,
            ),
            ("flip", one(EvidenceDelta::flip, "cat", &["P2", "DB"]), true),
            (
                "closed-world tuple",
                one(EvidenceDelta::assert_true, "wrote", &["Joe", "P3"]),
                true,
            ),
            (
                "no-op",
                one(EvidenceDelta::assert_true, "cat", &["P2", "DB"]),
                false,
            ),
        ];
        for (store, evidence, grounding) in
            [("base", &ev, &base), ("patched", &patched_ev, &patched)]
        {
            for (class, delta, forcing) in &classes {
                let changes = evidence.clone().apply(&p, delta).unwrap();
                let forced = forces_reground(&p, &changes);
                assert_eq!(forced.is_some(), *forcing, "{class} on the {store} store");
                let Some(reason) = forced else { continue };
                match apply_delta_grounding(&p, grounding, &changes) {
                    DeltaOutcome::NeedsFullReground { reason: said } => {
                        assert_eq!(said, reason, "{class} on the {store} store");
                    }
                    _ => panic!("{class} on the {store} store: promised a re-ground"),
                }
            }
        }
    }

    #[test]
    fn empty_change_list_is_unchanged() {
        let (p, _ev, g) = setup();
        assert!(matches!(
            apply_delta_grounding(&p, &g, &[]),
            DeltaOutcome::Unchanged
        ));
    }

    #[test]
    fn second_apply_keeps_merged_provenance_exact() {
        // The coauthor rule's evidence-shrunk unit cat(P1,DB) (w=1)
        // merges with the -0.05 prior into one Soft(0.95) clause. A
        // first patch that leaves it untouched must carry its
        // contribution split, so a *second* patch clamping cat(P1,DB)
        // still pays the 0.05 satisfied-constant a fresh grounding pays.
        let (mut p, mut ev, g) = setup();
        let unrelated = atom(&mut p, "cat", &["P4", "DB"]);
        let mut d1 = EvidenceDelta::new();
        d1.assert_false(unrelated);
        let changes = ev.apply(&p, &d1).unwrap();
        let first = match apply_delta_grounding(&p, &g, &changes) {
            DeltaOutcome::Patched(p) => p,
            _ => panic!("first delta should patch"),
        };

        let target = atom(&mut p, "cat", &["P1", "DB"]);
        let mut d2 = EvidenceDelta::new();
        d2.assert_true(target);
        let changes = ev.apply(&p, &d2).unwrap();
        let second = match apply_delta_grounding(&p, &first.grounding, &changes) {
            DeltaOutcome::Patched(p) => p,
            DeltaOutcome::NeedsFullReground { reason } => panic!("second delta: {reason}"),
            DeltaOutcome::Unchanged => panic!("second delta must change the grounding"),
        };
        let fresh = ground_bottom_up(
            &p,
            &ev,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        assert_eq!(canon(&second.grounding), canon(&fresh));
        assert_eq!(
            second.grounding.mrf.base_cost.hard,
            fresh.mrf.base_cost.hard
        );
        assert!(
            (second.grounding.mrf.base_cost.soft - fresh.mrf.base_cost.soft).abs() < 1e-9,
            "second-patch base cost {} vs fresh {}",
            second.grounding.mrf.base_cost.soft,
            fresh.mrf.base_cost.soft
        );
    }

    #[test]
    fn negative_unit_priors_patch_exactly() {
        // The -0.05 priors ground one unit clause per active cat atom;
        // clamping true pays |w| into the base cost, exactly as a fresh
        // grounding's satisfied-binding accounting does.
        let (mut p, mut ev, g) = setup();
        let base_before = g.mrf.base_cost;
        let a = atom(&mut p, "cat", &["P3", "DB"]);
        let mut delta = EvidenceDelta::new();
        delta.assert_true(a);
        let changes = ev.apply(&p, &delta).unwrap();
        let patched = match apply_delta_grounding(&p, &g, &changes) {
            DeltaOutcome::Patched(p) => p,
            _ => panic!("expected patch"),
        };
        assert!(patched.grounding.mrf.base_cost.soft >= base_before.soft + 0.05 - 1e-9);
        let fresh = ground_bottom_up(
            &p,
            &ev,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        assert_eq!(canon(&patched.grounding), canon(&fresh));
    }
}
