//! The MRF proper: atoms, clauses, adjacency, cost evaluation.
//!
//! # Layout
//!
//! [`Mrf`] is a compressed-sparse-row (CSR) structure: the paper's Table 3
//! attributes Tuffy's ~10⁶ flips/sec to "a compact in-memory clause
//! representation" (§3.2), and this module is that representation. All
//! clause literals live in one flat arena indexed by per-clause
//! `(start, end)` bounds, with the per-clause scalars — weight, the
//! precomputed violation cost, the violation polarity, and the
//! [`ClauseProvenance`] split — in parallel columns. The atom→clause
//! adjacency is a second CSR arena of [`Occurrence`] entries that pack
//! the clause index *and the literal's sign* into one `u32`, so the
//! WalkSAT inner loop ([`Mrf::occurrences`]) learns a flipped atom's
//! polarity in each clause without ever touching the literal arena, and
//! charges the violation cost without re-deriving it from the
//! [`Weight`] enum.

use crate::build::{harden_weight, merge_weights, ClauseColumns, OriginColumns};
use crate::clause::ClauseRef;
use crate::cost::Cost;
use crate::lit::{AtomId, Lit};
use std::sync::Arc;
use tuffy_mln::fxhash::FxHashMap;
use tuffy_mln::weight::Weight;

/// Per-clause record of the weight contributions merged into it, kept so
/// an incremental re-grounder can reconstruct the *constant* cost a
/// clause would contribute if evidence fixed its truth value.
///
/// Duplicate-clause merging collapses contributions into one weight
/// (soft weights sum; hard absorbs): the merged weight alone cannot tell
/// how much of it came from negative-weight rules (paid when the clause
/// is *satisfied*) versus positive ones (paid when it is *violated*).
/// This split keeps both sides exact.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClauseProvenance {
    /// Σ w over positive soft contributions.
    pub pos_soft: f64,
    /// Σ |w| over negative soft contributions.
    pub neg_soft: f64,
    /// Number of hard (+∞) contributions.
    pub hard: u64,
    /// Number of negated-hard (−∞) contributions.
    pub neg_hard: u64,
}

impl ClauseProvenance {
    pub(crate) fn of(weight: Weight) -> ClauseProvenance {
        let mut p = ClauseProvenance::default();
        p.absorb(weight);
        p
    }

    fn absorb(&mut self, weight: Weight) {
        match weight {
            Weight::Soft(w) if w >= 0.0 => self.pos_soft += w,
            Weight::Soft(w) => self.neg_soft += -w,
            Weight::Hard => self.hard += 1,
            Weight::NegHard => self.neg_hard += 1,
        }
    }

    pub(crate) fn combine(&mut self, other: ClauseProvenance) {
        self.pos_soft += other.pos_soft;
        self.neg_soft += other.neg_soft;
        self.hard += other.hard;
        self.neg_hard += other.neg_hard;
    }

    /// The constant cost every world pays if evidence fixes the clause
    /// *true* (its negative contributions are then always violated).
    pub fn satisfied_constant(&self) -> Cost {
        Cost {
            hard: self.neg_hard,
            soft: self.neg_soft,
        }
    }

    /// The constant cost every world pays if evidence fixes the clause
    /// *false* (its positive contributions are then always violated).
    pub fn violated_constant(&self) -> Cost {
        Cost {
            hard: self.hard,
            soft: self.pos_soft,
        }
    }
}

/// One rule's contribution to a ground clause: the rule index and the
/// grounding multiplicity (`share`) it contributed. A clause produced by
/// one binding of rule `r` carries `{rule: r, share: 1.0}`; duplicate
/// bindings merge by summing shares, so a merged clause's weight is
/// exactly `Σ share · w_rule` over its origins (plus hard absorptions).
///
/// This column is what makes weight *learning* O(clauses) instead of
/// O(re-ground): [`Mrf::reweight`] folds a new per-rule weight vector
/// through the origins to rebuild the weight/violation/provenance
/// columns without touching structure, and per-rule sufficient
/// statistics (`n_r = Σ_clauses share · [clause satisfied]`) read
/// straight off it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuleOrigin {
    /// Index of the originating rule in the program's rule list.
    pub rule: u32,
    /// Summed grounding multiplicity the rule contributed.
    pub share: f64,
}

/// One entry of the atom→clause adjacency arena: a clause index plus the
/// sign the atom's literal carries in that clause, packed DIMACS-style
/// into one `u32` (mirroring [`Lit`]'s packing). The flip loop reads
/// both with two bit ops and never touches the clause's literal slice.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Occurrence(u32);

impl Occurrence {
    /// Maximum representable clause index (31 bits).
    pub const MAX_CLAUSE: u32 = (1 << 31) - 1;

    /// Packs a clause index and the literal's polarity.
    #[inline]
    pub fn new(clause: u32, positive: bool) -> Occurrence {
        debug_assert!(clause <= Self::MAX_CLAUSE);
        Occurrence((clause << 1) | u32::from(!positive))
    }

    /// The clause this occurrence points into.
    #[inline]
    pub fn clause(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the atom appears positively in the clause.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }
}

impl std::fmt::Debug for Occurrence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}c{}",
            if self.is_positive() { "" } else { "¬" },
            self.clause()
        )
    }
}

/// One clause's violation cost and polarity in a single 16-byte record
/// (the hot column of the flip loop): the soft cost `|w|` plus a flags
/// word carrying the hard-violation unit and one bit per satisfaction
/// state in which the clause counts as violated. A positive weight sets
/// the "when unsatisfied" bit, a negative weight the "when satisfied"
/// bit, and a sign-less weight neither:
/// [`MrfBuilder::finish`](crate::MrfBuilder::finish) drops zero-weight
/// clauses, but [`Mrf::reweight`] has to keep a clause whose
/// learned weights cancel, and it must be violated in no state — exactly
/// [`Weight::violated_when`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PackedViolation {
    /// `|w|` for soft clauses, `0.0` for hard.
    soft: f64,
    /// Bit 0: one hard violation unit; bit 1: violated when unsatisfied;
    /// bit 2: violated when satisfied.
    flags: u64,
}

impl PackedViolation {
    const HARD: u64 = 1;
    const WHEN_UNSATISFIED: u64 = 2;
    /// The bit after [`Self::WHEN_UNSATISFIED`]: `violated_when` selects
    /// between the two by shifting.
    const WHEN_SATISFIED: u64 = Self::WHEN_UNSATISFIED << 1;

    pub(crate) fn of(weight: Weight) -> PackedViolation {
        let cost = Cost::of_violation(weight);
        let polarity = match weight.signum() {
            1 => Self::WHEN_UNSATISFIED,
            -1 => Self::WHEN_SATISFIED,
            _ => 0,
        };
        PackedViolation {
            soft: cost.soft,
            flags: cost.hard * Self::HARD + polarity,
        }
    }

    #[inline]
    fn cost(self) -> Cost {
        Cost {
            hard: self.flags & Self::HARD,
            soft: self.soft,
        }
    }

    #[inline]
    fn violated_when(self, satisfied: bool) -> bool {
        self.flags & (Self::WHEN_UNSATISFIED << u32::from(satisfied)) != 0
    }
}

/// A ground Markov Random Field over atoms `0..num_atoms`, stored as CSR
/// arenas (see the module docs for the layout rationale).
///
/// Every arena is an `Arc` slice: the columns are immutable once
/// assembled, so [`Mrf::clone`] is a handful of reference-count bumps
/// rather than a deep copy. This is what lets the serving layer hand one
/// grounded generation to many concurrent readers — a
/// `Snapshot`/`GroundingResult` clone shares every column — and makes
/// copy-on-write generation forks cheap when a delta leaves the MRF
/// untouched.
#[derive(Clone, Debug, Default)]
pub struct Mrf {
    pub(crate) num_atoms: usize,
    /// Literal-arena bounds: clause `ci`'s literals are
    /// `lit_arena[lit_start[ci]..lit_start[ci + 1]]`.
    pub(crate) lit_start: Arc<[u32]>,
    /// All clause literals, clause by clause.
    pub(crate) lit_arena: Arc<[Lit]>,
    /// Per-clause weight, aligned with the clause index.
    pub(crate) weights: Arc<[Weight]>,
    /// Per-clause violation cost *and* polarity packed into one 16-byte
    /// record, so a flip-loop visit pays a single random load.
    pub(crate) violation: Arc<[PackedViolation]>,
    /// Per-clause contribution split, aligned with the clause index.
    pub(crate) provenance: Arc<[ClauseProvenance]>,
    /// Occurrence-arena bounds: atom `a`'s occurrences are
    /// `occ_arena[occ_start[a]..occ_start[a + 1]]`.
    pub(crate) occ_start: Arc<[u32]>,
    /// Clause-index + sign entries, atom by atom, ascending clause index
    /// within each atom.
    pub(crate) occ_arena: Arc<[Occurrence]>,
    /// Origin-arena bounds: clause `ci`'s rule origins are
    /// `origin_arena[origin_start[ci]..origin_start[ci + 1]]`.
    pub(crate) origin_start: Arc<[u32]>,
    /// Per-clause rule-origin lists, sorted by rule index within each
    /// clause. Clauses added without rule attribution (hand-built test
    /// MRFs) have empty origin lists and are left untouched by
    /// [`Mrf::reweight`].
    pub(crate) origin_arena: Arc<[RuleOrigin]>,
    /// Atoms whose clause set cannot be patched incrementally because a
    /// clause over them merged to exactly weight 0 and was dropped.
    pub(crate) opaque_atoms: Arc<[bool]>,
    /// Constant cost from clauses already decided by evidence (empty
    /// clauses after literal deletion).
    pub base_cost: Cost,
}

/// Indexed view over an [`Mrf`]'s clause columns; iterating or indexing
/// it yields [`ClauseRef`]s assembled from the arenas.
#[derive(Clone, Copy, Debug)]
pub struct Clauses<'a> {
    mrf: &'a Mrf,
}

impl<'a> Clauses<'a> {
    /// Number of clauses.
    #[inline]
    pub fn len(&self) -> usize {
        self.mrf.num_clauses()
    }

    /// Whether the MRF has no clauses.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The clause at index `ci`.
    #[inline]
    pub fn get(&self, ci: usize) -> ClauseRef<'a> {
        self.mrf.clause(ci)
    }

    /// Iterates the clauses in index order.
    pub fn iter(&self) -> ClauseIter<'a> {
        ClauseIter {
            mrf: self.mrf,
            range: 0..self.len(),
        }
    }
}

impl<'a> IntoIterator for Clauses<'a> {
    type Item = ClauseRef<'a>;
    type IntoIter = ClauseIter<'a>;

    fn into_iter(self) -> ClauseIter<'a> {
        self.iter()
    }
}

/// Iterator over an MRF's clauses (see [`Clauses::iter`]).
pub struct ClauseIter<'a> {
    mrf: &'a Mrf,
    range: std::ops::Range<usize>,
}

impl<'a> Iterator for ClauseIter<'a> {
    type Item = ClauseRef<'a>;

    fn next(&mut self) -> Option<ClauseRef<'a>> {
        self.range.next().map(|ci| self.mrf.clause(ci))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for ClauseIter<'_> {}

impl Mrf {
    /// Number of atoms.
    #[inline]
    pub fn num_atoms(&self) -> usize {
        self.num_atoms
    }

    /// Number of clauses.
    #[inline]
    pub fn num_clauses(&self) -> usize {
        self.weights.len()
    }

    /// A view over the clause columns (`len`, `iter`, `get`).
    #[inline]
    pub fn clauses(&self) -> Clauses<'_> {
        Clauses { mrf: self }
    }

    /// The clause at index `ci` as a literal-slice + weight pair.
    #[inline]
    pub fn clause(&self, ci: usize) -> ClauseRef<'_> {
        ClauseRef {
            lits: self.clause_lits(ci),
            weight: self.weights[ci],
        }
    }

    /// The literals of clause `ci` (a slice of the flat arena).
    #[inline]
    pub fn clause_lits(&self, ci: usize) -> &[Lit] {
        &self.lit_arena[self.lit_start[ci] as usize..self.lit_start[ci + 1] as usize]
    }

    /// The weight of clause `ci`.
    #[inline]
    pub fn clause_weight(&self, ci: usize) -> Weight {
        self.weights[ci]
    }

    /// The precomputed cost of violating clause `ci` (`|w|` as a soft
    /// cost, or one hard unit) — what the flip loop charges without
    /// touching the [`Weight`] enum.
    #[inline]
    pub fn violation_cost(&self, ci: usize) -> Cost {
        self.violation[ci].cost()
    }

    /// Whether clause `ci` counts as violated when its satisfaction
    /// state is `satisfied` — the precomputed-polarity equivalent of
    /// [`Weight::violated_when`]. Reads the same packed 16-byte record
    /// as [`Mrf::violation_cost`], so using both costs one load.
    #[inline]
    pub fn clause_violated_when(&self, ci: usize, satisfied: bool) -> bool {
        self.violation[ci].violated_when(satisfied)
    }

    /// The occurrences of `atom`: one packed clause-index + sign entry
    /// per clause containing the atom, ascending by clause index.
    #[inline]
    pub fn occurrences(&self, atom: AtomId) -> &[Occurrence] {
        &self.occ_arena
            [self.occ_start[atom as usize] as usize..self.occ_start[atom as usize + 1] as usize]
    }

    /// The contribution split of clause `ci` (see [`ClauseProvenance`]).
    #[inline]
    pub fn provenance(&self, ci: usize) -> ClauseProvenance {
        self.provenance[ci]
    }

    /// The rule origins of clause `ci`, sorted by rule index (see
    /// [`RuleOrigin`]). Empty for clauses built without attribution.
    #[inline]
    pub fn clause_origins(&self, ci: usize) -> &[RuleOrigin] {
        &self.origin_arena[self.origin_start[ci] as usize..self.origin_start[ci + 1] as usize]
    }

    /// Rebuilds the weight-dependent columns (weight, packed violation,
    /// provenance) under a new per-rule weight vector, sharing every
    /// structural arena (literals, occurrences, origins, opacity) with
    /// `self` — O(clauses) instead of a re-ground, and in-flight readers
    /// of `self` are undisturbed because nothing is mutated.
    ///
    /// Each clause's new weight is the merge of its origins'
    /// contributions (`Soft(share · w_rule)`; `Hard`/`NegHard` absorb,
    /// mirroring grounding-time duplicate merging). Clauses with empty
    /// origin lists keep their current weight verbatim.
    ///
    /// Non-finite learned weights are re-normalized through the same
    /// hardening path as
    /// [`MrfBuilder::finish`](crate::MrfBuilder::finish): `Soft(+∞)` becomes
    /// `Hard`, `Soft(−∞)` becomes `NegHard`, and `NaN` (including a
    /// `+∞ + −∞` merge) becomes the neutral `Soft(0.0)` — a NaN or ∞
    /// must never reach the violation column, whose costs search adds to
    /// and subtracts from incremental sums (`∞ − ∞` is NaN).
    /// Since the clause set is fixed, a cancelled-to-zero merge cannot
    /// be dropped the way `finish` drops it; the neutral clause stays,
    /// violated in no state ([`Mrf::clause_violated_when`] is false
    /// both ways, like [`Weight::violated_when`]) and so invisible to
    /// search.
    ///
    /// `base_cost` is kept as-is: it holds constants folded from
    /// groundings that evidence decided *at grounding time*, under the
    /// weights in force then. Those constants are paid identically by
    /// every world, so they never affect the MAP argmax, marginals, or
    /// learning gradients — only the absolute cost readout.
    ///
    /// Errors if an origin references a rule index past
    /// `rule_weights.len()`.
    pub fn reweight(&self, rule_weights: &[Weight]) -> Result<Mrf, String> {
        let num_clauses = self.num_clauses();
        let mut weights = Vec::with_capacity(num_clauses);
        let mut violation = Vec::with_capacity(num_clauses);
        let mut provenance = Vec::with_capacity(num_clauses);
        for ci in 0..num_clauses {
            let origins = self.clause_origins(ci);
            if origins.is_empty() {
                weights.push(self.weights[ci]);
                violation.push(self.violation[ci]);
                provenance.push(self.provenance[ci]);
                continue;
            }
            let mut merged: Option<Weight> = None;
            let mut prov = ClauseProvenance::default();
            for o in origins {
                let rule = rule_weights.get(o.rule as usize).ok_or_else(|| {
                    format!(
                        "clause {ci} originates from rule {} but only {} weights were given",
                        o.rule,
                        rule_weights.len()
                    )
                })?;
                let contribution = match harden_weight(*rule) {
                    Weight::Soft(v) => harden_weight(Weight::Soft(v * o.share)),
                    hard => hard,
                };
                prov.absorb(contribution);
                merged = Some(match merged {
                    Some(m) => merge_weights(m, contribution),
                    None => contribution,
                });
            }
            let weight = harden_weight(merged.expect("nonempty origins"));
            violation.push(PackedViolation::of(weight));
            weights.push(weight);
            provenance.push(prov);
        }
        Ok(Mrf {
            num_atoms: self.num_atoms,
            lit_start: Arc::clone(&self.lit_start),
            lit_arena: Arc::clone(&self.lit_arena),
            weights: weights.into(),
            violation: violation.into(),
            provenance: provenance.into(),
            occ_start: Arc::clone(&self.occ_start),
            occ_arena: Arc::clone(&self.occ_arena),
            origin_start: Arc::clone(&self.origin_start),
            origin_arena: Arc::clone(&self.origin_arena),
            opaque_atoms: Arc::clone(&self.opaque_atoms),
            base_cost: self.base_cost,
        })
    }

    /// Whether `atom` touched a clause whose merged weight cancelled to
    /// exactly zero (such clauses are dropped, so evidence clamping the
    /// atom cannot account for their constants — re-ground instead).
    #[inline]
    pub fn patch_opaque(&self, atom: AtomId) -> bool {
        self.opaque_atoms[atom as usize]
    }

    /// Total number of literal occurrences — an O(1) read off the arena
    /// length (the partitioner calls this through
    /// [`Mrf::size_metric`] repeatedly).
    #[inline]
    pub fn total_literals(&self) -> usize {
        self.lit_arena.len()
    }

    /// Full-world cost under `assignment` (including `base_cost`).
    pub fn cost(&self, assignment: &[bool]) -> Cost {
        assert_eq!(assignment.len(), self.num_atoms);
        let mut total = self.base_cost;
        for ci in 0..self.num_clauses() {
            let satisfied = self
                .clause_lits(ci)
                .iter()
                .any(|l| l.eval(assignment[l.atom() as usize]));
            if self.clause_violated_when(ci, satisfied) {
                total = total.add(self.violation[ci].cost());
            }
        }
        total
    }

    /// The "size" of a set of atoms + assigned clauses used by the
    /// partitioner (Appendix B.7: total number of literals and atoms).
    pub fn size_metric(&self) -> usize {
        self.num_atoms + self.total_literals()
    }

    /// Extracts the sub-MRF induced by `atoms` (in the given order): atom
    /// `atoms[i]` becomes atom `i`. Returns the sub-MRF and, for each of
    /// its clauses, the index of the originating clause. Only clauses
    /// *fully contained* in `atoms` are included.
    ///
    /// Projection slices the arenas directly — remapped literals append
    /// to a fresh literal arena and the per-clause columns (weight,
    /// violation cost, provenance) copy over verbatim — rather than
    /// re-running clause construction: source clauses are already merged
    /// and deduplicated, and the atom remap is injective, so no new
    /// merging can occur. Opaque-atom flags are not carried (projected
    /// sub-MRFs are searched, never patched).
    pub fn project(&self, atoms: &[AtomId]) -> (Mrf, Vec<u32>) {
        let mut dense: FxHashMap<AtomId, AtomId> = FxHashMap::default();
        for (i, &a) in atoms.iter().enumerate() {
            dense.insert(a, i as AtomId);
        }
        let mut columns = ClauseColumns::default();
        let mut origins = OriginColumns::with_capacity(0);
        let mut origin: Vec<u32> = Vec::new();
        let mut seen: Vec<bool> = vec![false; self.num_clauses()];
        let mut lit_buf: Vec<Lit> = Vec::new();
        for &a in atoms {
            for &occ in self.occurrences(a) {
                let ci = occ.clause() as usize;
                if seen[ci] {
                    continue;
                }
                seen[ci] = true;
                let lits = self.clause_lits(ci);
                if !lits.iter().all(|l| dense.contains_key(&l.atom())) {
                    continue;
                }
                lit_buf.clear();
                lit_buf.extend(
                    lits.iter()
                        .map(|l| Lit::new(dense[&l.atom()], l.is_positive())),
                );
                // Clause literals are sorted by packed value; the remap
                // permutes atom ids, so re-establish the invariant.
                lit_buf.sort_unstable();
                columns.push(&lit_buf, self.weights[ci], self.provenance[ci]);
                origins.push(self.clause_origins(ci));
                origin.push(ci as u32);
            }
        }
        let sub = columns.assemble(origins, atoms.len(), vec![false; atoms.len()], Cost::ZERO);
        (sub, origin)
    }

    /// Bytes of the clause columns (the paper's "clause table" row of
    /// Table 4): the literal arena plus the per-clause bound, weight,
    /// and packed violation columns. O(1) off the arena lengths.
    pub fn clause_bytes(&self) -> usize {
        self.lit_arena.len() * std::mem::size_of::<Lit>()
            + self.lit_start.len() * std::mem::size_of::<u32>()
            + self.weights.len() * std::mem::size_of::<Weight>()
            + self.violation.len() * std::mem::size_of::<PackedViolation>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::MrfBuilder;

    fn example_mrf() -> Mrf {
        // Example 1 of the paper, one component:
        //   (X, 1), (Y, 1), (X ∨ Y, -1)
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(1.0));
        b.add_clause(vec![Lit::pos(1)], Weight::Soft(1.0));
        b.add_clause(vec![Lit::pos(0), Lit::pos(1)], Weight::Soft(-1.0));
        b.finish()
    }

    #[test]
    fn example1_costs() {
        let m = example_mrf();
        // Optimum X=Y=true: unit clauses satisfied; neg clause true → violated, cost 1.
        assert_eq!(m.cost(&[true, true]), Cost::soft(1.0));
        // X=Y=false: both units violated (cost 2), neg clause false → ok.
        assert_eq!(m.cost(&[false, false]), Cost::soft(2.0));
        // Mixed: one unit violated + neg violated = 2.
        assert_eq!(m.cost(&[true, false]), Cost::soft(2.0));
    }

    #[test]
    fn occurrences_built() {
        let m = example_mrf();
        let of = |a: AtomId| -> Vec<(u32, bool)> {
            m.occurrences(a)
                .iter()
                .map(|o| (o.clause(), o.is_positive()))
                .collect()
        };
        assert_eq!(of(0), vec![(0, true), (2, true)]);
        assert_eq!(of(1), vec![(1, true), (2, true)]);
        assert_eq!(m.total_literals(), 4);
    }

    #[test]
    fn occurrences_carry_literal_signs() {
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::neg(0), Lit::pos(1)], Weight::Soft(1.0));
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(2.0));
        let m = b.finish();
        let signs: Vec<(u32, bool)> = m
            .occurrences(0)
            .iter()
            .map(|o| (o.clause(), o.is_positive()))
            .collect();
        assert_eq!(signs, vec![(0, false), (1, true)]);
    }

    #[test]
    fn violation_columns_match_weights() {
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(2.5));
        b.add_clause(vec![Lit::pos(1)], Weight::Soft(-1.5));
        b.add_clause(vec![Lit::pos(2)], Weight::Hard);
        b.add_clause(vec![Lit::pos(3)], Weight::NegHard);
        b.add_clause_from_rule(vec![Lit::pos(4)], Weight::Soft(1.0), 0);
        b.add_clause_from_rule(vec![Lit::pos(5)], Weight::Soft(1.0), 1);
        b.add_clause_from_rule(vec![Lit::pos(5)], Weight::Soft(1.0), 2);
        let built = b.finish();
        // `reweight` cannot drop a clause: a NaN learned weight and a
        // merge that cancels to exactly 0 both stay, as the sign-less
        // `Soft(0.0)`.
        let reweighted = built
            .reweight(&[
                Weight::Soft(f64::NAN),
                Weight::Soft(1.5),
                Weight::Soft(-1.5),
            ])
            .expect("reweight");
        assert_eq!(reweighted.clause_weight(4), Weight::Soft(0.0));
        assert_eq!(reweighted.clause_weight(5), Weight::Soft(0.0));
        for m in [&built, &reweighted] {
            for ci in 0..m.num_clauses() {
                let w = m.clause_weight(ci);
                for satisfied in [false, true] {
                    assert_eq!(
                        m.clause_violated_when(ci, satisfied),
                        w.violated_when(satisfied),
                        "clause {ci} ({w}) satisfied={satisfied}"
                    );
                }
            }
        }
        assert_eq!(built.violation_cost(0), Cost::soft(2.5));
        assert_eq!(built.violation_cost(1), Cost::soft(1.5));
        assert_eq!(built.violation_cost(2), Cost { hard: 1, soft: 0.0 });
        assert_eq!(built.violation_cost(3), Cost { hard: 1, soft: 0.0 });
        // A sign-less clause costs nothing in any world.
        assert_eq!(reweighted.violation_cost(4), Cost::ZERO);
        assert_eq!(reweighted.cost(&[false; 6]), Cost { hard: 1, soft: 2.5 });
        assert_eq!(reweighted.cost(&[true; 6]), Cost { hard: 1, soft: 1.5 });
    }

    #[test]
    fn duplicate_clauses_merge_weights() {
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0), Lit::neg(1)], Weight::Soft(1.0));
        b.add_clause(vec![Lit::neg(1), Lit::pos(0)], Weight::Soft(2.5));
        let m = b.finish();
        assert_eq!(m.clauses().len(), 1);
        assert_eq!(m.clause(0).weight, Weight::Soft(3.5));
    }

    #[test]
    fn hard_absorbs_soft_duplicate() {
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(1.0));
        b.add_clause(vec![Lit::pos(0)], Weight::Hard);
        let m = b.finish();
        assert_eq!(m.clause(0).weight, Weight::Hard);
    }

    #[test]
    fn empty_clause_contributes_base_cost() {
        let mut b = MrfBuilder::new();
        b.add_clause(vec![], Weight::Soft(3.0));
        b.add_clause(vec![], Weight::Soft(-2.0)); // empty & negative: satisfied-false → no cost
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(1.0));
        let m = b.finish();
        assert_eq!(m.base_cost, Cost::soft(3.0));
        assert_eq!(m.cost(&[true]), Cost::soft(3.0));
    }

    #[test]
    fn project_extracts_closed_subgraph() {
        // Clauses: {0,1}, {1,2}, {3}
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0), Lit::pos(1)], Weight::Soft(1.0));
        b.add_clause(vec![Lit::pos(1), Lit::pos(2)], Weight::Soft(1.0));
        b.add_clause(vec![Lit::pos(3)], Weight::Soft(1.0));
        let m = b.finish();
        let (sub, origin) = m.project(&[0, 1]);
        assert_eq!(sub.num_atoms(), 2);
        assert_eq!(sub.clauses().len(), 1); // {1,2} crosses the boundary
        assert_eq!(origin, vec![0]);
        let (sub2, _) = m.project(&[3]);
        assert_eq!(sub2.clauses().len(), 1);
        assert_eq!(sub2.clause(0).lits[0].atom(), 0);
    }

    #[test]
    fn project_reorder_keeps_literals_sorted() {
        // Projecting with a permuted atom order must re-sort each
        // clause's literals under the new ids.
        let mut b = MrfBuilder::new();
        b.add_clause(
            vec![Lit::pos(0), Lit::neg(1), Lit::pos(2)],
            Weight::Soft(1.0),
        );
        let m = b.finish();
        let (sub, _) = m.project(&[2, 0, 1]);
        let lits = sub.clause_lits(0).to_vec();
        let mut sorted = lits.clone();
        sorted.sort_unstable();
        assert_eq!(lits, sorted);
        // Atom 2 → 0 (positive), 0 → 1 (positive), 1 → 2 (negative).
        assert_eq!(lits, vec![Lit::pos(0), Lit::pos(1), Lit::neg(2)]);
    }

    #[test]
    fn project_carries_provenance_columns() {
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(1.0));
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(-0.25));
        let m = b.finish();
        let (sub, _) = m.project(&[0]);
        assert_eq!(sub.provenance(0), m.provenance(0));
        assert_eq!(sub.violation_cost(0), m.violation_cost(0));
    }

    #[test]
    fn zero_weight_clauses_dropped_at_finish() {
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(1.0));
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(-1.0)); // merges to 0
        let m = b.finish();
        assert!(m.clauses().is_empty());
        // The dropped clause leaves its atom opaque to patching.
        assert!(m.patch_opaque(0));
    }

    #[test]
    fn provenance_splits_merged_contributions() {
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(1.0));
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(-0.25));
        b.add_clause(vec![Lit::pos(0)], Weight::Hard);
        b.add_clause(vec![Lit::pos(1)], Weight::Soft(2.0));
        let m = b.finish();
        assert_eq!(m.clause(0).weight, Weight::Hard);
        let p = m.provenance(0);
        assert_eq!(p.satisfied_constant(), Cost::soft(0.25));
        assert_eq!(p.violated_constant(), Cost { hard: 1, soft: 1.0 });
        assert!(!m.patch_opaque(0));
        let single = m.provenance(1);
        assert_eq!(single.satisfied_constant(), Cost::ZERO);
        assert_eq!(single.violated_constant(), Cost::soft(2.0));
    }

    #[test]
    fn overflowing_soft_merge_normalizes_to_hard() {
        // Two finite weights whose merge sums past f64::MAX: the clause
        // is ∞-weighted, i.e. hard — and the violation column stays
        // finite for the flip loop's incremental cost sums.
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(f64::MAX));
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(f64::MAX));
        let m = b.finish();
        assert_eq!(m.clause_weight(0), Weight::Hard);
        assert_eq!(m.violation_cost(0), Cost { hard: 1, soft: 0.0 });
    }

    #[test]
    fn nan_weight_merge_dropped_as_signless() {
        // Soft(+∞) + Soft(−∞) merges to Soft(NaN): sign-less, so the
        // clause is dropped exactly like an exact-zero cancellation,
        // leaving its atoms opaque to incremental patching.
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(f64::INFINITY));
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(f64::NEG_INFINITY));
        let m = b.finish();
        assert!(m.clauses().is_empty());
        assert!(m.patch_opaque(0));
        assert_eq!(m.cost(&[true]), Cost::ZERO);
    }

    #[test]
    fn export_import_columns_roundtrip() {
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0), Lit::neg(1)], Weight::Soft(1.5));
        b.add_clause(vec![Lit::pos(1)], Weight::Soft(-0.5));
        b.add_clause(vec![Lit::pos(2)], Weight::Hard);
        b.add_clause(vec![], Weight::Soft(2.0));
        b.add_clause_from_rule(vec![Lit::pos(3)], Weight::Soft(1.0), 7);
        b.add_clause(vec![Lit::pos(3)], Weight::Soft(-1.0)); // drops → atom 3 opaque
        b.add_clause_from_rule(vec![Lit::pos(4)], Weight::Soft(0.4), 2);
        b.add_clause_from_rule(vec![Lit::pos(4)], Weight::Soft(0.4), 2);
        b.add_clause_from_rule(vec![Lit::pos(4)], Weight::Soft(0.1), 0);
        let m = b.finish();
        let m2 = Mrf::from_columns(m.export_columns()).expect("round-trip");
        assert_eq!(m2.num_atoms(), m.num_atoms());
        assert_eq!(m2.num_clauses(), m.num_clauses());
        assert_eq!(m2.base_cost, m.base_cost);
        for ci in 0..m.num_clauses() {
            assert_eq!(m2.clause_lits(ci), m.clause_lits(ci));
            assert_eq!(m2.clause_weight(ci), m.clause_weight(ci));
            assert_eq!(m2.violation_cost(ci), m.violation_cost(ci));
            assert_eq!(m2.provenance(ci), m.provenance(ci));
            assert_eq!(m2.clause_origins(ci), m.clause_origins(ci));
            for satisfied in [false, true] {
                assert_eq!(
                    m2.clause_violated_when(ci, satisfied),
                    m.clause_violated_when(ci, satisfied)
                );
            }
        }
        for a in 0..m.num_atoms() as AtomId {
            assert_eq!(m2.occurrences(a), m.occurrences(a));
            assert_eq!(m2.patch_opaque(a), m.patch_opaque(a));
        }
    }

    #[test]
    fn from_columns_rejects_malformed_input() {
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0), Lit::pos(1)], Weight::Soft(1.0));
        let good = b.finish().export_columns();

        let mut bad = good.clone();
        bad.num_atoms = 1; // literal references atom 1
        bad.opaque_atoms = vec![false].into();
        assert!(Mrf::from_columns(bad).is_err());

        let mut bad = good.clone();
        bad.lit_start = vec![0u32, 5].into(); // bound past arena end
        assert!(Mrf::from_columns(bad).is_err());

        // `Soft(0.0)` is legal on load: relearned generations can carry
        // neutral clauses whose learned weights cancelled (`reweight`
        // cannot drop them — the structure is shared).
        let mut neutral = good.clone();
        neutral.weights = vec![Weight::Soft(0.0)].into();
        assert!(Mrf::from_columns(neutral).is_ok());

        let mut bad = good.clone();
        bad.weights = vec![Weight::Soft(f64::NAN)].into(); // non-finite
        assert!(Mrf::from_columns(bad).is_err());

        let mut bad = good.clone();
        bad.origin_start = vec![0u32, 2].into(); // bound past arena end
        assert!(Mrf::from_columns(bad).is_err());

        let mut bad = good.clone();
        bad.origin_start = vec![0u32, 2].into();
        bad.origin_arena = vec![
            RuleOrigin {
                rule: 3,
                share: 1.0,
            },
            RuleOrigin {
                rule: 3,
                share: 1.0,
            },
        ]
        .into(); // duplicate rule ids must have merged
        assert!(Mrf::from_columns(bad).is_err());

        let mut bad = good.clone();
        bad.origin_start = vec![0u32, 1].into();
        bad.origin_arena = vec![RuleOrigin {
            rule: 0,
            share: 0.0,
        }]
        .into(); // shares must be positive
        assert!(Mrf::from_columns(bad).is_err());

        let mut bad = good.clone();
        bad.lit_arena = vec![Lit::pos(1), Lit::pos(0)].into(); // unsorted
        assert!(Mrf::from_columns(bad).is_err());

        let mut bad = good.clone();
        bad.lit_arena = vec![Lit::pos(0), Lit::neg(0)].into(); // tautology
        assert!(Mrf::from_columns(bad).is_err());

        assert!(Mrf::from_columns(good).is_ok());
    }

    #[test]
    fn builder_merges_origin_shares_sorted_by_rule() {
        let mut b = MrfBuilder::new();
        b.add_clause_from_rule(vec![Lit::pos(0), Lit::pos(1)], Weight::Soft(0.5), 4);
        b.add_clause_from_rule(vec![Lit::pos(0), Lit::pos(1)], Weight::Soft(0.5), 4);
        b.add_clause_from_rule(vec![Lit::pos(1), Lit::pos(0)], Weight::Soft(0.25), 1);
        let m = b.finish();
        assert_eq!(m.num_clauses(), 1);
        assert_eq!(m.clause_weight(0), Weight::Soft(1.25));
        assert_eq!(
            m.clause_origins(0),
            &[
                RuleOrigin {
                    rule: 1,
                    share: 1.0
                },
                RuleOrigin {
                    rule: 4,
                    share: 2.0
                },
            ]
        );
    }

    #[test]
    fn reweight_rebuilds_weight_columns_and_shares_structure() {
        let mut b = MrfBuilder::new();
        b.add_clause_from_rule(vec![Lit::pos(0), Lit::neg(1)], Weight::Soft(1.0), 0);
        b.add_clause_from_rule(vec![Lit::pos(1)], Weight::Soft(1.0), 1);
        b.add_clause_from_rule(vec![Lit::pos(1)], Weight::Soft(1.0), 1); // share 2
        b.add_clause_from_rule(vec![Lit::pos(2)], Weight::Hard, 2);
        b.add_clause(vec![Lit::neg(2), Lit::pos(0)], Weight::Soft(0.75)); // no origin
        let m = b.finish();
        let m2 = m
            .reweight(&[Weight::Soft(3.0), Weight::Soft(-0.5), Weight::Hard])
            .expect("reweight");

        // Structural arenas are shared, not copied.
        assert!(Arc::ptr_eq(&m.lit_arena, &m2.lit_arena));
        assert!(Arc::ptr_eq(&m.occ_arena, &m2.occ_arena));
        assert!(Arc::ptr_eq(&m.origin_arena, &m2.origin_arena));
        assert!(Arc::ptr_eq(&m.opaque_atoms, &m2.opaque_atoms));

        // Weight columns follow the per-rule weights × origin shares.
        assert_eq!(m2.clause_weight(0), Weight::Soft(3.0));
        assert_eq!(m2.clause_weight(1), Weight::Soft(-1.0)); // −0.5 × share 2
        assert_eq!(m2.clause_weight(2), Weight::Hard);
        assert_eq!(m2.clause_weight(3), Weight::Soft(0.75)); // untouched
        assert_eq!(m2.violation_cost(1), Cost::soft(1.0));
        assert!(m2.clause_violated_when(1, true)); // negative: violated when satisfied

        // The source MRF is undisturbed.
        assert_eq!(m.clause_weight(0), Weight::Soft(1.0));
        assert_eq!(m.clause_weight(1), Weight::Soft(2.0));

        // Too-short weight vectors error instead of misattributing.
        assert!(m.reweight(&[Weight::Soft(1.0)]).is_err());
    }

    #[test]
    fn reweight_hardens_non_finite_learned_weights() {
        // Satellite regression: NaN/±∞ learned weights must pass through
        // the finish-time hardening path, never reaching the violation
        // column (the flip loop adds and subtracts its costs in
        // incremental sums, and ∞ − ∞ = NaN would poison every later
        // cost and delta).
        let mut b = MrfBuilder::new();
        b.add_clause_from_rule(vec![Lit::pos(0)], Weight::Soft(1.0), 0);
        b.add_clause_from_rule(vec![Lit::pos(1)], Weight::Soft(1.0), 1);
        b.add_clause_from_rule(vec![Lit::pos(2)], Weight::Soft(1.0), 2);
        let m = b.finish();
        let m2 = m
            .reweight(&[
                Weight::Soft(f64::INFINITY),
                Weight::Soft(f64::NEG_INFINITY),
                Weight::Soft(f64::NAN),
            ])
            .expect("reweight");
        assert_eq!(m2.clause_weight(0), Weight::Hard);
        assert_eq!(m2.violation_cost(0), Cost { hard: 1, soft: 0.0 });
        assert_eq!(m2.clause_weight(1), Weight::NegHard);
        assert_eq!(m2.violation_cost(1), Cost { hard: 1, soft: 0.0 });
        // NaN normalizes to the neutral Soft(0.0): zero cost either way.
        assert_eq!(m2.clause_weight(2), Weight::Soft(0.0));
        assert_eq!(m2.violation_cost(2), Cost::ZERO);
        for ci in 0..m2.num_clauses() {
            assert!(m2.violation_cost(ci).soft.is_finite());
        }
        // And the reweighted generation still round-trips the columns.
        assert!(Mrf::from_columns(m2.export_columns()).is_ok());
    }

    #[test]
    fn occurrence_packing_roundtrip() {
        for clause in [0u32, 1, 7, Occurrence::MAX_CLAUSE] {
            for positive in [true, false] {
                let o = Occurrence::new(clause, positive);
                assert_eq!(o.clause(), clause);
                assert_eq!(o.is_positive(), positive);
            }
        }
    }
}
