//! Building an [`Mrf`]: the duplicate-merging [`MrfBuilder`] and the
//! growable clause columns it and [`Mrf::project`] finish into.

use crate::cost::Cost;
use crate::graph::{ClauseProvenance, Mrf, Occurrence, PackedViolation, RuleOrigin};
use crate::lit::{AtomId, Lit};
use tuffy_mln::slice_index::{slice_tag, SliceIndex};
use tuffy_mln::weight::Weight;

/// The growable clause columns shared by [`MrfBuilder`] and
/// [`Mrf::project`]: literals append to the arena, scalars to parallel
/// vectors, and [`ClauseColumns::assemble`] derives the packed violation
/// records and the occurrence CSR.
#[derive(Clone, Debug)]
pub(crate) struct ClauseColumns {
    /// All clause literals, clause by clause.
    lit_arena: Vec<Lit>,
    /// Literal-arena bounds, `num_clauses + 1` entries starting at 0.
    lit_start: Vec<u32>,
    weights: Vec<Weight>,
    provenance: Vec<ClauseProvenance>,
}

impl Default for ClauseColumns {
    fn default() -> ClauseColumns {
        ClauseColumns {
            lit_arena: Vec::new(),
            lit_start: vec![0],
            weights: Vec::new(),
            provenance: Vec::new(),
        }
    }
}

impl ClauseColumns {
    fn len(&self) -> usize {
        self.weights.len()
    }

    fn lits(&self, ci: usize) -> &[Lit] {
        &self.lit_arena[self.lit_start[ci] as usize..self.lit_start[ci + 1] as usize]
    }

    /// Appends a clause whose literals are already canonical (sorted, no
    /// repeated atom).
    pub(crate) fn push(&mut self, lits: &[Lit], weight: Weight, provenance: ClauseProvenance) {
        self.lit_arena.extend_from_slice(lits);
        self.close_tail(weight, provenance);
    }

    /// Makes the literals appended since the last clause a clause.
    fn close_tail(&mut self, weight: Weight, provenance: ClauseProvenance) {
        self.lit_start.push(self.lit_arena.len() as u32);
        self.weights.push(weight);
        self.provenance.push(provenance);
    }

    /// Where the literals appended since the last clause begin.
    fn tail_start(&self) -> usize {
        *self.lit_start.last().expect("leading 0") as usize
    }

    /// Literals appended since the last clause.
    fn tail(&self) -> &[Lit] {
        &self.lit_arena[self.tail_start()..]
    }

    /// Appends `lits` as the arena tail in canonical order (sorted,
    /// duplicates removed). Returns `false`, leaving no tail, if the
    /// clause is a tautology: it contains `l` and `¬l`, so it can never be
    /// violated (positive weight) or always is (negative weight, a
    /// constant the search cannot change), and is excluded.
    fn append_tail(&mut self, lits: &[Lit]) -> bool {
        let start = self.lit_arena.len();
        self.lit_arena.extend_from_slice(lits);
        let tail = &mut self.lit_arena[start..];
        tail.sort_unstable();
        let mut len = 1;
        for i in 1..tail.len() {
            if tail[i] == tail[len - 1] {
                continue;
            }
            // Sorted, so complementary literals are adjacent.
            if tail[i].atom() == tail[len - 1].atom() {
                self.lit_arena.truncate(start);
                return false;
            }
            tail[len] = tail[i];
            len += 1;
        }
        self.lit_arena.truncate(start + len);
        true
    }

    /// Finalizes the columns into an [`Mrf`].
    pub(crate) fn assemble(
        self,
        origins: OriginColumns,
        num_atoms: usize,
        opaque_atoms: Vec<bool>,
        base_cost: Cost,
    ) -> Mrf {
        // The arenas index clauses through 31-bit packed occurrences and
        // literals through u32 bounds; fail loudly (release included)
        // rather than silently alias indices past either limit.
        assert!(
            self.len() as u64 <= Occurrence::MAX_CLAUSE as u64,
            "MRF exceeds the 2^31-1 packed-occurrence clause capacity"
        );
        assert!(
            self.lit_arena.len() as u64 <= u32::MAX as u64,
            "MRF literal arena exceeds u32 bounds"
        );
        let violation: Vec<PackedViolation> = self
            .weights
            .iter()
            .map(|&w| PackedViolation::of(w))
            .collect();
        let (occ_start, occ_arena) = occurrence_csr(num_atoms, &self.lit_start, &self.lit_arena);
        Mrf {
            num_atoms,
            lit_start: self.lit_start.into(),
            lit_arena: self.lit_arena.into(),
            weights: self.weights.into(),
            violation: violation.into(),
            provenance: self.provenance.into(),
            occ_start: occ_start.into(),
            occ_arena: occ_arena.into(),
            origin_start: origins.start.into(),
            origin_arena: origins.arena.into(),
            opaque_atoms: opaque_atoms.into(),
            base_cost,
        }
    }
}

/// Per-clause rule-origin lists as one CSR pair, clause by clause.
pub(crate) struct OriginColumns {
    /// `num_clauses + 1` bounds starting at 0.
    start: Vec<u32>,
    arena: Vec<RuleOrigin>,
}

impl OriginColumns {
    pub(crate) fn with_capacity(clauses: usize) -> OriginColumns {
        let mut start = Vec::with_capacity(clauses + 1);
        start.push(0);
        OriginColumns {
            start,
            arena: Vec::with_capacity(clauses),
        }
    }

    /// Appends the next clause's origins.
    pub(crate) fn push(&mut self, origins: &[RuleOrigin]) {
        self.arena.extend_from_slice(origins);
        self.start.push(self.arena.len() as u32);
    }
}

/// The atom→clause occurrence CSR of a literal arena, by counting sort:
/// entries stay ascending by clause index within each atom.
pub(crate) fn occurrence_csr(
    num_atoms: usize,
    lit_start: &[u32],
    lit_arena: &[Lit],
) -> (Vec<u32>, Vec<Occurrence>) {
    let mut occ_start = vec![0u32; num_atoms + 1];
    for l in lit_arena {
        occ_start[l.atom() as usize + 1] += 1;
    }
    for a in 0..num_atoms {
        occ_start[a + 1] += occ_start[a];
    }
    let mut cursor = occ_start.clone();
    let mut occ_arena = vec![Occurrence::default(); lit_arena.len()];
    for (ci, bounds) in lit_start.windows(2).enumerate() {
        for l in &lit_arena[bounds[0] as usize..bounds[1] as usize] {
            let a = l.atom() as usize;
            occ_arena[cursor[a] as usize] = Occurrence::new(ci as u32, l.is_positive());
            cursor[a] += 1;
        }
    }
    (occ_start, occ_arena)
}

/// One clause's rule attribution while the builder runs. Almost every
/// clause has at most one origin, kept inline; the rare multi-rule list
/// lives in [`MrfBuilder::origin_lists`].
#[derive(Clone, Copy, Debug)]
enum Origins {
    None,
    One(RuleOrigin),
    /// Index into [`MrfBuilder::origin_lists`].
    Many(u32),
}

/// Incremental MRF constructor with duplicate-clause merging.
///
/// Different rules can ground to the same clause; following Alchemy and
/// Tuffy, duplicate soft clauses *merge by summing weights* and a clause
/// identical to a hard clause is absorbed by it.
///
/// The builder owns the CSR arenas it finishes into. A clause's literals
/// are appended to the literal arena's tail and put in canonical order
/// there (sorted, deduplicated, tautologies dropped); the tail slice is
/// then looked up in a [`SliceIndex`] of earlier clauses, which compares
/// arena slices. A duplicate truncates the tail and merges into the
/// clause it repeats; a new clause keeps the tail.
/// Clauses are therefore numbered in order of first insertion, and
/// [`MrfBuilder::finish`] moves nothing unless a merged weight cancelled.
#[derive(Clone, Debug, Default)]
pub struct MrfBuilder {
    num_atoms: usize,
    columns: ClauseColumns,
    /// Per-clause rule attribution, parallel to the clause columns; empty
    /// for clauses added without an origin. Duplicate merges union the
    /// lists (sorted by rule index, shares summed).
    origins: Vec<Origins>,
    /// The lists of clauses attributed to more than one rule.
    origin_lists: Vec<Vec<RuleOrigin>>,
    /// The clauses by their literal slices.
    index: SliceIndex,
    /// Atoms pre-flagged opaque via [`MrfBuilder::mark_opaque`].
    opaque: Vec<AtomId>,
    base_cost: Cost,
}

impl MrfBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the MRF has at least `n` atoms.
    pub fn reserve_atoms(&mut self, n: usize) {
        self.num_atoms = self.num_atoms.max(n);
    }

    /// Number of atoms seen so far.
    pub fn num_atoms(&self) -> usize {
        self.num_atoms
    }

    /// Number of clauses added so far (after merging).
    pub fn num_clauses(&self) -> usize {
        self.columns.len()
    }

    /// Adds a constant every world pays: a clause that evidence decided.
    pub fn add_constant(&mut self, cost: Cost) {
        self.base_cost = self.base_cost.add(cost);
    }

    /// Adds a ground clause. Tautologies are dropped; the empty clause
    /// contributes constant cost (positive weight: always violated).
    pub fn add_clause(&mut self, lits: impl AsRef<[Lit]>, weight: Weight) {
        self.add(lits.as_ref(), weight, ClauseProvenance::of(weight), &[]);
    }

    /// [`MrfBuilder::add_clause`] attributed to one program rule with
    /// multiplicity 1 — the grounders' path. Duplicate groundings of the
    /// same rule merge into one clause whose origin share counts the
    /// multiplicity, which is exactly the per-rule sufficient-statistic
    /// coefficient weight learning needs.
    pub fn add_clause_from_rule(&mut self, lits: impl AsRef<[Lit]>, weight: Weight, rule: u32) {
        let origin = RuleOrigin { rule, share: 1.0 };
        self.add(
            lits.as_ref(),
            weight,
            ClauseProvenance::of(weight),
            &[origin],
        );
    }

    /// Adds a ground clause carrying an explicit contribution split —
    /// the incremental re-grounder's path, which rebuilds an MRF from
    /// already-merged clauses and must not collapse their provenance
    /// into the merged weight (that would make a *second* patch lose the
    /// negative/hard constants the first one preserved). `origins`
    /// likewise carries forward already-merged rule attribution.
    pub fn add_clause_with_origins(
        &mut self,
        lits: impl AsRef<[Lit]>,
        weight: Weight,
        provenance: ClauseProvenance,
        origins: &[RuleOrigin],
    ) {
        self.add(lits.as_ref(), weight, provenance, origins);
    }

    fn add(
        &mut self,
        lits: &[Lit],
        weight: Weight,
        provenance: ClauseProvenance,
        origins: &[RuleOrigin],
    ) {
        if lits.is_empty() {
            // An empty disjunction is false: violated iff weight > 0.
            match weight {
                Weight::Soft(w) if w > 0.0 => self.add_constant(Cost::soft(w)),
                Weight::Hard => self.add_constant(Cost { hard: 1, soft: 0.0 }),
                _ => {}
            }
            return;
        }
        if !self.columns.append_tail(lits) {
            return; // tautology
        }
        let tail = self.columns.tail();
        let last = *tail.last().expect("nonempty clause");
        // Sorted by packed value, so the last literal has the largest atom.
        self.num_atoms = self.num_atoms.max(last.atom() as usize + 1);
        let tag = slice_tag(tail.iter().map(|l| l.raw()));
        let columns = &self.columns;
        let next = columns.len() as u32;
        match self
            .index
            .get_or_insert(tag, next, |ci| columns.lits(ci as usize) == tail)
        {
            Some(ci) => {
                let ci = ci as usize;
                let start = self.columns.tail_start();
                self.columns.lit_arena.truncate(start);
                let merged = &mut self.columns.weights[ci];
                *merged = merge_weights(*merged, weight);
                self.columns.provenance[ci].combine(provenance);
                self.merge_origins_into(ci, origins);
            }
            None => {
                self.columns.close_tail(weight, provenance);
                self.origins.push(match origins {
                    [] => Origins::None,
                    [one] => Origins::One(*one),
                    many => {
                        self.origin_lists.push(many.to_vec());
                        Origins::Many(self.origin_lists.len() as u32 - 1)
                    }
                });
            }
        }
    }

    /// Merges `extra` into clause `ci`'s origins (see [`merge_origins`]).
    fn merge_origins_into(&mut self, ci: usize, extra: &[RuleOrigin]) {
        let slot = &mut self.origins[ci];
        match (*slot, extra) {
            (_, []) => {}
            (Origins::One(mut o), [e]) if o.rule == e.rule => {
                o.share += e.share;
                *slot = Origins::One(o);
            }
            (Origins::Many(i), _) => merge_origins(&mut self.origin_lists[i as usize], extra),
            (Origins::None, _) | (Origins::One(_), _) => {
                let mut list = match *slot {
                    Origins::One(o) => vec![o],
                    _ => Vec::new(),
                };
                merge_origins(&mut list, extra);
                *slot = if let [one] = list[..] {
                    Origins::One(one)
                } else {
                    self.origin_lists.push(list);
                    Origins::Many(self.origin_lists.len() as u32 - 1)
                };
            }
        }
    }

    /// Flags `atom` as opaque to incremental patching (see
    /// [`Mrf::patch_opaque`]) — used when rebuilding an MRF whose source
    /// already carried opaque flags.
    pub fn mark_opaque(&mut self, atom: AtomId) {
        self.num_atoms = self.num_atoms.max(atom as usize + 1);
        self.opaque.push(atom);
    }

    /// Finalizes into an [`Mrf`] over the builder's own arenas, deriving
    /// the occurrence arena. Clauses whose merged weight cancelled to
    /// exactly 0 are dropped, compacting the arenas; their atoms are
    /// flagged opaque for the incremental re-grounder
    /// ([`Mrf::patch_opaque`]).
    pub fn finish(self) -> Mrf {
        let MrfBuilder {
            num_atoms,
            mut columns,
            mut origins,
            origin_lists,
            index,
            opaque,
            base_cost,
        } = self;
        drop(index);
        let mut opaque_atoms: Vec<bool> = vec![false; num_atoms];
        for a in opaque {
            opaque_atoms[a as usize] = true;
        }
        // Sign-less weights carry no violation polarity and can never
        // contribute cost (`Weight::violated_when` is false both ways):
        // exact 0.0 from cancelling merges, and NaN from a `+∞ + −∞`
        // soft-literal merge. Drop both rather than carry dead clauses
        // through every search.
        if columns.weights.iter().any(|w| w.signum() == 0) {
            drop_signless(&mut columns, &mut origins, &mut opaque_atoms);
        }
        // A soft weight that reached ±∞ (overflowing literal, or a
        // finite-weight merge that summed past f64::MAX) *is* the hard
        // semantics (Appendix A.1). Normalizing here keeps the violation
        // column finite, which the flip loop's incremental cost sums rely
        // on (a clause that is violated, then satisfied, would leave
        // ∞ − ∞ = NaN in them).
        for w in &mut columns.weights {
            *w = harden_weight(*w);
        }
        let mut flat = OriginColumns::with_capacity(origins.len());
        for o in &origins {
            match o {
                Origins::None => flat.push(&[]),
                Origins::One(one) => flat.push(std::slice::from_ref(one)),
                Origins::Many(i) => flat.push(&origin_lists[*i as usize]),
            }
        }
        drop(origins);
        columns.assemble(flat, num_atoms, opaque_atoms, base_cost)
    }
}

/// Removes, in place, every clause whose weight has no sign, flagging its
/// atoms in `opaque_atoms`. Kept clauses keep their relative order.
fn drop_signless(
    columns: &mut ClauseColumns,
    origins: &mut Vec<Origins>,
    opaque_atoms: &mut [bool],
) {
    let mut kept = 0;
    let mut lit_end = 0;
    for ci in 0..columns.len() {
        let (start, end) = (
            columns.lit_start[ci] as usize,
            columns.lit_start[ci + 1] as usize,
        );
        if columns.weights[ci].signum() == 0 {
            for l in &columns.lit_arena[start..end] {
                opaque_atoms[l.atom() as usize] = true;
            }
            continue;
        }
        columns.lit_arena.copy_within(start..end, lit_end);
        lit_end += end - start;
        columns.lit_start[kept + 1] = lit_end as u32;
        columns.weights[kept] = columns.weights[ci];
        columns.provenance[kept] = columns.provenance[ci];
        origins[kept] = origins[ci];
        kept += 1;
    }
    columns.lit_arena.truncate(lit_end);
    columns.lit_start.truncate(kept + 1);
    columns.weights.truncate(kept);
    columns.provenance.truncate(kept);
    origins.truncate(kept);
}

/// Weight of two identical clauses merged (soft weights add; hard wins).
pub(crate) fn merge_weights(a: Weight, b: Weight) -> Weight {
    match (a, b) {
        (Weight::Soft(x), Weight::Soft(y)) => Weight::Soft(x + y),
        (Weight::Hard, _) | (_, Weight::Hard) => Weight::Hard,
        (Weight::NegHard, _) | (_, Weight::NegHard) => Weight::NegHard,
    }
}

/// Merges `extra` rule origins into the sorted list `into`, summing the
/// shares of origins attributed to the same rule. Both inputs are sorted
/// by rule index; the result stays sorted.
fn merge_origins(into: &mut Vec<RuleOrigin>, extra: &[RuleOrigin]) {
    for o in extra {
        match into.binary_search_by_key(&o.rule, |e| e.rule) {
            Ok(i) => into[i].share += o.share,
            Err(i) => into.insert(i, *o),
        }
    }
}

/// The finish-time weight-hardening map, shared by [`MrfBuilder::finish`]
/// and [`Mrf::reweight`]: soft ±∞ *is* the hard semantics, and NaN (which
/// has no polarity, so it can never contribute cost) normalizes to the
/// neutral `Soft(0.0)`. Guarantees no non-finite magnitude ever reaches
/// the violation column, whose costs the flip loop adds to and subtracts
/// from incremental sums that a NaN would poison.
pub(crate) fn harden_weight(w: Weight) -> Weight {
    match w {
        Weight::Soft(v) if v == f64::INFINITY => Weight::Hard,
        Weight::Soft(v) if v == f64::NEG_INFINITY => Weight::NegHard,
        Weight::Soft(v) if v.is_nan() => Weight::Soft(0.0),
        w => w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_matches_the_empty_clauses_it_replaces() {
        // Evidence-decided constants used to enter as one empty hard
        // clause per hard unit plus one empty soft clause.
        let mut via_clauses = MrfBuilder::new();
        let mut via_constant = MrfBuilder::new();
        for c in [
            Cost { hard: 2, soft: 0.0 },
            Cost::soft(0.1),
            Cost { hard: 1, soft: 0.2 },
        ] {
            for _ in 0..c.hard {
                via_clauses.add_clause([], Weight::Hard);
            }
            if c.soft > 0.0 {
                via_clauses.add_clause([], Weight::Soft(c.soft));
            }
            via_constant.add_constant(c);
        }
        let (a, b) = (
            via_clauses.finish().base_cost,
            via_constant.finish().base_cost,
        );
        assert_eq!(a.hard, b.hard);
        assert_eq!(a.soft.to_bits(), b.soft.to_bits());
    }
}
