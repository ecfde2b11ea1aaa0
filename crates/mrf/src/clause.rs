//! Weighted ground clauses, borrowed from the MRF's arenas.

use crate::cost::Cost;
use crate::lit::Lit;
use tuffy_mln::weight::Weight;

/// A borrowed clause: a slice of the MRF's literal arena plus the
/// clause's weight. This is what [`crate::Mrf::clause`] and clause
/// iteration hand out, and the one home of clause evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClauseRef<'a> {
    /// The disjuncts (sorted, no duplicate or complementary literals).
    pub lits: &'a [Lit],
    /// Clause weight.
    pub weight: Weight,
}

impl ClauseRef<'_> {
    /// Whether the disjunction is true under `assignment`.
    #[inline]
    pub fn satisfied(&self, assignment: &[bool]) -> bool {
        self.lits
            .iter()
            .any(|l| l.eval(assignment[l.atom() as usize]))
    }

    /// Number of true literals under `assignment`.
    #[inline]
    pub fn true_count(&self, assignment: &[bool]) -> usize {
        self.lits
            .iter()
            .filter(|l| l.eval(assignment[l.atom() as usize]))
            .count()
    }

    /// Whether the clause is violated under `assignment` (§2.2: positive
    /// weight and false, or negative weight and true).
    #[inline]
    pub fn violated(&self, assignment: &[bool]) -> bool {
        self.weight.violated_when(self.satisfied(assignment))
    }

    /// This clause's contribution to the world cost under `assignment`.
    pub fn cost(&self, assignment: &[bool]) -> Cost {
        if !self.violated(assignment) {
            return Cost::ZERO;
        }
        Cost::of_violation(self.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::MrfBuilder;

    fn clause(lits: &[Lit], weight: Weight) -> ClauseRef<'_> {
        ClauseRef { lits, weight }
    }

    #[test]
    fn tautology_rejected() {
        let mut b = MrfBuilder::new();
        b.add_clause([Lit::pos(0), Lit::neg(0)], Weight::Soft(1.0));
        b.add_clause([Lit::neg(1), Lit::pos(2), Lit::pos(1)], Weight::Soft(-1.0));
        assert_eq!(b.num_clauses(), 0);
        let m = b.finish();
        assert_eq!(m.num_clauses(), 0);
        assert_eq!(m.base_cost, Cost::ZERO);
        // A dropped tautology neither adds atoms nor makes them opaque.
        assert_eq!(m.num_atoms(), 0);
    }

    #[test]
    fn duplicates_removed() {
        let mut b = MrfBuilder::new();
        b.add_clause([Lit::pos(0), Lit::pos(0)], Weight::Soft(1.0));
        b.add_clause([Lit::neg(2), Lit::pos(1), Lit::neg(2)], Weight::Soft(1.0));
        let m = b.finish();
        assert_eq!(m.clause_lits(0), [Lit::pos(0)]);
        assert_eq!(m.clause_lits(1), [Lit::pos(1), Lit::neg(2)]);
    }

    #[test]
    fn satisfaction_and_violation() {
        let lits = [Lit::pos(0), Lit::neg(1)];
        let c = clause(&lits, Weight::Soft(2.0));
        assert!(c.satisfied(&[true, true]));
        assert!(c.satisfied(&[false, false]));
        assert!(!c.satisfied(&[false, true]));
        assert!(c.violated(&[false, true]));
        assert_eq!(c.cost(&[false, true]), Cost::soft(2.0));
        assert_eq!(c.cost(&[true, true]), Cost::ZERO);
    }

    #[test]
    fn negative_weight_violated_when_true() {
        let lits = [Lit::pos(0)];
        let c = clause(&lits, Weight::Soft(-1.5));
        assert!(c.violated(&[true]));
        assert!(!c.violated(&[false]));
        assert_eq!(c.cost(&[true]), Cost::soft(1.5));
    }

    #[test]
    fn hard_clause_costs_hard_unit() {
        let lits = [Lit::pos(0)];
        let cost = clause(&lits, Weight::Hard).cost(&[false]);
        assert_eq!(cost.hard, 1);
    }

    #[test]
    fn true_count() {
        let lits = [Lit::pos(0), Lit::pos(1), Lit::neg(2)];
        let c = clause(&lits, Weight::Soft(1.0));
        assert_eq!(c.true_count(&[true, false, false]), 2);
        assert_eq!(c.true_count(&[false, false, true]), 0);
    }
}
