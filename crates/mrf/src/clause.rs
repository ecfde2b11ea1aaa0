//! Weighted ground clauses.

use crate::cost::Cost;
use crate::lit::Lit;
use tuffy_mln::weight::Weight;

/// A ground clause: a disjunction of signed literals with a weight
/// (one row of Tuffy's clause table `C(cid, lits, weight)`, §3.1).
#[derive(Clone, Debug, PartialEq)]
pub struct GroundClause {
    /// The disjuncts. Construction guarantees no duplicate or
    /// complementary literals.
    pub lits: Box<[Lit]>,
    /// Clause weight.
    pub weight: Weight,
}

impl GroundClause {
    /// Builds a clause, deduplicating literals. Returns `None` when the
    /// clause is a tautology (contains `l` and `¬l`) — such clauses can
    /// never be violated (positive weight) or always are (negative weight,
    /// a constant the search cannot change), so they are excluded.
    pub fn new(mut lits: Vec<Lit>, weight: Weight) -> Option<GroundClause> {
        lits.sort_unstable();
        lits.dedup();
        for w in lits.windows(2) {
            if w[0].atom() == w[1].atom() {
                return None; // sorted ⇒ complementary literals are adjacent
            }
        }
        Some(GroundClause {
            lits: lits.into_boxed_slice(),
            weight,
        })
    }
}

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

    /// Evaluates `c` through its borrowed form, as the MRF does.
    fn eval(c: &GroundClause) -> ClauseRef<'_> {
        ClauseRef {
            lits: &c.lits,
            weight: c.weight,
        }
    }

    #[test]
    fn tautology_rejected() {
        assert!(GroundClause::new(vec![Lit::pos(0), Lit::neg(0)], Weight::Soft(1.0)).is_none());
    }

    #[test]
    fn duplicates_removed() {
        let c = GroundClause::new(vec![Lit::pos(0), Lit::pos(0)], Weight::Soft(1.0)).unwrap();
        assert_eq!(c.lits.len(), 1);
    }

    #[test]
    fn satisfaction_and_violation() {
        let c = GroundClause::new(vec![Lit::pos(0), Lit::neg(1)], Weight::Soft(2.0)).unwrap();
        assert!(eval(&c).satisfied(&[true, true]));
        assert!(eval(&c).satisfied(&[false, false]));
        assert!(!eval(&c).satisfied(&[false, true]));
        assert!(eval(&c).violated(&[false, true]));
        assert_eq!(eval(&c).cost(&[false, true]), Cost::soft(2.0));
        assert_eq!(eval(&c).cost(&[true, true]), Cost::ZERO);
    }

    #[test]
    fn negative_weight_violated_when_true() {
        let c = GroundClause::new(vec![Lit::pos(0)], Weight::Soft(-1.5)).unwrap();
        assert!(eval(&c).violated(&[true]));
        assert!(!eval(&c).violated(&[false]));
        assert_eq!(eval(&c).cost(&[true]), Cost::soft(1.5));
    }

    #[test]
    fn hard_clause_costs_hard_unit() {
        let c = GroundClause::new(vec![Lit::pos(0)], Weight::Hard).unwrap();
        let cost = eval(&c).cost(&[false]);
        assert_eq!(cost.hard, 1);
    }

    #[test]
    fn true_count() {
        let c = GroundClause::new(
            vec![Lit::pos(0), Lit::pos(1), Lit::neg(2)],
            Weight::Soft(1.0),
        )
        .unwrap();
        assert_eq!(eval(&c).true_count(&[true, false, false]), 2);
        assert_eq!(eval(&c).true_count(&[false, false, true]), 0);
    }
}
