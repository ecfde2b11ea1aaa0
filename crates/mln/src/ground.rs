//! Ground atoms and truth values.

use crate::schema::PredicateId;
use crate::symbols::Symbol;
use std::fmt;

/// A ground atom: a predicate applied to constants only.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct GroundAtom {
    /// The predicate.
    pub predicate: PredicateId,
    /// Constant arguments (interned).
    pub args: Vec<Symbol>,
}

impl GroundAtom {
    /// Constructs a ground atom.
    pub fn new(predicate: PredicateId, args: Vec<Symbol>) -> Self {
        GroundAtom { predicate, args }
    }
}

/// A ground atom whose arguments are borrowed, typically from an arena
/// such as the [`EvidenceSet`](crate::evidence::EvidenceSet)'s.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AtomRef<'a> {
    /// The predicate.
    pub predicate: PredicateId,
    /// Constant arguments (interned).
    pub args: &'a [Symbol],
}

impl AtomRef<'_> {
    /// An owned copy.
    pub fn to_ground_atom(self) -> GroundAtom {
        GroundAtom::new(self.predicate, self.args.to_vec())
    }
}

impl<'a> From<&'a GroundAtom> for AtomRef<'a> {
    fn from(atom: &'a GroundAtom) -> AtomRef<'a> {
        AtomRef {
            predicate: atom.predicate,
            args: &atom.args,
        }
    }
}

impl<'a> From<&AtomRef<'a>> for AtomRef<'a> {
    fn from(atom: &AtomRef<'a>) -> AtomRef<'a> {
        *atom
    }
}

/// The three-valued `truth` attribute of Tuffy's atom relations
/// `R_P(aid, args, truth)` (§3.1): known-true or known-false from evidence,
/// or unknown (to be decided by inference).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TruthValue {
    /// Asserted true in the evidence.
    True,
    /// Asserted false in the evidence.
    False,
    /// Not specified in the evidence.
    Unknown,
}

impl TruthValue {
    /// Encodes the truth value as a column value for the RDBMS layer.
    #[inline]
    pub fn encode(self) -> u32 {
        match self {
            TruthValue::False => 0,
            TruthValue::True => 1,
            TruthValue::Unknown => 2,
        }
    }

    /// Decodes a column value produced by [`TruthValue::encode`].
    #[inline]
    pub fn decode(v: u32) -> TruthValue {
        match v {
            0 => TruthValue::False,
            1 => TruthValue::True,
            _ => TruthValue::Unknown,
        }
    }
}

impl fmt::Display for TruthValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TruthValue::True => write!(f, "true"),
            TruthValue::False => write!(f, "false"),
            TruthValue::Unknown => write!(f, "unknown"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_value_encoding_roundtrip() {
        for t in [TruthValue::True, TruthValue::False, TruthValue::Unknown] {
            assert_eq!(TruthValue::decode(t.encode()), t);
        }
    }

    #[test]
    fn ground_atom_equality() {
        let a = GroundAtom::new(PredicateId(0), vec![Symbol(1), Symbol(2)]);
        let b = GroundAtom::new(PredicateId(0), vec![Symbol(1), Symbol(2)]);
        let c = GroundAtom::new(PredicateId(0), vec![Symbol(2), Symbol(1)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
