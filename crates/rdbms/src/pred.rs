//! Row-level predicates for filters and pushdown.

/// A predicate over a single row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pred {
    /// `row[col] == value`.
    ColEqConst {
        /// Column index.
        col: usize,
        /// Constant compared against.
        value: u32,
    },
    /// `row[col] != value`.
    ColNeConst {
        /// Column index.
        col: usize,
        /// Constant compared against.
        value: u32,
    },
    /// `row[a] == row[b]` (e.g. repeated variables within one atom).
    ColEqCol {
        /// First column.
        a: usize,
        /// Second column.
        b: usize,
    },
    /// `row[a] != row[b]`.
    ColNeCol {
        /// First column.
        a: usize,
        /// Second column.
        b: usize,
    },
    /// `lo <= row[col] <= hi` (inclusive). Emitted by the parallel
    /// grounder's value-range chunking, where disjoint ranges partition a
    /// driving table's first bound column across worker tasks.
    ColInRange {
        /// Column index.
        col: usize,
        /// Inclusive lower bound.
        lo: u32,
        /// Inclusive upper bound.
        hi: u32,
    },
}

impl Pred {
    /// Evaluates the predicate against a row.
    #[inline]
    pub fn eval(&self, row: &[u32]) -> bool {
        match *self {
            Pred::ColEqConst { col, value } => row[col] == value,
            Pred::ColNeConst { col, value } => row[col] != value,
            Pred::ColEqCol { a, b } => row[a] == row[b],
            Pred::ColNeCol { a, b } => row[a] != row[b],
            Pred::ColInRange { col, lo, hi } => (lo..=hi).contains(&row[col]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_all_variants() {
        let row = &[5, 5, 7][..];
        assert!(Pred::ColEqConst { col: 0, value: 5 }.eval(row));
        assert!(!Pred::ColEqConst { col: 2, value: 5 }.eval(row));
        assert!(Pred::ColNeConst { col: 2, value: 5 }.eval(row));
        assert!(Pred::ColEqCol { a: 0, b: 1 }.eval(row));
        assert!(Pred::ColNeCol { a: 0, b: 2 }.eval(row));
        assert!(!Pred::ColNeCol { a: 0, b: 1 }.eval(row));
    }
}
