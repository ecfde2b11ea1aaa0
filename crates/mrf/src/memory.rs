//! Analytic memory accounting.
//!
//! The paper's space comparisons (Tables 4–5, Figure 6) measure resident
//! memory of the search state. We account the actual bytes of the in-memory
//! structures the search holds — truth arrays, clause storage, adjacency
//! lists — which is the quantity the hybrid-architecture argument (§3.2)
//! reasons about and is machine-independent.

use crate::graph::Mrf;

/// Byte sizes of the in-memory search state for an MRF.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Truth assignment + best-assignment arrays (2 bytes/atom).
    pub atom_state: usize,
    /// Clause columns: the flat literal arena plus the per-clause bound,
    /// weight, violation-cost, and polarity columns of the CSR layout.
    pub clauses: usize,
    /// Atom→clause adjacency: the CSR bounds array plus one packed
    /// [`crate::Occurrence`] per literal.
    pub adjacency: usize,
    /// Per-clause counters kept by WalkSAT (true-literal counts and the
    /// unsatisfied-clause index).
    pub counters: usize,
}

/// Bytes of the per-clause scalar columns (literal-arena bound, weight,
/// and the 16-byte packed violation cost + polarity record) — see
/// `Mrf`'s CSR layout in [`crate::graph`].
const CLAUSE_COLUMN_BYTES: usize = std::mem::size_of::<u32>()
    + std::mem::size_of::<tuffy_mln::weight::Weight>()
    + std::mem::size_of::<crate::cost::Cost>();

impl MemoryFootprint {
    /// Computes the footprint of holding `mrf` in memory for search.
    pub fn of(mrf: &Mrf) -> MemoryFootprint {
        Self::estimate(mrf.num_atoms(), mrf.clauses().len(), mrf.total_literals())
    }

    /// Computes the footprint from raw counts, without materializing the
    /// MRF. For a set of atoms plus the clauses fully inside it this is
    /// exactly what [`MemoryFootprint::of`] would report for the projected
    /// sub-MRF, so schedulers can cost thousands of candidate partitions
    /// without building any of them.
    pub fn estimate(atoms: usize, clauses: usize, literals: usize) -> MemoryFootprint {
        MemoryFootprint {
            atom_state: atoms * 2,
            clauses: clauses * CLAUSE_COLUMN_BYTES
                + literals * std::mem::size_of::<crate::lit::Lit>(),
            adjacency: (atoms + 1) * std::mem::size_of::<u32>()
                + literals * std::mem::size_of::<crate::graph::Occurrence>(),
            counters: clauses * (4 + 4 + 4),
        }
    }

    /// Total bytes.
    pub fn total(&self) -> usize {
        self.atom_state + self.clauses + self.adjacency + self.counters
    }
}

/// Approximate bytes of search state per unit of the partitioner's size
/// metric (atoms + literals); used to translate a byte budget into
/// Algorithm 3's β bound. Calibrated against [`MemoryFootprint`]: atoms
/// cost ~6 B (state + CSR bounds), literals ~8 B (arena entry +
/// occurrence) plus ~25 B/literal of amortized per-clause column and
/// counter overhead at typical 1–3-literal clauses. Deliberately kept at
/// the pre-CSR value so a given byte budget still derives the same β
/// (partitionings — and every trajectory pinned on them — are unchanged
/// by the layout switch; only the packing of partitions into bins sees
/// the leaner estimates).
pub const BYTES_PER_SIZE_UNIT: usize = 24;

/// Translates a byte budget into the partitioner's β size bound.
pub fn beta_for_budget(budget_bytes: usize) -> usize {
    (budget_bytes / BYTES_PER_SIZE_UNIT).max(8)
}

/// Pretty-prints a byte count the way the paper's tables do.
pub fn human_bytes(bytes: usize) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KB * KB * KB {
        format!("{:.1} GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.1} MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1} KB", b / KB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::MrfBuilder;
    use crate::lit::Lit;
    use tuffy_mln::weight::Weight;

    #[test]
    fn footprint_scales_with_size() {
        let mut small = MrfBuilder::new();
        small.add_clause(vec![Lit::pos(0), Lit::pos(1)], Weight::Soft(1.0));
        let small = small.finish();
        let mut big = MrfBuilder::new();
        for i in 0..100 {
            big.add_clause(vec![Lit::pos(i), Lit::pos(i + 1)], Weight::Soft(1.0));
        }
        let big = big.finish();
        assert!(MemoryFootprint::of(&big).total() > MemoryFootprint::of(&small).total());
    }

    #[test]
    fn estimate_matches_of_for_projected_subgraphs() {
        let mut b = MrfBuilder::new();
        for i in 0..20 {
            b.add_clause(vec![Lit::pos(i), Lit::neg(i + 1)], Weight::Soft(1.0));
        }
        let m = b.finish();
        let est = MemoryFootprint::estimate(m.num_atoms(), m.clauses().len(), m.total_literals());
        assert_eq!(est, MemoryFootprint::of(&m));
    }

    #[test]
    fn beta_scales_with_budget() {
        assert!(beta_for_budget(48_000) > beta_for_budget(4_800));
        assert!(beta_for_budget(0) >= 8);
    }

    #[test]
    fn human_readable() {
        assert_eq!(human_bytes(100), "100 B");
        assert_eq!(human_bytes(2048), "2.0 KB");
        assert_eq!(human_bytes(5 * 1024 * 1024), "5.0 MB");
        assert_eq!(human_bytes(3 * 1024 * 1024 * 1024), "3.0 GB");
    }
}
