//! Connected-component detection (§3.3).
//!
//! The cost of a world decomposes over the connected components of the
//! MRF, so each component can be solved independently — the basis for the
//! exponential speedup of Theorem 3.1. Components are found exactly as the
//! paper describes: one scan of the clause table updating a union-find.

use crate::graph::Mrf;
use crate::lit::AtomId;
use crate::unionfind::UnionFind;

/// The components of an MRF.
#[derive(Clone, Debug)]
pub struct ComponentSet {
    /// Dense component label per atom.
    pub label: Vec<u32>,
    /// Atoms of each component (sorted within each component).
    pub atoms: Vec<Vec<AtomId>>,
    /// Clause indices of each component.
    pub clauses: Vec<Vec<u32>>,
}

impl ComponentSet {
    /// Detects components with one scan of the clause table.
    pub fn detect(mrf: &Mrf) -> ComponentSet {
        let n = mrf.num_atoms();
        let mut uf = UnionFind::new(n);
        for c in mrf.clauses() {
            let first = c.lits[0].atom();
            for l in &c.lits[1..] {
                uf.union(first, l.atom());
            }
        }
        let label = uf.dense_labels();
        let count = uf.set_count();
        let mut atoms: Vec<Vec<AtomId>> = vec![Vec::new(); count];
        for (a, &l) in label.iter().enumerate() {
            atoms[l as usize].push(a as AtomId);
        }
        let mut clauses: Vec<Vec<u32>> = vec![Vec::new(); count];
        for (i, c) in mrf.clauses().iter().enumerate() {
            let l = label[c.lits[0].atom() as usize];
            clauses[l as usize].push(i as u32);
        }
        ComponentSet {
            label,
            atoms,
            clauses,
        }
    }

    /// Number of components (singleton atoms with no clauses count as
    /// their own components).
    pub fn count(&self) -> usize {
        self.atoms.len()
    }

    /// Number of components that contain at least one clause — the
    /// quantity reported as "#components" in Tables 1 and 5 (atoms that no
    /// retained clause touches play no role in search).
    pub fn nontrivial_count(&self) -> usize {
        self.clauses.iter().filter(|c| !c.is_empty()).count()
    }

    /// The size metric (atoms + literals) of component `i`, as used by the
    /// loader's bin packing.
    pub fn size_metric(&self, mrf: &Mrf, i: usize) -> usize {
        let lits: usize = self.clauses[i]
            .iter()
            .map(|&ci| mrf.clause_lits(ci as usize).len())
            .sum();
        self.atoms[i].len() + lits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::MrfBuilder;
    use crate::lit::Lit;
    use tuffy_mln::weight::Weight;

    fn mrf_with_components() -> Mrf {
        // Component A: atoms 0-1-2 chained; component B: atoms 3-4;
        // atom 5 isolated (no clauses).
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0), Lit::neg(1)], Weight::Soft(1.0));
        b.add_clause(vec![Lit::pos(1), Lit::pos(2)], Weight::Soft(1.0));
        b.add_clause(vec![Lit::neg(3), Lit::neg(4)], Weight::Soft(2.0));
        b.reserve_atoms(6);
        b.finish()
    }

    #[test]
    fn detects_components() {
        let m = mrf_with_components();
        let cs = ComponentSet::detect(&m);
        assert_eq!(cs.count(), 3);
        assert_eq!(cs.nontrivial_count(), 2);
        assert_eq!(cs.label[0], cs.label[1]);
        assert_eq!(cs.label[1], cs.label[2]);
        assert_eq!(cs.label[3], cs.label[4]);
        assert_ne!(cs.label[0], cs.label[3]);
        assert_ne!(cs.label[5], cs.label[0]);
    }

    #[test]
    fn clause_assignment() {
        let m = mrf_with_components();
        let cs = ComponentSet::detect(&m);
        let comp_a = cs.label[0] as usize;
        let comp_b = cs.label[3] as usize;
        assert_eq!(cs.clauses[comp_a].len(), 2);
        assert_eq!(cs.clauses[comp_b].len(), 1);
    }

    #[test]
    fn size_metric_counts_atoms_and_literals() {
        let m = mrf_with_components();
        let cs = ComponentSet::detect(&m);
        let comp_a = cs.label[0] as usize;
        // 3 atoms + 4 literals.
        assert_eq!(cs.size_metric(&m, comp_a), 7);
    }

    #[test]
    fn project_roundtrip_per_component() {
        let m = mrf_with_components();
        let cs = ComponentSet::detect(&m);
        let mut clause_total = 0;
        for i in 0..cs.count() {
            let (sub, origin) = m.project(&cs.atoms[i]);
            assert_eq!(origin.len(), cs.clauses[i].len());
            clause_total += sub.clauses().len();
        }
        assert_eq!(clause_total, m.clauses().len());
    }
}
