//! Greedy MRF partitioning — Algorithm 3 (Appendix B.7).
//!
//! Finding a minimum-cost balanced bisection of an MRF is NP-hard even for
//! a fixed MLN program (Theorem 3.2 / B.1), so Tuffy uses a greedy,
//! Kruskal-like heuristic: scan clauses in descending |weight| order and
//! merge their atoms into growing partitions, skipping any merge that
//! would push a partition's size past the bound β. High-weight clauses are
//! thereby kept internal; the cut consists of the skipped (low-weight)
//! clauses that end up spanning partitions.
//!
//! With β = ∞ the result is exactly the connected components.

use crate::graph::Mrf;
use crate::lit::AtomId;
use crate::unionfind::UnionFind;

/// The result of partitioning an MRF.
#[derive(Clone, Debug)]
pub struct Partitioning {
    /// Dense partition label per atom.
    pub label: Vec<u32>,
    /// Atoms of each partition.
    pub atoms: Vec<Vec<AtomId>>,
    /// Clause indices fully inside each partition.
    pub internal_clauses: Vec<Vec<u32>>,
    /// Clause indices spanning more than one partition (the cut).
    pub cut_clauses: Vec<u32>,
    /// The size bound β the partitioning was computed under.
    pub beta: usize,
    /// The size Algorithm 3 tracked per partition (atoms + literals of
    /// *merged* clauses). Always ≤ β. A clause skipped during merging can
    /// still end up fully internal when later clauses merge its atoms, so
    /// [`Partitioning::size_metric`] may exceed this (and β) slightly —
    /// the same slack the paper's greedy heuristic has.
    pub tracked_size: Vec<u64>,
}

impl Partitioning {
    /// Runs Algorithm 3 with size bound `beta` (size = atoms + literals of
    /// merged clauses; see B.7). `beta = usize::MAX` yields connected
    /// components.
    pub fn compute(mrf: &Mrf, beta: usize) -> Partitioning {
        let n = mrf.num_atoms();
        let mut uf = UnionFind::new(n);
        // size[root] = atoms + literals of clauses merged into the set.
        let mut size: Vec<u64> = vec![1; n];

        // Clauses in descending |weight|; hard clauses first (∞), ties by
        // index for determinism. At β = ∞ no merge is ever skipped, so the
        // order cannot change the sets (labels number them by atom, and
        // tracked sizes are integer sums): that scan keeps clause order.
        let mut order: Vec<u32> = (0..mrf.num_clauses() as u32).collect();
        if beta != usize::MAX {
            order.sort_by(|&a, &b| {
                let ka = mrf
                    .clause_weight(a as usize)
                    .magnitude()
                    .unwrap_or(f64::INFINITY);
                let kb = mrf
                    .clause_weight(b as usize)
                    .magnitude()
                    .unwrap_or(f64::INFINITY);
                kb.total_cmp(&ka).then(a.cmp(&b))
            });
        }

        // Distinct roots touched by the clause at hand (one buffer for
        // the whole scan).
        let mut roots: Vec<u32> = Vec::new();
        for &ci in &order {
            let lits = mrf.clause_lits(ci as usize);
            roots.clear();
            for l in lits {
                let r = uf.find(l.atom());
                if !roots.contains(&r) {
                    roots.push(r);
                }
            }
            // The size a merge would produce.
            let merged: u64 =
                roots.iter().map(|&r| size[r as usize]).sum::<u64>() + lits.len() as u64;
            if merged > beta as u64 {
                continue; // skipping keeps every partition within β
            }
            let mut root = roots[0];
            for &r in &roots[1..] {
                root = uf.union(root, r);
            }
            size[root as usize] = merged;
        }

        let label = uf.dense_labels();
        let count = uf.set_count();
        let mut atoms: Vec<Vec<AtomId>> = vec![Vec::new(); count];
        for (a, &l) in label.iter().enumerate() {
            atoms[l as usize].push(a as AtomId);
        }
        let tracked_size: Vec<u64> = atoms
            .iter()
            .map(|members| members.first().map_or(0, |&a| size[uf.find(a) as usize]))
            .collect();
        let mut internal_clauses: Vec<Vec<u32>> = vec![Vec::new(); count];
        let mut cut_clauses = Vec::new();
        for ci in 0..mrf.num_clauses() {
            // Clauses are never empty (an empty clause folds into
            // `base_cost`), so the first literal names the candidate.
            let lits = mrf.clause_lits(ci);
            let p = label[lits[0].atom() as usize];
            if lits[1..].iter().all(|l| label[l.atom() as usize] == p) {
                internal_clauses[p as usize].push(ci as u32);
            } else {
                cut_clauses.push(ci as u32);
            }
        }
        Partitioning {
            label,
            atoms,
            internal_clauses,
            cut_clauses,
            beta,
            tracked_size,
        }
    }

    /// Number of partitions.
    pub fn count(&self) -> usize {
        self.atoms.len()
    }

    /// Size metric (atoms + internal literals) of partition `i`.
    pub fn size_metric(&self, mrf: &Mrf, i: usize) -> usize {
        let lits: usize = self.internal_clauses[i]
            .iter()
            .map(|&ci| mrf.clause_lits(ci as usize).len())
            .sum();
        self.atoms[i].len() + lits
    }

    /// Total |weight| of cut clauses (the partitioning loss the tradeoff
    /// formula of B.8 reasons about). Hard clauses count as ∞-dominant via
    /// the returned hard count.
    pub fn cut_weight(&self, mrf: &Mrf) -> (u64, f64) {
        let mut hard = 0u64;
        let mut soft = 0.0f64;
        for &ci in &self.cut_clauses {
            match mrf.clause_weight(ci as usize).magnitude() {
                Some(m) => soft += m,
                None => hard += 1,
            }
        }
        (hard, soft)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::MrfBuilder;
    use crate::lit::Lit;
    use tuffy_mln::weight::Weight;

    /// A 4-atom chain with descending weights: 0 -5- 1 -3- 2 -1- 3.
    fn chain() -> Mrf {
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0), Lit::pos(1)], Weight::Soft(5.0));
        b.add_clause(vec![Lit::pos(1), Lit::pos(2)], Weight::Soft(3.0));
        b.add_clause(vec![Lit::pos(2), Lit::pos(3)], Weight::Soft(1.0));
        b.finish()
    }

    #[test]
    fn unbounded_beta_gives_components() {
        let m = chain();
        let p = Partitioning::compute(&m, usize::MAX);
        assert_eq!(p.count(), 1);
        assert!(p.cut_clauses.is_empty());
        assert_eq!(p.internal_clauses[0].len(), 3);
    }

    #[test]
    fn bounded_beta_cuts_lowest_weight_clause() {
        let m = chain();
        // Atoms contribute 1 each; each clause 2 literals. Merging clause
        // (0,1): size 4. Adding (1,2): 4+1+2=7. Adding (2,3) would need
        // 7+1+2=10 > 8 → cut. β=8 keeps the two heaviest edges internal.
        let p = Partitioning::compute(&m, 8);
        assert_eq!(p.count(), 2);
        assert_eq!(p.cut_clauses, vec![2]); // the weight-1 clause
        let (hard, soft) = p.cut_weight(&m);
        assert_eq!(hard, 0);
        assert!((soft - 1.0).abs() < 1e-12);
    }

    #[test]
    fn every_partition_respects_beta() {
        let m = chain();
        for beta in [2usize, 4, 6, 8, 12] {
            let p = Partitioning::compute(&m, beta);
            for i in 0..p.count() {
                assert!(
                    p.size_metric(&m, i) <= beta.max(1),
                    "beta={beta} partition {i} size {}",
                    p.size_metric(&m, i)
                );
            }
        }
    }

    #[test]
    fn no_clause_lost() {
        let m = chain();
        for beta in [2usize, 5, 8, usize::MAX] {
            let p = Partitioning::compute(&m, beta);
            let internal: usize = p.internal_clauses.iter().map(Vec::len).sum();
            assert_eq!(internal + p.cut_clauses.len(), m.clauses().len());
        }
    }

    #[test]
    fn high_weight_clauses_kept_internal() {
        // Star: center 0 with edges of weight 10, 10, 0.1, 0.1 to 1..=4.
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0), Lit::pos(1)], Weight::Soft(10.0));
        b.add_clause(vec![Lit::pos(0), Lit::pos(2)], Weight::Soft(10.0));
        b.add_clause(vec![Lit::pos(0), Lit::pos(3)], Weight::Soft(0.1));
        b.add_clause(vec![Lit::pos(0), Lit::pos(4)], Weight::Soft(0.1));
        let m = b.finish();
        // β big enough for the two heavy edges (1+1+2 + 1+2 = 7) but not more.
        let p = Partitioning::compute(&m, 7);
        for &ci in &p.cut_clauses {
            let w = m.clause_weight(ci as usize).magnitude().unwrap();
            assert!(w < 1.0, "heavy clause {ci} was cut");
        }
    }

    #[test]
    fn hard_clauses_merged_first() {
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0), Lit::pos(1)], Weight::Soft(100.0));
        b.add_clause(vec![Lit::pos(2), Lit::pos(3)], Weight::Hard);
        let m = b.finish();
        // β fits exactly one 2-atom clause merge (2 atoms + 2 lits = 4).
        let p = Partitioning::compute(&m, 4);
        // Both merges fit independently (each forms its own partition).
        assert_eq!(p.count(), 2);
        assert!(p.cut_clauses.is_empty());
    }
    /// Algorithm 3 as first written: a fresh root list per clause in the
    /// merge scan and a label *set* per clause in the classification.
    /// `compute` must produce this, element for element.
    fn reference(mrf: &Mrf, beta: usize) -> Partitioning {
        use std::collections::BTreeSet;
        let n = mrf.num_atoms();
        let mut uf = UnionFind::new(n);
        let mut size: Vec<u64> = vec![1; n];
        let magnitude = |ci: u32| {
            mrf.clause_weight(ci as usize)
                .magnitude()
                .unwrap_or(f64::INFINITY)
        };
        let mut order: Vec<u32> = (0..mrf.num_clauses() as u32).collect();
        order.sort_by(|&a, &b| magnitude(b).total_cmp(&magnitude(a)).then(a.cmp(&b)));
        for &ci in &order {
            let clause = mrf.clause(ci as usize);
            let mut roots: Vec<u32> = Vec::new();
            for l in clause.lits.iter() {
                let r = uf.find(l.atom());
                if !roots.contains(&r) {
                    roots.push(r);
                }
            }
            let merged: u64 =
                roots.iter().map(|&r| size[r as usize]).sum::<u64>() + clause.lits.len() as u64;
            if merged > beta as u64 {
                continue;
            }
            let mut root = roots[0];
            for &r in &roots[1..] {
                root = uf.union(root, r);
            }
            size[root as usize] = merged;
        }
        let label = uf.dense_labels();
        let mut atoms: Vec<Vec<AtomId>> = vec![Vec::new(); uf.set_count()];
        for (a, &l) in label.iter().enumerate() {
            atoms[l as usize].push(a as AtomId);
        }
        let tracked_size = atoms
            .iter()
            .map(|members| members.first().map_or(0, |&a| size[uf.find(a) as usize]))
            .collect();
        let mut internal_clauses: Vec<Vec<u32>> = vec![Vec::new(); atoms.len()];
        let mut cut_clauses = Vec::new();
        for (i, c) in mrf.clauses().iter().enumerate() {
            let parts: BTreeSet<u32> = c.lits.iter().map(|l| label[l.atom() as usize]).collect();
            if parts.len() == 1 {
                internal_clauses[*parts.first().unwrap() as usize].push(i as u32);
            } else {
                cut_clauses.push(i as u32);
            }
        }
        Partitioning {
            label,
            atoms,
            internal_clauses,
            cut_clauses,
            beta,
            tracked_size,
        }
    }

    proptest::proptest! {
        #[test]
        fn compute_matches_the_reference_definition(
            clauses in proptest::collection::vec(
                (proptest::collection::vec((0u32..14, proptest::prelude::any::<bool>()), 1..5), -3i8..4),
                0..40,
            ),
            beta in 2usize..60,
            unbounded in proptest::prelude::any::<bool>(),
        ) {
            let beta = if unbounded { usize::MAX } else { beta };
            let mut b = MrfBuilder::new();
            b.reserve_atoms(16); // atoms 14 and 15 are in no clause
            for (lits, w) in &clauses {
                let lits: Vec<Lit> = lits.iter().map(|&(a, pos)| Lit::new(a, pos)).collect();
                let weight = match *w {
                    0 => Weight::Hard,
                    w => Weight::Soft(f64::from(w)),
                };
                b.add_clause(lits, weight);
            }
            let m = b.finish();
            let (got, want) = (Partitioning::compute(&m, beta), reference(&m, beta));
            proptest::prop_assert_eq!(got.label, want.label);
            proptest::prop_assert_eq!(got.atoms, want.atoms);
            proptest::prop_assert_eq!(got.internal_clauses, want.internal_clauses);
            proptest::prop_assert_eq!(got.cut_clauses, want.cut_clauses);
            proptest::prop_assert_eq!(got.tracked_size, want.tracked_size);
        }
    }
}
