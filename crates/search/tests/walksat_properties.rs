//! Property tests: WalkSAT's incremental bookkeeping always matches a
//! full recomputation, over the whole MRF and over a scope with a frozen
//! boundary; union-find components match a BFS reference.

use proptest::prelude::*;
use tuffy_mln::weight::Weight;
use tuffy_mrf::{ComponentSet, Cost, Lit, Mrf, MrfBuilder};
use tuffy_search::{SearchScratch, WalkSat};

/// A random MRF from a clause soup.
fn build_mrf(n_atoms: u32, clauses: &[(Vec<(u8, bool)>, i8)]) -> Mrf {
    let mut b = MrfBuilder::new();
    b.reserve_atoms(n_atoms as usize);
    for (lits, w) in clauses {
        let lits: Vec<Lit> = lits
            .iter()
            .map(|&(a, pos)| Lit::new(u32::from(a) % n_atoms, pos))
            .collect();
        let weight = match *w {
            0 => Weight::Hard,
            x => Weight::Soft(f64::from(x)),
        };
        b.add_clause(lits, weight);
    }
    b.finish()
}

proptest! {
    #[test]
    fn incremental_cost_equals_full_recompute(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..10, any::<bool>()), 1..4), -3i8..4),
            1..25,
        ),
        steps in 1usize..120,
        seed in any::<u64>(),
    ) {
        let mrf = build_mrf(10, &clauses);
        let mut ws = WalkSat::new(&mrf, seed);
        for _ in 0..steps {
            if !ws.step(0.5) {
                break;
            }
            let full = mrf.cost(ws.truth());
            prop_assert_eq!(ws.cost(), full);
        }
        // The best cost is never worse than the current cost's history.
        prop_assert!(!ws.cost().better_than(ws.best_cost()) || ws.cost() == ws.best_cost());
        // And the recorded best assignment really has the recorded cost.
        prop_assert_eq!(mrf.cost(ws.best_truth()), ws.best_cost());
    }

    #[test]
    fn components_match_bfs(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..12, any::<bool>()), 1..4), 1i8..3),
            0..20,
        ),
    ) {
        let mrf = build_mrf(12, &clauses);
        let cs = ComponentSet::detect(&mrf);
        // BFS reference over the atom-clause incidence graph.
        let n = mrf.num_atoms();
        let mut label = vec![usize::MAX; n];
        let mut next = 0usize;
        for start in 0..n as u32 {
            if label[start as usize] != usize::MAX {
                continue;
            }
            let mut queue = vec![start];
            label[start as usize] = next;
            while let Some(a) = queue.pop() {
                for &occ in mrf.occurrences(a) {
                    for l in mrf.clause_lits(occ.clause() as usize) {
                        let b = l.atom();
                        if label[b as usize] == usize::MAX {
                            label[b as usize] = next;
                            queue.push(b);
                        }
                    }
                }
            }
            next += 1;
        }
        prop_assert_eq!(cs.count(), next);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(
                    label[i] == label[j],
                    cs.label[i] == cs.label[j],
                    "atoms {} and {}", i, j
                );
            }
        }
    }

    #[test]
    fn flip_is_involutive_on_cost(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..8, any::<bool>()), 1..4), -2i8..3),
            1..15,
        ),
        atom in 0u8..8,
        seed in any::<u64>(),
    ) {
        let mrf = build_mrf(8, &clauses);
        let mut ws = WalkSat::new(&mrf, seed);
        let before = ws.cost();
        ws.flip(u32::from(atom));
        ws.flip(u32::from(atom));
        prop_assert_eq!(ws.cost(), before);
    }

    /// `flip_delta(a)` (the CSR occurrence-arena scan) must equal the
    /// brute-force cost difference `cost(flipped) − cost(truth)` for
    /// every atom of a random MRF under a random assignment.
    #[test]
    fn flip_delta_matches_brute_force_cost_difference(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..10, any::<bool>()), 1..5), -3i8..4),
            1..25,
        ),
        truth in proptest::collection::vec(any::<bool>(), 10..11),
        seed in any::<u64>(),
    ) {
        let mrf = build_mrf(10, &clauses);
        let base = mrf.cost(&truth);
        let ws = WalkSat::with_assignment(&mrf, truth.clone(), seed);
        for atom in 0..mrf.num_atoms() {
            let (dh, ds) = ws.flip_delta(atom as u32);
            let mut flipped = truth.clone();
            flipped[atom] = !flipped[atom];
            let after = mrf.cost(&flipped);
            prop_assert_eq!(
                dh,
                after.hard as i64 - base.hard as i64,
                "hard delta of atom {} drifted", atom
            );
            let expect_soft = after.soft - base.soft;
            prop_assert!(
                (ds - expect_soft).abs() < 1e-9,
                "soft delta of atom {}: {} vs brute-force {}", atom, ds, expect_soft
            );
        }
    }

    /// The same for a scoped solver with a frozen boundary: after a few
    /// steps, `flip_delta(a)` of every searched atom equals the
    /// brute-force change in the cost of the scope's inside and cut
    /// clauses. A cut clause that a frozen literal satisfies is masked in
    /// the solver; flipping an inside atom cannot change its state, so it
    /// adds nothing to either side.
    #[test]
    fn scoped_flip_delta_matches_brute_force_cost_difference(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..10, any::<bool>()), 1..5), -3i8..4),
            1..25,
        ),
        bridge in ((any::<bool>(), any::<bool>()), -3i8..4),
        searched in proptest::collection::vec(any::<bool>(), 10..11),
        truth in proptest::collection::vec(any::<bool>(), 10..11),
        steps in 0usize..20,
        seed in any::<u64>(),
    ) {
        // Atom 0 is searched and atom 9 frozen, and a bridge clause between
        // them guarantees a non-empty cut.
        let ((s0, s9), w) = bridge;
        let mut clauses = clauses;
        clauses.push((vec![(0, s0), (9, s9)], w));
        let mrf = build_mrf(10, &clauses);
        let mut searched = searched;
        searched[0] = true;
        searched[9] = false;
        let atoms: Vec<u32> = (0..10).filter(|&a| searched[a as usize]).collect();
        let (mut inside, mut cut) = (Vec::new(), Vec::new());
        for ci in 0..mrf.num_clauses() as u32 {
            let lits = mrf.clause_lits(ci as usize);
            let held = lits.iter().filter(|l| searched[l.atom() as usize]).count();
            if held == lits.len() {
                inside.push(ci);
            } else if held > 0 {
                cut.push(ci);
            }
        }
        if cut.is_empty() {
            // The bridge merged with a duplicate of opposite weight, and
            // the clause cancelled away.
            return Ok(());
        }
        let mut ws = WalkSat::in_scope(
            &mrf, &atoms, &inside, &cut, &truth, seed, SearchScratch::default(),
        );
        for _ in 0..steps {
            if !ws.step(0.5) {
                break;
            }
        }
        let scope_cost = |truth: &[bool]| {
            inside.iter().chain(&cut).fold(Cost::ZERO, |total, &ci| {
                let ci = ci as usize;
                let satisfied = mrf
                    .clause_lits(ci)
                    .iter()
                    .any(|l| l.eval(truth[l.atom() as usize]));
                if mrf.clause_violated_when(ci, satisfied) {
                    total.add(mrf.violation_cost(ci))
                } else {
                    total
                }
            })
        };
        // The world the scope sees: the starting assignment, with the
        // searched atoms where the steps took them.
        let mut now = truth.clone();
        for &a in &atoms {
            now[a as usize] = ws.truth()[a as usize];
        }
        let base = scope_cost(&now);
        for &atom in &atoms {
            let (dh, ds) = ws.flip_delta(atom);
            let mut flipped = now.clone();
            flipped[atom as usize] = !flipped[atom as usize];
            let after = scope_cost(&flipped);
            prop_assert_eq!(
                dh,
                after.hard as i64 - base.hard as i64,
                "hard delta of atom {} drifted", atom
            );
            let expect_soft = after.soft - base.soft;
            prop_assert!(
                (ds - expect_soft).abs() < 1e-9,
                "soft delta of atom {}: {} vs brute-force {}", atom, ds, expect_soft
            );
        }
    }
}
