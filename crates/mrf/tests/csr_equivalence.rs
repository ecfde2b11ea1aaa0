//! CSR-vs-reference equivalence of the two paths that write the arenas.
//!
//! * [`Mrf::project`] slices the CSR arenas directly instead of re-running
//!   clause construction; it must agree with a naive sub-MRF rebuilt
//!   through [`MrfBuilder`] — same clause multiset, same costs, same
//!   metrics.
//! * [`MrfBuilder`] canonicalizes and merges clauses in its own arenas
//!   through a hash index; it must agree, column for column, with a
//!   reference model written here: a list of clauses in first-insertion
//!   order with a linear lookup.
//!
//! `PROPTEST_CASES` raises the number of cases.

use proptest::prelude::*;
use tuffy_mln::weight::Weight;
use tuffy_mrf::{AtomId, ClauseProvenance, Cost, Lit, Mrf, MrfBuilder, RuleOrigin};

/// A random MRF from a clause soup over `n_atoms` atoms.
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

/// The legacy projection: walk the source clauses, keep those fully
/// inside `atoms`, and rebuild them through the builder with remapped
/// literals — exactly what `project` did before the arena-slicing path.
fn naive_project(mrf: &Mrf, atoms: &[AtomId]) -> Mrf {
    let mut dense = std::collections::HashMap::new();
    for (i, &a) in atoms.iter().enumerate() {
        dense.insert(a, i as AtomId);
    }
    let mut b = MrfBuilder::new();
    b.reserve_atoms(atoms.len());
    for c in mrf.clauses() {
        if !c.lits.iter().all(|l| dense.contains_key(&l.atom())) {
            continue;
        }
        let lits: Vec<Lit> = c
            .lits
            .iter()
            .map(|l| Lit::new(dense[&l.atom()], l.is_positive()))
            .collect();
        b.add_clause(lits, c.weight);
    }
    b.finish()
}

/// Canonical clause multiset: sorted literal vectors + rendered weight.
fn canon(mrf: &Mrf) -> Vec<(Vec<u32>, String)> {
    let mut v: Vec<(Vec<u32>, String)> = mrf
        .clauses()
        .iter()
        .map(|c| {
            let mut lits: Vec<u32> = c.lits.iter().map(|l| l.raw()).collect();
            lits.sort_unstable();
            (lits, format!("{}", c.weight))
        })
        .collect();
    v.sort();
    v
}

proptest! {
    #[test]
    fn project_agrees_with_naive_rebuild(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..12, any::<bool>()), 1..4), -3i8..4),
            1..30,
        ),
        // A random atom subset, as a 12-bit membership mask.
        mask in 1u16..(1 << 12),
        assignments in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 12..13), 1..4,
        ),
    ) {
        let mrf = build_mrf(12, &clauses);
        let atoms: Vec<AtomId> = (0..12u32).filter(|a| mask & (1 << a) != 0).collect();
        let (fast, origin) = mrf.project(&atoms);
        let naive = naive_project(&mrf, &atoms);

        prop_assert_eq!(fast.num_atoms(), naive.num_atoms());
        prop_assert_eq!(fast.clauses().len(), naive.clauses().len());
        prop_assert_eq!(origin.len(), fast.clauses().len());
        prop_assert_eq!(canon(&fast), canon(&naive));
        prop_assert_eq!(fast.total_literals(), naive.total_literals());
        prop_assert_eq!(fast.size_metric(), naive.size_metric());
        prop_assert_eq!(fast.clause_bytes(), naive.clause_bytes());

        // Same world costs on the projected atom space.
        for assignment in &assignments {
            let sub: Vec<bool> = atoms.iter().map(|&a| assignment[a as usize]).collect();
            prop_assert_eq!(fast.cost(&sub), naive.cost(&sub));
        }

        // Origins point at clauses with the same weight and arity.
        for (ci, &src) in origin.iter().enumerate() {
            let (sub_c, src_c) = (fast.clause(ci), mrf.clause(src as usize));
            prop_assert_eq!(sub_c.weight, src_c.weight);
            prop_assert_eq!(sub_c.lits.len(), src_c.lits.len());
            prop_assert_eq!(fast.provenance(ci), mrf.provenance(src as usize));
        }
    }

    /// Projecting the full atom space in identity order is the identity
    /// on the clause columns.
    #[test]
    fn full_projection_is_identity(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..8, any::<bool>()), 1..4), -2i8..3),
            1..20,
        ),
    ) {
        let mrf = build_mrf(8, &clauses);
        let atoms: Vec<AtomId> = (0..8).collect();
        let (sub, _) = mrf.project(&atoms);
        prop_assert_eq!(canon(&sub), canon(&mrf));
        prop_assert_eq!(sub.total_literals(), mrf.total_literals());
    }
}

/// One builder call, decoded from plain generated numbers by [`decode`].
#[derive(Clone, Debug)]
enum Op {
    Clause(Vec<Lit>, Weight),
    FromRule(Vec<Lit>, Weight, u32),
    WithOrigins(Vec<Lit>, Weight, ClauseProvenance, Vec<RuleOrigin>),
    Opaque(AtomId),
    Constant(Cost),
}

/// Weights chosen so that merges cancel to exactly 0, overflow to ±∞,
/// meet ∞ − ∞, and get absorbed by hard ones.
const WEIGHTS: [Weight; 12] = [
    Weight::Soft(1.0),
    Weight::Soft(-1.0),
    Weight::Soft(0.5),
    Weight::Soft(-0.5),
    Weight::Soft(2.0),
    Weight::Soft(0.0),
    Weight::Soft(f64::MAX),
    Weight::Soft(f64::INFINITY),
    Weight::Soft(f64::NEG_INFINITY),
    Weight::Hard,
    Weight::NegHard,
    Weight::Soft(-2.0),
];

const SHARES: [f64; 3] = [0.5, 1.0, 2.0];

/// A generated op: (kind, literals as (atom, sign), weight code, rule
/// list as (rule, share code)).
type RawOp = (u8, Vec<(u8, bool)>, u8, Vec<(u8, u8)>);

fn raw_ops(
    lits: std::ops::Range<usize>,
    ops: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(
        (
            0u8..16,
            proptest::collection::vec((any::<u8>(), any::<bool>()), lits),
            0u8..12,
            proptest::collection::vec((0u8..6, 0u8..3), 0..4),
        ),
        ops,
    )
}

fn decode(raw: &[RawOp], n_atoms: u8) -> Vec<Op> {
    raw.iter()
        .map(|(kind, lits, w, rules)| {
            let lits: Vec<Lit> = lits
                .iter()
                .map(|&(a, pos)| Lit::new(u32::from(a % n_atoms), pos))
                .collect();
            let weight = WEIGHTS[*w as usize];
            let rule = rules.first().map_or(0, |r| u32::from(r.0));
            match kind {
                0..=8 => Op::FromRule(lits, weight, rule),
                9..=11 => Op::Clause(lits, weight),
                12 | 13 => {
                    // The patch path's input: origins sorted by rule, one
                    // entry per rule, and an already-merged provenance.
                    let mut origins: Vec<RuleOrigin> = rules
                        .iter()
                        .map(|&(rule, share)| RuleOrigin {
                            rule: u32::from(rule),
                            share: SHARES[share as usize],
                        })
                        .collect();
                    origins.sort_by_key(|o| o.rule);
                    origins.dedup_by_key(|o| o.rule);
                    let provenance = ClauseProvenance {
                        pos_soft: SHARES[(*w % 3) as usize],
                        neg_soft: f64::from(*w % 2),
                        hard: u64::from(*w % 4 == 0),
                        neg_hard: u64::from(*w % 5 == 0),
                    };
                    Op::WithOrigins(lits, weight, provenance, origins)
                }
                14 => Op::Opaque(u32::from(rules.first().map_or(0, |r| r.0) % n_atoms)),
                _ => Op::Constant(Cost {
                    hard: u64::from(*w % 2),
                    soft: SHARES[(*w % 3) as usize],
                }),
            }
        })
        .collect()
}

fn provenance_of(weight: Weight) -> ClauseProvenance {
    let mut p = ClauseProvenance::default();
    match weight {
        Weight::Soft(w) if w >= 0.0 => p.pos_soft += w,
        Weight::Soft(w) => p.neg_soft += -w,
        Weight::Hard => p.hard += 1,
        Weight::NegHard => p.neg_hard += 1,
    }
    p
}

fn merge_weights(a: Weight, b: Weight) -> Weight {
    match (a, b) {
        (Weight::Soft(x), Weight::Soft(y)) => Weight::Soft(x + y),
        (Weight::Hard, _) | (_, Weight::Hard) => Weight::Hard,
        (Weight::NegHard, _) | (_, Weight::NegHard) => Weight::NegHard,
    }
}

/// The builder's specification: clauses in first-insertion order, each a
/// sorted literal list with its merged weight, provenance and origins,
/// found again by a linear scan.
#[derive(Default)]
struct Reference {
    clauses: Vec<(Vec<Lit>, Weight, ClauseProvenance, Vec<RuleOrigin>)>,
    num_atoms: usize,
    opaque: Vec<AtomId>,
    base: Cost,
}

impl Reference {
    fn add(
        &mut self,
        lits: &[Lit],
        weight: Weight,
        prov: ClauseProvenance,
        origins: &[RuleOrigin],
    ) {
        if lits.is_empty() {
            match weight {
                Weight::Soft(w) if w > 0.0 => self.base = self.base.add(Cost::soft(w)),
                Weight::Hard => self.base = self.base.add(Cost { hard: 1, soft: 0.0 }),
                _ => {}
            }
            return;
        }
        let mut lits = lits.to_vec();
        lits.sort();
        lits.dedup();
        if lits.windows(2).any(|w| w[0].atom() == w[1].atom()) {
            return; // tautology
        }
        for l in &lits {
            self.num_atoms = self.num_atoms.max(l.atom() as usize + 1);
        }
        let Some(c) = self.clauses.iter_mut().find(|c| c.0 == lits) else {
            self.clauses.push((lits, weight, prov, origins.to_vec()));
            return;
        };
        c.1 = merge_weights(c.1, weight);
        c.2.pos_soft += prov.pos_soft;
        c.2.neg_soft += prov.neg_soft;
        c.2.hard += prov.hard;
        c.2.neg_hard += prov.neg_hard;
        for o in origins {
            match c.3.binary_search_by_key(&o.rule, |e| e.rule) {
                Ok(i) => c.3[i].share += o.share,
                Err(i) => c.3.insert(i, *o),
            }
        }
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Clause(lits, w) => self.add(lits, *w, provenance_of(*w), &[]),
            Op::FromRule(lits, w, rule) => {
                let origin = RuleOrigin {
                    rule: *rule,
                    share: 1.0,
                };
                self.add(lits, *w, provenance_of(*w), &[origin]);
            }
            Op::WithOrigins(lits, w, prov, origins) => self.add(lits, *w, *prov, origins),
            Op::Opaque(a) => {
                self.num_atoms = self.num_atoms.max(*a as usize + 1);
                self.opaque.push(*a);
            }
            Op::Constant(c) => self.base = self.base.add(*c),
        }
    }
}

fn apply(b: &mut MrfBuilder, op: &Op) {
    match op {
        Op::Clause(lits, w) => b.add_clause(lits, *w),
        Op::FromRule(lits, w, rule) => b.add_clause_from_rule(lits, *w, *rule),
        Op::WithOrigins(lits, w, prov, origins) => {
            b.add_clause_with_origins(lits, *w, *prov, origins)
        }
        Op::Opaque(a) => b.mark_opaque(*a),
        Op::Constant(c) => b.add_constant(*c),
    }
}

/// Runs `ops` through the builder and the reference and compares every
/// exported column, the opaque flags and the base cost exactly.
fn check_builder(ops: &[Op]) -> Result<(), String> {
    let mut b = MrfBuilder::new();
    let mut r = Reference::default();
    for op in ops {
        apply(&mut b, op);
        r.apply(op);
        if b.num_clauses() != r.clauses.len() {
            return Err(format!(
                "{} clauses, reference {} after {op:?}",
                b.num_clauses(),
                r.clauses.len()
            ));
        }
    }
    let got = b.finish().export_columns();

    // The reference's finish: drop sign-less clauses (their atoms turn
    // opaque) and harden soft ±∞.
    let mut opaque = vec![false; r.num_atoms];
    for &a in &r.opaque {
        opaque[a as usize] = true;
    }
    let (mut lit_start, mut lit_arena, mut weights, mut provenance) =
        (vec![0u32], vec![], vec![], vec![]);
    let (mut origin_start, mut origin_arena) = (vec![0u32], vec![]);
    for (lits, weight, prov, origins) in &r.clauses {
        if weight.signum() == 0 {
            for l in lits {
                opaque[l.atom() as usize] = true;
            }
            continue;
        }
        lit_arena.extend_from_slice(lits);
        lit_start.push(lit_arena.len() as u32);
        weights.push(match *weight {
            Weight::Soft(w) if w == f64::INFINITY => Weight::Hard,
            Weight::Soft(w) if w == f64::NEG_INFINITY => Weight::NegHard,
            w => w,
        });
        provenance.push(*prov);
        origin_arena.extend_from_slice(origins);
        origin_start.push(origin_arena.len() as u32);
    }

    let same = |name: &str, ok: bool| {
        if ok {
            Ok(())
        } else {
            Err(format!("{name} differs"))
        }
    };
    same("num_atoms", got.num_atoms == r.num_atoms)?;
    same("lit_start", *got.lit_start == *lit_start)?;
    same("lit_arena", *got.lit_arena == *lit_arena)?;
    same("weights", *got.weights == *weights)?;
    same("provenance", *got.provenance == *provenance)?;
    same("origin_start", *got.origin_start == *origin_start)?;
    same("origin_arena", *got.origin_arena == *origin_arena)?;
    same("opaque_atoms", *got.opaque_atoms == *opaque)?;
    same("base_cost.hard", got.base_cost.hard == r.base.hard)?;
    same(
        "base_cost.soft",
        got.base_cost.soft.to_bits() == r.base.soft.to_bits(),
    )?;
    // The exported columns are a valid store image (unless an empty
    // clause of weight +∞ made the base cost infinite, which no store
    // accepts).
    if got.base_cost.soft.is_finite() {
        Mrf::from_columns(got)?;
    }
    Ok(())
}

proptest! {
    /// Short streams over a few atoms: permuted and repeated literals,
    /// tautologies, empty clauses and many merges per clause.
    #[test]
    fn builder_agrees_with_reference_model(raw in raw_ops(0..5, 0..80)) {
        let ops = decode(&raw, 6);
        if let Err(e) = check_builder(&ops) {
            prop_assert!(false, "{}", e);
        }
    }

    /// Streams of 2 000 or more clauses, so the index grows many times
    /// while short clauses keep merging.
    #[test]
    fn builder_agrees_with_reference_model_as_the_index_grows(raw in raw_ops(1..5, 2000..2400)) {
        let ops = decode(&raw, 24);
        if let Err(e) = check_builder(&ops) {
            prop_assert!(false, "{}", e);
        }
    }
}
