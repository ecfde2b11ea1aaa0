//! Clause emission: from a variable binding to a ground clause.
//!
//! Emission is the single place where evidence semantics are decided; both
//! grounders route every candidate binding through [`Emitter::emit`],
//! which re-checks each literal against evidence (so the relational
//! anti-joins of [`crate::compile`] remain pure optimizations). The check
//! probes the [`EvidenceSet`]'s own per-predicate index with the borrowed
//! argument tuple:
//!
//! * a literal **satisfied** by evidence ⇒ the whole ground clause is a
//!   constant (positive weight: cost 0, dropped; negative weight: cost
//!   |w|, added to the base cost);
//! * a literal **falsified** by evidence ⇒ the literal is deleted;
//! * an **unknown** literal ⇒ a signed [`Lit`] over a registered atom.
//!
//! Existentially quantified literals expand into one disjunct per constant
//! of the variable's domain (PostgreSQL `array_agg` in the paper's
//! implementation, Appendix B.1).

use crate::compile::{ArgSource, CompiledClause};
use crate::registry::AtomRegistry;
use tuffy_mln::evidence::EvidenceSet;
use tuffy_mln::schema::PredicateId;
use tuffy_mln::weight::Weight;
use tuffy_mrf::{Cost, Lit};

/// The result of grounding one binding.
#[derive(Clone, Debug, PartialEq)]
pub enum Grounded {
    /// Some literal (or a tautological pair) is true in every world: the
    /// clause is a constant with the given truth value `true`.
    Satisfied,
    /// Every literal was falsified by evidence: constant `false`.
    EmptyClause,
    /// A live clause over the returned literals.
    Clause(Vec<Lit>),
}

/// The constant cost contributed by a clause whose truth is fixed.
pub fn constant_cost(weight: Weight, truth: bool) -> Cost {
    if !weight.violated_when(truth) {
        return Cost::ZERO;
    }
    match weight {
        Weight::Soft(w) => Cost::soft(w.abs()),
        Weight::Hard | Weight::NegHard => Cost { hard: 1, soft: 0.0 },
    }
}

/// Shared emission state.
pub struct Emitter<'a> {
    ev: &'a EvidenceSet,
    /// Raw constant domains per type.
    domains: Vec<Vec<u32>>,
}

impl<'a> Emitter<'a> {
    /// Builds an emitter over the merged program + evidence constant
    /// domains ([`EvidenceSet::merged_domains`]).
    pub fn new(domains: &[Vec<tuffy_mln::symbols::Symbol>], ev: &'a EvidenceSet) -> Emitter<'a> {
        Emitter {
            ev,
            domains: domains
                .iter()
                .map(|d| d.iter().map(|s| s.0).collect())
                .collect(),
        }
    }

    /// Grounds `cc` under `binding` (one value per universal variable),
    /// registering unknown atoms in `registry` and recording ids new to
    /// the registry in `new_atoms`.
    pub fn emit(
        &self,
        cc: &CompiledClause,
        binding: &[u32],
        registry: &mut AtomRegistry,
        new_atoms: &mut Vec<tuffy_mrf::AtomId>,
    ) -> Grounded {
        debug_assert_eq!(binding.len(), cc.num_univ);
        // Collected unknown literals as (pred, args, positive).
        let mut keys: Vec<(PredicateId, Vec<u32>, bool)> = Vec::new();
        let mut argbuf: Vec<u32> = Vec::new();

        for t in &cc.templates {
            if t.exist_used.is_empty() {
                argbuf.clear();
                for a in &t.args {
                    argbuf.push(match *a {
                        ArgSource::Univ(i) => binding[i],
                        ArgSource::Const(c) => c,
                        ArgSource::Exist(_) => unreachable!("no existential args"),
                    });
                }
                match self.literal_status(t.pred, t.closed, t.positive, &argbuf) {
                    LitStatus::True => return Grounded::Satisfied,
                    LitStatus::False => {}
                    LitStatus::Unknown => {
                        keys.push((t.pred, argbuf.clone(), t.positive));
                    }
                }
            } else {
                // Expand the existential variables used by this literal.
                let doms: Vec<&[u32]> = t
                    .exist_used
                    .iter()
                    .map(|&ei| self.domains[cc.exist_types[ei].index()].as_slice())
                    .collect();
                if doms.iter().any(|d| d.is_empty()) {
                    continue; // empty domain: no disjuncts
                }
                let mut odometer = vec![0usize; doms.len()];
                loop {
                    argbuf.clear();
                    for a in &t.args {
                        argbuf.push(match *a {
                            ArgSource::Univ(i) => binding[i],
                            ArgSource::Const(c) => c,
                            ArgSource::Exist(ei) => {
                                let pos = t.exist_used.iter().position(|&e| e == ei).unwrap();
                                doms[pos][odometer[pos]]
                            }
                        });
                    }
                    match self.literal_status(t.pred, t.closed, t.positive, &argbuf) {
                        LitStatus::True => return Grounded::Satisfied,
                        LitStatus::False => {}
                        LitStatus::Unknown => {
                            keys.push((t.pred, argbuf.clone(), t.positive));
                        }
                    }
                    // Advance the odometer.
                    let mut k = 0;
                    loop {
                        if k == doms.len() {
                            break;
                        }
                        odometer[k] += 1;
                        if odometer[k] < doms[k].len() {
                            break;
                        }
                        odometer[k] = 0;
                        k += 1;
                    }
                    if k == doms.len() {
                        break;
                    }
                }
            }
        }

        if keys.is_empty() {
            return Grounded::EmptyClause;
        }
        // Tautology check: the same atom with both polarities.
        keys.sort_unstable_by(|a, b| (a.0 .0, &a.1).cmp(&(b.0 .0, &b.1)));
        keys.dedup();
        for w in keys.windows(2) {
            if w[0].0 == w[1].0 && w[0].1 == w[1].1 {
                return Grounded::Satisfied; // same atom, different polarity
            }
        }

        let mut lits = Vec::with_capacity(keys.len());
        for (pred, args, positive) in keys {
            let before = registry.len();
            let aid = registry.intern(pred, &args);
            if registry.len() > before {
                new_atoms.push(aid);
            }
            lits.push(Lit::new(aid, positive));
        }
        Grounded::Clause(lits)
    }

    #[inline]
    fn literal_status(
        &self,
        pred: PredicateId,
        closed: bool,
        positive: bool,
        args: &[u32],
    ) -> LitStatus {
        if closed {
            // Closed world: unlisted atoms are false.
            let truth = self.ev.truth_of(pred, args) == Some(true);
            if truth == positive {
                LitStatus::True
            } else {
                LitStatus::False
            }
        } else {
            match self.ev.truth_of(pred, args) {
                Some(t) => {
                    if t == positive {
                        LitStatus::True
                    } else {
                        LitStatus::False
                    }
                }
                None => LitStatus::Unknown,
            }
        }
    }
}

enum LitStatus {
    True,
    False,
    Unknown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_clause, GroundingMode};
    use crate::dbload::GroundingDb;
    use tuffy_mln::clausify::clausify_program;
    use tuffy_mln::parser::{parse_evidence, parse_program};
    use tuffy_mln::program::MlnProgram;
    use tuffy_mln::symbols::Symbol;

    #[allow(clippy::type_complexity)]
    fn setup(
        src: &str,
        ev: &str,
    ) -> (
        MlnProgram,
        Vec<Vec<Symbol>>,
        GroundingDb,
        Vec<CompiledClause>,
        EvidenceSet,
    ) {
        let mut p = parse_program(src).unwrap();
        let evidence = parse_evidence(&mut p, ev).unwrap();
        let domains = evidence.merged_domains(&p);
        let gdb = GroundingDb::build(&p, &evidence, &domains).unwrap();
        let compiled: Vec<CompiledClause> = clausify_program(&p)
            .iter()
            .filter_map(|c| compile_clause(&p, &gdb, c, GroundingMode::LazyClosure).unwrap())
            .collect();
        (p, domains, gdb, compiled, evidence)
    }

    #[test]
    fn unknown_literals_become_lits() {
        let (p, domains, _gdb, compiled, ev) = setup(
            "*wrote(person, paper)\ncat(paper, topic)\n1 wrote(x, p) => cat(p, Db)\n",
            "wrote(Joe, P1)\n",
        );
        let emitter = Emitter::new(&domains, &ev);
        let mut reg = AtomRegistry::new();
        let mut new_atoms = Vec::new();
        let cc = &compiled[0];
        // binding: x=Joe, p=P1 (order of first occurrence: x, p).
        let joe = p.symbols.get("Joe").unwrap().0;
        let p1 = p.symbols.get("P1").unwrap().0;
        let out = emitter.emit(cc, &[joe, p1], &mut reg, &mut new_atoms);
        match out {
            Grounded::Clause(lits) => {
                assert_eq!(lits.len(), 1); // ¬wrote dropped (closed, satisfied-false)
                assert!(lits[0].is_positive());
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(new_atoms.len(), 1);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn evidence_satisfied_clause_skipped() {
        let (p, domains, _gdb, compiled, ev) = setup(
            "*wrote(person, paper)\ncat(paper, topic)\n1 wrote(x, p) => cat(p, Db)\n",
            "wrote(Joe, P1)\ncat(P1, Db)\n",
        );
        let emitter = Emitter::new(&domains, &ev);
        let mut reg = AtomRegistry::new();
        let mut new_atoms = Vec::new();
        let joe = p.symbols.get("Joe").unwrap().0;
        let p1 = p.symbols.get("P1").unwrap().0;
        let out = emitter.emit(&compiled[0], &[joe, p1], &mut reg, &mut new_atoms);
        assert_eq!(out, Grounded::Satisfied);
        assert!(reg.is_empty());
    }

    #[test]
    fn falsified_head_gives_empty_clause() {
        let (p, domains, _gdb, compiled, ev) = setup(
            "*wrote(person, paper)\ncat(paper, topic)\n1 wrote(x, p) => cat(p, Db)\n",
            "wrote(Joe, P1)\n!cat(P1, Db)\n",
        );
        let emitter = Emitter::new(&domains, &ev);
        let mut reg = AtomRegistry::new();
        let mut new_atoms = Vec::new();
        let joe = p.symbols.get("Joe").unwrap().0;
        let p1 = p.symbols.get("P1").unwrap().0;
        let out = emitter.emit(&compiled[0], &[joe, p1], &mut reg, &mut new_atoms);
        assert_eq!(out, Grounded::EmptyClause);
    }

    #[test]
    fn existential_expansion() {
        let (p, domains, _gdb, compiled, ev) = setup(
            "*paper(paper)\nwrote(person, paper)\n*person(person)\npaper(x) => EXIST a wrote(a, x).\n",
            "paper(P1)\nperson(Ann)\nperson(Bob)\n",
        );
        let emitter = Emitter::new(&domains, &ev);
        let mut reg = AtomRegistry::new();
        let mut new_atoms = Vec::new();
        let p1 = p.symbols.get("P1").unwrap().0;
        let out = emitter.emit(&compiled[0], &[p1], &mut reg, &mut new_atoms);
        match out {
            Grounded::Clause(lits) => assert_eq!(lits.len(), 2), // wrote(Ann,P1) ∨ wrote(Bob,P1)
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn constant_cost_semantics() {
        use tuffy_mln::weight::Weight;
        assert_eq!(constant_cost(Weight::Soft(2.0), true), Cost::ZERO);
        assert_eq!(constant_cost(Weight::Soft(2.0), false), Cost::soft(2.0));
        assert_eq!(constant_cost(Weight::Soft(-1.0), true), Cost::soft(1.0));
        assert_eq!(constant_cost(Weight::Soft(-1.0), false), Cost::ZERO);
        assert_eq!(constant_cost(Weight::Hard, false).hard, 1);
        assert_eq!(constant_cost(Weight::NegHard, true).hard, 1);
    }
}
