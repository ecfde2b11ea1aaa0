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
//!
//! Emission allocates nothing per clause or per literal: every buffer it
//! needs lives in a caller-owned [`EmitBuf`] that one grounding reuses
//! for all its bindings. Unknown literals are recorded as keys into the
//! buffer's argument arena, sorted and checked for tautology there, and
//! only then interned, so atoms are numbered in the keys' sorted order.
//! The clause's literals are left in [`EmitBuf::lits`], from which the
//! caller appends them to the MRF builder's arena.

use crate::compile::{ArgSource, CompiledClause, LiteralTemplate};
use crate::registry::AtomRegistry;
use tuffy_mln::evidence::EvidenceSet;
use tuffy_mln::schema::PredicateId;
use tuffy_mln::weight::Weight;
use tuffy_mrf::{AtomId, Cost, Lit};

/// The result of grounding one binding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grounded {
    /// Some literal (or a tautological pair) is true in every world: the
    /// clause is a constant with the given truth value `true`.
    Satisfied,
    /// Every literal was falsified by evidence: constant `false`.
    EmptyClause,
    /// A live clause over the literals left in [`EmitBuf::lits`].
    Clause,
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

/// One unknown literal of the binding being emitted: its arguments are
/// `args[start..start + len]` of the [`EmitBuf`] argument arena.
#[derive(Clone, Copy, Debug)]
struct LitKey {
    pred: PredicateId,
    start: u32,
    len: u32,
    positive: bool,
}

impl LitKey {
    #[inline]
    fn args<'a>(&self, arena: &'a [u32]) -> &'a [u32] {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }
}

/// The buffers [`Emitter::emit`] works in, owned by the caller and reused
/// across bindings so that emission allocates only when a buffer grows.
#[derive(Debug, Default)]
pub struct EmitBuf {
    /// Arguments of the binding's unknown literals, back to back.
    args: Vec<u32>,
    /// The binding's unknown literals, keyed into `args`.
    keys: Vec<LitKey>,
    /// Odometer over the domains of one literal's existential variables.
    odometer: Vec<usize>,
    /// The last live clause's literals.
    lits: Vec<Lit>,
    /// Atoms the last emission registered.
    new_atoms: Vec<AtomId>,
}

impl EmitBuf {
    /// The literals of the clause the last [`Grounded::Clause`] emitted,
    /// one per distinct unknown atom, in the order they were interned.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// The atoms the last emission registered, in id order.
    pub fn new_atoms(&self) -> &[AtomId] {
        &self.new_atoms
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
    /// registering unknown atoms in `registry`. The clause's literals and
    /// the ids new to the registry are left in `buf`.
    pub fn emit(
        &self,
        cc: &CompiledClause,
        binding: &[u32],
        registry: &mut AtomRegistry,
        buf: &mut EmitBuf,
    ) -> Grounded {
        debug_assert_eq!(binding.len(), cc.num_univ);
        buf.args.clear();
        buf.keys.clear();
        buf.lits.clear();
        buf.new_atoms.clear();

        for t in &cc.templates {
            if t.exist_used.is_empty() {
                let start = buf.args.len();
                buf.args.extend(t.args.iter().map(|a| match *a {
                    ArgSource::Univ(i) => binding[i],
                    ArgSource::Const(c) => c,
                    ArgSource::Exist(_) => unreachable!("no existential args"),
                }));
                if self.classify(t, start, buf) {
                    return Grounded::Satisfied;
                }
                continue;
            }
            // Expand the existential variables used by this literal.
            let domain =
                |k: usize| self.domains[cc.exist_types[t.exist_used[k]].index()].as_slice();
            let n = t.exist_used.len();
            if (0..n).any(|k| domain(k).is_empty()) {
                continue; // empty domain: no disjuncts
            }
            buf.odometer.clear();
            buf.odometer.resize(n, 0);
            loop {
                let start = buf.args.len();
                for a in &t.args {
                    let v = match *a {
                        ArgSource::Univ(i) => binding[i],
                        ArgSource::Const(c) => c,
                        ArgSource::Exist(ei) => {
                            let k = t.exist_used.iter().position(|&e| e == ei);
                            let k = k.expect("exist_used lists every existential argument");
                            domain(k)[buf.odometer[k]]
                        }
                    };
                    buf.args.push(v);
                }
                if self.classify(t, start, buf) {
                    return Grounded::Satisfied;
                }
                // Advance the odometer.
                let mut k = 0;
                while k < n {
                    buf.odometer[k] += 1;
                    if buf.odometer[k] < domain(k).len() {
                        break;
                    }
                    buf.odometer[k] = 0;
                    k += 1;
                }
                if k == n {
                    break;
                }
            }
        }

        if buf.keys.is_empty() {
            return Grounded::EmptyClause;
        }
        let EmitBuf {
            args,
            keys,
            lits,
            new_atoms,
            ..
        } = buf;
        // Tautology check: the same atom with both polarities. Sorted by
        // atom (polarity is no part of the order), so equal atoms are
        // adjacent once exact repeats are gone.
        keys.sort_unstable_by(|a, b| (a.pred.0, a.args(args)).cmp(&(b.pred.0, b.args(args))));
        keys.dedup_by(|a, b| {
            a.pred == b.pred && a.positive == b.positive && a.args(args) == b.args(args)
        });
        if keys
            .windows(2)
            .any(|w| w[0].pred == w[1].pred && w[0].args(args) == w[1].args(args))
        {
            return Grounded::Satisfied;
        }

        for k in keys.iter() {
            let before = registry.len();
            let aid = registry.intern(k.pred, k.args(args));
            if registry.len() > before {
                new_atoms.push(aid);
            }
            lits.push(Lit::new(aid, k.positive));
        }
        Grounded::Clause
    }

    /// Classifies the literal of template `t` whose arguments are
    /// `buf.args[start..]`: an unknown literal is kept as a key, a
    /// falsified one gives its arguments back. Returns whether evidence
    /// satisfies it.
    #[inline]
    fn classify(&self, t: &LiteralTemplate, start: usize, buf: &mut EmitBuf) -> bool {
        match self.literal_status(t.pred, t.closed, t.positive, &buf.args[start..]) {
            LitStatus::True => true,
            LitStatus::False => {
                buf.args.truncate(start);
                false
            }
            LitStatus::Unknown => {
                buf.keys.push(LitKey {
                    pred: t.pred,
                    start: start as u32,
                    len: (buf.args.len() - start) as u32,
                    positive: t.positive,
                });
                false
            }
        }
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
        let mut buf = EmitBuf::default();
        let cc = &compiled[0];
        // binding: x=Joe, p=P1 (order of first occurrence: x, p).
        let joe = p.symbols.get("Joe").unwrap().0;
        let p1 = p.symbols.get("P1").unwrap().0;
        let out = emitter.emit(cc, &[joe, p1], &mut reg, &mut buf);
        assert_eq!(out, Grounded::Clause);
        assert_eq!(buf.lits().len(), 1); // ¬wrote dropped (closed, satisfied-false)
        assert!(buf.lits()[0].is_positive());
        assert_eq!(buf.new_atoms().len(), 1);
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
        let mut buf = EmitBuf::default();
        let joe = p.symbols.get("Joe").unwrap().0;
        let p1 = p.symbols.get("P1").unwrap().0;
        let out = emitter.emit(&compiled[0], &[joe, p1], &mut reg, &mut buf);
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
        let mut buf = EmitBuf::default();
        let joe = p.symbols.get("Joe").unwrap().0;
        let p1 = p.symbols.get("P1").unwrap().0;
        let out = emitter.emit(&compiled[0], &[joe, p1], &mut reg, &mut buf);
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
        let mut buf = EmitBuf::default();
        let p1 = p.symbols.get("P1").unwrap().0;
        let out = emitter.emit(&compiled[0], &[p1], &mut reg, &mut buf);
        assert_eq!(out, Grounded::Clause);
        assert_eq!(buf.lits().len(), 2); // wrote(Ann,P1) ∨ wrote(Bob,P1)
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
