//! Compiling clausal rules to conjunctive queries (Algorithm 2 + App. A.3).
//!
//! For a clause `l1 ∨ … ∨ lk`, a grounding is *retained* iff no literal is
//! satisfied by evidence (closed-world for `*`-predicates, open-world for
//! query predicates). Each literal therefore contributes to the query as:
//!
//! | literal | world assumption | query contribution |
//! |---|---|---|
//! | `¬P(t̄)`, closed | CWA | **join** with `evt_P` — the literal is satisfied unless `t̄` is true evidence, so true-evidence tuples are the only retained bindings (this is what lets bottom-up grounding bind variables Datalog-style) |
//! | `P(t̄)`, closed | CWA | **anti-join** with `evt_P` (a true tuple satisfies the clause); the literal itself is false in all retained groundings and is deleted |
//! | `P(t̄)`, open | OWA | anti-join with `evt_P` (true evidence satisfies) |
//! | `¬P(t̄)`, open | OWA | anti-join with `evf_P` (false evidence satisfies); in lazy-closure mode additionally a **join** with `reach_P` — the clause is only *active* once the atom is reachable (evidence-true or previously activated), which is Alchemy's repeated one-step look-ahead |
//!
//! Equality literals compile to variable unification / constant
//! substitution (`x != y` in the clause ⇒ retained groundings have
//! `x = y`) or inequality filters (`x = y` ⇒ retained groundings have
//! `x ≠ y`). Universal variables not bound by any join range over their
//! type's domain table. Negative-*weight* clauses skip the anti-joins so
//! that emission can count their evidence-satisfied groundings as constant
//! cost (see the crate docs).

use crate::dbload::GroundingDb;
use tuffy_mln::ast::{Literal, Term, Var};
use tuffy_mln::clausify::ClausalRule;
use tuffy_mln::fxhash::FxHashMap;
use tuffy_mln::program::MlnProgram;
use tuffy_mln::schema::{PredicateId, TypeId};
use tuffy_mln::weight::Weight;
use tuffy_mln::MlnError;
use tuffy_rdbms::query::{ColumnBinding, ConjunctiveQuery, QueryAtom};

/// Grounding strategy for open-world negative literals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GroundingMode {
    /// Alchemy's lazy closure (Appendix A.3): ground only *active*
    /// clauses, iterating activation to fixpoint. The default, and what
    /// both Tuffy and Alchemy run.
    #[default]
    LazyClosure,
    /// Ground every retained clause. Exponentially larger on real
    /// programs; used to cross-check the closure on small inputs.
    Eager,
}

/// Where a template argument's value comes from at emission time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArgSource {
    /// The i-th universal variable of the binding row.
    Univ(usize),
    /// The i-th existential variable (expanded over its domain).
    Exist(usize),
    /// A fixed constant.
    Const(u32),
}

/// An emission template for one predicate literal.
#[derive(Clone, Debug)]
pub struct LiteralTemplate {
    /// The predicate.
    pub pred: PredicateId,
    /// Literal polarity.
    pub positive: bool,
    /// Whether the predicate is closed-world.
    pub closed: bool,
    /// Per-argument value sources.
    pub args: Vec<ArgSource>,
    /// Indices (into the clause's existential list) used by this literal.
    pub exist_used: Vec<usize>,
}

/// A clause compiled for grounding.
#[derive(Clone, Debug)]
pub struct CompiledClause {
    /// Index of the originating rule.
    pub rule_index: usize,
    /// The clause weight.
    pub weight: Weight,
    /// Number of universal variables (width of a binding row).
    pub num_univ: usize,
    /// Types of the existential variables.
    pub exist_types: Vec<TypeId>,
    /// Emission templates, one per predicate literal.
    pub templates: Vec<LiteralTemplate>,
    /// The binding query; `None` when the clause has no universal
    /// variables (ground once with the empty binding).
    pub query: Option<ConjunctiveQuery>,
    /// Whether the query joins a reachable table (such clauses must be
    /// re-run every closure round).
    pub uses_reachable: bool,
    /// For each reachable-table atom in `query.atoms`: its position and
    /// the predicate index, used to swap in the delta table for
    /// semi-naive closure rounds.
    pub reach_positions: Vec<(usize, usize)>,
    /// Union variants for negative-weight clauses whose predicate
    /// literals are all positive open-world: such a clause is *active*
    /// (violable, i.e. satisfiable by flips) only when at least one of
    /// its atoms is active, so each variant prepends one literal's
    /// reachable-table atom to the query and the results are unioned
    /// (LazySAT activity, Appendix A.3). Entries are `(atom, pred_idx)`.
    pub union_variants: Vec<(QueryAtom, usize)>,
}

/// Union-find-flavored substitution accumulated from equality literals.
#[derive(Default)]
struct Subst {
    parent: FxHashMap<Var, Var>,
    constant: FxHashMap<Var, u32>,
}

impl Subst {
    fn root(&self, mut v: Var) -> Var {
        while let Some(&p) = self.parent.get(&v) {
            v = p;
        }
        v
    }

    /// Unifies two variables. Returns `false` on constant conflict.
    fn unify(&mut self, a: Var, b: Var) -> bool {
        let (ra, rb) = (self.root(a), self.root(b));
        if ra == rb {
            return true;
        }
        match (
            self.constant.get(&ra).copied(),
            self.constant.get(&rb).copied(),
        ) {
            (Some(x), Some(y)) if x != y => return false,
            (Some(x), _) => {
                self.constant.insert(rb, x);
            }
            (None, Some(y)) => {
                self.constant.insert(ra, y);
            }
            (None, None) => {}
        }
        self.parent.insert(ra, rb);
        true
    }

    /// Binds a variable to a constant. Returns `false` on conflict.
    fn bind(&mut self, v: Var, c: u32) -> bool {
        let r = self.root(v);
        match self.constant.get(&r) {
            Some(&x) => x == c,
            None => {
                self.constant.insert(r, c);
                true
            }
        }
    }

    /// Resolves a term to its canonical form.
    fn resolve(&self, t: Term) -> Term {
        match t {
            Term::Const(c) => Term::Const(c),
            Term::Var(v) => {
                let r = self.root(v);
                match self.constant.get(&r) {
                    Some(&c) => Term::Const(tuffy_mln::symbols::Symbol(c)),
                    None => Term::Var(r),
                }
            }
        }
    }
}

/// Compiles one clausal rule. Returns `Ok(None)` when no grounding can be
/// retained (statically unsatisfiable constraints).
pub fn compile_clause(
    program: &MlnProgram,
    gdb: &GroundingDb,
    clause: &ClausalRule,
    mode: GroundingMode,
) -> Result<Option<CompiledClause>, MlnError> {
    let err = |msg: String| MlnError::at(clause.line, msg);

    // 1. Fold equality literals into a substitution + inequality filters.
    let mut subst = Subst::default();
    let mut pending_neq: Vec<(Term, Term)> = Vec::new();
    for lit in &clause.literals {
        if let Literal::Eq {
            left,
            right,
            negated,
        } = lit
        {
            if *negated {
                // Literal `x != y`: retained groundings satisfy x = y.
                let ok = match (left, right) {
                    (Term::Var(a), Term::Var(b)) => subst.unify(*a, *b),
                    (Term::Var(a), Term::Const(c)) | (Term::Const(c), Term::Var(a)) => {
                        subst.bind(*a, c.0)
                    }
                    (Term::Const(_), Term::Const(_)) => {
                        unreachable!("clausify resolves constant equalities")
                    }
                };
                if !ok {
                    return Ok(None);
                }
            } else {
                // Literal `x = y`: retained groundings satisfy x ≠ y.
                pending_neq.push((*left, *right));
            }
        }
    }

    // 2. Variable types (for domains) from predicate positions.
    let mut var_type: FxHashMap<Var, TypeId> = FxHashMap::default();
    for lit in &clause.literals {
        if let Literal::Pred { atom, .. } = lit {
            let decl = program.predicate(atom.predicate);
            for (term, &ty) in atom.args.iter().zip(decl.arg_types.iter()) {
                if let Term::Var(v) = subst.resolve(*term) {
                    var_type.entry(v).or_insert(ty);
                }
            }
        }
    }

    // 3. Canonical existential set.
    let exists: Vec<Var> = {
        let mut out = Vec::new();
        for &e in &clause.exists {
            if let Term::Var(r) = subst.resolve(Term::Var(e)) {
                if var_type.contains_key(&r) && !out.contains(&r) {
                    out.push(r);
                }
            }
        }
        out
    };

    // 4. Index universal variables in first-occurrence order.
    let mut univ: Vec<Var> = Vec::new();
    for lit in &clause.literals {
        if let Literal::Pred { atom, .. } = lit {
            for term in &atom.args {
                if let Term::Var(v) = subst.resolve(*term) {
                    if !exists.contains(&v) && !univ.contains(&v) {
                        univ.push(v);
                    }
                }
            }
        }
    }
    let univ_idx = |v: Var| univ.iter().position(|&u| u == v);
    let exist_idx = |v: Var| exists.iter().position(|&e| e == v);

    // 5. Resolve the pending inequality filters.
    let mut neq: Vec<(usize, usize)> = Vec::new();
    let mut neq_const: Vec<(usize, u32)> = Vec::new();
    for (l, r) in pending_neq {
        match (subst.resolve(l), subst.resolve(r)) {
            (Term::Var(a), Term::Var(b)) => {
                if a == b {
                    return Ok(None); // x ≠ x can never hold
                }
                if exists.contains(&a) || exists.contains(&b) {
                    return Err(err(
                        "equality literals over existential variables are not supported".into(),
                    ));
                }
                let (ia, ib) = match (univ_idx(a), univ_idx(b)) {
                    (Some(ia), Some(ib)) => (ia, ib),
                    _ => return Err(err("equality over variable not in any literal".into())),
                };
                neq.push((ia, ib));
            }
            (Term::Var(a), Term::Const(c)) | (Term::Const(c), Term::Var(a)) => {
                if exists.contains(&a) {
                    return Err(err(
                        "equality literals over existential variables are not supported".into(),
                    ));
                }
                let ia = univ_idx(a)
                    .ok_or_else(|| err("equality over variable not in any literal".into()))?;
                neq_const.push((ia, c.0));
            }
            (Term::Const(a), Term::Const(b)) => {
                if a == b {
                    return Ok(None); // constraint C ≠ C can never hold
                }
                // C1 ≠ C2 always holds: filter vanishes.
            }
        }
    }

    // 6. Templates + query atoms.
    let negative_weight = clause.weight.signum() < 0;
    let mut templates = Vec::new();
    let mut atoms: Vec<QueryAtom> = Vec::new();
    let mut anti_atoms: Vec<QueryAtom> = Vec::new();
    let mut uses_reachable = false;
    let mut reach_positions: Vec<(usize, usize)> = Vec::new();

    for lit in &clause.literals {
        let Literal::Pred { atom, negated } = lit else {
            continue;
        };
        let pred = atom.predicate;
        let closed = program.predicate(pred).closed_world;
        let positive = !negated;

        let mut args = Vec::with_capacity(atom.args.len());
        let mut exist_used = Vec::new();
        let mut bindings = Vec::with_capacity(atom.args.len());
        let mut has_exist = false;
        for term in &atom.args {
            match subst.resolve(*term) {
                Term::Const(c) => {
                    args.push(ArgSource::Const(c.0));
                    bindings.push(ColumnBinding::Const(c.0));
                }
                Term::Var(v) => {
                    if let Some(ei) = exist_idx(v) {
                        has_exist = true;
                        if !exist_used.contains(&ei) {
                            exist_used.push(ei);
                        }
                        args.push(ArgSource::Exist(ei));
                        bindings.push(ColumnBinding::Any);
                    } else {
                        let ui = univ_idx(v).expect("universal variable indexed above");
                        args.push(ArgSource::Univ(ui));
                        bindings.push(ColumnBinding::Var(ui));
                    }
                }
            }
        }

        match (closed, positive) {
            (true, false) => {
                // Join anchor on true evidence — unless existential, in
                // which case emission evaluates the whole disjunct set.
                if !has_exist {
                    atoms.push(QueryAtom {
                        table: gdb.evt[pred.index()],
                        bindings: bindings.clone(),
                    });
                }
            }
            (true, true) => {
                if !negative_weight {
                    anti_atoms.push(QueryAtom {
                        table: gdb.evt[pred.index()],
                        bindings: bindings.clone(),
                    });
                }
            }
            (false, true) => {
                if !negative_weight {
                    anti_atoms.push(QueryAtom {
                        table: gdb.evt[pred.index()],
                        bindings: bindings.clone(),
                    });
                }
            }
            (false, false) => {
                if !negative_weight {
                    anti_atoms.push(QueryAtom {
                        table: gdb.evf[pred.index()],
                        bindings: bindings.clone(),
                    });
                    if mode == GroundingMode::LazyClosure && !has_exist {
                        reach_positions.push((atoms.len(), pred.index()));
                        atoms.push(QueryAtom {
                            table: gdb.reach[pred.index()],
                            bindings: bindings.clone(),
                        });
                        uses_reachable = true;
                    }
                }
            }
        }

        templates.push(LiteralTemplate {
            pred,
            positive,
            closed,
            args,
            exist_used,
        });
    }

    if templates.is_empty() {
        // A clause of only equality literals, all statically resolved.
        return Ok(None);
    }

    // 7. Domain atoms for unbound universal variables.
    let bound: Vec<usize> = atoms
        .iter()
        .flat_map(tuffy_rdbms::query::QueryAtom::variables)
        .collect();
    for (ui, v) in univ.iter().enumerate() {
        if !bound.contains(&ui) {
            let ty = var_type
                .get(v)
                .copied()
                .ok_or_else(|| err("variable with no inferable type".into()))?;
            atoms.push(QueryAtom {
                table: gdb.dom[ty.index()],
                bindings: vec![ColumnBinding::Var(ui)],
            });
        }
    }

    let exist_types: Vec<TypeId> = exists
        .iter()
        .map(|v| {
            var_type
                .get(v)
                .copied()
                .ok_or_else(|| err("existential variable with no inferable type".into()))
        })
        .collect::<Result<_, _>>()?;

    // LazySAT activity for negative-weight clauses: if every predicate
    // literal is a positive open-world literal without existentials, the
    // clause can only be violated (made true) by flipping one of its
    // atoms, which requires that atom to be active. Ground it as a union
    // over per-literal reachable-atom variants instead of the full
    // domain product.
    let mut union_variants: Vec<(QueryAtom, usize)> = Vec::new();
    if negative_weight
        && mode == GroundingMode::LazyClosure
        && !univ.is_empty()
        && templates
            .iter()
            .all(|t| t.positive && !t.closed && t.exist_used.is_empty())
    {
        for lit in &clause.literals {
            let Literal::Pred { atom, .. } = lit else {
                continue;
            };
            let pred = atom.predicate;
            let bindings: Vec<ColumnBinding> = atom
                .args
                .iter()
                .map(|term| match subst.resolve(*term) {
                    Term::Const(c) => ColumnBinding::Const(c.0),
                    Term::Var(v) => {
                        ColumnBinding::Var(univ_idx(v).expect("universal variable indexed above"))
                    }
                })
                .collect();
            union_variants.push((
                QueryAtom {
                    table: gdb.reach[pred.index()],
                    bindings,
                },
                pred.index(),
            ));
        }
        uses_reachable = true;
    }

    let query = if univ.is_empty() {
        None
    } else {
        Some(ConjunctiveQuery {
            atoms,
            anti_atoms,
            neq,
            neq_const,
            ranges: vec![],
            output: (0..univ.len()).collect(),
            // Outputs are unique per binding combination (all universal
            // variables are projected over set-valued tables), and the
            // closure's semi-naive variants are disjoint across rounds —
            // a DISTINCT pass would only burn a hash-build over the full
            // result.
            distinct: false,
        })
    };

    Ok(Some(CompiledClause {
        rule_index: clause.rule_index,
        weight: clause.weight,
        num_univ: univ.len(),
        exist_types,
        templates,
        query,
        uses_reachable,
        reach_positions,
        union_variants,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuffy_mln::clausify::clausify_program;
    use tuffy_mln::parser::{parse_evidence, parse_program};

    fn setup(src: &str, ev: &str) -> (MlnProgram, GroundingDb, Vec<ClausalRule>) {
        let mut p = parse_program(src).unwrap();
        let set = parse_evidence(&mut p, ev).unwrap();
        let domains = set.merged_domains(&p);
        let gdb = GroundingDb::build(&p, &set, &domains).unwrap();
        let clauses = clausify_program(&p);
        (p, gdb, clauses)
    }

    #[test]
    fn closed_negative_literals_become_joins() {
        let (p, gdb, clauses) = setup(
            "*wrote(person, paper)\ncat(paper, topic)\n1 wrote(x, p) => cat(p, Db)\n",
            "wrote(Joe, P1)\n",
        );
        let cc = compile_clause(&p, &gdb, &clauses[0], GroundingMode::LazyClosure)
            .unwrap()
            .unwrap();
        let q = cc.query.as_ref().unwrap();
        // One join atom (evt_wrote); head cat is open-positive → anti on evt_cat.
        assert_eq!(q.atoms.len(), 1);
        assert_eq!(q.atoms[0].table, gdb.evt[0]);
        assert_eq!(q.anti_atoms.len(), 1);
        assert!(!cc.uses_reachable);
        assert_eq!(cc.num_univ, 2);
    }

    #[test]
    fn open_negative_literals_join_reachable_in_lazy_mode() {
        let (p, gdb, clauses) = setup(
            "*refers(paper, paper)\ncat(paper, topic)\n2 cat(p1, c), refers(p1, p2) => cat(p2, c)\n",
            "refers(P1, P2)\ncat(P1, Db)\n",
        );
        let cc = compile_clause(&p, &gdb, &clauses[0], GroundingMode::LazyClosure)
            .unwrap()
            .unwrap();
        let q = cc.query.as_ref().unwrap();
        let cat = p.predicate_by_name("cat").unwrap();
        assert!(cc.uses_reachable);
        assert!(q.atoms.iter().any(|a| a.table == gdb.reach[cat.index()]));
        // Eager mode instead binds via domain tables.
        let cc2 = compile_clause(&p, &gdb, &clauses[0], GroundingMode::Eager)
            .unwrap()
            .unwrap();
        let q2 = cc2.query.as_ref().unwrap();
        assert!(!cc2.uses_reachable);
        assert!(q2.atoms.iter().any(|a| gdb.dom.contains(&a.table)));
    }

    #[test]
    fn inequality_from_equality_head() {
        let (p, gdb, clauses) = setup(
            "cat(paper, topic)\n5 cat(p, c1), cat(p, c2) => c1 = c2\n",
            "cat(P1, Db)\n",
        );
        let cc = compile_clause(&p, &gdb, &clauses[0], GroundingMode::LazyClosure)
            .unwrap()
            .unwrap();
        let q = cc.query.as_ref().unwrap();
        assert_eq!(q.neq.len(), 1);
        assert_eq!(cc.num_univ, 3);
        assert_eq!(cc.templates.len(), 2); // the equality is compiled away
    }

    #[test]
    fn disequality_head_unifies_variables() {
        // q(x), q(y) => x != y  ⇒ clausal ¬q(x) ∨ ¬q(y) ∨ x≠y; retained
        // groundings have x = y, so the compiled clause has ONE variable.
        let (p, gdb, clauses) = setup("q(t)\n1 q(x), q(y) => x != y\n", "q(A)\n");
        let cc = compile_clause(&p, &gdb, &clauses[0], GroundingMode::LazyClosure)
            .unwrap()
            .unwrap();
        assert_eq!(cc.num_univ, 1);
        // Both templates resolve to the same universal variable.
        assert_eq!(cc.templates.len(), 2);
    }

    #[test]
    fn negative_weight_skips_anti_joins() {
        let (p, gdb, clauses) = setup("cat(paper, topic)\n-1 cat(p, Db)\n", "cat(P1, Db)\n");
        let cc = compile_clause(&p, &gdb, &clauses[0], GroundingMode::LazyClosure)
            .unwrap()
            .unwrap();
        let q = cc.query.as_ref().unwrap();
        assert!(q.anti_atoms.is_empty());
        // p ranges over the paper domain.
        assert_eq!(q.atoms.len(), 1);
        assert!(gdb.dom.contains(&q.atoms[0].table));
    }

    #[test]
    fn existential_head_compiles_to_any_anti_join() {
        let (p, gdb, clauses) = setup(
            "*paper(paper)\n*wrote(person, paper)\npaper(x) => EXIST a wrote(a, x).\n",
            "paper(P1)\nwrote(Joe, P2)\n",
        );
        let cc = compile_clause(&p, &gdb, &clauses[0], GroundingMode::LazyClosure)
            .unwrap()
            .unwrap();
        assert_eq!(cc.exist_types.len(), 1);
        let q = cc.query.as_ref().unwrap();
        // Anti atom on evt_wrote with Any in the existential position.
        let wrote = p.predicate_by_name("wrote").unwrap();
        let anti = q
            .anti_atoms
            .iter()
            .find(|a| a.table == gdb.evt[wrote.index()])
            .unwrap();
        assert_eq!(anti.bindings[0], ColumnBinding::Any);
    }

    #[test]
    fn statically_unsatisfiable_clause_skipped() {
        // q(x), q(y) => x != y, x = y is unsat: x=y forced and x≠y forced.
        let (p, gdb, clauses) = setup("q(t)\n1 q(x) => x != A, x != B\n", "q(A)\n");
        // Parser distributes the conjunctive head into two rules; the first
        // forces x = A, the second x = B — each alone is satisfiable.
        assert_eq!(clauses.len(), 2);
        let cc = compile_clause(&p, &gdb, &clauses[0], GroundingMode::LazyClosure).unwrap();
        assert!(cc.is_some());
        // But a single clause with both conjuncts is impossible:
        let (p2, gdb2, clauses2) = setup("q(t)\n1 q(x) => x != A v q(x)\n", "q(A)\n");
        // (tautology: q(x) appears positively and negatively → clausify drops it)
        assert!(
            clauses2.is_empty() || {
                compile_clause(&p2, &gdb2, &clauses2[0], GroundingMode::LazyClosure)
                    .unwrap()
                    .is_some()
            }
        );
    }
}
