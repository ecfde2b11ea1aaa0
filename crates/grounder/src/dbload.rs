//! Bulk-loading a program's evidence into the RDBMS.
//!
//! §3.1: "These tables form the input to grounding, and Tuffy constructs
//! them using standard bulk-loading techniques." Per predicate `P` we load
//! `evt_P` (positive evidence tuples), `evf_P` (explicit negative
//! evidence), and `reach_P`, which starts as a copy of `evt_P` and grows
//! with *active* unknown atoms during the lazy closure (Appendix A.3).
//! Two more tables per predicate drive the closure's semi-naive rounds:
//! `reach_delta_P`, the atoms activated in the previous round, and
//! `reach_old_P`, `reach_P` as it stood at the start of the previous round
//! (so `reach_P` is always `reach_old_P` plus `reach_delta_P`). Per type
//! `T` we load the constant domain `dom_T`.
//!
//! The rows come straight from the [`EvidenceSet`] in insertion order; no
//! second evidence index is built for the load. Each evidence table is
//! sized exactly before it is filled, and `reach_P` and `reach_old_P`
//! start as copies of the filled `evt_P`.

use crate::registry::AtomRegistry;
use tuffy_mln::evidence::EvidenceSet;
use tuffy_mln::program::MlnProgram;
use tuffy_mln::schema::PredicateId;
use tuffy_mln::MlnError;
use tuffy_mrf::AtomId;
use tuffy_rdbms::{Database, TableId, TableSchema};

/// The grounding database: the engine instance plus table handles.
pub struct GroundingDb {
    /// The embedded database holding all grounding inputs.
    pub db: Database,
    /// Positive-evidence table per predicate.
    pub evt: Vec<TableId>,
    /// Negative-evidence table per predicate.
    pub evf: Vec<TableId>,
    /// Reachable-atom table per predicate (evt ∪ active unknown atoms).
    pub reach: Vec<TableId>,
    /// Per-predicate delta of `reach`: the atoms activated in the
    /// previous closure round. Drives semi-naive re-grounding — each
    /// round joins against the (small) delta instead of the full
    /// reachable set, the standard Datalog evaluation the SQL formulation
    /// gets for free.
    pub reach_delta: Vec<TableId>,
    /// Per-predicate `reach` as it stood at the start of the previous
    /// closure round: `reach` minus `reach_delta`. A semi-naive variant
    /// reads it at the reachable positions before its delta position, so
    /// a binding is returned only by the variant of its first new atom.
    pub reach_old: Vec<TableId>,
    /// Constant-domain table per type.
    pub dom: Vec<TableId>,
}

impl GroundingDb {
    /// Builds and bulk-loads all grounding tables. `domains` are the
    /// merged program + evidence constant domains
    /// ([`EvidenceSet::merged_domains`]). Each predicate's evidence
    /// tables hold its rows in the set's insertion order.
    pub fn build(
        program: &MlnProgram,
        ev: &EvidenceSet,
        domains: &[Vec<tuffy_mln::symbols::Symbol>],
    ) -> Result<GroundingDb, MlnError> {
        let mut db = Database::default();
        let mut evt = Vec::with_capacity(program.predicates.len());
        let mut evf = Vec::with_capacity(program.predicates.len());
        let mut reach = Vec::with_capacity(program.predicates.len());
        let mut reach_delta = Vec::with_capacity(program.predicates.len());
        let mut reach_old = Vec::with_capacity(program.predicates.len());
        let to_db = |e: tuffy_rdbms::DbError| MlnError::general(e.to_string());

        // Rows per predicate, (positive, negative), so that every table
        // the evidence fills is allocated once, at its exact size.
        let mut sizes = vec![(0, 0); program.predicates.len()];
        for e in ev.iter() {
            let (pos, neg) = &mut sizes[e.atom.predicate.index()];
            *if e.positive { pos } else { neg } += 1;
        }
        for (decl, &(pos, neg)) in program.predicates.iter().zip(&sizes) {
            let name = program.symbols.resolve(decl.name);
            let cols: Vec<String> = (0..decl.arity()).map(|i| format!("a{i}")).collect();
            let t = db
                .create_table(format!("evt_{name}"), TableSchema::new(cols.clone()))
                .map_err(to_db)?;
            let f = db
                .create_table(format!("evf_{name}"), TableSchema::new(cols.clone()))
                .map_err(to_db)?;
            let r = db
                .create_table(format!("reach_{name}"), TableSchema::new(cols.clone()))
                .map_err(to_db)?;
            let d = db
                .create_table(
                    format!("reach_delta_{name}"),
                    TableSchema::new(cols.clone()),
                )
                .map_err(to_db)?;
            let o = db
                .create_table(format!("reach_old_{name}"), TableSchema::new(cols))
                .map_err(to_db)?;
            for (table, rows) in [(t, pos), (f, neg), (r, pos), (o, pos)] {
                db.reserve_exact(table, rows);
            }
            evt.push(t);
            evf.push(f);
            reach.push(r);
            reach_delta.push(d);
            reach_old.push(o);
        }
        let mut args: Vec<u32> = Vec::new();
        for e in ev.iter() {
            let pi = e.atom.predicate.index();
            args.clear();
            args.extend(e.atom.args.iter().map(|s| s.0));
            let table = if e.positive { evt[pi] } else { evf[pi] };
            db.insert(table, &args).map_err(to_db)?;
        }
        for (pi, &t) in evt.iter().enumerate() {
            db.append(reach[pi], t).map_err(to_db)?;
            db.append(reach_old[pi], t).map_err(to_db)?;
        }

        let mut dom = Vec::with_capacity(program.types.len());
        for (ti, &tname) in program.types.iter().enumerate() {
            let name = program.symbols.resolve(tname);
            let t = db
                .create_table(format!("dom_{name}"), TableSchema::new(vec!["value"]))
                .map_err(to_db)?;
            db.reserve_exact(t, domains[ti].len());
            for c in &domains[ti] {
                db.insert(t, &[c.0]).map_err(to_db)?;
            }
            dom.push(t);
        }

        Ok(GroundingDb {
            db,
            evt,
            evf,
            reach,
            reach_delta,
            reach_old,
            dom,
        })
    }

    /// Adds a newly activated unknown atom to its predicate's reachable
    /// table (lazy-closure iteration). The atom is *not* added to the
    /// delta until [`GroundingDb::promote_deltas`] runs at round end.
    pub fn activate(&mut self, pred: PredicateId, args: &[u32]) {
        let t = self.reach[pred.index()];
        self.db
            .insert(t, args)
            .expect("reachable table arity mismatch");
    }

    /// Readies the next semi-naive round: appends every outgoing delta to
    /// its `reach_old` table, then refills the deltas with this round's
    /// activations, whose arguments are read from `registry`.
    pub fn promote_deltas(&mut self, registry: &AtomRegistry, activations: &[AtomId]) {
        for (&d, &o) in self.reach_delta.iter().zip(&self.reach_old) {
            if self.db.table(d).is_empty() {
                continue;
            }
            self.db
                .append(o, d)
                .expect("old reachable table arity mismatch");
            self.db.truncate(d);
        }
        for &aid in activations {
            let (pred, args) = registry.atom(aid);
            let t = self.reach_delta[pred.index()];
            self.db.insert(t, args).expect("delta table arity mismatch");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuffy_mln::parser::{parse_evidence, parse_program};

    fn program() -> (MlnProgram, tuffy_mln::evidence::EvidenceSet) {
        let mut p = parse_program(
            "*wrote(person, paper)\ncat(paper, topic)\n1 wrote(x, p) => cat(p, Db)\n",
        )
        .unwrap();
        let ev = parse_evidence(
            &mut p,
            "wrote(Joe, P1)\nwrote(Ann, P2)\n!cat(P1, Db)\ncat(P2, Ai)\n",
        )
        .unwrap();
        (p, ev)
    }

    #[test]
    fn tables_loaded() {
        let (p, set) = program();
        let domains = set.merged_domains(&p);
        let g = GroundingDb::build(&p, &set, &domains).unwrap();
        let wrote = p.predicate_by_name("wrote").unwrap();
        let cat = p.predicate_by_name("cat").unwrap();
        assert_eq!(g.db.table(g.evt[wrote.index()]).len(), 2);
        assert_eq!(g.db.table(g.evf[wrote.index()]).len(), 0);
        assert_eq!(g.db.table(g.evt[cat.index()]).len(), 1);
        assert_eq!(g.db.table(g.evf[cat.index()]).len(), 1);
        // reach starts as a copy of evt.
        assert_eq!(g.db.table(g.reach[cat.index()]).len(), 1);
        // Domains: person {Joe, Ann}, paper {P1, P2}, topic {Db, Ai}.
        let person = p.symbols.get("person").unwrap();
        let ti = p.types.iter().position(|&t| t == person).unwrap();
        assert_eq!(g.db.table(g.dom[ti]).len(), 2);
    }

    #[test]
    fn activation_grows_reachable() {
        let (p, set) = program();
        let domains = set.merged_domains(&p);
        let mut g = GroundingDb::build(&p, &set, &domains).unwrap();
        let cat = p.predicate_by_name("cat").unwrap();
        let before = g.db.table(g.reach[cat.index()]).len();
        g.activate(cat, &[77, 78]);
        assert_eq!(g.db.table(g.reach[cat.index()]).len(), before + 1);
    }

    #[test]
    fn promotion_appends_the_outgoing_delta_to_reach_old() {
        let (p, set) = program();
        let domains = set.merged_domains(&p);
        let mut g = GroundingDb::build(&p, &set, &domains).unwrap();
        let cat = p.predicate_by_name("cat").unwrap();
        let lens = |g: &GroundingDb| {
            let len = |t: &[TableId]| g.db.table(t[cat.index()]).len();
            (len(&g.reach_old), len(&g.reach_delta), len(&g.reach))
        };
        // reach_old starts as a copy of evt, like reach.
        assert_eq!(lens(&g), (1, 0, 1));
        let mut registry = AtomRegistry::new();
        for (round, args) in [[77, 78], [79, 78]].iter().enumerate() {
            let aid = registry.intern(cat, args);
            g.activate(cat, args);
            g.promote_deltas(&registry, &[aid]);
            // reach = reach_old + reach_delta, the delta this round's atom.
            assert_eq!(lens(&g), (1 + round, 1, 2 + round));
            let delta: Vec<&[u32]> = g.db.scan(g.reach_delta[cat.index()]).collect();
            assert_eq!(delta, [&args[..]]);
        }
    }
}
