//! Top-down (Alchemy-style) grounding — the paper's baseline.
//!
//! Alchemy grounds clauses "with a top-down procedure (similar to the
//! proof strategy in Prolog)" (§1): for each clause, backtrack over the
//! literals in program order, binding variables tuple-at-a-time from
//! in-memory per-predicate tuple lists (with single-column hash indexes,
//! as Alchemy keeps), then apply the same pruning. There is no join
//! reordering, no batch execution, and no multi-column join algorithm —
//! the three things the paper's lesion study shows the RDBMS contributes
//! (Table 6).
//!
//! The grounder holds every tuple store, the atom registry, the
//! deduplication set, and all ground clauses in memory simultaneously;
//! its `peak_bytes` statistic is correspondingly the *whole* footprint
//! (the paper's Table 4 contrast: "Alchemy has to hold everything in
//! memory" while Tuffy's intermediate state lives in the RDBMS).

use crate::bottomup::GroundingResult;
use crate::compile::{compile_clause, CompiledClause, GroundingMode};
use crate::dbload::GroundingDb;
use crate::emit::{constant_cost, Emitter, Grounded};
use crate::registry::AtomRegistry;
use crate::stats::GroundingStats;
use std::time::Instant;
use tuffy_mln::clausify::clausify_program;
use tuffy_mln::evidence::EvidenceSet;
use tuffy_mln::fxhash::{FxHashMap, FxHashSet};
use tuffy_mln::program::MlnProgram;
use tuffy_mln::MlnError;
use tuffy_mrf::MrfBuilder;
use tuffy_rdbms::query::{ColumnBinding, ConjunctiveQuery};
use tuffy_rdbms::TableId;

/// One in-memory tuple list with lazily built single-column hash indexes.
#[derive(Default)]
struct TupleStore {
    rows: Vec<Box<[u32]>>,
    /// Per-column index: value → row indices. Rebuilt when stale.
    index: FxHashMap<usize, FxHashMap<u32, Vec<u32>>>,
    /// Rows covered by the current indexes.
    indexed_upto: usize,
}

impl TupleStore {
    fn push(&mut self, row: &[u32]) {
        self.rows.push(row.into());
    }

    fn ensure_index(&mut self, col: usize) {
        if self.indexed_upto == self.rows.len() && self.index.contains_key(&col) {
            return;
        }
        // Indexes are append-only consistent: extend them to cover new rows.
        let upto = self.indexed_upto;
        for (&c, idx) in self.index.iter_mut() {
            for (i, row) in self.rows.iter().enumerate().skip(upto) {
                idx.entry(row[c]).or_default().push(i as u32);
            }
        }
        if !self.index.contains_key(&col) {
            let mut idx: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
            for (i, row) in self.rows.iter().enumerate() {
                idx.entry(row[col]).or_default().push(i as u32);
            }
            self.index.insert(col, idx);
        }
        self.indexed_upto = self.rows.len();
    }

    fn bytes(&self) -> usize {
        let data: usize = self.rows.iter().map(|r| r.len() * 4 + 16).sum();
        let idx: usize = self
            .index
            .values()
            .map(|m| m.values().map(|v| v.len() * 4 + 48).sum::<usize>())
            .sum();
        data + idx
    }
}

/// Grounds `program` top-down, producing the same MRF as
/// [`crate::ground_bottom_up`] (property-tested).
pub fn ground_top_down(
    program: &MlnProgram,
    evidence: &EvidenceSet,
    mode: GroundingMode,
) -> Result<GroundingResult, MlnError> {
    crate::stats::record_grounding();
    let start = Instant::now();
    evidence.validate(program)?;
    let domains = evidence.merged_domains(program);
    // The GroundingDb is built only so clause compilation has table ids to
    // reference; the top-down grounder never runs queries against it.
    let gdb = GroundingDb::build(program, evidence, &domains)?;
    let clauses = clausify_program(program);
    let compiled: Vec<CompiledClause> = clauses
        .iter()
        .map(|c| compile_clause(program, &gdb, c, mode))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();

    // Mirror the table contents in memory.
    let mut stores: FxHashMap<TableId, TupleStore> = FxHashMap::default();
    for pi in 0..program.predicates.len() {
        for t in [gdb.evt[pi], gdb.evf[pi], gdb.reach[pi]] {
            let mut s = TupleStore::default();
            for row in gdb.db.scan(t) {
                s.push(row);
            }
            stores.insert(t, s);
        }
    }
    for &t in &gdb.dom {
        let mut s = TupleStore::default();
        for row in gdb.db.scan(t) {
            s.push(row);
        }
        stores.insert(t, s);
    }

    let emitter = Emitter::new(&domains, evidence);
    let mut registry = AtomRegistry::new();
    let mut builder = MrfBuilder::new();
    let mut seen: FxHashSet<(u32, Box<[u32]>)> = FxHashSet::default();
    let mut stats = GroundingStats::default();
    let mut new_atoms: Vec<tuffy_mrf::AtomId> = Vec::new();

    let mut round = 0usize;
    loop {
        let mut activated = false;
        for cc in &compiled {
            if round > 0 && !cc.uses_reachable {
                continue;
            }
            match &cc.query {
                None => {
                    if round > 0 {
                        continue;
                    }
                    process_binding(
                        cc,
                        &[],
                        &emitter,
                        &mut registry,
                        &mut builder,
                        &mut seen,
                        &mut stats,
                        &mut new_atoms,
                        &mut stores,
                        &gdb,
                        &mut activated,
                    );
                }
                Some(q) => {
                    // Negative-weight all-positive clauses iterate one
                    // union variant per literal over the reachable atoms
                    // (LazySAT activity); other clauses run the query
                    // as-is. The whole reachable table is re-walked every
                    // round — Alchemy's repeated look-ahead recomputation.
                    let variants: Vec<ConjunctiveQuery> = if cc.union_variants.is_empty() {
                        vec![q.clone()]
                    } else {
                        cc.union_variants
                            .iter()
                            .map(|(atom, _)| {
                                let mut v = q.clone();
                                v.atoms.insert(0, atom.clone());
                                v
                            })
                            .collect()
                    };
                    for v in &variants {
                        let mut binding: Vec<Option<u32>> = vec![None; cc.num_univ];
                        backtrack(
                            v,
                            0,
                            &mut binding,
                            cc,
                            &emitter,
                            &mut registry,
                            &mut builder,
                            &mut seen,
                            &mut stats,
                            &mut new_atoms,
                            &mut stores,
                            &gdb,
                            &mut activated,
                        );
                    }
                }
            }
        }
        round += 1;
        if !activated || mode == GroundingMode::Eager {
            break;
        }
    }

    builder.reserve_atoms(registry.len());
    let store_bytes: usize = stores.values().map(TupleStore::bytes).sum();
    let mrf = builder.finish();
    stats.wall = start.elapsed();
    stats.rounds = round;
    stats.clauses = mrf.clauses().len();
    stats.atoms = registry.len();
    stats.peak_bytes = store_bytes
        + registry.bytes()
        + mrf.clause_bytes()
        + seen.len() * 48
        // Occurrence CSR: bounds array + one packed entry per literal.
        + (mrf.num_atoms() + 1) * std::mem::size_of::<u32>()
        + mrf.total_literals() * std::mem::size_of::<tuffy_mrf::Occurrence>();
    Ok(GroundingResult {
        mrf,
        registry,
        stats,
    })
}

/// Backtracks over the positive atoms of `q` in program order.
#[allow(clippy::too_many_arguments)]
fn backtrack(
    q: &ConjunctiveQuery,
    depth: usize,
    binding: &mut Vec<Option<u32>>,
    cc: &CompiledClause,
    emitter: &Emitter<'_>,
    registry: &mut AtomRegistry,
    builder: &mut MrfBuilder,
    seen: &mut FxHashSet<(u32, Box<[u32]>)>,
    stats: &mut GroundingStats,
    new_atoms: &mut Vec<tuffy_mrf::AtomId>,
    stores: &mut FxHashMap<TableId, TupleStore>,
    gdb: &GroundingDb,
    activated: &mut bool,
) {
    if depth == q.atoms.len() {
        // All universal variables bound (domain atoms guarantee this).
        // Enforce the inequality filters, then emit.
        for &(a, b) in &q.neq {
            if binding[a] == binding[b] {
                return;
            }
        }
        for &(v, c) in &q.neq_const {
            if binding[v] == Some(c) {
                return;
            }
        }
        let row: Vec<u32> = binding
            .iter()
            .map(|b| b.expect("complete binding"))
            .collect();
        process_binding(
            cc, &row, emitter, registry, builder, seen, stats, new_atoms, stores, gdb, activated,
        );
        return;
    }
    let atom = &q.atoms[depth];
    // Candidate rows: use a single-column hash index on the first bound
    // column (Alchemy-style), otherwise scan.
    let bound_col = atom.bindings.iter().position(|b| match b {
        ColumnBinding::Const(_) => true,
        ColumnBinding::Var(v) => binding[*v].is_some(),
        ColumnBinding::Any => false,
    });
    let candidate_ids: Vec<u32> = {
        let store = stores.get_mut(&atom.table).expect("store exists");
        match bound_col {
            Some(col) => {
                let value = match atom.bindings[col] {
                    ColumnBinding::Const(c) => c,
                    ColumnBinding::Var(v) => binding[v].unwrap(),
                    ColumnBinding::Any => unreachable!(),
                };
                store.ensure_index(col);
                store.index[&col].get(&value).cloned().unwrap_or_default()
            }
            None => (0..store.rows.len() as u32).collect(),
        }
    };
    for ri in candidate_ids {
        let row: Box<[u32]> = stores[&atom.table].rows[ri as usize].clone();
        // Check consistency and record which vars this row binds.
        let mut newly_bound: Vec<usize> = Vec::new();
        let mut ok = true;
        for (col, b) in atom.bindings.iter().enumerate() {
            match b {
                ColumnBinding::Const(c) => {
                    if row[col] != *c {
                        ok = false;
                        break;
                    }
                }
                ColumnBinding::Var(v) => match binding[*v] {
                    Some(val) => {
                        if row[col] != val {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        binding[*v] = Some(row[col]);
                        newly_bound.push(*v);
                    }
                },
                ColumnBinding::Any => {}
            }
        }
        if ok {
            backtrack(
                q,
                depth + 1,
                binding,
                cc,
                emitter,
                registry,
                builder,
                seen,
                stats,
                new_atoms,
                stores,
                gdb,
                activated,
            );
        }
        for v in newly_bound {
            binding[v] = None;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn process_binding(
    cc: &CompiledClause,
    row: &[u32],
    emitter: &Emitter<'_>,
    registry: &mut AtomRegistry,
    builder: &mut MrfBuilder,
    seen: &mut FxHashSet<(u32, Box<[u32]>)>,
    stats: &mut GroundingStats,
    new_atoms: &mut Vec<tuffy_mrf::AtomId>,
    stores: &mut FxHashMap<TableId, TupleStore>,
    gdb: &GroundingDb,
    activated: &mut bool,
) {
    stats.bindings_considered += 1;
    let key = (cc.rule_index as u32, Box::<[u32]>::from(row));
    if !seen.insert(key) {
        return;
    }
    new_atoms.clear();
    match emitter.emit(cc, row, registry, new_atoms) {
        Grounded::Satisfied => {
            add_base(builder, constant_cost(cc.weight, true));
        }
        Grounded::EmptyClause => {
            add_base(builder, constant_cost(cc.weight, false));
        }
        Grounded::Clause(lits) => {
            builder.add_clause_from_rule(lits, cc.weight, cc.rule_index as u32);
            for &aid in new_atoms.iter() {
                let (pred, args) = registry.atom(aid);
                let args: Vec<u32> = args.to_vec();
                let reach = gdb.reach[pred.index()];
                stores.get_mut(&reach).expect("reach store").push(&args);
                *activated = true;
            }
        }
    }
}

fn add_base(builder: &mut MrfBuilder, c: tuffy_mrf::Cost) {
    if c.hard > 0 {
        for _ in 0..c.hard {
            builder.add_clause(vec![], tuffy_mln::weight::Weight::Hard);
        }
    }
    if c.soft > 0.0 {
        builder.add_clause(vec![], tuffy_mln::weight::Weight::Soft(c.soft));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottomup::ground_bottom_up;
    use tuffy_mln::parser::{parse_evidence, parse_program};
    use tuffy_rdbms::OptimizerConfig;

    fn assert_equivalent(src: &str, evidence: &str) {
        let mut p = parse_program(src).unwrap();
        let ev = parse_evidence(&mut p, evidence).unwrap();
        let bu = ground_bottom_up(
            &p,
            &ev,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        let td = ground_top_down(&p, &ev, GroundingMode::LazyClosure).unwrap();
        assert_eq!(bu.stats.atoms, td.stats.atoms, "atom counts differ");
        assert_eq!(bu.stats.clauses, td.stats.clauses, "clause counts differ");
        assert_eq!(bu.mrf.base_cost, td.mrf.base_cost, "base costs differ");
        // Compare clause multisets through the registry name mapping.
        let canon = |r: &GroundingResult| {
            let mut v: Vec<String> = r
                .mrf
                .clauses()
                .iter()
                .map(|c| {
                    let mut lits: Vec<String> = c
                        .lits
                        .iter()
                        .map(|l| {
                            let (pred, args) = r.registry.atom(l.atom());
                            format!(
                                "{}{}({:?})",
                                if l.is_positive() { "" } else { "!" },
                                pred.0,
                                args
                            )
                        })
                        .collect();
                    lits.sort();
                    format!("{:?}:{}", c.weight, lits.join("|"))
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(&bu), canon(&td), "clause sets differ");
    }

    #[test]
    fn equivalent_on_figure1() {
        assert_equivalent(
            r#"
            *wrote(person, paper)
            *refers(paper, paper)
            cat(paper, category)
            5 cat(p, c1), cat(p, c2) => c1 = c2
            1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
            2 cat(p1, c), refers(p1, p2) => cat(p2, c)
            -1 cat(p, "Networking")
            "#,
            r#"
            wrote(Joe, P1)
            wrote(Joe, P2)
            wrote(Jake, P3)
            refers(P1, P3)
            cat(P2, DB)
            "#,
        );
    }

    #[test]
    fn equivalent_on_existentials() {
        assert_equivalent(
            "*paper(paper)\nwrote(person, paper)\n*person(person)\npaper(x) => EXIST a wrote(a, x).\n",
            "paper(P1)\npaper(P2)\nperson(Ann)\nperson(Bob)\n",
        );
    }

    #[test]
    fn equivalent_on_negative_weights() {
        assert_equivalent(
            "cat(paper, category)\n-1.5 cat(p, Net)\n",
            "cat(P1, Net)\n!cat(P2, Net)\ncat(P3, DB)\n",
        );
    }

    #[test]
    fn equivalent_in_eager_mode() {
        let src = "cat(paper, category)\n5 cat(p, c1), cat(p, c2) => c1 = c2\n";
        let evd = "cat(P1, DB)\ncat(P2, AI)\n!cat(P2, DB)\n";
        let mut p = parse_program(src).unwrap();
        let ev = parse_evidence(&mut p, evd).unwrap();
        let bu =
            ground_bottom_up(&p, &ev, GroundingMode::Eager, &OptimizerConfig::default()).unwrap();
        let td = ground_top_down(&p, &ev, GroundingMode::Eager).unwrap();
        assert_eq!(bu.stats.clauses, td.stats.clauses);
        assert_eq!(bu.stats.atoms, td.stats.atoms);
    }
}
