//! Bottom-up (RDBMS-backed) grounding — §3.1.
//!
//! Every clause's binding query runs inside the relational engine: the
//! cost-based planner ([`tuffy_rdbms::plan_query`]) chooses join orders
//! and algorithms (the source of the orders-of-magnitude grounding
//! speedups of Table 2) and the one executor
//! ([`tuffy_rdbms::execute_spill`]) walks that plan;
//! [`OptimizerConfig::mem_budget_bytes`] only decides how much of each
//! intermediate and result stays resident. The lazy closure of Appendix
//! A.3 iterates: grounding restricted to *reachable* atoms, newly
//! activated atoms appended to the reachable tables, repeat to fixpoint.
//! Use [`explain_grounding`] to dump the round-0 plans without executing
//! anything: it enumerates round 0's tasks with the grounder's own code,
//! so a variant split into value-range chunks shows the split
//! (`chunks=N on vK`) and one plan per chunk, with the range narrowing its
//! estimates, and a constant selection on a large table shows the
//! `IndexScan` that reads only its matching rows.
//!
//! # Parallel grounding and the deterministic-merge contract
//!
//! [`ground_bottom_up_threaded`] parallelizes each closure round over a
//! worker pool while keeping the [`GroundingResult`] **byte-identical at
//! every thread count**, including 1. The design:
//!
//! 1. **Snapshot-per-round.** Each round first enumerates an ordered
//!    task list — one task per clause variant, split further into
//!    value-range chunks for large driving tables. All tasks of a round
//!    query the *start-of-round* database state; activations become
//!    visible only in the next round, through its delta tables. The
//!    rounds are semi-naive and their variants disjoint by construction
//!    (`round_variants`): each (rule, binding) is returned by exactly
//!    one task of one round, so emission keeps no set of bindings it has
//!    seen. The one variant that returns a binding is the first, in task
//!    order, that would return it if every variant read the full
//!    reachable tables, so emission follows the first-encounter order of
//!    naive evaluation.
//! 2. **Deterministic task decomposition.** Chunking decisions depend
//!    only on table contents, *never* on the thread count or the config,
//!    so every thread count executes the identical task list. A
//!    variant's driving atom is its largest by *matching* rows: the rows
//!    of its table that match the constants it binds, counted exactly
//!    through the table's equality index, or the table's length when it
//!    binds none. The split points are quantiles of the chunked column
//!    over those matching rows only, so a constant selection on a large
//!    table (IE's and ER's per-word lexicon rules) is one task unless it
//!    alone matches enough rows to split, and no full column is sorted
//!    for it. A chunk restricts the driving atom's first bound variable
//!    to an inclusive value range
//!    ([`tuffy_rdbms::ConjunctiveQuery::ranges`]); disjoint ranges
//!    covering the whole `u32` domain partition the variant's binding
//!    multiset exactly, so how a variant is cut never changes what it
//!    emits (part 3).
//! 3. **Canonical row order.** Every task's result is sorted
//!    lexicographically by row content
//!    ([`tuffy_rdbms::exec::Batch::sort_rows`]; per run when it spilled)
//!    before emission, and a variant's sorted chunks and runs are k-way
//!    merged ([`merge_cursor`]) into one content-ordered stream. Emission
//!    order therefore depends only on the binding *set* of each variant —
//!    never on the join order, join algorithm, or estimates that
//!    produced it — which keeps atom numbering stable under
//!    optimizer changes and under evidence deltas that merely prune
//!    bindings (the incremental patch path relies on this).
//! 4. **Ordered merge.** Workers execute tasks from a shared queue, but
//!    results are buffered per task and consumed strictly in task-list
//!    order. Emission (atom numbering, clause construction, activation)
//!    stays sequential, so first-encounter atom ids, the clause multiset,
//!    provenance, and the CSR arena layout never depend on scheduling.
//!
//! Planning inputs are identical at every thread count too: a plan
//! depends only on the query, the round-start table contents of part 1
//! (their lengths and column indexes), and the config — never on what
//! other tasks executed.

use crate::compile::{compile_clause, CompiledClause, GroundingMode};
use crate::dbload::GroundingDb;
use crate::emit::{constant_cost, EmitBuf, Emitter, Grounded};
use crate::registry::AtomRegistry;
use crate::stats::GroundingStats;
use std::cmp::Ordering;
use std::time::{Duration, Instant};
use tuffy_mln::clausify::clausify_program;
use tuffy_mln::evidence::EvidenceSet;
use tuffy_mln::pool::pool_map;
use tuffy_mln::program::MlnProgram;
use tuffy_mln::MlnError;
use tuffy_mrf::{Mrf, MrfBuilder};
use tuffy_rdbms::query::{ColumnBinding, QueryAtom, VarId};
use tuffy_rdbms::{
    execute_spill, merge_cursor, plan_query, ConjunctiveQuery, Database, OptimizerConfig, Row,
    SpillManager, SpillableBatch,
};

/// The output of grounding: the MRF, the atom registry mapping dense atom
/// ids back to ground atoms, and run statistics.
///
/// Cloning is cheap by design: the [`Mrf`] arenas are `Arc` slices, so a
/// clone shares every clause column — the serving layer hands one
/// grounded generation to many concurrent readers this way.
#[derive(Clone)]
pub struct GroundingResult {
    /// The ground network.
    pub mrf: Mrf,
    /// Atom id ↔ ground atom mapping.
    pub registry: AtomRegistry,
    /// Statistics.
    pub stats: GroundingStats,
}

/// Grounds `program` under `evidence` bottom-up through the embedded
/// RDBMS, single-threaded. Equivalent to
/// [`ground_bottom_up_threaded`] with one thread — and, by the
/// deterministic-merge contract (module docs), produces the identical
/// [`GroundingResult`].
pub fn ground_bottom_up(
    program: &MlnProgram,
    evidence: &EvidenceSet,
    mode: GroundingMode,
    config: &OptimizerConfig,
) -> Result<GroundingResult, MlnError> {
    ground_bottom_up_threaded(program, evidence, mode, config, 1)
}

/// Minimum driving-table rows before a binding query is split into
/// value-range chunks.
const CHUNK_MIN_ROWS: usize = 2048;
/// Rows per chunk targeted by the quantile split.
const CHUNK_TARGET_ROWS: usize = 1024;
/// Maximum chunks per query variant.
const CHUNK_MAX: usize = 16;

/// One unit of parallel work within a closure round: a clause variant
/// (possibly restricted to one value-range chunk), or the empty binding
/// for clauses with no universal variables.
struct RoundTask {
    /// Index into the compiled-clause list.
    clause: usize,
    /// Variant-group id: the chunks of one clause variant share a group
    /// and are k-way merged back into a single content-ordered stream
    /// before emission.
    group: usize,
    /// The binding query; `None` grounds once with the empty binding.
    query: Option<ConjunctiveQuery>,
}

/// One variant group's binding rows, ready for ordered emission.
enum GroupRows {
    /// The clause grounds once with the empty binding.
    Empty,
    /// The variant's canonically ordered chunk results, merged lazily by
    /// [`merge_cursor`] so the merged relation is never materialized.
    /// Chunks partition bindings by a value range, so the merge
    /// reproduces exactly the order the unchunked result would have.
    /// The merged rows are a set: every universal variable is projected
    /// and every base table is a set, so the stream is strictly
    /// ascending.
    Rows(Vec<SpillableBatch>),
}

/// Splits a binding query into value-range chunks on the first bound
/// variable of its largest atom (classic parallel-hash-join
/// partitioning: only the big side is split; small sides are re-scanned
/// per chunk). An atom's size is the number of rows matching its
/// constants ([`const_matches`]), or its table's length when it binds
/// none, and the split points are quantiles of the chunked column over
/// those rows only. Returns `None` when the query is too small to be
/// worth splitting. Depends only on table contents — never on the thread
/// count or the config — so the task decomposition is identical for
/// every thread count (the determinism contract).
fn chunk_ranges(db: &Database, q: &ConjunctiveQuery) -> Option<(VarId, Vec<(u32, u32)>)> {
    let mut best: Option<(usize, usize, Option<Vec<Row<'_>>>)> = None; // (atom, rows, matches)
    for (i, a) in q.atoms.iter().enumerate() {
        if a.var_columns().is_empty() {
            continue;
        }
        let len = db.table(a.table).len();
        // A table below the threshold cannot match enough rows to split.
        let matches = if len >= CHUNK_MIN_ROWS {
            const_matches(db, a)
        } else {
            None
        };
        let rows = matches.as_ref().map_or(len, Vec::len);
        if best.as_ref().map_or(true, |&(_, b, _)| rows > b) {
            best = Some((i, rows, matches));
        }
    }
    let (ai, rows, matches) = best?;
    if rows < CHUNK_MIN_ROWS {
        return None;
    }
    let atom = &q.atoms[ai];
    let (v, c) = atom.var_columns()[0];
    if q.ranges.iter().any(|&(w, _, _)| w == v) {
        return None;
    }
    let mut vals: Vec<u32> = match matches {
        Some(rows) => rows.iter().map(|r| r[c]).collect(),
        None => db.scan(atom.table).map(|r| r[c]).collect(),
    };
    vals.sort_unstable();
    let k = (rows / CHUNK_TARGET_ROWS).clamp(2, CHUNK_MAX);
    let mut splits: Vec<u32> = (1..k).map(|i| vals[i * vals.len() / k]).collect();
    splits.sort_unstable();
    splits.dedup();
    // Inclusive, disjoint ranges covering the full u32 domain: every
    // binding lands in exactly one chunk, so the chunk multiset union is
    // exactly the unchunked multiset.
    let mut ranges: Vec<(u32, u32)> = Vec::with_capacity(splits.len() + 1);
    let mut lo = 0u32;
    for &s in &splits {
        if s < lo || s == u32::MAX {
            continue;
        }
        ranges.push((lo, s));
        lo = s + 1;
    }
    ranges.push((lo, u32::MAX));
    if ranges.len() < 2 {
        return None;
    }
    Some((v, ranges))
}

/// The rows of `atom`'s table that match every constant it binds, read
/// through the equality index of its first constant column; `None` when
/// it binds no constant (every row matches).
fn const_matches<'d>(db: &'d Database, atom: &QueryAtom) -> Option<Vec<Row<'d>>> {
    let mut consts = atom
        .bindings
        .iter()
        .enumerate()
        .filter_map(|(c, b)| match *b {
            ColumnBinding::Const(value) => Some((c, value)),
            _ => None,
        });
    let (col, value) = consts.next()?;
    let rest: Vec<(usize, u32)> = consts.collect();
    let rows = db.table(atom.table).lookup(col, value);
    Some(
        rows.filter(|r| rest.iter().all(|&(c, v)| r[c] == v))
            .collect(),
    )
}

/// `q` as a round runs it: one query per value-range chunk of
/// [`chunk_ranges`], each restricting the returned variable, or `q`
/// alone when it is not split.
fn split_into_chunks(db: &Database, q: ConjunctiveQuery) -> (Option<VarId>, Vec<ConjunctiveQuery>) {
    match chunk_ranges(db, &q) {
        Some((v, ranges)) => {
            let chunks = ranges
                .into_iter()
                .map(|(lo, hi)| {
                    let mut cq = q.clone();
                    cq.ranges.push((v, lo, hi));
                    cq
                })
                .collect();
            (Some(v), chunks)
        }
        None => (None, vec![q]),
    }
}

/// The binding-query variants `cc` runs in closure round `round`
/// (`None`: ground once with the empty binding). The variants of one round
/// are disjoint, and no variant returns a binding an earlier round
/// returned, so every binding reaches emission exactly once.
///
/// Round 0 runs each clause's full query. Later rounds are semi-naive:
/// a genuinely new binding uses at least one atom activated in the last
/// round, so variant k (in `reach_positions` order) reads the delta at
/// reachable position k, `reach_old` at the positions before k and
/// `reach` at those after. A binding whose new atoms sit at positions S
/// is returned by variant min(S) alone.
///
/// Negative-weight all-positive clauses instead run one union variant per
/// literal j, restricted to reachable (round 0) or newly reachable (later
/// rounds) atoms of that literal. It anti-joins `reach` for every literal
/// before j, and in later rounds `reach_old` for every literal after j: a
/// newly active binding comes from the first literal over a new atom, in
/// the first round any of its atoms is reachable.
fn round_variants(
    cc: &CompiledClause,
    round: usize,
    gdb: &GroundingDb,
) -> Vec<Option<ConjunctiveQuery>> {
    if round > 0 && !cc.uses_reachable {
        return Vec::new();
    }
    match &cc.query {
        None if round > 0 => Vec::new(),
        None => vec![None],
        Some(q) if !cc.union_variants.is_empty() => (0..cc.union_variants.len())
            .map(|j| {
                let mut v = q.clone();
                for (l, (atom, pred_idx)) in cc.union_variants.iter().enumerate() {
                    let table = if l < j {
                        gdb.reach[*pred_idx]
                    } else if l > j && round > 0 {
                        gdb.reach_old[*pred_idx]
                    } else {
                        continue;
                    };
                    v.anti_atoms.push(QueryAtom {
                        table,
                        bindings: atom.bindings.clone(),
                    });
                }
                let (atom, pred_idx) = &cc.union_variants[j];
                let mut a = atom.clone();
                if round > 0 {
                    a.table = gdb.reach_delta[*pred_idx];
                }
                v.atoms.insert(0, a);
                Some(v)
            })
            .collect(),
        Some(q) if round == 0 => vec![Some(q.clone())],
        Some(q) => (0..cc.reach_positions.len())
            .map(|k| {
                let mut v = q.clone();
                for (i, &(pos, pred_idx)) in cc.reach_positions.iter().enumerate() {
                    v.atoms[pos].table = match i.cmp(&k) {
                        Ordering::Less => gdb.reach_old[pred_idx],
                        Ordering::Equal => gdb.reach_delta[pred_idx],
                        Ordering::Greater => gdb.reach[pred_idx],
                    };
                }
                Some(v)
            })
            .collect(),
    }
}

/// Grounds `program` under `evidence` bottom-up, running each closure
/// round's binding queries on `threads` worker threads. The result is
/// byte-identical to the single-threaded run at any thread count — see
/// the module docs for the deterministic-merge contract.
pub fn ground_bottom_up_threaded(
    program: &MlnProgram,
    evidence: &EvidenceSet,
    mode: GroundingMode,
    config: &OptimizerConfig,
    threads: usize,
) -> Result<GroundingResult, MlnError> {
    crate::stats::record_grounding();
    let start = Instant::now();
    evidence.validate(program)?;
    let domains = evidence.merged_domains(program);
    let mut gdb = GroundingDb::build(program, evidence, &domains)?;
    let clauses = clausify_program(program);
    let compiled: Vec<CompiledClause> = clauses
        .iter()
        .map(|c| compile_clause(program, &gdb, c, mode))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();

    let emitter = Emitter::new(&domains, evidence);
    let mut registry = AtomRegistry::new();
    let mut builder = MrfBuilder::new();
    // Every (rule, binding) is emitted once by construction (see
    // `round_variants`); debug builds check it.
    #[cfg(debug_assertions)]
    let mut emitted: tuffy_mln::fxhash::FxHashSet<(u32, Box<[u32]>)> = Default::default();
    let mut stats = GroundingStats::default();
    let mut emit_buf = EmitBuf::default();
    let mut peak_result_bytes = 0usize;

    let to_mln = |e: tuffy_rdbms::DbError| MlnError::general(e.to_string());

    // One manager for the whole run. The budget bounds what any query
    // keeps resident (0 = everything); results over it arrive as sorted
    // runs, and the lazy k-way merge of phase C reads runs and resident
    // batches alike in canonical row order, so the deterministic-merge
    // contract — and the grounded output — do not depend on the budget.
    // Nothing touches the filesystem until a run is actually written.
    let mgr = SpillManager::file_backed(config.mem_budget_bytes).map_err(to_mln)?;

    let mut round = 0usize;
    loop {
        // Phase A: enumerate this round's tasks against the start-of-round
        // table state: each clause's variants for this round, large ones
        // split into value-range chunks.
        let mut tasks: Vec<RoundTask> = Vec::new();
        for (ci, cc) in compiled.iter().enumerate() {
            for variant in round_variants(cc, round, &gdb) {
                let group = tasks.last().map_or(0, |t| t.group + 1);
                let queries = match variant {
                    None => vec![None],
                    Some(q) => split_into_chunks(&gdb.db, q)
                        .1
                        .into_iter()
                        .map(Some)
                        .collect(),
                };
                for query in queries {
                    tasks.push(RoundTask {
                        clause: ci,
                        group,
                        query,
                    });
                }
            }
        }
        if tasks.is_empty() {
            round += 1;
            break;
        }

        // Phase B: plan and execute every task against the shared
        // start-of-round snapshot. Workers pull tasks from a shared
        // counter; results land in per-task slots, canonically ordered
        // (contract part 3) on the worker so the sort parallelizes too.
        type TaskResult = Result<Option<(SpillableBatch, Duration)>, tuffy_rdbms::DbError>;
        let results: Vec<TaskResult> = {
            let db = &gdb.db;
            pool_map(
                tasks.len(),
                &mut vec![(); threads.max(1)],
                |_, ti| match &tasks[ti].query {
                    None => Ok(None),
                    Some(q) => {
                        let t0 = Instant::now();
                        execute_spill(db, q, config, &mgr).map(|rows| Some((rows, t0.elapsed())))
                    }
                },
            )
        };

        // Phase C: ordered merge. Consume results strictly in task-list
        // order so atom numbering and clause order are independent of
        // scheduling; the chunks of one variant are gathered into one
        // group first. Every merged row is a binding no task emitted
        // before. Phase B has finished, so activating atoms here cannot
        // change what this round's anti-joins against `reach` saw.
        let mut round_activations: Vec<tuffy_mrf::AtomId> = Vec::new();
        let mut groups: Vec<(usize, GroupRows)> = Vec::new();
        {
            let mut pending: Vec<SpillableBatch> = Vec::new();
            let mut pending_clause = 0usize;
            let mut pending_group = usize::MAX;
            let flush = |groups: &mut Vec<(usize, GroupRows)>,
                         clause: usize,
                         pending: &mut Vec<SpillableBatch>| {
                if !pending.is_empty() {
                    groups.push((clause, GroupRows::Rows(std::mem::take(pending))));
                }
            };
            for (ti, result) in results.into_iter().enumerate() {
                let task = &tasks[ti];
                if task.group != pending_group {
                    flush(&mut groups, pending_clause, &mut pending);
                }
                pending_group = task.group;
                pending_clause = task.clause;
                match result.map_err(to_mln)? {
                    None => groups.push((task.clause, GroupRows::Empty)),
                    Some((rows, took)) => {
                        stats.queries += 1;
                        stats.query_exec += took;
                        if let SpillableBatch::Mem(b) = &rows {
                            peak_result_bytes = peak_result_bytes.max(b.bytes());
                        }
                        pending.push(rows);
                    }
                }
            }
            flush(&mut groups, pending_clause, &mut pending);
        }
        for (clause, rows) in groups {
            let cc = &compiled[clause];
            let mut emit_row = |row: &[u32]| {
                stats.bindings_considered += 1;
                #[cfg(debug_assertions)]
                debug_assert!(
                    emitted.insert((cc.rule_index as u32, row.into())),
                    "rule {} binding {row:?} emitted twice",
                    cc.rule_index
                );
                match emitter.emit(cc, row, &mut registry, &mut emit_buf) {
                    Grounded::Satisfied => builder.add_constant(constant_cost(cc.weight, true)),
                    Grounded::EmptyClause => {
                        builder.add_constant(constant_cost(cc.weight, false));
                    }
                    Grounded::Clause => {
                        builder.add_clause_from_rule(
                            emit_buf.lits(),
                            cc.weight,
                            cc.rule_index as u32,
                        );
                        for &aid in emit_buf.new_atoms() {
                            let (pred, args) = registry.atom(aid);
                            gdb.activate(pred, args);
                        }
                        round_activations.extend_from_slice(emit_buf.new_atoms());
                    }
                }
            };
            match &rows {
                GroupRows::Empty => emit_row(&[]),
                GroupRows::Rows(parts) => {
                    // Stream the lazily-merged canonical order: at most
                    // one read buffer per spilled run is resident.
                    let mut cur = merge_cursor(parts, &mgr).map_err(to_mln)?;
                    let mut row: Vec<u32> = Vec::new();
                    #[cfg(debug_assertions)]
                    let mut prev: Vec<u32> = Vec::new();
                    while cur.next_into(&mut row).map_err(to_mln)? {
                        #[cfg(debug_assertions)]
                        {
                            // Rows are never empty, so an empty `prev` is
                            // the first row.
                            debug_assert!(prev < row, "rows of a group must strictly ascend");
                            prev.clone_from(&row);
                        }
                        emit_row(&row);
                    }
                }
            }
        }
        round += 1;
        if round_activations.is_empty() || mode == GroundingMode::Eager {
            break;
        }
        gdb.promote_deltas(&registry, &round_activations);
    }

    builder.reserve_atoms(registry.len());
    let mrf = builder.finish();
    stats.wall = start.elapsed();
    stats.rounds = round;
    stats.clauses = mrf.clauses().len();
    stats.atoms = registry.len();
    stats.peak_bytes = registry.bytes() + peak_result_bytes;
    stats.spill = mgr.stats();
    Ok(GroundingResult {
        mrf,
        registry,
        stats,
    })
}

/// Plans every compiled clause's round-0 binding queries and renders the
/// plans as an `EXPLAIN` report — the paper's central mechanism made
/// inspectable without executing anything. Surfaced by the CLI's
/// `--explain` flag.
///
/// The report shows the tasks round 0 runs: union-variant clauses
/// (LazySAT activity for negative weights) report one plan per variant,
/// and a variant the grounder splits into value-range chunks reports the
/// split (`chunks=N on vK`) and then one plan per chunk, each headed by
/// its range. Clauses with no universal variables ground once with the
/// empty binding and have no plan.
pub fn explain_grounding(
    program: &MlnProgram,
    evidence: &EvidenceSet,
    mode: GroundingMode,
    config: &OptimizerConfig,
) -> Result<String, MlnError> {
    evidence.validate(program)?;
    let domains = evidence.merged_domains(program);
    let gdb = GroundingDb::build(program, evidence, &domains)?;
    let clauses = clausify_program(program);
    let to_mln = |e: tuffy_rdbms::DbError| MlnError::general(e.to_string());
    let mut out = String::new();
    for clause in &clauses {
        let Some(cc) = compile_clause(program, &gdb, clause, mode)? else {
            continue;
        };
        let header = format!(
            "clause {} (weight {}, {} universal vars)",
            cc.rule_index, cc.weight, cc.num_univ
        );
        for (vi, variant) in round_variants(&cc, 0, &gdb).into_iter().enumerate() {
            let Some(q) = variant else {
                out.push_str(&header);
                out.push_str(": grounds once with the empty binding\n\n");
                continue;
            };
            out.push_str(&header);
            if !cc.union_variants.is_empty() {
                out.push_str(&format!(", activity variant {vi}"));
            }
            let (chunked, queries) = split_into_chunks(&gdb.db, q);
            if let Some(v) = chunked {
                out.push_str(&format!(", chunks={} on v{v}", queries.len()));
            }
            out.push('\n');
            for q in &queries {
                if let (Some(v), Some(&(_, lo, hi))) = (chunked, q.ranges.last()) {
                    out.push_str(&format!("chunk v{v} in [{lo}, {hi}]\n"));
                }
                out.push_str(&plan_query(&gdb.db, q, config).map_err(to_mln)?.explain());
                out.push('\n');
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuffy_mln::parser::{parse_evidence, parse_program};
    use tuffy_rdbms::TableId;

    fn figure1_program() -> (MlnProgram, tuffy_mln::evidence::EvidenceSet) {
        let mut p = parse_program(
            r#"
            *wrote(person, paper)
            *refers(paper, paper)
            cat(paper, category)
            5 cat(p, c1), cat(p, c2) => c1 = c2
            1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
            2 cat(p1, c), refers(p1, p2) => cat(p2, c)
            -1 cat(p, "Networking")
            "#,
        )
        .unwrap();
        let ev = parse_evidence(
            &mut p,
            r#"
            wrote(Joe, P1)
            wrote(Joe, P2)
            wrote(Jake, P3)
            refers(P1, P3)
            cat(P2, DB)
            "#,
        )
        .unwrap();
        (p, ev)
    }

    /// The tables each variant reads, per `reach_positions` slot (join
    /// atoms) and in order (anti atoms).
    #[test]
    fn round_variants_are_semi_naive() {
        let mut p = parse_program(
            "a(t)\nb(t)\nc(t)\nd(t)\n1 a(x), b(x), c(x) => d(x)\n-1 a(x) v b(x) v c(x)\n",
        )
        .unwrap();
        let ev = parse_evidence(&mut p, "a(K)\n").unwrap();
        let gdb = GroundingDb::build(&p, &ev, &ev.merged_domains(&p)).unwrap();
        let compiled: Vec<CompiledClause> = clausify_program(&p)
            .iter()
            .map(|c| compile_clause(&p, &gdb, c, GroundingMode::LazyClosure).unwrap())
            .map(Option::unwrap)
            .collect();
        let pred = |name: &str| p.predicate_by_name(name).unwrap().index();
        let [a, b, c] = [pred("a"), pred("b"), pred("c")];

        // Three reachable positions: one variant at round 0, three later.
        let join = &compiled[0];
        assert_eq!(join.reach_positions.len(), 3);
        assert_eq!(round_variants(join, 0, &gdb).len(), 1);
        let tables = |q: &ConjunctiveQuery| -> Vec<TableId> {
            join.reach_positions
                .iter()
                .map(|&(pos, _)| q.atoms[pos].table)
                .collect()
        };
        let round1: Vec<Vec<TableId>> = round_variants(join, 1, &gdb)
            .iter()
            .map(|v| tables(v.as_ref().unwrap()))
            .collect();
        assert_eq!(
            round1,
            [
                [gdb.reach_delta[a], gdb.reach[b], gdb.reach[c]],
                [gdb.reach_old[a], gdb.reach_delta[b], gdb.reach[c]],
                [gdb.reach_old[a], gdb.reach_old[b], gdb.reach_delta[c]],
            ]
        );

        // Union variant j reads literal j's atom and anti-joins `reach`
        // before j, and from round 1 on `reach_old` after j.
        let union = &compiled[1];
        let reads = |round: usize| -> Vec<(TableId, Vec<TableId>)> {
            round_variants(union, round, &gdb)
                .into_iter()
                .map(|v| {
                    let q = v.unwrap();
                    (
                        q.atoms[0].table,
                        q.anti_atoms.iter().map(|x| x.table).collect(),
                    )
                })
                .collect()
        };
        assert_eq!(
            reads(0),
            [
                (gdb.reach[a], vec![]),
                (gdb.reach[b], vec![gdb.reach[a]]),
                (gdb.reach[c], vec![gdb.reach[a], gdb.reach[b]]),
            ]
        );
        assert_eq!(
            reads(1),
            [
                (gdb.reach_delta[a], vec![gdb.reach_old[b], gdb.reach_old[c]]),
                (gdb.reach_delta[b], vec![gdb.reach[a], gdb.reach_old[c]]),
                (gdb.reach_delta[c], vec![gdb.reach[a], gdb.reach[b]]),
            ]
        );
    }

    #[test]
    fn grounds_figure1() {
        let (p, ev) = figure1_program();
        let r = ground_bottom_up(
            &p,
            &ev,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        // Evidence cat(P2,DB) propagates: F2 (Joe wrote P1,P2) activates
        // cat(P1,DB); F3 (P1 refers P3) activates cat(P3,DB).
        assert!(r.stats.atoms >= 2, "atoms = {}", r.stats.atoms);
        assert!(r.stats.clauses >= 2, "clauses = {}", r.stats.clauses);
        assert!(r.stats.rounds >= 2);
        // Under LazySAT activity the negative-weight F5 grounds only for
        // *active* cat(p, Networking) atoms — and label propagation only
        // activates DB labels here, so the lazy MRF has no F5 clause.
        let has_neg = |g: &GroundingResult| {
            g.mrf
                .clauses()
                .iter()
                .any(|c| c.weight == tuffy_mln::weight::Weight::Soft(-1.0))
        };
        assert!(!has_neg(&r));
        // Eager grounding keeps every retained F5 grounding.
        let eager =
            ground_bottom_up(&p, &ev, GroundingMode::Eager, &OptimizerConfig::default()).unwrap();
        assert!(has_neg(&eager));
    }

    #[test]
    fn closure_reaches_fixpoint_on_chain() {
        // Label propagation along a refers-chain of length 4 requires 4+
        // closure rounds.
        let mut p = parse_program(
            "*refers(paper, paper)\ncat(paper, category)\n2 cat(p1, c), refers(p1, p2) => cat(p2, c)\n",
        )
        .unwrap();
        let ev = parse_evidence(
            &mut p,
            "refers(P1, P2)\nrefers(P2, P3)\nrefers(P3, P4)\nrefers(P4, P5)\ncat(P1, DB)\n",
        )
        .unwrap();
        let r = ground_bottom_up(
            &p,
            &ev,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        // Atoms cat(P2..P5, DB) all activated.
        assert_eq!(r.stats.atoms, 4);
        assert_eq!(r.stats.clauses, 4);
        assert!(r.stats.rounds >= 4, "rounds = {}", r.stats.rounds);
    }

    #[test]
    fn eager_mode_grounds_everything() {
        let mut p =
            parse_program("cat(paper, category)\n5 cat(p, c1), cat(p, c2) => c1 = c2\n").unwrap();
        let ev = parse_evidence(&mut p, "cat(P1, DB)\n!cat(P2, AI)\ncat(P3, DB)\n").unwrap();
        let eager =
            ground_bottom_up(&p, &ev, GroundingMode::Eager, &OptimizerConfig::default()).unwrap();
        let lazy = ground_bottom_up(
            &p,
            &ev,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        // Eager grounds at least as much as the closure.
        assert!(eager.stats.clauses >= lazy.stats.clauses);
    }

    #[test]
    fn hard_existential_rule_violated_constant() {
        // Papers must have authors; P2 has none and wrote is closed-world:
        // one hard base-cost violation.
        let mut p = parse_program(
            "*paper(paper)\n*wrote(person, paper)\npaper(x) => EXIST a wrote(a, x).\n",
        )
        .unwrap();
        let ev = parse_evidence(&mut p, "paper(P1)\npaper(P2)\nwrote(Joe, P1)\n").unwrap();
        let r = ground_bottom_up(
            &p,
            &ev,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        assert_eq!(r.mrf.base_cost.hard, 1);
        assert_eq!(r.stats.clauses, 0);
    }

    #[test]
    fn grounding_is_bit_identical_at_every_budget() {
        let (p, ev) = figure1_program();
        let reference = ground_bottom_up(
            &p,
            &ev,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        // A budget small enough that even this toy workload spills.
        for budget in [64usize, 4096] {
            let cfg = OptimizerConfig {
                mem_budget_bytes: budget,
                ..Default::default()
            };
            let r = ground_bottom_up(&p, &ev, GroundingMode::LazyClosure, &cfg).unwrap();
            assert_eq!(r.stats.clauses, reference.stats.clauses);
            assert_eq!(r.stats.atoms, reference.stats.atoms);
            // Identical atom numbering and clause arenas, bit for bit.
            for aid in 0..reference.registry.len() {
                let aid = aid as tuffy_mrf::AtomId;
                assert_eq!(r.registry.atom(aid), reference.registry.atom(aid));
            }
            let (a, b) = (r.mrf.export_columns(), reference.mrf.export_columns());
            assert_eq!(a.lit_start, b.lit_start);
            assert_eq!(a.lit_arena, b.lit_arena);
            assert_eq!(a.weights, b.weights);
            assert_eq!(a.provenance, b.provenance);
            assert_eq!(a.base_cost, b.base_cost);
        }
    }

    #[test]
    fn all_optimizer_configs_produce_identical_mrfs() {
        use tuffy_rdbms::{JoinAlgorithmPolicy, JoinOrderPolicy};
        let (p, ev) = figure1_program();
        let reference = ground_bottom_up(
            &p,
            &ev,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        for join_order in [JoinOrderPolicy::Auto, JoinOrderPolicy::Program] {
            for join_algorithm in [
                JoinAlgorithmPolicy::Auto,
                JoinAlgorithmPolicy::NestedLoopOnly,
            ] {
                for pushdown in [true, false] {
                    let cfg = OptimizerConfig {
                        join_order,
                        join_algorithm,
                        pushdown,
                        ..Default::default()
                    };
                    let r = ground_bottom_up(&p, &ev, GroundingMode::LazyClosure, &cfg).unwrap();
                    assert_eq!(r.stats.clauses, reference.stats.clauses);
                    assert_eq!(r.stats.atoms, reference.stats.atoms);
                }
            }
        }
    }
}
