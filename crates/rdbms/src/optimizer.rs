//! Cost-based planning of conjunctive queries.
//!
//! This module is the *planning* half of the engine: it compiles a
//! [`ConjunctiveQuery`] into an explicit, costed
//! [`QueryPlan`] tree. Execution lives in
//! [`crate::executor`]; the two meet only through the plan IR in
//! [`crate::plan`], so plans can be inspected (`EXPLAIN`), golden-tested,
//! and profiled.
//!
//! The planner implements exactly the three mechanisms the paper's lesion
//! study isolates (Table 6, Appendix C.2):
//!
//! 1. **join order** — greedy smallest-intermediate-first ordering driven
//!    by estimates from table lengths (disable with
//!    [`JoinOrderPolicy::Program`], which mimics Alchemy's literal order);
//! 2. **join algorithms** — hash join by default, sort-merge for very
//!    large equi-joins, nested loop otherwise (restrict with
//!    [`JoinAlgorithmPolicy::NestedLoopOnly`]);
//! 3. **predicate pushdown** — constant filters evaluated at scan time
//!    (disable with `pushdown: false` to defer them above the joins as a
//!    top-level `FilterScan` over carried check columns). A pushed-down
//!    `col = const` on a table larger than one page reads the table's
//!    equality index instead of the whole table (`IndexScan`); under the
//!    lesion no scan uses an index.
//!
//! Anti-joins (`NOT EXISTS` pruning) are applied as early as their
//! correlation variables are available. Fully-constant atoms (no variable
//! bindings) compile to an existence check — `Distinct` over a filtered
//! scan, cross-joined in — regardless of the pushdown lesion, which keeps
//! result multiplicity identical across all configurations.
//!
//! # Estimates come from table lengths
//!
//! The planner keeps no statistics and needs no `ANALYZE`: every
//! estimate is read from the current table lengths. Each column of a
//! table of `n` rows is taken to hold `n` distinct values (capped by the
//! atom's estimated rows), so a pushed-down `col = const` keeps `1/n` of
//! the rows, and an equi-join divides the product of its inputs by the
//! larger distinct count of each shared variable. The other filters use
//! the fixed selectivities below. A plan is therefore a function of
//! (query, current table contents, config) only — never of what was
//! executed before — so the plan `EXPLAIN` prints is the plan that runs,
//! and [`crate::executor::execute_profiled`] reports estimated
//! versus actual rows for each of its nodes.

use crate::catalog::Database;
use crate::error::DbError;
use crate::plan::{JoinNode, NodeInfo, PhysicalPlan, PlanColumn, PlanOp, QueryPlan, ScanNode};
use crate::pred::Pred;
use crate::query::{ColumnBinding, ConjunctiveQuery, QueryAtom, VarId};
use crate::storage::PAGE_ROWS;

/// Join-order selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JoinOrderPolicy {
    /// Greedy cost-based ordering (the default).
    #[default]
    Auto,
    /// Join atoms in the order they appear in the query — the order the
    /// literals appear in the MLN clause, as Alchemy's nested loops do.
    Program,
}

/// Join-algorithm selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JoinAlgorithmPolicy {
    /// Hash / sort-merge / nested-loop chosen by cost (the default).
    #[default]
    Auto,
    /// Nested loops only — the paper's "fixed join algorithm" lesion.
    NestedLoopOnly,
}

/// Optimizer configuration (the lesion knobs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Join-order policy.
    pub join_order: JoinOrderPolicy,
    /// Join-algorithm policy.
    pub join_algorithm: JoinAlgorithmPolicy,
    /// Whether constant predicates are pushed into scans.
    pub pushdown: bool,
    /// Memory budget in bytes for intermediate join state; `0` is
    /// unbounded (everything stays in RAM). The budget never selects a
    /// different executor: the grounder hands it to the
    /// [`crate::SpillManager`] its queries run under
    /// ([`crate::executor::execute_spill`]), and relations over it are
    /// grace-hash partitioned and kept as sorted on-disk runs instead of
    /// resident batches.
    pub mem_budget_bytes: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            join_order: JoinOrderPolicy::Auto,
            join_algorithm: JoinAlgorithmPolicy::Auto,
            pushdown: true,
            mem_budget_bytes: 0,
        }
    }
}

/// Both sides at least this large ⇒ prefer sort-merge over hash (models
/// PostgreSQL's preference for merge joins on very large inputs).
const SORT_MERGE_THRESHOLD: usize = 1 << 17;

/// Heuristic selectivity of a residual (non-equi) filter predicate.
const RESIDUAL_SELECTIVITY: f64 = 0.9;

/// Heuristic fraction of rows surviving a `NOT EXISTS` anti-join.
const ANTI_SELECTIVITY: f64 = 0.9;

/// Heuristic selectivity of one deferred constant filter (pushdown
/// lesion; a pushed-down one keeps `1/len` of its table's rows).
const DEFERRED_CONST_SELECTIVITY: f64 = 0.1;

/// Heuristic fraction of a table's rows inside one value range (the
/// parallel grounder's chunk restriction).
const RANGE_SELECTIVITY: f64 = 0.5;

/// Per-atom planning info derived from its table's length.
struct AtomInfo {
    /// Estimated rows after pushed-down filters.
    est_rows: f64,
    /// Estimated NDV per bound variable.
    var_ndv: Vec<(VarId, f64)>,
}

fn atom_info(
    db: &Database,
    atom: &QueryAtom,
    pushdown: bool,
    ranges: &[(VarId, u32, u32)],
) -> AtomInfo {
    let len = db.table(atom.table).len();
    // Every column is taken to hold `len` distinct values.
    let ndv = len.max(1) as f64;
    let mut est = len as f64;
    if pushdown {
        for b in &atom.bindings {
            if matches!(b, ColumnBinding::Const(_)) {
                est /= ndv;
            }
        }
    }
    // Value-range restrictions are always pushed (they are structural,
    // not lesioned): narrow the estimate once per restricted variable
    // this atom binds.
    let var_cols = atom.var_columns();
    for &(v, ..) in ranges {
        if var_cols.iter().any(|&(w, _)| w == v) {
            est *= RANGE_SELECTIVITY;
        }
    }
    let var_ndv = var_cols
        .into_iter()
        .map(|(v, _)| (v, ndv.min(est.max(1.0))))
        .collect();
    AtomInfo {
        est_rows: est.max(0.0),
        var_ndv,
    }
}

/// Estimated cardinality of joining two inputs on `shared` variables.
fn join_estimate(
    left_rows: f64,
    left_ndv: &[(VarId, f64)],
    right: &AtomInfo,
    shared: &[VarId],
) -> f64 {
    let mut est = left_rows * right.est_rows;
    for v in shared {
        let l = left_ndv
            .iter()
            .find(|(w, _)| w == v)
            .map_or(1.0, |(_, d)| *d);
        let r = right
            .var_ndv
            .iter()
            .find(|(w, _)| w == v)
            .map_or(1.0, |(_, d)| *d);
        est /= l.max(r).max(1.0);
    }
    est
}

/// Physical join algorithm chosen for an equi-join step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JoinAlgo {
    Hash,
    SortMerge,
    NestedLoop,
}

fn choose_algo(config: &OptimizerConfig, left_rows: f64, right_rows: f64) -> JoinAlgo {
    match config.join_algorithm {
        JoinAlgorithmPolicy::NestedLoopOnly => JoinAlgo::NestedLoop,
        JoinAlgorithmPolicy::Auto => {
            if left_rows >= SORT_MERGE_THRESHOLD as f64 && right_rows >= SORT_MERGE_THRESHOLD as f64
            {
                JoinAlgo::SortMerge
            } else {
                JoinAlgo::Hash
            }
        }
    }
}

/// Estimated cost of performing one join, excluding child costs.
fn join_cost(algo: JoinAlgo, left: f64, right: f64, out: f64) -> f64 {
    match algo {
        JoinAlgo::Hash => left + right + out,
        JoinAlgo::SortMerge => {
            left * (left + 1.0).log2().max(1.0) + right * (right + 1.0).log2().max(1.0) + out
        }
        JoinAlgo::NestedLoop => left * right,
    }
}

/// One output column of a partially-built plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PlanCol {
    /// Binds a query variable.
    Var(VarId),
    /// Carries an unfiltered constant column for the deferred-filter
    /// lesion; the constant it must eventually equal rides along.
    Check(u32),
}

/// Planner working state: the tree built so far plus its column layout.
struct Acc {
    node: PhysicalPlan,
    cols: Vec<PlanCol>,
    ndv: Vec<(VarId, f64)>,
}

impl Acc {
    fn var_col(&self, v: VarId) -> Option<usize> {
        self.cols
            .iter()
            .position(|c| matches!(c, PlanCol::Var(w) if *w == v))
    }

    fn has_var(&self, v: VarId) -> bool {
        self.var_col(v).is_some()
    }

    fn plan_columns(&self) -> Vec<PlanColumn> {
        to_plan_columns(&self.cols)
    }
}

/// Converts the planner's internal column layout into the public
/// positional per-column annotation.
fn to_plan_columns(cols: &[PlanCol]) -> Vec<PlanColumn> {
    cols.iter()
        .map(|c| match c {
            PlanCol::Var(v) => PlanColumn::Var(*v),
            PlanCol::Check(_) => PlanColumn::Check,
        })
        .collect()
}

/// Plans `query` against `db`, estimating from the tables' current
/// lengths. The returned plan is immutable: execute it with
/// [`crate::executor::execute`] (against this state of the database or
/// a later one), or render it with `{}` for `EXPLAIN`.
pub fn plan_query(
    db: &Database,
    query: &ConjunctiveQuery,
    config: &OptimizerConfig,
) -> Result<QueryPlan, DbError> {
    if query.atoms.is_empty() {
        return Err(DbError::BadQuery("no positive atoms".into()));
    }
    let bound = query.bound_variables();
    for v in &query.output {
        if !bound.contains(v) {
            return Err(DbError::UnboundVariable(*v));
        }
    }
    for (v, _, _) in &query.ranges {
        if !bound.contains(v) {
            return Err(DbError::UnboundVariable(*v));
        }
    }
    let infos = compute_infos(db, query, config);
    let order = choose_order(query, &infos, config);

    let mut acc: Option<Acc> = None;
    let mut anti_done = vec![false; query.anti_atoms.len()];
    let mut applied_neq = vec![false; query.neq.len()];
    let mut applied_neq_const = vec![false; query.neq_const.len()];

    for &ai in &order {
        let (scan, scan_cols) = scan_subtree(db, query, &query.atoms[ai], config, &infos[ai]);
        acc = Some(match acc {
            None => Acc {
                node: scan,
                cols: scan_cols,
                ndv: infos[ai].var_ndv.clone(),
            },
            Some(prev) => join_step(prev, scan, scan_cols, &infos[ai], config),
        });
        let cur = acc.as_mut().unwrap();
        apply_antis(db, query, &bound, cur, &mut anti_done, config)?;
        apply_residuals(query, cur, &mut applied_neq, &mut applied_neq_const);
    }
    let mut acc = acc.expect("at least one atom");

    if anti_done.iter().any(|d| !d) {
        return Err(DbError::BadQuery(
            "anti-join with variables never bound by positive atoms".into(),
        ));
    }
    if applied_neq.iter().any(|a| !a) || applied_neq_const.iter().any(|a| !a) {
        return Err(DbError::BadQuery(
            "inequality over variables never bound".into(),
        ));
    }

    // Deferred constant filters (pushdown lesion): the carried check
    // columns are filtered here, above every join.
    let checks: Vec<Pred> = acc
        .cols
        .iter()
        .enumerate()
        .filter_map(|(i, c)| match c {
            PlanCol::Check(value) => Some(Pred::ColEqConst {
                col: i,
                value: *value,
            }),
            PlanCol::Var(_) => None,
        })
        .collect();
    if !checks.is_empty() {
        let est = acc.node.info.est_rows * DEFERRED_CONST_SELECTIVITY.powi(checks.len() as i32);
        let cost = acc.node.info.est_cost + acc.node.info.est_rows;
        let width = acc.node.info.width;
        let cols = acc.plan_columns();
        acc.node = PhysicalPlan {
            op: PlanOp::FilterScan {
                input: Box::new(acc.node),
                preds: checks,
            },
            info: NodeInfo {
                id: 0,
                est_rows: est,
                est_cost: cost,
                width,
                cols,
            },
        };
    }

    // Final projection to the output variables (inside a Distinct node
    // when the query deduplicates).
    let out_cols: Vec<usize> = query
        .output
        .iter()
        .map(|v| acc.var_col(*v).ok_or(DbError::UnboundVariable(*v)))
        .collect::<Result<_, _>>()?;
    let (root, output) = if query.distinct {
        let est = acc.node.info.est_rows;
        let cost = acc.node.info.est_cost + est;
        let cols = query.output.iter().map(|v| PlanColumn::Var(*v)).collect();
        let node = PhysicalPlan {
            op: PlanOp::Distinct {
                input: Box::new(acc.node),
                project: out_cols.clone(),
            },
            info: NodeInfo {
                id: 0,
                est_rows: est,
                est_cost: cost,
                width: out_cols.len(),
                cols,
            },
        };
        (node, (0..query.output.len()).collect())
    } else {
        (acc.node, out_cols)
    };

    let mut root = root;
    let mut next = 0usize;
    renumber(&mut root, &mut next);
    Ok(QueryPlan {
        root,
        output,
        schema: query.output.clone(),
        node_count: next,
    })
}

/// Plans and executes in one call (the convenience entry point; use
/// [`plan_query`] + [`crate::executor::execute`] to inspect or reuse
/// the plan).
pub fn run_query(
    db: &Database,
    query: &ConjunctiveQuery,
    config: &OptimizerConfig,
) -> Result<crate::exec::Batch, DbError> {
    let plan = plan_query(db, query, config)?;
    crate::executor::execute(db, &plan)
}

fn renumber(node: &mut PhysicalPlan, next: &mut usize) {
    node.info.id = *next;
    *next += 1;
    for c in node.children_mut() {
        renumber(c, next);
    }
}

/// Per-atom planning info for every atom of `query` (fully-constant
/// atoms always push their filters — they compile to existence checks —
/// so their estimates ignore the pushdown lesion).
fn compute_infos(
    db: &Database,
    query: &ConjunctiveQuery,
    config: &OptimizerConfig,
) -> Vec<AtomInfo> {
    query
        .atoms
        .iter()
        .map(|a| {
            let push = config.pushdown || a.variables().is_empty();
            let mut info = atom_info(db, a, push, &query.ranges);
            if a.variables().is_empty() {
                info.est_rows = info.est_rows.min(1.0);
            }
            info
        })
        .collect()
}

/// Running cardinality state of a partially planned join sequence, used
/// by the greedy enumerator.
struct GreedyState {
    /// Estimated rows of the accumulated prefix.
    rows: f64,
    /// Estimated NDV per bound variable.
    ndv: Vec<(VarId, f64)>,
    /// Variables bound so far.
    vars: Vec<VarId>,
}

impl GreedyState {
    fn start(query: &ConjunctiveQuery, infos: &[AtomInfo], first: usize) -> GreedyState {
        let ndv = infos[first].var_ndv.clone();
        GreedyState {
            rows: infos[first].est_rows,
            vars: query.atoms[first].variables(),
            ndv,
        }
    }

    /// Folds one more atom into the state.
    fn extend(&mut self, query: &ConjunctiveQuery, infos: &[AtomInfo], ai: usize) {
        let shared: Vec<VarId> = query.atoms[ai]
            .variables()
            .into_iter()
            .filter(|v| self.vars.contains(v))
            .collect();
        self.rows = join_estimate(self.rows, &self.ndv, &infos[ai], &shared);
        for (v, d) in &infos[ai].var_ndv {
            match self.ndv.iter_mut().find(|(w, _)| w == v) {
                Some((_, cd)) => *cd = cd.min(*d),
                None => self.ndv.push((*v, *d)),
            }
        }
        for v in query.atoms[ai].variables() {
            if !self.vars.contains(&v) {
                self.vars.push(v);
            }
        }
    }
}

/// Greedily picks the next atom: prefer connected atoms, among them the
/// smallest join estimate. Returns the position within `remaining`.
fn greedy_pick(
    query: &ConjunctiveQuery,
    infos: &[AtomInfo],
    state: &GreedyState,
    remaining: &[usize],
) -> usize {
    let mut best: Option<(usize, f64, bool)> = None; // (pos, est, connected)
    for (pos, &ai) in remaining.iter().enumerate() {
        let shared: Vec<VarId> = query.atoms[ai]
            .variables()
            .into_iter()
            .filter(|v| state.vars.contains(v))
            .collect();
        let connected = !shared.is_empty();
        let est = join_estimate(state.rows, &state.ndv, &infos[ai], &shared);
        let better = match &best {
            None => true,
            Some((_, best_est, best_conn)) => (connected, -est) > (*best_conn, -best_est),
        };
        if better {
            best = Some((pos, est, connected));
        }
    }
    best.expect("remaining atoms nonempty").0
}

/// Chooses the atom join order per the configured policy.
fn choose_order(
    query: &ConjunctiveQuery,
    infos: &[AtomInfo],
    config: &OptimizerConfig,
) -> Vec<usize> {
    match config.join_order {
        JoinOrderPolicy::Program => (0..query.atoms.len()).collect(),
        JoinOrderPolicy::Auto => {
            let mut remaining: Vec<usize> = (0..query.atoms.len()).collect();
            let mut order = Vec::with_capacity(remaining.len());
            // Start from the smallest estimated atom.
            remaining.sort_by(|&a, &b| {
                infos[a]
                    .est_rows
                    .total_cmp(&infos[b].est_rows)
                    .then(a.cmp(&b))
            });
            let first = remaining.remove(0);
            order.push(first);
            let mut state = GreedyState::start(query, infos, first);
            while !remaining.is_empty() {
                let pos = greedy_pick(query, infos, &state, remaining.as_slice());
                let ai = remaining.remove(pos);
                state.extend(query, infos, ai);
                order.push(ai);
            }
            order
        }
    }
}

/// Builds the scan subtree for one positive atom: a `SeqScan` with
/// structural predicates (and constant predicates when pushed), projected
/// to one column per distinct variable — plus carried check columns for
/// unpushed constants, or a `Distinct` existence wrapper for
/// fully-constant atoms.
fn scan_subtree(
    db: &Database,
    query: &ConjunctiveQuery,
    atom: &QueryAtom,
    config: &OptimizerConfig,
    info: &AtomInfo,
) -> (PhysicalPlan, Vec<PlanCol>) {
    let table = db.table(atom.table);
    let has_vars = !atom.variables().is_empty();
    let push_consts = config.pushdown || !has_vars;

    let mut preds: Vec<Pred> = Vec::new();
    let mut first_col: Vec<(VarId, usize)> = Vec::new();
    let mut check_cols: Vec<(usize, u32)> = Vec::new();
    for (c, b) in atom.bindings.iter().enumerate() {
        match b {
            ColumnBinding::Const(v) => {
                if push_consts {
                    preds.push(Pred::ColEqConst { col: c, value: *v });
                } else {
                    check_cols.push((c, *v));
                }
            }
            ColumnBinding::Var(v) => match first_col.iter().find(|(w, _)| w == v) {
                Some(&(_, fc)) => preds.push(Pred::ColEqCol { a: fc, b: c }),
                None => first_col.push((*v, c)),
            },
            ColumnBinding::Any => {}
        }
    }
    // Structural value-range restrictions: pushed into *every* scan that
    // binds the restricted variable, regardless of the pushdown lesion —
    // the parallel grounder's chunking correctness depends on them.
    for &(v, lo, hi) in &query.ranges {
        if let Some(&(_, c)) = first_col.iter().find(|(w, _)| *w == v) {
            preds.push(Pred::ColInRange { col: c, lo, hi });
        }
    }
    let mut project: Vec<usize> = first_col.iter().map(|(_, c)| *c).collect();
    let mut cols: Vec<PlanCol> = first_col.iter().map(|(v, _)| PlanCol::Var(*v)).collect();
    for &(c, value) in &check_cols {
        project.push(c);
        cols.push(PlanCol::Check(value));
    }

    let width = project.len();
    let (op, est_cost) = access_path(
        db,
        ScanNode {
            table: atom.table,
            table_name: table.name.clone(),
            preds,
            project,
        },
        config,
    );
    let scan = PhysicalPlan {
        op,
        info: NodeInfo {
            id: 0,
            est_rows: info.est_rows,
            est_cost,
            width,
            cols: to_plan_columns(&cols),
        },
    };
    if has_vars {
        (scan, cols)
    } else {
        // Existence check: at most one (empty) row survives.
        let est = scan.info.est_rows.min(1.0);
        let cost = scan.info.est_cost + scan.info.est_rows;
        let node = PhysicalPlan {
            op: PlanOp::Distinct {
                input: Box::new(scan),
                project: vec![],
            },
            info: NodeInfo {
                id: 0,
                est_rows: est,
                est_cost: cost,
                width: 0,
                cols: vec![],
            },
        };
        (node, vec![])
    }
}

/// Chooses how a base-table scan reads its table, returning the operator
/// and its cost in rows read. With pushdown on, a scan whose predicates
/// hold a `col = const` on a table larger than one page becomes an
/// [`PlanOp::IndexScan`] on the most selective such key (the first on
/// ties); the key leaves the predicate list and the cost is the key's
/// matching rows. Everything else, and every scan under the pushdown
/// lesion, is a [`PlanOp::SeqScan`] costing the table's length. Asking
/// the index for a key's row count builds it if needed, so the choice
/// depends on table contents only, never on what was built before.
fn access_path(db: &Database, mut scan: ScanNode, config: &OptimizerConfig) -> (PlanOp, f64) {
    let table = db.table(scan.table);
    if config.pushdown && table.len() > PAGE_ROWS {
        let lookup = scan
            .preds
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match *p {
                Pred::ColEqConst { col, value } => {
                    Some((i, col, value, table.index(col).postings(value).len()))
                }
                _ => None,
            })
            .min_by_key(|&(.., matches)| matches);
        if let Some((i, col, value, matches)) = lookup {
            scan.preds.remove(i);
            return (PlanOp::IndexScan { scan, col, value }, matches as f64);
        }
    }
    (PlanOp::SeqScan(scan), table.len() as f64)
}

/// Joins the accumulated plan with one atom's scan subtree.
fn join_step(
    acc: Acc,
    right: PhysicalPlan,
    right_cols: Vec<PlanCol>,
    right_info: &AtomInfo,
    config: &OptimizerConfig,
) -> Acc {
    // Keys: variables shared between the accumulated plan and the atom.
    let mut keys: Vec<(usize, usize)> = Vec::new();
    let mut shared: Vec<VarId> = Vec::new();
    for (rc, col) in right_cols.iter().enumerate() {
        if let PlanCol::Var(v) = col {
            if let Some(ac) = acc.var_col(*v) {
                keys.push((ac, rc));
                shared.push(*v);
            }
        }
    }
    let left_rows = acc.node.info.est_rows;
    let right_rows = right.info.est_rows;
    let est = join_estimate(left_rows, &acc.ndv, right_info, &shared);

    // Output layout: all accumulated columns, then the atom's new ones.
    let acc_width = acc.node.info.width;
    let mut keep: Vec<usize> = (0..acc_width).collect();
    let mut cols = acc.cols.clone();
    for (rc, col) in right_cols.iter().enumerate() {
        let duplicate = matches!(col, PlanCol::Var(v) if acc.has_var(*v));
        if !duplicate {
            keep.push(acc_width + rc);
            cols.push(*col);
        }
    }
    let width = keep.len();
    let out_cols = to_plan_columns(&cols);

    let child_cost = acc.node.info.est_cost + right.info.est_cost;
    let info = |est_cost: f64| NodeInfo {
        id: 0,
        est_rows: est,
        est_cost,
        width,
        cols: out_cols.clone(),
    };
    let node = if keys.is_empty() {
        PhysicalPlan {
            op: PlanOp::CrossJoin {
                left: Box::new(acc.node),
                right: Box::new(right),
            },
            info: info(child_cost + left_rows * right_rows),
        }
    } else {
        let algo = choose_algo(config, left_rows, right_rows);
        let join = JoinNode {
            left: Box::new(acc.node),
            right: Box::new(right),
            keys,
            keep,
        };
        let op = match algo {
            JoinAlgo::Hash => PlanOp::HashJoin(join),
            JoinAlgo::SortMerge => PlanOp::SortMergeJoin(join),
            JoinAlgo::NestedLoop => PlanOp::NestedLoopJoin(join),
        };
        PhysicalPlan {
            op,
            info: info(child_cost + join_cost(algo, left_rows, right_rows, est)),
        }
    };

    // Narrow the running NDV estimates with the atom's.
    let mut ndv = acc.ndv;
    for (v, d) in &right_info.var_ndv {
        match ndv.iter_mut().find(|(w, _)| w == v) {
            Some((_, cd)) => *cd = cd.min(*d),
            None => ndv.push((*v, *d)),
        }
    }
    Acc { node, cols, ndv }
}

/// Applies every not-yet-planned anti-join whose correlation variables
/// are all bound by the accumulated plan.
fn apply_antis(
    db: &Database,
    query: &ConjunctiveQuery,
    bound: &[VarId],
    acc: &mut Acc,
    anti_done: &mut [bool],
    config: &OptimizerConfig,
) -> Result<(), DbError> {
    for (i, anti) in query.anti_atoms.iter().enumerate() {
        if anti_done[i] {
            continue;
        }
        let corr: Vec<VarId> = anti
            .variables()
            .into_iter()
            .filter(|v| bound.contains(v))
            .collect();
        if !corr.iter().all(|v| acc.has_var(*v)) {
            continue;
        }
        anti_done[i] = true;

        // Scan the anti atom with its constant filters (always pushed:
        // NOT EXISTS subqueries are not part of the pushdown lesion),
        // projected to the correlation variables.
        let mut preds: Vec<Pred> = Vec::new();
        let mut first_col: Vec<(VarId, usize)> = Vec::new();
        for (c, b) in anti.bindings.iter().enumerate() {
            match b {
                ColumnBinding::Const(v) => preds.push(Pred::ColEqConst { col: c, value: *v }),
                ColumnBinding::Var(v) => match first_col.iter().find(|(w, _)| w == v) {
                    Some(&(_, fc)) => preds.push(Pred::ColEqCol { a: fc, b: c }),
                    None => first_col.push((*v, c)),
                },
                ColumnBinding::Any => {}
            }
        }
        first_col.retain(|(v, _)| corr.contains(v));
        let project: Vec<usize> = first_col.iter().map(|(_, c)| *c).collect();
        let sub_cols: Vec<PlanColumn> =
            first_col.iter().map(|(v, _)| PlanColumn::Var(*v)).collect();
        let table = db.table(anti.table);
        let sub_rows = table.len() as f64;
        let width = project.len();
        let (op, sub_cost) = access_path(
            db,
            ScanNode {
                table: anti.table,
                table_name: table.name.clone(),
                preds,
                project,
            },
            config,
        );
        let sub = PhysicalPlan {
            op,
            info: NodeInfo {
                id: 0,
                est_rows: sub_rows,
                est_cost: sub_cost,
                width,
                cols: sub_cols,
            },
        };
        let keys: Vec<(usize, usize)> = first_col
            .iter()
            .enumerate()
            .map(|(sc, (v, _))| (acc.var_col(*v).expect("correlation var bound"), sc))
            .collect();
        let in_rows = acc.node.info.est_rows;
        let est = in_rows * ANTI_SELECTIVITY;
        let cost = acc.node.info.est_cost + sub.info.est_cost + in_rows + sub_rows;
        let width = acc.node.info.width;
        let cols = acc.plan_columns();
        let input = std::mem::replace(&mut acc.node, placeholder());
        acc.node = PhysicalPlan {
            op: PlanOp::AntiJoin {
                input: Box::new(input),
                sub: Box::new(sub),
                keys,
            },
            info: NodeInfo {
                id: 0,
                est_rows: est,
                est_cost: cost,
                width,
                cols,
            },
        };
    }
    Ok(())
}

/// Wraps the accumulated plan in `FilterScan`s for inequality filters
/// whose variables have just become bound.
fn apply_residuals(
    query: &ConjunctiveQuery,
    acc: &mut Acc,
    applied_neq: &mut [bool],
    applied_neq_const: &mut [bool],
) {
    let mut preds: Vec<Pred> = Vec::new();
    for (i, (a, b)) in query.neq.iter().enumerate() {
        if applied_neq[i] {
            continue;
        }
        if let (Some(ca), Some(cb)) = (acc.var_col(*a), acc.var_col(*b)) {
            preds.push(Pred::ColNeCol { a: ca, b: cb });
            applied_neq[i] = true;
        }
    }
    for (i, (v, value)) in query.neq_const.iter().enumerate() {
        if applied_neq_const[i] {
            continue;
        }
        if let Some(col) = acc.var_col(*v) {
            preds.push(Pred::ColNeConst { col, value: *value });
            applied_neq_const[i] = true;
        }
    }
    if preds.is_empty() {
        return;
    }
    let in_rows = acc.node.info.est_rows;
    let est = in_rows * RESIDUAL_SELECTIVITY.powi(preds.len() as i32);
    let cost = acc.node.info.est_cost + in_rows;
    let width = acc.node.info.width;
    let cols = acc.plan_columns();
    let input = std::mem::replace(&mut acc.node, placeholder());
    acc.node = PhysicalPlan {
        op: PlanOp::FilterScan {
            input: Box::new(input),
            preds,
        },
        info: NodeInfo {
            id: 0,
            est_rows: est,
            est_cost: cost,
            width,
            cols,
        },
    };
}

fn placeholder() -> PhysicalPlan {
    PhysicalPlan {
        op: PlanOp::SeqScan(ScanNode {
            table: crate::catalog::TableId(0),
            table_name: String::new(),
            preds: vec![],
            project: vec![],
        }),
        info: NodeInfo {
            id: 0,
            est_rows: 0.0,
            est_cost: 0.0,
            width: 0,
            cols: vec![],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::executor::{execute, execute_profiled};
    use crate::schema::TableSchema;

    /// wrote(author, paper): {(a1,p1),(a1,p2),(a2,p3)}
    /// cat_true(paper, cat): {(p1,c1)}
    fn db() -> (Database, crate::catalog::TableId, crate::catalog::TableId) {
        let mut db = Database::default();
        let wrote = db
            .create_table("wrote", TableSchema::new(vec!["author", "paper"]))
            .unwrap();
        for r in [[1u32, 10], [1, 11], [2, 12]] {
            db.insert(wrote, &r).unwrap();
        }
        let cat = db
            .create_table("cat_true", TableSchema::new(vec!["paper", "cat"]))
            .unwrap();
        db.insert(cat, &[10, 100]).unwrap();
        (db, wrote, cat)
    }

    fn q_coauthor(wrote: crate::catalog::TableId) -> ConjunctiveQuery {
        // wrote(x, p1), wrote(x, p2), p1 != p2 → output (p1, p2)
        ConjunctiveQuery {
            atoms: vec![
                QueryAtom {
                    table: wrote,
                    bindings: vec![ColumnBinding::Var(0), ColumnBinding::Var(1)],
                },
                QueryAtom {
                    table: wrote,
                    bindings: vec![ColumnBinding::Var(0), ColumnBinding::Var(2)],
                },
            ],
            anti_atoms: vec![],
            neq: vec![(1, 2)],
            neq_const: vec![],
            ranges: vec![],
            output: vec![1, 2],
            distinct: false,
        }
    }

    #[test]
    fn self_join_with_inequality() {
        let (db, wrote, _) = db();
        let out = run_query(&db, &q_coauthor(wrote), &OptimizerConfig::default()).unwrap();
        // a1 wrote p1,p2 → (10,11) and (11,10).
        let mut rows: Vec<Vec<u32>> = out.iter().map(<[u32]>::to_vec).collect();
        rows.sort();
        assert_eq!(rows, vec![vec![10, 11], vec![11, 10]]);
    }

    #[test]
    fn all_configs_agree() {
        let (db, wrote, _) = db();
        let q = q_coauthor(wrote);
        let mut results = Vec::new();
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
                    let out = run_query(&db, &q, &cfg).unwrap();
                    let mut rows: Vec<Vec<u32>> = out.iter().map(<[u32]>::to_vec).collect();
                    rows.sort();
                    results.push(rows);
                }
            }
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn anti_join_pruning() {
        let (db, wrote, cat) = db();
        // wrote(x, p) and NOT EXISTS cat_true(p, _): papers without a label.
        let q = ConjunctiveQuery {
            atoms: vec![QueryAtom {
                table: wrote,
                bindings: vec![ColumnBinding::Var(0), ColumnBinding::Var(1)],
            }],
            anti_atoms: vec![QueryAtom {
                table: cat,
                bindings: vec![ColumnBinding::Var(1), ColumnBinding::Any],
            }],
            neq: vec![],
            neq_const: vec![],
            ranges: vec![],
            output: vec![1],
            distinct: true,
        };
        let out = run_query(&db, &q, &OptimizerConfig::default()).unwrap();
        let mut vals: Vec<u32> = out.iter().map(|r| r[0]).collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![11, 12]); // p1=10 is labeled
    }

    #[test]
    fn constant_binding_filters() {
        let (db, wrote, _) = db();
        let q = ConjunctiveQuery {
            atoms: vec![QueryAtom {
                table: wrote,
                bindings: vec![ColumnBinding::Const(1), ColumnBinding::Var(0)],
            }],
            anti_atoms: vec![],
            neq: vec![],
            neq_const: vec![],
            ranges: vec![],
            output: vec![0],
            distinct: false,
        };
        for pushdown in [true, false] {
            let cfg = OptimizerConfig {
                pushdown,
                ..Default::default()
            };
            let out = run_query(&db, &q, &cfg).unwrap();
            let mut vals: Vec<u32> = out.iter().map(|r| r[0]).collect();
            vals.sort_unstable();
            assert_eq!(vals, vec![10, 11], "pushdown={pushdown}");
        }
    }

    #[test]
    fn fully_constant_atom_is_existence_check() {
        let (db, wrote, cat) = db();
        // wrote(x, p) AND cat_true(10, 100) (a fact that holds): all rows
        // survive with multiplicity 1; with a fact that fails, none do.
        let mut q = ConjunctiveQuery {
            atoms: vec![
                QueryAtom {
                    table: wrote,
                    bindings: vec![ColumnBinding::Var(0), ColumnBinding::Var(1)],
                },
                QueryAtom {
                    table: cat,
                    bindings: vec![ColumnBinding::Const(10), ColumnBinding::Const(100)],
                },
            ],
            anti_atoms: vec![],
            neq: vec![],
            neq_const: vec![],
            ranges: vec![],
            output: vec![0, 1],
            distinct: false,
        };
        for pushdown in [true, false] {
            let cfg = OptimizerConfig {
                pushdown,
                ..Default::default()
            };
            let out = run_query(&db, &q, &cfg).unwrap();
            assert_eq!(out.len(), 3, "pushdown={pushdown}");
        }
        // Flip the constant so the existence check fails.
        q.atoms[1].bindings[1] = ColumnBinding::Const(999);
        for pushdown in [true, false] {
            let cfg = OptimizerConfig {
                pushdown,
                ..Default::default()
            };
            let out = run_query(&db, &q, &cfg).unwrap();
            assert!(out.is_empty(), "pushdown={pushdown}");
        }
    }

    #[test]
    fn unbound_output_rejected() {
        let (db, wrote, _) = db();
        let q = ConjunctiveQuery {
            atoms: vec![QueryAtom {
                table: wrote,
                bindings: vec![ColumnBinding::Var(0), ColumnBinding::Var(1)],
            }],
            anti_atoms: vec![],
            neq: vec![],
            neq_const: vec![],
            ranges: vec![],
            output: vec![7],
            distinct: false,
        };
        assert!(run_query(&db, &q, &OptimizerConfig::default()).is_err());
    }

    /// wrote(x, p), cat_true(p, c) → output (x, c)
    fn q_wrote_cat(
        wrote: crate::catalog::TableId,
        cat: crate::catalog::TableId,
    ) -> ConjunctiveQuery {
        ConjunctiveQuery {
            atoms: vec![
                QueryAtom {
                    table: wrote,
                    bindings: vec![ColumnBinding::Var(0), ColumnBinding::Var(1)],
                },
                QueryAtom {
                    table: cat,
                    bindings: vec![ColumnBinding::Var(1), ColumnBinding::Var(2)],
                },
            ],
            anti_atoms: vec![],
            neq: vec![],
            neq_const: vec![],
            ranges: vec![],
            output: vec![0, 2],
            distinct: false,
        }
    }

    /// The table the root hash join builds its left side from.
    fn anchor(plan: &QueryPlan) -> &str {
        match &plan.root.op {
            PlanOp::HashJoin(j) => {
                assert_eq!(j.keys.len(), 1);
                match &j.left.op {
                    PlanOp::SeqScan(s) => &s.table_name,
                    other => panic!("unexpected left child {other:?}"),
                }
            }
            other => panic!("unexpected root {other:?}"),
        }
    }

    #[test]
    fn plan_prefers_connected_joins() {
        let (db, wrote, cat) = db();
        let plan = plan_query(&db, &q_wrote_cat(wrote, cat), &OptimizerConfig::default()).unwrap();
        // Smallest table (cat_true, 1 row) scanned first, then a hash join
        // against wrote on the shared paper variable.
        assert_eq!(anchor(&plan), "cat_true");
        let out = execute(&db, &plan).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), &[1, 100]);
    }

    #[test]
    fn plan_reads_current_table_lengths() {
        let (mut db, wrote, cat) = db();
        let q = q_wrote_cat(wrote, cat);
        let cfg = OptimizerConfig::default();
        assert_eq!(anchor(&plan_query(&db, &q, &cfg).unwrap()), "cat_true");
        // cat_true grows past wrote's 3 rows; nothing is refreshed before
        // the next plan, which must see the new length.
        for p in 20..25 {
            db.insert(cat, &[p, 100]).unwrap();
        }
        assert!(db.table(cat).len() > db.table(wrote).len());
        assert_eq!(anchor(&plan_query(&db, &q, &cfg).unwrap()), "wrote");
    }

    #[test]
    fn node_ids_are_preorder_and_metrics_populated() {
        let (db, wrote, _) = db();
        let q = q_coauthor(wrote);
        let plan = plan_query(&db, &q, &OptimizerConfig::default()).unwrap();
        let mut ids = Vec::new();
        plan.root.visit(&mut |n| ids.push(n.info.id));
        assert_eq!(ids, (0..plan.node_count).collect::<Vec<_>>());
        let (out, profile) = execute_profiled(&db, &plan).unwrap();
        assert_eq!(profile.nodes.len(), plan.node_count);
        // The root's output count matches the batch (modulo the final
        // projection, which does not change row counts).
        assert_eq!(profile.nodes[0].rows_out, out.len() as u64);
        // Scans examined the base table.
        let mut scan_rows = Vec::new();
        plan.root.visit(&mut |n| {
            if matches!(n.op, PlanOp::SeqScan(_)) {
                scan_rows.push(profile.nodes[n.info.id].rows_in);
            }
        });
        assert_eq!(scan_rows, vec![3, 3]);
    }

    #[test]
    fn explain_names_key_vars_across_check_columns() {
        // Pushdown off, Program order: the first atom carries a deferred
        // check column, so the accumulated layout is [v0, check, v1] and
        // the second join keys on v1 at column 2. The EXPLAIN must still
        // name the *variable*, not misread the shifted column.
        let (db, wrote, cat) = db();
        let q = ConjunctiveQuery {
            atoms: vec![
                QueryAtom {
                    table: wrote,
                    bindings: vec![ColumnBinding::Var(0), ColumnBinding::Const(1)],
                },
                QueryAtom {
                    table: wrote,
                    bindings: vec![ColumnBinding::Var(0), ColumnBinding::Var(1)],
                },
                QueryAtom {
                    table: cat,
                    bindings: vec![ColumnBinding::Var(1), ColumnBinding::Var(2)],
                },
            ],
            anti_atoms: vec![],
            neq: vec![],
            neq_const: vec![],
            ranges: vec![],
            output: vec![0, 1, 2],
            distinct: false,
        };
        let cfg = OptimizerConfig {
            join_order: JoinOrderPolicy::Program,
            pushdown: false,
            ..Default::default()
        };
        let plan = plan_query(&db, &q, &cfg).unwrap();
        let text = plan.explain();
        assert!(
            text.contains("HashJoin keys=[v1]"),
            "join through the shifted column must render v1:\n{text}"
        );
        assert!(!text.contains("keys=[v2]"), "{text}");
        // The check column is positionally visible in the node info.
        let mut saw_check = false;
        plan.root.visit(&mut |n| {
            saw_check |= n.info.cols.contains(&crate::plan::PlanColumn::Check);
        });
        assert!(
            saw_check,
            "deferred check column must be annotated:\n{text}"
        );
    }

    #[test]
    fn explain_names_every_node() {
        let (db, wrote, _) = db();
        let q = q_coauthor(wrote);
        let plan = plan_query(&db, &q, &OptimizerConfig::default()).unwrap();
        let text = plan.explain();
        assert!(text.contains("FilterScan"), "{text}");
        assert!(text.contains("HashJoin"), "{text}");
        assert!(text.contains("SeqScan wrote"), "{text}");
        // Lesion: nested loops only.
        let cfg = OptimizerConfig {
            join_algorithm: JoinAlgorithmPolicy::NestedLoopOnly,
            ..Default::default()
        };
        let plan = plan_query(&db, &q, &cfg).unwrap();
        assert!(
            plan.explain().contains("NestedLoopJoin"),
            "{}",
            plan.explain()
        );
    }
}
