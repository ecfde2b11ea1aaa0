//! Plan execution: walks a [`QueryPlan`] tree over [`Batch`]es.
//!
//! The executor is deliberately dumb — every decision (join order,
//! algorithm choice, key wiring, projections, filter placement) was made
//! by the planner and is encoded in the tree. Execution is a bottom-up
//! fold: each node materializes its output batch from its children's
//! batches. [`execute`] does only that; [`execute_profiled`] additionally
//! records per-node runtime counters (rows in, rows out, elapsed wall
//! time) into an [`ExecProfile`] addressed by [`crate::plan::NodeId`].

use crate::catalog::Database;
use crate::error::DbError;
use crate::exec::agg::distinct;
use crate::exec::join::{cross_join, hash_anti_join, hash_join, nested_loop_join, sort_merge_join};
use crate::exec::scan::seq_scan;
use crate::exec::Batch;
use crate::plan::{JoinNode, PhysicalPlan, PlanOp, QueryPlan};
use std::fmt;
use std::time::{Duration, Instant};

/// Runtime counters for one plan node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Rows consumed from the node's inputs (for scans: rows examined in
    /// the base table).
    pub rows_in: u64,
    /// Rows produced.
    pub rows_out: u64,
    /// Wall time spent in this node, excluding its children.
    pub elapsed: Duration,
}

/// Per-node runtime counters for one execution of a plan, indexed by
/// [`crate::plan::NodeId`].
#[derive(Clone, Debug, Default)]
pub struct ExecProfile {
    /// One entry per plan node.
    pub nodes: Vec<NodeMetrics>,
}

impl ExecProfile {
    fn with_node_count(n: usize) -> ExecProfile {
        ExecProfile {
            nodes: vec![NodeMetrics::default(); n],
        }
    }

    /// Total wall time across all nodes.
    pub fn total_elapsed(&self) -> Duration {
        self.nodes.iter().map(|m| m.elapsed).sum()
    }

    /// Renders the plan annotated with this profile's actual row counts
    /// and timings (`EXPLAIN ANALYZE`): each node shows the optimizer's
    /// estimate next to what execution actually produced, so estimation
    /// error is readable per operator.
    pub fn explain_analyze(&self, plan: &QueryPlan) -> String {
        let mut out = plan.to_string();
        out.push_str("-- est vs actual --\n");
        plan.root.visit(&mut |node| {
            let m = self.nodes.get(node.info.id).copied().unwrap_or_default();
            out.push_str(&format!(
                "node {:>2} {:<16} est_rows={:<8} actual_rows={:<8} rows_in={:<8} elapsed={:?}\n",
                node.info.id,
                node.name(),
                format!("{:.0}", node.info.est_rows),
                m.rows_out,
                m.rows_in,
                m.elapsed,
            ));
        });
        out
    }
}

impl fmt::Display for ExecProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, m) in self.nodes.iter().enumerate() {
            writeln!(
                f,
                "node {i:>2}: rows_in={} rows_out={} elapsed={:?}",
                m.rows_in, m.rows_out, m.elapsed
            )?;
        }
        Ok(())
    }
}

/// Executes `plan` against `db`, returning the projected output batch
/// (one column per output variable of the planned query). Records no
/// profile and reads no clock — this is the grounder's per-query path.
pub fn execute(db: &Database, plan: &QueryPlan) -> Result<Batch, DbError> {
    Ok(project_owned(exec_node(db, &plan.root, None), &plan.output))
}

/// Executes `plan` into a caller-owned batch, reusing its allocation.
///
/// For single-scan plans with an identity output projection (e.g. the
/// RDBMS-resident search's per-step clause scan) this fills `out`
/// directly with no intermediate allocation; other plan shapes fall back
/// to [`execute`] and move the result. Buffer-pool I/O accounting is
/// identical either way. No profile is recorded — this is the hot-loop
/// entry point.
pub fn execute_into(db: &Database, plan: &QueryPlan, out: &mut Batch) -> Result<(), DbError> {
    if let PlanOp::SeqScan(s) = &plan.root.op {
        if is_identity(&plan.output, plan.root.info.width) {
            crate::exec::scan::seq_scan_into(
                db.table(s.table),
                db.pool(),
                &s.preds,
                Some(&s.project),
                out,
            );
            return Ok(());
        }
    }
    *out = execute(db, plan)?;
    Ok(())
}

/// Executes `plan`, additionally returning per-node runtime counters.
pub fn execute_profiled(db: &Database, plan: &QueryPlan) -> Result<(Batch, ExecProfile), DbError> {
    let mut profile = ExecProfile::with_node_count(plan.node_count);
    let batch = exec_node(db, &plan.root, Some(&mut profile));
    // Final projection (identity when the root already projects, e.g. a
    // Distinct root).
    Ok((project_owned(batch, &plan.output), profile))
}

fn exec_node(db: &Database, node: &PhysicalPlan, mut profile: Option<&mut ExecProfile>) -> Batch {
    // Children first: their time must not be charged to this node. Each
    // input batch is then moved into the operator that consumes it.
    let mut inputs = node
        .children()
        .into_iter()
        .map(|c| exec_node(db, c, profile.as_deref_mut()))
        .collect::<Vec<Batch>>()
        .into_iter();
    let mut input = || inputs.next().expect("plan node arity");

    let start = profile.is_some().then(Instant::now);
    let (rows_in, out) = match &node.op {
        PlanOp::SeqScan(s) => {
            let table = db.table(s.table);
            let batch = seq_scan(table, db.pool(), &s.preds, Some(&s.project));
            (table.len(), batch)
        }
        PlanOp::FilterScan { preds, .. } => {
            let input = input();
            (input.len(), input.filter(preds))
        }
        PlanOp::HashJoin(j) => equi_join(hash_join, j, &input(), &input()),
        PlanOp::SortMergeJoin(j) => equi_join(sort_merge_join, j, &input(), &input()),
        PlanOp::NestedLoopJoin(j) => equi_join(nested_loop_join, j, &input(), &input()),
        PlanOp::CrossJoin { .. } => {
            let (l, r) = (input(), input());
            (l.len() + r.len(), cross_join(&l, &r))
        }
        PlanOp::AntiJoin { keys, .. } => {
            let (input, sub) = (input(), input());
            let rows_in = input.len() + sub.len();
            // An empty NOT EXISTS side removes nothing: skip the pass
            // entirely.
            let out = if sub.is_empty() || input.is_empty() {
                input
            } else {
                hash_anti_join(&input, &sub, keys)
            };
            (rows_in, out)
        }
        PlanOp::Distinct { project, .. } => {
            let input = input();
            (input.len(), distinct(&project_owned(input, project)))
        }
    };
    if let (Some(profile), Some(start)) = (profile, start) {
        profile.nodes[node.info.id] = NodeMetrics {
            rows_in: rows_in as u64,
            rows_out: out.len() as u64,
            elapsed: start.elapsed(),
        };
    }
    out
}

/// Runs one equi-join algorithm and applies the node's
/// duplicate-column-dropping projection.
fn equi_join(
    algo: fn(&Batch, &Batch, &[(usize, usize)]) -> Batch,
    join: &JoinNode,
    left: &Batch,
    right: &Batch,
) -> (usize, Batch) {
    let joined = algo(left, right, &join.keys);
    (left.len() + right.len(), project_owned(joined, &join.keep))
}

/// Whether projecting a `width`-column batch to `cols` changes nothing.
pub(crate) fn is_identity(cols: &[usize], width: usize) -> bool {
    cols.len() == width && cols.iter().enumerate().all(|(i, &c)| i == c)
}

/// Projects an owned batch, returning it untouched (no copy) when the
/// projection is the identity.
pub(crate) fn project_owned(batch: Batch, cols: &[usize]) -> Batch {
    if is_identity(cols, batch.width()) {
        batch
    } else {
        batch.project(cols)
    }
}
