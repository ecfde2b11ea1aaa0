//! Plan execution: the one walker that turns a [`QueryPlan`] tree into
//! rows.
//!
//! The executor is deliberately dumb — every decision (join order,
//! algorithm choice, key wiring, projections, filter placement) was made
//! by the planner and is encoded in the tree. Execution is a bottom-up
//! fold (`exec_node`): each node consumes its children's relations by
//! value and produces a [`SpillableBatch`]. Whether a relation is resident
//! is the [`SpillManager`]'s business, not the walker's: a relation within
//! the byte budget is a `Mem` batch and takes the plain [`crate::exec`]
//! operator; one over it lives as sorted runs on the manager's backend
//! and streams. An unbounded manager (budget `0`) never cuts a run, so
//! "in-memory execution" is this same walk with nothing to spill —
//! [`execute`] and [`execute_profiled`] are exactly that. On request the
//! walk records per-node runtime counters (rows in, rows out, elapsed
//! wall time) into an [`ExecProfile`] addressed by
//! [`crate::plan::NodeId`], whatever the budget.
//!
//! # Operators under a budget
//!
//! * **Scans** produce one batch (base tables are resident already); it
//!   is cut into sorted runs if it exceeds the budget. An `IndexScan`
//!   reads only the rows its key matches, through the table's equality
//!   index ([`crate::storage::Table::lookup`], built on first use and
//!   dropped by any mutation), and sizes its batch by the matches, not by
//!   the table.
//! * **Filters** and **anti-joins** stream a spilled input chunk by
//!   chunk; the anti-join's (small, evidence-derived) `NOT EXISTS` side
//!   is materialized.
//! * **Equi-joins** whose combined inputs exceed the budget run as
//!   **grace-hash joins**: both sides are hash-partitioned on the join
//!   key into `P ≈ ⌈bytes/budget⌉` partition files, then each partition
//!   pair is joined in memory and the output streamed through a sorted
//!   spill writer.
//! * **Cross products** over the budget stream the left side against the
//!   materialized right side, row by row into a sorted spill writer.
//! * **Distinct** externally sorts a spilled input (sorted runs + k-way
//!   merge) and deduplicates adjacent rows of the merged stream.
//!
//! # Canonical order
//!
//! [`execute_plan`] and [`execute_spill`] return the result
//! **canonically ordered**: a resident result is
//! [`Batch::sort_rows`]-sorted, a spilled one is per-run sorted and k-way
//! merged lazily by [`crate::spill::RowCursor`]. Canonical order depends
//! only on the result *multiset*, so the row sequence is **bit-identical**
//! at every budget — the grounder's determinism contract does not care
//! what spilled.

use crate::catalog::Database;
use crate::error::DbError;
use crate::exec::agg;
use crate::exec::join::{cross_join, hash_anti_join, hash_join, nested_loop_join, sort_merge_join};
use crate::exec::scan::{index_scan, seq_scan};
use crate::exec::Batch;
use crate::optimizer::{plan_query, OptimizerConfig};
use crate::plan::{JoinNode, PhysicalPlan, PlanOp, QueryPlan};
use crate::query::ConjunctiveQuery;
use crate::spill::{
    for_each_chunk, partition, wrap, SpillManager, SpillWriter, SpillableBatch, MAX_PARTITIONS,
    UNBOUNDED,
};
use std::fmt;
use std::sync::atomic::Ordering;
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

/// Executes `plan` against `db` with nothing spilled, returning the
/// projected output batch (one column per output variable of the planned
/// query) in operator order. Records no profile and reads no clock.
pub fn execute(db: &Database, plan: &QueryPlan) -> Result<Batch, DbError> {
    run(db, plan, &UNBOUNDED, None)?.into_batch()
}

/// Executes `plan` into a caller-owned batch, reusing its allocation.
///
/// For single-scan plans with an identity output projection (e.g. the
/// RDBMS-resident search's per-step clause scan) this fills `out`
/// directly with no intermediate allocation; other plan shapes fall back
/// to [`execute`] and move the result. No profile is recorded — this is
/// the hot-loop entry point.
pub fn execute_into(db: &Database, plan: &QueryPlan, out: &mut Batch) -> Result<(), DbError> {
    if let PlanOp::SeqScan(s) = &plan.root.op {
        if is_identity(&plan.output, plan.root.info.width) {
            crate::exec::scan::seq_scan_into(db.table(s.table), &s.preds, Some(&s.project), out);
            return Ok(());
        }
    }
    *out = execute(db, plan)?;
    Ok(())
}

/// [`execute`], additionally returning per-node runtime counters.
pub fn execute_profiled(db: &Database, plan: &QueryPlan) -> Result<(Batch, ExecProfile), DbError> {
    let mut profile = ExecProfile::default();
    let out = run(db, plan, &UNBOUNDED, Some(&mut profile))?;
    Ok((out.into_batch()?, profile))
}

/// Executes `plan` under `mgr`'s budget, returning the result in
/// **canonical row order** (module docs). With `profile`, per-node
/// counters are recorded into it (it is resized to the plan).
pub fn execute_plan(
    db: &Database,
    plan: &QueryPlan,
    mgr: &SpillManager,
    profile: Option<&mut ExecProfile>,
) -> Result<SpillableBatch, DbError> {
    // Sorted runs merge lazily; a resident batch sorts here.
    Ok(match run(db, plan, mgr, profile)? {
        SpillableBatch::Mem(mut b) => {
            b.sort_rows();
            SpillableBatch::Mem(b)
        }
        spilled => spilled,
    })
}

/// Plans `query` and executes it under `mgr`'s budget — the grounder's
/// per-query entry point. The result is canonically ordered (see
/// [`execute_plan`]); read it back with [`SpillableBatch::cursor`] or
/// [`crate::spill::merge_cursor`].
pub fn execute_spill(
    db: &Database,
    query: &ConjunctiveQuery,
    config: &OptimizerConfig,
    mgr: &SpillManager,
) -> Result<SpillableBatch, DbError> {
    let plan = plan_query(db, query, config)?;
    execute_plan(db, &plan, mgr, None)
}

/// Walks the tree and applies the final projection (identity when the
/// root already projects, e.g. a `Distinct` root). Operator order, not
/// canonical order.
fn run(
    db: &Database,
    plan: &QueryPlan,
    mgr: &SpillManager,
    mut profile: Option<&mut ExecProfile>,
) -> Result<SpillableBatch, DbError> {
    if let Some(p) = profile.as_deref_mut() {
        p.nodes.clear();
        p.nodes.resize(plan.node_count, NodeMetrics::default());
    }
    let out = exec_node(db, &plan.root, mgr, profile)?;
    project(out, &plan.output, mgr)
}

/// The only function that executes [`PlanOp`] nodes.
fn exec_node(
    db: &Database,
    node: &PhysicalPlan,
    mgr: &SpillManager,
    mut profile: Option<&mut ExecProfile>,
) -> Result<SpillableBatch, DbError> {
    // Children first: their time must not be charged to this node. Each
    // input relation is then moved into the operator that consumes it.
    let mut child = |c: Option<&PhysicalPlan>| {
        c.map(|c| exec_node(db, c, mgr, profile.as_deref_mut()))
            .transpose()
    };
    let [a, b] = node.inputs();
    let (a, b) = (child(a)?, child(b)?);
    let start = profile.is_some().then(Instant::now);
    let mut rows_in =
        a.as_ref().map_or(0, SpillableBatch::rows) + b.as_ref().map_or(0, SpillableBatch::rows);
    let out = match (&node.op, a, b) {
        (PlanOp::SeqScan(s), None, None) => {
            let table = db.table(s.table);
            rows_in = table.len();
            wrap(seq_scan(table, &s.preds, Some(&s.project)), mgr)?
        }
        (
            PlanOp::IndexScan {
                scan: s,
                col,
                value,
            },
            None,
            None,
        ) => {
            let table = db.table(s.table);
            rows_in = table.index(*col).postings(*value).len();
            let rows = index_scan(table, *col, *value, &s.preds, Some(&s.project));
            wrap(rows, mgr)?
        }
        (PlanOp::FilterScan { preds, .. }, Some(input), None) => {
            let width = input.width();
            per_chunk(input, width, mgr, |b| b.filter(preds))?
        }
        (PlanOp::HashJoin(j), Some(l), Some(r)) => equi_join(hash_join, j, l, r, mgr)?,
        (PlanOp::SortMergeJoin(j), Some(l), Some(r)) => equi_join(sort_merge_join, j, l, r, mgr)?,
        (PlanOp::NestedLoopJoin(j), Some(l), Some(r)) => equi_join(nested_loop_join, j, l, r, mgr)?,
        (PlanOp::CrossJoin { .. }, Some(l), Some(r)) => cross(l, r, mgr)?,
        (PlanOp::AntiJoin { keys, .. }, Some(input), Some(sub)) => {
            anti_join(input, sub, keys, mgr)?
        }
        (PlanOp::Distinct { project, .. }, Some(input), None) => distinct(input, project, mgr)?,
        _ => unreachable!("PhysicalPlan::inputs yields each operator's arity"),
    };
    if let (Some(profile), Some(start)) = (profile, start) {
        profile.nodes[node.info.id] = NodeMetrics {
            rows_in: rows_in as u64,
            rows_out: out.rows() as u64,
            elapsed: start.elapsed(),
        };
    }
    Ok(out)
}

/// Applies a row-local operator (σ, π, `NOT EXISTS`: the output on a
/// relation is the concatenation of the outputs on its chunks). A
/// resident input takes `op` directly; a spilled one streams through it
/// chunk by chunk into a sorted writer of `width` columns.
fn per_chunk(
    input: SpillableBatch,
    width: usize,
    mgr: &SpillManager,
    op: impl Fn(&Batch) -> Batch,
) -> Result<SpillableBatch, DbError> {
    match input {
        SpillableBatch::Mem(b) => Ok(SpillableBatch::Mem(op(&b))),
        spilled => {
            let mut w = SpillWriter::new(mgr, width);
            for_each_chunk(&spilled, mgr, |chunk| w.push_batch(&op(chunk)))?;
            w.finish()
        }
    }
}

/// ⋈ on `join.keys`, then the node's duplicate-column-dropping
/// projection: the planned algorithm when both sides are resident and
/// fit the budget together, grace-hash partitioned otherwise (all
/// algorithms agree on the result multiset).
fn equi_join(
    algo: fn(&Batch, &Batch, &[(usize, usize)]) -> Batch,
    join: &JoinNode,
    left: SpillableBatch,
    right: SpillableBatch,
    mgr: &SpillManager,
) -> Result<SpillableBatch, DbError> {
    let (keys, keep) = (&join.keys, &join.keep);
    let bytes = left.approx_bytes() + right.approx_bytes();
    let (left, right) = match (left, right) {
        (SpillableBatch::Mem(l), SpillableBatch::Mem(r)) if bytes <= mgr.budget() => {
            return wrap(project_owned(algo(&l, &r, keys), keep), mgr);
        }
        over_budget => over_budget,
    };
    if keys.is_empty() {
        // Nothing to partition on: a keyless join is a cross product.
        return project(cross(left, right, mgr)?, keep, mgr);
    }
    mgr.grace_joins.fetch_add(1, Ordering::Relaxed);
    let parts = (bytes / mgr.budget() + 1).clamp(2, MAX_PARTITIONS);
    let (lk, rk): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
    let mut lp = partition(&left, &lk, parts, mgr)?;
    drop(left);
    let mut rp = partition(&right, &rk, parts, mgr)?;
    drop(right);
    let mut writer = SpillWriter::new(mgr, keep.len());
    for p in 0..parts {
        let lb = lp.take(p)?;
        let rb = rp.take(p)?;
        if lb.is_empty() || rb.is_empty() {
            continue;
        }
        writer.push_batch(&project_owned(hash_join(&lb, &rb, keys), keep))?;
    }
    writer.finish()
}

/// ×: [`cross_join`] when both sides are resident and the product fits
/// the budget; otherwise the left side streams chunk by chunk against
/// the materialized right side into a sorted writer, so the product is
/// never resident at once.
fn cross(
    left: SpillableBatch,
    right: SpillableBatch,
    mgr: &SpillManager,
) -> Result<SpillableBatch, DbError> {
    let width = left.width() + right.width();
    let product_bytes = left
        .rows()
        .saturating_mul(right.rows())
        .saturating_mul(width * 4);
    match (left, right) {
        (SpillableBatch::Mem(l), SpillableBatch::Mem(r)) if product_bytes <= mgr.budget() => {
            Ok(SpillableBatch::Mem(cross_join(&l, &r)))
        }
        (left, right) => {
            let right = right.into_batch()?;
            let mut w = SpillWriter::new(mgr, width);
            let mut row: Vec<u32> = Vec::with_capacity(width);
            for_each_chunk(&left, mgr, |chunk| {
                for l in chunk.iter() {
                    for r in right.iter() {
                        row.clear();
                        row.extend_from_slice(l);
                        row.extend_from_slice(r);
                        w.push_row(&row)?;
                    }
                }
                Ok(())
            })?;
            w.finish()
        }
    }
}

/// `NOT EXISTS` with a materialized sub side: it is an evidence-table
/// scan (small by construction — it carries only the correlation
/// columns); a spilled outer side streams through it.
fn anti_join(
    input: SpillableBatch,
    sub: SpillableBatch,
    keys: &[(usize, usize)],
    mgr: &SpillManager,
) -> Result<SpillableBatch, DbError> {
    // An empty NOT EXISTS side removes nothing: skip the pass entirely.
    if sub.is_empty() || input.is_empty() {
        return Ok(input);
    }
    let (sub, width) = (sub.into_batch()?, input.width());
    per_chunk(input, width, mgr, |b| hash_anti_join(b, &sub, keys))
}

/// δ after projecting to `cols`: [`agg::distinct`] on a resident input;
/// a spilled one is sorted externally (sorted runs + merge) and adjacent
/// duplicates of the merged stream are dropped.
fn distinct(
    input: SpillableBatch,
    cols: &[usize],
    mgr: &SpillManager,
) -> Result<SpillableBatch, DbError> {
    let sorted = project(input, cols, mgr)?;
    if let SpillableBatch::Mem(b) = &sorted {
        return Ok(SpillableBatch::Mem(agg::distinct(b)));
    }
    let mut out = SpillWriter::new(mgr, sorted.width());
    let mut cur = sorted.cursor(mgr)?;
    let mut row: Vec<u32> = Vec::new();
    let mut last: Option<Vec<u32>> = None;
    while cur.next_into(&mut row)? {
        if last.as_deref() != Some(row.as_slice()) {
            out.push_row(&row)?;
            last = Some(row.clone());
        }
    }
    out.finish()
}

/// π: in place on a resident input, streamed into a sorted writer on a
/// spilled one. A zero-width projection keeps the multiplicity as a row
/// count.
fn project(
    input: SpillableBatch,
    cols: &[usize],
    mgr: &SpillManager,
) -> Result<SpillableBatch, DbError> {
    match input {
        SpillableBatch::Mem(b) => Ok(SpillableBatch::Mem(project_owned(b, cols))),
        spilled if is_identity(cols, spilled.width()) => Ok(spilled),
        spilled => per_chunk(spilled, cols.len(), mgr, |b| b.project(cols)),
    }
}

/// Whether projecting a `width`-column batch to `cols` changes nothing.
fn is_identity(cols: &[usize], width: usize) -> bool {
    cols.len() == width && cols.iter().enumerate().all(|(i, &c)| i == c)
}

/// Projects an owned batch, returning it untouched (no copy) when the
/// projection is the identity.
fn project_owned(batch: Batch, cols: &[usize]) -> Batch {
    if is_identity(cols, batch.width()) {
        batch
    } else {
        batch.project(cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::collect_cursor;

    #[test]
    fn distinct_dedups_across_runs() {
        let mgr = SpillManager::in_memory(1024);
        let mut w = SpillWriter::new(&mgr, 1);
        for _ in 0..4 {
            for i in 0..600u32 {
                w.push_row(&[i % 100]).unwrap();
            }
        }
        let input = w.finish().unwrap();
        assert!(input.is_spilled());
        let out = distinct(input, &[0], &mgr).unwrap();
        let got = collect_cursor(out.cursor(&mgr).unwrap()).unwrap();
        assert_eq!(got.len(), 100);
        let vals: Vec<u32> = got.iter().map(|r| r[0]).collect();
        assert_eq!(vals, (0..100).collect::<Vec<_>>());
    }
}
