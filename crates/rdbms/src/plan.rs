//! The physical plan IR: an explicit, costed operator tree.
//!
//! [`crate::optimizer::plan_query`] compiles a
//! [`crate::query::ConjunctiveQuery`] into a [`QueryPlan`] — a tree of
//! [`PhysicalPlan`] nodes, each carrying its estimated output
//! cardinality, cumulative estimated cost, output width, and the query
//! variables its output columns provide. [`crate::executor::execute`]
//! walks the tree over [`crate::exec::Batch`]es; nothing in this module
//! touches data.
//!
//! Separating the plan from its execution is the point: plans can be
//! inspected (`EXPLAIN` via [`fmt::Display`]), compared across the
//! paper's lesion configurations, golden-tested, cached, and profiled
//! per node ([`crate::executor::ExecProfile`]).

use crate::catalog::TableId;
use crate::pred::Pred;
use crate::query::VarId;
use std::fmt;

/// Index of a node within its [`QueryPlan`] (pre-order, root = 0).
/// Used to address per-node runtime counters.
pub type NodeId = usize;

/// What one output column of a plan node carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanColumn {
    /// The column binds the given query variable.
    Var(VarId),
    /// The column carries an unfiltered constant for the deferred
    /// top-level filter (pushdown lesion); it binds no variable. Check
    /// columns can sit anywhere in the layout, interleaved with
    /// variable columns by joins.
    Check,
}

/// Static per-node annotations computed by the planner.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeInfo {
    /// This node's index within the plan (pre-order).
    pub id: NodeId,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated cumulative cost (rows touched by this node and its
    /// entire subtree, in arbitrary row-visit units).
    pub est_cost: f64,
    /// Output row width in columns.
    pub width: usize,
    /// What each output column carries, positionally (`cols.len() ==
    /// width`).
    pub cols: Vec<PlanColumn>,
}

impl NodeInfo {
    /// The query variables this node's output provides, in column order.
    pub fn provides(&self) -> Vec<VarId> {
        self.cols
            .iter()
            .filter_map(|c| match c {
                PlanColumn::Var(v) => Some(*v),
                PlanColumn::Check => None,
            })
            .collect()
    }
}

/// A base-table scan specification shared by [`PlanOp::SeqScan`] and
/// [`PlanOp::IndexScan`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScanNode {
    /// The scanned table.
    pub table: TableId,
    /// Its catalog name (captured at plan time for `EXPLAIN`).
    pub table_name: String,
    /// Predicates evaluated during the scan (pushed down).
    pub preds: Vec<Pred>,
    /// Output projection, as table column indices.
    pub project: Vec<usize>,
}

/// The two inputs and wiring of a binary join node.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinNode {
    /// Probe/outer input.
    pub left: Box<PhysicalPlan>,
    /// Build/inner input.
    pub right: Box<PhysicalPlan>,
    /// Equi-join keys as `(left column, right column)` pairs.
    pub keys: Vec<(usize, usize)>,
    /// Post-join projection over `left ⧺ right` columns (drops the
    /// duplicate key columns of the right input).
    pub keep: Vec<usize>,
}

/// One physical operator.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanOp {
    /// Sequential scan of a base table with predicate pushdown.
    SeqScan(ScanNode),
    /// Equality-index lookup of a base table: the rows whose column `col`
    /// equals `value` ([`crate::storage::Table::lookup`]), filtered by the
    /// scan's remaining pushed-down predicates and projected.
    IndexScan {
        /// The table, the remaining predicates and the projection.
        scan: ScanNode,
        /// The looked-up column.
        col: usize,
        /// The value that column must equal.
        value: u32,
    },
    /// Filter (σ) applied above an arbitrary input. Used for residual
    /// inequality predicates and, in the pushdown-disabled lesion, for
    /// constant filters deferred above the joins.
    FilterScan {
        /// The filtered input.
        input: Box<PhysicalPlan>,
        /// Predicates over the input's output columns.
        preds: Vec<Pred>,
    },
    /// Build-and-probe hash join.
    HashJoin(JoinNode),
    /// Sort-both-sides merge join.
    SortMergeJoin(JoinNode),
    /// Nested-loop join (the paper's "fixed join algorithm" lesion).
    NestedLoopJoin(JoinNode),
    /// Cross product (no shared variables).
    CrossJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Inner input.
        right: Box<PhysicalPlan>,
    },
    /// `NOT EXISTS` hash anti-join: keeps `input` rows with no match in
    /// `sub` on `keys`.
    AntiJoin {
        /// The pruned input.
        input: Box<PhysicalPlan>,
        /// The subquery side (a scan of the anti atom).
        sub: Box<PhysicalPlan>,
        /// Correlation keys as `(input column, sub column)` pairs.
        keys: Vec<(usize, usize)>,
    },
    /// Duplicate elimination after projecting to `project`.
    Distinct {
        /// The deduplicated input.
        input: Box<PhysicalPlan>,
        /// Projection applied before deduplication (input columns).
        project: Vec<usize>,
    },
}

/// One node of the physical plan tree: an operator plus its static
/// annotations.
#[derive(Clone, Debug, PartialEq)]
pub struct PhysicalPlan {
    /// The operator.
    pub op: PlanOp,
    /// Planner annotations (cost, cardinality, width, bindings).
    pub info: NodeInfo,
}

impl PhysicalPlan {
    /// The operator's display name (matches the `EXPLAIN` output).
    pub fn name(&self) -> &'static str {
        match &self.op {
            PlanOp::SeqScan(_) => "SeqScan",
            PlanOp::IndexScan { .. } => "IndexScan",
            PlanOp::FilterScan { .. } => "FilterScan",
            PlanOp::HashJoin(_) => "HashJoin",
            PlanOp::SortMergeJoin(_) => "SortMergeJoin",
            PlanOp::NestedLoopJoin(_) => "NestedLoopJoin",
            PlanOp::CrossJoin { .. } => "CrossJoin",
            PlanOp::AntiJoin { .. } => "AntiJoin",
            PlanOp::Distinct { .. } => "Distinct",
        }
    }

    /// Child nodes, left to right, as a fixed pair (`None` past the
    /// operator's arity) — the executor's allocation-free view.
    pub(crate) fn inputs(&self) -> [Option<&PhysicalPlan>; 2] {
        match &self.op {
            PlanOp::SeqScan(_) | PlanOp::IndexScan { .. } => [None, None],
            PlanOp::FilterScan { input, .. } | PlanOp::Distinct { input, .. } => {
                [Some(input), None]
            }
            PlanOp::HashJoin(j) | PlanOp::SortMergeJoin(j) | PlanOp::NestedLoopJoin(j) => {
                [Some(&j.left), Some(&j.right)]
            }
            PlanOp::CrossJoin { left, right } => [Some(left), Some(right)],
            PlanOp::AntiJoin { input, sub, .. } => [Some(input), Some(sub)],
        }
    }

    /// Child nodes, left to right.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        self.inputs().into_iter().flatten().collect()
    }

    /// Child nodes, left to right, mutably (used by the planner to
    /// renumber node ids).
    pub fn children_mut(&mut self) -> Vec<&mut PhysicalPlan> {
        match &mut self.op {
            PlanOp::SeqScan(_) | PlanOp::IndexScan { .. } => vec![],
            PlanOp::FilterScan { input, .. } | PlanOp::Distinct { input, .. } => {
                vec![input]
            }
            PlanOp::HashJoin(j) | PlanOp::SortMergeJoin(j) | PlanOp::NestedLoopJoin(j) => {
                vec![&mut j.left, &mut j.right]
            }
            PlanOp::CrossJoin { left, right } => vec![left, right],
            PlanOp::AntiJoin { input, sub, .. } => vec![input, sub],
        }
    }

    /// Number of nodes in this subtree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .into_iter()
            .map(PhysicalPlan::node_count)
            .sum::<usize>()
    }

    /// Pre-order visit of the subtree.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a PhysicalPlan)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    fn detail(&self) -> String {
        let scan = |s: &ScanNode, key: String| {
            if s.preds.is_empty() {
                format!("{}{key}", s.table_name)
            } else {
                format!("{}{key} preds={}", s.table_name, fmt_preds(&s.preds))
            }
        };
        match &self.op {
            PlanOp::SeqScan(s) => scan(s, String::new()),
            PlanOp::IndexScan {
                scan: s,
                col,
                value,
            } => scan(s, format!(" [c{col}={value}]")),
            PlanOp::FilterScan { preds, .. } => format!("preds={}", fmt_preds(preds)),
            PlanOp::HashJoin(j) | PlanOp::SortMergeJoin(j) | PlanOp::NestedLoopJoin(j) => {
                format!("keys={}", fmt_key_vars(j))
            }
            PlanOp::CrossJoin { .. } => String::new(),
            PlanOp::AntiJoin { input, keys, .. } => {
                let vars: Vec<String> = keys.iter().map(|&(lc, _)| fmt_col(input, lc)).collect();
                format!("keys=[{}]", vars.join(", "))
            }
            PlanOp::Distinct { project, .. } => format!("project={project:?}"),
        }
    }

    fn fmt_tree(&self, f: &mut fmt::Formatter<'_>, prefix: &str, last: bool) -> fmt::Result {
        let (branch, cont) = if last {
            ("└─ ", "   ")
        } else {
            ("├─ ", "│  ")
        };
        let detail = self.detail();
        let sep = if detail.is_empty() { "" } else { " " };
        writeln!(
            f,
            "{prefix}{branch}{}{sep}{detail}  (rows={:.0} cost={:.0} width={} vars={:?})",
            self.name(),
            self.info.est_rows,
            self.info.est_cost,
            self.info.width,
            self.info.provides(),
        )?;
        let children = self.children();
        let n = children.len();
        for (i, c) in children.into_iter().enumerate() {
            c.fmt_tree(f, &format!("{prefix}{cont}"), i + 1 == n)?;
        }
        Ok(())
    }
}

fn fmt_preds(preds: &[Pred]) -> String {
    let parts: Vec<String> = preds
        .iter()
        .map(|p| match *p {
            Pred::ColEqConst { col, value } => format!("c{col}={value}"),
            Pred::ColNeConst { col, value } => format!("c{col}!={value}"),
            Pred::ColEqCol { a, b } => format!("c{a}=c{b}"),
            Pred::ColNeCol { a, b } => format!("c{a}!=c{b}"),
            Pred::ColInRange { col, lo, hi } => format!("c{col} in [{lo},{hi}]"),
        })
        .collect();
    format!("[{}]", parts.join(", "))
}

/// Renders a join key list as the variables it equates (falls back to
/// column indices for non-variable columns).
fn fmt_key_vars(j: &JoinNode) -> String {
    let vars: Vec<String> = j.keys.iter().map(|&(lc, _)| fmt_col(&j.left, lc)).collect();
    format!("[{}]", vars.join(", "))
}

fn fmt_col(input: &PhysicalPlan, col: usize) -> String {
    match input.info.cols.get(col) {
        Some(PlanColumn::Var(v)) => format!("v{v}"),
        _ => format!("c{col}"),
    }
}

/// A complete plan for one conjunctive query: the operator tree plus the
/// final output projection.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryPlan {
    /// The root operator.
    pub root: PhysicalPlan,
    /// Final projection from the root's output columns to the query's
    /// output variables (identity when the root already projects, i.e.
    /// for `DISTINCT` queries).
    pub output: Vec<usize>,
    /// The query variable of each final output column.
    pub schema: Vec<VarId>,
    /// Number of nodes in the tree (node ids are `0..node_count`).
    pub node_count: usize,
}

impl QueryPlan {
    /// Estimated output rows of the whole plan.
    pub fn est_rows(&self) -> f64 {
        self.root.info.est_rows
    }

    /// Estimated total cost of the whole plan.
    pub fn est_cost(&self) -> f64 {
        self.root.info.est_cost
    }

    /// The `EXPLAIN` rendering (same as `format!("{plan}")`).
    pub fn explain(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for QueryPlan {
    /// `EXPLAIN`: one line per node, tree-drawn, with estimated rows,
    /// cumulative cost, output width, and provided variable bindings.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let vars: Vec<String> = self.schema.iter().map(|v| format!("v{v}")).collect();
        writeln!(
            f,
            "Query (rows={:.0} cost={:.0} output=[{}])",
            self.est_rows(),
            self.est_cost(),
            vars.join(", ")
        )?;
        self.root.fmt_tree(f, "", true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(id: NodeId, name: &str) -> PhysicalPlan {
        PhysicalPlan {
            op: PlanOp::SeqScan(ScanNode {
                table: TableId(0),
                table_name: name.to_string(),
                preds: vec![],
                project: vec![0],
            }),
            info: NodeInfo {
                id,
                est_rows: 3.0,
                est_cost: 3.0,
                width: 1,
                cols: vec![PlanColumn::Var(0)],
            },
        }
    }

    #[test]
    fn tree_shape_and_counts() {
        let join = PhysicalPlan {
            op: PlanOp::HashJoin(JoinNode {
                left: Box::new(leaf(1, "l")),
                right: Box::new(leaf(2, "r")),
                keys: vec![(0, 0)],
                keep: vec![0],
            }),
            info: NodeInfo {
                id: 0,
                est_rows: 9.0,
                est_cost: 15.0,
                width: 1,
                cols: vec![PlanColumn::Var(0)],
            },
        };
        assert_eq!(join.node_count(), 3);
        assert_eq!(join.name(), "HashJoin");
        let mut names = Vec::new();
        join.visit(&mut |n| names.push(n.name()));
        assert_eq!(names, vec!["HashJoin", "SeqScan", "SeqScan"]);
    }

    #[test]
    fn explain_is_deterministic_text() {
        let plan = QueryPlan {
            root: leaf(0, "wrote"),
            output: vec![0],
            schema: vec![0],
            node_count: 1,
        };
        let a = plan.explain();
        assert!(a.contains("SeqScan wrote"), "{a}");
        assert!(a.contains("rows=3"), "{a}");
        assert_eq!(a, plan.explain());
    }
}
