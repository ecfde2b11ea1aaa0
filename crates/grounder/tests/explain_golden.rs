//! Golden tests pinning the `EXPLAIN` rendering of the physical plans
//! for two representative grounding queries from the paper's Figure 1
//! program, and of `explain_grounding` on a table large enough to be
//! chunked and index-read. Any change to the planner's ordering
//! heuristics, access paths, cost arithmetic, the grounder's task split,
//! or the plan printer shows up here as a readable diff.

use tuffy_grounder::compile::{compile_clause, GroundingMode};
use tuffy_grounder::dbload::GroundingDb;
use tuffy_mln::clausify::clausify_program;
use tuffy_mln::parser::{parse_evidence, parse_program};
use tuffy_rdbms::optimizer::plan_query;
use tuffy_rdbms::OptimizerConfig;

/// Figure 1: coauthorship + citation label propagation.
const PROGRAM: &str = "*wrote(person, paper)\n\
                       *refers(paper, paper)\n\
                       cat(paper, category)\n\
                       1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)\n\
                       2 cat(p1, c), refers(p1, p2) => cat(p2, c)\n";
const EVIDENCE: &str = "wrote(Joe, P1)\n\
                        wrote(Joe, P2)\n\
                        wrote(Jake, P3)\n\
                        refers(P1, P3)\n\
                        cat(P2, DB)\n";

fn grounding_db() -> (tuffy_mln::program::MlnProgram, GroundingDb) {
    let mut p = parse_program(PROGRAM).unwrap();
    let set = parse_evidence(&mut p, EVIDENCE).unwrap();
    let domains = set.merged_domains(&p);
    let gdb = GroundingDb::build(&p, &set, &domains).unwrap();
    (p, gdb)
}

fn query_for_rule(
    p: &tuffy_mln::program::MlnProgram,
    gdb: &GroundingDb,
    rule: usize,
) -> tuffy_rdbms::ConjunctiveQuery {
    let clauses = clausify_program(p);
    let cc = compile_clause(p, gdb, &clauses[rule], GroundingMode::LazyClosure)
        .unwrap()
        .unwrap();
    cc.query.expect("rule has universal variables")
}

fn plan_for_rule(rule: usize) -> String {
    let (p, gdb) = grounding_db();
    let q = query_for_rule(&p, &gdb, rule);
    plan_query(&gdb.db, &q, &OptimizerConfig::default())
        .unwrap()
        .explain()
}

/// F2 of Figure 1: `wrote(x,p1), wrote(x,p2), cat(p1,c) => cat(p2,c)`.
/// The optimizer anchors on the 1-row reachable-label table, prunes it
/// with the false-evidence anti-join, hash-joins the two `wrote` scans
/// through the shared author, and anti-joins away bindings whose head is
/// already true evidence.
#[test]
fn coauthor_label_propagation_plan_is_pinned() {
    let expected = "\
Query (rows=1 cost=20 output=[v0, v1, v2, v3])
└─ AntiJoin keys=[v2, v3]  (rows=1 cost=20 width=4 vars=[1, 3, 0, 2])
   ├─ HashJoin keys=[v0]  (rows=1 cost=18 width=4 vars=[1, 3, 0, 2])
   │  ├─ HashJoin keys=[v1]  (rows=1 cost=10 width=3 vars=[1, 3, 0])
   │  │  ├─ AntiJoin keys=[v1, v3]  (rows=1 cost=2 width=2 vars=[1, 3])
   │  │  │  ├─ SeqScan reach_cat  (rows=1 cost=1 width=2 vars=[1, 3])
   │  │  │  └─ SeqScan evf_cat  (rows=0 cost=0 width=2 vars=[1, 3])
   │  │  └─ SeqScan evt_wrote  (rows=3 cost=3 width=2 vars=[0, 1])
   │  └─ SeqScan evt_wrote  (rows=3 cost=3 width=2 vars=[0, 2])
   └─ SeqScan evt_cat  (rows=1 cost=1 width=2 vars=[2, 3])
";
    assert_eq!(plan_for_rule(0), expected);
}

/// F3 of Figure 1: `cat(p1,c), refers(p1,p2) => cat(p2,c)`. Same anchor,
/// one hash join through the citing paper.
#[test]
fn citation_label_propagation_plan_is_pinned() {
    let expected = "\
Query (rows=1 cost=9 output=[v0, v1, v2])
└─ AntiJoin keys=[v2, v1]  (rows=1 cost=9 width=3 vars=[0, 1, 2])
   ├─ HashJoin keys=[v0]  (rows=1 cost=6 width=3 vars=[0, 1, 2])
   │  ├─ AntiJoin keys=[v0, v1]  (rows=1 cost=2 width=2 vars=[0, 1])
   │  │  ├─ SeqScan reach_cat  (rows=1 cost=1 width=2 vars=[0, 1])
   │  │  └─ SeqScan evf_cat  (rows=0 cost=0 width=2 vars=[0, 1])
   │  └─ SeqScan evt_refers  (rows=1 cost=1 width=2 vars=[0, 2])
   └─ SeqScan evt_cat  (rows=1 cost=1 width=2 vars=[2, 1])
";
    assert_eq!(plan_for_rule(1), expected);
}

/// `EXPLAIN ANALYZE` for F3: estimated versus actual rows per node,
/// pinned with the (nondeterministic) timings stripped. The estimates
/// come from the table lengths; the actuals from profiled execution of
/// the same plan.
#[test]
fn est_vs_actual_rendering_is_pinned() {
    let (p, gdb) = grounding_db();
    let q = query_for_rule(&p, &gdb, 1);
    let plan = plan_query(&gdb.db, &q, &OptimizerConfig::default()).unwrap();
    let (_, profile) = tuffy_rdbms::execute_profiled(&gdb.db, &plan).unwrap();
    let rendered: String = profile
        .explain_analyze(&plan)
        .lines()
        .map(|l| match l.split_once(" elapsed=") {
            Some((head, _)) => format!("{}\n", head.trim_end()),
            None => format!("{l}\n"),
        })
        .collect();
    let expected = "\
Query (rows=1 cost=9 output=[v0, v1, v2])
└─ AntiJoin keys=[v2, v1]  (rows=1 cost=9 width=3 vars=[0, 1, 2])
   ├─ HashJoin keys=[v0]  (rows=1 cost=6 width=3 vars=[0, 1, 2])
   │  ├─ AntiJoin keys=[v0, v1]  (rows=1 cost=2 width=2 vars=[0, 1])
   │  │  ├─ SeqScan reach_cat  (rows=1 cost=1 width=2 vars=[0, 1])
   │  │  └─ SeqScan evf_cat  (rows=0 cost=0 width=2 vars=[0, 1])
   │  └─ SeqScan evt_refers  (rows=1 cost=1 width=2 vars=[0, 2])
   └─ SeqScan evt_cat  (rows=1 cost=1 width=2 vars=[2, 1])
-- est vs actual --
node  0 AntiJoin         est_rows=1        actual_rows=0        rows_in=1
node  1 HashJoin         est_rows=1        actual_rows=0        rows_in=2
node  2 AntiJoin         est_rows=1        actual_rows=1        rows_in=1
node  3 SeqScan          est_rows=1        actual_rows=1        rows_in=1
node  4 SeqScan          est_rows=0        actual_rows=0        rows_in=0
node  5 SeqScan          est_rows=1        actual_rows=1        rows_in=1
node  6 SeqScan          est_rows=1        actual_rows=1        rows_in=1
";
    assert_eq!(rendered, expected);
}

/// `tuffy --explain` on a table above the grounder's chunk threshold
/// (2 100 `link` rows): the full-table rule is split into value-range
/// chunks, and EXPLAIN prints the split and each chunk's plan; the
/// constant selection matches 42 rows, runs as one task, and reads them
/// through the table's equality index.
#[test]
fn explain_shows_chunks_and_index_lookups() {
    let program = "*link(node, node)\n\
                   label(node)\n\
                   1 link(x, y) => label(y)\n\
                   2 link(N0, y) => label(y)\n";
    let evidence: String = (0..2_100)
        .map(|i| format!("link(N{}, M{i})\n", i % 50))
        .collect();
    let mut p = parse_program(program).unwrap();
    let set = parse_evidence(&mut p, &evidence).unwrap();
    let text = tuffy_grounder::explain_grounding(
        &p,
        &set,
        GroundingMode::LazyClosure,
        &OptimizerConfig::default(),
    )
    .unwrap();
    let expected = "\
clause 0 (weight 1, 2 universal vars), chunks=2 on v0
chunk v0 in [0, 55]
Query (rows=945 cost=3150 output=[v0, v1])
└─ AntiJoin keys=[v1]  (rows=945 cost=3150 width=2 vars=[0, 1])
   ├─ SeqScan evt_link preds=[c0 in [0,55]]  (rows=1050 cost=2100 width=2 vars=[0, 1])
   └─ SeqScan evt_label  (rows=0 cost=0 width=1 vars=[1])

chunk v0 in [56, 4294967295]
Query (rows=945 cost=3150 output=[v0, v1])
└─ AntiJoin keys=[v1]  (rows=945 cost=3150 width=2 vars=[0, 1])
   ├─ SeqScan evt_link preds=[c0 in [56,4294967295]]  (rows=1050 cost=2100 width=2 vars=[0, 1])
   └─ SeqScan evt_label  (rows=0 cost=0 width=1 vars=[1])

clause 1 (weight 2, 1 universal vars)
Query (rows=1 cost=43 output=[v0])
└─ AntiJoin keys=[v0]  (rows=1 cost=43 width=1 vars=[0])
   ├─ IndexScan evt_link [c0=5]  (rows=1 cost=42 width=1 vars=[0])
   └─ SeqScan evt_label  (rows=0 cost=0 width=1 vars=[0])

";
    assert_eq!(text, expected);
}
