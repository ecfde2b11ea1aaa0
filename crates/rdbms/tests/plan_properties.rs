//! Property tests for the planner/executor split: for random conjunctive
//! queries over random data, every lesion configuration of the optimizer
//! — `Auto` join order/algorithms versus the `Program` +
//! `NestedLoopOnly` + no-pushdown baselines — produces the identical
//! canonical row sequence at every memory budget, and the produced plans
//! satisfy their structural invariants (pre-order node ids, consistent
//! widths, runtime counters populated for every node whether or not
//! anything spilled). Plans are also pinned as a function of (query,
//! table contents, config) alone: executing queries never changes them.
//!
//! Equality-index lookups (`IndexScan`) are held to the sequential scan:
//! on tables on both sides of one page, a lookup plan returns the
//! multiset the pushdown-lesioned plan (which reads every row) returns,
//! and no mutation leaves an index that serves rows the table no longer
//! holds.

use proptest::prelude::*;
use tuffy_rdbms::executor::{execute, execute_plan, execute_profiled};
use tuffy_rdbms::optimizer::{plan_query, run_query};
use tuffy_rdbms::query::{ColumnBinding, ConjunctiveQuery, QueryAtom};
use tuffy_rdbms::spill::collect_cursor;
use tuffy_rdbms::{
    execute_spill, Database, ExecProfile, JoinAlgorithmPolicy, JoinOrderPolicy, OptimizerConfig,
    PlanOp, QueryPlan, SpillManager, TableId, TableSchema, PAGE_ROWS,
};

/// All eight lesion configurations (join order × algorithm × pushdown);
/// index 0 is the all-on default and the last is the paper's
/// fully-lesioned Alchemy-like baseline.
fn all_configs() -> Vec<OptimizerConfig> {
    let mut out = Vec::new();
    for join_order in [JoinOrderPolicy::Auto, JoinOrderPolicy::Program] {
        for join_algorithm in [
            JoinAlgorithmPolicy::Auto,
            JoinAlgorithmPolicy::NestedLoopOnly,
        ] {
            for pushdown in [true, false] {
                out.push(OptimizerConfig {
                    join_order,
                    join_algorithm,
                    pushdown,
                    ..Default::default()
                });
            }
        }
    }
    out
}

/// Builds a two-table database from row lists (values kept small so that
/// joins actually hit).
fn build_db(t0: &[(u8, u8)], t1: &[(u8, u8)]) -> (Database, Vec<tuffy_rdbms::TableId>) {
    let mut db = Database::default();
    let id0 = db
        .create_table("t0", TableSchema::new(vec!["a", "b"]))
        .unwrap();
    let id1 = db
        .create_table("t1", TableSchema::new(vec!["a", "b"]))
        .unwrap();
    for &(x, y) in t0 {
        db.insert(id0, &[x as u32, y as u32]).unwrap();
    }
    for &(x, y) in t1 {
        db.insert(id1, &[x as u32, y as u32]).unwrap();
    }
    (db, vec![id0, id1])
}

/// Decodes one column binding from a raw byte: 0..4 → variables, 4..6 →
/// constants, otherwise unconstrained.
fn binding(code: u8) -> ColumnBinding {
    match code % 7 {
        v @ 0..=3 => ColumnBinding::Var(v as usize),
        c @ 4..=5 => ColumnBinding::Const((c - 4) as u32),
        _ => ColumnBinding::Any,
    }
}

/// Builds a query from raw atom descriptors `(table choice, col0 code,
/// col1 code)`; output projects every bound variable.
fn build_query(
    tables: &[tuffy_rdbms::TableId],
    atoms_raw: &[(u8, u8, u8)],
    anti_raw: Option<(u8, u8, u8)>,
    neq: bool,
    distinct: bool,
) -> ConjunctiveQuery {
    let atoms: Vec<QueryAtom> = atoms_raw
        .iter()
        .map(|&(t, c0, c1)| QueryAtom {
            table: tables[(t % 2) as usize],
            bindings: vec![binding(c0), binding(c1)],
        })
        .collect();
    let mut q = ConjunctiveQuery {
        atoms,
        anti_atoms: vec![],
        neq: vec![],
        neq_const: vec![],
        ranges: vec![],
        output: vec![],
        distinct,
    };
    let bound = q.bound_variables();
    q.output = bound.clone();
    // Anti atoms and inequality filters only over bound variables, so the
    // query stays well-formed.
    if let Some((t, c0, c1)) = anti_raw {
        let keep = |b: ColumnBinding| match b {
            ColumnBinding::Var(v) if !bound.contains(&v) => ColumnBinding::Any,
            other => other,
        };
        q.anti_atoms.push(QueryAtom {
            table: tables[(t % 2) as usize],
            bindings: vec![keep(binding(c0)), keep(binding(c1))],
        });
    }
    if neq && bound.len() >= 2 {
        q.neq.push((bound[0], bound[1]));
    }
    q
}

/// Plans `q` under `cfg` and executes the plan under a `budget`-byte
/// manager (0 = unbounded), returning the canonical row sequence and the
/// per-node profile.
fn run_canonical(
    db: &Database,
    q: &ConjunctiveQuery,
    cfg: &OptimizerConfig,
    budget: usize,
) -> (Vec<Vec<u32>>, ExecProfile) {
    let plan = plan_query(db, q, cfg).expect("plannable query");
    let mgr = SpillManager::in_memory(budget);
    let mut profile = ExecProfile::default();
    let out = execute_plan(db, &plan, &mgr, Some(&mut profile)).expect("executable plan");
    // Structural invariants: pre-order ids, a metrics slot per node, and
    // the output width matching the query projection.
    let mut ids = Vec::new();
    plan.root.visit(&mut |n| ids.push(n.info.id));
    assert_eq!(ids, (0..plan.node_count).collect::<Vec<_>>());
    assert_eq!(profile.nodes.len(), plan.node_count);
    assert_eq!(out.width(), q.output.len());
    assert_eq!(profile.nodes[0].rows_out, out.rows() as u64);
    if budget == 0 {
        assert_eq!(mgr.stats().runs_written, 0, "unbounded budget spilled");
    }
    let batch = collect_cursor(out.cursor(&mgr).expect("readable result")).expect("merged result");
    (batch.iter().map(<[u32]>::to_vec).collect(), profile)
}

/// A four-table chain query whose `A ⋈ B` prefix breaks the planner's
/// assumption that each column of an `n`-row table holds `n` distinct
/// values: `A.y` takes two values and `B.y` ten, so the planner
/// estimates 40·48/48 = 40 rows where execution produces 800.
///
/// A(x, y): 40 rows, y = x mod 2            → taken as 40 values per column
/// B(y, z): 48 rows; y ∈ {0,1} carry 20 duplicates of z = y each,
///          y ∈ 2..10 one row z = y         → taken as 48 (really 10 and 10)
/// C(z, c): 60 rows, z ∈ {0,1} × 30 distinct c → taken as 60
/// D(x, w): 320 rows, 8 distinct w per x       → taken as 320
fn misestimated_chain() -> (Database, ConjunctiveQuery) {
    let mut db = Database::default();
    let mut table = |name: &str, cols: [&str; 2], rows: Vec<[u32; 2]>| {
        let id = db
            .create_table(name, TableSchema::new(cols.to_vec()))
            .unwrap();
        for r in &rows {
            db.insert(id, r).unwrap();
        }
        id
    };
    let a = table("a", ["x", "y"], (0..40).map(|i| [i, i % 2]).collect());
    let b = table(
        "b",
        ["y", "z"],
        (0..2)
            .flat_map(|y| std::iter::repeat([y, y]).take(20))
            .chain((2..10).map(|y| [y, y]))
            .collect(),
    );
    let c = table(
        "c",
        ["z", "c"],
        (0..2)
            .flat_map(|z| (0..30).map(move |j| [z, 100 + z * 30 + j]))
            .collect(),
    );
    let d = table(
        "d",
        ["x", "w"],
        (0..40)
            .flat_map(|x| (0..8).map(move |j| [x, 1000 + x * 8 + j]))
            .collect(),
    );
    let atom = |table, u, v| QueryAtom {
        table,
        bindings: vec![ColumnBinding::Var(u), ColumnBinding::Var(v)],
    };
    let query = ConjunctiveQuery {
        atoms: vec![atom(a, 0, 1), atom(b, 1, 2), atom(c, 2, 3), atom(d, 0, 4)],
        anti_atoms: vec![],
        neq: vec![],
        neq_const: vec![],
        ranges: vec![],
        output: vec![0, 1, 2, 3, 4],
        distinct: false,
    };
    (db, query)
}

/// Planning the same query on the same tables gives byte-identical `EXPLAIN` text before and after other queries run,
/// through every execution entry point — even when execution shows an
/// estimate to be 4× off. The miss is reported per node by
/// [`execute_profiled`]; it is never written back into planning inputs.
#[test]
fn plans_do_not_depend_on_execution_history() {
    let (db, query) = misestimated_chain();
    let cfg = OptimizerConfig::default();
    let plan = plan_query(&db, &query, &cfg).unwrap();
    let before = plan.explain();

    let (out, profile) = execute_profiled(&db, &plan).unwrap();
    assert_eq!(out.len(), 192_000);
    let mut worst_miss = 1.0f64;
    plan.root.visit(&mut |n| {
        if matches!(n.op, PlanOp::HashJoin(_)) {
            let actual = profile.nodes[n.info.id].rows_out as f64;
            worst_miss = worst_miss.max(actual / n.info.est_rows);
        }
    });
    assert!(
        worst_miss > 4.0,
        "fixture lost its misestimate: worst actual/est = {worst_miss}"
    );

    let mut prefix = query.clone();
    prefix.atoms.truncate(2);
    prefix.output = vec![0, 1, 2];
    assert_eq!(run_query(&db, &prefix, &cfg).unwrap().len(), 800);
    let spilled = execute_spill(&db, &query, &cfg, &SpillManager::in_memory(1 << 12)).unwrap();
    assert_eq!(spilled.rows(), 192_000);

    assert_eq!(plan_query(&db, &query, &cfg).unwrap().explain(), before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole equivalence: every lesion configuration returns the
    /// same canonical row sequence as the full optimizer, with nothing
    /// spilled and under a budget small enough that joins partition and
    /// intermediates are cut into runs. The budget changes residency
    /// only: the same plan reports the same per-node row counts.
    #[test]
    fn lesion_configs_and_budgets_agree_on_random_queries(
        t0 in proptest::collection::vec((0u8..4, 0u8..4), 0..48),
        t1 in proptest::collection::vec((0u8..4, 0u8..4), 0..48),
        atoms_raw in proptest::collection::vec((0u8..2, 0u8..14, 0u8..14), 1..4),
        anti_raw in (0u8..2, 0u8..14, 0u8..14),
        use_anti in any::<bool>(),
        neq in any::<bool>(),
        distinct in any::<bool>(),
    ) {
        let (db, tables) = build_db(&t0, &t1);
        let q = build_query(
            &tables,
            &atoms_raw,
            if use_anti { Some(anti_raw) } else { None },
            neq,
            distinct,
        );
        let (reference, _) = run_canonical(&db, &q, &all_configs()[0], 0);
        for cfg in &all_configs() {
            let (unbounded, resident) = run_canonical(&db, &q, cfg, 0);
            let (budgeted, spilled) = run_canonical(&db, &q, cfg, 256);
            for (budget, got) in [(0, &unbounded), (256, &budgeted)] {
                prop_assert_eq!(
                    got,
                    &reference,
                    "config {:?} at budget {} disagrees: {:?} vs {:?}",
                    cfg,
                    budget,
                    got,
                    reference
                );
            }
            let counts = |p: &ExecProfile| {
                p.nodes.iter().map(|m| (m.rows_in, m.rows_out)).collect::<Vec<_>>()
            };
            prop_assert_eq!(counts(&spilled), counts(&resident), "config {:?}", cfg);
        }
    }

    /// Replanning the same query against the same tables is
    /// deterministic, and the plan's estimated output arity matches what
    /// execution produces.
    #[test]
    fn planning_is_deterministic(
        t0 in proptest::collection::vec((0u8..4, 0u8..4), 0..10),
        t1 in proptest::collection::vec((0u8..4, 0u8..4), 0..10),
        atoms_raw in proptest::collection::vec((0u8..2, 0u8..14, 0u8..14), 1..3),
    ) {
        let (db, tables) = build_db(&t0, &t1);
        let q = build_query(&tables, &atoms_raw, None, false, false);
        let cfg = OptimizerConfig::default();
        let p1 = plan_query(&db, &q, &cfg).expect("plannable");
        let p2 = plan_query(&db, &q, &cfg).expect("plannable");
        prop_assert_eq!(p1.explain(), p2.explain());
        prop_assert_eq!(&p1, &p2);
    }
}

/// The pushdown lesion: constants are filtered above the joins, every
/// scan reads its whole table, and no index is used.
fn no_pushdown() -> OptimizerConfig {
    OptimizerConfig {
        pushdown: false,
        ..Default::default()
    }
}

/// Number of `IndexScan` nodes in `plan`.
fn index_scans(plan: &QueryPlan) -> usize {
    let mut n = 0;
    plan.root
        .visit(&mut |node| n += usize::from(matches!(node.op, PlanOp::IndexScan { .. })));
    n
}

/// `rows` two-column rows drawn from `seed`: column 0 in `0..4`, column 1
/// in `0..64`, so the constants `0` and `1` select about a quarter and a
/// sixty-fourth of the table.
fn lcg_rows(rows: usize, seed: u64) -> Vec<[u32; 2]> {
    let mut s = seed | 1;
    (0..rows)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            [(s >> 33) as u32 % 4, (s >> 45) as u32 % 64]
        })
        .collect()
}

fn table_of(db: &mut Database, name: &str, rows: &[[u32; 2]]) -> TableId {
    let id = db
        .create_table(name, TableSchema::new(vec!["a", "b"]))
        .unwrap();
    for row in rows {
        db.insert(id, row).unwrap();
    }
    id
}

/// Sorted rows of `plan` executed against `db`.
fn sorted_rows(db: &Database, plan: &QueryPlan) -> Vec<Vec<u32>> {
    let mut rows: Vec<Vec<u32>> = execute(db, plan)
        .unwrap()
        .iter()
        .map(<[u32]>::to_vec)
        .collect();
    rows.sort();
    rows
}

/// A lookup of `t(key, v0)`: column 0 bound to a constant.
fn lookup_query(table: TableId, key: u32) -> ConjunctiveQuery {
    ConjunctiveQuery {
        atoms: vec![QueryAtom {
            table,
            bindings: vec![ColumnBinding::Const(key), ColumnBinding::Var(0)],
        }],
        anti_atoms: vec![],
        neq: vec![],
        neq_const: vec![],
        ranges: vec![],
        output: vec![0],
        distinct: false,
    }
}

/// Every way to change a table's rows, each applied to a table whose
/// column-0 index was built over the old rows. Each changes the answer of
/// `lookup_query(t, 3)`, so an index a mutator failed to drop serves a
/// wrong (or out-of-bounds) answer.
#[test]
fn no_mutation_leaves_a_stale_index() {
    type Mutator = fn(&mut Database, TableId);
    let mutators: [(&str, Mutator); 3] = [
        ("insert", |db, t| db.insert(t, &[3, 99]).unwrap()),
        ("append", |db, t| {
            let extra = table_of(db, "extra", &[[3, 96]]);
            db.append(t, extra).unwrap();
        }),
        ("truncate", |db, t| db.truncate(t)),
    ];
    for (name, mutate) in mutators {
        let mut db = Database::default();
        let t = table_of(&mut db, "t", &lcg_rows(2 * PAGE_ROWS + 9, 5));
        let q = lookup_query(t, 3);
        let plan = plan_query(&db, &q, &OptimizerConfig::default()).unwrap();
        assert_eq!(index_scans(&plan), 1, "{name}: {plan}");
        let before = sorted_rows(&db, &plan);
        mutate(&mut db, t);
        let scan = plan_query(&db, &q, &no_pushdown()).unwrap();
        let expected = sorted_rows(&db, &scan);
        assert_ne!(expected, before, "{name} did not change the answer");
        assert_eq!(
            sorted_rows(&db, &plan),
            expected,
            "{name}: plan from before"
        );
        let fresh = plan_query(&db, &q, &OptimizerConfig::default()).unwrap();
        assert_eq!(sorted_rows(&db, &fresh), expected, "{name}: fresh plan");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lookup ≡ scan: random queries over a table below or above one page
    /// (plus a small second table), with random constants, value ranges,
    /// inequalities, anti-joins and output projections, return the same
    /// canonical rows with lookups as under the pushdown lesion, which
    /// reads every row. A constant on the large table is always read
    /// through its index; nothing else ever is.
    #[test]
    fn index_lookups_agree_with_full_scans(
        size in 0usize..3,
        extra in 0usize..PAGE_ROWS,
        seed in any::<u64>(),
        big in (0u8..14, 0u8..14),
        small in (any::<bool>(), 0u8..14, 0u8..14),
        anti in (any::<bool>(), 0u8..2, 0u8..14, 0u8..14),
        range in (any::<bool>(), 0usize..4, 0u32..64, 0u32..64),
        neq_const in (any::<bool>(), 0usize..4, 0u32..4),
        out_mask in any::<u8>(),
        distinct in any::<bool>(),
    ) {
        let big_rows = [300, PAGE_ROWS + 1, 2 * PAGE_ROWS + extra][size];
        let small = small.0.then_some((small.1, small.2));
        let anti = anti.0.then_some((anti.1, anti.2, anti.3));
        let range = range.0.then_some((range.1, range.2, range.3));
        let neq_const = neq_const.0.then_some((neq_const.1, neq_const.2));
        let mut db = Database::default();
        let tables = [
            table_of(&mut db, "big", &lcg_rows(big_rows, seed)),
            table_of(&mut db, "small", &lcg_rows(40, seed ^ 0x5eed)),
        ];
        let mut atoms = vec![(0u8, big.0, big.1)];
        atoms.extend(small.map(|(c0, c1)| (1u8, c0, c1)));
        let mut q = build_query(&tables, &atoms, anti, false, distinct);
        let bound = q.bound_variables();
        if !bound.is_empty() {
            if let Some((vi, a, b)) = range {
                q.ranges.push((bound[vi % bound.len()], a.min(b), a.max(b)));
            }
            if let Some((vi, value)) = neq_const {
                q.neq_const.push((bound[vi % bound.len()], value));
            }
        }
        q.output = bound
            .iter()
            .enumerate()
            .filter(|&(i, _)| out_mask & (1 << i) != 0)
            .map(|(_, &v)| v)
            .collect();

        let (lookups, _) = run_canonical(&db, &q, &OptimizerConfig::default(), 0);
        let (scans, _) = run_canonical(&db, &q, &no_pushdown(), 0);
        prop_assert_eq!(&lookups, &scans);

        let has_const = |a: &QueryAtom| {
            a.table == tables[0] && a.bindings.iter().any(|b| matches!(b, ColumnBinding::Const(_)))
        };
        let expected = if big_rows > PAGE_ROWS {
            q.atoms.iter().chain(&q.anti_atoms).filter(|a| has_const(a)).count()
        } else {
            0
        };
        let plan = plan_query(&db, &q, &OptimizerConfig::default()).unwrap();
        prop_assert_eq!(index_scans(&plan), expected, "{}", plan);
        prop_assert_eq!(index_scans(&plan_query(&db, &q, &no_pushdown()).unwrap()), 0);
    }
}
