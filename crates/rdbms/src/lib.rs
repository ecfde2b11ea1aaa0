//! # tuffy-rdbms — the embedded relational engine
//!
//! Tuffy (VLDB 2011) grounds Markov Logic Networks *bottom-up* by compiling
//! each first-order clause into a SQL query executed by an RDBMS
//! (PostgreSQL 8.4 in the paper, §3.1 / Appendix B.1). The paper's lesion
//! study (Table 6, Appendix C.2) shows that the relational optimizer — in
//! particular the availability of hash and sort-merge joins and predicate
//! pushdown — is what makes bottom-up grounding orders of magnitude faster
//! than Alchemy's top-down strategy.
//!
//! This crate is the stand-in for that RDBMS: an embedded, single-process
//! relational engine with
//!
//! * **storage**: fixed-width `u32` rows in one flat row-major vector per
//!   table, plus a lazily built equality index per column that every
//!   mutation drops ([`storage`]);
//! * **executors**: sequential scans and equality-index lookups with
//!   predicate pushdown, nested-loop /
//!   hash / sort-merge joins, semi- and anti-joins, distinct, sorting, and
//!   grouping ([`exec`]);
//! * **a cost-based optimizer** for the conjunctive (select-project-join +
//!   anti-join) queries produced by the grounder, with greedy join-order
//!   selection, join-algorithm selection, and the lesion knobs the paper
//!   disables one at a time ([`optimizer`], [`query`]). Planning produces
//!   an explicit, costed [`plan::PhysicalPlan`] tree (inspect it with
//!   `EXPLAIN`-style `Display`), and one walker ([`executor`]) is the
//!   only thing that turns that tree into rows, recording per-node
//!   estimated-versus-actual counters on request. A byte budget decides
//!   how much stays resident, not which code runs: relations over it
//!   live as sorted runs on a storage backend ([`spill`], [`backend`]),
//!   and with no budget nothing spills.
//!
//! Values are `u32`s: the MLN layer interns every constant, so the engine
//! never sees strings (mirroring Tuffy's bulk-loading of integer-encoded
//! tuples).

pub mod backend;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod executor;
pub mod optimizer;
pub mod plan;
pub mod pred;
pub mod query;
pub mod schema;
pub mod spill;
pub mod storage;

pub use backend::{FileBackend, MemBackend, RunHandle, StorageBackend};
pub use catalog::{Database, TableId};
pub use error::DbError;
pub use executor::{
    execute, execute_into, execute_profiled, execute_spill, ExecProfile, NodeMetrics,
};
pub use optimizer::{plan_query, run_query, JoinAlgorithmPolicy, JoinOrderPolicy, OptimizerConfig};
pub use plan::{NodeId, NodeInfo, PhysicalPlan, PlanColumn, PlanOp, QueryPlan};
pub use pred::Pred;
pub use query::{ConjunctiveQuery, QueryAtom, VarId};
pub use schema::TableSchema;
pub use spill::{merge_cursor, RowCursor, SpillManager, SpillStats, SpillableBatch};
pub use storage::{Row, Table, PAGE_ROWS};
