//! # Tuffy — scalable Markov Logic Network inference over an embedded RDBMS
//!
//! A Rust reproduction of *Tuffy: Scaling up Statistical Inference in
//! Markov Logic Networks using an RDBMS* (Niu, Ré, Doan, Shavlik,
//! VLDB 2011). Tuffy performs MAP and marginal inference on Markov Logic
//! Networks with three ideas the paper introduces:
//!
//! 1. **bottom-up grounding** inside an RDBMS, letting a relational
//!    optimizer (join ordering, hash/sort-merge joins, predicate
//!    pushdown) build the ground network orders of magnitude faster than
//!    top-down grounders (§3.1);
//! 2. a **hybrid architecture**: ground in the database, search in
//!    memory (§3.2). The paper's two baselines, Alchemy-style top-down
//!    grounding and RDBMS-resident search (Tuffy-mm), are measured by
//!    the `tuffy-bench` crate and are not engine modes;
//! 3. **partitioning**: solve connected components independently —
//!    provably exponentially faster for multi-component networks
//!    (Theorem 3.1) — and split oversized components further, searching
//!    them with a Gauss-Seidel scheme (§3.3–3.4).
//!
//! Because grounding dominates end-to-end time and search is cheap per
//! query, the API separates the two into a three-tier ownership model:
//!
//! * an [`Engine`] ([`Tuffy::build_engine`]) is the long-lived,
//!   `Arc`-shared home of program + grounding + cached analyses. It
//!   grounds **once**;
//! * a [`Snapshot`] ([`Engine::snapshot`]) is a cheap, immutable,
//!   `Clone + Send + Sync` view of one grounded *generation*.
//!   [`Snapshot::query`] answers a [`Query`] from any number of threads
//!   at once, bit-identically to sequential execution;
//! * a [`Session`] ([`Engine::open_session`]) is a lightweight
//!   per-caller handle — warm-start search state plus an `Arc` of a
//!   snapshot. [`Session::apply`] edits evidence by forking a **new
//!   generation copy-on-write** (incremental patch when the delta is in
//!   the provably-exact fragment, re-ground otherwise); readers of the
//!   old generation, on any thread, are never disturbed.
//!
//! What to compute is a first-class [`Query`]: [`Query::map`],
//! [`Query::marginal`] (optionally restricted to predicates),
//! [`Query::top_k`], each optionally conditioned with [`Query::given`]
//! (an ephemeral evidence delta that forks a snapshot without committing
//! anything) and tuned with [`Query::with_search`] /
//! [`Query::with_mcsat`].
//!
//! ## Quickstart
//!
//! ```
//! use tuffy::{Query, Tuffy};
//!
//! let program = r#"
//!     *wrote(person, paper)
//!     *refers(paper, paper)
//!     cat(paper, category)
//!     5 cat(p, c1), cat(p, c2) => c1 = c2
//!     1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
//!     2 cat(p1, c), refers(p1, p2) => cat(p2, c)
//! "#;
//! let evidence = r#"
//!     wrote(Joe, P1)
//!     wrote(Joe, P2)
//!     refers(P1, P3)
//!     cat(P2, DB)
//! "#;
//! // Ground once: the engine is the shared home of the grounded program.
//! let engine = Tuffy::from_sources(program, evidence)
//!     .unwrap()
//!     .build_engine()
//!     .unwrap();
//!
//! // Snapshots are cheap, immutable views — query them from any thread.
//! let snapshot = engine.snapshot();
//! let world = snapshot.query(&Query::map()).unwrap().into_map().unwrap();
//! // P1 and P3 inherit Joe's / the citation's DB label:
//! assert_eq!(world.true_atoms_of("cat").unwrap().len(), 2);
//!
//! // Sessions add warm-started repeated queries and evidence edits.
//! let mut session = engine.open_session();
//! session.map().unwrap();
//! // A curator confirms P1's label. `apply` forks a new generation
//! // copy-on-write — the snapshot above keeps reading its own store —
//! // and the next map() warm-starts to infer just P3.
//! let delta = session.parse_delta("cat(P1, DB)").unwrap();
//! let report = session.apply(&delta).unwrap();
//! assert!(report.incremental);
//! let rows = session.map().unwrap().true_atoms_of("cat").unwrap();
//! assert_eq!(rows, vec![vec!["P3".to_string(), "DB".to_string()]]);
//! assert_eq!(engine.groundings_performed(), 1); // ground once, serve many
//! ```
//!
//! ## Copy-on-write generations under concurrent readers
//!
//! Every grounded store is a *generation*: an immutable set of
//! `Arc`-shared arenas plus generation-scoped caches (partition
//! schedule, component counts). [`Session::apply`] and [`Query::given`]
//! never mutate the generation they start from — a delta with no
//! grounding effect shares it outright, an in-fragment delta produces a
//! patched copy, everything else re-grounds — so a query holds exactly
//! the generation it began with for its whole execution, no locks
//! involved. Two sessions of one engine that apply different deltas
//! simply own different generations; the engine's base snapshot is
//! unaffected by both.

pub mod config;
pub mod durable;
pub mod engine;
pub mod persist;
pub mod pipeline;
pub mod query;
pub mod result;
pub mod session;
pub mod snapshot;

pub use config::{PartitionStrategy, TuffyConfig};
pub use durable::{
    ApplyOutcome, DurableEngine, DurableError, LineageHead, RecoveryReport, WAL_FILE,
};
pub use engine::Engine;
pub use persist::GENERATION_FILE;
pub use pipeline::Tuffy;
pub use query::Query;
pub use result::{
    render_atom, render_atom_into, InferenceReport, MapResult, MarginalResult, QueryAnswer,
    TopEntry, TopKResult,
};
pub use session::{ApplyReport, Session};
pub use snapshot::Snapshot;

// Re-exports so downstream users need only this crate.
pub use tuffy_grounder::{GroundingMode, PatchStats};
pub use tuffy_mln::{DeltaOp, EvidenceDelta, EvidenceSet, MlnError, MlnProgram, Weight};
pub use tuffy_mrf::{Cost, RuleOrigin};
pub use tuffy_rdbms::{JoinAlgorithmPolicy, JoinOrderPolicy, OptimizerConfig};
pub use tuffy_search::mcsat::McSatParams;
pub use tuffy_search::{
    MarginalSamples, Schedule, ScheduleResult, Scheduler, SchedulerConfig, TimeCostTrace,
    WalkSatParams,
};
pub use tuffy_store::StoreError;
