//! # tuffy-mrf — the ground Markov Random Field
//!
//! Grounding an MLN produces a weighted ground-clause set — equivalently a
//! hypergraph over ground atoms called a Markov Random Field (paper §2.3,
//! Appendix A.2). This crate is everything Tuffy does *with* that graph
//! short of search:
//!
//! * the ground representation itself: packed signed literals, weighted
//!   clauses, atom↔clause adjacency, and world-cost evaluation with
//!   lexicographic ⟨hard, soft⟩ cost ([`lit`], [`clause`], [`cost`],
//!   [`graph`]), built by [`build`] and persisted through [`columns`];
//! * **connected-component detection** via union-find over a single scan
//!   of the clause table, exactly as §3.3 describes ([`components`]);
//! * the **greedy MRF partitioner** of Appendix B.7 (Algorithm 3): clauses
//!   in weight-descending order, merged under a size bound β
//!   ([`partition`]);
//! * **First-Fit-Decreasing bin packing** grouping components into
//!   memory-budget batches to minimize load I/O (§3.3) ([`binpack`]);
//! * analytic **memory accounting** used for the paper's RAM comparisons
//!   ([`memory`]).

pub mod binpack;
pub mod build;
pub mod clause;
pub mod columns;
pub mod components;
pub mod cost;
pub mod graph;
pub mod lit;
pub mod memory;
pub mod partition;
pub mod unionfind;

pub use build::MrfBuilder;
pub use clause::ClauseRef;
pub use columns::MrfColumns;
pub use components::ComponentSet;
pub use cost::Cost;
pub use graph::{ClauseProvenance, Clauses, Mrf, Occurrence, RuleOrigin};
pub use lit::{AtomId, Lit};
pub use partition::Partitioning;
pub use unionfind::UnionFind;
