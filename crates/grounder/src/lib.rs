//! # tuffy-grounder — MLN grounding, bottom-up and top-down
//!
//! Grounding turns a weighted first-order program plus evidence into a
//! ground MRF (paper §2.3). This crate implements both strategies the
//! paper compares:
//!
//! * **Bottom-up** ([`bottomup`]): each clause compiles to a conjunctive
//!   query over evidence, domain, and *reachable-atom* tables in the
//!   embedded RDBMS (§3.1, Algorithm 2 in Appendix B.1). Negative literals
//!   over closed-world predicates become joins with true-evidence tables
//!   (Datalog-style binding); evidence-satisfaction pruning (Appendix A.3)
//!   becomes anti-joins; existential quantifiers expand per universal
//!   binding (the `array_agg` trick). Alchemy's *lazy closure* — repeated
//!   one-step look-ahead activation — is realized by joining negative
//!   open-predicate literals against a growing reachable table and
//!   iterating to fixpoint.
//! * **Top-down** ([`topdown`]): the Alchemy-style baseline — Prolog-like
//!   backtracking over literals in program order with the *same* pruning
//!   rules and emission, but no relational optimization. Used as the
//!   comparator in Tables 2–4 and Figure 3.
//!
//! Both share one evidence-exact **emission** step ([`emit`]) that
//! re-checks every literal against evidence, deletes falsified literals,
//! skips satisfied clauses, and registers unknown atoms — so the two
//! grounders produce identical MRFs (property-tested).
//!
//! ## Cost-constant caveat
//!
//! Ground clauses fully decided by evidence contribute a constant to every
//! world's cost. For positive-weight clauses the constant is 0 and the
//! paper drops them; for negative-weight clauses the constant is |w| per
//! evidence-satisfied grounding. We add those constants to
//! [`tuffy_mrf::Mrf::base_cost`] when the grounding queries surface the
//! binding, but bindings pruned wholesale (e.g. by closed-world joins) are
//! not counted. This offsets reported absolute costs by a constant and
//! never affects the argmin, matching Alchemy's own accounting.

pub mod bottomup;
pub mod compile;
pub mod dbload;
pub mod emit;
pub mod incremental;
pub mod registry;
pub mod stats;
pub mod topdown;

pub use bottomup::{
    explain_grounding, ground_bottom_up, ground_bottom_up_threaded, GroundingResult,
};
pub use compile::GroundingMode;
pub use incremental::{apply_delta_grounding, DeltaOutcome, PatchStats, PatchedGrounding};
pub use registry::AtomRegistry;
pub use stats::{groundings_performed, GroundingStats};
pub use topdown::ground_top_down;
