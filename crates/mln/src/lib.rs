//! # tuffy-mln — the Markov Logic Network language
//!
//! This crate defines the input language of the Tuffy system, reproducing
//! the MLN dialect described in *Tuffy: Scaling up Statistical Inference in
//! Markov Logic Networks using an RDBMS* (Niu, Ré, Doan, Shavlik, VLDB 2011),
//! Section 2 and Appendix A.1:
//!
//! * a **schema** of typed predicates (closed-world evidence predicates and
//!   open-world query predicates),
//! * a set of **weighted first-order rules** in (or convertible to) clausal
//!   form — soft rules with finite weights (possibly negative), hard rules
//!   with weight ±∞, existential quantifiers, and variable (in)equality
//!   literals,
//! * **evidence**: ground atoms asserted true or false.
//!
//! The crate provides the data model ([`program::MlnProgram`]), a parser for
//! an Alchemy-compatible concrete syntax ([`parser`]), conversion of rules to
//! clausal form ([`clausify`]), and shared utilities (string interning in
//! [`symbols`], fast hashing in [`fxhash`], the arena index in
//! [`slice_index`], the worker pool in [`pool`]) used across the
//! workspace.
//!
//! ## Example
//!
//! ```
//! use tuffy_mln::parser::parse_program;
//!
//! let src = r#"
//!     // paper classification (Figure 1 of the paper)
//!     *wrote(person, paper)
//!     *refers(paper, paper)
//!     cat(paper, category)
//!
//!     5    cat(p, c1), cat(p, c2) => c1 = c2
//!     1    wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
//!     2    cat(p1, c), refers(p1, p2) => cat(p2, c)
//!     -1   cat(p, "Networking")
//! "#;
//! let program = parse_program(src).unwrap();
//! assert_eq!(program.rules.len(), 4);
//! ```

pub mod ast;
pub mod clausify;
pub mod error;
pub mod evidence;
pub mod fxhash;
pub mod ground;
pub mod parser;
pub mod pool;
pub mod printer;
pub mod program;
pub mod schema;
pub mod slice_index;
pub mod symbols;
pub mod weight;

pub use ast::{Atom, Formula, Literal, Rule, Term, Var};
pub use error::MlnError;
pub use evidence::{DeltaOp, Evidence, EvidenceChange, EvidenceDelta, EvidenceRef, EvidenceSet};
pub use ground::{AtomRef, GroundAtom, TruthValue};
pub use program::MlnProgram;
pub use schema::{PredicateDecl, PredicateId, TypeId};
pub use symbols::{Symbol, SymbolTable};
pub use weight::Weight;
