//! # tuffy-datagen — synthetic testbeds for the Tuffy evaluation
//!
//! The paper evaluates on four MLN testbeds (Table 1): Link Prediction
//! (LP), Information Extraction (IE), Relational Classification (RC), and
//! Entity Resolution (ER), taken from the Alchemy website and the Cora
//! dataset. Those datasets are not redistributable here, so this crate
//! generates seeded synthetic equivalents calibrated to the *structural*
//! properties each experiment depends on:
//!
//! | testbed | what matters in the paper | how the generator preserves it |
//! |---|---|---|
//! | LP | 22 relations, ~94 rules, one component | department schema; per-phase rule instantiations; everything connected through shared professors |
//! | IE | ~1K (mostly token-specific) rules; thousands of 2/3-clique components | per-token lexicon rules; one small chain component per citation |
//! | RC | Figure 1's rules; hundreds of medium components | citation/coauthor clusters with partial labels; one component per cluster |
//! | ER | ~3.8K per-word rules; a single *dense* component (transitivity) | shared-word record pairs + transitivity/symmetry over `sameBib` |
//!
//! Generators emit concrete MLN + evidence source text and parse it with
//! the production parser, so every experiment exercises the full
//! pipeline. Size arguments grow each testbed; the bench scales keep
//! the slowest baseline (top-down grounding) tractable while preserving
//! the paper's qualitative contrasts.

pub mod er;
pub mod example1;
pub mod ie;
pub mod lp;
pub mod rc;
pub mod split;
pub mod table1;

pub use er::er;
pub use example1::example1;
pub use ie::ie;
pub use lp::lp;
pub use rc::{rc, rc_with_labels};
pub use split::LabelSplit;
pub use table1::{paper_table1, Table1Row};

use tuffy_mln::evidence::EvidenceSet;
use tuffy_mln::program::MlnProgram;

/// A generated testbed: a name plus a fully parsed program and its
/// evidence set.
#[derive(Clone)]
pub struct Dataset {
    /// Short dataset name ("LP", "IE", "RC", "ER", …).
    pub name: String,
    /// The parsed program.
    pub program: MlnProgram,
    /// The parsed evidence.
    pub evidence: EvidenceSet,
}

/// Parses a named dataset from program and evidence text, panicking on
/// a syntax error.
pub fn parse(name: &str, program_src: &str, evidence_src: &str) -> Dataset {
    let mut program = tuffy_mln::parser::parse_program(program_src)
        .unwrap_or_else(|e| panic!("{name} program: {e}"));
    let evidence = tuffy_mln::parser::parse_evidence(&mut program, evidence_src)
        .unwrap_or_else(|e| panic!("{name} evidence: {e}"));
    Dataset {
        name: name.to_string(),
        program,
        evidence,
    }
}
