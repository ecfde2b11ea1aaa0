//! Figure 8 — Example 1 with 1000 components: the Theorem 3.1 gap.
//!
//! Alchemy and Tuffy-p run monolithic WalkSAT on the whole 2000-atom MRF
//! and plateau far above the optimum; component-aware Tuffy drives every
//! component to its optimum almost immediately. (The paper's analysis:
//! the monolithic walk needs ≥ 2^{N/3} expected steps to fix the last
//! component, ~Θ(2^N/√N) in the refined bound.)

use super::trace_block;
use crate::datasets::example1_bench;
use crate::{alchemy, run, tuffy_config, tuffy_p_config};

/// Components (the paper plots N = 1000).
pub const N: usize = 1000;
/// Flip budget per system.
pub const FLIPS: u64 = 2_000_000;

/// Builds the Figure 8 report.
pub fn report() -> String {
    let mut out = String::from(
        "Figure 8: Example 1 with 1000 components\n\
         optimum cost = 1000 (each component's negative clause violated at\n\
         its X=Y=true optimum); all-false start costs 2000.\n\n",
    );
    let tuffy = run(example1_bench(N), tuffy_config(FLIPS));
    let tuffy_p = run(example1_bench(N), tuffy_p_config(FLIPS));
    let alchemy = alchemy(example1_bench(N), FLIPS);
    out.push_str(&format!(
        "final costs: tuffy {} | tuffy-p {} | alchemy {} (optimum {})\n",
        tuffy.cost, tuffy_p.cost, alchemy.cost, N
    ));
    out.push_str(&trace_block("example1/tuffy", &tuffy.trace));
    out.push_str(&trace_block("example1/tuffy-p", &tuffy_p.trace));
    out.push_str(&trace_block("example1/alchemy", &alchemy.trace));
    assert!(
        (tuffy.cost.soft - N as f64).abs() < 1e-6,
        "component-aware search must reach the optimum"
    );
    assert!(
        tuffy_p.cost.soft > tuffy.cost.soft,
        "monolithic search must trail (Theorem 3.1)"
    );
    out
}
