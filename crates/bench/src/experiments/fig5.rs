//! Figure 5 — Tuffy vs Tuffy-p (and Alchemy) on IE and RC.
//!
//! The partitioning experiment extended in time: on multi-component
//! datasets the gap between component-aware search and monolithic
//! WalkSAT persists no matter how long the monolithic run continues —
//! the Theorem 3.1 phenomenon.

use super::trace_block;
use crate::datasets::{ie_bench, rc_bench};
use crate::{alchemy, run, tuffy_config, tuffy_p_config};

/// Flip budget (the "extended run": 4x the Table 5 budget).
pub const FLIPS: u64 = 4_000_000;

/// Builds the Figure 5 report.
pub fn report() -> String {
    let mut out = String::from(
        "Figure 5: time-cost curves, Tuffy vs Tuffy-p vs Alchemy (IE, RC)\n\
         paper shape: a persistent cost gap in favor of component-aware\n\
         search (Theorem 3.1).\n\n",
    );
    for make in [ie_bench, rc_bench] {
        let name = make().name;
        let tuffy = run(make(), tuffy_config(FLIPS));
        let tuffy_p = run(make(), tuffy_p_config(FLIPS));
        let alchemy = alchemy(make(), FLIPS);
        out.push_str(&format!("# dataset {name}\n"));
        out.push_str(&format!(
            "final costs: tuffy {}, tuffy-p {}, alchemy {}\n",
            tuffy.cost, tuffy_p.cost, alchemy.cost
        ));
        out.push_str(&trace_block(&format!("{name}/tuffy"), &tuffy.trace));
        out.push_str(&trace_block(&format!("{name}/tuffy-p"), &tuffy_p.trace));
        out.push_str(&trace_block(&format!("{name}/alchemy"), &alchemy.trace));
        out.push('\n');
        assert!(
            !tuffy_p.cost.better_than(tuffy.cost),
            "{name}: component-aware search must not lose"
        );
    }
    out
}
