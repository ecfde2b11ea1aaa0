//! Figure 4 — Alchemy vs Tuffy-p vs Tuffy-mm on LP and RC.
//!
//! Isolates the hybrid architecture (§4.3): Tuffy-p (no partitioning)
//! grounds faster than Alchemy and searches at in-memory speed, while
//! Tuffy-mm — identical except search runs inside the RDBMS — is orders
//! of magnitude slower per flip and barely descends its curve.

use super::trace_block;
use crate::datasets::{lp_bench, rc_bench};
use crate::{alchemy, run, tuffy_mm, tuffy_p_config};

/// Flip budgets: in-memory systems get the full budget; Tuffy-mm pays
/// ~2 scans/flip so gets a small one (its simulated time is what counts).
pub const FLIPS: u64 = 1_000_000;
/// Tuffy-mm flip budget.
pub const MM_FLIPS: u64 = 400;

/// Builds the Figure 4 report.
pub fn report() -> String {
    let mut out = String::from(
        "Figure 4: time-cost curves, Alchemy vs Tuffy-p vs Tuffy-mm\n\
         (LP and RC; Tuffy-mm time includes simulated SSD I/O)\n\n",
    );
    for make in [lp_bench, rc_bench] {
        let name = make().name;
        let alchemy = alchemy(make(), FLIPS);
        let tuffy_p = run(make(), tuffy_p_config(FLIPS));
        let tuffy_mm = tuffy_mm(make(), MM_FLIPS);
        out.push_str(&format!("# dataset {name}\n"));
        out.push_str(&format!(
            "final costs: alchemy {}, tuffy-p {}, tuffy-mm {}\n",
            alchemy.cost, tuffy_p.cost, tuffy_mm.cost
        ));
        out.push_str(&format!(
            "flip rates: alchemy {:.0}/s, tuffy-p {:.0}/s, tuffy-mm {:.1}/s\n",
            alchemy.report.flips_per_sec,
            tuffy_p.report.flips_per_sec,
            tuffy_mm.report.flips_per_sec
        ));
        out.push_str(&trace_block(&format!("{name}/alchemy"), &alchemy.trace));
        out.push_str(&trace_block(&format!("{name}/tuffy-p"), &tuffy_p.trace));
        out.push_str(&trace_block(&format!("{name}/tuffy-mm"), &tuffy_mm.trace));
        out.push('\n');
        assert!(
            tuffy_mm.report.flips_per_sec < tuffy_p.report.flips_per_sec,
            "{name}: RDBMS search must be slower per flip"
        );
    }
    out
}
