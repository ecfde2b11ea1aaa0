//! Table 3 — flipping rates (flips/sec): Alchemy, Tuffy-mm, Tuffy-p.

use crate::datasets::all_four;
use crate::format::TextTable;
use crate::{run, tuffy_mm, tuffy_p_config};

/// Paper's Table 3 (flips/sec): Alchemy, Tuffy-mm, Tuffy-p.
pub const PAPER: [(&str, f64, f64, f64); 4] = [
    ("LP", 0.20e6, 0.9, 0.11e6),
    ("IE", 1.0e6, 13.0, 0.39e6),
    ("RC", 1.9e3, 0.9, 0.17e6),
    ("ER", 0.9e3, 0.03, 7.9e3),
];

/// Builds the Table 3 report. Both rates come straight from
/// [`tuffy::InferenceReport::flips_per_sec`] — the in-memory one from a
/// monolithic (Tuffy-p) session, the Tuffy-mm one from
/// [`crate::tuffy_mm`], whose search time includes the simulated disk
/// I/O.
pub fn report() -> String {
    let mut out = String::from(
        "Table 3: flipping rates (flips/sec)\n\
         The paper's contrast: in-memory search runs 3-5 orders of\n\
         magnitude faster than RDBMS-resident search (Tuffy-mm). Tuffy-mm\n\
         here pays one simulated-SSD page read (100 us) per page of its\n\
         clause table at every scan; Appendix C.1's 10 ms spinning-disk\n\
         model would lower its rate by another 100x.\n\n",
    );
    let mut t = TextTable::new(vec![
        "dataset",
        "in-memory (Alchemy/Tuffy-p)",
        "tuffy-mm",
        "gap",
        "paper gap (Tuffy-p/mm)",
    ]);
    for (ds, paper) in all_four().into_iter().zip(PAPER.iter()) {
        let name = ds.name.clone();
        let mem = run(ds.clone(), tuffy_p_config(300_000));
        let mm = tuffy_mm(ds, 150);
        let gap = mem.report.flips_per_sec / mm.report.flips_per_sec.max(1e-9);
        t.row(vec![
            name,
            format!("{:.0}", mem.report.flips_per_sec),
            format!("{:.1}", mm.report.flips_per_sec),
            format!("{gap:.0}x"),
            format!("{:.0}x", paper.3 / paper.2),
        ]);
    }
    out.push_str(&t.render());
    out
}
