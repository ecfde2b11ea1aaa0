//! Table 1 — dataset statistics, paper vs generated.

use crate::datasets::all_four;
use crate::format::TextTable;
use tuffy_datagen::paper_table1;
use tuffy_grounder::{ground_bottom_up, GroundingMode};
use tuffy_mrf::ComponentSet;
use tuffy_rdbms::OptimizerConfig;

/// Builds the Table 1 report.
pub fn report() -> String {
    let mut out = String::from(
        "Table 1: dataset statistics — paper values vs synthetic testbeds\n\
         (generators are calibrated to structure, not absolute size; see\n\
         the tuffy-datagen crate docs)\n\n",
    );
    let paper = paper_table1();
    let mut t = TextTable::new(vec![
        "dataset",
        "#relations",
        "#rules",
        "#entities",
        "#evidence",
        "#query atoms",
        "#components",
    ]);
    for (ds, p) in all_four().into_iter().zip(paper.iter()) {
        t.row(vec![
            format!("{} (paper)", p.name),
            p.relations.to_string(),
            p.rules.to_string(),
            p.entities.to_string(),
            p.evidence_tuples.to_string(),
            p.query_atoms.to_string(),
            p.components.to_string(),
        ]);
        let stats = ds.program.stats(&ds.evidence);
        let g = ground_bottom_up(
            &ds.program,
            &ds.evidence,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .expect("grounding");
        let comps = ComponentSet::detect(&g.mrf).nontrivial_count();
        t.row(vec![
            format!("{} (ours)", ds.name),
            stats.relations.to_string(),
            stats.rules.to_string(),
            stats.entities.to_string(),
            stats.evidence_tuples.to_string(),
            g.stats.atoms.to_string(),
            comps.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}
