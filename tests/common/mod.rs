//! Test support shared by the integration suites (`mod common;`).

// Each test binary compiles this module separately and uses a subset.
#![allow(dead_code)]

use tuffy_datagen::Dataset;
use tuffy_grounder::GroundingResult;

/// The seed of `tuffy-bench`'s dataset constructors.
pub const BENCH_SEED: u64 = 20110829;

/// `tuffy-bench`'s search-scale `all_four()`: LP, IE, RC and ER.
pub fn four_testbeds() -> [Dataset; 4] {
    [
        tuffy_datagen::lp(5, 4, BENCH_SEED),
        tuffy_datagen::ie(300, 200, BENCH_SEED),
        tuffy_datagen::rc(40, 7, BENCH_SEED),
        tuffy_datagen::er(14, 80, BENCH_SEED),
    ]
}

/// A deep, order-sensitive fingerprint of everything a search or serving
/// consumer can observe in a grounding: atom numbering, clause arenas,
/// weights, provenance, occurrence lists, and base cost (f64s rendered
/// as raw bits so the comparison is exact, not approximate).
pub fn fingerprint(g: &GroundingResult) -> Vec<String> {
    let mut v = Vec::new();
    v.push(format!(
        "atoms={} clauses={} base_hard={} base_soft={:#x}",
        g.mrf.num_atoms(),
        g.mrf.num_clauses(),
        g.mrf.base_cost.hard,
        g.mrf.base_cost.soft.to_bits(),
    ));
    for (aid, pred, args) in g.registry.iter() {
        v.push(format!("atom {aid}: {}#{args:?}", pred.0));
    }
    for ci in 0..g.mrf.num_clauses() {
        let p = g.mrf.provenance(ci);
        v.push(format!(
            "clause {ci}: {:?} w={:?} prov=({:#x},{:#x},{},{})",
            g.mrf.clause_lits(ci),
            g.mrf.clause_weight(ci),
            p.pos_soft.to_bits(),
            p.neg_soft.to_bits(),
            p.hard,
            p.neg_hard
        ));
    }
    for a in 0..g.mrf.num_atoms() as u32 {
        v.push(format!("occ {a}: {:?}", g.mrf.occurrences(a)));
    }
    v
}

/// FNV-1a-64 of the fingerprint's lines — one number that pins a whole
/// grounding against a value recorded at an earlier commit.
pub fn fingerprint_hash(g: &GroundingResult) -> u64 {
    tuffy_store::bytes::fnv1a(fingerprint(g).join("\n").as_bytes())
}
