//! Bench-scale dataset constructors.
//!
//! Scales are chosen so the *slowest* configuration in any experiment
//! (top-down grounding, or RDBMS-resident search) finishes in seconds,
//! while preserving each testbed's structure: LP and ER single
//! components, IE thousands of small components (at bench scale:
//! hundreds), RC hundreds of medium components (at bench scale: dozens).

use tuffy_datagen::{er, example1, ie, lp, rc, rc_with_labels, Dataset};

/// Bench-scale LP (single dense component, rich schema).
pub fn lp_bench() -> Dataset {
    lp(5, 4, crate::SEED)
}

/// Bench-scale IE (hundreds of 2–4 atom components, ~200 lexicon rules).
pub fn ie_bench() -> Dataset {
    ie(300, 200, crate::SEED)
}

/// Bench-scale RC (Figure 1 rules, dozens of medium components).
pub fn rc_bench() -> Dataset {
    rc(40, 7, crate::SEED)
}

/// Bench-scale ER (single dense component, per-word rules).
pub fn er_bench() -> Dataset {
    er(14, 80, crate::SEED)
}

/// "ER+": twice as large as ER (§4.3's scale-up where Alchemy crashes).
pub fn er_plus_bench() -> Dataset {
    let mut d = er(28, 120, crate::SEED);
    d.name = "ER+".into();
    d
}

/// Example 1 with `n` components (Figure 8 uses 1000).
pub fn example1_bench(n: usize) -> Dataset {
    example1(n)
}

/// All four Table 1 datasets in paper order.
pub fn all_four() -> Vec<Dataset> {
    vec![lp_bench(), ie_bench(), rc_bench(), er_bench()]
}

/// All four grounding-scale datasets in paper order, for the
/// grounding-time experiments (Tables 2 and 6): several times larger
/// than the search-scale datasets, since grounding-cost differences only
/// emerge once join inputs dominate fixed overheads. RC is densely
/// labeled, like the paper's Cora-based RC (430K evidence tuples against
/// 10K query atoms): most groundings are pruned by evidence.
pub fn all_four_ground() -> Vec<Dataset> {
    vec![
        lp(8, 8, crate::SEED),
        ie(2_500, 700, crate::SEED),
        rc_with_labels(400, 14, 0.85, crate::SEED),
        er(40, 220, crate::SEED),
    ]
}
