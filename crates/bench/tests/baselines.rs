//! The paper's two baselines against Tuffy (Appendix B.3, Figure 7):
//! Alchemy-style top-down grounding with monolithic search, and Tuffy-mm's
//! RDBMS-resident search. They must ground the same network and agree on
//! solution quality; they differ only in *where* the work happens.

use std::time::Duration;
use tuffy::{Tuffy, WalkSatParams};
use tuffy_bench::rdbms_search::{RdbmsSearch, SPINNING_DISK};
use tuffy_bench::{alchemy, run, tuffy_config, tuffy_mm, Run};
use tuffy_datagen::Dataset;

fn program() -> Dataset {
    tuffy_datagen::rc(6, 4, 3)
}

fn tuffy(max_flips: u64) -> Run {
    run(program(), tuffy_config(max_flips))
}

/// Also pins the exact walks both baselines took when they were still
/// engine modes: the same costs, to the bit, on the same network.
#[test]
fn all_architectures_ground_identically() {
    let hybrid = tuffy(1_000);
    let in_mem = alchemy(program(), 1_000);
    let rdbms = tuffy_mm(program(), 50);
    assert_eq!(hybrid.report.clauses, in_mem.report.clauses);
    assert_eq!(hybrid.report.clauses, rdbms.report.clauses);
    assert_eq!(hybrid.report.atoms, in_mem.report.atoms);
    assert_eq!((hybrid.report.clauses, hybrid.report.atoms), (35, 13));
    for (r, flips, soft_bits) in [
        (&in_mem, 1_000, 0x4024_cccc_cccc_ccd0u64),
        (&rdbms, 50, 0x402e_7fff_ffff_fffe),
    ] {
        assert_eq!(r.report.flips, flips);
        assert_eq!(r.cost.hard, 0);
        assert_eq!(r.cost.soft.to_bits(), soft_bits, "cost {}", r.cost);
    }
}

#[test]
fn hybrid_and_inmemory_reach_comparable_quality() {
    let hybrid = tuffy(60_000);
    let in_mem = alchemy(program(), 60_000);
    assert_eq!(hybrid.cost.hard, 0);
    assert_eq!(in_mem.cost.hard, 0);
    // Component-aware hybrid search should be at least as good (§3.3).
    assert!(
        !in_mem.cost.better_than(hybrid.cost),
        "hybrid {} vs in-memory {}",
        hybrid.cost,
        in_mem.cost
    );
}

#[test]
fn rdbms_only_search_pays_io_per_flip() {
    // Appendix C.1: with ~10 ms per page access and at least one clause
    // table page read per flip, any disk-backed WalkSAT is capped at
    // ≈100 flips/second — orders of magnitude below in-memory search.
    // Every scan reads every page, as for a clause table far larger than
    // memory.
    let ds = program();
    let grounding = Tuffy::from_parts(ds.program, ds.evidence).ground().unwrap();
    let noise = WalkSatParams::default().noise;
    let r = RdbmsSearch::new(&grounding.mrf, SPINNING_DISK, 3).run(30, noise, None);
    assert!(
        r.flips_per_sec <= 150.0,
        "disk-backed rate {} should be I/O-bound (≤ ~100 flips/sec)",
        r.flips_per_sec
    );
    assert!(r.flips > 0);
    // 30 flips scan the one-page clause table 76 times.
    assert_eq!(r.simulated_io, Duration::from_millis(760));
}

#[test]
fn inmemory_grounding_holds_everything_in_ram() {
    let in_mem = alchemy(program(), 1_000);
    let hybrid = tuffy(1_000);
    // The top-down grounder's peak footprint includes the tuple stores and
    // the full clause set; the hybrid's grounding-time footprint is the
    // registry plus one query result (intermediates live in the RDBMS).
    assert!(
        in_mem.report.grounding.peak_bytes > hybrid.report.grounding.peak_bytes,
        "in-memory {} vs hybrid {} grounding bytes",
        in_mem.report.grounding.peak_bytes,
        hybrid.report.grounding.peak_bytes
    );
}

/// Figure 1's program: every system finds its cost-0 world.
#[test]
fn architectures_agree_on_quality() {
    let figure1 = || {
        tuffy_datagen::parse(
            "figure1",
            "*wrote(person, paper)\n\
             *refers(paper, paper)\n\
             cat(paper, category)\n\
             5 cat(p, c1), cat(p, c2) => c1 = c2\n\
             1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)\n\
             2 cat(p1, c), refers(p1, p2) => cat(p2, c)\n",
            "wrote(Joe, P1)\nwrote(Joe, P2)\nrefers(P1, P3)\ncat(P2, DB)\n",
        )
    };
    let hybrid = run(figure1(), tuffy_config(20_000));
    let in_mem = alchemy(figure1(), 20_000);
    let rdbms = tuffy_mm(figure1(), 2_000); // scans are expensive
    assert!(hybrid.cost.is_zero());
    assert!(in_mem.cost.is_zero());
    assert!(rdbms.cost.is_zero());
}
