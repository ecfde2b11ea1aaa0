//! Parallel-grounding determinism: [`ground_bottom_up_threaded`] must
//! produce a [`GroundingResult`] **identical at every thread count** —
//! same atom numbering, same clause order, same weights, provenance,
//! occurrence lists, and base cost (the deterministic-merge contract in
//! `tuffy_grounder::bottomup`). Checked on all four scenario generators
//! at threads {1, 2, 4, 8}, and property-tested against randomized
//! dataset shapes. The single-threaded entry point
//! [`ground_bottom_up`] is pinned equivalent to `threads = 1`.

mod common;

use common::{fingerprint, fingerprint_hash, BENCH_SEED};
use proptest::prelude::*;
use tuffy_datagen::Dataset;
use tuffy_grounder::{
    explain_grounding, ground_bottom_up, ground_bottom_up_threaded, GroundingMode, GroundingResult,
};
use tuffy_rdbms::OptimizerConfig;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn ground(ds: &Dataset, threads: usize) -> GroundingResult {
    ground_bottom_up_threaded(
        &ds.program,
        &ds.evidence,
        GroundingMode::LazyClosure,
        &OptimizerConfig::default(),
        threads,
    )
    .expect("grounding failed")
}

fn assert_thread_invariant(ds: Dataset) {
    let reference = fingerprint(&ground(&ds, 1));
    assert!(
        reference.len() > 1,
        "degenerate fixture: nothing got grounded"
    );
    for t in THREADS {
        let got = fingerprint(&ground(&ds, t));
        assert_eq!(got, reference, "threads={t} diverged from threads=1");
    }
    // The convenience entry point is the threads=1 run.
    let single = ground_bottom_up(
        &ds.program,
        &ds.evidence,
        GroundingMode::LazyClosure,
        &OptimizerConfig::default(),
    )
    .expect("grounding failed");
    assert_eq!(fingerprint(&single), reference);
}

#[test]
fn er_grounding_is_thread_invariant() {
    assert_thread_invariant(tuffy_datagen::er(8, 24, 7));
}

#[test]
fn lp_grounding_is_thread_invariant() {
    assert_thread_invariant(tuffy_datagen::lp(4, 6, 7));
}

#[test]
fn rc_grounding_is_thread_invariant() {
    assert_thread_invariant(tuffy_datagen::rc(6, 8, 7));
}

#[test]
fn ie_grounding_is_thread_invariant() {
    assert_thread_invariant(tuffy_datagen::ie(24, 12, 7));
}

/// Grounds every dataset in memory and under a 64 KiB
/// `mem_budget_bytes` and compares the FNV-1a hash of the deep
/// fingerprint with the recorded one.
///
/// The hashes were captured at the commit *before* the grounder
/// switched from the step-wise adaptive executor to `plan_query` +
/// `executor::execute`, so they pin the grounder's output against
/// history and not only against itself.
fn assert_golden(cases: [(Dataset, u64); 4]) {
    for (ds, golden) in cases {
        for mem_budget_bytes in [0usize, 64 << 10] {
            let config = OptimizerConfig {
                mem_budget_bytes,
                ..Default::default()
            };
            let g = ground_bottom_up_threaded(
                &ds.program,
                &ds.evidence,
                GroundingMode::LazyClosure,
                &config,
                2,
            )
            .unwrap();
            assert_eq!(
                fingerprint_hash(&g),
                golden,
                "{} (mem_budget_bytes={mem_budget_bytes}) diverged from the recorded grounding",
                ds.name
            );
        }
    }
}

/// `tuffy-bench`'s search-scale `all_four()`; LP and ER spill sorted
/// runs at 64 KiB.
#[test]
fn golden_fingerprints_at_bench_scale() {
    assert_golden([
        (tuffy_datagen::lp(5, 4, BENCH_SEED), 0x143d45bfac78a322),
        (tuffy_datagen::ie(300, 200, BENCH_SEED), 0x1f520369d1ca29b4),
        (tuffy_datagen::rc(40, 7, BENCH_SEED), 0x5b6ce22bbbdca442),
        (tuffy_datagen::er(14, 80, BENCH_SEED), 0x0c60d7502cc3a29f),
    ]);
}

/// `tuffy-bench`'s grounding-scale `all_four_ground()` — the inputs of
/// `BENCHMARK.json`'s workloads (ER at ~900 k clauses); RC and ER run
/// grace-hash joins at 64 KiB. Seconds in release, minutes in debug.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "grounding-scale inputs: run with --release"
)]
fn golden_fingerprints_at_grounding_scale() {
    assert_golden([
        (tuffy_datagen::lp(8, 8, BENCH_SEED), 0x6704a25acc0ef7a6),
        (
            tuffy_datagen::ie(2_500, 700, BENCH_SEED),
            0x68793ac6388fc657,
        ),
        (
            tuffy_datagen::rc_with_labels(400, 14, 0.85, BENCH_SEED),
            0xdb15cc8ad7c604e5,
        ),
        (tuffy_datagen::er(40, 220, BENCH_SEED), 0x319d9fb78e7a179a),
    ]);
}

/// An IE bed above the chunk threshold (≈ 3 k `token` rows). Each lexicon
/// rule `token(Wk, p, c) => field(c, p, F)` is a constant selection
/// matching ≈ 10 of those rows: it runs as one round-0 task that reads
/// them through an `IndexScan`, where sizing tasks by the table's length
/// cut it into value-range chunks that each rescanned the whole table.
/// The hash was captured at the commit before that change, so the
/// grounding is pinned identical across the switch at every thread count
/// and budget.
#[test]
fn constant_selections_ground_identically_as_one_task_each() {
    let ds = tuffy_datagen::ie(1_000, 300, BENCH_SEED);
    for threads in THREADS {
        for mem_budget_bytes in [0usize, 64 << 10] {
            let config = OptimizerConfig {
                mem_budget_bytes,
                ..Default::default()
            };
            let g = ground_bottom_up_threaded(
                &ds.program,
                &ds.evidence,
                GroundingMode::LazyClosure,
                &config,
                threads,
            )
            .unwrap();
            assert_eq!(
                fingerprint_hash(&g),
                0x4d9d4d97cabcd920,
                "threads={threads} mem_budget_bytes={mem_budget_bytes}"
            );
        }
    }
    // EXPLAIN enumerates round 0's tasks with the grounder's own code: a
    // chunked variant would print `chunks=N`.
    let text = explain_grounding(
        &ds.program,
        &ds.evidence,
        GroundingMode::LazyClosure,
        &OptimizerConfig::default(),
    )
    .unwrap();
    let lexicon: Vec<&str> = text
        .split("\nclause ")
        .filter(|block| block.contains("IndexScan evt_token [c0="))
        .collect();
    assert_eq!(lexicon.len(), 300, "one lookup plan per lexicon rule");
    for block in lexicon {
        assert!(!block.contains("chunks="), "lexicon rule chunked:\n{block}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Parallel ≡ sequential on randomized dataset shapes and sizes,
    /// across every generator family.
    #[test]
    fn parallel_grounding_matches_sequential(
        family in 0usize..4,
        scale in 2usize..8,
        seed in 0u64..64,
    ) {
        let ds = match family {
            0 => tuffy_datagen::er(scale, 4 * scale, seed),
            1 => tuffy_datagen::lp(scale, scale + 1, seed),
            2 => tuffy_datagen::rc(scale, scale + 2, seed),
            _ => tuffy_datagen::ie(4 * scale, 2 * scale, seed),
        };
        let reference = fingerprint(&ground(&ds, 1));
        for t in [2usize, 8] {
            prop_assert_eq!(
                &fingerprint(&ground(&ds, t)),
                &reference,
                "family={} scale={} seed={} threads={}", family, scale, seed, t
            );
        }
    }
}

/// Negative-weight clauses whose literals are all positive open-world
/// atoms ground as a union of one variant per literal (LazySAT activity).
/// In the four testbeds every such clause has one literal, so these
/// programs pin the multi-literal case: literals that become active in
/// different closure rounds, through evidence and through activation.
/// Each variant must return only the bindings no earlier variant or round
/// returned. The hashes were captured before the closure rounds became
/// disjoint by construction, when a seen-set dropped the repeats.
#[test]
fn union_variants_ground_identically() {
    let cases = [
        (tuffy_datagen::example1(20), 0xfbc4b6315f9973f8, 2),
        (
            parse_dataset(
                "*seen(thing)\nq(thing)\nr(thing)\n-1 q(x) v r(x)\n\
                 2 seen(x) => q(x)\n2 seen(x) => r(x)\n",
                "seen(A)\nseen(B)\nq(C)\n",
            ),
            0x13a7e19fe04f3076,
            2,
        ),
        (
            parse_dataset(
                "*link(t, t)\nq(t)\nr(t)\n-1 q(x) v r(x)\n\
                 2 q(x), link(x, y) => r(y)\n2 r(x), link(x, y) => q(y)\n\
                 -0.5 q(x) v r(y) v q(y)\n",
                "link(A, B)\nlink(B, C)\nlink(C, D)\nlink(D, A)\nlink(B, D)\nq(A)\nr(C)\n",
            ),
            0x15b6244e2706b1c8,
            3,
        ),
    ];
    for (ds, golden, rounds) in cases {
        for threads in [1usize, 2, 4] {
            for mem_budget_bytes in [0usize, 64 << 10] {
                let config = OptimizerConfig {
                    mem_budget_bytes,
                    ..Default::default()
                };
                let g = ground_bottom_up_threaded(
                    &ds.program,
                    &ds.evidence,
                    GroundingMode::LazyClosure,
                    &config,
                    threads,
                )
                .unwrap();
                assert_eq!(
                    (fingerprint_hash(&g), g.stats.rounds),
                    (golden, rounds),
                    "{} threads={threads} mem_budget_bytes={mem_budget_bytes}",
                    ds.name
                );
            }
        }
    }
}

fn parse_dataset(program: &str, evidence: &str) -> Dataset {
    let mut program = tuffy_mln::parser::parse_program(program).unwrap();
    let evidence = tuffy_mln::parser::parse_evidence(&mut program, evidence).unwrap();
    Dataset {
        name: "union".into(),
        program,
        evidence,
    }
}
