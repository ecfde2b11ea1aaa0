//! Cross-version golden of search trajectories: the MAP worlds and the
//! MC-SAT marginals of the four testbeds, pinned to the bit against values
//! recorded at an earlier commit.
//!
//! The determinism and equivalence suites compare one build with itself
//! (thread counts, save/load, copies of a scope), so a change to the flip
//! loop that moves every trajectory the same way passes them all. This
//! suite catches that: a search optimisation that claims to keep
//! trajectories must leave every value here unchanged, and one that moves
//! them must re-capture the values and say why.
//!
//! MAP runs under [`PartitionStrategy::Components`] (closed component
//! scopes) and under a small [`PartitionStrategy::Budget`] (Algorithm-3
//! partitions with frozen-boundary cut scopes and Gauss-Seidel rounds).
//! Marginals run MC-SAT's masked hard passes under both strategies (one
//! sampler, and the scheduler's per-partition samplers), on the testbeds
//! whose weights MC-SAT accepts: LP, RC and ER carry negative weights.

mod common;

use common::{four_testbeds, BENCH_SEED};
use tuffy::{McSatParams, PartitionStrategy, Query, Tuffy, TuffyConfig, WalkSatParams};
use tuffy_datagen::Dataset;
use tuffy_store::bytes::fnv1a;

/// A byte budget that splits LP's and ER's components into partitions with
/// cut clauses between them; IE's and RC's components fit it whole.
const BUDGET: usize = 4096;

fn config(strategy: PartitionStrategy) -> TuffyConfig {
    TuffyConfig {
        partitioning: strategy,
        search: WalkSatParams {
            max_flips: 20_000,
            seed: BENCH_SEED,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A MAP answer as `(cost.hard, cost.soft bits, flips, FNV-1a of the
/// rendered world)`.
fn map(ds: &Dataset, strategy: PartitionStrategy) -> (u64, u64, u64, u64) {
    let r = Tuffy::from_parts(ds.program.clone(), ds.evidence.clone())
        .with_config(config(strategy))
        .open_session()
        .unwrap()
        .map()
        .unwrap();
    (
        r.cost.hard,
        r.cost.soft.to_bits(),
        r.report.flips,
        fnv1a(r.to_text().as_bytes()),
    )
}

/// FNV-1a of every marginal's name and probability bits, or `None` when
/// MC-SAT rejects the testbed.
fn marginals(ds: &Dataset, strategy: PartitionStrategy) -> Option<u64> {
    let engine = Tuffy::from_parts(ds.program.clone(), ds.evidence.clone())
        .with_config(config(strategy))
        .build_engine()
        .unwrap();
    let query = Query::marginal_all().with_mcsat(McSatParams {
        samples: 40,
        burn_in: 5,
        sample_sat_steps: 200,
        seed: BENCH_SEED,
        ..Default::default()
    });
    let r = engine
        .snapshot()
        .query(&query)
        .ok()?
        .into_marginal()
        .unwrap();
    let lines: Vec<String> = r
        .names
        .iter()
        .zip(&r.marginals)
        .map(|(name, (_, p))| format!("{name} {:#x}", p.to_bits()))
        .collect();
    Some(fnv1a(lines.join("\n").as_bytes()))
}

#[test]
fn map_trajectories_are_pinned() {
    let got: Vec<_> = four_testbeds()
        .iter()
        .map(|ds| {
            (
                map(ds, PartitionStrategy::Components),
                map(ds, PartitionStrategy::Budget(BUDGET)),
            )
        })
        .collect();
    // Per testbed: (Components, Budget). IE and RC components fit the
    // budget whole, so both strategies take the same walks there.
    let expected = [
        (
            (0, 0x4051_e666_6666_6663, 20_000, 0x1580_426f_a640_a23b),
            (0, 0x404c_e666_6666_666e, 9_960, 0x6d24_d855_d114_23fb),
        ),
        (
            (0, 0x407e_c4a3_d70a_3d5d, 19_930, 0x4f43_6cfd_5b66_2b4b),
            (0, 0x407e_c4a3_d70a_3d5d, 19_930, 0x4f43_6cfd_5b66_2b4b),
        ),
        (
            (0, 0x405f_2ccc_cccc_cccb, 16_184, 0x3e24_77f5_ec7b_2ae4),
            (0, 0x405f_2ccc_cccc_cccb, 16_184, 0x3e24_77f5_ec7b_2ae4),
        ),
        (
            (0, 0x400b_3333_3333_3334, 20_000, 0x0342_f582_36eb_221b),
            (0, 0x4037_c28f_5c28_f5c0, 3_776, 0xbe40_11da_3770_084f),
        ),
    ];
    assert_eq!(got, expected, "{got:#x?}");
}

#[test]
fn marginals_are_pinned() {
    let got: Vec<_> = four_testbeds()
        .iter()
        .map(|ds| {
            (
                marginals(ds, PartitionStrategy::Components),
                marginals(ds, PartitionStrategy::Budget(BUDGET)),
            )
        })
        .collect();
    let expected = [
        (None, None),
        (Some(0x8228_7bb3_a968_b159), Some(0x9977_6621_3061_3e3d)),
        (None, None),
        (None, None),
    ];
    assert_eq!(got, expected, "{got:#x?}");
}
