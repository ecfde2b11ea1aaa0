//! Metamorphic properties of the partition-aware scheduler: splitting an
//! MRF can cost at most the cut weight relative to unsplit search, a
//! budget generous enough for one bin changes nothing at all, and
//! searching a partition in place on the shared arenas is the same walk
//! as searching its conditioned copy.

use proptest::prelude::*;
use tuffy_mln::weight::Weight;
use tuffy_mrf::{Lit, Mrf, MrfBuilder};
use tuffy_search::{Scheduler, SchedulerConfig, TimeCostTrace};
use tuffy_search::{SearchScratch, WalkSat, WalkSatParams};

const ATOMS: u32 = 10;

/// A random soft-weighted MRF from a clause soup (no hard clauses, so
/// costs stay in the soft component and the cut bound is additive).
fn build_mrf(clauses: &[(Vec<(u8, bool)>, i8)]) -> Mrf {
    let mut b = MrfBuilder::new();
    b.reserve_atoms(ATOMS as usize);
    for (lits, w) in clauses {
        let lits: Vec<Lit> = lits
            .iter()
            .map(|&(a, pos)| Lit::new(u32::from(a) % ATOMS, pos))
            .collect();
        // Weights in ±[1, 4], never zero (zero-weight clauses are noise).
        let w = f64::from(*w);
        let weight = Weight::Soft(if w >= 0.0 { w + 1.0 } else { w - 1.0 });
        b.add_clause(lits, weight);
    }
    b.finish()
}

fn config(mem_budget: Option<usize>, seed: u64) -> SchedulerConfig {
    SchedulerConfig {
        mem_budget,
        rounds: 4,
        search: WalkSatParams {
            max_flips: 20_000,
            seed,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Atoms of the mixed-weight testbed: clauses stay inside blocks of
/// `BLOCK` atoms (several components), and the last three atoms are in
/// no clause at all.
const MIXED_ATOMS: u32 = 27;
const BLOCK: u32 = 4;

/// One clause of the mixed testbed: literals (block-local atom, sign),
/// the block, and the rule the clause is a grounding of.
type MixedClause = (Vec<(u32, bool)>, u32, u8);

/// The four rules' weights — soft of both signs, hard and negated hard —
/// and the relearned vector that sets rule 0 to exactly zero (`reweight`
/// keeps such clauses as `Soft(0.0)`; a rebuilt copy drops them).
const RULES: [Weight; 4] = [
    Weight::Soft(1.5),
    Weight::Soft(-0.75),
    Weight::Hard,
    Weight::NegHard,
];
const RELEARNED: [Weight; 4] = [
    Weight::Soft(0.0),
    Weight::Soft(2.25),
    Weight::Hard,
    Weight::Soft(-1.0),
];

/// A multi-component MRF with rule attribution, unit clauses, every
/// weight kind and untouched atoms; `relearned` passes the generation
/// through [`Mrf::reweight`].
fn build_mixed(clauses: &[MixedClause], relearned: bool) -> Mrf {
    let mut b = MrfBuilder::new();
    b.reserve_atoms(MIXED_ATOMS as usize);
    for (lits, block, rule) in clauses {
        let lits: Vec<Lit> = lits
            .iter()
            .map(|&(a, pos)| Lit::new(block * BLOCK + a, pos))
            .collect();
        let rule = u32::from(*rule);
        b.add_clause_from_rule(lits, RULES[rule as usize], rule);
    }
    let mrf = b.finish();
    if relearned {
        mrf.reweight(&RELEARNED).expect("four rule weights")
    } else {
        mrf
    }
}

/// What a search is compared on: best state, best cost (to the bit) and
/// flips spent.
type PassResult = (Vec<bool>, u64, u64, u64);

fn spend(mut ws: WalkSat<'_>, budget: u64) -> (PassResult, WalkSat<'_>) {
    for _ in 0..budget {
        if !ws.step(0.5) {
            break;
        }
    }
    let cost = ws.best_cost();
    let result = (
        ws.best_truth().to_vec(),
        cost.hard,
        cost.soft.to_bits(),
        ws.flips(),
    );
    (result, ws)
}

/// Everything a scheduled run reports, with costs to the bit, rendered
/// for comparison.
fn run_fingerprint(mrf: &Mrf, config: SchedulerConfig, init: &[bool]) -> String {
    let mut trace = TimeCostTrace::new();
    let r = Scheduler::new(mrf, config).run_from(init, Some(&mut trace));
    let curve: Vec<(u64, u64, u64)> = trace
        .points()
        .iter()
        .map(|p| (p.flips, p.cost.hard, p.cost.soft.to_bits()))
        .collect();
    format!(
        "{:?}",
        (
            r.truth,
            (r.cost.hard, r.cost.soft.to_bits()),
            r.flips,
            r.rounds_run,
            r.peak_partition_bytes,
            curve,
        )
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A partition no cut clause touches is searched in place, scoped to
    /// its atom and clause lists on the MRF's own arenas; the conditioned
    /// copy built through `MrfBuilder` is the same search relabelled.
    /// Same seed and budget ⇒ same best state, cost and flip count —
    /// from a fresh scratch and from one a different search left dirty.
    #[test]
    fn in_place_pass_equals_search_over_the_conditioned_copy(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u32..BLOCK, any::<bool>()), 1..4), 0u32..6, 0u8..4),
            1..40,
        ),
        relearned in any::<bool>(),
        state in any::<u64>(),
        seed in 0u64..1_000,
        budget in 0u64..400,
    ) {
        let mrf = build_mixed(&clauses, relearned);
        let snapshot: Vec<bool> = (0..MIXED_ATOMS).map(|a| state >> a & 1 == 1).collect();
        let scheduler = Scheduler::new(&mrf, config(None, seed));
        let schedule = scheduler.schedule();
        prop_assert!(schedule.parts.cut_clauses.is_empty());
        let mut scratch = SearchScratch::default();
        for unit in &schedule.units {
            let atoms = &schedule.parts.atoms[unit.part];
            let clauses = &schedule.parts.internal_clauses[unit.part];
            let (sub, init) = scheduler.condition_unit(unit.part, &snapshot);
            let (copied, _) = spend(WalkSat::with_assignment(&sub, init, seed), budget);

            let fresh = WalkSat::in_scope(
                &mrf, atoms, clauses, &snapshot, seed, SearchScratch::default(),
            );
            let (in_place, _) = spend(fresh, budget);
            prop_assert_eq!(&in_place, &copied, "fresh scratch, partition {}", unit.part);

            // Dirty the shared scratch: another seed, from the inverted
            // state, over this very scope — then search it for real.
            let inverted: Vec<bool> = snapshot.iter().map(|t| !t).collect();
            let other = WalkSat::in_scope(&mrf, atoms, clauses, &inverted, seed + 1, scratch);
            let (_, other) = spend(other, budget + 17);
            let reused = WalkSat::in_scope(
                &mrf, atoms, clauses, &snapshot, seed, other.into_scratch(),
            );
            let (in_place, reused) = spend(reused, budget);
            prop_assert_eq!(&in_place, &copied, "dirty scratch, partition {}", unit.part);
            scratch = reused.into_scratch();
        }
    }

    /// Scheduled MAP is the same to the bit — state, cost, flips, rounds,
    /// footprint and the recorded trajectory — for every worker-pool
    /// size, with components searched in place (no budget) and with
    /// Algorithm-3 partitions that mix in-place and conditioned passes.
    /// Each worker's scratch sees a different sequence of partitions per
    /// pool size, so this also pins that a pass reads nothing an earlier
    /// pass left behind.
    #[test]
    fn scheduled_map_is_bit_identical_across_pool_sizes(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u32..BLOCK, any::<bool>()), 1..4), 0u32..6, 0u8..4),
            1..40,
        ),
        relearned in any::<bool>(),
        state in any::<u64>(),
        seed in 0u64..1_000,
        budget_units in 4usize..40,
    ) {
        let mrf = build_mixed(&clauses, relearned);
        let init: Vec<bool> = (0..MIXED_ATOMS).map(|a| state >> a & 1 == 1).collect();
        let budget = budget_units * tuffy_mrf::memory::BYTES_PER_SIZE_UNIT;
        for mem_budget in [None, Some(budget)] {
            let run = |threads| {
                let config = SchedulerConfig { threads, ..config(mem_budget, seed) };
                run_fingerprint(&mrf, config, &init)
            };
            let sequential = run(1);
            for threads in [2, 8] {
                prop_assert_eq!(
                    &run(threads), &sequential,
                    "threads={} mem_budget={:?}", threads, mem_budget
                );
            }
        }
    }

    /// Partitioned inference with *any* bin count ends within the
    /// cut-clause weight bound of the sequential single-partition run:
    /// every internal clause is searched exactly, so only cut clauses
    /// (total soft weight `cut_soft`) can be lost to the decomposition.
    #[test]
    fn partitioned_cost_is_within_the_cut_weight_bound(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..10, any::<bool>()), 1..4), -3i8..4),
            1..25,
        ),
        budget_units in 4usize..40,
        seed in 0u64..1_000,
    ) {
        let mrf = build_mrf(&clauses);
        let sequential = Scheduler::new(&mrf, config(None, seed)).run(None);
        let budget = budget_units * tuffy_mrf::memory::BYTES_PER_SIZE_UNIT;
        let scheduler = Scheduler::new(&mrf, config(Some(budget), seed));
        prop_assert!(!scheduler.schedule().bins.is_empty());
        let cut_soft = scheduler.schedule().cut_soft;
        let partitioned = scheduler.run(None);
        prop_assert_eq!(sequential.cost.hard, 0);
        prop_assert_eq!(partitioned.cost.hard, 0);
        prop_assert!(
            partitioned.cost.soft <= sequential.cost.soft + cut_soft + 1e-6,
            "partitioned {} > sequential {} + cut {:.3} ({} partitions, {} bins)",
            partitioned.cost.soft,
            sequential.cost.soft,
            cut_soft,
            scheduler.schedule().units.len(),
            scheduler.schedule().bins.len(),
        );
    }

    /// A memory budget large enough for a single bin is bit-identical to
    /// the sequential (unbudgeted) path: same assignment, same cost, same
    /// flip count, partition for partition.
    #[test]
    fn one_bin_budget_is_bit_identical_to_sequential(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..10, any::<bool>()), 1..4), -3i8..4),
            1..25,
        ),
        seed in 0u64..1_000,
        threads in 1usize..5,
    ) {
        let mrf = build_mrf(&clauses);
        let sequential = Scheduler::new(&mrf, config(None, seed)).run(None);
        let roomy = Scheduler::new(
            &mrf,
            SchedulerConfig {
                threads,
                ..config(Some(1 << 30), seed)
            },
        );
        prop_assert!(roomy.schedule().bins.len() <= 1, "budget should fit one bin");
        let budgeted = roomy.run(None);
        prop_assert_eq!(&budgeted.truth, &sequential.truth);
        prop_assert_eq!(budgeted.flips, sequential.flips);
        prop_assert_eq!(
            format!("{}", budgeted.cost),
            format!("{}", sequential.cost)
        );
    }

    /// The scheduler's sequential no-budget path solves each component at
    /// least as well as monolithic WalkSAT given the same total flips
    /// (Theorem 3.1's direction, allowing ties on easy instances).
    #[test]
    fn schedule_never_trails_monolithic_by_more_than_tolerance(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..10, any::<bool>()), 1..4), 1i8..4),
            1..20,
        ),
        seed in 0u64..1_000,
    ) {
        let mrf = build_mrf(&clauses);
        let scheduled = Scheduler::new(&mrf, config(None, seed)).run(None);
        let mut mono = WalkSat::new(&mrf, seed);
        mono.run(
            &WalkSatParams {
                max_flips: 20_000,
                seed,
                ..Default::default()
            },
            None,
        );
        prop_assert!(
            scheduled.cost.soft <= mono.best_cost().soft + 1e-6,
            "scheduled {} trails monolithic {}",
            scheduled.cost,
            mono.best_cost()
        );
    }
}
