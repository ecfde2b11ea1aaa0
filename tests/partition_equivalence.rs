//! Metamorphic properties of the partition-aware scheduler: splitting an
//! MRF can cost at most the cut weight relative to unsplit search, a
//! budget generous enough for one bin changes nothing at all, and
//! searching a partition in place on the shared arenas is the same walk
//! as searching its conditioned copy.
//!
//! The copies themselves live here, as oracles: the parent's conditioned
//! partition ([`condition_unit`]) and the parent's MC-SAT, which built a
//! fresh all-hard MRF per sample ([`oracle_mcsat`]). The search crate
//! builds neither any more.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use tuffy_mln::weight::Weight;
use tuffy_mrf::{AtomId, Lit, Mrf, MrfBuilder};
use tuffy_search::mcsat::McSatParams;
use tuffy_search::{McSat, Schedule, Scheduler, SchedulerConfig, TimeCostTrace};
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

/// Weights for the MC-SAT properties: non-negative (MC-SAT rejects
/// negative ones), soft and hard, with a relearned vector that sets rule
/// 0 to exactly zero.
const SAMPLED_RULES: [Weight; 4] = [
    Weight::Soft(1.5),
    Weight::Soft(0.75),
    Weight::Hard,
    Weight::Soft(0.25),
];
const SAMPLED_RELEARNED: [Weight; 4] = [
    Weight::Soft(0.0),
    Weight::Soft(2.25),
    Weight::Hard,
    Weight::Soft(1.0),
];

/// [`build_mixed`] over the non-negative [`SAMPLED_RULES`].
fn build_sampled(clauses: &[MixedClause], relearned: bool) -> Mrf {
    let mut b = MrfBuilder::new();
    b.reserve_atoms(MIXED_ATOMS as usize);
    for (lits, block, rule) in clauses {
        let lits: Vec<Lit> = lits
            .iter()
            .map(|&(a, pos)| Lit::new(block * BLOCK + a, pos))
            .collect();
        let rule = u32::from(*rule);
        b.add_clause_from_rule(lits, SAMPLED_RULES[rule as usize], rule);
    }
    let mrf = b.finish();
    if relearned {
        mrf.reweight(&SAMPLED_RELEARNED).expect("four rule weights")
    } else {
        mrf
    }
}

/// The parent's conditioned copy of partition `pi` (§3.4) plus its
/// initial state: internal clauses verbatim, cut clauses with an
/// externally satisfied literal dropped for the pass, the rest without
/// their external literals, all rebuilt through `MrfBuilder` (so
/// coinciding clauses merge and exact-zero weights drop). Atom `i` of the
/// copy is `parts.atoms[pi][i]`.
fn condition_unit(mrf: &Mrf, schedule: &Schedule, pi: usize, global: &[bool]) -> (Mrf, Vec<bool>) {
    let atoms = &schedule.parts.atoms[pi];
    let dense: HashMap<AtomId, AtomId> = atoms
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i as AtomId))
        .collect();
    let mut b = MrfBuilder::new();
    b.reserve_atoms(atoms.len());
    for &ci in &schedule.parts.internal_clauses[pi] {
        let c = mrf.clause(ci as usize);
        let lits = c.lits.iter();
        b.add_clause(
            lits.map(|l| Lit::new(dense[&l.atom()], l.is_positive()))
                .collect(),
            c.weight,
        );
    }
    'cut: for &ci in &schedule.cut_by_part[pi] {
        let c = mrf.clause(ci as usize);
        let mut lits = Vec::new();
        for l in c.lits {
            match dense.get(&l.atom()) {
                Some(&local) => lits.push(Lit::new(local, l.is_positive())),
                None if l.eval(global[l.atom() as usize]) => continue 'cut,
                None => {} // externally false: conditioned away
            }
        }
        b.add_clause(lits, c.weight);
    }
    let init = atoms.iter().map(|&a| global[a as usize]).collect();
    (b.finish(), init)
}

/// `mrf` rebuilt through `MrfBuilder`: the same MRF, except that
/// clauses of weight exactly zero are dropped.
fn rebuilt(mrf: &Mrf) -> Mrf {
    let mut b = MrfBuilder::new();
    b.reserve_atoms(mrf.num_atoms());
    for c in mrf.clauses() {
        b.add_clause(c.lits.to_vec(), c.weight);
    }
    b.finish()
}

/// The parent's MC-SAT over `mrf`, draw for draw, with one addition: it
/// hands every post-burn-in state to `on_sample`. Each SampleSAT builds a
/// brand-new hard `Mrf` of the selected clauses. Returns the atom
/// marginals and the flips spent.
fn oracle_mcsat(
    mrf: &Mrf,
    seed: u64,
    params: &McSatParams,
    mut on_sample: impl FnMut(&[bool]),
) -> (Vec<f64>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = mrf.num_atoms();
    let mut flips = 0;
    let mut counts = vec![0u64; n];
    let mut state = {
        let mut ws = WalkSat::new(mrf, rng.gen());
        ws.run(
            &WalkSatParams {
                max_flips: params.sample_sat_steps * 4,
                max_tries: 3,
                noise: 0.5,
                seed: rng.gen(),
            },
            None,
        );
        flips += ws.flips();
        ws.best_truth().to_vec()
    };
    for it in 0..params.burn_in + params.samples {
        let mut selected: Vec<Vec<Lit>> = Vec::new();
        for c in mrf.clauses() {
            if !c.satisfied(&state) {
                continue;
            }
            let take = match c.weight {
                Weight::Hard => true,
                Weight::Soft(w) => rng.gen::<f64>() < 1.0 - (-w).exp(),
                Weight::NegHard => false,
            };
            if take {
                selected.push(c.lits.to_vec());
            }
        }
        if n > 0 {
            let mut b = MrfBuilder::new();
            b.reserve_atoms(n);
            for lits in selected {
                b.add_clause(lits, Weight::Hard);
            }
            let hard = b.finish();
            let mut init = vec![false; n];
            for t in &mut init {
                *t = rng.gen();
            }
            let mut ws = WalkSat::with_assignment(&hard, init, rng.gen());
            for _ in 0..params.sample_sat_steps {
                if ws.cost().is_zero() {
                    let atom = rng.gen_range(0..n) as u32;
                    let (dh, _) = ws.flip_delta(atom);
                    if dh <= 0 {
                        ws.flip(atom);
                    }
                    continue;
                }
                if rng.gen::<f64>() < params.p_anneal {
                    let atom = rng.gen_range(0..n) as u32;
                    let (dh, _) = ws.flip_delta(atom);
                    if dh <= 0 || rng.gen::<f64>() < (-(dh as f64) / params.temperature).exp() {
                        ws.flip(atom);
                    }
                } else {
                    ws.step(0.5);
                }
            }
            flips += ws.flips();
            if ws.cost().is_zero() {
                state = ws.truth().to_vec();
            } else if ws.best_cost().is_zero() {
                state = ws.best_truth().to_vec();
            }
        }
        if it >= params.burn_in {
            for (c, &t) in counts.iter_mut().zip(&state) {
                *c += u64::from(t);
            }
            on_sample(&state);
        }
    }
    let probs = counts
        .into_iter()
        .map(|c| c as f64 / params.samples as f64)
        .collect();
    (probs, flips)
}

/// What a sampler is compared on, to the bit: atom marginals, clause
/// statistics and flips.
type SampleResult = (Vec<u64>, Vec<u64>, u64);

fn bits(probs: &[f64]) -> Vec<u64> {
    probs.iter().map(|p| p.to_bits()).collect()
}

fn sample_params(seed: u64) -> McSatParams {
    McSatParams {
        samples: 24,
        burn_in: 3,
        sample_sat_steps: 40,
        seed,
        ..Default::default()
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
    /// copy built through `MrfBuilder` ([`condition_unit`]) is the same
    /// search relabelled.
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
            let (sub, init) = condition_unit(&mrf, schedule, unit.part, &snapshot);
            let (copied, _) = spend(WalkSat::with_assignment(&sub, init, seed), budget);

            let fresh = WalkSat::in_scope(
                &mrf, atoms, clauses, &[], &snapshot, seed, SearchScratch::default(),
            );
            let (in_place, _) = spend(fresh, budget);
            prop_assert_eq!(&in_place, &copied, "fresh scratch, partition {}", unit.part);

            // Dirty the shared scratch: another seed, from the inverted
            // state, over this very scope — then search it for real.
            let inverted: Vec<bool> = snapshot.iter().map(|t| !t).collect();
            let other = WalkSat::in_scope(&mrf, atoms, clauses, &[], &inverted, seed + 1, scratch);
            let (_, other) = spend(other, budget + 17);
            let reused = WalkSat::in_scope(
                &mrf, atoms, clauses, &[], &snapshot, seed, other.into_scratch(),
            );
            let (in_place, reused) = spend(reused, budget);
            prop_assert_eq!(&in_place, &copied, "dirty scratch, partition {}", unit.part);
            scratch = reused.into_scratch();
        }
    }

    /// MC-SAT samples in place: each SampleSAT is a masked hard pass over
    /// the sampler's scope, not a fresh MRF. Per partition (in a fresh and
    /// in a deliberately dirtied scratch) and over the whole MRF it is the
    /// parent's sampler over the `MrfBuilder` copy, to the bit: marginals,
    /// per-clause statistics and flips. Clause statistics of the oracle
    /// are counted directly per global clause from its samples.
    #[test]
    fn in_place_mcsat_equals_sampling_fresh_hard_copies(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u32..BLOCK, any::<bool>()), 1..4), 0u32..6, 0u8..4),
            1..40,
        ),
        relearned in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let mrf = build_sampled(&clauses, relearned);
        let params = sample_params(seed);
        let sat_bits = |sat: &[u64]| -> Vec<u64> {
            bits(&sat.iter().map(|&c| c as f64 / params.samples as f64).collect::<Vec<_>>())
        };

        // Whole MRF.
        let mut mc = McSat::new(&mrf, seed).unwrap();
        let (probs, clause_sat) = mc.marginals_with_clause_stats(&params);
        let in_place: SampleResult = (bits(&probs), bits(&clause_sat), mc.flips());
        let mut sat = vec![0u64; mrf.num_clauses()];
        let (probs, flips) = oracle_mcsat(&rebuilt(&mrf), seed, &params, |state| {
            for (ci, s) in sat.iter_mut().enumerate() {
                *s += u64::from(mrf.clause(ci).satisfied(state));
            }
        });
        prop_assert_eq!(in_place, (bits(&probs), sat_bits(&sat), flips), "whole MRF");

        // Per partition: the scheduler's uncut units.
        let scheduler = Scheduler::new(&mrf, config(None, seed));
        let schedule = scheduler.schedule();
        prop_assert!(schedule.parts.cut_clauses.is_empty());
        let boundary = vec![false; mrf.num_atoms()];
        let mut dirty = SearchScratch::default();
        for unit in &schedule.units {
            let atoms = &schedule.parts.atoms[unit.part];
            let clauses = &schedule.parts.internal_clauses[unit.part];
            let (sub, _) = condition_unit(&mrf, schedule, unit.part, &boundary);
            let mut sat = vec![0u64; clauses.len()];
            let mut global = boundary.clone();
            let (probs, flips) = oracle_mcsat(&sub, seed, &params, |local| {
                for (&a, &t) in atoms.iter().zip(local) {
                    global[a as usize] = t;
                }
                for (s, &ci) in sat.iter_mut().zip(clauses) {
                    *s += u64::from(mrf.clause(ci as usize).satisfied(&global));
                }
            });
            let copied: SampleResult = (bits(&probs), sat_bits(&sat), flips);
            // Dirty the shared scratch: another seed over the whole MRF,
            // on top of whatever the previous partitions left.
            McSat::new(&mrf, seed + 1)
                .unwrap()
                .marginals_in(&params, &boundary, &mut dirty);
            let mut fresh = SearchScratch::default();
            for (scratch, label) in [(&mut fresh, "fresh"), (&mut dirty, "dirty")] {
                let mut mc = McSat::in_scope(&mrf, atoms, clauses, &[], seed);
                let (probs, sat) = mc.marginals_in(&params, &boundary, scratch);
                let in_place: SampleResult = (bits(&probs), bits(&sat), mc.flips());
                prop_assert_eq!(&in_place, &copied, "{} scratch, partition {}", label, unit.part);
            }
        }
    }

    /// A partition that cut clauses touch is searched in place with a
    /// frozen boundary. After every step its running cost is what the
    /// parent's conditioned copy charges for the same local state, and no
    /// atom outside the partition ever moves. Soft weights share one sign
    /// per case: the copy merges cut clauses that coincide once
    /// conditioned, which is additive only for equal signs.
    #[test]
    fn frozen_boundary_pass_costs_what_the_conditioned_copy_costs(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..10, any::<bool>()), 1..4), 0i8..4),
            1..25,
        ),
        negative in any::<bool>(),
        budget_units in 4usize..40,
        state in any::<u64>(),
        seed in 0u64..1_000,
    ) {
        let signed: Vec<_> = clauses
            .iter()
            .map(|(lits, w)| (lits.clone(), if negative { -1 - w } else { *w }))
            .collect();
        let mrf = build_mrf(&signed);
        let snapshot: Vec<bool> = (0..ATOMS).map(|a| state >> a & 1 == 1).collect();
        let budget = budget_units * tuffy_mrf::memory::BYTES_PER_SIZE_UNIT;
        let scheduler = Scheduler::new(&mrf, config(Some(budget), seed));
        let schedule = scheduler.schedule();
        let mut scratch = SearchScratch::default();
        for unit in schedule.units.iter().filter(|u| u.cut_clauses > 0) {
            let p = unit.part;
            let atoms = &schedule.parts.atoms[p];
            let (sub, _) = condition_unit(&mrf, schedule, p, &snapshot);
            let mut ws = WalkSat::in_scope(
                &mrf,
                atoms,
                &schedule.parts.internal_clauses[p],
                &schedule.cut_by_part[p],
                &snapshot,
                seed,
                scratch,
            );
            let start = ws.truth().to_vec();
            for step in 0..200 {
                let local: Vec<bool> = atoms.iter().map(|&a| ws.truth()[a as usize]).collect();
                let (cost, copy) = (ws.cost(), sub.cost(&local));
                prop_assert_eq!(cost.hard, copy.hard, "partition {} step {}", p, step);
                prop_assert!(
                    (cost.soft - copy.soft).abs() < 1e-9,
                    "partition {} step {}: in place {} vs copy {}", p, step, cost, copy
                );
                for (a, (&now, &then)) in ws.truth().iter().zip(&start).enumerate() {
                    prop_assert!(
                        now == then || schedule.parts.label[a] as usize == p,
                        "partition {} flipped outside atom {}", p, a
                    );
                }
                if !ws.step(0.5) {
                    break;
                }
            }
            scratch = ws.into_scratch();
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
