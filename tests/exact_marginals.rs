//! Ground truth for marginal inference (ROADMAP "Ground truth", item 2).
//! On random non-negative-weight MRFs small enough to enumerate (8–12
//! atoms, at most 4 096 worlds) every MC-SAT path must land within
//! [`TOL`] of the exact marginals that brute force computes, for fixed
//! seeds: atom marginals and every per-clause `P(satisfied)` statistic.
//!
//! - monolithic MC-SAT ([`McSat::new`]);
//! - [`Scheduler::run_marginal`] over connected components with two
//!   workers, which factorizes exactly;
//! - [`Scheduler::run_marginal`] under a memory budget that cuts clauses.
//!   Each partition is then sampled conditioned on the MAP state outside
//!   it (§3.4), so its target is that conditioned distribution, checked
//!   exactly. Against the unconditioned joint marginals it is also within
//!   `TOL + tanh(W/2)`, where `W` is the soft cut weight touching the
//!   partition: no outside state can move the odds of an event inside the
//!   partition by more than `e^{±2W}`.

use tuffy_mln::weight::Weight;
use tuffy_mrf::memory::BYTES_PER_SIZE_UNIT;
use tuffy_mrf::{Lit, Mrf, MrfBuilder};
use tuffy_search::mcsat::McSatParams;
use tuffy_search::{McSat, Scheduler, SchedulerConfig, WalkSatParams};

/// Largest `|sampled − exact|` allowed for any probability.
const TOL: f64 = 0.05;
/// Atoms per block: clauses inside a block are strong, across blocks weak.
const BLOCK: u32 = 4;
const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// The LCG of `chaos_recovery`, for fixed-seed instances.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 1
    }

    /// Uniform in `[lo, hi)`.
    fn weight(&mut self, lo: f64, hi: f64) -> Weight {
        Weight::Soft(lo + (hi - lo) * self.next() as f64 / (1u64 << 31) as f64)
    }
}

/// 8–12 atoms in blocks of [`BLOCK`]. Each block holds two soft unit
/// clauses, three soft clauses of two or three literals and one hard
/// clause that a planted world satisfies, so the hard part is always
/// satisfiable. Half of the neighbouring block pairs are joined by two
/// weak soft clauses.
fn random_mrf(seed: u64) -> Mrf {
    let mut rng = Lcg(seed);
    let n = 8 + rng.below(5);
    let planted: Vec<bool> = (0..n).map(|_| rng.coin()).collect();
    let atom_in = |rng: &mut Lcg, block: u32| (block * BLOCK + rng.below(BLOCK)).min(n - 1);
    let mut b = MrfBuilder::new();
    b.reserve_atoms(n as usize);
    let blocks = n.div_ceil(BLOCK);
    for block in 0..blocks {
        for _ in 0..2 {
            let a = atom_in(&mut rng, block);
            b.add_clause(vec![Lit::new(a, rng.coin())], rng.weight(0.5, 2.0));
        }
        for _ in 0..3 {
            let width = 2 + rng.below(2);
            let lits: Vec<Lit> = (0..width)
                .map(|_| Lit::new(atom_in(&mut rng, block), rng.coin()))
                .collect();
            b.add_clause(lits, rng.weight(0.5, 2.5));
        }
        let (x, y) = (atom_in(&mut rng, block), atom_in(&mut rng, block));
        let hard = vec![Lit::new(x, planted[x as usize]), Lit::new(y, rng.coin())];
        b.add_clause(hard, Weight::Hard);
        if block + 1 < blocks && rng.coin() {
            for _ in 0..2 {
                let (x, y) = (atom_in(&mut rng, block), atom_in(&mut rng, block + 1));
                let lits = vec![Lit::new(x, rng.coin()), Lit::new(y, rng.coin())];
                b.add_clause(lits, rng.weight(0.05, 0.2));
            }
        }
    }
    b.finish()
}

/// Exact `P(atom)` for each of `free` and `P(satisfied)` for each of
/// `clauses`, under the distribution `∝ exp(−soft cost of clauses)` over
/// the worlds that vary `free`, keep every other atom at `fixed` and
/// violate no hard clause among `clauses`. `None` if no world is feasible.
fn exact(
    mrf: &Mrf,
    free: &[u32],
    clauses: &[usize],
    fixed: &[bool],
) -> Option<(Vec<f64>, Vec<f64>)> {
    let mut world = fixed.to_vec();
    let mut z = 0.0;
    let mut atoms = vec![0.0; free.len()];
    let mut sat = vec![0.0; clauses.len()];
    'worlds: for bits in 0u32..1 << free.len() {
        for (i, &a) in free.iter().enumerate() {
            world[a as usize] = bits >> i & 1 == 1;
        }
        let mut cost = 0.0;
        for &ci in clauses {
            let c = mrf.clause(ci);
            if c.violated(&world) {
                match c.weight {
                    Weight::Soft(w) => cost += w.abs(),
                    _ => continue 'worlds,
                }
            }
        }
        let p = (-cost).exp();
        z += p;
        for (acc, &a) in atoms.iter_mut().zip(free) {
            *acc += p * f64::from(u8::from(world[a as usize]));
        }
        for (acc, &ci) in sat.iter_mut().zip(clauses) {
            *acc += p * f64::from(u8::from(mrf.clause(ci).satisfied(&world)));
        }
    }
    let normalize = |v: Vec<f64>| v.into_iter().map(|x| x / z).collect();
    (z > 0.0).then(|| (normalize(atoms), normalize(sat)))
}

/// The exact joint marginals of the whole MRF.
fn exact_joint(mrf: &Mrf) -> (Vec<f64>, Vec<f64>) {
    let free: Vec<u32> = (0..mrf.num_atoms() as u32).collect();
    let clauses: Vec<usize> = (0..mrf.num_clauses()).collect();
    exact(mrf, &free, &clauses, &vec![false; mrf.num_atoms()]).expect("planted world is feasible")
}

fn params(seed: u64) -> McSatParams {
    McSatParams {
        samples: 10_000,
        burn_in: 50,
        sample_sat_steps: 100,
        seed,
        ..Default::default()
    }
}

fn config(mem_budget: Option<usize>, seed: u64) -> SchedulerConfig {
    SchedulerConfig {
        threads: 2,
        mem_budget,
        search: WalkSatParams {
            max_flips: 20_000,
            seed,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn assert_close(what: &str, seed: u64, i: usize, got: f64, want: f64, tol: f64) {
    assert!(
        (got - want).abs() <= tol,
        "seed {seed}: {what} {i}: sampled {got:.4} vs exact {want:.4} (tolerance {tol:.4})"
    );
}

fn assert_all_close(what: &str, seed: u64, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert_close(what, seed, i, g, w, TOL);
    }
}

#[test]
fn monolithic_mcsat_lands_on_the_exact_marginals() {
    for seed in SEEDS {
        let mrf = random_mrf(seed);
        let (probs, clause_sat) = exact_joint(&mrf);
        let mut mc = McSat::new(&mrf, seed).unwrap();
        let (p, s) = mc.marginals_with_clause_stats(&params(seed));
        assert_all_close("atom", seed, &p, &probs);
        assert_all_close("clause", seed, &s, &clause_sat);
    }
}

#[test]
fn per_component_mcsat_lands_on_the_exact_marginals() {
    let mut split = 0;
    for seed in SEEDS {
        let mrf = random_mrf(seed);
        let (probs, clause_sat) = exact_joint(&mrf);
        let scheduler = Scheduler::new(&mrf, config(None, seed));
        assert!(scheduler.schedule().parts.cut_clauses.is_empty());
        split += usize::from(scheduler.schedule().units.len() > 1);
        let r = scheduler.run_marginal(&params(seed)).unwrap();
        assert_all_close("atom", seed, &r.probs, &probs);
        assert_all_close("clause", seed, &r.clause_sat, &clause_sat);
    }
    assert!(split > 0, "no instance split into several components");
}

#[test]
fn cut_partition_mcsat_lands_on_its_conditioned_target() {
    let mut cut_units = 0;
    for seed in SEEDS {
        let mrf = random_mrf(seed);
        let (probs, clause_sat) = exact_joint(&mrf);
        let scheduler = Scheduler::new(&mrf, config(Some(20 * BYTES_PER_SIZE_UNIT), seed));
        let schedule = scheduler.schedule();
        // The state `run_marginal` conditions on: its own MAP run.
        let mode = scheduler.run(None).truth;
        let r = scheduler.run_marginal(&params(seed)).unwrap();
        // A cut clause keeps the estimate of the first partition that
        // samples it, in schedule order.
        let mut counted = vec![false; mrf.num_clauses()];
        for &ui in schedule.bins.iter().flat_map(|bin| &bin.items) {
            let p = schedule.units[ui].part;
            let atoms = &schedule.parts.atoms[p];
            let cut = &schedule.cut_by_part[p];
            let internal = &schedule.parts.internal_clauses[p];
            let clauses: Vec<usize> = internal.iter().chain(cut).map(|&c| c as usize).collect();
            cut_units += usize::from(!cut.is_empty());
            let Some((cond_probs, cond_sat)) = exact(&mrf, atoms, &clauses, &mode) else {
                continue; // the frozen boundary violates a hard clause
            };
            for (&a, &want) in atoms.iter().zip(&cond_probs) {
                assert_close("atom", seed, a as usize, r.probs[a as usize], want, TOL);
            }
            for (&ci, &want) in clauses.iter().zip(&cond_sat) {
                if !std::mem::replace(&mut counted[ci], true) {
                    assert_close("clause", seed, ci, r.clause_sat[ci], want, TOL);
                }
            }
            // Against the joint: atoms and inside clauses are events of the
            // partition alone, which the cut can bias by tanh(W/2) at most.
            let mut w = 0.0;
            for &ci in cut {
                match mrf.clause_weight(ci as usize) {
                    Weight::Soft(x) => w += x.abs(),
                    _ => w = f64::INFINITY,
                }
            }
            let bound = TOL + (w / 2.0).tanh();
            for &a in atoms {
                let a = a as usize;
                assert_close("atom (joint)", seed, a, r.probs[a], probs[a], bound);
            }
            for &ci in internal {
                let ci = ci as usize;
                assert_close(
                    "clause (joint)",
                    seed,
                    ci,
                    r.clause_sat[ci],
                    clause_sat[ci],
                    bound,
                );
            }
        }
    }
    assert!(cut_units > 0, "the budget cut no clause on any instance");
}
