//! Marginal inference: MC-SAT with a SampleSAT proposal (Appendix A.5).
//!
//! MC-SAT (Poon & Domingos) is a slice sampler: at each iteration it
//! selects a random subset `M` of the clauses satisfied by the current
//! state — each soft clause with probability `1 − e^{−w}`, hard clauses
//! always — and samples a near-uniform satisfying assignment of `M` using
//! SampleSAT, a mixture of WalkSAT moves and simulated-annealing moves
//! ("Essentially, SampleSAT is a combination of simulated annealing and
//! WalkSAT", Appendix A.5). Atom marginals are the fraction of samples in
//! which the atom is true.
//!
//! The sampler runs on a scope of its MRF, in place (see
//! [`crate::walksat`]): the whole MRF ([`McSat::new`]) or one partition
//! with a frozen boundary ([`McSat::in_scope`], the scheduler's
//! per-partition path). `M` is a list of clause ids, and SampleSAT is a
//! masked hard pass of [`WalkSat`] over the scope in a reusable
//! [`SearchScratch`], so no sample builds an MRF. A sample is identical,
//! draw for draw, to SampleSAT over a fresh all-hard MRF of `M`.
//!
//! Negative-weight clauses are not supported by the slice construction
//! and are rejected up front (the paper's marginal appendix likewise
//! assumes non-negative clause weights). A sign-less clause (a relearned
//! rule weight of exactly zero) weighs nothing: it is never selected and
//! consumes no randomness, as if the MRF had been built without it.

use crate::walksat::{Scope, SearchScratch, WalkSat, WalkSatParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tuffy_mln::weight::Weight;
use tuffy_mln::MlnError;
use tuffy_mrf::{AtomId, Mrf};

/// MC-SAT parameters.
#[derive(Clone, Copy, Debug)]
pub struct McSatParams {
    /// Number of MC-SAT samples (after burn-in).
    pub samples: usize,
    /// Burn-in samples discarded up front.
    pub burn_in: usize,
    /// SampleSAT steps per sample.
    pub sample_sat_steps: u64,
    /// Probability of an annealing move (vs a WalkSAT move) in SampleSAT.
    pub p_anneal: f64,
    /// Annealing temperature (in units of violated-clause count).
    pub temperature: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for McSatParams {
    fn default() -> Self {
        McSatParams {
            samples: 200,
            burn_in: 20,
            sample_sat_steps: 2_000,
            p_anneal: 0.5,
            temperature: 0.5,
            seed: 42,
        }
    }
}

/// Errors if `mrf` has a negative-weight clause, which the slice
/// construction does not support.
pub(crate) fn check_weights(mrf: &Mrf) -> Result<(), MlnError> {
    if mrf.clauses().iter().any(|c| c.weight.signum() < 0) {
        return Err(MlnError::general(
            "MC-SAT marginal inference requires non-negative clause weights",
        ));
    }
    Ok(())
}

/// MC-SAT marginal-inference engine over one MRF, or one partition of it.
pub struct McSat<'a> {
    mrf: &'a Mrf,
    scope: Scope<'a>,
    rng: StdRng,
    flips: u64,
}

impl<'a> McSat<'a> {
    /// Creates the sampler. Errors if the MRF has negative-weight clauses.
    pub fn new(mrf: &'a Mrf, seed: u64) -> Result<McSat<'a>, MlnError> {
        check_weights(mrf)?;
        Ok(Self::start(mrf, Scope::All, seed))
    }

    /// Creates a sampler over one partition of `mrf`: its ascending
    /// `atoms`, the clauses `inside` it and the `cut` clauses crossing its
    /// edge, as for [`WalkSat::in_scope`]. The atoms outside stay frozen at
    /// the boundary passed to [`McSat::marginals_in`] (§3.4 conditioning).
    /// Weights are not checked here: a negative clause is never selected,
    /// and [`crate::Scheduler::run_marginal`] rejects them up front.
    pub fn in_scope(
        mrf: &'a Mrf,
        atoms: &'a [AtomId],
        inside: &'a [u32],
        cut: &'a [u32],
        seed: u64,
    ) -> McSat<'a> {
        Self::start(mrf, Scope::Part { atoms, inside, cut }, seed)
    }

    fn start(mrf: &'a Mrf, scope: Scope<'a>, seed: u64) -> McSat<'a> {
        McSat {
            mrf,
            scope,
            rng: StdRng::seed_from_u64(seed),
            flips: 0,
        }
    }

    /// Total WalkSAT/SampleSAT flips performed so far (initialization
    /// plus every SampleSAT pass) — the marginal analogue of the MAP
    /// report's flip count.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Runs MC-SAT and returns the per-atom marginal probabilities.
    pub fn marginals(&mut self, params: &McSatParams) -> Vec<f64> {
        self.marginals_with_clause_stats(params).0
    }

    /// [`McSat::marginals`] that additionally returns, per clause, the
    /// fraction of post-burn-in samples in which the clause was
    /// satisfied — the `E[nᵢ]` sufficient statistic weight learning
    /// reads. The extra counting consumes no randomness, so the atom
    /// marginals are bit-identical to a plain [`McSat::marginals`] run
    /// with the same seed.
    pub fn marginals_with_clause_stats(&mut self, params: &McSatParams) -> (Vec<f64>, Vec<f64>) {
        let boundary = vec![false; self.mrf.num_atoms()];
        self.marginals_in(params, &boundary, &mut SearchScratch::default())
    }

    /// [`McSat::marginals_with_clause_stats`] over the sampler's scope,
    /// keeping the search columns in `scratch` and reading the frozen
    /// boundary from `boundary` (one entry per atom of the MRF). The chain
    /// starts from all-false on the scope. The probabilities are
    /// aligned with the scope's atoms, the clause statistics with its
    /// clauses: inside ones, then cut ones, where a cut clause that a
    /// frozen literal satisfies counts 1.0.
    pub fn marginals_in(
        &mut self,
        params: &McSatParams,
        boundary: &[bool],
        scratch: &mut SearchScratch,
    ) -> (Vec<f64>, Vec<f64>) {
        let (mrf, scope) = (self.mrf, self.scope);
        scratch.truth.resize(mrf.num_atoms(), false);
        scope.load(mrf, &mut scratch.truth, boundary);
        // Initial state: satisfy the hard clauses with WalkSAT, from
        // all-false.
        let mut state = vec![false; scope.atoms(mrf).count()];
        self.store(&state, &mut scratch.truth);
        let mut ws = WalkSat::start(mrf, scope, None, std::mem::take(scratch), self.rng.gen());
        ws.run(
            &WalkSatParams {
                max_flips: params.sample_sat_steps.saturating_mul(4),
                max_tries: 3,
                noise: 0.5,
                seed: self.rng.gen(),
            },
            None,
        );
        self.flips += ws.flips();
        state.copy_from_slice(ws.best_truth());
        *scratch = ws.into_scratch();
        self.store(&state, &mut scratch.truth);

        let mut counts = vec![0u64; state.len()];
        let mut sat_counts = vec![0u64; scope.clauses(mrf).count()];
        for _ in 0..params.burn_in {
            self.next_sample(&mut state, scratch, params);
        }
        for _ in 0..params.samples {
            self.next_sample(&mut state, scratch, params);
            for (c, &t) in counts.iter_mut().zip(&state) {
                *c += u64::from(t);
            }
            for (c, ci) in sat_counts.iter_mut().zip(scope.clauses(mrf)) {
                *c += u64::from(mrf.clause(ci).satisfied(&scratch.truth));
            }
        }
        let fraction = |c: u64| c as f64 / params.samples as f64;
        (
            counts.into_iter().map(fraction).collect(),
            sat_counts.into_iter().map(fraction).collect(),
        )
    }

    /// One MC-SAT iteration from `state`, which `scratch`'s truth also
    /// holds: draw the slice, sample the next state, leave it in both.
    fn next_sample(
        &mut self,
        state: &mut [bool],
        scratch: &mut SearchScratch,
        params: &McSatParams,
    ) {
        let selected = self.select_clauses(&scratch.truth);
        self.sample_sat(&selected, state, scratch, params);
        self.store(state, &mut scratch.truth);
    }

    /// Writes `state`, one entry per atom of the scope, into `truth`.
    fn store(&self, state: &[bool], truth: &mut [bool]) {
        for (a, &t) in self.scope.atoms(self.mrf).zip(state) {
            truth[a as usize] = t;
        }
    }

    /// The MC-SAT slice at `truth`, in scope order: every satisfied hard
    /// clause, plus each satisfied soft clause with probability
    /// `1 − e^{−w}`. A clause a frozen literal satisfies is not the
    /// scope's to sample; neither it nor a sign-less clause draws.
    fn select_clauses(&mut self, truth: &[bool]) -> Vec<u32> {
        let (mrf, scope) = (self.mrf, self.scope);
        let mut out = Vec::new();
        for ci in scope.clauses(mrf) {
            let c = mrf.clause(ci);
            if !c.satisfied(truth) || scope.frozen_true(mrf, truth, ci) {
                continue;
            }
            let take = match c.weight {
                Weight::Hard => true,
                Weight::Soft(w) if w > 0.0 => self.rng.gen::<f64>() < 1.0 - (-w).exp(),
                _ => false, // sign-less, or negative (rejected in `new`)
            };
            if take {
                out.push(ci as u32);
            }
        }
        out
    }

    /// SampleSAT: a masked hard pass over the scope for a near-uniform
    /// assignment satisfying the `selected` clauses, from a random state.
    /// `state` becomes the sample — or stays, the standard practical
    /// fallback, when the budget runs out first.
    fn sample_sat(
        &mut self,
        selected: &[u32],
        state: &mut [bool],
        scratch: &mut SearchScratch,
        params: &McSatParams,
    ) {
        let (mrf, scope) = (self.mrf, self.scope);
        let n = state.len();
        if n == 0 {
            // An empty scope has exactly one (empty) world; there is
            // nothing to sample and `gen_range(0..0)` below would panic.
            return;
        }
        for a in scope.atoms(mrf) {
            scratch.truth[a as usize] = self.rng.gen();
        }
        let mut ws = WalkSat::start(
            mrf,
            scope,
            Some(selected),
            std::mem::take(scratch),
            self.rng.gen(),
        );
        for _ in 0..params.sample_sat_steps {
            if ws.cost().is_zero() {
                // Keep moving at zero cost to decorrelate (annealing moves
                // that keep cost zero).
                let atom = scope.atom(self.rng.gen_range(0..n));
                let (dh, _) = ws.flip_delta(atom);
                if dh <= 0 {
                    ws.flip(atom);
                }
                continue;
            }
            if self.rng.gen::<f64>() < params.p_anneal {
                // Simulated-annealing move on the violated-clause count.
                let atom = scope.atom(self.rng.gen_range(0..n));
                let (dh, _) = ws.flip_delta(atom);
                if dh <= 0 || self.rng.gen::<f64>() < (-(dh as f64) / params.temperature).exp() {
                    ws.flip(atom);
                }
            } else {
                ws.step(0.5);
            }
        }
        self.flips += ws.flips();
        if ws.cost().is_zero() {
            for (t, a) in state.iter_mut().zip(scope.atoms(mrf)) {
                *t = ws.truth()[a as usize];
            }
        } else if ws.best_cost().is_zero() {
            state.copy_from_slice(ws.best_truth());
        }
        *scratch = ws.into_scratch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuffy_mrf::{Lit, MrfBuilder};

    /// A single positive unit clause (a, w): P(a) = e^w / (1 + e^w).
    #[test]
    fn unit_clause_marginal_matches_analytic() {
        let w = 1.0f64;
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(w));
        let m = b.finish();
        let mut mc = McSat::new(&m, 7).unwrap();
        let marg = mc.marginals(&McSatParams {
            samples: 2000,
            burn_in: 50,
            sample_sat_steps: 20,
            ..Default::default()
        });
        let expected = w.exp() / (1.0 + w.exp()); // ≈ 0.731
        assert!(
            (marg[0] - expected).abs() < 0.06,
            "marginal {} vs analytic {}",
            marg[0],
            expected
        );
    }

    /// Two atoms tied by a hard equivalence, one biased: they co-vary.
    #[test]
    fn hard_equivalence_ties_marginals() {
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::neg(0), Lit::pos(1)], Weight::Hard);
        b.add_clause(vec![Lit::pos(0), Lit::neg(1)], Weight::Hard);
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(1.5));
        let m = b.finish();
        let mut mc = McSat::new(&m, 13).unwrap();
        let marg = mc.marginals(&McSatParams {
            samples: 1500,
            burn_in: 50,
            sample_sat_steps: 60,
            ..Default::default()
        });
        assert!(
            (marg[0] - marg[1]).abs() < 0.05,
            "{} vs {}",
            marg[0],
            marg[1]
        );
        assert!(marg[0] > 0.6, "biased atom should lean true: {}", marg[0]);
    }

    #[test]
    fn negative_weights_rejected() {
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0)], Weight::Soft(-1.0));
        let m = b.finish();
        assert!(McSat::new(&m, 1).is_err());
    }

    #[test]
    fn uniform_over_satisfying_assignments_when_unconstrained() {
        // No clauses at all: marginals ≈ 0.5.
        let mut b = MrfBuilder::new();
        b.reserve_atoms(2);
        let m = b.finish();
        let mut mc = McSat::new(&m, 3).unwrap();
        let marg = mc.marginals(&McSatParams {
            samples: 2000,
            burn_in: 10,
            sample_sat_steps: 10,
            ..Default::default()
        });
        for p in marg {
            assert!((p - 0.5).abs() < 0.06, "unconstrained marginal {p}");
        }
    }
}
