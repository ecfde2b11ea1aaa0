//! Partition-aware parallel inference scheduling (§3.3–3.4, Appendix B.7).
//!
//! This module unifies the three decomposition mechanisms of the paper —
//! connected components (§3.3), memory-budgeted MRF partitioning
//! (Algorithm 3, §3.4), and multi-threaded per-partition search
//! (Appendix C.3) — into one subsystem:
//!
//! 1. **Plan** ([`Schedule::plan`]): run Algorithm 3 under a β bound
//!    derived from the byte budget (β = ∞, i.e. exact connected
//!    components, when no budget is given), estimate every partition's
//!    search-state footprint analytically, and First-Fit-Decreasing pack
//!    the partitions into memory-budgeted bins.
//! 2. **Execute** ([`Scheduler::run`]): sweep the bins with a
//!    work-stealing worker pool. Within a bin every partition is searched
//!    against the assignment *snapshotted at the bin's start* (block
//!    Jacobi), while later bins — and later Gauss-Seidel rounds — see all
//!    earlier updates (Gauss-Seidel). Every partition is searched *in
//!    place*: a [`WalkSat`] scoped to the partition's atom, inside-clause
//!    and cut-clause lists runs directly on the MRF's shared CSR arenas,
//!    in a per-worker [`SearchScratch`] that lives for the whole run, so a
//!    pass copies, hashes and allocates nothing that grows with the
//!    clause count. A partition no cut clause touches (every connected
//!    component, so every partition when no budget is given) is a closed
//!    scope. One that cut clauses touch is conditioned on the rest of the
//!    snapshot exactly as §3.4 describes, by freezing its boundary: the
//!    outside atoms of its cut clauses keep their snapshot values, so an
//!    externally satisfied cut clause drops out for the pass and the
//!    others keep only their in-partition literals. Marginal inference
//!    ([`Scheduler::run_marginal`]) runs MC-SAT on the same scopes, in the
//!    same per-worker scratches.
//! 3. **Converge**: rounds stop early once a full sweep leaves the
//!    assignment unchanged.
//!
//! Determinism: a partition pass depends only on the snapshot, the
//! partition id, and the round — its RNG seed is derived from those alone
//! — and merging happens in schedule order after each bin joins, so the
//! result (assignment, cost, flip counts, and the recorded best-cost
//! trajectory) is bit-identical for every worker-pool size.
//!
//! Cost per pass: a pass reads no clock and allocates nothing. It leaves
//! its best-cost points `(flips, cost)` and its best truth in buffers of
//! its worker that live for the whole run, and the merge reads them back
//! in schedule order. The trace is one per run: the merge folds every
//! pass's points into the run's best-cost curve and stamps a bin's
//! points with one clock read.

use crate::mcsat::{McSat, McSatParams};
use crate::timecost::TimeCostTrace;
use crate::walksat::{SearchScratch, WalkSat, WalkSatParams};
use std::ops::Range;
use std::sync::Arc;
use tuffy_mln::pool::pool_map;
use tuffy_mln::MlnError;
use tuffy_mrf::binpack::{first_fit_decreasing, Bin};
use tuffy_mrf::memory::{beta_for_budget, human_bytes, MemoryFootprint};
use tuffy_mrf::{Cost, Lit, Mrf, Partitioning};

/// The flip budget each worker of a MAP query must have to pay for
/// itself: [`SchedulerConfig::paid_by_flips`] gives a run at most
/// `max_flips / MIN_FLIPS_PER_WORKER` workers, and at least one.
///
/// Measured on 2 vCPUs, 1 → 2 workers. Alone, a second worker pays at
/// every budget: a warm `ie(2500, 700)` MAP's p50 goes 4.5 → 3.6 ms at
/// 10 k flips, 14–18 → 12 ms at 100 k and 74–103 → 47–55 ms at 1 M;
/// `ie(25000, 2000)` at 5 M flips, 581 → 323 ms. With two clients
/// already on both cores it never pays, and it costs most where a query
/// is short: splitting `serve_read`'s 10 k-flip MAPs moved `op_p50_ms`
/// from 8.7–9.9 to 12.5–13.4 ms, while two clients issuing 100 k- or
/// 1 M-flip MAPs on one `ie(2500, 700)` engine lost 4–14 % of their
/// throughput (three runs each). A flip budget cannot see contention:
/// this value keeps short requests, where splitting loses most, on
/// their caller's thread, and lets long ones take every core. Budgets
/// between 10 k and 100 k flips were not measured.
pub const MIN_FLIPS_PER_WORKER: u64 = 50_000;

/// Configuration of a [`Scheduler`].
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Worker threads in the pool (0 and 1 both mean the calling thread
    /// alone); a bin never runs more workers than it has partitions. The
    /// result is bit-identical at every pool size. Callers that size the
    /// pool by the flip budget do so with
    /// [`SchedulerConfig::paid_by_flips`].
    pub threads: usize,
    /// Byte budget for a resident bin; `None` schedules exact connected
    /// components in a single bin.
    pub mem_budget: Option<usize>,
    /// Maximum Gauss-Seidel rounds over cut clauses (ignored — one round
    /// — when the schedule has no cut clauses).
    pub rounds: usize,
    /// Per-partition WalkSAT parameters; `max_flips` is the *total* flip
    /// budget, divided across partitions and rounds in proportion to
    /// partition size (the §4.4 weighted round-robin protocol).
    pub search: WalkSatParams,
}

impl SchedulerConfig {
    /// This configuration with its pool cut to what the flip budget pays
    /// for: at most one worker per [`MIN_FLIPS_PER_WORKER`] flips, and at
    /// least one. The engine's MAP queries run under it.
    pub fn paid_by_flips(self) -> Self {
        let paid = self.search.max_flips / MIN_FLIPS_PER_WORKER;
        let paid = usize::try_from(paid).unwrap_or(usize::MAX).max(1);
        SchedulerConfig {
            threads: self.threads.max(1).min(paid),
            ..self
        }
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            threads: 1,
            mem_budget: None,
            rounds: 3,
            search: WalkSatParams::default(),
        }
    }
}

/// One schedulable unit: a partition with at least one (internal or cut)
/// clause.
#[derive(Clone, Debug)]
pub struct ScheduleUnit {
    /// Index of the partition in the [`Partitioning`].
    pub part: usize,
    /// Atoms in the partition.
    pub atom_count: usize,
    /// Clauses fully inside the partition.
    pub internal_clauses: usize,
    /// Cut clauses touching the partition.
    pub cut_clauses: usize,
    /// Estimated bytes of the partition's search state (internal clauses
    /// only; a pass over a unit with cut clauses reports its own scope,
    /// which adds their in-partition remnants).
    pub est_bytes: usize,
}

/// The planned decomposition: partitions, their footprints, and the
/// memory-budgeted bins they load in.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The Algorithm 3 partitioning (exact connected components when no
    /// budget bounds β).
    pub parts: Partitioning,
    /// Active partitions in partition order.
    pub units: Vec<ScheduleUnit>,
    /// FFD bins over `units` (items index into `units`).
    pub bins: Vec<Bin>,
    /// Cut clauses touching each partition (indexed by partition id).
    pub cut_by_part: Vec<Vec<u32>>,
    /// The byte budget the schedule was planned under.
    pub mem_budget: Option<usize>,
    /// Violated hard cut clauses would each cost ∞; their count.
    pub cut_hard: u64,
    /// Total |w| of soft cut clauses — the worst-case cost gap between
    /// partitioned and exact search (Appendix B.8's tradeoff quantity).
    pub cut_soft: f64,
}

impl Schedule {
    /// Plans the decomposition of `mrf` under `mem_budget` bytes.
    pub fn plan(mrf: &Mrf, mem_budget: Option<usize>) -> Schedule {
        let beta = mem_budget.map_or(usize::MAX, beta_for_budget);
        let parts = Partitioning::compute(mrf, beta);
        let mut cut_by_part = vec![Vec::new(); parts.count()];
        for &ci in &parts.cut_clauses {
            let clause = mrf.clause(ci as usize);
            let mut seen: Vec<u32> = Vec::new();
            for l in clause.lits.iter() {
                let p = parts.label[l.atom() as usize];
                if !seen.contains(&p) {
                    seen.push(p);
                    cut_by_part[p as usize].push(ci);
                }
            }
        }
        let mut units = Vec::new();
        for (p, internal) in parts.internal_clauses.iter().enumerate() {
            if internal.is_empty() && cut_by_part[p].is_empty() {
                continue; // atoms no clause touches play no role in search
            }
            let lits: usize = internal
                .iter()
                .map(|&ci| mrf.clause_lits(ci as usize).len())
                .sum();
            units.push(ScheduleUnit {
                part: p,
                atom_count: parts.atoms[p].len(),
                internal_clauses: internal.len(),
                cut_clauses: cut_by_part[p].len(),
                est_bytes: MemoryFootprint::estimate(parts.atoms[p].len(), internal.len(), lits)
                    .total(),
            });
        }
        let sizes: Vec<u64> = units.iter().map(|u| u.est_bytes as u64).collect();
        let capacity = mem_budget.map_or(u64::MAX, |b| (b as u64).max(1));
        let bins = first_fit_decreasing(&sizes, capacity);
        let (cut_hard, cut_soft) = parts.cut_weight(mrf);
        Schedule {
            parts,
            units,
            bins,
            cut_by_part,
            mem_budget,
            cut_hard,
            cut_soft,
        }
    }

    /// β the partitioning ran under (`usize::MAX` without a budget).
    pub fn beta(&self) -> usize {
        self.parts.beta
    }
}

/// Result of one scheduled inference run.
#[derive(Clone, Debug)]
pub struct ScheduleResult {
    /// Best global assignment found.
    pub truth: Vec<bool>,
    /// Its cost.
    pub cost: Cost,
    /// Total flips across all partition passes.
    pub flips: u64,
    /// Peak single-partition search footprint in bytes — the quantity the
    /// memory budget of Figure 6 constrains.
    pub peak_partition_bytes: usize,
    /// Gauss-Seidel rounds actually executed.
    pub rounds_run: usize,
    /// Whether a full round left the assignment unchanged (always `false`
    /// when the round limit was exhausted first).
    pub converged: bool,
    /// Worker threads the run actually took: the most any bin ran.
    pub threads: usize,
}

/// The outcome of scheduled marginal inference: per-atom probabilities
/// plus the total SampleSAT work performed.
#[derive(Clone, Debug)]
pub struct MarginalSamples {
    /// `P(atom = true)` per atom id (0.5 for atoms outside every
    /// partition).
    pub probs: Vec<f64>,
    /// `P(clause satisfied)` per global clause id, under the same
    /// conditioned sampling that produced `probs` — the `E[nᵢ]`
    /// sufficient statistic weight learning reads. Every clause is counted
    /// in the samples of a partition it lies in. A cut clause, sampled by
    /// every partition it touches, keeps the estimate of the first one in
    /// schedule order (deterministic for any thread count), and counts 1.0
    /// there when a literal outside that partition satisfies it at the
    /// conditioning state.
    pub clause_sat: Vec<f64>,
    /// Total WalkSAT/SampleSAT flips across all samplers (and the MAP
    /// conditioning run, when cut clauses require one).
    pub flips: u64,
}

/// One pool worker's state for a whole MAP run: its search scratch, and
/// what the passes it ran in the current bin left for the merge.
#[derive(Default)]
struct Worker {
    /// Index of this worker in the run's pool.
    id: usize,
    search: SearchScratch,
    /// Each pass's best-cost points `(flips, cost)`: its starting cost,
    /// then every improvement, passes appended in the order they ran.
    points: Vec<(u64, Cost)>,
    /// Each pass's best truth, aligned with its partition's atoms.
    truths: Vec<bool>,
}

/// Where one partition pass left its outcome, merged after its bin joins.
struct UnitOutcome {
    /// The worker whose buffers hold the outcome.
    worker: usize,
    /// The pass's points in the worker's `points`.
    points: Range<usize>,
    /// Where the pass's best truth starts in the worker's `truths`.
    truth: usize,
    flips: u64,
    bytes: usize,
}

/// Partition-aware parallel inference over one MRF.
pub struct Scheduler<'a> {
    mrf: &'a Mrf,
    schedule: Arc<Schedule>,
    config: SchedulerConfig,
}

impl<'a> Scheduler<'a> {
    /// Plans a schedule for `mrf` under the given configuration.
    pub fn new(mrf: &'a Mrf, config: SchedulerConfig) -> Scheduler<'a> {
        let schedule = Arc::new(Schedule::plan(mrf, config.mem_budget));
        Scheduler::with_schedule(mrf, schedule, config)
    }

    /// Wraps an already-planned schedule — the serving API's cached-plan
    /// path, where repeated queries over an unchanged grounded generation
    /// should not re-run partitioning and bin packing. Shared by `Arc`:
    /// any number of concurrent queries over one generation can hold the
    /// same plan without cloning it. The schedule must have been planned
    /// for this `mrf` under this configuration's budget.
    pub fn with_schedule(
        mrf: &'a Mrf,
        schedule: Arc<Schedule>,
        config: SchedulerConfig,
    ) -> Scheduler<'a> {
        Scheduler {
            mrf,
            schedule,
            config,
        }
    }

    /// Consumes the scheduler, handing its schedule back for reuse.
    pub fn into_schedule(self) -> Arc<Schedule> {
        self.schedule
    }

    /// The planned decomposition.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Effective Gauss-Seidel rounds: 1 when nothing is cut (a second
    /// sweep could not change anything), the configured limit otherwise.
    pub fn rounds(&self) -> usize {
        if self.schedule.parts.cut_clauses.is_empty() {
            1
        } else {
            self.config.rounds.max(1)
        }
    }

    /// Renders the planning decisions — partition sizes, bin packing, cut
    /// weight — in the same tree style as the RDBMS `EXPLAIN` report.
    pub fn explain(&self) -> String {
        let s = &self.schedule;
        let budget = match s.mem_budget {
            Some(b) => format!("budget {}", human_bytes(b)),
            None => "no memory budget".to_string(),
        };
        let beta = if s.beta() == usize::MAX {
            "β=∞".to_string()
        } else {
            format!("β={}", s.beta())
        };
        let mut out = format!(
            "Schedule: {} partitions in {} bins ({beta}, {budget}, threads={}, rounds={})\n",
            s.units.len(),
            s.bins.len(),
            self.config.threads.max(1),
            self.rounds(),
        );
        let cut = if s.parts.cut_clauses.is_empty() {
            "├─ cut: none (partitions are exact connected components)\n".to_string()
        } else {
            format!(
                "├─ cut: {} clauses (hard {}, soft |w| {:.1})\n",
                s.parts.cut_clauses.len(),
                s.cut_hard,
                s.cut_soft
            )
        };
        out.push_str(&cut);
        for (bi, bin) in s.bins.iter().enumerate() {
            let last_bin = bi + 1 == s.bins.len();
            let (branch, stem) = if last_bin {
                ("└─", "   ")
            } else {
                ("├─", "│  ")
            };
            out.push_str(&format!(
                "{branch} Bin {bi}  est {}{}\n",
                human_bytes(bin.total as usize),
                if s.mem_budget.is_some_and(|b| bin.total as usize > b) {
                    " (over budget: single oversized partition)"
                } else {
                    ""
                }
            ));
            for (ji, &ui) in bin.items.iter().enumerate() {
                let u = &s.units[ui];
                let twig = if ji + 1 == bin.items.len() {
                    "└─"
                } else {
                    "├─"
                };
                out.push_str(&format!(
                    "{stem}{twig} P{}  atoms={} internal={} cut={}  est {}\n",
                    u.part,
                    u.atom_count,
                    u.internal_clauses,
                    u.cut_clauses,
                    human_bytes(u.est_bytes)
                ));
            }
        }
        out
    }

    /// Runs MAP inference over the schedule: WalkSAT per partition, the
    /// worker pool per bin, Gauss-Seidel rounds across bins. Records the
    /// (deterministic) best-cost trajectory in `trace` if provided.
    ///
    /// Equivalent to [`Scheduler::run_from`] with the all-`false`
    /// LazySAT default state.
    pub fn run(&self, trace: Option<&mut TimeCostTrace>) -> ScheduleResult {
        self.run_from(&vec![false; self.mrf.num_atoms()], trace)
    }

    /// Runs MAP inference warm-started from `init` (the session API's
    /// repeated-inference path: the previous best truth seeds every
    /// partition's first pass through the snapshot).
    pub fn run_from(&self, init: &[bool], mut trace: Option<&mut TimeCostTrace>) -> ScheduleResult {
        let n = self.mrf.num_atoms();
        assert_eq!(init.len(), n, "warm-start state must cover every atom");
        let mut truth = init.to_vec();
        let mut best_cost = self.mrf.cost(&truth);
        let mut best_truth = truth.clone();
        let mut snapshot = truth.clone();
        // Folded best-so-far curve (exact between cut interactions;
        // resynced to the true assembled cost at every bin boundary), and
        // one bin's share of it, recorded when the bin's merge ends.
        let mut running = best_cost;
        let mut folded: Vec<(u64, Cost)> = Vec::new();
        let mut flips = 0u64;
        let mut peak = 0usize;
        if let Some(t) = trace.as_mut() {
            t.record(0, best_cost);
        }
        let rounds = self.rounds();
        let mut rounds_run = 0;
        let mut converged = false;
        // One per pool worker, for every in-place pass of the run; a
        // worker can hold the best truths of a whole bin.
        let bin_atoms = |bin: &Bin| -> usize {
            let units = bin.items.iter().map(|&ui| &self.schedule.units[ui]);
            units.map(|u| u.atom_count).sum()
        };
        let widest_atoms = self.schedule.bins.iter().map(bin_atoms).max();
        let mut workers: Vec<Worker> = (0..self.config.threads.max(1))
            .map(|id| Worker {
                id,
                truths: Vec::with_capacity(widest_atoms.unwrap_or(0)),
                ..Worker::default()
            })
            .collect();
        let widest = self.schedule.bins.iter().map(|b| b.items.len()).max();
        let threads = workers.len().min(widest.unwrap_or(1)).max(1);

        for round in 0..rounds {
            rounds_run = round + 1;
            let mut round_changed = false;
            for bin in &self.schedule.bins {
                snapshot.copy_from_slice(&truth);
                for w in &mut workers {
                    w.points.clear();
                    w.truths.clear();
                }
                let outcomes = self.run_bin(bin, &snapshot, round, &mut workers);
                // Merge in schedule order — identical for any pool size.
                for (&ui, outcome) in bin.items.iter().zip(outcomes) {
                    let worker = &workers[outcome.worker];
                    if trace.is_some() {
                        let pts = &worker.points[outcome.points];
                        let mut last = pts.first().map_or(Cost::ZERO, |p| p.1);
                        for &(at, cost) in &pts[1..] {
                            // Saturating: a cut clause shared by two
                            // partitions of one bin can be improved by
                            // both, so the folded estimate may briefly
                            // over-credit.
                            running = Cost {
                                hard: (running.hard + cost.hard).saturating_sub(last.hard),
                                soft: (running.soft + cost.soft - last.soft).max(0.0),
                            };
                            last = cost;
                            folded.push((flips + at, running));
                        }
                    }
                    flips += outcome.flips;
                    peak = peak.max(outcome.bytes);
                    let atoms = &self.schedule.parts.atoms[self.schedule.units[ui].part];
                    let best = &worker.truths[outcome.truth..outcome.truth + atoms.len()];
                    for (&global, &value) in atoms.iter().zip(best) {
                        if truth[global as usize] != value {
                            truth[global as usize] = value;
                            round_changed = true;
                        }
                    }
                }
                // Resync with the true assembled cost: within a bin two
                // partitions may have both claimed the same cut clause.
                let cost = self.mrf.cost(&truth);
                running = cost;
                if cost.better_than(best_cost) {
                    best_cost = cost;
                    best_truth.copy_from_slice(&truth);
                    folded.push((flips, cost));
                }
                if let Some(t) = trace.as_mut() {
                    t.record_all(&folded);
                }
                folded.clear();
            }
            if !round_changed {
                converged = true;
                break;
            }
        }
        if let Some(t) = trace.as_mut() {
            t.record(flips, best_cost);
        }
        ScheduleResult {
            truth: best_truth,
            cost: best_cost,
            flips,
            peak_partition_bytes: peak,
            rounds_run,
            converged,
            threads,
        }
    }

    /// Runs marginal inference over the schedule: MC-SAT per partition,
    /// conditioned on a MAP mode when cut clauses couple partitions
    /// (exact factorization when they don't — marginals decompose over
    /// components). Atoms outside every partition are uniform (0.5).
    ///
    /// Errors if the MRF has negative-weight clauses (MC-SAT's slice
    /// construction requires non-negative weights).
    pub fn run_marginal(&self, params: &McSatParams) -> Result<MarginalSamples, MlnError> {
        crate::mcsat::check_weights(self.mrf)?;
        let mut flips = 0u64;
        let condition_state = if self.schedule.parts.cut_clauses.is_empty() {
            vec![false; self.mrf.num_atoms()]
        } else {
            let map_mode = self.run(None);
            flips += map_mode.flips;
            map_mode.truth
        };
        let mut marginals = vec![0.5f64; self.mrf.num_atoms()];
        // Every clause lies inside one unit or on the cut of several, so
        // every entry is written.
        let mut clause_sat = vec![f64::NAN; self.mrf.num_clauses()];
        let (parts, cut_by_part) = (&self.schedule.parts, &self.schedule.cut_by_part);
        let mut scratch = scratches(self.config.threads.max(1));
        for bin in &self.schedule.bins {
            let jobs = &bin.items;
            let run_unit = |scratch: &mut SearchScratch, j: usize| {
                let p = self.schedule.units[jobs[j]].part;
                let seed = derive_seed(params.seed, p, 0);
                let (atoms, clauses) = (&parts.atoms[p], &parts.internal_clauses[p]);
                let mut mc = McSat::in_scope(self.mrf, atoms, clauses, &cut_by_part[p], seed);
                let (probs, sat) = mc.marginals_in(params, &condition_state, scratch);
                (probs, sat, mc.flips())
            };
            let locals = pool_map(jobs.len(), &mut scratch, run_unit);
            for (&ui, (probs, sat, unit_flips)) in jobs.iter().zip(locals) {
                let p = self.schedule.units[ui].part;
                for (&a, prob) in parts.atoms[p].iter().zip(probs) {
                    marginals[a as usize] = prob;
                }
                // First write wins: a cut clause is sampled once per
                // touching partition, and schedule order is fixed.
                let clauses = parts.internal_clauses[p].iter().chain(&cut_by_part[p]);
                for (&ci, prob) in clauses.zip(sat) {
                    if clause_sat[ci as usize].is_nan() {
                        clause_sat[ci as usize] = prob;
                    }
                }
                flips += unit_flips;
            }
        }
        Ok(MarginalSamples {
            probs: marginals,
            clause_sat,
            flips,
        })
    }

    /// Executes one bin on the pool of `workers`: they steal partition
    /// passes off a shared queue; outcomes come back in schedule order.
    fn run_bin(
        &self,
        bin: &Bin,
        snapshot: &[bool],
        round: usize,
        workers: &mut [Worker],
    ) -> Vec<UnitOutcome> {
        // `max_flips` is whatever the caller asked for, up to `u64::MAX`:
        // take the proportion in 128 bits. A unit's share is at most
        // `max_flips`, so it fits back.
        let max_flips = u128::from(self.config.search.max_flips);
        let all_passes = self.mrf.num_atoms().max(1) as u128 * self.rounds() as u128;
        let budget_of = |u: &ScheduleUnit| {
            let share = max_flips * u.atom_count as u128 / all_passes;
            u64::try_from(share).unwrap_or(u64::MAX).max(1)
        };
        let pass = |worker: &mut Worker, j: usize| {
            let unit = &self.schedule.units[bin.items[j]];
            self.run_unit_pass(
                unit,
                snapshot,
                budget_of(unit),
                derive_seed(self.config.search.seed, unit.part, round),
                worker,
            )
        };
        pool_map(bin.items.len(), workers, pass)
    }

    /// One WalkSAT pass over a partition, from the snapshot's state, in
    /// place in the worker's scratch (see [`WalkSat::in_scope`] for why
    /// a closed partition's trajectory equals that of a relabelled copy).
    /// The footprint of a closed partition is the planned `est_bytes`:
    /// what [`MemoryFootprint::of`] would report for that copy.
    fn run_unit_pass(
        &self,
        unit: &ScheduleUnit,
        snapshot: &[bool],
        budget: u64,
        seed: u64,
        worker: &mut Worker,
    ) -> UnitOutcome {
        let p = unit.part;
        let (parts, cut) = (&self.schedule.parts, &self.schedule.cut_by_part[p]);
        let bytes = if cut.is_empty() {
            unit.est_bytes
        } else {
            self.scope_bytes(unit, snapshot)
        };
        let mut ws = WalkSat::in_scope(
            self.mrf,
            &parts.atoms[p],
            &parts.internal_clauses[p],
            cut,
            snapshot,
            seed,
            std::mem::take(&mut worker.search),
        );
        let outcome = search_pass(&mut ws, budget, self.config.search.noise, bytes, worker);
        worker.search = ws.into_scratch();
        outcome
    }

    /// The footprint of a unit's search scope conditioned on `snapshot`:
    /// its internal clauses, plus each cut clause no outside literal
    /// satisfies, counted on its in-partition literals.
    fn scope_bytes(&self, unit: &ScheduleUnit, snapshot: &[bool]) -> usize {
        let (parts, p) = (&self.schedule.parts, unit.part);
        let inside = |l: &&Lit| parts.label[l.atom() as usize] as usize == p;
        let frozen_true = |l: &Lit| !inside(&l) && l.eval(snapshot[l.atom() as usize]);
        let (mut clauses, mut literals) = (0, 0);
        for &ci in parts.internal_clauses[p]
            .iter()
            .chain(&self.schedule.cut_by_part[p])
        {
            let lits = self.mrf.clause_lits(ci as usize);
            if !lits.iter().any(frozen_true) {
                clauses += 1;
                literals += lits.iter().filter(inside).count();
            }
        }
        MemoryFootprint::estimate(unit.atom_count, clauses, literals).total()
    }
}

/// One search scratch per pool worker.
fn scratches(workers: usize) -> Vec<SearchScratch> {
    std::iter::repeat_with(SearchScratch::default)
        .take(workers)
        .collect()
}

/// Spends up to `budget` flips on `ws`, appending its starting cost and
/// every improvement of its best cost to the worker's points, then its
/// best truth to the worker's truths; `bytes` is the footprint to report
/// for the pass.
fn search_pass(
    ws: &mut WalkSat<'_>,
    budget: u64,
    noise: f64,
    bytes: usize,
    worker: &mut Worker,
) -> UnitOutcome {
    let first = worker.points.len();
    worker.points.push((0, ws.best_cost()));
    let mut last_best = ws.best_cost();
    for _ in 0..budget {
        if !ws.step(noise) {
            break;
        }
        if ws.best_cost().better_than(last_best) {
            last_best = ws.best_cost();
            worker.points.push((ws.flips(), last_best));
        }
    }
    let truth = worker.truths.len();
    worker.truths.extend_from_slice(ws.best_truth());
    UnitOutcome {
        worker: worker.id,
        points: first..worker.points.len(),
        truth,
        flips: ws.flips(),
        bytes,
    }
}

/// Derives the RNG seed of one partition pass. Depends only on the base
/// seed, the partition id, and the round — never on the worker thread or
/// execution order — so runs are reproducible for any thread count.
fn derive_seed(base: u64, part: usize, round: usize) -> u64 {
    let mut z = base
        .wrapping_add((part as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add((round as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuffy_mln::weight::Weight;
    use tuffy_mrf::MrfBuilder;

    /// Example 1 of the paper with N two-atom components.
    fn example1(n: u32) -> Mrf {
        let mut b = MrfBuilder::new();
        for i in 0..n {
            let (x, y) = (2 * i, 2 * i + 1);
            b.add_clause(vec![Lit::pos(x)], Weight::Soft(1.0));
            b.add_clause(vec![Lit::pos(y)], Weight::Soft(1.0));
            b.add_clause(vec![Lit::pos(x), Lit::pos(y)], Weight::Soft(-1.0));
        }
        b.finish()
    }

    /// Example 2 of the paper: two dense "all equal" clusters joined by
    /// one bridge clause, satisfied at the all-true optimum.
    fn example2() -> Mrf {
        let mut b = MrfBuilder::new();
        let cluster = |b: &mut MrfBuilder, base: u32| {
            for i in 0..3u32 {
                for j in (i + 1)..3 {
                    b.add_clause(
                        vec![Lit::neg(base + i), Lit::pos(base + j)],
                        Weight::Soft(2.0),
                    );
                    b.add_clause(
                        vec![Lit::pos(base + i), Lit::neg(base + j)],
                        Weight::Soft(2.0),
                    );
                }
            }
            for i in 0..3u32 {
                b.add_clause(vec![Lit::pos(base + i)], Weight::Soft(0.5));
            }
        };
        cluster(&mut b, 0);
        cluster(&mut b, 3);
        b.add_clause(vec![Lit::neg(0), Lit::pos(3)], Weight::Soft(1.0));
        b.finish()
    }

    fn config(max_flips: u64, seed: u64) -> SchedulerConfig {
        SchedulerConfig {
            search: WalkSatParams {
                max_flips,
                seed,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn parallel_matches_sequential_quality() {
        let m = example1(64);
        let s = Scheduler::new(
            &m,
            SchedulerConfig {
                threads: 4,
                ..config(64 * 100, 21)
            },
        );
        let r = s.run(None);
        assert_eq!(r.cost, Cost::soft(64.0)); // global optimum
        assert!(r.truth.iter().all(|&t| t));
        assert_eq!(r.threads, 4);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let m = example1(16);
        let run = |threads| {
            let mut trace = TimeCostTrace::new();
            let s = Scheduler::new(
                &m,
                SchedulerConfig {
                    threads,
                    ..config(16 * 200, 4)
                },
            );
            let r = s.run(Some(&mut trace));
            let curve: Vec<(u64, u64, String)> = trace
                .points()
                .iter()
                .map(|p| (p.flips, p.cost.hard, format!("{}", p.cost)))
                .collect();
            (r.truth, format!("{}", r.cost), r.flips, curve)
        };
        let base = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), base, "threads={threads} diverged");
        }
    }

    #[test]
    fn flip_budget_sizes_the_pool() {
        // Eight satisfiable components: every pass stops at its
        // zero-cost world, so a large budget costs no time.
        let mut b = MrfBuilder::new();
        for i in 0..8u32 {
            b.add_clause(
                vec![Lit::pos(2 * i), Lit::pos(2 * i + 1)],
                Weight::Soft(1.0),
            );
            b.add_clause(vec![Lit::neg(2 * i)], Weight::Soft(0.5));
        }
        let m = b.finish();
        let run = |config: SchedulerConfig| {
            let r = Scheduler::new(&m, config).run(None);
            (r.threads, (r.truth, format!("{}", r.cost), r.flips))
        };
        let sized = |threads, max_flips| {
            run(SchedulerConfig {
                threads,
                ..config(max_flips, 6)
            }
            .paid_by_flips())
        };
        let serving = sized(1, 10_000).1;
        for threads in [2, 4, 16] {
            assert_eq!(sized(threads, 10_000), (1, serving.clone()));
            // Unsized, the scheduler runs the pool it is given.
            let pool = SchedulerConfig {
                threads,
                ..config(10_000, 6)
            };
            assert_eq!(run(pool), (threads.min(8), serving.clone()));
        }
        let cold = sized(1, 5_000_000).1;
        for threads in [2, 4, 16] {
            assert_eq!(sized(threads, 5_000_000), (threads.min(8), cold.clone()));
        }
    }

    #[test]
    fn single_thread_is_allowed() {
        let m = example1(4);
        let s = Scheduler::new(
            &m,
            SchedulerConfig {
                threads: 0,
                ..config(4 * 200, 42)
            },
        );
        let r = s.run(None);
        assert_eq!(r.threads, 1);
        assert_eq!(r.cost, Cost::soft(4.0));
    }

    #[test]
    fn reaches_optimum_across_partitions() {
        let m = example2();
        // β = 21 splits the two clusters (budget = β · bytes/unit).
        let s = Scheduler::new(
            &m,
            SchedulerConfig {
                mem_budget: Some(21 * tuffy_mrf::memory::BYTES_PER_SIZE_UNIT),
                rounds: 4,
                ..config(8_000, 9)
            },
        );
        assert!(s.schedule().units.len() >= 2);
        assert!(!s.schedule().parts.cut_clauses.is_empty());
        let r = s.run(None);
        assert!(r.cost.is_zero(), "cost = {}", r.cost);
        assert!(r.truth.iter().all(|&t| t));
    }

    #[test]
    fn conditioning_respects_external_state() {
        let m = example2();
        let s = Scheduler::new(
            &m,
            SchedulerConfig {
                mem_budget: Some(21 * tuffy_mrf::memory::BYTES_PER_SIZE_UNIT),
                ..config(1_000, 1)
            },
        );
        // The bridge clause ¬a0 ∨ b0 is cut. With its cluster all true the
        // partition of a0 pays for it exactly when the frozen b0 is false;
        // when b0 satisfies it, it drops out for the pass.
        let parts = &s.schedule().parts;
        let pi = parts.label[0] as usize;
        assert_ne!(parts.label[3] as usize, pi, "the bridge must be cut");
        let cost_with_b0 = |b0: bool| {
            let mut global = vec![false; m.num_atoms()];
            for &a in &parts.atoms[pi] {
                global[a as usize] = true;
            }
            global[3] = b0;
            let ws = WalkSat::in_scope(
                &m,
                &parts.atoms[pi],
                &parts.internal_clauses[pi],
                &s.schedule().cut_by_part[pi],
                &global,
                1,
                SearchScratch::default(),
            );
            (ws.cost(), ws.violated_count())
        };
        assert_eq!(cost_with_b0(true), (Cost::ZERO, 0));
        assert_eq!(cost_with_b0(false), (Cost::soft(1.0), 1));
    }

    #[test]
    fn unbudgeted_schedule_degenerates_to_components() {
        let m = example2();
        let s = Scheduler::new(&m, config(8_000, 2));
        assert_eq!(s.schedule().units.len(), 1);
        assert_eq!(s.schedule().bins.len(), 1);
        assert!(s.schedule().parts.cut_clauses.is_empty());
        assert_eq!(s.rounds(), 1);
        let r = s.run(None);
        assert!(r.cost.is_zero());
        assert_eq!(r.rounds_run, 1);
    }

    #[test]
    fn huge_budget_is_bit_identical_to_unbudgeted() {
        let m = example1(12);
        let unbudgeted = Scheduler::new(&m, config(4_000, 7)).run(None);
        let budgeted = Scheduler::new(
            &m,
            SchedulerConfig {
                mem_budget: Some(1 << 30),
                ..config(4_000, 7)
            },
        )
        .run(None);
        assert_eq!(unbudgeted.truth, budgeted.truth);
        assert_eq!(unbudgeted.flips, budgeted.flips);
        assert_eq!(format!("{}", unbudgeted.cost), format!("{}", budgeted.cost));
    }

    #[test]
    fn beats_monolithic_walksat_on_equal_budget() {
        // Theorem 3.1's phenomenon: with the same total flips, the
        // partition-aware schedule reaches the global optimum while the
        // monolithic walk keeps breaking already-optimal components.
        let n = 100u32;
        let m = example1(n);
        let budget = 60 * n as u64;
        let aware = Scheduler::new(&m, config(budget, 17)).run(None).cost;
        let mut mono = WalkSat::new(&m, 17);
        mono.run(
            &WalkSatParams {
                max_flips: budget,
                seed: 17,
                ..Default::default()
            },
            None,
        );
        assert_eq!(aware, Cost::soft(n as f64));
        assert!(
            mono.best_cost().soft > aware.soft,
            "monolithic {} should trail partition-aware {}",
            mono.best_cost(),
            aware
        );
    }

    #[test]
    fn unit_budgets_survive_an_unbounded_flip_limit() {
        // `max_flips × atom_count` in u64 panics under the dev profile's
        // overflow checks and wraps in release — for 2⁶³ × 2 atoms to a
        // budget of one flip. Every component here is satisfiable, so
        // with its real budget each pass stops at its zero-cost world.
        let mut b = MrfBuilder::new();
        for i in 0..8u32 {
            b.add_clause(
                vec![Lit::pos(2 * i), Lit::pos(2 * i + 1)],
                Weight::Soft(1.0),
            );
            b.add_clause(vec![Lit::neg(2 * i)], Weight::Soft(0.5));
        }
        let m = b.finish();
        for max_flips in [u64::MAX, 1 << 63] {
            let s = Scheduler::new(
                &m,
                SchedulerConfig {
                    threads: 2,
                    ..config(max_flips, 3)
                },
            );
            assert_eq!(s.schedule().units.len(), 8);
            let r = s.run(None);
            assert!(r.cost.is_zero(), "max_flips={max_flips}: cost {}", r.cost);
        }
    }

    #[test]
    fn converges_early_when_a_round_changes_nothing() {
        let m = example2();
        let s = Scheduler::new(
            &m,
            SchedulerConfig {
                mem_budget: Some(21 * tuffy_mrf::memory::BYTES_PER_SIZE_UNIT),
                rounds: 50,
                ..config(50_000, 3)
            },
        );
        let r = s.run(None);
        assert!(r.converged, "50 rounds should be more than enough");
        assert!(r.rounds_run < 50, "ran all {} rounds", r.rounds_run);
    }

    #[test]
    fn marginals_factor_over_components() {
        // Unit clause `1.0 x` per component: P(x) = e / (1 + e).
        let mut b = MrfBuilder::new();
        for i in 0..6u32 {
            b.add_clause(vec![Lit::pos(i)], Weight::Soft(1.0));
        }
        let m = b.finish();
        let s = Scheduler::new(
            &m,
            SchedulerConfig {
                threads: 3,
                ..config(1_000, 8)
            },
        );
        let p = s
            .run_marginal(&McSatParams {
                samples: 600,
                burn_in: 40,
                sample_sat_steps: 30,
                seed: 8,
                ..Default::default()
            })
            .unwrap();
        let expected = 1f64.exp() / (1.0 + 1f64.exp());
        for (i, &pi) in p.probs.iter().enumerate() {
            assert!((pi - expected).abs() < 0.1, "atom {i}: {pi:.3}");
        }
        // A positive unit clause is satisfied exactly when its atom is
        // true, so the clause-satisfaction column must match the atom
        // marginal bit for bit.
        assert_eq!(p.clause_sat.len(), m.num_clauses());
        for (ci, &ps) in p.clause_sat.iter().enumerate() {
            assert_eq!(ps, p.probs[ci], "clause {ci}");
        }
        assert!(p.flips > 0, "samplers should report their work");
    }

    #[test]
    fn run_from_all_false_matches_run() {
        let m = example1(8);
        let s = Scheduler::new(&m, config(8 * 200, 12));
        let cold = s.run(None);
        let warm = s.run_from(&vec![false; m.num_atoms()], None);
        assert_eq!(cold.truth, warm.truth);
        assert_eq!(cold.flips, warm.flips);
        assert_eq!(format!("{}", cold.cost), format!("{}", warm.cost));
    }

    #[test]
    fn warm_start_from_optimum_cannot_regress() {
        let m = example1(8);
        let s = Scheduler::new(&m, config(8 * 200, 12));
        let optimum = vec![true; m.num_atoms()];
        let seed_cost = m.cost(&optimum);
        let r = s.run_from(&optimum, None);
        assert!(!seed_cost.better_than(r.cost), "warm start regressed");
    }

    #[test]
    fn marginals_reject_negative_weights() {
        let m = example1(2); // contains a −1 clause
        let s = Scheduler::new(&m, config(100, 1));
        assert!(s.run_marginal(&McSatParams::default()).is_err());
    }

    #[test]
    fn explain_names_every_partition() {
        let m = example2();
        let s = Scheduler::new(
            &m,
            SchedulerConfig {
                mem_budget: Some(21 * tuffy_mrf::memory::BYTES_PER_SIZE_UNIT),
                ..config(1_000, 1)
            },
        );
        let text = s.explain();
        assert!(text.starts_with("Schedule: "));
        for u in &s.schedule().units {
            assert!(text.contains(&format!("P{}", u.part)), "{text}");
        }
        assert!(text.contains("cut: 1 clauses"), "{text}");
    }
}
