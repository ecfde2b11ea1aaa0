//! WalkSAT (Algorithm 1, Appendix A.4) with incremental bookkeeping.
//!
//! Each step samples a random *violated* clause and flips one of its atoms
//! — a random one with probability `noise`, otherwise the atom whose flip
//! decreases the world cost the most. Violation follows §2.2: a
//! positive-weight clause is violated when false, a negative-weight clause
//! when true; hard clauses dominate lexicographically.
//!
//! The implementation keeps per-clause true-literal counts, an O(1)-sample
//! set of violated clauses, and an incrementally maintained cost, so a
//! flip costs time proportional to the flipped atom's occurrence list —
//! the "flipping rate" the paper measures in Table 3.
//!
//! The flip loop is allocation-free and leans directly on the MRF's CSR
//! columns: each [`tuffy_mrf::Occurrence`] entry already carries the
//! flipped atom's sign in its clause (no literal-slice scan to recover
//! polarity), and the violation cost and polarity of every clause are
//! precomputed columns ([`Mrf::violation_cost`],
//! [`Mrf::clause_violated_when`]) rather than per-visit matches on the
//! weight enum.
//!
//! # Scope and scratch
//!
//! A solver searches a *scope* of its MRF: either everything
//! ([`WalkSat::new`], [`WalkSat::with_assignment`]) or one closed part of
//! it ([`WalkSat::in_scope`]) — a set of atoms plus exactly the clauses
//! touching them, which is what a partition with no cut clause is (§3.3).
//! The truth and per-clause columns are indexed by the MRF's *own* atom
//! and clause ids either way, so a scoped pass runs on the shared CSR
//! arenas as they are: nothing is copied, relabelled or hashed. Only
//! start-up, restarts and the best-state copy look at the scope lists;
//! `delta`/`flip`/`step` never leave the scope because it is closed.
//!
//! The columns live in a [`SearchScratch`] that a scoped solver borrows by
//! value and hands back ([`WalkSat::into_scratch`]). A pass initialises
//! the entries of its own scope and reads no others, so one scratch
//! serves any sequence of scopes of one MRF without being cleaned in
//! between.
//!
//! A scoped pass is trajectory-identical to a solver over the scope
//! copied out as an MRF of its own with atoms and clauses relabelled in
//! ascending order (`Scheduler::condition_unit` builds that copy, and
//! the tests use it as the oracle): the relabelling is monotone, so violated-set positions, clause literals
//! and occurrence lists are visited in the same order and the same
//! floats are summed in the same order. The scope's cost excludes the
//! MRF's `base_cost`, as the copy's would.

use crate::timecost::TimeCostTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tuffy_mrf::{AtomId, Cost, Mrf};

/// Parameters of a WalkSAT run (Algorithm 1's `MaxFlips`/`MaxTries`, the
/// random-move probability, and the RNG seed).
#[derive(Clone, Copy, Debug)]
pub struct WalkSatParams {
    /// Flips per try.
    pub max_flips: u64,
    /// Number of random restarts.
    pub max_tries: u32,
    /// Probability of a random (non-greedy) move; the paper uses 0.5.
    pub noise: f64,
    /// RNG seed (runs are deterministic given a seed).
    pub seed: u64,
}

impl Default for WalkSatParams {
    fn default() -> Self {
        WalkSatParams {
            max_flips: 100_000,
            max_tries: 1,
            noise: 0.5,
            seed: 42,
        }
    }
}

/// A signed cost delta, ordered like [`Cost`] (hard first).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Delta {
    hard: i64,
    soft: f64,
}

impl Delta {
    const ZERO: Delta = Delta { hard: 0, soft: 0.0 };

    fn less_than(self, other: Delta) -> bool {
        match self.hard.cmp(&other.hard) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.soft < other.soft,
        }
    }
}

/// Per-clause search state: the true-literal counter and the clause's
/// position in the violated-set member list (`u32::MAX` when not
/// violated), packed side by side so a flip-loop transition — which
/// always touches both — pays one random access instead of two.
#[derive(Clone, Copy, Debug)]
struct ClauseSlot {
    /// True literals under the current assignment.
    num_true: u32,
    /// Index into [`ViolatedSet::members`], or `u32::MAX`.
    pos: u32,
}

impl ClauseSlot {
    const EMPTY: ClauseSlot = ClauseSlot {
        num_true: 0,
        pos: u32::MAX,
    };
}

/// An O(1) insert/remove/sample set of violated-clause indices whose
/// per-clause position lives inside the shared [`ClauseSlot`] column.
#[derive(Clone, Debug, Default)]
struct ViolatedSet {
    members: Vec<u32>,
}

impl ViolatedSet {
    #[inline]
    fn insert(&mut self, slots: &mut [ClauseSlot], x: u32) {
        if slots[x as usize].pos == u32::MAX {
            slots[x as usize].pos = self.members.len() as u32;
            self.members.push(x);
        }
    }

    #[inline]
    fn remove(&mut self, slots: &mut [ClauseSlot], x: u32) {
        let p = slots[x as usize].pos;
        if p == u32::MAX {
            return;
        }
        let last = *self.members.last().unwrap();
        self.members[p as usize] = last;
        slots[last as usize].pos = p;
        self.members.pop();
        slots[x as usize].pos = u32::MAX;
    }

    #[inline]
    fn len(&self) -> usize {
        self.members.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    #[inline]
    fn sample(&self, rng: &mut StdRng) -> u32 {
        self.members[rng.gen_range(0..self.members.len())]
    }
}

/// The part of an MRF a solver searches (see the module docs).
#[derive(Clone, Copy)]
enum Scope<'a> {
    /// Every atom and clause; the cost includes the MRF's `base_cost`.
    All,
    /// The listed atoms and clauses, both ascending and closed under
    /// "clause touches atom".
    Part {
        atoms: &'a [AtomId],
        clauses: &'a [u32],
    },
}

/// The mutable columns of a search — truth value per atom, search state
/// per clause, the violated set and the best state seen — indexed by the
/// MRF's own ids, so one allocation serves any number of scoped passes
/// ([`WalkSat::in_scope`]) over one MRF. Starts empty and is sized by its
/// first use: 8 bytes per clause and 1 per atom of the *whole* MRF.
#[derive(Debug, Default)]
pub struct SearchScratch {
    truth: Vec<bool>,
    slots: Vec<ClauseSlot>,
    violated: ViolatedSet,
    best_truth: Vec<bool>,
}

/// In-memory WalkSAT over one MRF, or over one closed scope of it.
///
/// The mutable per-clause search state (true-literal counter +
/// violated-set position) lives in one dense 8-byte `ClauseSlot`
/// column — the flip loop reads one slot per occurrence, and most
/// visits stop at the counter; the violation cost/polarity columns on
/// the [`Mrf`] are only touched when a clause actually crosses the
/// satisfied boundary.
pub struct WalkSat<'a> {
    mrf: &'a Mrf,
    scope: Scope<'a>,
    truth: Vec<bool>,
    slots: Vec<ClauseSlot>,
    violated: ViolatedSet,
    cost: Cost,
    best_cost: Cost,
    best_truth: Vec<bool>,
    flips: u64,
    rng: StdRng,
}

impl<'a> WalkSat<'a> {
    /// Creates a solver with an all-false initial assignment (the
    /// LazySAT default state; see Appendix A.3).
    pub fn new(mrf: &'a Mrf, seed: u64) -> WalkSat<'a> {
        let truth = vec![false; mrf.num_atoms()];
        Self::with_assignment(mrf, truth, seed)
    }

    /// Runs the full WalkSAT loop warm-started from `init` — the
    /// session API's repeated-inference path, where the previous MAP
    /// state seeds the next search. Equivalent to
    /// [`WalkSat::with_assignment`] followed by [`WalkSat::run`];
    /// warm-starting from all-`false` is exactly a cold
    /// [`WalkSat::new`] run.
    pub fn run_from(
        mrf: &'a Mrf,
        init: Vec<bool>,
        params: &WalkSatParams,
        trace: Option<&mut TimeCostTrace>,
    ) -> WalkSat<'a> {
        let mut ws = WalkSat::with_assignment(mrf, init, params.seed);
        ws.run(params, trace);
        ws
    }

    /// Creates a solver over the whole MRF starting from a given
    /// assignment.
    pub fn with_assignment(mrf: &'a Mrf, truth: Vec<bool>, seed: u64) -> WalkSat<'a> {
        assert_eq!(truth.len(), mrf.num_atoms());
        let scratch = SearchScratch {
            truth,
            slots: vec![ClauseSlot::EMPTY; mrf.num_clauses()],
            ..Default::default()
        };
        Self::start(mrf, Scope::All, scratch, seed)
    }

    /// Creates a solver over one closed scope of `mrf`, starting from
    /// `assignment` (indexed by the MRF's atom ids; only the scope's
    /// entries are read) and keeping its state in `scratch`, which
    /// [`WalkSat::into_scratch`] hands back for the next pass.
    ///
    /// `atoms` and `clauses` must be ascending and closed: every clause
    /// containing a listed atom is listed, and every literal of a listed
    /// clause is on a listed atom — a connected component, or any
    /// partition no cut clause touches. The solver's costs cover the
    /// listed clauses only, and [`WalkSat::best_truth`] is aligned with
    /// `atoms`.
    pub fn in_scope(
        mrf: &'a Mrf,
        atoms: &'a [AtomId],
        clauses: &'a [u32],
        assignment: &[bool],
        seed: u64,
        mut scratch: SearchScratch,
    ) -> WalkSat<'a> {
        assert_eq!(assignment.len(), mrf.num_atoms());
        debug_assert!(scope_is_closed(mrf, atoms, clauses), "scope is not closed");
        scratch.truth.resize(mrf.num_atoms(), false);
        scratch.slots.resize(mrf.num_clauses(), ClauseSlot::EMPTY);
        for &a in atoms {
            scratch.truth[a as usize] = assignment[a as usize];
        }
        Self::start(mrf, Scope::Part { atoms, clauses }, scratch, seed)
    }

    fn start(mrf: &'a Mrf, scope: Scope<'a>, scratch: SearchScratch, seed: u64) -> WalkSat<'a> {
        let SearchScratch {
            truth,
            slots,
            violated,
            best_truth,
        } = scratch;
        let mut ws = WalkSat {
            mrf,
            scope,
            truth,
            slots,
            violated,
            cost: Cost::ZERO,
            best_cost: Cost::ZERO,
            best_truth,
            flips: 0,
            rng: StdRng::seed_from_u64(seed),
        };
        ws.recompute();
        ws.save_best();
        ws
    }

    /// Ends the search, releasing the columns for the next scoped pass.
    pub fn into_scratch(self) -> SearchScratch {
        SearchScratch {
            truth: self.truth,
            slots: self.slots,
            violated: self.violated,
            best_truth: self.best_truth,
        }
    }

    /// Rebuilds the scope's counters, violated set and cost from the
    /// current assignment. Every slot of the scope is overwritten, so
    /// whatever an earlier pass (a previous try, or another scope
    /// sharing the scratch) left behind does not matter.
    fn recompute(&mut self) {
        self.violated.members.clear();
        match self.scope {
            Scope::All => {
                self.cost = self.mrf.base_cost;
                for ci in 0..self.mrf.num_clauses() {
                    self.count_clause(ci);
                }
            }
            Scope::Part { clauses, .. } => {
                self.cost = Cost::ZERO;
                for &ci in clauses {
                    self.count_clause(ci as usize);
                }
            }
        }
    }

    #[inline]
    fn count_clause(&mut self, ci: usize) {
        let nt = self.mrf.clause(ci).true_count(&self.truth) as u32;
        self.slots[ci] = ClauseSlot {
            num_true: nt,
            pos: u32::MAX,
        };
        if self.mrf.clause_violated_when(ci, nt > 0) {
            self.violated.insert(&mut self.slots, ci as u32);
            self.cost = self.cost.add(self.mrf.violation_cost(ci));
        }
    }

    /// Records the current state as the best seen. The copy reuses
    /// `best_truth`'s allocation; a scoped solver gathers its own atoms
    /// only.
    fn save_best(&mut self) {
        self.best_cost = self.cost;
        match self.scope {
            Scope::All => self.best_truth.clone_from(&self.truth),
            Scope::Part { atoms, .. } => {
                self.best_truth.clear();
                self.best_truth
                    .extend(atoms.iter().map(|&a| self.truth[a as usize]));
            }
        }
    }

    /// Randomizes the scope's assignment (a WalkSAT "try").
    pub fn randomize(&mut self) {
        match self.scope {
            Scope::All => {
                for t in &mut self.truth {
                    *t = self.rng.gen();
                }
            }
            Scope::Part { atoms, .. } => {
                for &a in atoms {
                    self.truth[a as usize] = self.rng.gen();
                }
            }
        }
        self.recompute();
        if self.cost.better_than(self.best_cost) {
            self.save_best();
        }
    }

    /// Current cost.
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// Best cost seen so far.
    pub fn best_cost(&self) -> Cost {
        self.best_cost
    }

    /// Best assignment seen so far: one entry per atom of the scope, in
    /// the scope's order (so the whole assignment for an unscoped solver).
    pub fn best_truth(&self) -> &[bool] {
        &self.best_truth
    }

    /// Current assignment, indexed by the MRF's atom ids. Entries outside
    /// a scoped solver's scope are whatever the scratch held.
    pub fn truth(&self) -> &[bool] {
        &self.truth
    }

    /// Flips performed so far.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Number of currently violated clauses.
    pub fn violated_count(&self) -> usize {
        self.violated.len()
    }

    /// The cost change that flipping `atom` would cause, as a
    /// `(hard, soft)` pair (used by SampleSAT's annealing moves).
    pub fn flip_delta(&self, atom: AtomId) -> (i64, f64) {
        let d = self.delta(atom);
        (d.hard, d.soft)
    }

    /// The cost change that flipping `atom` would cause.
    ///
    /// Each occurrence entry carries the literal's sign, and the
    /// violation polarity and cost are precomputed columns, so the scan
    /// is one counter load + two bit tests per clause — no literal list,
    /// no weight enum.
    fn delta(&self, atom: AtomId) -> Delta {
        let mut d = Delta::ZERO;
        let value = self.truth[atom as usize];
        for &occ in self.mrf.occurrences(atom) {
            let ci = occ.clause() as usize;
            let was_true = value == occ.is_positive();
            let nt = self.slots[ci].num_true;
            let nt_after = if was_true { nt - 1 } else { nt + 1 };
            // Branchless accumulation: whether the clause crosses the
            // satisfied boundary (and in which violation direction) folds
            // into a {-1, 0, +1} factor instead of a data-dependent
            // branch — the crossing pattern is effectively random, and a
            // mispredict costs more than the two spare L1 column loads.
            // The `×0` multiply on the soft term is NaN-safe because the
            // violation column is finite by construction
            // (`MrfBuilder::finish` normalizes non-finite soft weights
            // to hard).
            let crossed = (nt > 0) != (nt_after > 0);
            let became_violated = self.mrf.clause_violated_when(ci, nt_after > 0);
            let sign = i64::from(crossed) * if became_violated { 1 } else { -1 };
            let w = self.mrf.violation_cost(ci);
            d.hard += sign * w.hard as i64;
            d.soft += sign as f64 * w.soft;
        }
        d
    }

    /// Flips `atom`, updating all bookkeeping.
    pub fn flip(&mut self, atom: AtomId) {
        let new_value = !self.truth[atom as usize];
        self.truth[atom as usize] = new_value;
        self.flips += 1;
        for &occ in self.mrf.occurrences(atom) {
            let ci = occ.clause() as usize;
            let now_true = new_value == occ.is_positive();
            let nt = self.slots[ci].num_true;
            let nt_after = if now_true { nt + 1 } else { nt - 1 };
            self.slots[ci].num_true = nt_after;
            if (nt > 0) == (nt_after > 0) {
                continue; // satisfaction unchanged ⇒ violation unchanged
            }
            let w = self.mrf.violation_cost(ci);
            if self.mrf.clause_violated_when(ci, nt_after > 0) {
                self.cost = self.cost.add(w);
                self.violated.insert(&mut self.slots, ci as u32);
            } else {
                self.cost.hard -= w.hard;
                self.cost.soft -= w.soft;
                self.violated.remove(&mut self.slots, ci as u32);
            }
        }
        if self.cost.better_than(self.best_cost) {
            self.save_best();
        }
    }

    /// One WalkSAT step (Algorithm 1, lines 5–10). Returns `false` when no
    /// clause is violated (a zero-cost optimum — nothing left to do).
    pub fn step(&mut self, noise: f64) -> bool {
        if self.violated.is_empty() {
            return false;
        }
        let ci = self.violated.sample(&mut self.rng);
        let lits = self.mrf.clause_lits(ci as usize);
        let atom = if self.rng.gen::<f64>() <= noise {
            lits[self.rng.gen_range(0..lits.len())].atom()
        } else if lits.len() == 1 {
            // A unit clause has no alternatives to score; skipping the
            // delta scan consumes no randomness, so trajectories are
            // unchanged.
            lits[0].atom()
        } else {
            // Greedy: the atom whose flip decreases cost the most.
            let mut best_atom = lits[0].atom();
            let mut best_delta = self.delta(best_atom);
            for l in &lits[1..] {
                let d = self.delta(l.atom());
                if d.less_than(best_delta) {
                    best_delta = d;
                    best_atom = l.atom();
                }
            }
            best_atom
        };
        self.flip(atom);
        true
    }

    /// Runs the full WalkSAT loop, recording the best-cost curve in
    /// `trace` (if provided) every improvement and every 4096 flips.
    pub fn run(&mut self, params: &WalkSatParams, mut trace: Option<&mut TimeCostTrace>) {
        for try_idx in 0..params.max_tries.max(1) {
            if try_idx > 0 {
                self.randomize();
            }
            if let Some(t) = trace.as_mut() {
                t.record(self.flips, self.best_cost);
            }
            let mut last_best = self.best_cost;
            for i in 0..params.max_flips {
                if !self.step(params.noise) {
                    break; // zero-cost world found
                }
                if let Some(t) = trace.as_mut() {
                    if self.best_cost.better_than(last_best) || i % 4096 == 4095 {
                        t.record(self.flips, self.best_cost);
                        last_best = self.best_cost;
                    }
                }
            }
            if self.best_cost.is_zero() {
                break;
            }
        }
        if let Some(t) = trace.as_mut() {
            t.record(self.flips, self.best_cost);
        }
    }
}

/// Whether `atoms` and `clauses` (both ascending) are closed under
/// "clause touches atom" — the precondition of [`WalkSat::in_scope`].
fn scope_is_closed(mrf: &Mrf, atoms: &[AtomId], clauses: &[u32]) -> bool {
    if !atoms.windows(2).all(|w| w[0] < w[1]) || !clauses.windows(2).all(|w| w[0] < w[1]) {
        return false;
    }
    let occurrences: usize = atoms.iter().map(|&a| mrf.occurrences(a).len()).sum();
    let mut literals = 0;
    for &ci in clauses {
        let lits = mrf.clause_lits(ci as usize);
        if !lits.iter().all(|l| atoms.binary_search(&l.atom()).is_ok()) {
            return false;
        }
        literals += lits.len();
    }
    // Every literal of a listed clause is an occurrence of a listed atom;
    // equal counts mean no listed atom occurs anywhere else.
    occurrences == literals
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuffy_mln::weight::Weight;
    use tuffy_mrf::{Lit, MrfBuilder};

    /// Example 1 of the paper with N components.
    pub(crate) fn example1(n: u32) -> Mrf {
        let mut b = MrfBuilder::new();
        for i in 0..n {
            let (x, y) = (2 * i, 2 * i + 1);
            b.add_clause(vec![Lit::pos(x)], Weight::Soft(1.0));
            b.add_clause(vec![Lit::pos(y)], Weight::Soft(1.0));
            b.add_clause(vec![Lit::pos(x), Lit::pos(y)], Weight::Soft(-1.0));
        }
        b.finish()
    }

    #[test]
    fn finds_optimum_of_example1_single_component() {
        let m = example1(1);
        let mut ws = WalkSat::new(&m, 7);
        ws.run(
            &WalkSatParams {
                max_flips: 1000,
                ..Default::default()
            },
            None,
        );
        // Optimum is X=Y=true with cost 1 (the negative clause violated).
        assert_eq!(ws.best_cost(), Cost::soft(1.0));
        assert_eq!(ws.best_truth(), &[true, true]);
    }

    #[test]
    fn incremental_cost_matches_full_recompute() {
        let m = example1(5);
        let mut ws = WalkSat::new(&m, 11);
        for _ in 0..500 {
            ws.step(0.5);
            let full = m.cost(ws.truth());
            assert_eq!(ws.cost(), full, "incremental cost drifted");
        }
    }

    #[test]
    fn hard_clauses_dominate() {
        // Hard: a must be true. Soft weight 100: a false.
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0)], Weight::Hard);
        b.add_clause(vec![Lit::neg(0)], Weight::Soft(100.0));
        let m = b.finish();
        let mut ws = WalkSat::new(&m, 3);
        ws.run(
            &WalkSatParams {
                max_flips: 200,
                ..Default::default()
            },
            None,
        );
        assert_eq!(ws.best_cost().hard, 0);
        assert!(ws.best_truth()[0]);
    }

    #[test]
    fn stops_at_zero_cost() {
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0), Lit::pos(1)], Weight::Soft(1.0));
        let m = b.finish();
        let mut ws = WalkSat::new(&m, 5);
        ws.run(
            &WalkSatParams {
                max_flips: 10_000,
                ..Default::default()
            },
            None,
        );
        assert!(ws.best_cost().is_zero());
        assert!(
            ws.flips() < 10_000,
            "should stop early at a zero-cost world"
        );
    }

    #[test]
    fn negative_weight_clause_avoided() {
        // Single clause (a ∨ b) with weight -2: optimum sets both false.
        let mut b = MrfBuilder::new();
        b.add_clause(vec![Lit::pos(0), Lit::pos(1)], Weight::Soft(-2.0));
        let m = b.finish();
        let mut ws = WalkSat::with_assignment(&m, vec![true, true], 9);
        ws.run(
            &WalkSatParams {
                max_flips: 1000,
                ..Default::default()
            },
            None,
        );
        assert!(ws.best_cost().is_zero());
        assert_eq!(ws.best_truth(), &[false, false]);
    }

    #[test]
    fn trace_records_improvements() {
        let m = example1(3);
        let mut ws = WalkSat::new(&m, 1);
        let mut trace = TimeCostTrace::new();
        ws.run(
            &WalkSatParams {
                max_flips: 2000,
                ..Default::default()
            },
            Some(&mut trace),
        );
        assert!(!trace.points().is_empty());
        // The recorded best-cost curve is monotonically non-increasing.
        for w in trace.points().windows(2) {
            assert!(
                w[1].cost.cmp_total(w[0].cost).is_le(),
                "best-cost curve increased: {} -> {}",
                w[0].cost,
                w[1].cost
            );
        }
    }

    #[test]
    fn run_from_all_false_matches_cold_run() {
        let m = example1(4);
        let params = WalkSatParams {
            max_flips: 500,
            ..Default::default()
        };
        let mut cold = WalkSat::new(&m, params.seed);
        cold.run(&params, None);
        let warm = WalkSat::run_from(&m, vec![false; m.num_atoms()], &params, None);
        assert_eq!(cold.best_truth(), warm.best_truth());
        assert_eq!(cold.flips(), warm.flips());
        assert_eq!(cold.best_cost(), warm.best_cost());
    }

    #[test]
    fn run_from_optimum_stays_at_optimum() {
        // Warm-starting from the known optimum of example1 means no
        // violated positive clause remains except the −1 bridges; the
        // best cost can only stay equal-or-better than the seed state.
        let m = example1(3);
        let optimum = vec![true; m.num_atoms()];
        let seed_cost = m.cost(&optimum);
        let ws = WalkSat::run_from(
            &m,
            optimum,
            &WalkSatParams {
                max_flips: 2_000,
                ..Default::default()
            },
            None,
        );
        assert!(!seed_cost.better_than(ws.best_cost()));
    }

    #[test]
    fn deterministic_given_seed() {
        let m = example1(4);
        let run = |seed| {
            let mut ws = WalkSat::new(&m, seed);
            ws.run(
                &WalkSatParams {
                    max_flips: 300,
                    max_tries: 2,
                    ..Default::default()
                },
                None,
            );
            (ws.best_cost(), ws.best_truth().to_vec(), ws.flips())
        };
        assert_eq!(run(123), run(123));
    }
}
