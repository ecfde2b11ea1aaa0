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
//! It loads only what decides a flip. Per occurrence, both `flip` and
//! `delta` read one `u32` from a dense counter column. They read the
//! clause's violation record and its violated-set position only when the
//! counter says the clause crosses the satisfied boundary, which most
//! visits do not. On a bed whose columns outgrow the cache (ER's 913 k
//! clauses), those skipped loads are the flip rate.
//!
//! # Scope and scratch
//!
//! A solver never searches a copy. It searches a *scope* of its MRF:
//! everything ([`WalkSat::new`], [`WalkSat::with_assignment`]) or one
//! partition ([`WalkSat::in_scope`]) — its atoms, the clauses inside it
//! and the cut clauses crossing its edge. The truth and per-clause
//! columns are indexed by the MRF's *own* atom and clause ids, so a scoped
//! pass runs on the shared CSR arenas as they are: nothing is copied,
//! relabelled or hashed.
//!
//! - A *closed* scope has no cut clause: a connected component, or an
//!   Algorithm-3 partition no cut touches (§3.3). `delta`/`flip`/`step`
//!   never leave it.
//! - A scope with cut clauses has a *frozen boundary*, which is §3.4's
//!   Gauss-Seidel conditioning. The outside atoms its cut clauses mention
//!   are copied into the scratch from the assignment and never flipped.
//!   Counters run over that global truth, so an externally false literal
//!   never counts, exactly as if conditioning had dropped it. A cut clause
//!   that an external literal satisfies is *masked* (below), so it is
//!   never counted, violated or picked. `step` picks only among a clause's
//!   in-scope literals.
//! - A *masked hard pass* is MC-SAT's SampleSAT ([`crate::mcsat`]): it
//!   looks for an assignment of the scope satisfying a selected list of
//!   its clauses. Every other clause of the scope is masked: its counter
//!   is offset far above any clause length, so no flip takes it across the
//!   satisfied boundary. Every selected clause costs one hard unit while
//!   unsatisfied, whatever its weight, and the cost starts at zero.
//!
//! The columns live in a [`SearchScratch`] that a scoped solver borrows by
//! value and hands back ([`WalkSat::into_scratch`]). A pass initialises
//! the entries of its own scope and boundary and reads no others, so one
//! scratch serves any sequence of scopes of one MRF without being cleaned
//! in between.
//!
//! A pass over a closed scope is trajectory-identical to a solver over
//! the scope copied out as an MRF of its own, atoms and clauses relabelled
//! in ascending order: the relabelling is monotone, so violated-set
//! positions, clause literals and occurrence lists are visited in the same
//! order and the same floats are summed in the same order. A masked hard
//! pass is likewise identical to a solver over a fresh all-hard MRF of
//! the selected clauses: they keep ascending order, masked clauses never
//! enter the violated set, and hard deltas are integer sums.
//! `tests/partition_equivalence.rs` keeps both copies as oracles. A
//! scoped solver's cost excludes the MRF's `base_cost`, as a copy's would.
//! Only a frozen boundary differs from its copy, which put cut clauses
//! after inside ones and merged those that coincide once conditioned.

use crate::timecost::TimeCostTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tuffy_mrf::{AtomId, Cost, Lit, Mrf};

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

/// The true-literal counter of a masked clause (see the module docs):
/// flips move it by one per literal, so it never comes near zero and the
/// clause never crosses the satisfied boundary.
const MASKED: u32 = 1 << 31;

/// An O(1) insert/remove/sample set of violated-clause indices. It owns
/// the per-clause position column (`u32::MAX` when not a member), which
/// only a crossing touches.
#[derive(Clone, Debug, Default)]
struct ViolatedSet {
    members: Vec<u32>,
    /// Index into `members` per clause of the MRF, or `u32::MAX`.
    pos: Vec<u32>,
}

impl ViolatedSet {
    /// Empties the set and sizes the position column for `clauses`
    /// clauses. Only the members' positions are reset: every other entry
    /// is already `u32::MAX`.
    fn reset(&mut self, clauses: usize) {
        for &x in &self.members {
            self.pos[x as usize] = u32::MAX;
        }
        self.members.clear();
        self.pos.resize(clauses, u32::MAX);
    }

    #[inline]
    fn insert(&mut self, x: u32) {
        if self.pos[x as usize] == u32::MAX {
            self.pos[x as usize] = self.members.len() as u32;
            self.members.push(x);
        }
    }

    #[inline]
    fn remove(&mut self, x: u32) {
        let p = self.pos[x as usize];
        if p == u32::MAX {
            return;
        }
        let last = *self.members.last().unwrap();
        self.members[p as usize] = last;
        self.pos[last as usize] = p;
        self.members.pop();
        self.pos[x as usize] = u32::MAX;
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

/// The part of an MRF a solver or sampler searches (see the module docs).
#[derive(Clone, Copy)]
pub(crate) enum Scope<'a> {
    /// Every atom and clause.
    All,
    /// A partition: its atoms, the clauses inside it, and the cut clauses
    /// crossing its edge (none for a closed scope), each list ascending.
    Part {
        atoms: &'a [AtomId],
        inside: &'a [u32],
        cut: &'a [u32],
    },
}

impl<'a> Scope<'a> {
    /// The atoms searched, in order.
    pub(crate) fn atoms(self, mrf: &Mrf) -> impl Iterator<Item = AtomId> + 'a {
        let (all, atoms): (usize, &'a [AtomId]) = match self {
            Scope::All => (mrf.num_atoms(), &[]),
            Scope::Part { atoms, .. } => (0, atoms),
        };
        (0..all as AtomId).chain(atoms.iter().copied())
    }

    /// The `i`-th atom searched.
    #[inline]
    pub(crate) fn atom(self, i: usize) -> AtomId {
        match self {
            Scope::All => i as AtomId,
            Scope::Part { atoms, .. } => atoms[i],
        }
    }

    /// The scope's clauses: the inside ones, then the cut ones.
    pub(crate) fn clauses(self, mrf: &Mrf) -> impl Iterator<Item = usize> + 'a {
        let (inside, cut) = self.split(mrf);
        inside.chain(cut.iter().map(|&ci| ci as usize))
    }

    /// The scope's inside clauses (every clause for [`Scope::All`]) and
    /// its cut clauses.
    fn split(self, mrf: &Mrf) -> (impl Iterator<Item = usize> + 'a, &'a [u32]) {
        let (all, inside, cut): (usize, &'a [u32], &'a [u32]) = match self {
            Scope::All => (mrf.num_clauses(), &[], &[]),
            Scope::Part { inside, cut, .. } => (0, inside, cut),
        };
        ((0..all).chain(inside.iter().map(|&ci| ci as usize)), cut)
    }

    /// Whether `atom`, a literal's atom of one of the scope's clauses, is
    /// searched rather than frozen.
    #[inline]
    fn holds(self, atom: AtomId) -> bool {
        match self {
            Scope::Part { atoms, cut, .. } if !cut.is_empty() => atoms.binary_search(&atom).is_ok(),
            _ => true,
        }
    }

    /// Whether a frozen literal satisfies clause `ci` under `truth`.
    #[inline]
    pub(crate) fn frozen_true(self, mrf: &Mrf, truth: &[bool], ci: usize) -> bool {
        matches!(self, Scope::Part { cut, .. } if !cut.is_empty())
            && mrf
                .clause_lits(ci)
                .iter()
                .any(|l| l.eval(truth[l.atom() as usize]) && !self.holds(l.atom()))
    }

    /// Copies the truth of the scope's atoms and of its frozen boundary —
    /// every atom of a cut clause — from `assignment` into `truth`.
    pub(crate) fn load(self, mrf: &Mrf, truth: &mut [bool], assignment: &[bool]) {
        let (_, cut) = self.split(mrf);
        let boundary = cut.iter().flat_map(|&ci| mrf.clause_lits(ci as usize));
        for a in self.atoms(mrf).chain(boundary.map(|l| l.atom())) {
            truth[a as usize] = assignment[a as usize];
        }
    }
}

/// The mutable columns of a search — truth value per atom, true-literal
/// counter per clause, the violated set and the best state seen — indexed
/// by the MRF's own ids, so one allocation serves any number of scoped
/// passes ([`WalkSat::in_scope`], and MC-SAT's samples) over one MRF.
/// Starts empty and is sized by its first use: 8 bytes per clause (the
/// counter and the violated-set position) and 2 per atom (the truth and
/// the best truth) of the *whole* MRF.
#[derive(Debug, Default)]
pub struct SearchScratch {
    pub(crate) truth: Vec<bool>,
    num_true: Vec<u32>,
    violated: ViolatedSet,
    best_truth: Vec<bool>,
}

/// In-memory WalkSAT over one MRF, or over one scope of it.
///
/// The flip loop reads one dense `u32` true-literal counter per
/// occurrence, and most visits stop there: the violated-set position
/// column and the violation cost/polarity column on the [`Mrf`] are only
/// touched when a clause crosses the satisfied boundary.
pub struct WalkSat<'a> {
    mrf: &'a Mrf,
    scope: Scope<'a>,
    /// A masked hard pass's selected clauses; `None` for a plain search.
    selected: Option<&'a [u32]>,
    truth: Vec<bool>,
    /// True literals per clause under the current assignment;
    /// [`MASKED`] and above for a masked clause.
    num_true: Vec<u32>,
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
            ..Default::default()
        };
        Self::start(mrf, Scope::All, None, scratch, seed)
    }

    /// Creates a solver over one partition of `mrf`, starting from
    /// `assignment` (indexed by the MRF's atom ids; only the entries of
    /// the partition and its boundary are read) and keeping its state in
    /// `scratch`, which [`WalkSat::into_scratch`] hands back for the next
    /// pass.
    ///
    /// The partition is its `atoms`, the clauses `inside` it and the `cut`
    /// clauses crossing its edge, each list ascending: every literal of an
    /// inside clause is on a listed atom, and every clause containing a
    /// listed atom is listed, inside or cut. With no cut
    /// clause the scope is closed; otherwise the atoms outside it stay
    /// frozen at `assignment` (see the module docs). The solver's costs
    /// cover the scope's clauses only, and [`WalkSat::best_truth`] is
    /// aligned with `atoms`.
    pub fn in_scope(
        mrf: &'a Mrf,
        atoms: &'a [AtomId],
        inside: &'a [u32],
        cut: &'a [u32],
        assignment: &[bool],
        seed: u64,
        mut scratch: SearchScratch,
    ) -> WalkSat<'a> {
        assert_eq!(assignment.len(), mrf.num_atoms());
        debug_assert!(scope_is_sound(mrf, atoms, inside, cut), "not a partition");
        let scope = Scope::Part { atoms, inside, cut };
        scratch.truth.resize(mrf.num_atoms(), false);
        scope.load(mrf, &mut scratch.truth, assignment);
        Self::start(mrf, scope, None, scratch, seed)
    }

    /// Starts a search of `scope` from the truth already in `scratch`: a
    /// plain one, or with `selected` a masked hard pass.
    pub(crate) fn start(
        mrf: &'a Mrf,
        scope: Scope<'a>,
        selected: Option<&'a [u32]>,
        scratch: SearchScratch,
        seed: u64,
    ) -> WalkSat<'a> {
        let mut ws = WalkSat {
            mrf,
            scope,
            selected,
            truth: scratch.truth,
            num_true: scratch.num_true,
            violated: scratch.violated,
            cost: Cost::ZERO,
            best_cost: Cost::ZERO,
            best_truth: scratch.best_truth,
            flips: 0,
            rng: StdRng::seed_from_u64(seed),
        };
        ws.truth.resize(mrf.num_atoms(), false);
        ws.num_true.resize(mrf.num_clauses(), 0);
        ws.recompute();
        ws.save_best();
        ws
    }

    /// Ends the search, releasing the columns for the next scoped pass.
    pub fn into_scratch(self) -> SearchScratch {
        SearchScratch {
            truth: self.truth,
            num_true: self.num_true,
            violated: self.violated,
            best_truth: self.best_truth,
        }
    }

    /// Rebuilds the scope's counters, violated set and cost from the
    /// current assignment. Every counter of the scope is overwritten and
    /// the violated set is emptied, so whatever an earlier pass (a
    /// previous try, or another scope sharing the scratch) left behind
    /// does not matter.
    fn recompute(&mut self) {
        self.violated.reset(self.mrf.num_clauses());
        let (mrf, scope) = (self.mrf, self.scope);
        self.cost = match (scope, self.selected) {
            (Scope::All, None) => mrf.base_cost,
            _ => Cost::ZERO,
        };
        match self.selected {
            None => {
                let (inside, cut) = scope.split(mrf);
                inside.for_each(|ci| self.count_clause(ci));
                for &ci in cut {
                    if scope.frozen_true(mrf, &self.truth, ci as usize) {
                        self.num_true[ci as usize] = MASKED;
                    } else {
                        self.count_clause(ci as usize);
                    }
                }
            }
            Some(selected) => {
                scope.clauses(mrf).for_each(|ci| self.num_true[ci] = MASKED);
                for &ci in selected {
                    self.count_clause(ci as usize);
                }
            }
        }
    }

    #[inline]
    fn count_clause(&mut self, ci: usize) {
        let nt = self.mrf.clause(ci).true_count(&self.truth) as u32;
        self.num_true[ci] = nt;
        let (violated, w) = self.violation(ci, nt > 0);
        if violated {
            self.violated.insert(ci as u32);
            self.cost = self.cost.add(w);
        }
    }

    /// Whether clause `ci` counts as violated when its satisfaction state
    /// is `satisfied`, and what that costs: the MRF's precomputed columns,
    /// or in a masked hard pass one hard unit whenever it is unsatisfied.
    #[inline]
    fn violation(&self, ci: usize, satisfied: bool) -> (bool, Cost) {
        if self.selected.is_some() {
            (!satisfied, Cost { hard: 1, soft: 0.0 })
        } else {
            (
                self.mrf.clause_violated_when(ci, satisfied),
                self.mrf.violation_cost(ci),
            )
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
        for a in self.scope.atoms(self.mrf) {
            self.truth[a as usize] = self.rng.gen();
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

    /// Current assignment, indexed by the MRF's atom ids. Outside a
    /// scoped solver's scope, the frozen boundary holds the assignment it
    /// started from and every other entry is whatever the scratch held.
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
    /// Each occurrence entry carries the literal's sign, so the scan
    /// reads one counter per clause and stops there unless the flip
    /// carries the clause across the satisfied boundary. Only then does
    /// it read the clause's 16-byte violation record, as [`Self::flip`]
    /// does. Most scanned clauses do not cross, so a branch-free scan
    /// that loads every record and multiplies the non-crossing terms by
    /// zero wastes most of its loads. Where the columns do not fit in
    /// cache that is the flip rate: on ER's 913 k clauses (the repo
    /// benchmark's `cold_er`, a 2-vCPU Xeon with 2 MB of L2), skipping
    /// them, together with the dense counter column, took a million
    /// flips from 1.7–2.4 s to 0.9–1.3 s. In cache (IE) the two scans run
    /// at the same rate. Skipping keeps every sum's bits: a
    /// non-crossing term adds exactly `+0.0` to a sum that starts at
    /// `+0.0` and never becomes `−0.0`.
    fn delta(&self, atom: AtomId) -> Delta {
        let mut d = Delta::ZERO;
        let value = self.truth[atom as usize];
        for &occ in self.mrf.occurrences(atom) {
            let ci = occ.clause() as usize;
            let was_true = value == occ.is_positive();
            // The clause crosses when its last true literal turns false
            // (1 → 0) or its first one turns true (0 → 1); a masked
            // counter is neither.
            if self.num_true[ci] != u32::from(was_true) {
                continue;
            }
            // Which way a crossing clause goes is as random as whether
            // it crosses: a ±1 factor, not a second branch.
            let (became_violated, w) = self.violation(ci, !was_true);
            let sign = if became_violated { 1 } else { -1 };
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
            let nt = self.num_true[ci];
            let nt_after = if now_true { nt + 1 } else { nt - 1 };
            self.num_true[ci] = nt_after;
            if (nt > 0) == (nt_after > 0) {
                continue; // satisfaction unchanged ⇒ violation unchanged
            }
            let (violated, w) = self.violation(ci, nt_after > 0);
            if violated {
                self.cost = self.cost.add(w);
                self.violated.insert(ci as u32);
            } else {
                self.cost.hard -= w.hard;
                self.cost.soft -= w.soft;
                self.violated.remove(ci as u32);
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
        // The candidates are the clause's searched atoms: all of them,
        // except that a cut clause's frozen literals are not the pass's
        // to flip.
        let scope = self.scope;
        let mut candidates = self
            .mrf
            .clause_lits(ci as usize)
            .iter()
            .map(|l| l.atom())
            .filter(move |&a| scope.holds(a));
        let atom = if self.rng.gen::<f64>() <= noise {
            let k = candidates.clone().count();
            candidates.nth(self.rng.gen_range(0..k))
        } else {
            // Greedy: the atom whose flip decreases cost the most. A lone
            // candidate (a unit clause) has no alternative to score;
            // skipping its delta scan consumes no randomness, so
            // trajectories are unchanged.
            let mut best_atom = candidates.next();
            if let (Some(first), Some(second)) = (best_atom, candidates.next()) {
                let mut best_delta = self.delta(first);
                for a in std::iter::once(second).chain(candidates) {
                    let d = self.delta(a);
                    if d.less_than(best_delta) {
                        best_delta = d;
                        best_atom = Some(a);
                    }
                }
            }
            best_atom
        };
        self.flip(atom.expect("a violated clause has a searched literal"));
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

/// Whether `atoms`, `inside` and `cut` make a partition scope — the
/// precondition of [`WalkSat::in_scope`].
fn scope_is_sound(mrf: &Mrf, atoms: &[AtomId], inside: &[u32], cut: &[u32]) -> bool {
    let ascending = |s: &[u32]| s.windows(2).all(|w| w[0] < w[1]);
    fn lits<'m>(mrf: &'m Mrf, list: &'m [u32]) -> impl Iterator<Item = &'m Lit> + 'm {
        list.iter().flat_map(|&ci| mrf.clause_lits(ci as usize))
    }
    let listed = |l: &&Lit| atoms.binary_search(&l.atom()).is_ok();
    let occurrences: usize = atoms.iter().map(|&a| mrf.occurrences(a).len()).sum();
    // Every counted literal is an occurrence of a listed atom; equal
    // counts mean no listed atom occurs in an unlisted clause.
    ascending(atoms)
        && ascending(inside)
        && ascending(cut)
        && lits(mrf, inside).all(|l| listed(&l))
        && occurrences == lits(mrf, inside).count() + lits(mrf, cut).filter(listed).count()
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
