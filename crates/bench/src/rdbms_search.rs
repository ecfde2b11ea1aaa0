//! `Tuffy-mm`: WalkSAT executed against the RDBMS (Appendix B.2).
//!
//! The paper's all-RDBMS variant keeps the clause table on disk and only
//! the atom truth values in memory: "Atoms are cached as in-memory arrays,
//! while the per-clause data structures are read-only. Each step of
//! WalkSAT involves a scan over the clauses and many random accesses to
//! the atoms." We reproduce exactly that access pattern: the packed
//! literal table lives in the engine; every step scans it once to find a
//! random violated clause (reservoir sampling), greedy steps scan once
//! more to score the candidate atoms, and every flip rescans it for the
//! cost. The table is modelled as far larger than memory, so every scan
//! reads each of its pages from disk: `⌈rows / PAGE_ROWS⌉` page reads at
//! one page latency each ([`SSD`] or [`SPINNING_DISK`]). That simulated
//! elapsed time is how the 3–5 orders-of-magnitude flipping-rate gap of
//! Table 3 is reproduced deterministically on any hardware (Appendix C.1
//! bounds any disk-backed implementation at ≈100 flips/sec for 10 ms
//! random I/O).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use tuffy_mln::weight::Weight;
use tuffy_mrf::{AtomId, Cost, Lit, Mrf};
use tuffy_rdbms::exec::Batch;
use tuffy_rdbms::query::{ColumnBinding, ConjunctiveQuery, QueryAtom};
use tuffy_rdbms::{
    execute_into, plan_query, Database, OptimizerConfig, QueryPlan, TableSchema, PAGE_ROWS,
};
use tuffy_search::{flip_rate, TimeCostTrace};

/// Latency of one random page read from an SSD.
pub const SSD: Duration = Duration::from_micros(100);

/// Latency of one random page read from a spinning disk, the ~10 ms that
/// Appendix C.1 uses to bound RDBMS-backed search at ≤100 flips/second.
pub const SPINNING_DISK: Duration = Duration::from_millis(10);

/// WalkSAT over an RDBMS-resident clause table.
pub struct RdbmsSearch {
    db: Database,
    /// Simulated latency of one page read.
    page_latency: Duration,
    /// Pages one scan of the clause table reads.
    pages_per_scan: u64,
    /// Pages read by all scans so far.
    pages_read: u64,
    weights: Vec<Weight>,
    /// Physical plan of the clause-table scan (`SELECT cid, lit FROM
    /// clause_lits`), planned once at load time and executed on every
    /// WalkSAT step.
    scan_plan: QueryPlan,
    /// Reused materialization buffer for the per-step scans (the I/O is
    /// re-charged on every scan; only the allocation is reused).
    scan_buf: Batch,
    truth: Vec<bool>,
    best_truth: Vec<bool>,
    best_cost: Cost,
    base_cost: Cost,
    flips: u64,
    rng: StdRng,
}

/// Outcome statistics of an RDBMS-backed run.
#[derive(Clone, Debug)]
pub struct RdbmsSearchResult {
    /// Best assignment found.
    pub truth: Vec<bool>,
    /// Its cost.
    pub cost: Cost,
    /// Flips performed.
    pub flips: u64,
    /// Pure CPU wall time.
    pub wall: Duration,
    /// Simulated I/O time: pages read × page latency.
    pub simulated_io: Duration,
    /// Effective flips/second including simulated I/O — the Table 3 rate.
    pub flips_per_sec: f64,
}

impl RdbmsSearch {
    /// Loads `mrf`'s clause table into a database whose every page read
    /// costs `page_latency`.
    pub fn new(mrf: &Mrf, page_latency: Duration, seed: u64) -> RdbmsSearch {
        let mut db = Database::default();
        let lits_table = db
            .create_table("clause_lits", TableSchema::new(vec!["cid", "lit"]))
            .expect("fresh database");
        let mut weights = Vec::with_capacity(mrf.clauses().len());
        for (ci, c) in mrf.clauses().iter().enumerate() {
            weights.push(c.weight);
            for l in c.lits.iter() {
                db.insert(lits_table, &[ci as u32, l.raw()]).unwrap();
            }
        }
        let scan_query = ConjunctiveQuery {
            atoms: vec![QueryAtom {
                table: lits_table,
                bindings: vec![ColumnBinding::Var(0), ColumnBinding::Var(1)],
            }],
            anti_atoms: vec![],
            neq: vec![],
            neq_const: vec![],
            ranges: vec![],
            output: vec![0, 1],
            distinct: false,
        };
        let scan_plan = plan_query(&db, &scan_query, &OptimizerConfig::default())
            .expect("clause-table scan query is well-formed");
        let truth = vec![false; mrf.num_atoms()];
        let pages_per_scan = db.table(lits_table).len().div_ceil(PAGE_ROWS) as u64;
        let mut s = RdbmsSearch {
            db,
            page_latency,
            pages_per_scan,
            pages_read: 0,
            weights,
            scan_plan,
            scan_buf: Batch::default(),
            best_truth: truth.clone(),
            truth,
            best_cost: Cost::ZERO,
            base_cost: mrf.base_cost,
            flips: 0,
            rng: StdRng::seed_from_u64(seed),
        };
        s.best_cost = s.scan_cost();
        s
    }

    /// Executes the planned clause-table scan into the reused buffer and
    /// hands it out, charging a read of every page of the table. Callers
    /// return the batch with [`RdbmsSearch::return_scan`] so its
    /// allocation is recycled.
    fn take_scan(&mut self) -> Batch {
        let mut buf = std::mem::take(&mut self.scan_buf);
        execute_into(&self.db, &self.scan_plan, &mut buf).expect("clause-table scan executes");
        self.pages_read += self.pages_per_scan;
        buf
    }

    /// Simulated I/O time of the pages read since `pages_read` was
    /// `since`.
    fn simulated_io(&self, since: u64) -> Duration {
        let nanos = u128::from(self.pages_read - since) * self.page_latency.as_nanos();
        Duration::from_nanos(nanos as u64)
    }

    /// Returns a batch obtained from [`RdbmsSearch::take_scan`] for reuse.
    fn return_scan(&mut self, buf: Batch) {
        self.scan_buf = buf;
    }

    /// Current cost by a full clause-table scan.
    fn scan_cost(&mut self) -> Cost {
        let batch = self.take_scan();
        let mut cost = self.base_cost;
        let mut current_cid = u32::MAX;
        let mut any_true = false;
        let flush = |cid: u32, any_true: bool, cost: &mut Cost| {
            if cid != u32::MAX && self.weights[cid as usize].violated_when(any_true) {
                *cost = cost.add(Cost::of_violation(self.weights[cid as usize]));
            }
        };
        for row in batch.iter() {
            let (cid, lit) = (row[0], Lit::from_raw(row[1]));
            if cid != current_cid {
                flush(current_cid, any_true, &mut cost);
                current_cid = cid;
                any_true = false;
            }
            any_true |= lit.eval(self.truth[lit.atom() as usize]);
        }
        flush(current_cid, any_true, &mut cost);
        self.return_scan(batch);
        cost
    }

    /// One WalkSAT step: scan to pick a random violated clause, then flip
    /// a random atom (probability `noise`) or the greedily best atom
    /// (one more scan to score candidates).
    pub fn step(&mut self, noise: f64) -> bool {
        // Scan 1: reservoir-sample a violated clause, collecting its lits.
        let mut chosen: Option<u32> = None;
        let mut chosen_lits: Vec<Lit> = Vec::new();
        let mut violated_seen = 0u32;
        {
            let batch = self.take_scan();
            let mut current = u32::MAX;
            let mut any_true = false;
            let mut lits_buf: Vec<Lit> = Vec::new();
            let mut finish =
                |cid: u32, any_true: bool, lits: &Vec<Lit>, rng: &mut StdRng| -> bool {
                    if cid != u32::MAX && self.weights[cid as usize].violated_when(any_true) {
                        violated_seen += 1;
                        if rng.gen_range(0..violated_seen) == 0 {
                            chosen = Some(cid);
                            chosen_lits = lits.clone();
                        }
                    }
                    false
                };
            for row in batch.iter() {
                let (cid, lit) = (row[0], Lit::from_raw(row[1]));
                if cid != current {
                    finish(current, any_true, &lits_buf, &mut self.rng);
                    current = cid;
                    any_true = false;
                    lits_buf.clear();
                }
                lits_buf.push(lit);
                any_true |= lit.eval(self.truth[lit.atom() as usize]);
            }
            finish(current, any_true, &lits_buf, &mut self.rng);
            self.return_scan(batch);
        }
        let Some(_cid) = chosen else {
            return false; // zero violated clauses: optimum
        };

        let atom = if self.rng.gen::<f64>() <= noise {
            chosen_lits[self.rng.gen_range(0..chosen_lits.len())].atom()
        } else {
            self.greedy_atom(&chosen_lits)
        };
        self.truth[atom as usize] = !self.truth[atom as usize];
        self.flips += 1;
        // Track the best state; cost via scan (already paid by the next
        // step's scan in Tuffy-mm, so we fold it in here explicitly).
        let cost = self.scan_cost();
        if cost.better_than(self.best_cost) {
            self.best_cost = cost;
            self.best_truth.copy_from_slice(&self.truth);
        }
        true
    }

    /// Scan 2: score each candidate atom of the chosen clause by the cost
    /// delta its flip would cause, accumulating over the clause table.
    fn greedy_atom(&mut self, candidates: &[Lit]) -> AtomId {
        let batch = self.take_scan();
        let atoms: Vec<AtomId> = candidates.iter().map(|l| l.atom()).collect();
        let mut delta_hard = vec![0i64; atoms.len()];
        let mut delta_soft = vec![0f64; atoms.len()];
        let mut current = u32::MAX;
        let mut n_true = 0u32;
        let mut touched: Vec<(usize, bool)> = Vec::new(); // (candidate idx, lit was true)
        let flush = |cid: u32,
                     n_true: u32,
                     touched: &Vec<(usize, bool)>,
                     dh: &mut Vec<i64>,
                     ds: &mut Vec<f64>| {
            if cid == u32::MAX || touched.is_empty() {
                return;
            }
            let w = self.weights[cid as usize];
            let before = w.violated_when(n_true > 0);
            for &(ci, was_true) in touched {
                let after_n = if was_true { n_true - 1 } else { n_true + 1 };
                let after = w.violated_when(after_n > 0);
                if before != after {
                    let c = Cost::of_violation(w);
                    let sign = if after { 1.0 } else { -1.0 };
                    dh[ci] += if after {
                        c.hard as i64
                    } else {
                        -(c.hard as i64)
                    };
                    ds[ci] += sign * c.soft;
                }
            }
        };
        for row in batch.iter() {
            let (cid, lit) = (row[0], Lit::from_raw(row[1]));
            if cid != current {
                flush(current, n_true, &touched, &mut delta_hard, &mut delta_soft);
                current = cid;
                n_true = 0;
                touched.clear();
            }
            let is_true = lit.eval(self.truth[lit.atom() as usize]);
            n_true += u32::from(is_true);
            if let Some(pos) = atoms.iter().position(|&a| a == lit.atom()) {
                touched.push((pos, is_true));
            }
        }
        flush(current, n_true, &touched, &mut delta_hard, &mut delta_soft);
        self.return_scan(batch);
        let mut best = 0usize;
        for i in 1..atoms.len() {
            let better = (delta_hard[i], delta_soft[i]) < (delta_hard[best], delta_soft[best]);
            if better {
                best = i;
            }
        }
        atoms[best]
    }

    /// Runs up to `max_flips` steps, recording the best cost over
    /// combined wall + simulated-I/O time. Returns the run statistics.
    pub fn run(
        &mut self,
        max_flips: u64,
        noise: f64,
        mut trace: Option<&mut TimeCostTrace>,
    ) -> RdbmsSearchResult {
        let start = Instant::now();
        let pages_start = self.pages_read;
        for _ in 0..max_flips {
            if !self.step(noise) {
                break;
            }
            if let Some(t) = trace.as_deref_mut() {
                let sim = self.simulated_io(pages_start);
                t.record_at(start.elapsed() + sim, self.flips, self.best_cost);
            }
        }
        let wall = start.elapsed();
        let simulated_io = self.simulated_io(pages_start);
        RdbmsSearchResult {
            truth: self.best_truth.clone(),
            cost: self.best_cost,
            flips: self.flips,
            wall,
            simulated_io,
            flips_per_sec: flip_rate(self.flips, wall + simulated_io),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuffy_mrf::MrfBuilder;

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

    #[test]
    fn finds_same_optimum_as_memory_walksat() {
        let m = example1(2);
        let mut s = RdbmsSearch::new(&m, Duration::ZERO, 7);
        let r = s.run(2000, 0.5, None);
        assert_eq!(r.cost, Cost::soft(2.0)); // both components at optimum
    }

    /// A random step scans the one-page table twice (pick a violated
    /// clause, rescan the cost); a greedy step scans it once more to score
    /// the candidates.
    #[test]
    fn io_charged_per_step() {
        let m = example1(8);
        for (noise, scans) in [(1.0, 2), (0.0, 3)] {
            let mut s = RdbmsSearch::new(&m, SSD, 3);
            assert_eq!(s.pages_per_scan, 1);
            let before = s.pages_read;
            assert!(s.step(noise));
            assert_eq!(s.pages_read - before, scans, "noise {noise}");
            assert_eq!(s.simulated_io(before), scans as u32 * SSD);
        }
    }

    #[test]
    fn simulated_disk_slows_flip_rate() {
        let m = example1(8);
        // SSD latency: the rate should collapse vs free page reads.
        let mut slow = RdbmsSearch::new(&m, SSD, 3);
        let r_slow = slow.run(50, 0.5, None);
        let mut fast = RdbmsSearch::new(&m, Duration::ZERO, 3);
        let r_fast = fast.run(50, 0.5, None);
        assert!(r_slow.simulated_io > Duration::ZERO);
        assert!(r_fast.simulated_io == Duration::ZERO);
        assert!(r_slow.flips_per_sec < r_fast.flips_per_sec);
    }

    #[test]
    fn cost_scan_matches_mrf_cost() {
        let m = example1(5);
        let mut s = RdbmsSearch::new(&m, Duration::ZERO, 1);
        assert_eq!(s.scan_cost(), m.cost(&vec![false; m.num_atoms()]));
    }
}
