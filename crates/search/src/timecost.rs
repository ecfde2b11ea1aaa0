//! Time-cost traces — the raw data behind Figures 3–6 and 8.
//!
//! A trace belongs to one search run, not to a partition pass: the
//! scheduler folds its passes' best-cost points into the run's trace
//! when their bin merges ([`TimeCostTrace::record_all`]), so the clock is
//! read once per merge, not once per point or per pass.

use std::time::{Duration, Instant};
use tuffy_mrf::Cost;

/// Flips per second over `elapsed`; infinite when no time elapsed.
pub fn flip_rate(flips: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        flips as f64 / secs
    } else {
        f64::INFINITY
    }
}

/// One sample of a best-so-far cost curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TracePoint {
    /// Wall time since the trace started.
    pub elapsed: Duration,
    /// Flips performed so far.
    pub flips: u64,
    /// Best cost found so far.
    pub cost: Cost,
}

/// Records the best-so-far cost over time during a search.
#[derive(Clone, Debug)]
pub struct TimeCostTrace {
    start: Instant,
    /// Extra time to attribute to work done before the trace started
    /// (e.g. grounding, so plots share the paper's time axis).
    pub offset: Duration,
    points: Vec<TracePoint>,
}

impl Default for TimeCostTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeCostTrace {
    /// Starts a new trace at the current instant.
    pub fn new() -> Self {
        TimeCostTrace {
            start: Instant::now(),
            offset: Duration::ZERO,
            points: Vec::new(),
        }
    }

    /// Starts a trace whose time axis begins `offset` in the past
    /// (typically the grounding time, as in Figure 3).
    pub fn with_offset(offset: Duration) -> Self {
        TimeCostTrace {
            start: Instant::now(),
            offset,
            points: Vec::new(),
        }
    }

    /// Records a sample.
    pub fn record(&mut self, flips: u64, cost: Cost) {
        self.points.push(TracePoint {
            elapsed: self.start.elapsed() + self.offset,
            flips,
            cost,
        });
    }

    /// Records samples that all happened by now, reading the clock once:
    /// they share its reading as their time.
    pub fn record_all(&mut self, points: &[(u64, Cost)]) {
        if points.is_empty() {
            return;
        }
        let elapsed = self.start.elapsed() + self.offset;
        let stamped = points.iter().map(|&(flips, cost)| TracePoint {
            elapsed,
            flips,
            cost,
        });
        self.points.extend(stamped);
    }

    /// Records a sample with an explicit elapsed time (used by simulated
    /// clocks, e.g. RDBMS-backed search charging I/O latency).
    pub fn record_at(&mut self, elapsed: Duration, flips: u64, cost: Cost) {
        self.points.push(TracePoint {
            elapsed: elapsed + self.offset,
            flips,
            cost,
        });
    }

    /// The recorded samples.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// The final (best) cost, if any samples were recorded.
    pub fn final_cost(&self) -> Option<Cost> {
        self.points.last().map(|p| p.cost)
    }

    /// The best cost achieved at or before `t`, if any.
    pub fn cost_at(&self, t: Duration) -> Option<Cost> {
        self.points
            .iter()
            .take_while(|p| p.elapsed <= t)
            .last()
            .map(|p| p.cost)
    }

    /// Renders the trace as `time_secs<TAB>cost` lines for plotting.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            out.push_str(&format!(
                "{:.3}\t{}\t{}\n",
                p.elapsed.as_secs_f64(),
                p.flips,
                p.cost
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_monotone_time() {
        let mut t = TimeCostTrace::new();
        t.record(0, Cost::soft(10.0));
        t.record(5, Cost::soft(8.0));
        assert_eq!(t.points().len(), 2);
        assert!(t.points()[1].elapsed >= t.points()[0].elapsed);
        assert_eq!(t.final_cost(), Some(Cost::soft(8.0)));
    }

    #[test]
    fn a_batch_shares_one_time() {
        let mut t = TimeCostTrace::new();
        t.record_all(&[]);
        assert!(t.points().is_empty());
        t.record_all(&[(3, Cost::soft(4.0)), (7, Cost::soft(2.0))]);
        let p = t.points();
        assert_eq!((p[0].flips, p[1].flips), (3, 7));
        assert_eq!(p[0].elapsed, p[1].elapsed);
        assert_eq!(t.final_cost(), Some(Cost::soft(2.0)));
    }

    #[test]
    fn offset_shifts_axis() {
        let mut t = TimeCostTrace::with_offset(Duration::from_secs(100));
        t.record(0, Cost::soft(1.0));
        assert!(t.points()[0].elapsed >= Duration::from_secs(100));
    }

    #[test]
    fn cost_at_interpolates_stepwise() {
        let mut t = TimeCostTrace::new();
        t.record_at(Duration::from_secs(1), 0, Cost::soft(10.0));
        t.record_at(Duration::from_secs(5), 0, Cost::soft(3.0));
        assert_eq!(t.cost_at(Duration::from_secs(2)), Some(Cost::soft(10.0)));
        assert_eq!(t.cost_at(Duration::from_secs(6)), Some(Cost::soft(3.0)));
        assert_eq!(t.cost_at(Duration::from_millis(500)), None);
    }
}
