//! Grounding statistics (feeds Tables 1, 2, 4, 6).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tuffy_rdbms::SpillStats;

/// Process-wide count of full grounding runs (bottom-up or top-down).
///
/// Grounding is the expensive, shareable step of inference (§3.1); the
/// serving engine exists so it happens once per program rather than once
/// per caller. This counter is the instrumentation behind that claim:
/// stress tests pin "N threads × M queries performed zero re-grounds"
/// against it. Monotonic and global — tests that assert on deltas must
/// not share a process with unrelated grounding work.
static GROUNDINGS: AtomicU64 = AtomicU64::new(0);

/// Total full grounding runs this process has performed.
pub fn groundings_performed() -> u64 {
    GROUNDINGS.load(Ordering::Relaxed)
}

/// Records one full grounding run (called by both grounders on entry).
pub(crate) fn record_grounding() {
    GROUNDINGS.fetch_add(1, Ordering::Relaxed);
}

/// Counters collected during one grounding run.
#[derive(Clone, Debug, Default)]
pub struct GroundingStats {
    /// Wall-clock grounding time.
    pub wall: Duration,
    /// Lazy-closure rounds executed (1 for eager mode).
    pub rounds: usize,
    /// Ground clauses retained (after merging duplicates).
    pub clauses: usize,
    /// Unknown (query) atoms registered.
    pub atoms: usize,
    /// Candidate bindings inspected by emission. Bottom-up, each is a
    /// distinct (rule, binding): the closure rounds never return one
    /// twice. Top-down also counts the repeats its own dedup drops.
    pub bindings_considered: u64,
    /// Binding queries planned and executed in the RDBMS (bottom-up
    /// only): one per clause variant per closure round — or per
    /// value-range chunk of a variant when the parallel grounder splits
    /// a large query.
    pub queries: u64,
    /// Always 0, reserved: the count of mid-execution join re-orderings
    /// by the removed adaptive executor. The store's stats segment and
    /// the repo benchmark still carry the field.
    pub replans: u64,
    /// Total wall time of the binding queries (bottom-up only): plan,
    /// execute and canonical sort of each task, summed over tasks and
    /// grounding threads.
    pub query_exec: Duration,
    /// Peak bytes of grounding-time state: for the top-down grounder this
    /// is the in-memory tuple stores + registry + clause store it must
    /// hold throughout; for bottom-up it is the registry plus the largest
    /// single query result (intermediate state lives in the RDBMS).
    pub peak_bytes: usize,
    /// Out-of-core spill counters (bottom-up only; all zero when no
    /// memory budget is configured or nothing exceeded it).
    pub spill: SpillStats,
}
