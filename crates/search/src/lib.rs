//! # tuffy-search — stochastic local search over ground MRFs
//!
//! The search half of Tuffy's MAP inference (paper §2.3, §3.2–3.4):
//!
//! * [`walksat`] — the WalkSAT algorithm (Appendix A.4, Algorithm 1), over
//!   a whole MRF or in place over one partition of it (closed, or
//!   conditioned on a frozen boundary), with incremental cost
//!   bookkeeping, an O(1)-sample violated-clause set, negative-weight and
//!   hard-clause handling, and flip-rate instrumentation (Table 3);
//! * [`scheduler`] — the partition-aware inference scheduler unifying
//!   §3.3 and §3.4: connected components (or Algorithm 3 partitions when
//!   a memory budget bounds β), First-Fit-Decreasing bin packing of
//!   partitions into budget-sized batches, a work-stealing worker pool
//!   running WalkSAT (MAP) or MC-SAT (marginals) per partition with
//!   deterministic per-partition seeds, and Gauss-Seidel rounds across
//!   cut clauses (the scheme of Bertsekas and Tsitsiklis, the paper's
//!   reference \[3\]) with an early-convergence criterion;
//! * [`mcsat`] — marginal inference by MC-SAT with a SampleSAT proposal
//!   (Appendix A.5), each sample a masked hard pass of [`walksat`] over
//!   the same scopes;
//! * [`timecost`] — time-cost trace recording for the paper's figures.

pub mod mcsat;
pub mod scheduler;
pub mod timecost;
pub mod walksat;

pub use mcsat::McSat;
pub use scheduler::{
    MarginalSamples, Schedule, ScheduleResult, ScheduleUnit, Scheduler, SchedulerConfig,
    MIN_FLIPS_PER_WORKER,
};
pub use timecost::{flip_rate, TimeCostTrace, TracePoint};
pub use walksat::{SearchScratch, WalkSat, WalkSatParams};
