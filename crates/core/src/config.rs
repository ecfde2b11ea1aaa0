//! Inference configuration.

use std::sync::OnceLock;
use tuffy_grounder::GroundingMode;
use tuffy_rdbms::OptimizerConfig;
use tuffy_search::mcsat::McSatParams;
use tuffy_search::WalkSatParams;

/// How the in-memory search is decomposed (§3.3–3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Monolithic WalkSAT over the whole MRF (`Tuffy-p` in the paper).
    None,
    /// Component-aware search: one WalkSAT per connected component with
    /// weighted round-robin budgets (the paper's default `Tuffy`).
    #[default]
    Components,
    /// Component-aware, and components whose search state exceeds the
    /// given byte budget are further split with Algorithm 3 and searched
    /// by Gauss-Seidel iteration (§3.4, Figure 6).
    Budget(usize),
}

/// Full configuration of a [`crate::Tuffy`] instance.
#[derive(Clone, Copy, Debug)]
pub struct TuffyConfig {
    /// Grounding strategy (lazy closure by default).
    pub grounding: GroundingMode,
    /// RDBMS optimizer knobs (all enabled by default; the lesion study of
    /// Table 6 disables them one at a time).
    pub optimizer: OptimizerConfig,
    /// Search decomposition.
    pub partitioning: PartitionStrategy,
    /// Worker threads for both parallel phases: the binding queries of
    /// each grounding round, and the scheduler's pool of partition
    /// searches. `0` (the default) means every core the process may use
    /// (see [`TuffyConfig::resolved_threads`]). Grounding, MAP and
    /// marginal answers are bit-identical at every thread count, so this
    /// is purely a performance setting. A MAP query's search takes fewer
    /// workers than this when its flip budget does not pay for them
    /// ([`tuffy_search::SchedulerConfig::paid_by_flips`]).
    pub threads: usize,
    /// WalkSAT parameters.
    pub search: WalkSatParams,
    /// MC-SAT parameters for marginal queries. Like [`Self::search`] for
    /// MAP, this is the implicit default a marginal query runs under;
    /// [`crate::Query::with_mcsat`] overrides it per query.
    pub mcsat: McSatParams,
    /// Maximum Gauss-Seidel rounds over cut clauses when
    /// `PartitionStrategy::Budget` splits a component (the scheduler
    /// stops early once a round changes nothing, and runs exactly one
    /// round when nothing is cut).
    pub partition_rounds: usize,
}

impl Default for TuffyConfig {
    fn default() -> Self {
        TuffyConfig {
            grounding: GroundingMode::LazyClosure,
            optimizer: OptimizerConfig::default(),
            partitioning: PartitionStrategy::Components,
            threads: 0,
            search: WalkSatParams::default(),
            mcsat: McSatParams::default(),
            partition_rounds: 3,
        }
    }
}

/// Approximate bytes of search state per unit of the partitioner's size
/// metric; re-exported from [`tuffy_mrf::memory`], where the scheduler's
/// budget→β translation lives.
pub use tuffy_mrf::memory::BYTES_PER_SIZE_UNIT;

impl TuffyConfig {
    /// Translates a byte budget into the partitioner's β size bound.
    pub fn beta_for_budget(budget_bytes: usize) -> usize {
        tuffy_mrf::memory::beta_for_budget(budget_bytes)
    }

    /// The worker count [`Self::threads`] stands for: itself, or for `0`
    /// the machine's available parallelism. That is read once per
    /// process, not once per query: on Linux the std call reads cgroup
    /// files.
    pub fn resolved_threads(&self) -> usize {
        static CORES: OnceLock<usize> = OnceLock::new();
        match self.threads {
            0 => *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
            n => n,
        }
    }

    /// The scheduler configuration this Tuffy configuration implies:
    /// [`PartitionStrategy::Components`] schedules exact connected
    /// components; [`PartitionStrategy::Budget`] bounds β and bin
    /// capacity by the byte budget. The pool is the resolved
    /// [`Self::threads`].
    pub fn scheduler_config(&self) -> tuffy_search::SchedulerConfig {
        tuffy_search::SchedulerConfig {
            threads: self.resolved_threads(),
            mem_budget: match self.partitioning {
                PartitionStrategy::Budget(bytes) => Some(bytes),
                _ => None,
            },
            rounds: self.partition_rounds,
            search: self.search,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_tuffy() {
        let c = TuffyConfig::default();
        assert_eq!(c.partitioning, PartitionStrategy::Components);
        assert_eq!(c.grounding, GroundingMode::LazyClosure);
    }

    #[test]
    fn zero_threads_resolves_to_every_core() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let c = TuffyConfig::default();
        assert_eq!(c.threads, 0);
        assert_eq!(c.resolved_threads(), cores);
        assert_eq!(c.scheduler_config().threads, cores);
        let one = TuffyConfig { threads: 3, ..c };
        assert_eq!(one.scheduler_config().threads, 3);
    }

    #[test]
    fn beta_scales_with_budget() {
        assert!(TuffyConfig::beta_for_budget(48_000) > TuffyConfig::beta_for_budget(4_800));
        assert!(TuffyConfig::beta_for_budget(0) >= 8);
    }
}
