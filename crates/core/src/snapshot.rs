//! Immutable, shareable views of one grounded generation.
//!
//! A [`Snapshot`] is the unit of concurrency in the serving API: a
//! cheap (`Clone + Send + Sync`) handle onto one *generation* of the
//! grounded store — program, evidence, MRF, registry — plus lazily
//! built, generation-scoped analysis caches (the partition
//! [`Schedule`], the component count). Snapshots never mutate:
//! [`crate::Session::apply`] and [`crate::Query::given`] produce a *new*
//! generation copy-on-write (sharing the old generation's `Arc`-backed
//! arenas whenever the delta leaves them untouched), so any number of
//! in-flight queries keep reading the generation they started on.
//!
//! [`Snapshot::query`] is therefore safe to call from many threads at
//! once, and — because every query's seeds derive from its parameters,
//! never from execution order — concurrent executions are bit-identical
//! to sequential ones (pinned by the serve stress suite).

use crate::config::{Architecture, PartitionStrategy, TuffyConfig};
use crate::query::{Query, QueryKind};
use crate::result::{
    render_atom, InferenceReport, MapResult, MarginalResult, QueryAnswer, TopEntry, TopKResult,
};
use crate::session::ApplyReport;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use tuffy_grounder::incremental::{apply_delta_grounding, DeltaOutcome};
use tuffy_grounder::{ground_bottom_up_threaded, ground_top_down, GroundingResult};
use tuffy_mln::evidence::{EvidenceDelta, EvidenceSet};
use tuffy_mln::fxhash::FxHashMap;
use tuffy_mln::program::MlnProgram;
use tuffy_mln::{MlnError, Weight};
use tuffy_mrf::memory::MemoryFootprint;
use tuffy_mrf::{AtomId, ComponentSet, Cost};
use tuffy_search::mcsat::{McSat, McSatParams};
use tuffy_search::rdbms_search::RdbmsSearch;
use tuffy_search::{
    MarginalSamples, Schedule, Scheduler, SchedulerConfig, TimeCostTrace, WalkSat, WalkSatParams,
};

/// Grounds `program` under `evidence` according to the configured
/// architecture — the single grounding dispatch every path (engine
/// build, session re-ground, one-shot pipeline) goes through.
pub(crate) fn ground(
    program: &MlnProgram,
    evidence: &EvidenceSet,
    config: &TuffyConfig,
) -> Result<GroundingResult, MlnError> {
    match config.architecture {
        Architecture::InMemory => ground_top_down(program, evidence, config.grounding),
        Architecture::Hybrid | Architecture::RdbmsOnly => ground_bottom_up_threaded(
            program,
            evidence,
            config.grounding,
            &config.optimizer,
            resolve_ground_threads(config.ground_threads),
        ),
    }
}

/// Resolves the configured grounding thread count: `0` means "use the
/// machine's available parallelism".
pub(crate) fn resolve_ground_threads(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Counters shared by every snapshot descended from one engine:
/// generation ids (so forked generations stay distinguishable) and the
/// number of full grounding runs the engine lineage has paid for — the
/// instrumentation behind the "ground once, serve many" claim.
#[derive(Debug)]
pub(crate) struct EngineCounters {
    /// Next unassigned generation id.
    generations: AtomicU64,
    /// Full grounding runs performed by this engine lineage.
    groundings: AtomicU64,
}

impl EngineCounters {
    /// Fresh counters for a newly built engine: generation 0 exists and
    /// one grounding run paid for it.
    pub(crate) fn for_new_engine() -> Arc<EngineCounters> {
        Arc::new(EngineCounters {
            generations: AtomicU64::new(1),
            groundings: AtomicU64::new(1),
        })
    }

    /// Counters for an engine re-hydrated from a store file: its base
    /// generation exists but *no* grounding run was paid for — the whole
    /// point of loading. [`crate::Engine::groundings_performed`] reads 0
    /// until a session delta forces a re-ground.
    pub(crate) fn for_loaded_engine() -> Arc<EngineCounters> {
        Arc::new(EngineCounters {
            generations: AtomicU64::new(1),
            groundings: AtomicU64::new(0),
        })
    }

    fn next_generation(&self) -> u64 {
        self.generations.fetch_add(1, Ordering::Relaxed)
    }

    fn record_grounding(&self) {
        self.groundings.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn groundings(&self) -> u64 {
        self.groundings.load(Ordering::Relaxed)
    }

    pub(crate) fn generations(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }
}

/// How a [`Snapshot::fork`] caller should carry warm-start search state
/// across the generation boundary.
pub(crate) enum ForkWarm {
    /// Atom ids are unchanged; warm state carries verbatim.
    Unchanged,
    /// The grounding was patched: old atom id → new atom id (`None` for
    /// clamped/orphaned atoms).
    Remap(Vec<Option<AtomId>>),
    /// The grounding was rebuilt from scratch; carry state by
    /// ground-atom identity against the old registry.
    Reground,
}

/// Lazily built analyses of one grounded generation — the "schedule
/// cache keyed by generation". Held behind an `Arc` so every snapshot
/// of the same generation (including forks whose delta left the store
/// untouched) shares one set of cells: whoever computes first, everyone
/// benefits, regardless of fork timing.
#[derive(Default)]
struct GenerationCaches {
    /// Partition schedule, planned on first use.
    schedule: OnceLock<Arc<Schedule>>,
    /// Nontrivial component count, detected on first use.
    components: OnceLock<usize>,
    /// Marginal-sampling results keyed on `(generation, McSatParams
    /// fingerprint)`. Marginal inference is deterministic in (generation,
    /// params), so a repeat query — the weight-learning loop re-issues
    /// identical ones every iteration — returns the cached samples
    /// instead of re-sampling. The generation is part of the key because
    /// [`Snapshot::relearn`] forks share this cache set (their structural
    /// analyses stay valid) while their weights — and thus marginals — do
    /// not carry over.
    marginals: Mutex<FxHashMap<(u64, u64), Arc<MarginalSamples>>>,
    /// Marginal cache hits served (see [`Snapshot::marginal_cache_hits`]).
    marginal_hits: AtomicU64,
}

/// FNV-style fingerprint over every MC-SAT parameter — the query half of
/// the marginal cache key.
fn mcsat_fingerprint(p: &McSatParams) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [
        p.samples as u64,
        p.burn_in as u64,
        p.sample_sat_steps,
        p.p_anneal.to_bits(),
        p.temperature.to_bits(),
        p.seed,
    ] {
        h ^= v;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

struct SnapshotInner {
    program: Arc<MlnProgram>,
    evidence: EvidenceSet,
    config: TuffyConfig,
    grounding: Arc<GroundingResult>,
    generation: u64,
    counters: Arc<EngineCounters>,
    /// Analysis caches of this generation; a new generation starts with
    /// fresh empty cells, same-generation snapshots share one set.
    caches: Arc<GenerationCaches>,
}

/// An immutable view of one grounded generation; see the module docs.
///
/// Cloning is cheap (one `Arc` bump) and clones share the grounded store
/// *and* its analysis caches. Obtained from
/// [`crate::Engine::snapshot`] or [`crate::Session::snapshot`].
#[derive(Clone)]
pub struct Snapshot {
    inner: Arc<SnapshotInner>,
}

impl Snapshot {
    pub(crate) fn root(
        program: Arc<MlnProgram>,
        evidence: EvidenceSet,
        config: TuffyConfig,
        grounding: Arc<GroundingResult>,
        counters: Arc<EngineCounters>,
    ) -> Snapshot {
        Snapshot {
            inner: Arc::new(SnapshotInner {
                program,
                evidence,
                config,
                grounding,
                generation: 0,
                counters,
                caches: Arc::new(GenerationCaches::default()),
            }),
        }
    }

    /// The generation this snapshot views. Generation ids are unique per
    /// engine lineage *per grounded store*: an apply whose delta leaves
    /// the grounding untouched keeps the generation (and its caches),
    /// anything that patches or rebuilds the store advances it.
    pub fn generation(&self) -> u64 {
        self.inner.generation
    }

    /// The program this generation was grounded under.
    pub fn program(&self) -> &MlnProgram {
        &self.inner.program
    }

    pub(crate) fn program_arc(&self) -> Arc<MlnProgram> {
        self.inner.program.clone()
    }

    /// The evidence this generation reflects.
    pub fn evidence(&self) -> &EvidenceSet {
        &self.inner.evidence
    }

    /// The configuration queries run under by default.
    pub fn config(&self) -> &TuffyConfig {
        &self.inner.config
    }

    /// The grounded store of this generation.
    pub fn grounding(&self) -> &GroundingResult {
        &self.inner.grounding
    }

    pub(crate) fn counters(&self) -> &Arc<EngineCounters> {
        &self.inner.counters
    }

    /// The partition schedule of this generation, planned once and
    /// shared by every query (and every clone) of the generation.
    pub(crate) fn schedule(&self) -> Arc<Schedule> {
        self.inner
            .caches
            .schedule
            .get_or_init(|| {
                Arc::new(Schedule::plan(
                    &self.inner.grounding.mrf,
                    self.scheduler_config(&self.inner.config.search).mem_budget,
                ))
            })
            .clone()
    }

    /// Nontrivial connected components of this generation's MRF,
    /// detected once.
    pub(crate) fn components(&self) -> usize {
        *self
            .inner
            .caches
            .components
            .get_or_init(|| ComponentSet::detect(&self.inner.grounding.mrf).nontrivial_count())
    }

    fn scheduler_config(&self, search: &WalkSatParams) -> SchedulerConfig {
        let config = &self.inner.config;
        SchedulerConfig {
            threads: config.threads,
            mem_budget: match config.partitioning {
                PartitionStrategy::Budget(bytes) => Some(bytes),
                _ => None,
            },
            rounds: config.partition_rounds,
            search: *search,
        }
    }

    /// Executes `query` against this generation. Pure with respect to
    /// the snapshot — no session state, no warm starts — so it is safe
    /// to call from any number of threads at once, and a given
    /// `(snapshot, query)` pair always produces bit-identical results
    /// regardless of what runs concurrently.
    ///
    /// A [`Query::given`] delta must reference constants known to
    /// *this snapshot's* program (any ground atom obtained from it, or
    /// parsed against the program it was built from). Deltas that
    /// intern new constants belong on [`crate::Session::query`], whose
    /// copy-on-write program fork carries them.
    pub fn query(&self, query: &Query) -> Result<QueryAnswer, MlnError> {
        match &query.given {
            Some(delta) => {
                let (fork, _, _) = self.fork(&self.inner.program, delta)?;
                fork.answer(query)
            }
            None => self.answer(query),
        }
    }

    /// Answers `query` against this snapshot, conditioning delta already
    /// applied.
    pub(crate) fn answer(&self, query: &Query) -> Result<QueryAnswer, MlnError> {
        let config = &self.inner.config;
        match &query.kind {
            QueryKind::Map => {
                let search = query.search.unwrap_or(config.search);
                let (truth, cost, trace, report) = self.execute_map(None, &search);
                Ok(QueryAnswer::Map(MapResult::new(
                    &self.inner.program,
                    &self.inner.grounding.registry,
                    &truth,
                    cost,
                    trace,
                    report,
                )))
            }
            QueryKind::Marginal(predicates) => {
                let params = query.mcsat.unwrap_or(config.mcsat);
                let (probs, report) = self.execute_marginal(&params)?;
                let keep = self.predicate_filter(predicates)?;
                let mut marginals = Vec::new();
                let mut names = Vec::new();
                for (i, p) in probs.into_iter().enumerate() {
                    let ga = self.inner.grounding.registry.ground_atom(i as u32);
                    if let Some(keep) = &keep {
                        if !keep.contains(&ga.predicate.0) {
                            continue;
                        }
                    }
                    names.push(render_atom(&self.inner.program, &ga));
                    marginals.push((ga, p));
                }
                Ok(QueryAnswer::Marginal(MarginalResult::new(
                    marginals, names, report,
                )))
            }
            QueryKind::TopK { predicate, k } => {
                let params = query.mcsat.unwrap_or(config.mcsat);
                let (probs, report) = self.execute_marginal(&params)?;
                let pred = self
                    .inner
                    .program
                    .predicate_by_name(predicate)
                    .ok_or_else(|| {
                        MlnError::general(format!("unknown predicate `{predicate}` in top-k query"))
                    })?;
                let mut ranked: Vec<(u32, f64)> = probs
                    .into_iter()
                    .enumerate()
                    .map(|(i, p)| (i as u32, p))
                    .filter(|&(i, _)| self.inner.grounding.registry.atom(i).0 == pred)
                    .collect();
                // Descending probability; ties resolve by ascending atom
                // id, so the ranking is deterministic and identical for
                // every concurrent execution.
                ranked.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                ranked.truncate(*k);
                let entries = ranked
                    .into_iter()
                    .map(|(i, p)| {
                        let atom = self.inner.grounding.registry.ground_atom(i);
                        TopEntry {
                            name: render_atom(&self.inner.program, &atom),
                            atom,
                            probability: p,
                        }
                    })
                    .collect();
                Ok(QueryAnswer::TopK(TopKResult { entries, report }))
            }
        }
    }

    /// Resolves a predicate-name filter to predicate ids (`None` = keep
    /// everything).
    fn predicate_filter(&self, predicates: &[String]) -> Result<Option<Vec<u32>>, MlnError> {
        if predicates.is_empty() {
            return Ok(None);
        }
        let mut ids = Vec::with_capacity(predicates.len());
        for name in predicates {
            let pred = self.inner.program.predicate_by_name(name).ok_or_else(|| {
                MlnError::general(format!("unknown predicate `{name}` in marginal query"))
            })?;
            ids.push(pred.0);
        }
        Ok(Some(ids))
    }

    /// Runs MAP search over this generation, warm-started from `init`
    /// when given (the session path) and from the LazySAT all-false
    /// state otherwise (the stateless snapshot path, identical to the
    /// first map of a fresh session).
    pub(crate) fn execute_map(
        &self,
        init: Option<Vec<bool>>,
        search: &WalkSatParams,
    ) -> (Vec<bool>, Cost, TimeCostTrace, InferenceReport) {
        let config = &self.inner.config;
        let grounding = &self.inner.grounding;
        let mrf = &grounding.mrf;
        let mut report = InferenceReport {
            grounding: grounding.stats.clone(),
            clauses: mrf.clauses().len(),
            atoms: grounding.registry.len(),
            clause_table_bytes: mrf.clause_bytes(),
            ..Default::default()
        };
        // The paper's time axis includes grounding (Figure 3's curves
        // begin when grounding completes).
        let mut trace = TimeCostTrace::with_offset(grounding.stats.wall);
        let search_started = Instant::now();
        let init = init.unwrap_or_else(|| vec![false; mrf.num_atoms()]);
        report.components = self.components();

        let (truth, cost) = match config.architecture {
            Architecture::RdbmsOnly => {
                // Tuffy-mm keeps its state in the buffer pool; it always
                // searches cold.
                let mut rdbms_search =
                    RdbmsSearch::new(mrf, config.pool_pages, config.disk, search.seed);
                let r = rdbms_search.run(search.max_flips, search.noise, None, Some(&mut trace));
                report.flips = r.flips;
                report.search_time = r.wall + r.simulated_io;
                report.flips_per_sec = r.flips_per_sec;
                report.search_ram = mrf.num_atoms() * 2; // truth arrays only
                (r.truth, r.cost)
            }
            Architecture::InMemory => {
                // Alchemy-style: monolithic WalkSAT, not component-aware.
                report.search_ram = MemoryFootprint::of(mrf).total();
                let ws = WalkSat::run_from(mrf, init, search, Some(&mut trace));
                report.flips = ws.flips();
                (ws.best_truth().to_vec(), ws.best_cost())
            }
            Architecture::Hybrid => {
                match config.partitioning {
                    PartitionStrategy::None => {
                        report.search_ram = MemoryFootprint::of(mrf).total();
                        let ws = WalkSat::run_from(mrf, init, search, Some(&mut trace));
                        report.flips = ws.flips();
                        (ws.best_truth().to_vec(), ws.best_cost())
                    }
                    // The PartitionedInference stage: components (or
                    // budget-bounded Algorithm 3 partitions) → FFD bins →
                    // worker pool → Gauss-Seidel rounds over cut clauses.
                    PartitionStrategy::Components | PartitionStrategy::Budget(_) => {
                        // The generation-scoped schedule cache: repeated
                        // queries — from any number of sessions and
                        // threads — skip Algorithm 3 + FFD re-planning.
                        let scheduler = Scheduler::with_schedule(
                            mrf,
                            self.schedule(),
                            self.scheduler_config(search),
                        );
                        let r = scheduler.run_from(&init, Some(&mut trace));
                        report.flips = r.flips;
                        report.search_ram = r.peak_partition_bytes;
                        report.partitions = scheduler.schedule().units.len();
                        report.bins = scheduler.schedule().bins.len();
                        report.rounds = r.rounds_run;
                        (r.truth, r.cost)
                    }
                }
            }
        };

        if report.search_time.is_zero() {
            report.search_time = search_started.elapsed();
        }
        if report.flips_per_sec == 0.0 {
            let secs = report.search_time.as_secs_f64();
            report.flips_per_sec = if secs > 0.0 {
                report.flips as f64 / secs
            } else {
                f64::INFINITY
            };
        }
        (truth, cost, trace, report)
    }

    /// Runs MC-SAT marginal sampling over this generation (Appendix
    /// A.5), returning `P(atom = true)` per atom id plus the run report.
    /// With worker threads or a memory budget configured, MC-SAT runs
    /// per partition through the scheduler; otherwise one sampler covers
    /// the whole MRF.
    pub(crate) fn execute_marginal(
        &self,
        params: &McSatParams,
    ) -> Result<(Vec<f64>, InferenceReport), MlnError> {
        let grounding = &self.inner.grounding;
        let mrf = &grounding.mrf;
        let sample_started = Instant::now();
        let samples = self.marginal_stats(params)?;
        let search_time = sample_started.elapsed();
        let secs = search_time.as_secs_f64();
        let flips = samples.flips;
        let report = InferenceReport {
            grounding: grounding.stats.clone(),
            clauses: mrf.clauses().len(),
            atoms: grounding.registry.len(),
            clause_table_bytes: mrf.clause_bytes(),
            components: self.components(),
            flips,
            search_time,
            flips_per_sec: if secs > 0.0 {
                flips as f64 / secs
            } else {
                f64::INFINITY
            },
            ..Default::default()
        };
        Ok((samples.probs.clone(), report))
    }

    /// Marginal sampling with full sufficient statistics: per-atom
    /// probabilities *and* per-clause satisfaction probabilities — the
    /// `E[nᵢ]` column weight learning reads. Results are cached per
    /// `(generation, params fingerprint)`: marginal inference is
    /// deterministic in those two, so a repeat call (the learning loop
    /// re-issues identical queries every iteration, as does any client
    /// polling a stable generation) returns the cached `Arc` without
    /// re-sampling. [`Snapshot::marginal_cache_hits`] counts the hits.
    ///
    /// Routing matches [`Snapshot::query`]'s marginal path: per-partition
    /// MC-SAT through the scheduler when threads or a memory budget are
    /// configured, one monolithic sampler otherwise.
    ///
    /// Errors if `params.samples` is 0: no sample estimates nothing.
    pub fn marginal_stats(&self, params: &McSatParams) -> Result<Arc<MarginalSamples>, MlnError> {
        if params.samples == 0 {
            return Err(MlnError::general(
                "MC-SAT marginal inference needs at least one sample",
            ));
        }
        let caches = &self.inner.caches;
        let key = (self.inner.generation, mcsat_fingerprint(params));
        if let Some(hit) = caches.marginals.lock().expect("marginal cache").get(&key) {
            let hit = Arc::clone(hit);
            caches.marginal_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        let samples = Arc::new(self.compute_marginal(params)?);
        // First write wins under a race: both computations are
        // bit-identical, so either Arc serves.
        Ok(Arc::clone(
            caches
                .marginals
                .lock()
                .expect("marginal cache")
                .entry(key)
                .or_insert(samples),
        ))
    }

    /// Marginal-cache hits served by this generation's cache set (shared
    /// with same-generation clones and [`Snapshot::relearn`] forks).
    pub fn marginal_cache_hits(&self) -> u64 {
        self.inner.caches.marginal_hits.load(Ordering::Relaxed)
    }

    /// The uncached marginal computation behind
    /// [`Snapshot::marginal_stats`].
    fn compute_marginal(&self, params: &McSatParams) -> Result<MarginalSamples, MlnError> {
        let config = &self.inner.config;
        let mrf = &self.inner.grounding.mrf;
        let partitioned = match config.partitioning {
            PartitionStrategy::None => false, // monolithic by request
            PartitionStrategy::Components => config.threads > 1,
            PartitionStrategy::Budget(_) => true,
        };
        if partitioned {
            let scheduler = Scheduler::with_schedule(
                mrf,
                self.schedule(),
                self.scheduler_config(&config.search),
            );
            scheduler.run_marginal(params)
        } else {
            let mut mc = McSat::new(mrf, params.seed)?;
            let (probs, clause_sat) = mc.marginals_with_clause_stats(params);
            Ok(MarginalSamples {
                probs,
                clause_sat,
                flips: mc.flips(),
            })
        }
    }

    /// Runs MAP search over this generation and returns the raw best
    /// world plus its cost — the voted perceptron's inner call, which
    /// needs atom truth values (to count satisfied clauses) rather than
    /// the rendered [`crate::MapResult`].
    pub fn map_world(&self, search: &WalkSatParams) -> (Vec<bool>, Cost) {
        let (truth, cost, _, _) = self.execute_map(None, search);
        (truth, cost)
    }

    /// Forks a new generation under a new per-rule weight vector —
    /// weight learning's iteration step. O(clauses): the MRF's weight and
    /// violation-cost columns are rebuilt through
    /// [`tuffy_mrf::Mrf::reweight`] while every structural arena
    /// (literals, occurrences, origins, registry, partition schedule,
    /// component counts) is shared with this snapshot, which stays fully
    /// usable — in-flight queries on any generation are undisturbed.
    ///
    /// The forked program carries the new weights on its rules, so a
    /// later re-ground (or a persisted save) reproduces them. Non-finite
    /// weights are hardened exactly like grounding-time merges:
    /// `Soft(+∞)` → `Hard`, `Soft(−∞)` → `NegHard`, NaN → neutral
    /// `Soft(0.0)`.
    ///
    /// Advances the generation counter but performs **no** grounding —
    /// [`crate::Engine::groundings_performed`] is unaffected.
    pub fn relearn(&self, rule_weights: &[Weight]) -> Result<Snapshot, MlnError> {
        let inner = &self.inner;
        if rule_weights.len() != inner.program.rules.len() {
            return Err(MlnError::general(format!(
                "relearn got {} weights for {} rules",
                rule_weights.len(),
                inner.program.rules.len()
            )));
        }
        let sanitized: Vec<Weight> = rule_weights
            .iter()
            .map(|&w| match w {
                Weight::Soft(v) if v == f64::INFINITY => Weight::Hard,
                Weight::Soft(v) if v == f64::NEG_INFINITY => Weight::NegHard,
                Weight::Soft(v) if v.is_nan() => Weight::Soft(0.0),
                w => w,
            })
            .collect();
        let mrf = inner
            .grounding
            .mrf
            .reweight(&sanitized)
            .map_err(MlnError::general)?;
        let mut program = (*inner.program).clone();
        for (rule, &w) in program.rules.iter_mut().zip(&sanitized) {
            rule.weight = w;
        }
        let grounding = GroundingResult {
            mrf,
            registry: inner.grounding.registry.clone(),
            stats: inner.grounding.stats.clone(),
        };
        Ok(Snapshot {
            inner: Arc::new(SnapshotInner {
                program: Arc::new(program),
                evidence: inner.evidence.clone(),
                config: inner.config,
                grounding: Arc::new(grounding),
                generation: inner.counters.next_generation(),
                counters: inner.counters.clone(),
                // Reweighting preserves every structural arena, so the
                // schedule and component caches stay valid; the marginal
                // cache keys on the generation, so stale samples cannot
                // leak across the weight change.
                caches: inner.caches.clone(),
            }),
        })
    }

    /// Forks this generation under an evidence delta, copy-on-write:
    ///
    /// * a delta with no grounding effect shares the grounded store and
    ///   its caches outright (same generation, zero copying);
    /// * a delta in the exact incremental fragment becomes a patched
    ///   copy ([`apply_delta_grounding`] — the old store is untouched);
    /// * anything else re-grounds from the merged evidence
    ///   ([`Snapshot::regrounded`]).
    ///
    /// `program` is the forked generation's program — the session's
    /// (possibly extended) program for committed applies, this
    /// snapshot's own for ephemeral [`Query::given`] forks. The original
    /// snapshot is never modified; concurrent readers keep their
    /// generation.
    pub(crate) fn fork(
        &self,
        program: &Arc<MlnProgram>,
        delta: &EvidenceDelta,
    ) -> Result<(Snapshot, ApplyReport, ForkWarm), MlnError> {
        let start = Instant::now();
        let inner = &self.inner;
        // Every delta symbol must resolve in the program this fork will
        // ground and render under. A miss means the delta was parsed
        // against a *different* (extended) program — e.g. handed to a
        // bare snapshot instead of the session whose `parse_delta`
        // interned the constants — and proceeding would panic deep in
        // symbol resolution instead of reporting the mismatch.
        for op in &delta.ops {
            let atom = match op {
                tuffy_mln::DeltaOp::Assert { atom, .. }
                | tuffy_mln::DeltaOp::Retract { atom }
                | tuffy_mln::DeltaOp::Flip { atom } => atom,
            };
            if atom
                .args
                .iter()
                .any(|s| s.0 as usize >= program.symbols.len())
            {
                return Err(MlnError::general(
                    "delta references constants unknown to this snapshot's program; \
                     run it through the session whose `parse_delta` interned them",
                ));
            }
        }
        // Stage the evidence edit; the new generation materializes only
        // once the grounding update has succeeded, so a failure cannot
        // produce a snapshot whose evidence disagrees with its store.
        let mut staged = inner.evidence.clone();
        let changes = staged.apply(program, delta)?;
        match apply_delta_grounding(program, &inner.grounding, &changes) {
            DeltaOutcome::Unchanged => {
                let report = ApplyReport {
                    incremental: true,
                    reason: None,
                    changes: changes.len(),
                    wall: start.elapsed(),
                    patch: None,
                    clauses: inner.grounding.mrf.clauses().len(),
                    atoms: inner.grounding.registry.len(),
                };
                // Same grounded store: share the arenas, the generation
                // id, and the analysis caches (one Arc'd set per
                // generation — computed by whichever snapshot needs
                // them first, visible to all).
                let snapshot = Snapshot {
                    inner: Arc::new(SnapshotInner {
                        program: program.clone(),
                        evidence: staged,
                        config: inner.config,
                        grounding: inner.grounding.clone(),
                        generation: inner.generation,
                        counters: inner.counters.clone(),
                        caches: inner.caches.clone(),
                    }),
                };
                Ok((snapshot, report, ForkWarm::Unchanged))
            }
            DeltaOutcome::Patched(patched) => {
                let report = ApplyReport {
                    incremental: true,
                    reason: None,
                    changes: changes.len(),
                    wall: start.elapsed(),
                    patch: Some(patched.stats),
                    clauses: patched.grounding.mrf.clauses().len(),
                    atoms: patched.grounding.registry.len(),
                };
                let snapshot = Snapshot {
                    inner: Arc::new(SnapshotInner {
                        program: program.clone(),
                        evidence: staged,
                        config: inner.config,
                        grounding: Arc::new(patched.grounding),
                        generation: inner.counters.next_generation(),
                        counters: inner.counters.clone(),
                        caches: Arc::new(GenerationCaches::default()),
                    }),
                };
                Ok((snapshot, report, ForkWarm::Remap(patched.remap)))
            }
            DeltaOutcome::NeedsFullReground { reason } => {
                let snapshot = self.regrounded(program, staged)?;
                let fresh = snapshot.grounding();
                let report = ApplyReport {
                    incremental: false,
                    reason: Some(reason),
                    changes: changes.len(),
                    wall: start.elapsed(),
                    patch: None,
                    clauses: fresh.mrf.clauses().len(),
                    atoms: fresh.registry.len(),
                };
                Ok((snapshot, report, ForkWarm::Reground))
            }
        }
    }

    /// Grounds `program` under `evidence` from scratch into the next
    /// generation of this lineage (same config and counters, fresh
    /// caches). A from-scratch grounding depends only on program,
    /// evidence and config, never on the store it replaces — which is
    /// what lets WAL recovery ground once at the last record that forces
    /// a re-ground instead of re-grounding at every one.
    pub(crate) fn regrounded(
        &self,
        program: &Arc<MlnProgram>,
        evidence: EvidenceSet,
    ) -> Result<Snapshot, MlnError> {
        let inner = &self.inner;
        let fresh = ground(program, &evidence, &inner.config)?;
        inner.counters.record_grounding();
        Ok(Snapshot {
            inner: Arc::new(SnapshotInner {
                program: program.clone(),
                evidence,
                config: inner.config,
                grounding: Arc::new(fresh),
                generation: inner.counters.next_generation(),
                counters: inner.counters.clone(),
                caches: Arc::new(GenerationCaches::default()),
            }),
        })
    }
}
