//! The long-lived, `Arc`-shared home of a grounded program.
//!
//! Grounding is the expensive, shareable artifact; search is the cheap,
//! per-query step (§3.2). An [`Engine`] embodies that split: built once
//! by [`Tuffy::build_engine`], it grounds the program a single time and
//! then hands out any number of
//!
//! * [`Snapshot`]s — immutable `Clone + Send + Sync` views of the
//!   current grounded generation, each answering [`crate::Query`]s from
//!   any thread ([`Snapshot::query`]); and
//! * [`Session`]s — lightweight per-caller handles (warm-start state +
//!   an `Arc` of a snapshot) whose [`Session::apply`] edits fork new
//!   generations copy-on-write without disturbing anyone else.
//!
//! Cloning an `Engine` is one reference-count bump; clones share the
//! grounded store, the generation counter, and the grounding-count
//! instrumentation ([`Engine::groundings_performed`]) that the serve
//! stress suite pins "zero re-grounds after the first build" against.

use crate::config::TuffyConfig;
use crate::pipeline::Tuffy;
use crate::session::Session;
use crate::snapshot::{ground, EngineCounters, Snapshot};
use std::sync::Arc;
use tuffy_mln::evidence::EvidenceSet;
use tuffy_mln::program::MlnProgram;
use tuffy_mln::MlnError;

/// A shared serving engine over one grounded program; see the module
/// docs. Created by [`Tuffy::build_engine`].
#[derive(Clone)]
pub struct Engine {
    base: Snapshot,
}

impl Engine {
    pub(crate) fn build(
        program: Arc<MlnProgram>,
        evidence: Arc<EvidenceSet>,
        config: TuffyConfig,
    ) -> Result<Engine, MlnError> {
        let grounding = Arc::new(ground(&program, &evidence, &config)?);
        let counters = EngineCounters::for_new_engine();
        Ok(Engine {
            base: Snapshot::root(program, evidence, config, grounding, counters),
        })
    }

    /// Wraps a snapshot rebuilt from a store file (see
    /// [`Engine::load`](crate::persist)): same shape as [`Engine::build`]
    /// minus the grounding run it exists to avoid.
    pub(crate) fn from_loaded_parts(base: Snapshot) -> Engine {
        Engine { base }
    }

    /// The engine's base snapshot (generation 0) — the view every new
    /// session starts from. Cheap: one `Arc` bump.
    pub fn snapshot(&self) -> Snapshot {
        self.base.clone()
    }

    /// Opens a lightweight [`Session`] over the engine's base snapshot.
    /// Sessions cost two `Arc` bumps to open — the grounding already
    /// happened when the engine was built — and are independent: one
    /// session's [`Session::apply`] forks a private generation and never
    /// affects the engine or its other sessions.
    pub fn open_session(&self) -> Session {
        Session::from_snapshot(self.base.clone())
    }

    /// The program this engine serves.
    pub fn program(&self) -> &MlnProgram {
        self.base.program()
    }

    /// The base evidence the engine was grounded under.
    pub fn evidence(&self) -> &EvidenceSet {
        self.base.evidence()
    }

    /// The configuration queries run under by default.
    pub fn config(&self) -> &TuffyConfig {
        self.base.config()
    }

    /// Full grounding runs this engine lineage has performed: 1 after
    /// `build_engine`, +1 for every [`Session::apply`] (or
    /// [`crate::Query::given`] fork) that fell outside the incremental
    /// patch fragment. The serve stress suite asserts this stays at 1
    /// while N threads × M queries run — the "ground once, serve many"
    /// invariant, measured rather than assumed.
    pub fn groundings_performed(&self) -> u64 {
        self.base.counters().groundings()
    }

    /// Forks a new engine whose base generation carries `rule_weights`
    /// (one [`Weight`](tuffy_mln::Weight) per program rule, in rule
    /// order) — weight learning's iteration step. The rebuild is
    /// O(clauses) through [`Snapshot::relearn`]: every structural arena,
    /// the partition schedule, and the component analysis are shared
    /// with this engine, no grounding happens
    /// ([`Engine::groundings_performed`] is unchanged), and snapshots or
    /// sessions already handed out keep serving their own generations.
    pub fn relearn(&self, rule_weights: &[tuffy_mln::Weight]) -> Result<Engine, MlnError> {
        Ok(Engine {
            base: self.base.relearn(rule_weights)?,
        })
    }

    /// Marginal-result cache hits served by the engine's base generation
    /// cache set (shared across [`Engine::relearn`] forks; see
    /// [`Snapshot::marginal_cache_hits`]).
    pub fn marginal_cache_hits(&self) -> u64 {
        self.base.marginal_cache_hits()
    }

    /// Generations this engine lineage has created: 1 after
    /// `build_engine` (the base generation), +1 for every
    /// [`Session::apply`] or [`crate::Query::given`] fork that produced
    /// a new generation (incrementally patched *or* re-ground; not
    /// no-op deltas, which share the parent generation).
    ///
    /// Like [`Engine::groundings_performed`] this is **per-engine**
    /// instrumentation, unlike the process-global counter behind
    /// `tuffy_grounder::stats` — suites asserting on it stay meaningful
    /// when the harness runs test files concurrently (e.g. under
    /// `--test-threads=8`), because engines built by other tests cannot
    /// perturb it.
    pub fn generations_created(&self) -> u64 {
        self.base.counters().generations()
    }
}

impl Tuffy {
    /// Builds the shared serving [`Engine`]: parses nothing (that
    /// happened when `self` was built), grounds exactly once, and
    /// returns the `Arc`-shared home of program + grounding + analysis
    /// caches. The engine shares `self`'s program and evidence by
    /// reference count; nothing is copied. Clone the engine (or hand out
    /// [`Engine::snapshot`] / [`Engine::open_session`] values) to serve
    /// concurrent callers without ever grounding again.
    pub fn build_engine(&self) -> Result<Engine, MlnError> {
        Engine::build(self.program.clone(), self.evidence.clone(), *self.config())
    }
}
