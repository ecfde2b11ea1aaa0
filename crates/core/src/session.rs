//! Lightweight per-caller sessions: warm-start state over a shared
//! snapshot.
//!
//! Since the serving redesign a [`Session`] owns almost nothing: an
//! `Arc` of the [`Snapshot`] it is currently reading, the best truth
//! assignment of its previous `map()` (the warm start), and a
//! copy-on-write handle on the program (grown only if
//! [`Session::parse_delta`] interns new constants). Opening a session
//! from an [`Engine`](crate::Engine) is two reference-count bumps.
//!
//! * [`Session::map`] answers repeated MAP queries, warm-starting
//!   WalkSAT from the previous best truth assignment;
//! * [`Session::query`] runs any [`Query`] (MAP queries warm-start the
//!   same way; marginal/top-k/conditioned queries are stateless);
//! * [`Session::apply`] edits the evidence between queries by *forking a
//!   new generation* — the grounding is patched copy-on-write when the
//!   delta is in the provably-exact incremental fragment
//!   ([`tuffy_grounder::incremental`]) and rebuilt from the merged
//!   evidence otherwise. Either way the previous generation is
//!   untouched: queries in flight on other sessions (or other threads
//!   of this snapshot) keep reading the store they started on;
//! * [`Session::explain`] reports the session state: grounding, last
//!   delta outcome, warm-start status, and the partition schedule.
//!
//! [`Tuffy::open_session`] remains as the engine-of-one spelling: it
//! builds a private [`Engine`](crate::Engine) and opens its single
//! session, bit-identical to the pre-engine behavior.

use crate::pipeline::Tuffy;
use crate::query::Query;
use crate::result::{MapResult, QueryAnswer};
use crate::snapshot::{ForkWarm, Snapshot};
use std::sync::Arc;
use std::time::Duration;
use tuffy_grounder::incremental::PatchStats;
use tuffy_grounder::GroundingResult;
use tuffy_mln::evidence::{EvidenceDelta, EvidenceSet};
use tuffy_mln::program::MlnProgram;
use tuffy_mln::MlnError;
use tuffy_search::Scheduler;

use crate::config::TuffyConfig;

/// What one [`Session::apply`] call did to the grounded store.
#[derive(Clone, Debug)]
pub struct ApplyReport {
    /// Whether the grounding was patched incrementally (`true`) or
    /// rebuilt from the merged evidence (`false`). Deltas with no
    /// grounding effect count as incremental.
    pub incremental: bool,
    /// Why a full re-ground was required, when it was.
    pub reason: Option<String>,
    /// Net evidence changes the delta caused.
    pub changes: usize,
    /// Wall time of the whole apply (evidence edit + patch/re-ground).
    pub wall: Duration,
    /// Patch counters (present only on the incremental path).
    pub patch: Option<PatchStats>,
    /// Ground clauses after the apply.
    pub clauses: usize,
    /// Query atoms after the apply.
    pub atoms: usize,
}

/// A per-caller inference session: warm-start search state plus an
/// `Arc`-shared [`Snapshot`]. Created by
/// [`Engine::open_session`](crate::Engine::open_session) (or the
/// engine-of-one [`Tuffy::open_session`]).
pub struct Session {
    /// Copy-on-write program handle: shared with the snapshot until
    /// [`Session::parse_delta`] needs to intern new constants.
    program: Arc<MlnProgram>,
    snapshot: Snapshot,
    /// Best truth assignment of the previous `map()` call, aligned with
    /// the current registry; seeds the next search.
    warm: Option<Vec<bool>>,
    maps_run: usize,
    last_apply: Option<ApplyReport>,
}

impl Session {
    pub(crate) fn from_snapshot(snapshot: Snapshot) -> Session {
        Session {
            program: snapshot.program_arc(),
            snapshot,
            warm: None,
            maps_run: 0,
            last_apply: None,
        }
    }

    /// The program this session serves.
    pub fn program(&self) -> &MlnProgram {
        &self.program
    }

    /// The current evidence (base evidence plus every applied delta).
    pub fn evidence(&self) -> &EvidenceSet {
        self.snapshot.evidence()
    }

    /// The active configuration.
    pub fn config(&self) -> &TuffyConfig {
        self.snapshot.config()
    }

    /// The current grounded store.
    pub fn grounding(&self) -> &GroundingResult {
        self.snapshot.grounding()
    }

    /// The snapshot this session currently reads — hand clones of it to
    /// other threads to run [`Snapshot::query`] concurrently against
    /// this session's generation.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Consumes the session, returning its grounded store. The MRF's
    /// clause and occurrence arenas — the dominant storage — are
    /// `Arc`-shared, so they are never deep-copied; the atom registry
    /// (one map entry per query atom) is copied if other snapshots of
    /// this generation are still alive.
    pub fn into_grounding(self) -> GroundingResult {
        self.snapshot.grounding().clone()
    }

    /// The outcome of the most recent [`Session::apply`], if any.
    pub fn last_apply(&self) -> Option<&ApplyReport> {
        self.last_apply.as_ref()
    }

    /// Parses delta text (see [`tuffy_mln::parser::parse_delta`] for the
    /// syntax) against this session's program. A delta over known
    /// constants reads the shared program as is; one that names a new
    /// constant interns it into the session's private copy-on-write
    /// program fork (the engine's shared program is never mutated).
    pub fn parse_delta(&mut self, src: &str) -> Result<EvidenceDelta, MlnError> {
        tuffy_mln::parser::parse_delta_shared(&mut self.program, src)
    }

    /// Applies an evidence delta to the session by forking a new
    /// generation: the grounding is patched copy-on-write when the delta
    /// is in the exact fragment and rebuilt from the merged evidence
    /// otherwise. The previous generation is untouched — concurrent
    /// readers of [`Session::snapshot`] clones keep their store — and
    /// warm-start state survives either way (carried through the atom
    /// remap).
    ///
    /// Transactional: on any error (invalid delta, grounding failure)
    /// the session — evidence, grounding, warm state — is unchanged.
    pub fn apply(&mut self, delta: &EvidenceDelta) -> Result<ApplyReport, MlnError> {
        let (snapshot, report, warm_carry) = self.snapshot.fork(&self.program, delta)?;
        if let Some(old_warm) = self.warm.take() {
            self.warm = match warm_carry {
                ForkWarm::Unchanged => Some(old_warm),
                ForkWarm::Remap(remap) => {
                    let mut warm = vec![false; snapshot.grounding().registry.len()];
                    for (old_id, new_id) in remap.iter().enumerate() {
                        if let Some(new_id) = new_id {
                            warm[*new_id as usize] = old_warm[old_id];
                        }
                    }
                    Some(warm)
                }
                ForkWarm::Reground => {
                    // Carry search state across by ground-atom identity.
                    let fresh = snapshot.grounding();
                    let old = self.snapshot.grounding();
                    let mut warm = vec![false; fresh.registry.len()];
                    for (new_id, pred, args) in fresh.registry.iter() {
                        if let Some(old_id) = old.registry.get(pred, args) {
                            warm[new_id as usize] = old_warm[old_id as usize];
                        }
                    }
                    Some(warm)
                }
            };
        }
        self.snapshot = snapshot;
        self.last_apply = Some(report.clone());
        Ok(report)
    }

    /// Runs MAP inference over the session's current generation. The
    /// first call searches from the LazySAT all-false state (identical
    /// to the stateless [`Snapshot::query`] path); later calls
    /// warm-start from the previous best truth, so small evidence deltas
    /// re-converge in a fraction of the flips.
    pub fn map(&mut self) -> Result<MapResult, MlnError> {
        let search = self.config().search;
        self.map_with(&search)
    }

    fn map_with(&mut self, search: &tuffy_search::WalkSatParams) -> Result<MapResult, MlnError> {
        let (truth, cost, trace, report) = self.snapshot.execute_map(self.warm.clone(), search);
        self.maps_run += 1;
        let result = MapResult::new(
            self.program.clone(),
            self.snapshot.grounding_arc(),
            &truth,
            cost,
            trace,
            report,
        );
        self.warm = Some(truth);
        Ok(result)
    }

    /// Executes a [`Query`] against the session's current generation.
    /// Plain MAP queries warm-start from (and update) the session's
    /// search state exactly like [`Session::map`]; marginal, top-k, and
    /// [`Query::given`]-conditioned queries are stateless and leave the
    /// session untouched.
    pub fn query(&mut self, query: &Query) -> Result<QueryAnswer, MlnError> {
        if query.is_plain_map() {
            let search = query.search.unwrap_or(self.config().search);
            return Ok(QueryAnswer::Map(self.map_with(&search)?));
        }
        if let Some(delta) = query.given_delta() {
            // Fork with the *session's* program, not the snapshot's:
            // `parse_delta` may have interned constants into the
            // session's copy-on-write fork that the snapshot's program
            // has never seen.
            let (fork, _, _) = self.snapshot.fork(&self.program, delta)?;
            return fork.answer(query);
        }
        self.snapshot.query(query)
    }

    /// Renders the session state — grounded store, generation, last
    /// delta outcome, warm-start status, and the partition schedule — in
    /// the same tree style as the grounding and scheduling `EXPLAIN`
    /// reports.
    pub fn explain(&self) -> String {
        let g = self.snapshot.grounding();
        let mut out = format!(
            "Session: {} clauses over {} atoms, {} evidence tuples, {} map call(s)\n",
            g.mrf.clauses().len(),
            g.registry.len(),
            self.evidence().len(),
            self.maps_run,
        );
        out.push_str(&format!(
            "├─ generation: {} ({} grounding run(s) in this engine lineage)\n",
            self.snapshot.generation(),
            self.snapshot.counters().groundings(),
        ));
        out.push_str(&format!(
            "├─ grounding: {:?} ({} closure rounds, {} queries)\n",
            g.stats.wall, g.stats.rounds, g.stats.queries
        ));
        match &self.last_apply {
            None => out.push_str("├─ last delta: none\n"),
            Some(a) if a.incremental => {
                let p = a.patch.unwrap_or_default();
                out.push_str(&format!(
                    "├─ last delta: incremental patch in {:?} ({} change(s): {} clamped, {} satisfied, {} emptied, {} shrunk, {} cascaded, {} orphaned)\n",
                    a.wall,
                    a.changes,
                    p.clamped_atoms,
                    p.satisfied_clauses,
                    p.emptied_clauses,
                    p.shrunk_clauses,
                    p.cascaded_clauses,
                    p.orphaned_atoms,
                ));
            }
            Some(a) => out.push_str(&format!(
                "├─ last delta: full re-ground in {:?} ({})\n",
                a.wall,
                a.reason.as_deref().unwrap_or("unknown reason"),
            )),
        }
        out.push_str(&match &self.warm {
            Some(w) => format!(
                "├─ warm start: {} atoms carried from the last map\n",
                w.len()
            ),
            None => "├─ warm start: cold (no map run yet)\n".to_string(),
        });
        let schedule = Scheduler::with_schedule(
            &g.mrf,
            self.snapshot.schedule(),
            self.config().scheduler_config().paid_by_flips(),
        )
        .explain();
        out.push_str("└─ ");
        out.push_str(&schedule.replace('\n', "\n   "));
        out.truncate(out.trim_end().len());
        out.push('\n');
        out
    }
}

impl Tuffy {
    /// Opens a long-lived [`Session`]: grounds the program once so that
    /// repeated and incrementally-updated queries skip straight to
    /// search. The first `map()` of a fresh session produces exactly
    /// what the one-shot pipeline did.
    ///
    /// **Deprecation note:** this is now sugar for an engine of one —
    /// `tuffy.build_engine()?.open_session()`, bit-identical to the
    /// pre-engine behavior. Prefer [`Tuffy::build_engine`] when more
    /// than one caller (or thread) will query the same program: the
    /// engine grounds once and serves any number of sessions and
    /// [`Snapshot`]s concurrently, where repeated `open_session()` calls
    /// on `Tuffy` re-ground every time.
    pub fn open_session(&self) -> Result<Session, MlnError> {
        Ok(self.build_engine()?.open_session())
    }
}
