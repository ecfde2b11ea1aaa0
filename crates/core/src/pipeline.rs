//! The top-level entry point: program + evidence + configuration.
//!
//! [`Tuffy`] holds the three inputs of Figure 1 (schema/program,
//! evidence, and the run configuration) and opens [`Session`](crate::session::Session)s over
//! them — the ground-once, query-many pipeline of Appendix B.3,
//! Figure 7.

use crate::config::TuffyConfig;
use std::sync::Arc;
use tuffy_grounder::GroundingResult;
use tuffy_mln::evidence::EvidenceSet;
use tuffy_mln::parser::{parse_evidence, parse_program};
use tuffy_mln::program::MlnProgram;
use tuffy_mln::MlnError;
use tuffy_search::Scheduler;

/// A configured Tuffy instance: program + evidence + configuration.
///
/// `Tuffy` is cheap, immutable input state, shared by reference count
/// with every engine built from it; inference happens in a
/// [`Session`](crate::session::Session) obtained from [`Tuffy::open_session`], which grounds once
/// and then serves repeated [`map()`](crate::session::Session::map) and
/// [`query()`](crate::session::Session::query) calls with incremental
/// [`apply()`](crate::session::Session::apply) evidence updates.
pub struct Tuffy {
    pub(crate) program: Arc<MlnProgram>,
    pub(crate) evidence: Arc<EvidenceSet>,
    config: TuffyConfig,
}

impl Tuffy {
    /// Parses a program and evidence from source text with the default
    /// configuration.
    pub fn from_sources(program_src: &str, evidence_src: &str) -> Result<Tuffy, MlnError> {
        let mut program = parse_program(program_src)?;
        let evidence = parse_evidence(&mut program, evidence_src)?;
        Ok(Tuffy::from_parts(program, evidence))
    }

    /// Wraps an already-built program and evidence set (owned, or
    /// already behind an `Arc` to share).
    pub fn from_parts(
        program: impl Into<Arc<MlnProgram>>,
        evidence: impl Into<Arc<EvidenceSet>>,
    ) -> Tuffy {
        Tuffy {
            program: program.into(),
            evidence: evidence.into(),
            config: TuffyConfig::default(),
        }
    }

    /// Wraps an already-built program with no evidence.
    pub fn from_program(program: MlnProgram) -> Tuffy {
        Tuffy::from_parts(program, EvidenceSet::new())
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: TuffyConfig) -> Tuffy {
        self.config = config;
        self
    }

    /// The underlying program.
    pub fn program(&self) -> &MlnProgram {
        &self.program
    }

    /// The base evidence sessions start from.
    pub fn evidence(&self) -> &EvidenceSet {
        &self.evidence
    }

    /// The active configuration.
    pub fn config(&self) -> &TuffyConfig {
        &self.config
    }

    /// Renders the physical plans (`EXPLAIN`) of every grounding query
    /// under the configured optimizer lesion knobs, without executing
    /// anything: the plans the bottom-up grounder runs.
    pub fn explain_grounding(&self) -> Result<String, MlnError> {
        tuffy_grounder::explain_grounding(
            &self.program,
            &self.evidence,
            self.config.grounding,
            &self.config.optimizer,
        )
    }

    /// Renders the partition/bin-packing decisions the scheduler would
    /// make for this program (the partitioning analogue of
    /// [`Tuffy::explain_grounding`]): grounds the program, plans the
    /// schedule, and prints it without running any search.
    pub fn explain_schedule(&self) -> Result<String, MlnError> {
        let grounding = self.ground()?;
        let config = self.config.scheduler_config().paid_by_flips();
        Ok(Scheduler::new(&grounding.mrf, config).explain())
    }

    /// Grounds the program bottom-up in the RDBMS (without building an
    /// engine). Shares the engine's grounding call, so the two can never
    /// disagree.
    pub fn ground(&self) -> Result<GroundingResult, MlnError> {
        crate::snapshot::ground(&self.program, &self.evidence, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitionStrategy;
    use tuffy_search::mcsat::McSatParams;
    use tuffy_search::WalkSatParams;

    const PROGRAM: &str = r#"
        *wrote(person, paper)
        *refers(paper, paper)
        cat(paper, category)
        5 cat(p, c1), cat(p, c2) => c1 = c2
        1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
        2 cat(p1, c), refers(p1, p2) => cat(p2, c)
    "#;
    const EVIDENCE: &str = r#"
        wrote(Joe, P1)
        wrote(Joe, P2)
        refers(P1, P3)
        cat(P2, DB)
    "#;

    #[test]
    fn map_inference_classifies_papers() {
        let t = Tuffy::from_sources(PROGRAM, EVIDENCE).unwrap();
        let r = t.open_session().unwrap().map().unwrap();
        // The most likely world labels P1 and P3 as DB (cost 0).
        assert!(r.cost.is_zero(), "cost = {}", r.cost);
        let mut rows = r.true_atoms_of("cat").unwrap();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec!["P1".to_string(), "DB".to_string()],
                vec!["P3".to_string(), "DB".to_string()]
            ]
        );
        assert!(r.true_atoms_of("unknown_pred").is_none());
    }

    #[test]
    fn partition_strategies_agree_on_quality() {
        for strategy in [
            PartitionStrategy::None,
            PartitionStrategy::Components,
            PartitionStrategy::Budget(1 << 12),
        ] {
            let cfg = TuffyConfig {
                partitioning: strategy,
                search: WalkSatParams {
                    max_flips: 30_000,
                    ..Default::default()
                },
                ..Default::default()
            };
            let r = Tuffy::from_sources(PROGRAM, EVIDENCE)
                .unwrap()
                .with_config(cfg)
                .open_session()
                .unwrap()
                .map()
                .unwrap();
            assert!(r.cost.is_zero(), "{strategy:?} ended at {}", r.cost);
        }
    }

    #[test]
    fn parallel_components_work() {
        let cfg = TuffyConfig {
            threads: 4,
            ..Default::default()
        };
        let r = Tuffy::from_sources(PROGRAM, EVIDENCE)
            .unwrap()
            .with_config(cfg)
            .open_session()
            .unwrap()
            .map()
            .unwrap();
        assert!(r.cost.is_zero());
    }

    #[test]
    fn marginal_inference_runs() {
        let t = Tuffy::from_sources(PROGRAM, EVIDENCE).unwrap();
        let r = t
            .build_engine()
            .unwrap()
            .snapshot()
            .query(
                &crate::query::Query::marginal_all().with_mcsat(McSatParams {
                    samples: 100,
                    burn_in: 10,
                    sample_sat_steps: 200,
                    ..Default::default()
                }),
            )
            .unwrap()
            .into_marginal()
            .unwrap();
        // cat(P1, DB) should be likely true.
        let p = r.probability_of("cat", &["P1", "DB"]).unwrap();
        assert!(p > 0.5, "P(cat(P1,DB)) = {p}");
        // The report is populated (search time, flips, components).
        assert!(r.report.flips > 0);
        assert!(!r.report.search_time.is_zero());
        assert!(r.report.components >= 1);
    }

    #[test]
    fn report_is_populated() {
        let t = Tuffy::from_sources(PROGRAM, EVIDENCE).unwrap();
        let r = t.open_session().unwrap().map().unwrap();
        assert!(r.report.clauses > 0);
        assert!(r.report.atoms > 0);
        assert!(r.report.components >= 1);
        assert!(r.report.clause_table_bytes > 0);
        assert!(!r.trace.points().is_empty());
    }

    #[test]
    fn repeated_maps_warm_start_and_agree() {
        let t = Tuffy::from_sources(PROGRAM, EVIDENCE).unwrap();
        let mut s = t.open_session().unwrap();
        let first = s.map().unwrap();
        let second = s.map().unwrap();
        assert!(first.cost.is_zero());
        assert!(second.cost.is_zero());
        assert_eq!(first.true_atoms(), second.true_atoms());
        // The optimum is already satisfied: a warm re-map needs no flips.
        assert_eq!(second.report.flips, 0);
    }

    #[test]
    fn session_apply_updates_answers() {
        let t = Tuffy::from_sources(PROGRAM, EVIDENCE).unwrap();
        let mut s = t.open_session().unwrap();
        s.map().unwrap();
        // Assert the active atom cat(P3, DB) false. F3 (weight 2) now
        // penalizes labeling P1 — "if P1 were DB, P3 would be" — which
        // outweighs the weight-1 support for P1, so both labels go.
        let delta = s.parse_delta("!cat(P3, DB)\n").unwrap();
        let report = s.apply(&delta).unwrap();
        assert!(report.incremental, "{:?}", report.reason);
        let r = s.map().unwrap();
        assert!(r.true_atoms_of("cat").unwrap().is_empty());
        assert_eq!(r.cost.hard, 0);
        assert!((r.cost.soft - 1.0).abs() < 1e-9, "cost = {}", r.cost);
        // A from-scratch session over the merged evidence agrees.
        let fresh = Tuffy::from_parts(s.program().clone(), s.evidence().clone())
            .open_session()
            .unwrap()
            .map()
            .unwrap();
        assert_eq!(format!("{}", fresh.cost), format!("{}", r.cost));
        assert_eq!(fresh.true_atoms(), r.true_atoms());
        let text = s.explain();
        assert!(text.contains("incremental patch"), "{text}");
    }

    #[test]
    fn session_apply_falls_back_on_closed_world() {
        let t = Tuffy::from_sources(PROGRAM, EVIDENCE).unwrap();
        let mut s = t.open_session().unwrap();
        let delta = s.parse_delta("wrote(Jake, P3)\n").unwrap();
        let report = s.apply(&delta).unwrap();
        assert!(!report.incremental);
        assert!(report.reason.as_deref().unwrap().contains("closed-world"));
        assert!(s.map().unwrap().cost.is_zero());
    }
}
