//! Inference results and reports.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use tuffy_grounder::{GroundingResult, GroundingStats};
use tuffy_mln::fxhash::FxHashMap;
use tuffy_mln::ground::{AtomRef, GroundAtom};
use tuffy_mln::program::MlnProgram;
use tuffy_mrf::{AtomId, Cost};
use tuffy_search::TimeCostTrace;

/// Everything measured during one inference run (feeds the experiment
/// harness).
#[derive(Clone, Debug, Default)]
pub struct InferenceReport {
    /// Grounding statistics.
    pub grounding: GroundingStats,
    /// Ground clauses in the MRF.
    pub clauses: usize,
    /// Unknown atoms in the MRF.
    pub atoms: usize,
    /// Connected components containing at least one clause (Table 1's
    /// "#components").
    pub components: usize,
    /// Partitions the inference scheduler ran (0 when partitioning is
    /// disabled; equals the nontrivial component count without a memory
    /// budget).
    pub partitions: usize,
    /// Memory-budgeted FFD bins the partitions were packed into (0 when
    /// partitioning is disabled).
    pub bins: usize,
    /// Gauss-Seidel rounds the scheduler actually executed (0 when
    /// partitioning is disabled).
    pub rounds: usize,
    /// Total search flips.
    pub flips: u64,
    /// Search wall time (the bench's Tuffy-mm baseline adds its simulated
    /// I/O).
    pub search_time: Duration,
    /// Peak bytes of in-memory search state.
    pub search_ram: usize,
    /// Bytes of the ground clause table (Table 4's "clause table").
    pub clause_table_bytes: usize,
    /// Effective flips per second (Table 3).
    pub flips_per_sec: f64,
}

/// Appends a ground atom to `out` in evidence syntax: `pred(arg1,
/// arg2)`. Takes a `&GroundAtom` or a borrowed [`AtomRef`] (as an
/// [`EvidenceSet`](tuffy_mln::EvidenceSet)'s iterator yields). The one
/// place atoms are rendered: every answer type goes through it.
pub fn render_atom_into<'a>(out: &mut String, program: &MlnProgram, atom: impl Into<AtomRef<'a>>) {
    let atom = atom.into();
    out.push_str(program.predicate_name(atom.predicate));
    out.push('(');
    for (i, &s) in atom.args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(program.symbols.resolve(s));
    }
    out.push(')');
}

/// Renders a ground atom in evidence syntax: `pred(arg1, arg2)`, in one
/// allocation of the exact length ([`render_atom_into`] into a new
/// string).
pub fn render_atom<'a>(program: &MlnProgram, atom: impl Into<AtomRef<'a>>) -> String {
    let atom = atom.into();
    let args: usize = atom
        .args
        .iter()
        .map(|&s| program.symbols.resolve(s).len() + 2)
        .sum();
    let name = program.predicate_name(atom.predicate).len();
    let mut out = String::with_capacity(name + 2 + args.saturating_sub(2));
    render_atom_into(&mut out, program, atom);
    out
}

/// The result of MAP inference: a most-likely world.
///
/// The world is kept as the ids of its true atoms, with the generation
/// that answered (its program and grounded store, shared, not copied):
/// names are resolved only when an accessor asks for them.
pub struct MapResult {
    program: Arc<MlnProgram>,
    grounding: Arc<GroundingResult>,
    /// The atoms inferred true, ascending.
    true_ids: Vec<AtomId>,
    /// [`MapResult::true_atoms`], built on its first call.
    true_atoms: OnceLock<Vec<GroundAtom>>,
    /// The cost of the returned world (§2.2, Equation 1).
    pub cost: Cost,
    /// The best-cost-over-time trace (Figures 3–6).
    pub trace: TimeCostTrace,
    /// Run measurements.
    pub report: InferenceReport,
}

impl fmt::Debug for MapResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MapResult")
            .field("true_ids", &self.true_ids)
            .field("cost", &self.cost)
            .field("trace", &self.trace)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

impl MapResult {
    /// The answer `truth` (one entry per atom of `grounding`'s registry)
    /// gives; `program` resolves the registry's symbols.
    pub(crate) fn new(
        program: Arc<MlnProgram>,
        grounding: Arc<GroundingResult>,
        truth: &[bool],
        cost: Cost,
        trace: TimeCostTrace,
        report: InferenceReport,
    ) -> MapResult {
        let true_ids = (0..truth.len() as AtomId)
            .filter(|&i| truth[i as usize])
            .collect();
        MapResult {
            program,
            grounding,
            true_ids,
            true_atoms: OnceLock::new(),
            cost,
            trace,
            report,
        }
    }

    /// The predicate and arguments of every true atom, in id order.
    fn atom_refs(&self) -> impl ExactSizeIterator<Item = AtomRef<'_>> {
        let registry = &self.grounding.registry;
        self.true_ids.iter().map(|&id| registry.atom_ref(id))
    }

    /// All query atoms inferred true, as ground atoms (built on the first
    /// call).
    pub fn true_atoms(&self) -> &[GroundAtom] {
        self.true_atoms
            .get_or_init(|| self.atom_refs().map(AtomRef::to_ground_atom).collect())
    }

    /// Every true atom rendered on its own ([`render_atom`]), in id order.
    pub fn render_true_atoms(&self) -> impl ExactSizeIterator<Item = String> + '_ {
        self.atom_refs().map(|a| render_atom(&self.program, a))
    }

    /// The inferred-true tuples of one predicate, as argument string
    /// vectors (the paper's query model: the system fills in the missing
    /// relation). Returns `None` for a predicate the program never
    /// declared.
    pub fn true_atoms_of(&self, predicate: &str) -> Option<Vec<Vec<String>>> {
        let pred = self.program.predicate_by_name(predicate)?;
        let symbols = &self.program.symbols;
        Some(
            self.atom_refs()
                .filter(|a| a.predicate == pred)
                .map(|a| a.args.iter().map(|&s| symbols.resolve(s).to_string()))
                .map(Iterator::collect)
                .collect(),
        )
    }

    /// Renders the inferred world as evidence-format lines.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for atom in self.atom_refs() {
            render_atom_into(&mut out, &self.program, atom);
            out.push('\n');
        }
        out
    }
}

/// The result of marginal inference.
#[derive(Debug)]
pub struct MarginalResult {
    /// `(atom, P(atom = true))` pairs for every query atom.
    pub marginals: Vec<(GroundAtom, f64)>,
    /// Rendered atom names aligned with `marginals`.
    pub names: Vec<String>,
    /// Run measurements.
    pub report: InferenceReport,
    /// Rendered name → index into `marginals`, built once at
    /// construction so [`MarginalResult::probability_of`] is a hash
    /// lookup instead of a linear scan per call.
    index: FxHashMap<String, usize>,
}

impl MarginalResult {
    /// Assembles a result, indexing the marginals by rendered atom name
    /// up front (repeated [`MarginalResult::probability_of`] lookups
    /// never re-scan the name list).
    pub(crate) fn new(
        marginals: Vec<(GroundAtom, f64)>,
        names: Vec<String>,
        report: InferenceReport,
    ) -> MarginalResult {
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        MarginalResult {
            marginals,
            names,
            report,
            index,
        }
    }

    /// The marginal probability of a specific atom, if it was a query
    /// atom. O(1): answered from the name index built at construction.
    pub fn probability_of(&self, predicate: &str, args: &[&str]) -> Option<f64> {
        let rendered = format!("{predicate}({})", args.join(", "));
        self.index.get(&rendered).map(|&i| self.marginals[i].1)
    }
}

/// One entry of a [`TopKResult`].
#[derive(Clone, Debug)]
pub struct TopEntry {
    /// The ground atom.
    pub atom: GroundAtom,
    /// Its rendered name (`pred(arg, ...)`).
    pub name: String,
    /// Its marginal probability.
    pub probability: f64,
}

/// The `k` most probable atoms of one predicate
/// ([`crate::Query::top_k`]), descending by probability with ties broken
/// deterministically by atom id.
#[derive(Clone, Debug)]
pub struct TopKResult {
    /// The ranked entries (at most `k`; fewer if the predicate has fewer
    /// query atoms).
    pub entries: Vec<TopEntry>,
    /// Run measurements of the underlying marginal pass.
    pub report: InferenceReport,
}

/// The answer to one [`crate::Query`], shaped by the query kind.
#[derive(Debug)]
pub enum QueryAnswer {
    /// Answer to [`crate::Query::map`].
    Map(MapResult),
    /// Answer to [`crate::Query::marginal`].
    Marginal(MarginalResult),
    /// Answer to [`crate::Query::top_k`].
    TopK(TopKResult),
}

impl QueryAnswer {
    /// The MAP result, if this answered a MAP query.
    pub fn as_map(&self) -> Option<&MapResult> {
        match self {
            QueryAnswer::Map(r) => Some(r),
            _ => None,
        }
    }

    /// The marginal result, if this answered a marginal query.
    pub fn as_marginal(&self) -> Option<&MarginalResult> {
        match self {
            QueryAnswer::Marginal(r) => Some(r),
            _ => None,
        }
    }

    /// The top-k result, if this answered a top-k query.
    pub fn as_top_k(&self) -> Option<&TopKResult> {
        match self {
            QueryAnswer::TopK(r) => Some(r),
            _ => None,
        }
    }

    /// Unwraps a MAP answer; `None` for other kinds.
    pub fn into_map(self) -> Option<MapResult> {
        match self {
            QueryAnswer::Map(r) => Some(r),
            _ => None,
        }
    }

    /// Unwraps a marginal answer; `None` for other kinds.
    pub fn into_marginal(self) -> Option<MarginalResult> {
        match self {
            QueryAnswer::Marginal(r) => Some(r),
            _ => None,
        }
    }

    /// Unwraps a top-k answer; `None` for other kinds.
    pub fn into_top_k(self) -> Option<TopKResult> {
        match self {
            QueryAnswer::TopK(r) => Some(r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuffy_mln::schema::PredicateId;
    use tuffy_mln::symbols::Symbol;

    fn synthetic(n: u32) -> MarginalResult {
        let marginals: Vec<(GroundAtom, f64)> = (0..n)
            .map(|i| {
                (
                    GroundAtom::new(PredicateId(0), vec![Symbol(i)]),
                    f64::from(i) / f64::from(n),
                )
            })
            .collect();
        let names = (0..n).map(|i| format!("cat(P{i})")).collect();
        MarginalResult::new(marginals, names, InferenceReport::default())
    }

    #[test]
    fn probability_lookup_hits_every_entry() {
        let r = synthetic(100);
        for i in 0..100u32 {
            let p = r.probability_of("cat", &[&format!("P{i}")]).unwrap();
            assert!((p - f64::from(i) / 100.0).abs() < 1e-12);
        }
        assert!(r.probability_of("cat", &["P100"]).is_none());
        assert!(r.probability_of("dog", &["P1"]).is_none());
    }

    /// Repeated lookups must not re-scan the name list: the index is
    /// built once at construction, so lookups keep answering even after
    /// the (public) name vector is emptied.
    #[test]
    fn probability_lookup_does_not_rescan_names() {
        let mut r = synthetic(10);
        assert!(r.probability_of("cat", &["P3"]).is_some());
        r.names.clear();
        let p = r.probability_of("cat", &["P3"]).unwrap();
        assert!((p - 0.3).abs() < 1e-12);
    }
}
