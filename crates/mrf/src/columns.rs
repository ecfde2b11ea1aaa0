//! The persisted form of an [`Mrf`]: the source columns a store lays out
//! on disk, and the validating constructor that rebuilds the derived ones.

use crate::build::occurrence_csr;
use crate::cost::Cost;
use crate::graph::{ClauseProvenance, Mrf, Occurrence, PackedViolation, RuleOrigin};
use crate::lit::Lit;
use std::sync::Arc;
use tuffy_mln::weight::Weight;

impl Mrf {
    /// Exports the MRF's *persisted* columns — the minimal set from which
    /// [`Mrf::from_columns`] reconstructs the rest (packed violation
    /// records and the occurrence CSR are derived, not stored). Cheap:
    /// every field is an `Arc` bump.
    pub fn export_columns(&self) -> MrfColumns {
        MrfColumns {
            num_atoms: self.num_atoms,
            lit_start: Arc::clone(&self.lit_start),
            lit_arena: Arc::clone(&self.lit_arena),
            weights: Arc::clone(&self.weights),
            provenance: Arc::clone(&self.provenance),
            origin_start: Arc::clone(&self.origin_start),
            origin_arena: Arc::clone(&self.origin_arena),
            opaque_atoms: Arc::clone(&self.opaque_atoms),
            base_cost: self.base_cost,
        }
    }

    /// Rebuilds an [`Mrf`] from persisted columns, *validating* every
    /// structural invariant the builder normally guarantees — the input
    /// may come from a corrupted or adversarial store file, so any
    /// violation is a typed error, never a panic or an aliased index.
    /// The violation column and the occurrence CSR are re-derived
    /// deterministically (same counting sort as the builder), so a
    /// round-trip is bit-identical to the source MRF.
    pub fn from_columns(cols: MrfColumns) -> Result<Mrf, String> {
        let MrfColumns {
            num_atoms,
            lit_start,
            lit_arena,
            weights,
            provenance,
            origin_start,
            origin_arena,
            opaque_atoms,
            base_cost,
        } = cols;
        let num_clauses = weights.len();
        if lit_start.len() != num_clauses + 1 {
            return Err(format!(
                "lit_start has {} bounds for {} clauses",
                lit_start.len(),
                num_clauses
            ));
        }
        if provenance.len() != num_clauses {
            return Err(format!(
                "provenance column has {} rows for {} clauses",
                provenance.len(),
                num_clauses
            ));
        }
        if opaque_atoms.len() != num_atoms {
            return Err(format!(
                "opaque column has {} rows for {} atoms",
                opaque_atoms.len(),
                num_atoms
            ));
        }
        if num_clauses as u64 > Occurrence::MAX_CLAUSE as u64 {
            return Err("clause count exceeds packed-occurrence capacity".into());
        }
        if lit_arena.len() as u64 > u32::MAX as u64 {
            return Err("literal arena exceeds u32 bounds".into());
        }
        if lit_start[0] != 0 {
            return Err("lit_start does not begin at 0".into());
        }
        if lit_start[num_clauses] as usize != lit_arena.len() {
            return Err(format!(
                "lit_start ends at {} but the arena holds {} literals",
                lit_start[num_clauses],
                lit_arena.len()
            ));
        }
        for ci in 0..num_clauses {
            let (s, e) = (lit_start[ci], lit_start[ci + 1]);
            if s > e {
                return Err(format!("clause {ci} has descending bounds {s}..{e}"));
            }
            if s == e {
                return Err(format!(
                    "clause {ci} is empty (empty clauses fold into base_cost)"
                ));
            }
            let lits = &lit_arena[s as usize..e as usize];
            for pair in lits.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(format!("clause {ci} literals not strictly sorted"));
                }
                if pair[0].atom() == pair[1].atom() {
                    return Err(format!("clause {ci} is a tautology or repeats an atom"));
                }
            }
            // `Soft(0.0)` is allowed: `reweight` cannot drop a clause
            // whose learned weights cancel (the structure is shared), so
            // persisted relearned generations may carry neutral clauses.
            // NaN is not: it is sign-less *and* non-finite, and the
            // `is_finite` check below rejects it.
            if let Weight::Soft(w) = weights[ci] {
                if !w.is_finite() {
                    return Err(format!(
                        "clause {ci} has non-finite soft weight (builder normalizes to hard)"
                    ));
                }
            }
        }
        for (i, l) in lit_arena.iter().enumerate() {
            if l.atom() as usize >= num_atoms {
                return Err(format!(
                    "literal {i} references atom {} past num_atoms {num_atoms}",
                    l.atom()
                ));
            }
        }
        if !base_cost.soft.is_finite() || base_cost.soft < 0.0 {
            return Err("base_cost soft component is not a finite non-negative value".into());
        }
        if origin_start.len() != num_clauses + 1 {
            return Err(format!(
                "origin_start has {} bounds for {} clauses",
                origin_start.len(),
                num_clauses
            ));
        }
        if origin_start[0] != 0 {
            return Err("origin_start does not begin at 0".into());
        }
        if origin_start[num_clauses] as usize != origin_arena.len() {
            return Err(format!(
                "origin_start ends at {} but the arena holds {} origins",
                origin_start[num_clauses],
                origin_arena.len()
            ));
        }
        for ci in 0..num_clauses {
            let (s, e) = (origin_start[ci], origin_start[ci + 1]);
            if s > e {
                return Err(format!("clause {ci} has descending origin bounds {s}..{e}"));
            }
            let origins = &origin_arena[s as usize..e as usize];
            for pair in origins.windows(2) {
                if pair[0].rule >= pair[1].rule {
                    return Err(format!("clause {ci} origins not strictly sorted by rule"));
                }
            }
            for o in origins {
                if !o.share.is_finite() || o.share <= 0.0 {
                    return Err(format!(
                        "clause {ci} origin of rule {} has bad share {}",
                        o.rule, o.share
                    ));
                }
            }
        }
        // Derived columns: same construction as `ClauseColumns::assemble`.
        let violation: Vec<PackedViolation> =
            weights.iter().map(|&w| PackedViolation::of(w)).collect();
        let (occ_start, occ_arena) = occurrence_csr(num_atoms, &lit_start, &lit_arena);
        Ok(Mrf {
            num_atoms,
            lit_start,
            lit_arena,
            weights,
            violation: violation.into(),
            provenance,
            occ_start: occ_start.into(),
            occ_arena: occ_arena.into(),
            origin_start,
            origin_arena,
            opaque_atoms,
            base_cost,
        })
    }
}

/// The persisted columns of an [`Mrf`] — what `tuffy-store` lays out as
/// raw little-endian segments on disk. Only *source* columns appear: the
/// packed violation records and the occurrence CSR are functions of the
/// weight and literal columns and are rebuilt on load by
/// [`Mrf::from_columns`], which also re-validates every structural
/// invariant (a store file is untrusted input).
#[derive(Clone, Debug)]
pub struct MrfColumns {
    /// Number of atoms (`0..num_atoms`).
    pub num_atoms: usize,
    /// Literal-arena bounds, `num_clauses + 1` entries starting at 0.
    pub lit_start: Arc<[u32]>,
    /// All clause literals, clause by clause, sorted within each clause.
    pub lit_arena: Arc<[Lit]>,
    /// Per-clause merged weight.
    pub weights: Arc<[Weight]>,
    /// Per-clause contribution split.
    pub provenance: Arc<[ClauseProvenance]>,
    /// Rule-origin bounds, `num_clauses + 1` entries starting at 0.
    pub origin_start: Arc<[u32]>,
    /// Rule origins, clause by clause, sorted by rule index within each.
    pub origin_arena: Arc<[RuleOrigin]>,
    /// Per-atom incremental-patch opacity flags.
    pub opaque_atoms: Arc<[bool]>,
    /// Constant cost from clauses already decided by evidence.
    pub base_cost: Cost,
}
