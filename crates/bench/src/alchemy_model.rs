//! Modeling Alchemy's memory footprint (Tables 4–5).
//!
//! The paper reports Alchemy's resident set (e.g. 2.8 GB on RC against a
//! 4.8 MB clause table). That blow-up comes from Alchemy materializing
//! per-ground-atom and per-ground-clause C++ objects for the *entire*
//! atom space of every open predicate, plus intermediate grounding
//! structures — not from the ground clauses themselves. Our top-down
//! grounder measures its own (leaner) footprint directly; for the
//! Alchemy-RAM columns we model the object overhead explicitly so the
//! paper's contrast is visible at any scale:
//!
//! * every possible ground atom of every open predicate costs one atom
//!   object (`ATOM_OBJECT_BYTES`);
//! * every ground clause costs a clause object plus per-literal storage;
//! * hash/dedup structures roughly double the clause storage.
//!
//! The constants are calibrated to Alchemy's C++ classes (per-atom
//! `GroundPredicate` ≈ 48 B + hash entries; per-clause `GroundClause`
//! ≈ 56 B + 8 B/literal); each constant below documents its share.

use tuffy_mln::evidence::EvidenceSet;
use tuffy_mln::program::MlnProgram;
use tuffy_mrf::Mrf;

/// Modeled bytes per instantiated ground-atom object.
pub const ATOM_OBJECT_BYTES: usize = 96;
/// Modeled bytes per ground-clause object (excluding literals).
pub const CLAUSE_OBJECT_BYTES: usize = 56;
/// Modeled bytes per literal in a clause object.
pub const LITERAL_BYTES: usize = 8;
/// Hash/dedup overhead factor on clause storage.
pub const HASH_OVERHEAD: f64 = 2.0;

/// The full atom space of the open predicates: Π (domain sizes) summed
/// over open predicates, with domains merged from the program's rule
/// constants and the evidence constants.
pub fn open_atom_space(program: &MlnProgram, evidence: &EvidenceSet) -> u128 {
    let domains = evidence.merged_domains(program);
    let mut total: u128 = 0;
    for decl in &program.predicates {
        if decl.closed_world {
            continue;
        }
        let mut size: u128 = 1;
        for &ty in &decl.arg_types {
            size = size.saturating_mul(domains[ty.index()].len() as u128);
        }
        total = total.saturating_add(size);
    }
    total
}

/// Modeled Alchemy resident set for grounding + search on `mrf`.
pub fn modeled_alchemy_ram(program: &MlnProgram, evidence: &EvidenceSet, mrf: &Mrf) -> u128 {
    let atoms = open_atom_space(program, evidence).saturating_mul(ATOM_OBJECT_BYTES as u128);
    let clause_bytes = mrf
        .clauses()
        .iter()
        .map(|c| CLAUSE_OBJECT_BYTES + LITERAL_BYTES * c.lits.len())
        .sum::<usize>() as u128;
    atoms + (clause_bytes as f64 * HASH_OVERHEAD) as u128
}

/// Pretty GB/MB/KB for u128 byte counts.
pub fn human(bytes: u128) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KB * KB * KB {
        format!("{:.1} GB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.1} MB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.1} KB", b / KB)
    } else {
        format!("{bytes} B")
    }
}
