//! Evidence as a first-class value, separate from the program.
//!
//! Figure 1 of the paper splits a Tuffy input into three parts — schema,
//! program, evidence — and the session API of the `tuffy` crate splits
//! them the same way: an [`MlnProgram`] is
//! the immutable schema + rules, an [`EvidenceSet`] is the mutable
//! database of observed ground atoms, and an [`EvidenceDelta`] is a batch
//! of edits (assert / retract / flip) applied between inference calls.
//! Keeping evidence out of the program is what lets a session ground
//! once and then serve many queries with incremental updates.

use crate::error::MlnError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ground::GroundAtom;
use crate::program::MlnProgram;
use crate::schema::PredicateId;
use crate::symbols::Symbol;
use std::collections::hash_map::Entry;

/// A single evidence assertion: a ground atom asserted true or false.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evidence {
    /// The asserted atom.
    pub atom: GroundAtom,
    /// `true` for positive evidence, `false` for `!atom` lines.
    pub positive: bool,
}

/// Calls `f` with `args` as raw symbol ids, copied to the stack for any
/// arity up to 8 (a probe builds no heap key).
fn with_raw_args<R>(args: &[Symbol], f: impl FnOnce(&[u32]) -> R) -> R {
    let mut buf = [0u32; 8];
    if args.len() <= buf.len() {
        for (b, s) in buf.iter_mut().zip(args) {
            *b = s.0;
        }
        f(&buf[..args.len()])
    } else {
        f(&args.iter().map(|s| s.0).collect::<Vec<u32>>())
    }
}

fn check_arity(program: &MlnProgram, atom: &GroundAtom) -> Result<(), MlnError> {
    let decl = program.predicate(atom.predicate);
    if atom.args.len() != decl.arity() {
        return Err(MlnError::general(format!(
            "evidence for `{}` has {} arguments, expected {}",
            program.predicate_name(atom.predicate),
            atom.args.len(),
            decl.arity()
        )));
    }
    Ok(())
}

/// The evidence database: ground atoms with asserted truth values, in
/// insertion order (order is preserved so grounding — and therefore
/// inference — is deterministic for a given set).
///
/// At most one assertion is stored per atom; [`EvidenceSet::add`]
/// rejects contradictions while [`EvidenceSet::apply`] (delta semantics)
/// overwrites.
///
/// This is the system's one evidence index: the grounder's emission
/// checks and its bulk load of the evidence tables read it directly
/// ([`EvidenceSet::truth_of`], [`EvidenceSet::iter`]).
#[derive(Clone, Debug, Default)]
pub struct EvidenceSet {
    items: Vec<Evidence>,
    /// Per predicate (grown on demand): argument tuple → position in
    /// `items`. Probed with a borrowed `&[u32]`.
    index: Vec<FxHashMap<Box<[u32]>, u32>>,
}

impl EvidenceSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of assertions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no assertions are stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates assertions in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Evidence> {
        self.items.iter()
    }

    /// The asserted truth of `atom`, if any.
    pub fn truth(&self, atom: &GroundAtom) -> Option<bool> {
        self.position(atom).map(|i| self.items[i].positive)
    }

    /// The asserted truth of `pred(args)` (raw symbol ids), if any.
    #[inline]
    pub fn truth_of(&self, pred: PredicateId, args: &[u32]) -> Option<bool> {
        let i = *self.index.get(pred.index())?.get(args)?;
        Some(self.items[i as usize].positive)
    }

    /// `pred`'s lookup map, grown into existence if needed.
    fn map_mut(&mut self, pred: PredicateId) -> &mut FxHashMap<Box<[u32]>, u32> {
        if self.index.len() <= pred.index() {
            self.index.resize_with(pred.index() + 1, FxHashMap::default);
        }
        &mut self.index[pred.index()]
    }

    /// Appends a new assertion (the caller checked it is absent).
    fn push(&mut self, atom: GroundAtom, positive: bool) {
        let at = self.items.len() as u32;
        let key: Box<[u32]> = atom.args.iter().map(|s| s.0).collect();
        self.map_mut(atom.predicate).insert(key, at);
        self.items.push(Evidence { atom, positive });
    }

    /// Adds one assertion (the bulk-load path used by the parser).
    /// Errors on arity mismatch or a contradiction with an existing
    /// assertion; re-asserting the same value is a no-op.
    pub fn add(
        &mut self,
        program: &MlnProgram,
        atom: GroundAtom,
        positive: bool,
    ) -> Result<(), MlnError> {
        check_arity(program, &atom)?;
        let at = self.items.len() as u32;
        let key: Box<[u32]> = atom.args.iter().map(|s| s.0).collect();
        match self.map_mut(atom.predicate).entry(key) {
            Entry::Occupied(e) => {
                let i = *e.get() as usize;
                if self.items[i].positive != positive {
                    return Err(MlnError::general(format!(
                        "contradictory evidence for `{}`",
                        program.predicate_name(atom.predicate)
                    )));
                }
            }
            Entry::Vacant(e) => {
                e.insert(at);
                self.items.push(Evidence { atom, positive });
            }
        }
        Ok(())
    }

    /// Applies a delta, returning the *net* change per touched atom
    /// (atoms whose final truth equals their initial truth are omitted).
    /// Unlike [`EvidenceSet::add`], assertions overwrite: a delta is an
    /// edit script, not a merge.
    ///
    /// Atomic: every op is validated against a staged view first, so an
    /// error (bad arity, flip of an atom with no evidence) leaves the
    /// set completely unchanged.
    pub fn apply(
        &mut self,
        program: &MlnProgram,
        delta: &EvidenceDelta,
    ) -> Result<Vec<EvidenceChange>, MlnError> {
        // Phase 1: stage. `changes` accumulates the net (before, after)
        // per atom; `first_seen` indexes it; nothing mutates yet.
        let mut first_seen: FxHashMap<&GroundAtom, usize> = FxHashMap::default();
        let mut changes: Vec<EvidenceChange> = Vec::new();
        for op in &delta.ops {
            let atom = match op {
                DeltaOp::Assert { atom, .. }
                | DeltaOp::Retract { atom }
                | DeltaOp::Flip { atom } => atom,
            };
            check_arity(program, atom)?;
            let seen = first_seen.get(atom).copied();
            let staged = match seen {
                Some(ci) => changes[ci].after,
                None => self.truth(atom),
            };
            let after = match op {
                DeltaOp::Assert { positive, .. } => Some(*positive),
                DeltaOp::Retract { .. } => None,
                DeltaOp::Flip { .. } => {
                    let cur = staged.ok_or_else(|| {
                        MlnError::general(format!(
                            "cannot flip `{}`: atom has no evidence",
                            program.predicate_name(atom.predicate)
                        ))
                    })?;
                    Some(!cur)
                }
            };
            match seen {
                Some(ci) => changes[ci].after = after,
                None => {
                    first_seen.insert(atom, changes.len());
                    changes.push(EvidenceChange {
                        atom: atom.clone(),
                        before: staged,
                        after,
                    });
                }
            }
        }
        changes.retain(|c| c.before != c.after);

        // Phase 2: commit the net changes (infallible). Each atom has one
        // net change, so `before` says whether it is in the set.
        let mut retracted = false;
        for ch in &changes {
            match (ch.before, ch.after) {
                (None, Some(v)) => self.push(ch.atom.clone(), v),
                (Some(_), Some(v)) => {
                    let i = self.position(&ch.atom).expect("asserted atom is indexed");
                    self.items[i].positive = v;
                }
                (Some(_), None) => {
                    let map = &mut self.index[ch.atom.predicate.index()];
                    with_raw_args(&ch.atom.args, |args| map.remove(args));
                    retracted = true;
                }
                (None, None) => unreachable!("net no-ops were dropped"),
            }
        }
        if retracted {
            // Keep the items still indexed, and renumber their positions.
            let index = &mut self.index;
            let mut next = 0u32;
            self.items.retain(|e| {
                let map = &mut index[e.atom.predicate.index()];
                match with_raw_args(&e.atom.args, |args| map.get_mut(args)) {
                    Some(at) => {
                        *at = next;
                        next += 1;
                        true
                    }
                    None => false,
                }
            });
        }
        Ok(changes)
    }

    /// Position of `atom` in `items`, if asserted.
    fn position(&self, atom: &GroundAtom) -> Option<usize> {
        let map = self.index.get(atom.predicate.index())?;
        with_raw_args(&atom.args, |args| map.get(args).map(|&i| i as usize))
    }

    /// Per-type constant domains of `program` extended with this set's
    /// constants — what grounding actually ranges over. Domains are
    /// sorted for determinism.
    pub fn merged_domains(&self, program: &MlnProgram) -> Vec<Vec<Symbol>> {
        let mut sets: Vec<FxHashSet<Symbol>> = program
            .domains
            .iter()
            .map(|d| d.iter().copied().collect())
            .collect();
        for ev in &self.items {
            let decl = program.predicate(ev.atom.predicate);
            for (arg, &ty) in ev.atom.args.iter().zip(decl.arg_types.iter()) {
                sets[ty.index()].insert(*arg);
            }
        }
        sets.into_iter()
            .map(|s| {
                let mut v: Vec<Symbol> = s.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    /// Validates every assertion's arity against the program schema.
    pub fn validate(&self, program: &MlnProgram) -> Result<(), MlnError> {
        for ev in &self.items {
            check_arity(program, &ev.atom)?;
        }
        Ok(())
    }
}

/// One edit in an [`EvidenceDelta`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Assert the atom true or false, overwriting any prior assertion.
    Assert {
        /// The edited atom.
        atom: GroundAtom,
        /// Asserted truth value.
        positive: bool,
    },
    /// Remove any assertion about the atom (it becomes a query atom).
    Retract {
        /// The edited atom.
        atom: GroundAtom,
    },
    /// Invert the atom's current assertion; an error if it has none.
    Flip {
        /// The edited atom.
        atom: GroundAtom,
    },
}

/// A batch of evidence edits applied between inference calls
/// ([`EvidenceSet::apply`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvidenceDelta {
    /// The edits, applied in order.
    pub ops: Vec<DeltaOp>,
}

impl EvidenceDelta {
    /// Empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of edits.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the delta has no edits.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends an assert-true edit.
    pub fn assert_true(&mut self, atom: GroundAtom) -> &mut Self {
        self.ops.push(DeltaOp::Assert {
            atom,
            positive: true,
        });
        self
    }

    /// Appends an assert-false edit.
    pub fn assert_false(&mut self, atom: GroundAtom) -> &mut Self {
        self.ops.push(DeltaOp::Assert {
            atom,
            positive: false,
        });
        self
    }

    /// Appends a retract edit.
    pub fn retract(&mut self, atom: GroundAtom) -> &mut Self {
        self.ops.push(DeltaOp::Retract { atom });
        self
    }

    /// Appends a flip edit.
    pub fn flip(&mut self, atom: GroundAtom) -> &mut Self {
        self.ops.push(DeltaOp::Flip { atom });
        self
    }
}

/// The net effect of a delta on one atom: its asserted truth before and
/// after ([`None`] = no assertion, i.e. a query atom).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvidenceChange {
    /// The edited atom.
    pub atom: GroundAtom,
    /// Asserted truth before the delta.
    pub before: Option<bool>,
    /// Asserted truth after the delta.
    pub after: Option<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> MlnProgram {
        crate::parser::parse_program("*wrote(person, paper)\ncat(paper, topic)\n").unwrap()
    }

    fn atom(p: &mut MlnProgram, pred: &str, args: &[&str]) -> GroundAtom {
        let pred = p.predicate_by_name(pred).unwrap();
        let args = args.iter().map(|a| p.symbols.intern(a)).collect();
        GroundAtom::new(pred, args)
    }

    #[test]
    fn add_rejects_contradiction_and_dedups() {
        let mut p = program();
        let a = atom(&mut p, "cat", &["P1", "Db"]);
        let mut set = EvidenceSet::new();
        set.add(&p, a.clone(), true).unwrap();
        set.add(&p, a.clone(), true).unwrap(); // same value: no-op
        assert_eq!(set.len(), 1);
        assert!(set.add(&p, a.clone(), false).is_err());
        assert_eq!(set.truth(&a), Some(true));
    }

    #[test]
    fn add_rejects_bad_arity() {
        let mut p = program();
        let pred = p.predicate_by_name("wrote").unwrap();
        let joe = p.symbols.intern("Joe");
        let mut set = EvidenceSet::new();
        assert!(set.add(&p, GroundAtom::new(pred, vec![joe]), true).is_err());
    }

    #[test]
    fn apply_overwrites_retracts_and_flips() {
        let mut p = program();
        let a = atom(&mut p, "cat", &["P1", "Db"]);
        let b = atom(&mut p, "cat", &["P2", "Db"]);
        let mut set = EvidenceSet::new();
        set.add(&p, a.clone(), true).unwrap();
        set.add(&p, b.clone(), true).unwrap();

        let mut d = EvidenceDelta::new();
        d.flip(a.clone()).retract(b.clone());
        let changes = set.apply(&p, &d).unwrap();
        assert_eq!(set.truth(&a), Some(false));
        assert_eq!(set.truth(&b), None);
        assert_eq!(set.len(), 1);
        assert_eq!(changes.len(), 2);
        assert!(changes.contains(&EvidenceChange {
            atom: a.clone(),
            before: Some(true),
            after: Some(false)
        }));
        assert!(changes.contains(&EvidenceChange {
            atom: b.clone(),
            before: Some(true),
            after: None
        }));
    }

    #[test]
    fn apply_reports_net_change_only() {
        let mut p = program();
        let a = atom(&mut p, "cat", &["P1", "Db"]);
        let mut set = EvidenceSet::new();
        set.add(&p, a.clone(), true).unwrap();
        // flip then flip back: net no-op.
        let mut d = EvidenceDelta::new();
        d.flip(a.clone()).flip(a.clone());
        let changes = set.apply(&p, &d).unwrap();
        assert!(changes.is_empty());
        assert_eq!(set.truth(&a), Some(true));
    }

    #[test]
    fn retract_then_reassert_keeps_one_copy() {
        let mut p = program();
        let a = atom(&mut p, "cat", &["P1", "Db"]);
        let mut set = EvidenceSet::new();
        set.add(&p, a.clone(), true).unwrap();
        let mut d = EvidenceDelta::new();
        d.retract(a.clone()).assert_false(a.clone());
        let changes = set.apply(&p, &d).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.truth(&a), Some(false));
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].before, Some(true));
        assert_eq!(changes[0].after, Some(false));
    }

    #[test]
    fn flip_of_unknown_atom_errors() {
        let mut p = program();
        let a = atom(&mut p, "cat", &["P9", "Db"]);
        let mut set = EvidenceSet::new();
        let mut d = EvidenceDelta::new();
        d.flip(a);
        assert!(set.apply(&p, &d).is_err());
    }

    #[test]
    fn failed_apply_leaves_the_set_untouched() {
        // A later op's error must not leave earlier ops applied — a
        // half-applied delta would desynchronize a session's evidence
        // from its grounded store.
        let mut p = program();
        let a = atom(&mut p, "cat", &["P1", "Db"]);
        let b = atom(&mut p, "cat", &["P2", "Db"]);
        let ghost = atom(&mut p, "cat", &["P9", "Db"]);
        let mut set = EvidenceSet::new();
        set.add(&p, a.clone(), true).unwrap();
        let mut d = EvidenceDelta::new();
        d.assert_true(b.clone()).flip(a.clone()).flip(ghost);
        assert!(set.apply(&p, &d).is_err());
        assert_eq!(set.len(), 1);
        assert_eq!(set.truth(&a), Some(true), "flip must not have landed");
        assert_eq!(set.truth(&b), None, "assert must not have landed");
    }

    #[test]
    fn flip_sees_earlier_staged_ops() {
        // A flip after an assert in the same delta flips the staged
        // value, matching sequential semantics.
        let mut p = program();
        let a = atom(&mut p, "cat", &["P1", "Db"]);
        let mut set = EvidenceSet::new();
        let mut d = EvidenceDelta::new();
        d.assert_true(a.clone()).flip(a.clone());
        let changes = set.apply(&p, &d).unwrap();
        assert_eq!(set.truth(&a), Some(false));
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].after, Some(false));
    }

    #[test]
    fn merged_domains_include_evidence_constants() {
        let mut p = program();
        let a = atom(&mut p, "wrote", &["Joe", "P1"]);
        let mut set = EvidenceSet::new();
        set.add(&p, a, true).unwrap();
        let domains = set.merged_domains(&p);
        let joe = p.symbols.get("Joe").unwrap();
        let p1 = p.symbols.get("P1").unwrap();
        assert_eq!(domains[0], vec![joe]);
        assert_eq!(domains[1], vec![p1]);
    }
}
