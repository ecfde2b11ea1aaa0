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
//!
//! The set is stored like the paper's atom relations `R_P(args, truth)`
//! (§3.1): flat columns in insertion order (predicate, argument bounds,
//! one argument arena, truth) with one [`SliceIndex`] per predicate over
//! the arena. An assertion costs no allocation of its own, a lookup is
//! one tag check plus one arena compare, and cloning or dropping a set
//! frees a handful of blocks whatever its size.

use crate::error::MlnError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ground::{AtomRef, GroundAtom};
use crate::program::MlnProgram;
use crate::schema::PredicateId;
use crate::slice_index::{slice_tag, SliceIndex};
use crate::symbols::Symbol;

/// A single evidence assertion: a ground atom asserted true or false.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evidence {
    /// The asserted atom.
    pub atom: GroundAtom,
    /// `true` for positive evidence, `false` for `!atom` lines.
    pub positive: bool,
}

/// One assertion of an [`EvidenceSet`], borrowed from its columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvidenceRef<'a> {
    /// The asserted atom.
    pub atom: AtomRef<'a>,
    /// `true` for positive evidence, `false` for `!atom` lines.
    pub positive: bool,
}

impl EvidenceRef<'_> {
    /// An owned copy.
    pub fn to_evidence(self) -> Evidence {
        Evidence {
            atom: self.atom.to_ground_atom(),
            positive: self.positive,
        }
    }
}

fn check_arity(program: &MlnProgram, pred: PredicateId, arity: usize) -> Result<(), MlnError> {
    let decl = program.predicate(pred);
    if arity != decl.arity() {
        return Err(MlnError::general(format!(
            "evidence for `{}` has {} arguments, expected {}",
            program.predicate_name(pred),
            arity,
            decl.arity()
        )));
    }
    Ok(())
}

fn tag_of(args: &[Symbol]) -> u32 {
    slice_tag(args.iter().map(|s| s.0))
}

/// Arguments of row `i` of an arena with bounds `start`.
#[inline]
fn row<'a>(start: &[u32], args: &'a [Symbol], i: usize) -> &'a [Symbol] {
    &args[start[i] as usize..start[i + 1] as usize]
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
#[derive(Clone, Debug)]
pub struct EvidenceSet {
    /// Predicate of each assertion.
    preds: Vec<PredicateId>,
    /// Bounds of each assertion's arguments in `args`: `len + 1`
    /// entries starting at 0.
    start: Vec<u32>,
    args: Vec<Symbol>,
    /// Asserted truth of each assertion.
    truth: Vec<bool>,
    /// Per predicate (grown on demand): argument slice → row.
    index: Vec<SliceIndex>,
}

impl Default for EvidenceSet {
    fn default() -> EvidenceSet {
        EvidenceSet {
            preds: Vec::new(),
            start: vec![0],
            args: Vec::new(),
            truth: Vec::new(),
            index: Vec::new(),
        }
    }
}

impl EvidenceSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of assertions.
    pub fn len(&self) -> usize {
        self.truth.len()
    }

    /// Whether no assertions are stored.
    pub fn is_empty(&self) -> bool {
        self.truth.is_empty()
    }

    /// Iterates assertions in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = EvidenceRef<'_>> {
        (0..self.len()).map(|i| EvidenceRef {
            atom: AtomRef {
                predicate: self.preds[i],
                args: row(&self.start, &self.args, i),
            },
            positive: self.truth[i],
        })
    }

    /// The asserted truth of `atom`, if any.
    pub fn truth(&self, atom: &GroundAtom) -> Option<bool> {
        self.position(atom.predicate, &atom.args)
            .map(|i| self.truth[i])
    }

    /// The asserted truth of `pred(args)` (raw symbol ids), if any.
    #[inline]
    pub fn truth_of(&self, pred: PredicateId, args: &[u32]) -> Option<bool> {
        let tag = slice_tag(args.iter().copied());
        let i = self.index.get(pred.index())?.get(tag, |i| {
            let have = row(&self.start, &self.args, i as usize);
            have.len() == args.len() && have.iter().zip(args).all(|(s, &a)| s.0 == a)
        })?;
        Some(self.truth[i as usize])
    }

    /// Row of `pred(args)`, if asserted.
    fn position(&self, pred: PredicateId, args: &[Symbol]) -> Option<usize> {
        let index = self.index.get(pred.index())?;
        index
            .get(tag_of(args), |i| {
                row(&self.start, &self.args, i as usize) == args
            })
            .map(|i| i as usize)
    }

    /// `pred`'s index, grown into existence if needed.
    fn index_mut(&mut self, pred: PredicateId) -> &mut SliceIndex {
        if self.index.len() <= pred.index() {
            self.index
                .resize_with(pred.index() + 1, SliceIndex::default);
        }
        &mut self.index[pred.index()]
    }

    /// Appends a row (the caller has indexed it, or will).
    fn push_row(&mut self, pred: PredicateId, args: &[Symbol], positive: bool) {
        self.preds.push(pred);
        self.args.extend_from_slice(args);
        let end = u32::try_from(self.args.len()).expect("evidence arena exceeds u32 bounds");
        self.start.push(end);
        self.truth.push(positive);
    }

    /// Adds one assertion (the bulk-load path used by the parser),
    /// copying the atom's arguments into the arena. Errors on arity
    /// mismatch or a contradiction with an existing assertion;
    /// re-asserting the same value is a no-op.
    pub fn add<'a>(
        &mut self,
        program: &MlnProgram,
        atom: impl Into<AtomRef<'a>>,
        positive: bool,
    ) -> Result<(), MlnError> {
        let AtomRef { predicate, args } = atom.into();
        check_arity(program, predicate, args.len())?;
        let next = self.len() as u32;
        self.index_mut(predicate);
        let (start, arena) = (&self.start, &self.args);
        let found = self.index[predicate.index()].get_or_insert(tag_of(args), next, |i| {
            row(start, arena, i as usize) == args
        });
        match found {
            Some(i) if self.truth[i as usize] != positive => Err(MlnError::general(format!(
                "contradictory evidence for `{}`",
                program.predicate_name(predicate)
            ))),
            Some(_) => Ok(()),
            None => {
                self.push_row(predicate, args, positive);
                Ok(())
            }
        }
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
            check_arity(program, atom.predicate, atom.args.len())?;
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
        let mut retracted: Vec<bool> = Vec::new();
        for ch in &changes {
            let (pred, args) = (ch.atom.predicate, &ch.atom.args[..]);
            match (ch.before, ch.after) {
                (None, Some(v)) => {
                    let next = self.len() as u32;
                    self.index_mut(pred).insert_new(tag_of(args), next);
                    self.push_row(pred, args, v);
                }
                (Some(_), Some(v)) => {
                    let i = self.position(pred, args).expect("asserted atom is indexed");
                    self.truth[i] = v;
                }
                (Some(_), None) => {
                    let i = self.position(pred, args).expect("asserted atom is indexed");
                    retracted.resize(self.len(), false);
                    retracted[i] = true;
                }
                (None, None) => unreachable!("net no-ops were dropped"),
            }
        }
        if !retracted.is_empty() {
            retracted.resize(self.len(), false);
            self.remove_rows(&retracted);
        }
        Ok(changes)
    }

    /// Drops the rows `dead` marks, keeping the others in order, and
    /// re-indexes the rows under their new positions.
    fn remove_rows(&mut self, dead: &[bool]) {
        let mut kept = 0;
        let mut end = 0;
        for (i, &gone) in dead.iter().enumerate() {
            let (s, e) = (self.start[i] as usize, self.start[i + 1] as usize);
            if gone {
                continue;
            }
            self.args.copy_within(s..e, end);
            end += e - s;
            self.start[kept + 1] = end as u32;
            self.preds[kept] = self.preds[i];
            self.truth[kept] = self.truth[i];
            kept += 1;
        }
        self.args.truncate(end);
        self.start.truncate(kept + 1);
        self.preds.truncate(kept);
        self.truth.truncate(kept);
        self.index.iter_mut().for_each(SliceIndex::clear);
        for i in 0..kept {
            let tag = tag_of(row(&self.start, &self.args, i));
            self.index[self.preds[i].index()].insert_new(tag, i as u32);
        }
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
        for ev in self.iter() {
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
        for ev in self.iter() {
            check_arity(program, ev.atom.predicate, ev.atom.args.len())?;
        }
        Ok(())
    }

    /// Heap bytes the set holds, by capacity: its columns, its arena and
    /// its per-predicate indexes.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.preds.capacity() * size_of::<PredicateId>()
            + self.start.capacity() * size_of::<u32>()
            + self.args.capacity() * size_of::<Symbol>()
            + self.truth.capacity() * size_of::<bool>()
            + self.index.capacity() * size_of::<SliceIndex>()
            + self.index.iter().map(SliceIndex::bytes).sum::<usize>()
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
        set.add(&p, &a, true).unwrap();
        set.add(&p, &a, true).unwrap(); // same value: no-op
        assert_eq!(set.len(), 1);
        assert!(set.add(&p, &a, false).is_err());
        assert_eq!(set.truth(&a), Some(true));
    }

    #[test]
    fn add_rejects_bad_arity() {
        let mut p = program();
        let pred = p.predicate_by_name("wrote").unwrap();
        let joe = p.symbols.intern("Joe");
        let mut set = EvidenceSet::new();
        assert!(set
            .add(&p, &GroundAtom::new(pred, vec![joe]), true)
            .is_err());
    }

    #[test]
    fn apply_overwrites_retracts_and_flips() {
        let mut p = program();
        let a = atom(&mut p, "cat", &["P1", "Db"]);
        let b = atom(&mut p, "cat", &["P2", "Db"]);
        let mut set = EvidenceSet::new();
        set.add(&p, &a, true).unwrap();
        set.add(&p, &b, true).unwrap();

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
        set.add(&p, &a, true).unwrap();
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
        set.add(&p, &a, true).unwrap();
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
        set.add(&p, &a, true).unwrap();
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
        set.add(&p, &a, true).unwrap();
        let domains = set.merged_domains(&p);
        let joe = p.symbols.get("Joe").unwrap();
        let p1 = p.symbols.get("P1").unwrap();
        assert_eq!(domains[0], vec![joe]);
        assert_eq!(domains[1], vec![p1]);
    }
}
