//! Atom identity: the dense ids of the query atoms search decides.
//!
//! The registry keeps each atom's arguments once, in one flat arena in
//! id order, and finds them through the same
//! [`SliceIndex`] the evidence set and the MRF builder use. Evidence has
//! no index of its own here: emission and the bulk load read the one
//! per-predicate index inside [`tuffy_mln::evidence::EvidenceSet`].

use tuffy_mln::ground::{AtomRef, GroundAtom};
use tuffy_mln::schema::PredicateId;
use tuffy_mln::slice_index::{slice_tag, SliceIndex};
use tuffy_mln::symbols::Symbol;
use tuffy_mrf::AtomId;

/// Assigns dense [`AtomId`]s to unknown (query) ground atoms.
///
/// This is the in-memory face of Tuffy's atom relations `R_P(aid, args,
/// truth)` (§3.1): evidence atoms never enter the registry — only atoms
/// whose truth value search must decide. The atoms are flat columns in
/// id order (predicate, argument bounds, one argument arena) with one
/// [`SliceIndex`] per predicate over the arena, so an atom costs no
/// allocation of its own and a lookup is one tag check plus one arena
/// compare.
#[derive(Clone, Debug)]
pub struct AtomRegistry {
    /// Predicate of each atom.
    preds: Vec<PredicateId>,
    /// Bounds of each atom's arguments in `args`: `len + 1` entries
    /// starting at 0.
    start: Vec<u32>,
    args: Vec<u32>,
    /// Per predicate (grown on demand): argument slice → atom id.
    index: Vec<SliceIndex>,
}

impl Default for AtomRegistry {
    fn default() -> AtomRegistry {
        AtomRegistry {
            preds: Vec::new(),
            start: vec![0],
            args: Vec::new(),
            index: Vec::new(),
        }
    }
}

/// Arguments of atom `id` of an arena with bounds `start`.
#[inline]
fn row<'a>(start: &[u32], args: &'a [u32], id: u32) -> &'a [u32] {
    &args[start[id as usize] as usize..start[id as usize + 1] as usize]
}

impl AtomRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered atoms.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether no atoms are registered.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Rebuilds a registry from its `(predicate, args)` entries in id
    /// order — the persistence path: `tuffy-store` serializes
    /// [`AtomRegistry::iter`]'s output and reconstructs the identical
    /// registry (same dense ids, same lookups). Errors if two entries
    /// collide on `(predicate, args)`, which would silently remap atom
    /// ids.
    pub fn from_entries<A: AsRef<[u32]>>(
        entries: impl IntoIterator<Item = (PredicateId, A)>,
    ) -> Result<AtomRegistry, String> {
        let mut r = AtomRegistry::new();
        for (pred, args) in entries {
            r.push_new(pred, args.as_ref())?;
        }
        Ok(r)
    }

    /// Registers `(pred, args)` as the next id. Errors if it is already
    /// registered (see [`AtomRegistry::from_entries`]).
    pub fn push_new(&mut self, pred: PredicateId, args: &[u32]) -> Result<AtomId, String> {
        let id = self.len() as AtomId;
        match self.intern(pred, args) {
            got if got == id => Ok(id),
            _ => Err(format!("duplicate registry entry at atom {id}")),
        }
    }

    /// Returns the id for `(pred, args)`, registering it if new.
    pub fn intern(&mut self, pred: PredicateId, args: &[u32]) -> AtomId {
        if self.index.len() <= pred.index() {
            self.index
                .resize_with(pred.index() + 1, SliceIndex::default);
        }
        let next = self.len() as AtomId;
        let (start, arena) = (&self.start, &self.args);
        let tag = slice_tag(args.iter().copied());
        match self.index[pred.index()].get_or_insert(tag, next, |id| row(start, arena, id) == args)
        {
            Some(id) => id,
            None => {
                self.preds.push(pred);
                self.args.extend_from_slice(args);
                let end = u32::try_from(self.args.len()).expect("atom arena exceeds u32 bounds");
                self.start.push(end);
                next
            }
        }
    }

    /// Looks up an atom id without registering.
    #[inline]
    pub fn get(&self, pred: PredicateId, args: &[u32]) -> Option<AtomId> {
        let tag = slice_tag(args.iter().copied());
        self.index
            .get(pred.index())?
            .get(tag, |id| row(&self.start, &self.args, id) == args)
    }

    /// The predicate and arguments of atom `id`.
    pub fn atom(&self, id: AtomId) -> (PredicateId, &[u32]) {
        (self.preds[id as usize], row(&self.start, &self.args, id))
    }

    /// Atom `id` as a borrowed [`AtomRef`].
    pub fn atom_ref(&self, id: AtomId) -> AtomRef<'_> {
        let (predicate, args) = self.atom(id);
        AtomRef {
            predicate,
            args: Symbol::from_ids(args),
        }
    }

    /// Reconstructs the [`GroundAtom`] for `id`.
    pub fn ground_atom(&self, id: AtomId) -> GroundAtom {
        self.atom_ref(id).to_ground_atom()
    }

    /// Iterates all atoms as `(id, predicate, args)` in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (AtomId, PredicateId, &[u32])> {
        (0..self.len() as AtomId).map(|id| {
            let (p, args) = self.atom(id);
            (id, p, args)
        })
    }

    /// Heap bytes the registry holds, by capacity: its columns, its
    /// arena and its per-predicate indexes.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.preds.capacity() * size_of::<PredicateId>()
            + self.start.capacity() * size_of::<u32>()
            + self.args.capacity() * size_of::<u32>()
            + self.index.capacity() * size_of::<SliceIndex>()
            + self.index.iter().map(SliceIndex::bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuffy_mln::evidence::EvidenceSet;
    use tuffy_mln::parser::{parse_evidence, parse_program};
    use tuffy_mln::program::MlnProgram;

    fn program() -> (MlnProgram, EvidenceSet) {
        let mut p =
            parse_program("*wrote(person, paper)\ncat(paper, c)\n1 wrote(x, p) => cat(p, Db)\n")
                .unwrap();
        let ev = parse_evidence(&mut p, "wrote(Joe, P1)\n!cat(P1, Db)\n").unwrap();
        (p, ev)
    }
    #[test]
    fn registry_interns_densely() {
        let mut r = AtomRegistry::new();
        let p = PredicateId(0);
        let a = r.intern(p, &[1, 2]);
        let b = r.intern(p, &[1, 3]);
        let a2 = r.intern(p, &[1, 2]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
        assert_eq!(r.atom(a), (p, &[1u32, 2][..]));
        assert_eq!(r.get(p, &[1, 3]), Some(b));
        assert_eq!(r.get(p, &[9, 9]), None);
    }

    #[test]
    fn evidence_lookup() {
        // Emission probes the evidence set with raw argument ids.
        let (p, ev) = program();
        let wrote = p.predicate_by_name("wrote").unwrap();
        let cat = p.predicate_by_name("cat").unwrap();
        let joe = p.symbols.get("Joe").unwrap().0;
        let p1 = p.symbols.get("P1").unwrap().0;
        let db = p.symbols.get("Db").unwrap().0;
        assert_eq!(ev.truth_of(wrote, &[joe, p1]), Some(true));
        assert_eq!(ev.truth_of(wrote, &[p1, joe]), None);
        assert_eq!(ev.truth_of(cat, &[p1, db]), Some(false));
        assert_eq!(ev.truth_of(cat, &[p1, joe]), None);
    }

    #[test]
    fn contradictory_evidence_rejected_by_set() {
        let (p, mut set) = program();
        let cat = p.predicate_by_name("cat").unwrap();
        let p1 = p.symbols.get("P1").unwrap();
        let db = p.symbols.get("Db").unwrap();
        // Conflicts with !cat(P1,Db): the set itself rejects it.
        assert!(set
            .add(&p, &GroundAtom::new(cat, vec![p1, db]), true)
            .is_err());
        assert_eq!(set.truth_of(cat, &[p1.0, db.0]), Some(false));
        assert!(set.validate(&p).is_ok());
    }

    #[test]
    fn from_entries_rebuilds_identical_registry() {
        let mut r = AtomRegistry::new();
        r.intern(PredicateId(0), &[1, 2]);
        r.intern(PredicateId(1), &[7]);
        r.intern(PredicateId(0), &[2, 1]);
        let entries: Vec<_> = r
            .iter()
            .map(|(_, p, args)| (p, args.to_vec().into_boxed_slice()))
            .collect();
        let r2 = AtomRegistry::from_entries(entries.clone()).unwrap();
        assert_eq!(r2.len(), r.len());
        for (id, p, args) in r.iter() {
            assert_eq!(r2.atom(id), (p, args));
            assert_eq!(r2.get(p, args), Some(id));
        }
        // Duplicates would silently remap ids — rejected instead.
        let mut dup = entries;
        dup.push((PredicateId(0), vec![1, 2].into_boxed_slice()));
        assert!(AtomRegistry::from_entries(dup).is_err());
    }

    #[test]
    fn registry_iterates_in_id_order() {
        let mut r = AtomRegistry::new();
        let p = PredicateId(1);
        r.intern(p, &[4]);
        r.intern(p, &[5]);
        let all: Vec<_> = r
            .iter()
            .map(|(id, pred, args)| (id, pred, args.to_vec()))
            .collect();
        assert_eq!(all, vec![(0, p, vec![4]), (1, p, vec![5])]);
    }
}
