//! Atom identity: the dense ids of the query atoms search decides.
//!
//! Evidence has no index of its own here: emission and the bulk load
//! read the one per-predicate index inside
//! [`tuffy_mln::evidence::EvidenceSet`].

use tuffy_mln::fxhash::{map_with_capacity, FxHashMap};
use tuffy_mln::ground::GroundAtom;
use tuffy_mln::schema::PredicateId;
use tuffy_mln::symbols::Symbol;
use tuffy_mrf::AtomId;

/// Assigns dense [`AtomId`]s to unknown (query) ground atoms.
///
/// This is the in-memory face of Tuffy's atom relations `R_P(aid, args,
/// truth)` (§3.1): evidence atoms never enter the registry — only atoms
/// whose truth value search must decide. Lookups go to a per-predicate
/// map probed with a borrowed `&[u32]`, so a hit allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct AtomRegistry {
    /// Per predicate (grown on demand): argument tuple → atom id.
    by_pred: Vec<FxHashMap<Box<[u32]>, AtomId>>,
    atoms: Vec<(PredicateId, Box<[u32]>)>,
}

impl AtomRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether no atoms are registered.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// `pred`'s lookup map, grown into existence if needed.
    fn map_mut(&mut self, pred: PredicateId) -> &mut FxHashMap<Box<[u32]>, AtomId> {
        if self.by_pred.len() <= pred.index() {
            self.by_pred
                .resize_with(pred.index() + 1, FxHashMap::default);
        }
        &mut self.by_pred[pred.index()]
    }

    /// Rebuilds a registry from its `(predicate, args)` entries in id
    /// order — the persistence path: `tuffy-store` serializes
    /// [`AtomRegistry::iter`]'s output and reconstructs the identical
    /// registry (same dense ids, same lookup map) here. Errors if two
    /// entries collide on `(predicate, args)`, which would silently remap
    /// atom ids.
    pub fn from_entries(entries: Vec<(PredicateId, Box<[u32]>)>) -> Result<AtomRegistry, String> {
        let mut sizes: Vec<usize> = Vec::new();
        for (pred, _) in &entries {
            if sizes.len() <= pred.index() {
                sizes.resize(pred.index() + 1, 0);
            }
            sizes[pred.index()] += 1;
        }
        let mut r = AtomRegistry {
            by_pred: sizes.into_iter().map(map_with_capacity).collect(),
            atoms: Vec::new(),
        };
        for (i, (pred, args)) in entries.iter().enumerate() {
            if r.map_mut(*pred).insert(args.clone(), i as AtomId).is_some() {
                return Err(format!("duplicate registry entry at atom {i}"));
            }
        }
        r.atoms = entries;
        Ok(r)
    }

    /// Returns the id for `(pred, args)`, registering it if new.
    pub fn intern(&mut self, pred: PredicateId, args: &[u32]) -> AtomId {
        if let Some(id) = self.get(pred, args) {
            return id;
        }
        let id = self.atoms.len() as AtomId;
        self.map_mut(pred).insert(args.into(), id);
        self.atoms.push((pred, args.into()));
        id
    }

    /// Looks up an atom id without registering.
    #[inline]
    pub fn get(&self, pred: PredicateId, args: &[u32]) -> Option<AtomId> {
        self.by_pred.get(pred.index())?.get(args).copied()
    }

    /// The predicate and arguments of atom `id`.
    pub fn atom(&self, id: AtomId) -> (PredicateId, &[u32]) {
        let (p, args) = &self.atoms[id as usize];
        (*p, args)
    }

    /// Reconstructs the [`GroundAtom`] for `id`.
    pub fn ground_atom(&self, id: AtomId) -> GroundAtom {
        let (p, args) = self.atom(id);
        GroundAtom::new(p, args.iter().map(|&a| Symbol(a)).collect())
    }

    /// Iterates all atoms as `(id, predicate, args)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AtomId, PredicateId, &[u32])> {
        self.atoms
            .iter()
            .enumerate()
            .map(|(i, (p, args))| (i as AtomId, *p, args.as_ref()))
    }

    /// Approximate heap bytes held by the registry.
    pub fn bytes(&self) -> usize {
        let per_atom = std::mem::size_of::<(PredicateId, Box<[u32]>)>();
        let args: usize = self.atoms.iter().map(|(_, a)| a.len() * 4).sum();
        // Map entries roughly double the key storage.
        self.atoms.len() * per_atom + 2 * args + self.atoms.len() * 16
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
            .add(&p, GroundAtom::new(cat, vec![p1, db]), true)
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
