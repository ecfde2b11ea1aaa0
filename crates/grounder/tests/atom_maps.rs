//! Model tests for the two per-predicate atom maps: [`AtomRegistry`]
//! (dense query-atom ids) and [`EvidenceSet`] (asserted truth, in
//! insertion order). Random operation sequences run against both the
//! real structure and a `BTreeMap<(u32, Vec<u32>), _>` model that
//! restates the documented semantics without hashing.
//!
//! Keys range over 48 constants, so one case registers hundreds to
//! thousands of distinct atoms and every index grows several times. Half
//! of the picks re-use an earlier key, so hits, repeats, contradictions,
//! retracts of present atoms and re-asserts after them stay frequent.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;
use tuffy_grounder::AtomRegistry;
use tuffy_mln::evidence::{DeltaOp, EvidenceChange, EvidenceDelta, EvidenceSet};
use tuffy_mln::ground::GroundAtom;
use tuffy_mln::parser::parse_program;
use tuffy_mln::program::MlnProgram;
use tuffy_mln::schema::PredicateId;
use tuffy_mln::symbols::Symbol;

type Key = (u32, Vec<u32>);

/// Constants keys are drawn from.
const CONSTS: u8 = 48;

/// A key as generated: a predicate and one constant index per argument
/// (the predicate's arity says how many are used).
type RawKey = (u8, u8, u8, u8);

/// A key pick: `(reuse, back, fresh)` takes the key of pick
/// `back % len` of the case so far when `reuse` is set and there is one,
/// `fresh` otherwise.
type Pick = (bool, u16, RawKey);

/// Three predicates of arity 1, 2 and 3 over [`CONSTS`] constants plus
/// four that no generated key uses (absent probes).
fn program() -> (MlnProgram, Vec<u32>) {
    let mut p = parse_program("p(t)\nq(t, t)\nr(t, t, t)\n").unwrap();
    let consts = (0..CONSTS + 4)
        .map(|c| p.symbols.intern(&format!("C{c}")).0)
        .collect();
    (p, consts)
}

fn pick() -> impl Strategy<Value = Pick> {
    (
        any::<bool>(),
        any::<u16>(),
        (0u8..3, 0u8..CONSTS, 0u8..CONSTS, 0u8..CONSTS),
    )
}

fn resolve(consts: &[u32], (pred, a, b, c): RawKey) -> Key {
    let arity = usize::from(pred) + 1;
    let args = [a, b, c].map(|i| consts[usize::from(i)]);
    (u32::from(pred), args[..arity].to_vec())
}

/// The key a pick names, recorded in `history`.
fn choose(consts: &[u32], history: &mut Vec<Key>, (reuse, back, fresh): Pick) -> Key {
    let key = match history.len() {
        n if reuse && n > 0 => history[usize::from(back) % n].clone(),
        _ => resolve(consts, fresh),
    };
    history.push(key.clone());
    key
}

/// A key no pick can name: its arguments are the unused constants.
fn absent(consts: &[u32], i: usize) -> Key {
    let c = |j: usize| consts[usize::from(CONSTS) + (i + j) % 4];
    let pred = i % 3;
    (pred as u32, [c(0), c(1), c(2)][..pred + 1].to_vec())
}

fn ground(key: &Key) -> GroundAtom {
    GroundAtom::new(
        PredicateId(key.0),
        key.1.iter().map(|&a| Symbol(a)).collect(),
    )
}

/// One evidence operation: `(true, edits)` adds the first edit's key with
/// its value; `(false, edits)` applies all edits as one delta, where an
/// edit `(kind, key, value)` asserts `value` (kind 0), retracts (1) or
/// flips (2).
fn ev_op() -> impl Strategy<Value = (bool, Vec<(u8, Pick, bool)>)> {
    (
        any::<bool>(),
        proptest::collection::vec((0u8..3, pick(), any::<bool>()), 1..5),
    )
}

/// The evidence model: truth per key plus the insertion order.
#[derive(Default)]
struct EvModel {
    truth: BTreeMap<Key, bool>,
    order: Vec<Key>,
}

impl EvModel {
    /// `EvidenceSet::add`: contradictions fail, repeats are no-ops.
    fn add(&mut self, key: Key, v: bool) -> Result<(), ()> {
        match self.truth.get(&key) {
            Some(&old) if old != v => Err(()),
            Some(_) => Ok(()),
            None => {
                self.truth.insert(key.clone(), v);
                self.order.push(key);
                Ok(())
            }
        }
    }

    /// `EvidenceSet::apply`: ops run in sequence on a staged view; only
    /// net changes commit, in first-seen order. A new atom goes to the
    /// end, an overwritten one keeps its place, a retracted one leaves.
    fn apply(&mut self, ops: &[(Key, DeltaOp)]) -> Result<Vec<EvidenceChange>, ()> {
        let mut staged: Vec<(Key, Option<bool>, Option<bool>)> = Vec::new();
        for (key, op) in ops {
            let at = staged.iter().position(|(k, _, _)| k == key);
            let before = self.truth.get(key).copied();
            let cur = at.map_or(before, |i| staged[i].2);
            let after = match op {
                DeltaOp::Assert { positive, .. } => Some(*positive),
                DeltaOp::Retract { .. } => None,
                DeltaOp::Flip { .. } => Some(!cur.ok_or(())?),
            };
            match at {
                Some(i) => staged[i].2 = after,
                None => staged.push((key.clone(), before, after)),
            }
        }
        staged.retain(|(_, before, after)| before != after);
        for (key, before, after) in &staged {
            match (before, after) {
                (None, Some(v)) => {
                    self.truth.insert(key.clone(), *v);
                    self.order.push(key.clone());
                }
                (Some(_), Some(v)) => {
                    self.truth.insert(key.clone(), *v);
                }
                _ => {
                    self.truth.remove(key);
                    self.order.retain(|k| k != key);
                }
            }
        }
        Ok(staged
            .into_iter()
            .map(|(key, before, after)| EvidenceChange {
                atom: ground(&key),
                before,
                after,
            })
            .collect())
    }

    /// Applies `edits` (`(kind, key, value)` as in [`ev_op`]) to both the
    /// model and `set`, checking they agree on the result.
    fn apply_both(
        &mut self,
        set: &mut EvidenceSet,
        p: &MlnProgram,
        edits: &[(u8, Key, bool)],
    ) -> Result<(), TestCaseError> {
        let mut delta = EvidenceDelta::new();
        let mut keyed = Vec::new();
        for (kind, k, v) in edits {
            let atom = ground(k);
            let op = match kind {
                0 => DeltaOp::Assert { atom, positive: *v },
                1 => DeltaOp::Retract { atom },
                _ => DeltaOp::Flip { atom },
            };
            delta.ops.push(op.clone());
            keyed.push((k.clone(), op));
        }
        let got = set.apply(p, &delta).map_err(|_| ());
        prop_assert_eq!(got, self.apply(&keyed));
        Ok(())
    }
}

/// `key` answers like the model through both probes.
fn check_key(set: &EvidenceSet, model: &EvModel, key: &Key) -> Result<(), TestCaseError> {
    let want = model.truth.get(key).copied();
    prop_assert_eq!(set.truth(&ground(key)), want);
    prop_assert_eq!(set.truth_of(PredicateId(key.0), &key.1), want);
    Ok(())
}

/// The whole set agrees with the model: listing order and truth, every
/// model key, and keys that were never asserted.
fn check_against_model(
    set: &EvidenceSet,
    model: &EvModel,
    consts: &[u32],
) -> Result<(), TestCaseError> {
    let items: Vec<(Key, bool)> = set
        .iter()
        .map(|e| {
            let key = (
                e.atom.predicate.0,
                e.atom.args.iter().map(|s| s.0).collect(),
            );
            (key, e.positive)
        })
        .collect();
    let expect: Vec<(Key, bool)> = model
        .order
        .iter()
        .map(|k| (k.clone(), model.truth[k]))
        .collect();
    prop_assert_eq!(items, expect);
    prop_assert_eq!(set.len(), model.order.len());
    for k in model.truth.keys() {
        check_key(set, model, k)?;
    }
    for i in 0..12 {
        check_key(set, model, &absent(consts, i))?;
    }
    Ok(())
}

/// The registry agrees with the first-seen `order` of its keys.
fn check_registry(reg: &AtomRegistry, order: &[Key]) -> Result<(), TestCaseError> {
    let listed: Vec<Key> = reg.iter().map(|(_, p, a)| (p.0, a.to_vec())).collect();
    prop_assert_eq!(&listed, &order.to_vec());
    for (id, k) in order.iter().enumerate() {
        prop_assert_eq!(reg.atom(id as u32), (PredicateId(k.0), &k.1[..]));
        prop_assert_eq!(reg.get(PredicateId(k.0), &k.1), Some(id as u32));
    }
    Ok(())
}

proptest! {
    /// Interning hands out dense first-seen ids and lookups agree with
    /// the model. `from_entries(iter())` restores the same registry and
    /// rejects a duplicated entry; `from_entries` of the entries left
    /// after dropping some (as a patch drops retracted atoms) numbers the
    /// rest densely in their order, forgets the dropped ones, and keeps
    /// interning after them.
    #[test]
    fn registry_matches_model(
        ops in proptest::collection::vec((any::<bool>(), pick()), 0..2000),
        drop_every in 2usize..5,
    ) {
        let (_, consts) = program();
        let mut reg = AtomRegistry::new();
        let mut model: BTreeMap<Key, u32> = BTreeMap::new();
        let mut order: Vec<Key> = Vec::new();
        let mut history = Vec::new();
        for (intern, pk) in ops {
            let k = choose(&consts, &mut history, pk);
            let pred = PredicateId(k.0);
            if intern {
                let next = order.len() as u32;
                let want = *model.entry(k.clone()).or_insert_with(|| {
                    order.push(k.clone());
                    next
                });
                prop_assert_eq!(reg.intern(pred, &k.1), want);
            } else {
                prop_assert_eq!(reg.get(pred, &k.1), model.get(&k).copied());
            }
        }
        check_registry(&reg, &order)?;
        for i in 0..12 {
            let k = absent(&consts, i);
            prop_assert_eq!(reg.get(PredicateId(k.0), &k.1), None);
        }

        let mut entries: Vec<(PredicateId, Box<[u32]>)> =
            reg.iter().map(|(_, p, a)| (p, a.into())).collect();
        let back = AtomRegistry::from_entries(entries.clone()).unwrap();
        check_registry(&back, &order)?;
        if let Some(first) = entries.first().cloned() {
            entries.push(first);
            prop_assert!(AtomRegistry::from_entries(entries).is_err());
        }

        let dropped = |id: usize| id % drop_every == 0;
        let mut rest = AtomRegistry::from_entries(
            reg.iter()
                .filter(|&(id, _, _)| !dropped(id as usize))
                .map(|(_, p, a)| (p, a)),
        )
        .unwrap();
        let (mut gone, mut kept) = (Vec::new(), Vec::new());
        for (id, k) in order.iter().enumerate() {
            match dropped(id) {
                true => gone.push(k.clone()),
                false => kept.push(k.clone()),
            }
        }
        check_registry(&rest, &kept)?;
        for k in &gone {
            prop_assert_eq!(rest.get(PredicateId(k.0), &k.1), None);
        }
        for k in gone {
            let next = kept.len() as u32;
            prop_assert_eq!(rest.intern(PredicateId(k.0), &k.1), next);
            kept.push(k);
        }
        check_registry(&rest, &kept)?;
    }

    /// `add` and `apply` (asserts, retracts, flips) agree with the model
    /// on truth, returned changes and insertion order after retracts; a
    /// failed `add` or `apply` changes nothing.
    #[test]
    fn evidence_set_matches_model(ops in proptest::collection::vec(ev_op(), 0..400)) {
        let (p, consts) = program();
        let mut set = EvidenceSet::new();
        let mut model = EvModel::default();
        let mut history = Vec::new();
        for (step, (add, edits)) in ops.into_iter().enumerate() {
            let edits: Vec<(u8, Key, bool)> = edits
                .into_iter()
                .map(|(kind, pk, v)| (kind, choose(&consts, &mut history, pk), v))
                .collect();
            match add {
                true => {
                    let (_, k, v) = edits[0].clone();
                    let got = set.add(&p, &ground(&k), v).map_err(|_| ());
                    prop_assert_eq!(got, model.add(k, v));
                }
                false => model.apply_both(&mut set, &p, &edits)?,
            }
            for (_, k, _) in &edits {
                check_key(&set, &model, k)?;
            }
            if step % 32 == 31 {
                check_against_model(&set, &model, &consts)?;
            }
        }
        check_against_model(&set, &model, &consts)?;
    }

    /// Retract a subset of many atoms, re-assert some of the retracted
    /// ones (either polarity), then flip some of the survivors, whose
    /// positions the retract renumbered; every step agrees with the
    /// model.
    #[test]
    fn retract_reassert_and_flip_match_model(
        picks in proptest::collection::vec((pick(), any::<bool>()), 1..600),
        retract_every in 2usize..5,
        flip_every in 1usize..4,
    ) {
        let (p, consts) = program();
        let mut set = EvidenceSet::new();
        let mut model = EvModel::default();
        for ((_, _, raw), v) in picks {
            let k = resolve(&consts, raw);
            let got = set.add(&p, &ground(&k), v).map_err(|_| ());
            prop_assert_eq!(got, model.add(k, v));
        }
        check_against_model(&set, &model, &consts)?;
        let asserted = model.order.clone();

        let retracted: Vec<(u8, Key, bool)> = asserted
            .iter()
            .step_by(retract_every)
            .map(|k| (1, k.clone(), false))
            .collect();
        model.apply_both(&mut set, &p, &retracted)?;
        check_against_model(&set, &model, &consts)?;

        let reasserted: Vec<(u8, Key, bool)> = retracted
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .map(|(i, (_, k, _))| (0, k.clone(), i % 4 == 0))
            .collect();
        model.apply_both(&mut set, &p, &reasserted)?;
        check_against_model(&set, &model, &consts)?;

        let survivors: Vec<(u8, Key, bool)> = asserted
            .iter()
            .enumerate()
            .filter(|(i, _)| i % retract_every != 0 && i % flip_every == 0)
            .map(|(_, k)| (2, k.clone(), false))
            .collect();
        model.apply_both(&mut set, &p, &survivors)?;
        check_against_model(&set, &model, &consts)?;
    }
}
