//! Model tests for the two per-predicate atom maps: [`AtomRegistry`]
//! (dense query-atom ids) and [`EvidenceSet`] (asserted truth, in
//! insertion order). Random operation sequences run against both the
//! real structure and a `BTreeMap<(u32, Vec<u32>), _>` model that
//! restates the documented semantics without hashing.

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

/// A key as generated: a predicate and one constant index per argument
/// (the predicate's arity says how many are used).
type RawKey = (u8, u8, u8, u8);

/// Three predicates of arity 1, 2 and 3 over three constants, so that
/// random keys collide often.
fn program() -> (MlnProgram, Vec<u32>) {
    let mut p = parse_program("p(t)\nq(t, t)\nr(t, t, t)\n").unwrap();
    let consts = ["A", "B", "C"].map(|c| p.symbols.intern(c).0).to_vec();
    (p, consts)
}

fn raw_key() -> impl Strategy<Value = RawKey> {
    (0u8..3, 0u8..3, 0u8..3, 0u8..3)
}

fn resolve(consts: &[u32], (pred, a, b, c): RawKey) -> Key {
    let arity = usize::from(pred) + 1;
    let args = [a, b, c].map(|i| consts[usize::from(i)]);
    (u32::from(pred), args[..arity].to_vec())
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
fn ev_op() -> impl Strategy<Value = (bool, Vec<(u8, RawKey, bool)>)> {
    (
        any::<bool>(),
        proptest::collection::vec((0u8..3, raw_key(), any::<bool>()), 1..5),
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
}

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
    // Every key of the universe answers like the model, by either probe.
    for pred in 0u8..3 {
        for i in 0..27u8 {
            let k = resolve(consts, (pred, i % 3, i / 3 % 3, i / 9));
            let want = model.truth.get(&k).copied();
            prop_assert_eq!(set.truth(&ground(&k)), want);
            prop_assert_eq!(set.truth_of(PredicateId(k.0), &k.1), want);
        }
    }
    Ok(())
}

proptest! {
    /// Interning hands out dense first-seen ids, lookups agree with the
    /// model, and `from_entries(iter())` restores the same registry while
    /// rejecting a duplicated entry.
    #[test]
    fn registry_matches_model(ops in proptest::collection::vec((any::<bool>(), raw_key()), 0..60)) {
        let (_, consts) = program();
        let mut reg = AtomRegistry::new();
        let mut model: BTreeMap<Key, u32> = BTreeMap::new();
        let mut order: Vec<Key> = Vec::new();
        for (intern, k) in ops {
            let k = resolve(&consts, k);
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
        let listed: Vec<Key> = reg.iter().map(|(_, p, a)| (p.0, a.to_vec())).collect();
        prop_assert_eq!(&listed, &order);
        for (id, k) in order.iter().enumerate() {
            prop_assert_eq!(reg.atom(id as u32), (PredicateId(k.0), &k.1[..]));
        }

        let mut entries: Vec<(PredicateId, Box<[u32]>)> =
            reg.iter().map(|(_, p, a)| (p, a.into())).collect();
        let back = AtomRegistry::from_entries(entries.clone()).unwrap();
        let relisted: Vec<Key> = back.iter().map(|(_, p, a)| (p.0, a.to_vec())).collect();
        prop_assert_eq!(&relisted, &order);
        for (k, &id) in &model {
            prop_assert_eq!(back.get(PredicateId(k.0), &k.1), Some(id));
        }
        if let Some(first) = entries.first().cloned() {
            entries.push(first);
            prop_assert!(AtomRegistry::from_entries(entries).is_err());
        }
    }

    /// `add` and `apply` (asserts, retracts, flips) agree with the model
    /// on truth, returned changes and insertion order after retracts; a
    /// failed `add` or `apply` changes nothing.
    #[test]
    fn evidence_set_matches_model(ops in proptest::collection::vec(ev_op(), 0..40)) {
        let (p, consts) = program();
        let mut set = EvidenceSet::new();
        let mut model = EvModel::default();
        for (add, edits) in ops {
            match add {
                true => {
                    let (_, k, v) = edits[0];
                    let k = resolve(&consts, k);
                    let got = set.add(&p, ground(&k), v).map_err(|_| ());
                    prop_assert_eq!(got, model.add(k, v));
                }
                false => {
                    let mut delta = EvidenceDelta::new();
                    let mut keyed = Vec::new();
                    for (kind, k, v) in edits {
                        let k = resolve(&consts, k);
                        let atom = ground(&k);
                        let op = match kind {
                            0 => DeltaOp::Assert { atom, positive: v },
                            1 => DeltaOp::Retract { atom },
                            _ => DeltaOp::Flip { atom },
                        };
                        delta.ops.push(op.clone());
                        keyed.push((k, op));
                    }
                    let got = set.apply(&p, &delta).map_err(|_| ());
                    prop_assert_eq!(got, model.apply(&keyed));
                }
            }
            check_against_model(&set, &model, &consts)?;
        }
    }
}
