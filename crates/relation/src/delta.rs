//! Tuple-level mutation logs: the bridge from the paper's fixed-instance
//! algorithms to live, evolving instances.
//!
//! A [`Delta`] is a batch of fact inserts and deletes.
//! [`Instance::apply_delta_in_place`] edits an instance with one: each
//! relation it effectively changes takes O(delta) set inserts and
//! removes, copied first only when another snapshot shares its storage.
//! [`Instance::apply_delta`] is the functional form, a clone plus that
//! edit: the original is untouched, and the returned snapshot shares the
//! storage (`Arc`) of every relation the delta did not effectively
//! change. Either way the accompanying [`DeltaEffect`] reports exactly
//! which relations changed and which constants are new — the inputs the
//! cache layers above (extension tables, lub columns, answer sets) need
//! to invalidate *selectively* instead of rebuilding the world.
//!
//! No-ops are filtered at application time: inserting a fact that is
//! already present or deleting one that is absent changes nothing, marks
//! no relation as changed, and (for a delta made only of such no-ops)
//! leaves every relation's storage as it was.

use crate::error::RelError;
use crate::instance::{Fact, Instance, Tuple};
use crate::schema::{RelId, Schema};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};

/// A batch of tuple-level mutations.
///
/// Application order is inserts first, then deletes: a fact appearing in
/// both lists ends up absent. Duplicates are harmless (the second
/// occurrence is a no-op).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Delta {
    inserts: Vec<Fact>,
    deletes: Vec<Fact>,
}

impl Delta {
    /// The empty delta.
    pub fn new() -> Self {
        Delta::default()
    }

    /// A delta from explicit insert and delete fact lists.
    pub fn from_parts(
        inserts: impl IntoIterator<Item = Fact>,
        deletes: impl IntoIterator<Item = Fact>,
    ) -> Self {
        Delta {
            inserts: inserts.into_iter().collect(),
            deletes: deletes.into_iter().collect(),
        }
    }

    /// Records an insert of `rel(tuple)`.
    pub fn insert(&mut self, rel: RelId, tuple: impl Into<Tuple>) -> &mut Self {
        self.inserts.push(Fact {
            rel,
            tuple: tuple.into(),
        });
        self
    }

    /// Records a delete of `rel(tuple)`.
    pub fn delete(&mut self, rel: RelId, tuple: impl Into<Tuple>) -> &mut Self {
        self.deletes.push(Fact {
            rel,
            tuple: tuple.into(),
        });
        self
    }

    /// The recorded inserts, in insertion order.
    pub fn inserts(&self) -> &[Fact] {
        &self.inserts
    }

    /// The recorded deletes, in insertion order.
    pub fn deletes(&self) -> &[Fact] {
        &self.deletes
    }

    /// Whether the delta records no mutations at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total number of recorded mutations (including eventual no-ops).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// The relations the delta *mentions* (a superset of the relations it
    /// effectively changes).
    pub fn mentioned_relations(&self) -> BTreeSet<RelId> {
        self.inserts
            .iter()
            .chain(self.deletes.iter())
            .map(|f| f.rel)
            .collect()
    }

    /// Validates every mentioned fact against the schema: known relation,
    /// matching arity.
    pub fn check(&self, schema: &Schema) -> Result<(), RelError> {
        for f in self.inserts.iter().chain(self.deletes.iter()) {
            if f.rel.0 as usize >= schema.len() {
                return Err(RelError::UnknownRelation(format!("{:?}", f.rel)));
            }
            let expected = schema.arity(f.rel);
            if f.tuple.len() != expected {
                return Err(RelError::ArityMismatch {
                    relation: schema.name(f.rel).to_string(),
                    expected,
                    got: f.tuple.len(),
                });
            }
        }
        Ok(())
    }
}

/// One relation's net change under a delta: the facts it gained and the
/// facts it lost, each ascending.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct NetChange {
    /// Tuples present after the delta that were absent before.
    pub inserted: Vec<Tuple>,
    /// Tuples absent after the delta that were present before.
    pub deleted: Vec<Tuple>,
}

/// What a delta effectively changed: the change summary the
/// invalidation layers key on, reported by
/// [`Instance::apply_delta_in_place`] (and inside a [`DeltaOutcome`]).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct DeltaEffect {
    /// Relations whose fact set actually differs from the pre-delta
    /// instance. A mutation pair that cancels out (insert a new fact,
    /// then delete it) does **not** mark its relation changed.
    pub changed: BTreeSet<RelId>,
    /// Facts present after the delta that were absent before.
    pub inserted: usize,
    /// Facts absent after the delta that were present before.
    pub deleted: usize,
    /// Constants occurring in net-inserted facts, deduplicated. The
    /// caller decides which of these are new to its `ConstPool` and
    /// whether a pool generation bump is needed.
    pub inserted_constants: BTreeSet<Value>,
    /// Per changed relation, its net change: what a cache over the
    /// pre-delta instance folds in to catch up (see
    /// [`RowDelta::of_changes`](crate::RowDelta::of_changes)). Its keys are
    /// [`DeltaEffect::changed`].
    pub net: BTreeMap<RelId, NetChange>,
}

impl DeltaEffect {
    /// Whether the delta changed nothing (every mutation was a no-op).
    pub fn is_noop(&self) -> bool {
        self.changed.is_empty()
    }
}

/// The result of the functional [`Instance::apply_delta`]: a new
/// snapshot, owned by the caller, plus the delta's effect. The snapshot
/// shares the storage of every relation outside
/// [`DeltaEffect::changed`] with the pre-delta instance; each changed
/// relation is a copy, edited in place.
#[derive(Clone, Debug)]
pub struct DeltaOutcome {
    /// The post-delta snapshot.
    pub instance: Instance,
    /// What the delta effectively changed.
    pub effect: DeltaEffect,
}

impl Instance {
    /// Applies a delta functionally: `self` is untouched and the returned
    /// snapshot shares the storage of every relation whose fact set did
    /// not effectively change. A clone of `self` plus
    /// [`Instance::apply_delta_in_place`], so each changed relation is
    /// copied once.
    pub fn apply_delta(&self, delta: &Delta) -> DeltaOutcome {
        let mut instance = self.clone();
        let effect = instance.apply_delta_in_place(delta);
        DeltaOutcome { instance, effect }
    }

    /// Applies a delta to `self` in place and reports its effect.
    ///
    /// Inserts apply before deletes. No-op mutations (inserting a present
    /// fact, deleting an absent one) are filtered out: they contribute
    /// nothing to [`DeltaEffect::changed`], and a relation touched only
    /// by no-ops — or by mutations that cancel exactly — is not written
    /// to at all. A relation the delta does change is edited with one
    /// set insert or remove per net-changed fact; when another snapshot
    /// still shares its storage, it is copied first (copy-on-write), so
    /// that snapshot keeps its facts.
    pub fn apply_delta_in_place(&mut self, delta: &Delta) -> DeltaEffect {
        // Per-relation set of tuples whose membership flips, maintained
        // by toggling so that insert-then-delete of the same new fact
        // cancels back out of the diff.
        let mut diffs: BTreeMap<RelId, BTreeSet<&Tuple>> = BTreeMap::new();
        fn toggle<'t>(diffs: &mut BTreeMap<RelId, BTreeSet<&'t Tuple>>, f: &'t Fact) {
            let d = diffs.entry(f.rel).or_default();
            if !d.remove(&f.tuple) {
                d.insert(&f.tuple);
            }
        }
        // A fact is currently present iff its base presence XOR its
        // membership in the running diff.
        let present = |diffs: &BTreeMap<RelId, BTreeSet<&Tuple>>, f: &Fact| {
            let in_diff = diffs.get(&f.rel).is_some_and(|d| d.contains(&f.tuple));
            self.contains(f.rel, &f.tuple) != in_diff
        };
        for f in delta.inserts() {
            if !present(&diffs, f) {
                toggle(&mut diffs, f);
            }
        }
        for f in delta.deletes() {
            if present(&diffs, f) {
                toggle(&mut diffs, f);
            }
        }
        diffs.retain(|_, d| !d.is_empty());

        let mut effect = DeltaEffect::default();
        for (rel, flips) in diffs {
            effect.changed.insert(rel);
            let change: &mut NetChange = effect.net.entry(rel).or_default();
            for t in flips {
                // Each flipped tuple is distinct, so its presence before
                // this edit is its presence before the delta.
                if self.remove(rel, t) {
                    effect.deleted += 1;
                    change.deleted.push(t.clone());
                } else {
                    effect.inserted += 1;
                    effect.inserted_constants.extend(t.iter().cloned());
                    self.insert(rel, t.clone());
                    change.inserted.push(t.clone());
                }
            }
        }
        effect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::instance_of;
    use crate::schema::SchemaBuilder;

    fn v(s: &str) -> Value {
        Value::str(s)
    }

    fn base() -> Instance {
        instance_of([
            (RelId(0), vec![vec![v("a")], vec![v("b")]]),
            (RelId(1), vec![vec![v("a"), v("b")]]),
        ])
    }

    /// Applies `delta` to `inst` both ways — functionally, and in place
    /// on a copy that shares no storage — checks that the two report the
    /// same effect and end with the same facts, and returns the
    /// functional outcome.
    fn apply_both(inst: &Instance, delta: &Delta) -> DeltaOutcome {
        let out = inst.apply_delta(delta);
        let mut own = instance_of(inst.facts().map(|f| (f.rel, [f.tuple])));
        assert!(!own.shares_storage(inst));
        let effect = own.apply_delta_in_place(delta);
        assert_eq!(effect, out.effect);
        assert!(own.facts().eq(out.instance.facts()));
        out
    }

    #[test]
    fn apply_delta_shares_untouched_relation_storage() {
        let inst = base();
        let mut delta = Delta::new();
        delta.insert(RelId(0), vec![v("c")]);
        let out = inst.apply_delta(&delta);
        assert_eq!(
            out.effect.changed.iter().copied().collect::<Vec<_>>(),
            [RelId(0)]
        );
        assert_eq!(out.effect.inserted, 1);
        assert_eq!(out.effect.deleted, 0);
        // RelId(1) was untouched: its storage is the same allocation.
        assert!(out.instance.shares_relation_storage(&inst, RelId(1)));
        assert!(!out.instance.shares_relation_storage(&inst, RelId(0)));
        // The original is unchanged.
        assert!(!inst.contains(RelId(0), &[v("c")]));
        assert!(out.instance.contains(RelId(0), &[v("c")]));
    }

    #[test]
    fn noop_delta_shares_all_storage() {
        let inst = base();
        let mut delta = Delta::new();
        delta.insert(RelId(0), vec![v("a")]); // already present
        delta.delete(RelId(1), vec![v("z"), v("z")]); // absent
        let out = apply_both(&inst, &delta);
        assert!(out.effect.is_noop());
        assert_eq!(out.effect.inserted + out.effect.deleted, 0);
        assert!(out.instance.shares_storage(&inst));
    }

    #[test]
    fn insert_then_delete_cancels() {
        let inst = base();
        let mut delta = Delta::new();
        delta.insert(RelId(0), vec![v("new")]);
        delta.delete(RelId(0), vec![v("new")]);
        let out = apply_both(&inst, &delta);
        assert!(out.effect.is_noop());
        assert!(out.instance.shares_storage(&inst));
    }

    #[test]
    fn fact_in_both_lists_ends_absent() {
        // Inserts apply before deletes, so a present fact listed in both
        // is a no-op insert followed by an effective delete.
        let inst = base();
        let mut delta = Delta::new();
        delta.delete(RelId(0), vec![v("a")]);
        delta.insert(RelId(0), vec![v("a")]);
        let out = apply_both(&inst, &delta);
        assert!(!out.instance.contains(RelId(0), &[v("a")]));
        assert_eq!(out.effect.deleted, 1);
        assert_eq!(out.effect.inserted, 0);
        assert_eq!(
            out.effect.changed.iter().copied().collect::<Vec<_>>(),
            [RelId(0)]
        );
    }

    #[test]
    fn inserted_constants_are_net_only() {
        let inst = base();
        let mut delta = Delta::new();
        delta.insert(RelId(0), vec![v("fresh")]);
        delta.insert(RelId(1), vec![v("gone"), v("gone")]);
        delta.delete(RelId(1), vec![v("gone"), v("gone")]);
        let out = apply_both(&inst, &delta);
        assert_eq!(
            out.effect
                .inserted_constants
                .iter()
                .cloned()
                .collect::<Vec<_>>(),
            vec![v("fresh")]
        );
    }

    #[test]
    fn delta_check_validates_against_schema() {
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["x"]);
        let schema = b.finish().unwrap();
        let mut ok = Delta::new();
        ok.insert(r, vec![v("a")]);
        assert!(ok.check(&schema).is_ok());
        let mut bad_arity = Delta::new();
        bad_arity.delete(r, vec![v("a"), v("b")]);
        assert!(bad_arity.check(&schema).is_err());
        let mut bad_rel = Delta::new();
        bad_rel.insert(RelId(9), vec![v("a")]);
        assert!(bad_rel.check(&schema).is_err());
    }

    #[test]
    fn mixed_delta_reports_exact_counts() {
        let inst = base();
        let mut delta = Delta::new();
        delta.insert(RelId(0), vec![v("c")]);
        delta.insert(RelId(0), vec![v("c")]); // duplicate: one insert
        delta.delete(RelId(0), vec![v("a")]);
        delta.insert(RelId(1), vec![v("b"), v("a")]);
        let out = apply_both(&inst, &delta);
        assert_eq!(out.effect.inserted, 2);
        assert_eq!(out.effect.deleted, 1);
        assert_eq!(out.effect.changed.len(), 2);
        let r0 = &out.effect.net[&RelId(0)];
        assert_eq!(r0.inserted, [vec![v("c")]]);
        assert_eq!(r0.deleted, [vec![v("a")]]);
        assert_eq!(out.effect.net[&RelId(1)].inserted, [vec![v("b"), v("a")]]);
        assert!(out.effect.net.keys().eq(out.effect.changed.iter()));
        assert!(out.instance.contains(RelId(0), &[v("c")]));
        assert!(!out.instance.contains(RelId(0), &[v("a")]));
        assert!(out.instance.contains(RelId(1), &[v("b"), v("a")]));
        // Net arc count: Arc is not leaked to the original.
        assert!(!inst.contains(RelId(1), &[v("b"), v("a")]));
    }

    #[test]
    fn in_place_edit_of_an_unshared_relation_keeps_untouched_tuples() {
        let mut inst = base();
        let buffer = |inst: &Instance| {
            inst.tuples(RelId(0))
                .find(|t| **t == [v("b")])
                .map(|t| t.as_ptr())
        };
        let before = buffer(&inst);
        assert!(before.is_some());
        let mut delta = Delta::new();
        delta.insert(RelId(0), vec![v("c")]);
        delta.delete(RelId(0), vec![v("a")]);
        let effect = inst.apply_delta_in_place(&delta);
        assert_eq!(
            effect.changed.iter().copied().collect::<Vec<_>>(),
            [RelId(0)]
        );
        // No copy of the relation: the untouched tuple is the same heap
        // buffer.
        assert_eq!(buffer(&inst), before);
        assert!(inst.contains(RelId(0), &[v("c")]));
        assert!(!inst.contains(RelId(0), &[v("a")]));
    }

    #[test]
    fn in_place_edit_of_a_shared_relation_leaves_the_other_snapshot_alone() {
        let inst = base();
        let mut edited = inst.clone();
        let mut delta = Delta::new();
        delta.insert(RelId(0), vec![v("c")]);
        delta.delete(RelId(0), vec![v("a")]);
        delta.insert(RelId(1), vec![v("b"), v("a")]);
        let effect = edited.apply_delta_in_place(&delta);
        assert_eq!(effect.inserted, 2);
        assert_eq!(effect.deleted, 1);
        // The shared snapshot keeps its facts; the edited one copied the
        // relations it changed and nothing else.
        assert!(inst.facts().eq(base().facts()));
        assert!(!edited.shares_relation_storage(&inst, RelId(0)));
        assert!(!edited.shares_relation_storage(&inst, RelId(1)));
        assert!(edited.contains(RelId(0), &[v("c")]));
        assert!(!edited.contains(RelId(0), &[v("a")]));
        assert!(edited.contains(RelId(1), &[v("b"), v("a")]));
    }
}
