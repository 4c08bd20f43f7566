//! Tuple-level mutation logs: the bridge from the paper's fixed-instance
//! algorithms to live, evolving instances.
//!
//! A [`Delta`] is a batch of fact inserts and deletes.
//! [`Instance::apply_delta`] applies one to an instance *functionally*:
//! the original is untouched, and the returned snapshot shares the
//! storage (`Arc`) of every relation the delta did not effectively
//! change. The accompanying [`DeltaOutcome`] reports exactly which
//! relations changed and which constants are new — the inputs the cache
//! layers above (extension tables, lub columns, answer sets) need to
//! invalidate *selectively* instead of rebuilding the world.
//!
//! No-ops are filtered at application time: inserting a fact that is
//! already present or deleting one that is absent changes nothing, marks
//! no relation as changed, and (for a delta made only of such no-ops)
//! yields a snapshot that shares **all** storage with the original.

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

/// The result of [`Instance::apply_delta`]: the new snapshot plus the
/// *effective* change summary the invalidation layers key on.
#[derive(Clone, Debug)]
pub struct DeltaOutcome {
    /// The post-delta snapshot. Relations not in [`DeltaOutcome::changed`]
    /// share storage with the pre-delta instance.
    pub instance: Instance,
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
    /// [`DeltaOutcome::changed`].
    pub net: BTreeMap<RelId, NetChange>,
}

impl DeltaOutcome {
    /// Whether the delta changed nothing (every mutation was a no-op).
    pub fn is_noop(&self) -> bool {
        self.changed.is_empty()
    }
}

impl Instance {
    /// Applies a delta functionally: `self` is untouched and the returned
    /// snapshot shares the storage of every relation whose fact set did
    /// not effectively change.
    ///
    /// Inserts apply before deletes. No-op mutations (inserting a present
    /// fact, deleting an absent one) are filtered out: they contribute
    /// nothing to [`DeltaOutcome::changed`], and a relation touched only
    /// by no-ops — or by mutations that cancel exactly — keeps its
    /// shared storage.
    pub fn apply_delta(&self, delta: &Delta) -> DeltaOutcome {
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

        let mut out = self.clone();
        let mut changed = BTreeSet::new();
        let mut inserted = 0usize;
        let mut deleted = 0usize;
        let mut inserted_constants = BTreeSet::new();
        let mut net = BTreeMap::new();
        for (rel, flips) in &diffs {
            changed.insert(*rel);
            let change: &mut NetChange = net.entry(*rel).or_default();
            for t in flips {
                if self.contains(*rel, t) {
                    out.remove(*rel, t);
                    deleted += 1;
                    change.deleted.push((*t).clone());
                } else {
                    inserted += 1;
                    inserted_constants.extend(t.iter().cloned());
                    out.insert(*rel, (*t).clone());
                    change.inserted.push((*t).clone());
                }
            }
        }
        DeltaOutcome {
            instance: out,
            changed,
            inserted,
            deleted,
            inserted_constants,
            net,
        }
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

    #[test]
    fn apply_delta_shares_untouched_relation_storage() {
        let inst = base();
        let mut delta = Delta::new();
        delta.insert(RelId(0), vec![v("c")]);
        let out = inst.apply_delta(&delta);
        assert_eq!(out.changed.iter().copied().collect::<Vec<_>>(), [RelId(0)]);
        assert_eq!(out.inserted, 1);
        assert_eq!(out.deleted, 0);
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
        let out = inst.apply_delta(&delta);
        assert!(out.is_noop());
        assert_eq!(out.inserted + out.deleted, 0);
        assert!(out.instance.shares_storage(&inst));
    }

    #[test]
    fn insert_then_delete_cancels() {
        let inst = base();
        let mut delta = Delta::new();
        delta.insert(RelId(0), vec![v("new")]);
        delta.delete(RelId(0), vec![v("new")]);
        let out = inst.apply_delta(&delta);
        assert!(out.is_noop());
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
        let out = inst.apply_delta(&delta);
        assert!(!out.instance.contains(RelId(0), &[v("a")]));
        assert_eq!(out.deleted, 1);
        assert_eq!(out.inserted, 0);
        assert_eq!(out.changed.iter().copied().collect::<Vec<_>>(), [RelId(0)]);
    }

    #[test]
    fn inserted_constants_are_net_only() {
        let inst = base();
        let mut delta = Delta::new();
        delta.insert(RelId(0), vec![v("fresh")]);
        delta.insert(RelId(1), vec![v("gone"), v("gone")]);
        delta.delete(RelId(1), vec![v("gone"), v("gone")]);
        let out = inst.apply_delta(&delta);
        assert_eq!(
            out.inserted_constants.iter().cloned().collect::<Vec<_>>(),
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
        let out = inst.apply_delta(&delta);
        assert_eq!(out.inserted, 2);
        assert_eq!(out.deleted, 1);
        assert_eq!(out.changed.len(), 2);
        let r0 = &out.net[&RelId(0)];
        assert_eq!(r0.inserted, [vec![v("c")]]);
        assert_eq!(r0.deleted, [vec![v("a")]]);
        assert_eq!(out.net[&RelId(1)].inserted, [vec![v("b"), v("a")]]);
        assert!(out.net.keys().eq(out.changed.iter()));
        assert!(out.instance.contains(RelId(0), &[v("c")]));
        assert!(!out.instance.contains(RelId(0), &[v("a")]));
        assert!(out.instance.contains(RelId(1), &[v("b"), v("a")]));
        // Net arc count: Arc is not leaked to the original.
        assert!(!inst.contains(RelId(1), &[v("b"), v("a")]));
    }
}
