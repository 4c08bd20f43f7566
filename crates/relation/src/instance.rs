//! Database instances: finite sets of facts satisfying the constraints
//! (paper §2).
//!
//! An [`Instance`] is plain data — a deduplicated, deterministically ordered
//! set of tuples per relation. Constraint satisfaction is checked against a
//! [`Schema`](crate::Schema) explicitly (see
//! [`Instance::satisfies_constraints`]), mirroring the paper's definition
//! "an instance over `S` is a set of facts ... satisfying the integrity
//! constraints `Σ`".

use crate::error::RelError;
use crate::schema::{RelId, Schema};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A database tuple.
pub type Tuple = Vec<Value>;

/// A single fact `R(b1, …, bk)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Fact {
    /// The relation.
    pub rel: RelId,
    /// The tuple of constants.
    pub tuple: Tuple,
}

/// A database instance: a finite set of facts.
///
/// Per-relation storage sits behind an `Arc`, so cloning an instance is
/// O(#relations) pointer bumps and two snapshots produced by
/// [`Instance::apply_delta`] *share* the storage of every relation the
/// delta did not touch. [`Instance::shares_storage`] tests that sharing;
/// the evaluation layers use it to recognize "same data, different
/// handle" without comparing tuples. In-place mutation
/// ([`Instance::insert`] / [`Instance::remove`]) copies-on-write via
/// [`Arc::make_mut`], so mutating one snapshot never disturbs another.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Instance {
    relations: BTreeMap<RelId, Arc<BTreeSet<Tuple>>>,
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a fact without schema validation (arity discipline is the
    /// caller's responsibility; use [`Instance::insert_checked`] to
    /// validate). Returns whether the fact was new.
    pub fn insert(&mut self, rel: RelId, tuple: impl Into<Tuple>) -> bool {
        Arc::make_mut(self.relations.entry(rel).or_default()).insert(tuple.into())
    }

    /// Inserts a fact, validating arity against `schema`.
    pub fn insert_checked(
        &mut self,
        schema: &Schema,
        rel: RelId,
        tuple: impl Into<Tuple>,
    ) -> Result<bool, RelError> {
        let tuple = tuple.into();
        let expected = schema.arity(rel);
        if tuple.len() != expected {
            return Err(RelError::ArityMismatch {
                relation: schema.name(rel).to_string(),
                expected,
                got: tuple.len(),
            });
        }
        Ok(self.insert(rel, tuple))
    }

    /// Removes a fact; returns whether it was present.
    pub fn remove(&mut self, rel: RelId, tuple: &[Value]) -> bool {
        match self.relations.get_mut(&rel) {
            // Probe before make_mut: removing an absent tuple must not
            // force a copy-on-write of a shared relation.
            Some(rs) if rs.contains(tuple) => Arc::make_mut(rs).remove(tuple),
            _ => false,
        }
    }

    /// Whether `self` and `other` share the storage of every relation —
    /// i.e. they are clones / delta snapshots with identical data. This
    /// is a pointer-equality walk (O(#relations)), never a tuple
    /// comparison; instances that are equal but independently built
    /// return `false`.
    pub fn shares_storage(&self, other: &Instance) -> bool {
        self.relations.len() == other.relations.len()
            && self
                .relations
                .iter()
                .zip(other.relations.iter())
                .all(|((ra, sa), (rb, sb))| ra == rb && Arc::ptr_eq(sa, sb))
    }

    /// Whether the storage of `rel` is shared (pointer-equal) between
    /// `self` and `other`. Relations absent on both sides count as
    /// shared (both are the empty relation).
    pub fn shares_relation_storage(&self, other: &Instance, rel: RelId) -> bool {
        match (self.relations.get(&rel), other.relations.get(&rel)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            (Some(a), None) => a.is_empty(),
            (None, Some(b)) => b.is_empty(),
        }
    }

    /// The tuples of `rel` (`R^I`), empty if none were inserted.
    pub fn tuples(&self, rel: RelId) -> impl Iterator<Item = &Tuple> + '_ {
        self.relations
            .get(&rel)
            .into_iter()
            .flat_map(|rs| rs.iter())
    }

    /// Number of tuples in `rel`.
    pub fn cardinality(&self, rel: RelId) -> usize {
        self.relations.get(&rel).map_or(0, |t| t.len())
    }

    /// Whether `rel` contains `tuple`.
    pub fn contains(&self, rel: RelId, tuple: &[Value]) -> bool {
        self.relations
            .get(&rel)
            .is_some_and(|rs| rs.contains(tuple))
    }

    /// Iterates over all facts, ordered by relation id then tuple.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.relations.iter().flat_map(|(&rel, tuples)| {
            tuples.iter().map(move |t| Fact {
                rel,
                tuple: t.clone(),
            })
        })
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.relations.values().map(|t| t.len()).sum()
    }

    /// Whether the instance holds no facts.
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(|t| t.is_empty())
    }

    /// The relations that hold at least one fact.
    pub fn populated_relations(&self) -> impl Iterator<Item = RelId> + '_ {
        self.relations
            .iter()
            .filter(|(_, t)| !t.is_empty())
            .map(|(&r, _)| r)
    }

    /// The active domain `adom(I)`: every constant occurring in some fact.
    ///
    /// Clones each distinct constant once: the occurrences are gathered
    /// by reference and deduplicated first.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut refs: Vec<&Value> = self.value_occurrences().collect();
        refs.sort_unstable();
        refs.dedup();
        refs.into_iter().cloned().collect()
    }

    /// Every constant occurrence across all facts, by reference and with
    /// repetitions (the allocation-free feed for
    /// [`ConstPool::for_instance`](crate::ConstPool::for_instance)).
    pub fn value_occurrences(&self) -> impl Iterator<Item = &Value> + '_ {
        self.relations
            .values()
            .flat_map(|rs| rs.iter())
            .flat_map(|t| t.iter())
    }

    /// The set of values occurring in attribute position `attr` of `rel`.
    ///
    /// Materializes an owned tree per call; hot paths that probe the same
    /// column repeatedly should hoist the result into a local, or go
    /// through the borrowed [`Instance::column_refs`] / pooled
    /// [`Instance::column_ids`](crate::ConstPool) accessors instead.
    pub fn column(&self, rel: RelId, attr: usize) -> BTreeSet<Value> {
        self.tuples(rel)
            .filter_map(|t| t.get(attr).cloned())
            .collect()
    }

    /// Borrowed column view: every value occurring in attribute position
    /// `attr` of `rel`, by reference and with repetitions (tuples shorter
    /// than `attr + 1` are skipped). The allocation-free counterpart of
    /// [`Instance::column`] for consumers that deduplicate on their own
    /// terms — e.g. by interning into a
    /// [`ConstPool`](crate::ConstPool) bitset.
    pub fn column_refs(&self, rel: RelId, attr: usize) -> impl Iterator<Item = &Value> + '_ {
        self.tuples(rel).filter_map(move |t| t.get(attr))
    }

    /// Checks every tuple's arity against the schema.
    pub fn check_arities(&self, schema: &Schema) -> Result<(), RelError> {
        for (&rel, tuples) in &self.relations {
            if rel.0 as usize >= schema.len() {
                return Err(RelError::UnknownRelation(format!("{rel:?}")));
            }
            let expected = schema.arity(rel);
            for t in tuples.iter() {
                if t.len() != expected {
                    return Err(RelError::ArityMismatch {
                        relation: schema.name(rel).to_string(),
                        expected,
                        got: t.len(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether the instance satisfies every integrity constraint of the
    /// schema (FDs, IDs, and view definitions — a view must contain exactly
    /// the result of its defining UCQ).
    pub fn satisfies_constraints(&self, schema: &Schema) -> bool {
        schema
            .constraints()
            .iter()
            .all(|c| c.satisfied_by(schema, self))
    }

    /// Renders the instance with relation and attribute names.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        DisplayInstance {
            instance: self,
            schema,
        }
    }
}

struct DisplayInstance<'a> {
    instance: &'a Instance,
    schema: &'a Schema,
}

impl fmt::Display for DisplayInstance<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (&rel, tuples) in &self.instance.relations {
            if tuples.is_empty() {
                continue;
            }
            writeln!(f, "{}:", self.schema.name(rel))?;
            for t in tuples.iter() {
                let row: Vec<String> = t.iter().map(|v| v.to_string()).collect();
                writeln!(f, "  ({})", row.join(", "))?;
            }
        }
        Ok(())
    }
}

/// Convenience macro-free helper: builds an instance from
/// `(RelId, Vec<Tuple>)` groups.
pub fn instance_of<I, T>(groups: I) -> Instance
where
    I: IntoIterator<Item = (RelId, T)>,
    T: IntoIterator<Item = Tuple>,
{
    let mut inst = Instance::new();
    for (rel, tuples) in groups {
        for t in tuples {
            inst.insert(rel, t);
        }
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    fn v(s: &str) -> Value {
        Value::str(s)
    }

    #[test]
    fn insert_deduplicates() {
        let mut inst = Instance::new();
        let r = RelId(0);
        assert!(inst.insert(r, vec![v("a")]));
        assert!(!inst.insert(r, vec![v("a")]));
        assert_eq!(inst.cardinality(r), 1);
    }

    #[test]
    fn insert_checked_validates_arity() {
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["x", "y"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        assert!(inst
            .insert_checked(&schema, r, vec![v("a"), v("b")])
            .is_ok());
        let err = inst.insert_checked(&schema, r, vec![v("a")]).unwrap_err();
        assert!(matches!(
            err,
            RelError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn active_domain_collects_all_constants() {
        let mut inst = Instance::new();
        inst.insert(RelId(0), vec![v("a"), v("b")]);
        inst.insert(RelId(1), vec![v("b"), v("c")]);
        let adom: Vec<Value> = inst.active_domain().into_iter().collect();
        assert_eq!(adom, vec![v("a"), v("b"), v("c")]);
    }

    #[test]
    fn column_projects_one_attribute() {
        let mut inst = Instance::new();
        inst.insert(RelId(0), vec![v("a"), v("x")]);
        inst.insert(RelId(0), vec![v("b"), v("x")]);
        assert_eq!(inst.column(RelId(0), 1).len(), 1);
        assert_eq!(inst.column(RelId(0), 0).len(), 2);
        assert!(inst.column(RelId(0), 5).is_empty());
    }

    #[test]
    fn facts_iterate_in_deterministic_order() {
        let mut inst = Instance::new();
        inst.insert(RelId(1), vec![v("z")]);
        inst.insert(RelId(0), vec![v("b")]);
        inst.insert(RelId(0), vec![v("a")]);
        let facts: Vec<Fact> = inst.facts().collect();
        assert_eq!(facts.len(), 3);
        assert_eq!(facts[0].tuple, vec![v("a")]);
        assert_eq!(facts[2].rel, RelId(1));
    }

    #[test]
    fn remove_and_contains() {
        let mut inst = Instance::new();
        inst.insert(RelId(0), vec![v("a")]);
        assert!(inst.contains(RelId(0), &[v("a")]));
        assert!(inst.remove(RelId(0), &[v("a")]));
        assert!(!inst.contains(RelId(0), &[v("a")]));
        assert!(!inst.remove(RelId(0), &[v("a")]));
        assert!(inst.is_empty());
    }
}
