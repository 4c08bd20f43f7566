//! Concept extensions `[[C]]^I ⊆ Const` (paper §4.2), bitset-backed.
//!
//! Every `LS` concept except `⊤` (and conjunctions reducible to it) has a
//! finite extension; `⊤` denotes all of `Const`. [`Extension`] represents
//! both cases exactly, as it always did — but the finite case is now a
//! [`ValueSet`]: a dense bit vector indexed by a shared
//! [`ConstPool`](whynot_relation::ConstPool) (one bit per interned
//! constant), plus a small overflow set for the rare constants outside
//! the pool (e.g. a nominal over a fresh value). When two sets share a
//! pool — the common case once the extension engine threads one pool per
//! (ontology, instance) evaluation — `subset_of`, `intersect` and
//! equality run word-parallel over `u64` words instead of walking
//! `BTreeSet` nodes.
//!
//! Semantics are unchanged: a `ValueSet` *is* a set of [`Value`]s, its
//! iteration order is ascending value order (ids ascend with values), and
//! equality/ordering are value-set equality/ordering regardless of which
//! pool backs either side.

use crate::kernels;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;
use whynot_relation::{ConstPool, PoolMap, Value, ValueId};

/// A finite set of constants over an interned pool: dense bits for pooled
/// values, a `BTreeSet` overflow for the rest.
#[derive(Clone, Debug)]
pub struct ValueSet {
    pool: Arc<ConstPool>,
    /// `words[i / 64] >> (i % 64) & 1` — membership of `ValueId(i)`.
    words: Vec<u64>,
    /// Members not interned in `pool` (disjoint from the pooled values by
    /// construction: a value with an id always lives in `words`).
    extra: BTreeSet<Value>,
}

impl ValueSet {
    /// The empty set over a pool.
    pub fn empty_in(pool: Arc<ConstPool>) -> Self {
        let words = vec![0u64; pool.word_len()];
        ValueSet {
            pool,
            words,
            extra: BTreeSet::new(),
        }
    }

    /// The set whose pooled members are the set bits of `words` (one
    /// word per 64 pool ids), with no overflow members.
    pub(crate) fn from_words(pool: Arc<ConstPool>, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), pool.word_len());
        ValueSet {
            pool,
            words,
            extra: BTreeSet::new(),
        }
    }

    /// Collects values into a set over `pool`; values the pool does not
    /// intern land in the overflow.
    pub fn collect_in(pool: Arc<ConstPool>, values: impl IntoIterator<Item = Value>) -> Self {
        let mut set = ValueSet::empty_in(pool);
        for v in values {
            set.insert(v);
        }
        set
    }

    /// Collects values into a set backed by a private pool built from the
    /// values themselves (the no-context constructor behind
    /// [`Extension::finite`]).
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Self {
        let owned: BTreeSet<Value> = values.into_iter().collect();
        let pool = Arc::new(ConstPool::from_values(owned.iter().cloned()));
        let mut words = vec![u64::MAX; pool.word_len()];
        // Every pool value is a member; clear the tail bits of the last
        // word past `pool.len()`.
        let tail = pool.len() % 64;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        ValueSet {
            pool,
            words,
            extra: BTreeSet::new(),
        }
    }

    /// The pool this set indexes into.
    pub fn pool(&self) -> &Arc<ConstPool> {
        &self.pool
    }

    /// The backing words (one bit per pooled value). Exposed for the
    /// word-parallel consumers in the search algorithms.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The overflow members living outside the pool.
    pub fn extra(&self) -> &BTreeSet<Value> {
        &self.extra
    }

    /// Inserts a value; returns whether it was new.
    pub fn insert(&mut self, v: Value) -> bool {
        match self.pool.id_of(&v) {
            Some(id) => {
                let (w, b) = (id.index() / 64, id.index() % 64);
                let fresh = self.words[w] & (1 << b) == 0;
                self.words[w] |= 1 << b;
                fresh
            }
            None => self.extra.insert(v),
        }
    }

    /// Inserts a borrowed value, cloning only when it falls outside the
    /// pool (the clone-free fast path for pooled members — column and
    /// projection evaluation feed every tuple occurrence through here).
    pub fn insert_ref(&mut self, v: &Value) -> bool {
        match self.pool.id_of(v) {
            Some(id) => {
                let (w, b) = (id.index() / 64, id.index() % 64);
                let fresh = self.words[w] & (1 << b) == 0;
                self.words[w] |= 1 << b;
                fresh
            }
            None => {
                if self.extra.contains(v) {
                    false
                } else {
                    self.extra.insert(v.clone())
                }
            }
        }
    }

    /// Collects borrowed values into a set over `pool`, cloning only the
    /// values the pool does not intern (cf. [`ValueSet::collect_in`]).
    pub fn collect_refs_in<'v>(
        pool: Arc<ConstPool>,
        values: impl IntoIterator<Item = &'v Value>,
    ) -> Self {
        let mut set = ValueSet::empty_in(pool);
        for v in values {
            set.insert_ref(v);
        }
        set
    }

    /// Membership test: a bit probe for pooled values, a tree lookup
    /// otherwise.
    pub fn contains(&self, v: &Value) -> bool {
        match self.pool.id_of(v) {
            Some(id) => self.words[id.index() / 64] & (1 << (id.index() % 64)) != 0,
            None => self.extra.contains(v),
        }
    }

    /// Membership of a pooled value by its id in this set's pool: one
    /// bit probe, no hashing.
    pub fn contains_id(&self, id: ValueId) -> bool {
        self.words
            .get(id.index() / 64)
            .is_some_and(|w| w & (1 << (id.index() % 64)) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        kernels::count_ones(&self.words) + self.extra.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.extra.is_empty() && kernels::is_zero(&self.words)
    }

    /// Whether both sets index the same pool (the word-parallel fast
    /// path).
    pub fn same_pool(&self, other: &ValueSet) -> bool {
        Arc::ptr_eq(&self.pool, &other.pool)
    }

    /// Set inclusion `self ⊆ other`. Word-parallel (unrolled kernel)
    /// when the pools are shared; falls back to per-value membership
    /// otherwise.
    pub fn is_subset(&self, other: &ValueSet) -> bool {
        if self.same_pool(other) {
            kernels::subset(&self.words, &other.words)
                && self.extra.iter().all(|v| other.extra.contains(v))
        } else {
            self.iter().all(|v| other.contains(v))
        }
    }

    /// Set intersection. Word-parallel (unrolled kernel) when the pools
    /// are shared.
    pub fn intersection(&self, other: &ValueSet) -> ValueSet {
        if self.same_pool(other) {
            let mut words = self.words.clone();
            kernels::and_assign(&mut words, &other.words);
            ValueSet {
                pool: Arc::clone(&self.pool),
                words,
                extra: self.extra.intersection(&other.extra).cloned().collect(),
            }
        } else {
            ValueSet::collect_in(
                Arc::clone(&self.pool),
                self.iter().filter(|v| other.contains(v)).cloned(),
            )
        }
    }

    /// In-place intersection `self &= other`: the allocation-free twin
    /// of [`ValueSet::intersection`] on the shared-pool fast path (the
    /// conjunction loops of concept evaluation call it once per `⊓`).
    pub fn intersect_assign(&mut self, other: &ValueSet) {
        if self.same_pool(other) {
            kernels::and_assign(&mut self.words, &other.words);
            if !self.extra.is_empty() {
                self.extra.retain(|v| other.extra.contains(v));
            }
        } else {
            *self = self.intersection(other);
        }
    }

    /// Iterates members in ascending [`Value`] order (pool ids ascend
    /// with values; the overflow merges in by comparison).
    pub fn iter(&self) -> ValueSetIter<'_> {
        ValueSetIter {
            set: self,
            next_id: 0,
            extra: self.extra.iter().peekable(),
        }
    }

    /// Copies the members out into a `BTreeSet` (for callers that need an
    /// owned, pool-free set — e.g. the lub support sets).
    pub fn to_btree_set(&self) -> BTreeSet<Value> {
        self.iter().cloned().collect()
    }

    /// Re-interns the members into `pool` (bit-copy when the pool is
    /// already shared).
    pub fn reinterned(&self, pool: &Arc<ConstPool>) -> ValueSet {
        if Arc::ptr_eq(&self.pool, pool) {
            self.clone()
        } else {
            ValueSet::collect_in(Arc::clone(pool), self.iter().cloned())
        }
    }

    /// Re-interns through a precomputed [`PoolMap`] (`self`'s pool →
    /// `pool`): every pooled member becomes one translated bit, with no
    /// value clones or searches; only members absent from the target pool
    /// fall back to the overflow set.
    pub fn reinterned_via(&self, pool: &Arc<ConstPool>, map: &PoolMap) -> ValueSet {
        let mut out = ValueSet::empty_in(Arc::clone(pool));
        for (w, &word) in self.words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let src = ValueId((w * 64 + b) as u32);
                match map.translate(src) {
                    Some(dst) => {
                        out.words[dst.index() / 64] |= 1 << (dst.index() % 64);
                    }
                    None => {
                        out.extra.insert(self.pool.value(src).clone());
                    }
                }
            }
        }
        for v in &self.extra {
            out.insert(v.clone());
        }
        out
    }
}

/// Iterator over a [`ValueSet`] in ascending value order.
pub struct ValueSetIter<'a> {
    set: &'a ValueSet,
    next_id: usize,
    extra: std::iter::Peekable<std::collections::btree_set::Iter<'a, Value>>,
}

impl<'a> ValueSetIter<'a> {
    /// The next pooled member at or after `next_id`, without consuming.
    fn peek_pooled(&self) -> Option<(usize, &'a Value)> {
        let words = &self.set.words;
        let mut i = self.next_id;
        while i < self.set.pool.len() {
            let (w, b) = (i / 64, i % 64);
            let rest = words[w] >> b;
            if rest == 0 {
                i = (w + 1) * 64;
                continue;
            }
            i += rest.trailing_zeros() as usize;
            return Some((i, self.set.pool.value(ValueId(i as u32))));
        }
        None
    }
}

impl<'a> Iterator for ValueSetIter<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        match (self.peek_pooled(), self.extra.peek()) {
            (Some((i, pv)), Some(&ev)) => {
                if pv <= ev {
                    self.next_id = i + 1;
                    Some(pv)
                } else {
                    self.extra.next()
                }
            }
            (Some((i, pv)), None) => {
                self.next_id = i + 1;
                Some(pv)
            }
            (None, Some(_)) => self.extra.next(),
            (None, None) => None,
        }
    }
}

impl PartialEq for ValueSet {
    fn eq(&self, other: &Self) -> bool {
        if self.same_pool(other) {
            self.words == other.words && self.extra == other.extra
        } else {
            self.iter().eq(other.iter())
        }
    }
}

impl Eq for ValueSet {}

impl PartialOrd for ValueSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ValueSet {
    /// Lexicographic over ascending members — the same order
    /// `BTreeSet<Value>` has, so sorted outputs match the previous
    /// representation.
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl FromIterator<Value> for ValueSet {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        ValueSet::from_values(iter)
    }
}

/// The extension of a concept: either all of `Const`, or a finite
/// (bitset-backed) set.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use whynot_concepts::Extension;
/// use whynot_relation::{ConstPool, Value};
///
/// // Sets sharing one interned pool compare word-parallel; values
/// // outside the pool are still represented exactly (overflow set).
/// let pool = Arc::new(ConstPool::from_values((0..64).map(Value::int)));
/// let small = Extension::finite_in(Arc::clone(&pool), (0..8).map(Value::int));
/// let big = Extension::finite_in(Arc::clone(&pool), (0..32).map(Value::int));
/// assert!(small.subset_of(&big));
/// assert_eq!(small.intersect(&big), small);
/// assert_eq!(big.len(), Some(32));
///
/// // ⊤ contains everything and reports no finite cardinality.
/// let top = Extension::Universal;
/// assert!(top.contains(&Value::str("anything")));
/// assert!(small.subset_of(&top));
/// assert_eq!(top.len(), None);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Extension {
    /// All constants (`[[⊤]] = Const`).
    Universal,
    /// A finite set of constants.
    Finite(ValueSet),
}

impl Extension {
    /// The empty extension (over a private empty pool; prefer
    /// [`Extension::empty_in`] inside the engine).
    pub fn empty() -> Self {
        Extension::Finite(ValueSet::from_values([]))
    }

    /// The empty extension over a shared pool.
    pub fn empty_in(pool: Arc<ConstPool>) -> Self {
        Extension::Finite(ValueSet::empty_in(pool))
    }

    /// A finite extension from an iterator (private pool; prefer
    /// [`Extension::finite_in`] inside the engine).
    pub fn finite(values: impl IntoIterator<Item = Value>) -> Self {
        Extension::Finite(ValueSet::from_values(values))
    }

    /// A finite extension over a shared pool.
    pub fn finite_in(pool: Arc<ConstPool>, values: impl IntoIterator<Item = Value>) -> Self {
        Extension::Finite(ValueSet::collect_in(pool, values))
    }

    /// A finite extension over a shared pool from borrowed values: pooled
    /// members become bits without cloning, only out-of-pool values are
    /// cloned into the overflow set (the engine's evaluation fast path).
    pub fn finite_refs_in<'v>(
        pool: Arc<ConstPool>,
        values: impl IntoIterator<Item = &'v Value>,
    ) -> Self {
        Extension::Finite(ValueSet::collect_refs_in(pool, values))
    }

    /// Whether `v` belongs to the extension.
    pub fn contains(&self, v: &Value) -> bool {
        match self {
            Extension::Universal => true,
            Extension::Finite(set) => set.contains(v),
        }
    }

    /// Whether the extension is empty.
    pub fn is_empty(&self) -> bool {
        match self {
            Extension::Universal => false,
            Extension::Finite(set) => set.is_empty(),
        }
    }

    /// The cardinality (`None` for the universal extension).
    pub fn len(&self) -> Option<usize> {
        match self {
            Extension::Universal => None,
            Extension::Finite(set) => Some(set.len()),
        }
    }

    /// Set inclusion `self ⊆ other` (word-parallel on shared pools).
    pub fn subset_of(&self, other: &Extension) -> bool {
        match (self, other) {
            (_, Extension::Universal) => true,
            (Extension::Universal, Extension::Finite(_)) => false,
            (Extension::Finite(a), Extension::Finite(b)) => a.is_subset(b),
        }
    }

    /// Set intersection (word-parallel on shared pools).
    pub fn intersect(&self, other: &Extension) -> Extension {
        match (self, other) {
            (Extension::Universal, e) => e.clone(),
            (e, Extension::Universal) => e.clone(),
            (Extension::Finite(a), Extension::Finite(b)) => Extension::Finite(a.intersection(b)),
        }
    }

    /// In-place intersection `self = self ∩ other`, equal to
    /// [`Extension::intersect`] but reusing `self`'s words on the
    /// finite/finite shared-pool path — the product loops intersect one
    /// running extension per conjunct, so this is what keeps them from
    /// allocating a fresh extension per `⊓`.
    pub fn intersect_assign(&mut self, other: &Extension) {
        match (self, other) {
            (_, Extension::Universal) => {}
            (this @ Extension::Universal, e) => *this = e.clone(),
            (Extension::Finite(a), Extension::Finite(b)) => a.intersect_assign(b),
        }
    }

    /// The finite set inside, if finite.
    pub fn as_finite(&self) -> Option<&ValueSet> {
        match self {
            Extension::Universal => None,
            Extension::Finite(set) => Some(set),
        }
    }

    /// Whether every element of `values` is contained.
    pub fn contains_all<'a>(&self, values: impl IntoIterator<Item = &'a Value>) -> bool {
        values.into_iter().all(|v| self.contains(v))
    }

    /// Re-interns a finite extension into `pool` (`Universal` passes
    /// through). The engine calls this once per evaluated concept so all
    /// cached extensions share one pool and compare word-parallel.
    pub fn reinterned(&self, pool: &Arc<ConstPool>) -> Extension {
        match self {
            Extension::Universal => Extension::Universal,
            Extension::Finite(set) => Extension::Finite(set.reinterned(pool)),
        }
    }

    /// [`Extension::reinterned`] through a precomputed [`PoolMap`] (the
    /// engine's clone-free fast path).
    pub fn reinterned_via(&self, pool: &Arc<ConstPool>, map: &PoolMap) -> Extension {
        match self {
            Extension::Universal => Extension::Universal,
            Extension::Finite(set) => Extension::Finite(set.reinterned_via(pool, map)),
        }
    }
}

impl FromIterator<Value> for Extension {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Extension::finite(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fin(vals: &[i64]) -> Extension {
        Extension::finite(vals.iter().map(|&n| Value::int(n)))
    }

    #[test]
    fn universal_contains_everything() {
        assert!(Extension::Universal.contains(&Value::int(5)));
        assert!(Extension::Universal.contains(&Value::str("x")));
        assert!(!Extension::Universal.is_empty());
        assert_eq!(Extension::Universal.len(), None);
    }

    #[test]
    fn subset_relations() {
        assert!(fin(&[1, 2]).subset_of(&fin(&[1, 2, 3])));
        assert!(!fin(&[1, 4]).subset_of(&fin(&[1, 2, 3])));
        assert!(fin(&[1]).subset_of(&Extension::Universal));
        assert!(!Extension::Universal.subset_of(&fin(&[1])));
        assert!(Extension::Universal.subset_of(&Extension::Universal));
        assert!(Extension::empty().subset_of(&fin(&[])));
    }

    #[test]
    fn intersection() {
        assert_eq!(fin(&[1, 2, 3]).intersect(&fin(&[2, 3, 4])), fin(&[2, 3]));
        assert_eq!(Extension::Universal.intersect(&fin(&[7])), fin(&[7]));
        assert_eq!(fin(&[7]).intersect(&Extension::Universal), fin(&[7]));
        assert_eq!(
            Extension::Universal.intersect(&Extension::Universal),
            Extension::Universal
        );
    }

    #[test]
    fn contains_all() {
        let vals = [Value::int(1), Value::int(2)];
        assert!(fin(&[1, 2, 3]).contains_all(vals.iter()));
        assert!(!fin(&[1]).contains_all(vals.iter()));
        assert!(Extension::Universal.contains_all(vals.iter()));
    }

    #[test]
    fn pooled_and_private_sets_compare_semantically() {
        let pool = Arc::new(ConstPool::from_values((0..10).map(Value::int)));
        let pooled = Extension::finite_in(Arc::clone(&pool), [Value::int(2), Value::int(5)]);
        let private = Extension::finite([Value::int(2), Value::int(5)]);
        assert_eq!(pooled, private);
        assert!(pooled.subset_of(&private));
        assert!(private.subset_of(&pooled));
        assert_eq!(pooled.intersect(&private), private);
    }

    #[test]
    fn overflow_values_are_exact() {
        let pool = Arc::new(ConstPool::from_values([Value::int(1)]));
        let mut set = ValueSet::empty_in(Arc::clone(&pool));
        assert!(set.insert(Value::int(1)));
        assert!(set.insert(Value::str("fresh")));
        assert!(!set.insert(Value::str("fresh")));
        assert!(set.contains(&Value::str("fresh")));
        assert_eq!(set.len(), 2);
        assert_eq!(set.extra().len(), 1);
        let order: Vec<Value> = set.iter().cloned().collect();
        assert_eq!(order, vec![Value::int(1), Value::str("fresh")]);
    }

    #[test]
    fn iteration_merges_pool_and_overflow_in_value_order() {
        let pool = Arc::new(ConstPool::from_values([
            Value::int(1),
            Value::int(5),
            Value::str("m"),
        ]));
        let set = ValueSet::collect_in(
            Arc::clone(&pool),
            [
                Value::str("m"),
                Value::int(3), // overflow, sorts between 1 and 5
                Value::int(1),
                Value::str("z"), // overflow, sorts last
            ],
        );
        let order: Vec<Value> = set.iter().cloned().collect();
        assert_eq!(
            order,
            vec![
                Value::int(1),
                Value::int(3),
                Value::str("m"),
                Value::str("z")
            ]
        );
    }

    #[test]
    fn borrowed_collection_matches_owned_collection() {
        let pool = Arc::new(ConstPool::from_values((0..10).map(Value::int)));
        let vals = [Value::int(2), Value::int(7), Value::str("ghost")];
        let by_ref = Extension::finite_refs_in(Arc::clone(&pool), vals.iter());
        let by_val = Extension::finite_in(Arc::clone(&pool), vals.iter().cloned());
        assert_eq!(by_ref, by_val);
        // Only the out-of-pool value landed in the overflow set.
        assert_eq!(by_ref.as_finite().unwrap().extra().len(), 1);
        // insert_ref deduplicates overflow values like insert does.
        let mut set = ValueSet::empty_in(pool);
        assert!(set.insert_ref(&Value::str("ghost")));
        assert!(!set.insert_ref(&Value::str("ghost")));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn word_parallel_ops_cross_word_boundaries() {
        let pool = Arc::new(ConstPool::from_values((0..130).map(Value::int)));
        let evens = Extension::finite_in(Arc::clone(&pool), (0..130).step_by(2).map(Value::int));
        let all = Extension::finite_in(Arc::clone(&pool), (0..130).map(Value::int));
        assert!(evens.subset_of(&all));
        assert!(!all.subset_of(&evens));
        assert_eq!(evens.intersect(&all), evens);
        assert_eq!(evens.len(), Some(65));
    }

    #[test]
    fn intersect_assign_matches_intersect() {
        let pool = Arc::new(ConstPool::from_values((0..130).map(Value::int)));
        let shared_a = Extension::finite_in(Arc::clone(&pool), (0..100).map(Value::int));
        let shared_b =
            Extension::finite_in(Arc::clone(&pool), (50..130).step_by(3).map(Value::int));
        let mut with_extra_a = Extension::finite_in(Arc::clone(&pool), (0..70).map(Value::int));
        let mut with_extra_b = Extension::finite_in(Arc::clone(&pool), (60..130).map(Value::int));
        if let Extension::Finite(set) = &mut with_extra_a {
            set.insert(Value::str("ghost"));
            set.insert(Value::str("only-a"));
        }
        if let Extension::Finite(set) = &mut with_extra_b {
            set.insert(Value::str("ghost"));
        }
        let private = fin(&[55, 61, 200]); // different pool → slow path
        let cases = [
            (shared_a.clone(), shared_b.clone()),
            (shared_b, shared_a.clone()),
            (with_extra_a, with_extra_b),
            (shared_a.clone(), private.clone()),
            (private, shared_a.clone()),
            (Extension::Universal, shared_a.clone()),
            (shared_a, Extension::Universal),
            (Extension::Universal, Extension::Universal),
        ];
        for (a, b) in cases {
            let expect = a.intersect(&b);
            let mut got = a.clone();
            got.intersect_assign(&b);
            assert_eq!(got, expect, "intersect_assign({a:?}, {b:?})");
        }
    }

    #[test]
    fn ordering_matches_btreeset_semantics() {
        // {1,2} < {1,3} < {2} lexicographically over sorted members.
        let a = fin(&[1, 2]);
        let b = fin(&[1, 3]);
        let c = fin(&[2]);
        assert!(a < b && b < c);
        // Universal sorts before Finite (variant order), as before.
        assert!(Extension::Universal < a);
    }
}
