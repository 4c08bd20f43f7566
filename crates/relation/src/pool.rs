//! Interned constants: a dense, ordered identifier space over a finite
//! value universe (typically an instance's active domain).
//!
//! The extension engine (see `whynot-concepts`) represents concept
//! extensions as bit vectors indexed by [`ValueId`]. A [`ConstPool`] fixes
//! the universe once — sorted, deduplicated — so that
//!
//! * `id → value` is an array lookup,
//! * `value → id` is one probe of a construction-time FNV hash index, and
//! * ascending id order **is** ascending [`Value`] order, which lets
//!   bitset iteration produce values in the same deterministic order the
//!   previous `BTreeSet`-based representation did.
//!
//! Pools are immutable after construction: every algorithm in the
//! framework evaluates against a fixed instance, and Proposition 5.1
//! bounds the constants an explanation needs to `adom(I) ∪ {a1,…,am}`,
//! so the universe is known up front. Values outside the pool (rare:
//! nominals over fresh constants) are handled by the extension layer's
//! overflow set, not by growing the pool. When the *instance* evolves
//! (see [`Delta`](crate::Delta)), growth happens between pools, not
//! inside one: [`GenPool`] builds the next immutable generation and a
//! [`PoolMap`] bridge so old interned structures remap in bulk.

use crate::instance::Instance;
use crate::schema::RelId;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A dense identifier for an interned [`Value`] (index into its
/// [`ConstPool`]).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An immutable interner over a finite set of constants, ordered by the
/// values' total order (so id order equals value order).
///
/// `value → id` goes through an open-addressing FNV hash index built at
/// construction (one probe plus an equality check in the common case);
/// `id → value` is an array lookup. The hash index matters: the search
/// algorithms intern thousands of answer-tuple constants per run, and a
/// binary search over boxed strings costs an order of magnitude more
/// per lookup than a hash probe.
#[derive(Clone, Debug, Default)]
pub struct ConstPool {
    /// Sorted, deduplicated values; `values[i]` is the value of
    /// `ValueId(i)`.
    values: Vec<Value>,
    /// Open-addressing slots holding ids (`u32::MAX` = empty); length is
    /// a power of two ≥ 2·len.
    slots: Vec<u32>,
}

const EMPTY_SLOT: u32 = u32::MAX;

fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Num(r) => {
            let mut bytes = [0u8; 32];
            bytes[..16].copy_from_slice(&r.num().to_le_bytes());
            bytes[16..].copy_from_slice(&r.den().to_le_bytes());
            fnv1a(&bytes, 0x9e37)
        }
        Value::Str(s) => fnv1a(s.as_bytes(), 0x85eb),
    }
}

impl ConstPool {
    /// An empty pool.
    pub fn new() -> Self {
        ConstPool::default()
    }

    /// Builds the pool from an already sorted, deduplicated vector.
    pub(crate) fn from_sorted_vec(values: Vec<Value>) -> Self {
        let cap = (values.len() * 2).next_power_of_two().max(4);
        let mut slots = vec![EMPTY_SLOT; cap];
        let mask = cap - 1;
        for (i, v) in values.iter().enumerate() {
            let mut at = hash_value(v) as usize & mask;
            while slots[at] != EMPTY_SLOT {
                at = (at + 1) & mask;
            }
            slots[at] = i as u32;
        }
        ConstPool { values, slots }
    }

    /// A pool over the given values (deduplicated, sorted).
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Self {
        let set: BTreeSet<Value> = values.into_iter().collect();
        ConstPool::from_sorted_vec(set.into_iter().collect())
    }

    /// A pool over an instance's active domain `adom(I)`.
    pub fn for_instance(inst: &Instance) -> Self {
        ConstPool::for_instance_with(inst, [])
    }

    /// A pool over `adom(I) ∪ extra` — the Proposition 5.1 universe when
    /// `extra` is the why-not tuple.
    ///
    /// Clones only the distinct constants: the occurrence list is
    /// gathered by reference, sorted and deduplicated first (an
    /// instance's fact list mentions each constant many times).
    pub fn for_instance_with(inst: &Instance, extra: impl IntoIterator<Item = Value>) -> Self {
        let extra: Vec<Value> = extra.into_iter().collect();
        ConstPool::from_refs(inst.value_occurrences().chain(&extra))
    }

    /// A pool over the values `refs` mentions, gathered by reference:
    /// the references are sorted and deduplicated first, so each distinct
    /// value is cloned once however often it occurs (a set of answer
    /// tuples mentions each constant many times).
    pub fn from_refs<'a>(refs: impl IntoIterator<Item = &'a Value>) -> Self {
        let mut refs: Vec<&Value> = refs.into_iter().collect();
        refs.sort_unstable();
        refs.dedup();
        ConstPool::from_sorted_vec(refs.into_iter().cloned().collect())
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of 64-bit words a dense bitset over this pool needs.
    pub fn word_len(&self) -> usize {
        self.values.len().div_ceil(64)
    }

    /// The id of `v`, if interned (one hash probe in the common case).
    pub fn id_of(&self, v: &Value) -> Option<ValueId> {
        if self.values.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = hash_value(v) as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == EMPTY_SLOT {
                return None;
            }
            if &self.values[slot as usize] == v {
                return Some(ValueId(slot));
            }
            at = (at + 1) & mask;
        }
    }

    /// Whether `v` is interned.
    pub fn contains(&self, v: &Value) -> bool {
        self.id_of(v).is_some()
    }

    /// The value of an id.
    ///
    /// # Panics
    /// Panics if `id` is out of range (ids are only minted by this pool).
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// The sorted backing slice (`values()[i]` is `ValueId(i)`'s value).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Iterates `(id, value)` in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &Value)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ValueId(i as u32), v))
    }
}

impl fmt::Display for ConstPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConstPool[{}]", self.values.len())
    }
}

/// A precomputed id translation from one pool into another.
///
/// Both pools are sorted by value, so the whole mapping is built with one
/// merge walk — O(|src| + |dst|) value comparisons, no binary searches —
/// after which translating an id is an array lookup. The extension
/// engine's memoizing context builds one `PoolMap` per foreign pool it
/// encounters (e.g. an `ExplicitOntology`'s build-time pool) and then
/// re-interns every extension from that pool as a pure bit remap, with
/// no value clones.
#[derive(Clone, Debug)]
pub struct PoolMap {
    /// `map[src_id] = dst_id` where the value exists in `dst`.
    map: Vec<Option<ValueId>>,
}

impl PoolMap {
    /// Builds the translation `src → dst`.
    pub fn between(src: &ConstPool, dst: &ConstPool) -> PoolMap {
        let mut map = Vec::with_capacity(src.len());
        let dst_values = dst.values();
        let mut j = 0usize;
        for v in src.values() {
            while j < dst_values.len() && dst_values[j] < *v {
                j += 1;
            }
            if j < dst_values.len() && dst_values[j] == *v {
                map.push(Some(ValueId(j as u32)));
            } else {
                map.push(None);
            }
        }
        PoolMap { map }
    }

    /// The destination id of a source id, if the value exists in the
    /// destination pool.
    #[inline]
    pub fn translate(&self, id: ValueId) -> Option<ValueId> {
        self.map.get(id.index()).copied().flatten()
    }
}

/// A generational handle over immutable [`ConstPool`]s: the growth seam
/// for live instances.
///
/// Each pool is still immutable — the invariant that ascending id order
/// is ascending value order must hold, and appending to a sorted array
/// would break it. Instead, [`GenPool::absorb`] builds the *next
/// generation*: a fresh pool over the sorted union of the old universe
/// and the new constants, plus a [`PoolMap`] that translates every old
/// id into the new pool (total, since generations only grow). Structures
/// interned against the old generation are bridged with one bit remap
/// per bitset instead of re-hashing their values.
///
/// Deletes never shrink a generation: a pool is only required to *cover*
/// the active domain (plus the question constants), and keeping retired
/// constants interned costs a few bits per bitset word while letting
/// every delete avoid a generation bump entirely.
#[derive(Clone, Debug)]
pub struct GenPool {
    pool: Arc<ConstPool>,
    generation: u64,
}

impl GenPool {
    /// Wraps an existing pool as generation 0.
    pub fn new(pool: Arc<ConstPool>) -> Self {
        GenPool {
            pool,
            generation: 0,
        }
    }

    /// The current generation's pool.
    pub fn pool(&self) -> &Arc<ConstPool> {
        &self.pool
    }

    /// The generation counter: bumped once per [`GenPool::absorb`] that
    /// actually introduced constants.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Interns any of `values` not yet covered. If none are new this is a
    /// no-op returning `None` (the generation does not bump). Otherwise
    /// it builds the next-generation pool via one merge walk and returns
    /// the `PoolMap` translating old ids into it — total on old ids,
    /// because generations only grow.
    pub fn absorb(&mut self, values: impl IntoIterator<Item = Value>) -> Option<PoolMap> {
        let fresh: BTreeSet<Value> = values
            .into_iter()
            .filter(|v| !self.pool.contains(v))
            .collect();
        if fresh.is_empty() {
            return None;
        }
        let mut merged: Vec<Value> = Vec::with_capacity(self.pool.len() + fresh.len());
        let mut extra = fresh.into_iter().peekable();
        for v in self.pool.values() {
            while let Some(f) = extra.next_if(|f| f < v) {
                merged.push(f);
            }
            merged.push(v.clone());
        }
        merged.extend(extra);
        let next = Arc::new(ConstPool::from_sorted_vec(merged));
        let map = PoolMap::between(&self.pool, &next);
        self.pool = next;
        self.generation += 1;
        Some(map)
    }
}

impl Instance {
    /// Interns this instance's active domain into a fresh shared pool
    /// (the engine entry point: build once, thread everywhere).
    pub fn const_pool(&self) -> Arc<ConstPool> {
        Arc::new(ConstPool::for_instance(self))
    }

    /// Interns `adom(I) ∪ extra` (Proposition 5.1's constant universe
    /// when `extra` is the missing tuple).
    pub fn const_pool_with(&self, extra: impl IntoIterator<Item = Value>) -> Arc<ConstPool> {
        Arc::new(ConstPool::for_instance_with(self, extra))
    }

    /// The pooled column accessor: the deduplicated ids of every value in
    /// attribute position `attr` of `rel`, ascending (id order is value
    /// order). The interned counterpart of [`Instance::column`] — no
    /// value clones, and the result indexes straight into bitsets over
    /// `pool`. Values the pool does not intern are omitted; a pool built
    /// by [`Instance::const_pool`] covers the whole active domain, so
    /// nothing is omitted for this instance's own columns.
    pub fn column_ids(&self, pool: &ConstPool, rel: RelId, attr: usize) -> Vec<ValueId> {
        let mut ids: Vec<ValueId> = self
            .column_refs(rel, attr)
            .filter_map(|v| pool.id_of(v))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelId;

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    #[test]
    fn ids_follow_value_order() {
        let pool = ConstPool::from_values([s("b"), Value::int(7), s("a"), Value::int(7)]);
        assert_eq!(pool.len(), 3);
        // Numbers precede strings; ids ascend with the value order.
        assert_eq!(pool.value(ValueId(0)), &Value::int(7));
        assert_eq!(pool.value(ValueId(1)), &s("a"));
        assert_eq!(pool.value(ValueId(2)), &s("b"));
        assert_eq!(pool.id_of(&s("a")), Some(ValueId(1)));
        assert_eq!(pool.id_of(&s("zzz")), None);
    }

    #[test]
    fn instance_pool_covers_the_active_domain() {
        let mut inst = Instance::new();
        inst.insert(RelId(0), vec![s("x"), s("y")]);
        inst.insert(RelId(1), vec![s("y"), Value::int(3)]);
        let pool = inst.const_pool();
        assert_eq!(pool.len(), 3);
        for v in inst.active_domain() {
            assert!(pool.contains(&v));
        }
        let with = inst.const_pool_with([s("ghost")]);
        assert_eq!(with.len(), 4);
        assert!(with.contains(&s("ghost")));
    }

    #[test]
    fn column_ids_are_sorted_deduplicated_and_pool_relative() {
        let mut inst = Instance::new();
        inst.insert(RelId(0), vec![s("b"), s("x")]);
        inst.insert(RelId(0), vec![s("a"), s("x")]);
        inst.insert(RelId(0), vec![s("b"), s("y")]);
        let pool = inst.const_pool();
        let ids = inst.column_ids(&pool, RelId(0), 0);
        assert_eq!(ids.len(), 2);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        // Pooled ids resolve back to exactly the owned column's values.
        let via_ids: BTreeSet<Value> = ids.iter().map(|&i| pool.value(i).clone()).collect();
        assert_eq!(via_ids, inst.column(RelId(0), 0));
        // Out-of-range attributes yield an empty column either way.
        assert!(inst.column_ids(&pool, RelId(0), 5).is_empty());
        // A non-covering pool omits the unknown values instead of failing.
        let narrow = ConstPool::from_values([s("a")]);
        assert_eq!(inst.column_ids(&narrow, RelId(0), 0).len(), 1);
    }

    #[test]
    fn word_len_rounds_up() {
        assert_eq!(ConstPool::new().word_len(), 0);
        let p = ConstPool::from_values((0..65).map(Value::int));
        assert_eq!(p.len(), 65);
        assert_eq!(p.word_len(), 2);
    }

    #[test]
    fn genpool_absorb_of_known_values_is_a_noop() {
        let mut g = GenPool::new(Arc::new(ConstPool::from_values([s("a"), s("b")])));
        assert_eq!(g.generation(), 0);
        assert!(g.absorb([s("a"), s("b"), s("a")]).is_none());
        assert_eq!(g.generation(), 0);
        assert_eq!(g.pool().len(), 2);
    }

    #[test]
    fn genpool_absorb_bumps_and_translates_totally() {
        let mut g = GenPool::new(Arc::new(ConstPool::from_values([s("b"), s("d")])));
        let old = Arc::clone(g.pool());
        let map = g.absorb([s("a"), s("c"), s("d"), s("e")]).unwrap();
        assert_eq!(g.generation(), 1);
        assert_eq!(g.pool().len(), 5);
        // Id order is still value order in the new generation.
        let order: Vec<&Value> = g.pool().iter().map(|(_, v)| v).collect();
        assert_eq!(order, vec![&s("a"), &s("b"), &s("c"), &s("d"), &s("e")]);
        // Every old id translates, and to the same value.
        for (id, v) in old.iter() {
            let new_id = map.translate(id).expect("total on old ids");
            assert_eq!(g.pool().value(new_id), v);
        }
        // New constants are interleaved, so ids genuinely shifted.
        assert_eq!(map.translate(ValueId(0)), Some(ValueId(1)));
        assert_eq!(map.translate(ValueId(1)), Some(ValueId(3)));
    }

    #[test]
    fn genpool_generations_chain() {
        let mut g = GenPool::new(Arc::new(ConstPool::new()));
        assert!(g.absorb([s("m")]).is_some());
        assert!(g.absorb([s("m")]).is_none());
        assert!(g.absorb([s("z"), s("a")]).is_some());
        assert_eq!(g.generation(), 2);
        assert_eq!(g.pool().len(), 3);
        assert!(g.pool().contains(&s("a")));
        assert!(g.pool().contains(&s("m")));
        assert!(g.pool().contains(&s("z")));
    }

    #[test]
    fn iteration_is_ascending() {
        let pool = ConstPool::from_values([s("c"), s("a"), s("b")]);
        let order: Vec<&Value> = pool.iter().map(|(_, v)| v).collect();
        assert_eq!(order, vec![&s("a"), &s("b"), &s("c")]);
    }
}
