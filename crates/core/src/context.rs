//! The memoizing evaluation context: at most one `ext(c, I)` call per
//! concept, every result re-interned into one shared pool.
//!
//! Definition 3.1 only asks that `ext` be polynomial-time — it says
//! nothing about how often an algorithm may *call* it. The seed
//! implementation called it freely: Algorithm 1 re-evaluated every
//! concept once per answer position, `consistent_with` twice per ordered
//! concept pair. [`EvalContext`] pins an `(ontology, instance)` pair and
//! memoizes: the first request for a concept runs the ontology's
//! extension function and re-interns the result into the context's
//! [`ConstPool`] (built over `adom(I)` plus optional seed constants, the
//! Proposition 5.1 universe); every later request is a cache hit. Because
//! all cached extensions share the pool, downstream subset/intersection/
//! membership checks hit the word-parallel bitset fast path.
//!
//! `EvalContext` itself implements [`Ontology`] (and [`FiniteOntology`]
//! when the inner ontology does), so the generic helpers — `is_explanation`,
//! `retain_most_general`, `less_general` — run against it unchanged;
//! extension requests for the pinned instance are served from the cache.

use crate::ontology::{FiniteOntology, Ontology};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use whynot_concepts::{Extension, ExtensionTable};
use whynot_relation::{ConstPool, GenPool, Instance, PoolMap, RelId, Value};

/// A memoizing wrapper over an [`Ontology`] and one pinned instance.
///
/// # Examples
///
/// ```
/// use whynot_core::{EvalContext, ExplicitOntology};
/// use whynot_relation::{Instance, RelId, Value};
///
/// let o = ExplicitOntology::builder()
///     .concept("Top", ["a", "b", "c"])
///     .concept("Sub", ["a"])
///     .edge("Sub", "Top")
///     .build();
/// let mut inst = Instance::new();
/// inst.insert(RelId(0), vec![Value::str("a"), Value::str("b")]);
///
/// let ctx = EvalContext::new(&o, &inst);
/// let top = o.concept_expect("Top");
/// let first = ctx.extension(&top);
/// let again = ctx.extension(&top); // cache hit — no re-evaluation
/// assert_eq!(first, again);
/// assert_eq!(ctx.evaluations(), 1);
/// ```
pub struct EvalContext<'a, O: Ontology> {
    ontology: &'a O,
    /// Owned snapshot of the pinned instance (cheap: instances share
    /// per-relation storage), so [`EvalContext::apply_delta`] can
    /// retarget the context without lifetime gymnastics. The
    /// [`Ontology`] impl recognizes callers' handles to the same data
    /// via [`Instance::shares_storage`].
    instance: Instance,
    pool: GenPool,
    cache: RefCell<BTreeMap<O::Concept, Extension>>,
    /// Id translations from foreign pools (e.g. an `ExplicitOntology`'s
    /// build-time pool) into `pool`, built once per foreign pool. The
    /// `Arc` keeps the source pool alive so the pointer identity used as
    /// the key stays unambiguous.
    pool_maps: RefCell<Vec<(Arc<ConstPool>, PoolMap)>>,
    evaluations: Cell<usize>,
}

impl<'a, O: Ontology> EvalContext<'a, O> {
    /// A context over `adom(I)`.
    pub fn new(ontology: &'a O, instance: &Instance) -> Self {
        EvalContext {
            ontology,
            instance: instance.clone(),
            pool: GenPool::new(instance.const_pool()),
            cache: RefCell::new(BTreeMap::new()),
            pool_maps: RefCell::new(Vec::new()),
            evaluations: Cell::new(0),
        }
    }

    /// A context over `adom(I) ∪ seeds` — pass the why-not tuple as
    /// `seeds` so its constants get dense ids too (Proposition 5.1's
    /// universe `K`).
    pub fn with_seeds(
        ontology: &'a O,
        instance: &Instance,
        seeds: impl IntoIterator<Item = Value>,
    ) -> Self {
        EvalContext {
            ontology,
            instance: instance.clone(),
            pool: GenPool::new(instance.const_pool_with(seeds)),
            cache: RefCell::new(BTreeMap::new()),
            pool_maps: RefCell::new(Vec::new()),
            evaluations: Cell::new(0),
        }
    }

    /// The wrapped ontology.
    pub fn ontology(&self) -> &'a O {
        self.ontology
    }

    /// The pinned instance (the latest snapshot after any deltas).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The shared pool all cached extensions are interned into (the
    /// current generation's).
    pub fn pool(&self) -> &Arc<ConstPool> {
        self.pool.pool()
    }

    /// The pool generation: 0 at construction, bumped once per
    /// [`EvalContext::apply_delta`] that introduced new constants.
    pub fn generation(&self) -> u64 {
        self.pool.generation()
    }

    /// `ext(c, I)` — memoized; evaluates the wrapped ontology at most
    /// once per concept.
    pub fn extension(&self, c: &O::Concept) -> Extension {
        if let Some(hit) = self.cache.borrow().get(c) {
            return hit.clone();
        }
        self.evaluations.set(self.evaluations.get() + 1);
        let ext = self.reintern(self.ontology.extension(c, &self.instance));
        self.cache.borrow_mut().insert(c.clone(), ext.clone());
        ext
    }

    /// Re-interns an extension into the context pool. Pools already
    /// shared pass through. Long-lived foreign pools (held by the
    /// ontology, so `Arc::strong_count > 1`) get a one-time [`PoolMap`]
    /// (a merge walk), after which each re-intern from them is a pure
    /// bit remap. Private per-call pools (`Extension::finite` results;
    /// the set holds the only reference) are re-interned directly —
    /// caching a map for a pool that will never be seen again would
    /// only accumulate dead entries.
    fn reintern(&self, ext: Extension) -> Extension {
        let Extension::Finite(set) = &ext else {
            return ext;
        };
        let pool = self.pool.pool();
        if Arc::ptr_eq(set.pool(), pool) {
            return ext;
        }
        if Arc::strong_count(set.pool()) <= 1 {
            return Extension::Finite(set.reinterned(pool));
        }
        let mut maps = self.pool_maps.borrow_mut();
        let map = match maps
            .iter()
            .position(|(src, _)| Arc::ptr_eq(src, set.pool()))
        {
            Some(i) => &maps[i].1,
            None => {
                let built = PoolMap::between(set.pool(), pool);
                maps.push((Arc::clone(set.pool()), built));
                // lint: allow(no-panic-in-lib) — pushed on the line above,
                // so the vector cannot be empty here.
                &maps.last().expect("just pushed").1
            }
        };
        Extension::Finite(set.reinterned_via(pool, map))
    }

    /// How many times the wrapped ontology's extension function ran (the
    /// eval-once acceptance tests assert on this).
    pub fn evaluations(&self) -> usize {
        self.evaluations.get()
    }

    /// Evaluates a concept list into an [`ExtensionTable`] (each concept
    /// exactly once, all entries sharing the context pool).
    pub fn table(&self, concepts: &[O::Concept]) -> ExtensionTable {
        ExtensionTable::for_items(Arc::clone(self.pool.pool()), concepts, |c| {
            self.extension(c)
        })
    }

    /// Retargets the context at a post-delta snapshot, dropping **only**
    /// the cached extensions whose [`signature`](Ontology::signature)
    /// intersects the effectively changed relations.
    ///
    /// `new_constants` are the constants of net-inserted facts (from
    /// [`DeltaOutcome`](whynot_relation::DeltaOutcome)); any not yet
    /// pooled trigger a generation bump, and retained cache entries are
    /// then bridged into the new generation with one bit remap each.
    /// The evaluation counter survives untouched.
    ///
    /// Returns the generation bridge (for sibling caches interned in the
    /// same pool) plus drop/retain counts.
    pub fn apply_delta(
        &mut self,
        snapshot: &Instance,
        changed: &BTreeSet<RelId>,
        new_constants: impl IntoIterator<Item = Value>,
    ) -> ContextDelta {
        let map = self.pool.absorb(new_constants);
        let pool = Arc::clone(self.pool.pool());
        if map.is_some() {
            // Cached foreign-pool translations target the old generation.
            self.pool_maps.get_mut().clear();
        }
        let cache = self.cache.get_mut();
        let old = std::mem::take(cache);
        let mut dropped = 0usize;
        let mut retained = 0usize;
        for (c, ext) in old {
            if self.ontology.signature(&c).intersects(changed) {
                dropped += 1;
                continue;
            }
            retained += 1;
            let ext = match &map {
                None => ext,
                Some(m) => ext.reinterned_via(&pool, m),
            };
            cache.insert(c, ext);
        }
        self.instance = snapshot.clone();
        ContextDelta {
            map,
            extensions_dropped: dropped,
            extensions_retained: retained,
        }
    }
}

/// What [`EvalContext::apply_delta`] did: the generation bridge (if the
/// pool grew) and the per-concept cache counts.
#[derive(Debug)]
pub struct ContextDelta {
    /// Old-generation → new-generation id translation; `None` when no
    /// new constant was introduced (the common steady-state case).
    pub map: Option<PoolMap>,
    /// Cached extensions dropped because their signature intersects the
    /// delta.
    pub extensions_dropped: usize,
    /// Cached extensions that survived (remapped across a generation
    /// bump if one happened).
    pub extensions_retained: usize,
}

impl<O: Ontology> Ontology for EvalContext<'_, O> {
    type Concept = O::Concept;

    fn subsumed(&self, sub: &O::Concept, sup: &O::Concept) -> bool {
        self.ontology.subsumed(sub, sup)
    }

    fn extension(&self, c: &O::Concept, inst: &Instance) -> Extension {
        // Serve the pinned instance from the cache; any other instance
        // passes through (Definition 4.8's ext is instance-parametric).
        // The context owns a snapshot, so callers' handles are
        // recognized by shared storage, not just by address.
        if std::ptr::eq(inst, &self.instance) || inst.shares_storage(&self.instance) {
            self.extension(c)
        } else {
            self.ontology.extension(c, inst)
        }
    }

    fn concept_name(&self, c: &O::Concept) -> String {
        self.ontology.concept_name(c)
    }
}

impl<O: FiniteOntology> FiniteOntology for EvalContext<'_, O> {
    fn concepts(&self) -> Vec<O::Concept> {
        self.ontology.concepts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitOntology;
    use whynot_relation::RelId;

    fn fixture() -> (ExplicitOntology, Instance) {
        let o = ExplicitOntology::builder()
            .concept("Top", ["a", "b", "c"])
            .concept("Sub", ["a"])
            .edge("Sub", "Top")
            .build();
        let mut inst = Instance::new();
        inst.insert(RelId(0), vec![Value::str("a"), Value::str("b")]);
        (o, inst)
    }

    #[test]
    fn caches_per_concept() {
        let (o, inst) = fixture();
        let ctx = EvalContext::new(&o, &inst);
        let top = o.concept_expect("Top");
        let e1 = ctx.extension(&top);
        let e2 = ctx.extension(&top);
        assert_eq!(e1, e2);
        assert_eq!(ctx.evaluations(), 1);
        ctx.extension(&o.concept_expect("Sub"));
        assert_eq!(ctx.evaluations(), 2);
    }

    #[test]
    fn reinterns_into_the_context_pool() {
        let (o, inst) = fixture();
        let ctx = EvalContext::new(&o, &inst);
        let ext = ctx.extension(&o.concept_expect("Sub"));
        let set = ext.as_finite().unwrap();
        assert!(Arc::ptr_eq(set.pool(), ctx.pool()));
        // "a" is in adom → a pooled bit; "c" (Top only) is outside adom →
        // overflow, still exact.
        let top = ctx.extension(&o.concept_expect("Top"));
        assert!(top.contains(&Value::str("c")));
        assert_eq!(top.len(), Some(3));
    }

    #[test]
    fn ontology_impl_serves_the_pinned_instance_from_cache() {
        let (o, inst) = fixture();
        let ctx = EvalContext::new(&o, &inst);
        let top = o.concept_expect("Top");
        let via_trait = Ontology::extension(&ctx, &top, &inst);
        assert_eq!(via_trait, ctx.extension(&top));
        assert_eq!(ctx.evaluations(), 1);
        // A different instance bypasses the cache (and the counter tracks
        // only pinned-instance evaluations).
        let other = Instance::new();
        let _ = Ontology::extension(&ctx, &top, &other);
        assert_eq!(ctx.evaluations(), 1);
    }

    #[test]
    fn seeded_pools_intern_the_missing_tuple() {
        let (o, inst) = fixture();
        let ctx = EvalContext::with_seeds(&o, &inst, [Value::str("ghost")]);
        assert!(ctx.pool().contains(&Value::str("ghost")));
        let _ = o;
    }

    #[test]
    fn table_shares_the_pool_and_evaluates_once() {
        let (o, inst) = fixture();
        let ctx = EvalContext::new(&o, &inst);
        let concepts = o.concepts();
        let table = ctx.table(&concepts);
        assert_eq!(table.len(), 2);
        assert_eq!(ctx.evaluations(), 2);
        // A second table is served entirely from cache.
        let again = ctx.table(&concepts);
        assert_eq!(ctx.evaluations(), 2);
        assert_eq!(again.get(0), table.get(0));
    }
}
