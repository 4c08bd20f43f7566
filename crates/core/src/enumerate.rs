//! Extensions beyond the paper's core algorithms.
//!
//! * [`incremental_search_balanced`] — Algorithm 2 with round-robin
//!   position growth. The paper's Algorithm 2 saturates position 1 before
//!   touching position 2, which can yield lopsided most-general
//!   explanations (one component climbing to `⊤` while the other stays a
//!   nominal). Growing positions alternately produces the balanced
//!   explanations the paper's examples display. Both variants return
//!   verified MGEs — the MGE set simply has many members.
//!
//! * [`enumerate_mges_instance`] — a bounded enumeration of *distinct*
//!   most-general explanations w.r.t. `OI`. The paper's conclusion poses
//!   polynomial-delay MGE enumeration as an open problem; this
//!   implementation is an honest heuristic: it reruns the incremental
//!   search under permuted growth orders (seeded, deterministic) and
//!   deduplicates by extension tuple, so every returned explanation is a
//!   checked MGE, but completeness of the enumeration is not guaranteed.

use crate::incremental::{adom_ids, position_major, state_extension};
use crate::whynot::{exts_form_explanation, AnswerIds, Explanation, WhyNotInstance};
use std::collections::BTreeSet;
use std::sync::Arc;
use whynot_concepts::{Extension, LsConcept, LubEngine, LubKind, LubProvider, LubState};
use whynot_relation::ValueId;

/// Algorithm 2 with round-robin growth: positions absorb constants in an
/// interleaved order, so no position can monopolize the generalization
/// budget. Output is a most-general explanation w.r.t. `OI` (same
/// guarantee as the paper's order — maximality is order-independent, the
/// *choice* of MGE is not).
pub fn incremental_search_balanced(wn: &WhyNotInstance, kind: LubKind) -> Explanation<LsConcept> {
    let positions: Vec<usize> = (0..wn.arity()).collect();
    let pool = wn.instance.const_pool_with(wn.tuple.iter().cloned());
    let engine = LubEngine::with_pool(&wn.schema, &wn.instance, pool);
    grow_with_order(wn, kind, &engine, &engine.adom(), &positions, true)
}

/// The shared growth engine: processes `(position, constant)` pairs either
/// round-robin (`balanced`) or position-major like the paper, visiting
/// positions in the supplied order and constants (ids of the provider's
/// pool) in `order`. The caller supplies the lub provider so reruns under
/// permuted orders (the MGE enumeration) share one set of interned
/// columns. Position-major growth is Algorithm 2's own loop
/// ([`position_major`]), each probe decided against the position's
/// blocked set; round-robin growth changes the other positions between
/// probes, so it runs the full Definition 3.2 check.
fn grow_with_order<P: LubProvider + ?Sized>(
    wn: &WhyNotInstance,
    kind: LubKind,
    lubs: &P,
    order: &[ValueId],
    positions: &[usize],
    balanced: bool,
) -> Explanation<LsConcept> {
    debug_assert_eq!(positions.len(), wn.arity());
    // One interned pool per growth run (see `incremental_search_kind`),
    // shared with the lub engine's column sets.
    let pool = lubs.pool();
    let q = &AnswerIds::new(pool, &wn.ans, &wn.tuple);
    let mut ext_of = |c: &LsConcept| c.extension_in(&wn.instance, pool);
    if !balanced {
        return position_major(order, positions, q, lubs, kind, &mut ext_of);
    }
    let mut states: Vec<LubState> = wn.tuple.iter().map(|a| lubs.start(kind, a)).collect();
    let mut exts: Vec<Arc<Extension>> = states
        .iter()
        .map(|s| state_extension(s, &mut ext_of))
        .collect();
    for &b in order {
        for &j in positions {
            if exts[j].contains_in(pool, b) {
                continue;
            }
            let candidate = lubs.grow(&states[j], pool.value(b));
            let saved = std::mem::replace(&mut exts[j], state_extension(&candidate, &mut ext_of));
            if exts_form_explanation(&exts, q) {
                states[j] = candidate;
            } else {
                exts[j] = saved;
            }
        }
    }
    Explanation::new(states.into_iter().map(LubState::into_concept))
}

/// Enumerates distinct most-general explanations w.r.t. `OI` by rerunning
/// the growth engine under `tries` different deterministic constant
/// orders (both balanced and position-major), deduplicating by the tuple
/// of extensions (first occurrence wins). Every element of the result is
/// a genuine MGE; the list is not guaranteed exhaustive (the paper leaves
/// complete enumeration open).
pub fn enumerate_mges_instance(
    wn: &WhyNotInstance,
    kind: LubKind,
    tries: usize,
) -> Vec<Explanation<LsConcept>> {
    let pool = wn.instance.const_pool_with(wn.tuple.iter().cloned());
    // One lub engine for the whole enumeration: every rerun under a
    // permuted growth order probes the same interned column sets.
    let engine = LubEngine::with_pool(&wn.schema, &wn.instance, pool);
    enumerate_core(&engine, &engine.adom(), wn, kind, tries)
}

/// [`enumerate_mges_instance`] over a caller-built lub provider, whose
/// pool must intern the instance's constants; the result is the same. A
/// test seam, like [`incremental_search_with`](crate::incremental_search_with).
#[doc(hidden)]
pub fn enumerate_mges_with<P: LubProvider + ?Sized>(
    lubs: &P,
    wn: &WhyNotInstance,
    kind: LubKind,
    tries: usize,
) -> Vec<Explanation<LsConcept>> {
    enumerate_core(lubs, &adom_ids(lubs.pool(), &wn.instance), wn, kind, tries)
}

/// The enumeration over `lubs`, with `adom(I)` as ascending ids of its
/// pool in `base`.
fn enumerate_core<P: LubProvider + ?Sized>(
    lubs: &P,
    base: &[ValueId],
    wn: &WhyNotInstance,
    kind: LubKind,
    tries: usize,
) -> Vec<Explanation<LsConcept>> {
    let pool = lubs.pool();
    let mut seen: BTreeSet<Vec<Extension>> = BTreeSet::new();
    let mut out: Vec<Explanation<LsConcept>> = Vec::new();
    for t in 0..tries.max(1) {
        let order = permuted_domain(base, t);
        // Rotate the position-visit order too: which position gets to
        // absorb constants first determines which maximal tuple the
        // greedy converges to.
        let m = wn.arity().max(1);
        for rot in 0..m {
            let positions: Vec<usize> = (0..wn.arity()).map(|j| (j + rot) % m).collect();
            for balanced in [true, false] {
                let e = grow_with_order(wn, kind, lubs, &order, &positions, balanced);
                let key: Vec<Extension> = e
                    .concepts
                    .iter()
                    .map(|c| c.extension_in(&wn.instance, pool))
                    .collect();
                if seen.insert(key) {
                    out.push(e);
                }
            }
        }
    }
    out.sort();
    out
}

/// The `t`-th deterministic permutation of the domain: a rotation +
/// stride walk, falling back to a plain rotation when the stride is not
/// coprime with the domain size.
fn permuted_domain<T: Clone + Ord>(base: &[T], t: usize) -> Vec<T> {
    let mut order = base.to_vec();
    if order.is_empty() {
        return order;
    }
    let n = order.len();
    let stride = 1 + t % n;
    let mut permuted = Vec::with_capacity(n);
    let mut idx = t % n;
    for _ in 0..n {
        permuted.push(order[idx].clone());
        idx = (idx + stride) % n;
    }
    // The stride walk may revisit; fall back to rotation then.
    let unique: BTreeSet<&T> = permuted.iter().collect();
    if unique.len() == n {
        permuted
    } else {
        order.rotate_left(t % n);
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::check_mge_instance;
    use whynot_relation::{Atom, Cq, Instance, SchemaBuilder, Term, Ucq, Value, Var};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    fn paper_like_wn() -> WhyNotInstance {
        let mut b = SchemaBuilder::new();
        let tc = b.relation("TC", ["from", "to"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        for (a, c) in [
            ("Amsterdam", "Berlin"),
            ("Berlin", "Rome"),
            ("Berlin", "Amsterdam"),
            ("New York", "San Francisco"),
            ("San Francisco", "Santa Cruz"),
            ("Tokyo", "Kyoto"),
        ] {
            inst.insert(tc, vec![s(a), s(c)]);
        }
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let q = Ucq::single(Cq::new(
            [Term::Var(x), Term::Var(y)],
            [
                Atom::new(tc, [Term::Var(x), Term::Var(z)]),
                Atom::new(tc, [Term::Var(z), Term::Var(y)]),
            ],
            [],
        ));
        WhyNotInstance::new(schema, inst, q, vec![s("Amsterdam"), s("New York")]).unwrap()
    }

    #[test]
    fn balanced_output_is_a_verified_mge() {
        let wn = paper_like_wn();
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let e = incremental_search_balanced(&wn, kind);
            assert!(check_mge_instance(&wn, &e, kind), "{kind:?}: {e:?}");
        }
    }

    #[test]
    fn balanced_differs_from_position_major_here() {
        // Position-major lets the first component reach ⊤; the balanced
        // order keeps both components finite on this data.
        let wn = paper_like_wn();
        let balanced = incremental_search_balanced(&wn, LubKind::SelectionFree);
        let ext0 = balanced.concepts[0].extension(&wn.instance);
        let ext1 = balanced.concepts[1].extension(&wn.instance);
        assert!(ext0.len().is_some() || ext1.len().is_some());
    }

    #[test]
    fn enumeration_yields_multiple_distinct_mges() {
        let wn = paper_like_wn();
        let all = enumerate_mges_instance(&wn, LubKind::SelectionFree, 6);
        assert!(!all.is_empty());
        for e in &all {
            assert!(check_mge_instance(&wn, e, LubKind::SelectionFree));
        }
        // Distinctness by extension tuple.
        let keys: BTreeSet<Vec<Extension>> = all
            .iter()
            .map(|e| {
                e.concepts
                    .iter()
                    .map(|c| c.extension(&wn.instance))
                    .collect()
            })
            .collect();
        assert_eq!(keys.len(), all.len());
    }

    #[test]
    fn enumeration_handles_single_try() {
        let wn = paper_like_wn();
        let one = enumerate_mges_instance(&wn, LubKind::SelectionFree, 1);
        assert!(!one.is_empty());
    }
}
