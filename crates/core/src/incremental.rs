//! Algorithm 2 — INCREMENTAL SEARCH (paper §5.2): computing one
//! most-general explanation w.r.t. the instance-derived ontology `OI`
//! without materializing it.
//!
//! The algorithm maintains a *support set* `Xj` per position, starting at
//! the singleton `{aj}`, and repeatedly tries to grow it by one active-
//! domain constant; the candidate concept is always `lub_I(Xj)` — the
//! least concept containing the support set — so accepting a growth step
//! can only generalize. [`incremental_search`] works in selection-free
//! `LS` (Theorem 5.3: PTIME); [`incremental_search_with_selections`] uses
//! `lubσ` (Theorem 5.4: EXPTIME, PTIME for bounded schema arity).
//!
//! [`check_mge_instance`] is the CHECK-MGE W.R.T. `OI` procedure
//! (Proposition 5.2), built from the same growth probes.
//!
//! Every position carries a [`LubState`] from a pooled
//! [`LubEngine`](whynot_concepts::LubEngine) sharing the search's
//! `ConstPool`, and each probe *grows* that state by one constant
//! (Lemmas 5.1/5.2): a probe costs one growth step — O(1) lubs — rather
//! than a lub recomputed from the whole support, and the `(rel, attr)`
//! columns behind the steps are interned once per run.
//!
//! A probe stays in id space end to end. The grown state carries its
//! extension over the pool, the question's answers are resolved to pool
//! ids once ([`AnswerIds`]), and the explanation check probes bits. The
//! state's concept is assembled lazily, so only the states a search
//! keeps build one. States from a provider's recomputing default bodies
//! carry no extension; their concepts are evaluated instead.

use crate::derived::InstanceOntology;
use crate::whynot::{exts_form_explanation_q, AnswerIds, Explanation, QuestionRef, WhyNotInstance};
use std::collections::BTreeSet;
use std::sync::Arc;
use whynot_concepts::{Extension, LsConcept, LubEngine, LubKind, LubProvider, LubState};
use whynot_relation::Value;

/// Algorithm 2 (INCREMENTAL SEARCH): a most-general explanation for the
/// why-not instance w.r.t. `OI` in selection-free `LS` (Theorem 5.3).
///
/// Always succeeds: the nominal-based starting point is an explanation
/// (the trivial explanation always exists in a language with nominals,
/// §5.2).
pub fn incremental_search(wn: &WhyNotInstance) -> Explanation<LsConcept> {
    incremental_search_kind(wn, LubKind::SelectionFree)
}

/// Algorithm 2 with selections (INCREMENTAL SEARCH ALGORITHM WITH
/// SELECTIONS): a most-general explanation w.r.t. `OI` in full `LS`
/// (Theorem 5.4).
pub fn incremental_search_with_selections(wn: &WhyNotInstance) -> Explanation<LsConcept> {
    incremental_search_kind(wn, LubKind::WithSelections)
}

/// The shared engine, parameterized by the lub operator.
pub fn incremental_search_kind(wn: &WhyNotInstance, kind: LubKind) -> Explanation<LsConcept> {
    let schema = &wn.schema;
    let inst = &wn.instance;
    // One interned pool for the whole search: every candidate extension
    // is a bitset over adom(I) ∪ ā, so the per-step explanation checks
    // run word-parallel — and the lub engine's column sets index the
    // same pool, interned once for every growth probe of the run.
    let pool = inst.const_pool_with(wn.tuple.iter().cloned());
    let engine = LubEngine::with_pool(schema, inst, Arc::clone(&pool));
    let adom: Vec<Value> = inst.active_domain().into_iter().collect();
    let ids = AnswerIds::new(&pool, wn.question());
    incremental_search_core(&adom, ids.question(), &engine, kind, &mut |c| {
        c.extension_in(inst, &pool)
    })
}

/// A growth state's extension: the one a pooled state carries (shared,
/// not copied), or `ext_of` over its concept for a state built by the
/// recomputing default [`LubProvider`] bodies.
pub(crate) fn state_extension(
    state: &LubState,
    ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
) -> Arc<Extension> {
    match state.extension() {
        Some(ext) => Arc::clone(ext),
        None => Arc::new(ext_of(state.concept())),
    }
}

/// Algorithm 2's growth loop over a borrowed question, a lub provider
/// and a caller-supplied extension function. Each position carries the
/// [`LubState`] of its support, and each probe grows it by one constant
/// and is decided by the grown state's extension; `ext_of` only
/// evaluates the concepts of states that carry none (see
/// [`state_extension`]). A concept is assembled only for the states the
/// search keeps.
pub(crate) fn incremental_search_core<P: LubProvider + ?Sized>(
    adom: &[Value],
    q: QuestionRef<'_>,
    lubs: &P,
    kind: LubKind,
    ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
) -> Explanation<LsConcept> {
    let m = q.arity();
    // Lines 2–3: support sets start at the singletons {aj}; the first
    // candidate explanation is their lubs.
    let mut states: Vec<LubState> = q.tuple.iter().map(|a| lubs.start(kind, a)).collect();
    let mut exts: Vec<Arc<Extension>> = states
        .iter()
        .map(|s| state_extension(s, &mut *ext_of))
        .collect();
    debug_assert!(
        exts_form_explanation_q(&exts, q),
        "the nominal-based start must be an explanation"
    );

    // Lines 4–11: per position, try to absorb each uncovered active-domain
    // constant into the support set.
    for j in 0..m {
        for b in adom {
            if exts[j].contains(b) {
                continue; // line 5's set difference, re-evaluated live
            }
            // Lines 6–8: the more general candidate at position j.
            let candidate = lubs.grow(&states[j], b);
            let candidate_ext = state_extension(&candidate, &mut *ext_of);
            // Line 9: keep it only if the tuple stays an explanation.
            let saved = std::mem::replace(&mut exts[j], candidate_ext);
            if exts_form_explanation_q(&exts, q) {
                states[j] = candidate;
            } else {
                exts[j] = saved;
            }
        }
    }
    Explanation::new(states.into_iter().map(LubState::into_concept))
}

/// CHECK-MGE W.R.T. `OI` (Definition 5.7, Proposition 5.2): whether `e`
/// is a most-general explanation w.r.t. the instance-derived ontology.
///
/// Probes every single-position generalization `lub(ext(Cj) ∪ {b})` for
/// constants `b` outside the current extension: if none yields a strictly
/// more general explanation, `e` is maximal. Runs in PTIME for
/// selection-free `LS` and (by Lemma 5.2) for bounded schema arity with
/// selections.
pub fn check_mge_instance(wn: &WhyNotInstance, e: &Explanation<LsConcept>, kind: LubKind) -> bool {
    let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
    if !crate::whynot::is_explanation(&oi, wn, e) {
        return false;
    }
    let schema = &wn.schema;
    let inst = &wn.instance;
    let pool = inst.const_pool_with(wn.tuple.iter().cloned());
    let engine = LubEngine::with_pool(schema, inst, Arc::clone(&pool));
    // Candidate growth constants: adom plus the missing tuple (Prop 5.1's
    // constant restriction K).
    let k_consts = wn.restriction_constants();
    let ids = AnswerIds::new(&pool, wn.question());
    check_mge_instance_core(&k_consts, ids.question(), e, &engine, kind, &mut |c| {
        c.extension_in(inst, &pool)
    })
}

/// The generalization-probe loop of CHECK-MGE W.R.T. `OI`, over a borrowed
/// question, a lub provider and a caller-supplied extension function.
/// Assumes the caller has already verified that `e` *is* an explanation
/// (the probes only decide maximality). `ext_of` evaluates `e`'s own
/// concepts and the concepts of states that carry no extension. Each
/// position's state is the fold over `ext(Cj)`, and every probe grows it
/// by one constant and is decided by the grown state's extension.
pub(crate) fn check_mge_instance_core<P: LubProvider + ?Sized>(
    k_consts: &BTreeSet<Value>,
    q: QuestionRef<'_>,
    e: &Explanation<LsConcept>,
    lubs: &P,
    kind: LubKind,
    ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
) -> bool {
    let mut exts: Vec<Arc<Extension>> = e.concepts.iter().map(|c| Arc::new(ext_of(c))).collect();
    for j in 0..e.len() {
        // The universal extension (⊤) cannot be generalized.
        let Some(current) = exts[j].as_finite().map(|s| s.to_btree_set()) else {
            continue;
        };
        // Defined: an explanation's extension holds its tuple's constant.
        let Some(state) = lubs.state_of(kind, &current) else {
            continue;
        };
        for b in k_consts {
            if current.contains(b) {
                continue;
            }
            let candidate = lubs.grow(&state, b);
            let candidate_ext = state_extension(&candidate, &mut *ext_of);
            // Strictly more general by construction: ⊇ current ∪ {b}.
            let saved = std::mem::replace(&mut exts[j], candidate_ext);
            let still = exts_form_explanation_q(&exts, q);
            exts[j] = saved;
            if still {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::whynot::{exts_form_explanation, is_explanation};
    use whynot_concepts::LsAtom;
    use whynot_relation::{Atom, Cq, Instance, RelId, SchemaBuilder, Term, Ucq, Var};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    /// The Figure 1/2 data schema and instance (base relations only, so
    /// the derived concepts range over Cities and Train-Connections), and
    /// Example 3.4's why-not question.
    fn paper_wn() -> (WhyNotInstance, RelId, RelId) {
        let mut b = SchemaBuilder::new();
        let cities = b.relation("Cities", ["name", "population", "country", "continent"]);
        let tc = b.relation("Train-Connections", ["city_from", "city_to"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        for (name, pop, country, continent) in [
            ("Amsterdam", 779_808, "Netherlands", "Europe"),
            ("Berlin", 3_502_000, "Germany", "Europe"),
            ("Rome", 2_753_000, "Italy", "Europe"),
            ("New York", 8_337_000, "USA", "N.America"),
            ("San Francisco", 837_442, "USA", "N.America"),
            ("Santa Cruz", 59_946, "USA", "N.America"),
            ("Tokyo", 13_185_000, "Japan", "Asia"),
            ("Kyoto", 1_400_000, "Japan", "Asia"),
        ] {
            inst.insert(
                cities,
                vec![s(name), Value::int(pop), s(country), s(continent)],
            );
        }
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
        let wn = WhyNotInstance::new(schema, inst, q, vec![s("Amsterdam"), s("New York")]).unwrap();
        (wn, cities, tc)
    }

    #[test]
    fn incremental_output_is_an_explanation() {
        let (wn, ..) = paper_wn();
        let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
        let e = incremental_search(&wn);
        assert!(is_explanation(&oi, &wn, &e));
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn incremental_output_is_most_general() {
        let (wn, ..) = paper_wn();
        let e = incremental_search(&wn);
        assert!(check_mge_instance(&wn, &e, LubKind::SelectionFree), "{e:?}");
    }

    #[test]
    fn incremental_with_selections_is_most_general() {
        let (wn, ..) = paper_wn();
        let e = incremental_search_with_selections(&wn);
        let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
        assert!(is_explanation(&oi, &wn, &e));
        assert!(
            check_mge_instance(&wn, &e, LubKind::WithSelections),
            "{e:?}"
        );
    }

    #[test]
    fn incremental_generalizes_beyond_the_nominals() {
        let (wn, ..) = paper_wn();
        let e = incremental_search(&wn);
        // Position 0 grows past {Amsterdam}. In fact the paper's greedy
        // position order lets it absorb *every* constant here — position 1
        // ({New York}) alone already excludes all four answers — so the
        // first concept climbs to ⊤ (extension Universal). That lopsided
        // tuple is a legitimate most-general explanation w.r.t. OI.
        let ext0 = e.concepts[0].extension(&wn.instance);
        let grew = matches!(ext0, Extension::Universal) || ext0.len().unwrap_or(0) > 1;
        assert!(grew, "{:?}", e.concepts[0]);
        // …and the concepts are genuinely selection-free.
        assert!(e.concepts.iter().all(LsConcept::is_selection_free));
    }

    #[test]
    fn selections_refine_the_selection_free_result() {
        let (wn, ..) = paper_wn();
        let plain = incremental_search(&wn);
        let with_sel = incremental_search_with_selections(&wn);
        // Both are explanations; the σ-variant may use selections.
        let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
        assert!(is_explanation(&oi, &wn, &plain));
        assert!(is_explanation(&oi, &wn, &with_sel));
    }

    #[test]
    fn check_mge_rejects_the_trivial_explanation() {
        let (wn, ..) = paper_wn();
        // The all-nominals explanation E6 = ⟨{Amsterdam}, {New York}⟩ is an
        // explanation but not most general.
        let e = Explanation::new([
            LsConcept::nominal(s("Amsterdam")),
            LsConcept::nominal(s("New York")),
        ]);
        let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
        assert!(is_explanation(&oi, &wn, &e));
        assert!(!check_mge_instance(&wn, &e, LubKind::SelectionFree));
        assert!(!check_mge_instance(&wn, &e, LubKind::WithSelections));
    }

    #[test]
    fn check_mge_rejects_non_explanations() {
        let (wn, cities, _) = paper_wn();
        let e = Explanation::new([LsConcept::proj(cities, 0), LsConcept::proj(cities, 0)]);
        assert!(!check_mge_instance(&wn, &e, LubKind::SelectionFree));
    }

    #[test]
    fn supports_grow_monotonically_into_lub_extensions() {
        let (wn, ..) = paper_wn();
        let e = incremental_search(&wn);
        // Every aj is in its concept's extension (Definition 3.2 first
        // condition), and extensions avoid the answers (second condition).
        let exts: Vec<Extension> = e
            .concepts
            .iter()
            .map(|c| c.extension(&wn.instance))
            .collect();
        assert!(exts_form_explanation(&exts, &wn));
    }

    #[test]
    fn nominal_start_appears_when_nothing_generalizes() {
        // A why-not instance where any generalization hits the answers:
        // two constants, the other one is the answer.
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["x"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(r, vec![s("a")]);
        inst.insert(r, vec![s("miss")]);
        let q = Ucq::single(Cq::new(
            [Term::Var(Var(0))],
            [Atom::new(r, [Term::Var(Var(0))])],
            [],
        ));
        // Why is "miss" not in q(I)? It IS in q(I)… use a fresh constant.
        let wn = WhyNotInstance::new(schema, inst, q, vec![s("ghost")]).unwrap();
        let e = incremental_search(&wn);
        // "ghost" is outside every column, so the lub is its nominal ⊓ ⊤
        // only — and no b ∈ adom can be absorbed without hitting Ans
        // (any column concept containing a or miss includes an answer).
        let ext = e.concepts[0].extension(&wn.instance);
        assert_eq!(ext, Extension::finite([s("ghost")]));
        assert!(e.concepts[0]
            .parts()
            .any(|p| matches!(p, LsAtom::Nominal(_))));
    }
}
