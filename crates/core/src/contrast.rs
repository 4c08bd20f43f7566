//! Contrastive why-not explanations: *"why is `a` missing while `b`
//! answers?"* — the contrast mode layered over the paper's machinery.
//!
//! The paper (PODS 2015) explains a single missing tuple. Contrastive
//! explanation (Koopmann et al., arXiv 2511.11281; the abduction view of
//! Calvanese et al., arXiv 1402.0575) pairs the missing tuple `a` with a
//! *foil* `b ∈ q(I)` and asks two sharper questions, both answered here
//! with the lub/MGE toolkit of §5:
//!
//! 1. **Difference explanation** ([`difference_core`]): per position `i`,
//!    a most-general `LS` concept that *separates* the foil from the
//!    missing tuple — `b_i ∈ ext(C_i)` while `a_i ∉ ext(C_i)`. The search
//!    is Algorithm 2's greedy support growth (Theorem 5.3's lub lattice),
//!    seeded at the nominal `{b_i}` and absorbing constants as long as
//!    `a_i` stays excluded. Because supports only grow and `lub` is
//!    monotone, a single sweep in a fixed order is maximal: any constant
//!    it rejected stays rejectable (its lub would still capture `a_i`),
//!    and any constant already inside the extension cannot change the lub
//!    (`lub(S ∪ {v}) ≡ lub(S)` whenever `v ∈ ext(lub(S))`). `None` means
//!    no lub-generated separator exists — `a_i` already sits in
//!    `ext(lub({b_i}))`, i.e. the two values are indistinguishable to
//!    `LS` at that position. Each probe is decided by one membership
//!    test of `a_i` against the grown state's growth data
//!    ([`LubState::contains_id`](whynot_concepts::LubState::contains_id)),
//!    and so is the test of whether a constant is already inside the
//!    lub, so the sweep builds no extension at all. Selection-free, a
//!    rejected probe's column signature also decides every later probe
//!    whose signature it contains, which is skipped without growing.
//!
//! 2. **Foil-aligned MGE** ([`foil_mge_core`]): the most general
//!    explanation for `a ∉ q(I) \ {b}` whose concepts still *admit* the
//!    foil (`b_i ∈ ext(C_i)` at every position). Equivalently: the MGE of
//!    the modified why-not instance `(S, I, q, Ans \ {b}, a)` grown from
//!    the two-element seeds `{a_i, b_i}` — foil membership is upward
//!    closed under lub growth, so the greedy sweep preserves it for free,
//!    and [`check_mge_instance`](crate::check_mge_instance) against the
//!    modified instance is an exact oracle (the differential tests use it
//!    that way). The sweep is set-cover flavoured: candidates are ranked
//!    once by how much extension coverage their absorption would buy
//!    (widest first, Algorithm 1's selectivity idea transplanted to
//!    Algorithm 2), then probed with a live re-check. Candidates are
//!    decided by membership in the position's blocked set, as in
//!    Algorithm 2: only the admitted ones build an extension, to be
//!    ranked by it, and the re-checks after the first absorption build
//!    none. `None` means no
//!    foil-aligned explanation exists at all: the seed lubs are the
//!    *least* foil-aligned candidate, so if even they hit `Ans \ {b}`,
//!    every more general candidate does too.
//!
//! 3. **Ontology difference** ([`ontology_difference`]): the same
//!    separation question asked of a *finite* ontology's own concepts —
//!    all subsumption-maximal `C` with `b_i ∈ ext(C)` and `a_i ∉ ext(C)`,
//!    the Definition 3.1 analogue of (1). The session layer computes this
//!    from its cached candidate indices and Algorithm 1 conflict bitsets
//!    (see `WhyNotSession::contrast_ontology_difference`); the free
//!    function here is the plain reference used to pin it.
//!
//! The session front-end (caching keyed by `(query, a, b)`) lives in
//! [`session`](crate::session); the OBDA variant over certain answers is
//! [`obda_contrast`](crate::obda_contrast). The brute-force reference the
//! fast paths are pinned against is test support (`tests/support/`).

use crate::incremental::{adom_ids, beyond_adom, Constant, Grown, Rejected, Verdicts};
use crate::ontology::FiniteOntology;
use crate::session::SessionError;
use crate::whynot::{exts_form_explanation, AnswerIds, Explanation};
use crate::EvalContext;
use std::borrow::Borrow;
use std::sync::Arc;
use whynot_concepts::{Extension, LsConcept, LubEngine, LubKind, LubProvider};
use whynot_relation::{
    AnswerRows, ConstPool, Instance, RelError, Schema, Tuple, Ucq, Value, ValueId,
};

/// A contrastive why-not question: why is `missing` not among the
/// answers of `query` while `foil` is?
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ContrastQuestion {
    /// The query `q` (a union of conjunctive queries).
    pub query: Ucq,
    /// The missing tuple `a`, expected outside `q(I)`.
    pub missing: Tuple,
    /// The foil tuple `b`, expected inside `q(I)`.
    pub foil: Tuple,
}

impl ContrastQuestion {
    /// Builds a contrastive question from a query, the missing tuple and
    /// the foil.
    pub fn new(
        query: Ucq,
        missing: impl IntoIterator<Item = Value>,
        foil: impl IntoIterator<Item = Value>,
    ) -> Self {
        ContrastQuestion {
            query,
            missing: missing.into_iter().collect(),
            foil: foil.into_iter().collect(),
        }
    }
}

/// The lub-derived half of a contrastive answer (the ontology-concept
/// half is computed separately — see [`ontology_difference`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ContrastAnswer {
    /// Per position `i`: a maximal `LS` separator containing `foil[i]`
    /// but not `missing[i]`, or `None` when the two values are
    /// `LS`-indistinguishable at that position.
    pub difference: Vec<Option<LsConcept>>,
    /// The most general explanation for `missing ∉ q(I) \ {foil}` that
    /// still admits the foil componentwise, or `None` when no
    /// foil-aligned explanation exists.
    pub foil_mge: Option<Explanation<LsConcept>>,
}

/// The growth-constant set of a contrastive search, borrowed in
/// ascending value order: `K = adom(I) ∪ ā`, Prop 5.1's restriction and
/// the same set CHECK-MGE W.R.T. `OI` probes (the foil's constants are
/// answers, hence already active-domain members). `adom` holds ascending
/// ids of `pool` (id order is value order); the missing tuple's
/// constants outside it are merged in, so no value is cloned.
pub(crate) fn restriction<'a>(
    pool: &'a ConstPool,
    adom: &[ValueId],
    missing: &'a Tuple,
) -> Vec<Constant<'a>> {
    let mut beyond = beyond_adom(pool, adom, missing).into_iter().peekable();
    let mut k = Vec::with_capacity(adom.len() + missing.len());
    for &id in adom {
        let c = Constant::pooled(pool, id);
        while let Some(b) = beyond.next_if(|&b| b < c.value) {
            k.push(Constant::of(pool, b));
        }
        k.push(c);
    }
    k.extend(beyond.map(|b| Constant::of(pool, b)));
    k
}

/// One position's difference explanation: grows the separator's support
/// from `{foil_i}`, absorbing each constant of `k` whose lub still
/// excludes `missing_i`. Returns `None` iff already the seed lub
/// captures `missing_i` (then every grown lub does too — supports only
/// grow, lubs only generalize). Every probe, and every test of whether a
/// constant is already inside the lub, is a membership test on the
/// state's growth data, so a pooled state never builds its extension; a
/// state without growth data has its extension evaluated once.
///
/// A rejection here means the grown lub holds `missing_i`, which is
/// monotone in the extension. So for a selection-free state a rejected
/// probe's column signature decides every later probe whose signature
/// it contains: the later grown covered-column mask is a subset of the
/// rejected one, and its lub's extension a superset, holding
/// `missing_i` too. Such probes are skipped without growing (see
/// [`Rejected`]).
pub(crate) fn difference_core<P: LubProvider + ?Sized>(
    k: &[Constant<'_>],
    missing_i: &Value,
    foil_i: &Value,
    lubs: &P,
    kind: LubKind,
    ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
) -> Option<LsConcept> {
    let missing = Constant::of(lubs.pool(), missing_i);
    let mut current = Grown::new(lubs.start(kind, foil_i));
    if current.holds(missing, &mut *ext_of) {
        return None;
    }
    let mut rejected = Rejected::default();
    for &c in k {
        if c.value == missing_i || current.holds(c, &mut *ext_of) {
            // Absorbing `missing_i` puts it in the extension outright;
            // absorbing an in-extension value cannot change the lub.
            continue;
        }
        if rejected.skips(&current.state, c, || {
            Grown::new(lubs.grow(&current.state, c.value)).holds(missing, &mut *ext_of)
        }) {
            continue;
        }
        let mut candidate = Grown::new(lubs.grow(&current.state, c.value));
        if candidate.holds(missing, &mut *ext_of) {
            rejected.record(&current.state, c);
        } else {
            current = candidate;
        }
    }
    Some(current.state.into_concept())
}

/// Ranks the growth candidates for one position of the foil-aligned
/// search, set-cover style: constants whose absorption buys the widest
/// extension first (⊤ counts as widest), ties broken by ascending value.
/// Constants of the position's blocked set are left out ungrown, and so
/// are the grown candidates the verdicts reject: a candidate regrown
/// from a larger support would hit `B_j` too. Their signatures go into
/// `rejected`, which also skips the probes they dominate, and which the
/// absorb loop keeps using. Only the admitted candidates build their
/// extensions, to be ordered by them.
fn rank_candidates<'k, P: LubProvider + ?Sized, E: Borrow<Extension>>(
    k: &[Constant<'k>],
    current: &mut Grown,
    verdicts: &Verdicts<'_, '_, E>,
    rejected: &mut Rejected,
    lubs: &P,
    ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
) -> Vec<(Constant<'k>, Grown)> {
    let mut scored: Vec<(Constant<'k>, Grown, Option<usize>)> = Vec::new();
    for &c in k {
        if verdicts.blocks(c) || current.holds(c, &mut *ext_of) {
            continue;
        }
        if let Some(mut candidate) = verdicts.probe(rejected, lubs, &current.state, c, ext_of) {
            let coverage = candidate.extension(&mut *ext_of).len();
            scored.push((c, candidate, coverage));
        }
    }
    let widest = |coverage: Option<usize>| coverage.unwrap_or(usize::MAX);
    scored.sort_by(|(ca, _, ea), (cb, _, eb)| {
        widest(*eb)
            .cmp(&widest(*ea))
            .then_with(|| ca.value.cmp(cb.value))
    });
    scored.into_iter().map(|(c, g, _)| (c, g)).collect()
}

/// The foil-aligned MGE: Algorithm 2's growth loop over the residual
/// question (`Ans \ {foil}`), seeded at `{missing_j, foil_j}` per
/// position so the foil stays admitted throughout, with the set-cover
/// candidate order of [`rank_candidates`]. The widest admitted candidate
/// is absorbed as ranked; every later one is regrown from the absorbed
/// support and decided by the position's [`Verdicts`] without building
/// its extension. A position's final state builds its extension only
/// when a later position's blocked set reads it. Returns `None` iff the
/// seed lubs are not an explanation — they are the least foil-aligned
/// candidate, so nothing more general can be one either.
pub(crate) fn foil_mge_core<P: LubProvider + ?Sized>(
    k: &[Constant<'_>],
    q: &AnswerIds<'_>,
    foil: &Tuple,
    lubs: &P,
    kind: LubKind,
    ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
) -> Option<Explanation<LsConcept>> {
    let m = q.arity();
    let mut states: Vec<Grown> = q
        .tuple()
        .iter()
        .zip(foil)
        .map(|(a, b)| Grown::new(lubs.grow(&lubs.start(kind, a), b)))
        .collect();
    let mut exts: Vec<Arc<Extension>> = states
        .iter_mut()
        .map(|s| s.extension(&mut *ext_of))
        .collect();
    if !exts_form_explanation(&exts, q) {
        return None;
    }
    for j in 0..m {
        let verdicts = Verdicts::new(&exts, j, q, lubs.pool());
        let current = &mut states[j];
        // The absorbed masks only lose columns from the seed's, so the
        // ranking's rejections keep deciding the probes they dominate.
        let mut rejected = Rejected::default();
        let mut ranked =
            rank_candidates(k, current, &verdicts, &mut rejected, lubs, ext_of).into_iter();
        if let Some((_, widest)) = ranked.next() {
            *current = widest;
        }
        for (c, _) in ranked {
            if current.holds(c, &mut *ext_of) {
                continue; // covered by an earlier absorption this sweep
            }
            if let Some(candidate) = verdicts.probe(&mut rejected, lubs, &current.state, c, ext_of)
            {
                *current = candidate;
            }
        }
        if j + 1 < m {
            exts[j] = states[j].extension(ext_of);
        }
    }
    Some(Explanation::new(
        states.into_iter().map(|s| s.state.into_concept()),
    ))
}

/// Both halves of the lub-derived contrastive answer over the residual
/// question's answer ids (they must already exclude the foil), a lub provider
/// and a caller-supplied extension function — the seam the session's
/// engine and the one-shot provider both plug into.
pub(crate) fn contrast_core<P: LubProvider + ?Sized>(
    k: &[Constant<'_>],
    q: &AnswerIds<'_>,
    foil: &Tuple,
    lubs: &P,
    kind: LubKind,
    ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
) -> ContrastAnswer {
    let difference = q
        .tuple()
        .iter()
        .zip(foil)
        .map(|(a, b)| difference_core(k, a, b, lubs, kind, ext_of))
        .collect();
    let foil_mge = foil_mge_core(k, q, foil, lubs, kind, ext_of);
    ContrastAnswer {
        difference,
        foil_mge,
    }
}

/// Validates a contrastive question against a schema, query answers, and
/// arities; returns the foil's row in `ans`, which the residual question
/// `Ans \ {foil}` skips. Shared by the one-shot path here and the
/// session's binder.
pub(crate) fn validate_contrast(
    query: &Ucq,
    missing: &Tuple,
    foil: &Tuple,
    ans: &AnswerRows,
) -> Result<usize, SessionError> {
    if missing.is_empty() {
        return Err(SessionError::Nullary);
    }
    if missing.len() != query.arity() || foil.len() != query.arity() {
        return Err(SessionError::Invalid(RelError::Invalid(format!(
            "contrast tuples have arities {}/{}, query has arity {}",
            missing.len(),
            foil.len(),
            query.arity()
        ))));
    }
    if ans.contains(missing) {
        return Err(SessionError::TupleIsAnswer(missing.clone()));
    }
    ans.position(foil)
        .ok_or_else(|| SessionError::FoilNotAnswer(foil.clone()))
}

/// One-shot contrastive answer over a bare `(schema, instance)` pair —
/// the reference the session path is differentially pinned against. Builds a fresh pooled [`LubEngine`] (columns interned once
/// for the whole search) and runs both cores.
pub fn contrast_instance(
    schema: &Schema,
    instance: &Instance,
    question: &ContrastQuestion,
    kind: LubKind,
) -> Result<ContrastAnswer, SessionError> {
    let pool = instance.const_pool_with(question.missing.iter().cloned());
    let engine = LubEngine::with_pool(schema, instance, Arc::clone(&pool));
    contrast_with(&engine, schema, instance, &pool, question, kind)
}

/// [`contrast_instance`] over a caller-built lub provider — a
/// [`LubEngine`] or a wrapper around one, such as a timing shim — and its
/// constant pool. Results are identical to [`contrast_instance`] by lub
/// purity (the pool only affects interning, never extensions). The pool
/// must intern the instance's constants; the question's own constants
/// may or may not be pooled.
pub fn contrast_with<P: LubProvider + ?Sized>(
    provider: &P,
    schema: &Schema,
    instance: &Instance,
    pool: &Arc<ConstPool>,
    question: &ContrastQuestion,
    kind: LubKind,
) -> Result<ContrastAnswer, SessionError> {
    question.query.validate(schema)?;
    let ans = question.query.eval(instance);
    let rows = AnswerRows::from_tuples(Arc::clone(pool), question.query.arity(), &ans);
    let foil = validate_contrast(&question.query, &question.missing, &question.foil, &rows)?;
    let adom = adom_ids(pool, instance);
    let k = restriction(pool, &adom, &question.missing);
    let ids = AnswerIds::over(&rows, Some(foil), &question.missing);
    Ok(contrast_core(
        &k,
        &ids,
        &question.foil,
        provider,
        kind,
        &mut |c| c.extension_in(instance, pool),
    ))
}

/// Whether `a`'s extension is a subset of `b`'s (⊤ absorbs everything; a
/// ⊤ extension is only inside another ⊤).
pub(crate) fn ext_subset(a: &Extension, b: &Extension) -> bool {
    match (a.as_finite(), b.as_finite()) {
        (_, None) => true,
        (None, Some(_)) => false,
        (Some(sa), Some(_)) => b.contains_all(sa.iter()),
    }
}

/// Filters a separator list down to the extension-maximal ones (ties —
/// distinct concepts with equal extensions — all survive), preserving
/// the input order.
pub(crate) fn retain_ext_maximal<C, E: Borrow<Extension>>(separators: Vec<(C, E)>) -> Vec<C> {
    let maximal: Vec<bool> = separators
        .iter()
        .enumerate()
        .map(|(i, (_, ext))| {
            let ext = ext.borrow();
            !separators.iter().enumerate().any(|(j, (_, other))| {
                let other = other.borrow();
                i != j && ext_subset(ext, other) && !ext_subset(other, ext)
            })
        })
        .collect();
    separators
        .into_iter()
        .zip(maximal)
        .filter_map(|((c, _), keep)| keep.then_some(c))
        .collect()
}

/// The ontology-concept difference: per position `i`, every
/// subsumption-maximal concept of the finite ontology whose extension
/// contains `foil[i]` but not `missing[i]`, in the ontology's own
/// concept order. (Maximality is judged by extension inclusion over the
/// pinned instance — the order Definition 3.3 compares explanations by.)
///
/// This is the plain reference; `WhyNotSession::contrast_ontology_difference`
/// computes the same lists from its cached candidate indices (the
/// concepts containing `foil[i]` minus those containing `missing[i]`) and
/// its extension table, and is pinned against this function.
pub fn ontology_difference<O: FiniteOntology>(
    ontology: &O,
    instance: &Instance,
    missing: &Tuple,
    foil: &Tuple,
) -> Vec<Vec<O::Concept>> {
    let ctx = EvalContext::new(ontology, instance);
    let concepts = ontology.concepts();
    missing
        .iter()
        .zip(foil)
        .map(|(a, b)| {
            let separators: Vec<(O::Concept, Extension)> = concepts
                .iter()
                .filter_map(|c| {
                    let ext = ctx.extension(c);
                    (ext.contains(b) && !ext.contains(a)).then(|| (c.clone(), ext))
                })
                .collect();
            retain_ext_maximal(separators)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitOntology;
    use crate::incremental::check_mge_instance;
    use crate::whynot::{is_explanation, WhyNotInstance};
    use crate::InstanceOntology;
    use whynot_relation::{Atom, Cq, RelId, SchemaBuilder, Term, Var};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    /// The Figure 1/2 cities fixture with the two-hop query; the foil
    /// "Amsterdam → Rome" answers while "Amsterdam → New York" is
    /// missing.
    fn paper_fixture() -> (Schema, Instance, Ucq, RelId, RelId) {
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
        (schema, inst, q, cities, tc)
    }

    fn paper_contrast() -> ContrastQuestion {
        let (_, _, q, _, _) = paper_fixture();
        ContrastQuestion::new(
            q,
            [s("Amsterdam"), s("New York")],
            [s("Amsterdam"), s("Rome")],
        )
    }

    /// "Why no two-hop route Tokyo → Santa Cruz, while New York →
    /// Santa Cruz has one?" — a pair whose foil-aligned MGE exists.
    fn tokyo_contrast() -> ContrastQuestion {
        let (_, _, q, _, _) = paper_fixture();
        ContrastQuestion::new(
            q,
            [s("Tokyo"), s("Santa Cruz")],
            [s("New York"), s("Santa Cruz")],
        )
    }

    #[test]
    fn difference_separates_foil_from_missing() {
        let (schema, inst, ..) = paper_fixture();
        let question = paper_contrast();
        let answer = contrast_instance(&schema, &inst, &question, LubKind::SelectionFree).unwrap();
        assert_eq!(answer.difference.len(), 2);
        // Position 0 shares the value — no separator can exist.
        assert!(answer.difference[0].is_none());
        // Position 1 separates Rome from New York.
        let sep = answer.difference[1].as_ref().expect("Rome ≠ New York");
        let pool = inst.const_pool_with(question.missing.iter().cloned());
        let ext = sep.extension_in(&inst, &pool);
        assert!(ext.contains(&s("Rome")));
        assert!(!ext.contains(&s("New York")));
    }

    #[test]
    fn difference_is_maximal_against_single_absorptions() {
        // Greedy maximality: no single constant of K can be absorbed into
        // the final support without capturing the missing value.
        let (schema, inst, ..) = paper_fixture();
        let question = paper_contrast();
        let answer = contrast_instance(&schema, &inst, &question, LubKind::SelectionFree).unwrap();
        let pool = inst.const_pool_with(question.missing.iter().cloned());
        let engine = LubEngine::with_pool(&schema, &inst, Arc::clone(&pool));
        let k = restriction(&pool, &engine.adom(), &question.missing);
        let sep = answer.difference[1].as_ref().unwrap();
        let ext = sep.extension_in(&inst, &pool);
        let base = ext.as_finite().unwrap().to_btree_set();
        for v in k.iter().map(|c| c.value) {
            if ext.contains(v) {
                continue;
            }
            let mut grown = base.clone();
            grown.insert(v.clone());
            let cand = engine.try_lub(&grown).unwrap();
            assert!(
                cand.extension_in(&inst, &pool).contains(&s("New York")),
                "absorbing {v:?} should have captured the missing value"
            );
        }
    }

    #[test]
    fn foil_mge_none_when_the_foil_cannot_be_admitted() {
        // Admitting both Rome and New York at position 1 forces an
        // extension covering every city name (only the Cities.name column
        // holds both, and nominals are singletons), so the residual
        // answer (Amsterdam, Amsterdam) is unavoidable: no foil-aligned
        // explanation exists, while the plain MGE of course does.
        let (schema, inst, ..) = paper_fixture();
        let question = paper_contrast();
        let answer = contrast_instance(&schema, &inst, &question, LubKind::SelectionFree).unwrap();
        assert!(answer.foil_mge.is_none());
        assert!(answer.difference[1].is_some());
    }

    #[test]
    fn foil_mge_is_an_explanation_admitting_the_foil() {
        let (schema, inst, q, ..) = paper_fixture();
        let question = tokyo_contrast();
        let answer = contrast_instance(&schema, &inst, &question, LubKind::SelectionFree).unwrap();
        let e = answer.foil_mge.as_ref().expect("foil-aligned MGE exists");
        // Explanation w.r.t. the residual instance (Ans \ {foil}) …
        let mut ans = q.eval(&inst);
        assert!(ans.remove(&question.foil));
        let wn = WhyNotInstance::with_answers(
            schema.clone(),
            inst.clone(),
            q.clone(),
            ans,
            question.missing.clone(),
        )
        .unwrap();
        let oi = InstanceOntology::new(schema.clone(), inst.clone());
        assert!(is_explanation(&oi, &wn, e));
        // … admitting the foil componentwise …
        let pool = inst.const_pool_with(question.missing.iter().cloned());
        for (c, b) in e.concepts.iter().zip(&question.foil) {
            assert!(c.extension_in(&inst, &pool).contains(b));
        }
        // … and most general for the residual instance (the oracle).
        assert!(check_mge_instance(&wn, e, LubKind::SelectionFree));
    }

    #[test]
    fn foil_mge_none_when_seed_already_hits_residual_answers() {
        // q(X) over a unary relation: answers {a, b}. Contrast (ghost, a):
        // residual answers {b}; the seed at position 0 is lub({ghost, a}),
        // whose extension includes a — fine — but must avoid {b}. Make a
        // and b indistinguishable so any concept containing a contains b.
        let mut bld = SchemaBuilder::new();
        let r = bld.relation("R", ["x", "y"]);
        let schema = bld.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(r, vec![s("a"), s("k")]);
        inst.insert(r, vec![s("b"), s("k")]);
        let q = Ucq::single(Cq::new(
            [Term::Var(Var(0))],
            [Atom::new(r, [Term::Var(Var(0)), Term::Var(Var(1))])],
            [],
        ));
        let question = ContrastQuestion::new(q, [s("ghost")], [s("a")]);
        let answer = contrast_instance(&schema, &inst, &question, LubKind::SelectionFree).unwrap();
        // lub({ghost, a}) covers the R.x column ⇒ contains b ⇒ hits the
        // residual answer set: no foil-aligned explanation exists.
        assert!(answer.foil_mge.is_none());
        // The difference separator still exists: {a}'s lub excludes ghost.
        assert!(answer.difference[0].is_some());
    }

    #[test]
    fn validation_errors_are_reported() {
        let (schema, inst, q, ..) = paper_fixture();
        // Missing tuple that actually answers.
        let wrong_missing = ContrastQuestion::new(
            q.clone(),
            [s("Amsterdam"), s("Rome")],
            [s("Berlin"), s("Amsterdam")],
        );
        assert!(matches!(
            contrast_instance(&schema, &inst, &wrong_missing, LubKind::SelectionFree),
            Err(SessionError::TupleIsAnswer(_))
        ));
        // Foil that is not an answer.
        let wrong_foil = ContrastQuestion::new(
            q.clone(),
            [s("Amsterdam"), s("New York")],
            [s("Amsterdam"), s("Tokyo")],
        );
        assert!(matches!(
            contrast_instance(&schema, &inst, &wrong_foil, LubKind::SelectionFree),
            Err(SessionError::FoilNotAnswer(_))
        ));
        // Arity mismatch.
        let short = ContrastQuestion::new(q, [s("Amsterdam")], [s("Amsterdam"), s("Rome")]);
        assert!(matches!(
            contrast_instance(&schema, &inst, &short, LubKind::SelectionFree),
            Err(SessionError::Invalid(_))
        ));
    }

    #[test]
    fn with_selections_also_separates() {
        let (schema, inst, ..) = paper_fixture();
        let question = paper_contrast();
        let answer = contrast_instance(&schema, &inst, &question, LubKind::WithSelections).unwrap();
        let sep = answer.difference[1].as_ref().expect("separator exists");
        let pool = inst.const_pool_with(question.missing.iter().cloned());
        let ext = sep.extension_in(&inst, &pool);
        assert!(ext.contains(&s("Rome")));
        assert!(!ext.contains(&s("New York")));
        let aligned =
            contrast_instance(&schema, &inst, &tokyo_contrast(), LubKind::WithSelections).unwrap();
        assert!(aligned.foil_mge.is_some());
    }

    #[test]
    fn ontology_difference_picks_maximal_separators() {
        let ontology = ExplicitOntology::builder()
            .concept("City", ["Amsterdam", "Rome", "New York"])
            .concept("European-City", ["Amsterdam", "Rome"])
            .concept("Italian-City", ["Rome"])
            .concept("US-City", ["New York"])
            .edge("Italian-City", "European-City")
            .edge("European-City", "City")
            .edge("US-City", "City")
            .build();
        let inst = Instance::new();
        let missing = vec![s("Amsterdam"), s("New York")];
        let foil = vec![s("Amsterdam"), s("Rome")];
        let diff = ontology_difference(&ontology, &inst, &missing, &foil);
        assert_eq!(diff.len(), 2);
        // Position 0: both values are Amsterdam — nothing separates.
        assert!(diff[0].is_empty());
        // Position 1: European-City separates Rome from New York and
        // subsumes Italian-City; City contains New York and is out.
        let names: Vec<String> = diff[1].iter().map(|c| format!("{c}")).collect();
        assert_eq!(names, ["European-City"]);
    }
}
