//! Reference differential for the `>card` searches (Proposition 6.4).
//!
//! On small random explicit ontologies (at most six concepts over six
//! constants, arity one or two, up to a few dozen answers) and on a
//! batched 96-city network workload (arities one to three, answer sets
//! spanning several bitset words, ghost constants no concept covers):
//!
//! * `card_maximal_exact` returns the first `Σ|ext|`-maximal explanation
//!   of a brute-force walk over every product of per-position concepts
//!   that contain `aᵢ`, and `None` iff no such product is an
//!   explanation;
//! * `card_maximal_greedy` equals a literal port of the extension-based
//!   greedy heuristic (`support/card.rs`);
//! * a session answers both exactly as the one-shot functions do, also
//!   under a two-entry cache budget.

#[path = "support/card.rs"]
mod card;

use card::{extension_greedy, first_card_maximum};
use proptest::prelude::*;
use whynot_core::{
    card_maximal_exact, card_maximal_greedy, degree_of_generality, CacheBudget, ConceptName,
    Explanation, ExplicitOntology, WhyNotInstance, WhyNotQuestion, WhyNotSession,
};
use whynot_relation::{Atom, Cq, Instance, RelId, Schema, SchemaBuilder, Term, Ucq, Value, Var};
use whynot_scenarios::generators::batched_city_workload;

/// The constants of the random ontologies.
const DOMAIN: u8 = 6;

fn constant(i: u8) -> Value {
    Value::str(format!("c{i}"))
}

/// Checks one question against the references and returns the one-shot
/// answers `(exact, greedy)`; `None` when the tuple is an answer.
fn check_one_shot(
    o: &ExplicitOntology,
    schema: &Schema,
    instance: &Instance,
    q: &WhyNotQuestion,
) -> Option<[Option<Explanation<ConceptName>>; 2]> {
    let wn = WhyNotInstance::new(
        schema.clone(),
        instance.clone(),
        q.query.clone(),
        q.tuple.clone(),
    )
    .ok()?;
    let exact = card_maximal_exact(o, &wn);
    let reference = first_card_maximum(o, &wn);
    assert_eq!(
        exact.as_ref().map(|e| degree_of_generality(o, &wn, e)),
        reference.as_ref().map(|(total, _)| Some(*total)),
        "exact Σ|ext| for {:?}",
        q.tuple
    );
    assert_eq!(
        exact,
        reference.map(|(_, e)| e),
        "exact tie-break for {:?}",
        q.tuple
    );
    let greedy = card_maximal_greedy(o, &wn);
    assert_eq!(greedy, extension_greedy(o, &wn), "greedy for {:?}", q.tuple);
    Some([exact, greedy])
}

/// Answers every question one-shot (checking the references), then
/// through a session with no budget and one with `CacheBudget::uniform(2)`
/// — twice each, so the second pass reads whatever the caches kept.
fn check_stream(o: &ExplicitOntology, schema: &Schema, instance: &Instance, qs: &[WhyNotQuestion]) {
    let expected: Vec<_> = qs
        .iter()
        .map(|q| check_one_shot(o, schema, instance, q))
        .collect();
    let open = WhyNotSession::new(o, schema, instance);
    let mut capped = WhyNotSession::new(o, schema, instance);
    capped.set_cache_budget(CacheBudget::uniform(2));
    for session in [&open, &capped] {
        for _ in 0..2 {
            for (q, want) in qs.iter().zip(&expected) {
                let Some([exact, greedy]) = want else {
                    assert!(session.card_maximal_exact(q).is_err(), "{:?}", q.tuple);
                    continue;
                };
                assert_eq!(
                    &session.card_maximal_exact(q).unwrap(),
                    exact,
                    "{:?}",
                    q.tuple
                );
                assert_eq!(
                    &session.card_maximal_greedy(q).unwrap(),
                    greedy,
                    "{:?}",
                    q.tuple
                );
            }
        }
    }
}

/// A random scenario: concepts as member sets over [`DOMAIN`], the
/// arity, and the relation's facts (only the first component is used at
/// arity 1).
fn scenario(
    concepts: &[std::collections::BTreeSet<u8>],
    arity: usize,
    facts: &[(u8, u8)],
) -> (ExplicitOntology, Schema, Instance, RelId) {
    let mut builder = ExplicitOntology::builder();
    for (i, members) in concepts.iter().enumerate() {
        builder = builder.concept(
            format!("K{i}"),
            members.iter().map(|&m| format!("c{m}")).collect::<Vec<_>>(),
        );
    }
    let mut b = SchemaBuilder::new();
    let r = b.relation("R", ["x", "y"].into_iter().take(arity));
    let schema = b.finish().unwrap();
    let mut inst = Instance::new();
    for &(x, y) in facts {
        inst.insert(r, [constant(x), constant(y)][..arity].to_vec());
    }
    (builder.build(), schema, inst, r)
}

/// `q(x̄) ← R(x̄)`.
fn identity_query(r: RelId, arity: usize) -> Ucq {
    let vars: Vec<Term> = (0..arity as u32).map(|v| Term::Var(Var(v))).collect();
    Ucq::single(Cq::new(vars.clone(), [Atom::new(r, vars)], []))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn card_searches_match_their_references_on_small_ontologies(
        concepts in proptest::collection::vec(
            proptest::collection::btree_set(0u8..DOMAIN, 1..5),
            1..7,
        ),
        arity in 1usize..3,
        facts in proptest::collection::vec((0u8..DOMAIN, 0u8..DOMAIN), 0..30),
    ) {
        let (o, schema, inst, r) = scenario(&concepts, arity, &facts);
        let query = identity_query(r, arity);
        // Every tuple over the domain plus one ghost constant: answers
        // (rejected), tuples some position of which no concept covers,
        // and everything in between.
        let values: Vec<Value> = (0..=DOMAIN).map(constant).collect();
        let tuples: Vec<Vec<Value>> = match arity {
            1 => values.iter().map(|v| vec![v.clone()]).collect(),
            _ => values
                .iter()
                .flat_map(|a| values.iter().map(move |b| vec![a.clone(), b.clone()]))
                .collect(),
        };
        let qs: Vec<WhyNotQuestion> = tuples
            .into_iter()
            .map(|t| WhyNotQuestion::new(query.clone(), t))
            .collect();
        check_stream(&o, &schema, &inst, &qs);
    }
}

#[test]
fn card_searches_match_their_references_on_a_city_network() {
    let w = batched_city_workload(96, 4, 60, 7);
    check_stream(&w.ontology, &w.schema, &w.instance, &w.questions);
}

#[test]
fn nullary_card_searches_return_the_empty_explanation() {
    // `q() ← R(x)` over an empty `R`: `Ans = ∅`, so the empty tuple is
    // missing and the empty explanation is the only (vacuous) candidate.
    let (o, schema, inst, r) = scenario(&[[0u8].into()], 1, &[]);
    let query = Ucq::single(Cq::new(
        Vec::<Term>::new(),
        [Atom::new(r, [Term::Var(Var(0))])],
        [],
    ));
    let wn = WhyNotInstance::new(schema, inst, query, Vec::new()).unwrap();
    let exact = card_maximal_exact(&o, &wn);
    assert_eq!(exact, first_card_maximum(&o, &wn).map(|(_, e)| e));
    assert_eq!(exact.map(|e| e.len()), Some(0));
    assert_eq!(card_maximal_greedy(&o, &wn), extension_greedy(&o, &wn));
}
