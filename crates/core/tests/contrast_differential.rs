//! Differential tests: the greedy contrast paths against the
//! brute-force reference enumerations of `support/reference.rs`, plus
//! the session path against the one-shot.

#[path = "support/reference.rs"]
mod reference;

use std::collections::BTreeSet;
use whynot_core::{
    check_mge_instance, contrast_instance, is_explanation, ContrastQuestion, InstanceOntology,
    LubKind, WhyNotInstance,
};
use whynot_relation::{Atom, Cq, Instance, RelId, Schema, SchemaBuilder, Term, Ucq, Value, Var};

fn s(x: &str) -> Value {
    Value::str(x)
}

/// A deliberately small world — the brute-force reference enumerates
/// `2^|K|` subsets per position, so `K` must stay tiny.
fn small_fixture() -> (Schema, Instance, Ucq, RelId, RelId) {
    let mut b = SchemaBuilder::new();
    let cities = b.relation("Cities", ["name", "continent"]);
    let tc = b.relation("TC", ["from", "to"]);
    let schema = b.finish().unwrap();
    let mut inst = Instance::new();
    for (name, continent) in [
        ("Ams", "Europe"),
        ("Ber", "Europe"),
        ("NY", "America"),
        ("SC", "America"),
        ("Tok", "Asia"),
    ] {
        inst.insert(cities, vec![s(name), s(continent)]);
    }
    for (a, c) in [("Ams", "Ber"), ("Ber", "Ams"), ("NY", "SC"), ("Tok", "NY")] {
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

/// Contrast pairs over the small fixture: every foil is a two-hop
/// answer ({(Ams,Ams), (Ber,Ber), (NY,NY)? no — see below}), every
/// missing tuple is not.
fn contrast_pairs(q: &Ucq, inst: &Instance) -> Vec<ContrastQuestion> {
    let ans = q.eval(inst);
    assert!(!ans.is_empty(), "fixture must have answers to contrast");
    let candidates = [
        vec![s("Ams"), s("SC")],
        vec![s("Tok"), s("Ams")],
        vec![s("Ber"), s("NY")],
        vec![s("ghost"), s("SC")],
    ];
    let mut out = Vec::new();
    for foil in &ans {
        for missing in &candidates {
            if !ans.contains(missing) {
                out.push(ContrastQuestion::new(
                    q.clone(),
                    missing.clone(),
                    foil.clone(),
                ));
            }
        }
    }
    assert!(out.len() >= 4, "want a meaningful pair population");
    out
}

#[test]
fn difference_matches_brute_force_reference() {
    let (schema, inst, q, ..) = small_fixture();
    let k_vals = reference::restriction_values(&inst, &vec![s("ghost")]);
    assert!(k_vals.len() <= 12, "reference must stay enumerable");
    for question in contrast_pairs(&q, &inst) {
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let answer = contrast_instance(&schema, &inst, &question, kind).unwrap();
            let k_vals = reference::restriction_values(&inst, &question.missing);
            let pool = reference::reference_pool(&inst, &question.missing);
            for (i, (a, b)) in question.missing.iter().zip(&question.foil).enumerate() {
                let maximal = reference::max_separators(&schema, &inst, kind, &k_vals, a, b)
                    .expect("fixture small enough to enumerate");
                match &answer.difference[i] {
                    None => assert!(
                        maximal.is_empty(),
                        "greedy found no separator but reference did at {i} of {question:?}"
                    ),
                    Some(sep) => {
                        assert!(
                            !maximal.is_empty(),
                            "greedy separator but empty reference at {i} of {question:?}"
                        );
                        // The greedy result is extension-maximal (no
                        // valid subset lub strictly contains it), so it
                        // must appear in the reference maximal list —
                        // which may hold several incomparable maxima.
                        let ext = sep.extension_in(&inst, &pool);
                        assert!(
                            maximal.iter().any(|m| m.extension_in(&inst, &pool) == ext),
                            "greedy separator not reference-maximal at {i} of {question:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn foil_mge_matches_brute_force_reference() {
    let (schema, inst, q, ..) = small_fixture();
    for question in contrast_pairs(&q, &inst) {
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let answer = contrast_instance(&schema, &inst, &question, kind).unwrap();
            let all = reference::foil_aligned_mges(
                &schema,
                &inst,
                &q,
                &question.missing,
                &question.foil,
                kind,
            )
            .expect("fixture small enough to enumerate");
            let Some(e) = &answer.foil_mge else {
                assert!(
                    all.is_empty(),
                    "greedy found no foil-aligned MGE but reference found {} for {question:?}",
                    all.len()
                );
                continue;
            };
            assert!(
                !all.is_empty(),
                "greedy MGE but empty reference: {question:?}"
            );

            // The oracle: most general w.r.t. the residual instance.
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
            assert!(
                is_explanation(&oi, &wn, e),
                "not an explanation: {question:?}"
            );
            assert!(
                check_mge_instance(&wn, e, kind),
                "check-mge oracle rejected the greedy result: {question:?}"
            );

            // Foil admitted componentwise.
            let pool = reference::reference_pool(&inst, &question.missing);
            for (c, b) in e.concepts.iter().zip(&question.foil) {
                assert!(c.extension_in(&inst, &pool).contains(b));
            }

            // Extension-equal to one of the reference most-general
            // explanations.
            let exts: Vec<_> = e
                .concepts
                .iter()
                .map(|c| c.extension_in(&inst, &pool))
                .collect();
            assert!(
                all.iter().any(|m| {
                    m.concepts
                        .iter()
                        .zip(&exts)
                        .all(|(mc, ext)| mc.extension_in(&inst, &pool) == *ext)
                }),
                "greedy MGE not among the reference most-general set: {question:?}"
            );
        }
    }
}

#[test]
fn session_contrast_matches_one_shot_on_generated_network() {
    // Cross-check the session path on a generated workload beyond the
    // hand fixtures: city_network pairs through both engines.
    let net = whynot_scenarios::generators::city_network(12, 3, 7);
    let (schema, instance) = (net.why_not.schema.clone(), net.why_not.instance.clone());
    let q = whynot_scenarios::generators::city_query_shapes(net.tc)[0].clone();
    let ans = q.eval(&instance);
    let foil = ans.iter().next().expect("network has answers").clone();
    let adom: Vec<Value> = instance.active_domain().into_iter().collect();
    let mut questions = Vec::new();
    for a in adom.iter().take(4) {
        for b in adom.iter().rev().take(2) {
            let missing = vec![a.clone(), b.clone()];
            if missing.len() == foil.len() && !ans.contains(&missing) {
                questions.push(ContrastQuestion::new(q.clone(), missing, foil.clone()));
            }
        }
    }
    assert!(!questions.is_empty());
    let ontology = InstanceOntology::new(schema.clone(), instance.clone());
    let session = whynot_core::WhyNotSession::new(&ontology, &schema, &instance);
    for question in &questions {
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let one_shot = contrast_instance(&schema, &instance, question, kind).unwrap();
            let via_session = session.contrast(question, kind).unwrap();
            assert_eq!(*via_session, one_shot);
        }
    }
    // And the K sweep matches the documented restriction set.
    let k = reference::restriction_values(&instance, &questions[0].missing);
    let adom_set: BTreeSet<Value> = instance.active_domain().into_iter().collect();
    assert!(k
        .iter()
        .all(|v| adom_set.contains(v) || questions[0].missing.contains(v)));
}
