//! The OBDA contrast pipeline over the paper's Figure 4 specification:
//! certain-answer semantics via rewriting, lub-level and named
//! differences, and the consistency guard.

use whynot_core::{obda_contrast, LubKind};
use whynot_dllite::{AtomicRole, BasicConcept, ObdaSpec, OntAtom, OntCq};
use whynot_relation::{Term, Value, Var};
use whynot_scenarios::paper::{data_schema, figure_2_base, figure_4_mappings, figure_4_tbox};

fn s(x: &str) -> Value {
    Value::str(x)
}

fn connected_query() -> OntCq {
    OntCq::new(
        [Term::Var(Var(0)), Term::Var(Var(1))],
        [OntAtom::Role(
            AtomicRole::new("connected"),
            Term::Var(Var(0)),
            Term::Var(Var(1)),
        )],
    )
}

#[test]
fn figure_4_contrast_reads_back_in_ontology_vocabulary() {
    let (schema, cities, tc) = data_schema();
    let spec = ObdaSpec::new(figure_4_tbox(), figure_4_mappings(cities, tc));
    let inst = figure_2_base(cities, tc);
    let q = connected_query();

    // The certain answers are exactly the six mapped train pairs.
    let ans = spec.certain_answers(&schema, &q, &inst).unwrap();
    assert_eq!(ans.len(), 6);
    assert!(ans.contains(&vec![s("Amsterdam"), s("Berlin")]));
    assert!(!ans.contains(&vec![s("Amsterdam"), s("New York")]));

    // "Why is Amsterdam certainly connected to Berlin but not to
    // New York?"
    let out = obda_contrast(
        &spec,
        &schema,
        &inst,
        &q,
        [s("Amsterdam"), s("New York")],
        [s("Amsterdam"), s("Berlin")],
        LubKind::WithSelections,
    )
    .unwrap();

    // Position 0 shares Amsterdam: nothing separates.
    assert!(out.ontology_difference[0].is_empty());
    assert!(out.answer.difference[0].is_none());
    // Position 1: ∃connected⁻ — "cities something is certainly
    // connected to" — holds Berlin but not New York and strictly
    // contains every other named separator (EU-City among them).
    assert_eq!(
        out.ontology_difference[1],
        vec![BasicConcept::exists_inv("connected")]
    );
    // EU-City separates too, but is subsumed by the winner.
    let ontology = whynot_core::ObdaOntology::new(spec.clone());
    let named = whynot_core::ontology_difference(
        &ontology,
        &inst,
        &vec![s("Amsterdam"), s("New York")],
        &vec![s("Amsterdam"), s("Berlin")],
    );
    assert_eq!(named, out.ontology_difference);
    // The lub-level separator agrees on membership.
    let sep = out.answer.difference[1].as_ref().expect("lub separator");
    let pool = inst.const_pool_with([s("New York")]);
    let ext = sep.extension_in(&inst, &pool);
    assert!(ext.contains(&s("Berlin")));
    assert!(!ext.contains(&s("New York")));
    // The rewriting evaluates back to the same certain answers.
    assert_eq!(out.rewritten.eval(&inst), ans);
}

#[test]
fn inconsistent_instances_are_refused() {
    let (schema, cities, tc) = data_schema();
    let spec = ObdaSpec::new(figure_4_tbox(), figure_4_mappings(cities, tc));
    let mut inst = figure_2_base(cities, tc);
    // A city on two continents trips EU-City ⊓ N.A.-City ⊑ ⊥.
    inst.insert(
        cities,
        vec![s("Atlantis"), Value::int(1), s("Nowhere"), s("Europe")],
    );
    inst.insert(
        cities,
        vec![s("Atlantis"), Value::int(2), s("Nowhere"), s("N.America")],
    );
    assert!(!spec.is_consistent(&inst));
    let err = obda_contrast(
        &spec,
        &schema,
        &inst,
        &connected_query(),
        [s("Amsterdam"), s("New York")],
        [s("Amsterdam"), s("Berlin")],
        LubKind::SelectionFree,
    );
    assert!(err.is_err());
}

#[test]
fn foil_alignment_composes_with_certain_answers() {
    // A pair whose foil-aligned MGE exists under certain-answer
    // semantics: why Tokyo→(certainly nothing) while New York→San
    // Francisco is certain.
    let (schema, cities, tc) = data_schema();
    let spec = ObdaSpec::new(figure_4_tbox(), figure_4_mappings(cities, tc));
    let inst = figure_2_base(cities, tc);
    let q = connected_query();
    let out = obda_contrast(
        &spec,
        &schema,
        &inst,
        &q,
        [s("Tokyo"), s("Santa Cruz")],
        [s("San Francisco"), s("Santa Cruz")],
        LubKind::SelectionFree,
    )
    .unwrap();
    let e = out.answer.foil_mge.as_ref().expect("foil-aligned MGE");
    let pool = inst.const_pool_with([s("Tokyo")]);
    for (c, (a, b)) in e.concepts.iter().zip(
        [s("Tokyo"), s("Santa Cruz")]
            .iter()
            .zip([s("San Francisco"), s("Santa Cruz")].iter()),
    ) {
        let ext = c.extension_in(&inst, &pool);
        assert!(ext.contains(a), "missing value admitted");
        assert!(ext.contains(b), "foil value admitted");
    }
}
