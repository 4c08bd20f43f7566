//! Cross-crate API tests: the concept parser against paper schemas, the
//! MGE enumeration extension, OS-side materialized computation, and the
//! §6 pipeline on the running example.

use whynot::concepts::{parse_concept, LsConcept};
use whynot::core::{
    all_mges_schema, check_mge_instance, degree_of_generality, enumerate_mges_instance,
    incremental_search_balanced, is_explanation, minimized_explanation, Explanation,
    InstanceOntology, LubKind, SchemaFragment,
};
use whynot::scenarios::paper;

/// The parser accepts the paper's typeset notation for every Figure 5
/// concept, producing exactly the programmatic constructions.
#[test]
fn parser_covers_figure_5() {
    let (schema, rels, _) = paper::figure_2_instance();
    let f5 = paper::figure_5_concepts(&rels);
    for (src, expect) in [
        ("π_name(Cities)", &f5.city),
        ("π_name(σ_{continent=Europe}(Cities))", &f5.european_city),
        ("π_name(σ_{continent=N.America}(Cities))", &f5.na_city),
        ("π_name(σ_{population>1000000}(Cities))", &f5.large_city),
        ("π_1(BigCity)", &f5.big_city),
        ("{Santa Cruz}", &f5.santa_cruz),
    ] {
        let parsed = parse_concept(&schema, src).unwrap_or_else(|e| panic!("{src}: {e}"));
        assert_eq!(&parsed, expect, "{src}");
    }
    // The conjunction at the bottom of Figure 5.
    let parsed = parse_concept(
        &schema,
        "π_name(σ_{population<1000000}(Cities)) ⊓ π_city_to(σ_{city_from=Amsterdam}(Reachable))",
    )
    .unwrap();
    assert_eq!(parsed, f5.small_reachable_from_amsterdam);
}

/// Display → parse round-trip over every Figure 5 concept.
#[test]
fn display_parse_round_trip() {
    let (schema, rels, _) = paper::figure_2_instance();
    let f5 = paper::figure_5_concepts(&rels);
    for concept in [
        &f5.city,
        &f5.european_city,
        &f5.na_city,
        &f5.large_city,
        &f5.big_city,
        &f5.santa_cruz,
        &f5.small_reachable_from_amsterdam,
    ] {
        let rendered = concept.display(&schema).to_string();
        let reparsed =
            parse_concept(&schema, &rendered).unwrap_or_else(|e| panic!("{rendered}: {e}"));
        assert_eq!(&reparsed, concept, "{rendered}");
    }
}

/// The enumeration extension returns verified MGEs on the running
/// example. In selection-free `LS` the scenario has exactly one
/// reachable MGE extension pair — ⟨⊤, {New York}⟩: no plain column
/// combination expresses "US cities", so position 1 cannot grow and
/// position 0 is then free to absorb everything. With selections the
/// bounding boxes unlock more distinct maximal tuples.
#[test]
fn enumeration_on_the_paper_scenario() {
    let sc = paper::example_4_9();
    let wn = &sc.why_not;
    let plain = enumerate_mges_instance(wn, LubKind::SelectionFree, 6);
    assert_eq!(plain.len(), 1, "{plain:?}");
    for e in &plain {
        assert!(check_mge_instance(wn, e, LubKind::SelectionFree));
    }
    let with_sel = enumerate_mges_instance(wn, LubKind::WithSelections, 4);
    assert!(with_sel.len() >= 2, "got {}", with_sel.len());
    for e in &with_sel {
        assert!(check_mge_instance(wn, e, LubKind::WithSelections));
    }
    let balanced = incremental_search_balanced(wn, LubKind::SelectionFree);
    assert!(check_mge_instance(wn, &balanced, LubKind::SelectionFree));
}

/// OS-side computation over the data-only schema: the materialized
/// min-fragment returns most-general explanations containing the
/// schema-level concepts.
#[test]
fn schema_mges_on_data_schema() {
    // Use the constraint-free data schema: ⊑S is then plain
    // canonical-database containment, decidable everywhere.
    let sc = paper::example_3_4();
    let wn = &sc.why_not;
    let mges = all_mges_schema(wn, SchemaFragment::Min);
    assert!(!mges.is_empty());
    let os = whynot::core::SchemaOntology::new(wn.schema.clone());
    for e in &mges {
        assert!(is_explanation(&os, wn, e));
    }
}

/// §6 pipeline: minimization keeps explanation-hood and never grows
/// symbol size.
#[test]
fn minimization_pipeline() {
    let sc = paper::example_4_9();
    let wn = &sc.why_not;
    let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
    let raw = whynot::core::incremental_search(wn);
    let min = minimized_explanation(wn, &raw, LubKind::SelectionFree, 3);
    assert!(is_explanation(&oi, wn, &min));
    let raw_size: usize = raw.concepts.iter().map(LsConcept::size).sum();
    let min_size: usize = min.concepts.iter().map(LsConcept::size).sum();
    assert!(min_size <= raw_size);
    // Componentwise equivalence is preserved.
    for (a, b) in raw.concepts.iter().zip(&min.concepts) {
        assert!(a.equivalent_in(b, &wn.instance));
    }
}

/// Degree of generality behaves sanely on the Figure 3 scenario: the MGE
/// dominates the trivial nominal-style explanation.
#[test]
fn degrees_of_generality_order() {
    let sc = paper::example_3_4();
    let o = &sc.ontology;
    let wn = &sc.why_not;
    let e4 = Explanation::new([
        o.concept_expect("European-City"),
        o.concept_expect("US-City"),
    ]);
    let e1 = Explanation::new([
        o.concept_expect("Dutch-City"),
        o.concept_expect("East-Coast-City"),
    ]);
    let d4 = degree_of_generality(o, wn, &e4).unwrap();
    let d1 = degree_of_generality(o, wn, &e1).unwrap();
    assert_eq!(d4, 6); // 3 + 3
    assert_eq!(d1, 2); // 1 + 1
    assert!(d4 > d1);
}

/// Answer types are `Send + Sync`, so a caller can hand session results
/// to its own threads: answer sets come back behind `Arc` (not `Rc`), and
/// extensions and the extension table are plain data.
#[test]
fn answer_types_are_thread_safe() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<whynot::concepts::ExtensionTable>();
    assert_send_sync::<whynot::concepts::Extension>();
    assert_send_sync::<whynot::core::ContrastAnswer>();
    assert_send_sync::<std::sync::Arc<std::collections::BTreeSet<whynot::relation::Tuple>>>();

    let sc = paper::example_3_4();
    let session =
        whynot::core::WhyNotSession::new(&sc.ontology, &sc.why_not.schema, &sc.why_not.instance);
    // `answers` hands out an `Arc` — the compile-time witness that answer
    // sets can leave the session's thread.
    let ans: std::sync::Arc<std::collections::BTreeSet<whynot::relation::Tuple>> =
        session.answers(&sc.why_not.query);
    assert!(!ans.contains(&sc.why_not.tuple));
}
