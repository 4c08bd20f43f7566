//! Why-not questions over **ontology-level queries** — the paper's
//! concluding future-work scenario ("our framework … could, in principle,
//! be applied also to queries posed against the ontology in an OBDA
//! setting").
//!
//! The pipeline: a conjunctive query over the ontology vocabulary is
//! rewritten by PerfectRef over the TBox, unfolded through the GAV
//! mappings into a relational UCQ over the data schema, and evaluated
//! under certain-answer semantics. The resulting answer set feeds an
//! ordinary [`WhyNotInstance`], so every algorithm in this crate —
//! exhaustive, incremental, variations — applies unchanged, with the
//! OBDA-induced ontology as the natural concept vocabulary.
//!
//! [`obda_contrast`] asks the contrastive question over the same
//! rewriting: "why is `a` not a certain answer while `b` is?". The
//! rewritten query feeds the ordinary contrast machinery — lub-derived
//! difference separators and the foil-aligned MGE — while the induced
//! ontology `O_B` (Theorem 4.2) supplies named separators, so an answer
//! reads back in the vocabulary the question was asked in.

use crate::contrast::{contrast_instance, ontology_difference, ContrastAnswer, ContrastQuestion};
use crate::derived::ObdaOntology;
use crate::session::SessionError;
use crate::whynot::WhyNotInstance;
use whynot_concepts::LubKind;
use whynot_dllite::{BasicConcept, ObdaSpec, OntCq};
use whynot_relation::{Instance, RelError, Schema, Tuple, Ucq, Value};

/// Builds a why-not instance for an ontology-level query under
/// certain-answer semantics: `Ans` is the set of certain answers of `q`
/// over `inst` w.r.t. the OBDA specification, and the stored relational
/// query is the full rewriting (so re-evaluation on other instances stays
/// faithful to the semantics).
pub fn obda_why_not(
    spec: &ObdaSpec,
    schema: Schema,
    inst: Instance,
    q: &OntCq,
    tuple: Tuple,
) -> Result<WhyNotInstance, RelError> {
    let relational = spec.rewrite_to_relational(&schema, q)?;
    WhyNotInstance::new(schema, inst, relational, tuple)
}

/// A contrastive answer over an ontology-level query.
#[derive(Clone, Debug)]
pub struct ObdaContrast {
    /// The relational UCQ the ontology-level query rewrote/unfolded to;
    /// its evaluation is the certain answer set both tuples were judged
    /// against.
    pub rewritten: Ucq,
    /// The lub-derived halves: per-position difference separators and
    /// the foil-aligned MGE, over the data instance.
    pub answer: ContrastAnswer,
    /// Per position, the subsumption-maximal concepts of the induced
    /// ontology `O_B` whose certain extension contains the foil's value
    /// but not the missing one — the named difference.
    pub ontology_difference: Vec<Vec<BasicConcept>>,
}

/// Answers "why is `missing` not a certain answer of `q` while `foil`
/// is?" over an OBDA specification. Rewrites `q` to its relational
/// certain-answer UCQ, refuses inconsistent instances (every tuple is
/// vacuously certain there — no contrast exists), and runs both the
/// lub-level and ontology-level differences.
pub fn obda_contrast(
    spec: &ObdaSpec,
    schema: &Schema,
    inst: &Instance,
    q: &OntCq,
    missing: impl IntoIterator<Item = Value>,
    foil: impl IntoIterator<Item = Value>,
    kind: LubKind,
) -> Result<ObdaContrast, SessionError> {
    if !spec.is_consistent(inst) {
        return Err(SessionError::Invalid(RelError::Invalid(
            "inconsistent OBDA instance: every tuple is vacuously certain".into(),
        )));
    }
    let rewritten = spec.rewrite_to_relational(schema, q)?;
    let question = ContrastQuestion::new(rewritten.clone(), missing, foil);
    let answer = contrast_instance(schema, inst, &question, kind)?;
    let ontology = ObdaOntology::new(spec.clone());
    let named = ontology_difference(&ontology, inst, &question.missing, &question.foil);
    Ok(ObdaContrast {
        rewritten,
        answer,
        ontology_difference: named,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derived::ObdaOntology;
    use crate::exhaustive::{check_mge, exhaustive_search};
    use crate::whynot::{is_explanation, Explanation};
    use whynot_dllite::{AtomicRole, BasicConcept, OntAtom};
    use whynot_relation::{Term, Value, Var};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    #[test]
    fn why_not_over_the_connected_role() {
        // Ask at the ontology level: which pairs are *certainly*
        // connected? Why is ⟨Amsterdam, New York⟩ not among them?
        let sc = whynot_scenarios_shim::example_4_5_pieces();
        let (schema, spec, inst) = sc;
        let q = OntCq::new(
            [Term::Var(Var(0)), Term::Var(Var(1))],
            [OntAtom::Role(
                AtomicRole::new("connected"),
                Term::Var(Var(0)),
                Term::Var(Var(1)),
            )],
        );
        let wn = obda_why_not(&spec, schema, inst, &q, vec![s("Amsterdam"), s("New York")])
            .expect("Amsterdam–New York is not directly connected");
        // The certain answers are exactly the six mapped train pairs.
        assert_eq!(wn.ans.len(), 6);
        assert!(wn.ans.contains(&vec![s("Amsterdam"), s("Berlin")]));

        // Explain with the induced ontology: Europe never connects to
        // North America directly.
        let ontology = ObdaOntology::new(spec);
        let e = Explanation::new([
            BasicConcept::atomic("EU-City"),
            BasicConcept::atomic("N.A.-City"),
        ]);
        assert!(is_explanation(&ontology, &wn, &e));
        // But ⟨Dutch-City, EU-City⟩ is not one: ⟨Amsterdam, Berlin⟩ is a
        // certain answer with Berlin an EU-City.
        let bad = Explanation::new([
            BasicConcept::atomic("Dutch-City"),
            BasicConcept::atomic("EU-City"),
        ]);
        assert!(!is_explanation(&ontology, &wn, &bad));
        let mges = exhaustive_search(&ontology, &wn);
        assert!(mges.contains(&e), "{mges:?}");
        for e in &mges {
            assert!(check_mge(&ontology, &wn, e));
        }
    }

    #[test]
    fn why_not_certain_membership() {
        // Why is the *country* USA not certainly an EU-City? (Unary
        // ontology query; the certain answers are the three EU cities.)
        let (schema, spec, inst) = whynot_scenarios_shim::example_4_5_pieces();
        let q = OntCq::new(
            [Term::Var(Var(0))],
            [OntAtom::Concept(
                whynot_dllite::AtomicConcept::new("EU-City"),
                Term::Var(Var(0)),
            )],
        );
        let wn = obda_why_not(&spec, schema, inst, &q, vec![s("USA")]).unwrap();
        assert_eq!(wn.ans.len(), 3); // Amsterdam, Berlin, Rome
        let ontology = ObdaOntology::new(spec);
        // ⟨Country⟩ explains it: countries are never (certainly) EU
        // cities on this data.
        let e = Explanation::new([BasicConcept::atomic("Country")]);
        assert!(is_explanation(&ontology, &wn, &e));
        let mges = exhaustive_search(&ontology, &wn);
        assert!(!mges.is_empty());
        for e in &mges {
            assert!(check_mge(&ontology, &wn, e));
        }
        // Note: for a missing tuple like Tokyo there is NO explanation in
        // this vocabulary — every Tokyo-containing concept also contains
        // an EU city; the framework correctly reports emptiness.
        let (schema, spec, inst) = whynot_scenarios_shim::example_4_5_pieces();
        let wn = obda_why_not(&spec, schema, inst, &q, vec![s("Tokyo")]).unwrap();
        let ontology = ObdaOntology::new(spec);
        assert!(exhaustive_search(&ontology, &wn).is_empty());
    }

    /// Rebuild the Example 4.5 pieces without a circular dev-dependency on
    /// whynot-scenarios.
    mod whynot_scenarios_shim {
        use whynot_dllite::{body_atom, c, v, BasicConcept, GavMapping, ObdaSpec, TBox};
        use whynot_relation::{Instance, Schema, SchemaBuilder, Value, Var};

        pub fn example_4_5_pieces() -> (Schema, ObdaSpec, Instance) {
            let mut b = SchemaBuilder::new();
            let cities = b.relation("Cities", ["name", "population", "country", "continent"]);
            let tc = b.relation("Train-Connections", ["city_from", "city_to"]);
            let schema = b.finish().unwrap();
            let a = BasicConcept::atomic;
            let mut t = TBox::new();
            t.concept_incl(a("EU-City"), a("City"));
            t.concept_incl(a("Dutch-City"), a("EU-City"));
            t.concept_incl(a("N.A.-City"), a("City"));
            t.concept_disj(a("EU-City"), a("N.A.-City"));
            t.concept_incl(a("US-City"), a("N.A.-City"));
            t.concept_incl(a("City"), BasicConcept::exists("hasCountry"));
            t.concept_incl(BasicConcept::exists_inv("hasCountry"), a("Country"));
            t.concept_incl(BasicConcept::exists("connected"), a("City"));
            t.concept_incl(BasicConcept::exists_inv("connected"), a("City"));
            let mappings = vec![
                GavMapping::concept(
                    "EU-City",
                    Var(0),
                    [body_atom(cities, [v(0), v(1), v(2), c("Europe")])],
                ),
                GavMapping::concept(
                    "Dutch-City",
                    Var(0),
                    [body_atom(cities, [v(0), v(1), c("Netherlands"), v(3)])],
                ),
                GavMapping::concept(
                    "N.A.-City",
                    Var(0),
                    [body_atom(cities, [v(0), v(1), v(2), c("N.America")])],
                ),
                GavMapping::concept(
                    "US-City",
                    Var(0),
                    [body_atom(cities, [v(0), v(1), c("USA"), v(3)])],
                ),
                GavMapping::role(
                    "hasCountry",
                    Var(0),
                    Var(2),
                    [body_atom(cities, [v(0), v(1), v(2), v(3)])],
                ),
                GavMapping::role(
                    "connected",
                    Var(0),
                    Var(4),
                    [
                        body_atom(tc, [v(0), v(4)]),
                        body_atom(cities, [v(0), v(1), v(2), v(3)]),
                        body_atom(cities, [v(4), v(5), v(6), v(7)]),
                    ],
                ),
            ];
            let spec = ObdaSpec::new(t, mappings);
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
                    vec![
                        Value::str(name),
                        Value::int(pop),
                        Value::str(country),
                        Value::str(continent),
                    ],
                );
            }
            for (x, y) in [
                ("Amsterdam", "Berlin"),
                ("Berlin", "Rome"),
                ("Berlin", "Amsterdam"),
                ("New York", "San Francisco"),
                ("San Francisco", "Santa Cruz"),
                ("Tokyo", "Kyoto"),
            ] {
                inst.insert(tc, vec![Value::str(x), Value::str(y)]);
            }
            (schema, spec, inst)
        }
    }
}
