//! Answers that hold a constant outside the pool the searches intern.
//!
//! A query head constant outside `adom(I)` and outside the missing tuple
//! gets an overflow id in the answer rows, both over the one-shot pool
//! `adom(I) ∪ ā` and over a session's pool. A concept whose extension
//! holds it must still conflict with every answer it appears in. Each
//! finite-ontology search is checked one-shot against a value-space
//! reference, and a session must answer as the one-shot search does.

#[path = "support/card.rs"]
mod card;

use card::definition::explains;
use card::{extension_greedy, first_card_maximum};
use whynot_core::{
    card_maximal_exact, card_maximal_greedy, check_mge, exhaustive_search, find_explanation,
    retain_most_general, Explanation, ExplicitOntology, FiniteOntology, Ontology, WhyNotInstance,
    WhyNotQuestion, WhyNotSession,
};
use whynot_relation::{Atom, Cq, Instance, SchemaBuilder, Term, Ucq, Value, Var};

#[test]
fn head_constants_outside_the_pool_conflict_in_every_search() {
    // `adom(I) = {a, b, c}`; `g` is in no fact and `h` only in the head
    // of `q(x, h) ← R(x)` ∪ `q(x, y) ← T(x, y)`.
    let constants = ["a", "b", "c", "g", "h"];
    let o = ExplicitOntology::builder()
        .concept("All", constants)
        .concept("Ab", ["a", "b"])
        .concept("Ch", ["c", "h"])
        .concept("Gh", ["g", "h"])
        .concept("G", ["g"])
        .edge("Ab", "All")
        .edge("Ch", "All")
        .edge("Gh", "All")
        .edge("G", "Gh")
        .build();
    let mut b = SchemaBuilder::new();
    let (r, t) = (b.relation("R", ["x"]), b.relation("T", ["x", "y"]));
    let schema = b.finish().unwrap();
    let mut inst = Instance::new();
    inst.insert(r, vec![Value::str("a")]);
    inst.insert(r, vec![Value::str("b")]);
    inst.insert(t, vec![Value::str("a"), Value::str("c")]);
    let (x, y) = (Term::Var(Var(0)), Term::Var(Var(1)));
    let h = Term::Const(Value::str("h"));
    let query = Ucq::new([
        Cq::new([x.clone(), h], [Atom::new(r, [x.clone()])], []),
        Cq::new([x.clone(), y.clone()], [Atom::new(t, [x, y])], []),
    ]);
    let all = o.concepts();
    let pairs: Vec<Explanation<_>> = all
        .iter()
        .flat_map(|c| all.iter().map(|d| Explanation::new([c.clone(), d.clone()])))
        .collect();
    let session = WhyNotSession::new(&o, &schema, &inst);
    let mut explained = 0;
    for (a, b) in constants.iter().flat_map(|a| constants.map(|b| (*a, b))) {
        let tuple = vec![Value::str(a), Value::str(b)];
        let q = WhyNotQuestion::new(query.clone(), tuple.clone());
        let Ok(wn) = WhyNotInstance::new(schema.clone(), inst.clone(), query.clone(), tuple) else {
            continue; // an answer
        };
        let reference = |e: &Explanation<_>| {
            let exts: Vec<_> = e.concepts.iter().map(|c| o.extension(c, &inst)).collect();
            explains(&exts, &wn.ans, &wn.tuple)
        };
        let explaining = pairs.iter().filter(|e| reference(e)).cloned().collect();
        let mges = retain_most_general(&o, explaining);
        explained += usize::from(!mges.is_empty());
        let at = format!("({a}, {b})");
        assert_eq!(exhaustive_search(&o, &wn), mges, "{at}");
        assert_eq!(session.exhaustive(&q).unwrap(), mges, "{at}");
        let found = find_explanation(&o, &wn);
        assert_eq!(
            found.as_ref().is_some_and(reference),
            !mges.is_empty(),
            "{at}"
        );
        assert_eq!(session.find_explanation(&q).unwrap(), found, "{at}");
        for e in &pairs {
            assert_eq!(check_mge(&o, &wn, e), mges.contains(e), "{e:?} {at}");
            assert_eq!(session.check_mge(&q, e).unwrap(), mges.contains(e), "{at}");
        }
        let exact = first_card_maximum(&o, &wn).map(|(_, e)| e);
        assert_eq!(card_maximal_exact(&o, &wn), exact, "{at}");
        assert_eq!(session.card_maximal_exact(&q).unwrap(), exact, "{at}");
        let greedy = extension_greedy(&o, &wn);
        assert_eq!(card_maximal_greedy(&o, &wn), greedy, "{at}");
        assert_eq!(session.card_maximal_greedy(&q).unwrap(), greedy, "{at}");
    }
    assert!(explained > 0);
}
