//! The two probe routes of the growth loops give the same answers.
//!
//! States of the pooled [`LubEngine`] decide every probe by membership:
//! a candidate is rejected at the first member of the position's blocked
//! set `B_j` its lub holds, read off the growth data, and a kept state
//! builds no extension. States of a provider with only the three
//! required [`LubProvider`] methods carry no growth data, so every probe
//! evaluates the candidate's extension. Algorithm 2, CHECK-MGE (both lub
//! kinds), the contrast searches and the enumeration are run both ways,
//! and through a session, on random 24-city networks and on a fixture
//! whose selection lubs keep two minimal boxes in one column that
//! disagree on a blocked value.

use std::collections::BTreeSet;
use std::sync::Arc;
use whynot_concepts::{LsConcept, LubEngine, LubProvider};
use whynot_core::{
    check_mge_instance, check_mge_instance_with, contrast_instance, contrast_with,
    enumerate_mges_instance, enumerate_mges_with, incremental_search_balanced,
    incremental_search_kind, incremental_search_with, ContrastQuestion, Explanation,
    ExplicitOntology, LubKind, WhyNotInstance, WhyNotQuestion, WhyNotSession,
};
use whynot_relation::{Atom, ConstPool, Cq, Instance, SchemaBuilder, Term, Tuple, Ucq, Value, Var};
use whynot_scenarios::generators::{city_name, city_network, city_query_shapes};

/// A provider with only the three required methods: every growth step
/// goes through the recomputing default bodies, so every probe is decided
/// from an evaluated extension.
struct Recomputing<'e>(&'e LubEngine<'e>);

impl LubProvider for Recomputing<'_> {
    fn pool(&self) -> &Arc<ConstPool> {
        self.0.pool()
    }
    fn try_lub(&self, x: &BTreeSet<Value>) -> Option<LsConcept> {
        self.0.try_lub(x)
    }
    fn try_lub_sigma(&self, x: &BTreeSet<Value>) -> Option<LsConcept> {
        self.0.try_lub_sigma(x)
    }
}

const KINDS: [LubKind; 2] = [LubKind::SelectionFree, LubKind::WithSelections];

/// Runs every growth loop on `wn` through the membership route (one-shot
/// pooled engine and session) and the extension route, and asserts the
/// answers are equal. `foils` are answers of `wn`'s query to contrast
/// the missing tuple with.
fn assert_routes_agree(wn: &WhyNotInstance, ontology: &ExplicitOntology, foils: &[Tuple]) {
    let pool = wn.instance.const_pool_with(wn.tuple.iter().cloned());
    let engine = LubEngine::with_pool(&wn.schema, &wn.instance, Arc::clone(&pool));
    let slow = Recomputing(&engine);
    let session = WhyNotSession::new(ontology, &wn.schema, &wn.instance);
    let wq = WhyNotQuestion::new(wn.query.clone(), wn.tuple.clone());
    let mut checked: Vec<Explanation<LsConcept>> = vec![Explanation::new(
        wn.tuple.iter().cloned().map(LsConcept::nominal),
    )];
    for kind in KINDS {
        let fast = incremental_search_kind(wn, kind);
        assert_eq!(fast, incremental_search_with(&slow, wn, kind), "{kind:?}");
        assert_eq!(fast, session.incremental(&wq, kind).unwrap(), "{kind:?}");
        checked.push(fast);
        checked.push(incremental_search_balanced(wn, kind));
        assert_eq!(
            enumerate_mges_instance(wn, kind, 2),
            enumerate_mges_with(&slow, wn, kind, 2),
            "{kind:?} enumeration"
        );
        for foil in foils {
            let cq = ContrastQuestion::new(wn.query.clone(), wn.tuple.clone(), foil.clone());
            let fast = contrast_instance(&wn.schema, &wn.instance, &cq, kind).unwrap();
            let via_slow = contrast_with(&slow, &wn.schema, &wn.instance, &pool, &cq, kind);
            assert_eq!(fast, via_slow.unwrap(), "{kind:?} contrast with {foil:?}");
            assert_eq!(
                fast,
                *session.contrast(&cq, kind).unwrap(),
                "{kind:?} session"
            );
        }
    }
    for e in &checked {
        for kind in KINDS {
            let fast = check_mge_instance(wn, e, kind);
            assert_eq!(
                fast,
                check_mge_instance_with(&slow, wn, e, kind),
                "{kind:?} {e:?}"
            );
            assert_eq!(fast, session.check_mge_instance(&wq, e, kind).unwrap());
        }
    }
}

/// A small deterministic generator (xorshift64*) for picking tuples.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }
}

#[test]
fn membership_and_extension_routes_agree_on_city_networks() {
    for seed in 0..6u64 {
        let net = city_network(24, 4, seed);
        let (schema, instance) = (&net.why_not.schema, &net.why_not.instance);
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ seed);
        for query in city_query_shapes(net.tc) {
            let ans = query.eval(instance);
            // A missing tuple of cities (one may lie outside the network),
            // and up to two foils from the answers.
            let Some(tuple) = (0..64)
                .map(|_| {
                    (0..query.arity())
                        .map(|_| Value::str(city_name(rng.below(26))))
                        .collect::<Tuple>()
                })
                .find(|t| !ans.contains(t))
            else {
                continue;
            };
            let foils: Vec<Tuple> = (0..2.min(ans.len()))
                .map(|_| ans.iter().nth(rng.below(ans.len())).unwrap().clone())
                .collect();
            let wn = WhyNotInstance::new(schema.clone(), instance.clone(), query, tuple).unwrap();
            assert_routes_agree(&wn, &net.ontology, &foils);
        }
    }
}

/// `R(x, y)` holds `(10,100), (10,300), (20,200), (15,150)`. The
/// selection lub of `{10, 20}` keeps two minimal boxes in column `R.x`,
/// `[10,20]×[100,200]` and `[10,20]×[200,300]`; the row `(15, 150)` lies
/// inside the first only, so `15` is outside the lub's extension while a
/// witness of it lies inside one of its boxes. `V` and `U` pick which
/// `x` answer: `q₁(x) ← R(x, y), V(y)` answers `{15}`, so `15` is the
/// blocked value when explaining why `10` is missing; `q₂(x) ← R(x, y),
/// U(y)` answers `{10, 20}`, so contrasting the missing `15` with them
/// asks whether the grown separator captures `15`.
#[test]
fn routes_agree_where_two_boxes_disagree_on_a_blocked_value() {
    let mut b = SchemaBuilder::new();
    let r = b.relation("R", ["x", "y"]);
    let v = b.relation("V", ["y"]);
    let u = b.relation("U", ["y"]);
    let schema = b.finish().unwrap();
    let int = Value::int;
    let mut inst = Instance::new();
    for (x, y) in [(10, 100), (10, 300), (20, 200), (15, 150)] {
        inst.insert(r, vec![int(x), int(y)]);
    }
    inst.insert(v, vec![int(150)]);
    for y in [100, 200, 300] {
        inst.insert(u, vec![int(y)]);
    }
    let (x, y) = (Var(0), Var(1));
    let query = |filter| {
        Ucq::single(Cq::new(
            [Term::Var(x)],
            [
                Atom::new(r, [Term::Var(x), Term::Var(y)]),
                Atom::new(filter, [Term::Var(y)]),
            ],
            [],
        ))
    };
    let ontology = ExplicitOntology::builder().build();

    let q1 = WhyNotInstance::new(schema.clone(), inst.clone(), query(v), vec![int(10)]).unwrap();
    // The selection search keeps lubσ({10, 20}): 15 is in one box only.
    let e = incremental_search_kind(&q1, LubKind::WithSelections);
    let ext = e.concepts[0].extension(&inst);
    assert!(ext.contains(&int(20)) && !ext.contains(&int(15)), "{e:?}");
    assert_routes_agree(&q1, &ontology, &[vec![int(15)]]);

    let q2 = WhyNotInstance::new(schema, inst.clone(), query(u), vec![int(15)]).unwrap();
    // The separator of 10 from the missing 15 grows to lubσ({10, 20}).
    let cq = ContrastQuestion::new(q2.query.clone(), [int(15)], [int(10)]);
    let answer = contrast_instance(&q2.schema, &inst, &cq, LubKind::WithSelections).unwrap();
    let separator = answer.difference[0]
        .as_ref()
        .expect("10 and 15 are separable");
    assert!(
        separator.extension(&inst).contains(&int(20)),
        "{separator:?}"
    );
    assert_routes_agree(&q2, &ontology, &[vec![int(10)], vec![int(20)]]);
}
