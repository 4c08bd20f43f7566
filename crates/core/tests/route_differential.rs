//! Every growth loop agrees with the references it is pinned to.
//!
//! The loops run on the pooled [`LubEngine`]'s states and decide every
//! probe by membership: a candidate is rejected at the first member of
//! the position's blocked set `B_j` its lub holds, read off the growth
//! data, and a kept state builds no extension. Selection-free states
//! decide it by column signature (Lemma 5.1): the grown covered-column
//! mask against the signatures of `B_j`'s members, and a per-position
//! memo skips every probe whose signature a rejected one contains.
//! Algorithm 2, CHECK-MGE (both lub kinds), the contrast searches and
//! the enumeration are run one-shot and through a session, and compared
//! with references that share none of that machinery: the literal
//! transcriptions of `support/literal.rs` (legacy from-scratch lubs,
//! value-space Definition 3.2), and the from-scratch contrast reference
//! `contrast_with` over the same engine's `try_lub`/`try_lub_sigma`.
//! They run on random 24-city networks, on random schemas of two to four
//! relations (whose constants have varied signatures), on a schema of
//! more than 64 columns (whose signatures span two words), and on a
//! fixture whose selection lubs keep two minimal boxes in one column
//! that disagree on a blocked value.

#[path = "support/literal.rs"]
mod literal;

use literal::{legacy_lub, literal_check_mge, literal_incremental};
use std::collections::BTreeSet;
use std::sync::Arc;
use whynot_concepts::{LsConcept, LubEngine};
use whynot_core::{
    check_mge_instance, contrast_instance, contrast_with, enumerate_mges_instance,
    incremental_search_balanced, incremental_search_kind, ContrastAnswer, ContrastQuestion,
    Explanation, ExplicitOntology, LubKind, WhyNotInstance, WhyNotQuestion, WhyNotSession,
};
use whynot_relation::{
    Atom, Cq, Instance, RelId, Schema, SchemaBuilder, Term, Tuple, Ucq, Value, Var,
};
use whynot_scenarios::generators::{city_name, city_network, city_query_shapes};

const KINDS: [LubKind; 2] = [LubKind::SelectionFree, LubKind::WithSelections];

/// Runs every growth loop on `wn` one-shot and through a session, and
/// asserts that they agree with each other, with the literal
/// transcriptions of `support/literal.rs` and [`literal_difference`],
/// and, for the contrast, with the from-scratch `contrast_with`. `foils`
/// are answers of `wn`'s query to contrast the missing tuple with, and
/// `kinds` the lub kinds to run. Every explanation the enumeration
/// returns must pass the literal CHECK-MGE.
fn assert_routes_agree(
    wn: &WhyNotInstance,
    ontology: &ExplicitOntology,
    foils: &[Tuple],
    kinds: &[LubKind],
) {
    let pool = wn.instance.const_pool_with(wn.tuple.iter().cloned());
    let engine = LubEngine::with_pool(&wn.schema, &wn.instance, Arc::clone(&pool));
    let session = WhyNotSession::new(ontology, &wn.schema, &wn.instance);
    let wq = WhyNotQuestion::new(wn.query.clone(), wn.tuple.clone());
    let mut checked: Vec<Explanation<LsConcept>> = vec![Explanation::new(
        wn.tuple.iter().cloned().map(LsConcept::nominal),
    )];
    for &kind in kinds {
        let fast = incremental_search_kind(wn, kind);
        assert_eq!(fast, session.incremental(&wq, kind).unwrap(), "{kind:?}");
        assert_eq!(fast, literal_incremental(wn, kind), "{kind:?} literal");
        assert!(literal_check_mge(wn, &fast, kind), "{kind:?} {fast:?}");
        checked.push(fast);
        checked.push(incremental_search_balanced(wn, kind));
        for e in enumerate_mges_instance(wn, kind, 2) {
            assert!(literal_check_mge(wn, &e, kind), "{kind:?} enumerated {e:?}");
        }
        for foil in foils {
            let cq = ContrastQuestion::new(wn.query.clone(), wn.tuple.clone(), foil.clone());
            let fast = contrast_instance(&wn.schema, &wn.instance, &cq, kind).unwrap();
            let reference = contrast_with(&engine, &wn.schema, &wn.instance, &pool, &cq, kind);
            assert_eq!(fast, reference.unwrap(), "{kind:?} contrast with {foil:?}");
            assert_eq!(
                fast,
                *session.contrast(&cq, kind).unwrap(),
                "{kind:?} session"
            );
            assert_literal_contrast(wn, foil, &fast, kind);
        }
    }
    for e in &checked {
        for &kind in kinds {
            let fast = check_mge_instance(wn, e, kind);
            assert_eq!(fast, session.check_mge_instance(&wq, e, kind).unwrap());
            assert_eq!(
                fast,
                literal_check_mge(wn, e, kind),
                "{kind:?} literal {e:?}"
            );
        }
    }
}

/// The contrast's difference separators equal the literal sweep's at
/// every position, and its foil-aligned MGE, when there is one, admits
/// the foil and is a most-general explanation of the residual question
/// `Ans \ {foil}` by the literal CHECK-MGE.
fn assert_literal_contrast(
    wn: &WhyNotInstance,
    foil: &Tuple,
    fast: &ContrastAnswer,
    kind: LubKind,
) {
    let k = wn.restriction_constants();
    for (i, (a, b)) in wn.tuple.iter().zip(foil).enumerate() {
        assert_eq!(
            fast.difference[i],
            literal_difference(&wn.schema, &wn.instance, kind, &k, a, b),
            "{kind:?} literal difference at {i} against {foil:?}"
        );
    }
    if let Some(e) = &fast.foil_mge {
        let mut residual = wn.ans.clone();
        residual.remove(foil);
        let residual = WhyNotInstance::with_answers(
            wn.schema.clone(),
            wn.instance.clone(),
            wn.query.clone(),
            residual,
            wn.tuple.clone(),
        )
        .unwrap();
        assert!(
            literal_check_mge(&residual, e, kind),
            "{kind:?} foil-aligned {e:?} against {foil:?}"
        );
        for (c, b) in e.concepts.iter().zip(foil) {
            assert!(c.extension(&wn.instance).contains(b), "{kind:?} {e:?}");
        }
    }
}

/// The contrast's difference separator at one position as a greedy
/// sweep: the support starts at `{foil_i}` (`None` when its lub already
/// holds `missing_i`), and every `c ∈ k` ascending other than
/// `missing_i` and outside the current lub joins it iff the lub of the
/// grown support still excludes `missing_i`.
fn literal_difference(
    schema: &Schema,
    inst: &Instance,
    kind: LubKind,
    k: &BTreeSet<Value>,
    missing_i: &Value,
    foil_i: &Value,
) -> Option<LsConcept> {
    let mut support: BTreeSet<Value> = [foil_i.clone()].into_iter().collect();
    let mut current = legacy_lub(schema, inst, kind, &support);
    if current.extension(inst).contains(missing_i) {
        return None;
    }
    for c in k {
        if c == missing_i || current.extension(inst).contains(c) {
            continue;
        }
        let mut grown = support.clone();
        grown.insert(c.clone());
        let candidate = legacy_lub(schema, inst, kind, &grown);
        if !candidate.extension(inst).contains(missing_i) {
            support = grown;
            current = candidate;
        }
    }
    Some(current)
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
fn growth_loops_match_the_references_on_city_networks() {
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
            assert_routes_agree(&wn, &net.ontology, &foils, &KINDS);
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
fn growth_loops_match_the_references_where_two_boxes_disagree_on_a_blocked_value() {
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
    assert_routes_agree(&q1, &ontology, &[vec![int(15)]], &KINDS);

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
    assert_routes_agree(&q2, &ontology, &[vec![int(10)], vec![int(20)]], &KINDS);
}

/// Up to two answers of `ans` to contrast a missing tuple with.
fn pick_foils(rng: &mut Rng, ans: &BTreeSet<Tuple>) -> Vec<Tuple> {
    (0..2.min(ans.len()))
        .map(|_| ans.iter().nth(rng.below(ans.len())).unwrap().clone())
        .collect()
}

/// A missing tuple of arity `m` outside `ans`: each constant from
/// `0..domain`, or one past the instance's constants (`100 + n`, a
/// constant outside `adom(I)`) one time in four.
fn pick_tuple(rng: &mut Rng, m: usize, domain: usize, ans: &BTreeSet<Tuple>) -> Option<Tuple> {
    (0..32)
        .map(|_| {
            (0..m)
                .map(|_| {
                    let n = rng.below(domain) as i64;
                    Value::int(if rng.below(4) == 0 { 100 + n } else { n })
                })
                .collect::<Tuple>()
        })
        .find(|t| !ans.contains(t))
}

/// One random schema of two to four relations with arities one to
/// three, each holding two to six rows over the constants `0..6`, so
/// that constants fall into a handful of signature classes, several
/// constants to a class.
fn random_schema(rng: &mut Rng) -> (Schema, Instance, Vec<RelId>) {
    let mut b = SchemaBuilder::new();
    let rels: Vec<RelId> = (0..2 + rng.below(3))
        .map(|r| {
            let arity = 1 + rng.below(3);
            b.relation(format!("R{r}"), ["a", "b", "c"].into_iter().take(arity))
        })
        .collect();
    let schema = b.finish().unwrap();
    let mut inst = Instance::new();
    for &rel in &rels {
        for _ in 0..2 + rng.below(5) {
            let row: Tuple = (0..schema.arity(rel))
                .map(|_| Value::int(rng.below(6) as i64))
                .collect();
            inst.insert(rel, row);
        }
    }
    (schema, inst, rels)
}

/// A query over `rels`: one atom whose first one or two variables are
/// the head, joined half the time with a second atom on its last
/// variable.
fn random_query(rng: &mut Rng, schema: &Schema, rels: &[RelId]) -> Ucq {
    let first = rels[rng.below(rels.len())];
    let vars: Vec<Term> = (0..schema.arity(first))
        .map(|v| Term::Var(Var(v as u32)))
        .collect();
    let head: Vec<Term> = vars[..vars.len().min(1 + rng.below(2))].to_vec();
    let mut atoms = vec![Atom::new(first, vars.clone())];
    if rng.below(2) == 0 {
        let second = rels[rng.below(rels.len())];
        let join = vars[vars.len() - 1].clone();
        let rest = (1..schema.arity(second)).map(|v| Term::Var(Var(10 + v as u32)));
        atoms.push(Atom::new(second, std::iter::once(join).chain(rest)));
    }
    Ucq::single(Cq::new(head, atoms, []))
}

#[test]
fn growth_loops_match_the_references_on_random_schemas() {
    let ontology = ExplicitOntology::builder().build();
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    let mut cases = 0;
    while cases < 48 {
        let (schema, inst, rels) = random_schema(&mut rng);
        let query = random_query(&mut rng, &schema, &rels);
        let ans = query.eval(&inst);
        let Some(tuple) = pick_tuple(&mut rng, query.arity(), 6, &ans) else {
            continue;
        };
        let foils = pick_foils(&mut rng, &ans);
        let wn = WhyNotInstance::new(schema, inst, query, tuple).unwrap();
        assert_routes_agree(&wn, &ontology, &foils, &KINDS);
        cases += 1;
    }
}

/// `Wide` has 70 columns, so column signatures and covered masks take
/// two words; the constants are `0..5`, and `v` sits in column `i` of
/// row `r` iff `(i + r) % 5 == v` or (in the last row) at a few
/// scattered columns, so the signatures differ in both words.
/// `E(x, y)` is the relation the questions query. Only selection-free
/// lubs are run: signatures are a Lemma 5.1 matter, and the legacy lubσ
/// over 70-ary rows would make the literal references slow.
#[test]
fn growth_loops_match_the_references_beyond_64_columns() {
    let mut b = SchemaBuilder::new();
    let names: Vec<String> = (0..70).map(|i| format!("a{i}")).collect();
    let wide = b.relation("Wide", names.iter().map(String::as_str));
    let e = b.relation("E", ["x", "y"]);
    let schema = b.finish().unwrap();
    let mut inst = Instance::new();
    for r in 0..3 {
        let row: Tuple = (0..70).map(|i| Value::int((i + r) % 5)).collect();
        inst.insert(wide, row);
    }
    let row: Tuple = (0..70)
        .map(|i| Value::int(if i % 17 == 3 { 5 } else { 0 }))
        .collect();
    inst.insert(wide, row);
    for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 5), (5, 0)] {
        inst.insert(e, vec![Value::int(x), Value::int(y)]);
    }
    let ontology = ExplicitOntology::builder().build();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for head in [1, 2] {
        let vars = [Term::Var(Var(0)), Term::Var(Var(1))];
        let query = Ucq::single(Cq::new(
            vars[..head].to_vec(),
            [Atom::new(e, vars.clone())],
            [],
        ));
        let ans = query.eval(&inst);
        for _ in 0..4 {
            let Some(tuple) = pick_tuple(&mut rng, head, 6, &ans) else {
                continue;
            };
            let foils = pick_foils(&mut rng, &ans);
            let wn =
                WhyNotInstance::new(schema.clone(), inst.clone(), query.clone(), tuple).unwrap();
            assert_routes_agree(&wn, &ontology, &foils, &[LubKind::SelectionFree]);
        }
    }
}
