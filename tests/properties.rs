//! Property-based tests of the core invariants, with `proptest`.
//!
//! Strategy: generate small random schemas/instances/concepts and check
//! the paper's definitional invariants — lub minimality (Lemmas 5.1/5.2),
//! soundness of the `⊑S` deciders against brute-force `⊑I` sampling,
//! correctness of Algorithm 2's output (Theorems 5.3/5.4), the interval
//! algebra, and the backtracking evaluator against a naive one.

#[path = "../crates/core/tests/support/literal.rs"]
mod literal;

use literal::definition::explains;
use literal::{literal_check_mge, literal_incremental};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use whynot::concepts::{
    lub, lub_sigma, simplify, Extension, LsConcept, LubEngine, LubProvider, LubState, Selection,
};
use whynot::core::{
    check_mge_instance, exhaustive_search, exts_form_explanation, incremental_search,
    incremental_search_kind, incremental_search_with_selections, retain_most_general, AnswerIds,
    BlockedSet, Explanation, ExplicitOntology, FiniteOntology, LubKind, WhyNotInstance,
    WhyNotQuestion, WhyNotSession,
};
use whynot::relation::{
    Atom, CmpOp, ConstPool, Cq, Instance, Interval, RelId, Schema, SchemaBuilder, Term, Tuple, Ucq,
    Value, Var,
};
use whynot::subsumption::{subsumed_under_fds, SubsumptionOutcome};

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A fixed two-relation schema: R(a, b, c) and T(u, v).
fn fixed_schema() -> (Schema, RelId, RelId) {
    let mut b = SchemaBuilder::new();
    let r = b.relation("R", ["a", "b", "c"]);
    let t = b.relation("T", ["u", "v"]);
    (b.finish().unwrap(), r, t)
}

prop_compose! {
    fn small_value()(n in 0i64..12) -> Value { Value::int(n) }
}

prop_compose! {
    fn small_instance()(
        r_rows in proptest::collection::vec((0i64..12, 0i64..12, 0i64..12), 0..12),
        t_rows in proptest::collection::vec((0i64..12, 0i64..12), 0..8),
    ) -> Instance {
        let (_, r, t) = fixed_schema();
        let mut inst = Instance::new();
        for (a, b, c) in r_rows {
            inst.insert(r, vec![Value::int(a), Value::int(b), Value::int(c)]);
        }
        for (u, v) in t_rows {
            inst.insert(t, vec![Value::int(u), Value::int(v)]);
        }
        inst
    }
}

prop_compose! {
    /// A small instance over the fixed schema whose relation `T` may be
    /// left without a single row.
    fn instance_maybe_empty_t()(
        r_rows in proptest::collection::vec((0i64..12, 0i64..12, 0i64..12), 0..12),
        t_rows in proptest::collection::vec((0i64..12, 0i64..12), 0..8),
        empty_t in any::<bool>(),
    ) -> Instance {
        let (_, r, t) = fixed_schema();
        let mut inst = Instance::new();
        for (a, b, c) in r_rows {
            inst.insert(r, vec![Value::int(a), Value::int(b), Value::int(c)]);
        }
        if !empty_t {
            for (u, v) in t_rows {
                inst.insert(t, vec![Value::int(u), Value::int(v)]);
            }
        }
        inst
    }
}

fn small_concept() -> impl Strategy<Value = LsConcept> {
    let (_, r, t) = fixed_schema();
    let atom = prop_oneof![
        (0usize..3).prop_map(move |a| LsConcept::proj(r, a)),
        (0usize..2).prop_map(move |a| LsConcept::proj(t, a)),
        (0i64..12).prop_map(|n| LsConcept::nominal(Value::int(n))),
        ((0usize..3), (0usize..3), any::<bool>(), 0i64..12).prop_map(move |(pa, sa, ge, c)| {
            let op = if ge { CmpOp::Ge } else { CmpOp::Le };
            LsConcept::proj_sel(r, pa, Selection::new([(sa, op, Value::int(c))]))
        }),
    ];
    proptest::collection::vec(atom, 0..3).prop_map(LsConcept::conj)
}

// ---------------------------------------------------------------------
// Interval algebra
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn interval_intersection_is_membership_conjunction(
        op1 in 0usize..5, c1 in -5i64..15,
        op2 in 0usize..5, c2 in -5i64..15,
        probe in -6i64..16,
    ) {
        let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let i1 = Interval::from_comparison(ops[op1], Value::int(c1));
        let i2 = Interval::from_comparison(ops[op2], Value::int(c2));
        let both = i1.intersect(&i2);
        let v = Value::int(probe);
        prop_assert_eq!(both.contains(&v), i1.contains(&v) && i2.contains(&v));
    }

    #[test]
    fn interval_sample_lands_inside(
        op1 in 0usize..5, c1 in -5i64..15,
        op2 in 0usize..5, c2 in -5i64..15,
    ) {
        let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let both = Interval::from_comparison(ops[op1], Value::int(c1))
            .intersect(&Interval::from_comparison(ops[op2], Value::int(c2)));
        match both.sample() {
            Some(v) => prop_assert!(both.contains(&v)),
            None => prop_assert!(both.is_empty()),
        }
    }

    #[test]
    fn interval_subset_respects_membership(
        op1 in 0usize..5, c1 in -5i64..15,
        op2 in 0usize..5, c2 in -5i64..15,
        probe in -6i64..16,
    ) {
        let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let i1 = Interval::from_comparison(ops[op1], Value::int(c1));
        let i2 = Interval::from_comparison(ops[op2], Value::int(c2));
        if i1.subset_of(&i2) {
            let v = Value::int(probe);
            prop_assert!(!i1.contains(&v) || i2.contains(&v));
        }
    }
}

// ---------------------------------------------------------------------
// Query evaluation vs naive enumeration
// ---------------------------------------------------------------------

/// Naive evaluator: enumerate every assignment of the query's variables
/// over the active domain.
fn naive_eval(q: &Cq, inst: &Instance) -> BTreeSet<Tuple> {
    let vars: Vec<Var> = q.vars().into_iter().collect();
    let adom: Vec<Value> = inst.active_domain().into_iter().collect();
    let mut out = BTreeSet::new();
    if vars.is_empty() || adom.is_empty() {
        return out;
    }
    let mut idx = vec![0usize; vars.len()];
    'outer: loop {
        let assignment: std::collections::BTreeMap<Var, Value> = vars
            .iter()
            .zip(&idx)
            .map(|(v, &i)| (*v, adom[i].clone()))
            .collect();
        let holds = q.atoms.iter().all(|atom| {
            let tuple: Vec<Value> = atom
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => assignment[v].clone(),
                })
                .collect();
            inst.contains(atom.rel, &tuple)
        }) && q
            .comparisons
            .iter()
            .all(|c| c.op.holds(&assignment[&c.var], &c.value));
        if holds {
            let head: Vec<Value> = q
                .head
                .iter()
                .map(|t| match t {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => assignment[v].clone(),
                })
                .collect();
            out.insert(head);
        }
        for digit in idx.iter_mut() {
            *digit += 1;
            if *digit < adom.len() {
                continue 'outer;
            }
            *digit = 0;
        }
        break;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn backtracking_matches_naive_evaluation(
        inst in small_instance(),
        cmp_c in 0i64..12,
        use_cmp in any::<bool>(),
    ) {
        let (_, r, t) = fixed_schema();
        // q(x, y) ← R(x, z, y) ∧ T(y, w) [∧ z ≥ c]
        let (x, y, z, w) = (Var(0), Var(1), Var(2), Var(3));
        let comparisons = if use_cmp {
            vec![whynot::relation::Comparison::new(z, CmpOp::Ge, Value::int(cmp_c))]
        } else {
            vec![]
        };
        let q = Cq::new(
            [Term::Var(x), Term::Var(y)],
            [
                Atom::new(r, [Term::Var(x), Term::Var(z), Term::Var(y)]),
                Atom::new(t, [Term::Var(y), Term::Var(w)]),
            ],
            comparisons,
        );
        prop_assert_eq!(q.eval(&inst), naive_eval(&q, &inst));
    }
}

// ---------------------------------------------------------------------
// Concept extensions, lubs and simplification
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn lub_contains_support_and_is_minimal(
        inst in small_instance(),
        support_raw in proptest::collection::btree_set(0i64..12, 1..4),
    ) {
        let (schema, r, t) = fixed_schema();
        let support: BTreeSet<Value> = support_raw.into_iter().map(Value::int).collect();
        let c = lub(&schema, &inst, &support);
        let ext = c.extension(&inst);
        // Lemma 5.1(1): support containment.
        prop_assert!(ext.contains_all(support.iter()));
        // Lemma 5.1(2): minimality against every selection-free atom.
        for (rel, arity) in [(r, 3usize), (t, 2usize)] {
            for attr in 0..arity {
                let atom = LsConcept::proj(rel, attr);
                let aext = atom.extension(&inst);
                if aext.contains_all(support.iter()) {
                    prop_assert!(ext.subset_of(&aext));
                }
            }
        }
    }

    #[test]
    fn lub_sigma_refines_lub_and_contains_support(
        inst in small_instance(),
        support_raw in proptest::collection::btree_set(0i64..12, 1..3),
    ) {
        let (schema, ..) = fixed_schema();
        let support: BTreeSet<Value> = support_raw.into_iter().map(Value::int).collect();
        let coarse = lub(&schema, &inst, &support).extension(&inst);
        let fine = lub_sigma(&schema, &inst, &support).extension(&inst);
        prop_assert!(fine.contains_all(support.iter()));
        prop_assert!(fine.subset_of(&coarse));
    }

    #[test]
    fn pooled_lub_engine_is_observationally_equivalent_to_legacy(
        inst in small_instance(),
        supports in proptest::collection::vec(
            proptest::collection::btree_set(-2i64..14, 1..4), 1..6),
    ) {
        // The pooled engine must agree with the legacy BTreeSet walk on
        // every support set — including constants outside the active
        // domain (the -2..0 and 12..14 slices never occur in the
        // instance) — while interning each (rel, attr) column at most
        // once for the whole batch.
        let (schema, r, t) = fixed_schema();
        let engine = whynot::concepts::LubEngine::new(&schema, &inst);
        for raw in &supports {
            let support: BTreeSet<Value> = raw.iter().map(|&n| Value::int(n)).collect();
            prop_assert_eq!(
                engine.lub(&support),
                lub(&schema, &inst, &support),
                "lub disagrees on {:?}", &support
            );
            prop_assert_eq!(
                engine.lub_sigma(&support),
                lub_sigma(&schema, &inst, &support),
                "lubσ disagrees on {:?}", &support
            );
        }
        let _ = (r, t);
        prop_assert!(engine.column_builds() <= 5, "R has 3 columns, T has 2");
    }

    #[test]
    fn pooled_lub_engine_matches_legacy_on_city_workloads(
        seed in 0u64..32,
        picks in proptest::collection::vec(
            proptest::collection::btree_set(0usize..24, 1..4), 1..4),
    ) {
        // Same equivalence over the bench generators' city networks: the
        // supports are real city names (plus one ghost mixed in), the
        // instance is the scaled train-connection graph.
        let net = whynot::scenarios::generators::city_network(24, 4, seed);
        let wn = &net.why_not;
        let engine = whynot::concepts::LubEngine::new(&wn.schema, &wn.instance);
        for (i, pick) in picks.iter().enumerate() {
            let mut support: BTreeSet<Value> = pick
                .iter()
                .map(|&c| Value::str(whynot::scenarios::generators::city_name(c)))
                .collect();
            if i == 0 {
                support.insert(Value::str("ghost-city"));
            }
            prop_assert_eq!(
                engine.lub(&support),
                lub(&wn.schema, &wn.instance, &support)
            );
            prop_assert_eq!(
                engine.lub_sigma(&support),
                lub_sigma(&wn.schema, &wn.instance, &support)
            );
        }
        // Train-Connections has two columns; nothing is ever rebuilt.
        prop_assert!(engine.column_builds() <= 2);
    }

    #[test]
    fn simplify_preserves_extension(
        inst in small_instance(),
        concept in small_concept(),
    ) {
        let lean = simplify(&concept, &inst);
        prop_assert!(lean.equivalent_in(&concept, &inst));
        prop_assert!(lean.size() <= concept.size());
        // Irredundancy: no conjunct of the result can be dropped.
        if lean.num_parts() > 1 {
            for atom in lean.parts() {
                let smaller = lean.without(atom);
                prop_assert!(!smaller.equivalent_in(&lean, &inst));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Lub growth (Lemmas 5.1/5.2 one constant at a time) ≡ legacy lubs
// ---------------------------------------------------------------------

/// Folds lub growth over `order` on `p` for both lub kinds and checks,
/// after every prefix, that the grown state equals the legacy free
/// function on the prefix's support. `order` may repeat constants, so
/// some steps grow by a member of the support.
fn assert_growth_matches_legacy<P: LubProvider>(
    p: &P,
    schema: &Schema,
    inst: &Instance,
    order: &[Value],
) {
    for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
        let mut state = p.start(kind, &order[0]);
        let mut prefix: BTreeSet<Value> = BTreeSet::new();
        for (i, v) in order.iter().enumerate() {
            if i > 0 {
                state = p.grow(&state, v);
            }
            prefix.insert(v.clone());
            let legacy = match kind {
                LubKind::SelectionFree => lub(schema, inst, &prefix),
                LubKind::WithSelections => lub_sigma(schema, inst, &prefix),
            };
            assert_eq!(state.concept(), &legacy, "{kind:?} grown to {prefix:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn lub_growth_matches_legacy_on_every_prefix(
        inst in instance_maybe_empty_t(),
        order in proptest::collection::vec(-2i64..16, 1..7),
    ) {
        // Constants 0..12 may occur in the instance; 12..14 are pooled
        // but occur in no column; -2..0 and 14..16 are not pooled at
        // all. The relation T may be without a single row.
        let (schema, ..) = fixed_schema();
        let pool = inst.const_pool_with([Value::int(12), Value::int(13)]);
        let engine = LubEngine::with_pool(&schema, &inst, pool);
        let order: Vec<Value> = order.into_iter().map(Value::int).collect();
        assert_growth_matches_legacy(&engine, &schema, &inst, &order);
    }

    #[test]
    fn lub_growth_matches_legacy_on_city_workloads(
        seed in 0u64..32,
        picks in proptest::collection::vec(0usize..26, 1..6),
    ) {
        // The city generator of the pooled-engine test above; picks 24
        // and 25 name cities outside the 24-city network.
        let net = whynot::scenarios::generators::city_network(24, 4, seed);
        let wn = &net.why_not;
        let engine = LubEngine::new(&wn.schema, &wn.instance);
        let order: Vec<Value> = picks
            .iter()
            .map(|&c| Value::str(whynot::scenarios::generators::city_name(c)))
            .collect();
        assert_growth_matches_legacy(&engine, &wn.schema, &wn.instance, &order);
    }
}

// ---------------------------------------------------------------------
// Id-space fast paths ≡ value-space evaluation
// ---------------------------------------------------------------------

/// Folds lub growth over `order` on the pooled engine for both lub kinds
/// and checks, after every prefix, that the extension the state carries
/// equals its concept's extension evaluated in value space over the
/// engine's pool. The carried extension is read before the concept is
/// assembled. `LubState::contains`, asked first, must decide every probe
/// as the extension does, and so must `LubState::contains_id` for every
/// pooled probe: on the grown state before its extension is built, so
/// the growth data decides; on the same prefix folded afresh; and again
/// once the extension is built, so its bits decide (both kinds; the
/// first prefix is a singleton, and probes may lie outside the pool or
/// inside a `⊤` state).
fn assert_growth_extensions_match(
    engine: &LubEngine<'_>,
    inst: &Instance,
    order: &[Value],
    probes: &[Value],
) {
    let pool = engine.pool();
    let by_id = |state: &LubState| -> Vec<Option<Option<bool>>> {
        probes
            .iter()
            .map(|p| pool.id_of(p).map(|id| state.contains_id(id)))
            .collect()
    };
    for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
        let mut state = engine.start(kind, &order[0]);
        let mut prefix: BTreeSet<Value> = BTreeSet::new();
        for (i, v) in order.iter().enumerate() {
            if i > 0 {
                state = engine.grow(&state, v);
            }
            prefix.insert(v.clone());
            // Decided from the growth data before the extension exists.
            let decided: Vec<Option<bool>> = probes.iter().map(|p| state.contains(p)).collect();
            let decided_by_id = by_id(&state);
            let fresh = engine.state_of(kind, &prefix).expect("non-empty prefix");
            let fresh_decided: Vec<Option<bool>> =
                probes.iter().map(|p| fresh.contains(p)).collect();
            let fresh_by_id = by_id(&fresh);
            let carried = state
                .extension()
                .cloned()
                .expect("pooled states carry their extension");
            let evaluated = state.concept().extension_in(inst, pool);
            assert_eq!(*carried, evaluated, "{kind:?} grown to {prefix:?}");
            let members: Vec<Option<bool>> =
                probes.iter().map(|p| Some(carried.contains(p))).collect();
            assert_eq!(decided, members, "{kind:?} contains, grown to {prefix:?}");
            assert_eq!(
                fresh_decided, members,
                "{kind:?} contains, folded afresh to {prefix:?}"
            );
            let members_by_id: Vec<Option<Option<bool>>> = probes
                .iter()
                .zip(&members)
                .map(|(p, &member)| pool.id_of(p).map(|_| member))
                .collect();
            assert_eq!(
                decided_by_id, members_by_id,
                "{kind:?} contains_id, grown to {prefix:?}"
            );
            assert_eq!(
                fresh_by_id, members_by_id,
                "{kind:?} contains_id, folded afresh to {prefix:?}"
            );
            assert_eq!(
                by_id(&state),
                members_by_id,
                "{kind:?} contains_id once built, grown to {prefix:?}"
            );
        }
    }
}

/// One position's extension for the explanation-check differential:
/// `⊤`, a set over the shared pool (members outside the pool land in its
/// overflow), or a set over a private, foreign pool.
fn extension_case(pool: &Arc<ConstPool>, shape: u8, members: BTreeSet<i64>) -> Extension {
    let members = members.into_iter().map(Value::int);
    match shape {
        0 => Extension::Universal,
        1 => Extension::finite_in(Arc::clone(pool), members),
        _ => Extension::finite(members),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn lub_state_extensions_match_concept_extensions_on_every_prefix(
        inst in instance_maybe_empty_t(),
        order in proptest::collection::vec(-2i64..16, 1..7),
    ) {
        // Same constants as the growth ≡ legacy test: 0..12 may occur,
        // 12..14 are pooled but absent (as a why-not tuple's constants
        // outside adom(I) are, so their ids are probed too), -2..0 and
        // 14..16 are unpooled; `order` may repeat constants.
        let (schema, ..) = fixed_schema();
        let pool = inst.const_pool_with([Value::int(12), Value::int(13)]);
        let engine = LubEngine::with_pool(&schema, &inst, pool);
        let order: Vec<Value> = order.into_iter().map(Value::int).collect();
        let probes: Vec<Value> = (-2i64..16).map(Value::int).collect();
        assert_growth_extensions_match(&engine, &inst, &order, &probes);
    }

    #[test]
    fn lub_state_extensions_match_concept_extensions_on_city_workloads(
        seed in 0u64..32,
        picks in proptest::collection::vec(0usize..26, 1..6),
    ) {
        // Picks 24 and 25 name cities outside the 24-city network. The
        // pool also interns them, as it interns a why-not tuple's
        // constants outside adom(I), so their ids are probed too.
        let net = whynot::scenarios::generators::city_network(24, 4, seed);
        let wn = &net.why_not;
        let city = |c: usize| Value::str(whynot::scenarios::generators::city_name(c));
        let pool = wn
            .instance
            .const_pool_with(wn.tuple.iter().cloned().chain([city(24), city(25)]));
        let engine = LubEngine::with_pool(&wn.schema, &wn.instance, pool);
        let order: Vec<Value> = picks.iter().map(|&c| city(c)).collect();
        let probes: Vec<Value> = (0..26).map(city).collect();
        assert_growth_extensions_match(&engine, &wn.instance, &order, &probes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn interned_explanation_check_matches_value_space(
        shapes in proptest::collection::vec(
            (0u8..3, proptest::collection::btree_set(-2i64..16, 0..10), any::<bool>()),
            2..3,
        ),
        rows in proptest::collection::btree_set((-2i64..16, -2i64..16), 0..12),
        (a, b) in (-2i64..16, -2i64..16),
    ) {
        // The pool interns 0..12; answer, tuple and extension constants
        // -2..0 and 12..16 lie outside it. `admit` puts the tuple's
        // constant into its position's extension, so the answer rows
        // decide the check more often.
        let pool = Arc::new(ConstPool::from_values((0..12).map(Value::int)));
        let tuple_ints = [a, b];
        let exts: Vec<Extension> = shapes
            .into_iter()
            .zip(tuple_ints)
            .map(|((shape, mut members, admit), t)| {
                if admit {
                    members.insert(t);
                }
                extension_case(&pool, shape, members)
            })
            .collect();
        let ans: BTreeSet<Tuple> = rows
            .into_iter()
            .map(|(x, y)| vec![Value::int(x), Value::int(y)])
            .collect();
        let tuple: Tuple = tuple_ints.into_iter().map(Value::int).collect();
        let ids = AnswerIds::new(&pool, &ans, &tuple);
        prop_assert_eq!(
            exts_form_explanation(&exts, &ids),
            explains(&exts, &ans, &tuple),
            "exts {:?}",
            exts
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn blocked_sets_decide_definition_3_2_per_position(
        m in 2usize..4,
        shapes in proptest::collection::vec(
            (0u8..3, proptest::collection::btree_set(-2i64..16, 0..10), any::<bool>()),
            3..4,
        ),
        candidates in proptest::collection::vec(
            (0u8..3, proptest::collection::btree_set(-2i64..16, 0..10), any::<bool>()),
            1..5,
        ),
        rows in proptest::collection::btree_set((-2i64..16, -2i64..16, -2i64..16), 0..16),
        (a, b, c) in (-2i64..16, -2i64..16, -2i64..16),
    ) {
        // The extensions and the pool of the explanation-check
        // differential above, at arity 2–3: answer, tuple and extension
        // constants -2..0 and 12..16 lie outside the pool. Candidates
        // mostly hold the tuple's constant at their position.
        let pool = Arc::new(ConstPool::from_values((0..12).map(Value::int)));
        let tuple_ints = [a, b, c];
        let exts: Vec<Extension> = shapes
            .into_iter()
            .zip(tuple_ints)
            .take(m)
            .map(|((shape, mut members, admit), t)| {
                if admit {
                    members.insert(t);
                }
                extension_case(&pool, shape, members)
            })
            .collect();
        let ans: BTreeSet<Tuple> = rows
            .into_iter()
            .map(|(x, y, z)| [x, y, z][..m].iter().map(|&n| Value::int(n)).collect())
            .collect();
        let tuple: Tuple = tuple_ints[..m].iter().map(|&n| Value::int(n)).collect();
        let ids = AnswerIds::new(&pool, &ans, &tuple);
        for j in 0..m {
            let blocked = BlockedSet::new(&exts, j, &ids);
            let others_hold = (0..m)
                .filter(|&k| k != j)
                .all(|k| exts[k].contains(&tuple[k]));
            for (shape, members, admit) in &candidates {
                let mut members = members.clone();
                if *admit {
                    members.insert(tuple_ints[j]);
                }
                let candidate = extension_case(&pool, *shape, members);
                let mut substituted = exts.clone();
                substituted[j] = candidate.clone();
                let full = explains(&substituted, &ans, &tuple);
                prop_assert_eq!(blocked.admits(&exts, &candidate), full);
                if others_hold && candidate.contains(&tuple[j]) {
                    prop_assert_eq!(
                        blocked.is_disjoint(&candidate),
                        full,
                        "position {} of {:?} with {:?}",
                        j,
                        substituted,
                        &ans
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// ⊑S soundness against ⊑I sampling
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn fd_decider_sound_on_samples(
        inst in small_instance(),
        c1 in small_concept(),
        c2 in small_concept(),
    ) {
        // Schema without constraints: every instance qualifies, so
        // Holds ⟹ extension inclusion on every sampled instance.
        let (schema, ..) = fixed_schema();
        match subsumed_under_fds(&schema, &c1, &c2) {
            SubsumptionOutcome::Holds => {
                prop_assert!(
                    c1.extension(&inst).subset_of(&c2.extension(&inst)),
                    "Holds but refuted by sampled instance"
                );
            }
            SubsumptionOutcome::Fails(w) => {
                // Witnesses are verified by construction; re-verify.
                prop_assert!(c1.extension(&w.instance).contains(&w.element));
                prop_assert!(!c2.extension(&w.instance).contains(&w.element));
            }
            SubsumptionOutcome::Unknown(_) => {}
        }
    }
}

// ---------------------------------------------------------------------
// Algorithm 2 on random why-not instances
// ---------------------------------------------------------------------

prop_compose! {
    fn random_whynot()(
        inst in small_instance().prop_filter("need data", |i| !i.is_empty()),
        missing in 100i64..110,
    ) -> WhyNotInstance {
        let (schema, _, t) = fixed_schema();
        // q(u) ← T(u, v); the missing constant is outside the domain.
        let q = Ucq::single(Cq::new(
            [Term::Var(Var(0))],
            [Atom::new(t, [Term::Var(Var(0)), Term::Var(Var(1))])],
            [],
        ));
        WhyNotInstance::new(schema, inst, q, vec![Value::int(missing)])
            .expect("missing constant is out of domain")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn incremental_search_returns_verified_mges(wn in random_whynot()) {
        let e = incremental_search(&wn);
        let exts: Vec<_> = e.concepts.iter().map(|c| c.extension(&wn.instance)).collect();
        prop_assert!(explains(&exts, &wn.ans, &wn.tuple));
        prop_assert!(check_mge_instance(&wn, &e, LubKind::SelectionFree));
    }

    #[test]
    fn incremental_with_selections_returns_verified_mges(wn in random_whynot()) {
        let e = incremental_search_with_selections(&wn);
        let exts: Vec<_> = e.concepts.iter().map(|c| c.extension(&wn.instance)).collect();
        prop_assert!(explains(&exts, &wn.ans, &wn.tuple));
        prop_assert!(check_mge_instance(&wn, &e, LubKind::WithSelections));
    }
}

prop_compose! {
    /// Arity-2 why-not instances over `T`: `q(u, v) ← T(u, v)` or the
    /// two-hop join over `T`. Each constant of the missing tuple lies in
    /// `0..12` (the instance's constants) or outside the domain; `None`
    /// when the tuple is an answer.
    fn random_whynot_pair()(
        inst in small_instance().prop_filter("need data", |i| !i.is_empty()),
        two_hop in any::<bool>(),
        (a, b) in (0i64..12, 0i64..12),
        (a_out, b_out) in (any::<bool>(), any::<bool>()),
    ) -> Option<WhyNotInstance> {
        let (schema, _, t) = fixed_schema();
        let (u, v, w) = (Var(0), Var(1), Var(2));
        let atoms = if two_hop {
            vec![
                Atom::new(t, [Term::Var(u), Term::Var(w)]),
                Atom::new(t, [Term::Var(w), Term::Var(v)]),
            ]
        } else {
            vec![Atom::new(t, [Term::Var(u), Term::Var(v)])]
        };
        let q = Ucq::single(Cq::new([Term::Var(u), Term::Var(v)], atoms, []));
        let constant = |n: i64, out: bool| Value::int(if out { 100 + n } else { n });
        let tuple = vec![constant(a, a_out), constant(b, b_out)];
        WhyNotInstance::new(schema, inst, q, tuple).ok()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn incremental_search_at_arity_two_matches_the_literal_algorithm(
        wn in random_whynot_pair(),
    ) {
        prop_assume!(wn.is_some());
        let wn = wn.expect("assumed above");
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let e = incremental_search_kind(&wn, kind);
            prop_assert_eq!(&e, &literal_incremental(&wn, kind), "{:?}", kind);
            // The MGE check agrees with the literal one on the result and
            // on the all-nominals explanation (its starting point).
            let nominals = Explanation::new(wn.tuple.iter().cloned().map(LsConcept::nominal));
            for candidate in [&e, &nominals] {
                prop_assert_eq!(
                    check_mge_instance(&wn, candidate, kind),
                    literal_check_mge(&wn, candidate, kind),
                    "{:?} on {:?}",
                    kind,
                    candidate
                );
            }
            prop_assert!(check_mge_instance(&wn, &e, kind));
        }
    }
}

#[test]
fn incremental_search_matches_the_literal_algorithm_on_city_workloads() {
    // The full growth loop over city networks, whose columns hold many
    // boxes per lub (the arity-two property above draws tiny instances).
    for (n, seed) in [(24, 42), (32, 7)] {
        let net = whynot::scenarios::generators::city_network(n, 8, seed);
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            assert_eq!(
                incremental_search_kind(&net.why_not, kind),
                literal_incremental(&net.why_not, kind),
                "{n} cities, {kind:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Batched session ≡ fresh contexts, question by question
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn session_answers_equal_fresh_context_answers(
        inst in small_instance().prop_filter("need data", |i| !i.is_empty()),
        tuples in proptest::collection::vec((0i64..16, 0i64..16), 1..5),
    ) {
        let (schema, _, t) = fixed_schema();
        // q(u, v) ← T(u, w) ∧ T(w, v): two-hop connectivity over T.
        let q = Ucq::single(Cq::new(
            [Term::Var(Var(0)), Term::Var(Var(1))],
            [
                Atom::new(t, [Term::Var(Var(0)), Term::Var(Var(2))]),
                Atom::new(t, [Term::Var(Var(2)), Term::Var(Var(1))]),
            ],
            [],
        ));
        let ontology = ExplicitOntology::builder()
            .concept("All", (0i64..16).map(Value::int).collect::<Vec<_>>())
            .concept("Low", (0i64..8).map(Value::int).collect::<Vec<_>>())
            .concept("High", (8i64..16).map(Value::int).collect::<Vec<_>>())
            .concept("Mid", (4i64..12).map(Value::int).collect::<Vec<_>>())
            .edge("Low", "All")
            .edge("High", "All")
            .edge("Mid", "All")
            .build();
        // One session for the whole tuple stream vs a fresh context per
        // question: every answer must agree.
        let session = WhyNotSession::new(&ontology, &schema, &inst);
        for (a0, a1) in tuples {
            let tuple = vec![Value::int(a0), Value::int(a1)];
            let wq = WhyNotQuestion::new(q.clone(), tuple.clone());
            match WhyNotInstance::new(schema.clone(), inst.clone(), q.clone(), tuple) {
                Ok(wn) => {
                    prop_assert_eq!(
                        session.exhaustive(&wq).unwrap(),
                        exhaustive_search(&ontology, &wn)
                    );
                    for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
                        let via_session = session.incremental(&wq, kind).unwrap();
                        let via_fresh = incremental_search_kind(&wn, kind);
                        prop_assert_eq!(&via_session, &via_fresh);
                        prop_assert_eq!(
                            session.check_mge_instance(&wq, &via_session, kind).unwrap(),
                            check_mge_instance(&wn, &via_fresh, kind)
                        );
                    }
                }
                // The tuple is among the answers: both boundaries reject.
                Err(_) => prop_assert!(session.exhaustive(&wq).is_err()),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Algorithm 1 against the seed's product walk
// ---------------------------------------------------------------------

/// A candidate of one answer position: a concept and its extension as a
/// tree set (`None` = universal).
type SeedCandidate<C> = (C, Option<BTreeSet<Value>>);

/// Every product of candidates, kept when no answer tuple lies in it.
fn seed_walk<C: Clone>(
    candidates: &[Vec<SeedCandidate<C>>],
    ans: &BTreeSet<Tuple>,
    choice: &mut Vec<usize>,
    found: &mut Vec<Explanation<C>>,
) {
    let depth = choice.len();
    if depth == candidates.len() {
        let outside = |t: &Tuple| {
            choice.iter().enumerate().any(|(i, &k)| {
                candidates[i][k]
                    .1
                    .as_ref()
                    .is_some_and(|ext| !ext.contains(&t[i]))
            })
        };
        if ans.iter().all(outside) {
            found.push(Explanation::new(
                choice
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| candidates[i][k].0.clone()),
            ));
        }
        return;
    }
    for k in 0..candidates[depth].len() {
        choice.push(k);
        seed_walk(candidates, ans, choice, found);
        choice.pop();
    }
}

/// Algorithm 1 with none of the engine: every concept's extension is
/// evaluated afresh per answer position and kept as a tree set, and the
/// full product of the candidates containing `aᵢ` is walked.
fn seed_exhaustive<O: FiniteOntology>(
    ontology: &O,
    wn: &WhyNotInstance,
) -> Vec<Explanation<O::Concept>> {
    let concepts = ontology.concepts();
    let candidates: Vec<Vec<SeedCandidate<O::Concept>>> = wn
        .tuple
        .iter()
        .map(|a| {
            concepts
                .iter()
                .filter_map(|c| {
                    let ext = ontology
                        .extension(c, &wn.instance)
                        .as_finite()
                        .map(|s| s.to_btree_set());
                    ext.as_ref()
                        .is_none_or(|s| s.contains(a))
                        .then(|| (c.clone(), ext))
                })
                .collect()
        })
        .collect();
    let mut found = Vec::new();
    seed_walk(&candidates, &wn.ans, &mut Vec::new(), &mut found);
    retain_most_general(ontology, found)
}

#[test]
fn exhaustive_search_matches_the_seed_product_walk() {
    for (n, regions, seed) in [(12, 2, 1), (16, 3, 2), (24, 3, 3), (32, 4, 4), (48, 8, 42)] {
        let net = whynot::scenarios::generators::city_network(n, regions, seed);
        assert_eq!(
            exhaustive_search(&net.ontology, &net.why_not),
            seed_exhaustive(&net.ontology, &net.why_not),
            "city_network({n}, {regions}, {seed})"
        );
    }
}

// ---------------------------------------------------------------------
// SET COVER reduction agreement
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn set_cover_reduction_agrees_with_brute_force(
        universe in 1usize..5,
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0usize..5, 1..4), 1..5),
        budget in 1usize..4,
    ) {
        use whynot::core::setcover::{reduce_set_cover, SetCover};
        use whynot::core::explanation_exists;
        let sets: Vec<Vec<usize>> = sets
            .into_iter()
            .map(|s| s.into_iter().filter(|&u| u < universe).collect::<Vec<_>>())
            .filter(|s: &Vec<usize>| !s.is_empty())
            .collect();
        prop_assume!(!sets.is_empty());
        let sc = SetCover { universe, sets, budget };
        let (o, wn) = reduce_set_cover(&sc);
        prop_assert_eq!(sc.solvable(), explanation_exists(&o, &wn));
    }
}
