//! The id-space backtracking join against a brute-force cross-product
//! model.
//!
//! `Cq::eval` interns the data into sorted ids and narrows each search
//! node to the smallest CSR bucket among its bound arguments; these
//! properties check that neither the interning nor the narrowing ever
//! changes the answer set, by comparing against an evaluator with no
//! search at all: enumerate every combination of one tuple per atom,
//! keep the consistent ones, apply the comparison intervals, project the
//! head. Queries are decoded from raw byte vectors (safe by
//! construction: heads and comparisons only use variables that occur in
//! atoms).
//!
//! The first property keeps to small integers over dense variables. The
//! second widens every axis the id space could get wrong: strings with
//! shared prefixes beside numbers, head constants, a repeated variable
//! inside one atom, sparse variable numbers, constants absent from the
//! instance, comparisons on strings, unions of two or three disjuncts
//! and Boolean heads.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use whynot_relation::{
    AnswerRows, Atom, CmpOp, Comparison, ConstPool, Cq, GenPool, IdImage, Instance, Interval,
    RelId, Term, Tuple, Ucq, Value, Var,
};

/// Decodes an argument code: 0..4 are variables, 4..6 are constants.
fn decode_term(code: u8) -> Term {
    match code % 6 {
        v @ 0..=3 => Term::Var(Var(v as u32)),
        c => Term::Const(Value::int(i64::from(c) - 2)),
    }
}

/// Builds the two-relation fixture: binary `R` and unary `S`, populated
/// from the raw codes (values all land in `0..6`, so constants from
/// [`decode_term`] — `2` and `3` — actually collide with data).
fn decode_instance(r_raw: &[u8], s_raw: &[u8]) -> Instance {
    let mut inst = Instance::new();
    for &code in r_raw {
        inst.insert(
            RelId(0),
            vec![
                Value::int(i64::from(code % 6)),
                Value::int(i64::from(code / 6)),
            ],
        );
    }
    for &code in s_raw {
        inst.insert(RelId(1), vec![Value::int(i64::from(code % 6))]);
    }
    inst
}

/// Decodes a safe query: atoms from the raw codes, head = every atom
/// variable in order, comparisons restricted to atom variables.
fn decode_query(atom_raw: &[u8], cmp_raw: &[u8]) -> Cq {
    let atoms: Vec<Atom> = atom_raw
        .iter()
        .map(|&code| {
            if code % 2 == 0 {
                Atom::new(RelId(0), [decode_term(code / 2), decode_term(code / 12)])
            } else {
                Atom::new(RelId(1), [decode_term(code / 2)])
            }
        })
        .collect();
    let vars: Vec<Var> = {
        let set: BTreeSet<Var> = atoms.iter().flat_map(|a| a.vars()).collect();
        set.into_iter().collect()
    };
    let head: Vec<Term> = vars.iter().map(|&v| Term::Var(v)).collect();
    let comparisons: Vec<Comparison> = cmp_raw
        .iter()
        .filter(|_| !vars.is_empty())
        .map(|&code| {
            Comparison::new(
                vars[code as usize % vars.len()],
                CmpOp::ALL[code as usize / 4 % 5],
                Value::int(i64::from(code / 20 % 6)),
            )
        })
        .collect();
    Cq::new(head, atoms, comparisons)
}

/// The model: no search, no index — the full cross product of one
/// tuple per atom, consistency-checked and projected.
fn brute_force(cq: &Cq, inst: &Instance) -> BTreeSet<Tuple> {
    let intervals = cq.var_intervals();
    let mut out = BTreeSet::new();
    if intervals.values().any(Interval::is_empty) {
        return out;
    }
    let per_atom: Vec<Vec<&Tuple>> = cq
        .atoms
        .iter()
        .map(|a| inst.tuples(a.rel).collect())
        .collect();
    if per_atom.iter().any(Vec::is_empty) {
        return out;
    }
    let mut pick = vec![0usize; cq.atoms.len()];
    loop {
        let mut assignment: BTreeMap<Var, Value> = BTreeMap::new();
        let consistent = cq.atoms.iter().enumerate().all(|(a_idx, atom)| {
            let tuple: &Tuple = per_atom[a_idx][pick[a_idx]];
            atom.args.len() == tuple.len()
                && atom.args.iter().zip(tuple).all(|(term, value)| match term {
                    Term::Const(c) => c == value,
                    Term::Var(v) => match assignment.get(v) {
                        Some(prev) => prev == value,
                        None => {
                            assignment.insert(*v, value.clone());
                            true
                        }
                    },
                })
        });
        if consistent
            && intervals
                .iter()
                .all(|(v, iv)| assignment.get(v).is_none_or(|val| iv.contains(val)))
        {
            let tuple: Option<Tuple> = cq
                .head
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Some(c.clone()),
                    Term::Var(v) => assignment.get(v).cloned(),
                })
                .collect();
            if let Some(t) = tuple {
                out.insert(t);
            }
        }
        // Odometer step over the cross product.
        let mut done = true;
        for (digit, dim) in pick.iter_mut().zip(&per_atom) {
            *digit += 1;
            if *digit < dim.len() {
                done = false;
                break;
            }
            *digit = 0;
        }
        if done {
            return out;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn indexed_eval_matches_brute_force(
        r_raw in proptest::collection::vec(any::<u8>(), 0..12),
        s_raw in proptest::collection::vec(0u8..6, 0..8),
        atom_raw in proptest::collection::vec(any::<u8>(), 1..4),
        cmp_raw in proptest::collection::vec(any::<u8>(), 0..2),
    ) {
        let inst = decode_instance(&r_raw, &s_raw);
        let cq = decode_query(&atom_raw, &cmp_raw);
        let model = brute_force(&cq, &inst);
        prop_assert_eq!(cq.eval(&inst), model.clone());
        // `answers` goes through the same indexed join with a cut; it
        // must agree with membership for hits and misses alike.
        for t in &model {
            prop_assert!(cq.answers(&inst, t));
        }
        let probe = vec![Value::int(2); cq.arity()];
        prop_assert_eq!(cq.answers(&inst, &probe), model.contains(&probe));
        // A union of the query with itself changes nothing; the shared
        // index must behave like the per-disjunct ones.
        let union = Ucq::new([cq.clone(), cq]);
        prop_assert_eq!(union.eval(&inst), model);
    }
}

/// The widened value universe: numbers and strings with shared prefixes.
/// Codes `0..8` occur in data; `8` and `9` only ever appear as query or
/// probe constants, so they are absent from every instance.
fn wide_value(code: u8) -> Value {
    match code % 10 {
        n @ 0..=2 => Value::int(i64::from(n)),
        3 => Value::str("a"),
        4 => Value::str("ab"),
        5 => Value::str("abc"),
        6 => Value::str("b"),
        7 => Value::str("ba"),
        8 => Value::str("abd"),
        _ => Value::int(7),
    }
}

/// Sparse variable numbers: slots must not be indexed by `Var` value.
const WIDE_VARS: [Var; 4] = [Var(0), Var(7), Var(100), Var(3)];

/// Decodes a term: codes `0..4 (mod 7)` are variables, the rest are
/// constants drawn from the whole universe (absent ones included).
fn wide_term(code: u8) -> Term {
    match code % 7 {
        v @ 0..=3 => Term::Var(WIDE_VARS[v as usize]),
        _ => Term::Const(wide_value(code / 7)),
    }
}

/// Binary `R` and unary `S` over the data part of the universe.
fn wide_instance(r_raw: &[(u8, u8)], s_raw: &[u8]) -> Instance {
    let mut inst = Instance::new();
    for &(a, b) in r_raw {
        inst.insert(RelId(0), vec![wide_value(a % 8), wide_value(b % 8)]);
    }
    for &a in s_raw {
        inst.insert(RelId(1), vec![wide_value(a % 8)]);
    }
    inst
}

/// Decodes one disjunct with head arity `arity`. Each atom is three
/// bytes `(kind, a, b)`: `R(a, b)`, `S(a)`, or `R(a, a)` (a repeated
/// term, so a variable joins with itself inside one atom). Each head
/// position is an atom variable or a constant; with no atom variable it
/// is always a constant.
fn wide_disjunct(atom_raw: &[(u8, u8, u8)], head_raw: &[u8], cmp_raw: &[u8], arity: usize) -> Cq {
    let atoms: Vec<Atom> = atom_raw
        .iter()
        .map(|&(kind, a, b)| match kind % 3 {
            0 => Atom::new(RelId(0), [wide_term(a), wide_term(b)]),
            1 => Atom::new(RelId(1), [wide_term(a)]),
            _ => Atom::new(RelId(0), [wide_term(a), wide_term(a)]),
        })
        .collect();
    let vars: Vec<Var> = {
        let set: BTreeSet<Var> = atoms.iter().flat_map(|a| a.vars()).collect();
        set.into_iter().collect()
    };
    let head: Vec<Term> = (0..arity)
        .map(|i| {
            let code = head_raw.get(i).copied().unwrap_or(0);
            if code % 3 == 0 || vars.is_empty() {
                Term::Const(wide_value(code / 3))
            } else {
                Term::Var(vars[code as usize / 3 % vars.len()])
            }
        })
        .collect();
    let comparisons: Vec<Comparison> = cmp_raw
        .iter()
        .filter(|_| !vars.is_empty())
        .map(|&code| {
            Comparison::new(
                vars[code as usize % vars.len()],
                CmpOp::ALL[code as usize / 4 % 5],
                wide_value(code / 20),
            )
        })
        .collect();
    Cq::new(head, atoms, comparisons)
}

fn wide_atoms() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..4)
}

/// The raw bytes of one disjunct: atoms, head codes, comparison codes.
type DisjunctRaw = (Vec<(u8, u8, u8)>, Vec<u8>, Vec<u8>);

fn wide_disjunct_raw() -> impl Strategy<Value = DisjunctRaw> {
    (
        wide_atoms(),
        proptest::collection::vec(any::<u8>(), 2..3),
        proptest::collection::vec(any::<u8>(), 0..3),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wide_eval_matches_brute_force(
        r_raw in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..14),
        s_raw in proptest::collection::vec(any::<u8>(), 0..6),
        disjuncts in proptest::collection::vec(wide_disjunct_raw(), 1..4),
        arity in 0usize..3,
        probe_raw in proptest::collection::vec(any::<u8>(), 2..3),
    ) {
        let inst = wide_instance(&r_raw, &s_raw);
        let cqs: Vec<Cq> = disjuncts
            .iter()
            .map(|(atoms, head, cmps)| wide_disjunct(atoms, head, cmps, arity))
            .collect();
        let probe: Tuple = (0..arity).map(|i| wide_value(probe_raw[i])).collect();
        let mut union_model = BTreeSet::new();
        for cq in &cqs {
            let model = brute_force(cq, &inst);
            prop_assert_eq!(cq.eval(&inst), model.clone(), "disjunct {:?}", cq);
            for t in &model {
                prop_assert!(cq.answers(&inst, t), "{:?} misses {:?}", cq, t);
            }
            prop_assert_eq!(cq.answers(&inst, &probe), model.contains(&probe));
            union_model.extend(model);
        }
        let ucq = Ucq::new(cqs);
        prop_assert_eq!(ucq.eval(&inst), union_model.clone());
        for t in &union_model {
            prop_assert!(ucq.answers(&inst, t));
        }
        prop_assert_eq!(ucq.answers(&inst, &probe), union_model.contains(&probe));
    }
}

/// Values that sort between, before and after the wide universe, so a
/// pool holding some of them shifts every data id.
fn shift_value(code: u8) -> Value {
    match code % 6 {
        0 => Value::int(-3),
        1 => Value::int(1),
        2 => Value::str("aa"),
        3 => Value::str("abcd"),
        4 => Value::str("c"),
        _ => Value::int(5),
    }
}

/// `R` and `S` as id images over `pool`.
fn wide_images(inst: &Instance, pool: &ConstPool) -> [Arc<IdImage>; 2] {
    [(0, 2), (1, 1)].map(|(rel, arity)| {
        Arc::new(IdImage::build(inst, RelId(rel), arity, pool).expect("the pool covers adom(I)"))
    })
}

/// Evaluates `ucq` over `images` and checks the rows against value-space
/// evaluation: the same tuples in the same order, and membership by
/// binary search for every answer and for `probe`.
fn check_id_space(
    ucq: &Ucq,
    inst: &Instance,
    pool: &Arc<ConstPool>,
    images: &[Arc<IdImage>; 2],
    probe: &Tuple,
) -> AnswerRows {
    let rows = ucq.eval_ids(pool, |rel| images.get(rel.0 as usize).cloned());
    let expected = ucq.eval(inst);
    let got: Vec<Tuple> = rows.tuples().collect();
    prop_assert_eq!(&got, &expected.iter().cloned().collect::<Vec<_>>());
    for (r, t) in expected.iter().enumerate() {
        prop_assert_eq!(rows.position(t), Some(r));
    }
    prop_assert_eq!(rows.contains(probe), expected.contains(probe));
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn id_space_eval_matches_value_space(
        r_raw in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..14),
        s_raw in proptest::collection::vec(any::<u8>(), 0..6),
        disjuncts in proptest::collection::vec(wide_disjunct_raw(), 1..4),
        arity in 0usize..3,
        (probe_raw, spread) in (proptest::collection::vec(any::<u8>(), 2..3), any::<bool>()),
        (pooled_raw, grown_raw) in (
            proptest::collection::vec(any::<u8>(), 0..4),
            proptest::collection::vec(any::<u8>(), 1..4),
        ),
    ) {
        let inst = wide_instance(&r_raw, &s_raw);
        let ucq = Ucq::new(
            disjuncts
                .iter()
                .map(|(atoms, head, cmps)| wide_disjunct(atoms, head, cmps, arity)),
        );
        let probe: Tuple = (0..arity).map(|i| wide_value(probe_raw[i])).collect();
        // The pool covers adom(I) plus some shifting values and some of
        // the query-only constants 8 and 9; the rest stay unpooled. With
        // `spread`, a thousand numbers between the data's numbers and its
        // strings leave most columns sparse over the pool.
        let extra = pooled_raw
            .iter()
            .map(|&c| if c % 3 == 0 { wide_value(8 + c / 3 % 2) } else { shift_value(c) })
            .chain((10..1010).filter(|_| spread).map(Value::int));
        let mut gen = GenPool::new(inst.const_pool_with(extra));
        let images = wide_images(&inst, gen.pool());
        let rows = check_id_space(&ucq, &inst, gen.pool(), &images, &probe);

        // The next generation interns more values, some of them the
        // query's unpooled constants: remapped images and remapped rows
        // both still agree with value space.
        let grown = grown_raw.iter().map(|&c| {
            if c % 2 == 0 { wide_value(c / 2) } else { shift_value(c / 2) }
        });
        if let Some(map) = gen.absorb(grown) {
            let remapped = images.map(|image| Arc::new(image.remap(&map).expect("total map")));
            check_id_space(&ucq, &inst, gen.pool(), &remapped, &probe);
            let moved = rows.remap(gen.pool(), &map).expect("total map");
            prop_assert_eq!(moved.to_set(), ucq.eval(&inst));
        }
    }
}

/// Named cases for the shapes the decoder only reaches by chance.
#[test]
fn wide_fixed_cases_match_brute_force() {
    let inst = wide_instance(
        &[(3, 3), (3, 4), (4, 4), (5, 0), (0, 0), (7, 6)],
        &[3, 4, 6],
    );
    let (x, y) = (Var(7), Var(100));
    let cases = [
        // R(x, x): only the reflexive rows.
        Cq::new(
            [Term::Var(x)],
            [Atom::new(RelId(0), [Term::Var(x), Term::Var(x)])],
            [],
        ),
        // A head constant absent from the data, spliced beside a variable.
        Cq::new(
            [Term::Const(Value::str("abd")), Term::Var(y)],
            [Atom::new(RelId(0), [Term::Var(x), Term::Var(y)])],
            [],
        ),
        // An atom constant absent from the data: no answers.
        Cq::new(
            [Term::Var(y)],
            [Atom::new(
                RelId(0),
                [Term::Const(Value::str("abd")), Term::Var(y)],
            )],
            [],
        ),
        // A string comparison between shared prefixes.
        Cq::new(
            [Term::Var(x)],
            [Atom::new(RelId(1), [Term::Var(x)])],
            [Comparison::new(x, CmpOp::Gt, Value::str("a"))],
        ),
        // Boolean heads, satisfied and not.
        Cq::new([], [Atom::new(RelId(0), [Term::Var(x), Term::Var(x)])], []),
        Cq::new(
            [],
            [Atom::new(RelId(1), [Term::Const(Value::str("abc"))])],
            [],
        ),
    ];
    let expected: [usize; 6] = [3, 4, 0, 2, 1, 0];
    for (cq, want) in cases.iter().zip(expected) {
        let got = cq.eval(&inst);
        assert_eq!(got, brute_force(cq, &inst), "{cq:?}");
        assert_eq!(got.len(), want, "{cq:?}");
        for t in &got {
            assert!(cq.answers(&inst, t), "{cq:?} misses {t:?}");
        }
    }
}
