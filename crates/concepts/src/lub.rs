//! Least upper bounds of constant sets in `LS` (paper Lemmas 5.1 and 5.2).
//!
//! `lub_I(X)` is the **smallest** concept (w.r.t. `⊑I`) definable in the
//! fragment whose extension contains every element of `X`. Because `LS` is
//! closed under `⊓`, the concepts containing `X` are closed under
//! intersection, so the least one exists: it is the conjunction of *all*
//! atomic concepts whose extension contains `X`.
//!
//! * **Selection-free `LS`** (Lemma 5.1): the atomic candidates are the
//!   plain projections `π_A(R)` (finitely many) plus the nominal when `X`
//!   is a singleton — a polynomial-time computation.
//! * **Full `LS`** (Lemma 5.2): candidates additionally include
//!   `π_A(σ…(R))` for every selection. On a fixed instance a selection is
//!   equivalent to a *box* (one closed interval per attribute), and any box
//!   whose projection covers `X` contains the bounding box of a set of
//!   witness tuples (one witness per element of `X`). It therefore
//!   suffices to conjoin the **minimal valid boxes**, whose endpoints are
//!   drawn from witness-tuple coordinates. Enumerating these is
//!   exponential in the schema arity and polynomial for bounded arity —
//!   exactly the complexity split the paper states.

use crate::concept::{LsAtom, LsConcept};
use crate::selection::Selection;
use std::collections::BTreeSet;
use whynot_relation::{Attr, Instance, RelId, Schema, Tuple, Value};

/// Computes `lub_I(X)` in selection-free `LS` (paper Lemma 5.1).
///
/// # Examples
///
/// ```
/// use std::collections::BTreeSet;
/// use whynot_concepts::lub;
/// use whynot_relation::{Instance, SchemaBuilder, Value};
///
/// let mut b = SchemaBuilder::new();
/// let tc = b.relation("TC", ["from", "to"]);
/// let schema = b.finish().unwrap();
/// let mut inst = Instance::new();
/// inst.insert(tc, vec![Value::str("Amsterdam"), Value::str("Berlin")]);
/// inst.insert(tc, vec![Value::str("Berlin"), Value::str("Rome")]);
///
/// // The least selection-free concept containing {Amsterdam, Berlin}:
/// // both appear in TC.from, so π_from(TC) is a covering atom — and the
/// // lub's extension is contained in every covering atom's extension.
/// let x: BTreeSet<Value> = [Value::str("Amsterdam"), Value::str("Berlin")]
///     .into_iter()
///     .collect();
/// let c = lub(&schema, &inst, &x);
/// assert!(c.extension(&inst).contains_all(x.iter()));
/// ```
///
/// # Panics
/// Panics if `x` is empty — the paper only ever takes lubs of non-empty
/// support sets (Algorithm 2 starts from singletons). Service layers that
/// cannot rule out empty supports should call [`try_lub`] instead.
pub fn lub(schema: &Schema, inst: &Instance, x: &BTreeSet<Value>) -> LsConcept {
    // lint: allow(no-panic-in-lib) — documented panicking convenience
    // wrapper; `try_lub` is the checked twin service boundaries call (PR 2).
    try_lub(schema, inst, x).expect("lub of an empty support set is undefined")
}

/// Non-panicking [`lub`]: `None` iff the support set is empty (every
/// concept contains `∅`, so no *least* one exists in the pre-order the
/// paper uses). This is the variant service boundaries should call — a
/// malformed batched question must surface as an error, not a panic.
pub fn try_lub(schema: &Schema, inst: &Instance, x: &BTreeSet<Value>) -> Option<LsConcept> {
    if x.is_empty() {
        return None;
    }
    let mut atoms: Vec<LsAtom> = Vec::new();
    if x.len() == 1 {
        // lint: allow(no-panic-in-lib) — the emptiness early-return above
        // proves the iterator yields at least one element.
        atoms.push(LsAtom::Nominal(x.iter().next().expect("non-empty").clone()));
    }
    for rel in schema.rel_ids() {
        for attr in 0..schema.arity(rel) {
            // Materialize the column once per (rel, attr); the previous
            // code rebuilt it inside the closure, once per support
            // element — quadratic in |X| with a full column scan each.
            // lint: allow(no-owned-column) — legacy reference lub, kept as
            // the differential oracle the pooled LubEngine is raced against.
            let col = inst.column(rel, attr);
            if x.iter().all(|v| col.contains(v)) {
                atoms.push(LsAtom::proj(rel, attr));
            }
        }
    }
    Some(LsConcept::from_atoms(atoms))
}

/// A closed per-attribute bounding box over the tuples of one relation.
type BoundingBox = Vec<(Value, Value)>;

/// Computes `lubσ_I(X)` in full `LS` (paper Lemma 5.2): the smallest
/// concept with selections whose extension contains `X`.
///
/// Runs in time exponential in the maximum schema arity and polynomial for
/// bounded arity (the candidate boxes per relation are
/// `∏_attr O(#distinct-values²)`).
///
/// # Examples
///
/// ```
/// use std::collections::BTreeSet;
/// use whynot_concepts::{lub, lub_sigma};
/// use whynot_relation::{Instance, SchemaBuilder, Value};
///
/// let mut b = SchemaBuilder::new();
/// let r = b.relation("Cities", ["name", "population"]);
/// let schema = b.finish().unwrap();
/// let mut inst = Instance::new();
/// inst.insert(r, vec![Value::str("Berlin"), Value::int(3_502_000)]);
/// inst.insert(r, vec![Value::str("Rome"), Value::int(2_753_000)]);
/// inst.insert(r, vec![Value::str("Santa Cruz"), Value::int(59_946)]);
///
/// // With selections the lub can carve the population band [2.7M, 3.5M],
/// // so it refines the selection-free lub (which keeps Santa Cruz).
/// let x: BTreeSet<Value> = [Value::str("Berlin"), Value::str("Rome")]
///     .into_iter()
///     .collect();
/// let fine = lub_sigma(&schema, &inst, &x).extension(&inst);
/// let coarse = lub(&schema, &inst, &x).extension(&inst);
/// assert!(fine.subset_of(&coarse));
/// assert!(!fine.contains(&Value::str("Santa Cruz")));
/// ```
///
/// # Panics
/// Panics if `x` is empty; see [`try_lub_sigma`] for the non-panicking
/// service-boundary variant.
pub fn lub_sigma(schema: &Schema, inst: &Instance, x: &BTreeSet<Value>) -> LsConcept {
    // lint: allow(no-panic-in-lib) — documented panicking convenience
    // wrapper; `try_lub_sigma` is the checked twin boundaries call (PR 2).
    try_lub_sigma(schema, inst, x).expect("lub of an empty support set is undefined")
}

/// Non-panicking [`lub_sigma`]: `None` iff the support set is empty.
pub fn try_lub_sigma(schema: &Schema, inst: &Instance, x: &BTreeSet<Value>) -> Option<LsConcept> {
    if x.is_empty() {
        return None;
    }
    let mut atoms: Vec<LsAtom> = Vec::new();
    if x.len() == 1 {
        // lint: allow(no-panic-in-lib) — the emptiness early-return above
        // proves the iterator yields at least one element.
        atoms.push(LsAtom::Nominal(x.iter().next().expect("non-empty").clone()));
    }
    for rel in schema.rel_ids() {
        let arity = schema.arity(rel);
        let boxes_per_attr: Vec<Vec<BoundingBox>> = (0..arity)
            .map(|attr| minimal_boxes(inst, rel, attr, x))
            .collect();
        if boxes_per_attr.iter().all(Vec::is_empty) {
            continue;
        }
        // Per-attribute column min/max, computed once per relation that
        // contributes a box at all. The previous code re-materialized the
        // whole column inside `box_atom`, once per dimension of every
        // candidate box.
        let col_ranges: Vec<Option<(Value, Value)>> = (0..arity)
            .map(|j| {
                // lint: allow(no-owned-column) — legacy reference lub, kept
                // as the oracle the pooled LubEngine is raced against.
                let col = inst.column(rel, j);
                match (col.first(), col.last()) {
                    (Some(min), Some(max)) => Some((min.clone(), max.clone())),
                    _ => None,
                }
            })
            .collect();
        for (attr, boxes) in boxes_per_attr.iter().enumerate() {
            for bx in boxes {
                atoms.push(box_atom(&col_ranges, rel, attr, bx));
            }
        }
    }
    Some(LsConcept::from_atoms(atoms))
}

/// Converts a bounding box into the concept atom `π_attr(σ_box(R))`,
/// omitting the constraints on attributes whose box interval already spans
/// the entire column (they cannot change the selected set on `inst`).
/// `col_ranges[j]` is the precomputed `(min, max)` of column `j`.
fn box_atom(
    col_ranges: &[Option<(Value, Value)>],
    rel: RelId,
    attr: Attr,
    bx: &BoundingBox,
) -> LsAtom {
    let mut bounds: Vec<(Attr, Value, Value)> = Vec::new();
    for (j, (lo, hi)) in bx.iter().enumerate() {
        let spans_column = col_ranges
            .get(j)
            .and_then(|r| r.as_ref())
            .is_some_and(|(min, max)| min == lo && max == hi);
        if !spans_column {
            bounds.push((j, lo.clone(), hi.clone()));
        }
    }
    LsAtom::proj_sel(rel, attr, Selection::from_box(bounds))
}

/// Enumerates the minimal (inclusion-wise) boxes `B` with
/// `X ⊆ π_attr(σ_B(R^I))`. Returns an empty list when some element of `X`
/// has no witness tuple at all (then no selection of `R` can cover `X`).
fn minimal_boxes(inst: &Instance, rel: RelId, attr: Attr, x: &BTreeSet<Value>) -> Vec<BoundingBox> {
    // Witness tuples: those whose `attr` coordinate lies in X.
    let witnesses: Vec<&Tuple> = inst
        .tuples(rel)
        .filter(|t| t.get(attr).is_some_and(|v| x.contains(v)))
        .collect();
    if witnesses.is_empty() {
        return Vec::new();
    }
    let arity = witnesses[0].len();
    // Coverage bookkeeping: which X-element each witness covers.
    let covered: BTreeSet<&Value> = witnesses.iter().map(|t| &t[attr]).collect();
    if x.iter().any(|v| !covered.contains(v)) {
        return Vec::new();
    }

    let mut out: Vec<BoundingBox> = Vec::new();
    let surviving: Vec<usize> = (0..witnesses.len()).collect();
    enumerate_boxes(
        &witnesses,
        x,
        attr,
        arity,
        0,
        surviving,
        Vec::new(),
        &mut out,
    );
    retain_minimal(out)
}

/// Recursive enumeration of dimension-tight boxes: for each dimension the
/// bounds are drawn from (and attained by) the surviving witnesses, and
/// coverage of `X` is re-checked after each restriction.
#[allow(clippy::too_many_arguments)]
fn enumerate_boxes(
    witnesses: &[&Tuple],
    x: &BTreeSet<Value>,
    attr: Attr,
    arity: usize,
    dim: usize,
    surviving: Vec<usize>,
    bounds: BoundingBox,
    out: &mut Vec<BoundingBox>,
) {
    if dim == arity {
        out.push(bounds);
        return;
    }
    let values: BTreeSet<&Value> = surviving.iter().map(|&i| &witnesses[i][dim]).collect();
    let values: Vec<&Value> = values.into_iter().collect();
    for (li, lo) in values.iter().enumerate() {
        for hi in &values[li..] {
            let next: Vec<usize> = surviving
                .iter()
                .copied()
                .filter(|&i| {
                    let v = &witnesses[i][dim];
                    *lo <= v && v <= *hi
                })
                .collect();
            // Coverage check: every element of X still has a witness.
            let covered: BTreeSet<&Value> = next.iter().map(|&i| &witnesses[i][attr]).collect();
            if x.iter().any(|v| !covered.contains(v)) {
                continue;
            }
            let mut b = bounds.clone();
            b.push(((*lo).clone(), (*hi).clone()));
            enumerate_boxes(witnesses, x, attr, arity, dim + 1, next, b, out);
        }
    }
}

/// Keeps only inclusion-minimal boxes (dropping duplicates), sorted.
fn retain_minimal(boxes: Vec<BoundingBox>) -> Vec<BoundingBox> {
    let mut minimal: Vec<BoundingBox> = Vec::new();
    'outer: for b in boxes {
        let mut i = 0;
        while i < minimal.len() {
            if box_contains(&b, &minimal[i]) {
                // An existing box is inside b (or equal): b is redundant.
                continue 'outer;
            }
            if box_contains(&minimal[i], &b) {
                minimal.swap_remove(i);
                continue;
            }
            i += 1;
        }
        minimal.push(b);
    }
    minimal.sort();
    minimal
}

/// Whether `inner ⊆ outer` per dimension.
fn box_contains(outer: &[(Value, Value)], inner: &[(Value, Value)]) -> bool {
    outer.len() == inner.len()
        && outer
            .iter()
            .zip(inner)
            .all(|((olo, ohi), (ilo, ihi))| olo <= ilo && ihi <= ohi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extension::Extension;
    use whynot_relation::SchemaBuilder;

    fn s(v: &str) -> Value {
        Value::str(v)
    }

    fn paper_fixture() -> (Schema, RelId, RelId, Instance) {
        let mut b = SchemaBuilder::new();
        let cities = b.relation("Cities", ["name", "population", "country", "continent"]);
        let tc = b.relation("Train-Connections", ["city_from", "city_to"]);
        let schema = b.finish().unwrap();
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
                vec![s(name), Value::int(pop), s(country), s(continent)],
            );
        }
        for (a, b2) in [
            ("Amsterdam", "Berlin"),
            ("Berlin", "Rome"),
            ("Berlin", "Amsterdam"),
            ("New York", "San Francisco"),
            ("San Francisco", "Santa Cruz"),
            ("Tokyo", "Kyoto"),
        ] {
            inst.insert(tc, vec![s(a), s(b2)]);
        }
        (schema, cities, tc, inst)
    }

    fn set(vals: &[&str]) -> BTreeSet<Value> {
        vals.iter().map(|v| s(v)).collect()
    }

    #[test]
    fn lub_contains_its_support_set() {
        let (schema, _, _, inst) = paper_fixture();
        for x in [
            set(&["Amsterdam"]),
            set(&["Amsterdam", "Berlin"]),
            set(&["Amsterdam", "Tokyo", "Santa Cruz"]),
            set(&["nowhere"]),
        ] {
            let c = lub(&schema, &inst, &x);
            let ext = c.extension(&inst);
            assert!(ext.contains_all(x.iter()), "lub({x:?}) misses support");
        }
    }

    #[test]
    fn lub_of_singleton_is_the_nominal() {
        let (schema, _, _, inst) = paper_fixture();
        let x = set(&["Amsterdam"]);
        let c = lub(&schema, &inst, &x);
        assert_eq!(c.extension(&inst), Extension::finite([s("Amsterdam")]));
        assert!(c.parts().any(|a| matches!(a, LsAtom::Nominal(_))));
    }

    #[test]
    fn lub_of_unknown_constant_is_top() {
        let (schema, _, _, inst) = paper_fixture();
        // Two constants outside the active domain: no column contains both,
        // no nominal applies → only ⊤ remains.
        let x = set(&["nowhere", "elsewhere"]);
        let c = lub(&schema, &inst, &x);
        assert!(c.is_top());
    }

    #[test]
    fn lub_is_minimal_among_selection_free_atoms() {
        let (schema, _, _, inst) = paper_fixture();
        let x = set(&["Amsterdam", "Berlin"]);
        let c = lub(&schema, &inst, &x);
        let ext = c.extension(&inst);
        // Lemma 5.1(2): no selection-free concept strictly below contains X.
        // Since the lub is the conjunction of all covering atoms, its
        // extension equals the intersection of all covering atoms' exts.
        for rel in schema.rel_ids() {
            for attr in 0..schema.arity(rel) {
                let atom = LsConcept::proj(rel, attr);
                let aext = atom.extension(&inst);
                if aext.contains_all(x.iter()) {
                    assert!(ext.subset_of(&aext));
                }
            }
        }
        // Amsterdam & Berlin both appear in Cities.name, TC.city_from and
        // TC.city_to; San Francisco also lies in all three columns, so the
        // intersection — the lub extension — is exactly these three.
        assert_eq!(
            ext,
            Extension::finite([s("Amsterdam"), s("Berlin"), s("San Francisco")])
        );
    }

    #[test]
    fn lub_sigma_refines_lub() {
        let (schema, _, _, inst) = paper_fixture();
        for x in [
            set(&["Amsterdam"]),
            set(&["Amsterdam", "Berlin"]),
            set(&["New York", "Santa Cruz"]),
            set(&["Tokyo", "Rome"]),
        ] {
            let coarse = lub(&schema, &inst, &x).extension(&inst);
            let fine = lub_sigma(&schema, &inst, &x).extension(&inst);
            assert!(fine.subset_of(&coarse), "lubσ({x:?}) must refine lub");
            assert!(fine.contains_all(x.iter()), "lubσ({x:?}) misses support");
        }
    }

    #[test]
    fn lub_sigma_selects_tight_population_band() {
        let (schema, cities, _, inst) = paper_fixture();
        // X = {Berlin, Rome}: populations 3,502,000 and 2,753,000. The
        // minimal population box is [2753000, 3502000], which excludes all
        // other cities, so the lubσ extension is exactly X.
        let x = set(&["Berlin", "Rome"]);
        let c = lub_sigma(&schema, &inst, &x);
        assert_eq!(
            c.extension(&inst),
            Extension::finite([s("Berlin"), s("Rome")])
        );
        // And it must include a selected projection over Cities.
        assert!(c
            .parts()
            .any(|a| matches!(a, LsAtom::Proj { rel, selection, .. }
                if *rel == cities && !selection.is_none())));
    }

    #[test]
    fn lub_sigma_exhaustive_box_check() {
        // Brute-force cross-check of Lemma 5.2(2) on a small instance:
        // no box concept containing X has a strictly smaller extension.
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["a", "b"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        for (a, bb) in [(1, 10), (2, 20), (3, 10), (4, 30), (5, 20)] {
            inst.insert(r, vec![Value::int(a), Value::int(bb)]);
        }
        let x: BTreeSet<Value> = [Value::int(1), Value::int(3)].into_iter().collect();
        let fine = lub_sigma(&schema, &inst, &x).extension(&inst);
        assert!(fine.contains_all(x.iter()));

        // Enumerate every closed box over column values and check the lub
        // is below all covering ones.
        let col_a: Vec<Value> = inst.column(r, 0).into_iter().collect();
        let col_b: Vec<Value> = inst.column(r, 1).into_iter().collect();
        for alo in &col_a {
            for ahi in &col_a {
                for blo in &col_b {
                    for bhi in &col_b {
                        let sel = Selection::from_box([
                            (0, alo.clone(), ahi.clone()),
                            (1, blo.clone(), bhi.clone()),
                        ]);
                        let concept = LsConcept::proj_sel(r, 0, sel);
                        let ext = concept.extension(&inst);
                        if ext.contains_all(x.iter()) {
                            assert!(fine.subset_of(&ext), "lubσ not minimal against {concept:?}");
                        }
                    }
                }
            }
        }
        // The witnesses (1,10) and (3,10) share b=10, so the minimal box
        // a∈[1,3] ∧ b=10 excludes (2,20): the lub extension is exactly X.
        assert_eq!(fine, Extension::finite([Value::int(1), Value::int(3)]));
    }

    #[test]
    fn minimal_boxes_drop_dominated_boxes() {
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["a", "b"]);
        let _schema = b.finish().unwrap();
        let mut inst = Instance::new();
        // Two witnesses for value 1 at different b-coordinates.
        inst.insert(r, vec![Value::int(1), Value::int(10)]);
        inst.insert(r, vec![Value::int(1), Value::int(20)]);
        let x: BTreeSet<Value> = [Value::int(1)].into_iter().collect();
        let boxes = minimal_boxes(&inst, r, 0, &x);
        // Minimal boxes: b=[10,10] and b=[20,20] (each with a=[1,1]);
        // the spanning box b=[10,20] is dominated.
        assert_eq!(boxes.len(), 2);
        for bx in &boxes {
            assert_eq!(bx[0], (Value::int(1), Value::int(1)));
            assert!(bx[1].0 == bx[1].1);
        }
    }

    #[test]
    fn minimal_boxes_empty_without_witnesses() {
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["a"]);
        let _ = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(r, vec![Value::int(1)]);
        let x: BTreeSet<Value> = [Value::int(99)].into_iter().collect();
        assert!(minimal_boxes(&inst, r, 0, &x).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty support set")]
    fn lub_of_empty_set_panics() {
        let (schema, _, _, inst) = paper_fixture();
        lub(&schema, &inst, &BTreeSet::new());
    }

    #[test]
    fn try_lub_returns_none_on_empty_support() {
        // Regression: the service boundary must see an `Option`, not a
        // panic, for malformed (empty-support) requests.
        let (schema, _, _, inst) = paper_fixture();
        assert_eq!(try_lub(&schema, &inst, &BTreeSet::new()), None);
        assert_eq!(try_lub_sigma(&schema, &inst, &BTreeSet::new()), None);
        // And agrees with the panicking variants on non-empty supports.
        let x = set(&["Amsterdam", "Berlin"]);
        assert_eq!(try_lub(&schema, &inst, &x), Some(lub(&schema, &inst, &x)));
        assert_eq!(
            try_lub_sigma(&schema, &inst, &x),
            Some(lub_sigma(&schema, &inst, &x))
        );
    }
}
