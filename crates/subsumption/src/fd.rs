//! `⊑S` under functional dependencies (paper Table 1: PTIME).
//!
//! The decider chases the canonical database of `C1` with the FDs (merging
//! interval-constrained nulls), then checks each conjunct of `C2` for a
//! *witness atom* — an atom of the right relation carrying `x` at the
//! projected position whose node intervals entail the conjunct's
//! selection. All conjuncts witnessed ⟹ `Holds` (the canonical structure
//! maps homomorphically into any instance containing a `C1`-member, and
//! merges/intervals are preserved). Otherwise the decider assembles a
//! *generic completion* that kills one unwitnessed conjunct — choosing,
//! per threatening atom, an attribute whose value can escape the
//! selection — and verifies the resulting counterexample end-to-end.
//! Exotic interval interactions where no verified counterexample is found
//! yield `Unknown` (never a wrong verdict).

use crate::canonical::{Canonical, Key, NodeId};
use crate::common::{pre_check, verify_witness};
use crate::outcome::{SubsumptionOutcome, Witness};
use std::collections::BTreeMap;
use whynot_concepts::{LsAtom, LsConcept};
use whynot_relation::{Constraint, Fd, Instance, Interval, Schema, Value};

/// Decides `c1 ⊑S c2` for a schema whose constraints are functional
/// dependencies.
pub fn subsumed_under_fds(schema: &Schema, c1: &LsConcept, c2: &LsConcept) -> SubsumptionOutcome {
    if let Some(out) = pre_check(schema, c1, c2) {
        return out;
    }
    let fds: Vec<&Fd> = schema
        .constraints()
        .iter()
        .filter_map(|c| match c {
            Constraint::Fd(fd) => Some(fd),
            _ => None,
        })
        .collect();

    let Some(mut canon) = Canonical::from_concept(schema, c1) else {
        // No projection conjuncts: pre_check covered everything except the
        // unreachable combination, treat conservatively.
        return SubsumptionOutcome::Unknown("concept without projections".into());
    };
    if chase_fds(&mut canon, &fds).is_err() {
        // The chase emptied an interval: C1 is unsatisfiable under the FDs.
        return SubsumptionOutcome::Holds;
    }

    // Witness check per conjunct of C2.
    let unwitnessed: Vec<&LsAtom> = c2.parts().filter(|part| !witnessed(&canon, part)).collect();
    if unwitnessed.is_empty() {
        return SubsumptionOutcome::Holds;
    }

    // Try to refute by killing one unwitnessed conjunct.
    let mut avoid: Vec<Value> = c1.constants().into_iter().collect();
    avoid.extend(c2.constants());
    for target in &unwitnessed {
        if let Some(witness) = kill_conjunct(schema, &canon, target, &avoid) {
            if verify_witness(schema, &witness, c1, c2) {
                return SubsumptionOutcome::Fails(Box::new(witness));
            }
        }
    }
    SubsumptionOutcome::Unknown(
        "FD decider: no witnessed entailment and no verified counterexample".into(),
    )
}

/// Runs the FD chase to fixpoint. `Err` when an interval empties.
pub(crate) fn chase_fds(canon: &mut Canonical, fds: &[&Fd]) -> Result<(), crate::canonical::Unsat> {
    loop {
        let mut changed = false;
        for fd in fds {
            // Group this relation's atoms by their key vector on the FD's
            // left-hand side.
            let mut groups: BTreeMap<Vec<Key>, Vec<usize>> = BTreeMap::new();
            for (i, (rel, nodes)) in canon.atoms.iter().enumerate() {
                if *rel != fd.rel {
                    continue;
                }
                let key: Vec<Key> = fd.lhs.iter().map(|&a| canon.key(nodes[a])).collect();
                groups.entry(key).or_default().push(i);
            }
            for (_, idxs) in groups {
                if idxs.len() < 2 {
                    continue;
                }
                let first = idxs[0];
                for &other in &idxs[1..] {
                    for &a in &fd.rhs {
                        let n1 = canon.atoms[first].1[a];
                        let n2 = canon.atoms[other].1[a];
                        if canon.merge(n1, n2)? {
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            return Ok(());
        }
    }
}

/// Whether a conjunct of `C2` is witnessed by the chased canonical
/// structure.
pub(crate) fn witnessed(canon: &Canonical, part: &LsAtom) -> bool {
    match part {
        LsAtom::Nominal(c) => canon.key(canon.x) == Key::Const(c.clone()),
        LsAtom::Proj {
            rel,
            attr,
            selection,
        } => {
            let want = canon.key(canon.x);
            let sel_intervals = selection.intervals();
            canon.atoms.iter().any(|(r, nodes)| {
                *r == *rel
                    && nodes.get(*attr).is_some_and(|&n| canon.key(n) == want)
                    && sel_intervals.iter().all(|(j, iv)| {
                        nodes
                            .get(*j)
                            .is_some_and(|&n| canon.interval(n).subset_of(iv))
                    })
            })
        }
    }
}

/// Builds a counterexample completion in which `target` (an unwitnessed
/// conjunct of `C2`) is false of `x`. For a nominal target a plain generic
/// completion suffices; for a projection target every atom whose projected
/// node coincides with `x` must be pushed outside the selection on some
/// attribute (backtracking over the choices).
fn kill_conjunct(
    schema: &Schema,
    canon: &Canonical,
    target: &LsAtom,
    avoid: &[Value],
) -> Option<Witness> {
    let (rel, attr, selection) = match target {
        LsAtom::Nominal(_) => {
            // Generic completion: x either is a different point or samples
            // away from the nominal (it is in `avoid`).
            let values = canon.generic_completion(avoid, &BTreeMap::new())?;
            let instance = canon.instantiate(&values)?;
            let element = values.get(&canon.find(canon.x))?.clone();
            return Some(Witness { instance, element });
        }
        LsAtom::Proj {
            rel,
            attr,
            selection,
        } => (*rel, *attr, selection),
    };
    let sel_intervals = selection.intervals();
    let x_key = canon.key(canon.x);
    // Threatening atoms: right relation, x at the projected position.
    let threatening: Vec<&(whynot_relation::RelId, Vec<NodeId>)> = canon
        .atoms
        .iter()
        .filter(|(r, nodes)| *r == rel && nodes.get(attr).is_some_and(|&n| canon.key(n) == x_key))
        .collect();

    // Kill options per atom: (root node, allowed pieces = interval ∖ σ'_j).
    let arity = schema.arity(rel);
    let mut options: Vec<Vec<(NodeId, Vec<Interval>)>> = Vec::new();
    for (_, nodes) in &threatening {
        let mut atom_options = Vec::new();
        for (j, &node) in nodes.iter().enumerate().take(arity) {
            let Some(sigma) = sel_intervals.get(&j) else {
                continue;
            };
            let node_iv = canon.interval(node);
            if node_iv.subset_of(sigma) {
                continue; // cannot escape on this attribute
            }
            let pieces = node_iv.minus(sigma);
            if !pieces.is_empty() {
                atom_options.push((canon.find(nodes[j]), pieces));
            }
        }
        if atom_options.is_empty() {
            return None; // the atom witnesses in every completion
        }
        options.push(atom_options);
    }

    // Backtrack over kill choices (bounded: the products here are tiny in
    // practice; cap the search to stay polynomial-ish).
    let mut budget = 1024usize;
    search_kills(canon, &options, 0, &mut BTreeMap::new(), avoid, &mut budget)
}

fn search_kills(
    canon: &Canonical,
    options: &[Vec<(NodeId, Vec<Interval>)>],
    depth: usize,
    chosen: &mut BTreeMap<NodeId, Vec<Interval>>,
    avoid: &[Value],
    budget: &mut usize,
) -> Option<Witness> {
    if *budget == 0 {
        return None;
    }
    if depth == options.len() {
        *budget -= 1;
        let values = canon.generic_completion(avoid, chosen)?;
        let instance = canon.instantiate(&values)?;
        let element = values.get(&canon.find(canon.x))?.clone();
        return Some(Witness { instance, element });
    }
    for (node, pieces) in &options[depth] {
        let prev = chosen.get(node).cloned();
        let combined: Vec<Interval> = match &prev {
            None => pieces.clone(),
            Some(existing) => existing
                .iter()
                .flat_map(|e| pieces.iter().map(move |p| e.intersect(p)))
                .filter(|iv| !iv.is_empty())
                .collect(),
        };
        if combined.is_empty() {
            continue;
        }
        chosen.insert(*node, combined);
        if let Some(w) = search_kills(canon, options, depth + 1, chosen, avoid, budget) {
            return Some(w);
        }
        match prev {
            Some(p) => {
                chosen.insert(*node, p);
            }
            None => {
                chosen.remove(node);
            }
        }
    }
    None
}

/// Re-exported for the property tests: evaluates both concepts on an
/// instance and checks the inclusion (brute-force `⊑I`).
pub fn holds_on(inst: &Instance, c1: &LsConcept, c2: &LsConcept) -> bool {
    c1.extension(inst).subset_of(&c2.extension(inst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use whynot_concepts::Selection;
    use whynot_relation::{CmpOp, RelId, SchemaBuilder};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    /// Cities(name, population, country, continent) with country →
    /// continent (Figure 1's FD).
    fn cities_schema() -> (Schema, RelId) {
        let mut b = SchemaBuilder::new();
        let c = b.relation("Cities", ["name", "population", "country", "continent"]);
        b.add_fd(Fd::new(c, [2], [3]));
        (b.finish().unwrap(), c)
    }

    #[test]
    fn selection_weakening_holds() {
        let (schema, c) = cities_schema();
        // π_name(σ_{continent=Europe}(Cities)) ⊑S π_name(Cities)
        // (Example 4.9's first subsumption).
        let european = LsConcept::proj_sel(c, 0, Selection::eq(3, s("Europe")));
        let city = LsConcept::proj(c, 0);
        assert!(subsumed_under_fds(&schema, &european, &city).holds());
        // Interval weakening: population > 7M ⊑ population > 5M.
        let p7 = LsConcept::proj_sel(
            c,
            0,
            Selection::new([(1, CmpOp::Gt, Value::int(7_000_000))]),
        );
        let p5 = LsConcept::proj_sel(
            c,
            0,
            Selection::new([(1, CmpOp::Gt, Value::int(5_000_000))]),
        );
        assert!(subsumed_under_fds(&schema, &p7, &p5).holds());
        let out = subsumed_under_fds(&schema, &p5, &p7);
        assert!(
            out.fails(),
            "weaker selection cannot entail stronger: {out:?}"
        );
    }

    #[test]
    fn fd_merges_create_entailments() {
        let (schema, c) = cities_schema();
        // With country → continent: a Dutch city in one row and the same
        // projection with continent constrained — the FD does NOT relate
        // them (different rows can differ on name), but two conjuncts over
        // the same country value merge their continent nodes:
        //   π_name(σ_{country=NL}(Cities)) ⊓ π_name(σ_{country=NL, continent=Europe}(Cities))
        //   ⊑S π_name(σ_{country=NL, continent=Europe}(Cities))
        // because the FD forces both rows (key NL) to share the continent,
        // whose interval is pinned to Europe.
        let nl = LsConcept::proj_sel(c, 0, Selection::eq(2, s("Netherlands")));
        let nl_eu = LsConcept::proj_sel(
            c,
            0,
            Selection::new([
                (2, CmpOp::Eq, s("Netherlands")),
                (3, CmpOp::Eq, s("Europe")),
            ]),
        );
        let conj = nl.and(&nl_eu);
        let out = subsumed_under_fds(&schema, &conj, &nl_eu);
        assert!(
            out.holds(),
            "FD chase should witness the entailment: {out:?}"
        );
        // Without the second conjunct the entailment fails (a witness
        // instance places the NL row outside Europe).
        let out = subsumed_under_fds(&schema, &nl, &nl_eu);
        assert!(out.fails(), "{out:?}");
    }

    #[test]
    fn fd_unsat_makes_everything_hold() {
        let (schema, c) = cities_schema();
        // Two conjuncts pin the same country to different continents: the
        // FD chase empties the merged continent interval, so C1 ≡ ⊥.
        let eu = LsConcept::proj_sel(
            c,
            0,
            Selection::new([(2, CmpOp::Eq, s("Japan")), (3, CmpOp::Eq, s("Europe"))]),
        );
        let asia = LsConcept::proj_sel(
            c,
            0,
            Selection::new([(2, CmpOp::Eq, s("Japan")), (3, CmpOp::Eq, s("Asia"))]),
        );
        let dead = eu.and(&asia);
        let arbitrary = LsConcept::nominal(s("whatever"));
        assert!(subsumed_under_fds(&schema, &dead, &arbitrary).holds());
    }

    #[test]
    fn failing_subsumption_produces_verified_witness() {
        let (schema, c) = cities_schema();
        let city = LsConcept::proj(c, 0);
        let european = LsConcept::proj_sel(c, 0, Selection::eq(3, s("Europe")));
        let out = subsumed_under_fds(&schema, &city, &european);
        let w = out.witness().expect("must fail");
        assert!(w.instance.satisfies_constraints(&schema));
        assert!(city.extension(&w.instance).contains(&w.element));
        assert!(!european.extension(&w.instance).contains(&w.element));
    }

    #[test]
    fn cross_relation_subsumption_fails_without_constraints() {
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["a"]);
        let t = b.relation("T", ["a"]);
        let schema = b.finish().unwrap();
        let out = subsumed_under_fds(&schema, &LsConcept::proj(r, 0), &LsConcept::proj(t, 0));
        assert!(out.fails());
    }

    #[test]
    fn covered_conjunct_coverage_is_not_misreported() {
        // The incompleteness corner: two atoms whose escape regions are
        // complementary. C1 = π_a(σ_{b≤5}(R)) ⊓ π_a(σ_{b≥5}(R)) — wait, we
        // need a *shared* node, so use an FD to merge the b-columns.
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["a", "b"]);
        b.add_fd(Fd::new(r, [0], [1])); // a → b
        let schema = b.finish().unwrap();
        // Both conjuncts project position 0 with value x, so the FD merges
        // their b-nodes into one node n with interval (-∞,9] ∩ [1,∞).
        let le9 = LsConcept::proj_sel(r, 0, Selection::new([(1, CmpOp::Le, Value::int(9))]));
        let ge1 = LsConcept::proj_sel(r, 0, Selection::new([(1, CmpOp::Ge, Value::int(1))]));
        let c1 = le9.and(&ge1);
        // Target: b ∈ [1,9] — witnessed after merge (node interval [1,9]).
        let mid = LsConcept::proj_sel(
            r,
            0,
            Selection::new([(1, CmpOp::Ge, Value::int(1)), (1, CmpOp::Le, Value::int(9))]),
        );
        assert!(subsumed_under_fds(&schema, &c1, &mid).holds());
        // Target: b = 5 — not witnessed, and a counterexample exists
        // (n = 2, say).
        let five = LsConcept::proj_sel(r, 0, Selection::new([(1, CmpOp::Eq, Value::int(5))]));
        let out = subsumed_under_fds(&schema, &c1, &five);
        assert!(out.fails(), "{out:?}");
    }

    #[test]
    fn nominal_target_killed_generically() {
        let (schema, c) = cities_schema();
        let city = LsConcept::proj(c, 0);
        let rome = LsConcept::nominal(s("Rome"));
        let out = subsumed_under_fds(&schema, &city, &rome);
        assert!(out.fails());
        let w = out.witness().unwrap();
        assert_ne!(w.element, s("Rome"));
    }

    #[test]
    fn reflexivity_and_transitivity_spot_checks() {
        let (schema, c) = cities_schema();
        let concepts = [
            LsConcept::proj(c, 0),
            LsConcept::proj_sel(c, 0, Selection::eq(3, s("Europe"))),
            LsConcept::proj_sel(
                c,
                0,
                Selection::new([(3, CmpOp::Eq, s("Europe")), (1, CmpOp::Gt, Value::int(100))]),
            ),
        ];
        for concept in &concepts {
            assert!(subsumed_under_fds(&schema, concept, concept).holds());
        }
        // c2 ⊑ c1 and c3 ⊑ c2 pairwise (stronger selections below).
        assert!(subsumed_under_fds(&schema, &concepts[2], &concepts[1]).holds());
        assert!(subsumed_under_fds(&schema, &concepts[1], &concepts[0]).holds());
        assert!(subsumed_under_fds(&schema, &concepts[2], &concepts[0]).holds());
    }
}
