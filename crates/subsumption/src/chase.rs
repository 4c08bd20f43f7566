//! Bounded-chase `⊑S` for mixed constraint classes (paper Table 1:
//! FDs + IDs is **undecidable**; adding views keeps it so).
//!
//! The decider unfolds view atoms away, then chases each left-hand
//! disjunct's canonical database with:
//!
//! * **FD rounds** — node merges with interval intersection,
//! * **ID rounds** — new atoms with fresh nulls,
//! * **view rounds** — certified view atoms: whenever a view definition
//!   disjunct embeds into the structure by a key-respecting homomorphism
//!   with entailed comparisons, the view tuple is present in *every*
//!   completion, so a view atom is added (this is what lets inclusion
//!   dependencies on view relations fire, e.g. Figure 1's
//!   `BigCity[name] ⊆ TC[city_from]`),
//!
//! up to a configurable bound. A right-hand disjunct certified by such an
//! embedding holds in every completion, so `Holds` answers are sound at
//! any depth. `Fails` answers are only emitted from a **terminated**
//! chase whose generic completion passes end-to-end verification; the
//! completion samples unconstrained nulls *away* from every comparison
//! interval mentioned by the target or by a view definition, so witnesses
//! do not accidentally trip view thresholds. Exhausting the bound yields
//! `Unknown` — the honest outcome for an undecidable problem.

use crate::canonical::{Canonical, Key, NodeId};
use crate::common::{concept_to_cq, pre_check, verify_witness};
use crate::fd::chase_fds;
use crate::outcome::{SubsumptionOutcome, Witness};
use std::collections::{BTreeMap, BTreeSet};
use whynot_concepts::LsConcept;
use whynot_relation::{
    materialize_views, unfold_cq, unfold_ucq, view_partition, Constraint, Cq, Fd, Ind, Instance,
    Interval, RelId, Schema, Term, Ucq, Value, Var,
};

/// Resource limits for the bounded chase.
#[derive(Clone, Copy, Debug)]
pub struct ChaseLimits {
    /// Maximum number of FD+ID+view chase rounds.
    pub max_rounds: usize,
    /// Maximum number of atoms in the chased structure.
    pub max_atoms: usize,
}

impl Default for ChaseLimits {
    fn default() -> Self {
        ChaseLimits {
            max_rounds: 16,
            max_atoms: 4096,
        }
    }
}

/// Decides `c1 ⊑S c2` for schemas mixing FDs, IDs and view definitions,
/// within the given chase limits.
pub fn subsumed_bounded(
    schema: &Schema,
    c1: &LsConcept,
    c2: &LsConcept,
    limits: ChaseLimits,
) -> SubsumptionOutcome {
    if let Some(out) = pre_check(schema, c1, c2) {
        return out;
    }
    let (Some(q1), Some(q2)) = (concept_to_cq(schema, c1), concept_to_cq(schema, c2)) else {
        return SubsumptionOutcome::Unknown("concept without projections".into());
    };
    let u1 = match unfold_cq(schema, &q1) {
        Ok(u) => u,
        Err(e) => return SubsumptionOutcome::Unknown(format!("unfolding failed: {e}")),
    };
    let u2 = match unfold_ucq(schema, &Ucq::single(q2)) {
        Ok(u) => u,
        Err(e) => return SubsumptionOutcome::Unknown(format!("unfolding failed: {e}")),
    };
    let Ok(views) = unfolded_view_definitions(schema) else {
        return SubsumptionOutcome::Unknown("view unfolding failed".into());
    };
    let fds: Vec<&Fd> = schema
        .constraints()
        .iter()
        .filter_map(|c| match c {
            Constraint::Fd(fd) => Some(fd),
            _ => None,
        })
        .collect();
    let inds: Vec<&Ind> = schema
        .constraints()
        .iter()
        .filter_map(|c| match c {
            Constraint::Ind(i) => Some(i),
            _ => None,
        })
        .collect();

    let mut avoid: Vec<Value> = c1.constants().into_iter().collect();
    avoid.extend(c2.constants());
    // Comparison intervals to stay away from when sampling free nulls:
    // the target's and every view definition's.
    let mut discouraged: Vec<Interval> = comparison_intervals(&u2);
    for (_, def) in &views {
        discouraged.extend(comparison_intervals(def));
    }
    let view_rels: BTreeSet<RelId> = views.iter().map(|(rel, _)| *rel).collect();

    let ctx = ChaseCtx {
        schema,
        fds: &fds,
        inds: &inds,
        views: &views,
        view_rels: &view_rels,
        limits,
        avoid: &avoid,
        discouraged: &discouraged,
    };
    for phi in &u1.disjuncts {
        match check_disjunct(&ctx, phi, &u2, c1, c2) {
            DisjunctVerdict::Entailed => {}
            DisjunctVerdict::Refuted(w) => return SubsumptionOutcome::Fails(w),
            DisjunctVerdict::Unknown(msg) => return SubsumptionOutcome::Unknown(msg),
        }
    }
    SubsumptionOutcome::Holds
}

/// The verdict of [`satisfiable_under`].
#[derive(Clone, Debug)]
pub enum Satisfiability {
    /// Some constraint-satisfying instance answers the query; a verified
    /// witness instance is attached when construction succeeded.
    Satisfiable(Box<Instance>),
    /// No constraint-satisfying instance answers the query.
    Unsatisfiable,
    /// The bounded chase could not settle the question.
    Unknown(String),
}

/// Whether a conjunctive query (with comparisons) is satisfiable over the
/// instances of a schema with FDs, IDs and view definitions — the engine
/// behind §6's *strong explanations* in `whynot-core`.
///
/// Inclusion dependencies never make a CQ unsatisfiable; functional
/// dependencies can (by forcing conflicting constants/intervals together),
/// which the FD chase detects soundly at any depth. `Satisfiable` verdicts
/// carry an instance verified to satisfy every constraint.
pub fn satisfiable_under(schema: &Schema, cq: &Cq, limits: ChaseLimits) -> Satisfiability {
    let unfolded = match unfold_cq(schema, cq) {
        Ok(u) => u,
        Err(e) => return Satisfiability::Unknown(format!("unfolding failed: {e}")),
    };
    if unfolded.disjuncts.is_empty() {
        return Satisfiability::Unsatisfiable;
    }
    let Ok(views) = unfolded_view_definitions(schema) else {
        return Satisfiability::Unknown("view unfolding failed".into());
    };
    let fds: Vec<&Fd> = schema
        .constraints()
        .iter()
        .filter_map(|c| match c {
            Constraint::Fd(fd) => Some(fd),
            _ => None,
        })
        .collect();
    let inds: Vec<&Ind> = schema
        .constraints()
        .iter()
        .filter_map(|c| match c {
            Constraint::Ind(i) => Some(i),
            _ => None,
        })
        .collect();
    let view_rels: BTreeSet<RelId> = views.iter().map(|(rel, _)| *rel).collect();
    let mut discouraged: Vec<Interval> = Vec::new();
    for (_, def) in &views {
        discouraged.extend(comparison_intervals(def));
    }
    let avoid: Vec<Value> = cq.constants().into_iter().collect();

    let mut all_unsat = true;
    for phi in &unfolded.disjuncts {
        if !phi.comparisons_satisfiable() {
            continue;
        }
        let mut canon = match Canonical::from_cq(schema, phi) {
            Err(_) => continue, // comparison conflict: this disjunct is dead
            Ok(None) => {
                // No atoms and satisfiable comparisons: the empty instance
                // (plus views) answers it.
                return match materialize_views(schema, &Instance::new()) {
                    Ok(inst) => Satisfiability::Satisfiable(Box::new(inst)),
                    Err(_) => Satisfiability::Unknown("empty materialization failed".into()),
                };
            }
            Ok(Some(c)) => c,
        };
        let mut dead = false;
        let mut terminated = false;
        for _ in 0..limits.max_rounds {
            if chase_fds(&mut canon, &fds).is_err() {
                dead = true; // FDs refute this disjunct
                break;
            }
            let Some(by_inds) = ind_round(schema, &mut canon, &inds, limits.max_atoms) else {
                all_unsat = false;
                dead = true;
                break;
            };
            let Some(by_views) = view_round(&mut canon, &views, limits.max_atoms) else {
                all_unsat = false;
                dead = true;
                break;
            };
            if by_inds + by_views == 0 {
                terminated = true;
                break;
            }
        }
        if dead {
            continue;
        }
        if !terminated {
            all_unsat = false;
            continue;
        }
        // Terminated: attempt a verified witness.
        let overrides = discouraged_overrides(&canon, &discouraged);
        let completion = canon
            .generic_completion(&avoid, &overrides)
            .or_else(|| canon.generic_completion(&avoid, &BTreeMap::new()));
        if let Some(values) = completion {
            if let Some(base) = instantiate_base(&canon, &values, &view_rels) {
                if let Ok(full) = materialize_views(schema, &base) {
                    if full.satisfies_constraints(schema) && !phi.eval(&full).is_empty() {
                        return Satisfiability::Satisfiable(Box::new(full));
                    }
                }
            }
        }
        all_unsat = false; // the disjunct looked satisfiable, unverified
    }
    if all_unsat {
        Satisfiability::Unsatisfiable
    } else {
        Satisfiability::Unknown("no disjunct produced a verified witness".into())
    }
}

struct ChaseCtx<'a> {
    schema: &'a Schema,
    fds: &'a [&'a Fd],
    inds: &'a [&'a Ind],
    views: &'a [(RelId, Ucq)],
    view_rels: &'a BTreeSet<RelId>,
    limits: ChaseLimits,
    avoid: &'a [Value],
    discouraged: &'a [Interval],
}

enum DisjunctVerdict {
    Entailed,
    Refuted(Box<Witness>),
    Unknown(String),
}

fn check_disjunct(
    ctx: &ChaseCtx<'_>,
    phi: &Cq,
    u2: &Ucq,
    c1: &LsConcept,
    c2: &LsConcept,
) -> DisjunctVerdict {
    let mut canon = match Canonical::from_cq(ctx.schema, phi) {
        Err(_) => return DisjunctVerdict::Entailed, // unsatisfiable disjunct
        Ok(None) => return atomless_disjunct(ctx.schema, phi, c1, c2),
        Ok(Some(c)) => c,
    };

    // Alternate FD merges, ID extensions, and certified view atoms.
    let mut terminated = false;
    for _round in 0..ctx.limits.max_rounds {
        if chase_fds(&mut canon, ctx.fds).is_err() {
            return DisjunctVerdict::Entailed; // disjunct emptied
        }
        let Some(by_inds) = ind_round(ctx.schema, &mut canon, ctx.inds, ctx.limits.max_atoms)
        else {
            return DisjunctVerdict::Unknown(format!(
                "chase exceeded the atom limit ({})",
                ctx.limits.max_atoms
            ));
        };
        let Some(by_views) = view_round(&mut canon, ctx.views, ctx.limits.max_atoms) else {
            return DisjunctVerdict::Unknown(format!(
                "view population exceeded the atom limit ({})",
                ctx.limits.max_atoms
            ));
        };
        if by_inds + by_views == 0 {
            terminated = true;
            break;
        }
    }

    // Certification: some right-hand disjunct embeds into the chased
    // structure with the head landing on x.
    if u2.disjuncts.iter().any(|psi| embeds(&canon, psi)) {
        return DisjunctVerdict::Entailed;
    }
    if !terminated {
        return DisjunctVerdict::Unknown(format!(
            "chase bound of {} rounds exhausted without certification",
            ctx.limits.max_rounds
        ));
    }

    // Terminated chase, nothing certified: build a counterexample. Free
    // nulls sample outside the discouraged comparison intervals so the
    // witness neither answers the target nor trips a view threshold it
    // does not have to.
    let overrides = discouraged_overrides(&canon, ctx.discouraged);
    let completion = canon
        .generic_completion(ctx.avoid, &overrides)
        .or_else(|| canon.generic_completion(ctx.avoid, &BTreeMap::new()));
    let Some(values) = completion else {
        return DisjunctVerdict::Unknown("generic completion failed (value synthesis)".into());
    };
    let Some(base) = instantiate_base(&canon, &values, ctx.view_rels) else {
        return DisjunctVerdict::Unknown("instantiation failed".into());
    };
    let Ok(full) = materialize_views(ctx.schema, &base) else {
        return DisjunctVerdict::Unknown("view materialization failed on witness".into());
    };
    let Some(element) = values.get(&canon.find(canon.x)).cloned() else {
        return DisjunctVerdict::Unknown("head node unassigned".into());
    };
    let witness = Witness {
        instance: full,
        element,
    };
    if verify_witness(ctx.schema, &witness, c1, c2) {
        DisjunctVerdict::Refuted(Box::new(witness))
    } else {
        DisjunctVerdict::Unknown("terminated chase produced an unverifiable counterexample".into())
    }
}

/// Constant-headed, body-free disjuncts: the head value is in `[[c1]]` on
/// every instance; decide membership on the smallest instance and use
/// monotonicity.
fn atomless_disjunct(schema: &Schema, phi: &Cq, c1: &LsConcept, c2: &LsConcept) -> DisjunctVerdict {
    let Some(Term::Const(c)) = phi.head.first() else {
        return DisjunctVerdict::Unknown("atomless disjunct with variable head".into());
    };
    let Ok(empty) = materialize_views(schema, &Instance::new()) else {
        return DisjunctVerdict::Unknown("cannot materialize empty instance".into());
    };
    if c2.extension(&empty).contains(c) {
        DisjunctVerdict::Entailed
    } else {
        let w = Witness {
            instance: empty,
            element: c.clone(),
        };
        if verify_witness(schema, &w, c1, c2) {
            DisjunctVerdict::Refuted(Box::new(w))
        } else {
            DisjunctVerdict::Unknown("empty-instance witness failed verification".into())
        }
    }
}

/// The view definitions with their bodies unfolded down to the data
/// schema, paired with the view relation.
fn unfolded_view_definitions(
    schema: &Schema,
) -> Result<Vec<(RelId, Ucq)>, whynot_relation::RelError> {
    let part = view_partition(schema);
    let mut out = Vec::new();
    for (&view, &idx) in &part.views {
        let Constraint::View(def) = &schema.constraints()[idx] else {
            unreachable!()
        };
        out.push((view, unfold_ucq(schema, &def.definition)?));
    }
    Ok(out)
}

fn comparison_intervals(ucq: &Ucq) -> Vec<Interval> {
    let mut out = Vec::new();
    for d in &ucq.disjuncts {
        for iv in d.var_intervals().into_values() {
            if iv != Interval::full() {
                out.push(iv);
            }
        }
    }
    out
}

/// For every free root node, the pieces of its interval lying outside all
/// discouraged intervals (when non-empty).
fn discouraged_overrides(
    canon: &Canonical,
    discouraged: &[Interval],
) -> BTreeMap<NodeId, Vec<Interval>> {
    let mut out = BTreeMap::new();
    if discouraged.is_empty() {
        return out;
    }
    for node in 0..canon.num_nodes() {
        if canon.find(node) != node {
            continue;
        }
        let iv = canon.interval(node);
        if iv.as_point().is_some() {
            continue;
        }
        let mut pieces = vec![iv.clone()];
        for d in discouraged {
            pieces = pieces.into_iter().flat_map(|p| p.minus(d)).collect();
            if pieces.is_empty() {
                break;
            }
        }
        if !pieces.is_empty() {
            out.insert(node, pieces);
        }
    }
    out
}

/// Instantiates only the data-schema atoms (view tuples are recomputed by
/// materialization).
fn instantiate_base(
    canon: &Canonical,
    values: &BTreeMap<NodeId, Value>,
    view_rels: &BTreeSet<RelId>,
) -> Option<Instance> {
    let mut inst = Instance::new();
    for (rel, nodes) in &canon.atoms {
        if view_rels.contains(rel) {
            continue;
        }
        let tuple: Option<Vec<Value>> = nodes
            .iter()
            .map(|&n| values.get(&canon.find(n)).cloned())
            .collect();
        inst.insert(*rel, tuple?);
    }
    Some(inst)
}

/// One inclusion-dependency round: for every source atom lacking a target
/// atom agreeing on the propagated key positions, add one (fresh nodes
/// elsewhere). Returns atoms added, or `None` past the atom limit.
fn ind_round(
    schema: &Schema,
    canon: &mut Canonical,
    inds: &[&Ind],
    max_atoms: usize,
) -> Option<usize> {
    let mut added = 0usize;
    for ind in inds {
        let sources: Vec<Vec<NodeId>> = canon
            .atoms
            .iter()
            .filter(|(r, _)| *r == ind.from)
            .map(|(_, nodes)| ind.from_attrs.iter().map(|&a| nodes[a]).collect())
            .collect();
        for src in sources {
            let src_keys: Vec<Key> = src.iter().map(|&n| canon.key(n)).collect();
            let satisfied = canon.atoms.iter().any(|(r, nodes)| {
                *r == ind.to
                    && ind
                        .to_attrs
                        .iter()
                        .zip(&src_keys)
                        .all(|(&b, k)| canon.key(nodes[b]) == *k)
            });
            if satisfied {
                continue;
            }
            if canon.atoms.len() >= max_atoms {
                return None;
            }
            let arity = schema.arity(ind.to);
            let mut nodes: Vec<NodeId> = (0..arity).map(|_| canon.add_node()).collect();
            for (&src_node, &dst) in src.iter().zip(&ind.to_attrs) {
                nodes[dst] = src_node;
            }
            canon.add_atom(ind.to, nodes);
            added += 1;
        }
    }
    Some(added)
}

/// One view round: add a certified view atom for every embedding of a view
/// definition disjunct into the structure. Returns atoms added, or `None`
/// past the atom limit.
fn view_round(canon: &mut Canonical, views: &[(RelId, Ucq)], max_atoms: usize) -> Option<usize> {
    let mut added = 0usize;
    for (view, def) in views {
        let mut new_heads: Vec<Vec<Key>> = Vec::new();
        for psi in &def.disjuncts {
            for binding in embeddings(canon, psi, 64) {
                let head_keys: Option<Vec<Key>> = psi
                    .head
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => Some(Key::Const(c.clone())),
                        Term::Var(v) => binding.get(v).cloned(),
                    })
                    .collect();
                if let Some(keys) = head_keys {
                    new_heads.push(keys);
                }
            }
        }
        for keys in new_heads {
            // Skip if an atom with these keys already exists.
            let exists = canon.atoms.iter().any(|(r, nodes)| {
                *r == *view
                    && nodes.len() == keys.len()
                    && nodes.iter().zip(&keys).all(|(&n, k)| canon.key(n) == *k)
            });
            if exists {
                continue;
            }
            if canon.atoms.len() >= max_atoms {
                return None;
            }
            let nodes: Vec<NodeId> = keys
                .iter()
                .map(|k| match k {
                    Key::Node(root) => *root,
                    Key::Const(c) => {
                        let n = canon.add_node();
                        // Pinning a fresh node cannot fail.
                        canon
                            .constrain(n, &Interval::point(c.clone()))
                            .expect("fresh node");
                        n
                    }
                })
                .collect();
            canon.add_atom(*view, nodes);
            added += 1;
        }
    }
    Some(added)
}

/// Whether `psi` embeds into the canonical structure by a key-respecting
/// homomorphism with the head landing on `x` and comparisons entailed —
/// certifying that `psi` answers `x` in **every** completion.
fn embeds(canon: &Canonical, psi: &Cq) -> bool {
    let mut binding: BTreeMap<Var, Key> = BTreeMap::new();
    let x_key = canon.key(canon.x);
    match psi.head.first() {
        Some(Term::Var(v)) => {
            binding.insert(*v, x_key);
        }
        Some(Term::Const(c)) => {
            if x_key != Key::Const(c.clone()) {
                return false;
            }
        }
        None => return false,
    }
    let mut found = false;
    embed_atoms(canon, psi, 0, &mut binding, &mut |_| {
        found = true;
        false
    });
    found
}

/// All (up to `limit`) embeddings of `psi`'s body, ignoring its head.
fn embeddings(canon: &Canonical, psi: &Cq, limit: usize) -> Vec<BTreeMap<Var, Key>> {
    let mut out = Vec::new();
    let mut binding: BTreeMap<Var, Key> = BTreeMap::new();
    embed_atoms(canon, psi, 0, &mut binding, &mut |b| {
        out.push(b.clone());
        out.len() < limit
    });
    out
}

/// Backtracking matcher; `on_match` returns `false` to stop the search.
fn embed_atoms(
    canon: &Canonical,
    psi: &Cq,
    idx: usize,
    binding: &mut BTreeMap<Var, Key>,
    on_match: &mut dyn FnMut(&BTreeMap<Var, Key>) -> bool,
) -> bool {
    if idx == psi.atoms.len() {
        // All atoms placed: comparisons must be entailed in every
        // completion.
        let entailed = psi.comparisons.iter().all(|cmp| {
            let want = Interval::from_comparison(cmp.op, cmp.value.clone());
            match binding.get(&cmp.var) {
                Some(Key::Const(v)) => want.contains(v),
                Some(Key::Node(root)) => canon.interval(*root).subset_of(&want),
                None => false,
            }
        });
        if !entailed {
            return true; // keep searching
        }
        return on_match(binding);
    }
    let atom = &psi.atoms[idx];
    let candidates: Vec<(RelId, Vec<NodeId>)> = canon
        .atoms
        .iter()
        .filter(|(r, nodes)| *r == atom.rel && nodes.len() == atom.args.len())
        .cloned()
        .collect();
    for (_, nodes) in candidates {
        let mut newly_bound: Vec<Var> = Vec::new();
        let mut ok = true;
        for (arg, &node) in atom.args.iter().zip(&nodes) {
            let key = canon.key(node);
            match arg {
                Term::Const(c) => {
                    if key != Key::Const(c.clone()) {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => match binding.get(v) {
                    Some(existing) => {
                        if *existing != key {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        binding.insert(*v, key);
                        newly_bound.push(*v);
                    }
                },
            }
        }
        let keep_going = !ok || embed_atoms(canon, psi, idx + 1, binding, on_match);
        for v in &newly_bound {
            binding.remove(v);
        }
        if !keep_going {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use whynot_concepts::Selection;
    use whynot_relation::{Atom, CmpOp, Comparison, SchemaBuilder, ViewDef};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    fn decide(schema: &Schema, c1: &LsConcept, c2: &LsConcept) -> SubsumptionOutcome {
        subsumed_bounded(schema, c1, c2, ChaseLimits::default())
    }

    /// The complete Figure 1 schema: views + FD + IDs (class `Mixed`).
    fn figure_1_full() -> (Schema, RelId, RelId, RelId, RelId) {
        let mut b = SchemaBuilder::new();
        let cities = b.relation("Cities", ["name", "population", "country", "continent"]);
        let tc = b.relation("Train-Connections", ["city_from", "city_to"]);
        let big = b.relation("BigCity", ["name"]);
        let eu = b.relation("EuropeanCountry", ["name"]);
        let reach = b.relation("Reachable", ["city_from", "city_to"]);
        let (x, y, z, w) = (Var(0), Var(1), Var(2), Var(3));
        b.add_view(ViewDef::new(
            big,
            Ucq::single(Cq::new(
                [Term::Var(x)],
                [Atom::new(
                    cities,
                    [Term::Var(x), Term::Var(y), Term::Var(z), Term::Var(w)],
                )],
                [Comparison::new(y, CmpOp::Ge, Value::int(5_000_000))],
            )),
        ));
        b.add_view(ViewDef::new(
            eu,
            Ucq::single(Cq::new(
                [Term::Var(z)],
                [Atom::new(
                    cities,
                    [Term::Var(x), Term::Var(y), Term::Var(z), Term::Var(w)],
                )],
                [Comparison::new(w, CmpOp::Eq, s("Europe"))],
            )),
        ));
        b.add_view(ViewDef::new(
            reach,
            Ucq::new([
                Cq::new(
                    [Term::Var(x), Term::Var(y)],
                    [Atom::new(tc, [Term::Var(x), Term::Var(y)])],
                    [],
                ),
                Cq::new(
                    [Term::Var(x), Term::Var(y)],
                    [
                        Atom::new(tc, [Term::Var(x), Term::Var(z)]),
                        Atom::new(tc, [Term::Var(z), Term::Var(y)]),
                    ],
                    [],
                ),
            ]),
        ));
        b.add_fd(Fd::new(cities, [2], [3])); // country → continent
        b.add_ind(Ind::new(big, [0], tc, [0]));
        b.add_ind(Ind::new(tc, [0], cities, [0]));
        b.add_ind(Ind::new(tc, [1], cities, [0]));
        let schema = b.finish().unwrap();
        (schema, cities, tc, big, reach)
    }

    #[test]
    fn figure_1_is_mixed_class() {
        let (schema, ..) = figure_1_full();
        assert_eq!(
            *schema.constraint_class(),
            whynot_relation::ConstraintClass::Mixed
        );
    }

    #[test]
    fn example_4_9_all_four_subsumptions() {
        let (schema, cities, tc, big, _) = figure_1_full();
        // (1) π_name(σ_{continent=Europe}(Cities)) ⊑S π_name(Cities).
        let european = LsConcept::proj_sel(cities, 0, Selection::eq(3, s("Europe")));
        assert!(decide(&schema, &european, &LsConcept::proj(cities, 0)).holds());
        // (2) π_name(σ_{population>7000000}(Cities)) ⊑S π_1(BigCity).
        let seven = LsConcept::proj_sel(
            cities,
            0,
            Selection::new([(1, CmpOp::Gt, Value::int(7_000_000))]),
        );
        let out = decide(&schema, &seven, &LsConcept::proj(big, 0));
        assert!(out.holds(), "{out:?}");
        // (3) π_1(BigCity) ⊑S π_name(Cities).
        let out = decide(
            &schema,
            &LsConcept::proj(big, 0),
            &LsConcept::proj(cities, 0),
        );
        assert!(out.holds(), "{out:?}");
        // (4) π_1(BigCity) ⊑S π_city_from(Train-Connections) — through the
        // inclusion dependency on the *view* relation.
        let out = decide(&schema, &LsConcept::proj(big, 0), &LsConcept::proj(tc, 0));
        assert!(out.holds(), "{out:?}");
    }

    #[test]
    fn example_4_9_non_subsumptions_fail() {
        let (schema, cities, _, big, reach) = figure_1_full();
        // Cities are not all big.
        let out = decide(
            &schema,
            &LsConcept::proj(cities, 0),
            &LsConcept::proj(big, 0),
        );
        assert!(out.fails(), "{out:?}");
        // Reachable-from-Amsterdam ⊄S reachable-from-Berlin (Example 4.9:
        // holds w.r.t. OI on the paper's instance but NOT w.r.t. OS).
        let from_ams = LsConcept::proj_sel(reach, 1, Selection::eq(0, s("Amsterdam")));
        let from_ber = LsConcept::proj_sel(reach, 1, Selection::eq(0, s("Berlin")));
        let out = decide(&schema, &from_ams, &from_ber);
        assert!(out.fails(), "{out:?}");
    }

    #[test]
    fn fd_id_interaction() {
        // R(a,b) with a → b and R[a] ⊆ T[u], T unary — basic mixed class.
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["a", "b"]);
        let t = b.relation("T", ["u"]);
        b.add_fd(Fd::new(r, [0], [1]));
        b.add_ind(Ind::new(r, [0], t, [0]));
        let schema = b.finish().unwrap();
        assert_eq!(
            *schema.constraint_class(),
            whynot_relation::ConstraintClass::FdsAndInds
        );
        // π_a(R) ⊑S π_u(T) via the ID.
        assert!(decide(&schema, &LsConcept::proj(r, 0), &LsConcept::proj(t, 0)).holds());
        // π_u(T) ⊑S π_a(R) fails.
        let out = decide(&schema, &LsConcept::proj(t, 0), &LsConcept::proj(r, 0));
        assert!(out.fails(), "{out:?}");
        // FD merge + entailment: two conjuncts with the same key share b.
        let le = LsConcept::proj_sel(r, 0, Selection::new([(1, CmpOp::Le, Value::int(9))]));
        let ge = LsConcept::proj_sel(r, 0, Selection::new([(1, CmpOp::Ge, Value::int(1))]));
        let band = LsConcept::proj_sel(
            r,
            0,
            Selection::new([(1, CmpOp::Ge, Value::int(1)), (1, CmpOp::Le, Value::int(9))]),
        );
        assert!(decide(&schema, &le.and(&ge), &band).holds());
    }

    #[test]
    fn cyclic_ids_hit_the_bound() {
        // R[b] ⊆ R[a]: the chase runs forever (each new atom's b-column
        // spawns another atom). The decider must answer Unknown for a
        // question whose refutation needs a terminated chase.
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["a", "b"]);
        let t = b.relation("T", ["u"]);
        b.add_ind(Ind::new(r, [1], r, [0]));
        let schema = b.finish().unwrap();
        let out = decide(&schema, &LsConcept::proj(r, 0), &LsConcept::proj(t, 0));
        assert!(out.unknown(), "{out:?}");
        // But certifiable subsumptions still hold at shallow depth.
        assert!(decide(&schema, &LsConcept::proj(r, 1), &LsConcept::proj(r, 0)).holds());
    }

    #[test]
    fn witnesses_satisfy_all_constraint_kinds() {
        let (schema, cities, _, big, _) = figure_1_full();
        let out = decide(
            &schema,
            &LsConcept::proj(cities, 0),
            &LsConcept::proj(big, 0),
        );
        let w = out.witness().expect("fails");
        assert!(
            w.instance.satisfies_constraints(&schema),
            "{}",
            w.instance.display(&schema)
        );
    }

    #[test]
    fn view_triggered_inclusion_dependency_in_witness() {
        // A witness with a big city must include its outgoing connection:
        // π_name(σ_{population≥6000000}(Cities)) ⊄S π_city_to(TC), and the
        // witness still satisfies BigCity[name] ⊆ TC[city_from].
        let (schema, cities, tc, _, _) = figure_1_full();
        let big_sel = LsConcept::proj_sel(
            cities,
            0,
            Selection::new([(1, CmpOp::Ge, Value::int(6_000_000))]),
        );
        let out = decide(&schema, &big_sel, &LsConcept::proj(tc, 1));
        let w = out.witness().expect("should fail with witness");
        assert!(w.instance.satisfies_constraints(&schema));
        // The witness's city (population ≥ 6M) is a BigCity, so a TC row
        // departing from it must exist.
        assert!(w.instance.tuples(tc).any(|t| t[0] == w.element));
    }
}
