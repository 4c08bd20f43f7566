//! Variations of the framework (paper §6): short explanations,
//! irredundant and minimized explanations, cardinality-based preference,
//! and strong explanations.

use crate::exhaustive::{build_candidates, complete, explanation_at, mask_words, Candidates};
use crate::incremental::incremental_search_kind;
use crate::ontology::{FiniteOntology, Ontology};
use crate::whynot::{Explanation, WhyNotInstance};
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::sync::Arc;
use whynot_concepts::{
    kernels, simplify, ExtensionTable, LsAtom, LsConcept, LubEngine, LubKind, LubProvider,
};
use whynot_relation::{Cq, Term, Ucq, Var};
use whynot_subsumption::{satisfiable_under, ChaseLimits, Satisfiability};

// ---------------------------------------------------------------------
// Short explanations (Propositions 6.1–6.3)
// ---------------------------------------------------------------------

/// A shortest most-general explanation w.r.t. a finite ontology, by
/// exhaustive MGE enumeration and a caller-supplied length measure.
/// Exponential in general — Proposition 6.1 shows the problem NP-hard —
/// so this is the *exact* reference implementation for small inputs.
pub fn shortest_mge<O: FiniteOntology>(
    ontology: &O,
    wn: &WhyNotInstance,
    size: impl Fn(&O::Concept) -> usize,
) -> Option<Explanation<O::Concept>> {
    crate::exhaustive::exhaustive_search(ontology, wn)
        .into_iter()
        .min_by_key(|e| e.concepts.iter().map(&size).sum::<usize>())
}

/// An *irredundant* most-general explanation w.r.t. `OI` in polynomial
/// time (Proposition 6.2 combined with the incremental search): runs
/// Algorithm 2 and then drops superfluous conjuncts and vacuous selection
/// comparisons from each concept, preserving `≡_{OI}`.
pub fn irredundant_mge(wn: &WhyNotInstance, kind: LubKind) -> Explanation<LsConcept> {
    let raw = incremental_search_kind(wn, kind);
    irredundant_explanation(wn, &raw)
}

/// Rewrites each position of an explanation into an irredundant
/// `≡_{OI}`-equivalent concept (Proposition 6.2; extension-preserving, so
/// explanation-hood and maximality are untouched).
pub fn irredundant_explanation(
    wn: &WhyNotInstance,
    e: &Explanation<LsConcept>,
) -> Explanation<LsConcept> {
    Explanation::new(e.concepts.iter().map(|c| simplify(c, &wn.instance)))
}

/// A *minimized* equivalent of one concept: the shortest conjunction over
/// the candidate-atom pool (the conjuncts of the target's lub, plus the
/// concept's own atoms) with the same extension on the instance. This is
/// the NP-hard problem of Proposition 6.3, solved exactly by bounded
/// subset search; `None` when no pool subset reproduces the extension
/// within `max_conjuncts`.
pub fn minimize_concept(
    wn: &WhyNotInstance,
    concept: &LsConcept,
    kind: LubKind,
    max_conjuncts: usize,
) -> Option<LsConcept> {
    let inst = &wn.instance;
    // One pool for the whole subset search: candidate extensions compare
    // against the target word-parallel.
    let pool = inst.const_pool_with(wn.tuple.iter().cloned());
    let target = concept.extension_in(inst, &pool);
    // ⊤ and other universal-extension concepts minimize to ⊤.
    let Some(target_set) = target.as_finite() else {
        return Some(LsConcept::top());
    };
    // Candidate pool: every atom whose extension covers the target —
    // exactly the lub's conjuncts (computed through the pooled engine
    // over the same shared pool) — plus the original atoms.
    let mut atom_pool: Vec<LsAtom> = Vec::new();
    let support: BTreeSet<_> = target_set.iter().cloned().collect();
    let engine = LubEngine::with_pool(&wn.schema, inst, Arc::clone(&pool));
    if let Some(canonical) = engine.state_of(kind, &support) {
        atom_pool.extend(canonical.concept().parts().cloned());
    }
    for atom in concept.parts() {
        if !atom_pool.contains(atom) {
            atom_pool.push(atom.clone());
        }
    }
    // Breadth-first over subset sizes: the first hit is shortest in
    // conjunct count; ties broken by symbol size.
    for k in 0..=max_conjuncts.min(atom_pool.len()) {
        let mut best: Option<LsConcept> = None;
        subsets_rec(&atom_pool, 0, k, &mut Vec::new(), &mut |atoms| {
            let cand = LsConcept::from_atoms(atoms.iter().map(|a| (*a).clone()));
            if cand.extension_in(inst, &pool) == target {
                let better = match &best {
                    None => true,
                    Some(b) => cand.size() < b.size(),
                };
                if better {
                    best = Some(cand);
                }
            }
        });
        if best.is_some() {
            return best;
        }
    }
    None
}

fn subsets_rec<'a, T>(
    pool: &'a [T],
    from: usize,
    k: usize,
    acc: &mut Vec<&'a T>,
    visit: &mut impl FnMut(&[&'a T]),
) {
    if acc.len() == k {
        visit(acc);
        return;
    }
    if pool.len() - from < k - acc.len() {
        return;
    }
    for i in from..pool.len() {
        acc.push(&pool[i]);
        subsets_rec(pool, i + 1, k, acc, visit);
        acc.pop();
    }
}

/// Minimizes every position of an explanation (Proposition 6.3's notion,
/// exact and therefore exponential in the pool size). Falls back to the
/// irredundant form where the bounded search fails.
pub fn minimized_explanation(
    wn: &WhyNotInstance,
    e: &Explanation<LsConcept>,
    kind: LubKind,
    max_conjuncts: usize,
) -> Explanation<LsConcept> {
    Explanation::new(e.concepts.iter().map(|c| {
        minimize_concept(wn, c, kind, max_conjuncts).unwrap_or_else(|| simplify(c, &wn.instance))
    }))
}

// ---------------------------------------------------------------------
// Cardinality-based preference (Proposition 6.4)
// ---------------------------------------------------------------------

/// The degree of generality of an explanation w.r.t. an ontology and
/// instance: `Σ |ext(Ci, I)|`, `None` meaning infinite (a universal
/// extension occurred).
pub fn degree_of_generality<O: Ontology>(
    ontology: &O,
    wn: &WhyNotInstance,
    e: &Explanation<O::Concept>,
) -> Option<usize> {
    let mut total = 0usize;
    for c in &e.concepts {
        total += ontology.extension(c, &wn.instance).len()?;
    }
    Some(total)
}

/// An exact `>card`-maximal explanation w.r.t. a finite ontology, by
/// branch-and-bound over per-position candidates. Proposition 6.4 shows
/// no PTIME algorithm exists (unless P = NP) — this is the exponential
/// reference implementation; see [`card_maximal_greedy`] for the
/// heuristic.
pub fn card_maximal_exact<O: FiniteOntology>(
    ontology: &O,
    wn: &WhyNotInstance,
) -> Option<Explanation<O::Concept>> {
    let (table, candidates) = build_candidates(ontology, wn)?;
    run_card_maximal_exact(&candidates, &table)
}

/// Each position's candidate slots in `>card` visiting order, with their
/// `|ext|` read from `table`: descending `|ext|`, ties by concept index.
fn card_order<C>(candidates: &[Candidates<C>], table: &ExtensionTable) -> Vec<Vec<(usize, usize)>> {
    candidates
        .iter()
        .map(|cands| {
            let mut order: Vec<(usize, usize)> = cands
                .indices
                .iter()
                .enumerate()
                .map(|(slot, &k)| (table.get(k).len().unwrap_or(usize::MAX / 2), slot))
                .collect();
            order.sort_by_key(|&(card, slot)| (Reverse(card), cands.indices[slot]));
            order
        })
        .collect()
}

/// The branch-and-bound core of [`card_maximal_exact`] over Algorithm 1's
/// candidates (built one-shot or read from a session's caches): a leaf is
/// an explanation iff the AND of its conflict masks is zero.
pub(crate) fn run_card_maximal_exact<C: Clone>(
    candidates: &[Candidates<C>],
    table: &ExtensionTable,
) -> Option<Explanation<C>> {
    let order = card_order(candidates, table);
    // Max attainable degree from position i onward.
    let mut suffix_max = vec![0usize; order.len() + 1];
    for i in (0..order.len()).rev() {
        let head = order[i].first().map_or(0, |&(card, _)| card);
        suffix_max[i] = suffix_max[i + 1].saturating_add(head);
    }
    let words = mask_words(candidates);
    let mut search = CardSearch {
        candidates,
        order: &order,
        suffix_max,
        choice: Vec::with_capacity(order.len()),
        best: None,
    };
    let mut frames = vec![0u64; words * order.len()];
    search.branch(0, 0, &vec![u64::MAX; words], &mut frames);
    let (_, choice) = search.best?;
    Some(explanation_at(candidates, &choice))
}

/// The state of [`run_card_maximal_exact`]'s walk.
struct CardSearch<'c, C> {
    candidates: &'c [Candidates<C>],
    order: &'c [Vec<(usize, usize)>],
    suffix_max: Vec<usize>,
    choice: Vec<usize>,
    /// The incumbent: its degree and candidate slots.
    best: Option<(usize, Vec<usize>)>,
}

impl<C> CardSearch<'_, C> {
    /// Visits the choices for positions `depth..` under the running
    /// conflict mask `live`, keeping the first leaf of strictly highest
    /// degree whose mask is zero.
    fn branch(&mut self, depth: usize, spent: usize, live: &[u64], frames: &mut [u64]) {
        if depth == self.order.len() {
            if kernels::is_zero(live) && self.best.as_ref().is_none_or(|(b, _)| spent > *b) {
                self.best = Some((spent, self.choice.clone()));
            }
            return;
        }
        if let Some((b, _)) = self.best {
            if spent.saturating_add(self.suffix_max[depth]) <= b {
                return; // bound: cannot beat the incumbent
            }
        }
        let (mine, rest) = frames.split_at_mut(live.len());
        let (candidates, order) = (self.candidates, self.order);
        for &(card, slot) in &order[depth] {
            kernels::and_into(mine, live, &candidates[depth].conflicts[slot].0);
            self.choice.push(slot);
            self.branch(depth + 1, spent + card, mine, rest);
            self.choice.pop();
        }
    }
}

/// Greedy `>card` heuristic: per position, pick the largest-cardinality
/// candidate that keeps the tuple extensible to an explanation.
/// Polynomial; Proposition 6.4's L-reduction implies it cannot always be
/// optimal (nor within a constant factor).
pub fn card_maximal_greedy<O: FiniteOntology>(
    ontology: &O,
    wn: &WhyNotInstance,
) -> Option<Explanation<O::Concept>> {
    let (table, candidates) = build_candidates(ontology, wn)?;
    run_card_maximal_greedy(&candidates, &table)
}

/// The greedy core of [`card_maximal_greedy`] over Algorithm 1's
/// candidates: at each position, in `>card` order, the first candidate
/// whose running conflict mask the existence search can still complete.
pub(crate) fn run_card_maximal_greedy<C: Clone>(
    candidates: &[Candidates<C>],
    table: &ExtensionTable,
) -> Option<Explanation<C>> {
    let words = mask_words(candidates);
    let mut choice: Vec<usize> = Vec::with_capacity(candidates.len());
    let mut live = vec![u64::MAX; words];
    let mut next = vec![0u64; words];
    for (i, order) in card_order(candidates, table).iter().enumerate() {
        let conflicts = &candidates[i].conflicts;
        let slot = order.iter().map(|&(_, slot)| slot).find(|&slot| {
            kernels::and_into(&mut next, &live, &conflicts[slot].0);
            choice.push(slot);
            let feasible = complete(candidates, &mut choice, &next);
            choice.truncate(i);
            feasible
        })?;
        // `next` holds the mask of the slot `find` stopped at.
        choice.push(slot);
        std::mem::swap(&mut live, &mut next);
    }
    Some(explanation_at(candidates, &choice))
}

// ---------------------------------------------------------------------
// Strong explanations (§6)
// ---------------------------------------------------------------------

/// The verdict of a strong-explanation check.
#[derive(Clone, Debug)]
pub enum StrongOutcome {
    /// The explanation is strong: `ext(C1,I′) × … × ext(Cm,I′)` avoids
    /// `q(I′)` on every constraint-satisfying instance.
    Strong,
    /// Not strong: some instance puts a product tuple into the answers.
    NotStrong,
    /// The bounded machinery could not settle the question.
    Unknown(String),
}

/// Checks whether an `LS`-concept explanation is *strong* (paper §6):
/// independent of the instance, the concept product can never meet the
/// query's answers. Reduces to unsatisfiability of
/// `q(x̄) ∧ C1(x1) ∧ … ∧ Cm(xm)` over the schema's instances, decided by
/// the bounded chase of `whynot-subsumption`.
pub fn is_strong_explanation(wn: &WhyNotInstance, e: &Explanation<LsConcept>) -> StrongOutcome {
    is_strong_explanation_query(&wn.schema, &wn.query, e)
}

/// [`is_strong_explanation`] against an explicit query (no instance
/// needed — strength is instance-independent).
pub fn is_strong_explanation_query(
    schema: &whynot_relation::Schema,
    query: &Ucq,
    e: &Explanation<LsConcept>,
) -> StrongOutcome {
    let mut any_unknown = None;
    for disjunct in &query.disjuncts {
        let Some(combined) = conjoin_concepts(schema, disjunct, &e.concepts) else {
            continue; // statically contradictory: this disjunct is safe
        };
        match satisfiable_under(schema, &combined, ChaseLimits::default()) {
            Satisfiability::Unsatisfiable => {}
            Satisfiability::Satisfiable(_) => return StrongOutcome::NotStrong,
            Satisfiability::Unknown(msg) => any_unknown = Some(msg),
        }
    }
    match any_unknown {
        None => StrongOutcome::Strong,
        Some(msg) => StrongOutcome::Unknown(msg),
    }
}

/// Builds `disjunct(x̄) ∧ ⋀ Ci(xi)` by splicing each concept's unary query
/// onto the corresponding head term. `None` when a nominal statically
/// contradicts a constant head term.
fn conjoin_concepts(
    schema: &whynot_relation::Schema,
    disjunct: &Cq,
    concepts: &[LsConcept],
) -> Option<Cq> {
    let mut combined = disjunct.clone();
    let mut next_var = combined.vars().iter().map(|v| v.0 + 1).max().unwrap_or(0);
    for (head_term, concept) in combined.head.clone().iter().zip(concepts) {
        for part in concept.parts() {
            match part {
                LsAtom::Nominal(c) => match head_term {
                    Term::Const(d) => {
                        if c != d {
                            return None;
                        }
                    }
                    Term::Var(v) => combined.comparisons.push(whynot_relation::Comparison::new(
                        *v,
                        whynot_relation::CmpOp::Eq,
                        c.clone(),
                    )),
                },
                LsAtom::Proj {
                    rel,
                    attr,
                    selection,
                } => {
                    let arity = schema.arity(*rel);
                    let mut args: Vec<Term> = Vec::with_capacity(arity);
                    let mut local: Vec<Option<Var>> = Vec::with_capacity(arity);
                    for j in 0..arity {
                        if j == *attr {
                            args.push(head_term.clone());
                            local.push(head_term.as_var());
                        } else {
                            let v = Var(next_var);
                            next_var += 1;
                            args.push(Term::Var(v));
                            local.push(Some(v));
                        }
                    }
                    combined.atoms.push(whynot_relation::Atom::new(*rel, args));
                    for sc in selection.constraints() {
                        if sc.attr >= arity {
                            continue;
                        }
                        match (local[sc.attr], &combined.head) {
                            (Some(v), _) => combined
                                .comparisons
                                .push(whynot_relation::Comparison::new(v, sc.op, sc.value.clone())),
                            (None, _) => {
                                // Selection on the projected attribute with
                                // a constant head term: evaluate statically.
                                if let Term::Const(d) = head_term {
                                    if !sc.op.holds(d, &sc.value) {
                                        return None;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    if !combined.comparisons_satisfiable() {
        return None;
    }
    Some(combined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derived::InstanceOntology;
    use crate::explicit::ExplicitOntology;
    use crate::whynot::is_explanation;
    use whynot_concepts::Selection;
    use whynot_relation::{Atom, CmpOp, Comparison, Instance, SchemaBuilder, Value, ViewDef};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    fn small_wn() -> (WhyNotInstance, whynot_relation::RelId) {
        let mut b = SchemaBuilder::new();
        let cities = b.relation("Cities", ["name", "population", "continent"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        for (n, p, k) in [
            ("Amsterdam", 779_808, "Europe"),
            ("Berlin", 3_502_000, "Europe"),
            ("Tokyo", 13_185_000, "Asia"),
            ("Kyoto", 1_400_000, "Asia"),
        ] {
            inst.insert(cities, vec![s(n), Value::int(p), s(k)]);
        }
        // q(x) ← Cities(x, p, k) ∧ k = Asia: why is Amsterdam missing?
        let (x, p, k) = (Var(0), Var(1), Var(2));
        let q = Ucq::single(Cq::new(
            [Term::Var(x)],
            [Atom::new(
                cities,
                [Term::Var(x), Term::Var(p), Term::Var(k)],
            )],
            [Comparison::new(k, CmpOp::Eq, s("Asia"))],
        ));
        let wn = WhyNotInstance::new(schema, inst, q, vec![s("Amsterdam")]).unwrap();
        (wn, cities)
    }

    #[test]
    fn irredundant_mge_is_equivalent_and_leaner() {
        let (wn, _) = small_wn();
        let raw = incremental_search_kind(&wn, LubKind::SelectionFree);
        let lean = irredundant_mge(&wn, LubKind::SelectionFree);
        let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
        assert!(is_explanation(&oi, &wn, &lean));
        for (a, b) in raw.concepts.iter().zip(&lean.concepts) {
            assert!(a.equivalent_in(b, &wn.instance));
            assert!(b.size() <= a.size());
        }
    }

    #[test]
    fn minimize_concept_finds_short_equivalents() {
        let (wn, cities) = small_wn();
        // European ⊓ City is equivalent to European on this instance.
        let european = LsConcept::proj_sel(cities, 0, Selection::eq(2, s("Europe")));
        let fat = european.and(&LsConcept::proj(cities, 0));
        let slim = minimize_concept(&wn, &fat, LubKind::WithSelections, 3).unwrap();
        assert!(slim.equivalent_in(&fat, &wn.instance));
        assert!(slim.size() <= european.size());
        assert!(slim.num_parts() <= 1);
    }

    #[test]
    fn minimize_concept_handles_top_and_empty() {
        let (wn, _) = small_wn();
        assert_eq!(
            minimize_concept(&wn, &LsConcept::top(), LubKind::SelectionFree, 2),
            Some(LsConcept::top())
        );
        // The empty-extension concept minimizes to a conjunction of two
        // nominals or stays as-is — either way the extension matches.
        let dead = LsConcept::nominal(s("x")).and(&LsConcept::nominal(s("y")));
        let m = minimize_concept(&wn, &dead, LubKind::SelectionFree, 3).unwrap();
        assert!(m.extension(&wn.instance).is_empty());
    }

    #[test]
    fn shortest_mge_picks_smallest_by_size() {
        // An ontology where two MGEs exist with different name lengths; use
        // symbol count = name length to force the choice.
        let o = ExplicitOntology::builder()
            .concept("AA", ["a", "l"])
            .concept("LongerName", ["a", "r"])
            .build();
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["x"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(r, vec![s("bad")]);
        let q = Ucq::single(Cq::new(
            [Term::Var(Var(0))],
            [Atom::new(r, [Term::Var(Var(0))])],
            [],
        ));
        let wn = WhyNotInstance::new(schema, inst, q, vec![s("a")]).unwrap();
        let e = shortest_mge(&o, &wn, |c| c.0.len()).unwrap();
        assert_eq!(e.concepts[0].0, "AA");
    }

    #[test]
    fn degree_and_card_maximal() {
        // Candidates for position 0: Small {a}, Big {a,b,c}; answers block
        // nothing extra, so Big wins on cardinality.
        let o = ExplicitOntology::builder()
            .concept("Small", ["a"])
            .concept("Big", ["a", "b", "c"])
            .build();
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["x"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(r, vec![s("z")]);
        let q = Ucq::single(Cq::new(
            [Term::Var(Var(0))],
            [Atom::new(r, [Term::Var(Var(0))])],
            [],
        ));
        let wn = WhyNotInstance::new(schema, inst, q, vec![s("a")]).unwrap();
        let exact = card_maximal_exact(&o, &wn).unwrap();
        assert_eq!(exact.concepts[0].0, "Big");
        assert_eq!(degree_of_generality(&o, &wn, &exact), Some(3));
        let greedy = card_maximal_greedy(&o, &wn).unwrap();
        assert_eq!(greedy.concepts[0].0, "Big");
    }

    #[test]
    fn card_maximal_greedy_can_be_suboptimal() {
        // Two positions; picking the big concept first forces a tiny one
        // second (their product hits the answers); the optimum pairs two
        // mediums. Degrees: greedy = 4 + 1 = 5, optimal = 3 + 3 = 6.
        let o = ExplicitOntology::builder()
            .concept("Huge", ["a", "h1", "h2", "h3"])
            .concept("Med", ["a", "m1", "m2"])
            .concept("Tiny", ["a"])
            .build();
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["x", "y"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        // Answers: pairs (h_i, m_j) and (m_j, h_i) — blocking Huge×Med and
        // Med×Huge but not Med×Med; also (h_i, h_j) to block Huge×Huge.
        for h in ["h1", "h2", "h3"] {
            for m in ["m1", "m2"] {
                inst.insert(r, vec![s(h), s(m)]);
                inst.insert(r, vec![s(m), s(h)]);
            }
            for h2 in ["h1", "h2", "h3"] {
                inst.insert(r, vec![s(h), s(h2)]);
            }
        }
        let q = Ucq::single(Cq::new(
            [Term::Var(Var(0)), Term::Var(Var(1))],
            [Atom::new(r, [Term::Var(Var(0)), Term::Var(Var(1))])],
            [],
        ));
        let wn = WhyNotInstance::new(schema, inst, q, vec![s("a"), s("a")]).unwrap();
        let exact = card_maximal_exact(&o, &wn).unwrap();
        assert_eq!(degree_of_generality(&o, &wn, &exact), Some(6));
        let greedy = card_maximal_greedy(&o, &wn).unwrap();
        assert_eq!(degree_of_generality(&o, &wn, &greedy), Some(5));
    }

    #[test]
    fn strong_explanation_positive() {
        // With the Asia-selecting query, the explanation "Amsterdam is a
        // European city" is strong only if Cities rows cannot be both
        // Europe and Asia — which holds (single row, one continent value):
        // q ∧ C(x) requires k = Asia ∧ k = Europe on the same row? No —
        // different rows could give x both memberships. So NOT strong.
        let (wn, cities) = small_wn();
        let european = LsConcept::proj_sel(cities, 0, Selection::eq(2, s("Europe")));
        let e = Explanation::new([european]);
        match is_strong_explanation(&wn, &e) {
            StrongOutcome::NotStrong => {}
            other => panic!("expected NotStrong, got {other:?}"),
        }
        // Pinning the row itself — σ on the *same* projected tuple cannot
        // conflict here either; but an unsatisfiable nominal pair is
        // trivially strong.
        let dead = LsConcept::nominal(s("p")).and(&LsConcept::nominal(s("q")));
        match is_strong_explanation(&wn, &Explanation::new([dead])) {
            StrongOutcome::Strong => {}
            other => panic!("expected Strong, got {other:?}"),
        }
    }

    #[test]
    fn strong_explanation_with_fd() {
        // Cities(name, continent) with FD name → continent. Query selects
        // Asia rows; the explanation σ_{continent=Europe} IS strong: the
        // FD forbids one name having both continents.
        let mut b = SchemaBuilder::new();
        let cities = b.relation("Cities", ["name", "continent"]);
        b.add_fd(whynot_relation::Fd::new(cities, [0], [1]));
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(cities, vec![s("Tokyo"), s("Asia")]);
        inst.insert(cities, vec![s("Amsterdam"), s("Europe")]);
        let (x, k) = (Var(0), Var(1));
        let q = Ucq::single(Cq::new(
            [Term::Var(x)],
            [Atom::new(cities, [Term::Var(x), Term::Var(k)])],
            [Comparison::new(k, CmpOp::Eq, s("Asia"))],
        ));
        let wn = WhyNotInstance::new(schema, inst, q, vec![s("Amsterdam")]).unwrap();
        let european = LsConcept::proj_sel(cities, 0, Selection::eq(1, s("Europe")));
        match is_strong_explanation(&wn, &Explanation::new([european.clone()])) {
            StrongOutcome::Strong => {}
            other => panic!("expected Strong, got {other:?}"),
        }
        // Without the FD the same explanation is not strong.
        let mut b = SchemaBuilder::new();
        let cities2 = b.relation("Cities", ["name", "continent"]);
        let schema2 = b.finish().unwrap();
        let mut inst2 = Instance::new();
        inst2.insert(cities2, vec![s("Tokyo"), s("Asia")]);
        let q2 = Ucq::single(Cq::new(
            [Term::Var(x)],
            [Atom::new(cities2, [Term::Var(x), Term::Var(k)])],
            [Comparison::new(k, CmpOp::Eq, s("Asia"))],
        ));
        let wn2 = WhyNotInstance::new(schema2, inst2, q2, vec![s("Amsterdam")]).unwrap();
        match is_strong_explanation_query(&wn2.schema, &wn2.query, &Explanation::new([european])) {
            StrongOutcome::NotStrong => {}
            other => panic!("expected NotStrong, got {other:?}"),
        }
    }

    #[test]
    fn strong_explanation_with_views() {
        // BigCity view; query returns big cities; the explanation
        // "population < 5M" is strong — no instance makes a sub-5M city
        // big. (The same row carries the population, so the comparison
        // conflict is structural.)
        let mut b = SchemaBuilder::new();
        let cities = b.relation("Cities", ["name", "population"]);
        let big = b.relation("BigCity", ["name"]);
        let (x, y) = (Var(0), Var(1));
        b.add_view(ViewDef::new(
            big,
            Ucq::single(Cq::new(
                [Term::Var(x)],
                [Atom::new(cities, [Term::Var(x), Term::Var(y)])],
                [Comparison::new(y, CmpOp::Ge, Value::int(5_000_000))],
            )),
        ));
        let schema = b.finish().unwrap();
        let mut base = Instance::new();
        base.insert(cities, vec![s("Tokyo"), Value::int(13_185_000)]);
        base.insert(cities, vec![s("Santa Cruz"), Value::int(59_946)]);
        let inst = whynot_relation::materialize_views(&schema, &base).unwrap();
        let q = Ucq::single(Cq::new(
            [Term::Var(x)],
            [Atom::new(big, [Term::Var(x)])],
            [],
        ));
        let wn = WhyNotInstance::new(schema, inst, q, vec![s("Santa Cruz")]).unwrap();
        // Hmm — "name of a city with population < 5M" is NOT strong in
        // general: another row could give the same name a big population.
        let small_city = LsConcept::proj_sel(
            cities,
            0,
            Selection::new([(1, CmpOp::Lt, Value::int(5_000_000))]),
        );
        match is_strong_explanation(&wn, &Explanation::new([small_city])) {
            StrongOutcome::NotStrong => {}
            other => panic!("expected NotStrong, got {other:?}"),
        }
        // A nominal for a constant that no row can simultaneously make big
        // AND small-selected… the nominal alone is not strong either (some
        // instance makes Santa Cruz big). Verify that too:
        let nominal = LsConcept::nominal(s("Santa Cruz"));
        match is_strong_explanation(&wn, &Explanation::new([nominal])) {
            StrongOutcome::NotStrong => {}
            other => panic!("expected NotStrong, got {other:?}"),
        }
    }
}
