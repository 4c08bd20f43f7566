//! Algorithm 1 — EXHAUSTIVE SEARCH (paper §5.1) — plus the associated
//! decision problems for finite ontologies:
//!
//! * [`exhaustive_search`] computes **all** most-general explanations
//!   (Theorem 5.2: EXPTIME in general, PTIME for fixed query arity),
//! * [`find_explanation`] / [`explanation_exists`] solve
//!   EXISTENCE-OF-EXPLANATION (Theorem 5.1(2): NP-complete; the search is
//!   a backtracking over per-position candidates with answer-exclusion
//!   pruning),
//! * [`check_mge`] solves CHECK-MGE (Theorem 5.1(1): PTIME via
//!   single-position replacement).

use crate::context::EvalContext;
use crate::ontology::FiniteOntology;
use crate::whynot::{
    exts_form_explanation_q, less_general, Explanation, QuestionRef, WhyNotInstance,
};
use whynot_concepts::{kernels, Extension, ExtensionTable, Probe};
use whynot_relation::{ScratchArena, Tuple, Value};

/// Per-position candidate concepts with precomputed answer-conflict
/// bitsets, ordered ascending by conflict popcount (most selective
/// first) — the product walk's masks empty out as early as possible.
pub(crate) struct Candidates<C> {
    /// Candidate concepts whose extension contains the position's constant.
    pub(crate) concepts: Vec<C>,
    /// `conflicts[k][w]`: bit `j` set iff answer tuple `j`'s value at this
    /// position lies in candidate `k`'s extension.
    pub(crate) conflicts: Vec<Vec<u64>>,
}

/// Returns a question's conflict buffers to the arena once the search is
/// done — the next question on the same context re-takes them instead of
/// allocating.
pub(crate) fn recycle_candidates<C>(arena: &ScratchArena, candidates: Vec<Candidates<C>>) {
    for c in candidates {
        for bits in c.conflicts {
            arena.recycle(bits);
        }
    }
}

/// The concept indices whose table entry contains `a` — the
/// question-independent half of candidate construction (it depends only
/// on the constant, so a session caches it keyed by `a`).
pub(crate) fn candidate_indices(table: &ExtensionTable, count: usize, a: &Value) -> Vec<usize> {
    (0..count).filter(|&k| table.get(k).contains(a)).collect()
}

/// Builds the per-position candidate sets through the memoizing context:
/// every concept's extension is evaluated exactly once for the whole
/// search (the seed re-evaluated per position), all extensions share the
/// context pool. The per-answer conflict bits come from pre-interned
/// probes — one binary search per (position, answer), then O(1) bit
/// tests per candidate.
fn build_candidates<O: FiniteOntology>(
    ctx: &EvalContext<'_, O>,
    wn: &WhyNotInstance,
) -> Option<Vec<Candidates<O::Concept>>> {
    let all = ctx.concepts();
    let table = ctx.table(&all);
    let arena = ctx.scratch();
    let ans: Vec<&Tuple> = wn.ans.iter().collect();
    let words = ans.len().div_ceil(64);
    let mut out = Vec::with_capacity(wn.arity());
    for (i, a_i) in wn.tuple.iter().enumerate() {
        let idxs = candidate_indices(&table, all.len(), a_i);
        if idxs.is_empty() {
            recycle_candidates(arena, out);
            return None; // no concept covers a_i: no explanation exists
        }
        // Intern this position's answer values once.
        let probes: Vec<Probe> = ans.iter().map(|t| table.probe(&t[i])).collect();
        let mut conflicts: Vec<Vec<u64>> = idxs
            .iter()
            .map(|&k| {
                let mut bits = arena.take(words);
                for (j, (t, probe)) in ans.iter().zip(&probes).enumerate() {
                    if table.entry_contains(k, probe, &t[i]) {
                        bits[j / 64] |= 1 << (j % 64);
                    }
                }
                bits
            })
            .collect();
        // Selectivity ordering: visit the most-selective candidates
        // (fewest surviving answers) first, so the product walk's running
        // masks go empty as early as possible. Stable (ties keep table
        // order); sound because the session path reproduces this order
        // and `retain_most_general` sorts the final output.
        let mut order: Vec<usize> = (0..idxs.len()).collect();
        order.sort_by_key(|&ki| (kernels::count_ones(&conflicts[ki]), ki));
        let concepts = order.iter().map(|&ki| all[idxs[ki]].clone()).collect();
        let conflicts = order
            .iter()
            .map(|&ki| std::mem::take(&mut conflicts[ki]))
            .collect();
        out.push(Candidates {
            concepts,
            conflicts,
        });
    }
    Some(out)
}

/// Algorithm 1: computes the set of all most-general explanations for the
/// why-not instance w.r.t. a finite ontology (modulo equivalence, as in
/// Theorem 5.2(1)).
pub fn exhaustive_search<O: FiniteOntology>(
    ontology: &O,
    wn: &WhyNotInstance,
) -> Vec<Explanation<O::Concept>> {
    let ctx = EvalContext::with_seeds(ontology, &wn.instance, wn.tuple.iter().cloned());
    let Some(candidates) = build_candidates(&ctx, wn) else {
        return Vec::new();
    };
    let found = run_exhaustive(&candidates, wn.question(), ctx.scratch());
    // Lines 3–5: drop explanations strictly less general than another.
    retain_most_general(ontology, found)
}

/// Line 2 of Algorithm 1 over prebuilt candidates: collect every candidate
/// tuple whose extension product avoids `Ans` (an answer tuple survives
/// the product iff its bit survives the AND of all positions' conflict
/// masks). Most-general filtering is the caller's job.
pub(crate) fn run_exhaustive<C: Clone>(
    candidates: &[Candidates<C>],
    q: QuestionRef<'_>,
    arena: &ScratchArena,
) -> Vec<Explanation<C>> {
    if q.arity() == 0 {
        return Vec::new();
    }
    let words = q.ans.len().div_ceil(64);
    let mut found: Vec<Explanation<C>> = Vec::new();
    let mut choice: Vec<usize> = Vec::with_capacity(q.arity());
    // One preallocated mask frame per depth — the walk itself never
    // touches the allocator (cf. the old per-node `Vec` AND).
    let mut root = arena.take(words);
    root.fill(u64::MAX);
    let mut frames = arena.take(words * candidates.len());
    collect(
        candidates,
        &mut choice,
        &root,
        &mut frames,
        words,
        &mut found,
    );
    arena.recycle(root);
    arena.recycle(frames);
    found
}

fn collect<C: Clone>(
    candidates: &[Candidates<C>],
    choice: &mut Vec<usize>,
    live: &[u64],
    frames: &mut [u64],
    words: usize,
    found: &mut Vec<Explanation<C>>,
) {
    let depth = choice.len();
    if depth == candidates.len() {
        if kernels::is_zero(live) {
            found.push(Explanation::new(
                choice
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| candidates[i].concepts[k].clone()),
            ));
        }
        return;
    }
    let (mine, rest) = frames.split_at_mut(words);
    for k in 0..candidates[depth].concepts.len() {
        let empty = kernels::and_into(mine, live, &candidates[depth].conflicts[k]);
        choice.push(k);
        if empty {
            // The running mask excludes every answer already: every
            // completion of this prefix is an explanation, in exactly
            // the DFS emission order — skip the remaining mask work.
            emit_all(candidates, choice, found);
        } else {
            collect(candidates, choice, mine, rest, words, found);
        }
        choice.pop();
    }
}

/// Emits every completion of the current choice prefix (the subtree
/// under an already-empty conflict mask — see [`collect`]).
fn emit_all<C: Clone>(
    candidates: &[Candidates<C>],
    choice: &mut Vec<usize>,
    found: &mut Vec<Explanation<C>>,
) {
    let depth = choice.len();
    if depth == candidates.len() {
        found.push(Explanation::new(
            choice
                .iter()
                .enumerate()
                .map(|(i, &k)| candidates[i].concepts[k].clone()),
        ));
        return;
    }
    for k in 0..candidates[depth].concepts.len() {
        choice.push(k);
        emit_all(candidates, choice, found);
        choice.pop();
    }
}

/// Keeps only the explanations not strictly below another (the paper's
/// lines 3–5).
pub fn retain_most_general<O: FiniteOntology>(
    ontology: &O,
    explanations: Vec<Explanation<O::Concept>>,
) -> Vec<Explanation<O::Concept>> {
    let mut keep: Vec<Explanation<O::Concept>> = Vec::new();
    'outer: for e in explanations {
        let mut i = 0;
        while i < keep.len() {
            if less_general(ontology, &e, &keep[i]) && !less_general(ontology, &keep[i], &e) {
                continue 'outer; // e < keep[i]
            }
            if less_general(ontology, &keep[i], &e) && !less_general(ontology, &e, &keep[i]) {
                keep.swap_remove(i); // keep[i] < e
                continue;
            }
            i += 1;
        }
        keep.push(e);
    }
    keep.sort();
    keep
}

/// EXISTENCE-OF-EXPLANATION (Definition 5.2): finds one explanation if any
/// exists. NP-complete in general (Theorem 5.1(2)); the backtracking
/// prunes on the set of answer tuples still to be excluded.
pub fn find_explanation<O: FiniteOntology>(
    ontology: &O,
    wn: &WhyNotInstance,
) -> Option<Explanation<O::Concept>> {
    let ctx = EvalContext::with_seeds(ontology, &wn.instance, wn.tuple.iter().cloned());
    let candidates = build_candidates(&ctx, wn)?;
    run_find_one(&candidates, wn.question(), ctx.scratch())
}

/// The backtracking existence search over prebuilt candidates.
pub(crate) fn run_find_one<C: Clone>(
    candidates: &[Candidates<C>],
    q: QuestionRef<'_>,
    arena: &ScratchArena,
) -> Option<Explanation<C>> {
    if q.arity() == 0 {
        return None;
    }
    let words = q.ans.len().div_ceil(64);
    let mut choice: Vec<usize> = Vec::with_capacity(q.arity());
    let mut root = arena.take(words);
    root.fill(u64::MAX);
    // Per-depth mask frames plus one shared pair of pruning buffers
    // (`must_cover` / `excludable` are dead once a node recurses, so one
    // pair serves the whole search).
    let mut frames = arena.take(words * candidates.len());
    let mut prune = arena.take(words * 2);
    let hit = search_one(
        candidates,
        &mut choice,
        &root,
        &mut frames,
        &mut prune,
        words,
    );
    arena.recycle(root);
    arena.recycle(frames);
    arena.recycle(prune);
    if hit {
        Some(Explanation::new(
            choice
                .iter()
                .enumerate()
                .map(|(i, &k)| candidates[i].concepts[k].clone()),
        ))
    } else {
        None
    }
}

fn search_one<C: Clone>(
    candidates: &[Candidates<C>],
    choice: &mut Vec<usize>,
    live: &[u64],
    frames: &mut [u64],
    prune: &mut [u64],
    words: usize,
) -> bool {
    let depth = choice.len();
    if depth == candidates.len() {
        return kernels::is_zero(live);
    }
    // Pruning: if the remaining positions cannot exclude some still-live
    // answer tuple no matter what, fail early. A tuple is excludable at a
    // later position iff some candidate there does not conflict with it.
    let (must_cover, excludable) = prune.split_at_mut(words);
    must_cover.copy_from_slice(live);
    for cands in &candidates[depth..] {
        excludable.fill(0);
        for bits in &cands.conflicts {
            for (e, b) in excludable.iter_mut().zip(bits) {
                *e |= !b;
            }
        }
        for (m, e) in must_cover.iter_mut().zip(excludable.iter()) {
            *m &= !*e;
        }
    }
    if !kernels::is_zero(must_cover) {
        return false;
    }
    let (mine, rest) = frames.split_at_mut(words);
    for k in 0..candidates[depth].concepts.len() {
        let empty = kernels::and_into(mine, live, &candidates[depth].conflicts[k]);
        choice.push(k);
        if empty {
            // Every completion succeeds; the DFS would land on the
            // first candidate at each remaining position.
            choice.resize(candidates.len(), 0);
            return true;
        }
        if search_one(candidates, choice, mine, rest, prune, words) {
            return true;
        }
        choice.pop();
    }
    false
}

/// Whether any explanation exists (equivalently, per the paper's remark,
/// whether a most-general explanation exists).
pub fn explanation_exists<O: FiniteOntology>(ontology: &O, wn: &WhyNotInstance) -> bool {
    find_explanation(ontology, wn).is_some()
}

/// CHECK-MGE (Definition 5.3): whether `e` is a most-general explanation.
/// PTIME by Theorem 5.1(1): it suffices to test single-position
/// replacements with strictly-more-general concepts (componentwise
/// replacements preserve explanation-hood downward).
pub fn check_mge<O: FiniteOntology>(
    ontology: &O,
    wn: &WhyNotInstance,
    e: &Explanation<O::Concept>,
) -> bool {
    let ctx = EvalContext::with_seeds(ontology, &wn.instance, wn.tuple.iter().cloned());
    let all = ctx.concepts();
    check_mge_with(&ctx, &all, wn.question(), e)
}

/// CHECK-MGE over a long-lived context, a prebuilt concept list, and a
/// borrowed question (the session path; the memoizing context makes the
/// replacement loop evaluate each candidate concept at most once across
/// all positions — and, in a session, at most once across all
/// *questions*).
pub(crate) fn check_mge_with<O: FiniteOntology>(
    ctx: &EvalContext<'_, O>,
    all: &[O::Concept],
    q: QuestionRef<'_>,
    e: &Explanation<O::Concept>,
) -> bool {
    if e.len() != q.arity() {
        return false;
    }
    let mut exts: Vec<Extension> = e.concepts.iter().map(|c| ctx.extension(c)).collect();
    if !exts_form_explanation_q(&exts, q) {
        return false;
    }
    let ontology = ctx.ontology();
    for i in 0..e.len() {
        for c in all {
            if !ontology.subsumed(&e.concepts[i], c) || ontology.subsumed(c, &e.concepts[i]) {
                continue; // not strictly more general
            }
            let saved = std::mem::replace(&mut exts[i], ctx.extension(c));
            let still = exts_form_explanation_q(&exts, q);
            exts[i] = saved;
            if still {
                return false; // a strictly more general explanation exists
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::{ConceptName, ExplicitOntology};
    use crate::whynot::is_explanation;
    use whynot_relation::{Atom, Cq, Instance, SchemaBuilder, Term, Ucq, Value, Var};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    /// Figure 3's ontology (see `explicit.rs` tests for the table).
    fn figure_3() -> ExplicitOntology {
        ExplicitOntology::builder()
            .concept(
                "City",
                [
                    "Amsterdam",
                    "Berlin",
                    "Rome",
                    "New York",
                    "San Francisco",
                    "Santa Cruz",
                    "Tokyo",
                    "Kyoto",
                ],
            )
            .concept("European-City", ["Amsterdam", "Berlin", "Rome"])
            .concept("Dutch-City", ["Amsterdam"])
            .concept("US-City", ["New York", "San Francisco", "Santa Cruz"])
            .concept("East-Coast-City", ["New York"])
            .concept("West-Coast-City", ["Santa Cruz", "San Francisco"])
            .edge("European-City", "City")
            .edge("Dutch-City", "European-City")
            .edge("US-City", "City")
            .edge("East-Coast-City", "US-City")
            .edge("West-Coast-City", "US-City")
            .build()
    }

    /// Example 3.4's why-not question.
    fn example_3_4() -> WhyNotInstance {
        let mut b = SchemaBuilder::new();
        let tc = b.relation("Train-Connections", ["city_from", "city_to"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        for (a, c) in [
            ("Amsterdam", "Berlin"),
            ("Berlin", "Rome"),
            ("Berlin", "Amsterdam"),
            ("New York", "San Francisco"),
            ("San Francisco", "Santa Cruz"),
            ("Tokyo", "Kyoto"),
        ] {
            inst.insert(tc, vec![s(a), s(c)]);
        }
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let q = Ucq::single(Cq::new(
            [Term::Var(x), Term::Var(y)],
            [
                Atom::new(tc, [Term::Var(x), Term::Var(z)]),
                Atom::new(tc, [Term::Var(z), Term::Var(y)]),
            ],
            [],
        ));
        WhyNotInstance::new(schema, inst, q, vec![s("Amsterdam"), s("New York")]).unwrap()
    }

    fn name_pair(o: &ExplicitOntology, a: &str, b: &str) -> Explanation<ConceptName> {
        Explanation::new([o.concept_expect(a), o.concept_expect(b)])
    }

    #[test]
    fn example_3_4_explanations_e1_to_e4() {
        let o = figure_3();
        let wn = example_3_4();
        // The paper's E1–E4 are all explanations.
        for (a, b) in [
            ("Dutch-City", "East-Coast-City"),
            ("Dutch-City", "US-City"),
            ("European-City", "East-Coast-City"),
            ("European-City", "US-City"),
        ] {
            assert!(is_explanation(&o, &wn, &name_pair(&o, a, b)), "⟨{a}, {b}⟩");
        }
        // Combinations that intersect q(I) are not explanations.
        assert!(!is_explanation(&o, &wn, &name_pair(&o, "City", "US-City")));
        assert!(!is_explanation(
            &o,
            &wn,
            &name_pair(&o, "European-City", "City")
        ));
    }

    #[test]
    fn example_3_4_most_general_explanation_is_e4() {
        let o = figure_3();
        let wn = example_3_4();
        let mges = exhaustive_search(&o, &wn);
        // E4 = ⟨European-City, US-City⟩ is the paper's most-general
        // explanation among its listed E1–E4. The full exhaustive search
        // additionally surfaces the incomparable ⟨City, East-Coast-City⟩
        // ("no city at all reaches an east-coast city in two hops"), which
        // Example 3.4's prose does not enumerate — see EXPERIMENTS.md.
        assert_eq!(mges.len(), 2, "{mges:?}");
        assert!(mges.contains(&name_pair(&o, "European-City", "US-City")));
        assert!(mges.contains(&name_pair(&o, "City", "East-Coast-City")));
        // And the orderings the paper states: E4 > E2 > E1, E4 > E3 > E1.
        let e1 = name_pair(&o, "Dutch-City", "East-Coast-City");
        let e2 = name_pair(&o, "Dutch-City", "US-City");
        let e3 = name_pair(&o, "European-City", "East-Coast-City");
        let e4 = name_pair(&o, "European-City", "US-City");
        use crate::whynot::strictly_less_general as lt;
        assert!(lt(&o, &e1, &e2) && lt(&o, &e2, &e4));
        assert!(lt(&o, &e1, &e3) && lt(&o, &e3, &e4));
        assert!(!lt(&o, &e2, &e3) && !lt(&o, &e3, &e2));
    }

    #[test]
    fn check_mge_accepts_e4_and_rejects_the_rest() {
        let o = figure_3();
        let wn = example_3_4();
        assert!(check_mge(
            &o,
            &wn,
            &name_pair(&o, "European-City", "US-City")
        ));
        assert!(!check_mge(&o, &wn, &name_pair(&o, "Dutch-City", "US-City")));
        assert!(!check_mge(
            &o,
            &wn,
            &name_pair(&o, "European-City", "East-Coast-City")
        ));
        // Not an explanation at all → not an MGE.
        assert!(!check_mge(&o, &wn, &name_pair(&o, "City", "City")));
    }

    #[test]
    fn existence_and_find_agree() {
        let o = figure_3();
        let wn = example_3_4();
        assert!(explanation_exists(&o, &wn));
        let e = find_explanation(&o, &wn).unwrap();
        assert!(is_explanation(&o, &wn, &e));
    }

    #[test]
    fn no_explanation_when_no_concept_covers_the_tuple() {
        let o = figure_3();
        let mut b = SchemaBuilder::new();
        let tc = b.relation("TC", ["from", "to"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(tc, vec![s("Amsterdam"), s("Berlin")]);
        let q = Ucq::single(Cq::new(
            [Term::Var(Var(0)), Term::Var(Var(1))],
            [Atom::new(tc, [Term::Var(Var(0)), Term::Var(Var(1))])],
            [],
        ));
        // "Gotham" is in no concept's extension.
        let wn = WhyNotInstance::new(schema, inst, q, vec![s("Gotham"), s("Berlin")]).unwrap();
        assert!(!explanation_exists(&o, &wn));
        assert!(exhaustive_search(&o, &wn).is_empty());
    }

    #[test]
    fn no_explanation_when_answers_block_every_combination() {
        // A one-concept ontology whose extension covers the answers: the
        // product always intersects Ans.
        let o = ExplicitOntology::builder()
            .concept("All", ["a", "b"])
            .build();
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["x"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(r, vec![s("a")]);
        let q = Ucq::single(Cq::new(
            [Term::Var(Var(0))],
            [Atom::new(r, [Term::Var(Var(0))])],
            [],
        ));
        let wn = WhyNotInstance::new(schema, inst, q, vec![s("b")]).unwrap();
        assert!(!explanation_exists(&o, &wn));
    }

    #[test]
    fn multiple_incomparable_mges_are_all_returned() {
        // Two maximal concepts covering "a", neither comparable; answers
        // exclude the shared super-concept.
        let o = ExplicitOntology::builder()
            .concept("Top", ["a", "bad"])
            .concept("Left", ["a", "l"])
            .concept("Right", ["a", "r"])
            .edge("Left", "Top")
            .edge("Right", "Top")
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
        let mges = exhaustive_search(&o, &wn);
        assert_eq!(mges.len(), 2);
        for e in &mges {
            assert!(check_mge(&o, &wn, e));
        }
    }
}
