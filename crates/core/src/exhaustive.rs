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
//!
//! Every search here runs on per-position [`Candidates`] whose conflict
//! bitsets [`conflict_bits`] fills from the answers' id rows over the
//! extension table's pool. A one-shot question interns its answers into
//! that pool once; a session borrows its cached rows and memoizes the
//! bitsets.

use crate::context::EvalContext;
use crate::ontology::FiniteOntology;
use crate::whynot::{
    answer_member, exts_form_explanation, less_general, AnswerIds, BlockedSet, Explanation,
    WhyNotInstance,
};
use std::sync::Arc;
use whynot_concepts::{kernels, Extension, ExtensionTable};
use whynot_relation::{AnswerRows, Value};

/// An answer-conflict bitset and its popcount. `Arc` so a session's
/// conflict memo hands the same words to every question sharing a query.
pub(crate) type ConflictBits = Arc<(Vec<u64>, usize)>;

/// Per-position candidate concepts with their answer-conflict bitsets,
/// ordered ascending by conflict popcount (most selective first) — the
/// product walk's masks empty out as early as possible. Every search over
/// a finite ontology reads this one structure: Algorithm 1, the existence
/// search and both `>card` searches.
pub(crate) struct Candidates<C> {
    /// Candidate concepts whose extension contains the position's constant.
    pub(crate) concepts: Vec<C>,
    /// `indices[k]`: candidate `k`'s index into the concept list (and its
    /// extension table).
    pub(crate) indices: Vec<usize>,
    /// `conflicts[k].0[w]`: bit `j` set iff answer tuple `j`'s value at
    /// this position lies in candidate `k`'s extension.
    pub(crate) conflicts: Vec<ConflictBits>,
}

/// The concept indices whose table entry contains `a` — the
/// question-independent half of candidate construction (it depends only
/// on the constant, so a session caches it keyed by `a`).
pub(crate) fn candidate_indices(table: &ExtensionTable, count: usize, a: &Value) -> Vec<usize> {
    (0..count).filter(|&k| table.get(k).contains(a)).collect()
}

/// Concept `k`'s conflict bitset at position `i` and its popcount: bit
/// `j` is set iff answer row `j`'s value at position `i` lies in
/// `table`'s entry `k`. `rows` index the table's pool.
pub(crate) fn conflict_bits(
    table: &ExtensionTable,
    rows: &AnswerRows,
    i: usize,
    k: usize,
) -> ConflictBits {
    debug_assert!(Arc::ptr_eq(table.pool(), rows.pool()), "one pool");
    let ext = table.get(k);
    let mut bits = vec![0u64; rows.len().div_ceil(64)];
    for (j, row) in rows.rows().enumerate() {
        if answer_member(rows, ext, row[i]) {
            bits[j / 64] |= 1 << (j % 64);
        }
    }
    let count = kernels::count_ones(&bits);
    Arc::new((bits, count))
}

/// The number of `u64` words in every conflict mask of `candidates`.
pub(crate) fn mask_words<C>(candidates: &[Candidates<C>]) -> usize {
    candidates.first().map_or(0, |c| c.conflicts[0].0.len())
}

/// Algorithm 1's per-position candidates for `tuple`: position `i` takes
/// the concepts `indices_for(tuple[i])` lists (ascending indices into
/// `all`), each with its conflict bitset `bits_for(i, k)`. Candidates are
/// sorted by `(popcount, concept index)`, so the product walk visits the
/// most selective first and every caller sees one order. `None` when no
/// concept covers some position: no explanation exists.
pub(crate) fn candidates_with<C: Clone>(
    all: &[C],
    tuple: &[Value],
    mut indices_for: impl FnMut(&Value) -> Arc<Vec<usize>>,
    mut bits_for: impl FnMut(usize, usize) -> ConflictBits,
) -> Option<Vec<Candidates<C>>> {
    let mut out = Vec::with_capacity(tuple.len());
    for (i, a_i) in tuple.iter().enumerate() {
        let idxs = indices_for(a_i);
        if idxs.is_empty() {
            return None;
        }
        let mut entries: Vec<(usize, ConflictBits)> =
            idxs.iter().map(|&k| (k, bits_for(i, k))).collect();
        entries.sort_by_key(|(k, bits)| (bits.1, *k));
        let (indices, conflicts): (Vec<usize>, _) = entries.into_iter().unzip();
        out.push(Candidates {
            concepts: indices.iter().map(|&k| all[k].clone()).collect(),
            indices,
            conflicts,
        });
    }
    Some(out)
}

/// The one-shot candidates, with the extension table they index: every
/// concept's extension is evaluated exactly once through a fresh
/// memoizing context, and the answers are interned once into id rows
/// over the context's pool — then a conflict bit is one bit probe.
pub(crate) fn build_candidates<O: FiniteOntology>(
    ontology: &O,
    wn: &WhyNotInstance,
) -> Option<(ExtensionTable, Vec<Candidates<O::Concept>>)> {
    let ctx = EvalContext::with_seeds(ontology, &wn.instance, wn.tuple.iter().cloned());
    let all = ctx.concepts();
    let table = ctx.table(&all);
    let rows = AnswerRows::from_tuples(Arc::clone(ctx.pool()), wn.arity(), &wn.ans);
    let candidates = candidates_with(
        &all,
        &wn.tuple,
        |a| Arc::new(candidate_indices(&table, all.len(), a)),
        |i, k| conflict_bits(&table, &rows, i, k),
    )?;
    Some((table, candidates))
}

/// The explanation that picks candidate `choice[i]` at each position `i`.
pub(crate) fn explanation_at<C: Clone>(
    candidates: &[Candidates<C>],
    choice: &[usize],
) -> Explanation<C> {
    Explanation::new(
        choice
            .iter()
            .zip(candidates)
            .map(|(&k, cands)| cands.concepts[k].clone()),
    )
}

/// Algorithm 1: computes the set of all most-general explanations for the
/// why-not instance w.r.t. a finite ontology (modulo equivalence, as in
/// Theorem 5.2(1)).
pub fn exhaustive_search<O: FiniteOntology>(
    ontology: &O,
    wn: &WhyNotInstance,
) -> Vec<Explanation<O::Concept>> {
    let Some((_, candidates)) = build_candidates(ontology, wn) else {
        return Vec::new();
    };
    let found = run_exhaustive(&candidates);
    // Lines 3–5: drop explanations strictly less general than another.
    retain_most_general(ontology, found)
}

/// Line 2 of Algorithm 1 over prebuilt candidates: collect every candidate
/// tuple whose extension product avoids `Ans` (an answer tuple survives
/// the product iff its bit survives the AND of all positions' conflict
/// masks). Most-general filtering is the caller's job.
pub(crate) fn run_exhaustive<C: Clone>(candidates: &[Candidates<C>]) -> Vec<Explanation<C>> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let words = mask_words(candidates);
    let mut found: Vec<Explanation<C>> = Vec::new();
    let mut choice: Vec<usize> = Vec::with_capacity(candidates.len());
    // One preallocated mask frame per depth — the walk itself never
    // touches the allocator.
    let root = vec![u64::MAX; words];
    let mut frames = vec![0u64; words * candidates.len()];
    collect(
        candidates,
        &mut choice,
        &root,
        &mut frames,
        words,
        &mut found,
    );
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
            found.push(explanation_at(candidates, choice));
        }
        return;
    }
    let (mine, rest) = frames.split_at_mut(words);
    for k in 0..candidates[depth].concepts.len() {
        let empty = kernels::and_into(mine, live, &candidates[depth].conflicts[k].0);
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
        found.push(explanation_at(candidates, choice));
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
    let (_, candidates) = build_candidates(ontology, wn)?;
    run_find_one(&candidates)
}

/// The backtracking existence search over prebuilt candidates.
pub(crate) fn run_find_one<C: Clone>(candidates: &[Candidates<C>]) -> Option<Explanation<C>> {
    if candidates.is_empty() {
        return None;
    }
    let mut choice: Vec<usize> = Vec::with_capacity(candidates.len());
    let root = vec![u64::MAX; mask_words(candidates)];
    complete(candidates, &mut choice, &root).then(|| explanation_at(candidates, &choice))
}

/// Whether the choice prefix `choice`, whose conflict masks AND to
/// `live`, completes to an explanation. On success `choice` holds the
/// first completion the search found; otherwise it is left as it was.
pub(crate) fn complete<C>(
    candidates: &[Candidates<C>],
    choice: &mut Vec<usize>,
    live: &[u64],
) -> bool {
    // Per-depth mask frames plus one shared pair of pruning buffers
    // (`must_cover` / `excludable` are dead once a node recurses, so one
    // pair serves the whole search).
    let mut frames = vec![0u64; live.len() * (candidates.len() - choice.len())];
    let mut prune = vec![0u64; live.len() * 2];
    search_one(candidates, choice, live, &mut frames, &mut prune)
}

fn search_one<C>(
    candidates: &[Candidates<C>],
    choice: &mut Vec<usize>,
    live: &[u64],
    frames: &mut [u64],
    prune: &mut [u64],
) -> bool {
    let depth = choice.len();
    let words = live.len();
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
            for (e, b) in excludable.iter_mut().zip(&bits.0) {
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
        let empty = kernels::and_into(mine, live, &candidates[depth].conflicts[k].0);
        choice.push(k);
        if empty {
            // Every completion succeeds; the DFS would land on the
            // first candidate at each remaining position.
            choice.resize(candidates.len(), 0);
            return true;
        }
        if search_one(candidates, choice, mine, rest, prune) {
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
    let ids = AnswerIds::new(ctx.pool(), &wn.ans, &wn.tuple);
    check_mge_with(&ctx, &all, &ids, e)
}

/// CHECK-MGE over a long-lived context, a prebuilt concept list, and a
/// borrowed question (the session path; the memoizing context makes the
/// replacement loop evaluate each candidate concept at most once across
/// all positions — and, in a session, at most once across all
/// *questions*).
pub(crate) fn check_mge_with<O: FiniteOntology>(
    ctx: &EvalContext<'_, O>,
    all: &[O::Concept],
    ids: &AnswerIds<'_>,
    e: &Explanation<O::Concept>,
) -> bool {
    let exts: Vec<Extension> = e.concepts.iter().map(|c| ctx.extension(c)).collect();
    if !exts_form_explanation(&exts, ids) {
        return false;
    }
    let ontology = ctx.ontology();
    for i in 0..e.len() {
        // Only position i is replaced, so each replacement is decided
        // against its blocked set.
        let blocked = BlockedSet::new(&exts, i, ids);
        for c in all {
            if !ontology.subsumed(&e.concepts[i], c) || ontology.subsumed(c, &e.concepts[i]) {
                continue; // not strictly more general
            }
            if blocked.admits(&exts, &ctx.extension(c)) {
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
        // Example 3.4's prose does not enumerate.
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
