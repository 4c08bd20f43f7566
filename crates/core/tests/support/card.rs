//! The `>card` references the fast searches are pinned against.
//!
//! [`first_card_maximum`] walks the full product of per-position
//! candidates and keeps the first `Σ|ext|`-maximal explanation in the
//! searches' visiting order. [`extension_greedy`] is a literal port of
//! the extension-based greedy heuristic: per-position lists of
//! `(concept, extension, |ext|)` in descending `|ext|` order, and a
//! completion test over full tuples. Both decide Definition 3.2 with the
//! value-space reference [`definition::explains`], not the library's
//! check, and both are exponential by design, so callers keep their
//! ontologies small.

#[path = "definition.rs"]
pub mod definition;

use definition::explains;
use std::cmp::Reverse;
use whynot_concepts::Extension;
use whynot_core::{Explanation, FiniteOntology, WhyNotInstance};

/// A candidate of one position: the concept, its extension and `|ext|`.
type Candidate<C> = (C, Extension, usize);

/// Per position, the concepts whose extension contains `aᵢ`, by
/// descending `|ext|` (a stable sort, so ties keep the ontology's concept
/// order). `None` when some position has no candidate.
fn candidate_lists<O: FiniteOntology>(
    o: &O,
    wn: &WhyNotInstance,
) -> Option<Vec<Vec<Candidate<O::Concept>>>> {
    let concepts = o.concepts();
    let mut out = Vec::with_capacity(wn.arity());
    for a in &wn.tuple {
        let mut list: Vec<Candidate<O::Concept>> = concepts
            .iter()
            .filter_map(|c| {
                let ext = o.extension(c, &wn.instance);
                let card = ext.len().unwrap_or(usize::MAX / 2);
                ext.contains(a).then(|| (c.clone(), ext, card))
            })
            .collect();
        if list.is_empty() {
            return None;
        }
        list.sort_by_key(|c| Reverse(c.2));
        out.push(list);
    }
    Some(out)
}

/// The first explanation of maximal degree `Σ|ext|` in the lexicographic
/// walk of [`candidate_lists`]' product (position 0 outermost), with its
/// degree. `None` iff no product of candidates is an explanation.
pub fn first_card_maximum<O: FiniteOntology>(
    o: &O,
    wn: &WhyNotInstance,
) -> Option<(usize, Explanation<O::Concept>)> {
    let lists = candidate_lists(o, wn)?;
    let mut best: Option<(usize, Explanation<O::Concept>)> = None;
    let mut choice = vec![0usize; lists.len()];
    loop {
        let e = Explanation::new(choice.iter().zip(&lists).map(|(&k, l)| l[k].0.clone()));
        let total: usize = choice.iter().zip(&lists).map(|(&k, l)| l[k].2).sum();
        let exts: Vec<&Extension> = choice.iter().zip(&lists).map(|(&k, l)| &l[k].1).collect();
        if explains(&exts, &wn.ans, &wn.tuple) && best.as_ref().is_none_or(|(b, _)| total > *b) {
            best = Some((total, e));
        }
        // Odometer step, the last position fastest.
        let Some(i) = (0..lists.len())
            .rev()
            .find(|&i| choice[i] + 1 < lists[i].len())
        else {
            return best;
        };
        choice[i] += 1;
        choice[i + 1..].fill(0);
    }
}

/// The greedy `>card` heuristic over extensions: per position, the first
/// candidate in descending-`|ext|` order whose choice still completes to
/// an explanation.
pub fn extension_greedy<O: FiniteOntology>(
    o: &O,
    wn: &WhyNotInstance,
) -> Option<Explanation<O::Concept>> {
    let lists = candidate_lists(o, wn)?;
    let mut chosen: Vec<usize> = Vec::new();
    let mut exts: Vec<Extension> = Vec::new();
    for (i, list) in lists.iter().enumerate() {
        let mut picked = None;
        for (k, (_, ext, _)) in list.iter().enumerate() {
            exts.push(ext.clone());
            let feasible = completable(&lists, wn, i + 1, &mut exts);
            exts.pop();
            if feasible {
                picked = Some(k);
                break;
            }
        }
        let k = picked?;
        chosen.push(k);
        exts.push(list[k].1.clone());
    }
    Some(Explanation::new(
        chosen
            .iter()
            .enumerate()
            .map(|(i, &k)| lists[i][k].0.clone()),
    ))
}

/// Whether the fixed prefix `exts` extends, by candidates of positions
/// `depth..`, to a tuple that forms an explanation.
fn completable<C>(
    lists: &[Vec<Candidate<C>>],
    wn: &WhyNotInstance,
    depth: usize,
    exts: &mut Vec<Extension>,
) -> bool {
    if depth == lists.len() {
        return explains(exts, &wn.ans, &wn.tuple);
    }
    for (_, ext, _) in &lists[depth] {
        exts.push(ext.clone());
        let ok = completable(lists, wn, depth + 1, exts);
        exts.pop();
        if ok {
            return true;
        }
    }
    false
}
