//! Algorithm 2 and CHECK-MGE W.R.T. `OI` written out as the paper
//! states them: every probe takes the
//! legacy from-scratch lub of the whole support and decides Definition
//! 3.2 over value-space answers ([`explains`]). No growth state, blocked
//! set, column signature or pooled check of `whynot-core` is involved,
//! so the fast paths are compared against definitions they do not share
//! code with.

#[path = "definition.rs"]
pub mod definition;

use definition::explains;
use std::collections::BTreeSet;
use whynot_concepts::{lub, lub_sigma, Extension, LsConcept};
use whynot_core::{Explanation, LubKind, WhyNotInstance};
use whynot_relation::{Instance, Schema, Value};

/// The legacy from-scratch lub of `kind`.
pub fn legacy_lub(
    schema: &Schema,
    inst: &Instance,
    kind: LubKind,
    support: &BTreeSet<Value>,
) -> LsConcept {
    match kind {
        LubKind::SelectionFree => lub(schema, inst, support),
        LubKind::WithSelections => lub_sigma(schema, inst, support),
    }
}

/// Algorithm 2 as the paper writes it: supports `X_j` start at `{a_j}`;
/// per position, every `b ∈ adom(I)` outside `ext(lub(X_j))`, ascending,
/// joins `X_j` iff the lubs with `lub(X_j ∪ {b})` at `j` still form an
/// explanation — the legacy lub of the whole support and the full
/// Definition 3.2 check over `Ans` on every probe.
pub fn literal_incremental(wn: &WhyNotInstance, kind: LubKind) -> Explanation<LsConcept> {
    let lub_of = |x: &BTreeSet<Value>| legacy_lub(&wn.schema, &wn.instance, kind, x);
    let mut supports: Vec<BTreeSet<Value>> = wn
        .tuple
        .iter()
        .map(|a| [a.clone()].into_iter().collect())
        .collect();
    let mut concepts: Vec<LsConcept> = supports.iter().map(lub_of).collect();
    for j in 0..wn.arity() {
        for b in wn.instance.active_domain() {
            if concepts[j].extension(&wn.instance).contains(&b) {
                continue;
            }
            let mut grown = supports[j].clone();
            grown.insert(b);
            let candidate = lub_of(&grown);
            let mut trial = concepts.clone();
            trial[j] = candidate.clone();
            let exts: Vec<Extension> = trial.iter().map(|c| c.extension(&wn.instance)).collect();
            if explains(&exts, &wn.ans, &wn.tuple) {
                supports[j] = grown;
                concepts[j] = candidate;
            }
        }
    }
    Explanation::new(concepts)
}

/// CHECK-MGE w.r.t. `OI` as Proposition 5.2 states it: `e` is an
/// explanation, and no `lub(ext(C_j) ∪ {b})` with `b ∈ adom(I) ∪ ā`
/// outside `ext(C_j)` can replace `C_j` in one.
pub fn literal_check_mge(wn: &WhyNotInstance, e: &Explanation<LsConcept>, kind: LubKind) -> bool {
    let exts: Vec<Extension> = e
        .concepts
        .iter()
        .map(|c| c.extension(&wn.instance))
        .collect();
    if !explains(&exts, &wn.ans, &wn.tuple) {
        return false;
    }
    for j in 0..exts.len() {
        let Some(current) = exts[j].as_finite() else {
            continue;
        };
        for b in wn.restriction_constants() {
            if current.contains(&b) {
                continue;
            }
            let mut grown = current.to_btree_set();
            grown.insert(b);
            let mut trial = exts.clone();
            trial[j] = legacy_lub(&wn.schema, &wn.instance, kind, &grown).extension(&wn.instance);
            if explains(&trial, &wn.ans, &wn.tuple) {
                return false;
            }
        }
    }
    true
}
