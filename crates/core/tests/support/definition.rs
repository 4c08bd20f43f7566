//! Definition 3.2 written out over value-space answers: the reference
//! the pooled check of `whynot-core` is compared against. It reads only
//! `BTreeSet<Tuple>` and [`Extension::contains`].

use std::borrow::Borrow;
use std::collections::BTreeSet;
use whynot_concepts::Extension;
use whynot_relation::Tuple;

/// Whether `exts` explain why `tuple` is not in `ans`: one extension per
/// position, each `aᵢ ∈ exts[i]`, and every answer outside
/// `exts[0] × … × exts[m-1]`.
pub fn explains<E: Borrow<Extension>>(exts: &[E], ans: &BTreeSet<Tuple>, tuple: &Tuple) -> bool {
    let inside = |t: &Tuple| t.iter().zip(exts).all(|(v, ext)| ext.borrow().contains(v));
    exts.len() == tuple.len() && inside(tuple) && !ans.iter().any(inside)
}
