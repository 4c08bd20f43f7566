//! Brute-force reference enumerations the fast contrast paths are
//! differentially pinned against.
//!
//! Everything here applies the definitions literally over the growth
//! set `K = adom(I) ∪ ā` (Proposition 5.1 guarantees `K` suffices):
//! [`subset_lubs`] enumerates *every* lub of a subset of `K` through a
//! given seed, [`max_separators`] keeps the separating ones and filters
//! to the extension-maximal, and [`foil_aligned_mges`] runs the full
//! product of per-position candidates against Definition 3.2 and keeps
//! the most general survivors (Definition 3.3, with generality judged
//! by extension inclusion — the `OI` order). The costs are exponential
//! by design; every function returns `None` instead of attempting an
//! enumeration beyond [`MAX_SUBSET_BITS`] / [`MAX_PRODUCT`], so callers
//! must keep their instances small (the differential tests do).

#[path = "definition.rs"]
mod definition;

use definition::explains;
use std::collections::BTreeSet;
use whynot_concepts::{lub, lub_sigma, Extension, LsConcept};
use whynot_core::{Explanation, LubKind};
use whynot_relation::{ConstPool, Instance, Schema, Tuple, Ucq, Value};

/// Enumeration guard: at most `2^MAX_SUBSET_BITS` subsets per position.
pub const MAX_SUBSET_BITS: usize = 16;

/// Enumeration guard: at most this many candidate tuples in the
/// explanation product of [`foil_aligned_mges`].
pub const MAX_PRODUCT: usize = 1 << 20;

/// The lub of one non-empty support set under the chosen kind, through
/// the legacy free functions — independent of the pooled engine's
/// growth code the fast paths run on.
fn lub_by_kind(schema: &Schema, inst: &Instance, kind: LubKind, x: &BTreeSet<Value>) -> LsConcept {
    match kind {
        LubKind::SelectionFree => lub(schema, inst, x),
        LubKind::WithSelections => lub_sigma(schema, inst, x),
    }
}

/// `a ⊆ b` on extensions (⊤ absorbs everything).
fn ext_subset(a: &Extension, b: &Extension) -> bool {
    match (a.as_finite(), b.as_finite()) {
        (_, None) => true,
        (None, Some(_)) => false,
        (Some(sa), Some(_)) => b.contains_all(sa.iter()),
    }
}

/// Every distinct lub of a subset `S ⊆ K` with `seed ⊆ S`, in concept
/// order. `None` when more than [`MAX_SUBSET_BITS`] free values would
/// have to be enumerated.
pub fn subset_lubs(
    schema: &Schema,
    inst: &Instance,
    kind: LubKind,
    k_vals: &[Value],
    seed: &[Value],
) -> Option<Vec<LsConcept>> {
    let base: BTreeSet<Value> = seed.iter().cloned().collect();
    if base.is_empty() {
        return Some(Vec::new());
    }
    let free: Vec<&Value> = k_vals.iter().filter(|v| !base.contains(v)).collect();
    if free.len() > MAX_SUBSET_BITS {
        return None;
    }
    let mut out: BTreeSet<LsConcept> = BTreeSet::new();
    for mask in 0u64..(1u64 << free.len()) {
        let mut support = base.clone();
        for (bit, v) in free.iter().enumerate() {
            if (mask >> bit) & 1 == 1 {
                support.insert((*v).clone());
            }
        }
        out.insert(lub_by_kind(schema, inst, kind, &support));
    }
    Some(out.into_iter().collect())
}

/// All extension-maximal separators at one position, by literal
/// enumeration: lubs of subsets through `{foil_i}` whose extension
/// excludes `missing_i`, filtered to those no other separator strictly
/// extension-contains. The greedy `difference_core` sweep is pinned
/// against this list: its result is extension-maximal (were some valid
/// lub a strict superset, every value of that lub's support would have
/// been absorbed during the sweep), but maximality is not unique — the
/// list may hold several incomparable maxima and the greedy result is
/// one of them.
pub fn max_separators(
    schema: &Schema,
    inst: &Instance,
    kind: LubKind,
    k_vals: &[Value],
    missing_i: &Value,
    foil_i: &Value,
) -> Option<Vec<LsConcept>> {
    let pool = inst.const_pool_with([missing_i.clone()]);
    let lubs = subset_lubs(schema, inst, kind, k_vals, std::slice::from_ref(foil_i))?;
    let separators: Vec<(LsConcept, Extension)> = lubs
        .into_iter()
        .filter_map(|c| {
            let ext = c.extension_in(inst, &pool);
            (ext.contains(foil_i) && !ext.contains(missing_i)).then_some((c, ext))
        })
        .collect();
    let maximal: Vec<bool> = separators
        .iter()
        .enumerate()
        .map(|(i, (_, ext))| {
            !separators
                .iter()
                .enumerate()
                .any(|(j, (_, other))| i != j && ext_subset(ext, other) && !ext_subset(other, ext))
        })
        .collect();
    Some(
        separators
            .into_iter()
            .zip(maximal)
            .filter_map(|((c, _), keep)| keep.then_some(c))
            .collect(),
    )
}

/// Every most-general foil-aligned explanation for
/// `missing ∉ q(I) \ {foil}`, by full product enumeration: per position
/// the candidates are all subset lubs through `{missing_j, foil_j}`,
/// the product is filtered by Definition 3.2 against the residual
/// answer set, and the survivors are reduced to the most general under
/// pointwise extension inclusion. Returns `None` when an enumeration
/// guard trips, `Some(vec![])` when no foil-aligned explanation exists
/// (including invalid contrast pairs).
pub fn foil_aligned_mges(
    schema: &Schema,
    inst: &Instance,
    query: &Ucq,
    missing: &Tuple,
    foil: &Tuple,
    kind: LubKind,
) -> Option<Vec<Explanation<LsConcept>>> {
    let ans = query.eval(inst);
    if ans.contains(missing) || !ans.contains(foil) || missing.len() != foil.len() {
        return Some(Vec::new());
    }
    let mut residual = ans;
    residual.remove(foil);
    let pool = inst.const_pool_with(missing.iter().cloned());
    let mut k: BTreeSet<Value> = inst.active_domain().into_iter().collect();
    k.extend(missing.iter().cloned());
    let k_vals: Vec<Value> = k.into_iter().collect();

    // Per-position candidate concepts with their extensions.
    let mut candidates: Vec<Vec<(LsConcept, Extension)>> = Vec::with_capacity(missing.len());
    let mut product = 1usize;
    for (a, b) in missing.iter().zip(foil) {
        let lubs = subset_lubs(schema, inst, kind, &k_vals, &[a.clone(), b.clone()])?;
        let with_exts: Vec<(LsConcept, Extension)> = lubs
            .into_iter()
            .map(|c| {
                let ext = c.extension_in(inst, &pool);
                (c, ext)
            })
            .collect();
        product = product.checked_mul(with_exts.len().max(1))?;
        if product > MAX_PRODUCT {
            return None;
        }
        candidates.push(with_exts);
    }
    if candidates.iter().any(|c| c.is_empty()) {
        return Some(Vec::new());
    }

    // Odometer over the product, collecting valid explanations.
    let mut idx = vec![0usize; candidates.len()];
    let mut valid: Vec<(Explanation<LsConcept>, Vec<Extension>)> = Vec::new();
    loop {
        let exts: Vec<Extension> = idx
            .iter()
            .zip(&candidates)
            .map(|(&i, c)| c[i].1.clone())
            .collect();
        if explains(&exts, &residual, missing) {
            let concepts: Vec<LsConcept> = idx
                .iter()
                .zip(&candidates)
                .map(|(&i, c)| c[i].0.clone())
                .collect();
            valid.push((Explanation::new(concepts), exts));
        }
        // Advance the odometer; stop after the last combination.
        let mut pos = 0;
        loop {
            if pos == idx.len() {
                // Most-general filter: drop anything strictly below
                // another survivor (pointwise ⊆ with one strict).
                let keep: Vec<bool> = valid
                    .iter()
                    .enumerate()
                    .map(|(i, (_, exts))| {
                        !valid.iter().enumerate().any(|(j, (_, other))| {
                            i != j
                                && exts.iter().zip(other).all(|(a, b)| ext_subset(a, b))
                                && !other.iter().zip(exts).all(|(a, b)| ext_subset(a, b))
                        })
                    })
                    .collect();
                return Some(
                    valid
                        .into_iter()
                        .zip(keep)
                        .filter_map(|((e, _), keep)| keep.then_some(e))
                        .collect(),
                );
            }
            idx[pos] += 1;
            if idx[pos] < candidates[pos].len() {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
    }
}

/// The growth set `K = adom(I) ∪ ā` in ascending order — the same set
/// the fast paths sweep; exposed so tests enumerate over identical
/// ground.
pub fn restriction_values(inst: &Instance, missing: &Tuple) -> Vec<Value> {
    let mut k: BTreeSet<Value> = inst.active_domain().into_iter().collect();
    k.extend(missing.iter().cloned());
    k.into_iter().collect()
}

/// A shared constant pool for reference evaluations: the instance's
/// constants plus the missing tuple's.
pub fn reference_pool(inst: &Instance, missing: &Tuple) -> std::sync::Arc<ConstPool> {
    inst.const_pool_with(missing.iter().cloned())
}
