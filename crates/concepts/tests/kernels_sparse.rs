//! Engine-v2 equivalence properties: the unrolled word kernels against
//! their scalar references, and the two-level [`IdBits`] containers
//! against each other.
//!
//! The kernels module hand-unrolls every hot word loop into 256-bit
//! chunks with an explicit scalar tail; these properties pit each
//! unrolled op against a straightforward scalar model on random slices
//! whose lengths deliberately straddle the chunk width (0..=19 words —
//! empty, sub-chunk, exact multiples, and ragged tails). The sparse
//! properties build the same random id set in a forced-sparse
//! (`threshold = 0`) and a forced-dense (`threshold = usize::MAX`)
//! container and require every observable — membership, count, subset,
//! covering, intersection, id order, word round-trip — to agree, plus
//! insert-driven upgrades across the density knee.

use proptest::prelude::*;
use std::collections::BTreeSet;
use whynot_concepts::{kernels, IdBits};

prop_compose! {
    /// A random word slice of length 0..=19 — never a multiple of the
    /// 4-word chunk for long stretches, so the tail path always runs.
    fn words()(words in proptest::collection::vec(any::<u64>(), 0..20)) -> Vec<u64> {
        words
    }
}

prop_compose! {
    /// Two equal-length random slices (the binary kernels require it):
    /// generated independently, then truncated to the shorter length.
    fn word_pair()(
        a in proptest::collection::vec(any::<u64>(), 0..20),
        b in proptest::collection::vec(any::<u64>(), 0..20),
    ) -> (Vec<u64>, Vec<u64>) {
        let (mut a, mut b) = (a, b);
        let len = a.len().min(b.len());
        a.truncate(len);
        b.truncate(len);
        (a, b)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn subset_matches_scalar((a, b) in word_pair()) {
        prop_assert_eq!(kernels::subset(&a, &b), kernels::subset_scalar(&a, &b));
        // And against the definition itself.
        let model = a.iter().zip(&b).all(|(x, y)| x & !y == 0);
        prop_assert_eq!(kernels::subset(&a, &b), model);
        // A slice is always a subset of itself and a superset of zeros.
        prop_assert!(kernels::subset(&a, &a));
        prop_assert!(kernels::subset(&vec![0u64; a.len()], &a));
    }

    #[test]
    fn and_assign_matches_scalar_and_reports_emptiness((a, b) in word_pair()) {
        let mut dst = a.clone();
        let empty = kernels::and_assign(&mut dst, &b);
        let model: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
        prop_assert_eq!(&dst, &model);
        prop_assert_eq!(empty, model.iter().all(|&w| w == 0));
        prop_assert_eq!(empty, kernels::is_zero(&dst));
    }

    #[test]
    fn and_into_agrees_with_and_assign((a, b) in word_pair()) {
        let mut via_assign = a.clone();
        let e1 = kernels::and_assign(&mut via_assign, &b);
        let mut via_into = vec![!0u64; a.len()]; // junk-filled destination
        let e2 = kernels::and_into(&mut via_into, &a, &b);
        prop_assert_eq!(via_into, via_assign);
        prop_assert_eq!(e1, e2);
    }

    #[test]
    fn or_assign_matches_scalar((a, b) in word_pair()) {
        let mut dst = a.clone();
        kernels::or_assign(&mut dst, &b);
        let model: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x | y).collect();
        prop_assert_eq!(dst, model);
    }

    #[test]
    fn counts_match_scalar(a in words()) {
        let model: usize = a.iter().map(|w| w.count_ones() as usize).sum();
        prop_assert_eq!(kernels::count_ones(&a), model);
        prop_assert_eq!(kernels::count_ones_scalar(&a), model);
        prop_assert_eq!(kernels::is_zero(&a), model == 0);
    }

    #[test]
    fn and_count_matches_materialized_and((a, b) in word_pair()) {
        let model: usize = a.iter().zip(&b).map(|(x, y)| (x & y).count_ones() as usize).sum();
        prop_assert_eq!(kernels::and_count(&a, &b), model);
    }
}

/// Builds the same id set in both containers (forced by threshold).
fn both_reprs(ids: &BTreeSet<u32>, universe: usize) -> (IdBits, IdBits) {
    let mut sparse = IdBits::empty_with(universe, 0);
    let mut dense = IdBits::empty_with(universe, usize::MAX);
    for &id in ids {
        assert!(sparse.insert(id));
        assert!(dense.insert(id));
    }
    (sparse, dense)
}

prop_compose! {
    /// A random id set over a 192-id universe (3 words, so sets span
    /// word boundaries but stay small enough to collide often).
    fn id_set()(ids in proptest::collection::btree_set(0u32..192, 0..40)) -> BTreeSet<u32> {
        ids
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sparse_and_dense_observe_identically(ids in id_set(), probe in 0u32..200) {
        let (sparse, dense) = both_reprs(&ids, 192);
        prop_assert!(sparse.is_sparse());
        prop_assert!(!dense.is_sparse());
        prop_assert_eq!(sparse.count(), ids.len());
        prop_assert_eq!(dense.count(), ids.len());
        prop_assert_eq!(sparse.is_empty(), ids.is_empty());
        prop_assert_eq!(dense.is_empty(), ids.is_empty());
        let expect = probe < 192 && ids.contains(&probe);
        prop_assert_eq!(sparse.contains(probe), expect);
        prop_assert_eq!(dense.contains(probe), expect);
        let in_order: Vec<u32> = ids.iter().copied().collect();
        prop_assert_eq!(sparse.ids(), in_order.clone());
        prop_assert_eq!(dense.ids(), in_order.clone());
        // Word round-trip: both containers materialize the same words,
        // and re-importing them under the default knee reproduces the set.
        let words = sparse.to_words();
        prop_assert_eq!(&dense.to_words(), &words);
        let rebuilt = IdBits::from_words(words, 192);
        prop_assert_eq!(rebuilt.ids(), in_order);
    }

    #[test]
    fn subset_and_covering_agree_across_containers(a in id_set(), b in id_set()) {
        let (sa, da) = both_reprs(&a, 192);
        let (sb, db) = both_reprs(&b, 192);
        let model = a.is_subset(&b);
        // All four container pairings take distinct code paths.
        prop_assert_eq!(sa.subset_of(&sb), model);
        prop_assert_eq!(sa.subset_of(&db), model);
        prop_assert_eq!(da.subset_of(&sb), model);
        prop_assert_eq!(da.subset_of(&db), model);
        // The Lemma 5.1 covering test is the same relation from the
        // superset's side, with the subset as dense words.
        let a_words = da.to_words();
        prop_assert_eq!(sb.superset_of_words(&a_words), model);
        prop_assert_eq!(db.superset_of_words(&a_words), model);
    }

    #[test]
    fn intersection_agrees_across_containers(a in id_set(), b in id_set()) {
        let (sa, da) = both_reprs(&a, 192);
        let (sb, db) = both_reprs(&b, 192);
        let model: Vec<u32> = a.intersection(&b).copied().collect();
        for (x, y) in [(&sa, &sb), (&sa, &db), (&da, &sb), (&da, &db)] {
            let got = x.intersect(y);
            prop_assert_eq!(got.ids(), model.clone());
            prop_assert_eq!(got.count(), model.len());
        }
    }

    #[test]
    fn union_into_words_agrees_across_containers(a in id_set(), b in id_set()) {
        let (sa, da) = both_reprs(&a, 192);
        let (_, db) = both_reprs(&b, 192);
        let model: Vec<u32> = a.union(&b).copied().collect();
        for x in [&sa, &da] {
            let mut words = db.to_words();
            x.union_into(&mut words);
            prop_assert_eq!(IdBits::from_words(words, 192).ids(), model.clone());
        }
    }

    #[test]
    fn inserts_upgrade_without_losing_members(ids in id_set()) {
        // A tight knee (universe/4) so random sets actually cross it.
        let mut set = IdBits::empty_with(192, 4);
        for &id in &ids {
            prop_assert!(set.insert(id));
            prop_assert!(!set.insert(id));
        }
        let in_order: Vec<u32> = ids.iter().copied().collect();
        prop_assert_eq!(set.ids(), in_order);
        // The container matches the knee: sparse iff count * 4 <= 192.
        prop_assert_eq!(set.is_sparse(), ids.len() * 4 <= 192);
    }
}
