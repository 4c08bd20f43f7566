//! Bitset kernel properties: every word op in `whynot_concepts::kernels`
//! against its one-line definitional model, on random slices of 0..=19
//! words (empty, one word, and multi-word lengths).

use proptest::prelude::*;
use whynot_concepts::kernels;

prop_compose! {
    /// A random word slice of length 0..=19.
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
    fn subset_matches_model((a, b) in word_pair()) {
        let model = a.iter().zip(&b).all(|(x, y)| x & !y == 0);
        prop_assert_eq!(kernels::subset(&a, &b), model);
        // A slice is always a subset of itself and a superset of zeros.
        prop_assert!(kernels::subset(&a, &a));
        prop_assert!(kernels::subset(&vec![0u64; a.len()], &a));
    }

    #[test]
    fn and_assign_matches_model_and_reports_emptiness((a, b) in word_pair()) {
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
    fn or_assign_matches_model((a, b) in word_pair()) {
        let mut dst = a.clone();
        kernels::or_assign(&mut dst, &b);
        let model: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x | y).collect();
        prop_assert_eq!(dst, model);
    }

    #[test]
    fn counts_match_model(a in words()) {
        let model: usize = a.iter().map(|w| w.count_ones() as usize).sum();
        prop_assert_eq!(kernels::count_ones(&a), model);
        prop_assert_eq!(kernels::is_zero(&a), model == 0);
    }

    #[test]
    fn and_count_matches_materialized_and((a, b) in word_pair()) {
        let model: usize = a.iter().zip(&b).map(|(x, y)| (x & y).count_ones() as usize).sum();
        prop_assert_eq!(kernels::and_count(&a, &b), model);
    }

    #[test]
    fn ones_lists_the_set_bits_ascending(a in words()) {
        let model: Vec<usize> = (0..a.len() * 64)
            .filter(|&i| a[i / 64] >> (i % 64) & 1 != 0)
            .collect();
        prop_assert_eq!(kernels::ones(&a).collect::<Vec<_>>(), model);
    }
}
