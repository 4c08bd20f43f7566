//! Bitset word kernels.
//!
//! Every hot loop in the engine — subset tests in [`Extension`]
//! comparisons, the Lemma 5.1 covering test in the lub engine, and the
//! conflict-mask ANDs of Algorithm 1's product walk — reduces to a
//! handful of word-wise operations over `&[u64]` slices, one bit per
//! pooled constant. This module is the single implementation all three
//! engine crates share, one plain loop per operation.
//!
//! The binary kernels take equal-length slices (sets over one pool
//! always have them; the engine never compares raw slices from
//! different pools). `tests/kernels.rs` pins every kernel to its
//! one-line definitional model.
//!
//! [`Extension`]: crate::Extension

/// Subset test over equal-length word slices: `sub & !sup == 0`.
#[inline]
pub fn subset(sub: &[u64], sup: &[u64]) -> bool {
    debug_assert_eq!(sub.len(), sup.len());
    sub.iter().zip(sup).all(|(a, b)| a & !b == 0)
}

/// In-place intersection `dst &= src`; returns `true` iff the result is
/// all-zero (the product walk's "this subtree already excludes every
/// answer" signal, fused so the walk never re-scans the mask).
#[inline]
pub fn and_assign(dst: &mut [u64], src: &[u64]) -> bool {
    debug_assert_eq!(dst.len(), src.len());
    let mut any = 0u64;
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= s;
        any |= *d;
    }
    any == 0
}

/// Out-of-place intersection `dst = a & b`; returns `true` iff the
/// result is all-zero. `dst` must be at least as long as the inputs.
#[inline]
pub fn and_into(dst: &mut [u64], a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(dst.len() >= a.len());
    let mut any = 0u64;
    for ((d, x), y) in dst.iter_mut().zip(a).zip(b) {
        *d = x & y;
        any |= *d;
    }
    any == 0
}

/// In-place union `dst |= src`.
#[inline]
pub fn or_assign(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Population count across a word slice.
#[inline]
pub fn count_ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Whether every word is zero.
#[inline]
pub fn is_zero(words: &[u64]) -> bool {
    words.iter().all(|&w| w == 0)
}

/// Intersection popcount `|a ∩ b|` without materializing the result
/// (selectivity estimation for candidate ordering).
#[inline]
pub fn and_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// The indices of the set bits, ascending (`id`s of a bitset over a
/// pool).
#[inline]
pub fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + b
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_full_words() {
        let zero = vec![0u64; 9];
        let full = vec![u64::MAX; 9];
        assert!(subset(&zero, &full));
        assert!(subset(&zero, &zero));
        assert!(!subset(&full, &zero));
        assert!(is_zero(&zero));
        assert!(!is_zero(&full));
        assert_eq!(count_ones(&full), 9 * 64);
        assert_eq!(and_count(&full, &full), 9 * 64);
        let mut d = full.clone();
        assert!(and_assign(&mut d, &zero));
        assert!(is_zero(&d));
    }
}
