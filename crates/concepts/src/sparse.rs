//! Two-level (roaring-style) id sets: sorted-array containers for
//! low-density columns, dense words above the threshold.
//!
//! The engine's bitsets are dense by default: one bit per pooled
//! constant, `pool.word_len()` words per set. That is the right shape
//! for extensions like `Continent = Europe` that hold a constant
//! fraction of the domain — but a `(rel, attr)` occurrence column or a
//! small region extension over a large pool wastes a cache line per 64
//! mostly-zero constants, and every subset test still scans all of
//! them. [`IdBits`] keeps such sets as a sorted `Vec<u32>` of ids
//! instead, switching automatically to dense words once the set is
//! populous enough that the array stops paying for itself.
//!
//! The representation is chosen per set at build time by
//! [`sparse_threshold`]: a set of `count` members over a `universe`-id
//! pool stays sparse while `count * threshold <= universe` (default
//! threshold 32, i.e. sparse below 1/32 density). The
//! `WHYNOT_SPARSE_THRESHOLD` environment variable overrides the
//! threshold process-wide: `0` forces every set sparse, `max` (or
//! `usize::MAX`) forces every set dense — CI runs the full test suite
//! at both extremes, and the proptests in `tests/kernels_sparse.rs`
//! pin the two representations to identical semantics.

use crate::kernels;
use std::sync::OnceLock;

/// Default density knee: sparse while `count * 32 <= universe`.
const DEFAULT_THRESHOLD: usize = 32;

/// The process-wide sparse/dense threshold (see the module docs):
/// `WHYNOT_SPARSE_THRESHOLD` when set (`0` = all-sparse, `max` =
/// all-dense), 32 otherwise.
pub fn sparse_threshold() -> usize {
    static THRESHOLD: OnceLock<usize> = OnceLock::new();
    *THRESHOLD.get_or_init(|| match std::env::var("WHYNOT_SPARSE_THRESHOLD") {
        Ok(raw) => match raw.trim() {
            "max" | "MAX" => usize::MAX,
            other => other.parse().unwrap_or(DEFAULT_THRESHOLD),
        },
        Err(_) => DEFAULT_THRESHOLD,
    })
}

/// Whether a set of `count` members over `universe` ids should use the
/// sparse container under `threshold`.
#[inline]
fn choose_sparse(count: usize, universe: usize, threshold: usize) -> bool {
    if threshold == usize::MAX {
        false
    } else {
        count.saturating_mul(threshold) <= universe
    }
}

#[inline]
fn word_len(universe: usize) -> usize {
    universe.div_ceil(64)
}

/// A set of ids `< universe` in one of two containers, semantically a
/// plain bitset either way.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Repr {
    /// Sorted, deduplicated member ids.
    Sparse(Vec<u32>),
    /// Dense occurrence words (`word_len(universe)` of them).
    Dense(Vec<u64>),
}

/// A two-level id set over a fixed universe (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdBits {
    universe: usize,
    threshold: usize,
    repr: Repr,
}

impl IdBits {
    /// The empty set over `universe` ids, using the process-wide
    /// [`sparse_threshold`].
    pub fn empty(universe: usize) -> Self {
        IdBits::empty_with(universe, sparse_threshold())
    }

    /// [`IdBits::empty`] with an explicit threshold (tests pin both
    /// representations without touching the environment).
    pub fn empty_with(universe: usize, threshold: usize) -> Self {
        let repr = if choose_sparse(0, universe, threshold) {
            Repr::Sparse(Vec::new())
        } else {
            Repr::Dense(vec![0u64; word_len(universe)])
        };
        IdBits {
            universe,
            threshold,
            repr,
        }
    }

    /// Builds from dense words (consumed — the dense container keeps
    /// them without copying), using the process-wide threshold.
    pub fn from_words(words: Vec<u64>, universe: usize) -> Self {
        IdBits::from_words_with(words, universe, sparse_threshold())
    }

    /// [`IdBits::from_words`] with an explicit threshold.
    pub fn from_words_with(words: Vec<u64>, universe: usize, threshold: usize) -> Self {
        debug_assert_eq!(words.len(), word_len(universe));
        match IdBits::sparse_from_words_with(&words, universe, threshold) {
            Some(sparse) => sparse,
            None => IdBits {
                universe,
                threshold,
                repr: Repr::Dense(words),
            },
        }
    }

    /// Builds the sparse container for a borrowed word slice **iff**
    /// the process-wide threshold selects sparse for its density —
    /// `None` means "stay dense", with no copy made (the extension
    /// table keeps probing its own words in that case).
    pub fn sparse_from_words(words: &[u64], universe: usize) -> Option<Self> {
        IdBits::sparse_from_words_with(words, universe, sparse_threshold())
    }

    /// [`IdBits::sparse_from_words`] with an explicit threshold.
    pub fn sparse_from_words_with(
        words: &[u64],
        universe: usize,
        threshold: usize,
    ) -> Option<Self> {
        let count = kernels::count_ones(words);
        if !choose_sparse(count, universe, threshold) {
            return None;
        }
        let mut ids = Vec::with_capacity(count);
        for (w, &word) in words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                ids.push((w * 64 + b) as u32);
            }
        }
        Some(IdBits {
            universe,
            threshold,
            repr: Repr::Sparse(ids),
        })
    }

    /// The universe size the ids index into.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Whether the set currently uses the sparse container.
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, Repr::Sparse(_))
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        match &self.repr {
            Repr::Sparse(ids) => ids.len(),
            Repr::Dense(words) => kernels::count_ones(words),
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Sparse(ids) => ids.is_empty(),
            Repr::Dense(words) => kernels::is_zero(words),
        }
    }

    /// Membership test: a binary search in the sparse container, a bit
    /// probe in the dense one.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        match &self.repr {
            Repr::Sparse(ids) => ids.binary_search(&id).is_ok(),
            Repr::Dense(words) => {
                let i = id as usize;
                i < self.universe && words[i / 64] & (1 << (i % 64)) != 0
            }
        }
    }

    /// Inserts an id (`< universe`); returns whether it was new. A
    /// sparse container that grows past the density knee upgrades to
    /// dense in place.
    pub fn insert(&mut self, id: u32) -> bool {
        debug_assert!((id as usize) < self.universe);
        let fresh = match &mut self.repr {
            Repr::Sparse(ids) => match ids.binary_search(&id) {
                Ok(_) => false,
                Err(at) => {
                    ids.insert(at, id);
                    true
                }
            },
            Repr::Dense(words) => {
                let i = id as usize;
                let fresh = words[i / 64] & (1 << (i % 64)) == 0;
                words[i / 64] |= 1 << (i % 64);
                return fresh;
            }
        };
        if let Repr::Sparse(ids) = &self.repr {
            if !choose_sparse(ids.len(), self.universe, self.threshold) {
                let mut words = vec![0u64; word_len(self.universe)];
                for &id in ids {
                    words[id as usize / 64] |= 1 << (id as usize % 64);
                }
                self.repr = Repr::Dense(words);
            }
        }
        fresh
    }

    /// The Lemma 5.1 covering test `sub ⊆ self`, where `sub` is a dense
    /// word slice over the same universe. Dense containers answer with
    /// the unrolled [`kernels::subset`]; sparse containers walk `sub`'s
    /// set bits and binary-search each (`|sub| log |self|`, no scan of
    /// the universe).
    pub fn superset_of_words(&self, sub: &[u64]) -> bool {
        match &self.repr {
            Repr::Dense(words) => kernels::subset(sub, words),
            Repr::Sparse(ids) => {
                for (w, &word) in sub.iter().enumerate() {
                    let mut rest = word;
                    while rest != 0 {
                        let b = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        if ids.binary_search(&((w * 64 + b) as u32)).is_err() {
                            return false;
                        }
                    }
                }
                true
            }
        }
    }

    /// In-place intersection `words &= self`, where `words` is a dense
    /// word slice over the same universe (the lub engine ANDs covering
    /// columns into a running extension this way).
    pub fn intersect_words(&self, words: &mut [u64]) {
        match &self.repr {
            Repr::Dense(mine) => {
                kernels::and_assign(words, mine);
            }
            Repr::Sparse(ids) => {
                let mut kept = vec![0u64; words.len()];
                for &id in ids {
                    let (w, b) = (id as usize / 64, id as usize % 64);
                    kept[w] |= words[w] & (1 << b);
                }
                words.copy_from_slice(&kept);
            }
        }
    }

    /// In-place union `words |= self`, where `words` is a dense word
    /// slice over the same universe (the lub engine ORs every column
    /// into `adom(I)` this way).
    pub fn union_into(&self, words: &mut [u64]) {
        match &self.repr {
            Repr::Dense(mine) => kernels::or_assign(words, mine),
            Repr::Sparse(ids) => {
                for &id in ids {
                    words[id as usize / 64] |= 1 << (id as usize % 64);
                }
            }
        }
    }

    /// Subset test `self ⊆ other` over the same universe.
    pub fn subset_of(&self, other: &IdBits) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => kernels::subset(a, b),
            (Repr::Sparse(ids), _) => ids.iter().all(|&id| other.contains(id)),
            (Repr::Dense(_), Repr::Sparse(_)) => other.superset_of_words(&self.to_words()),
        }
    }

    /// Intersection over the same universe; the result re-selects its
    /// container by the surviving count.
    pub fn intersect(&self, other: &IdBits) -> IdBits {
        debug_assert_eq!(self.universe, other.universe);
        match (&self.repr, &other.repr) {
            (Repr::Dense(a), Repr::Dense(b)) => {
                let mut words = a.clone();
                kernels::and_assign(&mut words, b);
                IdBits::from_words_with(words, self.universe, self.threshold)
            }
            (Repr::Sparse(ids), _) => {
                let kept: Vec<u32> = ids
                    .iter()
                    .copied()
                    .filter(|&id| other.contains(id))
                    .collect();
                IdBits {
                    universe: self.universe,
                    threshold: self.threshold,
                    repr: Repr::Sparse(kept),
                }
                .renormalized()
            }
            (Repr::Dense(_), Repr::Sparse(ids)) => {
                let kept: Vec<u32> = ids
                    .iter()
                    .copied()
                    .filter(|&id| self.contains(id))
                    .collect();
                IdBits {
                    universe: self.universe,
                    threshold: self.threshold,
                    repr: Repr::Sparse(kept),
                }
                .renormalized()
            }
        }
    }

    /// Member ids in ascending order.
    pub fn ids(&self) -> Vec<u32> {
        match &self.repr {
            Repr::Sparse(ids) => ids.clone(),
            Repr::Dense(words) => {
                let mut out = Vec::with_capacity(kernels::count_ones(words));
                for (w, &word) in words.iter().enumerate() {
                    let mut rest = word;
                    while rest != 0 {
                        let b = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        out.push((w * 64 + b) as u32);
                    }
                }
                out
            }
        }
    }

    /// Dense words over the universe (a copy for sparse containers).
    pub fn to_words(&self) -> Vec<u64> {
        match &self.repr {
            Repr::Dense(words) => words.clone(),
            Repr::Sparse(ids) => {
                let mut words = vec![0u64; word_len(self.universe)];
                for &id in ids {
                    words[id as usize / 64] |= 1 << (id as usize % 64);
                }
                words
            }
        }
    }

    /// Re-applies the container choice to the current count (after bulk
    /// operations that may have crossed the knee in either direction).
    fn renormalized(self) -> IdBits {
        let sparse_now = choose_sparse(self.count(), self.universe, self.threshold);
        match (&self.repr, sparse_now) {
            (Repr::Sparse(_), true) | (Repr::Dense(_), false) => self,
            _ => {
                let words = self.to_words();
                let mut out = IdBits::from_words_with(words, self.universe, self.threshold);
                out.threshold = self.threshold;
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representation_follows_the_threshold() {
        // 4 members over 256 ids: sparse at 1/32 density knee.
        let mut words = vec![0u64; 4];
        for id in [3u32, 64, 129, 255] {
            words[id as usize / 64] |= 1 << (id % 64);
        }
        let sparse = IdBits::from_words_with(words.clone(), 256, DEFAULT_THRESHOLD);
        assert!(sparse.is_sparse());
        assert_eq!(sparse.count(), 4);
        let forced_dense = IdBits::from_words_with(words.clone(), 256, usize::MAX);
        assert!(!forced_dense.is_sparse());
        let forced_sparse = IdBits::from_words_with(vec![u64::MAX; 4], 256, 0);
        assert!(forced_sparse.is_sparse());
        assert_eq!(forced_sparse.count(), 256);
        assert_eq!(sparse.to_words(), words);
    }

    #[test]
    fn insert_upgrades_across_the_knee() {
        let mut set = IdBits::empty_with(64, 8);
        assert!(set.is_sparse());
        for id in 0..16 {
            assert!(set.insert(id));
            assert!(!set.insert(id));
        }
        // 9 * 8 > 64: upgraded to dense along the way.
        assert!(!set.is_sparse());
        assert_eq!(set.count(), 16);
        assert!((0..16).all(|id| set.contains(id)));
        assert!(!set.contains(40));
    }

    #[test]
    fn covering_and_intersection_agree_across_containers() {
        let mk = |ids: &[u32], threshold| {
            let mut set = IdBits::empty_with(192, threshold);
            for &id in ids {
                set.insert(id);
            }
            set
        };
        let a_ids = [1u32, 5, 70, 140];
        let b_ids = [1u32, 70, 141];
        for (ta, tb) in [(0, 0), (0, usize::MAX), (usize::MAX, 0)] {
            let a = mk(&a_ids, ta);
            let b = mk(&b_ids, tb);
            assert!(!a.subset_of(&b));
            assert!(b.intersect(&a).ids() == vec![1, 70]);
            assert!(a.superset_of_words(&mk(&[5, 140], usize::MAX).to_words()));
            assert!(!a.superset_of_words(&mk(&[141], usize::MAX).to_words()));
        }
    }
}
