//! [`Memo`]: the bounded memo table behind each session cache.
//!
//! A memo maps keys to values under an entry budget and evicts the
//! least-recently-used entry when an insert would exceed it. Every `get`
//! and `insert` stamps its entry from the memo's own clock, so stamps are
//! unique and the victim, the minimum stamp, does not depend on the
//! map's iteration order. Finding it scans the map: `O(len)`, and `len`
//! never exceeds the budget.

// lint: allow(deterministic-iteration) — entries are probed by key; the
// one order-sensitive scan, the eviction victim, is a minimum over
// unique stamps.
use std::collections::HashMap;
use std::hash::Hash;

/// A key → value memo with an entry budget and LRU eviction.
pub(crate) struct Memo<K, V> {
    /// Each value with the stamp of its last `get` or `insert`.
    // lint: allow(deterministic-iteration) — see the import.
    map: HashMap<K, (V, u64)>,
    /// The last stamp handed out.
    clock: u64,
    /// Max entries: 0 disables the memo, `usize::MAX` never evicts.
    budget: usize,
    /// Entries evicted to stay inside the budget or by `evict_where`.
    evicted: usize,
}

impl<K: Clone + Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty, unlimited memo.
    pub(crate) fn new() -> Self {
        Memo {
            // lint: allow(deterministic-iteration) — see the import.
            map: HashMap::new(),
            clock: 0,
            budget: usize::MAX,
            evicted: 0,
        }
    }

    /// Cached entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Entries evicted so far.
    pub(crate) fn evicted(&self) -> usize {
        self.evicted
    }

    /// The value cached under `key`, marked as most recently used.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        let (value, stamp) = self.map.get_mut(key)?;
        self.clock += 1;
        *stamp = self.clock;
        Some(value.clone())
    }

    /// Caches `value` under a key not yet cached, evicting
    /// least-recently-used entries first to make room. Returns the
    /// evicted values; under budget 0 nothing is cached or evicted.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Vec<V> {
        if self.budget == 0 {
            return Vec::new();
        }
        let evicted = self.trim(self.budget - 1);
        self.clock += 1;
        self.map.insert(key, (value, self.clock));
        evicted
    }

    /// Sets the budget and trims down to it immediately,
    /// least-recently-used first. Returns the evicted values.
    pub(crate) fn set_budget(&mut self, budget: usize) -> Vec<V> {
        self.budget = budget;
        self.trim(budget)
    }

    /// Evicts least-recently-used entries until at most `max` remain.
    fn trim(&mut self, max: usize) -> Vec<V> {
        let mut out = Vec::new();
        while self.map.len() > max {
            let victim = self.map.iter().min_by_key(|(_, (_, stamp))| *stamp);
            let Some(victim) = victim.map(|(k, _)| k.clone()) else {
                break;
            };
            if let Some((value, _)) = self.map.remove(&victim) {
                self.evicted += 1;
                out.push(value);
            }
        }
        out
    }

    /// Keeps the entries `keep` accepts (it may update their values) and
    /// drops the rest without counting them as evictions. Returns the
    /// `(dropped, retained)` counts.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) -> (usize, usize) {
        let before = self.map.len();
        self.map.retain(|k, (v, _)| keep(k, v));
        (before - self.map.len(), self.map.len())
    }

    /// Evicts every entry whose key matches `doomed`, counting each as an
    /// eviction.
    pub(crate) fn evict_where(&mut self, mut doomed: impl FnMut(&K) -> bool) {
        let (dropped, _) = self.retain(|k, _| !doomed(k));
        self.evicted += dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_lru_first_and_counts_only_evictions() {
        let mut memo = Memo::new();
        memo.set_budget(3);
        for k in 0..3 {
            memo.insert(k, k * 10);
        }
        assert_eq!(memo.get(&0), Some(0));
        assert_eq!(memo.insert(3, 30), vec![10], "1 is least recently used");
        let kept = memo.retain(|&k, v| {
            *v += 1;
            k != 2
        });
        assert_eq!(kept, (1, 2), "retain drops 2 without evicting it");
        memo.evict_where(|&k| k == 0);
        assert_eq!((memo.len(), memo.evicted()), (1, 2));
        assert_eq!(memo.get(&3), Some(31));
        assert_eq!(memo.set_budget(0), vec![31]);
        assert!(memo.insert(4, 40).is_empty());
        assert_eq!((memo.len(), memo.evicted()), (0, 3));
    }
}
