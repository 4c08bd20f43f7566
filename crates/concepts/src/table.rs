//! One-pass extension tables: evaluate a whole concept list against one
//! instance, re-interned into a single shared [`ConstPool`].
//!
//! Every search algorithm in the framework ultimately needs *all* of an
//! ontology's concept extensions over the same instance — Algorithm 1's
//! candidate construction, `consistent_with`'s pairwise inclusion check,
//! the `>card` branch-and-bound. Evaluating lazily per use re-runs the
//! extension function (and, pre-engine, re-allocated a `BTreeSet`) every
//! time. An [`ExtensionTable`] evaluates each concept exactly once,
//! re-interns the result into one pool, and hands out indexed access —
//! so every downstream comparison hits the word-parallel fast path of
//! [`Extension`].

use crate::extension::Extension;
use std::sync::Arc;
use whynot_relation::{ConstPool, PoolMap};

/// All of a concept list's extensions over one instance, sharing a pool.
#[derive(Clone, Debug)]
pub struct ExtensionTable {
    pool: Arc<ConstPool>,
    exts: Vec<Extension>,
}

impl ExtensionTable {
    /// Evaluates `count` concepts through `eval` (called exactly once per
    /// index, in order) and re-interns every result into `pool`.
    pub fn build(
        pool: Arc<ConstPool>,
        count: usize,
        mut eval: impl FnMut(usize) -> Extension,
    ) -> Self {
        let exts = (0..count).map(|i| eval(i).reinterned(&pool)).collect();
        ExtensionTable { pool, exts }
    }

    /// Builds a table by evaluating each item of a slice once.
    pub fn for_items<T>(
        pool: Arc<ConstPool>,
        items: &[T],
        mut eval: impl FnMut(&T) -> Extension,
    ) -> Self {
        ExtensionTable::build(pool, items.len(), |i| eval(&items[i]))
    }

    /// The shared pool.
    pub fn pool(&self) -> &Arc<ConstPool> {
        &self.pool
    }

    /// Rebuilds the table after an instance delta, re-evaluating **only**
    /// the `dirty` entries (those whose concept signature intersects the
    /// changed relations).
    ///
    /// Clean entries are retained as-is when the pool is unchanged, or
    /// bridged into the next generation with one [`PoolMap`] bit remap
    /// (`map = Some(…)` from
    /// [`GenPool::absorb`](whynot_relation::GenPool::absorb)) — overflow
    /// values the new generation interns migrate into bits
    /// automatically. Returns `(table, reevaluated, retained)`.
    pub fn refreshed(
        self,
        pool: Arc<ConstPool>,
        map: Option<&PoolMap>,
        dirty: &[bool],
        mut eval: impl FnMut(usize) -> Extension,
    ) -> (ExtensionTable, usize, usize) {
        debug_assert_eq!(dirty.len(), self.exts.len());
        let mut reevaluated = 0usize;
        let mut retained = 0usize;
        let exts = self
            .exts
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                if dirty[i] {
                    reevaluated += 1;
                    eval(i).reinterned(&pool)
                } else {
                    retained += 1;
                    match map {
                        None => e,
                        Some(m) => e.reinterned_via(&pool, m),
                    }
                }
            })
            .collect();
        (ExtensionTable { pool, exts }, reevaluated, retained)
    }

    /// The extension at `index`.
    pub fn get(&self, index: usize) -> &Extension {
        &self.exts[index]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.exts.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.exts.is_empty()
    }

    /// Iterates the extensions in concept order.
    pub fn iter(&self) -> impl Iterator<Item = &Extension> + '_ {
        self.exts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whynot_relation::Value;

    #[test]
    fn evaluates_each_entry_exactly_once() {
        let pool = Arc::new(ConstPool::from_values((0..8).map(Value::int)));
        let mut calls = vec![0usize; 3];
        let table = ExtensionTable::build(Arc::clone(&pool), 3, |i| {
            calls[i] += 1;
            Extension::finite((0..=i as i64).map(Value::int))
        });
        assert_eq!(calls, vec![1, 1, 1]);
        assert_eq!(table.len(), 3);
        assert_eq!(table.get(2).len(), Some(3));
        // Entries were re-interned into the shared pool.
        for e in table.iter() {
            if let Extension::Finite(set) = e {
                assert!(Arc::ptr_eq(set.pool(), &pool));
            }
        }
    }

    #[test]
    fn refreshed_reevaluates_only_dirty_entries() {
        let pool = Arc::new(ConstPool::from_values((0..8).map(Value::int)));
        let table = ExtensionTable::build(Arc::clone(&pool), 3, |i| {
            Extension::finite((0..=i as i64).map(Value::int))
        });
        let mut calls = vec![0usize; 3];
        let (table, reevaluated, retained) =
            table.refreshed(Arc::clone(&pool), None, &[false, true, false], |i| {
                calls[i] += 1;
                Extension::finite([Value::int(7)])
            });
        assert_eq!((reevaluated, retained), (1, 2));
        assert_eq!(calls, vec![0, 1, 0]);
        let seven = Value::int(7);
        assert!(table.get(1).contains(&seven));
        assert!(!table.get(0).contains(&seven));
    }

    #[test]
    fn refreshed_bridges_clean_entries_across_generations() {
        use whynot_relation::GenPool;
        let pool = Arc::new(ConstPool::from_values((0..4).map(Value::int)));
        // Entry 1 holds an out-of-pool (overflow) value that the next
        // generation interns — the remap must migrate it into bits.
        let ghost = Value::int(100);
        let table = ExtensionTable::build(Arc::clone(&pool), 2, |i| {
            if i == 0 {
                Extension::finite([Value::int(1), Value::int(3)])
            } else {
                Extension::finite([Value::int(2), ghost.clone()])
            }
        });
        let mut gen = GenPool::new(pool);
        let map = gen.absorb([ghost.clone()]).unwrap();
        let (table, reevaluated, retained) =
            table.refreshed(Arc::clone(gen.pool()), Some(&map), &[false, false], |_| {
                unreachable!("no dirty entries")
            });
        assert_eq!((reevaluated, retained), (0, 2));
        assert!(Arc::ptr_eq(table.pool(), gen.pool()));
        let id = table.pool().id_of(&ghost);
        let id = id.expect("ghost is interned in the new generation");
        let bit = |k: usize| table.get(k).as_finite().is_some_and(|s| s.contains_id(id));
        assert!(bit(1), "ghost migrated from the overflow set into bits");
        assert!(!bit(0));
        assert!(table.get(0).contains(&Value::int(3)));
    }
}
