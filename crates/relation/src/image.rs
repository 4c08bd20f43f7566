//! Id images: a relation's rows over a shared [`ConstPool`], indexed per
//! attribute, and answer sets kept in the same id space.
//!
//! An [`IdImage`] stores one relation's tuples as row-major `u32` ids,
//! plus one CSR bucket array per attribute (id → the ascending rows
//! carrying it). Because a pool's id order is its value order, the rows
//! whose attribute lies in a value range form one contiguous run of a
//! bucket array ([`IdImage::rows_in`]). Images are built with one pool
//! probe per cell, move to the next pool generation through a
//! [`PoolMap`] without touching a value, and follow a delta
//! ([`IdImage::patch`] with a [`RowDelta`]) without a pool probe.
//!
//! [`Ucq::eval_ids`](crate::Ucq::eval_ids) evaluates a query over images
//! and returns an [`AnswerRows`]: the answers as sorted id rows, in the
//! same order as the `BTreeSet<Tuple>` that [`Ucq::eval`](crate::Ucq::eval)
//! returns. A head constant the pool does not intern gets an id past the
//! pool's end, resolved through the set's small overflow list.
//! [`Ucq::patch_ids`](crate::Ucq::patch_ids) carries an answer set across
//! the [`RowDelta`]s of the relations its query reads.

use crate::delta::NetChange;
use crate::instance::{Instance, Tuple};
use crate::pool::{ConstPool, PoolMap, ValueId};
use crate::schema::RelId;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One relation's tuples over a pool's ids, with a CSR bucket array per
/// attribute.
#[derive(Clone, Debug)]
pub struct IdImage {
    arity: usize,
    len: usize,
    /// Row-major ids, `arity` per row: in tuple order when built, in the
    /// order [`IdImage::patch`] leaves them in after a delta.
    rows: Vec<u32>,
    /// Per attribute, the rows grouped by the id they carry there.
    cols: Vec<Buckets>,
}

/// One relation's net change between two states, as id rows over a pool:
/// the rows the later state gained and the rows it lost. Built from a
/// run of [`NetChange`]s, it stays net: a row inserted and then deleted
/// again leaves no trace.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct RowDelta {
    inserted: BTreeSet<Box<[u32]>>,
    deleted: BTreeSet<Box<[u32]>>,
}

/// The CSR index of one attribute over the ids occurring in it.
///
/// Slot `k` of the index holds the rows `order[offsets[k]..offsets[k + 1]]`.
/// A dense column has one slot per id of `base ..= max` (slot `id -
/// base`, found by subtraction); a sparse one, whose ids are spread thin
/// over the pool (see [`DENSE_SPAN_PER_ROW`]), has one slot per distinct
/// id, found by binary search in `keys`. Either way the index takes
/// O(rows) space, and slots ascend with ids.
#[derive(Clone, Debug)]
struct Buckets {
    /// The distinct ids of a sparse column, ascending; `None` when dense.
    keys: Option<Vec<u32>>,
    /// The least id occurring (0 for an empty relation).
    base: u32,
    /// Slot `k`'s rows start at `order[offsets[k]]`; one entry per slot,
    /// plus one.
    offsets: Vec<u32>,
    /// Row numbers grouped by ascending id, ascending within a group.
    order: Vec<u32>,
}

/// A column indexes one slot per id of its span `base ..= max` while the
/// span is at most this many ids per row (plus [`DENSE_SPAN_SLACK`]), and
/// one slot per distinct id beyond that.
const DENSE_SPAN_PER_ROW: usize = 4;

/// Spans this short stay dense whatever the row count.
const DENSE_SPAN_SLACK: usize = 64;

impl IdImage {
    /// The image of `rel`'s tuples of length `arity` over `pool`: one
    /// pool probe per cell. `None` when some cell is not interned.
    pub fn build(inst: &Instance, rel: RelId, arity: usize, pool: &ConstPool) -> Option<IdImage> {
        let mut rows = Vec::with_capacity(inst.cardinality(rel) * arity);
        let mut len = 0;
        for t in inst.tuples(rel).filter(|t| t.len() == arity) {
            for v in t {
                rows.push(pool.id_of(v)?.0);
            }
            len += 1;
        }
        Some(IdImage::from_rows(arity, len, rows))
    }

    /// Indexes `len` rows of row-major ids, `arity` per row (a nullary
    /// relation's rows carry no ids, hence the explicit length).
    pub(crate) fn from_rows(arity: usize, len: usize, rows: Vec<u32>) -> IdImage {
        let cols = (0..arity)
            .map(|p| Buckets::build(&rows, arity, p, len))
            .collect();
        IdImage {
            arity,
            len,
            rows,
            cols,
        }
    }

    /// The image in the next pool generation: every id translated
    /// through `map`, which keeps value order, so rows keep their order.
    /// `None` when `map` misses an id (generation maps never do).
    pub fn remap(&self, map: &PoolMap) -> Option<IdImage> {
        let rows = self
            .rows
            .iter()
            .map(|&id| map.translate(ValueId(id)).map(|t| t.0))
            .collect::<Option<Vec<u32>>>()?;
        Some(IdImage::from_rows(self.arity, self.len, rows))
    }

    /// Brings the image to the state after `delta`, a net change from
    /// the state it holds: deleted rows are swap-removed and inserted
    /// rows appended, then the buckets are re-indexed from the id rows,
    /// with no pool probe. A deleted row the image lacks is skipped.
    pub fn patch(&mut self, delta: &RowDelta) {
        let arity = self.arity;
        let mut gone: Vec<usize> = delta.deleted().filter_map(|d| self.find(d)).collect();
        // Removing the highest rows first: the last row, moved into the
        // freed slot, is never one still to go.
        gone.sort_unstable_by(|a, b| b.cmp(a));
        debug_assert!(
            delta.inserted().all(|row| self.find(row).is_none()),
            "inserted row already present"
        );
        let mut rows = std::mem::take(&mut self.rows);
        let mut len = self.len;
        for r in gone {
            len -= 1;
            rows.copy_within(len * arity..(len + 1) * arity, r * arity);
        }
        rows.truncate(len * arity);
        for row in delta.inserted() {
            rows.extend_from_slice(row);
            len += 1;
        }
        *self = IdImage::from_rows(arity, len, rows);
    }

    /// The number of the row holding `ids`, found through the first
    /// attribute's bucket.
    fn find(&self, ids: &[u32]) -> Option<usize> {
        match ids.first() {
            None => (self.len > 0).then_some(0),
            Some(&first) => self
                .bucket(0, first)
                .iter()
                .map(|&r| r as usize)
                .find(|&r| self.row(r) == ids),
        }
    }

    /// The number of attributes.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `r`'s ids.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.rows[r * self.arity..(r + 1) * self.arity]
    }

    /// The rows whose attribute `attr` carries `id`, ascending — empty
    /// when the id never occurs there.
    pub fn bucket(&self, attr: usize, id: u32) -> &[u32] {
        let b = &self.cols[attr];
        match b.slot(id) {
            Some(k) => b.rows(k, k + 1),
            None => &[],
        }
    }

    /// The rows whose attribute `attr` carries an id in `lo ..= hi`,
    /// grouped by ascending id: one slice of the CSR array.
    pub fn rows_in(&self, attr: usize, lo: u32, hi: u32) -> &[u32] {
        let b = &self.cols[attr];
        let (start, end) = b.slots_in(lo, hi);
        b.rows(start, end)
    }

    /// The least and greatest ids occurring at `attr`; `None` for an
    /// empty relation.
    pub fn bounds(&self, attr: usize) -> Option<(u32, u32)> {
        let b = &self.cols[attr];
        let last = b.offsets.len().checked_sub(2)?;
        Some(match &b.keys {
            None => (b.base, b.base + last as u32),
            Some(keys) => (b.base, keys[last]),
        })
    }
}

impl RowDelta {
    /// The net effect of `changes`, applied in order, as rows of `pool`'s
    /// ids. `None` when some cell is not interned.
    pub fn of_changes<'c>(
        changes: impl IntoIterator<Item = &'c NetChange>,
        pool: &ConstPool,
    ) -> Option<RowDelta> {
        let ids = |tuples: &[Tuple]| {
            tuples
                .iter()
                .map(|t| t.iter().map(|v| pool.id_of(v).map(|id| id.0)).collect())
                .collect::<Option<Vec<Box<[u32]>>>>()
        };
        let mut out = RowDelta::default();
        for change in changes {
            // A row inserted now cancels an earlier delete of it, and a
            // row deleted now an earlier insert.
            for row in ids(&change.inserted)? {
                if !out.deleted.remove(&row) {
                    out.inserted.insert(row);
                }
            }
            for row in ids(&change.deleted)? {
                if !out.inserted.remove(&row) {
                    out.deleted.insert(row);
                }
            }
        }
        Some(out)
    }

    /// The rows gained, ascending.
    pub fn inserted(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.inserted.iter().map(|row| &**row)
    }

    /// The rows lost, ascending.
    pub fn deleted(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.deleted.iter().map(|row| &**row)
    }

    /// The number of rows gained or lost.
    pub fn len(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    /// Whether the change is empty.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }
}

impl Buckets {
    /// Indexes the `len` rows of `rows` (row-major, `arity` ids per row)
    /// by their id at attribute `p`: a counting sort over the id span
    /// when the column is dense, a sort of `(id, row)` pairs when sparse.
    fn build(rows: &[u32], arity: usize, p: usize, len: usize) -> Buckets {
        let id = |r: usize| rows[r * arity + p];
        let Some((base, max)) = (0..len).map(id).fold(None, |acc, x| match acc {
            None => Some((x, x)),
            Some((lo, hi)) => Some((x.min(lo), x.max(hi))),
        }) else {
            return Buckets {
                keys: None,
                base: 0,
                offsets: vec![0],
                order: Vec::new(),
            };
        };
        let span = (max - base) as usize + 1;
        if span > len * DENSE_SPAN_PER_ROW + DENSE_SPAN_SLACK {
            let mut pairs: Vec<(u32, u32)> = (0..len).map(|r| (id(r), r as u32)).collect();
            pairs.sort_unstable();
            let (mut keys, mut offsets) = (Vec::new(), Vec::new());
            for (at, &(x, _)) in pairs.iter().enumerate() {
                if keys.last() != Some(&x) {
                    keys.push(x);
                    offsets.push(at as u32);
                }
            }
            offsets.push(len as u32);
            return Buckets {
                keys: Some(keys),
                base,
                offsets,
                order: pairs.into_iter().map(|(_, r)| r).collect(),
            };
        }
        // offsets[k] := number of rows carrying an id ≤ base + k.
        let mut offsets = vec![0u32; span + 1];
        for r in 0..len {
            offsets[(id(r) - base) as usize] += 1;
        }
        let mut total = 0;
        for slot in offsets.iter_mut() {
            total += *slot;
            *slot = total;
        }
        // Filling from the last row walks each offset down to its
        // group's start and leaves every group ascending.
        let mut order = vec![0u32; len];
        for r in (0..len).rev() {
            let at = &mut offsets[(id(r) - base) as usize];
            *at -= 1;
            order[*at as usize] = r as u32;
        }
        Buckets {
            keys: None,
            base,
            offsets,
            order,
        }
    }

    /// The slot of `id`, if it occurs.
    fn slot(&self, id: u32) -> Option<usize> {
        match &self.keys {
            None => {
                let k = id.checked_sub(self.base)? as usize;
                (k + 1 < self.offsets.len()).then_some(k)
            }
            Some(keys) => keys.binary_search(&id).ok(),
        }
    }

    /// The slots `start..end` of the ids in `lo ..= hi`.
    fn slots_in(&self, lo: u32, hi: u32) -> (usize, usize) {
        match &self.keys {
            None => {
                let slots = self.offsets.len() - 1;
                let Some(top) = hi.checked_sub(self.base) else {
                    return (0, 0);
                };
                let end = (top as usize + 1).min(slots);
                let start = (lo.saturating_sub(self.base) as usize).min(end);
                (start, end)
            }
            Some(keys) => {
                let end = keys.partition_point(|&k| k <= hi);
                (keys.partition_point(|&k| k < lo).min(end), end)
            }
        }
    }

    /// The rows of slots `start..end`.
    fn rows(&self, start: usize, end: usize) -> &[u32] {
        &self.order[self.offsets[start] as usize..self.offsets[end] as usize]
    }
}

/// A query's answer set as sorted id rows over a pool: the id-space twin
/// of the `BTreeSet<Tuple>` that [`Ucq::eval`](crate::Ucq::eval) returns,
/// in the same order.
///
/// Ids below the pool's length are pool ids. A head constant the pool
/// does not intern gets the id `pool.len() + k`, where `k` is its index
/// in the set's overflow list; [`AnswerRows::value`] resolves either
/// kind, and rows are ordered by the values their ids stand for.
#[derive(Clone, Debug)]
pub struct AnswerRows {
    pool: Arc<ConstPool>,
    arity: usize,
    len: usize,
    /// Row-major ids, `arity` per row, in ascending tuple order.
    ids: Vec<u32>,
    /// The values of ids `pool.len()..`, distinct and outside the pool.
    overflow: Vec<Value>,
}

impl AnswerRows {
    /// The answers of an evaluation: `heads` holds every match's head
    /// ids, row-major, unsorted and possibly repeated (ids past the
    /// pool's end index `overflow`); a nullary evaluation reports only
    /// whether it `matched`.
    pub(crate) fn from_heads(
        pool: Arc<ConstPool>,
        arity: usize,
        matched: bool,
        heads: &[u32],
        overflow: Vec<Value>,
    ) -> AnswerRows {
        let mut answers = AnswerRows {
            pool,
            arity,
            len: usize::from(matched),
            ids: Vec::new(),
            overflow,
        };
        if arity > 0 {
            let rows = answers.sorted_rows(heads);
            answers.len = rows.len();
            answers.ids = rows.concat();
        }
        answers
    }

    /// Brings these answers to the state after a change, in place:
    /// drops the rows of `lost` and adds those of `gained` (both
    /// row-major, unsorted, possibly repeated; a gained row may already
    /// be present, a lost one absent, and no row is both). `overflow`
    /// extends the overflow list with the head constants the change's
    /// evaluation met. Each changed row is placed by binary search; the
    /// removals then close their gaps front to back and the inserts open
    /// theirs back to front, so only the rows past the first edit move.
    /// Positive arity only.
    pub(crate) fn patch(&mut self, overflow: Vec<Value>, gained: &[u32], lost: &[u32]) {
        debug_assert!(self.arity > 0 && overflow.starts_with(&self.overflow));
        self.overflow = overflow;
        let (arity, len) = (self.arity, self.len);
        let holds = |at: usize, row: &[u32]| at < len && self.cmp_rows(self.row(at), row).is_eq();
        let removals: Vec<usize> = self
            .sorted_rows(lost)
            .into_iter()
            .map(|row| (self.lower_bound(row), row))
            .filter(|&(at, row)| holds(at, row))
            .map(|(at, _)| at)
            .collect();
        // Each insert goes before the old row at `at`, and lands past the
        // removals before it.
        let inserts: Vec<(usize, &[u32])> = self
            .sorted_rows(gained)
            .into_iter()
            .map(|row| (self.lower_bound(row), row))
            .filter(|&(at, row)| !holds(at, row))
            .map(|(at, row)| (at - removals.partition_point(|&r| r < at), row))
            .collect();
        let ids = &mut self.ids;
        let (mut kept, mut read) = match removals.first() {
            Some(&first) => (first, first),
            None => (len, len),
        };
        for &at in &removals {
            ids.copy_within(read * arity..at * arity, kept * arity);
            kept += at - read;
            read = at + 1;
        }
        ids.copy_within(read * arity..len * arity, kept * arity);
        kept += len - read;
        let total = kept + inserts.len();
        ids.resize(total * arity, 0);
        let (mut read, mut write) = (kept, total);
        for &(at, row) in inserts.iter().rev() {
            let run = read - at;
            ids.copy_within(at * arity..read * arity, (write - run) * arity);
            write -= run + 1;
            read = at;
            ids[write * arity..(write + 1) * arity].copy_from_slice(row);
        }
        self.len = total;
    }

    /// The first row not ordered before `row`.
    fn lower_bound(&self, row: &[u32]) -> usize {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.cmp_rows(self.row(mid), row).is_lt() {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The distinct rows of row-major `ids`, in tuple order.
    fn sorted_rows<'r>(&self, ids: &'r [u32]) -> Vec<&'r [u32]> {
        let mut rows: Vec<&[u32]> = ids.chunks_exact(self.arity).collect();
        if self.overflow.is_empty() {
            // Pool ids compare as their values do.
            rows.sort_unstable();
        } else {
            rows.sort_unstable_by(|a, b| self.cmp_rows(a, b));
        }
        rows.dedup();
        rows
    }

    /// Resolves an ascending sequence of distinct tuples of length
    /// `arity` (such as a `BTreeSet<Tuple>`'s iteration) against `pool`;
    /// values outside the pool go to the overflow list.
    pub fn from_tuples<'t>(
        pool: Arc<ConstPool>,
        arity: usize,
        tuples: impl IntoIterator<Item = &'t Tuple>,
    ) -> AnswerRows {
        let mut rows = AnswerRows {
            pool,
            arity,
            len: 0,
            ids: Vec::new(),
            overflow: Vec::new(),
        };
        for t in tuples.into_iter().filter(|t| t.len() == arity) {
            for v in t {
                let id = match rows.id_of(v) {
                    Some(id) => id,
                    None => {
                        rows.overflow.push(v.clone());
                        (rows.pool.len() + rows.overflow.len() - 1) as u32
                    }
                };
                rows.ids.push(id);
            }
            rows.len += 1;
        }
        rows
    }

    /// The same answers over the next pool generation: pool ids are
    /// translated through `map` (which keeps value order, so rows keep
    /// theirs), and overflow values the new pool interns become pool
    /// ids. `None` when `map` misses an id (generation maps never do).
    pub fn remap(&self, pool: &Arc<ConstPool>, map: &PoolMap) -> Option<AnswerRows> {
        let old = self.pool.len() as u32;
        let mut overflow = Vec::new();
        let moved: Vec<u32> = self
            .overflow
            .iter()
            .map(|v| match pool.id_of(v) {
                Some(id) => id.0,
                None => {
                    overflow.push(v.clone());
                    (pool.len() + overflow.len() - 1) as u32
                }
            })
            .collect();
        let ids = self
            .ids
            .iter()
            .map(|&id| match id.checked_sub(old) {
                None => map.translate(ValueId(id)).map(|t| t.0),
                Some(k) => Some(moved[k as usize]),
            })
            .collect::<Option<Vec<u32>>>()?;
        Some(AnswerRows {
            pool: Arc::clone(pool),
            arity: self.arity,
            len: self.len,
            ids,
            overflow,
        })
    }

    /// The pool the ids index.
    pub fn pool(&self) -> &Arc<ConstPool> {
        &self.pool
    }

    /// The values of the ids past the pool's end.
    pub(crate) fn overflow(&self) -> &[Value] {
        &self.overflow
    }

    /// The head arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of answers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no answers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `r`'s ids.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.ids[r * self.arity..(r + 1) * self.arity]
    }

    /// Every row's ids, in tuple order.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len).map(|r| self.row(r))
    }

    /// The pool id an answer id stands for; `None` for an overflow id.
    pub fn pooled(&self, id: u32) -> Option<ValueId> {
        ((id as usize) < self.pool.len()).then_some(ValueId(id))
    }

    /// The value an answer id stands for.
    pub fn value(&self, id: u32) -> &Value {
        match id.checked_sub(self.pool.len() as u32) {
            None => self.pool.value(ValueId(id)),
            Some(k) => &self.overflow[k as usize],
        }
    }

    /// Row `r` as a tuple of values.
    pub fn tuple(&self, r: usize) -> Tuple {
        self.row(r)
            .iter()
            .map(|&id| self.value(id).clone())
            .collect()
    }

    /// Every answer as a tuple of values, in order.
    pub fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.len).map(|r| self.tuple(r))
    }

    /// The answers as the `BTreeSet<Tuple>` that value-space evaluation
    /// returns.
    pub fn to_set(&self) -> BTreeSet<Tuple> {
        self.tuples().collect()
    }

    /// The answer id of `v`: its pool id, or its overflow id.
    fn id_of(&self, v: &Value) -> Option<u32> {
        match self.pool.id_of(v) {
            Some(id) => Some(id.0),
            None => self
                .overflow
                .iter()
                .position(|o| o == v)
                .map(|k| (self.pool.len() + k) as u32),
        }
    }

    /// Orders two answer ids by the values they stand for.
    fn cmp_ids(&self, a: u32, b: u32) -> Ordering {
        let n = self.pool.len() as u32;
        if a == b {
            Ordering::Equal
        } else if a < n && b < n {
            a.cmp(&b)
        } else {
            self.value(a).cmp(self.value(b))
        }
    }

    /// Orders two rows of answer ids by the tuples they stand for.
    fn cmp_rows(&self, a: &[u32], b: &[u32]) -> Ordering {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.cmp_ids(x, y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// The row holding `t`, by binary search over the sorted rows.
    pub fn position(&self, t: &[Value]) -> Option<usize> {
        if t.len() != self.arity {
            return None;
        }
        let ids = t
            .iter()
            .map(|v| self.id_of(v))
            .collect::<Option<Vec<u32>>>()?;
        let at = self.lower_bound(&ids);
        (at < self.len && self.row(at) == ids.as_slice()).then_some(at)
    }

    /// Whether `t` is an answer.
    pub fn contains(&self, t: &[Value]) -> bool {
        self.position(t).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    #[test]
    fn buckets_and_ranges_follow_value_order() {
        let pool = ConstPool::from_values([s("a"), s("b"), s("c"), s("d"), s("e")]);
        let mut inst = Instance::new();
        for (x, y) in [("b", "d"), ("c", "b"), ("b", "b"), ("d", "c")] {
            inst.insert(RelId(0), vec![s(x), s(y)]);
        }
        let image = IdImage::build(&inst, RelId(0), 2, &pool).unwrap();
        assert_eq!(image.len(), 4);
        // Tuple order: (b,b), (b,d), (c,b), (d,c).
        assert_eq!(image.row(0), &[1, 1]);
        assert_eq!(image.bucket(0, 1), &[0, 1]);
        assert_eq!(image.bucket(1, 1), &[0, 2]);
        assert!(image.bucket(0, 0).is_empty());
        assert!(image.bucket(0, 4).is_empty());
        assert!(image.bucket(0, 99).is_empty());
        // Attribute 1 over ids 2..=3 (c, d): rows (d,c) then (b,d).
        assert_eq!(image.rows_in(1, 2, 3), &[3, 1]);
        assert_eq!(image.rows_in(1, 0, 99), &[0, 2, 3, 1]);
        assert!(image.rows_in(1, 4, 9).is_empty());
        assert!(image.rows_in(0, 0, 0).is_empty());
        assert_eq!(image.bounds(0), Some((1, 3)));
        assert_eq!(image.bounds(1), Some((1, 3)));
        // An unpooled cell fails the build.
        inst.insert(RelId(0), vec![s("zz"), s("a")]);
        assert!(IdImage::build(&inst, RelId(0), 2, &pool).is_none());
        // An empty relation has empty buckets everywhere.
        let empty = IdImage::build(&inst, RelId(5), 2, &pool).unwrap();
        assert!(empty.is_empty() && empty.bucket(0, 0).is_empty());
        assert!(empty.rows_in(1, 0, 9).is_empty());
        assert_eq!(empty.bounds(0), None);
    }

    #[test]
    fn sparse_columns_over_a_large_pool_index_only_their_ids() {
        let pool = ConstPool::from_values((0..100_000).map(Value::int));
        let mut inst = Instance::new();
        for (x, y) in [(5, 7), (50_000, 7), (99_999, 8), (50_000, 9)] {
            inst.insert(RelId(0), vec![Value::int(x), Value::int(y)]);
        }
        let image = IdImage::build(&inst, RelId(0), 2, &pool).unwrap();
        // Attribute 0 spans 5..=99_999 over 4 rows: one slot per distinct
        // id. Attribute 1 spans 3 ids: dense.
        assert_eq!(
            image.cols[0].keys.as_deref(),
            Some(&[5, 50_000, 99_999][..])
        );
        assert_eq!(image.cols[0].offsets.len(), 4);
        assert!(image.cols[1].keys.is_none());
        assert_eq!(image.bucket(0, 50_000), &[1, 2]);
        assert_eq!(image.bucket(0, 99_999), &[3]);
        for missing in [0, 4, 6, 49_999, 50_001, 100_000, u32::MAX] {
            assert!(image.bucket(0, missing).is_empty(), "id {missing}");
        }
        assert_eq!(image.rows_in(0, 0, u32::MAX), &[0, 1, 2, 3]);
        assert_eq!(image.rows_in(0, 6, 50_000), &[1, 2]);
        assert_eq!(image.rows_in(0, 50_000, 99_998), &[1, 2]);
        assert_eq!(image.rows_in(0, 50_001, 99_999), &[3]);
        assert!(image.rows_in(0, 6, 49_999).is_empty());
        assert!(image.rows_in(0, 99_999, 5).is_empty());
        assert_eq!(image.bounds(0), Some((5, 99_999)));
        assert_eq!(image.bounds(1), Some((7, 9)));
        assert_eq!(image.rows_in(1, 8, 9), &[3, 2]);
        // A remap keeps the column sparse and its rows in place.
        let mut gen = crate::pool::GenPool::new(Arc::new(pool));
        let map = gen.absorb([Value::int(-1)]).unwrap();
        let moved = image.remap(&map).unwrap();
        assert_eq!(moved.bounds(0), Some((6, 100_000)));
        assert_eq!(moved.bucket(0, 50_001), &[1, 2]);
        assert_eq!(moved.cols[0].offsets.len(), 4);
    }

    #[test]
    fn images_and_answers_remap_across_generations() {
        use crate::pool::GenPool;
        let mut gen = GenPool::new(Arc::new(ConstPool::from_values([s("b"), s("d")])));
        let mut inst = Instance::new();
        inst.insert(RelId(0), vec![s("b"), s("d")]);
        let image = IdImage::build(&inst, RelId(0), 2, gen.pool()).unwrap();
        let answers: BTreeSet<Tuple> = [vec![s("b"), s("c")], vec![s("d"), s("d")]].into();
        let rows = AnswerRows::from_tuples(Arc::clone(gen.pool()), 2, &answers);
        // "c" is outside the pool: an overflow id past the pool's end.
        assert_eq!(rows.row(0), &[0, 2]);
        assert!(rows.pooled(2).is_none());
        assert_eq!(rows.to_set(), answers);
        assert_eq!(rows.position(&[s("d"), s("d")]), Some(1));
        assert!(rows.contains(&[s("b"), s("c")]));
        assert!(!rows.contains(&[s("b"), s("b")]));
        assert!(!rows.contains(&[s("b"), s("zz")]));
        assert!(!rows.contains(&[s("b")]));

        let map = gen.absorb([s("a"), s("c")]).unwrap();
        let moved = image.remap(&map).unwrap();
        assert_eq!(moved.row(0), &[1, 3]);
        assert_eq!(moved.bucket(1, 3), &[0]);
        let moved = rows.remap(gen.pool(), &map).unwrap();
        // "c" is pooled now; the rows keep their order and values.
        assert_eq!(moved.row(0), &[1, 2]);
        assert!(moved.pooled(2).is_some());
        assert_eq!(moved.to_set(), answers);
    }

    #[test]
    fn patched_images_hold_the_changed_rows() {
        // A random stream of net changes, each deleting present rows and
        // inserting absent ones, over dense and sparse columns.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for universe in [12, 100_000] {
            let mut present: BTreeSet<Box<[u32]>> = BTreeSet::new();
            let mut image = IdImage::from_rows(2, 0, Vec::new());
            for _ in 0..200 {
                let mut delta = RowDelta::default();
                for _ in 0..next(5) {
                    let row: Box<[u32]> = [next(universe) as u32, next(universe) as u32].into();
                    if !present.contains(&row) {
                        delta.inserted.insert(row);
                    }
                }
                for _ in 0..next(4) {
                    if let Some(row) = present.iter().nth(next(present.len().max(1))) {
                        delta.deleted.insert(row.clone());
                    }
                }
                image.patch(&delta);
                present.retain(|row| !delta.deleted.contains(row));
                present.extend(delta.inserted);
                let mut rows: Vec<&[u32]> = (0..image.len()).map(|r| image.row(r)).collect();
                rows.sort_unstable();
                assert!(rows.iter().copied().eq(present.iter().map(|row| &**row)));
                for r in 0..image.len() {
                    let row = image.row(r);
                    assert!((0..2).all(|p| image.bucket(p, row[p]).contains(&(r as u32))));
                }
            }
        }
    }
}
