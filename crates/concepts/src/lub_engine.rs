//! The pooled lub engine: `lub` / `lubσ` over interned columns, grown one
//! constant at a time.
//!
//! The free functions in [`crate::lub`] re-derive everything from the
//! instance on every call. A [`LubEngine`] pins one `(schema, instance)`
//! pair and a shared [`ConstPool`](whynot_relation::ConstPool) and interns
//! each `(rel, attr)` column **exactly once**: an occurrence bitset, the
//! column's id bounds, and an `id → rows` witness index. Lubs are then
//! computed by *growth*: a [`LubState`] for `lub(S)` becomes the state for
//! `lub(S ∪ {v})` without looking at the rest of `S` again.
//!
//! * **Lemma 5.1** (selection-free lub): the covering atoms of `S ∪ {v}`
//!   are the covering atoms of `S` whose column contains `v` — one bit
//!   probe per surviving column.
//! * **Lemma 5.2** (lub with selections): per `(rel, attr)`, the minimal
//!   boxes of `S ∪ {v}` are the minimal ones among `bbox(B₀ ∪ w)`, where
//!   `B₀` ranges over the minimal boxes of `S` and `w` over the rows with
//!   `w[attr] = v`; if `S` has no box, neither has `S ∪ {v}`. A singleton
//!   `{x}` starts from one point box per witness row of `x`. One step
//!   costs `|boxes(S)| × |witnesses(v)|` box stretches plus the dominance
//!   filter over them. Boxes live in
//!   [`ValueId`](whynot_relation::ValueId) space (id order is value
//!   order) and resolve to owned values only when the state's concept is
//!   assembled.
//!
//! A from-scratch `lub(X)` / `lubσ(X)` is the fold of these steps over
//! `X`, so a growth loop (Algorithm 2, CHECK-MGE, the contrast searches)
//! pays one step per probe instead of a full recomputation.
//!
//! Every state the engine builds also carries the lub's **extension**,
//! computed in the pool's id space from the same growth data: the AND of
//! the covered columns' occurrence bits (Lemma 5.1), or the AND over
//! boxes of the rows' ids inside each box (Lemma 5.2); a singleton is its
//! nominal and no atom at all is `⊤`. The growth loops decide each probe
//! from [`LubState::extension`], and the state's `LsConcept` is
//! assembled lazily, on the first [`LubState::concept`] or
//! [`LubState::into_concept`] call — so a rejected probe never builds a
//! concept or resolves an id to a value.
//!
//! Support elements outside the pool (e.g. a why-not question probing a
//! fresh constant) are handled exactly: no column contains them and no
//! row witnesses them, so a step by one clears every covering atom and
//! box — the lub degenerates to the nominal / `⊤`, the same answer the
//! legacy path gives.
//!
//! # Examples
//!
//! ```
//! use std::collections::BTreeSet;
//! use whynot_concepts::{lub, lub_sigma, LubEngine, LubKind, LubProvider};
//! use whynot_relation::{Instance, SchemaBuilder, Value};
//!
//! let mut b = SchemaBuilder::new();
//! let r = b.relation("Cities", ["name", "population"]);
//! let schema = b.finish().unwrap();
//! let mut inst = Instance::new();
//! inst.insert(r, vec![Value::str("Berlin"), Value::int(3_502_000)]);
//! inst.insert(r, vec![Value::str("Rome"), Value::int(2_753_000)]);
//! inst.insert(r, vec![Value::str("Santa Cruz"), Value::int(59_946)]);
//!
//! let engine = LubEngine::new(&schema, &inst);
//! let x: BTreeSet<Value> = [Value::str("Berlin"), Value::str("Rome")]
//!     .into_iter()
//!     .collect();
//! // Observationally equivalent to the legacy free functions…
//! assert_eq!(engine.lub(&x), lub(&schema, &inst, &x));
//! assert_eq!(engine.lub_sigma(&x), lub_sigma(&schema, &inst, &x));
//! // …and growable one constant at a time:
//! let berlin = engine.start(LubKind::WithSelections, &Value::str("Berlin"));
//! let grown = engine.grow(&berlin, &Value::str("Rome"));
//! assert_eq!(grown.concept(), &lub_sigma(&schema, &inst, &x));
//! // The columns were interned once, not once per call:
//! let before = engine.column_builds();
//! let _ = engine.lub_sigma(&x);
//! assert_eq!(engine.column_builds(), before);
//! ```

use crate::concept::{LsAtom, LsConcept};
use crate::extension::{Extension, ValueSet};
use crate::kernels;
use crate::selection::Selection;
use crate::sparse::IdBits;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use whynot_relation::{Attr, ConstPool, Instance, PoolMap, RelId, Schema, Value, ValueId};

/// Which `lub` operator drives a search (i.e. which `LS` fragment the
/// resulting concepts live in).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LubKind {
    /// Selection-free `LS` (Lemma 5.1, PTIME).
    SelectionFree,
    /// Full `LS` with selections (Lemma 5.2).
    WithSelections,
}

/// One closed interval of a box in id space (id order is value order).
/// A box over an `n`-ary relation is `n` consecutive intervals.
type Interval = (ValueId, ValueId);

/// One relation's interned column data, built at most once per engine.
struct RelColumns {
    /// The relation's tuples with every constant replaced by its pool id.
    rows: Vec<Vec<ValueId>>,
    /// Per schema attribute: occurrence bitset, id bounds, witnesses.
    cols: Vec<ColumnBits>,
}

/// The interned data of one `(rel, attr)` column. The occurrence
/// container (sorted id array vs dense words) is selected per column by
/// density — see [`crate::sparse`].
struct ColumnBits {
    /// Occurrence set over the pool's id space.
    bits: IdBits,
    /// `(min, max)` occurring ids; `None` for an empty column.
    bounds: Option<(ValueId, ValueId)>,
    /// `(id, row index)` for every row, sorted, so the witness rows of
    /// one id form a contiguous run.
    witnesses: Vec<(ValueId, u32)>,
}

impl ColumnBits {
    /// The rows whose coordinate in this column is `id`.
    fn witness_rows(&self, id: ValueId) -> &[(ValueId, u32)] {
        self.witnesses_in(id, id)
    }

    /// The rows whose coordinate in this column lies in `[lo, hi]`.
    fn witnesses_in(&self, lo: ValueId, hi: ValueId) -> &[(ValueId, u32)] {
        let start = self.witnesses.partition_point(|&(x, _)| x < lo);
        let len = self.witnesses[start..].partition_point(|&(x, _)| x <= hi);
        &self.witnesses[start..start + len]
    }
}

/// The growth state of one lub: the support set `S`, the lub `lub(S)`
/// (or `lubσ(S)`), and per `(rel, attr)` column what a growth step needs
/// — a covered flag (Lemma 5.1) or the column's minimal boxes in id space
/// (Lemma 5.2).
///
/// A state built by the pooled engine carries the lub's extension,
/// computed in the pool's id space from the same column data (see
/// [`LubState::extension`]), and assembles the lub's concept only when
/// [`concept`](LubState::concept) or
/// [`into_concept`](LubState::into_concept) first asks for it: a growth
/// probe that is decided by its extension never builds a concept.
///
/// Opaque: obtained from [`LubProvider::start`], [`LubProvider::grow`]
/// or [`LubProvider::state_of`], and only meaningful to the provider
/// that built it. States are transient — they index the provider's pool
/// generation and are not meant to outlive an instance mutation.
#[derive(Clone, Debug)]
pub struct LubState {
    kind: LubKind,
    support: BTreeSet<Value>,
    growth: Growth,
}

/// How a state was built, and what it can be stepped from.
#[derive(Clone, Debug)]
enum Growth {
    /// Built by a provider's default bodies (no column access): the
    /// concept is computed up front, and every step recomputes from the
    /// support.
    Recompute(LsConcept),
    /// Built by the pooled engine from its interned columns.
    Pooled(Pooled),
}

/// A pooled state's column data, extension and lazily assembled concept.
#[derive(Clone, Debug)]
struct Pooled {
    /// The columns the data indexes (two `Arc`s; resolves ids to values
    /// when the concept is assembled).
    view: LubView,
    columns: Columns,
    /// `[[lub(S)]]^I` over the view's pool, shared with the growth loops
    /// that keep it beside the state.
    extension: Arc<Extension>,
    concept: OnceCell<LsConcept>,
}

/// Per-column growth data, in schema column order (relations by
/// `RelId`, then attributes).
#[derive(Clone, Debug)]
enum Columns {
    /// Lemma 5.1: whether each column still contains the whole support.
    Covered(Vec<bool>),
    /// Lemma 5.2: each column's minimal boxes, `arity` intervals per box
    /// (empty when the support has no box in that column).
    Boxes(Vec<Vec<Interval>>),
}

impl LubState {
    /// The lub of the support: `lub_I(S)` or `lubσ_I(S)`, assembled on
    /// the first call.
    pub fn concept(&self) -> &LsConcept {
        match &self.growth {
            Growth::Recompute(concept) => concept,
            Growth::Pooled(p) => p
                .concept
                .get_or_init(|| p.view.assemble(&self.support, &p.columns)),
        }
    }

    /// Consumes the state, keeping only its concept.
    pub fn into_concept(self) -> LsConcept {
        match self.growth {
            Growth::Recompute(concept) => concept,
            Growth::Pooled(p) => match p.concept.into_inner() {
                Some(concept) => concept,
                None => p.view.assemble(&self.support, &p.columns),
            },
        }
    }

    /// The lub's extension over the provider's pool, when the state
    /// carries one: always for states built by the pooled engine, never
    /// for states built by the recomputing default bodies of
    /// [`LubProvider`] (evaluate their [`concept`](LubState::concept)
    /// instead). The extension is shared: cloning the `Arc` is a pointer
    /// copy.
    pub fn extension(&self) -> Option<&Arc<Extension>> {
        match &self.growth {
            Growth::Recompute(_) => None,
            Growth::Pooled(p) => Some(&p.extension),
        }
    }
}

/// The pooled lub engine: `lub_I` / `lubσ_I` over one pinned
/// `(schema, instance)` pair, with each `(rel, attr)` column interned
/// into the shared pool exactly once.
///
/// Lubs are computed by growth: the [`LubProvider`] methods start a
/// [`LubState`] at a singleton and grow it one constant at a time
/// (Lemma 5.1's covered flags, Lemma 5.2's minimal boxes stretched to
/// the new constant's witness rows), and a from-scratch lub is the fold
/// of those steps. Observationally equivalent to the legacy free functions
/// [`lub`](crate::lub) / [`lub_sigma`](crate::lub_sigma).
///
/// # Examples
///
/// ```
/// use std::collections::BTreeSet;
/// use whynot_concepts::{lub, LubEngine};
/// use whynot_relation::{Instance, SchemaBuilder, Value};
///
/// let mut b = SchemaBuilder::new();
/// let tc = b.relation("TC", ["from", "to"]);
/// let schema = b.finish().unwrap();
/// let mut inst = Instance::new();
/// inst.insert(tc, vec![Value::str("Amsterdam"), Value::str("Berlin")]);
/// inst.insert(tc, vec![Value::str("Berlin"), Value::str("Rome")]);
///
/// let engine = LubEngine::new(&schema, &inst);
/// let x: BTreeSet<Value> = [Value::str("Amsterdam"), Value::str("Berlin")]
///     .into_iter()
///     .collect();
/// assert_eq!(engine.lub(&x), lub(&schema, &inst, &x));
/// // Both TC columns were interned by that one call; later lubs reuse
/// // them.
/// assert_eq!(engine.column_builds(), 2);
/// ```
pub struct LubEngine<'a> {
    schema: &'a Schema,
    /// Owned snapshot (cheap: instances share per-relation storage), so
    /// the engine can be retargeted by [`LubEngine::apply_delta`]
    /// without lifetime gymnastics at the session layer.
    inst: Instance,
    pool: Arc<ConstPool>,
    rels: RefCell<BTreeMap<RelId, Arc<RelColumns>>>,
    /// Every relation's columns as one view, assembled on the first lub
    /// (a growth step reads every column) and dropped by
    /// [`LubEngine::apply_delta`].
    view: RefCell<Option<LubView>>,
    column_builds: Cell<usize>,
}

impl<'a> LubEngine<'a> {
    /// An engine over a fresh pool covering `adom(I)`.
    pub fn new(schema: &'a Schema, inst: &Instance) -> Self {
        LubEngine::with_pool(schema, inst, inst.const_pool())
    }

    /// An engine over a caller-supplied shared pool — pass the session /
    /// search pool so the engine's column bitsets index the same id
    /// space as every cached extension.
    ///
    /// The pool must cover `adom(I)` (pools from
    /// [`Instance::const_pool`] / [`Instance::const_pool_with`] always
    /// do); the first lub over a relation with unpooled constants
    /// panics.
    pub fn with_pool(schema: &'a Schema, inst: &Instance, pool: Arc<ConstPool>) -> Self {
        LubEngine {
            schema,
            inst: inst.clone(),
            pool,
            rels: RefCell::new(BTreeMap::new()),
            view: RefCell::new(None),
            column_builds: Cell::new(0),
        }
    }

    /// The shared pool the engine's columns are interned into.
    pub fn pool(&self) -> &Arc<ConstPool> {
        &self.pool
    }

    /// How many `(rel, attr)` column sets have been interned so far.
    /// Bounded by the schema's total attribute count for the engine's
    /// whole lifetime — the build-once counting tests assert on this.
    pub fn column_builds(&self) -> usize {
        self.column_builds.get()
    }

    /// `lub_I(X)` in selection-free `LS` (Lemma 5.1), observationally
    /// equivalent to [`crate::lub`].
    ///
    /// # Panics
    /// Panics if `x` is empty; see [`LubEngine::try_lub`].
    pub fn lub(&self, x: &BTreeSet<Value>) -> LsConcept {
        self.try_lub(x)
            // lint: allow(no-panic-in-lib) — documented panicking wrapper;
            // `try_lub` is the checked twin boundaries call.
            .expect("lub of an empty support set is undefined")
    }

    /// `lubσ_I(X)` in full `LS` (Lemma 5.2), observationally equivalent
    /// to [`crate::lub_sigma`].
    ///
    /// # Panics
    /// Panics if `x` is empty; see [`LubEngine::try_lub_sigma`].
    pub fn lub_sigma(&self, x: &BTreeSet<Value>) -> LsConcept {
        self.try_lub_sigma(x)
            // lint: allow(no-panic-in-lib) — documented panicking wrapper;
            // `try_lub_sigma` is the checked twin boundaries call.
            .expect("lub of an empty support set is undefined")
    }

    /// Non-panicking [`LubEngine::lub`]: `None` iff `x` is empty.
    pub fn try_lub(&self, x: &BTreeSet<Value>) -> Option<LsConcept> {
        self.view().fold_concept(LubKind::SelectionFree, x)
    }

    /// Non-panicking [`LubEngine::lub_sigma`]: `None` iff `x` is empty.
    pub fn try_lub_sigma(&self, x: &BTreeSet<Value>) -> Option<LsConcept> {
        self.view().fold_concept(LubKind::WithSelections, x)
    }

    /// The view over every relation's columns, assembled on first use.
    fn view(&self) -> LubView {
        if let Some(view) = self.view.borrow().as_ref() {
            return view.clone();
        }
        let view = LubView {
            pool: Arc::clone(&self.pool),
            rels: self
                .schema
                .rel_ids()
                .map(|rel| (rel, self.rel_columns(rel)))
                .collect(),
        };
        *self.view.borrow_mut() = Some(view.clone());
        view
    }

    /// The interned column data of one relation, built on first use.
    fn rel_columns(&self, rel: RelId) -> Arc<RelColumns> {
        if let Some(hit) = self.rels.borrow().get(&rel) {
            return Arc::clone(hit);
        }
        let built = Arc::new(self.build_rel(rel));
        self.column_builds
            .set(self.column_builds.get() + built.cols.len());
        self.rels.borrow_mut().insert(rel, Arc::clone(&built));
        built
    }

    fn build_rel(&self, rel: RelId) -> RelColumns {
        let rows: Vec<Vec<ValueId>> = self
            .inst
            .tuples(rel)
            .map(|t| {
                t.iter()
                    .map(|v| {
                        self.pool
                            .id_of(v)
                            // lint: allow(no-panic-in-lib) — the engine pool
                            // is built from this instance's active domain, so
                            // every stored value has an id by construction.
                            .expect("LubEngine pool must cover the instance's active domain")
                    })
                    .collect()
            })
            .collect();
        RelColumns::from_rows(rows, self.schema.arity(rel), &self.pool)
    }

    /// Retargets the engine at a post-delta snapshot, keeping every
    /// interned column of an unchanged relation.
    ///
    /// `changed` is the effective change set from
    /// [`Instance::apply_delta`]; those relations' columns are dropped
    /// (rebuilt lazily, counted by [`LubEngine::column_builds`] as
    /// usual). When the delta introduced new constants the caller passes
    /// `repool = (next_pool, map)` from
    /// [`GenPool::absorb`](whynot_relation::GenPool::absorb): retained
    /// columns are then *remapped* into the new id space — a pure id
    /// translation, never a re-intern — so they still count as retained.
    ///
    /// Returns `(retained, invalidated)` in column units.
    pub fn apply_delta(
        &mut self,
        new_inst: &Instance,
        changed: &BTreeSet<RelId>,
        repool: Option<(&Arc<ConstPool>, &PoolMap)>,
    ) -> (usize, usize) {
        let mut retained = 0usize;
        let mut invalidated = 0usize;
        let rels = self.rels.get_mut();
        let old: Vec<(RelId, Arc<RelColumns>)> = std::mem::take(rels).into_iter().collect();
        for (rel, rc) in old {
            if changed.contains(&rel) {
                invalidated += rc.cols.len();
                continue;
            }
            retained += rc.cols.len();
            let kept = match repool {
                None => rc,
                Some((pool, map)) => Arc::new(remap_columns(&rc, map, pool)),
            };
            rels.insert(rel, kept);
        }
        *self.view.get_mut() = None;
        self.inst = new_inst.clone();
        if let Some((pool, _)) = repool {
            self.pool = Arc::clone(pool);
        }
        (retained, invalidated)
    }
}

impl RelColumns {
    /// Builds the per-attribute occurrence bitsets, id bounds and
    /// witness indexes of a relation's interned rows (shared by
    /// first-time builds and cross-generation remaps).
    fn from_rows(rows: Vec<Vec<ValueId>>, arity: usize, pool: &ConstPool) -> RelColumns {
        let cols = (0..arity)
            .map(|j| {
                let mut words = vec![0u64; pool.word_len()];
                let mut witnesses: Vec<(ValueId, u32)> = Vec::with_capacity(rows.len());
                for (i, row) in rows.iter().enumerate() {
                    let Some(&id) = row.get(j) else { continue };
                    words[id.index() / 64] |= 1 << (id.index() % 64);
                    witnesses.push((id, i as u32));
                }
                witnesses.sort_unstable();
                let bounds = witnesses
                    .first()
                    .zip(witnesses.last())
                    .map(|(lo, hi)| (lo.0, hi.0));
                // Each column picks its container (sparse array vs dense
                // words) by density, once, here.
                ColumnBits {
                    bits: IdBits::from_words(words, pool.len()),
                    bounds,
                    witnesses,
                }
            })
            .collect();
        RelColumns { rows, cols }
    }
}

/// Translates a retained relation's columns into the next pool
/// generation. The map is total on old ids (generations only grow) and
/// monotone (id order is value order in both pools), so rows translate
/// id-by-id and the columns are rebuilt from the translated rows without
/// touching a single [`Value`].
fn remap_columns(rc: &RelColumns, map: &PoolMap, pool: &ConstPool) -> RelColumns {
    let rows: Vec<Vec<ValueId>> = rc
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|&id| {
                    map.translate(id)
                        // lint: allow(no-panic-in-lib) — generations only
                        // grow, so a PoolMap is total on every old id.
                        .expect("generation maps are total on old ids")
                })
                .collect()
        })
        .collect();
    RelColumns::from_rows(rows, rc.cols.len(), pool)
}

/// Every relation's interned columns as one value, assembled by
/// [`LubEngine`] on its first lub: the growth steps read all of them, and
/// the engine delegates every lub to them.
#[derive(Clone)]
struct LubView {
    pool: Arc<ConstPool>,
    /// Every schema relation's interned columns, in `RelId` order.
    rels: Arc<[(RelId, Arc<RelColumns>)]>,
}

impl std::fmt::Debug for LubView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LubView")
            .field("pool", &self.pool.len())
            .field("rels", &self.rels.len())
            .finish_non_exhaustive()
    }
}

impl LubView {
    /// Every `(rel, columns, attr)` in schema column order — the order
    /// of a [`LubState`]'s per-column growth data.
    fn columns(&self) -> impl Iterator<Item = (RelId, &RelColumns, Attr)> + '_ {
        self.rels
            .iter()
            .flat_map(|(rel, rc)| (0..rc.cols.len()).map(move |attr| (*rel, &**rc, attr)))
    }

    /// The growth data of the singleton `{x}`: the columns containing
    /// `x`, or one point box per witness row of `x`.
    fn seed(&self, kind: LubKind, x: &Value) -> Columns {
        let id = self.pool.id_of(x);
        match kind {
            LubKind::SelectionFree => Columns::Covered(
                self.columns()
                    .map(|(_, rc, attr)| id.is_some_and(|id| rc.cols[attr].bits.contains(id.0)))
                    .collect(),
            ),
            LubKind::WithSelections => Columns::Boxes(
                self.columns()
                    .map(|(_, rc, attr)| match id {
                        None => Vec::new(),
                        Some(id) => rc.cols[attr]
                            .witness_rows(id)
                            .iter()
                            .flat_map(|&(_, r)| rc.rows[r as usize].iter().map(|&c| (c, c)))
                            .collect(),
                    })
                    .collect(),
            ),
        }
    }

    /// One growth step `S → S ∪ {v}` (Lemmas 5.1 and 5.2; see the module
    /// docs).
    fn step(&self, columns: &Columns, v: &Value) -> Columns {
        let id = self.pool.id_of(v);
        match columns {
            Columns::Covered(flags) => Columns::Covered(
                self.columns()
                    .zip(flags)
                    .map(|((_, rc, attr), &covered)| {
                        covered && id.is_some_and(|id| rc.cols[attr].bits.contains(id.0))
                    })
                    .collect(),
            ),
            Columns::Boxes(boxes) => Columns::Boxes(
                self.columns()
                    .zip(boxes)
                    .map(|((_, rc, attr), boxes)| match id {
                        None => Vec::new(),
                        Some(id) => stretch_boxes(rc, attr, boxes, id),
                    })
                    .collect(),
            ),
        }
    }

    /// The growth data of `x` by folding [`LubView::step`] over it.
    fn fold_columns(&self, kind: LubKind, x: &BTreeSet<Value>) -> Option<Columns> {
        let mut values = x.iter();
        let mut columns = self.seed(kind, values.next()?);
        for v in values {
            columns = self.step(&columns, v);
        }
        Some(columns)
    }

    /// The concept of `x`: the fold, then one assembly (no extension —
    /// the from-scratch lub entry points only want the concept).
    fn fold_concept(&self, kind: LubKind, x: &BTreeSet<Value>) -> Option<LsConcept> {
        let columns = self.fold_columns(kind, x)?;
        Some(self.assemble(x, &columns))
    }

    /// The full state of `x`.
    fn fold(&self, kind: LubKind, x: &BTreeSet<Value>) -> Option<LubState> {
        let columns = self.fold_columns(kind, x)?;
        Some(self.state(kind, x.clone(), columns))
    }

    /// Wraps growth data into a state, computing its extension now and
    /// leaving its concept for the first read.
    fn state(&self, kind: LubKind, support: BTreeSet<Value>, columns: Columns) -> LubState {
        let extension = Arc::new(self.extension(&support, &columns));
        LubState {
            kind,
            support,
            growth: Growth::Pooled(Pooled {
                view: self.clone(),
                columns,
                extension,
                concept: OnceCell::new(),
            }),
        }
    }

    /// The extension of the concept [`LubView::assemble`] would build,
    /// computed in id space: the conjunction of its atoms' extensions.
    ///
    /// * A singleton `{x}` keeps its nominal, and every other atom
    ///   contains `x`, so the extension is `{x}` (an overflow member
    ///   when `x` is unpooled).
    /// * Lemma 5.1: the AND of the covered columns' occurrence bits.
    /// * Lemma 5.2: the AND over boxes of
    ///   `{row[attr] : row ∈ R, row inside the id box}` — id order is
    ///   value order, so this is the box atom's selection.
    /// * No atom at all is `⊤`: [`Extension::Universal`].
    fn extension(&self, support: &BTreeSet<Value>, columns: &Columns) -> Extension {
        if let (Some(x), 1) = (support.first(), support.len()) {
            return Extension::finite_refs_in(Arc::clone(&self.pool), [x]);
        }
        let mut acc: Option<Vec<u64>> = None;
        match columns {
            Columns::Covered(flags) => {
                for ((_, rc, attr), _) in self.columns().zip(flags).filter(|(_, covered)| **covered)
                {
                    let bits = &rc.cols[attr].bits;
                    match &mut acc {
                        None => acc = Some(bits.to_words()),
                        Some(words) => bits.intersect_words(words),
                    }
                }
            }
            Columns::Boxes(boxes) => {
                let mut scratch = vec![0u64; self.pool.word_len()];
                for ((_, rc, attr), boxes) in self.columns().zip(boxes) {
                    for bx in boxes.chunks_exact(rc.cols.len()) {
                        scratch.fill(0);
                        box_extension_into(rc, attr, bx, &mut scratch);
                        match &mut acc {
                            None => acc = Some(scratch.clone()),
                            Some(words) => {
                                kernels::and_assign(words, &scratch);
                            }
                        }
                    }
                }
            }
        }
        match acc {
            None => Extension::Universal,
            Some(words) => Extension::Finite(ValueSet::from_words(Arc::clone(&self.pool), words)),
        }
    }

    /// Resolves growth data into the lub's concept: the nominal of a
    /// singleton support, then per column its covering atom or one
    /// `π_attr(σ_box(R))` per minimal box.
    fn assemble(&self, support: &BTreeSet<Value>, columns: &Columns) -> LsConcept {
        let mut atoms: Vec<LsAtom> = Vec::new();
        if let (Some(x), 1) = (support.first(), support.len()) {
            atoms.push(LsAtom::Nominal(x.clone()));
        }
        match columns {
            Columns::Covered(flags) => {
                for ((rel, _, attr), _) in
                    self.columns().zip(flags).filter(|(_, covered)| **covered)
                {
                    atoms.push(LsAtom::proj(rel, attr));
                }
            }
            Columns::Boxes(boxes) => {
                for ((rel, rc, attr), boxes) in self.columns().zip(boxes) {
                    for bx in boxes.chunks_exact(rc.cols.len()) {
                        atoms.push(box_atom(&self.pool, rel, rc, attr, bx));
                    }
                }
            }
        }
        LsConcept::from_atoms(atoms)
    }

    /// The state of the singleton support `{x}`.
    fn start(&self, kind: LubKind, x: &Value) -> LubState {
        let support: BTreeSet<Value> = [x.clone()].into_iter().collect();
        let columns = self.seed(kind, x);
        self.state(kind, support, columns)
    }

    /// The state of `S ∪ {v}` stepped from the state of `S`.
    fn grow(&self, state: &LubState, v: &Value) -> LubState {
        if state.support.contains(v) {
            return state.clone();
        }
        let columns = match &state.growth {
            Growth::Pooled(p) => self.step(&p.columns, v),
            // Built by the recomputing default bodies: no column data to
            // step from, so fold the grown support instead (a lub does
            // not depend on the order its support is folded in).
            Growth::Recompute(_) => state
                .support
                .iter()
                .fold(self.seed(state.kind, v), |columns, u| {
                    self.step(&columns, u)
                }),
        };
        let mut support = state.support.clone();
        support.insert(v.clone());
        self.state(state.kind, support, columns)
    }
}

/// The lub interface the search algorithms are generic over: the pooled
/// [`LubEngine`] implements it with growth steps, and wrappers (a timing
/// shim, a test double) can implement just the from-scratch methods.
///
/// Only the three from-scratch methods are required. The growth methods
/// ([`start`](LubProvider::start), [`grow`](LubProvider::grow),
/// [`state_of`](LubProvider::state_of)) default to recomputing through
/// [`try_lub`](LubProvider::try_lub) /
/// [`try_lub_sigma`](LubProvider::try_lub_sigma) on the grown support;
/// the pooled engine overrides them with the Lemma 5.1/5.2 growth
/// steps.
pub trait LubProvider {
    /// The shared pool lub extensions and column bitsets index.
    fn pool(&self) -> &Arc<ConstPool>;
    /// Non-panicking `lub_I(X)` (Lemma 5.1): `None` iff `x` is empty.
    fn try_lub(&self, x: &BTreeSet<Value>) -> Option<LsConcept>;
    /// Non-panicking `lubσ_I(X)` (Lemma 5.2): `None` iff `x` is empty.
    fn try_lub_sigma(&self, x: &BTreeSet<Value>) -> Option<LsConcept>;

    /// The state of `lub(X)` under `kind`; `None` iff `x` is empty.
    fn state_of(&self, kind: LubKind, x: &BTreeSet<Value>) -> Option<LubState> {
        let concept = match kind {
            LubKind::SelectionFree => self.try_lub(x),
            LubKind::WithSelections => self.try_lub_sigma(x),
        }?;
        Some(LubState {
            kind,
            support: x.clone(),
            growth: Growth::Recompute(concept),
        })
    }

    /// The state of the singleton support `{x}` — where every growth
    /// loop starts.
    fn start(&self, kind: LubKind, x: &Value) -> LubState {
        let support: BTreeSet<Value> = [x.clone()].into_iter().collect();
        self.state_of(kind, &support)
            // lint: allow(no-panic-in-lib) — `state_of` is `None` only for
            // an empty support, and this one holds `x`.
            .expect("singleton supports are non-empty")
    }

    /// The state of `lub(S ∪ {v})` grown from the state of `lub(S)`. A
    /// `v` already in `S` returns the state unchanged.
    fn grow(&self, state: &LubState, v: &Value) -> LubState {
        if state.support.contains(v) {
            return state.clone();
        }
        let mut support = state.support.clone();
        support.insert(v.clone());
        self.state_of(state.kind, &support)
            // lint: allow(no-panic-in-lib) — the grown support holds `v`.
            .expect("grown supports are non-empty")
    }
}

impl LubProvider for LubEngine<'_> {
    fn pool(&self) -> &Arc<ConstPool> {
        LubEngine::pool(self)
    }
    fn try_lub(&self, x: &BTreeSet<Value>) -> Option<LsConcept> {
        LubEngine::try_lub(self, x)
    }
    fn try_lub_sigma(&self, x: &BTreeSet<Value>) -> Option<LsConcept> {
        LubEngine::try_lub_sigma(self, x)
    }
    fn state_of(&self, kind: LubKind, x: &BTreeSet<Value>) -> Option<LubState> {
        self.view().fold(kind, x)
    }
    fn start(&self, kind: LubKind, x: &Value) -> LubState {
        self.view().start(kind, x)
    }
    fn grow(&self, state: &LubState, v: &Value) -> LubState {
        self.view().grow(state, v)
    }
}

/// Lemma 5.2's growth step in one column: stretches every minimal box of
/// `S` to every witness row of `v` and keeps the minimal results. Empty
/// stays empty (no box of `S` → no box of `S ∪ {v}`), and so does a `v`
/// without witness rows.
fn stretch_boxes(rc: &RelColumns, attr: Attr, boxes: &[Interval], v: ValueId) -> Vec<Interval> {
    let arity = rc.cols.len();
    let witnesses = rc.cols[attr].witness_rows(v);
    if boxes.is_empty() || witnesses.is_empty() {
        return Vec::new();
    }
    let mut stretched: Vec<Interval> = Vec::with_capacity(boxes.len() * witnesses.len());
    for bx in boxes.chunks_exact(arity) {
        for &(_, r) in witnesses {
            let row = &rc.rows[r as usize];
            stretched.extend(
                bx.iter()
                    .zip(row)
                    .map(|(&(lo, hi), &c)| (lo.min(c), hi.max(c))),
            );
        }
    }
    keep_minimal(&stretched, arity)
}

/// The inclusion-minimal boxes among `boxes` (`arity` intervals each),
/// deduplicated and in ascending order.
fn keep_minimal(boxes: &[Interval], arity: usize) -> Vec<Interval> {
    let mut sorted: Vec<&[Interval]> = boxes.chunks_exact(arity).collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut out: Vec<Interval> = Vec::with_capacity(boxes.len());
    for bx in &sorted {
        if !sorted
            .iter()
            .any(|other| other != bx && box_within(other, bx))
        {
            out.extend_from_slice(bx);
        }
    }
    out
}

/// Whether `inner ⊆ outer` in every dimension.
fn box_within(inner: &[Interval], outer: &[Interval]) -> bool {
    inner
        .iter()
        .zip(outer)
        .all(|(&(ilo, ihi), &(olo, ohi))| olo <= ilo && ihi <= ohi)
}

/// Sets in `words` the bits of `{row[attr] : row ∈ R inside bx}` — the
/// extension of [`box_atom`]'s `π_attr(σ_box(R))`. Only the rows whose
/// coordinate falls inside the box's narrowest dimension (one contiguous
/// witness run, found by binary search) are tested.
fn box_extension_into(rc: &RelColumns, attr: Attr, bx: &[Interval], words: &mut [u64]) {
    let Some(rows) = bx
        .iter()
        .zip(&rc.cols)
        .map(|(&(lo, hi), col)| col.witnesses_in(lo, hi))
        .min_by_key(|rows| rows.len())
    else {
        return;
    };
    for &(_, r) in rows {
        let row = &rc.rows[r as usize];
        if row.iter().zip(bx).all(|(&c, &(lo, hi))| lo <= c && c <= hi) {
            let id = row[attr].index();
            words[id / 64] |= 1 << (id % 64);
        }
    }
}

/// Resolves an id box into the atom `π_attr(σ_box(R))`, dropping the
/// constraints whose interval spans the whole column (precomputed
/// per-column bounds, compared as ids).
fn box_atom(pool: &ConstPool, rel: RelId, rc: &RelColumns, attr: Attr, bx: &[Interval]) -> LsAtom {
    let mut bounds: Vec<(Attr, Value, Value)> = Vec::new();
    for (j, &(lo, hi)) in bx.iter().enumerate() {
        let spans_column = rc
            .cols
            .get(j)
            .and_then(|c| c.bounds)
            .is_some_and(|(min, max)| min == lo && max == hi);
        if !spans_column {
            bounds.push((j, pool.value(lo).clone(), pool.value(hi).clone()));
        }
    }
    LsAtom::proj_sel(rel, attr, Selection::from_box(bounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lub::{lub, lub_sigma, try_lub, try_lub_sigma};
    use whynot_relation::SchemaBuilder;

    fn s(v: &str) -> Value {
        Value::str(v)
    }

    fn paper_fixture() -> (Schema, Instance) {
        let mut b = SchemaBuilder::new();
        let cities = b.relation("Cities", ["name", "population", "country", "continent"]);
        let tc = b.relation("Train-Connections", ["city_from", "city_to"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        for (name, pop, country, continent) in [
            ("Amsterdam", 779_808, "Netherlands", "Europe"),
            ("Berlin", 3_502_000, "Germany", "Europe"),
            ("Rome", 2_753_000, "Italy", "Europe"),
            ("New York", 8_337_000, "USA", "N.America"),
            ("San Francisco", 837_442, "USA", "N.America"),
            ("Santa Cruz", 59_946, "USA", "N.America"),
            ("Tokyo", 13_185_000, "Japan", "Asia"),
            ("Kyoto", 1_400_000, "Japan", "Asia"),
        ] {
            inst.insert(
                cities,
                vec![s(name), Value::int(pop), s(country), s(continent)],
            );
        }
        for (a, b2) in [
            ("Amsterdam", "Berlin"),
            ("Berlin", "Rome"),
            ("Berlin", "Amsterdam"),
            ("New York", "San Francisco"),
            ("San Francisco", "Santa Cruz"),
            ("Tokyo", "Kyoto"),
        ] {
            inst.insert(tc, vec![s(a), s(b2)]);
        }
        (schema, inst)
    }

    fn supports() -> Vec<BTreeSet<Value>> {
        let set = |vals: &[&str]| -> BTreeSet<Value> { vals.iter().map(|v| s(v)).collect() };
        vec![
            set(&["Amsterdam"]),
            set(&["Amsterdam", "Berlin"]),
            set(&["Berlin", "Rome"]),
            set(&["New York", "Santa Cruz"]),
            set(&["Amsterdam", "Tokyo", "Santa Cruz"]),
            set(&["nowhere"]),
            set(&["nowhere", "elsewhere"]),
            set(&["nowhere", "Amsterdam"]),
            [Value::int(779_808), Value::int(3_502_000)]
                .into_iter()
                .collect(),
        ]
    }

    #[test]
    fn pooled_lub_matches_legacy_on_the_paper_fixture() {
        let (schema, inst) = paper_fixture();
        let engine = LubEngine::new(&schema, &inst);
        for x in supports() {
            assert_eq!(
                engine.try_lub(&x),
                try_lub(&schema, &inst, &x),
                "lub disagrees on {x:?}"
            );
            assert_eq!(
                engine.try_lub_sigma(&x),
                try_lub_sigma(&schema, &inst, &x),
                "lubσ disagrees on {x:?}"
            );
        }
        assert_eq!(engine.try_lub(&BTreeSet::new()), None);
        assert_eq!(engine.try_lub_sigma(&BTreeSet::new()), None);
    }

    #[test]
    fn columns_are_built_at_most_once() {
        let (schema, inst) = paper_fixture();
        let engine = LubEngine::new(&schema, &inst);
        assert_eq!(engine.column_builds(), 0);
        for x in supports() {
            let _ = engine.try_lub(&x);
            let _ = engine.try_lub_sigma(&x);
        }
        // Cities has 4 attributes, Train-Connections 2: 6 column sets,
        // regardless of how many lubs ran.
        assert_eq!(engine.column_builds(), 6);
    }

    #[test]
    fn shared_pool_with_extra_constants_gives_the_same_answers() {
        // The search algorithms pass pools over adom(I) ∪ ā; the extra
        // ids shift nothing semantically.
        let (schema, inst) = paper_fixture();
        let wide = inst.const_pool_with([s("ghost-a"), s("ghost-b")]);
        let engine = LubEngine::with_pool(&schema, &inst, wide);
        for x in supports() {
            assert_eq!(engine.lub(&x), lub(&schema, &inst, &x), "{x:?}");
            assert_eq!(engine.lub_sigma(&x), lub_sigma(&schema, &inst, &x), "{x:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty support set")]
    fn panicking_variant_matches_legacy_contract() {
        let (schema, inst) = paper_fixture();
        LubEngine::new(&schema, &inst).lub(&BTreeSet::new());
    }

    #[test]
    fn apply_delta_retains_unchanged_relation_columns() {
        let (schema, inst) = paper_fixture();
        let mut engine = LubEngine::new(&schema, &inst);
        for x in supports() {
            let _ = engine.try_lub_sigma(&x);
        }
        assert_eq!(engine.column_builds(), 6);

        // Delete one train connection; Cities is untouched.
        let tc = RelId(1);
        let mut next = inst.clone();
        next.remove(tc, &[s("Tokyo"), s("Kyoto")]);
        let changed: BTreeSet<RelId> = [tc].into_iter().collect();
        let (retained, invalidated) = engine.apply_delta(&next, &changed, None);
        assert_eq!((retained, invalidated), (4, 2));

        // Every lub matches a fresh engine over the new instance, and
        // only TC's 2 columns were rebuilt.
        let fresh = LubEngine::new(&schema, &next);
        for x in supports() {
            assert_eq!(engine.try_lub(&x), fresh.try_lub(&x), "{x:?}");
            assert_eq!(engine.try_lub_sigma(&x), fresh.try_lub_sigma(&x), "{x:?}");
        }
        assert_eq!(engine.column_builds(), 8);
    }

    #[test]
    fn apply_delta_remaps_retained_columns_across_generations() {
        use whynot_relation::GenPool;
        let (schema, inst) = paper_fixture();
        let mut gen = GenPool::new(inst.const_pool());
        let mut engine = LubEngine::with_pool(&schema, &inst, Arc::clone(gen.pool()));
        for x in supports() {
            let _ = engine.try_lub_sigma(&x);
        }

        // Insert a brand-new city constant into TC only.
        let tc = RelId(1);
        let mut next = inst.clone();
        next.insert(tc, vec![s("Kyoto"), s("Aomori")]);
        let map = gen.absorb([s("Aomori")]).expect("new constant");
        let changed: BTreeSet<RelId> = [tc].into_iter().collect();
        let (retained, invalidated) = engine.apply_delta(&next, &changed, Some((gen.pool(), &map)));
        assert_eq!((retained, invalidated), (4, 2));
        assert!(Arc::ptr_eq(engine.pool(), gen.pool()));

        let fresh = LubEngine::with_pool(&schema, &next, Arc::clone(gen.pool()));
        let mut xs = supports();
        xs.push([s("Aomori")].into_iter().collect());
        xs.push([s("Aomori"), s("Kyoto")].into_iter().collect());
        for x in xs {
            assert_eq!(engine.try_lub(&x), fresh.try_lub(&x), "{x:?}");
            assert_eq!(engine.try_lub_sigma(&x), fresh.try_lub_sigma(&x), "{x:?}");
        }
        // Cities' 4 retained columns were remapped, not rebuilt; only
        // TC's 2 were re-interned (6 initial + 2).
        assert_eq!(engine.column_builds(), 8);
    }

    /// A provider with only the three required methods: every growth
    /// step goes through the recomputing default bodies.
    struct Recomputing<'e>(&'e LubEngine<'e>);

    impl LubProvider for Recomputing<'_> {
        fn pool(&self) -> &Arc<ConstPool> {
            self.0.pool()
        }
        fn try_lub(&self, x: &BTreeSet<Value>) -> Option<LsConcept> {
            self.0.try_lub(x)
        }
        fn try_lub_sigma(&self, x: &BTreeSet<Value>) -> Option<LsConcept> {
            self.0.try_lub_sigma(x)
        }
    }

    /// Folds growth over `x` in its own order and checks every prefix
    /// against the legacy free functions.
    fn assert_growth_matches_legacy<P: LubProvider>(
        p: &P,
        schema: &Schema,
        inst: &Instance,
        x: &[Value],
    ) {
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let legacy = |s: &BTreeSet<Value>| match kind {
                LubKind::SelectionFree => lub(schema, inst, s),
                LubKind::WithSelections => lub_sigma(schema, inst, s),
            };
            // A carried extension is the assembled concept's extension.
            let check_extension = |state: &LubState, prefix: &BTreeSet<Value>| {
                if let Some(ext) = state.extension() {
                    let expect = legacy(prefix).extension_in(inst, p.pool());
                    assert_eq!(**ext, expect, "{kind:?} extension of {prefix:?}");
                }
            };
            let mut state = p.start(kind, &x[0]);
            let mut prefix: BTreeSet<Value> = [x[0].clone()].into_iter().collect();
            check_extension(&state, &prefix);
            assert_eq!(state.concept(), &legacy(&prefix), "{kind:?} {prefix:?}");
            for v in &x[1..] {
                state = p.grow(&state, v);
                prefix.insert(v.clone());
                check_extension(&state, &prefix);
                assert_eq!(state.concept(), &legacy(&prefix), "{kind:?} {prefix:?}");
            }
            assert_eq!(
                p.state_of(kind, &prefix).map(LubState::into_concept),
                Some(legacy(&prefix))
            );
        }
    }

    #[test]
    fn growth_matches_legacy_on_every_prefix() {
        let (schema, inst) = paper_fixture();
        let engine = LubEngine::new(&schema, &inst);
        let orders: Vec<Vec<Value>> = vec![
            vec![s("Berlin"), s("Rome"), s("Amsterdam"), s("Tokyo")],
            vec![s("Santa Cruz"), s("New York"), s("San Francisco")],
            // Growing by a member of the support, and by unpooled and
            // non-occurring constants.
            vec![s("Kyoto"), s("Kyoto"), s("Tokyo"), s("nowhere"), s("Rome")],
            vec![s("nowhere"), s("Berlin")],
            vec![Value::int(779_808), Value::int(3_502_000), s("Berlin")],
        ];
        for x in &orders {
            assert_growth_matches_legacy(&engine, &schema, &inst, x);
            assert_growth_matches_legacy(&Recomputing(&engine), &schema, &inst, x);
        }
    }

    #[test]
    fn engine_states_carry_extensions_and_default_states_do_not() {
        let (schema, inst) = paper_fixture();
        let engine = LubEngine::new(&schema, &inst);
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let pooled = engine.grow(&engine.start(kind, &s("Berlin")), &s("Rome"));
            assert!(pooled.extension().is_some());
            let foreign = Recomputing(&engine).start(kind, &s("Berlin"));
            assert!(foreign.extension().is_none());
            // Growing a foreign state through the engine refolds it into
            // a pooled one.
            assert!(engine.grow(&foreign, &s("Rome")).extension().is_some());
        }
        // Two constants sharing no column: the lub is ⊤.
        let top = engine.grow(
            &engine.start(LubKind::SelectionFree, &s("Berlin")),
            &Value::int(59_946),
        );
        assert_eq!(top.extension().map(|e| &**e), Some(&Extension::Universal));
        assert!(top.concept().is_top());
    }

    #[test]
    fn foreign_states_are_refolded() {
        // A state built by the recomputing default bodies carries no
        // column data; the pooled provider refolds it and still agrees.
        let (schema, inst) = paper_fixture();
        let engine = LubEngine::new(&schema, &inst);
        let foreign = Recomputing(&engine).start(LubKind::WithSelections, &s("Berlin"));
        let grown = engine.grow(&foreign, &s("Rome"));
        let x: BTreeSet<Value> = [s("Berlin"), s("Rome")].into_iter().collect();
        assert_eq!(grown.concept(), &lub_sigma(&schema, &inst, &x));
    }
}
