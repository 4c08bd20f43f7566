//! The pooled lub engine: `lub` / `lubσ` over interned columns, grown one
//! constant at a time.
//!
//! The free functions in [`crate::lub`] re-derive everything from the
//! instance on every call. A [`LubEngine`] pins one `(schema, instance)`
//! pair and a shared [`ConstPool`](whynot_relation::ConstPool) and interns
//! each relation **exactly once** into an
//! [`IdImage`](whynot_relation::IdImage): its rows as pool ids plus a CSR
//! `id → rows` witness index per attribute, which also serves query
//! evaluation ([`LubEngine::image`]). On the first lub, each
//! `(rel, attr)` column adds an occurrence bitset read off the image.
//! Lubs are then computed by *growth*: a [`LubState`] for `lub(S)`
//! becomes the state for `lub(S ∪ {v})` without looking at the rest of
//! `S` again.
//!
//! * **Lemma 5.1** (selection-free lub): the covering atoms of `S ∪ {v}`
//!   are the covering atoms of `S` whose column contains `v`. So a
//!   constant matters to a selection-free lub only through its *column
//!   signature* `sig(v)`, the set of `(rel, attr)` columns holding it
//!   (one bit per column, [`LubState::column_signature`]). The view
//!   builds one signature per pool id beside `adom(I)`, and a state's
//!   growth data is the covered-column mask `⋂_{x∈S} sig(x)`: a step
//!   is a word AND, and a pooled
//!   value is in the lub of two or more constants iff its signature is
//!   a superset of the mask.
//! * **Lemma 5.2** (lub with selections): per `(rel, attr)`, the minimal
//!   boxes of `S ∪ {v}` are the minimal ones among `bbox(B₀ ∪ w)`, where
//!   `B₀` ranges over the minimal boxes of `S` and `w` over the rows with
//!   `w[attr] = v`; if `S` has no box, neither has `S ∪ {v}`. A singleton
//!   `{x}` starts from one point box per witness row of `x`. One step
//!   costs `|boxes(S)| · |witnesses(v)|` box stretches, each checked
//!   against the antichain of minimal boxes kept so far (which drops the
//!   kept boxes the new one lies within), so the filter costs the
//!   stretch count times the kept antichain's size, not the square of
//!   the stretch count. Boxes live in pool id space (id order is value
//!   order) and resolve to owned values only when the state's concept
//!   is assembled.
//!
//! A from-scratch `lub(X)` / `lubσ(X)` is the fold of these steps over
//! `X`, so a growth loop (Algorithm 2, CHECK-MGE, the contrast searches)
//! pays one step per probe instead of a full recomputation. A state keeps
//! no copy of its support — only a singleton's nominal — and a step by a
//! constant already in the lub's extension leaves the covered mask and
//! every minimal box as it was.
//!
//! A state answers three questions from the same growth data, each on
//! demand:
//!
//! * [`LubState::contains`] / [`LubState::contains_id`]: whether one
//!   constant is in the lub's extension — its signature against the
//!   covered mask (Lemma 5.1), or a witness row of the constant inside
//!   every box (Lemma 5.2); a bit probe once the extension is built.
//!   The growth loops decide every probe this way: a candidate is
//!   rejected when its lub holds a member of the position's blocked set
//!   (selection-free, when a member's signature contains its mask), and
//!   a constant already in the lub is skipped. Over a blocked set the
//!   witness rows tested per box are at most the relation's rows, so a
//!   verdict costs at most about one extension build, and usually far
//!   less.
//! * [`LubState::extension`]: the lub's extension in the pool's id
//!   space, built on the first call — the AND of the masked columns'
//!   occurrence bits, or the AND over boxes of the rows' ids inside each
//!   box; a singleton is its nominal and no atom at all is `⊤`. The
//!   loops build it only where something reads it: the final state of a
//!   position whose extension a later position's blocked set reads, and
//!   the candidates the foil-aligned contrast search ranks by coverage.
//! * [`LubState::concept`] / [`LubState::into_concept`]: the `LsConcept`,
//!   assembled on the first call — so a rejected probe never builds a
//!   concept or resolves an id to a value.
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
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};
use whynot_relation::{
    Attr, ConstPool, IdImage, Instance, NetChange, PoolMap, RelId, RowDelta, Schema, Value, ValueId,
};

/// Which `lub` operator drives a search (i.e. which `LS` fragment the
/// resulting concepts live in).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LubKind {
    /// Selection-free `LS` (Lemma 5.1, PTIME).
    SelectionFree,
    /// Full `LS` with selections (Lemma 5.2).
    WithSelections,
}

/// One closed interval of a box in pool id space (id order is value
/// order). A box over an `n`-ary relation is `n` consecutive intervals.
type Interval = (u32, u32);

/// One relation's interned data, built at most once per engine.
struct RelColumns {
    /// The relation's rows as pool ids, with the per-attribute witness
    /// index (`id → rows`) and column bounds; shared with query
    /// evaluation.
    image: Arc<IdImage>,
    /// Per schema attribute, the occurrence bitset over the pool's id
    /// space (one word per 64 ids), read off the image on the first lub.
    bits: OnceLock<Vec<Vec<u64>>>,
}

/// A relation's changes since its image was built or last patched.
struct Pending {
    /// The pool the image's ids index: an older generation than the
    /// engine's once a delta bumped it.
    pool: Arc<ConstPool>,
    /// The changes, oldest first.
    changes: Vec<NetChange>,
}

/// The growth state of one lub: the lub `lub(S)` (or `lubσ(S)`) of a
/// support set `S`, and what a growth step needs — the mask of the
/// `(rel, attr)` columns covering `S` (Lemma 5.1), or per column its
/// minimal boxes in id space (Lemma 5.2).
///
/// A state built by the pooled engine keeps no copy of `S`: only the
/// nominal of a singleton support, which its lub keeps. It builds the
/// lub's extension in the pool's id space from the same column data on
/// the first [`extension`](LubState::extension) call, and assembles the
/// lub's concept on the first [`concept`](LubState::concept) or
/// [`into_concept`](LubState::into_concept) call, so a probe decided by
/// [`contains`](LubState::contains) or
/// [`contains_id`](LubState::contains_id) builds neither.
///
/// Opaque: obtained from [`LubProvider::start`], [`LubProvider::grow`]
/// or [`LubProvider::state_of`], and only meaningful to the provider
/// that built it. States are transient — they index the provider's pool
/// generation and are not meant to outlive an instance mutation.
#[derive(Clone, Debug)]
pub struct LubState {
    kind: LubKind,
    growth: Growth,
}

/// How a state was built, and what it can be stepped from.
#[derive(Clone, Debug)]
enum Growth {
    /// Built by a provider's default bodies (no column access): the
    /// concept is computed up front, and every step refolds from the
    /// support.
    Recompute {
        support: BTreeSet<Value>,
        concept: LsConcept,
    },
    /// Built by the pooled engine from its interned columns.
    Pooled(Pooled),
}

/// A pooled state's column data and its lazily built extension and
/// concept.
#[derive(Clone, Debug)]
struct Pooled {
    /// The columns the data indexes (two `Arc`s; resolves ids to values
    /// when the concept is assembled).
    view: LubView,
    /// The support's only member when it is a singleton (its lub keeps
    /// the nominal), `None` for a larger support.
    nominal: Option<Value>,
    columns: Columns,
    /// `[[lub(S)]]^I` over the view's pool, built on first use and
    /// shared with the growth loops that keep it beside the state.
    extension: OnceCell<Arc<Extension>>,
    concept: OnceCell<LsConcept>,
}

/// Per-column growth data, in schema column order (relations by
/// `RelId`, then attributes).
#[derive(Clone, Debug)]
enum Columns {
    /// Lemma 5.1: the covered-column mask, one bit per column in schema
    /// column order (the view's signature width in words): bit `c` is
    /// set iff column `c` still contains the whole support. It is the AND
    /// of the support's column signatures, so a singleton `{x}` starts
    /// at `sig(x)` (zero for an unpooled `x`) and a step by `v` ANDs in
    /// `sig(v)`; a pooled value lies in the lub of two or more constants
    /// iff its signature is a superset of the mask.
    Covered(Vec<u64>),
    /// Lemma 5.2: each column's minimal boxes, `arity` intervals per box
    /// in ascending order (empty when the support has no box in that
    /// column).
    Boxes(Vec<Vec<Interval>>),
}

impl LubState {
    /// The lub of the support: `lub_I(S)` or `lubσ_I(S)`, assembled on
    /// the first call.
    pub fn concept(&self) -> &LsConcept {
        match &self.growth {
            Growth::Recompute { concept, .. } => concept,
            Growth::Pooled(p) => p
                .concept
                .get_or_init(|| p.view.assemble(p.nominal.as_ref(), &p.columns)),
        }
    }

    /// Consumes the state, keeping only its concept.
    pub fn into_concept(self) -> LsConcept {
        match self.growth {
            Growth::Recompute { concept, .. } => concept,
            Growth::Pooled(p) => match p.concept.into_inner() {
                Some(concept) => concept,
                None => p.view.assemble(p.nominal.as_ref(), &p.columns),
            },
        }
    }

    /// The lub's extension over the provider's pool, when the state
    /// carries one: always for states built by the pooled engine (built
    /// on the first call), never for states built by the recomputing
    /// default bodies of [`LubProvider`] (evaluate their
    /// [`concept`](LubState::concept) instead). The extension is shared:
    /// cloning the `Arc` is a pointer copy.
    pub fn extension(&self) -> Option<&Arc<Extension>> {
        match &self.growth {
            Growth::Recompute { .. } => None,
            Growth::Pooled(p) => Some(
                p.extension
                    .get_or_init(|| Arc::new(p.view.extension(p.nominal.as_ref(), &p.columns))),
            ),
        }
    }

    /// Whether `v` belongs to the lub's extension, decided from the
    /// growth data without building the extension: `v` is the singleton's
    /// nominal, or its signature contains the covered mask (Lemma 5.1), or
    /// every minimal box holds a witness row of `v` (Lemma 5.2). `None`
    /// for states built by the recomputing default bodies of
    /// [`LubProvider`], which carry no growth data.
    pub fn contains(&self, v: &Value) -> Option<bool> {
        match &self.growth {
            Growth::Recompute { .. } => None,
            Growth::Pooled(p) => Some(p.view.contains(p.nominal.as_ref(), &p.columns, v)),
        }
    }

    /// [`contains`](LubState::contains) for the value with id `id` in the
    /// pool of the provider that built the state, with no pool lookup: a
    /// bit probe when the extension is already built, otherwise the same
    /// growth-data test keyed by the id. `None` for states built by the
    /// recomputing default bodies of [`LubProvider`].
    pub fn contains_id(&self, id: ValueId) -> Option<bool> {
        match &self.growth {
            Growth::Recompute { .. } => None,
            Growth::Pooled(p) => Some(match p.extension.get() {
                Some(ext) => ext.contains_in(&p.view.pool, id),
                None => match &p.nominal {
                    Some(x) => p.view.pool.value(id) == x,
                    None => p.view.holds(&p.columns, id),
                },
            }),
        }
    }

    /// The column signature of the value with id `id` in the pool of
    /// the provider that built the state: one bit per `(rel, attr)`
    /// column in schema column order, set iff the column holds the
    /// value, in `⌈columns/64⌉` words (at least one). By Lemma 5.1 a
    /// constant affects a selection-free growth step only through its
    /// signature: growing by `v` ANDs `sig(v)` into the state's
    /// covered-column mask, so constants of one signature are grown, and
    /// judged, alike.
    ///
    /// `None` for states with selections (Lemma 5.2 reads witness rows,
    /// not columns), for states built by the recomputing default bodies
    /// of [`LubProvider`], and for an id past the pool's end. A pooled
    /// value that occurs in no column has the zero signature.
    pub fn column_signature(&self, id: ValueId) -> Option<&[u64]> {
        match &self.growth {
            Growth::Pooled(p) if self.kind == LubKind::SelectionFree => p.view.signature(id),
            _ => None,
        }
    }
}

impl Pooled {
    /// Whether growing by `v` can skip the step because `v` is already
    /// in the extension: `v` is the nominal, or the extension is built
    /// and holds it. Stepping by an in-extension constant would rebuild
    /// the same covered mask and minimal boxes.
    fn absorbs(&self, v: &Value) -> bool {
        self.nominal.as_ref() == Some(v) || self.extension.get().is_some_and(|e| e.contains(v))
    }
}

/// The pooled lub engine: `lub_I` / `lubσ_I` over one pinned
/// `(schema, instance)` pair, with each `(rel, attr)` column interned
/// into the shared pool exactly once.
///
/// Lubs are computed by growth: the [`LubProvider`] methods start a
/// [`LubState`] at a singleton and grow it one constant at a time
/// (Lemma 5.1's covered-column mask ANDed with the new constant's
/// signature, Lemma 5.2's minimal boxes stretched to the new constant's
/// witness rows), and a from-scratch lub is the fold
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
    /// Per relation, its id image, built on first use (by a lub or by
    /// [`LubEngine::image`]), and its lub columns, built on the first lub.
    rels: RefCell<BTreeMap<RelId, Arc<RelColumns>>>,
    /// Per relation whose entry in `rels` predates a delta, the changes
    /// since: the next use patches the image with them.
    pending: RefCell<BTreeMap<RelId, Pending>>,
    /// Every relation's columns as one view, with `adom(I)` read off
    /// them, assembled on the first lub or [`LubEngine::adom`] call (a
    /// growth step reads every column) and dropped by
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
            pending: RefCell::new(BTreeMap::new()),
            view: RefCell::new(None),
            column_builds: Cell::new(0),
        }
    }

    /// The shared pool the engine's columns are interned into.
    pub fn pool(&self) -> &Arc<ConstPool> {
        &self.pool
    }

    /// The id image of `rel` over the engine's pool, built on first use
    /// (one pool probe per cell), patched on the first use after a delta
    /// that changed it (see [`LubEngine::apply_delta`]), and shared with
    /// the lub columns, so a
    /// relation is interned once for query evaluation
    /// ([`Ucq::eval_ids`](whynot_relation::Ucq::eval_ids)) and lubs
    /// alike. `None` for a relation outside the schema. The image holds
    /// the tuples of the relation's schema arity.
    ///
    /// # Panics
    /// Panics if the relation holds a constant the pool does not intern
    /// (see [`LubEngine::with_pool`]).
    pub fn image(&self, rel: RelId) -> Option<Arc<IdImage>> {
        ((rel.0 as usize) < self.schema.len()).then(|| Arc::clone(&self.rel_columns(rel).image))
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

    /// `adom(I)` as ascending ids of the engine's pool (id order is
    /// value order): the OR of every column's occurrence bits, built
    /// with the column view and dropped with it by
    /// [`LubEngine::apply_delta`]. The pool may intern more (a why-not
    /// tuple's constants, or values an earlier generation held); those
    /// ids occur in no column and are not listed.
    pub fn adom(&self) -> Arc<[ValueId]> {
        self.view().adom
    }

    /// The view over every relation's columns, assembled on first use.
    fn view(&self) -> LubView {
        if let Some(view) = self.view.borrow().as_ref() {
            return view.clone();
        }
        let rels: Arc<[(RelId, Arc<RelColumns>)]> = self
            .schema
            .rel_ids()
            .map(|rel| {
                let rc = self.rel_columns(rel);
                if rc.read_bits(&self.pool) {
                    self.column_builds
                        .set(self.column_builds.get() + rc.bits().len());
                }
                (rel, rc)
            })
            .collect();
        let columns: usize = rels.iter().map(|(_, rc)| rc.bits().len()).sum();
        let width = columns.div_ceil(64).max(1);
        let mut words = vec![0u64; self.pool.word_len()];
        let mut sigs = vec![0u64; self.pool.len() * width];
        for (c, bits) in rels.iter().flat_map(|(_, rc)| rc.bits()).enumerate() {
            kernels::or_assign(&mut words, bits);
            for id in kernels::ones(bits) {
                sigs[id * width + c / 64] |= 1 << (c % 64);
            }
        }
        let adom = kernels::ones(&words).map(|i| ValueId(i as u32)).collect();
        let view = LubView {
            pool: Arc::clone(&self.pool),
            rels,
            adom,
            sigs: sigs.into(),
            width,
        };
        *self.view.borrow_mut() = Some(view.clone());
        view
    }

    /// The interned data of one schema relation: its image built on
    /// first use (one pool probe per cell), or patched with the relation's
    /// pending changes (no pool probe per row), its columns then read
    /// afresh.
    fn rel_columns(&self, rel: RelId) -> Arc<RelColumns> {
        let image = match self.pending.borrow_mut().remove(&rel) {
            Some(pending) => {
                // lint: allow(no-panic-in-lib) — a relation is pending
                // only while its entry is in `rels`.
                let stale = self.rels.borrow_mut().remove(&rel).expect("pending image");
                self.patched(stale, pending)
            }
            None => match self.rels.borrow().get(&rel) {
                Some(hit) => return Arc::clone(hit),
                None => Arc::new(
                    IdImage::build(&self.inst, rel, self.schema.arity(rel), &self.pool)
                        // lint: allow(no-panic-in-lib) — the engine pool covers
                        // the instance's active domain (the documented
                        // `with_pool` contract), so every stored value has an
                        // id.
                        .expect("LubEngine pool must cover the instance's active domain"),
                ),
            },
        };
        debug_assert!(
            {
                let rows = |image: &IdImage| {
                    let mut rows: Vec<&[u32]> = (0..image.len()).map(|r| image.row(r)).collect();
                    rows.sort_unstable();
                    rows.concat()
                };
                IdImage::build(&self.inst, rel, self.schema.arity(rel), &self.pool)
                    .is_some_and(|fresh| rows(&fresh) == rows(&image))
            },
            "patched image disagrees with the instance"
        );
        let built = Arc::new(RelColumns {
            image,
            bits: OnceLock::new(),
        });
        self.rels.borrow_mut().insert(rel, Arc::clone(&built));
        built
    }

    /// `stale`'s image brought up to date: moved to the engine's pool
    /// when a generation bump left it behind, then patched with the
    /// changes — in place when nothing else holds it.
    fn patched(&self, stale: Arc<RelColumns>, pending: Pending) -> Arc<IdImage> {
        let mut image = match Arc::try_unwrap(stale) {
            Ok(columns) => columns.image,
            Err(shared) => Arc::clone(&shared.image),
        };
        if !Arc::ptr_eq(&pending.pool, &self.pool) {
            image = Arc::new(
                image
                    .remap(&PoolMap::between(&pending.pool, &self.pool))
                    // lint: allow(no-panic-in-lib) — generations only grow,
                    // so the engine's pool holds every value of an older one.
                    .expect("generation maps are total on old ids"),
            );
        }
        let change = RowDelta::of_changes(&pending.changes, &self.pool)
            // lint: allow(no-panic-in-lib) — every changed row is in the
            // instance before or after the delta, which the pool covers.
            .expect("LubEngine pool must cover every changed row");
        Arc::make_mut(&mut image).patch(&change);
        image
    }

    /// Retargets the engine at a post-delta snapshot, keeping every
    /// interned image and column of an unchanged relation.
    ///
    /// `net` holds each effectively changed relation's net change (from
    /// [`Instance::apply_delta`]). A changed relation keeps its image,
    /// which its next use patches with the changes since
    /// ([`IdImage::patch`]); its columns are read afresh then (counted
    /// by [`LubEngine::column_builds`] as usual). Once a relation's
    /// pending changes outnumber its rows, the image is dropped and
    /// rebuilt from the instance instead. When the delta introduced new
    /// constants the caller passes `repool = (next_pool, map)` from
    /// [`GenPool::absorb`](whynot_relation::GenPool::absorb): retained
    /// images and columns are then *remapped* into the new id space — a
    /// pure id translation, never a re-intern — so columns still count as
    /// retained; an image waiting for a patch is moved to the new pool by
    /// the patch.
    ///
    /// Returns `(retained, invalidated)` in column units; a relation
    /// still waiting for its patch has no columns to count.
    pub fn apply_delta(
        &mut self,
        new_inst: &Instance,
        net: &BTreeMap<RelId, NetChange>,
        repool: Option<(&Arc<ConstPool>, &PoolMap)>,
    ) -> (usize, usize) {
        let mut retained = 0usize;
        let mut invalidated = 0usize;
        let rels = self.rels.get_mut();
        let pending = self.pending.get_mut();
        rels.retain(|rel, rc| {
            let columns = if pending.contains_key(rel) {
                0
            } else {
                rc.bits().len()
            };
            let Some(change) = net.get(rel) else {
                retained += columns;
                return true;
            };
            invalidated += columns;
            let waiting = pending.entry(*rel).or_insert_with(|| Pending {
                pool: Arc::clone(&self.pool),
                changes: Vec::new(),
            });
            waiting.changes.push(change.clone());
            let rows: usize = waiting
                .changes
                .iter()
                .map(|c| c.inserted.len() + c.deleted.len())
                .sum();
            if rows > new_inst.cardinality(*rel) {
                pending.remove(rel);
                return false;
            }
            true
        });
        if let Some((pool, map)) = repool {
            for (_, rc) in rels
                .iter_mut()
                .filter(|(rel, _)| !pending.contains_key(rel))
            {
                let image = rc
                    .image
                    .remap(map)
                    // lint: allow(no-panic-in-lib) — generations only
                    // grow, so a PoolMap is total on every old id.
                    .expect("generation maps are total on old ids");
                let moved = RelColumns {
                    image: Arc::new(image),
                    bits: OnceLock::new(),
                };
                // Built columns stay built: their bits are re-read off
                // the remapped rows.
                if rc.bits.get().is_some() {
                    moved.read_bits(pool);
                }
                *rc = Arc::new(moved);
            }
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
    /// Reads the per-attribute occurrence bitsets off the image, over
    /// `pool`, unless they are already read; returns whether this call
    /// read them.
    fn read_bits(&self, pool: &ConstPool) -> bool {
        let mut read = false;
        self.bits.get_or_init(|| {
            read = true;
            (0..self.image.arity())
                .map(|j| {
                    let mut words = vec![0u64; pool.word_len()];
                    for r in 0..self.image.len() {
                        let id = self.image.row(r)[j] as usize;
                        words[id / 64] |= 1 << (id % 64);
                    }
                    words
                })
                .collect()
        });
        read
    }

    /// The per-attribute occurrence bits; empty until
    /// [`RelColumns::read_bits`] (the view reads every relation's before
    /// it is used).
    fn bits(&self) -> &[Vec<u64>] {
        self.bits.get().map_or(&[], Vec::as_slice)
    }
}

/// Every relation's interned columns as one value, assembled by
/// [`LubEngine`] on its first lub: the growth steps read all of them, and
/// the engine delegates every lub to them.
#[derive(Clone)]
struct LubView {
    pool: Arc<ConstPool>,
    /// Every schema relation's interned columns, in `RelId` order.
    rels: Arc<[(RelId, Arc<RelColumns>)]>,
    /// `adom(I)`: the ids set in some column, ascending.
    adom: Arc<[ValueId]>,
    /// Per pool id, its column signature (see
    /// [`LubState::column_signature`]): `width` words at `id * width`.
    sigs: Arc<[u64]>,
    /// Words per signature: `⌈columns/64⌉`, at least one.
    width: usize,
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
            .flat_map(|(rel, rc)| (0..rc.bits().len()).map(move |attr| (*rel, &**rc, attr)))
    }

    /// The columns whose bit is set in `mask`, in schema column order.
    fn masked<'m>(
        &'m self,
        mask: &'m [u64],
    ) -> impl Iterator<Item = (RelId, &'m RelColumns, Attr)> + 'm {
        self.columns()
            .enumerate()
            .filter(|(c, _)| has_bit(mask, *c))
            .map(|(_, column)| column)
    }

    /// The column signature of pool id `id`; `None` past the pool's end.
    fn signature(&self, id: ValueId) -> Option<&[u64]> {
        let at = id.index() * self.width;
        self.sigs.get(at..at + self.width)
    }

    /// The covered-column mask of the singleton `{v}`: `sig(v)`, or zero
    /// for a value outside the pool.
    fn mask_of(&self, id: Option<ValueId>) -> Vec<u64> {
        id.and_then(|id| self.signature(id))
            .map_or_else(|| vec![0; self.width], <[u64]>::to_vec)
    }

    /// The growth data of the singleton `{x}`: the columns containing
    /// `x`, or one point box per witness row of `x`.
    fn seed(&self, kind: LubKind, x: &Value) -> Columns {
        let id = self.pool.id_of(x);
        match kind {
            LubKind::SelectionFree => Columns::Covered(self.mask_of(id)),
            LubKind::WithSelections => Columns::Boxes(
                self.columns()
                    .map(|(_, rc, attr)| match id {
                        None => Vec::new(),
                        Some(id) => rc
                            .image
                            .bucket(attr, id.0)
                            .iter()
                            .flat_map(|&r| rc.image.row(r as usize).iter().map(|&c| (c, c)))
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
            Columns::Covered(mask) => {
                let mut grown = self.mask_of(id);
                kernels::and_assign(&mut grown, mask);
                Columns::Covered(grown)
            }
            Columns::Boxes(boxes) => Columns::Boxes(
                self.columns()
                    .zip(boxes)
                    .map(|((_, rc, attr), boxes)| match id {
                        None => Vec::new(),
                        Some(id) => stretch_boxes(rc, attr, boxes, id.0),
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
        Some(self.assemble(singleton(x), &columns))
    }

    /// The full state of `x`.
    fn fold(&self, kind: LubKind, x: &BTreeSet<Value>) -> Option<LubState> {
        let columns = self.fold_columns(kind, x)?;
        Some(self.state(kind, singleton(x).cloned(), columns))
    }

    /// Wraps growth data into a state whose extension and concept are
    /// built on first use.
    fn state(&self, kind: LubKind, nominal: Option<Value>, columns: Columns) -> LubState {
        LubState {
            kind,
            growth: Growth::Pooled(Pooled {
                view: self.clone(),
                nominal,
                columns,
                extension: OnceCell::new(),
                concept: OnceCell::new(),
            }),
        }
    }

    /// Whether `v` is in the extension of the concept
    /// [`LubView::assemble`] would build (see [`LubState::contains`]);
    /// [`LubState::contains_id`] shares [`LubView::holds`] with it.
    fn contains(&self, nominal: Option<&Value>, columns: &Columns, v: &Value) -> bool {
        if let Some(x) = nominal {
            return x == v;
        }
        match self.pool.id_of(v) {
            Some(id) => self.holds(columns, id),
            // No column holds an unpooled constant: only a lub without
            // atoms (`⊤`) does.
            None => match columns {
                Columns::Covered(mask) => kernels::is_zero(mask),
                Columns::Boxes(boxes) => boxes.iter().all(Vec::is_empty),
            },
        }
    }

    /// Whether the pooled value `id` satisfies every atom of a lub of two
    /// or more constants: its signature is a superset of the covered
    /// mask, or a witness row of it lies inside every minimal box.
    fn holds(&self, columns: &Columns, id: ValueId) -> bool {
        match columns {
            Columns::Covered(mask) => self
                .signature(id)
                .is_some_and(|sig| kernels::subset(mask, sig)),
            Columns::Boxes(boxes) => self
                .columns()
                .zip(boxes)
                .filter(|(_, boxes)| !boxes.is_empty())
                .all(|((_, rc, attr), boxes)| {
                    let witnesses = rc.image.bucket(attr, id.0);
                    boxes.chunks_exact(rc.image.arity()).all(|bx| {
                        witnesses
                            .iter()
                            .any(|&r| inside(rc.image.row(r as usize), bx))
                    })
                }),
        }
    }

    /// The extension of the concept [`LubView::assemble`] would build,
    /// computed in id space: the conjunction of its atoms' extensions.
    ///
    /// * A singleton `{x}` keeps its nominal, and every other atom
    ///   contains `x`, so the extension is `{x}` (an overflow member
    ///   when `x` is unpooled).
    /// * Lemma 5.1: the AND of the occurrence bits of the columns the
    ///   covered mask names.
    /// * Lemma 5.2: the AND over boxes of
    ///   `{row[attr] : row ∈ R, row inside the id box}` — id order is
    ///   value order, so this is the box atom's selection.
    /// * No atom at all is `⊤`: [`Extension::Universal`].
    fn extension(&self, nominal: Option<&Value>, columns: &Columns) -> Extension {
        if let Some(x) = nominal {
            return Extension::finite_refs_in(Arc::clone(&self.pool), [x]);
        }
        let mut acc: Option<Vec<u64>> = None;
        match columns {
            Columns::Covered(mask) => {
                for (_, rc, attr) in self.masked(mask) {
                    let bits = &rc.bits()[attr];
                    match &mut acc {
                        None => acc = Some(bits.clone()),
                        Some(words) => {
                            kernels::and_assign(words, bits);
                        }
                    }
                }
            }
            Columns::Boxes(boxes) => {
                let mut scratch = vec![0u64; self.pool.word_len()];
                for ((_, rc, attr), boxes) in self.columns().zip(boxes) {
                    for bx in boxes.chunks_exact(rc.image.arity()) {
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
    fn assemble(&self, nominal: Option<&Value>, columns: &Columns) -> LsConcept {
        let mut atoms: Vec<LsAtom> = nominal
            .map(|x| LsAtom::Nominal(x.clone()))
            .into_iter()
            .collect();
        match columns {
            Columns::Covered(mask) => {
                for (rel, _, attr) in self.masked(mask) {
                    atoms.push(LsAtom::proj(rel, attr));
                }
            }
            Columns::Boxes(boxes) => {
                for ((rel, rc, attr), boxes) in self.columns().zip(boxes) {
                    for bx in boxes.chunks_exact(rc.image.arity()) {
                        atoms.push(box_atom(&self.pool, rel, rc, attr, bx));
                    }
                }
            }
        }
        LsConcept::from_atoms(atoms)
    }

    /// The state of the singleton support `{x}`.
    fn start(&self, kind: LubKind, x: &Value) -> LubState {
        self.state(kind, Some(x.clone()), self.seed(kind, x))
    }

    /// The state of `S ∪ {v}` stepped from the state of `S`. A `v` in
    /// `ext(lub(S))` leaves the lub as it is, so the state is returned
    /// unchanged when that is cheap to tell ([`Pooled::absorbs`]);
    /// otherwise the step runs, and rebuilds the same data for such a
    /// `v`. Past the nominal check `S ∪ {v}` has at least two members,
    /// so the grown state keeps no nominal.
    fn grow(&self, state: &LubState, v: &Value) -> LubState {
        let columns = match &state.growth {
            Growth::Pooled(p) if p.absorbs(v) => return state.clone(),
            Growth::Pooled(p) => self.step(&p.columns, v),
            Growth::Recompute { support, .. } if support.contains(v) => return state.clone(),
            // Built by the recomputing default bodies: no column data to
            // step from, so fold the grown support instead (a lub does
            // not depend on the order its support is folded in).
            Growth::Recompute { support, .. } => {
                support.iter().fold(self.seed(state.kind, v), |columns, u| {
                    self.step(&columns, u)
                })
            }
        };
        self.state(state.kind, None, columns)
    }
}

/// The only member of a singleton support, whose lub keeps its nominal.
fn singleton(x: &BTreeSet<Value>) -> Option<&Value> {
    x.first().filter(|_| x.len() == 1)
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
            growth: Growth::Recompute {
                support: x.clone(),
                concept,
            },
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
    /// `v` already in `ext(lub(S))` returns the state unchanged.
    ///
    /// The default body recomputes from the grown support. A pooled
    /// state keeps no support, so it is refolded from the members of its
    /// extension: `lub(ext(lub(S))) ≡ lub(S)`.
    fn grow(&self, state: &LubState, v: &Value) -> LubState {
        let mut support = match &state.growth {
            Growth::Recompute { support, .. } if support.contains(v) => return state.clone(),
            Growth::Recompute { support, .. } => support.clone(),
            Growth::Pooled(_) => match state.extension().and_then(|e| e.as_finite()) {
                Some(members) if !members.contains(v) => members.to_btree_set(),
                // `⊤` or a member: absorbing `v` changes nothing.
                _ => return state.clone(),
            },
        };
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

/// Whether bit `i` of `words` is set.
fn has_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 != 0
}

/// Lemma 5.2's growth step in one column: stretches every minimal box of
/// `S` to every witness row of `v` and keeps the minimal results. Empty
/// stays empty (no box of `S` → no box of `S ∪ {v}`), and so does a `v`
/// without witness rows.
///
/// The filter runs online: each stretched box is checked against the
/// antichain kept so far ([`keep_if_minimal`]), so a step costs
/// `|boxes(S)| · |witnesses(v)|` stretches times the kept antichain's
/// size, not the square of the stretch count.
fn stretch_boxes(rc: &RelColumns, attr: Attr, boxes: &[Interval], v: u32) -> Vec<Interval> {
    let arity = rc.image.arity();
    let witnesses = rc.image.bucket(attr, v);
    if boxes.is_empty() || witnesses.is_empty() {
        return Vec::new();
    }
    let mut kept: Vec<Interval> = Vec::new();
    let mut stretched: Vec<Interval> = Vec::with_capacity(arity);
    for bx in boxes.chunks_exact(arity) {
        for &r in witnesses {
            let row = rc.image.row(r as usize);
            stretched.clear();
            stretched.extend(
                bx.iter()
                    .zip(row)
                    .map(|(&(lo, hi), &c)| (lo.min(c), hi.max(c))),
            );
            keep_if_minimal(&mut kept, &stretched);
        }
    }
    sorted_boxes(&kept, arity)
}

/// Adds `bx` to `kept`, an antichain of distinct inclusion-minimal boxes
/// (`bx.len()` intervals each), unless a kept box lies within `bx` (an
/// equal one included); otherwise drops the kept boxes `bx` lies within.
///
/// One pass does both: when some kept `k ⊆ bx`, no other kept box can
/// contain `bx` (it would contain `k`), so nothing was dropped before
/// the early return.
fn keep_if_minimal(kept: &mut Vec<Interval>, bx: &[Interval]) {
    let width = bx.len();
    let mut write = 0;
    for read in (0..kept.len()).step_by(width) {
        let k = &kept[read..read + width];
        if box_within(k, bx) {
            return;
        }
        if !box_within(bx, k) {
            kept.copy_within(read..read + width, write);
            write += width;
        }
    }
    kept.truncate(write);
    kept.extend_from_slice(bx);
}

/// The boxes of `kept` (`width` intervals each) in ascending order.
fn sorted_boxes(kept: &[Interval], width: usize) -> Vec<Interval> {
    let mut sorted: Vec<&[Interval]> = kept.chunks_exact(width).collect();
    sorted.sort_unstable();
    sorted.concat()
}

/// Whether `inner ⊆ outer` in every dimension.
fn box_within(inner: &[Interval], outer: &[Interval]) -> bool {
    inner
        .iter()
        .zip(outer)
        .all(|(&(ilo, ihi), &(olo, ohi))| olo <= ilo && ihi <= ohi)
}

/// Whether the id row `row` lies inside the box `bx`.
fn inside(row: &[u32], bx: &[Interval]) -> bool {
    row.iter().zip(bx).all(|(&c, &(lo, hi))| lo <= c && c <= hi)
}

/// Sets in `words` the bits of `{row[attr] : row ∈ R inside bx}` — the
/// extension of [`box_atom`]'s `π_attr(σ_box(R))`. Only the rows whose
/// coordinate falls inside the box's narrowest dimension (one contiguous
/// run of that attribute's witness index) are tested.
fn box_extension_into(rc: &RelColumns, attr: Attr, bx: &[Interval], words: &mut [u64]) {
    let Some(rows) = bx
        .iter()
        .enumerate()
        .map(|(j, &(lo, hi))| rc.image.rows_in(j, lo, hi))
        .min_by_key(|rows| rows.len())
    else {
        return;
    };
    for &r in rows {
        let row = rc.image.row(r as usize);
        if inside(row, bx) {
            let id = row[attr] as usize;
            words[id / 64] |= 1 << (id % 64);
        }
    }
}

/// Resolves an id box into the atom `π_attr(σ_box(R))`, dropping the
/// constraints whose interval spans the whole column (the image's column
/// bounds, compared as ids).
fn box_atom(pool: &ConstPool, rel: RelId, rc: &RelColumns, attr: Attr, bx: &[Interval]) -> LsAtom {
    let mut bounds: Vec<(Attr, Value, Value)> = Vec::new();
    for (j, &(lo, hi)) in bx.iter().enumerate() {
        if rc.image.bounds(j) != Some((lo, hi)) {
            bounds.push((
                j,
                pool.value(ValueId(lo)).clone(),
                pool.value(ValueId(hi)).clone(),
            ));
        }
    }
    LsAtom::proj_sel(rel, attr, Selection::from_box(bounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lub::{lub, lub_sigma, try_lub, try_lub_sigma};
    use whynot_relation::{Delta, SchemaBuilder};

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
        let mut delta = Delta::new();
        delta.delete(tc, vec![s("Tokyo"), s("Kyoto")]);
        let out = inst.apply_delta(&delta);
        let next = out.instance.clone();
        let (retained, invalidated) = engine.apply_delta(&next, &out.net, None);
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
        let mut delta = Delta::new();
        delta.insert(tc, vec![s("Kyoto"), s("Aomori")]);
        let out = inst.apply_delta(&delta);
        let next = out.instance.clone();
        let map = gen.absorb([s("Aomori")]).expect("new constant");
        let (retained, invalidated) = engine.apply_delta(&next, &out.net, Some((gen.pool(), &map)));
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

    #[test]
    fn adom_ids_follow_the_instance_across_deltas() {
        use whynot_relation::GenPool;
        let listed = |engine: &LubEngine<'_>| -> Vec<Value> {
            let pool = engine.pool();
            engine
                .adom()
                .iter()
                .map(|&id| pool.value(id).clone())
                .collect()
        };
        let adom = |i: &Instance| -> Vec<Value> { i.active_domain().into_iter().collect() };
        let (schema, inst) = paper_fixture();
        // A pooled constant outside every column is not listed.
        let mut gen = GenPool::new(inst.const_pool_with([s("ghost")]));
        let mut engine = LubEngine::with_pool(&schema, &inst, Arc::clone(gen.pool()));
        assert_eq!(listed(&engine), adom(&inst));

        // Santa Cruz's population leaves adom(I) but stays pooled.
        let cities = RelId(0);
        let mut delta = Delta::new();
        delta.delete(
            cities,
            vec![
                s("Santa Cruz"),
                Value::int(59_946),
                s("USA"),
                s("N.America"),
            ],
        );
        let out = inst.apply_delta(&delta);
        let next = out.instance.clone();
        engine.apply_delta(&next, &out.net, None);
        assert_eq!(listed(&engine), adom(&next));

        // A new constant bumps the pool generation.
        let tc = RelId(1);
        let mut delta = Delta::new();
        delta.insert(tc, vec![s("Kyoto"), s("Aomori")]);
        let out = next.apply_delta(&delta);
        let last = out.instance.clone();
        let map = gen.absorb([s("Aomori")]).expect("new constant");
        engine.apply_delta(&last, &out.net, Some((gen.pool(), &map)));
        assert_eq!(listed(&engine), adom(&last));
    }

    #[test]
    fn images_are_shared_by_evaluation_and_lubs_across_deltas() {
        use whynot_relation::GenPool;
        let (schema, inst) = paper_fixture();
        let (cities, tc) = (RelId(0), RelId(1));
        let mut gen = GenPool::new(inst.const_pool());
        let mut engine = LubEngine::with_pool(&schema, &inst, Arc::clone(gen.pool()));
        assert!(engine.image(RelId(9)).is_none(), "outside the schema");
        // An image alone interns no lub column.
        let tc_image = engine.image(tc).unwrap();
        assert_eq!(tc_image.len(), 6);
        assert_eq!(engine.column_builds(), 0);
        let _ = engine.lub(&[s("Berlin"), s("Rome")].into_iter().collect());
        assert!(Arc::ptr_eq(&engine.image(tc).unwrap(), &tc_image));

        // A delta to Cities keeps TC's image; a bump remaps it.
        let mut delta = Delta::new();
        delta.insert(
            cities,
            vec![s("Aomori"), Value::int(1), s("Japan"), s("Asia")],
        );
        let out = inst.apply_delta(&delta);
        let next = out.instance.clone();
        let map = gen
            .absorb([s("Aomori"), Value::int(1)])
            .expect("new constants");
        engine.apply_delta(&next, &out.net, Some((gen.pool(), &map)));
        let moved = engine.image(tc).unwrap();
        let fresh = IdImage::build(&next, tc, 2, gen.pool()).unwrap();
        assert!((0..6).all(|r| moved.row(r) == fresh.row(r)));
        assert_eq!(engine.image(cities).unwrap().len(), 9);
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
    fn contains_decides_membership_like_the_extension() {
        let (schema, inst) = paper_fixture();
        let engine = LubEngine::new(&schema, &inst);
        let mut probes: Vec<Value> = inst.active_domain().into_iter().collect();
        probes.push(s("nowhere"));
        // By value and by id, from the growth data (a fresh copy of the
        // state, extension unbuilt) and from the built extension.
        let agree = |state: &LubState, what: &str| {
            for v in &probes {
                let id = engine.pool().id_of(v);
                let fresh = state.clone();
                let by_id = id.map(|id| fresh.contains_id(id));
                let decided = fresh.contains(v);
                let ext = state.extension().expect("pooled states carry one");
                let expect = Some(ext.contains(v));
                assert_eq!(decided, expect, "{what}: {v:?}");
                if let Some(id) = id {
                    assert_eq!(by_id, Some(expect), "{what}: id of {v:?}");
                    assert_eq!(state.contains_id(id), expect, "{what}: built, {v:?}");
                }
            }
        };
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            // A singleton holds exactly its nominal, pooled or not.
            let berlin = engine.start(kind, &s("Berlin"));
            assert_eq!(berlin.contains(&s("Berlin")), Some(true));
            assert_eq!(berlin.contains(&s("Rome")), Some(false));
            agree(&berlin, "{Berlin}");
            let nowhere = engine.start(kind, &s("nowhere"));
            assert_eq!(nowhere.contains(&s("nowhere")), Some(true));
            agree(&nowhere, "{nowhere}");
            // ⊤ holds everything, a constant outside the pool included.
            let top = engine.grow(&berlin, &Value::int(59_946));
            assert_eq!(top.contains(&s("nowhere")), Some(true));
            agree(&top, "⊤");
            let mut state = berlin;
            for v in ["Rome", "Amsterdam", "Tokyo", "nowhere"] {
                state = engine.grow(&state, &s(v));
                agree(&state, v);
            }
            // States of the recomputing default bodies carry no growth
            // data to decide from.
            let foreign = Recomputing(&engine).start(kind, &s("Berlin"));
            assert_eq!(foreign.contains(&s("Berlin")), None);
            let berlin_id = engine.pool().id_of(&s("Berlin")).unwrap();
            assert_eq!(foreign.contains_id(berlin_id), None);
        }
    }

    #[test]
    fn default_grow_refolds_a_pooled_state_from_its_extension() {
        let (schema, inst) = paper_fixture();
        let engine = LubEngine::new(&schema, &inst);
        let cases: [(&[Value], Value); 6] = [
            (&[s("Berlin")], s("Rome")),
            (&[s("Berlin"), s("Rome")], s("Amsterdam")),
            (&[s("Santa Cruz"), s("New York")], s("Tokyo")),
            (&[s("Berlin"), s("Rome")], s("nowhere")),
            // Absorbed: a member, and anything into ⊤.
            (&[s("Berlin")], s("Berlin")),
            (&[s("Berlin"), Value::int(59_946)], s("Tokyo")),
        ];
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let legacy = |x: &BTreeSet<Value>| match kind {
                LubKind::SelectionFree => lub(&schema, &inst, x),
                LubKind::WithSelections => lub_sigma(&schema, &inst, x),
            };
            for (support, v) in &cases {
                let support: BTreeSet<Value> = support.iter().cloned().collect();
                let pooled = engine.state_of(kind, &support).unwrap();
                let grown = Recomputing(&engine).grow(&pooled, v);
                let mut x = support.clone();
                x.insert(v.clone());
                let expect = legacy(&x);
                assert_eq!(grown.concept(), &expect, "{kind:?} {x:?}");
                let ext = state_ext(&grown, &inst, engine.pool());
                assert_eq!(
                    ext,
                    expect.extension_in(&inst, engine.pool()),
                    "{kind:?} {x:?}"
                );
            }
        }
    }

    /// A state's extension, carried or evaluated from its concept.
    fn state_ext(state: &LubState, inst: &Instance, pool: &Arc<ConstPool>) -> Extension {
        match state.extension() {
            Some(ext) => (**ext).clone(),
            None => state.concept().extension_in(inst, pool),
        }
    }

    /// A small deterministic generator (xorshift64*) for the box filter
    /// cases.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u32) -> u32 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as u32 % n
        }
    }

    /// The filter by definition: the distinct boxes no other box lies
    /// within, ascending.
    fn minimal_by_definition(boxes: &[Vec<Interval>]) -> Vec<Interval> {
        let mut distinct: Vec<&Vec<Interval>> = boxes.iter().collect();
        distinct.sort();
        distinct.dedup();
        distinct
            .iter()
            .filter(|bx| !distinct.iter().any(|o| o != *bx && box_within(o, bx)))
            .flat_map(|bx| bx.iter().copied())
            .collect()
    }

    /// One random box set of the given arity: fresh boxes, duplicates,
    /// boxes nested in or around earlier ones, and boxes of one total
    /// width (pairwise equal or incomparable).
    fn random_boxes(rng: &mut Rng, arity: usize) -> Vec<Vec<Interval>> {
        let mut boxes: Vec<Vec<Interval>> = Vec::new();
        for _ in 0..rng.below(24) {
            let pick =
                (!boxes.is_empty()).then(|| boxes[rng.below(boxes.len() as u32) as usize].clone());
            let bx = match (rng.below(5), pick) {
                (0, Some(old)) => old,
                (1, Some(old)) => old
                    .iter()
                    .map(|&(lo, hi)| (lo.saturating_sub(rng.below(2)), hi + rng.below(2)))
                    .collect(),
                (2, Some(old)) => old
                    .iter()
                    .map(|&(lo, hi)| {
                        let lo = lo + rng.below(hi - lo + 1);
                        (lo, hi - rng.below(hi - lo + 1))
                    })
                    .collect(),
                (3, _) => {
                    let mut widths = vec![0u32; arity];
                    for _ in 0..4 {
                        widths[rng.below(arity as u32) as usize] += 1;
                    }
                    widths
                        .into_iter()
                        .map(|w| {
                            let lo = rng.below(6);
                            (lo, lo + w)
                        })
                        .collect()
                }
                _ => (0..arity)
                    .map(|_| {
                        let lo = rng.below(8);
                        (lo, lo + rng.below(4))
                    })
                    .collect(),
            };
            boxes.push(bx);
        }
        boxes
    }

    #[test]
    fn online_box_filter_matches_the_quadratic_definition() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for case in 0..4000 {
            let arity = 1 + case % 4;
            let boxes = random_boxes(&mut rng, arity);
            let mut kept = Vec::new();
            for bx in &boxes {
                keep_if_minimal(&mut kept, bx);
            }
            let got = sorted_boxes(&kept, arity);
            assert_eq!(got, minimal_by_definition(&boxes), "{boxes:?}");
            let chunks: Vec<&[Interval]> = got.chunks_exact(arity).collect();
            assert!(
                chunks.windows(2).all(|w| w[0] < w[1]),
                "not deduplicated and ascending: {got:?}"
            );
        }
    }

    /// The columns holding `v` by definition, in schema column order.
    fn columns_holding(schema: &Schema, inst: &Instance, v: &Value) -> Vec<usize> {
        let mut held = Vec::new();
        let mut c = 0;
        for rel in schema.rel_ids() {
            for attr in 0..schema.arity(rel) {
                if inst.tuples(rel).any(|t| &t[attr] == v) {
                    held.push(c);
                }
                c += 1;
            }
        }
        held
    }

    /// The bits set in `words`.
    fn bits(words: &[u64]) -> Vec<usize> {
        kernels::ones(words).collect()
    }

    /// The covered-column mask of a selection-free pooled state whose
    /// support has two or more constants.
    fn column_mask(state: &LubState) -> Option<&[u64]> {
        match &state.growth {
            Growth::Pooled(Pooled {
                nominal: None,
                columns: Columns::Covered(mask),
                ..
            }) => Some(mask),
            _ => None,
        }
    }

    #[test]
    fn column_signatures_and_masks_follow_lemma_5_1() {
        // The paper fixture (6 columns, one word) and a relation of 70
        // columns, whose signatures and masks span two words.
        let (schema, inst) = paper_fixture();
        let mut b = SchemaBuilder::new();
        let names: Vec<String> = (0..70).map(|i| format!("a{i}")).collect();
        let wide = b.relation("Wide", names.iter().map(String::as_str));
        let wide_schema = b.finish().unwrap();
        let mut wide_inst = Instance::new();
        for row in 0..3i64 {
            // Value `v` sits in column `i` of row `row` iff `(i + row) % 5 == v`.
            let tuple: Vec<Value> = (0..70).map(|i| Value::int((i + row) % 5)).collect();
            wide_inst.insert(wide, tuple);
        }
        for (schema, inst, width) in [(&schema, &inst, 1), (&wide_schema, &wide_inst, 2)] {
            let engine = LubEngine::with_pool(schema, inst, inst.const_pool_with([s("ghost")]));
            let pool = engine.pool();
            let ghost = pool.id_of(&s("ghost")).unwrap();
            let adom: Vec<Value> = inst.active_domain().into_iter().collect();
            for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
                let state = engine.start(kind, &adom[0]);
                if kind == LubKind::WithSelections {
                    assert_eq!(state.column_signature(ghost), None);
                    assert_eq!(column_mask(&state), None);
                    continue;
                }
                // A singleton keeps its nominal, so it has no mask.
                assert_eq!(column_mask(&state), None);
                assert_eq!(state.column_signature(ghost), Some(&[0u64; 2][..width]));
                for v in &adom {
                    let sig = state.column_signature(pool.id_of(v).unwrap()).unwrap();
                    assert_eq!(sig.len(), width);
                    assert_eq!(bits(sig), columns_holding(schema, inst, v), "{v:?}");
                }
                // A mask is the AND of its support's signatures.
                let mut grown = state;
                let mut expect: Vec<usize> = columns_holding(schema, inst, &adom[0]);
                for v in &adom[1..] {
                    grown = engine.grow(&grown, v);
                    let held = columns_holding(schema, inst, v);
                    expect.retain(|c| held.contains(c));
                    assert_eq!(column_mask(&grown).map(bits), Some(expect.clone()));
                }
                let unpooled = engine.grow(&engine.start(kind, &adom[0]), &s("nowhere"));
                assert_eq!(column_mask(&unpooled), Some(&[0u64; 2][..width]));
                assert!(unpooled.concept().is_top());
            }
            // States of the recomputing default bodies carry no signatures.
            let foreign = Recomputing(&engine).start(LubKind::SelectionFree, &adom[0]);
            assert_eq!(foreign.column_signature(ghost), None);
            let grown = Recomputing(&engine).grow(&foreign, &adom[1]);
            assert_eq!(column_mask(&grown), None);
        }
        // The wide relation's lubs still match the legacy free function.
        let x: BTreeSet<Value> = [Value::int(0), Value::int(1)].into_iter().collect();
        assert_eq!(
            LubEngine::new(&wide_schema, &wide_inst).lub(&x),
            lub(&wide_schema, &wide_inst, &x)
        );
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
