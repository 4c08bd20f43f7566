//! The why-not session layer: one pinned `(ontology, instance)` pair,
//! many questions, answered one at a time.
//!
//! The paper frames why-not explanation as a single `(q, I, a)` question,
//! but a deployed explanation service fields *streams* of questions
//! against one instance — and almost everything the algorithms compute is
//! question-independent. A [`WhyNotSession`] pins the pair once and
//! answers an arbitrary sequence of [`WhyNotQuestion`]s, reusing across
//! questions everything that does not depend on the question:
//!
//! | cache | keyed by | serves |
//! |---|---|---|
//! | concept extensions | concept (via [`EvalContext`]) | every algorithm; ≤ 1 `ext(c, I)` eval per concept **per session**, not per question |
//! | the extension table + [`ConstPool`] | — (built once) | Algorithm 1 candidates, the `>card` searches' extension sizes, contrast separators' extensions, word-parallel membership |
//! | answer sets `q(I)` | the query `q` | repeated queries with different missing tuples evaluate `q` once; kept as sorted pool-id rows ([`AnswerRows`]), each tagged with a serial, and patched after a delta ([`Ucq::patch_ids`]) instead of re-evaluated |
//! | candidate concept indices | the position constant `aᵢ` | the per-position candidates of Algorithm 1, the existence search and both `>card` searches; a contrast's named separators at position `i` are `indices(foil[i]) ∖ indices(missing[i])` |
//! | conflict bitsets | `(answer serial, position, concept)` | the per-candidate conflict masks of those same searches — question-independent, so the per-question build is a cache probe and a pointer clone per candidate |
//! | the pooled [`LubEngine`]: one id image per relation, plus lub columns | `rel` / `(rel, attr)` (built once) | query evaluation over the images, and Algorithm 2's growth probes, MGE checks w.r.t. `OI` and the contrast searches — each probe grows a per-position [`LubState`](whynot_concepts::LubState) by one constant, so lubs are not memoized at all |
//!
//! The answer, candidate and conflict caches are each one `Memo` (see
//! the crate's `memo` module): a hash map under an entry cap from the
//! session's [`CacheBudget`], evicting its least-recently-used entry.
//! Evicting an answer set purges the conflict bitsets keyed by its
//! serial.
//!
//! A delta keeps the answer sets over the relations it changed. The
//! session journals each delta's net change per relation, and the next
//! access to such a set folds the journal's changes since
//! the set's epoch into it ([`Ucq::patch_ids`]); the set then takes a
//! new serial, so the conflict bitsets of the old rows stay dead. A set
//! whose pending changes outgrow its relations' rows is dropped and
//! re-evaluated instead. Contrastive answers are not cached: each
//! [`contrast`](WhyNotSession::contrast) call recomputes its answer.
//!
//! Questions are answered in the session pool's id space: answer sets are
//! evaluated over the engine's id images ([`Ucq::eval_ids`]) without
//! building a tuple, and a question borrows the cached rows
//! ([`AnswerIds`]) — a contrast residual `Ans \ {foil}` skips one row.
//!
//! The growth probes need no cache of their own. A grown state decides
//! membership in its lub from the engine's columns, by session-pool id,
//! so a probe is rejected at the first member of the position's blocked
//! set (built from the answer rows' ids) its lub holds. A state builds
//! its extension only when a later position's blocked set reads it, and
//! assembles its `LS` concept only when the search keeps it. So no `LS`
//! concept is built, looked up or evaluated per probe; only
//! `check_mge_instance` evaluates the concepts it is handed, directly.
//!
//! Validation happens at the service boundary: a malformed question
//! (wrong arity, unknown relation, nullary tuple, tuple already answered)
//! returns a [`SessionError`] and leaves the session fully usable — it
//! never panics and never poisons the caches.
//!
//! # Examples
//!
//! ```
//! use whynot_core::{ExplicitOntology, WhyNotQuestion, WhyNotSession};
//! use whynot_relation::{Atom, Cq, Instance, SchemaBuilder, Term, Ucq, Value, Var};
//!
//! let ontology = ExplicitOntology::builder()
//!     .concept("City", ["Amsterdam", "Berlin", "New York"])
//!     .concept("European-City", ["Amsterdam", "Berlin"])
//!     .concept("US-City", ["New York"])
//!     .edge("European-City", "City")
//!     .edge("US-City", "City")
//!     .build();
//! let mut b = SchemaBuilder::new();
//! let tc = b.relation("TC", ["from", "to"]);
//! let schema = b.finish().unwrap();
//! let mut instance = Instance::new();
//! instance.insert(tc, vec![Value::str("Amsterdam"), Value::str("Berlin")]);
//!
//! let session = WhyNotSession::new(&ontology, &schema, &instance);
//! let q = Ucq::single(Cq::new(
//!     [Term::Var(Var(0)), Term::Var(Var(1))],
//!     [Atom::new(tc, [Term::Var(Var(0)), Term::Var(Var(1))])],
//!     [],
//! ));
//! // Two questions, one query evaluation, one extension pass.
//! let e1 = session.exhaustive(&WhyNotQuestion::new(
//!     q.clone(),
//!     [Value::str("New York"), Value::str("Amsterdam")],
//! ))?;
//! let e2 = session.exhaustive(&WhyNotQuestion::new(
//!     q,
//!     [Value::str("New York"), Value::str("Berlin")],
//! ))?;
//! // "New York is a US city, and no US city has an outgoing train."
//! assert!(!e1.is_empty() && !e2.is_empty());
//! // The batch-level eval-once contract: both questions together ran the
//! // ontology's extension function at most once per concept.
//! assert!(session.evaluations() <= 3);
//! assert_eq!(session.questions_answered(), 2);
//! # Ok::<(), whynot_core::SessionError>(())
//! ```

use crate::context::EvalContext;
use crate::contrast::{contrast_core, validate_contrast, ContrastAnswer, ContrastQuestion};
use crate::exhaustive::{self, ConflictBits};
use crate::incremental::{check_mge_instance_core, incremental_search_core, restriction};
use crate::memo::Memo;
use crate::ontology::{FiniteOntology, Ontology};
use crate::variations;
use crate::whynot::{exts_form_explanation, AnswerIds, Explanation};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use whynot_concepts::{Extension, ExtensionTable, LsConcept, LubEngine, LubKind};
use whynot_relation::{
    AnswerRows, ConstPool, Delta, Instance, NetChange, PoolMap, RelError, RelId, RowDelta, Schema,
    Tuple, Ucq, Value,
};

/// One question of a batched stream: the query `q` and the missing tuple
/// `a`. The schema, instance, and answer set all live in the
/// [`WhyNotSession`] — the session evaluates (and caches) `Ans = q(I)`
/// itself.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WhyNotQuestion {
    /// The query `q` (a union of conjunctive queries).
    pub query: Ucq,
    /// The missing tuple `a`, expected outside `q(I)`.
    pub tuple: Tuple,
}

impl WhyNotQuestion {
    /// Builds a question from a query and the missing tuple.
    pub fn new(query: Ucq, tuple: impl IntoIterator<Item = Value>) -> Self {
        WhyNotQuestion {
            query,
            tuple: tuple.into_iter().collect(),
        }
    }
}

/// Why a question was rejected at the service boundary. Every variant is
/// recoverable: the session stays fully usable for the next question.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SessionError {
    /// The query failed schema validation, or its arity disagrees with
    /// the tuple's.
    Invalid(RelError),
    /// The tuple is among the answers — there is nothing to explain.
    TupleIsAnswer(Tuple),
    /// The question has arity 0: no position to attach a concept to, and
    /// no non-empty support set to take a `lub` of.
    Nullary,
    /// A `lub` of an empty support set was requested (see
    /// [`WhyNotSession::lub`]).
    EmptySupport,
    /// A contrastive question named a foil that is not among the answers
    /// — there is no contrast to draw.
    FoilNotAnswer(Tuple),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Invalid(e) => write!(f, "invalid question: {e}"),
            SessionError::TupleIsAnswer(t) => {
                write!(
                    f,
                    "the tuple {t:?} is among the answers — nothing to explain"
                )
            }
            SessionError::Nullary => write!(f, "nullary questions have no positions to explain"),
            SessionError::EmptySupport => {
                write!(f, "the lub of an empty support set is undefined")
            }
            SessionError::FoilNotAnswer(t) => {
                write!(
                    f,
                    "the foil {t:?} is not among the answers — no contrast to draw"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<RelError> for SessionError {
    fn from(e: RelError) -> Self {
        SessionError::Invalid(e)
    }
}

/// A question validated and bound against the session's instance: the
/// answer set is resolved (possibly from cache) and the tuple is known to
/// be missing.
struct BoundQuestion {
    ans: Arc<AnswerRows>,
    /// The answer cache's serial for `ans`; `None` when the set is not
    /// cached (budget 0), so nothing keyed by it is cached either.
    serial: Option<u64>,
    tuple: Tuple,
}

impl BoundQuestion {
    /// The question's view of the answer rows (borrowed, not re-interned).
    fn ids(&self) -> AnswerIds<'_> {
        AnswerIds::over(&self.ans, None, &self.tuple)
    }
}

/// A contrastive question validated and bound: the full answer set is
/// resolved (from cache when possible) and the foil's row located.
struct BoundContrast {
    /// The full answer set, foil included.
    ans: Arc<AnswerRows>,
    /// The foil's row in `ans`.
    foil_row: usize,
    missing: Tuple,
    foil: Tuple,
}

impl BoundContrast {
    /// The residual question `Ans \ {foil}` the lub-driven cores consume:
    /// the same rows with the foil's skipped.
    fn residual(&self) -> AnswerIds<'_> {
        AnswerIds::over(&self.ans, Some(self.foil_row), &self.missing)
    }
}

/// Usage counters of a session (see [`WhyNotSession::stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SessionStats {
    /// Questions successfully bound (validation passed).
    pub questions: usize,
    /// `ext(c, I)` evaluations of the wrapped ontology — the batch-level
    /// eval-once contract bounds this by the number of concepts,
    /// independent of the number of questions.
    pub evaluations: usize,
    /// Distinct queries whose answer sets are cached.
    pub cached_queries: usize,
    /// Distinct position constants whose candidate lists are cached.
    pub cached_candidates: usize,
    /// Distinct `(query, position, concept)` conflict bitsets cached for
    /// the candidates of Algorithm 1, the existence search and the
    /// `>card` searches (question-independent: keyed by the query's
    /// answers, not the missing tuple). Contrast questions add none.
    pub cached_conflicts: usize,
    /// Always 0: lubs are grown per probe, never memoized. Kept, like
    /// every always-0 field here, because the wire `stats` line and the
    /// wire benchmark report it.
    pub cached_lubs: usize,
    /// Always 0: growth states carry their `LS` extensions.
    pub cached_ls_extensions: usize,
    /// Always 0: contrastive answers are recomputed per call.
    pub cached_contrasts: usize,
    /// `(rel, attr)` column sets interned by the pooled lub engine —
    /// bounded by the schema's total attribute count for the session's
    /// whole lifetime, however many questions were answered.
    pub lub_column_builds: usize,
    /// Always 0: the session answers one question at a time.
    pub batches: usize,
    /// Always 0: as `batches`.
    pub batch_questions: usize,
    /// [`apply_delta`](WhyNotSession::apply_delta) calls accepted
    /// (including no-ops).
    pub deltas: usize,
    /// Cache entries invalidated by deltas, summed over all calls (see
    /// [`DeltaStats::invalidated`]).
    pub delta_invalidated: usize,
    /// Cache entries that survived deltas, summed over all calls (see
    /// [`DeltaStats::retained`]).
    pub delta_retained: usize,
    /// The [`ConstPool`] generation: 0 at construction, bumped by each
    /// delta that introduced constants outside the current pool.
    pub pool_generation: u64,
    /// Total cache entries evicted under the session's [`CacheBudget`]
    /// (see [`WhyNotSession::evictions`] for the per-cache breakdown).
    pub cache_evictions: usize,
}

/// What one [`WhyNotSession::apply_delta`] call did to each session
/// cache: how much was invalidated (dropped, re-evaluated, or repaired)
/// versus retained across the mutation. A no-op delta returns the
/// all-zero default — nothing is invalidated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DeltaStats {
    /// Relations whose fact set effectively changed.
    pub changed_relations: usize,
    /// Facts present after the delta that were absent before.
    pub facts_inserted: usize,
    /// Facts absent after the delta that were present before.
    pub facts_deleted: usize,
    /// Whether the delta introduced constants outside the pool (forcing a
    /// generation bump; retained interned caches were bit-remapped).
    pub generation_bumped: bool,
    /// Memoized `ext(c, I)` entries dropped because the concept's
    /// [`signature`](Ontology::signature) intersects the changed
    /// relations.
    pub extensions_dropped: usize,
    /// Memoized `ext(c, I)` entries that survived.
    pub extensions_retained: usize,
    /// Extension-table entries re-evaluated (dirty signatures).
    pub table_reevaluated: usize,
    /// Extension-table entries carried over unchanged (or bit-remapped
    /// across a generation bump).
    pub table_retained: usize,
    /// Cached answer sets dropped because the query reads a changed
    /// relation and the changes pending for it outnumber its relations'
    /// rows: the next access re-evaluates the query.
    pub answers_dropped: usize,
    /// Cached answer sets kept for a patch because the query reads a
    /// changed relation: the next access folds the pending changes into
    /// the rows ([`Ucq::patch_ids`]) under a new serial.
    pub answers_patched: usize,
    /// Cached answer sets that survived.
    pub answers_retained: usize,
    /// Per-constant candidate lists dropped (any dirty concept can
    /// reshuffle every list).
    pub candidates_dropped: usize,
    /// Per-constant candidate lists that survived.
    pub candidates_retained: usize,
    /// Conflict bitsets dropped (answer set died or concept dirty).
    pub conflicts_dropped: usize,
    /// Conflict bitsets that survived (they are value-semantic — safe
    /// across generation bumps).
    pub conflicts_retained: usize,
    /// Lub-engine column sets dropped (their relation changed).
    pub lub_columns_dropped: usize,
    /// Lub-engine column sets retained (id-remapped across a bump).
    pub lub_columns_retained: usize,
}

impl DeltaStats {
    /// Total cache entries the delta invalidated: everything dropped,
    /// re-evaluated, repaired, or recomputed.
    pub fn invalidated(&self) -> usize {
        self.extensions_dropped
            + self.table_reevaluated
            + self.answers_dropped
            + self.answers_patched
            + self.candidates_dropped
            + self.conflicts_dropped
            + self.lub_columns_dropped
    }

    /// Total cache entries that survived the delta intact (possibly
    /// bit-remapped into a new pool generation, never re-evaluated).
    pub fn retained(&self) -> usize {
        self.extensions_retained
            + self.table_retained
            + self.answers_retained
            + self.candidates_retained
            + self.conflicts_retained
            + self.lub_columns_retained
    }
}

/// Per-cache entry budgets for a session's memo caches — the knob a
/// long-running service (see `whynot-server`) turns to bound memory.
///
/// The default is [`unlimited`](CacheBudget::unlimited): no cache ever
/// evicts. A finite budget caps the entry count; inserting past the cap
/// evicts the least-recently-used entry first (recency stamps are
/// unique, so the victim is deterministic). A budget of 0 disables the
/// cache entirely — every probe recomputes, answers stay correct, the
/// session just loses its reuse advantage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheBudget {
    /// Max cached answer sets (`cached_queries` in [`SessionStats`]).
    /// Evicting one cascades: the conflict entries keyed by its serial
    /// are purged with it.
    pub answers: usize,
    /// Max per-constant candidate index lists.
    pub candidates: usize,
    /// Max Algorithm 1 conflict bitsets.
    pub conflicts: usize,
}

impl CacheBudget {
    /// No limits: the default.
    pub const fn unlimited() -> Self {
        CacheBudget::uniform(usize::MAX)
    }

    /// The same entry cap on every cache.
    pub const fn uniform(n: usize) -> Self {
        CacheBudget {
            answers: n,
            candidates: n,
            conflicts: n,
        }
    }
}

impl Default for CacheBudget {
    fn default() -> Self {
        CacheBudget::unlimited()
    }
}

/// How many entries each cache has evicted to stay inside its
/// [`CacheBudget`] (see [`WhyNotSession::evictions`]). Entries dropped
/// because a delta invalidated them are counted by [`DeltaStats`], not
/// here — eviction is purely a memory-pressure event.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EvictionStats {
    /// Answer sets evicted.
    pub answers: usize,
    /// Candidate index lists evicted.
    pub candidates: usize,
    /// Conflict bitsets evicted (including cascade purges).
    pub conflicts: usize,
}

impl EvictionStats {
    /// Total entries evicted across every cache.
    pub fn total(&self) -> usize {
        self.answers + self.candidates + self.conflicts
    }
}

/// A cached answer set: its rows, the serial they were cached under
/// (unique for the session's lifetime, renewed by a patch), and how far
/// they have caught up with the session's deltas. Rows waiting for a
/// patch stay over the pool they were computed in.
#[derive(Clone)]
struct CachedAnswers {
    rows: Arc<AnswerRows>,
    serial: u64,
    /// The epoch the rows reflect: the journal holds the changes since.
    epoch: u64,
    /// The journal's rows over the query's relations past `epoch`.
    pending: usize,
}

/// A why-not service over one pinned `(ontology, instance)` pair.
///
/// See the [module docs](self) for the cache inventory and an example.
/// Methods that run Algorithm 1 / CHECK-MGE / the `>card` searches
/// require [`FiniteOntology`]; Algorithm 2 and its MGE check (which work
/// w.r.t. the instance-derived ontology `OI`) are available for any
/// ontology type.
pub struct WhyNotSession<'a, O: Ontology> {
    schema: &'a Schema,
    ctx: EvalContext<'a, O>,
    /// The concept list and its one-pass extension table (finite
    /// ontologies only), built on first use.
    finite: OnceCell<(Vec<O::Concept>, ExtensionTable)>,
    /// Candidate concept indices keyed by position constant (`Arc` so a
    /// hit is a pointer clone).
    candidates: RefCell<Memo<Value, Arc<Vec<usize>>>>,
    /// Answer sets as sorted pool-id rows, keyed by query, each with its
    /// serial and epoch.
    answers: RefCell<Memo<Ucq, CachedAnswers>>,
    /// The last answer serial handed out; serials are never reused.
    serials: Cell<u64>,
    /// Effective (not no-op) deltas applied so far: the epoch of the
    /// pinned instance.
    epoch: u64,
    /// Per relation, each effective delta's net change to it, with the
    /// delta's epoch — kept while a cached answer set over the relation
    /// has yet to fold it in.
    journal: BTreeMap<RelId, Vec<(u64, NetChange)>>,
    /// Algorithm 1 conflict bitsets (with their popcounts) keyed by
    /// `(answer serial, position, concept index)`. A candidate's conflict
    /// bits depend on the query's answers and the concept — *not* on
    /// the missing tuple — so questions sharing a query reuse them
    /// wholesale; the per-question work drops to a cache probe and a
    /// pointer clone per surviving candidate. Entries die with their
    /// answer set (evicted or dropped by a delta).
    conflicts: RefCell<Memo<(u64, usize, usize), ConflictBits>>,
    /// The pooled lub engine: one id image per relation, which answer
    /// sets are evaluated over, and the lub columns read off the images
    /// that every growth probe runs through — each interned once for the
    /// whole session (until a delta changes the relation).
    lub_engine: OnceCell<LubEngine<'a>>,
    /// Entry budgets for the three memos above.
    budget: CacheBudget,
    questions: Cell<usize>,
    /// Delta accounting: calls accepted, entries invalidated, entries
    /// retained (summed over calls; see [`DeltaStats`]).
    deltas: Cell<usize>,
    delta_invalidated: Cell<usize>,
    delta_retained: Cell<usize>,
}

impl<'a, O: Ontology> WhyNotSession<'a, O> {
    /// Opens a session over `(ontology, instance)`. Construction interns
    /// `adom(I)` into the shared pool (one instance sweep); everything
    /// else — extensions, answer sets, candidates, lubs — is computed
    /// lazily as questions arrive.
    ///
    /// The memo caches live as long as the session. Long-lived services
    /// bound them with [`set_cache_budget`](WhyNotSession::set_cache_budget)
    /// (LRU eviction) or recycle sessions periodically —
    /// [`stats`](WhyNotSession::stats) exposes the cache sizes.
    ///
    /// The instance is snapshotted (cheaply — instances share interned
    /// storage), so its borrow ends with this call; only the ontology
    /// and schema must outlive the session.
    pub fn new(ontology: &'a O, schema: &'a Schema, instance: &Instance) -> Self {
        WhyNotSession {
            schema,
            ctx: EvalContext::new(ontology, instance),
            finite: OnceCell::new(),
            candidates: RefCell::new(Memo::new()),
            answers: RefCell::new(Memo::new()),
            serials: Cell::new(0),
            epoch: 0,
            journal: BTreeMap::new(),
            conflicts: RefCell::new(Memo::new()),
            lub_engine: OnceCell::new(),
            budget: CacheBudget::unlimited(),
            questions: Cell::new(0),
            deltas: Cell::new(0),
            delta_invalidated: Cell::new(0),
            delta_retained: Cell::new(0),
        }
    }

    /// Sets the per-cache entry budgets and trims every cache down to
    /// them immediately, least-recently-used entries first (trimmed
    /// entries are counted in [`evictions`](WhyNotSession::evictions)).
    /// The default is [`CacheBudget::unlimited`]; a budget of 0 disables
    /// a cache without affecting answers.
    pub fn set_cache_budget(&mut self, budget: CacheBudget) {
        self.budget = budget;
        let evicted = self.answers.get_mut().set_budget(budget.answers);
        self.purge_conflicts_of(evicted);
        self.candidates.get_mut().set_budget(budget.candidates);
        self.conflicts.get_mut().set_budget(budget.conflicts);
    }

    /// The session's current [`CacheBudget`].
    pub fn cache_budget(&self) -> CacheBudget {
        self.budget
    }

    /// Per-cache counts of LRU evictions under the budget (all zero for
    /// the unlimited default).
    pub fn evictions(&self) -> EvictionStats {
        EvictionStats {
            answers: self.answers.borrow().evicted(),
            candidates: self.candidates.borrow().evicted(),
            conflicts: self.conflicts.borrow().evicted(),
        }
    }

    /// The eviction cascade: purges the conflict bitsets keyed by the
    /// serials of evicted answer sets.
    fn purge_conflicts_of(&self, evicted: Vec<CachedAnswers>) {
        let mut conflicts = self.conflicts.borrow_mut();
        for CachedAnswers { serial, .. } in evicted {
            conflicts.evict_where(|&(s, _, _)| s == serial);
        }
    }

    /// The pinned ontology.
    pub fn ontology(&self) -> &'a O {
        self.ctx.ontology()
    }

    /// The pinned schema.
    pub fn schema(&self) -> &'a Schema {
        self.schema
    }

    /// The pinned instance (the latest snapshot after any
    /// [`apply_delta`](WhyNotSession::apply_delta) calls).
    pub fn instance(&self) -> &Instance {
        self.ctx.instance()
    }

    /// The shared pool every cached extension is interned into (`adom(I)`;
    /// out-of-domain constants are handled exactly via the extensions'
    /// overflow sets).
    pub fn pool(&self) -> &Arc<ConstPool> {
        self.ctx.pool()
    }

    /// How many times the wrapped ontology's extension function has run —
    /// the batch-level eval-once contract bounds this by the number of
    /// concepts, no matter how many questions the session has answered.
    pub fn evaluations(&self) -> usize {
        self.ctx.evaluations()
    }

    /// Questions successfully bound so far.
    pub fn questions_answered(&self) -> usize {
        self.questions.get()
    }

    /// A snapshot of the session's usage counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            questions: self.questions.get(),
            evaluations: self.ctx.evaluations(),
            cached_queries: self.answers.borrow().len(),
            cached_candidates: self.candidates.borrow().len(),
            cached_conflicts: self.conflicts.borrow().len(),
            cached_lubs: 0,
            cached_ls_extensions: 0,
            cached_contrasts: 0,
            cache_evictions: self.evictions().total(),
            lub_column_builds: self.lub_engine.get().map_or(0, LubEngine::column_builds),
            batches: 0,
            batch_questions: 0,
            deltas: self.deltas.get(),
            delta_invalidated: self.delta_invalidated.get(),
            delta_retained: self.delta_retained.get(),
            pool_generation: self.ctx.generation(),
        }
    }

    /// Applies a tuple-level [`Delta`] to the pinned instance **in
    /// place**, invalidating only the cache entries the changed relations
    /// can actually affect. Everything else — unrelated extensions,
    /// answer sets, conflict bitsets, interned columns — survives, so a
    /// long-lived session absorbs mutations without restarting from cold
    /// caches.
    ///
    /// Invalidation is keyed on the delta's *effective* change set (a
    /// mutation that cancels out touches nothing) intersected with each
    /// cache entry's relation footprint: the ontology's
    /// [`signature`](Ontology::signature) for concept extensions, the
    /// query's atoms for answer sets, changed relations for the lub
    /// engine's columns. Answer sets and id images over a changed
    /// relation are not dropped but repaired: the delta's net change is
    /// journaled, and each is patched with it on its next access, so the
    /// call itself does work in the size of the delta (plus one pass
    /// over the caches' keys). Constants never seen before trigger a
    /// [`ConstPool`] generation bump; retained interned caches are then
    /// bridged with one bit-remap each, never re-evaluated.
    ///
    /// A malformed delta (unknown relation, arity mismatch) is rejected
    /// with [`SessionError::Invalid`] before anything is touched.
    ///
    /// # Examples
    ///
    /// ```
    /// use whynot_core::{ExplicitOntology, SessionError, WhyNotQuestion, WhyNotSession};
    /// use whynot_relation::{Atom, Cq, Delta, Instance, SchemaBuilder, Term, Ucq, Value, Var};
    ///
    /// let ontology = ExplicitOntology::builder()
    ///     .concept("City", ["Amsterdam", "Berlin", "New York"])
    ///     .concept("European-City", ["Amsterdam", "Berlin"])
    ///     .concept("US-City", ["New York"])
    ///     .edge("European-City", "City")
    ///     .edge("US-City", "City")
    ///     .build();
    /// let mut b = SchemaBuilder::new();
    /// let tc = b.relation("TC", ["from", "to"]);
    /// let schema = b.finish().unwrap();
    /// let mut instance = Instance::new();
    /// instance.insert(tc, vec![Value::str("Amsterdam"), Value::str("Berlin")]);
    ///
    /// let mut session = WhyNotSession::new(&ontology, &schema, &instance);
    /// let q = Ucq::single(Cq::new(
    ///     [Term::Var(Var(0)), Term::Var(Var(1))],
    ///     [Atom::new(tc, [Term::Var(Var(0)), Term::Var(Var(1))])],
    ///     [],
    /// ));
    /// // "Why is there no train from New York to Amsterdam?"
    /// let question = WhyNotQuestion::new(q, [Value::str("New York"), Value::str("Amsterdam")]);
    /// assert!(!session.exhaustive(&question)?.is_empty());
    ///
    /// // Insert the missing connection live: the very next question sees it.
    /// let mut delta = Delta::new();
    /// delta.insert(tc, vec![Value::str("New York"), Value::str("Amsterdam")]);
    /// let stats = session.apply_delta(&delta)?;
    /// assert_eq!(stats.facts_inserted, 1);
    /// // The query's answer set is patched on its next access (it reads
    /// // TC) …
    /// assert_eq!(stats.answers_patched, 1);
    /// // … but the explicit ontology's extensions are instance-independent
    /// // and all survived.
    /// assert_eq!(stats.extensions_dropped, 0);
    /// assert!(matches!(
    ///     session.exhaustive(&question),
    ///     Err(SessionError::TupleIsAnswer(_))
    /// ));
    /// # Ok::<(), SessionError>(())
    /// ```
    pub fn apply_delta(&mut self, delta: &Delta) -> Result<DeltaStats, SessionError> {
        delta.check(self.schema)?;
        let outcome = self.instance().apply_delta(delta);
        self.deltas.set(self.deltas.get() + 1);
        if outcome.is_noop() {
            return Ok(DeltaStats::default());
        }
        let changed = &outcome.changed;
        let mut stats = DeltaStats {
            changed_relations: changed.len(),
            facts_inserted: outcome.inserted,
            facts_deleted: outcome.deleted,
            ..DeltaStats::default()
        };

        // 1. The evaluation context: per-concept extension memo and pool
        // generation.
        let ctx_delta = self.ctx.apply_delta(
            &outcome.instance,
            changed,
            outcome.inserted_constants.iter().cloned(),
        );
        let map = ctx_delta.map;
        stats.generation_bumped = map.is_some();
        stats.extensions_dropped = ctx_delta.extensions_dropped;
        stats.extensions_retained = ctx_delta.extensions_retained;
        let pool = Arc::clone(self.ctx.pool());

        // 2. The finite index: re-evaluate only dirty entries, bridge the
        // clean ones across the (possible) generation bump.
        let mut dirty: Vec<bool> = Vec::new();
        if let Some((concepts, table)) = self.finite.take() {
            dirty = concepts
                .iter()
                .map(|c| self.ontology().signature(c).intersects(changed))
                .collect();
            let (table, reevaluated, retained) =
                table.refreshed(Arc::clone(&pool), map.as_ref(), &dirty, |i| {
                    self.ctx.extension(&concepts[i])
                });
            stats.table_reevaluated = reevaluated;
            stats.table_retained = retained;
            self.finite
                .set((concepts, table))
                // lint: allow(no-panic-in-lib) — the cell was emptied by the
                // `take()` this branch is guarded on, so `set` cannot fail.
                .expect("finite cell was taken");
        }
        let any_concept_dirty = dirty.iter().any(|&d| d);

        // 3. Candidate lists: membership of *any* dirty concept can
        // reshuffle every per-constant list.
        (stats.candidates_dropped, stats.candidates_retained) =
            self.candidates.get_mut().retain(|_, _| !any_concept_dirty);

        // 4. Answer sets: the queries that read a changed relation keep
        // their rows for a patch on their next access, unless their
        // pending changes now outnumber their relations' rows; the others
        // stay as they are. A generation bump remaps the up-to-date
        // entries' ids (the map keeps value order, so rows keep theirs);
        // an entry waiting for a patch moves to the new pool when patched.
        self.epoch += 1;
        let epoch = self.epoch;
        let instance = self.ctx.instance();
        let mut live: Vec<u64> = Vec::new();
        // Per relation, the oldest epoch an entry still to patch reads it
        // from: the journal keeps the changes past it.
        let mut oldest: BTreeMap<RelId, u64> = BTreeMap::new();
        let mut patched = 0;
        (stats.answers_dropped, stats.answers_retained) =
            self.answers.get_mut().retain(|q, entry| {
                let rels = q.rels();
                let touched: usize = rels
                    .iter()
                    .filter_map(|r| outcome.net.get(r))
                    .map(|c| c.inserted.len() + c.deleted.len())
                    .sum();
                if touched > 0 {
                    entry.pending += touched;
                    let rows: usize = rels.iter().map(|&r| instance.cardinality(r)).sum();
                    if entry.pending > rows {
                        return false;
                    }
                    patched += 1;
                } else {
                    live.push(entry.serial);
                }
                if entry.pending > 0 {
                    for rel in rels {
                        let since = oldest.entry(rel).or_insert(entry.epoch);
                        *since = (*since).min(entry.epoch);
                    }
                    return true;
                }
                entry.epoch = epoch;
                if let Some(map) = &map {
                    entry.rows = Arc::new(
                        entry
                            .rows
                            .remap(&pool, map)
                            // lint: allow(no-panic-in-lib) — generations
                            // only grow, so a PoolMap is total on every
                            // old id.
                            .expect("generation maps are total on old ids"),
                    );
                }
                true
            });
        stats.answers_patched = patched;
        stats.answers_retained -= patched;

        // 5. Conflict bitsets are value-semantic (answer index →
        // membership): they survive generation bumps, and die only with
        // their answer set or their concept.
        live.sort_unstable();
        (stats.conflicts_dropped, stats.conflicts_retained) =
            self.conflicts.get_mut().retain(|(serial, _, k), _| {
                live.binary_search(serial).is_ok() && !dirty.get(*k).copied().unwrap_or(true)
            });

        // 6. The lub engine: changed relations' columns drop and their
        // images wait for a patch, retained ones are id-remapped across a
        // bump, and adom(I) is re-read off the columns on the next growth
        // loop. Nothing else holds lubs: growth states never outlive a
        // call.
        if let Some(engine) = self.lub_engine.get_mut() {
            let repool = map.as_ref().map(|m| (&pool, m));
            (stats.lub_columns_retained, stats.lub_columns_dropped) =
                engine.apply_delta(&outcome.instance, &outcome.net, repool);
        }

        // 7. The journal: this delta's changes join it, and each
        // relation keeps only what an entry still to patch needs.
        for (rel, change) in outcome.net {
            self.journal.entry(rel).or_default().push((epoch, change));
        }
        self.journal.retain(|rel, items| match oldest.get(rel) {
            Some(&since) => {
                items.retain(|(e, _)| *e > since);
                true
            }
            None => false,
        });

        self.delta_invalidated
            .set(self.delta_invalidated.get() + stats.invalidated());
        self.delta_retained
            .set(self.delta_retained.get() + stats.retained());
        Ok(stats)
    }

    /// The session's pooled lub engine, built (empty) on first use; its
    /// column sets share the session pool, so they are interned at most
    /// once per `(rel, attr)` across the whole question stream.
    fn lub_engine(&self) -> &LubEngine<'a> {
        self.lub_engine.get_or_init(|| {
            LubEngine::with_pool(self.schema, self.ctx.instance(), Arc::clone(self.pool()))
        })
    }

    /// The answers `q(I)` as sorted rows of session-pool ids (in `q(I)`'s
    /// tuple order; see [`AnswerRows::tuple`]), evaluated once per
    /// distinct query over the lub engine's id images, from the disjuncts
    /// of the query's [arity](Ucq::arity). Behind an `Arc` (not an `Rc`):
    /// a hit is a pointer clone, and the rows may go to other threads.
    pub fn answers(&self, query: &Ucq) -> Arc<AnswerRows> {
        self.answers_entry(query).0
    }

    /// [`answers`](Self::answers) with the cache's serial for the set
    /// (`None` when the answers cache is disabled). A cached set behind
    /// the session's deltas is patched first, under a new serial.
    fn answers_entry(&self, query: &Ucq) -> (Arc<AnswerRows>, Option<u64>) {
        if let Some(entry) = self.answers.borrow_mut().get_mut(query) {
            if entry.epoch < self.epoch {
                self.patch(query, entry);
                self.debug_check_answers(query, &entry.rows);
            }
            return (Arc::clone(&entry.rows), Some(entry.serial));
        }
        let engine = self.lub_engine();
        let ans = Arc::new(query.eval_ids(engine.pool(), |rel| engine.image(rel)));
        self.debug_check_answers(query, &ans);
        if self.budget.answers == 0 {
            return (ans, None);
        }
        let serial = self.next_serial();
        let evicted = self.answers.borrow_mut().insert(
            query.clone(),
            CachedAnswers {
                rows: Arc::clone(&ans),
                serial,
                epoch: self.epoch,
                pending: 0,
            },
        );
        self.purge_conflicts_of(evicted);
        (ans, Some(serial))
    }

    /// Patches `entry`, `query`'s cached answers, with the journal's
    /// changes since its epoch — in place when nothing else holds the
    /// rows, after moving them to the session pool when a generation
    /// bump left them behind — and gives it a new serial.
    fn patch(&self, query: &Ucq, entry: &mut CachedAnswers) {
        let engine = self.lub_engine();
        let pool = engine.pool();
        if !Arc::ptr_eq(entry.rows.pool(), pool) {
            entry.rows = Arc::new(
                entry
                    .rows
                    .remap(pool, &PoolMap::between(entry.rows.pool(), pool))
                    // lint: allow(no-panic-in-lib) — generations only grow,
                    // so the session pool holds every value of an older one.
                    .expect("generation maps are total on old ids"),
            );
        }
        let rows = Arc::make_mut(&mut entry.rows);
        let changes: BTreeMap<RelId, RowDelta> = query
            .rels()
            .into_iter()
            .filter_map(|rel| {
                let since = self.journal.get(&rel)?;
                let since = since.iter().filter(|(e, _)| *e > entry.epoch);
                let change = RowDelta::of_changes(since.map(|(_, c)| c), pool)
                    // lint: allow(no-panic-in-lib) — every changed row is
                    // in the instance before or after its delta, and the
                    // pool covers both.
                    .expect("the session pool interns every changed row");
                Some((rel, change))
            })
            .collect();
        query.patch_ids(rows, |rel| engine.image(rel), &changes);
        entry.serial = self.next_serial();
        entry.epoch = self.epoch;
        entry.pending = 0;
    }

    /// A fresh answer serial.
    fn next_serial(&self) -> u64 {
        let serial = self.serials.get() + 1;
        self.serials.set(serial);
        serial
    }

    /// Debug builds check id-space answers against value-space
    /// evaluation.
    fn debug_check_answers(&self, query: &Ucq, ans: &AnswerRows) {
        debug_assert!(
            ans.tuples().eq(query
                .eval(self.instance())
                .into_iter()
                .filter(|t| t.len() == ans.arity())),
            "id-space answers disagree with Ucq::eval"
        );
    }

    /// `lub_I(X)` / `lubσ_I(X)` over the pinned instance, computed by the
    /// session's pooled engine (columns interned once per session). The
    /// documented service-boundary behaviour for malformed requests: an
    /// empty support set returns [`SessionError::EmptySupport`] instead
    /// of panicking.
    pub fn lub(&self, kind: LubKind, support: &BTreeSet<Value>) -> Result<LsConcept, SessionError> {
        self.lub_engine()
            .state_of(kind, support)
            .map(|state| state.into_concept())
            .ok_or(SessionError::EmptySupport)
    }

    /// Validates a question and resolves its answer set (from cache when
    /// the query has been seen before).
    fn bind(&self, q: &WhyNotQuestion) -> Result<BoundQuestion, SessionError> {
        q.query.validate(self.schema)?;
        if q.tuple.is_empty() {
            return Err(SessionError::Nullary);
        }
        if q.tuple.len() != q.query.arity() {
            return Err(SessionError::Invalid(RelError::Invalid(format!(
                "why-not tuple has arity {}, query has arity {}",
                q.tuple.len(),
                q.query.arity()
            ))));
        }
        let (ans, serial) = self.answers_entry(&q.query);
        if ans.contains(&q.tuple) {
            return Err(SessionError::TupleIsAnswer(q.tuple.clone()));
        }
        self.questions.set(self.questions.get() + 1);
        Ok(BoundQuestion {
            ans,
            serial,
            tuple: q.tuple.clone(),
        })
    }

    /// Algorithm 2 (INCREMENTAL SEARCH) w.r.t. the instance-derived
    /// ontology `OI`: growth probes through the session's lub engine,
    /// each decided by membership of the blocked set's ids in the grown
    /// state's lub.
    pub fn incremental(
        &self,
        q: &WhyNotQuestion,
        kind: LubKind,
    ) -> Result<Explanation<LsConcept>, SessionError> {
        let bound = self.bind(q)?;
        // The answers are pool ids already, so every explanation check of
        // the search probes bits.
        let ids = bound.ids();
        let engine = self.lub_engine();
        Ok(incremental_search_core(&engine.adom(), &ids, engine, kind))
    }

    /// CHECK-MGE W.R.T. `OI` (Proposition 5.2) through the session's lub
    /// engine; `e`'s own concepts are evaluated directly.
    pub fn check_mge_instance(
        &self,
        q: &WhyNotQuestion,
        e: &Explanation<LsConcept>,
        kind: LubKind,
    ) -> Result<bool, SessionError> {
        let bound = self.bind(q)?;
        let ids = bound.ids();
        let exts: Vec<Extension> = e
            .concepts
            .iter()
            .map(|c| c.extension_in(self.instance(), self.pool()))
            .collect();
        if !exts_form_explanation(&exts, &ids) {
            return Ok(false);
        }
        let engine = self.lub_engine();
        Ok(check_mge_instance_core(
            &engine.adom(),
            &ids,
            &exts,
            engine,
            kind,
        ))
    }

    /// Validates a contrastive question and resolves its answer set
    /// (cached per query) and the foil's row in it.
    fn bind_contrast(&self, q: &ContrastQuestion) -> Result<BoundContrast, SessionError> {
        q.query.validate(self.schema)?;
        let (ans, _) = self.answers_entry(&q.query);
        let foil_row = validate_contrast(&q.query, &q.missing, &q.foil, &ans)?;
        self.questions.set(self.questions.get() + 1);
        Ok(BoundContrast {
            ans,
            foil_row,
            missing: q.missing.clone(),
            foil: q.foil.clone(),
        })
    }

    /// The contrastive answer — per-position difference separators plus
    /// the foil-aligned MGE (see [`ContrastAnswer`]) — with growth probes
    /// through the session's lub engine. The answer set comes from the
    /// session's cache; the answer itself is computed afresh on every
    /// call.
    pub fn contrast(
        &self,
        q: &ContrastQuestion,
        kind: LubKind,
    ) -> Result<Arc<ContrastAnswer>, SessionError> {
        let bound = self.bind_contrast(q)?;
        let engine = self.lub_engine();
        let adom = engine.adom();
        let k = restriction(self.pool(), &adom, &bound.missing);
        let ids = bound.residual();
        Ok(Arc::new(contrast_core(&k, &ids, &bound.foil, engine, kind)))
    }
}

impl<O: FiniteOntology> WhyNotSession<'_, O> {
    /// The concept list and its extension table, built on first use —
    /// this is the one place the session pays the full `ext` sweep, and
    /// it pays it exactly once for the whole question stream.
    fn finite_index(&self) -> &(Vec<O::Concept>, ExtensionTable) {
        self.finite.get_or_init(|| {
            let all = self.ctx.concepts();
            let table = self.ctx.table(&all);
            (all, table)
        })
    }

    /// Candidate concept indices for one position constant, memoized:
    /// which concepts' extensions contain `a`. Depends only on `a` — not
    /// on the query or the rest of the tuple — so the cache carries
    /// across questions.
    fn indices_for(&self, a: &Value) -> Arc<Vec<usize>> {
        if let Some(hit) = self.candidates.borrow_mut().get(a) {
            return hit;
        }
        let (all, table) = self.finite_index();
        let idxs = Arc::new(exhaustive::candidate_indices(table, all.len(), a));
        self.candidates
            .borrow_mut()
            .insert(a.clone(), Arc::clone(&idxs));
        idxs
    }

    /// Concept `k`'s Algorithm 1 conflict bitset (and its popcount) at
    /// position `i` ([`exhaustive::conflict_bits`] over the cached answer
    /// rows, which index the session pool), memoized per `(answer serial,
    /// position, concept)` (see the `conflicts` field docs).
    fn conflict_bits_for(&self, bound: &BoundQuestion, i: usize, k: usize) -> ConflictBits {
        let key = bound.serial.map(|serial| (serial, i, k));
        if let Some(hit) = key.and_then(|key| self.conflicts.borrow_mut().get(&key)) {
            return hit;
        }
        let (_, table) = self.finite_index();
        let entry = exhaustive::conflict_bits(table, &bound.ans, i, k);
        if let Some(key) = key {
            self.conflicts.borrow_mut().insert(key, Arc::clone(&entry));
        }
        entry
    }

    /// Algorithm 1's per-position candidates for a bound question, from
    /// the session caches: candidate index lists (per constant) and
    /// conflict bitsets (per answer set, position, and concept). Steady
    /// state does no probing at all — each candidate costs a cache lookup
    /// and a pointer clone. [`exhaustive::candidates_with`] orders them
    /// exactly as the one-shot path does, so session answers stay
    /// bit-for-bit equal to it. Algorithm 1, the existence search and
    /// both `>card` searches all start here.
    fn cached_candidates(
        &self,
        bound: &BoundQuestion,
    ) -> Option<Vec<exhaustive::Candidates<O::Concept>>> {
        let (all, _) = self.finite_index();
        exhaustive::candidates_with(
            all,
            &bound.tuple,
            |a| self.indices_for(a),
            |i, k| self.conflict_bits_for(bound, i, k),
        )
    }

    /// Algorithm 1 (EXHAUSTIVE SEARCH): all most-general explanations for
    /// the question w.r.t. the pinned finite ontology. The per-position
    /// candidates come from the session's conflict-bit cache (see
    /// [`stats`](WhyNotSession::stats)'s `cached_conflicts`): questions
    /// sharing a query rebuild nothing but a pointer clone per candidate.
    pub fn exhaustive(
        &self,
        q: &WhyNotQuestion,
    ) -> Result<Vec<Explanation<O::Concept>>, SessionError> {
        let bound = self.bind(q)?;
        let Some(candidates) = self.cached_candidates(&bound) else {
            return Ok(Vec::new());
        };
        let found = exhaustive::run_exhaustive(&candidates);
        Ok(exhaustive::retain_most_general(self.ontology(), found))
    }

    /// EXISTENCE-OF-EXPLANATION: one explanation, if any exists.
    pub fn find_explanation(
        &self,
        q: &WhyNotQuestion,
    ) -> Result<Option<Explanation<O::Concept>>, SessionError> {
        let bound = self.bind(q)?;
        let Some(candidates) = self.cached_candidates(&bound) else {
            return Ok(None);
        };
        Ok(exhaustive::run_find_one(&candidates))
    }

    /// Whether any explanation exists for the question.
    pub fn explanation_exists(&self, q: &WhyNotQuestion) -> Result<bool, SessionError> {
        Ok(self.find_explanation(q)?.is_some())
    }

    /// CHECK-MGE (Theorem 5.1(1)): whether `e` is a most-general
    /// explanation for the question.
    pub fn check_mge(
        &self,
        q: &WhyNotQuestion,
        e: &Explanation<O::Concept>,
    ) -> Result<bool, SessionError> {
        let bound = self.bind(q)?;
        // Building the index up front caches every concept's extension —
        // the replacement loop then never evaluates anything fresh.
        let (all, _) = self.finite_index();
        Ok(exhaustive::check_mge_with(&self.ctx, all, &bound.ids(), e))
    }

    /// An exact `>card`-maximal explanation (Proposition 6.4's exponential
    /// reference algorithm) over the session's cached Algorithm 1
    /// candidates; `|ext|` is read from the extension table.
    pub fn card_maximal_exact(
        &self,
        q: &WhyNotQuestion,
    ) -> Result<Option<Explanation<O::Concept>>, SessionError> {
        let bound = self.bind(q)?;
        let Some(candidates) = self.cached_candidates(&bound) else {
            return Ok(None);
        };
        let (_, table) = self.finite_index();
        Ok(variations::run_card_maximal_exact(&candidates, table))
    }

    /// The greedy `>card` heuristic over the session's cached Algorithm 1
    /// candidates.
    pub fn card_maximal_greedy(
        &self,
        q: &WhyNotQuestion,
    ) -> Result<Option<Explanation<O::Concept>>, SessionError> {
        let bound = self.bind(q)?;
        let Some(candidates) = self.cached_candidates(&bound) else {
            return Ok(None);
        };
        let (_, table) = self.finite_index();
        Ok(variations::run_card_maximal_greedy(&candidates, table))
    }

    /// Per-position subsumption-maximal *named* separators: for each
    /// position `i`, every finite-ontology concept `C` with
    /// `foil[i] ∈ ext(C)` and `missing[i] ∉ ext(C)` that no other such
    /// concept strictly extension-subsumes. Equal to the free function
    /// [`crate::ontology_difference`], but read off the session's cached
    /// candidate index: position `i`'s separators are
    /// `indices_for(foil[i]) ∖ indices_for(missing[i])`, a merge of two
    /// sorted lists, filtered against the extension table's entries.
    pub fn contrast_ontology_difference(
        &self,
        q: &ContrastQuestion,
    ) -> Result<Vec<Vec<O::Concept>>, SessionError> {
        let bound = self.bind_contrast(q)?;
        let (all, table) = self.finite_index();
        Ok(bound
            .missing
            .iter()
            .zip(&bound.foil)
            .map(|(a, b)| {
                let excluded = self.indices_for(a);
                let mut excluded = excluded.iter().peekable();
                let separators: Vec<(O::Concept, &Extension)> = self
                    .indices_for(b)
                    .iter()
                    .filter(|&k| {
                        while excluded.next_if(|&x| x < k).is_some() {}
                        excluded.peek() != Some(&k)
                    })
                    .map(|&k| (all[k].clone(), table.get(k)))
                    .collect();
                crate::contrast::retain_ext_maximal(separators)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::{check_mge, exhaustive_search, find_explanation};
    use crate::explicit::ExplicitOntology;
    use crate::incremental::{check_mge_instance, incremental_search_kind};
    use crate::whynot::WhyNotInstance;
    use whynot_relation::{Atom, Cq, SchemaBuilder, Term, Var};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    /// The Figure 3 ontology with the Example 3.4 instance, as a
    /// (ontology, schema, instance) triple the session can pin.
    fn fixture() -> (ExplicitOntology, Schema, Instance, whynot_relation::RelId) {
        let o = ExplicitOntology::builder()
            .concept(
                "City",
                [
                    "Amsterdam",
                    "Berlin",
                    "Rome",
                    "New York",
                    "San Francisco",
                    "Santa Cruz",
                    "Tokyo",
                    "Kyoto",
                ],
            )
            .concept("European-City", ["Amsterdam", "Berlin", "Rome"])
            .concept("Dutch-City", ["Amsterdam"])
            .concept("US-City", ["New York", "San Francisco", "Santa Cruz"])
            .concept("East-Coast-City", ["New York"])
            .concept("West-Coast-City", ["Santa Cruz", "San Francisco"])
            .edge("European-City", "City")
            .edge("Dutch-City", "European-City")
            .edge("US-City", "City")
            .edge("East-Coast-City", "US-City")
            .edge("West-Coast-City", "US-City")
            .build();
        let mut b = SchemaBuilder::new();
        let tc = b.relation("Train-Connections", ["city_from", "city_to"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        for (a, c) in [
            ("Amsterdam", "Berlin"),
            ("Berlin", "Rome"),
            ("Berlin", "Amsterdam"),
            ("New York", "San Francisco"),
            ("San Francisco", "Santa Cruz"),
            ("Tokyo", "Kyoto"),
        ] {
            inst.insert(tc, vec![s(a), s(c)]);
        }
        (o, schema, inst, tc)
    }

    fn two_hop(tc: whynot_relation::RelId) -> Ucq {
        let (x, y, z) = (Var(0), Var(1), Var(2));
        Ucq::single(Cq::new(
            [Term::Var(x), Term::Var(y)],
            [
                Atom::new(tc, [Term::Var(x), Term::Var(z)]),
                Atom::new(tc, [Term::Var(z), Term::Var(y)]),
            ],
            [],
        ))
    }

    fn one_hop(tc: whynot_relation::RelId) -> Ucq {
        let (x, y) = (Var(0), Var(1));
        Ucq::single(Cq::new(
            [Term::Var(x), Term::Var(y)],
            [Atom::new(tc, [Term::Var(x), Term::Var(y)])],
            [],
        ))
    }

    #[test]
    fn session_matches_fresh_contexts_per_question() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let questions = [
            WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]),
            WhyNotQuestion::new(two_hop(tc), [s("Rome"), s("Tokyo")]),
            WhyNotQuestion::new(one_hop(tc), [s("Amsterdam"), s("New York")]),
            WhyNotQuestion::new(one_hop(tc), [s("Kyoto"), s("Amsterdam")]),
        ];
        for q in &questions {
            let fresh = WhyNotInstance::new(
                schema.clone(),
                inst.clone(),
                q.query.clone(),
                q.tuple.clone(),
            )
            .unwrap();
            assert_eq!(
                session.exhaustive(q).unwrap(),
                exhaustive_search(&o, &fresh),
                "exhaustive disagrees on {:?}",
                q.tuple
            );
            assert_eq!(
                session.find_explanation(q).unwrap(),
                find_explanation(&o, &fresh),
                "find_explanation disagrees on {:?}",
                q.tuple
            );
            for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
                let via_session = session.incremental(q, kind).unwrap();
                let via_fresh = incremental_search_kind(&fresh, kind);
                assert_eq!(via_session, via_fresh, "incremental({kind:?}) disagrees");
                assert_eq!(
                    session.check_mge_instance(q, &via_session, kind).unwrap(),
                    check_mge_instance(&fresh, &via_fresh, kind)
                );
            }
        }
    }

    #[test]
    fn batch_eval_once_across_questions() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let tuples = [
            [s("Amsterdam"), s("New York")],
            [s("Rome"), s("Tokyo")],
            [s("Kyoto"), s("Amsterdam")],
            [s("Santa Cruz"), s("Berlin")],
        ];
        for t in &tuples {
            let q = WhyNotQuestion::new(two_hop(tc), t.clone());
            let _ = session.exhaustive(&q).unwrap();
            let _ = session.find_explanation(&q).unwrap();
            let _ = session.card_maximal_greedy(&q).unwrap();
        }
        // 6 concepts, 4 questions, 3 algorithms each — still ≤ 1
        // evaluation per concept in total.
        assert_eq!(session.evaluations(), 6);
        assert_eq!(session.questions_answered(), 12);
        // One distinct query → one cached answer set.
        assert_eq!(session.stats().cached_queries, 1);
    }

    #[test]
    fn lub_columns_are_interned_at_most_once_per_session() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        // Before any lub ran, no columns were built.
        assert_eq!(session.stats().lub_column_builds, 0);
        let tuples = [
            [s("Amsterdam"), s("New York")],
            [s("Rome"), s("Tokyo")],
            [s("Kyoto"), s("Amsterdam")],
            [s("Santa Cruz"), s("Berlin")],
        ];
        for t in &tuples {
            let q = WhyNotQuestion::new(two_hop(tc), t.clone());
            for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
                let e = session.incremental(&q, kind).unwrap();
                let _ = session.check_mge_instance(&q, &e, kind).unwrap();
            }
        }
        // One relation of arity 2: at most 2 column sets, ever — the
        // whole batch of growth probes shares the interned columns.
        let stats = session.stats();
        assert_eq!(stats.lub_column_builds, 2);
        assert_eq!(stats.cached_lubs, 0, "lubs are grown, never memoized");
    }

    #[test]
    fn check_mge_through_the_session() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let q = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]);
        let fresh = WhyNotInstance::new(
            schema.clone(),
            inst.clone(),
            q.query.clone(),
            q.tuple.clone(),
        )
        .unwrap();
        for e in exhaustive_search(&o, &fresh) {
            assert!(session.check_mge(&q, &e).unwrap());
            assert!(check_mge(&o, &fresh, &e));
        }
        let not_mge = Explanation::new([o.concept_expect("Dutch-City"), o.concept_expect("City")]);
        assert_eq!(
            session.check_mge(&q, &not_mge).unwrap(),
            check_mge(&o, &fresh, &not_mge)
        );
    }

    #[test]
    fn malformed_questions_error_and_leave_the_session_usable() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        // Arity mismatch.
        let bad_arity = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam")]);
        assert!(matches!(
            session.exhaustive(&bad_arity),
            Err(SessionError::Invalid(_))
        ));
        // Nullary question.
        let nullary = WhyNotQuestion::new(two_hop(tc), []);
        assert_eq!(session.exhaustive(&nullary), Err(SessionError::Nullary));
        // A tuple that IS an answer.
        let answered = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("Rome")]);
        assert!(matches!(
            session.incremental(&answered, LubKind::SelectionFree),
            Err(SessionError::TupleIsAnswer(_))
        ));
        // Empty-support lub at the service boundary: an error, not a panic.
        assert_eq!(
            session.lub(LubKind::SelectionFree, &BTreeSet::new()),
            Err(SessionError::EmptySupport)
        );
        // None of that poisoned the caches: a well-formed question works.
        let good = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]);
        assert!(!session.exhaustive(&good).unwrap().is_empty());
        // Failed bindings are not counted as answered questions.
        assert_eq!(session.questions_answered(), 1);
    }

    #[test]
    fn out_of_domain_tuple_constants_are_handled_exactly() {
        // The session pool covers adom(I) only; ghost constants flow
        // through the extensions' overflow sets.
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let ghost = WhyNotQuestion::new(two_hop(tc), [s("Gotham"), s("Berlin")]);
        assert!(session.exhaustive(&ghost).unwrap().is_empty());
        assert!(!session.explanation_exists(&ghost).unwrap());
        // Algorithm 2 still succeeds: the nominal {Gotham} explains it.
        let e = session.incremental(&ghost, LubKind::SelectionFree).unwrap();
        let fresh =
            WhyNotInstance::new(schema.clone(), inst.clone(), ghost.query, ghost.tuple).unwrap();
        assert_eq!(e, incremental_search_kind(&fresh, LubKind::SelectionFree));
    }

    /// A contrast question's residual view is the cached answer rows
    /// minus exactly the foil, after every step of a mutation stream
    /// whose ghost constants bump the pool generation. (The answers
    /// themselves and every algorithm are pinned against fresh sessions
    /// at several cache budgets by the `delta_differential` suite.)
    #[test]
    fn contrast_residual_skips_exactly_the_foil() {
        use whynot_scenarios::generators::{city_query_shapes, mutation_stream, MutationStep};
        let w = mutation_stream(18, 3, 36, 1);
        let tc = w.schema.rel_ids().next().unwrap();
        let o = ColumnOntology { rels: vec![tc] };
        let mut session = WhyNotSession::new(&o, &w.schema, &w.instance);
        for step in &w.steps {
            if let MutationStep::Mutate(delta) = step {
                session.apply_delta(delta).unwrap();
            }
            for q in city_query_shapes(tc) {
                let ans: Vec<Tuple> = q.eval(session.instance()).into_iter().collect();
                for foil in ans.iter().step_by(3) {
                    let missing = vec![s("Nowhere"); q.arity()];
                    let cq = ContrastQuestion::new(q.clone(), missing, foil.clone());
                    let bound = session.bind_contrast(&cq).unwrap();
                    let residual = bound.residual();
                    let left: Vec<&Tuple> = ans.iter().filter(|t| *t != foil).collect();
                    assert_eq!(residual.len(), left.len());
                    for (row, t) in residual.rows().zip(left) {
                        assert!(row.iter().zip(t).all(|(&id, v)| bound.ans.value(id) == v));
                    }
                }
            }
        }
        assert!(
            session.stats().pool_generation > 0,
            "ghosts bumped the pool"
        );
    }

    /// A minimal finite ontology with honest per-relation signatures:
    /// one concept per relation, whose extension is that relation's
    /// first column. Lets the delta tests pin *which* caches a mutation
    /// of one relation may touch.
    struct ColumnOntology {
        rels: Vec<whynot_relation::RelId>,
    }

    impl Ontology for ColumnOntology {
        type Concept = whynot_relation::RelId;

        fn subsumed(&self, sub: &Self::Concept, sup: &Self::Concept) -> bool {
            sub == sup
        }

        fn extension(&self, c: &Self::Concept, inst: &Instance) -> Extension {
            Extension::finite(inst.tuples(*c).map(|t| t[0].clone()))
        }

        fn signature(&self, c: &Self::Concept) -> crate::ontology::ConceptSignature {
            crate::ontology::ConceptSignature::Rels([*c].into())
        }
    }

    impl FiniteOntology for ColumnOntology {
        fn concepts(&self) -> Vec<Self::Concept> {
            self.rels.clone()
        }
    }

    /// Two relations with disjoint queries: the playground where a delta
    /// on `R` must leave every `S`-keyed cache entry alone. `R` holds
    /// `{a, b}`; binary `S` holds `{(c, a)}`, so the concept extensions
    /// (first columns) are `{a, b}` and `{c}`.
    fn two_rel_fixture() -> (
        ColumnOntology,
        Schema,
        Instance,
        whynot_relation::RelId,
        whynot_relation::RelId,
    ) {
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["x"]);
        let s_rel = b.relation("S", ["x", "y"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(r, vec![s("a")]);
        inst.insert(r, vec![s("b")]);
        inst.insert(s_rel, vec![s("c"), s("a")]);
        let o = ColumnOntology {
            rels: vec![r, s_rel],
        };
        (o, schema, inst, r, s_rel)
    }

    /// `q(x) :- R(x)` — answers `{a, b}`; asking why-not `c` gives the
    /// `S` concept (extension `{c}`) as a conflict-free candidate.
    fn r_query(rel: whynot_relation::RelId) -> Ucq {
        Ucq::single(Cq::new(
            [Term::Var(Var(0))],
            [Atom::new(rel, [Term::Var(Var(0))])],
            [],
        ))
    }

    /// `q(x) :- S(y, x)` — answers `{a}`; asking why-not `c` again uses
    /// the `S` concept, and its conflict bitset survives `R`-deltas.
    fn s_query(rel: whynot_relation::RelId) -> Ucq {
        Ucq::single(Cq::new(
            [Term::Var(Var(0))],
            [Atom::new(rel, [Term::Var(Var(1)), Term::Var(Var(0))])],
            [],
        ))
    }

    #[test]
    fn delta_invalidates_only_the_changed_relations_caches() {
        let (o, schema, inst, r, s_rel) = two_rel_fixture();
        let mut session = WhyNotSession::new(&o, &schema, &inst);
        // Warm every finite-path cache for both relations.
        let q_r = WhyNotQuestion::new(r_query(r), [s("c")]);
        let q_s = WhyNotQuestion::new(s_query(s_rel), [s("c")]);
        let _ = session.exhaustive(&q_r).unwrap();
        let _ = session.exhaustive(&q_s).unwrap();
        let evals_before = session.evaluations();
        let s_answers_before = session.answers(&q_s.query);

        // Mutate R only, with a constant the pool already holds.
        let mut delta = Delta::new();
        delta.insert(r, vec![s("c")]);
        let stats = session.apply_delta(&delta).unwrap();

        assert!(!stats.generation_bumped);
        assert_eq!(stats.changed_relations, 1);
        // Exactly the R concept was dropped and re-evaluated; S survived.
        assert_eq!(
            (stats.extensions_dropped, stats.extensions_retained),
            (1, 1)
        );
        assert_eq!((stats.table_reevaluated, stats.table_retained), (1, 1));
        // Exactly the R query's answers wait for a patch; none died.
        assert_eq!((stats.answers_patched, stats.answers_retained), (1, 1));
        assert_eq!(stats.answers_dropped, 0);
        // Conflict bitsets keyed by the stale answer set or the dirty
        // concept died; the (S answers, S concept) one survived.
        assert_eq!(stats.conflicts_retained, 1);
        // The S answer set is literally the same allocation.
        assert!(Arc::ptr_eq(&session.answers(&q_s.query), &s_answers_before));
        // Re-evaluation cost: one `ext` call (the R concept), not a sweep.
        assert_eq!(session.evaluations(), evals_before + 1);
        assert_eq!(session.stats().deltas, 1);

        // Parity with a fresh session over the mutated instance — the
        // delta made `c` an answer of the R query, so both sessions must
        // now reject that question identically.
        let now = session.instance().clone();
        let fresh = WhyNotSession::new(&o, &schema, &now);
        assert_eq!(
            session.exhaustive(&q_r),
            Err(SessionError::TupleIsAnswer(vec![s("c")]))
        );
        for q in [&q_r, &q_s] {
            assert_eq!(session.exhaustive(q), fresh.exhaustive(q));
        }
    }

    #[test]
    fn noop_delta_invalidates_nothing() {
        let (o, schema, inst, r, s_rel) = two_rel_fixture();
        let mut session = WhyNotSession::new(&o, &schema, &inst);
        let q_r = WhyNotQuestion::new(r_query(r), [s("c")]);
        let _ = session.exhaustive(&q_r).unwrap();
        let before = session.stats();
        let answers_before = session.answers(&q_r.query);

        let mut delta = Delta::new();
        delta.insert(r, vec![s("a")]); // already present
        delta.delete(s_rel, vec![s("zz"), s("zz")]); // absent
        let stats = session.apply_delta(&delta).unwrap();

        assert_eq!(stats, DeltaStats::default());
        assert_eq!(stats.invalidated(), 0);
        let after = session.stats();
        assert_eq!(after.evaluations, before.evaluations);
        assert_eq!(after.cached_queries, before.cached_queries);
        assert_eq!(after.cached_conflicts, before.cached_conflicts);
        assert_eq!(after.pool_generation, 0);
        assert_eq!(after.deltas, 1);
        assert!(Arc::ptr_eq(&session.answers(&q_r.query), &answers_before));
    }

    #[test]
    fn generation_bump_bridges_retained_caches() {
        let (o, schema, inst, r, s_rel) = two_rel_fixture();
        let mut session = WhyNotSession::new(&o, &schema, &inst);
        let q_r = WhyNotQuestion::new(r_query(r), [s("c")]);
        let q_s = WhyNotQuestion::new(s_query(s_rel), [s("c")]);
        let _ = session.exhaustive(&q_r).unwrap();
        let _ = session.exhaustive(&q_s).unwrap();
        // An S query whose head constant is outside the pool: its answer
        // rows carry an overflow id until a delta interns the constant.
        let tagged = Ucq::single(Cq::new(
            [Term::Var(Var(0)), Term::Const(s("fresh"))],
            [Atom::new(s_rel, [Term::Var(Var(1)), Term::Var(Var(0))])],
            [],
        ));
        let tagged_rows = session.answers(&tagged);
        assert!(tagged_rows.pooled(tagged_rows.row(0)[1]).is_none());

        // A brand-new constant lands in R: the pool grows a generation.
        let mut delta = Delta::new();
        delta.insert(r, vec![s("fresh")]);
        let stats = session.apply_delta(&delta).unwrap();

        assert!(stats.generation_bumped);
        assert_eq!(session.stats().pool_generation, 1);
        // The S extension was bridged, not re-evaluated …
        assert_eq!(stats.extensions_retained, 1);
        assert_eq!(stats.table_reevaluated, 1);
        // … the S answer rows were remapped into the new generation, not
        // re-evaluated, and the tagged rows' overflow constant became a
        // pool id; the R rows wait for a patch …
        assert_eq!((stats.answers_patched, stats.answers_retained), (1, 2));
        assert_eq!(stats.answers_dropped, 0);
        assert!(Arc::ptr_eq(
            session.answers(&q_s.query).pool(),
            session.pool()
        ));
        let tagged_rows = session.answers(&tagged);
        assert!(tagged_rows.pooled(tagged_rows.row(0)[1]).is_some());
        assert_eq!(tagged_rows.to_set(), tagged.eval(session.instance()));
        // Conflict bits are value-semantic: the S entry survived the bump.
        assert_eq!(stats.conflicts_retained, 1);
        assert!(session.pool().contains(&s("fresh")));

        let now = session.instance().clone();
        let fresh = WhyNotSession::new(&o, &schema, &now);
        for q in [&q_r, &q_s] {
            assert_eq!(session.exhaustive(q).unwrap(), fresh.exhaustive(q).unwrap());
        }
        // The bridged caches answer later questions without extra evals.
        let fresh_q = WhyNotQuestion::new(s_query(s_rel), [s("fresh")]);
        assert_eq!(
            session.exhaustive(&fresh_q).unwrap(),
            fresh.exhaustive(&fresh_q).unwrap()
        );
    }

    #[test]
    fn delta_regrows_lubs_from_fresh_columns() {
        let (o, schema, inst, tc) = fixture();
        let mut session = WhyNotSession::new(&o, &schema, &inst);
        let q = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]);
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let _ = session.incremental(&q, kind).unwrap();
        }
        assert_eq!(session.stats().cached_lubs, 0);

        let mut delta = Delta::new();
        delta.insert(tc, vec![s("Kyoto"), s("Tokyo")]);
        let stats = session.apply_delta(&delta).unwrap();
        // No lub memo to repair: only the engine's columns for the one
        // changed relation were dropped.
        assert_eq!(stats.lub_columns_retained, 0);
        assert_eq!(stats.lub_columns_dropped, 2);

        // Every lub grown afterwards equals what a cold engine computes.
        let now = session.instance().clone();
        let fresh = WhyNotSession::new(&o, &schema, &now);
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            assert_eq!(
                session.incremental(&q, kind).unwrap(),
                fresh.incremental(&q, kind).unwrap()
            );
            let support: BTreeSet<Value> = [s("Amsterdam"), s("Berlin")].into();
            assert_eq!(
                session.lub(kind, &support).unwrap(),
                fresh.lub(kind, &support).unwrap()
            );
        }
    }

    #[test]
    fn card_maximal_matches_free_functions() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let q = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]);
        let fresh = WhyNotInstance::new(
            schema.clone(),
            inst.clone(),
            q.query.clone(),
            q.tuple.clone(),
        )
        .unwrap();
        assert_eq!(
            session.card_maximal_exact(&q).unwrap(),
            crate::variations::card_maximal_exact(&o, &fresh)
        );
        assert_eq!(
            session.card_maximal_greedy(&q).unwrap(),
            crate::variations::card_maximal_greedy(&o, &fresh)
        );
    }

    /// A cache budget of 0 disables every cache but changes no answer:
    /// the acceptance bar for the server's memory bounding. Covers a
    /// mid-stream delta, so the budget interacts with invalidation too.
    #[test]
    fn zero_budget_still_answers_correctly() {
        let (o, schema, inst, tc) = fixture();
        let mut reference = WhyNotSession::new(&o, &schema, &inst);
        let mut capped = WhyNotSession::new(&o, &schema, &inst);
        capped.set_cache_budget(CacheBudget::uniform(0));
        let questions = [
            WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]),
            WhyNotQuestion::new(two_hop(tc), [s("Rome"), s("Tokyo")]),
            WhyNotQuestion::new(one_hop(tc), [s("Kyoto"), s("Amsterdam")]),
            WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("Rome")]), // is an answer
        ];
        let mut delta = Delta::new();
        delta.insert(tc, vec![s("Kyoto"), s("Tokyo")]);
        for stage in 0..2 {
            if stage == 1 {
                reference.apply_delta(&delta).unwrap();
                capped.apply_delta(&delta).unwrap();
            }
            for q in &questions {
                assert_eq!(reference.exhaustive(q), capped.exhaustive(q));
                assert_eq!(reference.find_explanation(q), capped.find_explanation(q));
                assert_eq!(
                    reference.incremental(q, LubKind::SelectionFree),
                    capped.incremental(q, LubKind::SelectionFree)
                );
                assert_eq!(
                    reference.incremental(q, LubKind::WithSelections),
                    capped.incremental(q, LubKind::WithSelections)
                );
                assert_eq!(
                    reference.card_maximal_exact(q),
                    capped.card_maximal_exact(q)
                );
                assert_eq!(
                    reference.card_maximal_greedy(q),
                    capped.card_maximal_greedy(q)
                );
            }
        }
        // Every cache stayed empty the whole run.
        let stats = capped.stats();
        assert_eq!(stats.cached_queries, 0);
        assert_eq!(stats.cached_candidates, 0);
        assert_eq!(stats.cached_conflicts, 0);
        assert_eq!(stats.cached_lubs, 0);
        assert_eq!(stats.cached_ls_extensions, 0);
    }

    /// Finite budgets bound every cache, evict LRU-first, and count
    /// evictions; answers stay identical to an unlimited session.
    #[test]
    fn lru_eviction_bounds_caches_and_counts() {
        let (o, schema, inst, tc) = fixture();
        let reference = WhyNotSession::new(&o, &schema, &inst);
        let mut capped = WhyNotSession::new(&o, &schema, &inst);
        capped.set_cache_budget(CacheBudget::uniform(2));
        let tuples = [
            [s("Amsterdam"), s("New York")],
            [s("Rome"), s("Tokyo")],
            [s("Kyoto"), s("Amsterdam")],
            [s("Berlin"), s("Kyoto")],
            [s("Santa Cruz"), s("Berlin")],
        ];
        for t in &tuples {
            let q2 = WhyNotQuestion::new(two_hop(tc), t.clone());
            let q1 = WhyNotQuestion::new(one_hop(tc), t.clone());
            assert_eq!(reference.exhaustive(&q2), capped.exhaustive(&q2));
            assert_eq!(reference.exhaustive(&q1), capped.exhaustive(&q1));
            assert_eq!(
                reference.find_explanation(&q2),
                capped.find_explanation(&q2)
            );
            assert_eq!(
                reference.find_explanation(&q1),
                capped.find_explanation(&q1)
            );
            assert_eq!(
                reference.incremental(&q2, LubKind::SelectionFree),
                capped.incremental(&q2, LubKind::SelectionFree)
            );
        }
        let stats = capped.stats();
        assert!(stats.cached_queries <= 2);
        assert!(stats.cached_candidates <= 2);
        assert!(stats.cached_conflicts <= 2);
        assert_eq!(stats.cached_lubs, 0, "lubs are never memoized");
        assert_eq!(
            stats.cached_ls_extensions, 0,
            "growth states carry their extensions"
        );
        let ev = capped.evictions();
        assert!(ev.candidates > 0, "5 distinct constants through budget 2");
        assert_eq!(stats.cache_evictions, ev.total());
        assert!(stats.cache_evictions > 0);
        // The unlimited reference evicted nothing.
        assert_eq!(reference.stats().cache_evictions, 0);
        assert_eq!(reference.evictions(), EvictionStats::default());
    }

    /// Recency is honoured: touching an entry saves it from eviction,
    /// and cached answer sets keep their identity across hits.
    #[test]
    fn lru_eviction_prefers_least_recently_used() {
        let (o, schema, inst, tc) = fixture();
        let mut session = WhyNotSession::new(&o, &schema, &inst);
        session.set_cache_budget(CacheBudget {
            answers: 2,
            ..CacheBudget::unlimited()
        });
        let q_two = two_hop(tc);
        let q_one = one_hop(tc);
        let three = Ucq::single(Cq::new(
            [Term::Var(Var(0)), Term::Var(Var(1))],
            [
                Atom::new(tc, [Term::Var(Var(0)), Term::Var(Var(2))]),
                Atom::new(tc, [Term::Var(Var(2)), Term::Var(Var(3))]),
                Atom::new(tc, [Term::Var(Var(3)), Term::Var(Var(1))]),
            ],
            [],
        ));
        let a_two = session.answers(&q_two);
        let _a_one = session.answers(&q_one);
        // Touch `q_two`: `q_one` becomes the LRU entry.
        assert!(Arc::ptr_eq(&session.answers(&q_two), &a_two));
        // Inserting a third answer set evicts `q_one`, not `q_two`.
        let _ = session.answers(&three);
        assert_eq!(session.evictions().answers, 1);
        assert!(
            Arc::ptr_eq(&session.answers(&q_two), &a_two),
            "recently-touched entry survived"
        );
        assert_eq!(session.stats().cached_queries, 2);
    }

    /// `set_cache_budget` trims a warm session immediately, and the
    /// cascade purges serial-keyed entries with their answer set.
    #[test]
    fn set_budget_trims_warm_session() {
        let (o, schema, inst, tc) = fixture();
        let mut session = WhyNotSession::new(&o, &schema, &inst);
        for t in [
            [s("Amsterdam"), s("New York")],
            [s("Rome"), s("Tokyo")],
            [s("Kyoto"), s("Amsterdam")],
        ] {
            let q = WhyNotQuestion::new(two_hop(tc), t.clone());
            session.exhaustive(&q).unwrap();
            let q = WhyNotQuestion::new(one_hop(tc), t);
            session.exhaustive(&q).unwrap();
            session
                .incremental(
                    &WhyNotQuestion::new(two_hop(tc), [s("Berlin"), s("Kyoto")]),
                    LubKind::WithSelections,
                )
                .unwrap();
        }
        let warm = session.stats();
        assert!(warm.cached_queries >= 2);
        assert!(warm.cached_conflicts > 1);
        session.set_cache_budget(CacheBudget::uniform(1));
        let trimmed = session.stats();
        assert!(trimmed.cached_queries <= 1);
        assert!(trimmed.cached_candidates <= 1);
        assert!(trimmed.cached_conflicts <= 1);
        assert_eq!(warm.cached_ls_extensions, 0);
        assert_eq!(trimmed.cached_ls_extensions, 0);
        assert!(session.evictions().total() > 0);
        // Still answers correctly after the trim.
        let fresh = WhyNotSession::new(&o, &schema, &inst);
        let q = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]);
        assert_eq!(fresh.exhaustive(&q), session.exhaustive(&q));
    }

    /// Evicting an answer set purges exactly the conflict bitsets keyed
    /// by its serial, and counts them as conflict evictions.
    #[test]
    fn answer_eviction_purges_its_conflict_bitsets() {
        let (o, schema, inst, tc) = fixture();
        let first = WhyNotQuestion::new(two_hop(tc), [s("Amsterdam"), s("New York")]);
        let second = WhyNotQuestion::new(one_hop(tc), [s("Kyoto"), s("Amsterdam")]);
        // Each query's own conflict entries, counted in a session of its own.
        let own = |q: &WhyNotQuestion| {
            let alone = WhyNotSession::new(&o, &schema, &inst);
            alone.exhaustive(q).unwrap();
            alone.stats().cached_conflicts
        };
        let (first_own, second_own) = (own(&first), own(&second));
        assert!(first_own > 0 && second_own > 0);

        let mut session = WhyNotSession::new(&o, &schema, &inst);
        session.set_cache_budget(CacheBudget {
            answers: 1,
            ..CacheBudget::unlimited()
        });
        session.exhaustive(&first).unwrap();
        assert_eq!(session.stats().cached_conflicts, first_own);
        session.exhaustive(&second).unwrap();
        assert_eq!(session.evictions().answers, 1);
        assert_eq!(session.stats().cached_conflicts, second_own);
        assert_eq!(session.evictions().conflicts, first_own);
    }

    /// The paper-style contrast pair over the two-hop query: reachable
    /// `(Amsterdam, Rome)` answers while `(Amsterdam, New York)` does
    /// not.
    fn contrast_pair(tc: whynot_relation::RelId) -> ContrastQuestion {
        ContrastQuestion::new(
            two_hop(tc),
            [s("Amsterdam"), s("New York")],
            [s("Amsterdam"), s("Rome")],
        )
    }

    /// Session contrast ≡ the one-shot free function for both lub kinds.
    #[test]
    fn contrast_matches_one_shot() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let q = contrast_pair(tc);
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let via_session = session.contrast(&q, kind).unwrap();
            let one_shot = crate::contrast::contrast_instance(&schema, &inst, &q, kind).unwrap();
            assert_eq!(*via_session, one_shot, "contrast({kind:?}) disagrees");
        }
        // Validation errors surface through the session path too.
        let bad = ContrastQuestion::new(
            two_hop(tc),
            [s("Amsterdam"), s("New York")],
            [s("Tokyo"), s("Berlin")],
        );
        assert!(matches!(
            session.contrast(&bad, LubKind::SelectionFree),
            Err(SessionError::FoilNotAnswer(_))
        ));
    }

    /// The bitset-backed session ontology difference ≡ the free
    /// function's direct extension scan.
    #[test]
    fn contrast_ontology_difference_matches_free_function() {
        let (o, schema, inst, tc) = fixture();
        let session = WhyNotSession::new(&o, &schema, &inst);
        let q = contrast_pair(tc);
        let via_session = session.contrast_ontology_difference(&q).unwrap();
        let free = crate::contrast::ontology_difference(&o, &inst, &q.missing, &q.foil);
        assert_eq!(via_session, free);
        // Position 1 separates Rome from New York: European-City is the
        // unique maximal named separator.
        assert_eq!(via_session[1].len(), 1);
        assert_eq!(format!("{}", via_session[1][0]), "European-City");
    }
}
