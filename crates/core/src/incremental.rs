//! Algorithm 2 — INCREMENTAL SEARCH (paper §5.2): computing one
//! most-general explanation w.r.t. the instance-derived ontology `OI`
//! without materializing it.
//!
//! The algorithm maintains a *support set* `Xj` per position, starting at
//! the singleton `{aj}`, and repeatedly tries to grow it by one active-
//! domain constant; the candidate concept is always `lub_I(Xj)` — the
//! least concept containing the support set — so accepting a growth step
//! can only generalize. [`incremental_search`] works in selection-free
//! `LS` (Theorem 5.3: PTIME); [`incremental_search_with_selections`] uses
//! `lubσ` (Theorem 5.4: EXPTIME, PTIME for bounded schema arity).
//!
//! [`check_mge_instance`] is the CHECK-MGE W.R.T. `OI` procedure
//! (Proposition 5.2), built from the same growth probes.
//!
//! Every position carries a [`LubState`] from a pooled
//! [`LubEngine`](whynot_concepts::LubEngine) sharing the search's
//! `ConstPool`, and each probe *grows* that state by one constant
//! (Lemmas 5.1/5.2): a probe costs one growth step — O(1) lubs — rather
//! than a lub recomputed from the whole support, and the `(rel, attr)`
//! columns behind the steps are interned once per run.
//!
//! A probe stays in id space end to end. The growth constants are
//! `adom(I)` as ascending pool ids, read off the engine's column bits
//! ([`LubEngine::adom`](whynot_concepts::LubEngine::adom)), and the
//! question's answers are resolved to pool ids once ([`AnswerIds`]).
//!
//! **The blocked-set check.** While the loop grows position `j`, every
//! other position stays fixed. So Definition 3.2 for a candidate `E` at
//! `j` factors into one set per position (a [`BlockedSet`]):
//! `B_j = {t[j] : t ∈ Ans, t[k] ∈ ext(C_k) for all k ≠ j}`, built once
//! per position in `O(|Ans|·m)`. Supports grow monotonically from
//! `{a_j}`, so `a_j ∈ E` always holds, and the candidate is accepted iff
//! `E ∩ B_j = ∅`. A constant of `B_j` is skipped without a growth step:
//! every lub containing it is rejected. CHECK-MGE replaces one position
//! at a time, so it decides its probes the same way.
//!
//! **Membership, not extensions.** A grown state answers "is `c` in my
//! lub?" from its growth data ([`LubState::contains_id`]), and "is `b`
//! already in the lub?" is the same test. Neither builds the candidate's
//! extension.
//!
//! * Selection-free (Lemma 5.1): the growth data is a column mask. The
//!   lub of two or more constants is the conjunction of the projections
//!   `π_A(R)` that hold all of them, so the state keeps the mask of those
//!   columns, the AND of its support's column signatures
//!   ([`LubState::column_signature`]). A step is a word AND, and `c` is
//!   in the lub iff `sig(c) ⊇ mask`. Because a constant acts only through
//!   its signature, a per-position memo of rejected signatures
//!   ([`Rejected`], whose docs give the dominance argument) skips every
//!   later probe whose signature a rejected one contains: each class of
//!   constants is grown and judged at most once.
//! * With selections (Lemma 5.2): a probe is rejected at the first
//!   member of `B_j` whose witness row lies inside every box of its lub.
//!   Per box, the witness rows of all of `B_j`'s members are at most the
//!   relation's rows, so a verdict costs at most about one extension
//!   build, and a position's skip tests together about one more; most
//!   verdicts stop at a member far sooner.
//!
//! A position's final state builds its extension only when a later
//! position's blocked set reads it, and its concept is assembled only at
//! the end. States from a provider's recomputing default bodies carry no
//! growth data and no signatures: their concepts are evaluated once per
//! state and probed as extensions ([`Verdicts`] picks the route per
//! candidate), and their loops probe every constant. Debug builds
//! cross-check every verdict, membership ones included, against the full
//! [`exts_form_explanation`] on the built extensions, and grow every
//! probe the memo skips to check that it is rejected.

use crate::whynot::{exts_form_explanation, AnswerIds, BlockedSet, Explanation, WhyNotInstance};
use std::borrow::Borrow;
use std::sync::Arc;
use whynot_concepts::{kernels, Extension, LsConcept, LubEngine, LubKind, LubProvider, LubState};
use whynot_relation::{ConstPool, Instance, Value, ValueId};

/// Algorithm 2 (INCREMENTAL SEARCH): a most-general explanation for the
/// why-not instance w.r.t. `OI` in selection-free `LS` (Theorem 5.3).
///
/// Always succeeds: the nominal-based starting point is an explanation
/// (the trivial explanation always exists in a language with nominals,
/// §5.2).
pub fn incremental_search(wn: &WhyNotInstance) -> Explanation<LsConcept> {
    incremental_search_kind(wn, LubKind::SelectionFree)
}

/// Algorithm 2 with selections (INCREMENTAL SEARCH ALGORITHM WITH
/// SELECTIONS): a most-general explanation w.r.t. `OI` in full `LS`
/// (Theorem 5.4).
pub fn incremental_search_with_selections(wn: &WhyNotInstance) -> Explanation<LsConcept> {
    incremental_search_kind(wn, LubKind::WithSelections)
}

/// The shared engine, parameterized by the lub operator.
pub fn incremental_search_kind(wn: &WhyNotInstance, kind: LubKind) -> Explanation<LsConcept> {
    let inst = &wn.instance;
    // One interned pool for the whole search: every candidate extension
    // is a bitset over adom(I) ∪ ā, so the per-step explanation checks
    // run word-parallel — and the lub engine's column sets index the
    // same pool, interned once for every growth probe of the run.
    let pool = inst.const_pool_with(wn.tuple.iter().cloned());
    let engine = LubEngine::with_pool(&wn.schema, inst, Arc::clone(&pool));
    let ids = AnswerIds::new(&pool, &wn.ans, &wn.tuple);
    incremental_search_core(&engine.adom(), &ids, &engine, kind, &mut |c| {
        c.extension_in(inst, &pool)
    })
}

/// [`incremental_search_kind`] over a caller-built lub provider — a
/// [`LubEngine`] or a wrapper around one — whose pool must intern the
/// instance's constants (the tuple's may or may not be pooled). Results
/// are identical to [`incremental_search_kind`]: a provider with only the
/// three required [`LubProvider`] methods decides every probe from
/// evaluated extensions, the pooled engine from its growth data.
///
/// A test seam for comparing the two routes; not part of the documented
/// API.
#[doc(hidden)]
pub fn incremental_search_with<P: LubProvider + ?Sized>(
    lubs: &P,
    wn: &WhyNotInstance,
    kind: LubKind,
) -> Explanation<LsConcept> {
    let pool = lubs.pool();
    let ids = AnswerIds::new(pool, &wn.ans, &wn.tuple);
    incremental_search_core(&adom_ids(pool, &wn.instance), &ids, lubs, kind, &mut |c| {
        c.extension_in(&wn.instance, pool)
    })
}

/// `adom(I)` as ascending ids of `pool`, which interns it.
pub(crate) fn adom_ids(pool: &ConstPool, inst: &Instance) -> Vec<ValueId> {
    inst.active_domain()
        .iter()
        .filter_map(|v| pool.id_of(v))
        .collect()
}

/// A growth state's extension: the one a pooled state carries (shared,
/// not copied), or `ext_of` over its concept for a state built by the
/// recomputing default [`LubProvider`] bodies.
pub(crate) fn state_extension(
    state: &LubState,
    ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
) -> Arc<Extension> {
    match state.extension() {
        Some(ext) => Arc::clone(ext),
        None => Arc::new(ext_of(state.concept())),
    }
}

/// One growth constant of a search: its value and its id in the
/// provider's pool (`None` for a tuple constant the pool does not
/// intern).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Constant<'a> {
    pub(crate) value: &'a Value,
    pub(crate) id: Option<ValueId>,
}

impl<'a> Constant<'a> {
    /// The pooled constant `id`.
    pub(crate) fn pooled(pool: &'a ConstPool, id: ValueId) -> Self {
        Constant {
            value: pool.value(id),
            id: Some(id),
        }
    }

    /// The constant `value`, resolved against `pool`.
    pub(crate) fn of(pool: &ConstPool, value: &'a Value) -> Self {
        Constant {
            value,
            id: pool.id_of(value),
        }
    }
}

/// A growth loop's state at one position. A state built by the pooled
/// engine decides membership from its growth data and builds its
/// extension only when asked. A state built by the recomputing default
/// [`LubProvider`] bodies carries neither; `ext_of` evaluates its concept
/// once, on the first membership question, and the extension is kept
/// here.
pub(crate) struct Grown {
    pub(crate) state: LubState,
    ext: Option<Arc<Extension>>,
}

impl Grown {
    pub(crate) fn new(state: LubState) -> Self {
        Grown { state, ext: None }
    }

    /// The state's extension (see [`state_extension`]), built or
    /// evaluated at most once.
    pub(crate) fn extension(
        &mut self,
        ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
    ) -> Arc<Extension> {
        let state = &self.state;
        Arc::clone(
            self.ext
                .get_or_insert_with(|| state_extension(state, ext_of)),
        )
    }

    /// Whether `c` lies in the state's lub: decided from the growth data
    /// ([`LubState::contains_id`], or [`LubState::contains`] for an
    /// unpooled constant), or read off the evaluated extension.
    pub(crate) fn holds(
        &mut self,
        c: Constant<'_>,
        ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
    ) -> bool {
        let decided = match c.id {
            Some(id) => self.state.contains_id(id),
            None => self.state.contains(c.value),
        };
        decided.unwrap_or_else(|| self.extension(ext_of).contains(c.value))
    }
}

/// The probe verdicts at one position `j` of a growth loop while every
/// other position stays fixed at `exts`: Definition 3.2 for
/// `exts[j := ext(E)]`, through the position's [`BlockedSet`].
///
/// A candidate grown from a support holding `a_j` holds `a_j`, and the
/// loops keep the other positions' constants in their extensions, so a
/// candidate is admitted iff its lub holds no member of `B_j`. For a
/// pooled candidate that is decided member by member from the growth
/// data ([`LubState::contains_id`]), rejecting at the first member it
/// holds, and its extension is never built. A candidate without growth
/// data, or a `B_j` with a member outside the provider's pool, takes the
/// extension route: the candidate's extension against
/// [`BlockedSet::admits`]. Debug builds check every verdict against the
/// full Definition 3.2 on the built extensions.
pub(crate) struct Verdicts<'a, 'q, E> {
    exts: &'a [E],
    pool: &'a Arc<ConstPool>,
    blocked: BlockedSet<'q>,
    /// `B_j`'s members as ids of `pool`; `None` sends every candidate
    /// down the extension route.
    members: Option<Vec<ValueId>>,
}

impl<'a, 'q, E: Borrow<Extension>> Verdicts<'a, 'q, E> {
    /// The verdicts at position `j` of `q`, the other positions fixed at
    /// `exts`, for states of a provider over `pool`.
    pub(crate) fn new(
        exts: &'a [E],
        j: usize,
        q: &'q AnswerIds<'q>,
        pool: &'a Arc<ConstPool>,
    ) -> Self {
        let blocked = BlockedSet::new(exts, j, q);
        let members = blocked.ids(pool);
        Verdicts {
            exts,
            pool,
            blocked,
            members,
        }
    }

    /// Whether `c ∈ B_j`: every lub holding it is rejected, so a loop
    /// skips it without growing.
    pub(crate) fn blocks(&self, c: Constant<'_>) -> bool {
        match c.id {
            Some(id) => self.blocked.contains_in(self.pool, id),
            None => self.blocked.contains(c.value),
        }
    }

    /// One growth probe: `state` (a state of the position `rejected`
    /// belongs to) grown by `c`, returned iff the verdicts admit it.
    /// A probe that `rejected` already decides is not grown; a rejected
    /// one is recorded there.
    pub(crate) fn probe<P: LubProvider + ?Sized>(
        &self,
        rejected: &mut Rejected,
        lubs: &P,
        state: &LubState,
        c: Constant<'_>,
        ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
    ) -> Option<Grown> {
        if rejected.skips(state, c, || {
            !self.full_check(&lubs.grow(state, c.value), &mut *ext_of)
        }) {
            return None;
        }
        let mut candidate = Grown::new(lubs.grow(state, c.value));
        if self.admits(&mut candidate, ext_of) {
            return Some(candidate);
        }
        rejected.record(state, c);
        None
    }

    /// The verdict on a grown candidate whose lub holds `a_j`.
    fn admits(
        &self,
        candidate: &mut Grown,
        ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
    ) -> bool {
        if let Some(verdict) = self.by_membership(&candidate.state) {
            // On a copy, so the checked state keeps its extension unbuilt.
            debug_assert_eq!(
                verdict,
                self.full_check(&candidate.state.clone(), &mut *ext_of),
                "membership verdict disagrees with Definition 3.2"
            );
            return verdict;
        }
        self.blocked.admits(self.exts, &candidate.extension(ext_of))
    }

    /// Definition 3.2 in full with position `j` replaced by `state`'s
    /// lub, its extension built for the check: the reference that debug
    /// builds hold every verdict and every memo skip to.
    fn full_check(
        &self,
        state: &LubState,
        ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
    ) -> bool {
        self.blocked
            .full_check(self.exts, &state_extension(state, ext_of))
    }

    /// Rejected iff the candidate's lub holds a member of `B_j`, tested
    /// member by member and rejected at the first it holds; `None`
    /// without the members as ids or without growth data. An empty `B_j`
    /// admits every candidate.
    fn by_membership(&self, state: &LubState) -> Option<bool> {
        let held = match self
            .members
            .as_ref()?
            .iter()
            .map(|&c| state.contains_id(c))
            .find(|held| *held != Some(false))
        {
            Some(held) => held?,
            None => false,
        };
        Some(!held && self.blocked.others_hold())
    }
}

/// The column signatures one position's growth probes were rejected
/// with, so that each class of selection-free constants is probed at
/// most once.
///
/// By Lemma 5.1 a selection-free lub of two or more constants is the
/// conjunction of the projections named by its covered-column mask, the
/// AND of its support's column signatures
/// ([`LubState::column_signature`]). A step by `b` ANDs `sig(b)` into
/// the mask, and a mask with fewer columns has the larger extension.
/// Every rejection the loops make is monotone in the extension: the lub
/// meets the blocked set `B_j` (Algorithm 2, CHECK-MGE, the foil-aligned
/// contrast), or it holds the missing constant (the contrast's
/// difference sweep). So:
///
/// * a probe `b` rejected from a state with mask `M` leaves a grown mask
///   `M & sig(b)` whose lub is rejected;
/// * a position's mask only loses columns while it grows, so every later
///   state of the position has a mask `M' ⊆ M`;
/// * for any `b'` with `sig(b') ⊆ sig(b)`, the grown mask
///   `M' & sig(b') ⊆ M & sig(b)`, so its extension is a superset of the
///   rejected one, and it is rejected too.
///
/// The loops therefore skip, without growing, every probe whose
/// signature a recorded one contains, and keep only the maximal recorded
/// signatures, as an antichain under `⊆`. States without signatures
/// (lubσ, the recomputing default [`LubProvider`] bodies) record nothing
/// and skip nothing, so their loops probe every constant. A constant
/// outside the provider's pool has no id and is always probed. Debug
/// builds grow every skipped probe and check that it is rejected.
#[derive(Debug, Default)]
pub(crate) struct Rejected {
    /// The maximal recorded signatures, `width` words each.
    words: Vec<u64>,
    width: usize,
}

impl Rejected {
    /// Whether a recorded rejection already decides the probe of `c`
    /// from `state` (a state of the position the memo belongs to).
    /// `rejects` grows the probe and judges it; debug builds call it on
    /// every skipped probe and check that it is rejected.
    pub(crate) fn skips(
        &self,
        state: &LubState,
        c: Constant<'_>,
        rejects: impl FnOnce() -> bool,
    ) -> bool {
        let skip =
            c.id.and_then(|id| state.column_signature(id))
                .is_some_and(|sig| self.covers(sig));
        debug_assert!(
            !skip || rejects(),
            "a probe a rejected signature dominates must be rejected"
        );
        skip
    }

    /// Records that the probe of `c` from `state` was rejected.
    pub(crate) fn record(&mut self, state: &LubState, c: Constant<'_>) {
        if let Some(sig) = c.id.and_then(|id| state.column_signature(id)) {
            self.insert(sig);
        }
    }

    /// Whether some recorded signature is a superset of `sig`.
    fn covers(&self, sig: &[u64]) -> bool {
        self.width > 0
            && self
                .words
                .chunks_exact(self.width)
                .any(|kept| kernels::subset(sig, kept))
    }

    /// Adds `sig` unless a recorded signature contains it; otherwise
    /// drops the recorded ones it contains.
    fn insert(&mut self, sig: &[u64]) {
        if self.covers(sig) {
            return;
        }
        let width = sig.len();
        let mut write = 0;
        for read in (0..self.words.len()).step_by(width.max(1)) {
            if !kernels::subset(&self.words[read..read + width], sig) {
                self.words.copy_within(read..read + width, write);
                write += width;
            }
        }
        self.words.truncate(write);
        self.words.extend_from_slice(sig);
        self.width = width;
    }
}

/// Algorithm 2's growth loop over `adom(I)` as ascending ids of the
/// provider's pool, a borrowed question, a lub provider and a
/// caller-supplied extension function: [`position_major`] over the
/// positions in order.
pub(crate) fn incremental_search_core<P: LubProvider + ?Sized>(
    adom: &[ValueId],
    q: &AnswerIds<'_>,
    lubs: &P,
    kind: LubKind,
    ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
) -> Explanation<LsConcept> {
    let positions: Vec<usize> = (0..q.arity()).collect();
    position_major(adom, &positions, q, lubs, kind, ext_of)
}

/// Algorithm 2 position by position, in the order `positions` lists
/// them, each position sweeping `order` (ids of the provider's pool)
/// with [`grow_position`]. Supports start at the singletons `{a_j}`.
///
/// A position's blocked set reads the other positions' extensions: the
/// starts (nominals) of the positions not yet swept, and the final
/// states of those already swept. So a final state builds its extension
/// only when a later position reads it, and the last position's final
/// state builds none. A concept is assembled only for the final states.
pub(crate) fn position_major<P: LubProvider + ?Sized>(
    order: &[ValueId],
    positions: &[usize],
    q: &AnswerIds<'_>,
    lubs: &P,
    kind: LubKind,
    ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
) -> Explanation<LsConcept> {
    // Lines 2–3: support sets start at the singletons {aj}; the first
    // candidate explanation is their lubs.
    let mut states: Vec<Grown> = q
        .tuple()
        .iter()
        .map(|a| Grown::new(lubs.start(kind, a)))
        .collect();
    let mut exts: Vec<Arc<Extension>> = states
        .iter_mut()
        .map(|s| s.extension(&mut *ext_of))
        .collect();
    debug_assert!(
        exts_form_explanation(&exts, q),
        "the nominal-based start must be an explanation"
    );
    // Lines 4–11, one position at a time. The other positions stay
    // fixed while position j grows, so line 9's check is against B_j
    // alone.
    for (i, &j) in positions.iter().enumerate() {
        let verdicts = Verdicts::new(&exts, j, q, lubs.pool());
        grow_position(lubs, &mut states[j], &verdicts, order, ext_of);
        if i + 1 < positions.len() {
            exts[j] = states[j].extension(ext_of);
        }
    }
    Explanation::new(states.into_iter().map(|s| s.state.into_concept()))
}

/// Algorithm 2's lines 4–11 at one position: sweeps `order` (ids of the
/// provider's pool), skips each constant in `B_j`, already in the
/// position's lub or dominated by a rejected signature ([`Rejected`]),
/// and keeps each grown candidate the verdicts admit.
fn grow_position<P: LubProvider + ?Sized, E: Borrow<Extension>>(
    lubs: &P,
    current: &mut Grown,
    verdicts: &Verdicts<'_, '_, E>,
    order: &[ValueId],
    ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
) {
    let pool = lubs.pool();
    let mut rejected = Rejected::default();
    for &b in order {
        // Line 5's set difference, re-evaluated live; a blocked
        // constant would put an answer into the product.
        let b = Constant::pooled(pool, b);
        if verdicts.blocks(b) || current.holds(b, &mut *ext_of) {
            continue;
        }
        // Lines 6–9: the more general candidate at position j, kept
        // only if the tuple stays an explanation.
        if let Some(candidate) = verdicts.probe(&mut rejected, lubs, &current.state, b, ext_of) {
            *current = candidate;
        }
    }
}

/// The constants of `tuple` outside `adom` (ascending ids of `pool`),
/// deduplicated in ascending value order: the part of Prop 5.1's
/// `K = adom(I) ∪ ā` that the active domain does not list.
pub(crate) fn beyond_adom<'a>(
    pool: &ConstPool,
    adom: &[ValueId],
    tuple: &'a [Value],
) -> Vec<&'a Value> {
    let mut beyond: Vec<&Value> = tuple
        .iter()
        .filter(|a| {
            pool.id_of(a)
                .is_none_or(|id| adom.binary_search(&id).is_err())
        })
        .collect();
    beyond.sort_unstable();
    beyond.dedup();
    beyond
}

/// CHECK-MGE W.R.T. `OI` (Definition 5.7, Proposition 5.2): whether `e`
/// is a most-general explanation w.r.t. the instance-derived ontology.
///
/// Probes every single-position generalization `lub(ext(Cj) ∪ {b})` for
/// constants `b` outside the current extension: if none yields a strictly
/// more general explanation, `e` is maximal. Runs in PTIME for
/// selection-free `LS` and (by Lemma 5.2) for bounded schema arity with
/// selections.
pub fn check_mge_instance(wn: &WhyNotInstance, e: &Explanation<LsConcept>, kind: LubKind) -> bool {
    let pool = wn.instance.const_pool_with(wn.tuple.iter().cloned());
    let engine = LubEngine::with_pool(&wn.schema, &wn.instance, pool);
    check_mge_with(&engine, &engine.adom(), wn, e, kind)
}

/// [`check_mge_instance`] over a caller-built lub provider (see
/// [`incremental_search_with`]); the answer is the same. A test seam,
/// like [`incremental_search_with`].
#[doc(hidden)]
pub fn check_mge_instance_with<P: LubProvider + ?Sized>(
    lubs: &P,
    wn: &WhyNotInstance,
    e: &Explanation<LsConcept>,
    kind: LubKind,
) -> bool {
    check_mge_with(lubs, &adom_ids(lubs.pool(), &wn.instance), wn, e, kind)
}

/// The one-shot CHECK-MGE over `lubs`, with `adom(I)` as ascending ids of
/// its pool.
fn check_mge_with<P: LubProvider + ?Sized>(
    lubs: &P,
    adom: &[ValueId],
    wn: &WhyNotInstance,
    e: &Explanation<LsConcept>,
    kind: LubKind,
) -> bool {
    let (inst, pool) = (&wn.instance, lubs.pool());
    let ids = AnswerIds::new(pool, &wn.ans, &wn.tuple);
    let exts: Vec<Extension> = e
        .concepts
        .iter()
        .map(|c| c.extension_in(inst, pool))
        .collect();
    if !exts_form_explanation(&exts, &ids) {
        return false;
    }
    check_mge_instance_core(adom, &ids, &exts, lubs, kind, &mut |c| {
        c.extension_in(inst, pool)
    })
}

/// The generalization-probe loop of CHECK-MGE W.R.T. `OI`, over `adom(I)`
/// as ascending ids of the provider's pool, a borrowed question, the
/// extensions `exts` of the checked explanation's concepts, a lub
/// provider and a caller-supplied extension function. Assumes the caller
/// has already verified that `exts` form an explanation (the probes only
/// decide maximality). The probed constants are Prop 5.1's
/// `K = adom(I) ∪ ā`. Each position's state is the fold over `ext(Cj)`,
/// and every probe grows it by one constant and is decided by the
/// position's [`Verdicts`]: a pooled candidate never builds its
/// extension, and a selection-free probe whose signature a rejected one
/// contains is not grown at all ([`Rejected`]).
pub(crate) fn check_mge_instance_core<P: LubProvider + ?Sized>(
    adom: &[ValueId],
    q: &AnswerIds<'_>,
    exts: &[Extension],
    lubs: &P,
    kind: LubKind,
    ext_of: &mut dyn FnMut(&LsConcept) -> Extension,
) -> bool {
    let pool = lubs.pool();
    // The tuple's constants outside adom(I), the rest of K.
    let beyond_adom = beyond_adom(pool, adom, q.tuple());
    let k = adom
        .iter()
        .map(|&id| Constant::pooled(pool, id))
        .chain(beyond_adom.into_iter().map(|v| Constant::of(pool, v)));
    let k: Vec<Constant<'_>> = k.collect();
    for j in 0..exts.len() {
        // The universal extension (⊤) cannot be generalized.
        let Some(current) = exts[j].as_finite() else {
            continue;
        };
        // Defined: an explanation's extension holds its tuple's constant.
        let Some(state) = lubs.state_of(kind, &current.to_btree_set()) else {
            continue;
        };
        let verdicts = Verdicts::new(exts, j, q, pool);
        // The state never changes, so a rejected signature decides every
        // probe it contains (see `Rejected`).
        let mut rejected = Rejected::default();
        for &b in &k {
            let inside = match b.id {
                Some(id) => current.contains_in(pool, id),
                None => current.contains(b.value),
            };
            if inside || verdicts.blocks(b) {
                continue;
            }
            // Strictly more general by construction: ⊇ current ∪ {b}.
            if verdicts
                .probe(&mut rejected, lubs, &state, b, ext_of)
                .is_some()
            {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derived::InstanceOntology;
    use crate::whynot::{exts_form_explanation, is_explanation};
    use whynot_concepts::LsAtom;
    use whynot_relation::{Atom, Cq, Instance, RelId, SchemaBuilder, Term, Ucq, Var};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    /// The Figure 1/2 data schema and instance (base relations only, so
    /// the derived concepts range over Cities and Train-Connections), and
    /// Example 3.4's why-not question.
    fn paper_wn() -> (WhyNotInstance, RelId, RelId) {
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
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let q = Ucq::single(Cq::new(
            [Term::Var(x), Term::Var(y)],
            [
                Atom::new(tc, [Term::Var(x), Term::Var(z)]),
                Atom::new(tc, [Term::Var(z), Term::Var(y)]),
            ],
            [],
        ));
        let wn = WhyNotInstance::new(schema, inst, q, vec![s("Amsterdam"), s("New York")]).unwrap();
        (wn, cities, tc)
    }

    #[test]
    fn incremental_output_is_an_explanation() {
        let (wn, ..) = paper_wn();
        let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
        let e = incremental_search(&wn);
        assert!(is_explanation(&oi, &wn, &e));
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn incremental_output_is_most_general() {
        let (wn, ..) = paper_wn();
        let e = incremental_search(&wn);
        assert!(check_mge_instance(&wn, &e, LubKind::SelectionFree), "{e:?}");
    }

    #[test]
    fn incremental_with_selections_is_most_general() {
        let (wn, ..) = paper_wn();
        let e = incremental_search_with_selections(&wn);
        let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
        assert!(is_explanation(&oi, &wn, &e));
        assert!(
            check_mge_instance(&wn, &e, LubKind::WithSelections),
            "{e:?}"
        );
    }

    #[test]
    fn incremental_generalizes_beyond_the_nominals() {
        let (wn, ..) = paper_wn();
        let e = incremental_search(&wn);
        // Position 0 grows past {Amsterdam}. In fact the paper's greedy
        // position order lets it absorb *every* constant here — position 1
        // ({New York}) alone already excludes all four answers — so the
        // first concept climbs to ⊤ (extension Universal). That lopsided
        // tuple is a legitimate most-general explanation w.r.t. OI.
        let ext0 = e.concepts[0].extension(&wn.instance);
        let grew = matches!(ext0, Extension::Universal) || ext0.len().unwrap_or(0) > 1;
        assert!(grew, "{:?}", e.concepts[0]);
        // …and the concepts are genuinely selection-free.
        assert!(e.concepts.iter().all(LsConcept::is_selection_free));
    }

    #[test]
    fn selections_refine_the_selection_free_result() {
        let (wn, ..) = paper_wn();
        let plain = incremental_search(&wn);
        let with_sel = incremental_search_with_selections(&wn);
        // Both are explanations; the σ-variant may use selections.
        let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
        assert!(is_explanation(&oi, &wn, &plain));
        assert!(is_explanation(&oi, &wn, &with_sel));
    }

    #[test]
    fn check_mge_rejects_the_trivial_explanation() {
        let (wn, ..) = paper_wn();
        // The all-nominals explanation E6 = ⟨{Amsterdam}, {New York}⟩ is an
        // explanation but not most general.
        let e = Explanation::new([
            LsConcept::nominal(s("Amsterdam")),
            LsConcept::nominal(s("New York")),
        ]);
        let oi = InstanceOntology::new(wn.schema.clone(), wn.instance.clone());
        assert!(is_explanation(&oi, &wn, &e));
        assert!(!check_mge_instance(&wn, &e, LubKind::SelectionFree));
        assert!(!check_mge_instance(&wn, &e, LubKind::WithSelections));
    }

    #[test]
    fn check_mge_rejects_non_explanations() {
        let (wn, cities, _) = paper_wn();
        let e = Explanation::new([LsConcept::proj(cities, 0), LsConcept::proj(cities, 0)]);
        assert!(!check_mge_instance(&wn, &e, LubKind::SelectionFree));
    }

    #[test]
    fn supports_grow_monotonically_into_lub_extensions() {
        let (wn, ..) = paper_wn();
        let e = incremental_search(&wn);
        // Every aj is in its concept's extension (Definition 3.2 first
        // condition), and extensions avoid the answers (second condition).
        let exts: Vec<Extension> = e
            .concepts
            .iter()
            .map(|c| c.extension(&wn.instance))
            .collect();
        let pool = wn.instance.const_pool_with(wn.tuple.iter().cloned());
        let ids = AnswerIds::new(&pool, &wn.ans, &wn.tuple);
        assert!(exts_form_explanation(&exts, &ids));
    }

    #[test]
    fn nominal_start_appears_when_nothing_generalizes() {
        // A why-not instance where any generalization hits the answers:
        // two constants, the other one is the answer.
        let mut b = SchemaBuilder::new();
        let r = b.relation("R", ["x"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(r, vec![s("a")]);
        inst.insert(r, vec![s("miss")]);
        let q = Ucq::single(Cq::new(
            [Term::Var(Var(0))],
            [Atom::new(r, [Term::Var(Var(0))])],
            [],
        ));
        // Why is "miss" not in q(I)? It IS in q(I)… use a fresh constant.
        let wn = WhyNotInstance::new(schema, inst, q, vec![s("ghost")]).unwrap();
        let e = incremental_search(&wn);
        // "ghost" is outside every column, so the lub is its nominal ⊓ ⊤
        // only — and no b ∈ adom can be absorbed without hitting Ans
        // (any column concept containing a or miss includes an answer).
        let ext = e.concepts[0].extension(&wn.instance);
        assert_eq!(ext, Extension::finite([s("ghost")]));
        assert!(e.concepts[0]
            .parts()
            .any(|p| matches!(p, LsAtom::Nominal(_))));
    }
}
