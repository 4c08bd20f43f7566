//! Ontology-based why-not explanations — the core framework of
//! *"High-Level Why-Not Explanations using Ontologies"* (PODS 2015).
//!
//! Given a why-not instance `(S, I, q, Ans, a)` and an `S`-ontology, an
//! **explanation** for `a ∉ Ans` is a tuple of concepts whose extensions
//! contain the missing tuple componentwise while their product avoids the
//! answer set (Definition 3.2); the best explanations are the
//! **most general** ones (Definition 3.3). This crate provides:
//!
//! * [`Ontology`] / [`FiniteOntology`] — the `S`-ontology abstraction
//!   (Definition 3.1) with [`consistent_with`] checking;
//! * [`EvalContext`] — the memoizing extension engine: at most one
//!   `ext(c, I)` evaluation per concept, results interned into one
//!   shared [`ConstPool`](whynot_relation::ConstPool) so every
//!   subset/membership check downstream is word-parallel on bitsets
//!   (Algorithm 1, [`consistent_with`], [`check_mge`] and the `>card`
//!   searches all route through it);
//! * concrete ontologies: [`ExplicitOntology`] (Figure 3 style),
//!   [`ObdaOntology`] (OBDA-induced, Definition 4.4),
//!   [`InstanceOntology`] (`OI`) and [`SchemaOntology`] (`OS`)
//!   (Definition 4.8), plus materialized `O[K]` fragments;
//! * [`WhyNotInstance`], [`Explanation`], [`is_explanation`] and the
//!   generality order (Definitions 3.2, 3.3, 5.1);
//! * **Algorithm 1** — [`exhaustive_search`] for all most-general
//!   explanations over finite ontologies (Theorem 5.2), with
//!   [`find_explanation`] / [`explanation_exists`] for
//!   EXISTENCE-OF-EXPLANATION (NP-complete, Theorem 5.1(2); the executable
//!   SET COVER reduction lives in [`setcover`]) and [`check_mge`]
//!   (PTIME, Theorem 5.1(1));
//! * **Algorithm 2** — [`incremental_search`] (selection-free,
//!   Theorem 5.3) and [`incremental_search_with_selections`]
//!   (Theorem 5.4) for one MGE w.r.t. `OI`, plus
//!   [`check_mge_instance`] (Proposition 5.2);
//! * `OS`-side computation via fragment materialization:
//!   [`compute_mge_schema`], [`all_mges_schema`], [`check_mge_schema`]
//!   (Propositions 5.3, 5.4);
//! * the §6 variations: [`shortest_mge`], [`irredundant_mge`],
//!   [`minimize_concept`] / [`minimized_explanation`],
//!   [`card_maximal_exact`] / [`card_maximal_greedy`], and
//!   [`is_strong_explanation`];
//! * the **session layer** — [`WhyNotSession`] pins one
//!   `(ontology, instance)` pair and answers a stream of
//!   [`WhyNotQuestion`]s one at a time, sharing the extension cache,
//!   answer sets, candidate lists and conflict bitsets across the whole
//!   stream. The last three are bounded LRU memos under one
//!   [`CacheBudget`] (see the [`session`] module docs for the cache
//!   inventory).
//!   Every algorithm runs sequentially: each question is polynomial for
//!   bounded arity, and none of them spawns a thread.
//!
//! # Contrastive explanations
//!
//! The paper explains one missing tuple in isolation. Contrastive
//! explanation (Koopmann et al., arXiv 2511.11281) pairs the missing
//! tuple `a` with a *foil* `b` that **does** answer; the abduction view
//! of negative answers in DL-Lite (Calvanese et al., arXiv 1402.0575)
//! maps the same question onto certain-answer semantics.
//!
//! | Item | Machinery | Paper anchor |
//! |------|-----------|--------------|
//! | [`ContrastQuestion`], [`contrast_instance`], [`ontology_difference`] | difference separators + foil-aligned MGEs via Algorithm 2's lub growth on the lub engine's states | §5.2 (Theorem 5.3, Prop 5.2) |
//! | [`WhyNotSession::contrast`], [`WhyNotSession::contrast_ontology_difference`] | the same answers over a session's cached answer sets, lub columns and conflict bitsets | as above |
//! | [`obda_contrast`] | contrast over ontology-level queries under certain-answer semantics | §4.2 (Definition 4.4) + the concluding OBDA future-work scenario |
//! | `contrast_with` (hidden) | the same greedy sweeps over from-scratch lubs, evaluated extensions and the full Definition 3.2 check, pinned equal to [`contrast_instance`] | as above |
//! | `tests/support/reference.rs` | brute-force subset-lub enumeration the fast paths are differentially pinned against | Definitions 3.2/3.3 applied literally over `K = adom(I) ∪ ā` (Prop 5.1) |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod context;
mod contrast;
mod derived;
mod enumerate;
mod exhaustive;
mod explicit;
mod incremental;
mod memo;
mod obda_query;
mod ontology;
mod schema_mge;
pub mod session;
pub mod setcover;
mod variations;
mod whynot;

pub use context::EvalContext;
pub use contrast::{
    contrast_instance, contrast_with, ontology_difference, ContrastAnswer, ContrastQuestion,
};
pub use session::{
    CacheBudget, DeltaStats, EvictionStats, SessionError, SessionStats, WhyNotQuestion,
    WhyNotSession,
};

pub use derived::{
    min_fragment_concepts, InstanceOntology, MaterializedOntology, ObdaOntology, SchemaOntology,
};
pub use enumerate::{enumerate_mges_instance, incremental_search_balanced};
pub use exhaustive::{
    check_mge, exhaustive_search, explanation_exists, find_explanation, retain_most_general,
};
pub use explicit::{ConceptName, ExplicitOntology, ExplicitOntologyBuilder};
pub use incremental::{
    check_mge_instance, incremental_search, incremental_search_kind,
    incremental_search_with_selections,
};
pub use obda_query::{obda_contrast, obda_why_not, ObdaContrast};
pub use ontology::{consistent_with, ConceptSignature, FiniteOntology, Ontology};
pub use schema_mge::{
    all_mges_schema, check_mge_schema, compute_mge_schema, fragment_concepts, fragment_concepts_on,
    SchemaFragment,
};
pub use variations::{
    card_maximal_exact, card_maximal_greedy, degree_of_generality, irredundant_explanation,
    irredundant_mge, is_strong_explanation, is_strong_explanation_query, minimize_concept,
    minimized_explanation, shortest_mge, StrongOutcome,
};
pub use whynot::{
    display_explanation, equivalent_explanations, explanation_extensions, exts_form_explanation,
    is_explanation, less_general, strictly_less_general, AnswerIds, BlockedSet, Explanation,
    WhyNotInstance,
};
/// Which lub operator drives a search; defined next to the lub engine.
pub use whynot_concepts::LubKind;
