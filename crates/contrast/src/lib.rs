//! Contrastive why-not explanations — *"why is `a` missing while `b`
//! answers?"* — as a standalone layer over `whynot-core`.
//!
//! The PODS 2015 framework explains one missing tuple in isolation.
//! Contrastive explanation research (Koopmann et al., arXiv 2511.11281)
//! argues users learn more from a *contrast pair*: the missing tuple `a`
//! plus a structurally similar *foil* `b` that **does** answer. The
//! abduction view of negative answers in DL-Lite (Calvanese et al.,
//! arXiv 1402.0575) maps the same question onto certain-answer
//! semantics, which is where the OBDA variant below lives.
//!
//! # Module → paper map
//!
//! | Module | Machinery | Paper anchor |
//! |--------|-----------|--------------|
//! | re-exports ([`ContrastQuestion`], [`contrast_instance`], …) | difference separators + foil-aligned MGEs via Algorithm 2's lub growth | §5.2 (Theorem 5.3, Prop 5.2) |
//! | [`mod@reference`] | brute-force subset-lub enumeration the fast paths are differentially pinned against | Definition 3.2/3.3 applied literally over `K = adom(I) ∪ ā` (Prop 5.1) |
//! | [`obda`] | contrast over ontology-level queries under certain-answer semantics | §4.2 (Definition 4.4) + the concluding OBDA future-work scenario |
//!
//! The session front-end — `(query, a, b)`-keyed caching and delta
//! invalidation — lives in `whynot_core::session`
//! (`WhyNotSession::contrast`, `::contrast_ontology_difference`); this
//! crate adds everything that does *not* need a pinned session: the
//! reference enumerations and the OBDA pipeline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod obda;
pub mod reference;

pub use whynot_core::{
    contrast_instance, contrast_with, ontology_difference, ContrastAnswer, ContrastQuestion,
};
