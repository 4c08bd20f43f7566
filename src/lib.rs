//! # whynot — ontology-based why-not explanations
//!
//! A from-scratch Rust implementation of *"High-Level Why-Not Explanations
//! using Ontologies"* (ten Cate, Civili, Sherkhonov, Tan — PODS 2015).
//!
//! Given a query `q`, a database instance `I`, the computed answers
//! `Ans = q(I)` and a tuple `a ∉ Ans`, this library computes *high-level
//! explanations* for why `a` is missing: tuples of ontology concepts
//! `(C1, …, Cm)` whose extensions contain the missing tuple but are disjoint
//! from the answer set. The "best" explanations are the *most general* ones
//! with respect to the ontology's subsumption order.
//!
//! ## Crate layout
//!
//! This is an umbrella crate re-exporting the workspace members:
//!
//! * [`relation`] — relational substrate: values with a dense linear order,
//!   schemas, instances, conjunctive queries with comparisons, integrity
//!   constraints and nested UCQ views (paper §2), plus the `ConstPool`
//!   value interner underlying the extension engine.
//! * [`concepts`] — the concept language `LS` derived from a schema:
//!   projections, selections, intersections, nominals (paper §4.2), with
//!   bitset-backed extensions and one-pass `ExtensionTable`s.
//! * [`dllite`] — the DL-LiteR description logic, GAV mappings and
//!   OBDA specifications for external ontologies (paper §4.1).
//! * [`subsumption`] — schema-level subsumption `⊑S` deciders, one per
//!   constraint class of the paper's Table 1.
//! * [`core`] — the why-not framework itself: `S`-ontologies, the
//!   memoizing `EvalContext` extension engine, explanations, most-general
//!   explanations, the exhaustive and incremental search algorithms
//!   (paper §3, §5), the Section 6 variations, and contrastive why-not
//!   explanations ("why is `a` missing while `b` answers?"): difference
//!   separators, foil-aligned MGEs and the OBDA variant over
//!   certain-answer semantics.
//! * [`scenarios`] — the paper's figures and examples as executable
//!   scenarios, plus seeded workload generators used by the benches.
//! * [`server`] — `whynot-server`: a multi-tenant why-not question
//!   service over a line-oriented JSON wire protocol, with bounded
//!   per-tenant queues, fair-share scheduling, session cache budgets,
//!   and durable tenant state (snapshots + a delta WAL).
//!
//! ## Quickstart
//!
//! ```
//! use whynot::prelude::*;
//!
//! // The paper's running example: cities, train connections, and the
//! // external ontology of Figure 3.
//! let scenario = whynot::scenarios::paper::example_3_4();
//! let mges = exhaustive_search(&scenario.ontology, &scenario.why_not);
//! // The paper's most-general explanation ⟨European-City, US-City⟩:
//! // "Amsterdam is in Europe, New York is in the US, and no European
//! // city reaches a US city in two hops."
//! assert!(mges.iter().any(|e| e.to_string() == "⟨European-City, US-City⟩"));
//! ```

#![forbid(unsafe_code)]

pub use whynot_concepts as concepts;
pub use whynot_core as core;
pub use whynot_dllite as dllite;
pub use whynot_relation as relation;
pub use whynot_scenarios as scenarios;
pub use whynot_server as server;
pub use whynot_subsumption as subsumption;

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use crate::concepts::{LsAtom, LsConcept, Selection};
    pub use crate::core::{
        exhaustive_search, incremental_search, incremental_search_with_selections,
        ContrastQuestion, DeltaStats, Explanation, ExplicitOntology, FiniteOntology,
        InstanceOntology, ObdaOntology, Ontology, SchemaOntology, SessionError, WhyNotInstance,
        WhyNotQuestion, WhyNotSession,
    };
    pub use crate::dllite::{BasicConcept, GavMapping, ObdaSpec, Role, TBox, TBoxAxiom};
    pub use crate::relation::{
        Attr, CmpOp, Cq, Delta, GenPool, Instance, RelId, Schema, SchemaBuilder, Tuple, Ucq, Value,
    };
}
