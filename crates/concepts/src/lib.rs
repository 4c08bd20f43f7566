//! The concept language `LS` of *"High-Level Why-Not Explanations using
//! Ontologies"* (PODS 2015, §4.2).
//!
//! `LS` builds concepts over a relational schema from unary projections,
//! selections with constant comparisons, intersections and nominals:
//!
//! ```text
//! D ::= R | σ_{A1 op c1,…,An op cn}(R)
//! C ::= ⊤ | {c} | π_A(D) | C ⊓ C
//! ```
//!
//! This crate provides:
//!
//! * [`LsConcept`] / [`LsAtom`] / [`Selection`] — normalized concept
//!   expressions with fragment classification (`LminS`, selection-free,
//!   intersection-free),
//! * [`Extension`] / [`ValueSet`] — exact extensions `[[C]]^I` including
//!   the universal extension of `⊤`, represented as dense bit vectors
//!   over an interned [`ConstPool`](whynot_relation::ConstPool) so
//!   subset and intersection run word-parallel, with instance-level
//!   subsumption `⊑I` (Proposition 4.1),
//! * [`ExtensionTable`] — one-pass evaluation of a whole concept list
//!   against one instance into a single shared pool,
//! * [`lub`] / [`lub_sigma`] — least upper bounds of support sets
//!   (Lemmas 5.1 and 5.2), the engine of the paper's incremental search
//!   algorithm,
//! * [`LubEngine`] — the pooled lub engine: each `(rel, attr)` column
//!   interned exactly once, with lubs *grown* one constant at a time
//!   ([`LubState`]; Lemma 5.1's covered flags and Lemma 5.2's minimal
//!   boxes in [`ValueId`](whynot_relation::ValueId) space), whose states
//!   every search algorithm grows; the [`LubProvider`] trait it
//!   implements is its three from-scratch methods, kept for the
//!   from-scratch contrast reference,
//! * [`kernels`] — the shared bitset word ops every engine crate's hot
//!   word loop runs on (one dense bit per pooled constant), and
//! * [`irredundant`] / [`simplify`] — polynomial-time irredundant
//!   equivalents (Proposition 6.2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod concept;
mod extension;
pub mod kernels;
mod lub;
mod lub_engine;
mod minimize;
mod parse;
mod selection;
mod table;

pub use concept::{LsAtom, LsConcept};
pub use extension::{Extension, ValueSet, ValueSetIter};
pub use lub::{lub, lub_sigma, try_lub, try_lub_sigma};
pub use lub_engine::{LubEngine, LubKind, LubProvider, LubState};
pub use minimize::{irredundant, simplify, simplify_selections};
pub use parse::{parse_concept, parse_value, ParseError};
pub use selection::{SelConstraint, Selection};
pub use table::ExtensionTable;
