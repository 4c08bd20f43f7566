//! Relational substrate for ontology-based why-not explanations.
//!
//! This crate implements §2 of *"High-Level Why-Not Explanations using
//! Ontologies"* (PODS 2015) from scratch:
//!
//! * [`Value`] — the constants `Const` with a dense linear order,
//! * [`Schema`] / [`SchemaBuilder`] — schemas `(S, Σ)` with integrity
//!   constraints,
//! * [`Instance`] — finite sets of facts,
//! * [`Cq`] / [`Ucq`] — conjunctive queries with comparisons to constants,
//!   and their unions, with a backtracking evaluator,
//! * [`Fd`] / [`Ind`] / [`ViewDef`] — functional dependencies, inclusion
//!   dependencies, and (nested) UCQ-view definitions, with satisfaction
//!   checking, acyclicity validation and classification into the constraint
//!   classes of the paper's Table 1,
//! * [`materialize_views`] / [`unfold_cq`] — non-recursive Datalog
//!   evaluation and view unfolding,
//! * [`Interval`] — the order-interval algebra backing comparisons,
//!   selections and the chase,
//! * [`ConstPool`] / [`ValueId`] — the interned-constant pool over an
//!   instance's active domain, the id space of the bitset extension
//!   engine in `whynot-concepts`,
//! * [`Delta`] / [`GenPool`] — tuple-level mutation logs with
//!   storage-sharing snapshots, and the generational pool growth that
//!   keeps interned structures valid across mutations, and
//! * [`freeze`] — canonical databases for containment tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod constraints;
mod delta;
mod error;
mod freeze;
mod image;
mod instance;
mod interval;
pub mod json;
mod parse;
mod pool;
mod query;
mod schema;
mod value;
mod views;
pub mod wire;

pub use constraints::{
    classify, validate, view_partition, Constraint, ConstraintClass, Fd, Ind, ViewDef,
    ViewPartition,
};
pub use delta::{Delta, DeltaEffect, DeltaOutcome, NetChange};
pub use error::RelError;
pub use freeze::{freeze, freeze_with, fresh_constant, is_fresh_constant, Frozen};
pub use image::{AnswerRows, IdImage, RowDelta};
pub use instance::{instance_of, Fact, Instance, Tuple};
pub use interval::{Bound, Interval};
pub use parse::{parse_fact, parse_program, parse_query, Loaded};
pub use pool::{ConstPool, GenPool, PoolMap, ValueId};
pub use query::{Atom, CmpOp, Comparison, Cq, Term, Ucq, Var};
pub use schema::{Attr, RelId, RelationDecl, Schema, SchemaBuilder};
pub use value::{Rational, Value};
pub use views::{materialize_views, unfold_cq, unfold_ucq};
