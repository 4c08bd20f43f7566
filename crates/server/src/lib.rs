//! `whynot-server` — a multi-tenant why-not question service with
//! durable tenant state.
//!
//! The paper frames why-not explanations as something an analyst asks
//! interactively against a live database; this crate is the
//! long-running serving layer the earlier library work plugs into.
//! Each **tenant** pins one `(ontology, schema, instance)` triple
//! backed by its own [`whynot_core::WhyNotSession`]; a line-oriented
//! wire protocol (plain-text commands in, one JSON object per response
//! line out) drives it over stdin or TCP. The pieces:
//!
//! * [`server::ServerCore`] — transport-agnostic dispatch, the
//!   per-tenant bounded queues, admission control (reject-with-reason
//!   on full queues and tenant capacity), and the fair-share scheduler
//!   that drains the queues round by round;
//! * [`definition`] — the tenant definition grammar
//!   (`relation`/`data`/`fd`/`ind` lines plus `concept`/`axiom`
//!   ontology lines);
//! * [`tenant`] — the leaked-and-interned `'static` tenant cores that
//!   let sessions outlive any single borrow scope without per-churn
//!   leaks;
//! * [`durable`] — snapshot files plus a checksummed `Delta` WAL;
//!   restart = load snapshot, replay log through `apply_delta`;
//! * [`config`] — the `WHYNOT_SERVER_*` knobs.
//!
//! Memory is bounded end to end: session caches run under the
//! configured [`whynot_core::CacheBudget`] with LRU eviction (visible
//! in the `stats` command), queues are bounded, and tenant count is
//! capped.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod definition;
pub mod durable;
pub mod error;
pub mod server;
pub mod tenant;

pub use config::ServerConfig;
pub use definition::definition_text;
pub use durable::Durability;
pub use error::ServerError;
pub use server::{explanation_to_json, ls_explanation_to_json, Algo, ServerCore};
