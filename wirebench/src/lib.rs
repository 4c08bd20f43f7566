//! Wire-level benchmark of `whynot-server`.
//!
//! One command drives `ServerCore::handle_line` in-process over two
//! seeded workloads (`serve_churn`, `lub_bound`; see [`workload::Kind`]) and prints the end-to-end metrics a caller of the
//! server sees. Before any number counts, every response is checked
//! against a direct replay on `WhyNotSession`s ([`replay`]). A separate
//! traced run times the public calls into each layer the server is built
//! from ([`run::traced`]).

pub mod check;
pub mod drive;
pub mod render;
pub mod replay;
pub mod run;
pub mod trace;
pub mod workload;
