//! `whynot-lint` — dependency-free static analysis enforcing the
//! whynot engine's cross-crate invariants.
//!
//! Seven PRs of engine work left correctness resting on conventions no
//! compiler checks: `Arc`-only sharing, no threads in library code,
//! pooled column accessors instead of owned rebuilds,
//! deterministic iteration wherever results are produced, `SessionError`
//! instead of panics at the session boundary, and written safety
//! arguments on every `unsafe` block. This crate turns each convention
//! into a CI-gated rule.
//!
//! Architecture (each module's header has the details):
//!
//! | module | job |
//! |---|---|
//! | [`lexer`] | hand-rolled token scanner — strings, raw strings, char/byte literals, nested block comments |
//! | [`context`] | per-file scoping: target kind, crate, `#[cfg(test)]` regions |
//! | [`rules`] | the rule battery (`Rule` trait + 9 project-specific rules) |
//! | [`pragma`] | `// lint: allow(<rule>) — <justification>` suppression layer |
//! | [`report`] | human (rustc-style) and `--json` reporters |
//! | [`walk`] | workspace discovery via `Cargo.toml` membership |
//!
//! The binary (`cargo run -p whynot-lint`) walks the workspace, applies
//! every rule to every file, applies pragmas, and exits nonzero on any
//! finding. The workspace it ships in is kept clean — the dogfood gate
//! in `tests/dogfood.rs` asserts zero findings as a unit test.

#![forbid(unsafe_code)]

pub mod context;
pub mod diag;
pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod walk;

pub use context::{FileCtx, Target};
pub use diag::Diagnostic;
pub use rules::{all_rules, rule_ids, Rule, ENV_REGISTRY};
pub use walk::{find_root, load, Workspace};

/// Lints one source file under a virtual workspace-relative path:
/// runs every rule, then applies the pragma layer. This is the whole
/// per-file pipeline; the binary maps it over the workspace.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let file = FileCtx::new(rel_path, src.to_string());
    let mut raw = Vec::new();
    for rule in all_rules() {
        rule.check(&file, &mut raw);
    }
    let mut out = Vec::new();
    pragma::apply(&file, &rule_ids(), raw, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Lints a loaded workspace: every file, plus the workspace-level
/// registry-vs-README cross-check. Findings come back sorted by file,
/// then position.
pub fn lint_workspace(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (rel, src) in &ws.files {
        out.extend(lint_source(rel, src));
    }
    rules::check_env_registry_docs(&ws.readme, &mut out);
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    out
}
