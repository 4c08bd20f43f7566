//! The rule battery: each rule encodes one invariant the engine's
//! correctness or performance story depends on, with the PR that
//! established it named in the diagnostic. Rules walk the comment-free
//! code-token stream, so nothing inside a string literal or comment can
//! fire them, and each declares its own scope (which targets, which
//! crates, whether `#[cfg(test)]` code is exempt).

use crate::context::{FileCtx, Target};
use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};

/// The crates whose library code must stay panic-free: anything
/// reachable from `WhyNotSession` returns `SessionError` instead, and
/// a server that dies on bad client input is a denial of service.
const PANIC_FREE_CRATES: [&str; 5] = ["relation", "concepts", "core", "dllite", "server"];

/// The crates that produce user-visible results (answer sets,
/// explanations, MGEs, wire responses) and therefore must iterate
/// deterministically.
const DETERMINISTIC_CRATES: [&str; 7] = [
    "relation",
    "concepts",
    "core",
    "dllite",
    "subsumption",
    "scenarios",
    "server",
];

/// Every `WHYNOT_*` environment variable the workspace is allowed to
/// read. Adding a knob means adding it here **and** documenting it in
/// the README — the `env-var-registry` rule cross-checks both.
pub const ENV_REGISTRY: [&str; 4] = [
    "WHYNOT_SERVER_QUEUE_DEPTH",
    "WHYNOT_SERVER_CACHE_BUDGET",
    "WHYNOT_SERVER_SNAPSHOT_DIR",
    "WHYNOT_SERVER_MAX_TENANTS",
];

/// A single static-analysis rule.
pub trait Rule {
    /// Stable identifier used in reports and pragmas.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules` and the README table.
    fn describe(&self) -> &'static str;
    /// Emits findings for one file.
    fn check(&self, file: &FileCtx, out: &mut Vec<Diagnostic>);
}

/// The full battery, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoRc),
        Box::new(ThreadContainment),
        Box::new(SafetyComment),
        Box::new(NoPanicInLib),
        Box::new(NoOwnedColumn),
        Box::new(DeterministicIteration),
        Box::new(EnvVarRegistry),
        Box::new(NoPrintlnInLib),
        Box::new(ModDoc),
    ]
}

/// The ids of every rule, for pragma validation.
pub fn rule_ids() -> Vec<&'static str> {
    all_rules().iter().map(|r| r.id()).collect()
}

/// Walks the code-token stream calling `f(prev2, prev, tok, next)` for
/// each non-comment token with its non-comment neighbors.
fn each_code_token(
    file: &FileCtx,
    mut f: impl FnMut(Option<&Token>, Option<&Token>, &Token, Option<&Token>),
) {
    let idx = file.code_indices();
    for (k, &i) in idx.iter().enumerate() {
        let prev2 = k.checked_sub(2).map(|p| &file.tokens[idx[p]]);
        let prev = k.checked_sub(1).map(|p| &file.tokens[idx[p]]);
        let next = idx.get(k + 1).map(|&n| &file.tokens[n]);
        f(prev2, prev, &file.tokens[i], next);
    }
}

fn is_ident(file: &FileCtx, tok: &Token, name: &str) -> bool {
    tok.kind == TokenKind::Ident && file.text(tok) == name
}

fn is_punct(file: &FileCtx, tok: Option<&Token>, ch: &str) -> bool {
    tok.is_some_and(|t| t.kind == TokenKind::Punct && file.text(t) == ch)
}

/// Given `idx[open_k]` pointing at a `(`, true when the token after the
/// matching `)` is `?` — i.e. the call's result is propagated, not
/// unwrapped.
fn call_followed_by_question(file: &FileCtx, idx: &[usize], open_k: usize) -> bool {
    let mut depth = 0usize;
    let mut k = open_k;
    while let Some(&i) = idx.get(k) {
        match file.text(&file.tokens[i]) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return idx
                        .get(k + 1)
                        .is_some_and(|&n| is_punct(file, Some(&file.tokens[n]), "?"));
                }
            }
            _ => {}
        }
        k += 1;
    }
    false
}

/// `no-rc`: `Rc` is banned everywhere — PR 4 migrated every shared
/// structure to `Arc` so frozen views and session caches stay `Send +
/// Sync`; a single `Rc` silently poisons that guarantee.
pub struct NoRc;

impl Rule for NoRc {
    fn id(&self) -> &'static str {
        "no-rc"
    }
    fn describe(&self) -> &'static str {
        "`Rc`/`std::rc` forbidden workspace-wide; use `Arc` (PR 4 purged `Rc` for Send+Sync views)"
    }
    fn check(&self, file: &FileCtx, out: &mut Vec<Diagnostic>) {
        each_code_token(file, |prev2, prev, tok, _| {
            let flagged = is_ident(file, tok, "Rc")
                || (is_ident(file, tok, "rc")
                    && is_punct(file, prev, ":")
                    && prev2
                        .is_some_and(|p| is_ident(file, p, "std") || is_punct(file, Some(p), ":")));
            if flagged {
                out.push(Diagnostic::at(
                    self.id(),
                    "`Rc` is forbidden in this workspace — use `Arc` (frozen views and \
                     session caches must stay Send + Sync; see PR 4)"
                        .to_string(),
                    &file.rel_path,
                    &file.src,
                    tok,
                ));
            }
        });
    }
}

/// `thread-containment`: no library or binary code spawns threads or
/// queries the thread count. Every algorithm answers one question on the
/// calling thread; only tests, benches and examples may touch
/// `std::thread`.
pub struct ThreadContainment;

impl Rule for ThreadContainment {
    fn id(&self) -> &'static str {
        "thread-containment"
    }
    fn describe(&self) -> &'static str {
        "no `std::thread` outside tests, benches and examples"
    }
    fn check(&self, file: &FileCtx, out: &mut Vec<Diagnostic>) {
        each_code_token(file, |prev2, prev, tok, _| {
            if is_ident(file, tok, "thread")
                && is_punct(file, prev, ":")
                && prev2.is_some_and(|p| is_ident(file, p, "std") || is_punct(file, Some(p), ":"))
                && !file.is_test_code(tok)
            {
                out.push(Diagnostic::at(
                    self.id(),
                    "`std::thread` in non-test code — every answer path is sequential \
                     (one question is polynomial for bounded arity), so results stay \
                     deterministic and no thread count needs tuning"
                        .to_string(),
                    &file.rel_path,
                    &file.src,
                    tok,
                ));
            }
        });
    }
}

/// `safety-comment`: every `unsafe` keyword must sit within
/// [`SAFETY_WINDOW`] lines of a `// SAFETY:` (or `/* SAFETY: */`)
/// comment stating the argument.
pub struct SafetyComment;

/// How many lines above the `unsafe` keyword the safety comment may
/// end — the comment usually annotates the enclosing statement, whose
/// `unsafe` token can be a couple of lines further down after rustfmt
/// wraps it.
pub const SAFETY_WINDOW: u32 = 3;

impl Rule for SafetyComment {
    fn id(&self) -> &'static str {
        "safety-comment"
    }
    fn describe(&self) -> &'static str {
        "every `unsafe` block/fn/impl preceded by a `// SAFETY:` comment"
    }
    fn check(&self, file: &FileCtx, out: &mut Vec<Diagnostic>) {
        for (i, tok) in file.tokens.iter().enumerate() {
            if tok.kind != TokenKind::Ident || file.text(tok) != "unsafe" {
                continue;
            }
            let covered = file.tokens[..i].iter().rev().any(|t| {
                matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                    && t.line + SAFETY_WINDOW >= tok.line
                    && file.text(t).contains("SAFETY:")
            });
            if !covered {
                out.push(Diagnostic::at(
                    self.id(),
                    format!(
                        "`unsafe` without a safety argument — add `// SAFETY: …` within \
                         {SAFETY_WINDOW} lines above stating why this cannot violate memory safety"
                    ),
                    &file.rel_path,
                    &file.src,
                    tok,
                ));
            }
        }
    }
}

/// `no-panic-in-lib`: `unwrap`/`expect`/`panic!`/`unreachable!`/
/// `todo!`/`unimplemented!` are forbidden in the non-test library code
/// of the session-reachable crates — boundary code returns
/// `SessionError`, and provably-infallible uses carry a pragma with the
/// proof.
pub struct NoPanicInLib;

impl Rule for NoPanicInLib {
    fn id(&self) -> &'static str {
        "no-panic-in-lib"
    }
    fn describe(&self) -> &'static str {
        "no unwrap/expect/panic!/unreachable! in non-test lib code of relation/concepts/core/dllite"
    }
    fn check(&self, file: &FileCtx, out: &mut Vec<Diagnostic>) {
        if file.target != Target::LibSrc {
            return;
        }
        let Some(name) = file.crate_name.as_deref() else {
            return;
        };
        if !PANIC_FREE_CRATES.contains(&name) {
            return;
        }
        let idx = file.code_indices();
        for (k, &i) in idx.iter().enumerate() {
            let tok = &file.tokens[i];
            if tok.kind != TokenKind::Ident || file.is_test_code(tok) {
                continue;
            }
            let prev = k.checked_sub(1).map(|p| &file.tokens[idx[p]]);
            let next = idx.get(k + 1).map(|&n| &file.tokens[n]);
            let text = file.text(tok);
            let flagged = match text {
                // `.expect(…)?` is a *Result-returning method* named
                // `expect` (the concept parser has one): the `?` after
                // the call proves it propagates instead of panicking.
                "unwrap" | "expect" => {
                    is_punct(file, prev, ".")
                        && is_punct(file, next, "(")
                        && !call_followed_by_question(file, &idx, k + 1)
                }
                "panic" | "unreachable" | "todo" | "unimplemented" => is_punct(file, next, "!"),
                _ => false,
            };
            if flagged {
                out.push(Diagnostic::at(
                    self.id(),
                    format!(
                        "`{text}` can panic across the session boundary — return a \
                         `SessionError`/`RelError` instead, or prove infallibility in a \
                         `// lint: allow(no-panic-in-lib) — …` pragma"
                    ),
                    &file.rel_path,
                    &file.src,
                    tok,
                ));
            }
        }
    }
}

/// `no-owned-column`: the owned `Instance::column(…)` rebuilds a
/// `BTreeSet<Value>` per call — the quadratic pattern PR 3 eliminated.
/// Non-test code outside `crates/relation` must use the pooled
/// `column_refs`/`column_ids` accessors.
pub struct NoOwnedColumn;

impl Rule for NoOwnedColumn {
    fn id(&self) -> &'static str {
        "no-owned-column"
    }
    fn describe(&self) -> &'static str {
        "owned `Instance::column(…)` only in `crates/relation`; use `column_refs`/`column_ids`"
    }
    fn check(&self, file: &FileCtx, out: &mut Vec<Diagnostic>) {
        if file.crate_name.as_deref() == Some("relation") {
            return;
        }
        each_code_token(file, |_, prev, tok, next| {
            if is_ident(file, tok, "column")
                && is_punct(file, prev, ".")
                && is_punct(file, next, "(")
                && !file.is_test_code(tok)
            {
                out.push(Diagnostic::at(
                    self.id(),
                    "owned `Instance::column(…)` rebuilds the column per call — use the \
                     pooled `column_refs`/`column_ids` accessors (PR 3 killed this \
                     quadratic rebuild in the lub path)"
                        .to_string(),
                    &file.rel_path,
                    &file.src,
                    tok,
                ));
            }
        });
    }
}

/// `deterministic-iteration`: result-producing crates iterate
/// `BTreeMap`/`BTreeSet` so explanations, answer sets, and MGE orders
/// are reproducible run to run. `HashMap`/`HashSet` are allowed only
/// with a pragma proving iteration order never escapes.
pub struct DeterministicIteration;

impl Rule for DeterministicIteration {
    fn id(&self) -> &'static str {
        "deterministic-iteration"
    }
    fn describe(&self) -> &'static str {
        "no `HashMap`/`HashSet` in result-producing lib code; use `BTreeMap`/`BTreeSet`"
    }
    fn check(&self, file: &FileCtx, out: &mut Vec<Diagnostic>) {
        if file.target != Target::LibSrc {
            return;
        }
        let in_scope = match file.crate_name.as_deref() {
            Some(name) => DETERMINISTIC_CRATES.contains(&name),
            None => true, // umbrella crate re-exports results too
        };
        if !in_scope {
            return;
        }
        each_code_token(file, |_, _, tok, _| {
            if tok.kind == TokenKind::Ident
                && matches!(file.text(tok), "HashMap" | "HashSet")
                && !file.is_test_code(tok)
            {
                out.push(Diagnostic::at(
                    self.id(),
                    format!(
                        "`{}` iteration order is nondeterministic — results must be \
                         reproducible; use `BTreeMap`/`BTreeSet`, or pragma-justify that \
                         iteration order never reaches an observable result",
                        file.text(tok)
                    ),
                    &file.rel_path,
                    &file.src,
                    tok,
                ));
            }
        });
    }
}

/// `env-var-registry`: every `WHYNOT_*` string literal (the engine's
/// env knobs are always named via literals, directly or through a
/// `const`) must appear in [`ENV_REGISTRY`]; the workspace runner
/// additionally checks each registry entry is documented in README.md.
pub struct EnvVarRegistry;

impl EnvVarRegistry {
    /// Extracts the `WHYNOT_*` name from a string-literal token's text,
    /// if it holds one.
    fn env_name(text: &str) -> Option<&str> {
        // Strip the quote/prefix syntax: b"…", r#"…"#, "…".
        let inner = text
            .trim_start_matches(['b', 'r', '#'])
            .trim_start_matches('"')
            .trim_end_matches('#')
            .trim_end_matches('"');
        // A bare `"WHYNOT_"` is a prefix (e.g. this rule's own matcher),
        // not a variable name — require at least one character after it.
        (inner.len() > "WHYNOT_".len() && inner.starts_with("WHYNOT_")).then_some(inner)
    }
}

impl Rule for EnvVarRegistry {
    fn id(&self) -> &'static str {
        "env-var-registry"
    }
    fn describe(&self) -> &'static str {
        "every `WHYNOT_*` env literal is declared in the registry and documented in README"
    }
    fn check(&self, file: &FileCtx, out: &mut Vec<Diagnostic>) {
        each_code_token(file, |_, _, tok, _| {
            if !matches!(tok.kind, TokenKind::Str | TokenKind::RawStr) {
                return;
            }
            if let Some(name) = Self::env_name(file.text(tok)) {
                if !ENV_REGISTRY.contains(&name) {
                    out.push(Diagnostic::at(
                        self.id(),
                        format!(
                            "`{name}` is not in the WHYNOT_* env-var registry — declare it \
                             in `whynot_lint::ENV_REGISTRY` and document it in README.md"
                        ),
                        &file.rel_path,
                        &file.src,
                        tok,
                    ));
                }
            }
        });
    }
}

/// Workspace-level half of `env-var-registry`: every declared knob must
/// be documented in the README. Called once by the workspace runner
/// with the README's contents.
pub fn check_env_registry_docs(readme: &str, out: &mut Vec<Diagnostic>) {
    for name in ENV_REGISTRY {
        if !readme.contains(name) {
            out.push(Diagnostic {
                rule: "env-var-registry",
                message: format!(
                    "registry entry `{name}` is not documented in README.md — every \
                     env knob must be discoverable"
                ),
                file: "README.md".to_string(),
                line: 1,
                col: 1,
                byte: 0,
                snippet: String::new(),
            });
        }
    }
}

/// `no-println-in-lib`: library code never writes to stdout/stderr —
/// the CLI, examples, tests, and benches do. A stray `println!` in a
/// hot path is both a perf bug and noise the future server would ship
/// to every tenant.
pub struct NoPrintlnInLib;

impl Rule for NoPrintlnInLib {
    fn id(&self) -> &'static str {
        "no-println-in-lib"
    }
    fn describe(&self) -> &'static str {
        "no `println!`/`eprintln!`/`print!`/`eprint!`/`dbg!` in library code"
    }
    fn check(&self, file: &FileCtx, out: &mut Vec<Diagnostic>) {
        if file.target != Target::LibSrc {
            return;
        }
        each_code_token(file, |_, _, tok, next| {
            if tok.kind == TokenKind::Ident
                && matches!(
                    file.text(tok),
                    "println" | "eprintln" | "print" | "eprint" | "dbg"
                )
                && is_punct(file, next, "!")
                && !file.is_test_code(tok)
            {
                out.push(Diagnostic::at(
                    self.id(),
                    format!(
                        "`{}!` in library code — libraries stay silent; print from the \
                         CLI, an example, or a bench instead",
                        file.text(tok)
                    ),
                    &file.rel_path,
                    &file.src,
                    tok,
                ));
            }
        });
    }
}

/// `mod-doc`: every `src/*.rs` opens with a `//!` module header so the
/// module → paper-section map stays navigable.
pub struct ModDoc;

impl Rule for ModDoc {
    fn id(&self) -> &'static str {
        "mod-doc"
    }
    fn describe(&self) -> &'static str {
        "every `src/*.rs` starts with a `//!` module doc header"
    }
    fn check(&self, file: &FileCtx, out: &mut Vec<Diagnostic>) {
        if !matches!(file.target, Target::LibSrc | Target::BinSrc) {
            return;
        }
        let ok = file.tokens.first().is_some_and(|t| {
            (t.kind == TokenKind::LineComment && file.text(t).starts_with("//!"))
                || (t.kind == TokenKind::BlockComment && file.text(t).starts_with("/*!"))
        });
        if !ok {
            out.push(Diagnostic {
                rule: self.id(),
                message: "file does not start with a `//!` module doc header — say what \
                          the module is and which paper section it implements"
                    .to_string(),
                file: file.rel_path.clone(),
                line: 1,
                col: 1,
                byte: 0,
                snippet: file.src.lines().next().unwrap_or_default().to_string(),
            });
        }
    }
}
