//! Fixture-driven rule tests: every rule has one firing and one clean
//! sample under `tests/fixtures/<rule>/`, linted via [`lint_source`]
//! under a virtual path inside the rule's scope. Scope tests re-lint
//! the firing fixtures under *out-of-scope* paths and expect silence,
//! and the pragma fixtures pin down the suppression layer's contract
//! (mandatory justification, one-finding-per-pragma, the wrapped-
//! justification anchor, unused-pragma rejection).

use whynot_lint::{lint_source, Diagnostic};

/// The default virtual home for fixtures: non-test library source of a
/// panic-free, determinism-required crate — the strictest scope.
const LIB: &str = "crates/core/src/fixture.rs";

/// Asserts the fixture produces at least one finding, all of `rule`.
fn assert_fires(rule: &str, rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let found = lint_source(rel_path, src);
    assert!(
        !found.is_empty(),
        "{rule}: firing fixture produced no findings"
    );
    for d in &found {
        assert_eq!(d.rule, rule, "{rule}: unexpected finding {d:?}");
    }
    found
}

/// Asserts the fixture produces no findings at all.
fn assert_clean(rel_path: &str, src: &str) {
    let found = lint_source(rel_path, src);
    assert!(found.is_empty(), "expected clean, got {found:?}");
}

#[test]
fn no_rc() {
    let found = assert_fires("no-rc", LIB, include_str!("fixtures/no-rc/firing.rs"));
    // `use std::rc::Rc` + the field type: both the path segment and the
    // type name fire.
    assert!(found.len() >= 2, "expected path + type findings: {found:?}");
    assert_clean(LIB, include_str!("fixtures/no-rc/clean.rs"));
}

#[test]
fn thread_containment() {
    assert_fires(
        "thread-containment",
        LIB,
        include_str!("fixtures/thread-containment/firing.rs"),
    );
    assert_clean(LIB, include_str!("fixtures/thread-containment/clean.rs"));
}

#[test]
fn thread_fires_under_the_former_parallel_crate_path() {
    // No crate is exempt: the path that used to host the executor gets
    // the same finding as any other library file.
    assert_fires(
        "thread-containment",
        "crates/parallel/src/fixture.rs",
        include_str!("fixtures/thread-containment/firing.rs"),
    );
}

#[test]
fn safety_comment() {
    assert_fires(
        "safety-comment",
        LIB,
        include_str!("fixtures/safety-comment/firing.rs"),
    );
    assert_clean(LIB, include_str!("fixtures/safety-comment/clean.rs"));
}

#[test]
fn no_panic_in_lib() {
    let found = assert_fires(
        "no-panic-in-lib",
        LIB,
        include_str!("fixtures/no-panic-in-lib/firing.rs"),
    );
    assert_eq!(found.len(), 3, "unwrap + expect + unreachable!: {found:?}");
    assert_clean(LIB, include_str!("fixtures/no-panic-in-lib/clean.rs"));
}

#[test]
fn panics_allowed_in_test_targets() {
    // Whole-file exemption: tests/, benches/, examples/ may panic.
    for dir in ["tests", "benches", "examples"] {
        assert_clean(
            &format!("crates/core/{dir}/fixture.rs"),
            include_str!("fixtures/no-panic-in-lib/firing.rs"),
        );
    }
}

#[test]
fn panics_allowed_outside_panic_free_crates() {
    // `scenarios` is not on the panic-free list.
    assert_clean(
        "crates/scenarios/src/fixture.rs",
        include_str!("fixtures/no-panic-in-lib/firing.rs"),
    );
}

#[test]
fn no_owned_column() {
    assert_fires(
        "no-owned-column",
        LIB,
        include_str!("fixtures/no-owned-column/firing.rs"),
    );
    assert_clean(LIB, include_str!("fixtures/no-owned-column/clean.rs"));
}

#[test]
fn owned_column_allowed_inside_relation_crate() {
    // The accessor's home crate may call it.
    assert_clean(
        "crates/relation/src/fixture.rs",
        include_str!("fixtures/no-owned-column/firing.rs"),
    );
}

#[test]
fn deterministic_iteration() {
    assert_fires(
        "deterministic-iteration",
        LIB,
        include_str!("fixtures/deterministic-iteration/firing.rs"),
    );
    assert_clean(
        LIB,
        include_str!("fixtures/deterministic-iteration/clean.rs"),
    );
}

#[test]
fn hash_maps_allowed_in_lint_crate() {
    // `whynot-lint` produces no engine results; it is out of scope.
    assert_clean(
        "crates/lint/src/fixture.rs",
        include_str!("fixtures/deterministic-iteration/firing.rs"),
    );
}

#[test]
fn env_var_registry() {
    let found = assert_fires(
        "env-var-registry",
        LIB,
        include_str!("fixtures/env-var-registry/firing.rs"),
    );
    // lint: allow(env-var-registry) — this test deliberately names the
    // unregistered knob to assert the diagnostic reports it.
    assert!(
        found[0].message.contains("WHYNOT_SECRET_KNOB"),
        "message names the knob: {found:?}"
    );
    assert_clean(LIB, include_str!("fixtures/env-var-registry/clean.rs"));
}

#[test]
fn no_println_in_lib() {
    let found = assert_fires(
        "no-println-in-lib",
        LIB,
        include_str!("fixtures/no-println-in-lib/firing.rs"),
    );
    assert_eq!(found.len(), 2, "println! + dbg!: {found:?}");
    assert_clean(LIB, include_str!("fixtures/no-println-in-lib/clean.rs"));
}

#[test]
fn mod_doc() {
    assert_fires("mod-doc", LIB, include_str!("fixtures/mod-doc/firing.rs"));
    assert_clean(LIB, include_str!("fixtures/mod-doc/clean.rs"));
}

#[test]
fn mod_doc_not_required_outside_src() {
    assert_clean(
        "crates/core/tests/fixture.rs",
        include_str!("fixtures/mod-doc/firing.rs"),
    );
}

// ---- pragma layer ----

#[test]
fn pragma_justified_waives_exactly_one_finding() {
    assert_clean(LIB, include_str!("fixtures/pragma/justified.rs"));
    assert_clean(LIB, include_str!("fixtures/pragma/trailing.rs"));
}

#[test]
fn pragma_window_anchors_at_end_of_wrapped_justification() {
    // The flagged call sits 4 lines below the pragma's first line but
    // within WINDOW of the comment block's last line.
    assert_clean(LIB, include_str!("fixtures/pragma/wrapped.rs"));
}

#[test]
fn pragma_without_justification_is_rejected_and_waives_nothing() {
    let found = lint_source(LIB, include_str!("fixtures/pragma/unjustified.rs"));
    assert!(
        found
            .iter()
            .any(|d| d.rule == "pragma" && d.message.contains("justification")),
        "missing-justification finding: {found:?}"
    );
    assert!(
        found.iter().any(|d| d.rule == "no-panic-in-lib"),
        "the original finding must survive: {found:?}"
    );
}

#[test]
fn pragma_naming_unknown_rule_is_rejected() {
    let found = lint_source(LIB, include_str!("fixtures/pragma/unknown-rule.rs"));
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "pragma");
    assert!(found[0].message.contains("unknown rule"), "{found:?}");
}

#[test]
fn unused_pragma_is_rejected() {
    let found = lint_source(LIB, include_str!("fixtures/pragma/unused.rs"));
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "pragma");
    assert!(found[0].message.contains("unused"), "{found:?}");
}

// ---- lexer shielding ----

#[test]
fn strings_and_comments_shield_banned_tokens() {
    let src = "//! Module doc.\n\n\
               /* nested /* Rc */ std::thread */\n\
               /// Returns text mentioning every banned token.\n\
               pub fn f() -> &'static str {\n    \
               \"Rc std::thread panic! HashMap println! WHYNOT_\"\n\
               }\n";
    assert_clean(LIB, src);
}

#[test]
fn raw_strings_chars_and_lifetimes_lex_cleanly() {
    let src = "//! Module doc.\n\n\
               /// Exercises raw strings, escaped chars, and lifetimes.\n\
               pub fn f() -> u32 {\n    \
               let _s = r#\"Rc \"quoted\" HashMap\"#;\n    \
               let _c = '\\'';\n    \
               let _l: &'static str = \"x\";\n    \
               b'\\n' as u32\n\
               }\n";
    assert_clean(LIB, src);
}
