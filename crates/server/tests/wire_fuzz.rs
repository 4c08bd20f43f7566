//! Wire-protocol fuzzing: one-edit variants of the smoke script fed to
//! `ServerCore::handle_line`.
//!
//! Every command line after the smoke script's `create` blocks, and
//! every body line of its `create alpha` definition, is mutated into
//! all of its prefixes, single-character deletions and single-character
//! substitutions from a fixed alphabet of protocol punctuation, a digit,
//! an identifier letter and a non-ASCII character. Each variant runs
//! against a fresh server set up with the script's tenants. The server
//! must never panic, every response line must be one well-formed JSON
//! object carrying an `ok` flag, a non-blank command other than `run`
//! must answer with exactly one line, and `ping` must still answer
//! afterwards. A variant must not reach a tenant its line does not
//! name: a fixed question to such a tenant answers with the same payload
//! as on a server that never saw the variant.

use std::panic::{catch_unwind, AssertUnwindSafe};
use whynot_relation::json::Json;
use whynot_server::{ServerConfig, ServerCore};

const SMOKE: &str = include_str!("data/smoke.in");

/// Substitution alphabet: the protocol's separators and brackets, a
/// quote, a digit, a variable-like letter and a multi-byte character.
const ALPHABET: [char; 12] = ['|', ',', '(', ')', '"', '[', ']', '{', '}', '0', 'X', 'é'];

/// The smoke script split into its `create` blocks (each block's lines,
/// `create` through `end`) and the command lines after the last block.
fn split_script() -> (Vec<Vec<&'static str>>, Vec<&'static str>) {
    let mut blocks: Vec<Vec<&str>> = Vec::new();
    let mut commands = Vec::new();
    let mut open: Option<Vec<&str>> = None;
    for line in SMOKE.lines() {
        if let Some(block) = open.as_mut() {
            block.push(line);
            if line.trim() == "end" {
                blocks.extend(open.take());
            }
        } else if line.starts_with("create ") {
            open = Some(vec![line]);
            commands.clear();
        } else if !line.trim().is_empty() && !line.starts_with('#') {
            commands.push(line);
        }
    }
    (blocks, commands)
}

/// Every prefix, single-character deletion and single-character
/// substitution of `line`.
fn variants(line: &str) -> Vec<String> {
    let chars: Vec<char> = line.chars().collect();
    let mut out = Vec::new();
    for i in 0..chars.len() {
        out.push(chars[..i].iter().collect());
        out.push(chars[..i].iter().chain(&chars[i + 1..]).collect());
        for &c in &ALPHABET {
            if c != chars[i] {
                let mut edited = chars.clone();
                edited[i] = c;
                out.push(edited.into_iter().collect());
            }
        }
    }
    out
}

/// Feeds one line, failing with the offending line on a panic or a
/// malformed response.
fn feed(server: &mut ServerCore, line: &str) -> Vec<String> {
    let responses = catch_unwind(AssertUnwindSafe(|| server.handle_line(line)))
        .unwrap_or_else(|_| panic!("server panicked on {line:?}"));
    for response in &responses {
        let json = Json::parse(response)
            .unwrap_or_else(|e| panic!("malformed response {response:?} to {line:?}: {e:?}"));
        assert!(
            matches!(json.get("ok"), Some(Json::Bool(_))),
            "response {response:?} to {line:?} has no ok flag"
        );
    }
    responses
}

/// Whether `line` is a command that must answer with exactly one line.
fn answers_once(line: &str) -> bool {
    let trimmed = line.trim();
    !trimmed.is_empty() && !trimmed.starts_with('#') && trimmed != "run"
}

fn assert_ping_answers(server: &mut ServerCore, after: &str) {
    let pong = feed(server, "ping");
    assert_eq!(
        pong,
        vec![r#"{"ok":true,"command":"ping"}"#.to_string()],
        "ping after {after:?}"
    );
}

/// A fresh server with the given `create` blocks fed to it.
fn server_with(blocks: &[Vec<&str>]) -> ServerCore {
    let mut server = ServerCore::new(ServerConfig::default());
    for line in blocks.iter().flatten() {
        feed(&mut server, line);
    }
    server
}

#[test]
fn command_line_variants_never_break_the_protocol() {
    let (blocks, commands) = split_script();
    assert_eq!(blocks.len(), 2, "smoke script defines alpha and beta");
    assert!(commands.len() > 10, "smoke script has its command section");
    let mut fed = 0usize;
    for command in &commands {
        for variant in variants(command) {
            let mut server = server_with(&blocks);
            let responses = feed(&mut server, &variant);
            if answers_once(&variant) {
                assert_eq!(responses.len(), 1, "{variant:?} answered {responses:?}");
            }
            // Runs whatever a mutated `enqueue` admitted.
            feed(&mut server, "run");
            assert_ping_answers(&mut server, &variant);
            fed += 1;
        }
    }
    assert!(fed > 5_000, "only {fed} command variants");
}

/// A fixed question per smoke tenant, asked to check that a variant
/// addressed elsewhere left the tenant as it was.
const FIXED_ASKS: [(&str, &str); 2] = [
    ("alpha", "ask alpha exhaustive | q(X) <- City(X, R) | Kyoto"),
    ("beta", "ask beta exhaustive | q(X) <- Host(X) | hub2"),
];

#[test]
fn command_line_variants_leave_other_tenants_untouched() {
    let (blocks, commands) = split_script();
    let untouched: Vec<Vec<String>> = FIXED_ASKS
        .iter()
        .map(|(_, ask)| feed(&mut server_with(&blocks), ask))
        .collect();
    let mut checked = 0usize;
    for command in &commands {
        let named = command.split_whitespace().nth(1);
        for variant in variants(command) {
            let mut server = server_with(&blocks);
            feed(&mut server, &variant);
            feed(&mut server, "run");
            for ((tenant, ask), expected) in FIXED_ASKS.iter().zip(&untouched) {
                if named == Some(*tenant) {
                    continue;
                }
                let answer = feed(&mut server, ask);
                assert_eq!(&answer, expected, "{ask:?} after {variant:?}");
                checked += 1;
            }
        }
    }
    assert!(checked > 5_000, "only {checked} isolation checks");
}

#[test]
fn definition_line_variants_never_break_the_protocol() {
    let (blocks, _) = split_script();
    let alpha = &blocks[0];
    assert_eq!(alpha[0], "create alpha");
    let body = &alpha[1..alpha.len() - 1];
    let mut fed = 0usize;
    for (i, line) in body.iter().enumerate() {
        for variant in variants(line) {
            let mut server = ServerCore::new(ServerConfig::default());
            assert!(feed(&mut server, "create alpha").is_empty());
            for (j, original) in body.iter().enumerate() {
                let line = if i == j { variant.as_str() } else { original };
                assert!(feed(&mut server, line).is_empty(), "body line {line:?}");
            }
            let created = feed(&mut server, "end");
            assert_eq!(created.len(), 1, "end after {variant:?}");
            // Whether or not the mutated definition was accepted, a
            // question against it answers once.
            let asked = feed(
                &mut server,
                "ask alpha exhaustive | q(X) <- City(X, R) | Kyoto",
            );
            assert_eq!(asked.len(), 1, "ask after {variant:?}");
            assert_ping_answers(&mut server, &variant);
            fed += 1;
        }
    }
    assert!(fed > 2_000, "only {fed} definition variants");
}
