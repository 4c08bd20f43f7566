//! Durability and admission differentials at the `ServerCore` level.
//!
//! The centerpiece is the kill-and-restart differential: one durable
//! server is repeatedly dropped mid-stream and rebuilt from its
//! snapshot + WAL, one reference server never restarts, and every
//! question of a seeded `mutation_stream` is asked through **every**
//! exposed algorithm on both — answers *and* rejections must match
//! exactly at every step. A second test corrupts the WAL tail and pins
//! the recovery contract: replay stops at the last valid record,
//! reports why, and cuts the log back so later writes survive the next
//! restart. A third pins that a cache budget of zero still answers
//! identically to an unbounded server.

use std::collections::BTreeSet;
use whynot_core::{ExplicitOntology, LubKind, WhyNotQuestion, WhyNotSession};
use whynot_relation::wire::delta_to_json;
use whynot_scenarios::generators::{mutation_stream, MutationStep};
use whynot_server::{definition_text, ServerConfig, ServerCore};

fn create_tenant(server: &mut ServerCore, name: &str, definition: &str) {
    let mut out = Vec::new();
    out.extend(server.handle_line(&format!("create {name}")));
    for line in definition.lines() {
        out.extend(server.handle_line(line));
    }
    out.extend(server.handle_line("end"));
    assert_eq!(out.len(), 1);
    assert!(out[0].contains("\"ok\":true"), "create failed: {}", out[0]);
}

/// Asks `q` through every exposed algorithm on both sessions and
/// asserts exact parity — explanations and `SessionError` rejections
/// alike.
fn assert_parity(
    reference: &WhyNotSession<'static, ExplicitOntology>,
    restarted: &WhyNotSession<'static, ExplicitOntology>,
    q: &WhyNotQuestion,
    step: usize,
) {
    assert_eq!(
        reference.exhaustive(q),
        restarted.exhaustive(q),
        "exhaustive diverged at step {step}"
    );
    assert_eq!(
        reference.find_explanation(q),
        restarted.find_explanation(q),
        "find diverged at step {step}"
    );
    for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
        assert_eq!(
            reference.incremental(q, kind),
            restarted.incremental(q, kind),
            "incremental({kind:?}) diverged at step {step}"
        );
    }
    assert_eq!(
        reference.card_maximal_greedy(q),
        restarted.card_maximal_greedy(q),
        "card-greedy diverged at step {step}"
    );
    assert_eq!(
        reference.card_maximal_exact(q),
        restarted.card_maximal_exact(q),
        "card-exact diverged at step {step}"
    );
}

fn tmpdir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("whynot-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

fn durable_config(dir: &str) -> ServerConfig {
    ServerConfig {
        snapshot_dir: Some(dir.to_string()),
        ..ServerConfig::default()
    }
}

#[test]
fn kill_and_restart_matches_uninterrupted_session() {
    let dir = tmpdir("differential");
    let workload = mutation_stream(24, 3, 36, 9);
    let definition = definition_text(&workload.schema, &workload.ontology, &workload.instance);

    let mut reference = ServerCore::new(ServerConfig::default());
    create_tenant(&mut reference, "t", &definition);
    let mut durable = ServerCore::new(durable_config(&dir));
    create_tenant(&mut durable, "t", &definition);

    // Kill-and-restart at fixed points; one mid-stream explicit
    // snapshot so replay covers snapshot+WAL, WAL-only, and
    // fresh-snapshot tails.
    let restarts: BTreeSet<usize> = [9, 18, 27].into_iter().collect();
    let snapshot_at = 18usize;

    for (i, step) in workload.steps.iter().enumerate() {
        if restarts.contains(&i) {
            drop(durable);
            durable = ServerCore::new(durable_config(&dir));
            let out = durable.handle_line("load t");
            assert!(out[0].contains("\"ok\":true"), "load failed: {}", out[0]);
            assert!(
                !out[0].contains("wal_error"),
                "clean log replayed with error: {}",
                out[0]
            );
        }
        if i == snapshot_at {
            let out = durable.handle_line("snapshot t");
            assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
        }
        match step {
            MutationStep::Mutate(delta) => {
                let payload = delta_to_json(&workload.schema, delta).to_string();
                let cmd = format!("mutate t | {payload}");
                let a = reference.handle_line(&cmd);
                let b = durable.handle_line(&cmd);
                assert!(a[0].contains("\"ok\":true"), "{}", a[0]);
                assert!(b[0].contains("\"ok\":true"), "{}", b[0]);
            }
            MutationStep::Ask(q) => {
                let reference_session = reference.session("t").expect("reference resident");
                let restarted_session = durable.session("t").expect("durable resident");
                assert_parity(reference_session, restarted_session, q, i);
            }
        }
    }

    // One final restart after the full stream, then a last sweep.
    drop(durable);
    let mut durable = ServerCore::new(durable_config(&dir));
    durable.handle_line("load t");
    for (i, step) in workload.steps.iter().enumerate() {
        if let MutationStep::Ask(q) = step {
            assert_parity(
                reference.session("t").expect("reference resident"),
                durable.session("t").expect("durable resident"),
                q,
                i,
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_wal_tail_recovers_to_last_valid_record() {
    let dir = tmpdir("corrupt-tail");
    let workload = mutation_stream(18, 3, 30, 21);
    let definition = definition_text(&workload.schema, &workload.ontology, &workload.instance);

    let mut durable = ServerCore::new(durable_config(&dir));
    create_tenant(&mut durable, "t", &definition);
    let mut reference = ServerCore::new(ServerConfig::default());
    create_tenant(&mut reference, "t", &definition);

    // Apply the stream's first three deltas; mirror only two on the
    // reference — the third becomes the corrupted tail.
    let deltas: Vec<_> = workload
        .steps
        .iter()
        .filter_map(|s| match s {
            MutationStep::Mutate(d) => Some(d),
            _ => None,
        })
        .take(3)
        .collect();
    assert_eq!(deltas.len(), 3, "workload seed must produce ≥3 deltas");
    for (i, delta) in deltas.iter().enumerate() {
        let payload = delta_to_json(&workload.schema, delta).to_string();
        let out = durable.handle_line(&format!("mutate t | {payload}"));
        assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
        if i < 2 {
            let out = reference.handle_line(&format!("mutate t | {payload}"));
            assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
        }
    }

    // Tear the last WAL record in half.
    drop(durable);
    let wal = std::path::Path::new(&dir).join("t.wal");
    let text = std::fs::read_to_string(&wal).expect("wal exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    let torn = format!(
        "{}\n{}\n{}",
        lines[0],
        lines[1],
        &lines[2][..lines[2].len() / 2]
    );
    std::fs::write(&wal, torn).expect("rewrite wal");

    let mut durable = ServerCore::new(durable_config(&dir));
    let out = durable.handle_line("load t");
    assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
    assert!(out[0].contains("\"replayed\":2"), "{}", out[0]);
    assert!(out[0].contains("wal_error"), "{}", out[0]);
    assert!(out[0].contains("stopped after seq 2"), "{}", out[0]);

    // The recovered state equals the reference that applied exactly
    // the two surviving deltas.
    for step in &workload.steps {
        if let MutationStep::Ask(q) = step {
            assert_parity(
                reference.session("t").expect("reference resident"),
                durable.session("t").expect("durable resident"),
                q,
                0,
            );
        }
    }

    // A write acknowledged after the recovery survives the next restart:
    // the load cut the torn record off the log, so the new record is not
    // appended behind it.
    let payload = delta_to_json(&workload.schema, deltas[2]).to_string();
    for server in [&mut durable, &mut reference] {
        let out = server.handle_line(&format!("mutate t | {payload}"));
        assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
    }
    drop(durable);
    let mut durable = ServerCore::new(durable_config(&dir));
    let out = durable.handle_line("load t");
    assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
    assert!(out[0].contains("\"replayed\":3"), "{}", out[0]);
    assert!(!out[0].contains("wal_error"), "{}", out[0]);
    for step in &workload.steps {
        if let MutationStep::Ask(q) = step {
            assert_parity(
                reference.session("t").expect("reference resident"),
                durable.session("t").expect("durable resident"),
                q,
                1,
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_cache_budget_server_answers_identically() {
    let workload = mutation_stream(16, 2, 20, 5);
    let definition = definition_text(&workload.schema, &workload.ontology, &workload.instance);

    let mut unbounded = ServerCore::new(ServerConfig::default());
    create_tenant(&mut unbounded, "t", &definition);
    let mut pinched = ServerCore::new(ServerConfig {
        cache_budget: 0,
        ..ServerConfig::default()
    });
    create_tenant(&mut pinched, "t", &definition);

    for (i, step) in workload.steps.iter().enumerate() {
        match step {
            MutationStep::Mutate(delta) => {
                let payload = delta_to_json(&workload.schema, delta).to_string();
                let cmd = format!("mutate t | {payload}");
                assert!(unbounded.handle_line(&cmd)[0].contains("\"ok\":true"));
                assert!(pinched.handle_line(&cmd)[0].contains("\"ok\":true"));
            }
            MutationStep::Ask(q) => assert_parity(
                unbounded.session("t").expect("resident"),
                pinched.session("t").expect("resident"),
                q,
                i,
            ),
        }
    }
    // The pinched server really ran cache-less.
    let stats = pinched.handle_line("stats t");
    assert!(stats[0].contains("\"cached_queries\":0"), "{}", stats[0]);
    assert!(stats[0].contains("\"cached_lubs\":0"), "{}", stats[0]);
}
