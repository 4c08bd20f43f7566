//! The bench matrix: one row per (scenario, algorithm, path) of shipped
//! code, each timed against the fixed calibration kernel
//! [`whynot_bench::calibrate`] in the same process.
//!
//! Before anything is timed, every row's answers are checked against a
//! second shipped path over the same workload: one-shot search against
//! the session, a live session against a rebuild per mutation, the wire
//! against direct sessions, the OBDA pipeline against one-shots over its
//! rewriting. Then the rows are sampled in [`ROUNDS`] interleaved
//! rounds, each row sample taken just after a calibration sample. A
//! sample repeats a row's call until it covers about [`SAMPLE_NS`].
//!
//! `calibration_ns` is the median of all calibration samples. A row's
//! `ns` is the median of its samples after each is rescaled by the
//! calibration sample just before it (`sample × calibration_ns / cal`),
//! so `ns / calibration_ns` is the median ratio of a row sample to its
//! neighbouring kernel sample. Host noise on a shared box drifts within
//! a run, and the adjacent ratio cancels it where a ratio of whole-run
//! medians does not (CHANGES.md has the measured spreads of both).
//!
//! Run with `cargo bench -p whynot-bench --bench matrix`. The summary
//! lands in `BENCH_matrix.json` at the workspace root and holds only
//! integers beside the row names: each row's `ns` and counts, and
//! `calibration_ns`. `bench-check` gates each row's
//! `ns / calibration_ns` against the committed summary's.

use std::hint::black_box;
use std::time::Instant;
use whynot_bench::calibrate;
use whynot_core::{
    card_maximal_exact, card_maximal_greedy, contrast_instance, exhaustive_search,
    incremental_search_kind, obda_contrast, ConceptName, ContrastAnswer, ContrastQuestion,
    Explanation, LubKind, SessionError, WhyNotInstance, WhyNotQuestion, WhyNotSession,
};
use whynot_relation::json::Json;
use whynot_relation::wire::delta_to_json;
use whynot_scenarios::contrast::{
    city_contrast_workload, obda_contrast_workload, retail_contrast_workload, ContrastWorkload,
    ObdaContrastWorkload,
};
use whynot_scenarios::generators::{
    batched_city_workload, city_network, modal_mutation_stream, mutation_stream, BatchedWorkload,
    MutationStep, MutationWorkload,
};
use whynot_server::{definition_text, explanation_to_json, ServerConfig, ServerCore, ServerError};

/// Interleaved sampling rounds; a row's figure is the median of this
/// many samples.
const ROUNDS: usize = 15;

/// A sample repeats a row's call until it covers about this long, so
/// microsecond rows are not timed at the clock's granularity.
const SAMPLE_NS: u128 = 2_000_000;

type Exhaustive = Result<Vec<Explanation<ConceptName>>, SessionError>;
type Card = Result<Option<Explanation<ConceptName>>, SessionError>;

/// One timed row: its name, the integer counts that describe its
/// workload, and the call that is timed.
struct Row<'a> {
    name: &'static str,
    counts: Vec<(&'static str, usize)>,
    call: Box<dyn FnMut() + 'a>,
}

impl<'a> Row<'a> {
    fn new(name: &'static str, counts: &[(&'static str, usize)], call: impl FnMut() + 'a) -> Self {
        Row {
            name,
            counts: counts.to_vec(),
            call: Box::new(call),
        }
    }
}

// ---------------------------------------------------------------------
// Workload drivers. Each returns the answers it computed, so parity can
// be asserted on the exact call that is later timed.
// ---------------------------------------------------------------------

/// Answers every question of a batch through one shared session.
fn session_stream(w: &BatchedWorkload) -> Vec<Exhaustive> {
    let session = WhyNotSession::new(&w.ontology, &w.schema, &w.instance);
    w.questions.iter().map(|q| session.exhaustive(q)).collect()
}

/// A `>card` search for every question of a batch through one shared
/// session: the exact branch-and-bound or the greedy heuristic.
fn card_stream(w: &BatchedWorkload, exact: bool) -> Vec<Card> {
    let session = WhyNotSession::new(&w.ontology, &w.schema, &w.instance);
    w.questions
        .iter()
        .map(|q| {
            if exact {
                session.card_maximal_exact(q)
            } else {
                session.card_maximal_greedy(q)
            }
        })
        .collect()
}

/// Builds the one-shot `WhyNotInstance` of a workload question (which
/// evaluates the query).
fn one_shot_instance(w: &BatchedWorkload, q: &WhyNotQuestion) -> WhyNotInstance {
    WhyNotInstance::new(
        w.schema.clone(),
        w.instance.clone(),
        q.query.clone(),
        q.tuple.clone(),
    )
    .expect("workload questions are valid")
}

/// Answers every question of a batch one-shot: a fresh `WhyNotInstance`
/// (which evaluates the query) and `exhaustive_search` (which builds a
/// fresh evaluation context) per question.
fn fresh_stream(w: &BatchedWorkload) -> Vec<Exhaustive> {
    w.questions
        .iter()
        .map(|q| Ok(exhaustive_search(&w.ontology, &one_shot_instance(w, q))))
        .collect()
}

/// One long-lived session, deltas folded in with `apply_delta`.
fn live_session(w: &MutationWorkload) -> Vec<Exhaustive> {
    let mut session = WhyNotSession::new(&w.ontology, &w.schema, &w.instance);
    let mut out = Vec::new();
    for step in &w.steps {
        match step {
            MutationStep::Mutate(delta) => {
                session.apply_delta(delta).expect("generated delta");
            }
            MutationStep::Ask(q) => out.push(session.exhaustive(q)),
        }
    }
    out
}

/// Materializes each delta, then answers the questions that follow it
/// with a cold session.
fn rebuild_per_mutation(w: &MutationWorkload) -> Vec<Exhaustive> {
    let mut current = w.instance.clone();
    let mut out = Vec::new();
    let mut steps = w.steps.iter().peekable();
    while steps.peek().is_some() {
        while let Some(MutationStep::Mutate(delta)) = steps.peek() {
            current = current.apply_delta(delta).instance;
            steps.next();
        }
        let session = WhyNotSession::new(&w.ontology, &w.schema, &current);
        while let Some(MutationStep::Ask(q)) = steps.peek() {
            out.push(session.exhaustive(q));
            steps.next();
        }
    }
    out
}

// ---------------------------------------------------------------------
// The server wire stream.
// ---------------------------------------------------------------------

/// One `run` drain per this many interleaved rounds: small enough that
/// the default queue depth (64) never overflows, large enough that
/// every `run` drains several fair-share rounds.
const DRAIN_EVERY: usize = 8;

fn tenant_name(i: usize) -> String {
    format!("t{i}")
}

/// The wire `enqueue` line for a workload question. The three
/// `city_query_shapes` differ in head arity, so the missing tuple's
/// length picks the rule.
fn enqueue_line(tenant: &str, q: &WhyNotQuestion) -> String {
    let rule = match q.tuple.len() {
        1 => "q(X) <- Train-Connections(X, Z), Train-Connections(Z, X)",
        2 => "q(X, Y) <- Train-Connections(X, Z), Train-Connections(Z, Y)",
        _ => "q(X, Y, Z) <- Train-Connections(X, Y), Train-Connections(Y, Z)",
    };
    let missing: Vec<String> = q.tuple.iter().map(|v| v.to_string()).collect();
    format!(
        "enqueue {tenant} exhaustive | {rule} | {}",
        missing.join(", ")
    )
}

/// Boots a server with every workload resident as a tenant, then drives
/// all streams through the wire round-robin (step `i` of every tenant, a
/// `run` every [`DRAIN_EVERY`] rounds). Returns every response line.
fn serve_streams(workloads: &[MutationWorkload]) -> Vec<String> {
    let mut server = ServerCore::new(ServerConfig::default());
    for (i, w) in workloads.iter().enumerate() {
        let definition = definition_text(&w.schema, &w.ontology, &w.instance);
        let mut out = server.handle_line(&format!("create {}", tenant_name(i)));
        for line in definition.lines() {
            out.extend(server.handle_line(line));
        }
        out.extend(server.handle_line("end"));
        assert!(out[0].contains("\"ok\":true"), "create failed: {}", out[0]);
    }
    let rounds = workloads.iter().map(|w| w.steps.len()).max().unwrap_or(0);
    let mut out = Vec::new();
    for i in 0..rounds {
        for (t, w) in workloads.iter().enumerate() {
            let line = match w.steps.get(i) {
                Some(MutationStep::Mutate(delta)) => format!(
                    "mutate {} | {}",
                    tenant_name(t),
                    delta_to_json(&w.schema, delta)
                ),
                Some(MutationStep::Ask(q)) => enqueue_line(&tenant_name(t), q),
                None => continue,
            };
            out.extend(server.handle_line(&line));
        }
        if i % DRAIN_EVERY == DRAIN_EVERY - 1 {
            out.extend(server.handle_line("run"));
        }
    }
    out.extend(server.handle_line("run"));
    out
}

/// The same streams against direct sessions, under the server's
/// deferred-drain semantics (mutations apply at once, questions wait for
/// the drain point). Returns, per question in enqueue order, the payload
/// the server should emit: the explanation array, or the error kind.
fn direct_streams(workloads: &[MutationWorkload]) -> Vec<String> {
    let mut sessions: Vec<WhyNotSession<'_, _>> = workloads
        .iter()
        .map(|w| WhyNotSession::new(&w.ontology, &w.schema, &w.instance))
        .collect();
    let rounds = workloads.iter().map(|w| w.steps.len()).max().unwrap_or(0);
    let mut out = Vec::new();
    let mut buffered: Vec<(usize, &WhyNotQuestion)> = Vec::new();
    let drain = |buffered: &mut Vec<(usize, &WhyNotQuestion)>,
                 sessions: &[WhyNotSession<'_, _>],
                 out: &mut Vec<String>| {
        for (t, q) in buffered.drain(..) {
            out.push(match sessions[t].exhaustive(q) {
                Ok(es) => Json::Arr(
                    es.iter()
                        .map(|e| explanation_to_json(&workloads[t].ontology, e))
                        .collect(),
                )
                .to_string(),
                Err(e) => ServerError::from(e).kind().to_string(),
            });
        }
    };
    for i in 0..rounds {
        for (t, w) in workloads.iter().enumerate() {
            match w.steps.get(i) {
                Some(MutationStep::Mutate(delta)) => {
                    sessions[t].apply_delta(delta).expect("generated delta");
                }
                Some(MutationStep::Ask(q)) => buffered.push((t, q)),
                None => {}
            }
        }
        if i % DRAIN_EVERY == DRAIN_EVERY - 1 {
            drain(&mut buffered, &sessions, &mut out);
        }
    }
    drain(&mut buffered, &sessions, &mut out);
    out
}

/// The comparable payload of each wire `result` line, in ticket order
/// (`run` drains fair-share rounds, so result order is not enqueue
/// order).
fn wire_payloads(lines: &[String]) -> Vec<String> {
    let mut results = Vec::new();
    for line in lines {
        let doc = Json::parse(line).expect("response line is JSON");
        if doc.get("command").and_then(Json::as_str) != Some("result") {
            assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "rejected: {line}");
            continue;
        }
        let ticket = doc
            .get("ticket")
            .and_then(Json::as_int)
            .expect("result has ticket");
        let payload = match doc.get("explanations") {
            Some(arr) => arr.to_string(),
            None => doc
                .get("kind")
                .and_then(Json::as_str)
                .expect("error result has kind")
                .to_string(),
        };
        results.push((ticket, payload));
    }
    results.sort();
    for (i, (ticket, _)) in results.iter().enumerate() {
        assert_eq!(*ticket, i as i128, "ticket order broke");
    }
    results.into_iter().map(|(_, payload)| payload).collect()
}

// ---------------------------------------------------------------------
// Contrast and OBDA.
// ---------------------------------------------------------------------

const KIND: LubKind = LubKind::WithSelections;

fn contrast_one_shot(w: &ContrastWorkload, kind: LubKind) -> Vec<ContrastAnswer> {
    w.questions
        .iter()
        .map(|q| contrast_instance(&w.schema, &w.instance, q, kind).expect("valid workload"))
        .collect()
}

fn contrast_session(w: &ContrastWorkload, kind: LubKind) -> Vec<ContrastAnswer> {
    let session = WhyNotSession::new(&w.ontology, &w.schema, &w.instance);
    w.questions
        .iter()
        .map(|q| (*session.contrast(q, kind).expect("valid workload")).clone())
        .collect()
}

/// `obda_contrast` per pair, PerfectRef rewriting included.
fn obda_pipeline(w: &ObdaContrastWorkload) -> Vec<ContrastAnswer> {
    w.pairs
        .iter()
        .map(|(missing, foil)| {
            obda_contrast(
                &w.spec,
                &w.schema,
                &w.instance,
                &w.query,
                missing.clone(),
                foil.clone(),
                KIND,
            )
            .expect("valid workload")
            .answer
        })
        .collect()
}

/// `contrast_instance` per pair over the pre-rewritten UCQ.
fn obda_rewritten(w: &ObdaContrastWorkload, questions: &[ContrastQuestion]) -> Vec<ContrastAnswer> {
    questions
        .iter()
        .map(|q| contrast_instance(&w.schema, &w.instance, q, KIND).expect("valid workload"))
        .collect()
}

// ---------------------------------------------------------------------
// Sampling.
// ---------------------------------------------------------------------

/// Nanoseconds per call over `iters` back-to-back calls.
fn sample(call: &mut dyn FnMut(), iters: u32) -> u128 {
    let start = Instant::now();
    for _ in 0..iters {
        call();
    }
    start.elapsed().as_nanos() / u128::from(iters)
}

fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let mut calibration = || {
        black_box(calibrate());
    };

    // The live-delta stream keeps to 192 cities so that its rebuild row
    // (about 0.2 s a call) does not dominate the run.
    let net = city_network(768, 8, 42);
    let wn = &net.why_not;
    let question = WhyNotQuestion::new(wn.query.clone(), wn.tuple.clone());
    let warm = WhyNotSession::new(&net.ontology, &wn.schema, &wn.instance);
    let free_net = city_network(384, 8, 42);
    let sigma_net = city_network(96, 8, 42);
    let batch = batched_city_workload(384, 8, 200, 42);
    let modal = modal_mutation_stream(192, 12, 48, 2, 2400, 42);
    let tenants: Vec<MutationWorkload> = (0..8)
        .map(|t| mutation_stream(64, 4, 240, 0xbe5c + t))
        .collect();
    let city = city_contrast_workload(48, 4, 32, 42);
    let retail = retail_contrast_workload(24, 12, 4, 3, 32, 42);
    let obda = obda_contrast_workload(30, 12, 42);
    let obda_questions: Vec<ContrastQuestion> = obda
        .pairs
        .iter()
        .map(|(missing, foil)| {
            ContrastQuestion::new(obda.rewritten.clone(), missing.clone(), foil.clone())
        })
        .collect();

    // Parity before timing: every pair of paths agrees on every answer.
    let one_shot = exhaustive_search(&net.ontology, wn);
    assert_eq!(
        warm.exhaustive(&question).unwrap(),
        one_shot,
        "warm session"
    );
    for (n, net) in [(384, &free_net), (96, &sigma_net)] {
        let wn = &net.why_not;
        let session = WhyNotSession::new(&net.ontology, &wn.schema, &wn.instance);
        let q = WhyNotQuestion::new(wn.query.clone(), wn.tuple.clone());
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            assert_eq!(
                session.incremental(&q, kind).unwrap(),
                incremental_search_kind(wn, kind),
                "incremental {kind:?} at {n} cities"
            );
        }
    }
    let batch_answers = session_stream(&batch);
    assert_eq!(
        batch_answers,
        fresh_stream(&batch),
        "batched session vs fresh"
    );
    let greedy_answers = card_stream(&batch, false);
    let exact_answers = card_stream(&batch, true);
    for (i, q) in batch.questions.iter().enumerate() {
        let wn = one_shot_instance(&batch, q);
        let one_shot =
            [card_maximal_greedy, card_maximal_exact].map(|f| Ok(f(&batch.ontology, &wn)));
        let session = [&greedy_answers[i], &exact_answers[i]].map(Clone::clone);
        assert_eq!(
            session, one_shot,
            "batched card greedy, exact {:?}",
            q.tuple
        );
    }
    let found = |answers: &[Card]| answers.iter().filter(|a| matches!(a, Ok(Some(_)))).count();
    let modal_answers = live_session(&modal);
    assert_eq!(
        modal_answers,
        rebuild_per_mutation(&modal),
        "live vs rebuild"
    );
    let direct = direct_streams(&tenants);
    assert_eq!(
        wire_payloads(&serve_streams(&tenants)),
        direct,
        "wire vs direct"
    );
    for (name, w) in [("city", &city), ("retail", &retail)] {
        assert_eq!(
            contrast_session(w, KIND),
            contrast_one_shot(w, KIND),
            "{name} contrast"
        );
    }
    let free = LubKind::SelectionFree;
    for (i, (session, one_shot)) in contrast_session(&city, free)
        .into_iter()
        .zip(contrast_one_shot(&city, free))
        .enumerate()
    {
        assert_eq!(session, one_shot, "city selection-free contrast {i}");
    }
    assert_eq!(
        obda_rewritten(&obda, &obda_questions),
        obda_pipeline(&obda),
        "obda pipeline vs one-shots over its rewriting"
    );
    let explanations = |answers: &[Exhaustive]| -> usize {
        answers.iter().map(|a| a.as_ref().map_or(0, Vec::len)).sum()
    };

    let mut rows = vec![
        Row::new(
            "city_network/exhaustive/one_shot",
            &[("cities", 768), ("explanations", one_shot.len())],
            || {
                black_box(exhaustive_search(&net.ontology, wn));
            },
        ),
        Row::new(
            "city_network/exhaustive/session_warm",
            &[("cities", 768), ("explanations", one_shot.len())],
            || {
                black_box(warm.exhaustive(&question).unwrap());
            },
        ),
        Row::new(
            "city_network/incremental/one_shot",
            &[("cities", 384)],
            || {
                black_box(incremental_search_kind(
                    &free_net.why_not,
                    LubKind::SelectionFree,
                ));
            },
        ),
        Row::new(
            "city_network/incremental_sigma/one_shot",
            &[("cities", 96)],
            || {
                black_box(incremental_search_kind(
                    &sigma_net.why_not,
                    LubKind::WithSelections,
                ));
            },
        ),
        Row::new(
            "batched_city_workload/exhaustive/session",
            &[
                ("cities", 384),
                ("questions", batch.questions.len()),
                ("explanations", explanations(&batch_answers)),
            ],
            || {
                black_box(session_stream(&batch));
            },
        ),
        Row::new(
            "batched_city_workload/exhaustive/fresh",
            &[("cities", 384), ("questions", batch.questions.len())],
            || {
                black_box(fresh_stream(&batch));
            },
        ),
        Row::new(
            "batched_city_workload/card_greedy/session",
            &[
                ("cities", 384),
                ("questions", batch.questions.len()),
                ("explanations", found(&greedy_answers)),
            ],
            || {
                black_box(card_stream(&batch, false));
            },
        ),
        Row::new(
            "batched_city_workload/card_exact/session",
            &[
                ("cities", 384),
                ("questions", batch.questions.len()),
                ("explanations", found(&exact_answers)),
            ],
            || {
                black_box(card_stream(&batch, true));
            },
        ),
        Row::new(
            "modal_mutation_stream/exhaustive/live",
            &[
                ("cities", 192),
                ("steps", modal.steps.len()),
                ("questions", modal_answers.len()),
                ("explanations", explanations(&modal_answers)),
            ],
            || {
                black_box(live_session(&modal));
            },
        ),
        Row::new(
            "modal_mutation_stream/exhaustive/rebuild",
            &[("cities", 192), ("steps", modal.steps.len())],
            || {
                black_box(rebuild_per_mutation(&modal));
            },
        ),
        Row::new(
            "mutation_stream/exhaustive/server",
            &[("tenants", tenants.len()), ("questions", direct.len())],
            || {
                black_box(serve_streams(&tenants));
            },
        ),
        Row::new(
            "mutation_stream/exhaustive/direct",
            &[("tenants", tenants.len()), ("questions", direct.len())],
            || {
                black_box(direct_streams(&tenants));
            },
        ),
        Row::new(
            "city_contrast/contrast_sigma/one_shot",
            &[("questions", city.questions.len())],
            || {
                black_box(contrast_one_shot(&city, KIND));
            },
        ),
        Row::new(
            "city_contrast/contrast_sigma/session",
            &[("questions", city.questions.len())],
            || {
                black_box(contrast_session(&city, KIND));
            },
        ),
        Row::new(
            "city_contrast/contrast/session",
            &[("questions", city.questions.len())],
            || {
                black_box(contrast_session(&city, LubKind::SelectionFree));
            },
        ),
        Row::new(
            "retail_contrast/contrast_sigma/one_shot",
            &[("questions", retail.questions.len())],
            || {
                black_box(contrast_one_shot(&retail, KIND));
            },
        ),
        Row::new(
            "retail_contrast/contrast_sigma/session",
            &[("questions", retail.questions.len())],
            || {
                black_box(contrast_session(&retail, KIND));
            },
        ),
        Row::new(
            "obda_figure4/contrast_sigma/pipeline",
            &[("pairs", obda.pairs.len())],
            || {
                black_box(obda_pipeline(&obda));
            },
        ),
        Row::new(
            "obda_figure4/contrast_sigma/rewritten",
            &[("pairs", obda.pairs.len())],
            || {
                black_box(obda_rewritten(&obda, &obda_questions));
            },
        ),
    ];

    // Warm-up: one untimed call, then one timed call that sizes the
    // row's samples.
    let iters: Vec<u32> = rows
        .iter_mut()
        .map(|row| {
            (row.call)();
            let ns = sample(&mut row.call, 1).max(1);
            (SAMPLE_NS / ns).clamp(1, 1_000_000) as u32
        })
        .collect();
    calibration();
    // Per row, (calibration sample, row sample) pairs taken back to back.
    let mut pairs = vec![Vec::with_capacity(ROUNDS); rows.len()];
    for _ in 0..ROUNDS {
        for ((row, &iters), pairs) in rows.iter_mut().zip(&iters).zip(&mut pairs) {
            let cal = sample(&mut calibration, 1);
            pairs.push((cal, sample(&mut row.call, iters)));
        }
    }
    let calibration_ns = median(pairs.iter().flatten().map(|&(cal, _)| cal).collect());

    println!("bench matrix: {ROUNDS} interleaved rounds, calibration {calibration_ns} ns");
    println!(
        "{:<44} {:>12} {:>12} {:>10}",
        "row", "median (µs)", "scaled (µs)", "ratio"
    );
    let mut lines = Vec::with_capacity(rows.len());
    for (row, pairs) in rows.iter().zip(pairs) {
        let raw = median(pairs.iter().map(|&(_, ns)| ns).collect());
        // Each sample rescaled by the calibration sample just before it,
        // so `ns / calibration_ns` is the median of the adjacent ratios.
        let ns = median(
            pairs
                .iter()
                .map(|&(cal, ns)| ns * calibration_ns / cal.max(1))
                .collect(),
        );
        println!(
            "{:<44} {:>12.1} {:>12.1} {:>10.3e}",
            row.name,
            raw as f64 / 1e3,
            ns as f64 / 1e3,
            ns as f64 / calibration_ns as f64
        );
        let mut fields = vec![
            ("row".to_string(), Json::str(row.name)),
            ("ns".to_string(), Json::Int(ns as i128)),
        ];
        fields.extend(
            row.counts
                .iter()
                .map(|(k, v)| (k.to_string(), Json::from(*v))),
        );
        lines.push(Json::Obj(fields).to_string());
    }
    let json = format!(
        "{{\n\"bench\": \"matrix\",\n\"calibration_ns\": {calibration_ns},\n\"rows\": [\n{}\n]\n}}\n",
        lines.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_matrix.json");
    std::fs::write(path, json).expect("write BENCH_matrix.json");
    println!("wrote {path}");
}
