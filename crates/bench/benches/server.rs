//! `whynot-server` sustained throughput: N tenants × interleaved
//! ask/mutate streams driven through the wire protocol — line parsing,
//! admission control, fair-share scheduling, sequential answering,
//! response serialization — vs the same streams answered by direct
//! `WhyNotSession` calls with none of the serving layer in the way.
//!
//! Parity is asserted before anything is timed: every queued wire
//! result (explanations *and* error kinds) must match the direct
//! session's answer for the same question, ticket by ticket. The server
//! path then measures the full loop — `mutate` lines carrying JSON
//! deltas, `enqueue` lines, a `run` drain every few rounds — so the
//! reported overhead is the real end-to-end price of putting the
//! serving layer in front of the engine.
//!
//! Run with `cargo bench -p whynot-bench --bench server`. Results land
//! in `BENCH_server.json` at the workspace root: per-tenant-count
//! medians for both paths, questions/second through the server, and
//! the wire-overhead ratio.

use whynot_bench::median_ns;
use whynot_core::{WhyNotQuestion, WhyNotSession};
use whynot_relation::json::Json;
use whynot_relation::wire::delta_to_json;
use whynot_scenarios::generators::{mutation_stream, MutationStep, MutationWorkload};
use whynot_server::{definition_text, explanation_to_json, ServerConfig, ServerCore, ServerError};

/// How often the driver drains the queues: one `run` per this many
/// interleaved rounds. Small enough that the default queue depth (64)
/// can never overflow, large enough that every `run` drains several
/// fair-share rounds.
const DRAIN_EVERY: usize = 8;

/// Renders the wire `ask`/`enqueue` rule text for a workload question.
/// The three `city_query_shapes` are distinguishable by head arity, so
/// the missing tuple's length picks the rule.
fn rule_text(q: &WhyNotQuestion) -> &'static str {
    match q.tuple.len() {
        1 => "q(X) <- Train-Connections(X, Z), Train-Connections(Z, X)",
        2 => "q(X, Y) <- Train-Connections(X, Z), Train-Connections(Z, Y)",
        _ => "q(X, Y, Z) <- Train-Connections(X, Y), Train-Connections(Y, Z)",
    }
}

fn enqueue_line(tenant: &str, q: &WhyNotQuestion) -> String {
    let missing: Vec<String> = q.tuple.iter().map(|v| v.to_string()).collect();
    format!(
        "enqueue {tenant} exhaustive | {} | {}",
        rule_text(q),
        missing.join(", ")
    )
}

fn tenant_name(i: usize) -> String {
    format!("t{i}")
}

/// Builds a server with all workloads resident as tenants.
fn boot(workloads: &[MutationWorkload]) -> ServerCore {
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
    server
}

/// Drives all streams through the wire, interleaved round-robin:
/// step i of every tenant, a `run` drain every [`DRAIN_EVERY`] rounds.
/// Returns every response line the server produced.
fn serve_streams(server: &mut ServerCore, workloads: &[MutationWorkload]) -> Vec<String> {
    let rounds = workloads.iter().map(|w| w.steps.len()).max().unwrap_or(0);
    let mut out = Vec::new();
    for i in 0..rounds {
        for (t, w) in workloads.iter().enumerate() {
            match w.steps.get(i) {
                Some(MutationStep::Mutate(delta)) => {
                    let payload = delta_to_json(&w.schema, delta).to_string();
                    out.extend(
                        server.handle_line(&format!("mutate {} | {payload}", tenant_name(t))),
                    );
                }
                Some(MutationStep::Ask(q)) => {
                    out.extend(server.handle_line(&enqueue_line(tenant_name(t).as_str(), q)));
                }
                None => {}
            }
        }
        if i % DRAIN_EVERY == DRAIN_EVERY - 1 {
            out.extend(server.handle_line("run"));
        }
    }
    out.extend(server.handle_line("run"));
    out
}

/// The no-server baseline: the same streams against direct sessions,
/// under the same deferred-drain semantics the server uses (mutations
/// apply immediately, questions buffer until the drain point — a
/// queued question sees the instance state at drain time, not at
/// enqueue time). Returns, per question in enqueue order, the payload
/// the server *should* emit: the serialized explanation array on
/// success, the error kind on rejection.
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

/// Extracts the comparable payload from each wire `result` line, in
/// ticket order (tickets are assigned in enqueue order, and `run`
/// drains fair-share rounds, so result order ≠ enqueue order).
fn wire_payloads(lines: &[String]) -> Vec<(u64, String)> {
    let mut results = Vec::new();
    for line in lines {
        let doc = Json::parse(line).expect("response line is JSON");
        if doc.get("command").and_then(Json::as_str) != Some("result") {
            assert!(
                doc.get("ok") == Some(&Json::Bool(true)),
                "unexpected rejection: {line}"
            );
            continue;
        }
        let ticket = doc
            .get("ticket")
            .and_then(Json::as_int)
            .expect("result has ticket") as u64;
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
    results
}

fn main() {
    let tenant_counts = [2usize, 4, 8];
    let cities = 64;
    let regions = 4;
    let n_steps = 240;
    let runs = 5;
    let mut rows: Vec<String> = Vec::new();
    let mut last_overhead = 0.0;

    println!(
        "whynot-server throughput: {n_steps}-step interleaved ask/mutate streams \
         ({cities} cities, drain every {DRAIN_EVERY} rounds), wire vs direct sessions"
    );
    println!(
        "{:>8} {:>10} {:>13} {:>12} {:>12} {:>9}",
        "tenants", "questions", "direct (ms)", "server (ms)", "q/s (wire)", "overhead"
    );
    for &tenants in &tenant_counts {
        let workloads: Vec<MutationWorkload> = (0..tenants)
            .map(|t| mutation_stream(cities, regions, n_steps, 0xbe5c + t as u64))
            .collect();

        // Parity before timing: every wire result must equal the
        // direct session's answer for the same ticket.
        let direct = direct_streams(&workloads);
        let mut server = boot(&workloads);
        let wire = wire_payloads(&serve_streams(&mut server, &workloads));
        assert_eq!(wire.len(), direct.len(), "question count mismatch");
        for (i, ((ticket, got), want)) in wire.iter().zip(&direct).enumerate() {
            assert_eq!(*ticket, i as u64, "ticket order broke");
            assert_eq!(got, want, "wire and direct disagree on question {i}");
        }
        let questions = direct.len();

        let t_direct = median_ns(
            || {
                std::hint::black_box(direct_streams(&workloads));
            },
            runs,
        );
        let t_server = median_ns(
            || {
                let mut server = boot(&workloads);
                std::hint::black_box(serve_streams(&mut server, &workloads));
            },
            runs,
        );
        let overhead = t_server / t_direct;
        last_overhead = overhead;
        let qps = questions as f64 / (t_server / 1e9);
        println!(
            "{tenants:>8} {questions:>10} {:>13.3} {:>12.3} {qps:>12.0} {overhead:>8.2}x",
            t_direct / 1e6,
            t_server / 1e6
        );
        rows.push(format!(
            "  {{\"workload\": \"mutation_stream\", \"tenants\": {tenants}, \
             \"cities\": {cities}, \"regions\": {regions}, \"steps\": {n_steps}, \
             \"questions\": {questions}, \"direct_ns\": {t_direct:.0}, \
             \"server_ns\": {t_server:.0}, \"questions_per_sec\": {qps:.0}, \
             \"wire_overhead\": {overhead:.2}}}"
        ));
    }

    let json = format!(
        "{{\n\"bench\": \"server\",\n\"unit\": \"ns median of {runs}\",\n\
         \"results\": [\n{}\n],\n\"largest_workload_overhead\": {last_overhead:.2}\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    std::fs::write(path, &json).expect("write BENCH_server.json");
    println!("wrote {path}");
}
