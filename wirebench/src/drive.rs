//! One wire pass: a fresh `ServerCore`, tenant creation, the op stream
//! and recovery, all through `handle_line` from a single driver thread.
//!
//! The loop is closed: the driver sends the next line only when the
//! previous one returned. A question is timed from its `enqueue` line
//! being sent to the return of the `run` that answered it; a mutation
//! from its `mutate` line to the ack. Every line sent is timed on its
//! own as well, so that repeated passes can be compared line by line.

use crate::check::{line_item, ok_item};
use crate::workload::{Op, Workload};
use std::path::Path;
use std::time::{Duration, Instant};
use whynot_core::CacheBudget;
use whynot_server::{ServerConfig, ServerCore};

/// What one pass measured and answered.
pub struct Pass {
    /// `handle_line` time of each `create` … `end` line of every tenant,
    /// initial snapshots included, in ns.
    pub setup_ns: Vec<u64>,
    /// Per recovery cycle, `handle_line` time of each `evict`, then each
    /// `load`, of every tenant, in ns.
    pub recover_ns: Vec<Vec<u64>>,
    /// Per timed question, `enqueue` sent → answering `run` returned,
    /// in ms.
    pub question_ms: Vec<f64>,
    /// Per timed mutation, `mutate` sent → ack returned, in ms.
    pub mutate_ms: Vec<f64>,
    /// `handle_line` time of each op, in ns (same order as the ops).
    pub op_ns: Vec<u64>,
    /// The response items, in the order `replay::replay` predicts them.
    pub items: Vec<String>,
    /// Session counters summed over tenants, read before recovery.
    pub sessions: SessionTotals,
}

/// Session counters summed over a pass's tenants.
#[derive(Clone, Copy, Default, Debug)]
pub struct SessionTotals {
    /// Questions answered through a parallel batch fan-out.
    pub batch_questions: usize,
    /// Cache entries evicted under the cache budget.
    pub cache_evictions: usize,
    /// Cache entries resident at the end of the stream.
    pub cached_entries: usize,
}

/// How many times a pass evicts and reloads every tenant. Loading reads
/// the snapshot and WAL without changing them, so each cycle recovers the
/// same state and adds a sample of every line's recovery time.
pub const RECOVER_CYCLES: usize = 3;

/// The server configuration a workload runs under.
fn config(w: &Workload, dir: &Path, threads: usize) -> ServerConfig {
    ServerConfig {
        threads: Some(threads),
        cache_budget: w.kind.cache_budget(),
        snapshot_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    }
}

/// The session budget a workload's cache budget stands for (the
/// server's own mapping, for the direct sessions).
pub fn session_budget(w: &Workload) -> CacheBudget {
    ServerConfig {
        cache_budget: w.kind.cache_budget(),
        ..ServerConfig::default()
    }
    .session_budget()
}

/// Runs one pass with snapshots under `dir` (emptied first).
pub fn pass(w: &Workload, dir: &Path, threads: usize) -> Pass {
    let _ = std::fs::remove_dir_all(dir);
    let mut server = ServerCore::new(config(w, dir, threads));
    let mut created = Vec::new();
    let setup_lines = w.tenants.iter().flat_map(|t| t.create_lines.iter());
    let setup_ns = send_all(&mut server, setup_lines, &mut created);

    let mut responses: Vec<Vec<String>> = Vec::with_capacity(w.ops.len());
    let mut op_ns = Vec::with_capacity(w.ops.len());
    let mut waiting: Vec<Instant> = Vec::new();
    let mut question_ms = Vec::new();
    let mut mutate_ms = Vec::new();
    for (i, (op, line)) in w.ops.iter().zip(&w.lines).enumerate() {
        let sent = Instant::now();
        let out = server.handle_line(line);
        let done = Instant::now();
        let timed = i >= w.timed_from;
        match op {
            Op::Ask { .. } => waiting.push(sent),
            Op::Run if timed => question_ms.extend(waiting.drain(..).map(|t| ms(done - t))),
            Op::Run => waiting.clear(),
            Op::Mutate { .. } if timed => mutate_ms.push(ms(done - sent)),
            Op::Mutate { .. } | Op::Snapshot { .. } => {}
        }
        op_ns.push((done - sent).as_nanos() as u64);
        responses.push(out);
    }

    let mut sessions = SessionTotals::default();
    for tenant in &w.tenants {
        if let Some(s) = server.session(&tenant.name) {
            let st = s.stats();
            sessions.batch_questions += st.batch_questions;
            sessions.cache_evictions += st.cache_evictions;
            sessions.cached_entries += st.cached_queries
                + st.cached_candidates
                + st.cached_conflicts
                + st.cached_lubs
                + st.cached_ls_extensions
                + st.cached_contrasts;
        }
    }

    let recover_lines: Vec<String> = ["evict", "load"]
        .iter()
        .flat_map(|cmd| w.tenants.iter().map(move |t| format!("{cmd} {}", t.name)))
        .collect();
    let mut recovered = Vec::new();
    let recover_ns = (0..RECOVER_CYCLES)
        .map(|_| send_all(&mut server, recover_lines.iter(), &mut recovered))
        .collect();

    Pass {
        setup_ns,
        recover_ns,
        question_ms,
        mutate_ms,
        op_ns,
        items: items(w, &created, &responses, &recovered),
        sessions,
    }
}

/// Sends each line, appending its response lines to `out`; returns each
/// line's `handle_line` time in ns.
fn send_all<'a>(
    server: &mut ServerCore,
    lines: impl Iterator<Item = &'a String>,
    out: &mut Vec<String>,
) -> Vec<u64> {
    lines
        .map(|line| {
            let sent = Instant::now();
            out.extend(server.handle_line(line));
            sent.elapsed().as_nanos() as u64
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Reduces a pass's responses to items: creates, one per op (the `run`
/// summary for drains), every question's result by ticket, recovery.
fn items(
    w: &Workload,
    created: &[String],
    responses: &[Vec<String>],
    recovered: &[String],
) -> Vec<String> {
    let mut items: Vec<String> = created.iter().map(|l| line_item(l)).collect();
    let mut results: Vec<Option<String>> = vec![None; w.questions()];
    for (op, out) in w.ops.iter().zip(responses) {
        match op {
            Op::Run => {
                let Some((summary, answers)) = out.split_last() else {
                    items.push("run: no response".to_string());
                    continue;
                };
                for line in answers {
                    let slot = whynot_relation::json::Json::parse(line)
                        .ok()
                        .and_then(|d| d.get("ticket").and_then(|t| t.as_int()))
                        .and_then(|t| usize::try_from(t).ok())
                        .filter(|&t| t < results.len());
                    match slot {
                        Some(t) if results[t].is_none() => results[t] = Some(line_item(line)),
                        _ => items.push(format!("stray result: {line}")),
                    }
                }
                items.push(line_item(summary));
            }
            _ => items.push(match out.as_slice() {
                [line] => line_item(line),
                other => format!("expected one response line, got {other:?}"),
            }),
        }
    }
    items.extend(
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| ok_item("missing", Vec::new()))),
    );
    items.extend(recovered.iter().map(|l| line_item(l)));
    items
}
