//! The two kinds of run: timed (end-to-end metrics, tracing off) and
//! traced (per-layer metrics).
//!
//! Which per-layer metric should move which end-to-end metric, and on
//! which workload:
//!
//! | layer | metrics | should move |
//! |---|---|---|
//! | server | `server.*` | `throughput_qps`, `question_p99_ms` on `serve_churn` |
//! | durable | `durable.*` | `mutate_p50_ms`, `mutate_p99_ms`, `recover_s` on `serve_churn`; flat on `lub_bound` |
//! | session (Algorithm 1) | `session.answers_us`, `session.answer_miss_ratio`, `session.exhaustive_us`, `session.find_us`, `session.incremental_us`, `session.card_greedy_us`, `session.batch_questions` | `question_p50_ms`, `throughput_qps` on `serve_churn` |
//! | session (deltas, budget) | `session.apply_delta_us`, `session.delta_retained_ratio`, `session.cache_evictions`, `session.cached_entries` | `mutate_p50_ms`, `question_p50_ms`, `peak_rss_mb` on `serve_churn` |
//! | session (lubσ) | `session.incremental_sigma_us`, `session.contrast_sigma_us`, `session.contrast_us` | `question_p50_ms`, `question_p99_ms` on `lub_bound` |
//! | lub | `lub.*` | `question_p50_ms`, `throughput_qps` on `lub_bound`; flat on `serve_churn` |
//! | contrast | `contrast.self_ms` | `question_p50_ms` on `lub_bound` |
//! | relation | `relation.*` | `question_p50_ms`, `mutate_p50_ms` on `serve_churn` |

use crate::check::digest;
use crate::drive::{self, Pass};
use crate::replay::replay;
use crate::trace::{Agg, Trace};
use crate::workload::{Op, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// One reported metric.
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// A run's verdict, metrics and environment record.
pub struct Outcome {
    /// Checked items (responses and mirror calls).
    pub attempted: usize,
    /// Items that differed from the reference.
    pub failed: usize,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Environment and sample counts, as `(key, JSON value)`.
    pub env: Vec<(&'static str, String)>,
}

/// Items of `got` that differ from `expected`, a length difference
/// counting each missing or extra item.
fn mismatches(expected: &[u64], got: &[u64]) -> usize {
    let differing = expected.iter().zip(got).filter(|(a, b)| a != b).count();
    differing + expected.len().abs_diff(got.len())
}

fn digests(items: &[String]) -> Vec<u64> {
    items.iter().map(|i| digest(i)).collect()
}

/// Prints the first few differing items to stderr.
fn report_differences(what: &str, expected: &[String], got: &[String]) {
    let diffs = expected
        .iter()
        .zip(got)
        .enumerate()
        .filter(|(_, (a, b))| a != b);
    for (i, (want, have)) in diffs.take(5) {
        eprintln!("{what}: item {i} differs\n  expected: {want}\n  got:      {have}");
    }
    if expected.len() != got.len() {
        eprintln!(
            "{what}: {} items expected, {} got",
            expected.len(),
            got.len()
        );
    }
}

/// Each sample's fastest value over a run's timed passes. Every pass
/// runs the same stream, so each line, question and mutation has one
/// sample per pass, and each recovery line one per recovery cycle.
#[derive(Default)]
struct Fastest {
    question_ms: Vec<f64>,
    mutate_ms: Vec<f64>,
    op_ns: Vec<u64>,
    setup_ns: Vec<u64>,
    recover_ns: Vec<u64>,
}

impl Fastest {
    fn add(&mut self, p: &Pass) {
        keep_min(&mut self.question_ms, &p.question_ms);
        keep_min(&mut self.mutate_ms, &p.mutate_ms);
        keep_min(&mut self.op_ns, &p.op_ns);
        keep_min(&mut self.setup_ns, &p.setup_ns);
        for cycle in &p.recover_ns {
            keep_min(&mut self.recover_ns, cycle);
        }
    }
}

/// Lowers each value of `best` to the matching sample of `row`; an empty
/// `best` takes `row` as it is.
fn keep_min<T: Copy + PartialOrd>(best: &mut Vec<T>, row: &[T]) {
    if best.is_empty() {
        best.extend_from_slice(row);
    }
    for (b, &x) in best.iter_mut().zip(row) {
        if x < *b {
            *b = x;
        }
    }
}

/// The timed run: one warm-up pass, then wire passes until `seconds`
/// have elapsed, then the reference check of every pass.
///
/// Each sample is taken at its fastest over the passes before any
/// percentile or sum. The machine is shared: other work on it slows the
/// program down in bursts of milliseconds to seconds and never speeds it
/// up, so the fastest of a sample's passes follows the code rather than
/// the neighbours. Only running minima are kept, so the peak RSS does not
/// grow with the number of passes.
pub fn timed(w: &Workload, state: &Path, seconds: f64, threads: usize) -> Outcome {
    let mut warm = drive::pass(w, &state.join("server"), threads);
    let warm_items = std::mem::take(&mut warm.items);
    let warm_digests = digests(&warm_items);
    // Passes that answered unlike the warm-up pass; the others are
    // checked through it.
    let mut differing: Vec<Vec<u64>> = Vec::new();
    let mut best = Fastest::default();
    let mut passes = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let mut p = drive::pass(w, &state.join("server"), threads);
        let d = digests(&std::mem::take(&mut p.items));
        if d != warm_digests {
            differing.push(d);
        }
        best.add(&p);
        passes += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    // Read before the reference replay, whose sessions would count too.
    let rss = peak_rss_mb();

    let reference = replay(w, None, None);
    let expected = digests(&reference.items);
    report_differences("wire vs direct", &reference.items, &warm_items);
    let checked = passes + 1;
    let attempted = expected.len() * checked;
    let failed = mismatches(&expected, &warm_digests) * (checked - differing.len())
        + differing
            .iter()
            .map(|d| mismatches(&expected, d))
            .sum::<usize>();

    let total_s = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / 1e9;
    // The timed stream: first timed op through the `run` that answered
    // the last question.
    let last_run = w.ops.iter().rposition(|op| matches!(op, Op::Run));
    let stream_s = total_s(&best.op_ns[w.timed_from..=last_run.unwrap_or(0)]);
    let within = |samples: &[f64], q: f64| quantile(&mut samples.to_vec(), q);
    let metrics = vec![
        metric(
            "throughput_qps",
            ratio(best.question_ms.len() as f64, stream_s),
            "questions/s",
        ),
        metric("question_p50_ms", within(&best.question_ms, 0.50), "ms"),
        metric("question_p99_ms", within(&best.question_ms, 0.99), "ms"),
        metric("mutate_p50_ms", within(&best.mutate_ms, 0.50), "ms"),
        metric("mutate_p99_ms", within(&best.mutate_ms, 0.99), "ms"),
        metric("setup_s", total_s(&best.setup_ns), "s"),
        metric("recover_s", total_s(&best.recover_ns), "s"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    let mut env = environment(w, threads);
    env.extend([
        ("run_seconds", format!("{seconds}")),
        ("passes", passes.to_string()),
        (
            "question_samples",
            (passes * best.question_ms.len()).to_string(),
        ),
        (
            "mutate_samples",
            (passes * best.mutate_ms.len()).to_string(),
        ),
        ("setup_samples", passes.to_string()),
        (
            "recover_samples",
            (passes * drive::RECOVER_CYCLES).to_string(),
        ),
        (
            "failed_frac",
            format!("{}", failed as f64 / attempted as f64),
        ),
    ]);
    Outcome {
        attempted,
        failed,
        metrics,
        env,
    }
}

/// The traced run: one wire pass (server-layer timings at the
/// `handle_line` boundary), an untraced direct replay (the reference and
/// the direct-session total), and a traced direct replay with spans
/// around every public call into the layers below the server.
pub fn traced(w: &Workload, state: &Path, threads: usize) -> Outcome {
    let p = drive::pass(w, &state.join("server"), threads);
    let untraced = replay(w, None, None);
    let trace = Trace::default();
    let traced = replay(w, Some(&trace), Some(&state.join("durable")));

    let expected = digests(&untraced.items);
    report_differences("wire vs direct", &untraced.items, &p.items);
    report_differences("traced vs untraced", &untraced.items, &traced.items);
    let failed = mismatches(&expected, &digests(&p.items))
        + mismatches(&expected, &digests(&traced.items))
        + traced.mirror_mismatches;
    let spans = trace.summary();
    let agg = |name: &str| spans.get(name).copied().unwrap_or_default();
    let attempted = 2 * expected.len()
        + (agg("relation.delta_decode").calls
            + agg("contrast.with_sigma").calls
            + agg("contrast.with_free").calls) as usize;

    let op_mean = |pick: fn(&Op) -> bool, unit_ns: f64| {
        let ns: Vec<u64> = w
            .ops
            .iter()
            .zip(&p.op_ns)
            .filter(|(op, _)| pick(op))
            .map(|(_, ns)| *ns)
            .collect();
        mean(&ns, unit_ns)
    };
    let runs = w.ops.iter().filter(|op| matches!(op, Op::Run)).count();
    let wire_total = p.op_ns.iter().sum::<u64>() as f64;
    let direct_total = untraced.wall.as_nanos() as f64;
    let lub_sigma = agg("lub.sigma");
    let lub_free = agg("lub.free");
    let with_sigma = agg("contrast.with_sigma");
    let with_free = agg("contrast.with_free");
    let lub_calls = lub_sigma.calls + lub_free.calls;
    let one_shots = with_sigma.calls + with_free.calls;
    let count = |name| trace.count(name);
    let retained = count("session.delta_retained");
    let us = |name: &str| agg(name).mean(1e3);

    let metrics = vec![
        metric(
            "server.enqueue_us",
            op_mean(|op| matches!(op, Op::Ask { .. }), 1e3),
            "us",
        ),
        metric(
            "server.run_ms",
            op_mean(|op| matches!(op, Op::Run), 1e6),
            "ms",
        ),
        metric("server.run_calls", runs as f64, "count"),
        metric(
            "server.questions_per_run",
            ratio(w.questions() as f64, runs as f64),
            "count",
        ),
        metric(
            "server.mutate_us",
            op_mean(|op| matches!(op, Op::Mutate { .. }), 1e3),
            "us",
        ),
        metric(
            "server.wire_share",
            ratio(wire_total - direct_total, wire_total),
            "ratio",
        ),
        metric("durable.append_wal_us", us("durable.append_wal"), "us"),
        metric(
            "durable.append_wal_calls",
            agg("durable.append_wal").calls as f64,
            "count",
        ),
        metric(
            "durable.wal_bytes_per_delta_byte",
            ratio(count("durable.wal_bytes"), count("durable.delta_bytes")),
            "ratio",
        ),
        metric(
            "durable.snapshot_ms",
            agg("durable.snapshot").mean(1e6),
            "ms",
        ),
        metric(
            "durable.snapshot_bytes",
            ratio(
                count("durable.snapshot_bytes"),
                agg("durable.snapshot").calls as f64,
            ),
            "bytes",
        ),
        metric("durable.load_ms", agg("durable.load").mean(1e6), "ms"),
        metric(
            "durable.replayed_records",
            count("durable.replayed_records"),
            "count",
        ),
        metric("session.answers_us", us("session.answers"), "us"),
        metric(
            "session.answer_miss_ratio",
            ratio(
                count("session.answers_misses"),
                agg("session.answers").calls as f64,
            ),
            "ratio",
        ),
        metric("session.exhaustive_us", us("session.exhaustive"), "us"),
        metric("session.find_us", us("session.find"), "us"),
        metric("session.incremental_us", us("session.incremental"), "us"),
        metric("session.card_greedy_us", us("session.card_greedy"), "us"),
        metric(
            "session.batch_questions",
            p.sessions.batch_questions as f64,
            "count",
        ),
        metric("session.apply_delta_us", us("session.apply_delta"), "us"),
        metric(
            "session.delta_retained_ratio",
            ratio(retained, retained + count("session.delta_invalidated")),
            "ratio",
        ),
        metric(
            "session.cache_evictions",
            p.sessions.cache_evictions as f64,
            "count",
        ),
        metric(
            "session.cached_entries",
            p.sessions.cached_entries as f64,
            "count",
        ),
        metric(
            "session.incremental_sigma_us",
            us("session.incremental_sigma"),
            "us",
        ),
        metric(
            "session.contrast_sigma_us",
            us("session.contrast_sigma"),
            "us",
        ),
        metric("session.contrast_us", us("session.contrast"), "us"),
        metric("lub.calls", lub_calls as f64, "count"),
        metric(
            "lub.ms",
            ratio(
                (lub_sigma.total_ns + lub_free.total_ns) as f64 / 1e6,
                one_shots as f64,
            ),
            "ms",
        ),
        metric("lub.sigma_share", share(lub_sigma, with_sigma), "ratio"),
        metric("lub.free_share", share(lub_free, with_free), "ratio"),
        metric(
            "lub.distinct_support_ratio",
            ratio(trace.distinct_supports() as f64, lub_calls as f64),
            "ratio",
        ),
        metric("lub.column_builds", count("lub.column_builds"), "count"),
        metric(
            "contrast.self_ms",
            ratio(
                (with_sigma.self_ns + with_free.self_ns) as f64 / 1e6,
                one_shots as f64,
            ),
            "ms",
        ),
        metric("relation.eval_us", us("relation.eval"), "us"),
        metric("relation.apply_delta_us", us("relation.apply_delta"), "us"),
        metric(
            "relation.delta_decode_us",
            us("relation.delta_decode"),
            "us",
        ),
        metric("relation.serialize_us", us("relation.serialize"), "us"),
        metric(
            "trace.overhead",
            ratio(traced.wall.as_nanos() as f64, direct_total),
            "ratio",
        ),
    ];
    for (name, a) in &spans {
        eprintln!(
            "span {name:<28} calls {:>8} total {:>10.3} ms self {:>10.3} ms",
            a.calls,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6
        );
    }
    let mut env = environment(w, threads);
    env.extend([
        ("question_samples", w.questions().to_string()),
        ("mutate_samples", w.mutates().to_string()),
        (
            "span_count",
            spans.values().map(|a| a.calls).sum::<u64>().to_string(),
        ),
        (
            "failed_frac",
            format!("{}", failed as f64 / attempted as f64),
        ),
    ]);
    Outcome {
        attempted,
        failed,
        metrics,
        env,
    }
}

/// What the numbers depend on besides the code.
fn environment(w: &Workload, threads: usize) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let budget = match w.kind.cache_budget() {
        usize::MAX => "\"unlimited\"".to_string(),
        n => n.to_string(),
    };
    vec![
        ("workload", format!("\"{}\"", w.kind.name())),
        ("seed", w.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("executor_threads", threads.to_string()),
        ("tenants", w.tenants.len().to_string()),
        ("cache_budget", budget),
        (
            "flush_policy",
            "\"WAL append and snapshot write+rename, no fsync\"".to_string(),
        ),
        ("questions_per_pass", w.questions().to_string()),
        ("mutates_per_pass", w.mutates().to_string()),
    ]
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `a / b`, 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The share of `outer`'s time its `inner` child spans took.
fn share(inner: Agg, outer: Agg) -> f64 {
    ratio(inner.total_ns as f64, outer.total_ns as f64)
}

fn mean(ns: &[u64], unit_ns: f64) -> f64 {
    ratio(ns.iter().sum::<u64>() as f64 / unit_ns, ns.len() as f64)
}

/// The nearest-rank `q`-quantile (0 for no samples).
fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
