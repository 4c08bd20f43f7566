//! The direct replay: the same op stream against `WhyNotSession`s with
//! no serving layer, under the server's deferred-drain semantics.
//! Mutations apply at once; questions wait for the next `run` and are
//! answered then, against the instance at drain time, in ticket order.
//!
//! Untraced, it predicts every response item of a wire pass (the
//! reference check). Traced, it also times the public calls into each
//! layer and mirrors the server's work through calls the server makes
//! internally: a fresh `Ucq::eval`, `Instance::apply_delta`, delta
//! decoding, its own `Durability` handle on a separate directory, and
//! the one-shot `contrast_with` over a timing `LubProvider`.

use crate::check::{error_item, ok_item};
use crate::drive::{session_budget, RECOVER_CYCLES};
use crate::trace::{timed, Trace};
use crate::workload::{Op, Tenant, Workload};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use whynot_concepts::{LsConcept, LubEngine, LubProvider};
use whynot_core::{
    contrast_with, ContrastAnswer, ContrastQuestion, Explanation, ExplicitOntology, LubKind,
    Ontology, SessionError, WhyNotQuestion, WhyNotSession,
};
use whynot_relation::json::Json;
use whynot_relation::wire::{delta_from_json, delta_to_wal_line};
use whynot_relation::{ConstPool, Tuple, Value};
use whynot_server::{explanation_to_json, ls_explanation_to_json, Algo, Durability, ServerError};

type Session<'a> = WhyNotSession<'a, ExplicitOntology>;
type Concept = <ExplicitOntology as Ontology>::Concept;

/// What a replay predicted and how long its op stream took.
pub struct Replay {
    /// The predicted response items (see `drive::Pass::items`).
    pub items: Vec<String>,
    /// Wall time of the op stream (sessions built, recovery excluded).
    pub wall: Duration,
    /// Traced only: mirror calls that disagree with the session path
    /// (a decoded delta differing from the sent one, a one-shot
    /// `contrast_with` answer differing from the session's).
    pub mirror_mismatches: usize,
}

/// Replays `w`. With `trace`, records spans and mirrors durability
/// under `durable_dir`.
pub fn replay(w: &Workload, trace: Option<&Trace>, durable_dir: Option<&Path>) -> Replay {
    let budget = session_budget(w);
    let durable = durable_dir.map(|dir| {
        let _ = std::fs::remove_dir_all(dir);
        (Durability::new(dir), dir)
    });
    let mut items = Vec::new();
    let mut sessions: Vec<Session<'_>> = Vec::new();
    for t in &w.tenants {
        let mut s = WhyNotSession::new(&t.def.ontology, &t.def.schema, &t.def.instance);
        s.set_cache_budget(budget);
        sessions.push(s);
        items.push(ok_item(
            "create",
            vec![("facts", t.def.instance.len().into())],
        ));
        if let (Some(tr), Some(d)) = (trace, &durable) {
            snapshot(tr, d, t, &t.def.instance, 0);
        }
    }

    let n = w.tenants.len();
    let mut seq = vec![0u64; n];
    let mut snap_seq = vec![0u64; n];
    // (op index, ticket) of every question waiting for a drain.
    let mut waiting: Vec<(usize, usize)> = Vec::new();
    let mut results: Vec<String> = Vec::new();
    let mut mirror_mismatches = 0;
    let start = Instant::now();
    for (i, op) in w.ops.iter().enumerate() {
        match op {
            Op::Ask { .. } => {
                items.push(ok_item("enqueue", vec![("ticket", results.len().into())]));
                waiting.push((i, results.len()));
                results.push(String::new());
            }
            Op::Mutate { tenant, delta } => {
                let (t, s) = (&w.tenants[*tenant], &mut sessions[*tenant]);
                seq[*tenant] += 1;
                if let Some(tr) = trace {
                    let payload = w.lines[i].split_once('|').map_or("", |(_, p)| p.trim());
                    let decoded = tr.span("relation.delta_decode", || {
                        Json::parse(payload)
                            .ok()
                            .and_then(|doc| delta_from_json(&t.def.schema, &doc).ok())
                    });
                    mirror_mismatches += usize::from(decoded.as_ref() != Some(delta));
                    tr.span("relation.apply_delta", || {
                        std::hint::black_box(s.instance().apply_delta(delta));
                    });
                    if let Some((d, _)) = &durable {
                        tr.span("durable.append_wal", || {
                            d.append_wal(&t.name, &t.def.schema, seq[*tenant], delta)
                        })
                        .expect("benchmark WAL append");
                        let line = delta_to_wal_line(&t.def.schema, seq[*tenant], delta);
                        tr.add("durable.wal_bytes", (line.len() + 1) as f64);
                        tr.add("durable.delta_bytes", payload.len() as f64);
                    }
                }
                let stats = timed(trace, "session.apply_delta", || s.apply_delta(delta))
                    .expect("generated deltas are valid");
                if let Some(tr) = trace {
                    tr.add("session.delta_retained", stats.retained() as f64);
                    tr.add("session.delta_invalidated", stats.invalidated() as f64);
                }
                items.push(ok_item(
                    "mutate",
                    vec![
                        ("seq", seq[*tenant].into()),
                        ("inserted", stats.facts_inserted.into()),
                        ("deleted", stats.facts_deleted.into()),
                    ],
                ));
            }
            Op::Snapshot { tenant } => {
                let (t, s) = (&w.tenants[*tenant], &sessions[*tenant]);
                snap_seq[*tenant] = seq[*tenant];
                if let (Some(tr), Some(d)) = (trace, &durable) {
                    snapshot(tr, d, t, s.instance(), seq[*tenant]);
                }
                items.push(ok_item(
                    "snapshot",
                    vec![
                        ("seq", seq[*tenant].into()),
                        ("facts", s.instance().len().into()),
                    ],
                ));
            }
            Op::Run => {
                items.push(ok_item("run", vec![("completed", waiting.len().into())]));
                for (idx, ticket) in waiting.drain(..) {
                    let Op::Ask {
                        tenant,
                        algo,
                        question,
                        foil,
                    } = &w.ops[idx]
                    else {
                        continue;
                    };
                    let s = &sessions[*tenant];
                    results[ticket] = answer(s, *algo, question, foil.as_ref(), trace);
                    if let (Some(tr), Some(kind)) = (trace, contrast_kind(*algo)) {
                        mirror_mismatches +=
                            usize::from(!one_shot_agrees(tr, s, question, foil.as_ref(), kind));
                    }
                }
            }
        }
    }
    let wall = start.elapsed();
    items.extend(results);

    let mut recovery: Vec<String> = w
        .tenants
        .iter()
        .map(|_| ok_item("evict", Vec::new()))
        .collect();
    for (i, t) in w.tenants.iter().enumerate() {
        if let (Some(tr), Some((d, _))) = (trace, &durable) {
            let loaded = tr
                .span("durable.load", || d.load(&t.name))
                .expect("benchmark snapshot loads");
            tr.add("durable.replayed_records", loaded.wal.len() as f64);
        }
        recovery.push(ok_item(
            "load",
            vec![
                ("replayed", (seq[i] - snap_seq[i]).into()),
                ("seq", seq[i].into()),
                ("facts", sessions[i].instance().len().into()),
            ],
        ));
    }
    // Loading leaves the snapshot and WAL as they were, so every cycle
    // answers alike.
    for _ in 0..RECOVER_CYCLES {
        items.extend(recovery.iter().cloned());
    }
    Replay {
        items,
        wall,
        mirror_mismatches,
    }
}

/// Mirrors a server snapshot on the benchmark's own durability handle
/// (`d.1` is its directory).
fn snapshot(
    tr: &Trace,
    d: &(Durability, &Path),
    t: &Tenant,
    instance: &whynot_relation::Instance,
    seq: u64,
) {
    tr.span("durable.snapshot", || {
        d.0.write_snapshot(&t.name, &t.def.stripped, &t.def.schema, instance, seq)
    })
    .expect("benchmark snapshot write");
    let file = d.1.join(format!("{}.snap", t.name));
    tr.add(
        "durable.snapshot_bytes",
        std::fs::metadata(file).map_or(0, |m| m.len()) as f64,
    );
}

fn contrast_kind(algo: Algo) -> Option<LubKind> {
    match algo {
        Algo::Contrast => Some(LubKind::SelectionFree),
        Algo::ContrastSigma => Some(LubKind::WithSelections),
        _ => None,
    }
}

fn span_name(algo: Algo) -> &'static str {
    match algo {
        Algo::Exhaustive => "session.exhaustive",
        Algo::Find => "session.find",
        Algo::Incremental => "session.incremental",
        Algo::IncrementalSigma => "session.incremental_sigma",
        Algo::CardGreedy => "session.card_greedy",
        Algo::CardExact => "session.card_exact",
        Algo::Contrast => "session.contrast",
        Algo::ContrastSigma => "session.contrast_sigma",
    }
}

/// The answer the server sends for one question, as the session
/// computes it directly: one explanation payload or an error kind.
enum Answer {
    All(Vec<Explanation<Concept>>),
    One(Option<Explanation<Concept>>),
    Ls(Explanation<LsConcept>),
    Contrast(Arc<ContrastAnswer>, Vec<Vec<Concept>>),
}

/// Answers one question and renders its result item.
fn answer(
    s: &Session<'_>,
    algo: Algo,
    q: &WhyNotQuestion,
    foil: Option<&Tuple>,
    trace: Option<&Trace>,
) -> String {
    if let Some(tr) = trace {
        tr.span("relation.eval", || {
            std::hint::black_box(q.query.eval(s.instance()));
        });
        let before = s.stats().cached_queries + s.evictions().answers;
        tr.span("session.answers", || {
            std::hint::black_box(s.answers(&q.query));
        });
        let after = s.stats().cached_queries + s.evictions().answers;
        tr.add("session.answers_misses", (after > before) as u8 as f64);
    }
    let computed: Result<Answer, SessionError> = timed(trace, span_name(algo), || match algo {
        Algo::Exhaustive => s.exhaustive(q).map(Answer::All),
        Algo::Find => s.find_explanation(q).map(Answer::One),
        Algo::CardGreedy => s.card_maximal_greedy(q).map(Answer::One),
        Algo::CardExact => s.card_maximal_exact(q).map(Answer::One),
        Algo::Incremental => s.incremental(q, LubKind::SelectionFree).map(Answer::Ls),
        Algo::IncrementalSigma => s.incremental(q, LubKind::WithSelections).map(Answer::Ls),
        Algo::Contrast | Algo::ContrastSigma => {
            let cq = contrast_question(q, foil);
            let kind = contrast_kind(algo).unwrap_or(LubKind::SelectionFree);
            s.contrast(&cq, kind).and_then(|a| {
                s.contrast_ontology_difference(&cq)
                    .map(|named| Answer::Contrast(a, named))
            })
        }
    });
    match computed {
        Ok(a) => timed(trace, "relation.serialize", || render(s, a)),
        Err(e) => error_item("result", ServerError::from(e).kind()),
    }
}

/// The result item of a computed answer, with the server's serializers.
fn render(s: &Session<'_>, a: Answer) -> String {
    let ontology = s.ontology();
    let schema = s.schema();
    let fields = match a {
        Answer::All(es) => vec![(
            "explanations",
            Json::Arr(
                es.iter()
                    .map(|e| explanation_to_json(ontology, e))
                    .collect(),
            ),
        )],
        Answer::One(e) => vec![(
            "explanation",
            e.map_or(Json::Null, |e| explanation_to_json(ontology, &e)),
        )],
        Answer::Ls(e) => vec![("explanation", ls_explanation_to_json(schema, &e))],
        Answer::Contrast(a, named) => vec![
            (
                "difference",
                Json::Arr(
                    a.difference
                        .iter()
                        .map(|c| match c {
                            Some(c) => Json::str(c.display(schema).to_string()),
                            None => Json::Null,
                        })
                        .collect(),
                ),
            ),
            (
                "foil_mge",
                a.foil_mge
                    .as_ref()
                    .map_or(Json::Null, |e| ls_explanation_to_json(schema, e)),
            ),
            (
                "ontology_difference",
                Json::Arr(
                    named
                        .iter()
                        .map(|cs| {
                            Json::Arr(
                                cs.iter()
                                    .map(|c| Json::str(ontology.concept_name(c)))
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
        ],
    };
    ok_item("result", fields)
}

fn contrast_question(q: &WhyNotQuestion, foil: Option<&Tuple>) -> ContrastQuestion {
    ContrastQuestion::new(
        q.query.clone(),
        q.tuple.clone(),
        foil.cloned().unwrap_or_default(),
    )
}

/// Runs the one-shot `contrast_with` over a timing lub provider and
/// checks it against the session's answer.
fn one_shot_agrees(
    tr: &Trace,
    s: &Session<'_>,
    q: &WhyNotQuestion,
    foil: Option<&Tuple>,
    kind: LubKind,
) -> bool {
    let cq = contrast_question(q, foil);
    let (name, lub_name) = match kind {
        LubKind::WithSelections => ("contrast.with_sigma", "lub.sigma"),
        LubKind::SelectionFree => ("contrast.with_free", "lub.free"),
    };
    let one_shot = tr.span(name, || {
        let pool = s.instance().const_pool_with(cq.missing.iter().cloned());
        let engine = LubEngine::with_pool(s.schema(), s.instance(), Arc::clone(&pool));
        let provider = TimedLub {
            engine: &engine,
            trace: tr,
            name: lub_name,
        };
        let answer = contrast_with(&provider, s.schema(), s.instance(), &pool, &cq, kind);
        tr.add("lub.column_builds", engine.column_builds() as f64);
        answer
    });
    match (one_shot, s.contrast(&cq, kind)) {
        (Ok(a), Ok(b)) => a == *b,
        (Err(a), Err(b)) => ServerError::from(a).kind() == ServerError::from(b).kind(),
        _ => false,
    }
}

/// A `LubProvider` that times every lub the one-shot contrast path asks
/// its engine for and notes the distinct supports.
struct TimedLub<'a, 'e> {
    engine: &'a LubEngine<'e>,
    trace: &'a Trace,
    name: &'static str,
}

impl TimedLub<'_, '_> {
    fn note(&self, x: &BTreeSet<Value>) {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.name.hash(&mut h);
        x.hash(&mut h);
        self.trace.note_support(h.finish());
    }
}

impl LubProvider for TimedLub<'_, '_> {
    fn pool(&self) -> &Arc<ConstPool> {
        self.engine.pool()
    }
    fn try_lub(&self, x: &BTreeSet<Value>) -> Option<LsConcept> {
        self.note(x);
        self.trace.span(self.name, || self.engine.try_lub(x))
    }
    fn try_lub_sigma(&self, x: &BTreeSet<Value>) -> Option<LsConcept> {
        self.note(x);
        self.trace.span(self.name, || self.engine.try_lub_sigma(x))
    }
}
