//! Raw-speed engine v2 against the pre-v2 engine state: shared word
//! kernels with fused emptiness reports, arena scratch,
//! selectivity-ordered candidates, and empty-mask subtree bailing vs the
//! previous engine's scalar zips, per-node mask allocation, and
//! table-order product walk.
//!
//! The baseline here is *not* the seed (that comparison lives in
//! `BENCH_engine_speedup.json`): it is a faithful re-implementation of
//! the engine as it stood before v2 — memoized evaluation context,
//! one-pass extension table, pre-interned probes, conflict bitsets —
//! with exactly the v2 deltas reverted: `zip` ANDs that collect into a
//! fresh `Vec` per product-walk node, candidates in table order, no
//! empty-mask bail, per-question candidate rebuilds instead
//! of the session conflict cache, and the un-indexed query evaluator
//! (every join node rescans its atom's full relation). The warmed
//! single-question comparison runs both engines over the same warmed
//! caches, so that gap is the engine core alone; the stream comparison
//! charges each side its own end-to-end cost per question batch,
//! answer-set evaluation included.
//!
//! Run with `cargo bench -p whynot-bench --bench engine_v2`. Results
//! land in `BENCH_engine_v2.json` at the workspace root: warmed
//! single-question medians over `city_network` and full-stream medians
//! over `batched_city_workload`, plus the speedups on the largest size
//! of each (the acceptance criterion asks for ≥ 2×).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use whynot_bench::median_ns;
use whynot_core::{
    retain_most_general, EvalContext, Explanation, FiniteOntology, WhyNotQuestion, WhyNotSession,
};
use whynot_relation::{Cq, Instance, Interval, Term, Tuple, Ucq, Value, Var};
use whynot_scenarios::generators::{batched_city_workload, city_network, BatchedWorkload};

// ---------------------------------------------------------------------
// The pre-v2 engine, verbatim in structure.
// ---------------------------------------------------------------------

/// The pre-v2 query evaluator: the same backtracking join the repo
/// shipped before v2, with no join index — every search node collects
/// and rescans the atom's full relation. Kept verbatim so the baseline
/// stream pays the evaluation cost the old engine actually paid.
fn v1_eval(q: &Ucq, inst: &Instance) -> BTreeSet<Tuple> {
    let mut out = BTreeSet::new();
    for cq in &q.disjuncts {
        let intervals = cq.var_intervals();
        if intervals.values().any(|iv| iv.is_empty()) {
            continue;
        }
        let mut assignment = BTreeMap::new();
        let mut remaining: Vec<usize> = (0..cq.atoms.len()).collect();
        v1_search(
            cq,
            inst,
            &intervals,
            &mut assignment,
            &mut remaining,
            &mut out,
        );
    }
    out
}

fn v1_search(
    cq: &Cq,
    inst: &Instance,
    intervals: &BTreeMap<Var, Interval>,
    assignment: &mut BTreeMap<Var, Value>,
    remaining: &mut Vec<usize>,
    out: &mut BTreeSet<Tuple>,
) {
    // Most-constrained-atom heuristic, as before v2.
    let bound_count = |idx: &usize| {
        cq.atoms[*idx]
            .args
            .iter()
            .filter(|t| match t {
                Term::Const(_) => true,
                Term::Var(v) => assignment.contains_key(v),
            })
            .count()
    };
    let Some(pos) = remaining
        .iter()
        .enumerate()
        .max_by_key(|(_, idx)| bound_count(idx))
        .map(|(pos, _)| pos)
    else {
        let tuple: Option<Tuple> = cq
            .head
            .iter()
            .map(|t| match t {
                Term::Const(c) => Some(c.clone()),
                Term::Var(v) => assignment.get(v).cloned(),
            })
            .collect();
        if let Some(t) = tuple {
            out.insert(t);
        }
        return;
    };
    let idx = remaining.swap_remove(pos);
    let atom = &cq.atoms[idx];
    // The pre-v2 join step: the full relation, rescanned per node.
    let tuples: Vec<&Tuple> = inst.tuples(atom.rel).collect();
    for tuple in tuples {
        let mut bound_here: Vec<Var> = Vec::new();
        if v1_unify(atom, tuple, intervals, assignment, &mut bound_here) {
            v1_search(cq, inst, intervals, assignment, remaining, out);
        }
        for v in &bound_here {
            assignment.remove(v);
        }
    }
    remaining.push(idx);
    let last = remaining.len() - 1;
    remaining.swap(pos.min(last), last);
}

fn v1_unify(
    atom: &whynot_relation::Atom,
    tuple: &[Value],
    intervals: &BTreeMap<Var, Interval>,
    assignment: &mut BTreeMap<Var, Value>,
    bound_here: &mut Vec<Var>,
) -> bool {
    if atom.args.len() != tuple.len() {
        return false;
    }
    for (term, value) in atom.args.iter().zip(tuple) {
        match term {
            Term::Const(c) => {
                if c != value {
                    return false;
                }
            }
            Term::Var(x) => match assignment.get(x) {
                Some(prev) => {
                    if prev != value {
                        return false;
                    }
                }
                None => {
                    if let Some(iv) = intervals.get(x) {
                        if !iv.contains(value) {
                            return false;
                        }
                    }
                    assignment.insert(*x, value.clone());
                    bound_here.push(*x);
                }
            },
        }
    }
    true
}

struct V1Candidates<C> {
    concepts: Vec<C>,
    conflicts: Vec<Vec<u64>>,
}

/// The pre-v2 candidate build: pre-interned probes, dense word probes,
/// a fresh `Vec` per conflict set (no arena), candidates in table order
/// (no selectivity sort).
fn v1_build<O: FiniteOntology>(
    all: &[O::Concept],
    table: &whynot_concepts::ExtensionTable,
    index_cache: &mut BTreeMap<Value, Arc<Vec<usize>>>,
    ans: &BTreeSet<Tuple>,
    tuple: &Tuple,
) -> Option<Vec<V1Candidates<O::Concept>>>
where
    O::Concept: Clone,
{
    let ans: Vec<&Tuple> = ans.iter().collect();
    let words = ans.len().div_ceil(64);
    let mut out = Vec::with_capacity(tuple.len());
    for (i, a_i) in tuple.iter().enumerate() {
        let idxs = Arc::clone(index_cache.entry(a_i.clone()).or_insert_with(|| {
            Arc::new(
                (0..all.len())
                    .filter(|&k| table.get(k).contains(a_i))
                    .collect(),
            )
        }));
        if idxs.is_empty() {
            return None;
        }
        let probes: Vec<_> = ans.iter().map(|t| table.probe(&t[i])).collect();
        let mut cands = V1Candidates {
            concepts: Vec::with_capacity(idxs.len()),
            conflicts: Vec::with_capacity(idxs.len()),
        };
        for &k in idxs.iter() {
            let mut bits = vec![0u64; words];
            for (j, (t, probe)) in ans.iter().zip(&probes).enumerate() {
                let hit = match (table.get(k), probe.id()) {
                    (whynot_concepts::Extension::Universal, _) => true,
                    // The pre-v2 probe: always the dense word vector.
                    (whynot_concepts::Extension::Finite(set), Some(id)) => {
                        set.words()[id.index() / 64] & (1 << (id.index() % 64)) != 0
                    }
                    (ext, None) => ext.contains(&t[i]),
                };
                if hit {
                    bits[j / 64] |= 1 << (j % 64);
                }
            }
            cands.concepts.push(all[k].clone());
            cands.conflicts.push(bits);
        }
        out.push(cands);
    }
    Some(out)
}

/// The pre-v2 product walk: a freshly allocated mask per node, scalar
/// `zip` AND, emptiness checked only at the leaves.
fn v1_collect<C: Clone>(
    candidates: &[V1Candidates<C>],
    choice: &mut Vec<usize>,
    live: &[u64],
    found: &mut Vec<Explanation<C>>,
) {
    let depth = choice.len();
    if depth == candidates.len() {
        if live.iter().all(|w| *w == 0) {
            found.push(Explanation::new(
                choice
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| candidates[i].concepts[k].clone()),
            ));
        }
        return;
    }
    for k in 0..candidates[depth].concepts.len() {
        let masked: Vec<u64> = live
            .iter()
            .zip(&candidates[depth].conflicts[k])
            .map(|(l, c)| l & c)
            .collect();
        choice.push(k);
        v1_collect(candidates, choice, &masked, found);
        choice.pop();
    }
}

/// One pre-v2 exhaustive answer over warmed caches.
fn v1_exhaustive<O: FiniteOntology>(
    ontology: &O,
    all: &[O::Concept],
    table: &whynot_concepts::ExtensionTable,
    index_cache: &mut BTreeMap<Value, Arc<Vec<usize>>>,
    ans: &BTreeSet<Tuple>,
    tuple: &Tuple,
) -> Vec<Explanation<O::Concept>> {
    let Some(candidates) = v1_build::<O>(all, table, index_cache, ans, tuple) else {
        return Vec::new();
    };
    if tuple.is_empty() {
        return Vec::new();
    }
    let words = ans.len().div_ceil(64);
    let mut found = Vec::new();
    v1_collect(
        &candidates,
        &mut Vec::with_capacity(tuple.len()),
        &vec![u64::MAX; words],
        &mut found,
    );
    retain_most_general(ontology, found)
}

/// The pre-v2 session shape for a question stream: one memoized context
/// and extension table, answer sets cached per query, candidate index
/// lists cached per constant — everything the v2 session also reuses,
/// with only the engine core downgraded.
fn v1_stream(w: &BatchedWorkload) -> Vec<Vec<Explanation<whynot_core::ConceptName>>> {
    let ctx = EvalContext::new(&w.ontology, &w.instance);
    let all = ctx.concepts();
    let table = ctx.table(&all);
    let mut index_cache: BTreeMap<Value, Arc<Vec<usize>>> = BTreeMap::new();
    let mut answers: HashMap<Ucq, Arc<BTreeSet<Tuple>>> = HashMap::new();
    let mut out = Vec::with_capacity(w.questions.len());
    for q in &w.questions {
        let ans = Arc::clone(
            answers
                .entry(q.query.clone())
                .or_insert_with(|| Arc::new(v1_eval(&q.query, &w.instance))),
        );
        out.push(v1_exhaustive(
            &w.ontology,
            &all,
            &table,
            &mut index_cache,
            &ans,
            &q.tuple,
        ));
    }
    out
}

/// The v2 session over the same stream.
fn v2_stream(w: &BatchedWorkload) -> Vec<Vec<Explanation<whynot_core::ConceptName>>> {
    let session = WhyNotSession::new(&w.ontology, &w.schema, &w.instance);
    w.questions
        .iter()
        .map(|q| session.exhaustive(q).expect("workload questions are valid"))
        .collect()
}

fn main() {
    let runs_single = 15;
    let runs_stream = 5;
    let mut rows: Vec<String> = Vec::new();

    // ------------------------------------------------------------------
    // Warmed single questions over city_network.
    // ------------------------------------------------------------------
    let sizes = [64usize, 128, 256, 512, 768];
    let regions = 8;
    let mut single_speedup = 0.0;
    println!("engine v2: warmed single-question exhaustive, v2 vs pre-v2 engine");
    println!(
        "{:>6} {:>14} {:>14} {:>9}",
        "cities", "pre-v2 (µs)", "v2 (µs)", "speedup"
    );
    for &n in &sizes {
        let net = city_network(n, regions, 42);
        let wn = &net.why_not;
        let q = WhyNotQuestion::new(wn.query.clone(), wn.tuple.clone());

        // Warm both sides' caches, asserting parity first.
        let session = WhyNotSession::new(&net.ontology, &wn.schema, &wn.instance);
        let v2_mges = session.exhaustive(&q).unwrap();
        let ctx = EvalContext::new(&net.ontology, &wn.instance);
        let all = ctx.concepts();
        let table = ctx.table(&all);
        let mut index_cache = BTreeMap::new();
        let v1_mges = v1_exhaustive(
            &net.ontology,
            &all,
            &table,
            &mut index_cache,
            &wn.ans,
            &wn.tuple,
        );
        assert_eq!(v1_mges, v2_mges, "engines disagree at n={n}");

        let t_v1 = median_ns(
            || {
                std::hint::black_box(v1_exhaustive(
                    &net.ontology,
                    &all,
                    &table,
                    &mut index_cache,
                    &wn.ans,
                    &wn.tuple,
                ));
            },
            runs_single,
        );
        let t_v2 = median_ns(
            || {
                std::hint::black_box(session.exhaustive(&q).unwrap());
            },
            runs_single,
        );
        let speedup = t_v1 / t_v2;
        single_speedup = speedup;
        println!(
            "{n:>6} {:>14.1} {:>14.1} {speedup:>8.2}x",
            t_v1 / 1e3,
            t_v2 / 1e3
        );
        rows.push(format!(
            "  {{\"workload\": \"city_network\", \"cities\": {n}, \"regions\": {regions}, \
             \"answers\": {}, \"pre_v2_ns\": {t_v1:.0}, \"v2_ns\": {t_v2:.0}, \
             \"speedup\": {speedup:.2}}}",
            wn.ans.len()
        ));
    }

    // ------------------------------------------------------------------
    // Full question streams over batched_city_workload.
    // ------------------------------------------------------------------
    let batch_sizes = [48usize, 96, 192, 384];
    let n_questions = 200;
    let mut stream_speedup = 0.0;
    println!("engine v2: {n_questions}-question streams, v2 session vs pre-v2 session shape");
    println!(
        "{:>6} {:>14} {:>14} {:>9}",
        "cities", "pre-v2 (ms)", "v2 (ms)", "speedup"
    );
    for &n in &batch_sizes {
        let w = batched_city_workload(n, regions, n_questions, 42);
        // Parity twice over: the un-indexed evaluator agrees with the
        // indexed one per distinct query, and the full streams agree.
        let mut checked: Vec<&Ucq> = Vec::new();
        for q in &w.questions {
            if !checked.contains(&&q.query) {
                checked.push(&q.query);
                assert_eq!(
                    v1_eval(&q.query, &w.instance),
                    q.query.eval(&w.instance),
                    "query evaluators disagree at n={n}"
                );
            }
        }
        let v1_all = v1_stream(&w);
        let v2_all = v2_stream(&w);
        assert_eq!(v1_all, v2_all, "streams disagree at n={n}");

        let t_v1 = median_ns(
            || {
                std::hint::black_box(v1_stream(&w));
            },
            runs_stream,
        );
        let t_v2 = median_ns(
            || {
                std::hint::black_box(v2_stream(&w));
            },
            runs_stream,
        );
        let speedup = t_v1 / t_v2;
        stream_speedup = speedup;
        println!(
            "{n:>6} {:>14.3} {:>14.3} {speedup:>8.2}x",
            t_v1 / 1e6,
            t_v2 / 1e6
        );
        rows.push(format!(
            "  {{\"workload\": \"batched_city_workload\", \"cities\": {n}, \"regions\": {regions}, \
             \"questions\": {n_questions}, \"pre_v2_ns\": {t_v1:.0}, \"v2_ns\": {t_v2:.0}, \
             \"speedup\": {speedup:.2}}}"
        ));
    }

    let json = format!(
        "{{\n\"bench\": \"engine_v2\",\n\"unit\": \"ns median of {runs_single} (single) / \
         {runs_stream} (stream)\",\n\"results\": [\n{}\n],\n\
         \"largest_single_speedup\": {single_speedup:.2},\n\
         \"largest_stream_speedup\": {stream_speedup:.2}\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine_v2.json");
    std::fs::write(path, &json).expect("write BENCH_engine_v2.json");
    println!("wrote {path}");
    if single_speedup < 2.0 || stream_speedup < 2.0 {
        println!(
            "WARNING: engine v2 speedup below the 2x target \
             (single {single_speedup:.2}x, stream {stream_speedup:.2}x)"
        );
    }
}
