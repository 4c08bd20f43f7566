//! Differential harness for the live-instance layer: after every prefix
//! of a random mutation stream, a delta-maintained [`WhyNotSession`] must
//! be indistinguishable — explanations *and* errors, for every question
//! kind — from a fresh session built over an independently materialized
//! instance.
//!
//! After every step, the live session's id-space answer rows must also
//! map back to exactly `q(I)`, in order, for every query of the stream
//! and for two queries over a ghost constant that a later delta inserts
//! (as a head constant, then as an atom constant), so the rows cross pool
//! generation bumps. The city streams also run at cache budgets 0 and 2.
//!
//! On failure the harness shrinks the stream by hand (shortest failing
//! prefix, then greedy per-step removal to a 1-minimal sequence) before
//! panicking, since the vendored proptest has no shrinking.

use whynot_core::{CacheBudget, LubKind, WhyNotSession};
use whynot_relation::{Atom, Cq, Instance, Term, Tuple, Ucq, Var};
use whynot_scenarios::generators::{
    modal_mutation_stream, mutation_stream, random_mutation_stream, MutationStep, MutationWorkload,
};

/// Compares two results of one question kind, rendering a divergence as a
/// readable error.
fn diff<T: PartialEq + std::fmt::Debug>(
    step: usize,
    what: &str,
    live: &T,
    fresh: &T,
) -> Result<(), String> {
    if live == fresh {
        Ok(())
    } else {
        Err(format!(
            "step {step}: {what} diverged\n  live:  {live:?}\n  fresh: {fresh:?}"
        ))
    }
}

/// The queries whose answer rows are checked after every step: every
/// query the stream asks, plus, for the first constant a delta inserts
/// outside the initial instance, `q(x̄, g) ← R(x̄)` and
/// `q(x̄') ← R(g, x̄')` over the first schema relation `R`.
fn answer_probes(w: &MutationWorkload) -> Vec<Ucq> {
    let mut queries: Vec<Ucq> = Vec::new();
    for step in &w.steps {
        if let MutationStep::Ask(q) = step {
            if !queries.contains(&q.query) {
                queries.push(q.query.clone());
            }
        }
    }
    let adom = w.instance.active_domain();
    let ghost = w
        .steps
        .iter()
        .filter_map(|step| match step {
            MutationStep::Mutate(delta) => Some(delta.inserts()),
            MutationStep::Ask(_) => None,
        })
        .flatten()
        .flat_map(|fact| &fact.tuple)
        .find(|v| !adom.contains(*v));
    let rel = w.schema.rel_ids().next();
    if let (Some(g), Some(rel)) = (ghost, rel) {
        let vars: Vec<Term> = (0..w.schema.arity(rel) as u32)
            .map(|v| Term::Var(Var(v)))
            .collect();
        let mut head = vars.clone();
        head.push(Term::Const(g.clone()));
        queries.push(Ucq::single(Cq::new(
            head,
            [Atom::new(rel, vars.clone())],
            [],
        )));
        let mut args = vars;
        args[0] = Term::Const(g.clone());
        queries.push(Ucq::single(Cq::new(
            args[1..].to_vec(),
            [Atom::new(rel, args)],
            [],
        )));
    }
    queries
}

/// Runs `steps` against a delta-maintained session under `budget`,
/// materializing the same deltas independently through
/// [`Instance::apply_delta`]; every `Ask` is answered by both the live
/// session and a fresh session over the materialized instance, across
/// every question kind, and after every step the live answer rows of
/// `probes` map back to value-space evaluation. Returns the first
/// divergence. `exact` additionally runs the exponential `>card`-maximal
/// reference (only affordable on small ontologies).
fn run(
    w: &MutationWorkload,
    steps: &[MutationStep],
    exact: bool,
    budget: CacheBudget,
) -> Result<(), String> {
    let probes = answer_probes(w);
    let mut materialized: Instance = w.instance.clone();
    let mut live = WhyNotSession::new(&w.ontology, &w.schema, &w.instance);
    live.set_cache_budget(budget);
    for (i, step) in steps.iter().enumerate() {
        match step {
            MutationStep::Mutate(delta) => match live.apply_delta(delta) {
                Ok(_) => {
                    materialized = materialized.apply_delta(delta).instance;
                    if live.instance() != &materialized {
                        return Err(format!(
                            "step {i}: live instance diverged from the materialized one\n  \
                             live:  {:?}\n  fresh: {:?}",
                            live.instance(),
                            materialized
                        ));
                    }
                }
                Err(e) => {
                    if delta.check(&w.schema).is_ok() {
                        return Err(format!("step {i}: valid delta rejected: {e}"));
                    }
                    // Both sides reject: the materialized instance is
                    // untouched, exactly like the session.
                }
            },
            MutationStep::Ask(q) => {
                let fresh = WhyNotSession::new(&w.ontology, &w.schema, &materialized);

                let live_ex = live.exhaustive(q);
                let fresh_ex = fresh.exhaustive(q);
                diff(i, "exhaustive", &live_ex, &fresh_ex)?;

                diff(
                    i,
                    "find_explanation",
                    &live.find_explanation(q),
                    &fresh.find_explanation(q),
                )?;

                // CHECK-MGE on a real most-general explanation (when one
                // exists): both sides must certify it.
                if let Ok(mges) = &live_ex {
                    if let Some(e) = mges.first() {
                        let live_chk = live.check_mge(q, e);
                        diff(i, "check_mge", &live_chk, &fresh.check_mge(q, e))?;
                        if live_chk != Ok(true) {
                            return Err(format!("step {i}: exhaustive produced a non-MGE: {e:?}"));
                        }
                    }
                }

                for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
                    let live_inc = live.incremental(q, kind);
                    diff(
                        i,
                        &format!("incremental({kind:?})"),
                        &live_inc,
                        &fresh.incremental(q, kind),
                    )?;
                    // CHECK-MGE w.r.t. OI on the incremental result.
                    if let Ok(e) = &live_inc {
                        diff(
                            i,
                            &format!("check_mge_instance({kind:?})"),
                            &live.check_mge_instance(q, e, kind),
                            &fresh.check_mge_instance(q, e, kind),
                        )?;
                    }
                }

                // Contrast: foil the first current answer (when one
                // exists) and compare the full contrastive answer plus
                // the named ontology difference, both computed over the
                // live session's retained answer sets, lub columns,
                // candidate lists and conflict bitsets.
                let ans = q.query.eval(&materialized);
                if let Some(foil) = ans.iter().next().cloned() {
                    let cq =
                        whynot_core::ContrastQuestion::new(q.query.clone(), q.tuple.clone(), foil);
                    for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
                        diff(
                            i,
                            &format!("contrast({kind:?})"),
                            &live.contrast(&cq, kind),
                            &fresh.contrast(&cq, kind),
                        )?;
                    }
                    diff(
                        i,
                        "contrast_ontology_difference",
                        &live.contrast_ontology_difference(&cq),
                        &fresh.contrast_ontology_difference(&cq),
                    )?;
                }

                diff(
                    i,
                    "card_maximal_greedy",
                    &live.card_maximal_greedy(q),
                    &fresh.card_maximal_greedy(q),
                )?;
                if exact {
                    diff(
                        i,
                        "card_maximal_exact",
                        &live.card_maximal_exact(q),
                        &fresh.card_maximal_exact(q),
                    )?;
                }
            }
        }
        for q in &probes {
            let rows: Vec<Tuple> = live.answers(q).tuples().collect();
            let expected: Vec<Tuple> = q.eval(&materialized).into_iter().collect();
            diff(i, &format!("answers({q:?})"), &rows, &expected)?;
        }
    }
    Ok(())
}

/// Hand-rolled shrinking: shortest failing prefix, then greedy removal of
/// single steps until the sequence is 1-minimal.
fn shrink(
    w: &MutationWorkload,
    exact: bool,
    budget: CacheBudget,
    full_err: String,
) -> (Vec<MutationStep>, String) {
    let mut steps: Vec<MutationStep> = w.steps.clone();
    for len in 1..=steps.len() {
        if run(w, &steps[..len], exact, budget).is_err() {
            steps.truncate(len);
            break;
        }
    }
    let mut err = run(w, &steps, exact, budget).err().unwrap_or(full_err);
    let mut i = 0;
    while i < steps.len() {
        let mut cand = steps.clone();
        cand.remove(i);
        if let Err(e) = run(w, &cand, exact, budget) {
            steps = cand;
            err = e;
        } else {
            i += 1;
        }
    }
    (steps, err)
}

fn check_workload(name: &str, w: &MutationWorkload, exact: bool, budget: CacheBudget) {
    if let Err(err) = run(w, &w.steps, exact, budget) {
        let (minimal, min_err) = shrink(w, exact, budget, err);
        panic!(
            "{name}: live session diverged from fresh sessions\n{min_err}\n\
             minimal failing sequence ({} of {} steps):\n{minimal:#?}",
            minimal.len(),
            w.steps.len()
        );
    }
}

#[test]
fn city_mutation_streams_match_fresh_sessions() {
    for seed in 0..3 {
        check_workload(
            &format!("city(seed {seed})"),
            &mutation_stream(18, 3, 36, seed),
            false,
            CacheBudget::unlimited(),
        );
    }
}

#[test]
fn city_mutation_streams_match_fresh_sessions_under_cache_budgets() {
    // Budget 0 caches nothing; budget 2 evicts answer sets (and their
    // conflict bitsets) on almost every question of the three shapes.
    for budget in [0, 2] {
        for seed in 0..3 {
            check_workload(
                &format!("city(seed {seed}, budget {budget})"),
                &mutation_stream(18, 3, 36, seed),
                false,
                CacheBudget::uniform(budget),
            );
        }
    }
}

#[test]
fn modal_mutation_streams_match_fresh_sessions() {
    // Multi-relation variant, delta-heavy (the bench runs it ask-heavy):
    // deltas on one mode must leave the other modes' cached state not
    // just intact but *correct*.
    for seed in 0..3 {
        check_workload(
            &format!("modal(seed {seed})"),
            &modal_mutation_stream(16, 3, 4, 40, 36, seed),
            false,
            CacheBudget::unlimited(),
        );
    }
}

#[test]
fn random_mutation_streams_match_fresh_sessions() {
    for seed in 0..5 {
        check_workload(
            &format!("random(seed {seed})"),
            &random_mutation_stream(3, 6, 9, 36, seed),
            true,
            CacheBudget::unlimited(),
        );
    }
}
