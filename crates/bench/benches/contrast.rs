//! Contrastive why-not: the one-shot path vs a session, plus the OBDA
//! certain-answer pipeline.
//!
//! Two measurements, all over `scenarios::contrast` workloads:
//!
//! 1. **One-shot vs session** — `contrast_instance` per question against
//!    a fresh `WhyNotSession` answering the same stream (answer sets,
//!    extensions and lub columns shared across questions).
//! 2. **OBDA** — `obda_contrast` per pair (PerfectRef rewriting included)
//!    against `contrast_instance` per pair over the pre-rewritten UCQ.
//!
//! Answer parity is asserted before anything is timed: every path must
//! reproduce the one-shot answers bit for bit.
//!
//! Run with `cargo bench -p whynot-bench --bench contrast`. Results land
//! in `BENCH_contrast.json` at the workspace root.

use whynot_bench::median_ns;
use whynot_contrast::obda::obda_contrast;
use whynot_contrast::{contrast_instance, ContrastAnswer, ContrastQuestion};
use whynot_core::{LubKind, WhyNotSession};
use whynot_relation::{Instance, Schema};
use whynot_scenarios::contrast::{
    city_contrast_workload, obda_contrast_workload, retail_contrast_workload, ContrastWorkload,
};

const KIND: LubKind = LubKind::WithSelections;

/// A cheap summary for `black_box`: separated positions + aligned MGEs.
fn weight(answers: &[ContrastAnswer]) -> usize {
    answers
        .iter()
        .map(|a| {
            a.difference.iter().filter(|d| d.is_some()).count() + usize::from(a.foil_mge.is_some())
        })
        .sum()
}

/// `contrast_instance` per question.
fn one_shot_all(
    schema: &Schema,
    instance: &Instance,
    questions: &[ContrastQuestion],
) -> Vec<ContrastAnswer> {
    questions
        .iter()
        .map(|q| contrast_instance(schema, instance, q, KIND).expect("valid workload"))
        .collect()
}

/// The one-shot reference over a workload.
fn one_shot(w: &ContrastWorkload) -> Vec<ContrastAnswer> {
    one_shot_all(&w.schema, &w.instance, &w.questions)
}

/// A fresh session answering the stream sequentially.
fn session_stream(w: &ContrastWorkload) -> Vec<ContrastAnswer> {
    let session = WhyNotSession::new(&w.ontology, &w.schema, &w.instance);
    w.questions
        .iter()
        .map(|q| (*session.contrast(q, KIND).expect("valid workload")).clone())
        .collect()
}

fn main() {
    let hardware = std::thread::available_parallelism().map_or(1, usize::from);
    let single_core = hardware == 1;
    let runs = 5;
    let mut rows: Vec<String> = Vec::new();

    // ------------------------------------------------------------------
    // 1. One-shot vs session, per scenario family.
    // ------------------------------------------------------------------
    for (name, w) in [
        ("city", city_contrast_workload(48, 4, 32, 42)),
        ("retail", retail_contrast_workload(24, 12, 4, 3, 32, 42)),
    ] {
        println!("contrast {name}: {} questions", w.questions.len());

        // Parity first, before a single timing runs.
        let reference = one_shot(&w);
        assert_eq!(session_stream(&w), reference, "{name}: session diverged");

        let t_one = median_ns(
            || {
                std::hint::black_box(weight(&one_shot(&w)));
            },
            runs,
        );
        let t_session = median_ns(
            || {
                std::hint::black_box(weight(&session_stream(&w)));
            },
            runs,
        );
        rows.push(format!(
            "  {{\"bench\": \"contrast_stream\", \"workload\": \"{name}\", \
             \"questions\": {}, \"one_shot_ns\": {t_one:.0}, \
             \"session_ns\": {t_session:.0}}}",
            w.questions.len()
        ));
        println!(
            "one-shot {:.3} ms, session {:.3} ms\n",
            t_one / 1e6,
            t_session / 1e6
        );
    }

    // ------------------------------------------------------------------
    // 2. OBDA: per-pair pipeline vs one-shot over the pre-rewritten UCQ.
    // ------------------------------------------------------------------
    let obda = obda_contrast_workload(30, 12, 42);
    println!(
        "contrast obda: {} pairs over the scaled Figure 4 base",
        obda.pairs.len()
    );

    // Parity: the per-pair pipeline and the pre-rewritten one-shots
    // agree.
    let obda_reference: Vec<ContrastAnswer> = obda
        .pairs
        .iter()
        .map(|(missing, foil)| {
            obda_contrast(
                &obda.spec,
                &obda.schema,
                &obda.instance,
                &obda.query,
                missing.clone(),
                foil.clone(),
                KIND,
            )
            .expect("valid workload")
            .answer
        })
        .collect();
    let obda_questions: Vec<ContrastQuestion> = obda
        .pairs
        .iter()
        .map(|(missing, foil)| {
            ContrastQuestion::new(obda.rewritten.clone(), missing.clone(), foil.clone())
        })
        .collect();
    assert_eq!(
        one_shot_all(&obda.schema, &obda.instance, &obda_questions),
        obda_reference,
        "obda: pre-rewritten one-shots diverged from the pipeline"
    );

    let t_pipeline = median_ns(
        || {
            let total: usize = obda
                .pairs
                .iter()
                .map(|(missing, foil)| {
                    obda_contrast(
                        &obda.spec,
                        &obda.schema,
                        &obda.instance,
                        &obda.query,
                        missing.clone(),
                        foil.clone(),
                        KIND,
                    )
                    .expect("valid workload")
                    .ontology_difference
                    .len()
                })
                .sum();
            std::hint::black_box(total);
        },
        runs,
    );
    let t_batched = median_ns(
        || {
            let answers = one_shot_all(&obda.schema, &obda.instance, &obda_questions);
            std::hint::black_box(weight(&answers));
        },
        runs,
    );
    println!(
        "per-pair pipeline {:.3} ms, pre-rewritten one-shots {:.3} ms",
        t_pipeline / 1e6,
        t_batched / 1e6
    );
    rows.push(format!(
        "  {{\"bench\": \"contrast_obda\", \"workload\": \"obda_figure4_scaled\", \
         \"pairs\": {}, \"pipeline_ns\": {t_pipeline:.0}, \
         \"batched_ns\": {t_batched:.0}}}",
        obda.pairs.len()
    ));

    let json = format!(
        "{{\n\"bench\": \"contrast\",\n\"unit\": \"ns median of {runs}\",\n\
         \"available_parallelism\": {hardware},\n\"single_core\": {single_core},\n\
         \"results\": [\n{}\n],\n\
         \"note\": \"parity (one-shot == session, plus the OBDA pipeline == \
         the one-shots over its rewriting) is asserted before any timing; \
         batched_ns answers the pre-rewritten pairs one at a time\"\n}}\n",
        rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_contrast.json");
    std::fs::write(path, &json).expect("write BENCH_contrast.json");
    println!("\nwrote {path}");
}
