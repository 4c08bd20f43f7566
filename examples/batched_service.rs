//! Batched why-not service: one `WhyNotSession` answering a stream of
//! questions against a single pinned `(ontology, instance)` pair.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example batched_service
//! ```

use whynot::core::{display_explanation, LubKind, SessionError, WhyNotQuestion, WhyNotSession};
use whynot::relation::Value;
use whynot::scenarios::generators::batched_city_workload;

fn main() -> Result<(), SessionError> {
    // One instance (a 96-city train network over 8 regions), one external
    // ontology (region → continent → world), 120 questions at arities
    // 1–3 — the shape an interactive explanation service sees.
    let w = batched_city_workload(96, 8, 120, 7);
    println!(
        "instance: {} cities, {} questions — one session, zero re-evaluation\n",
        96, 120
    );

    let session = WhyNotSession::new(&w.ontology, &w.schema, &w.instance);

    let mut answered = 0usize;
    let mut with_mges = 0usize;
    let mut shown = 0usize;
    for q in &w.questions {
        // Algorithm 1 against the finite region ontology.
        let mges = session.exhaustive(q)?;
        answered += 1;
        if !mges.is_empty() {
            with_mges += 1;
            if shown < 3 {
                shown += 1;
                let tuple: Vec<String> = q.tuple.iter().map(Value::to_string).collect();
                println!("why not ⟨{}⟩?", tuple.join(", "));
                for e in mges.iter().take(2) {
                    println!("  {}", display_explanation(&w.ontology, e));
                }
            }
        }
    }
    // The same session also answers w.r.t. the instance-derived ontology
    // (Algorithm 2) — sharing the lub and extension caches across the
    // whole stream.
    let first = &w.questions[0];
    let incr = session.incremental(first, LubKind::SelectionFree)?;
    let rendered: Vec<String> = incr
        .concepts
        .iter()
        .map(|c| c.display(&w.schema).to_string())
        .collect();
    println!(
        "\nAlgorithm 2 on the first question: ⟨{}⟩",
        rendered.join(", ")
    );
    println!(
        "  most general w.r.t. OI: {}",
        session.check_mge_instance(first, &incr, LubKind::SelectionFree)?
    );

    // A malformed question is an error, not a crash — the session keeps
    // serving afterwards.
    let malformed = WhyNotQuestion::new(first.query.clone(), []);
    assert!(session.exhaustive(&malformed).is_err());
    let _ = session.exhaustive(first)?;

    let stats = session.stats();
    println!("\nsession stats after the batch:");
    println!("  questions answered:        {answered} exhaustive + incremental/MGE extras");
    println!("  questions with MGEs:       {with_mges}");
    println!(
        "  ontology ext evaluations:  {} (= one per concept, for the WHOLE batch)",
        stats.evaluations
    );
    println!(
        "  cached answer sets:        {} (keyed by query)",
        stats.cached_queries
    );
    println!(
        "  cached candidate lists:    {} (keyed by position constant)",
        stats.cached_candidates
    );
    println!(
        "  interned lub columns:      {} (lubs are grown, not memoized)",
        stats.lub_column_builds
    );
    Ok(())
}
