//! Fuzz harness: on random `(schema, ontology, instance, query)`
//! scenarios, the session contrast path must agree — answers *and*
//! errors — with the one-shot [`contrast_instance`]. On failure the
//! fact list shrinks by hand (greedy single-fact removal to a
//! 1-minimal instance) before panicking, since the vendored proptest
//! has no shrinking.

use proptest::prelude::*;
use whynot_core::{contrast_instance, ContrastQuestion, LubKind, WhyNotSession};
use whynot_relation::{RelId, Value};
use whynot_scenarios::generators::{random_scenario, RandomScenario};

/// The fact representation of [`RandomScenario`].
type Fact = (RelId, Vec<Value>);

/// Checks every derived contrast pair over one fact subset: the session
/// answer must equal the one-shot answer (or both must reject with the
/// same error) for both lub kinds.
fn check(sc: &RandomScenario, facts: &[Fact]) -> Result<(), String> {
    let inst = sc.instance_of(facts);
    let ans = sc.query.eval(&inst);
    let Some(foil) = ans.iter().next().cloned() else {
        return Ok(()); // no answers ⇒ no valid foil ⇒ nothing to check
    };
    let adom: Vec<Value> = inst.active_domain().into_iter().collect();
    let mut candidates: Vec<Vec<Value>> = Vec::new();
    for a in adom.iter().take(3) {
        for b in adom.iter().rev().take(2) {
            candidates.push(vec![a.clone(), b.clone()]);
        }
    }
    // Salt in an invalid pair (missing == foil) to cross-check errors.
    candidates.push(foil.clone());
    let session = WhyNotSession::new(&sc.ontology, &sc.schema, &inst);
    for missing in candidates {
        let q = ContrastQuestion::new(sc.query.clone(), missing, foil.clone());
        for kind in [LubKind::SelectionFree, LubKind::WithSelections] {
            let one_shot = contrast_instance(&sc.schema, &inst, &q, kind);
            let via_session = session.contrast(&q, kind);
            let agree = match (&via_session, &one_shot) {
                (Ok(v), Ok(o)) => **v == *o,
                (Err(a), Err(b)) => a == b,
                _ => false,
            };
            if !agree {
                return Err(format!(
                    "session ≠ one-shot for {q:?} under {kind:?}\n  \
                     session:  {via_session:?}\n  one-shot: {one_shot:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Greedy fact removal: drop any fact whose removal keeps the check
/// failing, until the fact list is 1-minimal.
fn shrink(sc: &RandomScenario, full_err: String) -> (Vec<Fact>, String) {
    let mut facts = sc.facts.clone();
    let mut err = full_err;
    let mut i = 0;
    while i < facts.len() {
        let mut cand = facts.clone();
        cand.remove(i);
        if let Err(e) = check(sc, &cand) {
            facts = cand;
            err = e;
        } else {
            i += 1;
        }
    }
    (facts, err)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn session_contrast_matches_one_shot_on_random_scenarios(seed in any::<u64>()) {
        let sc = random_scenario(seed);
        if let Err(err) = check(&sc, &sc.facts) {
            let (minimal, min_err) = shrink(&sc, err);
            panic!(
                "seed {seed}: session diverged from one-shot\n{min_err}\n\
                 minimal facts ({} of {}):\n{minimal:#?}",
                minimal.len(),
                sc.facts.len()
            );
        }
    }
}
