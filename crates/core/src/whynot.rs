//! Why-not instances and explanations (paper Definitions 3.2, 3.3, 5.1).

use crate::ontology::Ontology;
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use whynot_concepts::Extension;
use whynot_relation::{ConstPool, Instance, RelError, Schema, Tuple, Ucq, Value, ValueId};

/// A why-not instance `(S, I, q, Ans, a)` (Definition 5.1): the answer set
/// `Ans = q(I)` is part of the input — the paper's problems never charge
/// for query evaluation.
#[derive(Clone, Debug)]
pub struct WhyNotInstance {
    /// The schema `S` (with its integrity constraints).
    pub schema: Schema,
    /// The instance `I` (views already materialized where applicable).
    pub instance: Instance,
    /// The query `q` (a union of conjunctive queries; a plain CQ is a
    /// single-disjunct union).
    pub query: Ucq,
    /// The precomputed answers `Ans = q(I)`.
    pub ans: BTreeSet<Tuple>,
    /// The missing tuple `a ∉ Ans`.
    pub tuple: Tuple,
}

impl WhyNotInstance {
    /// Builds a why-not instance, evaluating the query to obtain `Ans` and
    /// validating that the missing tuple really is missing.
    pub fn new(
        schema: Schema,
        instance: Instance,
        query: Ucq,
        tuple: Tuple,
    ) -> Result<Self, RelError> {
        query.validate(&schema)?;
        if tuple.len() != query.arity() {
            return Err(RelError::Invalid(format!(
                "why-not tuple has arity {}, query has arity {}",
                tuple.len(),
                query.arity()
            )));
        }
        let ans = query.eval(&instance);
        if ans.contains(&tuple) {
            return Err(RelError::Invalid(
                "the tuple is among the answers — nothing to explain".into(),
            ));
        }
        Ok(WhyNotInstance {
            schema,
            instance,
            query,
            ans,
            tuple,
        })
    }

    /// Builds a why-not instance from a precomputed answer set (the literal
    /// Definition 5.1 interface).
    pub fn with_answers(
        schema: Schema,
        instance: Instance,
        query: Ucq,
        ans: BTreeSet<Tuple>,
        tuple: Tuple,
    ) -> Result<Self, RelError> {
        if ans.contains(&tuple) {
            return Err(RelError::Invalid(
                "the tuple is among the answers — nothing to explain".into(),
            ));
        }
        Ok(WhyNotInstance {
            schema,
            instance,
            query,
            ans,
            tuple,
        })
    }

    /// The arity `m` of the question.
    pub fn arity(&self) -> usize {
        self.tuple.len()
    }

    /// The set of constants `K = adom(I) ∪ {a1, …, am}` that Prop 5.1
    /// allows explanations to be restricted to.
    pub fn restriction_constants(&self) -> BTreeSet<Value> {
        let mut k = self.instance.active_domain();
        k.extend(self.tuple.iter().cloned());
        k
    }

    /// The question-specific part of this instance as a borrowed
    /// [`QuestionRef`] (what the search cores actually consume — the
    /// schema and instance are carried separately by the evaluation
    /// context or session).
    pub fn question(&self) -> QuestionRef<'_> {
        QuestionRef::new(&self.ans, &self.tuple)
    }
}

/// The question-dependent slice of a why-not instance: the precomputed
/// answers `Ans` and the missing tuple `a`.
///
/// The search algorithms only ever touch the schema and instance through
/// an evaluation context (extensions, lubs, candidate lists) — everything
/// else they need is here. Splitting this view out is what lets a
/// [`WhyNotSession`](crate::WhyNotSession) pin `(ontology, instance)`
/// once and stream many questions through the same caches.
#[derive(Clone, Copy, Debug)]
pub struct QuestionRef<'q> {
    /// The precomputed answers `Ans = q(I)`.
    pub ans: &'q BTreeSet<Tuple>,
    /// The missing tuple `a ∉ Ans`.
    pub tuple: &'q Tuple,
    /// `ans` and `tuple` resolved to the ids of one pool, set only by
    /// [`AnswerIds::question`]: the explanation check then probes bits
    /// instead of hashing every answer constant.
    ids: Option<&'q AnswerIds<'q>>,
}

impl<'q> QuestionRef<'q> {
    /// A question view over value-space answers only.
    pub fn new(ans: &'q BTreeSet<Tuple>, tuple: &'q Tuple) -> Self {
        QuestionRef {
            ans,
            tuple,
            ids: None,
        }
    }

    /// The arity `m` of the question.
    pub fn arity(&self) -> usize {
        self.tuple.len()
    }
}

/// A question's answer rows and missing tuple resolved to the ids of one
/// [`ConstPool`], once per question: `None` marks a constant the pool
/// does not intern.
///
/// The ids borrow the question they were resolved from, and
/// [`question`](AnswerIds::question) is the only way to attach them to a
/// view, so they always describe that view's `ans` and `tuple`.
/// [`exts_form_explanation_q`] uses them for every extension over that
/// same pool — membership becomes one bit probe per cell — and falls
/// back to [`Extension::contains`] for extensions over other pools.
#[derive(Clone, Debug)]
pub struct AnswerIds<'q> {
    ans: &'q BTreeSet<Tuple>,
    tuple: &'q Tuple,
    pool: Arc<ConstPool>,
    tuple_ids: Vec<Option<ValueId>>,
    /// Row-major: `arity` cells per answer, in the answer set's order.
    cells: Vec<Option<ValueId>>,
}

impl<'q> AnswerIds<'q> {
    /// Resolves `q`'s answers and missing tuple against `pool`.
    pub fn new(pool: &Arc<ConstPool>, q: QuestionRef<'q>) -> Self {
        AnswerIds {
            ans: q.ans,
            tuple: q.tuple,
            pool: Arc::clone(pool),
            tuple_ids: q.tuple.iter().map(|v| pool.id_of(v)).collect(),
            cells: q.ans.iter().flatten().map(|v| pool.id_of(v)).collect(),
        }
    }

    /// The question these ids were resolved from, checked through them.
    pub fn question(&self) -> QuestionRef<'_> {
        QuestionRef {
            ans: self.ans,
            tuple: self.tuple,
            ids: Some(self),
        }
    }

    /// Definition 3.2 over `exts`, probing bits wherever an extension
    /// indexes this pool.
    fn form_explanation<E: Borrow<Extension>>(&self, exts: &[E]) -> bool {
        let member = |ext: &E, id: Option<ValueId>, v: &Value| match ext.borrow() {
            Extension::Universal => true,
            Extension::Finite(set) if Arc::ptr_eq(set.pool(), &self.pool) => match id {
                Some(id) => set.contains_id(id),
                None => set.extra().contains(v),
            },
            Extension::Finite(set) => set.contains(v),
        };
        let holds_tuple = exts
            .iter()
            .zip(self.tuple.iter().zip(&self.tuple_ids))
            .all(|(ext, (v, &id))| member(ext, id, v));
        // Product disjointness: every answer tuple escapes on some position.
        holds_tuple
            && self
                .ans
                .iter()
                .zip(self.cells.chunks_exact(self.tuple.len()))
                .all(|(t, ids)| {
                    exts.iter()
                        .zip(t.iter().zip(ids))
                        .any(|(ext, (v, &id))| !member(ext, id, v))
                })
    }
}

/// A tuple of concepts `(C1, …, Cm)` proposed as an explanation
/// (Definition 3.2).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Explanation<C> {
    /// One concept per answer position.
    pub concepts: Vec<C>,
}

impl<C> Explanation<C> {
    /// Builds an explanation from concepts.
    pub fn new(concepts: impl IntoIterator<Item = C>) -> Self {
        Explanation {
            concepts: concepts.into_iter().collect(),
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// Whether the explanation has no positions.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }
}

impl<C: fmt::Display> fmt::Display for Explanation<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.concepts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "⟩")
    }
}

/// Renders an explanation through the ontology's concept printer.
pub fn display_explanation<O: Ontology>(ontology: &O, e: &Explanation<O::Concept>) -> String {
    let parts: Vec<String> = e
        .concepts
        .iter()
        .map(|c| ontology.concept_name(c))
        .collect();
    format!("⟨{}⟩", parts.join(", "))
}

/// The per-position extensions of an explanation over the why-not
/// instance's database.
pub fn explanation_extensions<O: Ontology>(
    ontology: &O,
    wn: &WhyNotInstance,
    e: &Explanation<O::Concept>,
) -> Vec<Extension> {
    e.concepts
        .iter()
        .map(|c| ontology.extension(c, &wn.instance))
        .collect()
}

/// Definition 3.2: `(C1,…,Cm)` explains `a ∉ Ans` iff every `ai` lies in
/// `ext(Ci, I)` and the extension product avoids `Ans` entirely.
pub fn is_explanation<O: Ontology>(
    ontology: &O,
    wn: &WhyNotInstance,
    e: &Explanation<O::Concept>,
) -> bool {
    if e.len() != wn.arity() {
        return false;
    }
    let exts = explanation_extensions(ontology, wn, e);
    exts_form_explanation(&exts, wn)
}

/// The extension-level core of Definition 3.2 (reused by the search
/// algorithms, which cache extensions).
pub fn exts_form_explanation(exts: &[Extension], wn: &WhyNotInstance) -> bool {
    exts_form_explanation_q(exts, wn.question())
}

/// [`exts_form_explanation`] against a borrowed [`QuestionRef`] (the
/// session-layer entry point), over owned or shared (`Arc`) extensions.
/// When the view came from [`AnswerIds::question`], membership in
/// extensions over the ids' pool is a bit probe.
pub fn exts_form_explanation_q<E: Borrow<Extension>>(exts: &[E], q: QuestionRef<'_>) -> bool {
    // A nullary question has no cells to chunk answer rows by.
    if let Some(ids) = q.ids.filter(|_| q.arity() > 0) {
        return ids.form_explanation(exts);
    }
    for (ext, a_i) in exts.iter().zip(q.tuple) {
        if !ext.borrow().contains(a_i) {
            return false;
        }
    }
    // Product disjointness: every answer tuple escapes on some position.
    q.ans
        .iter()
        .all(|t| t.iter().zip(exts).any(|(v, ext)| !ext.borrow().contains(v)))
}

/// Definition 3.3: `e1 ≤O e2` (componentwise subsumption).
pub fn less_general<O: Ontology>(
    ontology: &O,
    e1: &Explanation<O::Concept>,
    e2: &Explanation<O::Concept>,
) -> bool {
    e1.len() == e2.len()
        && e1
            .concepts
            .iter()
            .zip(&e2.concepts)
            .all(|(c1, c2)| ontology.subsumed(c1, c2))
}

/// Definition 3.3: `e1 <O e2` (strictly less general).
pub fn strictly_less_general<O: Ontology>(
    ontology: &O,
    e1: &Explanation<O::Concept>,
    e2: &Explanation<O::Concept>,
) -> bool {
    less_general(ontology, e1, e2) && !less_general(ontology, e2, e1)
}

/// Explanation equivalence `e1 ≡O e2` (§6).
pub fn equivalent_explanations<O: Ontology>(
    ontology: &O,
    e1: &Explanation<O::Concept>,
    e2: &Explanation<O::Concept>,
) -> bool {
    less_general(ontology, e1, e2) && less_general(ontology, e2, e1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use whynot_relation::{Atom, Cq, SchemaBuilder, Term, Var};

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    fn fixture() -> WhyNotInstance {
        let mut b = SchemaBuilder::new();
        let tc = b.relation("TC", ["from", "to"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(tc, vec![s("A"), s("B")]);
        inst.insert(tc, vec![s("B"), s("C")]);
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let q = Ucq::single(Cq::new(
            [Term::Var(x), Term::Var(y)],
            [
                Atom::new(tc, [Term::Var(x), Term::Var(z)]),
                Atom::new(tc, [Term::Var(z), Term::Var(y)]),
            ],
            [],
        ));
        WhyNotInstance::new(schema, inst, q, vec![s("A"), s("Z")]).unwrap()
    }

    #[test]
    fn construction_computes_answers() {
        let wn = fixture();
        assert_eq!(wn.ans.len(), 1);
        assert!(wn.ans.contains(&vec![s("A"), s("C")]));
        assert_eq!(wn.arity(), 2);
        let k = wn.restriction_constants();
        assert!(k.contains(&s("Z"))); // the missing tuple's constant
        assert!(k.contains(&s("A")));
    }

    #[test]
    fn construction_rejects_present_tuples() {
        let mut b = SchemaBuilder::new();
        let tc = b.relation("TC", ["from", "to"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(tc, vec![s("A"), s("B")]);
        let q = Ucq::single(Cq::new(
            [Term::Var(Var(0)), Term::Var(Var(1))],
            [Atom::new(tc, [Term::Var(Var(0)), Term::Var(Var(1))])],
            [],
        ));
        assert!(WhyNotInstance::new(schema, inst, q, vec![s("A"), s("B")]).is_err());
    }

    #[test]
    fn construction_rejects_arity_mismatch() {
        let mut b = SchemaBuilder::new();
        let tc = b.relation("TC", ["from", "to"]);
        let schema = b.finish().unwrap();
        let q = Ucq::single(Cq::new(
            [Term::Var(Var(0)), Term::Var(Var(1))],
            [Atom::new(tc, [Term::Var(Var(0)), Term::Var(Var(1))])],
            [],
        ));
        assert!(WhyNotInstance::new(schema, Instance::new(), q, vec![s("A")]).is_err());
    }

    #[test]
    fn display_uses_angle_brackets() {
        let e = Explanation::new(["EU-City".to_string(), "US-City".to_string()]);
        assert_eq!(e.to_string(), "⟨EU-City, US-City⟩");
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
    }
}
