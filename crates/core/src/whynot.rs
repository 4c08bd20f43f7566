//! Why-not instances and explanations (paper Definitions 3.2, 3.3, 5.1).

use crate::ontology::Ontology;
use std::borrow::{Borrow, Cow};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use whynot_concepts::{kernels, Extension, ValueSet};
use whynot_relation::{
    AnswerRows, ConstPool, Instance, RelError, Schema, Tuple, Ucq, Value, ValueId,
};

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
///
/// The answers are either a value-space set ([`QuestionRef::new`]) or
/// id rows over a pool ([`AnswerIds::question`]); the explanation check
/// probes bits in the latter case.
#[derive(Clone, Copy, Debug)]
pub struct QuestionRef<'q> {
    /// The missing tuple `a ∉ Ans`.
    pub tuple: &'q Tuple,
    answers: Answers<'q>,
}

/// Where a [`QuestionRef`]'s answers live.
#[derive(Clone, Copy, Debug)]
enum Answers<'q> {
    Values(&'q BTreeSet<Tuple>),
    Ids(&'q AnswerIds<'q>),
}

impl<'q> QuestionRef<'q> {
    /// A question view over value-space answers only.
    pub fn new(ans: &'q BTreeSet<Tuple>, tuple: &'q Tuple) -> Self {
        QuestionRef {
            tuple,
            answers: Answers::Values(ans),
        }
    }

    /// The arity `m` of the question.
    pub fn arity(&self) -> usize {
        self.tuple.len()
    }

    /// The number of answers `|Ans|`.
    pub fn answer_count(&self) -> usize {
        match self.answers {
            Answers::Values(ans) => ans.len(),
            Answers::Ids(ids) => ids.len(),
        }
    }
}

/// A question's answers and missing tuple as ids of one [`ConstPool`]:
/// the answers are the sorted id rows of an [`AnswerRows`] (borrowed from
/// a cache, or resolved once for a one-shot question), optionally minus
/// one skipped row, and the tuple is resolved once (`None` marks a
/// constant the pool does not intern).
///
/// [`question`](AnswerIds::question) is the only way to attach the ids to
/// a view, so they always describe that view's answers and tuple.
/// [`exts_form_explanation_q`] uses them for every extension over that
/// same pool — membership becomes one bit probe per cell — and falls
/// back to [`Extension::contains`] for extensions over other pools.
#[derive(Clone, Debug)]
pub struct AnswerIds<'q> {
    rows: Cow<'q, AnswerRows>,
    /// The row the view leaves out (a contrast question's foil).
    skip: Option<usize>,
    tuple: &'q Tuple,
    tuple_ids: Vec<Option<ValueId>>,
}

impl<'q> AnswerIds<'q> {
    /// Resolves a one-shot question's value-space answers and missing
    /// tuple against `pool`: the answers are interned once into owned
    /// rows.
    pub fn new(pool: &Arc<ConstPool>, ans: &BTreeSet<Tuple>, tuple: &'q Tuple) -> Self {
        let rows = AnswerRows::from_tuples(Arc::clone(pool), tuple.len(), ans);
        AnswerIds::with_rows(Cow::Owned(rows), None, tuple)
    }

    /// A view over answer rows that are already in id space (a session's
    /// cached answers), leaving out row `skip` when given — the contrast
    /// residual `Ans \ {foil}`. Resolves only the tuple.
    pub fn over(rows: &'q AnswerRows, skip: Option<usize>, tuple: &'q Tuple) -> Self {
        AnswerIds::with_rows(Cow::Borrowed(rows), skip, tuple)
    }

    fn with_rows(rows: Cow<'q, AnswerRows>, skip: Option<usize>, tuple: &'q Tuple) -> Self {
        let tuple_ids = tuple.iter().map(|v| rows.pool().id_of(v)).collect();
        AnswerIds {
            rows,
            skip,
            tuple,
            tuple_ids,
        }
    }

    /// The question these ids describe, checked through them.
    pub fn question(&self) -> QuestionRef<'_> {
        QuestionRef {
            tuple: self.tuple,
            answers: Answers::Ids(self),
        }
    }

    /// The pool the ids index.
    fn pool(&self) -> &Arc<ConstPool> {
        self.rows.pool()
    }

    /// The number of answers in the view.
    pub(crate) fn len(&self) -> usize {
        self.rows.len() - usize::from(self.skip.is_some())
    }

    /// The answer rows in the view, in order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.rows.len())
            .filter(move |&r| Some(r) != self.skip)
            .map(move |r| self.rows.row(r))
    }

    /// Membership of the value with answer id `id` in `ext`: a bit probe
    /// wherever `ext` indexes this pool.
    fn member(&self, ext: &Extension, id: u32) -> bool {
        match ext {
            Extension::Universal => true,
            Extension::Finite(set) if Arc::ptr_eq(set.pool(), self.pool()) => {
                match self.rows.pooled(id) {
                    Some(id) => set.contains_id(id),
                    None => set.extra().contains(self.rows.value(id)),
                }
            }
            Extension::Finite(set) => set.contains(self.rows.value(id)),
        }
    }

    /// Membership of the tuple's constant at position `k` in `ext`.
    fn holds(&self, ext: &Extension, k: usize) -> bool {
        let v = &self.tuple[k];
        match ext {
            Extension::Universal => true,
            Extension::Finite(set) if Arc::ptr_eq(set.pool(), self.pool()) => {
                match self.tuple_ids[k] {
                    Some(id) => set.contains_id(id),
                    None => set.extra().contains(v),
                }
            }
            Extension::Finite(set) => set.contains(v),
        }
    }

    /// Definition 3.2 over `exts`, probing bits wherever an extension
    /// indexes this pool.
    fn form_explanation<E: Borrow<Extension>>(&self, exts: &[E]) -> bool {
        let holds_tuple = exts
            .iter()
            .enumerate()
            .all(|(k, ext)| self.holds(ext.borrow(), k));
        // Product disjointness: every answer tuple escapes on some position.
        holds_tuple
            && self.rows().all(|row| {
                exts.iter()
                    .zip(row)
                    .any(|(ext, &id)| !self.member(ext.borrow(), id))
            })
    }
}

/// Definition 3.2 at one position `j` while every other position stays
/// fixed: the *blocked set*
/// `B_j = {t[j] : t ∈ Ans, t[k] ∈ ext(C_k) for all k ≠ j}`.
///
/// With the other positions fixed, `(C_1,…,C_j := E,…,C_m)` is an
/// explanation iff every `a_k` lies in its extension (`a_j` in `E`) and
/// `E ∩ B_j = ∅`: an answer falls inside the extension product exactly
/// when its `j`-th constant is in `E` and its other constants are in
/// their fixed extensions. So a growth loop that only changes position
/// `j` builds `B_j` once (`O(|Ans|·m)` membership probes) and decides
/// each probe by one disjointness test — a word AND when the candidate
/// extension shares the question's pool — instead of rescanning `Ans`.
/// Because lub growth is monotone, a loop can also skip every constant
/// of `B_j` without growing: any lub containing it is rejected.
///
/// The set is over the pool of the view's [`AnswerIds`], or over a
/// private pool for a value-space view. In debug builds every verdict of
/// [`admits`](BlockedSet::admits) is cross-checked against
/// [`exts_form_explanation_q`] on the substituted extensions.
#[derive(Clone, Debug)]
pub struct BlockedSet<'q> {
    q: QuestionRef<'q>,
    position: usize,
    /// Whether every position other than `position` holds its tuple
    /// constant.
    others_hold: bool,
    blocked: ValueSet,
}

impl<'q> BlockedSet<'q> {
    /// `B_j` for `j = position` over the extensions `exts`, one per
    /// position of `q` (the one at `position` is not read); `position`
    /// must be below `q`'s arity.
    pub fn new<E: Borrow<Extension>>(exts: &[E], position: usize, q: QuestionRef<'q>) -> Self {
        let m = q.arity();
        debug_assert!(exts.len() == m && position < m, "position out of range");
        let others = || (0..m).filter(move |&k| k != position);
        let (others_hold, blocked) = match q.answers {
            Answers::Ids(ids) => {
                let mut blocked = ValueSet::empty_in(Arc::clone(ids.pool()));
                for row in ids.rows() {
                    if others().all(|k| ids.member(exts[k].borrow(), row[k])) {
                        let id = row[position];
                        match ids.rows.pooled(id) {
                            Some(id) => blocked.insert_id(id),
                            None => blocked.insert_ref(ids.rows.value(id)),
                        };
                    }
                }
                let hold = others().all(|k| ids.holds(exts[k].borrow(), k));
                (hold, blocked)
            }
            Answers::Values(ans) => {
                let blocked = ans
                    .iter()
                    .filter(|t| others().all(|k| exts[k].borrow().contains(&t[k])))
                    .map(|t| t[position].clone())
                    .collect();
                let hold = others().all(|k| exts[k].borrow().contains(&q.tuple[k]));
                (hold, blocked)
            }
        };
        BlockedSet {
            q,
            position,
            others_hold,
            blocked,
        }
    }

    /// Whether `v ∈ B_j`.
    pub fn contains(&self, v: &Value) -> bool {
        self.blocked.contains(v)
    }

    /// Whether `pool`'s value `id` is in `B_j`: a bit probe when `pool`
    /// is the question's pool.
    pub fn contains_in(&self, pool: &Arc<ConstPool>, id: ValueId) -> bool {
        self.blocked.contains_in(pool, id)
    }

    /// `B_j`'s members as ascending ids of `pool`, or `None` when the set
    /// is over another pool or holds a value `pool` does not intern. A
    /// growth loop rejects a probe at the first member its lub holds
    /// (see [`LubState::contains_id`](whynot_concepts::LubState::contains_id)).
    pub(crate) fn ids(&self, pool: &Arc<ConstPool>) -> Option<Vec<ValueId>> {
        if !Arc::ptr_eq(self.blocked.pool(), pool) || !self.blocked.extra().is_empty() {
            return None;
        }
        Some(
            kernels::ones(self.blocked.words())
                .map(|i| ValueId(i as u32))
                .collect(),
        )
    }

    /// Whether every position other than this set's holds its tuple
    /// constant in the extensions the set was built from.
    pub(crate) fn others_hold(&self) -> bool {
        self.others_hold
    }

    /// Definition 3.2 in full for `exts` with this set's position
    /// replaced by `candidate`: the reference every verdict is checked
    /// against in debug builds.
    pub(crate) fn full_check<E: Borrow<Extension>>(
        &self,
        exts: &[E],
        candidate: &Extension,
    ) -> bool {
        let substituted: Vec<&Extension> = exts
            .iter()
            .enumerate()
            .map(|(k, e)| {
                if k == self.position {
                    candidate
                } else {
                    e.borrow()
                }
            })
            .collect();
        exts_form_explanation_q(&substituted, self.q)
    }

    /// Whether `ext ∩ B_j = ∅` (`⊤` meets every non-empty `B_j`).
    pub fn is_disjoint(&self, ext: &Extension) -> bool {
        match ext {
            Extension::Universal => self.blocked.is_empty(),
            Extension::Finite(set) => self.blocked.is_disjoint(set),
        }
    }

    /// Definition 3.2 for `exts` with position `j` replaced by
    /// `candidate`, where `exts` are the extensions this set was built
    /// from: the other positions hold their constants, `candidate` holds
    /// `a_j`, and `candidate ∩ B_j = ∅`.
    pub fn admits<E: Borrow<Extension>>(&self, exts: &[E], candidate: &Extension) -> bool {
        let j = self.position;
        let holds_own = match self.q.answers {
            Answers::Ids(ids) => ids.holds(candidate, j),
            Answers::Values(_) => candidate.contains(&self.q.tuple[j]),
        };
        let verdict = self.others_hold && holds_own && self.is_disjoint(candidate);
        debug_assert_eq!(
            verdict,
            self.full_check(exts, candidate),
            "blocked-set verdict at position {j} disagrees with Definition 3.2"
        );
        verdict
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
    let ans = match q.answers {
        Answers::Ids(ids) => return ids.form_explanation(exts),
        Answers::Values(ans) => ans,
    };
    for (ext, a_i) in exts.iter().zip(q.tuple) {
        if !ext.borrow().contains(a_i) {
            return false;
        }
    }
    // Product disjointness: every answer tuple escapes on some position.
    ans.iter()
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
