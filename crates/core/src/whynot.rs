//! Why-not instances and explanations (paper Definitions 3.2, 3.3, 5.1).
//!
//! Every algorithm reads a question's answers in one form: id rows over
//! a [`ConstPool`] ([`AnswerIds`]), interned once for a one-shot question
//! or borrowed from a session's cache. Definition 3.2 is decided in one
//! place, [`exts_form_explanation`], and one position at a time by a
//! [`BlockedSet`].

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
}

/// A question's answers and missing tuple as ids of one [`ConstPool`]:
/// the answers are the sorted id rows of an [`AnswerRows`] (borrowed from
/// a cache, or resolved once for a one-shot question), optionally minus
/// one skipped row, and the tuple is resolved once (`None` marks a
/// constant the pool does not intern).
///
/// This is the one form in which the search cores read a question — the
/// schema and instance are carried separately by the evaluation context
/// or session, which is what lets a [`WhyNotSession`](crate::WhyNotSession)
/// pin `(ontology, instance)` once and stream many questions through the
/// same caches. [`exts_form_explanation`] and [`BlockedSet`] probe one
/// bit per cell for every extension over the same pool, and fall back to
/// [`Extension::contains`] for extensions over other pools.
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

    /// The missing tuple `a ∉ Ans`.
    pub fn tuple(&self) -> &'q Tuple {
        self.tuple
    }

    /// The arity `m` of the question.
    pub fn arity(&self) -> usize {
        self.tuple.len()
    }

    /// The number of answers in the view.
    pub fn len(&self) -> usize {
        self.rows.len() - usize::from(self.skip.is_some())
    }

    /// Whether the view holds no answer.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pool the ids index.
    fn pool(&self) -> &Arc<ConstPool> {
        self.rows.pool()
    }

    /// The answer rows in the view, in order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.rows.len())
            .filter(move |&r| Some(r) != self.skip)
            .map(move |r| self.rows.row(r))
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
}

/// Membership of the value with answer id `id` of `rows` in `ext`: a bit
/// probe wherever `ext` indexes the rows' pool, and an overflow-set probe
/// for an id past the pool's end (a query head constant the pool does
/// not intern).
pub(crate) fn answer_member(rows: &AnswerRows, ext: &Extension, id: u32) -> bool {
    match ext {
        Extension::Universal => true,
        Extension::Finite(set) if Arc::ptr_eq(set.pool(), rows.pool()) => match rows.pooled(id) {
            Some(id) => set.contains_id(id),
            None => set.extra().contains(rows.value(id)),
        },
        Extension::Finite(set) => set.contains(rows.value(id)),
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
/// The set is over the pool of the question's [`AnswerIds`]. In debug
/// builds every verdict of [`admits`](BlockedSet::admits) is
/// cross-checked against [`exts_form_explanation`] on the substituted
/// extensions.
#[derive(Clone, Debug)]
pub struct BlockedSet<'q> {
    question: &'q AnswerIds<'q>,
    position: usize,
    /// Whether every position other than `position` holds its tuple
    /// constant.
    others_hold: bool,
    blocked: ValueSet,
}

impl<'q> BlockedSet<'q> {
    /// `B_j` for `j = position` over the extensions `exts`, one per
    /// position of the question `ids` (the one at `position` is not
    /// read); `position` must be below the question's arity.
    pub fn new<E: Borrow<Extension>>(exts: &[E], position: usize, ids: &'q AnswerIds<'q>) -> Self {
        let m = ids.arity();
        debug_assert!(exts.len() == m && position < m, "position out of range");
        let others = || (0..m).filter(move |&k| k != position);
        let rows: &AnswerRows = &ids.rows;
        let mut blocked = ValueSet::empty_in(Arc::clone(rows.pool()));
        for row in ids.rows() {
            if others().all(|k| answer_member(rows, exts[k].borrow(), row[k])) {
                let id = row[position];
                match rows.pooled(id) {
                    Some(id) => blocked.insert_id(id),
                    None => blocked.insert_ref(rows.value(id)),
                };
            }
        }
        BlockedSet {
            question: ids,
            position,
            others_hold: others().all(|k| ids.holds(exts[k].borrow(), k)),
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
        exts_form_explanation(&substituted, self.question)
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
        let verdict =
            self.others_hold && self.question.holds(candidate, j) && self.is_disjoint(candidate);
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
    let exts = explanation_extensions(ontology, wn, e);
    // An answer with a constant outside its position's extension lies
    // outside the product and cannot break Definition 3.2, so only the
    // answers inside it are interned, into a pool over their constants
    // and the tuple's alone.
    let inside: Vec<&Tuple> = wn
        .ans
        .iter()
        .filter(|t| t.iter().zip(&exts).all(|(v, ext)| ext.contains(v)))
        .collect();
    let pool = Arc::new(ConstPool::from_refs(
        inside.iter().copied().flatten().chain(&wn.tuple),
    ));
    let rows = AnswerRows::from_tuples(pool, wn.tuple.len(), inside);
    exts_form_explanation(&exts, &AnswerIds::over(&rows, None, &wn.tuple))
}

/// Definition 3.2 over extensions, the one check every search and the
/// debug cross-checks share: `exts` explain the question iff there is
/// one extension per position, every `ai` lies in its extension, and
/// every answer escapes the extension product on some position.
/// Membership in an extension over the ids' pool is a bit probe.
pub fn exts_form_explanation<E: Borrow<Extension>>(exts: &[E], ids: &AnswerIds<'_>) -> bool {
    exts.len() == ids.arity()
        && exts
            .iter()
            .enumerate()
            .all(|(k, ext)| ids.holds(ext.borrow(), k))
        && ids.rows().all(|row| {
            exts.iter()
                .zip(row)
                .any(|(ext, &id)| !answer_member(&ids.rows, ext.borrow(), id))
        })
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
    fn explanation_check_rejects_one_extension_too_few_or_too_many() {
        // The question `(3, 4)` with `Ans = {(1, 2)}`.
        let pool = Arc::new(ConstPool::from_values((0..8).map(Value::int)));
        let ans: BTreeSet<Tuple> = [vec![Value::int(1), Value::int(2)]].into();
        let tuple = vec![Value::int(3), Value::int(4)];
        let ids = AnswerIds::new(&pool, &ans, &tuple);
        let (three, four) = (Value::int(3), Value::int(4));
        let exts = [
            Extension::finite([three]),
            Extension::finite([four]),
            Extension::Universal,
        ];
        assert!(exts_form_explanation(&exts[..2], &ids));
        assert!(!exts_form_explanation(&exts[..1], &ids), "one too few");
        assert!(!exts_form_explanation(&exts, &ids), "one too many");
        let top = [
            Extension::Universal,
            Extension::Universal,
            Extension::Universal,
        ];
        assert!(!exts_form_explanation(&top, &ids), "one too many, all ⊤");
    }

    #[test]
    fn display_uses_angle_brackets() {
        let e = Explanation::new(["EU-City".to_string(), "US-City".to_string()]);
        assert_eq!(e.to_string(), "⟨EU-City, US-City⟩");
        assert_eq!(e.len(), 2);
        assert!(!e.is_empty());
    }
}
