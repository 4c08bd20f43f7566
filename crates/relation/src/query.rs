//! Conjunctive queries with comparisons to constants, and unions thereof
//! (paper §2, "Queries").
//!
//! A [`Cq`] is `∃ȳ. φ(x̄, ȳ)` where `φ` is a conjunction of relational atoms
//! plus comparisons of the form `x op c` with
//! `op ∈ {=, <, >, ≤, ≥}` and `c ∈ Const`. Comparisons **between
//! variables** are deliberately unsupported, exactly as in the paper.
//!
//! Evaluation is a backtracking join in id space, over one
//! [`IdImage`] per relation the query reads: row-major `u32` rows plus a
//! CSR bucket array per attribute (id → the rows carrying it). Ids
//! ascend with the values they stand for, so a sorted row of ids is a
//! sorted tuple and a comparison `x op c` is an id range. Every search
//! node narrows to the smallest bucket among the picked atom's bound
//! arguments; only atoms with no bound argument (the enumeration roots)
//! still scan, which is the output-bounded part of the join. The search
//! binds the slots of a `u32` assignment and undoes them from one shared
//! trail, so a node allocates nothing. Matches push their head ids into
//! one flat buffer that is sorted and deduplicated at the end.
//!
//! The images index a [`ConstPool`], whose ids ascend with its values:
//!
//! * [`Ucq::eval_ids`] reads images over a shared pool, which a caller
//!   builds once and keeps across evaluations (a live session keeps one
//!   image per relation), and returns the answers as sorted id rows
//!   ([`AnswerRows`]) without materializing a tuple. An atom constant
//!   outside the pool matches nothing, and a head constant outside it
//!   goes to the answer set's overflow list.
//! * [`Cq::eval`], [`Ucq::eval`] and the `answers` probes build a
//!   transient pool per call (shared by a union's disjuncts) over the
//!   cells of the touched relations and the query's constants, image
//!   those relations over it and run the same join; each distinct answer
//!   becomes a [`Tuple`] exactly once.
//! * [`Ucq::patch_ids`] carries [`Ucq::eval_ids`] answers across a
//!   change to the relations, searching only from the changed rows.
//!
//! The paper's why-not instances carry their answer set `Ans`
//! pre-computed, so evaluation is never on the critical path of the
//! complexity results (Definition 5.1 discussion) — but a live session
//! must bring `q(I)` up to date after every delta to a relation the
//! query reads, which puts it on the wall-clock path of a mutating
//! question stream; patching makes that cost follow the delta.

use crate::error::RelError;
use crate::image::{AnswerRows, IdImage, RowDelta};
use crate::instance::{Instance, Tuple};
use crate::interval::{Bound, Interval};
use crate::pool::ConstPool;
use crate::schema::{RelId, Schema};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
// lint: allow(deterministic-iteration) — imported for the transient
// interning map in `Space::transient`, which is only ever probed by value.
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The assignment entry of a slot no atom has bound yet.
const UNBOUND: u32 = u32::MAX;

/// The id space one evaluation runs in: a pool, and the images over it of
/// the relations the query reads.
struct Space {
    pool: Arc<ConstPool>,
    /// One image per `(relation, arity)`, sorted by that key.
    rels: Vec<((RelId, usize), Arc<IdImage>)>,
}

impl Space {
    /// A transient space for evaluating `cqs` over `inst`: a pool over
    /// the cells of every `(relation, arity)` their atoms read, their atom
    /// and head constants and the values of `extra` (a probed answer
    /// tuple), and those relations' images over it.
    ///
    /// One pass interns every cell through a lookup-only map into
    /// first-seen ids; only the distinct values are then sorted and
    /// cloned into the pool, and the rows renumbered in value order.
    fn transient(cqs: &[Cq], extra: &[Value], inst: &Instance) -> Space {
        let need: BTreeSet<(RelId, usize)> = cqs
            .iter()
            .flat_map(|cq| &cq.atoms)
            .map(|a| (a.rel, a.args.len()))
            .collect();
        // lint: allow(deterministic-iteration) — lookup-only interning
        // map, probed by value and never iterated.
        let mut local = HashMap::<&Value, u32>::new();
        let mut seen: Vec<&Value> = Vec::new();
        let mut intern = |v| {
            *local.entry(v).or_insert_with(|| {
                seen.push(v);
                seen.len() as u32 - 1
            })
        };
        let rels: Vec<((RelId, usize), usize, Vec<u32>)> = need
            .into_iter()
            .map(|(rel, arity)| {
                let mut rows = Vec::with_capacity(inst.cardinality(rel) * arity);
                let mut len = 0;
                for t in inst.tuples(rel).filter(|t| t.len() == arity) {
                    rows.extend(t.iter().map(&mut intern));
                    len += 1;
                }
                ((rel, arity), len, rows)
            })
            .collect();
        for cq in cqs {
            for t in cq.head.iter().chain(cq.atoms.iter().flat_map(|a| &a.args)) {
                if let Term::Const(c) = t {
                    intern(c);
                }
            }
        }
        for v in extra {
            intern(v);
        }

        // Renumber in ascending value order.
        let mut order: Vec<u32> = (0..seen.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| seen[a as usize].cmp(seen[b as usize]));
        let mut rank = vec![0u32; seen.len()];
        for (sorted, &first) in order.iter().enumerate() {
            rank[first as usize] = sorted as u32;
        }
        let values = order.iter().map(|&first| seen[first as usize].clone());
        let pool = Arc::new(ConstPool::from_sorted_vec(values.collect()));
        let rels = rels
            .into_iter()
            .map(|(key, len, mut rows)| {
                for id in rows.iter_mut() {
                    *id = rank[*id as usize];
                }
                (key, Arc::new(IdImage::from_rows(key.1, len, rows)))
            })
            .collect();
        Space { pool, rels }
    }

    /// A space over `pool` holding the images `image` supplies of `rels`
    /// (a relation without one matches nothing).
    fn over(
        pool: &Arc<ConstPool>,
        rels: BTreeSet<RelId>,
        mut image: impl FnMut(RelId) -> Option<Arc<IdImage>>,
    ) -> Space {
        Space {
            pool: Arc::clone(pool),
            // `rels` ascends, so the keys do too.
            rels: rels
                .into_iter()
                .filter_map(|rel| image(rel).map(|image| ((rel, image.arity()), image)))
                .collect(),
        }
    }

    /// The image of `rel`'s tuples of length `arity`, if the space holds
    /// one.
    fn image(&self, rel: RelId, arity: usize) -> Option<&IdImage> {
        self.rels
            .binary_search_by_key(&(rel, arity), |(key, _)| *key)
            .ok()
            .map(|at| &*self.rels[at].1)
    }

    /// The pool id of `v`, if it has one.
    fn id(&self, v: &Value) -> Option<u32> {
        self.pool.id_of(v).map(|id| id.0)
    }

    /// The ids `lo..hi` whose values lie in `iv`: an interval of the value
    /// order is a run of the pool's sorted values.
    fn range(&self, iv: &Interval) -> (u32, u32) {
        let values = self.pool.values();
        let lo = values.partition_point(|v| match iv.lo() {
            Bound::Unbounded => false,
            Bound::Incl(l) => v < l,
            Bound::Excl(l) => v <= l,
        });
        let hi = values.partition_point(|v| match iv.hi() {
            Bound::Unbounded => true,
            Bound::Incl(h) => v <= h,
            Bound::Excl(h) => v < h,
        });
        (lo as u32, hi.max(lo) as u32)
    }

    /// The answers of the disjuncts in `cqs` (all of head arity `arity`)
    /// as sorted id rows. Every match pushes its head ids into one flat
    /// buffer; a head constant outside the pool gets an overflow id, and
    /// a Boolean query stops at its first witness.
    fn eval<'q>(&self, arity: usize, cqs: impl Iterator<Item = &'q Cq>) -> AnswerRows {
        let mut overflow: Vec<Value> = Vec::new();
        let mut heads: Vec<u32> = Vec::new();
        let mut matched = false;
        for cq in cqs {
            let Some(plan) = Plan::lower(cq, self, &mut |v| {
                Some(head_id(&self.pool, &mut overflow, v))
            }) else {
                continue;
            };
            Search::new(&plan).run(&mut |assignment| {
                matched |= push_head(&plan.head, assignment, &mut heads);
                // A Boolean query needs one witness; others need all.
                !matched || arity > 0
            });
            if matched && arity == 0 {
                break;
            }
        }
        AnswerRows::from_heads(Arc::clone(&self.pool), arity, matched, &heads, overflow)
    }

    /// Carries `answers`, the answers of the disjuncts in `cqs` (all of
    /// positive head arity) over the rows before `changes`, to this
    /// space's images, which hold the rows after them: the three steps
    /// of [`Ucq::patch_ids`], each a search with one atom bound to a
    /// changed row of its relation.
    fn patch<'q>(
        &self,
        answers: &mut AnswerRows,
        cqs: impl Iterator<Item = &'q Cq>,
        changes: &BTreeMap<RelId, RowDelta>,
    ) {
        let mut overflow = answers.overflow().to_vec();
        let plans: Vec<(&Cq, Plan)> = cqs
            .filter_map(|cq| {
                Plan::lower(cq, self, &mut |v| {
                    Some(head_id(&self.pool, &mut overflow, v))
                })
                .map(|plan| (cq, plan))
            })
            .collect();
        let (mut gained, mut candidates) = (Vec::new(), Vec::new());
        for (cq, plan) in &plans {
            let deltas: Vec<Option<&RowDelta>> =
                cq.atoms.iter().map(|a| changes.get(&a.rel)).collect();
            let mut new_rows = Search::new(plan);
            let mut old_rows = Search::with_deleted(plan, deltas.clone());
            for (atom, delta) in deltas.iter().enumerate() {
                if let Some(delta) = delta {
                    new_rows.heads_through(atom, delta.inserted(), &mut gained);
                    old_rows.heads_through(atom, delta.deleted(), &mut candidates);
                }
            }
        }
        let arity = answers.arity();
        let mut candidates: Vec<&[u32]> = candidates.chunks_exact(arity).collect();
        candidates.sort_unstable();
        candidates.dedup();
        let mut witnesses: Vec<Search> = plans.iter().map(|(_, plan)| Search::new(plan)).collect();
        let lost: Vec<u32> = candidates
            .into_iter()
            .filter(|row| !witnesses.iter_mut().any(|search| search.witnesses(row)))
            .flatten()
            .copied()
            .collect();
        answers.patch(overflow, &gained, &lost);
    }

    /// Whether `tuple` is an answer of `cq`: the head binds its slots
    /// from the tuple, and the body search stops at the first witness.
    fn answers(&self, cq: &Cq, tuple: &[Value]) -> bool {
        if tuple.len() != cq.head.len() {
            return false;
        }
        let Some(plan) = Plan::lower(cq, self, &mut |v| self.id(v)) else {
            return false;
        };
        let ids: Option<Vec<u32>> = tuple.iter().map(|v| self.id(v)).collect();
        ids.is_some_and(|ids| Search::new(&plan).witnesses(&ids))
    }
}

/// The answer id of the head constant `v`: its pool id, or past the
/// pool's end its index in `overflow`, where it is appended when new.
fn head_id(pool: &ConstPool, overflow: &mut Vec<Value>, v: &Value) -> u32 {
    match pool.id_of(v) {
        Some(id) => id.0,
        None => {
            let at = overflow.iter().position(|o| o == v).unwrap_or_else(|| {
                overflow.push(v.clone());
                overflow.len() - 1
            });
            (pool.len() + at) as u32
        }
    }
}

/// Pushes the head ids `assignment` gives onto `heads`. Returns `false`,
/// pushing nothing, when a head variable is unbound (no atom binds it:
/// no answer).
fn push_head(head: &[Arg], assignment: &[u32], heads: &mut Vec<u32>) -> bool {
    let start = heads.len();
    for arg in head {
        let id = arg.resolve(assignment);
        if id == UNBOUND {
            heads.truncate(start);
            return false;
        }
        heads.push(id);
    }
    true
}

/// Evaluates the disjuncts of `cqs` over `inst` in one transient space,
/// one answer buffer per head arity (a validated union has one).
fn eval_values(cqs: &[Cq], inst: &Instance) -> BTreeSet<Tuple> {
    let space = Space::transient(cqs, &[], inst);
    let arities: BTreeSet<usize> = cqs.iter().map(Cq::arity).collect();
    let mut out = BTreeSet::new();
    for arity in arities {
        let group = cqs.iter().filter(|d| d.arity() == arity);
        out.append(&mut space.eval(arity, group).to_set());
    }
    out
}

/// A lowered term: a slot of the query's dense variable order, or a
/// constant's id.
#[derive(Copy, Clone)]
enum Arg {
    Slot(usize),
    Id(u32),
}

impl Arg {
    /// The id the term stands for under `assignment` ([`UNBOUND`] for an
    /// unbound slot).
    fn resolve(self, assignment: &[u32]) -> u32 {
        match self {
            Arg::Slot(s) => assignment[s],
            Arg::Id(c) => c,
        }
    }
}

/// A [`Cq`] lowered against the images of one [`Space`].
struct Plan<'s> {
    /// Per atom: its relation's image, and its lowered arguments.
    atoms: Vec<(&'s IdImage, Vec<Arg>)>,
    head: Vec<Arg>,
    /// Per slot, the ids `lo..hi` its comparisons allow (if any).
    ranges: Vec<Option<(u32, u32)>>,
}

impl<'s> Plan<'s> {
    /// Lowers `cq`, with head constants lowered by `head_id`; `None` when
    /// it provably has no match: an empty comparison interval, an atom
    /// over a relation the space has no image of, or an atom constant
    /// without an id (no row can carry it).
    fn lower(
        cq: &Cq,
        space: &'s Space,
        head_id: &mut dyn FnMut(&Value) -> Option<u32>,
    ) -> Option<Plan<'s>> {
        let mut vars: BTreeMap<Var, Option<(u32, u32)>> =
            cq.vars().into_iter().map(|v| (v, None)).collect();
        for (v, iv) in cq.var_intervals() {
            if iv.is_empty() {
                return None;
            }
            vars.insert(v, Some(space.range(&iv)));
        }
        let slots: Vec<Var> = vars.keys().copied().collect();
        let slot = |v: &Var| slots.binary_search(v).ok().map(Arg::Slot);
        let atoms = cq
            .atoms
            .iter()
            .map(|a| {
                let image = space.image(a.rel, a.args.len())?;
                let args = a
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => slot(v),
                        Term::Const(c) => space.id(c).map(Arg::Id),
                    })
                    .collect::<Option<_>>()?;
                Some((image, args))
            })
            .collect::<Option<_>>()?;
        let head = cq
            .head
            .iter()
            .map(|t| match t {
                Term::Var(v) => slot(v),
                Term::Const(c) => head_id(c).map(Arg::Id),
            })
            .collect::<Option<_>>()?;
        Some(Plan {
            atoms,
            head,
            ranges: vars.into_values().collect(),
        })
    }
}

/// The state of one backtracking search over a [`Plan`].
struct Search<'p, 's> {
    plan: &'p Plan<'s>,
    /// Slot → bound id, or [`UNBOUND`].
    assignment: Vec<u32>,
    /// The slots bound so far, in binding order; backtracking pops them.
    trail: Vec<usize>,
    /// The atoms not yet joined.
    remaining: Vec<usize>,
    /// Per atom, the change whose deleted rows it matches beyond its
    /// image's (empty unless set by [`Search::with_deleted`]).
    deleted: Vec<Option<&'p RowDelta>>,
}

impl<'p, 's> Search<'p, 's> {
    fn new(plan: &'p Plan<'s>) -> Self {
        Search {
            plan,
            assignment: vec![UNBOUND; plan.ranges.len()],
            trail: Vec::with_capacity(plan.ranges.len()),
            remaining: (0..plan.atoms.len()).collect(),
            deleted: Vec::new(),
        }
    }

    /// A search that also matches each atom against the rows its
    /// relation's change in `deleted` lost: the body over the pre-change
    /// rows and more.
    fn with_deleted(plan: &'p Plan<'s>, deleted: Vec<Option<&'p RowDelta>>) -> Self {
        Search {
            deleted,
            ..Search::new(plan)
        }
    }

    /// Binds atom `atom` to `row` and takes it out of the join, or
    /// returns `false` when the row does not unify.
    fn seed(&mut self, atom: usize, row: &[u32]) -> bool {
        let plan = self.plan;
        self.remaining.retain(|&a| a != atom);
        self.unify(&plan.atoms[atom].1, row)
    }

    /// Undoes every binding and puts every atom back in the join.
    fn reset(&mut self) {
        self.undo(0);
        self.remaining.clear();
        self.remaining.extend(0..self.plan.atoms.len());
    }

    /// Pushes onto `heads` the head ids of every match with `atom` bound
    /// to one of `rows`.
    fn heads_through<'r>(
        &mut self,
        atom: usize,
        rows: impl Iterator<Item = &'r [u32]>,
        heads: &mut Vec<u32>,
    ) {
        let plan = self.plan;
        for row in rows {
            if self.seed(atom, row) {
                self.run(&mut |assignment| {
                    push_head(&plan.head, assignment, heads);
                    true
                });
            }
            self.reset();
        }
    }

    /// Whether the body has a match with the head bound to `row`.
    fn witnesses(&mut self, row: &[u32]) -> bool {
        let plan = self.plan;
        let found = self.unify(&plan.head, row) && !self.run(&mut |_| false);
        self.reset();
        found
    }

    /// Binds slot `s` to `id`, or checks it against the current binding.
    /// A fresh binding must lie in the slot's comparison range and is
    /// pushed on the trail.
    fn bind(&mut self, s: usize, id: u32) -> bool {
        let cur = self.assignment[s];
        if cur != UNBOUND {
            return cur == id;
        }
        if let Some((lo, hi)) = self.plan.ranges[s] {
            if id < lo || id >= hi {
                return false;
            }
        }
        self.assignment[s] = id;
        self.trail.push(s);
        true
    }

    /// Binds an atom's arguments to a row's ids.
    fn unify(&mut self, args: &[Arg], row: &[u32]) -> bool {
        args.iter().zip(row).all(|(arg, &id)| match *arg {
            Arg::Id(c) => c == id,
            Arg::Slot(s) => self.bind(s, id),
        })
    }

    /// Unbinds every slot bound since the trail had length `mark`.
    fn undo(&mut self, mark: usize) {
        for s in self.trail.drain(mark..) {
            self.assignment[s] = UNBOUND;
        }
    }

    /// Calls `on_match` for every satisfying assignment of the body;
    /// `on_match` returns `false` to cut the search, and so does `run`.
    ///
    /// Each node probes the image with every bound argument of the
    /// picked atom and iterates the smallest bucket, then the atom's
    /// deleted rows, if any; unification still checks all positions, so the
    /// bucket is a sound overapproximation, never a filter that could
    /// drop matches.
    fn run(&mut self, on_match: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        let plan = self.plan;
        let Some(pos) = self.pick_atom() else {
            return on_match(&self.assignment);
        };
        let atom = self.remaining.swap_remove(pos);
        let (image, args) = &plan.atoms[atom];
        let mut bucket: Option<&[u32]> = None;
        for (p, arg) in args.iter().enumerate() {
            let id = arg.resolve(&self.assignment);
            if id != UNBOUND {
                let b = image.bucket(p, id);
                if bucket.is_none_or(|cur| b.len() < cur.len()) {
                    bucket = Some(b);
                }
            }
        }
        let rows = (0..bucket.map_or(image.len(), <[u32]>::len))
            .map(|k| image.row(bucket.map_or(k, |b| b[k] as usize)));
        let deleted = self.deleted.get(atom).copied().flatten();
        let mut keep_going = true;
        for row in rows.chain(deleted.into_iter().flat_map(RowDelta::deleted)) {
            let mark = self.trail.len();
            if self.unify(args, row) {
                keep_going = self.run(on_match);
            }
            self.undo(mark);
            if !keep_going {
                break;
            }
        }
        self.remaining.push(atom);
        let last = self.remaining.len() - 1;
        self.remaining.swap(pos.min(last), last);
        keep_going
    }

    /// Most-constrained-atom heuristic: the remaining atom with the most
    /// bound (or constant) arguments.
    fn pick_atom(&self) -> Option<usize> {
        self.remaining
            .iter()
            .enumerate()
            .max_by_key(|(_, &atom)| {
                self.plan.atoms[atom]
                    .1
                    .iter()
                    .filter(|arg| arg.resolve(&self.assignment) != UNBOUND)
                    .count()
            })
            .map(|(pos, _)| pos)
    }
}

/// A query variable.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A term: a variable or a constant.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A constant.
    Const(Value),
}

impl Term {
    /// The variable inside, if any.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c:?}"),
        }
    }
}

/// A relational atom `R(t1, …, tk)`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Atom {
    /// The relation.
    pub rel: RelId,
    /// The argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Builds an atom.
    pub fn new(rel: RelId, args: impl IntoIterator<Item = Term>) -> Self {
        Atom {
            rel,
            args: args.into_iter().collect(),
        }
    }

    /// The variables occurring in the atom.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.args.iter().filter_map(Term::as_var)
    }
}

/// A comparison operator.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    /// Evaluates `lhs op rhs`.
    pub fn holds(self, lhs: &Value, rhs: &Value) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// All five operators.
    pub const ALL: [CmpOp; 5] = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Lt => "<",
            CmpOp::Le => "≤",
            CmpOp::Gt => ">",
            CmpOp::Ge => "≥",
        };
        f.write_str(s)
    }
}

/// A comparison `x op c`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Comparison {
    /// The compared variable.
    pub var: Var,
    /// The operator.
    pub op: CmpOp,
    /// The constant.
    pub value: Value,
}

impl Comparison {
    /// Builds a comparison.
    pub fn new(var: Var, op: CmpOp, value: impl Into<Value>) -> Self {
        Comparison {
            var,
            op,
            value: value.into(),
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {:?}", self.var, self.op, self.value)
    }
}

/// A conjunctive query with comparisons to constants.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Cq {
    /// Head terms (the output tuple shape; constants allowed).
    pub head: Vec<Term>,
    /// The relational atoms.
    pub atoms: Vec<Atom>,
    /// The comparisons.
    pub comparisons: Vec<Comparison>,
}

impl Cq {
    /// Builds a CQ.
    pub fn new(
        head: impl IntoIterator<Item = Term>,
        atoms: impl IntoIterator<Item = Atom>,
        comparisons: impl IntoIterator<Item = Comparison>,
    ) -> Self {
        Cq {
            head: head.into_iter().collect(),
            atoms: atoms.into_iter().collect(),
            comparisons: comparisons.into_iter().collect(),
        }
    }

    /// Head arity.
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// All variables occurring anywhere in the query.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out: BTreeSet<Var> = self.atoms.iter().flat_map(|a| a.vars()).collect();
        out.extend(self.head.iter().filter_map(Term::as_var));
        out.extend(self.comparisons.iter().map(|c| c.var));
        out
    }

    /// Variables occurring in atoms (the "safe" variables).
    pub fn atom_vars(&self) -> BTreeSet<Var> {
        self.atoms.iter().flat_map(|a| a.vars()).collect()
    }

    /// The relations the query reads (its syntactic signature): the
    /// answer set over an instance can only change when one of these
    /// relations changes.
    pub fn rels(&self) -> BTreeSet<RelId> {
        self.atoms.iter().map(|a| a.rel).collect()
    }

    /// All constants mentioned in the query (atom arguments, head,
    /// comparisons).
    pub fn constants(&self) -> BTreeSet<Value> {
        let mut out = BTreeSet::new();
        for t in self
            .head
            .iter()
            .chain(self.atoms.iter().flat_map(|a| a.args.iter()))
        {
            if let Term::Const(c) = t {
                out.insert(c.clone());
            }
        }
        out.extend(self.comparisons.iter().map(|c| c.value.clone()));
        out
    }

    /// Validates safety (head and comparison variables occur in atoms) and
    /// arity agreement against the schema.
    pub fn validate(&self, schema: &Schema) -> Result<(), RelError> {
        let safe = self.atom_vars();
        for atom in &self.atoms {
            if atom.rel.0 as usize >= schema.len() {
                return Err(RelError::UnknownRelation(format!("{:?}", atom.rel)));
            }
            let expected = schema.arity(atom.rel);
            if atom.args.len() != expected {
                return Err(RelError::ArityMismatch {
                    relation: schema.name(atom.rel).to_string(),
                    expected,
                    got: atom.args.len(),
                });
            }
        }
        for t in &self.head {
            if let Term::Var(v) = t {
                if !safe.contains(v) {
                    return Err(RelError::UnsafeQuery(format!(
                        "head variable {v} does not occur in any atom"
                    )));
                }
            }
        }
        for c in &self.comparisons {
            if !safe.contains(&c.var) {
                return Err(RelError::UnsafeQuery(format!(
                    "comparison variable {} does not occur in any atom",
                    c.var
                )));
            }
        }
        Ok(())
    }

    /// The interval constraint each variable must satisfy, intersecting all
    /// comparisons mentioning it. Variables without comparisons are absent.
    pub fn var_intervals(&self) -> BTreeMap<Var, Interval> {
        let mut out: BTreeMap<Var, Interval> = BTreeMap::new();
        for c in &self.comparisons {
            let iv = Interval::from_comparison(c.op, c.value.clone());
            out.entry(c.var)
                .and_modify(|cur| *cur = cur.intersect(&iv))
                .or_insert(iv);
        }
        out
    }

    /// Whether the comparison set alone is satisfiable (every variable's
    /// interval non-empty under density).
    pub fn comparisons_satisfiable(&self) -> bool {
        self.var_intervals().values().all(|iv| !iv.is_empty())
    }

    /// Evaluates the query over `inst`, returning the answer set `q(I)`.
    pub fn eval(&self, inst: &Instance) -> BTreeSet<Tuple> {
        eval_values(std::slice::from_ref(self), inst)
    }

    /// Whether `tuple` is an answer of the query over `inst`. Binds the
    /// head variables from the tuple and stops at the first body
    /// witness instead of enumerating every answer.
    pub fn answers(&self, inst: &Instance, tuple: &[Value]) -> bool {
        Space::transient(std::slice::from_ref(self), tuple, inst).answers(self, tuple)
    }

    /// Applies a substitution to every term (head, atoms) and rewrites
    /// comparisons. A comparison whose variable maps to a constant is
    /// evaluated statically; returns `None` if it is false (the disjunct
    /// becomes unsatisfiable).
    pub fn substitute(&self, map: &BTreeMap<Var, Term>) -> Option<Cq> {
        let sub = |t: &Term| -> Term {
            match t {
                Term::Var(v) => map.get(v).cloned().unwrap_or_else(|| t.clone()),
                Term::Const(_) => t.clone(),
            }
        };
        let head = self.head.iter().map(sub).collect();
        let atoms = self
            .atoms
            .iter()
            .map(|a| Atom {
                rel: a.rel,
                args: a.args.iter().map(sub).collect(),
            })
            .collect();
        let mut comparisons = Vec::new();
        for c in &self.comparisons {
            match map.get(&c.var) {
                None => comparisons.push(c.clone()),
                Some(Term::Var(w)) => comparisons.push(Comparison {
                    var: *w,
                    op: c.op,
                    value: c.value.clone(),
                }),
                Some(Term::Const(v)) => {
                    if !c.op.holds(v, &c.value) {
                        return None;
                    }
                }
            }
        }
        Some(Cq {
            head,
            atoms,
            comparisons,
        })
    }

    /// Renames every variable to a fresh one drawn from `next_var`
    /// (incremented past each use). Used to keep unfoldings apart.
    pub fn rename_apart(&self, next_var: &mut u32) -> Cq {
        let mut map: BTreeMap<Var, Term> = BTreeMap::new();
        for v in self.vars() {
            map.insert(v, Term::Var(Var(*next_var)));
            *next_var += 1;
        }
        // lint: allow(no-panic-in-lib) — the map sends every variable of this
        // CQ to a fresh variable term, which satisfies substitute's only
        // precondition; a total fresh renaming cannot fail.
        self.substitute(&map).expect("pure renaming cannot fail")
    }

    /// Renders the query with relation names.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        DisplayCq { cq: self, schema }
    }
}

struct DisplayCq<'a> {
    cq: &'a Cq,
    schema: &'a Schema,
}

impl fmt::Display for DisplayCq<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head: Vec<String> = self.cq.head.iter().map(|t| t.to_string()).collect();
        write!(f, "({}) ← ", head.join(", "))?;
        let mut first = true;
        for atom in &self.cq.atoms {
            if !first {
                write!(f, " ∧ ")?;
            }
            first = false;
            let args: Vec<String> = atom.args.iter().map(|t| t.to_string()).collect();
            write!(f, "{}({})", self.schema.name(atom.rel), args.join(", "))?;
        }
        for c in &self.cq.comparisons {
            if !first {
                write!(f, " ∧ ")?;
            }
            first = false;
            write!(f, "{c}")?;
        }
        if first {
            write!(f, "⊤")?;
        }
        Ok(())
    }
}

/// A union of conjunctive queries (all disjuncts share one head arity).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Ucq {
    /// The disjuncts.
    pub disjuncts: Vec<Cq>,
}

impl Ucq {
    /// Builds a UCQ.
    pub fn new(disjuncts: impl IntoIterator<Item = Cq>) -> Self {
        Ucq {
            disjuncts: disjuncts.into_iter().collect(),
        }
    }

    /// A single-disjunct UCQ.
    pub fn single(cq: Cq) -> Self {
        Ucq {
            disjuncts: vec![cq],
        }
    }

    /// Head arity (of the first disjunct; [`Ucq::validate`] checks
    /// agreement).
    pub fn arity(&self) -> usize {
        self.disjuncts.first().map_or(0, Cq::arity)
    }

    /// Validates each disjunct and head-arity agreement.
    pub fn validate(&self, schema: &Schema) -> Result<(), RelError> {
        let arity = self.arity();
        for d in &self.disjuncts {
            if d.arity() != arity {
                return Err(RelError::MixedArityUnion);
            }
            d.validate(schema)?;
        }
        Ok(())
    }

    /// Evaluates the union over `inst`. The transient pool and images
    /// are built once and shared by every disjunct.
    pub fn eval(&self, inst: &Instance) -> BTreeSet<Tuple> {
        eval_values(&self.disjuncts, inst)
    }

    /// The answers of the disjuncts with the union's [arity](Ucq::arity)
    /// (all of them, for a validated union), evaluated over `pool`'s ids
    /// and returned as sorted id rows — equal to [`Ucq::eval`] once
    /// mapped back to values, in the same order.
    ///
    /// `image` supplies each relation's [`IdImage`] over `pool` (`None`
    /// for a relation with none: its atoms match nothing). An atom
    /// constant outside the pool matches nothing; a head constant outside
    /// it goes to the answer set's overflow list. Comparisons are id
    /// ranges over the pool's sorted values.
    pub fn eval_ids(
        &self,
        pool: &Arc<ConstPool>,
        image: impl FnMut(RelId) -> Option<Arc<IdImage>>,
    ) -> AnswerRows {
        let space = Space::over(pool, self.rels(), image);
        let arity = self.arity();
        space.eval(arity, self.disjuncts.iter().filter(|d| d.arity() == arity))
    }

    /// Carries `answers`, this union's [`eval_ids`](Ucq::eval_ids)
    /// answers over the relations' rows before `changes`, to the rows
    /// after them, in place: they become the answers `eval_ids` returns
    /// over the new images, computed from the changed rows alone.
    ///
    /// `image` supplies each relation's [`IdImage`] after the change, over
    /// the answers' pool. `changes` holds, per relation, its net change as
    /// rows of that pool's ids; relations it omits did not change. The
    /// patch searches once per changed row and atom of its relation, so
    /// its cost follows the change, not the answer set; only the rows
    /// past the first changed answer move. A Boolean union is evaluated
    /// afresh, which stops at its first witness.
    ///
    /// 1. Every match with an atom bound to an inserted row is an answer.
    /// 2. The matches with an atom bound to a deleted row, the other
    ///    atoms reading the new rows plus the deleted ones, are the
    ///    candidate losses.
    /// 3. A candidate is lost unless some disjunct, its head bound to the
    ///    candidate, still has a witness over the new images.
    ///
    /// No count of derivations is kept: every answer the change creates
    /// has a derivation through an inserted row, which step 1 finds.
    pub fn patch_ids(
        &self,
        answers: &mut AnswerRows,
        image: impl FnMut(RelId) -> Option<Arc<IdImage>>,
        changes: &BTreeMap<RelId, RowDelta>,
    ) {
        let space = Space::over(answers.pool(), self.rels(), image);
        let arity = self.arity();
        let cqs = self.disjuncts.iter().filter(|d| d.arity() == arity);
        if arity == 0 {
            *answers = space.eval(arity, cqs);
        } else {
            space.patch(answers, cqs, changes);
        }
    }

    /// Whether `tuple` is an answer over `inst`. The transient pool and
    /// images are built once and shared by every disjunct.
    pub fn answers(&self, inst: &Instance, tuple: &[Value]) -> bool {
        let space = Space::transient(&self.disjuncts, tuple, inst);
        self.disjuncts.iter().any(|d| space.answers(d, tuple))
    }

    /// The relations any disjunct reads (the union's syntactic
    /// signature; see [`Cq::rels`]).
    pub fn rels(&self) -> BTreeSet<RelId> {
        self.disjuncts.iter().flat_map(|d| d.rels()).collect()
    }

    /// All constants mentioned in any disjunct.
    pub fn constants(&self) -> BTreeSet<Value> {
        self.disjuncts.iter().flat_map(|d| d.constants()).collect()
    }

    /// The largest variable index used, plus one (for fresh-variable
    /// generation).
    pub fn next_fresh_var(&self) -> u32 {
        self.disjuncts
            .iter()
            .flat_map(|d| d.vars())
            .map(|v| v.0 + 1)
            .max()
            .unwrap_or(0)
    }

    /// Renders the UCQ with relation names.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        DisplayUcq { ucq: self, schema }
    }
}

struct DisplayUcq<'a> {
    ucq: &'a Ucq,
    schema: &'a Schema,
}

impl fmt::Display for DisplayUcq<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.ucq.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, "  ∨  ")?;
            }
            write!(f, "{}", d.display(self.schema))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    fn tc_schema() -> (Schema, RelId) {
        let mut b = SchemaBuilder::new();
        let tc = b.relation("TC", ["from", "to"]);
        (b.finish().unwrap(), tc)
    }

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    /// The paper's Example 3.4 query:
    /// `q(x,y) = ∃z. TC(x,z) ∧ TC(z,y)`.
    fn two_hop(tc: RelId) -> Cq {
        let (x, y, z) = (Var(0), Var(1), Var(2));
        Cq::new(
            [Term::Var(x), Term::Var(y)],
            [
                Atom::new(tc, [Term::Var(x), Term::Var(z)]),
                Atom::new(tc, [Term::Var(z), Term::Var(y)]),
            ],
            [],
        )
    }

    fn train_connections(tc: RelId) -> Instance {
        let mut inst = Instance::new();
        for (a, b) in [
            ("Amsterdam", "Berlin"),
            ("Berlin", "Rome"),
            ("Berlin", "Amsterdam"),
            ("New York", "San Francisco"),
            ("San Francisco", "Santa Cruz"),
            ("Tokyo", "Kyoto"),
        ] {
            inst.insert(tc, vec![s(a), s(b)]);
        }
        inst
    }

    #[test]
    fn two_hop_matches_example_3_4() {
        let (_, tc) = tc_schema();
        let q = two_hop(tc);
        let ans = q.eval(&train_connections(tc));
        let expected: BTreeSet<Tuple> = [
            vec![s("Amsterdam"), s("Rome")],
            vec![s("Amsterdam"), s("Amsterdam")],
            vec![s("Berlin"), s("Berlin")],
            vec![s("New York"), s("Santa Cruz")],
        ]
        .into_iter()
        .collect();
        assert_eq!(ans, expected);
    }

    #[test]
    fn answers_agrees_with_eval() {
        let (_, tc) = tc_schema();
        let q = two_hop(tc);
        let inst = train_connections(tc);
        let ans = q.eval(&inst);
        assert!(q.answers(&inst, &[s("Amsterdam"), s("Rome")]));
        assert!(!q.answers(&inst, &[s("Amsterdam"), s("New York")]));
        for t in &ans {
            assert!(q.answers(&inst, t));
        }
    }

    #[test]
    fn constants_in_atoms_filter() {
        let (_, tc) = tc_schema();
        let y = Var(0);
        let q = Cq::new(
            [Term::Var(y)],
            [Atom::new(tc, [Term::Const(s("Berlin")), Term::Var(y)])],
            [],
        );
        let ans = q.eval(&train_connections(tc));
        let expected: BTreeSet<Tuple> = [vec![s("Rome")], vec![s("Amsterdam")]]
            .into_iter()
            .collect();
        assert_eq!(ans, expected);
    }

    #[test]
    fn comparisons_restrict_answers() {
        let mut b = SchemaBuilder::new();
        let c = b.relation("Cities", ["name", "population"]);
        let schema = b.finish().unwrap();
        let mut inst = Instance::new();
        inst.insert(c, vec![s("Rome"), Value::int(2_753_000)]);
        inst.insert(c, vec![s("Santa Cruz"), Value::int(59_946)]);
        let (x, p) = (Var(0), Var(1));
        let q = Cq::new(
            [Term::Var(x)],
            [Atom::new(c, [Term::Var(x), Term::Var(p)])],
            [Comparison::new(p, CmpOp::Gt, Value::int(1_000_000))],
        );
        q.validate(&schema).unwrap();
        let ans = q.eval(&inst);
        assert_eq!(ans, [vec![s("Rome")]].into_iter().collect());
    }

    #[test]
    fn unsatisfiable_comparisons_yield_empty() {
        let (_, tc) = tc_schema();
        let (x, y) = (Var(0), Var(1));
        let q = Cq::new(
            [Term::Var(x)],
            [Atom::new(tc, [Term::Var(x), Term::Var(y)])],
            [
                Comparison::new(y, CmpOp::Lt, Value::int(0)),
                Comparison::new(y, CmpOp::Gt, Value::int(0)),
            ],
        );
        assert!(!q.comparisons_satisfiable());
        assert!(q.eval(&train_connections(tc)).is_empty());
    }

    #[test]
    fn validate_rejects_unsafe_head() {
        let (schema, tc) = tc_schema();
        let q = Cq::new(
            [Term::Var(Var(7))],
            [Atom::new(tc, [Term::Var(Var(0)), Term::Var(Var(1))])],
            [],
        );
        assert!(matches!(q.validate(&schema), Err(RelError::UnsafeQuery(_))));
    }

    #[test]
    fn validate_rejects_unsafe_comparison() {
        let (schema, tc) = tc_schema();
        let q = Cq::new(
            [Term::Var(Var(0))],
            [Atom::new(tc, [Term::Var(Var(0)), Term::Var(Var(1))])],
            [Comparison::new(Var(9), CmpOp::Eq, s("x"))],
        );
        assert!(matches!(q.validate(&schema), Err(RelError::UnsafeQuery(_))));
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let (schema, tc) = tc_schema();
        let q = Cq::new(
            [Term::Var(Var(0))],
            [Atom::new(tc, [Term::Var(Var(0))])],
            [],
        );
        assert!(matches!(
            q.validate(&schema),
            Err(RelError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn substitute_rewrites_and_statically_evaluates() {
        let (_, tc) = tc_schema();
        let (x, y) = (Var(0), Var(1));
        let q = Cq::new(
            [Term::Var(x)],
            [Atom::new(tc, [Term::Var(x), Term::Var(y)])],
            [Comparison::new(y, CmpOp::Eq, s("Berlin"))],
        );
        // y ↦ "Berlin" satisfies the comparison, which disappears.
        let map: BTreeMap<Var, Term> = [(y, Term::Const(s("Berlin")))].into_iter().collect();
        let q2 = q.substitute(&map).unwrap();
        assert!(q2.comparisons.is_empty());
        assert_eq!(q2.atoms[0].args[1], Term::Const(s("Berlin")));
        // y ↦ "Rome" falsifies it: the disjunct dies.
        let map: BTreeMap<Var, Term> = [(y, Term::Const(s("Rome")))].into_iter().collect();
        assert!(q.substitute(&map).is_none());
    }

    #[test]
    fn rename_apart_is_fresh_and_equivalent() {
        let (_, tc) = tc_schema();
        let q = two_hop(tc);
        let mut next = 100;
        let q2 = q.rename_apart(&mut next);
        assert!(next >= 103);
        assert!(q2.vars().iter().all(|v| v.0 >= 100));
        let inst = train_connections(tc);
        assert_eq!(q.eval(&inst), q2.eval(&inst));
    }

    #[test]
    fn ucq_unions_disjuncts() {
        let (_, tc) = tc_schema();
        let (x, y) = (Var(0), Var(1));
        let direct = Cq::new(
            [Term::Var(x), Term::Var(y)],
            [Atom::new(tc, [Term::Var(x), Term::Var(y)])],
            [],
        );
        let ucq = Ucq::new([direct, two_hop(tc)]);
        let inst = train_connections(tc);
        let ans = ucq.eval(&inst);
        // 6 direct connections + 4 two-hop pairs = 10 (no overlap here).
        assert_eq!(ans.len(), 10);
        assert!(ucq.answers(&inst, &[s("Tokyo"), s("Kyoto")]));
    }

    #[test]
    fn ucq_validate_checks_arity_agreement() {
        let (schema, tc) = tc_schema();
        let one = Cq::new(
            [Term::Var(Var(0))],
            [Atom::new(tc, [Term::Var(Var(0)), Term::Var(Var(1))])],
            [],
        );
        let two = two_hop(tc);
        let ucq = Ucq::new([one, two]);
        assert!(matches!(
            ucq.validate(&schema),
            Err(RelError::MixedArityUnion)
        ));
    }

    #[test]
    fn display_is_readable() {
        let (schema, tc) = tc_schema();
        let q = two_hop(tc);
        let shown = q.display(&schema).to_string();
        assert!(shown.contains("TC(x0, x2)"));
        assert!(shown.contains("TC(x2, x1)"));
    }

    #[test]
    fn head_constants_are_emitted() {
        let (_, tc) = tc_schema();
        let (x, y) = (Var(0), Var(1));
        let q = Cq::new(
            [Term::Const(s("tag")), Term::Var(x)],
            [Atom::new(tc, [Term::Var(x), Term::Var(y)])],
            [],
        );
        let ans = q.eval(&train_connections(tc));
        assert!(ans.iter().all(|t| t[0] == s("tag")));
        assert_eq!(ans.len(), 5); // 5 distinct origins
    }
}
