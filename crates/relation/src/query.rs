//! Conjunctive queries with comparisons to constants, and unions thereof
//! (paper §2, "Queries").
//!
//! A [`Cq`] is `∃ȳ. φ(x̄, ȳ)` where `φ` is a conjunction of relational atoms
//! plus comparisons of the form `x op c` with
//! `op ∈ {=, <, >, ≤, ≥}` and `c ∈ Const`. Comparisons **between
//! variables** are deliberately unsupported, exactly as in the paper.
//!
//! Evaluation is a backtracking join in id space. Each call builds a
//! transient [`JoinIndex`] over the relations the query touches (shared
//! by a union's disjuncts): one pass interns every cell, together with
//! the query's constants, into a dense id, and the ids are renumbered in
//! ascending value order, so a sorted row of ids is a sorted tuple.
//! Relations are stored as flat row-major id arrays, and per attribute
//! position a CSR bucket array lists the rows carrying each id. Every
//! search node narrows to the smallest bucket among the picked atom's
//! bound arguments; only atoms with no bound argument (the enumeration
//! roots) still scan, which is the output-bounded part of the join. The
//! search binds the slots of a `u32` assignment and undoes them from one
//! shared trail, so a node allocates nothing. Matches push their head ids
//! into one flat buffer that is sorted and deduplicated at the end; each
//! distinct answer becomes a [`Tuple`] exactly once.
//!
//! The paper's why-not instances carry their answer set `Ans`
//! pre-computed, so evaluation is never on the critical path of the
//! complexity results (Definition 5.1 discussion) — but a live session
//! re-evaluates `q(I)` after every delta to a relation the query reads,
//! which puts it on the wall-clock path of a mutating question stream.

use crate::error::RelError;
use crate::instance::{Instance, Tuple};
use crate::interval::Interval;
use crate::schema::{RelId, Schema};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
// lint: allow(deterministic-iteration) — imported for JoinIndex's
// interning map, which is only ever probed by value, never iterated.
use std::collections::HashMap;
use std::fmt;

/// The assignment entry of a slot no atom has bound yet.
const UNBOUND: u32 = u32::MAX;

/// A transient id-space join index over the relations a query touches.
///
/// Built once per evaluation call and shared by a [`Ucq`]'s disjuncts.
/// Every cell of a touched relation and every constant of the query (and
/// of a probed answer tuple) gets a dense id; ids ascend with the
/// values they stand for, so comparing ids compares values. The index
/// borrows the instance and the query, so it cannot outlive (or observe
/// mutations of) the data it summarizes.
struct JoinIndex<'a> {
    /// The interned values in ascending order: id `i` stands for
    /// `values[i]`.
    values: Vec<&'a Value>,
    /// Value → first-seen id, renumbered to its sorted id through `rank`.
    // lint: allow(deterministic-iteration) — lookup-only: probed for the
    // query's constants and answer values, never iterated.
    local: HashMap<&'a Value, u32>,
    /// First-seen id → sorted id.
    rank: Vec<u32>,
    /// One entry per `(relation, arity)` some atom reads, sorted by that
    /// key.
    rels: Vec<RelIndex>,
}

/// The tuples of one relation with one arity, in id space.
struct RelIndex {
    rel: RelId,
    arity: usize,
    /// Number of tuples.
    len: usize,
    /// Row-major ids, `arity` per tuple, in instance (sorted-set) order.
    rows: Vec<u32>,
    /// Per attribute `p`, the CSR offsets `offsets[p·stride + id]` ..
    /// `offsets[p·stride + id + 1]` into that attribute's block of
    /// `positions`; `stride` is the number of ids plus one.
    offsets: Vec<u32>,
    stride: usize,
    /// Per attribute `p`, a block of `len` row numbers grouped by the id
    /// the row carries at `p`, ascending within each group.
    positions: Vec<u32>,
}

impl RelIndex {
    /// The row numbers whose attribute `attr` carries `id`, ascending —
    /// empty when the id never occurs there.
    fn bucket(&self, attr: usize, id: u32) -> &[u32] {
        let at = attr * self.stride + id as usize;
        let block = &self.positions[attr * self.len..(attr + 1) * self.len];
        &block[self.offsets[at] as usize..self.offsets[at + 1] as usize]
    }

    /// Row `r`'s ids.
    fn row(&self, r: usize) -> &[u32] {
        &self.rows[r * self.arity..(r + 1) * self.arity]
    }

    /// Builds the per-attribute CSR buckets by counting sort over ids
    /// `0..stride - 1`.
    fn build_buckets(&mut self, stride: usize) {
        self.stride = stride;
        self.offsets = vec![0; self.arity * stride];
        self.positions = vec![0; self.arity * self.len];
        for p in 0..self.arity {
            let offsets = &mut self.offsets[p * stride..(p + 1) * stride];
            let positions = &mut self.positions[p * self.len..(p + 1) * self.len];
            // offsets[id] := number of rows carrying an id ≤ `id` at `p`.
            for r in 0..self.len {
                offsets[self.rows[r * self.arity + p] as usize] += 1;
            }
            let mut total = 0;
            for slot in offsets.iter_mut() {
                total += *slot;
                *slot = total;
            }
            // Filling from the last row walks each offset down to its
            // group's start and leaves every group ascending.
            for r in (0..self.len).rev() {
                let at = &mut offsets[self.rows[r * self.arity + p] as usize];
                *at -= 1;
                positions[*at as usize] = r as u32;
            }
        }
    }
}

impl<'a> JoinIndex<'a> {
    /// Indexes every `(relation, arity)` pair the atoms of `cqs` read,
    /// interning their cells, the constants of `cqs` and the values of
    /// `extra` (a probed answer tuple).
    fn build(cqs: &'a [Cq], extra: &'a [Value], inst: &'a Instance) -> Self {
        let need: BTreeSet<(RelId, usize)> = cqs
            .iter()
            .flat_map(|cq| &cq.atoms)
            .map(|a| (a.rel, a.args.len()))
            .collect();
        // lint: allow(deterministic-iteration) — see the field doc:
        // lookup-only.
        let mut local = HashMap::new();
        let mut seen: Vec<&'a Value> = Vec::new();
        let mut intern = |v: &'a Value| -> u32 {
            *local.entry(v).or_insert_with(|| {
                seen.push(v);
                seen.len() as u32 - 1
            })
        };
        let mut rels: Vec<RelIndex> = need
            .into_iter()
            .map(|(rel, arity)| {
                let mut rows = Vec::with_capacity(inst.cardinality(rel) * arity);
                let mut len = 0;
                for t in inst.tuples(rel).filter(|t| t.len() == arity) {
                    rows.extend(t.iter().map(&mut intern));
                    len += 1;
                }
                RelIndex {
                    rel,
                    arity,
                    len,
                    rows,
                    offsets: Vec::new(),
                    stride: 0,
                    positions: Vec::new(),
                }
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
        let values: Vec<&Value> = order.iter().map(|&first| seen[first as usize]).collect();
        let stride = values.len() + 1;
        for rel in &mut rels {
            for id in &mut rel.rows {
                *id = rank[*id as usize];
            }
            rel.build_buckets(stride);
        }
        JoinIndex {
            values,
            local,
            rank,
            rels,
        }
    }

    /// The sorted id of `v`, if it was interned.
    fn id(&self, v: &Value) -> Option<u32> {
        self.local.get(v).map(|&first| self.rank[first as usize])
    }

    /// The answers of the disjuncts in `cqs` (all of head arity `arity`).
    fn eval<'q>(&self, arity: usize, cqs: impl Iterator<Item = &'q Cq>) -> BTreeSet<Tuple> {
        let mut heads: Vec<u32> = Vec::new();
        let mut matched = false;
        for cq in cqs {
            let Some(plan) = Plan::lower(cq, self) else {
                continue;
            };
            let mut search = Search::new(self, &plan);
            search.run(&mut |assignment| {
                let start = heads.len();
                for arg in &plan.head {
                    let id = arg.resolve(assignment);
                    if id == UNBOUND {
                        // A head variable no atom binds: no answer.
                        heads.truncate(start);
                        return true;
                    }
                    heads.push(id);
                }
                matched = true;
                // A Boolean query needs one witness; others need all.
                arity > 0
            });
            if matched && arity == 0 {
                break;
            }
        }
        if arity == 0 {
            return if matched {
                BTreeSet::from([Tuple::new()])
            } else {
                BTreeSet::new()
            };
        }
        let mut rows: Vec<&[u32]> = heads.chunks_exact(arity).collect();
        rows.sort_unstable();
        rows.dedup();
        // Id order is value order, so `rows` is already in tuple order.
        rows.into_iter()
            .map(|row| {
                row.iter()
                    .map(|&id| self.values[id as usize].clone())
                    .collect()
            })
            .collect()
    }

    /// Whether `tuple` is an answer of `cq`: the head binds its slots
    /// from the tuple, and the body search stops at the first witness.
    /// `tuple`'s values must have been interned by [`JoinIndex::build`].
    fn answers(&self, cq: &Cq, tuple: &[Value]) -> bool {
        if tuple.len() != cq.head.len() {
            return false;
        }
        let Some(plan) = Plan::lower(cq, self) else {
            return false;
        };
        let mut search = Search::new(self, &plan);
        for (arg, value) in plan.head.iter().zip(tuple) {
            let Some(id) = self.id(value) else {
                return false;
            };
            let bound = match *arg {
                Arg::Id(c) => c == id,
                Arg::Slot(s) => search.bind(s, id),
            };
            if !bound {
                return false;
            }
        }
        let mut found = false;
        search.run(&mut |_| {
            found = true;
            false
        });
        found
    }
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

/// A [`Cq`] lowered against one [`JoinIndex`].
struct Plan {
    /// Per atom: its `(relation, arity)` entry in the index, and its
    /// lowered arguments.
    atoms: Vec<(usize, Vec<Arg>)>,
    head: Vec<Arg>,
    /// Per slot, the interval its comparisons allow (if any).
    intervals: Vec<Option<Interval>>,
}

impl Plan {
    /// Lowers `cq`; `None` when it provably has no match (an empty
    /// comparison interval) or reads something the index was not built
    /// for.
    fn lower(cq: &Cq, index: &JoinIndex<'_>) -> Option<Plan> {
        let mut vars: BTreeMap<Var, Option<Interval>> =
            cq.vars().into_iter().map(|v| (v, None)).collect();
        for (v, iv) in cq.var_intervals() {
            if iv.is_empty() {
                return None;
            }
            vars.insert(v, Some(iv));
        }
        let slots: Vec<Var> = vars.keys().copied().collect();
        let lower = |t: &Term| -> Option<Arg> {
            match t {
                Term::Var(v) => slots.binary_search(v).ok().map(Arg::Slot),
                Term::Const(c) => index.id(c).map(Arg::Id),
            }
        };
        let atoms = cq
            .atoms
            .iter()
            .map(|a| {
                let rel = index
                    .rels
                    .binary_search_by(|r| (r.rel, r.arity).cmp(&(a.rel, a.args.len())))
                    .ok()?;
                Some((rel, a.args.iter().map(lower).collect::<Option<_>>()?))
            })
            .collect::<Option<_>>()?;
        let head = cq.head.iter().map(lower).collect::<Option<_>>()?;
        Some(Plan {
            atoms,
            head,
            intervals: vars.into_values().collect(),
        })
    }
}

/// The state of one backtracking search over a [`Plan`].
struct Search<'s, 'a> {
    index: &'s JoinIndex<'a>,
    plan: &'s Plan,
    /// Slot → bound id, or [`UNBOUND`].
    assignment: Vec<u32>,
    /// The slots bound so far, in binding order; backtracking pops them.
    trail: Vec<usize>,
    /// The atoms not yet joined.
    remaining: Vec<usize>,
}

impl<'s, 'a> Search<'s, 'a> {
    fn new(index: &'s JoinIndex<'a>, plan: &'s Plan) -> Self {
        Search {
            index,
            plan,
            assignment: vec![UNBOUND; plan.intervals.len()],
            trail: Vec::with_capacity(plan.intervals.len()),
            remaining: (0..plan.atoms.len()).collect(),
        }
    }

    /// Binds slot `s` to `id`, or checks it against the current binding.
    /// A fresh binding must satisfy the slot's comparisons and is pushed
    /// on the trail.
    fn bind(&mut self, s: usize, id: u32) -> bool {
        let cur = self.assignment[s];
        if cur != UNBOUND {
            return cur == id;
        }
        if let Some(iv) = &self.plan.intervals[s] {
            if !iv.contains(self.index.values[id as usize]) {
                return false;
            }
        }
        self.assignment[s] = id;
        self.trail.push(s);
        true
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
    /// Each node probes the index with every bound argument of the
    /// picked atom and iterates the smallest bucket; unification still
    /// checks all positions, so the bucket is a sound overapproximation,
    /// never a filter that could drop matches.
    fn run(&mut self, on_match: &mut dyn FnMut(&[u32]) -> bool) -> bool {
        let (plan, index) = (self.plan, self.index);
        let Some(pos) = self.pick_atom() else {
            return on_match(&self.assignment);
        };
        let atom = self.remaining.swap_remove(pos);
        let (rel, args) = &plan.atoms[atom];
        let rel = &index.rels[*rel];
        let mut bucket: Option<&[u32]> = None;
        for (p, arg) in args.iter().enumerate() {
            let id = arg.resolve(&self.assignment);
            if id != UNBOUND {
                let b = rel.bucket(p, id);
                if bucket.is_none_or(|cur| b.len() < cur.len()) {
                    bucket = Some(b);
                }
            }
        }
        let mut keep_going = true;
        for k in 0..bucket.map_or(rel.len, <[u32]>::len) {
            let row = rel.row(bucket.map_or(k, |b| b[k] as usize));
            let mark = self.trail.len();
            let unified = args.iter().zip(row).all(|(arg, &id)| match *arg {
                Arg::Id(c) => c == id,
                Arg::Slot(s) => self.bind(s, id),
            });
            if unified {
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
        let cqs = std::slice::from_ref(self);
        JoinIndex::build(cqs, &[], inst).eval(self.arity(), cqs.iter())
    }

    /// Whether `tuple` is an answer of the query over `inst`. Binds the
    /// head variables from the tuple and stops at the first body
    /// witness instead of enumerating every answer.
    pub fn answers(&self, inst: &Instance, tuple: &[Value]) -> bool {
        JoinIndex::build(std::slice::from_ref(self), tuple, inst).answers(self, tuple)
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

    /// Evaluates the union over `inst`. The join index is built once
    /// and shared by every disjunct.
    pub fn eval(&self, inst: &Instance) -> BTreeSet<Tuple> {
        let index = JoinIndex::build(&self.disjuncts, &[], inst);
        // One answer buffer per head arity (a validated union has one).
        let arities: BTreeSet<usize> = self.disjuncts.iter().map(Cq::arity).collect();
        let mut out = BTreeSet::new();
        for arity in arities {
            let group = self.disjuncts.iter().filter(|d| d.arity() == arity);
            out.append(&mut index.eval(arity, group));
        }
        out
    }

    /// Whether `tuple` is an answer over `inst`. The join index is built
    /// once and shared by every disjunct.
    pub fn answers(&self, inst: &Instance, tuple: &[Value]) -> bool {
        let index = JoinIndex::build(&self.disjuncts, tuple, inst);
        self.disjuncts.iter().any(|d| index.answers(d, tuple))
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
