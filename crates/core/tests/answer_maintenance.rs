//! Delta-maintained answer sets: a live session keeps each cached answer
//! set across deltas and patches it on its next access
//! ([`Ucq::patch_ids`]). After every step of a random insert/delete
//! stream, the rows it hands out must equal [`Ucq::eval_ids`] evaluated
//! from scratch over fresh images of the instance at that step.
//!
//! The streams mix duplicate inserts, deletes of absent facts,
//! insert-then-delete pairs that cancel, deletes of present facts and
//! inserts of ghost constants that bump the pool generation. The queries
//! cover self-joins (`two_hop`, `chain`), a repeated variable (`mutual`),
//! head and atom constants (a ghost among them), a comparison, a join of
//! two relations and a union over both. Queries are read only on some
//! steps, so one access often folds several pending deltas, and every
//! stream runs at answer-cache budgets 0, 2 and unlimited.

use whynot_core::{CacheBudget, ExplicitOntology, WhyNotSession};
use whynot_relation::{
    Atom, CmpOp, Comparison, Cq, Delta, IdImage, Instance, RelId, Schema, SchemaBuilder, Term,
    Tuple, Ucq, Value, Var,
};

/// A small xorshift generator: the streams are fixed by their seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

fn c(i: usize) -> Value {
    Value::str(format!("c{i}"))
}

fn ghost(i: usize) -> Value {
    Value::str(format!("g{i}"))
}

fn v(i: u32) -> Term {
    Term::Var(Var(i))
}

fn cq(head: Vec<Term>, atoms: Vec<Atom>, comparisons: Vec<Comparison>) -> Cq {
    Cq::new(head, atoms, comparisons)
}

/// `R(from, to)` and `S(x)`.
fn schema() -> (Schema, RelId, RelId) {
    let mut b = SchemaBuilder::new();
    let r = b.relation("R", ["from", "to"]);
    let s = b.relation("S", ["x"]);
    (b.finish().unwrap(), r, s)
}

/// The queries whose rows are checked after every step.
fn queries(r: RelId, s: RelId) -> Vec<Ucq> {
    let edge = |a: Term, b: Term| Atom::new(r, [a, b]);
    vec![
        // two_hop: a self-join.
        Ucq::single(cq(
            vec![v(0), v(1)],
            vec![edge(v(0), v(2)), edge(v(2), v(1))],
            vec![],
        )),
        // chain: a self-join with every variable in the head.
        Ucq::single(cq(
            vec![v(0), v(1), v(2)],
            vec![edge(v(0), v(1)), edge(v(1), v(2))],
            vec![],
        )),
        // mutual: `x` repeated across the join.
        Ucq::single(cq(
            vec![v(0)],
            vec![edge(v(0), v(2)), edge(v(2), v(0))],
            vec![],
        )),
        // A head constant the first ghost delta interns.
        Ucq::single(cq(
            vec![v(0), Term::Const(ghost(1))],
            vec![edge(v(0), v(1))],
            vec![],
        )),
        // Atom constants: a pooled one and a ghost.
        Ucq::single(cq(vec![v(0)], vec![edge(Term::Const(c(2)), v(0))], vec![])),
        Ucq::single(cq(
            vec![v(0)],
            vec![edge(Term::Const(ghost(1)), v(0))],
            vec![],
        )),
        // A comparison on a joined variable.
        Ucq::single(cq(
            vec![v(0), v(1)],
            vec![edge(v(0), v(2)), edge(v(2), v(1))],
            vec![Comparison::new(Var(2), CmpOp::Ge, c(3))],
        )),
        // A join of both relations.
        Ucq::single(cq(
            vec![v(0), v(1)],
            vec![edge(v(0), v(1)), Atom::new(s, [v(1)])],
            vec![],
        )),
        // A union: an answer lost from one disjunct can survive in the
        // other.
        Ucq::new([
            cq(vec![v(0)], vec![edge(v(0), v(1))], vec![]),
            cq(vec![v(0)], vec![Atom::new(s, [v(0)])], vec![]),
        ]),
    ]
}

/// A starting instance over `c0..c5`.
fn start(r: RelId, s: RelId, rng: &mut Rng) -> Instance {
    let mut inst = Instance::new();
    for _ in 0..10 {
        inst.insert(r, vec![c(rng.below(6)), c(rng.below(6))]);
    }
    for _ in 0..3 {
        inst.insert(s, vec![c(rng.below(6))]);
    }
    inst
}

/// One random delta over `live`: duplicate inserts, deletes of present
/// and absent facts, insert-then-delete pairs and ghost inserts.
fn random_delta(r: RelId, s: RelId, live: &Instance, rng: &mut Rng, ghosts: &mut usize) -> Delta {
    let mut delta = Delta::new();
    for _ in 0..1 + rng.below(4) {
        let (rel, tuple): (RelId, Tuple) = if rng.below(4) == 0 {
            (s, vec![c(rng.below(6))])
        } else {
            (r, vec![c(rng.below(6)), c(rng.below(6))])
        };
        match rng.below(8) {
            0 | 1 => {
                delta.insert(rel, tuple);
            }
            2 => {
                delta.insert(rel, tuple.clone());
                delta.insert(rel, tuple);
            }
            3 | 4 => {
                let n = live.cardinality(rel);
                if n > 0 {
                    let present = live.tuples(rel).nth(rng.below(n)).unwrap().clone();
                    delta.delete(rel, present);
                }
            }
            5 => {
                delta.delete(rel, vec![ghost(99); tuple.len()]);
            }
            6 => {
                *ghosts += 1;
                let fresh = vec![ghost(*ghosts), c(rng.below(6))];
                delta.insert(r, fresh.clone());
                delta.delete(r, fresh);
            }
            _ => {
                *ghosts += 1;
                let fresh = match rng.below(2) {
                    0 => vec![ghost(*ghosts), c(rng.below(6))],
                    _ => vec![c(rng.below(6)), ghost(*ghosts)],
                };
                delta.insert(r, fresh);
            }
        }
    }
    delta
}

/// `q` evaluated from scratch over fresh images of `inst`, as tuples.
fn from_scratch(q: &Ucq, schema: &Schema, inst: &Instance) -> Vec<Tuple> {
    let pool = inst.const_pool();
    q.eval_ids(&pool, |rel| {
        IdImage::build(inst, rel, schema.arity(rel), &pool).map(std::sync::Arc::new)
    })
    .tuples()
    .collect()
}

/// Runs one seeded stream at one answer-cache budget; returns how many
/// cached answer sets the deltas kept for a patch.
fn run(seed: u64, budget: usize) -> usize {
    let (schema, r, s) = schema();
    let ontology = ExplicitOntology::builder().concept("C", ["c0"]).build();
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut live = start(r, s, &mut rng);
    let mut session = WhyNotSession::new(&ontology, &schema, &live);
    session.set_cache_budget(CacheBudget {
        answers: budget,
        ..CacheBudget::unlimited()
    });
    let queries = queries(r, s);
    let mut ghosts = 0;
    let mut patched = 0;
    for step in 0..60 {
        let delta = random_delta(r, s, &live, &mut rng, &mut ghosts);
        live = live.apply_delta(&delta).instance;
        patched += session.apply_delta(&delta).unwrap().answers_patched;
        assert_eq!(session.instance(), &live, "seed {seed} step {step}");
        // Skipped reads leave several deltas pending for the next one.
        if rng.below(3) == 0 && step != 59 {
            continue;
        }
        for (k, q) in queries.iter().enumerate() {
            if rng.below(4) == 0 && step != 59 {
                continue;
            }
            let maintained: Vec<Tuple> = session.answers(q).tuples().collect();
            assert_eq!(
                maintained,
                from_scratch(q, &schema, &live),
                "seed {seed}, budget {budget}, step {step}, query {k}"
            );
        }
    }
    patched
}

#[test]
fn maintained_answers_equal_evaluation_from_scratch() {
    for seed in 0..24 {
        for budget in [0, 2, usize::MAX] {
            let patched = run(seed, budget);
            // The unlimited cache keeps every set, so its deltas patch.
            if budget == usize::MAX {
                assert!(patched > 0, "seed {seed}: no answer set was patched");
            }
        }
    }
}
