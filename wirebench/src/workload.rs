//! The seeded workloads: resident tenants plus one op stream each,
//! rendered to wire lines ahead of time so the timed loop only sends
//! them.
//!
//! Every stream has the same shape. Questions and mutations of all
//! tenants are interleaved round-robin, one step per tenant per round,
//! with a `run` drain every few rounds and a final `run`. The first
//! quarter of the rounds is warm-up: it fills the session caches and is
//! checked but not timed, so the timed part is the steady state.

use crate::render::{canonical, render_rule, render_values};
use whynot_core::WhyNotQuestion;
use whynot_relation::wire::delta_to_json;
use whynot_relation::{Delta, Instance, Tuple};
use whynot_scenarios::contrast::{
    city_contrast_workload, retail_contrast_workload, ContrastWorkload,
};
use whynot_scenarios::generators::{mutation_stream, MutationStep, MutationWorkload};
use whynot_server::definition::{parse_definition, ParsedDefinition};
use whynot_server::{definition_text, Algo};

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Writes beside reads: ~40% deltas over four city tenants, a cache
    /// budget below the working set, and a long WAL tail.
    ServeChurn,
    /// lubσ-dominated questions: `contrast-sigma` / `incremental-sigma`
    /// beside their selection-free twins on the same tuples.
    LubBound,
}

impl Kind {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Kind; 2] = [Kind::ServeChurn, Kind::LubBound];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeChurn => "serve_churn",
            Kind::LubBound => "lub_bound",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The stream length one timed pass uses: steps per tenant for
    /// `serve_churn`, contrast pairs per tenant for `lub_bound`.
    /// Each gives a pass at least 1000 timed questions, so the p99 of one
    /// pass has ten samples beyond it.
    pub fn bench_len(self) -> usize {
        match self {
            Kind::ServeChurn => 700,
            Kind::LubBound => 84,
        }
    }

    /// The per-session cache budget (`usize::MAX` is unlimited).
    pub fn cache_budget(self) -> usize {
        match self {
            // Below the churn working set, so LRU evictions fire.
            Kind::ServeChurn => 32,
            Kind::LubBound => usize::MAX,
        }
    }
}

/// One resident tenant, parsed from its wire definition exactly as the
/// server parses it, so reference answers render against the same
/// schema attribute names.
pub struct Tenant {
    /// The tenant name on the wire.
    pub name: String,
    /// `create <name>`, the definition lines, `end`.
    pub create_lines: Vec<String>,
    /// The parsed definition (schema, ontology, initial instance).
    pub def: ParsedDefinition,
}

/// One step of the stream.
pub enum Op {
    /// `enqueue` a question; `foil` is set exactly for the contrast
    /// algorithms.
    Ask {
        /// Tenant index.
        tenant: usize,
        /// The algorithm asked for.
        algo: Algo,
        /// The question (query in canonical variable order).
        question: WhyNotQuestion,
        /// The foil tuple of a contrast question.
        foil: Option<Tuple>,
    },
    /// `mutate` a tenant.
    Mutate {
        /// Tenant index.
        tenant: usize,
        /// The delta sent.
        delta: Delta,
    },
    /// `snapshot` a tenant, truncating its WAL.
    Snapshot {
        /// Tenant index.
        tenant: usize,
    },
    /// `run`: drain every queue.
    Run,
}

/// A generated workload: tenants, the op stream and its wire lines.
pub struct Workload {
    /// Which workload this is.
    pub kind: Kind,
    /// The seed it was generated from.
    pub seed: u64,
    /// The resident tenants.
    pub tenants: Vec<Tenant>,
    /// The op stream.
    pub ops: Vec<Op>,
    /// `lines[i]` is the wire line of `ops[i]`.
    pub lines: Vec<String>,
    /// Index of the first timed op; every op before it is warm-up and
    /// every question before it is answered by the `run` just before it.
    pub timed_from: usize,
}

impl Workload {
    /// Generates `kind` from `seed`; `len` scales the stream (see
    /// [`Kind::bench_len`]).
    pub fn generate(kind: Kind, seed: u64, len: usize) -> Workload {
        let plan = match kind {
            Kind::ServeChurn => churn_plan(len, seed),
            Kind::LubBound => lub_plan(len, seed),
        };
        let tenants: Vec<Tenant> = plan
            .definitions
            .iter()
            .enumerate()
            .map(|(t, text)| {
                let name = tenant_name(t);
                let mut create_lines = vec![format!("create {name}")];
                create_lines.extend(text.lines().map(str::to_string));
                create_lines.push("end".to_string());
                Tenant {
                    name,
                    create_lines,
                    def: parse_definition(text).expect("generated definitions parse"),
                }
            })
            .collect();
        let lines = plan.ops.iter().map(|op| wire_line(&tenants, op)).collect();
        Workload {
            kind,
            seed,
            tenants,
            ops: plan.ops,
            lines,
            timed_from: plan.timed_from,
        }
    }

    /// Questions in the stream.
    pub fn questions(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Ask { .. }))
            .count()
    }

    /// Mutations in the stream.
    pub fn mutates(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, Op::Mutate { .. }))
            .count()
    }

    /// The distinct queries the stream asks, in first-use order.
    pub fn queries(&self) -> Vec<(usize, whynot_relation::Ucq)> {
        let mut out: Vec<(usize, whynot_relation::Ucq)> = Vec::new();
        for op in &self.ops {
            if let Op::Ask {
                tenant, question, ..
            } = op
            {
                if !out.iter().any(|(t, q)| t == tenant && *q == question.query) {
                    out.push((*tenant, question.query.clone()));
                }
            }
        }
        out
    }
}

/// The wire name of an algorithm.
pub fn algo_name(algo: Algo) -> &'static str {
    match algo {
        Algo::Exhaustive => "exhaustive",
        Algo::Find => "find",
        Algo::Incremental => "incremental",
        Algo::IncrementalSigma => "incremental-sigma",
        Algo::CardGreedy => "card-greedy",
        Algo::CardExact => "card-exact",
        Algo::Contrast => "contrast",
        Algo::ContrastSigma => "contrast-sigma",
    }
}

/// The wire name of tenant `t`.
fn tenant_name(t: usize) -> String {
    format!("t{t}")
}

/// Per-tenant generator seeds, distinct for every `(seed, tenant)`.
fn tenant_seed(seed: u64, t: usize) -> u64 {
    SplitMix(seed ^ (t as u64).wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// A workload before its definitions are parsed and its lines rendered.
struct Plan {
    definitions: Vec<String>,
    ops: Vec<Op>,
    timed_from: usize,
}

/// The `serve_churn` plan: four `mutation_stream` city tenants,
/// questions cycling exhaustive / find / incremental / card-greedy, a
/// drain after every round, and a snapshot of every tenant after round
/// 24, early enough that recovery replays hundreds of WAL records. A
/// question's latency is then that of a drain of two or three questions,
/// and the percentiles range over hundreds of drains: with ten questions
/// a drain, a seed's p50 hung on how a hundred drains happened to mix.
fn churn_plan(len: usize, seed: u64) -> Plan {
    const ALGOS: [Algo; 4] = [
        Algo::Exhaustive,
        Algo::Find,
        Algo::Incremental,
        Algo::CardGreedy,
    ];
    let streams: Vec<MutationWorkload> = (0..4)
        .map(|t| mutation_stream(96, 6, len, tenant_seed(seed, t)))
        .collect();
    let per_tenant: Vec<Vec<Op>> = streams
        .iter()
        .enumerate()
        .map(|(t, w)| {
            let mut asked = 0usize;
            w.steps
                .iter()
                .map(|step| match step {
                    MutationStep::Mutate(delta) => Op::Mutate {
                        tenant: t,
                        delta: delta.clone(),
                    },
                    MutationStep::Ask(q) => {
                        asked += 1;
                        Op::Ask {
                            tenant: t,
                            algo: ALGOS[(asked - 1) % ALGOS.len()],
                            question: WhyNotQuestion::new(canonical(&q.query), q.tuple.clone()),
                            foil: None,
                        }
                    }
                })
                .collect()
        })
        .collect();
    let (ops, timed_from) = interleave(per_tenant, 1, Some(24));
    Plan {
        definitions: streams
            .iter()
            .map(|w| definition_text(&w.schema, &w.ontology, &w.instance))
            .collect(),
        ops,
        timed_from,
    }
}

/// The `lub_bound` plan: two city tenants and two retail tenants,
/// `pairs` contrast pairs each. Every pair is asked four ways —
/// `contrast-sigma`, `incremental-sigma`, then the selection-free
/// `contrast` and `incremental` twins on the same tuples, the in-stream
/// control. Tenant `t` starts that cycle at its `t`-th way and a `run`
/// follows every round, so every drain holds each way once: a question's
/// latency is one lubσ-heavy drain, and the p99 ranges over hundreds of
/// drains, not a few dozen. Cities stay at 48: `incremental-sigma` at 96 cities takes
/// minutes per question. The stream has no deltas, so a write probe
/// follows its final `run` (see [`probe`]).
///
/// The four instances and each tenant's pool of pairs are the same for
/// every seed, and the seed orders the pool: how costly lubσ is varies
/// between instances and between pairs, and a benchmark seed should
/// change the traffic, not the difficulty of the workload. The seed
/// shuffles the warm-up quarter of the pool and the timed rest apart, so
/// it changes which questions share a drain but never which are timed.
fn lub_plan(pairs: usize, seed: u64) -> Plan {
    let workloads: Vec<ContrastWorkload> = (0..4u64)
        .map(|t| {
            if t % 2 == 0 {
                city_contrast_workload(48, 4, 1, t)
            } else {
                retail_contrast_workload(24, 12, 4, 3, 1, t)
            }
        })
        .collect();
    let per_tenant: Vec<Vec<Op>> = workloads
        .iter()
        .enumerate()
        .map(|(t, w)| {
            let query = canonical(&w.query);
            let mut pool = sample_pairs(w, pairs, &mut SplitMix(0x9a1e ^ t as u64));
            let mut order = SplitMix(tenant_seed(seed, t) ^ 0x9a1e);
            let (warm, timed) = pool.split_at_mut(pairs / 4);
            order.shuffle(warm);
            order.shuffle(timed);
            pool.into_iter()
                .flat_map(|(missing, foil)| {
                    let question = WhyNotQuestion::new(query.clone(), missing);
                    let mut asks = [
                        (Algo::ContrastSigma, Some(foil.clone())),
                        (Algo::IncrementalSigma, None),
                        (Algo::Contrast, Some(foil)),
                        (Algo::Incremental, None),
                    ];
                    let ways = asks.len();
                    asks.rotate_left(t % ways);
                    asks.into_iter().map(move |(algo, foil)| Op::Ask {
                        tenant: t,
                        algo,
                        question: question.clone(),
                        foil,
                    })
                })
                .collect()
        })
        .collect();
    let (mut ops, timed_from) = interleave(per_tenant, 1, None);
    let live: Vec<Instance> = workloads.iter().map(|w| w.instance.clone()).collect();
    ops.extend(probe(&live, 256, seed));
    Plan {
        definitions: workloads
            .iter()
            .map(|w| definition_text(&w.schema, &w.ontology, &w.instance))
            .collect(),
        ops,
        timed_from,
    }
}

/// `n` contrast pairs `(missing, foil)`: the foil drawn from the query's
/// answers, the missing tuple from `adom^arity` minus the answers (most
/// of `adom^arity` for the fixed instances, so the loop ends quickly).
fn sample_pairs(w: &ContrastWorkload, n: usize, rng: &mut SplitMix) -> Vec<(Tuple, Tuple)> {
    let answers: Vec<Tuple> = w.query.eval(&w.instance).into_iter().collect();
    let adom: Vec<_> = w.instance.active_domain().into_iter().collect();
    let arity = w.query.arity();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let foil = answers[rng.below(answers.len())].clone();
        let missing: Tuple = (0..arity)
            .map(|_| adom[rng.below(adom.len())].clone())
            .collect();
        if answers.binary_search(&missing).is_err() {
            out.push((missing, foil));
        }
    }
    out
}

/// Round-robin interleaving: step `i` of every tenant per round, a `run`
/// every `drain_every` rounds and at the end, and a snapshot of every
/// tenant after round `snapshot_after`. Also returns the index of the
/// first op after the first `run` that ends a quarter of the rounds (the
/// end of warm-up).
fn interleave(
    per_tenant: Vec<Vec<Op>>,
    drain_every: usize,
    snapshot_after: Option<usize>,
) -> (Vec<Op>, usize) {
    let rounds = per_tenant.iter().map(Vec::len).max().unwrap_or(0);
    let tenants = per_tenant.len();
    let mut iters: Vec<_> = per_tenant.into_iter().map(Vec::into_iter).collect();
    let mut ops = Vec::new();
    let mut timed_from = 0;
    for round in 0..rounds {
        for it in &mut iters {
            ops.extend(it.next());
        }
        if round % drain_every == drain_every - 1 {
            ops.push(Op::Run);
            if timed_from == 0 && 4 * (round + 1) >= rounds {
                timed_from = ops.len();
            }
        }
        if snapshot_after == Some(round) {
            ops.extend((0..tenants).map(|tenant| Op::Snapshot { tenant }));
        }
    }
    if !matches!(ops.last(), Some(Op::Run)) {
        ops.push(Op::Run);
    }
    (ops, timed_from)
}

/// The write probe: per tenant, `pairs` times, delete an existing fact
/// and insert it back (round-robin across tenants). Every mutation is
/// effective and the instance ends where it started. It gives a
/// question-only stream `mutate` samples for a tail percentile and a WAL
/// tail for recovery, without touching the questions, which were all
/// answered before it. As with the questions, the facts drawn are the
/// same for every seed and the seed orders them.
fn probe(live: &[Instance], pairs: usize, seed: u64) -> Vec<Op> {
    let mut draw = SplitMix(0x5eed_9b0b_e000_0001);
    let mut order = SplitMix(seed ^ 0x5eed_9b0b_e000_0001);
    let drawn: Vec<Vec<whynot_relation::Fact>> = live
        .iter()
        .map(|inst| {
            let facts: Vec<_> = inst.facts().collect();
            let mut drawn: Vec<_> = (0..pairs)
                .filter(|_| !facts.is_empty())
                .map(|_| facts[draw.below(facts.len())].clone())
                .collect();
            order.shuffle(&mut drawn);
            drawn
        })
        .collect();
    let mut ops = Vec::new();
    for i in 0..pairs {
        for (tenant, drawn) in drawn.iter().enumerate() {
            let Some(fact) = drawn.get(i) else {
                continue;
            };
            let mut delete = Delta::new();
            delete.delete(fact.rel, fact.tuple.clone());
            let mut insert = Delta::new();
            insert.insert(fact.rel, fact.tuple.clone());
            ops.push(Op::Mutate {
                tenant,
                delta: delete,
            });
            ops.push(Op::Mutate {
                tenant,
                delta: insert,
            });
        }
    }
    ops
}

/// Renders one op as its wire line.
fn wire_line(tenants: &[Tenant], op: &Op) -> String {
    match op {
        Op::Ask {
            tenant,
            algo,
            question,
            foil,
        } => {
            let t = &tenants[*tenant];
            let mut line = format!(
                "enqueue {} {} | {} | {}",
                t.name,
                algo_name(*algo),
                render_rule(&t.def.schema, &question.query),
                render_values(&question.tuple)
            );
            if let Some(foil) = foil {
                line.push_str(" | ");
                line.push_str(&render_values(foil));
            }
            line
        }
        Op::Mutate { tenant, delta } => {
            let t = &tenants[*tenant];
            format!(
                "mutate {} | {}",
                t.name,
                delta_to_json(&t.def.schema, delta)
            )
        }
        Op::Snapshot { tenant } => format!("snapshot {}", tenants[*tenant].name),
        Op::Run => "run".to_string(),
    }
}

/// SplitMix64: a tiny seeded generator for the benchmark's own choices.
struct SplitMix(u64);

impl SplitMix {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
