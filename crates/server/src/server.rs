//! The server core: tenant table, command dispatch, bounded queues
//! with admission control, and the fair-share scheduler.
//!
//! [`ServerCore`] is transport-agnostic: [`ServerCore::handle_line`]
//! takes one protocol line and returns the response lines (each a
//! single JSON object), so the binary's stdin loop, its TCP accept
//! loop, and in-process tests all drive exactly the same code. See the
//! README's "Server" section for the protocol grammar; in short:
//!
//! ```text
//! create <tenant>          … definition lines …          end
//! ask     <tenant> <algo> | <query rule> | <v1, v2, …>
//! enqueue <tenant> <algo> | <query rule> | <v1, v2, …>
//! contrast <tenant> | <query rule> | <a1, a2, …> | <b1, b2, …>
//! run
//! mutate  <tenant> | {"ins":[["Rel",…]…],"del":[…]}
//! stats   <tenant>        snapshot <tenant>     evict <tenant>
//! load    <tenant>        tenants   ping        shutdown
//! ```
//!
//! **Scheduling.** `enqueue` parks a validated question in the
//! tenant's bounded queue (a full queue rejects with kind
//! `queue-full`, counted per tenant). `run` drains every queue in
//! fair-share rounds: tenants in name order, at most `FAIR_SHARE` (2)
//! requests per tenant per round, so a tenant with a deep backlog
//! cannot starve the others. Within one tenant's share, tickets are
//! answered one at a time in drain order through the same path as
//! `ask`, so a drained result is byte-identical to a direct `ask`.
//!
//! **Contrast.** The `contrast`/`contrast-sigma` algorithms answer
//! "why is `ā` missing while `b̄` answers?" and take a fourth
//! `| <foil>` segment in `ask`/`enqueue`; the top-level `contrast`
//! command is sugar for `ask <tenant> contrast | …`. Responses carry
//! the per-position lub separators (`difference`), the foil-aligned
//! most-general explanation (`foil_mge`), and the named separators of
//! the tenant's explicit ontology (`ontology_difference`).

use crate::config::ServerConfig;
use crate::durable::{valid_tenant_name, Durability, LoadedTenant};
use crate::error::ServerError;
use crate::tenant::{intern_definition, TenantCore};
use std::collections::{BTreeMap, VecDeque};
use whynot_concepts::{parse_value, LsConcept};
use whynot_core::{
    ContrastAnswer, ContrastQuestion, Explanation, LubKind, Ontology, SessionStats, WhyNotQuestion,
    WhyNotSession,
};
use whynot_relation::json::{Json, JsonObj};
use whynot_relation::wire::delta_from_json;
use whynot_relation::{parse_query, Schema, Tuple, Value};

/// The question algorithms the wire exposes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    /// Algorithm 1: all most-general explanations.
    Exhaustive,
    /// One explanation, if any exists.
    Find,
    /// Algorithm 2 (selection-free lubs) w.r.t. `OI`.
    Incremental,
    /// Algorithm 2 with selections (`lubσ`).
    IncrementalSigma,
    /// Greedy `>card`-maximal heuristic.
    CardGreedy,
    /// Exact `>card`-maximal search.
    CardExact,
    /// Contrastive question (selection-free lubs): difference
    /// separators plus the foil-aligned MGE.
    Contrast,
    /// Contrastive question with selections (`lubσ`).
    ContrastSigma,
}

impl Algo {
    fn parse(token: &str) -> Result<Algo, ServerError> {
        match token {
            "exhaustive" => Ok(Algo::Exhaustive),
            "find" => Ok(Algo::Find),
            "incremental" => Ok(Algo::Incremental),
            "incremental-sigma" => Ok(Algo::IncrementalSigma),
            "card-greedy" => Ok(Algo::CardGreedy),
            "card-exact" => Ok(Algo::CardExact),
            "contrast" => Ok(Algo::Contrast),
            "contrast-sigma" => Ok(Algo::ContrastSigma),
            other => Err(ServerError::Protocol(format!(
                "unknown algorithm {other:?} (expected exhaustive|find|incremental|\
                 incremental-sigma|card-greedy|card-exact|contrast|contrast-sigma)"
            ))),
        }
    }

    fn wire_name(self) -> &'static str {
        match self {
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

    /// The lub kind of a contrast algorithm; `None` for the plain
    /// why-not ones. Doubles as the "takes a foil segment" predicate.
    fn contrast_kind(self) -> Option<LubKind> {
        match self {
            Algo::Contrast => Some(LubKind::SelectionFree),
            Algo::ContrastSigma => Some(LubKind::WithSelections),
            _ => None,
        }
    }
}

/// Requests a tenant may run per fair-share scheduling round: small
/// enough that no tenant monopolizes a round.
const FAIR_SHARE: usize = 2;

/// A queued, already-validated request.
struct Ticket {
    id: u64,
    algo: Algo,
    question: WhyNotQuestion,
    /// The foil tuple `b̄` — present exactly for the contrast
    /// algorithms.
    foil: Option<Tuple>,
}

/// One resident tenant: its interned core, its session, its bounded
/// queue, and its durability cursor.
struct Tenant {
    core: TenantCore,
    session: WhyNotSession<'static, whynot_core::ExplicitOntology>,
    queue: VecDeque<Ticket>,
    /// Requests refused by admission control (`queue-full`).
    rejections: u64,
    /// Sequence number of the last applied delta (WAL cursor).
    seq: u64,
}

/// The transport-agnostic server.
pub struct ServerCore {
    config: ServerConfig,
    tenants: BTreeMap<String, Tenant>,
    durability: Option<Durability>,
    next_ticket: u64,
    pending: Option<(String, Vec<String>)>,
    shutdown: bool,
}

impl ServerCore {
    /// A server over the given configuration.
    pub fn new(config: ServerConfig) -> Self {
        let durability = config.snapshot_dir.as_ref().map(Durability::new);
        ServerCore {
            config,
            tenants: BTreeMap::new(),
            durability,
            next_ticket: 0,
            pending: None,
            shutdown: false,
        }
    }

    /// Whether a `shutdown` command has been accepted.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Read-only view of a resident tenant's session — the hook the
    /// differential tests and the throughput bench use to assert that
    /// wire answers match direct session answers.
    pub fn session(
        &self,
        tenant: &str,
    ) -> Option<&WhyNotSession<'static, whynot_core::ExplicitOntology>> {
        self.tenants.get(tenant).map(|t| &t.session)
    }

    /// Handles one protocol line, returning the response lines (none
    /// for blank lines, `#` comments, and definition-body lines).
    pub fn handle_line(&mut self, line: &str) -> Vec<String> {
        // Definition mode: accumulate until `end`.
        if let Some((name, mut lines)) = self.pending.take() {
            if line.trim() == "end" {
                return vec![respond(
                    self.finish_create(&name, &lines.join("\n")),
                    "create",
                )];
            }
            lines.push(line.to_string());
            self.pending = Some((name, lines));
            return Vec::new();
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Vec::new();
        }
        let (command, rest) = match trimmed.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (trimmed, ""),
        };
        match command {
            "ping" => vec![ok("ping").build().to_string()],
            "shutdown" => {
                self.shutdown = true;
                vec![ok("shutdown").build().to_string()]
            }
            "tenants" => vec![self.list_tenants()],
            "create" => {
                let name = rest.to_string();
                if !valid_tenant_name(&name) {
                    return vec![respond(
                        Err(ServerError::Protocol(format!(
                            "create needs a tenant name (alphanumeric/-/_), got {name:?}"
                        ))),
                        "create",
                    )];
                }
                self.pending = Some((name, Vec::new()));
                Vec::new()
            }
            "ask" => vec![respond(self.ask(rest), "ask")],
            "contrast" => vec![respond(self.contrast_cmd(rest), "contrast")],
            "enqueue" => vec![respond(self.enqueue(rest), "enqueue")],
            "run" => self.run_queues(),
            "mutate" => vec![respond(self.mutate(rest), "mutate")],
            "stats" => vec![respond(self.stats(rest), "stats")],
            "snapshot" => vec![respond(self.snapshot(rest), "snapshot")],
            "evict" => vec![respond(self.evict(rest), "evict")],
            "load" => vec![respond(self.load(rest), "load")],
            other => vec![respond(
                Err(ServerError::Protocol(format!("unknown command {other:?}"))),
                other,
            )],
        }
    }

    fn finish_create(&mut self, name: &str, definition: &str) -> Result<Json, ServerError> {
        if self.tenants.contains_key(name) {
            return Err(ServerError::TenantExists(name.to_string()));
        }
        if self.tenants.len() >= self.config.max_tenants {
            return Err(ServerError::TenantCapacity {
                limit: self.config.max_tenants,
            });
        }
        let (core, instance) = intern_definition(definition)?;
        let facts = instance.len();
        let mut session = WhyNotSession::new(core.ontology, core.schema, &instance);
        // The session's snapshot is the only handle on the instance from
        // here on, so its first delta edits it without a copy.
        drop(instance);
        session.set_cache_budget(self.config.session_budget());
        let snapshotted = match &self.durability {
            Some(d) => {
                d.write_snapshot(name, core.stripped, core.schema, session.instance(), 0)?;
                true
            }
            None => false,
        };
        let relations = core.schema.rel_ids().count();
        let concepts = core.ontology.len();
        self.tenants.insert(
            name.to_string(),
            Tenant {
                core,
                session,
                queue: VecDeque::new(),
                rejections: 0,
                seq: 0,
            },
        );
        Ok(ok("create")
            .field("tenant", name)
            .field("relations", relations)
            .field("concepts", concepts)
            .field("facts", facts)
            .field("snapshot", snapshotted)
            .build())
    }

    fn tenant_mut(&mut self, name: &str) -> Result<&mut Tenant, ServerError> {
        self.tenants
            .get_mut(name)
            .ok_or_else(|| ServerError::NoSuchTenant(name.to_string()))
    }

    /// Parses `"<tenant> <algo> | <query> | <missing>"`, with a fourth
    /// `| <foil>` segment for the contrast algorithms.
    fn parse_ask(
        &self,
        rest: &str,
    ) -> Result<(String, Algo, WhyNotQuestion, Option<Tuple>), ServerError> {
        let mut parts = rest.splitn(3, '|');
        let head = parts.next().unwrap_or("").trim();
        let (query_text, tail) = match (parts.next(), parts.next()) {
            (Some(q), Some(m)) => (q.trim(), m.trim()),
            _ => {
                return Err(ServerError::Protocol(
                    "expected `<tenant> <algo> | <query> | <missing values>`".into(),
                ))
            }
        };
        let (tenant, algo_token) = head.split_once(char::is_whitespace).ok_or_else(|| {
            ServerError::Protocol("expected `<tenant> <algo>` before the first `|`".into())
        })?;
        let tenant = tenant.trim().to_string();
        let algo = Algo::parse(algo_token.trim())?;
        let (missing_text, foil) = if algo.contrast_kind().is_some() {
            let (m, f) = tail.split_once('|').ok_or_else(|| {
                ServerError::Protocol(
                    "contrast expects `| <missing values> | <foil values>`".into(),
                )
            })?;
            let foil: Tuple = f.trim().split(',').map(parse_value).collect();
            (m.trim(), Some(foil))
        } else {
            (tail, None)
        };
        let schema = self
            .tenants
            .get(&tenant)
            .ok_or_else(|| ServerError::NoSuchTenant(tenant.clone()))?
            .core
            .schema;
        let query = parse_query(schema, query_text)
            .map_err(|e| ServerError::Invalid(format!("query: {e}")))?;
        let missing: Vec<Value> = missing_text.split(',').map(parse_value).collect();
        Ok((tenant, algo, WhyNotQuestion::new(query, missing), foil))
    }

    fn ask(&mut self, rest: &str) -> Result<Json, ServerError> {
        self.ask_as(rest, "ask")
    }

    fn ask_as(&mut self, rest: &str, command: &str) -> Result<Json, ServerError> {
        let (tenant_name, algo, question, foil) = self.parse_ask(rest)?;
        let tenant = self.tenant_mut(&tenant_name)?;
        let payload = answer(&tenant.session, algo, &question, foil.as_ref())?;
        let mut obj = ok(command)
            .field("tenant", tenant_name)
            .field("algo", algo.wire_name());
        obj = payload.attach(obj);
        Ok(obj.build())
    }

    /// `contrast <tenant> | <query> | <missing> | <foil>` — sugar for
    /// `ask <tenant> contrast | …`, answered identically.
    fn contrast_cmd(&mut self, rest: &str) -> Result<Json, ServerError> {
        let (tenant, tail) = rest.split_once('|').ok_or_else(|| {
            ServerError::Protocol(
                "expected `<tenant> | <query> | <missing values> | <foil values>`".into(),
            )
        })?;
        self.ask_as(&format!("{} contrast |{tail}", tenant.trim()), "contrast")
    }

    fn enqueue(&mut self, rest: &str) -> Result<Json, ServerError> {
        let (tenant_name, algo, question, foil) = self.parse_ask(rest)?;
        let depth = self.config.queue_depth;
        let ticket = self.next_ticket;
        let tenant = self.tenant_mut(&tenant_name)?;
        if tenant.queue.len() >= depth {
            tenant.rejections += 1;
            return Err(ServerError::QueueFull {
                tenant: tenant_name,
                depth,
            });
        }
        tenant.queue.push_back(Ticket {
            id: ticket,
            algo,
            question,
            foil,
        });
        let queued = tenant.queue.len();
        self.next_ticket += 1;
        Ok(ok("enqueue")
            .field("tenant", tenant_name)
            .field("ticket", ticket)
            .field("queued", queued)
            .build())
    }

    /// Drains every queue in fair-share rounds (see the module docs),
    /// emitting one response line per ticket plus a summary line.
    fn run_queues(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        let names: Vec<String> = self.tenants.keys().cloned().collect();
        let mut completed = 0usize;
        let mut rounds = 0usize;
        loop {
            let mut progressed = false;
            for name in &names {
                let Some(tenant) = self.tenants.get_mut(name) else {
                    continue;
                };
                let take = FAIR_SHARE.min(tenant.queue.len());
                if take == 0 {
                    continue;
                }
                progressed = true;
                let batch: Vec<Ticket> = tenant.queue.drain(..take).collect();
                completed += batch.len();
                for line in run_tenant_batch(name, tenant, batch) {
                    out.push(line);
                }
            }
            if !progressed {
                break;
            }
            rounds += 1;
        }
        out.push(
            ok("run")
                .field("completed", completed)
                .field("rounds", rounds)
                .build()
                .to_string(),
        );
        out
    }

    fn mutate(&mut self, rest: &str) -> Result<Json, ServerError> {
        let (tenant_name, payload) = rest
            .split_once('|')
            .ok_or_else(|| ServerError::Protocol("expected `<tenant> | <delta json>`".into()))?;
        let tenant_name = tenant_name.trim().to_string();
        let durability = self.durability.is_some();
        let tenant = self
            .tenants
            .get_mut(&tenant_name)
            .ok_or_else(|| ServerError::NoSuchTenant(tenant_name.clone()))?;
        let doc =
            Json::parse(payload.trim()).map_err(|e| ServerError::Invalid(format!("delta: {e}")))?;
        let delta = delta_from_json(tenant.core.schema, &doc)
            .map_err(|e| ServerError::Invalid(format!("delta: {e}")))?;
        let seq = tenant.seq + 1;
        if durability {
            if let Some(d) = &self.durability {
                // Log before apply: a crash after the append replays an
                // already-checked delta; a crash before it loses an
                // unacknowledged one. Either way snapshot+WAL equals a
                // never-restarted session.
                d.append_wal(&tenant_name, tenant.core.schema, seq, &delta)?;
            }
        }
        let stats = tenant.session.apply_delta(&delta)?;
        tenant.seq = seq;
        Ok(ok("mutate")
            .field("tenant", tenant_name)
            .field("seq", seq)
            .field("inserted", stats.facts_inserted)
            .field("deleted", stats.facts_deleted)
            .field("changed_relations", stats.changed_relations)
            .build())
    }

    fn stats(&mut self, rest: &str) -> Result<Json, ServerError> {
        let name = rest.trim().to_string();
        let tenant = self.tenant_mut(&name)?;
        let s: SessionStats = tenant.session.stats();
        let ev = tenant.session.evictions();
        let evictions = JsonObj::new()
            .field("answers", ev.answers)
            .field("candidates", ev.candidates)
            .field("conflicts", ev.conflicts)
            .build();
        Ok(ok("stats")
            .field("tenant", name)
            .field("questions", s.questions)
            .field("deltas", s.deltas)
            .field("evaluations", s.evaluations)
            .field("cached_queries", s.cached_queries)
            .field("cached_candidates", s.cached_candidates)
            .field("cached_conflicts", s.cached_conflicts)
            .field("cache_evictions", s.cache_evictions)
            .field("evictions", evictions)
            .field("queue_depth", tenant.queue.len())
            .field("queue_rejections", tenant.rejections as usize)
            .build())
    }

    fn snapshot(&mut self, rest: &str) -> Result<Json, ServerError> {
        let name = rest.trim().to_string();
        let durability = self.durability.as_ref().ok_or(ServerError::NoDurability)?;
        let tenant = self
            .tenants
            .get(&name)
            .ok_or_else(|| ServerError::NoSuchTenant(name.clone()))?;
        let facts = durability.write_snapshot(
            &name,
            tenant.core.stripped,
            tenant.core.schema,
            tenant.session.instance(),
            tenant.seq,
        )?;
        Ok(ok("snapshot")
            .field("tenant", name.as_str())
            .field("seq", tenant.seq)
            .field("facts", facts)
            .field("file", format!("{name}.snap"))
            .build())
    }

    fn evict(&mut self, rest: &str) -> Result<Json, ServerError> {
        let name = rest.trim().to_string();
        let tenant = self
            .tenants
            .remove(&name)
            .ok_or_else(|| ServerError::NoSuchTenant(name.clone()))?;
        Ok(ok("evict")
            .field("tenant", name)
            .field("dropped_queue", tenant.queue.len())
            .field("durable", self.durability.is_some())
            .build())
    }

    fn load(&mut self, rest: &str) -> Result<Json, ServerError> {
        let name = rest.trim().to_string();
        if !valid_tenant_name(&name) {
            return Err(ServerError::Protocol(format!("bad tenant name {name:?}")));
        }
        if self.tenants.contains_key(&name) {
            return Err(ServerError::TenantExists(name.clone()));
        }
        if self.tenants.len() >= self.config.max_tenants {
            return Err(ServerError::TenantCapacity {
                limit: self.config.max_tenants,
            });
        }
        let durability = self.durability.as_ref().ok_or(ServerError::NoDurability)?;
        let LoadedTenant {
            definition,
            instance,
            snapshot_seq,
            wal,
            wal_error,
        } = durability.load(&name)?;
        // Re-intern through the snapshot's definition text so a reload
        // after restart shares any core the process already leaked.
        let (core, _) = intern_definition(&definition.stripped)?;
        let mut session = WhyNotSession::new(core.ontology, core.schema, &instance);
        // Hand the session the only handle on the instance, so the replay
        // edits it in place instead of copying each relation it touches.
        drop(instance);
        session.set_cache_budget(self.config.session_budget());
        // Replay through apply_delta: the restarted session takes the
        // same selective-invalidation path a live one did.
        let mut seq = snapshot_seq;
        let replayed = wal.len();
        for (record_seq, delta) in &wal {
            session.apply_delta(delta)?;
            seq = *record_seq;
        }
        let facts = session.instance().len();
        self.tenants.insert(
            name.clone(),
            Tenant {
                core,
                session,
                queue: VecDeque::new(),
                rejections: 0,
                seq,
            },
        );
        let mut obj = ok("load")
            .field("tenant", name)
            .field("snapshot_seq", snapshot_seq)
            .field("replayed", replayed)
            .field("seq", seq)
            .field("facts", facts);
        if let Some(err) = wal_error {
            obj = obj.field("wal_error", err);
        }
        Ok(obj.build())
    }

    fn list_tenants(&self) -> String {
        let rows: Vec<Json> = self
            .tenants
            .iter()
            .map(|(name, t)| {
                JsonObj::new()
                    .field("name", name.as_str())
                    .field("queue_depth", t.queue.len())
                    .field("seq", t.seq)
                    .build()
            })
            .collect();
        ok("tenants")
            .field("count", self.tenants.len())
            .field("tenants", Json::Arr(rows))
            .build()
            .to_string()
    }
}

/// One answered question's wire payload.
enum Payload {
    /// `explanations`: every most-general explanation.
    All(Vec<Json>),
    /// `explanation`: one explanation or `null`.
    One(Option<Json>),
    /// The three contrastive fields (see the module docs).
    Contrast {
        difference: Json,
        foil_mge: Json,
        ontology_difference: Json,
    },
}

impl Payload {
    fn attach(self, obj: JsonObj) -> JsonObj {
        match self {
            Payload::All(items) => obj.field("explanations", Json::Arr(items)),
            Payload::One(Some(e)) => obj.field("explanation", e),
            Payload::One(None) => obj.field("explanation", Json::Null),
            Payload::Contrast {
                difference,
                foil_mge,
                ontology_difference,
            } => obj
                .field("difference", difference)
                .field("foil_mge", foil_mge)
                .field("ontology_difference", ontology_difference),
        }
    }
}

/// Serializes an explicit-ontology explanation as an array of concept
/// names.
pub fn explanation_to_json<O: Ontology>(ontology: &O, e: &Explanation<O::Concept>) -> Json {
    Json::Arr(
        e.concepts
            .iter()
            .map(|c| Json::str(ontology.concept_name(c)))
            .collect(),
    )
}

/// Serializes an `LS`-concept explanation (Algorithm 2 output) as an
/// array of paper-notation concept strings.
pub fn ls_explanation_to_json(schema: &Schema, e: &Explanation<LsConcept>) -> Json {
    Json::Arr(
        e.concepts
            .iter()
            .map(|c| Json::str(c.display(schema).to_string()))
            .collect(),
    )
}

/// Serializes one contrastive answer, reading the named ontology-level
/// difference back through the session (cheap — the answer-set bind is
/// cached per query).
fn contrast_payload(
    session: &WhyNotSession<'static, whynot_core::ExplicitOntology>,
    cq: &ContrastQuestion,
    answer: &ContrastAnswer,
) -> Result<Payload, ServerError> {
    let schema = session.schema();
    let ontology = session.ontology();
    let named = session.contrast_ontology_difference(cq)?;
    let difference = Json::Arr(
        answer
            .difference
            .iter()
            .map(|c| match c {
                Some(c) => Json::str(c.display(schema).to_string()),
                None => Json::Null,
            })
            .collect(),
    );
    let foil_mge = match &answer.foil_mge {
        Some(e) => ls_explanation_to_json(schema, e),
        None => Json::Null,
    };
    let ontology_difference = Json::Arr(
        named
            .iter()
            .map(|cs| {
                Json::Arr(
                    cs.iter()
                        .map(|c| Json::str(ontology.concept_name(c)))
                        .collect(),
                )
            })
            .collect(),
    );
    Ok(Payload::Contrast {
        difference,
        foil_mge,
        ontology_difference,
    })
}

/// The contrast question of a ticket; an absent foil (unreachable
/// through the parser) fails validation downstream instead of
/// panicking here.
fn contrast_question(q: &WhyNotQuestion, foil: Option<&Tuple>) -> ContrastQuestion {
    ContrastQuestion::new(
        q.query.clone(),
        q.tuple.clone(),
        foil.cloned().unwrap_or_default(),
    )
}

fn answer(
    session: &WhyNotSession<'static, whynot_core::ExplicitOntology>,
    algo: Algo,
    q: &WhyNotQuestion,
    foil: Option<&Tuple>,
) -> Result<Payload, ServerError> {
    if let Some(kind) = algo.contrast_kind() {
        let cq = contrast_question(q, foil);
        let contrast = session.contrast(&cq, kind)?;
        return contrast_payload(session, &cq, &contrast);
    }
    let schema = session.schema();
    let ontology = session.ontology();
    Ok(match algo {
        Algo::Exhaustive => Payload::All(
            session
                .exhaustive(q)?
                .iter()
                .map(|e| explanation_to_json(ontology, e))
                .collect(),
        ),
        Algo::Find => Payload::One(
            session
                .find_explanation(q)?
                .map(|e| explanation_to_json(ontology, &e)),
        ),
        Algo::Incremental => Payload::One(Some(ls_explanation_to_json(
            schema,
            &session.incremental(q, LubKind::SelectionFree)?,
        ))),
        Algo::IncrementalSigma => Payload::One(Some(ls_explanation_to_json(
            schema,
            &session.incremental(q, LubKind::WithSelections)?,
        ))),
        Algo::CardGreedy => Payload::One(
            session
                .card_maximal_greedy(q)?
                .map(|e| explanation_to_json(ontology, &e)),
        ),
        Algo::CardExact => Payload::One(
            session
                .card_maximal_exact(q)?
                .map(|e| explanation_to_json(ontology, &e)),
        ),
        // Resolved by the contrast_kind early return above; answering
        // an empty payload keeps the match exhaustive without a panic.
        Algo::Contrast | Algo::ContrastSigma => Payload::One(None),
    })
}

/// Answers one tenant's drained share, ticket by ticket in drain order
/// through [`answer`], and emits one response line per ticket.
fn run_tenant_batch(name: &str, tenant: &Tenant, batch: Vec<Ticket>) -> Vec<String> {
    batch
        .iter()
        .map(|ticket| {
            let result = answer(
                &tenant.session,
                ticket.algo,
                &ticket.question,
                ticket.foil.as_ref(),
            );
            let base = || {
                ok("result")
                    .field("ticket", ticket.id)
                    .field("tenant", name)
                    .field("algo", ticket.algo.wire_name())
            };
            match result {
                Ok(payload) => payload.attach(base()).build().to_string(),
                Err(e) => JsonObj::new()
                    .field("ok", false)
                    .field("command", "result")
                    .field("ticket", ticket.id)
                    .field("tenant", name)
                    .field("algo", ticket.algo.wire_name())
                    .field("kind", e.kind())
                    .field("error", e.to_string())
                    .build()
                    .to_string(),
            }
        })
        .collect()
}

fn ok(command: &str) -> JsonObj {
    JsonObj::new().field("ok", true).field("command", command)
}

fn respond(result: Result<Json, ServerError>, command: &str) -> String {
    match result {
        Ok(json) => json.to_string(),
        Err(e) => JsonObj::new()
            .field("ok", false)
            .field("command", command)
            .field("kind", e.kind())
            .field("error", e.to_string())
            .build()
            .to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEF: [&str; 7] = [
        "create t1",
        "relation City(name, region)",
        "concept Europe = Amsterdam, Paris",
        "concept World = Amsterdam, Paris, Kyoto",
        "axiom Europe < World",
        r#"data City("Amsterdam", "eu")"#,
        "end",
    ];

    fn boot() -> ServerCore {
        let mut server = ServerCore::new(ServerConfig::default());
        let mut responses = Vec::new();
        for line in DEF {
            responses.extend(server.handle_line(line));
        }
        assert_eq!(responses.len(), 1, "create answers once, at `end`");
        assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
        server
    }

    #[test]
    fn create_ask_and_stats_roundtrip() {
        let mut server = boot();
        let out = server.handle_line("ask t1 exhaustive | q(X) <- City(X, R) | Kyoto");
        assert_eq!(out.len(), 1);
        let doc = Json::parse(&out[0]).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert!(doc.get("explanations").is_some());

        let out = server.handle_line("stats t1");
        let doc = Json::parse(&out[0]).unwrap();
        assert_eq!(doc.get("questions"), Some(&Json::Int(1)));
        assert_eq!(doc.get("queue_rejections"), Some(&Json::Int(0)));
    }

    #[test]
    fn queue_rejects_when_full_and_counts_it() {
        let mut server = ServerCore::new(ServerConfig {
            queue_depth: 1,
            ..ServerConfig::default()
        });
        for line in DEF {
            server.handle_line(line);
        }
        let req = "enqueue t1 find | q(X) <- City(X, R) | Kyoto";
        let first = server.handle_line(req);
        assert!(first[0].contains("\"ticket\":0"), "{}", first[0]);
        let second = server.handle_line(req);
        assert!(
            second[0].contains("\"kind\":\"queue-full\""),
            "{}",
            second[0]
        );
        let stats = server.handle_line("stats t1");
        let doc = Json::parse(&stats[0]).unwrap();
        assert_eq!(doc.get("queue_rejections"), Some(&Json::Int(1)));
        assert_eq!(doc.get("queue_depth"), Some(&Json::Int(1)));
    }

    #[test]
    fn run_drains_fairly_and_reports() {
        let mut server = boot();
        for line in [
            "create t2",
            "relation City(name, region)",
            "concept All = Kyoto, Osaka",
            r#"data City("Osaka", "asia")"#,
            "end",
        ] {
            server.handle_line(line);
        }
        // Three for t1, one for t2; fair share 2 → round 1 serves t1×2
        // and t2×1, round 2 serves the last t1 ticket.
        for req in [
            "enqueue t1 exhaustive | q(X) <- City(X, R) | Kyoto",
            "enqueue t1 exhaustive | q(X) <- City(X, R) | Paris",
            "enqueue t1 incremental | q(X) <- City(X, R) | Kyoto",
            "enqueue t2 find | q(X) <- City(X, R) | Kyoto",
        ] {
            let out = server.handle_line(req);
            assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
        }
        let out = server.handle_line("run");
        assert_eq!(out.len(), 5, "four tickets + summary: {out:?}");
        // Round 1: tickets 0, 1 (t1), 3 (t2); round 2: ticket 2 (t1).
        let order: Vec<i128> = out[..4]
            .iter()
            .map(|l| {
                Json::parse(l)
                    .unwrap()
                    .get("ticket")
                    .unwrap()
                    .as_int()
                    .unwrap()
            })
            .collect();
        assert_eq!(order, vec![0, 1, 3, 2]);
        let summary = Json::parse(&out[4]).unwrap();
        assert_eq!(summary.get("completed"), Some(&Json::Int(4)));
        assert_eq!(summary.get("rounds"), Some(&Json::Int(2)));
    }

    /// The payload fields of a response line — everything but the
    /// command/ticket envelope.
    fn payload(line: &str) -> Vec<(&'static str, Json)> {
        let doc = Json::parse(line).unwrap();
        [
            "explanations",
            "explanation",
            "difference",
            "foil_mge",
            "ontology_difference",
        ]
        .into_iter()
        .filter_map(|key| doc.get(key).map(|v| (key, v.clone())))
        .collect()
    }

    #[test]
    fn batched_run_matches_direct_ask() {
        let mut direct = boot();
        let mut queued = boot();
        // Pairs of same-algorithm tickets, so each fair-share round
        // drains two questions of one algorithm — the contrast pair
        // included.
        let questions = [
            ("exhaustive", "Kyoto"),
            ("exhaustive", "Paris"),
            ("incremental", "Kyoto"),
            ("incremental", "Paris"),
            ("contrast", "Kyoto | Amsterdam"),
            ("contrast", "Paris | Amsterdam"),
        ];
        let mut direct_payloads = Vec::new();
        for (algo, args) in questions {
            let out = direct.handle_line(&format!("ask t1 {algo} | q(X) <- City(X, R) | {args}"));
            direct_payloads.push(payload(&out[0]));
        }
        for (algo, args) in questions {
            queued.handle_line(&format!("enqueue t1 {algo} | q(X) <- City(X, R) | {args}"));
        }
        let out = queued.handle_line("run");
        assert_eq!(out.len(), questions.len() + 1, "{out:?}");
        for (line, expected) in out.iter().zip(&direct_payloads) {
            assert!(!expected.is_empty(), "{line}");
            assert_eq!(&payload(line), expected, "{line}");
        }
        let summary = Json::parse(&out[questions.len()]).unwrap();
        assert_eq!(summary.get("rounds"), Some(&Json::Int(3)));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut server = ServerCore::new(ServerConfig {
            max_tenants: 1,
            ..ServerConfig::default()
        });
        for line in DEF {
            server.handle_line(line);
        }
        let out: Vec<String> = ["create t2", "relation R(a)", "end"]
            .iter()
            .flat_map(|l| server.handle_line(l))
            .collect();
        assert!(
            out[0].contains("\"kind\":\"tenant-capacity\""),
            "{}",
            out[0]
        );
    }

    #[test]
    fn contrast_ask_sugar_and_errors() {
        let mut server = boot();
        // Sugar and the explicit algo form answer identically modulo
        // the command/algo labels.
        let long = server.handle_line("ask t1 contrast | q(X) <- City(X, R) | Kyoto | Amsterdam");
        let short = server.handle_line("contrast t1 | q(X) <- City(X, R) | Kyoto | Amsterdam");
        let long_doc = Json::parse(&long[0]).unwrap();
        let short_doc = Json::parse(&short[0]).unwrap();
        assert_eq!(long_doc.get("command"), Some(&Json::str("ask")));
        assert_eq!(short_doc.get("command"), Some(&Json::str("contrast")));
        for field in ["difference", "foil_mge", "ontology_difference"] {
            assert_eq!(long_doc.get(field), short_doc.get(field), "{field}");
        }
        // Europe holds Amsterdam but not Kyoto: the named separator.
        assert_eq!(
            long_doc.get("ontology_difference"),
            Some(&Json::Arr(vec![Json::Arr(vec![Json::str("Europe")])]))
        );
        // A foil that is not an answer maps to its own wire kind.
        let out = server.handle_line("ask t1 contrast | q(X) <- City(X, R) | Kyoto | Paris");
        assert!(
            out[0].contains("\"kind\":\"foil-not-answer\""),
            "{}",
            out[0]
        );
        // A missing foil segment is a protocol error.
        let out = server.handle_line("ask t1 contrast | q(X) <- City(X, R) | Kyoto");
        assert!(out[0].contains("\"kind\":\"protocol\""), "{}", out[0]);
    }

    #[test]
    fn session_errors_map_to_wire_kinds() {
        let mut server = boot();
        let out = server.handle_line("ask t1 exhaustive | q(X) <- City(X, R) | Amsterdam");
        assert!(
            out[0].contains("\"kind\":\"tuple-is-answer\""),
            "{}",
            out[0]
        );
        let out = server.handle_line("ask missing exhaustive | q(X) <- City(X, R) | Kyoto");
        assert!(out[0].contains("\"kind\":\"no-such-tenant\""), "{}", out[0]);
        let out = server.handle_line("ask t1 warp | q(X) <- City(X, R) | Kyoto");
        assert!(out[0].contains("\"kind\":\"protocol\""), "{}", out[0]);
    }
}
