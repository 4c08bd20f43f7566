//! Wire rule text for generated queries.
//!
//! The server parses `enqueue` rules with `whynot_relation::parse_query`,
//! which numbers variables in order of first occurrence (head, then body
//! left to right). [`canonical`] renumbers a generated query the same
//! way, so that `parse_query(render_rule(q)) == q` holds exactly for
//! every canonical query and the reference sessions see the very `Ucq`
//! the server parses.

use std::collections::BTreeMap;
use whynot_relation::{Atom, CmpOp, Comparison, Cq, Schema, Term, Ucq, Value, Var};

/// Renders a UCQ as wire rule text: one `q(…) <- …` rule per disjunct,
/// joined by `;`. Variables print as `V<n>`, string constants quoted,
/// numbers bare.
pub fn render_rule(schema: &Schema, q: &Ucq) -> String {
    let rules: Vec<String> = q
        .disjuncts
        .iter()
        .map(|cq| {
            let head: Vec<String> = cq.head.iter().map(term_text).collect();
            let mut body: Vec<String> = cq
                .atoms
                .iter()
                .map(|a| {
                    let args: Vec<String> = a.args.iter().map(term_text).collect();
                    format!("{}({})", schema.name(a.rel), args.join(", "))
                })
                .collect();
            body.extend(cq.comparisons.iter().map(|c| {
                format!(
                    "{} {} {}",
                    var_text(c.var),
                    op_text(c.op),
                    value_text(&c.value)
                )
            }));
            format!("q({}) <- {}", head.join(", "), body.join(", "))
        })
        .collect();
    rules.join("; ")
}

/// Renders a tuple as the comma-separated value list of a wire question.
pub fn render_values(values: &[Value]) -> String {
    let parts: Vec<String> = values.iter().map(value_text).collect();
    parts.join(", ")
}

/// Renumbers every disjunct's variables in order of first occurrence:
/// head, atoms left to right, then comparisons.
pub fn canonical(q: &Ucq) -> Ucq {
    Ucq::new(q.disjuncts.iter().map(|cq| {
        let mut map: BTreeMap<Var, Var> = BTreeMap::new();
        let mut rename = |v: Var| {
            let next = Var(map.len() as u32);
            *map.entry(v).or_insert(next)
        };
        let mut term = |t: &Term| match t {
            Term::Var(v) => Term::Var(rename(*v)),
            c => c.clone(),
        };
        let head: Vec<Term> = cq.head.iter().map(&mut term).collect();
        let atoms: Vec<Atom> = cq
            .atoms
            .iter()
            .map(|a| Atom::new(a.rel, a.args.iter().map(&mut term)))
            .collect();
        let comparisons: Vec<Comparison> = cq
            .comparisons
            .iter()
            .map(|c| Comparison {
                var: match term(&Term::Var(c.var)) {
                    Term::Var(v) => v,
                    Term::Const(_) => c.var,
                },
                op: c.op,
                value: c.value.clone(),
            })
            .collect();
        Cq::new(head, atoms, comparisons)
    }))
}

fn term_text(t: &Term) -> String {
    match t {
        Term::Var(v) => var_text(*v),
        Term::Const(c) => value_text(c),
    }
}

fn var_text(v: Var) -> String {
    format!("V{}", v.0)
}

fn op_text(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn value_text(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("\"{s}\""),
        other => other.to_string(),
    }
}
