//! The benchmark's own checks, on short streams: generation is a pure
//! function of the seed, a seed never used while tuning runs without a
//! single failed item, and every generated query survives the trip
//! through wire rule text.

use std::path::PathBuf;
use whynot_relation::{
    parse_query, Atom, CmpOp, Comparison, Cq, SchemaBuilder, Term, Ucq, Value, Var,
};
use wirebench::drive;
use wirebench::render::{canonical, render_rule};
use wirebench::replay::replay;
use wirebench::trace::Trace;
use wirebench::workload::{Kind, Workload};

/// Short stream lengths per workload (see `Kind::bench_len`).
fn short(kind: Kind) -> usize {
    match kind {
        Kind::ServeChurn => 48,
        Kind::LubBound => 2,
    }
}

fn state_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("wirebench-{tag}"))
}

#[test]
fn same_seed_gives_identical_ops_and_payloads() {
    for kind in Kind::ALL {
        let a = Workload::generate(kind, 7, short(kind));
        let b = Workload::generate(kind, 7, short(kind));
        assert_eq!(a.lines, b.lines, "{}: op lines differ", kind.name());
        let creates = |w: &Workload| -> Vec<Vec<String>> {
            w.tenants.iter().map(|t| t.create_lines.clone()).collect()
        };
        assert_eq!(
            creates(&a),
            creates(&b),
            "{}: definitions differ",
            kind.name()
        );
        assert_eq!(
            replay(&a, None, None).items,
            replay(&b, None, None).items,
            "{}: predicted payloads differ",
            kind.name()
        );
        let dir = state_dir(&format!("same-seed-{}", kind.name()));
        let first = drive::pass(&a, &dir, 2).items;
        let second = drive::pass(&b, &dir, 2).items;
        assert_eq!(first, second, "{}: wire payloads differ", kind.name());
        let _ = std::fs::remove_dir_all(&dir);
        assert_ne!(
            a.lines,
            Workload::generate(kind, 8, short(kind)).lines,
            "{}: the seed is ignored",
            kind.name()
        );
    }
}

#[test]
fn held_out_seed_has_no_failed_items() {
    // Never used while the benchmark was tuned.
    let seed = 0x4e1d_0a7e_u64;
    for kind in Kind::ALL {
        let w = Workload::generate(kind, seed, short(kind));
        assert!(w.questions() > 0 && w.mutates() > 0, "{}", kind.name());
        let dir = state_dir(&format!("held-out-{}", kind.name()));
        let wire = drive::pass(&w, &dir.join("server"), 2);
        let reference = replay(&w, None, None);
        assert_eq!(
            wire.items,
            reference.items,
            "{}: wire vs direct",
            kind.name()
        );
        let trace = Trace::default();
        let traced = replay(&w, Some(&trace), Some(&dir.join("durable")));
        assert_eq!(
            traced.items,
            reference.items,
            "{}: traced replay",
            kind.name()
        );
        assert_eq!(traced.mirror_mismatches, 0, "{}: mirror calls", kind.name());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn every_workload_query_round_trips_through_rule_text() {
    for kind in Kind::ALL {
        let w = Workload::generate(kind, 3, short(kind));
        let queries = w.queries();
        assert!(!queries.is_empty());
        for (tenant, q) in queries {
            let schema = &w.tenants[tenant].def.schema;
            let text = render_rule(schema, &q);
            assert_eq!(
                parse_query(schema, &text).expect("rule text parses"),
                q,
                "{text}"
            );
        }
    }
}

#[test]
fn constants_comparisons_and_unions_round_trip() {
    let mut b = SchemaBuilder::new();
    let r = b.relation("Train-Connections", ["from", "to"]);
    let s = b.relation("Cities", ["name", "population"]);
    let schema = b.finish().unwrap();
    let (x, y, z) = (Var(4), Var(1), Var(9));
    let q = Ucq::new([
        Cq::new(
            [Term::Var(x)],
            [
                Atom::new(r, [Term::Var(x), Term::Const(Value::str("Amsterdam"))]),
                Atom::new(s, [Term::Var(x), Term::Var(y)]),
            ],
            [
                Comparison::new(y, CmpOp::Ge, Value::int(100_000)),
                Comparison::new(y, CmpOp::Lt, Value::int(5_000_000)),
            ],
        ),
        Cq::new(
            [Term::Var(z)],
            [Atom::new(s, [Term::Var(z), Term::Const(Value::int(42))])],
            [Comparison::new(z, CmpOp::Eq, Value::str("Rome"))],
        ),
    ]);
    let q = canonical(&q);
    let text = render_rule(&schema, &q);
    assert_eq!(
        parse_query(&schema, &text).expect("rule text parses"),
        q,
        "{text}"
    );
}
