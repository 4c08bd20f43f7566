//! In-memory spans and counters for the traced run.
//!
//! A span records one public call into a layer: its name, the span open
//! around it when it started (its cause), and its duration. Spans stay in
//! memory until the run ends; [`Trace::summary`] then folds them into
//! per-name call counts, total time and self time (total minus the time
//! covered by child spans, e.g. `contrast_with` minus the lub calls made
//! inside it).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    ns: u64,
}

/// Per-name aggregate of the recorded spans.
#[derive(Clone, Copy, Default, Debug)]
pub struct Agg {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Their summed duration.
    pub total_ns: u64,
    /// Their summed duration minus their children's.
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration per call in `unit_ns` units (0 without calls).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / unit_ns
        }
    }
}

/// The span and counter recorder.
#[derive(Default)]
pub struct Trace {
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    counts: RefCell<BTreeMap<&'static str, f64>>,
    supports: RefCell<HashSet<u64>>,
}

impl Trace {
    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                parent,
                ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].ns = ns;
        out
    }

    /// Adds `v` to counter `name`.
    pub fn add(&self, name: &'static str, v: f64) {
        *self.counts.borrow_mut().entry(name).or_insert(0.0) += v;
    }

    /// Counter `name` (0 if never added to).
    pub fn count(&self, name: &'static str) -> f64 {
        self.counts.borrow().get(name).copied().unwrap_or(0.0)
    }

    /// Notes a lub support by its hash (see
    /// [`Trace::distinct_supports`]).
    pub fn note_support(&self, key: u64) {
        self.supports.borrow_mut().insert(key);
    }

    /// Distinct lub supports noted.
    pub fn distinct_supports(&self) -> usize {
        self.supports.borrow().len()
    }

    /// Folds the spans into per-name aggregates.
    pub fn summary(&self) -> BTreeMap<&'static str, Agg> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let agg = out.entry(s.name).or_default();
            agg.calls += 1;
            agg.total_ns += s.ns;
            agg.self_ns += s.ns.saturating_sub(child);
        }
        out
    }
}

/// Runs `f` inside a span when tracing, plainly otherwise.
pub fn timed<R>(trace: Option<&Trace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        Some(t) => t.span(name, f),
        None => f(),
    }
}
