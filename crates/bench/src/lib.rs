//! Shared helpers for the benchmark harness.
//!
//! Every bench target regenerates one row of the paper's Table 1 or one
//! figure/example (see DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for measured results). The goal is *shape* fidelity:
//! polynomial rows must scale smoothly, hardness rows must blow up where
//! the paper places the lower bound.

#![forbid(unsafe_code)]

pub mod regression;

use criterion::Criterion;
use std::time::Duration;

/// A Criterion configuration tuned for a large matrix of short benches:
/// modest sample counts so the whole harness stays in the minutes range.
pub fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .configure_from_args()
}

/// Median wall-clock nanoseconds of `runs` invocations of `f`, after one
/// unmeasured warm-up call. The single timing helper shared by the
/// hand-rolled JSON-emitting bench targets (`engine`, `session`, `lub`,
/// `contrast`, …), so the methodology cannot drift between them.
pub fn median_ns(mut f: impl FnMut(), runs: usize) -> f64 {
    f(); // warm-up
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}
