//! Shared helpers for the benchmark harness.
//!
//! The Criterion targets (`algorithms`, `figures`, `table1`,
//! `variations`) regenerate the paper's Table 1 rows and its
//! figures/examples. The goal there is *shape* fidelity: polynomial rows
//! must scale smoothly, hardness rows must blow up where the paper
//! places the lower bound. The `matrix` target times the shipped
//! algorithms against [`calibrate`], and [`regression`] gates its rows
//! on those ratios.

#![forbid(unsafe_code)]

pub mod regression;

use criterion::Criterion;
use std::collections::BTreeMap;
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

/// The fixed calibration kernel the `matrix` bench times beside its
/// rows: a word-AND/popcount loop over two fixed bit vectors, then a
/// `BTreeMap` insert/remove churn over a fixed key sequence whose
/// inserts allocate value vectors of pseudo-random length. It calls no
/// workspace library code, so no library change can move it, and its
/// mix (word ops plus allocator-heavy tree churn) resembles the rows'.
/// Returns a checksum so the work cannot be optimized away; the checksum
/// is pinned by a test, so an edit to the kernel (which would invalidate
/// every committed ratio) cannot go unnoticed.
pub fn calibrate() -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        // xorshift64
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let a: Vec<u64> = (0..512).map(|_| next()).collect();
    let mut b: Vec<u64> = (0..512).map(|_| next()).collect();
    let mut sum = 0u64;
    for round in 0..400u32 {
        sum += a
            .iter()
            .zip(&b)
            .map(|(x, y)| u64::from((x & y).count_ones()))
            .sum::<u64>();
        b.rotate_left(1 + (round as usize % 7));
    }
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for i in 0..12_000u64 {
        let k = next() % 4096;
        if map.remove(&k).is_none() {
            let len = next() % 200 + 1;
            map.insert(k, (i..i + len).collect());
        }
    }
    map.values()
        .fold(sum, |acc, v| acc.wrapping_add(v[v.len() / 2]))
        .wrapping_add(map.len() as u64)
}

#[cfg(test)]
mod tests {
    #[test]
    fn calibration_kernel_is_fixed() {
        assert_eq!(super::calibrate(), 19_873_082, "kernel checksum moved");
    }
}
