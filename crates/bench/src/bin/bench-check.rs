//! `bench-check <baseline-dir> <current-dir> [tolerance]` — compares the
//! `BENCH_matrix.json` in the baseline directory against the freshly
//! generated one in the current directory and exits nonzero when a row's
//! calibrated ratio regressed (see `whynot_bench::regression` for the
//! rule; the tolerance defaults to CI's). CI snapshots the committed
//! summary, re-runs `cargo bench --bench matrix`, then runs this.

use std::path::Path;
use std::process::ExitCode;
use whynot_bench::regression::{compare, Matrix, TOLERANCE};

const SUMMARY: &str = "BENCH_matrix.json";

fn read(dir: &str) -> Result<Matrix, String> {
    let path = Path::new(dir).join(SUMMARY);
    std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|s| Matrix::parse(&s))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_dir, current_dir) = match args.as_slice() {
        [b, c] | [b, c, _] => (b, c),
        _ => {
            eprintln!("usage: bench-check <baseline-dir> <current-dir> [tolerance]");
            return ExitCode::from(2);
        }
    };
    let tolerance: f64 = match args.get(2).map(|t| t.parse()) {
        None => TOLERANCE,
        Some(Ok(t)) if t > 1.0 => t,
        Some(_) => {
            eprintln!("tolerance must be a number > 1");
            return ExitCode::from(2);
        }
    };
    let (baseline, current) = match (read(baseline_dir), read(current_dir)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-check: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "calibration_ns: baseline {}, current {}",
        baseline.calibration_ns, current.calibration_ns
    );
    for row in baseline.rows.keys() {
        match (baseline.ratio(row), current.ratio(row)) {
            (Some(b), Some(c)) => println!("  {row}: {b:.3e} → {c:.3e} ({:.2}x)", c / b),
            _ => println!("  {row}: SKIP (no fresh row)"),
        }
    }
    let regressions = compare(&baseline, &current, tolerance);
    if regressions.is_empty() {
        println!("\nbench-check: all rows within {tolerance}x tolerance");
        ExitCode::SUCCESS
    } else {
        println!("\nbench-check: rows beyond {tolerance}x tolerance:");
        for r in regressions {
            println!("  {r}");
        }
        ExitCode::FAILURE
    }
}
