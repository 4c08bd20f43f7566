//! The bench gate over `BENCH_matrix.json`.
//!
//! The `matrix` bench target writes one summary at the workspace root;
//! the committed copy is the performance baseline. Every row records
//! its nanoseconds per call, and the summary records `calibration_ns`,
//! the median time of [`calibrate`](crate::calibrate) measured in the
//! same process between the row samples (the `matrix` target's docs say
//! how a row's `ns` is scaled to it). The gate compares
//! each row's *ratio* `ns / calibration_ns`: a row regresses when its
//! fresh ratio exceeds the baseline's by more than the tolerance
//! factor. A box that is uniformly faster or slower than the one that
//! recorded the baseline moves both sides of every ratio alike, so the
//! tolerance only has to cover run-to-run noise, not hardware.
//!
//! Rows present on only one side are ignored (a new row is not a
//! regression), and so are the count fields a row carries beside `ns`.
//! The `bench-check` binary applies [`compare`]; CI snapshots the
//! committed baseline before re-running the bench and fails on any
//! finding.

use std::collections::BTreeMap;
use std::fmt;
use whynot_relation::json::Json;

/// CI's tolerance factor on a row's ratio. It sits above the ratio
/// spread of repeated clean runs on one box and below the 1.5×
/// slowdown of a single row that the gate must catch (CHANGES.md
/// records the measured spread).
pub const TOLERANCE: f64 = 1.3;

/// A parsed `BENCH_matrix.json`.
pub struct Matrix {
    /// Median nanoseconds of one calibration kernel call.
    pub calibration_ns: i128,
    /// Nanoseconds per call, keyed by row name.
    pub rows: BTreeMap<String, i128>,
}

impl Matrix {
    /// Parses a summary: `{"calibration_ns": n, "rows": [{"row":
    /// name, "ns": n, ...counts}, ...]}`; other fields are ignored.
    pub fn parse(json: &str) -> Result<Matrix, String> {
        let doc = Json::parse(json).map_err(|e| e.to_string())?;
        let positive = |v: Option<&Json>, what: &str| match v.and_then(Json::as_int) {
            Some(n) if n > 0 => Ok(n),
            _ => Err(format!("{what} is not a positive integer")),
        };
        let calibration_ns = positive(doc.get("calibration_ns"), "calibration_ns")?;
        let mut rows = BTreeMap::new();
        for row in doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("no rows array")?
        {
            let name = row.get("row").and_then(Json::as_str).ok_or("unnamed row")?;
            let ns = positive(row.get("ns"), &format!("{name}: ns"))?;
            if rows.insert(name.to_string(), ns).is_some() {
                return Err(format!("duplicate row {name}"));
            }
        }
        Ok(Matrix {
            calibration_ns,
            rows,
        })
    }

    /// A row's time as a multiple of the calibration kernel's.
    pub fn ratio(&self, row: &str) -> Option<f64> {
        let ns = self.rows.get(row)?;
        Some(*ns as f64 / self.calibration_ns as f64)
    }
}

/// One row whose ratio moved beyond the tolerance.
pub struct Regression {
    /// The row name.
    pub row: String,
    /// The committed baseline's ratio.
    pub baseline: f64,
    /// The fresh run's ratio.
    pub current: f64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: ratio {:.4} → {:.4} ({:.2}x)",
            self.row,
            self.baseline,
            self.current,
            self.current / self.baseline
        )
    }
}

/// The rows present on both sides whose ratio grew beyond `tol`
/// (`tol > 1`, e.g. `1.3` = "may take up to 1.3× its baseline share of
/// the calibration kernel before failing").
pub fn compare(baseline: &Matrix, current: &Matrix, tol: f64) -> Vec<Regression> {
    baseline
        .rows
        .keys()
        .filter_map(|row| {
            let (base, cur) = (baseline.ratio(row)?, current.ratio(row)?);
            (cur > base * tol).then(|| Regression {
                row: row.clone(),
                baseline: base,
                current: cur,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A summary with calibration `cal` and rows `a`, `b`, `c` at the
    /// given times.
    fn matrix(cal: u64, ns: [u64; 3]) -> Matrix {
        let rows: Vec<String> = ["a", "b", "c"]
            .iter()
            .zip(ns)
            .map(|(name, ns)| format!(r#"{{"row": "{name}", "ns": {ns}, "questions": 200}}"#))
            .collect();
        Matrix::parse(&format!(
            r#"{{"bench": "matrix", "calibration_ns": {cal}, "rows": [{}]}}"#,
            rows.join(", ")
        ))
        .unwrap()
    }

    const BASE: [u64; 3] = [1_000, 40_000, 2_000_000];

    #[test]
    fn parse_reads_rows_and_rejects_malformed_summaries() {
        let m = matrix(2_000, BASE);
        assert_eq!(m.calibration_ns, 2_000);
        assert_eq!(m.rows.get("b"), Some(&40_000));
        assert_eq!(m.ratio("a"), Some(0.5));
        assert!(Matrix::parse("{oops").is_err());
        assert!(Matrix::parse(r#"{"rows": []}"#).is_err(), "no calibration");
        assert!(Matrix::parse(r#"{"calibration_ns": 0, "rows": []}"#).is_err());
        let dup =
            r#"{"calibration_ns": 1, "rows": [{"row": "a", "ns": 1}, {"row": "a", "ns": 2}]}"#;
        assert!(Matrix::parse(dup).is_err());
    }

    #[test]
    fn one_row_slower_by_half_fails_at_ci_tolerance() {
        let baseline = matrix(2_000, BASE);
        let current = matrix(2_000, [1_000, 60_000, 2_000_000]);
        let regressions = compare(&baseline, &current, TOLERANCE);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].row, "b");
    }

    #[test]
    fn a_uniform_slowdown_of_rows_and_kernel_passes() {
        let baseline = matrix(2_000, BASE);
        let current = matrix(3_000, BASE.map(|ns| ns * 3 / 2));
        assert!(compare(&baseline, &current, TOLERANCE).is_empty());
        // A faster box passes too, and so does noise inside the
        // tolerance.
        let faster = matrix(1_000, [500, 24_000, 1_000_000]);
        assert!(compare(&baseline, &faster, TOLERANCE).is_empty());
    }

    #[test]
    fn paths_on_one_side_are_ignored() {
        let baseline = matrix(2_000, BASE);
        let current = Matrix::parse(
            r#"{"calibration_ns": 2000, "rows": [{"row": "other", "ns": 999999999}]}"#,
        )
        .unwrap();
        assert!(compare(&baseline, &current, TOLERANCE).is_empty());
        assert!(compare(&current, &baseline, TOLERANCE).is_empty());
    }
}
