//! Macro-bench regression checking over the committed `BENCH_*.json`
//! artifacts.
//!
//! Every hand-rolled bench target writes a JSON summary at the workspace
//! root; those files are committed, so they double as the performance
//! baseline. [`flatten`] parses a summary into dotted-path → number
//! form, and [`compare`] flags paths that regressed beyond a tolerance
//! factor:
//!
//! * paths ending in `_ns` regress when `current > baseline × tol`
//!   (things that should stay fast got slower),
//! * paths whose last segment contains `speedup` regress when
//!   `current < baseline ÷ tol` (wins that should persist shrank) —
//!   skipped entirely when either side reports `"single_core": true`,
//!   since a 1-core container proves parity but cannot reproduce
//!   wall-clock speedups,
//! * every other path (counts, labels, notes) is ignored, as are paths
//!   present on only one side (new benches are not regressions).
//!
//! The `bench-check` binary applies this file-by-file; CI snapshots the
//! committed baselines before re-running the benches and fails on any
//! finding.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value — just enough structure for the bench summaries.
enum Val {
    Null,
    Bool(bool),
    Num(f64),
    /// Contents are never compared — strings only matter as object keys.
    Str,
    Arr(Vec<Val>),
    Obj(Vec<(String, Val)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.ws();
        self.s
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of input".into())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, val: Val) -> Result<Val, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(val)
        } else {
            Err(format!("malformed literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self
                .s
                .get(self.i)
                .ok_or_else(|| String::from("unterminated string"))?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .s
                        .get(self.i)
                        .ok_or_else(|| String::from("unterminated escape"))?;
                    self.i += 1;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        other => other as char,
                    });
                }
                other => out.push(other as char),
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("malformed number at byte {start}"))
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.peek()? {
            b'{' => {
                self.expect(b'{')?;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.i += 1;
                    return Ok(Val::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek()? {
                        b',' => self.i += 1,
                        b'}' => {
                            self.i += 1;
                            return Ok(Val::Obj(fields));
                        }
                        other => {
                            return Err(format!("expected ',' or '}}', got '{}'", other as char))
                        }
                    }
                }
            }
            b'[' => {
                self.expect(b'[')?;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.i += 1;
                    return Ok(Val::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.i += 1,
                        b']' => {
                            self.i += 1;
                            return Ok(Val::Arr(items));
                        }
                        other => {
                            return Err(format!("expected ',' or ']', got '{}'", other as char))
                        }
                    }
                }
            }
            b'"' => {
                self.string()?;
                Ok(Val::Str)
            }
            b't' => self.literal("true", Val::Bool(true)),
            b'f' => self.literal("false", Val::Bool(false)),
            b'n' => self.literal("null", Val::Null),
            _ => Ok(Val::Num(self.number()?)),
        }
    }
}

/// A bench summary flattened to dotted paths.
pub struct Flat {
    /// Every numeric leaf, keyed by its dotted path (array elements by
    /// index, e.g. `results.3.batch_ns`).
    pub numbers: BTreeMap<String, f64>,
    /// Whether the summary declares `"single_core": true` at any level.
    pub single_core: bool,
}

fn walk(prefix: &str, v: &Val, out: &mut Flat) {
    match v {
        Val::Num(n) => {
            out.numbers.insert(prefix.to_string(), *n);
        }
        Val::Bool(b) => {
            if *b && prefix.rsplit('.').next() == Some("single_core") {
                out.single_core = true;
            }
        }
        Val::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                walk(&format!("{prefix}.{i}"), item, out);
            }
        }
        Val::Obj(fields) => {
            for (k, item) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                walk(&path, item, out);
            }
        }
        Val::Null | Val::Str => {}
    }
}

/// Parses one `BENCH_*.json` document into flattened form.
pub fn flatten(json: &str) -> Result<Flat, String> {
    let mut p = Parser {
        s: json.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing content at byte {}", p.i));
    }
    let mut out = Flat {
        numbers: BTreeMap::new(),
        single_core: false,
    };
    walk("", &v, &mut out);
    Ok(out)
}

/// One path that moved beyond the tolerance.
pub struct Regression {
    /// The dotted path that regressed.
    pub path: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The freshly measured value.
    pub current: f64,
    /// `"slower"` (an `_ns` path grew) or `"speedup-lost"`.
    pub kind: &'static str,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} (baseline {:.0}, current {:.0}, {:+.0}%)",
            self.path,
            self.kind,
            self.baseline,
            self.current,
            (self.current / self.baseline - 1.0) * 100.0
        )
    }
}

/// Compares two flattened summaries under a tolerance factor (`tol > 1`,
/// e.g. `2.0` = "may be up to twice as slow / half the speedup before
/// failing"). Only paths present on both sides participate.
pub fn compare(baseline: &Flat, current: &Flat, tol: f64) -> Vec<Regression> {
    let skip_speedups = baseline.single_core || current.single_core;
    let mut out = Vec::new();
    for (path, base) in &baseline.numbers {
        let Some(cur) = current.numbers.get(path) else {
            continue;
        };
        let last = path.rsplit('.').next().unwrap_or(path);
        if last.ends_with("_ns") && *base > 0.0 && *cur > *base * tol {
            out.push(Regression {
                path: path.clone(),
                baseline: *base,
                current: *cur,
                kind: "slower",
            });
        } else if last.contains("speedup") && !skip_speedups && *base > 0.0 && *cur < *base / tol {
            out.push(Regression {
                path: path.clone(),
                baseline: *base,
                current: *cur,
                kind: "speedup-lost",
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
      "bench": "demo", "unit": "ns", "available_parallelism": 4,
      "single_core": false,
      "results": [
        {"bench": "a", "threads": 2, "batch_ns": 1000, "speedup": 2.0},
        {"bench": "a", "threads": 4, "batch_ns": 600, "speedup": 3.3}
      ],
      "note": "text is ignored"
    }"#;

    fn with(batch_ns: u64, speedup: f64, single: bool) -> String {
        format!(
            r#"{{"single_core": {single}, "results": [
                 {{"bench": "a", "threads": 2, "batch_ns": {batch_ns}, "speedup": {speedup}}},
                 {{"bench": "a", "threads": 4, "batch_ns": 600, "speedup": 3.3}}
               ]}}"#
        )
    }

    #[test]
    fn flatten_extracts_numeric_leaves_and_single_core() {
        let flat = flatten(BASE).unwrap();
        assert_eq!(flat.numbers.get("results.0.batch_ns"), Some(&1000.0));
        assert_eq!(flat.numbers.get("results.1.speedup"), Some(&3.3));
        assert_eq!(flat.numbers.get("available_parallelism"), Some(&4.0));
        assert!(!flat.single_core);
        assert!(flatten(r#"{"single_core": true}"#).unwrap().single_core);
        assert!(flatten("{oops").is_err());
        assert!(flatten("{} trailing").is_err());
    }

    #[test]
    fn within_tolerance_passes() {
        let baseline = flatten(BASE).unwrap();
        let current = flatten(&with(1800, 1.2, false)).unwrap();
        assert!(compare(&baseline, &current, 2.0).is_empty());
    }

    #[test]
    fn slowdowns_and_lost_speedups_are_flagged() {
        let baseline = flatten(BASE).unwrap();
        let current = flatten(&with(2500, 0.8, false)).unwrap();
        let regressions = compare(&baseline, &current, 2.0);
        let kinds: Vec<&str> = regressions.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, ["slower", "speedup-lost"]);
        assert_eq!(regressions[0].path, "results.0.batch_ns");
    }

    #[test]
    fn single_core_skips_speedup_checks_only() {
        let baseline = flatten(BASE).unwrap();
        let current = flatten(&with(2500, 0.1, true)).unwrap();
        let regressions = compare(&baseline, &current, 2.0);
        assert_eq!(regressions.len(), 1, "ns check must still fire");
        assert_eq!(regressions[0].kind, "slower");
    }

    #[test]
    fn paths_on_one_side_are_ignored() {
        let baseline = flatten(BASE).unwrap();
        let current = flatten(r#"{"results": [{"other_ns": 1}]}"#).unwrap();
        assert!(compare(&baseline, &current, 2.0).is_empty());
    }
}
