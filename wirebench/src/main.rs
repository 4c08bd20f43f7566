//! `wirebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs from the root of a checkout; snapshot state lives under
//! `.bench_state/` there and is removed before exit. Prints an
//! environment record and, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use std::path::PathBuf;
use std::process::ExitCode;
use wirebench::run::{self, Outcome};
use wirebench::workload::{Kind, Workload};

const USAGE: &str =
    "usage: wirebench --workload <serve_churn|lub_bound> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let root = PathBuf::from(".bench_state");
    let state = root.join(std::process::id().to_string());
    let workload = Workload::generate(args.kind, args.seed, args.kind.bench_len());
    let outcome = if args.trace {
        run::traced(&workload, &state, threads)
    } else {
        run::timed(&workload, &state, args.seconds, threads)
    };
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir(&root);
    println!("{}", env_line(&outcome));
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

fn env_line(o: &Outcome) -> String {
    let fields: Vec<String> = o.env.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{\"env\": {{{}}}}}", fields.join(", "))
}

fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a degenerate ratio reads 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
