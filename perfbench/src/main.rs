//! The repository benchmark.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 --dmlc PATH --work DIR
//! ```
//!
//! `--trace 0` runs workload `W` end to end against the `dmlc` binary and
//! prints the end-to-end metrics; `--trace 1` runs the same seeded inputs
//! through each crate in this process and prints the per-layer metrics.
//! The last line of standard output is the result object; the line
//! before it is a detail object with the spread of every metric and the
//! hardware it ran on. `perfbench/run.py` builds both binaries and calls
//! this one.

mod e2e;
mod inputs;
mod stats;
mod sys;
mod trace;

use dml_obs::json::{obj, Json};
use std::path::PathBuf;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["paper_oneshot", "large_file", "daemon_edits", "table_runs"];

/// One run's parameters.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub dmlc: PathBuf,
    /// Working directory for generated inputs and span dumps.
    pub work: PathBuf,
}

/// One run's result: metrics `(name, unit, value)`, counts, and detail.
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub detail: Vec<(&'static str, Json)>,
}

fn parse_args() -> Result<(Ctx, bool), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut dmlc, mut work) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            "--dmlc" => dmlc = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`; expected one of {WORKLOADS:?}"));
    }
    let ctx = Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        dmlc: dmlc.ok_or("--dmlc is required")?,
        work: work.ok_or("--work is required")?,
    };
    Ok((ctx, trace.unwrap_or(false)))
}

/// A number with all its digits (Rust's shortest round-trip form).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    // Helper processes the benchmark starts from its own binary.
    let args: Vec<String> = std::env::args().collect();
    match args.as_slice() {
        [_, flag, dmlc] if flag == "--spawner" => return e2e::spawner_main(dmlc),
        [_, flag, round, _, seed] if flag == "--table-round" => {
            let num = |s: &str| s.parse::<u64>().expect("numeric worker argument");
            return e2e::table_round(num(seed), num(round));
        }
        _ => {}
    }
    let (ctx, traced) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&ctx.work).expect("work directory is writable");
    let outcome = if traced {
        trace::run(&ctx)
    } else {
        match ctx.workload.as_str() {
            "paper_oneshot" => e2e::paper_oneshot(&ctx),
            "large_file" => e2e::large_file(&ctx),
            "daemon_edits" => e2e::daemon_edits(&ctx),
            _ => e2e::table_runs(&ctx),
        }
    };
    for f in outcome.failures.iter().take(5) {
        eprintln!("perfbench: FAILED {f}");
    }
    let failed = outcome.failures.len() as u64;
    let detail = obj(vec![
        ("workload", Json::Str(ctx.workload.clone())),
        ("seed", Json::Int(ctx.seed as i64)),
        ("trace", Json::Bool(traced)),
        ("hardware", sys::hardware()),
        ("detail", obj(outcome.detail)),
    ]);
    println!("{}", detail.render());
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*v))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        outcome.attempted.max(1),
        metrics.join(", ")
    );
}
