//! `fairbench`: the end-to-end and per-layer benchmark of the audit
//! stack. README.md in this directory describes the workloads, metrics,
//! trace format and commands:
//!
//! ```text
//! fairbench run [--workload NAME]… [--seed N] [--seconds S] [--out DIR] [--trace [0|1]]
//! fairbench compare DIR_A… -- DIR_B…
//! ```
//!
//! `run` measures each workload in a child process of its own (so each
//! reports its own peak memory), prints every metric as
//! `workload metric value unit`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod compare;
mod json;
mod report;
mod serve_mixed;
mod stats;
mod trace;
mod workloads;

use report::{metrics_json, result_path, Host, Metric, ResultFile};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Scale, WORKLOADS};

/// Seed of the inputs when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2019;
/// Measuring window when `--seconds` is not given; `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;
const DEFAULT_OUT: &str = "fairbench-results";

const USAGE: &str = "usage:
  fairbench run [--workload NAME]... [--seed N] [--seconds S] [--out DIR] [--trace [0|1]]
  fairbench compare DIR_A... -- DIR_B...";

#[derive(Debug)]
struct RunArgs {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    out: PathBuf,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        out: PathBuf::from(DEFAULT_OUT),
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload `{name}`; known: {}",
                        WORKLOADS.join(", ")
                    ));
                }
                run.workloads.push(name.clone());
            }
            "--seed" => {
                run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                run.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or("--seconds takes a whole number of at least 1")?;
            }
            "--out" => run.out = PathBuf::from(value()?),
            "--trace" => {
                run.trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if run.workloads.is_empty() {
        run.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(run)
}

/// Measure each workload in a child process and report.
fn run(args: &RunArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating fairbench: {e}"))?;
    let mut results = Vec::new();
    let mut all_passed = true;
    for workload in &args.workloads {
        let path = result_path(&args.out, workload, args.trace);
        let _ = std::fs::remove_file(&path);
        let status = Command::new(&exe)
            .arg("child")
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stdin(Stdio::null())
            .status()
            .map_err(|e| format!("starting the {workload} child: {e}"))?;
        let result = ResultFile::read(&path)
            .map_err(|e| format!("{workload} left no result ({status}): {e}"))?;
        all_passed &= status.success() && result.correct;
        for m in result.metrics.iter().chain(&result.detail) {
            println!("{workload} {} {} {}", m.name, m.value, m.unit);
        }
        if args.trace {
            print_overhead(&args.out, &result);
        }
        results.push(result);
    }
    let metrics: Vec<Metric> = if let [only] = results.as_slice() {
        only.metrics.clone()
    } else {
        results
            .iter()
            .flat_map(|r| {
                r.metrics
                    .iter()
                    .map(|m| Metric::new(format!("{}.{}", r.workload, m.name), m.value, &m.unit))
            })
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        results.iter().all(|r| r.correct),
        results.iter().map(|r| r.attempted).sum::<u64>(),
        results.iter().map(|r| r.failed).sum::<u64>(),
        metrics_json(&metrics),
    );
    Ok(all_passed)
}

/// With an untraced result of the same inputs beside it, a traced
/// result gives the tracing overhead.
fn print_overhead(dir: &std::path::Path, traced: &ResultFile) {
    let Ok(untraced) = ResultFile::read(&result_path(dir, &traced.workload, false)) else {
        return;
    };
    if (untraced.seed, untraced.seconds) != (traced.seed, traced.seconds) {
        return;
    }
    if let (Some(with), Some(without)) =
        (traced.metric("trace.op_p50_ms"), untraced.metric("p50_ms"))
    {
        println!(
            "{} trace.overhead_pct {} %",
            traced.workload,
            100.0 * (with / without - 1.0)
        );
    }
}

/// One workload in this process: the child side of [`run`].
fn child(args: &RunArgs) -> Result<bool, String> {
    let [workload] = args.workloads.as_slice() else {
        return Err("a child runs exactly one workload".to_string());
    };
    let outcome = workloads::run(
        workload,
        args.seed,
        &Scale::full(args.seconds),
        args.trace,
        &args.out,
    );
    let mut file = ResultFile {
        workload: workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        correct: true,
        mismatch: None,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        detail: Vec::new(),
    };
    match outcome {
        Ok(outcome) => {
            if args.trace {
                let path = args.out.join(format!("trace-{workload}.jsonl"));
                outcome
                    .trace
                    .write_jsonl(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                file.metrics = outcome.layers;
            } else {
                file.metrics = outcome.end_to_end;
            }
            file.detail = outcome.detail;
            file.detail
                .push(Metric::new("peak_rss_mb", report::peak_rss_mb(), "MB"));
            file.attempted = outcome.attempted;
            file.failed = outcome.failed;
        }
        Err(mismatch) => {
            eprintln!("fairbench: {workload}: wrong answer: {}", mismatch.message);
            file.correct = false;
            file.attempted = mismatch.attempted;
            file.mismatch = Some(mismatch.message);
        }
    }
    file.write(&args.out, &Host::probe())
        .map_err(|e| format!("{}: {e}", args.out.display()))?;
    Ok(file.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => parse_run(rest).and_then(|a| run(&a)),
        Some((command, rest)) if command == "child" => parse_run(rest).and_then(|a| child(&a)),
        Some((command, rest)) if command == "compare" => {
            match rest.iter().position(|a| a == "--") {
                Some(split) if split > 0 && split + 1 < rest.len() => {
                    let dirs = |args: &[String]| args.iter().map(PathBuf::from).collect::<Vec<_>>();
                    compare::compare(&dirs(&rest[..split]), &dirs(&rest[split + 1..]))
                        .map(|regressed| !regressed)
                }
                _ => Err(USAGE.to_string()),
            }
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("fairbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_run_command_line() {
        let all = parse_run(&[]).expect("defaults");
        assert_eq!(all.workloads, WORKLOADS);
        assert_eq!(
            (all.seed, all.seconds, all.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        let one = parse_run(&args(
            "--workload serve_mixed --seed 7 --seconds 3 --trace 0 --out d",
        ))
        .expect("valid");
        assert_eq!(one.workloads, ["serve_mixed"]);
        assert_eq!((one.seed, one.seconds, one.trace), (7, 3, false));
        assert_eq!(one.out, PathBuf::from("d"));
        assert!(parse_run(&args("--trace")).expect("bare flag").trace);
        assert!(
            parse_run(&args("--trace 1 --seed 1"))
                .expect("valued")
                .trace
        );
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--seconds 0")).is_err());
        assert!(parse_run(&args("--seed")).is_err());
        assert!(parse_run(&args("--sede 3")).is_err());
    }
}
