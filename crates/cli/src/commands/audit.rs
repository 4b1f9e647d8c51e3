//! `fairjob audit` — find the most-unfair partitioning for a scoring
//! function over a population CSV.

use crate::args::Args;
use crate::CliError;
use fairjob_core::algorithms::{self, Algorithm};
use fairjob_core::stats::permutation_test;
use fairjob_core::{AuditConfig, AuditContext};
use fairjob_hist::distance as hd;
use fairjob_hist::HistogramDistance;
use std::sync::Arc;

pub(crate) fn resolve_algorithm(
    name: &str,
    seed: u64,
) -> Result<Box<dyn Algorithm + Send + Sync>, CliError> {
    algorithms::by_name(name, seed).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown algorithm `{name}` ({})",
            algorithms::ALGORITHM_NAMES.join(" | ")
        ))
    })
}

pub(crate) fn resolve_metric(name: &str) -> Result<Arc<dyn HistogramDistance>, CliError> {
    hd::by_name(name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown metric `{name}` ({})",
            hd::METRIC_NAMES.join(" | ")
        ))
    })
}

/// The flags `fairjob audit` accepts; any other `--flag` is a usage error.
const FLAGS: &[&str] = &[
    "workers",
    "schema",
    "paged",
    "mem-budget",
    "function",
    "alpha",
    "algorithm",
    "bins",
    "metric",
    "permutations",
    "histograms",
    "json",
    "seed",
];

/// Run the subcommand; returns the audit report.
///
/// # Errors
///
/// [`CliError`] on bad flags, unreadable input, or audit failure.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, FLAGS)?;
    if let Some(path) = args.optional("paged") {
        return run_paged(&args, path);
    }
    let workers =
        crate::commands::load_workers(args.required("workers")?, args.optional("schema"))?;
    let seed: u64 = args.parsed_or("seed", 0xBEEF)?;
    let scorer =
        crate::commands::resolve_scorer(args.optional("function"), args.optional("alpha"), seed)?;
    let algorithm = resolve_algorithm(args.optional("algorithm").unwrap_or("balanced"), seed)?;
    let config = audit_config(&args)?;
    let scores = scorer
        .score_all(&workers)
        .map_err(|e| CliError::Run(format!("scoring with {}: {e}", scorer.name())))?;
    let ctx = AuditContext::new(&workers, &scores, config)
        .map_err(|e| CliError::Run(format!("audit setup: {e}")))?;
    report(
        &args,
        &ctx,
        algorithm.as_ref(),
        format!("scoring function: {}\n", scorer.name()),
    )
}

/// The flags only an in-memory audit reads: the population and its
/// scoring function.
const IN_MEMORY_ONLY: &[&str] = &["workers", "function", "alpha"];

/// The out-of-core path: stream the audit off a paged snapshot file
/// through a bounded page cache instead of loading the population.
/// Scores come from the file, so `--workers`, `--function` and
/// `--alpha` are usage errors; results are bit-identical to the
/// in-memory audit of the same population at every `--mem-budget`.
/// The permutation test needs the scores in memory, so
/// `--permutations N` (N > 0) fails with its out-of-core error.
fn run_paged(args: &Args, path: &str) -> Result<String, CliError> {
    if let Some(flag) = IN_MEMORY_ONLY
        .iter()
        .find(|flag| args.optional(flag).is_some())
    {
        return Err(CliError::Usage(format!(
            "`--{flag}` does not apply to `--paged` audits: the population and its scores come from the file"
        )));
    }
    let seed: u64 = args.parsed_or("seed", 0xBEEF)?;
    let algorithm = resolve_algorithm(args.optional("algorithm").unwrap_or("balanced"), seed)?;
    let config = audit_config(args)?;
    let store = crate::commands::open_paged(path, crate::commands::parse_mem_budget(args)?)?;
    let ctx = AuditContext::from_paged(&store, config, None, None)
        .map_err(|e| CliError::Run(format!("audit setup: {e}")))?;
    report(
        args,
        &ctx,
        algorithm.as_ref(),
        format!("paged store: {path} ({} rows)\n", ctx.rows()),
    )
}

/// The audit config of the `--bins` and `--metric` flags.
fn audit_config(args: &Args) -> Result<AuditConfig, CliError> {
    Ok(AuditConfig {
        bins: args.parsed_or("bins", 10)?,
        distance: resolve_metric(args.optional("metric").unwrap_or("emd"))?,
        ..Default::default()
    })
}

/// Run `algorithm` on `ctx`, then the permutation test when
/// `--permutations N` asks for one (N > 0), and render the report:
/// `--json`, or `header` followed by the text report.
fn report(
    args: &Args,
    ctx: &AuditContext<'_>,
    algorithm: &(dyn Algorithm + Send + Sync),
    header: String,
) -> Result<String, CliError> {
    let seed: u64 = args.parsed_or("seed", 0xBEEF)?;
    let permutations: usize = args.parsed_or("permutations", 0)?;
    let result = algorithm
        .run(ctx)
        .map_err(|e| CliError::Run(format!("{}: {e}", algorithm.name())))?;
    let test = if permutations > 0 {
        Some(
            permutation_test(ctx, &result.partitioning, permutations, seed)
                .map_err(|e| CliError::Run(format!("permutation test: {e}")))?,
        )
    } else {
        None
    };
    if args.switch("json") {
        let json = result.to_json(ctx);
        return Ok(match test {
            None => format!("{json}\n"),
            Some(t) => format!(
                "{},\"permutation_test\":{{\"replicates\":{},\"null_mean\":{},\"null_max\":{},\"p_value\":{}}}}}\n",
                json.strip_suffix('}').expect("a JSON object"),
                t.replicates,
                t.null_mean,
                t.null_max,
                t.p_value
            ),
        });
    }
    let mut out = header;
    out.push_str(&result.render(ctx, args.switch("histograms")));
    if let Some(t) = test {
        out.push_str(&format!(
            "permutation test ({} replicates): null mean {:.4}, null max {:.4}, p = {:.4}\n",
            t.replicates, t.null_mean, t.null_max, t.p_value
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::testutil::{argv, TempFile};

    fn population() -> TempFile {
        let tmp = TempFile::new("audit.csv");
        crate::commands::generate::run(&argv(&["--size", "120", "--out", &tmp.path_str()]))
            .unwrap();
        tmp
    }

    #[test]
    fn audits_biased_function() {
        let tmp = population();
        let out = run(&argv(&[
            "--workers",
            &tmp.path_str(),
            "--function",
            "f6",
            "--permutations",
            "19",
        ]))
        .unwrap();
        assert!(out.contains("scoring function: f6"));
        assert!(out.contains("gender=Male"));
        assert!(out.contains("permutation test"));
    }

    /// A misspelt flag is a usage error naming it, not a silent run
    /// with the default it meant to override; so is the retired shard
    /// flag (the thread count is the one layout knob).
    #[test]
    fn unknown_flag_is_a_usage_error_naming_it() {
        let tmp = population();
        for (flag, value) in [("algoritm", "unbalanced"), ("shards", "2")] {
            let err = crate::dispatch(&argv(&[
                "audit",
                "--workers",
                &tmp.path_str(),
                "--function",
                "f1",
                &format!("--{flag}"),
                value,
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2);
            assert!(err.to_string().contains(&format!("`--{flag}`")), "{err}");
        }
    }

    #[test]
    fn alpha_and_algorithm_and_metric_flags() {
        let tmp = population();
        let out = run(&argv(&[
            "--workers",
            &tmp.path_str(),
            "--alpha",
            "0.5",
            "--algorithm",
            "unbalanced",
            "--metric",
            "tv",
            "--bins",
            "20",
        ]))
        .unwrap();
        assert!(out.contains("unbalanced"));
        assert!(out.contains("(avg pairwise tv)"), "{out}");
    }

    #[test]
    fn json_output() {
        let tmp = population();
        let out = run(&argv(&[
            "--workers",
            &tmp.path_str(),
            "--function",
            "f6",
            "--json",
        ]))
        .unwrap();
        assert!(out.trim_start().starts_with('{') && out.trim_end().ends_with('}'));
        assert!(out.contains("\"algorithm\":\"balanced\""));
        assert!(out.contains("\"unfairness\":"));
    }

    #[test]
    fn bad_flags_rejected() {
        let tmp = population();
        assert!(run(&argv(&["--workers", &tmp.path_str()])).is_err()); // no function
        assert!(run(&argv(&[
            "--workers",
            &tmp.path_str(),
            "--function",
            "f1",
            "--algorithm",
            "quantum"
        ]))
        .is_err());
        assert!(run(&argv(&[
            "--workers",
            &tmp.path_str(),
            "--function",
            "f1",
            "--metric",
            "cosine"
        ]))
        .is_err());
    }
}
