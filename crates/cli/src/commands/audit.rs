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
    "shards",
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
    let bins: usize = args.parsed_or("bins", 10)?;
    let metric = resolve_metric(args.optional("metric").unwrap_or("emd"))?;
    let permutations: usize = args.parsed_or("permutations", 0)?;

    let scores = scorer
        .score_all(&workers)
        .map_err(|e| CliError::Run(format!("scoring with {}: {e}", scorer.name())))?;
    let config = AuditConfig {
        bins,
        distance: metric,
        shards: crate::commands::parse_shards(&args)?,
        ..Default::default()
    };
    let ctx = AuditContext::new(&workers, &scores, config)
        .map_err(|e| CliError::Run(format!("audit setup: {e}")))?;
    let result = algorithm
        .run(&ctx)
        .map_err(|e| CliError::Run(format!("{}: {e}", algorithm.name())))?;

    if args.switch("json") {
        return Ok(format!("{}\n", result.to_json(&ctx)));
    }
    let mut out = format!("scoring function: {}\n", scorer.name());
    out.push_str(&result.render(&ctx, args.switch("histograms")));
    if permutations > 0 {
        let test = permutation_test(&ctx, &result.partitioning, permutations, seed)
            .map_err(|e| CliError::Run(format!("permutation test: {e}")))?;
        out.push_str(&format!(
            "permutation test ({} replicates): null mean {:.4}, null max {:.4}, p = {:.4}\n",
            test.replicates, test.null_mean, test.null_max, test.p_value
        ));
    }
    Ok(out)
}

/// The out-of-core path: stream the audit off a paged snapshot file
/// through a bounded page cache instead of loading the population.
/// Scores come from the file, so `--function`/`--alpha` do not apply;
/// results are bit-identical to the in-memory audit of the same
/// population at every `--mem-budget`.
fn run_paged(args: &Args, path: &str) -> Result<String, CliError> {
    let seed: u64 = args.parsed_or("seed", 0xBEEF)?;
    let algorithm = resolve_algorithm(args.optional("algorithm").unwrap_or("balanced"), seed)?;
    let bins: usize = args.parsed_or("bins", 10)?;
    let metric = resolve_metric(args.optional("metric").unwrap_or("emd"))?;
    let store = crate::commands::open_paged(path, crate::commands::parse_mem_budget(args)?)?;
    let config = AuditConfig {
        bins,
        distance: metric,
        shards: crate::commands::parse_shards(args)?,
        ..Default::default()
    };
    let ctx = AuditContext::from_paged(&store, config, None, None)
        .map_err(|e| CliError::Run(format!("audit setup: {e}")))?;
    let result = algorithm
        .run(&ctx)
        .map_err(|e| CliError::Run(format!("{}: {e}", algorithm.name())))?;
    if args.switch("json") {
        return Ok(format!("{}\n", result.to_json(&ctx)));
    }
    let mut out = format!("paged store: {path} ({} rows)\n", ctx.rows());
    out.push_str(&result.render(&ctx, args.switch("histograms")));
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
    /// with the default it meant to override.
    #[test]
    fn unknown_flag_is_a_usage_error_naming_it() {
        let tmp = population();
        let err = crate::dispatch(&argv(&[
            "audit",
            "--workers",
            &tmp.path_str(),
            "--function",
            "f1",
            "--algoritm",
            "unbalanced",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("`--algoritm`"), "{err}");
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
