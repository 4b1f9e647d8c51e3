//! `fairjob repair` — audit a scoring function, quantile-align its
//! scores against the found partitioning, and write the repaired scores.

use crate::args::Args;
use crate::CliError;
use fairjob_core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob_core::{AuditConfig, AuditContext};
use fairjob_repair::{repair_scores, RepairConfig, RepairTarget};
use fairjob_store::{Predicate, RowSet};

/// The flags `fairjob repair` accepts; any other `--flag` is a usage error.
const FLAGS: &[&str] = &[
    "workers", "schema", "function", "alpha", "lambda", "target", "out", "seed",
];

/// Run the subcommand; returns a summary line.
///
/// # Errors
///
/// [`CliError`] on bad flags or failed repair.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, FLAGS)?;
    let workers =
        crate::commands::load_workers(args.required("workers")?, args.optional("schema"))?;
    let seed: u64 = args.parsed_or("seed", 0xBEEF)?;
    let scorer =
        crate::commands::resolve_scorer(args.optional("function"), args.optional("alpha"), seed)?;
    let lambda: f64 = args.parsed_or("lambda", 1.0)?;
    let target = match args.optional("target").unwrap_or("median") {
        "median" => RepairTarget::Median,
        "pooled" => RepairTarget::Pooled,
        other => {
            return Err(CliError::Usage(format!(
                "unknown target `{other}` (median | pooled)"
            )))
        }
    };
    let out = args.required("out")?;

    let scores = scorer
        .score_all(&workers)
        .map_err(|e| CliError::Run(format!("scoring with {}: {e}", scorer.name())))?;
    let ctx = AuditContext::new(&workers, &scores, AuditConfig::default())
        .map_err(|e| CliError::Run(format!("audit setup: {e}")))?;
    let audit = Balanced::new(AttributeChoice::Worst)
        .run(&ctx)
        .map_err(|e| CliError::Run(format!("audit: {e}")))?;
    let groups: Vec<RowSet> = audit
        .partitioning
        .partitions()
        .iter()
        .map(|p| p.rows().clone())
        .collect();
    let repaired = repair_scores(&scores, &groups, &RepairConfig { lambda, target })
        .map_err(|e| CliError::Run(format!("repair: {e}")))?;

    // Residual unfairness of the audited partitioning under the new
    // scores.
    let rctx = AuditContext::new(&workers, &repaired, AuditConfig::default())
        .map_err(|e| CliError::Run(format!("re-audit setup: {e}")))?;
    let parts: Vec<_> = groups
        .iter()
        .map(|g| rctx.partition(Predicate::always(), g.clone()))
        .collect();
    let residual = rctx
        .unfairness(&parts)
        .map_err(|e| CliError::Run(format!("re-audit: {e}")))?;

    // Write one score per line, header `score`.
    let mut csv = String::from("score\n");
    for s in &repaired {
        csv.push_str(&format!("{s}\n"));
    }
    std::fs::write(out, csv)?;
    Ok(format!(
        "audited {} -> unfairness {:.4} on {} partitions; repaired (lambda {lambda}, {:?}) -> residual {:.4}; wrote {} scores to {out}",
        scorer.name(),
        audit.unfairness,
        audit.partitioning.len(),
        target,
        residual,
        repaired.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::testutil::{argv, TempFile};

    #[test]
    fn repairs_f6_to_near_zero_residual() {
        let workers = TempFile::new("repair-workers.csv");
        crate::commands::generate::run(&argv(&["--size", "200", "--out", &workers.path_str()]))
            .unwrap();
        let out = TempFile::new("repair-scores.csv");
        let summary = run(&argv(&[
            "--workers",
            &workers.path_str(),
            "--function",
            "f6",
            "--out",
            &out.path_str(),
        ]))
        .unwrap();
        assert!(summary.contains("residual 0.0"), "{summary}");
        let written = std::fs::read_to_string(out.0.clone()).unwrap();
        assert_eq!(written.lines().count(), 201); // header + 200 scores
        assert_eq!(written.lines().next(), Some("score"));
    }

    #[test]
    fn lambda_and_target_flags() {
        let workers = TempFile::new("repair-w2.csv");
        crate::commands::generate::run(&argv(&["--size", "80", "--out", &workers.path_str()]))
            .unwrap();
        let out = TempFile::new("repair-s2.csv");
        let summary = run(&argv(&[
            "--workers",
            &workers.path_str(),
            "--function",
            "f7",
            "--lambda",
            "0.5",
            "--target",
            "pooled",
            "--out",
            &out.path_str(),
        ]))
        .unwrap();
        assert!(summary.contains("lambda 0.5"));
        assert!(summary.contains("Pooled"));
        // Bad target rejected.
        assert!(run(&argv(&[
            "--workers",
            &workers.path_str(),
            "--function",
            "f7",
            "--target",
            "average",
            "--out",
            &out.path_str(),
        ]))
        .is_err());
    }
}
