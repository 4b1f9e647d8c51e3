//! `fairjob query` — run FairQL statements against a population CSV.
//!
//! The query text comes from `-e`/`--query` (one-shot), `--file`, or
//! stdin (when neither is given). Session defaults for `AUDIT`
//! statements that omit `USING`/`METRIC`/`BINS` come from the same
//! flags `fairjob audit` takes, so
//! `fairjob query -e 'AUDIT workers'` is bit-identical to
//! `fairjob audit` with the same flags.
//!
//! Failure classes map to the CLI's exit codes: a FairQL parse or
//! analysis error is a usage error (exit 2, with the byte offset), an
//! unreadable file is an I/O error (exit 3), and an execution failure
//! is a run error (exit 4).

use crate::args::Args;
use crate::CliError;
use fairjob_fairql::{Defaults, QueryError, Session, Source};
use std::io::Read;
use std::sync::Arc;

fn map_query_error(e: QueryError) -> CliError {
    match e {
        QueryError::Parse { offset, message } => {
            CliError::Usage(format!("parse error at byte {offset}: {message}"))
        }
        QueryError::Exec(message) => CliError::Run(format!("query failed: {message}")),
    }
}

/// Rewrite the short `-e QUERY` spelling to `--query QUERY` so the
/// flag parser (which only knows `--` flags) accepts it.
fn expand_short_flags(argv: &[String]) -> Vec<String> {
    argv.iter()
        .map(|a| {
            if a == "-e" {
                "--query".to_string()
            } else {
                a.clone()
            }
        })
        .collect()
}

/// The flags `fairjob query` accepts; any other `--flag` is a usage error.
const FLAGS: &[&str] = &[
    "workers",
    "schema",
    "paged",
    "mem-budget",
    "function",
    "alpha",
    "query",
    "file",
    "algorithm",
    "metric",
    "bins",
    "threads",
    "seed",
];

/// Run the subcommand; returns the rendered outputs of every statement.
///
/// # Errors
///
/// [`CliError::Usage`] (exit 2) on bad flags or FairQL parse/analysis
/// errors, [`CliError::Io`] (exit 3) on unreadable inputs,
/// [`CliError::Run`] (exit 4) on execution failures.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(&expand_short_flags(argv), FLAGS)?;
    let seed: u64 = args.parsed_or("seed", 0xBEEF)?;
    // Paged sources bring their own scores; batch sources load + score.
    let paged = match args.optional("paged") {
        Some(path) => Some(crate::commands::open_paged(
            path,
            crate::commands::parse_mem_budget(&args)?,
        )?),
        None => None,
    };
    let workers;
    let scores;
    let source = match &paged {
        Some(store) => Source::Paged(store),
        None => {
            workers =
                crate::commands::load_workers(args.required("workers")?, args.optional("schema"))?;
            let scorer = crate::commands::resolve_scorer(
                args.optional("function"),
                args.optional("alpha"),
                seed,
            )?;
            scores = scorer
                .score_all(&workers)
                .map_err(|e| CliError::Run(format!("scoring with {}: {e}", scorer.name())))?;
            Source::Batch {
                table: &workers,
                scores: &scores,
            }
        }
    };

    let text = match (args.optional("query"), args.optional("file")) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "give either --query/-e or --file, not both".into(),
            ))
        }
        (Some(q), None) => q.to_string(),
        (None, Some(path)) => std::fs::read_to_string(path)?,
        (None, None) => {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf)?;
            buf
        }
    };

    let defaults = Defaults {
        algorithm: Arc::from(super::audit::resolve_algorithm(
            args.optional("algorithm").unwrap_or("balanced"),
            seed,
        )?),
        metric: super::audit::resolve_metric(args.optional("metric").unwrap_or("emd"))?,
        bins: args.parsed_or("bins", 10)?,
        seed,
        threads: match args.optional("threads") {
            None => None,
            Some(_) => Some(args.parsed_or("threads", 0usize)?),
        },
    };
    let mut session = Session::new(source, defaults).map_err(map_query_error)?;

    let outputs = session.execute(&text).map_err(map_query_error)?;
    let mut out = String::new();
    for output in &outputs {
        out.push_str(&output.render());
        if !out.ends_with('\n') {
            out.push('\n');
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::testutil::{argv, TempFile};

    fn population() -> TempFile {
        let tmp = TempFile::new("query.csv");
        crate::commands::generate::run(&argv(&["--size", "150", "--out", &tmp.path_str()]))
            .unwrap();
        tmp
    }

    #[test]
    fn one_shot_audit_matches_direct_audit_bits() {
        use fairjob_core::{algorithms, AuditConfig, AuditContext};
        use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};

        let tmp = population();
        // The same population, scorer and defaults through the direct
        // audit path (what `fairjob audit` runs).
        let workers = crate::commands::load_workers(&tmp.path_str(), None).unwrap();
        let scores = LinearScore::alpha("f1", 0.5).score_all(&workers).unwrap();
        let ctx = AuditContext::new(&workers, &scores, AuditConfig::default()).unwrap();
        let direct = algorithms::by_name("balanced", 0xBEEF)
            .unwrap()
            .run(&ctx)
            .unwrap();

        let out = run(&argv(&[
            "--workers",
            &tmp.path_str(),
            "--function",
            "f1",
            "-e",
            "AUDIT workers",
        ]))
        .unwrap();
        assert!(
            out.contains(&format!(
                "unfairness_bits={:016x}",
                direct.unfairness.to_bits()
            )),
            "query bits diverged from the direct audit:\n{out}"
        );
    }

    #[test]
    fn select_and_describe_render_rows() {
        let tmp = population();
        let out = run(&argv(&[
            "--workers",
            &tmp.path_str(),
            "--function",
            "f1",
            "-e",
            "SELECT gender, COUNT(*) FROM workers GROUP BY gender; DESCRIBE gender",
        ]))
        .unwrap();
        assert!(out.contains("gender\tcount"), "{out}");
        assert!(out.contains("cardinality"), "{out}");
    }

    #[test]
    fn query_file_flag_reads_statements() {
        let tmp = population();
        let script = TempFile::new("script.fql");
        std::fs::write(&script.0, "EXPLAIN AUDIT workers WHERE country = 'India'\n").unwrap();
        let out = run(&argv(&[
            "--workers",
            &tmp.path_str(),
            "--function",
            "f1",
            "--file",
            &script.path_str(),
        ]))
        .unwrap();
        assert!(out.contains("IndexScan"), "{out}");
    }

    #[test]
    fn error_classes_map_to_exit_codes() {
        let tmp = population();
        let path = tmp.path_str();
        let base = ["--workers", &path, "--function", "f1"];
        let with = |extra: &[&str]| {
            let mut full: Vec<&str> = base.to_vec();
            full.extend_from_slice(extra);
            run(&argv(&full)).unwrap_err()
        };

        let parse = with(&["-e", "FROB workers"]);
        assert_eq!(parse.exit_code(), 2);
        assert!(parse.to_string().contains("byte 0"), "{parse}");

        // Analysis errors (bad value, contradictory filter) are parse
        // errors too: the query itself is wrong.
        assert_eq!(
            with(&["-e", "AUDIT workers WHERE gender = 'Robot'"]).exit_code(),
            2
        );
        assert_eq!(
            with(&[
                "-e",
                "AUDIT workers WHERE gender = 'Male' AND gender = 'Female'"
            ])
            .exit_code(),
            2
        );

        assert_eq!(with(&["--file", "/nonexistent/x.fql"]).exit_code(), 3);
        assert_eq!(with(&["-e", "DESCRIBE", "--file", "x.fql"]).exit_code(), 2);
    }

    #[test]
    fn execution_failures_map_to_run_exit_code() {
        let err = map_query_error(QueryError::Exec("WHERE matches no rows".into()));
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("query failed"));
    }
}
