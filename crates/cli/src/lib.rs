//! `fairjob` — the command-line interface.
//!
//! Subcommands:
//!
//! * `generate` — create a worker population CSV (uniform or correlated).
//! * `describe` — per-attribute summary of a population CSV.
//! * `audit` — find the most-unfair partitioning for a scoring function.
//! * `query` — run FairQL statements (AUDIT/SELECT/DESCRIBE/EXPLAIN).
//! * `stream` — replay an event file, re-auditing incrementally each epoch.
//! * `serve` — resident audit daemon over TCP (`fairjob-serve v1`).
//! * `repair` — quantile-align scores against the audited partitioning.
//!
//! Run `fairjob help` (or any subcommand with `--help`) for usage. The
//! command logic lives in [`commands`]; [`args`] is the dependency-free
//! flag parser. Everything returns `Result<String, CliError>` so the
//! whole surface is unit-testable without spawning processes.

pub mod args;
pub mod commands;

use std::fmt;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line (unknown flag, missing value, unparsable number).
    Usage(String),
    /// File I/O failure.
    Io(std::io::Error),
    /// Any library-level failure, stringified with context.
    Run(String),
}

impl CliError {
    /// The process exit code for this failure class, so scripts can
    /// tell a typo (`2`) from a missing file (`3`) from a failed audit
    /// or serve run (`4`) without parsing stderr.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Run(_) => 4,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Run(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
fairjob — explore fairness of ranking in online job marketplaces (EDBT 2019)

USAGE:
  fairjob generate --size N [--seed S] [--correlated] --out FILE.csv
                   [--events N --events-out FILE [--epochs E] [--alpha A]]
  fairjob describe --workers FILE.csv [--schema FILE]
  fairjob audit    (--workers FILE.csv (--function f1..f9 | --alpha A)
                    | --paged FILE.fjp [--mem-budget BYTES])
                   [--algorithm balanced|unbalanced|r-balanced|r-unbalanced|all-attributes|subset-exact]
                   [--bins N] [--metric emd|emd-exact|tv|ks|jsd|hellinger|chi2]
                   [--permutations N] [--histograms] [--json] [--seed S]
  fairjob query    (--workers FILE.csv (--function f1..f9 | --alpha A)
                    | --paged FILE.fjp [--mem-budget BYTES])
                   [-e QUERY | --query QUERY | --file FILE.fql]
                   [--algorithm ...] [--metric ...] [--bins N]
                   [--threads N] [--seed S]
  fairjob snapshot --workers FILE.csv (--function f1..f9 | --alpha A)
                   [--bins N] [--seed S] --out FILE.fjp
  fairjob snapshot --info FILE.fjp
  fairjob stream   --workers FILE.csv --events FILE (--function f1..f9 | --alpha A)
                   [--algorithm ...] [--bins N] [--metric ...]
                   [--cold-check] [--json] [--seed S]
  fairjob serve    (--workers FILE.csv (--function f1..f9 | --alpha A)
                    | --snapshot FILE.fjp [--mem-budget BYTES])
                   [--algorithm ...] [--bins N] [--metric ...]
                   [--addr HOST:PORT] [--addr-file FILE]
                   [--max-inflight N] [--max-sessions N] [--seed S]
  fairjob repair   --workers FILE.csv (--function f1..f9 | --alpha A)
                   [--lambda L] [--target median|pooled] --out SCORES.csv [--seed S]
  fairjob rerank   --workers FILE.csv (--function f1..f9 | --alpha A)
                   [--attribute NAME] [--quota Q] [--top K] [--seed S]
  fairjob help

Scoring functions: f1..f5 are the paper's linear blends of the two
observed attributes (alpha = 0.5, 0.3, 0.7, 1.0, 0.0); f6..f9 are the
biased-by-design rule scorers of the qualitative experiment; --alpha A
builds a custom blend a*language_test + (1-a)*approval_rate.

`snapshot` persists a scored population to the paged columnar format
(64 KiB pages, per-page zone maps, buffer-managed reads). `audit
--paged` and `query --paged` stream audits through a bounded page
cache (--mem-budget, k/m/g suffixes, default 64m) — bit-identical to
the in-memory audit at every budget — and `serve --snapshot`
cold-starts the daemon from the file at its recorded epoch, no event
replay. `snapshot --info` prints a file's header facts.

`query --threads N` caps the audit's worker threads (default: the
machine's, at most 8). A pass over 65 536 or more rows runs one row
range per thread, at most nine. Results are bit-identical at every
thread count; only speed changes.

Every command reading --workers also accepts --schema FILE: a schema
descriptor (see fairjob_store::schema_text) describing a non-default
population layout; numeric protected attributes are auto-bucketised
into 5 bands. Without --schema the paper's AMT worker schema is assumed.

`serve` starts the resident audit daemon: a TCP server speaking the
line-delimited fairjob-serve v1 protocol (AUDIT, QUERY, EPOCH,
METRICS, HEALTH, STATS, PING, QUIT, SHUTDOWN). It audits the starting
epoch, then one writer session appends epochs, each audited by the
writer; AUDIT returns the writer's report on the published epoch;
--max-inflight bounds concurrent QUERYs (excess gets `ERR overloaded`).
--addr defaults to 127.0.0.1:0; the bound address is printed once the
start audit is done and, with --addr-file, written to a file for
scripts. --max-sessions serves a bounded number of sessions then
drains and exits.

`query` runs FairQL: `AUDIT workers [WHERE a = 'v' ...] [PROTECT cols]
[USING alg] [METRIC m] [BINS n]`, `SELECT ... FROM workers [GROUP BY
col] [LIMIT n]`, `DESCRIBE [col]`, and `EXPLAIN [ANALYZE] <stmt>`.
Statements come from -e/--query, --file, or stdin; defaults for
omitted USING/METRIC/BINS are the audit flags, so `query -e 'AUDIT
workers'` is bit-identical to `audit` with the same flags.

Exit codes: 0 success, 2 usage error (including FairQL parse and
analysis errors, reported with their byte offset), 3 I/O error,
4 run failure (including query execution failures).

`stream` replays a fairjob-events v1 file (generate one alongside a
population with `generate --events N --events-out FILE`): it audits the
initial population, then re-audits after every epoch of arrivals,
departures, score updates and profile edits, reusing the previous
epoch's engine caches via selective invalidation. --cold-check verifies
each incremental audit bit-for-bit against a from-scratch rebuild.
";

/// Dispatch a full argument vector (excluding `argv[0]`).
///
/// # Errors
///
/// [`CliError`] for bad usage or failed runs; the caller prints it and
/// exits non-zero.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let Some(command) = argv.first() else {
        return Err(CliError::Usage(format!("missing subcommand\n\n{USAGE}")));
    };
    let run: fn(&[String]) -> Result<String, CliError> = match command.as_str() {
        "generate" => commands::generate::run,
        "describe" => commands::describe::run,
        "audit" => commands::audit::run,
        "query" => commands::query::run,
        "stream" => commands::stream::run,
        "serve" => commands::serve::run,
        "snapshot" => commands::snapshot::run,
        "repair" => commands::repair::run,
        "rerank" => commands::rerank::run,
        "help" | "--help" | "-h" => return Ok(USAGE.to_string()),
        other => {
            return Err(CliError::Usage(format!(
                "unknown subcommand `{other}`\n\n{USAGE}"
            )))
        }
    };
    let rest = &argv[1..];
    if rest.iter().any(|arg| arg == "--help") {
        return Ok(USAGE.to_string());
    }
    run(rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_prints_usage() {
        let out = dispatch(&["help".to_string()]).unwrap();
        assert!(out.contains("fairjob generate"));
    }

    #[test]
    fn help_flag_on_a_subcommand_prints_usage() {
        let out = dispatch(&["audit".to_string(), "--help".to_string()]).unwrap();
        assert!(out.contains("fairjob audit"));
    }

    #[test]
    fn missing_subcommand_is_usage_error() {
        assert!(matches!(dispatch(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn exit_codes_distinguish_failure_classes() {
        assert_eq!(CliError::Usage("bad flag".into()).exit_code(), 2);
        assert_eq!(
            CliError::Io(std::io::Error::from(std::io::ErrorKind::NotFound)).exit_code(),
            3
        );
        assert_eq!(CliError::Run("audit failed".into()).exit_code(), 4);
    }

    #[test]
    fn missing_input_file_maps_to_io_exit_code() {
        let err = dispatch(&[
            "describe".to_string(),
            "--workers".to_string(),
            "/nonexistent/workers.csv".to_string(),
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn unknown_subcommand_is_usage_error() {
        let err = dispatch(&["frobnicate".to_string()]).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }
}
