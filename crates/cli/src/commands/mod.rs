//! Subcommand implementations.

pub mod audit;
pub mod describe;
pub mod generate;
pub mod query;
pub mod repair;
pub mod rerank;
pub mod serve;
pub mod snapshot;
pub mod stream;

use crate::args::Args;
use crate::CliError;
use fairjob_marketplace::scoring::{LinearScore, RuleBasedScore, ScoringFunction};
use fairjob_store::Table;

/// Load a worker population CSV and bucketise its numeric protected
/// attributes so they are splittable. With `schema_path = None` the
/// paper's AMT schema is assumed; otherwise the schema descriptor file
/// (see `fairjob_store::schema_text`) defines the layout.
pub(crate) fn load_workers(path: &str, schema_path: Option<&str>) -> Result<Table, CliError> {
    let text = std::fs::read_to_string(path)?;
    let schema = match schema_path {
        None => fairjob_marketplace::amt_schema(),
        Some(sp) => {
            let schema_text = std::fs::read_to_string(sp)?;
            fairjob_store::schema_text::from_text(&schema_text)
                .map_err(|e| CliError::Run(format!("{sp}: {e}")))?
        }
    };
    let mut table = fairjob_store::csv::from_csv(schema, &text)
        .map_err(|e| CliError::Run(format!("{path}: {e}")))?;
    if table.is_empty() {
        return Err(CliError::Run(format!("{path}: no rows")));
    }
    match schema_path {
        // The AMT wrapper keeps the paper's stable band names.
        None => fairjob_marketplace::bucketise_numeric_protected(&mut table)
            .map_err(|e| CliError::Run(format!("bucketise: {e}")))?,
        Some(_) => {
            fairjob_store::bucketize::bucketize_all_protected(&mut table, 5)
                .map_err(|e| CliError::Run(format!("bucketise: {e}")))?;
        }
    }
    Ok(table)
}

/// Parse a byte count with an optional binary `k`/`m`/`g` suffix
/// (`64m` = 64 MiB).
pub(crate) fn parse_bytes(raw: &str) -> Option<usize> {
    let lower = raw.trim().to_ascii_lowercase();
    let (digits, unit) = match lower.chars().last()? {
        'k' => (&lower[..lower.len() - 1], 1usize << 10),
        'm' => (&lower[..lower.len() - 1], 1 << 20),
        'g' => (&lower[..lower.len() - 1], 1 << 30),
        _ => (lower.as_str(), 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(unit)
}

/// Resolve `--mem-budget` — the paged buffer manager's cache cap in
/// bytes, `k`/`m`/`g` suffixes accepted. Default 64 MiB. Audits stay
/// bit-identical under every budget; the knob only trades memory for
/// page re-reads.
pub(crate) fn parse_mem_budget(args: &Args) -> Result<usize, CliError> {
    match args.optional("mem-budget") {
        None => Ok(64 << 20),
        Some(raw) => parse_bytes(raw).ok_or_else(|| {
            CliError::Usage(format!(
                "cannot parse `--mem-budget {raw}` (bytes, with k/m/g suffixes)"
            ))
        }),
    }
}

/// Open a paged store file, mapping failures to the CLI's exit
/// classes: unreadable file → I/O (exit 3), corrupt file → run
/// failure (exit 4).
pub(crate) fn open_paged(path: &str, budget: usize) -> Result<fairjob_store::PagedStore, CliError> {
    fairjob_store::PagedStore::open(std::path::Path::new(path), budget).map_err(|e| match e {
        fairjob_store::paged::PagedError::Io(io) => CliError::Io(io),
        other => CliError::Run(format!("{path}: {other}")),
    })
}

/// Resolve `--function`/`--alpha` into a scoring function.
pub(crate) fn resolve_scorer(
    function: Option<&str>,
    alpha: Option<&str>,
    seed: u64,
) -> Result<Box<dyn ScoringFunction>, CliError> {
    match (function, alpha) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "give either --function or --alpha, not both".into(),
        )),
        (None, None) => Err(CliError::Usage("need --function or --alpha".into())),
        (None, Some(raw)) => {
            let a: f64 = raw
                .parse()
                .map_err(|_| CliError::Usage(format!("cannot parse `--alpha {raw}`")))?;
            if !(0.0..=1.0).contains(&a) {
                return Err(CliError::Usage("--alpha must be in [0, 1]".into()));
            }
            Ok(Box::new(LinearScore::alpha(&format!("alpha-{a}"), a)))
        }
        (Some(name), None) => match name {
            "f1" => Ok(Box::new(LinearScore::alpha("f1", 0.5))),
            "f2" => Ok(Box::new(LinearScore::alpha("f2", 0.3))),
            "f3" => Ok(Box::new(LinearScore::alpha("f3", 0.7))),
            "f4" => Ok(Box::new(LinearScore::alpha("f4", 1.0))),
            "f5" => Ok(Box::new(LinearScore::alpha("f5", 0.0))),
            "f6" => Ok(Box::new(RuleBasedScore::f6(seed))),
            "f7" => Ok(Box::new(RuleBasedScore::f7(seed))),
            "f8" => Ok(Box::new(RuleBasedScore::f8(seed))),
            "f9" => Ok(Box::new(RuleBasedScore::f9(seed))),
            other => Err(CliError::Usage(format!(
                "unknown function `{other}` (f1..f9)"
            ))),
        },
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Per-process sequence number: tests run in parallel threads of one
    /// process, so the pid alone would let two tests asking for the same
    /// name share (and delete) one file.
    static NEXT: AtomicU64 = AtomicU64::new(0);

    /// A scratch file path in the target-adjacent temp dir, unique per
    /// instance; removed on drop.
    pub struct TempFile(pub std::path::PathBuf);

    impl TempFile {
        pub fn new(name: &str) -> Self {
            let seq = NEXT.fetch_add(1, Ordering::Relaxed);
            let mut path = std::env::temp_dir();
            path.push(format!(
                "fairjob-cli-test-{}-{seq}-{name}",
                std::process::id()
            ));
            TempFile(path)
        }

        pub fn path_str(&self) -> String {
            self.0.to_string_lossy().into_owned()
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    pub fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_scorer_matrix() {
        assert!(resolve_scorer(None, None, 0).is_err());
        assert!(resolve_scorer(Some("f1"), Some("0.5"), 0).is_err());
        assert!(resolve_scorer(Some("f99"), None, 0).is_err());
        assert!(resolve_scorer(None, Some("nan"), 0).is_err());
        assert!(resolve_scorer(None, Some("1.5"), 0).is_err());
        assert_eq!(resolve_scorer(Some("f6"), None, 0).unwrap().name(), "f6");
        assert_eq!(
            resolve_scorer(None, Some("0.25"), 0).unwrap().name(),
            "alpha-0.25"
        );
    }

    #[test]
    fn temp_files_with_one_name_get_distinct_paths() {
        let a = testutil::TempFile::new("x");
        let b = testutil::TempFile::new("x");
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn load_workers_reports_missing_file() {
        assert!(matches!(
            load_workers("/nonexistent/x.csv", None),
            Err(CliError::Io(_))
        ));
    }
}
