//! `fairjob snapshot` — write or inspect paged snapshot files.
//!
//! Write mode loads and scores a population exactly like
//! `fairjob serve`, builds the epoch-0 stream view, and persists it to
//! the paged columnar format (`--out`). The file is what
//! `fairjob serve --snapshot` cold-starts from and what
//! `fairjob audit --paged` / `fairjob query --paged` stream audits
//! over without materialising the population in memory.
//!
//! Info mode (`--info FILE`) prints the file's header facts — rows,
//! live count, epoch, bins, pages — without touching the data pages
//! beyond the directory.

use crate::args::Args;
use crate::CliError;
use fairjob_stream::{StreamError, StreamView};

/// The flags `fairjob snapshot` accepts; any other `--flag` is a usage error.
const FLAGS: &[&str] = &[
    "workers",
    "schema",
    "function",
    "alpha",
    "bins",
    "seed",
    "out",
    "info",
    "mem-budget",
];

/// Run the subcommand; returns a one-line summary (write) or the
/// header facts (info).
///
/// # Errors
///
/// [`CliError::Usage`] (exit 2) on bad flags, [`CliError::Io`] (exit
/// 3) on unreadable or unwritable files, [`CliError::Run`] (exit 4) on
/// corrupt files or scoring failures.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, FLAGS)?;
    if let Some(path) = args.optional("info") {
        return info(&args, path);
    }

    let workers =
        crate::commands::load_workers(args.required("workers")?, args.optional("schema"))?;
    let seed: u64 = args.parsed_or("seed", 0xBEEF)?;
    let scorer =
        crate::commands::resolve_scorer(args.optional("function"), args.optional("alpha"), seed)?;
    let bins: usize = args.parsed_or("bins", 10)?;
    let out = args.required("out")?;
    let scores = scorer
        .score_all(&workers)
        .map_err(|e| CliError::Run(format!("scoring with {}: {e}", scorer.name())))?;
    let view = StreamView::new(workers, scores, bins)
        .map_err(|e| CliError::Run(format!("snapshot setup: {e}")))?;
    let summary = view
        .snapshot()
        .write_paged(std::path::Path::new(out))
        .map_err(|e| match e {
            StreamError::Paged(fairjob_store::paged::PagedError::Io(io)) => CliError::Io(io),
            other => CliError::Run(format!("{out}: {other}")),
        })?;
    Ok(format!(
        "snapshot: wrote {} rows in {} pages ({} bytes) to {out}\n",
        summary.rows, summary.pages, summary.bytes
    ))
}

fn info(args: &Args, path: &str) -> Result<String, CliError> {
    let store = crate::commands::open_paged(path, crate::commands::parse_mem_budget(args)?)?;
    let live = store.live().map_or(store.rows(), |rows| rows.len());
    let mut out = format!("paged snapshot {path}\n");
    out.push_str(&format!("rows: {}\n", store.rows()));
    out.push_str(&format!("live: {live}\n"));
    out.push_str(&format!("epoch: {}\n", store.epoch()));
    out.push_str(&format!("bins: {}\n", store.bins()));
    out.push_str(&format!("scores: {}\n", store.has_scores()));
    out.push_str(&format!("pages: {}\n", store.directory_len()));
    out.push_str(&format!("columns: {}\n", store.schema().width()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::testutil::{argv, TempFile};

    fn population(size: &str) -> TempFile {
        let csv = TempFile::new("snapshot.csv");
        crate::commands::generate::run(&argv(&[
            "--size",
            size,
            "--seed",
            "21",
            "--out",
            &csv.path_str(),
        ]))
        .unwrap();
        csv
    }

    #[test]
    fn write_then_info_roundtrip() {
        let csv = population("90");
        let snap = TempFile::new("snapshot.fjp");
        let out = run(&argv(&[
            "--workers",
            &csv.path_str(),
            "--function",
            "f1",
            "--out",
            &snap.path_str(),
        ]))
        .unwrap();
        assert!(out.contains("wrote 90 rows"), "{out}");
        let info = run(&argv(&["--info", &snap.path_str()])).unwrap();
        assert!(info.contains("rows: 90"), "{info}");
        assert!(info.contains("live: 90"), "{info}");
        assert!(info.contains("epoch: 0"), "{info}");
        assert!(info.contains("scores: true"), "{info}");
    }

    #[test]
    fn exit_codes_by_failure_class() {
        // Usage (2): missing required flags.
        assert_eq!(run(&argv(&[])).unwrap_err().exit_code(), 2);
        let csv = population("20");
        assert_eq!(
            run(&argv(&["--workers", &csv.path_str(), "--function", "f1"]))
                .unwrap_err()
                .exit_code(),
            2,
            "missing --out is a usage error"
        );
        // Io (3): missing input files.
        assert_eq!(
            run(&argv(&["--info", "/nonexistent/x.fjp"]))
                .unwrap_err()
                .exit_code(),
            3
        );
        // Run (4): a file that exists but is not a paged snapshot.
        assert_eq!(
            run(&argv(&["--info", &csv.path_str()]))
                .unwrap_err()
                .exit_code(),
            4
        );
    }
}
