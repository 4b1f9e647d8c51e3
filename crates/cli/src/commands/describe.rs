//! `fairjob describe` — per-attribute summary of a population CSV.

use crate::args::Args;
use crate::CliError;

/// The flags `fairjob describe` accepts; any other `--flag` is a usage error.
const FLAGS: &[&str] = &["workers", "schema"];

/// Run the subcommand; returns the description text.
///
/// # Errors
///
/// [`CliError`] on bad flags or unreadable input.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, FLAGS)?;
    let workers =
        crate::commands::load_workers(args.required("workers")?, args.optional("schema"))?;
    Ok(fairjob_store::stats::describe(&workers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::testutil::{argv, TempFile};

    #[test]
    fn describes_generated_population() {
        let tmp = TempFile::new("describe.csv");
        crate::commands::generate::run(&argv(&["--size", "30", "--out", &tmp.path_str()])).unwrap();
        let text = run(&argv(&["--workers", &tmp.path_str()])).unwrap();
        assert!(text.contains("30 rows"));
        assert!(text.contains("gender"));
        assert!(text.contains("yob_band"), "derived bands are described too");
    }

    #[test]
    fn workers_required() {
        assert!(run(&argv(&[])).is_err());
    }

    #[test]
    fn custom_schema_population() {
        // A non-AMT marketplace: drivers with a region and a rating.
        let schema_file = TempFile::new("drivers.schema");
        std::fs::write(
            &schema_file.0,
            "# drivers\nregion protected categorical North,South\nage protected integer 18 70\nrating observed numeric 1 5\n",
        )
        .unwrap();
        let csv_file = TempFile::new("drivers.csv");
        std::fs::write(
            &csv_file.0,
            "region,age,rating\nNorth,30,4.5\nSouth,55,3.2\n",
        )
        .unwrap();
        let text = run(&argv(&[
            "--workers",
            &csv_file.path_str(),
            "--schema",
            &schema_file.path_str(),
        ]))
        .unwrap();
        assert!(text.contains("2 rows"));
        assert!(text.contains("region"));
        assert!(
            text.contains("age_band"),
            "numeric protected attrs are auto-bucketised"
        );
    }
}
