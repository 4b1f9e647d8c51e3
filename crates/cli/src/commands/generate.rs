//! `fairjob generate` — create a worker-population CSV.

use crate::args::Args;
use crate::CliError;
use fairjob_marketplace::stream::{generate_stream, StreamConfig};
use fairjob_marketplace::{generate_correlated, generate_uniform, CorrelationConfig};

/// The flags `fairjob generate` accepts; any other `--flag` is a usage error.
const FLAGS: &[&str] = &[
    "size",
    "seed",
    "correlated",
    "out",
    "events",
    "events-out",
    "epochs",
    "alpha",
];

/// Run the subcommand; returns the text to print.
///
/// # Errors
///
/// [`CliError`] on bad flags or file I/O.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, FLAGS)?;
    let size: usize = args.parsed_or("size", 0)?;
    if size == 0 {
        return Err(CliError::Usage("--size must be a positive integer".into()));
    }
    let seed: u64 = args.parsed_or("seed", 0xEDB7_2019)?;
    let out = args.required("out")?;
    let workers = if args.switch("correlated") {
        generate_correlated(size, seed, &CorrelationConfig::default())
    } else {
        generate_uniform(size, seed)
    };
    // Persist the raw (un-bucketised) population: derived bands are
    // recomputed on load so the CSV stays minimal and canonical.
    std::fs::write(out, fairjob_store::csv::to_csv(&workers))?;
    let mut message = format!(
        "wrote {size} {} workers to {out} (seed {seed})\n",
        if args.switch("correlated") {
            "correlated"
        } else {
            "uniform"
        }
    );

    // Optionally emit a matching event stream: same size and seed, so
    // the stream's implied epoch-0 state is exactly this population.
    let events_per_epoch: usize = args.parsed_or("events", 0)?;
    match args.optional("events-out") {
        None => {
            if events_per_epoch > 0 {
                return Err(CliError::Usage("--events needs --events-out FILE".into()));
            }
        }
        Some(events_out) => {
            if args.switch("correlated") {
                return Err(CliError::Usage(
                    "--events-out only supports uniform populations".into(),
                ));
            }
            if events_per_epoch == 0 {
                return Err(CliError::Usage(
                    "--events-out needs --events N (events per epoch)".into(),
                ));
            }
            let epochs: usize = args.parsed_or("epochs", 4)?;
            let alpha: f64 = args.parsed_or("alpha", 0.5)?;
            if !(0.0..=1.0).contains(&alpha) {
                return Err(CliError::Usage("--alpha must be in [0, 1]".into()));
            }
            let scenario = generate_stream(&StreamConfig {
                initial: size,
                epochs,
                events_per_epoch,
                seed,
                alpha,
            });
            std::fs::write(
                events_out,
                scenario.events.render(scenario.initial.schema()),
            )?;
            message.push_str(&format!(
                "wrote {} epochs x {events_per_epoch} events to {events_out} (alpha {alpha})\n",
                epochs
            ));
        }
    }
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::testutil::{argv, TempFile};

    #[test]
    fn generates_and_roundtrips() {
        let tmp = TempFile::new("gen.csv");
        let out = run(&argv(&[
            "--size",
            "25",
            "--seed",
            "3",
            "--out",
            &tmp.path_str(),
        ]))
        .unwrap();
        assert!(out.contains("25"));
        let loaded = crate::commands::load_workers(&tmp.path_str(), None).unwrap();
        assert_eq!(loaded.len(), 25);
        assert_eq!(loaded.schema().splittable().len(), 6);
    }

    #[test]
    fn correlated_switch() {
        let tmp = TempFile::new("gen-corr.csv");
        let out = run(&argv(&[
            "--size",
            "10",
            "--correlated",
            "--out",
            &tmp.path_str(),
        ]))
        .unwrap();
        assert!(out.contains("correlated"));
    }

    #[test]
    fn event_stream_roundtrip() {
        let csv = TempFile::new("gen-ev.csv");
        let evf = TempFile::new("gen-ev.events");
        let out = run(&argv(&[
            "--size",
            "30",
            "--seed",
            "9",
            "--out",
            &csv.path_str(),
            "--events",
            "4",
            "--epochs",
            "2",
            "--events-out",
            &evf.path_str(),
        ]))
        .unwrap();
        assert!(out.contains("2 epochs x 4 events"));
        let text = std::fs::read_to_string(&evf.0).unwrap();
        assert!(text.starts_with("fairjob-events v1"));
        // The events parse against the bucketised schema of the CSV.
        let loaded = crate::commands::load_workers(&csv.path_str(), None).unwrap();
        let log = fairjob_marketplace::stream::EventLog::parse(&text, loaded.schema()).unwrap();
        assert_eq!(log.epochs().len(), 2);
        assert_eq!(log.total_events(), 8);
    }

    #[test]
    fn event_flags_validated() {
        let csv = TempFile::new("gen-ev-bad.csv");
        let evf = TempFile::new("gen-ev-bad.events");
        // --events without --events-out
        assert!(run(&argv(&[
            "--size",
            "10",
            "--out",
            &csv.path_str(),
            "--events",
            "3"
        ]))
        .is_err());
        // --events-out without --events
        assert!(run(&argv(&[
            "--size",
            "10",
            "--out",
            &csv.path_str(),
            "--events-out",
            &evf.path_str()
        ]))
        .is_err());
        // correlated populations have no event generator
        assert!(run(&argv(&[
            "--size",
            "10",
            "--correlated",
            "--out",
            &csv.path_str(),
            "--events",
            "3",
            "--events-out",
            &evf.path_str()
        ]))
        .is_err());
    }

    #[test]
    fn size_required() {
        assert!(run(&argv(&["--out", "x.csv"])).is_err());
        assert!(run(&argv(&["--size", "0", "--out", "x.csv"])).is_err());
    }

    #[test]
    fn out_required() {
        assert!(run(&argv(&["--size", "5"])).is_err());
    }
}
