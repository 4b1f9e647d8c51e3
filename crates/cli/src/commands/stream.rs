//! `fairjob stream` — replay an event file over a worker population,
//! re-auditing incrementally after every epoch.
//!
//! The command loads a population CSV (the epoch-0 state), scores it,
//! parses a `fairjob-events v1` file against the loaded schema, and
//! drives a [`StreamAuditor`]: one initial warm-up audit, then one
//! incremental audit per epoch with selective cache invalidation.
//! `--cold-check` additionally rebuilds the live population from
//! scratch after each epoch and verifies the warm result is
//! bit-identical.

use crate::args::Args;
use crate::CliError;
use fairjob_core::AuditConfig;
use fairjob_marketplace::stream::EventLog;
use fairjob_stream::{same_partitioning, EpochReport, StreamAuditor, StreamView};

fn render_epoch(report: &EpochReport, initial: bool, checked: bool) -> String {
    let mut out = if initial {
        format!(
            "epoch {} (initial): live {}",
            report.epoch, report.live_workers
        )
    } else {
        format!(
            "epoch {}: {} events, {} row changes, live {}\n  invalidation: distances {} evicted / {} retained",
            report.epoch,
            report.events,
            report.changes,
            report.live_workers,
            report.invalidation.distances_evicted,
            report.invalidation.distances_retained,
        )
    };
    out.push_str(&format!(
        "\n  engine: {} distances computed, {} cache hits, {} rows scanned\n  bounds: {} pairs screened, {} exact solves, {} pool tasks\n  solver: {} ground cache hits, {} scratch reuses, {} warm starts\n  unfairness {:.6} over {} partitions\n",
        report.audit.engine.distances_computed,
        report.audit.engine.cache_hits,
        report.audit.engine.rows_scanned,
        report.audit.engine.bounds_screened,
        report.audit.engine.exact_solves,
        report.audit.engine.pool_tasks,
        report.audit.engine.ground_cache_hits,
        report.audit.engine.scratch_reuses,
        report.audit.engine.warm_starts,
        report.audit.unfairness,
        report.audit.partitioning.partitions().len(),
    ));
    if checked {
        out.push_str("  cold check: ok (bit-identical to cold rebuild)\n");
    }
    out
}

fn json_epoch(report: &EpochReport) -> String {
    format!(
        "{{\"epoch\":{},\"events\":{},\"changes\":{},\"live\":{},\"unfairness\":{},\"partitions\":{},\
\"invalidation\":{{\"distances_evicted\":{},\"distances_retained\":{}}},\
\"engine\":{{\"distances_computed\":{},\"cache_hits\":{},\"rows_scanned\":{},\"bounds_screened\":{},\"exact_solves\":{},\"pool_tasks\":{},\"ground_cache_hits\":{},\"scratch_reuses\":{},\"warm_starts\":{}}}}}",
        report.epoch,
        report.events,
        report.changes,
        report.live_workers,
        report.audit.unfairness,
        report.audit.partitioning.partitions().len(),
        report.invalidation.distances_evicted,
        report.invalidation.distances_retained,
        report.audit.engine.distances_computed,
        report.audit.engine.cache_hits,
        report.audit.engine.rows_scanned,
        report.audit.engine.bounds_screened,
        report.audit.engine.exact_solves,
        report.audit.engine.pool_tasks,
        report.audit.engine.ground_cache_hits,
        report.audit.engine.scratch_reuses,
        report.audit.engine.warm_starts,
    )
}

/// The flags `fairjob stream` accepts; any other `--flag` is a usage error.
const FLAGS: &[&str] = &[
    "workers",
    "schema",
    "events",
    "function",
    "alpha",
    "algorithm",
    "bins",
    "metric",
    "cold-check",
    "json",
    "seed",
];

/// Run the subcommand; returns the replay report.
///
/// # Errors
///
/// [`CliError`] on bad flags, unreadable or unparsable input, event
/// application failures, or a failed `--cold-check`.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, FLAGS)?;
    let workers =
        crate::commands::load_workers(args.required("workers")?, args.optional("schema"))?;
    let events_path = args.required("events")?;
    let seed: u64 = args.parsed_or("seed", 0xBEEF)?;
    let scorer =
        crate::commands::resolve_scorer(args.optional("function"), args.optional("alpha"), seed)?;
    let algorithm = crate::commands::audit::resolve_algorithm(
        args.optional("algorithm").unwrap_or("balanced"),
        seed,
    )?;
    let bins: usize = args.parsed_or("bins", 10)?;
    let metric = crate::commands::audit::resolve_metric(args.optional("metric").unwrap_or("emd"))?;
    let cold_check = args.switch("cold-check");

    let scores = scorer
        .score_all(&workers)
        .map_err(|e| CliError::Run(format!("scoring with {}: {e}", scorer.name())))?;
    let events_text = std::fs::read_to_string(events_path)?;
    let log = EventLog::parse(&events_text, workers.schema())
        .map_err(|e| CliError::Run(format!("{events_path}: {e}")))?;

    let config = AuditConfig {
        bins,
        distance: metric,
        ..Default::default()
    };
    let view = StreamView::new(workers, scores, bins)
        .map_err(|e| CliError::Run(format!("stream setup: {e}")))?;
    let mut auditor = StreamAuditor::new(view, config)
        .map_err(|e| CliError::Run(format!("stream setup: {e}")))?;

    let verify = |auditor: &StreamAuditor, report: &EpochReport| -> Result<(), CliError> {
        if !cold_check {
            return Ok(());
        }
        let cold = auditor
            .cold_audit(&*algorithm)
            .map_err(|e| CliError::Run(format!("cold check epoch {}: {e}", report.epoch)))?;
        if !same_partitioning(&report.audit.partitioning, &cold.partitioning)
            || report.audit.unfairness.to_bits() != cold.unfairness.to_bits()
        {
            return Err(CliError::Run(format!(
                "cold check failed at epoch {}: incremental unfairness {} != cold rebuild {}",
                report.epoch, report.audit.unfairness, cold.unfairness
            )));
        }
        Ok(())
    };

    let mut reports = Vec::with_capacity(log.epochs().len() + 1);
    let initial = auditor
        .audit(&*algorithm)
        .map_err(|e| CliError::Run(format!("initial audit: {e}")))?;
    verify(&auditor, &initial)?;
    reports.push(initial);
    for events in log.epochs() {
        let report = auditor
            .run_epoch(events, &*algorithm)
            .map_err(|e| CliError::Run(format!("epoch replay: {e}")))?;
        verify(&auditor, &report)?;
        reports.push(report);
    }

    if args.switch("json") {
        let epochs: Vec<String> = reports.iter().map(json_epoch).collect();
        return Ok(format!(
            "{{\"algorithm\":\"{}\",\"function\":\"{}\",\"cold_checked\":{},\"epochs\":[{}]}}\n",
            algorithm.name(),
            scorer.name(),
            cold_check,
            epochs.join(",")
        ));
    }

    let mut out = format!(
        "stream audit: {} with {} over {} epochs ({} events)\n",
        algorithm.name(),
        scorer.name(),
        log.epochs().len(),
        log.total_events()
    );
    for (i, report) in reports.iter().enumerate() {
        out.push_str(&render_epoch(report, i == 0, cold_check));
    }
    let last = reports.last().expect("at least the initial audit");
    out.push_str(&format!(
        "final: {} live workers, unfairness {:.6}\n",
        last.live_workers, last.audit.unfairness
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::testutil::{argv, TempFile};

    /// A raw population CSV plus a matching event file, generated at the
    /// same size/seed so the event stream's implied initial state equals
    /// the CSV after bucketisation.
    fn scenario(size: &str, events: &str, epochs: &str) -> (TempFile, TempFile) {
        let csv = TempFile::new("stream.csv");
        let evf = TempFile::new("stream.events");
        crate::commands::generate::run(&argv(&[
            "--size",
            size,
            "--seed",
            "11",
            "--out",
            &csv.path_str(),
            "--events",
            events,
            "--epochs",
            epochs,
            "--events-out",
            &evf.path_str(),
        ]))
        .unwrap();
        (csv, evf)
    }

    #[test]
    fn replays_and_cold_checks() {
        let (csv, evf) = scenario("90", "5", "3");
        let out = run(&argv(&[
            "--workers",
            &csv.path_str(),
            "--events",
            &evf.path_str(),
            "--alpha",
            "0.5",
            "--cold-check",
        ]))
        .unwrap();
        assert!(out.contains("stream audit: balanced"));
        assert!(out.contains("epoch 0 (initial): live 90"));
        assert!(out.contains("epoch 3:"));
        assert!(out.contains("invalidation: distances"));
        assert!(out.contains("solver: "));
        assert!(out.contains("ground cache hits"));
        assert_eq!(out.matches("cold check: ok").count(), 4);
        assert!(out.contains("final:"));
    }

    #[test]
    fn json_output_structure() {
        let (csv, evf) = scenario("70", "4", "2");
        let out = run(&argv(&[
            "--workers",
            &csv.path_str(),
            "--events",
            &evf.path_str(),
            "--function",
            "f1",
            "--json",
        ]))
        .unwrap();
        assert!(out.trim_start().starts_with('{') && out.trim_end().ends_with('}'));
        assert!(out.contains("\"algorithm\":\"balanced\""));
        assert!(out.contains("\"function\":\"f1\""));
        assert!(out.contains("\"cold_checked\":false"));
        assert!(out.contains("\"epoch\":2"));
        assert!(out.contains("\"invalidation\":{\"distances_evicted\":"));
        assert!(out.contains("\"ground_cache_hits\":"));
        assert!(out.contains("\"scratch_reuses\":"));
        assert!(out.contains("\"warm_starts\":"));
    }

    #[test]
    fn bad_event_file_rejected() {
        let (csv, _) = scenario("40", "3", "1");
        let bad = TempFile::new("bad.events");
        std::fs::write(&bad.0, "not-an-event-file\n").unwrap();
        let err = run(&argv(&[
            "--workers",
            &csv.path_str(),
            "--events",
            &bad.path_str(),
            "--function",
            "f1",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn events_flag_required() {
        let (csv, _) = scenario("40", "3", "1");
        assert!(run(&argv(&["--workers", &csv.path_str(), "--function", "f1"])).is_err());
    }
}
