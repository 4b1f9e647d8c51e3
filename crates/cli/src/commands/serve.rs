//! `fairjob serve` — start the resident audit daemon.
//!
//! Loads and scores a population exactly like `fairjob stream`, then
//! hands the [`fairjob_stream::StreamView`] to a
//! [`fairjob_serve::Server`] and blocks until the daemon drains
//! (`SHUTDOWN` from the wire, `--max-sessions` reached, or a listener
//! failure — which still drains every in-flight session before this
//! command returns an error, instead of aborting mid-request).
//!
//! The daemon audits its starting epoch before it listens. The bound
//! address is printed to stdout as soon as the listener is up (port 0
//! resolves to an ephemeral port) and, with `--addr-file`, also written
//! to a file so scripts can discover it without parsing output.

use crate::args::Args;
use crate::CliError;
use fairjob_core::AuditConfig;
use fairjob_serve::{ServeConfig, Server};
use fairjob_stream::StreamView;
use std::io::Write;
use std::sync::Arc;

/// The flags `fairjob serve` accepts; any other `--flag` is a usage error.
const FLAGS: &[&str] = &[
    "workers",
    "schema",
    "snapshot",
    "mem-budget",
    "function",
    "alpha",
    "algorithm",
    "bins",
    "metric",
    "addr",
    "addr-file",
    "max-inflight",
    "max-sessions",
    "seed",
];

/// Run the subcommand; blocks while the daemon serves and returns the
/// drain summary.
///
/// # Errors
///
/// [`CliError::Usage`] on bad flags, [`CliError::Io`] on unreadable
/// input, [`CliError::Run`] when the daemon stops on a listener
/// failure (after draining in-flight sessions).
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, FLAGS)?;
    let seed: u64 = args.parsed_or("seed", 0xBEEF)?;
    let algorithm: Arc<dyn fairjob_core::algorithms::Algorithm + Send + Sync> =
        crate::commands::audit::resolve_algorithm(
            args.optional("algorithm").unwrap_or("balanced"),
            seed,
        )?
        .into();
    let metric = crate::commands::audit::resolve_metric(args.optional("metric").unwrap_or("emd"))?;
    let addr = args.optional("addr").unwrap_or("127.0.0.1:0").to_string();
    let max_inflight: usize = args.parsed_or("max-inflight", 4)?;
    let max_sessions: Option<u64> = match args.optional("max-sessions") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| CliError::Usage(format!("cannot parse `--max-sessions {raw}`")))?,
        ),
    };
    let addr_file = args.optional("addr-file").map(str::to_string);

    // Cold-start from a paged snapshot file (the recorded epoch, no
    // event-log replay) or load + score a fresh population.
    let view = match args.optional("snapshot") {
        Some(path) => {
            let store =
                crate::commands::open_paged(path, crate::commands::parse_mem_budget(&args)?)?;
            StreamView::from_paged(&store)
                .map_err(|e| CliError::Run(format!("snapshot restore: {e}")))?
        }
        None => {
            let workers =
                crate::commands::load_workers(args.required("workers")?, args.optional("schema"))?;
            let scorer = crate::commands::resolve_scorer(
                args.optional("function"),
                args.optional("alpha"),
                seed,
            )?;
            let bins: usize = args.parsed_or("bins", 10)?;
            let scores = scorer
                .score_all(&workers)
                .map_err(|e| CliError::Run(format!("scoring with {}: {e}", scorer.name())))?;
            StreamView::new(workers, scores, bins)
                .map_err(|e| CliError::Run(format!("serve setup: {e}")))?
        }
    };
    // The daemon's audit config must match the view's maintained bin
    // layout — for a restored snapshot that is the writer's bin count,
    // not the `--bins` flag.
    let config = AuditConfig {
        bins: view.spec().len(),
        distance: metric,
        ..Default::default()
    };
    let live = view.live_count();
    let epoch = view.epoch();

    let server = Server::start(
        view,
        algorithm,
        config,
        ServeConfig {
            addr,
            max_inflight,
            max_sessions,
            seed,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| CliError::Run(format!("serve start: {e}")))?;

    // Announce the bound address eagerly — the summary string below is
    // only printed after the daemon drains.
    let bound = server.addr();
    println!("fairjob-serve listening on {bound} ({live} live workers, epoch {epoch})");
    let _ = std::io::stdout().flush();
    if let Some(path) = addr_file {
        std::fs::write(&path, format!("{bound}\n"))?;
    }

    let sessions = server
        .join()
        .map_err(|e| CliError::Run(format!("serve: {e}")))?;
    Ok(format!("serve: drained after {sessions} sessions\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::testutil::{argv, TempFile};
    use fairjob_serve::{protocol, ServeClient};
    use std::time::Duration;

    fn population(size: &str) -> TempFile {
        let csv = TempFile::new("serve.csv");
        crate::commands::generate::run(&argv(&[
            "--size",
            size,
            "--seed",
            "17",
            "--out",
            &csv.path_str(),
        ]))
        .unwrap();
        csv
    }

    #[test]
    fn serves_a_bounded_session_workload_end_to_end() {
        let csv = population("50");
        let addr_file = TempFile::new("serve.addr");
        let (csv_path, addr_path) = (csv.path_str(), addr_file.path_str());
        let daemon = std::thread::spawn(move || {
            run(&argv(&[
                "--workers",
                &csv_path,
                "--function",
                "f1",
                "--max-sessions",
                "1",
                "--addr-file",
                &addr_path,
            ]))
        });
        let addr = {
            let mut waited = 0;
            loop {
                if let Ok(text) = std::fs::read_to_string(&addr_file.0) {
                    if text.trim().parse::<std::net::SocketAddr>().is_ok() {
                        break text.trim().parse().unwrap();
                    }
                }
                waited += 1;
                assert!(waited < 500, "daemon never wrote its address");
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        let mut client = ServeClient::connect(addr).unwrap();
        let audit = client.audit().unwrap();
        assert_eq!(protocol::kv(&audit, "epoch"), Some("0"));
        assert_eq!(protocol::kv(&audit, "live"), Some("50"));
        client.quit();
        let summary = daemon.join().unwrap().unwrap();
        assert!(summary.contains("drained after 1 sessions"), "{summary}");
        let _ = (csv, addr_file);
    }

    /// Spawn a one-session daemon with `extra` flags appended, wait for
    /// its address file, and return (daemon handle, bound address).
    fn spawn_daemon(
        extra: Vec<String>,
        addr_file: &TempFile,
    ) -> (
        std::thread::JoinHandle<Result<String, CliError>>,
        std::net::SocketAddr,
    ) {
        let addr_path = addr_file.path_str();
        let daemon = std::thread::spawn(move || {
            let mut full = extra;
            full.extend(["--max-sessions".into(), "1".into()]);
            full.extend(["--addr-file".into(), addr_path]);
            run(&full)
        });
        let addr = {
            let mut waited = 0;
            loop {
                if let Ok(text) = std::fs::read_to_string(&addr_file.0) {
                    if let Ok(addr) = text.trim().parse::<std::net::SocketAddr>() {
                        break addr;
                    }
                }
                waited += 1;
                assert!(waited < 500, "daemon never wrote its address");
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        (daemon, addr)
    }

    /// Cold-starting from a paged snapshot is indistinguishable from a
    /// fresh boot over the same population: same epoch, same live
    /// count, and the first AUDIT returns the same unfairness bits —
    /// with no event replay and no CSV anywhere near the restored
    /// daemon.
    #[test]
    fn snapshot_restore_audits_bit_identically_to_fresh_boot() {
        let csv = population("60");
        let snapshot = TempFile::new("serve.fjp");
        crate::commands::snapshot::run(&argv(&[
            "--workers",
            &csv.path_str(),
            "--function",
            "f1",
            "--out",
            &snapshot.path_str(),
        ]))
        .unwrap();

        let audit_of = |extra: Vec<String>| {
            let addr_file = TempFile::new("serve.addr");
            let (daemon, addr) = spawn_daemon(extra, &addr_file);
            let mut client = ServeClient::connect(addr).unwrap();
            let audit = client.audit().unwrap();
            client.quit();
            daemon.join().unwrap().unwrap();
            audit
        };
        let fresh = audit_of(argv(&["--workers", &csv.path_str(), "--function", "f1"]));
        let restored = audit_of(argv(&["--snapshot", &snapshot.path_str()]));

        for key in ["epoch", "live", "unfairness_bits"] {
            assert_eq!(
                protocol::kv(&restored, key),
                protocol::kv(&fresh, key),
                "{key} diverged after snapshot restore:\nfresh:    {fresh}\nrestored: {restored}"
            );
        }
        assert_eq!(protocol::kv(&restored, "live"), Some("60"));
    }

    #[test]
    fn rejects_bad_flags_as_usage() {
        assert!(matches!(
            run(&argv(&[
                "--workers",
                "x.csv",
                "--function",
                "f1",
                "--max-sessions",
                "many"
            ])),
            Err(CliError::Io(_) | CliError::Usage(_))
        ));
        let csv = population("30");
        assert!(matches!(
            run(&argv(&[
                "--workers",
                &csv.path_str(),
                "--function",
                "f1",
                "--max-sessions",
                "many"
            ])),
            Err(CliError::Usage(_))
        ));
    }
}
