//! End-to-end tests of the resident daemon: protocol round trips,
//! concurrent-reader determinism against offline cold audits,
//! admission control, writer exclusivity/poisoning, bounded request
//! lines and epoch payloads, and clean drain.

use fairjob_core::algorithms::balanced::Balanced;
use fairjob_core::algorithms::{Algorithm, AttributeChoice};
use fairjob_core::{AuditConfig, AuditContext, EngineStats};
use fairjob_marketplace::stream::{generate_stream, Event, StreamConfig};
use fairjob_serve::{protocol, ServeClient, ServeConfig, ServeError, Server};
use fairjob_store::schema::Schema;
use fairjob_stream::{StreamAuditor, StreamView};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const BINS: usize = 10;

struct Scenario {
    view: StreamView,
    epochs: Vec<Vec<Event>>,
    schema: Schema,
}

fn scenario(initial: usize, epochs: usize, seed: u64) -> Scenario {
    let generated = generate_stream(&StreamConfig {
        initial,
        epochs,
        events_per_epoch: 8,
        seed,
        alpha: 0.5,
    });
    let schema = generated.initial.schema().clone();
    let view = StreamView::new(generated.initial, generated.scores, BINS).unwrap();
    Scenario {
        view,
        epochs: generated.events.epochs().to_vec(),
        schema,
    }
}

fn algorithm() -> Arc<dyn Algorithm + Send + Sync> {
    Arc::new(Balanced::new(AttributeChoice::Worst))
}

fn config() -> AuditConfig {
    AuditConfig::with_bins(BINS)
}

/// Offline cold-audit unfairness bits for epoch 0 and after each of
/// `epochs` — the ground truth readers must match bit-for-bit.
fn cold_bits_per_epoch(scn: &Scenario) -> Vec<u64> {
    let algorithm = algorithm();
    let mut view = scn.view.clone();
    let mut expected = Vec::with_capacity(scn.epochs.len() + 1);
    let cold = |view: &StreamView| {
        let (table, scores) = view.compact().unwrap();
        let ctx = AuditContext::new(&table, &scores, config()).unwrap();
        algorithm.run(&ctx).unwrap().unfairness.to_bits()
    };
    expected.push(cold(&view));
    for events in &scn.epochs {
        view.apply_epoch(events).unwrap();
        expected.push(cold(&view));
    }
    expected
}

fn start(scn: &Scenario, serve: ServeConfig) -> Server {
    Server::start(scn.view.clone(), algorithm(), config(), serve).unwrap()
}

#[test]
fn end_to_end_session_round_trip() {
    let scn = scenario(60, 2, 11);
    let expected = cold_bits_per_epoch(&scn);
    let server = start(&scn, ServeConfig::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();

    assert_eq!(client.request("PING").unwrap(), "OK pong");

    let health = client.request("HEALTH").unwrap();
    assert_eq!(protocol::kv(&health, "status"), Some("ok"));
    assert_eq!(protocol::kv(&health, "epoch"), Some("0"));
    assert_eq!(protocol::kv(&health, "writer"), Some("ok"));

    let audit = client.audit().unwrap();
    assert_eq!(protocol::kv(&audit, "epoch"), Some("0"));
    let bits = protocol::kv(&audit, "unfairness_bits").unwrap();
    assert_eq!(
        protocol::parse_f64_bits(bits).unwrap().to_bits(),
        expected[0],
        "epoch-0 audit must match the offline cold audit bit-for-bit"
    );

    for (k, events) in scn.epochs.iter().enumerate() {
        let reply = client.epoch(events, &scn.schema).unwrap();
        assert_eq!(
            protocol::kv(&reply, "epoch"),
            Some(format!("{}", k + 1).as_str())
        );
        let audit = client.audit().unwrap();
        let bits = protocol::kv(&audit, "unfairness_bits").unwrap();
        assert_eq!(
            protocol::parse_f64_bits(bits).unwrap().to_bits(),
            expected[k + 1],
            "epoch-{} audit diverges from the cold rebuild",
            k + 1
        );
    }

    let metrics = client.request("METRICS").unwrap();
    assert_eq!(protocol::kv(&metrics, "epochs_applied"), Some("2"));
    assert_eq!(protocol::kv(&metrics, "epoch"), Some("2"));
    let audits_ok: u64 = protocol::kv(&metrics, "audits_ok")
        .unwrap()
        .parse()
        .unwrap();
    assert!(audits_ok >= 3);
    // METRICS must expose every EngineStats counter by name — the
    // formatter iterates `as_pairs`, so a counter added to the struct
    // but dropped from the reply fails here.
    for (name, _) in fairjob_core::EngineStats::default().as_pairs() {
        assert!(
            protocol::kv(&metrics, name).is_some(),
            "METRICS reply is missing engine counter {name}: {metrics}"
        );
    }

    let stats = client.request("STATS").unwrap();
    assert_eq!(protocol::kv(&stats, "epochs"), Some("2"));

    let err = client.request("FROB").unwrap_err();
    assert!(err.to_string().starts_with("ERR usage"), "got {err}");

    assert_eq!(client.request("QUIT").unwrap(), "OK bye");
    server.shutdown();
    assert_eq!(server.join().unwrap(), 1);
}

#[test]
fn concurrent_readers_observe_some_published_epoch_exactly() {
    let scn = scenario(80, 3, 23);
    let expected = Arc::new(cold_bits_per_epoch(&scn));
    let server = start(
        &scn,
        ServeConfig {
            max_inflight: 8,
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let (expected, done) = (Arc::clone(&expected), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                let mut observed = 0usize;
                while !done.load(Ordering::SeqCst) {
                    match client.audit() {
                        Ok(reply) => {
                            observed += 1;
                            let epoch: usize =
                                protocol::kv(&reply, "epoch").unwrap().parse().unwrap();
                            let bits = protocol::kv(&reply, "unfairness_bits").unwrap();
                            assert_eq!(
                                protocol::parse_f64_bits(bits).unwrap().to_bits(),
                                expected[epoch],
                                "reader saw epoch {epoch} with non-cold-identical bits"
                            );
                        }
                        Err(e) if ServeClient::is_overloaded(&e) => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => panic!("reader failed: {e}"),
                    }
                }
                client.quit();
                observed
            })
        })
        .collect();

    let mut writer = ServeClient::connect(addr).unwrap();
    for events in &scn.epochs {
        writer.epoch(events, &scn.schema).unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    done.store(true, Ordering::SeqCst);
    writer.quit();

    let mut total = 0;
    for handle in readers {
        total += handle.join().unwrap();
    }
    assert!(total > 0, "no reader completed a single audit");
    server.shutdown();
    server.join().unwrap();
}

/// `QUERY` is the verb that still runs audits, so it is the one the
/// admission gate guards.
#[test]
fn admission_control_rejects_instead_of_queueing() {
    let scn = scenario(40, 0, 5);
    let server = start(
        &scn,
        ServeConfig {
            max_inflight: 0,
            ..ServeConfig::default()
        },
    );
    let mut client = ServeClient::connect(server.addr()).unwrap();
    for _ in 0..3 {
        let err = client.query("AUDIT workers").unwrap_err();
        assert!(
            ServeClient::is_overloaded(&err),
            "zero-budget gate must reject with ERR overloaded, got {err}"
        );
    }
    // Rejections are immediate and typed, never queued: the session
    // still answers other verbs right away.
    assert_eq!(client.request("PING").unwrap(), "OK pong");
    let metrics = client.request("METRICS").unwrap();
    assert_eq!(protocol::kv(&metrics, "audits_rejected"), Some("3"));
    assert_eq!(protocol::kv(&metrics, "audits_ok"), Some("0"));
    client.quit();
    server.shutdown();
    server.join().unwrap();
}

/// `AUDIT` answers with the writer's report: it needs no admission
/// permit and adds no engine work, so on an `AUDIT`-only workload the
/// server's engine totals are exactly the writer's own (the start audit
/// plus each epoch).
#[test]
fn audit_adds_no_engine_work_and_needs_no_permit() {
    let scn = scenario(70, 3, 47);
    let expected = cold_bits_per_epoch(&scn);
    let server = start(
        &scn,
        ServeConfig {
            max_inflight: 0,
            ..ServeConfig::default()
        },
    );
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let check_audits = |client: &mut ServeClient, epoch: usize| {
        for _ in 0..10 {
            let audit = client.audit().unwrap();
            assert_eq!(
                protocol::kv(&audit, "epoch"),
                Some(epoch.to_string().as_str())
            );
            let bits = protocol::kv(&audit, "unfairness_bits").unwrap();
            assert_eq!(
                protocol::parse_f64_bits(bits).unwrap().to_bits(),
                expected[epoch],
                "epoch-{epoch} AUDIT diverges from the cold audit"
            );
        }
    };
    check_audits(&mut client, 0);
    for (k, events) in scn.epochs.iter().enumerate() {
        client.epoch(events, &scn.schema).unwrap();
        check_audits(&mut client, k + 1);
    }

    let algorithm = algorithm();
    let mut auditor = StreamAuditor::new(scn.view.clone(), config()).unwrap();
    let mut writer = EngineStats::default();
    writer.merge(&auditor.audit(&*algorithm).unwrap().audit.engine);
    for events in &scn.epochs {
        writer.merge(&auditor.run_epoch(events, &*algorithm).unwrap().audit.engine);
    }
    let metrics = client.request("METRICS").unwrap();
    assert_eq!(protocol::kv(&metrics, "audits_ok"), Some("40"));
    assert_eq!(protocol::kv(&metrics, "audits_rejected"), Some("0"));
    for (name, value) in [
        ("distances_computed", writer.distances_computed),
        ("splits_computed", writer.splits_computed),
        ("rows_scanned", writer.rows_scanned),
    ] {
        assert_eq!(
            protocol::kv(&metrics, name),
            Some(value.to_string().as_str()),
            "{name} counts more than the writer's work: {metrics}"
        );
    }
    client.quit();
    server.shutdown();
    server.join().unwrap();
}

/// A config the start audit cannot run fails `Server::start` with a
/// typed error instead of serving an `ERR` to every `AUDIT`.
#[test]
fn failed_start_audit_is_a_typed_error() {
    let scn = scenario(30, 0, 53);
    let config = AuditConfig {
        attributes: Some(vec!["no_such".to_string()]),
        ..config()
    };
    match Server::start(
        scn.view.clone(),
        algorithm(),
        config,
        ServeConfig::default(),
    ) {
        Err(ServeError::Stream(_)) => {}
        Err(e) => panic!("expected ServeError::Stream, got {e:?}"),
        Ok(server) => panic!("started on {} with an unusable config", server.addr()),
    }
}

#[test]
fn writer_role_is_exclusive_until_release() {
    let scn = scenario(50, 2, 9);
    let server = start(&scn, ServeConfig::default());

    let mut a = ServeClient::connect(server.addr()).unwrap();
    a.epoch(&scn.epochs[0], &scn.schema).unwrap();

    let mut b = ServeClient::connect(server.addr()).unwrap();
    let err = b.epoch(&scn.epochs[1], &scn.schema).unwrap_err();
    assert!(
        err.to_string().starts_with("ERR writer-busy"),
        "second writer must be refused, got {err}"
    );
    // Readers are unaffected by writer exclusivity.
    b.audit().unwrap();

    a.quit();
    // The role releases with the session; poll until the successor
    // can append.
    let mut appended = false;
    for _ in 0..100 {
        match b.epoch(&scn.epochs[1], &scn.schema) {
            Ok(reply) => {
                assert_eq!(protocol::kv(&reply, "epoch"), Some("2"));
                appended = true;
                break;
            }
            Err(e) if e.to_string().starts_with("ERR writer-busy") => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(appended, "writer role never released after QUIT");
    b.quit();
    server.shutdown();
    server.join().unwrap();
}

#[test]
fn failed_epoch_poisons_writer_but_readers_keep_serving() {
    let scn = scenario(40, 1, 3);
    let server = start(&scn, ServeConfig::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();

    // A malformed payload record is caught before application: the
    // writer survives.
    let err = client.request("EPOCH 1\nnot-a-record").unwrap_err();
    assert!(err.to_string().starts_with("ERR usage"), "got {err}");
    let health = client.request("HEALTH").unwrap();
    assert_eq!(protocol::kv(&health, "writer"), Some("ok"));

    // A well-formed event that fails mid-application poisons the
    // writer: the view may hold a partial epoch.
    let ghost = vec![Event::ScoreUpdated {
        worker: 9_999,
        score: 0.5,
    }];
    let err = client.epoch(&ghost, &scn.schema).unwrap_err();
    assert!(err.to_string().starts_with("ERR stream"), "got {err}");

    let err = client.epoch(&scn.epochs[0], &scn.schema).unwrap_err();
    assert!(
        err.to_string().starts_with("ERR writer-poisoned"),
        "poisoned writer must refuse further epochs, got {err}"
    );
    let health = client.request("HEALTH").unwrap();
    assert_eq!(protocol::kv(&health, "writer"), Some("poisoned"));

    // Readers still audit the last published snapshot (epoch 0).
    let audit = client.audit().unwrap();
    assert_eq!(protocol::kv(&audit, "epoch"), Some("0"));

    client.quit();
    server.shutdown();
    server.join().unwrap();
}

#[test]
fn shutdown_drains_sessions_and_reports_count() {
    let scn = scenario(30, 0, 7);
    let server = start(&scn, ServeConfig::default());
    for _ in 0..3 {
        let mut client = ServeClient::connect(server.addr()).unwrap();
        assert_eq!(client.request("PING").unwrap(), "OK pong");
        client.quit();
    }
    // An idle session (no QUIT) must not wedge the drain: the poll
    // interval bounds how long it lingers.
    let idle = ServeClient::connect(server.addr()).unwrap();
    server.shutdown();
    assert_eq!(server.join().unwrap(), 4);
    drop(idle);
}

#[test]
fn shutdown_verb_drains_from_the_wire() {
    let scn = scenario(30, 0, 13);
    let server = start(&scn, ServeConfig::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();
    assert_eq!(client.request("SHUTDOWN").unwrap(), "OK draining");
    assert_eq!(server.join().unwrap(), 1);
}

/// `EPOCH <count>` takes its count from the client. A huge count with
/// no payload behind it gets a typed error — nothing is reserved for
/// records that never arrive — and the server keeps serving others.
#[test]
fn huge_epoch_count_gets_a_typed_error() {
    let scn = scenario(30, 0, 19);
    let server = start(&scn, ServeConfig::default());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // the greeting
    stream.write_all(b"EPOCH 10000000000\n").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("ERR usage") && line.contains("truncated"),
        "got {line}"
    );

    let mut other = ServeClient::connect(server.addr()).unwrap();
    assert_eq!(other.request("PING").unwrap(), "OK pong");
    other.quit();
    server.shutdown();
    server.join().unwrap();
}

/// A line longer than `MAX_LINE_BYTES`, request or `EPOCH` payload
/// record, gets a short `ERR usage` and closes the session: the server
/// neither buffers it without limit nor echoes it back.
#[test]
fn overlong_line_gets_a_usage_error_and_closes_the_session() {
    let scn = scenario(30, 0, 59);
    let server = start(&scn, ServeConfig::default());
    for prefix in [&b""[..], b"EPOCH 1\n"] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // the greeting
        let mut flood = prefix.to_vec();
        flood.resize(prefix.len() + (1 << 20), b'A');
        // The server closes mid-flood; the write may fail from then on.
        let _ = stream.write_all(&flood);
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.starts_with("ERR usage") && line.len() < 200,
            "got {} bytes: {:.200}",
            line.len(),
            line
        );
        let mut rest = Vec::new();
        assert!(
            matches!(reader.read_to_end(&mut rest), Ok(0) | Err(_)),
            "the session stayed open after an overlong line"
        );
    }

    let mut other = ServeClient::connect(server.addr()).unwrap();
    assert_eq!(other.request("PING").unwrap(), "OK pong");
    other.quit();
    server.shutdown();
    server.join().unwrap();
}

/// An `EPOCH` whose records add up to more than `MAX_EPOCH_BYTES` gets
/// `ERR usage` at the record that crosses the bound, and the session
/// closes, whatever count the `EPOCH` line promised: the server never
/// buffers the rest. Other sessions keep being served.
#[test]
fn oversized_epoch_payload_gets_a_usage_error_and_closes_the_session() {
    let scn = scenario(30, 0, 61);
    let server = start(&scn, ServeConfig::default());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // the greeting

    // 17 MiB of 1 KiB records, each well inside `MAX_LINE_BYTES`.
    let record = format!("{}\n", "x".repeat(1023));
    let mut flood = b"EPOCH 1000000\n".to_vec();
    for _ in 0..17 * 1024 {
        flood.extend_from_slice(record.as_bytes());
    }
    assert!(flood.len() > protocol::MAX_EPOCH_BYTES + (1 << 20));
    // The server closes mid-flood; the write may fail from then on.
    let _ = stream.write_all(&flood);
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("ERR usage EPOCH payload longer than"),
        "got {} bytes: {:.200}",
        line.len(),
        line
    );
    let mut rest = Vec::new();
    assert!(
        matches!(reader.read_to_end(&mut rest), Ok(0) | Err(_)),
        "the session stayed open after an oversized payload"
    );

    let mut other = ServeClient::connect(server.addr()).unwrap();
    assert_eq!(other.request("PING").unwrap(), "OK pong");
    other.quit();
    server.shutdown();
    server.join().unwrap();
}

#[test]
fn max_sessions_bounds_the_accept_loop() {
    let scn = scenario(30, 0, 17);
    let server = start(
        &scn,
        ServeConfig {
            max_sessions: Some(2),
            ..ServeConfig::default()
        },
    );
    for _ in 0..2 {
        let mut client = ServeClient::connect(server.addr()).unwrap();
        assert_eq!(client.request("PING").unwrap(), "OK pong");
        client.quit();
    }
    assert_eq!(server.join().unwrap(), 2);
}

#[test]
fn query_audit_is_bit_identical_to_the_audit_verb() {
    let scn = scenario(90, 0, 31);
    let server = start(&scn, ServeConfig::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();

    let audit = client.audit().unwrap();
    let bits = protocol::kv(&audit, "unfairness_bits").unwrap().to_string();

    let (header, lines) = client.query("AUDIT workers").unwrap();
    assert_eq!(protocol::kv(&header, "results"), Some("1"));
    assert_eq!(
        protocol::kv(&lines[0], "unfairness_bits"),
        Some(bits.as_str()),
        "QUERY audit diverged from the AUDIT verb:\n{}",
        lines.join("\n")
    );

    // A repeated audit in the same session reuses the warm FairQL
    // caches without changing the answer.
    let (_, warm_lines) = client.query("AUDIT workers").unwrap();
    assert_eq!(
        protocol::kv(&warm_lines[0], "unfairness_bits"),
        Some(bits.as_str())
    );
    assert_eq!(protocol::kv(&warm_lines[0], "splits_computed"), Some("0"));

    client.quit();
    server.shutdown();
    server.join().unwrap();
}

#[test]
fn query_explain_analyze_reports_the_cold_runs_counters() {
    let scn = scenario(80, 0, 37);
    // The ground truth: a cold audit of the published snapshot.
    let snapshot = scn.view.snapshot();
    let ctx = snapshot.context(config()).unwrap();
    let expected = algorithm().run(&ctx).unwrap();

    let server = start(&scn, ServeConfig::default());
    // A fresh session, so the query runs against cold caches.
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let (_, lines) = client.query("EXPLAIN ANALYZE AUDIT workers").unwrap();
    let text = lines.join("\n");
    assert!(
        text.contains(&format!(
            "unfairness_bits={:016x}",
            expected.unfairness.to_bits()
        )),
        "bits missing from plan:\n{text}"
    );
    for (name, value) in expected.engine.as_pairs() {
        assert!(
            text.contains(&format!(" {name}={value}")),
            "{name}={value} missing from plan:\n{text}"
        );
    }
    client.quit();
    server.shutdown();
    server.join().unwrap();
}

#[test]
fn query_parse_errors_carry_byte_offsets() {
    let scn = scenario(40, 0, 41);
    let server = start(&scn, ServeConfig::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();

    let err = client.query("FROB workers").unwrap_err();
    assert!(err.to_string().starts_with("ERR parse 0 "), "got: {err}");

    // The offset is relative to the query text, pointing at the
    // offending value token.
    let err = client
        .query("AUDIT workers WHERE gender = 'Robot'")
        .unwrap_err();
    assert!(err.to_string().starts_with("ERR parse 29 "), "got: {err}");

    client.quit();
    server.shutdown();
    server.join().unwrap();
}

#[test]
fn stats_count_queries_served() {
    let scn = scenario(50, 0, 43);
    let server = start(&scn, ServeConfig::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();

    client.query("DESCRIBE").unwrap();
    client.query("SELECT COUNT(*) FROM workers").unwrap();
    let _ = client.query("FROB").unwrap_err(); // errors are not served queries

    let stats = client.request("STATS").unwrap();
    assert_eq!(protocol::kv(&stats, "queries"), Some("2"));
    assert_eq!(protocol::kv(&stats, "errors"), Some("1"));

    let metrics = client.request("METRICS").unwrap();
    assert_eq!(protocol::kv(&metrics, "queries_ok"), Some("2"));

    client.quit();
    server.shutdown();
    server.join().unwrap();
}
