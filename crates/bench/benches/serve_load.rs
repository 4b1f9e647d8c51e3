//! Serve-load bench: drive a resident [`fairjob_serve::Server`] with
//! sustained mixed read/write traffic — one writer session appending
//! epochs through the warm incremental path while reader sessions
//! `AUDIT` the published epoch at a target request rate.
//!
//! Beyond timing, this bench *asserts* the daemon's contract:
//!
//! - every reader `AUDIT` response is **bit-identical** to a cold
//!   offline audit of the same epoch (readers can never observe a
//!   half-applied epoch or a writer-mutated snapshot);
//! - the writer applies every epoch while readers are served
//!   (reads never block ingest);
//! - admission control holds: with the in-flight budget saturated the
//!   server answers a `QUERY` with `ERR overloaded` immediately instead
//!   of queueing.
//!
//! It also starts the machine-readable perf trajectory ROADMAP item 4
//! asks for: a `BENCH_serve.json` next to the bench target with
//! sustained QPS, p50/p99 audit latency, and the server's aggregated
//! [`EngineStats`] counters, uploaded as a CI artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use fairjob_core::algorithms::{balanced::Balanced, Algorithm, AttributeChoice};
use fairjob_core::{AuditConfig, AuditContext};
use fairjob_marketplace::stream::{generate_stream, StreamConfig, StreamScenario};
use fairjob_serve::{protocol, ServeClient, ServeConfig, Server};
use fairjob_stream::StreamView;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sized so one audit costs tens of milliseconds in the bench profile:
/// the writer's epoch audits take long enough that paced reader
/// `AUDIT`s overlap them.
const WORKERS: usize = 200;
const EPOCHS: usize = 4;
const EVENTS_PER_EPOCH: usize = 10;
const SEED: u64 = 0x5EED_5E12;
const READERS: usize = 3;
/// Per-reader request pacing — with [`READERS`] sessions the offered
/// load is `READERS * 1s / READ_PACE` QPS before latency is accounted.
const READ_PACE: Duration = Duration::from_millis(2);

fn scenario() -> StreamScenario {
    generate_stream(&StreamConfig {
        initial: WORKERS,
        epochs: EPOCHS,
        events_per_epoch: EVENTS_PER_EPOCH,
        seed: SEED,
        alpha: 0.5,
    })
}

fn view_of(scenario: &StreamScenario, config: &AuditConfig) -> StreamView {
    StreamView::new(
        scenario.initial.clone(),
        scenario.scores.clone(),
        config.bins,
    )
    .expect("stream view")
}

/// Offline cold-audit unfairness bits per epoch — the ground truth
/// every reader response is checked against.
fn cold_bits(scenario: &StreamScenario, config: &AuditConfig) -> Vec<u64> {
    let algorithm = Balanced::new(AttributeChoice::Worst);
    let mut view = view_of(scenario, config);
    let cold = |view: &StreamView| {
        let (table, scores) = view.compact().expect("compact");
        let ctx = AuditContext::new(&table, &scores, config.clone()).expect("ctx");
        algorithm
            .run(&ctx)
            .expect("cold audit")
            .unfairness
            .to_bits()
    };
    let mut expected = vec![cold(&view)];
    for events in scenario.events.epochs() {
        view.apply_epoch(events).expect("apply epoch");
        expected.push(cold(&view));
    }
    expected
}

struct LoadReport {
    audits_ok: u64,
    elapsed: Duration,
    latencies_us: Vec<u64>,
    metrics_line: String,
}

/// One full mixed-traffic run: start a server, spawn readers pacing
/// `AUDIT`s, apply every epoch from a writer session, stop, collect.
fn drive_load(expected: &Arc<Vec<u64>>, config: &AuditConfig) -> LoadReport {
    let scn = scenario();
    let server = Server::start(
        view_of(&scn, config),
        Arc::new(Balanced::new(AttributeChoice::Worst)),
        config.clone(),
        ServeConfig::default(),
    )
    .expect("server start");
    let addr = server.addr();
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let (expected, done) = (Arc::clone(expected), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("reader connect");
                let mut ok = 0u64;
                let mut latencies_us = Vec::new();
                while !done.load(Ordering::SeqCst) {
                    let started = Instant::now();
                    // AUDIT draws no admission permit, so it is never
                    // rejected.
                    let reply = client.audit().expect("reader AUDIT");
                    latencies_us.push(started.elapsed().as_micros() as u64);
                    ok += 1;
                    let epoch: usize = protocol::kv(&reply, "epoch")
                        .expect("epoch field")
                        .parse()
                        .expect("epoch number");
                    let bits = protocol::kv(&reply, "unfairness_bits").expect("bits");
                    assert_eq!(
                        protocol::parse_f64_bits(bits).expect("hex bits").to_bits(),
                        expected[epoch],
                        "reader audit of epoch {epoch} is not bit-identical \
                         to the cold offline audit"
                    );
                    std::thread::sleep(READ_PACE);
                }
                client.quit();
                (ok, latencies_us)
            })
        })
        .collect();

    let started = Instant::now();
    let mut writer = ServeClient::connect(addr).expect("writer connect");
    let schema = scn.initial.schema();
    for events in scn.events.epochs() {
        let reply = writer.epoch(events, schema).expect("epoch append");
        let epoch: usize = protocol::kv(&reply, "epoch").unwrap().parse().unwrap();
        assert_eq!(
            protocol::parse_f64_bits(protocol::kv(&reply, "unfairness_bits").unwrap())
                .unwrap()
                .to_bits(),
            expected[epoch],
            "writer's warm epoch {epoch} diverged from the cold audit"
        );
        // Keep readers auditing between writes so snapshots of every
        // epoch get observed under load.
        std::thread::sleep(Duration::from_millis(120));
    }
    // Let readers settle on the final epoch, then stop the clock.
    std::thread::sleep(Duration::from_millis(120));
    done.store(true, Ordering::SeqCst);
    let elapsed = started.elapsed();
    let metrics_line = writer.request("METRICS").expect("metrics");
    writer.quit();

    let mut audits_ok = 0;
    let mut latencies_us = Vec::new();
    for handle in readers {
        let (ok, lat) = handle.join().expect("reader join");
        audits_ok += ok;
        latencies_us.extend(lat);
    }
    server.shutdown();
    server.join().expect("server drain");
    LoadReport {
        audits_ok,
        elapsed,
        latencies_us,
        metrics_line,
    }
}

fn percentile_us(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * pct).round() as usize;
    sorted[rank]
}

/// The saturation contract: with a zero budget every `QUERY` (the verb
/// that runs audits) is rejected immediately and typed — never queued.
fn assert_admission_contract(config: &AuditConfig) {
    let scn = scenario();
    let server = Server::start(
        view_of(&scn, config),
        Arc::new(Balanced::new(AttributeChoice::Worst)),
        config.clone(),
        ServeConfig {
            max_inflight: 0,
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    for _ in 0..10 {
        let started = Instant::now();
        let err = client
            .query("AUDIT workers")
            .expect_err("zero budget must reject");
        assert!(
            ServeClient::is_overloaded(&err),
            "expected ERR overloaded, got {err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "rejection took {:?} — overload must answer immediately, not queue",
            started.elapsed()
        );
    }
    client.quit();
    server.shutdown();
    server.join().expect("drain");
}

fn metrics_u64(line: &str, key: &str) -> u64 {
    protocol::kv(line, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Write the machine-readable trajectory next to the bench target.
fn write_bench_json(report: &LoadReport, sorted_us: &[u64]) {
    let qps = report.audits_ok as f64 / report.elapsed.as_secs_f64();
    let json = format!(
        "{{\"bench\":\"serve_load\",\"workers\":{WORKERS},\"epochs\":{EPOCHS},\
\"readers\":{READERS},\"audits_ok\":{},\"elapsed_ms\":{},\
\"qps\":{:.1},\"latency_us\":{{\"p50\":{},\"p99\":{},\"max\":{}}},\
\"server\":{{\"epochs_applied\":{},\"max_epoch_lag\":{},\"sessions\":{},\
\"engine\":{{\"distances_computed\":{},\"cache_hits\":{},\"rows_scanned\":{},\
\"bounds_screened\":{},\"exact_solves\":{},\"pool_tasks\":{},\
\"ground_cache_hits\":{},\"scratch_reuses\":{},\"warm_starts\":{}}}}}}}\n",
        report.audits_ok,
        report.elapsed.as_millis(),
        qps,
        percentile_us(sorted_us, 0.50),
        percentile_us(sorted_us, 0.99),
        sorted_us.last().copied().unwrap_or(0),
        metrics_u64(&report.metrics_line, "epochs_applied"),
        metrics_u64(&report.metrics_line, "max_epoch_lag"),
        metrics_u64(&report.metrics_line, "sessions"),
        metrics_u64(&report.metrics_line, "distances_computed"),
        metrics_u64(&report.metrics_line, "cache_hits"),
        metrics_u64(&report.metrics_line, "rows_scanned"),
        metrics_u64(&report.metrics_line, "bounds_screened"),
        metrics_u64(&report.metrics_line, "exact_solves"),
        metrics_u64(&report.metrics_line, "pool_tasks"),
        metrics_u64(&report.metrics_line, "ground_cache_hits"),
        metrics_u64(&report.metrics_line, "scratch_reuses"),
        metrics_u64(&report.metrics_line, "warm_starts"),
    );
    // `cargo bench` runs with the package directory as cwd; BENCH_*.json
    // lands at the workspace root either way.
    let path = if std::path::Path::new("../../Cargo.toml").exists() {
        "../../BENCH_serve.json"
    } else {
        "BENCH_serve.json"
    };
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("serve_load: could not write {path}: {e}");
    }
    println!("serve_load trajectory: {json}");
}

fn assert_serve_contract() -> LoadReport {
    let config = AuditConfig::default();
    let expected = Arc::new(cold_bits(&scenario(), &config));
    assert_admission_contract(&config);
    let report = drive_load(&expected, &config);
    assert!(
        report.audits_ok >= 20,
        "sustained mixed traffic produced only {} audits — load was not sustained",
        report.audits_ok
    );
    assert_eq!(
        metrics_u64(&report.metrics_line, "epochs_applied"),
        EPOCHS as u64,
        "writer did not apply every epoch under read load"
    );
    report
}

fn bench_serve_load(c: &mut Criterion) {
    let report = assert_serve_contract();
    let mut sorted = report.latencies_us.clone();
    sorted.sort_unstable();
    write_bench_json(&report, &sorted);

    // Timing group: single-session round trips against a resident
    // server. `audit_round_trip` measures the published answer
    // (protocol + one `Arc` clone of the writer's reply), so it should
    // sit near `ping_round_trip`.
    let config = AuditConfig::default();
    let scn = scenario();
    let server = Server::start(
        view_of(&scn, &config),
        Arc::new(Balanced::new(AttributeChoice::Worst)),
        config,
        ServeConfig::default(),
    )
    .expect("server start");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let mut group = c.benchmark_group("serve_load");
    group.sample_size(10);
    group.bench_function("audit_round_trip", |b| {
        b.iter(|| black_box(client.audit().expect("audit")))
    });
    group.bench_function("ping_round_trip", |b| {
        b.iter(|| black_box(client.request("PING").expect("ping")))
    });
    group.finish();
    client.quit();
    server.shutdown();
    server.join().expect("drain");
}

criterion_group!(benches, bench_serve_load);
criterion_main!(benches);
