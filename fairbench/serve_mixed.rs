//! `serve_mixed`: a resident server taking one writer's epochs beside
//! one reader's audits and FairQL queries, both sent on a fixed
//! schedule (an open loop) and timed from when each request was due.
//! Each of the run's populations gets its own server for an equal share
//! of the window.

use crate::report::Layers;
use crate::stats;
use crate::trace::Trace;
use crate::workloads::{
    audit_layers, finish, latency_detail, median_ms, population_seed, quiet_audit, Measured,
    Mismatch, Outcome, Probe, Scale, Totals,
};
use fairjob_core::algorithms::balanced::Balanced;
use fairjob_core::algorithms::AttributeChoice;
use fairjob_core::{AuditConfig, AuditContext};
use fairjob_fairql::{analyze_statement, parse, Defaults, QueryOutput, Session, Source};
use fairjob_marketplace::stream::{generate_stream, StreamConfig, StreamScenario};
use fairjob_serve::{protocol, ServeClient, ServeConfig, ServeError, Server};
use fairjob_stream::{StreamAuditor, StreamSnapshot, StreamView};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The population and traffic of `serve_mixed`.
#[derive(Debug, Clone)]
pub struct ServeShape {
    /// Workers in each initial population.
    pub workers: usize,
    /// Events in each writer epoch.
    pub events_per_epoch: usize,
    /// One `EPOCH` is due every period, half a period plus half a read
    /// period into it: between two reader requests, so the phase of
    /// the two schedules does not decide which of them waits.
    pub epoch_period: Duration,
    /// One reader request is due every period, cycling
    /// `AUDIT, AUDIT, QUERY`.
    pub read_period: Duration,
}

/// The reader's FairQL statements, sent in turn as every third request.
pub const QUERIES: [&str; 3] = [
    "AUDIT workers WHERE country = 'India' PROTECT gender, language",
    "AUDIT workers USING unbalanced METRIC emd-exact",
    "SELECT gender, COUNT(*), MEAN(approval_rate) FROM workers GROUP BY gender",
];

/// PING round trips timed by a traced run.
const PINGS: usize = 20;

/// Times a traced run executes each query in process.
const FAIRQL_REPS: u64 = 5;

/// What a query must answer at one epoch.
#[derive(Debug, PartialEq)]
enum Answer {
    Bits(u64),
    Rows(Vec<String>),
}

/// The right answer to every request at every epoch, from cold offline
/// audits and fresh FairQL sessions, computed before anything is timed.
struct Oracle {
    audit: Vec<u64>,
    queries: Vec<Vec<Answer>>,
}

impl Oracle {
    fn compute(scn: &StreamScenario, config: &AuditConfig) -> Self {
        let algorithm = Balanced::new(AttributeChoice::Worst);
        let mut view = StreamView::new(scn.initial.clone(), scn.scores.clone(), config.bins)
            .expect("a stream view of the generated population");
        let mut oracle = Oracle {
            audit: Vec::new(),
            queries: Vec::new(),
        };
        for epoch in 0..=scn.events.epochs().len() {
            if epoch > 0 {
                view.apply_epoch(&scn.events.epochs()[epoch - 1])
                    .expect("generated events apply");
            }
            let (table, scores) = view.compact().expect("compact the live rows");
            let cold = quiet_audit(
                || AuditContext::new(&table, &scores, config.clone()),
                &algorithm,
            );
            oracle.audit.push(cold.unfairness.to_bits());
            let snapshot = view.snapshot();
            oracle
                .queries
                .push(QUERIES.iter().map(|text| answer(&snapshot, text)).collect());
        }
        oracle
    }

    fn check_audit(&self, reply: &str) -> Result<usize, String> {
        let epoch = field(reply, "epoch")?;
        let bits = bits_field(reply)?;
        if self.audit.get(epoch) == Some(&bits) {
            Ok(epoch)
        } else {
            Err(format!(
                "reply `{reply}`: epoch {epoch} unfairness bits {bits:016x} differ from the \
                 cold offline audit's {:016x?}",
                self.audit.get(epoch)
            ))
        }
    }

    /// The epoch a query reply answered. A `SELECT` reply names no
    /// epoch; it must match one at or after `from_epoch`, the last the
    /// writer had acknowledged when the query was sent.
    fn check_query(
        &self,
        k: usize,
        payload: &[String],
        from_epoch: usize,
    ) -> Result<usize, String> {
        let text = QUERIES[k];
        if let Answer::Rows(_) = self.queries[0][k] {
            let got = Answer::Rows(payload.to_vec());
            return (from_epoch..self.queries.len())
                .find(|&e| self.queries[e][k] == got)
                .ok_or_else(|| {
                    format!("`{text}` answered {payload:?}, which no epoch from {from_epoch} gives")
                });
        }
        let line = payload
            .first()
            .filter(|l| l.starts_with("audit "))
            .ok_or_else(|| format!("`{text}` answered {payload:?}, not an audit"))?;
        let epoch = field(line, "epoch")?;
        let bits = bits_field(line)?;
        match self.queries.get(epoch).map(|q| &q[k]) {
            Some(Answer::Bits(expected)) if *expected == bits => Ok(epoch),
            expected => Err(format!(
                "`{text}` at epoch {epoch}: unfairness bits {bits:016x}, offline session gives {expected:?}"
            )),
        }
    }
}

fn answer(snapshot: &StreamSnapshot, text: &str) -> Answer {
    let mut session = Session::new(Source::Snapshot(snapshot), Defaults::default())
        .expect("a session over a snapshot");
    let outputs = session.execute(text).expect("the workload's queries run");
    match &outputs[0] {
        QueryOutput::Audit { summary, .. } => Answer::Bits(summary.unfairness_bits()),
        other => Answer::Rows(other.render().lines().map(str::to_string).collect()),
    }
}

fn field(line: &str, key: &str) -> Result<usize, String> {
    protocol::kv(line, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no `{key}` in `{line}`"))
}

fn bits_field(line: &str) -> Result<u64, String> {
    protocol::kv(line, "unfairness_bits")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("no `unfairness_bits` in `{line}`"))
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What one side of the traffic measured.
#[derive(Debug, Default)]
struct Side {
    attempted: u64,
    failed: u64,
    /// Latency from when each request was due, per verb.
    audit_ms: Vec<f64>,
    query_ms: Vec<f64>,
    epoch_ms: Vec<f64>,
    /// How late each request was sent.
    lag_ms: Vec<f64>,
    /// Reader requests answered, and those whose (epoch, request) had
    /// been answered before.
    answered: u64,
    repeats: u64,
}

impl Side {
    fn failure(&mut self, what: &str, e: &ServeError) -> f64 {
        eprintln!("fairbench: {what} failed: {e}");
        self.failed += 1;
        f64::INFINITY
    }

    /// Add what the same side measured on another population.
    fn absorb(&mut self, other: Side) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.audit_ms.extend(other.audit_ms);
        self.query_ms.extend(other.query_ms);
        self.epoch_ms.extend(other.epoch_ms);
        self.lag_ms.extend(other.lag_ms);
        self.answered += other.answered;
        self.repeats += other.repeats;
    }
}

/// The writer: one `EPOCH` per period, checked against the oracle.
#[allow(clippy::too_many_arguments)]
fn write_epochs(
    writer: &mut ServeClient,
    scn: &StreamScenario,
    oracle: &Oracle,
    origin: Instant,
    shape: &ServeShape,
    published: &AtomicU64,
    trace: &mut Trace,
    first_op: u64,
) -> Result<Side, Mismatch> {
    let mut side = Side::default();
    let schema = scn.initial.schema();
    for (i, events) in scn.events.epochs().iter().enumerate() {
        let due =
            origin + shape.epoch_period * i as u32 + (shape.epoch_period + shape.read_period) / 2;
        sleep_until(due);
        side.lag_ms.push(ms_since(due));
        side.attempted += 1;
        let op = first_op + i as u64;
        let span = trace.begin("serve.epoch", op, None);
        let reply = writer.epoch(events, schema);
        trace.end(span);
        let ms = ms_since(due);
        let ms = match reply {
            Ok(reply) => {
                let epoch = oracle.check_audit(&reply).map_err(|message| Mismatch {
                    attempted: side.attempted,
                    message,
                })?;
                published.store(epoch as u64, Ordering::SeqCst);
                ms
            }
            Err(e) => side.failure("EPOCH", &e),
        };
        side.epoch_ms.push(ms);
    }
    Ok(side)
}

/// The reader: one request per period, `AUDIT, AUDIT, QUERY`, the
/// queries taking [`QUERIES`] in turn.
#[allow(clippy::too_many_arguments)]
fn read(
    reader: &mut ServeClient,
    oracle: &Oracle,
    origin: Instant,
    shape: &ServeShape,
    reads: u32,
    published: &AtomicU64,
    trace: &mut Trace,
    first_op: u64,
) -> Result<Side, Mismatch> {
    let mut side = Side::default();
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    for j in 0..reads {
        let due = origin + shape.read_period * j;
        sleep_until(due);
        side.lag_ms.push(ms_since(due));
        side.attempted += 1;
        let op = first_op + u64::from(j);
        let is_audit = j % 3 < 2;
        let k = (j as usize / 3) % QUERIES.len();
        let from_epoch = published.load(Ordering::SeqCst) as usize;
        let name = if is_audit {
            "serve.audit"
        } else {
            "serve.query"
        };
        let span = trace.begin(name, op, None);
        let reply = if is_audit {
            reader.audit().map(|line| (line, Vec::new()))
        } else {
            reader.query(QUERIES[k])
        };
        trace.end(span);
        let ms = ms_since(due);
        let ms = match reply {
            Ok((header, payload)) => {
                let epoch = if is_audit {
                    oracle.check_audit(&header)
                } else if protocol::kv(&header, "results") == Some("1") {
                    oracle.check_query(k, &payload, from_epoch)
                } else {
                    Err(format!("`{}` answered `{header}`", QUERIES[k]))
                }
                .map_err(|message| Mismatch {
                    attempted: side.attempted,
                    message,
                })?;
                side.answered += 1;
                // AUDIT is request QUERIES.len(); a query is its index.
                let request = if is_audit { QUERIES.len() } else { k };
                if !seen.insert((epoch, request)) {
                    side.repeats += 1;
                }
                ms
            }
            Err(e) => side.failure(if is_audit { "AUDIT" } else { "QUERY" }, &e),
        };
        if is_audit {
            side.audit_ms.push(ms);
        } else {
            side.query_ms.push(ms);
        }
    }
    Ok(side)
}

/// A running server with its writer and reader sessions.
struct Live {
    server: Server,
    writer: ServeClient,
    reader: ServeClient,
}

impl Live {
    fn stop(self) {
        self.reader.quit();
        self.writer.quit();
        self.server.shutdown();
        self.server.join().expect("the server drains");
    }
}

/// Start a server on the initial population and warm it up: one AUDIT,
/// each query, and a PING. This is the timed set-up.
fn start(
    table: fairjob_store::Table,
    scores: Vec<f64>,
    config: &AuditConfig,
    oracle: &Oracle,
) -> Result<Live, Mismatch> {
    let mismatch = |message| Mismatch {
        attempted: 0,
        message,
    };
    let view = StreamView::new(table, scores, config.bins).expect("a stream view");
    let server = Server::start(
        view,
        Arc::new(Balanced::new(AttributeChoice::Worst)),
        config.clone(),
        ServeConfig::default(),
    )
    .expect("the server starts");
    let writer = ServeClient::connect(server.addr()).expect("the writer connects");
    let mut reader = ServeClient::connect(server.addr()).expect("the reader connects");
    oracle
        .check_audit(&reader.audit().expect("warm-up AUDIT"))
        .map_err(mismatch)?;
    for (k, text) in QUERIES.iter().enumerate() {
        let (_, payload) = reader.query(text).expect("warm-up QUERY");
        oracle.check_query(k, &payload, 0).map_err(mismatch)?;
    }
    reader.request("PING").expect("warm-up PING");
    Ok(Live {
        server,
        writer,
        reader,
    })
}

/// A counter of a `METRICS` reply.
fn counter(metrics: &str, key: &str) -> f64 {
    protocol::kv(metrics, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Everything `serve_mixed` measured, over every population.
#[derive(Debug, Default)]
struct Traffic {
    setups_s: Vec<f64>,
    writer: Side,
    reader: Side,
    /// Latency of every request, one list per population.
    ops_ms: Vec<Vec<f64>>,
    /// `METRICS` counter deltas over the measured traffic.
    audits_rejected: f64,
    distances_computed: f64,
    max_epoch_lag: f64,
    /// PING round trips, timed on traced runs only.
    ping_us: Vec<f64>,
}

impl Traffic {
    /// Requests both sides have sent so far.
    fn requests(&self) -> u64 {
        self.writer.attempted + self.reader.attempted
    }

    /// Serve one population: a timed set-up, then the writer and the
    /// reader for `reads` read periods.
    fn serve(
        &mut self,
        scn: &StreamScenario,
        oracle: &Oracle,
        config: &AuditConfig,
        shape: &ServeShape,
        reads: u32,
        trace: &mut Trace,
    ) -> Result<(), Mismatch> {
        let (table, scores) = (scn.initial.clone(), scn.scores.clone());
        let started = Instant::now();
        let Live {
            server,
            mut writer,
            mut reader,
        } = start(table, scores, config, oracle)?;
        self.setups_s.push(started.elapsed().as_secs_f64());

        let before = reader.request("METRICS").expect("METRICS");
        let published = AtomicU64::new(0);
        let first_op = self.requests() + 1;
        let mut writer_trace = trace.fork();
        let mut reader_trace = trace.fork();
        let origin = Instant::now() + Duration::from_millis(10);
        let (written, read_side) = std::thread::scope(|s| {
            let writer_thread = s.spawn(|| {
                write_epochs(
                    &mut writer,
                    scn,
                    oracle,
                    origin,
                    shape,
                    &published,
                    &mut writer_trace,
                    first_op + u64::from(reads),
                )
            });
            let read_side = read(
                &mut reader,
                oracle,
                origin,
                shape,
                reads,
                &published,
                &mut reader_trace,
                first_op,
            );
            (writer_thread.join().expect("the writer thread"), read_side)
        });
        let after = reader.request("METRICS").expect("METRICS");
        if trace.is_on() {
            for _ in 0..PINGS {
                let started = Instant::now();
                reader.request("PING").expect("PING");
                self.ping_us.push(started.elapsed().as_secs_f64() * 1e6);
            }
        }
        Live {
            server,
            writer,
            reader,
        }
        .stop();
        let sent_before = self.requests();
        let shift = |m: Mismatch| Mismatch {
            attempted: sent_before + m.attempted,
            ..m
        };
        let (written, read_side) = (written.map_err(shift)?, read_side.map_err(shift)?);
        trace.absorb(reader_trace);
        trace.absorb(writer_trace);
        let delta = |key: &str| counter(&after, key) - counter(&before, key);
        self.audits_rejected += delta("audits_rejected");
        self.distances_computed += delta("distances_computed");
        self.max_epoch_lag = self.max_epoch_lag.max(counter(&after, "max_epoch_lag"));
        self.ops_ms.push(
            [&read_side.audit_ms, &read_side.query_ms, &written.epoch_ms]
                .into_iter()
                .flatten()
                .copied()
                .collect(),
        );
        self.writer.absorb(written);
        self.reader.absorb(read_side);
        Ok(())
    }
}

pub fn run(seed: u64, scale: &Scale, mut probe: Probe) -> Result<Outcome, Mismatch> {
    let shape = &scale.serve;
    // Each population is served for an equal share of the window.
    let share = scale.window / scale.populations as u32;
    let epochs = (share.as_nanos() / shape.epoch_period.as_nanos()).max(1) as usize;
    let reads = (share.as_nanos() / shape.read_period.as_nanos()) as u32;
    let config = AuditConfig::default();
    let scenarios: Vec<(StreamScenario, Oracle)> = (0..scale.populations)
        .map(|i| {
            let scn = generate_stream(&StreamConfig {
                initial: shape.workers,
                epochs,
                events_per_epoch: shape.events_per_epoch,
                seed: population_seed(seed, scale, i),
                alpha: 0.5,
            });
            let oracle = Oracle::compute(&scn, &config);
            (scn, oracle)
        })
        .collect();

    let mut traffic = Traffic::default();
    for (scn, oracle) in &scenarios {
        traffic.serve(scn, oracle, &config, shape, reads, &mut probe.trace)?;
    }
    let Traffic {
        setups_s,
        writer,
        reader,
        ops_ms,
        ..
    } = traffic;

    let requests = writer.attempted + reader.attempted;
    let mut layers = Layers::default();
    layers.set("serve.audits_rejected", traffic.audits_rejected);
    layers.set("serve.max_epoch_lag", traffic.max_epoch_lag);
    layers.set(
        "serve.distances_computed",
        traffic.distances_computed / requests.max(1) as f64,
    );
    layers.set(
        "serve.repeat_share",
        reader.repeats as f64 / reader.answered.max(1) as f64,
    );
    let lags: Vec<f64> = reader
        .lag_ms
        .iter()
        .chain(&writer.lag_ms)
        .copied()
        .collect();
    layers.set(
        "serve.gen_lag_p99_ms",
        stats::percentile(&stats::sorted(&lags), 990),
    );
    if probe.trace.is_on() {
        layers.set("serve.ping_us", stats::median(&traffic.ping_us));
        let first_op = requests + 1;
        let totals = replay(&mut probe, &scenarios, first_op, &mut layers)?;
        audit_layers(&mut layers, &probe.trace, &totals);
        fairql_layers(
            &mut probe,
            &scenarios[0].0,
            first_op + totals.ops,
            &mut layers,
        );
        layers.set(
            "serve.audit_overhead_ms",
            stats::median(&reader.audit_ms) - layers.get("stream.snapshot_audit_ms"),
        );
    }

    let mut detail = latency_detail("audit", &reader.audit_ms);
    detail.extend(latency_detail("query", &reader.query_ms));
    detail.extend(latency_detail("epoch", &writer.epoch_ms));
    let measured = Measured {
        attempted: requests,
        failed: writer.failed + reader.failed,
        ops_ms,
    };
    Ok(finish(&measured, &setups_s, detail, layers, probe.trace))
}

/// Replay each population's event log in process, timing the `stream`
/// layer and, after each epoch, a reader's audit of the new snapshot.
/// Every answer is checked, so the timed distance provably changes
/// none.
fn replay(
    probe: &mut Probe,
    scenarios: &[(StreamScenario, Oracle)],
    first_op: u64,
    layers: &mut Layers,
) -> Result<Totals, Mismatch> {
    let algorithm = Balanced::new(AttributeChoice::Worst);
    let config = AuditConfig {
        distance: probe.distance(),
        ..AuditConfig::default()
    };
    probe.drain();
    let mut totals = Totals::default();
    let mut warm_rows = 0;
    for (scn, oracle) in scenarios {
        let check = |epoch: u64, bits: u64| {
            if oracle.audit.get(epoch as usize) == Some(&bits) {
                Ok(())
            } else {
                Err(Mismatch {
                    attempted: 0,
                    message: format!(
                        "replayed epoch {epoch}: unfairness bits {bits:016x} differ from the \
                         cold audit's"
                    ),
                })
            }
        };
        let view = StreamView::new(scn.initial.clone(), scn.scores.clone(), config.bins)
            .expect("a stream view");
        let mut auditor = StreamAuditor::new(view, config.clone()).expect("a stream auditor");
        for events in scn.events.epochs() {
            let op = first_op + totals.ops;
            let root = probe.trace.begin("stream.epoch", op, None);
            let span = probe.trace.begin("stream.run_epoch", op, root);
            let report = auditor
                .run_epoch(events, &algorithm)
                .expect("a replayed epoch applies");
            probe.trace.end(span);
            probe.take_calls(op, span);
            check(report.epoch, report.audit.unfairness.to_bits())?;
            warm_rows += report.audit.engine.rows_scanned;

            let span = probe.trace.begin("stream.snapshot", op, root);
            let snapshot = auditor.view().snapshot();
            probe.trace.end(span);
            let span = probe.trace.begin("stream.snapshot_audit", op, root);
            let result = probe
                .audit(
                    op,
                    span,
                    || {
                        Ok(snapshot
                            .context(config.clone())
                            .expect("a snapshot context"))
                    },
                    &algorithm,
                )
                .expect("a snapshot audit");
            probe.trace.end(span);
            check(snapshot.epoch(), result.unfairness.to_bits())?;
            totals.ops += 1;
            totals.engine.merge(&result.engine);
            probe.trace.end(root);
        }
    }
    for (metric, span) in [
        ("stream.run_epoch_ms", "stream.run_epoch"),
        ("stream.snapshot_ms", "stream.snapshot"),
        ("stream.snapshot_audit_ms", "stream.snapshot_audit"),
    ] {
        layers.set(metric, median_ms(&probe.trace, span, None));
    }
    layers.set("stream.warm_rows_scanned", totals.per_op(warm_rows));
    Ok(totals)
}

/// Time each FairQL stage of every query over the initial snapshot of
/// `scn` (the run's first population), with a fresh session per query.
fn fairql_layers(probe: &mut Probe, scn: &StreamScenario, first_op: u64, layers: &mut Layers) {
    let view = StreamView::new(
        scn.initial.clone(),
        scn.scores.clone(),
        AuditConfig::default().bins,
    )
    .expect("a stream view");
    let snapshot = view.snapshot();
    let schema = snapshot.table().schema().clone();
    for rep in 0..FAIRQL_REPS {
        let op = first_op + rep;
        for text in QUERIES {
            let span = probe.trace.begin("fairql.parse", op, None);
            let statements = parse(text).expect("the workload's queries parse");
            probe.trace.end(span);
            let span = probe.trace.begin("fairql.analyze", op, None);
            let analyzed = analyze_statement(&statements[0], &schema).expect("and analyze");
            probe.trace.end(span);
            let mut session = Session::new(Source::Snapshot(&snapshot), Defaults::default())
                .expect("a session over a snapshot");
            let span = probe.trace.begin("fairql.plan", op, None);
            session.plan_of(&analyzed);
            probe.trace.end(span);
            let span = probe.trace.begin("fairql.execute", op, None);
            session.execute(text).expect("and execute");
            probe.trace.end(span);
        }
    }
    // Per statement: each op ran every query once.
    let per_query = |span: &str| median_ms(&probe.trace, span, None) / QUERIES.len() as f64;
    layers.set("fairql.parse_us", per_query("fairql.parse") * 1e3);
    layers.set("fairql.analyze_us", per_query("fairql.analyze") * 1e3);
    layers.set("fairql.plan_us", per_query("fairql.plan") * 1e3);
    layers.set("fairql.execute_ms", per_query("fairql.execute"));
}

#[cfg(test)]
mod tests {
    use crate::workloads::tests::run_tiny;

    #[test]
    fn serve_mixed_passes_its_oracle_traced_and_untraced() {
        for traced in [false, true] {
            let outcome = run_tiny("serve_mixed", traced);
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted >= 10, "{outcome:?}");
            let layer = |name: &str| {
                outcome
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value)
                    .expect("declared layer")
            };
            assert!(layer("serve.repeat_share") > 0.0);
            if traced {
                for name in [
                    "stream.run_epoch_ms",
                    "stream.snapshot_audit_ms",
                    "fairql.execute_ms",
                    "serve.ping_us",
                    "core.context.build_ms",
                ] {
                    assert!(layer(name) > 0.0, "{name}");
                }
            }
        }
    }
}
