//! The resident audit daemon.
//!
//! [`Server::start`] binds a TCP listener and serves the
//! `fairjob-serve v1` protocol ([`crate::protocol`]) until shut down.
//! Concurrency model:
//!
//! - **One writer, many readers.** The first session to send `EPOCH`
//!   claims the writer role for its lifetime; it owns the
//!   [`StreamAuditor`] and appends epochs through the warm incremental
//!   path. Everyone else gets `ERR writer-busy`.
//! - **Publication.** [`Server::start`] audits the starting epoch
//!   through the writer's [`StreamAuditor`], and each applied epoch is
//!   audited warm by the writer. Each audited epoch is published as one
//!   `Arc` holding the [`StreamSnapshot`] and the `AUDIT` reply rendered
//!   from the writer's [`EpochReport`], swapped in a single store. A
//!   reader `AUDIT` returns that reply: it runs no audit and needs no
//!   admission permit. The writer's warm result is bit-identical to a
//!   cold offline audit of the same epoch.
//! - **Off-lock queries.** `QUERY` clones the published `Arc` and runs
//!   FairQL against its snapshot off-lock, so a long query never blocks
//!   ingest and an epoch application never blocks queries
//!   (copy-on-write isolation: later writer mutations cannot reach a
//!   published snapshot).
//! - **Admission control.** At most `max_inflight` queries run at
//!   once; excess requests are rejected with `ERR overloaded`
//!   immediately instead of queueing ([`AdmissionGate`]).
//! - **Bounded input.** A request line or `EPOCH` payload record longer
//!   than [`protocol::MAX_LINE_BYTES`], or an `EPOCH` payload whose
//!   records add up to more than [`protocol::MAX_EPOCH_BYTES`], gets
//!   `ERR usage` and closes the session, since the framing is lost.
//! - **Clean shutdown.** `SHUTDOWN`, [`Server::shutdown`], or a
//!   listener error set the drain flag; sessions notice within one
//!   poll interval, finish their current request, and the accept loop
//!   joins every session thread before returning — no `process::exit`
//!   mid-request.

use crate::admission::AdmissionGate;
use crate::error::ServeError;
use crate::protocol::{self, Request, MAX_EPOCH_BYTES, MAX_LINE_BYTES, PROTOCOL_HEADER};
use fairjob_core::algorithms::Algorithm;
use fairjob_core::pool::WorkerPool;
use fairjob_core::{AuditConfig, EngineStats};
use fairjob_fairql::{Defaults, QueryError, QueryOutput, Session, Source, WarmCache};
use fairjob_stream::{EpochReport, StreamAuditor, StreamSnapshot, StreamView};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How a [`Server`] is run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::addr`]).
    pub addr: String,
    /// Concurrent-`QUERY` budget; further `QUERY`s get
    /// `ERR overloaded`. `AUDIT` needs no permit.
    pub max_inflight: usize,
    /// Accept at most this many sessions, then stop listening and
    /// drain — `None` serves until [`Server::shutdown`]. Lets a CLI
    /// invocation serve a bounded workload and exit cleanly.
    pub max_sessions: Option<u64>,
    /// How often a blocked session read re-checks the drain flag.
    pub poll_interval: Duration,
    /// Seed handed to `QUERY` sessions for randomised algorithms named
    /// in `USING` clauses (the CLI threads its `--seed` through).
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 4,
            max_sessions: None,
            poll_interval: Duration::from_millis(100),
            seed: 0xBEEF,
        }
    }
}

/// Monotonic server-wide counters behind `METRICS`.
#[derive(Debug, Default)]
struct Metrics {
    sessions_opened: AtomicU64,
    audits_ok: AtomicU64,
    audits_rejected: AtomicU64,
    queries_ok: AtomicU64,
    epochs_applied: AtomicU64,
    errors: AtomicU64,
    /// Worst observed `QUERY` staleness: published epoch at query
    /// completion minus the epoch the query ran against.
    max_epoch_lag: AtomicU64,
    /// [`EngineStats`] totals of the writer's audits (the start audit
    /// and each epoch) and of `QUERY` audits.
    engine: Mutex<EngineStats>,
}

/// The writer role: whichever session holds `owner` may append epochs.
/// A failed epoch retires the auditor (`None` = poisoned): the view may
/// hold a partial epoch, so appending stops while readers keep serving
/// the last published epoch.
#[derive(Debug)]
struct WriterState {
    auditor: Option<StreamAuditor>,
    owner: Option<u64>,
}

/// One audited epoch as readers see it: the snapshot `QUERY` runs
/// against and the `AUDIT` reply rendered from the writer's report on
/// it. The reply is kept as a line rather than an `AuditResult`, so a
/// published epoch keeps no partition row sets alive.
#[derive(Debug)]
struct Published {
    snapshot: StreamSnapshot,
    audit_reply: String,
}

impl Published {
    fn new(snapshot: StreamSnapshot, report: &EpochReport) -> Self {
        let audit_reply = format!(
            "OK epoch={} live={} partitions={} {} elapsed_us={}",
            report.epoch,
            report.live_workers,
            report.audit.partitioning.partitions().len(),
            protocol::render_f64("unfairness", report.audit.unfairness),
            report.audit.elapsed.as_micros(),
        );
        Published {
            snapshot,
            audit_reply,
        }
    }
}

struct Shared {
    published: Mutex<Arc<Published>>,
    writer: Mutex<WriterState>,
    gate: AdmissionGate,
    algorithm: Arc<dyn Algorithm + Send + Sync>,
    config: AuditConfig,
    metrics: Metrics,
    shutdown: AtomicBool,
    poll_interval: Duration,
    seed: u64,
    addr: SocketAddr,
}

fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn published(&self) -> Arc<Published> {
        Arc::clone(&lock_ignore_poison(&self.published))
    }

    /// Set the drain flag and unblock a listener parked in `accept`.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// A running daemon. Dropping it shuts down and joins the accept loop.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<Result<u64, ServeError>>>,
}

impl Server {
    /// Audit `view`'s current epoch with `algorithm` under `config`
    /// through the writer's [`StreamAuditor`], publish it, then bind
    /// `serve.addr` and start serving. The start audit also warms the
    /// writer's caches, so the first `EPOCH` runs incrementally.
    ///
    /// # Errors
    ///
    /// [`ServeError::Stream`] on a bin-layout mismatch between `view`
    /// and `config`, or when the start audit fails (an unusable
    /// `config`, such as an unknown attribute); [`ServeError::Io`] if
    /// the bind fails.
    pub fn start(
        view: StreamView,
        algorithm: Arc<dyn Algorithm + Send + Sync>,
        config: AuditConfig,
        serve: ServeConfig,
    ) -> Result<Server, ServeError> {
        let mut auditor = StreamAuditor::new(view, config.clone())?;
        let report = auditor.audit(&*algorithm)?;
        let published = Published::new(auditor.view().snapshot(), &report);
        let metrics = Metrics {
            engine: Mutex::new(report.audit.engine),
            ..Metrics::default()
        };
        let listener = TcpListener::bind(&serve.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            published: Mutex::new(Arc::new(published)),
            writer: Mutex::new(WriterState {
                auditor: Some(auditor),
                owner: None,
            }),
            gate: AdmissionGate::new(serve.max_inflight),
            algorithm,
            config,
            metrics,
            shutdown: AtomicBool::new(false),
            poll_interval: serve.poll_interval,
            seed: serve.seed,
            addr,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            let max_sessions = serve.max_sessions;
            std::thread::Builder::new()
                .name("fairjob-serve-accept".to_string())
                .spawn(move || accept_loop(&shared, &listener, max_sessions))
                .map_err(ServeError::Io)?
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The epoch of the currently published snapshot.
    pub fn published_epoch(&self) -> u64 {
        self.shared.published().snapshot.epoch()
    }

    /// Begin draining: stop admitting work, wake the accept loop.
    /// Idempotent; returns immediately — use [`Server::join`] to wait.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for the accept loop to finish draining every session.
    ///
    /// Returns the number of sessions served, or the listener error
    /// that forced the drain (in-flight sessions were still joined
    /// before returning — the daemon never aborts mid-request).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the accept loop stopped on a listener
    /// failure rather than a requested shutdown.
    pub fn join(mut self) -> Result<u64, ServeError> {
        let handle = self.accept.take().expect("accept loop joined once");
        match handle.join() {
            Ok(result) => result,
            Err(_) => Err(ServeError::Protocol("accept loop panicked".to_string())),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.accept.take() {
            self.shutdown();
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    max_sessions: Option<u64>,
) -> Result<u64, ServeError> {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    let mut accepted = 0u64;
    let mut failure: Option<ServeError> = None;
    loop {
        if shared.draining() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.draining() {
                    // The shutdown wake-up connection (or a client that
                    // raced the drain flag): close it unanswered.
                    drop(stream);
                    break;
                }
                accepted += 1;
                let id = accepted;
                shared
                    .metrics
                    .sessions_opened
                    .fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(shared);
                match std::thread::Builder::new()
                    .name(format!("fairjob-serve-session-{id}"))
                    .spawn(move || session(&shared, stream, id))
                {
                    Ok(handle) => sessions.push(handle),
                    Err(e) => {
                        failure = Some(ServeError::Io(e));
                        break;
                    }
                }
                if max_sessions.is_some_and(|max| accepted >= max) {
                    // Bounded workload served: stop listening, let the
                    // live sessions run to completion below.
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                // Listener failure: drain in-flight sessions cleanly
                // instead of aborting mid-request.
                failure = Some(ServeError::Io(e));
                break;
            }
        }
    }
    if failure.is_some() {
        shared.shutdown.store(true, Ordering::SeqCst);
    }
    for handle in sessions {
        let _ = handle.join();
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(accepted),
    }
}

/// Per-session counters behind `STATS`.
#[derive(Debug, Default)]
struct SessionStats {
    requests: u64,
    audits: u64,
    epochs: u64,
    queries: u64,
    errors: u64,
}

fn session(shared: &Arc<Shared>, stream: TcpStream, id: u64) {
    // I/O failures end the session; everything protocol-visible is
    // already answered inline.
    let _ = session_inner(shared, stream, id);
    // Release the writer role so a successor session can append (the
    // auditor itself survives unless an epoch failed mid-application).
    let mut writer = lock_ignore_poison(&shared.writer);
    if writer.owner == Some(id) {
        writer.owner = None;
    }
}

fn session_inner(shared: &Arc<Shared>, stream: TcpStream, id: u64) -> Result<(), ServeError> {
    stream.set_read_timeout(Some(shared.poll_interval))?;
    let _ = stream.set_nodelay(true);
    let mut out = stream.try_clone()?;
    respond(&mut out, PROTOCOL_HEADER)?;
    let mut lines = LineReader::new(stream);
    let mut stats = SessionStats::default();
    // FairQL caches survive across this session's QUERY requests, so a
    // repeated audit query reuses the previous run's split/distance
    // caches (invalidated automatically when the snapshot moves on).
    let mut warm = WarmCache::default();
    loop {
        let line = match lines.next_line(|| shared.draining()) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e @ ServeError::LineTooLong) => {
                // The framing is lost: answer once, then close.
                return respond(&mut out, &err_line(shared, &mut stats, &e));
            }
            Err(e) => return Err(e),
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        stats.requests += 1;
        let (response, close) = handle(shared, id, &mut lines, line, &mut stats, &mut warm);
        respond(&mut out, &response)?;
        if close {
            break;
        }
    }
    Ok(())
}

fn respond(out: &mut TcpStream, response: &str) -> Result<(), ServeError> {
    out.write_all(response.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()?;
    Ok(())
}

fn err_line(shared: &Shared, stats: &mut SessionStats, e: &ServeError) -> String {
    stats.errors += 1;
    shared.metrics.errors.fetch_add(1, Ordering::SeqCst);
    format!("ERR {} {}", e.code(), e)
}

fn handle(
    shared: &Arc<Shared>,
    id: u64,
    lines: &mut LineReader,
    line: &str,
    stats: &mut SessionStats,
    warm: &mut WarmCache,
) -> (String, bool) {
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(reason) => {
            return (
                err_line(shared, stats, &ServeError::Protocol(reason)),
                false,
            )
        }
    };
    match request {
        Request::Audit => match do_audit(shared) {
            Ok(response) => {
                stats.audits += 1;
                (response, false)
            }
            Err(e) => (err_line(shared, stats, &e), false),
        },
        Request::Query(text) => match do_query(shared, warm, &text) {
            Ok(response) => {
                stats.queries += 1;
                (response, false)
            }
            Err(e) => (err_line(shared, stats, &e), false),
        },
        Request::Epoch(count) => match do_epoch(shared, id, lines, count) {
            Ok(response) => {
                stats.epochs += 1;
                (response, false)
            }
            // An I/O failure, an overlong record or an oversized payload
            // leaves the stream mid-payload: close the session.
            Err(e @ (ServeError::Io(_) | ServeError::LineTooLong | ServeError::EpochTooLarge)) => {
                (err_line(shared, stats, &e), true)
            }
            Err(e) => (err_line(shared, stats, &e), false),
        },
        Request::Metrics => (render_metrics(shared), false),
        Request::Health => (render_health(shared), false),
        Request::Stats => (
            format!(
                "OK requests={} audits={} epochs={} queries={} errors={}",
                stats.requests, stats.audits, stats.epochs, stats.queries, stats.errors
            ),
            false,
        ),
        Request::Ping => ("OK pong".to_string(), false),
        Request::Quit => ("OK bye".to_string(), true),
        Request::Shutdown => {
            shared.begin_shutdown();
            ("OK draining".to_string(), true)
        }
    }
}

/// The published reply: the writer audited this epoch already, so an
/// `AUDIT` does no audit work and draws no admission permit.
fn do_audit(shared: &Shared) -> Result<String, ServeError> {
    if shared.draining() {
        return Err(ServeError::ShuttingDown);
    }
    let reply = shared.published().audit_reply.clone();
    shared.metrics.audits_ok.fetch_add(1, Ordering::SeqCst);
    Ok(reply)
}

fn map_query_error(e: QueryError) -> ServeError {
    match e {
        QueryError::Parse { offset, message } => ServeError::Parse {
            position: offset,
            message,
        },
        QueryError::Exec(message) => ServeError::Query(message),
    }
}

fn do_query(shared: &Shared, warm: &mut WarmCache, text: &str) -> Result<String, ServeError> {
    if shared.draining() {
        return Err(ServeError::ShuttingDown);
    }
    // Queries can run audits, so they draw from the admission budget.
    let _permit = shared.gate.try_acquire().inspect_err(|_| {
        shared
            .metrics
            .audits_rejected
            .fetch_add(1, Ordering::SeqCst);
    })?;
    let published = shared.published();
    let snapshot = &published.snapshot;
    let defaults = Defaults {
        algorithm: Arc::clone(&shared.algorithm),
        metric: Arc::clone(&shared.config.distance),
        bins: shared.config.bins,
        seed: shared.seed,
        threads: shared.config.threads,
    };
    let mut session = Session::new(Source::Snapshot(snapshot), defaults)
        .map_err(map_query_error)?
        .with_warm(std::mem::take(warm));
    let executed = session.execute(text);
    // Hand the caches back before error mapping so a failed statement
    // in a script doesn't throw away warmth earlier statements built.
    let outputs = match executed {
        Ok(outputs) => {
            *warm = session.into_warm();
            outputs
        }
        Err(e) => {
            *warm = session.into_warm();
            return Err(map_query_error(e));
        }
    };
    // Staleness at completion: how far the published state moved while
    // this query ran off its snapshot.
    let lag = shared
        .published()
        .snapshot
        .epoch()
        .saturating_sub(snapshot.epoch());
    shared
        .metrics
        .max_epoch_lag
        .fetch_max(lag, Ordering::SeqCst);
    let mut payload: Vec<String> = Vec::new();
    for output in &outputs {
        if let QueryOutput::Audit { summary, .. } = output {
            lock_ignore_poison(&shared.metrics.engine).merge(&summary.engine);
            shared.metrics.audits_ok.fetch_add(1, Ordering::SeqCst);
        }
        payload.extend(output.render().lines().map(str::to_string));
    }
    shared.metrics.queries_ok.fetch_add(1, Ordering::SeqCst);
    let mut response = format!("OK results={} lines={}", outputs.len(), payload.len());
    for line in &payload {
        response.push('\n');
        response.push_str(line);
    }
    Ok(response)
}

fn do_epoch(
    shared: &Arc<Shared>,
    id: u64,
    lines: &mut LineReader,
    count: usize,
) -> Result<String, ServeError> {
    // Always consume the promised payload first, even when the epoch
    // will be rejected: leaving record lines unread would desynchronise
    // the session — they would be parsed as request lines. Reading
    // before taking the writer lock also keeps a slow writer's payload
    // I/O from blocking the `writer-busy` answer to a rival session.
    // `count` is client-supplied: the payload grows only as lines
    // arrive, never by reserving `count` slots up front, and never past
    // `MAX_EPOCH_BYTES` of records.
    let mut payload = Vec::new();
    let mut bytes = 0;
    while payload.len() < count {
        match lines.next_line(|| false)? {
            Some(line) => {
                bytes += line.len();
                if bytes > MAX_EPOCH_BYTES {
                    return Err(ServeError::EpochTooLarge);
                }
                payload.push(line);
            }
            None => {
                return Err(ServeError::Protocol(format!(
                    "EPOCH payload truncated: got {} of {count} record lines",
                    payload.len()
                )))
            }
        }
    }
    if shared.draining() {
        return Err(ServeError::ShuttingDown);
    }
    let mut writer = lock_ignore_poison(&shared.writer);
    match writer.owner {
        Some(owner) if owner != id => return Err(ServeError::WriterBusy { owner }),
        _ => writer.owner = Some(id),
    }
    let mut auditor = writer.auditor.take().ok_or(ServeError::WriterPoisoned)?;
    let result = apply_epoch(shared, &mut auditor, &payload);
    match result {
        Ok(response) => {
            writer.auditor = Some(auditor);
            Ok(response)
        }
        Err(e @ ServeError::Protocol(_)) => {
            // The payload never reached the view; the auditor is intact.
            writer.auditor = Some(auditor);
            Err(e)
        }
        Err(e) => {
            // Event application or the audit failed: the view may hold
            // a partial epoch. Retire the auditor (writer poisoned);
            // readers keep the last published epoch.
            Err(e)
        }
    }
}

fn apply_epoch(
    shared: &Shared,
    auditor: &mut StreamAuditor,
    payload: &[String],
) -> Result<String, ServeError> {
    let events = protocol::parse_epoch_records(payload, auditor.view().table().schema())
        .map_err(ServeError::Protocol)?;
    let report = auditor.run_epoch(&events, &*shared.algorithm)?;
    let published = Published::new(auditor.view().snapshot(), &report);
    *lock_ignore_poison(&shared.published) = Arc::new(published);
    shared.metrics.epochs_applied.fetch_add(1, Ordering::SeqCst);
    lock_ignore_poison(&shared.metrics.engine).merge(&report.audit.engine);
    Ok(format!(
        "OK epoch={} live={} events={} changes={} {}",
        report.epoch,
        report.live_workers,
        report.events,
        report.changes,
        protocol::render_f64("unfairness", report.audit.unfairness),
    ))
}

fn render_metrics(shared: &Shared) -> String {
    let published = shared.published();
    let snapshot = &published.snapshot;
    let engine = *lock_ignore_poison(&shared.metrics.engine);
    let m = &shared.metrics;
    let mut out = format!(
        "OK sessions={} audits_ok={} audits_rejected={} queries_ok={} epochs_applied={} \
         errors={} max_epoch_lag={} epoch={} live={} pool_threads={}",
        m.sessions_opened.load(Ordering::SeqCst),
        m.audits_ok.load(Ordering::SeqCst),
        m.audits_rejected.load(Ordering::SeqCst),
        m.queries_ok.load(Ordering::SeqCst),
        m.epochs_applied.load(Ordering::SeqCst),
        m.errors.load(Ordering::SeqCst),
        m.max_epoch_lag.load(Ordering::SeqCst),
        snapshot.epoch(),
        snapshot.live_count(),
        WorkerPool::global().threads_spawned(),
    );
    // Every engine counter, driven by `as_pairs` so a counter added to
    // `EngineStats` shows up here without touching this function.
    for (name, value) in engine.as_pairs() {
        out.push_str(&format!(" {name}={value}"));
    }
    out
}

fn render_health(shared: &Shared) -> String {
    let published = shared.published();
    let snapshot = &published.snapshot;
    let writer = lock_ignore_poison(&shared.writer);
    format!(
        "OK status={} epoch={} live={} inflight={} max_inflight={} writer={}",
        if shared.draining() { "draining" } else { "ok" },
        snapshot.epoch(),
        snapshot.live_count(),
        shared.gate.inflight(),
        shared.gate.max(),
        if writer.auditor.is_some() {
            "ok"
        } else {
            "poisoned"
        },
    )
}

/// A newline framer over a [`TcpStream`] with a read timeout:
/// `BufReader::read_line` would lose buffered bytes on a timeout, so
/// this keeps its own buffer and re-checks `draining` between polls.
/// The buffer holds at most one partial line of [`MAX_LINE_BYTES`] and
/// one read chunk.
#[derive(Debug)]
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    eof: bool,
}

impl LineReader {
    fn new(stream: TcpStream) -> Self {
        LineReader {
            stream,
            buf: Vec::new(),
            start: 0,
            eof: false,
        }
    }

    /// The next line (without its terminator), `None` on EOF or when
    /// `draining()` turns true while idle.
    ///
    /// # Errors
    ///
    /// [`ServeError::LineTooLong`] once a line passes
    /// [`MAX_LINE_BYTES`]; [`ServeError::Io`] on a read failure.
    fn next_line(&mut self, draining: impl Fn() -> bool) -> Result<Option<String>, ServeError> {
        loop {
            let pending = &self.buf[self.start..];
            let newline = pending.iter().position(|&b| b == b'\n');
            if newline.unwrap_or(pending.len()) > MAX_LINE_BYTES {
                return Err(ServeError::LineTooLong);
            }
            if let Some(nl) = newline {
                let line = String::from_utf8_lossy(&pending[..nl])
                    .trim_end_matches('\r')
                    .to_string();
                self.start += nl + 1;
                return Ok(Some(line));
            }
            if self.eof {
                // Trailing bytes without a newline: surface them once.
                if pending.is_empty() {
                    return Ok(None);
                }
                let line = String::from_utf8_lossy(pending).to_string();
                self.start = self.buf.len();
                return Ok(Some(line));
            }
            // Drop the lines already returned, so the buffer holds at
            // most one partial line and one chunk.
            self.buf.drain(..self.start);
            self.start = 0;
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if draining() {
                        return Ok(None);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(ServeError::Io(e)),
            }
        }
    }
}
