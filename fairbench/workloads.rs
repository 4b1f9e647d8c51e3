//! The batch workloads (`batch_1m`, `paged_1m`, `paper_sweep_500`) and
//! what all four share: scale, the measured loop, correctness checks
//! and the metrics they report. README.md says why each workload exists.

use crate::report::{Layers, Metric, END_TO_END};
use crate::serve_mixed::{self, ServeShape};
use crate::stats;
use crate::trace::{SpanId, TimedDistance, Trace};
use fairjob_bench::prepare_population;
use fairjob_core::algorithms::balanced::Balanced;
use fairjob_core::algorithms::{paper_algorithms, Algorithm, AttributeChoice};
use fairjob_core::{AuditConfig, AuditContext, AuditError, AuditResult, EngineStats};
use fairjob_hist::HistogramDistance;
use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
use fairjob_store::paged::{write_paged, PagedColumn};
use fairjob_store::{PagedStore, Table};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every workload, in the order a full run measures them.
pub const WORKLOADS: [&str; 4] = ["batch_1m", "paged_1m", "paper_sweep_500", "serve_mixed"];

/// The paper's algorithms, in the order of its tables.
const ALGORITHMS: [&str; 5] = [
    "unbalanced",
    "r-unbalanced",
    "balanced",
    "r-balanced",
    "all-attributes",
];

/// Protected attributes of the batch and paged audits.
const BATCH_ATTRS: [&str; 2] = ["gender", "country"];

/// How much work a run does. [`Scale::full`] is what the benchmark
/// measures; tests shrink it.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Workers in the batch and paged populations.
    pub rows: usize,
    /// Workers in each paper-sweep population.
    pub sweep_rows: usize,
    /// Warm-up audits in each batch or paged set-up.
    pub warmups: usize,
    /// Populations `paper_sweep_500` and `serve_mixed` each measure in
    /// one run, all made from its seed. Their op latency moves with the
    /// population (audit cost varies by about 15% from one population
    /// to the next), so one run averages over many. Each population is
    /// set up once.
    pub populations: usize,
    /// Set-ups per run of `batch_1m` and `paged_1m`; the last one
    /// serves the measured ops. On every workload `setup_s` is the
    /// median of the run's set-ups.
    pub setups: usize,
    /// How long ops are measured.
    pub window: Duration,
    /// Ops run even when the window closes first.
    pub min_ops: u64,
    pub serve: ServeShape,
}

impl Scale {
    pub fn full(seconds: u64) -> Self {
        Scale {
            rows: 1_000_000,
            sweep_rows: 500,
            warmups: 20,
            populations: 16,
            setups: 7,
            window: Duration::from_secs(seconds),
            min_ops: 5,
            serve: ServeShape {
                workers: 200,
                events_per_epoch: 5,
                epoch_period: Duration::from_secs(1),
                read_period: Duration::from_millis(100),
            },
        }
    }
}

/// What one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `p50_ms` and `setup_s`.
    pub end_to_end: Vec<Metric>,
    /// Per-verb latencies, sample counts and the failed share.
    pub detail: Vec<Metric>,
    /// Every per-layer metric; meaningful on traced runs only.
    pub layers: Vec<Metric>,
    pub trace: Trace,
}

/// A wrong answer: the run stops and names it.
#[derive(Debug)]
pub struct Mismatch {
    pub attempted: u64,
    pub message: String,
}

/// Run workload `name` (one of [`WORKLOADS`]) on inputs made from
/// `seed`. `dir` holds the paged workload's file while it runs.
pub fn run(
    name: &str,
    seed: u64,
    scale: &Scale,
    traced: bool,
    dir: &Path,
) -> Result<Outcome, Mismatch> {
    let probe = Probe::new(traced);
    let balanced = Balanced::new(AttributeChoice::Worst);
    match name {
        "batch_1m" => batch_1m(seed, scale, probe, &balanced),
        "paged_1m" => paged_1m(seed, scale, probe, dir, &balanced),
        "paper_sweep_500" => paper_sweep_500(seed, scale, probe),
        "serve_mixed" => serve_mixed::run(seed, scale, probe),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Seed of population `i` of a run seeded `seed`; no two (seed, i)
/// pairs of one scale share one.
pub fn population_seed(seed: u64, scale: &Scale, i: usize) -> u64 {
    seed.wrapping_mul(scale.populations as u64)
        .wrapping_add(i as u64)
}

/// The trace of a run and, when tracing, the timed distance its audits
/// use.
pub struct Probe {
    pub trace: Trace,
    timed: Option<Arc<TimedDistance>>,
}

impl Probe {
    pub fn new(traced: bool) -> Self {
        Probe {
            trace: Trace::new(traced, Instant::now()),
            timed: traced.then(|| Arc::new(TimedDistance::new(AuditConfig::default().distance))),
        }
    }

    /// The library's default distance, wrapped in the timer when tracing.
    pub fn distance(&self) -> Arc<dyn HistogramDistance> {
        match &self.timed {
            Some(timed) => Arc::clone(timed) as Arc<dyn HistogramDistance>,
            None => AuditConfig::default().distance,
        }
    }

    /// Forget per-pair calls made so far (by warm-ups).
    pub fn drain(&self) {
        if let Some(timed) = &self.timed {
            timed.bounds.take();
            timed.solve.take();
        }
    }

    /// Score `table` with f1 in a `marketplace.score` span of set-up `op`.
    fn score(&mut self, table: &Table, op: u64) -> Vec<f64> {
        let span = self.trace.begin("marketplace.score", op, None);
        let scores = f1().score_all(table).expect("scoring generated workers");
        self.trace.end(span);
        scores
    }

    /// Record the per-pair calls made since the last drain under `parent`.
    pub fn take_calls(&mut self, op: u64, parent: Option<SpanId>) {
        if let Some(timed) = &self.timed {
            self.trace
                .take_calls("hist.bounds", op, parent, &timed.bounds);
            self.trace.take_calls("emd.solve", op, parent, &timed.solve);
        }
    }

    /// One audit: build the context, run the algorithm, drop the
    /// context, with a span around each call.
    pub fn audit<'a>(
        &mut self,
        op: u64,
        parent: Option<SpanId>,
        build: impl FnOnce() -> Result<AuditContext<'a>, AuditError>,
        algorithm: &dyn Algorithm,
    ) -> Result<AuditResult, AuditError> {
        let span = self.trace.begin("core.context.build", op, parent);
        let ctx = build();
        self.trace.end(span);
        let ctx = ctx?;
        let span = self
            .trace
            .begin_detail("core.engine.run", algorithm.name(), op, parent);
        let result = algorithm.run(&ctx);
        self.trace.end(span);
        self.take_calls(op, span);
        result
    }
}

/// An audit outside the measured ops (warm-ups and oracles).
pub fn quiet_audit<'a>(
    build: impl FnOnce() -> Result<AuditContext<'a>, AuditError>,
    algorithm: &dyn Algorithm,
) -> AuditResult {
    build()
        .and_then(|ctx| algorithm.run(&ctx))
        .expect("an audit of a generated population succeeds")
}

/// The paper's f1: α = 0.5 between language test and approval rate.
fn f1() -> LinearScore {
    LinearScore::alpha("f1", 0.5)
}

/// Unfairness bits of one in-memory audit of `table` under f1, run after
/// the measured window: the answer the first audit, and so every
/// measured op, must have given.
fn oracle_bits(table: &Table, config: &AuditConfig, algorithm: &dyn Algorithm) -> u64 {
    let scores = f1().score_all(table).expect("scoring generated workers");
    quiet_audit(
        || AuditContext::new(table, &scores, config.clone()),
        algorithm,
    )
    .unfairness
    .to_bits()
}

fn batch_config(distance: Arc<dyn HistogramDistance>) -> AuditConfig {
    AuditConfig {
        attributes: Some(BATCH_ATTRS.map(String::from).to_vec()),
        distance,
        ..AuditConfig::default()
    }
}

fn seconds_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

/// The counters an audit's own work fixes. Page hits, misses and
/// evictions also depend on what earlier audits left in the buffer
/// pool, so they are left out.
fn cold_counters(stats: &EngineStats) -> EngineStats {
    EngineStats {
        page_hits: 0,
        page_misses: 0,
        page_evictions: 0,
        ..*stats
    }
}

/// The answer and the cold counters of the process's first audit of
/// each kind (one algorithm on one population), numbered from 0 in the
/// order they first run.
///
/// Nothing audits those inputs before it, so it ran cold even if some
/// cache kept results across audits. Every measured audit of its kind
/// must give its bits and do its work: one that reused another audit's
/// work would count fewer splits or distances. The oracles run only
/// after the measured window, so they cannot warm such a cache for the
/// first audit, and must then agree with it.
#[derive(Debug, Default)]
struct FirstAudits(Vec<(u64, EngineStats)>);

impl FirstAudits {
    /// Keep `result` as the first audit of `kind` unless one is kept.
    fn note(&mut self, kind: usize, result: &AuditResult) {
        if self.0.len() == kind {
            self.0
                .push((result.unfairness.to_bits(), cold_counters(&result.engine)));
        }
    }

    /// Measured op `op` gave `results`, of kinds `first_kind…` in order.
    fn check(&self, op: u64, first_kind: usize, results: &[AuditResult]) -> Result<(), String> {
        results
            .iter()
            .zip(&self.0[first_kind..])
            .try_for_each(|(r, first)| check_audit(op, r, first))
    }

    /// The oracle's bits for every kind, in order, against the first
    /// audits', once `attempted` ops have been measured.
    fn confirm(&self, oracle: &[u64], attempted: u64) -> Result<(), Mismatch> {
        assert_eq!(self.0.len(), oracle.len(), "one oracle per audit kind");
        for (kind, (&(bits, _), &expected)) in self.0.iter().zip(oracle).enumerate() {
            if bits != expected {
                return Err(Mismatch {
                    attempted,
                    message: format!(
                        "audit kind {kind}: unfairness bits {bits:016x} differ from the \
                         oracle's {expected:016x}"
                    ),
                });
            }
        }
        Ok(())
    }
}

/// One measured audit against the first audit of its kind.
fn check_audit(
    op: u64,
    result: &AuditResult,
    &(first_bits, first): &(u64, EngineStats),
) -> Result<(), String> {
    let bits = result.unfairness.to_bits();
    if bits != first_bits {
        return Err(format!(
            "op {op}: {} unfairness bits {bits:016x} differ from the first audit's \
             {first_bits:016x}",
            result.algorithm
        ));
    }
    let counters = cold_counters(&result.engine);
    if counters != first {
        return Err(format!(
            "op {op}: {} engine counters differ from the process's first audit \
             (work reused across audits?)\n  first: {first:?}\n  op:    {counters:?}",
            result.algorithm
        ));
    }
    Ok(())
}

/// Engine counters summed over the measured ops.
#[derive(Debug, Default)]
pub struct Totals {
    pub ops: u64,
    pub engine: EngineStats,
}

impl Totals {
    pub fn per_op(&self, count: u64) -> f64 {
        count as f64 / self.ops.max(1) as f64
    }
}

/// What the measured window of a workload saw.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Latency of every op, one list per population; a failed op is an
    /// infinite sample.
    pub ops_ms: Vec<Vec<f64>>,
}

impl Measured {
    /// Every op's latency, whatever its population.
    pub fn all_ms(&self) -> Vec<f64> {
        self.ops_ms.concat()
    }

    /// The median op latency of each population, averaged over the
    /// populations. Populations differ in cost, so their pooled ops
    /// form one cluster per population, and the pooled median would
    /// jump between clusters from one run to the next.
    fn p50_ms(&self) -> f64 {
        let medians: Vec<f64> = self.ops_ms.iter().map(|ms| stats::median(ms)).collect();
        medians.iter().sum::<f64>() / medians.len() as f64
    }
}

/// Run ops back to back until the window closes (and at least
/// `min_ops`), each timed from outside, in a root span called `root`.
/// The closures get the op's id and its index `i` among the measured
/// ops; op `i` has id `first_op + i` and is on population
/// `i mod populations`. A failed op is an infinite-latency sample; a
/// wrong answer ends the run.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    probe: &mut Probe,
    scale: &Scale,
    first_op: u64,
    populations: usize,
    root: &'static str,
    mut op_fn: impl FnMut(
        &mut Probe,
        u64,
        usize,
        Option<SpanId>,
    ) -> Result<Vec<AuditResult>, AuditError>,
    mut check: impl FnMut(u64, usize, &[AuditResult]) -> Result<(), String>,
) -> Result<(Measured, Totals), Mismatch> {
    probe.drain();
    let mut totals = Totals::default();
    let mut out = Measured {
        ops_ms: vec![Vec::new(); populations],
        ..Measured::default()
    };
    let deadline = Instant::now() + scale.window;
    while out.attempted < scale.min_ops || Instant::now() < deadline {
        let index = out.attempted as usize;
        let op = first_op + out.attempted;
        out.attempted += 1;
        let started = Instant::now();
        let span = probe.trace.begin(root, op, None);
        let results = op_fn(probe, op, index, span);
        probe.trace.end(span);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match results {
            Ok(results) => {
                check(op, index, &results).map_err(|message| Mismatch {
                    attempted: out.attempted,
                    message,
                })?;
                out.ops_ms[index % populations].push(ms);
                totals.ops += 1;
                for r in &results {
                    totals.engine.merge(&r.engine);
                }
            }
            Err(e) => {
                eprintln!("fairbench: op {op} failed: {e}");
                out.failed += 1;
                out.ops_ms[index % populations].push(f64::INFINITY);
            }
        }
    }
    Ok((out, totals))
}

/// Percentile name: 900 → `p90`, 999 → `p99.9`.
fn percentile_name(permille: u32) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

/// `<verb>_p50_ms`, the highest percentile the sample supports (see
/// [`stats::tail_permille`]) and `<verb>_samples`.
pub fn latency_detail(verb: &str, samples_ms: &[f64]) -> Vec<Metric> {
    let sorted = stats::sorted(samples_ms);
    let mut out = vec![Metric::new(
        format!("{verb}_p50_ms"),
        stats::percentile(&sorted, 500),
        "ms",
    )];
    if let Some(p) = stats::tail_permille(sorted.len()).filter(|&p| p > 500) {
        out.push(Metric::new(
            format!("{verb}_{}_ms", percentile_name(p)),
            stats::percentile(&sorted, p),
            "ms",
        ));
    }
    out.push(Metric::new(
        format!("{verb}_samples"),
        sorted.len() as f64,
        "count",
    ));
    out
}

/// Assemble an outcome: end-to-end metrics from the op latencies and
/// set-up times, the failed share, and the layers the trace saw.
pub fn finish(
    measured: &Measured,
    setups_s: &[f64],
    mut detail: Vec<Metric>,
    mut layers: Layers,
    trace: Trace,
) -> Outcome {
    let p50 = measured.p50_ms();
    detail.push(Metric::new(
        "failed_frac",
        measured.failed as f64 / measured.attempted.max(1) as f64,
        "ratio",
    ));
    layers.set("trace.op_p50_ms", p50);
    let [(p50_name, ms), (setup_name, s)] = END_TO_END;
    Outcome {
        attempted: measured.attempted,
        failed: measured.failed,
        end_to_end: vec![
            Metric::new(p50_name, p50, ms),
            Metric::new(setup_name, stats::median(setups_s), s),
        ],
        detail,
        layers: layers.emit(),
        trace,
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Median over ops of the time spent in spans `name`; 0 when no op
/// entered them.
pub fn median_ms(trace: &Trace, name: &str, detail: Option<&str>) -> f64 {
    let per_op = trace.per_op_ms(name, detail);
    if per_op.is_empty() {
        0.0
    } else {
        stats::median(&per_op)
    }
}

/// The `marketplace`, `core`, `hist`, `emd` and `store` layers, from
/// the spans, the per-pair aggregates and the engine counters of the
/// measured ops.
pub fn audit_layers(layers: &mut Layers, trace: &Trace, totals: &Totals) {
    let e = &totals.engine;
    let per = |count: u64| totals.per_op(count);
    for (metric, span) in [
        ("marketplace.score_ms", "marketplace.score"),
        ("store.paged.write_ms", "store.paged.write"),
        ("store.paged.open_ms", "store.paged.open"),
    ] {
        layers.set(metric, median_ms(trace, span, None));
    }
    layers.set(
        "core.context.build_ms",
        median_ms(trace, "core.context.build", None),
    );
    layers.set("core.context.shard_tasks", per(e.shard_tasks));
    layers.set(
        "core.context.rows_classified",
        per(e.rows_classified_parallel),
    );
    layers.set(
        "core.engine.run_ms",
        median_ms(trace, "core.engine.run", None),
    );
    for algorithm in ALGORITHMS {
        layers.set(
            &format!("core.engine.run_ms.{algorithm}"),
            median_ms(trace, "core.engine.run", Some(algorithm)),
        );
    }
    layers.set("core.engine.splits_computed", per(e.splits_computed));
    layers.set("core.engine.split_cache_hits", per(e.split_cache_hits));
    layers.set("core.engine.rows_scanned", per(e.rows_scanned));
    layers.set("core.engine.histograms_built", per(e.histograms_built));
    layers.set("core.engine.distances_computed", per(e.distances_computed));
    layers.set("core.engine.pool_tasks", per(e.pool_tasks));
    layers.set(
        "core.engine.memo_hit_ratio",
        ratio(e.cache_hits, e.lookups()),
    );
    let ops = totals.ops.max(1) as f64;
    for (layer, aggregate) in [("hist.bounds", "hist.bounds"), ("emd.solve", "emd.solve")] {
        let (calls, busy_ms) = trace.calls_total(aggregate);
        layers.set(&format!("{layer}.calls"), calls as f64 / ops);
        layers.set(&format!("{layer}.busy_ms"), busy_ms / ops);
    }
    layers.set(
        "hist.bounds.screened_ratio",
        ratio(e.bounds_screened, e.bounds_screened + e.exact_solves),
    );
    layers.set("emd.solve.warm_starts", per(e.warm_starts));
    layers.set("emd.solve.ground_cache_hits", per(e.ground_cache_hits));
    layers.set("emd.solve.scratch_reuses", per(e.scratch_reuses));
    layers.set("store.paged.page_hits", per(e.page_hits));
    layers.set("store.paged.page_misses", per(e.page_misses));
    layers.set("store.paged.page_evictions", per(e.page_evictions));
    layers.set("store.paged.pages_scanned", per(e.pages_scanned));
    layers.set(
        "store.paged.hit_ratio",
        ratio(e.page_hits, e.page_hits + e.page_misses),
    );
}

/// `batch_1m`: repeated cold audits of a million in-memory workers.
fn batch_1m(
    seed: u64,
    scale: &Scale,
    mut probe: Probe,
    algorithm: &dyn Algorithm,
) -> Result<Outcome, Mismatch> {
    let table = prepare_population(scale.rows, seed);
    let config = batch_config(probe.distance());
    let mut scores = Vec::new();
    let mut first = FirstAudits::default();
    let mut setups_s = Vec::new();
    for rep in 0..scale.setups {
        let started = Instant::now();
        scores = probe.score(&table, rep as u64);
        for _ in 0..scale.warmups {
            first.note(
                0,
                &quiet_audit(
                    || AuditContext::new(&table, &scores, config.clone()),
                    algorithm,
                ),
            );
        }
        setups_s.push(seconds_since(started));
    }
    let (measured, totals) = closed_loop(
        &mut probe,
        scale,
        setups_s.len() as u64,
        1,
        "audit",
        |probe, op, _, parent| {
            probe
                .audit(
                    op,
                    parent,
                    || AuditContext::new(&table, &scores, config.clone()),
                    algorithm,
                )
                .map(|r| vec![r])
        },
        |op, _, results| first.check(op, 0, results),
    )?;
    let oracle = oracle_bits(
        &table,
        &batch_config(AuditConfig::default().distance),
        algorithm,
    );
    first.confirm(&[oracle], measured.attempted)?;
    let mut layers = Layers::default();
    audit_layers(&mut layers, &probe.trace, &totals);
    Ok(finish(
        &measured,
        &setups_s,
        latency_detail("audit", &measured.all_ms()),
        layers,
        probe.trace,
    ))
}

/// Removes a file when dropped.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Decoded bytes of the pages an audit of [`BATCH_ATTRS`] reads: the
/// score column and the audited attribute columns.
fn audited_working_set(store: &PagedStore) -> usize {
    let mut columns = vec![PagedColumn::Scores];
    for name in BATCH_ATTRS {
        let attr = store
            .schema()
            .index_of(name)
            .expect("generated schema has the audited attributes");
        columns.push(PagedColumn::Attribute(attr));
    }
    columns
        .iter()
        .flat_map(|&column| store.pages_of(column))
        .map(|&id| {
            let meta = store.page_meta(id);
            meta.rows as usize * meta.kind.row_bytes()
        })
        .sum()
}

/// `paged_1m`: the `batch_1m` audit streamed from the paged store
/// through a buffer pool a quarter the size of its working set.
fn paged_1m(
    seed: u64,
    scale: &Scale,
    mut probe: Probe,
    dir: &Path,
    algorithm: &dyn Algorithm,
) -> Result<Outcome, Mismatch> {
    let table = prepare_population(scale.rows, seed);
    let file = TempFile(dir.join(format!("paged-{}-{seed}.fjp", std::process::id())));
    let config = batch_config(probe.distance());
    let mut store = None;
    let mut first = FirstAudits::default();
    let mut setups_s = Vec::new();
    for rep in 0..scale.setups {
        // The previous set-up's store must close before its file is
        // rewritten.
        drop(store.take());
        let op = rep as u64;
        let started = Instant::now();
        let scores = probe.score(&table, op);
        let span = probe.trace.begin("store.paged.write", op, None);
        write_paged(&file.0, &table, Some(&scores), None, 0, config.bins)
            .expect("write the paged file");
        probe.trace.end(span);
        let working_set =
            audited_working_set(&PagedStore::open(&file.0, 1).expect("open the paged file"));
        let span = probe.trace.begin("store.paged.open", op, None);
        let opened =
            PagedStore::open(&file.0, (working_set / 4).max(1)).expect("open the paged file");
        probe.trace.end(span);
        for _ in 0..scale.warmups {
            first.note(
                0,
                &quiet_audit(
                    || AuditContext::from_paged(&opened, config.clone(), None, None),
                    algorithm,
                ),
            );
        }
        store = Some(opened);
        setups_s.push(seconds_since(started));
    }
    let store = store.expect("at least one set-up");
    let (measured, totals) = closed_loop(
        &mut probe,
        scale,
        setups_s.len() as u64,
        1,
        "audit",
        |probe, op, _, parent| {
            probe
                .audit(
                    op,
                    parent,
                    || AuditContext::from_paged(&store, config.clone(), None, None),
                    algorithm,
                )
                .map(|r| vec![r])
        },
        |op, _, results| first.check(op, 0, results),
    )?;
    // The paged audit must answer as the in-memory one does.
    let oracle = oracle_bits(
        &table,
        &batch_config(AuditConfig::default().distance),
        algorithm,
    );
    first.confirm(&[oracle], measured.attempted)?;
    let mut layers = Layers::default();
    audit_layers(&mut layers, &probe.trace, &totals);
    Ok(finish(
        &measured,
        &setups_s,
        latency_detail("audit", &measured.all_ms()),
        layers,
        probe.trace,
    ))
}

/// `paper_sweep_500`: Table 1's five algorithms over populations of 500
/// workers and all six protected attributes, each on a fresh context.
fn paper_sweep_500(seed: u64, scale: &Scale, mut probe: Probe) -> Result<Outcome, Mismatch> {
    let tables: Vec<Table> = (0..scale.populations)
        .map(|i| prepare_population(scale.sweep_rows, population_seed(seed, scale, i)))
        .collect();
    let algorithms = paper_algorithms(seed);
    let config = AuditConfig {
        distance: probe.distance(),
        ..AuditConfig::default()
    };
    // Audit kind `p * algorithms.len() + a`: algorithm `a` on population
    // `p`. Set-up `p` scores population `p` and sweeps it once.
    let mut scores = Vec::new();
    let mut first = FirstAudits::default();
    let mut setups_s = Vec::new();
    for (p, table) in tables.iter().enumerate() {
        let started = Instant::now();
        let population_scores = probe.score(table, p as u64);
        for (a, algorithm) in algorithms.iter().enumerate() {
            first.note(
                p * algorithms.len() + a,
                &quiet_audit(
                    || AuditContext::new(table, &population_scores, config.clone()),
                    algorithm.as_ref(),
                ),
            );
        }
        scores.push(population_scores);
        setups_s.push(seconds_since(started));
    }
    // Op `i` sweeps population `i mod populations`.
    let (measured, totals) = closed_loop(
        &mut probe,
        scale,
        setups_s.len() as u64,
        tables.len(),
        "sweep",
        |probe, op, index, parent| {
            let p = index % tables.len();
            algorithms
                .iter()
                .map(|a| {
                    probe.audit(
                        op,
                        parent,
                        || AuditContext::new(&tables[p], &scores[p], config.clone()),
                        a.as_ref(),
                    )
                })
                .collect()
        },
        |op, index, results| first.check(op, index % tables.len() * algorithms.len(), results),
    )?;
    let one_thread = AuditConfig {
        threads: Some(1),
        ..AuditConfig::default()
    };
    let oracle: Vec<u64> = tables
        .iter()
        .flat_map(|table| {
            algorithms
                .iter()
                .map(|a| oracle_bits(table, &one_thread, a.as_ref()))
                .collect::<Vec<_>>()
        })
        .collect();
    first.confirm(&oracle, measured.attempted)?;
    let mut layers = Layers::default();
    audit_layers(&mut layers, &probe.trace, &totals);
    Ok(finish(
        &measured,
        &setups_s,
        latency_detail("sweep", &measured.all_ms()),
        layers,
        probe.trace,
    ))
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use std::cell::RefCell;

    /// About 20k rows and a few ops: every workload end to end, through
    /// its correctness checks.
    pub fn tiny() -> Scale {
        Scale {
            rows: 20_000,
            sweep_rows: 200,
            warmups: 1,
            populations: 2,
            setups: 2,
            window: Duration::ZERO,
            min_ops: 3,
            serve: ServeShape {
                workers: 120,
                events_per_epoch: 5,
                epoch_period: Duration::from_millis(150),
                read_period: Duration::from_millis(25),
            },
        }
    }

    pub fn run_tiny(name: &str, traced: bool) -> Outcome {
        let dir = std::env::temp_dir();
        let scale = Scale {
            window: if name == "serve_mixed" {
                Duration::from_millis(450)
            } else {
                Duration::ZERO
            },
            ..tiny()
        };
        match run(name, 11, &scale, traced, &dir) {
            Ok(outcome) => outcome,
            Err(m) => panic!("{name}: {}", m.message),
        }
    }

    fn metric(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    }

    fn assert_sane(name: &str, outcome: &Outcome, traced: bool) {
        assert!(outcome.attempted >= 3, "{name}: {outcome:?}");
        assert_eq!(outcome.failed, 0, "{name}");
        for m in &outcome.end_to_end {
            assert!(m.value.is_finite() && m.value > 0.0, "{name}: {m:?}");
        }
        assert_eq!(outcome.layers.len(), crate::report::PER_LAYER.len());
        if traced {
            assert!(
                metric(&outcome.layers, "core.engine.run_ms") > 0.0,
                "{name}"
            );
            assert!(metric(&outcome.layers, "hist.bounds.calls") > 0.0, "{name}");
        }
    }

    #[test]
    fn batch_workloads_pass_their_oracles_traced_and_untraced() {
        for name in ["batch_1m", "paged_1m", "paper_sweep_500"] {
            for traced in [false, true] {
                let outcome = run_tiny(name, traced);
                assert_sane(name, &outcome, traced);
            }
        }
        let paged = run_tiny("paged_1m", true);
        assert!(metric(&paged.layers, "store.paged.page_misses") > 0.0);
        assert!(metric(&paged.layers, "store.paged.write_ms") > 0.0);
        let sweep = run_tiny("paper_sweep_500", true);
        for algorithm in ALGORITHMS {
            let name = format!("core.engine.run_ms.{algorithm}");
            assert!(metric(&sweep.layers, &name) > 0.0, "{name}");
        }
    }

    fn result(unfairness: f64, engine: EngineStats) -> AuditResult {
        AuditResult {
            algorithm: "balanced".to_string(),
            partitioning: fairjob_core::Partitioning::new(Vec::new()),
            unfairness,
            elapsed: Duration::ZERO,
            candidates_evaluated: 1,
            engine,
        }
    }

    #[test]
    fn guard_catches_a_wrong_answer_and_reused_work() {
        let cold = EngineStats {
            splits_computed: 4,
            ..EngineStats::default()
        };
        let mut first = FirstAudits::default();
        first.note(0, &result(0.25, cold));
        // Later audits of a kind never replace its first.
        first.note(0, &result(0.5, EngineStats::default()));
        assert!(first.check(1, 0, &[result(0.25, cold)]).is_ok());
        let wrong = first.check(2, 0, &[result(0.5, cold)]).unwrap_err();
        assert!(
            wrong.contains("op 2") && wrong.contains("first audit"),
            "{wrong}"
        );
        let warm = EngineStats {
            splits_computed: 0,
            split_cache_hits: 4,
            ..cold
        };
        let reused = first.check(3, 0, &[result(0.25, warm)]).unwrap_err();
        assert!(reused.contains("work reused"), "{reused}");
        // Page-cache traffic alone is not reused work.
        let paged = EngineStats {
            page_hits: 5,
            ..cold
        };
        assert!(first.check(4, 0, &[result(0.25, paged)]).is_ok());
        assert!(first.confirm(&[0.25f64.to_bits()], 4).is_ok());
        let oracle = first.confirm(&[0.5f64.to_bits()], 4).unwrap_err();
        assert!(oracle.message.contains("oracle"), "{}", oracle.message);
    }

    /// Hands the first answer it computed back to every later audit,
    /// with no work counted: reuse across audits, which the cold-op
    /// guard must reject whichever audit computed the answer.
    struct Remembering {
        inner: Balanced,
        kept: RefCell<Option<AuditResult>>,
    }

    impl Algorithm for Remembering {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn run(&self, ctx: &AuditContext<'_>) -> Result<AuditResult, AuditError> {
            if let Some(kept) = self.kept.borrow().as_ref() {
                return Ok(AuditResult {
                    engine: EngineStats::default(),
                    ..kept.clone()
                });
            }
            let result = self.inner.run(ctx)?;
            *self.kept.borrow_mut() = Some(result.clone());
            Ok(result)
        }
    }

    #[test]
    fn cold_op_guard_rejects_a_cache_across_audits() {
        let dir = std::env::temp_dir();
        for paged in [false, true] {
            let remembering = Remembering {
                inner: Balanced::new(AttributeChoice::Worst),
                kept: RefCell::new(None),
            };
            let outcome = if paged {
                paged_1m(11, &tiny(), Probe::new(false), &dir, &remembering)
            } else {
                batch_1m(11, &tiny(), Probe::new(false), &remembering)
            };
            let message = outcome.expect_err("reuse passed the guard").message;
            assert!(message.contains("work reused"), "{message}");
        }
    }

    #[test]
    fn latency_detail_reports_the_supported_tail() {
        let ms: Vec<f64> = (1..=200).map(f64::from).collect();
        let detail = latency_detail("audit", &ms);
        let names: Vec<&str> = detail.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["audit_p50_ms", "audit_p95_ms", "audit_samples"]);
        assert_eq!(detail[1].value, 190.0);
        assert_eq!(latency_detail("x", &[1.0]).len(), 2);
        assert_eq!(percentile_name(999), "p99.9");
    }
}
